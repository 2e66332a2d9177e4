//! Engine throughput bench: emits `BENCH_engine.json` with kernel events
//! per wall-second for the pure-kernel churn workload (10,000 actors,
//! 2,000,000 events) and the soak driver's `scale` profile at N=10,000
//! (`platform_soak_n10000`). See `dlaas_bench::engine` for the
//! artifact's (wall-derived, not byte-stable) nature.
//!
//! With `--check`, exits non-zero if any workload's events/wall-sec falls
//! more than the tolerance below the committed baseline.

use dlaas_bench::artifact::{check_against_baseline, workloads_json};
use dlaas_bench::engine;
use dlaas_bench::flags::Args;
use dlaas_bench::harness::print_table;
use dlaas_bench::soak::{self, Profile};

const USAGE: &str = "\
usage: engine_bench [--seed S] [--out PATH] [--check BASELINE.json] [--tolerance F]
  defaults: seed 2018, out BENCH_engine.json, tolerance 0.10";

/// Platform jobs in the `scale` workload.
const PLATFORM_JOBS: u64 = 10_000;

fn main() {
    let mut args = Args::from_env(&["--seed", "--out", "--check", "--tolerance"]);
    let seed: u64 = args.flag("--seed", 2018);
    let out: String = args.flag("--out", "BENCH_engine.json".to_owned());
    let check: Option<String> = args.opt("--check");
    let tolerance: f64 = args.flag("--tolerance", 0.10);
    args.done(USAGE);

    eprintln!("engine bench: kernel_churn + scale soak N={PLATFORM_JOBS} (seed {seed})…");
    let churn = engine::kernel_churn(seed, 10_000, 2_000_000);
    let platform = soak::run(Profile::Scale, seed, PLATFORM_JOBS, None).result;
    if let Some(m) = platform.malformed() {
        eprintln!("{m}");
        std::process::exit(1);
    }
    let runs = [churn, platform.engine_run()];

    let rows: Vec<Vec<String>> = runs
        .iter()
        .map(|r| {
            vec![
                r.name.clone(),
                r.events.to_string(),
                format!("{:.1}", r.sim_secs),
                format!("{:.2}", r.wall_secs),
                format!("{:.0}", r.events_per_wall_sec()),
            ]
        })
        .collect();
    print_table(
        "Engine throughput (kernel events per host wall-second)",
        &["workload", "events", "sim s", "wall s", "ev/wall-s"],
        &rows,
    );

    let json = workloads_json("engine", seed, &runs);
    std::fs::write(&out, &json).expect("write BENCH_engine.json");
    println!("\nwrote {out}");

    if let Some(path) = check {
        let baseline = std::fs::read_to_string(&path).expect("read baseline");
        match check_against_baseline(&[&json], &baseline, tolerance) {
            Ok(report) => report.iter().for_each(|l| println!("{l}")),
            Err(violations) => {
                violations.iter().for_each(|l| eprintln!("{l}"));
                eprintln!("engine bench regression vs {path} (tolerance {tolerance})");
                std::process::exit(1);
            }
        }
    }
}
