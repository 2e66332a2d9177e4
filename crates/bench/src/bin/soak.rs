//! The soak driver: one of four named profiles (`scale`, `traffic`,
//! `chaos`, `uniform`; see `dlaas_bench::soak`) for every size and seed,
//! as trials of the seed-parallel campaign runner.
//!
//! Writes `BENCH_<profile>.json` (simulated data only: byte-identical
//! for a given seed at any `--threads`) and its `.wall.json` sidecar
//! (events per wall-second per run, never byte-compared). Exits 1 if any
//! trial timed out, panicked or is malformed (lost or refused
//! submissions, failed or unfinished jobs, invariant violations), if a
//! per-job cost at the largest N is over 2× the smallest, or if
//! `--check` finds a regression against a committed baseline.

use dlaas_bench::artifact::check_against_baseline;
use dlaas_bench::flags::Args;
use dlaas_bench::harness::print_table;
use dlaas_bench::soak::{self, Profile, Run};

const USAGE: &str = "\
usage: soak --profile scale|traffic|chaos|uniform [--threads T] [--seeds K]
            [--lcm-replicas M] [--check BASELINE] [--tolerance F]
            [seed] [SIZES] [out.json]

  SIZES   job counts N1,N2,... for scale (default 100,1000,10000) and
          traffic (default 10000,100000); hours of arrivals for chaos
          and uniform (default 6)
  --seeds runs seeds seed..seed+K-1 (chaos and uniform only)
  defaults: seed 2018, 1 thread, out BENCH_<profile>.json, tolerance 0.10";

fn main() {
    let mut args = Args::from_env(&[
        "--profile",
        "--threads",
        "--seeds",
        "--lcm-replicas",
        "--check",
        "--tolerance",
    ]);
    let name: String = args.flag("--profile", String::new());
    let threads: usize = args.flag("--threads", 1);
    let seeds: u64 = args.flag("--seeds", 1);
    let lcm_replicas: Option<u32> = args.opt("--lcm-replicas");
    let check: Option<String> = args.opt("--check");
    let tolerance: f64 = args.flag("--tolerance", 0.10);
    let seed: u64 = args.pos("seed", 2018);
    let profile = name.parse().unwrap_or_else(|e| {
        args.error(format!("--profile scale|traffic|chaos|uniform: {e}"));
        Profile::Scale
    });
    let sizes = args.list("SIZES", profile.default_sizes());
    let out: String = args.pos("out.json", format!("BENCH_{}.json", profile.name()));
    if seeds > 1 && profile.sized_by_jobs() {
        args.error("--seeds applies to chaos and uniform only");
    }
    args.done(USAGE);

    eprintln!(
        "{} soak: sizes {sizes:?}, seeds {seed}..{} ({threads} thread(s))…",
        profile.name(),
        seed + seeds - 1
    );
    let report = soak::campaign(profile, seed, seeds, &sizes, lcm_replicas, threads);
    let runs: Vec<&Run> = report.results().collect();
    let rows: Vec<Vec<String>> = runs.iter().map(|r| soak::row(r)).collect();
    print_table(
        &format!(
            "{} soak (size: N jobs or hours of arrivals)",
            profile.name()
        ),
        &soak::COLUMNS,
        &rows,
    );

    let json = soak::render(profile, seed, &runs);
    std::fs::write(&out, &json).expect("write soak artifact");
    let wall_path = out
        .strip_suffix(".json")
        .map_or_else(|| format!("{out}.wall"), |p| format!("{p}.wall.json"));
    let wall_json = soak::render_wall(profile, seed, &runs);
    std::fs::write(&wall_path, &wall_json).expect("write wall sidecar");
    println!("\nwrote {out} and {wall_path}");
    eprintln!("{}", report.wall_summary(&profile.bench()));

    let mut problems = report.failure_records();
    problems.extend(runs.iter().filter_map(|r| r.malformed()));
    for (line, regressed) in soak::flat_curve(&runs) {
        println!("{line}");
        if regressed {
            problems.push(format!("REGRESSION {line}"));
        }
    }

    if let Some(path) = check {
        let baseline = std::fs::read_to_string(&path).expect("read baseline");
        match check_against_baseline(&[&wall_json, &json], &baseline, tolerance) {
            Ok(lines) => lines.iter().for_each(|l| println!("{l}")),
            Err(violations) => problems.extend(violations),
        }
    }

    if !problems.is_empty() {
        eprintln!("\n{} problem(s):", problems.len());
        for p in &problems {
            eprintln!("  {p}");
        }
        std::process::exit(1);
    }
    println!("\nevery run finished clean.");
}
