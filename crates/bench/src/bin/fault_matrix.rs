//! The fault-matrix campaign: every fault kind × every Guardian
//! deployment step × N seeds, each trial judged by the platform
//! invariant checker.
//!
//! `--fault LABEL` restricts the matrix to one fault kind (the CI
//! `ha-smoke` job sweeps `lcm_owner_crash` alone on every push). Trials
//! shard across `--threads` workers (each in its own `Sim`); reports and
//! the `--out` artifact are byte-identical for any thread count. The
//! process exits non-zero if any cell fails (job did not complete, the
//! fault never fired, or an invariant was violated afterwards) **or** any
//! trial was recorded abnormal — `TIMEOUT` past the per-trial sim budget
//! (default 2h; `--sim-budget-secs 0` uncaps), or a panic converted into
//! a failure record. Abnormal records print the exact single-threaded
//! repro command, which is what `--trial FAULT/POINT --seed S` replays.
//! The randomized chaos soak is `soak --profile chaos`.

use dlaas_bench::flags::Args;
use dlaas_bench::harness::print_table;
use dlaas_bench::matrix::{
    render_matrix_json, run_cell, sweep, CellOutcome, FaultKind, InjectionPoint,
    MATRIX_RECOVERY_SECONDS,
};
use dlaas_sim::SimDuration;

const USAGE: &str = "\
usage: fault_matrix [--seeds N] [--seed S] [--threads T] [--sim-budget-secs B]
                    [--out FILE] [--fault LABEL]
       fault_matrix --trial FAULT/POINT [--seed S]
  defaults: 5 seeds from 2018, 1 thread, 7200 s budget (0 = uncapped)";

/// Default per-trial sim budget for matrix cells: a healthy cell tops out
/// near 65 simulated minutes (60s boot + 1h status wait + GC settle), so
/// 2h flags genuine runaways without ever clipping a passing trial.
const MATRIX_BUDGET: SimDuration = SimDuration::from_hours(2);

fn main() {
    let mut args = Args::from_env(&[
        "--seeds",
        "--seed",
        "--threads",
        "--sim-budget-secs",
        "--trial",
        "--out",
        "--fault",
    ]);
    let seeds: u64 = args.flag("--seeds", 5);
    let seed: u64 = args.flag("--seed", 2018);
    let threads: usize = args.flag("--threads", 1);
    let budget_secs: Option<u64> = args.opt("--sim-budget-secs");
    let trial: Option<String> = args.opt("--trial");
    let out_path: Option<String> = args.opt("--out");
    let fault: Option<String> = args.opt("--fault");
    let kinds = match fault.as_deref().map(FaultKind::from_label) {
        None => FaultKind::all().to_vec(),
        Some(Some(k)) => vec![k],
        Some(None) => {
            args.error(format!(
                "--fault expects one of {:?}",
                FaultKind::all().map(|k| k.label())
            ));
            Vec::new()
        }
    };
    let cell = trial.map(|spec| {
        let parse = || {
            let (fault, point) = spec.split_once('/')?;
            Some((
                FaultKind::from_label(fault)?,
                InjectionPoint::from_label(point)?,
            ))
        };
        parse().ok_or_else(|| {
            args.error(format!(
                "--trial expects FAULT/POINT with POINT in {:?}",
                InjectionPoint::all().map(|p| p.label())
            ));
        })
    });
    args.done(USAGE);

    match cell {
        Some(Ok((kind, point))) => run_single(seed, kind, point),
        _ => {
            // 0 = uncapped; otherwise an explicit cap overrides the default.
            let budget = budget_secs.map_or(Some(MATRIX_BUDGET), |s| {
                (s > 0).then(|| SimDuration::from_secs(s))
            });
            run_matrix(&kinds, seed, seeds, threads, budget, out_path.as_deref());
        }
    }
}

/// Replays one matrix cell alone, single-threaded — the repro mode the
/// campaign's failure records point at.
fn run_single(seed: u64, kind: FaultKind, point: InjectionPoint) {
    eprintln!("single trial: {kind} at {point} (seed {seed})…");
    let out = run_cell(seed, kind, point);
    println!("{}", out.describe());
    for v in &out.violations {
        println!("  VIOLATION {v}");
    }
    if !out.passed() {
        std::process::exit(1);
    }
}

fn run_matrix(
    kinds: &[FaultKind],
    base_seed: u64,
    seeds: u64,
    threads: usize,
    sim_budget: Option<SimDuration>,
    out_path: Option<&str>,
) {
    let cells = kinds.len() * InjectionPoint::all().len();
    eprintln!(
        "fault matrix: {cells} cells x {seeds} seeds (base seed {base_seed}, {threads} thread(s))…"
    );
    let campaign = sweep(kinds, base_seed, seeds, threads, sim_budget);

    // One row per (fault, point): pass count and recovery range from the
    // aggregated obs histogram.
    let mut rows = Vec::new();
    for &kind in kinds {
        for point in InjectionPoint::all() {
            let of_cell: Vec<&CellOutcome> = campaign
                .outcomes
                .iter()
                .filter(|o| o.kind == kind && o.point == point)
                .collect();
            let passed = of_cell.iter().filter(|o| o.passed()).count();
            let labels = [("fault", kind.label()), ("point", point.label())];
            let q = |q: f64| {
                campaign
                    .metrics
                    .quantile(MATRIX_RECOVERY_SECONDS, &labels, q)
                    .map(|s| format!("{s:.1}s"))
                    .unwrap_or_else(|| "n/a".into())
            };
            rows.push(vec![
                kind.to_string(),
                point.to_string(),
                format!("{passed}/{}", of_cell.len()),
                q(0.5),
                q(0.95),
            ]);
        }
    }
    print_table(
        "Fault matrix (fault x deployment step)",
        &["fault", "injection point", "passed", "p50 rec", "p95 rec"],
        &rows,
    );

    if let Some(path) = out_path {
        let json = render_matrix_json(base_seed, seeds, &campaign);
        std::fs::write(path, &json).expect("write fault-matrix report");
        println!("\nwrote {path}");
    }
    // Wall-clock goes to stderr only — never into the byte-compared
    // report or artifact.
    eprintln!("{}", campaign.report.wall_summary("fault_matrix"));

    let abnormal = campaign.report.failure_records();
    for r in &abnormal {
        eprintln!("  ABNORMAL {r}");
    }
    let failures = campaign.failures();
    for f in &failures {
        eprintln!("  FAIL {}", f.describe());
        for v in &f.violations {
            eprintln!("       {v}");
        }
    }
    if !abnormal.is_empty() || !failures.is_empty() {
        std::process::exit(1);
    }
    println!(
        "\nall {} trials completed with every platform invariant intact.",
        campaign.outcomes.len()
    );
}
