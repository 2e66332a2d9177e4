//! Ablation (§III-d): the Guardian's deploy-retry limit.
//!
//! The Guardian retries a failed deployment "a (configurable) number of
//! times before `[it]` gives up and marks the DL job in MongoDB as FAILED".
//! This sweep injects two Guardian crashes during deployment and varies
//! the limit: limits ≤ 2 burn out and fail the job; limits ≥ 3 ride the
//! faults out and complete it.

use dlaas_bench::flags::Args;
use dlaas_bench::harness::{print_table, submit_one, Rig};
use dlaas_core::{paths, CoreConfig, JobStatus, TrainingManifest};
use dlaas_gpu::{DlModel, Framework, GpuKind};
use dlaas_kube::PodPhase;
use dlaas_sim::SimDuration;

/// One table row: `crashes` Guardian crashes during deployment against a
/// retry limit of `limit`.
fn run_one(seed: u64, limit: u32, crashes: u32) -> Vec<String> {
    let mut rig = Rig::bench(GpuKind::K80, 1);
    rig.cluster.core = CoreConfig {
        deploy_max_attempts: limit,
        ..CoreConfig::default()
    };
    let (mut sim, platform) = rig.boot(seed);

    let manifest = TrainingManifest::builder(format!("retry-{limit}"))
        .framework(Framework::TensorFlow)
        .model(DlModel::Resnet50)
        .gpus(GpuKind::K80, 1)
        .data("bench-data", "d/", 2_000_000_000)
        .results("bench-results")
        .iterations(500)
        .build()
        .expect("valid manifest");
    let job = submit_one(&mut sim, &platform, manifest);
    let t0 = sim.now();
    let gpod = paths::guardian_job(&job);

    // Crash the Guardian during its first `crashes` deployment attempts.
    let mut injected = 0;
    while injected < crashes {
        let s = platform.wait_for_status(
            &mut sim,
            &job,
            JobStatus::Deploying,
            SimDuration::from_mins(10),
        );
        if s.is_some_and(dlaas_core::JobStatus::is_terminal) {
            break; // gave up before we could inject them all
        }
        if platform.kube().pod_phase(&gpod) == Some(PodPhase::Running) {
            platform.kube().crash_pod(&mut sim, &gpod);
            injected += 1;
            sim.run_for(SimDuration::from_secs(5));
        } else {
            sim.run_for(SimDuration::from_secs(1));
        }
    }

    let end = platform
        .wait_for_status(
            &mut sim,
            &job,
            JobStatus::Completed,
            SimDuration::from_hours(12),
        )
        .unwrap_or(JobStatus::Failed);
    // The attempt/rollback story comes from the platform's own metrics.
    let m = platform.metrics();
    let gave_up = m.counter_total(dlaas_core::metrics::GUARDIAN_GAVE_UP) > 0;
    vec![
        limit.to_string(),
        injected.to_string(),
        end.to_string(),
        m.counter_total(dlaas_core::metrics::GUARDIAN_DEPLOY_ATTEMPTS)
            .to_string(),
        m.counter_total(dlaas_core::metrics::GUARDIAN_ROLLBACKS)
            .to_string(),
        if gave_up { "yes" } else { "no" }.to_owned(),
        format!("{:.0}s", (sim.now() - t0).as_secs_f64()),
    ]
}

fn main() {
    let mut args = Args::from_env(&[]);
    let seed: u64 = args.pos("seed", 2018);
    args.done("usage: ablation_retry [seed]\n  default: seed 2018");
    eprintln!(
        "injecting 2 guardian crashes during deploy; sweeping the retry limit (seed {seed})…"
    );
    let rows: Vec<Vec<String>> = [1u32, 2, 3, 5]
        .iter()
        .map(|limit| run_one(seed, *limit, 2))
        .collect();
    print_table(
        "Ablation — Guardian deploy-retry limit under 2 injected deploy crashes",
        &[
            "retry limit",
            "crashes injected",
            "job outcome",
            "attempts used",
            "rollbacks",
            "gave up",
            "time to terminal",
        ],
        &rows,
    );
    println!("\nlimits ≤ the fault count fail the job (after full rollback);\nlarger limits ride the faults out and complete it.");
}
