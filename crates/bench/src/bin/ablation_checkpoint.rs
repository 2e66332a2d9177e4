//! Ablation (§III-g): checkpoint interval vs work lost to a crash.
//!
//! "The checkpointing interval depends on the tolerance level of the user
//! to failures, i.e., how many hours of work the user is willing to lose
//! in the event of a failure." This sweep quantifies the trade-off: more
//! frequent checkpoints cost upload stalls during healthy training but
//! bound the work a learner crash destroys.

use dlaas_bench::flags::Args;
use dlaas_bench::harness::{print_table, submit_one, Rig};
use dlaas_core::{paths, JobStatus, TrainingManifest};
use dlaas_gpu::{DlModel, Framework, GpuKind};
use dlaas_sim::SimDuration;

/// One table row: the job crashed mid-run with checkpoints every `interval`
/// iterations (0 = none).
fn run_one(seed: u64, interval: u64) -> Vec<String> {
    let (mut sim, platform) = Rig::bench(GpuKind::K80, 1).boot(seed);
    let manifest = TrainingManifest::builder(format!("ckpt-{interval}"))
        .framework(Framework::TensorFlow)
        .model(DlModel::Resnet50)
        .gpus(GpuKind::K80, 1)
        .data("bench-data", "d/", 2_000_000_000)
        .results("bench-results")
        .iterations(4_000)
        .checkpoint_every(interval)
        .build()
        .expect("valid manifest");

    let job = submit_one(&mut sim, &platform, manifest);
    let t0 = sim.now();

    platform.wait_for_status(
        &mut sim,
        &job,
        JobStatus::Processing,
        SimDuration::from_mins(30),
    );
    // Crash the learner half-way through the expected training time.
    sim.run_for(SimDuration::from_mins(40));
    let progress_at_crash = platform.job_info(&job).map(|i| i.iteration).unwrap_or(0);
    let ckpt_iter: u64 = platform
        .objstore()
        .read_text("bench-results", &paths::obj_ckpt_meta(&job))
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    platform
        .kube()
        .crash_pod(&mut sim, &paths::learner_pod(&job, 0));

    let end = platform.wait_for_status(
        &mut sim,
        &job,
        JobStatus::Completed,
        SimDuration::from_hours(12),
    );
    let info = platform.job_info(&job).unwrap();
    let m = platform.metrics();
    vec![
        if interval == 0 {
            "none".to_owned()
        } else {
            interval.to_string()
        },
        if end == Some(JobStatus::Completed) {
            "COMPLETED"
        } else {
            "DNF"
        }
        .to_owned(),
        format!("{:.0}s", (sim.now() - t0).as_secs_f64()),
        progress_at_crash.saturating_sub(ckpt_iter).to_string(),
        info.learner_restarts.to_string(),
        m.counter_total(dlaas_core::metrics::CHECKPOINT_WRITES)
            .to_string(),
        m.quantile(dlaas_core::metrics::CHECKPOINT_STALL_SECONDS, &[], 0.95)
            .map(|s| format!("{s:.1}s"))
            .unwrap_or_else(|| "n/a".into()),
    ]
}

fn main() {
    let mut args = Args::from_env(&[]);
    let seed: u64 = args.pos("seed", 2018);
    args.done("usage: ablation_checkpoint [seed]\n  default: seed 2018");
    let intervals = [0u64, 100, 250, 500, 1000, 2000];
    eprintln!("sweeping checkpoint intervals with a learner crash mid-run (seed {seed})…");
    let rows: Vec<Vec<String>> = intervals.iter().map(|i| run_one(seed, *i)).collect();
    print_table(
        "Ablation — checkpoint interval vs work lost to a learner crash (4000 iters)",
        &[
            "ckpt every",
            "outcome",
            "total time",
            "iters lost at crash",
            "restarts",
            "ckpt writes",
            "stall p95",
        ],
        &rows,
    );
    println!("\nno checkpoints ⇒ the crash loses all progress; tighter intervals bound the loss\nat the cost of checkpoint-upload stalls during healthy training.");
}
