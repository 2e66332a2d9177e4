//! Ablation (§III-f): how much etcd replication buys the status path.
//!
//! The controller records learner statuses in a 3-way replicated etcd;
//! the Guardian aggregates them into MongoDB. This sweep crashes
//! 0, 1 or 2 etcd replicas mid-training (restarting them after a fixed
//! outage) and reports the effect on the job and on status freshness:
//!
//! * 1 replica down — a quorum remains: invisible,
//! * 2 replicas down — no quorum: status updates stall for the outage
//!   (the paper's design accepts this: consistency over availability),
//!   but nothing is lost and the job still completes after recovery.

use dlaas_bench::flags::Args;
use dlaas_bench::harness::{print_table, submit_one, Rig};
use dlaas_core::{JobStatus, TrainingManifest};
use dlaas_gpu::{DlModel, Framework, GpuKind};
use dlaas_sim::SimDuration;

/// One table row: `crash_nodes` etcd replicas down for 60s mid-training.
fn run_one(seed: u64, crash_nodes: u32) -> Vec<String> {
    let (mut sim, platform) = Rig::bench(GpuKind::K80, 1).boot(seed);
    let manifest = TrainingManifest::builder(format!("etcd-ablation-{crash_nodes}"))
        .framework(Framework::TensorFlow)
        .model(DlModel::Resnet50)
        .gpus(GpuKind::K80, 1)
        .data("bench-data", "d/", 2_000_000_000)
        .results("bench-results")
        .iterations(3_000)
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

    // Outage window: crash N replicas for 60 simulated seconds.
    for id in 0..crash_nodes {
        platform.etcd().crash(&mut sim, id);
    }
    let crashed_at = sim.now();
    let outage = SimDuration::from_secs(60);

    // Sample status freshness every 5s through the outage + recovery:
    // staleness = how long the mongo-recorded iteration has been stuck.
    let mut max_staleness = 0.0_f64;
    let mut last_iter = 0u64;
    let mut last_change = sim.now();
    let sample_until = sim.now() + outage + SimDuration::from_secs(120);
    while sim.now() < sample_until {
        sim.run_for(SimDuration::from_secs(5));
        if sim.now() >= crashed_at + outage {
            for id in 0..crash_nodes {
                // Restart is idempotent; only restarts crashed nodes once.
                if !platform.etcd().raft().node(id).is_alive() {
                    platform.etcd().restart(&mut sim, id);
                }
            }
        }
        let iter = platform.job_info(&job).map(|i| i.iteration).unwrap_or(0);
        if iter != last_iter {
            last_iter = iter;
            last_change = sim.now();
        } else {
            max_staleness = max_staleness.max(
                sim.now()
                    .saturating_duration_since(last_change)
                    .as_secs_f64(),
            );
        }
    }

    let end = platform.wait_for_status(
        &mut sim,
        &job,
        JobStatus::Completed,
        SimDuration::from_hours(12),
    );
    vec![
        format!("{crash_nodes}/3"),
        if end == Some(JobStatus::Completed) {
            "COMPLETED"
        } else {
            "DNF"
        }
        .to_owned(),
        format!("{max_staleness:.0}s"),
        format!("{:.0}s", (sim.now() - t0).as_secs_f64()),
    ]
}

fn main() {
    let mut args = Args::from_env(&[]);
    let seed: u64 = args.pos("seed", 2018);
    args.done("usage: ablation_status_path [seed]\n  default: seed 2018");
    eprintln!("crashing 0/1/2 etcd replicas for 60s mid-training (seed {seed})…");
    let rows: Vec<Vec<String>> = [0u32, 1, 2].iter().map(|n| run_one(seed, *n)).collect();
    print_table(
        "Ablation — etcd replicas crashed (60s outage) vs status-path behaviour",
        &[
            "replicas down",
            "job outcome",
            "max status staleness",
            "total time",
        ],
        &rows,
    );
    println!("\nlosing a minority is invisible; losing quorum only *stalls* status\nupdates for the outage — nothing is lost, and the job still completes.");
}
