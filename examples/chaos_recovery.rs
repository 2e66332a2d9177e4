//! Chaos soak: a chaos monkey crashes random platform pods every 30
//! seconds while jobs run. Every submission that was acknowledged
//! completes anyway — the paper's dependability claims under sustained
//! fire.
//!
//! Run with: `cargo run -p dlaas-examples --bin chaos_recovery`

use dlaas_core::{DlaasPlatform, JobStatus, Tenant, TrainingManifest};
use dlaas_examples::{banner, submit_blocking};
use dlaas_faults::ChaosMonkey;
use dlaas_gpu::{DlModel, Framework, GpuKind};
use dlaas_kube::labels;
use dlaas_sim::{Sim, SimDuration};

fn main() {
    banner("booting the platform");
    let mut sim = Sim::new(1337);
    let platform = DlaasPlatform::bootstrapped(&mut sim);
    platform
        .add_tenant(&Tenant::new("acme", "acme-key", 64))
        .expect("bootstrap tenant insert");
    platform.seed_dataset("acme-data", "d/", 2_000_000_000);
    platform.create_bucket("acme-results");
    let client = platform.client("operator", "acme-key");

    banner("unleashing a chaos monkey on ALL platform pods (30s period, p=0.5)");
    // Core services, guardians, helpers and learners all carry labels;
    // an empty selector matches everything.
    let monkey = ChaosMonkey::unleash(
        &mut sim,
        platform.kube(),
        labels! {},
        SimDuration::from_secs(30),
        0.5,
    );

    banner("submitting 3 jobs under fire");
    let mut jobs = Vec::new();
    for i in 0..3 {
        let manifest = TrainingManifest::builder(format!("chaos-{i}"))
            .framework(Framework::TensorFlow)
            .model(DlModel::Resnet50)
            .gpus(GpuKind::K80, 1)
            .data("acme-data", "d/", 2_000_000_000)
            .results("acme-results")
            .iterations(600)
            .checkpoint_every(150)
            .build()
            .expect("valid manifest");
        let job = submit_blocking(&mut sim, &client, manifest);
        println!("job {job} acknowledged (durable)");
        jobs.push(job);
        sim.run_for(SimDuration::from_secs(45));
    }

    banner("letting the monkey rampage for 20 simulated minutes");
    sim.run_for(SimDuration::from_mins(20));
    println!(
        "pod restarts so far: {}",
        sim.metrics().counter_total("kube_pod_restarts_total"),
    );

    banner("calling the monkey off and waiting for every job to finish");
    monkey.stop();
    for job in &jobs {
        let end = platform.wait_for_status(
            &mut sim,
            job,
            JobStatus::Completed,
            SimDuration::from_hours(12),
        );
        let info = platform.job_info(job).unwrap();
        println!(
            "{job}: {:?} after {} learner restarts",
            end.unwrap(),
            info.learner_restarts
        );
        assert_eq!(
            end,
            Some(JobStatus::Completed),
            "an acknowledged job was lost"
        );
    }

    banner("end-of-run metrics (dlaas-obs)");
    let m = platform.metrics();
    let q = |name: &str, q: f64| {
        m.quantile(name, &[], q)
            .map(|s| format!("{s:.1}s"))
            .unwrap_or_else(|| "n/a".into())
    };
    println!(
        "kube pod restarts:    {}",
        m.counter_total("kube_pod_restarts_total")
    );
    println!(
        "learner restarts:     {}",
        m.counter_total(dlaas_core::metrics::LEARNER_RESTARTS)
    );
    println!(
        "guardian rollbacks:   {}",
        m.counter_total(dlaas_core::metrics::GUARDIAN_ROLLBACKS)
    );
    println!(
        "checkpoint writes:    {} (restores: {})",
        m.counter_total(dlaas_core::metrics::CHECKPOINT_WRITES),
        m.counter_total(dlaas_core::metrics::CHECKPOINT_RESTORES),
    );
    println!(
        "deploy latency:       p50 {}  p95 {}  p99 {}",
        q(dlaas_core::metrics::GUARDIAN_DEPLOY_SECONDS, 0.50),
        q(dlaas_core::metrics::GUARDIAN_DEPLOY_SECONDS, 0.95),
        q(dlaas_core::metrics::GUARDIAN_DEPLOY_SECONDS, 0.99),
    );
    println!(
        "checkpoint stalls:    p50 {}  p95 {}  p99 {}",
        q(dlaas_core::metrics::CHECKPOINT_STALL_SECONDS, 0.50),
        q(dlaas_core::metrics::CHECKPOINT_STALL_SECONDS, 0.95),
        q(dlaas_core::metrics::CHECKPOINT_STALL_SECONDS, 0.99),
    );
    banner("platform invariant check");
    // Let the LCM's garbage collection settle, then assert the §III
    // invariants over the whole run: terminal jobs, monotone histories,
    // bounded attempts and no leaked pods/volumes/netpols/etcd keys.
    sim.run_for(platform.handles().config.lcm_scan * 6);
    let report = dlaas_core::check_invariants(&sim, &platform);
    println!(
        "checked {} jobs: {} violations",
        report.jobs_checked,
        report.violations.len()
    );
    report.assert_clean();

    println!("\nall acknowledged jobs completed despite sustained random crashes.");
}
