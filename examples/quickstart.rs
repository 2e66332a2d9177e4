//! Quickstart: boot the platform, submit one training job, watch it run
//! to completion, and fetch its logs — the paper's Figure 1 pipeline in
//! ~60 lines of user code.
//!
//! Run with: `cargo run -p dlaas-examples --bin quickstart`

use dlaas_core::{DlaasPlatform, JobStatus, Tenant, TrainingManifest};
use dlaas_examples::{banner, submit_blocking};
use dlaas_gpu::{DlModel, Framework, GpuKind};
use dlaas_sim::{Sim, SimDuration};

fn main() {
    banner("booting the platform (simulated cluster, etcd, MongoDB, NFS, COS)");
    let mut sim = Sim::new(42);
    let platform = DlaasPlatform::bootstrapped(&mut sim);
    println!(
        "ready at t={} (API + LCM serving, etcd leader elected)",
        sim.now()
    );

    // Operator setup: a tenant and its buckets.
    platform
        .add_tenant(&Tenant::new("acme", "acme-key", 16))
        .expect("bootstrap tenant insert");
    platform.seed_dataset("acme-data", "imagenet/", 10_000_000_000);
    platform.create_bucket("acme-results");

    banner("submitting a ResNet-50 / TensorFlow job on 2 K80 GPUs");
    let manifest = TrainingManifest::builder("resnet50-demo")
        .framework(Framework::TensorFlow)
        .model(DlModel::Resnet50)
        .gpus(GpuKind::K80, 2)
        .learners(1)
        .data("acme-data", "imagenet/", 10_000_000_000)
        .results("acme-results")
        .iterations(2_000)
        .checkpoint_every(500)
        .build()
        .expect("valid manifest");

    let client = platform.client("alice", "acme-key");
    let job = submit_blocking(&mut sim, &client, manifest);
    println!(
        "job {job} accepted at t={} — durably recorded before the ACK",
        sim.now()
    );

    banner("watching the lifecycle");
    let mut last = None;
    loop {
        sim.run_for(SimDuration::from_secs(30));
        let status = platform.job_status(&job).expect("job exists");
        if Some(status) != last {
            println!("t={:>10}  {status}", sim.now().to_string());
            last = Some(status);
        }
        if status.is_terminal() {
            break;
        }
    }
    assert_eq!(platform.job_status(&job), Some(JobStatus::Completed));

    banner("results");
    let info = platform.job_info(&job).unwrap();
    println!("iterations:     {}", info.iteration);
    println!(
        "throughput:     {:.1} images/sec",
        info.images_per_sec.unwrap_or(0.0)
    );
    println!("restarts:       {}", info.learner_restarts);
    println!("history:");
    for (status, t_us) in &info.history {
        println!("  {:>10.1}s  {status}", *t_us as f64 / 1e6);
    }

    banner("fetching the training log (streamed to the object store)");
    let lines = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
    let l = lines.clone();
    client.logs(&mut sim, job.clone(), 0, move |_s, r| {
        *l.borrow_mut() = r.expect("logs available");
    });
    sim.run_for(SimDuration::from_secs(5));
    let lines = lines.borrow();
    for line in lines.iter().take(3) {
        println!("  {line}");
    }
    println!("  … {} lines total", lines.len());
}
