//! Scale integration: many concurrent jobs from several tenants on one
//! cluster, exercising scheduler capacity accounting, quota bookkeeping
//! and the platform's horizontal-scalability claims (§I goal 2).

use dlaas_core::{DlaasPlatform, GpuNodeSpec, JobStatus, PlatformConfig, Tenant, TrainingManifest};
use dlaas_gpu::{DlModel, Framework, GpuKind};
use dlaas_integration::{submit_blocking, KEY};
use dlaas_sim::{Sim, SimDuration};

fn big_platform(seed: u64) -> (Sim, DlaasPlatform) {
    let mut sim = Sim::new(seed);
    let cfg = PlatformConfig {
        core_nodes: 4,
        gpu_nodes: vec![GpuNodeSpec {
            kind: GpuKind::K80,
            count: 6,
            gpus_each: 4,
        }],
        ..PlatformConfig::default()
    };
    let platform = DlaasPlatform::new(&mut sim, cfg);
    platform.run_until_ready(&mut sim, SimDuration::from_secs(60));
    platform
        .add_tenant(&Tenant::new("itest", KEY, 0))
        .expect("bootstrap tenant insert");
    platform.seed_dataset("itest-data", "d/", 1_000_000_000);
    platform.create_bucket("itest-results");
    (sim, platform)
}

fn small_manifest(name: &str) -> TrainingManifest {
    TrainingManifest::builder(name)
        .framework(Framework::TensorFlow)
        .model(DlModel::Resnet50)
        .gpus(GpuKind::K80, 1)
        .data("itest-data", "d/", 1_000_000_000)
        .results("itest-results")
        .iterations(400)
        .build()
        .unwrap()
}

#[test]
fn ten_concurrent_jobs_all_complete() {
    let (mut sim, platform) = big_platform(100);
    let client = platform.client("bulk", KEY);
    let jobs: Vec<_> = (0..10)
        .map(|i| {
            let j = submit_blocking(&mut sim, &client, small_manifest(&format!("bulk-{i}")));
            sim.run_for(SimDuration::from_secs(5));
            j
        })
        .collect();

    // Scheduler invariant while everything lands: no node oversubscribed.
    for _ in 0..30 {
        sim.run_for(SimDuration::from_secs(20));
        for node in platform.kube().node_names() {
            let alloc = platform.kube().node_allocated(&node).unwrap();
            assert!(alloc.gpus <= 4, "node {node} oversubscribed: {alloc:?}");
        }
    }

    for job in &jobs {
        let end = platform.wait_for_status(
            &mut sim,
            job,
            JobStatus::Completed,
            SimDuration::from_hours(8),
        );
        assert_eq!(end, Some(JobStatus::Completed), "{job}");
    }
}

#[test]
fn hot_path_work_counters_populate_and_pending_queue_stays_consistent() {
    // The scale-soak cost series must exist on any full-platform run:
    // watch fan-out per etcd commit, pods examined per scheduler kick,
    // and docs examined per metadata query. And the kube scheduler's
    // incremental pending queue must agree with a from-scratch scan.
    let (mut sim, platform) = big_platform(105);
    let client = platform.client("hot", KEY);
    let jobs: Vec<_> = (0..4)
        .map(|i| submit_blocking(&mut sim, &client, small_manifest(&format!("hot-{i}"))))
        .collect();
    for job in &jobs {
        let end = platform.wait_for_status(
            &mut sim,
            job,
            JobStatus::Completed,
            SimDuration::from_hours(8),
        );
        assert_eq!(end, Some(JobStatus::Completed), "{job}");
    }
    // Let at least one LCM scan pass over the terminal jobs.
    sim.run_for(SimDuration::from_mins(10));

    let m = platform.metrics();
    let fanout = m
        .histogram_merged("etcd_watch_fanout_examined")
        .expect("etcd commits must record fan-out work");
    assert!(fanout.count() > 0);
    let kick = m
        .histogram_merged("kube_kick_pending_examined")
        .expect("teardown deletes must kick the pending queue");
    assert!(kick.count() > 0);
    let sweep = m
        .histogram("mongo_docs_examined", &[("op", "find_changed")])
        .expect("LCM sweeps must record change-feed sizes");
    assert!(sweep.count() > 0);

    assert_eq!(
        platform.kube().pending_queue(),
        platform.kube().pending_queue_scan(),
        "incremental pending queue diverged from a from-scratch scan"
    );
}

#[test]
fn demand_exceeding_capacity_queues_and_drains() {
    // 6 nodes x 4 GPUs = 24 GPUs; submit 10 jobs x 4 GPUs = 40 GPUs.
    // Excess jobs park (learner Pending) and run as capacity frees.
    let (mut sim, platform) = big_platform(101);
    let client = platform.client("burst", KEY);
    let jobs: Vec<_> = (0..10)
        .map(|i| {
            let mut m = small_manifest(&format!("burst-{i}"));
            m.gpus_per_learner = 4;
            submit_blocking(&mut sim, &client, m)
        })
        .collect();

    for job in &jobs {
        let end = platform.wait_for_status(
            &mut sim,
            job,
            JobStatus::Completed,
            SimDuration::from_hours(24),
        );
        assert_eq!(end, Some(JobStatus::Completed), "{job}");
    }
}

#[test]
fn api_replicas_share_load() {
    let (mut sim, platform) = big_platform(102);
    let client = platform.client("spread", KEY);
    for i in 0..6 {
        submit_blocking(&mut sim, &client, small_manifest(&format!("spread-{i}")));
    }
    // Both API replicas served traffic (round-robin): check the trace of
    // accepted jobs is spread — indirectly, via kube events both pods are
    // alive and the submissions all succeeded above. Direct check: both
    // pods Running and ready. Submissions can complete while a replica's
    // readiness probe is still settling, so give the probes a beat first.
    sim.run_for(SimDuration::from_secs(5));
    assert!(platform.kube().pod_ready(&sim, "dlaas-api-0"));
    assert!(platform.kube().pod_ready(&sim, "dlaas-api-1"));
}

#[test]
fn rolling_restart_of_api_tier_keeps_service_available() {
    // The maintainability story: upgrade the API tier by scaling out,
    // then recycling the old replicas one at a time. Clients never see
    // an outage (their retries ride over individual replica restarts).
    let (mut sim, platform) = big_platform(104);
    let client = platform.client("roller", KEY);

    platform.scale_api(&mut sim, 4);
    sim.run_for(SimDuration::from_secs(15));

    let mut jobs = Vec::new();
    for i in 0..4 {
        // Recycle one replica…
        platform
            .kube()
            .delete_pod(&mut sim, &format!("dlaas-api-{i}"));
        // …and submit through the survivors while it comes back.
        jobs.push(submit_blocking(
            &mut sim,
            &client,
            small_manifest(&format!("rolling-{i}")),
        ));
        sim.run_for(SimDuration::from_secs(10));
    }
    sim.run_for(SimDuration::from_secs(20));
    for i in 0..4 {
        assert!(
            platform.kube().pod_ready(&sim, &format!("dlaas-api-{i}")),
            "replica {i} must be back after its recycle"
        );
    }
    for job in &jobs {
        let end = platform.wait_for_status(
            &mut sim,
            job,
            JobStatus::Completed,
            SimDuration::from_hours(8),
        );
        assert_eq!(end, Some(JobStatus::Completed), "{job}");
    }
}

#[test]
fn mixed_gpu_cluster_routes_jobs_to_matching_nodes() {
    let mut sim = Sim::new(103);
    let cfg = PlatformConfig {
        gpu_nodes: vec![
            GpuNodeSpec {
                kind: GpuKind::K80,
                count: 2,
                gpus_each: 2,
            },
            GpuNodeSpec {
                kind: GpuKind::P100Pcie,
                count: 2,
                gpus_each: 2,
            },
        ],
        ..PlatformConfig::default()
    };
    let platform = DlaasPlatform::new(&mut sim, cfg);
    platform.run_until_ready(&mut sim, SimDuration::from_secs(60));
    platform
        .add_tenant(&Tenant::new("itest", KEY, 0))
        .expect("bootstrap tenant insert");
    platform.seed_dataset("itest-data", "d/", 1_000_000_000);
    platform.create_bucket("itest-results");
    let client = platform.client("mixed", KEY);

    let mut k80 = small_manifest("on-k80");
    k80.gpu_kind = GpuKind::K80;
    let mut p100 = small_manifest("on-p100");
    p100.gpu_kind = GpuKind::P100Pcie;
    let j1 = submit_blocking(&mut sim, &client, k80);
    let j2 = submit_blocking(&mut sim, &client, p100);

    platform.wait_for_status(
        &mut sim,
        &j1,
        JobStatus::Processing,
        SimDuration::from_mins(30),
    );
    platform.wait_for_status(
        &mut sim,
        &j2,
        JobStatus::Processing,
        SimDuration::from_mins(30),
    );
    let n1 = platform
        .kube()
        .pod_node(&dlaas_core::paths::learner_pod(&j1, 0))
        .unwrap();
    let n2 = platform
        .kube()
        .pod_node(&dlaas_core::paths::learner_pod(&j2, 0))
        .unwrap();
    assert!(n1.starts_with("gpu-k80"), "{n1}");
    assert!(n2.starts_with("gpu-p100"), "{n2}");

    for j in [&j1, &j2] {
        let end = platform.wait_for_status(
            &mut sim,
            j,
            JobStatus::Completed,
            SimDuration::from_hours(8),
        );
        assert_eq!(end, Some(JobStatus::Completed));
    }
}
