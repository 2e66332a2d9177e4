//! Regression tests for the crash-recovery bugs flushed out by the
//! fault-matrix campaign (`dlaas-bench --bin fault_matrix`). Each test
//! reproduces the exact fault timing that exposed the bug and fails
//! against the pre-fix behaviour.

use dlaas_core::{check_invariants, paths, DlaasPlatform, InvariantMonitor, JobStatus};
use dlaas_docstore::Value;
use dlaas_faults::{nfs_outage_window, partition_window, when, FaultAction};
use dlaas_integration::{boot, manifest, submit_blocking, KEY};
use dlaas_net::Addr;
use dlaas_sim::SimDuration;

/// The pod currently holding `shard`'s owner key, read off the etcd
/// leader's store.
fn shard_owner(platform: &DlaasPlatform, shard: u32) -> Option<String> {
    let leader = platform.etcd().leader_id()?;
    platform
        .etcd()
        .kv_snapshot(leader)
        .get(&paths::lcm_shard_owner(shard))
        .map(|v| v.value.clone())
}

/// Bug 1: a Guardian incarnation whose `inc("attempts")` write never
/// became durable used to proceed with the deployment anyway, so the
/// §III-d attempts bound was counted against a phantom record and a
/// crash-looping deploy could retry forever. The Guardian must abort
/// the incarnation (non-zero exit) until the attempts record is
/// durable, so the completed job always shows `attempts >= 1`.
#[test]
fn guardian_aborts_incarnation_until_attempts_write_is_durable() {
    let (mut sim, platform) = boot(301);
    let client = platform.client("itest", KEY);
    let job = submit_blocking(&mut sim, &client, manifest("attempts-durable", 120));

    // Stall every Mongo write before the Guardian's first boot (the
    // LCM has not scheduled it yet at ACK time). Each boot in this
    // window must fail fast instead of deploying unrecorded.
    platform.set_mongo_write_failures(true);
    sim.run_for(SimDuration::from_secs(20));
    let attempts_during = platform
        .job_document(&job)
        .and_then(|d| d.path("attempts").and_then(Value::as_i64))
        .unwrap_or(0);
    assert_eq!(
        attempts_during, 0,
        "no attempt may be consumed while the record cannot be made durable"
    );

    platform.set_mongo_write_failures(false);
    let end = platform.wait_for_status(
        &mut sim,
        &job,
        JobStatus::Completed,
        SimDuration::from_mins(30),
    );
    assert_eq!(end, Some(JobStatus::Completed), "{job} did not recover");
    let attempts = platform
        .job_document(&job)
        .and_then(|d| d.path("attempts").and_then(Value::as_i64))
        .unwrap_or(0);
    assert!(
        attempts >= 1,
        "completed deployment left no durable attempts record (got {attempts})"
    );
}

/// Bug 2: a Guardian that crashed during STORING resumed monitoring
/// with its `moved_*` flags unseeded, so the replacement incarnation
/// re-drove the STORING transition and its duplicate `store = go` put
/// clobbered the helper's `store = done` handshake. Crash the
/// Guardian (and the helper, whose restarted controller re-relays the
/// learner keys and so triggers the resumed Guardian's watch-driven
/// aggregation before its first full poll) right after `store = done`
/// lands: the handshake must never regress and the job must complete.
#[test]
fn guardian_crash_during_storing_never_clobbers_store_done() {
    let (mut sim, platform) = boot(302);
    let client = platform.client("itest", KEY);
    let job = submit_blocking(&mut sim, &client, manifest("storing-crash", 60));

    // Run until the helper has written `store = done` to etcd but the
    // Guardian (polling every guardian_poll) has not yet marked the
    // job COMPLETED.
    let store_key = paths::etcd_store(&job);
    let store_value = |platform: &dlaas_core::DlaasPlatform| -> Option<String> {
        let leader = platform.etcd().leader_id()?;
        let kv = platform.etcd().kv_snapshot(leader);
        kv.get_prefix(&store_key)
            .iter()
            .find(|(k, _)| *k == store_key)
            .map(|(_, v)| v.clone())
    };
    let deadline = sim.now() + SimDuration::from_mins(30);
    loop {
        assert!(sim.now() < deadline, "{job} never reached store = done");
        if store_value(&platform).as_deref() == Some("done") {
            break;
        }
        assert!(
            !platform
                .job_status(&job)
                .is_some_and(dlaas_core::JobStatus::is_terminal),
            "job went terminal before the crash could be staged"
        );
        sim.run_for(SimDuration::from_millis(100));
    }
    assert_eq!(
        platform.job_status(&job),
        Some(JobStatus::Storing),
        "crash must land inside the STORING window"
    );

    platform
        .kube()
        .crash_pod(&mut sim, &paths::guardian_job(&job));
    platform
        .kube()
        .crash_pod(&mut sim, &paths::helper_pod(&job));

    // The handshake may only move forward: once "done", never "go"
    // again (the regression left the job stuck in STORING forever or
    // forced a second result upload).
    let deadline = sim.now() + SimDuration::from_mins(30);
    loop {
        if let Some(v) = store_value(&platform) {
            assert_ne!(v, "go", "store handshake regressed from done to go");
        }
        if platform
            .job_status(&job)
            .is_some_and(dlaas_core::JobStatus::is_terminal)
        {
            break;
        }
        assert!(sim.now() < deadline, "{job} lost after crash");
        sim.run_for(SimDuration::from_millis(50));
    }
    assert_eq!(platform.job_status(&job), Some(JobStatus::Completed));
    sim.run_for(platform.handles().config.lcm_scan * 6);
    check_invariants(&sim, &platform).assert_clean();
}

/// Bug 3: every LCM teardown used to open a fresh etcd client for the
/// key sweep and never close it, so each garbage-collected job leaked
/// a watch-net endpoint. Teardown now reuses the shared `lcm-gc`
/// handle: endpoint count after N more jobs equals the settled
/// baseline.
#[test]
fn lcm_teardown_does_not_leak_etcd_watch_endpoints() {
    let (mut sim, platform) = boot(303);
    let client = platform.client("itest", KEY);

    // Warm-up job so every long-lived client is registered before the
    // baseline is taken.
    let warm = submit_blocking(&mut sim, &client, manifest("gc-warm", 40));
    let end = platform.wait_for_status(
        &mut sim,
        &warm,
        JobStatus::Completed,
        SimDuration::from_mins(30),
    );
    assert_eq!(end, Some(JobStatus::Completed));
    sim.run_for(platform.handles().config.lcm_scan * 6);
    let baseline = platform.etcd().watch_net().endpoint_count();

    for i in 0..3 {
        let job = submit_blocking(&mut sim, &client, manifest(&format!("gc-{i}"), 40));
        let end = platform.wait_for_status(
            &mut sim,
            &job,
            JobStatus::Completed,
            SimDuration::from_mins(30),
        );
        assert_eq!(end, Some(JobStatus::Completed));
    }
    sim.run_for(platform.handles().config.lcm_scan * 6);
    assert_eq!(
        platform.etcd().watch_net().endpoint_count(),
        baseline,
        "etcd watch endpoints grew across garbage-collected jobs"
    );
    check_invariants(&sim, &platform).assert_clean();
}

/// Bug 4: a learner that finished during an NFS outage used to drop
/// its completion markers (throughput, COMPLETED status, exit file)
/// on the floor and exit 0 anyway. The Succeeded pod never restarts,
/// so the job was stranded in PROCESSING forever. The learner must
/// retry until the markers are durable on the shared volume.
#[test]
fn learner_completion_markers_survive_nfs_outage() {
    let (mut sim, platform) = boot(304);
    let client = platform.client("itest", KEY);
    let iters = 120;
    let job = submit_blocking(&mut sim, &client, manifest("nfs-finish", iters));

    // Take NFS down just before the learner's last iteration so the
    // completion markers are written into the outage. The mirrored
    // iteration lags etcd by about guardian_poll, hence the margin.
    let p2 = platform.clone();
    let j2 = job.clone();
    let p3 = platform.clone();
    when(
        &mut sim,
        SimDuration::from_millis(200),
        move |_sim| p2.job_info(&j2).is_some_and(|i| i.iteration + 8 >= iters),
        move |sim| nfs_outage_window(sim, p3.nfs(), SimDuration::from_secs(30)),
    );

    let end = platform.wait_for_status(
        &mut sim,
        &job,
        JobStatus::Completed,
        SimDuration::from_hours(1),
    );
    assert_eq!(
        end,
        Some(JobStatus::Completed),
        "{job} stranded: completion markers lost to the NFS outage"
    );
    sim.run_for(platform.handles().config.lcm_scan * 6);
    check_invariants(&sim, &platform).assert_clean();
}

/// Bug 5 (HA): a partitioned LCM replica used to keep sweeping its
/// shards on cached ownership. Its keepalives failed, the server
/// expired the lease and a survivor took the shards over via the
/// owner-key delete events — and from then on *two* live replicas
/// drove the same jobs (double redeploys, double GC teardowns). The
/// replica now fences itself locally: keepalive stamps the fence at
/// RPC *send* time, so the local fence always lapses no later than the
/// server-side lease deadline, and every shard is dropped the moment
/// the fence passes — strictly before the server can hand it to
/// anyone else. Pre-fix this test trips the shard-single-owner
/// invariant (and the loss counter stays at zero because nothing is
/// ever dropped).
#[test]
fn partitioned_lcm_replica_fences_itself_before_lease_expiry() {
    let (mut sim, platform) = boot(305);
    let client = platform.client("itest", KEY);
    let job = submit_blocking(&mut sim, &client, manifest("fence", 900));

    let ttl = platform.handles().config.lcm_lease_ttl;
    let scan = platform.handles().config.lcm_scan;
    let shard = paths::job_shard(&job, platform.handles().config.lcm_shards);

    // Let the job get in flight; by then every shard has an owner.
    let mid = platform.wait_for_status(
        &mut sim,
        &job,
        JobStatus::Processing,
        SimDuration::from_mins(30),
    );
    assert_eq!(mid, Some(JobStatus::Processing), "{job} never started");
    let owner = shard_owner(&platform, shard).expect("shard owned once the platform is up");

    // Partition exactly that replica's etcd client away from the
    // cluster for several lease TTLs: keepalives fail, the server
    // expires the lease, a survivor takes the shard over. Both sides
    // must be listed — unlisted addresses (every other client) are
    // unaffected by a group partition.
    let servers: Vec<Addr> = (0..platform.etcd().len() as u32)
        .map(dlaas_etcd::etcd_addr)
        .collect();
    partition_window(
        &mut sim,
        platform.etcd().rpc().net(),
        vec![vec![Addr::new(format!("etcdc/{owner}"))], servers],
        ttl * 4,
    );

    // Throughout expiry and takeover, no shard may ever have two live
    // sweepers.
    let end_at = sim.now() + ttl * 4 + scan * 2;
    while sim.now() < end_at {
        sim.run_for(SimDuration::from_millis(500));
        let conflicts = platform.shard_tracker().conflicts();
        assert!(
            conflicts.is_empty(),
            "double drive under partition: {conflicts:?}"
        );
    }

    // The partitioned replica dropped its shards at the local fence…
    assert!(
        platform
            .metrics()
            .counter_total(dlaas_core::metrics::LCM_SHARD_LOSSES)
            > 0,
        "partitioned replica never fenced itself"
    );
    // …and a live replica owns the job's shard again.
    assert!(
        shard_owner(&platform, shard).is_some(),
        "shard left orphaned after the takeover window"
    );

    let end = platform.wait_for_status(
        &mut sim,
        &job,
        JobStatus::Completed,
        SimDuration::from_hours(2),
    );
    assert_eq!(
        end,
        Some(JobStatus::Completed),
        "{job} lost to the partition"
    );
    sim.run_for(scan * 6);
    check_invariants(&sim, &platform).assert_clean();
}

/// Bug 6 (HA): the LCM replica used to *list* `lcm/shards/` first and
/// register its watch afterwards, so an owner key whose delete landed
/// in that gap was seen by nobody — the listing still showed the dead
/// owner and the delete event predated the watch. The shard then sat
/// orphaned until a periodic reconcile happened to notice, far past
/// the lease-TTL + takeover bound the platform promises. Watch
/// registration now strictly precedes the initial listing, so takeover
/// is event-driven: crash the owning replica mid-deployment and the
/// continuous monitor must never see a shard orphaned past the bound,
/// while the job still completes.
#[test]
fn crashed_shard_owner_is_replaced_within_the_takeover_bound() {
    let (mut sim, platform) = boot(306);
    let client = platform.client("itest", KEY);
    let monitor = InvariantMonitor::install(&mut sim, &platform, SimDuration::from_secs(5));

    let job = submit_blocking(&mut sim, &client, manifest("owner-crash", 400));
    let shard = paths::job_shard(&job, platform.handles().config.lcm_shards);

    // Kill the owning replica the moment the deployment starts.
    let p2 = platform.clone();
    let j2 = job.clone();
    let p3 = platform.clone();
    when(
        &mut sim,
        SimDuration::from_millis(200),
        move |_| p2.job_status(&j2) == Some(JobStatus::Deploying),
        move |sim| {
            let owner = shard_owner(&p3, shard).unwrap_or_else(|| "dlaas-lcm-0".into());
            let idx: u32 = owner
                .rsplit('-')
                .next()
                .and_then(|s| s.parse().ok())
                .unwrap_or(0);
            assert!(FaultAction::CrashLcm(idx).apply(sim, p3.kube()));
        },
    );

    let end = platform.wait_for_status(
        &mut sim,
        &job,
        JobStatus::Completed,
        SimDuration::from_hours(2),
    );
    assert_eq!(
        end,
        Some(JobStatus::Completed),
        "{job} lost to the owner crash"
    );
    sim.run_for(platform.handles().config.lcm_scan * 6);
    assert_eq!(
        monitor.violations_seen(),
        0,
        "invariant violated during shard takeover"
    );
    monitor.cancel();
    check_invariants(&sim, &platform).assert_clean();
    assert!(
        shard_owner(&platform, shard).is_some(),
        "job's shard still orphaned after recovery"
    );
}

/// Regression: the learner's NFS bookkeeping writes (status, log,
/// restart markers) are best-effort by design, but they used to be
/// `let _ =` — a volume outage left no trace anywhere. They now bump
/// `dlaas_learner_nfs_write_failures_total`, so the fault matrix can
/// attribute a stuck job to the shared filesystem.
#[test]
fn learner_nfs_write_failures_are_counted_not_swallowed() {
    let (mut sim, platform) = boot(303);
    let client = platform.client("itest", KEY);
    let job = submit_blocking(&mut sim, &client, manifest("nfs-visible", 400));

    let mid = platform.wait_for_status(
        &mut sim,
        &job,
        JobStatus::Processing,
        SimDuration::from_mins(30),
    );
    assert_eq!(mid, Some(JobStatus::Processing), "{job} never started");

    // Take the shared filesystem away mid-training: the learner keeps
    // iterating, and every failed status/log write must be counted.
    nfs_outage_window(&mut sim, platform.nfs(), SimDuration::from_secs(30));
    sim.run_for(SimDuration::from_secs(45));
    let failures = platform
        .metrics()
        .counter_total("dlaas_learner_nfs_write_failures_total");
    assert!(
        failures > 0,
        "NFS outage during training left no metric trail"
    );

    // Best-effort means exactly that: the job still completes.
    let end = platform.wait_for_status(
        &mut sim,
        &job,
        JobStatus::Completed,
        SimDuration::from_hours(4),
    );
    assert_eq!(end, Some(JobStatus::Completed), "{job} did not recover");
}
