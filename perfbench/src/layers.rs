//! Per-layer readings, taken from outside through public counters only:
//! the five networks' `stats()`, the Raft nodes and the shared metrics
//! registry.

use dlaas_core::{metrics, DlaasPlatform};
use dlaas_net::NetStats;
use dlaas_obs::Histogram;

/// The five networks, in attribution priority order.
const NETS: [&str; 5] = ["raft", "etcd_rpc", "etcd_watch", "docstore_rpc", "core_rpc"];

/// Current stats of every network, in [`NETS`] order.
pub fn net_stats(p: &DlaasPlatform) -> [NetStats; 5] {
    [
        p.etcd().raft().net().stats(),
        p.etcd().rpc().net().stats(),
        p.etcd().watch_net().stats(),
        p.handles().mongo.net().stats(),
        p.handles().rpc.net().stats(),
    ]
}

const ETCD_OPS: [&str; 6] = [
    "put",
    "delete",
    "delete_prefix",
    "cas",
    "lease_grant",
    "lease_keepalive",
];
const DOCSTORE_OPS: [&str; 5] = ["find_one", "find", "update_one", "count", "find_changed"];
const SUBMIT_OUTCOMES: [&str; 4] = ["accepted", "queued", "rejected_quota", "error"];
const KUBE_REASONS: [&str; 10] = [
    "Scheduled",
    "Created",
    "Starting",
    "Started",
    "PhaseChanged",
    "ContainerExited",
    "Complete",
    "Deleted",
    "Crashed",
    "Restarting",
];

/// Deterministic per-layer counts of a finished run, as `(name, value)`
/// pairs in a fixed order. `jobs` is the number of attempted jobs and
/// `events` the kernel events of the measured region.
pub fn counts(p: &DlaasPlatform, jobs: u64, events: u64) -> Vec<(String, f64)> {
    let m = p.metrics();
    let jobs_f = jobs.max(1) as f64;
    let mut out: Vec<(String, f64)> = Vec::new();
    let mut put = |name: String, v: f64| out.push((name, v));
    let hsum = |name: &str| m.histogram_merged(name).map_or(0.0, |h| h.sum());
    let hq = |h: Option<Histogram>, q: f64| h.and_then(|h| h.quantile(q)).unwrap_or(0.0);

    put("sim.events".into(), events as f64);
    put("sim.events_per_job".into(), events as f64 / jobs_f);

    let stats = net_stats(p);
    let mut sent = 0u64;
    for (name, s) in NETS.iter().zip(stats) {
        sent += s.sent;
        put(format!("net.{name}.sent"), s.sent as f64);
        put(format!("net.{name}.delivered"), s.delivered as f64);
        put(
            format!("net.{name}.dropped"),
            (s.dropped_loss + s.dropped_partition + s.dropped_down) as f64,
        );
    }
    put("net.msgs_per_job".into(), sent as f64 / jobs_f);

    let nodes = p.etcd().raft().nodes();
    let commits = nodes.iter().map(|n| n.commit_index()).max().unwrap_or(0);
    put("raft.commits".into(), commits as f64);
    put(
        "raft.msgs_per_commit".into(),
        stats[0].sent as f64 / commits.max(1) as f64,
    );
    put(
        "raft.elections".into(),
        nodes.iter().map(|n| n.elections_started()).sum::<u64>() as f64,
    );

    for op in ETCD_OPS {
        put(
            format!("etcd.proposals.{op}"),
            m.counter_value("etcd_proposals_total", &[("op", op)]) as f64,
        );
    }
    put(
        "etcd.reads".into(),
        m.counter_total("etcd_reads_total") as f64,
    );
    put(
        "etcd.watch_events".into(),
        m.counter_total("etcd_watch_events_total") as f64,
    );
    put(
        "etcd.watch_fanout_examined".into(),
        hsum(metrics::ETCD_WATCH_FANOUT_EXAMINED),
    );
    put(
        "etcd.lease_expirations".into(),
        m.counter_total("etcd_lease_expirations_total") as f64,
    );

    let mut queries = 0u64;
    for op in DOCSTORE_OPS {
        let h = m.histogram(metrics::MONGO_DOCS_EXAMINED, &[("op", op)]);
        queries += h.as_ref().map_or(0, Histogram::count);
        put(
            format!("docstore.docs_examined.{op}"),
            h.map_or(0.0, |h| h.sum()),
        );
    }
    put("docstore.rpcs".into(), queries as f64);

    for reason in KUBE_REASONS {
        put(
            format!("kube.events.{reason}"),
            m.counter_value("kube_events_total", &[("reason", reason)]) as f64,
        );
    }
    put(
        "kube.sched_latency_p99_s".into(),
        hq(m.histogram_merged("kube_scheduling_latency_seconds"), 0.99),
    );
    put(
        "kube.kick_pending_examined".into(),
        hsum(metrics::KUBE_KICK_EXAMINED),
    );
    put(
        "kube.pod_restarts".into(),
        m.counter_total("kube_pod_restarts_total") as f64,
    );

    put(
        "api.requests".into(),
        m.counter_total(metrics::API_REQUESTS) as f64,
    );
    for outcome in SUBMIT_OUTCOMES {
        put(
            format!("api.submissions.{outcome}"),
            m.counter_value(metrics::API_SUBMISSIONS, &[("outcome", outcome)]) as f64,
        );
    }

    put(
        "lcm.admission_wait_p95_s".into(),
        hq(m.histogram_merged(metrics::TENANT_ADMISSION_WAIT), 0.95) / 1e6,
    );
    put(
        "lcm.guardians_created".into(),
        m.counter_total(metrics::LCM_GUARDIANS_CREATED) as f64,
    );
    put(
        "lcm.scan_redeploys".into(),
        m.counter_total(metrics::LCM_SCAN_REDEPLOYS) as f64,
    );
    put(
        "lcm.shard_acquisitions".into(),
        m.counter_total(metrics::LCM_SHARD_ACQUISITIONS) as f64,
    );
    put(
        "lcm.shard_losses".into(),
        m.counter_total(metrics::LCM_SHARD_LOSSES) as f64,
    );

    put(
        "guardian.deploy_attempts_per_job".into(),
        m.counter_total(metrics::GUARDIAN_DEPLOY_ATTEMPTS) as f64 / jobs_f,
    );
    put(
        "guardian.rollbacks".into(),
        m.counter_total(metrics::GUARDIAN_ROLLBACKS) as f64,
    );
    put(
        "guardian.deploy_p99_s".into(),
        hq(m.histogram_merged(metrics::GUARDIAN_DEPLOY_SECONDS), 0.99),
    );

    put(
        "learner.restarts".into(),
        m.counter_total(metrics::LEARNER_RESTARTS) as f64,
    );
    put(
        "checkpoint.writes".into(),
        m.counter_total(metrics::CHECKPOINT_WRITES) as f64,
    );
    put(
        "checkpoint.stall_p99_s".into(),
        hq(m.histogram_merged(metrics::CHECKPOINT_STALL_SECONDS), 0.99),
    );
    out
}
