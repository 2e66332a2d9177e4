//! Platform-wide invariant checker.
//!
//! The paper's dependability claims (§II, §IV) boil down to properties
//! that must hold over *any* execution of the platform, under any fault
//! schedule the substrates can produce. This module states them as code:
//!
//! 1. **Liveness** — every accepted job reaches a terminal state
//!    (COMPLETED / FAILED / KILLED) within a bound ("jobs make progress
//!    even as components crash", §IV).
//! 2. **Status monotonicity** — the per-job status history only moves
//!    forward through the lifecycle ranks and never leaves a terminal
//!    state ("users expect periodic and accurate status updates", §II);
//!    timestamps are non-decreasing and exactly one terminal entry ends
//!    the history.
//! 3. **Bounded retries** — the persisted `attempts` counter never
//!    exceeds `deploy_max_attempts` ("this process will be repeated for a
//!    (configurable) number of times", §III-d).
//! 4. **No leaks** — once a job has been terminal for longer than the GC
//!    grace period, no pods, NFS volume, network policies or etcd keys of
//!    that job remain ("garbage collection of the job", §III-c).
//! 5. **At-most-one-owner** — with the LCM replicated, no job-space
//!    shard is ever swept by two live replicas (double drive), and no
//!    shard stays unowned longer than the lease TTL plus a takeover
//!    bound while any replica is alive to adopt it (orphaned shard).
//!    Read from the [`crate::ownership::ShardTracker`] ledger the
//!    replicas report into; violations carry a synthetic `shard-N` job
//!    id since they concern the partition, not one job.
//! 6. **No starvation** — a QUEUED job must not wait past the admission
//!    bound while its tenant has quota headroom for it AND the tenant
//!    saw no admission for a full bound (the weighted fair queue
//!    guarantees progress whenever capacity exists; headroom alone is
//!    not enough evidence, since a snapshot can land in the short window
//!    between a completion and the next arbiter sweep — but headroom
//!    plus a tenant whose `admitted_us` stamps all predate the bound
//!    means the arbiter is broken or its shard-0 owner failed over
//!    without takeover). The periodic [`InvariantMonitor`] additionally
//!    requires a starvation candidate to persist across two consecutive
//!    passes before recording it.
//!
//! [`check_all`] evaluates every invariant against the current state of a
//! [`DlaasPlatform`]; [`InvariantMonitor`] re-checks periodically inside
//! a running simulation and surfaces *new* violations through the
//! [`crate::metrics::INVARIANT_VIOLATIONS`] counter. The fault
//! matrix (dlaas-bench `fault_matrix`) runs the checker after every
//! fault-injection trial.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::rc::Rc;

use dlaas_docstore::Value;
use dlaas_kube::labels;
use dlaas_sim::{Sim, SimDuration, SimTime, TimerHandle};

use crate::config::CoreConfig;
use crate::job::{JobId, JobStatus};
use crate::paths;
use crate::platform::DlaasPlatform;
use crate::tenant::Tenant;

/// Time bounds used by the checker.
#[derive(Debug, Clone, Copy)]
pub struct InvariantBounds {
    /// How long an accepted job may stay non-terminal before the liveness
    /// invariant trips. Must comfortably exceed the longest legitimate
    /// job in the workload (deploy retries included).
    pub terminal_within: SimDuration,
    /// Grace period after a job turns terminal before leak checks apply
    /// (the LCM scan needs at least one period to garbage-collect).
    pub gc_grace: SimDuration,
    /// How long a QUEUED job may wait while its tenant has quota
    /// headroom before the starvation invariant trips.
    pub admission_within: SimDuration,
}

impl InvariantBounds {
    /// Bounds derived from the platform configuration: leak checks allow
    /// three LCM scan periods of GC lag; liveness allows the full deploy
    /// timeout plus an hour of training.
    pub fn from_config(cfg: &CoreConfig) -> Self {
        InvariantBounds {
            terminal_within: cfg.deploy_timeout + SimDuration::from_hours(1),
            gc_grace: cfg.lcm_scan * 3,
            admission_within: cfg.admission_starvation_bound,
        }
    }
}

/// One violated invariant, with the offending job and what was observed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvariantViolation {
    /// The job the violation concerns.
    pub job: JobId,
    /// Stable short name of the invariant (`terminal-bound`,
    /// `history-monotone`, `attempts-bound`, `leak-pods`, `leak-volume`,
    /// `leak-netpol`, `leak-etcd`, `shard-single-owner`,
    /// `shard-orphaned`, `tenant-starved`).
    pub invariant: &'static str,
    /// Human-readable description of the observed state.
    pub detail: String,
}

impl fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] job {}: {}", self.invariant, self.job, self.detail)
    }
}

/// Outcome of one [`check_all`] pass.
#[derive(Debug, Clone)]
pub struct InvariantReport {
    /// Simulation time the check ran.
    pub checked_at: SimTime,
    /// Number of job records examined.
    pub jobs_checked: usize,
    /// Every violation found, in job order.
    pub violations: Vec<InvariantViolation>,
}

impl InvariantReport {
    /// `true` when no invariant was violated.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Panics with every violation listed unless the report is clean.
    pub fn assert_clean(&self) {
        assert!(
            self.is_clean(),
            "platform invariants violated at t={:?} ({} jobs checked):\n{}",
            self.checked_at,
            self.jobs_checked,
            self.violations
                .iter()
                .map(|v| format!("  - {v}"))
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}

impl fmt::Display for InvariantReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_clean() {
            write!(f, "{} jobs checked, all invariants hold", self.jobs_checked)
        } else {
            writeln!(
                f,
                "{} jobs checked, {} violations:",
                self.jobs_checked,
                self.violations.len()
            )?;
            for v in &self.violations {
                writeln!(f, "  - {v}")?;
            }
            Ok(())
        }
    }
}

/// Checks every invariant with bounds derived from the platform config.
pub fn check_all(sim: &Sim, platform: &DlaasPlatform) -> InvariantReport {
    let bounds = InvariantBounds::from_config(&platform.handles().config);
    check_with(sim, platform, &bounds)
}

/// Checks every invariant with explicit [`InvariantBounds`].
pub fn check_with(
    sim: &Sim,
    platform: &DlaasPlatform,
    bounds: &InvariantBounds,
) -> InvariantReport {
    let now = sim.now();
    let mut violations = Vec::new();
    // One non-linearizable etcd snapshot for all leak checks; during a
    // leaderless window (mid-election) the etcd leak check is skipped —
    // the next pass will see a leader again.
    let etcd_kv = platform
        .etcd()
        .leader_id()
        .map(|id| platform.etcd().kv_snapshot(id));
    let max_attempts = platform.handles().config.deploy_max_attempts;

    let docs = platform.job_documents();

    // Tenant quotas plus per-tenant GPUs held by admitted (non-QUEUED,
    // non-terminal) jobs, for the starvation rule (6).
    let tenants: BTreeMap<String, Tenant> = platform
        .tenant_documents()
        .iter()
        .filter_map(Tenant::from_document)
        .map(|t| (t.id.clone(), t))
        .collect();
    let mut held: BTreeMap<&str, u32> = BTreeMap::new();
    // Most recent admission per tenant (any doc with an `admitted_us`
    // stamp, terminal included): evidence the arbiter is making
    // progress for that tenant.
    let mut last_admitted: BTreeMap<&str, u64> = BTreeMap::new();
    for doc in &docs {
        let Some(t) = doc.path("tenant").and_then(Value::as_str) else {
            continue;
        };
        let admitted = doc
            .path("status")
            .and_then(Value::as_str)
            .and_then(|s| s.parse::<JobStatus>().ok())
            .is_some_and(|s| !s.is_terminal() && s != JobStatus::Queued);
        if admitted {
            *held.entry(t).or_insert(0) += crate::api::doc_gpus(doc);
        }
        if let Some(at) = doc
            .path("admitted_us")
            .and_then(Value::as_i64)
            .and_then(|us| u64::try_from(us).ok())
        {
            let e = last_admitted.entry(t).or_insert(0);
            *e = (*e).max(at);
        }
    }

    for doc in &docs {
        let Some(id) = doc.path("_id").and_then(Value::as_str) else {
            continue;
        };
        let job = JobId::new(id);
        let status: Option<JobStatus> = doc
            .path("status")
            .and_then(Value::as_str)
            .and_then(|s| s.parse().ok());

        check_history(doc, &job, &mut violations);

        // 3. Bounded retries.
        let attempts = doc.path("attempts").and_then(Value::as_i64).unwrap_or(0);
        if attempts > max_attempts as i64 {
            violations.push(InvariantViolation {
                job: job.clone(),
                invariant: "attempts-bound",
                detail: format!("attempts={attempts} exceeds deploy_max_attempts={max_attempts}"),
            });
        }

        match status {
            Some(s) if s.is_terminal() => {
                // 4. No leaks, once GC has had a fair chance.
                let since = terminal_since(doc).unwrap_or(now);
                if now.saturating_duration_since(since) > bounds.gc_grace {
                    check_leaks(platform, etcd_kv.as_ref(), &job, &mut violations);
                }
            }
            Some(JobStatus::Queued) => {
                // 6. No starvation: the fair queue must admit this job
                //    while its tenant has headroom for it.
                let since = doc
                    .path("submitted_us")
                    .and_then(Value::as_i64)
                    .map(|us| SimTime::from_micros(us as u64))
                    .unwrap_or(now);
                let waited = now.saturating_duration_since(since);
                if waited > bounds.admission_within {
                    let tenant = doc.path("tenant").and_then(Value::as_str).unwrap_or("");
                    let gpus = crate::api::doc_gpus(doc);
                    let headroom = tenants.get(tenant).is_some_and(|t| {
                        t.max_gpus == 0
                            || held.get(tenant).copied().unwrap_or(0) + gpus <= t.max_gpus
                    });
                    // A busy tenant's queue legitimately backs up for a
                    // long time — that is backlog, not starvation. The
                    // arbiter is broken only if the tenant ALSO made no
                    // admission for a full bound (no `admitted_us`
                    // stamp fresher than the bound).
                    let stalled = now.saturating_duration_since(SimTime::from_micros(
                        last_admitted.get(tenant).copied().unwrap_or(0),
                    )) > bounds.admission_within;
                    if headroom && stalled {
                        violations.push(InvariantViolation {
                            job: job.clone(),
                            invariant: "tenant-starved",
                            detail: format!(
                                "QUEUED for {waited} despite quota headroom and no admission in {} (tenant {tenant}, {gpus} gpus)",
                                bounds.admission_within
                            ),
                        });
                    }
                }
            }
            _ => {
                // 1. Liveness, clocked from admission so time spent in
                //    the fair queue does not count against the bound
                //    (fallback: submission, for docs predating the
                //    queue).
                let started = doc
                    .path("admitted_us")
                    .and_then(Value::as_i64)
                    .or_else(|| doc.path("submitted_us").and_then(Value::as_i64))
                    .map(|us| SimTime::from_micros(us as u64))
                    .unwrap_or(now);
                let age = now.saturating_duration_since(started);
                if age > bounds.terminal_within {
                    violations.push(InvariantViolation {
                        job: job.clone(),
                        invariant: "terminal-bound",
                        detail: format!(
                            "still {} after {:.0?}",
                            status.map(|s| s.to_string()).unwrap_or("?".into()),
                            age
                        ),
                    });
                }
            }
        }
    }

    // 5. At-most-one-owner over the LCM shard space.
    check_shards(sim, platform, &mut violations);

    InvariantReport {
        checked_at: now,
        jobs_checked: docs.len(),
        violations,
    }
}

/// 5. At-most-one-owner: every recorded ownership conflict is a
///    violation, and — while at least one LCM pod exists to adopt them —
///    so is any shard unowned past the lease TTL plus two scan periods
///    (expiry latency + watch/reconcile takeover).
fn check_shards(sim: &Sim, platform: &DlaasPlatform, out: &mut Vec<InvariantViolation>) {
    let tracker = platform.shard_tracker();
    let cfg = &platform.handles().config;
    let lcm_alive = !platform
        .kube()
        .pods_matching(&labels! {"app" => "lcm"})
        .is_empty();
    if !lcm_alive {
        // A full LCM outage is downtime, not takeover latency: restart
        // the orphan clock so recovery is measured from here.
        tracker.note_no_live_replica(sim);
    }
    for c in tracker.conflicts() {
        out.push(InvariantViolation {
            job: JobId::new(format!("shard-{}", c.shard)),
            invariant: "shard-single-owner",
            detail: format!("{} (at {:?})", c.detail, c.at),
        });
    }
    if lcm_alive {
        let bound = cfg.lcm_lease_ttl + cfg.lcm_scan * 2;
        for (shard, waited) in tracker.orphaned(sim.now(), bound) {
            out.push(InvariantViolation {
                job: JobId::new(format!("shard-{shard}")),
                invariant: "shard-orphaned",
                detail: format!("unowned for {waited} (bound {bound})"),
            });
        }
    }
}

/// 2. Status-history monotonicity.
fn check_history(doc: &Value, job: &JobId, out: &mut Vec<InvariantViolation>) {
    let Some(history) = doc.path("history").and_then(Value::as_arr) else {
        return;
    };
    let mut prev: Option<(JobStatus, i64)> = None;
    for (i, entry) in history.iter().enumerate() {
        let status: Option<JobStatus> = entry
            .path("status")
            .and_then(Value::as_str)
            .and_then(|s| s.parse().ok());
        let t_us = entry.path("t_us").and_then(Value::as_i64).unwrap_or(0);
        let Some(status) = status else {
            out.push(InvariantViolation {
                job: job.clone(),
                invariant: "history-monotone",
                detail: format!("unparseable history entry #{i}: {entry:?}"),
            });
            return;
        };
        if let Some((prev_status, prev_t)) = prev {
            if status.rank() < prev_status.rank() {
                out.push(InvariantViolation {
                    job: job.clone(),
                    invariant: "history-monotone",
                    detail: format!("status went backwards: {prev_status} -> {status} (#{i})"),
                });
            }
            if prev_status.is_terminal() {
                out.push(InvariantViolation {
                    job: job.clone(),
                    invariant: "history-monotone",
                    detail: format!("entry after terminal {prev_status}: {status} (#{i})"),
                });
            }
            if t_us < prev_t {
                out.push(InvariantViolation {
                    job: job.clone(),
                    invariant: "history-monotone",
                    detail: format!("timestamps went backwards at #{i}: {prev_t} -> {t_us}"),
                });
            }
        }
        prev = Some((status, t_us));
    }
}

/// When the job entered its terminal state, per the status history.
fn terminal_since(doc: &Value) -> Option<SimTime> {
    let history = doc.path("history")?.as_arr()?;
    history
        .iter()
        .rev()
        .find(|e| {
            e.path("status")
                .and_then(Value::as_str)
                .and_then(|s| s.parse::<JobStatus>().ok())
                .is_some_and(super::job::JobStatus::is_terminal)
        })
        .and_then(|e| e.path("t_us"))
        .and_then(Value::as_i64)
        .map(|us| SimTime::from_micros(us as u64))
}

/// 4. Leak checks for one terminal job past its GC grace.
fn check_leaks(
    platform: &DlaasPlatform,
    etcd_kv: Option<&dlaas_etcd::KvState>,
    job: &JobId,
    out: &mut Vec<InvariantViolation>,
) {
    let pods = platform
        .kube()
        .pods_matching(&labels! {"job" => job.as_str()});
    if !pods.is_empty() {
        out.push(InvariantViolation {
            job: job.clone(),
            invariant: "leak-pods",
            detail: format!("pods still present: {pods:?}"),
        });
    }
    if platform.nfs().find_volume(&paths::volume(job)).is_some() {
        out.push(InvariantViolation {
            job: job.clone(),
            invariant: "leak-volume",
            detail: format!("volume {} still present", paths::volume(job)),
        });
    }
    let netpol = paths::network_policy(job);
    if platform.kube().network_policy_names().contains(&netpol) {
        out.push(InvariantViolation {
            job: job.clone(),
            invariant: "leak-netpol",
            detail: format!("network policy {netpol} still present"),
        });
    }
    if let Some(kv) = etcd_kv {
        let keys = kv.get_prefix(&paths::etcd_job_prefix(job));
        if !keys.is_empty() {
            let names: Vec<&String> = keys.iter().map(|(k, _)| k).collect();
            out.push(InvariantViolation {
                job: job.clone(),
                invariant: "leak-etcd",
                detail: format!("etcd keys still present: {names:?}"),
            });
        }
    }
}

/// Periodic in-simulation checker: re-runs [`check_all`] every `period`
/// and counts each *new* violation in
/// [`crate::metrics::INVARIANT_VIOLATIONS`] (labelled by invariant
/// name). Violations are deduplicated by (job, invariant) so a
/// persistent leak is reported once, not once per period.
pub struct InvariantMonitor {
    seen: Rc<RefCell<BTreeSet<(String, &'static str)>>>,
    timer: TimerHandle,
}

impl InvariantMonitor {
    /// Installs the monitor on `sim` with config-derived bounds; it runs
    /// until cancelled.
    pub fn install(sim: &mut Sim, platform: &DlaasPlatform, period: SimDuration) -> Self {
        let bounds = InvariantBounds::from_config(&platform.handles().config);
        Self::install_with(sim, platform, period, bounds)
    }

    /// Installs the monitor with explicit bounds. Long chaos campaigns
    /// need a liveness bound sized to their workload: a crash can
    /// legitimately destroy all un-checkpointed progress (§III-g), so a
    /// job's time-to-terminal under faults is queueing plus *several*
    /// trainings, not one.
    pub fn install_with(
        sim: &mut Sim,
        platform: &DlaasPlatform,
        period: SimDuration,
        bounds: InvariantBounds,
    ) -> Self {
        let seen: Rc<RefCell<BTreeSet<(String, &'static str)>>> =
            Rc::new(RefCell::new(BTreeSet::new()));
        let seen2 = seen.clone();
        let platform = platform.clone();
        // Starvation candidates from the previous pass: "tenant-starved"
        // is recorded only when the same job is a candidate on two
        // consecutive passes, so a snapshot that races the admission
        // arbiter (headroom freed moments ago) cannot false-positive.
        let mut starved_prev: BTreeSet<String> = BTreeSet::new();
        let timer = dlaas_sim::every(sim, period, move |sim, _n| {
            let report = check_with(sim, &platform, &bounds);
            let mut starved_now = BTreeSet::new();
            for v in &report.violations {
                if v.invariant == "tenant-starved" {
                    starved_now.insert(v.job.as_str().to_owned());
                    if !starved_prev.contains(v.job.as_str()) {
                        continue;
                    }
                }
                let key = (v.job.as_str().to_owned(), v.invariant);
                if seen2.borrow_mut().insert(key) {
                    sim.metrics().inc(
                        crate::metrics::INVARIANT_VIOLATIONS,
                        &[("invariant", v.invariant)],
                    );
                }
            }
            starved_prev = starved_now;
            true
        });
        InvariantMonitor { seen, timer }
    }

    /// Number of distinct (job, invariant) violations observed so far.
    pub fn violations_seen(&self) -> usize {
        self.seen.borrow().len()
    }

    /// Stops the periodic check.
    pub fn cancel(&self) {
        self.timer.cancel();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlaas_docstore::obj;

    fn doc_with_history(entries: Vec<(&str, i64)>) -> Value {
        let history: Vec<Value> = entries
            .into_iter()
            .map(|(s, t)| obj! {"status" => s, "t_us" => t})
            .collect();
        obj! {"_id" => "j", "history" => history}
    }

    #[test]
    fn monotone_history_is_clean() {
        let doc = doc_with_history(vec![
            ("PENDING", 0),
            ("DEPLOYING", 10),
            ("PROCESSING", 20),
            ("STORING", 30),
            ("COMPLETED", 40),
        ]);
        let mut out = Vec::new();
        check_history(&doc, &JobId::new("j"), &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn backwards_status_is_flagged() {
        let doc = doc_with_history(vec![("PROCESSING", 10), ("DEPLOYING", 20)]);
        let mut out = Vec::new();
        check_history(&doc, &JobId::new("j"), &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].invariant, "history-monotone");
    }

    #[test]
    fn entry_after_terminal_is_flagged() {
        let doc = doc_with_history(vec![("FAILED", 10), ("PROCESSING", 20)]);
        let mut out = Vec::new();
        check_history(&doc, &JobId::new("j"), &mut out);
        assert!(out.iter().any(|v| v.detail.contains("after terminal")));
    }

    #[test]
    fn backwards_timestamps_are_flagged() {
        let doc = doc_with_history(vec![("PENDING", 20), ("DEPLOYING", 10)]);
        let mut out = Vec::new();
        check_history(&doc, &JobId::new("j"), &mut out);
        assert!(out.iter().any(|v| v.detail.contains("timestamps")));
    }

    #[test]
    fn terminal_since_reads_last_terminal_entry() {
        let doc = doc_with_history(vec![("PENDING", 1), ("KILLED", 99)]);
        assert_eq!(terminal_since(&doc), Some(SimTime::from_micros(99)));
        assert_eq!(
            terminal_since(&doc_with_history(vec![("PENDING", 1)])),
            None
        );
    }

    #[test]
    fn report_formatting_and_assert() {
        let clean = InvariantReport {
            checked_at: SimTime::from_micros(5),
            jobs_checked: 2,
            violations: vec![],
        };
        assert!(clean.is_clean());
        clean.assert_clean();
        assert!(clean.to_string().contains("all invariants hold"));

        let dirty = InvariantReport {
            checked_at: SimTime::from_micros(5),
            jobs_checked: 2,
            violations: vec![InvariantViolation {
                job: JobId::new("j"),
                invariant: "leak-pods",
                detail: "pod x".into(),
            }],
        };
        assert!(!dirty.is_clean());
        assert!(dirty.to_string().contains("leak-pods"));
        let caught = std::panic::catch_unwind(|| dirty.assert_clean());
        assert!(caught.is_err());
    }
}
