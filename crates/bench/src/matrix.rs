//! The fault matrix: every fault kind crossed with every Guardian
//! deployment step, each trial judged by the platform invariant checker.
//!
//! The paper validates dependability with targeted `kubectl` experiments
//! (Fig. 4) and anecdotal chaos runs. This module systematises that into
//! a campaign: for each of the Guardian's six deployment steps (§III-d)
//! a trigger watches for the step's observable side effect and, the
//! moment it appears, injects one fault — a Guardian crash, an etcd
//! leader crash, a metadata-store crash, an NFS outage or a network
//! partition of the etcd leader. The job must still complete, and after
//! a GC settle the whole platform must satisfy every invariant of
//! [`dlaas_core::invariants`] (liveness, status monotonicity, bounded
//! retries, no leaked resources).
//!
//! [`run_cell`] runs one (fault, step, seed) trial; [`sweep`] runs the
//! full matrix and aggregates recovery times into a histogram. The
//! randomized long-duration campaign is the soak driver's `chaos`
//! profile ([`crate::soak`]), which injects these same [`FaultKind`]s.
//!
//! Campaigns parallelise over seeds: [`sweep`] shards its trials
//! across the [`CampaignRunner`] and
//! merges the records by trial id, so every aggregate here — tables, the
//! [`render_matrix_json`] artifact, the replayed
//! [`MATRIX_RECOVERY_SECONDS`] histogram — is byte-identical for any
//! thread count.

use std::cell::Cell;
use std::fmt;
use std::rc::Rc;

use dlaas_core::{check_invariants, paths, DlaasPlatform, JobId, JobStatus};
use dlaas_faults::{nfs_outage_window, partition_window, when};
use dlaas_gpu::{DlModel, Framework, GpuKind};
use dlaas_kube::{labels, PodPhase};
use dlaas_raft::raft_addr;
use dlaas_sim::{Sim, SimDuration, SimTime};

use crate::artifact::{fields, int, text, Json};
use crate::harness::{submit_one, throughput_manifest, Rig};
use crate::runner::{CampaignReport, CampaignRunner, Trial, TrialRun};

/// Histogram of fault-to-terminal times, labelled by fault kind and
/// injection point.
pub const MATRIX_RECOVERY_SECONDS: &str = "bench_matrix_recovery_seconds";

/// How long substrate outages (NFS, MongoDB, etcd node, partition) last.
///
/// Sized against the deploy retry budget: a mid-deploy failure costs one
/// of `deploy_max_attempts` (3) Guardian incarnations, and with the
/// default kubelet timings (crash detect 600ms, first restart free,
/// second restart backed off by 10s, jitter ±25%) the third incarnation
/// boots no earlier than ~8.9s after the first failure. A 6s outage
/// therefore always leaves at least one attempt that runs against
/// healthy substrates.
fn outage() -> SimDuration {
    SimDuration::from_secs(6)
}

/// One injectable platform-level fault of the campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// `kubectl delete`-style crash of the job's Guardian pod.
    GuardianCrash,
    /// Crash of the current etcd leader node (restarted after the
    /// outage window — a rolling node failure, not a quorum loss).
    EtcdLeaderCrash,
    /// Crash of the metadata store; it recovers from its journal.
    MongoCrash,
    /// NFS data plane unavailable for the outage window.
    NfsOutage,
    /// The etcd leader partitioned away from its peers, then healed.
    Partition,
    /// Crash of the LCM replica that owns the job's shard — the sweep
    /// "leader" for this job. Its lease must expire and a survivor must
    /// take the shard over without ever double-driving the job.
    LcmOwnerCrash,
}

impl FaultKind {
    /// Every fault kind, in campaign order.
    pub fn all() -> [FaultKind; 6] {
        [
            FaultKind::GuardianCrash,
            FaultKind::EtcdLeaderCrash,
            FaultKind::MongoCrash,
            FaultKind::NfsOutage,
            FaultKind::Partition,
            FaultKind::LcmOwnerCrash,
        ]
    }

    /// Metric label value.
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::GuardianCrash => "guardian_crash",
            FaultKind::EtcdLeaderCrash => "etcd_leader_crash",
            FaultKind::MongoCrash => "mongo_crash",
            FaultKind::NfsOutage => "nfs_outage",
            FaultKind::Partition => "partition",
            FaultKind::LcmOwnerCrash => "lcm_owner_crash",
        }
    }

    /// Parses a metric label back into the kind (`None` when unknown).
    pub fn from_label(label: &str) -> Option<FaultKind> {
        FaultKind::all().into_iter().find(|k| k.label() == label)
    }

    /// Applies the fault to a live platform.
    pub fn inject(&self, sim: &mut Sim, platform: &DlaasPlatform, job: &JobId) {
        match self {
            FaultKind::GuardianCrash => {
                platform.kube().crash_pod(sim, &paths::guardian_job(job));
            }
            FaultKind::EtcdLeaderCrash => {
                if let Some(leader) = platform.etcd().leader_id() {
                    let cluster = platform.etcd().clone();
                    cluster.crash(sim, leader);
                    sim.schedule_in(outage(), move |sim| cluster.restart(sim, leader));
                }
            }
            FaultKind::MongoCrash => {
                platform.crash_mongo(sim, Some(outage()));
            }
            FaultKind::NfsOutage => {
                nfs_outage_window(sim, platform.nfs(), outage());
            }
            FaultKind::Partition => {
                // Both sides of the split must be listed: a group
                // partition leaves unlisted addresses unaffected.
                if let Some(leader) = platform.etcd().leader_id() {
                    partition_window(
                        sim,
                        platform.etcd().raft().net(),
                        vec![vec![raft_addr(leader)], peer_group(platform, leader)],
                        outage(),
                    );
                }
            }
            FaultKind::LcmOwnerCrash => {
                // Read the shard's owner key off the etcd leader to find
                // which replica sweeps this job, then kill exactly that
                // pod. Falls back to replica 0 when the key is not there
                // yet (shard unclaimed at injection time).
                let shards = platform.handles().config.lcm_shards;
                let key = paths::lcm_shard_owner(paths::job_shard(job, shards));
                let owner = platform
                    .etcd()
                    .leader_id()
                    .and_then(|l| {
                        platform
                            .etcd()
                            .kv_snapshot(l)
                            .get(&key)
                            .map(|v| v.value.clone())
                    })
                    .unwrap_or_else(|| "dlaas-lcm-0".to_owned());
                platform.kube().crash_pod(sim, &owner);
            }
        }
    }
}

/// The raft addresses of every etcd node except `leader` — the other
/// side of a leader-isolation partition.
fn peer_group(platform: &DlaasPlatform, leader: u32) -> Vec<dlaas_net::Addr> {
    (0..platform.etcd().len() as u32)
        .filter(|&i| i != leader)
        .map(raft_addr)
        .collect()
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FaultKind::GuardianCrash => "guardian crash",
            FaultKind::EtcdLeaderCrash => "etcd leader crash",
            FaultKind::MongoCrash => "mongo crash",
            FaultKind::NfsOutage => "NFS outage",
            FaultKind::Partition => "partition",
            FaultKind::LcmOwnerCrash => "LCM owner crash",
        };
        f.write_str(s)
    }
}

/// The Guardian's six deployment steps (§III-d), each identified by its
/// first observable side effect — the trigger condition for injection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectionPoint {
    /// Step 1 (rollback + start): the Guardian pod is Running.
    GuardianUp,
    /// Step 2: the job's persisted status flipped to DEPLOYING.
    MarkDeploying,
    /// Step 3: the job's NFS volume exists.
    ProvisionVolume,
    /// Step 4: the helper pod exists.
    CreateHelper,
    /// Step 5: learner pods exist.
    CreateLearners,
    /// Step 6: the job's network policy is applied.
    ApplyPolicies,
}

impl InjectionPoint {
    /// Every injection point, in deployment-step order.
    pub fn all() -> [InjectionPoint; 6] {
        [
            InjectionPoint::GuardianUp,
            InjectionPoint::MarkDeploying,
            InjectionPoint::ProvisionVolume,
            InjectionPoint::CreateHelper,
            InjectionPoint::CreateLearners,
            InjectionPoint::ApplyPolicies,
        ]
    }

    /// Metric label value.
    pub fn label(&self) -> &'static str {
        match self {
            InjectionPoint::GuardianUp => "guardian_up",
            InjectionPoint::MarkDeploying => "mark_deploying",
            InjectionPoint::ProvisionVolume => "provision_volume",
            InjectionPoint::CreateHelper => "create_helper",
            InjectionPoint::CreateLearners => "create_learners",
            InjectionPoint::ApplyPolicies => "apply_policies",
        }
    }

    /// Parses a metric label back into the point (`None` when unknown).
    pub fn from_label(label: &str) -> Option<InjectionPoint> {
        InjectionPoint::all()
            .into_iter()
            .find(|p| p.label() == label)
    }

    /// The trigger predicate: `true` once the step's side effect is
    /// observable on the platform.
    pub fn predicate(&self, platform: &DlaasPlatform, job: &JobId) -> Box<dyn FnMut(&Sim) -> bool> {
        let kube = platform.kube().clone();
        let job = job.clone();
        match self {
            InjectionPoint::GuardianUp => {
                let pod = paths::guardian_job(&job);
                Box::new(move |_| kube.pod_phase(&pod) == Some(PodPhase::Running))
            }
            InjectionPoint::MarkDeploying => {
                let platform = platform.clone();
                Box::new(move |_| platform.job_status(&job) == Some(JobStatus::Deploying))
            }
            InjectionPoint::ProvisionVolume => {
                let nfs = platform.nfs().clone();
                let vol = paths::volume(&job);
                Box::new(move |_| nfs.find_volume(&vol).is_some())
            }
            InjectionPoint::CreateHelper => {
                let sel = labels! {"job" => job.as_str(), "role" => "helper"};
                Box::new(move |_| !kube.pods_matching(&sel).is_empty())
            }
            InjectionPoint::CreateLearners => {
                let sel = labels! {"job" => job.as_str(), "role" => "learner"};
                Box::new(move |_| !kube.pods_matching(&sel).is_empty())
            }
            InjectionPoint::ApplyPolicies => {
                let netpol = paths::network_policy(&job);
                Box::new(move |_| kube.network_policy_names().contains(&netpol))
            }
        }
    }
}

impl fmt::Display for InjectionPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            InjectionPoint::GuardianUp => "guardian up",
            InjectionPoint::MarkDeploying => "mark DEPLOYING",
            InjectionPoint::ProvisionVolume => "provision volume",
            InjectionPoint::CreateHelper => "create helper",
            InjectionPoint::CreateLearners => "create learners",
            InjectionPoint::ApplyPolicies => "apply policies",
        };
        f.write_str(s)
    }
}

/// Outcome of one (fault, step, seed) trial.
#[derive(Debug, Clone)]
pub struct CellOutcome {
    /// The injected fault.
    pub kind: FaultKind,
    /// The deployment step it targeted.
    pub point: InjectionPoint,
    /// The simulation seed.
    pub seed: u64,
    /// The job's final status.
    pub status: Option<JobStatus>,
    /// Whether the trigger fired (the step was actually reached).
    pub fault_fired: bool,
    /// Injection-to-terminal time, when the job reached a terminal state.
    pub recovery: Option<SimDuration>,
    /// Invariant violations found after the settle, rendered.
    pub violations: Vec<String>,
}

impl CellOutcome {
    /// A cell passes when the fault really fired, the job still
    /// completed, and no platform invariant was violated afterwards.
    pub fn passed(&self) -> bool {
        self.fault_fired && self.status == Some(JobStatus::Completed) && self.violations.is_empty()
    }

    /// One summary line for tables and failure messages.
    pub fn describe(&self) -> String {
        format!(
            "{} at {} (seed {}): status={:?} fired={} violations={}",
            self.kind,
            self.point,
            self.seed,
            self.status,
            self.fault_fired,
            self.violations.len()
        )
    }
}

/// Runs one cell of the matrix: boot a platform, submit one training
/// job, inject `kind` the moment `point` becomes observable, run the job
/// to a terminal state, let GC settle past the invariant grace period,
/// then check every platform invariant.
pub fn run_cell(seed: u64, kind: FaultKind, point: InjectionPoint) -> CellOutcome {
    cell_trial(seed, kind, point).result
}

/// [`run_cell`], also reporting the simulated time the trial consumed
/// (what the runner's sim-time budget is checked against).
fn cell_trial(seed: u64, kind: FaultKind, point: InjectionPoint) -> TrialRun<CellOutcome> {
    let (mut sim, platform) = Rig::bench(GpuKind::K80, 1).boot(seed);
    let manifest = throughput_manifest(
        DlModel::Resnet50,
        Framework::TensorFlow,
        GpuKind::K80,
        1,
        300,
    );
    let job = submit_one(&mut sim, &platform, manifest);

    let fired: Rc<Cell<Option<SimTime>>> = Rc::new(Cell::new(None));
    let f2 = fired.clone();
    let pred = point.predicate(&platform, &job);
    let p2 = platform.clone();
    let job2 = job.clone();
    when(&mut sim, SimDuration::from_millis(200), pred, move |sim| {
        f2.set(Some(sim.now()));
        kind.inject(sim, &p2, &job2);
    });

    let status = platform.wait_for_status(
        &mut sim,
        &job,
        JobStatus::Completed,
        SimDuration::from_hours(1),
    );
    let recovery = match (fired.get(), status) {
        (Some(at), Some(s)) if s.is_terminal() => Some(sim.now().saturating_duration_since(at)),
        _ => None,
    };
    // Settle well past the GC grace (3 LCM scan periods) so the leak
    // invariants apply with full force.
    sim.run_for(platform.handles().config.lcm_scan * 6);
    let report = check_invariants(&sim, &platform);

    let outcome = CellOutcome {
        kind,
        point,
        seed,
        status,
        fault_fired: fired.get().is_some(),
        recovery,
        violations: report
            .violations
            .iter()
            .map(std::string::ToString::to_string)
            .collect(),
    };
    TrialRun {
        result: outcome,
        sim_elapsed: sim.now().saturating_duration_since(SimTime::ZERO),
    }
}

/// A matrix campaign executed through the runner: the outcomes of the
/// completed cells, their aggregated [`MATRIX_RECOVERY_SECONDS`]
/// histogram, and the full per-trial report with any `TIMEOUT`/panic
/// records.
#[derive(Debug)]
pub struct MatrixCampaign {
    /// One outcome per completed (fault, step, seed) trial.
    pub outcomes: Vec<CellOutcome>,
    /// Aggregated recovery histogram, labelled by fault and point.
    pub metrics: dlaas_sim::Registry,
    /// The per-trial report, sorted by trial id.
    pub report: CampaignReport<CellOutcome>,
}

impl MatrixCampaign {
    /// Every completed cell that did not pass.
    pub fn failures(&self) -> Vec<&CellOutcome> {
        self.outcomes.iter().filter(|o| !o.passed()).collect()
    }
}

/// Runs the matrix campaign — every given fault kind × every deployment
/// step × `seeds` seeds from `base_seed`, in that nesting order — on
/// `threads` workers. Records merge by trial id, and the recovery
/// histogram is replayed from the merged sequence on the calling
/// thread, so every output — including the registry exposition — is
/// byte-identical for any `threads`, including 1.
pub fn sweep(
    kinds: &[FaultKind],
    base_seed: u64,
    seeds: u64,
    threads: usize,
    sim_budget: Option<SimDuration>,
) -> MatrixCampaign {
    let mut trials = Vec::new();
    for &kind in kinds {
        for point in InjectionPoint::all() {
            for seed in base_seed..base_seed + seeds {
                let (fault, step) = (kind.label(), point.label());
                trials.push(Trial {
                    label: format!("{fault}/{step}/{seed}"),
                    repro: format!(
                        "cargo run --release -p dlaas-bench --bin fault_matrix -- \
                         --trial {fault}/{step} --seed {seed}"
                    ),
                    spec: (seed, kind, point),
                });
            }
        }
    }
    let mut runner = CampaignRunner::new("fault_matrix", threads);
    if let Some(b) = sim_budget {
        runner = runner.with_sim_budget(b);
    }
    let report = runner.run(trials, |&(seed, kind, point)| cell_trial(seed, kind, point));

    // Replay the merged records into a fresh registry. Histogram bucket
    // counts are commutative, but replaying in trial-id order makes the
    // determinism argument trivial: same sorted inputs, same exposition.
    let metrics = dlaas_sim::Registry::new();
    let mut outcomes = Vec::new();
    for out in report.results() {
        if let Some(d) = out.recovery {
            metrics.observe_duration_us(
                MATRIX_RECOVERY_SECONDS,
                &[("fault", out.kind.label()), ("point", out.point.label())],
                d.as_micros(),
            );
        }
        outcomes.push(out.clone());
    }
    MatrixCampaign {
        outcomes,
        metrics,
        report,
    }
}

/// Renders a matrix campaign as a byte-stable JSON artifact: one object
/// per cell in trial-id order, abnormal (timeout/panic) records with
/// their repro commands, and the full metrics exposition. Contains no
/// thread count and no wall-clock reading, so the artifact is identical
/// for any `--threads` value.
pub fn render_matrix_json(base_seed: u64, seeds: u64, campaign: &MatrixCampaign) -> String {
    let null = || Json::Raw("null".into());
    let cells = (campaign.outcomes.iter())
        .map(|o| {
            Json::Line(fields([
                ("fault", text(o.kind.label())),
                ("point", text(o.point.label())),
                ("seed", int(o.seed)),
                (
                    "status",
                    o.status.map_or_else(null, |s| text(format!("{s:?}"))),
                ),
                ("fired", int(o.fault_fired)),
                (
                    "recovery_us",
                    o.recovery.map_or_else(null, |d| int(d.as_micros())),
                ),
                ("violations", int(o.violations.len())),
                ("passed", int(o.passed())),
            ]))
        })
        .collect();
    let failures = campaign
        .failures()
        .iter()
        .map(|o| text(o.describe()))
        .collect();
    let abnormal = campaign
        .report
        .failure_records()
        .into_iter()
        .map(text)
        .collect();
    Json::Block(fields([
        ("campaign", text("fault_matrix")),
        ("base_seed", int(base_seed)),
        ("seeds", int(seeds)),
        ("cells", Json::List(cells)),
        ("failures", Json::List(failures)),
        ("abnormal", Json::List(abnormal)),
        ("metrics", text(campaign.metrics.expose())),
    ]))
    .render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn guardian_crash_mid_deploy_still_completes() {
        let out = run_cell(11, FaultKind::GuardianCrash, InjectionPoint::CreateHelper);
        assert!(out.passed(), "{}: {:?}", out.describe(), out.violations);
        assert!(out.recovery.is_some());
    }

    #[test]
    fn lcm_owner_crash_mid_deploy_still_completes() {
        let out = run_cell(13, FaultKind::LcmOwnerCrash, InjectionPoint::CreateLearners);
        assert!(out.passed(), "{}: {:?}", out.describe(), out.violations);
    }

    #[test]
    fn nfs_outage_at_provision_volume_still_completes() {
        let out = run_cell(12, FaultKind::NfsOutage, InjectionPoint::ProvisionVolume);
        assert!(out.passed(), "{}: {:?}", out.describe(), out.violations);
    }

    #[test]
    fn labels_are_distinct() {
        let kinds: std::collections::BTreeSet<_> = FaultKind::all()
            .iter()
            .map(super::FaultKind::label)
            .collect();
        assert_eq!(kinds.len(), FaultKind::all().len());
        let points: std::collections::BTreeSet<_> = InjectionPoint::all()
            .iter()
            .map(super::InjectionPoint::label)
            .collect();
        assert_eq!(points.len(), InjectionPoint::all().len());
    }
}
