//! The three workloads: how each one's inputs are generated from the
//! seed, how the platform is set up for it, and what a finished run
//! yields (per-job records, probe results, correctness problems and the
//! deterministic digest).
//!
//! Everything here drives the platform through public calls only. The
//! arrival schedules come from `dlaas_bench::traffic::generate`, the
//! faults from `dlaas_bench::matrix::FaultKind` and `dlaas_faults`.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::rc::Rc;

use dlaas_bench::matrix::FaultKind;
use dlaas_bench::traffic::{self, Arrival, TrafficConfig};
use dlaas_core::{
    check_invariants, DlaasClient, DlaasPlatform, GpuNodeSpec, InvariantBounds, InvariantMonitor,
    JobId, JobStatus, PlatformConfig, Tenant, TrainingManifest, TENANTS,
};
use dlaas_docstore::Filter;
use dlaas_faults::ChaosMonkey;
use dlaas_gpu::{DlModel, Framework, GpuKind};
use dlaas_kube::labels;
use dlaas_sim::{Sim, SimDuration, SimRng, SimTime, TimerHandle};

use crate::span::Spans;

/// A probe call counts as failed when its reply arrives later than this
/// after the call was due, or not at all.
const PROBE_LIMIT: SimDuration = SimDuration::from_secs(1);
/// How often the invariant monitor sweeps every job during a run (a
/// final full sweep closes each run).
const MONITOR_PERIOD: SimDuration = SimDuration::from_mins(10);
/// After the minimum drain, the run goes on a minute at a time until
/// every acknowledged job is terminal, for at most this long.
const DRAIN_CAP: SimDuration = SimDuration::from_hours(3);

const DATA_BUCKET: &str = "pb-data";
const RESULTS_BUCKET: &str = "pb-results";

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// NSML-style multi-tenant traffic over a long, sparse horizon.
    Traffic,
    /// Many short jobs from one unlimited tenant in a few minutes.
    Burst,
    /// The Poisson workload under pod chaos and rotating substrate faults.
    Chaos,
}

impl Workload {
    pub fn parse(s: &str) -> Option<Workload> {
        match s {
            "traffic" => Some(Workload::Traffic),
            "burst" => Some(Workload::Burst),
            "chaos" => Some(Workload::Chaos),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Traffic => "traffic",
            Workload::Burst => "burst",
            Workload::Chaos => "chaos",
        }
    }
}

struct TenantSpec {
    id: String,
    key: String,
    quota: u32,
    weight: u32,
}

/// Everything a run of one workload needs, generated from the seed
/// before any platform exists.
pub struct Spec {
    pub workload: Workload,
    pub seed: u64,
    platform: PlatformConfig,
    tenants: Vec<TenantSpec>,
    pub arrivals: Vec<Arrival>,
    data_bytes: u64,
    checkpoint: bool,
    /// Submissions (and chaos) happen inside the window.
    window: SimDuration,
    /// Minimum drain after the window.
    drain: SimDuration,
    bounds_terminal_within: Option<SimDuration>,
}

/// Jobs per workload. `traffic` keeps the N the NSML profile was
/// measured at; the others are sized so one run takes a few wall
/// seconds.
const TRAFFIC_JOBS: u64 = 1_000;
const BURST_JOBS: u64 = 1_000;
const CHAOS_JOBS: u64 = 600;

fn cluster(core_nodes: u32, gpus: u32) -> PlatformConfig {
    PlatformConfig {
        core_nodes,
        gpu_nodes: vec![GpuNodeSpec {
            kind: GpuKind::K80,
            count: gpus.div_ceil(4).max(2),
            gpus_each: 4,
        }],
        ..PlatformConfig::default()
    }
}

fn tenants_of(cfg: &TrafficConfig, capacity: u32, unlimited: bool) -> Vec<TenantSpec> {
    cfg.tenant_ids()
        .into_iter()
        .enumerate()
        .map(|(i, id)| TenantSpec {
            key: format!("key-{id}"),
            id,
            quota: if unlimited {
                0
            } else {
                cfg.quota_of(i, capacity)
            },
            weight: cfg.weight_of(i),
        })
        .collect()
}

impl Spec {
    pub fn new(workload: Workload, seed: u64) -> Spec {
        // The inputs come from their own stream of the seed, never from
        // the simulation's, so they do not depend on how boot went.
        let mut rng = SimRng::new(seed).fork("perfbench-arrivals");
        match workload {
            Workload::Traffic => {
                let cfg = TrafficConfig::default();
                let capacity = cfg.capacity_gpus(TRAFFIC_JOBS);
                Spec {
                    workload,
                    seed,
                    platform: cluster(4, capacity),
                    tenants: tenants_of(&cfg, capacity, false),
                    arrivals: traffic::generate(&mut rng, &cfg, TRAFFIC_JOBS),
                    data_bytes: 500_000_000,
                    checkpoint: false,
                    window: cfg.window,
                    drain: SimDuration::from_hours(1),
                    bounds_terminal_within: None,
                }
            }
            Workload::Burst => {
                // One unlimited tenant, flat Poisson arrivals, short
                // single-learner jobs.
                let cfg = TrafficConfig {
                    whales: 0,
                    smalls: 1,
                    window: SimDuration::from_mins(5),
                    diurnal_amp: 0.0,
                    burst_p: 0.0,
                    median_duration: SimDuration::from_secs(20),
                    duration_sigma: 0.3,
                    max_duration: SimDuration::from_secs(60),
                    multi_learner_p: 0.0,
                    ..TrafficConfig::default()
                };
                // Capacity rule: one GPU per job, so every job is
                // admitted and placed on arrival and none waits on GPUs.
                let capacity = BURST_JOBS as u32;
                Spec {
                    workload,
                    seed,
                    platform: cluster(4, capacity),
                    tenants: tenants_of(&cfg, capacity, true),
                    arrivals: traffic::generate(&mut rng, &cfg, BURST_JOBS),
                    data_bytes: 100_000_000,
                    checkpoint: false,
                    window: cfg.window,
                    drain: SimDuration::from_mins(15),
                    bounds_terminal_within: None,
                }
            }
            Workload::Chaos => {
                // The Poisson workload as a degenerate traffic profile:
                // one unlimited tenant, flat arrivals, no bursts, a
                // quarter of the jobs distributed over 2-4 learners.
                let cfg = TrafficConfig {
                    whales: 1,
                    smalls: 0,
                    whale_share: 1.0,
                    window: SimDuration::from_hours(1),
                    diurnal_amp: 0.0,
                    burst_p: 0.0,
                    median_duration: SimDuration::from_secs(120),
                    duration_sigma: 0.5,
                    max_duration: SimDuration::from_mins(10),
                    multi_learner_p: 0.25,
                    ..TrafficConfig::default()
                };
                let capacity = cfg.capacity_gpus(CHAOS_JOBS).max(64);
                let mut platform = cluster(4, capacity);
                platform.core.lcm_replicas = 2;
                Spec {
                    workload,
                    seed,
                    platform,
                    tenants: tenants_of(&cfg, capacity, true),
                    arrivals: traffic::generate(&mut rng, &cfg, CHAOS_JOBS),
                    data_bytes: 500_000_000,
                    checkpoint: true,
                    window: cfg.window,
                    drain: SimDuration::from_hours(1),
                    // A late crash of a job restarts its training, so the
                    // liveness bound is sized for chaos, as the soak does.
                    bounds_terminal_within: Some(SimDuration::from_hours(4)),
                }
            }
        }
    }

    fn manifest(&self, serial: usize, a: &Arrival) -> TrainingManifest {
        let every = if self.checkpoint {
            (a.iterations / 5).max(50)
        } else {
            0
        };
        TrainingManifest::builder(format!("pb-{serial}"))
            .framework(Framework::TensorFlow)
            .model(DlModel::Resnet50)
            .gpus(GpuKind::K80, 1)
            .learners(a.learners)
            .data(DATA_BUCKET, "d/", self.data_bytes)
            .results(RESULTS_BUCKET)
            .iterations(a.iterations)
            .checkpoint_every(every)
            .build()
            .expect("generated manifest is valid")
    }
}

/// A platform that is ready, with its tenants added and buckets seeded.
pub struct Rig {
    pub sim: Sim,
    pub platform: DlaasPlatform,
    clients: Vec<DlaasClient>,
}

/// Builds a fresh platform for `spec`. With `spans`, each call into the
/// platform is recorded as a wall-clock span.
pub fn setup(spec: &Spec, mut spans: Option<&mut Spans>) -> Rig {
    let mut sim = Sim::new(spec.seed);
    sim.trace_mut().set_enabled(false);
    let mut span = |name: &str, f: &mut dyn FnMut()| match spans.as_deref_mut() {
        Some(s) => s.wall(name, f),
        None => f(),
    };
    let mut platform = None;
    span("DlaasPlatform::new", &mut || {
        platform = Some(DlaasPlatform::new(&mut sim, spec.platform.clone()));
    });
    let platform = platform.expect("platform built");
    span("run_until_ready", &mut || {
        platform.run_until_ready(&mut sim, SimDuration::from_secs(60));
    });
    let mut clients = Vec::with_capacity(spec.tenants.len());
    for t in &spec.tenants {
        span("add_tenant", &mut || {
            platform
                .add_tenant(
                    &Tenant::new(t.id.clone(), t.key.clone(), t.quota).with_weight(t.weight),
                )
                .expect("bootstrap tenant insert");
        });
        clients.push(platform.client(&t.id, &t.key));
    }
    span("seed_buckets", &mut || {
        platform.seed_dataset(DATA_BUCKET, "d/", spec.data_bytes);
        platform.create_bucket(RESULTS_BUCKET);
    });
    Rig {
        sim,
        platform,
        clients,
    }
}

/// One submission as the client saw it.
#[derive(Debug, Default, Clone)]
pub struct JobRec {
    pub due_us: u64,
    pub ack_us: Option<u64>,
    /// The accepted job; `None` after an ack means rejected.
    pub job: Option<JobId>,
}

/// One probe call: when it was due, when (if ever) it answered, and
/// whether the answer was a success.
#[derive(Debug, Clone, Copy)]
pub struct ProbeRec {
    pub due_us: u64,
    pub done_us: Option<u64>,
    pub ok: bool,
}

impl ProbeRec {
    pub fn failed(&self) -> bool {
        match self.done_us {
            Some(done) => !self.ok || done - self.due_us > PROBE_LIMIT.as_micros(),
            None => true,
        }
    }
}

#[derive(Default)]
pub struct Log {
    pub jobs: Vec<JobRec>,
    /// Tenant index and id of the most recently acknowledged job.
    last_job: Option<(usize, JobId)>,
    pub api: Vec<ProbeRec>,
    pub etcd: Vec<ProbeRec>,
    pub docstore: Vec<ProbeRec>,
    /// `(sim µs, fault label)` of every injection.
    pub faults: Vec<(u64, &'static str)>,
    pub pending_peak: usize,
}

/// A rig with the workload scheduled on it.
pub struct Armed {
    pub start: SimTime,
    /// End of the measured region: the window plus the minimum drain.
    pub settle: SimTime,
    /// Latest end of the run.
    cap: SimTime,
    pub log: Rc<RefCell<Log>>,
    monitor: InvariantMonitor,
    probes: TimerHandle,
}

fn probe_done(
    log: &Rc<RefCell<Log>>,
    pick: fn(&mut Log) -> &mut Vec<ProbeRec>,
    i: usize,
) -> impl FnOnce(&mut Sim, bool) {
    let log = log.clone();
    move |sim, ok| {
        let mut l = log.borrow_mut();
        let rec = &mut pick(&mut l)[i];
        rec.done_us = Some(sim.now().as_micros());
        rec.ok = ok;
    }
}

/// Schedules every submission, the three once-per-sim-second probes, the
/// invariant monitor and (for `chaos`) the faults.
pub fn arm(rig: &mut Rig, spec: &Spec) -> Armed {
    let sim = &mut rig.sim;
    let start = sim.now();
    let log = Rc::new(RefCell::new(Log::default()));

    log.borrow_mut().jobs = vec![JobRec::default(); spec.arrivals.len()];
    for (i, a) in spec.arrivals.iter().enumerate() {
        let client = rig.clients[a.tenant].clone();
        let manifest = spec.manifest(i, a);
        let tenant = a.tenant;
        let log = log.clone();
        sim.schedule_at(start + a.at, move |sim| {
            log.borrow_mut().jobs[i].due_us = sim.now().as_micros();
            client.submit(sim, manifest, move |sim, r| {
                let mut l = log.borrow_mut();
                l.jobs[i].ack_us = Some(sim.now().as_micros());
                if let Ok(job) = r {
                    l.jobs[i].job = Some(job.clone());
                    l.last_job = Some((tenant, job));
                }
            });
        });
    }

    // Open-loop probes, one call each per sim-second, each timed from
    // its due time.
    let clients = rig.clients.clone();
    let etcd = rig.platform.etcd().client("perfbench-probe");
    let meta = rig.platform.handles().meta("perfbench-probe");
    let plog = log.clone();
    let probes = dlaas_sim::every(sim, SimDuration::from_secs(1), move |sim, _n| {
        let due_us = sim.now().as_micros();
        let rec = ProbeRec {
            due_us,
            done_us: None,
            ok: false,
        };
        let (last, ia, ie, id) = {
            let mut l = plog.borrow_mut();
            l.pending_peak = l.pending_peak.max(sim.events_pending());
            let last = l.last_job.clone();
            if last.is_some() {
                l.api.push(rec);
            }
            l.etcd.push(rec);
            l.docstore.push(rec);
            (
                last,
                l.api.len() - 1,
                l.etcd.len() - 1,
                l.docstore.len() - 1,
            )
        };
        if let Some((tenant, job)) = last {
            let done = probe_done(&plog, |l| &mut l.api, ia);
            clients[tenant].status(sim, job, move |sim, r| done(sim, r.is_ok()));
        }
        let done = probe_done(&plog, |l| &mut l.etcd, ie);
        etcd.get(sim, "perfbench/probe", move |sim, r| done(sim, r.is_ok()));
        let done = probe_done(&plog, |l| &mut l.docstore, id);
        meta.find_one(
            sim,
            TENANTS,
            Filter::eq("id", "perfbench-none"),
            move |sim, r| {
                done(sim, r.is_ok());
            },
        );
        true
    });

    let bounds = InvariantBounds {
        terminal_within: spec.bounds_terminal_within.unwrap_or_else(|| {
            InvariantBounds::from_config(&rig.platform.handles().config).terminal_within
        }),
        ..InvariantBounds::from_config(&rig.platform.handles().config)
    };
    let monitor = InvariantMonitor::install_with(sim, &rig.platform, MONITOR_PERIOD, bounds);

    if spec.workload == Workload::Chaos {
        arm_chaos(sim, &rig.platform, &log, start + spec.window);
    }

    let settle = start + spec.window + spec.drain;
    Armed {
        start,
        settle,
        cap: settle + DRAIN_CAP,
        log,
        monitor,
        probes,
    }
}

/// `true` once every submission is acknowledged and every accepted job
/// is terminal.
fn drained(platform: &DlaasPlatform, log: &Log) -> bool {
    log.jobs.iter().all(|j| {
        j.ack_us.is_some()
            && j.job
                .as_ref()
                .is_none_or(|id| platform.job_status(id).is_some_and(JobStatus::is_terminal))
    })
}

/// After the measured region, runs on a sim minute at a time until every
/// job has finished (or the cap is hit), so the correctness checks see
/// every job's outcome. Not timed: a seed whose fair queue drains late
/// must not stretch the measured region.
pub fn drain(rig: &mut Rig, armed: &Armed) {
    while rig.sim.now() < armed.cap && !drained(&rig.platform, &armed.log.borrow()) {
        let next = (rig.sim.now() + SimDuration::from_mins(1)).min(armed.cap);
        rig.sim.run_until(next);
    }
}

/// Pod chaos for the whole window, a substrate fault every 7 minutes
/// (etcd leader crash, docstore crash, NFS outage, leader partition, in
/// turn) and one crash of an LCM shard owner 25 minutes in.
fn arm_chaos(sim: &mut Sim, platform: &DlaasPlatform, log: &Rc<RefCell<Log>>, chaos_end: SimTime) {
    const ROTATION: [FaultKind; 4] = [
        FaultKind::EtcdLeaderCrash,
        FaultKind::MongoCrash,
        FaultKind::NfsOutage,
        FaultKind::Partition,
    ];
    let monkey = ChaosMonkey::unleash(
        sim,
        platform.kube(),
        labels! {},
        SimDuration::from_secs(90),
        0.3,
    );
    let p = platform.clone();
    let flog = log.clone();
    let none = JobId::new("perfbench-none");
    let rotation = dlaas_sim::every(sim, SimDuration::from_mins(7), move |sim, n| {
        let kind = ROTATION[(n % 4) as usize];
        kind.inject(sim, &p, &none);
        flog.borrow_mut()
            .faults
            .push((sim.now().as_micros(), kind.label()));
        true
    });
    let p = platform.clone();
    let flog = log.clone();
    sim.schedule_in(SimDuration::from_mins(25), move |sim| {
        let last = flog.borrow().last_job.clone();
        if let Some((_, job)) = last {
            FaultKind::LcmOwnerCrash.inject(sim, &p, &job);
            flog.borrow_mut()
                .faults
                .push((sim.now().as_micros(), FaultKind::LcmOwnerCrash.label()));
        }
    });
    sim.schedule_at(chaos_end, move |_sim| {
        monkey.stop();
        rotation.cancel();
    });
}

/// What a finished run yields.
pub struct Finished {
    pub attempted: u64,
    /// Jobs that reached a terminal state inside the measured region.
    pub terminal_in_region: u64,
    pub completed: u64,
    /// Rejected, FAILED/KILLED and unfinished jobs.
    pub failed: u64,
    pub ack_ms: Vec<f64>,
    pub turnaround_s: Vec<f64>,
    pub api_probes: u64,
    pub api_unavailable_s: u64,
    pub etcd_unavailable_s: u64,
    pub docstore_unavailable_s: u64,
    pub sim_secs: f64,
    pub problems: Vec<String>,
    /// Sim-derived output only; byte-identical for a given seed.
    pub digest_text: String,
}

/// `(judged, failed)` probes, judging only those due early enough to have
/// had their full limit to answer before the run ended.
fn count_failed(p: &[ProbeRec], end_us: u64) -> (u64, u64) {
    let cutoff = end_us.saturating_sub(PROBE_LIMIT.as_micros());
    let judged: Vec<&ProbeRec> = p.iter().filter(|r| r.due_us <= cutoff).collect();
    let failed = judged.iter().filter(|r| r.failed()).count();
    (judged.len() as u64, failed as u64)
}

/// Closes a driven run: the final invariant sweep, per-job outcomes and
/// the correctness checks.
pub fn finish(rig: &Rig, armed: &Armed) -> Finished {
    armed.monitor.cancel();
    armed.probes.cancel();
    let sim = &rig.sim;
    let platform = &rig.platform;
    let log = armed.log.borrow();
    let mut problems = Vec::new();

    let report = check_invariants(sim, platform);
    let violations = armed.monitor.violations_seen().max(report.violations.len());
    if violations > 0 {
        problems.push(format!("{violations} invariant violation(s)"));
        for v in report.violations.iter().take(5) {
            problems.push(format!("  {v}"));
        }
    }

    let mut digest = String::new();
    let (mut completed, mut failed, mut lost, mut unfinished) = (0u64, 0u64, 0u64, 0u64);
    let mut ack_ms = Vec::with_capacity(log.jobs.len());
    let mut turnaround_s = Vec::with_capacity(log.jobs.len());
    let settle_us = armed.settle.as_micros();
    let mut terminal_in_region = 0u64;
    for (i, j) in log.jobs.iter().enumerate() {
        let Some(ack) = j.ack_us else {
            lost += 1;
            failed += 1;
            writeln!(digest, "job {i} due={} lost", j.due_us).unwrap();
            continue;
        };
        ack_ms.push((ack - j.due_us) as f64 / 1e3);
        let Some(job) = &j.job else {
            failed += 1;
            writeln!(digest, "job {i} due={} ack={ack} rejected", j.due_us).unwrap();
            continue;
        };
        let info = platform.job_info(job);
        let status = info.as_ref().map(|i| i.status);
        let end_us = info
            .as_ref()
            .and_then(|i| i.history.last().map(|&(_, t)| t))
            .unwrap_or(0);
        match status {
            Some(JobStatus::Completed) => completed += 1,
            Some(s) if s.is_terminal() => failed += 1,
            _ => {
                unfinished += 1;
                failed += 1;
            }
        }
        if status.is_some_and(JobStatus::is_terminal) {
            turnaround_s.push(end_us.saturating_sub(j.due_us) as f64 / 1e6);
            terminal_in_region += u64::from(end_us <= settle_us);
        }
        writeln!(
            digest,
            "job {i} {} due={} ack={ack} status={status:?} end={end_us}",
            job.as_str(),
            j.due_us
        )
        .unwrap();
    }
    if lost > 0 {
        problems.push(format!("{lost} submission(s) never acknowledged"));
    }
    if unfinished > 0 {
        problems.push(format!(
            "{unfinished} job(s) unfinished after the longest drain"
        ));
    }
    if log.api.is_empty() {
        problems.push("the API probe never ran".into());
    }

    let events = sim.events_executed();
    let end_us = sim.now().as_micros();
    let sim_secs = armed
        .settle
        .saturating_duration_since(armed.start)
        .as_secs_f64();
    let (api_probes, api_unavailable_s) = count_failed(&log.api, end_us);
    let (_, etcd_unavailable_s) = count_failed(&log.etcd, end_us);
    let (_, docstore_unavailable_s) = count_failed(&log.docstore, end_us);
    writeln!(
        digest,
        "events={events} now={} probes api={}/{api_unavailable_s} etcd={}/{etcd_unavailable_s} docstore={}/{docstore_unavailable_s} pending_peak={}",
        sim.now().as_micros(),
        log.api.len(),
        log.etcd.len(),
        log.docstore.len(),
        log.pending_peak
    )
    .unwrap();
    for (t, f) in &log.faults {
        writeln!(digest, "fault {t} {f}").unwrap();
    }
    digest.push_str(&platform.expose_metrics());

    Finished {
        attempted: log.jobs.len() as u64,
        terminal_in_region,
        completed,
        failed,
        ack_ms,
        turnaround_s,
        api_probes,
        api_unavailable_s,
        etcd_unavailable_s,
        docstore_unavailable_s,
        sim_secs,
        problems,
        digest_text: digest,
    }
}
