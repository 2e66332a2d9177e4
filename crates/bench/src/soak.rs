//! The soak driver: many jobs through the full platform for hours of
//! simulated time, under one of four named profiles.
//!
//! | profile   | arrivals                                   | cluster          | faults |
//! |-----------|--------------------------------------------|------------------|--------|
//! | `scale`   | N jobs evenly spaced over 20 min, 4h horizon | ≥ N K80s       | none   |
//! | `traffic` | N NSML-style jobs ([`TrafficConfig::default`]) over 2h, 1h drain | sized by the config | none |
//! | `chaos`   | 30 flat Poisson jobs per hour, 4h drain     | 8 × 4 K80s       | pod chaos + a substrate fault every 7 min |
//! | `uniform` | the `chaos` workload                        | 8 × 4 K80s       | none   |
//!
//! Every profile builds the same way: one [`Rig`], one precomputed
//! `Vec<`[`Arrival`]`>` from [`traffic::generate`] (or the even `scale`
//! spacing) submitted by one loop, and one [`Run`] digest extracted on
//! the worker thread. `chaos`/`uniform` manifests cycle through three
//! (framework, model) pairs by serial number and every other job
//! checkpoints, so both restart paths — from a checkpoint and from
//! scratch — are exercised. Runs execute as trials of the
//! [`CampaignRunner`]; artifacts hold simulated data only, so
//! `BENCH_<profile>.json` is byte-identical for a given seed at any
//! `--threads`, while wall-clock goes to the `.wall.json` sidecar.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::str::FromStr;

use dlaas_core::{
    check_invariants, metrics, InvariantBounds, InvariantMonitor, JobId, JobStatus, Tenant,
    TrainingManifest,
};
use dlaas_faults::ChaosMonkey;
use dlaas_gpu::{DlModel, Framework, GpuKind};
use dlaas_kube::labels;
use dlaas_obs::wallclock::WallTimer;
use dlaas_sim::{SimDuration, SimTime};

use crate::artifact::{f6, fields, int, text, workloads_json, Json};
use crate::engine::EngineRun;
use crate::harness::{cluster, Rig, BENCH_KEY};
use crate::matrix::FaultKind;
use crate::runner::{CampaignReport, CampaignRunner, Trial, TrialRun};
use crate::traffic::{self, Arrival, TrafficConfig};

/// A named soak workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Profile {
    /// N identical jobs evenly spaced over 20 minutes; per-job cost of the
    /// control-plane hot paths as N grows.
    Scale,
    /// NSML-style multi-tenant traffic with quotas and the fair queue.
    Traffic,
    /// The flat Poisson workload under pod chaos and rotating substrate
    /// faults, checked by the invariant monitor throughout.
    Chaos,
    /// The `chaos` workload without faults.
    Uniform,
}

/// (framework, model) pairs `chaos`/`uniform` jobs cycle through.
const MIX: [(Framework, DlModel); 3] = [
    (Framework::TensorFlow, DlModel::Resnet50),
    (Framework::TensorFlow, DlModel::InceptionV3),
    (Framework::Caffe, DlModel::Vgg16),
];

/// Substrate faults the `chaos` profile rotates through, one every 7 min.
const ROTATION: [FaultKind; 4] = [
    FaultKind::EtcdLeaderCrash,
    FaultKind::MongoCrash,
    FaultKind::NfsOutage,
    FaultKind::Partition,
];

/// `scale`: submissions spread over this window regardless of N, so the
/// arrival rate grows with N but the workload shape does not.
const SCALE_WINDOW: SimDuration = SimDuration::from_mins(20);
/// `scale`: fixed horizon, identical for every N so periodic work
/// contributes the same number of rounds and per-job costs compare.
const SCALE_HORIZON: SimDuration = SimDuration::from_hours(4);

impl FromStr for Profile {
    type Err = String;

    fn from_str(s: &str) -> Result<Profile, String> {
        (Profile::ALL.into_iter().find(|p| p.name() == s)).ok_or(format!("unknown profile {s:?}"))
    }
}

impl Profile {
    /// Every profile.
    const ALL: [Profile; 4] = [
        Profile::Scale,
        Profile::Traffic,
        Profile::Chaos,
        Profile::Uniform,
    ];

    /// The name `--profile` takes.
    pub fn name(self) -> &'static str {
        match self {
            Profile::Scale => "scale",
            Profile::Traffic => "traffic",
            Profile::Chaos => "chaos",
            Profile::Uniform => "uniform",
        }
    }

    /// The `"bench"` name inside the artifacts (and the campaign's).
    pub fn bench(self) -> String {
        format!("{}_soak", self.name())
    }

    /// Sizes run when none are given: job counts N for `scale`/`traffic`,
    /// hours of arrivals for `chaos`/`uniform`.
    pub fn default_sizes(self) -> &'static [u64] {
        match self {
            Profile::Scale => &[100, 1_000, 10_000],
            Profile::Traffic => &[10_000, 100_000],
            Profile::Chaos | Profile::Uniform => &[6],
        }
    }

    /// `true` for the profiles whose size is a job count (and whose
    /// artifact holds one seed).
    pub fn sized_by_jobs(self) -> bool {
        matches!(self, Profile::Scale | Profile::Traffic)
    }

    fn traffic(self, size: u64) -> TrafficConfig {
        match self {
            Profile::Scale | Profile::Traffic => TrafficConfig::default(),
            // One unlimited tenant, flat arrivals, no bursts, a quarter of
            // the jobs distributed over 2-4 learners.
            Profile::Chaos | Profile::Uniform => TrafficConfig {
                whales: 1,
                smalls: 0,
                whale_share: 1.0,
                window: SimDuration::from_hours(size),
                diurnal_amp: 0.0,
                burst_p: 0.0,
                median_duration: SimDuration::from_secs(120),
                duration_sigma: 0.5,
                max_duration: SimDuration::from_mins(10),
                multi_learner_p: 0.25,
                ..TrafficConfig::default()
            },
        }
    }

    /// (arrival window, drain after it).
    fn phases(self, size: u64) -> (SimDuration, SimDuration) {
        match self {
            Profile::Scale => (SCALE_WINDOW, SCALE_HORIZON - SCALE_WINDOW),
            Profile::Traffic => (TrafficConfig::default().window, SimDuration::from_hours(1)),
            Profile::Chaos | Profile::Uniform => {
                (SimDuration::from_hours(size), SimDuration::from_hours(4))
            }
        }
    }

    fn buckets(self) -> (&'static str, u64, &'static str) {
        match self {
            Profile::Scale => ("scale-data", 200_000_000, "scale-results"),
            Profile::Traffic => ("traffic-data", 500_000_000, "traffic-results"),
            Profile::Chaos | Profile::Uniform => ("wl-data", 1_000_000_000, "wl-results"),
        }
    }

    fn rig(self, cfg: &TrafficConfig, n: u64, lcm_replicas: Option<u32>) -> Rig {
        // Capacity grows with N for `scale` so concurrency — not parking —
        // is what grows; `traffic` provisions for its offered load.
        let capacity = match self {
            Profile::Scale => n as u32,
            Profile::Traffic => cfg.capacity_gpus(n),
            Profile::Chaos | Profile::Uniform => 32,
        };
        let mut platform = cluster(GpuKind::K80, capacity.div_ceil(4).max(2), 4);
        platform.core_nodes = 4;
        if let Some(m) = lcm_replicas {
            platform.core.lcm_replicas = m;
        }
        let tenants = match self {
            Profile::Scale => vec![Tenant::new("bench", BENCH_KEY, 0)],
            _ => (cfg.tenant_ids().into_iter().enumerate())
                .map(|(i, id)| {
                    let quota = if self == Profile::Traffic {
                        cfg.quota_of(i, capacity)
                    } else {
                        0
                    };
                    Tenant::new(id.clone(), format!("key-{id}"), quota)
                        .with_weight(cfg.weight_of(i))
                })
                .collect(),
        };
        let (data, bytes, results) = self.buckets();
        Rig {
            cluster: platform,
            tenants,
            data: (data, bytes),
            results,
        }
    }

    fn manifest(self, serial: usize, a: &Arrival) -> TrainingManifest {
        let (prefix, (framework, model), every) = match self {
            Profile::Scale => ("scale", MIX[0], 0),
            Profile::Traffic => ("t", MIX[0], 0),
            Profile::Chaos | Profile::Uniform => {
                let every = if serial.is_multiple_of(2) {
                    (a.iterations / 5).max(50)
                } else {
                    0
                };
                ("wl", MIX[serial % MIX.len()], every)
            }
        };
        let (data, bytes, results) = self.buckets();
        TrainingManifest::builder(format!("{prefix}-{serial}"))
            .framework(framework)
            .model(model)
            .gpus(GpuKind::K80, 1)
            .learners(a.learners)
            .data(data, "d/", bytes)
            .results(results)
            .iterations(a.iterations)
            .checkpoint_every(every)
            .build()
            .expect("generated manifest is valid")
    }

    /// Invariant-monitor period, or `None` for `scale`, which measures
    /// cost only. The checker walks every job document, so at large N it
    /// runs sparsely; a final full sweep still closes the run.
    fn monitor_period(self, n: u64) -> Option<SimDuration> {
        match self {
            Profile::Scale => None,
            Profile::Traffic if n > 200_000 => Some(SimDuration::from_mins(30)),
            Profile::Traffic if n > 20_000 => Some(SimDuration::from_mins(10)),
            _ => Some(SimDuration::from_secs(60)),
        }
    }
}

/// One work-count series, summarized from its `dlaas-obs` histogram;
/// `per_job` is `sum` per scheduled job.
#[derive(Debug, Clone)]
struct Series {
    name: &'static str,
    count: u64,
    sum: f64,
    mean: f64,
    max: f64,
    per_job: f64,
}

/// One tenant's turnaround quantiles, in simulated seconds, over its
/// jobs that reached a terminal status.
#[derive(Debug, Clone)]
struct TenantSummary {
    tenant: String,
    jobs: u64,
    p50: f64,
    p95: f64,
    p99: f64,
}

/// The `Send` digest of one soak run: everything the tables, artifacts
/// and verdicts need, extracted on the worker thread.
#[derive(Debug, Clone)]
pub struct Run {
    profile: Profile,
    seed: u64,
    /// N, or hours of arrivals.
    size: u64,
    /// Jobs scheduled for submission.
    n: u64,
    /// Submissions the platform acknowledged.
    pub submitted: u64,
    rejected: u64,
    completed: u64,
    /// Jobs that ended FAILED or KILLED.
    failed: u64,
    unfinished: u64,
    /// Distinct violations the periodic monitor saw.
    violations_during: u64,
    /// Violations of the closing full check.
    final_violations: Vec<String>,
    learner_restarts: u64,
    /// Submission outcomes counted by the API.
    api_submissions: u64,
    /// Submissions held in the fair queue at least once.
    queued_submissions: u64,
    guardians_created: u64,
    guardian_rollbacks: u64,
    /// Guardian deploy latency quantiles and the checkpoint stall p95 (s).
    deploy_p50_s: f64,
    deploy_p95_s: f64,
    stall_p95_s: f64,
    pod_restarts: u64,
    checkpoint_writes: u64,
    checkpoint_restores: u64,
    watch_events_total: u64,
    admission_waits: u64,
    admission_wait_mean_us: f64,
    admission_wait_p95_us: f64,
    tenants: Vec<TenantSummary>,
    series: Vec<Series>,
    events: u64,
    /// Simulated seconds, boot included.
    sim_secs: f64,
    /// Host seconds (reporting only).
    wall_secs: f64,
}

impl Run {
    /// Distinct invariant violations, during the run or at its end.
    fn violations(&self) -> u64 {
        self.violations_during
            .max(self.final_violations.len() as u64)
    }

    /// Kernel events per scheduled job.
    fn events_per_job(&self) -> f64 {
        self.events as f64 / self.n as f64
    }

    /// `true` when no job is left unfinished and no invariant broke.
    pub fn clean(&self) -> bool {
        self.unfinished == 0 && self.violations() == 0
    }

    /// Why the run cannot be trusted, if it cannot: a job left in limbo,
    /// a broken invariant, a lost or refused submission (refusals are
    /// expected only under `chaos`), or a failed job without faults.
    pub fn malformed(&self) -> Option<String> {
        let chaos = self.profile == Profile::Chaos;
        let lost = self.submitted + self.rejected != self.n || (!chaos && self.rejected > 0);
        let bad = !self.clean() || lost || (!chaos && self.failed > 0);
        bad.then(|| format!("MALFORMED {}", self.describe()))
    }

    /// One deterministic summary line.
    pub fn describe(&self) -> String {
        format!(
            "{} seed {} size {}: n={} submitted={} rejected={} completed={} failed={} \
             unfinished={} violations_during={} violations_final={} learner_restarts={} \
             pod_restarts={} events={}",
            self.profile.name(),
            self.seed,
            self.size,
            self.n,
            self.submitted,
            self.rejected,
            self.completed,
            self.failed,
            self.unfinished,
            self.violations_during,
            self.final_violations.len(),
            self.learner_restarts,
            self.pod_restarts,
            self.events
        )
    }

    /// The run's name in the `.wall.json` sidecar (and in baselines).
    fn workload_name(&self) -> String {
        match self.profile {
            Profile::Scale => format!("platform_soak_n{}", self.n),
            Profile::Traffic => format!("n{}", self.n),
            Profile::Chaos | Profile::Uniform => format!("seed{}_h{}", self.seed, self.size),
        }
    }

    /// The run's [`EngineRun`]: what the engine bench and the wall
    /// sidecar report.
    pub fn engine_run(&self) -> EngineRun {
        EngineRun {
            name: self.workload_name(),
            events: self.events,
            sim_secs: self.sim_secs,
            wall_secs: self.wall_secs,
        }
    }
}

/// Runs one soak of `profile` at `size` on a fresh simulation of `seed`.
pub fn run(profile: Profile, seed: u64, size: u64, lcm_replicas: Option<u32>) -> TrialRun<Run> {
    let wall = WallTimer::start();
    let cfg = profile.traffic(size);
    // `chaos`/`uniform` submit 30 jobs per hour of arrivals.
    let n = if profile.sized_by_jobs() {
        size
    } else {
        30 * size
    };
    let rig = profile.rig(&cfg, n, lcm_replicas);
    let (mut sim, platform) = rig.boot(seed);
    let clients: Vec<_> = match profile {
        Profile::Scale => vec![platform.client("scale", BENCH_KEY)],
        _ => (rig.tenants.iter())
            .map(|t| platform.client(&t.id, &t.api_key))
            .collect(),
    };
    let monitor = profile.monitor_period(n).map(|period| {
        let mut bounds = InvariantBounds::from_config(&platform.handles().config);
        if !profile.sized_by_jobs() {
            // A late crash of a non-checkpointing job restarts its
            // training from scratch (§III-g), so time to terminal is
            // queueing plus several full trainings.
            bounds.terminal_within = SimDuration::from_hours(4);
        }
        InvariantMonitor::install_with(&mut sim, &platform, period, bounds)
    });

    // The whole schedule is precomputed (pure math over one rng fork), so
    // it is identical at any thread count.
    let arrivals: Vec<Arrival> = match profile {
        Profile::Scale => (0..n)
            .map(|i| Arrival {
                at: SimDuration::from_micros(SCALE_WINDOW.as_micros() * i / n),
                tenant: 0,
                iterations: 100,
                learners: 1,
            })
            .collect(),
        _ => traffic::generate(&mut sim.rng().fork("traffic-gen"), &cfg, n),
    };
    let jobs: Rc<RefCell<Vec<JobId>>> = Rc::new(RefCell::new(Vec::with_capacity(n as usize)));
    let rejected = Rc::new(Cell::new(0u64));
    for (serial, a) in arrivals.into_iter().enumerate() {
        let client = clients[a.tenant].clone();
        let (jobs, rejected) = (jobs.clone(), rejected.clone());
        sim.schedule_in(a.at, move |sim| {
            client.submit(sim, profile.manifest(serial, &a), move |_sim, r| match r {
                Ok(job) => jobs.borrow_mut().push(job),
                Err(_) => rejected.set(rejected.get() + 1),
            });
        });
    }

    let (window, drain) = profile.phases(size);
    if profile == Profile::Chaos {
        let monkey = ChaosMonkey::unleash(
            &mut sim,
            platform.kube(),
            labels! {},
            SimDuration::from_secs(90),
            0.3,
        );
        let p = platform.clone();
        let none = JobId::new("soak-none");
        let rotation = dlaas_sim::every(&mut sim, SimDuration::from_mins(7), move |sim, k| {
            ROTATION[(k % 4) as usize].inject(sim, &p, &none);
            true
        });
        sim.run_for(window);
        monkey.stop();
        rotation.cancel();
        sim.run_for(drain);
    } else {
        sim.run_for(window + drain);
    }

    let (mut completed, mut failed, mut unfinished, mut learner_restarts) = (0, 0, 0, 0);
    for job in jobs.borrow().iter() {
        let info = platform.job_info(job);
        match info.as_ref().map(|i| i.status) {
            Some(JobStatus::Completed) => completed += 1,
            Some(s) if s.is_terminal() => failed += 1,
            _ => unfinished += 1,
        }
        learner_restarts += info.map_or(0, |i| i.learner_restarts);
    }
    // Close the run with one full sweep on top of what the periodic
    // monitor saw.
    let (violations_during, final_violations) = match monitor {
        Some(monitor) => {
            monitor.cancel();
            let report = check_invariants(&sim, &platform);
            let rendered = report.violations.iter().map(ToString::to_string);
            (monitor.violations_seen() as u64, rendered.collect())
        }
        None => (0, Vec::new()),
    };

    let m = platform.metrics();
    let quantile = |h: &Option<dlaas_obs::Histogram>, q: f64| {
        h.as_ref().and_then(|h| h.quantile(q)).unwrap_or(0.0)
    };
    let tenants = rig
        .tenants
        .iter()
        .map(|t| {
            let h = m.histogram(metrics::TENANT_JOB_TURNAROUND, &[("tenant", t.id.as_str())]);
            TenantSummary {
                tenant: t.id.clone(),
                jobs: h.as_ref().map_or(0, dlaas_obs::Histogram::count),
                p50: quantile(&h, 0.50),
                p95: quantile(&h, 0.95),
                p99: quantile(&h, 0.99),
            }
        })
        .collect();
    let series = [
        (
            "etcd_watch_fanout_examined",
            m.histogram_merged("etcd_watch_fanout_examined"),
        ),
        (
            "kube_kick_pending_examined",
            m.histogram_merged("kube_kick_pending_examined"),
        ),
        (
            "lcm_sweep_docs_examined",
            m.histogram("mongo_docs_examined", &[("op", "find_changed")]),
        ),
    ]
    .into_iter()
    .map(|(name, h)| {
        let sum = h.as_ref().map_or(0.0, dlaas_obs::Histogram::sum);
        Series {
            name,
            count: h.as_ref().map_or(0, dlaas_obs::Histogram::count),
            sum,
            mean: h
                .as_ref()
                .and_then(dlaas_obs::Histogram::mean)
                .unwrap_or(0.0),
            max: h
                .as_ref()
                .and_then(dlaas_obs::Histogram::max)
                .unwrap_or(0.0),
            per_job: sum / n as f64,
        }
    })
    .collect();
    let wait = m.histogram_merged(metrics::TENANT_ADMISSION_WAIT);
    let deploy = m.histogram(metrics::GUARDIAN_DEPLOY_SECONDS, &[]);
    let end = sim.now().saturating_duration_since(SimTime::ZERO);
    let run = Run {
        profile,
        seed,
        size,
        n,
        submitted: jobs.borrow().len() as u64,
        rejected: rejected.get(),
        completed,
        failed,
        unfinished,
        violations_during,
        final_violations,
        learner_restarts,
        api_submissions: m.counter_total(metrics::API_SUBMISSIONS),
        queued_submissions: m.counter_value(metrics::API_SUBMISSIONS, &[("outcome", "queued")]),
        guardians_created: m.counter_total(metrics::LCM_GUARDIANS_CREATED),
        guardian_rollbacks: m.counter_total(metrics::GUARDIAN_ROLLBACKS),
        deploy_p50_s: quantile(&deploy, 0.50),
        deploy_p95_s: quantile(&deploy, 0.95),
        stall_p95_s: quantile(&m.histogram(metrics::CHECKPOINT_STALL_SECONDS, &[]), 0.95),
        pod_restarts: m.counter_total("kube_pod_restarts_total"),
        checkpoint_writes: m.counter_total(metrics::CHECKPOINT_WRITES),
        checkpoint_restores: m.counter_total(metrics::CHECKPOINT_RESTORES),
        watch_events_total: m.counter_total("etcd_watch_events_total"),
        admission_waits: wait.as_ref().map_or(0, dlaas_obs::Histogram::count),
        admission_wait_mean_us: wait
            .as_ref()
            .and_then(dlaas_obs::Histogram::mean)
            .unwrap_or(0.0),
        admission_wait_p95_us: quantile(&wait, 0.95),
        tenants,
        series,
        events: sim.events_executed(),
        sim_secs: end.as_secs_f64(),
        wall_secs: wall.elapsed_secs(),
    };
    TrialRun {
        result: run,
        sim_elapsed: end,
    }
}

/// Runs `profile` for every seed in `base_seed..base_seed + seeds` and
/// every size, seed-major, on `threads` workers.
pub fn campaign(
    profile: Profile,
    base_seed: u64,
    seeds: u64,
    sizes: &[u64],
    lcm_replicas: Option<u32>,
    threads: usize,
) -> CampaignReport<Run> {
    let replicas = lcm_replicas.map_or(String::new(), |m| format!(" --lcm-replicas {m}"));
    let mut trials = Vec::new();
    for seed in base_seed..base_seed + seeds {
        for &size in sizes {
            trials.push(Trial {
                label: format!("{}/{seed}/{size}", profile.name()),
                repro: format!(
                    "cargo run --release -p dlaas-bench --bin soak -- --profile {}{replicas} \
                     {seed} {size} {}-repro.json",
                    profile.name(),
                    profile.name()
                ),
                spec: (seed, size),
            });
        }
    }
    // Anything an hour past the drain is a runaway.
    let budget = (sizes.iter().map(|&s| profile.phases(s)))
        .map(|(window, drain)| window + drain + SimDuration::from_hours(1))
        .max();
    CampaignRunner::new(profile.bench(), threads)
        .with_sim_budget(budget.unwrap_or(SimDuration::from_secs(0)))
        .run(trials, |&(seed, size)| {
            run(profile, seed, size, lcm_replicas)
        })
}

fn tenants_json(r: &Run) -> Json {
    Json::List(
        (r.tenants.iter())
            .map(|t| {
                Json::Line(fields([
                    ("tenant", text(&t.tenant)),
                    ("jobs", int(t.jobs)),
                    ("p50", f6(t.p50)),
                    ("p95", f6(t.p95)),
                    ("p99", f6(t.p99)),
                ]))
            })
            .collect(),
    )
}

fn run_json(r: &Run) -> Json {
    let series = |full: bool| {
        Json::Block(
            (r.series.iter())
                .map(|s| {
                    let kv = if full {
                        fields([
                            ("count", int(s.count)),
                            ("sum", f6(s.sum)),
                            ("mean", f6(s.mean)),
                            ("max", f6(s.max)),
                            ("per_job", f6(s.per_job)),
                        ])
                    } else {
                        fields([("sum", f6(s.sum)), ("per_job", f6(s.per_job))])
                    };
                    (s.name.to_owned(), Json::Line(kv))
                })
                .collect(),
        )
    };
    let outcome = [
        ("completed", int(r.completed)),
        ("failed", int(r.failed)),
        ("unfinished", int(r.unfinished)),
    ];
    Json::Block(match r.profile {
        Profile::Scale => [
            &fields([("n", int(r.n))])[..],
            &fields(outcome),
            &fields([
                ("watch_events_total", int(r.watch_events_total)),
                (
                    "events_per_sim_sec",
                    f6(r.watch_events_total as f64 / SCALE_HORIZON.as_secs_f64()),
                ),
                ("series", series(true)),
            ]),
        ]
        .concat(),
        Profile::Traffic => [
            &fields([("run", text(format!("n{}", r.n))), ("n", int(r.n))])[..],
            &fields(outcome),
            &fields([
                ("queued_submissions", int(r.queued_submissions)),
                ("admission_waits", int(r.admission_waits)),
                ("admission_wait_mean_us", f6(r.admission_wait_mean_us)),
                ("admission_wait_p95_us", f6(r.admission_wait_p95_us)),
                ("invariant_violations", int(r.violations())),
                ("events", int(r.events)),
                ("sim_secs", f6(r.sim_secs)),
                ("events_per_job", f6(r.events_per_job())),
                ("tenants", tenants_json(r)),
                ("series", series(false)),
            ]),
        ]
        .concat(),
        Profile::Chaos | Profile::Uniform => [
            &fields([
                ("run", text(r.workload_name())),
                ("seed", int(r.seed)),
                ("hours", int(r.size)),
                ("n", int(r.n)),
                ("submitted", int(r.submitted)),
                ("rejected", int(r.rejected)),
            ])[..],
            &fields(outcome),
            &fields([
                ("violations_during", int(r.violations_during)),
                ("violations_final", int(r.final_violations.len())),
                ("api_submissions", int(r.api_submissions)),
                ("guardians_created", int(r.guardians_created)),
                ("learner_restarts", int(r.learner_restarts)),
                ("pod_restarts", int(r.pod_restarts)),
                ("guardian_rollbacks", int(r.guardian_rollbacks)),
                ("checkpoint_writes", int(r.checkpoint_writes)),
                ("checkpoint_restores", int(r.checkpoint_restores)),
                ("deploy_p50_s", f6(r.deploy_p50_s)),
                ("deploy_p95_s", f6(r.deploy_p95_s)),
                ("checkpoint_stall_p95_s", f6(r.stall_p95_s)),
                ("events", int(r.events)),
                ("sim_secs", f6(r.sim_secs)),
                ("tenants", tenants_json(r)),
            ]),
        ]
        .concat(),
    })
}

/// The byte-stable artifact `BENCH_<profile>.json`: simulated data only,
/// fixed key order, fixed-precision floats.
pub fn render(profile: Profile, seed: u64, runs: &[&Run]) -> String {
    let (window, drain) = profile.phases(0);
    let timing = match profile {
        Profile::Scale => fields([("horizon_secs", f6(SCALE_HORIZON.as_secs_f64()))]),
        Profile::Traffic => fields([
            ("window_secs", f6(window.as_secs_f64())),
            ("drain_secs", f6(drain.as_secs_f64())),
        ]),
        Profile::Chaos | Profile::Uniform => fields([("drain_secs", f6(drain.as_secs_f64()))]),
    };
    let runs = Json::List(runs.iter().map(|r| run_json(r)).collect());
    let head = fields([("bench", text(profile.bench())), ("seed", int(seed))]);
    Json::Block([head, timing, fields([("runs", runs)])].concat()).render()
}

/// The wall-clock sidecar: one `workloads` entry per run.
pub fn render_wall(profile: Profile, seed: u64, runs: &[&Run]) -> String {
    let runs: Vec<EngineRun> = runs.iter().map(|r| r.engine_run()).collect();
    workloads_json(&format!("{}-wall", profile.bench()), seed, &runs)
}

/// Column headers of [`row`].
pub const COLUMNS: [&str; 12] = [
    "seed",
    "size",
    "done/failed/unfinished",
    "violations",
    "events/job",
    "p99 s",
    "queued",
    "restarts",
    "pod restarts",
    "fanout/job",
    "kick/job",
    "sweep/job",
];

/// One table row per run; `p99 s` is the first tenant's.
pub fn row(r: &Run) -> Vec<String> {
    let p99 = r.tenants.first().map_or(0.0, |t| t.p99);
    let mut row = vec![
        r.seed.to_string(),
        r.size.to_string(),
        format!("{}/{}/{}", r.completed, r.failed, r.unfinished),
        r.violations().to_string(),
        format!("{:.0}", r.events_per_job()),
        format!("{p99:.0}"),
        r.queued_submissions.to_string(),
        r.learner_restarts.to_string(),
        r.pod_restarts.to_string(),
    ];
    row.extend(r.series.iter().map(|s| format!("{:.2}", s.per_job)));
    row
}

/// The flat-curve criterion: per-job event cost and every work-count
/// series at the largest N within 2× of the smallest N (+1 guards
/// emptiness). Returns `(line, regressed)` pairs.
pub fn flat_curve(runs: &[&Run]) -> Vec<(String, bool)> {
    let (Some(lo), Some(hi)) = (
        runs.iter().min_by_key(|r| r.n),
        runs.iter().max_by_key(|r| r.n),
    ) else {
        return Vec::new();
    };
    let costs = std::iter::once(("events", lo.events_per_job(), hi.events_per_job()))
        .chain((lo.series.iter().zip(&hi.series)).map(|(a, b)| (a.name, a.per_job, b.per_job)));
    let costs = costs.filter(|_| lo.n < hi.n).map(|(name, a, b)| {
        let ratio = (b + 1.0) / (a + 1.0);
        let line = format!(
            "{name}: {a:.2}/job @ N={} vs {b:.2}/job @ N={} (×{ratio:.2})",
            lo.n, hi.n
        );
        (line, ratio > 2.0)
    });
    costs.collect()
}
