//! The Guardian: per-job atomic deployment and monitoring.
//!
//! "The LCM simply instantiates a component called the Guardian with all
//! the metadata of the DL job [as a K8s Job]. The Guardian then executes
//! the multi-step process of actually deploying the DL job […]. If the
//! Guardian crashes in the middle of a job deployment, K8S is guaranteed
//! to restart it. The restarted Guardian will roll back the previous
//! partially deployed DL job and starts a fresh deployment process. In
//! the presence of persistent failures, this process will be repeated for
//! a (configurable) number of times before the Guardian gives up and
//! marks the DL job in MongoDB as FAILED. Once a DL job is successfully
//! deployed, the Guardian is then responsible for monitoring its
//! progress." (§III-d)
//!
//! Instance state is deliberately all volatile: a restarted Guardian must
//! reconstruct everything from MongoDB (job record, attempt counter),
//! Kubernetes (existing resources) and etcd (learner statuses) — that is
//! exactly what makes the deployment atomic under crashes.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;

use dlaas_docstore::{Filter, Update, Value};
use dlaas_etcd::EtcdClient;
use dlaas_gpu::Framework;
use dlaas_kube::{
    labels, Cleanup, ContainerSpec, ImageRef, NetworkPolicy, PodSpec, ProcessCtx, Resources,
    RestartPolicy,
};
use dlaas_sim::{Sim, SimDuration};

use crate::handles::Handles;
use crate::job::{JobId, JobStatus, LearnerPhase};
use crate::lcm::teardown_job;
use crate::manifest::TrainingManifest;
use crate::mongo::{MetaClient, JOBS};
use crate::paths;

/// Image for a framework's learner container.
fn framework_image(f: Framework) -> ImageRef {
    ImageRef::new(format!("dlaas/{f}").to_lowercase(), f.image_bytes())
}

#[derive(Default)]
struct MonitorState {
    learners: BTreeMap<u32, LearnerPhase>,
    store: Option<String>,
    throughput: Option<f64>,
    progress: u64,
    restarts: u64,
    moved_processing: bool,
    moved_storing: bool,
    finished: bool,
    last_progress_written: u64,
    last_restarts_written: u64,
    last_learners_written: String,
    poll_round: u64,
}

struct Guardian {
    h: Handles,
    ctx: ProcessCtx,
    job: JobId,
    meta: MetaClient,
    etcd: EtcdClient,
    manifest: RefCell<Option<TrainingManifest>>,
    mon: RefCell<MonitorState>,
    /// Sim-time (µs) the current deployment attempt started, for the
    /// deploy-to-PROCESSING histogram. `None` while only monitoring.
    deploy_started_us: Cell<Option<u64>>,
    /// Owning tenant and submission stamp, loaded at boot — the
    /// per-tenant turnaround histogram is observed on the terminal
    /// transition this guardian applies.
    tenant: RefCell<Option<String>>,
    submitted_us: Cell<u64>,
}

/// Behavior factory for the Guardian container (arg = job id).
pub fn guardian_behavior(h: Handles, sim: &mut Sim, ctx: ProcessCtx) -> Cleanup {
    let job = JobId::new(ctx.arg.clone());
    let meta = h.meta(&ctx.pod);
    let etcd = h.etcd_client(&format!("{}#{}", ctx.pod, ctx.incarnation));
    let g = Rc::new(Guardian {
        h,
        ctx,
        job,
        meta,
        etcd,
        manifest: RefCell::new(None),
        mon: RefCell::new(MonitorState::default()),
        deploy_started_us: Cell::new(None),
        tenant: RefCell::new(None),
        submitted_us: Cell::new(0),
    });
    let etcd_for_cleanup = g.etcd.clone();
    g.clone().boot(sim);
    // Each incarnation creates a fresh etcd client; close it on exit or
    // the watch-net endpoint (and server-side watches) leak per restart.
    Box::new(move |sim| etcd_for_cleanup.close(sim))
}

impl Guardian {
    /// The manifest loaded at boot. A `None` here means the in-memory
    /// state was lost in a way the deploy steps cannot recover from
    /// (deploy steps only run after a successful boot load); instead of
    /// panicking the platform process — an unmodelled crash the invariant
    /// checker cannot attribute — the incarnation aborts and K8s restarts
    /// it, bounded by `deploy_max_attempts`.
    fn manifest_or_abort(self: &Rc<Self>, sim: &mut Sim) -> Option<TrainingManifest> {
        let m = self.manifest.borrow().clone();
        if m.is_none() {
            self.ctx.exit(sim, 1);
        }
        m
    }

    fn step_latency(&self) -> SimDuration {
        self.h.config.guardian_step_latency
    }

    fn alive(&self) -> bool {
        self.ctx.is_alive()
    }

    /// Phase 0: load the job record and decide what to do.
    fn boot(self: Rc<Self>, sim: &mut Sim) {
        let me = self.clone();
        let filter = Filter::eq("_id", self.job.as_str());
        self.meta
            .clone()
            .find_one(sim, JOBS, filter, move |sim, r| {
                if !me.alive() {
                    return;
                }
                let doc = match r {
                    Ok(Some(d)) => d,
                    Ok(None) => {
                        // No such job: nothing to guard. Exit non-zero so the
                        // K8s Job eventually gives up.
                        me.ctx.exit(sim, 1);
                        return;
                    }
                    Err(_) => {
                        me.ctx.exit(sim, 1);
                        return;
                    }
                };
                let status: JobStatus = doc
                    .path("status")
                    .and_then(Value::as_str)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or(JobStatus::Failed);
                *me.tenant.borrow_mut() = doc
                    .path("tenant")
                    .and_then(Value::as_str)
                    .map(str::to_owned);
                me.submitted_us.set(
                    doc.path("submitted_us")
                        .and_then(Value::as_i64)
                        .and_then(|us| u64::try_from(us).ok())
                        .unwrap_or(0),
                );
                let manifest = doc
                    .path("manifest")
                    .and_then(Value::as_str)
                    .and_then(|s| TrainingManifest::from_json(s).ok());
                let Some(manifest) = manifest else {
                    me.fail_job(sim);
                    return;
                };
                *me.manifest.borrow_mut() = Some(manifest);

                if status.is_terminal() {
                    // We restarted after the job ended: just make sure nothing
                    // is left behind.
                    teardown_job(sim, &me.h, &me.job, false);
                    me.ctx.exit(sim, 0);
                    return;
                }

                let deployed = me.resources_present();
                if matches!(status, JobStatus::Processing | JobStatus::Storing) && deployed {
                    // Crash during monitoring: resume monitoring only. The
                    // one-shot flags must be seeded from the persisted
                    // status, or this incarnation re-issues the PROCESSING/
                    // STORING transitions — harmless no-ops in Mongo, but
                    // the STORING path also puts store=go, which would
                    // clobber a store=done written while we were down and
                    // leave the job stuck in STORING forever.
                    {
                        let mut mon = me.mon.borrow_mut();
                        mon.moved_processing = status.rank() >= JobStatus::Processing.rank();
                        mon.moved_storing = status == JobStatus::Storing;
                    }
                    if status == JobStatus::Storing {
                        // The predecessor may have died between the STORING
                        // write and its store=go put. An expect-absent CAS
                        // fills that gap without ever overwriting a "go"
                        // (idempotent) or a "done" (the lost-completion
                        // hazard above).
                        me.etcd.cas(
                            sim,
                            paths::etcd_store(&me.job),
                            None,
                            Some("go".into()),
                            |_sim, _r| {},
                        );
                    }
                    me.start_monitoring(sim);
                    return;
                }

                // Fresh deployment (or retry after a mid-deploy crash).
                let attempts = doc.path("attempts").and_then(Value::as_i64).unwrap_or(0) as u32 + 1;
                let max = me.h.config.deploy_max_attempts;
                if attempts > max {
                    sim.metrics().inc(crate::metrics::GUARDIAN_GAVE_UP, &[]);
                    me.fail_job(sim);
                    return;
                }
                let me2 = me.clone();
                let filter = Filter::eq("_id", me.job.as_str());
                me.meta.clone().update_one(
                    sim,
                    JOBS,
                    filter,
                    Update::inc("attempts", 1),
                    move |sim, r| {
                        if !me2.alive() {
                            return;
                        }
                        if !matches!(r, Ok(true)) {
                            // The attempt was not durably recorded. Deploying
                            // anyway would let a crash-loop retry without ever
                            // advancing the counter — the paper's bounded
                            // retry guarantee ("for a configurable number of
                            // times", §III-d) rests on this write. Abort and
                            // let K8s restart us against a healthy store.
                            me2.ctx.exit(sim, 1);
                            return;
                        }
                        sim.metrics()
                            .inc(crate::metrics::GUARDIAN_DEPLOY_ATTEMPTS, &[]);
                        // The first attempt has nothing to roll back; only
                        // retries after a mid-deploy crash count.
                        if attempts > 1 {
                            sim.metrics().inc(crate::metrics::GUARDIAN_ROLLBACKS, &[]);
                        }
                        me2.rollback_then_deploy(sim);
                    },
                );
            });
    }

    /// `true` when the job's learner pods exist in the cluster.
    fn resources_present(&self) -> bool {
        !self
            .h
            .kube
            .pods_matching(&labels! {"job" => self.job.as_str(), "role" => "learner"})
            .is_empty()
    }

    /// Records the per-tenant turnaround histogram: submission → terminal
    /// status, queue wait included. Called only on an *applied* terminal
    /// transition (`advance_status` returned true), so racing guardian
    /// incarnations observe each job exactly once.
    fn observe_turnaround(&self, sim: &mut Sim) {
        let Some(tenant) = self.tenant.borrow().clone() else {
            return;
        };
        let elapsed_us = sim
            .now()
            .as_micros()
            .saturating_sub(self.submitted_us.get());
        sim.metrics().observe(
            crate::metrics::TENANT_JOB_TURNAROUND,
            &[("tenant", &tenant)],
            elapsed_us as f64 / 1e6,
        );
    }

    /// Marks the job FAILED, tears everything down and exits cleanly (so
    /// the K8s Job stops retrying us).
    fn fail_job(self: &Rc<Self>, sim: &mut Sim) {
        sim.metrics().inc(crate::metrics::GUARDIAN_JOBS_FAILED, &[]);
        let me = self.clone();
        self.meta
            .clone()
            .advance_status(sim, &self.job, JobStatus::Failed, move |sim, r| {
                if matches!(r, Ok(true)) {
                    me.observe_turnaround(sim);
                }
                teardown_job(sim, &me.h, &me.job, false);
                me.ctx.exit(sim, 0);
            });
    }

    /// Step 1: delete any partially deployed resources of a previous
    /// attempt, then run the deployment steps.
    fn rollback_then_deploy(self: Rc<Self>, sim: &mut Sim) {
        self.deploy_started_us.set(Some(sim.now().as_micros()));
        teardown_job(sim, &self.h, &self.job, false);
        let me = self.clone();
        sim.schedule_in(self.step_latency(), move |sim| {
            if me.alive() {
                me.step_mark_deploying(sim);
            }
        });
    }

    /// Step 2: record DEPLOYING (with timestamp) in the metadata store.
    fn step_mark_deploying(self: Rc<Self>, sim: &mut Sim) {
        let me = self.clone();
        self.meta
            .clone()
            .advance_status(sim, &self.job, JobStatus::Deploying, move |sim, _r| {
                if !me.alive() {
                    return;
                }
                let me2 = me.clone();
                sim.schedule_in(me.step_latency(), move |sim| {
                    if me2.alive() {
                        me2.step_provision_volume(sim);
                    }
                });
            });
    }

    /// Step 3: provision the shared NFS volume (the persistent volume
    /// claim) and drop the job spec on it for learners and helpers.
    fn step_provision_volume(self: Rc<Self>, sim: &mut Sim) {
        let vol = self.h.nfs.create_volume(paths::volume(&self.job));
        let Some(manifest) = self.manifest_or_abort(sim) else {
            return;
        };
        let staged = self
            .h
            .nfs
            .mount(&vol)
            .and_then(|mount| mount.write_file(paths::NFS_JOBSPEC, manifest.to_json()));
        if staged.is_err() {
            // NFS outage window: abort this incarnation instead of
            // panicking. K8s restarts us and the retry is bounded by
            // deploy_max_attempts like every other mid-deploy failure.
            self.ctx.exit(sim, 1);
            return;
        }
        let me = self.clone();
        sim.schedule_in(self.step_latency(), move |sim| {
            if me.alive() {
                me.step_create_helper(sim);
            }
        });
    }

    /// Step 4: create the helper Deployment (controller, load-data,
    /// log-collector, store-results sharing one pod).
    fn step_create_helper(self: Rc<Self>, sim: &mut Sim) {
        let job = self.job.as_str();
        let cold = self.h.config.helper_cold_start;
        let image = ImageRef::microservice("dlaas/helper");
        let container = |name: &str, behavior: &str| {
            ContainerSpec::new(name, image.clone(), behavior)
                .with_arg(job)
                .with_cold_start(cold)
        };
        let pod = PodSpec::new("unused", container("controller", "controller"))
            .with_container(container("load-data", "load-data"))
            .with_container(container("log-collector", "log-collector"))
            .with_container(container("store-results", "store-results"))
            .with_labels(labels! {"role" => "helper", "job" => job})
            .with_resources(Resources::new(1000, 2048, 0), None)
            .with_volume(paths::volume(&self.job));
        self.h
            .kube
            .create_deployment(sim, &paths::helper_deployment(&self.job), 1, pod);
        let me = self.clone();
        sim.schedule_in(self.step_latency(), move |sim| {
            if me.alive() {
                me.step_create_learners(sim);
            }
        });
    }

    /// Step 5: create the learner StatefulSet.
    fn step_create_learners(self: Rc<Self>, sim: &mut Sim) {
        let Some(manifest) = self.manifest_or_abort(sim) else {
            return;
        };
        let job = self.job.as_str();
        let pod = PodSpec::new(
            "unused",
            ContainerSpec::new("learner", framework_image(manifest.framework), "learner")
                .with_arg(job)
                .with_cold_start(SimDuration::from_secs_f64(
                    manifest.framework.cold_start_secs(),
                )),
        )
        .with_labels(labels! {"role" => "learner", "job" => job})
        .with_resources(
            Resources::new(4000, 16384, manifest.gpus_per_learner),
            Some(manifest.gpu_kind),
        )
        .with_volume(paths::volume(&self.job))
        .with_object_store_binding()
        .with_restart_policy(RestartPolicy::Always);
        self.h
            .kube
            .create_statefulset(sim, &paths::learner_set(&self.job), manifest.learners, pod);
        let me = self.clone();
        sim.schedule_in(self.step_latency(), move |sim| {
            if me.alive() {
                me.step_apply_policies(sim);
            }
        });
    }

    /// Step 6: isolate the learners (multi-tenancy, §II): no traffic to
    /// core services and no traffic to other jobs' learners.
    fn step_apply_policies(self: Rc<Self>, sim: &mut Sim) {
        let job = self.job.as_str();
        let name = paths::network_policy(&self.job);
        self.h.kube.add_network_policy(NetworkPolicy {
            name: name.clone(),
            from: labels! {"role" => "learner", "job" => job},
            to: labels! {"role" => "core"},
            to_services: vec![
                crate::handles::API_SERVICE.into(),
                crate::handles::LCM_SERVICE.into(),
                "mongodb".into(),
                "etcd".into(),
            ],
            exempt_same: None,
        });
        self.h.kube.add_network_policy(NetworkPolicy {
            name,
            from: labels! {"role" => "learner", "job" => job},
            to: labels! {"role" => "learner"},
            to_services: vec![],
            exempt_same: Some("job".into()),
        });
        let me = self.clone();
        sim.schedule_in(self.step_latency(), move |sim| {
            if me.alive() {
                me.start_monitoring(sim);
            }
        });
    }

    /// Monitoring: etcd watch for fast reaction + periodic poll as the
    /// backstop (and for kill detection via the metadata store).
    fn start_monitoring(self: Rc<Self>, sim: &mut Sim) {
        let prefix = paths::etcd_learners_prefix(&self.job);
        let me = self.clone();
        // dlaas-lint: allow(resource-leak): the watch is scoped to this incarnation's private etcd client, and the guardian's cleanup hook closes that client on exit/kill, cancelling every watch registered on it
        self.etcd.watch_prefix(sim, prefix, move |sim, ev| {
            if !me.alive() {
                return;
            }
            if let dlaas_etcd::KvEvent::Put { key, value, .. } = ev {
                if let Some(ord) = key.rsplit('/').next().and_then(|s| s.parse::<u32>().ok()) {
                    if let Ok(phase) = value.parse::<LearnerPhase>() {
                        me.mon.borrow_mut().learners.insert(ord, phase);
                    }
                }
            }
            let me2 = me.clone();
            sim.defer(move |sim| me2.aggregate(sim));
        });

        let me = self.clone();
        let alive = self.ctx.alive_flag();
        dlaas_sim::every(sim, self.h.config.guardian_poll, move |sim, _n| {
            if !alive.get() || me.mon.borrow().finished {
                return false;
            }
            me.poll(sim);
            true
        });
    }

    /// One poll round: refresh the job's etcd snapshot and check for
    /// user-initiated termination.
    fn poll(self: &Rc<Self>, sim: &mut Sim) {
        // etcd watch registries are volatile on the servers; re-register
        // periodically so notifications resume promptly after an etcd
        // node restart (polling already guarantees eventual progress).
        {
            let mut mon = self.mon.borrow_mut();
            mon.poll_round += 1;
            let due = mon.poll_round.is_multiple_of(15);
            drop(mon);
            if due {
                self.etcd.rewatch(sim);
            }
        }
        let me = self.clone();
        let prefix = paths::etcd_job_prefix(&self.job);
        self.etcd.get_prefix(sim, prefix, move |sim, r| {
            if !me.alive() {
                return;
            }
            let Ok(pairs) = r else { return };
            {
                let mut mon = me.mon.borrow_mut();
                for (key, value) in &pairs {
                    if let Some(ord) = key
                        .strip_prefix(&paths::etcd_learners_prefix(&me.job))
                        .and_then(|s| s.parse::<u32>().ok())
                    {
                        if let Ok(phase) = value.parse::<LearnerPhase>() {
                            mon.learners.insert(ord, phase);
                        }
                    } else if *key == paths::etcd_store(&me.job) {
                        mon.store = Some(value.clone());
                    } else if *key == paths::etcd_progress(&me.job) {
                        mon.progress = value.parse().unwrap_or(mon.progress);
                    } else if *key == paths::etcd_restarts(&me.job) {
                        mon.restarts = value.parse().unwrap_or(mon.restarts);
                    } else if *key == paths::etcd_throughput(&me.job) {
                        mon.throughput = value.parse().ok();
                    }
                }
            }
            me.push_progress(sim);
            me.aggregate(sim);
        });

        // Kill detection: the LCM marks the job KILLED and tears down; a
        // monitoring Guardian must notice and exit.
        let me = self.clone();
        let filter = Filter::eq("_id", self.job.as_str());
        self.meta
            .clone()
            .find_one(sim, JOBS, filter, move |sim, r| {
                if !me.alive() || me.mon.borrow().finished {
                    return;
                }
                if let Ok(Some(doc)) = r {
                    let status: Option<JobStatus> = doc
                        .path("status")
                        .and_then(Value::as_str)
                        .and_then(|s| s.parse().ok());
                    if status.is_some_and(super::job::JobStatus::is_terminal) {
                        me.mon.borrow_mut().finished = true;
                        me.ctx.exit(sim, 0);
                    }
                }
            });
    }

    /// Mirrors progress/restart counters into the metadata store so users
    /// can see them through the API.
    fn push_progress(self: &Rc<Self>, sim: &mut Sim) {
        let (progress, restarts, learners_doc, dirty) = {
            let mut mon = self.mon.borrow_mut();
            // Mirror the per-learner phases so users can inspect each
            // learner through the API while the job runs.
            let mut learners_doc = std::collections::BTreeMap::new();
            for (ord, phase) in &mon.learners {
                learners_doc.insert(ord.to_string(), Value::from(phase.to_string()));
            }
            let learners_repr = format!("{learners_doc:?}");
            let dirty = mon.progress != mon.last_progress_written
                || mon.restarts != mon.last_restarts_written
                || learners_repr != mon.last_learners_written;
            mon.last_progress_written = mon.progress;
            mon.last_restarts_written = mon.restarts;
            mon.last_learners_written = learners_repr;
            (mon.progress, mon.restarts, learners_doc, dirty)
        };
        if !dirty {
            return;
        }
        let filter = Filter::eq("_id", self.job.as_str());
        let update = Update::Many(vec![
            Update::set("iteration", progress as i64),
            Update::set("learner_restarts", restarts as i64),
            Update::set("learners", Value::Obj(learners_doc)),
        ]);
        self.meta
            .clone()
            .update_one(sim, JOBS, filter, update, |_sim, _r| {});
    }

    /// The aggregation rules of §III-f: per-learner statuses in etcd are
    /// folded into the single job status in MongoDB.
    fn aggregate(self: &Rc<Self>, sim: &mut Sim) {
        let manifest_learners = self
            .manifest
            .borrow()
            .as_ref()
            .map(|m| m.learners)
            .unwrap_or(0);
        enum Act {
            None,
            Fail,
            Processing,
            Storing,
            Complete(Option<f64>),
        }
        let act = {
            let mut mon = self.mon.borrow_mut();
            if mon.finished {
                Act::None
            } else if mon
                .learners
                .values()
                .any(super::job::LearnerPhase::is_failed)
            {
                mon.finished = true;
                Act::Fail
            } else if mon.store.as_deref() == Some("done") {
                mon.finished = true;
                Act::Complete(mon.throughput)
            } else if mon.learners.len() == manifest_learners as usize
                && mon
                    .learners
                    .values()
                    .all(super::job::LearnerPhase::is_completed)
            {
                if mon.moved_storing {
                    Act::None
                } else {
                    mon.moved_storing = true;
                    Act::Storing
                }
            } else if mon
                .learners
                .values()
                .any(|p| matches!(p, LearnerPhase::Processing { .. }))
                && !mon.moved_processing
            {
                mon.moved_processing = true;
                Act::Processing
            } else {
                Act::None
            }
        };
        match act {
            Act::None => {}
            Act::Fail => {
                self.fail_job(sim);
            }
            Act::Processing => {
                if let Some(started_us) = self.deploy_started_us.take() {
                    let elapsed = sim.now().as_micros().saturating_sub(started_us);
                    sim.metrics().observe_duration_us(
                        crate::metrics::GUARDIAN_DEPLOY_SECONDS,
                        &[],
                        elapsed,
                    );
                }
                self.meta.clone().advance_status(
                    sim,
                    &self.job,
                    JobStatus::Processing,
                    |_sim, _r| {},
                );
            }
            Act::Storing => {
                let me = self.clone();
                self.meta.clone().advance_status(
                    sim,
                    &self.job,
                    JobStatus::Storing,
                    move |sim, _r| {
                        // Expect-absent CAS: never clobber an existing
                        // "go"/"done" written by a predecessor incarnation.
                        me.etcd.cas(
                            sim,
                            paths::etcd_store(&me.job),
                            None,
                            Some("go".into()),
                            |_sim, _r| {},
                        );
                    },
                );
            }
            Act::Complete(throughput) => {
                sim.metrics()
                    .inc(crate::metrics::GUARDIAN_JOBS_COMPLETED, &[]);
                let me = self.clone();
                let filter = Filter::eq("_id", self.job.as_str());
                let update = Update::set(
                    "images_per_sec",
                    throughput.map(Value::from).unwrap_or(Value::Null),
                );
                self.meta
                    .clone()
                    .update_one(sim, JOBS, filter, update, move |sim, _r| {
                        let me2 = me.clone();
                        me.meta.clone().advance_status(
                            sim,
                            &me.job,
                            JobStatus::Completed,
                            move |sim, r| {
                                if matches!(r, Ok(true)) {
                                    me2.observe_turnaround(sim);
                                }
                                teardown_job(sim, &me2.h, &me2.job, false);
                                me2.ctx.exit(sim, 0);
                            },
                        );
                    });
            }
        }
    }
}
