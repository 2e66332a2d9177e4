//! The helper pod's containers.
//!
//! "For each DL job, the Guardian also creates a separate helper K8S pod
//! […] which contains a number of 'helper' containers – load-data, log
//! collector, store-results, and controller. The helper pod remains
//! isolated from the learner pods, but both share a common NFS
//! filesystem […]. The shared NFS volume enables the controller container
//! […] to monitor the execution and exit status of the learner processes"
//! (§III-e). The controller then records per-learner status in etcd
//! (§III-f), from where the Guardian aggregates it.
//!
//! Every helper is stateless across restarts: all coordination state
//! lives on the NFS volume (markers, counters, exit files) or in etcd, so
//! a restarted helper picks up exactly where its predecessor died.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use dlaas_kube::{Cleanup, ProcessCtx};
use dlaas_objstore::ObjectBody;
use dlaas_sharedfs::Mount;
use dlaas_sim::{Sim, SimDuration};

use crate::handles::Handles;
use crate::job::{JobId, LearnerPhase};
use crate::manifest::TrainingManifest;
use crate::paths;

/// Shared bootstrap: mount the job volume and read the jobspec, retrying
/// until the Guardian has provisioned both. Calls `ready` once available;
/// gives up silently when the process dies or the volume disappears for
/// good (job torn down).
fn with_jobspec(
    h: &Handles,
    sim: &mut Sim,
    ctx: &ProcessCtx,
    ready: impl FnOnce(&mut Sim, Mount, TrainingManifest) + 'static,
) {
    let h = h.clone();
    let ctx = ctx.clone();
    let job = JobId::new(ctx.arg.clone());
    try_bootstrap(h, sim, ctx, job, ready, 0);
}

#[allow(clippy::only_used_in_recursion)]
fn try_bootstrap(
    h: Handles,
    sim: &mut Sim,
    ctx: ProcessCtx,
    job: JobId,
    ready: impl FnOnce(&mut Sim, Mount, TrainingManifest) + 'static,
    attempt: u32,
) {
    if !ctx.is_alive() {
        return;
    }
    let volume = h.nfs.find_volume(&paths::volume(&job));
    if let Some(vol) = volume {
        if let Ok(mount) = h.nfs.mount(&vol) {
            if let Ok(spec) = mount.read_file(paths::NFS_JOBSPEC) {
                if let Ok(manifest) = TrainingManifest::from_json(&spec) {
                    ready(sim, mount, manifest);
                    return;
                }
            }
        }
    }
    if attempt > 600 {
        return;
    }
    sim.schedule_in(SimDuration::from_millis(500), move |sim| {
        try_bootstrap(h, sim, ctx, job, ready, attempt + 1);
    });
}

// ----------------------------------------------------------------------
// controller
// ----------------------------------------------------------------------

#[derive(Default)]
struct ControllerState {
    /// Last status string written to etcd per learner (dedup).
    written: BTreeMap<u32, String>,
    data_announced: bool,
    progress_written: u64,
    restarts_written: u64,
    throughput_written: bool,
    store_go_written: bool,
    store_done_written: bool,
}

/// Behavior factory for the controller container (arg = job id).
pub fn controller_behavior(h: Handles, sim: &mut Sim, ctx: ProcessCtx) -> Cleanup {
    let job = JobId::new(ctx.arg.clone());
    let etcd = h.etcd_client(&format!(
        "{}/{}#{}",
        ctx.pod, ctx.container, ctx.incarnation
    ));
    let poll = h.config.controller_poll;
    let max_failures = h.config.learner_max_failures;
    let ctx2 = ctx.clone();
    let etcd_for_cleanup = etcd.clone();
    with_jobspec(&h, sim, &ctx, move |sim, mount, manifest| {
        let state = Rc::new(RefCell::new(ControllerState::default()));
        let alive = ctx2.alive_flag();
        dlaas_sim::every(sim, poll, move |sim, _n| {
            if !alive.get() {
                return false;
            }
            controller_tick(sim, &etcd, &mount, &manifest, &job, &state, max_failures);
            true
        });
    });
    // Per-incarnation etcd client: close on exit or its watch-net
    // endpoint leaks per controller restart.
    Box::new(move |sim| etcd_for_cleanup.close(sim))
}

#[allow(clippy::too_many_arguments)]
fn controller_tick(
    sim: &mut Sim,
    etcd: &dlaas_etcd::EtcdClient,
    mount: &Mount,
    manifest: &TrainingManifest,
    job: &JobId,
    state: &Rc<RefCell<ControllerState>>,
    max_failures: u32,
) {
    // Data-loaded marker → etcd. The flag only stays set when the put
    // succeeded; an etcd outage re-arms it for the next tick.
    if mount.exists(paths::NFS_DATA_LOADED) && !state.borrow().data_announced {
        state.borrow_mut().data_announced = true;
        let state2 = state.clone();
        etcd.put(sim, paths::etcd_data(job), "loaded", move |_s, r| {
            if r.is_err() {
                state2.borrow_mut().data_announced = false;
            }
        });
    }

    let mut progress: u64 = 0;
    let mut restarts_total: u64 = 0;
    let mut all_completed = true;

    for ord in 0..manifest.learners {
        // Restart counter (maintained by the learner on NFS, so it
        // survives both learner and controller crashes).
        let starts: u64 = mount
            .read_file(&paths::nfs_learner_restarts(ord))
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(0);
        restarts_total += starts.saturating_sub(1);

        // Determine the learner's phase from its files.
        let mut phase: Option<LearnerPhase> = mount
            .read_file(&paths::nfs_learner_status(ord))
            .ok()
            .and_then(|s| s.parse().ok());
        if let Ok(exit) = mount.read_file(&paths::nfs_learner_exit(ord)) {
            if exit == "0" {
                phase = Some(LearnerPhase::Completed);
            }
        }
        // The restart budget: every start beyond the first is a recovery
        // from some failure (orderly or crash). Exhausting the budget is a
        // permanent failure the Guardian turns into a FAILED job.
        if starts > max_failures as u64 && !matches!(phase, Some(LearnerPhase::Completed)) {
            phase = Some(LearnerPhase::Failed);
        }
        let phase = phase.unwrap_or(LearnerPhase::Downloading);
        if let Some(iter) = phase.iteration() {
            progress = progress.max(iter);
        }
        if phase.is_completed() {
            progress = progress.max(manifest.iterations);
        } else {
            all_completed = false;
        }

        // Record in etcd (deduplicated — puts are idempotent anyway). On
        // failure the dedup entry is dropped so the next tick retries.
        let s = phase.to_string();
        let stale = state.borrow().written.get(&ord) != Some(&s);
        if stale {
            state.borrow_mut().written.insert(ord, s.clone());
            let state2 = state.clone();
            etcd.put(sim, paths::etcd_learner(job, ord), s, move |_s, r| {
                if r.is_err() {
                    state2.borrow_mut().written.remove(&ord);
                }
            });
        }
    }

    // Aggregate progress / restart counters.
    {
        let mut st = state.borrow_mut();
        if progress != st.progress_written {
            st.progress_written = progress;
            etcd.put(
                sim,
                paths::etcd_progress(job),
                progress.to_string(),
                |_s, _r| {},
            );
        }
        if restarts_total != st.restarts_written {
            st.restarts_written = restarts_total;
            etcd.put(
                sim,
                paths::etcd_restarts(job),
                restarts_total.to_string(),
                |_s, _r| {},
            );
        }
    }

    // Once every learner reports its measured throughput, publish the sum.
    if all_completed && !state.borrow().throughput_written {
        let mut sum = 0.0;
        let mut have_all = true;
        for ord in 0..manifest.learners {
            match mount
                .read_file(&paths::nfs_learner_throughput(ord))
                .ok()
                .and_then(|s| s.parse::<f64>().ok())
            {
                Some(v) => sum += v,
                None => have_all = false,
            }
        }
        if have_all {
            state.borrow_mut().throughput_written = true;
            etcd.put(
                sim,
                paths::etcd_throughput(job),
                format!("{sum}"),
                |_s, _r| {},
            );
        }
    }

    // Store-results coordination: Guardian writes "go" in etcd; we relay
    // it to NFS for the store-results container, and relay its completion
    // marker back to etcd.
    if mount.exists(paths::NFS_STORE_DONE) {
        if !state.borrow().store_done_written {
            state.borrow_mut().store_done_written = true;
            let state2 = state.clone();
            etcd.put(sim, paths::etcd_store(job), "done", move |_s, r| {
                if r.is_err() {
                    // Re-arm: without the "done" relay the Guardian never
                    // completes the job.
                    state2.borrow_mut().store_done_written = false;
                }
            });
        }
        return;
    }
    if !state.borrow().store_go_written {
        let mount2 = mount.clone();
        let state2 = state.clone();
        etcd.get(sim, paths::etcd_store(job), move |_sim, r| {
            if let Ok(Some(v)) = r {
                // Only latch the flag once the NFS write landed; during an
                // NFS outage window the next tick retries the relay.
                if v == "go"
                    && !state2.borrow().store_go_written
                    && mount2.write_file(paths::NFS_STORE_GO, "go").is_ok()
                {
                    state2.borrow_mut().store_go_written = true;
                }
            }
        });
    }
}

// ----------------------------------------------------------------------
// load-data
// ----------------------------------------------------------------------

/// Behavior factory for the load-data container: stages the training data
/// from the object store onto the shared volume, exactly once per job.
pub fn load_data_behavior(h: Handles, sim: &mut Sim, ctx: ProcessCtx) -> Cleanup {
    let ctx2 = ctx.clone();
    let h2 = h.clone();
    with_jobspec(&h, sim, &ctx, move |sim, mount, manifest| {
        if mount.exists(paths::NFS_DATA_LOADED) {
            ctx2.exit(sim, 0);
            return;
        }
        download_data(h2, sim, ctx2, mount, manifest, 0);
    });
    Box::new(|_sim| {})
}

#[allow(clippy::only_used_in_recursion)]
fn download_data(
    h: Handles,
    sim: &mut Sim,
    ctx: ProcessCtx,
    mount: Mount,
    manifest: TrainingManifest,
    attempt: u32,
) {
    if !ctx.is_alive() {
        return;
    }
    let nic = ctx.nic.clone();
    let ctx2 = ctx.clone();
    h.objstore.clone().get(
        sim,
        manifest.data_bucket.clone(),
        paths::obj_dataset(&manifest.data_prefix),
        Some(&nic),
        move |sim, r| {
            if !ctx2.is_alive() {
                return;
            }
            // Exiting 0 without the marker on NFS would strand the job:
            // the controller would never announce data-loaded. Treat a
            // failed marker write (NFS outage) like a failed fetch.
            match r {
                Ok(_) if mount.write_file(paths::NFS_DATA_LOADED, "loaded").is_ok() => {
                    sim.metrics().inc(crate::metrics::DATA_STAGED, &[]);
                    ctx2.exit(sim, 0);
                }
                _ => {
                    sim.schedule_in(SimDuration::from_secs(5), move |sim| {
                        download_data(h, sim, ctx2, mount, manifest, attempt + 1);
                    });
                }
            }
        },
    );
}

// ----------------------------------------------------------------------
// log-collector
// ----------------------------------------------------------------------

/// Behavior factory for the log-collector container: tails learner logs
/// on NFS and mirrors them to the object store, "irrespective of the
/// stage [the job] is in, even if it crashes/fails" (§II).
pub fn log_collector_behavior(h: Handles, sim: &mut Sim, ctx: ProcessCtx) -> Cleanup {
    let job = JobId::new(ctx.arg.clone());
    let flush = h.config.log_flush;
    let objstore = h.objstore.clone();
    let ctx2 = ctx.clone();
    with_jobspec(&h, sim, &ctx, move |sim, mount, manifest| {
        // lines already uploaded per learner (in-memory: a restart simply
        // re-uploads from scratch, which is idempotent).
        let uploaded: Rc<RefCell<BTreeMap<u32, usize>>> = Rc::new(RefCell::new(BTreeMap::new()));
        let alive = ctx2.alive_flag();
        let nic = ctx2.nic.clone();
        dlaas_sim::every(sim, flush, move |sim, _n| {
            if !alive.get() {
                return false;
            }
            for ord in 0..manifest.learners {
                let path = paths::nfs_learner_log(ord);
                let have = mount.line_count(&path);
                let done = uploaded.borrow().get(&ord).copied().unwrap_or(0);
                if have > done {
                    let Ok(lines) = mount.read_lines_from(&path, 0) else {
                        continue;
                    };
                    uploaded.borrow_mut().insert(ord, have);
                    objstore.put(
                        sim,
                        manifest.results_bucket.clone(),
                        paths::obj_log(&job, ord),
                        ObjectBody::Text(lines.join("\n")),
                        Some(&nic),
                        |_sim, _r| {},
                    );
                }
            }
            true
        });
    });
    Box::new(|_sim| {})
}

// ----------------------------------------------------------------------
// store-results
// ----------------------------------------------------------------------

/// Behavior factory for the store-results container: when the controller
/// signals (on behalf of the Guardian), uploads the trained model to the
/// object store and marks completion on NFS.
pub fn store_results_behavior(h: Handles, sim: &mut Sim, ctx: ProcessCtx) -> Cleanup {
    let job = JobId::new(ctx.arg.clone());
    let objstore = h.objstore.clone();
    let ctx2 = ctx.clone();
    with_jobspec(&h, sim, &ctx, move |sim, mount, manifest| {
        if mount.exists(paths::NFS_STORE_DONE) {
            ctx2.exit(sim, 0);
            return;
        }
        let alive = ctx2.alive_flag();
        let busy = Rc::new(std::cell::Cell::new(false));
        let nic = ctx2.nic.clone();
        dlaas_sim::every(sim, SimDuration::from_millis(1000), move |sim, _n| {
            if !alive.get() {
                return false;
            }
            if busy.get() || !mount.exists(paths::NFS_STORE_GO) {
                return true;
            }
            busy.set(true);
            let bytes = dlaas_gpu::checkpoint_bytes(manifest.model);
            let mount2 = mount.clone();
            let ctx3 = ctx2.clone();
            let busy2 = busy.clone();
            objstore.put(
                sim,
                manifest.results_bucket.clone(),
                paths::obj_result_model(&job),
                ObjectBody::Synthetic(bytes),
                Some(&nic),
                move |sim, r| {
                    if !ctx3.is_alive() {
                        return;
                    }
                    // Exiting 0 without the done marker would wedge the job
                    // in STORING forever; during an NFS outage keep the
                    // timer alive and retry (the upload is idempotent).
                    match r {
                        Ok(()) if mount2.write_file(paths::NFS_STORE_DONE, "done").is_ok() => {
                            sim.metrics().inc(crate::metrics::RESULTS_STORED, &[]);
                            ctx3.exit(sim, 0);
                        }
                        _ => {
                            busy2.set(false); // timer retries on a later tick
                        }
                    }
                },
            );
            true // keep ticking; exit (alive = false) is what stops us
        });
    });
    Box::new(|_sim| {})
}
