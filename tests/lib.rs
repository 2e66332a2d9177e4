//! Shared helpers for the cross-crate integration tests (the tests
//! themselves live in `tests/tests/`).

#![forbid(unsafe_code)]

use std::cell::RefCell;
use std::rc::Rc;

use dlaas_core::{DlaasClient, DlaasPlatform, JobId, Tenant, TrainingManifest};
use dlaas_gpu::{DlModel, Framework, GpuKind};
use dlaas_sim::Sim;

/// The standard test tenant's API key.
pub const KEY: &str = "itest-key";

/// Boots a default platform with a seeded tenant, dataset and results
/// bucket.
pub fn boot(seed: u64) -> (Sim, DlaasPlatform) {
    let mut sim = Sim::new(seed);
    let platform = DlaasPlatform::bootstrapped(&mut sim);
    platform
        .add_tenant(&Tenant::new("itest", KEY, 0))
        .expect("bootstrap tenant insert");
    platform.seed_dataset("itest-data", "d/", 2_000_000_000);
    platform.create_bucket("itest-results");
    (sim, platform)
}

/// A small single-learner manifest.
pub fn manifest(name: &str, iters: u64) -> TrainingManifest {
    TrainingManifest::builder(name)
        .framework(Framework::TensorFlow)
        .model(DlModel::Resnet50)
        .gpus(GpuKind::K80, 1)
        .learners(1)
        .data("itest-data", "d/", 2_000_000_000)
        .results("itest-results")
        .iterations(iters)
        .build()
        .expect("valid manifest")
}

/// Submits and waits (in simulated time) for the ACK.
pub fn submit_blocking(sim: &mut Sim, client: &DlaasClient, m: TrainingManifest) -> JobId {
    let got: Rc<RefCell<Option<Result<JobId, dlaas_core::ClientError>>>> =
        Rc::new(RefCell::new(None));
    let g = got.clone();
    client.submit(sim, m, move |_s, r| *g.borrow_mut() = Some(r));
    sim.run_until_pred(|_| got.borrow().is_some());
    let r = got.borrow().clone().expect("callback fired");
    r.expect("submission accepted")
}
