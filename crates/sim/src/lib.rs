//! # dlaas-sim — deterministic discrete-event simulation kernel
//!
//! Foundation of the DLaaS reproduction: every other crate in this
//! workspace (the simulated network, Raft/etcd, the Kubernetes simulator,
//! the DLaaS control plane) runs on this kernel.
//!
//! The kernel provides:
//!
//! * [`SimTime`] / [`SimDuration`] — integer-microsecond simulated time,
//! * [`Sim`] — the event loop: schedule closures at future instants,
//! * [`SimRng`] — seeded, forkable randomness (one seed ⇒ one execution).
//!
//! # Examples
//!
//! ```
//! use dlaas_sim::{Sim, SimDuration, SimTime};
//! use std::{cell::Cell, rc::Rc};
//!
//! let mut sim = Sim::new(7);
//! let done = Rc::new(Cell::new(0));
//!
//! // A tiny "service" that processes a request 10ms after receiving it.
//! let d = done.clone();
//! sim.schedule_in(SimDuration::from_millis(10), move |sim| {
//!     d.set(d.get() + 1);
//! });
//!
//! sim.run_until_idle();
//! assert_eq!(done.get(), 1);
//! assert_eq!(sim.now(), SimTime::from_millis(10));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod kernel;
mod rng;
mod time;

pub use kernel::{every, EventId, Sim, TimerHandle};
pub use rng::SimRng;
pub use time::{SimDuration, SimTime};

// Re-exported so downstream crates can instrument through `sim.metrics()`
// without adding their own dependency on the metrics crate.
pub use dlaas_obs::{
    default_buckets, CounterHandle, GaugeHandle, Histogram, HistogramHandle, LabelId, MetricKind,
    Registry, Snapshot, SnapshotDiff, Stopwatch,
};
