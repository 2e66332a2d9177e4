//! # dlaas-net — simulated datacenter network
//!
//! The communication substrate for the DLaaS reproduction, replacing the
//! real datacenter network + GRPC of the paper:
//!
//! * [`Net`] — typed message passing between named endpoints ([`Addr`])
//!   with modelled latency ([`LatencyModel`]), random loss, endpoint
//!   up/down state and partitions. Used by the Raft/etcd cluster.
//! * [`RpcLayer`] — request/response with deadlines, retries and
//!   service resolution, mirroring the GRPC calls between DLaaS
//!   microservices. [`RoundRobin`] is the standalone load balancer.
//! * [`SharedLink`] — serialized fixed-rate pipes for bulk transfers
//!   (training-data streaming, checkpoints), used by the object store.
//!
//! # Examples
//!
//! ```
//! use dlaas_net::{Addr, LatencyModel, Net};
//! use dlaas_sim::Sim;
//! use std::{cell::RefCell, rc::Rc};
//!
//! let mut sim = Sim::new(0);
//! let net: Net<&'static str> = Net::new(&mut sim, LatencyModel::datacenter());
//! let got = Rc::new(RefCell::new(Vec::new()));
//! let g = got.clone();
//! net.register(Addr::new("api"), move |_, env| {
//!     g.borrow_mut().push(format!("got {} from {}", env.msg, env.from));
//! });
//! net.send(&mut sim, Addr::new("client"), Addr::new("api"), "submit");
//! sim.run_until_idle();
//! assert_eq!(net.stats().delivered, 1);
//! assert_eq!(*got.borrow(), ["got submit from client"]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod addr;
mod latency;
mod link;
mod network;
mod rpc;

pub use addr::Addr;
pub use latency::LatencyModel;
pub use link::{speeds, SharedLink, Transfer};
pub use network::{Envelope, Net, NetStats};
pub use rpc::{Resolver, Responder, RoundRobin, RpcError, RpcFrame, RpcLayer};
