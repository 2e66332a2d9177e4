//! # dlaas-faults — fault injection & recovery measurement
//!
//! The paper produced its Fig. 4 by "manually crashing various components
//! (using the kubectl tool of K8S) and measuring time taken for the
//! component to restart". This crate is that experiment, scripted:
//!
//! * [`FaultAction`] / [`FaultPlan`] — deterministic schedules of pod and
//!   node faults applied to a [`Kube`] cluster,
//! * [`when`] — a one-shot trigger that fires a fault the moment a
//!   predicate over the live state becomes true (step-targeted crashes),
//! * [`partition_window`] / [`latency_window`] / [`nfs_outage_window`] —
//!   timed substrate degradations that repair themselves,
//! * [`measure_recovery`] — a stopwatch from fault to a recovery
//!   predicate becoming true,
//! * [`ChaosMonkey`] — probabilistic recurring faults against pods
//!   matching a label selector (for soak/property tests),
//! * [`RecoveryStats`] — min/mean/max aggregation across trials.
//!
//! # Examples
//!
//! ```
//! use dlaas_faults::measure_recovery;
//! use dlaas_kube::{BehaviorRegistry, ContainerSpec, ImageRef, Kube, KubeConfig, NodeSpec,
//!                  PodPhase, PodSpec};
//! use dlaas_sim::{Sim, SimDuration};
//!
//! let mut sim = Sim::new(1);
//! let registry = BehaviorRegistry::new();
//! registry.register_noop("pause");
//! let kube = Kube::new(&mut sim, KubeConfig::default(), registry);
//! kube.add_node(NodeSpec::cpu("n1", 8000, 32768));
//! kube.create_deployment(&mut sim, "api", 1,
//!     PodSpec::new("api", ContainerSpec::new("m", ImageRef::microservice("api"), "pause")));
//! sim.run_for(SimDuration::from_secs(10));
//!
//! let k = kube.clone();
//! let k2 = kube.clone();
//! let recovery = measure_recovery(
//!     &mut sim,
//!     move |sim| { k.delete_pod(sim, "api-0"); },
//!     move |sim| k2.pod_ready(sim, "api-0"),
//!     SimDuration::from_secs(60),
//! ).expect("pod must recover");
//! assert!(recovery < SimDuration::from_secs(10));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;

use dlaas_kube::{Kube, Labels, PodPhase};
use dlaas_net::{Addr, LatencyModel, Net};
use dlaas_sharedfs::NfsServer;
use dlaas_sim::{Sim, SimDuration, SimRng, SimTime, TimerHandle};

/// One injectable fault.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultAction {
    /// Crash a pod's processes (kubelet restarts it in place).
    CrashPod(String),
    /// Delete a pod (`kubectl delete pod`; owner recreates it).
    DeletePod(String),
    /// Crash a node (owned pods are rescheduled elsewhere).
    CrashNode(String),
    /// Bring a crashed node back.
    RestartNode(String),
    /// Crash LCM replica `i` in place (kubelet restarts it as a fresh
    /// incarnation; its etcd lease is orphaned until the TTL expires and
    /// the survivors adopt its shards).
    CrashLcm(u32),
    /// Delete LCM replica `i`'s pod (`kubectl delete pod`; the
    /// deployment recreates it). Same lease-expiry takeover path as
    /// [`FaultAction::CrashLcm`], but with a scheduler round trip.
    RestartLcm(u32),
}

impl FaultAction {
    /// Applies the fault to the cluster. Returns `false` when the target
    /// did not exist or was not in a crashable state.
    pub fn apply(&self, sim: &mut Sim, kube: &Kube) -> bool {
        match self {
            FaultAction::CrashPod(p) => kube.crash_pod(sim, p),
            FaultAction::DeletePod(p) => kube.delete_pod(sim, p),
            FaultAction::CrashNode(n) => kube.crash_node(sim, n),
            FaultAction::RestartNode(n) => kube.restart_node(sim, n),
            FaultAction::CrashLcm(i) => kube.crash_pod(sim, &format!("dlaas-lcm-{i}")),
            FaultAction::RestartLcm(i) => kube.delete_pod(sim, &format!("dlaas-lcm-{i}")),
        }
    }
}

impl fmt::Display for FaultAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultAction::CrashPod(p) => write!(f, "crash pod {p}"),
            FaultAction::DeletePod(p) => write!(f, "delete pod {p}"),
            FaultAction::CrashNode(n) => write!(f, "crash node {n}"),
            FaultAction::RestartNode(n) => write!(f, "restart node {n}"),
            FaultAction::CrashLcm(i) => write!(f, "crash LCM replica {i}"),
            FaultAction::RestartLcm(i) => write!(f, "restart LCM replica {i}"),
        }
    }
}

/// A deterministic schedule of faults.
///
/// Plans are plain data — `Send` and cheap to `Clone` — on purpose: the
/// seed-parallel campaign runner in `dlaas-bench` ships one cloned plan
/// per trial spec to a worker thread, where it is armed against that
/// trial's private `Sim`. A plan never captures a simulation handle, so
/// carrying one across threads is safe by construction (and enforced by
/// the `fault_specs_are_send_and_clone` test below).
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    entries: Vec<(SimTime, FaultAction)>,
}

impl FaultPlan {
    /// An empty plan.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a fault at an absolute simulated time.
    pub fn at(mut self, t: SimTime, action: FaultAction) -> Self {
        self.entries.push((t, action));
        self
    }

    /// Number of scheduled faults.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no faults are scheduled.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Arms every fault on the simulation against `kube`. Faults whose
    /// time is already past fire immediately.
    pub fn arm(self, sim: &mut Sim, kube: &Kube) {
        for (t, action) in self.entries {
            let kube = kube.clone();
            let at = t.max(sim.now());
            sim.schedule_at(at, move |sim| {
                action.apply(sim, &kube);
            });
        }
    }
}

/// Arms a one-shot trigger: polls `pred` every `period` and, the first
/// time it returns `true`, fires `action` exactly once and stops polling.
///
/// This is how the fault matrix targets individual Guardian deployment
/// steps: the predicate watches for the step's observable side effect
/// (status flipped to DEPLOYING, the job volume exists, the helper pod
/// was created, …) and the action injects the fault at that moment.
/// Returns the timer handle so a caller can disarm an un-fired trigger.
pub fn when(
    sim: &mut Sim,
    period: SimDuration,
    mut pred: impl FnMut(&Sim) -> bool + 'static,
    action: impl FnOnce(&mut Sim) + 'static,
) -> TimerHandle {
    let mut action = Some(action);
    dlaas_sim::every(sim, period, move |sim, _n| {
        if !pred(sim) {
            return true;
        }
        if let Some(act) = action.take() {
            act(sim);
        }
        false
    })
}

/// Splits `net` into isolated `groups` for `duration`, then heals it.
/// Addresses absent from every group keep full connectivity to each
/// other but not to any group (see [`Net::partition`]).
pub fn partition_window<M: 'static>(
    sim: &mut Sim,
    net: &Net<M>,
    groups: Vec<Vec<Addr>>,
    duration: SimDuration,
) {
    net.partition(groups);
    let net = net.clone();
    sim.schedule_in(duration, move |_| {
        net.heal();
    });
}

/// Replaces `net`'s latency model with `model` for `duration`, then
/// restores the model that was in effect when the window opened.
pub fn latency_window<M: 'static>(
    sim: &mut Sim,
    net: &Net<M>,
    model: LatencyModel,
    duration: SimDuration,
) {
    let restore = net.latency();
    net.set_latency(model);
    let net = net.clone();
    sim.schedule_in(duration, move |_| {
        net.set_latency(restore);
    });
}

/// Makes the NFS data plane unavailable for `duration`, then restores it.
/// Mounted handles survive the outage; only operations during the window
/// fail (see `dlaas_sharedfs::NfsError::Unavailable`).
pub fn nfs_outage_window(sim: &mut Sim, nfs: &NfsServer, duration: SimDuration) {
    nfs.set_available(false);
    let nfs = nfs.clone();
    sim.schedule_in(duration, move |_| {
        nfs.set_available(true);
    });
}

/// Injects `fault`, then runs the simulation until `recovered` returns
/// `true`, and reports the elapsed simulated time. Returns `None` when the
/// deadline passes first.
pub fn measure_recovery(
    sim: &mut Sim,
    fault: impl FnOnce(&mut Sim),
    mut recovered: impl FnMut(&Sim) -> bool,
    timeout: SimDuration,
) -> Option<SimDuration> {
    let start = sim.now();
    let deadline = start + timeout;
    fault(sim);
    loop {
        if recovered(sim) {
            return Some(sim.now() - start);
        }
        match sim.peek_time() {
            Some(t) if t <= deadline => {
                sim.step();
            }
            _ => {
                // Quiet period: some recovery conditions (e.g. readiness)
                // are time thresholds rather than events — tick the clock
                // forward until the deadline.
                if sim.now() >= deadline {
                    return None;
                }
                let next = (sim.now() + SimDuration::from_millis(50)).min(deadline);
                sim.run_until(next);
            }
        }
    }
}

/// Aggregates recovery times across trials.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecoveryStats {
    samples: Vec<SimDuration>,
}

impl RecoveryStats {
    /// Empty statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one sample.
    pub fn push(&mut self, d: SimDuration) {
        self.samples.push(d);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// `true` when no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The raw samples, in insertion order — what a campaign replays
    /// into an aggregate histogram after its sorted merge.
    pub fn samples(&self) -> &[SimDuration] {
        &self.samples
    }

    /// Smallest sample.
    pub fn min(&self) -> Option<SimDuration> {
        self.samples.iter().min().copied()
    }

    /// Largest sample.
    pub fn max(&self) -> Option<SimDuration> {
        self.samples.iter().max().copied()
    }

    /// Arithmetic mean.
    pub fn mean(&self) -> Option<SimDuration> {
        if self.samples.is_empty() {
            None
        } else {
            let total: u64 = self.samples.iter().map(|d| d.as_micros()).sum();
            Some(SimDuration::from_micros(total / self.samples.len() as u64))
        }
    }

    /// Formats as `"min-max s"` the way the paper's Fig. 4 reports ranges.
    pub fn range_secs(&self) -> String {
        match (self.min(), self.max()) {
            (Some(lo), Some(hi)) => format!("{:.1}-{:.1}s", lo.as_secs_f64(), hi.as_secs_f64()),
            _ => "n/a".to_owned(),
        }
    }
}

/// Recurring probabilistic pod crashes against a label selector.
#[derive(Debug)]
pub struct ChaosMonkey {
    handle: TimerHandle,
}

impl ChaosMonkey {
    /// Every `period`, with probability `p`, crashes one random Running
    /// pod matching `selector`.
    pub fn unleash(
        sim: &mut Sim,
        kube: &Kube,
        selector: Labels,
        period: SimDuration,
        p: f64,
    ) -> Self {
        let kube = kube.clone();
        let mut rng: SimRng = sim.rng().fork("chaos-monkey");
        let handle = dlaas_sim::every(sim, period, move |sim, _n| {
            if !rng.chance(p) {
                return true;
            }
            let candidates: Vec<String> = kube
                .pods_matching(&selector)
                .into_iter()
                .filter(|p| kube.pod_phase(p) == Some(PodPhase::Running))
                .collect();
            if let Some(victim) = rng.choose(&candidates).cloned() {
                kube.crash_pod(sim, &victim);
            }
            true
        });
        ChaosMonkey { handle }
    }

    /// Stops the chaos.
    pub fn stop(&self) {
        self.handle.cancel();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlaas_kube::{
        labels, BehaviorRegistry, ContainerSpec, ImageRef, KubeConfig, NodeSpec, PodSpec,
    };

    fn boot(seed: u64) -> (Sim, Kube) {
        let mut sim = Sim::new(seed);
        let registry = BehaviorRegistry::new();
        registry.register_noop("pause");
        let kube = Kube::new(&mut sim, KubeConfig::default(), registry);
        kube.add_node(NodeSpec::cpu("n1", 16000, 65536));
        kube.add_node(NodeSpec::cpu("n2", 16000, 65536));
        (sim, kube)
    }

    fn pod(name: &str) -> PodSpec {
        PodSpec::new(
            name,
            ContainerSpec::new("m", ImageRef::microservice("svc"), "pause"),
        )
        .with_labels(labels! {"app" => "svc"})
    }

    #[test]
    fn plan_arms_and_fires_in_order() {
        let (mut sim, kube) = boot(1);
        kube.create_deployment(&mut sim, "svc", 2, pod("svc"));
        sim.run_for(SimDuration::from_secs(10));

        let plan = FaultPlan::new()
            .at(
                SimTime::from_secs(15),
                FaultAction::CrashPod("svc-0".into()),
            )
            .at(
                SimTime::from_secs(20),
                FaultAction::DeletePod("svc-1".into()),
            );
        assert_eq!(plan.len(), 2);
        plan.arm(&mut sim, &kube);

        sim.run_until(SimTime::from_secs(16));
        assert_eq!(kube.pod_restarts("svc-0"), Some(1));
        sim.run_for(SimDuration::from_secs(60));
        // Both recovered by their respective mechanisms.
        assert!(kube.pod_ready(&sim, "svc-0"));
        assert!(kube.pod_ready(&sim, "svc-1"));
    }

    #[test]
    fn past_faults_fire_immediately() {
        let (mut sim, kube) = boot(2);
        kube.create_deployment(&mut sim, "svc", 1, pod("svc"));
        sim.run_for(SimDuration::from_secs(10));
        FaultPlan::new()
            .at(SimTime::ZERO, FaultAction::CrashPod("svc-0".into()))
            .arm(&mut sim, &kube);
        sim.run_for(SimDuration::from_secs(1));
        assert_eq!(kube.pod_restarts("svc-0"), Some(1));
    }

    #[test]
    fn apply_reports_missing_targets() {
        let (mut sim, kube) = boot(3);
        assert!(!FaultAction::CrashPod("ghost".into()).apply(&mut sim, &kube));
        assert!(!FaultAction::DeletePod("ghost".into()).apply(&mut sim, &kube));
        assert!(!FaultAction::CrashNode("ghost".into()).apply(&mut sim, &kube));
        assert!(!FaultAction::RestartNode("ghost".into()).apply(&mut sim, &kube));
        assert!(FaultAction::CrashNode("n1".into()).apply(&mut sim, &kube));
        assert!(FaultAction::RestartNode("n1".into()).apply(&mut sim, &kube));
        // No dlaas-lcm deployment in this toy cluster: LCM faults miss.
        assert!(!FaultAction::CrashLcm(0).apply(&mut sim, &kube));
        assert!(!FaultAction::RestartLcm(0).apply(&mut sim, &kube));
    }

    #[test]
    fn lcm_faults_target_the_lcm_deployment_pods() {
        let (mut sim, kube) = boot(7);
        kube.create_deployment(&mut sim, "dlaas-lcm", 2, pod("lcm"));
        sim.run_for(SimDuration::from_secs(10));
        assert!(FaultAction::CrashLcm(1).apply(&mut sim, &kube));
        sim.run_for(SimDuration::from_secs(1));
        assert_eq!(kube.pod_restarts("dlaas-lcm-1"), Some(1));
        assert!(FaultAction::RestartLcm(0).apply(&mut sim, &kube));
        sim.run_for(SimDuration::from_secs(60));
        assert!(kube.pod_ready(&sim, "dlaas-lcm-0"));
        assert!(kube.pod_ready(&sim, "dlaas-lcm-1"));
        assert_eq!(FaultAction::CrashLcm(1).to_string(), "crash LCM replica 1");
    }

    #[test]
    fn same_time_faults_fire_in_insertion_order() {
        // CrashNode then RestartNode at the same instant: the restart only
        // succeeds if the crash was applied first, so insertion order is
        // directly observable through the node coming back up.
        let mut sim = Sim::new(11);
        let registry = BehaviorRegistry::new();
        registry.register_noop("pause");
        let kube = Kube::new(&mut sim, KubeConfig::default(), registry);
        kube.add_node(NodeSpec::cpu("n1", 16000, 65536)); // single node
        kube.create_deployment(&mut sim, "svc", 1, pod("svc"));
        sim.run_for(SimDuration::from_secs(10));

        let t = SimTime::from_secs(15);
        FaultPlan::new()
            .at(t, FaultAction::CrashNode("n1".into()))
            .at(t, FaultAction::RestartNode("n1".into()))
            .arm(&mut sim, &kube);
        sim.run_for(SimDuration::from_secs(120));
        // Had the restart fired first it would have been a no-op and the
        // crash would have left the only node down — the pod could never
        // be rescheduled.
        assert!(
            kube.pod_ready(&sim, "svc-0"),
            "node must be back up: insertion order violated"
        );
    }

    #[test]
    fn recovery_exactly_at_deadline_is_reported() {
        use std::cell::Cell;
        use std::rc::Rc;
        let (mut sim, _kube) = boot(12);
        sim.run_for(SimDuration::from_secs(5));
        let timeout = SimDuration::from_secs(10);
        let deadline = sim.now() + timeout;
        let flag = Rc::new(Cell::new(false));
        let flag2 = flag.clone();
        let r = measure_recovery(
            &mut sim,
            move |sim| {
                sim.schedule_at(deadline, move |_sim| flag2.set(true));
            },
            move |_sim| flag.get(),
            timeout,
        );
        assert_eq!(r, Some(timeout), "predicate true at the deadline counts");
    }

    #[test]
    fn when_trigger_fires_exactly_once() {
        use std::cell::Cell;
        use std::rc::Rc;
        let (mut sim, kube) = boot(13);
        kube.create_deployment(&mut sim, "svc", 1, pod("svc"));
        let fired = Rc::new(Cell::new(0u32));
        let fired2 = fired.clone();
        let k = kube.clone();
        when(
            &mut sim,
            SimDuration::from_millis(100),
            move |sim| k.pod_ready(sim, "svc-0"),
            move |_sim| fired2.set(fired2.get() + 1),
        );
        sim.run_for(SimDuration::from_secs(60));
        assert_eq!(fired.get(), 1, "one-shot trigger must fire exactly once");
    }

    #[test]
    fn when_trigger_can_be_disarmed() {
        use std::cell::Cell;
        use std::rc::Rc;
        let (mut sim, _kube) = boot(14);
        let fired = Rc::new(Cell::new(false));
        let fired2 = fired.clone();
        let handle = when(
            &mut sim,
            SimDuration::from_secs(1),
            |sim| sim.now() >= SimTime::from_secs(5),
            move |_sim| fired2.set(true),
        );
        sim.run_for(SimDuration::from_secs(2));
        handle.cancel();
        sim.run_for(SimDuration::from_secs(60));
        assert!(!fired.get(), "disarmed trigger must not fire");
    }

    #[test]
    fn partition_window_heals_itself() {
        use std::cell::Cell;
        use std::rc::Rc;
        let mut sim = Sim::new(15);
        let net: Net<&'static str> = Net::new(
            &mut sim,
            dlaas_net::LatencyModel::Fixed(SimDuration::from_millis(1)),
        );
        let got = Rc::new(Cell::new(0u32));
        let got2 = got.clone();
        net.register(Addr::new("b"), move |_sim, _env| got2.set(got2.get() + 1));
        net.register(Addr::new("a"), |_sim, _env| {});

        partition_window(
            &mut sim,
            &net,
            vec![vec![Addr::new("a")], vec![Addr::new("b")]],
            SimDuration::from_secs(10),
        );
        net.send(&mut sim, Addr::new("a"), Addr::new("b"), "during");
        sim.run_for(SimDuration::from_secs(11));
        assert_eq!(got.get(), 0, "partitioned message must be dropped");
        net.send(&mut sim, Addr::new("a"), Addr::new("b"), "after");
        sim.run_for(SimDuration::from_secs(1));
        assert_eq!(got.get(), 1, "healed network must deliver again");
    }

    #[test]
    fn latency_window_restores_previous_model() {
        let mut sim = Sim::new(16);
        let base = dlaas_net::LatencyModel::Fixed(SimDuration::from_millis(1));
        let net: Net<&'static str> = Net::new(&mut sim, base.clone());
        latency_window(
            &mut sim,
            &net,
            dlaas_net::LatencyModel::Fixed(SimDuration::from_millis(250)),
            SimDuration::from_secs(5),
        );
        assert_eq!(
            net.latency(),
            dlaas_net::LatencyModel::Fixed(SimDuration::from_millis(250))
        );
        sim.run_for(SimDuration::from_secs(6));
        assert_eq!(net.latency(), base, "original model must be restored");
    }

    #[test]
    fn nfs_outage_window_restores_availability() {
        let mut sim = Sim::new(17);
        let nfs = NfsServer::new();
        let vol = nfs.create_volume("v");
        let mount = nfs.mount(&vol).unwrap();
        nfs_outage_window(&mut sim, &nfs, SimDuration::from_secs(10));
        assert!(!nfs.is_available());
        assert!(mount.write_file("f", "x").is_err());
        sim.run_for(SimDuration::from_secs(11));
        assert!(nfs.is_available());
        assert!(mount.write_file("f", "x").is_ok());
    }

    #[test]
    fn measure_recovery_returns_elapsed() {
        let (mut sim, kube) = boot(4);
        kube.create_deployment(&mut sim, "svc", 1, pod("svc"));
        sim.run_for(SimDuration::from_secs(10));
        let k = kube.clone();
        let k2 = kube.clone();
        let r = measure_recovery(
            &mut sim,
            move |sim| {
                k.delete_pod(sim, "svc-0");
            },
            move |sim| k2.pod_ready(sim, "svc-0"),
            SimDuration::from_secs(60),
        )
        .unwrap();
        assert!(r > SimDuration::from_millis(500));
        assert!(r < SimDuration::from_secs(10));
    }

    #[test]
    fn measure_recovery_times_out() {
        let (mut sim, kube) = boot(5);
        kube.create_pod(
            &mut sim,
            pod("solo").with_restart_policy(dlaas_kube::RestartPolicy::Never),
        );
        sim.run_for(SimDuration::from_secs(10));
        let k = kube.clone();
        let k2 = kube.clone();
        let r = measure_recovery(
            &mut sim,
            move |sim| {
                k.crash_pod(sim, "solo");
            },
            move |sim| k2.pod_ready(sim, "solo"),
            SimDuration::from_secs(30),
        );
        assert_eq!(r, None, "Never-restart pod cannot recover");
    }

    #[test]
    fn fault_specs_are_send_and_clone() {
        // The campaign runner moves trial specs (seed + fault plan) to
        // worker threads and clones a fresh plan per trial. These bounds
        // are part of the crate's contract; a field that captures a
        // simulation handle (Rc, RefCell, …) would break the build here.
        fn assert_spec<T: Send + Clone + 'static>() {}
        assert_spec::<FaultPlan>();
        assert_spec::<FaultAction>();
        assert_spec::<RecoveryStats>();

        let plan =
            FaultPlan::new().at(SimTime::from_secs(1), FaultAction::CrashPod("svc-0".into()));
        let cloned = plan.clone();
        assert_eq!(cloned.len(), plan.len());
    }

    #[test]
    fn stats_samples_expose_insertion_order() {
        let mut st = RecoveryStats::new();
        st.push(SimDuration::from_secs(5));
        st.push(SimDuration::from_secs(3));
        assert_eq!(
            st.samples(),
            &[SimDuration::from_secs(5), SimDuration::from_secs(3)]
        );
    }

    #[test]
    fn stats_aggregate() {
        let mut st = RecoveryStats::new();
        assert!(st.is_empty());
        assert_eq!(st.mean(), None);
        st.push(SimDuration::from_secs(3));
        st.push(SimDuration::from_secs(5));
        st.push(SimDuration::from_secs(4));
        assert_eq!(st.len(), 3);
        assert_eq!(st.min(), Some(SimDuration::from_secs(3)));
        assert_eq!(st.max(), Some(SimDuration::from_secs(5)));
        assert_eq!(st.mean(), Some(SimDuration::from_secs(4)));
        assert_eq!(st.range_secs(), "3.0-5.0s");
        assert_eq!(RecoveryStats::new().range_secs(), "n/a");
    }

    #[test]
    fn chaos_monkey_crashes_and_cluster_recovers() {
        let (mut sim, kube) = boot(6);
        kube.create_deployment(&mut sim, "svc", 3, pod("svc"));
        sim.run_for(SimDuration::from_secs(10));

        let monkey = ChaosMonkey::unleash(
            &mut sim,
            &kube,
            labels! {"app" => "svc"},
            SimDuration::from_secs(10),
            0.7,
        );
        sim.run_for(SimDuration::from_secs(120));
        monkey.stop();
        let total_restarts: u32 = (0..3)
            .map(|i| kube.pod_restarts(&format!("svc-{i}")).unwrap_or(0))
            .sum();
        assert!(total_restarts > 0, "monkey must have struck at least once");

        // After the monkey stops everything converges back to Running.
        sim.run_for(SimDuration::from_secs(600));
        for i in 0..3 {
            assert!(
                kube.pod_ready(&sim, &format!("svc-{i}")),
                "svc-{i} not recovered"
            );
        }
    }

    #[test]
    fn chaos_monkey_determinism() {
        fn run(seed: u64) -> u32 {
            let (mut sim, kube) = boot(seed);
            kube.create_deployment(&mut sim, "svc", 3, pod("svc"));
            sim.run_for(SimDuration::from_secs(10));
            let _m = ChaosMonkey::unleash(
                &mut sim,
                &kube,
                labels! {"app" => "svc"},
                SimDuration::from_secs(5),
                0.5,
            );
            sim.run_for(SimDuration::from_secs(200));
            (0..3)
                .map(|i| kube.pod_restarts(&format!("svc-{i}")).unwrap_or(0))
                .sum()
        }
        assert_eq!(run(9), run(9));
    }
}
