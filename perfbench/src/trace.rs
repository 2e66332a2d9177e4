//! The traced run: drives the kernel through the public `Sim::step`
//! loop (the loop `run_until` runs) and charges each step's wall time to
//! the layer whose public counter moved during that step:
//!
//! 1. a delivery on one of the five networks (in `layers::NETS` order);
//! 2. otherwise a send on one of them;
//! 3. otherwise growth of kube's event count;
//! 4. otherwise `unattributed`.
//!
//! One clock read per step, taken right after it, makes the step
//! intervals contiguous, so the layer rows sum to the stepping wall time
//! exactly.

use std::fmt::Write as _;

use dlaas_core::DlaasPlatform;
use dlaas_obs::wallclock::WallTimer;
use dlaas_sim::{Sim, SimTime};

use crate::layers::net_stats;
use crate::rig::Log;
use crate::span::Spans;

/// Rows of the self-time table: one per network, then kube, then
/// unattributed.
const LAYERS: [&str; 7] = [
    "raft",
    "etcd_rpc",
    "etcd_watch",
    "docstore_rpc",
    "core_rpc",
    "kube",
    "unattributed",
];
const KUBE: usize = 5;
const UNATTRIBUTED: usize = 6;
const MINUTE_US: u64 = 60_000_000;

/// Where the stepping wall time went.
pub struct Ledger {
    /// Steps charged to each layer, split into (by delivery, by send);
    /// kube and unattributed use the first slot only.
    pub steps: [[u64; 2]; 7],
    pub wall_s: [f64; 7],
    pub stepping_wall_s: f64,
    /// Offset of the first stepping loop from the span origin, in µs.
    start_us: f64,
    t0: WallTimer,
    /// The sim-minute being accumulated, its wall offset from `t0` and
    /// its wall per layer (µs).
    minute: (u64, f64, [f64; 7]),
    /// Finished sim-minutes, in the same shape.
    minutes: Vec<(u64, f64, [f64; 7])>,
}

fn kube_events(p: &DlaasPlatform) -> u64 {
    p.metrics().counter_total("kube_events_total")
}

fn moved(p: &DlaasPlatform) -> [(u64, u64); 5] {
    net_stats(p).map(|s| (s.delivered, s.sent))
}

impl Ledger {
    pub fn new(sim: &Sim, spans: &Spans) -> Ledger {
        Ledger {
            steps: [[0; 2]; 7],
            wall_s: [0.0; 7],
            stepping_wall_s: 0.0,
            start_us: spans.now_us(),
            t0: WallTimer::start(),
            minute: (sim.now().as_micros() / MINUTE_US, 0.0, [0.0; 7]),
            minutes: Vec::new(),
        }
    }

    /// Runs `sim` to `deadline` exactly as `Sim::run_until` would,
    /// charging each step to a layer.
    pub fn run_until(&mut self, sim: &mut Sim, p: &DlaasPlatform, deadline: SimTime) {
        let mut prev = moved(p);
        let mut prev_kube = kube_events(p);
        let start = self.t0.elapsed_secs();
        let mut last = start;
        while let Some(t) = sim.peek_time() {
            if t > deadline {
                break;
            }
            sim.step();
            let cur = moved(p);
            let kube = kube_events(p);
            let now = self.t0.elapsed_secs();
            let dt = now - last;
            last = now;

            let (layer, via) = if let Some(i) = (0..5).find(|&i| cur[i].0 != prev[i].0) {
                (i, 0)
            } else if let Some(i) = (0..5).find(|&i| cur[i].1 != prev[i].1) {
                (i, 1)
            } else if kube != prev_kube {
                (KUBE, 0)
            } else {
                (UNATTRIBUTED, 0)
            };
            self.steps[layer][via] += 1;
            self.wall_s[layer] += dt;
            self.minute.2[layer] += dt * 1e6;
            prev = cur;
            prev_kube = kube;

            let m = sim.now().as_micros() / MINUTE_US;
            if m != self.minute.0 {
                let offset = now * 1e6;
                self.minutes
                    .push(std::mem::replace(&mut self.minute, (m, offset, [0.0; 7])));
            }
        }
        self.stepping_wall_s += last - start;
        // No event at or before the deadline is left; this only moves the
        // clock, as `run_until` does.
        sim.run_until(deadline);
    }

    /// Closes the current sim-minute.
    pub fn close(&mut self) {
        let open = std::mem::replace(&mut self.minute, (0, 0.0, [0.0; 7]));
        self.minutes.push(open);
    }

    /// The per-layer self-time table.
    pub fn table(&self) -> String {
        let mut out = String::new();
        writeln!(
            out,
            "{:<14} {:>10} {:>10} {:>10} {:>7}",
            "layer", "by_deliv", "by_send", "wall_s", "share"
        )
        .unwrap();
        for (i, name) in LAYERS.iter().enumerate() {
            writeln!(
                out,
                "{:<14} {:>10} {:>10} {:>10.4} {:>6.1}%",
                name,
                self.steps[i][0],
                self.steps[i][1],
                self.wall_s[i],
                100.0 * self.wall_s[i] / self.stepping_wall_s.max(1e-9)
            )
            .unwrap();
        }
        writeln!(
            out,
            "{:<14} {:>10} {:>10} {:>10.4} {:>6.1}%",
            "total",
            self.steps.iter().map(|s| s[0]).sum::<u64>(),
            self.steps.iter().map(|s| s[1]).sum::<u64>(),
            self.wall_s.iter().sum::<f64>(),
            100.0 * self.wall_s.iter().sum::<f64>() / self.stepping_wall_s.max(1e-9)
        )
        .unwrap();
        writeln!(out, "stepping wall {:.4} s", self.stepping_wall_s).unwrap();
        out
    }
}

fn event(out: &mut String, name: &str, ph: &str, pid: u32, tid: &str, ts: f64, dur: Option<f64>) {
    if !out.ends_with('[') {
        out.push_str(",\n");
    }
    write!(
        out,
        "{{\"name\":\"{name}\",\"ph\":\"{ph}\",\"pid\":{pid},\"tid\":\"{tid}\",\"ts\":{ts:.3}"
    )
    .unwrap();
    if let Some(d) = dur {
        write!(out, ",\"dur\":{d:.3}").unwrap();
    }
    if ph == "i" {
        out.push_str(",\"s\":\"g\"");
    }
    out.push('}');
}

/// Chrome trace-event JSON: process 1 is host wall time (set-up calls
/// and the per-sim-minute layer totals of the stepping loop), process 2
/// is simulated time (submissions from due time to ack, probe calls and
/// fault injections).
pub fn chrome_json(spans: &Spans, ledger: &Ledger, log: &Log) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for s in &spans.wall {
        event(
            &mut out,
            &s.name,
            "X",
            1,
            "setup",
            s.start_us,
            Some(s.dur_us),
        );
    }
    for (minute, offset, walls) in &ledger.minutes {
        for (i, w) in walls.iter().enumerate() {
            if *w > 0.0 {
                let name = format!("{} min {minute}", LAYERS[i]);
                event(
                    &mut out,
                    &name,
                    "X",
                    1,
                    LAYERS[i],
                    ledger.start_us + offset,
                    Some(*w),
                );
            }
        }
    }
    for (i, j) in log.jobs.iter().enumerate() {
        if let Some(ack) = j.ack_us {
            let name = j.job.as_ref().map_or_else(
                || format!("submit {i} rejected"),
                |id| format!("submit {}", id.as_str()),
            );
            event(
                &mut out,
                &name,
                "X",
                2,
                "submit",
                j.due_us as f64,
                Some((ack - j.due_us) as f64),
            );
        }
    }
    for (tid, probes) in [
        ("probe.api", &log.api),
        ("probe.etcd", &log.etcd),
        ("probe.docstore", &log.docstore),
    ] {
        for p in probes {
            let end = p.done_us.unwrap_or(p.due_us);
            let name = if p.failed() { "probe failed" } else { "probe" };
            event(
                &mut out,
                name,
                "X",
                2,
                tid,
                p.due_us as f64,
                Some((end - p.due_us) as f64),
            );
        }
    }
    for (t, f) in &log.faults {
        event(&mut out, f, "i", 2, "faults", *t as f64, None);
    }
    out.push_str("\n]}\n");
    out
}
