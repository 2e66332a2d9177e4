//! Engine throughput: raw discrete-event kernel speed in events per
//! wall-second, the quantity every ROADMAP scale item is gated on.
//!
//! [`kernel_churn`] measures the kernel alone: a population of
//! self-rescheduling actors whose delays span the near-future (bucket
//! ring) and far-future (overflow tier) ranges, plus a defer and a
//! schedule-then-cancel per firing so tombstone handling is on the
//! measured path. The full-platform workload is the soak driver's
//! `scale` profile ([`crate::soak`]).
//!
//! Runs report host wall time via the feature-gated
//! [`dlaas_obs::wallclock::WallTimer`], so `BENCH_engine.json` is a
//! *wall-derived* artifact: it is NOT byte-stable across runs and must
//! never enter a byte-comparison gate. CI instead compares the
//! events-per-wall-second rates against a committed baseline with a
//! relative tolerance ([`crate::artifact::check_against_baseline`]).

use dlaas_obs::wallclock::WallTimer;
use dlaas_sim::{Sim, SimDuration, SimTime};

/// One measured workload: how many kernel events ran and how long the
/// host took to run them.
#[derive(Debug)]
pub struct EngineRun {
    /// Workload name, stable across runs — baseline matching keys on it.
    pub name: String,
    /// Kernel events executed during the measured region.
    pub events: u64,
    /// Simulated seconds covered by the measured region.
    pub sim_secs: f64,
    /// Host wall seconds for the measured region (reporting only).
    pub wall_secs: f64,
}

impl EngineRun {
    /// The headline rate: kernel events executed per host wall-second.
    pub fn events_per_wall_sec(&self) -> f64 {
        if self.wall_secs > 0.0 {
            self.events as f64 / self.wall_secs
        } else {
            0.0
        }
    }
}

/// Pure-kernel churn: `actors` self-rescheduling closures run until
/// `target_events` kernel events have executed. Every firing defers one
/// no-op (same-instant path), schedules-then-cancels one event (tombstone
/// path), and reschedules itself with a bimodal delay — 90% sub-millisecond
/// (lands in the calendar ring) and 10% multi-second (lands in the
/// overflow tier) — so all queue tiers are exercised in proportion.
pub fn kernel_churn(seed: u64, actors: u64, target_events: u64) -> EngineRun {
    fn fire(sim: &mut Sim) {
        sim.defer(|_| {});
        let id = sim.schedule_in(SimDuration::from_millis(5), |_| {});
        sim.cancel(id);
        let delay_us = if sim.rng().chance(0.9) {
            sim.rng().range_u64(1, 1_000)
        } else {
            sim.rng().range_u64(1_000_000, 30_000_000)
        };
        sim.schedule_in(SimDuration::from_micros(delay_us), fire);
    }

    let mut sim = Sim::new(seed);
    for i in 0..actors {
        sim.schedule_in(SimDuration::from_micros(i), fire);
    }
    let wall = WallTimer::start();
    sim.run_until_pred(|s| s.events_executed() >= target_events);
    let wall_secs = wall.elapsed_secs();
    EngineRun {
        name: "kernel_churn".into(),
        events: sim.events_executed(),
        sim_secs: sim
            .now()
            .saturating_duration_since(SimTime::ZERO)
            .as_secs_f64(),
        wall_secs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::{check_against_baseline, workloads_json};

    #[test]
    fn kernel_churn_is_deterministic_in_events() {
        let a = kernel_churn(7, 50, 5_000);
        let b = kernel_churn(7, 50, 5_000);
        assert_eq!(a.events, b.events);
        assert_eq!(a.sim_secs, b.sim_secs);
        assert!(a.events >= 5_000);
    }

    fn fake_json(pairs: &[(&str, f64)]) -> String {
        let runs: Vec<EngineRun> = pairs
            .iter()
            .map(|(n, rate)| EngineRun {
                name: (*n).to_string(),
                events: (*rate * 10.0) as u64,
                sim_secs: 1.0,
                wall_secs: 10.0,
            })
            .collect();
        workloads_json("engine", 1, &runs)
    }

    fn gate(cur: &str, base: &str) -> Result<Vec<String>, Vec<String>> {
        check_against_baseline(&[cur], base, 0.10)
    }

    const COMMITTED: &str = include_str!("../../../BENCH_engine.baseline.json");

    #[test]
    fn baseline_check_passes_within_tolerance() {
        let base = fake_json(&[("kernel_churn", 1000.0)]);
        let report = gate(&fake_json(&[("kernel_churn", 950.0)]), &base).expect("within tolerance");
        assert_eq!(report.len(), 1);
        assert!(report[0].starts_with("ok kernel_churn"), "{report:?}");
        assert_eq!(gate(COMMITTED, COMMITTED).map(|r| r.len()), Ok(2));
    }

    #[test]
    fn baseline_check_fails_on_regression() {
        let base = fake_json(&[("kernel_churn", 1000.0)]);
        let violations =
            gate(&fake_json(&[("kernel_churn", 800.0)]), &base).expect_err("regressed");
        assert!(
            violations[0].starts_with("REGRESSION kernel_churn"),
            "{violations:?}"
        );
        // 20% under the committed figure.
        assert!(gate(&COMMITTED.replace("247340.0", "197872.0"), COMMITTED).is_err());
    }

    #[test]
    fn baseline_check_fails_on_missing_workload_or_bad_json() {
        let base = fake_json(&[("kernel_churn", 1000.0), ("platform_soak_n100", 50.0)]);
        let cur = fake_json(&[("kernel_churn", 1000.0)]);
        assert!(gate(&cur, &base).is_err(), "missing workload");
        assert!(gate("not json", &base).is_err(), "bad current");
        assert!(gate(&cur, "not json").is_err(), "bad baseline");
        assert!(gate(&cur, "{}").is_err(), "nothing to compare");
        assert!(gate(&cur, "{\"workloads\": []}").is_err(), "empty");
        // `base` against itself passes at 0.10, so only the tolerance fails.
        assert!(gate(&base, &base).is_ok());
        for t in [f64::NAN, f64::INFINITY, -0.1, 1.0] {
            assert!(
                check_against_baseline(&[&base], &base, t).is_err(),
                "tolerance {t}"
            );
        }
    }
}
