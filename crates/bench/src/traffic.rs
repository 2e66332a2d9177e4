//! NSML-style multi-tenant traffic: the workload shape reported for
//! production DL clusters (NSML, Philly, the paper's own DLaaS):
//!
//! * **Diurnal arrivals** — a non-homogeneous Poisson process whose
//!   intensity follows a sinusoid over the submission window, sampled by
//!   inverse-CDF so a run is deterministic for a given seed;
//! * **Pareto bursts** — an arrival occasionally opens a burst of
//!   same-tenant submissions with a heavy-tailed size, the flash crowds
//!   that drive tenants over quota and into the fair queue;
//! * **Heavy-tailed durations** — log-normal job lengths (most jobs are
//!   minutes, a few run for hours), mapped to training iterations
//!   through the GPU performance model;
//! * **Whale / small tenant mix** — a couple of heavyweight tenants
//!   carry half the traffic at a higher fair-share weight, the rest is
//!   spread over many small tenants.
//!
//! [`generate`] precomputes the full arrival schedule up front (pure
//! math over a forked [`SimRng`], no event-loop interleaving), so the
//! schedule is byte-identical regardless of how the driving campaign is
//! threaded. The soak driver's `traffic` profile ([`crate::soak`])
//! pushes it through the platform; its flat one-tenant form is the
//! `chaos`/`uniform` workload.

use dlaas_gpu::{step_time_secs, DlModel, ExecEnv, Framework, GpuKind, TrainingConfig};
use dlaas_sim::{SimDuration, SimRng};

/// Shape of the generated traffic. Defaults follow the NSML/Philly
/// findings scaled into a two-hour window: ~50% of jobs from 2 whale
/// tenants, sinusoidal intensity with a 60% swing, ~3% of arrivals
/// opening a Pareto burst, log-normal durations with a 90s median and a
/// fat tail.
#[derive(Debug, Clone)]
pub struct TrafficConfig {
    /// Heavyweight tenants (higher fair-share weight, half the traffic).
    pub whales: u32,
    /// Small tenants sharing the other half of the traffic.
    pub smalls: u32,
    /// Fair-share weight of each whale (smalls weigh 1).
    pub whale_weight: u32,
    /// Fraction of arrivals drawn by whale tenants.
    pub whale_share: f64,
    /// Submission window; arrivals all land inside it.
    pub window: SimDuration,
    /// Amplitude of the diurnal sinusoid in [0, 1).
    pub diurnal_amp: f64,
    /// Probability an arrival opens a burst.
    pub burst_p: f64,
    /// Pareto shape of the burst size (smaller = heavier tail).
    pub burst_alpha: f64,
    /// Burst size cap.
    pub burst_max: u64,
    /// Mean spacing of submissions inside one burst.
    pub burst_spread: SimDuration,
    /// Median job duration (log-normal location).
    pub median_duration: SimDuration,
    /// Log-normal shape; 1.0 gives the observed minutes-to-hours spread.
    pub duration_sigma: f64,
    /// Duration cap, so the tail cannot outlive the drain horizon.
    pub max_duration: SimDuration,
    /// Probability a *whale* job is distributed over 2–4 learners
    /// (small tenants run single-GPU jobs, matching the production
    /// observation that distributed training concentrates in the
    /// heavyweight tenants — and keeping every job admissible within
    /// its tenant's quota slice).
    pub multi_learner_p: f64,
}

impl Default for TrafficConfig {
    fn default() -> Self {
        TrafficConfig {
            whales: 2,
            smalls: 10,
            whale_weight: 4,
            whale_share: 0.5,
            window: SimDuration::from_hours(2),
            diurnal_amp: 0.6,
            burst_p: 0.03,
            burst_alpha: 1.5,
            burst_max: 64,
            burst_spread: SimDuration::from_secs(5),
            median_duration: SimDuration::from_secs(90),
            duration_sigma: 1.0,
            max_duration: SimDuration::from_mins(30),
            multi_learner_p: 0.15,
        }
    }
}

impl TrafficConfig {
    /// Tenant ids, whales first — index into this is the tenant handle
    /// the generated [`Arrival`]s carry.
    pub fn tenant_ids(&self) -> Vec<String> {
        let mut out = Vec::with_capacity((self.whales + self.smalls) as usize);
        for i in 0..self.whales {
            out.push(format!("whale-{i}"));
        }
        for i in 0..self.smalls {
            out.push(format!("small-{i}"));
        }
        out
    }

    /// Fair-share weight of tenant `idx` (whales first).
    pub fn weight_of(&self, idx: usize) -> u32 {
        if (idx as u32) < self.whales {
            self.whale_weight
        } else {
            1
        }
    }

    /// GPU capacity to provision for `n` jobs: expected peak concurrency
    /// (offered load × diurnal peak) plus headroom so admitted jobs
    /// deploy promptly — the fair queue, not the scheduler, is where
    /// over-quota work waits.
    pub fn capacity_gpus(&self, n: u64) -> u32 {
        let mean_secs =
            self.median_duration.as_secs_f64() * (self.duration_sigma.powi(2) / 2.0).exp();
        // E[gpus] ≈ 1 + P(whale)·P(distributed)·E[extra learners].
        let mean_gpus = 1.0 + self.whale_share * self.multi_learner_p * 2.0;
        let offered = n as f64 * mean_secs * mean_gpus / self.window.as_secs_f64();
        ((offered * (1.0 + self.diurnal_amp) * 1.3).ceil() as u32).max(8)
    }

    /// Per-tenant GPU quota: capacity split so whales get
    /// `whale_weight` shares and smalls one share each, the whole
    /// cluster allocated. Bursts then push tenants over their slice and
    /// into the fair queue while total admitted work still fits.
    pub fn quota_of(&self, idx: usize, capacity: u32) -> u32 {
        let shares = u64::from(self.whales) * u64::from(self.whale_weight) + u64::from(self.smalls);
        let q = u64::from(capacity) * u64::from(self.weight_of(idx)) / shares.max(1);
        // Floors keep every generated job admissible: whales can draw
        // 4-GPU distributed jobs, smalls stay single-GPU.
        let floor = if (idx as u32) < self.whales { 4 } else { 2 };
        (q as u32).max(floor)
    }
}

/// One precomputed submission.
#[derive(Debug, Clone)]
pub struct Arrival {
    /// Offset from the start of the submission window.
    pub at: SimDuration,
    /// Index into [`TrafficConfig::tenant_ids`].
    pub tenant: usize,
    /// Training iterations (duration mapped through the GPU model).
    pub iterations: u64,
    /// Learner processes (1 = single-GPU job).
    pub learners: u32,
}

/// Normalized cumulative intensity of the diurnal process at `x` in
/// [0, 1]: Λ(x) for λ(x) ∝ 1 + amp·sin(2πx), scaled so Λ(1) = 1.
fn diurnal_cum(amp: f64, x: f64) -> f64 {
    use std::f64::consts::PI;
    x + amp / (2.0 * PI) * (1.0 - (2.0 * PI * x).cos())
}

/// Inverse of [`diurnal_cum`] by bisection (the CDF is strictly
/// increasing for amp < 1).
fn diurnal_inv(amp: f64, u: f64) -> f64 {
    let (mut lo, mut hi) = (0.0f64, 1.0f64);
    for _ in 0..48 {
        let mid = (lo + hi) / 2.0;
        if diurnal_cum(amp, mid) < u {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    (lo + hi) / 2.0
}

/// Standard normal via Box–Muller; consumes two uniforms.
fn standard_normal(rng: &mut SimRng) -> f64 {
    use std::f64::consts::PI;
    let u1 = (1.0 - rng.unit()).max(f64::MIN_POSITIVE);
    let u2 = rng.unit();
    (-2.0 * u1.ln()).sqrt() * (2.0 * PI * u2).cos()
}

/// Pareto-distributed burst size ≥ 2 with shape `alpha`.
fn pareto_size(rng: &mut SimRng, alpha: f64, cap: u64) -> u64 {
    let u = (1.0 - rng.unit()).max(f64::MIN_POSITIVE);
    let size = (2.0 * u.powf(-1.0 / alpha)) as u64;
    size.clamp(2, cap.max(2))
}

/// Generates exactly `n` arrivals, sorted by submission time. Pure math
/// over the passed rng — no simulation state is touched, so the
/// schedule is identical however the caller threads its trials.
pub fn generate(rng: &mut SimRng, cfg: &TrafficConfig, n: u64) -> Vec<Arrival> {
    // Seconds of training per iteration for the job mix's fixed model;
    // the platform adds its own overheads on top, which is fine — the
    // log-normal is a statistical target, not a promise per job.
    let step = step_time_secs(
        &TrainingConfig::new(DlModel::Resnet50, Framework::TensorFlow, GpuKind::K80, 1),
        &ExecEnv::bare_metal(),
    );
    let window = cfg.window.as_secs_f64();
    let mut out: Vec<Arrival> = Vec::with_capacity(n as usize);
    while (out.len() as u64) < n {
        let t = diurnal_inv(cfg.diurnal_amp, rng.unit()) * window;
        let tenant = if rng.chance(cfg.whale_share) && cfg.whales > 0 {
            rng.range_u64(0, u64::from(cfg.whales)) as usize
        } else {
            (u64::from(cfg.whales) + rng.range_u64(0, u64::from(cfg.smalls.max(1)))) as usize
        };
        let burst = if rng.chance(cfg.burst_p) {
            pareto_size(rng, cfg.burst_alpha, cfg.burst_max)
        } else {
            1
        };
        let mut at = t;
        for b in 0..burst {
            if out.len() as u64 >= n {
                break;
            }
            if b > 0 {
                at += rng.exponential(cfg.burst_spread).as_secs_f64();
            }
            let z = standard_normal(rng);
            let dur = (cfg.median_duration.as_secs_f64() * (cfg.duration_sigma * z).exp())
                .clamp(10.0, cfg.max_duration.as_secs_f64());
            let learners = if (tenant as u32) < cfg.whales && rng.chance(cfg.multi_learner_p) {
                rng.range_u64(2, 5) as u32
            } else {
                1
            };
            out.push(Arrival {
                at: SimDuration::from_micros((at.min(window) * 1e6) as u64),
                tenant,
                iterations: ((dur / step) as u64).max(5),
                learners,
            });
        }
    }
    out.sort_by_key(|a| a.at); // stable: bursts keep their relative order
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng(seed: u64) -> SimRng {
        SimRng::new(seed)
    }

    #[test]
    fn generates_exactly_n_sorted_arrivals() {
        let cfg = TrafficConfig::default();
        let arrivals = generate(&mut rng(7), &cfg, 5_000);
        assert_eq!(arrivals.len(), 5_000);
        for w in arrivals.windows(2) {
            assert!(w[0].at <= w[1].at);
        }
        for a in &arrivals {
            assert!(a.at <= cfg.window);
            assert!(a.iterations >= 5);
            assert!((1..=4).contains(&a.learners));
            assert!(a.tenant < (cfg.whales + cfg.smalls) as usize);
            // Distributed jobs are whale-only so every job fits its
            // tenant's quota slice.
            if a.learners > 1 {
                assert!((a.tenant as u32) < cfg.whales);
            }
        }
        assert!(
            arrivals.iter().any(|a| a.learners > 1),
            "whales must draw some distributed jobs"
        );
    }

    #[test]
    fn generation_is_deterministic() {
        let cfg = TrafficConfig::default();
        let a = generate(&mut rng(11), &cfg, 2_000);
        let b = generate(&mut rng(11), &cfg, 2_000);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.at, y.at);
            assert_eq!(x.tenant, y.tenant);
            assert_eq!(x.iterations, y.iterations);
            assert_eq!(x.learners, y.learners);
        }
    }

    #[test]
    fn whales_carry_about_half_the_traffic() {
        let cfg = TrafficConfig::default();
        let arrivals = generate(&mut rng(13), &cfg, 20_000);
        let whale_jobs = arrivals
            .iter()
            .filter(|a| (a.tenant as u32) < cfg.whales)
            .count() as f64;
        let share = whale_jobs / arrivals.len() as f64;
        assert!(
            (0.40..=0.60).contains(&share),
            "whale share {share:.2} far from configured 0.5"
        );
    }

    #[test]
    fn arrivals_follow_the_diurnal_swing() {
        let cfg = TrafficConfig::default();
        let arrivals = generate(&mut rng(17), &cfg, 50_000);
        // λ ∝ 1 + 0.6·sin(2πx): the first half-window (sin > 0) must
        // hold visibly more arrivals than the second.
        let half = cfg.window.as_micros() / 2;
        let first = arrivals.iter().filter(|a| a.at.as_micros() < half).count() as f64;
        let ratio = first / arrivals.len() as f64;
        assert!(
            ratio > 0.55,
            "expected diurnal skew toward the first half, got {ratio:.2}"
        );
    }

    #[test]
    fn bursts_cluster_same_tenant_submissions() {
        let cfg = TrafficConfig {
            burst_p: 1.0, // every arrival opens a burst
            ..TrafficConfig::default()
        };
        let arrivals = generate(&mut rng(19), &cfg, 1_000);
        // With bursts of ≥2 everywhere, adjacent same-tenant pairs must
        // be common even after the global sort.
        let same_tenant_adjacent = arrivals
            .windows(2)
            .filter(|w| w[0].tenant == w[1].tenant)
            .count() as f64;
        assert!(same_tenant_adjacent / arrivals.len() as f64 > 0.3);
    }

    #[test]
    fn durations_are_heavy_tailed() {
        let cfg = TrafficConfig::default();
        let arrivals = generate(&mut rng(23), &cfg, 20_000);
        let mut iters: Vec<u64> = arrivals.iter().map(|a| a.iterations).collect();
        iters.sort_unstable();
        let med = iters[iters.len() / 2] as f64;
        let p99 = iters[iters.len() * 99 / 100] as f64;
        assert!(
            p99 / med > 5.0,
            "log-normal tail too thin: median {med}, p99 {p99}"
        );
    }

    #[test]
    fn capacity_and_quota_sizing() {
        let cfg = TrafficConfig::default();
        let cap = cfg.capacity_gpus(10_000);
        assert!(cap >= 8);
        let total: u64 = (0..(cfg.whales + cfg.smalls) as usize)
            .map(|i| u64::from(cfg.quota_of(i, cap)))
            .sum();
        // Quotas allocate the cluster without oversubscribing it badly
        // (the .max(2) floor can push tiny clusters slightly over).
        assert!(total <= u64::from(cap) + u64::from(cfg.whales + cfg.smalls) * 2);
        // Whales get the bigger slice.
        assert!(cfg.quota_of(0, cap) > cfg.quota_of((cfg.whales + cfg.smalls - 1) as usize, cap));
    }

    /// The traffic baseline holds wall-rate floors next to tenant p99
    /// ceilings; the one gate checks both.
    #[test]
    fn baseline_check_gates_wall_rate_and_p99() {
        let gate = |wall: &str, traffic: &str, base: &str| {
            crate::artifact::check_against_baseline(&[wall, traffic], base, 0.10)
        };
        let tenants = |p99: f64| {
            format!("{{\"runs\": [{{\"run\": \"n1000\", \"tenants\": [{{\"tenant\": \"whale-0\", \"p99\": {p99}}}]}}]}}")
        };
        let wall = |rate: f64| {
            format!("{{\"workloads\": [{{\"name\": \"n1000\", \"events_per_wall_sec\": {rate}}}]}}")
        };
        let base = "{\"workloads\": [{\"name\": \"n1000\", \"events_per_wall_sec\": 1000.0}], \
                    \"runs\": [{\"run\": \"n1000\", \"tenants\": [{\"tenant\": \"whale-0\", \"p99\": 120.0}]}]}";
        let ok = gate(&wall(950.0), &tenants(125.0), base).expect("within tolerance");
        assert_eq!(ok.len(), 2);

        let v = gate(&wall(500.0), &tenants(125.0), base).expect_err("slow");
        assert!(
            v.iter().any(|l| l.starts_with("REGRESSION n1000:")),
            "{v:?}"
        );

        let v = gate(&wall(950.0), &tenants(200.0), base).expect_err("starved");
        assert!(
            v.iter().any(|l| l.starts_with("REGRESSION n1000/whale-0")),
            "{v:?}"
        );

        assert!(
            gate(&wall(950.0), "{\"runs\": []}", base).is_err(),
            "missing tenant"
        );

        // The committed baseline passes against its own figures and fails
        // 20% past them in either direction.
        let committed = include_str!("../../../BENCH_traffic.baseline.json");
        let check = |cur: &str| crate::artifact::check_against_baseline(&[cur], committed, 0.10);
        assert_eq!(check(committed).map(|r| r.len()), Ok(13));
        assert!(check(&committed.replace("511595.4", "409276.3")).is_err());
        assert!(check(&committed.replace("3578.275862", "4293.931034")).is_err());
    }
}
