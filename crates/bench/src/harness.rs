//! Shared experiment machinery: boot a platform, run one training job
//! through the whole stack, and report the measured throughput.

use std::cell::RefCell;
use std::rc::Rc;

use dlaas_core::{
    DlaasPlatform, GpuNodeSpec, JobId, JobStatus, PlatformConfig, Tenant, TrainingManifest,
};
use dlaas_gpu::{DlModel, ExecEnv, Framework, GpuKind, Interconnect, TrainingConfig};
use dlaas_sim::{Sim, SimDuration};

/// API key used by every experiment tenant.
pub const BENCH_KEY: &str = "bench-key";

/// Outcome of running one job through the platform.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRun {
    /// Terminal status.
    pub status: JobStatus,
    /// Throughput measured by the learners (images/sec), when completed.
    pub images_per_sec: Option<f64>,
    /// Simulated seconds from submission to completion.
    pub wall_secs: f64,
}

/// Everything a bench platform is built from: the cluster, the tenants
/// and the two buckets its jobs read from and write to. Every experiment
/// and soak profile boots through [`Rig::boot`].
#[derive(Debug, Clone)]
pub struct Rig {
    /// Cluster shape and control-plane configuration.
    pub cluster: PlatformConfig,
    /// Tenants added once the platform is ready.
    pub tenants: Vec<Tenant>,
    /// Dataset bucket and its size in bytes (under prefix `d/`).
    pub data: (&'static str, u64),
    /// Results bucket.
    pub results: &'static str,
}

/// `count` nodes of `gpus_each` GPUs of `kind`, default control plane.
pub(crate) fn cluster(kind: GpuKind, count: u32, gpus_each: u32) -> PlatformConfig {
    PlatformConfig {
        gpu_nodes: vec![GpuNodeSpec {
            kind,
            count,
            gpus_each,
        }],
        ..PlatformConfig::default()
    }
}

impl Rig {
    /// The single-tenant `bench` rig of the figures and ablations: two
    /// nodes of `gpus_per_node` GPUs of `kind`.
    pub fn bench(kind: GpuKind, gpus_per_node: u32) -> Rig {
        Rig {
            cluster: cluster(kind, 2, gpus_per_node.max(1)),
            tenants: vec![Tenant::new("bench", BENCH_KEY, 0)],
            data: ("bench-data", 2_000_000_000),
            results: "bench-results",
        }
    }

    /// Boots the rig on a fresh simulation of `seed` and returns
    /// once the platform is ready with its tenants and buckets in place.
    pub fn boot(&self, seed: u64) -> (Sim, DlaasPlatform) {
        let mut sim = Sim::new(seed);
        let p = DlaasPlatform::new(&mut sim, self.cluster.clone());
        p.run_until_ready(&mut sim, SimDuration::from_secs(60));
        for t in &self.tenants {
            p.add_tenant(t).expect("bootstrap tenant insert");
        }
        p.seed_dataset(self.data.0, "d/", self.data.1);
        p.create_bucket(self.results);
        (sim, p)
    }
}

/// Submits `manifest` as the `bench` tenant and runs until the platform
/// acknowledges it.
///
/// # Panics
///
/// Panics if the platform rejects the submission.
pub fn submit_one(sim: &mut Sim, platform: &DlaasPlatform, manifest: TrainingManifest) -> JobId {
    let got: Rc<RefCell<Option<JobId>>> = Rc::new(RefCell::new(None));
    let g = got.clone();
    platform
        .client("bench", BENCH_KEY)
        .submit(sim, manifest, move |_s, r| {
            *g.borrow_mut() = Some(r.expect("submission accepted"));
        });
    sim.run_until_pred(|_| got.borrow().is_some());
    got.take().expect("submitted")
}

/// Standard manifest for throughput experiments (no checkpoints, so the
/// measured rate is clean steady-state training).
pub fn throughput_manifest(
    model: DlModel,
    framework: Framework,
    gpu: GpuKind,
    gpus: u32,
    iterations: u64,
) -> TrainingManifest {
    TrainingManifest::builder(format!("{model}-{framework}-x{gpus}"))
        .framework(framework)
        .model(model)
        .gpus(gpu, gpus)
        .learners(1)
        .data("bench-data", "d/", 2_000_000_000)
        .results("bench-results")
        .iterations(iterations)
        .build()
        .expect("valid experiment manifest")
}

/// Submits `manifest` on a fresh platform with control-plane config
/// `core` and runs it to a terminal state, returning the measured
/// numbers. `seed` controls all simulated noise (placement, jitter,
/// timings).
pub fn measure_dlaas_throughput(
    seed: u64,
    manifest: TrainingManifest,
    core: dlaas_core::CoreConfig,
) -> JobRun {
    let mut rig = Rig::bench(
        manifest.gpu_kind,
        manifest.gpus_per_learner * manifest.learners,
    );
    rig.cluster.core = core;
    let (mut sim, platform) = rig.boot(seed);
    let job = submit_one(&mut sim, &platform, manifest);
    let submitted_at = sim.now();

    let status = platform
        .wait_for_status(
            &mut sim,
            &job,
            JobStatus::Completed,
            SimDuration::from_hours(12),
        )
        .unwrap_or(JobStatus::Failed);
    let info = platform.job_info(&job).expect("job recorded");
    JobRun {
        status,
        images_per_sec: info.images_per_sec,
        wall_secs: (sim.now() - submitted_at).as_secs_f64(),
    }
}

/// The bare-metal comparison arm: the same training computation without
/// any platform (no container, no helpers), measured the same way the
/// paper measured its baseline — a separate manual run on identical
/// hardware, with its own run-to-run jitter.
pub fn bare_metal_images_per_sec(
    seed: u64,
    model: DlModel,
    framework: Framework,
    gpu: GpuKind,
    gpus: u32,
    env: ExecEnv,
    jitter: f64,
) -> f64 {
    let cfg = TrainingConfig {
        model,
        framework,
        gpu,
        gpus_per_learner: gpus,
        learners: 1,
        intra_interconnect: gpu.native_interconnect(),
        inter_interconnect: Interconnect::Ethernet1G,
        batch_per_gpu: model.batch_per_gpu(),
    };
    let base = dlaas_gpu::images_per_sec(&cfg, &env);
    // An independent measurement has independent noise.
    let label = format!("baremetal/{model}/{framework}/{gpu}/{gpus}");
    // dlaas-lint: allow(unseeded-rng): bare-metal baseline stream is derived from the explicit run seed passed by the caller, outside any Sim instance; still fully reproducible.
    let mut rng = dlaas_sim::SimRng::new(seed).fork(&label);
    if jitter > 0.0 {
        base * rng.range_f64(1.0 - jitter, 1.0 + jitter)
    } else {
        base
    }
}

/// Percentage difference `(baseline - measured) / baseline * 100`.
pub fn pct_diff(baseline: f64, measured: f64) -> f64 {
    (baseline - measured) / baseline * 100.0
}

/// Prints a table row list with a header (fixed-width, paper style).
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    let widths: Vec<usize> = header
        .iter()
        .enumerate()
        .map(|(i, h)| {
            rows.iter()
                .map(|r| r.get(i).map_or(0, std::string::String::len))
                .chain(std::iter::once(h.len()))
                .max()
                .unwrap_or(0)
        })
        .collect();
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:<w$}"))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let header_cells: Vec<String> = header
        .iter()
        .map(std::string::ToString::to_string)
        .collect();
    let rule = "-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1));
    let mut out = format!("\n=== {title} ===\n{}\n{rule}", fmt_row(&header_cells));
    for r in rows {
        out.push('\n');
        out.push_str(&fmt_row(r));
    }
    // dlaas-lint: allow(debug-print): bench table renderer shared by the CLI bins; stdout is its API and it never runs inside the simulation.
    println!("{out}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pct_diff_signs() {
        assert!((pct_diff(100.0, 95.0) - 5.0).abs() < 1e-9);
        assert!(pct_diff(100.0, 105.0) < 0.0);
    }

    #[test]
    fn bare_metal_is_deterministic_per_seed() {
        let run = |seed| {
            bare_metal_images_per_sec(
                seed,
                DlModel::Resnet50,
                Framework::TensorFlow,
                GpuKind::K80,
                1,
                ExecEnv::bare_metal_streaming(0.117e9),
                0.015,
            )
        };
        assert_eq!(run(1), run(1));
        assert_ne!(run(1), run(2));
    }

    #[test]
    fn full_stack_throughput_close_to_model() {
        let m = throughput_manifest(
            DlModel::Resnet50,
            Framework::TensorFlow,
            GpuKind::K80,
            1,
            300,
        );
        let run = measure_dlaas_throughput(3, m, dlaas_core::CoreConfig::default());
        assert_eq!(run.status, JobStatus::Completed);
        let thr = run.images_per_sec.expect("throughput measured");
        // Model says ~52 img/s minus platform overheads and jitter.
        assert!((40.0..60.0).contains(&thr), "{thr}");
    }
}
