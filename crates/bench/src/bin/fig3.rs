//! Regenerates Figure 3: DLaaS (PCIe P100) vs NVIDIA DGX-1 (NVLink).
//!

use dlaas_bench::fig3;
use dlaas_bench::flags::Args;
use dlaas_bench::harness::print_table;

fn main() {
    let mut args = Args::from_env(&[]);
    let seed: u64 = args.pos("seed", 2018);
    let iterations: u64 = args.pos("iterations", 400);
    args.done("usage: fig3 [seed] [iterations]\n  defaults: seed 2018, 400 iterations");

    eprintln!("running 6 full-stack training jobs (seed {seed}, {iterations} iters)…");
    let results = fig3::run_all(seed, iterations);

    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|r| {
            vec![
                r.cell.model.to_string(),
                "TensorFlow".to_owned(),
                r.cell.gpus.to_string(),
                "P100".to_owned(),
                format!("{:.1}", r.dgx1),
                format!("{:.1}", r.dlaas),
                format!("{:.2}%", r.measured_pct),
                format!("{:.2}%", r.cell.paper_pct),
            ]
        })
        .collect();
    print_table(
        "Fig. 3 — DLaaS vs NVIDIA DGX-1 bare metal (TensorFlow HPM benchmarks)",
        &[
            "Benchmark",
            "Framework",
            "#GPUs",
            "GPU",
            "DGX-1 img/s",
            "DLaaS img/s",
            "diff (ours)",
            "diff (paper)",
        ],
        &rows,
    );
    println!(
        "\nshape check: deficit grows with GPU count, worst for VGG-16, ≤ ~15% \
         (the DGX-1 costs 2-3x more — the paper's cost-effectiveness argument)"
    );
}
