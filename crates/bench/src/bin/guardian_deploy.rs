//! Measures the §III-d claim: "Creation of the Guardian is a very quick
//! (less than 3s in our experiments) single step process."

use dlaas_bench::fig4::guardian_creation_time;
use dlaas_bench::flags::Args;
use dlaas_faults::RecoveryStats;

fn main() {
    let mut args = Args::from_env(&[]);
    let trials: u64 = args.pos("trials", 10);
    args.done("usage: guardian_deploy [trials]\n  default: 10 trials");
    let mut stats = RecoveryStats::new();
    for seed in 0..trials {
        stats.push(guardian_creation_time(1000 + seed));
    }
    println!("Guardian creation time (submit ACK -> guardian container running)");
    println!("  trials:   {trials}");
    println!("  measured: {}", stats.range_secs());
    println!("  mean:     {:.2}s", stats.mean().unwrap().as_secs_f64());
    println!("  paper:    < 3s");
    assert!(
        stats.max().unwrap() < dlaas_sim::SimDuration::from_secs(3),
        "claim violated"
    );
}
