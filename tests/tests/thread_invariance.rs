//! Thread-count invariance of the campaign runner: the same campaign
//! must produce byte-identical reports, JSON artifacts, and metrics
//! expositions whether it ran on one worker or eight. This is the
//! acceptance gate for the seed-parallel runner — parallelism may only
//! change wall-clock, never bytes.

use dlaas_bench::matrix;
use dlaas_bench::runner::CampaignReport;
use dlaas_bench::soak::{self, Profile};

/// Everything byte-comparable a matrix campaign produces: the rendered
/// JSON artifact, the aggregated metrics exposition, and every outcome's
/// describe line, in order.
fn matrix_fingerprint(base_seed: u64, seeds: u64, threads: usize) -> String {
    let campaign = matrix::sweep(&matrix::FaultKind::all(), base_seed, seeds, threads, None);
    let mut out = matrix::render_matrix_json(base_seed, seeds, &campaign);
    out.push_str(&campaign.metrics.expose());
    for o in &campaign.outcomes {
        out.push_str(&o.describe());
        out.push('\n');
    }
    for r in &campaign.report.records {
        out.push_str(&r.describe());
        out.push('\n');
    }
    out
}

#[test]
fn fault_matrix_is_byte_identical_at_any_thread_count() {
    let one = matrix_fingerprint(700, 1, 1);
    let eight = matrix_fingerprint(700, 1, 8);
    assert_eq!(
        one, eight,
        "fault-matrix campaign diverged between --threads 1 and --threads 8"
    );
    assert!(
        one.contains("bench_matrix_recovery_seconds"),
        "campaign recorded no recovery observations"
    );
}

#[test]
fn chaos_soak_summaries_are_byte_identical_at_any_thread_count() {
    let run = |threads: usize| soak::campaign(Profile::Chaos, 710, 2, &[1], None, threads);
    let fingerprint = |report: &CampaignReport<soak::Run>| {
        let mut out = String::new();
        for r in &report.records {
            out.push_str(&r.describe());
            out.push('\n');
        }
        for s in report.results() {
            out.push_str(&s.describe());
            out.push('\n');
        }
        out
    };
    let (one, eight) = (run(1), run(8));
    assert_eq!(
        fingerprint(&one),
        fingerprint(&eight),
        "chaos-soak campaign diverged between --threads 1 and --threads 8"
    );
    // Every soak ends clean: jobs went in, none is left in limbo, no
    // invariant broke during the run or at its end.
    assert!(one.abnormal().is_empty(), "{:?}", one.failure_records());
    assert_eq!(one.results().count(), 2);
    for s in one.results() {
        assert!(s.submitted > 0 && s.clean(), "dirty soak: {}", s.describe());
    }
}
