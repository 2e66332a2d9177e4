//! One benchmark process: runs one workload of the dlaas platform on one
//! thread and prints its readings as a JSON object on the last line of
//! standard output.
//!
//! ```text
//! dlaas-perfbench --workload traffic|burst|chaos --seed N
//!                 [--mode plain|traced] [--calibrate] [--out DIR]
//! ```
//!
//! `plain` times a batch of platform set-ups, then runs the workload
//! once untraced. `traced` runs it once through the step-attribution
//! loop (see `trace.rs`) and writes a Chrome trace and a self-time table
//! into `DIR`. `--calibrate` first times the engine bench's kernel-only
//! churn as host-speed context. Both modes print a digest of the run's
//! sim-derived output, which is byte-identical for a given seed.
//! `perfbench/run.py` runs these processes and aggregates them.

mod layers;
mod rig;
mod span;
mod trace;

use std::fmt::Write as _;

use dlaas_obs::wallclock::WallTimer;
use dlaas_sim::SimTime;
use rig::{arm, drain, finish, setup, Armed, Finished, Rig, Spec, Workload};
use span::Spans;

/// Set-ups timed before the measured runs (each measured run adds one).
const SETUP_SAMPLES: usize = 30;

struct Args {
    workload: Workload,
    seed: u64,
    calibrate: bool,
    traced: bool,
    out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut calibrate = false;
    let mut traced = None;
    let mut out = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--calibrate" {
            calibrate = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--mode" => {
                traced = Some(match value.as_str() {
                    "plain" => false,
                    "traced" => true,
                    _ => return Err(format!("unknown mode {value}")),
                });
            }
            "--out" => out = Some(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        calibrate,
        traced: traced.unwrap_or(false),
        out,
    })
}

fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Linear-interpolated quantile of `v` (0 when empty).
fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Metrics as `(name, value, unit)`.
type Metrics = Vec<(String, f64, &'static str)>;

fn push(m: &mut Metrics, name: &str, value: f64, unit: &'static str) {
    m.push((name.to_owned(), value, unit));
}

/// The sim-derived end-to-end metrics of one finished run.
fn sim_metrics(f: &Finished, m: &mut Metrics) {
    push(m, "submit_ack_p50_ms", quantile(&f.ack_ms, 0.50), "ms");
    push(m, "submit_ack_p99_ms", quantile(&f.ack_ms, 0.99), "ms");
    push(
        m,
        "completed_share",
        f.completed as f64 / f.attempted.max(1) as f64,
        "share",
    );
    push(
        m,
        "api_available_share",
        1.0 - f.api_unavailable_s as f64 / f.api_probes.max(1) as f64,
        "share",
    );
}

/// Per-layer counts of one finished run (the traced run adds wall rows).
fn layer_metrics(rig: &Rig, f: &Finished, events: u64, pending_peak: usize) -> Metrics {
    let mut m: Metrics = layers::counts(&rig.platform, f.attempted, events)
        .into_iter()
        .map(|(name, v)| {
            let unit = if name.ends_with("_s") {
                "s"
            } else if name.contains("per_") {
                "ratio"
            } else {
                "count"
            };
            (name, v, unit)
        })
        .collect();
    push(&mut m, "sim.pending_peak", pending_peak as f64, "count");
    push(&mut m, "api.unavailable_s", f.api_unavailable_s as f64, "s");
    push(
        &mut m,
        "jobs.turnaround_p50_s",
        quantile(&f.turnaround_s, 0.50),
        "s",
    );
    push(
        &mut m,
        "jobs.turnaround_p99_s",
        quantile(&f.turnaround_s, 0.99),
        "s",
    );
    push(
        &mut m,
        "jobs.failed_share",
        f.failed as f64 / f.attempted.max(1) as f64,
        "share",
    );
    push(
        &mut m,
        "etcd.unavailable_s",
        f.etcd_unavailable_s as f64,
        "s",
    );
    push(
        &mut m,
        "docstore.unavailable_s",
        f.docstore_unavailable_s as f64,
        "s",
    );
    m
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).unwrap(),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_metrics(m: &Metrics) -> String {
    let body: Vec<String> = m
        .iter()
        .map(|(n, v, u)| format!("{}: [{}, {}]", json_str(n), json_num(*v), json_str(u)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

struct Report {
    digest: u64,
    problems: Vec<String>,
    attempted: u64,
    failed: u64,
    /// Wall seconds of the measured region (window plus minimum drain).
    wall_s: f64,
    extra: Vec<(&'static str, f64)>,
    e2e: Metrics,
    layer: Metrics,
}

fn write_out(dir: Option<&str>, name: &str, body: &str) {
    if let Some(dir) = dir {
        let path = format!("{dir}/{name}");
        if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, body)) {
            eprintln!("perfbench: cannot write {path}: {e}");
        }
    }
}

/// One run of the workload on a freshly set-up rig.
struct Run {
    armed: Armed,
    fin: Finished,
    /// Wall seconds of the measured region.
    wall_s: f64,
    layer: Metrics,
}

/// Arms `rig`, lets `measure` advance it through the measured region
/// (window plus minimum drain), drains the rest untimed and closes the
/// run, writing its digest as `<workload>-s<seed>-<mode>.digest.txt`.
fn run_once(
    args: &Args,
    spec: &Spec,
    mut rig: Rig,
    mode: &str,
    measure: impl FnOnce(&mut Rig, SimTime),
) -> Run {
    let armed = arm(&mut rig, spec);
    let events0 = rig.sim.events_executed();
    let w = WallTimer::start();
    measure(&mut rig, armed.settle);
    let wall_s = w.elapsed_secs();
    let events = rig.sim.events_executed() - events0;
    drain(&mut rig, &armed);
    let fin = finish(&rig, &armed);
    write_out(
        args.out.as_deref(),
        &format!("{}-s{}-{mode}.digest.txt", spec.workload.name(), spec.seed),
        &fin.digest_text,
    );
    let peak = armed.log.borrow().pending_peak;
    let layer = layer_metrics(&rig, &fin, events, peak);
    Run {
        armed,
        fin,
        wall_s,
        layer,
    }
}

impl Run {
    fn report(self, e2e: Metrics, extra: Vec<(&'static str, f64)>) -> Report {
        Report {
            digest: fnv1a(&self.fin.digest_text),
            problems: self.fin.problems,
            attempted: self.fin.attempted,
            failed: self.fin.failed,
            wall_s: self.wall_s,
            extra,
            e2e,
            layer: self.layer,
        }
    }
}

/// Times `SETUP_SAMPLES` set-ups, then runs the workload once untraced.
fn run_plain(args: &Args, spec: &Spec) -> Report {
    let mut setups = Vec::with_capacity(SETUP_SAMPLES);
    for _ in 0..SETUP_SAMPLES {
        let t = WallTimer::start();
        let rig = setup(spec, None);
        setups.push(t.elapsed_secs());
        drop(rig);
    }
    let run = run_once(args, spec, setup(spec, None), "plain", |rig, settle| {
        rig.sim.run_until(settle);
    });
    let mut e2e = Metrics::new();
    push(
        &mut e2e,
        "jobs_per_wall_s",
        run.fin.terminal_in_region as f64 / run.wall_s,
        "1/s",
    );
    push(
        &mut e2e,
        "sim_s_per_wall_s",
        run.fin.sim_secs / run.wall_s,
        "s/s",
    );
    push(&mut e2e, "setup_s", median(&setups), "s");
    sim_metrics(&run.fin, &mut e2e);
    run.report(e2e, Vec::new())
}

/// Runs the workload once through the step-attribution loop and writes
/// the Chrome trace and the self-time table.
fn run_traced(args: &Args, spec: &Spec, origin: WallTimer) -> Report {
    let mut spans = Spans::new(origin);
    let rig = setup(spec, Some(&mut spans));
    let mut ledger = trace::Ledger::new(&rig.sim, &spans);
    let mut run = run_once(args, spec, rig, "traced", |rig, settle| {
        ledger.run_until(&mut rig.sim, &rig.platform, settle);
    });
    ledger.close();
    let stem = format!("{}-s{}", spec.workload.name(), spec.seed);
    let table = ledger.table();
    write_out(
        args.out.as_deref(),
        &format!("{stem}.trace.json"),
        &trace::chrome_json(&spans, &ledger, &run.armed.log.borrow()),
    );
    write_out(args.out.as_deref(), &format!("{stem}.layers.txt"), &table);
    eprint!("{table}");

    let layer = &mut run.layer;
    let w = &ledger.wall_s;
    push(layer, "raft.wall_s", w[0], "s");
    push(layer, "etcd.wall_s", w[1] + w[2], "s");
    push(layer, "docstore.wall_s", w[3], "s");
    push(layer, "api.wall_s", w[4], "s");
    push(layer, "kube.wall_s", w[5], "s");
    push(layer, "sim.unattributed_wall_s", w[6], "s");
    push(
        layer,
        "sim.unattributed_events",
        ledger.steps[6][0] as f64,
        "count",
    );
    let mut e2e = Metrics::new();
    sim_metrics(&run.fin, &mut e2e);
    let extra = vec![
        ("stepping_wall_s", ledger.stepping_wall_s),
        ("accounted_wall_s", w.iter().sum()),
    ];
    run.report(e2e, extra)
}

fn main() {
    let origin = WallTimer::start();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let spec = Spec::new(args.workload, args.seed);
    // Host-speed context: the engine bench's kernel-only churn, run in
    // this process before the workload.
    let calib = args.calibrate.then(|| {
        dlaas_bench::engine::kernel_churn(args.seed, 10_000, 1_000_000).events_per_wall_sec()
    });
    let mut r = if args.traced {
        run_traced(&args, &spec, origin)
    } else {
        run_plain(&args, &spec)
    };
    if let Some(c) = calib {
        push(&mut r.layer, "sim.calib_events_per_wall_s", c, "1/s");
    }
    for p in &r.problems {
        eprintln!("perfbench: {p}");
    }
    let problems: Vec<String> = r.problems.iter().map(|p| json_str(p)).collect();
    let mut line = format!(
        "{{\"workload\": {}, \"seed\": {}, \"digest\": \"{:016x}\", \"problems\": [{}], \"attempted\": {}, \"failed\": {}, \"wall_s\": {}",
        json_str(spec.workload.name()),
        spec.seed,
        r.digest,
        problems.join(", "),
        r.attempted,
        r.failed,
        json_num(r.wall_s)
    );
    for (k, v) in &r.extra {
        write!(line, ", {}: {}", json_str(k), json_num(*v)).unwrap();
    }
    write!(
        line,
        ", \"e2e\": {}, \"layer\": {}}}",
        json_metrics(&r.e2e),
        json_metrics(&r.layer)
    )
    .unwrap();
    println!("{line}");
}
