//! How bench artifacts are written and gated: one fixed-order JSON
//! writer for every `BENCH_*.json`, and one baseline check over them.
//!
//! The writer takes values already formatted (integers, fixed-precision
//! floats), so an artifact built only from simulated data is
//! byte-identical for a given seed at any `--threads`. Wall-clock
//! readings go only into `workloads` documents (the engine bench and the
//! soak `.wall.json` sidecars), which the gate compares with a tolerance
//! and nothing ever compares byte for byte.

use std::fmt::Write as _;

use dlaas_docstore::Value;

use crate::engine::EngineRun;

/// A JSON value whose layout is fixed by construction.
#[derive(Debug, Clone)]
pub(crate) enum Json {
    /// Emitted verbatim: a formatted number, `true`, `false` or `null`.
    Raw(String),
    /// A string, escaped on output.
    Str(String),
    /// An object on one line: `{"k": v, "k2": v2}`.
    Line(Vec<(String, Json)>),
    /// An object with one field per line, indented two spaces per level.
    Block(Vec<(String, Json)>),
    /// An array with one item per line.
    List(Vec<Json>),
}

/// An integer (or any `Display` value) emitted verbatim.
pub(crate) fn int(v: impl std::fmt::Display) -> Json {
    Json::Raw(v.to_string())
}

/// A float with six decimals.
pub(crate) fn f6(v: f64) -> Json {
    Json::Raw(format!("{v:.6}"))
}

/// A string.
pub(crate) fn text(s: impl Into<String>) -> Json {
    Json::Str(s.into())
}

/// Fields of an object, keys borrowed.
pub(crate) fn fields<const N: usize>(kv: [(&str, Json); N]) -> Vec<(String, Json)> {
    kv.into_iter().map(|(k, v)| (k.to_owned(), v)).collect()
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

impl Json {
    /// The document text, newline-terminated.
    pub(crate) fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, depth: usize) {
        let pad = |d: usize| "  ".repeat(d);
        match self {
            Json::Raw(s) => out.push_str(s),
            Json::Str(s) => write!(out, "\"{}\"", escape(s)).unwrap(),
            Json::Line(kv) => {
                out.push('{');
                for (i, (k, v)) in kv.iter().enumerate() {
                    out.push_str(if i > 0 { ", " } else { "" });
                    write!(out, "\"{k}\": ").unwrap();
                    v.write(out, depth);
                }
                out.push('}');
            }
            Json::Block(kv) => {
                out.push_str("{\n");
                for (i, (k, v)) in kv.iter().enumerate() {
                    out.push_str(if i > 0 { ",\n" } else { "" });
                    write!(out, "{}\"{k}\": ", pad(depth + 1)).unwrap();
                    v.write(out, depth + 1);
                }
                write!(out, "\n{}}}", pad(depth)).unwrap();
            }
            Json::List(items) => {
                out.push_str("[\n");
                for (i, v) in items.iter().enumerate() {
                    out.push_str(if i > 0 { ",\n" } else { "" });
                    out.push_str(&pad(depth + 1));
                    v.write(out, depth + 1);
                }
                write!(out, "\n{}]", pad(depth)).unwrap();
            }
        }
    }
}

/// A `workloads` document (`BENCH_engine.json`, the soak `.wall.json`
/// sidecars): one line per run with its event count, simulated and wall
/// seconds and events per wall-second — where [`check_against_baseline`]
/// reads rates from.
pub fn workloads_json(bench: &str, seed: u64, runs: &[EngineRun]) -> String {
    let line = |r: &EngineRun| {
        Json::Line(fields([
            ("name", text(&r.name)),
            ("events", int(r.events)),
            ("sim_secs", f6(r.sim_secs)),
            ("wall_secs", f6(r.wall_secs)),
            (
                "events_per_wall_sec",
                Json::Raw(format!("{:.1}", r.events_per_wall_sec())),
            ),
        ]))
    };
    Json::Block(fields([
        ("bench", text(bench)),
        ("seed", int(seed)),
        ("workloads", Json::List(runs.iter().map(line).collect())),
    ]))
    .render()
}

/// The gated figures of one document, keyed by name: each
/// `workloads[]` rate in events per wall-second (a floor, `true`) and
/// each `runs[].tenants[]` p99 turnaround (a ceiling, `false`).
fn figures(doc: &Value) -> Vec<(String, bool, Option<f64>)> {
    let arr = |v: &Value, key: &str| v.path(key).and_then(Value::as_arr).unwrap_or(&[]).to_vec();
    let name = |v: &Value, key: &str| {
        v.path(key)
            .and_then(Value::as_str)
            .unwrap_or("?")
            .to_owned()
    };
    let num = |v: &Value, key: &str| v.path(key).and_then(Value::as_f64);
    let mut out: Vec<_> = (arr(doc, "workloads").iter())
        .map(|w| (name(w, "name"), true, num(w, "events_per_wall_sec")))
        .collect();
    for r in arr(doc, "runs") {
        for t in arr(&r, "tenants") {
            let key = format!("{}/{}", name(&r, "run"), name(&t, "tenant"));
            out.push((key, false, num(&t, "p99")));
        }
    }
    out
}

/// Compares fresh artifacts against a committed baseline, which is
/// itself an artifact. Every gated figure of the baseline (each
/// `workloads[]` rate and each `runs[].tenants[]` p99) must appear in
/// one of the `current` documents and stay within the fractional
/// `tolerance` of it: wall rates no more than `tolerance` below, tenant
/// p99s no more than `tolerance` above.
///
/// Returns one report line per figure on success, or the violations.
/// Unparseable JSON on either side, a figure without a value or missing
/// from the current run, and a baseline with nothing to compare are all
/// violations: the gate never passes by failing to read.
pub fn check_against_baseline(
    current: &[&str],
    baseline: &str,
    tolerance: f64,
) -> Result<Vec<String>, Vec<String>> {
    let parse = |which: &str, s: &str| {
        Value::parse_json(s).map_err(|e| vec![format!("{which}: unparseable JSON: {e:?}")])
    };
    let base = figures(&parse("baseline", baseline)?);
    let mut cur = Vec::new();
    for doc in current {
        cur.extend(figures(&parse("current", doc)?));
    }
    let (mut report, mut violations) = (Vec::new(), Vec::new());
    if base.is_empty() {
        violations.push("baseline: nothing to compare".to_owned());
    }
    for (key, floor, want) in &base {
        let got = cur.iter().find(|(k, f, _)| k == key && f == floor);
        let (Some(want), Some(got)) = (want, got.and_then(|c| c.2)) else {
            violations.push(format!(
                "{key}: missing from the baseline or the current run"
            ));
            continue;
        };
        let (line, regressed) = if *floor {
            let limit = want * (1.0 - tolerance);
            let line =
                format!("{key}: {got:.1} ev/wall-s vs baseline {want:.1} (floor {limit:.1})");
            (line, got < limit)
        } else {
            let limit = want * (1.0 + tolerance);
            let line = format!("{key}: p99 {got:.1}s vs baseline {want:.1}s (ceiling {limit:.1}s)");
            (line, got > limit)
        };
        if regressed {
            violations.push(format!("REGRESSION {line}"));
        } else {
            report.push(format!("ok {line}"));
        }
    }
    if violations.is_empty() {
        Ok(report)
    } else {
        Err(violations)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_lays_out_blocks_lines_and_lists() {
        let doc = Json::Block(fields([
            ("bench", text("x\"y")),
            (
                "rows",
                Json::List(vec![Json::Line(fields([("n", int(1)), ("v", f6(0.5))]))]),
            ),
            ("empty", Json::List(vec![])),
            (
                "nested",
                Json::Block(fields([("k", Json::Raw("null".into()))])),
            ),
        ]));
        assert_eq!(
            doc.render(),
            "{\n  \"bench\": \"x\\\"y\",\n  \"rows\": [\n    {\"n\": 1, \"v\": 0.500000}\n  ],\n  \
             \"empty\": [\n\n  ],\n  \"nested\": {\n    \"k\": null\n  }\n}\n"
        );
    }
}
