//! Error-sink analysis: recovery errors must go *somewhere*.
//!
//! The paper's dependability argument assumes every substrate failure
//! is either retried, propagated, or at minimum made visible to the
//! observability plane. An error that is silently dropped —
//! `let _ = fallible()`, `.ok();`, or an `Err` arm that does nothing —
//! is a recovery path that cannot be audited: the fault matrix cannot
//! attribute the resulting stuck job to anything.
//!
//! Two rules, scoped to the control-plane crates' library code:
//!
//! - `discarded-result`: `let _ = <call>;` and statement-dropped
//!   `.ok();` — the error vanished without a trace.
//! - `swallowed-error`: a `match` arm with an `Err` pattern whose body
//!   neither exits (`return`/`?`), re-wraps (`Err(…)`/`Ok(…)`), calls a
//!   handler (retry scheduling, job failure, responder), nor bumps a
//!   metric. Pure value-mapping arms (`Err(_) => 0`) are fine — the
//!   mapped value *is* the handling.

use crate::engine::{FileClass, FileMeta};
use crate::parser::{visit, Node, ParsedFile};
use crate::rules::Finding;

/// Crates whose lib code is subject to error-sink analysis.
pub const SINK_CRATES: &[&str] = &["core", "etcd", "docstore", "kube"];

/// Call names accepted as *handling* an error: metric mutation, retry
/// scheduling, job/state degradation, responders, or explicit
/// re-wrapping.
const HANDLERS: &[&str] = &[
    "inc",
    "inc_by",
    "inc_id",
    "inc_by_id",
    "observe",
    "observe_id",
    "observe_duration_us",
    "set_gauge",
    "add_gauge",
    "schedule_in",
    "schedule_at",
    "err",
    "fail",
    "fail_job",
    "retry",
    "respond",
    "done",
    "Err",
    "Ok",
    "Some",
];

/// Runs error-sink analysis over one parsed file.
pub fn check_sinks(meta: &FileMeta, parsed: &ParsedFile) -> Vec<Finding> {
    if meta.class != FileClass::Lib || !SINK_CRATES.contains(&meta.krate.as_str()) {
        return Vec::new();
    }
    let mut out = Vec::new();
    for f in &parsed.fns {
        if f.in_test {
            continue;
        }
        visit(&f.body, &mut |n| match n {
            Node::Discard {
                line,
                has_call: true,
            } => out.push(Finding {
                file: meta.path.clone(),
                line: *line,
                rule: "discarded-result",
                message: "`let _ =` discards a call result; if it is a Result, the error \
                          vanishes without retry, propagation, or a metric — handle it or \
                          justify the suppression"
                    .into(),
            }),
            Node::Call(c) if c.name == "ok" && c.is_method && c.discarded && c.n_args == 0 => {
                out.push(Finding {
                    file: meta.path.clone(),
                    line: c.line,
                    rule: "discarded-result",
                    message: "statement-dropped `.ok()` swallows the error branch; handle the \
                              Err (retry, propagate, or bump a metric) or justify the \
                              suppression"
                        .into(),
                });
            }
            Node::Branch { arms, .. } => {
                for a in arms {
                    if !a.pattern.iter().any(|p| p == "Err") {
                        continue;
                    }
                    let mut has_call = false;
                    let mut handled = false;
                    visit(&a.body, &mut |bn| match bn {
                        Node::Call(c) => {
                            // Macro calls (`format!`, …) are value
                            // construction, not work that could have
                            // handled the error.
                            if !c.is_macro {
                                has_call = true;
                            }
                            if HANDLERS.contains(&c.name.as_str())
                                // `responder.ok(sim, resp)` sends a
                                // response — propagation to the caller.
                                // (0-arg `.ok()` is Result::ok, which
                                // `discarded-result` covers.)
                                || (c.name == "ok" && c.n_args > 0)
                            {
                                handled = true;
                            }
                        }
                        Node::Exit { .. } | Node::Panic { .. } => handled = true,
                        _ => {}
                    });
                    // Explicitly-empty arm (`{}`/`()`): a silent swallow.
                    // Call-bearing arm with no handler: the calls do work
                    // but the error still vanishes. Call-free non-empty
                    // arm: value mapping — the mapped value is the
                    // handling.
                    if a.empty || (has_call && !handled) {
                        out.push(Finding {
                            file: meta.path.clone(),
                            line: a.line,
                            rule: "swallowed-error",
                            message: "`Err` arm neither propagates, retries, fails the job, \
                                      nor bumps a metric — a silent recovery-error sink; \
                                      handle it or justify the suppression"
                                .into(),
                        });
                    }
                }
            }
            _ => {}
        });
    }
    out
}
