//! Validates exported observability artifacts.
//!
//! * `--trace t.json` — a Chrome trace-event export: the file must parse
//!   as JSON and hold a `traceEvents` array whose entries all carry
//!   `name`/`ph`/`ts`/`pid`/`tid`, with `B`/`E` duration slices balanced
//!   per `(pid, tid)` track (never dipping negative), async `b`/`e`
//!   arrows paired per `id` and complete `X` slices carrying a
//!   non-negative `dur`. Each instant's `name` and `args` get the same
//!   per-kind rules as journal lines.
//! * `--profile p.json` — the file must parse as JSON and every
//!   shard's `busy_frac + reconfig_frac + idle_frac + quarantined_frac`
//!   must sum to 1 (±1e-9), or to 0 for an empty makespan.
//! * `--journal j.shard000.jsonl` — a per-shard streamed journal: every
//!   line parses as JSON with `time_ps`/`shard`/`seq`/`kind`, the kind
//!   is one the tracer can emit and its fields pass the per-kind rules
//!   (every decision and configuration-plane event describes itself),
//!   all lines carry the same shard id, and `seq` strictly increases
//!   (the stream is in emission order — `seq` is the shard's own
//!   counter, while `time_ps` may step back for backdated admission
//!   events).
//! * `--journal-merged j.merged.jsonl` — the cross-shard merge: the
//!   same per-line checks, plus the `(time_ps, shard, seq)` key must
//!   strictly increase — the canonical total order the merge sorts by.
//! * `--telemetry t.shard000.tl.jsonl` — a per-shard telemetry stream:
//!   every line parses as JSON with `tick`/`time_ps`/`shard`/`seq`/
//!   `scope`/`gauges`, the scope is non-empty, the gauges object is a
//!   non-empty map of finite numbers, all lines carry the same shard
//!   id, `tick` never steps back and `seq` strictly increases.
//! * `--telemetry-merged t.merged.tl.jsonl` — the cross-shard merge:
//!   the same per-line checks, plus the `(tick, shard, seq)` key must
//!   strictly increase — the total order the merge sorts by.
//!
//! Both stream kinds and the Chrome export go through one checker,
//! [`rtr_bench::lint`], which reads the key field names from each row
//! type's journal declaration and holds the per-kind event rules.
//!
//! Exits non-zero with one line per violation; CI runs it after the
//! scenario smoke runs so a malformed export fails the build.

use std::process::ExitCode;

use rtr_bench::lint::{lint_chrome, lint_stream, StreamLint};
use rtr_bench::scenario::ScenarioArgs;
use rtr_telemetry::TelemetryRow;
use rtr_trace::TraceEvent;
use vp2_sim::Json;

/// Tolerance on the per-shard fraction sum.
const EPSILON: f64 = 1e-9;

fn load(path: &str, problems: &mut Vec<String>) -> Option<Json> {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => {
            problems.push(format!("{path}: cannot read: {e}"));
            return None;
        }
    };
    match Json::parse(&text) {
        Ok(json) => Some(json),
        Err(e) => {
            problems.push(format!("{path}: not valid JSON: {e}"));
            None
        }
    }
}

/// Checks one streamed JSONL file of `R` rows with the shared stream
/// checker and reports its line count.
fn lint_file<R: StreamLint>(path: &str, merged: bool, problems: &mut Vec<String>) {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => {
            problems.push(format!("{path}: cannot read: {e}"));
            return;
        }
    };
    let lines = lint_stream::<R>(path, &text, merged, problems);
    let flavor = if merged { "merged" } else { "per-shard" };
    eprintln!("[lint] {path}: {lines} {flavor} {} line(s)", R::NOUN);
}

/// Checks that each shard's fractions partition its makespan.
fn lint_profile(path: &str, doc: &Json, problems: &mut Vec<String>) {
    let Some(shards) = doc.get("shards").and_then(Json::as_arr) else {
        problems.push(format!("{path}: no shards array"));
        return;
    };
    for (i, shard) in shards.iter().enumerate() {
        let frac = |key: &str| shard.get(key).and_then(Json::as_f64);
        let parts = [
            frac("busy_frac"),
            frac("reconfig_frac"),
            frac("idle_frac"),
            frac("quarantined_frac"),
        ];
        if parts.iter().any(Option::is_none) {
            problems.push(format!("{path}: shard {i} is missing a *_frac field"));
            continue;
        }
        let sum: f64 = parts.iter().map(|p| p.unwrap()).sum();
        let makespan = frac("makespan_us").unwrap_or(0.0);
        let expected = if makespan == 0.0 { 0.0 } else { 1.0 };
        if (sum - expected).abs() > EPSILON {
            problems.push(format!(
                "{path}: shard {i} fractions sum to {sum} (expected {expected})"
            ));
        }
    }
    eprintln!("[lint] {path}: {} shard(s)", shards.len());
}

fn main() -> ExitCode {
    let args = ScenarioArgs::parse();
    let mut problems = Vec::new();
    let mut checked = 0;
    if let Some(path) = args.trace_path() {
        checked += 1;
        if let Some(doc) = load(&path, &mut problems) {
            let events = lint_chrome(&path, &doc, &mut problems);
            eprintln!("[lint] {path}: {events} trace event(s)");
        }
    }
    if let Some(path) = args.profile_path() {
        checked += 1;
        if let Some(doc) = load(&path, &mut problems) {
            lint_profile(&path, &doc, &mut problems);
        }
    }
    for (flag, merged) in [("--journal", false), ("--journal-merged", true)] {
        if let Some(path) = args.value_of(flag) {
            checked += 1;
            lint_file::<TraceEvent>(&path, merged, &mut problems);
        }
    }
    for (flag, merged) in [("--telemetry", false), ("--telemetry-merged", true)] {
        if let Some(path) = args.value_of(flag) {
            checked += 1;
            lint_file::<TelemetryRow>(&path, merged, &mut problems);
        }
    }
    if checked == 0 {
        eprintln!(
            "usage: trace_lint [--trace chrome.json] [--profile profile.json] \
             [--journal j.shard000.jsonl] [--journal-merged j.merged.jsonl] \
             [--telemetry t.shard000.tl.jsonl] [--telemetry-merged t.merged.tl.jsonl]"
        );
        return ExitCode::from(2);
    }
    if problems.is_empty() {
        eprintln!("[lint] ok");
        ExitCode::SUCCESS
    } else {
        for p in &problems {
            eprintln!("[lint] FAIL {p}");
        }
        ExitCode::FAILURE
    }
}
