//! Validates exported observability artifacts.
//!
//! * `--trace t.json` — the file must parse as JSON, hold a
//!   `traceEvents` array whose entries all carry `name`/`ph`/`ts`/
//!   `pid`/`tid`, with `B`/`E` duration slices balanced per
//!   `(pid, tid)` track (never dipping negative), async `b`/`e`
//!   arrows paired per `id`, complete `X` slices carrying a
//!   non-negative `dur`, and every `sched decision` instant naming its
//!   `policy`, a `chosen` kernel, and a non-empty candidate set that
//!   contains the choice. Configuration-plane instants are checked
//!   too: `cache lookup` must carry a module and a boolean verdict,
//!   `diff swap` a word/frame accounting that never exceeds the full
//!   image, and `slot activate`/`slot evict` a module and slot index.
//!   Federation instants must be self-describing as well: `fed route`
//!   names its pool, kernel and scoring estimate; `fed steal` moves at
//!   least one request between two distinct pools; `fed shed` diverts
//!   between two distinct pools.
//! * `--profile p.json` — the file must parse as JSON and every
//!   shard's `busy_frac + reconfig_frac + idle_frac + quarantined_frac`
//!   must sum to 1 (±1e-9), or to 0 for an empty makespan.
//! * `--journal j.shard000.jsonl` — a per-shard streamed journal: every
//!   line parses as JSON with `time_ps`/`shard`/`seq`/`kind`, the kind
//!   is one the tracer can emit, all lines carry the same shard id, and
//!   `seq` strictly increases (the stream is in emission order — `seq`
//!   is the shard's own counter, while `time_ps` may step back for
//!   backdated admission events).
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
//! Both stream kinds go through one checker, [`rtr_bench::lint`], which
//! reads the key field names from each row type's journal declaration.
//!
//! Exits non-zero with one line per violation; CI runs it after the
//! scenario smoke runs so a malformed export fails the build.

use std::collections::HashMap;
use std::process::ExitCode;

use rtr_bench::lint::{lint_stream, StreamLint};
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

/// Checks the Chrome trace-event invariants.
fn lint_trace(path: &str, doc: &Json, problems: &mut Vec<String>) {
    let Some(events) = doc.get("traceEvents").and_then(Json::as_arr) else {
        problems.push(format!("{path}: no traceEvents array"));
        return;
    };
    // Open-slice depth per (pid, tid); open async arrows per id.
    let mut depth: HashMap<(i64, i64), i64> = HashMap::new();
    let mut arrows: HashMap<String, i64> = HashMap::new();
    let mut decisions = 0usize;
    let mut plane_events = 0usize;
    for (i, ev) in events.iter().enumerate() {
        let name = ev.get("name").and_then(Json::as_str);
        let ph = ev.get("ph").and_then(Json::as_str);
        let ts = ev.get("ts").and_then(Json::as_f64);
        let pid = ev.get("pid").and_then(Json::as_f64);
        let tid = ev.get("tid").and_then(Json::as_f64);
        let (Some(name), Some(ph), Some(_), Some(pid), Some(tid)) = (name, ph, ts, pid, tid) else {
            problems.push(format!(
                "{path}: event {i} is missing one of name/ph/ts/pid/tid"
            ));
            continue;
        };
        // Every journaled scheduling decision must be self-describing:
        // the policy that decided, the kernel it chose, and the
        // candidate set it chose from — with the choice in the set.
        if ph == "i" && name == "sched decision" {
            decisions += 1;
            let args = ev.get("args");
            let policy = args.and_then(|a| a.get("policy")).and_then(Json::as_str);
            let chosen = args.and_then(|a| a.get("chosen")).and_then(Json::as_str);
            let candidates = args
                .and_then(|a| a.get("candidates"))
                .and_then(Json::as_arr);
            match (policy, chosen, candidates) {
                (Some(""), _, _) => {
                    problems.push(format!(
                        "{path}: event {i}: sched decision with empty policy"
                    ));
                }
                (Some(_), Some(chosen), Some(cands)) => {
                    if cands.is_empty() {
                        problems.push(format!(
                            "{path}: event {i}: sched decision with an empty candidate set"
                        ));
                    } else if !cands.iter().any(|c| c.as_str() == Some(chosen)) {
                        problems.push(format!(
                            "{path}: event {i}: sched decision chose {chosen:?} \
                             but it is not among the candidates"
                        ));
                    }
                }
                _ => problems.push(format!(
                    "{path}: event {i}: sched decision missing policy/chosen/candidates"
                )),
            }
        }
        // Configuration-plane instants are self-describing as well: each
        // names its module, and the differential accounting can never
        // claim to have sent more than the full image holds.
        if ph == "i" {
            let args = ev.get("args");
            let module_ok = args
                .and_then(|a| a.get("module"))
                .and_then(Json::as_str)
                .is_some_and(|m| !m.is_empty());
            match name {
                "cache lookup" => {
                    plane_events += 1;
                    let hit = args.and_then(|a| a.get("hit"));
                    if !module_ok || !matches!(hit, Some(Json::Bool(_))) {
                        problems.push(format!(
                            "{path}: event {i}: cache lookup missing module/hit"
                        ));
                    }
                }
                "diff swap" => {
                    plane_events += 1;
                    let count = |key: &str| args.and_then(|a| a.get(key)).and_then(Json::as_f64);
                    match (
                        count("frames_full"),
                        count("frames_sent"),
                        count("words_full"),
                        count("words_sent"),
                    ) {
                        (Some(ff), Some(fs), Some(wf), Some(ws)) => {
                            if fs > ff || ws > wf {
                                problems.push(format!(
                                    "{path}: event {i}: diff swap sent more than the \
                                     full image ({fs}/{ff} frames, {ws}/{wf} words)"
                                ));
                            }
                        }
                        _ => problems.push(format!(
                            "{path}: event {i}: diff swap missing frame/word accounting"
                        )),
                    }
                    if !module_ok {
                        problems.push(format!("{path}: event {i}: diff swap without a module"));
                    }
                }
                "slot activate" | "slot evict" => {
                    plane_events += 1;
                    let slot = args.and_then(|a| a.get("slot")).and_then(Json::as_f64);
                    if !module_ok || !slot.is_some_and(|s| s >= 0.0) {
                        problems.push(format!("{path}: event {i}: {name} missing module/slot"));
                    }
                }
                // Federation decisions: a route names its pool, kernel
                // and the estimate it was scored on; a steal moves at
                // least one request between two distinct pools; a shed
                // diverts a named kernel between two distinct pools.
                "fed route" => {
                    plane_events += 1;
                    let pool = args.and_then(|a| a.get("pool")).and_then(Json::as_f64);
                    let kernel = args.and_then(|a| a.get("kernel")).and_then(Json::as_str);
                    let est = args
                        .and_then(|a| a.get("estimate_us"))
                        .and_then(Json::as_f64);
                    if pool.is_none_or(|p| p < 0.0)
                        || kernel.is_none_or(str::is_empty)
                        || est.is_none_or(|e| e < 0.0)
                    {
                        problems.push(format!(
                            "{path}: event {i}: fed route missing pool/kernel/estimate_us"
                        ));
                    }
                }
                "fed steal" | "fed shed" => {
                    plane_events += 1;
                    let pool = |key: &str| args.and_then(|a| a.get(key)).and_then(Json::as_f64);
                    match (pool("from_pool"), pool("to_pool")) {
                        (Some(from), Some(to)) if from == to => {
                            problems.push(format!(
                                "{path}: event {i}: {name} from pool {from} to itself"
                            ));
                        }
                        (Some(_), Some(_)) => {}
                        _ => problems.push(format!(
                            "{path}: event {i}: {name} missing from_pool/to_pool"
                        )),
                    }
                    if name == "fed steal" && pool("moved").is_none_or(|m| m < 1.0) {
                        problems.push(format!(
                            "{path}: event {i}: fed steal moved fewer than one request"
                        ));
                    }
                }
                // Scrub instants account for themselves: a pass can
                // never find more mismatches than frames it compared,
                // and a repair always re-writes at least one frame.
                "scrub pass" => {
                    plane_events += 1;
                    let count = |key: &str| args.and_then(|a| a.get(key)).and_then(Json::as_f64);
                    match (count("frames"), count("mismatched")) {
                        (Some(frames), Some(mismatched)) if mismatched > frames => {
                            problems.push(format!(
                                "{path}: event {i}: scrub pass found {mismatched} \
                                 mismatches in only {frames} frames"
                            ));
                        }
                        (Some(_), Some(_)) => {}
                        _ => problems.push(format!(
                            "{path}: event {i}: scrub pass missing frames/mismatched"
                        )),
                    }
                }
                "scrub repair" => {
                    plane_events += 1;
                    let frames = args.and_then(|a| a.get("frames")).and_then(Json::as_f64);
                    if frames.is_none_or(|f| f < 1.0) {
                        problems.push(format!(
                            "{path}: event {i}: scrub repair re-wrote fewer than one frame"
                        ));
                    }
                }
                // Canary instants name their kernel; a result also says
                // whether the probe readmitted it.
                "canary probe" | "canary result" => {
                    plane_events += 1;
                    let kernel = args.and_then(|a| a.get("kernel")).and_then(Json::as_str);
                    if kernel.is_none_or(str::is_empty) {
                        problems.push(format!("{path}: event {i}: {name} without a kernel"));
                    }
                    if name == "canary result"
                        && !matches!(args.and_then(|a| a.get("admitted")), Some(Json::Bool(_)))
                    {
                        problems.push(format!(
                            "{path}: event {i}: canary result without a boolean verdict"
                        ));
                    }
                }
                _ => {}
            }
        }
        let track = (pid as i64, tid as i64);
        match ph {
            "B" => *depth.entry(track).or_default() += 1,
            "E" => {
                let d = depth.entry(track).or_default();
                *d -= 1;
                if *d < 0 {
                    problems.push(format!(
                        "{path}: event {i}: E without a matching B on track {track:?}"
                    ));
                    *d = 0;
                }
            }
            "b" | "e" => {
                let Some(id) = ev.get("id").and_then(Json::as_str) else {
                    problems.push(format!("{path}: event {i}: async {ph} without an id"));
                    continue;
                };
                *arrows.entry(id.to_string()).or_default() += if ph == "b" { 1 } else { -1 };
            }
            "X" => match ev.get("dur").and_then(Json::as_f64) {
                Some(dur) if dur >= 0.0 => {}
                Some(dur) => {
                    problems.push(format!(
                        "{path}: event {i}: X slice with negative dur {dur}"
                    ));
                }
                None => {
                    problems.push(format!("{path}: event {i}: X slice without a dur"));
                }
            },
            _ => {}
        }
    }
    for (track, d) in depth {
        if d != 0 {
            problems.push(format!(
                "{path}: track {track:?} ends with {d} unclosed B slice(s)"
            ));
        }
    }
    for (id, d) in arrows {
        if d != 0 {
            problems.push(format!("{path}: async arrow {id} is unbalanced ({d:+})"));
        }
    }
    eprintln!(
        "[lint] {path}: {} events, {decisions} sched decision(s), \
         {plane_events} config-plane instant(s)",
        events.len()
    );
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
            lint_trace(&path, &doc, &mut problems);
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
