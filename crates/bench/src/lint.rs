//! The streamed-journal checker behind `trace_lint --journal` and
//! `--telemetry`, written once for every [`JournalRow`] kind.
//!
//! The ordering rules are the journal's own: a per-shard stream carries
//! one constant shard id and a strictly increasing `seq` (it is in
//! emission order), and a merged file strictly increases in the row
//! kind's `(lead, shard, seq)` merge key. The key field names come from
//! [`JournalRow::KEY_FIELDS`], the same declaration the merge sorts by.
//! Each row kind adds its own self-description checks through
//! [`StreamLint`].

use std::collections::BTreeMap;

use rtr_telemetry::TelemetryRow;
use rtr_trace::{JournalRow, TraceEvent, KIND_NAMES};
use vp2_sim::Json;

/// The row-specific half of the stream checker.
pub trait StreamLint: JournalRow {
    /// Does the leading key field never step back within one shard's
    /// stream? A telemetry `tick` cannot; a trace event's `time_ps` may,
    /// for backdated admission events.
    const LEAD_MONOTONE: bool;

    /// Problems with one parsed line whose key fields are present.
    fn line_problems(line: &Json) -> Vec<String>;
}

impl StreamLint for TraceEvent {
    const LEAD_MONOTONE: bool = false;

    fn line_problems(ev: &Json) -> Vec<String> {
        match ev.get("kind").and_then(Json::as_str) {
            Some(kind) => event_problems(kind, ev),
            None => vec!["missing one of time_ps/shard/seq/kind".into()],
        }
    }
}

/// The per-kind content rules, one place for both views of an event:
/// `payload` is a journal line (its key fields are ignored) or a Chrome
/// instant's `args`, and `kind` the line's `kind` or the instant's
/// `name`. Every decision and configuration-plane event must describe
/// itself.
pub fn event_problems(kind: &str, payload: &Json) -> Vec<String> {
    let mut problems = Vec::new();
    let int = |key: &str| payload.get(key).and_then(Json::as_f64).map(|v| v as i64);
    let named = |key: &str| {
        payload
            .get(key)
            .and_then(Json::as_str)
            .is_some_and(|s| !s.is_empty())
    };
    let flag = |key: &str| matches!(payload.get(key), Some(Json::Bool(_)));
    if !KIND_NAMES.contains(&kind) {
        problems.push(format!("unknown event kind {kind:?}"));
    }
    match kind {
        // A scheduling decision names the policy that decided, the
        // kernel it chose and the candidate set it chose from, with the
        // choice in the set.
        "sched_decision" => {
            let chosen = payload.get("chosen").and_then(Json::as_str);
            let candidates = payload.get("candidates").and_then(Json::as_arr);
            match (named("policy"), chosen, candidates) {
                (true, Some(_), Some([])) => {
                    problems.push("sched_decision with an empty candidate set".into());
                }
                (true, Some(chosen), Some(cands)) => {
                    if !cands.iter().any(|c| c.as_str() == Some(chosen)) {
                        problems.push(format!(
                            "sched_decision chose {chosen:?} but it is not among the candidates"
                        ));
                    }
                }
                _ => problems.push("sched_decision missing policy/chosen/candidates".into()),
            }
        }
        // Configuration-plane events name their module, and the
        // differential accounting never claims to have sent more than
        // the full image holds.
        "cache_lookup" if !named("module") || !flag("hit") => {
            problems.push("cache_lookup missing module/hit".into());
        }
        "diff_swap" => {
            match (
                int("frames_full"),
                int("frames_sent"),
                int("words_full"),
                int("words_sent"),
            ) {
                (Some(ff), Some(fs), Some(wf), Some(ws)) if fs > ff || ws > wf => {
                    problems.push(format!(
                        "diff_swap sent more than the full image \
                         ({fs}/{ff} frames, {ws}/{wf} words)"
                    ));
                }
                (Some(_), Some(_), Some(_), Some(_)) => {}
                _ => problems.push("diff_swap missing frame/word accounting".into()),
            }
            if !named("module") {
                problems.push("diff_swap without a module".into());
            }
        }
        "slot_activate" | "slot_evict" if !named("module") || int("slot").is_none_or(|s| s < 0) => {
            problems.push(format!("{kind} missing module/slot"));
        }
        // Federation decisions: a route names its pool, kernel and the
        // estimate it was scored on; a steal moves at least one request
        // between two distinct pools; a shed diverts between two.
        "fed_route"
            if int("pool").is_none_or(|p| p < 0)
                || !named("kernel")
                || int("estimate_ps").is_none_or(|e| e < 0) =>
        {
            problems.push("fed_route missing pool/kernel/estimate_ps".into());
        }
        "fed_steal" | "fed_shed" => {
            match (int("from_pool"), int("to_pool")) {
                (Some(from), Some(to)) if from == to => {
                    problems.push(format!("{kind} from pool {from} to itself"));
                }
                (Some(_), Some(_)) => {}
                _ => problems.push(format!("{kind} missing from_pool/to_pool")),
            }
            if kind == "fed_steal" && int("moved").is_none_or(|m| m < 1) {
                problems.push("fed_steal moved fewer than one request".into());
            }
        }
        // Scrub events account for themselves: a pass never finds more
        // mismatches than frames it compared, and a repair re-writes at
        // least one frame.
        "scrub_pass" => match (int("frames"), int("mismatched")) {
            (Some(frames), Some(mismatched)) if mismatched > frames => {
                problems.push(format!(
                    "scrub_pass found {mismatched} mismatches in only {frames} frames"
                ));
            }
            (Some(_), Some(_)) => {}
            _ => problems.push("scrub_pass missing frames/mismatched".into()),
        },
        "scrub_repair" if int("frames").is_none_or(|f| f < 1) => {
            problems.push("scrub_repair re-wrote fewer than one frame".into());
        }
        // Canary events name their kernel; a result also says whether
        // the probe readmitted it.
        "canary_probe" | "canary_result" => {
            if !named("kernel") {
                problems.push(format!("{kind} without a kernel"));
            }
            if kind == "canary_result" && !flag("admitted") {
                problems.push("canary_result without a boolean verdict".into());
            }
        }
        _ => {}
    }
    problems
}

impl StreamLint for TelemetryRow {
    const LEAD_MONOTONE: bool = true;

    fn line_problems(row: &Json) -> Vec<String> {
        let mut problems = Vec::new();
        let scope = row.get("scope").and_then(Json::as_str);
        let time = row.get("time_ps").and_then(Json::as_f64);
        let (Some(scope), Some(_)) = (scope, time) else {
            return vec!["missing one of tick/time_ps/shard/seq/scope".into()];
        };
        if scope.is_empty() {
            problems.push("empty scope".into());
        }
        // Each sample must describe itself: at least one gauge, every
        // value a finite number (NaN/inf would poison any aggregation
        // downstream and render as invalid JSON anyway).
        match row.get("gauges") {
            Some(Json::Obj(gauges)) if !gauges.is_empty() => {
                for (name, value) in gauges {
                    if !value.as_f64().is_some_and(f64::is_finite) {
                        problems.push(format!("gauge {name:?} is not a finite number"));
                    }
                }
            }
            _ => problems.push("missing or empty gauges object".into()),
        }
        problems
    }
}

/// Checks one streamed JSONL file of `R` rows (`text`, read from
/// `path`). `merged` selects the ordering invariant: a per-shard stream
/// is in emission order (one constant shard id, strictly increasing
/// `seq`, and a lead that never steps back when
/// [`StreamLint::LEAD_MONOTONE`]); the merged file is in the canonical
/// merge-key total order. Returns the number of lines checked; every
/// violation is pushed onto `problems` as one `path: line N: …` line.
pub fn lint_stream<R: StreamLint>(
    path: &str,
    text: &str,
    merged: bool,
    problems: &mut Vec<String>,
) -> usize {
    let [lead_name, _, _] = R::KEY_FIELDS;
    let mut lines = 0usize;
    let mut stream_shard: Option<i64> = None;
    let mut last: Option<(i64, i64, i64)> = None;
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        lines += 1;
        let mut report = |msg: String| problems.push(format!("{path}: line {}: {msg}", i + 1));
        let row = match Json::parse(line) {
            Ok(row) => row,
            Err(e) => {
                report(format!("not valid JSON: {e}"));
                continue;
            }
        };
        let int = |key: &str| row.get(key).and_then(Json::as_f64).map(|v| v as i64);
        let [lead, shard, seq] = R::KEY_FIELDS.map(int);
        let (Some(lead), Some(shard), Some(seq)) = (lead, shard, seq) else {
            report(format!("missing one of {}", R::KEY_FIELDS.join("/")));
            continue;
        };
        for msg in R::line_problems(&row) {
            report(msg);
        }
        let key = (lead, shard, seq);
        if merged {
            if let Some(prev) = last.filter(|prev| key <= *prev) {
                report(format!(
                    "({}) key {key:?} does not advance past {prev:?}",
                    R::KEY_FIELDS.join(", ")
                ));
            }
        } else {
            match stream_shard {
                None => stream_shard = Some(shard),
                Some(expected) if expected != shard => {
                    report(format!("shard {shard} in a shard-{expected} stream"));
                }
                Some(_) => {}
            }
            if let Some((prev_lead, _, prev_seq)) = last {
                if R::LEAD_MONOTONE && lead < prev_lead {
                    report(format!("{lead_name} {lead} steps back from {prev_lead}"));
                }
                if seq <= prev_seq {
                    report(format!("seq {seq} does not advance past {prev_seq}"));
                }
            }
        }
        last = Some(key);
    }
    if lines == 0 {
        problems.push(format!("{path}: {} stream is empty", R::NOUN));
    }
    lines
}

/// Checks a Chrome trace-event document (`doc`, read from `path`) for
/// the format's own invariants: every entry carries `name`/`ph`/`ts`/
/// `pid`/`tid`, `B`/`E` slices balance per `(pid, tid)` track without
/// dipping negative, async `b`/`e` arrows pair per `id`, and `X` slices
/// carry a non-negative `dur`. Each instant's `name` and `args` go
/// through [`event_problems`], the rules journal lines get. Returns the
/// number of trace events checked; every violation is pushed onto
/// `problems` as one `path: …` line.
pub fn lint_chrome(path: &str, doc: &Json, problems: &mut Vec<String>) -> usize {
    let Some(events) = doc.get("traceEvents").and_then(Json::as_arr) else {
        problems.push(format!("{path}: no traceEvents array"));
        return 0;
    };
    // Open-slice depth per (pid, tid); open async arrows per id.
    let mut depth: BTreeMap<(i64, i64), i64> = BTreeMap::new();
    let mut arrows: BTreeMap<&str, i64> = BTreeMap::new();
    for (i, ev) in events.iter().enumerate() {
        let mut report = |msg: String| problems.push(format!("{path}: event {i}: {msg}"));
        let name = ev.get("name").and_then(Json::as_str);
        let ph = ev.get("ph").and_then(Json::as_str);
        let [ts, pid, tid] = ["ts", "pid", "tid"].map(|key| ev.get(key).and_then(Json::as_f64));
        let (Some(name), Some(ph), Some(_), Some(pid), Some(tid)) = (name, ph, ts, pid, tid) else {
            report("missing one of name/ph/ts/pid/tid".into());
            continue;
        };
        let track = (pid as i64, tid as i64);
        match ph {
            "i" => {
                let args = ev.get("args").unwrap_or(&Json::Null);
                event_problems(name, args).into_iter().for_each(report);
            }
            "B" => *depth.entry(track).or_default() += 1,
            "E" => {
                let d = depth.entry(track).or_default();
                *d -= 1;
                if *d < 0 {
                    report(format!("E without a matching B on track {track:?}"));
                    *d = 0;
                }
            }
            "b" | "e" => match ev.get("id").and_then(Json::as_str) {
                Some(id) => *arrows.entry(id).or_default() += if ph == "b" { 1 } else { -1 },
                None => report(format!("async {ph} without an id")),
            },
            "X" => match ev.get("dur").and_then(Json::as_f64) {
                Some(dur) if dur >= 0.0 => {}
                Some(dur) => report(format!("X slice with negative dur {dur}")),
                None => report("X slice without a dur".into()),
            },
            _ => {}
        }
    }
    for (track, d) in depth.into_iter().filter(|&(_, d)| d != 0) {
        problems.push(format!(
            "{path}: track {track:?} ends with {d} unclosed B slice(s)"
        ));
    }
    for (id, d) in arrows.into_iter().filter(|&(_, d)| d != 0) {
        problems.push(format!("{path}: async arrow {id} is unbalanced ({d:+})"));
    }
    events.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtr_trace::{chrome_trace, EventKind};
    use vp2_sim::SimTime;

    fn event(us: u64, shard: u32, seq: u64) -> String {
        let kind = EventKind::BufferFlush { count: 1 };
        let time = SimTime::from_us(us);
        TraceEvent {
            time,
            shard,
            seq,
            kind,
        }
        .to_json()
        .render()
    }

    fn sample(tick: u64, shard: u32, seq: u64) -> String {
        TelemetryRow {
            tick,
            time: SimTime::from_us(tick * 1000),
            shard,
            seq,
            scope: "service",
            gauges: vec![("queue_depth", 1.0)],
        }
        .to_json()
        .render()
    }

    fn lint<R: StreamLint>(lines: &[String], merged: bool) -> Vec<String> {
        let mut problems = Vec::new();
        let n = lint_stream::<R>("s", &lines.join("\n"), merged, &mut problems);
        assert_eq!(n, lines.len());
        problems
    }

    /// The row-kind-independent ordering cases, run for one row kind
    /// built by `row(lead, shard, seq)`.
    fn ordering_cases<R: StreamLint>(row: fn(u64, u32, u64) -> String) {
        let shard = [row(1, 2, 0), row(1, 2, 1), row(3, 2, 2)];
        assert_eq!(lint::<R>(&shard, false), Vec::<String>::new());
        let merged = [row(1, 0, 0), row(1, 2, 0), row(2, 0, 1), row(3, 2, 1)];
        assert_eq!(lint::<R>(&merged, true), Vec::<String>::new());

        let mut swapped = merged.clone();
        swapped.swap(1, 2);
        let problems = lint::<R>(&swapped, true);
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].contains("line 3") && problems[0].contains("does not advance"));

        let repeated = [row(1, 2, 0), row(2, 2, 1), row(3, 2, 1)];
        let problems = lint::<R>(&repeated, false);
        assert_eq!(problems, vec!["s: line 3: seq 1 does not advance past 1"]);

        let foreign = [row(1, 2, 0), row(2, 3, 1)];
        let problems = lint::<R>(&foreign, false);
        assert_eq!(problems, vec!["s: line 2: shard 3 in a shard-2 stream"]);

        let problems = lint::<R>(&[], false);
        assert_eq!(problems, vec![format!("s: {} stream is empty", R::NOUN)]);
    }

    #[test]
    fn trace_streams_are_ordered_by_seq_and_time_shard_seq() {
        ordering_cases::<TraceEvent>(event);
        // A per-shard journal may step back in time (backdated
        // admission events) as long as seq advances.
        assert!(lint::<TraceEvent>(&[event(5, 0, 0), event(4, 0, 1)], false).is_empty());
    }

    #[test]
    fn telemetry_streams_are_ordered_by_seq_and_tick_shard_seq() {
        ordering_cases::<TelemetryRow>(sample);
        let problems = lint::<TelemetryRow>(&[sample(5, 0, 0), sample(4, 0, 1)], false);
        assert_eq!(problems, vec!["s: line 2: tick 4 steps back from 5"]);
    }

    #[test]
    fn row_checks_are_kept_per_kind() {
        let bad_kind = event(1, 0, 0).replace("buffer_flush", "warp_drive");
        let unnamed = r#"{"time_ps":1,"shard":0,"seq":1}"#.to_string();
        let self_steal = r#"{"time_ps":2,"shard":0,"seq":2,"kind":"fed_steal","from_pool":1,"to_pool":1,"moved":0}"#;
        let stray_choice = r#"{"time_ps":3,"shard":0,"seq":3,"kind":"sched_decision","policy":"swap_aware","chosen":"a","candidates":["b"]}"#;
        let no_candidates = r#"{"time_ps":3,"shard":0,"seq":4,"kind":"sched_decision","policy":"lanes","chosen":"a","candidates":[]}"#;
        let oversent = r#"{"time_ps":4,"shard":0,"seq":5,"kind":"diff_swap","module":"m","frames_full":2,"frames_sent":3,"words_full":40,"words_sent":40,"compressed":false}"#;
        let fuzzy_hit =
            r#"{"time_ps":4,"shard":0,"seq":6,"kind":"cache_lookup","module":"m","hit":1}"#;
        let no_slot = r#"{"time_ps":4,"shard":0,"seq":7,"kind":"slot_evict","module":"m"}"#;
        let lines = [
            bad_kind,
            unnamed,
            self_steal.into(),
            stray_choice.into(),
            no_candidates.into(),
            oversent.into(),
            fuzzy_hit.into(),
            no_slot.into(),
        ];
        assert_eq!(
            lint::<TraceEvent>(&lines, false),
            vec![
                "s: line 1: unknown event kind \"warp_drive\"",
                "s: line 2: missing one of time_ps/shard/seq/kind",
                "s: line 3: fed_steal from pool 1 to itself",
                "s: line 3: fed_steal moved fewer than one request",
                "s: line 4: sched_decision chose \"a\" but it is not among the candidates",
                "s: line 5: sched_decision with an empty candidate set",
                "s: line 6: diff_swap sent more than the full image (3/2 frames, 40/40 words)",
                "s: line 7: cache_lookup missing module/hit",
                "s: line 8: slot_evict missing module/slot",
            ]
        );
        // A Chrome instant breaking a rule gets the journal line's
        // message: both views go through the same per-kind rules.
        let stray = TraceEvent {
            time: SimTime::from_us(3),
            shard: 0,
            seq: 0,
            kind: EventKind::SchedDecision {
                policy: "swap_aware",
                chosen: "a",
                candidates: vec!["b"],
            },
        };
        let journal = lint::<TraceEvent>(&[stray.to_json().render()], false);
        let mut chrome = Vec::new();
        lint_chrome("c", &chrome_trace(&[stray]), &mut chrome);
        let why = "sched_decision chose \"a\" but it is not among the candidates";
        // Events 0-3 name the shard's process and its three tracks.
        assert_eq!(journal, vec![format!("s: line 1: {why}")]);
        assert_eq!(chrome, vec![format!("c: event 4: {why}")]);

        let no_key = r#"{"time_ps":1,"shard":0,"seq":0,"scope":"service","gauges":{"q":1}}"#;
        let empty = r#"{"tick":1,"time_ps":1,"shard":0,"seq":1,"scope":"","gauges":{}}"#;
        let problems = lint::<TelemetryRow>(&[no_key.into(), empty.into()], false);
        assert_eq!(
            problems,
            vec![
                "s: line 1: missing one of tick/shard/seq",
                "s: line 2: empty scope",
                "s: line 2: missing or empty gauges object",
            ]
        );
    }

    /// One event of every kind, in [`KIND_NAMES`] order, each passing
    /// its content rules; the admit/complete and begin/end pairs match.
    fn every_kind() -> Vec<TraceEvent> {
        let us = SimTime::from_us;
        let kinds = vec![
            EventKind::RequestBuffer {
                id: 0,
                kernel: "k",
                arrival: us(0),
            },
            EventKind::BufferFlush { count: 1 },
            EventKind::RequestAdmit {
                id: 0,
                kernel: "k",
                arrival: us(0),
            },
            EventKind::RequestDequeue { id: 0 },
            EventKind::SchedDecision {
                policy: "swap_aware",
                chosen: "k",
                candidates: vec!["j", "k"],
            },
            EventKind::RequestComplete {
                id: 0,
                kernel: "k",
                hw: true,
            },
            EventKind::BatchBegin {
                kernel: "k",
                size: 1,
                hw: true,
            },
            EventKind::BatchEnd {
                kernel: "k",
                hw: true,
            },
            EventKind::SwapBegin { module: "k".into() },
            EventKind::SwapEnd {
                module: "k".into(),
                frames: 2,
                words: 40,
                attempts: 1,
                repaired_frames: 0,
                verified: true,
            },
            EventKind::CacheLookup {
                module: "k".into(),
                hit: false,
            },
            EventKind::DiffSwap {
                module: "k".into(),
                frames_full: 2,
                frames_sent: 1,
                words_full: 40,
                words_sent: 20,
                compressed: true,
            },
            EventKind::SlotActivate {
                module: "k".into(),
                slot: 1,
            },
            EventKind::SlotEvict {
                module: "j".into(),
                slot: 0,
            },
            EventKind::IcapBurst {
                words: 40,
                done: us(30),
            },
            EventKind::FaultHit { frames: 1 },
            EventKind::VerifyFail { frames: 1 },
            EventKind::Repair { frames: 1 },
            EventKind::DmaProgram {
                bytes: 64,
                to_dock: true,
                interleaved: false,
            },
            EventKind::DmaComplete { bytes_moved: 64 },
            EventKind::QuarantineEnter { kernel: "k" },
            EventKind::QuarantineHalfOpen { kernel: "k" },
            EventKind::QuarantineExit { kernel: "k" },
            EventKind::FedRoute {
                pool: 1,
                kernel: "k",
                estimate: us(5),
            },
            EventKind::FedSteal {
                from_pool: 0,
                to_pool: 1,
                moved: 2,
            },
            EventKind::FedShed {
                from_pool: 1,
                to_pool: 0,
                kernel: "k",
                deadline: true,
            },
            EventKind::ScrubPass {
                frames: 4,
                mismatched: 1,
            },
            EventKind::ScrubRepair { frames: 1 },
            EventKind::CanaryProbe { kernel: "k" },
            EventKind::CanaryResult {
                kernel: "k",
                admitted: true,
            },
        ];
        (0..)
            .zip(kinds)
            .map(|(seq, kind)| TraceEvent {
                time: us(seq + 1),
                shard: 0,
                seq,
                kind,
            })
            .collect()
    }

    #[test]
    fn every_kind_has_one_encoding_that_both_views_accept() {
        let journal = every_kind();
        let names: Vec<&str> = journal.iter().map(|ev| ev.kind.name()).collect();
        assert_eq!(names, KIND_NAMES, "name() and KIND_NAMES cover each other");

        // The Chrome view of each event carries its journal payload as
        // `args`: metadata and per-request X slices aside, the export
        // holds one entry per journal event, in journal order.
        let doc = chrome_trace(&journal);
        let entries: Vec<&Json> = doc
            .get("traceEvents")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .filter(|e| !matches!(e.get("ph").and_then(Json::as_str), Some("M" | "X")))
            .collect();
        assert_eq!(entries.len(), journal.len());
        for (entry, ev) in entries.iter().zip(&journal) {
            assert_eq!(entry.get("args"), Some(&ev.kind.payload()), "{ev:?}");
        }

        let lines: Vec<String> = journal.iter().map(|ev| ev.to_json().render()).collect();
        assert_eq!(lint::<TraceEvent>(&lines, false), Vec::<String>::new());
        let mut problems = Vec::new();
        let rendered = Json::parse(&doc.render()).unwrap();
        assert!(lint_chrome("c", &rendered, &mut problems) > journal.len());
        assert_eq!(problems, Vec::<String>::new());
    }
}
