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
        let mut problems = Vec::new();
        let int = |key: &str| ev.get(key).and_then(Json::as_f64).map(|v| v as i64);
        let Some(kind) = ev.get("kind").and_then(Json::as_str) else {
            return vec!["missing one of time_ps/shard/seq/kind".into()];
        };
        if !KIND_NAMES.contains(&kind) {
            problems.push(format!("unknown event kind {kind:?}"));
        }
        // Federation, scrub and canary decisions must be self-describing
        // in the raw journal too, not just in the Chrome export.
        match kind {
            "fed_route" => {
                let kernel = ev.get("kernel").and_then(Json::as_str);
                if int("pool").is_none_or(|p| p < 0)
                    || kernel.is_none_or(str::is_empty)
                    || int("estimate_ps").is_none_or(|e| e < 0)
                {
                    problems.push("fed_route missing pool/kernel/estimate_ps".into());
                }
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
            "canary_probe" | "canary_result" => {
                let kernel = ev.get("kernel").and_then(Json::as_str);
                if kernel.is_none_or(str::is_empty) {
                    problems.push(format!("{kind} without a kernel"));
                }
                if kind == "canary_result" && !matches!(ev.get("admitted"), Some(Json::Bool(_))) {
                    problems.push("canary_result without a boolean verdict".into());
                }
            }
            _ => {}
        }
        problems
    }
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

#[cfg(test)]
mod tests {
    use super::*;
    use rtr_trace::EventKind;
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
        let problems = lint::<TraceEvent>(&[bad_kind, unnamed, self_steal.into()], false);
        assert_eq!(
            problems,
            vec![
                "s: line 1: unknown event kind \"warp_drive\"",
                "s: line 2: missing one of time_ps/shard/seq/kind",
                "s: line 3: fed_steal from pool 1 to itself",
                "s: line 3: fed_steal moved fewer than one request",
            ]
        );
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
}
