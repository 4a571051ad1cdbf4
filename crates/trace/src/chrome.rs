//! Chrome trace-event JSON export.
//!
//! Emits the [trace-event format] that Perfetto and `chrome://tracing`
//! load directly: one *process* per shard with three fixed tracks — the
//! scheduler, the configuration plane and the DMA engine. The export is
//! a view of the journal, not a second encoding of it: every event's
//! `args` are its journal payload ([`EventKind::payload`], the JSONL line
//! minus its key fields), and one per-kind table picks its track and
//! instant scope. Batches and swaps are duration slices (`B`/`E`, named
//! by kernel and `swap <module>`), each request is an async arrow
//! (`b`/`e`) spanning arrival → completion, and every other event is an
//! instant named by its kind ([`EventKind::name`], e.g. `fed_route`).
//! Per request there is also one complete slice on a stacked
//! "requests" lane carrying the four phase durations, so a request's
//! wait can be read off against the swap that caused it.
//!
//! Timestamps are the simulated clock converted to microseconds (the
//! format's unit); the export is a pure function of the journal, so
//! equal seeds give byte-identical files.
//!
//! [trace-event format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU

use vp2_sim::{Json, SimTime};

use crate::event::{EventKind, TraceEvent, FEDERATION_SHARD};
use crate::span::spans;

/// Scheduler track (batches, request instants).
const TID_SCHED: u32 = 0;
/// Configuration-plane track (swaps, ICAP, verify/repair, quarantine).
const TID_CONFIG: u32 = 1;
/// DMA track.
const TID_DMA: u32 = 2;
/// First request-slice track; concurrent requests stack onto
/// `TID_REQ_BASE + 1`, `+ 2`, … so slices on one track never overlap.
const TID_REQ_BASE: u32 = 3;

fn base(name: &str, ph: &str, ts: f64, pid: u32, tid: u32) -> Json {
    Json::obj()
        .field("name", name)
        .field("ph", ph)
        .field("ts", ts)
        .field("pid", pid)
        .field("tid", tid)
}

fn meta(name: &str, pid: u32, tid: u32, value: &str) -> Json {
    base(name, "M", 0.0, pid, tid).field("args", Json::obj().field("name", value))
}

/// The track each kind is drawn on, and the scope of its instant:
/// `"p"` for a process-wide state change (quarantine, canary, steal,
/// shed), `"t"` otherwise. The six slice and arrow kinds use only the
/// track.
fn track(kind: &EventKind) -> (u32, &'static str) {
    use EventKind::*;
    match kind {
        RequestBuffer { .. }
        | BufferFlush { .. }
        | RequestAdmit { .. }
        | RequestDequeue { .. }
        | SchedDecision { .. }
        | RequestComplete { .. }
        | BatchBegin { .. }
        | BatchEnd { .. }
        | FedRoute { .. } => (TID_SCHED, "t"),
        FedSteal { .. } | FedShed { .. } => (TID_SCHED, "p"),
        SwapBegin { .. }
        | SwapEnd { .. }
        | CacheLookup { .. }
        | DiffSwap { .. }
        | SlotActivate { .. }
        | SlotEvict { .. }
        | IcapBurst { .. }
        | FaultHit { .. }
        | VerifyFail { .. }
        | Repair { .. }
        | ScrubPass { .. }
        | ScrubRepair { .. } => (TID_CONFIG, "t"),
        QuarantineEnter { .. }
        | QuarantineHalfOpen { .. }
        | QuarantineExit { .. }
        | CanaryProbe { .. }
        | CanaryResult { .. } => (TID_CONFIG, "p"),
        DmaProgram { .. } | DmaComplete { .. } => (TID_DMA, "t"),
    }
}

/// Converts a journal to Chrome trace-event JSON.
///
/// The result is the standard object form: `{"traceEvents": [...],
/// "displayTimeUnit": "ns"}`. Duration events (`B`/`E`) are balanced
/// whenever the journal itself is (an unwrapped ring always is); async
/// request arrows are keyed `req-<shard>-<id>`.
pub fn chrome_trace(events: &[TraceEvent]) -> Json {
    let mut out: Vec<Json> = Vec::new();
    let mut named_shards: Vec<u32> = Vec::new();
    for ev in events {
        if !named_shards.contains(&ev.shard) {
            named_shards.push(ev.shard);
            let process = if ev.shard == FEDERATION_SHARD {
                "federation".to_string()
            } else {
                format!("shard {}", ev.shard)
            };
            out.push(meta("process_name", ev.shard, TID_SCHED, &process));
            out.push(meta("thread_name", ev.shard, TID_SCHED, "scheduler"));
            out.push(meta("thread_name", ev.shard, TID_CONFIG, "config plane"));
            out.push(meta("thread_name", ev.shard, TID_DMA, "dma"));
        }
        let ts = ev.time.as_us_f64();
        let pid = ev.shard;
        let (tid, scope) = track(&ev.kind);
        let args = ev.kind.payload();
        let e = match &ev.kind {
            // Async arrow: opens at the *arrival* instant so the buffered
            // wait is visible on the track.
            EventKind::RequestAdmit {
                id,
                kernel,
                arrival,
            } => base(kernel, "b", arrival.as_us_f64(), pid, tid)
                .field("cat", "request")
                .field("id", format!("req-{pid}-{id}")),
            EventKind::RequestComplete { id, kernel, .. } => base(kernel, "e", ts, pid, tid)
                .field("cat", "request")
                .field("id", format!("req-{pid}-{id}")),
            EventKind::BatchBegin { kernel, .. } => base(kernel, "B", ts, pid, tid),
            EventKind::BatchEnd { kernel, .. } => base(kernel, "E", ts, pid, tid),
            EventKind::SwapBegin { module } => base(&format!("swap {module}"), "B", ts, pid, tid),
            EventKind::SwapEnd { module, .. } => base(&format!("swap {module}"), "E", ts, pid, tid),
            EventKind::SchedDecision { .. } => base(ev.kind.name(), "i", ts, pid, tid)
                .field("s", scope)
                .field("cat", "sched"),
            kind => base(kind.name(), "i", ts, pid, tid).field("s", scope),
        };
        out.push(e.field("args", args));
    }
    // Per-request spans as complete ("X") slices — arrival → completion
    // with the four phase durations in args — so queue-wait changes from
    // a scheduling policy are visible as slice widths, not just async
    // arrows. Concurrent requests stack onto per-shard lanes (greedy
    // interval assignment in arrival order) so slices on one track never
    // overlap.
    let mut reqs = spans(events);
    reqs.sort_by_key(|s| (s.shard, s.arrival, s.id));
    let mut cur_shard: Option<u32> = None;
    let mut lane_free: Vec<SimTime> = Vec::new();
    for s in &reqs {
        if cur_shard != Some(s.shard) {
            cur_shard = Some(s.shard);
            lane_free.clear();
        }
        let lane = lane_free
            .iter()
            .position(|&free| free <= s.arrival)
            .unwrap_or(lane_free.len());
        let tid = TID_REQ_BASE + lane as u32;
        if lane == lane_free.len() {
            lane_free.push(SimTime::ZERO);
            out.push(meta(
                "thread_name",
                s.shard,
                tid,
                &format!("requests {lane}"),
            ));
        }
        lane_free[lane] = s.complete;
        out.push(
            base(s.kernel, "X", s.arrival.as_us_f64(), s.shard, tid)
                .field("dur", s.latency().as_us_f64())
                .field("cat", "request")
                .field(
                    "args",
                    Json::obj()
                        .field("id", s.id)
                        .field("hw", s.hw)
                        .field("buffer_wait_us", s.buffer_wait().as_us_f64())
                        .field("queue_wait_us", s.queue_wait().as_us_f64())
                        .field("reconfig_share_us", s.reconfig_share().as_us_f64())
                        .field("execute_us", s.execute().as_us_f64()),
                ),
        );
    }
    Json::obj()
        .field("traceEvents", Json::Arr(out))
        .field("displayTimeUnit", "ns")
}

#[cfg(test)]
mod tests {
    use vp2_sim::SimTime;

    use super::*;

    fn ev(time_us: u64, shard: u32, kind: EventKind) -> TraceEvent {
        TraceEvent {
            time: SimTime::from_us(time_us),
            shard,
            seq: 0,
            kind,
        }
    }

    fn events_of(json: &Json) -> &[Json] {
        let Json::Obj(fields) = json else { panic!() };
        let Json::Arr(evs) = &fields[0].1 else {
            panic!()
        };
        evs
    }

    fn str_field<'j>(ev: &'j Json, key: &str) -> Option<&'j str> {
        let Json::Obj(fields) = ev else { return None };
        fields.iter().find(|(k, _)| k == key).and_then(|(_, v)| {
            if let Json::Str(s) = v {
                Some(s.as_str())
            } else {
                None
            }
        })
    }

    #[test]
    fn slices_balance_and_arrows_pair() {
        let journal = vec![
            ev(
                2,
                1,
                EventKind::RequestAdmit {
                    id: 0,
                    kernel: "k",
                    arrival: SimTime::from_us(1),
                },
            ),
            ev(
                3,
                1,
                EventKind::BatchBegin {
                    kernel: "k",
                    size: 1,
                    hw: true,
                },
            ),
            ev(3, 1, EventKind::SwapBegin { module: "k".into() }),
            ev(
                7,
                1,
                EventKind::SwapEnd {
                    module: "k".into(),
                    frames: 2,
                    words: 40,
                    attempts: 1,
                    repaired_frames: 0,
                    verified: true,
                },
            ),
            ev(
                9,
                1,
                EventKind::RequestComplete {
                    id: 0,
                    kernel: "k",
                    hw: true,
                },
            ),
            ev(
                9,
                1,
                EventKind::BatchEnd {
                    kernel: "k",
                    hw: true,
                },
            ),
        ];
        let json = chrome_trace(&journal);
        let evs = events_of(&json);
        let count = |ph: &str| {
            evs.iter()
                .filter(|e| str_field(e, "ph") == Some(ph))
                .count()
        };
        assert_eq!(count("B"), count("E"), "duration slices balance");
        assert_eq!(count("b"), count("e"), "async arrows pair");
        assert_eq!(count("M"), 5, "process + 3 thread names + 1 request lane");
        // The completed request also renders as one X slice spanning
        // arrival → completion with the phase breakdown attached.
        assert_eq!(count("X"), 1, "one complete slice per request span");
        let x = evs
            .iter()
            .find(|e| str_field(e, "ph") == Some("X"))
            .unwrap();
        let Json::Obj(xf) = x else { panic!() };
        let num = |key: &str| {
            xf.iter().find(|(k, _)| k == key).map(|(_, v)| match v {
                Json::Num(n) => *n,
                other => panic!("{key}: {other:?}"),
            })
        };
        assert_eq!(num("ts"), Some(1.0), "slice opens at the true arrival");
        assert_eq!(num("dur"), Some(8.0), "slice spans the whole latency");
        // The async begin carries the arrival timestamp, not the admit.
        let b = evs
            .iter()
            .find(|e| str_field(e, "ph") == Some("b"))
            .unwrap();
        let Json::Obj(fields) = b else { panic!() };
        let ts = fields
            .iter()
            .find(|(k, _)| k == "ts")
            .map(|(_, v)| v.clone());
        assert_eq!(ts, Some(Json::Num(1.0)));
        assert_eq!(str_field(b, "id"), Some("req-1-0"));
    }

    #[test]
    fn empty_journal_exports_an_empty_track_list() {
        let json = chrome_trace(&[]);
        assert_eq!(
            json.render(),
            r#"{"traceEvents":[],"displayTimeUnit":"ns"}"#
        );
    }
}
