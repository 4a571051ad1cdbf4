//! The tracer: a [`Journal`] of [`TraceEvent`]s.
//!
//! Each shard's events land in its own ring of the per-shard journal,
//! stamped with a per-shard sequence number, so a shard's `Service` can
//! run on a worker thread while other shards emit concurrently.
//! [`Tracer::events`] merges the rings by `(time, shard, seq)`, and
//! `stream_to`/`merge_streams` (from [`Journal`]) write every event to
//! `<base>.shardNNN.jsonl` and fold those into one ordered file.

use std::ops::Deref;

use vp2_sim::{Json, SimTime};

use crate::event::{EventKind, TraceEvent};
use crate::journal::{Journal, JournalRow};

/// Default per-shard ring capacity: big enough for every workload in
/// the repo's benches; a multi-hour stream wraps and keeps the newest
/// events (attach [`Journal::stream_to`] to keep all of them).
pub const DEFAULT_CAPACITY: usize = 1 << 16;

impl JournalRow for TraceEvent {
    const KEY_FIELDS: [&'static str; 3] = ["time_ps", "shard", "seq"];
    const SUFFIX: &'static str = ".jsonl";
    const NOUN: &'static str = "journal";

    fn merge_key(&self) -> (u64, u32, u64) {
        (self.time.as_ps(), self.shard, self.seq)
    }

    fn to_line(&self) -> Json {
        self.to_json()
    }
}

/// A cheaply cloneable, `Send` handle onto a set of per-shard event
/// journals.
///
/// [`Tracer::with_shard`] derives a handle bound to that shard's
/// journal (created on first use), which is how one cluster-level
/// tracer fans out across a pool whose shards flush on worker threads.
/// The disabled tracer is a `None` handle: `on` is a single branch and
/// [`Tracer::emit`] a no-op, so instrumentation costs nothing when
/// tracing is off. The ring, drop, clear and streaming methods are the
/// [`Journal`]'s, reached through `Deref`.
#[derive(Clone, Default)]
pub struct Tracer(Journal<TraceEvent>);

impl Deref for Tracer {
    type Target = Journal<TraceEvent>;

    fn deref(&self) -> &Journal<TraceEvent> {
        &self.0
    }
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.on() {
            write!(
                f,
                "Tracer(shard {}, {} events, {} dropped)",
                self.shard(),
                self.len(),
                self.dropped()
            )
        } else {
            write!(f, "Tracer(disabled)")
        }
    }
}

impl Tracer {
    /// The no-op tracer (the default everywhere).
    pub fn disabled() -> Tracer {
        Tracer::default()
    }

    /// An enabled tracer with the default per-shard ring capacity.
    pub fn enabled() -> Tracer {
        Tracer::with_capacity(DEFAULT_CAPACITY)
    }

    /// An enabled tracer whose per-shard rings hold at most `capacity`
    /// events each; the oldest are dropped (and counted) once a ring
    /// fills. A streaming sink keeps the full journal regardless.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn with_capacity(capacity: usize) -> Tracer {
        Tracer(Journal::with_capacity(capacity))
    }

    /// A handle bound to `shard`'s journal (created on first use, with
    /// a streaming sink attached when `stream_to` is active).
    pub fn with_shard(&self, shard: u32) -> Tracer {
        Tracer(self.0.with_shard(shard))
    }

    /// Records one event at simulated instant `time`.
    #[inline]
    pub fn emit(&self, time: SimTime, kind: EventKind) {
        self.0.emit_with(|_, shard, seq| {
            Some(TraceEvent {
                time,
                shard,
                seq,
                kind,
            })
        });
    }

    /// Snapshot of the merged journal, ordered by `(time, shard, seq)` —
    /// a total order independent of how shard threads interleaved, so
    /// equal seeds yield identical views at any thread count.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.rows()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The whole point of the per-shard-journal design.
    #[test]
    fn tracer_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<Tracer>();
    }

    #[test]
    fn disabled_records_nothing_and_stays_disabled_per_shard() {
        let t = Tracer::disabled();
        let s = t.with_shard(4);
        for h in [&t, &s] {
            assert!(!h.on());
            h.emit(SimTime::from_us(1), EventKind::BufferFlush { count: 3 });
        }
        assert!(t.is_empty() && s.is_empty());
        assert_eq!(t.dropped(), 0);
        assert_eq!(format!("{s:?}"), "Tracer(disabled)");
    }

    #[test]
    fn events_carry_their_shard_and_lead_with_the_key_fields() {
        let t = Tracer::with_capacity(8).with_shard(2);
        t.emit(SimTime::from_us(5), EventKind::BufferFlush { count: 1 });
        t.emit(SimTime::from_us(4), EventKind::BufferFlush { count: 2 });
        let ev = t.events();
        assert_eq!(ev[0].key(), (SimTime::from_us(4), 2, 1));
        assert_eq!(ev[1].merge_key(), (SimTime::from_us(5).as_ps(), 2, 0));
        let [lead, shard, seq] = TraceEvent::KEY_FIELDS;
        let line = ev[0].to_line().render();
        assert!(
            line.starts_with(&format!("{{\"{lead}\":4000000,\"{shard}\":2,\"{seq}\":1,")),
            "{line}"
        );
    }
}
