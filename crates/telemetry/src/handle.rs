//! The telemetry handle: a [`Journal`] of [`TelemetryRow`]s.
//!
//! The registry, the per-shard `seq`, the bounded ring, the JSONL sinks
//! and the `(tick, shard, seq)` merge are the journal's, shared with
//! `rtr_trace::Tracer`. What is particular to telemetry is the emission
//! model: instead of journaling every event, a series accepts at most
//! one row per `(scope, tick)` — the caller samples opportunistically
//! (every batch, every flush) and the handle throttles to the tick
//! grid, so a 10× busier run emits the same number of rows per
//! simulated second. The dedup, rate and lane-window state lives in the
//! journal's per-shard slot, under the same lock as the ring.

use std::collections::BTreeMap;
use std::ops::Deref;

use rtr_trace::{Journal, JournalRow};
use vp2_sim::{Json, SimTime};

use crate::row::{Gauge, GaugeKind, TelemetryRow};

/// Default tick period: 1 ms of simulated time (1e9 ps). The reference
/// workloads span tens to hundreds of milliseconds, so the default
/// yields tens to hundreds of samples per scope.
pub const DEFAULT_TICK_PS: u64 = 1_000_000_000;

/// Default per-shard in-memory row capacity; the streaming sink keeps
/// every row regardless.
pub const DEFAULT_CAPACITY: usize = 1 << 14;

/// Latency samples each per-lane ring window holds: tails are computed
/// over the most recent `LANE_WINDOW` completions, so memory stays
/// constant however long the run.
pub const LANE_WINDOW: usize = 512;

/// A fixed-capacity overwrite-oldest window of latency samples.
#[derive(Debug)]
struct Ring {
    cap: usize,
    buf: Vec<u64>,
    next: usize,
}

impl Ring {
    fn new(cap: usize) -> Ring {
        Ring {
            cap,
            buf: Vec::new(),
            next: 0,
        }
    }

    fn push(&mut self, ps: u64) {
        if self.buf.len() < self.cap {
            self.buf.push(ps);
        } else {
            self.buf[self.next] = ps;
        }
        self.next = (self.next + 1) % self.cap;
    }

    /// 99th percentile over the window, `None` while empty.
    fn p99(&self) -> Option<u64> {
        if self.buf.is_empty() {
            return None;
        }
        let mut sorted = self.buf.clone();
        sorted.sort_unstable();
        let rank = (0.99 * (sorted.len() - 1) as f64).round() as usize;
        Some(sorted[rank.min(sorted.len() - 1)])
    }
}

/// One shard's sampling state, kept in its journal slot: the per-scope
/// tick dedup and rate memory, and the per-lane latency windows.
pub struct Series {
    /// Last tick a row was emitted for, per scope — the dedup that
    /// bounds the emission rate to the tick grid.
    last_tick: BTreeMap<&'static str, u64>,
    /// Previous `(time_ps, cumulative)` per `(scope, gauge)`, for
    /// converting cumulative totals into per-second rates.
    prev: BTreeMap<(&'static str, &'static str), (u64, f64)>,
    deadline_ring: Ring,
    effort_ring: Ring,
}

impl Default for Series {
    fn default() -> Series {
        Series {
            last_tick: BTreeMap::new(),
            prev: BTreeMap::new(),
            deadline_ring: Ring::new(LANE_WINDOW),
            effort_ring: Ring::new(LANE_WINDOW),
        }
    }
}

impl JournalRow for TelemetryRow {
    const KEY_FIELDS: [&'static str; 3] = ["tick", "shard", "seq"];
    /// The `.tl.` infix keeps telemetry streams distinct from the trace
    /// journals that may share a base path.
    const SUFFIX: &'static str = ".tl.jsonl";
    const NOUN: &'static str = "telemetry";

    fn merge_key(&self) -> (u64, u32, u64) {
        self.key()
    }

    fn to_line(&self) -> Json {
        self.to_json()
    }
}

/// A cheaply cloneable, `Send` handle onto a set of per-shard telemetry
/// series.
///
/// [`Telemetry::with_shard`] derives a handle bound to that shard's
/// series (created on first use), which is how one cluster-level handle
/// fans out across a pool whose shards flush on worker threads. The
/// disabled handle is a `None`: `on` is a single branch and
/// [`Telemetry::sample`] a no-op, so instrumentation costs nothing when
/// telemetry is off. The ring, drop and streaming methods are the
/// [`Journal`]'s, reached through `Deref`.
#[derive(Clone, Default)]
pub struct Telemetry {
    journal: Journal<TelemetryRow, Series>,
    /// The tick period in picoseconds (0 when disabled).
    tick_ps: u64,
}

impl Deref for Telemetry {
    type Target = Journal<TelemetryRow, Series>;

    fn deref(&self) -> &Journal<TelemetryRow, Series> {
        &self.journal
    }
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.on() {
            write!(
                f,
                "Telemetry(shard {}, tick {} ps, {} rows)",
                self.shard(),
                self.tick_ps,
                self.len()
            )
        } else {
            write!(f, "Telemetry(disabled)")
        }
    }
}

impl Telemetry {
    /// The no-op handle (the default everywhere).
    pub fn disabled() -> Telemetry {
        Telemetry::default()
    }

    /// An enabled handle sampling on the default 1 ms tick.
    pub fn enabled() -> Telemetry {
        Telemetry::with_tick(SimTime::from_ps(DEFAULT_TICK_PS))
    }

    /// An enabled handle sampling on the given tick period.
    ///
    /// # Panics
    /// Panics if `tick` is zero — a zero period has no tick grid.
    pub fn with_tick(tick: SimTime) -> Telemetry {
        assert!(!tick.is_zero(), "the tick period must be positive");
        Telemetry {
            journal: Journal::with_capacity(DEFAULT_CAPACITY),
            tick_ps: tick.as_ps(),
        }
    }

    /// A handle bound to `shard`'s series (created on first use, with a
    /// streaming sink attached when `stream_to` is active).
    pub fn with_shard(&self, shard: u32) -> Telemetry {
        Telemetry {
            journal: self.journal.with_shard(shard),
            tick_ps: self.tick_ps,
        }
    }

    /// The sampling tick period ([`SimTime::ZERO`] when disabled).
    pub fn tick_period(&self) -> SimTime {
        SimTime::from_ps(self.tick_ps)
    }

    /// Feeds one completed request's latency into this shard's per-lane
    /// ring window. The windows are what
    /// [`Telemetry::sample_with_tails`] computes p99 gauges over —
    /// constant memory however long the run.
    pub fn record_latency(&self, deadline: bool, latency: SimTime) {
        self.journal.update_state(|s| {
            let ring = if deadline {
                &mut s.deadline_ring
            } else {
                &mut s.effort_ring
            };
            ring.push(latency.as_ps());
        });
    }

    /// Takes one sample at simulated instant `time` under `scope`. At
    /// most one row per `(scope, tick)` is emitted — later samples on
    /// the same tick are dropped, so callers sample opportunistically
    /// (every batch, every flush) and the tick grid bounds the output.
    ///
    /// [`GaugeKind::Rate`] gauges carry cumulative totals; the emitted
    /// value is the per-simulated-second rate since the scope's
    /// previous row (from zero, for the first row).
    pub fn sample(&self, time: SimTime, scope: &'static str, gauges: &[Gauge]) {
        self.sample_inner(time, scope, gauges, false);
    }

    /// Like [`Telemetry::sample`], appending `p99_deadline_us` /
    /// `p99_effort_us` gauges computed over the shard's per-lane ring
    /// windows — each present only once its lane has recorded a sample,
    /// mirroring the snapshot JSON's gating of per-lane fields.
    pub fn sample_with_tails(&self, time: SimTime, scope: &'static str, gauges: &[Gauge]) {
        self.sample_inner(time, scope, gauges, true);
    }

    fn sample_inner(&self, time: SimTime, scope: &'static str, gauges: &[Gauge], tails: bool) {
        let tick_ps = self.tick_ps;
        self.journal.emit_with(|s, shard, seq| {
            let tick = time.as_ps() / tick_ps;
            if s.last_tick.get(scope) == Some(&tick) {
                return None;
            }
            s.last_tick.insert(scope, tick);
            let mut values: Vec<(&'static str, f64)> = Vec::with_capacity(gauges.len() + 2);
            for gauge in gauges {
                match gauge.kind {
                    GaugeKind::Value(v) => values.push((gauge.name, v)),
                    GaugeKind::Rate(total) => {
                        let (prev_ps, prev_total) = s
                            .prev
                            .get(&(scope, gauge.name))
                            .copied()
                            .unwrap_or((0, 0.0));
                        // The first sample of a run can land at time 0;
                        // charge it one tick so the rate stays finite.
                        let dt_ps = match time.as_ps().saturating_sub(prev_ps) {
                            0 => tick_ps,
                            dt => dt,
                        };
                        let rate = (total - prev_total).max(0.0) / (dt_ps as f64 * 1e-12);
                        s.prev.insert((scope, gauge.name), (time.as_ps(), total));
                        values.push((gauge.name, rate));
                    }
                }
            }
            if tails {
                if let Some(p99) = s.deadline_ring.p99() {
                    values.push(("p99_deadline_us", SimTime::from_ps(p99).as_us_f64()));
                }
                if let Some(p99) = s.effort_ring.p99() {
                    values.push(("p99_effort_us", SimTime::from_ps(p99).as_us_f64()));
                }
            }
            Some(TelemetryRow {
                tick,
                time,
                shard,
                seq,
                scope,
                gauges: values,
            })
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The whole point of the per-shard-series design.
    #[test]
    fn telemetry_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<Telemetry>();
    }

    #[test]
    fn disabled_records_nothing_and_stays_disabled_per_shard() {
        let t = Telemetry::disabled();
        let s = t.with_shard(4);
        for h in [&t, &s] {
            assert!(!h.on());
            h.sample(SimTime::from_us(1), "service", &[Gauge::value("q", 1.0)]);
            h.record_latency(false, SimTime::from_us(5));
            assert_eq!(h.tick_period(), SimTime::ZERO);
        }
        assert!(t.is_empty() && s.is_empty());
        assert_eq!(format!("{s:?}"), "Telemetry(disabled)");
    }

    #[test]
    fn seq_counts_emitted_rows_only() {
        let t = Telemetry::with_tick(SimTime::from_us(100)).with_shard(5);
        // Tick 0: the first sample per scope emits, the rest are
        // deduplicated and must not consume a sequence number.
        t.sample(SimTime::from_us(10), "service", &[Gauge::value("q", 1.0)]);
        t.sample(SimTime::from_us(20), "service", &[Gauge::value("q", 2.0)]);
        t.sample(SimTime::from_us(30), "buffer", &[Gauge::value("d", 1.0)]);
        t.sample(SimTime::from_us(40), "service", &[Gauge::rate("c", 4.0)]);
        t.sample(SimTime::from_us(50), "buffer", &[Gauge::value("d", 2.0)]);
        // Tick 1 reopens the service scope.
        t.sample(SimTime::from_us(150), "service", &[Gauge::value("q", 3.0)]);
        let stamps: Vec<(u64, u32, u64)> = t.rows().iter().map(|r| r.key()).collect();
        assert_eq!(stamps, vec![(0, 5, 0), (0, 5, 1), (1, 5, 2)]);
    }

    #[test]
    fn tick_dedup_keeps_one_row_per_scope_per_tick() {
        let t = Telemetry::with_tick(SimTime::from_us(100));
        // Three samples inside tick 0, two scopes: one row per scope,
        // first-sample-wins.
        t.sample(SimTime::from_us(10), "service", &[Gauge::value("q", 1.0)]);
        t.sample(SimTime::from_us(20), "service", &[Gauge::value("q", 9.0)]);
        t.sample(SimTime::from_us(30), "buffer", &[Gauge::value("d", 2.0)]);
        // Tick 1 reopens the service scope.
        t.sample(SimTime::from_us(150), "service", &[Gauge::value("q", 3.0)]);
        let rows = t.rows();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].scope, "service");
        assert_eq!(rows[0].gauges, vec![("q", 1.0)]);
        assert_eq!(rows[1].scope, "buffer");
        assert_eq!((rows[2].tick, rows[2].gauges[0].1), (1, 3.0));
    }

    #[test]
    fn rate_gauges_convert_cumulative_totals_per_scope() {
        let t = Telemetry::with_tick(SimTime::from_us(100));
        // 10 completions by 100us, 30 by 300us: the second row's rate
        // covers the 200us between samples.
        t.sample(SimTime::from_us(100), "service", &[Gauge::rate("c", 10.0)]);
        t.sample(SimTime::from_us(300), "service", &[Gauge::rate("c", 30.0)]);
        let rows = t.rows();
        assert_eq!(rows.len(), 2);
        let per_s = |us: f64, items: f64| items / (us * 1e-6);
        assert!((rows[0].gauges[0].1 - per_s(100.0, 10.0)).abs() < 1e-6);
        assert!((rows[1].gauges[0].1 - per_s(200.0, 20.0)).abs() < 1e-6);
        // Utilization via a busy-seconds Rate: 50us busy over 200us.
        t.sample(
            SimTime::from_us(500),
            "util",
            &[Gauge::rate("busy", SimTime::from_us(50).as_secs_f64())],
        );
        t.sample(
            SimTime::from_us(700),
            "util",
            &[Gauge::rate("busy", SimTime::from_us(150).as_secs_f64())],
        );
        let rows = t.rows();
        let util = rows.last().expect("rows").gauges[0].1;
        assert!((util - 0.5).abs() < 1e-9, "100us busy / 200us = {util}");
    }

    #[test]
    fn lane_rings_window_the_tail_and_gate_their_gauges() {
        let t = Telemetry::with_tick(SimTime::from_us(1));
        // No latencies yet: no p99 gauges.
        t.sample_with_tails(SimTime::from_us(1), "service", &[Gauge::value("q", 0.0)]);
        assert_eq!(t.rows()[0].gauges.len(), 1);
        // Effort-lane only: exactly one tail gauge appears.
        for i in 1..=100u64 {
            t.record_latency(false, SimTime::from_us(i));
        }
        t.sample_with_tails(SimTime::from_us(2), "service", &[]);
        let rows = t.rows();
        assert_eq!(rows[1].gauges.len(), 1);
        assert_eq!(rows[1].gauges[0].0, "p99_effort_us");
        assert!((rows[1].gauges[0].1 - 99.0).abs() < 1.5);
        // The ring windows: LANE_WINDOW fresh fast samples push the old
        // slow ones out, so the windowed p99 falls.
        for _ in 0..LANE_WINDOW {
            t.record_latency(false, SimTime::from_us(1));
        }
        t.sample_with_tails(SimTime::from_us(3), "service", &[]);
        let rows = t.rows();
        assert!(
            rows[2].gauges[0].1 <= 1.0 + 1e-9,
            "the window forgot the slow samples: {}",
            rows[2].gauges[0].1
        );
    }

    #[test]
    #[should_panic(expected = "tick period")]
    fn zero_tick_is_rejected() {
        let _ = Telemetry::with_tick(SimTime::ZERO);
    }
}
