//! The per-shard journal: one registry, ring, sequence counter and
//! streaming sink, generic over the row type it holds.
//!
//! A [`Journal`] is a cheaply cloneable, `Send` handle onto a registry
//! of **per-shard slots** behind `Arc<Mutex<_>>`. Each shard's rows land
//! in its own bounded ring, stamped with a per-shard sequence number, so
//! a shard can run on a worker thread while other shards emit
//! concurrently — no cross-shard ordering is ever observed at emission
//! time. Readers merge the slots by the row's `(time, shard, seq)` key,
//! a total order independent of thread interleaving, so a parallel run
//! exports byte-identical artifacts to a single-threaded one.
//!
//! [`Journal::stream_to`] attaches a buffered JSONL sink per slot, so
//! the ring capacity does not bound run length: every row is appended
//! to `<base>.shardNNN<suffix>` as it is emitted, and
//! [`Journal::merge_streams`] folds the per-shard files into one
//! key-ordered file. The row type fixes the key fields and the suffix
//! ([`JournalRow`]); the tracer's events and the telemetry plane's
//! samples are both journals of this one shape.

use std::collections::{BTreeMap, VecDeque};
use std::fs::File;
use std::io::{BufWriter, Write as _};
use std::sync::{Arc, Mutex};

use vp2_sim::Json;

/// A row a [`Journal`] can hold: its merge key, the JSON field names
/// that key is written under, and the suffix its stream files carry.
/// [`Journal::merge_streams`] and the stream lint both read these, so
/// the ordering format of a row kind is declared here and nowhere else.
pub trait JournalRow: Clone + Send + 'static {
    /// JSON field names of the merge key, in key order: the leading
    /// time-like field, then the shard id, then the per-shard `seq`.
    const KEY_FIELDS: [&'static str; 3];
    /// Suffix of the streamed files: `<base>.shardNNN<SUFFIX>` per
    /// shard and `<base>.merged<SUFFIX>` for the merge.
    const SUFFIX: &'static str;
    /// What a stream of these rows is called in messages.
    const NOUN: &'static str;

    /// The merge key — the canonical total order across shards.
    fn merge_key(&self) -> (u64, u32, u64);

    /// The row's JSONL line, leading with [`JournalRow::KEY_FIELDS`].
    fn to_line(&self) -> Json;
}

/// One shard's slot: the bounded ring, its drop counter, the sequence
/// counter, the optional streaming sink, and the handle's own per-shard
/// state `S`, all under one lock.
struct Slot<R, S> {
    rows: VecDeque<R>,
    capacity: usize,
    dropped: u64,
    next_seq: u64,
    sink: Option<(BufWriter<File>, String)>,
    state: S,
}

/// State shared by every clone of an enabled journal: the per-shard
/// ring capacity, the slots keyed by shard, and the stream base once
/// streaming is on.
struct Registry<R, S> {
    capacity: usize,
    slots: BTreeMap<u32, Arc<Mutex<Slot<R, S>>>>,
    /// JSONL stream base path, once [`Journal::stream_to`] was called;
    /// slots registered later attach their sink on creation.
    stream_base: Option<String>,
}

/// The JSONL file one shard's stream lands in.
fn shard_stream_path<R: JournalRow>(base: &str, shard: u32) -> String {
    format!("{base}.shard{shard:03}{}", R::SUFFIX)
}

/// Creates the buffered sink for one shard's stream.
fn open_sink(path: String) -> std::io::Result<(BufWriter<File>, String)> {
    Ok((BufWriter::new(File::create(&path)?), path))
}

/// A cheaply cloneable, `Send` handle onto a set of per-shard journals
/// of `R` rows, each slot also carrying the handle's state `S`.
///
/// [`Journal::with_shard`] derives a handle bound to that shard's slot
/// (created on first use), which is how one cluster-level handle fans
/// out across a pool whose shards flush on worker threads. The disabled
/// journal is a `None` handle: [`Journal::on`] is a single branch and
/// [`Journal::emit_with`] a no-op, so instrumentation costs nothing
/// when the plane is off.
pub struct Journal<R, S = ()> {
    registry: Option<Arc<Mutex<Registry<R, S>>>>,
    /// This handle's slot, resolved once at handle creation so the emit
    /// path never touches the registry lock.
    slot: Option<Arc<Mutex<Slot<R, S>>>>,
    shard: u32,
}

impl<R, S> Clone for Journal<R, S> {
    fn clone(&self) -> Self {
        Journal {
            registry: self.registry.clone(),
            slot: self.slot.clone(),
            shard: self.shard,
        }
    }
}

impl<R, S> Default for Journal<R, S> {
    fn default() -> Self {
        Journal {
            registry: None,
            slot: None,
            shard: 0,
        }
    }
}

impl<R: JournalRow, S: Default> Journal<R, S> {
    /// An enabled journal bound to shard 0, whose per-shard rings hold
    /// at most `capacity` rows each; the oldest are dropped (and
    /// counted) once a ring fills. A streaming sink keeps every row
    /// regardless.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "a zero-capacity ring records nothing");
        let registry = Registry {
            capacity,
            slots: BTreeMap::new(),
            stream_base: None,
        };
        Journal {
            registry: Some(Arc::new(Mutex::new(registry))),
            slot: None,
            shard: 0,
        }
        .with_shard(0)
    }

    /// A handle bound to `shard`'s slot (created on first use, with a
    /// streaming sink attached when [`Journal::stream_to`] is active).
    /// A disabled handle stays disabled.
    pub fn with_shard(&self, shard: u32) -> Self {
        let Some(shared) = &self.registry else {
            return Journal::default();
        };
        let mut registry = shared.lock().expect("journal registry poisoned");
        let Registry {
            capacity,
            slots,
            stream_base,
        } = &mut *registry;
        let slot = slots
            .entry(shard)
            .or_insert_with(|| {
                let sink = stream_base.as_deref().map(|base| {
                    let path = shard_stream_path::<R>(base, shard);
                    open_sink(path.clone())
                        .unwrap_or_else(|e| panic!("{} stream: cannot create {path}: {e}", R::NOUN))
                });
                Arc::new(Mutex::new(Slot {
                    rows: VecDeque::new(),
                    capacity: *capacity,
                    dropped: 0,
                    next_seq: 0,
                    sink,
                    state: S::default(),
                }))
            })
            .clone();
        drop(registry);
        Journal {
            registry: Some(Arc::clone(shared)),
            slot: Some(slot),
            shard,
        }
    }
}

impl<R: JournalRow, S> Journal<R, S> {
    /// Is this handle recording? Check before building a row whose
    /// construction allocates.
    #[inline]
    pub fn on(&self) -> bool {
        self.registry.is_some()
    }

    /// The shard id this handle emits under.
    pub fn shard(&self) -> u32 {
        self.shard
    }

    /// Emits at most one row into this handle's shard. `build` runs
    /// under the shard's lock with the handle's per-shard state, the
    /// shard id and the next sequence number; it returns the row, or
    /// `None` to emit nothing. The sequence number is consumed only
    /// when a row is emitted, so every shard's `seq` runs 0, 1, 2, …
    /// without gaps. The row is streamed (when a sink is attached) and
    /// pushed onto the ring, evicting and counting the oldest when full.
    #[inline]
    pub fn emit_with(&self, build: impl FnOnce(&mut S, u32, u64) -> Option<R>) {
        let Some(slot) = &self.slot else { return };
        let mut guard = slot.lock().expect("journal poisoned");
        let s = &mut *guard;
        let Some(row) = build(&mut s.state, self.shard, s.next_seq) else {
            return;
        };
        s.next_seq += 1;
        if let Some((sink, _)) = &mut s.sink {
            let mut line = row.to_line().render();
            line.push('\n');
            sink.write_all(line.as_bytes())
                .unwrap_or_else(|e| panic!("{} stream: write failed: {e}", R::NOUN));
        }
        if s.rows.len() == s.capacity {
            s.rows.pop_front();
            s.dropped += 1;
        }
        s.rows.push_back(row);
    }

    /// Runs `update` on this handle's per-shard state under the shard's
    /// lock, emitting nothing. No-op on a disabled handle.
    pub fn update_state(&self, update: impl FnOnce(&mut S)) {
        if let Some(slot) = &self.slot {
            update(&mut slot.lock().expect("journal poisoned").state);
        }
    }

    /// Every shard's slot in shard order (the deterministic fold
    /// order); none when disabled.
    fn slots(&self) -> Vec<Arc<Mutex<Slot<R, S>>>> {
        self.registry.as_ref().map_or_else(Vec::new, |registry| {
            let registry = registry.lock().expect("journal registry poisoned");
            registry.slots.values().cloned().collect()
        })
    }

    /// Sums `f` over every shard's slot (0 when disabled).
    fn sum(&self, f: impl Fn(&Slot<R, S>) -> u64) -> u64 {
        self.slots()
            .iter()
            .map(|slot| f(&slot.lock().expect("journal poisoned")))
            .sum()
    }

    /// Snapshot of the merged rings, ordered by the merge key — a total
    /// order independent of how shard threads interleaved, so equal
    /// seeds yield identical views at any thread count.
    pub fn rows(&self) -> Vec<R> {
        let mut all = Vec::new();
        for slot in self.slots() {
            all.extend(slot.lock().expect("journal poisoned").rows.iter().cloned());
        }
        all.sort_by_key(R::merge_key);
        all
    }

    /// Rows currently held across every shard's ring.
    pub fn len(&self) -> usize {
        self.sum(|s| s.rows.len() as u64) as usize
    }

    /// Is every ring empty (always true when disabled)?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Rows evicted by the per-shard capacity bound, summed.
    pub fn dropped(&self) -> u64 {
        self.sum(|s| s.dropped)
    }

    /// Clears every shard's ring **and** its drop counter, so a fold
    /// over a post-clear window never reports stale drops from before
    /// the clear. Sequence numbers keep counting (streamed files stay
    /// strictly monotone per shard).
    pub fn clear(&self) {
        for slot in self.slots() {
            let mut s = slot.lock().expect("journal poisoned");
            s.rows.clear();
            s.dropped = 0;
        }
    }

    /// Attaches a buffered JSONL sink to every slot: each shard's rows
    /// append to `<base>.shardNNN<suffix>` as they are emitted, so the
    /// ring capacity no longer bounds run length. Slots created later
    /// (new shards) attach their sink on creation. Call before the run
    /// — rows emitted earlier are not replayed into the files.
    pub fn stream_to(&self, base: &str) -> std::io::Result<()> {
        let Some(registry) = &self.registry else {
            return Ok(());
        };
        let mut registry = registry.lock().expect("journal registry poisoned");
        registry.stream_base = Some(base.to_string());
        for (shard, slot) in &registry.slots {
            let mut s = slot.lock().expect("journal poisoned");
            if s.sink.is_none() {
                s.sink = Some(open_sink(shard_stream_path::<R>(base, *shard))?);
            }
        }
        Ok(())
    }

    /// Flushes every streaming sink and returns the per-shard file
    /// paths in shard order (empty when streaming is off).
    pub fn flush_streams(&self) -> std::io::Result<Vec<String>> {
        let mut paths = Vec::new();
        for slot in self.slots() {
            if let Some((sink, path)) = &mut slot.lock().expect("journal poisoned").sink {
                sink.flush()?;
                paths.push(path.clone());
            }
        }
        Ok(paths)
    }

    /// Where [`Journal::merge_streams`] output for stream base `base`
    /// conventionally lands: `<base>.merged<suffix>`.
    pub fn merged_path(base: &str) -> String {
        format!("{base}.merged{}", R::SUFFIX)
    }

    /// Merges the per-shard streamed files into one JSONL file at
    /// `out`, ordered by the merge key read back from each line's
    /// [`JournalRow::KEY_FIELDS`] — the same total order as
    /// [`Journal::rows`], so the merged file is byte-identical across
    /// thread counts. Returns the number of merged lines. The merge
    /// holds the lines in memory; per-shard files are the scalable
    /// artifact for very long runs.
    pub fn merge_streams(&self, out: &str) -> std::io::Result<usize> {
        let invalid = |msg: String| std::io::Error::new(std::io::ErrorKind::InvalidData, msg);
        let paths = self.flush_streams()?;
        let mut lines: Vec<((u64, u32, u64), String)> = Vec::new();
        for path in &paths {
            let text = std::fs::read_to_string(path)?;
            for line in text.lines() {
                let doc = Json::parse(line)
                    .map_err(|e| invalid(format!("{path}: bad {} line: {e}", R::NOUN)))?;
                let num = |key: &str| {
                    doc.get(key)
                        .and_then(Json::as_f64)
                        .map(|x| x as u64)
                        .ok_or_else(|| invalid(format!("{path}: {} line missing {key}", R::NOUN)))
                };
                let [lead, shard, seq] = R::KEY_FIELDS;
                let key = (num(lead)?, num(shard)? as u32, num(seq)?);
                lines.push((key, line.to_string()));
            }
        }
        lines.sort_by_key(|(key, _)| *key);
        let mut f = BufWriter::new(File::create(out)?);
        for (_, line) in &lines {
            f.write_all(line.as_bytes())?;
            f.write_all(b"\n")?;
        }
        f.flush()?;
        Ok(lines.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A minimal row: `(t, shard, seq)` plus a payload.
    #[derive(Debug, Clone, PartialEq)]
    struct Row {
        t: u64,
        shard: u32,
        seq: u64,
        v: u32,
    }

    impl JournalRow for Row {
        const KEY_FIELDS: [&'static str; 3] = ["t", "shard", "seq"];
        const SUFFIX: &'static str = ".test.jsonl";
        const NOUN: &'static str = "test";

        fn merge_key(&self) -> (u64, u32, u64) {
            (self.t, self.shard, self.seq)
        }

        fn to_line(&self) -> Json {
            Json::obj()
                .field("t", self.t)
                .field("shard", self.shard)
                .field("seq", self.seq)
                .field("v", self.v)
        }
    }

    fn emit(j: &Journal<Row>, t: u64, v: u32) {
        j.emit_with(|_, shard, seq| Some(Row { t, shard, seq, v }));
    }

    fn payloads(j: &Journal<Row>) -> Vec<u32> {
        j.rows().iter().map(|r| r.v).collect()
    }

    /// The whole point of the per-shard design.
    #[test]
    fn journal_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<Journal<Row, Vec<u64>>>();
    }

    #[test]
    fn disabled_records_nothing_and_stays_disabled() {
        let j = Journal::<Row>::default();
        emit(&j, 1, 1);
        let s = j.with_shard(3);
        emit(&s, 1, 1);
        assert!(!j.on() && !s.on());
        assert!(j.is_empty() && j.rows().is_empty());
        assert_eq!(j.dropped(), 0);
        assert_eq!(j.flush_streams().expect("no-op"), Vec::<String>::new());
    }

    #[test]
    fn shard_handles_merge_by_key() {
        let j = Journal::<Row>::with_capacity(8);
        let s1 = j.with_shard(1);
        // Emitted out of time order across shards: the merged view is
        // ordered by (time, shard, seq), not by emission interleaving.
        emit(&s1, 2, 2);
        emit(&j, 1, 1);
        emit(&j, 2, 3);
        let keys: Vec<_> = j.rows().iter().map(Row::merge_key).collect();
        assert_eq!(keys, vec![(1, 0, 0), (2, 0, 1), (2, 1, 0)]);
    }

    #[test]
    fn seq_advances_only_on_emitted_rows() {
        let j = Journal::<Row, u32>::with_capacity(8);
        // Every other build declines; the emitted rows still count
        // 0, 1, 2 without gaps.
        for v in 0..6u32 {
            j.emit_with(|declined, shard, seq| {
                if v % 2 == 1 {
                    *declined += 1;
                    return None;
                }
                Some(Row {
                    t: 0,
                    shard,
                    seq,
                    v,
                })
            });
        }
        let seqs: Vec<u64> = j.rows().iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2]);
        let mut declined = 0;
        j.update_state(|d| declined = *d);
        assert_eq!(declined, 3, "the state lives in the shard's slot");
    }

    #[test]
    fn ring_drops_oldest_and_counts() {
        let j = Journal::<Row>::with_capacity(2);
        for i in 0..5 {
            emit(&j, u64::from(i), i);
        }
        assert_eq!(j.len(), 2);
        assert_eq!(j.dropped(), 3);
        assert_eq!(payloads(&j), vec![3, 4]);
    }

    #[test]
    fn clear_resets_the_drop_counter_but_not_seq() {
        let j = Journal::<Row>::with_capacity(2);
        for i in 0..5 {
            emit(&j, u64::from(i), i);
        }
        j.clear();
        assert!(j.is_empty());
        assert_eq!(j.dropped(), 0, "a post-clear window starts from zero");
        emit(&j, 9, 9);
        assert_eq!(j.rows()[0].seq, 5);
    }

    #[test]
    #[should_panic(expected = "zero-capacity")]
    fn zero_capacity_is_rejected() {
        let _ = Journal::<Row>::with_capacity(0);
    }

    #[test]
    fn streaming_outlives_the_ring_and_merges_sorted() {
        let base = std::env::temp_dir().join(format!("rtr_journal_{}", std::process::id()));
        let base = base.to_str().expect("utf-8 temp path").to_string();
        let j = Journal::<Row>::with_capacity(2);
        emit(&j, 0, 100); // before streaming: not replayed into the file
        j.stream_to(&base).expect("attach sinks");
        // Shard 1 registers after stream_to and attaches on creation.
        let s1 = j.with_shard(1);
        for i in 1..6 {
            emit(&j, u64::from(i), i);
        }
        emit(&s1, 3, 99);
        assert_eq!(j.dropped(), 4, "the ring wrapped");
        let paths = j.flush_streams().expect("flush");
        assert_eq!(
            paths,
            vec![
                format!("{base}.shard000.test.jsonl"),
                format!("{base}.shard001.test.jsonl")
            ]
        );
        let shard0 = std::fs::read_to_string(&paths[0]).expect("read shard 0");
        assert_eq!(shard0.lines().count(), 5, "every streamed row survives");
        assert!(shard0.starts_with("{\"t\":1,\"shard\":0,\"seq\":1,"));
        let merged_path = Journal::<Row>::merged_path(&base);
        assert_eq!(merged_path, format!("{base}.merged.test.jsonl"));
        assert_eq!(j.merge_streams(&merged_path).expect("merge"), 6);
        let text = std::fs::read_to_string(&merged_path).expect("read merged");
        let keys: Vec<(u64, u64, u64)> = text
            .lines()
            .map(|l| {
                let doc = Json::parse(l).expect("line parses");
                let num = |k: &str| doc.get(k).and_then(Json::as_f64).unwrap() as u64;
                (num("t"), num("shard"), num("seq"))
            })
            .collect();
        assert_eq!(keys[2..4], [(3, 0, 3), (3, 1, 0)]);
        assert!(
            keys.windows(2).all(|w| w[0] < w[1]),
            "merged stream is strictly key-ordered: {keys:?}"
        );
        for path in paths.iter().chain([&merged_path]) {
            let _ = std::fs::remove_file(path);
        }
    }
}
