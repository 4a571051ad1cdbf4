//! Bounded bitstream cache with deterministic LRU eviction.
//!
//! A cache entry is a ready-to-feed transfer image: the exact words the
//! HWICAP should receive (possibly compressed) plus the accounting a
//! cache hit must still report. The key is a content hash over whatever
//! identifies the transfer — component identity, slot, and a fingerprint
//! of the slot's *current* frame contents, since a differential image is
//! only valid against the state it was diffed from.
//!
//! Determinism: eviction picks the entry with the smallest last-touch
//! tick, and ticks are issued monotonically per access, so the victim is
//! unique regardless of hash-map iteration order. Equal request
//! sequences therefore produce equal hit/miss/evict traces.

use std::collections::HashMap;
use std::sync::Arc;

/// Hash accumulator for building cache keys out of heterogeneous
/// material (names, indices, frame words). Deterministic across runs and
/// platforms. Bytes fold in as FNV-1a; a word folds in whole, in one
/// rotate, xor and multiply, which is what keys over a slot's frames cost.
#[derive(Debug, Clone, Copy)]
pub struct Fingerprint(u64);

impl Fingerprint {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    /// An odd multiplier with well-spread bits (FxHash's), so a word's high
    /// bits reach the key's low bits within a few steps.
    const WORD_MULTIPLIER: u64 = 0x517c_c1b7_2722_0a95;

    /// A fresh accumulator at the FNV offset basis.
    pub fn new() -> Self {
        Fingerprint(Self::OFFSET)
    }

    /// Folds a byte slice into the hash.
    pub fn update_bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(Self::PRIME);
        }
        self
    }

    /// Folds a string into the hash (length-prefixed so concatenations
    /// cannot collide).
    pub fn update_str(&mut self, s: &str) -> &mut Self {
        self.update_u64(s.len() as u64);
        self.update_bytes(s.as_bytes())
    }

    /// Folds a word into the hash. Every step is a bijection of the state
    /// for a fixed word and changes the state for a changed word, so two
    /// sequences that differ in a single word never hash equal.
    #[inline]
    pub fn update_u32(&mut self, w: u32) -> &mut Self {
        self.0 = (self.0.rotate_left(5) ^ u64::from(w)).wrapping_mul(Self::WORD_MULTIPLIER);
        self
    }

    /// Folds a 64-bit value into the hash.
    pub fn update_u64(&mut self, w: u64) -> &mut Self {
        self.update_bytes(&w.to_le_bytes())
    }

    /// The accumulated hash.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fingerprint {
    fn default() -> Self {
        Self::new()
    }
}

/// A cached transfer image plus the accounting a replay must report (the
/// full image's frames and words follow from the key's module and slot).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CachedStream {
    /// Words to feed the HWICAP (compressed if that was shorter), shared
    /// by every hit.
    pub words: Arc<[u32]>,
    /// Frames this image actually writes.
    pub frames_sent: u32,
    /// Is `words` in the run/dictionary format?
    pub compressed: bool,
}

#[derive(Debug, Clone)]
struct Entry {
    stream: CachedStream,
    touched: u64,
}

/// The bounded, deterministic-LRU bitstream cache.
#[derive(Debug, Clone, Default)]
pub struct BitstreamCache {
    capacity: usize,
    entries: HashMap<u64, Entry>,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl BitstreamCache {
    /// A cache holding at most `capacity` entries (0 = disabled: every
    /// lookup misses and nothing is stored).
    pub fn new(capacity: usize) -> Self {
        BitstreamCache {
            capacity,
            ..BitstreamCache::default()
        }
    }

    /// Looks up a transfer image, refreshing its LRU position. Counts a
    /// hit or a miss. A hit shares the entry's words rather than copying
    /// them.
    pub fn get(&mut self, key: u64) -> Option<CachedStream> {
        self.tick += 1;
        match self.entries.get_mut(&key) {
            Some(entry) => {
                entry.touched = self.tick;
                self.hits += 1;
                Some(entry.stream.clone())
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Stores a transfer image, evicting the least-recently-used entry
    /// (ties impossible: touch ticks are unique) if the cache is full.
    pub fn insert(&mut self, key: u64, stream: CachedStream) {
        if self.capacity == 0 {
            return;
        }
        self.tick += 1;
        if !self.entries.contains_key(&key) && self.entries.len() >= self.capacity {
            let victim = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.touched)
                .map(|(&k, _)| k)
                .expect("cache is non-empty when full");
            self.entries.remove(&victim);
            self.evictions += 1;
        }
        self.entries.insert(
            key,
            Entry {
                stream,
                touched: self.tick,
            },
        );
    }

    /// Entries currently held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Is the cache empty?
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Capacity bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Lookups that hit.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that missed.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Entries evicted by the capacity bound.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(tag: u32) -> CachedStream {
        CachedStream {
            words: vec![tag; 4].into(),
            frames_sent: 2,
            compressed: false,
        }
    }

    #[test]
    fn hit_miss_and_counters() {
        let mut c = BitstreamCache::new(4);
        assert_eq!(c.get(1), None);
        c.insert(1, stream(1));
        assert_eq!(c.get(1).unwrap().words[..], [1; 4]);
        assert_eq!((c.hits(), c.misses()), (1, 1));
        let (a, b) = (c.get(1).unwrap(), c.get(1).unwrap());
        assert!(Arc::ptr_eq(&a.words, &b.words), "hits share the words");
    }

    #[test]
    fn lru_evicts_the_coldest_entry() {
        let mut c = BitstreamCache::new(2);
        c.insert(1, stream(1));
        c.insert(2, stream(2));
        // Touch 1 so 2 becomes the LRU victim.
        assert!(c.get(1).is_some());
        c.insert(3, stream(3));
        assert_eq!(c.len(), 2);
        assert_eq!(c.evictions(), 1);
        assert!(c.get(2).is_none(), "entry 2 was the LRU victim");
        assert!(c.get(1).is_some());
        assert!(c.get(3).is_some());
    }

    #[test]
    fn reinsert_updates_without_eviction() {
        let mut c = BitstreamCache::new(2);
        c.insert(1, stream(1));
        c.insert(2, stream(2));
        c.insert(1, stream(9));
        assert_eq!(c.evictions(), 0);
        assert_eq!(c.get(1).unwrap().words[..], [9; 4]);
    }

    #[test]
    fn zero_capacity_disables_storage() {
        let mut c = BitstreamCache::new(0);
        c.insert(1, stream(1));
        assert!(c.is_empty());
        assert_eq!(c.get(1), None);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn eviction_order_is_deterministic() {
        // Same access sequence twice → same survivor set.
        let run = || {
            let mut c = BitstreamCache::new(3);
            for k in 0..8u64 {
                c.insert(k, stream(k as u32));
                if k % 2 == 0 {
                    c.get(k / 2);
                }
            }
            let mut present: Vec<u64> = (0..8).filter(|&k| c.get(k).is_some()).collect();
            present.sort_unstable();
            (present, c.evictions())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn fingerprint_is_stable_and_sensitive() {
        let mut a = Fingerprint::new();
        a.update_str("sha1").update_u64(0).update_u32(0xAB);
        let mut b = Fingerprint::new();
        b.update_str("sha1").update_u64(0).update_u32(0xAB);
        assert_eq!(a.finish(), b.finish());
        let mut c = Fingerprint::new();
        c.update_str("sha1").update_u64(1).update_u32(0xAB);
        assert_ne!(a.finish(), c.finish());
        // Known FNV-1a vector: empty input = offset basis.
        assert_eq!(Fingerprint::new().finish(), 0xcbf2_9ce4_8422_2325);
        // A key over a slot's frame words, as `ModuleManager::load` builds
        // it, changes when any single bit of any word flips.
        let mut state = 0xF1A9_u64;
        let mut next = move || {
            // SplitMix64.
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let z = (state ^ (state >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let words: Vec<u32> = (0..4 * 41).map(|_| next() as u32).collect();
        let key = |words: &[u32]| {
            let mut fp = Fingerprint::new();
            fp.update_str("sha1").update_u64(3);
            for &w in words {
                fp.update_u32(w);
            }
            fp.finish()
        };
        let base = key(&words);
        for _ in 0..2000 {
            let (at, bit) = (next() as usize % words.len(), next() % 32);
            let mut flipped = words.clone();
            flipped[at] ^= 1 << bit;
            assert_ne!(key(&flipped), base, "word {at} bit {bit}");
        }
        for bit in 0..32 {
            for at in [0, words.len() - 1] {
                let mut flipped = words.clone();
                flipped[at] ^= 1 << bit;
                assert_ne!(key(&flipped), base, "word {at} bit {bit}");
            }
        }
    }
}
