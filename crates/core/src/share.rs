//! Boot products computed once and shared between machines.
//!
//! A fleet boots many machines of few kinds. Whatever a boot derives only
//! from its inputs (a module's linked images here, a cost model's fit
//! cells in the service) comes out the same on every machine with those
//! inputs, so a [`OnceTable`] computes each value once and hands every
//! later boot a clone. A table lives as long as the handles its creator passes out
//! (one cluster or federation boot); nothing is memoised process-wide.

use std::sync::{Arc, Mutex, OnceLock};

/// A key and the cell its value is computed into.
type Entry<K, V> = (K, Arc<OnceLock<V>>);

/// One lazily computed value per key. Cloning the table shares it.
pub struct OnceTable<K, V> {
    entries: Arc<Mutex<Vec<Entry<K, V>>>>,
}

impl<K: PartialEq, V: Clone> OnceTable<K, V> {
    /// An empty table.
    pub fn new() -> Self {
        OnceTable {
            entries: Arc::new(Mutex::new(Vec::new())),
        }
    }

    /// A clone of the value for `key`, running `init` on the first request
    /// for it. The table lock only covers finding or inserting the key's
    /// cell: `init` runs outside it, so values of different keys are
    /// computed concurrently, while a second request for a key being
    /// computed waits for that one result.
    pub fn get_or_init(&self, key: K, init: impl FnOnce() -> V) -> V {
        let cell = {
            let mut entries = self.entries.lock().expect("once-table lock poisoned");
            match entries.iter().find(|(k, _)| *k == key) {
                Some((_, cell)) => Arc::clone(cell),
                None => {
                    let cell = Arc::new(OnceLock::new());
                    entries.push((key, Arc::clone(&cell)));
                    cell
                }
            }
        };
        cell.get_or_init(init).clone()
    }
}

impl<K: PartialEq, V: Clone> Default for OnceTable<K, V> {
    fn default() -> Self {
        OnceTable::new()
    }
}

impl<K, V> Clone for OnceTable<K, V> {
    fn clone(&self) -> Self {
        OnceTable {
            entries: Arc::clone(&self.entries),
        }
    }
}

impl<K, V> std::fmt::Debug for OnceTable<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let keys = self.entries.lock().map_or(0, |e| e.len());
        f.debug_struct("OnceTable").field("keys", &keys).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn each_key_is_computed_once_and_clones_share_the_table() {
        let table: OnceTable<u32, String> = OnceTable::new();
        let shared = table.clone();
        let runs = AtomicUsize::new(0);
        let init = |v: &str| {
            runs.fetch_add(1, Ordering::SeqCst);
            v.to_string()
        };
        assert_eq!(table.get_or_init(1, || init("one")), "one");
        assert_eq!(shared.get_or_init(1, || init("other")), "one");
        assert_eq!(shared.get_or_init(2, || init("two")), "two");
        assert_eq!(runs.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn concurrent_requests_for_one_key_wait_for_a_single_init() {
        let table: OnceTable<&str, u64> = OnceTable::new();
        let runs = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let (table, runs) = (table.clone(), Arc::clone(&runs));
                std::thread::spawn(move || {
                    table.get_or_init("key", || {
                        runs.fetch_add(1, Ordering::SeqCst);
                        std::thread::sleep(std::time::Duration::from_millis(20));
                        42
                    })
                })
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), 42);
        }
        assert_eq!(runs.load(Ordering::SeqCst), 1);
    }
}
