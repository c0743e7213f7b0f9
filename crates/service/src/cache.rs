//! A bounded LRU cache of evaluate results.
//!
//! The cache key is exact, not heuristic: the graph's structure fingerprint
//! ([`kperiodic::structure_fingerprint`], which covers tasks, durations,
//! buffer endpoints and rates) and the full marking vector (the one input
//! the fingerprint deliberately excludes); every daemon evaluation runs with
//! the same default analysis options, so nothing else can change a result.
//! Any structural change — a task added, a rate edited, a duration tweaked —
//! changes the fingerprint and therefore misses: a cached result can never
//! outlive a structure change (asserted in the crate's test-suite). Collisions of the 64-bit fingerprint itself are the same
//! astronomically-unlikely event the session pool already tolerates.

use csdf::CsdfGraph;
use kperiodic::KIterResult;

/// The exact identity of an evaluate request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheKey {
    fingerprint: u64,
    markings: Vec<u64>,
}

impl CacheKey {
    /// Builds the key for evaluating `graph`.
    pub fn new(graph: &CsdfGraph) -> CacheKey {
        CacheKey {
            fingerprint: kperiodic::structure_fingerprint(graph),
            markings: graph
                .buffers()
                .map(|(_, buffer)| buffer.initial_tokens())
                .collect(),
        }
    }
}

/// Hit/miss counters of a [`ResultCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups that found a cached result.
    pub hits: usize,
    /// Lookups that found nothing.
    pub misses: usize,
    /// Entries evicted over capacity.
    pub evicted: usize,
}

#[derive(Debug)]
struct Entry {
    key: CacheKey,
    result: KIterResult,
    /// Monotonic last-use stamp; the smallest stamp is evicted first.
    stamp: u64,
}

/// A bounded least-recently-used map from [`CacheKey`] to [`KIterResult`].
///
/// Linear scan on lookup: the cache holds at most a few hundred entries and
/// sits behind a mutex next to evaluations that are orders of magnitude more
/// expensive, so simplicity wins over asymptotics.
#[derive(Debug)]
pub struct ResultCache {
    capacity: usize,
    entries: Vec<Entry>,
    next_stamp: u64,
    stats: CacheStats,
}

impl ResultCache {
    /// Creates a cache keeping at most `capacity` results (`0` is `1`).
    pub fn new(capacity: usize) -> ResultCache {
        ResultCache {
            capacity: capacity.max(1),
            entries: Vec::new(),
            next_stamp: 0,
            stats: CacheStats::default(),
        }
    }

    /// Looks a key up, refreshing its recency on a hit.
    pub fn get(&mut self, key: &CacheKey) -> Option<KIterResult> {
        let found = self.entries.iter_mut().find(|entry| entry.key == *key);
        match found {
            Some(entry) => {
                entry.stamp = self.next_stamp;
                self.next_stamp += 1;
                self.stats.hits += 1;
                Some(entry.result.clone())
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Stores a result, evicting the least recently used entry over
    /// capacity. An existing entry for the key is replaced.
    ///
    /// # Panics
    ///
    /// Panics only if the eviction invariant breaks (an over-capacity cache
    /// with no entry to evict).
    pub fn insert(&mut self, key: CacheKey, result: KIterResult) {
        if let Some(entry) = self.entries.iter_mut().find(|entry| entry.key == key) {
            entry.result = result;
            entry.stamp = self.next_stamp;
            self.next_stamp += 1;
            return;
        }
        self.entries.push(Entry {
            key,
            result,
            stamp: self.next_stamp,
        });
        self.next_stamp += 1;
        while self.entries.len() > self.capacity {
            let oldest = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, entry)| entry.stamp)
                .map(|(index, _)| index)
                .expect("over-capacity cache is non-empty");
            self.entries.swap_remove(oldest);
            self.stats.evicted += 1;
        }
    }

    /// Number of cached results.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Hit/miss counters.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Drops every cached result, keeping the counters. Used by the daemon's
    /// poison recovery: a cache whose lock was poisoned mid-insert may hold a
    /// half-updated recency order, so it restarts empty rather than serve a
    /// result written by a panicking worker.
    pub fn clear(&mut self) {
        self.entries.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csdf::CsdfGraphBuilder;
    use kperiodic::optimal_throughput;

    fn ring(duration: u64, tokens: u64) -> CsdfGraph {
        let mut b = CsdfGraphBuilder::new();
        let x = b.add_sdf_task("x", duration);
        let y = b.add_sdf_task("y", 1);
        b.add_sdf_buffer(x, y, 1, 1, 0);
        b.add_sdf_buffer(y, x, 1, 1, tokens);
        b.build().unwrap()
    }

    #[test]
    fn hits_require_identical_structure_and_markings() {
        let mut cache = ResultCache::new(8);
        let graph = ring(2, 3);
        let result = optimal_throughput(&graph).unwrap();
        cache.insert(CacheKey::new(&graph), result.clone());

        assert_eq!(cache.get(&CacheKey::new(&graph)), Some(result));
        // A marking change misses.
        assert_eq!(cache.get(&CacheKey::new(&ring(2, 4))), None);
        // A structure change (duration) misses: the cached result did not
        // outlive the change.
        assert_eq!(cache.get(&CacheKey::new(&ring(3, 3))), None);
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn clear_empties_the_cache_and_keeps_counters() {
        let mut cache = ResultCache::new(8);
        let graph = ring(2, 3);
        let result = optimal_throughput(&graph).unwrap();
        cache.insert(CacheKey::new(&graph), result);
        assert_eq!(cache.len(), 1);
        assert!(cache.get(&CacheKey::new(&graph)).is_some());
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.stats().hits, 1, "counters survive a clear");
    }

    #[test]
    fn capacity_evicts_least_recently_used() {
        let mut cache = ResultCache::new(2);
        let result = optimal_throughput(&ring(1, 1)).unwrap();
        let keys: Vec<CacheKey> = (1..=3u64)
            .map(|tokens| CacheKey::new(&ring(1, tokens)))
            .collect();
        cache.insert(keys[0].clone(), result.clone());
        cache.insert(keys[1].clone(), result.clone());
        // Refresh key 0, then overflow: key 1 is the LRU and must go.
        assert!(cache.get(&keys[0]).is_some());
        cache.insert(keys[2].clone(), result.clone());
        assert_eq!(cache.len(), 2);
        assert!(cache.get(&keys[0]).is_some());
        assert!(cache.get(&keys[1]).is_none());
        assert!(cache.get(&keys[2]).is_some());
        assert_eq!(cache.stats().evicted, 1);
    }
}
