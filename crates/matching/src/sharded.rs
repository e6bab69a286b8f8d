//! A sharded, lock-striped concurrent map keyed on exact graph
//! structure, for state shared across decomposition requests (the
//! cross-request embedding memo and the solved-unit cache).
//!
//! Keys are bucketed by [`graph_fingerprint`] into `RwLock`-guarded
//! shards (shard = low fingerprint bits), so readers of different shards
//! never contend and writers block only their own shard. Every hit is
//! verified with [`graphs_identical`] before it is served — a fingerprint
//! collision between structurally different graphs is *not* a hit, the
//! same contract as the per-request
//! [`EmbeddingMemo`](../../mpld/struct.EmbeddingMemo.html).
//!
//! Insertion is first-writer-wins: when two threads race to publish an
//! entry for the same graph, the loser's value is discarded and both
//! observe the winner's — so concurrent requests over identical traffic
//! converge on one shared entry and results stay independent of
//! interleaving.

use mpld_graph::{graph_fingerprint, graphs_identical, LayoutGraph};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::RwLock;

/// Default shard count ([`ShardedGraphMap::new`]); enough stripes that a
/// handful of worker threads rarely collide, small enough to stay cheap
/// on a single-core host.
pub const DEFAULT_SHARDS: usize = 16;

type Bucket<V> = Vec<(LayoutGraph, V)>;
/// One lock stripe: fingerprint-keyed buckets of equality-checked entries.
type Shard<V> = RwLock<HashMap<u64, Bucket<V>>>;

/// Fingerprint-bucketed, equality-verified concurrent graph map (see
/// module docs).
#[derive(Debug)]
pub struct ShardedGraphMap<V> {
    /// Power-of-two shard array; a key's shard is `fingerprint & mask`.
    shards: Box<[Shard<V>]>,
    mask: u64,
    /// Soft entry cap; inserts beyond it evict an arbitrary entry from
    /// the inserting shard first (see [`ShardedGraphMap::insert`]).
    cap: Option<usize>,
    hits: AtomicUsize,
    misses: AtomicUsize,
    entries: AtomicUsize,
    evictions: AtomicUsize,
    high_water: AtomicUsize,
}

/// Cumulative access counters of one [`ShardedGraphMap`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardedMapStats {
    /// Equality-verified lookups served from the map.
    pub hits: usize,
    /// Lookups that found no structurally identical entry.
    pub misses: usize,
    /// Distinct graphs currently stored.
    pub entries: usize,
    /// Entries evicted to hold the cap.
    pub evictions: usize,
    /// Largest entry count ever held.
    pub high_water: usize,
}

impl<V> Default for ShardedGraphMap<V> {
    fn default() -> Self {
        Self::new(DEFAULT_SHARDS)
    }
}

impl<V> ShardedGraphMap<V> {
    /// An empty map with `shards` stripes (rounded up to a power of two,
    /// minimum 1).
    pub fn new(shards: usize) -> Self {
        Self::with_capacity(shards, None)
    }

    /// An empty capped map: once `cap` entries are held, each insert
    /// first evicts one arbitrary entry from its own shard, so the map
    /// stays within `cap + shards - 1` entries under any traffic.
    pub fn with_capacity(shards: usize, cap: Option<usize>) -> Self {
        let n = shards.max(1).next_power_of_two();
        Self {
            shards: (0..n).map(|_| RwLock::new(HashMap::new())).collect(),
            mask: (n - 1) as u64,
            cap,
            hits: AtomicUsize::new(0),
            misses: AtomicUsize::new(0),
            entries: AtomicUsize::new(0),
            evictions: AtomicUsize::new(0),
            high_water: AtomicUsize::new(0),
        }
    }

    fn shard(&self, fp: u64) -> &Shard<V> {
        &self.shards[(fp & self.mask) as usize]
    }

    /// Number of distinct graphs stored.
    pub fn len(&self) -> usize {
        self.entries.load(Ordering::Relaxed)
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of the access counters.
    pub fn stats(&self) -> ShardedMapStats {
        ShardedMapStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.len(),
            evictions: self.evictions.load(Ordering::Relaxed),
            high_water: self.high_water.load(Ordering::Relaxed),
        }
    }
}

impl<V: Clone> ShardedGraphMap<V> {
    /// Equality-verified lookup: returns the stored value for a graph
    /// structurally identical to `g`, taking only its shard's read lock.
    /// A fingerprint match with a different graph is a miss.
    pub fn get(&self, g: &LayoutGraph) -> Option<V> {
        let fp = graph_fingerprint(g);
        let found = match self.shard(fp).read() {
            Ok(shard) => shard.get(&fp).and_then(|bucket| {
                bucket
                    .iter()
                    .find(|(rep, _)| graphs_identical(rep, g))
                    .map(|(_, v)| v.clone())
            }),
            Err(_) => None, // poisoned shard: treat as a miss
        };
        match &found {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    /// Publishes `value` for `g` unless a structurally identical entry
    /// already exists (first writer wins). Returns the value now stored —
    /// the existing one on a race — so every caller converges on one
    /// shared entry. An insert never displaces or loses an earlier one.
    pub fn insert(&self, g: &LayoutGraph, value: V) -> V {
        let fp = graph_fingerprint(g);
        let Ok(mut shard) = self.shard(fp).write() else {
            return value; // poisoned shard: the caller keeps its value
        };
        if let Some(bucket) = shard.get(&fp) {
            if let Some((_, existing)) = bucket.iter().find(|(rep, _)| graphs_identical(rep, g)) {
                return existing.clone();
            }
        }
        if self
            .cap
            .is_some_and(|cap| self.entries.load(Ordering::Relaxed) >= cap)
        {
            // At capacity: evict one arbitrary entry from this shard
            // before inserting. An empty shard overshoots by at most
            // `shards - 1` entries in total — bounded and lock-local,
            // which is the point (no global LRU bookkeeping on the hot
            // path).
            if let Some(victim_fp) = shard.keys().next().copied() {
                if let Some(bucket) = shard.get_mut(&victim_fp) {
                    if bucket.pop().is_some() {
                        if bucket.is_empty() {
                            shard.remove(&victim_fp);
                        }
                        self.entries.fetch_sub(1, Ordering::Relaxed);
                        self.evictions.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
        }
        shard
            .entry(fp)
            .or_default()
            .push((g.clone(), value.clone()));
        let now = self.entries.fetch_add(1, Ordering::Relaxed) + 1;
        self.high_water.fetch_max(now, Ordering::Relaxed);
        value
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path3() -> LayoutGraph {
        LayoutGraph::homogeneous(3, vec![(0, 1), (1, 2)]).unwrap()
    }

    #[test]
    fn insert_then_get_round_trips() {
        let map: ShardedGraphMap<u32> = ShardedGraphMap::default();
        assert_eq!(map.get(&path3()), None);
        assert_eq!(map.insert(&path3(), 7), 7);
        assert_eq!(map.get(&path3()), Some(7));
        let s = map.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
    }

    #[test]
    fn first_writer_wins_on_identical_keys() {
        let map: ShardedGraphMap<u32> = ShardedGraphMap::new(4);
        assert_eq!(map.insert(&path3(), 1), 1);
        // The second writer observes the first value, nothing is lost.
        assert_eq!(map.insert(&path3(), 2), 1);
        assert_eq!(map.get(&path3()), Some(1));
        assert_eq!(map.len(), 1);
    }

    #[test]
    fn structurally_different_graphs_get_distinct_entries() {
        let map: ShardedGraphMap<&'static str> = ShardedGraphMap::new(1);
        // Isomorphic but not identical: same shape, different labeling.
        let a = LayoutGraph::homogeneous(3, vec![(0, 1), (1, 2)]).unwrap();
        let b = LayoutGraph::homogeneous(3, vec![(0, 2), (1, 2)]).unwrap();
        map.insert(&a, "a");
        assert_eq!(map.get(&b), None);
        map.insert(&b, "b");
        assert_eq!(map.get(&a), Some("a"));
        assert_eq!(map.get(&b), Some("b"));
        assert_eq!(map.len(), 2);
    }

    #[test]
    fn fingerprint_collision_is_rejected_by_equality_check() {
        // Force a synthetic collision by planting an entry under the
        // *wrong* bucket: get() must still refuse to serve a
        // structurally different graph whose fingerprints agree.
        let a = LayoutGraph::homogeneous(4, vec![(0, 1), (2, 3)]).unwrap();
        let b = LayoutGraph::homogeneous(4, vec![(0, 2), (1, 3)]).unwrap();
        let map: ShardedGraphMap<u32> = ShardedGraphMap::new(1);
        let fp_b = graph_fingerprint(&b);
        map.shard(fp_b)
            .write()
            .unwrap()
            .entry(fp_b)
            .or_default()
            .push((a.clone(), 3));
        assert_eq!(map.get(&b), None);
    }

    #[test]
    fn cap_evicts_and_tracks_high_water() {
        let map: ShardedGraphMap<usize> = ShardedGraphMap::with_capacity(1, Some(2));
        let graphs: Vec<LayoutGraph> = (2..6)
            .map(|n| LayoutGraph::homogeneous(n, vec![(0, 1)]).unwrap())
            .collect();
        for (i, g) in graphs.iter().enumerate() {
            map.insert(g, i);
        }
        let s = map.stats();
        assert_eq!(s.entries, 2, "{s:?}");
        assert_eq!(s.evictions, 2);
        assert_eq!(s.high_water, 2);
        // Re-inserting an identical graph neither grows nor evicts.
        map.insert(&graphs[3], 99);
        assert_eq!(map.stats().entries, 2);
    }

    #[test]
    fn uncapped_map_never_evicts() {
        let map: ShardedGraphMap<usize> = ShardedGraphMap::new(2);
        for n in 2..12 {
            map.insert(&LayoutGraph::homogeneous(n, vec![(0, 1)]).unwrap(), n);
        }
        let s = map.stats();
        assert_eq!(s.entries, 10);
        assert_eq!(s.evictions, 0);
        assert_eq!(s.high_water, 10);
    }

    #[test]
    fn single_shard_still_works() {
        let map: ShardedGraphMap<usize> = ShardedGraphMap::new(0);
        assert_eq!(map.shards.len(), 1);
        map.insert(&path3(), 9);
        assert_eq!(map.get(&path3()), Some(9));
    }
}
