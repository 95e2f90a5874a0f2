//! Generic lock-sharded FIFO cache.
//!
//! The result caches in this workspace share one shape: N `parking_lot::RwLock`
//! shards selected by a stable hash of the key, a per-shard slice of the
//! total capacity, first-writer-wins inserts (the cached computations are
//! deterministic, so concurrent writers hold identical values), FIFO
//! eviction in insertion order, and per-shard eviction counters so skewed
//! key distributions stay visible (one hot shard churning at capacity used
//! to look identical to uniform pressure when the counter was cache-wide).
//! [`ShardedCache`] is that shape extracted once; the compile-result cache
//! (`scope_opt::CompileCache`), the delta compiler's base-memo cache, the
//! span-feature cache and the workload's sticky plan memo all build on it.
//!
//! Hit/miss accounting stays with the callers: each wrapper counts lookups
//! in its own atomics (some count a `get` miss, some count a whole
//! get-or-compute), so the helper only owns what is intrinsically per-shard
//! — the entries, the FIFO order, and the eviction counters.

use parking_lot::RwLock;
use rustc_hash::FxHashMap;
use std::collections::VecDeque;
use std::hash::Hash;

#[derive(Debug)]
struct Shard<K, V> {
    map: FxHashMap<K, V>,
    /// Insertion order, for FIFO eviction once the shard is full.
    order: VecDeque<K>,
    /// Evictions performed by *this* shard. Eviction is a per-shard event
    /// (each shard enforces its own slice of the capacity), so the counter
    /// lives under the shard lock; [`ShardedCache::evictions`] sums these
    /// and [`ShardedCache::shard_evictions`] exposes the attribution.
    evictions: u64,
}

impl<K, V> Default for Shard<K, V> {
    fn default() -> Self {
        Self {
            map: FxHashMap::default(),
            order: VecDeque::new(),
            evictions: 0,
        }
    }
}

/// A lock-sharded map with FIFO eviction. `&ShardedCache` is `Sync` (given
/// `Send + Sync` contents): parallel pipeline fan-outs hit it concurrently,
/// readers sharing each shard lock.
///
/// The shard for a key is picked by a caller-supplied `fn(&K) -> u64` (a
/// plain function pointer: every key type in the workspace already has a
/// stable hash built from `mix64` and content fingerprints, and a stored
/// pointer sidesteps the coherence issues a hashing trait would hit on
/// foreign tuple keys).
#[derive(Debug)]
pub struct ShardedCache<K, V> {
    shards: Box<[RwLock<Shard<K, V>>]>,
    /// Per-shard entry cap derived from the total capacity.
    shard_capacity: usize,
    hasher: fn(&K) -> u64,
}

impl<K: Eq + Hash + Clone, V: Clone> ShardedCache<K, V> {
    /// A cache holding at most `capacity` entries (`0` = unbounded) across
    /// `shards` lock shards (rounded up to a power of two, clamped to
    /// 1..=1024), sharded by `hasher`.
    #[must_use]
    pub fn new(capacity: usize, shards: usize, hasher: fn(&K) -> u64) -> Self {
        let shards = shards.clamp(1, 1024).next_power_of_two();
        let shard_capacity = if capacity == 0 {
            usize::MAX
        } else {
            capacity.div_ceil(shards).max(1)
        };
        Self {
            shards: (0..shards).map(|_| RwLock::new(Shard::default())).collect(),
            shard_capacity,
            hasher,
        }
    }

    fn shard_for(&self, key: &K) -> &RwLock<Shard<K, V>> {
        let h = (self.hasher)(key);
        &self.shards[(h as usize) & (self.shards.len() - 1)]
    }

    /// A clone of the stored value, if present. (Values are cheap clones
    /// everywhere this is used: `Arc`s, `Copy` metric structs, or shared
    /// compile results.)
    #[must_use]
    pub fn get(&self, key: &K) -> Option<V> {
        self.shard_for(key).read().map.get(key).cloned()
    }

    /// Insert `value` unless the key is already present: a concurrent writer
    /// may have inserted while the caller computed, both hold the identical
    /// value (the cached computations are deterministic), so first writer
    /// wins and the duplicate work is only a perf loss. Returns whether this
    /// call inserted, evicting oldest-first if the shard's capacity slice
    /// overflowed.
    pub fn insert(&self, key: K, value: V) -> bool {
        let shard = self.shard_for(&key);
        let mut guard = shard.write();
        let std::collections::hash_map::Entry::Vacant(slot) = guard.map.entry(key.clone()) else {
            return false;
        };
        slot.insert(value);
        guard.order.push_back(key);
        while guard.map.len() > self.shard_capacity {
            let Some(oldest) = guard.order.pop_front() else {
                break;
            };
            guard.map.remove(&oldest);
            guard.evictions += 1;
        }
        true
    }

    /// Total evictions across all shards.
    #[must_use]
    pub fn evictions(&self) -> u64 {
        self.shards.iter().map(|s| s.read().evictions).sum()
    }

    /// Evictions attributed to each shard, in shard order. Capacity is
    /// enforced per shard, so skewed key distributions show up here as one
    /// shard churning while the rest idle.
    #[must_use]
    pub fn shard_evictions(&self) -> Vec<u64> {
        self.shards.iter().map(|s| s.read().evictions).collect()
    }

    /// Live entries across all shards.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().map.len()).sum()
    }

    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop every entry (eviction counters keep running).
    pub fn clear(&self) {
        for shard in self.shards.iter() {
            let mut guard = shard.write();
            guard.map.clear();
            guard.order.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::mix64;

    fn cache(capacity: usize, shards: usize) -> ShardedCache<u64, u64> {
        ShardedCache::new(capacity, shards, |k| mix64(*k, 0))
    }

    #[test]
    fn get_insert_roundtrip_and_first_writer_wins() {
        let c = cache(16, 4);
        assert_eq!(c.get(&1), None);
        assert!(c.insert(1, 10));
        assert_eq!(c.get(&1), Some(10));
        assert!(!c.insert(1, 99), "duplicate insert must not overwrite");
        assert_eq!(c.get(&1), Some(10));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn single_shard_evicts_fifo() {
        let c = cache(2, 1);
        for k in 0..3 {
            assert!(c.insert(k, k));
        }
        assert_eq!(c.len(), 2);
        assert_eq!(c.evictions(), 1);
        assert_eq!(c.get(&0), None, "oldest entry evicted first");
        assert_eq!(c.get(&2), Some(2), "newest entry survives");
    }

    #[test]
    fn evictions_attributed_per_shard() {
        // Shard by identity so keys land deterministically: capacity 4 over
        // 4 shards = 1 entry each; keys 0..8 put two keys in every shard.
        let c: ShardedCache<u64, u64> = ShardedCache::new(4, 4, |k| *k);
        for k in 0..8 {
            assert!(c.insert(k, k));
        }
        let per_shard = c.shard_evictions();
        assert_eq!(per_shard.len(), 4);
        assert_eq!(per_shard, vec![1, 1, 1, 1]);
        assert_eq!(c.evictions(), 4);
        assert_eq!(c.len(), 4);
    }

    #[test]
    fn zero_capacity_is_unbounded() {
        let c = cache(0, 2);
        for k in 0..1000 {
            c.insert(k, k);
        }
        assert_eq!(c.len(), 1000);
        assert_eq!(c.evictions(), 0);
    }

    #[test]
    fn shard_count_clamps_to_power_of_two() {
        // 3 shards round up to 4; capacity 8 divides into 2 per shard.
        let c: ShardedCache<u64, u64> = ShardedCache::new(8, 3, |k| *k);
        assert_eq!(c.shards.len(), 4);
        assert_eq!(c.shard_capacity, 2);
        // 0 shards clamp to 1.
        let c = cache(8, 0);
        assert_eq!(c.shards.len(), 1);
    }

    #[test]
    fn clear_empties_but_keeps_eviction_counters() {
        let c = cache(1, 1);
        c.insert(1, 1);
        c.insert(2, 2);
        assert_eq!(c.evictions(), 1);
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.evictions(), 1, "counters are monotonic across clears");
    }
}
