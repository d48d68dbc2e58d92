//! Content-addressed result cache with LRU eviction.
//!
//! The service keys cached extraction results by a hash of everything that
//! determines the output: the program source, the schema DDL, and the
//! [`eqsql_core::ExtractorOptions`] fingerprint (which covers the dialect).
//! See [`CacheKey::derive`]. Because `ExtractionReport::render_json` is
//! deterministic and excludes wall-clock time, a hit replays the original
//! response — diagnostics JSON included — byte for byte.
//!
//! Hits, misses, and evictions are counted and surfaced on `/metrics`.

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A 128-bit content hash: two independent FNV-1a-64 lanes over the same
/// length-prefixed byte stream.
///
/// FNV-1a is not cryptographic — the cache is a performance layer keyed by
/// trusted request contents, not an integrity boundary — but two lanes with
/// distinct offset bases push accidental collisions far below the cache's
/// working-set sizes, and the function is fully deterministic across runs
/// and platforms (unlike `DefaultHasher`, which randomizes per process).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CacheKey([u64; 2]);

const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// Second-lane offset: FNV offset basis XOR a fixed constant, so the lanes
/// disagree on every input longer than zero bytes.
const FNV_OFFSET_B: u64 = FNV_OFFSET ^ 0x9e37_79b9_7f4a_7c15;

impl CacheKey {
    /// Hash an ordered sequence of parts. Each part is length-prefixed
    /// before hashing, so `["ab", "c"]` and `["a", "bc"]` derive different
    /// keys.
    pub fn derive(parts: &[&str]) -> CacheKey {
        let mut a = FNV_OFFSET;
        let mut b = FNV_OFFSET_B;
        let mut feed = |bytes: &[u8]| {
            for &byte in bytes {
                a = (a ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
                b = (b ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
            }
        };
        for p in parts {
            feed(&(p.len() as u64).to_le_bytes());
            feed(p.as_bytes());
        }
        CacheKey([a, b])
    }

    /// Hex form, e.g. for logs or debugging.
    pub fn to_hex(self) -> String {
        format!("{:016x}{:016x}", self.0[0], self.0[1])
    }

    /// Which of `shards` buckets this key lands in. Pure function of the
    /// key bits, so the mapping is deterministic across runs for a given
    /// shard count.
    pub fn shard_index(self, shards: usize) -> usize {
        debug_assert!(shards > 0);
        (self.0[0] % shards.max(1) as u64) as usize
    }
}

impl fmt::Display for CacheKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

/// Counter snapshot for metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found an entry.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries displaced to make room.
    pub evictions: u64,
    /// Current resident entries (gauge).
    pub entries: u64,
    /// Maximum resident entries (gauge).
    pub capacity: u64,
}

struct Entry<V> {
    value: Arc<V>,
    last_used: u64,
}

struct Inner<V> {
    map: HashMap<CacheKey, Entry<V>>,
    /// Logical clock bumped on every touch; drives LRU ordering.
    tick: u64,
}

/// A bounded key → `Arc<V>` map evicting the least-recently-used entry.
///
/// Values are shared out as `Arc`s, so a hit costs a clone of a pointer,
/// not of the (potentially large) cached document. A `capacity` of 0
/// disables caching: every `get` misses and `put` stores nothing.
pub struct ResultCache<V> {
    inner: Mutex<Inner<V>>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl<V> ResultCache<V> {
    /// Create a cache holding at most `capacity` entries.
    pub fn new(capacity: usize) -> ResultCache<V> {
        ResultCache {
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                tick: 0,
            }),
            capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Look up `key`, bumping its recency on a hit.
    pub fn get(&self, key: &CacheKey) -> Option<Arc<V>> {
        let mut inner = self.inner.lock().unwrap();
        inner.tick += 1;
        let tick = inner.tick;
        match inner.map.get_mut(key) {
            Some(e) => {
                e.last_used = tick;
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(Arc::clone(&e.value))
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Insert (or refresh) `key`, evicting the least-recently-used entry
    /// when at capacity. Returns the stored `Arc` so the caller can hand
    /// the same allocation to the response path.
    pub fn put(&self, key: CacheKey, value: V) -> Arc<V> {
        let value = Arc::new(value);
        if self.capacity == 0 {
            return value;
        }
        let mut inner = self.inner.lock().unwrap();
        inner.tick += 1;
        let tick = inner.tick;
        if let Some(e) = inner.map.get_mut(&key) {
            e.value = Arc::clone(&value);
            e.last_used = tick;
            return value;
        }
        if inner.map.len() >= self.capacity {
            // O(n) scan for the oldest entry; capacities are small (hundreds
            // of entries) and eviction is off the hot hit path.
            if let Some(oldest) = inner
                .map
                .iter()
                .min_by_key(|(k, e)| (e.last_used, **k))
                .map(|(k, _)| *k)
            {
                inner.map.remove(&oldest);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        inner.map.insert(
            key,
            Entry {
                value: Arc::clone(&value),
                last_used: tick,
            },
        );
        value
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: self.inner.lock().unwrap().map.len() as u64,
            capacity: self.capacity as u64,
        }
    }
}

/// A [`ResultCache`] split N ways by [`CacheKey::shard_index`].
///
/// Sharding bounds lock contention under the event-loop server: worker
/// threads publishing results and the loop thread probing for hits take a
/// per-shard mutex instead of one global one. The key → shard mapping is a
/// pure function of the key bits, so cache behaviour (hit/miss per key) is
/// deterministic for a fixed shard count and replayable across runs.
///
/// The requested capacity is divided across shards (ceiling division, so a
/// nonzero capacity never rounds a shard to zero); eviction is per shard.
pub struct ShardedCache<V> {
    shards: Vec<ResultCache<V>>,
}

impl<V> ShardedCache<V> {
    /// Create a cache of `capacity` total entries split over `shards`
    /// buckets (clamped to at least 1).
    pub fn new(capacity: usize, shards: usize) -> ShardedCache<V> {
        let shards = shards.max(1);
        let per_shard = if capacity == 0 {
            0
        } else {
            capacity.div_ceil(shards)
        };
        ShardedCache {
            shards: (0..shards).map(|_| ResultCache::new(per_shard)).collect(),
        }
    }

    /// Look up `key` in its shard.
    pub fn get(&self, key: &CacheKey) -> Option<Arc<V>> {
        self.shards[key.shard_index(self.shards.len())].get(key)
    }

    /// Insert (or refresh) `key` in its shard.
    pub fn put(&self, key: CacheKey, value: V) -> Arc<V> {
        self.shards[key.shard_index(self.shards.len())].put(key, value)
    }

    /// Aggregate counters across every shard.
    pub fn stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for s in &self.shards {
            let st = s.stats();
            total.hits += st.hits;
            total.misses += st.misses;
            total.evictions += st.evictions;
            total.entries += st.entries;
            total.capacity += st.capacity;
        }
        total
    }

    /// Per-shard hit counters, indexed by shard, for `/metrics`.
    pub fn shard_hits(&self) -> Vec<u64> {
        self.shards.iter().map(|s| s.stats().hits).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derive_is_deterministic_and_part_sensitive() {
        let k1 = CacheKey::derive(&["src", "schema", "opts"]);
        let k2 = CacheKey::derive(&["src", "schema", "opts"]);
        assert_eq!(k1, k2);
        assert_ne!(k1, CacheKey::derive(&["src", "schema", "opts2"]));
        // Length prefixing: shifting a byte across a part boundary changes
        // the key even though the concatenation is identical.
        assert_ne!(
            CacheKey::derive(&["ab", "c"]),
            CacheKey::derive(&["a", "bc"])
        );
        assert_eq!(k1.to_hex().len(), 32);
    }

    #[test]
    fn hit_on_identical_input_miss_on_option_change() {
        let cache: ResultCache<String> = ResultCache::new(8);
        let opts_a = "dialect=Postgres;ordered=true";
        let opts_b = "dialect=Mysql;ordered=true";
        let key_a = CacheKey::derive(&["fn f(){}", "", opts_a]);
        let key_b = CacheKey::derive(&["fn f(){}", "", opts_b]);

        assert!(cache.get(&key_a).is_none());
        cache.put(key_a, "report-a".to_string());
        assert_eq!(cache.get(&key_a).unwrap().as_str(), "report-a");
        assert!(cache.get(&key_b).is_none(), "option change must miss");
        let st = cache.stats();
        assert_eq!((st.hits, st.misses, st.entries), (1, 2, 1));
    }

    #[test]
    fn lru_evicts_least_recently_used_first() {
        let cache: ResultCache<u32> = ResultCache::new(3);
        let k = |i: u32| CacheKey::derive(&[&i.to_string()]);
        cache.put(k(1), 1);
        cache.put(k(2), 2);
        cache.put(k(3), 3);
        // Touch 1 and 3; 2 is now the LRU entry.
        assert!(cache.get(&k(1)).is_some());
        assert!(cache.get(&k(3)).is_some());
        cache.put(k(4), 4);
        assert!(cache.get(&k(2)).is_none(), "2 was least recently used");
        assert!(cache.get(&k(1)).is_some());
        assert!(cache.get(&k(3)).is_some());
        assert!(cache.get(&k(4)).is_some());
        let st = cache.stats();
        assert_eq!(st.evictions, 1);
        assert_eq!(st.entries, 3);
        // Continue the pattern: insert 5; LRU is now 1 (2 missed, doesn't count).
        cache.put(k(5), 5);
        assert!(cache.get(&k(1)).is_none(), "eviction follows recency order");
    }

    #[test]
    fn refresh_updates_value_without_growth() {
        let cache: ResultCache<&'static str> = ResultCache::new(2);
        let key = CacheKey::derive(&["x"]);
        cache.put(key, "old");
        cache.put(key, "new");
        assert_eq!(*cache.get(&key).unwrap(), "new");
        assert_eq!(cache.stats().entries, 1);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let cache: ResultCache<u8> = ResultCache::new(0);
        let key = CacheKey::derive(&["x"]);
        assert_eq!(*cache.put(key, 9), 9);
        assert!(cache.get(&key).is_none());
        assert_eq!(cache.stats().entries, 0);
    }

    #[test]
    fn sharded_cache_routes_by_key_bits_deterministically() {
        let cache: ShardedCache<u32> = ShardedCache::new(64, 4);
        assert_eq!(cache.shard_hits().len(), 4);
        let keys: Vec<CacheKey> = (0..32)
            .map(|i| CacheKey::derive(&[&format!("key-{i}")]))
            .collect();
        for (i, k) in keys.iter().enumerate() {
            cache.put(*k, i as u32);
        }
        for (i, k) in keys.iter().enumerate() {
            assert_eq!(*cache.get(k).unwrap(), i as u32);
        }
        // Every key lands in the shard its bits dictate, and a second cache
        // with the same geometry replays the same placement.
        let hits = cache.shard_hits();
        assert_eq!(hits.iter().sum::<u64>(), 32);
        let replay: ShardedCache<u32> = ShardedCache::new(64, 4);
        for (i, k) in keys.iter().enumerate() {
            replay.put(*k, i as u32);
            assert!(replay.get(k).is_some());
        }
        assert_eq!(replay.shard_hits(), hits);
        // Aggregate stats sum the shards.
        let st = cache.stats();
        assert_eq!(st.hits, 32);
        assert_eq!(st.entries, 32);
        assert_eq!(st.capacity, 64);
    }

    #[test]
    fn sharded_cache_clamps_degenerate_geometry() {
        // Zero shards clamps to one; zero capacity disables storage.
        let one: ShardedCache<u8> = ShardedCache::new(4, 0);
        assert_eq!(one.shard_hits().len(), 1);
        let off: ShardedCache<u8> = ShardedCache::new(0, 8);
        let key = CacheKey::derive(&["x"]);
        off.put(key, 1);
        assert!(off.get(&key).is_none());
        assert_eq!(off.stats().capacity, 0);
    }
}
