//! Base-retrieval caching.
//!
//! Base retrieval — BM25 over the shared index — is *user-independent*:
//! every user issuing the same (analyzed) query gets the same candidate
//! pool, and personalization happens strictly downstream of it. That makes
//! the pool safely shareable across users and turns. [`RetrievalCache`] is
//! what [`crate::EngineCore`] consults before touching the index when the
//! core owns one (the serving layer always turns it on).
//!
//! The key is the **analyzed token sequence** plus the pool size `k`:
//! surface forms that analyze identically ("Seafood  Restaurant!" vs
//! "seafood restaurant") share one entry, and tokens are produced once per
//! request via [`pws_index::RetrievalBackend::analyze_text`] /
//! [`pws_index::RetrievalBackend::search_tokens`].
//!
//! Correctness contract: `get` returns exactly what `put` stored for the
//! same `(tokens, k)`. The index is immutable for the engine's lifetime,
//! so a stored pool never goes stale. A pool is handed over as
//! `Arc<[SearchHit]>` and handed back as a clone of that `Arc`: a probe
//! copies no hit, least of all under a shard lock; the engine clones a
//! hit once, when it enters a request's candidate pool. Budget
//! checkpoints, degraded paths, and chaos faults all still apply to
//! cached turns: the cache only replaces the index scan, never the rest
//! of the pipeline.

use pws_index::SearchHit;
use pws_obs::format::Fnv1a64;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard};

/// Number of lock shards in the base-retrieval cache. Fixed: cache
/// contention is per-query-string, independent of the user shard count.
const CACHE_SHARDS: usize = 8;

/// One cached base-retrieval pool.
struct CacheEntry {
    /// The exact key, kept for collision rejection (the map is keyed by
    /// the 64-bit fingerprint; a colliding probe must miss, not alias).
    tokens: Vec<String>,
    k: usize,
    /// Shard-local LRU clock value of the last touch.
    tick: u64,
    /// Shared with every request served from this entry: a probe bumps
    /// the count under the shard lock and copies nothing.
    hits: Arc<[SearchHit]>,
}

/// One lock shard of the retrieval cache: fingerprint-keyed entries plus
/// the shard's LRU clock.
struct CacheShard {
    map: HashMap<u64, CacheEntry>,
    tick: u64,
}

/// The shared base-retrieval cache: sharded and bounded LRU.
///
/// * **Sharded** — `CACHE_SHARDS` mutexes, entries routed by an FNV-1a
///   fingerprint of `(tokens, k)`, so concurrent queries for different
///   strings rarely contend.
/// * **Bounded** — each shard holds at most `⌈capacity / shards⌉`
///   entries; inserting past that evicts the shard's least-recently
///   touched entry (`serve.cache.evict`).
///
/// Every probe counts exactly one of `serve.cache.hit` /
/// `serve.cache.miss`, so `hit + miss` equals the number of base
/// retrievals that consulted the cache.
pub struct RetrievalCache {
    shards: Vec<Mutex<CacheShard>>,
    per_shard_capacity: usize,
    hit: Arc<pws_obs::StageMetrics>,
    miss: Arc<pws_obs::StageMetrics>,
    evict: Arc<pws_obs::StageMetrics>,
    /// `serve.lock_recovered` handle — a poisoned cache shard is
    /// recovered (worst case: a torn entry is overwritten or evicted),
    /// never allowed to wedge retrieval.
    recovered: Arc<pws_obs::StageMetrics>,
}

/// FNV-1a over the cache key. Token boundaries are delimited (so
/// `["ab","c"]` ≠ `["a","bc"]`) and the pool size is folded in last.
fn cache_fingerprint(tokens: &[String], k: usize) -> u64 {
    let mut h = Fnv1a64::new();
    for t in tokens {
        h.write(t.as_bytes());
        h.write(&[0xff]);
    }
    h.write(&(k as u64).to_le_bytes());
    h.finish()
}

impl RetrievalCache {
    /// A cache holding at most `capacity` pools (rounded up to a
    /// multiple of the shard count).
    pub fn new(capacity: usize) -> Self {
        RetrievalCache {
            shards: (0..CACHE_SHARDS)
                .map(|_| Mutex::new(CacheShard { map: HashMap::new(), tick: 0 }))
                .collect(),
            per_shard_capacity: capacity.div_ceil(CACHE_SHARDS).max(1),
            hit: pws_obs::stage("serve.cache.hit"),
            miss: pws_obs::stage("serve.cache.miss"),
            evict: pws_obs::stage("serve.cache.evict"),
            recovered: pws_obs::stage("serve.lock_recovered"),
        }
    }

    /// Lock the shard owning `fp`, recovering (and counting) a poisoned
    /// lock: every entry is a complete pool, so whatever a dead thread
    /// left behind is safe to keep serving.
    fn lock_shard(&self, fp: u64) -> MutexGuard<'_, CacheShard> {
        let m = &self.shards[(fp % CACHE_SHARDS as u64) as usize];
        m.lock().unwrap_or_else(|poisoned| {
            m.clear_poison();
            self.recovered.incr(1);
            poisoned.into_inner()
        })
    }

    /// Cached hits for `(tokens, k)`, or `None` on a miss.
    pub fn get(&self, tokens: &[String], k: usize) -> Option<Arc<[SearchHit]>> {
        let fp = cache_fingerprint(tokens, k);
        let mut shard = self.lock_shard(fp);
        shard.tick += 1;
        let tick = shard.tick;
        match shard.map.get_mut(&fp) {
            Some(e) if e.k == k && e.tokens == tokens => {
                e.tick = tick;
                let hits = Arc::clone(&e.hits);
                drop(shard);
                self.hit.incr(1);
                Some(hits)
            }
            _ => {
                drop(shard);
                self.miss.incr(1);
                None
            }
        }
    }

    /// Store the hits the index returned for `(tokens, k)`, evicting the
    /// shard's least-recently touched entry when the shard is full.
    pub fn put(&self, tokens: &[String], k: usize, hits: Arc<[SearchHit]>) {
        let fp = cache_fingerprint(tokens, k);
        let mut shard = self.lock_shard(fp);
        shard.tick += 1;
        let tick = shard.tick;
        if !shard.map.contains_key(&fp) && shard.map.len() >= self.per_shard_capacity {
            if let Some(&victim) =
                shard.map.iter().min_by_key(|(_, e)| e.tick).map(|(fp, _)| fp)
            {
                shard.map.remove(&victim);
                self.evict.incr(1);
            }
        }
        shard.map.insert(fp, CacheEntry { tokens: tokens.to_vec(), k, tick, hits });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl RetrievalCache {
        /// Number of resident entries.
        fn len(&self) -> usize {
            (0..CACHE_SHARDS as u64).map(|i| self.lock_shard(i).map.len()).sum()
        }
    }

    #[test]
    fn cache_is_bounded_and_evicts_lru() {
        let _guard = pws_obs::test_lock();
        pws_obs::reset();
        let cache = RetrievalCache::new(8); // 1 entry per lock shard
        for i in 0..100u32 {
            let tokens = vec![format!("term{i}")];
            cache.put(&tokens, 10, Arc::new([]));
            assert!(
                cache.get(&tokens, 10).is_some(),
                "just-inserted entry must be resident"
            );
        }
        assert!(cache.len() <= 8, "capacity bound violated: {}", cache.len());
        let snap = pws_obs::snapshot();
        let evictions = snap
            .stages
            .iter()
            .find(|s| s.name == "serve.cache.evict")
            .map(|s| s.count)
            .unwrap_or(0);
        assert!(evictions >= 92, "100 inserts into 8 slots evict at least 92");
        // Pool size is part of the key: same tokens, different k, miss.
        let tokens = vec!["term99".to_string()];
        assert!(cache.get(&tokens, 10).is_some());
        assert!(cache.get(&tokens, 20).is_none());
    }
}
