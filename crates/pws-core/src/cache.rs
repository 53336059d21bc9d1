//! Base-retrieval caching.
//!
//! Base retrieval — BM25 over the shared index — is *user-independent*:
//! every user issuing the same (analyzed) query gets the same ranked
//! list, and personalization happens strictly downstream of it. That
//! makes the list safely shareable across users and turns.
//! [`RetrievalCache`] is what [`crate::EngineCore`] consults before
//! touching the index when the core owns one (the serving layer always
//! turns it on).
//!
//! A cached value is a [`RankedPool`]: the analysed query (term ids), the
//! ranked `(doc, BM25)` list [`pws_index::RetrievalBackend::rank_tokens`]
//! returned, and one slot per hit that holds the hit — snippet included —
//! and its snippet's analysis once some request has used it. A hit's
//! snippet is cut and analysed ([`RankedPool::cut`]) the first time a
//! request puts that hit in its candidate pool: the base pool uses every
//! hit, a city-augmented pool only the hits that join a base pool, so the
//! hits an augmented list ranks and nobody keeps are never cut. The
//! analysis is read off the snippet window's form ids
//! through [`SnippetAnalyst`], which holds one form table per index
//! segment, built once — so a cached hit is cut once and analysed once,
//! and every request after that (pool and page extraction, every user)
//! reuses both.
//!
//! The key is the **analysed query's ids, in query order**, how many of
//! them are the user's query (the **split**), and the pool size `k`:
//! "Seafood  Restaurant!" and "seafood restaurant" share one entry, and so
//! does a query with a term the index has never seen (it is left out of
//! the ids). Order is kept: BM25 sums a document's terms in query order, so
//! "a b" and "b a" may differ in the last bit.
//!
//! A city-augmented request has two keys: the query's ids, and those ids
//! followed by the city name's. A "query + city" pool resolves once, when
//! it is built off the one scan that ranked it, which hits join a base
//! pool and with what base score; that depends on where the query ends, so
//! the split keeps (query "a b", city "c"), (query "a", city "b c") and the
//! query "a b c" apart. A city adding no id (a name no document holds)
//! makes no augmented probe: its list would be the base list.
//!
//! Correctness contract: `get` returns exactly what `put` stored for the
//! same `(query, split, k)`. The index is immutable for the engine's lifetime,
//! so a stored pool never goes stale. A snippet depends only on its body
//! and the list's query, so a hit cut late, alone, or by whichever
//! of two racing requests wins its slot has the bytes an eager
//! `search_tokens` would have given it. A pool is handed out as an `Arc`:
//! a probe copies nothing under the shard lock, and the engine clones a
//! hit once, when it enters a request's candidate pool. Budget
//! checkpoints, degraded paths, and chaos faults all still apply to
//! cached turns: the cache only replaces the index scan, never the rest
//! of the pipeline.

use pws_concepts::{FormTable, SnippetAnalysis, TermDict};
use pws_geo::{LocationMatcher, LocationOntology};
use pws_index::{CutHit, RetrievalBackend, SearchHit, Sym};
use pws_obs::format::Fnv1a64;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

/// Everything a served snippet's analysis is read from: the index's term
/// table as the concept dictionary, one [`FormTable`] per index segment
/// (built once, here), and the location matcher.
pub struct SnippetAnalyst<'a> {
    matcher: LocationMatcher,
    dict: TermDict<'a>,
    tables: Vec<FormTable>,
}

impl<'a> SnippetAnalyst<'a> {
    /// Build the form tables of every segment of `base` over its term
    /// table, with `world`'s matcher.
    pub fn new(base: &'a dyn RetrievalBackend, world: &LocationOntology) -> Self {
        let matcher = LocationMatcher::build(world);
        let (terms, forms) = base.segment_forms();
        let dict = TermDict::of(terms.interner());
        let tables = (0..forms.len())
            .map(|s| FormTable::new(forms[s], |f| terms.form_terms(s, f), &matcher, &dict))
            .collect();
        SnippetAnalyst { matcher, dict, tables }
    }

    /// The dictionary every analysis made here is built against.
    pub fn dict(&self) -> &TermDict<'a> {
        &self.dict
    }

    /// The analysis of a cut hit's snippet, from its window's form ids.
    pub fn analyse(&self, cut: &CutHit) -> SnippetAnalysis {
        SnippetAnalysis::from_forms(&self.tables[cut.segment], &cut.forms, &self.matcher, &self.dict)
    }
}

/// A hit of a ranked pool, cut, with its snippet's analysis.
#[derive(Debug)]
pub struct PooledHit {
    /// The hit, snippet included.
    pub hit: SearchHit,
    /// The snippet's analysis, against the [`SnippetAnalyst::dict`] of
    /// the analyst that cut it.
    pub analysis: Arc<SnippetAnalysis>,
}

/// One retrieval: the analysed query (term ids), the ranked list, and
/// each hit as cut and analysed on first use. Shared by the cache and
/// every request served from it; a transient one serves an engine without
/// a cache.
pub struct RankedPool {
    query: Vec<Sym>,
    /// How many of `query`'s ids are the user's query: all of them for a
    /// base pool, fewer for a "query + city" pool.
    split: usize,
    ranked: Vec<(u32, f64)>,
    /// The positions of `ranked` that join a base pool, best first, and
    /// their scores under the query alone (empty for a base pool).
    pub(crate) joins: Vec<usize>,
    pub(crate) join_scores: Vec<f64>,
    /// `hits[i]` is the hit at position `i` of `ranked`, once cut.
    hits: Box<[OnceLock<PooledHit>]>,
}

/// The process-wide `engine.retrieval.snippets_cut` counter handle.
fn snippets_cut() -> &'static pws_obs::StageMetrics {
    static STAGE: OnceLock<Arc<pws_obs::StageMetrics>> = OnceLock::new();
    STAGE.get_or_init(|| pws_obs::stage("engine.retrieval.snippets_cut"))
}

/// The process-wide `engine.concepts.analyze` stage handle.
fn concepts_analyze() -> &'static pws_obs::StageMetrics {
    static STAGE: OnceLock<Arc<pws_obs::StageMetrics>> = OnceLock::new();
    STAGE.get_or_init(|| pws_obs::stage("engine.concepts.analyze"))
}

impl RankedPool {
    /// A pool over `ranked`, the `rank_tokens` list of `query`, with no
    /// hit cut yet.
    pub fn new(query: Vec<Sym>, ranked: Vec<(u32, f64)>) -> Self {
        let hits = ranked.iter().map(|_| OnceLock::new()).collect();
        let split = query.len();
        RankedPool { query, split, ranked, joins: Vec::new(), join_scores: Vec::new(), hits }
    }

    /// A "query + city" pool over `extended`, the extended `rank_tokens`
    /// list of `query[..split]` extended by `query[split..]`. Its joins are
    /// the hits whose doc `base` (the query's list) lacks and whose base
    /// score is above 0.
    pub(crate) fn augmented(
        query: Vec<Sym>,
        split: usize,
        extended: Vec<(u32, f64, f64)>,
        base: &[(u32, f64)],
    ) -> Self {
        let joins = extended.iter().enumerate();
        let joins = joins.filter(|&(_, &(doc, _, s))| s > 0.0 && !base.iter().any(|b| b.0 == doc));
        let (joins, join_scores) = joins.map(|(i, &(_, _, s))| (i, s)).unzip();
        let ranked = extended.into_iter().map(|(doc, score, _)| (doc, score)).collect();
        RankedPool { split, joins, join_scores, ..RankedPool::new(query, ranked) }
    }

    /// The analysed query the list was ranked (and is cut) for.
    pub fn query(&self) -> &[Sym] {
        &self.query
    }

    /// The ranked `(doc, BM25)` list, best first.
    pub fn ranked(&self) -> &[(u32, f64)] {
        &self.ranked
    }

    /// The hits at positions `which` of the list, in `which` order, each
    /// with whether this call cut it. Hits not cut yet are cut now, in one
    /// `cut_hits` call against this pool's query, analysed by `analyst`
    /// (the span `engine.concepts.analyze`), and kept; each counts once
    /// under `engine.retrieval.snippets_cut`. Two requests that race on a
    /// hit both cut it and keep whichever lands first — the same bytes.
    ///
    /// # Panics
    /// Panics if a position in `which` is out of range.
    pub fn cut(
        &self,
        base: &dyn RetrievalBackend,
        which: &[usize],
        analyst: &SnippetAnalyst<'_>,
    ) -> Vec<(&PooledHit, bool)> {
        let missing: Vec<usize> =
            which.iter().copied().filter(|&i| self.hits[i].get().is_none()).collect();
        if !missing.is_empty() {
            let cut = base.cut_hits(&self.query, &self.ranked, &missing);
            snippets_cut().incr(cut.len() as u64);
            let _span = concepts_analyze().span();
            for (&i, c) in missing.iter().zip(cut) {
                let analysis = Arc::new(analyst.analyse(&c));
                let _ = self.hits[i].set(PooledHit { hit: c.hit, analysis });
            }
        }
        which
            .iter()
            .map(|&i| {
                let hit = self.hits[i].get().expect("every wanted hit is cut");
                (hit, missing.contains(&i))
            })
            .collect()
    }
}

/// Number of lock shards in the base-retrieval cache. Fixed: cache
/// contention is per-query-string, independent of the user shard count.
const CACHE_SHARDS: usize = 8;

/// One cached retrieval.
struct CacheEntry {
    /// The pool size of the key; the key's query and split are the pool's.
    /// All are compared on probe for collision rejection (the map is keyed
    /// by the 64-bit fingerprint; a colliding probe must miss, not alias).
    k: usize,
    /// Shard-local LRU clock value of the last touch.
    tick: u64,
    /// Shared with every request served from this entry: a probe bumps
    /// the count under the shard lock and copies nothing.
    pool: Arc<RankedPool>,
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
///   fingerprint of `(query, split, k)`, so concurrent queries for different
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

/// FNV-1a over the cache key: the query's ids in order, four bytes each,
/// then the split and the pool size.
fn cache_fingerprint(query: &[Sym], split: usize, k: usize) -> u64 {
    let mut h = Fnv1a64::new();
    for id in query {
        h.write(&id.0.to_le_bytes());
    }
    h.write(&(split as u64).to_le_bytes());
    h.write(&(k as u64).to_le_bytes());
    h.finish()
}

impl RetrievalCache {
    /// A cache holding at most `capacity` pools (rounded up to a
    /// multiple of the shard count; 0 holds none, every probe misses).
    pub fn new(capacity: usize) -> Self {
        RetrievalCache {
            shards: (0..CACHE_SHARDS)
                .map(|_| Mutex::new(CacheShard { map: HashMap::new(), tick: 0 }))
                .collect(),
            per_shard_capacity: capacity.div_ceil(CACHE_SHARDS),
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

    /// The cached pool for `(query, split, k)`, or `None` on a miss: a base
    /// pool's split is `query.len()`, a "query + city" pool's the query's
    /// id count.
    pub fn get(&self, query: &[Sym], split: usize, k: usize) -> Option<Arc<RankedPool>> {
        let fp = cache_fingerprint(query, split, k);
        let mut shard = self.lock_shard(fp);
        shard.tick += 1;
        let tick = shard.tick;
        match shard.map.get_mut(&fp) {
            Some(e) if e.k == k && e.pool.split == split && e.pool.query == query => {
                e.tick = tick;
                let pool = Arc::clone(&e.pool);
                drop(shard);
                self.hit.incr(1);
                Some(pool)
            }
            _ => {
                drop(shard);
                self.miss.incr(1);
                None
            }
        }
    }

    /// Store `pool` under its query, its split and `k`, evicting the
    /// shard's least-recently touched entry when the shard is full.
    pub fn put(&self, k: usize, pool: Arc<RankedPool>) {
        if self.per_shard_capacity == 0 {
            return;
        }
        let fp = cache_fingerprint(&pool.query, pool.split, k);
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
        shard.map.insert(fp, CacheEntry { k, tick, pool });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pws_index::{IndexBuilder, StoredDoc};
    use std::sync::Barrier;

    impl RetrievalCache {
        /// Number of resident entries.
        fn len(&self) -> usize {
            (0..CACHE_SHARDS as u64).map(|i| self.lock_shard(i).map.len()).sum()
        }
    }

    /// A full cache — 1 024 pools of 30 hits from a large-shaped generated
    /// world, every hit cut and analysed — holds its analyses in under
    /// 5 MiB (Arc headers and the analyses' boxed slices included; 4.3 MiB
    /// measured).
    #[test]
    fn a_full_cache_holds_its_analyses_in_under_5_mib() {
        let _guard = pws_obs::test_lock();
        let seed = 42;
        let world = pws_geo::WorldGen::new(seed).generate(&pws_geo::WorldSpec::default_world());
        let docs = 8_000;
        let gen = pws_corpus::CorpusGen::new(seed + 1)
            .doc_gen(pws_corpus::CorpusSpec { num_docs: docs, ..pws_corpus::CorpusSpec::large() }, &world);
        let index = pws_index::SegmentedIndex::build_parallel(Default::default(), docs, docs / 4, 2, |i| {
            let d = gen.doc(i);
            (d.url, d.title, d.body)
        })
        .expect("generated segments build");
        let analyst = SnippetAnalyst::new(&index, &world);
        let cache = RetrievalCache::new(1024);
        let cities: Vec<&str> = world.cities().map(|c| world.name(c)).collect();
        let spec = pws_corpus::QuerySpec { num_queries: 300, ..pws_corpus::QuerySpec::default_workload() };
        let queries = pws_corpus::QueryGen::new(seed + 3).generate(&spec);
        'fill: for city in &cities {
            for q in &queries {
                let query = index.terms().analyze(&format!("{} {city}", q.text));
                if cache.get(&query, query.len(), 30).is_some() {
                    continue;
                }
                let ranked = index.rank_tokens(&query, None, 30).0;
                let pool = Arc::new(RankedPool::new(query, ranked));
                if pool.ranked().len() < 30 {
                    continue;
                }
                let all: Vec<usize> = (0..30).collect();
                pool.cut(&index, &all, &analyst);
                cache.put(30, pool);
                if cache.len() == 1024 {
                    break 'fill;
                }
            }
        }
        assert_eq!(cache.len(), 1024, "every pool resident");
        let (mut bytes, mut hits) = (0, 0);
        for shard in &cache.shards {
            for entry in shard.lock().unwrap().map.values() {
                for slot in entry.pool.hits.iter() {
                    let p = slot.get().expect("every hit cut");
                    bytes += 2 * std::mem::size_of::<usize>()
                        + std::mem::size_of::<SnippetAnalysis>()
                        + p.analysis.heap_bytes();
                    hits += 1;
                }
            }
        }
        assert_eq!(hits, 1024 * 30);
        let mib = bytes as f64 / f64::from(1 << 20);
        assert!(mib < 5.0, "analyses of a full cache hold {mib:.2} MiB");
        assert!(mib > 2.0, "analyses were counted: {mib:.2} MiB");
    }

    #[test]
    fn cache_is_bounded_and_evicts_lru() {
        let _guard = pws_obs::test_lock();
        pws_obs::reset();
        let cache = RetrievalCache::new(8); // 1 entry per lock shard
        for i in 0..100u32 {
            let query = vec![Sym(i)];
            cache.put(10, Arc::new(RankedPool::new(query.clone(), Vec::new())));
            assert!(
                cache.get(&query, 1, 10).is_some(),
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
        // Pool size is part of the key: same query, different k, miss.
        let query = vec![Sym(99)];
        assert!(cache.get(&query, 1, 10).is_some());
        assert!(cache.get(&query, 1, 20).is_none());
    }

    /// The key is the query's known ids in query order. A term the index
    /// has never seen matches, marks and scores nothing and is left out of
    /// the ids, so a query holding one is served — byte for byte, from that
    /// query's entry — the pool of the query without it, cut as the string
    /// path cuts the query with it. The same terms in another order miss:
    /// BM25 sums a document's contributions in query order.
    #[test]
    fn the_key_is_the_known_ids_in_query_order() {
        let _guard = pws_obs::test_lock();
        const WORDS: [&str; 6] = ["seafood", "harbor", "lobster", "grill", "market", "dock"];
        let mut b = IndexBuilder::new();
        for i in 0..60u32 {
            let body: Vec<&str> = (0..30).map(|j| WORDS[(i as usize * 5 + j * j) % 6]).collect();
            b.add(StoredDoc::new(i, &format!("u{i}"), "dock house", &body.join(" ")));
        }
        let index = b.build();
        let world = pws_geo::LocationOntology::new();
        let core = crate::EngineCore::new(&index, &world, crate::EngineConfig::default()).with_retrieval_cache(64);
        let (known, unseen) = ("seafood lobster dock", "Seafood zzqx lobster, dock");
        assert_eq!(index.terms().analyze(unseen), index.terms().analyze(known));
        assert_eq!(index.analyze_text(unseen).len(), 4, "the string path keeps the unseen token");

        let (plain, first) = core.candidate_pool(known, None);
        let (with, second) = core.candidate_pool(unseen, None);
        assert_eq!((first, second), (Some(false), Some(true)), "the unseen term's query shares the entry");
        assert!(!plain.is_empty() && plain.len() == with.len());
        let with_tokens = index.analyze_text(unseen);
        for ((a, an), (b, bn)) in plain.iter().zip(&with) {
            assert!(a == b && an.to_bits() == bn.to_bits(), "{a:?} != {b:?}");
            let body = index.doc(a.doc).body;
            assert_eq!(a.snippet, pws_index::extract_snippet(&body, &with_tokens, 24));
        }
        let docs: Vec<u32> = plain.iter().map(|(h, _)| h.doc).collect();
        let scores = |q: &str| -> Vec<u64> {
            let matched = index.search_exhaustive(q, index.doc_count() as usize);
            let score = |d: &u32| matched.iter().find(|h| h.doc == *d).map_or(0.0, |h| h.score);
            docs.iter().map(|d| score(d).to_bits()).collect()
        };
        assert_eq!(scores(unseen), scores(known));

        let permuted = "lobster seafood dock";
        let (mut a, mut b) = (index.terms().analyze(permuted), index.terms().analyze(known));
        assert_ne!(a, b);
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b, "the same ids");
        assert_eq!(core.candidate_pool(permuted, None).1, Some(false), "another order misses");
    }

    /// (query "seafood harbor", city "lobster"), (query "seafood", city
    /// "harbor lobster") and the plain query "seafood harbor lobster" hold
    /// the same ids but join different hits to their pools: served in turn
    /// through one cached core, in either order, each pool equals the
    /// uncached core's. A city no document names adds no id and makes one
    /// probe, the base pool's.
    #[test]
    fn the_key_names_where_the_query_ends() {
        let _guard = pws_obs::test_lock();
        const WORDS: [&str; 6] = ["seafood", "harbor", "lobster", "grill", "market", "dock"];
        let mut b = IndexBuilder::new();
        for i in 0..60u32 {
            let body: Vec<&str> = (0..30).map(|j| WORDS[(i as usize * 5 + j * j) % 6]).collect();
            b.add(StoredDoc::new(i, &format!("u{i}"), "house", &body.join(" ")));
        }
        let index = b.build();
        let mut world = pws_geo::LocationOntology::new();
        let region = world.add(pws_geo::LocId::WORLD, "westland", vec![]);
        let lobster = world.add(region, "lobster", vec![]);
        let harbor_lobster = world.add(region, "harbor lobster", vec![]);
        let atlantis = world.add(region, "atlantis", vec![]);
        let cfg = crate::EngineConfig { rerank_pool: 8, ..crate::EngineConfig::default() };
        let uncached = crate::EngineCore::new(&index, &world, cfg.clone());
        let keys = [
            ("seafood harbor", Some(lobster)),
            ("seafood", Some(harbor_lobster)),
            ("seafood harbor lobster", None),
        ];
        let ids = |q: &str, city: Option<pws_geo::LocId>| {
            let city = city.map_or(String::new(), |c| world.name(c).to_string());
            index.terms().analyze(&format!("{q} {city}"))
        };
        assert!(keys.iter().all(|&(q, c)| ids(q, c) == ids(keys[2].0, None)), "one id list");
        let want: Vec<_> = keys.iter().map(|&(q, city)| uncached.candidate_pool(q, city).0).collect();
        assert!(want[0].len() > 8 && want[1].len() > 8, "both cities join hits");
        assert!(want[0] != want[1] && want[0] != want[2] && want[1] != want[2]);
        for order in [[0, 1, 2, 0, 1, 2], [2, 1, 0, 2, 1, 0]] {
            let cached = crate::EngineCore::new(&index, &world, cfg.clone()).with_retrieval_cache(64);
            for i in order {
                let (got, _) = cached.candidate_pool(keys[i].0, keys[i].1);
                assert_eq!(got.len(), want[i].len(), "{:?}", keys[i]);
                for ((a, an), (b, bn)) in got.iter().zip(&want[i]) {
                    assert!(a == b && an.to_bits() == bn.to_bits(), "{:?}: {a:?} != {b:?}", keys[i]);
                }
            }
        }

        let cached = crate::EngineCore::new(&index, &world, cfg).with_retrieval_cache(64);
        let probes = || {
            let snap = pws_obs::snapshot();
            let count = |name: &str| snap.stages.iter().find(|s| s.name == name).map_or(0, |s| s.count);
            count("serve.cache.hit") + count("serve.cache.miss")
        };
        let before = probes();
        let (pool, _) = cached.candidate_pool("seafood harbor", Some(atlantis));
        assert_eq!(probes() - before, 1, "a city adding no id makes no augmented probe");
        assert_eq!(pool, uncached.candidate_pool("seafood harbor", None).0);
    }

    /// Threads that take hits of one fresh pool at once — each first a
    /// different subset, then all of it — every one gets exactly the hits
    /// an eager `search_tokens` returns, whichever thread's cut landed.
    #[test]
    fn threads_racing_on_one_pool_get_identical_hits() {
        let _guard = pws_obs::test_lock();
        const WORDS: [&str; 8] =
            ["seafood", "harbor", "lobster", "grill", "market", "fresh", "daily", "dock"];
        let mut b = IndexBuilder::new();
        for i in 0..80u32 {
            let body: Vec<&str> = (0..40).map(|j| WORDS[(i as usize * 7 + j * j) % 8]).collect();
            b.add(StoredDoc::new(i, &format!("u{i}"), "dock house", &body.join(" ")));
        }
        let index = b.build();
        let analyst = SnippetAnalyst::new(&index, &pws_geo::LocationOntology::new());
        let hits = |cut: Vec<(&PooledHit, bool)>| -> Vec<SearchHit> {
            cut.into_iter().map(|(p, _)| p.hit.clone()).collect()
        };
        let tokens = index.analyze_text("seafood lobster dock");
        let eager = index.search_tokens(&tokens, 30);
        assert_eq!(eager.len(), 30);
        let all: Vec<usize> = (0..30).collect();
        let query = index.terms().ids(&tokens);
        let counted = || {
            pws_obs::snapshot()
                .stages
                .iter()
                .find(|s| s.name == "engine.retrieval.snippets_cut")
                .map_or(0, |s| s.count)
        };
        for _ in 0..20 {
            let pool = RankedPool::new(query.clone(), index.rank_tokens(&query, None, 30).0);
            let barrier = Barrier::new(4);
            let got: Vec<Vec<SearchHit>> = std::thread::scope(|s| {
                let threads: Vec<_> = (0..4)
                    .map(|t| {
                        let (pool, barrier, all, index, analyst, hits) =
                            (&pool, &barrier, &all, &index, &analyst, &hits);
                        s.spawn(move || {
                            let first: Vec<usize> = (t..30).step_by(4).collect();
                            barrier.wait();
                            pool.cut(index, &first, analyst);
                            hits(pool.cut(index, all, analyst))
                        })
                    })
                    .collect();
                threads.into_iter().map(|t| t.join().expect("reader thread")).collect()
            });
            for hits in got {
                assert_eq!(hits, eager);
            }
            // Every hit is cut now: taking them all again cuts nothing.
            let before = counted();
            let again = pool.cut(&index, &all, &analyst);
            assert!(again.iter().all(|&(_, cut_now)| !cut_now));
            assert_eq!(hits(again), eager);
            assert_eq!(counted(), before);
        }
    }
}
