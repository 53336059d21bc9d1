//! The candidate pool `EngineCore` builds — a hit's snippet cut only when
//! the hit enters the pool, behind the shared retrieval cache or without
//! one — against the eager construction it replaced: both result lists cut
//! whole by `search_tokens`, the augmented list filtered afterwards. Every
//! query template of the paper-scale world against every city of that
//! world, and a sample of a large-shaped segmented world: the same hits
//! (`==`, snippets included) and the same normalized scores, bit for bit.

use pws_core::{EngineConfig, EngineCore};
use pws_corpus::{CorpusGen, CorpusSpec, QueryGen, QuerySpec};
use pws_eval::{ExperimentSpec, ExperimentWorld};
use pws_geo::{LocId, LocationOntology, WorldGen, WorldSpec};
use pws_index::{RetrievalBackend, SearchHit, SegmentedIndex};
use std::collections::HashMap;

/// The eager base retrieval of one query: its whole list, every hit cut,
/// and the exhaustive reference's score of every doc the query matches.
struct EagerBase {
    query: String,
    hits: Vec<SearchHit>,
    scores: HashMap<u32, f64>,
}

impl EagerBase {
    fn new(core: &EngineCore<'_>, index: &SegmentedIndex, query: &str) -> Self {
        let tokens = index.analyze_text(query);
        let hits = index.search_tokens(&tokens, core.config().rerank_pool);
        let matched = index.search_exhaustive(query, index.doc_count() as usize);
        let scores = matched.into_iter().map(|h| (h.doc, h.score)).collect();
        EagerBase { query: query.to_string(), hits, scores }
    }

    /// The pool as the engine built it before snippets were cut on use:
    /// the whole base list and the whole "query + city" list cut eagerly,
    /// the augmented hits the base list lacks re-scored against the base
    /// query and kept when they score above 0, merged by normalized score
    /// descending, doc ascending.
    fn pool(
        &self,
        core: &EngineCore<'_>,
        index: &dyn RetrievalBackend,
        city: Option<LocId>,
    ) -> Vec<(SearchHit, f64)> {
        let max = self.hits.iter().map(|h| h.score).fold(0.0_f64, f64::max).max(f64::MIN_POSITIVE);
        let mut pool: Vec<(SearchHit, f64)> =
            self.hits.iter().map(|h| (h.clone(), h.score / max)).collect();
        let Some(name) = city.map(|c| core.world().name(c)) else { return pool };
        if core.query_mentions_city(&self.query, name) {
            return pool;
        }
        let aug_tokens = index.analyze_text(&format!("{} {name}", self.query));
        let aug = index.search_tokens(&aug_tokens, core.config().rerank_pool);
        let new: Vec<SearchHit> =
            aug.into_iter().filter(|h| !pool.iter().any(|(c, _)| c.doc == h.doc)).collect();
        let docs: Vec<u32> = new.iter().map(|h| h.doc).collect();
        let base_scores = docs.iter().map(|d| self.scores.get(d).copied().unwrap_or(0.0));
        for (h, s) in new.into_iter().zip(base_scores) {
            if s > 0.0 {
                pool.push((h, s / max));
            }
        }
        pool.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then_with(|| a.0.doc.cmp(&b.0.doc)));
        pool
    }

    /// Compare the core's pool with the eager one; returns how many hits
    /// came from the augmented list (so a run can show it was not vacuous).
    fn assert_same_pool(
        &self,
        core: &EngineCore<'_>,
        index: &dyn RetrievalBackend,
        city: Option<LocId>,
    ) -> usize {
        let (lazy, _) = core.candidate_pool(&self.query, city);
        let eager = self.pool(core, index, city);
        let ctx =
            || format!("query {:?} city {:?}", self.query, city.map(|c| core.world().name(c)));
        assert_eq!(lazy.len(), eager.len(), "{}", ctx());
        for ((lh, ln), (eh, en)) in lazy.iter().zip(&eager) {
            assert!(lh == eh, "{}: hit {lh:?} != {eh:?}", ctx());
            assert_eq!(ln.to_bits(), en.to_bits(), "{}: doc {}", ctx(), lh.doc);
        }
        lazy.len() - self.hits.len()
    }
}

/// Serving-engine core (shared cache on, at the serving capacity) and the
/// serial engine's core (no cache, a transient pool per retrieval).
fn cores<'a>(index: &'a dyn RetrievalBackend, world: &'a LocationOntology) -> [EngineCore<'a>; 2] {
    [
        EngineCore::new(index, world, EngineConfig::default()).with_retrieval_cache(1024),
        EngineCore::new(index, world, EngineConfig::default()),
    ]
}

#[test]
fn lazy_pool_equals_eager_on_every_paper_template_and_city() {
    let w = ExperimentWorld::build(ExperimentSpec::default_paper());
    assert_eq!(w.queries.len(), 120);
    let cities: Vec<LocId> = w.world.cities().collect();
    assert_eq!(cities.len(), 144);
    let [cached, uncached] = cores(&w.engine, &w.world);
    let mut augmented = 0;
    for q in &w.queries {
        let eager = EagerBase::new(&cached, &w.engine, &q.text);
        eager.assert_same_pool(&cached, &w.engine, None);
        for &city in &cities {
            augmented += eager.assert_same_pool(&cached, &w.engine, Some(city));
        }
        // Again through pools the cache holds partly cut, and once without
        // a cache.
        for &city in cities.iter().step_by(16) {
            eager.assert_same_pool(&cached, &w.engine, Some(city));
            eager.assert_same_pool(&uncached, &w.engine, Some(city));
        }
    }
    assert!(augmented > 10_000, "augmentation should add hits: {augmented}");
}

#[test]
fn lazy_pool_equals_eager_on_a_large_world_sample() {
    // The large workload's world at 20 000 docs in 8 segments (its
    // smoke size), 200 templates, each against 8 cities in turn.
    let seed = ExperimentSpec::default_paper().seed;
    let world = WorldGen::new(seed).generate(&WorldSpec::default_world());
    let docs = 20_000;
    let gen = CorpusGen::new(seed.wrapping_add(1))
        .doc_gen(CorpusSpec { num_docs: docs, ..CorpusSpec::large() }, &world);
    let index = SegmentedIndex::build_parallel(Default::default(), docs, docs / 8, 2, |i| {
        let d = gen.doc(i);
        (d.url, d.title, d.body)
    })
    .expect("generated segments build");
    assert_eq!(index.num_segments(), 8);
    let queries = QueryGen::new(seed.wrapping_add(3))
        .generate(&QuerySpec { num_queries: 200, ..QuerySpec::default_workload() });
    let cities: Vec<LocId> = world.cities().collect();
    let [cached, uncached] = cores(&index, &world);
    let mut augmented = 0;
    for (i, q) in queries.iter().enumerate() {
        let eager = EagerBase::new(&cached, &index, &q.text);
        for j in 0..8 {
            let city = Some(cities[(i * 8 + j) % cities.len()]);
            augmented += eager.assert_same_pool(&cached, &index, city);
            eager.assert_same_pool(&uncached, &index, city);
        }
    }
    assert!(augmented > 1_000, "augmentation should add hits: {augmented}");
}
