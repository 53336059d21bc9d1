//! The one-pass concept extractor against its five-pass reference on the
//! snippets the experiments actually mine: every query template of the
//! paper-scale world, its 30-snippet pool and its 10-snippet page, under
//! the default configuration and the F3/F7 variants. Same value, bit for
//! bit (the random-input half of this test is
//! `crates/pws-concepts/tests/differential.rs`) — and the same value
//! whatever ids the shared term dictionary happened to hand out.

use pws_concepts::{
    query_terms, reference, ConceptConfig, LocationConceptConfig, QueryConceptOntology,
    SnippetAnalysis, TermDict,
};
use pws_eval::{ExperimentSpec, ExperimentWorld};
use pws_geo::LocationMatcher;
use std::sync::OnceLock;

fn paper_world() -> &'static ExperimentWorld {
    static WORLD: OnceLock<ExperimentWorld> = OnceLock::new();
    WORLD.get_or_init(|| ExperimentWorld::build(ExperimentSpec::default_paper()))
}

fn variants() -> [(ConceptConfig, LocationConceptConfig); 3] {
    [
        (ConceptConfig::default(), LocationConceptConfig::default()),
        // F3: uncapped, low threshold. F7: no rollup.
        (
            ConceptConfig { min_support: 0.02, max_concepts: usize::MAX, ..Default::default() },
            LocationConceptConfig { rollup: false, ..Default::default() },
        ),
        (ConceptConfig { bigrams: false, max_concepts: 7, ..Default::default() }, Default::default()),
    ]
}

#[test]
fn one_pass_equals_reference_on_every_paper_world_pool_and_page() {
    let world = paper_world();
    assert_eq!(world.queries.len(), 120);
    let matcher = LocationMatcher::build(&world.world);
    let variants = variants();
    let mut concepts = 0;
    for q in &world.queries {
        let pool: Vec<String> =
            world.engine.search(&q.text, 30).into_iter().map(|h| h.snippet).collect();
        for snippets in [&pool[..], &pool[..pool.len().min(10)]] {
            for (content_cfg, location_cfg) in &variants {
                let fast = QueryConceptOntology::extract(
                    &q.text, snippets, &matcher, &world.world, content_cfg, location_cfg,
                );
                let slow = QueryConceptOntology::extract_reference(
                    &q.text, snippets, &matcher, &world.world, content_cfg, location_cfg,
                );
                assert_eq!(reference::bits(&fast), reference::bits(&slow), "query {:?}", q.text);
                concepts += fast.concept_count();
            }
        }
    }
    assert!(concepts > 10_000, "the fixed cases should not be vacuous: {concepts}");
}

/// Term ids are handed out in arrival order: an engine's are its index's
/// table's, which depend on the order segments were added in. Two
/// dictionaries seeded with the
/// corpus stems in opposite orders give every term two different ids; the
/// ontologies counted against them must be the same value, and the
/// reference's.
#[test]
fn extraction_does_not_depend_on_term_id_order() {
    let world = paper_world();
    let matcher = LocationMatcher::build(&world.world);
    let pools: Vec<Vec<String>> = world
        .queries
        .iter()
        .map(|q| world.engine.search(&q.text, 30).into_iter().map(|h| h.snippet).collect())
        .collect();
    // Distinct stems in order of first sight.
    let mut seen = std::collections::HashSet::new();
    let mut stems: Vec<String> = Vec::new();
    for text in world.corpus.docs.iter().map(|d| &d.body).chain(pools.iter().flatten()) {
        pws_text::Analyzer::default().for_each_token(text, |stem| {
            if seen.insert(stem.to_string()) {
                stems.push(stem.to_string());
            }
        });
    }
    let (mut forward, mut reverse) = (TermDict::new(), TermDict::new());
    for stem in &stems {
        forward.intern(stem);
    }
    for stem in stems.iter().rev() {
        reverse.intern(stem);
    }
    assert!(stems.len() > 100);
    assert_ne!(forward.get(&stems[0]), reverse.get(&stems[0]));

    let mut concepts = 0;
    for (q, pool) in world.queries.iter().zip(&pools) {
        for snippets in [&pool[..], &pool[..pool.len().min(10)]] {
            for (content_cfg, location_cfg) in &variants() {
                let [a, b] = [&mut forward, &mut reverse].map(|dict| {
                    let analyses: Vec<SnippetAnalysis> =
                        snippets.iter().map(|s| SnippetAnalysis::new(s, &matcher, dict)).collect();
                    let query = query_terms(&q.text, dict);
                    QueryConceptOntology::from_analyses(
                        &q.text, &query, &analyses, &*dict, &world.world, content_cfg, location_cfg,
                    )
                });
                let slow = QueryConceptOntology::extract_reference(
                    &q.text, snippets, &matcher, &world.world, content_cfg, location_cfg,
                );
                assert_eq!(reference::bits(&a), reference::bits(&b), "query {:?}", q.text);
                assert_eq!(reference::bits(&a), reference::bits(&slow), "query {:?}", q.text);
                concepts += a.concept_count();
            }
        }
    }
    assert_eq!((forward.len(), reverse.len()), (stems.len(), stems.len()), "seeding covered every stem");
    assert!(concepts > 10_000, "the fixed cases should not be vacuous: {concepts}");
}
