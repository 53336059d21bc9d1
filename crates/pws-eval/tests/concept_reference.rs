//! The one-pass concept extractor against its five-pass reference on the
//! snippets the experiments actually mine: every query template of the
//! paper-scale world, its 30-snippet pool and its 10-snippet page, under
//! the default configuration and the F3/F7 variants. Same value, bit for
//! bit (the random-input half of this test is
//! `crates/pws-concepts/tests/differential.rs`).

use pws_concepts::{reference, ConceptConfig, LocationConceptConfig, QueryConceptOntology};
use pws_eval::{ExperimentSpec, ExperimentWorld};
use pws_geo::LocationMatcher;

#[test]
fn one_pass_equals_reference_on_every_paper_world_pool_and_page() {
    let world = ExperimentWorld::build(ExperimentSpec::default_paper());
    assert_eq!(world.queries.len(), 120);
    let matcher = LocationMatcher::build(&world.world);
    let variants = [
        (ConceptConfig::default(), LocationConceptConfig::default()),
        // F3: uncapped, low threshold. F7: no rollup.
        (
            ConceptConfig { min_support: 0.02, max_concepts: usize::MAX, ..Default::default() },
            LocationConceptConfig { rollup: false, ..Default::default() },
        ),
        (ConceptConfig { bigrams: false, max_concepts: 7, ..Default::default() }, Default::default()),
    ];
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
