//! A click's concept expansion read off the incidence rows
//! (`QueryConceptOntology::spread`) against the same expansion over the
//! whole relationship graph (`onto.graph().spread`): the same neighbours in
//! the same order, every mass bit for bit. Covered: every concept of every
//! 30-snippet pool and 10-snippet page of the paper-scale world's 120
//! query templates, alone and extended by three of its cities each, under
//! the default configuration and the uncapped F3 variant; the reference
//! extractor's ontologies of the same pools (their graph is its own,
//! built from `HashSet` incidence over the snippet text); and hand-built
//! cases — rows more than one word wide (> 64 snippets), a concept with no
//! neighbour, and an ontology with no concepts.

use pws_concepts::{ConceptConfig, LocationConceptConfig, QueryConceptOntology};
use pws_eval::{ExperimentSpec, ExperimentWorld};
use pws_geo::{LocationMatcher, LocationOntology};
use std::sync::OnceLock;

/// `(mass, damping)` pairs every concept is spread with.
const MASSES: [(f64, f64); 3] = [(1.0, 0.3), (2.5, 0.5), (0.1, 1.0)];

fn paper_world() -> &'static ExperimentWorld {
    static WORLD: OnceLock<ExperimentWorld> = OnceLock::new();
    WORLD.get_or_init(|| ExperimentWorld::build(ExperimentSpec::default_paper()))
}

fn as_bits(pairs: impl IntoIterator<Item = (usize, f64)>) -> Vec<(usize, u64)> {
    pairs.into_iter().map(|(j, mass)| (j, mass.to_bits())).collect()
}

/// Every concept of `onto` spread both ways; returns how many
/// `(concept, neighbour)` pairs the spreads visited.
fn assert_spread_matches_graph(onto: &QueryConceptOntology, ctx: &str) -> usize {
    let graph = onto.graph();
    assert_eq!(graph.num_concepts(), onto.content.len(), "{ctx}");
    let mut visited = 0;
    for i in 0..onto.content.len() {
        for (mass, damping) in MASSES {
            let read = as_bits(onto.spread(i, mass, damping));
            let built = as_bits(graph.spread(i, mass, damping));
            assert_eq!(read, built, "{ctx}: concept {i} ({mass}, {damping})");
            visited += read.len();
        }
    }
    visited
}

#[test]
fn spread_equals_the_graphs_on_every_paper_world_pool_and_page() {
    let world = paper_world();
    assert_eq!(world.queries.len(), 120);
    let matcher = LocationMatcher::build(&world.world);
    let cities: Vec<&str> = world.world.cities().map(|c| world.world.name(c)).collect();
    let variants = [
        (ConceptConfig::default(), LocationConceptConfig::default()),
        (
            ConceptConfig { min_support: 0.02, max_concepts: usize::MAX, ..Default::default() },
            LocationConceptConfig::default(),
        ),
    ];
    let (mut visited, mut pools) = (0, 0);
    for (qi, q) in world.queries.iter().enumerate() {
        let texts = std::iter::once(q.text.clone()).chain(
            (0..3).map(|j| format!("{} {}", q.text, cities[(qi * 3 + j * 47) % cities.len()])),
        );
        for text in texts {
            let pool: Vec<String> =
                world.engine.search(&text, 30).into_iter().map(|h| h.snippet).collect();
            for snippets in [&pool[..], &pool[..pool.len().min(10)]] {
                for (content_cfg, location_cfg) in &variants {
                    let fast = QueryConceptOntology::extract(
                        &text,
                        snippets,
                        &matcher,
                        &world.world,
                        content_cfg,
                        location_cfg,
                    );
                    visited += assert_spread_matches_graph(&fast, &format!("{text:?}"));
                    pools += 1;
                }
            }
            let (content_cfg, location_cfg) = &variants[0];
            let slow = QueryConceptOntology::extract_reference(
                &text,
                &pool,
                &matcher,
                &world.world,
                content_cfg,
                location_cfg,
            );
            visited += assert_spread_matches_graph(&slow, &format!("reference {text:?}"));
        }
    }
    assert_eq!(pools, 120 * 4 * 2 * 2);
    assert!(visited > 100_000, "the fixed cases should not be vacuous: {visited}");
}

fn loose_extract(snippets: &[String]) -> QueryConceptOntology {
    let world = LocationOntology::new();
    QueryConceptOntology::extract(
        "query",
        snippets,
        &LocationMatcher::build(&world),
        &world,
        &ConceptConfig { min_support: 0.0, min_snippet_freq: 1, bigrams: true, max_concepts: 50 },
        &LocationConceptConfig::default(),
    )
}

/// 150 snippets: every concept's row spans three words, and "lateword"
/// occurs only past bit 64.
#[test]
fn rows_wider_than_one_word() {
    let words = ["seafood", "lobster", "sushi", "buffet", "harbor", "booking", "android"];
    let snippets: Vec<String> = (0..150)
        .map(|s| {
            let picked: Vec<&str> = (0..words.len())
                .filter(|&w| (s * (w + 3) / 7 + w) % (w + 2) == 0)
                .map(|w| words[w])
                .collect();
            let late = if s >= 70 { " lateword" } else { "" };
            format!("listing {}{late}", picked.join(" "))
        })
        .collect();
    let onto = loose_extract(&snippets);
    assert!(onto.content.iter().any(|c| c.term == "lateword"));
    assert!(assert_spread_matches_graph(&onto, "150 snippets") > 0);
}

#[test]
fn a_concept_with_no_neighbour_spreads_nothing() {
    let snippets: Vec<String> =
        ["alpha beta", "alpha beta", "gamma"].iter().map(|s| s.to_string()).collect();
    let onto = loose_extract(&snippets);
    let gamma = onto.content.iter().position(|c| c.term == "gamma").expect("gamma is a concept");
    assert_eq!(onto.spread(gamma, 1.0, 0.5).count(), 0);
    assert!(assert_spread_matches_graph(&onto, "isolated concept") > 0, "alpha–beta spread");
}

#[test]
fn an_ontology_without_concepts_has_an_empty_graph() {
    for snippets in [vec![], vec!["query".to_string(), "the query".to_string()]] {
        let onto = loose_extract(&snippets);
        assert!(onto.content.is_empty());
        assert_eq!(assert_spread_matches_graph(&onto, "no concepts"), 0);
        assert!(onto.graph().edges().is_empty());
    }
}
