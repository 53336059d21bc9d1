//! Property tests for concept extraction: support-counting laws, threshold
//! monotonicity, and graph/ontology consistency over random snippet sets.

use proptest::prelude::*;
use pws_concepts::{ConceptConfig, ContentConcept, LocationConceptConfig, QueryConceptOntology};
use pws_geo::{LocId, LocationMatcher, LocationOntology};

fn extract(snips: &[String], world: &LocationOntology, cfg: &ConceptConfig) -> QueryConceptOntology {
    QueryConceptOntology::extract(
        "query",
        snips,
        &LocationMatcher::build(world),
        world,
        cfg,
        &LocationConceptConfig { min_support: 0.0, ..Default::default() },
    )
}

/// Content concepts alone (no places to match).
fn extract_content(snips: &[String], cfg: &ConceptConfig) -> Vec<ContentConcept> {
    extract(snips, &LocationOntology::new(), cfg).content
}

fn vocab_word() -> impl Strategy<Value = &'static str> {
    prop::sample::select(vec![
        "seafood", "lobster", "sushi", "buffet", "menu", "hotel", "booking", "android",
        "battery", "stadium", "guide", "review",
    ])
}

fn snippet() -> impl Strategy<Value = String> {
    prop::collection::vec(vocab_word(), 1..12).prop_map(|ws| ws.join(" "))
}

fn snippets() -> impl Strategy<Value = Vec<String>> {
    prop::collection::vec(snippet(), 0..12)
}

fn loose(bigrams: bool) -> ConceptConfig {
    ConceptConfig { min_support: 0.0, min_snippet_freq: 1, bigrams, max_concepts: 1000 }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Support values are consistent: `support = snippet_freq / n`,
    /// `1 ≤ snippet_freq ≤ n`, list sorted by support descending.
    #[test]
    fn support_accounting(snips in snippets()) {
        let concepts = extract_content(&snips, &loose(true));
        let n = snips.len() as f64;
        for c in &concepts {
            prop_assert!(c.snippet_freq >= 1);
            prop_assert!(c.snippet_freq as usize <= snips.len());
            prop_assert!((c.support - f64::from(c.snippet_freq) / n).abs() < 1e-12);
        }
        for w in concepts.windows(2) {
            prop_assert!(w[0].support >= w[1].support);
        }
        // No duplicates.
        let mut terms: Vec<&str> = concepts.iter().map(|c| c.term.as_str()).collect();
        let len = terms.len();
        terms.sort_unstable();
        terms.dedup();
        prop_assert_eq!(terms.len(), len);
    }

    /// Raising the threshold can only shrink the concept set, and the
    /// surviving set is exactly the prefix filter of the loose set.
    #[test]
    fn threshold_monotonicity(snips in snippets(), s1 in 0.0f64..0.5, s2 in 0.5f64..1.0) {
        let lo = extract_content(&snips, &ConceptConfig { min_support: s1, ..loose(true) });
        let hi = extract_content(&snips, &ConceptConfig { min_support: s2, ..loose(true) });
        prop_assert!(hi.len() <= lo.len());
        for c in &hi {
            prop_assert!(c.support >= s2);
            prop_assert!(lo.iter().any(|d| d.term == c.term));
        }
    }

    /// Unigram concepts ⊆ (unigram + bigram) concepts.
    #[test]
    fn bigrams_only_add(snips in snippets()) {
        let uni = extract_content(&snips, &loose(false));
        let both = extract_content(&snips, &loose(true));
        for c in &uni {
            prop_assert!(both.iter().any(|d| d.term == c.term));
        }
    }

    /// Graph edges: valid indices, weights in (0, 1], no self-loops,
    /// no duplicate pairs.
    #[test]
    fn graph_well_formed(snips in snippets()) {
        let onto = extract(&snips, &LocationOntology::new(), &loose(false));
        let (concepts, g) = (&onto.content, &onto.graph());
        let mut seen = std::collections::HashSet::new();
        for e in g.edges() {
            prop_assert!(e.a < concepts.len() && e.b < concepts.len());
            prop_assert!(e.a != e.b);
            prop_assert!(e.weight > 0.0 && e.weight <= 1.0 + 1e-12);
            prop_assert!(seen.insert((e.a.min(e.b), e.a.max(e.b))), "dup edge");
        }
    }

    /// Full ontology extraction: membership lists are consistent with the
    /// concept lists and every index is in bounds.
    #[test]
    fn ontology_membership_consistent(snips in snippets()) {
        let mut world = LocationOntology::new();
        let r = world.add(LocId::WORLD, "westland", vec![]);
        let c = world.add(r, "ardonia", vec![]);
        let s = world.add(c, "vale", vec![]);
        world.add(s, "alden", vec![]);
        let onto = extract(&snips, &world, &loose(true));
        prop_assert_eq!(onto.content_by_snippet.len(), snips.len());
        prop_assert_eq!(onto.locations_by_snippet.len(), snips.len());
        for per_snippet in &onto.content_by_snippet {
            for &ci in per_snippet {
                prop_assert!(ci < onto.content.len());
            }
        }
        for per_snippet in &onto.locations_by_snippet {
            for &li in per_snippet {
                prop_assert!(li < onto.locations.len());
            }
        }
        prop_assert_eq!(onto.graph().num_concepts(), onto.content.len());
    }
}
