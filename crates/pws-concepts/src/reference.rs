//! The reference extractor: the five-function composition concept
//! extraction was first written as.
//!
//! [`crate::QueryConceptOntology::extract_reference`] analyses every
//! snippet three times and matches it twice (`extract_content`,
//! `build_graph`, `extract_locations`, `concepts_in_snippet`, and a second
//! `locations_in` for the per-snippet location lists), with `String` keys
//! throughout. It is kept as the oracle the one-pass extractor
//! ([`crate::QueryConceptOntology::from_analyses`]) is differentially
//! tested against — bit for bit, including `f64` supports and edge
//! weights — and is **never on a serving or evaluation path** (the
//! `search_exhaustive` precedent in `pws-index`). Its graph is its own —
//! `build_graph`'s pairwise loop over `HashSet` incidence of the snippet
//! text — and the ontology it returns hands that graph back from
//! [`QueryConceptOntology::graph`], so [`bits`] compares the one-pass
//! ontology's derived graph against it, not against a graph derived from
//! the one-pass rows.

use crate::content::{ConceptConfig, ContentConcept};
use crate::graph::{
    ConceptEdge, ConceptGraph, ConceptRelation, Incidence, CONTAINMENT_THRESHOLD, SIM_THRESHOLD,
};
use crate::location::{LocationConcept, LocationConceptConfig};
use crate::ontology::QueryConceptOntology;
use pws_geo::{LocId, LocationMatcher, LocationOntology};
use pws_text::{bigrams, Analyzer};
use std::collections::{HashMap, HashSet};

/// The body of [`QueryConceptOntology::extract_reference`].
pub(crate) fn extract(
    query_text: &str,
    snippets: &[String],
    matcher: &LocationMatcher,
    world: &LocationOntology,
    content_cfg: &ConceptConfig,
    location_cfg: &LocationConceptConfig,
) -> QueryConceptOntology {
    let content = extract_content(query_text, snippets, content_cfg);
    let (graph, incidence) = build_graph(&content, snippets, SIM_THRESHOLD, CONTAINMENT_THRESHOLD);
    let locations = extract_locations(snippets, matcher, world, location_cfg);

    let content_by_snippet: Vec<Vec<usize>> =
        snippets.iter().map(|s| concepts_in_snippet(&content, s)).collect();

    let locations_by_snippet: Vec<Vec<usize>> = snippets
        .iter()
        .map(|s| {
            let present = matcher.locations_in(s);
            locations
                .iter()
                .enumerate()
                .filter(|(_, lc)| present.contains(&lc.loc))
                .map(|(i, _)| i)
                .collect()
        })
        .collect();

    QueryConceptOntology {
        query_text: query_text.to_string(),
        content,
        incidence,
        reference_graph: Some(graph),
        locations,
        content_by_snippet,
        locations_by_snippet,
    }
}

/// Everything in `onto`, with each `f64` as its bit pattern: two
/// ontologies are the same output iff their `bits` compare equal.
pub fn bits(onto: &QueryConceptOntology) -> impl PartialEq + std::fmt::Debug + '_ {
    let content: Vec<_> =
        onto.content.iter().map(|c| (&c.term, c.snippet_freq, c.support.to_bits())).collect();
    let graph = onto.graph();
    let edges: Vec<_> =
        graph.edges().iter().map(|e| (e.a, e.b, e.weight.to_bits(), e.relation)).collect();
    let locations: Vec<_> =
        onto.locations.iter().map(|l| (l.loc, l.support.to_bits(), l.direct_freq)).collect();
    (
        &onto.query_text,
        content,
        (graph.num_concepts(), edges),
        locations,
        &onto.content_by_snippet,
        &onto.locations_by_snippet,
    )
}

/// Extract content concepts of `query_text` from `snippets`.
///
/// Returns concepts sorted by descending support, ties broken
/// lexicographically (deterministic).
fn extract_content(
    query_text: &str,
    snippets: &[String],
    cfg: &ConceptConfig,
) -> Vec<ContentConcept> {
    if snippets.is_empty() {
        return Vec::new();
    }
    let analyzer = Analyzer::default();
    let query_terms: HashSet<String> = analyzer.analyze(query_text).into_iter().collect();

    // Snippet frequency per candidate.
    let mut sf: HashMap<String, u32> = HashMap::new();
    for snippet in snippets {
        let tokens = analyzer.analyze(snippet);
        let mut in_this: HashSet<String> = HashSet::new();
        for t in &tokens {
            if !query_terms.contains(t) {
                in_this.insert(t.clone());
            }
        }
        if cfg.bigrams {
            for bg in bigrams(&tokens) {
                // A bigram containing a query term on either side is still
                // informative ("seafood restaurant" for query "restaurant"),
                // but a bigram of *only* query terms is not.
                let both_query = bg.split(' ').all(|w| query_terms.contains(w));
                if !both_query {
                    in_this.insert(bg);
                }
            }
        }
        for c in in_this {
            *sf.entry(c).or_insert(0) += 1;
        }
    }

    let n = snippets.len() as f64;
    let mut out: Vec<ContentConcept> = sf
        .into_iter()
        .filter_map(|(term, freq)| {
            let support = f64::from(freq) / n;
            (support >= cfg.min_support && freq >= cfg.min_snippet_freq)
                .then_some(ContentConcept { term, snippet_freq: freq, support })
        })
        .collect();

    out.sort_unstable_by(|a, b| {
        b.support
            .partial_cmp(&a.support)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.term.cmp(&b.term))
    });
    out.truncate(cfg.max_concepts);
    out
}

/// Which of `concepts` occur in the given snippet? Used online when
/// attributing a click to the concepts visible in the clicked result.
fn concepts_in_snippet(concepts: &[ContentConcept], snippet: &str) -> Vec<usize> {
    let analyzer = Analyzer::default();
    let tokens = analyzer.analyze(snippet);
    let unigrams: HashSet<&str> = tokens.iter().map(|s| s.as_str()).collect();
    let bigram_set: HashSet<String> = bigrams(&tokens).into_iter().collect();
    concepts
        .iter()
        .enumerate()
        .filter(|(_, c)| {
            if c.term.contains(' ') {
                bigram_set.contains(&c.term)
            } else {
                unigrams.contains(c.term.as_str())
            }
        })
        .map(|(i, _)| i)
        .collect()
}

/// Build the graph for `concepts` from the snippets they were extracted
/// from; also returns the concepts' snippet incidence as rows.
///
/// `sim_threshold` — minimum cosine to keep an edge;
/// `containment_threshold` — minimum |S_a∩S_b|/|S_b| for `a` to count
/// as a parent of `b` (0.8 is a good default).
fn build_graph(
    concepts: &[ContentConcept],
    snippets: &[String],
    sim_threshold: f64,
    containment_threshold: f64,
) -> (ConceptGraph, Incidence) {
    let analyzer = Analyzer::default();
    // Incidence sets per concept.
    let mut incidence: Vec<HashSet<usize>> = vec![HashSet::new(); concepts.len()];
    for (si, snippet) in snippets.iter().enumerate() {
        let tokens = analyzer.analyze(snippet);
        let unigrams: HashSet<&str> = tokens.iter().map(|s| s.as_str()).collect();
        let bigram_set: HashSet<String> = bigrams(&tokens).into_iter().collect();
        for (ci, c) in concepts.iter().enumerate() {
            let present = if c.term.contains(' ') {
                bigram_set.contains(&c.term)
            } else {
                unigrams.contains(c.term.as_str())
            };
            if present {
                incidence[ci].insert(si);
            }
        }
    }

    let mut edges = Vec::new();
    for a in 0..concepts.len() {
        for b in (a + 1)..concepts.len() {
            let sa = &incidence[a];
            let sb = &incidence[b];
            if sa.is_empty() || sb.is_empty() {
                continue;
            }
            let inter = sa.intersection(sb).count() as f64;
            if inter == 0.0 {
                continue;
            }
            let cosine = inter / ((sa.len() as f64) * (sb.len() as f64)).sqrt();
            if cosine < sim_threshold {
                continue;
            }
            // Containment checks decide parent/child typing.
            let a_contains_b = inter / sb.len() as f64;
            let b_contains_a = inter / sa.len() as f64;
            let relation = if a_contains_b >= containment_threshold
                && sa.len() > sb.len()
            {
                ConceptRelation::ParentOf
            } else if b_contains_a >= containment_threshold && sb.len() > sa.len() {
                ConceptRelation::ChildOf
            } else {
                ConceptRelation::Similar
            };
            edges.push(ConceptEdge { a, b, weight: cosine, relation });
        }
    }
    let mut rows = Incidence::default();
    rows.reset(snippets.len());
    for sets in &incidence {
        let row = rows.push_empty_row();
        for &snippet in sets {
            rows.set(row, snippet);
        }
    }
    (ConceptGraph { num_concepts: concepts.len(), edges }, rows)
}

/// Extract location concepts from `snippets`.
///
/// Sorted by descending support, ties by `LocId` (deterministic).
fn extract_locations(
    snippets: &[String],
    matcher: &LocationMatcher,
    world: &LocationOntology,
    cfg: &LocationConceptConfig,
) -> Vec<LocationConcept> {
    if snippets.is_empty() {
        return Vec::new();
    }
    let n = snippets.len() as f64;
    let mut mass: HashMap<LocId, f64> = HashMap::new();
    let mut direct: HashMap<LocId, u32> = HashMap::new();

    for snippet in snippets {
        // Snippet-frequency semantics: each place counts once per snippet.
        for loc in matcher.locations_in(snippet) {
            *direct.entry(loc).or_insert(0) += 1;
            *mass.entry(loc).or_insert(0.0) += 1.0;
            if cfg.rollup {
                let mut decay = cfg.rollup_decay;
                for anc in world.ancestors(loc).into_iter().skip(1) {
                    if anc == LocId::WORLD {
                        break;
                    }
                    *mass.entry(anc).or_insert(0.0) += decay;
                    decay *= cfg.rollup_decay;
                }
            }
        }
    }

    let mut out: Vec<LocationConcept> = mass
        .into_iter()
        .filter_map(|(loc, m)| {
            let support = m / n;
            (support >= cfg.min_support).then_some(LocationConcept {
                loc,
                support,
                direct_freq: direct.get(&loc).copied().unwrap_or(0),
            })
        })
        .collect();
    out.sort_unstable_by(|a, b| {
        b.support
            .partial_cmp(&a.support)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.loc.cmp(&b.loc))
    });
    out
}
