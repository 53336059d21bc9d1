//! Content-concept extraction.
//!
//! Following the paper's support-based mining: a term/phrase `c` appearing
//! in the snippets of query `q`'s top results is a *content concept* of `q`
//! when
//!
//! ```text
//! support(c) = sf(c) / n  ≥  s
//! ```
//!
//! where `sf(c)` is the number of snippets containing `c` (snippet
//! frequency, not raw term frequency — one snippet mentioning a term five
//! times is still one vote), `n` the number of snippets examined, and `s`
//! the support threshold. Candidates are analyzed unigrams and bigrams,
//! excluding the query's own terms (a concept must add information beyond
//! the query).
//!
//! Counting runs over [`SnippetAnalysis`] values in a per-call integer id
//! space — a term is a `u32`, a bigram a pair of them — and fills one
//! snippet-incidence bitset row per candidate as it goes, so snippet
//! frequency is a popcount and the relationship graph and the per-snippet
//! concept lists are read off the same rows without touching a snippet
//! again. A bigram's `String` exists only once it has passed the threshold.

use crate::graph::Incidence;
use crate::snippet::{for_each_term, SnippetAnalysis};
use pws_text::{Interner, Sym};
use serde::{Deserialize, Serialize};
use std::borrow::Borrow;
use std::collections::HashMap;

/// Extraction parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct ConceptConfig {
    /// Minimum support `s` (fraction of snippets).
    pub min_support: f64,
    /// Minimum absolute snippet count (guards tiny result sets where one
    /// snippet is already 100% support).
    pub min_snippet_freq: u32,
    /// Extract bigram concepts in addition to unigrams.
    pub bigrams: bool,
    /// Cap on concepts returned (highest-support first).
    pub max_concepts: usize,
}

impl Default for ConceptConfig {
    fn default() -> Self {
        ConceptConfig { min_support: 0.05, min_snippet_freq: 2, bigrams: true, max_concepts: 50 }
    }
}

/// One extracted content concept.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ContentConcept {
    /// The (analyzed) concept term or phrase.
    pub term: String,
    /// Number of snippets containing the concept.
    pub snippet_freq: u32,
    /// `snippet_freq / n`.
    pub support: f64,
}

/// Count content concepts of `query_text` over the analysed snippets.
///
/// Returns the concepts sorted by descending support, ties broken
/// lexicographically (deterministic), and their snippet-incidence rows in
/// the same order (row `i`, bit `s` ⇔ concept `i` occurs in snippet `s`).
pub(crate) fn count_content<S: Borrow<SnippetAnalysis>>(
    query_text: &str,
    analyses: &[S],
    cfg: &ConceptConfig,
) -> (Vec<ContentConcept>, Incidence) {
    // The id space of this call. Query terms are interned first, so
    // `id < n_query` is the "is a query term" test.
    let mut terms = Interner::new();
    for_each_term(query_text, |t| {
        terms.intern(t);
    });
    let n_query = terms.len() as u32;

    // Candidates in order of first sight: `keys[c]` is a term id or a pair
    // of them, `seen` row `c` the snippets it occurs in. A candidate counts
    // once per snippet because setting a bit twice changes nothing.
    let mut keys: Vec<(u32, Option<u32>)> = Vec::new();
    let mut seen = Incidence::new(analyses.len());
    let mut unigram: Vec<Option<usize>> = Vec::new();
    // Sized up front (a pool has at most one bigram per term position):
    // growing by rehash cost a quarter of the pass on a 30-snippet pool.
    let positions: usize = analyses.iter().map(|a| a.borrow().len()).sum();
    let mut bigram: HashMap<(u32, u32), usize> = HashMap::with_capacity(positions);
    let mut seq: Vec<u32> = Vec::new();
    for (si, analysis) in analyses.iter().enumerate() {
        seq.clear();
        seq.extend(analysis.borrow().terms().map(|t| terms.intern(t).0));
        unigram.resize(terms.len(), None);
        for &id in seq.iter().filter(|&&id| id >= n_query) {
            let c = *unigram[id as usize].get_or_insert_with(|| {
                keys.push((id, None));
                seen.push_empty_row()
            });
            seen.set(c, si);
        }
        if cfg.bigrams {
            for pair in seq.windows(2) {
                // A bigram containing a query term on either side is still
                // informative ("seafood restaurant" for query "restaurant"),
                // but a bigram of *only* query terms is not.
                if pair[0] < n_query && pair[1] < n_query {
                    continue;
                }
                let c = *bigram.entry((pair[0], pair[1])).or_insert_with(|| {
                    keys.push((pair[0], Some(pair[1])));
                    seen.push_empty_row()
                });
                seen.set(c, si);
            }
        }
    }

    // Threshold, then name the survivors — a bigram gets its `String` only
    // here — and order them.
    let n = analyses.len() as f64;
    let mut out: Vec<(ContentConcept, usize)> = Vec::new();
    for (c, &key) in keys.iter().enumerate() {
        let snippet_freq = seen.count(c);
        let support = f64::from(snippet_freq) / n;
        if support >= cfg.min_support && snippet_freq >= cfg.min_snippet_freq {
            let term = match key {
                (a, None) => terms.resolve(Sym(a)).to_string(),
                (a, Some(b)) => format!("{} {}", terms.resolve(Sym(a)), terms.resolve(Sym(b))),
            };
            out.push((ContentConcept { term, snippet_freq, support }, c));
        }
    }
    out.sort_unstable_by(|(a, _), (b, _)| {
        b.support
            .partial_cmp(&a.support)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.term.cmp(&b.term))
    });
    out.truncate(cfg.max_concepts);

    let mut incidence = Incidence::new(analyses.len());
    let concepts = out
        .into_iter()
        .map(|(concept, c)| {
            incidence.push_row(seen.row(c));
            concept
        })
        .collect();
    (concepts, incidence)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pws_geo::{LocationMatcher, LocationOntology};

    fn analyses(snippets: &[String]) -> Vec<SnippetAnalysis> {
        let matcher = LocationMatcher::build(&LocationOntology::new());
        snippets.iter().map(|s| SnippetAnalysis::new(s, &matcher)).collect()
    }

    /// The content half of the pass over raw snippet text.
    fn extract_content(query_text: &str, snippets: &[String], cfg: &ConceptConfig) -> Vec<ContentConcept> {
        count_content(query_text, &analyses(snippets), cfg).0
    }

    fn snips(texts: &[&str]) -> Vec<String> {
        texts.iter().map(|t| t.to_string()).collect()
    }

    fn cfg(min_support: f64) -> ConceptConfig {
        ConceptConfig { min_support, min_snippet_freq: 1, bigrams: true, max_concepts: 100 }
    }

    #[test]
    fn empty_snippets_give_no_concepts() {
        assert!(extract_content("q", &[], &ConceptConfig::default()).is_empty());
    }

    #[test]
    fn support_is_snippet_fraction() {
        let s = snips(&["seafood here", "seafood there", "nothing else"]);
        let cs = extract_content("restaurant", &s, &cfg(0.0));
        let seafood = cs.iter().find(|c| c.term == "seafood").expect("seafood extracted");
        assert_eq!(seafood.snippet_freq, 2);
        assert!((seafood.support - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn repeated_mentions_in_one_snippet_count_once() {
        let s = snips(&["lobster lobster lobster", "other text"]);
        let cs = extract_content("q", &s, &cfg(0.0));
        let lob = cs.iter().find(|c| c.term == "lobster").unwrap();
        assert_eq!(lob.snippet_freq, 1);
    }

    #[test]
    fn query_terms_are_excluded() {
        let s = snips(&["restaurant seafood", "restaurant sushi"]);
        let cs = extract_content("restaurant", &s, &cfg(0.0));
        assert!(!cs.iter().any(|c| c.term == "restaur"), "query term leaked: {cs:?}");
        assert!(cs.iter().any(|c| c.term == "seafood"));
    }

    #[test]
    fn stemmed_query_matching_excludes_inflections() {
        let s = snips(&["restaurants everywhere", "many restaurants"]);
        let cs = extract_content("restaurant", &s, &cfg(0.0));
        // "restaurants" stems to the query term's stem → excluded as a
        // unigram concept (bigrams containing it may survive by design).
        assert!(cs.iter().all(|c| c.term != "restaur"), "{cs:?}");
    }

    #[test]
    fn threshold_filters_low_support() {
        let s = snips(&["seafood a", "seafood b", "seafood c", "rare d"]);
        let cs = extract_content("q", &s, &cfg(0.5));
        assert!(cs.iter().any(|c| c.term == "seafood"));
        assert!(!cs.iter().any(|c| c.term == "rare"));
    }

    #[test]
    fn min_snippet_freq_guards_small_sets() {
        let s = snips(&["unique mention only"]);
        let c = ConceptConfig { min_support: 0.0, min_snippet_freq: 2, ..ConceptConfig::default() };
        assert!(extract_content("q", &s, &c).is_empty());
    }

    #[test]
    fn bigram_concepts_extracted() {
        let s = snips(&["lobster roll special", "try the lobster roll"]);
        let cs = extract_content("q", &s, &cfg(0.5));
        assert!(cs.iter().any(|c| c.term == "lobster roll"), "{cs:?}");
    }

    #[test]
    fn bigram_with_query_term_is_kept_but_pure_query_bigram_dropped() {
        let s = snips(&["seafood restaurant here", "seafood restaurant there"]);
        let cs = extract_content("seafood restaurant", &s, &cfg(0.0));
        assert!(!cs.iter().any(|c| c.term == "seafood restaur"), "{cs:?}");
    }

    #[test]
    fn bigrams_disabled() {
        let s = snips(&["lobster roll a", "lobster roll b"]);
        let c = ConceptConfig { bigrams: false, min_support: 0.0, min_snippet_freq: 1, max_concepts: 100 };
        let cs = extract_content("q", &s, &c);
        assert!(cs.iter().all(|c| !c.term.contains(' ')));
    }

    #[test]
    fn ordering_is_support_desc_then_term() {
        let s = snips(&["alpha beta", "alpha gamma", "alpha beta"]);
        let cs = extract_content("q", &s, &cfg(0.0));
        assert_eq!(cs[0].term, "alpha");
        for w in cs.windows(2) {
            assert!(w[0].support >= w[1].support);
        }
    }

    #[test]
    fn max_concepts_caps_output() {
        let s = snips(&["aa bb cc dd ee ff gg hh", "aa bb cc dd ee ff gg hh"]);
        let c = ConceptConfig { max_concepts: 3, min_support: 0.0, min_snippet_freq: 1, bigrams: true };
        assert_eq!(extract_content("q", &s, &c).len(), 3);
    }

    #[test]
    fn incidence_rows_mark_the_snippets_containing_each_concept() {
        let s = snips(&["fresh lobster roll and seafood platter", "nothing here", "seafood lobster"]);
        let (concepts, rows) = count_content("q", &analyses(&s), &cfg(0.0));
        let row_of = |term: &str| {
            let i = concepts.iter().position(|c| c.term == term).expect(term);
            rows.row(i)[0]
        };
        assert_eq!(row_of("seafood"), 0b101);
        assert_eq!(row_of("lobster roll"), 0b001);
        assert_eq!(row_of("noth"), 0b010);
    }

    #[test]
    fn more_than_64_snippets_use_a_second_bitset_word() {
        let mut texts: Vec<String> = (0..70).map(|i| format!("filler{i}")).collect();
        texts[3].push_str(" lobster");
        texts[69].push_str(" lobster");
        let (concepts, rows) = count_content("q", &analyses(&texts), &cfg(0.0));
        let i = concepts.iter().position(|c| c.term == "lobster").unwrap();
        assert_eq!(concepts[i].snippet_freq, 2);
        assert_eq!(rows.row(i), [1 << 3, 1 << (69 - 64)]);
    }
}
