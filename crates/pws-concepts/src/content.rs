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
//! Counting runs over [`SnippetAnalysis`] values, whose terms are ids in
//! one [`TermDict`]: a unigram candidate is an id, a
//! bigram a pair of them, both keys of one open-addressed table in the
//! thread's `CountScratch`. Each candidate fills one snippet-incidence
//! bitset row as it goes, so snippet frequency is a popcount and the
//! relationship graph and the per-snippet concept lists are read off the
//! same rows without touching a snippet again. The pass interns nothing and
//! reads term text only to order candidates that tie on frequency — in
//! place, from the dictionary — and to name the concepts it returns. Ids
//! are only ever compared for equality: which id a term got depends on
//! the order its dictionary met terms in, and no byte of output may.

use crate::dict::TermDict;
use crate::scratch::CountScratch;
use crate::snippet::SnippetAnalysis;
use pws_text::Sym;
use serde::{Deserialize, Serialize};
use std::borrow::Borrow;
use std::cmp::Ordering;

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

/// Table key of the unigram candidate `a`. A bigram's low half is its
/// second id plus one, so no bigram has this shape.
fn unigram(a: Sym) -> u64 {
    u64::from(a.0) << 32
}

/// Table key of the bigram candidate `a b` (an id is below `u32::MAX`, so
/// the low half does not carry).
fn bigram(a: Sym, b: Sym) -> u64 {
    u64::from(a.0) << 32 | (u64::from(b.0) + 1)
}

/// The terms a candidate key stands for.
fn terms_of(key: u64) -> (Sym, Option<Sym>) {
    let b = key as u32;
    (Sym((key >> 32) as u32), (b != 0).then(|| Sym(b - 1)))
}

/// The bytes of a candidate's name — `a`, or `a b` — read in place.
fn name_bytes<'t>(key: u64, known: &'t TermDict<'_>) -> impl Iterator<Item = u8> + 't {
    let (a, b) = terms_of(key);
    let rest = b.into_iter().flat_map(|b| std::iter::once(b' ').chain(known.resolve(b).bytes()));
    known.resolve(a).bytes().chain(rest)
}

/// The name of a concept that made the cut: the one place the pass builds
/// a `String`.
fn concept_name(key: u64, known: &TermDict<'_>) -> String {
    match terms_of(key) {
        (a, None) => known.resolve(a).to_string(),
        (a, Some(b)) => [known.resolve(a), known.resolve(b)].join(" "),
    }
}

/// Count content concepts of the query with term ids `query` over the
/// analysed snippets (analyses against the dictionary `known`, which
/// `query`'s ids are also of; see [`crate::snippet::query_terms`]).
///
/// Returns the concepts sorted by descending support, ties broken
/// lexicographically (deterministic), and leaves their snippet-incidence
/// rows in `scratch.chosen` in the same order (row `i`, bit `s` ⇔ concept
/// `i` occurs in snippet `s`).
pub(crate) fn count_content<S: Borrow<SnippetAnalysis>>(
    query: &[Sym],
    analyses: &[S],
    cfg: &ConceptConfig,
    known: &TermDict<'_>,
    scratch: &mut CountScratch,
) -> Vec<ContentConcept> {
    let CountScratch { rows, keys, seen, ranked, chosen } = scratch;
    // Candidates in order of first sight: `keys[c]` is candidate `c`, `seen`
    // row `c` the snippets it occurs in. A candidate counts once per snippet
    // because setting a bit twice changes nothing. A pool has at most one
    // unigram and one bigram per term position.
    let positions: usize = analyses.iter().map(|a| a.borrow().len()).sum();
    rows.reset(2 * positions);
    keys.clear();
    seen.reset(analyses.len());
    for (si, analysis) in analyses.iter().enumerate() {
        let mut before: Option<(Sym, bool)> = None;
        for &term in analysis.borrow().terms(known) {
            let in_query = query.contains(&term);
            let mut mark = |key: u64| {
                let c = rows.row_or_insert_with(key, || {
                    keys.push(key);
                    seen.push_empty_row() as u32
                });
                seen.set(c as usize, si);
            };
            if !in_query {
                mark(unigram(term));
            }
            // A bigram containing a query term on either side is still
            // informative ("seafood restaurant" for query "restaurant"),
            // but a bigram of *only* query terms is not.
            if let Some((first, _)) = before.filter(|&(_, q)| cfg.bigrams && !(q && in_query)) {
                mark(bigram(first, term));
            }
            before = Some((term, in_query));
        }
    }

    // Threshold, then order what is left by (snippet frequency desc, name
    // asc). Support is frequency over a fixed n, so frequency orders it;
    // names differ between candidates, so the order is total and the same
    // whatever ids the terms got.
    let n = analyses.len() as f64;
    ranked.clear();
    for c in 0..keys.len() {
        let snippet_freq = seen.count(c);
        if snippet_freq >= cfg.min_snippet_freq && f64::from(snippet_freq) / n >= cfg.min_support {
            ranked.push((snippet_freq, c as u32));
        }
    }
    let by_rank = |x: &(u32, u32), y: &(u32, u32)| -> Ordering {
        y.0.cmp(&x.0).then_with(|| {
            name_bytes(keys[x.1 as usize], known).cmp(name_bytes(keys[y.1 as usize], known))
        })
    };
    // Only the concepts returned need their exact places.
    if cfg.max_concepts < ranked.len() {
        if cfg.max_concepts > 0 {
            ranked.select_nth_unstable_by(cfg.max_concepts - 1, by_rank);
        }
        ranked.truncate(cfg.max_concepts);
    }
    ranked.sort_unstable_by(by_rank);

    chosen.reset(analyses.len());
    ranked
        .iter()
        .map(|&(snippet_freq, c)| {
            chosen.push_row(seen.row(c as usize));
            ContentConcept {
                term: concept_name(keys[c as usize], known),
                snippet_freq,
                support: f64::from(snippet_freq) / n,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Incidence;
    use pws_geo::{LocationMatcher, LocationOntology};

    /// The content half of the pass over raw snippet text, against a
    /// dictionary of its own: the concepts and their incidence rows.
    fn count(query_text: &str, snippets: &[String], cfg: &ConceptConfig) -> (Vec<ContentConcept>, Incidence) {
        let matcher = LocationMatcher::build(&LocationOntology::new());
        let mut dict = TermDict::new();
        let analyses: Vec<SnippetAnalysis> =
            snippets.iter().map(|s| SnippetAnalysis::new(s, &matcher, &mut dict)).collect();
        crate::scratch::with(|scratch| {
            let query = crate::snippet::query_terms(query_text, &dict);
            let concepts = count_content(&query, &analyses, cfg, &dict, scratch);
            (concepts, scratch.chosen.clone())
        })
    }

    fn extract_content(query_text: &str, snippets: &[String], cfg: &ConceptConfig) -> Vec<ContentConcept> {
        count(query_text, snippets, cfg).0
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
        let (concepts, rows) = count("q", &s, &cfg(0.0));
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
        let (concepts, rows) = count("q", &texts, &cfg(0.0));
        let i = concepts.iter().position(|c| c.term == "lobster").unwrap();
        assert_eq!(concepts[i].snippet_freq, 2);
        assert_eq!(rows.row(i), [1 << 3, 1 << (69 - 64)]);
    }
}
