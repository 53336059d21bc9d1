//! Differential test of the one-pass extractor against the reference.
//!
//! `QueryConceptOntology::extract` (analyse each snippet once, count in an
//! integer id space over incidence bitsets) must produce the *same value*
//! as `extract_reference` (the five-pass `String`-keyed composition it
//! replaced) for any input: same concepts in the same order, same edges,
//! same per-snippet lists, and the same bits in every `f64`.

use proptest::prelude::*;
use pws_concepts::{reference, ConceptConfig, LocationConceptConfig, QueryConceptOntology};
use pws_geo::{LocId, LocationMatcher, LocationOntology};

fn world() -> LocationOntology {
    let mut o = LocationOntology::new();
    let r = o.add(LocId::WORLD, "westland", vec![]);
    let c = o.add(r, "ardonia", vec!["ardonia republic".into()]);
    let s = o.add(c, "north vale", vec![]);
    o.add(s, "port alden", vec!["alden harbor".into()]);
    o.add(s, "vale", vec![]);
    let c2 = o.add(r, "köln", vec![]);
    o.add(c2, "café row", vec![]);
    o
}

/// Words chosen to hit every analyser branch: plain and inflected forms
/// that stem together, stopwords, upper case, digits, apostrophes in
/// every position, non-ASCII (whole snippet leaves the ASCII fast path),
/// over-long tokens, punctuation-only, and every place name of `world`.
fn word() -> impl Strategy<Value = &'static str> {
    prop::sample::select(vec![
        "seafood", "Seafood", "restaurant", "restaurants", "lobster", "roll", "rolls", "sushi",
        "menu", "the", "of", "and", "don't", "o'hare's", "'quoted'", "dogs'", "it's", "n73",
        "2009", "café", "Köln", "naïve", "İstanbul", "x", "--", "!!!", "",
        "pneumonoultramicroscopicsilicovolcanoconiosisxx", "port", "alden", "Port Alden",
        "north vale", "vale", "ardonia", "ardonia republic", "alden harbor", "westland",
        "köln", "café row", "hotel", "booking", "running", "runs",
    ])
}

fn snippet() -> impl Strategy<Value = String> {
    prop::collection::vec(word(), 0..14).prop_map(|ws| ws.join(" "))
}

/// A pool: a few distinct snippets, then `picks` indexes into them, so
/// duplicates (and with them exact support ties) are common. Up to 80
/// snippets, so the incidence rows need a second `u64`.
fn pool() -> impl Strategy<Value = Vec<String>> {
    (prop::collection::vec(snippet(), 1..10), prop::collection::vec(0usize..10, 0..80)).prop_map(
        |(distinct, picks)| picks.iter().map(|&i| distinct[i % distinct.len()].clone()).collect(),
    )
}

fn query() -> impl Strategy<Value = String> {
    prop::collection::vec(word(), 0..4).prop_map(|ws| ws.join(" "))
}

fn configs() -> impl Strategy<Value = (ConceptConfig, LocationConceptConfig)> {
    (
        prop::sample::select(vec![0.0, 0.05, 0.1, 0.25, 0.5, 1.0]),
        0u32..4,
        any::<bool>(),
        prop::sample::select(vec![0usize, 1, 2, 3, 5, 10, 50, usize::MAX]),
        prop::sample::select(vec![0.0, 0.05, 0.3]),
        prop::sample::select(vec![0.5, 0.3, 0.9, 1.0]),
        any::<bool>(),
    )
        .prop_map(|(min_support, min_snippet_freq, bigrams, max_concepts, loc_support, rollup_decay, rollup)| {
            (
                ConceptConfig { min_support, min_snippet_freq, bigrams, max_concepts },
                LocationConceptConfig { min_support: loc_support, rollup_decay, rollup },
            )
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn one_pass_equals_reference(q in query(), snippets in pool(), cfgs in configs()) {
        let world = world();
        let matcher = LocationMatcher::build(&world);
        let (content_cfg, location_cfg) = cfgs;
        let fast = QueryConceptOntology::extract(&q, &snippets, &matcher, &world, &content_cfg, &location_cfg);
        let slow = QueryConceptOntology::extract_reference(
            &q, &snippets, &matcher, &world, &content_cfg, &location_cfg,
        );
        prop_assert_eq!(reference::bits(&fast), reference::bits(&slow));
    }
}

fn both(
    q: &str,
    snippets: &[&str],
    content_cfg: &ConceptConfig,
    location_cfg: &LocationConceptConfig,
) -> QueryConceptOntology {
    let world = world();
    let matcher = LocationMatcher::build(&world);
    let snippets: Vec<String> = snippets.iter().map(|s| s.to_string()).collect();
    let fast =
        QueryConceptOntology::extract(q, &snippets, &matcher, &world, content_cfg, location_cfg);
    let slow = QueryConceptOntology::extract_reference(
        q, &snippets, &matcher, &world, content_cfg, location_cfg,
    );
    assert_eq!(reference::bits(&fast), reference::bits(&slow));
    fast
}

fn loose() -> (ConceptConfig, LocationConceptConfig) {
    (
        ConceptConfig { min_support: 0.0, min_snippet_freq: 1, bigrams: true, max_concepts: 1000 },
        LocationConceptConfig { min_support: 0.0, ..Default::default() },
    )
}

#[test]
fn no_snippets_and_only_empty_snippets() {
    let (cc, lc) = loose();
    assert!(both("seafood", &[], &cc, &lc).is_vacuous());
    let o = both("seafood", &["", "", "the of"], &cc, &lc);
    assert!(o.is_vacuous());
    assert_eq!(o.content_by_snippet, vec![Vec::<usize>::new(); 3]);
}

#[test]
fn a_bigram_of_query_terms_only_is_not_a_concept_but_a_mixed_one_is() {
    let (cc, lc) = loose();
    // "restaurants" stems to the query term; the repeated query word makes
    // the query's id space smaller than its token count.
    let o = both(
        "seafood restaurant seafood",
        &["seafood restaurants downtown", "fresh seafood restaurant", "restaurant seafood"],
        &cc,
        &lc,
    );
    let terms: Vec<&str> = o.content.iter().map(|c| c.term.as_str()).collect();
    assert!(!terms.contains(&"seafood restaur") && !terms.contains(&"restaur seafood"), "{terms:?}");
    assert!(terms.contains(&"fresh seafood") && terms.contains(&"restaur downtown"), "{terms:?}");
}

#[test]
fn ties_straddling_the_max_concepts_cut_break_lexicographically() {
    let (cc, lc) = loose();
    // Six candidates, all with support 1.0; the cut keeps the three
    // smallest terms whether they are unigrams or bigrams.
    let o = both(
        "q",
        &["beta alpha gamma", "beta alpha gamma"],
        &ConceptConfig { max_concepts: 3, ..cc },
        &lc,
    );
    let terms: Vec<&str> = o.content.iter().map(|c| c.term.as_str()).collect();
    assert_eq!(terms, ["alpha", "alpha gamma", "beta"]);
    assert_eq!(o.content_by_snippet, vec![vec![0, 1, 2]; 2]);
}

#[test]
fn min_snippet_freq_and_min_support_are_inclusive_edges() {
    let (cc, lc) = loose();
    let snippets = ["lobster one", "lobster two", "three", "four"];
    let at = ConceptConfig { min_snippet_freq: 2, min_support: 0.5, ..cc.clone() };
    assert!(both("q", &snippets, &at, &lc).content.iter().any(|c| c.term == "lobster"));
    let above_freq = ConceptConfig { min_snippet_freq: 3, ..cc.clone() };
    assert!(both("q", &snippets, &above_freq, &lc).content.is_empty());
    let above_support = ConceptConfig { min_support: 0.51, ..cc };
    assert!(both("q", &snippets, &above_support, &lc).content.is_empty());
}

#[test]
fn location_mass_accumulates_in_snippet_order_with_and_without_rollup() {
    let (cc, lc) = loose();
    let snippets = [
        "port alden and vale news from ardonia",
        "alden harbor ferry",
        "Köln café row",
        "vale vale vale",
        "westland weather",
    ];
    for rollup in [true, false] {
        for rollup_decay in [0.5, 0.3, 0.1] {
            let lc = LocationConceptConfig { rollup, rollup_decay, ..lc.clone() };
            let o = both("news", &snippets, &cc, &lc);
            assert_eq!(o.locations_by_snippet.len(), snippets.len());
        }
    }
}

/// Sixty candidates in every snippet: all tie on snippet frequency, so
/// which fifty survive `max_concepts` — and in what order — is decided by
/// name order alone, unigrams and bigrams interleaved.
#[test]
fn a_cut_through_more_than_fifty_tied_candidates_is_decided_by_name_order() {
    let (_, lc) = loose();
    let words: Vec<String> = (0..30).map(|i| format!("w{}x", (i * 7) % 30)).collect();
    let snippet = words.join(" ");
    let cc = ConceptConfig { min_support: 0.0, min_snippet_freq: 1, bigrams: true, max_concepts: 50 };
    let o = both("q", &[&snippet, &snippet, &snippet], &cc, &lc);
    assert_eq!(o.content.len(), 50);
    assert!(o.content.iter().all(|c| c.snippet_freq == 3));
    let mut names: Vec<String> = words.clone();
    names.extend(words.windows(2).map(|w| format!("{} {}", w[0], w[1])));
    names.sort();
    let got: Vec<&str> = o.content.iter().map(|c| c.term.as_str()).collect();
    assert_eq!(got, names[..50].iter().map(String::as_str).collect::<Vec<_>>());
    assert!(got.iter().any(|t| t.contains(' ')) && got.iter().any(|t| !t.contains(' ')));
}

/// The space inside a bigram's name sorts before every term byte: "new"
/// < "new york" < "newa", though "new" is a prefix of all three and the
/// names are compared from two dictionary slices, never concatenated.
#[test]
fn a_bigram_sorts_between_its_first_term_and_that_terms_extensions() {
    let (cc, lc) = loose();
    let o = both("q", &["newa new york", "newa new york"], &cc, &lc);
    let terms: Vec<&str> = o.content.iter().map(|c| c.term.as_str()).collect();
    assert_eq!(terms, ["new", "new york", "newa", "newa new", "york"]);
    // The same with the cut falling inside the run of shared prefixes.
    for (max_concepts, kept) in [(1, &terms[..1]), (2, &terms[..2]), (3, &terms[..3])] {
        let o = both("q", &["newa new york", "newa new york"], &ConceptConfig { max_concepts, ..cc.clone() }, &lc);
        assert_eq!(o.content.iter().map(|c| c.term.as_str()).collect::<Vec<_>>(), kept);
    }
}

/// Query terms are looked up in the dictionary, not added to it: a term no
/// snippet contains has no id and excludes nothing; one that some snippet
/// contains still does.
#[test]
fn query_terms_no_snippet_contains_change_nothing() {
    let (cc, lc) = loose();
    let snippets = ["seafood lobster rolls", "lobster seafood platter"];
    let plain = both("seafood", &snippets, &cc, &lc);
    let padded = both("seafood zeppelins unheard", &snippets, &cc, &lc);
    assert_eq!(plain.content, padded.content);
    assert!(plain.content.iter().all(|c| c.term != "seafood"));
    let unknown_only = both("zeppelins", &snippets, &cc, &lc);
    assert!(unknown_only.content.iter().any(|c| c.term == "seafood"));
    assert!(unknown_only.content.iter().any(|c| c.term == "seafood lobster"));
}

/// A query of stopwords analyses to no terms at all: nothing is excluded,
/// not even a bigram (there is no "bigram of only query terms").
#[test]
fn a_query_of_stopwords_excludes_nothing() {
    let (cc, lc) = loose();
    let snippets = ["the seafood and the lobster", "seafood of lobster"];
    let o = both("the of and", &snippets, &cc, &lc);
    let empty = both("", &snippets, &cc, &lc);
    assert_eq!(o.content, empty.content);
    let terms: Vec<&str> = o.content.iter().map(|c| c.term.as_str()).collect();
    assert_eq!(terms, ["lobster", "seafood", "seafood lobster"]);
}
