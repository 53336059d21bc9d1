//! One scan for a query and its city-augmented extension
//! (`SegmentedIndex::rank_tokens(query, Some(city), k)`) against two
//! separate rankings: the query's list must equal ranking the query alone,
//! and the extended list ranking `query ++ city` alone — the same docs in
//! the same order (`==`) and the same scores, bit for bit. Every extended
//! hit's base score must be the exhaustive reference's score for that doc
//! under the query alone (`search_exhaustive(query, doc_count)`), bit for
//! bit, or `0.0` when the query does not match it. Covered: every
//! query template of the paper-scale world against every city of that
//! world, 200 templates × 8 cities of a 20 000-doc, 8-segment large-shaped
//! world, and hand-built edge cases (a city token the query holds, a city
//! the index never saw, duplicate query tokens, k = 0 and k past the
//! matches).
//!
//! The engine builds the augmented ids as the query's ids followed by the
//! city name's instead of analysing "query city"; both worlds pin that
//! identity for every template and city. And concept counting takes the
//! retrieval's query ids in place of analysing the query text again: both
//! worlds pin that the two give the same ids.

use pws_concepts::{query_terms, TermDict};
use pws_corpus::{CorpusGen, CorpusSpec, QueryGen, QuerySpec};
use pws_eval::{ExperimentSpec, ExperimentWorld};
use pws_geo::{LocationOntology, WorldGen, WorldSpec};
use pws_index::{IndexBuilder, SegmentedIndex, StoredDoc, Sym};
use std::collections::HashMap;
use std::sync::OnceLock;

const K: usize = 30;

/// The paper-scale world.
fn paper() -> &'static ExperimentWorld {
    static WORLD: OnceLock<ExperimentWorld> = OnceLock::new();
    WORLD.get_or_init(|| ExperimentWorld::build(ExperimentSpec::default_paper()))
}

/// The large workload's world at 20 000 docs in 8 segments (its smoke
/// size), with its query templates.
fn large() -> &'static (LocationOntology, SegmentedIndex, Vec<String>) {
    static WORLD: OnceLock<(LocationOntology, SegmentedIndex, Vec<String>)> = OnceLock::new();
    WORLD.get_or_init(|| {
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
            .generate(&QuerySpec { num_queries: 200, ..QuerySpec::default_workload() })
            .into_iter()
            .map(|q| q.text)
            .collect();
        (world, index, queries)
    })
}

/// `a == b` on docs, and on score bits.
fn assert_same_list(a: &[(u32, f64)], b: &[(u32, f64)], ctx: &str) {
    assert_eq!(a.len(), b.len(), "{ctx}: length");
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.0, y.0, "{ctx}: doc order");
        assert_eq!(x.1.to_bits(), y.1.to_bits(), "{ctx}: score bits of doc {}", x.0);
    }
}

/// Every doc `query` matches, with the exhaustive reference's score.
fn reference_scores(index: &SegmentedIndex, query: &str) -> HashMap<u32, f64> {
    let matched = index.search_exhaustive(query, index.doc_count() as usize);
    matched.into_iter().map(|h| (h.doc, h.score)).collect()
}

/// The fused call for `query` extended by `extension` against ranking
/// each alone, and each extended hit's base score against `reference`
/// (the query's [`reference_scores`]); returns the extended list's length.
fn assert_fused_equals_separate(
    index: &SegmentedIndex,
    (query, reference): (&[Sym], &HashMap<u32, f64>),
    extension: &[Sym],
    k: usize,
    ctx: &str,
) -> usize {
    let (ranked, extended) = index.rank_tokens(query, Some(extension), k);
    let extended = extended.expect("an extension was given");
    let aug: Vec<Sym> = query.iter().chain(extension).copied().collect();
    let alone = |q: &[Sym]| index.rank_tokens(q, None, k).0;
    assert_same_list(&ranked, &alone(query), &format!("{ctx}: query list"));
    let pairs: Vec<(u32, f64)> = extended.iter().map(|&(doc, score, _)| (doc, score)).collect();
    assert_same_list(&pairs, &alone(&aug), &format!("{ctx}: extended list"));
    for &(doc, _, base) in &extended {
        let want = reference.get(&doc).copied().unwrap_or(0.0);
        assert_eq!(base.to_bits(), want.to_bits(), "{ctx}: base score bits of doc {doc}");
    }
    extended.len()
}

/// The fused check for `query` against `city`, after pinning that the
/// city's ids appended to the query's are the analysis of "query city".
fn check_template(
    index: &SegmentedIndex,
    query: &str,
    reference: &HashMap<u32, f64>,
    city: &str,
) -> usize {
    let terms = index.terms();
    let (ids, city_ids) = (terms.analyze(query), terms.analyze(city));
    let joined: Vec<Sym> = ids.iter().chain(&city_ids).copied().collect();
    assert_eq!(joined, terms.analyze(&format!("{query} {city}")), "{query:?} + {city:?}");
    let ctx = format!("{query:?} + {city:?}");
    assert_fused_equals_separate(index, (&ids, reference), &city_ids, K, &ctx)
}

#[test]
fn fused_ranking_equals_separate_on_every_paper_template_and_city() {
    let w = paper();
    assert_eq!(w.queries.len(), 120);
    let cities: Vec<&str> = w.world.cities().map(|c| w.world.name(c)).collect();
    assert_eq!(cities.len(), 144);
    let mut ranked = 0;
    for q in &w.queries {
        let reference = reference_scores(&w.engine, &q.text);
        for city in &cities {
            ranked += check_template(&w.engine, &q.text, &reference, city);
        }
    }
    assert!(ranked > 100_000, "the extended lists should not be empty: {ranked}");
}

#[test]
fn fused_ranking_equals_separate_on_a_large_world_sample() {
    let (world, index, queries) = large();
    let cities: Vec<&str> = world.cities().map(|c| world.name(c)).collect();
    let mut ranked = 0;
    for (i, q) in queries.iter().enumerate() {
        let reference = reference_scores(index, q);
        for j in 0..8 {
            ranked += check_template(index, q, &reference, cities[(i * 8 + j) % cities.len()]);
        }
    }
    assert!(ranked > 10_000, "the extended lists should not be empty: {ranked}");
}

#[test]
fn fused_ranking_equals_separate_on_hand_built_edge_cases() {
    const DOCS: &[(&str, &str)] = &[
        ("Crab shack York", "fresh seafood lobster and crab daily in york"),
        ("Phone deals", "unlocked android smartphone with great battery"),
        ("Seafood guide", "the seafood guide covers lobster rolls and sushi in boston"),
        ("York hotel", "oceanview suite booking with a seafood restaurant in york"),
        ("Harbor festival", "the annual harbor festival has lobster stands"),
        ("Boston harbor", "seafood seafood seafood on the boston harbor"),
    ];
    let mut b = IndexBuilder::new();
    for (i, (t, body)) in DOCS.iter().enumerate() {
        b.add(StoredDoc::new(i as u32, &format!("http://t.test/{i}"), t, body));
    }
    let one = b.build();
    let split = SegmentedIndex::build_parallel(Default::default(), DOCS.len(), 2, 2, |i| {
        (format!("http://t.test/{i}"), DOCS[i].0.to_string(), DOCS[i].1.to_string())
    })
    .expect("build");
    assert_eq!(split.num_segments(), 3);
    for index in [&one, &split] {
        let ids = |text: &str| index.terms().analyze(text);
        let cases: &[(&str, &str, usize)] = &[
            // The city's token is also the query's.
            ("seafood york", "york", K),
            // A city no document names: the extension is empty.
            ("seafood lobster", "atlantis", K),
            // Duplicate query tokens, and a duplicated extension.
            ("seafood seafood lobster", "boston boston", K),
            // A query no document matches, extended by one that does.
            ("zeppelin", "boston", K),
            // k = 0, and k past every match.
            ("seafood lobster", "york", 0),
            ("seafood lobster", "york", 1_000),
            ("harbor", "york boston", 2),
        ];
        for &(query, city, k) in cases {
            let ctx = format!("{query:?} + {city:?} k={k} segments={}", index.num_segments());
            let (query, reference) = (ids(query), reference_scores(index, query));
            let n = assert_fused_equals_separate(index, (&query, &reference), &ids(city), k, &ctx);
            assert!(n <= k, "{ctx}");
        }
        assert!(ids("atlantis").is_empty() && ids("zeppelin").is_empty());
        let (ranked, extended) = index.rank_tokens(&ids("seafood"), Some(&ids("york")), 0);
        assert!(ranked.is_empty() && extended == Some(Vec::new()));
        let (ranked, extended) = index.rank_tokens(&ids("seafood"), Some(&[]), 1_000);
        assert_eq!(ranked.len(), 4, "every seafood doc, with k past the matches");
        let extended = extended.expect("an extension was given");
        assert!(extended.iter().all(|&(_, s, base)| s.to_bits() == base.to_bits()));
        let extended: Vec<(u32, f64)> = extended.into_iter().map(|(d, s, _)| (d, s)).collect();
        assert_eq!(Some(&extended[..]), Some(&ranked[..]), "an empty extension ranks the query");
        assert_eq!(index.rank_tokens(&ids("seafood"), None, K).1, None);
    }
}

#[test]
fn retrieval_query_ids_equal_the_concept_analysis_on_both_worlds() {
    let w = paper();
    let (_, index, queries) = large();
    let worlds: [(&SegmentedIndex, Vec<&str>); 2] = [
        (&w.engine, w.queries.iter().map(|q| q.text.as_str()).collect()),
        (index, queries.iter().map(String::as_str).collect()),
    ];
    for (index, templates) in worlds {
        // The dictionary an engine counts concepts against: the index's
        // term table, borrowed.
        let dict = TermDict::of(index.terms().interner());
        let mut held = 0;
        for q in templates {
            let ids = index.terms().analyze(q);
            assert_eq!(ids, query_terms(q, &dict), "{q:?}");
            held += ids.len();
        }
        assert!(held > 0);
    }
}
