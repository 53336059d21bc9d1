//! Property tests for the search engine: retrieval correctness against a
//! brute-force oracle, persistence round-trips, and structured-query laws.

use proptest::prelude::*;
use pws_index::{IndexBuilder, SearchEngine, Segment, SegmentedIndex, StoredDoc};

/// A tiny controlled vocabulary so collisions (shared terms) are common.
fn word() -> impl Strategy<Value = &'static str> {
    prop::sample::select(vec![
        "seafood", "lobster", "sushi", "hotel", "booking", "android", "battery", "stadium",
        "coach", "clinic", "rental", "campus", "guitar", "sedan", "savings", "forecast",
    ])
}

fn body() -> impl Strategy<Value = String> {
    prop::collection::vec(word(), 3..25).prop_map(|ws| ws.join(" "))
}

fn corpus() -> impl Strategy<Value = Vec<String>> {
    prop::collection::vec(body(), 1..25)
}

fn build(bodies: &[String]) -> SearchEngine {
    let mut b = IndexBuilder::new();
    for (i, body) in bodies.iter().enumerate() {
        b.add(StoredDoc::new(i as u32, &format!("http://d{i}.test/"), "title", body));
    }
    b.build()
}

/// Each of `docs`' score under `query` alone, as the fused scan reports it:
/// extended by the title term every doc holds, with k past the corpus,
/// every doc is an extended hit and carries its base score (NaN marks a
/// doc missing from the extended list).
fn base_scores(idx: &SegmentedIndex, query: &str, docs: &[u32]) -> Vec<f64> {
    let every_doc = idx.terms().analyze("title");
    let query = idx.terms().analyze(query);
    let (_, extended) = idx.rank_tokens(&query, Some(&every_doc), idx.doc_count() as usize);
    let extended = extended.expect("an extension was given");
    docs.iter().map(|d| extended.iter().find(|e| e.0 == *d).map_or(f64::NAN, |e| e.2)).collect()
}

/// Brute-force: docs containing at least one query term.
fn oracle_matches(bodies: &[String], terms: &[&str]) -> std::collections::HashSet<u32> {
    bodies
        .iter()
        .enumerate()
        .filter(|(_, b)| {
            let toks: Vec<&str> = b.split(' ').collect();
            terms.iter().any(|t| toks.contains(t))
        })
        .map(|(i, _)| i as u32)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The engine returns exactly the docs containing ≥1 query term
    /// (no stemming surprises: the vocabulary is fixed and stem-stable
    /// modulo known transformations, so we compare through the engine's
    /// own analyzed view via document frequency).
    #[test]
    fn retrieval_matches_brute_force(bodies in corpus(), q1 in word(), q2 in word()) {
        let e = build(&bodies);
        let query = format!("{q1} {q2}");
        let hits = e.search(&query, bodies.len() + 5);
        let got: std::collections::HashSet<u32> = hits.iter().map(|h| h.doc).collect();

        // Build the oracle through the same stemmer by matching stems.
        let s1 = pws_text::porter_stem(q1);
        let s2 = pws_text::porter_stem(q2);
        let stemmed_bodies: Vec<String> = bodies
            .iter()
            .map(|b| {
                b.split(' ')
                    .map(pws_text::porter_stem)
                    .collect::<Vec<_>>()
                    .join(" ")
            })
            .collect();
        let want = oracle_matches(&stemmed_bodies, &[&s1, &s2]);
        prop_assert_eq!(got, want);
    }

    /// Scores are positive, finite, and descending; ranks are dense.
    #[test]
    fn hit_list_is_well_formed(bodies in corpus(), q in word()) {
        let e = build(&bodies);
        let hits = e.search(q, 10);
        for (i, h) in hits.iter().enumerate() {
            prop_assert_eq!(h.rank, i + 1);
            prop_assert!(h.score.is_finite() && h.score > 0.0);
        }
        for w in hits.windows(2) {
            prop_assert!(w[0].score >= w[1].score);
        }
    }

    /// Persistence: segment file bytes → `Segment::load_bytes` is the
    /// identity on behaviour, structured queries included.
    #[test]
    fn persistence_round_trip(bodies in corpus(), q in word(), q2 in word()) {
        let e = build(&bodies);
        let reloaded = e
            .segments()
            .iter()
            .map(|s| Segment::load_bytes(s.file_bytes().to_vec()))
            .collect::<Result<Vec<_>, _>>()
            .expect("reload");
        let e2 = SegmentedIndex::from_segments(reloaded).expect("assemble");
        prop_assert_eq!(e.search(q, 10), e2.search(q, 10));
        let phrase = format!("\"{q} {q2}\" OR {q}");
        prop_assert_eq!(e.search_expr(&phrase, 10), e2.search_expr(&phrase, 10));
    }

    /// Structured queries: `a AND b` ⊆ `a` ∩ `b`-matches; `a OR b` equals
    /// the union of singleton matches.
    #[test]
    fn boolean_query_set_laws(bodies in corpus(), a in word(), b in word()) {
        let e = build(&bodies);
        let k = bodies.len() + 5;
        let docs = |hits: Vec<pws_index::SearchHit>| -> std::collections::HashSet<u32> {
            hits.into_iter().map(|h| h.doc).collect()
        };
        let da = docs(e.search_expr(a, k).unwrap());
        let db = docs(e.search_expr(b, k).unwrap());
        let dand = docs(e.search_expr(&format!("{a} AND {b}"), k).unwrap());
        let dor = docs(e.search_expr(&format!("{a} OR {b}"), k).unwrap());
        let dnot = docs(e.search_expr(&format!("{a} AND NOT {b}"), k).unwrap());

        prop_assert_eq!(dand.clone(), da.intersection(&db).copied().collect());
        prop_assert_eq!(dor, da.union(&db).copied().collect());
        prop_assert_eq!(dnot, da.difference(&db).copied().collect());
    }

    /// A phrase query is always a subset of the AND of its terms.
    #[test]
    fn phrase_subset_of_and(bodies in corpus(), a in word(), b in word()) {
        let e = build(&bodies);
        let k = bodies.len() + 5;
        let phrase: std::collections::HashSet<u32> = e
            .search_expr(&format!("\"{a} {b}\""), k)
            .unwrap()
            .into_iter()
            .map(|h| h.doc)
            .collect();
        let conj: std::collections::HashSet<u32> = e
            .search_expr(&format!("{a} AND {b}"), k)
            .unwrap()
            .into_iter()
            .map(|h| h.doc)
            .collect();
        prop_assert!(phrase.is_subset(&conj), "{phrase:?} ⊄ {conj:?}");
        // Oracle: the phrase must appear verbatim in matched bodies (the
        // fixed vocabulary is stem-stable only per-word; compare stems).
        let sa = pws_text::porter_stem(a);
        let sb = pws_text::porter_stem(b);
        for &d in &phrase {
            let stemmed: Vec<String> =
                bodies[d as usize].split(' ').map(pws_text::porter_stem).collect();
            let adjacent = stemmed.windows(2).any(|w| w[0] == sa && w[1] == sb);
            prop_assert!(adjacent, "doc {d} lacks adjacent {sa} {sb}");
        }
    }

    /// The fused scan's base score agrees with search on every returned hit.
    #[test]
    fn fused_base_scores_consistent(bodies in corpus(), q in word()) {
        let e = build(&bodies);
        let hits = e.search(q, bodies.len() + 5);
        let ids: Vec<u32> = hits.iter().map(|h| h.doc).collect();
        let scores = base_scores(&e, q, &ids);
        for (h, s) in hits.iter().zip(&scores) {
            prop_assert!((h.score - s).abs() < 1e-9);
        }
    }
}
