//! Property tests gating the one top-k executor.
//!
//! `SegmentedIndex::search` (Block-Max WAND over block-compressed
//! postings, bounded top-k heap) must return *exactly* what the exhaustive
//! reference scorer `SegmentedIndex::search_exhaustive` returns on any
//! corpus and query: same docs, same order, same ranks, bitwise-equal
//! scores. This includes score ties (broken by ascending doc id)
//! interacting with the heap bound `k` — and it must hold for every way of
//! splitting the corpus into segments, from the single in-RAM segment
//! `IndexBuilder` builds to one segment per handful of docs, all of which
//! must also agree with each other.

use proptest::prelude::*;
use pws_index::{IndexBuilder, SearchEngine, SegmentBuilder, SegmentedIndex, StoredDoc};
use std::collections::HashMap;

/// Non-stopword vocabulary; stems are distinct so analysis keeps them apart.
const VOCAB: &[&str] = &[
    "lobster", "seafood", "harbor", "android", "battery", "camera", "hotel",
    "booking", "oyster", "sushi", "guide", "menu", "special", "fresh",
    "downtown", "airport", "museum", "garden", "bridge", "festival",
    "market", "station", "library", "castle", "river",
];

/// Tiny vocabulary: with few distinct words and short docs, duplicate
/// documents — and therefore exact BM25 score ties — are common.
const TIE_VOCAB: &[&str] = &["lobster", "seafood", "harbor", "android"];

/// The corpus as `IndexBuilder` indexes it: one segment, built in RAM.
fn build(doc_words: &[Vec<&str>]) -> SearchEngine {
    let mut b = IndexBuilder::new();
    for (i, words) in doc_words.iter().enumerate() {
        let body = words.join(" ");
        b.add(StoredDoc::new(i as u32, &format!("http://t.test/{i}"), "doc", &body));
    }
    b.build()
}

/// Each of `docs`' score under `query` alone, as the fused scan reports it:
/// extended by the title term every doc holds, with k past the corpus,
/// every doc is an extended hit and carries its base score (NaN marks a
/// doc missing from the extended list).
fn base_scores(idx: &SegmentedIndex, query: &str, docs: &[u32]) -> Vec<f64> {
    let every_doc = idx.terms().analyze("doc");
    let query = idx.terms().analyze(query);
    let (_, extended) = idx.rank_tokens(&query, Some(&every_doc), idx.doc_count() as usize);
    let extended = extended.expect("an extension was given");
    docs.iter().map(|d| extended.iter().find(|e| e.0 == *d).map_or(f64::NAN, |e| e.2)).collect()
}

/// The same docs split into `num_segments` contiguous chunks.
fn build_segmented(doc_words: &[Vec<&str>], num_segments: usize) -> SegmentedIndex {
    let per = doc_words.len().div_ceil(num_segments.max(1)).max(1);
    let mut built = Vec::new();
    let mut next_id = 0usize;
    for chunk in doc_words.chunks(per) {
        let mut b = SegmentBuilder::new(Default::default());
        for words in chunk {
            b.add(&format!("http://t.test/{next_id}"), "doc", &words.join(" "));
            next_id += 1;
        }
        built.push(b.finish_segment().expect("segment build"));
    }
    SegmentedIndex::from_segments(built).expect("segmented index")
}

/// BMW on `idx` == exhaustive on `reference`, field by field, bit by bit.
fn assert_bmw_matches_exhaustive(
    reference: &SegmentedIndex,
    idx: &SegmentedIndex,
    query: &str,
    k: usize,
) -> Result<(), TestCaseError> {
    let bmw = idx.search(query, k);
    let full = reference.search_exhaustive(query, k);
    prop_assert_eq!(bmw.len(), full.len(), "length mismatch for {:?} k={}", query, k);
    for (b, n) in bmw.iter().zip(&full) {
        prop_assert_eq!(b.doc, n.doc, "doc order mismatch for {:?} k={}", query, k);
        prop_assert_eq!(
            b.score.to_bits(),
            n.score.to_bits(),
            "score not bitwise equal for {:?} k={} doc={}",
            query,
            k,
            b.doc
        );
        prop_assert_eq!(b.rank, n.rank);
        prop_assert_eq!(&b.url, &n.url);
        prop_assert_eq!(&b.title, &n.title);
        prop_assert_eq!(&b.snippet, &n.snippet);
    }
    Ok(())
}

fn vocab_strategy(
    vocab: &'static [&'static str],
    max_doc_words: usize,
    max_docs: usize,
) -> impl Strategy<Value = Vec<Vec<&'static str>>> {
    proptest::collection::vec(
        proptest::collection::vec(proptest::sample::select(vocab.to_vec()), 1..max_doc_words),
        1..max_docs,
    )
}

proptest! {
    #[test]
    fn block_max_wand_equals_exhaustive_topk(
        doc_words in vocab_strategy(VOCAB, 30, 60),
        query_words in proptest::collection::vec(proptest::sample::select(VOCAB.to_vec()), 1..6),
        k in 1usize..20,
        num_segments in proptest::sample::select(vec![1usize, 2, 3, 4, 16]),
    ) {
        // One reference (the in-RAM single segment's exhaustive scorer)
        // for both the in-RAM engine and every segmentation.
        let e = build(&doc_words);
        let seg = build_segmented(&doc_words, num_segments);
        let query = query_words.join(" ");
        // Also at k = 1 and an effectively unbounded k (no pruning).
        for k in [k, 1, doc_words.len() + 5] {
            assert_bmw_matches_exhaustive(&e, &e, &query, k)?;
            assert_bmw_matches_exhaustive(&e, &seg, &query, k)?;
            assert_bmw_matches_exhaustive(&seg, &seg, &query, k)?;
        }
    }

    #[test]
    fn block_max_wand_handles_ties_on_score(
        doc_words in vocab_strategy(TIE_VOCAB, 4, 48),
        query_words in proptest::collection::vec(proptest::sample::select(TIE_VOCAB.to_vec()), 1..4),
        k in 1usize..8,
        num_segments in proptest::sample::select(vec![1usize, 2, 3, 16]),
    ) {
        // Duplicate docs → exact BM25 ties; θ-pruning (`bound ≤ θ` skips)
        // must keep the ascending-doc-id prefix of each tied group exactly
        // like the exhaustive sort, across segment boundaries.
        let e = build(&doc_words);
        let seg = build_segmented(&doc_words, num_segments);
        let query = query_words.join(" ");
        assert_bmw_matches_exhaustive(&e, &e, &query, k)?;
        assert_bmw_matches_exhaustive(&e, &seg, &query, k)?;
    }

    #[test]
    fn duplicate_query_terms_and_unknowns_match(
        doc_words in vocab_strategy(VOCAB, 20, 30),
        base in proptest::sample::select(VOCAB.to_vec()),
        extra in proptest::sample::select(VOCAB.to_vec()),
        k in 1usize..12,
        num_segments in 1usize..4,
    ) {
        let e = build(&doc_words);
        let seg = build_segmented(&doc_words, num_segments);
        // Duplicated terms (each occurrence contributes) and an unindexed
        // term (must be ignored identically by both paths).
        let query = format!("{base} {extra} {base} zzzunknownzzz {base}");
        assert_bmw_matches_exhaustive(&e, &e, &query, k)?;
        assert_bmw_matches_exhaustive(&e, &seg, &query, k)?;
    }

    #[test]
    fn fused_base_scores_match_exhaustive_accumulation(
        doc_words in vocab_strategy(VOCAB, 20, 30),
        query_words in proptest::collection::vec(proptest::sample::select(VOCAB.to_vec()), 1..5),
        k in 1usize..12,
        num_segments in 1usize..4,
    ) {
        let e = build(&doc_words);
        let query = query_words.join(" ");
        // Reference: per-doc scores from the exhaustive scorer's full result.
        let all = e.search_exhaustive(&query, doc_words.len() + 5);
        let by_doc: HashMap<u32, f64> = all.iter().map(|h| (h.doc, h.score)).collect();
        let asked: Vec<u32> = (0..doc_words.len() as u32).rev().take(k).collect();
        // Candidate: each asked doc's base score from the fused scan.
        for idx in [&e, &build_segmented(&doc_words, num_segments)] {
            let scores = base_scores(idx, &query, &asked);
            for (d, s) in asked.iter().zip(&scores) {
                let expect = by_doc.get(d).copied().unwrap_or(0.0);
                prop_assert_eq!(
                    s.to_bits(),
                    expect.to_bits(),
                    "base score mismatch for doc {} on {:?}", d, &query
                );
            }
        }
    }
}
