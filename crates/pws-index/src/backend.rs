//! The retrieval abstraction the personalization layer builds on.
//!
//! [`RetrievalBackend`] is the exact surface `pws-core`'s `EngineCore`
//! consumes from base retrieval: analyze text the way the index does,
//! rank a top-k list without cutting a snippet, cut the snippets of the
//! hits a request actually uses (each with the form ids it was joined
//! from, and the per-segment form tables those ids index), and re-score
//! specific documents against a query. `search` / `search_tokens` (rank + cut every hit) stay for
//! the callers that want whole result lists. [`crate::segmented::SegmentedIndex`]
//! (of which [`crate::SearchEngine`] is an alias, the one-segment-in-RAM
//! case) is its only implementor: the index an engine serves is fixed
//! for the engine's lifetime.
//!
//! The trait stays because the end-to-end benchmark package (`bench/`)
//! builds every engine through `&dyn RetrievalBackend`; retiring it, so
//! that `EngineCore` holds the concrete index, starts with a change to
//! that benchmark package.

use crate::search::{CutHit, SearchHit};
use crate::segmented::SegmentedIndex;

/// Base-retrieval operations required by the personalization layer.
///
/// Contract (what the equivalence suites assert): results are ranked by
/// BM25 descending with ties broken by ascending doc id;
/// `search_tokens(analyze_text(q), k)` equals `search(q, k)`, and equals
/// the hits of `cut_hits(t, &rank_tokens(t, k), &[0, 1, ..])` for
/// `t = analyze_text(q)`; a cut hit's snippet is its form ids' entries of
/// `segment_forms()[segment]` joined by `' '`;
/// `score_docs` returns exactly 0.0 for docs matching no query term and
/// credits only the last occurrence of a duplicated doc id.
pub trait RetrievalBackend: Send + Sync {
    /// Run the index's analyzer over arbitrary text.
    fn analyze_text(&self, text: &str) -> Vec<String>;

    /// Top-k query over raw query text.
    fn search(&self, query: &str, k: usize) -> Vec<SearchHit>;

    /// Top-k query over pre-analyzed tokens: rank, then cut every hit.
    fn search_tokens(&self, q_tokens: &[String], k: usize) -> Vec<SearchHit>;

    /// The ranked `(doc, BM25)` top-k of pre-analyzed tokens, with no
    /// snippet cut.
    fn rank_tokens(&self, q_tokens: &[String], k: usize) -> Vec<(u32, f64)>;

    /// The hits at positions `which` of `ranked` (a `rank_tokens` list for
    /// `q_tokens`), each with its list rank, score and query-biased
    /// snippet and the snippet's form ids, in `which` order.
    fn cut_hits(&self, q_tokens: &[String], ranked: &[(u32, f64)], which: &[usize])
        -> Vec<CutHit>;

    /// Each segment's forms (distinct body tokens), in segment order: the
    /// tables a [`CutHit`]'s form ids index.
    fn segment_forms(&self) -> Vec<&[String]>;

    /// BM25 scores of the analyzed query `q_tokens` for specific doc ids
    /// (0.0 for docs matching no query term).
    fn score_docs(&self, q_tokens: &[String], docs: &[u32]) -> Vec<f64>;
}

impl RetrievalBackend for SegmentedIndex {
    fn analyze_text(&self, text: &str) -> Vec<String> {
        SegmentedIndex::analyze_text(self, text)
    }

    fn search(&self, query: &str, k: usize) -> Vec<SearchHit> {
        SegmentedIndex::search(self, query, k)
    }

    fn search_tokens(&self, q_tokens: &[String], k: usize) -> Vec<SearchHit> {
        SegmentedIndex::search_tokens(self, q_tokens, k)
    }

    fn rank_tokens(&self, q_tokens: &[String], k: usize) -> Vec<(u32, f64)> {
        SegmentedIndex::rank_tokens(self, q_tokens, k)
    }

    fn cut_hits(&self, q_tokens: &[String], ranked: &[(u32, f64)], which: &[usize])
        -> Vec<CutHit> {
        SegmentedIndex::cut_hits(self, q_tokens, ranked, which)
    }

    fn segment_forms(&self) -> Vec<&[String]> {
        SegmentedIndex::segment_forms(self)
    }

    fn score_docs(&self, q_tokens: &[String], docs: &[u32]) -> Vec<f64> {
        SegmentedIndex::score_docs(self, q_tokens, docs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::IndexBuilder;
    use crate::search::StoredDoc;

    #[test]
    fn engine_usable_as_dyn_backend() {
        let mut b = IndexBuilder::new();
        b.add(StoredDoc::new(0, "u0", "Crab shack", "fresh seafood lobster daily"));
        let eng = b.build();
        let backend: &dyn RetrievalBackend = &eng;
        let hits = backend.search("seafood", 10);
        assert_eq!(hits.len(), 1);
        let tokens = backend.analyze_text("seafood");
        assert_eq!(hits, backend.search_tokens(&tokens, 10));
        assert!(backend.score_docs(&tokens, &[0])[0] > 0.0);
    }
}
