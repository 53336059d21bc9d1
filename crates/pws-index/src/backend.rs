//! The retrieval abstraction the personalization layer builds on.
//!
//! [`RetrievalBackend`] is the surface `pws-core`'s `EngineCore` consumes
//! from base retrieval: the index's term table (a query is analysed to its
//! ids once), ranking without snippets — a query and its extension in one
//! scan, each extended hit with its score under the query alone — and
//! cutting the snippets of the hits a request uses, all over those ids.
//! [`crate::segmented::SegmentedIndex`] is its only implementor. The string
//! methods (`analyze_text`, `search`, `search_tokens`) remain only for the
//! end-to-end benchmark package (`bench/`), which also builds every engine
//! through `&dyn RetrievalBackend`; retiring the trait starts there.

use crate::search::{CutHit, SearchHit};
use crate::segmented::SegmentedIndex;
use crate::terms::TermTable;
use pws_text::Sym;

/// Base-retrieval operations required by the personalization layer.
///
/// Contract (what the equivalence suites assert): results are ranked by
/// BM25 descending with ties broken by ascending doc id; for the analysed
/// query `t = analyze_text(q)` and its ids `ids = segment_forms().0.ids(&t)`,
/// `search_tokens(&t, k)` equals `search(q, k)`, and equals the hits of
/// `cut_hits(&ids, &rank_tokens(&ids, None, k).0, &[0, 1, ..])`; a cut hit's
/// snippet is its form ids' entries of `segment_forms().1[segment]` joined
/// by `' '`.
pub trait RetrievalBackend: Send + Sync {
    /// Run the index's analyzer over arbitrary text.
    fn analyze_text(&self, text: &str) -> Vec<String>;

    /// Top-k query over raw query text.
    fn search(&self, query: &str, k: usize) -> Vec<SearchHit>;

    /// Top-k query over pre-analyzed tokens: rank, then cut every hit.
    fn search_tokens(&self, q_tokens: &[String], k: usize) -> Vec<SearchHit>;

    /// The ranked `(doc, BM25)` top-k of a query analysed to term ids, with
    /// no snippet cut; with an `extension`, also the top-k of
    /// `query ++ extension` as `(doc, BM25, base)`, from the same scan. Each
    /// list equals ranking its query alone, and `base` is the doc's score
    /// under `query` alone (exactly 0.0 when no query term matches it).
    #[allow(clippy::type_complexity)]
    fn rank_tokens(
        &self,
        query: &[Sym],
        extension: Option<&[Sym]>,
        k: usize,
    ) -> (Vec<(u32, f64)>, Option<Vec<(u32, f64, f64)>>);

    /// The hits at positions `which` of `ranked` (a `rank_tokens` list for
    /// `query`), each with its list rank, score and query-biased snippet
    /// and the snippet's form ids, in `which` order.
    fn cut_hits(&self, query: &[Sym], ranked: &[(u32, f64)], which: &[usize]) -> Vec<CutHit>;

    /// The index's term table, and each segment's forms (distinct body
    /// tokens) in segment order: the tables a [`CutHit`]'s form ids index,
    /// whose term ids [`TermTable::form_terms`] gives.
    fn segment_forms(&self) -> (&TermTable, Vec<&[String]>);
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

    fn rank_tokens(
        &self,
        query: &[Sym],
        extension: Option<&[Sym]>,
        k: usize,
    ) -> (Vec<(u32, f64)>, Option<Vec<(u32, f64, f64)>>) {
        SegmentedIndex::rank_tokens(self, query, extension, k)
    }

    fn cut_hits(&self, query: &[Sym], ranked: &[(u32, f64)], which: &[usize]) -> Vec<CutHit> {
        SegmentedIndex::cut_hits(self, query, ranked, which)
    }

    fn segment_forms(&self) -> (&TermTable, Vec<&[String]>) {
        SegmentedIndex::segment_forms(self)
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
        let ids = backend.segment_forms().0.ids(&tokens);
        assert_eq!(backend.rank_tokens(&ids, None, 10).0, [(0, hits[0].score)]);
    }
}
