//! Index construction.
//!
//! [`IndexBuilder`] is the in-RAM front door to the one index layout: it
//! feeds documents to a [`SegmentBuilder`] and [`IndexBuilder::build`]
//! returns a [`SearchEngine`] — a [`crate::SegmentedIndex`] over the single
//! segment, which has round-tripped through the segment format like every
//! other segment in existence.

use crate::search::{SearchEngine, StoredDoc};
use crate::segment::SegmentBuilder;
use pws_text::Analyzer;

/// Builder for [`SearchEngine`].
#[derive(Debug)]
pub struct IndexBuilder {
    segment: SegmentBuilder,
}

impl Default for IndexBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl IndexBuilder {
    /// Builder with the default analyzer (stopword removal + stemming).
    pub fn new() -> Self {
        Self::with_analyzer(Analyzer::default())
    }

    /// Builder with a custom analyzer.
    pub fn with_analyzer(analyzer: Analyzer) -> Self {
        IndexBuilder { segment: SegmentBuilder::new(analyzer) }
    }

    /// Number of documents added so far.
    pub fn len(&self) -> usize {
        self.segment.len()
    }

    /// True before the first `add`.
    pub fn is_empty(&self) -> bool {
        self.segment.is_empty()
    }

    /// Add one document. `doc.id` must equal the current document count
    /// (dense ascending ids).
    ///
    /// # Panics
    /// Panics on out-of-order ids — an indexing-pipeline bug.
    pub fn add(&mut self, doc: StoredDoc) {
        assert_eq!(
            doc.id as usize,
            self.segment.len(),
            "documents must be added with dense ascending ids"
        );
        self.segment.add(&doc.url, &doc.title, &doc.body);
    }

    /// Finish building. Consumes the builder.
    pub fn build(self) -> SearchEngine {
        let segment = self
            .segment
            .finish_segment()
            .expect("a segment just written by SegmentBuilder loads");
        SearchEngine::from_segments(vec![segment])
            .expect("a single segment cannot disagree with itself")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_empty_engine() {
        let e = IndexBuilder::new().build();
        assert_eq!(e.doc_count(), 0);
        assert!(e.search("anything", 10).is_empty());
    }

    #[test]
    fn doc_lengths_tracked() {
        let mut b = IndexBuilder::with_analyzer(Analyzer::verbatim());
        b.add(StoredDoc::new(0, "u0", "t", "one two three"));
        b.add(StoredDoc::new(1, "u1", "t", "four five"));
        let e = b.build();
        // verbatim analyzer: title ("t") + body tokens all count.
        assert_eq!(e.doc_count(), 2);
        assert!(e.avg_doc_len() > 0.0);
    }

    #[test]
    #[should_panic]
    fn out_of_order_ids_panic() {
        let mut b = IndexBuilder::new();
        b.add(StoredDoc::new(1, "u", "t", "body"));
    }

    #[test]
    fn repeated_terms_accumulate_tf() {
        let mut b = IndexBuilder::with_analyzer(Analyzer::verbatim());
        b.add(StoredDoc::new(0, "u", "x", "fish fish fish chips"));
        let e = b.build();
        let hits = e.search("fish", 10);
        assert_eq!(hits.len(), 1);
        // One posting for the doc, carrying all three occurrences.
        let seg = &e.segments()[0];
        let ord = seg.term_ord("fish").expect("indexed term");
        assert_eq!(seg.term_meta(ord).df, 1);
        let mut postings = Vec::new();
        assert!(seg.decode_block(&seg.term_blocks(ord)[0], &mut postings));
        assert_eq!(postings, vec![(0, 3)]);
    }
}
