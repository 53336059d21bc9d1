//! The result and document types every index consumer sees, and the
//! [`SearchEngine`] name.
//!
//! There is one index implementation: [`SegmentedIndex`] over immutable
//! [`crate::Segment`]s, searched by the one executor (`exec`).
//! [`SearchEngine`] is what [`crate::IndexBuilder::build`] returns — the
//! same type holding a single segment that was built (and lives) in RAM.

use crate::segmented::SegmentedIndex;
use std::sync::Arc;

/// The index [`crate::IndexBuilder`] builds: a [`SegmentedIndex`] over one
/// in-RAM segment.
pub type SearchEngine = SegmentedIndex;

/// A document as stored by the engine (what a web index would keep: URL,
/// title, and enough text to render snippets).
///
/// `url` and `title` are `Arc<str>`s so the [`SearchHit`] built from a
/// decoded document takes the handles instead of copying the strings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoredDoc {
    /// Dense id assigned by the caller; must match insertion order.
    pub id: u32,
    /// URL shown on the result page.
    pub url: Arc<str>,
    /// Title shown on the result page.
    pub title: Arc<str>,
    /// Body text; snippets are windows of this.
    pub body: String,
}

impl StoredDoc {
    /// Convenience constructor.
    pub fn new(id: u32, url: &str, title: &str, body: &str) -> Self {
        StoredDoc { id, url: url.into(), title: title.into(), body: body.into() }
    }

    /// The text that gets indexed: title + body (title terms therefore count
    /// towards BM25, as in real engines).
    pub fn indexable_text(&self) -> String {
        format!("{} {}", self.title, self.body)
    }
}

/// One search result.
///
/// `url`/`title` share the stored document's `Arc<str>`s, so cloning a hit
/// (pool normalization, pool merging, retrieval caching) bumps two refcounts
/// instead of copying strings.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchHit {
    /// Document id.
    pub doc: u32,
    /// BM25 score (higher is better).
    pub score: f64,
    /// Rank in the returned list, 1-based (rank 1 = best).
    pub rank: usize,
    /// Result URL.
    pub url: Arc<str>,
    /// Result title.
    pub title: Arc<str>,
    /// Query-biased snippet.
    pub snippet: String,
}

/// A hit with the form ids its snippet was joined from: what
/// [`SegmentedIndex::cut_hits`] returns, so a consumer can analyse the
/// snippet from ids it resolved once per segment instead of from text.
#[derive(Debug, Clone, PartialEq)]
pub struct CutHit {
    /// The hit, snippet included.
    pub hit: SearchHit,
    /// Index of the segment owning the document (into
    /// [`SegmentedIndex::segments`]).
    pub segment: usize,
    /// The snippet window as ids into that segment's
    /// [`crate::Segment::forms`]: `hit.snippet` is their forms joined by
    /// `' '`.
    pub forms: Vec<u32>,
}
