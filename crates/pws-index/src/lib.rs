//! # pws-index — search-engine substrate
//!
//! The paper's personalization layer sits *on top of* a conventional search
//! engine: it takes the engine's top-K results (with snippets) and re-ranks
//! them. Offline we have no commercial backend, so this crate is that
//! backend — **one index, one executor**:
//!
//! * [`segment::Segment`] is the only index layout, in RAM and on disk:
//!   an immutable inverted index in the checksummed, versioned file format
//!   of [`segfile`] (spec: `docs/INDEX_FORMAT.md`) with block-compressed
//!   `(doc, tf)` postings, per-block maxima and a lazily-decoded document
//!   store. [`segment::SegmentBuilder`] tokenizes documents (via
//!   [`pws_text`]) once and writes one, bodies included as form-id
//!   streams that snippets are cut from; every segment in existence has
//!   round-tripped through the format.
//! * [`segmented::SegmentedIndex`] serves a set of segments under global
//!   collection statistics with Okapi BM25 ([`score`]) and one exhaustive
//!   term-at-a-time top-k scan, bit-identical to the reference scorer,
//!   that can rank a query and its extension ("query + city") in one pass.
//!   [`builder::IndexBuilder`] is the in-RAM front door: it builds a single
//!   segment and returns it as a [`SearchEngine`] (an alias of
//!   `SegmentedIndex`).
//! * [`terms::TermTable`] is the index's one vocabulary, rebuilt at load:
//!   every term id, from query analysis to concept counting, is its id.
//! * [`query`] adds phrases and boolean operators on top, and
//!   [`backend::RetrievalBackend`] is the surface the personalization layer
//!   consumes: the `(url, title, snippet)` result lists.
//!
//! ```
//! use pws_index::{IndexBuilder, StoredDoc};
//!
//! let mut b = IndexBuilder::new();
//! b.add(StoredDoc::new(0, "http://a.test/1", "Crab shack", "fresh seafood and lobster daily"));
//! b.add(StoredDoc::new(1, "http://b.test/2", "Phone store", "unlocked android smartphone deals"));
//! let engine = b.build();
//! let hits = engine.search("seafood lobster", 10);
//! assert_eq!(hits[0].doc, 0);
//! ```

pub mod backend;
pub mod builder;
pub mod codec;
pub(crate) mod exec;
pub mod query;
pub mod score;
pub(crate) mod scratch;
pub mod search;
pub mod segfile;
pub mod segment;
pub mod segmented;
pub mod snippet;
pub mod terms;

pub use backend::RetrievalBackend;
pub use pws_text::{Analyzer, Sym};
pub use builder::IndexBuilder;
pub use query::{parse_query, ParseError, QueryExpr};
pub use score::Bm25Params;
pub use search::{CutHit, SearchEngine, SearchHit, StoredDoc};
pub use segfile::{SectionId, SegmentError, FORMAT_VERSION, SEGMENT_FORMAT, SEGMENT_MAGIC};
pub use segment::{Segment, SegmentBuilder, BLOCK_SIZE};
pub use segmented::SegmentedIndex;
pub use snippet::extract_snippet;
pub use terms::TermTable;
