//! # pws-concepts — content & location concept extraction
//!
//! The heart of the paper's representation: for each query, mine from the
//! top-K result *snippets*
//!
//! * **content concepts** ([`content`]) — unigrams and bigrams that
//!   co-occur with the query in snippets with *support* above a threshold
//!   (support = fraction of snippets containing the candidate). These are
//!   the topical angles of the result set ("seafood", "lobster roll" for
//!   query "restaurant");
//! * **location concepts** ([`location`]) — place names of the location
//!   ontology matched in snippets, rolled up the ontology so a mention of a
//!   city also (fractionally) supports its state and country;
//! * a **concept relationship graph** ([`graph`]) — snippet-incidence
//!   cosine similarity between content concepts, used to expand profile
//!   mass to related concepts (the GCS ablation of F7). No extraction
//!   builds it: a click reads its concepts' neighbours off the ontology's
//!   incidence rows ([`QueryConceptOntology::spread`]), and
//!   [`QueryConceptOntology::graph`] derives it on demand;
//! * the **per-query concept ontology** ([`ontology`]) — the combined
//!   structure consumed by user profiling.
//!
//! Extraction has a pure per-snippet half and a per-pool half, and does
//! each once: [`SnippetAnalysis`] ([`snippet`]) is everything one snippet
//! contributes to any pool (its terms, the places it names) and is the
//! only place the analyser and the matcher run — and the only place a
//! term is interned: an analysis holds its terms as ids in a [`TermDict`]
//! ([`dict`]; an engine's is its index's term table).
//! [`QueryConceptOntology::from_analyses`] counts over analyses in one pass
//! on those integers. An engine analyses a served snippet from its window's
//! form ids through a per-segment [`FormTable`], and keeps the analysis
//! beside the cached hit, so a snippet seen again — by the page extraction,
//! by another user's pool — is not analysed again.
//!
//! ```
//! use pws_concepts::{ConceptConfig, LocationConceptConfig, QueryConceptOntology};
//! use pws_geo::{LocationMatcher, LocationOntology};
//!
//! let snippets = vec![
//!     "fresh seafood daily lobster specials".to_string(),
//!     "the seafood menu and lobster rolls".to_string(),
//!     "seafood buffet downtown".to_string(),
//! ];
//! let world = LocationOntology::new();
//! let onto = QueryConceptOntology::extract(
//!     "restaurant",
//!     &snippets,
//!     &LocationMatcher::build(&world),
//!     &world,
//!     &ConceptConfig::default(),
//!     &LocationConceptConfig::default(),
//! );
//! assert!(onto.content.iter().any(|c| c.term == "seafood"));
//! ```

pub mod content;
pub mod dict;
pub mod graph;
pub mod location;
pub mod ontology;
#[doc(hidden)]
pub mod reference;
mod scratch;
pub mod snippet;

pub use content::{ConceptConfig, ContentConcept};
pub use dict::TermDict;
pub use graph::{ConceptGraph, ConceptRelation};
pub use location::{LocationConcept, LocationConceptConfig};
pub use ontology::QueryConceptOntology;
pub use snippet::{query_terms, FormTable, SnippetAnalysis};
