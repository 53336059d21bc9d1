//! # pws-core — the personalized search engine
//!
//! The paper's primary contribution, assembled from the substrate crates:
//! a search engine whose results are re-ranked per user by **content** and
//! **location** preferences mined from that user's clickthrough history.
//!
//! ## The online loop
//!
//! ```text
//!            ┌────────────────────────────────────────────────┐
//!  query ───►│ baseline retrieval (BM25, pool > page size)    │
//!            │   + location-aware query augmentation          │
//!            ├────────────────────────────────────────────────┤
//!            │ concept extraction from snippets               │
//!            │   content concepts · location concepts · graph │
//!            ├────────────────────────────────────────────────┤
//!            │ feature vectors (base score, content pref,     │
//!            │   location pref, rank prior, title, revisit)   │
//!            ├────────────────────────────────────────────────┤
//!            │ effectiveness-adaptive blend β  → RankSVM      │
//!            │   score → re-ranked top-K                      │
//!            └────────────────────────────────────────────────┘
//!  clicks ──► profiles (content + location) · click history ·
//!             query statistics (entropies) · preference pairs →
//!             periodic RankSVM re-training
//! ```
//!
//! [`engine::PersonalizedSearchEngine`] owns all per-user state; one
//! instance serves the whole user population (as the paper's middleware
//! did). [`config::PersonalizationMode`] selects the evaluation variants:
//! baseline / content-only / location-only / combined.

pub mod cache;
pub mod config;
pub mod core;
pub mod engine;
pub mod state;

pub use crate::core::{CheckpointGate, EngineCore, SearchTurn, StageCheckpoint};
pub use cache::{PooledHit, RankedPool, RetrievalCache, SnippetAnalyst};
pub use config::{BlendStrategy, EngineConfig, PairSource, PersonalizationMode};
pub use engine::PersonalizedSearchEngine;
pub use state::{validate_query_stats, StateError, UserState};
