//! # pws — Personalized Web Search with Location Preferences
//!
//! A from-scratch Rust reproduction of the ICDE 2010 framework for
//! personalizing web-search results with **content** and **location**
//! preferences mined from clickthrough data.
//!
//! This facade crate re-exports the whole workspace; see `DESIGN.md` for
//! the system inventory and `EXPERIMENTS.md` for the reproduced evaluation.
//!
//! ## Sixty-second tour
//!
//! ```
//! use pws::eval::{ExperimentSpec, ExperimentWorld};
//! use pws::core::{EngineConfig, PersonalizedSearchEngine};
//! use pws::click::UserId;
//!
//! // A deterministic synthetic universe: gazetteer, corpus, users, queries.
//! let world = ExperimentWorld::build(ExperimentSpec::small());
//!
//! // The personalized engine over the baseline index.
//! let mut engine =
//!     PersonalizedSearchEngine::new(&world.engine, &world.world, EngineConfig::default());
//!
//! // Serve a page for a user; snippets, ranks, concepts all come back.
//! let turn = engine.search(UserId(0), "restaurant");
//! assert!(turn.hits.len() <= 10);
//! ```
//!
//! The runnable examples go further:
//!
//! * `cargo run --example quickstart` — index, search, click, re-rank;
//! * `cargo run --example restaurant_search` — the motivating scenario:
//!   identical query, two users, two cities, two different pages;
//! * `cargo run --example profile_evolution` — watch profiles converge;
//! * `cargo run --example entropy_analysis` — when not to personalize.

/// Text-processing substrate (tokenizer, stemmer, stopwords, n-grams).
pub use pws_text as text;

/// Location ontology, synthetic gazetteer, and place-name matching.
pub use pws_geo as geo;

/// Synthetic web corpus and query workload generation.
pub use pws_corpus as corpus;

/// Search engine substrate (segment index, BM25, top-k scan, snippets).
pub use pws_index as index;

/// Clickthrough substrate: simulated users, click models, logs.
pub use pws_click as click;

/// Content/location concept extraction from snippets.
pub use pws_concepts as concepts;

/// Ontology-based user profiles, features, preference pairs.
pub use pws_profile as profile;

/// Linear pairwise RankSVM.
pub use pws_ranksvm as ranksvm;

/// Click entropies and personalization effectiveness.
pub use pws_entropy as entropy;

/// The personalized search engine (the paper's contribution).
pub use pws_core as core;

/// Metrics, experiment harness, and the reproduced evaluation.
pub use pws_eval as eval;
