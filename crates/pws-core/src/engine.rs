//! The serial personalized search engine.
//!
//! A thin frontend over [`EngineCore`]: one owned map of per-user state and
//! one map of per-query statistics, mutated through `&mut self`. This is
//! the paper's original middleware shape — one caller at a time — and the
//! shape the offline evaluation harness replays. For concurrent serving
//! (`&self + Send + Sync`, user-sharded) see the `pws-serve` crate, which
//! drives the same [`EngineCore`].

use crate::core::EngineCore;
pub use crate::core::SearchTurn;
use crate::config::EngineConfig;
use crate::state::UserState;
use pws_click::{Impression, UserId};
use pws_entropy::QueryStats;
use pws_obs::event::FlightEvent;
use pws_obs::trace::QueryTrace;
use std::collections::HashMap;

/// The engine: baseline retrieval + per-user personalization state.
///
/// Borrows an immutable baseline retrieval backend (the in-memory
/// [`pws_index::SearchEngine`] or the segmented on-disk
/// [`pws_index::SegmentedIndex`], via [`pws_index::RetrievalBackend`]) and location
/// ontology; owns all per-user learned state. Every
/// [`search`](Self::search) / [`observe`](Self::observe) stage records
/// wall-clock latency into the process-global [`pws_obs`] registry under
/// `engine.*` stage names.
///
/// ```
/// use pws_core::{EngineConfig, PersonalizedSearchEngine};
/// use pws_click::UserId;
/// use pws_geo::{LocId, LocationOntology};
/// use pws_index::{IndexBuilder, StoredDoc};
///
/// // A two-document index and a one-city world.
/// let mut builder = IndexBuilder::new();
/// builder.add(StoredDoc::new(0, "http://a.test", "Harbor dining",
///     "seafood restaurant by the harbor"));
/// builder.add(StoredDoc::new(1, "http://b.test", "Grill house",
///     "steak restaurant with grilled specials"));
/// let index = builder.build();
/// let mut world = LocationOntology::new();
/// let region = world.add(LocId::WORLD, "westland", vec![]);
/// world.add(region, "alden", vec![]);
///
/// let mut engine = PersonalizedSearchEngine::new(&index, &world, EngineConfig::default());
/// let turn = engine.search(UserId(0), "restaurant");
/// assert_eq!(turn.hits.len(), 2);
/// assert_eq!(turn.hits[0].rank, 1);
/// ```
pub struct PersonalizedSearchEngine<'a> {
    core: EngineCore<'a>,
    users: HashMap<UserId, UserState>,
    query_stats: HashMap<String, QueryStats>,
}

impl<'a> PersonalizedSearchEngine<'a> {
    /// Build an engine over an already-built baseline index.
    pub fn new(
        base: &'a dyn pws_index::RetrievalBackend,
        world: &'a pws_geo::LocationOntology,
        cfg: EngineConfig,
    ) -> Self {
        PersonalizedSearchEngine {
            core: EngineCore::new(base, world, cfg),
            users: HashMap::new(),
            query_stats: HashMap::new(),
        }
    }

    /// Enable proximity-smoothed location scoring (the GPS extension):
    /// preference for a city also endorses geographically nearby places,
    /// with the exponential kernel scale `scale_km`.
    pub fn with_geo(mut self, coords: &'a pws_geo::WorldCoords, scale_km: f64) -> Self {
        self.core = self.core.with_geo(coords, scale_km);
        self
    }

    /// Borrow a user's state (if the user has been seen).
    pub fn user_state(&self, user: UserId) -> Option<&UserState> {
        self.users.get(&user)
    }

    /// Accumulated statistics for a query string (if seen).
    pub fn query_stats(&self, query_text: &str) -> Option<&QueryStats> {
        self.query_stats.get(&EngineCore::query_key(query_text))
    }

    /// Number of distinct users with state.
    pub fn user_count(&self) -> usize {
        self.users.len()
    }

    /// Execute one personalized search for `user`.
    pub fn search(&mut self, user: UserId, query_text: &str) -> SearchTurn {
        let state = self.users.entry(user).or_default();
        let stats = self.query_stats.get(&EngineCore::query_key(query_text));
        let mut ev = FlightEvent::empty();
        self.core.search_user_gated(user, query_text, state, stats, &mut ev, None, None).0
    }

    /// [`search`](Self::search) plus a filled-in per-query decision
    /// trace: the event's stage slots and β provenance, extracted
    /// concepts, and every pool candidate's feature vector and
    /// base→final rank movement. The serial engine has one shard and no
    /// queue, so the event's total is the sum of its stage slots. The
    /// returned turn is byte-identical to what `search` would produce.
    pub fn search_traced(&mut self, user: UserId, query_text: &str) -> (SearchTurn, QueryTrace) {
        let mut trace = QueryTrace::new(query_text);
        let mut ev = FlightEvent::empty();
        let state = self.users.entry(user).or_default();
        let stats = self.query_stats.get(&EngineCore::query_key(query_text));
        let turn = self
            .core
            .search_user_gated(user, query_text, state, stats, &mut ev, Some(&mut trace), None)
            .0;
        ev.total_nanos = ev.stage_nanos.iter().sum();
        trace.event = ev;
        (turn, trace)
    }

    /// Fold the user's clicks on a turn back into the engine.
    ///
    /// `impression.results` must correspond to `turn.hits` (same order) —
    /// the simulator guarantees this by construction.
    pub fn observe(&mut self, turn: &SearchTurn, impression: &Impression) {
        let stats = self
            .query_stats
            .entry(EngineCore::query_key(&turn.query_text))
            .or_default();
        let state = self.users.entry(turn.user).or_default();
        self.core.observe_user(turn, impression, state, stats);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{BlendStrategy, PersonalizationMode};
    use crate::cache::PooledHit;
    use crate::core::normalize_pool;
    use pws_concepts::{SnippetAnalysis, TermDict};
    use pws_click::{Click, ShownResult};
    use pws_corpus::query::QueryId;
    use pws_geo::{LocId, LocationOntology};
    use pws_index::{IndexBuilder, SearchEngine, SearchHit, StoredDoc};

    fn world() -> LocationOntology {
        let mut o = LocationOntology::new();
        let r = o.add(LocId::WORLD, "westland", vec![]);
        let c = o.add(r, "ardonia", vec![]);
        let s = o.add(c, "vale", vec![]);
        o.add(s, "alden", vec![]);
        o.add(s, "lakemoor", vec![]);
        o
    }

    fn index() -> SearchEngine {
        let mut b = IndexBuilder::new();
        b.add(StoredDoc::new(0, "http://a.test/0", "Seafood guide",
            "seafood restaurant guide with lobster in alden harbor area"));
        b.add(StoredDoc::new(1, "http://b.test/1", "Seafood lakemoor",
            "seafood restaurant in lakemoor with fresh oysters"));
        b.add(StoredDoc::new(2, "http://c.test/2", "Sushi place",
            "sushi restaurant downtown with omakase menu in alden"));
        b.add(StoredDoc::new(3, "http://d.test/3", "Steak house",
            "steak restaurant grill with ribeye specials"));
        b.build()
    }

    fn impression_from(turn: &SearchTurn, clicked_ranks: &[usize]) -> Impression {
        Impression {
            user: turn.user,
            query: QueryId(0),
            query_text: turn.query_text.clone(),
            results: turn
                .hits
                .iter()
                .map(|h| ShownResult {
                    doc: h.doc,
                    rank: h.rank,
                    url: h.url.to_string(),
                    title: h.title.to_string(),
                    snippet: h.snippet.clone(),
                })
                .collect(),
            clicks: clicked_ranks
                .iter()
                .filter_map(|&r| {
                    turn.hits
                        .iter()
                        .find(|h| h.rank == r)
                        .map(|h| Click { doc: h.doc, rank: r, dwell: 600 })
                })
                .collect(),
        }
    }

    #[test]
    fn baseline_mode_returns_base_order() {
        let _guard = pws_obs::test_lock();
        let idx = index();
        let w = world();
        let mut e = PersonalizedSearchEngine::new(
            &idx,
            &w,
            EngineConfig::for_mode(PersonalizationMode::Baseline),
        );
        let turn = e.search(UserId(0), "seafood restaurant");
        let base = idx.search("seafood restaurant", 10);
        let turn_docs: Vec<u32> = turn.hits.iter().map(|h| h.doc).collect();
        let base_docs: Vec<u32> = base.iter().map(|h| h.doc).collect();
        assert_eq!(turn_docs, base_docs);
        assert!(!turn.personalized);
    }

    #[test]
    fn empty_query_is_safe() {
        let _guard = pws_obs::test_lock();
        let idx = index();
        let w = world();
        let mut e = PersonalizedSearchEngine::new(&idx, &w, EngineConfig::default());
        let turn = e.search(UserId(0), "zzzz unknown");
        assert!(turn.hits.is_empty());
        assert!(turn.features.is_empty());
        // Observing an empty impression must not panic.
        let imp = impression_from(&turn, &[]);
        e.observe(&turn, &imp);
    }

    #[test]
    fn clicks_on_a_city_build_location_preference() {
        let _guard = pws_obs::test_lock();
        let idx = index();
        let w = world();
        let mut e = PersonalizedSearchEngine::new(&idx, &w, EngineConfig::default());
        let user = UserId(7);
        // Repeatedly click the lakemoor result for "seafood restaurant".
        for _ in 0..6 {
            let turn = e.search(user, "seafood restaurant");
            let lakemoor_rank = turn
                .hits
                .iter()
                .find(|h| h.doc == 1)
                .map(|h| h.rank)
                .expect("lakemoor doc in page");
            let imp = impression_from(&turn, &[lakemoor_rank]);
            e.observe(&turn, &imp);
        }
        let state = e.user_state(user).unwrap();
        let lakemoor = LocId(5);
        assert!(state.location.weight(lakemoor) > 0.0);
        assert_eq!(state.location.preferred_city(&w), Some(lakemoor));
        // After learning, the lakemoor doc should be promoted to rank 1.
        let turn = e.search(user, "seafood restaurant");
        assert_eq!(turn.hits[0].doc, 1, "personalization should surface lakemoor doc");
        assert!(turn.personalized);
    }

    #[test]
    fn content_clicks_build_content_preference() {
        let _guard = pws_obs::test_lock();
        let idx = index();
        let w = world();
        // Loose extraction thresholds: with only four docs in the fixture,
        // "sushi" appears in a single snippet and the default
        // min_snippet_freq=2 would drop it.
        let mut e = PersonalizedSearchEngine::new(
            &idx,
            &w,
            EngineConfig {
                concept_cfg: pws_concepts::ConceptConfig {
                    min_support: 0.0,
                    min_snippet_freq: 1,
                    ..Default::default()
                },
                ..EngineConfig::for_mode(PersonalizationMode::ContentOnly)
            },
        );
        let user = UserId(3);
        for _ in 0..6 {
            let turn = e.search(user, "restaurant");
            let sushi_rank = turn.hits.iter().find(|h| h.doc == 2).map(|h| h.rank);
            let Some(r) = sushi_rank else { continue };
            let imp = impression_from(&turn, &[r]);
            e.observe(&turn, &imp);
        }
        let state = e.user_state(user).unwrap();
        assert!(state.content.weight("sushi") > 0.0);
        let turn = e.search(user, "restaurant");
        assert_eq!(turn.hits[0].doc, 2, "sushi doc should be promoted");
    }

    #[test]
    fn modes_set_beta_extremes() {
        let _guard = pws_obs::test_lock();
        let idx = index();
        let w = world();
        let mut c = PersonalizedSearchEngine::new(
            &idx,
            &w,
            EngineConfig::for_mode(PersonalizationMode::ContentOnly),
        );
        assert_eq!(c.search(UserId(0), "restaurant").beta, 0.0);
        let mut l = PersonalizedSearchEngine::new(
            &idx,
            &w,
            EngineConfig::for_mode(PersonalizationMode::LocationOnly),
        );
        assert_eq!(l.search(UserId(0), "restaurant").beta, 1.0);
        let mut f = PersonalizedSearchEngine::new(
            &idx,
            &w,
            EngineConfig {
                blend: BlendStrategy::Fixed(0.3),
                ..EngineConfig::default()
            },
        );
        assert!((f.search(UserId(0), "restaurant").beta - 0.3).abs() < 1e-12);
    }

    #[test]
    fn empty_and_cold_paths_report_mode_beta() {
        let _guard = pws_obs::test_lock();
        // Regression: the empty-pool early return used to hard-code
        // β = 0.5, misreporting ContentOnly (β = 0) and LocationOnly
        // (β = 1) turns in downstream β analyses.
        let idx = index();
        let w = world();
        for (mode, want) in [
            (PersonalizationMode::ContentOnly, 0.0),
            (PersonalizationMode::LocationOnly, 1.0),
            (PersonalizationMode::Baseline, 0.5),
        ] {
            let mut e = PersonalizedSearchEngine::new(&idx, &w, EngineConfig::for_mode(mode));
            let turn = e.search(UserId(0), "zzzz unknown");
            assert!(turn.hits.is_empty());
            assert_eq!(turn.beta, want, "empty-pool β for {mode:?}");
        }
        // A fixed combined blend must also survive the empty path.
        let mut e = PersonalizedSearchEngine::new(
            &idx,
            &w,
            EngineConfig { blend: BlendStrategy::Fixed(0.8), ..EngineConfig::default() },
        );
        assert!((e.search(UserId(0), "zzzz unknown").beta - 0.8).abs() < 1e-12);
        // Baseline mode reports 0.5 on non-empty pools too (by definition).
        let mut b = PersonalizedSearchEngine::new(
            &idx,
            &w,
            EngineConfig::for_mode(PersonalizationMode::Baseline),
        );
        assert_eq!(b.search(UserId(0), "restaurant").beta, 0.5);
    }

    #[test]
    fn page_features_match_serving_scale() {
        let _guard = pws_obs::test_lock();
        // Regression for the train/serve feature skew: the page features a
        // turn carries into pair mining / training must use the same
        // pool-normalized base score the ranker scored with — not the raw
        // BM25 score.
        let idx = index();
        let w = world();
        // Cold user, no augmentation possible → the pool is exactly the
        // baseline retrieval, so the expected normalization is checkable
        // from outside.
        let mut e = PersonalizedSearchEngine::new(&idx, &w, EngineConfig::default());
        let turn = e.search(UserId(0), "seafood restaurant");
        assert!(turn.personalized);
        let pool = idx.search("seafood restaurant", e.core.config().rerank_pool);
        let max = pool.iter().map(|h| h.score).fold(0.0_f64, f64::max);
        assert!(max > 0.0);
        for (h, f) in turn.hits.iter().zip(&turn.features) {
            let raw = pool.iter().find(|p| p.doc == h.doc).expect("page doc in pool").score;
            assert!(
                (f[0] - raw / max).abs() < 1e-12,
                "doc {}: feature {} != pool-normalized {}",
                h.doc,
                f[0],
                raw / max
            );
            // The raw BM25 scale would violate [0, 1].
            assert!(f[0] > 0.0 && f[0] <= 1.0);
        }
    }

    #[test]
    fn augmentation_guard_is_token_boundary_aware() {
        let _guard = pws_obs::test_lock();
        let idx = index();
        let w = world();
        let e = PersonalizedSearchEngine::new(&idx, &w, EngineConfig::default());
        let core = &e.core;
        // Exact and multi-word mentions are detected…
        assert!(core.query_mentions_city("restaurants in alden", "alden"));
        assert!(core.query_mentions_city("Alden harbor seafood", "alden"));
        assert!(core.query_mentions_city("best port alden food", "port alden"));
        // …but substrings of longer tokens are not (the "yorkshire"
        // suppressing "york" bug)…
        assert!(!core.query_mentions_city("aldenshire seafood", "alden"));
        assert!(!core.query_mentions_city("restaurants in yorkshire", "york"));
        // …and multi-word names must not match across token boundaries.
        assert!(!core.query_mentions_city("port of call near alden", "port alden"));
    }

    #[test]
    fn adaptive_beta_starts_neutral_then_tracks_stats() {
        let _guard = pws_obs::test_lock();
        let idx = index();
        let w = world();
        let mut e = PersonalizedSearchEngine::new(&idx, &w, EngineConfig::default());
        let turn = e.search(UserId(0), "restaurant");
        assert_eq!(turn.beta, 0.5, "no stats yet → neutral");
        // Feed diverse location clicks from two users.
        for (u, doc) in [(0u32, 0u32), (1, 1), (0, 0), (1, 1), (0, 0), (1, 1)] {
            let turn = e.search(UserId(u), "restaurant");
            if let Some(h) = turn.hits.iter().find(|h| h.doc == doc) {
                let imp = impression_from(&turn, &[h.rank]);
                e.observe(&turn, &imp);
            }
        }
        assert!(e.query_stats("restaurant").is_some());
        let beta = e.search(UserId(9), "restaurant").beta;
        assert!(beta > 0.0 && beta < 1.0);
    }

    #[test]
    fn ranks_are_reassigned_after_rerank() {
        let _guard = pws_obs::test_lock();
        let idx = index();
        let w = world();
        let mut e = PersonalizedSearchEngine::new(&idx, &w, EngineConfig::default());
        let turn = e.search(UserId(0), "restaurant");
        for (i, h) in turn.hits.iter().enumerate() {
            assert_eq!(h.rank, i + 1);
        }
        assert_eq!(turn.features.len(), turn.hits.len());
        assert_eq!(turn.ontology.content_by_snippet.len(), turn.hits.len());
    }

    #[test]
    fn traced_search_matches_untraced_and_fills_trace() {
        let _guard = pws_obs::test_lock();
        let idx = index();
        let w = world();
        let user = UserId(7);
        // Two identically-trained engines: one searches untraced, the
        // other traced. The pages must match byte-for-byte.
        let mut plain = PersonalizedSearchEngine::new(&idx, &w, EngineConfig::default());
        let mut traced = PersonalizedSearchEngine::new(&idx, &w, EngineConfig::default());
        for e in [&mut plain, &mut traced] {
            for _ in 0..4 {
                let turn = e.search(user, "seafood restaurant");
                if let Some(h) = turn.hits.iter().find(|h| h.doc == 1) {
                    let imp = impression_from(&turn, &[h.rank]);
                    e.observe(&turn, &imp);
                }
            }
        }
        let want = plain.search(user, "seafood restaurant");
        let (turn, trace) = traced.search_traced(user, "seafood restaurant");
        let docs = |t: &SearchTurn| t.hits.iter().map(|h| h.doc).collect::<Vec<_>>();
        assert_eq!(docs(&turn), docs(&want));
        assert_eq!(turn.features, want.features);
        assert_eq!(turn.beta, want.beta);

        // The trace carries the full decision record.
        assert_eq!(trace.event.user, 7);
        assert_eq!(trace.query_text, "seafood restaurant");
        assert!(trace.personalized);
        assert_eq!(trace.event.beta(), turn.beta);
        for (stage, nanos) in pws_obs::event::SEARCH_STAGES.iter().zip(trace.event.stage_nanos) {
            assert!(nanos > 0, "missing stage {stage}");
        }
        // Every pool candidate appears, in final-rank order, with a full
        // feature vector; the page prefix matches the returned hits.
        assert!(!trace.results.is_empty());
        assert_eq!(trace.feature_names.len(), pws_profile::FEATURE_DIM);
        for (i, r) in trace.results.iter().enumerate() {
            assert_eq!(r.final_rank, i + 1);
            assert_eq!(r.features.len(), pws_profile::FEATURE_DIM);
        }
        let page_docs: Vec<u32> = trace
            .results
            .iter()
            .filter(|r| r.on_page)
            .map(|r| r.doc)
            .collect();
        assert_eq!(page_docs, docs(&turn));
        // base_rank is a permutation of 1..=pool_size.
        let mut base: Vec<usize> = trace.results.iter().map(|r| r.base_rank).collect();
        base.sort_unstable();
        assert_eq!(base, (1..=trace.results.len()).collect::<Vec<_>>());
        // Concepts were extracted over the pool.
        assert!(!trace.content_concepts.is_empty() || !trace.location_concepts.is_empty());
    }

    #[test]
    fn traced_baseline_search_traces_page_in_base_order() {
        let _guard = pws_obs::test_lock();
        let idx = index();
        let w = world();
        let mut e = PersonalizedSearchEngine::new(
            &idx,
            &w,
            EngineConfig::for_mode(PersonalizationMode::Baseline),
        );
        let (turn, trace) = e.search_traced(UserId(0), "seafood restaurant");
        assert!(!trace.personalized);
        assert_eq!(trace.event.beta(), 0.5);
        assert_eq!(
            trace.event.beta_provenance,
            pws_obs::trace::BetaProvenance::Mode
        );
        assert_eq!(trace.results.len(), turn.hits.len());
        for (r, h) in trace.results.iter().zip(&turn.hits) {
            assert_eq!(r.doc, h.doc);
            assert_eq!(r.base_rank, r.final_rank, "baseline never moves results");
            assert_eq!(r.rank_delta(), 0);
            assert!(r.on_page);
        }
    }

    #[test]
    fn retraining_changes_model_weights() {
        let _guard = pws_obs::test_lock();
        let idx = index();
        let w = world();
        let cfg = EngineConfig { retrain_every: 2, ..EngineConfig::default() };
        let mut e = PersonalizedSearchEngine::new(&idx, &w, cfg);
        let user = UserId(1);
        let prior = UserState::new().model.weights.clone();
        for _ in 0..4 {
            let turn = e.search(user, "restaurant");
            // Click the last result to generate skip-above pairs.
            let last = turn.hits.last().map(|h| h.rank);
            if let Some(r) = last {
                let imp = impression_from(&turn, &[r]);
                e.observe(&turn, &imp);
            }
        }
        let state = e.user_state(user).unwrap();
        assert!(!state.pairs.is_empty());
        assert_ne!(state.model.weights, prior, "model should have been retrained");
    }

    #[test]
    fn geo_smoothing_scores_nearby_cities() {
        let _guard = pws_obs::test_lock();
        let idx = index();
        let w = world();
        let coords = pws_geo::WorldCoords::generate(&w, 5);
        let mut e = PersonalizedSearchEngine::new(&idx, &w, EngineConfig::default())
            .with_geo(&coords, 500.0);
        let user = UserId(2);
        // Train on lakemoor clicks as in the non-geo test.
        for _ in 0..4 {
            let turn = e.search(user, "seafood restaurant");
            if let Some(h) = turn.hits.iter().find(|h| h.doc == 1) {
                let imp = impression_from(&turn, &[h.rank]);
                e.observe(&turn, &imp);
            }
        }
        // The engine still works end-to-end and ranks deterministically.
        let turn = e.search(user, "seafood restaurant");
        assert!(!turn.hits.is_empty());
        assert_eq!(turn.features.len(), turn.hits.len());
        // Geo scoring endorses *all* locations somewhat (exp kernel > 0),
        // so the alden doc's location feature is nonzero too once the
        // profile is warm — unlike the exact-match scorer.
        let state = e.user_state(user).unwrap();
        assert!(!state.location.is_empty());
    }

    /// Pool rows and page rows share one scoring context: every turn —
    /// personalised, baseline, degraded at any checkpoint, stateless —
    /// prepares exactly once.
    #[test]
    fn every_turn_prepares_exactly_one_scoring_context() {
        let _guard = pws_obs::test_lock();
        use crate::core::{StageCheckpoint, PREPARED};
        let prepared = || PREPARED.with(|n| n.get());
        let idx = index();
        let w = world();
        let user = UserId(3);
        let mut e = PersonalizedSearchEngine::new(&idx, &w, EngineConfig::default());
        for _ in 0..3 {
            let turn = e.search(user, "seafood restaurant");
            let imp = impression_from(&turn, &[2]);
            e.observe(&turn, &imp);
        }
        let before = prepared();
        let turn = e.search(user, "seafood restaurant");
        assert!(turn.personalized);
        assert_eq!(turn.features.len(), turn.hits.len());
        assert_eq!(prepared() - before, 1, "pool + page of one personalised search");

        let state = e.user_state(user).unwrap().clone();
        for cp in [StageCheckpoint::Retrieval, StageCheckpoint::Concepts, StageCheckpoint::Features]
        {
            let mut gate = |at: StageCheckpoint| at == cp;
            let before = prepared();
            let (turn, aborted) = e.core.search_user_gated(
                user,
                "seafood restaurant",
                &state,
                None,
                &mut FlightEvent::empty(),
                None,
                Some(&mut gate),
            );
            assert_eq!(aborted, Some(cp));
            assert!(!turn.personalized);
            assert_eq!(prepared() - before, 1, "turn degraded at {cp:?}");
        }

        let before = prepared();
        e.core.degraded_search(user, "seafood restaurant", None, &mut FlightEvent::empty(), None);
        assert_eq!(prepared() - before, 1, "stateless escape hatch");

        let mut baseline = PersonalizedSearchEngine::new(
            &idx,
            &w,
            EngineConfig::for_mode(PersonalizationMode::Baseline),
        );
        let before = prepared();
        baseline.search(user, "seafood restaurant");
        assert_eq!(prepared() - before, 1, "baseline turn");
    }

    /// A pooled hit of `doc` with BM25 `score` (its analysis is empty).
    fn pooled(doc: u32, score: f64) -> PooledHit {
        let matcher = pws_geo::LocationMatcher::build(&LocationOntology::new());
        PooledHit {
            hit: SearchHit {
                doc,
                score,
                rank: 1,
                url: format!("u{doc}").into(),
                title: "t".into(),
                snippet: "s".into(),
            },
            analysis: SnippetAnalysis::new("", &matcher, &mut TermDict::new()).into(),
        }
    }

    #[test]
    fn normalize_pool_unit_max() {
        let (pool, max) = normalize_pool(&[(&pooled(0, 8.0), true), (&pooled(1, 2.0), false)]);
        assert_eq!(pool[0].norm, 1.0);
        assert_eq!(pool[1].norm, 0.25);
        assert!(pool[0].fresh && !pool[1].fresh);
        assert_eq!(max, 8.0);
        let (empty, floor) = normalize_pool(&[]);
        assert!(empty.is_empty() && floor > 0.0);
    }
}
