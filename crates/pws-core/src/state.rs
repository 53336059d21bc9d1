//! Per-user engine state.

use pws_entropy::QueryStats;
use pws_profile::{ContentProfile, LocationProfile, UserHistory, FEATURE_DIM};
use pws_ranksvm::{LinearRankModel, PreferencePair};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Everything the engine remembers about one user.
///
/// Serializable: a deployment persists user states across restarts (and a
/// user can export/inspect their own profile — see
/// [`crate::PersonalizedSearchEngine::export_user`]).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct UserState {
    /// Content-concept preference weights.
    pub content: ContentProfile,
    /// Location-ontology preference weights.
    pub location: LocationProfile,
    /// URL/domain revisit history.
    pub history: UserHistory,
    /// The user's personalized ranking model.
    pub model: LinearRankModel,
    /// Sliding window of mined preference pairs (training set).
    pub pairs: Vec<PreferencePair>,
    /// Observations folded in (drives the retraining schedule).
    pub observations: u64,
    /// Normalized query keys this user has clicked on, sorted ascending.
    ///
    /// The adaptive-β query statistics live *outside* the user state (they
    /// are cross-user accumulators — `ShardedStats` in `pws-serve`, the
    /// `query_stats` map in the serial engine), but a user's *contribution*
    /// must travel with the user record or export→import→replay diverges.
    /// This list names which stats entries belong in the user's export.
    pub seen_queries: Vec<String>,
}

impl UserState {
    /// The hand-tuned prior weight vector every user starts from — and the
    /// anchor the online RankSVM regularizes towards (see
    /// `TrainConfig::frozen_mask` and `PairwiseTrainer::train_anchored`
    /// for why anchoring matters when learning from position-biased
    /// clicks). Feature order matches [`pws_profile::FEATURE_NAMES`].
    pub fn prior_weights() -> Vec<f64> {
        vec![
            1.0,  // base_score_norm: trust the baseline ranker
            1.5,  // content_pref
            1.5,  // location_pref
            0.2,  // rank_prior
            0.15, // title_match
            0.15, // url_revisit: modest — one noise click must not pin a URL
            0.1,  // domain_affinity
        ]
    }

    /// Fresh state with the *prior* ranking model.
    ///
    /// The prior puts positive weight on the base score and both preference
    /// dimensions, so personalization acts from the first profile update —
    /// before the first RankSVM training round — which is exactly the
    /// cold-start behaviour measured in F6.
    pub fn new() -> Self {
        let prior = Self::prior_weights();
        debug_assert_eq!(prior.len(), FEATURE_DIM);
        UserState {
            content: ContentProfile::new(),
            location: LocationProfile::new(),
            history: UserHistory::new(),
            model: LinearRankModel::from_weights(prior),
            pairs: Vec::new(),
            observations: 0,
            seen_queries: Vec::new(),
        }
    }

    /// Is the user still cold (no clicks observed)?
    pub fn is_cold(&self) -> bool {
        self.observations == 0
    }

    /// Record that this user contributed to the stats of `query_key`
    /// (insertion keeps the list sorted and deduplicated).
    pub fn note_query(&mut self, query_key: &str) {
        if let Err(pos) = self.seen_queries.binary_search_by(|q| q.as_str().cmp(query_key)) {
            self.seen_queries.insert(pos, query_key.to_string());
        }
    }

    /// Structural validation: dimensions and finiteness.
    ///
    /// Serialization formats (JSON export, the `pws-store` binary codec)
    /// can express states the scoring path cannot survive — weight vectors
    /// of the wrong [`FEATURE_DIM`], NaN/∞ weights that poison every dot
    /// product downstream. Importers must call this before inserting the
    /// state and surface rejects as typed errors, never accept-and-crash.
    pub fn validate(&self) -> Result<(), StateError> {
        if self.model.dim() != FEATURE_DIM {
            return Err(StateError::WrongDim { what: "model weights", got: self.model.dim() });
        }
        if !self.model.weights.iter().all(|w| w.is_finite()) {
            return Err(StateError::NonFinite("model weights"));
        }
        if !self.content.weight_entries().iter().all(|(_, w)| w.is_finite()) {
            return Err(StateError::NonFinite("content profile weights"));
        }
        if !self.location.weight_entries().iter().all(|(_, w)| w.is_finite()) {
            return Err(StateError::NonFinite("location profile weights"));
        }
        for p in &self.pairs {
            if p.better.len() != FEATURE_DIM {
                return Err(StateError::WrongDim { what: "pair better", got: p.better.len() });
            }
            if p.worse.len() != FEATURE_DIM {
                return Err(StateError::WrongDim { what: "pair worse", got: p.worse.len() });
            }
            if !p.better.iter().chain(&p.worse).all(|v| v.is_finite()) {
                return Err(StateError::NonFinite("preference pair features"));
            }
        }
        Ok(())
    }
}

/// Why an imported user state (or its query stats) was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StateError {
    /// A vector has the wrong dimension for the feature schema.
    WrongDim {
        /// Which vector.
        what: &'static str,
        /// The length found.
        got: usize,
    },
    /// A weight or click mass is NaN or infinite.
    NonFinite(&'static str),
    /// A click mass or counter is negative.
    Negative(&'static str),
}

impl std::fmt::Display for StateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StateError::WrongDim { what, got } => {
                write!(f, "{what}: dimension {got}, expected {FEATURE_DIM}")
            }
            StateError::NonFinite(what) => write!(f, "{what}: non-finite value"),
            StateError::Negative(what) => write!(f, "{what}: negative value"),
        }
    }
}

impl std::error::Error for StateError {}

/// Validate a query-stats accumulator for import: click masses must be
/// finite and non-negative (they are counts, however fractional weighting
/// schemes may make them non-integral).
pub fn validate_query_stats(stats: &QueryStats) -> Result<(), StateError> {
    let check = |entries: &[(&str, f64)], what: &'static str| -> Result<(), StateError> {
        for (_, n) in entries {
            if !n.is_finite() {
                return Err(StateError::NonFinite(what));
            }
            if *n < 0.0 {
                return Err(StateError::Negative(what));
            }
        }
        Ok(())
    };
    check(&stats.url_click_entries(), "query-stats url clicks")?;
    check(&stats.concept_click_entries(), "query-stats concept clicks")?;
    for (_, n) in stats.location_click_entries() {
        if !n.is_finite() {
            return Err(StateError::NonFinite("query-stats location clicks"));
        }
        if n < 0.0 {
            return Err(StateError::Negative("query-stats location clicks"));
        }
    }
    Ok(())
}

/// The portable user record: the user's state plus their contribution to
/// the per-query adaptive-β statistics, keyed by normalized query key.
///
/// [`UserState`] alone is *not* replay-complete — `choose_beta()` reads
/// per-query click entropies, and losing them across an export/import
/// boundary silently changes β decisions (the exact bug the store tier
/// must not inherit). Export therefore carries both.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct UserExport {
    /// The user's learned state.
    pub state: UserState,
    /// Per-query statistics for every key in `state.seen_queries`.
    pub query_stats: BTreeMap<String, QueryStats>,
}

impl UserExport {
    /// Validate the state and every stats entry.
    pub fn validate(&self) -> Result<(), StateError> {
        self.state.validate()?;
        for stats in self.query_stats.values() {
            validate_query_stats(stats)?;
        }
        Ok(())
    }
}

impl Default for UserState {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_state_is_cold_with_prior_model() {
        let s = UserState::new();
        assert!(s.is_cold());
        assert_eq!(s.model.dim(), FEATURE_DIM);
        assert!(s.model.weights[0] > 0.0);
        assert!(s.pairs.is_empty());
    }

    #[test]
    fn prior_prefers_higher_base_score() {
        let s = UserState::new();
        let better = vec![1.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0];
        let worse = vec![0.5, 0.0, 0.0, 0.5, 0.0, 0.0, 0.0];
        assert!(s.model.score(&better) > s.model.score(&worse));
    }
}
