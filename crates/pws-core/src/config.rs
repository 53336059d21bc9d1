//! Engine configuration.

use pws_concepts::{ConceptConfig, LocationConceptConfig};
use pws_entropy::EffectivenessConfig;
use pws_profile::{ContentProfileConfig, LocationProfileConfig, PairMiningConfig, SpyNbConfig};
use pws_ranksvm::TrainConfig;

/// Which preference-pair mining algorithm feeds the RankSVM.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PairSource {
    /// Joachims click ≻ skip-above (+ next-unclicked) pairs.
    Joachims(PairMiningConfig),
    /// Spy Naive Bayes reliable-negative mining (the HKUST line's method).
    SpyNb(SpyNbConfig),
}

/// Which personalization dimensions are active — the method variants
/// compared throughout the evaluation (T3, F1, F2, F5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PersonalizationMode {
    /// No personalization: return the baseline ranking unchanged.
    Baseline,
    /// Content preferences only.
    ContentOnly,
    /// Location preferences only.
    LocationOnly,
    /// Both dimensions, blended (the paper's full method).
    Combined,
}

impl PersonalizationMode {
    /// Does this mode use the content dimension?
    pub fn uses_content(self) -> bool {
        matches!(self, PersonalizationMode::ContentOnly | PersonalizationMode::Combined)
    }

    /// Does this mode use the location dimension?
    pub fn uses_location(self) -> bool {
        matches!(self, PersonalizationMode::LocationOnly | PersonalizationMode::Combined)
    }

    /// Short label for tables.
    pub fn label(self) -> &'static str {
        match self {
            PersonalizationMode::Baseline => "baseline",
            PersonalizationMode::ContentOnly => "content",
            PersonalizationMode::LocationOnly => "location",
            PersonalizationMode::Combined => "combined",
        }
    }
}

/// How the content/location blend weight β is chosen (F5).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BlendStrategy {
    /// β estimated per query from click-entropy effectiveness.
    Adaptive,
    /// A fixed β for every query (0 = content only, 1 = location only).
    Fixed(f64),
}

/// Full engine configuration. `Default` reproduces the paper-default setup
/// used by T3/F1/F2.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Results per page shown to the user.
    pub top_k: usize,
    /// Baseline pool size fetched for re-ranking (≥ `top_k`).
    pub rerank_pool: usize,
    /// Run a second, city-augmented retrieval and merge candidate pools
    /// when the user's location profile has a preferred city.
    pub query_augmentation: bool,
    /// Personalization variant.
    pub mode: PersonalizationMode,
    /// Blend strategy for the combined mode.
    pub blend: BlendStrategy,
    /// Content-concept extraction parameters.
    pub concept_cfg: ConceptConfig,
    /// Location-concept extraction parameters.
    pub location_cfg: LocationConceptConfig,
    /// Content-profile update parameters.
    pub content_profile_cfg: ContentProfileConfig,
    /// Location-profile update parameters.
    pub location_profile_cfg: LocationProfileConfig,
    /// Effectiveness estimation parameters.
    pub effectiveness_cfg: EffectivenessConfig,
    /// Preference-pair mining algorithm and its parameters.
    pub pair_source: PairSource,
    /// RankSVM training parameters.
    pub train_cfg: TrainConfig,
    /// Re-train the user's RankSVM every this many observations
    /// (0 disables training; the prior weights then rank throughout).
    pub retrain_every: u64,
    /// Cap on retained preference pairs per user (sliding window).
    pub max_pairs_per_user: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            top_k: 10,
            rerank_pool: 30,
            query_augmentation: true,
            mode: PersonalizationMode::Combined,
            blend: BlendStrategy::Adaptive,
            concept_cfg: ConceptConfig::default(),
            location_cfg: LocationConceptConfig::default(),
            content_profile_cfg: ContentProfileConfig::default(),
            location_profile_cfg: LocationProfileConfig::default(),
            effectiveness_cfg: EffectivenessConfig::default(),
            pair_source: PairSource::Joachims(PairMiningConfig::default()),
            // Freeze the rank-derived features (base score, rank prior):
            // click-mined pairs are position-biased against them, so their
            // weights stay at the trusted prior (see TrainConfig docs).
            // λ anchors the free weights to the prior (train_anchored);
            // position-biased pair noise then cannot drag the model far.
            train_cfg: TrainConfig {
                frozen_mask: 0b1001,
                lambda: 0.15,
                ..TrainConfig::default()
            },
            retrain_every: 5,
            max_pairs_per_user: 2000,
        }
    }
}

impl EngineConfig {
    /// The configuration for a given evaluation variant.
    pub fn for_mode(mode: PersonalizationMode) -> Self {
        EngineConfig { mode, ..Default::default() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_dimension_flags() {
        assert!(!PersonalizationMode::Baseline.uses_content());
        assert!(!PersonalizationMode::Baseline.uses_location());
        assert!(PersonalizationMode::ContentOnly.uses_content());
        assert!(!PersonalizationMode::ContentOnly.uses_location());
        assert!(!PersonalizationMode::LocationOnly.uses_content());
        assert!(PersonalizationMode::LocationOnly.uses_location());
        assert!(PersonalizationMode::Combined.uses_content());
        assert!(PersonalizationMode::Combined.uses_location());
    }

    #[test]
    fn labels_are_distinct() {
        let labels = [
            PersonalizationMode::Baseline.label(),
            PersonalizationMode::ContentOnly.label(),
            PersonalizationMode::LocationOnly.label(),
            PersonalizationMode::Combined.label(),
        ];
        let mut sorted = labels.to_vec();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), 4);
    }

    #[test]
    fn default_config_is_sane() {
        let c = EngineConfig::default();
        assert!(c.rerank_pool >= c.top_k);
        assert!(c.retrain_every > 0);
        assert_eq!(c.mode, PersonalizationMode::Combined);
    }
}
