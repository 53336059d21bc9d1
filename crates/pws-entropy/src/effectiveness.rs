//! Personalization effectiveness and the content/location blend weight.
//!
//! High click entropy along a dimension ⇒ users disagree along that
//! dimension ⇒ personalizing that dimension can help. Effectiveness is the
//! normalized entropy, shrunk towards 0 when evidence is thin (few clicks):
//!
//! ```text
//! e = Ĥ · clicks / (clicks + k)
//! ```
//!
//! with `k` a smoothing pseudo-count. The blend weight
//! `β = e_loc / (e_content + e_loc)` is the *location share* of the
//! personalization signal; the engine scores results with
//! `(1−β)·content_pref + β·location_pref`.

use crate::stats::QueryStats;

/// Effectiveness estimation parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EffectivenessConfig {
    /// Pseudo-count `k` in the click-evidence shrinkage.
    pub evidence_k: f64,
    /// Minimum total effectiveness below which personalization is skipped
    /// entirely for the query (the "to personalize or not" switch).
    pub min_total: f64,
}

impl Default for EffectivenessConfig {
    fn default() -> Self {
        EffectivenessConfig { evidence_k: 5.0, min_total: 0.05 }
    }
}

/// Per-query effectiveness of the two personalization dimensions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Effectiveness {
    /// Content-personalization effectiveness in [0, 1].
    pub content: f64,
    /// Location-personalization effectiveness in [0, 1].
    pub location: f64,
}

impl Effectiveness {
    /// Estimate from accumulated click statistics.
    pub fn from_stats(stats: &QueryStats, cfg: &EffectivenessConfig) -> Self {
        let clicks = stats.clicks() as f64;
        let evidence = clicks / (clicks + cfg.evidence_k);
        Effectiveness {
            content: stats.normalized_content_entropy() * evidence,
            location: stats.normalized_location_entropy() * evidence,
        }
    }

    /// A neutral prior: both dimensions equally (and weakly) effective.
    pub fn neutral() -> Self {
        Effectiveness { content: 0.5, location: 0.5 }
    }

    /// Location share `β ∈ [0, 1]` of the personalization blend.
    /// When neither dimension shows effectiveness, fall back to 0.5.
    ///
    /// The raw share `e_l / (e_c + e_l)` is *sharpened* with
    /// `β²/(β² + (1−β)²)`: in the combined blend each dimension only gets
    /// half the weight it has in its specialized mode, so a query whose
    /// clicks clearly favour one dimension must allocate decisively to it,
    /// or the combined method is strictly weaker than the better
    /// single-dimension method on every query.
    pub fn beta(&self) -> f64 {
        let total = self.content + self.location;
        if total <= 0.0 {
            return 0.5;
        }
        let raw = (self.location / total).clamp(0.0, 1.0);
        let num = raw * raw;
        (num / (num + (1.0 - raw) * (1.0 - raw))).clamp(0.0, 1.0)
    }

    /// Should this query be personalized at all?
    pub fn should_personalize(&self, cfg: &EffectivenessConfig) -> bool {
        self.content + self.location >= cfg.min_total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn neutral_is_balanced() {
        let e = Effectiveness::neutral();
        assert_eq!(e.beta(), 0.5);
        assert!(e.should_personalize(&EffectivenessConfig::default()));
    }

    #[test]
    fn beta_reflects_dominant_dimension() {
        let loc_heavy = Effectiveness { content: 0.1, location: 0.9 };
        assert!(loc_heavy.beta() > 0.8);
        let content_heavy = Effectiveness { content: 0.9, location: 0.1 };
        assert!(content_heavy.beta() < 0.2);
    }

    #[test]
    fn zero_effectiveness_defaults_beta_half_and_skips() {
        let e = Effectiveness { content: 0.0, location: 0.0 };
        assert_eq!(e.beta(), 0.5);
        assert!(!e.should_personalize(&EffectivenessConfig::default()));
    }

    #[test]
    fn from_stats_shrinks_with_little_evidence() {
        // Hand-build stats via observe is exercised in stats tests; here we
        // check the shrinkage arithmetic through a fresh (empty) stats.
        let stats = QueryStats::new();
        let e = Effectiveness::from_stats(&stats, &EffectivenessConfig::default());
        assert_eq!(e.content, 0.0);
        assert_eq!(e.location, 0.0);
    }

    #[test]
    fn beta_always_in_unit_interval() {
        for (c, l) in [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (0.3, 0.7), (1.0, 1.0)] {
            let b = Effectiveness { content: c, location: l }.beta();
            assert!((0.0..=1.0).contains(&b), "beta({c},{l}) = {b}");
        }
    }
}
