//! # pws-profile — ontology-based user profiles from clickthrough
//!
//! The paper's central data structure: per-user preference profiles over
//! the two concept spaces, mined from clicks.
//!
//! * [`content_profile::ContentProfile`] — weights over content concepts.
//!   A click on a result adds (dwell-scaled) positive mass to the concepts
//!   visible in its snippet and spreads a fraction to related concepts via
//!   the concept graph; a *skip* (unclicked result above the deepest click,
//!   Joachims' skip-above) subtracts mass.
//! * [`location_profile::LocationProfile`] — weights over the location
//!   ontology. Clicked mass propagates up the ontology with decay, so a
//!   user who clicks "port alden" results also mildly prefers "north vale".
//! * [`history::UserHistory`] — clicked URL/domain counts, feeding the
//!   revisit features.
//! * [`features::FeatureExtractor`] — assembles the per-result feature
//!   vectors (baseline score, content score, location score, rank prior,
//!   title match, revisit signals) the RankSVM ranks with.
//! * [`pairs`] — preference-pair mining (click ≻ skip-above) that turns an
//!   impression into RankSVM training pairs.

pub mod content_profile;
pub mod features;
pub mod history;
pub mod location_profile;
pub mod pairs;
pub mod spynb;

pub use content_profile::{ContentProfile, ContentProfileConfig, ContentScorer};
pub use features::{
    FeatureExtractor, GeoContext, PreparedFeatures, ResultFeatureInput, FEATURE_DIM, FEATURE_NAMES,
};
pub use history::UserHistory;
pub use location_profile::{LocationProfile, LocationProfileConfig, LocationScorer};
pub use pairs::{mine_pairs, PairMiningConfig};
pub use spynb::{mine_spynb_pairs, SpyNbConfig};

/// Sum of absolute values, accumulated in sorted order.
///
/// Floating-point addition is not associative, so summing a `HashMap`'s
/// values in iteration order makes the result depend on the particular
/// map *instance* (std maps seed their hasher per instance). Profile
/// scoring normalizes by L1 mass; computing that mass through this
/// helper keeps scores bit-identical for logically equal profiles —
/// the property the serial-vs-sharded replay equivalence tests pin.
pub(crate) fn sorted_l1(values: impl Iterator<Item = f64>) -> f64 {
    #[cfg(test)]
    counters::L1_SORTS.with(|n| n.set(n.get() + 1));
    let mut v: Vec<f64> = values.map(f64::abs).collect();
    v.sort_by(f64::total_cmp);
    v.iter().sum()
}

#[cfg(test)]
pub(crate) mod counters {
    use std::cell::Cell;
    thread_local! {
        /// `sorted_l1` calls on this thread, so tests can count them exactly.
        pub(crate) static L1_SORTS: Cell<u64> = const { Cell::new(0) };
        /// Geo entry lists built (collected + sorted) on this thread.
        pub(crate) static ENTRY_SORTS: Cell<u64> = const { Cell::new(0) };
    }
}
