//! The location-preference profile.
//!
//! Weights over the location ontology, mined from clicks exactly like the
//! content profile — with one extra mechanism: **ancestor propagation**.
//! Clicked mass on a city flows up to its state/country with decay, so the
//! profile answers coarser-grained questions ("does this user care about
//! anything in ardonia?") even when every click was city-level.

use pws_click::Impression;
use pws_concepts::QueryConceptOntology;
use pws_geo::{LocId, LocationOntology};
use std::cell::OnceCell;
use std::collections::HashMap;

/// Profile update parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct LocationProfileConfig {
    /// Mass added per clicked location concept, scaled by (1 + dwell grade).
    pub click_weight: f64,
    /// Mass subtracted per skipped location concept.
    pub skip_penalty: f64,
    /// Per-level decay when propagating clicked mass to ancestors
    /// (0 disables propagation).
    pub ancestor_decay: f64,
    /// Multiplicative decay applied before each observation.
    pub decay: f64,
    /// Minimum dwell grade for a click to count as positive evidence
    /// (SAT-click filtering: 1 drops bounce clicks, 0 counts every click).
    pub min_dwell_grade: u32,
}

impl Default for LocationProfileConfig {
    fn default() -> Self {
        LocationProfileConfig {
            click_weight: 1.0,
            skip_penalty: 0.5,
            ancestor_decay: 0.4,
            decay: 0.995,
            min_dwell_grade: 1,
        }
    }
}

/// Weights over ontology nodes for one user.
#[derive(Debug, Clone, Default)]
pub struct LocationProfile {
    weights: HashMap<LocId, f64>,
    observations: u64,
}

impl LocationProfile {
    /// Fresh, empty profile.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of impressions observed.
    pub fn observations(&self) -> u64 {
        self.observations
    }

    /// Number of nodes with non-zero weight.
    pub fn len(&self) -> usize {
        self.weights.len()
    }

    /// True when nothing has been learned yet.
    pub fn is_empty(&self) -> bool {
        self.weights.is_empty()
    }

    /// Current weight of a node (0 when unseen).
    pub fn weight(&self, loc: LocId) -> f64 {
        self.weights.get(&loc).copied().unwrap_or(0.0)
    }

    /// All `(loc, weight)` entries in ascending id order — the canonical
    /// vector view used by persistence and quantization (`pws-store`).
    pub fn weight_entries(&self) -> Vec<(LocId, f64)> {
        let mut v: Vec<(LocId, f64)> = self.weights.iter().map(|(l, w)| (*l, *w)).collect();
        v.sort_by_key(|(l, _)| *l);
        v
    }

    /// Rebuild a profile from `(loc, weight)` entries and an observation
    /// count — the inverse of [`Self::weight_entries`]. Duplicate ids sum.
    pub fn from_entries(entries: Vec<(LocId, f64)>, observations: u64) -> Self {
        let mut weights = HashMap::with_capacity(entries.len());
        for (l, w) in entries {
            *weights.entry(l).or_insert(0.0) += w;
        }
        LocationProfile { weights, observations }
    }

    /// The `k` highest-weighted locations, descending, ties by id.
    pub fn top_locations(&self, k: usize) -> Vec<(LocId, f64)> {
        let mut v: Vec<(LocId, f64)> = self.weights.iter().map(|(l, w)| (*l, *w)).collect();
        v.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.0.cmp(&b.0))
        });
        v.truncate(k);
        v
    }

    /// The single most-preferred *city*, if any city has positive weight.
    /// This is the profile's best estimate of the user's implicit location
    /// intent — what the engine appends to location-sensitive queries.
    pub fn preferred_city(&self, world: &LocationOntology) -> Option<LocId> {
        self.weights
            .iter()
            .filter(|(l, w)| **w > 0.0 && world.level(**l) == pws_geo::Level::City)
            .max_by(|a, b| {
                a.1.partial_cmp(b.1)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then_with(|| b.0.cmp(a.0))
            })
            .map(|(l, _)| *l)
    }

    /// Fold one impression into the profile.
    pub fn observe(
        &mut self,
        onto: &QueryConceptOntology,
        imp: &Impression,
        world: &LocationOntology,
        cfg: &LocationProfileConfig,
    ) {
        if cfg.decay < 1.0 {
            for w in self.weights.values_mut() {
                *w *= cfg.decay;
            }
        }

        for click in &imp.clicks {
            if click.dwell_grade() < cfg.min_dwell_grade {
                continue;
            }
            let idx = click.rank - 1;
            let Some(locs) = onto.locations_by_snippet.get(idx) else { continue };
            let strength = cfg.click_weight * (1.0 + f64::from(click.dwell_grade()));
            for &li in locs {
                // Discriminativeness scaling, as in the content profile: a
                // place named in every snippet carries no preference signal.
                let disc = (1.0 - onto.locations[li].support).clamp(0.0, 1.0);
                if disc == 0.0 {
                    continue;
                }
                let strength = strength * disc;
                let loc = onto.locations[li].loc;
                *self.weights.entry(loc).or_insert(0.0) += strength;
                if cfg.ancestor_decay > 0.0 {
                    let mut mass = strength * cfg.ancestor_decay;
                    for anc in world.ancestors(loc).into_iter().skip(1) {
                        if anc == LocId::WORLD {
                            break;
                        }
                        *self.weights.entry(anc).or_insert(0.0) += mass;
                        mass *= cfg.ancestor_decay;
                    }
                }
            }
        }

        for skipped in imp.skipped() {
            let idx = skipped.rank - 1;
            let Some(locs) = onto.locations_by_snippet.get(idx) else { continue };
            for &li in locs {
                let disc = (1.0 - onto.locations[li].support).clamp(0.0, 1.0);
                let loc = onto.locations[li].loc;
                *self.weights.entry(loc).or_insert(0.0) -= cfg.skip_penalty * disc;
            }
        }

        self.weights.retain(|_, w| w.abs() > 1e-9);
        self.observations += 1;
    }

    /// Borrowed scoring view with the profile's L1 mass computed once
    /// (and, on first geo use, the id-sorted entry list). Build one per
    /// (user, query) and score every result through it: per-result cost
    /// is then free of any sort over the profile.
    pub fn scorer(&self) -> LocationScorer<'_> {
        // Summed in sorted order so the value is identical for logically
        // equal profiles regardless of the map's per-instance iteration
        // order (replay determinism).
        LocationScorer {
            profile: self,
            l1: crate::sorted_l1(self.weights.values().copied()),
            entries: OnceCell::new(),
        }
    }

    /// Preference score of a result given the locations mentioned in its
    /// snippet: the sum of their weights, normalized by the profile's L1
    /// mass. Empty profile → 0 (neutral). One-shot form of
    /// [`LocationScorer::score`].
    pub fn score_locations(&self, locs: impl Iterator<Item = LocId>) -> f64 {
        self.scorer().score(locs)
    }

    /// Geo-aware preference score: each profile entry endorses a snippet
    /// location in proportion to physical proximity,
    /// `Σ_e w(e) · exp(−dist(e, l)/scale_km)`, normalized by L1 mass.
    /// With `scale_km → 0` this degenerates to [`Self::score_locations`];
    /// with larger scales a preference for one city also mildly endorses
    /// its geographic neighbours (the GPS extension of the framework).
    /// One-shot form of [`LocationScorer::score_geo`].
    pub fn score_locations_geo(
        &self,
        locs: impl Iterator<Item = LocId>,
        coords: &pws_geo::WorldCoords,
        scale_km: f64,
    ) -> f64 {
        self.scorer().score_geo(locs, coords, scale_km)
    }
}

/// A [`LocationProfile`] prepared for scoring many results: the profile,
/// its L1 mass, and the entry list the geo kernel walks (see
/// [`LocationProfile::scorer`]).
#[derive(Debug)]
pub struct LocationScorer<'p> {
    profile: &'p LocationProfile,
    l1: f64,
    /// `weight_entries()`, built by the first geo score.
    entries: OnceCell<Vec<(LocId, f64)>>,
}

impl LocationScorer<'_> {
    /// Sum of the weights of `locs`, normalized by the profile's L1
    /// mass; 0 when the profile has no mass.
    pub fn score(&self, locs: impl Iterator<Item = LocId>) -> f64 {
        if self.l1 == 0.0 {
            return 0.0;
        }
        locs.map(|l| self.profile.weight(l)).sum::<f64>() / self.l1
    }

    /// Proximity-smoothed score (see
    /// [`LocationProfile::score_locations_geo`]).
    pub fn score_geo(
        &self,
        locs: impl Iterator<Item = LocId>,
        coords: &pws_geo::WorldCoords,
        scale_km: f64,
    ) -> f64 {
        if self.l1 == 0.0 {
            return 0.0;
        }
        // Entries in id order: the kernel sum must not depend on the map
        // instance's iteration order (replay determinism).
        let entries = self.entries.get_or_init(|| {
            #[cfg(test)]
            crate::counters::ENTRY_SORTS.with(|n| n.set(n.get() + 1));
            self.profile.weight_entries()
        });
        let mut total = 0.0;
        for l in locs {
            for &(e, w) in entries {
                total += w * coords.proximity(e, l, scale_km);
            }
        }
        total / self.l1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pws_click::{Click, ShownResult, UserId};
    use pws_concepts::{ConceptConfig, LocationConceptConfig};
    use pws_corpus::query::QueryId;
    use pws_geo::LocationMatcher;

    fn world() -> (LocationOntology, LocId, LocId, LocId, LocId, LocId) {
        let mut o = LocationOntology::new();
        let r = o.add(LocId::WORLD, "westland", vec![]);
        let c = o.add(r, "ardonia", vec![]);
        let s = o.add(c, "vale", vec![]);
        let city1 = o.add(s, "alden", vec![]);
        let city2 = o.add(s, "lakemoor", vec![]);
        (o, r, c, s, city1, city2)
    }

    fn ontology(world: &LocationOntology, snippets: &[&str]) -> QueryConceptOntology {
        let m = LocationMatcher::build(world);
        let snips: Vec<String> = snippets.iter().map(|s| s.to_string()).collect();
        QueryConceptOntology::extract(
            "restaurant",
            &snips,
            &m,
            world,
            &ConceptConfig { min_support: 0.0, min_snippet_freq: 1, bigrams: false, max_concepts: 50 },
            &LocationConceptConfig { min_support: 0.0, ..Default::default() },
        )
    }

    fn impression(snippets: &[&str], clicks: Vec<(usize, u32)>) -> Impression {
        Impression {
            user: UserId(0),
            query: QueryId(0),
            query_text: "restaurant".into(),
            results: snippets
                .iter()
                .enumerate()
                .map(|(i, s)| ShownResult {
                    doc: i as u32,
                    rank: i + 1,
                    url: format!("u{i}"),
                    title: "t".into(),
                    snippet: s.to_string(),
                })
                .collect(),
            clicks: clicks
                .into_iter()
                .map(|(rank, dwell)| Click { doc: (rank - 1) as u32, rank, dwell })
                .collect(),
        }
    }

    fn cfg() -> LocationProfileConfig {
        LocationProfileConfig { ancestor_decay: 0.0, decay: 1.0, ..Default::default() }
    }

    #[test]
    fn clicked_city_gains_weight() {
        let (w, _, _, _, city1, city2) = world();
        let snippets = ["seafood in alden", "hotels in lakemoor"];
        let onto = ontology(&w, &snippets);
        let mut p = LocationProfile::new();
        p.observe(&onto, &impression(&snippets, vec![(1, 500)]), &w, &cfg());
        assert!(p.weight(city1) > 0.0);
        assert_eq!(p.weight(city2), 0.0);
    }

    #[test]
    fn ancestor_propagation() {
        let (w, r, c, s, city1, _) = world();
        let snippets = ["seafood in alden", "other text"];
        let onto = ontology(&w, &snippets);
        let mut p = LocationProfile::new();
        let conf = LocationProfileConfig { ancestor_decay: 0.5, decay: 1.0, ..Default::default() };
        p.observe(&onto, &impression(&snippets, vec![(1, 500)]), &w, &conf);
        // Note the extraction already rolled up ancestors into the snippet's
        // location list; the profile adds its own propagation on top. The
        // key invariant: weight decreases monotonically up the chain.
        assert!(p.weight(city1) > p.weight(s));
        assert!(p.weight(s) > p.weight(c));
        assert!(p.weight(c) >= p.weight(r));
        assert!(p.weight(r) > 0.0);
    }

    #[test]
    fn skipped_city_penalized() {
        let (w, _, _, _, city1, city2) = world();
        let snippets = ["lakemoor special", "alden seafood"];
        let onto = ontology(&w, &snippets);
        let mut p = LocationProfile::new();
        p.observe(&onto, &impression(&snippets, vec![(2, 500)]), &w, &cfg());
        assert!(p.weight(city2) < 0.0, "skipped lakemoor should be negative");
        assert!(p.weight(city1) > 0.0);
    }

    #[test]
    fn preferred_city_is_top_positive_city() {
        let (w, _, _, _, city1, city2) = world();
        let snippets = ["alden dinner", "alden lunch", "lakemoor brunch"];
        let onto = ontology(&w, &snippets);
        let mut p = LocationProfile::new();
        p.observe(&onto, &impression(&snippets, vec![(1, 500), (2, 500)]), &w, &cfg());
        assert_eq!(p.preferred_city(&w), Some(city1));
        assert_ne!(p.preferred_city(&w), Some(city2));
    }

    #[test]
    fn preferred_city_ignores_non_city_weight() {
        let (w, _, c, _, _, _) = world();
        let snippets = ["ardonia national news", "x"];
        let onto = ontology(&w, &snippets);
        let mut p = LocationProfile::new();
        p.observe(&onto, &impression(&snippets, vec![(1, 500)]), &w, &cfg());
        assert!(p.weight(c) > 0.0);
        // Only country-level weight exists (extraction rollup is bottom-up
        // only), so no preferred *city*.
        assert_eq!(p.preferred_city(&w), None);
    }

    #[test]
    fn empty_profile_neutral() {
        let (w, ..) = world();
        let p = LocationProfile::new();
        assert_eq!(p.preferred_city(&w), None);
        assert_eq!(p.score_locations([LocId(1)].into_iter()), 0.0);
    }

    #[test]
    fn score_locations_signed_and_normalized() {
        let (w, _, _, _, city1, city2) = world();
        let snippets = ["lakemoor special", "alden seafood"];
        let onto = ontology(&w, &snippets);
        let mut p = LocationProfile::new();
        p.observe(&onto, &impression(&snippets, vec![(2, 500)]), &w, &cfg());
        let pos = p.score_locations([city1].into_iter());
        let neg = p.score_locations([city2].into_iter());
        assert!(pos > 0.0 && pos <= 1.0);
        assert!((-1.0..0.0).contains(&neg));
    }

    #[test]
    fn geo_scoring_smooths_over_distance() {
        let (w, _, _, _, city1, city2) = world();
        let coords = pws_geo::WorldCoords::generate(&w, 1);
        let snippets = ["alden dinner", "x"];
        let onto = ontology(&w, &snippets);
        let mut p = LocationProfile::new();
        p.observe(&onto, &impression(&snippets, vec![(1, 500)]), &w, &cfg());
        // Exact scorer gives city2 zero; geo scorer gives it positive mass
        // proportional to proximity to the preferred city1.
        assert_eq!(p.score_locations([city2].into_iter()), 0.0);
        let geo = p.score_locations_geo([city2].into_iter(), &coords, 10_000.0);
        assert!(geo > 0.0, "broad kernel should endorse nearby city");
        // The preferred city itself always scores at least as high.
        let self_geo = p.score_locations_geo([city1].into_iter(), &coords, 10_000.0);
        assert!(self_geo >= geo);
        // A vanishing kernel degenerates towards the exact scorer.
        let tight = p.score_locations_geo([city2].into_iter(), &coords, 0.001);
        assert!(tight.abs() < 1e-6);
    }

    #[test]
    fn decay_forgets() {
        let (w, _, _, _, city1, _) = world();
        let snippets = ["alden dinner", "x"];
        let onto = ontology(&w, &snippets);
        let mut p = LocationProfile::new();
        let conf = LocationProfileConfig { decay: 0.5, ancestor_decay: 0.0, ..Default::default() };
        p.observe(&onto, &impression(&snippets, vec![(1, 500)]), &w, &conf);
        let w1 = p.weight(city1);
        let snippets2 = ["nothing here", "still nothing"];
        let onto2 = ontology(&w, &snippets2);
        p.observe(&onto2, &impression(&snippets2, vec![]), &w, &conf);
        assert!((p.weight(city1) - w1 * 0.5).abs() < 1e-9);
    }
}
