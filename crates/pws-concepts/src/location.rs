//! Location-concept extraction.
//!
//! Snippets are scanned with the [`pws_geo::LocationMatcher`]; each matched
//! place contributes snippet-frequency support, exactly like content
//! concepts. Additionally, support is *rolled up* the ontology with a decay
//! factor: a snippet naming "port alden" also weakly evidences "north vale"
//! (its state) and "ardonia" (its country). Rollup is what lets a location
//! profile built from city-level clicks answer state-level questions —
//! and is ablated in experiment F7.

use crate::snippet::SnippetAnalysis;
use pws_geo::{LocId, LocationOntology};
use serde::{Deserialize, Serialize};
use std::borrow::Borrow;

/// Extraction parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct LocationConceptConfig {
    /// Minimum rolled-up support to keep a concept.
    pub min_support: f64,
    /// Per-level decay applied when propagating a match to its ancestor
    /// (city→state multiplies by this once, city→country twice, …).
    pub rollup_decay: f64,
    /// Enable ancestor rollup at all (F7 ablation switch).
    pub rollup: bool,
}

impl Default for LocationConceptConfig {
    fn default() -> Self {
        LocationConceptConfig { min_support: 0.05, rollup_decay: 0.5, rollup: true }
    }
}

/// One extracted location concept.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LocationConcept {
    /// The ontology node.
    pub loc: LocId,
    /// Rolled-up support mass (fraction of snippets, decayed for
    /// ancestor-derived mass). Direct mentions contribute 1 per snippet.
    pub support: f64,
    /// Number of snippets mentioning this node *directly*.
    pub direct_freq: u32,
}

/// Count location concepts over the analysed snippets.
///
/// Sorted by descending support, ties by `LocId` (deterministic). Mass is
/// accumulated snippet by snippet, place by place in order of first
/// appearance, ancestors nearest first — the order is part of the
/// contract, because `f64` addition is not associative.
pub(crate) fn count_locations<S: Borrow<SnippetAnalysis>>(
    analyses: &[S],
    world: &LocationOntology,
    cfg: &LocationConceptConfig,
) -> Vec<LocationConcept> {
    let n = analyses.len() as f64;
    // (place, rolled-up mass, direct snippet count) in order of first sight.
    // A pool names a few dozen places at most, ancestors included, so a
    // scan finds one faster than a hash would.
    let mut tally: Vec<(LocId, f64, u32)> = Vec::new();
    fn entry(tally: &mut Vec<(LocId, f64, u32)>, loc: LocId) -> &mut (LocId, f64, u32) {
        let i = tally.iter().position(|t| t.0 == loc).unwrap_or_else(|| {
            tally.push((loc, 0.0, 0));
            tally.len() - 1
        });
        &mut tally[i]
    }

    for analysis in analyses {
        // Snippet-frequency semantics: each place counts once per snippet.
        for &loc in analysis.borrow().locations() {
            let direct = entry(&mut tally, loc);
            direct.1 += 1.0;
            direct.2 += 1;
            if cfg.rollup {
                let mut decay = cfg.rollup_decay;
                let mut anc = world.parent(loc);
                while let Some(a) = anc.filter(|&a| a != LocId::WORLD) {
                    entry(&mut tally, a).1 += decay;
                    decay *= cfg.rollup_decay;
                    anc = world.parent(a);
                }
            }
        }
    }

    let mut out: Vec<LocationConcept> = tally
        .into_iter()
        .filter_map(|(loc, mass, direct_freq)| {
            let support = mass / n;
            (support >= cfg.min_support).then_some(LocationConcept { loc, support, direct_freq })
        })
        .collect();
    out.sort_unstable_by(|a, b| {
        b.support
            .partial_cmp(&a.support)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.loc.cmp(&b.loc))
    });
    out
}

/// For each snippet, the indices into `locations` of the places it names,
/// ascending.
pub(crate) fn locations_by_snippet<S: Borrow<SnippetAnalysis>>(
    analyses: &[S],
    locations: &[LocationConcept],
) -> Vec<Vec<usize>> {
    analyses
        .iter()
        .map(|analysis| {
            let mut present: Vec<usize> = analysis
                .borrow()
                .locations()
                .iter()
                .filter_map(|loc| locations.iter().position(|lc| lc.loc == *loc))
                .collect();
            present.sort_unstable();
            present
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pws_geo::LocationMatcher;

    /// The location half of the pass over raw snippet text.
    fn extract_locations(
        snippets: &[String],
        matcher: &LocationMatcher,
        world: &LocationOntology,
        cfg: &LocationConceptConfig,
    ) -> Vec<LocationConcept> {
        let mut dict = crate::TermDict::new();
        let analyses: Vec<SnippetAnalysis> =
            snippets.iter().map(|s| SnippetAnalysis::new(s, matcher, &mut dict)).collect();
        count_locations(&analyses, world, cfg)
    }

    fn fixture() -> (LocationOntology, LocId, LocId, LocId, LocId) {
        let mut o = LocationOntology::new();
        let r = o.add(LocId::WORLD, "westland", vec![]);
        let c = o.add(r, "ardonia", vec![]);
        let s = o.add(c, "north vale", vec![]);
        let city = o.add(s, "port alden", vec![]);
        (o, r, c, s, city)
    }

    fn snips(texts: &[&str]) -> Vec<String> {
        texts.iter().map(|t| t.to_string()).collect()
    }

    #[test]
    fn empty_input() {
        let (o, ..) = fixture();
        let m = LocationMatcher::build(&o);
        assert!(extract_locations(&[], &m, &o, &LocationConceptConfig::default()).is_empty());
    }

    #[test]
    fn direct_mentions_counted_per_snippet() {
        let (o, _, _, _, city) = fixture();
        let m = LocationMatcher::build(&o);
        let s = snips(&["port alden port alden news", "no places here"]);
        let cfg = LocationConceptConfig { min_support: 0.0, ..Default::default() };
        let cs = extract_locations(&s, &m, &o, &cfg);
        let cc = cs.iter().find(|c| c.loc == city).unwrap();
        assert_eq!(cc.direct_freq, 1, "per-snippet counting");
        assert!((cc.support - 0.5).abs() < 1e-12);
    }

    #[test]
    fn rollup_propagates_decayed_mass() {
        let (o, r, c, s, city) = fixture();
        let m = LocationMatcher::build(&o);
        let sn = snips(&["visit port alden"]);
        let cfg = LocationConceptConfig { min_support: 0.0, rollup_decay: 0.5, rollup: true };
        let cs = extract_locations(&sn, &m, &o, &cfg);
        let get = |id| cs.iter().find(|x| x.loc == id).map(|x| x.support);
        assert_eq!(get(city), Some(1.0));
        assert_eq!(get(s), Some(0.5));
        assert_eq!(get(c), Some(0.25));
        assert_eq!(get(r), Some(0.125));
    }

    #[test]
    fn world_root_never_appears() {
        let (o, _, _, _, _) = fixture();
        let m = LocationMatcher::build(&o);
        let sn = snips(&["port alden and ardonia"]);
        let cfg = LocationConceptConfig { min_support: 0.0, ..Default::default() };
        let cs = extract_locations(&sn, &m, &o, &cfg);
        assert!(cs.iter().all(|c| c.loc != LocId::WORLD));
    }

    #[test]
    fn rollup_disabled_keeps_only_direct() {
        let (o, _, _, s, city) = fixture();
        let m = LocationMatcher::build(&o);
        let sn = snips(&["visit port alden"]);
        let cfg = LocationConceptConfig { min_support: 0.0, rollup: false, ..Default::default() };
        let cs = extract_locations(&sn, &m, &o, &cfg);
        assert!(cs.iter().any(|c| c.loc == city));
        assert!(!cs.iter().any(|c| c.loc == s));
    }

    #[test]
    fn direct_mention_of_ancestor_adds_full_mass() {
        let (o, _, c, _, city) = fixture();
        let m = LocationMatcher::build(&o);
        let sn = snips(&["port alden report", "ardonia election"]);
        let cfg = LocationConceptConfig { min_support: 0.0, rollup_decay: 0.5, rollup: true };
        let cs = extract_locations(&sn, &m, &o, &cfg);
        let country = cs.iter().find(|x| x.loc == c).unwrap();
        // 1.0 direct (snippet 2) + 0.25 rolled up from the city (snippet 1),
        // over n=2 snippets.
        assert!((country.support - 1.25 / 2.0).abs() < 1e-12);
        assert_eq!(country.direct_freq, 1);
        let ci = cs.iter().find(|x| x.loc == city).unwrap();
        assert!((ci.support - 0.5).abs() < 1e-12);
    }

    #[test]
    fn threshold_filters() {
        let (o, r, _, _, _) = fixture();
        let m = LocationMatcher::build(&o);
        let sn = snips(&["port alden", "x", "x", "x", "x", "x", "x", "x"]);
        let cfg = LocationConceptConfig { min_support: 0.1, rollup_decay: 0.5, rollup: true };
        let cs = extract_locations(&sn, &m, &o, &cfg);
        // City support 1/8 = 0.125 passes; region rollup 0.125/8 ≈ 0.016 does not.
        assert!(cs.iter().any(|c| o.level(c.loc) == pws_geo::Level::City));
        assert!(!cs.iter().any(|c| c.loc == r));
    }

    #[test]
    fn sorted_by_support_desc() {
        let (o, ..) = fixture();
        let m = LocationMatcher::build(&o);
        let sn = snips(&["port alden", "port alden", "ardonia"]);
        let cfg = LocationConceptConfig { min_support: 0.0, ..Default::default() };
        let cs = extract_locations(&sn, &m, &o, &cfg);
        for w in cs.windows(2) {
            assert!(w[0].support >= w[1].support);
        }
    }
}
