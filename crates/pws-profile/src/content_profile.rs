//! The content-preference profile.

use pws_click::Impression;
use pws_concepts::QueryConceptOntology;
use std::collections::HashMap;

/// Profile update parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct ContentProfileConfig {
    /// Mass added per clicked concept, scaled by (1 + dwell grade).
    pub click_weight: f64,
    /// Mass subtracted per skipped concept.
    pub skip_penalty: f64,
    /// Fraction of clicked mass spread to graph neighbors (0 disables the
    /// expansion — the GCS ablation of F7).
    pub graph_damping: f64,
    /// Multiplicative decay applied to all weights before each observation
    /// (1.0 = no forgetting).
    pub decay: f64,
    /// Minimum dwell grade for a click to count as positive evidence
    /// (SAT-click filtering: 1 drops bounce clicks, 0 counts every click).
    pub min_dwell_grade: u32,
}

impl Default for ContentProfileConfig {
    fn default() -> Self {
        ContentProfileConfig {
            click_weight: 1.0,
            skip_penalty: 0.5,
            graph_damping: 0.1,
            decay: 0.995,
            min_dwell_grade: 1,
        }
    }
}

/// Weights over content-concept terms for one user.
///
/// Weights may be negative (persistently skipped concepts); scoring
/// normalizes by the profile's L1 mass so scores stay comparable as the
/// profile grows.
#[derive(Debug, Clone, Default)]
pub struct ContentProfile {
    weights: HashMap<String, f64>,
    /// Number of observations folded in (for diagnostics/cold-start logic).
    observations: u64,
}

impl ContentProfile {
    /// Fresh, empty profile.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of impressions observed.
    pub fn observations(&self) -> u64 {
        self.observations
    }

    /// Number of concepts with non-zero weight.
    pub fn len(&self) -> usize {
        self.weights.len()
    }

    /// True when nothing has been learned yet.
    pub fn is_empty(&self) -> bool {
        self.weights.is_empty()
    }

    /// Current weight of a concept term (0 when unseen).
    pub fn weight(&self, term: &str) -> f64 {
        self.weights.get(term).copied().unwrap_or(0.0)
    }

    /// All `(term, weight)` entries in ascending term order — the
    /// canonical vector view used by persistence and quantization
    /// (`pws-store`): sorted order makes encoded bytes independent of the
    /// map instance's iteration order.
    pub fn weight_entries(&self) -> Vec<(String, f64)> {
        let mut v: Vec<(String, f64)> =
            self.weights.iter().map(|(t, w)| (t.clone(), *w)).collect();
        v.sort_by(|a, b| a.0.cmp(&b.0));
        v
    }

    /// Rebuild a profile from `(term, weight)` entries and an observation
    /// count — the inverse of [`Self::weight_entries`], used when a stored
    /// record is faulted back in. Duplicate terms sum.
    pub fn from_entries(entries: Vec<(String, f64)>, observations: u64) -> Self {
        let mut weights = HashMap::with_capacity(entries.len());
        for (t, w) in entries {
            *weights.entry(t).or_insert(0.0) += w;
        }
        ContentProfile { weights, observations }
    }

    /// The `k` highest-weighted concepts, descending, ties by term.
    pub fn top_concepts(&self, k: usize) -> Vec<(String, f64)> {
        let mut v: Vec<(String, f64)> =
            self.weights.iter().map(|(t, w)| (t.clone(), *w)).collect();
        v.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.0.cmp(&b.0))
        });
        v.truncate(k);
        v
    }

    /// Fold one impression into the profile.
    ///
    /// `onto` must be the concept ontology extracted from this impression's
    /// snippets (indices in `onto.content_by_snippet` align with
    /// `imp.results` order).
    pub fn observe(
        &mut self,
        onto: &QueryConceptOntology,
        imp: &Impression,
        cfg: &ContentProfileConfig,
    ) {
        // Forgetting.
        if cfg.decay < 1.0 {
            for w in self.weights.values_mut() {
                *w *= cfg.decay;
            }
        }

        // Positive signal: clicks, scaled by dwell satisfaction. Bounce
        // clicks (dwell grade below the SAT threshold) carry no positive
        // evidence — they are navigation noise, not preference.
        //
        // Each concept's update is further scaled by `1 − support`: a
        // concept present in (nearly) every snippet of the page — filler
        // like "best" or "guide" — is clicked whenever *anything* is
        // clicked and carries no preference information; without this
        // factor such concepts drown the discriminative ones.
        for click in &imp.clicks {
            if click.dwell_grade() < cfg.min_dwell_grade {
                continue;
            }
            let idx = click.rank - 1;
            let Some(concepts) = onto.content_by_snippet.get(idx) else { continue };
            let strength = cfg.click_weight * (1.0 + f64::from(click.dwell_grade()));
            for &ci in concepts {
                let disc = (1.0 - onto.content[ci].support).clamp(0.0, 1.0);
                if disc == 0.0 {
                    continue;
                }
                let term = &onto.content[ci].term;
                *self.weights.entry(term.clone()).or_insert(0.0) += strength * disc;
                // Concept-graph expansion.
                if cfg.graph_damping > 0.0 {
                    for (cj, mass) in onto.spread(ci, strength * disc, cfg.graph_damping) {
                        let t = &onto.content[cj].term;
                        *self.weights.entry(t.clone()).or_insert(0.0) += mass;
                    }
                }
            }
        }

        // Negative signal: skip-above documents, same discriminativeness
        // scaling.
        for skipped in imp.skipped() {
            let idx = skipped.rank - 1;
            let Some(concepts) = onto.content_by_snippet.get(idx) else { continue };
            for &ci in concepts {
                let disc = (1.0 - onto.content[ci].support).clamp(0.0, 1.0);
                let term = &onto.content[ci].term;
                *self.weights.entry(term.clone()).or_insert(0.0) -= cfg.skip_penalty * disc;
            }
        }

        // Drop vanished weights to keep the profile compact.
        self.weights.retain(|_, w| w.abs() > 1e-9);
        self.observations += 1;
    }

    /// Borrowed scoring view with the profile's L1 mass computed once.
    /// Build one per (user, query) and score every result through it:
    /// per-result cost is then independent of the profile's size.
    pub fn scorer(&self) -> ContentScorer<'_> {
        // Summed in sorted order so the value is identical for logically
        // equal profiles regardless of the map's per-instance iteration
        // order (replay determinism).
        ContentScorer { profile: self, l1: crate::sorted_l1(self.weights.values().copied()) }
    }

    /// Preference score of a snippet given the concepts present in it:
    /// the sum of their weights, normalized by the profile's L1 mass.
    /// Returns 0 for an empty profile (cold start → neutral). One-shot
    /// form of [`ContentScorer::score`].
    pub fn score_concepts<'a>(&self, terms: impl Iterator<Item = &'a str>) -> f64 {
        self.scorer().score(terms)
    }
}

/// A [`ContentProfile`] prepared for scoring many snippets: the profile
/// plus its L1 mass (see [`ContentProfile::scorer`]).
#[derive(Debug)]
pub struct ContentScorer<'p> {
    profile: &'p ContentProfile,
    l1: f64,
}

impl ContentScorer<'_> {
    /// Sum of the weights of `terms`, normalized by the profile's L1
    /// mass; 0 when the profile has no mass.
    pub fn score<'a>(&self, terms: impl Iterator<Item = &'a str>) -> f64 {
        if self.l1 == 0.0 {
            return 0.0;
        }
        terms.map(|t| self.profile.weight(t)).sum::<f64>() / self.l1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pws_click::{Click, ShownResult};
    use pws_click::UserId;
    use pws_concepts::{ConceptConfig, LocationConceptConfig};
    use pws_corpus::query::QueryId;
    use pws_geo::{LocId, LocationMatcher, LocationOntology};

    fn world() -> LocationOntology {
        let mut o = LocationOntology::new();
        let r = o.add(LocId::WORLD, "westland", vec![]);
        let c = o.add(r, "ardonia", vec![]);
        let s = o.add(c, "vale", vec![]);
        o.add(s, "alden", vec![]);
        o
    }

    fn ontology(snippets: &[&str]) -> QueryConceptOntology {
        let w = world();
        let m = LocationMatcher::build(&w);
        let snips: Vec<String> = snippets.iter().map(|s| s.to_string()).collect();
        QueryConceptOntology::extract(
            "restaurant",
            &snips,
            &m,
            &w,
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

    fn cfg() -> ContentProfileConfig {
        ContentProfileConfig { graph_damping: 0.0, decay: 1.0, ..Default::default() }
    }

    #[test]
    fn clicks_add_positive_weight() {
        let snippets = ["seafood lobster", "sushi bar"];
        let onto = ontology(&snippets);
        let imp = impression(&snippets, vec![(1, 500)]);
        let mut p = ContentProfile::new();
        p.observe(&onto, &imp, &cfg());
        assert!(p.weight("seafood") > 0.0);
        assert!(p.weight("lobster") > 0.0);
        assert_eq!(p.weight("sushi"), 0.0);
        assert_eq!(p.observations(), 1);
    }

    #[test]
    fn dwell_scales_click_strength() {
        let snippets = ["seafood platter", "filler text"];
        let onto = ontology(&snippets);
        let mut weak = ContentProfile::new();
        weak.observe(&onto, &impression(&snippets, vec![(1, 10)]), &cfg());
        let mut strong = ContentProfile::new();
        strong.observe(&onto, &impression(&snippets, vec![(1, 900)]), &cfg());
        assert!(strong.weight("seafood") > weak.weight("seafood"));
    }

    #[test]
    fn skipped_results_get_penalized() {
        let snippets = ["sushi bar", "seafood lobster"];
        let onto = ontology(&snippets);
        // Click rank 2, skip rank 1.
        let imp = impression(&snippets, vec![(2, 500)]);
        let mut p = ContentProfile::new();
        p.observe(&onto, &imp, &cfg());
        assert!(p.weight("sushi") < 0.0);
        assert!(p.weight("seafood") > 0.0);
    }

    #[test]
    fn graph_expansion_spreads_mass() {
        // seafood and lobster always co-occur → graph edge; clicking a
        // snippet with only one is impossible here, so craft snippets where
        // snippet 0 has both and check a third concept stays untouched.
        let snippets = ["seafood lobster", "seafood lobster", "sushi bar"];
        let onto = ontology(&snippets);
        let imp = impression(&snippets, vec![(1, 500)]);
        let mut no_graph = ContentProfile::new();
        no_graph.observe(&onto, &imp, &cfg());
        let mut with_graph = ContentProfile::new();
        with_graph.observe(
            &onto,
            &imp,
            &ContentProfileConfig { graph_damping: 0.5, decay: 1.0, ..Default::default() },
        );
        // With expansion, co-occurring concepts reinforce each other.
        assert!(with_graph.weight("seafood") > no_graph.weight("seafood"));
        assert_eq!(with_graph.weight("sushi"), 0.0);
    }

    #[test]
    fn decay_forgets_old_mass() {
        let snippets = ["seafood platter", "x y"];
        let onto = ontology(&snippets);
        let imp = impression(&snippets, vec![(1, 500)]);
        let mut p = ContentProfile::new();
        let c = ContentProfileConfig { decay: 0.5, graph_damping: 0.0, ..Default::default() };
        p.observe(&onto, &imp, &c);
        let w1 = p.weight("seafood");
        // Observe an unrelated impression: seafood mass should halve.
        let snippets2 = ["unrelated things", "more unrelated"];
        let onto2 = ontology(&snippets2);
        let imp2 = impression(&snippets2, vec![]);
        p.observe(&onto2, &imp2, &c);
        assert!((p.weight("seafood") - w1 * 0.5).abs() < 1e-9);
    }

    #[test]
    fn score_concepts_is_normalized_and_signed() {
        let snippets = ["seafood lobster", "sushi bar"];
        let onto = ontology(&snippets);
        let imp = impression(&snippets, vec![(2, 500)]); // skip 1, click 2... wait
        // Clicking rank 2 ("sushi bar") and skipping rank 1.
        let mut p = ContentProfile::new();
        p.observe(&onto, &imp, &cfg());
        let pos = p.score_concepts(["sushi"].into_iter());
        let neg = p.score_concepts(["seafood"].into_iter());
        assert!(pos > 0.0);
        assert!(neg < 0.0);
        assert!(pos <= 1.0 && neg >= -1.0);
    }

    #[test]
    fn empty_profile_scores_zero() {
        let p = ContentProfile::new();
        assert_eq!(p.score_concepts(["anything"].into_iter()), 0.0);
        assert!(p.is_empty());
    }

    #[test]
    fn top_concepts_ordering() {
        let snippets = ["seafood seafood lobster", "seafood crab"];
        let onto = ontology(&snippets);
        let mut p = ContentProfile::new();
        p.observe(&onto, &impression(&snippets, vec![(1, 500), (2, 500)]), &cfg());
        let top = p.top_concepts(2);
        assert_eq!(top.len(), 2);
        assert!(top[0].1 >= top[1].1);
        // "seafood" appears in every snippet (support 1.0) → it is
        // non-discriminative and receives no mass; the subtopic angles do.
        assert_eq!(p.weight("seafood"), 0.0);
        assert!(p.weight("lobster") > 0.0);
        assert!(p.weight("crab") > 0.0);
    }

    #[test]
    fn ubiquitous_concepts_receive_no_mass() {
        let snippets = ["filler seafood", "filler sushi"];
        let onto = ontology(&snippets);
        let mut p = ContentProfile::new();
        p.observe(&onto, &impression(&snippets, vec![(1, 500)]), &cfg());
        assert_eq!(p.weight("filler"), 0.0, "support-1.0 concept must stay at 0");
        assert!(p.weight("seafood") > 0.0);
    }
}
