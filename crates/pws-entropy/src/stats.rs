//! Per-query click-distribution accumulator.
//!
//! Collects, across all users and impressions of one query template, how
//! clicks distribute over URLs, content concepts, and location concepts.
//! Entropies of these distributions feed the effectiveness estimates.

use pws_click::Impression;
use pws_concepts::QueryConceptOntology;
use pws_geo::LocId;
use std::collections::HashMap;

/// Click distributions of one query template.
#[derive(Debug, Clone, Default)]
pub struct QueryStats {
    /// Clicks per URL.
    url_clicks: HashMap<String, f64>,
    /// Clicks per content-concept term.
    concept_clicks: HashMap<String, f64>,
    /// Clicks per location concept.
    location_clicks: HashMap<LocId, f64>,
    /// Impressions folded in.
    impressions: u64,
    /// Total clicks folded in.
    clicks: u64,
}

impl QueryStats {
    /// Empty stats.
    pub fn new() -> Self {
        Self::default()
    }

    /// Impressions observed.
    pub fn impressions(&self) -> u64 {
        self.impressions
    }

    /// Clicks observed.
    pub fn clicks(&self) -> u64 {
        self.clicks
    }

    /// All `(url, click mass)` entries in ascending URL order — the
    /// canonical view used by persistence (`pws-store`). The URLs are
    /// borrowed: a record is encoded straight from the live maps.
    pub fn url_click_entries(&self) -> Vec<(&str, f64)> {
        let mut v: Vec<(&str, f64)> =
            self.url_clicks.iter().map(|(u, n)| (u.as_str(), *n)).collect();
        v.sort_unstable_by(|a, b| a.0.cmp(b.0));
        v
    }

    /// All `(term, click mass)` entries in ascending term order.
    pub fn concept_click_entries(&self) -> Vec<(&str, f64)> {
        let mut v: Vec<(&str, f64)> =
            self.concept_clicks.iter().map(|(t, n)| (t.as_str(), *n)).collect();
        v.sort_unstable_by(|a, b| a.0.cmp(b.0));
        v
    }

    /// All `(loc, click mass)` entries in ascending id order.
    pub fn location_click_entries(&self) -> Vec<(LocId, f64)> {
        let mut v: Vec<(LocId, f64)> =
            self.location_clicks.iter().map(|(l, n)| (*l, *n)).collect();
        v.sort_by_key(|(l, _)| *l);
        v
    }

    /// Rebuild an accumulator from its entry lists and counters — the
    /// inverse of the `*_entries` views, used when a stored record is
    /// faulted back in. Duplicate keys sum.
    pub fn from_parts(
        url_entries: Vec<(String, f64)>,
        concept_entries: Vec<(String, f64)>,
        location_entries: Vec<(LocId, f64)>,
        impressions: u64,
        clicks: u64,
    ) -> Self {
        let mut url_clicks = HashMap::with_capacity(url_entries.len());
        for (u, n) in url_entries {
            *url_clicks.entry(u).or_insert(0.0) += n;
        }
        let mut concept_clicks = HashMap::with_capacity(concept_entries.len());
        for (t, n) in concept_entries {
            *concept_clicks.entry(t).or_insert(0.0) += n;
        }
        let mut location_clicks = HashMap::with_capacity(location_entries.len());
        for (l, n) in location_entries {
            *location_clicks.entry(l).or_insert(0.0) += n;
        }
        QueryStats { url_clicks, concept_clicks, location_clicks, impressions, clicks }
    }

    /// Fold one impression (with the concept ontology extracted from its
    /// snippets) into the distributions.
    pub fn observe(&mut self, onto: &QueryConceptOntology, imp: &Impression) {
        for click in &imp.clicks {
            let idx = click.rank - 1;
            if let Some(shown) = imp.results.iter().find(|r| r.rank == click.rank) {
                *self.url_clicks.entry(shown.url.clone()).or_insert(0.0) += 1.0;
            }
            if let Some(concepts) = onto.content_by_snippet.get(idx) {
                for &ci in concepts {
                    *self
                        .concept_clicks
                        .entry(onto.content[ci].term.clone())
                        .or_insert(0.0) += 1.0;
                }
            }
            if let Some(locs) = onto.locations_by_snippet.get(idx) {
                for &li in locs {
                    *self.location_clicks.entry(onto.locations[li].loc).or_insert(0.0) += 1.0;
                }
            }
            self.clicks += 1;
        }
        self.impressions += 1;
    }

    /// Fold another accumulator into this one (counts and click masses
    /// add). Lets per-user shards collect stats independently and combine
    /// afterwards; merging shard A then B equals observing A's impressions
    /// then B's, because every field is a sum.
    pub fn merge(&mut self, other: &QueryStats) {
        for (url, n) in &other.url_clicks {
            *self.url_clicks.entry(url.clone()).or_insert(0.0) += n;
        }
        for (term, n) in &other.concept_clicks {
            *self.concept_clicks.entry(term.clone()).or_insert(0.0) += n;
        }
        for (loc, n) in &other.location_clicks {
            *self.location_clicks.entry(*loc).or_insert(0.0) += n;
        }
        self.impressions += other.impressions;
        self.clicks += other.clicks;
    }

    /// Click entropy over URLs (bits).
    pub fn click_entropy(&self) -> f64 {
        crate::shannon::entropy(&self.url_clicks.values().copied().collect::<Vec<_>>())
    }

    /// Click entropy over content concepts (bits).
    pub fn content_entropy(&self) -> f64 {
        crate::shannon::entropy(&self.concept_clicks.values().copied().collect::<Vec<_>>())
    }

    /// Click entropy over location concepts (bits).
    pub fn location_entropy(&self) -> f64 {
        crate::shannon::entropy(&self.location_clicks.values().copied().collect::<Vec<_>>())
    }

    /// Normalized (unit-interval) variants.
    pub fn normalized_content_entropy(&self) -> f64 {
        crate::shannon::normalized_entropy(
            &self.concept_clicks.values().copied().collect::<Vec<_>>(),
        )
    }

    /// Normalized location-click entropy.
    pub fn normalized_location_entropy(&self) -> f64 {
        crate::shannon::normalized_entropy(
            &self.location_clicks.values().copied().collect::<Vec<_>>(),
        )
    }

    /// Number of distinct clicked locations.
    pub fn distinct_locations(&self) -> usize {
        self.location_clicks.len()
    }

    /// Number of distinct clicked content concepts.
    pub fn distinct_concepts(&self) -> usize {
        self.concept_clicks.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pws_click::{Click, ShownResult, UserId};
    use pws_concepts::{ConceptConfig, LocationConceptConfig};
    use pws_corpus::query::QueryId;
    use pws_geo::{LocationMatcher, LocationOntology};

    fn world() -> LocationOntology {
        let mut o = LocationOntology::new();
        let r = o.add(LocId::WORLD, "westland", vec![]);
        let c = o.add(r, "ardonia", vec![]);
        let s = o.add(c, "vale", vec![]);
        o.add(s, "alden", vec![]);
        o.add(s, "lakemoor", vec![]);
        o
    }

    fn onto(snippets: &[&str]) -> QueryConceptOntology {
        let w = world();
        let m = LocationMatcher::build(&w);
        let snips: Vec<String> = snippets.iter().map(|s| s.to_string()).collect();
        QueryConceptOntology::extract(
            "restaurant",
            &snips,
            &m,
            &w,
            &ConceptConfig { min_support: 0.0, min_snippet_freq: 1, bigrams: false, max_concepts: 50 },
            &LocationConceptConfig { min_support: 0.0, rollup: false, ..Default::default() },
        )
    }

    fn imp(snippets: &[&str], clicked_ranks: &[usize]) -> Impression {
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
            clicks: clicked_ranks
                .iter()
                .map(|&r| Click { doc: (r - 1) as u32, rank: r, dwell: 100 })
                .collect(),
        }
    }

    #[test]
    fn merge_equals_sequential_observe() {
        let snips = ["food in alden", "food in lakemoor", "nothing here"];
        let o = onto(&snips);
        // One accumulator observing everything…
        let mut all = QueryStats::new();
        all.observe(&o, &imp(&snips, &[1, 2]));
        all.observe(&o, &imp(&snips, &[1]));
        // …vs two shards merged.
        let (mut a, mut b) = (QueryStats::new(), QueryStats::new());
        a.observe(&o, &imp(&snips, &[1, 2]));
        b.observe(&o, &imp(&snips, &[1]));
        a.merge(&b);
        assert_eq!(a.impressions(), all.impressions());
        assert_eq!(a.clicks(), all.clicks());
        // The entropy primitive sorts before accumulating, so equal click
        // masses give *bit-identical* entropies regardless of how either
        // map happens to iterate.
        assert_eq!(a.click_entropy(), all.click_entropy());
        assert_eq!(a.content_entropy(), all.content_entropy());
        assert_eq!(a.location_entropy(), all.location_entropy());
        assert_eq!(a.distinct_locations(), all.distinct_locations());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let snips = ["food in alden"];
        let o = onto(&snips);
        let mut s = QueryStats::new();
        s.observe(&o, &imp(&snips, &[1]));
        let before = (s.impressions(), s.clicks(), s.click_entropy());
        s.merge(&QueryStats::new());
        assert_eq!(before, (s.impressions(), s.clicks(), s.click_entropy()));
    }

    #[test]
    fn empty_stats_zero_entropies() {
        let s = QueryStats::new();
        assert_eq!(s.click_entropy(), 0.0);
        assert_eq!(s.content_entropy(), 0.0);
        assert_eq!(s.location_entropy(), 0.0);
        assert_eq!(s.impressions(), 0);
    }

    #[test]
    fn concentrated_clicks_have_zero_url_entropy() {
        let snippets = ["seafood alden", "sushi lakemoor"];
        let o = onto(&snippets);
        let mut s = QueryStats::new();
        for _ in 0..5 {
            s.observe(&o, &imp(&snippets, &[1]));
        }
        assert_eq!(s.click_entropy(), 0.0);
        assert_eq!(s.impressions(), 5);
        assert_eq!(s.clicks(), 5);
    }

    #[test]
    fn diverse_clicks_raise_entropies() {
        let snippets = ["seafood alden", "sushi lakemoor"];
        let o = onto(&snippets);
        let mut diverse = QueryStats::new();
        diverse.observe(&o, &imp(&snippets, &[1]));
        diverse.observe(&o, &imp(&snippets, &[2]));
        assert!(diverse.click_entropy() > 0.0);
        assert!(diverse.location_entropy() > 0.0);
        assert_eq!(diverse.distinct_locations(), 2);
        assert!(diverse.distinct_concepts() >= 2);
    }

    #[test]
    fn location_entropy_tracks_location_spread_only() {
        // Same city in both snippets, different content.
        let snippets = ["seafood alden", "sushi alden"];
        let o = onto(&snippets);
        let mut s = QueryStats::new();
        s.observe(&o, &imp(&snippets, &[1]));
        s.observe(&o, &imp(&snippets, &[2]));
        assert_eq!(s.location_entropy(), 0.0, "one location only");
        assert!(s.content_entropy() > 0.0, "content differs");
    }

    #[test]
    fn normalized_entropies_in_unit_range() {
        let snippets = ["seafood alden", "sushi lakemoor", "steak alden"];
        let o = onto(&snippets);
        let mut s = QueryStats::new();
        s.observe(&o, &imp(&snippets, &[1, 2, 3]));
        for v in [s.normalized_content_entropy(), s.normalized_location_entropy()] {
            assert!((0.0..=1.0).contains(&v));
        }
    }
}
