//! Per-result feature vectors for the personalized RankSVM.
//!
//! The paper's ranker is a linear function over preference features; ours
//! uses the schema below. The content-only / location-only method variants
//! of the evaluation (T3, F5, F7) are obtained by masking the respective
//! feature, so every variant shares one code path.

use crate::content_profile::{ContentProfile, ContentScorer};
use crate::history::UserHistory;
use crate::location_profile::{LocationProfile, LocationScorer};
use pws_concepts::QueryConceptOntology;
use pws_text::Analyzer;

/// Dimensionality of the feature vector.
pub const FEATURE_DIM: usize = 7;

/// Human-readable feature names, index-aligned.
pub const FEATURE_NAMES: [&str; FEATURE_DIM] = [
    "base_score_norm",
    "content_pref",
    "location_pref",
    "rank_prior",
    "title_match",
    "url_revisit",
    "domain_affinity",
];

/// The per-result raw inputs the extractor consumes (a flattened view of a
/// search hit; kept free of `pws-index` types so any result source works).
#[derive(Debug, Clone)]
pub struct ResultFeatureInput {
    /// Document id (unused by features, carried for the caller).
    pub doc: u32,
    /// 1-based rank in the baseline list.
    pub rank: usize,
    /// Baseline retrieval score, **already normalized to `[0, 1]`** by the
    /// caller (the engine divides by the candidate pool's max). The
    /// extractor passes it through untouched — normalizing here too would
    /// re-scale by the *page* max and silently diverge from the scale the
    /// ranker scored with whenever the pool's top document was reranked
    /// off the page (the train/serve skew bug).
    pub base_score: f64,
    /// Result URL.
    pub url: String,
    /// Result title.
    pub title: String,
}

/// Optional geographic context: proximity-smoothed location scoring
/// (coordinates plus the exponential kernel scale in km).
#[derive(Debug, Clone)]
pub struct GeoContext<'a> {
    /// Coordinates of every ontology node.
    pub coords: &'a pws_geo::WorldCoords,
    /// Kernel scale in km (larger = broader smoothing).
    pub scale_km: f64,
}

/// Feature extraction with ablation masks.
#[derive(Debug, Clone)]
pub struct FeatureExtractor {
    /// Include the content-preference feature (index 1).
    pub use_content: bool,
    /// Include the location-preference feature (index 2).
    pub use_location: bool,
    analyzer: Analyzer,
}

impl Default for FeatureExtractor {
    fn default() -> Self {
        FeatureExtractor { use_content: true, use_location: true, analyzer: Analyzer::default() }
    }
}

impl FeatureExtractor {
    /// Extractor with both personalization dimensions enabled.
    pub fn new() -> Self {
        Self::default()
    }

    /// Content-only variant (location feature zeroed).
    pub fn content_only() -> Self {
        FeatureExtractor { use_location: false, ..Self::default() }
    }

    /// Location-only variant (content feature zeroed).
    pub fn location_only() -> Self {
        FeatureExtractor { use_content: false, ..Self::default() }
    }

    /// Extractor with explicit dimension masks.
    pub fn with_masks(use_content: bool, use_location: bool) -> Self {
        FeatureExtractor { use_content, use_location, ..Self::default() }
    }

    /// Extract feature vectors for one result page.
    ///
    /// `inputs[i]` must correspond to the snippet behind
    /// `onto.content_by_snippet[i]` / `onto.locations_by_snippet[i]`.
    pub fn extract_page(
        &self,
        query_text: &str,
        inputs: &[ResultFeatureInput],
        onto: &QueryConceptOntology,
        content: &ContentProfile,
        location: &LocationProfile,
        history: &UserHistory,
    ) -> Vec<Vec<f64>> {
        self.extract_page_geo(query_text, inputs, onto, content, location, history, None)
    }

    /// As [`Self::extract_page`], with optional proximity-smoothed location
    /// scoring (the GPS extension): when `geo` is given, the location
    /// feature uses [`LocationProfile::score_locations_geo`]'s kernel.
    /// Exactly `prepare(..).rows(..)`.
    #[allow(clippy::too_many_arguments)]
    pub fn extract_page_geo(
        &self,
        query_text: &str,
        inputs: &[ResultFeatureInput],
        onto: &QueryConceptOntology,
        content: &ContentProfile,
        location: &LocationProfile,
        history: &UserHistory,
        geo: Option<&GeoContext<'_>>,
    ) -> Vec<Vec<f64>> {
        self.prepare(query_text, content, location, history, geo).rows(inputs, onto)
    }

    /// Everything the feature loop needs that depends only on the user
    /// and the query, computed once: the analysed query terms and the two
    /// profile scorers (each profile's L1 mass). A request that scores
    /// its pool and then its page prepares once and calls
    /// [`PreparedFeatures::rows`] twice.
    pub fn prepare<'a>(
        &'a self,
        query_text: &str,
        content: &'a ContentProfile,
        location: &'a LocationProfile,
        history: &'a UserHistory,
        geo: Option<&GeoContext<'a>>,
    ) -> PreparedFeatures<'a> {
        PreparedFeatures {
            analyzer: &self.analyzer,
            q_terms: self.analyzer.analyze(query_text),
            content: self.use_content.then(|| content.scorer()),
            location: self.use_location.then(|| location.scorer()),
            history,
            geo: geo.cloned(),
        }
    }
}

/// A prepared scoring context: see [`FeatureExtractor::prepare`].
#[derive(Debug)]
pub struct PreparedFeatures<'a> {
    analyzer: &'a Analyzer,
    q_terms: Vec<String>,
    /// `None` when the extractor masks the feature.
    content: Option<ContentScorer<'a>>,
    location: Option<LocationScorer<'a>>,
    history: &'a UserHistory,
    geo: Option<GeoContext<'a>>,
}

impl PreparedFeatures<'_> {
    /// Feature vectors for `inputs`, one row each; per-row work is the
    /// snippet's concepts plus the title's tokens, whatever the profile
    /// sizes.
    ///
    /// `inputs[i]` must correspond to the snippet behind
    /// `onto.content_by_snippet[i]` / `onto.locations_by_snippet[i]`.
    pub fn rows(
        &self,
        inputs: &[ResultFeatureInput],
        onto: &QueryConceptOntology,
    ) -> Vec<Vec<f64>> {
        let mut matched = vec![false; self.q_terms.len()];
        inputs
            .iter()
            .enumerate()
            .map(|(i, input)| {
                let mut f = vec![0.0; FEATURE_DIM];
                f[0] = input.base_score;

                if let (Some(content), Some(concepts)) =
                    (&self.content, onto.content_by_snippet.get(i))
                {
                    f[1] =
                        content.score(concepts.iter().map(|&ci| onto.content[ci].term.as_str()));
                }
                if let (Some(location), Some(locs)) =
                    (&self.location, onto.locations_by_snippet.get(i))
                {
                    let loc_ids = locs.iter().map(|&li| onto.locations[li].loc);
                    f[2] = match &self.geo {
                        Some(g) => location.score_geo(loc_ids, g.coords, g.scale_km),
                        None => location.score(loc_ids),
                    };
                }
                f[3] = 1.0 / input.rank as f64;
                f[4] = title_match(self.analyzer, &self.q_terms, &input.title, &mut matched);
                f[5] = self.history.url_score(&input.url);
                f[6] = self.history.domain_score(&input.url);
                f
            })
            .collect()
    }
}

/// Fraction of query terms present in the (analyzed) title. A query term
/// repeated in the query counts once per repeat, in both the numerator
/// and the denominator. `matched` is scratch, one flag per query term.
fn title_match(analyzer: &Analyzer, q_terms: &[String], title: &str, matched: &mut [bool]) -> f64 {
    if q_terms.is_empty() {
        return 0.0;
    }
    matched.fill(false);
    analyzer.for_each_token(title, |t| {
        for (q, m) in q_terms.iter().zip(matched.iter_mut()) {
            *m |= q == t;
        }
    });
    let hits = matched.iter().filter(|&&m| m).count();
    hits as f64 / q_terms.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use pws_concepts::{ConceptConfig, LocationConceptConfig};
    use pws_geo::{LocId, LocationMatcher, LocationOntology};

    fn world() -> LocationOntology {
        let mut o = LocationOntology::new();
        let r = o.add(LocId::WORLD, "westland", vec![]);
        let c = o.add(r, "ardonia", vec![]);
        let s = o.add(c, "vale", vec![]);
        o.add(s, "alden", vec![]);
        o
    }

    fn setup(snippets: &[&str]) -> (QueryConceptOntology, Vec<ResultFeatureInput>) {
        let w = world();
        let m = LocationMatcher::build(&w);
        let snips: Vec<String> = snippets.iter().map(|s| s.to_string()).collect();
        let onto = QueryConceptOntology::extract(
            "restaurant",
            &snips,
            &m,
            &w,
            &ConceptConfig { min_support: 0.0, min_snippet_freq: 1, bigrams: false, max_concepts: 50 },
            &LocationConceptConfig { min_support: 0.0, ..Default::default() },
        );
        let inputs = snippets
            .iter()
            .enumerate()
            .map(|(i, _)| ResultFeatureInput {
                doc: i as u32,
                rank: i + 1,
                base_score: (10.0 - i as f64) / 10.0,
                url: format!("http://d{i}.test/p"),
                title: if i == 0 { "restaurant guide".into() } else { "other page".into() },
            })
            .collect();
        (onto, inputs)
    }

    #[test]
    fn dimensions_and_names_agree() {
        assert_eq!(FEATURE_NAMES.len(), FEATURE_DIM);
    }

    #[test]
    fn base_score_passed_through_unrescaled() {
        // The caller normalizes by the candidate *pool* max; the extractor
        // must not re-normalize by the *page* max. A page whose top score
        // is 0.8 (pool winner reranked off the page) keeps 0.8.
        let (onto, mut inputs) = setup(&["seafood alden", "sushi bar"]);
        inputs[0].base_score = 0.8;
        inputs[1].base_score = 0.4;
        let fx = FeatureExtractor::new();
        let feats = fx.extract_page(
            "restaurant",
            &inputs,
            &onto,
            &ContentProfile::new(),
            &LocationProfile::new(),
            &UserHistory::new(),
        );
        assert_eq!(feats.len(), 2);
        assert!((feats[0][0] - 0.8).abs() < 1e-12);
        assert!((feats[1][0] - 0.4).abs() < 1e-12);
    }

    #[test]
    fn rank_prior_and_title_match() {
        let (onto, inputs) = setup(&["seafood alden", "sushi bar"]);
        let fx = FeatureExtractor::new();
        let feats = fx.extract_page(
            "restaurant",
            &inputs,
            &onto,
            &ContentProfile::new(),
            &LocationProfile::new(),
            &UserHistory::new(),
        );
        assert!((feats[0][3] - 1.0).abs() < 1e-12);
        assert!((feats[1][3] - 0.5).abs() < 1e-12);
        assert!((feats[0][4] - 1.0).abs() < 1e-12, "title contains query term");
        assert_eq!(feats[1][4], 0.0);
    }

    #[test]
    fn cold_profiles_give_zero_preference_features() {
        let (onto, inputs) = setup(&["seafood alden", "sushi bar"]);
        let fx = FeatureExtractor::new();
        let feats = fx.extract_page(
            "restaurant",
            &inputs,
            &onto,
            &ContentProfile::new(),
            &LocationProfile::new(),
            &UserHistory::new(),
        );
        for f in &feats {
            assert_eq!(f[1], 0.0);
            assert_eq!(f[2], 0.0);
            assert_eq!(f[5], 0.0);
            assert_eq!(f[6], 0.0);
        }
    }

    #[test]
    fn ablation_masks_zero_their_features() {
        let (onto, inputs) = setup(&["seafood alden", "seafood lakeside"]);
        // Build a warm content profile by hand via observe.
        use pws_click::{Click, Impression, ShownResult, UserId};
        use pws_corpus::query::QueryId;
        let imp = Impression {
            user: UserId(0),
            query: QueryId(0),
            query_text: "restaurant".into(),
            results: inputs
                .iter()
                .enumerate()
                .map(|(i, inp)| ShownResult {
                    doc: inp.doc,
                    rank: i + 1,
                    url: inp.url.clone(),
                    title: inp.title.clone(),
                    snippet: if i == 0 { "seafood alden".into() } else { "seafood lakeside".into() },
                })
                .collect(),
            clicks: vec![Click { doc: 0, rank: 1, dwell: 500 }],
        };
        let mut content = ContentProfile::new();
        content.observe(&onto, &imp, &crate::content_profile::ContentProfileConfig::default());
        let mut location = LocationProfile::new();
        location.observe(
            &onto,
            &imp,
            &world(),
            &crate::location_profile::LocationProfileConfig::default(),
        );
        let history = UserHistory::new();

        let full = FeatureExtractor::new()
            .extract_page("restaurant", &inputs, &onto, &content, &location, &history);
        assert!(full[0][1] != 0.0, "content feature should be warm");
        assert!(full[0][2] != 0.0, "location feature should be warm");

        let c_only = FeatureExtractor::content_only()
            .extract_page("restaurant", &inputs, &onto, &content, &location, &history);
        assert_eq!(c_only[0][2], 0.0);
        assert_eq!(c_only[0][1], full[0][1]);

        let l_only = FeatureExtractor::location_only()
            .extract_page("restaurant", &inputs, &onto, &content, &location, &history);
        assert_eq!(l_only[0][1], 0.0);
        assert_eq!(l_only[0][2], full[0][2]);
    }

    /// The complexity claim, by count rather than by timing: a prepared
    /// context normalises each profile once and sorts the geo entry list
    /// at most once, however many rows it scores.
    #[test]
    fn prepared_context_normalises_once_whatever_the_row_count() {
        use crate::counters::{ENTRY_SORTS, L1_SORTS};
        let w = world();
        let coords = pws_geo::WorldCoords::generate(&w, 1);
        let alden = LocId(4);
        assert_eq!(w.name(alden), "alden");
        let content = ContentProfile::from_entries(
            vec![("seafood".into(), 2.0), ("sushi".into(), -0.5), ("bar".into(), 1e-3)],
            3,
        );
        let location = LocationProfile::from_entries(vec![(alden, 1.5), (LocId(3), 0.6)], 2);
        let history = UserHistory::new();
        let geo = GeoContext { coords: &coords, scale_km: 500.0 };
        let counts = || (L1_SORTS.with(|n| n.get()), ENTRY_SORTS.with(|n| n.get()));

        for rows in [1usize, 10, 30, 200] {
            let snippets: Vec<&str> =
                (0..rows).map(|i| if i % 2 == 0 { "seafood alden" } else { "sushi bar" }).collect();
            let (onto, inputs) = setup(&snippets);
            for (geo, entry_sorts) in [(None, 0), (Some(&geo), 1)] {
                let fx = FeatureExtractor::new();
                let before = counts();
                let prepared = fx.prepare("restaurant", &content, &location, &history, geo);
                let feats = prepared.rows(&inputs, &onto);
                let again = prepared.rows(&inputs[..rows.min(10)], &onto);
                let after = counts();
                assert_eq!(feats.len(), rows);
                assert_eq!(again[..], feats[..again.len()]);
                assert!(feats[0][1] != 0.0 && feats[0][2] != 0.0, "profiles must be warm");
                assert_eq!(after.0 - before.0, 2, "one L1 per profile at {rows} rows");
                assert_eq!(after.1 - before.1, entry_sorts, "entry sorts at {rows} rows");
            }
            // A masked dimension is not normalised at all.
            let before = counts();
            FeatureExtractor::content_only()
                .prepare("restaurant", &content, &location, &history, Some(&geo))
                .rows(&inputs, &onto);
            let after = counts();
            assert_eq!((after.0 - before.0, after.1 - before.1), (1, 0));
        }
    }

    #[test]
    fn empty_page_gives_empty_features() {
        let (onto, _) = setup(&[]);
        let fx = FeatureExtractor::new();
        let feats = fx.extract_page(
            "restaurant",
            &[],
            &onto,
            &ContentProfile::new(),
            &LocationProfile::new(),
            &UserHistory::new(),
        );
        assert!(feats.is_empty());
    }
}
