//! The prepared feature loop against the naive per-result one on the
//! inputs the experiments actually score: every query template of the
//! paper-scale world, its 30-row pool and its 10-row page, with user
//! profiles warmed by 20 search + click turns, under the three mask
//! variants, with and without geo smoothing. Same rows, bit for bit (the
//! random-input half of this test is
//! `crates/pws-profile/tests/differential.rs`).

use pws_click::session::{SessionSimulator, SimConfig};
use pws_click::UserId;
use pws_concepts::{ConceptConfig, LocationConceptConfig, QueryConceptOntology};
use pws_core::{EngineConfig, PersonalizedSearchEngine, UserState};
use pws_eval::{ExperimentSpec, ExperimentWorld};
use pws_geo::{LocationMatcher, WorldCoords};
use pws_profile::{
    ContentProfile, FeatureExtractor, GeoContext, LocationProfile, ResultFeatureInput,
    UserHistory, FEATURE_DIM,
};
use pws_text::Analyzer;

/// The feature loop as it stood before the prepared context: everything
/// recomputed per result through the one-shot scoring methods, every
/// title analysed into a `Vec<String>`.
#[allow(clippy::too_many_arguments)]
fn naive_rows(
    use_content: bool,
    use_location: bool,
    query_text: &str,
    inputs: &[ResultFeatureInput],
    onto: &QueryConceptOntology,
    content: &ContentProfile,
    location: &LocationProfile,
    history: &UserHistory,
    geo: Option<&GeoContext<'_>>,
) -> Vec<Vec<f64>> {
    let analyzer = Analyzer::default();
    let q_terms = analyzer.analyze(query_text);

    inputs
        .iter()
        .enumerate()
        .map(|(i, input)| {
            let mut f = vec![0.0; FEATURE_DIM];
            f[0] = input.base_score;

            if use_content {
                if let Some(concepts) = onto.content_by_snippet.get(i) {
                    f[1] = content.score_concepts(
                        concepts.iter().map(|&ci| onto.content[ci].term.as_str()),
                    );
                }
            }
            if use_location {
                if let Some(locs) = onto.locations_by_snippet.get(i) {
                    let loc_ids = locs.iter().map(|&li| onto.locations[li].loc);
                    f[2] = match geo {
                        Some(g) => location.score_locations_geo(loc_ids, g.coords, g.scale_km),
                        None => location.score_locations(loc_ids),
                    };
                }
            }
            f[3] = 1.0 / input.rank as f64;
            f[4] = naive_title_match(&analyzer, &q_terms, &input.title);
            f[5] = history.url_score(&input.url);
            f[6] = history.domain_score(&input.url);
            f
        })
        .collect()
}

fn naive_title_match(analyzer: &Analyzer, q_terms: &[String], title: &str) -> f64 {
    if q_terms.is_empty() {
        return 0.0;
    }
    let t_tokens = analyzer.analyze(title);
    let hits = q_terms.iter().filter(|q| t_tokens.contains(q)).count();
    hits as f64 / q_terms.len() as f64
}

/// Three users' states after 20 search + click turns each.
fn warmed_users(world: &ExperimentWorld) -> Vec<UserState> {
    let cfg = EngineConfig::default();
    let mut engine = PersonalizedSearchEngine::new(&world.engine, &world.world, cfg.clone());
    (0..3u32)
        .map(|u| {
            let user = UserId(u);
            let mut sim = SessionSimulator::new(
                &world.engine,
                &world.corpus,
                &world.world,
                &world.population,
                &world.queries,
                SimConfig { top_k: cfg.top_k, seed: 900 + u64::from(u) },
            );
            for _ in 0..20 {
                let qid = sim.sample_query(user);
                let intent = sim.sample_intent_city(user);
                let text = sim.render_query(&world.queries[qid.index()], intent);
                let turn = engine.search(user, &text);
                let outcome = sim.issue_on_hits(user, qid, intent, &text, &turn.hits);
                engine.observe(&turn, &outcome.impression);
            }
            engine.user_state(user).expect("observed above").clone()
        })
        .collect()
}

#[test]
fn prepared_rows_equal_naive_rows_on_every_paper_world_pool_and_page() {
    let world = ExperimentWorld::build(ExperimentSpec::default_paper());
    assert_eq!(world.queries.len(), 120);
    let matcher = LocationMatcher::build(&world.world);
    let coords = WorldCoords::generate(&world.world, 5);
    let geo = GeoContext { coords: &coords, scale_km: 500.0 };
    let users = warmed_users(&world);
    for u in &users {
        assert!(u.content.len() > 20 && !u.location.is_empty(), "profiles must be warm");
    }

    let mut warm_cells = 0;
    for (qi, q) in world.queries.iter().enumerate() {
        let state = &users[qi % users.len()];
        let hits = world.engine.search(&q.text, 30);
        let max = hits.iter().map(|h| h.score).fold(f64::MIN_POSITIVE, f64::max);
        let inputs: Vec<ResultFeatureInput> = hits
            .iter()
            .map(|h| ResultFeatureInput {
                doc: h.doc,
                rank: h.rank,
                base_score: h.score / max,
                url: h.url.to_string(),
                title: h.title.to_string(),
            })
            .collect();
        let snippets: Vec<String> = hits.into_iter().map(|h| h.snippet).collect();
        for rows in [inputs.len(), inputs.len().min(10)] {
            let onto = QueryConceptOntology::extract(
                &q.text,
                &snippets[..rows],
                &matcher,
                &world.world,
                &ConceptConfig::default(),
                &LocationConceptConfig::default(),
            );
            for (use_content, use_location) in [(true, true), (true, false), (false, true)] {
                for geo in [None, Some(&geo)] {
                    let fx = FeatureExtractor::with_masks(use_content, use_location);
                    let fast = fx
                        .prepare(&q.text, &state.content, &state.location, &state.history, geo)
                        .rows(&inputs[..rows], &onto);
                    let page = fx.extract_page_geo(
                        &q.text,
                        &inputs[..rows],
                        &onto,
                        &state.content,
                        &state.location,
                        &state.history,
                        geo,
                    );
                    let slow = naive_rows(
                        use_content,
                        use_location,
                        &q.text,
                        &inputs[..rows],
                        &onto,
                        &state.content,
                        &state.location,
                        &state.history,
                        geo,
                    );
                    let bits = |m: &[Vec<f64>]| -> Vec<Vec<u64>> {
                        m.iter().map(|r| r.iter().map(|x| x.to_bits()).collect()).collect()
                    };
                    assert_eq!(bits(&fast), bits(&slow), "query {:?}", q.text);
                    assert_eq!(bits(&page), bits(&slow), "query {:?}", q.text);
                    warm_cells += slow.iter().filter(|r| r[1] != 0.0 || r[2] != 0.0).count();
                }
            }
        }
    }
    assert!(warm_cells > 10_000, "the fixed cases should not be vacuous: {warm_cells}");
}
