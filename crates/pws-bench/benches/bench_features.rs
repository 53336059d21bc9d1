//! T4 — the feature stage: `FeatureExtractor::extract_page_geo`
//! (= `prepare(..).rows(..)`, what the engine runs twice per search) over
//! R ∈ {10, 30} results against a content profile of W ∈ {0, 80, 350,
//! 2 000} weights, exact and geo-smoothed location scoring.
//!
//! The claim this pins: per-row cost is flat in W. Each profile's L1 mass
//! is computed once per prepared context, so W enters a call only through
//! that one sort; when the normaliser was recomputed per result the
//! same rows grew linear-log in W.

use criterion::{criterion_group, criterion_main, Criterion};
use pws_bench::bench_world;
use pws_concepts::{ConceptConfig, LocationConceptConfig, QueryConceptOntology};
use pws_geo::{LocationMatcher, WorldCoords};
use pws_profile::{
    ContentProfile, FeatureExtractor, GeoContext, LocationProfile, ResultFeatureInput, UserHistory,
};

fn bench_features(c: &mut Criterion) {
    let world = bench_world();
    let matcher = LocationMatcher::build(&world.world);
    let coords = WorldCoords::generate(&world.world, 5);
    let geo = GeoContext { coords: &coords, scale_km: 500.0 };

    let q = &world.queries[0];
    let hits = world.engine.search(&q.text, 30);
    assert_eq!(hits.len(), 30);
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
    let onto_of = |rows: usize| {
        QueryConceptOntology::extract(
            &q.text,
            &snippets[..rows],
            &matcher,
            &world.world,
            &ConceptConfig::default(),
            &LocationConceptConfig::default(),
        )
    };
    let pool_onto = onto_of(30);

    // W content weights: the pool's own concepts first (so rows score
    // non-zero), padded with terms no snippet mentions. Twelve places.
    let content_of = |w: usize| {
        let terms = pool_onto.content.iter().map(|c| c.term.clone());
        let pad = (0..).map(|i| format!("pad{i}"));
        let entries =
            terms.chain(pad).take(w).enumerate().map(|(i, t)| (t, 1.0 / (1.0 + i as f64)));
        ContentProfile::from_entries(entries.collect(), w as u64)
    };
    let location = LocationProfile::from_entries(
        world.world.cities().take(12).enumerate().map(|(i, l)| (l, 1.0 + i as f64)).collect(),
        12,
    );
    let history = UserHistory::new();
    let fx = FeatureExtractor::new();

    let mut g = c.benchmark_group("features");
    for rows in [10usize, 30] {
        let onto = onto_of(rows);
        for w in [0usize, 80, 350, 2_000] {
            let content = content_of(w);
            assert_eq!(content.len(), w);
            for (label, geo) in [("exact", None), ("geo", Some(&geo))] {
                g.bench_function(&format!("rows_{rows}/weights_{w}/{label}"), |b| {
                    b.iter(|| {
                        std::hint::black_box(fx.extract_page_geo(
                            &q.text,
                            &inputs[..rows],
                            &onto,
                            &content,
                            &location,
                            &history,
                            geo,
                        ))
                    })
                });
            }
        }
    }
    g.finish();
}

criterion_group!(benches, bench_features);
criterion_main!(benches);
