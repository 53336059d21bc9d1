//! T4 — concept-extraction latency (the per-query online cost the paper's
//! middleware pays before re-ranking).
//!
//! Rows: the full extraction over a 30-snippet pool and a 10-snippet page
//! from snippet text (what the end-to-end benchmark's probe pays); its two
//! phases on the pool (per-snippet analysis against a warm term
//! dictionary, counting pass on term ids); the per-snippet analysis as the
//! engine makes it, read off each cut hit's form ids through the
//! per-segment form tables; and the five-pass reference the one-pass
//! extractor replaced, for the before/after.

use criterion::{criterion_group, criterion_main, Criterion};
use pws_bench::bench_world;
use pws_concepts::{
    ConceptConfig, LocationConceptConfig, QueryConceptOntology, SnippetAnalysis, TermDict,
};
use pws_core::SnippetAnalyst;
use pws_geo::LocationMatcher;

fn bench_concepts(c: &mut Criterion) {
    let world = bench_world();
    let matcher = LocationMatcher::build(&world.world);
    let (content_cfg, location_cfg) = (ConceptConfig::default(), LocationConceptConfig::default());

    // Snippets of a representative query's top-30 pool; its top-10 page.
    let q = &world.queries[0];
    let hits = world.engine.search(&q.text, 30);
    let snippets: Vec<String> = hits.iter().map(|h| h.snippet.clone()).collect();
    assert!(!snippets.is_empty());
    let page = &snippets[..snippets.len().min(10)];
    let extract = |snippets: &[String]| {
        QueryConceptOntology::extract(
            &q.text,
            snippets,
            &matcher,
            &world.world,
            &content_cfg,
            &location_cfg,
        )
    };

    let mut g = c.benchmark_group("concepts");
    g.bench_function("full_ontology_30_snippets", |b| {
        b.iter(|| std::hint::black_box(extract(&snippets)))
    });
    g.bench_function("page_10_snippets", |b| b.iter(|| std::hint::black_box(extract(page))));

    let mut dict = TermDict::new();
    g.bench_function("phase_analyse_30_snippets", |b| {
        b.iter(|| {
            let analyses: Vec<SnippetAnalysis> =
                snippets.iter().map(|s| SnippetAnalysis::new(s, &matcher, &mut dict)).collect();
            std::hint::black_box(analyses)
        })
    });
    let analyses: Vec<SnippetAnalysis> =
        snippets.iter().map(|s| SnippetAnalysis::new(s, &matcher, &mut dict)).collect();
    let query = pws_concepts::query_terms(&q.text, &dict);
    g.bench_function("phase_count_30_snippets", |b| {
        b.iter(|| {
            std::hint::black_box(QueryConceptOntology::from_analyses(
                &q.text,
                &query,
                &analyses,
                &dict,
                &world.world,
                &content_cfg,
                &location_cfg,
            ))
        })
    });

    let analyst = SnippetAnalyst::new(&world.engine, &world.world);
    let query = world.engine.terms().analyze(&q.text);
    let ranked = world.engine.rank_tokens(&query, None, 30).0;
    let all: Vec<usize> = (0..ranked.len()).collect();
    let cut = world.engine.cut_hits(&query, &ranked, &all);
    g.bench_function("phase_analyse_30_snippets_from_forms", |b| {
        b.iter(|| {
            let analyses: Vec<SnippetAnalysis> = cut.iter().map(|c| analyst.analyse(c)).collect();
            std::hint::black_box(analyses)
        })
    });

    g.bench_function("reference_five_pass_30_snippets", |b| {
        b.iter(|| {
            std::hint::black_box(QueryConceptOntology::extract_reference(
                &q.text,
                &snippets,
                &matcher,
                &world.world,
                &content_cfg,
                &location_cfg,
            ))
        })
    });
    g.finish();
}

criterion_group!(benches, bench_concepts);
criterion_main!(benches);
