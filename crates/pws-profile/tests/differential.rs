//! Differential tests of the prepared scoring context.
//!
//! The scorers ([`ContentProfile::scorer`], [`LocationProfile::scorer`])
//! hoist each profile's L1 mass — and, for the geo kernel, the id-sorted
//! entry list — out of the per-result loop. Hoisting must not move a bit:
//! every score is compared by `f64::to_bits` against the formulas below,
//! which recompute everything per call the way the one-shot methods used
//! to. The streaming title match is pinned the same way against
//! `analyze` + `contains`.
//!
//! (The engine-shaped half — the whole feature loop on the paper world's
//! pools and pages with warmed profiles — needs `pws-core` and lives in
//! `crates/pws-eval/tests/feature_reference.rs`.)

use proptest::prelude::*;
use pws_concepts::{ConceptConfig, LocationConceptConfig, QueryConceptOntology};
use pws_geo::{LocId, LocationMatcher, LocationOntology, WorldCoords};
use pws_profile::{
    ContentProfile, FeatureExtractor, LocationProfile, ResultFeatureInput, UserHistory,
};
use pws_text::Analyzer;

// ── Reference formulas (per-call normaliser, per-call entry sort) ──────────

fn ref_l1(weights: impl Iterator<Item = f64>) -> f64 {
    let mut v: Vec<f64> = weights.map(f64::abs).collect();
    v.sort_by(f64::total_cmp);
    v.iter().sum()
}

fn ref_score_concepts(p: &ContentProfile, terms: &[String]) -> f64 {
    let l1 = ref_l1(p.weight_entries().into_iter().map(|(_, w)| w));
    if l1 == 0.0 {
        return 0.0;
    }
    terms.iter().map(|t| p.weight(t)).sum::<f64>() / l1
}

fn ref_score_locations(p: &LocationProfile, locs: &[LocId]) -> f64 {
    let l1 = ref_l1(p.weight_entries().into_iter().map(|(_, w)| w));
    if l1 == 0.0 {
        return 0.0;
    }
    locs.iter().map(|&l| p.weight(l)).sum::<f64>() / l1
}

fn ref_score_locations_geo(
    p: &LocationProfile,
    locs: &[LocId],
    coords: &WorldCoords,
    scale_km: f64,
) -> f64 {
    let l1 = ref_l1(p.weight_entries().into_iter().map(|(_, w)| w));
    if l1 == 0.0 {
        return 0.0;
    }
    // `weight_entries` is in ascending id order, the order the kernel
    // sum is defined over.
    let entries = p.weight_entries();
    let mut total = 0.0;
    for &l in locs {
        for &(e, w) in &entries {
            total += w * coords.proximity(e, l, scale_km);
        }
    }
    total / l1
}

fn ref_title_match(query: &str, title: &str) -> f64 {
    let analyzer = Analyzer::default();
    let q_terms = analyzer.analyze(query);
    if q_terms.is_empty() {
        return 0.0;
    }
    let t_tokens = analyzer.analyze(title);
    let hits = q_terms.iter().filter(|q| t_tokens.contains(q)).count();
    hits as f64 / q_terms.len() as f64
}

// ── Inputs ─────────────────────────────────────────────────────────────────

/// Eight places under one region; returns the world and the added ids.
fn world() -> (LocationOntology, Vec<LocId>) {
    let mut o = LocationOntology::new();
    let r = o.add(LocId::WORLD, "westland", vec![]);
    let c = o.add(r, "ardonia", vec![]);
    let s = o.add(c, "north vale", vec![]);
    let s2 = o.add(c, "south vale", vec![]);
    let ids = vec![
        r,
        c,
        s,
        s2,
        o.add(s, "port alden", vec![]),
        o.add(s, "lakemoor", vec![]),
        o.add(s2, "köln", vec![]),
        o.add(s2, "café row", vec![]),
    ];
    (o, ids)
}

/// Mixed signs, magnitudes from 1e-9 to 1e6: a sum over these depends on
/// the order it is taken in, so an L1 that is not the sorted one shows.
fn weight() -> impl Strategy<Value = f64> {
    (any::<bool>(), -9.0f64..6.0, 1.0f64..10.0)
        .prop_map(|(neg, exp, mant)| if neg { -1.0 } else { 1.0 } * mant * 10f64.powf(exp))
}

/// `(key, weight)` entries over a small key space, so duplicates (which
/// `from_entries` sums, sometimes to exactly zero) are common. Every
/// fourth case follows each entry with its negation: a fully cancelled
/// profile whose L1 is 0 although it has entries.
fn entries(keys: usize) -> impl Strategy<Value = Vec<(usize, f64)>> {
    (prop::collection::vec((0..keys, weight()), 0..60), 0u8..4).prop_map(|(mut es, cancel)| {
        if cancel == 0 {
            let negated: Vec<(usize, f64)> = es.iter().map(|&(k, w)| (k, -w)).collect();
            // Interleaved, so each key's partial sums return to exactly zero.
            es = es.into_iter().zip(negated).flat_map(|(a, b)| [a, b]).collect();
        }
        es
    })
}

/// Several lookups per profile (one scorer serves them all); keys run
/// past the profile's key space, so unseen terms and places occur.
fn lookups(keys: usize) -> impl Strategy<Value = Vec<Vec<usize>>> {
    prop::collection::vec(prop::collection::vec(0..keys, 0..12), 1..6)
}

/// Words chosen to hit every analyser branch: inflections that stem
/// together, stopwords, upper case, digits, apostrophes in every
/// position, non-ASCII (leaves the ASCII fast path), over-long tokens,
/// punctuation-only and empty.
fn word() -> impl Strategy<Value = &'static str> {
    prop::sample::select(vec![
        "seafood", "Seafood", "restaurant", "restaurants", "lobster", "roll", "rolls", "sushi",
        "menu", "the", "of", "and", "don't", "o'hare's", "'quoted'", "dogs'", "it's", "n73",
        "2009", "café", "Köln", "naïve", "İstanbul", "x", "--", "!!!", "",
        "pneumonoultramicroscopicsilicovolcanoconiosisxx", "port", "alden", "hotel", "booking",
        "running", "runs",
    ])
}

fn text(max_words: usize) -> impl Strategy<Value = String> {
    prop::collection::vec(word(), 0..max_words).prop_map(|ws| ws.join(" "))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn content_scorer_matches_per_call_formula(es in entries(40), lists in lookups(50)) {
        let profile = ContentProfile::from_entries(
            es.iter().map(|&(k, w)| (format!("t{k}"), w)).collect(),
            es.len() as u64,
        );
        let scorer = profile.scorer();
        for keys in &lists {
            let terms: Vec<String> = keys.iter().map(|k| format!("t{k}")).collect();
            let want = ref_score_concepts(&profile, &terms).to_bits();
            prop_assert_eq!(scorer.score(terms.iter().map(String::as_str)).to_bits(), want);
            prop_assert_eq!(
                profile.score_concepts(terms.iter().map(String::as_str)).to_bits(),
                want
            );
        }
    }

    #[test]
    fn location_scorer_matches_per_call_formula(
        es in entries(8),
        lists in lookups(8),
        scale_km in prop::sample::select(vec![0.001, 50.0, 500.0, 10_000.0]),
        geo_first in any::<bool>(),
    ) {
        let (world, ids) = world();
        let coords = WorldCoords::generate(&world, 7);
        let profile = LocationProfile::from_entries(
            es.iter().map(|&(k, w)| (ids[k], w)).collect(),
            es.len() as u64,
        );
        let scorer = profile.scorer();
        for keys in &lists {
            let locs: Vec<LocId> = keys.iter().map(|&k| ids[k]).collect();
            let exact = ref_score_locations(&profile, &locs).to_bits();
            let geo = ref_score_locations_geo(&profile, &locs, &coords, scale_km).to_bits();
            // Either kind of score may be the one that builds the
            // scorer's entry list.
            if geo_first {
                prop_assert_eq!(
                    scorer.score_geo(locs.iter().copied(), &coords, scale_km).to_bits(), geo);
                prop_assert_eq!(scorer.score(locs.iter().copied()).to_bits(), exact);
            } else {
                prop_assert_eq!(scorer.score(locs.iter().copied()).to_bits(), exact);
                prop_assert_eq!(
                    scorer.score_geo(locs.iter().copied(), &coords, scale_km).to_bits(), geo);
            }
            prop_assert_eq!(profile.score_locations(locs.iter().copied()).to_bits(), exact);
            prop_assert_eq!(
                profile.score_locations_geo(locs.iter().copied(), &coords, scale_km).to_bits(),
                geo
            );
        }
    }

    /// Up to 90 query words (more query terms than a `u64` mask holds,
    /// most of them duplicates) against a handful of titles.
    #[test]
    fn streaming_title_match_equals_analyze_and_contains(
        query in text(90),
        titles in prop::collection::vec(text(12), 1..6),
    ) {
        let (world, _) = world();
        let matcher = LocationMatcher::build(&world);
        // No snippets: the preference features stay 0, only the title counts.
        let onto = QueryConceptOntology::extract(
            &query, &[], &matcher, &world,
            &ConceptConfig::default(), &LocationConceptConfig::default(),
        );
        let inputs: Vec<ResultFeatureInput> = titles
            .iter()
            .chain([&String::new()])
            .enumerate()
            .map(|(i, t)| ResultFeatureInput {
                doc: i as u32,
                rank: i + 1,
                base_score: 0.5,
                url: format!("http://d{i}.test/"),
                title: t.clone(),
            })
            .collect();
        let rows = FeatureExtractor::new().extract_page(
            &query, &inputs, &onto,
            &ContentProfile::new(), &LocationProfile::new(), &UserHistory::new(),
        );
        prop_assert_eq!(rows.len(), inputs.len());
        for (row, input) in rows.iter().zip(&inputs) {
            prop_assert_eq!(
                row[4].to_bits(),
                ref_title_match(&query, &input.title).to_bits(),
                "query {:?} title {:?}", query, input.title
            );
        }
    }
}

#[test]
fn empty_and_cancelled_profiles_score_zero() {
    let (world, ids) = world();
    let coords = WorldCoords::generate(&world, 7);
    let cancelled_c =
        ContentProfile::from_entries(vec![("a".into(), 1.5), ("a".into(), -1.5)], 2);
    let cancelled_l = LocationProfile::from_entries(vec![(ids[4], 2.0), (ids[4], -2.0)], 2);
    assert_eq!(cancelled_c.len(), 1, "the entry stays, its weight is 0");
    for c in [&ContentProfile::new(), &cancelled_c] {
        assert_eq!(c.scorer().score(["a", "b"].into_iter()).to_bits(), 0f64.to_bits());
    }
    for l in [&LocationProfile::new(), &cancelled_l] {
        let s = l.scorer();
        assert_eq!(s.score([ids[4]].into_iter()).to_bits(), 0f64.to_bits());
        assert_eq!(s.score_geo([ids[4]].into_iter(), &coords, 500.0).to_bits(), 0f64.to_bits());
    }
}
