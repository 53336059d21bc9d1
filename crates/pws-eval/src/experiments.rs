//! The paper's evaluation, experiment by experiment.
//!
//! Every function takes a pre-built [`ExperimentWorld`] plus a [`Protocol`]
//! (interaction budgets) and returns a serializable report with a
//! `render()` method producing the human-readable table. The
//! `pws-bench` `experiments` binary drives these at paper scale; the
//! integration tests drive them at small scale.

use crate::harness::{run_method, run_methods_parallel, MethodResult, RunConfig};
use crate::metrics::MetricAccumulator;
use crate::setup::ExperimentWorld;
use pws_click::{SessionSimulator, SimConfig, UserId};
use pws_concepts::{ConceptConfig, LocationConceptConfig, QueryConceptOntology};
use pws_core::{BlendStrategy, EngineConfig, PersonalizationMode, PersonalizedSearchEngine};
use pws_corpus::query::{QueryClass, QueryId};
use pws_entropy::QueryStats;
use pws_geo::LocationMatcher;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Interaction budgets shared by the method-comparison experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Protocol {
    /// Training interactions per user.
    pub train_per_user: usize,
    /// Evaluation interactions per user.
    pub eval_per_user: usize,
    /// Harness seed.
    pub seed: u64,
}

impl Protocol {
    /// Paper-scale protocol.
    pub fn standard() -> Self {
        Protocol { train_per_user: 40, eval_per_user: 20, seed: 99 }
    }

    /// Small protocol for tests.
    pub fn quick() -> Self {
        Protocol { train_per_user: 8, eval_per_user: 4, seed: 99 }
    }

    fn run_cfg(&self, engine: EngineConfig) -> RunConfig {
        RunConfig {
            engine,
            train_per_user: self.train_per_user,
            eval_per_user: self.eval_per_user,
            observe_during_eval: false,
            seed: self.seed,
            label: None,
            click_model: crate::harness::ClickModelKind::PositionBias,
        }
    }
}

/// Simple fixed-width table renderer shared by the reports.
fn table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let render_row = |cells: &[String], widths: &[usize]| -> String {
        cells
            .iter()
            .zip(widths)
            .map(|(c, w)| format!("{c:<w$}"))
            .collect::<Vec<_>>()
            .join("  ")
            .trim_end()
            .to_string()
    };
    let header_cells: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
    out.push_str(&render_row(&header_cells, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&render_row(row, &widths));
        out.push('\n');
    }
    out
}

fn fmt3(x: f64) -> String {
    format!("{x:.3}")
}

/// Summary row extracted from a [`MethodResult`].
fn metric_row(label: &str, m: &MetricAccumulator) -> Vec<String> {
    vec![
        label.to_string(),
        fmt3(m.avg_rank_rel()),
        fmt3(m.avg_rank_high()),
        fmt3(m.p_rel()[0]),
        fmt3(m.p_high()[0]),
        fmt3(m.p_high()[2]),
        fmt3(m.mrr_high()),
        fmt3(m.ndcg10()),
        fmt3(m.ctr_at_1()),
    ]
}

const METRIC_HEADERS: [&str; 9] =
    ["method", "avgrank", "avgrank2", "P@1", "P@1:2", "P@5:2", "MRR:2", "nDCG@10", "CTR@1"];

// ───────────────────────────────── T1 ─────────────────────────────────────

/// T1 — dataset & ontology statistics.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct T1Report {
    pub docs: usize,
    pub localized_fraction: f64,
    pub cities: usize,
    pub ontology_nodes: usize,
    pub users: usize,
    pub query_templates: usize,
    pub content_queries: usize,
    pub location_sensitive_queries: usize,
    pub explicit_location_queries: usize,
    pub vocab_size: usize,
    pub avg_doc_len: f64,
    pub postings_bytes: usize,
}

/// Compute T1.
pub fn t1_dataset_stats(world: &ExperimentWorld) -> T1Report {
    let class_count = |c: QueryClass| world.queries.iter().filter(|q| q.class == c).count();
    T1Report {
        docs: world.corpus.len(),
        localized_fraction: world.corpus.localized_fraction(),
        cities: world.world.cities().count(),
        ontology_nodes: world.world.len(),
        users: world.population.len(),
        query_templates: world.queries.len(),
        content_queries: class_count(QueryClass::Content),
        location_sensitive_queries: class_count(QueryClass::LocationSensitive),
        explicit_location_queries: class_count(QueryClass::ExplicitLocation),
        vocab_size: world.engine.vocab_size(),
        avg_doc_len: world.engine.avg_doc_len(),
        postings_bytes: world.engine.postings_bytes(),
    }
}

impl T1Report {
    /// Render as a table.
    pub fn render(&self) -> String {
        let rows = vec![
            vec!["documents".into(), self.docs.to_string()],
            vec!["localized fraction".into(), fmt3(self.localized_fraction)],
            vec!["cities".into(), self.cities.to_string()],
            vec!["ontology nodes".into(), self.ontology_nodes.to_string()],
            vec!["users".into(), self.users.to_string()],
            vec!["query templates".into(), self.query_templates.to_string()],
            vec!["  content".into(), self.content_queries.to_string()],
            vec!["  location-sensitive".into(), self.location_sensitive_queries.to_string()],
            vec!["  explicit-location".into(), self.explicit_location_queries.to_string()],
            vec!["index vocabulary".into(), self.vocab_size.to_string()],
            vec!["avg doc length (tokens)".into(), format!("{:.1}", self.avg_doc_len)],
            vec!["postings bytes".into(), self.postings_bytes.to_string()],
        ];
        format!("T1 — dataset statistics\n{}", table(&["stat", "value"], &rows))
    }
}

// ───────────────────────────────── T2 ─────────────────────────────────────

/// Concepts extracted for one sample query.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct T2Query {
    pub query: String,
    pub class: String,
    pub content_concepts: Vec<(String, f64)>,
    pub location_concepts: Vec<(String, f64)>,
}

/// T2 — example concept extraction for three sample queries.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct T2Report {
    pub queries: Vec<T2Query>,
}

/// Compute T2: one sample query of each class.
pub fn t2_sample_concepts(world: &ExperimentWorld) -> T2Report {
    let matcher = LocationMatcher::build(&world.world);
    let mut samples = Vec::new();
    for class in [QueryClass::Content, QueryClass::LocationSensitive, QueryClass::ExplicitLocation]
    {
        let Some(q) = world.queries.iter().find(|q| q.class == class) else { continue };
        let hits = world.engine.search(&q.text, 20);
        let snippets: Vec<String> = hits.iter().map(|h| h.snippet.clone()).collect();
        let onto = QueryConceptOntology::extract(
            &q.text,
            &snippets,
            &matcher,
            &world.world,
            &ConceptConfig::default(),
            &LocationConceptConfig::default(),
        );
        samples.push(T2Query {
            query: q.text.clone(),
            class: format!("{class:?}"),
            content_concepts: onto
                .content
                .iter()
                .take(8)
                .map(|c| (c.term.clone(), c.support))
                .collect(),
            location_concepts: onto
                .locations
                .iter()
                .take(5)
                .map(|l| (world.world.name(l.loc).to_string(), l.support))
                .collect(),
        });
    }
    T2Report { queries: samples }
}

impl T2Report {
    /// Render as a table.
    pub fn render(&self) -> String {
        let mut out = String::from("T2 — sample extracted concepts\n");
        for q in &self.queries {
            out.push_str(&format!("\nquery: {:?} ({})\n", q.query, q.class));
            let content: Vec<String> = q
                .content_concepts
                .iter()
                .map(|(t, s)| format!("{t} ({s:.2})"))
                .collect();
            let locs: Vec<String> =
                q.location_concepts.iter().map(|(t, s)| format!("{t} ({s:.2})")).collect();
            out.push_str(&format!("  content : {}\n", content.join(", ")));
            out.push_str(&format!("  location: {}\n", locs.join(", ")));
        }
        out
    }
}

// ───────────────────────────────── T3 / F2 ────────────────────────────────

/// T3 — the four-method comparison.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct T3Report {
    pub methods: Vec<MethodResult>,
}

/// Compute T3: run baseline / content / location / combined.
pub fn t3_method_comparison(world: &ExperimentWorld, proto: &Protocol) -> T3Report {
    let cfgs: Vec<RunConfig> = [
        PersonalizationMode::Baseline,
        PersonalizationMode::ContentOnly,
        PersonalizationMode::LocationOnly,
        PersonalizationMode::Combined,
    ]
    .into_iter()
    .map(|mode| proto.run_cfg(EngineConfig::for_mode(mode)))
    .collect();
    T3Report { methods: run_methods_parallel(world, &cfgs) }
}

impl T3Report {
    /// Render as a table.
    pub fn render(&self) -> String {
        let rows: Vec<Vec<String>> =
            self.methods.iter().map(|m| metric_row(&m.label, &m.metrics)).collect();
        format!("T3 — method comparison\n{}", table(&METRIC_HEADERS, &rows))
    }

    /// The baseline row (first by construction).
    pub fn baseline(&self) -> &MethodResult {
        &self.methods[0]
    }

    /// The combined row (last by construction).
    pub fn combined(&self) -> &MethodResult {
        self.methods.last().expect("nonempty")
    }
}

/// F2 — Top-N precision per method (re-renders T3's runs at all cutoffs).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct F2Report {
    pub methods: Vec<(String, [f64; 4], [f64; 4])>,
}

/// Compute F2 from a T3 report (no re-run needed).
pub fn f2_topn_precision(t3: &T3Report) -> F2Report {
    F2Report {
        methods: t3
            .methods
            .iter()
            .map(|m| (m.label.clone(), m.metrics.p_rel(), m.metrics.p_high()))
            .collect(),
    }
}

impl F2Report {
    /// Render as a table.
    pub fn render(&self) -> String {
        let headers = ["method", "P@1", "P@3", "P@5", "P@10", "P@1:2", "P@3:2", "P@5:2", "P@10:2"];
        let rows: Vec<Vec<String>> = self
            .methods
            .iter()
            .map(|(label, p_rel, p_high)| {
                let mut row = vec![label.clone()];
                row.extend(p_rel.iter().map(|p| fmt3(*p)));
                row.extend(p_high.iter().map(|p| fmt3(*p)));
                row
            })
            .collect();
        format!("F2 — top-N precision\n{}", table(&headers, &rows))
    }
}

// ───────────────────────────────── F1 ─────────────────────────────────────

/// One method's point on the learning curve: (label, nDCG@10, P@1:2).
pub type F1Point = (String, f64, f64);

/// F1 — learning curve: quality vs training budget.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct F1Report {
    /// (train budget, per-method points).
    pub points: Vec<(usize, Vec<F1Point>)>,
}

/// Compute F1 over the given training budgets.
pub fn f1_learning_curve(
    world: &ExperimentWorld,
    proto: &Protocol,
    budgets: &[usize],
) -> F1Report {
    let modes = [
        PersonalizationMode::Baseline,
        PersonalizationMode::ContentOnly,
        PersonalizationMode::LocationOnly,
        PersonalizationMode::Combined,
    ];
    let points = budgets
        .iter()
        .map(|&budget| {
            let cfgs: Vec<RunConfig> = modes
                .into_iter()
                .map(|mode| {
                    let mut cfg = proto.run_cfg(EngineConfig::for_mode(mode));
                    cfg.train_per_user = budget;
                    cfg
                })
                .collect();
            let series = run_methods_parallel(world, &cfgs)
                .into_iter()
                .map(|r| (r.label.clone(), r.metrics.ndcg10(), r.metrics.p_high()[0]))
                .collect();
            (budget, series)
        })
        .collect();
    F1Report { points }
}

impl F1Report {
    /// Render as a table.
    pub fn render(&self) -> String {
        let mut headers = vec!["train".to_string()];
        if let Some((_, series)) = self.points.first() {
            for (label, ..) in series {
                headers.push(format!("{label}:ndcg"));
                headers.push(format!("{label}:P@1:2"));
            }
        }
        let header_refs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
        let rows: Vec<Vec<String>> = self
            .points
            .iter()
            .map(|(budget, series)| {
                let mut row = vec![budget.to_string()];
                for (_, ndcg, p1) in series {
                    row.push(fmt3(*ndcg));
                    row.push(fmt3(*p1));
                }
                row
            })
            .collect();
        format!("F1 — learning curve (quality vs training interactions)\n{}", table(&header_refs, &rows))
    }
}

// ───────────────────────────────── F3 ─────────────────────────────────────

/// F3 — concept support-threshold sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct F3Report {
    /// (threshold s, mean content concepts per query, combined nDCG@10,
    /// combined P@1:2).
    pub points: Vec<(f64, f64, f64, f64)>,
}

/// Compute F3.
pub fn f3_support_threshold_sweep(
    world: &ExperimentWorld,
    proto: &Protocol,
    thresholds: &[f64],
) -> F3Report {
    let matcher = LocationMatcher::build(&world.world);
    let points = thresholds
        .iter()
        .map(|&s| {
            // Mean concepts/query at this threshold over the workload
            // (uncapped, so the count reflects the threshold, not the cap).
            let cfg = ConceptConfig {
                min_support: s,
                max_concepts: usize::MAX,
                ..ConceptConfig::default()
            };
            let mut total = 0usize;
            for q in &world.queries {
                let hits = world.engine.search(&q.text, 30);
                let snippets: Vec<String> = hits.iter().map(|h| h.snippet.clone()).collect();
                let onto = QueryConceptOntology::extract(
                    &q.text,
                    &snippets,
                    &matcher,
                    &world.world,
                    &cfg,
                    &LocationConceptConfig::default(),
                );
                total += onto.content.len();
            }
            let mean_concepts = total as f64 / world.queries.len().max(1) as f64;

            // Quality with this threshold.
            let mut run_cfg =
                proto.run_cfg(EngineConfig::for_mode(PersonalizationMode::Combined));
            run_cfg.engine.concept_cfg.min_support = s;
            let r = run_method(world, &run_cfg);
            (s, mean_concepts, r.metrics.ndcg10(), r.metrics.p_high()[0])
        })
        .collect();
    F3Report { points }
}

impl F3Report {
    /// Render as a table.
    pub fn render(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .points
            .iter()
            .map(|(s, n, ndcg, p1)| {
                vec![format!("{s:.2}"), format!("{n:.1}"), fmt3(*ndcg), fmt3(*p1)]
            })
            .collect();
        format!(
            "F3 — support-threshold sweep\n{}",
            table(&["s", "concepts/query", "combined nDCG@10", "combined P@1:2"], &rows)
        )
    }
}

// ───────────────────────────────── F4 ─────────────────────────────────────

/// F4 — per-entropy-bucket gain of location personalization.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct F4Report {
    /// (bucket label, #queries, baseline P@1:2, location P@1:2, gain %).
    pub buckets: Vec<(String, usize, f64, f64, f64)>,
}

/// Compute F4: bucket queries by location click-entropy measured on a
/// baseline pass, then compare per-bucket baseline vs location-only
/// quality. Explicit-location templates are excluded: their city is in the
/// query text, the baseline already resolves them (T5 shows a ~0.75 P@1:2
/// ceiling), so they would mask the implicit-intent effect this analysis
/// is about.
pub fn f4_entropy_analysis(world: &ExperimentWorld, proto: &Protocol) -> F4Report {
    // Pass 1: collect per-query location entropy under the baseline.
    let stats = collect_query_stats(world, proto);
    let mut entropies: Vec<(QueryId, f64)> = stats
        .iter()
        .filter(|(qid, _)| {
            world.queries[qid.index()].class != QueryClass::ExplicitLocation
        })
        .map(|(qid, s)| (*qid, s.location_entropy()))
        .collect();
    // Total order with a QueryId tie-break: `stats` is a HashMap, so
    // without it queries with equal entropy (ties at 0.0 are common) would
    // land in terciles in random per-process iteration order.
    entropies.sort_by(|a, b| {
        a.1.partial_cmp(&b.1)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.0.index().cmp(&b.0.index()))
    });

    // Terciles.
    let n = entropies.len();
    let bucket_of: HashMap<QueryId, usize> = entropies
        .iter()
        .enumerate()
        .map(|(i, (qid, _))| (*qid, (i * 3 / n.max(1)).min(2)))
        .collect();

    // Pass 2: per-query metrics under baseline and location-only.
    let mut runs = run_methods_parallel(
        world,
        &[
            proto.run_cfg(EngineConfig::for_mode(PersonalizationMode::Baseline)),
            proto.run_cfg(EngineConfig::for_mode(PersonalizationMode::LocationOnly)),
        ],
    );
    let loc = runs.pop().expect("two runs");
    let base = runs.pop().expect("two runs");

    let mut per_bucket: Vec<(MetricAccumulator, MetricAccumulator, usize)> =
        vec![(MetricAccumulator::new(), MetricAccumulator::new(), 0); 3];
    for d in &base.detail {
        if let Some(&b) = bucket_of.get(&d.query) {
            per_bucket[b].0.push(&d.metrics);
        }
    }
    for d in &loc.detail {
        if let Some(&b) = bucket_of.get(&d.query) {
            per_bucket[b].1.push(&d.metrics);
        }
    }
    for (qid, _) in &entropies {
        if let Some(&b) = bucket_of.get(qid) {
            per_bucket[b].2 += 1;
        }
    }

    let labels = ["low entropy", "mid entropy", "high entropy"];
    let buckets = per_bucket
        .into_iter()
        .enumerate()
        .map(|(i, (b, l, count))| {
            let bn = b.p_high()[0];
            let ln = l.p_high()[0];
            let gain = if bn > 0.0 { (ln - bn) / bn * 100.0 } else { 0.0 };
            (labels[i].to_string(), count, bn, ln, gain)
        })
        .collect();
    F4Report { buckets }
}

/// Run a baseline pass and accumulate [`QueryStats`] per query template.
///
/// Sharded per user: each user replays `train_per_user` baseline issues
/// against a private engine/simulator pair, and the per-user stat maps are
/// merged in user order (every [`QueryStats`] field is a sum, so shard
/// merge order only fixes the floating-point accumulation order).
fn collect_query_stats(world: &ExperimentWorld, proto: &Protocol) -> HashMap<QueryId, QueryStats> {
    let per_user = crate::harness::replay_users(world.population.len(), |user_idx| {
        let engine_cfg = EngineConfig::for_mode(PersonalizationMode::Baseline);
        let top_k = engine_cfg.top_k;
        let mut engine = PersonalizedSearchEngine::new(&world.engine, &world.world, engine_cfg);
        let mut sim = SessionSimulator::new(
            &world.engine,
            &world.corpus,
            &world.world,
            &world.population,
            &world.queries,
            SimConfig { top_k, seed: crate::harness::user_seed(proto.seed, user_idx) },
        );
        let user = UserId(user_idx as u32);
        let mut stats: Vec<(QueryId, QueryStats)> = Vec::new();
        for _ in 0..proto.train_per_user.max(1) {
            let qid = sim.sample_query(user);
            let intent = sim.sample_intent_city(user);
            let q = &world.queries[qid.index()];
            let text = sim.render_query(q, intent);
            let turn = engine.search(user, &text);
            let outcome = sim.issue_on_hits(user, qid, intent, &text, &turn.hits);
            match stats.iter_mut().find(|(id, _)| *id == qid) {
                Some((_, s)) => s.observe(&turn.ontology, &outcome.impression),
                None => {
                    let mut s = QueryStats::new();
                    s.observe(&turn.ontology, &outcome.impression);
                    stats.push((qid, s));
                }
            }
            engine.observe(&turn, &outcome.impression);
        }
        stats
    });

    let mut stats: HashMap<QueryId, QueryStats> = HashMap::new();
    for user_stats in per_user {
        for (qid, s) in user_stats {
            stats.entry(qid).or_default().merge(&s);
        }
    }
    stats
}

impl F4Report {
    /// Render as a table.
    pub fn render(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .buckets
            .iter()
            .map(|(label, n, b, l, g)| {
                vec![label.clone(), n.to_string(), fmt3(*b), fmt3(*l), format!("{g:+.1}%")]
            })
            .collect();
        format!(
            "F4 — location personalization gain by location click-entropy bucket\n{}",
            table(&["bucket", "queries", "baseline P@1:2", "location P@1:2", "gain"], &rows)
        )
    }
}

// ───────────────────────────────── F5 ─────────────────────────────────────

/// F5 — blend-weight sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct F5Report {
    /// (strategy label, nDCG@10, P@1 at grade 2).
    pub points: Vec<(String, f64, f64)>,
}

/// Compute F5: fixed β ∈ given values, plus adaptive.
pub fn f5_blend_sweep(world: &ExperimentWorld, proto: &Protocol, betas: &[f64]) -> F5Report {
    let mut cfgs: Vec<RunConfig> = betas
        .iter()
        .map(|&b| {
            let mut cfg = proto
                .run_cfg(EngineConfig::for_mode(PersonalizationMode::Combined))
                .labeled(&format!("fixed {b:.2}"));
            cfg.engine.blend = BlendStrategy::Fixed(b);
            cfg
        })
        .collect();
    cfgs.push(
        proto
            .run_cfg(EngineConfig::for_mode(PersonalizationMode::Combined))
            .labeled("adaptive"),
    );
    let points = run_methods_parallel(world, &cfgs)
        .into_iter()
        .map(|r| (r.label.clone(), r.metrics.ndcg10(), r.metrics.p_high()[0]))
        .collect();
    F5Report { points }
}

impl F5Report {
    /// Render as a table.
    pub fn render(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .points
            .iter()
            .map(|(l, ndcg, p1)| vec![l.clone(), fmt3(*ndcg), fmt3(*p1)])
            .collect();
        format!("F5 — content/location blend sweep\n{}", table(&["β strategy", "nDCG@10", "P@1:2"], &rows))
    }
}

// ───────────────────────────────── F6 ─────────────────────────────────────

/// F6 — cold start: per-interaction quality for fresh users.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct F6Report {
    /// (interaction index 1-based, combined P@1:2, baseline P@1:2) —
    /// per-interaction means over users.
    pub points: Vec<(usize, f64, f64)>,
    /// Means over blocks of [`F6Report::BLOCK`] interactions (same series,
    /// less per-interaction noise).
    pub blocks: Vec<(String, f64, f64)>,
}

/// Compute F6 over the first `horizon` interactions of every user.
pub fn f6_cold_start(world: &ExperimentWorld, proto: &Protocol, horizon: usize) -> F6Report {
    let run_one = |mode: PersonalizationMode| -> Vec<f64> {
        // Per-user sharded replay: each user's cold-start trajectory is
        // independent, so users run in parallel and their per-step
        // precision series are summed in user order.
        let per_user = crate::harness::replay_users(world.population.len(), |user_idx| {
            let engine_cfg = EngineConfig::for_mode(mode);
            let top_k = engine_cfg.top_k;
            let mut engine =
                PersonalizedSearchEngine::new(&world.engine, &world.world, engine_cfg);
            let mut sim = SessionSimulator::new(
                &world.engine,
                &world.corpus,
                &world.world,
                &world.population,
                &world.queries,
                SimConfig { top_k, seed: crate::harness::user_seed(proto.seed, user_idx) },
            );
            let user = UserId(user_idx as u32);
            let mut series = Vec::with_capacity(horizon);
            for _ in 0..horizon {
                let qid = sim.sample_query(user);
                let intent = sim.sample_intent_city(user);
                let q = &world.queries[qid.index()];
                let text = sim.render_query(q, intent);
                let turn = engine.search(user, &text);
                let outcome = sim.issue_on_hits(user, qid, intent, &text, &turn.hits);
                series.push(crate::metrics::precision_at(
                    &outcome.grades,
                    1,
                    pws_click::relevance::Grade::HighlyRelevant,
                ));
                engine.observe(&turn, &outcome.impression);
            }
            series
        });
        let mut sums = vec![0.0; horizon];
        for series in per_user {
            for (sum, p) in sums.iter_mut().zip(series) {
                *sum += p;
            }
        }
        sums.into_iter().map(|s| s / world.population.len().max(1) as f64).collect()
    };

    let combined = run_one(PersonalizationMode::Combined);
    let baseline = run_one(PersonalizationMode::Baseline);
    let points: Vec<(usize, f64, f64)> =
        (0..horizon).map(|t| (t + 1, combined[t], baseline[t])).collect();
    let blocks = points
        .chunks(F6Report::BLOCK)
        .map(|chunk| {
            let lo = chunk.first().expect("nonempty chunk").0;
            let hi = chunk.last().expect("nonempty chunk").0;
            let n = chunk.len() as f64;
            let c = chunk.iter().map(|(_, c, _)| c).sum::<f64>() / n;
            let b = chunk.iter().map(|(_, _, b)| b).sum::<f64>() / n;
            (format!("{lo}–{hi}"), c, b)
        })
        .collect();
    F6Report { points, blocks }
}

impl F6Report {
    /// Interactions per rendering block.
    pub const BLOCK: usize = 5;

    /// Render as a table (blocked means; the raw per-interaction series is
    /// in the JSON).
    pub fn render(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .blocks
            .iter()
            .map(|(label, c, b)| vec![label.clone(), fmt3(*c), fmt3(*b)])
            .collect();
        format!(
            "F6 — cold start (P@1:2 per interaction block, mean over users)\n{}",
            table(&["interactions", "combined", "baseline"], &rows)
        )
    }
}

// ───────────────────────────────── F7 ─────────────────────────────────────

/// F7 — design ablations.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct F7Report {
    /// (variant label, nDCG@10, P@1 at grade 2, avg rank of grade-2).
    pub variants: Vec<(String, f64, f64, f64)>,
}

/// Compute F7: the full method against single-mechanism removals.
pub fn f7_ablations(world: &ExperimentWorld, proto: &Protocol) -> F7Report {
    let full = EngineConfig::for_mode(PersonalizationMode::Combined);

    let mut no_graph = full.clone();
    no_graph.content_profile_cfg.graph_damping = 0.0;

    let mut no_rollup = full.clone();
    no_rollup.location_cfg.rollup = false;
    no_rollup.location_profile_cfg.ancestor_decay = 0.0;

    let mut no_augment = full.clone();
    no_augment.query_augmentation = false;

    let mut no_skip = full.clone();
    no_skip.content_profile_cfg.skip_penalty = 0.0;
    no_skip.location_profile_cfg.skip_penalty = 0.0;

    let mut no_training = full.clone();
    no_training.retrain_every = 0;

    let mut spynb = full.clone();
    spynb.pair_source = pws_core::PairSource::SpyNb(pws_profile::SpyNbConfig::default());

    let cfgs: Vec<RunConfig> = [
        ("full", full),
        ("no concept graph (GCS off)", no_graph),
        ("no ontology rollup", no_rollup),
        ("no query augmentation", no_augment),
        ("no skip penalty", no_skip),
        ("no RankSVM (prior only)", no_training),
        ("SpyNB pairs (vs skip-above)", spynb),
    ]
    .into_iter()
    .map(|(label, engine)| proto.run_cfg(engine).labeled(label))
    .collect();
    let variants = run_methods_parallel(world, &cfgs)
        .into_iter()
        .map(|r| {
            (
                r.label.clone(),
                r.metrics.ndcg10(),
                r.metrics.p_high()[0],
                r.metrics.avg_rank_high(),
            )
        })
        .collect();
    F7Report { variants }
}

impl F7Report {
    /// Render as a table.
    pub fn render(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .variants
            .iter()
            .map(|(l, ndcg, p1, ar)| vec![l.clone(), fmt3(*ndcg), fmt3(*p1), fmt3(*ar)])
            .collect();
        format!(
            "F7 — ablations\n{}",
            table(&["variant", "nDCG@10", "P@1:2", "avgrank:2"], &rows)
        )
    }
}


// ───────────────────────────────── T5 ─────────────────────────────────────

/// T5 — per-query-class breakdown of the personalization gain.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct T5Report {
    /// (class label, issues, baseline nDCG, combined nDCG,
    /// baseline P@1:2, combined P@1:2).
    pub classes: Vec<(String, usize, f64, f64, f64, f64)>,
}

/// Compute T5: where does the gain come from? Location-sensitive queries
/// should gain most from the full method; pure content queries gain from
/// the content dimension only; explicit-location queries (the city is in
/// the text) should gain least — the baseline engine already handles them.
pub fn t5_class_breakdown(world: &ExperimentWorld, proto: &Protocol) -> T5Report {
    let runs = run_methods_parallel(
        world,
        &[
            proto.run_cfg(EngineConfig::for_mode(PersonalizationMode::Baseline)),
            proto.run_cfg(EngineConfig::for_mode(PersonalizationMode::Combined)),
        ],
    );
    let (base, comb) = (&runs[0], &runs[1]);

    let classes = [
        ("content", QueryClass::Content),
        ("location-sensitive", QueryClass::LocationSensitive),
        ("explicit-location", QueryClass::ExplicitLocation),
    ];
    let rows = classes
        .into_iter()
        .map(|(label, class)| {
            let mut b_acc = MetricAccumulator::new();
            let mut c_acc = MetricAccumulator::new();
            for d in &base.detail {
                if world.queries[d.query.index()].class == class {
                    b_acc.push(&d.metrics);
                }
            }
            for d in &comb.detail {
                if world.queries[d.query.index()].class == class {
                    c_acc.push(&d.metrics);
                }
            }
            (
                label.to_string(),
                b_acc.issues() as usize,
                b_acc.ndcg10(),
                c_acc.ndcg10(),
                b_acc.p_high()[0],
                c_acc.p_high()[0],
            )
        })
        .collect();
    T5Report { classes: rows }
}

impl T5Report {
    /// Render as a table.
    pub fn render(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .classes
            .iter()
            .map(|(l, n, bn, cn, bp, cp)| {
                vec![l.clone(), n.to_string(), fmt3(*bn), fmt3(*cn), fmt3(*bp), fmt3(*cp)]
            })
            .collect();
        format!(
            "T5 — per-class gains (baseline vs combined)\n{}",
            table(
                &["class", "issues", "base nDCG", "comb nDCG", "base P@1:2", "comb P@1:2"],
                &rows
            )
        )
    }
}

// ───────────────────────────────── F8 ─────────────────────────────────────

/// F8 — robustness to click noise.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct F8Report {
    /// (noise level, baseline P@1:2, combined P@1:2, gain %).
    pub points: Vec<(f64, f64, f64, f64)>,
}

/// Compute F8: rebuild the population at each noise level and compare.
/// Personalization gains should degrade gracefully — profiles average over
/// many interactions, so moderate noise dilutes but does not reverse them.
pub fn f8_noise_robustness(
    spec: &crate::setup::ExperimentSpec,
    proto: &Protocol,
    noise_levels: &[f64],
) -> F8Report {
    let points = noise_levels
        .iter()
        .map(|&eps| {
            let mut s = spec.clone();
            s.users.noise = (eps, (eps + 0.001).min(1.0));
            let world = ExperimentWorld::build(s);
            let runs = run_methods_parallel(
                &world,
                &[
                    proto.run_cfg(EngineConfig::for_mode(PersonalizationMode::Baseline)),
                    proto.run_cfg(EngineConfig::for_mode(PersonalizationMode::Combined)),
                ],
            );
            let b = runs[0].metrics.p_high()[0];
            let c = runs[1].metrics.p_high()[0];
            let gain = if b > 0.0 { (c - b) / b * 100.0 } else { 0.0 };
            (eps, b, c, gain)
        })
        .collect();
    F8Report { points }
}

impl F8Report {
    /// Render as a table.
    pub fn render(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .points
            .iter()
            .map(|(e, b, c, g)| {
                vec![format!("{e:.2}"), fmt3(*b), fmt3(*c), format!("{g:+.1}%")]
            })
            .collect();
        format!(
            "F8 — click-noise robustness (P@1:2)\n{}",
            table(&["noise", "baseline", "combined", "gain"], &rows)
        )
    }
}

// ───────────────────────────────── F9 ─────────────────────────────────────

/// F9 — robustness to the click-model assumption.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct F9Report {
    /// (click model, baseline P@1:2, combined P@1:2, gain %).
    pub points: Vec<(String, f64, f64, f64)>,
}

/// Compute F9: the conclusion (combined > baseline) must not depend on
/// which behavioural model generated the clicks.
pub fn f9_click_model_robustness(world: &ExperimentWorld, proto: &Protocol) -> F9Report {
    use crate::harness::ClickModelKind;
    let kinds =
        [ClickModelKind::PositionBias, ClickModelKind::Cascade, ClickModelKind::Dbn];
    let points = kinds
        .into_iter()
        .map(|kind| {
            let mut base = proto.run_cfg(EngineConfig::for_mode(PersonalizationMode::Baseline));
            base.click_model = kind;
            let mut comb = proto.run_cfg(EngineConfig::for_mode(PersonalizationMode::Combined));
            comb.click_model = kind;
            let runs = run_methods_parallel(world, &[base, comb]);
            let b = runs[0].metrics.p_high()[0];
            let c = runs[1].metrics.p_high()[0];
            let gain = if b > 0.0 { (c - b) / b * 100.0 } else { 0.0 };
            (kind.label().to_string(), b, c, gain)
        })
        .collect();
    F9Report { points }
}

impl F9Report {
    /// Render as a table.
    pub fn render(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .points
            .iter()
            .map(|(l, b, c, g)| vec![l.clone(), fmt3(*b), fmt3(*c), format!("{g:+.1}%")])
            .collect();
        format!(
            "F9 — click-model robustness (P@1:2)\n{}",
            table(&["click model", "baseline", "combined", "gain"], &rows)
        )
    }
}


// ───────────────────────────────── F10 ────────────────────────────────────

/// F10 — within-session adaptation: quality per refinement step.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct F10Report {
    /// (step index 1-based, combined P@1:2, baseline P@1:2, issues).
    pub steps: Vec<(usize, f64, f64, usize)>,
}

/// Compute F10: replay refinement sessions (specialize / generalize /
/// peer-shift chains over a template) through warm engines, observing
/// after every step. Short-term adaptation should make later steps of a
/// session better for the personalized engine, while the baseline's
/// per-step quality stays flat.
pub fn f10_session_adaptation(
    world: &ExperimentWorld,
    proto: &Protocol,
    sessions_per_user: usize,
) -> F10Report {
    use pws_corpus::session::{generate_session, SessionSpec};
    use pws_corpus::vocab::Topics;

    let topics = Topics::first(world.spec.corpus.num_topics);
    let max_steps = SessionSpec::default().steps.1;

    let run_one = |mode: PersonalizationMode| -> (Vec<f64>, Vec<usize>) {
        // Per-user sharded replay; per-step sums merge in user order.
        let per_user = crate::harness::replay_users(world.population.len(), |user_idx| {
            let engine_cfg = EngineConfig::for_mode(mode);
            let top_k = engine_cfg.top_k;
            let mut engine =
                PersonalizedSearchEngine::new(&world.engine, &world.world, engine_cfg);
            let mut sim = SessionSimulator::new(
                &world.engine,
                &world.corpus,
                &world.world,
                &world.population,
                &world.queries,
                SimConfig { top_k, seed: crate::harness::user_seed(proto.seed, user_idx) },
            );
            let user = UserId(user_idx as u32);
            let mut sums = vec![0.0; max_steps];
            let mut counts = vec![0usize; max_steps];
            // Warm-up traffic so profiles exist before sessions start.
            for _ in 0..proto.train_per_user / 2 {
                let qid = sim.sample_query(user);
                let intent = sim.sample_intent_city(user);
                let q = &world.queries[qid.index()];
                let text = sim.render_query(q, intent);
                let turn = engine.search(user, &text);
                let outcome = sim.issue_on_hits(user, qid, intent, &text, &turn.hits);
                engine.observe(&turn, &outcome.impression);
            }
            // Refinement sessions.
            for si in 0..sessions_per_user {
                let qid = sim.sample_query(user);
                let q = &world.queries[qid.index()];
                let steps = generate_session(
                    q,
                    &topics,
                    &SessionSpec::default(),
                    proto.seed ^ (user_idx as u64) << 8 ^ si as u64,
                );
                // One intent city per session: the session has one goal.
                let intent = sim.sample_intent_city(user);
                for (t, step) in steps.iter().enumerate() {
                    let turn = engine.search(user, &step.text);
                    let outcome =
                        sim.issue_on_hits(user, qid, intent, &step.text, &turn.hits);
                    sums[t] += crate::metrics::precision_at(
                        &outcome.grades,
                        1,
                        pws_click::relevance::Grade::HighlyRelevant,
                    );
                    counts[t] += 1;
                    engine.observe(&turn, &outcome.impression);
                }
            }
            (sums, counts)
        });
        let mut sums = vec![0.0; max_steps];
        let mut counts = vec![0usize; max_steps];
        for (s, c) in per_user {
            for (acc, v) in sums.iter_mut().zip(s) {
                *acc += v;
            }
            for (acc, v) in counts.iter_mut().zip(c) {
                *acc += v;
            }
        }
        (sums, counts)
    };

    let (c_sum, c_cnt) = run_one(PersonalizationMode::Combined);
    let (b_sum, b_cnt) = run_one(PersonalizationMode::Baseline);
    let steps = (0..max_steps)
        .filter(|&t| c_cnt[t] > 0 && b_cnt[t] > 0)
        .map(|t| {
            (
                t + 1,
                c_sum[t] / c_cnt[t] as f64,
                b_sum[t] / b_cnt[t] as f64,
                c_cnt[t],
            )
        })
        .collect();
    F10Report { steps }
}

impl F10Report {
    /// Render as a table.
    pub fn render(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .steps
            .iter()
            .map(|(t, c, b, n)| vec![t.to_string(), fmt3(*c), fmt3(*b), n.to_string()])
            .collect();
        format!(
            "F10 — within-session adaptation (P@1:2 by refinement step)\n{}",
            table(&["step", "combined", "baseline", "issues"], &rows)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setup::ExperimentSpec;

    fn world() -> ExperimentWorld {
        ExperimentWorld::build(ExperimentSpec::small())
    }

    #[test]
    fn t1_stats_match_world() {
        let w = world();
        let t1 = t1_dataset_stats(&w);
        assert_eq!(t1.docs, w.corpus.len());
        assert_eq!(t1.users, w.population.len());
        assert_eq!(
            t1.content_queries + t1.location_sensitive_queries + t1.explicit_location_queries,
            t1.query_templates
        );
        assert!(t1.render().contains("documents"));
    }

    #[test]
    fn t2_extracts_sample_concepts() {
        let w = world();
        let t2 = t2_sample_concepts(&w);
        assert!(!t2.queries.is_empty());
        assert!(t2.render().contains("query:"));
    }

    #[test]
    fn t3_runs_all_four_methods() {
        let w = world();
        let t3 = t3_method_comparison(&w, &Protocol::quick());
        assert_eq!(t3.methods.len(), 4);
        assert_eq!(t3.baseline().label, "baseline");
        assert_eq!(t3.combined().label, "combined");
        let rendered = t3.render();
        for label in ["baseline", "content", "location", "combined"] {
            assert!(rendered.contains(label), "{label} missing from\n{rendered}");
        }
        let f2 = f2_topn_precision(&t3);
        assert_eq!(f2.methods.len(), 4);
        assert!(f2.render().contains("P@10"));
    }

    #[test]
    fn f5_includes_adaptive_row() {
        let w = world();
        let f5 = f5_blend_sweep(&w, &Protocol { train_per_user: 4, eval_per_user: 2, seed: 9 }, &[0.0, 1.0]);
        assert_eq!(f5.points.len(), 3);
        assert_eq!(f5.points.last().unwrap().0, "adaptive");
    }

    #[test]
    fn f6_produces_horizon_points() {
        let w = world();
        let f6 = f6_cold_start(&w, &Protocol::quick(), 5);
        assert_eq!(f6.points.len(), 5);
        for (t, c, b) in &f6.points {
            assert!(*t >= 1 && *t <= 5);
            assert!((0.0..=1.0).contains(c));
            assert!((0.0..=1.0).contains(b));
        }
    }

    #[test]
    fn t5_splits_by_class() {
        let w = world();
        let t5 = t5_class_breakdown(&w, &Protocol::quick());
        assert_eq!(t5.classes.len(), 3);
        let total: usize = t5.classes.iter().map(|(_, n, ..)| n).sum();
        assert_eq!(total, w.population.len() * Protocol::quick().eval_per_user);
        assert!(t5.render().contains("location-sensitive"));
    }

    #[test]
    fn f8_sweeps_noise_levels() {
        let spec = ExperimentSpec::small();
        let proto = Protocol { train_per_user: 4, eval_per_user: 2, seed: 1 };
        let f8 = f8_noise_robustness(&spec, &proto, &[0.02, 0.3]);
        assert_eq!(f8.points.len(), 2);
        for (_, b, c, _) in &f8.points {
            assert!((0.0..=1.0).contains(b));
            assert!((0.0..=1.0).contains(c));
        }
    }

    #[test]
    fn f9_covers_all_click_models() {
        let w = world();
        let proto = Protocol { train_per_user: 4, eval_per_user: 2, seed: 1 };
        let f9 = f9_click_model_robustness(&w, &proto);
        assert_eq!(f9.points.len(), 3);
        let labels: Vec<&str> = f9.points.iter().map(|(l, ..)| l.as_str()).collect();
        assert!(labels.contains(&"position-bias"));
        assert!(labels.contains(&"cascade"));
        assert!(labels.contains(&"dbn"));
    }

    #[test]
    fn f10_produces_step_series() {
        let w = world();
        let proto = Protocol { train_per_user: 6, eval_per_user: 2, seed: 3 };
        let f10 = f10_session_adaptation(&w, &proto, 2);
        assert!(!f10.steps.is_empty());
        for (t, c, b, n) in &f10.steps {
            assert!(*t >= 1);
            assert!((0.0..=1.0).contains(c));
            assert!((0.0..=1.0).contains(b));
            assert!(*n > 0);
        }
        assert!(f10.render().contains("refinement step"));
    }

    #[test]
    fn table_renderer_aligns() {
        let s = table(&["a", "bb"], &[vec!["1".into(), "2".into()]]);
        assert!(s.contains("a"));
        assert!(s.contains("--"));
    }
}
