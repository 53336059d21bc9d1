//! The traced pass: spans around the real calls, and one timed call into
//! each layer's public entry point on that request's own inputs.
//!
//! Probes never go through the engine (its retrieval cache, concept memo
//! and residency are not disturbed) and run right after the request that
//! supplies their inputs, so they run cache-warm; their spans name that
//! request as parent but lie after it in time. Spans stay in memory until
//! the pass ends.

use crate::workload::Fixture;
use pws_click::UserId;
use pws_concepts::QueryConceptOntology;
use pws_core::{EngineConfig, SearchTurn, UserState};
use pws_geo::LocationMatcher;
use pws_index::{Analyzer, SearchHit};
use pws_profile::{FeatureExtractor, ResultFeatureInput};
use pws_ranksvm::{LinearRankModel, PairwiseTrainer};
use pws_serve::ServingEngine;
use pws_store::{decode_user_record, encode_user_record, UserRecord, UserStore};
use std::hint::black_box;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span. Times are nanoseconds from the pass's start.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Unique within the pass: `client << 32 | sequence`.
    pub id: u64,
    /// 0 for a root span.
    pub parent: u64,
    /// Shared by every span of one request.
    pub request: u64,
    pub client: u32,
    /// A layer probe rather than a real call.
    pub probe: bool,
}

/// A client's spans plus the sizes its probes saw.
#[derive(Debug, Default)]
pub struct Spans {
    pub spans: Vec<Span>,
    pub record_bytes: Vec<u64>,
    pub content_weights: Vec<u64>,
    pub location_weights: Vec<u64>,
    pub pairs: Vec<u64>,
}

/// Per-client probe state.
pub struct Prober<'a> {
    engine: &'a ServingEngine<'a>,
    fx: &'a Fixture,
    cfg: EngineConfig,
    matcher: LocationMatcher,
    analyzer: Analyzer,
    extractor: FeatureExtractor,
    trainer: PairwiseTrainer,
    /// Scratch store the `store.put` / `store.get` probes hit; never the
    /// engine's own directory.
    scratch: UserStore,
    client: u32,
    next_id: u64,
    out: Spans,
}

impl<'a> Prober<'a> {
    pub fn new(
        engine: &'a ServingEngine<'a>,
        fx: &'a Fixture,
        client: u32,
        scratch_dir: &Path,
    ) -> Self {
        let cfg = engine.config().clone();
        Prober {
            engine,
            fx,
            matcher: LocationMatcher::build(&fx.world),
            analyzer: Analyzer::default(),
            extractor: FeatureExtractor::with_masks(
                cfg.mode.uses_content(),
                cfg.mode.uses_location(),
            ),
            trainer: PairwiseTrainer::new(cfg.train_cfg),
            scratch: UserStore::open(scratch_dir).expect("probe scratch store directory"),
            cfg,
            client,
            next_id: 0,
            out: Spans::default(),
        }
    }

    fn push(
        &mut self,
        name: &'static str,
        t: (u64, u64),
        parent: u64,
        req: u64,
        probe: bool,
    ) -> u64 {
        self.next_id += 1;
        let id = u64::from(self.client) << 32 | self.next_id;
        self.out.spans.push(Span {
            name,
            start_ns: t.0,
            end_ns: t.1,
            id,
            parent,
            request: if req == 0 { id } else { req },
            client: self.client,
            probe,
        });
        id
    }

    /// Record the spans of one real request, then probe every layer with
    /// that request's inputs.
    pub fn request(
        &mut self,
        origin: Instant,
        search: (Instant, Instant),
        observe: Option<(Instant, Instant)>,
        user: u32,
        text: &str,
        turn: &SearchTurn,
    ) {
        let ns = |t: Instant| t.duration_since(origin).as_nanos() as u64;
        let end = observe.map_or(search.1, |o| o.1);
        let req = self.push("request", (ns(search.0), ns(end)), 0, 0, false);
        self.push("serve.search", (ns(search.0), ns(search.1)), req, req, false);
        if let Some((a, b)) = observe {
            self.push("serve.observe", (ns(a), ns(b)), req, req, false);
        }

        // Time `f`, record it as a probe span under this request.
        macro_rules! probe {
            ($name:expr, $f:expr) => {{
                let a = Instant::now();
                let v = black_box($f);
                let b = Instant::now();
                self.push($name, (ns(a), ns(b)), req, req, true);
                v
            }};
        }

        // pws-index: what one uncached base retrieval costs.
        let backend = self.fx.backend.as_dyn();
        let pool: Vec<SearchHit> = probe!("index.search", {
            let tokens = backend.analyze_text(black_box(text));
            backend.search_tokens(&tokens, self.cfg.rerank_pool)
        });

        // pws-concepts: one extraction over the pool, one over the page —
        // the two the engine makes per search when its memo misses.
        let pool_snippets: Vec<String> = pool.iter().map(|h| h.snippet.clone()).collect();
        let page_snippets: Vec<String> = turn.hits.iter().map(|h| h.snippet.clone()).collect();
        let world = &self.fx.world;
        let pool_onto = probe!(
            "concepts.extract",
            QueryConceptOntology::extract(
                text,
                &pool_snippets,
                &self.matcher,
                world,
                &self.cfg.concept_cfg,
                &self.cfg.location_cfg,
            )
        );
        let page_onto = probe!(
            "concepts.extract.page",
            QueryConceptOntology::extract(
                text,
                &page_snippets,
                &self.matcher,
                world,
                &self.cfg.concept_cfg,
                &self.cfg.location_cfg,
            )
        );
        // What extraction spends its time on, per pool: tokenising
        // (pws-text) and gazetteer matching (pws-geo).
        probe!(
            "text.analyze",
            pool_snippets.iter().map(|s| self.analyzer.analyze(s).len()).sum::<usize>()
        );
        probe!(
            "geo.match",
            pool_snippets.iter().map(|s| self.matcher.locations_in(s).len()).sum::<usize>()
        );

        // pws-profile: the feature loop over pool and page with the user's
        // real profile.
        let state: UserState = self.engine.user_state(UserId(user)).unwrap_or_default();
        let pool_inputs = feature_inputs(&pool);
        let page_inputs = feature_inputs(&turn.hits);
        let features = probe!(
            "profile.features",
            self.extractor.extract_page_geo(
                text,
                &pool_inputs,
                &pool_onto,
                &state.content,
                &state.location,
                &state.history,
                None,
            )
        );
        probe!(
            "profile.features.page",
            self.extractor.extract_page_geo(
                text,
                &page_inputs,
                &page_onto,
                &state.content,
                &state.location,
                &state.history,
                None,
            )
        );

        // pws-ranksvm: scoring the pool; re-training on the user's pairs
        // exactly as `observe` does every `retrain_every`-th click.
        probe!("ranksvm.rank", state.model.rank(&features));
        if !state.pairs.is_empty() {
            let anchor = UserState::prior_weights();
            let mut model = LinearRankModel::from_weights(anchor.clone());
            probe!("ranksvm.train", self.trainer.train_anchored(&mut model, &anchor, &state.pairs));
        }

        // pws-store: the user's real record through codec and a scratch store.
        self.out.content_weights.push(state.content.weight_entries().len() as u64);
        self.out.location_weights.push(state.location.weight_entries().len() as u64);
        self.out.pairs.push(state.pairs.len() as u64);
        let stats = state
            .seen_queries
            .iter()
            .filter_map(|key| self.engine.query_stats(key).map(|s| (key.clone(), s)))
            .collect();
        let record = UserRecord::new(UserId(user), state, stats);
        let bytes = probe!("store.encode", encode_user_record(&record));
        self.out.record_bytes.push(bytes.len() as u64);
        probe!("store.decode", decode_user_record(&bytes).is_ok());
        probe!("store.put", self.scratch.put(&record).is_ok());
        probe!("store.get", self.scratch.get(UserId(user)).is_ok());
    }

    pub fn finish(self) -> Spans {
        self.out
    }
}

/// Pool-normalised feature inputs, as the engine builds them.
fn feature_inputs(hits: &[SearchHit]) -> Vec<ResultFeatureInput> {
    let max = hits.iter().map(|h| h.score).fold(0.0_f64, f64::max).max(f64::MIN_POSITIVE);
    hits.iter()
        .enumerate()
        .map(|(i, h)| ResultFeatureInput {
            doc: h.doc,
            rank: i + 1,
            base_score: h.score / max,
            url: h.url.to_string(),
            title: h.title.to_string(),
        })
        .collect()
}

/// Write every span as one JSON object per line.
pub fn write_jsonl(path: &Path, clients: &[&Spans]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for spans in clients {
        for s in &spans.spans {
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"id\":{},\"parent\":{},\
                 \"request\":{},\"client\":{},\"probe\":{}}}",
                s.name, s.start_ns, s.end_ns, s.id, s.parent, s.request, s.client, s.probe
            )?;
        }
    }
    out.flush()
}
