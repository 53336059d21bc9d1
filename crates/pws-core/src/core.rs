//! The shared, immutable read side of the engine.
//!
//! [`EngineCore`] owns everything a search needs that is *not* per-user:
//! the baseline index, the location ontology and its matcher, the engine
//! configuration, the (stateless) RankSVM trainer, and the resolved
//! metrics handles. Every method takes `&self`; per-user mutable state
//! ([`UserState`]) and per-query statistics ([`QueryStats`]) are passed in
//! by the caller. That split is what lets two frontends drive one core:
//!
//! * [`crate::PersonalizedSearchEngine`] — the serial engine: one
//!   `&mut self` map of users, as the paper's middleware ran;
//! * `pws-serve`'s `ServingEngine` — user-sharded concurrent serving:
//!   `&self + Send + Sync`, shards of mutex-guarded user maps.
//!
//! Because both frontends call the same `search_user_gated`/`observe_user`, a
//! request replayed through either produces the same [`SearchTurn`].

use crate::cache::{PooledHit, RankedPool, RetrievalCache, SnippetAnalyst};
use crate::config::{BlendStrategy, EngineConfig, PersonalizationMode};
use crate::state::UserState;
use pws_click::{Impression, UserId};
use pws_concepts::{QueryConceptOntology, SnippetAnalysis};
use pws_entropy::{Effectiveness, QueryStats};
use pws_geo::{LocId, LocationOntology};
use pws_index::{RetrievalBackend, SearchHit, Sym, TermTable};
use pws_obs::event::{FlightEvent, SearchStage};
use pws_obs::trace::{BetaInputs, BetaProvenance, ConceptTrace, QueryTrace, ResultTrace};
use pws_profile::{
    mine_pairs, FeatureExtractor, GeoContext, PreparedFeatures, ResultFeatureInput,
};
use pws_ranksvm::PairwiseTrainer;
use pws_text::Analyzer;
use std::sync::Arc;

/// Budget checkpoints inside [`EngineCore::search_user_gated`], in
/// execution order. At each one the caller's gate may abort
/// *personalization* — never the query: the turn falls back to the
/// pool-normalized base ranking and still completes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StageCheckpoint {
    /// After candidate retrieval (including query augmentation).
    Retrieval,
    /// After concept extraction over the candidate pool.
    Concepts,
    /// After feature-vector construction over the pool.
    Features,
}

impl StageCheckpoint {
    /// Stable lower-case label (used in metric names and traces).
    pub fn as_str(self) -> &'static str {
        match self {
            StageCheckpoint::Retrieval => "retrieval",
            StageCheckpoint::Concepts => "concepts",
            StageCheckpoint::Features => "features",
        }
    }
}

/// The caller-supplied budget/fault gate consulted at each
/// [`StageCheckpoint`]. Returning `true` aborts personalization for the
/// turn (degrading to the base ranking); the gate may also inject
/// side effects (deadline checks, chaos-testing faults) before deciding.
pub type CheckpointGate<'g> = &'g mut dyn FnMut(StageCheckpoint) -> bool;

/// Everything one `search` call produced: the page shown to the user plus
/// the intermediate state `observe` needs to learn from the clicks.
#[derive(Debug, Clone)]
pub struct SearchTurn {
    /// The issuing user.
    pub user: UserId,
    /// The query text as received.
    pub query_text: String,
    /// The final, (possibly) personalized page, ranks re-assigned 1-based.
    pub hits: Vec<SearchHit>,
    /// Concept ontology extracted over the *page* snippets (aligned with
    /// `hits`; feeds profile updates and query statistics). It holds no
    /// concept graph: `observe` reads the neighbours of the clicked
    /// concepts off its incidence rows (`QueryConceptOntology::spread`),
    /// and `QueryConceptOntology::graph` derives the graph on demand.
    pub ontology: QueryConceptOntology,
    /// Feature vectors aligned with `hits` (feeds pair mining). The base
    /// score is normalized exactly as the ranking features were — see
    /// [`EngineCore::search_user_gated`].
    pub features: Vec<Vec<f64>>,
    /// The content/location blend weight used (location share).
    pub beta: f64,
    /// Whether personalization actually re-ranked (false for baseline mode
    /// and for cold queries the effectiveness gate skipped).
    pub personalized: bool,
}

/// Cached handles into the global [`pws_obs`] registry, resolved once at
/// engine construction so the hot path never touches the registry lock.
struct EngineMetrics {
    retrieval: std::sync::Arc<pws_obs::StageMetrics>,
    concepts: std::sync::Arc<pws_obs::StageMetrics>,
    concepts_count: std::sync::Arc<pws_obs::StageMetrics>,
    concept_memo_hit: std::sync::Arc<pws_obs::StageMetrics>,
    concept_memo_miss: std::sync::Arc<pws_obs::StageMetrics>,
    snippet_hit: std::sync::Arc<pws_obs::StageMetrics>,
    snippet_miss: std::sync::Arc<pws_obs::StageMetrics>,
    features: std::sync::Arc<pws_obs::StageMetrics>,
    beta: std::sync::Arc<pws_obs::StageMetrics>,
    rerank: std::sync::Arc<pws_obs::StageMetrics>,
    observe: std::sync::Arc<pws_obs::StageMetrics>,
}

impl EngineMetrics {
    fn resolve() -> Self {
        // The five search stages use the flight-event schema constants
        // so the histogram names and `FlightEvent::stage_nanos` slots
        // can never drift apart.
        EngineMetrics {
            retrieval: pws_obs::stage(pws_obs::event::STAGE_RETRIEVAL),
            concepts: pws_obs::stage(pws_obs::event::STAGE_CONCEPTS),
            concepts_count: pws_obs::stage("engine.concepts.count"),
            concept_memo_hit: pws_obs::stage("engine.concepts.memo_hit"),
            concept_memo_miss: pws_obs::stage("engine.concepts.memo_miss"),
            snippet_hit: pws_obs::stage("engine.concepts.snippet_hit"),
            snippet_miss: pws_obs::stage("engine.concepts.snippet_miss"),
            features: pws_obs::stage(pws_obs::event::STAGE_FEATURES),
            beta: pws_obs::stage(pws_obs::event::STAGE_BETA),
            rerank: pws_obs::stage(pws_obs::event::STAGE_RERANK),
            observe: pws_obs::stage("engine.observe"),
        }
    }
}

/// One hit of a turn's candidate pool: the hit, its pool-normalized base
/// score, its snippet's analysis (shared with the pool it was cut into),
/// and whether this turn's cut built that analysis and no extraction of
/// the turn has counted it yet.
pub(crate) struct Candidate {
    pub(crate) hit: SearchHit,
    pub(crate) norm: f64,
    pub(crate) analysis: Arc<SnippetAnalysis>,
    pub(crate) fresh: bool,
}

/// The immutable shared read side of the personalized search engine.
///
/// Holds only state that is identical for every user and never mutated by
/// a query: the index, the ontology + matcher, the configuration, the
/// stateless trainer, and optional geo smoothing. All methods take
/// `&self`, so one `EngineCore` can serve any number of concurrent
/// requests as long as each request brings its own [`UserState`].
pub struct EngineCore<'a> {
    base: &'a dyn RetrievalBackend,
    /// The index's term table: a query is analysed to its ids once.
    terms: &'a TermTable,
    world: &'a LocationOntology,
    cfg: EngineConfig,
    trainer: PairwiseTrainer,
    geo: Option<GeoContext<'a>>,
    analyzer: Analyzer,
    /// The feature stage, with the mode's ablation masks.
    extractor: FeatureExtractor,
    metrics: EngineMetrics,
    /// Analyses of cut snippets, read off their form ids: the index's term
    /// table as the concept dictionary and one form table per index
    /// segment, built here once.
    analyst: SnippetAnalyst<'a>,
    /// The shared base-retrieval cache, when this core owns one.
    retrieval_cache: Option<RetrievalCache>,
}

impl<'a> EngineCore<'a> {
    /// Build the shared core over an already-built baseline index.
    pub fn new(
        base: &'a dyn RetrievalBackend,
        world: &'a LocationOntology,
        cfg: EngineConfig,
    ) -> Self {
        let trainer = PairwiseTrainer::new(cfg.train_cfg);
        let extractor =
            FeatureExtractor::with_masks(cfg.mode.uses_content(), cfg.mode.uses_location());
        EngineCore {
            analyst: SnippetAnalyst::new(base, world),
            base,
            terms: base.segment_forms().0,
            world,
            cfg,
            trainer,
            geo: None,
            // Surface forms matter when checking whether the query already
            // names a city, so no stopword removal / stemming here.
            analyzer: Analyzer::verbatim(),
            extractor,
            metrics: EngineMetrics::resolve(),
            retrieval_cache: None,
        }
    }

    /// Enable proximity-smoothed location scoring (the GPS extension):
    /// preference for a city also endorses geographically nearby places,
    /// with the exponential kernel scale `scale_km`.
    pub fn with_geo(mut self, coords: &'a pws_geo::WorldCoords, scale_km: f64) -> Self {
        self.geo = Some(GeoContext { coords, scale_km });
        self
    }

    /// Give the core a base-retrieval cache of `capacity` pools (see
    /// [`RetrievalCache`]). Base retrieval is user-independent, so cached
    /// pools are byte-identical to fresh ones; budget checkpoints and
    /// degradation still apply to cached turns.
    pub fn with_retrieval_cache(mut self, capacity: usize) -> Self {
        self.retrieval_cache = Some(RetrievalCache::new(capacity));
        self
    }

    /// Base retrieval of `query` with the configured pool size and, given
    /// the ids of a `city` name, of the augmented `query ++ city`,
    /// consulting the retrieval cache when the core owns one. Both keys are
    /// probed first; whatever missed is ranked in one index scan — an
    /// augmented miss always through the fused call, whose base list is
    /// dropped when the base pool was cached — and put, base pool first.
    /// An augmented pool resolves here, once, which of its hits join the
    /// base pool. A city that adds no id makes no augmented pool: its list
    /// would be the base list. Returns the pools — shared with the cache,
    /// so a cached pool costs a reference count; transient ones without a
    /// cache — plus `Some(hit?)` of the base probe when a cache was
    /// consulted (`None` without a cache) for the event's cache stamp. No
    /// snippet is cut here.
    #[allow(clippy::type_complexity)]
    fn retrieve(
        &self,
        query: Vec<Sym>,
        city: Option<Vec<Sym>>,
    ) -> (Arc<RankedPool>, Option<Arc<RankedPool>>, Option<bool>) {
        let (k, split) = (self.cfg.rerank_pool, query.len());
        let cache = self.retrieval_cache.as_ref();
        let probe = |ids: &[Sym]| cache.and_then(|c| c.get(ids, split, k));
        let base = probe(&query);
        let aug = city.filter(|city| !city.is_empty()).map(|city| {
            let aug = [query.as_slice(), &city].concat();
            (probe(&aug), aug)
        });
        let stamp = cache.map(|_| base.is_some());
        let extension = match &aug {
            Some((None, aug)) => Some(&aug[split..]),
            _ => None,
        };
        let (ranked, extended) = match (&base, extension) {
            (Some(_), None) => (Vec::new(), None),
            _ => self.base.rank_tokens(&query, extension, k),
        };
        let keep = |pool| {
            let pool = Arc::new(pool);
            if let Some(cache) = cache {
                cache.put(k, Arc::clone(&pool));
            }
            pool
        };
        let base = base.unwrap_or_else(|| keep(RankedPool::new(query, ranked)));
        let aug = aug.map(|(cached, aug)| {
            cached.unwrap_or_else(|| {
                // `extended` is `Some` whenever the augmented probe missed.
                let extended = extended.unwrap_or_default();
                keep(RankedPool::augmented(aug, split, extended, base.ranked()))
            })
        });
        (base, aug, stamp)
    }

    /// The candidate pool a turn for `query_text` re-ranks — each hit
    /// with its pool-normalized base score, best first — plus the base
    /// retrieval's cache stamp (see [`Self::search_user_gated`]).
    ///
    /// Every hit of the base list joins the pool. With `city` (the
    /// user's preferred city, when augmentation applies) the pool also
    /// takes the hits of "query + city" that join it — docs the base list
    /// lacks that the *original* query scores above 0 (a doc matching only
    /// the city name is topically irrelevant and must not inherit the
    /// augmented query's inflated score) — so home-city documents enter it
    /// even when the baseline ranking buried them. The augmented pool
    /// resolved its joins when it was built (`EngineCore::retrieve`); only
    /// they have their snippets cut. A joining hit keeps its augmented-list
    /// rank and BM25 score; its normalized score is its original-query
    /// score over the base list's maximum. Nothing is augmented when the
    /// query already names the city.
    pub fn candidate_pool(
        &self,
        query_text: &str,
        city: Option<LocId>,
    ) -> (Vec<(SearchHit, f64)>, Option<bool>) {
        let (candidates, _, cache_hit) = self.pool_candidates(query_text, city);
        (candidates.into_iter().map(|c| (c.hit, c.norm)).collect(), cache_hit)
    }

    /// [`Self::candidate_pool`] with each hit's snippet analysis, cut (and
    /// analysed) on first use, and the base retrieval (its query's ids are
    /// what concept counting compares snippet terms with).
    fn pool_candidates(
        &self,
        query_text: &str,
        city: Option<LocId>,
    ) -> (Vec<Candidate>, Arc<RankedPool>, Option<bool>) {
        // Augmentation is decided before ranking, so that one scan can rank
        // both lists. The augmented ids are the query's then the city's:
        // the analysis of "query city" (the analyser works token by token).
        let city = city
            .map(|c| self.world.name(c))
            .filter(|name| !self.query_mentions_city(query_text, name))
            .map(|name| self.terms.analyze(name));
        let (base, aug, cache_hit) = self.retrieve(self.terms.analyze(query_text), city);
        let all: Vec<usize> = (0..base.ranked().len()).collect();
        let (mut candidates, base_max) = normalize_pool(&base.cut(self.base, &all, &self.analyst));
        let Some(aug) = aug else {
            return (candidates, base, cache_hit);
        };
        // A shared hit is cloned once, when it enters the pool.
        let joining = aug.cut(self.base, &aug.joins, &self.analyst).into_iter().zip(&aug.join_scores);
        candidates.extend(joining.map(|((p, fresh), s)| candidate(p, s / base_max, fresh)));
        // Normalized score desc, doc asc: the joining docs are new to the pool.
        candidates.sort_by(|a, b| {
            let by_norm = b.norm.partial_cmp(&a.norm).unwrap_or(std::cmp::Ordering::Equal);
            by_norm.then_with(|| a.hit.doc.cmp(&b.hit.doc))
        });
        (candidates, base, cache_hit)
    }

    /// Concept extraction over `candidates`: the counting pass over their
    /// analyses, taken from the pool (timed as `engine.concepts.count`).
    /// Counts each analysis under `engine.concepts.snippet_miss` when this
    /// turn's cut built it and no extraction of the turn counted it yet,
    /// else `snippet_hit`, and the call as a whole under
    /// `engine.concepts.memo_miss` (it counted a built one) or `memo_hit`.
    fn extract_concepts(
        &self,
        (query_text, query): (&str, &[Sym]),
        candidates: &mut [Candidate],
    ) -> QueryConceptOntology {
        let built = candidates.iter().filter(|c| c.fresh).count();
        candidates.iter_mut().for_each(|c| c.fresh = false);
        self.metrics.snippet_hit.incr((candidates.len() - built) as u64);
        self.metrics.snippet_miss.incr(built as u64);
        if built == 0 {
            self.metrics.concept_memo_hit.incr(1);
        } else {
            self.metrics.concept_memo_miss.incr(1);
        }
        let _count_span = self.metrics.concepts_count.span();
        let analyses: Vec<&SnippetAnalysis> = candidates.iter().map(|c| &*c.analysis).collect();
        QueryConceptOntology::from_analyses(
            query_text,
            query,
            &analyses,
            self.analyst.dict(),
            self.world,
            &self.cfg.concept_cfg,
            &self.cfg.location_cfg,
        )
    }

    /// The turn's feature-scoring context: everything the feature stage
    /// derives from (user, query) alone — analysed query terms, each
    /// profile's L1 mass — computed once and shared by the pool rows and
    /// the page rows.
    fn prepare_features<'s>(
        &'s self,
        query_text: &str,
        state: &'s UserState,
    ) -> PreparedFeatures<'s> {
        #[cfg(test)]
        PREPARED.with(|n| n.set(n.get() + 1));
        self.extractor.prepare(
            query_text,
            &state.content,
            &state.location,
            &state.history,
            self.geo.as_ref(),
        )
    }

    /// The active configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// The location ontology this core was built over.
    pub fn world(&self) -> &'a LocationOntology {
        self.world
    }

    /// Canonical map key for a query string.
    pub fn query_key(query_text: &str) -> String {
        query_text.trim().to_lowercase()
    }

    /// Does the (analyzed) query already mention `city_name`?
    ///
    /// Compared on token sequences, not substrings: a query mentioning
    /// "yorkshire" does **not** mention the city "york", and a multi-word
    /// city name must appear as a contiguous token run. Used to decide
    /// whether the location-aware query augmentation would be redundant.
    pub fn query_mentions_city(&self, query_text: &str, city_name: &str) -> bool {
        self.analyzer.contains_run(query_text, city_name)
    }

    /// The β decision for a query under the configured strategy and
    /// mode, given the query's accumulated click statistics (if any): the
    /// value, its provenance (mode-pinned / fixed / adaptive) and, on the
    /// adaptive path, the entropy-derived effectiveness inputs. This is
    /// the *single* implementation of the blend policy, so a turn's event
    /// can never report a β different from the one the engine ranked with.
    pub fn beta_decision(
        &self,
        stats: Option<&QueryStats>,
    ) -> (f64, BetaProvenance, Option<BetaInputs>) {
        match self.cfg.mode {
            PersonalizationMode::ContentOnly => (0.0, BetaProvenance::Mode, None),
            PersonalizationMode::LocationOnly => (1.0, BetaProvenance::Mode, None),
            PersonalizationMode::Baseline => (0.5, BetaProvenance::Mode, None),
            PersonalizationMode::Combined => match self.cfg.blend {
                BlendStrategy::Fixed(b) => (b.clamp(0.0, 1.0), BetaProvenance::Fixed, None),
                BlendStrategy::Adaptive => match stats {
                    None => {
                        (Effectiveness::neutral().beta(), BetaProvenance::AdaptiveNeutral, None)
                    }
                    Some(s) => {
                        let eff = Effectiveness::from_stats(s, &self.cfg.effectiveness_cfg);
                        let inputs = BetaInputs {
                            content_effectiveness: eff.content,
                            location_effectiveness: eff.location,
                            clicks: s.clicks(),
                            impressions: s.impressions(),
                        };
                        (eff.beta(), BetaProvenance::Adaptive, Some(inputs))
                    }
                },
            },
        }
    }

    /// Decide the turn's β, timed into the event's β slot: the event
    /// gets the value and provenance, a trace the entropy inputs.
    fn decide_beta(
        &self,
        stats: Option<&QueryStats>,
        ev: &mut FlightEvent,
        trace: Option<&mut QueryTrace>,
    ) -> f64 {
        let span = self.metrics.beta.span();
        let (beta, provenance, inputs) = self.beta_decision(stats);
        finish_span(span, ev, SearchStage::Beta);
        ev.beta_bits = beta.to_bits();
        ev.beta_provenance = provenance;
        if let Some(t) = trace {
            t.beta_inputs = inputs;
        }
        beta
    }

    /// Copy a turn's decision detail into its trace: the ontology the
    /// rows were scored against and every row in final order, each as
    /// `(base_rank, (hit, normalized base score), features)`.
    fn trace_detail<'r>(
        &self,
        t: &mut QueryTrace,
        personalized: bool,
        onto: &QueryConceptOntology,
        rows: impl Iterator<Item = (usize, &'r Candidate, &'r Vec<f64>)>,
    ) {
        t.personalized = personalized;
        t.feature_names = pws_profile::FEATURE_NAMES.to_vec();
        t.content_concepts = onto
            .content
            .iter()
            .map(|c| ConceptTrace { name: c.term.clone(), support: c.support })
            .collect();
        t.location_concepts = onto
            .locations
            .iter()
            .map(|l| ConceptTrace { name: self.world.name(l.loc).to_string(), support: l.support })
            .collect();
        t.results = rows
            .enumerate()
            .map(|(pos, (base_rank, c, f))| ResultTrace {
                doc: c.hit.doc,
                title: c.hit.title.to_string(),
                base_rank,
                final_rank: pos + 1,
                on_page: pos < self.cfg.top_k,
                base_score: c.norm,
                features: f.clone(),
            })
            .collect();
    }

    /// Execute one personalized search for `user` against the caller's
    /// per-user `state`. `stats` is the accumulated clickthrough for this
    /// query (drives the adaptive β); pass whatever view of it the calling
    /// frontend maintains — a live map entry or an epoch snapshot.
    ///
    /// Feature normalization: every base score — for ranking *and* for the
    /// page features returned in [`SearchTurn::features`] — is normalized
    /// to `[0, 1]` by the candidate pool's maximum, through one shared
    /// helper. Training therefore consumes exactly the scale serving
    /// ranked with.
    ///
    /// Every turn writes its caller's `ev`: the user, each stage's
    /// nanoseconds into its [`SearchStage`] slot, the β value and
    /// provenance, and whether base retrieval hit the retrieval cache
    /// (`None` when no cache is configured) — the serving layer feeds
    /// *uncached* turn latencies into its overload `retry_after`
    /// estimate. When `trace` is `Some`, the turn's concepts, β inputs,
    /// and per-candidate feature vectors / rank movements are copied into
    /// it as well. Both only *read* values the search computed anyway —
    /// the ranking computation is identical with and without them (the
    /// replay-equivalence tests in `pws-serve` assert this
    /// byte-for-byte) — and a `None` trace costs nothing beyond the
    /// untraced path.
    ///
    /// The gate is consulted at each [`StageCheckpoint`] (after
    /// retrieval, after pool concept extraction, after feature build).
    /// When it returns `true` the turn **degrades**: personalization is
    /// abandoned and the page is the pool-normalized base ranking — the
    /// query itself always completes with a ranked result. The second
    /// return value names the checkpoint that aborted (`None` for a
    /// healthy turn).
    ///
    /// With `gate: None` (or a gate that never fires) the turn is fully
    /// personalized — the serial engine's path; the serving layer's
    /// replay-equivalence tests run with the gate wired in and inert to
    /// pin that the two agree byte for byte.
    #[allow(clippy::too_many_arguments)]
    pub fn search_user_gated(
        &self,
        user: UserId,
        query_text: &str,
        state: &UserState,
        stats: Option<&QueryStats>,
        ev: &mut FlightEvent,
        mut trace: Option<&mut QueryTrace>,
        mut gate: Option<CheckpointGate<'_>>,
    ) -> (SearchTurn, Option<StageCheckpoint>) {
        // ── Candidate pool ────────────────────────────────────────────────
        let retrieval_span = self.metrics.retrieval.span();
        let city = (self.cfg.query_augmentation && self.cfg.mode.uses_location())
            .then(|| state.location.preferred_city(self.world))
            .flatten();
        let (mut candidates, pool, cache_hit) = self.pool_candidates(query_text, city);
        let query = pool.query();
        ev.user = user.0;
        ev.cache_hit = cache_hit;
        finish_span(retrieval_span, ev, SearchStage::Retrieval);

        // The base order serves a baseline or empty pool (nothing to
        // degrade: this *is* the base order) and every degraded checkpoint.
        let query = (query_text, query);
        let base_order = |candidates, prepared, ev, trace| {
            self.base_order_turn(state, user, query, candidates, stats, prepared, ev, trace)
        };
        if self.cfg.mode == PersonalizationMode::Baseline || candidates.is_empty() {
            return (base_order(candidates, None, ev, trace), None);
        }
        if gate_fires(&mut gate, StageCheckpoint::Retrieval) {
            return (base_order(candidates, None, ev, trace), Some(StageCheckpoint::Retrieval));
        }

        // ── Features over the pool ────────────────────────────────────────
        let concepts_span = self.metrics.concepts.span();
        let pool_onto = self.extract_concepts(query, &mut candidates);
        finish_span(concepts_span, ev, SearchStage::Concepts);
        if gate_fires(&mut gate, StageCheckpoint::Concepts) {
            return (base_order(candidates, None, ev, trace), Some(StageCheckpoint::Concepts));
        }
        let features_span = self.metrics.features.span();
        let inputs: Vec<ResultFeatureInput> = candidates
            .iter()
            .enumerate()
            .map(|(i, c)| feature_input(&c.hit, c.norm, i + 1))
            .collect();
        let prepared = self.prepare_features(query_text, state);
        let mut features = prepared.rows(&inputs, &pool_onto);
        finish_span(features_span, ev, SearchStage::Features);
        if gate_fires(&mut gate, StageCheckpoint::Features) {
            let turn = base_order(candidates, Some(prepared), ev, trace);
            return (turn, Some(StageCheckpoint::Features));
        }

        // ── Blend ────────────────────────────────────────────────────────
        let beta = self.decide_beta(stats, ev, trace.as_deref_mut());
        for f in &mut features {
            f[1] *= 2.0 * (1.0 - beta);
            f[2] *= 2.0 * beta;
        }

        // ── Score & select the page ──────────────────────────────────────
        let rerank_span = self.metrics.rerank.span();
        let order = state.model.rank(&features);
        let page: Vec<Candidate> = order
            .iter()
            .take(self.cfg.top_k)
            .enumerate()
            .map(|(i, &idx)| {
                let c = &candidates[idx];
                let mut hit = c.hit.clone();
                hit.rank = i + 1;
                Candidate { hit, norm: c.norm, analysis: Arc::clone(&c.analysis), fresh: false }
            })
            .collect();
        finish_span(rerank_span, ev, SearchStage::Rerank);

        // The decision record: the concepts the ranker actually matched
        // against (pool-level ontology) and every pool candidate's
        // post-blend feature vector with its base-rank → final-rank
        // movement. Reads only; nothing the untraced path computes differs.
        if let Some(t) = trace.as_deref_mut() {
            let rows = order.iter().map(|&idx| (idx + 1, &candidates[idx], &features[idx]));
            self.trace_detail(t, true, &pool_onto, rows);
        }

        let turn = self.finish_turn(
            state,
            user,
            query,
            page,
            beta,
            true,
            Some(prepared),
            ev,
            trace,
        );
        (turn, None)
    }

    /// Complete a turn in base (pool) order: β decision, top-K page with
    /// ranks reassigned, `personalized: false`. Shared by the baseline /
    /// empty-pool branch and every degraded checkpoint — a degraded turn
    /// is byte-identical to what baseline mode would have served.
    /// `prepared` is the turn's scoring context when the caller already
    /// built one (a turn degraded after its pool features).
    #[allow(clippy::too_many_arguments)]
    fn base_order_turn(
        &self,
        state: &UserState,
        user: UserId,
        query: (&str, &[Sym]),
        candidates: Vec<Candidate>,
        stats: Option<&QueryStats>,
        prepared: Option<PreparedFeatures<'_>>,
        ev: &mut FlightEvent,
        mut trace: Option<&mut QueryTrace>,
    ) -> SearchTurn {
        // β must report what the mode would actually blend with (the
        // F6/F7-style analyses read it from the turn), not a
        // hard-coded neutral value.
        let beta = self.decide_beta(stats, ev, trace.as_deref_mut());
        let page: Vec<Candidate> = candidates
            .into_iter()
            .take(self.cfg.top_k)
            .enumerate()
            .map(|(i, mut c)| {
                c.hit.rank = i + 1;
                c
            })
            .collect();
        self.finish_turn(state, user, query, page, beta, false, prepared, ev, trace)
    }

    /// The stateless escape hatch: serve `query_text` from baseline
    /// retrieval alone, in pool-normalized base order, against a fresh
    /// default [`UserState`]. Touches no caller state at all, so the
    /// serving layer can answer a query even when the user's state is
    /// unavailable (poisoned shard lock, panic mid-personalization).
    /// No query augmentation — that needs a location profile.
    ///
    /// Writes `ev` and `trace` like [`search_user_gated`] does, for the
    /// turn it serves: β, provenance and cache hit are overwritten, and
    /// its stage times add to whatever an aborted attempt already put in
    /// the slots, so they sum every stage the request ran.
    ///
    /// [`search_user_gated`]: Self::search_user_gated
    pub fn degraded_search(
        &self,
        user: UserId,
        query_text: &str,
        stats: Option<&QueryStats>,
        ev: &mut FlightEvent,
        trace: Option<&mut QueryTrace>,
    ) -> SearchTurn {
        let retrieval_span = self.metrics.retrieval.span();
        let (candidates, pool, cache_hit) = self.pool_candidates(query_text, None);
        finish_span(retrieval_span, ev, SearchStage::Retrieval);
        ev.user = user.0;
        ev.cache_hit = cache_hit;
        let state = UserState::default();
        let query = (query_text, pool.query());
        self.base_order_turn(&state, user, query, candidates, stats, None, ev, trace)
    }

    /// Extract the page-level ontology + page-aligned features and assemble
    /// the turn. `page` carries each hit's pool-normalized base score so
    /// the training features see the same scale the ranker scored with.
    /// `prepared` is the scoring context the pool features were built
    /// with; a turn that built none prepares here, so every turn builds
    /// exactly one.
    #[allow(clippy::too_many_arguments)]
    fn finish_turn(
        &self,
        state: &UserState,
        user: UserId,
        (query_text, query): (&str, &[Sym]),
        mut page: Vec<Candidate>,
        beta: f64,
        personalized: bool,
        prepared: Option<PreparedFeatures<'_>>,
        ev: &mut FlightEvent,
        trace: Option<&mut QueryTrace>,
    ) -> SearchTurn {
        let concepts_span = self.metrics.concepts.span();
        let ontology = self.extract_concepts((query_text, query), &mut page);
        finish_span(concepts_span, ev, SearchStage::Concepts);
        let features_span = self.metrics.features.span();
        let inputs: Vec<ResultFeatureInput> =
            page.iter().map(|c| feature_input(&c.hit, c.norm, c.hit.rank)).collect();
        let prepared = prepared.unwrap_or_else(|| self.prepare_features(query_text, state));
        let features = prepared.rows(&inputs, &ontology);
        finish_span(features_span, ev, SearchStage::Features);
        // The personalized path filled the trace from the pool before
        // calling here; for baseline / degraded / empty turns the page
        // *is* the pool prefix in base order, so record it with
        // base == final.
        if let (Some(t), false) = (trace, personalized) {
            let rows = page.iter().zip(&features).map(|(c, f)| (c.hit.rank, c, f));
            self.trace_detail(t, false, &ontology, rows);
        }
        SearchTurn {
            user,
            query_text: query_text.to_string(),
            hits: page.into_iter().map(|c| c.hit).collect(),
            ontology,
            features,
            beta,
            personalized,
        }
    }

    /// Fold the user's clicks on a turn back into `state` and the query's
    /// statistics.
    ///
    /// `impression.results` must correspond to `turn.hits` (same order) —
    /// the simulator guarantees this by construction.
    pub fn observe_user(
        &self,
        turn: &SearchTurn,
        impression: &Impression,
        state: &mut UserState,
        stats: &mut QueryStats,
    ) {
        let _span = self.metrics.observe.span();
        // Query statistics always update (they also drive the adaptive β
        // for baseline-mode logging). Record the key on the user so the
        // export/store path knows which stats entries travel with them.
        stats.observe(&turn.ontology, impression);
        state.note_query(&Self::query_key(&turn.query_text));

        state.history.observe(impression);

        if self.cfg.mode == PersonalizationMode::Baseline {
            state.observations += 1;
            return;
        }

        if self.cfg.mode.uses_content() {
            state
                .content
                .observe(&turn.ontology, impression, &self.cfg.content_profile_cfg);
        }
        if self.cfg.mode.uses_location() {
            state.location.observe(
                &turn.ontology,
                impression,
                self.world,
                &self.cfg.location_profile_cfg,
            );
        }

        // Pair mining + periodic re-training.
        if self.cfg.retrain_every > 0 {
            let mut pairs = match &self.cfg.pair_source {
                crate::config::PairSource::Joachims(cfg) => {
                    mine_pairs(impression, &turn.features, cfg)
                }
                crate::config::PairSource::SpyNb(cfg) => {
                    pws_profile::mine_spynb_pairs(impression, &turn.features, cfg)
                }
            };
            state.pairs.append(&mut pairs);
            if state.pairs.len() > self.cfg.max_pairs_per_user {
                let excess = state.pairs.len() - self.cfg.max_pairs_per_user;
                state.pairs.drain(..excess);
            }
            state.observations += 1;
            if state.observations.is_multiple_of(self.cfg.retrain_every) && !state.pairs.is_empty()
            {
                // Re-train from the prior each round (anchored): the pair
                // window is the full training set, so warm-starting from
                // the drifted model would double-count old pairs.
                let anchor = UserState::prior_weights();
                state.model = pws_ranksvm::LinearRankModel::from_weights(anchor.clone());
                self.trainer.train_anchored(&mut state.model, &anchor, &state.pairs);
            }
        } else {
            state.observations += 1;
        }
    }
}

/// Consult the optional checkpoint gate; `None` never fires.
fn gate_fires(gate: &mut Option<CheckpointGate<'_>>, cp: StageCheckpoint) -> bool {
    match gate {
        Some(g) => g(cp),
        None => false,
    }
}

/// Close a stage span, recording into the aggregate histogram exactly as
/// dropping would, and add the measured nanoseconds into the event's slot
/// for `stage` (concepts and features run on the pool and on the page;
/// both runs sum). One measurement feeds both sinks, so aggregate
/// metrics and the event can never disagree about a stage.
fn finish_span(span: pws_obs::Span<'_>, ev: &mut FlightEvent, stage: SearchStage) {
    let slot = &mut ev.stage_nanos[stage as usize];
    *slot = slot.saturating_add(span.finish());
}

/// The one place a hit becomes a feature input: the base-score feature is
/// always the **pool-normalized** score, in `search_user_gated` (ranking over
/// the pool) and `finish_turn` (page features for training) alike. The
/// 2010-era bug this guards against: rebuilding page features from raw
/// BM25 scores trained every model on a different scale than it ranked
/// with.
fn feature_input(hit: &SearchHit, norm: f64, rank: usize) -> ResultFeatureInput {
    ResultFeatureInput {
        doc: hit.doc,
        rank,
        base_score: norm,
        url: hit.url.to_string(),
        title: hit.title.to_string(),
    }
}

/// A pooled hit as it enters a turn's candidate pool (cloned once).
fn candidate(pooled: &PooledHit, norm: f64, fresh: bool) -> Candidate {
    Candidate { hit: pooled.hit.clone(), norm, analysis: Arc::clone(&pooled.analysis), fresh }
}

/// Normalize a hit list's scores to [0, 1] by its own max; also returns
/// that max (floored at the smallest positive `f64`, so it divides). Each
/// hit comes with whether its cut was this turn's.
pub(crate) fn normalize_pool(hits: &[(&PooledHit, bool)]) -> (Vec<Candidate>, f64) {
    let max = hits.iter().map(|(p, _)| p.hit.score).fold(0.0_f64, f64::max).max(f64::MIN_POSITIVE);
    (hits.iter().map(|&(p, fresh)| candidate(p, p.hit.score / max, fresh)).collect(), max)
}

#[cfg(test)]
thread_local! {
    /// Scoring contexts prepared on this thread, so tests can count them.
    pub(crate) static PREPARED: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}
