//! The four workloads, and the set-up each measures on: world, index,
//! query templates, a `ServingEngine`, warmed (and, for `store.churn`,
//! store-seeded) users.
//!
//! The world (gazetteer, corpus, templates) is the fixture and is built
//! from the repo's own fixed spec seeds; `--seed` drives the traffic only
//! (see `schedule`), so two seeds differ in the sample, not the shape.

use crate::schedule::{warm_up, QueryPick, Request, ScheduleSpec};
use pws_click::{Click, Impression, ShownResult, UserId};
use pws_core::{EngineConfig, SearchTurn};
use pws_corpus::{CorpusGen, CorpusSpec, QueryGen, QueryId, QuerySpec};
use pws_eval::{ExperimentSpec, ExperimentWorld};
use pws_geo::{LocationOntology, WorldGen, WorldSpec};
use pws_index::{RetrievalBackend, SearchEngine, SegmentedIndex};
use pws_serve::{ServeConfig, ServingEngine, StoreTierConfig};
use std::path::Path;

/// Closed-loop clients. The sandbox has two cores; the engine's own
/// writeback daemon is the only other thread.
pub const CLIENTS: u32 = 2;

/// Which world a workload runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorldKind {
    /// `ExperimentSpec::default_paper()`: 8 k docs, in-memory index, 120
    /// query templates.
    Paper,
    /// A `CorpusSpec::large()`-shaped corpus of `docs` documents streamed
    /// into an 8-segment `SegmentedIndex`, `templates` generated templates.
    Large { docs: usize, templates: usize },
}

/// One workload: its world, traffic shape, and store tier.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// Why the workload exists (one line; also in BENCHMARK.json).
    pub why: &'static str,
    pub world: WorldKind,
    pub users: u32,
    pub warm_turns: u32,
    pub pick: QueryPick,
    pub observe_every: u32,
    /// `Some(capacity_per_shard)` puts a store tier under the engine.
    pub store_capacity_per_shard: Option<usize>,
    /// Users the correctness replay cycles through (see `verify`).
    pub verify_users: u32,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "paper.hot",
        why: "Zipf over 120 templates on the 8k-doc world, 60 warmed resident users, no writes: \
              retrieval is cached, so concept extraction and the feature loop do the work",
        world: WorldKind::Paper,
        users: 60,
        warm_turns: 20,
        pick: QueryPick::Zipf(1.0),
        observe_every: 0,
        store_capacity_per_shard: None,
        verify_users: 60,
    },
    Workload {
        name: "large.cold",
        why: "uniform over ~2700 distinct templates on a 300k-doc segmented index: retrieval \
              cache and concept memo miss, so Block-Max WAND and raw extraction cost show",
        world: WorldKind::Large { docs: 300_000, templates: 4000 },
        users: 60,
        warm_turns: 5,
        pick: QueryPick::Uniform,
        observe_every: 0,
        store_capacity_per_shard: None,
        verify_users: 60,
    },
    Workload {
        name: "paper.rw",
        why: "paper world with a click observed after every 2nd search: profile update, pair \
              mining, RankSVM training and stats refresh run beside reads on growing user state",
        world: WorldKind::Paper,
        users: 60,
        warm_turns: 5,
        pick: QueryPick::Zipf(1.0),
        observe_every: 2,
        store_capacity_per_shard: None,
        verify_users: 60,
    },
    Workload {
        name: "store.churn",
        why: "1000 stored users behind 64 resident slots, hot queries, observe after every 4th \
              search: most requests fault a record in and evict another, so the store tier works",
        world: WorldKind::Paper,
        users: 1000,
        warm_turns: 3,
        // Steeper than the other workloads: at s = 1 half the requests miss the
        // pool-level concept memo, so the median sits on the cliff between the
        // memo-hit (~1 ms) and memo-miss (~2.5 ms) modes and jumps between them
        // from run to run. At 1.5 the cliff is at p70 and the store tier is a
        // larger share of the median request.
        pick: QueryPick::Zipf(1.5),
        observe_every: 4,
        store_capacity_per_shard: Some(8),
        verify_users: 96,
    },
];

impl Workload {
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// The `--smoke` size of the same workload: same code paths on
    /// `ExperimentSpec::small()` / a 20 000-doc segmented index.
    pub fn smoke(self) -> Workload {
        Workload {
            world: match self.world {
                WorldKind::Paper => WorldKind::Paper,
                WorldKind::Large { .. } => WorldKind::Large { docs: 20_000, templates: 400 },
            },
            users: self.users.min(200),
            warm_turns: self.warm_turns.min(2),
            ..self
        }
    }

    pub fn schedule(&self, templates: usize) -> ScheduleSpec {
        ScheduleSpec {
            clients: CLIENTS,
            users: self.users,
            templates: templates as u32,
            pick: self.pick,
            warm_turns: self.warm_turns,
            observe_every: self.observe_every,
        }
    }
}

/// The index a workload searches.
pub enum Backend {
    Memory(SearchEngine),
    Segmented(SegmentedIndex),
}

impl Backend {
    pub fn as_dyn(&self) -> &dyn RetrievalBackend {
        match self {
            Backend::Memory(e) => e,
            Backend::Segmented(s) => s,
        }
    }
}

/// Everything immutable a workload runs against.
pub struct Fixture {
    pub world: LocationOntology,
    pub backend: Backend,
    /// Query templates; `Request::query` indexes this.
    pub queries: Vec<String>,
}

/// Segments of the large index (and so the fan-out an uncached query sees).
const LARGE_SEGMENTS: usize = 8;

impl Fixture {
    pub fn build(w: &Workload, smoke: bool) -> Fixture {
        match w.world {
            WorldKind::Paper => {
                let spec =
                    if smoke { ExperimentSpec::small() } else { ExperimentSpec::default_paper() };
                let ExperimentWorld { world, engine, queries, .. } = ExperimentWorld::build(spec);
                Fixture {
                    world,
                    backend: Backend::Memory(engine),
                    queries: queries.into_iter().map(|q| q.text).collect(),
                }
            }
            WorldKind::Large { docs, templates } => {
                // Same sub-seed derivation as `ExperimentWorld::build`.
                let seed = ExperimentSpec::default_paper().seed;
                let world = WorldGen::new(seed).generate(&WorldSpec::default_world());
                let corpus = CorpusSpec { num_docs: docs, ..CorpusSpec::large() };
                let gen = CorpusGen::new(seed.wrapping_add(1)).doc_gen(corpus, &world);
                let index = SegmentedIndex::build_parallel(
                    Default::default(),
                    docs,
                    docs.div_ceil(LARGE_SEGMENTS),
                    CLIENTS as usize,
                    |i| {
                        let d = gen.doc(i);
                        (d.url, d.title, d.body)
                    },
                )
                .expect("segments built from generated documents are well-formed");
                drop(gen);
                let spec = QuerySpec { num_queries: templates, ..QuerySpec::default_workload() };
                let queries = QueryGen::new(seed.wrapping_add(3))
                    .generate(&spec)
                    .into_iter()
                    .map(|q| q.text)
                    .collect();
                Fixture { world, backend: Backend::Segmented(index), queries }
            }
        }
    }

    /// A serving engine over this fixture, configured as the workload says.
    /// `store_dir` is used only by workloads with a store tier.
    pub fn engine(
        &self,
        w: &Workload,
        store_dir: &Path,
        stats_refresh_every: Option<u64>,
    ) -> ServingEngine<'_> {
        let defaults = ServeConfig::default();
        let cfg = ServeConfig {
            stats_refresh_every: stats_refresh_every.unwrap_or(defaults.stats_refresh_every),
            store: w.store_capacity_per_shard.map(|capacity_per_shard| StoreTierConfig {
                capacity_per_shard,
                ..StoreTierConfig::new(store_dir)
            }),
            ..defaults
        };
        ServingEngine::new(self.backend.as_dyn(), &self.world, EngineConfig::default(), cfg)
    }
}

/// The feedback for a turn: one satisfied click at `click_pos` (clamped to
/// the page), every result shown.
pub fn impression(turn: &SearchTurn, click_pos: u8) -> Impression {
    let clicked = (click_pos as usize).min(turn.hits.len().saturating_sub(1));
    Impression {
        user: turn.user,
        // The engine keys statistics on the query text, not on this id.
        query: QueryId(0),
        query_text: turn.query_text.clone(),
        results: turn
            .hits
            .iter()
            .map(|h| ShownResult {
                doc: h.doc,
                rank: h.rank,
                url: h.url.to_string(),
                title: h.title.to_string(),
                snippet: h.snippet.clone(),
            })
            .collect(),
        clicks: turn
            .hits
            .get(clicked)
            .map(|h| Click { doc: h.doc, rank: h.rank, dwell: 600 })
            .into_iter()
            .collect(),
    }
}

/// Warm every user (`warm_turns` search + click turns each) with the two
/// clients in parallel, then persist: after this the engine is in the state
/// the measured run starts from.
pub fn warm(engine: &ServingEngine<'_>, fx: &Fixture, w: &Workload, seed: u64) {
    let spec = w.schedule(fx.queries.len());
    std::thread::scope(|scope| {
        for client in 0..CLIENTS {
            scope.spawn(move || {
                for r in warm_up(seed, spec, client) {
                    search_and_observe(engine, fx, r);
                }
            });
        }
    });
    engine.flush_store();
    engine.refresh_stats();
}

fn search_and_observe(engine: &ServingEngine<'_>, fx: &Fixture, r: Request) {
    let turn = engine.search(UserId(r.user), &fx.queries[r.query as usize]);
    if !turn.hits.is_empty() {
        engine.observe(&turn, &impression(&turn, r.click_pos));
    }
}
