//! Closed-loop throughput benchmark of the `pws-serve` concurrent engine.
//!
//! `W` worker threads share one [`ServingEngine`] and each drives a
//! closed loop: issue a personalized search for the next (user, query)
//! pair of its deterministic schedule, and every `observe_every`-th turn
//! also click the top result and feed the impression back through the
//! write path. Every request is timed into the `serve.request` stage of
//! the global [`pws_obs`] registry (so the engine's own stage profile and
//! the per-shard `serve.shard{i}.*` stages see the run), but the reported
//! p50/p95/p99 are computed **exactly from the raw per-request samples**
//! — the registry's log₂ histogram buckets are too coarse for tail
//! percentiles (at small sample counts p95 and p99 collapse into the
//! same bucket midpoint).

use pws_chaos::ChaosSpec;
use pws_click::{Click, Impression, ShownResult, UserId};
use pws_core::{EngineConfig, SearchTurn};
use pws_corpus::query::QueryId;
use pws_eval::ExperimentWorld;
use pws_obs::format::splitmix64;
use pws_serve::{quiet_injected_panics, SearchBudget, ServeConfig, ServingEngine};
use serde::Serialize;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Workload shape for one throughput run.
#[derive(Debug, Clone)]
pub struct ThroughputOptions {
    /// Closed-loop worker threads.
    pub workers: usize,
    /// Requests each worker issues (searches; observes ride on top).
    pub requests_per_worker: usize,
    /// User shards in the serving engine.
    pub shards: usize,
    /// Every n-th search also exercises the write path (click + observe);
    /// 0 disables observes entirely (pure read workload).
    pub observe_every: usize,
    /// Simulated user population size the workload cycles through.
    pub users: usize,
    /// Per-request deadline budget. `Some` switches the loop to
    /// `search_with` so queries degrade at the engine's stage
    /// checkpoints instead of running past the deadline.
    pub deadline: Option<Duration>,
    /// Deterministic fault injection ([`ChaosSpec`]); `None` runs
    /// fault-free. Any chaos (or a deadline) routes requests through
    /// the budgeted `search_with` path.
    pub chaos: Option<ChaosSpec>,
}

impl Default for ThroughputOptions {
    fn default() -> Self {
        ThroughputOptions {
            workers: 4,
            // 1000 requests/worker (4000 samples by default): enough raw
            // samples that p99 is a real order statistic, not the same
            // sample as p95 (the old 100-sample default made p95 == p99
            // unavoidable even with exact percentiles).
            requests_per_worker: 1000,
            shards: 8,
            observe_every: 4,
            users: 64,
            deadline: None,
            chaos: None,
        }
    }
}

/// Result of one throughput run. All latency fields are nanoseconds,
/// computed **exactly** from the raw per-request samples (sorted order
/// statistics, the same method as `retrieval_bench`) — not from the
/// registry's log₂ histogram buckets.
#[derive(Debug, Clone, Serialize)]
pub struct ThroughputReport {
    /// Worker threads that drove the engine.
    pub workers: usize,
    /// User shards in the engine.
    pub shards: usize,
    /// Search requests completed.
    pub searches: u64,
    /// Observe (write-path) requests completed.
    pub observes: u64,
    /// Wall-clock of the whole closed loop, seconds.
    pub elapsed_secs: f64,
    /// Requests (searches + observes) per second.
    pub qps: f64,
    /// Mean request latency, nanoseconds.
    pub mean_nanos: f64,
    /// Median request latency (exact order statistic).
    pub p50_nanos: u64,
    /// 95th-percentile request latency (exact order statistic).
    pub p95_nanos: u64,
    /// 99th-percentile request latency (exact order statistic).
    pub p99_nanos: u64,
    /// Searches answered from the degraded (base-ranking) path.
    pub degraded: u64,
    /// Searches shed by admission control (`Overloaded`).
    pub shed: u64,
}

impl ThroughputReport {
    /// Human-readable one-run table.
    pub fn render(&self) -> String {
        let mut out = format!(
            "serve throughput: {} workers x {} shards\n\
             requests  {:>8} searches + {:>6} observes in {:.2}s\n\
             qps       {:>10.0}\n\
             latency   mean {:.1}us  p50 {:.1}us  p95 {:.1}us  p99 {:.1}us",
            self.workers,
            self.shards,
            self.searches,
            self.observes,
            self.elapsed_secs,
            self.qps,
            self.mean_nanos / 1e3,
            self.p50_nanos as f64 / 1e3,
            self.p95_nanos as f64 / 1e3,
            self.p99_nanos as f64 / 1e3,
        );
        if self.degraded > 0 || self.shed > 0 {
            out.push_str(&format!(
                "\nfaults    {:>8} degraded + {:>6} shed (every query still answered)",
                self.degraded, self.shed
            ));
        }
        out
    }
}

/// Build the feedback impression for a turn: a click on the top result.
fn top_click_impression(turn: &SearchTurn, qid: QueryId) -> Impression {
    Impression {
        user: turn.user,
        query: qid,
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
            .first()
            .map(|h| Click { doc: h.doc, rank: h.rank, dwell: 600 })
            .into_iter()
            .collect(),
    }
}

/// Run the closed-loop benchmark against a shared [`ServingEngine`] built
/// over `world`'s index and ontology.
///
/// Deterministic workload, nondeterministic interleaving: each worker's
/// (user, query) schedule is a pure function of its worker index, but
/// threads race on the engine — which is the point; the engine's own
/// equivalence tests cover correctness, this measures contention.
pub fn run_throughput(world: &ExperimentWorld, opts: &ThroughputOptions) -> ThroughputReport {
    let mut engine = ServingEngine::new(
        &world.engine,
        &world.world,
        EngineConfig::default(),
        ServeConfig { shards: opts.shards, ..ServeConfig::default() },
    );
    if let Some(spec) = &opts.chaos {
        quiet_injected_panics();
        engine = engine.with_fault_plan(Arc::new(spec.build()));
    }
    // Budgeted path whenever a deadline or chaos is in play; the plain
    // `search` path otherwise, so fault-free baselines measure the
    // engine without the budget machinery on the request path.
    let budgeted = opts.deadline.is_some() || opts.chaos.is_some();
    let request_stage = pws_obs::stage("serve.request");
    request_stage.reset();
    let searches = AtomicU64::new(0);
    let observes = AtomicU64::new(0);
    let degraded = AtomicU64::new(0);
    let shed = AtomicU64::new(0);
    let users = opts.users.max(1) as u64;
    let n_queries = world.queries.len() as u64;
    // One raw-sample slot per worker: each closed loop times its own
    // requests locally (no contention on the measurement path) and
    // deposits the vector at the end; percentiles come from the merged
    // sorted samples, exactly.
    let n_workers = opts.workers.max(1);
    let sample_slots: Vec<std::sync::Mutex<Vec<u64>>> = (0..n_workers)
        .map(|_| std::sync::Mutex::new(Vec::with_capacity(opts.requests_per_worker * 2)))
        .collect();

    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for (w, slot) in sample_slots.iter().enumerate() {
            let engine = &engine;
            let request_stage = &request_stage;
            let searches = &searches;
            let observes = &observes;
            let degraded = &degraded;
            let shed = &shed;
            let queries = &world.queries;
            scope.spawn(move || {
                let mut samples: Vec<u64> =
                    Vec::with_capacity(opts.requests_per_worker * 2);
                for i in 0..opts.requests_per_worker {
                    let tag = splitmix64((w as u64) << 32 | i as u64);
                    let user = UserId((tag % users) as u32);
                    let qidx = (tag >> 16) % n_queries;
                    let text = &queries[qidx as usize].text;
                    let turn = if budgeted {
                        let budget = match opts.deadline {
                            Some(d) => SearchBudget::with_deadline_in(d),
                            None => SearchBudget::none(),
                        };
                        let span = request_stage.span();
                        let resp = engine.search_with(user, text, budget);
                        samples.push(span.finish());
                        match resp {
                            Ok(resp) => {
                                if resp.is_degraded() {
                                    degraded.fetch_add(1, Ordering::Relaxed);
                                }
                                resp.turn
                            }
                            Err(_) => {
                                shed.fetch_add(1, Ordering::Relaxed);
                                searches.fetch_add(1, Ordering::Relaxed);
                                continue;
                            }
                        }
                    } else {
                        let span = request_stage.span();
                        let turn = engine.search(user, text);
                        samples.push(span.finish());
                        turn
                    };
                    searches.fetch_add(1, Ordering::Relaxed);
                    if opts.observe_every > 0
                        && i % opts.observe_every == 0
                        && !turn.hits.is_empty()
                    {
                        let imp = top_click_impression(&turn, QueryId(qidx as u32));
                        let span = request_stage.span();
                        engine.observe(&turn, &imp);
                        samples.push(span.finish());
                        observes.fetch_add(1, Ordering::Relaxed);
                    }
                }
                *slot.lock().unwrap_or_else(|p| p.into_inner()) = samples;
            });
        }
    });
    let elapsed = t0.elapsed().as_secs_f64();

    let mut samples: Vec<u64> = Vec::new();
    for slot in &sample_slots {
        samples.extend(slot.lock().unwrap_or_else(|p| p.into_inner()).iter().copied());
    }
    samples.sort_unstable();
    // Exact percentile: the ⌈q·n⌉-th smallest sample (same order
    // statistic as retrieval_bench).
    let pct = |q: f64| -> u64 {
        if samples.is_empty() {
            return 0;
        }
        let idx = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len()) - 1;
        samples[idx]
    };
    let mean_nanos = if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<u64>() as f64 / samples.len() as f64
    };
    let searches = searches.load(Ordering::Relaxed);
    let observes = observes.load(Ordering::Relaxed);
    ThroughputReport {
        workers: n_workers,
        shards: opts.shards,
        searches,
        observes,
        elapsed_secs: elapsed,
        qps: if elapsed > 0.0 { (searches + observes) as f64 / elapsed } else { 0.0 },
        mean_nanos,
        p50_nanos: pct(0.50),
        p95_nanos: pct(0.95),
        p99_nanos: pct(0.99),
        degraded: degraded.load(Ordering::Relaxed),
        shed: shed.load(Ordering::Relaxed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_loop_reports_qps_and_percentiles() {
        // run_throughput resets the shared `serve.request` stage and this
        // test asserts on global per-shard counts — serialize against
        // every other registry-touching test in this binary.
        let _guard = pws_obs::test_lock();
        let world = pws_eval::ExperimentWorld::build(pws_eval::ExperimentSpec::small());
        let opts = ThroughputOptions {
            workers: 4, // the acceptance criterion: >1 worker thread
            requests_per_worker: 30,
            shards: 4,
            observe_every: 3,
            users: 16,
            ..ThroughputOptions::default()
        };
        let r = run_throughput(&world, &opts);
        assert_eq!(r.workers, 4);
        assert_eq!(r.searches, 4 * 30);
        assert!(r.observes > 0, "write path exercised");
        assert!(r.qps > 0.0);
        assert!(r.elapsed_secs > 0.0);
        assert!(r.mean_nanos > 0.0);
        assert!(r.p50_nanos > 0, "histogram populated");
        assert!(r.p95_nanos >= r.p50_nanos);
        assert!(r.p99_nanos >= r.p95_nanos);
        // The per-shard serving stages recorded the same run.
        let snap = pws_obs::snapshot();
        let shard_searches: u64 = snap
            .stages
            .iter()
            .filter(|s| s.name.starts_with("serve.shard") && s.name.ends_with(".search"))
            .map(|s| s.count)
            .sum();
        assert!(shard_searches >= r.searches, "per-shard stages saw every search");
        let rendered = r.render();
        assert!(rendered.contains("qps"));
        assert!(rendered.contains("p99"));
    }

    #[test]
    fn pure_read_workload_skips_observes() {
        // Serialized for the same reason as above: run_throughput resets
        // the shared `serve.request` stage.
        let _guard = pws_obs::test_lock();
        let world = pws_eval::ExperimentWorld::build(pws_eval::ExperimentSpec::small());
        let opts = ThroughputOptions {
            workers: 2,
            requests_per_worker: 10,
            shards: 2,
            observe_every: 0,
            users: 8,
            ..ThroughputOptions::default()
        };
        let r = run_throughput(&world, &opts);
        assert_eq!(r.searches, 20);
        assert_eq!(r.observes, 0);
        assert_eq!(r.degraded, 0);
        assert_eq!(r.shed, 0);
    }

    #[test]
    fn chaos_workload_degrades_but_answers_every_search() {
        // Serialized: run_throughput resets the shared `serve.request` stage.
        let _guard = pws_obs::test_lock();
        let world = pws_eval::ExperimentWorld::build(pws_eval::ExperimentSpec::small());
        let opts = ThroughputOptions {
            workers: 3,
            requests_per_worker: 40,
            shards: 4,
            observe_every: 4,
            users: 16,
            chaos: Some(ChaosSpec::parse("seed=11,panic=8,poison=16").unwrap()),
            ..ThroughputOptions::default()
        };
        let r = run_throughput(&world, &opts);
        assert_eq!(r.searches, 3 * 40, "chaos must not lose searches");
        assert!(r.degraded > 0, "panic/poison rates of 1-in-8/1-in-16 must fire");
        assert_eq!(r.shed, 0, "no admission limit configured");
        assert!(r.render().contains("degraded"));
    }
}
