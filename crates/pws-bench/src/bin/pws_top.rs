//! `pws-top` — live terminal dashboard over the serving engine's
//! observability surface (the `pws-obs` registry, the SLO health
//! monitor, and the store tier's residency counters).
//!
//! ```text
//! cargo run -p pws-bench --release --bin pws-top
//! cargo run -p pws-bench --release --bin pws-top -- --workers 8 --shards 8 --interval-ms 500
//! cargo run -p pws-bench --release --bin pws-top -- --chaos seed=42,panic=64 --deadline-ms 5
//! cargo run -p pws-bench --bin pws-top -- --once        # CI smoke (scripts/check.sh)
//! ```
//!
//! Live mode drives a closed-loop workload over the bench world (like
//! `serve_bench`, but open-ended) and redraws once per `--interval-ms`:
//! QPS, per-stage p50/p95/p99 over the last interval, cache hit ratio,
//! degrade/shed counters, per-shard load bars, store residency and
//! writeback backlog, and the SLO burn-rate verdicts from
//! [`pws_obs::health`]. Every figure is a *delta* over the interval
//! (via [`MetricsSnapshot::delta`]), so the dashboard shows current
//! behavior, not lifetime averages. `--frames N` exits after N redraws
//! (the default runs until interrupted).
//!
//! `--once` replays a small deterministic fixture single-threaded and
//! prints one machine-readable `key value` block instead of redrawing —
//! the form CI consumes.
//!
//! [`MetricsSnapshot::delta`]: pws_obs::MetricsSnapshot::delta

use pws_click::{Click, Impression, ShownResult, UserId};
use pws_core::{EngineConfig, SearchTurn};
use pws_corpus::query::QueryId;
use pws_geo::{LocId, LocationOntology};
use pws_index::{IndexBuilder, SearchEngine, StoredDoc};
use pws_obs::event::{SEARCH_STAGES, SEARCH_STAGE_LABELS};
use pws_obs::health::HealthReport;
use pws_obs::{MetricsSnapshot, StageSnapshot};
use pws_serve::{FlightConfig, SearchBudget, ServeConfig, ServingEngine};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

fn parse_str_flag(args: &[String], name: &str) -> Option<String> {
    let eq = format!("--{name}=");
    for (i, a) in args.iter().enumerate() {
        if a == &format!("--{name}") {
            return args.get(i + 1).cloned();
        }
        if let Some(v) = a.strip_prefix(&eq) {
            return Some(v.to_string());
        }
    }
    None
}

fn parse_flag(args: &[String], name: &str) -> Option<u64> {
    parse_str_flag(args, name).and_then(|v| v.parse().ok())
}

/// Nanoseconds, human-scaled.
fn fmt_nanos(n: u64) -> String {
    if n >= 10_000_000 {
        format!("{:.1}ms", n as f64 / 1e6)
    } else if n >= 10_000 {
        format!("{:.1}us", n as f64 / 1e3)
    } else {
        format!("{n}ns")
    }
}

/// Sum of `count` over every stage matching `pred`.
fn sum_counts(snap: &MetricsSnapshot, pred: impl Fn(&str) -> bool) -> u64 {
    snap.stages.iter().filter(|s| pred(&s.name)).map(|s| s.count).sum()
}

/// One `label  p50 p95 p99  (count)` row, or `None` when idle.
fn stage_row(snap: &MetricsSnapshot, stage: &str, label: &str) -> Option<String> {
    let s: &StageSnapshot = snap.stage(stage)?;
    if s.count == 0 {
        return None;
    }
    Some(format!(
        "  {label:<5} p50 {:>8}  p95 {:>8}  p99 {:>8}  ({} calls)",
        fmt_nanos(s.p50_nanos),
        fmt_nanos(s.p95_nanos),
        fmt_nanos(s.p99_nanos),
        s.count,
    ))
}

/// The health block, one `objective status (burn ...)` row each.
fn health_rows(report: &HealthReport) -> Vec<String> {
    let mut rows = Vec::new();
    for obj in &report.objectives {
        let burns: Vec<String> = obj
            .evidence
            .iter()
            .map(|w| format!("{} {:.2}x", w.window, w.burn))
            .collect();
        rows.push(format!(
            "  {:<20} {:<8} burn {}",
            obj.objective.name(),
            obj.status.label(),
            burns.join(" / "),
        ));
    }
    rows.push(format!("  {:<20} {}", "overall", report.status.label()));
    rows
}

/// Render one live frame from the interval delta.
fn render_frame(
    frame: u64,
    interval: Duration,
    delta: &MetricsSnapshot,
    report: &HealthReport,
    shards: usize,
    resident: usize,
    backlog: usize,
) -> String {
    let searches = sum_counts(delta, |n| n.starts_with("serve.shard") && n.ends_with(".search"));
    let qps = searches as f64 / interval.as_secs_f64().max(1e-9);
    let hits = delta.stage("serve.cache.hit").map(|s| s.count).unwrap_or(0);
    let misses = delta.stage("serve.cache.miss").map(|s| s.count).unwrap_or(0);
    let probes = hits + misses;
    let degraded = sum_counts(delta, |n| n.starts_with("serve.degraded."));
    let shed = delta.stage("serve.overloaded").map(|s| s.count).unwrap_or(0);
    let mut out = format!(
        "pws-top  frame {frame}  interval {:.1}s\n\n\
         traffic   {qps:>8.0} qps  ({searches} searches)\n\
         cache     {:>7.1}% hit  ({hits} hit / {misses} miss)\n\
         faults    {degraded} degraded  {shed} shed\n\nstages (last interval)\n",
        interval.as_secs_f64(),
        if probes > 0 { 100.0 * hits as f64 / probes as f64 } else { 0.0 },
    );
    for (stage, label) in SEARCH_STAGES.iter().zip(SEARCH_STAGE_LABELS) {
        if let Some(row) = stage_row(delta, stage, label) {
            out.push_str(&row);
            out.push('\n');
        }
    }
    out.push_str("\nshard load\n");
    let per_shard: Vec<u64> = (0..shards)
        .map(|i| {
            delta.stage(&format!("serve.shard{i}.search")).map(|s| s.count).unwrap_or(0)
        })
        .collect();
    let max = per_shard.iter().copied().max().unwrap_or(0).max(1);
    for (i, count) in per_shard.iter().enumerate() {
        let width = (count * 30 / max) as usize;
        out.push_str(&format!("  shard{i:<2} {:<30} {count}\n", "#".repeat(width)));
    }
    let store_count = |name: &str| delta.stage(name).map(|s| s.count).unwrap_or(0);
    out.push_str(&format!(
        "\nstore     {resident} resident  {backlog} writeback backlog  \
         {} retried  {} exhausted  {} backpressure\n",
        store_count("serve.store.retry"),
        store_count("serve.store.retry_exhausted"),
        store_count("serve.store.backpressure"),
    ));
    // Scratch-pool traffic: acquired − created = warm reuses; the
    // high-water mark is the p99 of per-checkout concurrency samples.
    out.push_str(&format!(
        "scratch   {} acquired  {} created  {} reused  high-water ~{}\n",
        store_count("scratch.acquired"),
        store_count("scratch.created"),
        store_count("engine.retrieval.scratch_reuse"),
        delta.stage("scratch.max_in_use").map(|s| s.p99_nanos).unwrap_or(0),
    ));
    out.push_str("\nslo\n");
    for row in health_rows(report) {
        out.push_str(&row);
        out.push('\n');
    }
    out
}

// ── --once: deterministic fixture replay, machine-readable ──────────────

fn world() -> LocationOntology {
    let mut o = LocationOntology::new();
    let r = o.add(LocId::WORLD, "westland", vec![]);
    let c = o.add(r, "ardonia", vec![]);
    let s = o.add(c, "vale", vec![]);
    o.add(s, "alden", vec![]);
    o.add(s, "lakemoor", vec![]);
    o
}

fn fixture_index() -> SearchEngine {
    let mut b = IndexBuilder::new();
    b.add(StoredDoc::new(0, "http://a.test/0", "Seafood guide",
        "seafood restaurant guide with lobster in alden harbor area"));
    b.add(StoredDoc::new(1, "http://b.test/1", "Seafood lakemoor",
        "seafood restaurant in lakemoor with fresh oysters"));
    b.add(StoredDoc::new(2, "http://c.test/2", "Sushi place",
        "sushi restaurant downtown with omakase menu in alden"));
    b.add(StoredDoc::new(3, "http://d.test/3", "Steak house",
        "steak restaurant grill with ribeye specials"));
    b.add(StoredDoc::new(4, "http://e.test/4", "Pizza lakemoor",
        "pizza restaurant in lakemoor stone oven margherita"));
    b.add(StoredDoc::new(5, "http://f.test/5", "Noodle bar",
        "noodle restaurant with ramen and broth in alden"));
    b.build()
}

fn impression_from(turn: &SearchTurn) -> Impression {
    let clicked = turn.hits.iter().map(|h| h.doc).max();
    Impression {
        user: turn.user,
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
            .iter()
            .filter(|h| Some(h.doc) == clicked)
            .map(|h| Click { doc: h.doc, rank: h.rank, dwell: 600 })
            .collect(),
    }
}

/// Replay the small fixture single-threaded and print one
/// machine-readable block. Exit code 0 iff the replay's flight events
/// reconcile with its turns.
fn run_once(shards: usize) -> ! {
    pws_obs::reset();
    let idx = fixture_index();
    let w = world();
    let e = ServingEngine::new(
        &idx,
        &w,
        EngineConfig::default(),
        ServeConfig {
            shards,
            stats_refresh_every: 1,
            flight: FlightConfig::enabled(256),
            ..ServeConfig::default()
        },
    );
    let baseline = e.health();
    let users = 4u32;
    let rounds = 3usize;
    let mut turns = 0u64;
    for round in 0..rounds {
        for u in 0..users {
            let q = format!("seafood restaurant u{u} r{round}");
            let resp = e
                .search_with(UserId(u), &q, SearchBudget::none())
                .expect("no admission limit configured");
            e.observe(&resp.turn, &impression_from(&resp.turn));
            turns += 1;
        }
    }
    let snap = pws_obs::snapshot();
    let report = e.health();
    let events = e.flight_events();

    println!("pws-top once");
    println!("turns {turns}");
    println!(
        "searches {}",
        sum_counts(&snap, |n| n.starts_with("serve.shard") && n.ends_with(".search"))
    );
    println!(
        "degraded {}",
        sum_counts(&snap, |n| n.starts_with("serve.degraded."))
    );
    println!("shed {}", snap.stage("serve.overloaded").map(|s| s.count).unwrap_or(0));
    println!("cache_hits {}", snap.stage("serve.cache.hit").map(|s| s.count).unwrap_or(0));
    println!("cache_misses {}", snap.stage("serve.cache.miss").map(|s| s.count).unwrap_or(0));
    for (stage, label) in SEARCH_STAGES.iter().zip(SEARCH_STAGE_LABELS) {
        if let Some(s) = snap.stage(stage) {
            println!("stage {label} count {} p99_nanos {}", s.count, s.p99_nanos);
        }
    }
    for i in 0..shards {
        let count =
            snap.stage(&format!("serve.shard{i}.search")).map(|s| s.count).unwrap_or(0);
        println!("shard {i} searches {count}");
    }
    let scratch_count = |name: &str| snap.stage(name).map(|s| s.count).unwrap_or(0);
    println!("scratch_acquired {}", scratch_count("scratch.acquired"));
    println!("scratch_created {}", scratch_count("scratch.created"));
    println!("scratch_reused {}", scratch_count("engine.retrieval.scratch_reuse"));
    println!(
        "scratch_max_in_use {}",
        snap.stage("scratch.max_in_use").map(|s| s.p99_nanos).unwrap_or(0)
    );
    println!("flight_events {}", events.len());
    assert_eq!(baseline.status, pws_obs::health::HealthStatus::Healthy);
    for obj in &report.objectives {
        println!("health {} {}", obj.objective.name(), obj.status.label());
    }
    println!("health overall {}", report.status.label());
    if events.len() as u64 != turns {
        eprintln!("FAIL: {} flight events for {turns} turns", events.len());
        std::process::exit(1);
    }
    println!("OK");
    std::process::exit(0);
}

// ── live mode ───────────────────────────────────────────────────────────

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let shards = parse_flag(&args, "shards").unwrap_or(8).max(1) as usize;
    if args.iter().any(|a| a == "--once") {
        run_once(shards);
    }
    let workers = parse_flag(&args, "workers").unwrap_or(4).max(1) as usize;
    let users = parse_flag(&args, "users").unwrap_or(64).max(1);
    let interval =
        Duration::from_millis(parse_flag(&args, "interval-ms").unwrap_or(1000).max(50));
    let frames = parse_flag(&args, "frames").unwrap_or(u64::MAX);
    let deadline = parse_flag(&args, "deadline-ms").map(Duration::from_millis);
    let chaos = parse_str_flag(&args, "chaos").map(|plan| {
        pws_chaos::ChaosSpec::parse(&plan).unwrap_or_else(|e| {
            eprintln!("error: bad --chaos plan {plan:?}: {e}");
            std::process::exit(2);
        })
    });

    eprintln!("building bench world…");
    let world = pws_bench::bench_world();
    let mut engine = ServingEngine::new(
        &world.engine,
        &world.world,
        EngineConfig::default(),
        ServeConfig {
            shards,
            flight: FlightConfig::enabled(1024),
            ..ServeConfig::default()
        },
    );
    if let Some(spec) = &chaos {
        pws_serve::quiet_injected_panics();
        engine = engine.with_fault_plan(std::sync::Arc::new(spec.build()));
    }
    let budgeted = deadline.is_some() || chaos.is_some();
    let stop = AtomicBool::new(false);
    let issued = AtomicU64::new(0);
    let n_queries = world.queries.len() as u64;

    std::thread::scope(|scope| {
        for w in 0..workers {
            let engine = &engine;
            let stop = &stop;
            let issued = &issued;
            let queries = &world.queries;
            scope.spawn(move || {
                let mut i: u64 = (w as u64) << 32;
                while !stop.load(Ordering::Relaxed) {
                    // The same deterministic (user, query) schedule
                    // serve_bench uses.
                    let tag = pws_obs::format::splitmix64(i);
                    let user = UserId((tag % users) as u32);
                    let qidx = (tag >> 16) % n_queries;
                    let text = &queries[qidx as usize].text;
                    if budgeted {
                        let budget = match deadline {
                            Some(d) => SearchBudget::with_deadline_in(d),
                            None => SearchBudget::none(),
                        };
                        let _ = engine.search_with(user, text, budget);
                    } else {
                        let _ = engine.search(user, text);
                    }
                    issued.fetch_add(1, Ordering::Relaxed);
                    i += 1;
                }
            });
        }

        let mut prev = pws_obs::snapshot();
        let mut frame = 0u64;
        while frame < frames {
            std::thread::sleep(interval);
            frame += 1;
            let cur = pws_obs::snapshot();
            let delta = cur.delta(&prev);
            let report = engine.health_monitor().observe_and_report(cur.clone());
            prev = cur;
            // ANSI clear + home, then the frame.
            print!(
                "\x1b[2J\x1b[H{}",
                render_frame(
                    frame,
                    interval,
                    &delta,
                    &report,
                    shards,
                    engine.resident_count(),
                    engine.writeback_backlog(),
                )
            );
            use std::io::Write;
            let _ = std::io::stdout().flush();
        }
        stop.store(true, Ordering::Relaxed);
    });

    eprintln!("\npws-top: {} requests issued across {workers} workers", issued.into_inner());
}
