//! The chaos suite: drives `pws-serve` through `SeededFaultPlan` and
//! pins the serving layer's fault-tolerance contract:
//!
//! 1. **No query is ever lost** — under heavy concurrent chaos, every
//!    `search_with` returns a ranked page (degraded where faulted,
//!    never an error, never a panic).
//! 2. **Every injected fault is accounted** — the injector's emission
//!    counts reconcile exactly with the `serve.*` counter family.
//! 3. **Blast-radius isolation** — for any seed, users the injector
//!    never touched rank byte-identically to a fault-free run.
//! 4. **The fault layer is inert when disabled** — an all-zero plan
//!    compiled in and attached changes nothing, byte-for-byte.

use pws_chaos::ChaosSpec;
use pws_click::{Click, Impression, ShownResult, UserId};
use pws_core::{EngineConfig, SearchTurn};
use pws_corpus::query::QueryId;
use pws_geo::{LocId, LocationOntology};
use pws_index::{IndexBuilder, SearchEngine, StoredDoc};
use pws_serve::{
    quiet_injected_panics, DegradeReason, FlightConfig, SearchBudget, ServeConfig,
    ServingEngine, StoreTierConfig,
};
use std::collections::HashMap;
use std::sync::Arc;

fn world() -> LocationOntology {
    let mut o = LocationOntology::new();
    let r = o.add(LocId::WORLD, "westland", vec![]);
    let c = o.add(r, "ardonia", vec![]);
    let s = o.add(c, "vale", vec![]);
    o.add(s, "alden", vec![]);
    o.add(s, "lakemoor", vec![]);
    o
}

fn index() -> SearchEngine {
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

/// Click the highest doc id on the page (stable, exercises skip-above).
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

fn queries_for(u: u32) -> Vec<String> {
    vec![
        format!("seafood restaurant u{u}"),
        format!("restaurant u{u}"),
        format!("seafood restaurant u{u}"),
        format!("sushi restaurant u{u}"),
    ]
}

/// Sequential replay: per-user transcripts (`{turn:?}`), observing
/// every turn. Fault injection (if the engine carries a plan) and the
/// `stats_refresh_every: 1` + disjoint-queries setup make this fully
/// deterministic.
fn replay(e: &ServingEngine<'_>, users: u32) -> HashMap<u32, Vec<String>> {
    let mut out: HashMap<u32, Vec<String>> = HashMap::new();
    for u in 0..users {
        for q in queries_for(u) {
            let resp = e
                .search_with(UserId(u), &q, SearchBudget::none())
                .expect("no admission limit configured");
            e.observe(&resp.turn, &impression_from(&resp.turn));
            out.entry(u).or_default().push(format!("{:?}", resp.turn));
        }
    }
    out
}

/// Contract 1: under heavy concurrent chaos (panics, delays, lock
/// poisoning), 100% of queries return ranked results — degraded where
/// faulted, never an error, never a lost query, never a wedged shard.
#[test]
fn chaos_never_loses_a_query() {
    quiet_injected_panics();
    // Counters are process-wide: serialize with the tests that assert on them.
    let _guard = pws_obs::test_lock();
    let idx = index();
    let w = world();
    let plan = Arc::new(
        ChaosSpec::parse("seed=42,panic=4,delay=6:200us,poison=8").unwrap().build(),
    );
    let e = ServingEngine::new(
        &idx,
        &w,
        EngineConfig::default(),
        ServeConfig { shards: 4, stats_refresh_every: 1, ..ServeConfig::default() },
    )
    .with_fault_plan(plan.clone());
    let threads = 8u32;
    let per_thread_users = 8u32;
    let answered = std::sync::atomic::AtomicU64::new(0);
    let degraded = std::sync::atomic::AtomicU64::new(0);
    std::thread::scope(|scope| {
        for t in 0..threads {
            let e = &e;
            let answered = &answered;
            let degraded = &degraded;
            scope.spawn(move || {
                for i in 0..per_thread_users {
                    let user = UserId(t * 1000 + i);
                    for q in queries_for(user.0) {
                        let resp = e
                            .search_with(user, &q, SearchBudget::none())
                            .expect("chaos degrades queries, never errors them");
                        assert!(
                            !resp.turn.hits.is_empty(),
                            "every query must come back ranked (user {user:?}, {q:?})"
                        );
                        if resp.is_degraded() {
                            degraded.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        }
                        e.observe(&resp.turn, &impression_from(&resp.turn));
                        answered.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    }
                }
            });
        }
    });
    let total = (threads * per_thread_users * 4) as u64;
    assert_eq!(answered.into_inner(), total, "no query may be lost");
    let counts = plan.counts();
    assert!(
        counts.search_panics + counts.poisons > 0,
        "the plan must actually have injected faults: {counts:?}"
    );
    assert!(degraded.into_inner() > 0, "injected faults must surface as degraded turns");
    assert!(
        e.queue_depths().iter().all(|&d| d == 0),
        "all shards drained — nothing wedged: {:?}",
        e.queue_depths()
    );
}

/// Contract 2: the injector's emission counts reconcile exactly with
/// the engine's `serve.*` counters — no fault is silently swallowed.
#[test]
fn every_injected_fault_is_visible_in_counters() {
    quiet_injected_panics();
    let _guard = pws_obs::test_lock();
    pws_obs::reset();
    let idx = index();
    let w = world();
    let plan = Arc::new(ChaosSpec::parse("seed=7,panic=3,poison=5").unwrap().build());
    let e = ServingEngine::new(
        &idx,
        &w,
        EngineConfig::default(),
        ServeConfig { shards: 4, stats_refresh_every: 1, ..ServeConfig::default() },
    )
    .with_fault_plan(plan.clone());
    // Sequential: each poisoning is recovered by its own request, so
    // the counter correspondence is exact, not merely a lower bound.
    let _ = replay(&e, 40);
    let counts = plan.counts();
    assert!(counts.search_panics > 0 && counts.observe_panics > 0 && counts.poisons > 0,
        "rates of 1-in-3 / 1-in-5 over 160 queries must fire every family: {counts:?}");
    let snap = pws_obs::snapshot();
    let count = |name: &str| {
        snap.stages.iter().find(|s| s.name == name).map(|s| s.count).unwrap_or(0)
    };
    assert_eq!(count("serve.degraded.panic"), counts.search_panics);
    assert_eq!(count("serve.state_restored"), counts.observe_panics);
    assert_eq!(count("serve.degraded.lock_poisoned"), counts.poisons);
    assert_eq!(count("serve.user_evicted"), counts.poisons);
    assert_eq!(count("serve.lock_recovered"), counts.poisons);
}

/// Contract 3 (the property test): for any seeded `FaultPlan`, queries
/// of users the injector never touched return byte-identical results
/// to a fault-free run — fault handling has zero blast radius beyond
/// the faulted requests themselves.
#[test]
fn healthy_users_rank_byte_identically_to_fault_free_run() {
    quiet_injected_panics();
    // Counters are process-wide: serialize with the tests that assert on them.
    let _guard = pws_obs::test_lock();
    let idx = index();
    let w = world();
    let users = 24u32;
    let serve_cfg =
        || ServeConfig { shards: 4, stats_refresh_every: 1, ..ServeConfig::default() };
    let clean = ServingEngine::new(&idx, &w, EngineConfig::default(), serve_cfg());
    let baseline = replay(&clean, users);
    for seed in [1u64, 7, 42] {
        let plan = Arc::new(
            ChaosSpec::parse(&format!("seed={seed},panic=16,delay=24:100us,poison=32"))
                .unwrap()
                .build(),
        );
        let e = ServingEngine::new(&idx, &w, EngineConfig::default(), serve_cfg())
            .with_fault_plan(plan.clone());
        let chaotic = replay(&e, users);
        let faulted = plan.faulted_users();
        assert!(!faulted.is_empty(), "seed {seed}: plan must touch someone");
        let healthy: Vec<u32> = (0..users).filter(|u| !faulted.contains(u)).collect();
        assert!(!healthy.is_empty(), "seed {seed}: plan must leave someone untouched");
        for u in healthy {
            assert_eq!(
                baseline[&u], chaotic[&u],
                "seed {seed}: untouched user {u} diverged from the fault-free run"
            );
        }
    }
}

/// Contract 4: the fault layer compiled in but *disabled* — an all-zero
/// plan attached — is byte-for-byte invisible.
#[test]
fn inert_plan_is_byte_identical_to_no_plan() {
    // Counters are process-wide: serialize with the tests that assert on them.
    let _guard = pws_obs::test_lock();
    let idx = index();
    let w = world();
    let users = 12u32;
    let serve_cfg =
        || ServeConfig { shards: 3, stats_refresh_every: 1, ..ServeConfig::default() };
    let without = ServingEngine::new(&idx, &w, EngineConfig::default(), serve_cfg());
    let inert = Arc::new(ChaosSpec::default().build());
    let with = ServingEngine::new(&idx, &w, EngineConfig::default(), serve_cfg())
        .with_fault_plan(inert.clone());
    assert_eq!(replay(&without, users), replay(&with, users));
    assert_eq!(inert.counts(), pws_chaos::ChaosCounts::default());
}

/// The chaos contract extended to the store tier: with a capacity-1
/// resident set (an eviction and a fault-in on nearly every turn) and
/// panics injected into fault-in and writeback, every query is still
/// answered, users the injector never touched rank byte-identically to
/// a chaos-free run over the same tier, and every store-stage panic is
/// visible in `serve.state_io_error`.
#[test]
fn chaos_with_store_tier_isolates_faults_and_accounts_them() {
    quiet_injected_panics();
    let _guard = pws_obs::test_lock();
    pws_obs::reset();
    let idx = index();
    let w = world();
    let users = 12u32;
    let tmp = |tag: &str| {
        let d =
            std::env::temp_dir().join(format!("pws-chaos-store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    };
    let serve_cfg = |dir: &std::path::Path| ServeConfig {
        shards: 4,
        stats_refresh_every: 1,
        store: Some(StoreTierConfig {
            capacity_per_shard: 1,
            // Synchronous writeback: with no daemon racing evictions the
            // single-threaded replay is fully deterministic.
            writeback: false,
            ..StoreTierConfig::new(dir)
        }),
        ..ServeConfig::default()
    };
    // Round-robin turns, so users constantly displace each other.
    let replay_rr = |e: &ServingEngine<'_>| -> HashMap<u32, Vec<String>> {
        let mut out: HashMap<u32, Vec<String>> = HashMap::new();
        for round in 0..4usize {
            for u in 0..users {
                let q = &queries_for(u)[round];
                let resp = e
                    .search_with(UserId(u), q, SearchBudget::none())
                    .expect("chaos degrades queries, never errors them");
                assert!(!resp.turn.hits.is_empty(), "query answered under store chaos");
                e.observe(&resp.turn, &impression_from(&resp.turn));
                out.entry(u).or_default().push(format!("{:?}", resp.turn));
            }
        }
        out
    };

    let clean_dir = tmp("clean");
    let clean = ServingEngine::new(&idx, &w, EngineConfig::default(), serve_cfg(&clean_dir));
    let baseline = replay_rr(&clean);

    let chaos_dir = tmp("chaos");
    let plan = Arc::new(ChaosSpec::parse("seed=11,panic=24").unwrap().build());
    let e = ServingEngine::new(&idx, &w, EngineConfig::default(), serve_cfg(&chaos_dir))
        .with_fault_plan(plan.clone());
    let chaotic = replay_rr(&e);

    let counts = plan.counts();
    assert!(counts.store_panics > 0, "plan must hit fault-in/writeback: {counts:?}");
    let snap = pws_obs::snapshot();
    let io_errors = snap
        .stages
        .iter()
        .find(|s| s.name == "serve.state_io_error")
        .map(|s| s.count)
        .unwrap_or(0);
    assert_eq!(io_errors, counts.store_panics, "every store-stage panic is accounted");

    let faulted = plan.faulted_users();
    let healthy: Vec<u32> = (0..users).filter(|u| !faulted.contains(u)).collect();
    assert!(!healthy.is_empty(), "plan must leave someone untouched");
    for u in healthy {
        assert_eq!(
            baseline[&u], chaotic[&u],
            "untouched user {u} diverged under store chaos"
        );
    }
    drop(e);
    drop(clean);
    let _ = std::fs::remove_dir_all(&clean_dir);
    let _ = std::fs::remove_dir_all(&chaos_dir);
}

/// The same six documents as [`index`], as a two-segment on-disk index
/// (docs 0–2 / 3–5 — global ids identical, so transcripts compare).
fn segmented_index() -> pws_index::SegmentedIndex {
    let docs: [(&str, &str, &str); 6] = [
        ("http://a.test/0", "Seafood guide",
            "seafood restaurant guide with lobster in alden harbor area"),
        ("http://b.test/1", "Seafood lakemoor",
            "seafood restaurant in lakemoor with fresh oysters"),
        ("http://c.test/2", "Sushi place",
            "sushi restaurant downtown with omakase menu in alden"),
        ("http://d.test/3", "Steak house",
            "steak restaurant grill with ribeye specials"),
        ("http://e.test/4", "Pizza lakemoor",
            "pizza restaurant in lakemoor stone oven margherita"),
        ("http://f.test/5", "Noodle bar",
            "noodle restaurant with ramen and broth in alden"),
    ];
    let mut segments = Vec::new();
    for chunk in docs.chunks(3) {
        let mut b = pws_index::SegmentBuilder::new(Default::default());
        for (url, title, body) in chunk {
            b.add(url, title, body);
        }
        segments.push(b.finish_segment().expect("segment"));
    }
    pws_index::SegmentedIndex::from_segments(segments).expect("segmented index")
}

/// Enabling the segmented on-disk backend changes nothing the chaos
/// suite can observe: fault-free replays are byte-identical to the
/// in-memory backend's, and under an injected fault plan the healthy
/// users still rank byte-identically to the fault-free baseline.
#[test]
fn chaos_suite_is_byte_identical_on_segmented_backend() {
    quiet_injected_panics();
    // Counters are process-wide: serialize with the tests that assert on them.
    let _guard = pws_obs::test_lock();
    let idx = index();
    let seg = segmented_index();
    let w = world();
    let users = 24u32;
    let serve_cfg =
        || ServeConfig { shards: 4, stats_refresh_every: 1, ..ServeConfig::default() };
    let mem = ServingEngine::new(&idx, &w, EngineConfig::default(), serve_cfg());
    let baseline = replay(&mem, users);
    let on_seg = ServingEngine::new(&seg, &w, EngineConfig::default(), serve_cfg());
    assert_eq!(
        baseline,
        replay(&on_seg, users),
        "fault-free replay must not depend on the backend"
    );
    let plan = Arc::new(
        ChaosSpec::parse("seed=42,panic=16,delay=24:100us,poison=32").unwrap().build(),
    );
    let chaotic = ServingEngine::new(&seg, &w, EngineConfig::default(), serve_cfg())
        .with_fault_plan(plan.clone());
    let chaotic = replay(&chaotic, users);
    let faulted = plan.faulted_users();
    assert!(!faulted.is_empty(), "plan must touch someone");
    for u in (0..users).filter(|u| !faulted.contains(u)) {
        assert_eq!(
            baseline[&u], chaotic[&u],
            "untouched user {u} diverged on the segmented backend"
        );
    }
}

/// The injector ↔ flight-recorder ↔ health-monitor reconciliation:
/// with the recorder enabled (rings larger than the query count, so
/// nothing is overwritten), every injected fault family shows up in the
/// recorded [`FlightEvent`]s with the matching degrade code, in counts
/// that equal the injector's own emission counts exactly — and the
/// [`HealthReport`]'s evidence over the same window counts the same
/// turns. Three scenarios: panics + lock poisoning, injected latency
/// under a deadline budget, and store-stage panics over a capacity-1
/// tier.
#[test]
fn flight_recorder_and_health_reconcile_injected_faults() {
    use pws_obs::health::{HealthStatus, Objective};
    quiet_injected_panics();
    let _guard = pws_obs::test_lock();
    let idx = index();
    let w = world();
    let evidence = |report: &pws_obs::health::HealthReport,
                    objective: Objective|
     -> pws_obs::health::WindowEvidence {
        report
            .objectives
            .iter()
            .find(|o| o.objective == objective)
            .unwrap_or_else(|| panic!("{} objective present", objective.name()))
            .evidence[0] // the fast window: exactly the last delta
            .clone()
    };

    // Scenario 1: panics and lock poisoning. 40 users × 4 queries,
    // sequential, so the correspondence is exact.
    pws_obs::reset();
    let plan = Arc::new(ChaosSpec::parse("seed=7,panic=3,poison=5").unwrap().build());
    let e = ServingEngine::new(
        &idx,
        &w,
        EngineConfig::default(),
        ServeConfig {
            shards: 4,
            stats_refresh_every: 1,
            flight: FlightConfig::enabled(1024),
            ..ServeConfig::default()
        },
    )
    .with_fault_plan(plan.clone());
    assert_eq!(e.health().status, HealthStatus::Healthy, "baseline observation");
    let _ = replay(&e, 40);
    let counts = plan.counts();
    assert!(counts.search_panics > 0 && counts.poisons > 0, "plan fired: {counts:?}");
    let events = e.flight_events();
    assert_eq!(events.len(), 160, "one event per query, none overwritten");
    let code_count = |code: Option<DegradeReason>| {
        events.iter().filter(|ev| ev.degraded == code).count()
    };
    assert_eq!(code_count(Some(DegradeReason::Panic)) as u64, counts.search_panics);
    assert_eq!(code_count(Some(DegradeReason::LockPoisoned)) as u64, counts.poisons);
    assert_eq!(
        code_count(None) as u64,
        160 - counts.search_panics - counts.poisons,
        "every other turn is clean"
    );
    let report = e.health();
    let ev = evidence(&report, Objective::DegradedRate);
    assert_eq!(ev.bad, counts.search_panics + counts.poisons, "health counts the same turns");
    assert_eq!(ev.total, 160);
    assert_eq!(report.status, HealthStatus::Critical, "a 1-in-3 panic rate is way over budget");
    drop(e);

    // Scenario 2: injected latency under a deadline budget. Every
    // query eats a 5ms delay at admission against a 1ms budget, so
    // every turn degrades at the first (retrieval) checkpoint.
    pws_obs::reset();
    let plan = Arc::new(ChaosSpec::parse("delay=1:5ms").unwrap().build());
    let e = ServingEngine::new(
        &idx,
        &w,
        EngineConfig::default(),
        ServeConfig {
            shards: 2,
            stats_refresh_every: 1,
            flight: FlightConfig::enabled(64),
            ..ServeConfig::default()
        },
    )
    .with_fault_plan(plan.clone());
    assert_eq!(e.health().status, HealthStatus::Healthy, "baseline observation");
    let turns = 8u32;
    for u in 0..turns {
        let resp = e
            .search_with(
                UserId(u),
                &format!("seafood restaurant u{u}"),
                SearchBudget::with_deadline_in(std::time::Duration::from_millis(1)),
            )
            .expect("deadlines degrade, never shed");
        assert_eq!(resp.degraded, Some(DegradeReason::DeadlineRetrieval));
    }
    assert!(plan.counts().delays >= u64::from(turns), "every query was delayed");
    let events = e.flight_events();
    assert_eq!(events.len(), turns as usize);
    assert!(
        events.iter().all(|ev| ev.degraded == Some(DegradeReason::DeadlineRetrieval)),
        "every event carries the deadline degrade code"
    );
    let report = e.health();
    let ev = evidence(&report, Objective::DegradedRate);
    assert_eq!((ev.bad, ev.total), (u64::from(turns), u64::from(turns)));
    assert_eq!(report.status, HealthStatus::Critical);
    drop(e);

    // Scenario 3: store-stage panics over a capacity-1 tier. Every
    // injected fault-in/writeback panic is one `serve.state_io_error`,
    // and the health monitor's io objective counts exactly those.
    pws_obs::reset();
    let dir = std::env::temp_dir()
        .join(format!("pws-chaos-flight-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let plan = Arc::new(ChaosSpec::parse("seed=11,panic=24").unwrap().build());
    let e = ServingEngine::new(
        &idx,
        &w,
        EngineConfig::default(),
        ServeConfig {
            shards: 4,
            stats_refresh_every: 1,
            flight: FlightConfig::enabled(256),
            store: Some(StoreTierConfig {
                capacity_per_shard: 1,
                writeback: false,
                ..StoreTierConfig::new(&dir)
            }),
            ..ServeConfig::default()
        },
    )
    .with_fault_plan(plan.clone());
    assert_eq!(e.health().status, HealthStatus::Healthy, "baseline observation");
    // Search-only replay: `observe` also runs the eviction sweep, and
    // evictions from that path have no flight event to carry the flag —
    // the exact flag ↔ counter correspondence below is a property of
    // the *search* path. (Writeback accounting under observe-driven
    // dirtying is covered by `chaos_with_store_tier_...` above.)
    let users = 12u32;
    for round in 0..4usize {
        for u in 0..users {
            let q = &queries_for(u)[round];
            let resp = e
                .search_with(UserId(u), q, SearchBudget::none())
                .expect("chaos degrades queries, never errors them");
            assert!(!resp.turn.hits.is_empty());
        }
    }
    let counts = plan.counts();
    assert!(counts.store_panics > 0, "plan hit fault-in/writeback: {counts:?}");
    let report = e.health();
    let ev = evidence(&report, Objective::StoreIoErrorRate);
    assert_eq!(ev.bad, counts.store_panics, "io objective counts every store panic");
    assert_eq!(ev.total, u64::from(users) * 4);
    assert_eq!(report.status, HealthStatus::Critical, "io budget is 0.1% — any panic trips it");
    let events = e.flight_events();
    assert_eq!(events.len(), users as usize * 4);
    let snap = pws_obs::snapshot();
    let count = |name: &str| snap.stage(name).map(|s| s.count).unwrap_or(0);
    assert_eq!(
        events.iter().filter(|ev| ev.store_fault_in).count() as u64,
        count("serve.store.fault_in"),
        "fault-in event flags reconcile with the counter"
    );
    assert_eq!(
        events.iter().filter(|ev| ev.store_evict).count() as u64,
        count("serve.store.evict"),
        "evict event flags reconcile with the counter"
    );
    drop(e);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Injected latency plus a deadline budget: every delayed query
/// degrades at a deadline checkpoint — deterministically, because the
/// injected delay (50ms) dwarfs the budget (5ms) — and still ranks.
#[test]
fn injected_latency_blows_deadlines_into_degraded_turns() {
    // Counters are process-wide: serialize with the tests that assert on them.
    let _guard = pws_obs::test_lock();
    let idx = index();
    let w = world();
    let plan = Arc::new(ChaosSpec::parse("delay=1:50ms").unwrap().build());
    let e = ServingEngine::new(&idx, &w, EngineConfig::default(), ServeConfig::default())
        .with_fault_plan(plan);
    for u in 0..3u32 {
        let resp = e
            .search_with(
                UserId(u),
                &format!("seafood restaurant u{u}"),
                SearchBudget::with_deadline_in(std::time::Duration::from_millis(5)),
            )
            .expect("deadlines degrade, never shed");
        assert!(matches!(
            resp.degraded,
            Some(DegradeReason::DeadlineRetrieval
                | DegradeReason::DeadlineConcepts
                | DegradeReason::DeadlineFeatures)
        ), "expected a deadline degrade, got {:?}", resp.degraded);
        assert!(!resp.turn.hits.is_empty());
    }
}

/// The `storeio=` clause: seeded transient I/O faults under the store
/// tier are absorbed by the serving layer's retry loop. Every fault is
/// retried to success (zero exhaustions, zero `serve.state_io_error`),
/// the injector's own emission count bounds the retry counter, the
/// replay is byte-identical to a fault-free run, and once retries drain
/// the on-disk records match the clean store byte for byte.
#[test]
fn storeio_transient_faults_retry_to_a_byte_identical_run() {
    quiet_injected_panics();
    let _guard = pws_obs::test_lock();
    pws_obs::reset();
    let idx = index();
    let w = world();
    let users = 8u32;
    let tmp = |tag: &str| {
        let d = std::env::temp_dir()
            .join(format!("pws-chaos-storeio-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    };
    let serve_cfg = |dir: &std::path::Path, io: Option<Arc<pws_store::FaultIo>>| ServeConfig {
        shards: 4,
        stats_refresh_every: 1,
        store: Some(StoreTierConfig {
            capacity_per_shard: 1,
            // Synchronous writeback: the single-threaded replay is
            // fully deterministic, retries included.
            writeback: false,
            io: io.map(|io| io as Arc<dyn pws_store::StoreIo>),
            ..StoreTierConfig::new(dir)
        }),
        ..ServeConfig::default()
    };
    let replay_rr = |e: &ServingEngine<'_>| -> HashMap<u32, Vec<String>> {
        let mut out: HashMap<u32, Vec<String>> = HashMap::new();
        for round in 0..4usize {
            for u in 0..users {
                let q = &queries_for(u)[round];
                let resp = e
                    .search_with(UserId(u), q, SearchBudget::none())
                    .expect("store-io faults are retried, never surfaced");
                assert!(!resp.turn.hits.is_empty());
                e.observe(&resp.turn, &impression_from(&resp.turn));
                out.entry(u).or_default().push(format!("{:?}", resp.turn));
            }
        }
        out
    };

    let clean_dir = tmp("clean");
    let clean =
        ServingEngine::new(&idx, &w, EngineConfig::default(), serve_cfg(&clean_dir, None));
    let baseline = replay_rr(&clean);
    drop(clean); // flush the last dirty users

    let spec = ChaosSpec::parse("seed=7,storeio=16").unwrap();
    let io = spec.build_store_io().expect("storeio clause builds an injector");
    let faulted_dir = tmp("faulted");
    let e = ServingEngine::new(
        &idx,
        &w,
        EngineConfig::default(),
        serve_cfg(&faulted_dir, Some(io.clone())),
    );
    assert_eq!(
        baseline,
        replay_rr(&e),
        "retried I/O faults must not change any ranking"
    );
    drop(e); // final flush drains the remaining dirty users, with retries

    let snap = pws_obs::snapshot();
    let count =
        |name: &str| snap.stages.iter().find(|s| s.name == name).map(|s| s.count).unwrap_or(0);
    let retries = count("serve.store.retry");
    assert!(retries > 0, "seed=7,storeio=16 must inject at least one transient fault");
    assert_eq!(count("serve.store.retry_exhausted"), 0, "every fault retried to success");
    assert_eq!(count("serve.state_io_error"), 0, "no fault escaped the retry layer");
    let emitted = io.counts().transient_total();
    assert!(
        emitted >= retries,
        "injector emitted {emitted} transient faults but serve retried {retries}"
    );

    for u in 0..users {
        let name = format!("user-{u:08x}.pwsu");
        let clean_bytes = std::fs::read(clean_dir.join(&name)).expect("clean record");
        let fault_bytes = std::fs::read(faulted_dir.join(&name)).expect("faulted record");
        assert_eq!(clean_bytes, fault_bytes, "user {u} record diverged under storeio faults");
    }
    let _ = std::fs::remove_dir_all(&clean_dir);
    let _ = std::fs::remove_dir_all(&faulted_dir);
}

/// A disk that never recovers: every counted op fails transiently, so
/// every store operation burns its retry budget and exhausts. The tier
/// contains it — queries are still answered from default state, each
/// exhaustion counts `serve.store.retry_exhausted` exactly once, every
/// exhaustion is also a `serve.state_io_error` (the existing io-error
/// SLO sees a sick disk with no new wiring), and with
/// `max_write_retries: 2` the retry counter matches exhaustions 1:1.
#[test]
fn storeio_exhausted_retries_are_contained_and_accounted() {
    quiet_injected_panics();
    let _guard = pws_obs::test_lock();
    pws_obs::reset();
    let idx = index();
    let w = world();
    let dir = std::env::temp_dir()
        .join(format!("pws-chaos-storeio-exhaust-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let io = Arc::new(pws_store::FaultIo::new(pws_store::IoFaultSpec {
        seed: 3,
        eio_first: u64::MAX,
        ..pws_store::IoFaultSpec::default()
    }));
    let e = ServingEngine::new(
        &idx,
        &w,
        EngineConfig::default(),
        ServeConfig {
            shards: 2,
            stats_refresh_every: 1,
            store: Some(StoreTierConfig {
                capacity_per_shard: 1,
                writeback: false,
                io: Some(io.clone() as Arc<dyn pws_store::StoreIo>),
                max_write_retries: 2,
                ..StoreTierConfig::new(&dir)
            }),
            ..ServeConfig::default()
        },
    );
    for u in 0..4u32 {
        for q in queries_for(u) {
            let resp = e
                .search_with(UserId(u), &q, SearchBudget::none())
                .expect("a dead disk degrades personalization, never the query");
            assert!(!resp.turn.hits.is_empty(), "query answered on a dead disk");
            e.observe(&resp.turn, &impression_from(&resp.turn));
        }
    }
    drop(e); // the final flush exhausts too — and must not panic

    let snap = pws_obs::snapshot();
    let count =
        |name: &str| snap.stages.iter().find(|s| s.name == name).map(|s| s.count).unwrap_or(0);
    let exhausted = count("serve.store.retry_exhausted");
    assert!(exhausted > 0, "an always-failing disk must exhaust retries");
    assert_eq!(
        count("serve.state_io_error"),
        exhausted,
        "with no panics injected, every io error is an exhaustion"
    );
    assert_eq!(count("serve.store.retry"), exhausted, "one re-attempt per exhausted op");
    let emitted = io.counts().transient_total();
    assert!(emitted >= 2 * exhausted, "two attempts per exhaustion, got {emitted}");
    let _ = std::fs::remove_dir_all(&dir);
}
