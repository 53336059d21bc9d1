//! # pws-serve — user-sharded concurrent serving
//!
//! The serial [`pws_core::PersonalizedSearchEngine`] takes `&mut self`
//! over one global user map, so a process serves exactly one query at a
//! time. This crate is the concurrent frontend over the same
//! [`EngineCore`]: an engine that is `&self + Send + Sync`, sharding the
//! *only* mutable state — per-user profiles and per-query statistics —
//! so that requests for different users proceed in parallel and never
//! contend on a global lock.
//!
//! ## Sharding and locking
//!
//! ```text
//!                    ┌───────────────────────────────┐
//!                    │  EngineCore (shared, &self)   │
//!                    │  index · ontology · matcher   │
//!                    │  config · trainer · metrics   │
//!                    └──────────────┬────────────────┘
//!          search/observe(user, q)  │ hash(user) → shard
//!              ┌───────────────┬────┴──────────┬───────────────┐
//!              ▼               ▼               ▼               ▼
//!        ┌───────────┐   ┌───────────┐                  ┌───────────┐
//!        │ shard 0   │   │ shard 1   │       …          │ shard N-1 │
//!        │ Mutex<    │   │ Mutex<    │                  │ Mutex<    │
//!        │  user map>│   │  user map>│                  │  user map>│
//!        └───────────┘   └───────────┘                  └───────────┘
//!          user → Arc<UserState> snapshot:
//!            search  → lock, make resident, clone the Arc, unlock,
//!                      run the pipeline on the snapshot
//!            observe → lock, fold into a successor, swap the Arc, unlock
//!
//!        query statistics (adaptive β):
//!          writes → hash(query) → Mutex shard      (observe path)
//!          reads  → RwLock<Arc<snapshot>>, epoch-  (search path —
//!                   rebuilt every `stats_refresh_every` observes;
//!                   an Arc clone, never a shard lock)
//! ```
//!
//! **Read path** (`search`): lock exactly one user shard (the issuing
//! user's) only long enough to make the user resident (`serve.residency`)
//! and clone their `Arc<UserState>`; release it, read β statistics from
//! the lock-free epoch snapshot, and run the engine pipeline on the state
//! snapshot. Queries for users on different shards share no locks at
//! all, and two searches on one shard overlap everywhere but that lookup.
//!
//! **Write path** (`observe`): lock the user's shard and the query's
//! statistics shard (always in that order — the deadlock-freedom
//! invariant), fold the clicks into a copy of the state and of the
//! statistics entry, publish both (swap the user's `Arc`, insert the
//! entry), then bump the epoch counter and — at most every
//! [`ServeConfig::stats_refresh_every`] observes — rebuild the statistics
//! snapshot. The fold stays under the shard lock, so one user's observes
//! still apply one after another; a search already running keeps the
//! snapshot it took.
//!
//! ## Determinism
//!
//! Both frontends run the same [`EngineCore::search_user_gated`] /
//! [`EngineCore::observe_user`], so a session log replayed per-user in
//! order produces byte-identical [`SearchTurn`]s to the serial engine —
//! for any shard count and any thread count — whenever the adaptive-β
//! coupling between users is inert: fixed/mode β, or per-user-disjoint
//! query strings with `stats_refresh_every = 1`. The equivalence tests
//! at the bottom of this file pin exactly that.
//!
//! ## Metrics
//!
//! Each shard registers `serve.shard{i}.search`, `serve.shard{i}.observe`
//! (latency histograms) and `serve.shard{i}.queue` (in-flight request
//! depth sampled at arrival) in the global [`pws_obs`] registry, next to
//! the engine's own `engine.*` stages.
//!
//! ## Tracing
//!
//! Every search fills one fixed-width [`FlightEvent`], written by the
//! path that served it: the engine stamps the stage slots, β and cache
//! hit of the turn it served, and the serving layer the shard index,
//! the queue depth the request saw at admission, the end-to-end
//! nanoseconds, the degrade reason and the store flags. The flight
//! recorder ([`ServeConfig::flight`]) keeps those events in per-shard
//! rings. [`ServingEngine::search_traced`] returns one request's full
//! [`QueryTrace`] — the same event plus concepts, β inputs and
//! per-candidate rank movement (see [`pws_obs::trace`]); no other path
//! builds one. Tracing never changes what a search returns — the
//! replay-equivalence tests below run with the recorder enabled to pin
//! that.
//!
//! ## Fault tolerance
//!
//! Personalization is best-effort; **base retrieval is the contract**.
//! The paper's framework always has a safe floor — when personalization
//! cannot help, ranking degrades to the non-personalized engine — and
//! the serving layer enforces the same property at runtime:
//!
//! * **Deadline budgets** — [`ServingEngine::search_with`] takes a
//!   [`SearchBudget`]; [`EngineCore`] checks it at stage checkpoints
//!   (after retrieval / concepts / features) and aborts
//!   *personalization*, never the query, when the deadline passes.
//! * **Graceful degradation** — any personalization failure (deadline,
//!   panic, poisoned state lock) returns the pool-normalized base
//!   ranking, tagged with a [`DegradeReason`] that flows into the
//!   flight event and the `serve.degraded.{reason}` counter family.
//! * **Panic isolation** — per-query engine work runs under
//!   `catch_unwind`: a search's runs after its shard guard is released,
//!   and an observe's fold with the guard held *outside* the unwind
//!   boundary, so a crashing query can never poison (wedge) its shard.
//!   A fold works on successor copies and publishes them only when it
//!   completes; a panic mid-fold drops them, so the user's state and
//!   the statistics are exactly as before (`serve.state_restored` counts
//!   the discarded folds).
//! * **Lock recovery** — every lock acquisition recovers from
//!   poisoning instead of panicking: take `into_inner`-style ownership
//!   of the last good value, clear the poison flag, count
//!   `serve.lock_recovered`, and evict the single affected user rather
//!   than losing the shard.
//! * **Admission control** — when a shard's queue depth exceeds the
//!   configured high-water mark ([`ServeConfig::max_queue_depth`] or
//!   [`SearchBudget::max_queue_depth`]), [`ServingEngine::search_with`]
//!   sheds the request with [`Overloaded`] and a retry-after hint
//!   instead of letting the queue grow without bound.
//!
//! Faults themselves are injectable behind the [`FaultPlan`] trait
//! (per-stage panics, artificial latency, forced lock poisoning) —
//! the deterministic injector and the chaos test-suite proving the
//! properties above live in the `pws-chaos` crate.

use pws_click::{Impression, UserId};
use pws_core::{EngineConfig, EngineCore, SearchTurn, StageCheckpoint, UserState};
use pws_entropy::QueryStats;
pub use pws_obs::event::DegradeReason;
use pws_obs::event::FlightEvent;
use pws_obs::flight::{DumpReason, FlightDump};
use pws_obs::format::{fnv1a64, splitmix64};
use pws_obs::health::{HealthMonitor, HealthReport, SloSpec};
use pws_obs::trace::QueryTrace;
use pws_store::StoreIo;
use std::collections::{HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, RwLock};
use std::time::{Duration, Instant};

mod residency;
use residency::{Job, ResidentUser, StoreShutdown, StoreTier, UserMap};

/// Configuration of the serving layer (the engine's own behavior lives
/// in [`EngineConfig`]).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Number of user shards (and query-statistics shards). More shards
    /// → less lock contention, slightly more memory. Clamped to ≥ 1.
    pub shards: usize,
    /// Rebuild the adaptive-β statistics snapshot every this many
    /// observes. `1` = after every observe (strongest freshness, used by
    /// the replay-equivalence tests); larger values amortize the rebuild
    /// under heavy write traffic at the cost of β lagging by at most
    /// that many clicks. Clamped to ≥ 1.
    pub stats_refresh_every: u64,
    /// The wide-event flight recorder (disabled by default). When
    /// enabled, every admitted query appends one [`FlightEvent`] to its
    /// shard's ring; the rings can be dumped on demand
    /// ([`ServingEngine::flight_dump`]) or automatically on a
    /// degrade/shed burst. Pure observation: enabling it never changes
    /// a turn's bytes (the replay-equivalence tests run with it on).
    pub flight: FlightConfig,
    /// The SLO spec [`ServingEngine::health`] evaluates. The default
    /// spec encodes the ROADMAP target (p99 < 2ms, degraded < 1%, shed
    /// < 5%, store errors < 0.1%) with fast+slow burn windows.
    pub slo: SloSpec,
    /// Admission-control high-water mark: [`ServingEngine::search_with`]
    /// sheds a request with [`Overloaded`] when its shard already has
    /// this many requests in flight. `None` (the default) never sheds.
    /// A per-request [`SearchBudget::max_queue_depth`] tightens (never
    /// loosens) this bound. The trusted internal [`ServingEngine::search`]
    /// path bypasses admission control entirely.
    pub max_queue_depth: Option<u64>,
    /// Tiered user-state persistence (`pws-store`). `None` (the
    /// default) keeps every user resident in memory forever — the
    /// pre-store behavior. `Some` bounds each shard's resident set and
    /// spills evicted users to disk; an evicted-then-faulted-in user
    /// ranks byte-identically to an always-resident one.
    pub store: Option<StoreTierConfig>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            shards: 8,
            stats_refresh_every: 64,
            flight: FlightConfig::default(),
            slo: SloSpec::default(),
            max_queue_depth: None,
            store: None,
        }
    }
}

/// Configuration of the tiered user-state store (see
/// [`ServeConfig::store`]).
#[derive(Debug, Clone)]
pub struct StoreTierConfig {
    /// Directory of `pws-store` user records and the statistics file
    /// (created if missing). A fresh engine over it loads the statistics
    /// and faults stored users back in on first access — restart-safe.
    pub dir: PathBuf,
    /// Maximum resident users per shard. When a request would exceed
    /// it, the least-recently-used *other* user on the shard is evicted
    /// (written back first when dirty). Clamped to ≥ 1.
    pub capacity_per_shard: usize,
    /// `true` spawns a background writeback daemon: `observe` marks the
    /// user dirty and enqueues; the daemon encodes and writes off the
    /// request path, so observes never block on persistence. `false`
    /// persists only at eviction time and on [`ServingEngine::flush_store`]
    /// — fully synchronous and deterministic (the counter-reconciliation
    /// tests use this mode).
    pub writeback: bool,
    /// Injected I/O layer for the record directory. `None` is the real
    /// filesystem; chaos runs (`storeio=` in a plan spec) pass a
    /// [`pws_store::FaultIo`] here so every store read and write goes
    /// through a deterministic fault gate.
    pub io: Option<Arc<dyn StoreIo>>,
    /// Maximum attempts for one record read or write that keeps failing
    /// with a *transient* error ([`pws_store::StoreError::is_transient`]):
    /// the attempt that would exceed this bound instead counts
    /// `serve.store.retry_exhausted` + `serve.state_io_error` and gives
    /// up (the user stays resident and dirty — state is never dropped).
    /// Clamped to ≥ 1.
    pub max_write_retries: u32,
    /// Base delay of the writeback daemon's capped decorrelated-jitter
    /// backoff between retries of a transiently failing write. The
    /// synchronous paths (eviction, flush, shutdown drain) retry
    /// inline without sleeping.
    pub retry_backoff: Duration,
    /// Upper bound on any single backoff delay.
    pub retry_backoff_cap: Duration,
    /// Writeback-queue high-water mark. An enqueue that would grow the
    /// backlog past this bound counts `serve.store.backpressure` and
    /// writes the user back synchronously instead — the observe path
    /// absorbs the latency rather than letting dirty state pile up
    /// unboundedly behind a slow disk. Clamped to ≥ 1.
    pub max_backlog: usize,
}

impl StoreTierConfig {
    /// A store tier rooted at `dir` with the defaults: 1024 resident
    /// users per shard, background writeback on, real filesystem I/O,
    /// 8 write attempts with 1ms–100ms backoff, 4096 backlog slots.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        StoreTierConfig {
            dir: dir.into(),
            capacity_per_shard: 1024,
            writeback: true,
            io: None,
            max_write_retries: 8,
            retry_backoff: Duration::from_millis(1),
            retry_backoff_cap: Duration::from_millis(100),
            max_backlog: 4096,
        }
    }
}

/// Per-query execution budget for [`ServingEngine::search_with`].
///
/// The default budget is unlimited — identical to plain
/// [`ServingEngine::search`].
#[derive(Debug, Clone, Copy, Default)]
pub struct SearchBudget {
    /// Absolute deadline. Checked at each [`StageCheckpoint`] inside the
    /// engine: once passed, personalization is abandoned — **not** the
    /// query — and the turn degrades to the base ranking.
    pub deadline: Option<Instant>,
    /// Per-request admission bound: shed with [`Overloaded`] when the
    /// user's shard already has this many requests in flight. Combines
    /// with [`ServeConfig::max_queue_depth`] by taking the tighter bound.
    pub max_queue_depth: Option<u64>,
}

impl SearchBudget {
    /// The unlimited budget (never degrades, never sheds).
    pub fn none() -> Self {
        SearchBudget::default()
    }

    /// A budget whose deadline is `timeout` from now.
    pub fn with_deadline_in(timeout: Duration) -> Self {
        SearchBudget { deadline: Some(Instant::now() + timeout), ..SearchBudget::default() }
    }

    /// Has the deadline passed?
    pub fn expired(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }
}

/// The deadline reason for the checkpoint at which the budget expired.
fn deadline_reason(cp: StageCheckpoint) -> DegradeReason {
    match cp {
        StageCheckpoint::Retrieval => DegradeReason::DeadlineRetrieval,
        StageCheckpoint::Concepts => DegradeReason::DeadlineConcepts,
        StageCheckpoint::Features => DegradeReason::DeadlineFeatures,
    }
}

/// A served query: the ranked turn plus how it was served. `degraded`
/// is `None` for a fully personalized (healthy) turn.
#[derive(Debug, Clone)]
pub struct SearchResponse {
    /// The ranked page — always present; degradation never loses the query.
    pub turn: SearchTurn,
    /// Why the degraded path served this turn, if it did.
    pub degraded: Option<DegradeReason>,
}

impl SearchResponse {
    /// Was this turn served degraded?
    pub fn is_degraded(&self) -> bool {
        self.degraded.is_some()
    }
}

/// Admission-control rejection: the target shard's queue was over its
/// high-water mark, so the request was shed *before* any engine work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Overloaded {
    /// Shard that rejected the request.
    pub shard: usize,
    /// In-flight depth observed at admission.
    pub queue_depth: u64,
    /// Hint: how long to wait before retrying, estimated from the
    /// shard's mean search latency times the excess queue depth, with
    /// ±25% deterministic per-(user, query) jitter so a herd of shed
    /// clients does not retry in lockstep and re-collide.
    pub retry_after: Duration,
}

impl std::fmt::Display for Overloaded {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "shard {} overloaded (queue depth {}); retry after {:?}",
            self.shard, self.queue_depth, self.retry_after
        )
    }
}

impl std::error::Error for Overloaded {}

/// Why [`ServingEngine::import_user`] rejected a user record.
#[derive(Debug)]
pub enum ImportError {
    /// The bytes are not a valid `PWSUSR1` user record.
    Decode(pws_store::StoreError),
    /// The record decoded but failed structural validation
    /// ([`pws_store::UserRecord::validate`]).
    Invalid(pws_core::StateError),
}

impl std::fmt::Display for ImportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ImportError::Decode(e) => write!(f, "user import: {e}"),
            ImportError::Invalid(e) => write!(f, "user import: invalid record: {e}"),
        }
    }
}

impl std::error::Error for ImportError {}

/// Stages at which a [`FaultPlan`] is consulted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultStage {
    /// Request admission, before the shard lock is taken. The only stage
    /// where [`FaultAction::PoisonLock`] is honored; an injected `Panic`
    /// here is ignored (it would escape the per-query isolation
    /// boundary, which is exactly what the fault layer exists to
    /// prevent).
    Admission,
    /// The engine's retrieval checkpoint.
    Retrieval,
    /// The engine's concept-extraction checkpoint.
    Concepts,
    /// The engine's feature-build checkpoint.
    Features,
    /// The write path, inside [`ServingEngine::observe`]'s isolation.
    Observe,
    /// User-record fault-in from the store tier, inside its own panic
    /// isolation: an injected `Panic` here is caught, counts
    /// `serve.state_io_error`, and costs exactly that user a fresh
    /// profile — never the request. Store tier only.
    FaultIn,
    /// User-record writeback to the store tier, on the synchronous
    /// paths (evict-time and [`ServingEngine::flush_store`]). An
    /// injected `Panic` is caught and treated as a failed write: the
    /// user stays resident and dirty, so no state is ever lost to a
    /// writeback fault. The background daemon does not consult the
    /// plan (an async thread has no request to deterministically
    /// attribute a fault to). Store tier only.
    Writeback,
}

impl From<StageCheckpoint> for FaultStage {
    fn from(cp: StageCheckpoint) -> Self {
        match cp {
            StageCheckpoint::Retrieval => FaultStage::Retrieval,
            StageCheckpoint::Concepts => FaultStage::Concepts,
            StageCheckpoint::Features => FaultStage::Features,
        }
    }
}

/// A fault to inject at a [`FaultStage`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Panic (via [`InjectedFault`]) — exercises panic isolation.
    Panic,
    /// Sleep this long — exercises deadline budgets.
    Delay(Duration),
    /// Poison the user shard's state lock before the request touches it
    /// — exercises lock recovery. Only honored at
    /// [`FaultStage::Admission`].
    PoisonLock,
}

/// A deterministic fault injector, compiled into the serving path and
/// consulted at every stage of every request. `None` everywhere — the
/// default when no plan is attached — costs one branch per checkpoint;
/// the replay-equivalence tests run with this layer wired in to pin
/// that it is inert. The seeded, replay-stable implementation lives in
/// `pws-chaos`.
pub trait FaultPlan: Send + Sync {
    /// The fault to inject for this (user, query, stage) site, if any.
    fn inject(&self, user: UserId, query_text: &str, stage: FaultStage) -> Option<FaultAction>;
}

/// Panic payload for injected faults, so the panic hook installed by
/// [`quiet_injected_panics`] can tell deliberate chaos from real bugs.
pub struct InjectedFault(pub &'static str);

/// Install (once per process) a panic hook that suppresses the default
/// "thread panicked" stderr noise for [`InjectedFault`] panics only;
/// every other panic still reports through the previous hook. Chaos
/// tests call this so hundreds of injected panics don't drown the test
/// output.
pub fn quiet_injected_panics() {
    static INSTALL: std::sync::Once = std::sync::Once::new();
    INSTALL.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<InjectedFault>().is_none() {
                prev(info);
            }
        }));
    });
}

/// Lock a mutex, recovering from poisoning: take ownership of the last
/// good value, clear the poison flag (so recovery is a per-event cost,
/// not a permanent tax), and report whether recovery happened so the
/// caller can count it and judge the guarded state.
fn lock_or_recover<T>(m: &Mutex<T>) -> (MutexGuard<'_, T>, bool) {
    match m.lock() {
        Ok(g) => (g, false),
        Err(poisoned) => {
            m.clear_poison();
            (poisoned.into_inner(), true)
        }
    }
}

/// [`lock_or_recover`] for state that is valid whatever a dead thread
/// left in it: count the recovery (`serve.lock_recovered`) and carry on.
fn lock_counting<'m, T>(m: &'m Mutex<T>, recovered: &pws_obs::StageMetrics) -> MutexGuard<'m, T> {
    let (guard, was_poisoned) = lock_or_recover(m);
    if was_poisoned {
        recovered.incr(1);
    }
    guard
}

/// Deliberately poison `m` from a scoped helper thread (the only way to
/// poison a `std` mutex is dropping a guard mid-panic). Fault-injection
/// only.
fn poison_mutex<T: Send>(m: &Mutex<T>) {
    std::thread::scope(|s| {
        let handle = s.spawn(|| {
            let _guard = match m.lock() {
                Ok(g) => g,
                Err(p) => p.into_inner(),
            };
            std::panic::panic_any(InjectedFault("forced lock poisoning"));
        });
        let _ = handle.join();
    });
}

/// The one fault hook: consult `plan` (if any) for this site and carry
/// the fault out. A `Delay` sleeps at every stage. A `Panic` unwinds
/// (as [`InjectedFault`]) at every stage but [`FaultStage::Admission`],
/// which sits outside the per-query isolation boundary and ignores it.
/// `PoisonLock` is honoured only at admission (mid-request it would
/// deadlock the injector on its own lock) by returning `true`: the
/// caller, who knows which lock, poisons it.
fn inject_fault(
    plan: Option<&dyn FaultPlan>,
    user: UserId,
    query_text: &str,
    stage: FaultStage,
) -> bool {
    let Some(plan) = plan else { return false };
    let admission = stage == FaultStage::Admission;
    match plan.inject(user, query_text, stage) {
        Some(FaultAction::Delay(d)) => std::thread::sleep(d),
        Some(FaultAction::Panic) if !admission => {
            std::panic::panic_any(InjectedFault("injected panic"))
        }
        Some(FaultAction::PoisonLock) if admission => return true,
        _ => {}
    }
    false
}

/// Fixed-capacity overwrite-oldest ring of [`FlightEvent`]s: the flight
/// recorder keeps one per shard (so concurrent shards never contend on a
/// cursor).
///
/// The write path is lock-free in its coordination: a single atomic
/// `fetch_add` claims a slot, and the per-slot mutexes only serialize
/// two writers that wrapped onto the *same* slot (or a writer with a
/// concurrent [`collect`](Self::collect)) — never writer against
/// writer on different slots. No allocation happens on push beyond the
/// item the engine already built.
struct Ring {
    slots: Vec<Mutex<Option<FlightEvent>>>,
    cursor: AtomicU64,
    /// `serve.lock_recovered` handle — a poisoned slot (a thread killed
    /// mid-push) is recovered, never allowed to wedge the ring.
    recovered: Arc<pws_obs::StageMetrics>,
}

impl Ring {
    fn new(capacity: usize, recovered: Arc<pws_obs::StageMetrics>) -> Self {
        Ring {
            slots: (0..capacity.max(1)).map(|_| Mutex::new(None)).collect(),
            cursor: AtomicU64::new(0),
            recovered,
        }
    }

    fn push(&self, item: FlightEvent) {
        let claimed = self.cursor.fetch_add(1, Ordering::Relaxed);
        let slot = (claimed % self.slots.len() as u64) as usize;
        // Overwriting is the recovery: whatever half-state a dead
        // writer left behind is replaced wholesale.
        *lock_counting(&self.slots[slot], &self.recovered) = Some(item);
    }

    /// Snapshot the ring's contents, oldest first.
    fn collect(&self) -> Vec<FlightEvent> {
        let cursor = self.cursor.load(Ordering::Relaxed);
        let n = self.slots.len() as u64;
        (0..n)
            .map(|k| ((cursor + k) % n) as usize)
            .filter_map(|i| *lock_counting(&self.slots[i], &self.recovered))
            .collect()
    }
}

/// Flight-recorder policy for the serving layer (see
/// [`ServeConfig::flight`]).
#[derive(Debug, Clone)]
pub struct FlightConfig {
    /// Master switch. When `false` no [`FlightEvent`] is ever built.
    pub enabled: bool,
    /// Capacity of each shard's event ring (oldest events are
    /// overwritten). Clamped to ≥ 1.
    pub ring_capacity: usize,
    /// When set, the recorder automatically dumps the rings into this
    /// directory (as `flight-{seq}.pwsflt`) whenever
    /// [`auto_dump_burst`](Self::auto_dump_burst) degrade/shed events
    /// accumulate since the last dump — the black-box capture of "the
    /// seconds before it went wrong". `None` disables auto-dumping;
    /// [`ServingEngine::flight_dump`] still works on demand.
    pub auto_dump_dir: Option<PathBuf>,
    /// Degrade + shed events that trip an automatic dump. Clamped to
    /// ≥ 1 when a dump directory is configured.
    pub auto_dump_burst: u64,
}

impl Default for FlightConfig {
    fn default() -> Self {
        FlightConfig {
            enabled: false,
            ring_capacity: 1024,
            auto_dump_dir: None,
            auto_dump_burst: 32,
        }
    }
}

impl FlightConfig {
    /// Recorder on with the given per-shard ring capacity, no
    /// auto-dumping — the configuration the replay-equivalence tests
    /// run with.
    pub fn enabled(ring_capacity: usize) -> Self {
        FlightConfig { enabled: true, ring_capacity, ..FlightConfig::default() }
    }
}

/// The wide-event flight recorder: one [`Ring`] per shard plus
/// the degrade/shed-burst auto-dump policy.
///
/// Counters: `serve.flight.recorded` (events appended),
/// `serve.flight.dump` (dump files written), `serve.flight.dump_error`
/// (dump writes that failed — the request path never errors on them).
struct FlightRecorder {
    rings: Vec<Ring>,
    auto_dump_dir: Option<PathBuf>,
    auto_dump_burst: u64,
    /// Degrade + shed events since the last automatic dump.
    burst: AtomicU64,
    dump_seq: AtomicU64,
    recorded: Arc<pws_obs::StageMetrics>,
    dumped: Arc<pws_obs::StageMetrics>,
    dump_error: Arc<pws_obs::StageMetrics>,
}

impl FlightRecorder {
    fn new(cfg: &FlightConfig, shards: usize, recovered: Arc<pws_obs::StageMetrics>) -> Self {
        FlightRecorder {
            rings: (0..shards)
                .map(|_| Ring::new(cfg.ring_capacity, recovered.clone()))
                .collect(),
            auto_dump_dir: cfg.auto_dump_dir.clone(),
            auto_dump_burst: cfg.auto_dump_burst.max(1),
            burst: AtomicU64::new(0),
            dump_seq: AtomicU64::new(0),
            recorded: pws_obs::stage("serve.flight.recorded"),
            dumped: pws_obs::stage("serve.flight.dump"),
            dump_error: pws_obs::stage("serve.flight.dump_error"),
        }
    }

    fn record(&self, shard: usize, event: FlightEvent) {
        self.rings[shard].push(event);
        self.recorded.incr(1);
    }

    /// Every shard's ring contents: shards in index order, oldest
    /// first within each shard.
    fn collect(&self) -> Vec<FlightEvent> {
        self.rings.iter().flat_map(Ring::collect).collect()
    }

    fn dump(&self, reason: DumpReason) -> FlightDump {
        FlightDump {
            reason,
            shard_count: self.rings.len() as u32,
            events: self.collect(),
        }
    }

    /// Count one degrade/shed event toward the burst threshold and
    /// auto-dump when it trips. No-op without a dump directory.
    fn note_burst(&self, reason: DumpReason) {
        let Some(dir) = &self.auto_dump_dir else { return };
        if self.burst.fetch_add(1, Ordering::Relaxed) + 1 < self.auto_dump_burst {
            return;
        }
        self.burst.store(0, Ordering::Relaxed);
        let seq = self.dump_seq.fetch_add(1, Ordering::Relaxed);
        let path = dir.join(format!("flight-{seq:04}.pwsflt"));
        match self.dump(reason).write_to(&path) {
            Ok(()) => self.dumped.incr(1),
            Err(_) => self.dump_error.incr(1),
        }
    }
}

/// One user shard: the mutable per-user state for every user hashing
/// here, plus this shard's metric handles.
struct UserShard {
    users: Mutex<UserMap>,
    /// Requests currently inside `search`/`observe` on this shard;
    /// sampled into the `queue` histogram at arrival, so its p99 is the
    /// queue depth an arriving request actually saw.
    inflight: AtomicU64,
    /// EWMA (α = 1/8) of end-to-end search nanoseconds over turns that
    /// did **not** hit the retrieval cache; `0` = no history yet. This
    /// is what [`ServingEngine::retry_after`] scales by: the lifetime
    /// mean of `search` collapses toward the cache-hit latency on a
    /// cache-hot shard and would hint near-zero backoffs.
    uncached_ewma_nanos: AtomicU64,
    search: Arc<pws_obs::StageMetrics>,
    observe: Arc<pws_obs::StageMetrics>,
    queue: Arc<pws_obs::StageMetrics>,
}

/// Sharded query statistics with an epoch-snapshot read path.
///
/// Writers mutate hash-sharded `Mutex<HashMap>`s; readers only ever
/// clone an `Arc` out of an `RwLock` — they never touch a shard lock,
/// so `search` cannot block behind a stats write.
struct ShardedStats {
    shards: Vec<Mutex<HashMap<String, QueryStats>>>,
    snapshot: RwLock<Arc<HashMap<String, QueryStats>>>,
    /// Observes since the last snapshot rebuild.
    pending: AtomicU64,
    refresh_every: u64,
    /// `serve.lock_recovered` handle. Statistics only tune β; a
    /// recovered shard at worst serves slightly stale entropy values,
    /// so recovery (count + keep the last good map) is always right.
    recovered: Arc<pws_obs::StageMetrics>,
}

impl ShardedStats {
    fn new(shards: usize, refresh_every: u64, recovered: Arc<pws_obs::StageMetrics>) -> Self {
        ShardedStats {
            shards: (0..shards).map(|_| Mutex::new(HashMap::new())).collect(),
            snapshot: RwLock::new(Arc::new(HashMap::new())),
            pending: AtomicU64::new(0),
            refresh_every: refresh_every.max(1),
            recovered,
        }
    }

    fn shard_of(&self, key: &str) -> usize {
        (fnv1a64(key.as_bytes()) % self.shards.len() as u64) as usize
    }

    /// The current epoch snapshot (an `Arc` clone; cheap). The snapshot
    /// `Arc` is swapped atomically under the write lock, so even a
    /// poisoned `RwLock` always holds a complete, valid snapshot.
    fn read(&self) -> Arc<HashMap<String, QueryStats>> {
        match self.snapshot.read() {
            Ok(g) => g.clone(),
            Err(poisoned) => {
                self.snapshot.clear_poison();
                self.recovered.incr(1);
                poisoned.into_inner().clone()
            }
        }
    }

    /// Lock one stats shard, recovering (and counting) poisoning.
    fn lock_shard(&self, idx: usize) -> MutexGuard<'_, HashMap<String, QueryStats>> {
        lock_counting(&self.shards[idx], &self.recovered)
    }

    /// Merge every shard into a fresh snapshot and publish it.
    fn refresh(&self) {
        let mut merged = HashMap::new();
        for idx in 0..self.shards.len() {
            let guard = self.lock_shard(idx);
            for (k, v) in guard.iter() {
                merged.insert(k.clone(), v.clone());
            }
        }
        let next = Arc::new(merged);
        match self.snapshot.write() {
            Ok(mut g) => *g = next,
            Err(poisoned) => {
                self.snapshot.clear_poison();
                self.recovered.incr(1);
                *poisoned.into_inner() = next;
            }
        }
    }

    /// Every live key, in no particular order.
    fn keys(&self) -> Vec<String> {
        let mut keys = Vec::new();
        for idx in 0..self.shards.len() {
            keys.extend(self.lock_shard(idx).keys().cloned());
        }
        keys
    }

    /// Hand the live statistics for `keys` to `emit` in ascending key
    /// order, each borrowed under its stats-shard lock (one lock at a
    /// time, never while holding another stats lock); keys with none are
    /// skipped. This is how statistics are encoded straight from the live
    /// maps: every key into the statistics file, a user's `seen_queries`
    /// into their export.
    fn visit(&self, keys: &[String], emit: &mut dyn FnMut(&str, &QueryStats)) {
        let mut sorted: Vec<&str> = keys.iter().map(String::as_str).collect();
        sorted.sort_unstable();
        sorted.dedup();
        for key in sorted {
            if let Some(s) = self.lock_shard(self.shard_of(key)).get(key) {
                emit(key, s);
            }
        }
    }

    /// Fill in statistics for keys this process has never observed (live
    /// keys win — they are newer), from the statistics file at open or an
    /// import. The caller publishes them with [`refresh`](Self::refresh).
    fn seed(&self, stats: impl IntoIterator<Item = (String, QueryStats)>) {
        for (key, qs) in stats {
            self.lock_shard(self.shard_of(&key)).entry(key).or_insert(qs);
        }
    }

    /// Account one observe; `true` when the snapshot is due a refresh.
    fn tick(&self) -> bool {
        let due = self.pending.fetch_add(1, Ordering::Relaxed) + 1 >= self.refresh_every;
        if due {
            self.pending.store(0, Ordering::Relaxed);
        }
        due
    }
}

/// `serve.residency`: the work a search or an observe does under its
/// shard lock to make the user resident and keep the shard within its
/// bound (`ensure_resident` + `evict_overflow`), one record per request.
fn residency_stage() -> &'static pws_obs::StageMetrics {
    static STAGE: OnceLock<Arc<pws_obs::StageMetrics>> = OnceLock::new();
    STAGE.get_or_init(|| pws_obs::stage("serve.residency"))
}

/// `user → shard index`, shared by the engine and the store tier. Mixed
/// so the dense sequential `UserId`s the simulator generates spread
/// evenly.
fn shard_index(user: UserId, shard_count: usize) -> usize {
    (splitmix64(user.0 as u64) % shard_count as u64) as usize
}

/// Pre-resolved handles for the fault-tolerance counter family. All
/// names are literals (resolved once at engine construction) so the
/// stage-name registry stays greppable and the hot path never formats
/// a string.
struct FaultMetrics {
    /// `serve.degraded.{label}`, in [`DegradeReason::ALL`] order.
    degraded: [Arc<pws_obs::StageMetrics>; DegradeReason::ALL.len()],
    lock_recovered: Arc<pws_obs::StageMetrics>,
    user_evicted: Arc<pws_obs::StageMetrics>,
    state_restored: Arc<pws_obs::StageMetrics>,
    overloaded: Arc<pws_obs::StageMetrics>,
    state_io_error: Arc<pws_obs::StageMetrics>,
}

impl FaultMetrics {
    fn resolve() -> Self {
        FaultMetrics {
            degraded: [
                "serve.degraded.deadline_retrieval",
                "serve.degraded.deadline_concepts",
                "serve.degraded.deadline_features",
                "serve.degraded.panic",
                "serve.degraded.lock_poisoned",
            ]
            .map(pws_obs::stage),
            lock_recovered: pws_obs::stage("serve.lock_recovered"),
            user_evicted: pws_obs::stage("serve.user_evicted"),
            state_restored: pws_obs::stage("serve.state_restored"),
            overloaded: pws_obs::stage("serve.overloaded"),
            state_io_error: pws_obs::stage("serve.state_io_error"),
        }
    }

    fn degraded(&self, reason: DegradeReason) -> &pws_obs::StageMetrics {
        // Codes start at 1; 0 is a healthy turn.
        &self.degraded[reason as usize - 1]
    }
}

/// Pools held by the engine's base-retrieval cache
/// ([`pws_core::RetrievalCache`]). Base retrieval is user-independent, so
/// one cache serves every user and shard; caching never changes what a
/// turn contains — the replay-equivalence tests run with it on.
const RETRIEVAL_CACHE_CAPACITY: usize = 1024;

/// The concurrent serving engine: shared [`EngineCore`] + user-sharded
/// mutable state. All request methods take `&self`; the type is
/// `Send + Sync` and intended to be put behind an `Arc` (or borrowed by
/// scoped threads) and called from as many threads as you like.
///
/// ```
/// use pws_click::UserId;
/// use pws_core::EngineConfig;
/// use pws_geo::{LocId, LocationOntology};
/// use pws_index::{IndexBuilder, StoredDoc};
/// use pws_serve::{ServeConfig, ServingEngine};
///
/// let mut b = IndexBuilder::new();
/// b.add(StoredDoc::new(0, "http://a.test", "Harbor dining",
///     "seafood restaurant by the harbor"));
/// let index = b.build();
/// let mut world = LocationOntology::new();
/// let r = world.add(LocId::WORLD, "westland", vec![]);
/// world.add(r, "alden", vec![]);
///
/// let engine = ServingEngine::new(&index, &world, EngineConfig::default(),
///     ServeConfig::default());
/// std::thread::scope(|s| {
///     for u in 0..4u32 {
///         let engine = &engine;
///         s.spawn(move || engine.search(UserId(u), "restaurant"));
///     }
/// });
/// assert_eq!(engine.user_count(), 4);
/// ```
pub struct ServingEngine<'a> {
    core: EngineCore<'a>,
    /// `Arc` so the writeback daemon can hold the shards without
    /// borrowing the (non-`'static`) engine.
    shards: Arc<Vec<UserShard>>,
    stats: Arc<ShardedStats>,
    /// `Some` iff the flight recorder is enabled; the `None` fast path
    /// skips trace allocation entirely.
    flight: Option<FlightRecorder>,
    /// SLO burn-rate monitor behind [`Self::health`]. Always present
    /// (reporting Healthy until it has snapshots to diff); evaluation
    /// happens only when a caller asks, so it costs nothing per query.
    monitor: HealthMonitor,
    fault: FaultMetrics,
    /// Fault injector consulted at every request stage; `None` (the
    /// default) is the zero-fault production configuration.
    plan: Option<Arc<dyn FaultPlan>>,
    /// Engine-wide admission high-water mark (see [`ServeConfig`]).
    max_queue_depth: Option<u64>,
    /// Tiered user-state store; `None` when [`ServeConfig::store`] is.
    store: Option<Arc<StoreTier>>,
    /// Drop guard that shuts the writeback daemon down and flushes
    /// dirty residents (a field with its own `Drop` rather than a
    /// `Drop` impl on the engine, so the `with_*` builders can still
    /// move fields out of `self`).
    _store_shutdown: Option<StoreShutdown>,
}

impl<'a> ServingEngine<'a> {
    /// Build a serving engine over an already-built baseline index.
    pub fn new(
        base: &'a dyn pws_index::RetrievalBackend,
        world: &'a pws_geo::LocationOntology,
        cfg: EngineConfig,
        serve_cfg: ServeConfig,
    ) -> Self {
        let n = serve_cfg.shards.max(1);
        let search_m = pws_obs::shard_stages("serve.shard", n, "search");
        let observe_m = pws_obs::shard_stages("serve.shard", n, "observe");
        let queue_m = pws_obs::shard_stages("serve.shard", n, "queue");
        let shards = search_m
            .into_iter()
            .zip(observe_m)
            .zip(queue_m)
            .map(|((search, observe), queue)| UserShard {
                users: Mutex::new(HashMap::new()),
                inflight: AtomicU64::new(0),
                uncached_ewma_nanos: AtomicU64::new(0),
                search,
                observe,
                queue,
            })
            .collect();
        let shards: Arc<Vec<UserShard>> = Arc::new(shards);
        let fault = FaultMetrics::resolve();
        let flight = serve_cfg
            .flight
            .enabled
            .then(|| FlightRecorder::new(&serve_cfg.flight, n, fault.lock_recovered.clone()));
        let monitor = HealthMonitor::new(serve_cfg.slo.clone());
        let core =
            EngineCore::new(base, world, cfg).with_retrieval_cache(RETRIEVAL_CACHE_CAPACITY);
        let stats = Arc::new(ShardedStats::new(
            n,
            serve_cfg.stats_refresh_every,
            fault.lock_recovered.clone(),
        ));
        let (store, store_shutdown) = serve_cfg
            .store
            .as_ref()
            .map(|sc| StoreTier::open(sc, shards.clone(), stats.clone(), &fault))
            .unzip();
        ServingEngine {
            core,
            shards,
            stats,
            flight,
            monitor,
            fault,
            plan: None,
            max_queue_depth: serve_cfg.max_queue_depth,
            store,
            _store_shutdown: store_shutdown,
        }
    }

    /// Replace the retrieval cache with one of `capacity` pools (0 holds
    /// none: every pool is cut and analysed afresh). The cache never
    /// changes a turn's bytes, only the `serve.cache.*` and
    /// `engine.concepts.*` counters — the pressure tests replay at 0 and 1
    /// to pin exactly that — so this is a test hook, not a tuning knob.
    #[doc(hidden)]
    pub fn with_retrieval_cache_capacity(mut self, capacity: usize) -> Self {
        self.core = self.core.with_retrieval_cache(capacity);
        self
    }

    /// Attach a [`FaultPlan`]; every subsequent request consults it at
    /// each stage. Chaos testing and fault drills only — serving code
    /// never needs this.
    pub fn with_fault_plan(mut self, plan: Arc<dyn FaultPlan>) -> Self {
        self.plan = Some(plan);
        self
    }

    /// The active engine configuration.
    pub fn config(&self) -> &EngineConfig {
        self.core.config()
    }

    fn shard_of(&self, user: UserId) -> usize {
        shard_index(user, self.shards.len())
    }

    /// Execute one personalized search for `user`.
    ///
    /// Locks only the user's shard, and only to find the user's state
    /// snapshot; β statistics come from the epoch snapshot, so no
    /// cross-shard or global lock is ever taken.
    ///
    /// This is the trusted internal path: no budget, and admission
    /// control is bypassed (it can never be shed). External request
    /// handlers should prefer [`Self::search_with`].
    pub fn search(&self, user: UserId, query_text: &str) -> SearchTurn {
        self.search_inner(user, query_text, None, SearchBudget::none(), None)
            .expect("admission control disabled on this path; cannot be shed")
            .turn
    }

    /// Execute one search under a [`SearchBudget`], with admission
    /// control. The three outcomes, from best to worst:
    ///
    /// * `Ok` with `degraded: None` — fully personalized.
    /// * `Ok` with `degraded: Some(reason)` — the base ranking; the
    ///   budget expired or personalization failed, but the query was
    ///   still answered.
    /// * `Err(Overloaded)` — shed before any engine work; the caller
    ///   should retry after the hinted backoff.
    pub fn search_with(
        &self,
        user: UserId,
        query_text: &str,
        budget: SearchBudget,
    ) -> Result<SearchResponse, Overloaded> {
        let limit = match (self.max_queue_depth, budget.max_queue_depth) {
            (Some(engine), Some(request)) => Some(engine.min(request)),
            (engine, request) => engine.or(request),
        };
        self.search_inner(user, query_text, None, budget, limit)
    }

    /// [`search`](Self::search) with its full decision trace — the
    /// single-query diagnostic path (`pws-trace`). The returned turn is
    /// byte-identical to what `search` would produce.
    pub fn search_traced(&self, user: UserId, query_text: &str) -> (SearchTurn, QueryTrace) {
        let mut trace = QueryTrace::new(query_text);
        let resp = self
            .search_inner(user, query_text, Some(&mut trace), SearchBudget::none(), None)
            .expect("admission control disabled on this path; cannot be shed");
        (resp.turn, trace)
    }

    /// Lock one shard's user map, recovering from poisoning. Recovery
    /// counts `serve.lock_recovered`; the caller decides what to do
    /// with the (last-good but possibly mid-mutation) map.
    fn lock_users<'s>(&self, shard: &'s UserShard) -> (MutexGuard<'s, UserMap>, bool) {
        let (guard, was_poisoned) = lock_or_recover(&shard.users);
        if was_poisoned {
            self.fault.lock_recovered.incr(1);
        }
        (guard, was_poisoned)
    }

    /// [`Self::lock_users`] for a search or an observe: the wait is timed
    /// as `serve.lock_users`.
    fn lock_users_timed<'s>(&self, shard: &'s UserShard) -> (MutexGuard<'s, UserMap>, bool) {
        static WAIT: OnceLock<Arc<pws_obs::StageMetrics>> = OnceLock::new();
        let _wait = WAIT.get_or_init(|| pws_obs::stage("serve.lock_users")).span();
        self.lock_users(shard)
    }

    /// Retry-after hint for a shed request: the shard's *recent
    /// uncached* search latency times the excess queue depth (how many
    /// requests must drain before this one would have been admitted).
    ///
    /// The estimate is an EWMA over turns that missed (or had no)
    /// retrieval cache; the jittered hint is at least 100µs per queued
    /// request. An earlier revision scaled the shard's lifetime mean of
    /// `search`, which a cache-hot shard drags toward the cache-hit
    /// latency — the hint told clients to retry after effectively zero,
    /// re-shedding them in a tight loop. Falls back to 1ms per request
    /// when the shard has no uncached history yet.
    /// The drain estimate then gets ±25% deterministic jitter, seeded
    /// from `(user, query, excess)`: every client shed by the same
    /// burst computing the *same* hint retries in lockstep and
    /// re-collides, so the hints are spread — but deterministically,
    /// so a replayed run sheds and retries identically.
    fn retry_after(
        &self,
        shard: &UserShard,
        user: UserId,
        query_text: &str,
        depth: u64,
        limit: u64,
    ) -> Duration {
        const FLOOR_NANOS: u64 = 100_000; // 100µs: below this a hint is noise
        const DEFAULT_NANOS: u64 = 1_000_000; // no history: assume 1ms per request
        let excess = depth.saturating_sub(limit) + 1;
        // The jitter can take up to a quarter off, so a measured estimate
        // is floored at FLOOR / 0.75 (rounded up): every jittered hint then
        // stays at or above FLOOR × excess and keeps its full spread.
        const JITTER_FLOOR_NANOS: u64 = (FLOOR_NANOS * 4).div_ceil(3);
        let ewma = shard.uncached_ewma_nanos.load(Ordering::Relaxed);
        let per_turn = if ewma == 0 { DEFAULT_NANOS } else { ewma.max(JITTER_FLOOR_NANOS) };
        let raw = per_turn.saturating_mul(excess);
        // Jitter factor in [0.75, 1.25], in parts-per-million; u128
        // keeps the multiply exact for any plausible hint.
        let h =
            splitmix64(fnv1a64(query_text.as_bytes()) ^ splitmix64(user.0 as u64) ^ excess);
        let ppm = 750_000 + h % 500_001;
        Duration::from_nanos((u128::from(raw) * u128::from(ppm) / 1_000_000) as u64)
    }

    /// With a store tier, make `user` resident in the (already locked)
    /// shard map: reuse the entry, fault the record in, or start fresh.
    /// Without one the map is the whole world, and a user absent from it
    /// is a fresh profile the caller inserts only when it has one to
    /// keep. Returns the flight event's `store_fault_in` flag.
    fn ensure_resident(&self, users: &mut UserMap, user: UserId, query_text: &str) -> bool {
        self.store.as_ref().is_some_and(|tier| {
            tier.ensure_resident(users, user, self.plan.as_deref(), query_text)
        })
    }

    /// Enforce the store tier's resident bound on the (already locked)
    /// shard map, never evicting `keep`. Returns how many users were
    /// evicted (`0` without a store tier).
    fn evict_overflow(&self, users: &mut UserMap, keep: UserId, query_text: &str) -> u64 {
        self.store.as_ref().map_or(0, |tier| {
            tier.evict_overflow(users, keep, self.plan.as_deref(), query_text)
        })
    }

    /// Synchronously write every dirty resident user back to the store
    /// tier. Returns the number of dirty residents persisted (almost
    /// always written here; a concurrent daemon write of the same
    /// epoch also counts); `0` without a store tier. Failed writes
    /// count `serve.state_io_error` and leave the user resident and
    /// dirty. Dropping the engine runs the same flush (after the
    /// writeback daemon drains), so a cleanly dropped engine has every
    /// observed click on disk.
    pub fn flush_store(&self) -> usize {
        self.store.as_ref().map_or(0, |tier| tier.flush(self.plan.as_deref()))
    }

    /// The one search implementation. The request's flight event is
    /// filled by the path that serves it: the engine writes the stage
    /// slots, β and cache hit (a degraded re-serve included), and this
    /// stamps the serving context — shard, queue depth at admission,
    /// end-to-end nanoseconds, degrade reason, store flags, query hash
    /// and page fingerprint. The event goes to the flight recorder when
    /// it is on, and into `trace` (with the engine's decision detail)
    /// when a caller asked for one. Enforces the budget at the engine's
    /// stage checkpoints and isolates every failure to this one request.
    fn search_inner(
        &self,
        user: UserId,
        query_text: &str,
        mut trace: Option<&mut QueryTrace>,
        budget: SearchBudget,
        limit: Option<u64>,
    ) -> Result<SearchResponse, Overloaded> {
        let shard_idx = self.shard_of(user);
        let shard = &self.shards[shard_idx];
        // Admission control: shed before registering, so a shed request
        // costs nothing but the atomic load.
        if let Some(limit) = limit {
            let depth = shard.inflight.load(Ordering::Relaxed);
            if depth >= limit {
                self.fault.overloaded.incr(1);
                if let Some(fl) = &self.flight {
                    fl.note_burst(DumpReason::ShedBurst);
                }
                return Err(Overloaded {
                    shard: shard_idx,
                    queue_depth: depth,
                    retry_after: self.retry_after(shard, user, query_text, depth, limit),
                });
            }
        }
        // Admission-stage fault injection, before any lock is taken and
        // outside the per-query isolation boundary that begins below.
        let plan = self.plan.as_deref();
        if inject_fault(plan, user, query_text, FaultStage::Admission) {
            poison_mutex(&shard.users);
        }
        let depth = shard.inflight.fetch_add(1, Ordering::Relaxed);
        shard.queue.record_value(depth);
        let mut ev =
            FlightEvent { shard: shard_idx as u32, queue_depth: depth, ..FlightEvent::empty() };
        let span = shard.search.span();
        // One canonical key per search: both statistics reads and the
        // flight event's hash use it.
        let query_key = EngineCore::query_key(query_text);
        let snap = self.stats.read();
        let stats = snap.get(&query_key);
        let degraded: Option<DegradeReason>;
        let turn = {
            let (mut users, was_poisoned) = self.lock_users_timed(shard);
            if was_poisoned {
                // The thread that poisoned this lock died mid-mutation;
                // only the user it was serving can hold torn state, but
                // we cannot know which user that was. Evicting *this*
                // request's user bounds the damage to one profile (with
                // a store tier it faults back in from its last-good
                // record; without one it re-learns from scratch) while
                // every other user on the shard keeps their state. The
                // possibly-torn resident copy is deliberately *not*
                // written back.
                users.remove(&user);
                drop(users);
                self.fault.user_evicted.incr(1);
                degraded = Some(DegradeReason::LockPoisoned);
                self.core.degraded_search(user, query_text, stats, &mut ev, trace.as_deref_mut())
            } else {
                let residency = residency_stage().span();
                ev.store_fault_in = self.ensure_resident(&mut users, user, query_text);
                ev.store_evict = self.evict_overflow(&mut users, user, query_text) > 0;
                drop(residency);
                // Fault-in may have re-seeded statistics keys and
                // republished the snapshot; re-read so this very turn's
                // β sees them (cheap: a read lock and an Arc clone).
                let snap = self.stats.read();
                let stats = snap.get(&query_key);
                // The search runs on a snapshot of the user's state: an
                // observe that lands meanwhile publishes a successor and
                // leaves this one alone, so the shard lock is released
                // here and the whole engine pipeline runs without it.
                let state = Arc::clone(&users.entry(user).or_default().state);
                drop(users);
                let caught = catch_unwind(AssertUnwindSafe(|| {
                    let mut gate = |cp: StageCheckpoint| -> bool {
                        inject_fault(plan, user, query_text, cp.into());
                        budget.expired()
                    };
                    self.core.search_user_gated(
                        user,
                        query_text,
                        &state,
                        stats,
                        &mut ev,
                        trace.as_deref_mut(),
                        Some(&mut gate),
                    )
                }));
                match caught {
                    Ok((turn, aborted_at)) => {
                        degraded = aborted_at.map(deadline_reason);
                        turn
                    }
                    Err(_) => {
                        // `search_user_gated` only reads its snapshot,
                        // so the user's state is still good — no
                        // eviction, no rollback. Re-serve from the
                        // stateless baseline path, which overwrites the
                        // aborted attempt's β and cache hit in the event.
                        degraded = Some(DegradeReason::Panic);
                        self.core.degraded_search(
                            user,
                            query_text,
                            stats,
                            &mut ev,
                            trace.as_deref_mut(),
                        )
                    }
                }
            }
        };
        ev.total_nanos = span.finish();
        shard.inflight.fetch_sub(1, Ordering::Relaxed);
        if ev.cache_hit != Some(true) {
            // This turn did real retrieval work: fold it into the
            // uncached-latency EWMA the retry-after hint scales by.
            let prev = shard.uncached_ewma_nanos.load(Ordering::Relaxed);
            let next = if prev == 0 {
                ev.total_nanos
            } else {
                prev.saturating_sub(prev / 8).saturating_add(ev.total_nanos / 8)
            };
            shard.uncached_ewma_nanos.store(next.max(1), Ordering::Relaxed);
        }
        if let Some(reason) = degraded {
            self.fault.degraded(reason).incr(1);
        }
        ev.degraded = degraded;
        ev.query_hash = pws_obs::event::query_hash(&query_key);
        ev.page_fingerprint =
            pws_obs::event::page_fingerprint(turn.hits.iter().map(|h| (h.doc, h.rank)));
        if let Some(fl) = &self.flight {
            fl.record(shard_idx, ev);
            if degraded.is_some() {
                fl.note_burst(DumpReason::DegradeBurst);
            }
        }
        if let Some(t) = trace {
            t.event = ev;
        }
        Ok(SearchResponse { turn, degraded })
    }

    /// Each shard's current in-flight request count (index-aligned with
    /// shard ids). All zeros whenever no request is mid-flight.
    pub fn queue_depths(&self) -> Vec<u64> {
        self.shards.iter().map(|s| s.inflight.load(Ordering::Relaxed)).collect()
    }

    /// The flight recorder's current events, oldest first per shard,
    /// shard 0's ring first. Empty when the recorder is disabled.
    pub fn flight_events(&self) -> Vec<FlightEvent> {
        self.flight.as_ref().map(FlightRecorder::collect).unwrap_or_default()
    }

    /// Snapshot the flight rings into a dumpable [`FlightDump`] (see
    /// [`FlightDump::write_to`] for the on-disk `PWSFLT1` form), or
    /// `None` when the recorder is disabled.
    pub fn flight_dump(&self, reason: DumpReason) -> Option<FlightDump> {
        self.flight.as_ref().map(|fl| fl.dump(reason))
    }

    /// Feed the current process-wide metrics snapshot to the SLO
    /// monitor and return its verdicts. Each call is one observation
    /// interval: burn rates are computed over deltas between successive
    /// `health()` calls, so poll it on a fixed cadence.
    pub fn health(&self) -> HealthReport {
        self.monitor.observe_and_report(pws_obs::snapshot())
    }

    /// The engine's SLO monitor, for callers that manage their own
    /// snapshot cadence (e.g. `pws-top` observing deltas it already
    /// collects for the dashboard).
    pub fn health_monitor(&self) -> &HealthMonitor {
        &self.monitor
    }

    /// Users currently queued for asynchronous writeback (0 without a
    /// store tier or with synchronous writeback).
    pub fn writeback_backlog(&self) -> usize {
        self.store.as_ref().map_or(0, |tier| tier.backlog())
    }

    /// Fold the user's clicks on a turn back into the engine.
    ///
    /// Lock order: user shard, then query-statistics shard — every
    /// writer acquires in that order, so the pair can never deadlock.
    /// The snapshot refresh runs only after both are released.
    ///
    /// The fold works on successors: a copy of the user's state and of
    /// the query's statistics. Only a completed fold publishes them (the
    /// state by swapping the resident snapshot, the statistics by
    /// inserting the entry); a panic mid-fold drops them and counts
    /// `serve.state_restored`, so a half-applied impression never
    /// survives and the maps are exactly as they were. Searches holding
    /// the previous snapshot finish on it.
    pub fn observe(&self, turn: &SearchTurn, impression: &Impression) {
        let shard = &self.shards[self.shard_of(turn.user)];
        let depth = shard.inflight.fetch_add(1, Ordering::Relaxed);
        shard.queue.record_value(depth);
        let folded;
        {
            let _span = shard.observe.span();
            let key = EngineCore::query_key(&turn.query_text);
            let stats_idx = self.stats.shard_of(&key);
            let (mut users, users_poisoned) = self.lock_users_timed(shard);
            if users_poisoned {
                // Same single-user eviction as the read path: only this
                // request's user can be rebuilt from scratch safely.
                users.remove(&turn.user);
                self.fault.user_evicted.incr(1);
            }
            let residency = Instant::now();
            self.ensure_resident(&mut users, turn.user, &turn.query_text);
            let mut residency_nanos = residency.elapsed().as_nanos() as u64;
            let mut state = users
                .get(&turn.user)
                .map_or_else(UserState::default, |r| UserState::clone(&r.state));
            {
                let mut stats_shard = self.stats.lock_shard(stats_idx);
                let mut stats = stats_shard.get(&key).cloned().unwrap_or_default();
                let plan = self.plan.as_deref();
                let caught = catch_unwind(AssertUnwindSafe(|| {
                    inject_fault(plan, turn.user, &turn.query_text, FaultStage::Observe);
                    self.core.observe_user(turn, impression, &mut state, &mut stats);
                }));
                folded = caught.is_ok();
                if folded {
                    stats_shard.insert(key, stats);
                }
            }
            if folded {
                let resident = users.entry(turn.user).or_default();
                resident.state = Arc::new(state);
                if let Some(tier) = &self.store {
                    tier.mark_dirty(resident);
                }
            } else {
                self.fault.state_restored.incr(1);
            }
            let residency = Instant::now();
            self.evict_overflow(&mut users, turn.user, &turn.query_text);
            residency_nanos += residency.elapsed().as_nanos() as u64;
            residency_stage().record_nanos(residency_nanos);
        }
        if let (true, Some(tier)) = (folded, &self.store) {
            tier.enqueue_writeback(turn.user, self.plan.as_deref());
        }
        shard.inflight.fetch_sub(1, Ordering::Relaxed);
        if self.stats.tick() {
            self.refresh_stats();
        }
    }

    /// Force an immediate rebuild of the β-statistics snapshot (tests and
    /// batch pipelines that want freshness at a phase boundary), and queue
    /// the statistics file for the writeback daemon. Never hold a stats lock.
    pub fn refresh_stats(&self) {
        self.stats.refresh();
        if let Some(tier) = &self.store {
            tier.enqueue(Job::Stats);
        }
    }

    /// Clone out a user's state (if the user has been seen): the
    /// resident snapshot when the user is in memory (copied after the
    /// shard lock is released), else — with a store
    /// tier — their on-disk record (an evicted user's record is always
    /// current: dirty victims are written back before removal). Never
    /// faults the user in; reading state is not residency-relevant. An
    /// unreadable record counts `serve.state_io_error` and reads as
    /// absent.
    pub fn user_state(&self, user: UserId) -> Option<UserState> {
        self.resident_or_stored(user).map(Arc::unwrap_or_clone)
    }

    /// [`Self::user_state`] without the copy.
    fn resident_or_stored(&self, user: UserId) -> Option<Arc<UserState>> {
        let shard = &self.shards[self.shard_of(user)];
        let resident = self.lock_users(shard).0.get(&user).map(|r| Arc::clone(&r.state));
        resident.or_else(|| Some(Arc::new(self.store.as_ref()?.stored_state(user)?)))
    }

    /// Accumulated statistics for a query string, as of the last
    /// snapshot refresh.
    pub fn query_stats(&self, query_text: &str) -> Option<QueryStats> {
        self.stats.read().get(&EngineCore::query_key(query_text)).cloned()
    }

    /// Number of distinct users with state: resident across all
    /// shards, plus — with a store tier — evicted users whose record
    /// is on disk.
    pub fn user_count(&self) -> usize {
        let mut seen: HashSet<UserId> = HashSet::new();
        for s in self.shards.iter() {
            seen.extend(self.lock_users(s).0.keys().copied());
        }
        if let Some(tier) = &self.store {
            seen.extend(tier.stored_users());
        }
        seen.len()
    }

    /// Number of users currently resident in memory (≤ the per-shard
    /// capacity × shard count when a store tier bounds residency).
    pub fn resident_count(&self) -> usize {
        self.shards.iter().map(|s| self.lock_users(s).0.len()).sum()
    }

    /// Reset one user's learned state, both the resident copy and —
    /// with a store tier — their on-disk record. The record stays gone:
    /// a background writeback already in flight for the user is waited
    /// out, and any older snapshot of them is refused afterwards. A
    /// failed removal counts `serve.state_io_error`.
    pub fn forget_user(&self, user: UserId) {
        let shard = &self.shards[self.shard_of(user)];
        self.lock_users(shard).0.remove(&user);
        if let Some(tier) = &self.store {
            tier.forget(user);
        }
    }

    /// Export one user's learned state as the bytes of a `PWSUSR1` user
    /// record (`docs/STORE_FORMAT.md`): the state *plus*, in section 7,
    /// the user's slice of the pooled adaptive-β statistics — the live
    /// statistics of every query the user has issued (with a store tier,
    /// loaded from its statistics file at open). Sections 1–6 are the
    /// bytes the store tier writes. `None` when the user has no state
    /// (resident or stored).
    pub fn export_user(&self, user: UserId) -> Option<Vec<u8>> {
        let state = self.resident_or_stored(user)?;
        Some(pws_store::encode_user_with(user, &state, |emit| {
            self.stats.visit(&state.seen_queries, emit)
        }))
    }

    /// Import an exported user record under the user id it carries,
    /// replacing any existing state for that user; returns the id.
    ///
    /// The record is decoded and validated before anything is touched:
    /// damaged bytes, a wrong model dimension, non-finite weights, or
    /// negative click masses are rejected with a typed [`ImportError`],
    /// count `serve.state_io_error`, and leave existing state untouched.
    /// Imported statistics only fill query keys this engine has never
    /// observed (live statistics are newer); the statistics snapshot is
    /// refreshed so the very next search sees them.
    pub fn import_user(&self, bytes: &[u8]) -> Result<UserId, ImportError> {
        let record = pws_store::decode_user_record(bytes)
            .map_err(ImportError::Decode)
            .and_then(|r| r.validate().map(|()| r).map_err(ImportError::Invalid))
            .inspect_err(|_| self.fault.state_io_error.incr(1))?;
        let user = record.user;
        let shard = &self.shards[self.shard_of(user)];
        {
            let (mut users, _) = self.lock_users(shard);
            let resident = match &self.store {
                Some(tier) => tier.imported(record.state),
                None => ResidentUser::clean(record.state),
            };
            users.insert(user, resident);
            self.stats.seed(record.query_stats);
            self.evict_overflow(&mut users, user, "");
        }
        if let Some(tier) = &self.store {
            tier.enqueue_writeback(user, self.plan.as_deref());
        }
        self.refresh_stats();
        Ok(user)
    }
}

// The whole point of the crate; if a field ever grows interior
// mutability that isn't thread-safe, this fails to compile.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<ServingEngine<'static>>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use pws_click::{Click, ShownResult};
    use pws_core::{BlendStrategy, PersonalizedSearchEngine};
    use pws_corpus::query::QueryId;
    use pws_geo::{LocId, LocationOntology};
    use pws_index::{IndexBuilder, SearchEngine, StoredDoc};
    use pws_obs::trace::BetaProvenance;

    // Stage counters are process-wide and several tests here reconcile exact
    // counts, so every test that drives an engine holds `pws_obs::test_lock()`
    // for its whole body.

    pub(crate) fn world() -> LocationOntology {
        let mut o = LocationOntology::new();
        let r = o.add(LocId::WORLD, "westland", vec![]);
        let c = o.add(r, "ardonia", vec![]);
        let s = o.add(c, "vale", vec![]);
        o.add(s, "alden", vec![]);
        o.add(s, "lakemoor", vec![]);
        o
    }

    pub(crate) fn index() -> SearchEngine {
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

    /// The same six documents as [`index`], as a two-segment on-disk
    /// index (docs 0–2 in segment 0, docs 3–5 in segment 1). Global doc
    /// ids come out identical, so transcripts are directly comparable.
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

    pub(crate) fn impression_from(turn: &SearchTurn, clicked_docs: &[u32]) -> Impression {
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
                .filter(|h| clicked_docs.contains(&h.doc))
                .map(|h| Click { doc: h.doc, rank: h.rank, dwell: 600 })
                .collect(),
        }
    }

    /// The deterministic replay click rule: click the highest doc id on
    /// the page (arbitrary but stable, and it exercises skip-above pair
    /// mining because the clicked doc is rarely rank 1).
    pub(crate) fn click_rule(turn: &SearchTurn) -> Vec<u32> {
        turn.hits.iter().map(|h| h.doc).max().into_iter().collect()
    }

    /// A session log: per user, an ordered list of query strings.
    pub(crate) fn session_log(queries: &dyn Fn(u32) -> Vec<String>, users: u32) -> Vec<(UserId, Vec<String>)> {
        (0..users).map(|u| (UserId(u), queries(u))).collect()
    }

    /// Replay through the serial engine, turns interleaved round-robin
    /// across users (the order the middleware would see); returns each
    /// user's Debug-formatted turn transcript.
    pub(crate) fn replay_serial(
        log: &[(UserId, Vec<String>)],
        cfg: EngineConfig,
    ) -> HashMap<UserId, Vec<String>> {
        let idx = index();
        let w = world();
        let mut e = PersonalizedSearchEngine::new(&idx, &w, cfg);
        let mut out: HashMap<UserId, Vec<String>> = HashMap::new();
        let rounds = log.iter().map(|(_, qs)| qs.len()).max().unwrap_or(0);
        for round in 0..rounds {
            for (user, qs) in log {
                let Some(q) = qs.get(round) else { continue };
                let turn = e.search(*user, q);
                let imp = impression_from(&turn, &click_rule(&turn));
                e.observe(&turn, &imp);
                out.entry(*user).or_default().push(format!("{turn:?}"));
            }
        }
        out
    }

    /// Replay through the sharded engine with `threads` worker threads,
    /// each owning a disjoint set of users (a user's turns must stay
    /// ordered; cross-user order is left to the scheduler on purpose).
    fn replay_sharded(
        log: &[(UserId, Vec<String>)],
        cfg: EngineConfig,
        shards: usize,
        threads: usize,
    ) -> HashMap<UserId, Vec<String>> {
        replay_sharded_traced(log, cfg, shards, threads, FlightConfig::default())
    }

    fn replay_sharded_traced(
        log: &[(UserId, Vec<String>)],
        cfg: EngineConfig,
        shards: usize,
        threads: usize,
        flight: FlightConfig,
    ) -> HashMap<UserId, Vec<String>> {
        let idx = index();
        replay_sharded_on(&idx, log, cfg, shards, threads, flight)
    }

    /// Same sharded replay, but over any retrieval backend — the
    /// segmented-backend equivalence test passes a multi-segment
    /// [`pws_index::SegmentedIndex`] here.
    fn replay_sharded_on(
        idx: &dyn pws_index::RetrievalBackend,
        log: &[(UserId, Vec<String>)],
        cfg: EngineConfig,
        shards: usize,
        threads: usize,
        flight: FlightConfig,
    ) -> HashMap<UserId, Vec<String>> {
        let w = world();
        let e = ServingEngine::new(
            idx,
            &w,
            cfg,
            ServeConfig { shards, stats_refresh_every: 1, flight, ..ServeConfig::default() },
        );
        replay_on_engine(&e, log, threads)
    }

    /// Replay `log` through an already-built engine (see [`replay_sharded`]).
    fn replay_on_engine(
        e: &ServingEngine<'_>,
        log: &[(UserId, Vec<String>)],
        threads: usize,
    ) -> HashMap<UserId, Vec<String>> {
        type Transcript = Vec<(UserId, Vec<String>)>;
        let transcripts: Vec<Mutex<Transcript>> =
            (0..threads).map(|_| Mutex::new(Vec::new())).collect();
        std::thread::scope(|scope| {
            for (t, sink) in transcripts.iter().enumerate() {
                scope.spawn(move || {
                    for (i, (user, qs)) in log.iter().enumerate() {
                        if i % threads != t {
                            continue;
                        }
                        let mut turns = Vec::with_capacity(qs.len());
                        for q in qs {
                            let turn = e.search(*user, q);
                            let imp = impression_from(&turn, &click_rule(&turn));
                            e.observe(&turn, &imp);
                            turns.push(format!("{turn:?}"));
                        }
                        sink.lock().unwrap().push((*user, turns));
                    }
                });
            }
        });
        let mut out = HashMap::new();
        for sink in transcripts {
            for (user, turns) in sink.into_inner().unwrap() {
                out.insert(user, turns);
            }
        }
        out
    }

    pub(crate) fn assert_equivalent(
        serial: &HashMap<UserId, Vec<String>>,
        sharded: &HashMap<UserId, Vec<String>>,
        label: &str,
    ) {
        assert_eq!(serial.len(), sharded.len(), "{label}: user sets differ");
        for (user, s_turns) in serial {
            let p_turns = sharded.get(user).unwrap_or_else(|| panic!("{label}: {user:?} missing"));
            assert_eq!(
                s_turns, p_turns,
                "{label}: {user:?} transcripts diverge (byte-level)"
            );
        }
    }

    /// Sharded replay is byte-identical to serial replay across every
    /// shard/thread combination, under the *adaptive* β blend. Each user
    /// issues user-disjoint query strings, so the query-statistics
    /// coupling between users is inert and per-user determinism is the
    /// whole story (with `stats_refresh_every: 1` each user's own stats
    /// are always fresh for its next turn).
    #[test]
    fn sharded_replay_matches_serial_adaptive_disjoint_queries() {
        let _guard = pws_obs::test_lock();
        let queries = |u: u32| -> Vec<String> {
            vec![
                format!("seafood restaurant u{u}"),
                format!("restaurant u{u}"),
                format!("seafood restaurant u{u}"),
                format!("sushi restaurant u{u}"),
                format!("seafood restaurant u{u}"),
            ]
        };
        let log = session_log(&queries, 6);
        let serial = replay_serial(&log, EngineConfig::default());
        for shards in [1usize, 3, 8] {
            for threads in [1usize, 4] {
                let sharded = replay_sharded(&log, EngineConfig::default(), shards, threads);
                assert_equivalent(&serial, &sharded, &format!("{shards} shards / {threads} threads"));
            }
        }
    }

    /// With a fixed β the statistics never influence ranking, so even
    /// *shared* query strings replay byte-identically at any concurrency.
    #[test]
    fn sharded_replay_matches_serial_fixed_beta_shared_queries() {
        let _guard = pws_obs::test_lock();
        let queries = |_u: u32| -> Vec<String> {
            ["seafood restaurant", "restaurant", "seafood restaurant", "pizza restaurant"]
                .iter()
                .map(|s| s.to_string())
                .collect()
        };
        let log = session_log(&queries, 5);
        let cfg = EngineConfig {
            blend: BlendStrategy::Fixed(0.4),
            ..EngineConfig::default()
        };
        let serial = replay_serial(&log, cfg.clone());
        for shards in [1usize, 4] {
            for threads in [1usize, 4] {
                let sharded = replay_sharded(&log, cfg.clone(), shards, threads);
                assert_equivalent(&serial, &sharded, &format!("{shards} shards / {threads} threads"));
            }
        }
    }

    /// Swapping the segmented on-disk backend under the serving stack
    /// leaves the replay-equivalence contract intact: sharded replays
    /// over it are byte-identical to the serial in-memory replay, cache
    /// and all.
    #[test]
    fn sharded_replay_on_segmented_backend_matches_serial() {
        let _guard = pws_obs::test_lock();
        let queries = |u: u32| -> Vec<String> {
            vec![
                format!("seafood restaurant u{u}"),
                format!("restaurant u{u}"),
                format!("seafood restaurant u{u}"),
                format!("sushi restaurant u{u}"),
            ]
        };
        let log = session_log(&queries, 6);
        let serial = replay_serial(&log, EngineConfig::default());
        let seg = segmented_index();
        for (shards, threads) in [(1usize, 1usize), (3, 4)] {
            let on_seg = replay_sharded_on(
                &seg, &log, EngineConfig::default(), shards, threads, FlightConfig::default());
            assert_equivalent(
                &serial, &on_seg,
                &format!("segmented backend, {shards} shards / {threads} threads"),
            );
        }
    }

    #[test]
    fn adaptive_beta_flows_through_snapshot() {
        let _guard = pws_obs::test_lock();
        let idx = index();
        let w = world();
        let e = ServingEngine::new(
            &idx,
            &w,
            EngineConfig::default(),
            ServeConfig { shards: 4, stats_refresh_every: 1, ..ServeConfig::default() },
        );
        assert_eq!(e.search(UserId(0), "restaurant").beta, 0.5, "no stats → neutral");
        for u in 0..6u32 {
            let turn = e.search(UserId(u), "restaurant");
            let imp = impression_from(&turn, &click_rule(&turn));
            e.observe(&turn, &imp);
        }
        assert!(e.query_stats("restaurant").is_some());
        let beta = e.search(UserId(9), "restaurant").beta;
        assert!(beta > 0.0 && beta < 1.0, "β should now be stats-driven, got {beta}");
    }

    #[test]
    fn stats_refresh_epoch_batches_snapshot_rebuilds() {
        let _guard = pws_obs::test_lock();
        let idx = index();
        let w = world();
        let e = ServingEngine::new(
            &idx,
            &w,
            EngineConfig::default(),
            ServeConfig { shards: 2, stats_refresh_every: 1_000_000, ..ServeConfig::default() },
        );
        let turn = e.search(UserId(0), "restaurant");
        let imp = impression_from(&turn, &click_rule(&turn));
        e.observe(&turn, &imp);
        // The write landed in a shard but the epoch hasn't rolled, so the
        // snapshot still reads empty…
        assert!(e.query_stats("restaurant").is_none());
        // …until explicitly refreshed.
        e.refresh_stats();
        assert!(e.query_stats("restaurant").is_some());
    }

    #[test]
    fn user_lifecycle_forget_export_import() {
        let _guard = pws_obs::test_lock();
        let idx = index();
        let w = world();
        let e = ServingEngine::new(&idx, &w, EngineConfig::default(), ServeConfig::default());
        let user = UserId(42);
        for _ in 0..3 {
            let turn = e.search(user, "seafood restaurant");
            let imp = impression_from(&turn, &click_rule(&turn));
            e.observe(&turn, &imp);
        }
        let bytes = e.export_user(user).expect("state exists");
        let weights = e.user_state(user).unwrap().model.weights.clone();
        e.forget_user(user);
        assert!(e.user_state(user).is_none());
        assert!(e.export_user(user).is_none(), "a forgotten user exports nothing");
        assert_eq!(e.import_user(&bytes).expect("round trip"), user, "imported under its own id");
        assert_eq!(e.user_state(user).unwrap().model.weights, weights);
        assert_eq!(e.export_user(user).expect("state exists"), bytes, "same bytes back out");
        assert!(e.import_user(b"not a record").is_err());
    }

    #[test]
    fn per_shard_metrics_are_recorded() {
        // reset() zeroes the registry every test in this binary shares;
        // the lock serializes us against other global-count tests.
        let _guard = pws_obs::test_lock();
        let idx = index();
        let w = world();
        pws_obs::reset();
        let e = ServingEngine::new(
            &idx,
            &w,
            EngineConfig::default(),
            ServeConfig { shards: 3, stats_refresh_every: 1, ..ServeConfig::default() },
        );
        for u in 0..24u32 {
            let turn = e.search(UserId(u), "restaurant");
            let imp = impression_from(&turn, &click_rule(&turn));
            e.observe(&turn, &imp);
        }
        let snap = pws_obs::snapshot();
        let count = |name: &str| {
            snap.stages.iter().find(|s| s.name == name).map(|s| s.count).unwrap_or(0)
        };
        let searches: u64 = (0..3).map(|i| count(&format!("serve.shard{i}.search"))).sum();
        let observes: u64 = (0..3).map(|i| count(&format!("serve.shard{i}.observe"))).sum();
        let queue: u64 = (0..3).map(|i| count(&format!("serve.shard{i}.queue"))).sum();
        assert_eq!(searches, 24);
        assert_eq!(observes, 24);
        assert_eq!(queue, 48, "queue depth sampled once per search and per observe");
        // 24 users over 3 well-mixed shards: every shard should have seen
        // at least one search.
        for i in 0..3 {
            assert!(count(&format!("serve.shard{i}.search")) > 0, "shard {i} idle");
        }
    }

    /// The acceptance-criteria test: replay equivalence holds with the
    /// flight recorder **enabled** (every search builds a full trace and
    /// records its event), across shard and thread counts —
    /// observability does not perturb ranking or determinism.
    #[test]
    fn sharded_replay_with_tracing_enabled_matches_serial() {
        let _guard = pws_obs::test_lock();
        let queries = |u: u32| -> Vec<String> {
            vec![
                format!("seafood restaurant u{u}"),
                format!("restaurant u{u}"),
                format!("seafood restaurant u{u}"),
                format!("sushi restaurant u{u}"),
            ]
        };
        let log = session_log(&queries, 6);
        let serial = replay_serial(&log, EngineConfig::default());
        for shards in [1usize, 3, 8] {
            for threads in [1usize, 4] {
                let traced = replay_sharded_traced(
                    &log,
                    EngineConfig::default(),
                    shards,
                    threads,
                    FlightConfig::enabled(32),
                );
                assert_equivalent(
                    &serial,
                    &traced,
                    &format!("tracing on, {shards} shards / {threads} threads"),
                );
            }
        }
    }

    /// `search_traced` returns the full decision record around the event
    /// the serving path stamped, and each shard's flight ring holds at
    /// most its capacity, overwriting oldest.
    #[test]
    fn traces_carry_serving_context() {
        let _guard = pws_obs::test_lock();
        let idx = index();
        let w = world();
        let e = ServingEngine::new(
            &idx,
            &w,
            EngineConfig::default(),
            ServeConfig { shards: 4, stats_refresh_every: 1, ..ServeConfig::default() },
        );
        for u in 0..6u32 {
            let (_, t) = e.search_traced(UserId(u), "seafood restaurant");
            assert_eq!(t.event.user, u);
            assert_eq!(t.event.shard as usize, e.shard_of(UserId(u)), "serving layer stamps the shard");
            assert!(t.event.shard < 4);
            assert_eq!(t.event.queue_depth, 0, "queue depth at admission: nothing else in flight");
            assert!(t.event.total_nanos > 0, "end-to-end latency stamped");
            assert!(!t.results.is_empty(), "full decision record");
            assert!(t.personalized);
            assert!(t.event.stage_nanos.iter().all(|&n| n > 0), "{:?}", t.event.stage_nanos);
        }
        let e = ServingEngine::new(
            &idx,
            &w,
            EngineConfig::default(),
            ServeConfig { shards: 1, flight: FlightConfig::enabled(8), ..ServeConfig::default() },
        );
        for u in 0..20u32 {
            e.search(UserId(u), "restaurant");
        }
        let events = e.flight_events();
        assert_eq!(events.len(), 8, "capacity-bounded");
        let users: Vec<u32> = events.iter().map(|ev| ev.user).collect();
        assert_eq!(users, (12..20).collect::<Vec<u32>>(), "oldest overwritten");
    }

    #[test]
    fn tracing_disabled_yields_no_traces() {
        let _guard = pws_obs::test_lock();
        let idx = index();
        let w = world();
        let e = ServingEngine::new(&idx, &w, EngineConfig::default(), ServeConfig::default());
        e.search(UserId(0), "restaurant");
        assert!(e.flight_events().is_empty(), "no flight events unless enabled");
        // But a forced trace still works, without recording an event.
        let (turn, trace) = e.search_traced(UserId(0), "restaurant");
        assert_eq!(trace.query_text, "restaurant");
        assert_eq!(trace.event.user, 0);
        assert!(!trace.results.is_empty());
        assert!(e.flight_events().is_empty());
        // And it matches the untraced search byte-for-byte.
        let again = e.search(UserId(0), "restaurant");
        assert_eq!(format!("{turn:?}"), format!("{again:?}"));
    }

    #[test]
    fn queue_depth_returns_to_zero_after_concurrent_searches() {
        let _guard = pws_obs::test_lock();
        let idx = index();
        let w = world();
        let e = ServingEngine::new(&idx, &w, EngineConfig::default(), ServeConfig::default());
        let turns: usize = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..4u32)
                .map(|t| {
                    let e = &e;
                    scope.spawn(move || {
                        (t..32).step_by(4)
                            .map(|i| e.search(UserId(i), &format!("restaurant u{}", i % 4)))
                            .count()
                    })
                })
                .collect();
            workers.into_iter().map(|h| h.join().unwrap()).sum()
        });
        assert_eq!(turns, 32);
        assert!(
            e.queue_depths().iter().all(|&d| d == 0),
            "all shards drained: {:?}",
            e.queue_depths()
        );
    }

    /// Test-only injector: one action at one stage, for queries
    /// containing a marker substring.
    pub(crate) struct TargetedPlan {
        pub(crate) stage: FaultStage,
        pub(crate) action: FaultAction,
        pub(crate) query_contains: &'static str,
    }

    impl FaultPlan for TargetedPlan {
        fn inject(&self, _user: UserId, q: &str, stage: FaultStage) -> Option<FaultAction> {
            (stage == self.stage && q.contains(self.query_contains)).then_some(self.action)
        }
    }

    #[test]
    fn unlimited_budget_search_with_matches_search() {
        let _guard = pws_obs::test_lock();
        let idx = index();
        let w = world();
        let e = ServingEngine::new(&idx, &w, EngineConfig::default(), ServeConfig::default());
        for _ in 0..3 {
            let turn = e.search(UserId(1), "seafood restaurant");
            let imp = impression_from(&turn, &click_rule(&turn));
            e.observe(&turn, &imp);
        }
        let resp = e
            .search_with(UserId(1), "seafood restaurant", SearchBudget::none())
            .expect("no admission limit configured");
        assert!(!resp.is_degraded());
        let plain = e.search(UserId(1), "seafood restaurant");
        assert_eq!(format!("{:?}", resp.turn), format!("{plain:?}"));
    }

    #[test]
    fn expired_budget_degrades_to_baseline_order_never_errors() {
        let _guard = pws_obs::test_lock();
        let idx = index();
        let w = world();
        let e = ServingEngine::new(&idx, &w, EngineConfig::default(), ServeConfig::default());
        // Warm the user so personalization would actually reorder.
        for _ in 0..3 {
            let turn = e.search(UserId(7), "seafood restaurant");
            let imp = impression_from(&turn, &click_rule(&turn));
            e.observe(&turn, &imp);
        }
        let resp = e
            .search_with(UserId(7), "seafood restaurant", SearchBudget::with_deadline_in(Duration::ZERO))
            .expect("deadline expiry degrades, never sheds");
        assert_eq!(resp.degraded, Some(DegradeReason::DeadlineRetrieval));
        assert!(!resp.turn.hits.is_empty(), "degraded turn still answers the query");
        assert!(!resp.turn.personalized);
        // A degraded turn serves the same *ranking* the stateless
        // baseline path would (the diagnostic feature matrix may differ:
        // the checkpoint path computes it against the user's real
        // profile before aborting, the stateless path against a default
        // one — but neither re-orders the pool).
        let baseline = e.core.degraded_search(UserId(7), "seafood restaurant",
            e.query_stats("seafood restaurant").as_ref(), &mut FlightEvent::empty(), None);
        let page = |t: &SearchTurn| -> Vec<(u32, usize, String)> {
            t.hits.iter().map(|h| (h.doc, h.rank, format!("{:.12}", h.score))).collect()
        };
        assert_eq!(page(&resp.turn), page(&baseline));
        assert_eq!(resp.turn.beta, baseline.beta);
    }

    #[test]
    fn admission_control_sheds_with_retry_hint_but_trusted_path_passes() {
        let _guard = pws_obs::test_lock();
        let idx = index();
        let w = world();
        let e = ServingEngine::new(
            &idx,
            &w,
            EngineConfig::default(),
            ServeConfig { max_queue_depth: Some(0), ..ServeConfig::default() },
        );
        let err = e
            .search_with(UserId(0), "restaurant", SearchBudget::none())
            .expect_err("high-water mark of zero sheds everything");
        assert!(err.retry_after > Duration::ZERO, "retry hint must be actionable");
        assert_eq!(err.queue_depth, 0);
        // The per-request bound sheds even when the engine-wide one is off.
        let e2 = ServingEngine::new(&idx, &w, EngineConfig::default(), ServeConfig::default());
        let budget = SearchBudget { max_queue_depth: Some(0), ..SearchBudget::none() };
        assert!(e2.search_with(UserId(0), "restaurant", budget).is_err());
        // The trusted internal path bypasses admission control entirely.
        let turn = e.search(UserId(0), "restaurant");
        assert!(!turn.hits.is_empty());
        // Concurrent callers each see their own request shed.
        std::thread::scope(|scope| {
            let e = &e;
            let callers: Vec<_> = (0..2u32)
                .map(|u| scope.spawn(move || e.search_with(UserId(u), "restaurant", SearchBudget::none())))
                .collect();
            for c in callers {
                assert!(c.join().unwrap().is_err());
            }
        });
    }

    #[test]
    fn injected_delay_plus_deadline_degrades_at_the_right_checkpoint() {
        let _guard = pws_obs::test_lock();
        let idx = index();
        let w = world();
        let plan = Arc::new(TargetedPlan {
            stage: FaultStage::Concepts,
            action: FaultAction::Delay(Duration::from_millis(50)),
            query_contains: "slow",
        });
        let e = ServingEngine::new(&idx, &w, EngineConfig::default(), ServeConfig::default())
            .with_fault_plan(plan);
        // Deterministic despite being time-based: the injected 50ms delay
        // sits *before* the concepts checkpoint, dwarfing the 5ms budget.
        let resp = e
            .search_with(UserId(3), "slow seafood restaurant",
                SearchBudget::with_deadline_in(Duration::from_millis(5)))
            .expect("deadline degrades, never sheds");
        assert_eq!(resp.degraded, Some(DegradeReason::DeadlineConcepts));
        // Un-marked queries see no fault and no degradation.
        let resp = e
            .search_with(UserId(3), "seafood restaurant",
                SearchBudget::with_deadline_in(Duration::from_secs(60)))
            .expect("no admission limit");
        assert!(!resp.is_degraded());
    }

    #[test]
    fn panic_isolation_answers_the_query_and_preserves_state() {
        let _guard = pws_obs::test_lock();
        quiet_injected_panics();
        let idx = index();
        let w = world();
        let plan = Arc::new(TargetedPlan {
            stage: FaultStage::Features,
            action: FaultAction::Panic,
            query_contains: "boom",
        });
        let e = ServingEngine::new(&idx, &w, EngineConfig::default(), ServeConfig::default())
            .with_fault_plan(plan);
        for _ in 0..3 {
            let turn = e.search(UserId(5), "seafood restaurant");
            let imp = impression_from(&turn, &click_rule(&turn));
            e.observe(&turn, &imp);
        }
        let healthy_before = format!("{:?}", e.search(UserId(5), "seafood restaurant"));
        let resp = e
            .search_with(UserId(5), "boom seafood restaurant", SearchBudget::none())
            .expect("panics degrade, never shed");
        assert_eq!(resp.degraded, Some(DegradeReason::Panic));
        assert!(!resp.turn.hits.is_empty(), "isolated panic still answers the query");
        // The read path never mutates state, so the user's profile
        // survives the panic untouched and healthy queries are
        // byte-identical before and after.
        assert!(e.user_state(UserId(5)).is_some());
        let healthy_after = format!("{:?}", e.search(UserId(5), "seafood restaurant"));
        assert_eq!(healthy_before, healthy_after);
    }

    /// A panicked fold publishes nothing: the resident state is the
    /// pre-fold value, the statistics shard gained no key, and — without
    /// a store tier — a user the engine had never seen is not created.
    #[test]
    fn panicked_fold_leaves_state_stats_and_user_map_as_they_were() {
        quiet_injected_panics();
        let _guard = pws_obs::test_lock();
        pws_obs::reset();
        let idx = index();
        let w = world();
        let plan = Arc::new(TargetedPlan {
            stage: FaultStage::Observe,
            action: FaultAction::Panic,
            query_contains: "boom",
        });
        let e = ServingEngine::new(
            &idx,
            &w,
            EngineConfig::default(),
            ServeConfig { stats_refresh_every: 1, ..ServeConfig::default() },
        )
        .with_fault_plan(plan);
        let has_stats_key = |q: &str| {
            let key = EngineCore::query_key(q);
            e.stats.lock_shard(e.stats.shard_of(&key)).contains_key(&key)
        };

        // A user with learned state.
        let warm = UserId(4);
        for _ in 0..3 {
            let turn = e.search(warm, "seafood restaurant");
            e.observe(&turn, &impression_from(&turn, &click_rule(&turn)));
        }
        let before = format!("{:?}", e.user_state(warm).expect("warm user is resident"));
        let turn = e.search(warm, "boom seafood restaurant");
        e.observe(&turn, &impression_from(&turn, &click_rule(&turn)));
        assert_eq!(format!("{:?}", e.user_state(warm).unwrap()), before, "state is the pre-fold value");
        assert!(!has_stats_key("boom seafood restaurant"), "no new statistics key");

        // A user the engine has never seen (a turn built without touching
        // the user map).
        let stranger = UserId(999);
        let residents = e.resident_count();
        let turn = e.core.degraded_search(
            stranger,
            "boom restaurant",
            None,
            &mut FlightEvent::empty(),
            None,
        );
        e.observe(&turn, &impression_from(&turn, &click_rule(&turn)));
        assert_eq!(e.resident_count(), residents, "no new resident user");
        assert!(e.user_state(stranger).is_none());
        assert!(!has_stats_key("boom restaurant"));
        assert_eq!(pws_obs::snapshot().stage("serve.state_restored").map_or(0, |s| s.count), 2);
    }

    /// Per-user ordering of observes is the shard lock's: two observes
    /// of one user released together by a barrier both land — neither
    /// fold is computed from a state the other then overwrites.
    #[test]
    fn concurrent_observes_of_one_user_both_land() {
        let _guard = pws_obs::test_lock();
        let idx = index();
        let w = world();
        let e = ServingEngine::new(&idx, &w, EngineConfig::default(), ServeConfig::default());
        let user = UserId(6);
        // Click each page's last hit, so skip-above mining yields pairs
        // whose preferred side is that hit's feature vector.
        let clicked = |q: &str| {
            let turn = e.search(user, q);
            let last = turn.hits.len() - 1;
            let imp = impression_from(&turn, &[turn.hits[last].doc]);
            let better = turn.features[last].clone();
            (turn, imp, better)
        };
        let (t1, imp1, better1) = clicked("seafood restaurant");
        let (t2, imp2, better2) = clicked("noodle restaurant");
        assert_ne!(better1, better2, "the two clicks must be told apart");
        let observations = e.user_state(user).expect("searched").observations;
        let barrier = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            for (turn, imp) in [(&t1, &imp1), (&t2, &imp2)] {
                let (e, barrier) = (&e, &barrier);
                s.spawn(move || {
                    barrier.wait();
                    e.observe(turn, imp);
                });
            }
        });
        let after = e.user_state(user).expect("observed");
        assert_eq!(after.observations, observations + 2, "both folds landed");
        for better in [&better1, &better2] {
            assert!(after.pairs.iter().any(|p| &p.better == better), "a click's pairs were lost");
        }
    }

    /// A search holds its shard lock only to find its user: with user B
    /// parked inside its search (at the retrieval checkpoint), user A on
    /// the same shard is served while B is still in flight.
    #[test]
    fn search_does_not_wait_for_a_same_shard_search() {
        let _guard = pws_obs::test_lock();
        let idx = index();
        let w = world();
        let plan = Arc::new(TargetedPlan {
            stage: FaultStage::Retrieval,
            action: FaultAction::Delay(Duration::from_secs(2)),
            query_contains: "parked",
        });
        let e = ServingEngine::new(
            &idx,
            &w,
            EngineConfig::default(),
            ServeConfig { shards: 2, ..ServeConfig::default() },
        )
        .with_fault_plan(plan);
        let a = UserId(0);
        let b = UserId(
            (1..100).find(|&u| e.shard_of(UserId(u)) == e.shard_of(a)).expect("a shard-mate"),
        );
        let shard = e.shard_of(a);
        std::thread::scope(|s| {
            let parked = s.spawn(|| e.search(b, "seafood restaurant parked"));
            while e.queue_depths()[shard] != 1 {
                std::thread::yield_now();
            }
            // Give B time to pass its shard lock and reach the delay.
            std::thread::sleep(Duration::from_millis(50));
            let turn = e.search(a, "seafood restaurant");
            assert!(!turn.hits.is_empty());
            assert_eq!(e.queue_depths()[shard], 1, "A returned only after B finished");
            assert!(!parked.is_finished(), "A returned only after B finished");
            assert!(!parked.join().expect("B's search").hits.is_empty());
        });
    }

    #[test]
    fn poisoned_user_shard_recovers_and_evicts_only_that_user() {
        let _guard = pws_obs::test_lock();
        pws_obs::reset();
        let idx = index();
        let w = world();
        let e = ServingEngine::new(
            &idx,
            &w,
            EngineConfig::default(),
            ServeConfig { shards: 2, stats_refresh_every: 1, ..ServeConfig::default() },
        );
        // Two users on the same shard, both with learned state.
        let victim = UserId(0);
        let neighbor = UserId((1..100).find(|&u| {
            e.shard_of(UserId(u)) == e.shard_of(victim)
        }).expect("some user shares shard 0's shard"));
        for user in [victim, neighbor] {
            let turn = e.search(user, "seafood restaurant");
            let imp = impression_from(&turn, &click_rule(&turn));
            e.observe(&turn, &imp);
        }
        quiet_injected_panics();
        poison_mutex(&e.shards[e.shard_of(victim)].users);
        let resp = e
            .search_with(victim, "seafood restaurant", SearchBudget::none())
            .expect("poisoning degrades, never sheds");
        assert_eq!(resp.degraded, Some(DegradeReason::LockPoisoned));
        assert!(!resp.turn.hits.is_empty());
        // The victim was evicted; the neighbor's profile survived.
        assert!(e.user_state(victim).is_none(), "victim evicted");
        assert!(e.user_state(neighbor).is_some(), "neighbor untouched");
        // The shard is healthy again: the next query personalizes.
        let resp = e
            .search_with(victim, "seafood restaurant", SearchBudget::none())
            .expect("recovered shard admits normally");
        assert!(!resp.is_degraded());
        let snap = pws_obs::snapshot();
        let count = |name: &str| {
            snap.stages.iter().find(|s| s.name == name).map(|s| s.count).unwrap_or(0)
        };
        assert!(count("serve.lock_recovered") >= 1);
        assert_eq!(count("serve.user_evicted"), 1);
        assert_eq!(count("serve.degraded.lock_poisoned"), 1);
    }

    /// Regression test for the flight ring: a thread killed while
    /// holding a slot used to poison it permanently, panicking every
    /// later push and collect. Now both recover.
    #[test]
    fn flight_ring_recovers_from_poisoned_slot() {
        let _guard = pws_obs::test_lock();
        quiet_injected_panics();
        let ring = Ring::new(1, pws_obs::stage("serve.lock_recovered"));
        ring.push(FlightEvent { user: 1, ..FlightEvent::empty() });
        poison_mutex(&ring.slots[0]);
        ring.push(FlightEvent { user: 2, ..FlightEvent::empty() });
        let collected = ring.collect();
        assert_eq!(collected.len(), 1);
        assert_eq!(collected[0].user, 2);
    }

    #[test]
    fn import_parse_failure_counts_state_io_error() {
        let _guard = pws_obs::test_lock();
        pws_obs::reset();
        let idx = index();
        let w = world();
        let e = ServingEngine::new(&idx, &w, EngineConfig::default(), ServeConfig::default());
        assert!(matches!(e.import_user(b"definitely not a record"), Err(ImportError::Decode(_))));
        let snap = pws_obs::snapshot();
        let errors = snap
            .stages
            .iter()
            .find(|s| s.name == "serve.state_io_error")
            .map(|s| s.count)
            .unwrap_or(0);
        assert_eq!(errors, 1);
        assert_eq!(e.user_count(), 0, "failed import leaves no state");
    }

    #[test]
    fn degraded_turns_are_visible_in_traces_and_counters() {
        let _guard = pws_obs::test_lock();
        pws_obs::reset();
        let idx = index();
        let w = world();
        let e = ServingEngine::new(
            &idx,
            &w,
            EngineConfig::default(),
            ServeConfig { flight: FlightConfig::enabled(8), ..ServeConfig::default() },
        );
        e.search_with(UserId(0), "seafood restaurant", SearchBudget::with_deadline_in(Duration::ZERO))
            .expect("degrades, never sheds");
        e.search_with(UserId(0), "seafood restaurant", SearchBudget::none())
            .expect("healthy");
        let events = e.flight_events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].degraded, Some(DegradeReason::DeadlineRetrieval));
        assert_eq!(events[1].degraded, None);
        let snap = pws_obs::snapshot();
        let count = |name: &str| {
            snap.stages.iter().find(|s| s.name == name).map(|s| s.count).unwrap_or(0)
        };
        assert_eq!(count("serve.degraded.deadline_retrieval"), 1);
        // Each reason counts under its own label.
        for reason in DegradeReason::ALL {
            let name = format!("serve.degraded.{}", reason.label());
            assert_eq!(e.fault.degraded(reason).name(), name);
        }
    }

    /// Satellite of the retrieval fast path: with the shared retrieval
    /// cache on (the default), N threads over M shards replay
    /// byte-identically to the serial engine (which has no cache), and
    /// `serve.cache.hit + serve.cache.miss` reconciles exactly with the
    /// number of searches issued.
    #[test]
    fn retrieval_cache_replay_is_byte_identical_and_counters_reconcile() {
        let _guard = pws_obs::test_lock();
        pws_obs::reset();
        // Augmentation off so every search performs exactly one base
        // retrieval (the augmented query would add a second, history-
        // dependent probe and break exact reconciliation).
        let cfg = EngineConfig { query_augmentation: false, ..EngineConfig::default() };
        let queries = |u: u32| -> Vec<String> {
            vec![
                format!("seafood restaurant u{u}"),
                format!("restaurant u{u}"),
                format!("seafood restaurant u{u}"),
                format!("sushi restaurant u{u}"),
            ]
        };
        let log = session_log(&queries, 6);
        let serial = replay_serial(&log, cfg.clone());
        let total_searches: u64 = log.iter().map(|(_, qs)| qs.len() as u64).sum();
        for (shards, threads) in [(1usize, 1usize), (3, 4), (8, 4)] {
            pws_obs::reset();
            let sharded = replay_sharded(&log, cfg.clone(), shards, threads);
            assert_equivalent(
                &serial,
                &sharded,
                &format!("cache on, {shards} shards / {threads} threads"),
            );
            let snap = pws_obs::snapshot();
            let count = |name: &str| {
                snap.stages.iter().find(|s| s.name == name).map(|s| s.count).unwrap_or(0)
            };
            let hits = count("serve.cache.hit");
            let misses = count("serve.cache.miss");
            assert_eq!(
                hits + misses,
                total_searches,
                "every search probes the cache exactly once \
                 ({shards} shards / {threads} threads)"
            );
            // Each user repeats "seafood restaurant u{u}" once, so at
            // least one probe per user must hit (the repeat), even
            // under maximal racing.
            assert!(hits >= 1, "repeated queries must produce cache hits");
        }
    }

    /// One analysis per cached hit, shown by count: a cold search cuts and
    /// analyses each pool hit once, the page extraction takes every
    /// analysis from the pool, and a second user issuing the same query
    /// cuts and analyses nothing at all.
    #[test]
    fn each_snippet_is_analysed_once_across_pool_page_and_users() {
        let _guard = pws_obs::test_lock();
        let idx = index();
        let w = world();
        let e = ServingEngine::new(&idx, &w, EngineConfig::default(), ServeConfig::default());
        let q = "seafood restaurant";
        // A cold user has no preferred city, so the pool is the base pool.
        let pool = idx.search(q, e.config().rerank_pool).len() as u64;
        assert!(pool >= 4, "fixture pool too small to be interesting");
        let count = |name: &str| {
            let snap = pws_obs::snapshot();
            snap.stages.iter().find(|s| s.name == name).map(|s| s.count).unwrap_or(0)
        };

        pws_obs::reset();
        let turn = e.search(UserId(1), q);
        assert!(turn.personalized);
        let page = turn.hits.len() as u64;
        assert_eq!(count("engine.retrieval.snippets_cut"), pool);
        assert_eq!(count("engine.concepts.analyze"), 1, "one analysis span, at the cut");
        assert_eq!(count("engine.concepts.snippet_miss"), pool);
        assert_eq!(count("engine.concepts.snippet_hit"), page);
        assert_eq!(count("engine.concepts.memo_miss"), 1, "the pool call counted built analyses");
        assert_eq!(count("engine.concepts.memo_hit"), 1, "the page call took them from the pool");

        let other = e.search(UserId(2), q);
        assert_eq!(count("engine.retrieval.snippets_cut"), pool, "shared base pool: 0 new cuts");
        assert_eq!(count("engine.concepts.analyze"), 1, "and no analysis");
        assert_eq!(count("engine.concepts.snippet_miss"), pool);
        assert_eq!(count("engine.concepts.snippet_hit"), page + pool + other.hits.len() as u64);
        assert_eq!(count("engine.concepts.memo_hit"), 3);
    }

    /// The retrieval cache — and with it the kept analyses — changes
    /// nothing but its counters: with no cache (capacity 0, every pool cut
    /// and analysed afresh) and with one pool per lock shard (capacity 1,
    /// so pools are evicted and cut again) the replay is byte-identical to
    /// serial at every shard/thread count. The default capacity is what
    /// every other test in this suite runs.
    #[test]
    fn sharded_replay_is_byte_identical_at_retrieval_cache_capacities_0_and_1() {
        let _guard = pws_obs::test_lock();
        let queries = |u: u32| -> Vec<String> {
            vec![
                format!("seafood restaurant u{u}"),
                format!("restaurant u{u}"),
                format!("seafood restaurant u{u}"),
                format!("sushi restaurant u{u}"),
                format!("seafood restaurant u{u}"),
            ]
        };
        let log = session_log(&queries, 6);
        let serial = replay_serial(&log, EngineConfig::default());
        let (idx, w) = (index(), world());
        for capacity in [0usize, 1] {
            for shards in [1usize, 3, 8] {
                for threads in [1usize, 4] {
                    pws_obs::reset();
                    let e = ServingEngine::new(
                        &idx,
                        &w,
                        EngineConfig::default(),
                        ServeConfig { shards, stats_refresh_every: 1, ..ServeConfig::default() },
                    )
                    .with_retrieval_cache_capacity(capacity);
                    let sharded = replay_on_engine(&e, &log, threads);
                    let label = format!("cache capacity {capacity}, {shards} shards / {threads} threads");
                    assert_equivalent(&serial, &sharded, &label);
                    let snap = pws_obs::snapshot();
                    let count = |name: &str| {
                        snap.stages.iter().find(|s| s.name == name).map(|s| s.count).unwrap_or(0)
                    };
                    let (hit, miss) = (count("serve.cache.hit"), count("serve.cache.miss"));
                    assert!(miss > 0 && count("engine.concepts.snippet_miss") > 0, "{label}");
                    if capacity == 0 {
                        assert_eq!(hit, 0, "{label}: nothing to hit without a cache");
                        assert_eq!(
                            count("engine.retrieval.snippets_cut"),
                            count("engine.concepts.snippet_miss"),
                            "{label}: every pool hit cut and analysed afresh"
                        );
                    }
                }
            }
        }
    }

    /// The cache is observable per query: the first retrieval of a
    /// token sequence misses, the second hits, and the trace records
    /// which one happened. The serial engine has no cache, so its stamp
    /// stays `None`.
    #[test]
    fn trace_stamps_retrieval_cache_hit() {
        let _guard = pws_obs::test_lock();
        let idx = index();
        let w = world();
        let e = ServingEngine::new(&idx, &w, EngineConfig::default(), ServeConfig::default());
        let (turn_miss, t1) = e.search_traced(UserId(0), "seafood restaurant");
        assert_eq!(t1.event.cache_hit, Some(false), "cold cache: first probe misses");
        let (turn_hit, t2) = e.search_traced(UserId(1), "seafood restaurant");
        assert_eq!(t2.event.cache_hit, Some(true), "second identical query hits");
        // Analysis-equivalent surface forms share one entry.
        let (_, t3) = e.search_traced(UserId(2), "Seafood  RESTAURANT");
        assert_eq!(t3.event.cache_hit, Some(true), "key is the analyzed token sequence");
        // A cached turn is byte-identical to the uncached one apart
        // from user id (different users, same query, no learned state).
        let page = |t: &SearchTurn| -> Vec<(u32, usize, String)> {
            t.hits.iter().map(|h| (h.doc, h.rank, format!("{:.17e}", h.score))).collect()
        };
        assert_eq!(page(&turn_miss), page(&turn_hit));
        let mut serial = PersonalizedSearchEngine::new(&idx, &w, EngineConfig::default());
        let (_, t4) = serial.search_traced(UserId(0), "seafood restaurant");
        assert_eq!(t4.event.cache_hit, None, "no cache configured → no stamp");
    }

    #[test]
    fn queue_depth_gauge_never_underflows_under_concurrency() {
        // The inflight counter is incremented at admission and
        // decremented on exit; an unbalanced pair would underflow the
        // u64 and record astronomical depths. Hammer search+observe
        // concurrently, then check both the live gauge (exactly zero)
        // and the recorded samples (all plausibly small).
        let _guard = pws_obs::test_lock();
        let idx = index();
        let w = world();
        pws_obs::reset();
        let e = ServingEngine::new(
            &idx,
            &w,
            EngineConfig::default(),
            ServeConfig { shards: 2, stats_refresh_every: 1, ..ServeConfig::default() },
        );
        std::thread::scope(|scope| {
            for t in 0..8u32 {
                let e = &e;
                scope.spawn(move || {
                    for i in 0..20u32 {
                        let user = UserId(t * 100 + i % 5);
                        let turn = e.search(user, "seafood restaurant");
                        let imp = impression_from(&turn, &click_rule(&turn));
                        e.observe(&turn, &imp);
                    }
                });
            }
        });
        assert!(
            e.queue_depths().iter().all(|&d| d == 0),
            "gauge must return to zero: {:?}",
            e.queue_depths()
        );
        // Every sampled depth must be bounded by the worker count — an
        // underflow would have recorded ~2^64 into the histogram.
        let snap = pws_obs::snapshot();
        for s in snap.stages.iter().filter(|s| s.name.contains(".queue")) {
            assert!(
                s.p99_nanos <= 16,
                "{}: sampled queue depth p99 {} exceeds any plausible depth",
                s.name,
                s.p99_nanos
            );
        }
    }

    // ── Store tier ──────────────────────────────────────────────────────

    /// Fresh per-test store directory (removed first, in case a prior
    /// run of the same pid left one behind).
    pub(crate) fn store_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("pws-serve-store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Round-robin replay on an already-built engine: every user takes
    /// one turn per round, rounds are barriers, users within a round are
    /// split across `threads` scoped threads. With a capacity-1 store
    /// tier this forces an eviction and a fault-in on nearly every turn
    /// — the access pattern `replay_sharded` (user-by-user) never
    /// produces.
    pub(crate) fn replay_round_robin(
        e: &ServingEngine<'_>,
        log: &[(UserId, Vec<String>)],
        threads: usize,
    ) -> HashMap<UserId, Vec<String>> {
        let mut out: HashMap<UserId, Vec<String>> = HashMap::new();
        let rounds = log.iter().map(|(_, qs)| qs.len()).max().unwrap_or(0);
        for round in 0..rounds {
            let sinks: Vec<Mutex<Vec<(UserId, String)>>> =
                (0..threads).map(|_| Mutex::new(Vec::new())).collect();
            std::thread::scope(|scope| {
                for (t, sink) in sinks.iter().enumerate() {
                    let e = &e;
                    let log = &log;
                    scope.spawn(move || {
                        for (i, (user, qs)) in log.iter().enumerate() {
                            if i % threads != t {
                                continue;
                            }
                            let Some(q) = qs.get(round) else { continue };
                            let turn = e.search(*user, q);
                            let imp = impression_from(&turn, &click_rule(&turn));
                            e.observe(&turn, &imp);
                            sink.lock().unwrap().push((*user, format!("{turn:?}")));
                        }
                    });
                }
            });
            for sink in sinks {
                for (user, turn) in sink.into_inner().unwrap() {
                    out.entry(user).or_default().push(turn);
                }
            }
        }
        out
    }

    /// Regression for the export-stats bug: `export_user` must carry the
    /// user's per-query adaptive-β statistics. A fresh process importing
    /// the export and resuming replay must be byte-identical to never
    /// having left — before the fix the statistics restarted cold and the
    /// β sequence diverged.
    #[test]
    fn export_import_into_fresh_process_resumes_adaptive_beta_exactly() {
        let _guard = pws_obs::test_lock();
        let user = UserId(9);
        let repeated = "seafood restaurant"; // repeated ⇒ stats-driven β moves
        let full: Vec<(UserId, Vec<String>)> =
            vec![(user, (0..6).map(|_| repeated.to_string()).collect())];
        let uninterrupted = replay_serial(&full, EngineConfig::default());

        let idx = index();
        let w = world();
        let cfg = || ServeConfig { shards: 1, stats_refresh_every: 1, ..ServeConfig::default() };
        let e1 = ServingEngine::new(&idx, &w, EngineConfig::default(), cfg());
        let first: Vec<(UserId, Vec<String>)> =
            vec![(user, (0..3).map(|_| repeated.to_string()).collect())];
        let mut transcripts = replay_round_robin(&e1, &first, 1);
        let bytes = e1.export_user(user).expect("state exists");
        drop(e1);

        // A brand-new engine (fresh process: empty live statistics).
        let e2 = ServingEngine::new(&idx, &w, EngineConfig::default(), cfg());
        assert_eq!(e2.import_user(&bytes).expect("import"), user);
        let rest: Vec<(UserId, Vec<String>)> =
            vec![(user, (0..3).map(|_| repeated.to_string()).collect())];
        for (u, turns) in replay_round_robin(&e2, &rest, 1) {
            transcripts.entry(u).or_default().extend(turns);
        }
        assert_equivalent(&uninterrupted, &transcripts, "export/import process handoff");
    }

    /// `bytes` with user-record section `i` rewritten by `tamper` and the
    /// container re-checksummed, so the damage reaches validation rather
    /// than failing the section checksum.
    fn with_section(bytes: &[u8], i: usize, tamper: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
        let mut sections: Vec<Vec<u8>> = pws_store::STORE_FORMAT
            .parse(bytes)
            .expect("valid record")
            .iter()
            .map(|s| s.to_vec())
            .collect();
        tamper(&mut sections[i]);
        pws_store::STORE_FORMAT.write(sections)
    }

    /// Damaged or invalid imports are rejected with a typed error and
    /// counted in `serve.state_io_error`; nothing is partially applied.
    #[test]
    fn import_rejects_invalid_records_with_typed_errors() {
        use pws_core::StateError;
        use pws_store::SectionId;
        let _guard = pws_obs::test_lock();
        let idx = index();
        let w = world();
        pws_obs::reset();
        let e = ServingEngine::new(&idx, &w, EngineConfig::default(), ServeConfig::default());
        let user = UserId(2);
        for _ in 0..2 {
            let turn = e.search(user, "seafood restaurant");
            let imp = impression_from(&turn, &click_rule(&turn));
            e.observe(&turn, &imp);
        }
        let bytes = e.export_user(user).expect("state exists");
        let section = |id: SectionId| id as usize - 1;
        let u32_at = |p: &[u8], at: usize| u32::from_le_bytes(p[at..at + 4].try_into().unwrap());
        let bump_u32 = |p: &mut Vec<u8>, at: usize| {
            let v = u32_at(p, at) + 1;
            p[at..at + 4].copy_from_slice(&v.to_le_bytes());
        };

        // Model: `u32 dim`, then `dim` f64s. One extra weight.
        let extra_weight = with_section(&bytes, section(SectionId::Model), |p| {
            bump_u32(p, 0);
            p.extend_from_slice(&0.125f64.to_bits().to_le_bytes());
        });
        // Pairs: `u32 n`, then per pair `u32 len` + f64s, twice. The first
        // pair's `better` vector one value longer.
        let long_pair = with_section(&bytes, section(SectionId::Pairs), |p| {
            assert!(u32_at(p, 0) > 0, "fixture must have mined a pair");
            bump_u32(p, 4);
            p.splice(8..8, 0.5f64.to_bits().to_le_bytes());
        });
        // The first model weight NaN.
        let nan_weight = with_section(&bytes, section(SectionId::Model), |p| {
            p[4..12].copy_from_slice(&f64::NAN.to_bits().to_le_bytes());
        });
        // Query statistics: one entry with a negative URL click mass.
        let negative_mass = with_section(&bytes, section(SectionId::QueryStats), |p| {
            let mut w = pws_obs::format::ByteWriter::new();
            w.u32(1);
            w.str("seafood restaurant");
            w.u64(1);
            w.u64(1);
            w.u32(1);
            w.str("http://a.test/0");
            w.f64bits(-1.0);
            w.u32(0);
            w.u32(0);
            *p = w.finish();
        });
        let wide = UserState::prior_weights().len() + 1;
        let cases = [
            (extra_weight, StateError::WrongDim { what: "model weights", got: wide }),
            (long_pair, StateError::WrongDim { what: "pair better", got: wide }),
            (nan_weight, StateError::NonFinite("model weights")),
            (negative_mass, StateError::Negative("query-stats url clicks")),
        ];
        for (bad, expected) in &cases {
            match e.import_user(bad) {
                Err(ImportError::Invalid(err)) if err == *expected => {}
                other => panic!("expected Invalid({expected:?}), got {other:?}"),
            }
        }

        // Every damaged copy of the container gauntlet fails to decode.
        let damaged = pws_store::STORE_FORMAT
            .gauntlet(&bytes, |bad| matches!(e.import_user(bad), Err(ImportError::Decode(_))));

        let snap = pws_obs::snapshot();
        let io_errors = snap
            .stages
            .iter()
            .find(|s| s.name == "serve.state_io_error")
            .map(|s| s.count)
            .unwrap_or(0);
        assert_eq!(io_errors, (cases.len() + damaged) as u64, "every rejected import is counted");
        // The resident state survived every rejected import.
        assert_eq!(e.export_user(user).expect("still resident"), bytes);
    }

    /// Regression for the retry-after bug: a cache-hot shard must still
    /// hand out an actionable backoff. The lifetime-mean estimate was
    /// dragged toward the (near-zero) cache-hit latency by repeated
    /// identical queries; the EWMA tracks uncached turns only and is
    /// floored at 100µs per queued request.
    #[test]
    fn retry_after_stays_actionable_on_cache_hot_shard() {
        let _guard = pws_obs::test_lock();
        let idx = index();
        let w = world();
        let e = ServingEngine::new(
            &idx,
            &w,
            EngineConfig::default(),
            ServeConfig { shards: 1, ..ServeConfig::default() },
        );
        // Hammer one query: the first search misses the retrieval cache,
        // the next ~200 hit it and would poison a lifetime mean.
        for _ in 0..200 {
            let _ = e.search(UserId(1), "seafood restaurant");
        }
        let budget = SearchBudget { max_queue_depth: Some(0), ..SearchBudget::none() };
        let err = e
            .search_with(UserId(1), "seafood restaurant", budget)
            .expect_err("queue depth 0 sheds");
        assert!(
            err.retry_after >= Duration::from_micros(100),
            "cache-hot shard handed out a useless hint: {:?}",
            err.retry_after
        );
    }

    // ── Flight recorder & health ────────────────────────────────────────

    /// Sharded replay with the flight recorder *and* SLO monitor enabled
    /// stays byte-identical to serial replay at every shard/thread
    /// combination — observation must never perturb results.
    #[test]
    fn sharded_replay_with_recorder_and_monitor_matches_serial() {
        let _guard = pws_obs::test_lock();
        let queries = |u: u32| -> Vec<String> {
            vec![
                format!("seafood restaurant u{u}"),
                format!("restaurant u{u}"),
                format!("seafood restaurant u{u}"),
                format!("sushi restaurant u{u}"),
            ]
        };
        let log = session_log(&queries, 6);
        let serial = replay_serial(&log, EngineConfig::default());
        let idx = index();
        let w = world();
        for shards in [1usize, 3, 8] {
            for threads in [1usize, 4] {
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
                let sharded = replay_round_robin(&e, &log, threads);
                // Poll health mid-replay too: the monitor must also be
                // inert with respect to results.
                let _ = e.health();
                assert_equivalent(
                    &serial,
                    &sharded,
                    &format!("flight on, {shards} shards / {threads} threads"),
                );
            }
        }
    }

    /// Every admitted turn leaves exactly one flight event, and the
    /// event's derived fields (query hash, result-page fingerprint, β,
    /// shard) reconcile exactly against the turn that produced them.
    #[test]
    fn flight_events_reconcile_against_turns() {
        let _guard = pws_obs::test_lock();
        let idx = index();
        let w = world();
        let e = ServingEngine::new(
            &idx,
            &w,
            EngineConfig::default(),
            ServeConfig {
                shards: 3,
                stats_refresh_every: 1,
                flight: FlightConfig::enabled(256),
                ..ServeConfig::default()
            },
        );
        let queries = ["seafood restaurant", "restaurant", "sushi restaurant"];
        let mut expected = Vec::new();
        for u in 0..4u32 {
            for q in queries {
                // Adaptive β: the neutral prior until the query has
                // statistics in the snapshot the search reads.
                let provenance = match e.query_stats(q) {
                    Some(_) => BetaProvenance::Adaptive,
                    None => BetaProvenance::AdaptiveNeutral,
                };
                let turn = e.search(UserId(u), q);
                expected.push((
                    u,
                    e.shard_of(UserId(u)) as u32,
                    pws_obs::event::query_hash(&EngineCore::query_key(q)),
                    pws_obs::event::page_fingerprint(
                        turn.hits.iter().map(|h| (h.doc, h.rank)),
                    ),
                    turn.beta,
                    provenance,
                ));
                let imp = impression_from(&turn, &click_rule(&turn));
                e.observe(&turn, &imp);
            }
        }
        let events = e.flight_events();
        assert_eq!(events.len(), expected.len(), "one event per admitted turn");
        for (user, shard, qh, page, beta, provenance) in expected {
            let ev = events
                .iter()
                .find(|ev| ev.user == user && ev.query_hash == qh)
                .unwrap_or_else(|| panic!("no event for user {user} query hash {qh:#x}"));
            assert_eq!(ev.shard, shard, "event carries its shard");
            assert_eq!(ev.page_fingerprint, page, "fingerprint matches the returned page");
            assert_eq!(ev.degraded, None);
            assert!(ev.total_nanos > 0, "stage timings were recorded");
            assert_eq!(ev.beta().to_bits(), beta.to_bits(), "the β the turn ranked with");
            assert_eq!(ev.beta_provenance, provenance);
        }
        // The on-demand dump round-trips through the PWSFLT1 codec.
        let dump = e.flight_dump(DumpReason::OnDemand).expect("recorder enabled");
        assert_eq!(dump.shard_count, 3);
        assert_eq!(dump.events, events);
        let bytes = pws_obs::flight::encode_flight_dump(&dump);
        let back = pws_obs::flight::decode_flight_dump(&bytes).expect("round-trip");
        assert_eq!(back, dump);
    }

    /// A burst of degraded turns trips the automatic dump: the file
    /// appears in the configured directory, decodes, and records the
    /// degrade reason on its events.
    #[test]
    fn degrade_burst_auto_dumps_a_decodable_flight_file() {
        let _guard = pws_obs::test_lock();
        pws_obs::reset();
        let idx = index();
        let w = world();
        let dir = store_dir("flightdump");
        std::fs::create_dir_all(&dir).expect("dump dir");
        let e = ServingEngine::new(
            &idx,
            &w,
            EngineConfig::default(),
            ServeConfig {
                shards: 1,
                stats_refresh_every: 1,
                flight: FlightConfig {
                    enabled: true,
                    ring_capacity: 64,
                    auto_dump_dir: Some(dir.clone()),
                    auto_dump_burst: 3,
                },
                ..ServeConfig::default()
            },
        );
        // An already-expired budget degrades deterministically at the
        // retrieval checkpoint.
        for u in 0..3u32 {
            let resp = e
                .search_with(UserId(u), "seafood restaurant", SearchBudget::with_deadline_in(Duration::ZERO))
                .expect("no admission limit");
            assert!(resp.degraded.is_some(), "expired budget degrades");
        }
        let files: Vec<PathBuf> = std::fs::read_dir(&dir)
            .expect("read dump dir")
            .map(|f| f.expect("entry").path())
            .collect();
        assert_eq!(files.len(), 1, "exactly one dump after one burst: {files:?}");
        let dump = FlightDump::read_from(&files[0]).expect("auto-dump decodes");
        assert_eq!(dump.reason, DumpReason::DegradeBurst);
        assert_eq!(dump.events.len(), 3);
        assert!(dump
            .events
            .iter()
            .all(|ev| ev.degraded == Some(DegradeReason::DeadlineRetrieval)));
        // Other recorder-enabled tests may run concurrently (global
        // registry), so lower-bound the flight counters.
        let snap = pws_obs::snapshot();
        let count = |name: &str| snap.stage(name).map(|s| s.count).unwrap_or(0);
        assert!(count("serve.flight.recorded") >= 3);
        assert!(count("serve.flight.dump") >= 1);
        assert_eq!(count("serve.flight.dump_error"), 0);
        drop(e);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// With the recorder on, `search_traced` records the very event it
    /// returns inside the trace, and a plain `search` records the same
    /// header for the same turn — one record per query.
    #[test]
    fn search_traced_records_the_event_it_returns() {
        let _guard = pws_obs::test_lock();
        let idx = index();
        let w = world();
        let e = ServingEngine::new(
            &idx,
            &w,
            EngineConfig::default(),
            ServeConfig { shards: 2, flight: FlightConfig::enabled(8), ..ServeConfig::default() },
        );
        let (turn, trace) = e.search_traced(UserId(3), "seafood restaurant");
        let events = e.flight_events();
        assert_eq!(events, vec![trace.event], "the recorded event is the trace's event");
        assert_eq!(trace.event.beta().to_bits(), turn.beta.to_bits());
        assert_eq!(
            trace.event.page_fingerprint,
            pws_obs::event::page_fingerprint(turn.hits.iter().map(|h| (h.doc, h.rank)))
        );
        let plain = e.search(UserId(3), "seafood restaurant");
        let ev = e.flight_events()[1];
        assert_eq!(ev.page_fingerprint, trace.event.page_fingerprint);
        assert_eq!(ev.beta_bits, trace.event.beta_bits);
        assert_eq!(format!("{plain:?}"), format!("{turn:?}"));
    }

    /// A degraded turn's event describes the turn that was served, not
    /// the attempt that was abandoned: β and provenance are the served
    /// turn's, and the retrieval slot holds the retrieval that served
    /// it — for an expired budget, a panic at the concepts checkpoint,
    /// and a lock poisoned at admission.
    #[test]
    fn degraded_events_describe_the_served_turn() {
        let _guard = pws_obs::test_lock();
        quiet_injected_panics();
        let idx = index();
        let w = world();
        let cfg = EngineConfig { blend: BlendStrategy::Fixed(0.25), ..EngineConfig::default() };
        let serve =
            ServeConfig { shards: 1, flight: FlightConfig::enabled(8), ..ServeConfig::default() };
        let cases = [
            (None, SearchBudget::with_deadline_in(Duration::ZERO), DegradeReason::DeadlineRetrieval),
            (Some((FaultStage::Concepts, FaultAction::Panic)), SearchBudget::none(), DegradeReason::Panic),
            (
                Some((FaultStage::Admission, FaultAction::PoisonLock)),
                SearchBudget::none(),
                DegradeReason::LockPoisoned,
            ),
        ];
        for (fault, budget, reason) in cases {
            let mut e = ServingEngine::new(&idx, &w, cfg.clone(), serve.clone());
            if let Some((stage, action)) = fault {
                e = e.with_fault_plan(Arc::new(TargetedPlan { stage, action, query_contains: "boom" }));
            }
            let resp = e
                .search_with(UserId(3), "boom seafood restaurant", budget)
                .expect("degrades, never sheds");
            assert_eq!(resp.degraded, Some(reason));
            assert_eq!(resp.turn.beta, 0.25);
            let events = e.flight_events();
            assert_eq!(events.len(), 1);
            let ev = events[0];
            assert_eq!(ev.degraded, Some(reason));
            assert_eq!(ev.beta().to_bits(), resp.turn.beta.to_bits(), "{reason:?}: served β");
            assert_eq!(ev.beta_provenance, BetaProvenance::Fixed, "{reason:?}");
            assert!(ev.stage_nanos[0] > 0, "{reason:?}: the served retrieval is timed");
            if fault.is_some() {
                // The fault fires again: the trace's event is the served turn's too.
                let (turn, trace) = e.search_traced(UserId(3), "boom seafood restaurant");
                assert_eq!(trace.event.degraded, Some(reason));
                assert_eq!(trace.event.beta().to_bits(), turn.beta.to_bits(), "{reason:?}");
                assert_eq!(trace.event.beta_provenance, BetaProvenance::Fixed);
                assert!(!trace.personalized);
            }
        }
    }

    /// With a capacity-1 store tier the flight events carry the
    /// `store_fault_in` / `store_evict` flags, and the flagged event
    /// counts reconcile exactly with the `serve.store.*` counters.
    #[test]
    fn flight_store_flags_reconcile_with_store_counters() {
        let _guard = pws_obs::test_lock();
        pws_obs::reset();
        let idx = index();
        let w = world();
        let dir = store_dir("flightstore");
        let e = ServingEngine::new(
            &idx,
            &w,
            EngineConfig::default(),
            ServeConfig {
                shards: 1,
                stats_refresh_every: 1,
                flight: FlightConfig::enabled(256),
                store: Some(StoreTierConfig {
                    capacity_per_shard: 1,
                    writeback: false,
                    ..StoreTierConfig::new(&dir)
                }),
                ..ServeConfig::default()
            },
        );
        let queries =
            |u: u32| -> Vec<String> { (0..3).map(|r| format!("restaurant u{u} r{r}")).collect() };
        let log = session_log(&queries, 3);
        replay_round_robin(&e, &log, 1);
        let events = e.flight_events();
        assert_eq!(events.len(), 9);
        let snap = pws_obs::snapshot();
        let count = |name: &str| snap.stage(name).map(|s| s.count).unwrap_or(0);
        let fault_ins = events.iter().filter(|ev| ev.store_fault_in).count() as u64;
        let evicts = events.iter().filter(|ev| ev.store_evict).count() as u64;
        assert_eq!(fault_ins, count("serve.store.fault_in"), "fault-in flags reconcile");
        // Each capacity-overflow turn evicts exactly one user, so the
        // flagged-event count equals the counter.
        assert_eq!(evicts, count("serve.store.evict"), "evict flags reconcile");
        assert!(fault_ins > 0 && evicts > 0, "the scenario actually exercised the tier");
        drop(e);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// `ServingEngine::health()` turns degraded traffic into a
    /// non-healthy verdict on the degraded-rate objective, with evidence
    /// that reconciles against the actual degraded count.
    #[test]
    fn health_report_reconciles_degraded_traffic() {
        let _guard = pws_obs::test_lock();
        pws_obs::reset();
        let idx = index();
        let w = world();
        let e = ServingEngine::new(
            &idx,
            &w,
            EngineConfig::default(),
            ServeConfig { shards: 2, stats_refresh_every: 1, ..ServeConfig::default() },
        );
        // Baseline observation, then a window of traffic where 5 of 20
        // turns degrade (25% ≫ the 1% budget at burn ≥ 10 ⇒ Critical).
        let baseline = e.health();
        assert_eq!(baseline.status, pws_obs::health::HealthStatus::Healthy);
        for u in 0..5u32 {
            for r in 0..3 {
                let _ = e.search(UserId(u), &format!("restaurant u{u} r{r}"));
            }
            let resp = e
                .search_with(UserId(u), "seafood restaurant", SearchBudget::with_deadline_in(Duration::ZERO))
                .expect("not shed");
            assert!(resp.degraded.is_some());
        }
        let report = e.health();
        // The registry is process-global, so concurrently running tests
        // can add turns of their own into this window; assert lower
        // bounds plus the report's internal consistency rather than
        // exact counts (the chaos suite does exact reconciliation in a
        // process it owns).
        assert_ne!(report.status, pws_obs::health::HealthStatus::Healthy);
        let degraded = report
            .objectives
            .iter()
            .find(|o| o.objective == pws_obs::health::Objective::DegradedRate)
            .expect("degraded objective present");
        assert_ne!(degraded.status, pws_obs::health::HealthStatus::Healthy);
        let fast = &degraded.evidence[0];
        assert!(fast.bad >= 5, "evidence counts at least our degraded turns: {fast:?}");
        assert!(fast.total >= 20, "over at least our admitted turns: {fast:?}");
        let rate = fast.bad as f64 / fast.total as f64;
        assert!((fast.burn - rate / fast.budget).abs() < 1e-9, "burn = rate / budget");
    }

    /// The shed-burst path also feeds the auto-dump trigger: with the
    /// burst threshold at 1, a single shed dumps the (possibly empty)
    /// rings rather than waiting for degraded turns.
    #[test]
    fn shed_burst_triggers_auto_dump() {
        let _guard = pws_obs::test_lock();
        let idx = index();
        let w = world();
        let dir = store_dir("sheddump");
        std::fs::create_dir_all(&dir).expect("dump dir");
        let e = ServingEngine::new(
            &idx,
            &w,
            EngineConfig::default(),
            ServeConfig {
                shards: 1,
                stats_refresh_every: 1,
                max_queue_depth: Some(0),
                flight: FlightConfig {
                    enabled: true,
                    ring_capacity: 16,
                    auto_dump_dir: Some(dir.clone()),
                    auto_dump_burst: 1,
                },
                ..ServeConfig::default()
            },
        );
        let err = e
            .search_with(UserId(0), "seafood restaurant", SearchBudget::none())
            .expect_err("depth limit 0 sheds everything");
        assert_eq!(err.shard, 0);
        let files: Vec<PathBuf> = std::fs::read_dir(&dir)
            .expect("read dump dir")
            .map(|f| f.expect("entry").path())
            .collect();
        assert_eq!(files.len(), 1, "one dump for one shed burst: {files:?}");
        let dump = FlightDump::read_from(&files[0]).expect("dump decodes");
        assert_eq!(dump.reason, DumpReason::ShedBurst);
        drop(e);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The 100µs-per-queued-request floor holds *after* the jitter: on a
    /// shard whose uncached turns are near-instant, every hint is at least
    /// the floor times the excess, and the hints still spread.
    #[test]
    fn retry_after_floor_survives_the_jitter() {
        let _guard = pws_obs::test_lock();
        let idx = index();
        let w = world();
        let e = ServingEngine::new(
            &idx,
            &w,
            EngineConfig::default(),
            ServeConfig { shards: 1, ..ServeConfig::default() },
        );
        let shard = &e.shards[0];
        shard.uncached_ewma_nanos.store(1, Ordering::Relaxed);
        for excess in [1u64, 3] {
            let floor = Duration::from_micros(100 * excess);
            let mut distinct = HashSet::new();
            for user in 0..64u32 {
                let hint = e.retry_after(shard, UserId(user), "seafood restaurant", excess - 1, 0);
                assert!(hint >= floor, "excess {excess}, user {user}: {hint:?} below {floor:?}");
                distinct.insert(hint);
            }
            assert!(distinct.len() > 32, "excess {excess}: the floor flattened the spread");
        }
    }

    /// The shed hint carries ±25% deterministic jitter: the same
    /// (user, query) always gets the same hint (replay-stable), the
    /// hint stays inside the [0.75, 1.25]× band around the drain
    /// estimate, and different users get spread-out hints rather than
    /// a lockstep herd.
    #[test]
    fn retry_after_hint_is_jittered_within_bounds_and_replay_stable() {
        let _guard = pws_obs::test_lock();
        let idx = index();
        let w = world();
        let e = ServingEngine::new(
            &idx,
            &w,
            EngineConfig::default(),
            ServeConfig { max_queue_depth: Some(0), ..ServeConfig::default() },
        );
        // No search ever completes (everything sheds), so the drain
        // estimate is the no-history default of 1ms × excess 1.
        let lo = Duration::from_nanos(750_000);
        let hi = Duration::from_nanos(1_250_000);
        let hint = |user: u32, q: &str| -> Duration {
            e.search_with(UserId(user), q, SearchBudget::none())
                .expect_err("depth limit 0 sheds everything")
                .retry_after
        };
        let mut distinct = HashSet::new();
        for user in 0..8u32 {
            let h = hint(user, "seafood restaurant");
            assert!(h >= lo && h <= hi, "user {user}: hint {h:?} outside [{lo:?}, {hi:?}]");
            assert_eq!(h, hint(user, "seafood restaurant"), "hint must be replay-stable");
            distinct.insert(h);
        }
        assert!(distinct.len() > 1, "jitter must spread the herd: {distinct:?}");
        assert_ne!(
            hint(0, "seafood restaurant"),
            hint(0, "sushi restaurant"),
            "jitter is per-query too"
        );
    }

}
