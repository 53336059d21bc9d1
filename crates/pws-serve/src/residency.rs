//! # Residency — where a user's record lives, and who may write it
//!
//! With a store tier ([`StoreTierConfig`]) each shard's user map is an
//! LRU cache over one `pws-store` record file per user. A user is
//! absent (on disk or never seen), resident clean, or resident
//! dirty@epoch; every transition is a function of [`StoreTier`] — the
//! table is in `docs/ARCHITECTURE.md`, "Store tier".
//!
//! **The gate rule.** A record file is written or removed only while
//! holding that user's write gate, and only forward in epoch:
//! [`StoreTier::persist`] — the only `UserStore::put_state` call site —
//! refuses a snapshot whose dirty epoch is not newer than the gate's,
//! and [`StoreTier::forget`] — the only `UserStore::remove` call site —
//! advances the gate to a fresh epoch, so a snapshot taken before the
//! forget can never bring the record back. Epochs come from one
//! engine-wide counter, so "newer epoch" means "newer state".
//!
//! **Lock order.** Shard user map, then write gate. A gate's critical
//! section never takes a shard lock, so shard-lock holders may block on
//! a gate (eviction does) and never the reverse.
//!
//! **Retries.** [`StoreTier::settle`] is the one place a failed record
//! read or write is classified and counted; the synchronous paths loop
//! on it inline, the writeback daemon re-queues with backoff on it.
//!
//! **Statistics.** The pooled adaptive-β statistics live in one file
//! beside the records: [`StoreTier::open`] loads it once, and
//! [`StoreTier::persist_stats`], its one writer, rewrites it after a
//! snapshot refresh (through the daemon) and on every flush.

use crate::{
    inject_fault, lock_counting, lock_or_recover, shard_index, FaultMetrics, FaultPlan, FaultStage,
    ShardedStats, StoreTierConfig, UserShard,
};
use pws_click::UserId;
use pws_core::UserState;
use pws_obs::format::splitmix64;
use pws_store::{StoreError, UserStore};
use std::collections::{HashMap, HashSet, VecDeque};
use std::ops::ControlFlow;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// One shard's resident users.
pub(crate) type UserMap = HashMap<UserId, ResidentUser>;

/// A user resident in a shard's in-memory map. Without a store tier
/// the map is the whole world (nothing is ever evicted) and the
/// bookkeeping fields stay zero.
#[derive(Default)]
pub(crate) struct ResidentUser {
    /// The user's state as a shared snapshot: a search clones the `Arc`
    /// under the shard lock and runs on it after the lock is released;
    /// an observe publishes a successor by replacing it.
    pub(crate) state: Arc<UserState>,
    /// Engine-wide monotone touch stamp; smallest = least recently used.
    last_touch: u64,
    /// Epoch of the newest unpersisted mutation; `0` = clean (on disk
    /// or never mutated). A write clears it only when it still equals
    /// the epoch that was snapshotted, so a write that raced a newer
    /// mutation can never mark the newer dirt clean.
    dirty_epoch: u64,
}

impl ResidentUser {
    /// A clean resident holding `state` (the storeless import path).
    pub(crate) fn clean(state: UserState) -> Self {
        ResidentUser { state: Arc::new(state), ..ResidentUser::default() }
    }
}

/// The raw outcome of one record read or write: the `catch_unwind` of a
/// store call (fault hooks may panic inside it).
type Attempt<T> = std::thread::Result<Result<T, StoreError>>;

/// The store tier: the `pws-store` directory plus the residency
/// bookkeeping shared by the request paths and the writeback daemon.
pub(crate) struct StoreTier {
    shards: Arc<Vec<UserShard>>,
    stats: Arc<ShardedStats>,
    store: UserStore,
    /// Maximum resident users per shard (≥ 1).
    capacity_per_shard: usize,
    /// Monotone LRU clock; every access stamps the touched user.
    touch: AtomicU64,
    /// Dirty-epoch source; starts at 1 so `0` can mean "clean".
    epoch: AtomicU64,
    // Counter handles: `serve.store.{fault_in, evict, evict_dirty,
    // writeback, stats_write, retry, retry_exhausted, backpressure}`
    // (records loaded; residents evicted; of those, the ones written back
    // first; records / statistics files written; I/O attempts repeated
    // after a transient failure; I/O transient through every attempt;
    // enqueues turned synchronous by the backlog bound), plus the
    // engine's shared `serve.state_io_error` and `serve.lock_recovered`.
    fault_in: Arc<pws_obs::StageMetrics>,
    evict: Arc<pws_obs::StageMetrics>,
    evict_dirty: Arc<pws_obs::StageMetrics>,
    writeback: Arc<pws_obs::StageMetrics>,
    stats_write: Arc<pws_obs::StageMetrics>,
    retry: Arc<pws_obs::StageMetrics>,
    retry_exhausted: Arc<pws_obs::StageMetrics>,
    backpressure: Arc<pws_obs::StageMetrics>,
    io_error: Arc<pws_obs::StageMetrics>,
    lock_recovered: Arc<pws_obs::StageMetrics>,
    // The parts of `serve.residency`, each timed under the shard lock:
    // `serve.residency.{fault_in, evict_writeback}` (the retried record
    // read and decode; writing a dirty eviction victim back).
    fault_in_span: Arc<pws_obs::StageMetrics>,
    evict_writeback_span: Arc<pws_obs::StageMetrics>,
    /// Retry policy (the [`StoreTierConfig`] fields of the same names).
    max_write_retries: u32,
    retry_backoff: Duration,
    retry_backoff_cap: Duration,
    max_backlog: usize,
    /// `Some` iff the background writeback daemon is configured.
    queue: Option<WritebackQueue>,
    /// Per-user write gates, each guarding the newest epoch already
    /// written (or forgotten) for that user; see the module docs.
    /// Gates are tiny and never removed — one per user ever persisted.
    write_gates: Mutex<HashMap<UserId, Arc<Mutex<u64>>>>,
    /// Held across a statistics write's encode and put, so the write
    /// that encodes later also lands later. Guards whether this process
    /// may write the statistics file at all: `false` once an unreadable
    /// file could not be moved aside at open (see [`Self::load_stats`]).
    stats_gate: Mutex<bool>,
}

/// The writeback daemon's work queue: users with unpersisted mutations
/// and the statistics file, deduplicated (a hot user, or the file, is
/// queued at most once — the daemon writes the *current* state when it
/// gets there). Items re-queued after a transient write failure carry a
/// `due` time; the daemon sleeps until the earliest one.
struct WritebackQueue {
    pending: Mutex<WritebackState>,
    cond: Condvar,
}

#[derive(Default)]
struct WritebackState {
    queue: VecDeque<WritebackItem>,
    enqueued: HashSet<Job>,
    shutdown: bool,
}

impl WritebackState {
    /// Queued user writes (what [`StoreTierConfig::max_backlog`] bounds).
    fn users(&self) -> usize {
        self.queue.len() - usize::from(self.enqueued.contains(&Job::Stats))
    }
}

/// What one writeback writes: a user's record or the statistics file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Job {
    User(UserId),
    Stats,
}

/// One unit of writeback work: what to write, how many attempts already
/// failed, and when it becomes runnable (`None` = now).
struct WritebackItem {
    job: Job,
    attempt: u32,
    due: Option<Instant>,
}

/// One retry's backoff: a capped-decorrelated delay in
/// `[base, min(cap, base·2^attempt)]`, drawn from a hash of
/// `(job, attempt)` — two hot users backing off from the same sick
/// disk spread out, and a replayed run backs off identically.
fn retry_backoff_delay(base: Duration, cap: Duration, job: Job, attempt: u32) -> Duration {
    let base_n = (base.as_nanos() as u64).max(1);
    let cap_n = (cap.as_nanos() as u64).max(base_n);
    let ceil = base_n.saturating_mul(1u64 << attempt.min(16)).clamp(base_n, cap_n);
    let key = if let Job::User(user) = job { u64::from(user.0) } else { u64::MAX };
    let h = splitmix64(splitmix64(key) ^ (attempt as u64));
    Duration::from_nanos(base_n + h % (ceil - base_n + 1))
}

impl StoreTier {
    /// Open the tier over `cfg.dir`, load its statistics file and, with
    /// [`StoreTierConfig::writeback`], spawn its daemon. The returned
    /// guard must outlive every request.
    pub(crate) fn open(
        cfg: &StoreTierConfig,
        shards: Arc<Vec<UserShard>>,
        stats: Arc<ShardedStats>,
        fault: &FaultMetrics,
    ) -> (Arc<StoreTier>, StoreShutdown) {
        let tier = Arc::new(StoreTier {
            shards,
            stats,
            store: match &cfg.io {
                Some(io) => UserStore::open_with_io(&cfg.dir, io.clone()),
                None => UserStore::open(&cfg.dir),
            }
            .expect("store tier: cannot open/create its directory"),
            capacity_per_shard: cfg.capacity_per_shard.max(1),
            touch: AtomicU64::new(0),
            epoch: AtomicU64::new(1),
            fault_in: pws_obs::stage("serve.store.fault_in"),
            evict: pws_obs::stage("serve.store.evict"),
            evict_dirty: pws_obs::stage("serve.store.evict_dirty"),
            writeback: pws_obs::stage("serve.store.writeback"),
            stats_write: pws_obs::stage("serve.store.stats_write"),
            io_error: fault.state_io_error.clone(),
            lock_recovered: fault.lock_recovered.clone(),
            retry: pws_obs::stage("serve.store.retry"),
            retry_exhausted: pws_obs::stage("serve.store.retry_exhausted"),
            backpressure: pws_obs::stage("serve.store.backpressure"),
            fault_in_span: pws_obs::stage("serve.residency.fault_in"),
            evict_writeback_span: pws_obs::stage("serve.residency.evict_writeback"),
            max_write_retries: cfg.max_write_retries.max(1),
            retry_backoff: cfg.retry_backoff,
            retry_backoff_cap: cfg.retry_backoff_cap.max(cfg.retry_backoff),
            max_backlog: cfg.max_backlog.max(1),
            queue: cfg.writeback.then(|| WritebackQueue {
                pending: Mutex::new(WritebackState::default()),
                cond: Condvar::new(),
            }),
            write_gates: Mutex::new(HashMap::new()),
            stats_gate: Mutex::new(true),
        });
        tier.load_stats();
        let daemon = tier.queue.is_some().then(|| {
            let tier = tier.clone();
            std::thread::Builder::new()
                .name("pws-store-writeback".into())
                .spawn(move || tier.daemon_loop())
                .expect("spawn writeback daemon")
        });
        (tier.clone(), StoreShutdown { tier, daemon })
    }

    /// Lock `m`, recovering from (and counting) poisoning.
    fn lock<'m, T>(&self, m: &'m Mutex<T>) -> MutexGuard<'m, T> {
        lock_counting(m, &self.lock_recovered)
    }

    fn shard_of(&self, user: UserId) -> &UserShard {
        &self.shards[shard_index(user, self.shards.len())]
    }

    /// The write gate for `user`, created on first use at epoch 0 =
    /// "nothing persisted this process".
    fn user_write_gate(&self, user: UserId) -> Arc<Mutex<u64>> {
        self.lock(&self.write_gates).entry(user).or_default().clone()
    }

    /// Stamp `resident` with a fresh dirty epoch (a mutation landed).
    pub(crate) fn mark_dirty(&self, resident: &mut ResidentUser) {
        resident.dirty_epoch = self.epoch.fetch_add(1, Ordering::Relaxed);
    }

    /// A touched, dirty resident holding imported `state`.
    pub(crate) fn imported(&self, state: UserState) -> ResidentUser {
        let mut resident = ResidentUser::clean(state);
        resident.last_touch = self.touch.fetch_add(1, Ordering::Relaxed);
        self.mark_dirty(&mut resident);
        resident
    }

    /// The one retry rule: account the outcome of the `attempts`-th try
    /// (1-based) at one record read or write. `Continue` = it failed
    /// transiently with attempts left (`serve.store.retry`); `Break` =
    /// done, or gave up with `None` (`serve.state_io_error`, plus
    /// `serve.store.retry_exhausted` when the bound ran out).
    fn settle<T>(&self, outcome: Attempt<T>, attempts: u32) -> ControlFlow<Option<T>> {
        match outcome {
            Ok(Ok(done)) => return ControlFlow::Break(Some(done)),
            Ok(Err(e)) if e.is_transient() => {
                if attempts < self.max_write_retries {
                    self.retry.incr(1);
                    return ControlFlow::Continue(());
                }
                self.retry_exhausted.incr(1);
            }
            // A permanent error, or a (possibly injected) panic.
            Ok(Err(_)) | Err(_) => {}
        }
        self.io_error.incr(1);
        ControlFlow::Break(None)
    }

    /// Bounded inline retry for the synchronous paths (fault-in,
    /// eviction, flush, backpressure): no sleeping — a request or the
    /// shutdown is waiting, and the run must stay deterministic.
    fn retry_inline<T>(&self, mut attempt: impl FnMut() -> Attempt<T>) -> Option<T> {
        let mut attempts = 1;
        loop {
            if let ControlFlow::Break(done) = self.settle(attempt(), attempts) {
                return done;
            }
            attempts += 1;
        }
    }

    /// The one writer: one attempt at putting `state`, snapshotted at
    /// dirty `epoch`, on disk — encoded straight from the snapshot, never
    /// copied — under the user's gate, and only if the gate has not seen
    /// that epoch or a newer one. `true` =
    /// written (`serve.store.writeback`, gate advanced to `epoch`);
    /// `false` = refused as stale, disk untouched. An injected
    /// [`FaultStage::Writeback`] panic is a failed write, never a lost user.
    fn persist(
        &self,
        user: UserId,
        state: &UserState,
        epoch: u64,
        plan: Option<&dyn FaultPlan>,
        query_text: &str,
    ) -> Attempt<bool> {
        let gate = self.user_write_gate(user);
        let mut last_written = self.lock(&gate);
        if *last_written >= epoch {
            return Ok(Ok(false));
        }
        let put = catch_unwind(AssertUnwindSafe(|| {
            inject_fault(plan, user, query_text, FaultStage::Writeback);
            self.store.put_state(user, state)
        }));
        if let Ok(Ok(())) = put {
            *last_written = epoch;
            self.writeback.incr(1);
        }
        put.map(|written| written.map(|()| true))
    }

    /// The one statistics writer: one attempt at writing the statistics
    /// file, encoded in key order straight from the live shards (it
    /// publishes nothing, so a write never moves β). A no-op once
    /// [`Self::load_stats`] closed the gate.
    fn persist_stats(&self) -> Attempt<()> {
        let writable = self.lock(&self.stats_gate);
        if !*writable {
            return Ok(Ok(()));
        }
        let keys = self.stats.keys();
        let put = self.store.put_stats(|emit| self.stats.visit(&keys, emit));
        if put.is_ok() {
            self.stats_write.incr(1);
        }
        Ok(put)
    }

    /// Seed the live statistics from the statistics file, once, at open,
    /// and publish them. A missing file is empty statistics, and so is an
    /// unreadable one (counted by the retry rule). An unreadable file is
    /// moved into quarantine first, so the next statistics write cannot
    /// destroy the only copy; if even that fails, this process writes no
    /// statistics file and the unreadable one stays where it is.
    fn load_stats(&self) {
        let loaded = self.retry_inline(|| Ok(self.store.get_stats()));
        if loaded.is_none() && self.retry_inline(|| Ok(self.store.quarantine_stats())).is_none() {
            *self.lock(&self.stats_gate) = false;
        }
        self.stats.seed(loaded.flatten().unwrap_or_default());
        self.stats.refresh();
    }

    /// Snapshot discipline 1 — under the held shard guard: persist one
    /// resident's snapshot (retrying inline; eviction and flush need the
    /// write done before the guard drops) and clear their dirty mark.
    /// Returns whether the record is now on disk (written here, or already
    /// there at this epoch); on failure the user stays dirty.
    fn writeback_locked(
        &self,
        users: &mut UserMap,
        user: UserId,
        plan: Option<&dyn FaultPlan>,
        query_text: &str,
    ) -> bool {
        let Some((state, epoch)) = users.get(&user).map(|r| (Arc::clone(&r.state), r.dirty_epoch))
        else {
            return false;
        };
        let persisted =
            self.retry_inline(|| self.persist(user, &state, epoch, plan, query_text)).is_some();
        if persisted {
            users.get_mut(&user).expect("checked above").dirty_epoch = 0;
        }
        persisted
    }

    /// Snapshot discipline 2 — the daemon's: take the state snapshot
    /// (an `Arc` clone) and its dirty epoch under the shard lock, encode
    /// and persist with no shard lock held (requests never wait on this
    /// work), then clear the mark only if no newer mutation landed
    /// meanwhile. One attempt; the caller settles it.
    fn writeback_offline(&self, user: UserId) -> Attempt<bool> {
        let shard = self.shard_of(user);
        let snapshot = self
            .lock(&shard.users)
            .get(&user)
            .filter(|r| r.dirty_epoch != 0)
            .map(|r| (Arc::clone(&r.state), r.dirty_epoch));
        let Some((state, epoch)) = snapshot else { return Ok(Ok(false)) };
        let outcome = self.persist(user, &state, epoch, None, "");
        if let Ok(Ok(_)) = outcome {
            let mut users = self.lock(&shard.users);
            if let Some(r) = users.get_mut(&user).filter(|r| r.dirty_epoch == epoch) {
                r.dirty_epoch = 0;
            }
        }
        outcome
    }

    /// Make `user` resident in the (already locked) shard map and stamp
    /// their LRU touch: reuse the resident entry, fault the record in,
    /// or start fresh. Returns whether a record came off disk.
    ///
    /// Fault-in runs under panic isolation and the retry rule: a
    /// corrupt record, an I/O error that outlasts its retries, or an
    /// injected [`FaultStage::FaultIn`] panic costs exactly this user a
    /// fresh profile — never the request, never the shard. The record's
    /// section 7 (empty unless an older writer filled it) is ignored: the
    /// statistics were loaded once, at open.
    pub(crate) fn ensure_resident(
        &self,
        users: &mut UserMap,
        user: UserId,
        plan: Option<&dyn FaultPlan>,
        query_text: &str,
    ) -> bool {
        let last_touch = self.touch.fetch_add(1, Ordering::Relaxed);
        if let Some(r) = users.get_mut(&user) {
            r.last_touch = last_touch;
            return false;
        }
        let record = {
            let _span = self.fault_in_span.span();
            self.retry_inline(|| {
                catch_unwind(AssertUnwindSafe(|| {
                    inject_fault(plan, user, query_text, FaultStage::FaultIn);
                    self.store.get(user)
                }))
            })
            .flatten()
        };
        let faulted_in = record.is_some();
        if faulted_in {
            self.fault_in.incr(1);
        }
        let state = record.map_or_else(UserState::default, |record| record.state);
        users.insert(user, ResidentUser { state: Arc::new(state), last_touch, dirty_epoch: 0 });
        faulted_in
    }

    /// Enforce the shard's resident bound: while over capacity, evict a
    /// user other than `keep` (the one this request is serving) — clean
    /// ones first, least recently used first within each. A clean victim
    /// is dropped with no I/O; only when every other resident is dirty is
    /// the LRU one written back first (`serve.store.evict_dirty`), under
    /// the shard lock. A failed writeback aborts the eviction — the
    /// victim stays resident and dirty, and is retried on the next
    /// request. Residency is invisible to ranking, so the order changes
    /// no result. Returns the evictions.
    pub(crate) fn evict_overflow(
        &self,
        users: &mut UserMap,
        keep: UserId,
        plan: Option<&dyn FaultPlan>,
        query_text: &str,
    ) -> u64 {
        let mut evicted = 0;
        while users.len() > self.capacity_per_shard {
            let victim = users
                .iter()
                .filter(|(id, _)| **id != keep)
                .min_by_key(|(id, r)| (r.dirty_epoch != 0, r.last_touch, id.0))
                .map(|(id, r)| (*id, r.dirty_epoch != 0));
            let Some((victim, dirty)) = victim else { break };
            if dirty {
                let _span = self.evict_writeback_span.span();
                if !self.writeback_locked(users, victim, plan, query_text) {
                    break;
                }
                self.evict_dirty.incr(1);
            }
            users.remove(&victim);
            self.evict.incr(1);
            evicted += 1;
        }
        evicted
    }

    /// Queue a dirty user for the writeback daemon (no-op in synchronous
    /// mode). Never blocks on I/O, with one deliberate exception: when
    /// the backlog is already at [`StoreTierConfig::max_backlog`] (the
    /// daemon is losing to a sick disk) the enqueue counts
    /// `serve.store.backpressure` and this thread writes the user back
    /// itself — dirty state is never dropped, the caller pays.
    pub(crate) fn enqueue_writeback(&self, user: UserId, plan: Option<&dyn FaultPlan>) {
        if !self.enqueue(Job::User(user)) {
            self.backpressure.incr(1);
            self.writeback_locked(&mut self.lock(&self.shard_of(user).users), user, plan, "");
        }
    }

    /// Queue `job` for the daemon unless it is already queued (then the
    /// pending write covers it); a no-op without a daemon. `false` only
    /// for a user write refused by a full backlog: the statistics file,
    /// queued after a snapshot refresh, is at most one job and never
    /// refused.
    pub(crate) fn enqueue(&self, job: Job) -> bool {
        let Some(q) = &self.queue else { return true };
        let mut st = self.lock(&q.pending);
        if st.enqueued.contains(&job) {
            return true; // already queued: this change rides along
        }
        if job != Job::Stats && st.users() >= self.max_backlog {
            return false;
        }
        st.enqueued.insert(job);
        st.queue.push_back(WritebackItem { job, attempt: 0, due: None });
        q.cond.notify_one();
        true
    }

    /// Users currently queued for asynchronous writeback.
    pub(crate) fn backlog(&self) -> usize {
        self.queue.as_ref().map_or(0, |q| self.lock(&q.pending).users())
    }

    /// The one flush ([`crate::ServingEngine::flush_store`] and the
    /// shutdown guard): synchronously persist every dirty resident,
    /// shard by shard under its lock, then the statistics file. Returns
    /// how many residents are now on disk.
    pub(crate) fn flush(&self, plan: Option<&dyn FaultPlan>) -> usize {
        let mut persisted = 0;
        for shard in self.shards.iter() {
            let mut users = self.lock(&shard.users);
            let dirty: Vec<UserId> =
                users.iter().filter(|(_, r)| r.dirty_epoch != 0).map(|(id, _)| *id).collect();
            for user in dirty {
                persisted += usize::from(self.writeback_locked(&mut users, user, plan, ""));
            }
        }
        self.retry_inline(|| self.persist_stats());
        persisted
    }

    /// The one remover: delete `user`'s record under their gate and
    /// advance the gate to a fresh epoch. A daemon write already in
    /// flight is waited out here; any older snapshot is refused by
    /// [`Self::persist`] afterwards. The caller drops the resident copy.
    pub(crate) fn forget(&self, user: UserId) {
        let gate = self.user_write_gate(user);
        let mut last_written = self.lock(&gate);
        if self.store.remove(user).is_err() {
            self.io_error.incr(1);
        }
        *last_written = self.epoch.fetch_add(1, Ordering::Relaxed);
    }

    /// A non-resident user's state straight off disk. An unreadable
    /// record counts `serve.state_io_error` and reads as absent.
    pub(crate) fn stored_state(&self, user: UserId) -> Option<UserState> {
        let record = self.store.get(user).inspect_err(|_| self.io_error.incr(1));
        record.ok().flatten().map(|record| record.state)
    }

    /// Every user with a record on disk.
    pub(crate) fn stored_users(&self) -> Vec<UserId> {
        self.store.users().unwrap_or_default()
    }

    /// The background writeback daemon: pop a runnable job (a dirty user
    /// or the statistics file), write it, repeat. A transiently failing
    /// write is re-queued with a backoff due-time while the retry rule
    /// allows. Shutdown drains the queue (ignoring due times) first, so
    /// every enqueued write lands, or has its failure counted, before the
    /// drop.
    fn daemon_loop(&self) {
        let queue = self.queue.as_ref().expect("daemon runs only with a queue");
        loop {
            let item = {
                let mut st = self.lock(&queue.pending);
                loop {
                    let now = Instant::now();
                    let runnable =
                        |it: &WritebackItem| st.shutdown || it.due.is_none_or(|d| d <= now);
                    if let Some(i) = st.queue.iter().position(runnable) {
                        let it = st.queue.remove(i).expect("position is in bounds");
                        st.enqueued.remove(&it.job);
                        break it;
                    }
                    if st.shutdown {
                        return; // queue fully drained
                    }
                    // Nothing runnable: sleep until the earliest due
                    // time, or indefinitely when the queue is empty.
                    st = match st.queue.iter().filter_map(|it| it.due).min() {
                        Some(due) => queue
                            .cond
                            .wait_timeout(st, due.saturating_duration_since(now))
                            .map_or_else(|p| p.into_inner().0, |(g, _)| g),
                        None => queue.cond.wait(st).unwrap_or_else(|p| p.into_inner()),
                    };
                }
            };
            let attempts = item.attempt + 1;
            let settled = match item.job {
                Job::User(user) => self.settle(self.writeback_offline(user), attempts).is_break(),
                Job::Stats => self.settle(self.persist_stats(), attempts).is_break(),
            };
            if settled {
                continue; // written, clean, or given up (a flush retries)
            }
            let delay =
                retry_backoff_delay(self.retry_backoff, self.retry_backoff_cap, item.job, attempts);
            let mut st = self.lock(&queue.pending);
            // A fresh change may have re-enqueued the job meanwhile;
            // that attempt-0 item already covers this retry.
            if st.enqueued.insert(item.job) {
                let due = Some(Instant::now() + delay);
                st.queue.push_back(WritebackItem { job: item.job, attempt: attempts, due });
                queue.cond.notify_one();
            }
        }
    }
}

/// Clean-shutdown guard for the store tier, dropped with the engine:
/// wake the writeback daemon with the shutdown flag (it drains its
/// queue first), join it, then flush any remaining dirty residents —
/// so a dropped engine has every observed click on disk.
pub(crate) struct StoreShutdown {
    tier: Arc<StoreTier>,
    daemon: Option<std::thread::JoinHandle<()>>,
}

impl Drop for StoreShutdown {
    fn drop(&mut self) {
        if let Some(q) = &self.tier.queue {
            lock_or_recover(&q.pending).0.shutdown = true;
            q.cond.notify_all();
        }
        if let Some(handle) = self.daemon.take() {
            let _ = handle.join();
        }
        self.tier.flush(None);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::{
        assert_equivalent, click_rule, impression_from, index, replay_round_robin, replay_serial,
        session_log, store_dir, world, TargetedPlan,
    };
    use crate::{quiet_injected_panics, FaultAction, ServeConfig, ServingEngine};
    use pws_core::EngineConfig;
    use pws_store::{FsIo, IoError, StoreIo};
    use std::path::{Path, PathBuf};

    // Like the crate-root test module: stage counters are process-wide,
    // so every test that drives an engine holds `pws_obs::test_lock()`.

    /// The headline acceptance test: an evicted-then-faulted-in user
    /// ranks **byte-identically** to an always-resident one, at every
    /// shard/thread combination. Capacity 1 per shard with interleaved
    /// users forces an eviction (dirty writeback) and a fault-in on
    /// nearly every turn; transcripts must still match the storeless
    /// serial engine exactly.
    #[test]
    fn evicted_user_replays_byte_identically_to_always_resident() {
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
        let idx = index();
        let w = world();
        for shards in [1usize, 3, 8] {
            for threads in [1usize, 4] {
                let dir = store_dir(&format!("replay-{shards}-{threads}"));
                let e = ServingEngine::new(
                    &idx,
                    &w,
                    EngineConfig::default(),
                    ServeConfig {
                        shards,
                        stats_refresh_every: 1,
                        store: Some(StoreTierConfig {
                            capacity_per_shard: 1,
                            ..StoreTierConfig::new(&dir)
                        }),
                        ..ServeConfig::default()
                    },
                );
                let replayed = replay_round_robin(&e, &log, threads);
                assert_equivalent(
                    &serial,
                    &replayed,
                    &format!("store tier, {shards} shards / {threads} threads"),
                );
                // Residency is bounded by capacity; identity is not.
                assert!(e.resident_count() <= shards, "capacity 1 per shard exceeded");
                assert_eq!(e.user_count(), 6, "evicted users still counted");
                drop(e);
                let _ = std::fs::remove_dir_all(&dir);
            }
        }
    }

    /// Regression: a background-writeback snapshot taken *before* a
    /// newer evict-time write must not be published *after* it — the
    /// evicted user's on-disk record would silently lose the newer
    /// updates, and with the user no longer resident nobody would ever
    /// rewrite it. The protocol as a unit test, no thread timing: take
    /// the snapshots by hand, move the user's write gate by hand (as a
    /// racing writer would) and drive the one writer, `persist`.
    #[test]
    fn stale_writeback_snapshot_never_clobbers_a_newer_record() {
        let _guard = pws_obs::test_lock();
        let idx = index();
        let w = world();
        pws_obs::reset();
        let dir = store_dir("stale-snapshot");
        let e = ServingEngine::new(
            &idx,
            &w,
            EngineConfig::default(),
            ServeConfig {
                shards: 1,
                stats_refresh_every: 1,
                store: Some(StoreTierConfig { writeback: false, ..StoreTierConfig::new(&dir) }),
                ..ServeConfig::default()
            },
        );
        let user = UserId(1);
        let take_turn = |q: &str| {
            let turn = e.search(user, q);
            let imp = impression_from(&turn, &click_rule(&turn));
            e.observe(&turn, &imp);
        };
        // What the daemon snapshots under the shard lock.
        let snapshot = || {
            let (users, _) = lock_or_recover(&e.shards[0].users);
            users.get(&user).map(|r| (Arc::clone(&r.state), r.dirty_epoch)).expect("resident")
        };
        let dirty_epoch_of = || {
            let (users, _) = lock_or_recover(&e.shards[0].users);
            users.get(&user).map(|r| r.dirty_epoch).unwrap_or(0)
        };
        let written = |attempt: Attempt<bool>| match attempt {
            Ok(Ok(written)) => written,
            _ => panic!("a healthy disk never fails a persist"),
        };
        let tier = e.store.as_ref().unwrap();
        let gate = tier.user_write_gate(user);

        // A dirty user whose gate says a newer write already landed:
        // the snapshot is stale and must be skipped, not published.
        take_turn("seafood restaurant");
        assert_ne!(dirty_epoch_of(), 0, "observe must mark the user dirty");
        *lock_or_recover(gate.as_ref()).0 = u64::MAX;
        let (state, epoch) = snapshot();
        assert!(!written(tier.persist(user, &state, epoch, None, "")), "stale snapshot refused");
        assert!(
            tier.store.get(user).unwrap().is_none(),
            "a skipped writeback must not touch the disk"
        );
        assert!(!written(tier.writeback_offline(user)), "the daemon's discipline skips it too");
        assert_eq!(dirty_epoch_of(), 0, "the persisted-elsewhere mark is cleared");

        // With the gate behind the dirty epoch the same call publishes
        // the record and advances the gate to the written epoch.
        *lock_or_recover(gate.as_ref()).0 = 0;
        take_turn("restaurant");
        let (state, epoch) = snapshot();
        assert!(written(tier.persist(user, &state, epoch, None, "")));
        assert!(tier.store.get(user).unwrap().is_some());
        assert_eq!(*lock_or_recover(gate.as_ref()).0, epoch);

        // Evict-time writes advance the gate too — that is what makes
        // the stale-snapshot check above sound.
        take_turn("sushi restaurant");
        let epoch = dirty_epoch_of();
        assert_eq!(e.flush_store(), 1);
        assert_eq!(
            *lock_or_recover(gate.as_ref()).0,
            epoch,
            "an evict-time write must advance the user's write gate"
        );

        // And so does a forget: a snapshot taken before it is refused
        // after it, so the forgotten record cannot come back.
        take_turn("seafood restaurant");
        let (state, epoch) = snapshot();
        e.forget_user(user);
        assert!(*lock_or_recover(gate.as_ref()).0 > epoch, "forget advances the gate");
        assert!(!written(tier.persist(user, &state, epoch, None, "")), "pre-forget snapshot refused");
        assert!(tier.store.get(user).unwrap().is_none(), "the forgotten record stays gone");
        drop(e);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Exact counter reconciliation under a deterministic single-thread
    /// round-robin: capacity 1, one shard, synchronous writeback. Every
    /// turn after the first evicts (and therefore writes back) the
    /// previous user; every turn on a previously-seen user faults its
    /// record in. T turns over U users ⇒ evict = writeback = T−1 and
    /// fault_in = T−U, exactly.
    #[test]
    fn store_counters_reconcile_exactly() {
        let _guard = pws_obs::test_lock();
        let idx = index();
        let w = world();
        pws_obs::reset();
        let dir = store_dir("counters");
        let users = 3u32;
        let rounds = 4usize;
        let e = ServingEngine::new(
            &idx,
            &w,
            EngineConfig::default(),
            ServeConfig {
                shards: 1,
                stats_refresh_every: 1,
                store: Some(StoreTierConfig {
                    capacity_per_shard: 1,
                    writeback: false,
                    ..StoreTierConfig::new(&dir)
                }),
                ..ServeConfig::default()
            },
        );
        let queries = |u: u32| -> Vec<String> {
            (0..rounds).map(|r| format!("restaurant u{u} r{r}")).collect()
        };
        let log = session_log(&queries, users);
        replay_round_robin(&e, &log, 1);
        let turns = (users as u64) * (rounds as u64);
        let snap = pws_obs::snapshot();
        let count = |name: &str| {
            snap.stages.iter().find(|s| s.name == name).map(|s| s.count).unwrap_or(0)
        };
        assert_eq!(count("serve.store.evict"), turns - 1);
        assert_eq!(count("serve.store.writeback"), turns - 1);
        assert_eq!(count("serve.store.fault_in"), turns - u64::from(users));
        assert_eq!(count("store.write"), turns - 1, "one disk write per writeback");
        assert_eq!(count("serve.state_io_error"), 0);
        drop(e);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Restarting the process (drop the engine, open a new one over the
    /// same directory) resumes replay byte-identically: the shutdown
    /// flush persists every dirty resident, and fault-in restores both
    /// the state and the per-query adaptive-β statistics.
    #[test]
    fn engine_restart_resumes_replay_byte_identically() {
        let _guard = pws_obs::test_lock();
        let queries = |u: u32| -> Vec<String> {
            vec![
                format!("seafood restaurant u{u}"),
                format!("restaurant u{u}"),
                format!("seafood restaurant u{u}"),
                format!("seafood restaurant u{u}"),
            ]
        };
        let log = session_log(&queries, 3);
        let uninterrupted = replay_serial(&log, EngineConfig::default());

        let idx = index();
        let w = world();
        let dir = store_dir("restart");
        let serve_cfg = || ServeConfig {
            shards: 2,
            stats_refresh_every: 1,
            store: Some(StoreTierConfig::new(&dir)),
            ..ServeConfig::default()
        };
        let first_half: Vec<(UserId, Vec<String>)> =
            log.iter().map(|(u, qs)| (*u, qs[..2].to_vec())).collect();
        let second_half: Vec<(UserId, Vec<String>)> =
            log.iter().map(|(u, qs)| (*u, qs[2..].to_vec())).collect();

        let e1 = ServingEngine::new(&idx, &w, EngineConfig::default(), serve_cfg());
        let mut transcripts = replay_round_robin(&e1, &first_half, 1);
        drop(e1); // shutdown guard joins the daemon and flushes dirty users

        let e2 = ServingEngine::new(&idx, &w, EngineConfig::default(), serve_cfg());
        assert_eq!(e2.user_count(), 3, "restart sees the stored users");
        assert_eq!(e2.resident_count(), 0, "nothing resident before the first query");
        for (user, turns) in replay_round_robin(&e2, &second_half, 1) {
            transcripts.entry(user).or_default().extend(turns);
        }
        assert_equivalent(&uninterrupted, &transcripts, "restart mid-replay");
        drop(e2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Regression: a restart took each query's pooled statistics from
    /// whichever record faulted in first, however old. User 3 clicks
    /// "seafood restaurant" once and is flushed; five other users then
    /// click it 30 times and are flushed. After a restart user 3 searches
    /// first: the statistics must be the dropped process's 31 clicks over
    /// 31 impressions, not user 3's 1 over 1, and the turn's β must be the
    /// uninterrupted engine's. The clicks go to a different result each
    /// turn, so the entropies β reads are not zero.
    #[test]
    fn restart_restores_the_pooled_statistics_not_the_first_faulted_record() {
        let _guard = pws_obs::test_lock();
        let idx = index();
        let w = world();
        let query = "seafood restaurant";
        let dir = store_dir("restart-stats");
        let cfg = |store: Option<StoreTierConfig>| ServeConfig {
            shards: 2,
            stats_refresh_every: 1,
            store,
            ..ServeConfig::default()
        };
        let tier = || Some(StoreTierConfig { writeback: false, ..StoreTierConfig::new(&dir) });
        let session = |e: &ServingEngine<'_>| {
            let mut turns = 0usize;
            let mut click = |user: UserId| {
                let turn = e.search(user, query);
                let doc = turn.hits[turns % turn.hits.len()].doc;
                turns += 1;
                e.observe(&turn, &impression_from(&turn, &[doc]));
            };
            click(UserId(3));
            e.flush_store();
            for i in 0..30 {
                click(UserId(10 + i % 5));
            }
            e.flush_store();
        };
        let image = |s: &pws_entropy::QueryStats| {
            format!(
                "{} {} {:?} {:?} {:?}",
                s.impressions(),
                s.clicks(),
                s.url_click_entries(),
                s.concept_click_entries(),
                s.location_click_entries()
            )
        };

        let uninterrupted = ServingEngine::new(&idx, &w, EngineConfig::default(), cfg(None));
        session(&uninterrupted);
        let live = uninterrupted.query_stats(query).expect("observed");
        assert_eq!((live.impressions(), live.clicks()), (31, 31));
        let want = uninterrupted.search(UserId(3), query);
        assert_ne!(want.beta, 0.5, "the spread clicks must move β for this test to bite");

        let dropped = ServingEngine::new(&idx, &w, EngineConfig::default(), cfg(tier()));
        session(&dropped);
        let at_drop = dropped.query_stats(query).expect("observed");
        drop(dropped);
        let restarted = ServingEngine::new(&idx, &w, EngineConfig::default(), cfg(tier()));
        let got = restarted.search(UserId(3), query);
        let restored = restarted.query_stats(query).expect("restored");
        assert_eq!(image(&restored), image(&at_drop), "the dropped process's statistics");
        assert_eq!(image(&restored), image(&live));
        assert_eq!(got.beta.to_bits(), want.beta.to_bits(), "the first turn's β");
        assert_eq!(format!("{got:?}"), format!("{want:?}"));
        drop(restarted);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Eviction takes clean residents first: with one dirty and one clean
    /// resident, a third user evicts the clean one with no disk write,
    /// even though the dirty one is older. Only once every other resident
    /// is dirty is the least recently used of them written back and
    /// evicted (`serve.store.evict_dirty`).
    #[test]
    fn eviction_takes_clean_residents_first() {
        let _guard = pws_obs::test_lock();
        let idx = index();
        let w = world();
        let dir = store_dir("clean-first");
        let e = ServingEngine::new(
            &idx,
            &w,
            EngineConfig::default(),
            ServeConfig {
                shards: 1,
                stats_refresh_every: 1,
                store: Some(StoreTierConfig {
                    capacity_per_shard: 2,
                    writeback: false,
                    ..StoreTierConfig::new(&dir)
                }),
                ..ServeConfig::default()
            },
        );
        let (a, b, c, d) = (UserId(1), UserId(2), UserId(3), UserId(4));
        let count = |name: &str| {
            let snap = pws_obs::snapshot();
            snap.stages.iter().find(|s| s.name == name).map_or(0, |s| s.count)
        };
        let is_resident = |u: UserId| lock_or_recover(&e.shards[0].users).0.contains_key(&u);
        let observe = |u: UserId, q: &str| {
            let turn = e.search(u, q);
            e.observe(&turn, &impression_from(&turn, &click_rule(&turn)));
        };
        pws_obs::reset();
        observe(a, "seafood restaurant"); // A: dirty, least recently used
        let _ = e.search(b, "restaurant"); // B: clean, more recent
        let _ = e.search(c, "sushi restaurant");
        assert!(is_resident(a) && !is_resident(b) && is_resident(c), "the clean one went");
        assert_eq!(count("store.write"), 0, "a clean victim costs no write");
        assert_eq!((count("serve.store.evict"), count("serve.store.evict_dirty")), (1, 0));

        observe(c, "sushi restaurant"); // now every resident is dirty
        let _ = e.search(d, "restaurant");
        assert!(!is_resident(a) && is_resident(c) && is_resident(d), "the LRU dirty one went");
        assert_eq!(count("store.write"), 1, "written back before it was dropped");
        assert_eq!((count("serve.store.evict"), count("serve.store.evict_dirty")), (2, 1));
        let tier = e.store.as_ref().expect("store tier");
        assert!(tier.store.get(a).expect("clean read").is_some(), "A is on disk");
        drop(e);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A search runs on the snapshot it took under the shard lock: while
    /// it is parked, its user is evicted (capacity 1), faulted back in
    /// and folds one more click — and the search still returns the page
    /// the pre-eviction state ranks.
    #[test]
    fn search_on_a_snapshot_survives_its_users_eviction() {
        let _guard = pws_obs::test_lock();
        let idx = index();
        let w = world();
        let dir = store_dir("snapshot-evict");
        let e = ServingEngine::new(
            &idx,
            &w,
            EngineConfig::default(),
            ServeConfig {
                shards: 1,
                stats_refresh_every: 1,
                store: Some(StoreTierConfig {
                    capacity_per_shard: 1,
                    writeback: false,
                    ..StoreTierConfig::new(&dir)
                }),
                ..ServeConfig::default()
            },
        )
        .with_fault_plan(Arc::new(TargetedPlan {
            stage: FaultStage::Retrieval,
            action: FaultAction::Delay(Duration::from_secs(2)),
            query_contains: "parked",
        }));
        let (a, b) = (UserId(1), UserId(2));
        let mut warm = Vec::new();
        for q in ["seafood restaurant", "sushi restaurant"] {
            let turn = e.search(a, q);
            e.observe(&turn, &impression_from(&turn, &click_rule(&turn)));
            warm.push(turn);
        }
        let query = "seafood restaurant parked";
        let expected = format!("{:?}", e.search(a, query).hits);
        let observations = e.user_state(a).expect("resident").observations;
        let is_resident = |u: UserId| lock_or_recover(&e.shards[0].users).0.contains_key(&u);
        std::thread::scope(|s| {
            let parked = s.spawn(|| e.search(a, query));
            while e.queue_depths()[0] != 1 {
                std::thread::yield_now();
            }
            // Give the search time to take its snapshot and reach the delay.
            std::thread::sleep(Duration::from_millis(50));
            let _ = e.search(b, "restaurant");
            assert!(!is_resident(a), "B's search evicts A");
            let turn = &warm[0];
            e.observe(turn, &impression_from(turn, &click_rule(turn)));
            assert!(is_resident(a) && !is_resident(b), "A's observe faults A in and evicts B");
            assert_eq!(e.queue_depths()[0], 1, "the parked search is still in flight");
            let got = parked.join().expect("parked search");
            assert_eq!(format!("{:?}", got.hits), expected, "the snapshot's ranking");
        });
        assert_eq!(e.user_state(a).unwrap().observations, observations + 1, "the fold landed");
        drop(e);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// An injected panic during fault-in costs exactly that user a fresh
    /// profile — the request is still served, the shard still works, and
    /// the failure is counted in `serve.state_io_error`.
    #[test]
    fn fault_in_panic_serves_fresh_profile_and_counts_io_error() {
        let _guard = pws_obs::test_lock();
        quiet_injected_panics();
        let idx = index();
        let w = world();
        pws_obs::reset();
        let dir = store_dir("faultin-panic");
        let e = ServingEngine::new(
            &idx,
            &w,
            EngineConfig::default(),
            ServeConfig {
                shards: 1,
                stats_refresh_every: 1,
                store: Some(StoreTierConfig {
                    capacity_per_shard: 1,
                    ..StoreTierConfig::new(&dir)
                }),
                ..ServeConfig::default()
            },
        )
        .with_fault_plan(Arc::new(TargetedPlan {
            stage: FaultStage::FaultIn,
            action: FaultAction::Panic,
            query_contains: "poisoned-load",
        }));
        // Warm user 0 onto disk, then displace it with user 1.
        let turn = e.search(UserId(0), "seafood restaurant");
        let imp = impression_from(&turn, &click_rule(&turn));
        e.observe(&turn, &imp);
        let _ = e.search(UserId(1), "restaurant");
        // User 0's fault-in panics: served anyway, with a fresh profile.
        let turn = e.search(UserId(0), "restaurant poisoned-load");
        assert!(!turn.hits.is_empty(), "fault-in panic must not lose the query");
        let snap = pws_obs::snapshot();
        let io_errors = snap
            .stages
            .iter()
            .find(|s| s.name == "serve.state_io_error")
            .map(|s| s.count)
            .unwrap_or(0);
        assert_eq!(io_errors, 1);
        drop(e);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// An injected panic during eviction writeback must never lose user
    /// state: the write fails, the victim stays resident (and dirty), and
    /// its profile is byte-identical afterwards.
    #[test]
    fn writeback_panic_keeps_victim_resident_with_state_intact() {
        let _guard = pws_obs::test_lock();
        quiet_injected_panics();
        let idx = index();
        let w = world();
        let dir = store_dir("writeback-panic");
        let e = ServingEngine::new(
            &idx,
            &w,
            EngineConfig::default(),
            ServeConfig {
                shards: 1,
                stats_refresh_every: 1,
                store: Some(StoreTierConfig {
                    capacity_per_shard: 1,
                    writeback: false,
                    ..StoreTierConfig::new(&dir)
                }),
                ..ServeConfig::default()
            },
        )
        .with_fault_plan(Arc::new(TargetedPlan {
            stage: FaultStage::Writeback,
            action: FaultAction::Panic,
            query_contains: "displacer",
        }));
        // Dirty user 0, then try to displace it: the eviction writeback
        // panics, so user 0 must stay resident, state intact.
        let turn = e.search(UserId(0), "seafood restaurant");
        let imp = impression_from(&turn, &click_rule(&turn));
        e.observe(&turn, &imp);
        let weights_before = e.user_state(UserId(0)).expect("resident").model.weights.clone();
        let turn = e.search(UserId(1), "restaurant displacer");
        assert!(!turn.hits.is_empty(), "the displacing query is still served");
        assert_eq!(e.resident_count(), 2, "failed writeback must not evict the victim");
        assert_eq!(
            e.user_state(UserId(0)).expect("still resident").model.weights,
            weights_before,
            "victim state unchanged by the failed writeback"
        );
        drop(e);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// `flush_store` persists every dirty resident on demand, making
    /// cold restarts lossless even without eviction pressure — and the
    /// shutdown guard runs the same function: the same session flushed
    /// explicitly and flushed by the drop writes the same records and
    /// counts `serve.store.writeback` identically.
    #[test]
    fn flush_store_persists_dirty_residents() {
        let _guard = pws_obs::test_lock();
        let idx = index();
        let w = world();
        // One session of four dirty users; returns the engine, unflushed.
        let session = |dir: &PathBuf| {
            let e = ServingEngine::new(
                &idx,
                &w,
                EngineConfig::default(),
                ServeConfig {
                    shards: 2,
                    stats_refresh_every: 1,
                    store: Some(StoreTierConfig { writeback: false, ..StoreTierConfig::new(dir) }),
                    ..ServeConfig::default()
                },
            );
            for u in 0..4u32 {
                let turn = e.search(UserId(u), "seafood restaurant");
                let imp = impression_from(&turn, &click_rule(&turn));
                e.observe(&turn, &imp);
            }
            e
        };
        let writebacks = || pws_obs::snapshot().stage("serve.store.writeback").map_or(0, |s| s.count);
        let records = |dir: &PathBuf| -> Vec<Vec<u8>> {
            let store = UserStore::open(dir).expect("reopen");
            let users = store.users().expect("list");
            users.into_iter().map(|u| pws_store::encode_user_record(&store.get(u).unwrap().unwrap())).collect()
        };

        pws_obs::reset();
        let dir = store_dir("flush");
        let e = session(&dir);
        assert_eq!(e.flush_store(), 4, "all four users were dirty");
        assert_eq!(e.flush_store(), 0, "second flush has nothing to write");
        drop(e);
        assert_eq!(writebacks(), 4, "the drop-time flush found nothing left to write");
        // A storeless engine reports 0 rather than panicking.
        let plain = ServingEngine::new(&idx, &w, EngineConfig::default(), ServeConfig::default());
        assert_eq!(plain.flush_store(), 0);

        pws_obs::reset();
        let dropped_dir = store_dir("flush-by-drop");
        drop(session(&dropped_dir));
        assert_eq!(writebacks(), 4, "drop-time flush counts what the explicit flush counted");
        assert_eq!(records(&dropped_dir), records(&dir), "and writes the same records");
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&dropped_dir);
    }

    /// `forget_user` erases both tiers: the resident entry and the
    /// stored record.
    #[test]
    fn forget_user_erases_resident_and_stored_tiers() {
        let _guard = pws_obs::test_lock();
        let idx = index();
        let w = world();
        let dir = store_dir("forget");
        let e = ServingEngine::new(
            &idx,
            &w,
            EngineConfig::default(),
            ServeConfig {
                shards: 1,
                stats_refresh_every: 1,
                store: Some(StoreTierConfig { writeback: false, ..StoreTierConfig::new(&dir) }),
                ..ServeConfig::default()
            },
        );
        let turn = e.search(UserId(3), "seafood restaurant");
        let imp = impression_from(&turn, &click_rule(&turn));
        e.observe(&turn, &imp);
        assert_eq!(e.flush_store(), 1);
        assert_eq!(e.user_count(), 1);
        e.forget_user(UserId(3));
        assert_eq!(e.user_count(), 0, "both tiers erased");
        assert!(e.user_state(UserId(3)).is_none());
        drop(e);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A [`StoreIo`] over the real filesystem whose first `write` parks
    /// until [`release`](Self::release)d, so a test can hold the
    /// writeback daemon inside a `put` for as long as it likes.
    #[derive(Debug, Default)]
    struct ParkFirstWrite {
        /// `(writes seen, released)`.
        state: Mutex<(u64, bool)>,
        changed: Condvar,
    }

    impl ParkFirstWrite {
        fn wait_until_parked(&self) {
            let mut st = self.state.lock().unwrap();
            while st.0 == 0 {
                st = self.changed.wait(st).unwrap();
            }
        }

        fn release(&self) {
            self.state.lock().unwrap().1 = true;
            self.changed.notify_all();
        }
    }

    impl StoreIo for ParkFirstWrite {
        fn write(&self, path: &Path, bytes: &[u8]) -> Result<(), IoError> {
            let mut st = self.state.lock().unwrap();
            st.0 += 1;
            self.changed.notify_all();
            while !st.1 {
                st = self.changed.wait(st).unwrap();
            }
            drop(st);
            FsIo.write(path, bytes)
        }
        fn read(&self, path: &Path) -> Result<Vec<u8>, IoError> {
            FsIo.read(path)
        }
        fn rename(&self, from: &Path, to: &Path) -> Result<(), IoError> {
            FsIo.rename(from, to)
        }
        fn sync_file(&self, path: &Path) -> Result<(), IoError> {
            FsIo.sync_file(path)
        }
        fn sync_dir(&self, dir: &Path) -> Result<(), IoError> {
            FsIo.sync_dir(dir)
        }
        fn list(&self, dir: &Path) -> Result<Vec<String>, IoError> {
            FsIo.list(dir)
        }
        fn remove(&self, path: &Path) -> Result<(), IoError> {
            FsIo.remove(path)
        }
        fn create_dir_all(&self, dir: &Path) -> Result<(), IoError> {
            FsIo.create_dir_all(dir)
        }
    }

    /// Regression: a forgotten user came back. With the writeback
    /// daemon parked inside the user's `put`, `forget_user` used to
    /// remove the (not yet renamed) record without taking the write
    /// gate; the daemon's write then landed *after* the forget and the
    /// record was on disk again at shutdown. Public API only; the only
    /// waits are on the io wrapper's condvar and on the resident count.
    #[test]
    fn forgotten_user_stays_forgotten_while_a_writeback_is_in_flight() {
        let _guard = pws_obs::test_lock();
        let idx = index();
        let w = world();
        let dir = store_dir("forget-in-flight");
        let io = Arc::new(ParkFirstWrite::default());
        let e = ServingEngine::new(
            &idx,
            &w,
            EngineConfig::default(),
            ServeConfig {
                shards: 1,
                stats_refresh_every: 1,
                store: Some(StoreTierConfig { io: Some(io.clone()), ..StoreTierConfig::new(&dir) }),
                ..ServeConfig::default()
            },
        );
        let user = UserId(7);
        let turn = e.search(user, "seafood restaurant");
        let imp = impression_from(&turn, &click_rule(&turn));
        e.observe(&turn, &imp);
        io.wait_until_parked(); // the daemon is inside `put`, holding the gate
        std::thread::scope(|scope| {
            // The forget has to wait for the in-flight write, so it runs
            // beside the release rather than before it.
            scope.spawn(|| e.forget_user(user));
            while e.resident_count() != 0 {
                std::thread::yield_now();
            }
            io.release();
        });
        drop(e);
        let store = UserStore::open(&dir).expect("reopen");
        assert!(store.get(user).expect("clean read").is_none(), "a forgotten user came back");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A transiently failing record write (injected `ENOSPC` on the
    /// put's temp-file write) is retried and succeeds — counted under
    /// `serve.store.retry`, with zero `serve.state_io_error` — and the
    /// record lands on disk intact.
    #[test]
    fn transient_store_write_is_retried_to_success() {
        let _guard = pws_obs::test_lock();
        let idx = index();
        let w = world();
        pws_obs::reset();
        let dir = store_dir("transient-write");
        // Counted-op timeline: op 0 is the open-time statistics read; op
        // 1 is the first search's record read; op 2 is the flush-time
        // put's temp write — the injected fault.
        let io = Arc::new(pws_store::FaultIo::new(pws_store::IoFaultSpec {
            enospc_at: Some(2),
            ..Default::default()
        }));
        let e = ServingEngine::new(
            &idx,
            &w,
            EngineConfig::default(),
            ServeConfig {
                shards: 1,
                stats_refresh_every: 1,
                store: Some(StoreTierConfig {
                    writeback: false,
                    io: Some(io.clone()),
                    ..StoreTierConfig::new(&dir)
                }),
                ..ServeConfig::default()
            },
        );
        let turn = e.search(UserId(5), "seafood restaurant");
        let imp = impression_from(&turn, &click_rule(&turn));
        e.observe(&turn, &imp);
        assert_eq!(e.flush_store(), 1, "retry must land the record");
        let snap = pws_obs::snapshot();
        let count = |name: &str| {
            snap.stages.iter().find(|s| s.name == name).map(|s| s.count).unwrap_or(0)
        };
        assert_eq!(count("serve.store.retry"), 1);
        assert_eq!(count("serve.store.retry_exhausted"), 0);
        assert_eq!(count("serve.state_io_error"), 0);
        assert_eq!(count("serve.store.writeback"), 1);
        assert_eq!(io.counts().transient_writes, 1, "exactly the injected fault fired");
        // The record that finally landed decodes and is the user's.
        let store = UserStore::open(&dir).expect("reopen");
        assert!(store.get(UserId(5)).expect("clean read").is_some());
        drop(e);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// When the disk *never* recovers, every path gives up after
    /// `max_write_retries` attempts with exact accounting: each
    /// exhaustion counts both `serve.store.retry_exhausted` and
    /// `serve.state_io_error`, and the user stays resident and dirty
    /// rather than being silently forgotten.
    #[test]
    fn exhausted_retries_count_exactly_and_keep_state_resident() {
        let _guard = pws_obs::test_lock();
        let idx = index();
        let w = world();
        pws_obs::reset();
        let dir = store_dir("exhausted");
        // Every counted op fails transiently, forever.
        let io = Arc::new(pws_store::FaultIo::new(pws_store::IoFaultSpec {
            eio_first: u64::MAX,
            ..Default::default()
        }));
        let e = ServingEngine::new(
            &idx,
            &w,
            EngineConfig::default(),
            ServeConfig {
                shards: 1,
                stats_refresh_every: 1,
                store: Some(StoreTierConfig {
                    writeback: false,
                    io: Some(io),
                    max_write_retries: 2,
                    ..StoreTierConfig::new(&dir)
                }),
                ..ServeConfig::default()
            },
        );
        // The open-time statistics read: attempt 1 + retry 1, then
        // exhausted → empty statistics. Fault-in read: the same → fresh
        // profile, never a panic or a lost query.
        let turn = e.search(UserId(9), "seafood restaurant");
        assert!(!turn.hits.is_empty());
        let imp = impression_from(&turn, &click_rule(&turn));
        e.observe(&turn, &imp);
        // Flush: put attempt 1 + retry 1, then exhausted → kept dirty;
        // the statistics file the same.
        assert_eq!(e.flush_store(), 0, "nothing can land on a dead disk");
        // Engine drop flushes again: two more attempt pairs.
        drop(e);
        let snap = pws_obs::snapshot();
        let count = |name: &str| {
            snap.stages.iter().find(|s| s.name == name).map(|s| s.count).unwrap_or(0)
        };
        assert_eq!(
            count("serve.store.retry"),
            6,
            "the two reads and each flush's two writes each retried once"
        );
        assert_eq!(count("serve.store.retry_exhausted"), 6);
        assert_eq!(
            count("serve.state_io_error"),
            count("serve.store.retry_exhausted"),
            "every exhaustion surfaces exactly one io error"
        );
        assert_eq!(count("serve.store.writeback"), 0);
        assert_eq!(count("serve.store.stats_write"), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A full writeback backlog converts the enqueue into a counted
    /// synchronous writeback (`serve.store.backpressure`) instead of
    /// growing without bound — and the synchronously written record is
    /// really on disk.
    #[test]
    fn writeback_backpressure_falls_back_to_synchronous_write() {
        let _guard = pws_obs::test_lock();
        let idx = index();
        let w = world();
        pws_obs::reset();
        let dir = store_dir("backpressure");
        // Op 2 (the daemon's first put write, after the open-time
        // statistics read and user 1's record read) fails transiently;
        // the 10s backoff parks that retry item in the queue, pinning the
        // backlog at its high-water mark of 1 for the whole test.
        let io = Arc::new(pws_store::FaultIo::new(pws_store::IoFaultSpec {
            enospc_at: Some(2),
            ..Default::default()
        }));
        let e = ServingEngine::new(
            &idx,
            &w,
            EngineConfig::default(),
            ServeConfig {
                shards: 1,
                stats_refresh_every: 1,
                store: Some(StoreTierConfig {
                    io: Some(io),
                    max_backlog: 1,
                    retry_backoff: Duration::from_secs(10),
                    retry_backoff_cap: Duration::from_secs(10),
                    ..StoreTierConfig::new(&dir)
                }),
                ..ServeConfig::default()
            },
        );
        let turn = e.search(UserId(1), "seafood restaurant");
        let imp = impression_from(&turn, &click_rule(&turn));
        e.observe(&turn, &imp);
        // Wait for the daemon to hit the fault and park the retry.
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let snap = pws_obs::snapshot();
            let retried = snap
                .stages
                .iter()
                .any(|s| s.name == "serve.store.retry" && s.count >= 1);
            if retried {
                break;
            }
            assert!(Instant::now() < deadline, "daemon never hit the injected fault");
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(e.writeback_backlog(), 1, "the parked retry holds the only slot");
        // A second user's observe now can't enqueue: backpressure path.
        let turn2 = e.search(UserId(2), "sushi restaurant");
        let imp2 = impression_from(&turn2, &click_rule(&turn2));
        e.observe(&turn2, &imp2);
        let snap = pws_obs::snapshot();
        let count = |name: &str| {
            snap.stages.iter().find(|s| s.name == name).map(|s| s.count).unwrap_or(0)
        };
        assert_eq!(count("serve.store.backpressure"), 1);
        assert!(count("serve.store.writeback") >= 1, "the fallback write is synchronous");
        let store = UserStore::open(&dir).expect("reopen");
        assert!(store.get(UserId(2)).expect("clean read").is_some(), "user 2 written inline");
        // Shutdown drains the parked retry immediately (due ignored)
        // against the now-healthy disk: user 1 lands too.
        drop(e);
        let store = UserStore::open(&dir).expect("reopen");
        assert!(store.get(UserId(1)).expect("clean read").is_some(), "retry drained at drop");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// An export is the user's record plus their statistics: after a
    /// flush, `export_user` returns the record file's sections 1–6, for a
    /// resident user and for one evicted to disk alike, while the file's
    /// section 7 is empty — the statistics are in the statistics file.
    #[test]
    fn export_is_the_stored_record_bytes() {
        let _guard = pws_obs::test_lock();
        let idx = index();
        let w = world();
        let dir = store_dir("export-bytes");
        let e = ServingEngine::new(
            &idx,
            &w,
            EngineConfig::default(),
            ServeConfig {
                shards: 1,
                stats_refresh_every: 1,
                store: Some(StoreTierConfig {
                    capacity_per_shard: 1,
                    writeback: false,
                    ..StoreTierConfig::new(&dir)
                }),
                ..ServeConfig::default()
            },
        );
        let users = [UserId(3), UserId(4)];
        for q in ["seafood restaurant", "restaurant"] {
            for &user in &users {
                let turn = e.search(user, &format!("{q} u{}", user.0));
                let imp = impression_from(&turn, &click_rule(&turn));
                e.observe(&turn, &imp);
            }
        }
        e.flush_store();
        assert_eq!(e.resident_count(), 1, "one of the two users is only on disk");
        let sections = |bytes: &[u8]| -> Vec<Vec<u8>> {
            let parsed = pws_store::STORE_FORMAT.parse(bytes).expect("a valid record");
            parsed.iter().map(|s| s.to_vec()).collect()
        };
        for user in users {
            let file = std::fs::read(dir.join(format!("user-{:08x}.pwsu", user.0))).expect("record");
            let (file, export) = (sections(&file), sections(&e.export_user(user).expect("state")));
            assert_eq!(file[..6], export[..6], "{user:?}: sections 1–6");
            assert_eq!(file[6], 0u32.to_le_bytes(), "{user:?}: the record's section 7 is empty");
            assert_ne!(export[6], file[6], "{user:?}: the export carries their statistics");
        }
        drop(e);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A fresh process loads the statistics file at open, so exporting a
    /// user who is not resident carries their statistics: before any
    /// search, a fresh engine's export equals the dropped engine's. (The
    /// export used to encode only live statistics and came out without
    /// them, so an import elsewhere lost the user's adaptive β.)
    #[test]
    fn export_of_an_unloaded_user_carries_the_loaded_statistics() {
        let _guard = pws_obs::test_lock();
        let idx = index();
        let w = world();
        let dir = store_dir("export-unloaded");
        let cfg = || ServeConfig {
            shards: 2,
            stats_refresh_every: 1,
            store: Some(StoreTierConfig { writeback: false, ..StoreTierConfig::new(&dir) }),
            ..ServeConfig::default()
        };
        let users = [UserId(3), UserId(4)];
        let a = ServingEngine::new(&idx, &w, EngineConfig::default(), cfg());
        for q in ["seafood restaurant", "restaurant", "seafood restaurant"] {
            for &user in &users {
                let turn = a.search(user, &format!("{q} u{}", user.0));
                let imp = impression_from(&turn, &click_rule(&turn));
                a.observe(&turn, &imp);
            }
        }
        a.flush_store();
        let exported: Vec<Vec<u8>> =
            users.iter().map(|&u| a.export_user(u).expect("state")).collect();
        drop(a);
        let b = ServingEngine::new(&idx, &w, EngineConfig::default(), cfg());
        for (user, bytes) in users.into_iter().zip(&exported) {
            let record = pws_store::decode_user_record(bytes).expect("clean export");
            assert!(!record.query_stats.is_empty(), "{user:?}'s export carries statistics");
            assert_eq!(&b.export_user(user).expect("stored state"), bytes, "{user:?}");
        }
        assert_eq!(b.resident_count(), 0, "exporting faults nobody in");
        drop(b);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A record written before the statistics file existed carries its
    /// user's statistics in section 7. Fault-in loads the state and ignores
    /// them, so a directory without a statistics file starts with none.
    #[test]
    fn a_record_with_statistics_faults_in_without_seeding_them() {
        let _guard = pws_obs::test_lock();
        let idx = index();
        let w = world();
        let query = "seafood restaurant";
        let plain = ServingEngine::new(
            &idx,
            &w,
            EngineConfig::default(),
            ServeConfig { shards: 1, stats_refresh_every: 1, ..ServeConfig::default() },
        );
        let turn = plain.search(UserId(3), query);
        plain.observe(&turn, &impression_from(&turn, &click_rule(&turn)));
        let bytes = plain.export_user(UserId(3)).expect("state");
        assert!(!pws_store::decode_user_record(&bytes).expect("record").query_stats.is_empty());
        let dir = store_dir("old-record");
        std::fs::create_dir_all(&dir).expect("store directory");
        std::fs::write(dir.join("user-00000003.pwsu"), &bytes).expect("old record");
        let e = ServingEngine::new(
            &idx,
            &w,
            EngineConfig::default(),
            ServeConfig {
                shards: 1,
                stats_refresh_every: 1,
                store: Some(StoreTierConfig { writeback: false, ..StoreTierConfig::new(&dir) }),
                ..ServeConfig::default()
            },
        );
        let _ = e.search(UserId(3), query);
        assert_eq!(e.user_state(UserId(3)).expect("faulted in").observations, 1);
        assert!(e.query_stats(query).is_none(), "section 7 is not seeded");
        drop(e);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// With a writeback daemon, a snapshot refresh queues one statistics
    /// write: the file lands before any flush, holding the refreshed key.
    #[test]
    fn daemon_writes_the_statistics_file_after_a_refresh() {
        let _guard = pws_obs::test_lock();
        let idx = index();
        let w = world();
        let dir = store_dir("stats-daemon");
        let cfg = ServeConfig {
            shards: 1,
            stats_refresh_every: 1,
            store: Some(StoreTierConfig::new(&dir)),
            ..ServeConfig::default()
        };
        pws_obs::reset();
        let e = ServingEngine::new(&idx, &w, EngineConfig::default(), cfg);
        let turn = e.search(UserId(1), "seafood restaurant");
        e.observe(&turn, &impression_from(&turn, &click_rule(&turn)));
        let deadline = Instant::now() + Duration::from_secs(5);
        while pws_obs::snapshot().stage("serve.store.stats_write").map_or(0, |s| s.count) == 0 {
            assert!(Instant::now() < deadline, "the daemon never wrote the statistics file");
            std::thread::sleep(Duration::from_millis(1));
        }
        let file = std::fs::read(dir.join(pws_store::STATS_FILE)).expect("written");
        let stats = pws_store::decode_stats_file(&file).expect("clean file");
        assert!(stats.contains_key("seafood restaurant"));
        drop(e);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The statistics file is written by every flush and by nothing else
    /// in synchronous mode, counted under `serve.store.stats_write` apart
    /// from the record writes; writing it publishes no refresh, so a
    /// flush never moves β. A file that no longer decodes costs the next
    /// engine its statistics (counted in `serve.state_io_error`), never a
    /// query.
    #[test]
    fn statistics_file_is_written_by_flushes_and_a_corrupt_one_starts_empty() {
        let _guard = pws_obs::test_lock();
        let idx = index();
        let w = world();
        let dir = store_dir("stats-file");
        let cfg = || ServeConfig {
            shards: 2,
            stats_refresh_every: 64,
            store: Some(StoreTierConfig { writeback: false, ..StoreTierConfig::new(&dir) }),
            ..ServeConfig::default()
        };
        let count = |name: &str| pws_obs::snapshot().stage(name).map_or(0, |s| s.count);
        let query = "seafood restaurant";
        pws_obs::reset();
        let e = ServingEngine::new(&idx, &w, EngineConfig::default(), cfg());
        let turn = e.search(UserId(1), query);
        e.observe(&turn, &impression_from(&turn, &click_rule(&turn)));
        assert!(e.query_stats(query).is_none(), "not published before the refresh is due");
        assert_eq!(count("serve.store.stats_write"), 0, "only a flush writes it");
        assert_eq!(e.flush_store(), 1);
        assert_eq!(e.flush_store(), 0);
        assert_eq!(count("serve.store.stats_write"), 2, "every flush writes it");
        assert_eq!(count("serve.store.writeback"), 1, "record writes are counted apart");
        assert!(e.query_stats(query).is_none(), "a flush publishes nothing");
        drop(e);
        assert_eq!(count("serve.store.stats_write"), 3, "and so does the drop");

        let reopened = ServingEngine::new(&idx, &w, EngineConfig::default(), cfg());
        let loaded = reopened.query_stats(query).expect("loaded and published at open");
        assert_eq!((loaded.impressions(), loaded.clicks()), (1, 1));
        drop(reopened);

        let path = dir.join(pws_store::STATS_FILE);
        let mut bytes = std::fs::read(&path).expect("statistics file");
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&path, &bytes).expect("corrupt it");
        pws_obs::reset();
        let e = ServingEngine::new(&idx, &w, EngineConfig::default(), cfg());
        assert_eq!(count("serve.state_io_error"), 1, "the bad file is counted");
        assert!(e.query_stats(query).is_none(), "statistics start empty");
        assert!(!e.search(UserId(1), query).hits.is_empty(), "and queries are served");
        let quarantined = dir.join(pws_store::QUARANTINE_DIR).join(pws_store::STATS_FILE);
        assert_eq!(std::fs::read(quarantined).expect("moved aside"), bytes);
        drop(e);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A statistics file the open cannot read — here, a disk that fails
    /// every read attempt — is never overwritten: it is moved into
    /// quarantine before the first statistics write, byte for byte. If
    /// the move fails as well, the process writes no statistics file and
    /// the old one stays in place.
    #[test]
    fn an_unreadable_statistics_file_survives_the_next_flush() {
        let _guard = pws_obs::test_lock();
        let idx = index();
        let w = world();
        let dir = store_dir("stats-unreadable");
        let cfg = |io: Option<Arc<dyn StoreIo>>| ServeConfig {
            shards: 1,
            stats_refresh_every: 1,
            store: Some(StoreTierConfig {
                writeback: false,
                io,
                max_write_retries: 2,
                ..StoreTierConfig::new(&dir)
            }),
            ..ServeConfig::default()
        };
        let count = |name: &str| pws_obs::snapshot().stage(name).map_or(0, |s| s.count);
        let click = |e: &ServingEngine<'_>, user: u32, query: &str| {
            let turn = e.search(UserId(user), query);
            e.observe(&turn, &impression_from(&turn, &click_rule(&turn)));
        };
        let first = ServingEngine::new(&idx, &w, EngineConfig::default(), cfg(None));
        click(&first, 1, "seafood restaurant");
        drop(first);
        let path = dir.join(pws_store::STATS_FILE);
        let old = std::fs::read(&path).expect("statistics file");

        // Ops 0–1: both read attempts fail; ops 2–3: both attempts at
        // moving the file aside fail too. The file stays, unwritten.
        let spec = pws_store::IoFaultSpec { eio_first: 4, ..Default::default() };
        let io = pws_store::FaultIo::new(spec);
        pws_obs::reset();
        let stuck = ServingEngine::new(&idx, &w, EngineConfig::default(), cfg(Some(Arc::new(io))));
        assert_eq!(count("serve.state_io_error"), 2, "the read and the move gave up");
        click(&stuck, 2, "sushi restaurant");
        assert_eq!(stuck.flush_store(), 1, "records are still written");
        drop(stuck);
        assert_eq!(count("serve.store.stats_write"), 0);
        assert_eq!(std::fs::read(&path).expect("left in place"), old);

        // Ops 0–1 fail the read; the move (op 2) succeeds, and the next
        // flush writes a new file beside the quarantined old one.
        let spec = pws_store::IoFaultSpec { eio_first: 2, ..Default::default() };
        let io = pws_store::FaultIo::new(spec);
        pws_obs::reset();
        let moved = ServingEngine::new(&idx, &w, EngineConfig::default(), cfg(Some(Arc::new(io))));
        assert_eq!(count("serve.state_io_error"), 1, "only the read gave up");
        assert_eq!(count("store.quarantined"), 1);
        click(&moved, 2, "sushi restaurant");
        moved.flush_store();
        assert_eq!(count("serve.store.stats_write"), 1);
        let quarantined = dir.join(pws_store::QUARANTINE_DIR).join(pws_store::STATS_FILE);
        assert_eq!(std::fs::read(quarantined).expect("moved aside"), old);
        let new = pws_store::decode_stats_file(&std::fs::read(&path).expect("rewritten"))
            .expect("clean file");
        assert!(new.contains_key("sushi restaurant") && !new.contains_key("seafood restaurant"));
        drop(moved);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
