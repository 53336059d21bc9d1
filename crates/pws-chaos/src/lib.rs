//! # pws-chaos — deterministic fault injection for the serving layer
//!
//! The fault-tolerance contract of `pws-serve` ("every query returns a
//! ranked page; personalization is best-effort") is only worth stating
//! if it survives actual faults. This crate is the fault source: a
//! seeded, replay-stable implementation of [`pws_serve::FaultPlan`]
//! that decides — purely from a hash of `(seed, user, query, stage)` —
//! whether a request panics mid-personalization, stalls long enough to
//! blow its deadline budget, or finds its shard's lock poisoned.
//!
//! Determinism is the point. The same [`ChaosSpec`] against the same
//! request stream injects byte-for-byte the same faults, which makes
//! two properties testable that random chaos cannot pin:
//!
//! * **Exact accounting** — every injected fault is visible in the
//!   `serve.*` counter family; the injector's own counts must
//!   reconcile with the engine's.
//! * **Blast-radius isolation** — users the injector never touched
//!   must rank byte-identically to a fault-free run ([`SeededFaultPlan::faulted_users`]
//!   names the touched set).
//!
//! The chaos suite in `tests/chaos.rs` enforces both, plus the
//! headline invariant: 100% of queries return ranked results under
//! chaos — degraded where faulted, never an error, never a panic.
//!
//! `serve_bench --chaos "seed=42,panic=64,delay=16:200us,poison=512"`
//! drives the same injector under concurrent load (see `pws-bench`).

use pws_click::UserId;
use pws_obs::format::splitmix64;
use pws_serve::{FaultAction, FaultPlan, FaultStage};
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Parsed chaos configuration: one 1-in-N rate per fault family.
/// A rate of `0` disables that family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosSpec {
    /// Seed folded into every injection roll; two runs with the same
    /// seed and request stream inject identical faults.
    pub seed: u64,
    /// Panic roughly 1 in this many engine-stage checkpoints
    /// (retrieval / concepts / features) and observe folds.
    pub panic_every: u64,
    /// Sleep [`Self::delay`] at roughly 1 in this many injection sites.
    pub delay_every: u64,
    /// The artificial latency injected by a delay fault.
    pub delay: Duration,
    /// Poison the user shard's lock at roughly 1 in this many
    /// admissions.
    pub poison_every: u64,
    /// Fail roughly 1 in this many store-tier disk operations with a
    /// transient `EIO`, via a [`pws_store::FaultIo`] injected under the
    /// record directory (see [`Self::build_store_io`]). Exercises the
    /// serving tier's writeback retry/backoff machinery rather than
    /// its panic isolation.
    pub storeio_every: u64,
}

impl Default for ChaosSpec {
    /// Everything disabled — an inert plan.
    fn default() -> Self {
        ChaosSpec {
            seed: 0,
            panic_every: 0,
            delay_every: 0,
            delay: Duration::from_micros(200),
            poison_every: 0,
            storeio_every: 0,
        }
    }
}

impl ChaosSpec {
    /// Parse the `serve_bench --chaos` plan syntax: comma-separated
    /// `key=value` fields, all optional.
    ///
    /// * `seed=42` — injection seed (default 0)
    /// * `panic=64` — panic 1-in-64 checkpoints (default off)
    /// * `delay=16:200us` — sleep 200µs at 1-in-16 sites; the duration
    ///   takes `us`, `ms`, or `s` suffixes and defaults to `200us` when
    ///   omitted (`delay=16`)
    /// * `poison=512` — poison the shard lock 1-in-512 admissions
    /// * `storeio=32` — fail 1-in-32 store disk ops with transient
    ///   `EIO` (wire [`Self::build_store_io`] into the store tier)
    ///
    /// ```
    /// let spec = pws_chaos::ChaosSpec::parse("seed=42,panic=64,delay=16:1ms,poison=512")
    ///     .unwrap();
    /// assert_eq!(spec.seed, 42);
    /// assert_eq!(spec.panic_every, 64);
    /// assert_eq!(spec.delay, std::time::Duration::from_millis(1));
    /// assert_eq!(spec.poison_every, 512);
    /// ```
    pub fn parse(text: &str) -> Result<ChaosSpec, String> {
        let mut spec = ChaosSpec::default();
        for field in text.split(',').map(str::trim).filter(|f| !f.is_empty()) {
            let (key, value) = field
                .split_once('=')
                .ok_or_else(|| format!("chaos field {field:?} is not key=value"))?;
            let parse_rate = |v: &str| {
                v.parse::<u64>().map_err(|_| format!("chaos {key}={v:?}: not a number"))
            };
            match key {
                "seed" => spec.seed = parse_rate(value)?,
                "panic" => spec.panic_every = parse_rate(value)?,
                "poison" => spec.poison_every = parse_rate(value)?,
                "storeio" => spec.storeio_every = parse_rate(value)?,
                "delay" => match value.split_once(':') {
                    Some((rate, dur)) => {
                        spec.delay_every = parse_rate(rate)?;
                        spec.delay = parse_duration(dur)?;
                    }
                    None => spec.delay_every = parse_rate(value)?,
                },
                _ => return Err(format!("unknown chaos field {key:?}")),
            }
        }
        Ok(spec)
    }

    /// Build the deterministic injector for this spec.
    pub fn build(self) -> SeededFaultPlan {
        SeededFaultPlan::new(self)
    }

    /// Build the disk-fault injector for this spec's `storeio=` clause:
    /// a [`pws_store::FaultIo`] (seeded with this spec's seed) to pass
    /// as [`pws_serve::StoreTierConfig::io`]. `None` when the clause is
    /// absent — the store tier then runs on the real filesystem.
    pub fn build_store_io(self) -> Option<std::sync::Arc<pws_store::FaultIo>> {
        (self.storeio_every > 0).then(|| {
            std::sync::Arc::new(pws_store::FaultIo::new(pws_store::IoFaultSpec {
                seed: self.seed,
                eio_every: self.storeio_every,
                ..pws_store::IoFaultSpec::default()
            }))
        })
    }
}

/// Parse `200us` / `5ms` / `1s` (bare numbers are nanoseconds).
fn parse_duration(text: &str) -> Result<Duration, String> {
    let (digits, scale) = if let Some(d) = text.strip_suffix("us") {
        (d, 1_000u64)
    } else if let Some(d) = text.strip_suffix("ms") {
        (d, 1_000_000)
    } else if let Some(d) = text.strip_suffix('s') {
        (d, 1_000_000_000)
    } else {
        (text, 1)
    };
    digits
        .parse::<u64>()
        .map(|n| Duration::from_nanos(n.saturating_mul(scale)))
        .map_err(|_| format!("bad duration {text:?} (want e.g. 200us, 5ms, 1s)"))
}

/// Running totals of the faults a [`SeededFaultPlan`] actually emitted.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChaosCounts {
    /// Panics emitted at search-path checkpoints.
    pub search_panics: u64,
    /// Panics emitted inside observe folds.
    pub observe_panics: u64,
    /// Panics emitted at store-tier sites (fault-in / writeback).
    pub store_panics: u64,
    /// Delay faults emitted (any stage).
    pub delays: u64,
    /// Lock poisonings emitted at admission.
    pub poisons: u64,
}

/// The deterministic injector: a pure function of
/// `(seed, user, query, stage)` deciding the fault at each site, plus
/// emission counters so tests can reconcile injected faults against
/// the engine's `serve.*` metrics.
pub struct SeededFaultPlan {
    spec: ChaosSpec,
    search_panics: AtomicU64,
    observe_panics: AtomicU64,
    store_panics: AtomicU64,
    delays: AtomicU64,
    poisons: AtomicU64,
    /// Every user that received at least one fault — the complement is
    /// the set whose results must be byte-identical to a fault-free
    /// run.
    faulted: Mutex<HashSet<u32>>,
}

/// FNV-1a over the little-endian words, then the bytes. Rolls finalize
/// it with SplitMix64: FNV alone mixes the low bits poorly for
/// modulo-style rolls.
fn fnv1a_words(words: &[u64], bytes: &[u8]) -> u64 {
    let mut h = pws_obs::format::Fnv1a64::new();
    for w in words {
        h.write(&w.to_le_bytes());
    }
    h.write(bytes);
    h.finish()
}

/// Per-fault-family salts so the panic / delay / poison rolls at one
/// site are independent.
const SALT_PANIC: u64 = 0x70616e6963; // "panic"
const SALT_DELAY: u64 = 0x64656c6179; // "delay"
const SALT_POISON: u64 = 0x706f69736f6e; // "poison"

fn stage_tag(stage: FaultStage) -> u64 {
    match stage {
        FaultStage::Admission => 1,
        FaultStage::Retrieval => 2,
        FaultStage::Concepts => 3,
        FaultStage::Features => 4,
        FaultStage::Observe => 5,
        FaultStage::FaultIn => 6,
        FaultStage::Writeback => 7,
    }
}

impl SeededFaultPlan {
    /// Build an injector for `spec`.
    pub fn new(spec: ChaosSpec) -> Self {
        SeededFaultPlan {
            spec,
            search_panics: AtomicU64::new(0),
            observe_panics: AtomicU64::new(0),
            store_panics: AtomicU64::new(0),
            delays: AtomicU64::new(0),
            poisons: AtomicU64::new(0),
            faulted: Mutex::new(HashSet::new()),
        }
    }

    /// The spec this injector was built from.
    pub fn spec(&self) -> ChaosSpec {
        self.spec
    }

    /// Emission totals so far.
    pub fn counts(&self) -> ChaosCounts {
        ChaosCounts {
            search_panics: self.search_panics.load(Ordering::Relaxed),
            observe_panics: self.observe_panics.load(Ordering::Relaxed),
            store_panics: self.store_panics.load(Ordering::Relaxed),
            delays: self.delays.load(Ordering::Relaxed),
            poisons: self.poisons.load(Ordering::Relaxed),
        }
    }

    /// Users that received at least one fault so far.
    pub fn faulted_users(&self) -> HashSet<u32> {
        self.faulted.lock().unwrap_or_else(|p| p.into_inner()).clone()
    }

    /// Does the 1-in-`every` roll for `salt` fire at this site?
    fn roll(&self, user: UserId, query: &str, stage: FaultStage, salt: u64, every: u64) -> bool {
        if every == 0 {
            return false;
        }
        let h = splitmix64(fnv1a_words(
            &[self.spec.seed, user.0 as u64, stage_tag(stage), salt],
            query.as_bytes(),
        ));
        h.is_multiple_of(every)
    }

    fn mark(&self, user: UserId, action: FaultAction, stage: FaultStage) -> Option<FaultAction> {
        self.faulted.lock().unwrap_or_else(|p| p.into_inner()).insert(user.0);
        match action {
            FaultAction::Panic => match stage {
                FaultStage::Observe => {
                    self.observe_panics.fetch_add(1, Ordering::Relaxed);
                }
                FaultStage::FaultIn | FaultStage::Writeback => {
                    self.store_panics.fetch_add(1, Ordering::Relaxed);
                }
                _ => {
                    self.search_panics.fetch_add(1, Ordering::Relaxed);
                }
            },
            FaultAction::Delay(_) => {
                self.delays.fetch_add(1, Ordering::Relaxed);
            }
            FaultAction::PoisonLock => {
                self.poisons.fetch_add(1, Ordering::Relaxed);
            }
        }
        Some(action)
    }
}

impl FaultPlan for SeededFaultPlan {
    /// Admission sites roll poison-then-delay; engine checkpoints and
    /// observe folds roll panic-then-delay. At most one fault fires per
    /// site, and the decision depends only on
    /// `(seed, user, query, stage)` — never on timing, thread
    /// interleaving, or how often the site was reached before.
    fn inject(&self, user: UserId, query_text: &str, stage: FaultStage) -> Option<FaultAction> {
        match stage {
            FaultStage::Admission => {
                if self.roll(user, query_text, stage, SALT_POISON, self.spec.poison_every) {
                    return self.mark(user, FaultAction::PoisonLock, stage);
                }
            }
            _ => {
                if self.roll(user, query_text, stage, SALT_PANIC, self.spec.panic_every) {
                    return self.mark(user, FaultAction::Panic, stage);
                }
            }
        }
        if self.roll(user, query_text, stage, SALT_DELAY, self.spec.delay_every) {
            return self.mark(user, FaultAction::Delay(self.spec.delay), stage);
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_full_spec() {
        let spec =
            ChaosSpec::parse("seed=42, panic=64, delay=16:200us, poison=512, storeio=32").unwrap();
        assert_eq!(
            spec,
            ChaosSpec {
                seed: 42,
                panic_every: 64,
                delay_every: 16,
                delay: Duration::from_micros(200),
                poison_every: 512,
                storeio_every: 32,
            }
        );
    }

    #[test]
    fn storeio_clause_builds_a_seeded_fault_io() {
        let spec = ChaosSpec::parse("seed=9,storeio=16").unwrap();
        let io = spec.build_store_io().expect("storeio clause present");
        assert_eq!(io.spec().seed, 9);
        assert_eq!(io.spec().eio_every, 16);
        // Absent clause → real filesystem.
        assert!(ChaosSpec::parse("panic=8").unwrap().build_store_io().is_none());
    }

    #[test]
    fn parse_partial_and_empty_specs() {
        assert_eq!(ChaosSpec::parse("").unwrap(), ChaosSpec::default());
        let spec = ChaosSpec::parse("panic=8").unwrap();
        assert_eq!(spec.panic_every, 8);
        assert_eq!(spec.poison_every, 0);
        // Bare delay rate keeps the default duration.
        let spec = ChaosSpec::parse("delay=4").unwrap();
        assert_eq!(spec.delay_every, 4);
        assert_eq!(spec.delay, Duration::from_micros(200));
        // Duration suffixes.
        assert_eq!(ChaosSpec::parse("delay=1:5ms").unwrap().delay, Duration::from_millis(5));
        assert_eq!(ChaosSpec::parse("delay=1:1s").unwrap().delay, Duration::from_secs(1));
        assert_eq!(ChaosSpec::parse("delay=1:750").unwrap().delay, Duration::from_nanos(750));
    }

    #[test]
    fn parse_rejects_malformed_fields() {
        assert!(ChaosSpec::parse("panic").is_err());
        assert!(ChaosSpec::parse("panic=abc").is_err());
        assert!(ChaosSpec::parse("warp=9").is_err());
        assert!(ChaosSpec::parse("delay=4:fast").is_err());
    }

    #[test]
    fn injection_is_deterministic_and_seed_sensitive() {
        let spec = ChaosSpec::parse("seed=7,panic=4,delay=4,poison=4").unwrap();
        let a = spec.build();
        let b = spec.build();
        let sites: Vec<(u32, &str, FaultStage)> = (0..64u32)
            .flat_map(|u| {
                [
                    (u, "seafood restaurant", FaultStage::Admission),
                    (u, "seafood restaurant", FaultStage::Retrieval),
                    (u, "pizza", FaultStage::Concepts),
                    (u, "pizza", FaultStage::Observe),
                ]
            })
            .collect();
        let run = |plan: &SeededFaultPlan| -> Vec<Option<FaultAction>> {
            sites.iter().map(|&(u, q, s)| plan.inject(UserId(u), q, s)).collect()
        };
        let first = run(&a);
        assert_eq!(first, run(&b), "same seed, same stream → same faults");
        assert!(first.iter().any(Option::is_some), "1-in-4 rates must fire somewhere");
        assert!(first.iter().any(Option::is_none), "…but not everywhere");
        let other = ChaosSpec { seed: 8, ..spec }.build();
        assert_ne!(first, run(&other), "different seed → different faults");
        // Emission counters agree between identical runs.
        assert_eq!(a.counts(), b.counts());
        assert_eq!(a.faulted_users(), b.faulted_users());
    }

    #[test]
    fn disabled_families_never_fire() {
        let plan = ChaosSpec { panic_every: 0, delay_every: 0, poison_every: 0, ..ChaosSpec::default() }
            .build();
        for u in 0..256u32 {
            for stage in [
                FaultStage::Admission,
                FaultStage::Retrieval,
                FaultStage::Concepts,
                FaultStage::Features,
                FaultStage::Observe,
            ] {
                assert_eq!(plan.inject(UserId(u), "any query", stage), None);
            }
        }
        assert_eq!(plan.counts(), ChaosCounts::default());
        assert!(plan.faulted_users().is_empty());
    }

    #[test]
    fn admission_only_poisons_and_checkpoints_only_panic() {
        let plan = ChaosSpec::parse("panic=1,poison=1").unwrap().build();
        assert_eq!(
            plan.inject(UserId(0), "q", FaultStage::Admission),
            Some(FaultAction::PoisonLock)
        );
        for stage in [FaultStage::Retrieval, FaultStage::Concepts, FaultStage::Features,
                      FaultStage::Observe] {
            assert_eq!(plan.inject(UserId(0), "q", stage), Some(FaultAction::Panic));
        }
        let counts = plan.counts();
        assert_eq!(counts.poisons, 1);
        assert_eq!(counts.search_panics, 3);
        assert_eq!(counts.observe_panics, 1);
    }
}
