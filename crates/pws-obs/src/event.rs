//! Wide flight-recorder events — one compact record per admitted query.
//!
//! A [`FlightEvent`] is the black-box counterpart of the scrutable
//! [`crate::trace::QueryTrace`]: where a trace carries *everything* a
//! turn decided (feature vectors, concepts, per-result rank movement)
//! for one query a caller asks about, a flight event carries a
//! fixed-width digest of *every* admitted query — who, where, how long
//! each stage took, which β was used, whether the cache hit, whether the
//! turn degraded, what the store tier did, and a fingerprint of the
//! result page — cheap enough to append to a lock-free ring
//! unconditionally.
//! When something goes wrong, the rings are dumped into a versioned
//! `PWSFLT1` file (see [`crate::flight`]) and the seconds before the
//! incident can be replayed line by line.
//!
//! The schema is deliberately *fixed-width*: no strings, no vectors of
//! unbounded length. Query text is carried as an FNV-1a hash of the
//! normalized query key, the result page as an order-sensitive hash of
//! `(doc, rank)` pairs, and enumerations as one-byte codes with typed
//! decode.
//!
//! Events are pure observation: the serving layer only copies values it
//! computed anyway, so replay stays byte-identical with the recorder
//! enabled (pinned by the `pws-serve` equivalence suite).

use crate::trace::{BetaProvenance, QueryTrace};

/// Canonical stage-name constants for the search pipeline's emission
/// points. `pws-core` registers its stage handles and stamps its traces
/// with these same constants, so the flight-event schema and the engine
/// can never drift apart.
pub const STAGE_RETRIEVAL: &str = "engine.retrieval";
/// Concept-extraction stage (see [`STAGE_RETRIEVAL`]).
pub const STAGE_CONCEPTS: &str = "engine.concepts";
/// Feature-building stage (see [`STAGE_RETRIEVAL`]).
pub const STAGE_FEATURES: &str = "engine.features";
/// β-decision stage (see [`STAGE_RETRIEVAL`]).
pub const STAGE_BETA: &str = "engine.beta";
/// Re-ranking stage (see [`STAGE_RETRIEVAL`]).
pub const STAGE_RERANK: &str = "engine.rerank";

/// The per-event stage-latency slots, in pipeline order. Index `i` of
/// [`FlightEvent::stage_nanos`] is the summed nanoseconds this turn
/// spent in `SEARCH_STAGES[i]`.
pub const SEARCH_STAGES: [&str; 5] =
    [STAGE_RETRIEVAL, STAGE_CONCEPTS, STAGE_FEATURES, STAGE_BETA, STAGE_RERANK];

/// Short column labels for rendering, index-aligned with
/// [`SEARCH_STAGES`].
pub const SEARCH_STAGE_LABELS: [&str; 5] = ["retr", "conc", "feat", "beta", "rank"];

/// Why a turn was served from the degraded (non-personalized) path, as
/// a one-byte code. Mirrors `pws-serve`'s `DegradeReason` label set
/// (the serving layer converts with an exhaustive match, so adding a
/// reason without a code fails to compile there).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum DegradeCode {
    /// Healthy: the turn was fully personalized.
    None = 0,
    /// Budget expired at the post-retrieval checkpoint.
    DeadlineRetrieval = 1,
    /// Budget expired at the post-concepts checkpoint.
    DeadlineConcepts = 2,
    /// Budget expired at the post-features checkpoint.
    DeadlineFeatures = 3,
    /// A panic inside personalization was isolated to this query.
    Panic = 4,
    /// The shard lock was poisoned; the user was evicted and re-served.
    LockPoisoned = 5,
}

impl DegradeCode {
    /// All codes, for iteration in tests and renderers.
    pub const ALL: [DegradeCode; 6] = [
        DegradeCode::None,
        DegradeCode::DeadlineRetrieval,
        DegradeCode::DeadlineConcepts,
        DegradeCode::DeadlineFeatures,
        DegradeCode::Panic,
        DegradeCode::LockPoisoned,
    ];

    /// The stable reason label (`None` for healthy turns), matching the
    /// `serve.degraded.{label}` counter family and
    /// [`QueryTrace::degraded`].
    pub fn label(self) -> Option<&'static str> {
        match self {
            DegradeCode::None => None,
            DegradeCode::DeadlineRetrieval => Some("deadline_retrieval"),
            DegradeCode::DeadlineConcepts => Some("deadline_concepts"),
            DegradeCode::DeadlineFeatures => Some("deadline_features"),
            DegradeCode::Panic => Some("panic"),
            DegradeCode::LockPoisoned => Some("lock_poisoned"),
        }
    }

    /// Decode a wire byte; `None` for unknown values (a decode error,
    /// not a panic).
    pub fn from_code(code: u8) -> Option<Self> {
        Self::ALL.into_iter().find(|c| *c as u8 == code)
    }

    /// Parse a reason label (the `--degraded` filter of
    /// `pws-trace flight`).
    pub fn from_label(label: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|c| c.label() == Some(label))
    }
}

impl BetaProvenance {
    /// One-byte wire code for flight events.
    pub fn code(self) -> u8 {
        match self {
            BetaProvenance::Mode => 0,
            BetaProvenance::Fixed => 1,
            BetaProvenance::AdaptiveNeutral => 2,
            BetaProvenance::Adaptive => 3,
        }
    }

    /// Decode a wire byte; `None` for unknown values.
    pub fn from_code(code: u8) -> Option<Self> {
        match code {
            0 => Some(BetaProvenance::Mode),
            1 => Some(BetaProvenance::Fixed),
            2 => Some(BetaProvenance::AdaptiveNeutral),
            3 => Some(BetaProvenance::Adaptive),
            _ => None,
        }
    }

    /// Compact label for one-line event rendering.
    pub fn short_label(self) -> &'static str {
        match self {
            BetaProvenance::Mode => "mode",
            BetaProvenance::Fixed => "fixed",
            BetaProvenance::AdaptiveNeutral => "neutral",
            BetaProvenance::Adaptive => "adaptive",
        }
    }
}

/// FNV-1a 64-bit hash of a normalized query key — the hash carried in
/// [`FlightEvent::query_hash`]. Matches the serving layer's
/// deterministic trace-sampling hash, so "which queries were sampled"
/// and "which events belong to this query" agree.
pub fn query_hash(query_key: &str) -> u64 {
    crate::format::fnv1a64(query_key.as_bytes())
}

/// Order-sensitive fingerprint of a result page: FNV-1a 64 over the
/// `(doc, rank)` pairs in page order. Two turns returned the same page
/// iff their fingerprints match (modulo hash collisions); replay
/// divergence localizes to the first differing event.
pub fn page_fingerprint(pairs: impl IntoIterator<Item = (u32, usize)>) -> u64 {
    let mut h = crate::format::Fnv1a64::new();
    for (doc, rank) in pairs {
        h.write(&doc.to_le_bytes());
        h.write(&(rank as u64).to_le_bytes());
    }
    h.finish()
}

/// One admitted query, as the flight recorder saw it. Fixed-width plain
/// data; see the module docs for the design constraints and
/// `docs/FLIGHT_FORMAT.md` for the wire layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightEvent {
    /// The issuing user's id.
    pub user: u32,
    /// Serving shard that handled the request.
    pub shard: u32,
    /// In-flight request depth on that shard at admission.
    pub queue_depth: u64,
    /// FNV-1a 64 of the normalized query key (see [`query_hash`]).
    pub query_hash: u64,
    /// Summed nanoseconds per pipeline stage, slot-aligned with
    /// [`SEARCH_STAGES`].
    pub stage_nanos: [u64; SEARCH_STAGES.len()],
    /// End-to-end request nanoseconds as the serving layer measured it.
    pub total_nanos: u64,
    /// The blend weight β the turn ranked with, as `f64::to_bits`
    /// (bit-exact through the codec).
    pub beta_bits: u64,
    /// How β was determined.
    pub beta_provenance: BetaProvenance,
    /// Whether base retrieval hit the shared cache (`None`: no cache).
    pub cache_hit: Option<bool>,
    /// Degrade reason ([`DegradeCode::None`] for healthy turns).
    pub degraded: DegradeCode,
    /// Whether this request faulted its user in from the store tier.
    pub store_fault_in: bool,
    /// Whether serving this request evicted at least one other user.
    pub store_evict: bool,
    /// Result-page fingerprint (see [`page_fingerprint`]).
    pub page_fingerprint: u64,
}

impl FlightEvent {
    /// An all-zero event (healthy, no stages, β = 0 mode-pinned).
    /// Starting point for builders and tests.
    pub fn empty() -> Self {
        FlightEvent {
            user: 0,
            shard: 0,
            queue_depth: 0,
            query_hash: 0,
            stage_nanos: [0; SEARCH_STAGES.len()],
            total_nanos: 0,
            beta_bits: 0,
            beta_provenance: BetaProvenance::Mode,
            cache_hit: None,
            degraded: DegradeCode::None,
            store_fault_in: false,
            store_evict: false,
            page_fingerprint: 0,
        }
    }

    /// The β value the turn ranked with.
    pub fn beta(&self) -> f64 {
        f64::from_bits(self.beta_bits)
    }

    /// Copy the serving-layer context and engine decisions out of a
    /// filled [`QueryTrace`]. Stage nanoseconds land in their
    /// [`SEARCH_STAGES`] slots (a stage appearing twice sums); trace
    /// stages outside the schema (none today) are ignored. The degrade
    /// code is parsed back from the trace's label, best effort; the
    /// serving layer overwrites it from its typed reason.
    pub fn from_trace(trace: &QueryTrace) -> Self {
        let mut ev = FlightEvent::empty();
        ev.user = trace.user;
        ev.shard = trace.shard.unwrap_or(0) as u32;
        ev.queue_depth = trace.queue_depth.unwrap_or(0);
        ev.total_nanos = trace.total_nanos;
        ev.beta_bits = trace.beta.value.to_bits();
        ev.beta_provenance = trace.beta.provenance;
        ev.cache_hit = trace.cache_hit;
        ev.degraded = trace
            .degraded
            .map(|label| DegradeCode::from_label(label).unwrap_or(DegradeCode::None))
            .unwrap_or(DegradeCode::None);
        for s in &trace.stages {
            if let Some(slot) = SEARCH_STAGES.iter().position(|name| *name == s.stage) {
                ev.stage_nanos[slot] = ev.stage_nanos[slot].saturating_add(s.nanos);
            }
        }
        ev
    }

    /// One-line human rendering (the `pws-trace flight` row format).
    pub fn render(&self) -> String {
        let stages: Vec<String> = SEARCH_STAGE_LABELS
            .iter()
            .zip(self.stage_nanos)
            .map(|(label, nanos)| format!("{label} {}", fmt_compact_nanos(nanos)))
            .collect();
        let cache = match self.cache_hit {
            None => "-",
            Some(true) => "hit",
            Some(false) => "miss",
        };
        let mut store = String::new();
        if self.store_fault_in {
            store.push_str("+fault_in");
        }
        if self.store_evict {
            store.push_str("+evict");
        }
        if store.is_empty() {
            store.push('-');
        }
        format!(
            "user {:<6} shard {:<2} depth {:<3} total {:>8}  [{}]  β {:.3} ({})  \
             cache {:<4} degraded {:<18} store {:<16} q {:016x}  page {:016x}",
            self.user,
            self.shard,
            self.queue_depth,
            fmt_compact_nanos(self.total_nanos),
            stages.join(" "),
            self.beta(),
            self.beta_provenance.short_label(),
            cache,
            self.degraded.label().unwrap_or("-"),
            store,
            self.query_hash,
            self.page_fingerprint,
        )
    }
}

/// Compact duration formatting for fixed-width event rows.
fn fmt_compact_nanos(nanos: u64) -> String {
    if nanos >= 10_000_000_000 {
        format!("{}s", nanos / 1_000_000_000)
    } else if nanos >= 10_000_000 {
        format!("{}ms", nanos / 1_000_000)
    } else if nanos >= 10_000 {
        format!("{}µs", nanos / 1_000)
    } else {
        format!("{nanos}ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::BetaTrace;

    #[test]
    fn degrade_codes_round_trip_and_labels_are_stable() {
        for code in DegradeCode::ALL {
            assert_eq!(DegradeCode::from_code(code as u8), Some(code));
            if let Some(label) = code.label() {
                assert_eq!(DegradeCode::from_label(label), Some(code));
            }
        }
        assert_eq!(DegradeCode::from_code(200), None);
        assert_eq!(DegradeCode::from_label("nonsense"), None);
        assert_eq!(DegradeCode::Panic.label(), Some("panic"));
        assert_eq!(DegradeCode::None.label(), None);
    }

    #[test]
    fn beta_provenance_codes_round_trip() {
        for p in [
            BetaProvenance::Mode,
            BetaProvenance::Fixed,
            BetaProvenance::AdaptiveNeutral,
            BetaProvenance::Adaptive,
        ] {
            assert_eq!(BetaProvenance::from_code(p.code()), Some(p));
        }
        assert_eq!(BetaProvenance::from_code(9), None);
    }

    #[test]
    fn page_fingerprint_is_order_sensitive() {
        let a = page_fingerprint([(1u32, 1usize), (2, 2)]);
        let b = page_fingerprint([(2u32, 1usize), (1, 2)]);
        let c = page_fingerprint([(1u32, 1usize), (2, 2)]);
        assert_eq!(a, c, "same page, same fingerprint");
        assert_ne!(a, b, "swapped docs must fingerprint differently");
        assert_ne!(page_fingerprint([]), a);
    }

    #[test]
    fn from_trace_copies_context_and_sums_stage_slots() {
        let mut t = QueryTrace::new(42, "seafood restaurant");
        t.shard = Some(3);
        t.queue_depth = Some(5);
        t.total_nanos = 900_000;
        t.beta = BetaTrace::pinned(0.25, BetaProvenance::Fixed);
        t.cache_hit = Some(true);
        t.degraded = Some("deadline_concepts");
        t.stage(STAGE_RETRIEVAL, 100);
        t.stage(STAGE_CONCEPTS, 200);
        // A re-entered stage sums into its slot.
        t.stage(STAGE_CONCEPTS, 50);
        t.stage("test.unknown_stage", 999);
        let ev = FlightEvent::from_trace(&t);
        assert_eq!(ev.user, 42);
        assert_eq!(ev.shard, 3);
        assert_eq!(ev.queue_depth, 5);
        assert_eq!(ev.total_nanos, 900_000);
        assert_eq!(ev.beta(), 0.25);
        assert_eq!(ev.beta_provenance, BetaProvenance::Fixed);
        assert_eq!(ev.cache_hit, Some(true));
        assert_eq!(ev.degraded, DegradeCode::DeadlineConcepts);
        assert_eq!(ev.stage_nanos, [100, 250, 0, 0, 0]);
    }

    #[test]
    fn render_is_one_line_with_all_fields() {
        let mut ev = FlightEvent::empty();
        ev.user = 7;
        ev.shard = 2;
        ev.queue_depth = 1;
        ev.total_nanos = 1_234_567;
        ev.beta_bits = 0.62f64.to_bits();
        ev.beta_provenance = BetaProvenance::Adaptive;
        ev.cache_hit = Some(false);
        ev.degraded = DegradeCode::Panic;
        ev.store_fault_in = true;
        ev.stage_nanos = [100_000, 50_000, 10_000, 1_000, 20_000];
        let line = ev.render();
        assert_eq!(line.lines().count(), 1);
        for needle in ["user 7", "shard 2", "β 0.620", "adaptive", "miss", "panic", "+fault_in"] {
            assert!(line.contains(needle), "render missing {needle:?} in: {line}");
        }
    }

    #[test]
    fn compact_nanos_scales() {
        assert_eq!(fmt_compact_nanos(999), "999ns");
        assert_eq!(fmt_compact_nanos(25_000), "25µs");
        assert_eq!(fmt_compact_nanos(25_000_000), "25ms");
        assert_eq!(fmt_compact_nanos(25_000_000_000), "25s");
    }
}
