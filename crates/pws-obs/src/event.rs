//! Wide flight-recorder events — one compact record per served query.
//!
//! A [`FlightEvent`] is the fixed-width record of one search: who,
//! where, how long each stage took, which β was used, whether the cache
//! hit, whether the turn degraded, what the store tier did, and a
//! fingerprint of the result page. The path that serves the query writes
//! it: `EngineCore` fills the stage slots, β and cache hit of the turn it
//! serves (a degraded re-serve included), and the serving layer stamps
//! shard, queue depth, end-to-end time, degrade reason, store flags and
//! the two hashes. It is cheap enough to append to a lock-free ring for
//! every query. A scrutable [`crate::trace::QueryTrace`] is this same
//! event plus the decision detail (concepts, feature vectors, rank
//! movement), built only for a caller that asks for one.
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
//! Events are pure observation: the engine only copies values it
//! computed anyway, so replay stays byte-identical with the recorder
//! enabled (pinned by the `pws-serve` equivalence suite).

use crate::trace::BetaProvenance;

/// Canonical stage-name constants for the search pipeline's emission
/// points. `pws-core` registers its stage handles with these same
/// constants, so the histogram names and the flight-event slots can
/// never drift apart.
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

/// A search stage, as the index of its slot in [`SEARCH_STAGES`] and
/// [`FlightEvent::stage_nanos`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SearchStage {
    /// [`STAGE_RETRIEVAL`].
    Retrieval,
    /// [`STAGE_CONCEPTS`].
    Concepts,
    /// [`STAGE_FEATURES`].
    Features,
    /// [`STAGE_BETA`].
    Beta,
    /// [`STAGE_RERANK`].
    Rerank,
}

/// Why a turn was served from the degraded (non-personalized) path.
///
/// The one degrade vocabulary: `pws-serve` re-exports it for
/// `SearchResponse::degraded`, its label names the
/// `serve.degraded.{label}` counter, and a flight event carries it as a
/// one-byte code (0 = served healthy, see [`FlightEvent::degraded`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum DegradeReason {
    /// The budget deadline passed at the retrieval checkpoint.
    DeadlineRetrieval = 1,
    /// The deadline passed at the concept-extraction checkpoint.
    DeadlineConcepts = 2,
    /// The deadline passed at the feature-build checkpoint.
    DeadlineFeatures = 3,
    /// Personalization panicked; the panic was isolated and the query
    /// re-served from stateless baseline retrieval.
    Panic = 4,
    /// The user shard's state lock was found poisoned at admission; the
    /// user was evicted and the query served statelessly.
    LockPoisoned = 5,
}

impl DegradeReason {
    /// All reasons, in code order.
    pub const ALL: [DegradeReason; 5] = [
        DegradeReason::DeadlineRetrieval,
        DegradeReason::DeadlineConcepts,
        DegradeReason::DeadlineFeatures,
        DegradeReason::Panic,
        DegradeReason::LockPoisoned,
    ];

    /// The stable reason label: the `{label}` segment of the
    /// `serve.degraded.{label}` counter name.
    pub fn label(self) -> &'static str {
        match self {
            DegradeReason::DeadlineRetrieval => "deadline_retrieval",
            DegradeReason::DeadlineConcepts => "deadline_concepts",
            DegradeReason::DeadlineFeatures => "deadline_features",
            DegradeReason::Panic => "panic",
            DegradeReason::LockPoisoned => "lock_poisoned",
        }
    }

    /// Decode a non-zero wire byte; `None` for unknown values (a decode
    /// error, not a panic).
    pub fn from_code(code: u8) -> Option<Self> {
        Self::ALL.into_iter().find(|r| *r as u8 == code)
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
/// [`FlightEvent::query_hash`].
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

/// One served query, as the path that served it recorded it.
/// Fixed-width plain data; see the module docs for the design constraints and
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
    /// Degrade reason (`None` for healthy turns; wire code 0).
    pub degraded: Option<DegradeReason>,
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
            degraded: None,
            store_fault_in: false,
            store_evict: false,
            page_fingerprint: 0,
        }
    }

    /// The β value the turn ranked with.
    pub fn beta(&self) -> f64 {
        f64::from_bits(self.beta_bits)
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
            self.degraded.map_or("-", DegradeReason::label),
            store,
            self.query_hash,
            self.page_fingerprint,
        )
    }

    /// One-line JSON object: a `pws-trace flight --json` row, and the
    /// `event` member of [`crate::trace::QueryTrace::to_json`]. Every
    /// value is a number, a bool or a static label, so nothing needs
    /// escaping.
    pub fn to_json(&self) -> String {
        let stage_nanos: Vec<String> = self.stage_nanos.iter().map(u64::to_string).collect();
        let or_null = |v: Option<String>| v.unwrap_or_else(|| "null".to_string());
        format!(
            "{{\"user\": {}, \"shard\": {}, \"queue_depth\": {}, \
             \"query_hash\": \"{:016x}\", \"stage_nanos\": [{}], \
             \"total_nanos\": {}, \"beta\": {}, \"beta_provenance\": \"{}\", \
             \"cache_hit\": {}, \"degraded\": {}, \"store_fault_in\": {}, \
             \"store_evict\": {}, \"page_fingerprint\": \"{:016x}\"}}",
            self.user,
            self.shard,
            self.queue_depth,
            self.query_hash,
            stage_nanos.join(","),
            self.total_nanos,
            self.beta(),
            self.beta_provenance.short_label(),
            or_null(self.cache_hit.map(|hit| hit.to_string())),
            or_null(self.degraded.map(|d| format!("\"{}\"", d.label()))),
            self.store_fault_in,
            self.store_evict,
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

    #[test]
    fn degrade_codes_round_trip_and_labels_are_stable() {
        let mut labels = std::collections::HashSet::new();
        for reason in DegradeReason::ALL {
            assert_eq!(DegradeReason::from_code(reason as u8), Some(reason));
            assert!(labels.insert(reason.label()), "{reason:?} shares its label");
        }
        assert_eq!(DegradeReason::from_code(200), None);
        assert_eq!(DegradeReason::Panic.label(), "panic");
        // Code 0 is a healthy turn, never a reason.
        assert_eq!(DegradeReason::from_code(0), None);
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
    fn render_is_one_line_with_all_fields() {
        let mut ev = FlightEvent::empty();
        ev.user = 7;
        ev.shard = 2;
        ev.queue_depth = 1;
        ev.total_nanos = 1_234_567;
        ev.beta_bits = 0.62f64.to_bits();
        ev.beta_provenance = BetaProvenance::Adaptive;
        ev.cache_hit = Some(false);
        ev.degraded = Some(DegradeReason::Panic);
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
