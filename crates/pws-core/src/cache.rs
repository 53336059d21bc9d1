//! Base-retrieval caching.
//!
//! Base retrieval — BM25 over the shared index — is *user-independent*:
//! every user issuing the same (analyzed) query gets the same candidate
//! pool, and personalization happens strictly downstream of it. That makes
//! the pool safely shareable across users and turns. [`RetrievalCache`] is
//! the hook [`crate::EngineCore`] consults before touching the index; the
//! serving layer provides the production implementation (sharded, bounded
//! LRU with epoch invalidation — see `pws-serve`).
//!
//! The key is the **analyzed token sequence** plus the pool size `k`:
//! surface forms that analyze identically ("Seafood  Restaurant!" vs
//! "seafood restaurant") share one entry, and tokens are produced once per
//! request via [`pws_index::RetrievalBackend::analyze_text`] /
//! [`pws_index::RetrievalBackend::search_tokens`].
//!
//! Correctness contract: `get` must return exactly what `put` stored for
//! the same `(tokens, k)`, and only while the epoch the `put` carried is
//! still the current index epoch. A pool is handed over as
//! `Arc<[SearchHit]>` and handed back as a clone of that `Arc`: a probe
//! copies no hit, least of all under an implementation's lock; the engine
//! clones a hit once, when it enters a request's candidate pool. Budget checkpoints, degraded paths, and chaos faults all
//! still apply to cached turns: the cache only replaces the index scan,
//! never the rest of the pipeline.

use pws_index::SearchHit;
use std::sync::Arc;

/// A shared cache for base-retrieval results, keyed on analyzed query
/// tokens and the requested pool size.
///
/// Implementations must be `Send + Sync`; `get`/`put` take `&self`.
pub trait RetrievalCache: Send + Sync {
    /// The current index epoch: bumped by whoever changes what base
    /// retrieval would return (a segment publish, a parameter change).
    /// Callers read it *before* searching the index on a miss and hand it
    /// to [`RetrievalCache::put`].
    fn epoch(&self) -> u64;

    /// Cached hits for `(tokens, k)`, or `None` on a miss.
    fn get(&self, tokens: &[String], k: usize) -> Option<Arc<[SearchHit]>>;

    /// Store the hits computed for `(tokens, k)` from the index as it was
    /// at `epoch`. If the epoch has moved on since, the hits may describe
    /// an index that is no longer served and must never be returned.
    fn put(&self, tokens: &[String], k: usize, epoch: u64, hits: Arc<[SearchHit]>);
}
