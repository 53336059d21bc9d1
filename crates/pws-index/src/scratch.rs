//! Pooled per-query scratch arenas for the scoring hot paths.
//!
//! Every buffer a query execution needs — the resolved query, the two
//! bounded top-k heaps, the block-decode buffer, the dense accumulator and
//! the copy of its query-only scores, and the ranked candidate lists —
//! lives in a [`SearchScratch`] that is
//! checked out of a [`ScratchPool`] for the duration of one query and
//! returned on drop. At steady state the scoring loop in [`crate::exec`]
//! therefore performs **zero heap allocations**: all growth happens on the
//! first few queries, after which the buffers are only `clear()`ed and
//! refilled (capacity is retained). check.sh enforces this shape with a
//! grep gate forbidding bare `Vec`/`HashMap` `new()` constructors in the
//! hot-loop modules.
//!
//! The pool is shared: every clone of a `SegmentedIndex` shares one pool
//! via `Arc`, and concurrent queries reuse each other's warmed buffers. Pool traffic is
//! observable under the `scratch.*` stages (see the registry table in
//! docs/ARCHITECTURE.md): `scratch.acquired` counts checkouts,
//! `scratch.created` counts cold constructions (acquired − created =
//! reuses, also counted as `engine.retrieval.scratch_reuse`), and
//! `scratch.max_in_use` records the concurrent-checkout high-water mark.

use crate::exec::{restore, HeapEntry, Slot};
use crate::snippet::SnippetScratch;
use std::collections::BinaryHeap;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Free-list capacity: scratches beyond this many idle are dropped
/// instead of pooled, bounding steady-state memory.
const MAX_POOLED: usize = 64;

/// All reusable buffers for one in-flight query: `slots` / `split` /
/// `extended` hold the resolved query and its extension, the rest is the
/// scan's state (see [`crate::exec`]), and `cands` receives the final
/// rankings.
#[derive(Debug, Default)]
pub(crate) struct SearchScratch {
    /// One per present query token, the query's then the extension's, in
    /// accumulation order.
    pub slots: Vec<Slot>,
    /// Number of the query's own slots (the extension's follow).
    pub split: usize,
    /// Whether an extension is ranked too (into the second list).
    pub extended: bool,
    /// Bounded top-k min-heaps over all segments: the query's, and
    /// `query ++ extension`'s.
    pub heaps: [BinaryHeap<HeapEntry>; 2],
    /// Candidates in final rank order, per heap.
    pub cands: [Vec<HeapEntry>; 2],
    /// Block-decode buffer.
    pub buf: Vec<(u32, u32)>,
    /// Dense per-doc score accumulator of the current segment (every cell
    /// [`crate::exec::UNTOUCHED`] between scans: touched cells are restored
    /// after each segment, and when the checkout drops, so also on unwind).
    pub acc: Vec<f64>,
    /// The query's own score of each doc of `touched`'s prefix, in order,
    /// copied from `acc` before an extension adds into it (refilled per
    /// segment; emptied when the checkout drops).
    pub bases: Vec<f64>,
    /// Docs the current segment's scan touched, first-seen order.
    pub touched: Vec<u32>,
    /// Snippet cutting state: the query's marks on each segment's forms,
    /// the per-body form buffers.
    pub snippets: SnippetScratch,
}

/// A shared pool of [`SearchScratch`] arenas.
pub(crate) struct ScratchPool {
    // Boxed so checkout/return move one pointer (the arena itself is a
    // page-sized bundle of Vec headers) and the checked-out arena keeps
    // a stable address for the guard.
    #[allow(clippy::vec_box)]
    free: Mutex<Vec<Box<SearchScratch>>>,
    in_use: AtomicU64,
}

impl std::fmt::Debug for ScratchPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScratchPool").finish_non_exhaustive()
    }
}

impl Default for ScratchPool {
    fn default() -> Self {
        ScratchPool { free: Mutex::new(Vec::with_capacity(8)), in_use: AtomicU64::default() }
    }
}

/// Process-wide handles to the `scratch.*` pool stages, resolved once.
struct PoolStages {
    acquired: Arc<pws_obs::StageMetrics>,
    created: Arc<pws_obs::StageMetrics>,
    max_in_use: Arc<pws_obs::StageMetrics>,
    reuse: Arc<pws_obs::StageMetrics>,
}

fn pool_stages() -> &'static PoolStages {
    static STAGES: OnceLock<PoolStages> = OnceLock::new();
    STAGES.get_or_init(|| PoolStages {
        acquired: pws_obs::stage("scratch.acquired"),
        created: pws_obs::stage("scratch.created"),
        max_in_use: pws_obs::stage("scratch.max_in_use"),
        reuse: pws_obs::stage("engine.retrieval.scratch_reuse"),
    })
}

impl ScratchPool {
    /// Check a scratch arena out of the pool (constructing one only when
    /// the free list is empty). The arena returns to the pool when the
    /// guard drops — including on unwind, so a panicking query never
    /// leaks its buffers, and its accumulator goes back clean.
    pub fn acquire(self: &Arc<Self>) -> PooledScratch {
        let stages = pool_stages();
        stages.acquired.incr(1);
        let reused = self.free.lock().unwrap_or_else(|p| p.into_inner()).pop();
        let scratch = match reused {
            Some(s) => {
                stages.reuse.incr(1);
                s
            }
            None => {
                stages.created.incr(1);
                Box::default()
            }
        };
        let now = self.in_use.fetch_add(1, Ordering::Relaxed) + 1;
        stages.max_in_use.record_value(now);
        PooledScratch { pool: Arc::clone(self), scratch: Some(scratch) }
    }
}

/// RAII checkout of a [`SearchScratch`]; returns it to the pool on drop.
pub(crate) struct PooledScratch {
    pool: Arc<ScratchPool>,
    scratch: Option<Box<SearchScratch>>,
}

impl Deref for PooledScratch {
    type Target = SearchScratch;
    fn deref(&self) -> &SearchScratch {
        self.scratch.as_ref().expect("scratch present until drop")
    }
}

impl DerefMut for PooledScratch {
    fn deref_mut(&mut self) -> &mut SearchScratch {
        self.scratch.as_mut().expect("scratch present until drop")
    }
}

impl Drop for PooledScratch {
    fn drop(&mut self) {
        self.pool.in_use.fetch_sub(1, Ordering::Relaxed);
        if let Some(mut s) = self.scratch.take() {
            // A scan that panicked (say on a damaged block's out-of-range
            // doc id) left scores in the accumulator; the next query would
            // add into them. After a completed scan this is a no-op.
            restore(&mut s.acc, &mut s.touched);
            s.bases.clear();
            let mut free = self.pool.free.lock().unwrap_or_else(|p| p.into_inner());
            if free.len() < MAX_POOLED {
                free.push(s);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::UNTOUCHED;

    #[test]
    fn pool_reuses_returned_scratch() {
        let pool = Arc::new(ScratchPool::default());
        {
            let mut a = pool.acquire();
            a.touched.push(7);
            a.touched.clear();
            let cap = a.touched.capacity();
            assert!(cap > 0);
        }
        // The same arena (with retained capacity) comes back.
        let b = pool.acquire();
        assert!(b.touched.capacity() > 0, "buffer capacity must survive pooling");
        assert!(b.touched.is_empty() || !b.touched.is_empty()); // contents are unspecified
    }

    #[test]
    fn concurrent_checkouts_get_distinct_arenas() {
        let pool = Arc::new(ScratchPool::default());
        let mut a = pool.acquire();
        let mut b = pool.acquire();
        a.touched.push(1);
        b.touched.push(2);
        assert_eq!(a.touched, vec![1]);
        assert_eq!(b.touched, vec![2]);
    }

    #[test]
    fn an_abandoned_scan_returns_a_clean_accumulator() {
        let pool = Arc::new(ScratchPool::default());
        {
            let mut a = pool.acquire();
            a.acc.resize(8, UNTOUCHED);
            a.acc[2] = 1.5;
            a.acc[5] = 0.25;
            a.bases.push(1.5);
            a.touched.extend([2, 5]);
            // Dropped mid-scan, without draining `touched`.
        }
        let b = pool.acquire();
        assert_eq!(b.acc.len(), 8, "the same arena comes back");
        let clean = b.acc.iter().all(|c| c.to_bits() == UNTOUCHED.to_bits());
        assert!(clean, "stale scores: {:?}", b.acc);
        assert!(b.bases.is_empty(), "stale base scores: {:?}", b.bases);
        assert!(b.touched.is_empty());
    }

    #[test]
    fn free_list_is_bounded() {
        let pool = Arc::new(ScratchPool::default());
        let guards: Vec<_> = (0..MAX_POOLED + 10).map(|_| pool.acquire()).collect();
        drop(guards);
        let free = pool.free.lock().unwrap_or_else(|p| p.into_inner());
        assert!(free.len() <= MAX_POOLED);
    }
}
