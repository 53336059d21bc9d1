//! The per-query scoring hot loop.
//!
//! [`bmw_top_k`] is the one top-k executor behind every search: Block-Max
//! WAND over a [`crate::SegmentedIndex`]'s segments, visited serially in
//! global doc id order with one bounded heap whose threshold θ carries
//! from segment to segment.
//!
//! It runs entirely out of a pooled [`SearchScratch`]
//! (see [`crate::scratch`]): **no allocations at steady state**, enforced
//! by a check.sh grep gate on this module. No snippet is cut here at all —
//! callers cut the snippets of the ranked hits they take.
//!
//! ## Exactness
//!
//! Docs are visited in ascending global id order, so a doc tying θ can
//! never displace an incumbent (ties rank by ascending doc id) and the
//! prune `bound ≤ θ ⇒ skip` is exact. Per-doc accumulation order is the
//! query-token slot order of the exhaustive reference scorer, so scores
//! are bit-identical to it.
//!
//! ## Block-skip pruning ("lazy-deep" cursors)
//!
//! Cursors track a *lower bound* `lb` on their current doc id and only
//! varint-decode a block ("go deep") when a candidate's block-refined
//! bound actually beats θ. While bounds stay under θ, candidate
//! generation walks the block tables alone and skips to the next block
//! boundary / next cursor lower bound — whole blocks are pruned without
//! touching their payloads. This is what makes the executor fast at the
//! 1M-doc tier.

use crate::score::{bm25_term, bm25_term_prenorm, Bm25Params};
use crate::scratch::SearchScratch;
use crate::segment::{BlockMeta, Segment};
use crate::terms::TermTable;
use pws_text::Sym;
use std::cmp::Ordering;

/// Relative slack applied to upper bounds before pruning against the heap
/// threshold. Float sums accumulated in different orders can differ by a few
/// ulps (relative error ≤ ~m·ε ≈ 1e-14 for realistic query lengths m), so a
/// bound computed as a sum of per-term maxima could round *below* a doc's
/// actual accumulated score. Inflating bounds by 1e-9 ≫ m·ε before the
/// `≤ θ` comparison makes a false prune impossible; the cost is only that a
/// vanishingly thin band of docs gets scored unnecessarily.
const UB_SLACK: f64 = 1.0 + 1e-9;

/// Min-heap entry for bounded top-k selection. Ordered so that the heap's
/// maximum (`peek`) is the *worst* kept hit: lower score is "greater", and
/// on score ties the larger doc id is "greater" (final ranking prefers
/// ascending doc ids).
#[derive(Debug, Clone, Copy)]
pub(crate) struct HeapEntry {
    score: f64,
    doc: u32,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.doc == other.doc && self.score == other.score
    }
}

impl Eq for HeapEntry {}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // BM25 scores are always finite; partial_cmp cannot fail here.
        other
            .score
            .partial_cmp(&self.score)
            .unwrap_or(Ordering::Equal)
            .then_with(|| self.doc.cmp(&other.doc))
    }
}

/// Rank order of `(doc, score)` candidates: score descending, ties by
/// ascending doc id. Shared by the executor, the exhaustive reference and
/// structured queries so all three agree on what "top k" means.
pub(crate) fn rank_order(a: &(u32, f64), b: &(u32, f64)) -> Ordering {
    b.1.partial_cmp(&a.1).unwrap_or(Ordering::Equal).then_with(|| a.0.cmp(&b.0))
}

/// One resolved unique query term.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ResolvedTerm {
    /// The term's id in the index's term table.
    pub term: Sym,
    /// Global (cross-segment) idf.
    pub idf: f64,
    /// Occurrence count in the query (duplicates score multiply).
    pub mult: u32,
}

/// Per-term Block-Max WAND cursor state. Plain data (no borrows) so it
/// can live in pooled scratch; block tables and decode buffers are
/// passed in at the call sites. Invariants: `deep` implies the cursor's
/// current doc is exactly `lb` at `bufs[pos]` with `decoded_bi == bi`;
/// otherwise `lb` is a lower bound on the cursor's next doc and
/// `blocks[bi]` (when `bi < blocks_hi`) is the first block whose
/// `last_doc ≥ lb`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct BmwCursor {
    /// Unique-term index (contribution slot).
    term: usize,
    /// This term's absolute range in the segment's flat block table.
    blocks_hi: usize,
    /// Current block (absolute index into the flat table).
    bi: usize,
    /// Lower bound on the current doc id (exact when `deep`).
    lb: u32,
    /// Whether `lb` is the exact current doc (block decoded, positioned).
    deep: bool,
    /// Absolute index of the block held by this cursor's decode buffer.
    decoded_bi: usize,
    /// Position within the decode buffer (meaningful when decoded).
    pos: usize,
    idf: f64,
    mult: f64,
    /// Whole-term upper bound × query multiplicity (this segment).
    ub: f64,
    /// Which block `ub_val` was computed for (cache key).
    ub_bi: usize,
    /// Cached [`BmwCursor::block_ub`] of block `ub_bi`.
    ub_val: f64,
}

impl BmwCursor {
    /// Can this cursor still yield a doc?
    #[inline]
    fn alive(&self) -> bool {
        self.deep || self.bi < self.blocks_hi
    }

    /// Skip whole blocks whose `last_doc < d` (block table only, no
    /// decode). Moving off the current block invalidates `deep`.
    #[inline]
    fn shallow_seek(&mut self, blocks: &[BlockMeta], d: u32) {
        while self.bi < self.blocks_hi && blocks[self.bi].last_doc < d {
            self.bi += 1;
            self.deep = false;
        }
    }

    /// Upper bound of this term's contribution from its current block,
    /// cached per block (the BM25 division is hot when many candidates
    /// share one block).
    #[inline]
    fn block_ub(&mut self, params: Bm25Params, avg_len: f64, blocks: &[BlockMeta]) -> f64 {
        if self.ub_bi != self.bi {
            let b = &blocks[self.bi];
            self.ub_bi = self.bi;
            self.ub_val = bm25_term(params, self.idf, b.max_tf, b.min_dlen, avg_len) * self.mult;
        }
        self.ub_val
    }

    /// Deep-seek to the first posting with doc ≥ `d`; decodes at most
    /// the blocks it lands on. Returns the posting and leaves the cursor
    /// `deep` on it; `None` once exhausted.
    fn seek_doc(
        &mut self,
        seg: &Segment,
        blocks: &[BlockMeta],
        buf: &mut Vec<(u32, u32)>,
        d: u32,
    ) -> Option<(u32, u32)> {
        self.shallow_seek(blocks, d);
        loop {
            if self.bi >= self.blocks_hi {
                self.deep = false;
                return None;
            }
            if self.decoded_bi != self.bi {
                if !seg.decode_block(&blocks[self.bi], buf) || buf.is_empty() {
                    // Undecodable block (unreachable post-checksum):
                    // degrade to "skip block" rather than panicking.
                    self.decoded_bi = usize::MAX;
                    self.bi += 1;
                    self.deep = false;
                    continue;
                }
                self.decoded_bi = self.bi;
                self.pos = 0;
            }
            while self.pos < buf.len() && buf[self.pos].0 < d {
                self.pos += 1;
            }
            if self.pos < buf.len() {
                let (doc, tf) = buf[self.pos];
                self.lb = doc;
                self.deep = true;
                return Some((doc, tf));
            }
            // Block exhausted below d (stale decoded position): move on.
            self.bi = self.decoded_bi + 1;
            self.deep = false;
        }
    }

    /// Step past the current (deep) posting.
    #[inline]
    fn advance_deep(&mut self, buf: &[(u32, u32)]) {
        debug_assert!(self.deep && self.decoded_bi == self.bi);
        self.pos += 1;
        if self.pos < buf.len() {
            self.lb = buf[self.pos].0;
        } else {
            self.bi = self.decoded_bi + 1;
            self.deep = false;
            self.lb = self.lb.saturating_add(1);
        }
    }
}

/// Everything [`bmw_top_k`] needs from the index, by reference.
pub(crate) struct SegContext<'a> {
    pub segments: &'a [Segment],
    pub bases: &'a [u32],
    /// Maps a query term's id to each segment's ordinal.
    pub terms: &'a TermTable,
    pub params: Bm25Params,
    pub avg_len: f64,
    pub k: usize,
}

/// Block-Max WAND top-k over all segments. The resolved query must
/// already be in `scratch.terms` / `scratch.slots`. Results land in
/// `scratch.cands` in final rank order (score desc, doc asc, at most k).
/// Returns the total number of heap insertions (for the
/// `index.snippets_deferred` accounting).
pub(crate) fn bmw_top_k(ctx: &SegContext<'_>, scratch: &mut SearchScratch) -> u64 {
    scratch.heap.clear();
    scratch.pushes = 0;
    for (s, (seg, &base)) in ctx.segments.iter().zip(ctx.bases).enumerate() {
        scan_segment(ctx, s, seg, base, scratch);
    }
    let SearchScratch { heap, cands, .. } = scratch;
    cands.clear();
    cands.extend(heap.drain().map(|e| (e.doc, e.score)));
    cands.sort_unstable_by(rank_order);
    scratch.pushes
}

/// Scan segment `s`, folding survivors into the query's heap; θ carries
/// across segments via the heap.
fn scan_segment(ctx: &SegContext<'_>, s: usize, seg: &Segment, base: u32, scratch: &mut SearchScratch) {
    let SearchScratch {
        terms, slots, heap, cursors, bufs, order, prefix, contrib, acc, touched, pushes, ..
    } = scratch;
    let (terms, slots) = (&**terms, &**slots);
    let (params, avg_len, k) = (ctx.params, ctx.avg_len, ctx.k);
    let blocks = seg.all_blocks();

    cursors.clear();
    for (t, rt) in terms.iter().enumerate() {
        let Some(ord) = ctx.terms.ord(s, rt.term) else { continue };
        let tm = seg.term_meta(ord);
        if tm.df == 0 {
            continue;
        }
        let mult = f64::from(rt.mult);
        let ub = bm25_term(params, rt.idf, tm.max_tf, tm.min_dlen, avg_len) * mult;
        let range = seg.term_block_range(ord);
        cursors.push(BmwCursor {
            term: t,
            blocks_hi: range.end,
            bi: range.start,
            lb: 0,
            deep: false,
            decoded_bi: usize::MAX,
            pos: 0,
            idf: rt.idf,
            mult,
            ub,
            ub_bi: usize::MAX,
            ub_val: 0.0,
        });
    }
    let m = cursors.len();
    if m == 0 {
        return;
    }
    while bufs.len() < m {
        bufs.push(Vec::with_capacity(crate::segment::BLOCK_SIZE));
    }
    let lens = seg.doc_lens();

    // Terms by ascending whole-term upper bound; prefix sums give the
    // non-essential boundary under the current θ.
    order.clear();
    order.extend(0..m);
    order.sort_by(|&a, &b| {
        cursors[a].ub.partial_cmp(&cursors[b].ub).unwrap_or(Ordering::Equal).then(a.cmp(&b))
    });
    prefix.clear();
    prefix.push(0.0);
    for j in 0..m {
        let v = prefix[j] + cursors[order[j]].ub;
        prefix.push(v);
    }
    contrib.clear();
    contrib.resize(terms.len(), 0.0);

    let mut theta = if heap.len() >= k {
        heap.peek().expect("nonempty heap").score
    } else {
        f64::NEG_INFINITY
    };

    // Term-at-a-time run scoring is exact only when unique-term order
    // equals query-token slot order, i.e. the query has no duplicate
    // tokens (terms absent from this segment contribute exact +0.0
    // no-ops). Duplicate-token queries keep the doc-at-a-time run loop.
    let taat = slots.len() == terms.len();
    if taat && acc.len() < lens.len() {
        acc.resize(lens.len(), f64::NAN);
    }
    // Hoisted BM25 pieces: `k1p1` plus the per-doc `k1·norm` table keep
    // the length-normalization division out of the per-posting loop
    // (bitwise-identical per the `prenorm` contract in `score`).
    let k1p1 = params.k1 + 1.0;
    let norms: &[f64] = seg.k1_norms(params, avg_len).unwrap_or(&[]);

    // Shared skeleton for one cursor's pass over the run [cand, skip):
    // walk the decoded buffer directly (no per-posting cursor-state
    // updates, bounds checks elided by the iterator), applying `$body`
    // to each posting. The block-exhaustion epilogue moves to the next
    // block (which, holding only larger docs, is exactly the first
    // block with `last_doc ≥ lb`).
    macro_rules! taat_walk {
        ($c:ident, $buf:ident, $cand:ident, $skip:ident, |$doc:ident, $tf:ident| $body:expr) => {
            if $c.seek_doc(seg, blocks, $buf, $cand).is_some() {
                while $c.deep && $c.lb < $skip {
                    let mut taken = 0usize;
                    for &($doc, $tf) in &$buf[$c.pos..] {
                        if $doc >= $skip {
                            break;
                        }
                        $body;
                        taken += 1;
                    }
                    $c.pos += taken;
                    if $c.pos < $buf.len() {
                        $c.lb = $buf[$c.pos].0;
                        break;
                    }
                    $c.bi = $c.decoded_bi + 1;
                    $c.deep = false;
                    $c.lb = $buf[$buf.len() - 1].0.saturating_add(1);
                    if $c.lb >= $skip || $c.seek_doc(seg, blocks, $buf, $c.lb).is_none() {
                        break;
                    }
                }
            }
        };
    }
    // One term's BM25 contribution, via the prenorm table when valid.
    macro_rules! term_score {
        ($c:ident, $tf:ident, $doc:ident) => {
            if norms.is_empty() {
                bm25_term(params, $c.idf, $tf, lens[$doc as usize], avg_len)
            } else {
                bm25_term_prenorm($c.idf, $tf, k1p1, norms[$doc as usize])
            }
        };
    }
    // Bounded top-k insert: fill, then strict reject on score alone
    // (under θ on score, a doc loses to all k incumbents no matter the
    // doc-id tie-break; ties take the full comparison).
    macro_rules! heap_insert {
        ($score:expr, $doc:expr) => {{
            let score = $score;
            let gdoc = base + $doc;
            if heap.len() < k {
                heap.push(HeapEntry { score, doc: gdoc });
                *pushes += 1;
                if heap.len() == k {
                    theta = heap.peek().expect("nonempty heap").score;
                }
            } else if score >= theta {
                let worst = *heap.peek().expect("nonempty heap");
                let entry = HeapEntry { score, doc: gdoc };
                if entry < worst {
                    heap.pop();
                    heap.push(entry);
                    *pushes += 1;
                    theta = heap.peek().expect("nonempty heap").score;
                }
            }
        }};
    }

    'outer: loop {
        // Tie-safe non-strict prune: docs ascend in global id, so a doc
        // tying θ can never displace an incumbent.
        let pruned = |b: f64| b * UB_SLACK <= theta;

        let mut boundary = 0;
        while boundary < m && pruned(prefix[boundary + 1]) {
            boundary += 1;
        }
        if boundary == m {
            return; // no doc in this segment can beat θ
        }

        // Candidate lower bound: smallest current-doc bound among
        // essential cursors (exact for deep cursors).
        let mut cand = u32::MAX;
        for &t in &order[boundary..] {
            let c = &cursors[t];
            if c.alive() && c.lb < cand {
                cand = c.lb;
            }
        }
        if cand == u32::MAX {
            return;
        }

        // Block-refined bound at `cand`, plus the furthest doc id the
        // bound provably covers: the earliest contributing-block
        // boundary or non-candidate essential lower bound.
        let mut ub = 0.0f64;
        let mut skip = u32::MAX;
        for &t in &order[..boundary] {
            let c = &mut cursors[t];
            c.shallow_seek(blocks, cand);
            if c.bi < c.blocks_hi {
                ub += c.block_ub(params, avg_len, blocks);
                skip = skip.min(blocks[c.bi].last_doc.saturating_add(1));
            }
        }
        for &t in &order[boundary..] {
            let c = &mut cursors[t];
            if !c.alive() {
                continue;
            }
            if c.lb == cand {
                ub += c.block_ub(params, avg_len, blocks);
                skip = skip.min(blocks[c.bi].last_doc.saturating_add(1));
            } else {
                skip = skip.min(c.lb);
            }
        }
        if pruned(ub) {
            // Every doc in [cand, skip) is covered by the same block
            // bounds, so the candidate cursors jump there without
            // decoding anything.
            for &t in &order[boundary..] {
                let c = &mut cursors[t];
                if c.alive() && c.lb == cand {
                    c.lb = skip;
                    c.deep = false;
                    c.shallow_seek(blocks, skip);
                }
            }
            continue;
        }

        // The bound beats θ across the whole run [cand, skip): the
        // contributing blocks can't change before `skip`, and θ only
        // tightens, so re-deriving bounds per doc could only prune
        // harder — scoring the run straight through is exact and skips
        // the per-doc boundary/refinement overhead entirely.
        if taat {
            if m == 1 {
                // Single present term: a doc's exact score is just its own
                // contribution (absent terms add exact +0.0), so skip the
                // accumulator and feed the heap straight from the buffer.
                let c = &mut cursors[0];
                let buf = &mut bufs[0];
                if c.alive() {
                    taat_walk!(c, buf, cand, skip, |doc, tf| {
                        let b = term_score!(c, tf, doc);
                        heap_insert!(b, doc);
                    });
                }
                continue;
            }
            // Term-at-a-time: each cursor streams its decoded postings
            // in [cand, skip) into the dense accumulator. Cursors are in
            // unique-term order == slot order (gated above), so each
            // doc's additions happen in exactly the naive scorer's
            // sequence. Docs the doc-at-a-time loop would have skipped
            // (only non-essential terms) still accumulate their full
            // exact score, and inserting a doc with its exact score
            // never changes an exact top-k.
            // Specialized passes, all exactness-preserving:
            //  * the first contributing cursor writes into an all-NaN
            //    window, so it stores unconditionally (no load/branch);
            //  * the last contributing cursor sends docs no earlier term
            //    touched straight to the heap — their single partial sum
            //    IS the exact full score (run windows are disjoint and
            //    every cursor holding a window doc is processed in that
            //    window, so an untouched cell can never gain another
            //    contribution) — skipping the store, the touched push,
            //    and the drain revisit.
            // Heap insertion order differs from the drain's, which is
            // fine: bounded top-k under the total (score, doc) order is
            // insertion-order independent.
            let mut last_ci = usize::MAX;
            for (ci, c) in cursors.iter().enumerate() {
                if c.alive() && c.lb < skip {
                    last_ci = ci;
                }
            }
            for ci in 0..m {
                let c = &mut cursors[ci];
                if !c.alive() || c.lb >= skip {
                    continue;
                }
                let buf = &mut bufs[ci];
                let fresh = touched.is_empty();
                if ci == last_ci && fresh {
                    // Only contributing cursor in this run.
                    taat_walk!(c, buf, cand, skip, |doc, tf| {
                        let b = term_score!(c, tf, doc);
                        heap_insert!(b, doc);
                    });
                } else if ci == last_ci {
                    taat_walk!(c, buf, cand, skip, |doc, tf| {
                        let b = term_score!(c, tf, doc);
                        let cell = &mut acc[doc as usize];
                        if cell.is_nan() {
                            heap_insert!(b, doc);
                        } else {
                            *cell += b;
                        }
                    });
                } else if fresh {
                    taat_walk!(c, buf, cand, skip, |doc, tf| {
                        acc[doc as usize] = term_score!(c, tf, doc);
                        touched.push(doc);
                    });
                } else {
                    taat_walk!(c, buf, cand, skip, |doc, tf| {
                        let b = term_score!(c, tf, doc);
                        let cell = &mut acc[doc as usize];
                        if cell.is_nan() {
                            *cell = b;
                            touched.push(doc);
                        } else {
                            *cell += b;
                        }
                    });
                }
            }
            // Drain in first-seen order: bounded-heap top-k under the
            // total (score, doc) order is insertion-order independent,
            // so ascending-doc order is not required here.
            for &doc in touched.iter() {
                let cell = &mut acc[doc as usize];
                let score = *cell;
                *cell = f64::NAN;
                heap_insert!(score, doc);
            }
            touched.clear();
            continue;
        }
        let mut d = cand;
        loop {
            // Deepen candidates sitting on `d` to their exact docs.
            let mut present = false;
            for &t in &order[boundary..] {
                let c = &mut cursors[t];
                if c.alive() && c.lb == d && !c.deep {
                    c.seek_doc(seg, blocks, &mut bufs[t], d);
                }
                if c.deep && c.lb == d {
                    present = true;
                }
            }
            if present {
                // Full score: seek every cursor to ≥ d and accumulate
                // the matching contributions in query-token slot order
                // (exact +0.0 for non-matching terms) — bitwise-identical
                // to the naive scorer's accumulation.
                let dlen = lens[d as usize];
                for (t, c) in cursors.iter_mut().enumerate() {
                    contrib[c.term] = match c.seek_doc(seg, blocks, &mut bufs[t], d) {
                        Some((doc, tf)) if doc == d => bm25_term(params, c.idf, tf, dlen, avg_len),
                        _ => 0.0,
                    };
                }
                let mut score = 0.0f64;
                for &sl in slots {
                    score += contrib[sl];
                }
                for (t, c) in cursors.iter_mut().enumerate() {
                    if c.deep && c.lb == d {
                        c.advance_deep(&bufs[t]);
                    }
                }

                heap_insert!(score, d);
            }
            // Next candidate inside the run; past `skip` the bound (or
            // the essential set) may change, so fall back out.
            let mut nd = u32::MAX;
            for &t in &order[boundary..] {
                let c = &cursors[t];
                if c.alive() && c.lb < nd {
                    nd = c.lb;
                }
            }
            if nd >= skip {
                continue 'outer;
            }
            d = nd;
        }
    }
}
