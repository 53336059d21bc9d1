//! The per-query scoring loop.
//!
//! [`top_k`] is the one top-k executor behind every search: an exhaustive
//! term-at-a-time scan of a [`crate::SegmentedIndex`]'s segments, in global
//! doc id order. Within a segment it walks the query's slots (one per
//! present query token, duplicates included) in query order, decodes every
//! block of the slot's term and adds each posting's BM25 contribution into
//! a dense per-doc accumulator; then it offers every touched doc to a
//! bounded top-k heap that carries from segment to segment.
//!
//! The scan takes an optional *extension*: more slots, scanned after the
//! query's own. After the query's slots of a segment it reads the query's
//! top k off the accumulator and copies the touched docs' cells aside, in
//! touched order, then adds the extension's slots and reads the top k of
//! `query ++ extension`, each hit with its copied cell as its base score:
//! one pass over the query's postings ranks both lists and scores every
//! extended hit under the query alone (the engine's "query + city").
//!
//! It runs entirely out of a pooled [`SearchScratch`]
//! (see [`crate::scratch`]): **no allocations at steady state**, enforced
//! by a check.sh grep gate on this module. No snippet is cut here at all —
//! callers cut the snippets of the ranked hits they take.
//!
//! ## Exactness
//!
//! This is the exhaustive reference's own arithmetic
//! ([`crate::SegmentedIndex::search_exhaustive`]): each doc's score is the
//! sum of its contributions in query-token slot order, the first one added
//! to an [`UNTOUCHED`] (`-0.0`) cell — which gives `0.0 + s` bit for bit —
//! so scores are bit-identical to it, duplicate tokens included. Every
//! posting adds unconditionally and a first touch is read off the cell's
//! sign bit: the loop has no data-dependent branch (an `is_nan` test on a
//! NaN sentinel mispredicted on about half the postings of a query's later
//! terms, and cost 40 % of the scan). The extended list continues the same sums in
//! the same order, so it is bit-identical to ranking `query ++ extension`
//! alone. An extended hit's base score is its cell as it stood after the
//! query's slots — the reference's score for that doc, bit for bit — or
//! the literal `0.0` (not the `-0.0` sentinel) for a doc the extension
//! touched first, past the copied prefix of the touched list. Top k is
//! selected under the total order (score descending, doc id ascending),
//! which no insertion order can change.
//!
//! ## Why no pruning
//!
//! Block-Max WAND ran here before. Counted on 600 of the large workload's
//! 2 749 distinct templates (k = 30), it decoded and scored 99.1 % of a
//! query's postings, and even exact per-block score maxima would have left
//! 93 % of the 128-posting blocks to decode (100 % for an augmented query):
//! the bounds bought nothing and their bookkeeping cost time.

use crate::score::{bm25_term, bm25_term_prenorm, Bm25Params};
use crate::scratch::SearchScratch;
use crate::segment::Segment;
use crate::terms::TermTable;
use pws_text::Sym;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// An untouched accumulator cell. A BM25 contribution `s` is never
/// negative, and `-0.0 + s` is `s` bit for bit — `0.0 + s` too, the
/// reference's first addition — so a touched cell's sign bit is clear.
pub(crate) const UNTOUCHED: f64 = -0.0;

/// Min-heap entry for bounded top-k selection. Ordered so that the heap's
/// maximum (`peek`) is the *worst* kept hit: lower score is "greater", and
/// on score ties the larger doc id is "greater" (final ranking prefers
/// ascending doc ids) — so an ascending sort is rank order.
#[derive(Debug, Clone, Copy)]
pub(crate) struct HeapEntry {
    pub score: f64,
    pub doc: u32,
    /// In the extended list, the doc's score under the query alone (the
    /// query's own list leaves it `0.0`).
    pub base: f64,
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

/// One query token some document holds: a scan slot.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Slot {
    /// The term's id in the index's term table.
    pub term: Sym,
    /// Global (cross-segment) idf.
    pub idf: f64,
}

/// Everything [`top_k`] needs from the index, by reference.
pub(crate) struct SegContext<'a> {
    pub segments: &'a [Segment],
    pub bases: &'a [u32],
    /// Maps a query term's id to each segment's ordinal.
    pub terms: &'a TermTable,
    pub params: Bm25Params,
    pub avg_len: f64,
    pub k: usize,
}

/// What one scan decoded: the `index.postings` and `index.blocks` counts.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct Work {
    pub postings: u64,
    pub blocks: u64,
}

/// Exhaustive top-k over all segments. The resolved query must already be
/// in `scratch.slots`, the query's own first (`scratch.split` of them),
/// then the extension's. The query's top k lands in `scratch.cands[0]`
/// and, when `scratch.extended`, the top k of `query ++ extension` in
/// `scratch.cands[1]`, each in final rank order (score desc, doc asc, at
/// most k).
pub(crate) fn top_k(ctx: &SegContext<'_>, scratch: &mut SearchScratch) -> Work {
    let SearchScratch { slots, split, extended, heaps, cands, buf, acc, bases, touched, .. } =
        scratch;
    let lists = if *extended { 2 } else { 1 };
    heaps.iter_mut().for_each(BinaryHeap::clear);
    let (query, extension) = slots.split_at(*split);
    let mut work = Work::default();
    for (s, (seg, &base)) in ctx.segments.iter().zip(ctx.bases).enumerate() {
        if acc.len() < seg.doc_lens().len() {
            acc.resize(seg.doc_lens().len(), UNTOUCHED);
        }
        for slot in query {
            accumulate(ctx, s, seg, slot, buf, acc, touched, &mut work);
        }
        offer(&mut heaps[0], ctx.k, base, acc, touched, &[]);
        if *extended {
            bases.clear();
            bases.extend(touched.iter().map(|&doc| acc[doc as usize]));
            for slot in extension {
                accumulate(ctx, s, seg, slot, buf, acc, touched, &mut work);
            }
            offer(&mut heaps[1], ctx.k, base, acc, touched, bases);
        }
        restore(acc, touched);
    }
    for (heap, cands) in heaps.iter_mut().zip(cands.iter_mut()).take(lists) {
        cands.clear();
        cands.extend(heap.drain());
        cands.sort_unstable();
    }
    work
}

/// Add `slot`'s contribution to every doc of segment `s` holding its term
/// into `acc`, recording first touches in `touched`.
#[allow(clippy::too_many_arguments)]
fn accumulate(
    ctx: &SegContext<'_>,
    s: usize,
    seg: &Segment,
    slot: &Slot,
    buf: &mut Vec<(u32, u32)>,
    acc: &mut [f64],
    touched: &mut Vec<u32>,
    work: &mut Work,
) {
    let Some(ord) = ctx.terms.ord(s, slot.term) else { return };
    let range = seg.term_block_range(ord);
    work.blocks += range.len() as u64;
    work.postings += u64::from(seg.term_meta(ord).df);
    let (params, avg_len, idf) = (ctx.params, ctx.avg_len, slot.idf);
    let lens = seg.doc_lens();
    // The `k1·norm` table keeps the length-normalisation division out of
    // the per-posting loop (bitwise-identical per the `prenorm` contract in
    // `score`).
    let k1p1 = params.k1 + 1.0;
    let norms: &[f64] = seg.k1_norms(params, avg_len).unwrap_or(&[]);
    let score = |doc: u32, tf: u32| {
        if norms.is_empty() {
            bm25_term(params, idf, tf, lens[doc as usize], avg_len)
        } else {
            bm25_term_prenorm(idf, tf, k1p1, norms[doc as usize])
        }
    };
    for block in &seg.all_blocks()[range] {
        // An undecodable block (unreachable after a checksummed load) is
        // skipped, as the exhaustive reference skips it.
        if !seg.decode_block(block, buf) {
            continue;
        }
        let mut n = touched.len();
        touched.resize(n + buf.len(), 0);
        for &(doc, tf) in buf.iter() {
            let cell = &mut acc[doc as usize];
            let first = cell.is_sign_negative();
            *cell += score(doc, tf);
            touched[n] = doc;
            n += usize::from(first);
        }
        touched.truncate(n);
    }
}

/// Put every touched cell of `acc` back to [`UNTOUCHED`] and empty
/// `touched`: after each segment, and on a pooled scratch's drop, where an
/// interrupted scan may have left it mid-block.
pub(crate) fn restore(acc: &mut [f64], touched: &mut Vec<u32>) {
    for doc in touched.drain(..) {
        if let Some(cell) = acc.get_mut(doc as usize) {
            *cell = UNTOUCHED;
        }
    }
}

/// Offer every touched doc of the segment at `base`, with its score so
/// far, to the bounded top-`k` `heap`; `touched[i]` carries `bases[i]` as
/// its base score, `0.0` past the end of `bases`.
fn offer(
    heap: &mut BinaryHeap<HeapEntry>,
    k: usize,
    base: u32,
    acc: &[f64],
    touched: &[u32],
    bases: &[f64],
) {
    // The worst kept score: a doc scoring below it cannot get in.
    let worst = |heap: &BinaryHeap<HeapEntry>| heap.peek().map_or(f64::NEG_INFINITY, |e| e.score);
    let mut theta = if heap.len() < k { f64::NEG_INFINITY } else { worst(heap) };
    for (i, &doc) in touched.iter().enumerate() {
        let score = acc[doc as usize];
        if score < theta {
            continue;
        }
        let entry = HeapEntry { score, doc: base + doc, base: bases.get(i).copied().unwrap_or(0.0) };
        if heap.len() < k {
            heap.push(entry);
        } else if let Some(mut worst) = heap.peek_mut() {
            if entry < *worst {
                *worst = entry;
            }
        }
        if heap.len() == k {
            theta = worst(heap);
        }
    }
}
