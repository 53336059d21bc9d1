//! The index: a set of immutable segments with exhaustive top-k
//! execution.
//!
//! A [`SegmentedIndex`] serves queries over a set of immutable
//! [`Segment`]s (see [`crate::segment`]) under **global** collection
//! statistics: document count, average document length, and per-term
//! document frequency are aggregated across segments, so the BM25 score
//! of any document does not depend on how the corpus was split — one
//! segment built in RAM by [`crate::IndexBuilder`] and sixteen opened
//! from disk rank the same corpus *bit-identically*. That identity is the
//! correctness contract: the executor's top-k is property-tested against
//! the exhaustive reference ([`SegmentedIndex::search_exhaustive`]) on
//! arbitrary corpora and segmentations, and `retrieval_bench` re-verifies
//! it on every fixture query as a CI gate.
//!
//! ## The scan
//!
//! Query execution (`exec`) is one term-at-a-time scan: segment
//! by segment, each query token's postings are decoded block by block and
//! added into a dense per-doc accumulator in query-token order, and the
//! touched docs are offered to a bounded top-k heap. That is the reference
//! scorer's arithmetic, so the scores are bit-identical to it.
//! [`SegmentedIndex::rank_tokens`] takes an optional extension (the
//! engine's "query + city" augmentation): the same scan continues with the
//! extension's tokens after reading the query's top k, and returns both
//! lists from one pass over the query's postings — each extended hit with
//! its score under the query alone, so no document is scored twice.
//!
//! Nothing is pruned. Block-Max WAND, which ran here before, decoded and
//! scored 99.1 % of a query's postings on the large workload (600 of its
//! 2 749 templates, k = 30), and exact per-block score maxima would still
//! have left 93 % of the blocks to decode — 100 % for an augmented query —
//! so the per-block `max_tf`/`min_dlen` the segments carry are not read.
//! The `index.postings` and `index.blocks` counters record what each scan
//! decoded.
//!
//! A query reaches the index as ids of its [`TermTable`]
//! ([`crate::terms`]); the string entry points look their tokens up in it.

use crate::exec::{rank_order, top_k, SegContext, Slot};
use crate::score::{bm25_term, idf, Bm25Params};
use crate::scratch::{ScratchPool, SearchScratch};
use crate::search::{CutHit, SearchHit};
use crate::segment::{Segment, SegmentBuilder, TfCursor};
use crate::segfile::SegmentError;
use crate::snippet::{SnippetScratch, SNIPPET_WINDOW};
use crate::terms::TermTable;
use pws_obs::format::FormatError;
use pws_text::{Analyzer, Sym};
use std::collections::HashMap;
use std::sync::Arc;

/// An immutable set of segments served as one logical index.
///
/// Global doc ids are segment-order concatenation: segment `s` covers
/// `[base(s), base(s) + s.doc_count())`. Cloning is cheap (segments are
/// `Arc`-backed, and so is the term table, which only
/// [`SegmentedIndex::add_segment`] extends).
#[derive(Debug, Clone)]
pub struct SegmentedIndex {
    params: Bm25Params,
    segments: Vec<Segment>,
    /// `bases[s]` = first global doc id of segment `s`.
    bases: Vec<u32>,
    doc_count: u32,
    total_len: u64,
    avg_len: f64,
    /// The one vocabulary: term ids, global document frequencies, and each
    /// segment's id → ordinal and form maps.
    terms: Arc<TermTable>,
    /// Pooled per-query scratch arenas, shared across clones so
    /// concurrent queries reuse warm buffers.
    scratch: Arc<ScratchPool>,
}

impl SegmentedIndex {
    /// An empty index over `analyzer` (segments can be added later).
    pub fn empty(analyzer: Analyzer) -> Self {
        SegmentedIndex {
            params: Bm25Params::default(),
            segments: Vec::new(),
            bases: Vec::new(),
            doc_count: 0,
            total_len: 0,
            avg_len: 0.0,
            terms: Arc::new(TermTable::new(analyzer)),
            scratch: Arc::default(),
        }
    }

    /// Assemble an index from already-loaded segments. All segments must
    /// share one analyzer configuration.
    pub fn from_segments(segments: Vec<Segment>) -> Result<Self, SegmentError> {
        let analyzer = segments
            .first()
            .map(|s| s.analyzer().clone())
            .unwrap_or_default();
        let mut idx = SegmentedIndex::empty(analyzer);
        for s in segments {
            idx.add_segment(s)?;
        }
        Ok(idx)
    }

    /// Append one segment, updating global statistics and entering its
    /// terms and forms in the term table ([`SegmentedIndex::from_segments`]
    /// and the segmented build call it; an index is never extended while
    /// an engine serves it).
    pub fn add_segment(&mut self, seg: Segment) -> Result<(), SegmentError> {
        if seg.analyzer() != self.analyzer() {
            if self.segments.is_empty() && self.doc_count == 0 {
                self.terms = Arc::new(TermTable::new(seg.analyzer().clone()));
            } else {
                return Err(SegmentError::Mismatch("analyzer config"));
            }
        }
        let new_total = u64::from(self.doc_count) + u64::from(seg.doc_count());
        let doc_count = u32::try_from(new_total)
            .map_err(|_| FormatError::Malformed("global doc count overflows u32"))?;
        self.bases.push(self.doc_count);
        self.doc_count = doc_count;
        self.total_len += seg.total_len();
        self.avg_len = if self.doc_count == 0 {
            0.0
        } else {
            self.total_len as f64 / f64::from(self.doc_count)
        };
        Arc::make_mut(&mut self.terms).add_segment(&seg);
        self.segments.push(seg);
        Ok(())
    }

    /// Number of segments.
    pub fn num_segments(&self) -> usize {
        self.segments.len()
    }

    /// The segments, in global doc id order.
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// The term table every id this index takes or hands out indexes.
    pub fn terms(&self) -> &TermTable {
        &self.terms
    }

    /// The term table and each segment's [`Segment::forms`], in segment
    /// order: a [`CutHit`]'s form ids index the forms of its segment, and
    /// [`TermTable::form_terms`] gives each form's term ids.
    pub fn segment_forms(&self) -> (&TermTable, Vec<&[String]>) {
        (&self.terms, self.segments.iter().map(Segment::forms).collect())
    }

    /// Total documents across all segments.
    pub fn doc_count(&self) -> u32 {
        self.doc_count
    }

    /// Global average document length in tokens.
    pub fn avg_doc_len(&self) -> f64 {
        self.avg_len
    }

    /// Number of distinct terms some document indexes, across all
    /// segments.
    pub fn vocab_size(&self) -> usize {
        self.terms.lexicon_len()
    }

    /// Total on-disk bytes across all segment files.
    pub fn index_bytes(&self) -> usize {
        self.segments.iter().map(|s| s.file_bytes().len()).sum()
    }

    /// Total bytes of the inverted index proper: every segment's
    /// `Postings` + `BlockMax` sections (for the efficiency table).
    pub fn postings_bytes(&self) -> usize {
        self.segments.iter().map(Segment::postings_bytes).sum()
    }

    /// The analyzer shared by every segment.
    pub fn analyzer(&self) -> &Analyzer {
        self.terms.analyzer()
    }

    /// Run the shared analyzer over arbitrary text.
    pub fn analyze_text(&self, text: &str) -> Vec<String> {
        self.analyzer().analyze(text)
    }

    /// Materialize a stored document by global id (lazy doc-store
    /// decode in the owning segment).
    ///
    /// # Panics
    /// Panics if `global` is out of range.
    pub fn doc(&self, global: u32) -> crate::StoredDoc {
        let s = self.segment_of(global);
        let mut d = self.segments[s].doc(global - self.bases[s]);
        d.id = global;
        d
    }

    /// Index of the segment owning `global` (binary search over bases).
    fn segment_of(&self, global: u32) -> usize {
        debug_assert!(global < self.doc_count, "doc {global} out of range");
        match self.bases.binary_search(&global) {
            Ok(i) => i,
            Err(i) => i - 1,
        }
    }

    /// Process-wide handle to the `index.search` stage, resolved once.
    pub(crate) fn metrics_search(&self) -> &pws_obs::StageMetrics {
        static STAGE: std::sync::OnceLock<std::sync::Arc<pws_obs::StageMetrics>> =
            std::sync::OnceLock::new();
        STAGE.get_or_init(|| pws_obs::stage("index.search"))
    }

    /// Execute `query`, returning the top `k` hits ranked by BM25
    /// descending, ties by ascending global doc id — bit-identical to
    /// [`SegmentedIndex::search_exhaustive`].
    ///
    /// Latency is recorded under the `index.search` stage.
    pub fn search(&self, query: &str, k: usize) -> Vec<SearchHit> {
        let _span = self.metrics_search().span();
        let mut scratch = self.scratch.acquire();
        self.run_query(&self.terms.analyze(query), k, &mut scratch)
    }

    /// [`SegmentedIndex::search`] over pre-analyzed tokens:
    /// [`SegmentedIndex::rank_tokens`] and then [`SegmentedIndex::cut_hits`]
    /// of every ranked doc, in one scratch checkout.
    pub fn search_tokens(&self, q_tokens: &[String], k: usize) -> Vec<SearchHit> {
        let _span = self.metrics_search().span();
        let mut scratch = self.scratch.acquire();
        self.run_query(&self.terms.ids(q_tokens), k, &mut scratch)
    }

    /// The ranking half of [`SegmentedIndex::search_tokens`] over a query
    /// analysed to ids of [`SegmentedIndex::terms`]: the top `k`
    /// `(global doc, BM25)` pairs in rank order, with no document decoded
    /// and no snippet cut. With an `extension`, also the top `k` of
    /// `query ++ extension` as `(global doc, BM25, base)` — each list
    /// bit-identical to ranking its query alone, and `base` the doc's score
    /// under `query` alone, bit-identical to the exhaustive reference's
    /// (`0.0` when `query` does not match it) — from one scan that reads
    /// the query's postings once. Recorded under `index.search`.
    #[allow(clippy::type_complexity)]
    pub fn rank_tokens(
        &self,
        query: &[Sym],
        extension: Option<&[Sym]>,
        k: usize,
    ) -> (Vec<(u32, f64)>, Option<Vec<(u32, f64, f64)>>) {
        let _span = self.metrics_search().span();
        let mut scratch = self.scratch.acquire();
        self.rank_into(query, extension, k, &mut scratch);
        let [ranked, extended] = &scratch.cands;
        (
            ranked.iter().map(|e| (e.doc, e.score)).collect(),
            extension.map(|_| extended.iter().map(|e| (e.doc, e.score, e.base)).collect()),
        )
    }

    /// The cutting half of [`SegmentedIndex::search_tokens`]: the hits at
    /// positions `which` of `ranked` (a [`SegmentedIndex::rank_tokens`]
    /// list for `query`), in `which` order, each with its snippet's form
    /// ids. A hit keeps its list rank (`position + 1`) and score, and its
    /// snippet depends only on its body and `query`, so cutting a subset,
    /// or cutting later, gives the bytes `search_tokens` would have. One
    /// pooled snippet scratch serves the call; recorded under
    /// `index.materialize`.
    ///
    /// # Panics
    /// Panics if a position in `which` is out of range for `ranked`.
    pub fn cut_hits(&self, query: &[Sym], ranked: &[(u32, f64)], which: &[usize]) -> Vec<CutHit> {
        let _span = self.metrics_materialize().span();
        let mut scratch = self.scratch.acquire();
        let cands = which.iter().map(|&i| (i, ranked[i]));
        self.materialize(cands, query, &mut scratch.snippets, |hit, segment, forms| CutHit {
            hit,
            segment,
            forms: forms.to_vec(),
        })
    }

    /// Process-wide handle to the `index.materialize` stage.
    fn metrics_materialize(&self) -> &pws_obs::StageMetrics {
        static STAGE: std::sync::OnceLock<std::sync::Arc<pws_obs::StageMetrics>> =
            std::sync::OnceLock::new();
        STAGE.get_or_init(|| pws_obs::stage("index.materialize"))
    }

    /// Rank and cut every hit: the body of [`SegmentedIndex::search`] and
    /// [`SegmentedIndex::search_tokens`].
    fn run_query(&self, query: &[Sym], k: usize, scratch: &mut SearchScratch) -> Vec<SearchHit> {
        self.rank_into(query, None, k, scratch);
        let SearchScratch { cands: [cands, _], snippets, .. } = scratch;
        if cands.is_empty() {
            return Vec::new();
        }
        let _span = self.metrics_materialize().span();
        let cands = cands.iter().map(|e| (e.doc, e.score)).enumerate();
        self.materialize(cands, query, snippets, |h, _, _| h)
    }

    /// Scan for the top `k` of `query` into `scratch.cands[0]` and, with
    /// an `extension`, of `query ++ extension` into `scratch.cands[1]`;
    /// the lists are empty when nothing can match. The postings and blocks
    /// the scan decoded are counted under `index.postings` and
    /// `index.blocks`, once per call.
    fn rank_into(
        &self,
        query: &[Sym],
        extension: Option<&[Sym]>,
        k: usize,
        scratch: &mut SearchScratch,
    ) {
        scratch.cands.iter_mut().for_each(Vec::clear);
        if k == 0 || self.doc_count == 0 {
            return;
        }
        self.resolve_into(query, extension, scratch);
        if scratch.slots.is_empty() {
            return;
        }
        let ctx = SegContext {
            segments: &self.segments,
            bases: &self.bases,
            terms: &self.terms,
            params: self.params,
            avg_len: self.avg_len,
            k,
        };
        let work = top_k(&ctx, scratch);
        let [postings, blocks] = self.metrics_work();
        postings.incr(work.postings);
        blocks.incr(work.blocks);
    }

    /// Process-wide handles to the `index.postings` and `index.blocks`
    /// work counters.
    fn metrics_work(&self) -> &[Arc<pws_obs::StageMetrics>; 2] {
        static STAGES: std::sync::OnceLock<[Arc<pws_obs::StageMetrics>; 2]> =
            std::sync::OnceLock::new();
        STAGES.get_or_init(|| [pws_obs::stage("index.postings"), pws_obs::stage("index.blocks")])
    }

    /// The exhaustive reference: term-at-a-time accumulation over every
    /// posting of every query term in every segment, then a full sort.
    /// The executor is gated against it; it never serves traffic (and
    /// records no `index.search` metrics).
    pub fn search_exhaustive(&self, query: &str, k: usize) -> Vec<SearchHit> {
        // Duplicate query terms contribute once per occurrence (standard
        // bag-of-words query semantics).
        let query = self.terms.analyze(query);
        let mut acc: HashMap<u32, f64> = HashMap::new();
        for &id in &query {
            for (doc, s) in self.term_docs(id) {
                *acc.entry(doc).or_insert(0.0) += s;
            }
        }
        let mut cands: Vec<(u32, f64)> = acc.into_iter().collect();
        cands.sort_unstable_by(rank_order);
        cands.truncate(k);
        let mut snippets = SnippetScratch::default();
        self.materialize(cands.into_iter().enumerate(), &query, &mut snippets, |h, _, _| h)
    }

    /// Every doc containing the term `id`, with the term's BM25
    /// contribution to it, in ascending global doc id order.
    pub(crate) fn term_docs(&self, id: Sym) -> Vec<(u32, f64)> {
        let df = self.terms.df(id);
        if df == 0 {
            return Vec::new();
        }
        let term_idf = idf(self.doc_count, df);
        let mut out = Vec::with_capacity(df as usize);
        for (s, (seg, &base)) in self.segments.iter().zip(&self.bases).enumerate() {
            let Some(ord) = self.terms.ord(s, id) else { continue };
            let lens = seg.doc_lens();
            seg.for_each_posting(ord, |d, tf| {
                let s = bm25_term(self.params, term_idf, tf, lens[d as usize], self.avg_len);
                out.push((base + d, s));
            });
        }
        out
    }

    /// Docs containing the analyzed terms *adjacently in order*, each
    /// scored as the sum of the member terms' BM25 contributions. The
    /// index stores no positions: a candidate (a doc holding every term)
    /// is verified by re-analyzing its stored text, the exact token
    /// stream that was indexed.
    pub(crate) fn phrase_docs(&self, terms: &[String]) -> Vec<(u32, f64)> {
        let mut out = Vec::new();
        // Any term no document indexes kills the phrase.
        let Some(ids) = terms
            .iter()
            .map(|t| self.terms.get(t).filter(|&id| self.terms.df(id) > 0))
            .collect::<Option<Vec<Sym>>>()
        else {
            return out;
        };
        let idfs: Vec<f64> = ids.iter().map(|&id| idf(self.doc_count, self.terms.df(id))).collect();
        for (s, (seg, &base)) in self.segments.iter().zip(&self.bases).enumerate() {
            let Some(ords) = ids.iter().map(|&id| self.terms.ord(s, id)).collect::<Option<Vec<u32>>>()
            else {
                continue;
            };
            let Some(&first) = ords.first() else { return out };
            let mut cursors: Vec<TfCursor> = ords.iter().map(|&ord| TfCursor::new(seg, ord)).collect();
            seg.for_each_posting(first, |d, _| {
                let Some(tfs) =
                    cursors.iter_mut().map(|c| c.tf_at(d)).collect::<Option<Vec<u32>>>()
                else {
                    return;
                };
                let tokens = self.analyze_text(&seg.doc(d).indexable_text());
                if tokens.windows(terms.len()).any(|w| w == terms) {
                    let len = seg.doc_lens()[d as usize];
                    let score = tfs
                        .iter()
                        .zip(&idfs)
                        .map(|(&tf, &i)| bm25_term(self.params, i, tf, len, self.avg_len))
                        .sum();
                    out.push((base + d, score));
                }
            });
        }
        out
    }

    /// Resolve the ids of `query`, then of `extension`, into scan slots
    /// directly into pooled scratch: one per id some document holds, in
    /// order (duplicates score once per occurrence).
    fn resolve_into(&self, query: &[Sym], extension: Option<&[Sym]>, scratch: &mut SearchScratch) {
        let SearchScratch { slots, split, extended, .. } = scratch;
        let slot = |&term: &Sym| {
            let df = self.terms.df(term);
            (df > 0).then(|| Slot { term, idf: idf(self.doc_count, df) })
        };
        slots.clear();
        slots.extend(query.iter().filter_map(slot));
        *split = slots.len();
        *extended = extension.is_some();
        slots.extend(extension.unwrap_or_default().iter().filter_map(slot));
    }

    /// Build hits from `(list position, (global doc, score))` candidates,
    /// passing each to `make` with its segment and its snippet's form ids.
    /// The query's ids are marked once; a snippet is then cut from the
    /// document's form stream — no body is decoded, tokenised or stemmed.
    pub(crate) fn materialize<T>(
        &self,
        cands: impl Iterator<Item = (usize, (u32, f64))>,
        query: &[Sym],
        snippets: &mut SnippetScratch,
        mut make: impl FnMut(SearchHit, usize, &[u32]) -> T,
    ) -> Vec<T> {
        snippets.for_query(&self.terms, query);
        // Touch every candidate's index entries, record and form run before
        // cutting any: the documents' cache misses overlap instead of
        // queueing one document at a time.
        let cands: Vec<(usize, (u32, f64))> = cands.collect();
        let touched = cands.iter().fold(0u8, |x, &(_, (doc, _))| {
            let s = self.segment_of(doc);
            x ^ self.segments[s].touch(doc - self.bases[s])
        });
        std::hint::black_box(touched);
        cands
            .into_iter()
            .map(|(i, (doc, score))| {
                let s = self.segment_of(doc);
                let (seg, local) = (&self.segments[s], doc - self.bases[s]);
                let [url, title] = seg.doc_fields(local);
                let snippet = snippets.cut(seg, self.terms.form_stems(s), local, SNIPPET_WINDOW);
                let hit =
                    SearchHit { doc, score, rank: i + 1, url: url.into(), title: title.into(), snippet };
                make(hit, s, snippets.window_forms())
            })
            .collect()
    }

    /// Build a segmented index over `num_docs` documents produced by
    /// `doc(i) -> (url, title, body)`, split into consecutive segments
    /// of `docs_per_segment`, built by `threads` worker threads.
    ///
    /// The output is **independent of `threads`**: each segment is built
    /// from its own document range in isolation, so parallelism is pure
    /// execution strategy. Every built segment round-trips through the
    /// on-disk format ([`SegmentBuilder::finish_segment`]).
    pub fn build_parallel<F>(
        analyzer: Analyzer,
        num_docs: usize,
        docs_per_segment: usize,
        threads: usize,
        doc: F,
    ) -> Result<SegmentedIndex, SegmentError>
    where
        F: Fn(usize) -> (String, String, String) + Sync,
    {
        assert!(docs_per_segment > 0, "docs_per_segment must be positive");
        let num_segments = num_docs.div_ceil(docs_per_segment).max(1);
        let next = std::sync::atomic::AtomicUsize::new(0);
        let slots: Vec<std::sync::Mutex<Option<Result<Segment, SegmentError>>>> =
            (0..num_segments).map(|_| std::sync::Mutex::new(None)).collect();
        let workers = threads.clamp(1, num_segments);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let s = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    if s >= num_segments {
                        return;
                    }
                    let lo = s * docs_per_segment;
                    let hi = (lo + docs_per_segment).min(num_docs);
                    let mut b = SegmentBuilder::new(analyzer.clone());
                    for i in lo..hi {
                        let (url, title, body) = doc(i);
                        b.add(&url, &title, &body);
                    }
                    let built = b.finish_segment();
                    if let Ok(mut slot) =
                        slots[s].lock().or_else(|p| Ok::<_, ()>(p.into_inner()))
                    {
                        *slot = Some(built);
                    }
                });
            }
        });
        let mut segments = Vec::with_capacity(num_segments);
        for slot in slots {
            let built = slot
                .into_inner()
                .unwrap_or_else(|p| p.into_inner())
                .unwrap_or(Err(FormatError::Malformed("segment build worker died").into()));
            segments.push(built?);
        }
        SegmentedIndex::from_segments(segments)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::IndexBuilder;
    use crate::search::StoredDoc;

    const DOCS: &[(&str, &str, &str)] = &[
        ("http://a.test/0", "Crab shack menu",
         "fresh seafood lobster and crab daily specials near the harbor"),
        ("http://b.test/1", "Phone deals",
         "unlocked android smartphone with great battery and camera"),
        ("http://c.test/2", "Seafood city guide",
         "the seafood guide covers lobster rolls oyster bars and sushi"),
        ("http://d.test/3", "Hotel by the sea",
         "oceanview suite booking with seafood restaurant downstairs"),
        ("http://e.test/4", "Harbor festival",
         "the annual harbor festival has lobster stands and live music"),
    ];

    /// One segment built in RAM by [`IndexBuilder`].
    fn engine() -> SegmentedIndex {
        let mut b = IndexBuilder::new();
        for (i, (u, t, body)) in DOCS.iter().enumerate() {
            b.add(StoredDoc::new(i as u32, u, t, body));
        }
        b.build()
    }

    /// The same corpus split into segments of `per` docs.
    fn segmented(per: usize) -> SegmentedIndex {
        SegmentedIndex::build_parallel(Analyzer::default(), DOCS.len(), per, 2, |i| {
            let (u, t, b) = DOCS[i];
            (u.to_string(), t.to_string(), b.to_string())
        })
        .expect("build")
    }

    /// `n` identical docs: every score ties.
    fn tied(n: u32) -> SegmentedIndex {
        let mut b = IndexBuilder::new();
        for id in 0..n {
            b.add(StoredDoc::new(id, "u", "same", "identical content here"));
        }
        b.build()
    }

    fn assert_hits_identical(a: &[SearchHit], b: &[SearchHit], ctx: &str) {
        assert_eq!(a.len(), b.len(), "{ctx}: length");
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.doc, y.doc, "{ctx}: doc order");
            assert_eq!(x.score.to_bits(), y.score.to_bits(), "{ctx}: score bits");
            assert_eq!(x.rank, y.rank, "{ctx}");
            assert_eq!(x.url, y.url, "{ctx}");
            assert_eq!(x.title, y.title, "{ctx}");
            assert_eq!(x.snippet, y.snippet, "{ctx}");
        }
    }

    #[test]
    fn every_segmentation_matches_exhaustive_and_each_other_bitwise() {
        let eng = engine();
        let queries = ["seafood lobster", "harbor", "hotel booking camera", "harbor festival",
                       "seafood seafood lobster", "crab harbor sushi phone", "the of and",
                       "missing terms only"];
        for per in [1, 2, 3, 5] {
            let idx = segmented(per);
            assert_eq!(idx.doc_count(), eng.doc_count());
            assert!((idx.avg_doc_len() - eng.avg_doc_len()).abs() == 0.0);
            for q in queries {
                for k in [1, 2, 3, 10] {
                    let ctx = format!("per={per} q={q:?} k={k}");
                    let a = idx.search(q, k);
                    assert_hits_identical(&a, &idx.search_exhaustive(q, k), &ctx);
                    assert_hits_identical(&a, &eng.search(q, k), &ctx);
                }
            }
        }
        // One 16-doc corpus in 1 and in 8 segments: the term tables number
        // terms in different orders, yet every query term resolves to the
        // same string with the same document frequency.
        let cycled = |per| {
            SegmentedIndex::build_parallel(Analyzer::default(), 16, per, 2, |i| {
                let (u, t, b) = DOCS[i % DOCS.len()];
                (format!("{u}/{i}"), t.to_string(), b.to_string())
            })
            .expect("build")
        };
        let (one, eight) = (cycled(16), cycled(2));
        assert_eq!((one.num_segments(), eight.num_segments()), (1, 8));
        let ids = |idx: &SegmentedIndex| idx.terms().analyze("crab harbor sushi phone booking");
        assert_ne!(ids(&one), ids(&eight), "both builds number the terms alike");
        let resolved = |idx: &SegmentedIndex, t: &str| {
            idx.terms().get(t).map(|id| (idx.terms().interner().resolve(id).to_string(), idx.terms().df(id)))
        };
        for q in queries {
            for t in one.analyze_text(q) {
                assert_eq!(resolved(&one, &t), resolved(&eight, &t), "{t:?}");
            }
            assert_hits_identical(&one.search(q, 10), &eight.search(q, 10), q);
        }
        assert_eq!(one.vocab_size(), eight.vocab_size());
    }

    #[test]
    fn relevant_docs_rank_first() {
        let hits = engine().search("seafood lobster", 10);
        // Docs 0 and 2 mention both terms; doc 1 mentions neither.
        let top2: Vec<u32> = hits.iter().take(2).map(|h| h.doc).collect();
        assert!(top2.contains(&0) && top2.contains(&2), "top2 = {top2:?}");
        assert!(hits.iter().all(|h| h.doc != 1));
        for (i, h) in hits.iter().enumerate() {
            assert_eq!(h.rank, i + 1);
        }
        assert!(hits.windows(2).all(|w| w[0].score >= w[1].score));
    }

    #[test]
    fn stemming_titles_and_snippets() {
        let e = engine();
        // "bookings" stems to the same term as "booking" in doc 3.
        assert!(e.search("bookings", 10).iter().any(|h| h.doc == 3));
        // Title terms are indexed.
        let hits = e.search("shack", 10);
        assert_eq!(hits.iter().map(|h| h.doc).collect::<Vec<_>>(), vec![0]);
        assert!(e.search("lobster", 10)[0].snippet.to_lowercase().contains("lobster"));
    }

    #[test]
    fn tie_break_is_doc_id_ascending_also_under_bounded_k() {
        let e = tied(6);
        let ids = |k| e.search("identical", k).iter().map(|h| h.doc).collect::<Vec<u32>>();
        assert_eq!(ids(10), vec![0, 1, 2, 3, 4, 5]);
        // All six docs tie; the heap must keep (and order) the lowest ids.
        assert_eq!(ids(3), vec![0, 1, 2]);
        assert_hits_identical(
            &e.search("identical", 3),
            &e.search_exhaustive("identical", 3),
            "ties, k=3",
        );
    }

    #[test]
    fn empty_and_edge_queries() {
        for idx in [engine(), segmented(2)] {
            assert!(idx.search("", 10).is_empty());
            assert!(idx.search("seafood", 0).is_empty());
            assert_eq!(idx.search("seafood", 1).len(), 1);
            assert!(idx.search("zzzqqq", 10).is_empty());
            assert!(idx.search("the of and", 10).is_empty(), "stopword-only query");
            assert!(idx.search_exhaustive("seafood", 0).is_empty());
        }
        let empty = SegmentedIndex::empty(Analyzer::default());
        assert!(empty.search("seafood", 10).is_empty());
        assert_eq!(empty.doc_count(), 0);
    }

    #[test]
    fn search_tokens_matches_search() {
        let e = engine();
        let toks = e.analyze_text("seafood lobster");
        assert_eq!(e.search_tokens(&toks, 10), e.search("seafood lobster", 10));
    }

    #[test]
    fn rank_then_cut_matches_search_tokens_for_any_subset() {
        for idx in [engine(), segmented(2)] {
            for q in ["seafood lobster", "harbor", "seafood seafood lobster", "zzz"] {
                let toks = idx.analyze_text(q);
                let full = idx.search_tokens(&toks, 10);
                let ids = idx.terms().ids(&toks);
                let ranked = idx.rank_tokens(&ids, None, 10).0;
                let all: Vec<usize> = (0..ranked.len()).collect();
                let cut = |which: &[usize]| -> Vec<SearchHit> {
                    let cut = idx.cut_hits(&ids, &ranked, which);
                    for c in &cut {
                        // The window's forms joined are the snippet.
                        let forms = idx.segments()[c.segment].forms();
                        let words: Vec<&str> = c.forms.iter().map(|&f| forms[f as usize].as_str()).collect();
                        assert_eq!(words.join(" "), c.hit.snippet, "q={q:?}");
                    }
                    cut.into_iter().map(|c| c.hit).collect()
                };
                assert_eq!(cut(&all), full, "q={q:?}");
                // A subset, out of order, or one hit at a time: the same hits.
                let odd_rev: Vec<usize> =
                    all.iter().rev().copied().filter(|i| i % 2 == 1).collect();
                let want: Vec<SearchHit> = odd_rev.iter().map(|&i| full[i].clone()).collect();
                assert_eq!(cut(&odd_rev), want, "q={q:?}");
                for &i in &all {
                    assert_eq!(cut(&[i]), [full[i].clone()], "q={q:?}");
                }
            }
        }
    }

    #[test]
    fn stats_accessors() {
        let e = engine();
        assert_eq!(e.doc_count(), 5);
        assert!(e.avg_doc_len() > 5.0);
        assert!(e.vocab_size() > 10);
        assert!(e.postings_bytes() > 0 && e.postings_bytes() < e.index_bytes());
    }

    #[test]
    fn add_segment_updates_global_stats() {
        let mut idx = segmented(5); // one segment
        assert_eq!(idx.num_segments(), 1);
        let mut b = SegmentBuilder::new(Analyzer::default());
        b.add("http://f.test/5", "New seafood place", "seafood tapas with harbor views");
        idx.add_segment(b.finish_segment().expect("seg")).expect("add");
        assert_eq!(idx.num_segments(), 2);
        assert_eq!(idx.doc_count(), 6);
        // New doc retrievable under global ids.
        let hits = idx.search("tapas", 10);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].doc, 5);
        // And scores still agree with a monolithic engine over all 6.
        let mut eb = IndexBuilder::new();
        for (i, (u, t, body)) in DOCS.iter().enumerate() {
            eb.add(StoredDoc::new(i as u32, u, t, body));
        }
        eb.add(StoredDoc::new(5, "http://f.test/5", "New seafood place",
            "seafood tapas with harbor views"));
        let eng = eb.build();
        for q in ["seafood", "harbor lobster"] {
            assert_hits_identical(&idx.search(q, 10), &eng.search(q, 10), q);
        }
    }

    #[test]
    fn build_parallel_is_thread_count_invariant() {
        let a = segmented(2);
        let b = SegmentedIndex::build_parallel(Analyzer::default(), DOCS.len(), 2, 1, |i| {
            let (u, t, body) = DOCS[i];
            (u.to_string(), t.to_string(), body.to_string())
        })
        .expect("build");
        assert_eq!(a.num_segments(), b.num_segments());
        for (x, y) in a.segments().iter().zip(b.segments()) {
            assert_eq!(x.file_bytes(), y.file_bytes(), "segment bytes differ by threads");
        }
    }

    #[test]
    fn doc_accessor_rewrites_global_id() {
        let idx = segmented(2);
        for g in 0..5u32 {
            let d = idx.doc(g);
            assert_eq!(d.id, g);
            assert_eq!(&*d.url, DOCS[g as usize].0);
        }
    }
}
