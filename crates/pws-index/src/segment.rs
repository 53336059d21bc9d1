//! Immutable index segments: offline build, lazy load.
//!
//! A [`Segment`] is the unit of on-disk index storage: an inverted index
//! over a contiguous slice of the corpus, written once by
//! [`SegmentBuilder`] and never mutated. Postings are stored as
//! **block-compressed** runs of up to [`BLOCK_SIZE`] `(doc, tf)` pairs;
//! each block carries its last doc id, its maximum term frequency, and
//! the minimum document length among its docs. The last two are
//! collection-statistics-independent block-max impact bounds; they are
//! written and validated, but the executor (`exec`) scans every
//! block and reads neither (dropping them waits for a format version).
//!
//! Every body is also stored **tokenised**: the segment's distinct body
//! tokens (its *forms*, exactly what [`pws_text::tokenize()`] outputs) and
//! each body's token sequence as form ids. The builder writes them from
//! the one tokenisation it indexes with, and a snippet is cut from the
//! ids ([`crate::snippet`]) — serving tokenises and stems no body.
//!
//! Loading parses and checksums the section table ([`crate::segfile`]),
//! decodes the term dictionary, the block tables, the doc lengths and the
//! forms, checks every form id of the stream, and leaves postings payloads
//! and the document store **encoded in place**. A segment's terms and
//! forms get their ids, and its forms their stems, in the term table of
//! the index serving it ([`crate::terms`]).
//!
//! A segment is cheaply cloneable (`Arc` inside), so an index over a
//! segment set is cloned without copying index data.

use crate::codec::{read_varint, write_varint};
use crate::search::StoredDoc;
use crate::segfile::{SegmentError, SEGMENT_FORMAT};
use pws_obs::format::{le_u64, FormatError};
use pws_text::{Analyzer, Interner, Sym};
use std::borrow::Cow;
use std::collections::HashSet;
use std::sync::Arc;

/// Maximum `(doc, tf)` pairs per postings block. 128 keeps block decode
/// cheap (fits a cache line budget) while making block skipping
/// worthwhile on million-doc posting lists.
pub const BLOCK_SIZE: usize = 128;

/// One postings block's table entry (decoded from the `BlockMax`
/// section). `payload_off` is derived at load time from the running sum
/// of payload lengths — blocks are laid out contiguously in `(term,
/// block)` order inside the `Postings` section.
#[derive(Debug, Clone, Copy)]
pub struct BlockMeta {
    /// Last (largest) doc id in the block — the block-skip key.
    pub last_doc: u32,
    /// Number of postings in the block (1..=BLOCK_SIZE).
    pub doc_count: u32,
    /// Maximum term frequency within the block.
    pub max_tf: u32,
    /// Minimum document length among the block's docs. Together with
    /// `max_tf` this upper-bounds the block's BM25 impact under any
    /// global statistics (BM25 is increasing in tf, decreasing in len).
    pub min_dlen: u32,
    /// Payload byte offset within the `Postings` section.
    pub payload_off: usize,
    /// Payload byte length.
    pub payload_len: usize,
}

/// Decode one block payload of `n` postings (`n` doc varints — the first
/// absolute, the rest deltas — then `n` tf varints) onto `out`. `false`
/// on a truncated payload, an over-long varint or trailing bytes.
fn decode_postings(payload: &[u8], n: usize, out: &mut Vec<(u32, u32)>) -> bool {
    if n == 0 {
        return payload.is_empty();
    }
    // The block's first doc id is stored absolute (usually ≥ 128, so
    // multi-byte); everything after it is a delta or a tf.
    let mut p = payload;
    let Some(first) = read_varint(&mut p) else { return false };
    // Dense-posting fast path: the remaining 2n − 1 varints occupying
    // exactly 2n − 1 bytes means each is a single (high-bit-clear)
    // byte — decode with straight byte loads. The byte scan also
    // rejects payloads with stray continuation bits (over-long
    // encodings), which the writer never emits.
    if p.len() == 2 * n - 1 && p.iter().all(|&x| x < 0x80) {
        #[cfg(test)]
        FAST_BLOCKS.with(|c| c.set(c.get() + 1));
        let (deltas, tfs) = p.split_at(n - 1);
        out.push((first, u32::from(tfs[0])));
        let mut doc = first;
        out.extend(deltas.iter().zip(&tfs[1..]).map(|(&d, &tf)| {
            doc = doc.wrapping_add(u32::from(d));
            (doc, u32::from(tf))
        }));
        return true;
    }
    let mut doc = first;
    out.push((doc, 0));
    for _ in 1..n {
        let Some(delta) = read_varint(&mut p) else { return false };
        doc = doc.wrapping_add(delta);
        out.push((doc, 0));
    }
    for entry in out.iter_mut().take(n) {
        let Some(tf) = read_varint(&mut p) else { return false };
        entry.1 = tf;
    }
    p.is_empty()
}

#[cfg(test)]
thread_local! {
    /// Blocks decoded through the single-byte fast path on this thread.
    static FAST_BLOCKS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Per-term metadata: document frequency plus the term's block range.
#[derive(Debug, Clone)]
pub(crate) struct TermMeta {
    /// Document frequency within this segment.
    pub df: u32,
    /// Range into the segment's flat block table.
    pub blocks: std::ops::Range<usize>,
}

#[derive(Debug)]
struct SegmentInner {
    bytes: Vec<u8>,
    analyzer: Analyzer,
    /// Term strings in ord order (dictionary order of the builder).
    terms: Vec<String>,
    term_meta: Vec<TermMeta>,
    blocks: Vec<BlockMeta>,
    doc_lens: Vec<u32>,
    doc_count: u32,
    total_len: u64,
    /// Absolute offset of the `Postings` section payload.
    postings_off: usize,
    /// Combined length of the `Postings` and `BlockMax` sections.
    postings_bytes: usize,
    /// Absolute offset + length of the `DocIndex` section.
    doc_index_off: usize,
    /// Absolute offset + length of the `Docs` section.
    docs_off: usize,
    docs_len: usize,
    /// The distinct body tokens (form id = position).
    forms: Vec<String>,
    /// Absolute offset of the `DocForms` id stream; the end-offset table
    /// follows it.
    doc_forms_off: usize,
    /// Absolute offset of the `DocForms` end-offset table.
    doc_form_ends_off: usize,
    /// Lazily-built per-doc `k1 · norm(len)` table for the scoring loops,
    /// keyed by the (params, avg_len) it was computed under.
    k1_norms: std::sync::OnceLock<(crate::score::Bm25Params, f64, Vec<f64>)>,
}

/// An immutable, on-disk-backed index segment. Cloning shares the
/// underlying file bytes and decoded tables (`Arc`).
#[derive(Debug, Clone)]
pub struct Segment {
    inner: Arc<SegmentInner>,
}

impl Segment {
    /// Load a segment from an in-memory copy of its file bytes,
    /// validating magic, version, section table, and checksums. Postings
    /// payloads and document records stay encoded (lazy).
    pub fn load_bytes(bytes: impl Into<Vec<u8>>) -> Result<Segment, SegmentError> {
        let _span = metrics_load().span();
        let bytes: Vec<u8> = bytes.into();
        let sections = SEGMENT_FORMAT.parse(&bytes)?;
        let [mut m, mut t, mut b, postings, di, docs, mut dl, mut fm, df] = sections[..] else {
            unreachable!("parse returns one payload per section");
        };
        // Every payload is a slice of `bytes`.
        let offset = |section: &[u8]| section.as_ptr() as usize - bytes.as_ptr() as usize;
        let (docs_off, doc_index_off, postings_off) = (offset(docs), offset(di), offset(postings));
        let (postings_len, blockmax_len, docs_len) = (postings.len(), b.len(), docs.len());

        // ── Meta ─────────────────────────────────────────────────────
        let doc_count =
            read_varint(&mut m).ok_or(FormatError::Truncated("Meta.doc_count"))?;
        let hi = read_varint(&mut m).ok_or(FormatError::Truncated("Meta.total_len"))?;
        let lo = read_varint(&mut m).ok_or(FormatError::Truncated("Meta.total_len"))?;
        let total_len = (u64::from(hi) << 32) | u64::from(lo);
        if m.len() < 2 {
            return Err(FormatError::Truncated("Meta.analyzer").into());
        }
        let (remove_stopwords, stem) = (m[0] != 0, m[1] != 0);
        m = &m[2..];
        let min_token_len =
            read_varint(&mut m).ok_or(FormatError::Truncated("Meta.analyzer"))? as usize;
        let max_token_len =
            read_varint(&mut m).ok_or(FormatError::Truncated("Meta.analyzer"))? as usize;
        if !m.is_empty() {
            return Err(FormatError::Malformed("trailing bytes in Meta").into());
        }
        let analyzer = Analyzer { remove_stopwords, stem, min_token_len, max_token_len };

        // ── Terms ────────────────────────────────────────────────────
        let n_terms =
            read_varint(&mut t).ok_or(FormatError::Truncated("Terms.count"))? as usize;
        let mut seen = HashSet::with_capacity(n_terms.min(t.len()));
        let mut terms = Vec::with_capacity(n_terms.min(t.len()));
        for _ in 0..n_terms {
            let len =
                read_varint(&mut t).ok_or(FormatError::Truncated("Terms.len"))? as usize;
            if t.len() < len {
                return Err(FormatError::Truncated("Terms.bytes").into());
            }
            let s = std::str::from_utf8(&t[..len])
                .map_err(|_| FormatError::Malformed("non-utf8 term"))?;
            t = &t[len..];
            if !seen.insert(s) {
                return Err(FormatError::Malformed("duplicate term").into());
            }
            terms.push(s.to_string());
        }
        if !t.is_empty() {
            return Err(FormatError::Malformed("trailing bytes in Terms").into());
        }

        // ── BlockMax table ───────────────────────────────────────────
        let mut term_meta = Vec::with_capacity(n_terms);
        let mut blocks: Vec<BlockMeta> = Vec::new();
        let mut payload_off = 0usize;
        for _ in 0..n_terms {
            let n_blocks =
                read_varint(&mut b).ok_or(FormatError::Truncated("BlockMax.count"))?;
            let start = blocks.len();
            let mut df = 0u64;
            let mut prev_last = None::<u32>;
            for _ in 0..n_blocks {
                let last_doc =
                    read_varint(&mut b).ok_or(FormatError::Truncated("BlockMax.entry"))?;
                let bdc =
                    read_varint(&mut b).ok_or(FormatError::Truncated("BlockMax.entry"))?;
                let max_tf =
                    read_varint(&mut b).ok_or(FormatError::Truncated("BlockMax.entry"))?;
                let min_dlen =
                    read_varint(&mut b).ok_or(FormatError::Truncated("BlockMax.entry"))?;
                let payload_len =
                    read_varint(&mut b).ok_or(FormatError::Truncated("BlockMax.entry"))?
                        as usize;
                if bdc == 0 || bdc as usize > BLOCK_SIZE {
                    return Err(FormatError::Malformed("block doc_count out of range").into());
                }
                if last_doc >= doc_count {
                    return Err(FormatError::Malformed("block last_doc out of range").into());
                }
                if prev_last.is_some_and(|p| last_doc <= p) {
                    return Err(FormatError::Malformed("blocks not ascending").into());
                }
                prev_last = Some(last_doc);
                df += u64::from(bdc);
                blocks.push(BlockMeta {
                    last_doc,
                    doc_count: bdc,
                    max_tf,
                    min_dlen,
                    payload_off,
                    payload_len,
                });
                payload_off = payload_off
                    .checked_add(payload_len)
                    .ok_or(FormatError::Malformed("postings offset overflow"))?;
            }
            let df = u32::try_from(df).map_err(|_| FormatError::Malformed("df overflow"))?;
            term_meta.push(TermMeta { df, blocks: start..blocks.len() });
        }
        if !b.is_empty() {
            return Err(FormatError::Malformed("trailing bytes in BlockMax").into());
        }
        if payload_off != postings_len {
            return Err(FormatError::Malformed("postings length mismatch").into());
        }

        // ── DocIndex: monotone offsets into Docs ─────────────────────
        if di.len() != doc_count as usize * 8 {
            return Err(FormatError::Malformed("doc index length mismatch").into());
        }
        let mut prev = 0u64;
        for i in 0..doc_count as usize {
            let off = le_u64(&di[i * 8..]);
            if off > docs_len as u64 || (i > 0 && off < prev) {
                return Err(FormatError::Malformed("doc index offsets out of range").into());
            }
            prev = off;
        }

        // ── DocLens ──────────────────────────────────────────────────
        let mut doc_lens = Vec::with_capacity(doc_count as usize);
        for _ in 0..doc_count {
            doc_lens.push(read_varint(&mut dl).ok_or(FormatError::Truncated("DocLens"))?);
        }
        if !dl.is_empty() {
            return Err(FormatError::Malformed("trailing bytes in DocLens").into());
        }

        // ── Forms ────────────────────────────────────────────────────
        let n_forms = read_varint(&mut fm).ok_or(FormatError::Truncated("Forms.count"))? as usize;
        let mut forms = Vec::with_capacity(n_forms.min(fm.len()));
        let mut seen = HashSet::with_capacity(n_forms.min(fm.len()));
        for _ in 0..n_forms {
            let len = read_varint(&mut fm).ok_or(FormatError::Truncated("Forms.len"))? as usize;
            if fm.len() < len {
                return Err(FormatError::Truncated("Forms.bytes").into());
            }
            let form = std::str::from_utf8(&fm[..len])
                .map_err(|_| FormatError::Malformed("non-utf8 form"))?;
            fm = &fm[len..];
            if form.is_empty() || !seen.insert(form) {
                return Err(FormatError::Malformed("empty or duplicate form").into());
            }
            forms.push(form.to_string());
        }
        if !fm.is_empty() {
            return Err(FormatError::Malformed("trailing bytes in Forms").into());
        }
        // ── DocForms: the form-id stream, then per-doc end offsets ───
        let table = doc_count as usize * 8;
        if df.len() < table {
            return Err(FormatError::Truncated("DocForms.offsets").into());
        }
        let (stream, ends) = df.split_at(df.len() - table);
        let (doc_forms_off, doc_form_ends_off) = (offset(df), offset(ends));
        let mut start = 0usize;
        for i in 0..doc_count as usize {
            let end = le_u64(&ends[i * 8..]);
            if end < start as u64 || end > stream.len() as u64 {
                return Err(FormatError::Malformed("DocForms offsets not monotone").into());
            }
            let mut run = &stream[start..end as usize];
            while !run.is_empty() {
                let id = read_varint(&mut run).ok_or(FormatError::Truncated("DocForms.ids"))?;
                if id as usize >= n_forms {
                    return Err(FormatError::Malformed("form id out of range").into());
                }
            }
            start = end as usize;
        }
        if start != stream.len() {
            return Err(FormatError::Malformed("trailing bytes in DocForms").into());
        }

        Ok(Segment {
            inner: Arc::new(SegmentInner {
                analyzer,
                terms,
                term_meta,
                blocks,
                doc_lens,
                doc_count,
                total_len,
                postings_off,
                postings_bytes: postings_len + blockmax_len,
                doc_index_off,
                docs_off,
                docs_len,
                forms,
                doc_forms_off,
                doc_form_ends_off,
                bytes,
                k1_norms: std::sync::OnceLock::new(),
            }),
        })
    }

    /// Read and load a segment file from disk.
    pub fn open(path: impl AsRef<std::path::Path>) -> Result<Segment, SegmentError> {
        let bytes =
            std::fs::read(path.as_ref()).map_err(|e| SegmentError::Io(e.to_string()))?;
        Segment::load_bytes(bytes)
    }

    /// Write this segment's exact file bytes to disk.
    pub fn write_file(&self, path: impl AsRef<std::path::Path>) -> Result<(), SegmentError> {
        std::fs::write(path.as_ref(), &self.inner.bytes)
            .map_err(|e| SegmentError::Io(e.to_string()))
    }

    /// The segment's complete file bytes.
    pub fn file_bytes(&self) -> &[u8] {
        &self.inner.bytes
    }

    /// Bytes of the inverted index proper: the `Postings` + `BlockMax`
    /// sections.
    pub fn postings_bytes(&self) -> usize {
        self.inner.postings_bytes
    }

    /// Number of documents in the segment.
    pub fn doc_count(&self) -> u32 {
        self.inner.doc_count
    }

    /// Total indexed token count (for global average doc length).
    pub fn total_len(&self) -> u64 {
        self.inner.total_len
    }

    /// The analyzer the segment was built with.
    pub fn analyzer(&self) -> &Analyzer {
        &self.inner.analyzer
    }

    /// Terms in ord order, with their document frequencies.
    pub fn term_dfs(&self) -> impl Iterator<Item = (&str, u32)> {
        self.inner
            .terms
            .iter()
            .zip(&self.inner.term_meta)
            .map(|(t, m)| (t.as_str(), m.df))
    }

    /// Segment-local ord of `term` (already analyzed), if present — by
    /// scan: serving reaches a term through the index's term table.
    #[cfg(test)]
    pub(crate) fn term_ord(&self, term: &str) -> Option<u32> {
        self.inner.terms.iter().position(|t| t == term).map(|ord| ord as u32)
    }

    /// Per-term metadata (crate-internal: query execution).
    pub(crate) fn term_meta(&self, ord: u32) -> &TermMeta {
        &self.inner.term_meta[ord as usize]
    }

    /// The term's block table slice.
    pub(crate) fn term_blocks(&self, ord: u32) -> &[BlockMeta] {
        &self.inner.blocks[self.inner.term_meta[ord as usize].blocks.clone()]
    }

    /// The segment's full flat block table. Query execution stores
    /// absolute ranges into it (see [`crate::exec`]) so cursor state can
    /// live in pooled scratch buffers instead of borrowing per-term
    /// slices.
    pub(crate) fn all_blocks(&self) -> &[BlockMeta] {
        &self.inner.blocks
    }

    /// The term's range into the flat block table.
    pub(crate) fn term_block_range(&self, ord: u32) -> std::ops::Range<usize> {
        self.inner.term_meta[ord as usize].blocks.clone()
    }

    /// Document lengths (segment-local ids).
    pub(crate) fn doc_lens(&self) -> &[u32] {
        &self.inner.doc_lens
    }

    /// Per-doc `k1 · norm(len)` table (see [`crate::score::bm25_len_norm`]),
    /// built once on first use. Returns `None` if a later caller asks under
    /// different BM25 parameters (never in practice — params are fixed per
    /// index), in which case scoring falls back to the direct formula.
    pub(crate) fn k1_norms(&self, params: crate::score::Bm25Params, avg_len: f64) -> Option<&[f64]> {
        let (p, avg, table) = self.inner.k1_norms.get_or_init(|| {
            let t = self
                .inner
                .doc_lens
                .iter()
                .map(|&dl| crate::score::bm25_len_norm(params, dl, avg_len))
                .collect();
            (params, avg_len, t)
        });
        (*p == params && *avg == avg_len).then_some(table.as_slice())
    }

    /// Decode one postings block into `out` as absolute `(doc, tf)`
    /// pairs. Returns `false` (leaving `out` truncated) on a payload
    /// inconsistency — unreachable after a checksummed load, but the
    /// query path degrades to "skip block" rather than panicking.
    pub(crate) fn decode_block(&self, b: &BlockMeta, out: &mut Vec<(u32, u32)>) -> bool {
        out.clear();
        let inner = &self.inner;
        let start = inner.postings_off + b.payload_off;
        let Some(payload) = inner.bytes.get(start..start + b.payload_len) else {
            return false;
        };
        decode_postings(payload, b.doc_count as usize, out)
    }

    /// Decode every postings block of the segment once and return the
    /// number of postings decoded — the block decoder's benchmark hook
    /// (`bench_index`), not a query path.
    #[doc(hidden)]
    pub fn decode_all_blocks(&self) -> u64 {
        let mut buf = Vec::with_capacity(BLOCK_SIZE);
        let mut decoded = 0;
        for blk in self.all_blocks() {
            if self.decode_block(blk, &mut buf) {
                decoded += buf.len() as u64;
            }
        }
        decoded
    }

    /// Decode all of a term's postings through `f(doc, tf)`, in ascending
    /// doc order (undecodable blocks are skipped, as on the query path).
    pub(crate) fn for_each_posting(&self, ord: u32, mut f: impl FnMut(u32, u32)) {
        let mut buf = Vec::with_capacity(BLOCK_SIZE);
        for blk in self.term_blocks(ord) {
            if self.decode_block(blk, &mut buf) {
                for &(d, tf) in &buf {
                    f(d, tf);
                }
            }
        }
    }

    /// Materialize one stored document (segment-local id) from the doc
    /// store. Decoding is on demand; a load never touches doc payloads.
    ///
    /// # Panics
    /// Panics if `local_id >= doc_count()` — an engine-level id-mapping
    /// bug, not a file-format condition (file structure was validated at
    /// load).
    pub fn doc(&self, local_id: u32) -> StoredDoc {
        let [url, title, body] = self.doc_fields(local_id);
        StoredDoc { id: local_id, url: url.into(), title: title.into(), body: body.into_owned() }
    }

    /// The first `N` of `[url, title, body]` of one stored document,
    /// borrowed from the segment's bytes wherever they are valid UTF-8
    /// (every record this crate wrote): a hit takes `[url, title]` and
    /// never decodes the body.
    ///
    /// # Panics
    /// As [`Segment::doc`].
    pub(crate) fn doc_fields<const N: usize>(&self, local_id: u32) -> [Cow<'_, str>; N] {
        let inner = &self.inner;
        assert!(local_id < inner.doc_count, "doc id {local_id} out of range");
        let di = &inner.bytes[inner.doc_index_off..];
        let start = le_u64(&di[local_id as usize * 8..]) as usize;
        let mut rec = &inner.bytes[inner.docs_off + start..inner.docs_off + inner.docs_len];
        [(); N].map(|()| {
            let len = read_varint(&mut rec).map_or(0, |l| l as usize).min(rec.len());
            let (field, rest) = rec.split_at(len);
            rec = rest;
            String::from_utf8_lossy(field)
        })
    }

    /// Read the bytes cutting document `local_id` starts from — its
    /// `DocIndex` and `DocForms` offsets, the head of its record, the two
    /// ends of its form run — and fold them into one byte. A caller about
    /// to cut many documents touches them all first, so their cache misses
    /// overlap instead of queueing one document at a time.
    ///
    /// # Panics
    /// As [`Segment::doc`].
    pub(crate) fn touch(&self, local_id: u32) -> u8 {
        let (inner, i) = (&self.inner, local_id as usize);
        assert!(local_id < inner.doc_count, "doc id {local_id} out of range");
        let bytes = &inner.bytes;
        let record = inner.docs_off + le_u64(&bytes[inner.doc_index_off + i * 8..]) as usize;
        let run_end =
            inner.doc_forms_off + le_u64(&bytes[inner.doc_form_ends_off + i * 8..]) as usize;
        let last = bytes.len() - 1;
        bytes[record.min(last)]
            ^ bytes[(record + 64).min(last)]
            ^ bytes[run_end.saturating_sub(1)]
            ^ bytes[run_end.saturating_sub(64)]
    }

    /// The segment's forms: its distinct body tokens, exactly as
    /// [`pws_text::tokenize()`] outputs them (form id = position).
    pub fn forms(&self) -> &[String] {
        &self.inner.forms
    }

    /// One body's token sequence (segment-local id) as form ids, onto
    /// `out` (cleared first). The stream was checked at load, so this
    /// reads without re-validating.
    ///
    /// # Panics
    /// As [`Segment::doc`].
    pub(crate) fn doc_forms(&self, local_id: u32, out: &mut Vec<u32>) {
        let inner = &self.inner;
        assert!(local_id < inner.doc_count, "doc id {local_id} out of range");
        let ends = &inner.bytes[inner.doc_form_ends_off..];
        let end_of = |i: usize| inner.doc_forms_off + le_u64(&ends[i * 8..]) as usize;
        let i = local_id as usize;
        let start = if i == 0 { inner.doc_forms_off } else { end_of(i - 1) };
        let mut run = &inner.bytes[start..end_of(i)];
        out.clear();
        while let Some((&byte, rest)) = run.split_first() {
            // Most ids are one byte.
            if byte < 0x80 {
                out.push(u32::from(byte));
                run = rest;
            } else if let Some(id) = read_varint(&mut run) {
                out.push(id);
            } else {
                break;
            }
        }
    }
}

/// Forward-only lookup of one term's tf at ascending segment-local doc
/// ids: a block holding several of the asked docs is decoded once.
pub(crate) struct TfCursor<'a> {
    seg: &'a Segment,
    blocks: &'a [BlockMeta],
    /// First block whose `last_doc` ≥ the last asked doc.
    bi: usize,
    /// Whether `buf` holds `blocks[bi]`.
    decoded: bool,
    buf: Vec<(u32, u32)>,
}

impl<'a> TfCursor<'a> {
    /// A cursor over the term of ordinal `ord`.
    pub(crate) fn new(seg: &'a Segment, ord: u32) -> Self {
        let blocks = seg.term_blocks(ord);
        TfCursor { seg, blocks, bi: 0, decoded: false, buf: Vec::with_capacity(BLOCK_SIZE) }
    }

    /// The term's frequency in `doc`, or `None` when `doc` lacks the term.
    /// Calls must ask for non-decreasing doc ids.
    pub(crate) fn tf_at(&mut self, doc: u32) -> Option<u32> {
        let skip = self.blocks[self.bi..].partition_point(|b| b.last_doc < doc);
        if skip > 0 {
            self.bi += skip;
            self.decoded = false;
        }
        let blk = self.blocks.get(self.bi)?;
        if !self.decoded {
            if !self.seg.decode_block(blk, &mut self.buf) {
                self.buf.clear();
            }
            self.decoded = true;
        }
        let p = self.buf.binary_search_by_key(&doc, |&(d, _)| d).ok()?;
        Some(self.buf[p].1)
    }
}

/// Process-wide `segment.load` stage handle.
fn metrics_load() -> &'static pws_obs::StageMetrics {
    static STAGE: std::sync::OnceLock<std::sync::Arc<pws_obs::StageMetrics>> =
        std::sync::OnceLock::new();
    STAGE.get_or_init(|| pws_obs::stage("segment.load"))
}

/// Builds one immutable segment: feed documents in order, then
/// [`SegmentBuilder::finish`] to produce the on-disk bytes (or
/// [`SegmentBuilder::finish_segment`] to get a loaded [`Segment`] —
/// build always round-trips through the file format, so every segment
/// in existence is proof the format decodes).
#[derive(Debug)]
pub struct SegmentBuilder {
    analyzer: Analyzer,
    interner: Interner,
    /// Per-term uncompressed `(local doc, tf)` pairs, ascending by doc.
    postings: Vec<Vec<(u32, u32)>>,
    /// The document in hand's term frequencies by symbol; all zero
    /// between documents.
    tf: Vec<u32>,
    /// Symbols whose `tf` the document in hand made non-zero.
    touched: Vec<pws_text::Sym>,
    doc_lens: Vec<u32>,
    total_len: u64,
    /// Encoded doc records (url/title/body, varint-length-prefixed).
    doc_payload: Vec<u8>,
    /// Byte offset of each record within `doc_payload`.
    doc_offsets: Vec<u64>,
    /// The distinct body tokens seen so far (form id = symbol).
    forms: Interner,
    /// Per form id, the term it indexes as (`None`: the analyser drops it).
    form_terms: Vec<Option<Sym>>,
    /// Every body's form ids, varint-encoded.
    doc_forms: Vec<u8>,
    /// End offset of each body's run within `doc_forms`.
    doc_form_ends: Vec<u64>,
}

impl SegmentBuilder {
    /// Empty builder over `analyzer`.
    pub fn new(analyzer: Analyzer) -> Self {
        SegmentBuilder {
            analyzer,
            interner: Interner::new(),
            postings: Vec::new(),
            tf: Vec::new(),
            touched: Vec::new(),
            doc_lens: Vec::new(),
            total_len: 0,
            doc_payload: Vec::new(),
            doc_offsets: Vec::new(),
            forms: Interner::new(),
            form_terms: Vec::new(),
            doc_forms: Vec::new(),
            doc_form_ends: Vec::new(),
        }
    }

    /// Number of documents added so far (== the next local doc id).
    pub fn len(&self) -> usize {
        self.doc_offsets.len()
    }

    /// True before the first [`SegmentBuilder::add`].
    pub fn is_empty(&self) -> bool {
        self.doc_offsets.is_empty()
    }

    /// Add one document; returns its segment-local id. Indexes
    /// `title + body` (titles count toward BM25, as in
    /// [`StoredDoc::indexable_text`]): the title's tokens, then the body's,
    /// streamed straight into term ids — the tokens of
    /// `format!("{title} {body}")`, since the space between them is a
    /// separator either way. The body is tokenised once: each token is
    /// appended to the form stream, and a form is analysed on first sight
    /// only.
    pub fn add(&mut self, url: &str, title: &str, body: &str) -> u32 {
        let _span = metrics_add().span();
        let local = self.doc_offsets.len() as u32;
        let SegmentBuilder { analyzer, interner, tf, touched, forms, form_terms, doc_forms, .. } =
            self;
        let mut len = 0u32;
        let mut count = |sym: Sym| {
            if sym.index() >= tf.len() {
                tf.resize(sym.index() + 1, 0);
            }
            if tf[sym.index()] == 0 {
                touched.push(sym);
            }
            tf[sym.index()] += 1;
            len += 1;
        };
        analyzer.for_each_token(title, |t| count(interner.intern(t)));
        pws_text::tokenize::for_each_token(body, |form| {
            let id = forms.intern(form);
            if id.index() == form_terms.len() {
                form_terms.push(analyzer.term_of(form).map(|t| interner.intern(&t)));
            }
            if let Some(sym) = form_terms[id.index()] {
                count(sym);
            }
            write_varint(doc_forms, id.0);
        });
        self.doc_form_ends.push(self.doc_forms.len() as u64);
        self.doc_lens.push(len);
        self.total_len += u64::from(len);

        if self.interner.len() > self.postings.len() {
            self.postings.resize_with(self.interner.len(), Vec::new);
        }
        self.touched.sort_unstable();
        for sym in self.touched.drain(..) {
            self.postings[sym.index()].push((local, std::mem::take(&mut self.tf[sym.index()])));
        }

        self.doc_offsets.push(self.doc_payload.len() as u64);
        write_str(&mut self.doc_payload, url);
        write_str(&mut self.doc_payload, title);
        write_str(&mut self.doc_payload, body);
        local
    }

    /// Emit the segment file bytes.
    pub fn finish(self) -> Vec<u8> {
        let _span = metrics_build().span();
        let mut meta = Vec::new();
        write_varint(&mut meta, self.doc_offsets.len() as u32);
        write_varint(&mut meta, (self.total_len >> 32) as u32);
        write_varint(&mut meta, (self.total_len & 0xFFFF_FFFF) as u32);
        meta.push(u8::from(self.analyzer.remove_stopwords));
        meta.push(u8::from(self.analyzer.stem));
        write_varint(&mut meta, self.analyzer.min_token_len as u32);
        write_varint(&mut meta, self.analyzer.max_token_len as u32);

        let mut terms = Vec::new();
        write_varint(&mut terms, self.interner.len() as u32);
        for (_, s) in self.interner.iter() {
            write_str(&mut terms, s);
        }

        // Block tables + payloads, in term-ord order. Each term's
        // uncompressed list is freed as soon as it is encoded.
        let mut blockmax = Vec::new();
        let mut payloads = Vec::new();
        for pairs in self.postings {
            let n_blocks = pairs.chunks(BLOCK_SIZE).count();
            write_varint(&mut blockmax, n_blocks as u32);
            for chunk in pairs.chunks(BLOCK_SIZE) {
                let last_doc = chunk.last().expect("nonempty chunk").0;
                let max_tf = chunk.iter().map(|&(_, tf)| tf).max().unwrap_or(0);
                let min_dlen = chunk
                    .iter()
                    .map(|&(d, _)| self.doc_lens[d as usize])
                    .min()
                    .unwrap_or(0);
                let start = payloads.len();
                let mut prev = 0u32;
                for (i, &(d, _)) in chunk.iter().enumerate() {
                    write_varint(&mut payloads, if i == 0 { d } else { d - prev });
                    prev = d;
                }
                for &(_, tf) in chunk {
                    write_varint(&mut payloads, tf);
                }
                write_varint(&mut blockmax, last_doc);
                write_varint(&mut blockmax, chunk.len() as u32);
                write_varint(&mut blockmax, max_tf);
                write_varint(&mut blockmax, min_dlen);
                write_varint(&mut blockmax, (payloads.len() - start) as u32);
            }
        }
        let mut doc_index = Vec::with_capacity(self.doc_offsets.len() * 8);
        for off in &self.doc_offsets {
            doc_index.extend_from_slice(&off.to_le_bytes());
        }

        let mut doc_lens = Vec::new();
        for &l in &self.doc_lens {
            write_varint(&mut doc_lens, l);
        }

        let mut forms = Vec::new();
        write_varint(&mut forms, self.forms.len() as u32);
        for (_, s) in self.forms.iter() {
            write_str(&mut forms, s);
        }
        // The offsets go after the stream, so the stream is not copied.
        let mut doc_forms = self.doc_forms;
        doc_forms.reserve_exact(self.doc_form_ends.len() * 8);
        for end in &self.doc_form_ends {
            doc_forms.extend_from_slice(&end.to_le_bytes());
        }

        SEGMENT_FORMAT.write(vec![
            meta,
            terms,
            blockmax,
            payloads,
            doc_index,
            self.doc_payload,
            doc_lens,
            forms,
            doc_forms,
        ])
    }

    /// [`SegmentBuilder::finish`] followed by [`Segment::load_bytes`].
    pub fn finish_segment(self) -> Result<Segment, SegmentError> {
        Segment::load_bytes(self.finish())
    }
}

/// Process-wide `segment.add` stage handle.
fn metrics_add() -> &'static pws_obs::StageMetrics {
    static STAGE: std::sync::OnceLock<std::sync::Arc<pws_obs::StageMetrics>> =
        std::sync::OnceLock::new();
    STAGE.get_or_init(|| pws_obs::stage("segment.add"))
}

/// Process-wide `segment.build` stage handle.
fn metrics_build() -> &'static pws_obs::StageMetrics {
    static STAGE: std::sync::OnceLock<std::sync::Arc<pws_obs::StageMetrics>> =
        std::sync::OnceLock::new();
    STAGE.get_or_init(|| pws_obs::stage("segment.build"))
}

fn write_str(out: &mut Vec<u8>, s: &str) {
    write_varint(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn build_small() -> Segment {
        let mut b = SegmentBuilder::new(Analyzer::default());
        b.add("http://a.test/0", "Crab shack menu",
            "fresh seafood lobster and crab daily specials near the harbor");
        b.add("http://b.test/1", "Phone deals",
            "unlocked android smartphone with great battery and camera");
        b.add("http://c.test/2", "Seafood city guide",
            "the seafood guide covers lobster rolls oyster bars and sushi");
        b.finish_segment().expect("round trip")
    }

    #[test]
    fn build_load_round_trip() {
        let s = build_small();
        assert_eq!(s.doc_count(), 3);
        assert!(s.total_len() > 0);
        let d = s.doc(0);
        assert_eq!(&*d.url, "http://a.test/0");
        assert_eq!(&*d.title, "Crab shack menu");
        assert!(d.body.contains("lobster"));
        // Term present with the right df.
        let ord = s.term_ord("seafood").expect("indexed");
        assert_eq!(s.term_meta(ord).df, 2);
    }

    /// The general varint loop alone — the oracle for the fast path.
    fn decode_general(payload: &[u8], n: usize) -> Option<Vec<(u32, u32)>> {
        let mut p = payload;
        let mut docs = Vec::new();
        for i in 0..n {
            let v = read_varint(&mut p)?;
            docs.push(if i == 0 { v } else { docs[i - 1] + v });
        }
        let tfs: Vec<u32> = (0..n).map(|_| read_varint(&mut p)).collect::<Option<_>>()?;
        p.is_empty().then(|| docs.into_iter().zip(tfs).collect())
    }

    fn encode_block(postings: &[(u32, u32)]) -> Vec<u8> {
        let mut out = Vec::new();
        let mut prev = None;
        for &(d, _) in postings {
            write_varint(&mut out, prev.map_or(d, |p| d - p));
            prev = Some(d);
        }
        for &(_, tf) in postings {
            write_varint(&mut out, tf);
        }
        out
    }

    /// Decode `payload` and report (result, whether the fast path ran).
    fn decode_counted(payload: &[u8], n: usize) -> (Option<Vec<(u32, u32)>>, bool) {
        let before = FAST_BLOCKS.with(|c| c.get());
        let mut out = Vec::new();
        let ok = decode_postings(payload, n, &mut out);
        (ok.then_some(out), FAST_BLOCKS.with(|c| c.get()) > before)
    }

    #[test]
    fn block_decoder_fast_path_takes_a_multi_byte_first_doc() {
        // First doc ≥ 128 (a two-byte varint), every delta and tf one byte.
        let dense: Vec<(u32, u32)> = (0..100).map(|i| (300 + 2 * i, 1 + i % 5)).collect();
        let payload = encode_block(&dense);
        assert_eq!(payload.len(), 2 * dense.len() + 1, "first doc takes two bytes");
        let (got, fast) = decode_counted(&payload, dense.len());
        assert!(fast, "one-byte deltas after an absolute first doc take the fast path");
        assert_eq!(got.as_deref(), Some(&dense[..]));
        assert_eq!(got, decode_general(&payload, dense.len()));

        // One two-byte delta sends the block down the general path.
        let mut sparse = dense.clone();
        for p in &mut sparse[50..] {
            p.0 += 1_000;
        }
        let payload = encode_block(&sparse);
        let (got, fast) = decode_counted(&payload, sparse.len());
        assert!(!fast, "a multi-byte delta must not take the fast path");
        assert_eq!(got.as_deref(), Some(&sparse[..]));
        assert_eq!(got, decode_general(&payload, sparse.len()));

        // A one-posting block is all first doc and tf.
        let one = encode_block(&[(70_000, 3)]);
        assert_eq!(decode_counted(&one, 1), (Some(vec![(70_000, 3)]), true));
    }

    #[test]
    fn block_decoder_rejects_malformed_payloads() {
        let dense: Vec<(u32, u32)> = (0..20).map(|i| (500 + i, 1)).collect();
        let payload = encode_block(&dense);
        let n = dense.len();
        // Truncated at every length, and one trailing byte too many.
        for cut in 0..payload.len() {
            assert_eq!(decode_counted(&payload[..cut], n).0, None, "truncated to {cut}");
        }
        let mut long = payload.clone();
        long.push(1);
        assert_eq!(decode_counted(&long, n).0, None, "trailing byte");
        // An over-long (> 5 byte) first doc id.
        let mut overlong = vec![0x80; 6];
        overlong.extend_from_slice(&payload[2..]);
        assert_eq!(decode_counted(&overlong, n).0, None, "over-long first varint");
        // A stray continuation bit in a delta keeps the byte count of the
        // fast path but must not be read as a one-byte delta.
        let mut stray = payload.clone();
        stray[5] |= 0x80;
        let (got, fast) = decode_counted(&stray, n);
        assert!(!fast);
        assert_eq!(got, decode_general(&stray, n));
        // An empty block only decodes from an empty payload.
        assert_eq!(decode_counted(&[], 0).0, Some(vec![]));
        assert_eq!(decode_counted(&[1], 0).0, None);
    }

    #[test]
    fn blocks_cover_all_postings() {
        let mut b = SegmentBuilder::new(Analyzer::verbatim());
        for i in 0..500u32 {
            b.add(&format!("u{i}"), "t", &format!("common word{}", i % 7));
        }
        let s = b.finish_segment().expect("round trip");
        let ord = s.term_ord("common").expect("present");
        let blocks = s.term_blocks(ord);
        assert!(blocks.len() > 1, "500 docs must span multiple blocks");
        let mut decoded = Vec::new();
        let mut buf = Vec::new();
        for blk in blocks {
            assert!(s.decode_block(blk, &mut buf));
            assert_eq!(buf.last().map(|&(d, _)| d), Some(blk.last_doc));
            assert!(buf.iter().all(|&(_, tf)| tf <= blk.max_tf));
            decoded.extend_from_slice(&buf);
        }
        assert_eq!(decoded.len() as u32, s.term_meta(ord).df);
        assert!(decoded.windows(2).all(|w| w[0].0 < w[1].0), "ascending doc ids");
    }

    #[test]
    fn block_min_dlen_bounds_doc_lens() {
        let s = build_small();
        for ord in 0..s.inner.terms.len() as u32 {
            for blk in s.term_blocks(ord) {
                let mut buf = Vec::new();
                assert!(s.decode_block(blk, &mut buf));
                for &(d, _) in &buf {
                    assert!(s.doc_lens()[d as usize] >= blk.min_dlen);
                }
            }
        }
    }

    #[test]
    fn open_write_file_round_trip() {
        let s = build_small();
        let dir = std::env::temp_dir().join("pws_segment_test");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("seg0.pws");
        s.write_file(&path).expect("write");
        let loaded = Segment::open(&path).expect("open");
        assert_eq!(loaded.file_bytes(), s.file_bytes());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn open_missing_file_is_io_error() {
        match Segment::open("/nonexistent/definitely/missing.pws") {
            Err(SegmentError::Io(_)) => {}
            other => panic!("expected Io error, got {other:?}"),
        }
    }

    /// `SegmentBuilder::add` as it was before it streamed: analyse
    /// `format!("{title} {body}")` into owned tokens, count them in a
    /// per-document map; tokenise the body again for its form stream. The
    /// oracle of the test below.
    fn add_reference(b: &mut SegmentBuilder, url: &str, title: &str, body: &str) {
        let local = b.doc_offsets.len() as u32;
        for form in pws_text::tokenize(body) {
            let id = b.forms.intern(&form);
            write_varint(&mut b.doc_forms, id.0);
        }
        b.doc_form_ends.push(b.doc_forms.len() as u64);
        let tokens = b.analyzer.analyze(&format!("{title} {body}"));
        b.doc_lens.push(tokens.len() as u32);
        b.total_len += tokens.len() as u64;
        let mut tfs: HashMap<pws_text::Sym, u32> = HashMap::new();
        for tok in &tokens {
            *tfs.entry(b.interner.intern(tok)).or_insert(0) += 1;
        }
        if b.interner.len() > b.postings.len() {
            b.postings.resize_with(b.interner.len(), Vec::new);
        }
        let mut entries: Vec<(pws_text::Sym, u32)> = tfs.into_iter().collect();
        entries.sort_unstable_by_key(|(s, _)| *s);
        for (sym, tf) in entries {
            b.postings[sym.index()].push((local, tf));
        }
        b.doc_offsets.push(b.doc_payload.len() as u64);
        write_str(&mut b.doc_payload, url);
        write_str(&mut b.doc_payload, title);
        write_str(&mut b.doc_payload, body);
    }

    #[test]
    fn streaming_add_writes_the_bytes_of_the_concatenating_add() {
        let docs: &[(&str, &str)] = &[
            ("", "fresh seafood lobster and crab daily specials"),
            ("Crab shack menu", ""),
            ("", ""),
            ("Köln Café Straße", "the harbor seafood guide covers lobster rolls"),
            ("Dogs'", "sale on dog food and dogs' toys"),
            ("Rock'", "n roll o'hare's it's 'quoted' runners RUNNING"),
            ("The Of And", "a an the of"),
            ("seafood Seafood SEAFOOD", "seafood restaurants restaurant restaur"),
            ("n73 2009", "x y z nokia n73 phone"),
        ];
        let long = format!("{} {} {}", "q".repeat(40), "r".repeat(41), "s".repeat(61));
        for analyzer in [Analyzer::default(), Analyzer::verbatim()] {
            let (mut streamed, mut reference) =
                (SegmentBuilder::new(analyzer.clone()), SegmentBuilder::new(analyzer.clone()));
            for (i, &(title, body)) in docs.iter().chain([&(long.as_str(), long.as_str())]).enumerate() {
                let url = format!("http://t.test/{i}");
                streamed.add(&url, title, body);
                add_reference(&mut reference, &url, title, body);
            }
            assert_eq!(streamed.finish(), reference.finish(), "{analyzer:?}");
        }
    }

    #[test]
    fn empty_segment_round_trips() {
        let s = SegmentBuilder::new(Analyzer::default()).finish_segment().expect("empty");
        assert_eq!(s.doc_count(), 0);
        assert_eq!(s.term_ord("anything"), None);
    }
}
