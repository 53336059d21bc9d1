//! Property tests for segment persistence (task: storage durability).
//!
//! Two guarantees, for *arbitrary* corpora:
//!
//! 1. **Round trip** — build → serialize → load → search is bit-identical
//!    to the exhaustive reference over the [`IndexBuilder`]-built single
//!    segment of the same documents: same docs, order, ranks, urls,
//!    titles, snippets, and bitwise-equal scores, for any segmentation of
//!    the corpus.
//! 2. **Durability** — corrupted (any single byte flipped), truncated
//!    (any prefix), table-mutated (the shared container gauntlet) or
//!    wrong-version files fail to load with a typed [`SegmentError`],
//!    never a panic.

use proptest::prelude::*;
use pws_index::{
    IndexBuilder, SearchEngine, SectionId, Segment, SegmentBuilder, SegmentError, SegmentedIndex,
    StoredDoc, FORMAT_VERSION, SEGMENT_FORMAT,
};
use pws_obs::format::{Format, FormatError};

const VOCAB: &[&str] = &[
    "lobster", "seafood", "harbor", "android", "battery", "camera", "hotel", "booking", "oyster",
    "sushi", "guide", "menu", "special", "fresh", "downtown", "airport", "museum", "garden",
];

fn build_engine(doc_words: &[Vec<&str>]) -> SearchEngine {
    let mut b = IndexBuilder::new();
    for (i, words) in doc_words.iter().enumerate() {
        b.add(StoredDoc::new(i as u32, &format!("http://t.test/{i}"), "doc", &words.join(" ")));
    }
    b.build()
}

/// Each of `docs`' score under `query` alone, as the fused scan reports it:
/// extended by the title term every doc holds, with k past the corpus,
/// every doc is an extended hit and carries its base score (NaN marks a
/// doc missing from the extended list).
fn base_scores(idx: &SegmentedIndex, query: &str, docs: &[u32]) -> Vec<f64> {
    let every_doc = idx.terms().analyze("doc");
    let query = idx.terms().analyze(query);
    let (_, extended) = idx.rank_tokens(&query, Some(&every_doc), idx.doc_count() as usize);
    let extended = extended.expect("an extension was given");
    docs.iter().map(|d| extended.iter().find(|e| e.0 == *d).map_or(f64::NAN, |e| e.2)).collect()
}

/// Serialize each chunk with [`SegmentBuilder::finish`], reload the raw
/// bytes with [`Segment::load_bytes`], and assemble a [`SegmentedIndex`]
/// — the full persistence round trip minus the filesystem.
fn round_trip_segmented(doc_words: &[Vec<&str>], num_segments: usize) -> SegmentedIndex {
    let per = doc_words.len().div_ceil(num_segments.max(1)).max(1);
    let mut segments = Vec::new();
    let mut next_id = 0usize;
    for chunk in doc_words.chunks(per) {
        let mut b = SegmentBuilder::new(Default::default());
        for words in chunk {
            b.add(&format!("http://t.test/{next_id}"), "doc", &words.join(" "));
            next_id += 1;
        }
        let bytes = b.finish();
        segments.push(Segment::load_bytes(bytes).expect("reload serialized segment"));
    }
    SegmentedIndex::from_segments(segments).expect("assemble segmented index")
}

fn one_segment_bytes(doc_words: &[Vec<&str>]) -> Vec<u8> {
    let mut b = SegmentBuilder::new(Default::default());
    for (i, words) in doc_words.iter().enumerate() {
        b.add(&format!("http://t.test/{i}"), "doc", &words.join(" "));
    }
    b.finish()
}

fn assert_hits_identical(
    got: &[pws_index::SearchHit],
    want: &[pws_index::SearchHit],
    ctx: &str,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(got.len(), want.len(), "length mismatch: {}", ctx);
    for (g, w) in got.iter().zip(want) {
        prop_assert_eq!(g.doc, w.doc, "doc mismatch: {}", ctx);
        prop_assert_eq!(
            g.score.to_bits(),
            w.score.to_bits(),
            "score not bitwise equal: {} doc={}",
            ctx,
            g.doc
        );
        prop_assert_eq!(g.rank, w.rank);
        prop_assert_eq!(&g.url, &w.url);
        prop_assert_eq!(&g.title, &w.title);
        prop_assert_eq!(&g.snippet, &w.snippet);
    }
    Ok(())
}

fn docs_strategy() -> impl Strategy<Value = Vec<Vec<&'static str>>> {
    proptest::collection::vec(
        proptest::collection::vec(proptest::sample::select(VOCAB.to_vec()), 1..25),
        1..40,
    )
}

proptest! {
    /// Round trip: serialized-and-reloaded segments answer queries
    /// bit-identically to the `IndexBuilder` engine, under any segmentation.
    #[test]
    fn round_trip_search_is_bit_identical(
        doc_words in docs_strategy(),
        query_words in proptest::collection::vec(proptest::sample::select(VOCAB.to_vec()), 1..5),
        k in 1usize..15,
        num_segments in 1usize..5,
    ) {
        let engine = build_engine(&doc_words);
        let seg = round_trip_segmented(&doc_words, num_segments);
        let query = query_words.join(" ");
        let ctx = format!("{query:?} k={k} segs={num_segments}");
        assert_hits_identical(&seg.search(&query, k), &engine.search_exhaustive(&query, k), &ctx)?;
        // Pre-analyzed entry point and the fused scan's base scores agree too.
        let toks = engine.analyze_text(&query);
        assert_hits_identical(&seg.search_tokens(&toks, k), &engine.search_tokens(&toks, k), &ctx)?;
        let asked: Vec<u32> = (0..doc_words.len() as u32).collect();
        let got = base_scores(&seg, &query, &asked);
        let want = base_scores(&engine, &query, &asked);
        for (d, (g, w)) in asked.iter().zip(got.iter().zip(&want)) {
            prop_assert_eq!(g.to_bits(), w.to_bits(), "base score mismatch doc {} ({})", d, &ctx);
        }
    }

    /// Any prefix of a valid segment file fails to load with a typed
    /// error — and never panics.
    #[test]
    fn truncated_files_fail_with_typed_error(
        doc_words in docs_strategy(),
        cut_frac in 0.0f64..1.0,
    ) {
        let bytes = one_segment_bytes(&doc_words);
        let cut = ((bytes.len() as f64) * cut_frac) as usize; // < len since cut_frac < 1
        let got = Segment::load_bytes(bytes[..cut].to_vec());
        prop_assert!(got.is_err(), "truncated prefix {} of {} loaded", cut, bytes.len());
    }

    /// Any single flipped byte fails to load with a typed error — every
    /// byte of the file is covered by field validation or a section
    /// checksum — and never panics.
    #[test]
    fn corrupted_files_fail_with_typed_error(
        doc_words in docs_strategy(),
        pos_frac in 0.0f64..1.0,
        flip in 1u8..=255,
    ) {
        let mut bytes = one_segment_bytes(&doc_words);
        let pos = ((bytes.len() as f64) * pos_frac) as usize % bytes.len();
        bytes[pos] ^= flip;
        let got = Segment::load_bytes(bytes);
        prop_assert!(got.is_err(), "flip {:#04x} at byte {} loaded", flip, pos);
    }
}

/// The container gauntlet on one small fixture segment: every byte
/// flipped, every prefix, and every section-table and layout mutation —
/// among them `Docs` stretched over `DocLens`, which only the container's
/// contiguity rule can catch (the document store is an opaque blob).
#[test]
fn gauntlet_rejects_every_mutation() {
    let doc_words: Vec<Vec<&str>> =
        vec![vec!["lobster", "seafood"], vec!["harbor", "lobster", "menu"], vec!["sushi"]];
    let bytes = one_segment_bytes(&doc_words);
    SEGMENT_FORMAT.gauntlet(&bytes, |bad| Segment::load_bytes(bad).is_err());
}

/// A file claiming a future format version is rejected up front with
/// [`SegmentError::UnsupportedVersion`] — not misparsed.
#[test]
fn future_version_is_rejected_with_typed_error() {
    let mut bytes = one_segment_bytes(&[vec!["lobster"]]);
    let future = FORMAT_VERSION + 1;
    bytes[8..12].copy_from_slice(&future.to_le_bytes());
    assert_eq!(
        Segment::load_bytes(bytes).err(),
        Some(SegmentError::Format(FormatError::UnsupportedVersion(future)))
    );
}

/// A non-segment file is rejected with [`SegmentError::BadMagic`].
#[test]
fn non_segment_file_is_rejected() {
    assert_eq!(
        Segment::load_bytes(b"definitely not a segment".to_vec()).err(),
        Some(SegmentError::Format(FormatError::BadMagic))
    );
}

/// Full filesystem round trip: write_file → open → identical results.
#[test]
fn write_file_open_round_trip() {
    let doc_words: Vec<Vec<&str>> =
        vec![vec!["lobster", "seafood", "menu"], vec!["harbor", "hotel"], vec!["sushi", "fresh"]];
    let engine = build_engine(&doc_words);
    let mut b = SegmentBuilder::new(Default::default());
    for (i, words) in doc_words.iter().enumerate() {
        b.add(&format!("http://t.test/{i}"), "doc", &words.join(" "));
    }
    let seg = b.finish_segment().expect("build");
    let dir = std::env::temp_dir().join(format!("pws-roundtrip-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = dir.join("seg-0.pws");
    seg.write_file(&path).expect("write");
    let reopened = Segment::open(&path).expect("open");
    let idx = SegmentedIndex::from_segments(vec![reopened]).expect("index");
    for (query, k) in [("lobster seafood", 3), ("sushi", 1), ("harbor hotel fresh", 5)] {
        let got = idx.search(query, k);
        let want = engine.search_exhaustive(query, k);
        assert_eq!(got.len(), want.len(), "{query}");
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(g.doc, w.doc, "{query}");
            assert_eq!(g.score.to_bits(), w.score.to_bits(), "{query}");
            assert_eq!(g.snippet, w.snippet, "{query}");
        }
    }
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_dir(&dir);
}

fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf29ce484222325u64, |h, &x| (h ^ u64::from(x)).wrapping_mul(0x100000001b3))
}

/// The bytes `SegmentBuilder::finish` writes for a fixed corpus are pinned
/// (length + FNV-1a-64): `PWSSEG1` format version 2, byte for byte. Its
/// first seven sections are version 1's, byte for byte: re-containered as
/// a version-1 file they give version 1's pin.
#[test]
fn golden_segment_bytes_pin_format_version_2() {
    let mut b = SegmentBuilder::new(Default::default());
    b.add("u0", "Crab shack", "fresh lobster roll and seafood daily");
    b.add("u1", "Roll call", "drum roll and lobster bisque tonight");
    b.add("u2", "Phones", "android battery and screen repair");
    for i in 0..300u32 {
        b.add(
            &format!("http://fix.test/{i}"),
            &format!("Title {}", i % 13),
            &format!("common filler word{} seafood{} lobster roll number {}", i % 7, i % 3, i),
        );
    }
    let bytes = b.finish();
    assert_eq!(&bytes[..8], pws_index::SEGMENT_MAGIC);
    assert_eq!(bytes[8..12], FORMAT_VERSION.to_le_bytes());
    assert_eq!(FORMAT_VERSION, 2);
    assert_eq!((bytes.len(), fnv(&bytes)), (42_825, 0x10b7_603e_2630_5fb5), "segment bytes moved");
    let v1 = Format { version: 1, sections: &SEGMENT_FORMAT.sections[..7], ..SEGMENT_FORMAT };
    let payloads = SEGMENT_FORMAT.parse(&bytes).expect("parse")[..7].iter().map(|p| p.to_vec()).collect();
    let v1_bytes = v1.write(payloads);
    assert_eq!((v1_bytes.len(), fnv(&v1_bytes)), (36_461, 0xa92b_2450_ea4f_9952), "v1 sections moved");
}

/// The sections of a small valid segment, to mutate.
fn small_sections() -> Vec<Vec<u8>> {
    let bytes = one_segment_bytes(&[vec!["lobster", "seafood"], vec!["harbor", "lobster"], vec!["menu"]]);
    SEGMENT_FORMAT.parse(&bytes).expect("parse").into_iter().map(<[u8]>::to_vec).collect()
}

/// `sections` with section `id` (1-based) replaced by `payload`, in a
/// container whose checksums hold: only the section's own checks can
/// reject it.
fn load_with(mut sections: Vec<Vec<u8>>, id: SectionId, payload: Vec<u8>) -> Result<Segment, SegmentError> {
    sections[id as usize - 1] = payload;
    Segment::load_bytes(SEGMENT_FORMAT.write(sections))
}

fn malformed(what: &'static str) -> Result<(), SegmentError> {
    Err(SegmentError::Format(FormatError::Malformed(what)))
}

/// Each way the two version-2 sections can be wrong is a typed error at
/// load, never a panic and never a serve-time surprise.
#[test]
fn damaged_form_sections_fail_with_typed_errors() {
    let sections = small_sections();
    let (forms, doc_forms) = (sections[7].clone(), sections[8].clone());
    let load = |id, payload| load_with(sections.clone(), id, payload).map(|_| ());
    assert_eq!(load(SectionId::Forms, forms.clone()), Ok(()), "unmutated sections load");
    // Three docs: one byte per token (ids 0 1 | 2 0 | 3), then a 24-byte
    // end-offset table (2, 4, 5).
    assert_eq!(doc_forms.len(), 5 + 24);
    let set_end = |bytes: &mut Vec<u8>, doc: usize, end: u64| {
        bytes[5 + 8 * doc..13 + 8 * doc].copy_from_slice(&end.to_le_bytes());
    };

    // Truncated: shorter than the offset table, and inside a varint.
    assert_eq!(
        load(SectionId::DocForms, doc_forms[..20].to_vec()),
        Err(SegmentError::Format(FormatError::Truncated("DocForms.offsets")))
    );
    let mut split = doc_forms.clone();
    split[0] |= 0x80; // the first id now claims a continuation byte …
    set_end(&mut split, 0, 1); // … its run ends before it
    assert_eq!(load(SectionId::DocForms, split), Err(SegmentError::Format(FormatError::Truncated("DocForms.ids"))));

    // A form id past the form count.
    let mut past = doc_forms.clone();
    past[1] = 0x7f;
    assert_eq!(load(SectionId::DocForms, past), malformed("form id out of range"));

    // Offsets that go backwards, or past the stream.
    let mut back = doc_forms.clone();
    set_end(&mut back, 1, 1);
    assert_eq!(load(SectionId::DocForms, back), malformed("DocForms offsets not monotone"));
    let mut over = doc_forms.clone();
    set_end(&mut over, 2, 9);
    assert_eq!(load(SectionId::DocForms, over), malformed("DocForms offsets not monotone"));

    // Trailing bytes after the last run, in either section.
    let mut trailing = doc_forms.clone();
    trailing.insert(5, 0);
    assert_eq!(load(SectionId::DocForms, trailing), malformed("trailing bytes in DocForms"));
    let mut trailing = forms.clone();
    trailing.push(0);
    assert_eq!(load(SectionId::Forms, trailing), malformed("trailing bytes in Forms"));

    // A form that is not UTF-8, a duplicated form, a truncated form table.
    let mut not_utf8 = forms.clone();
    let at = not_utf8.len() - 1;
    not_utf8[at] = 0xff;
    assert_eq!(load(SectionId::Forms, not_utf8), malformed("non-utf8 form"));
    let mut dup = vec![2u8];
    dup.extend_from_slice(b"\x03abc\x03abc");
    assert_eq!(load(SectionId::Forms, dup), malformed("empty or duplicate form"));
    assert_eq!(
        load(SectionId::Forms, forms[..forms.len() - 1].to_vec()),
        Err(SegmentError::Format(FormatError::Truncated("Forms.bytes")))
    );
}

/// A version-1 file — the same sections, no form stream — is refused
/// with the typed version error: no version-1 reader is kept.
#[test]
fn version_1_bytes_are_refused() {
    let sections = small_sections();
    let v1 = Format { version: 1, sections: &SEGMENT_FORMAT.sections[..7], ..SEGMENT_FORMAT };
    let bytes = v1.write(sections[..7].to_vec());
    assert_eq!(
        Segment::load_bytes(bytes).err(),
        Some(SegmentError::Format(FormatError::UnsupportedVersion(1)))
    );
}

/// Opening a missing path is a typed I/O error, not a panic.
#[test]
fn open_missing_path_is_io_error() {
    let err = Segment::open("/nonexistent/pws-segment-xyz.pws").unwrap_err();
    assert!(matches!(err, SegmentError::Io(_)), "got {err:?}");
}
