//! On-disk segment file format: header, section table, checksums.
//!
//! A segment file is the unit of index persistence (see
//! `docs/INDEX_FORMAT.md` for the byte-level specification and a worked
//! hexdump example — check.sh keeps the section list there in sync with
//! [`SectionId`]). The layout is designed so a reader can locate and
//! validate every section **without decoding postings or documents**:
//!
//! ```text
//! magic "PWSSEG1\0" (8 raw bytes)
//! format_version  u32 LE        (currently 1)
//! section_count   u32 LE
//! section table   section_count × 28 bytes:
//!     id        u16 LE          (SectionId)
//!     flags     u16 LE          (reserved, must be 0)
//!     offset    u64 LE          (from file start)
//!     len       u64 LE
//!     checksum  u64 LE          (FNV-1a 64 of the section payload)
//! section payloads (contiguous, in table order)
//! ```
//!
//! Every load failure is a typed [`SegmentError`] — corrupted, truncated,
//! or wrong-version files must never panic the loader.

/// File magic: identifies a pws segment file, independent of version.
pub const SEGMENT_MAGIC: &[u8; 8] = b"PWSSEG1\0";

/// Current (and only) format version.
pub const FORMAT_VERSION: u32 = 1;

/// Bytes per section-table entry: id u16 + flags u16 + offset u64 +
/// len u64 + checksum u64.
pub const SECTION_ENTRY_LEN: usize = 28;

/// Byte offset of the section table (magic + version + count).
pub const TABLE_OFFSET: usize = 8 + 4 + 4;

/// Section identifiers.
///
/// The variant list is mirrored byte-for-byte in `docs/INDEX_FORMAT.md`;
/// `scripts/check.sh` fails if the two drift apart. Ids 8+ are reserved
/// for future sections (e.g. positions) — unknown ids are rejected by
/// version-1 readers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u16)]
pub enum SectionId {
    /// Corpus statistics + analyzer configuration.
    Meta = 1,
    /// Term dictionary (term ord = position).
    Terms = 2,
    /// Per-term block table: doc ranges, max tf, min doc length, payload
    /// lengths. Everything Block-Max WAND needs without touching payloads.
    BlockMax = 3,
    /// Concatenated block payloads (delta-varint doc ids + tfs).
    Postings = 4,
    /// Fixed-width (u64 LE) byte offsets of each document record.
    DocIndex = 5,
    /// Document store: per-doc url/title/body records.
    Docs = 6,
    /// Per-document token counts (varint).
    DocLens = 7,
}

impl SectionId {
    /// All sections a version-1 segment must contain, in payload order.
    pub const ALL: [SectionId; 7] = [
        SectionId::Meta,
        SectionId::Terms,
        SectionId::BlockMax,
        SectionId::Postings,
        SectionId::DocIndex,
        SectionId::Docs,
        SectionId::DocLens,
    ];

    /// Human-readable name (used in error messages and docs).
    pub fn name(self) -> &'static str {
        match self {
            SectionId::Meta => "Meta",
            SectionId::Terms => "Terms",
            SectionId::BlockMax => "BlockMax",
            SectionId::Postings => "Postings",
            SectionId::DocIndex => "DocIndex",
            SectionId::Docs => "Docs",
            SectionId::DocLens => "DocLens",
        }
    }

    fn from_u16(v: u16) -> Option<SectionId> {
        Some(match v {
            1 => SectionId::Meta,
            2 => SectionId::Terms,
            3 => SectionId::BlockMax,
            4 => SectionId::Postings,
            5 => SectionId::DocIndex,
            6 => SectionId::Docs,
            7 => SectionId::DocLens,
            _ => return None,
        })
    }
}

/// Typed segment-load error. Loading a corrupted, truncated, or
/// wrong-version file returns one of these — never a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SegmentError {
    /// File I/O failed (open/read/write).
    Io(String),
    /// The first 8 bytes are not [`SEGMENT_MAGIC`].
    BadMagic,
    /// The file's format version is not supported by this reader.
    UnsupportedVersion(u32),
    /// The file ends before the named structure is complete.
    Truncated(&'static str),
    /// A section's FNV-1a checksum does not match its payload.
    ChecksumMismatch(&'static str),
    /// A required section is absent from the section table.
    MissingSection(&'static str),
    /// The section table references an unknown section id.
    UnknownSection(u16),
    /// A section payload is structurally invalid (named reason).
    Malformed(&'static str),
    /// Segments being combined disagree (analyzer config, statistics).
    Mismatch(&'static str),
}

impl std::fmt::Display for SegmentError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SegmentError::Io(e) => write!(f, "segment i/o error: {e}"),
            SegmentError::BadMagic => write!(f, "not a segment file (bad magic)"),
            SegmentError::UnsupportedVersion(v) => {
                write!(f, "unsupported segment format version {v} (reader supports {FORMAT_VERSION})")
            }
            SegmentError::Truncated(what) => write!(f, "truncated segment file at {what}"),
            SegmentError::ChecksumMismatch(s) => {
                write!(f, "checksum mismatch in section {s}")
            }
            SegmentError::MissingSection(s) => write!(f, "missing section {s}"),
            SegmentError::UnknownSection(id) => write!(f, "unknown section id {id}"),
            SegmentError::Malformed(what) => write!(f, "malformed segment: {what}"),
            SegmentError::Mismatch(what) => write!(f, "segment mismatch: {what}"),
        }
    }
}

impl std::error::Error for SegmentError {}

/// FNV-1a 64-bit checksum (the same hash family the serving layer uses
/// for cache fingerprints; collision-resistant enough for bit-rot
/// detection, zero dependencies).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One parsed section-table entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SectionEntry {
    /// Which section this is.
    pub id: SectionId,
    /// Payload byte range start (from file start).
    pub offset: usize,
    /// Payload length in bytes.
    pub len: usize,
}

impl SectionEntry {
    /// The payload slice within `file`.
    pub fn slice<'a>(&self, file: &'a [u8]) -> &'a [u8] {
        &file[self.offset..self.offset + self.len]
    }
}

fn read_u16le(b: &[u8]) -> u16 {
    u16::from_le_bytes([b[0], b[1]])
}

fn read_u32le(b: &[u8]) -> u32 {
    u32::from_le_bytes([b[0], b[1], b[2], b[3]])
}

/// Read a u64 LE from the front of `b` (caller guarantees length).
pub fn read_u64le(b: &[u8]) -> u64 {
    u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]])
}

/// Parse and fully validate a segment file's header and section table:
/// magic, version, table bounds, known + unique section ids, payload
/// ranges in bounds, and per-section checksums. Returns the seven
/// required sections in [`SectionId::ALL`] order.
///
/// This is the *only* full-file pass a load performs; payload contents
/// (postings blocks, documents) are left encoded.
pub fn parse_sections(file: &[u8]) -> Result<Vec<SectionEntry>, SegmentError> {
    if file.len() < 8 {
        return Err(SegmentError::Truncated("magic"));
    }
    if &file[..8] != SEGMENT_MAGIC {
        return Err(SegmentError::BadMagic);
    }
    if file.len() < TABLE_OFFSET {
        return Err(SegmentError::Truncated("header"));
    }
    let version = read_u32le(&file[8..12]);
    if version != FORMAT_VERSION {
        return Err(SegmentError::UnsupportedVersion(version));
    }
    let count = read_u32le(&file[12..16]) as usize;
    let table_end = TABLE_OFFSET
        .checked_add(count.checked_mul(SECTION_ENTRY_LEN).ok_or(SegmentError::Malformed(
            "section count overflows",
        ))?)
        .ok_or(SegmentError::Malformed("section table overflows"))?;
    if file.len() < table_end {
        return Err(SegmentError::Truncated("section table"));
    }

    let mut entries: Vec<SectionEntry> = Vec::with_capacity(count);
    for i in 0..count {
        let e = &file[TABLE_OFFSET + i * SECTION_ENTRY_LEN..];
        let raw_id = read_u16le(&e[0..2]);
        let id = SectionId::from_u16(raw_id).ok_or(SegmentError::UnknownSection(raw_id))?;
        if read_u16le(&e[2..4]) != 0 {
            return Err(SegmentError::Malformed("nonzero section flags"));
        }
        let offset = read_u64le(&e[4..12]);
        let len = read_u64le(&e[12..20]);
        let checksum = read_u64le(&e[20..28]);
        let (offset, len) = (offset as usize, len as usize);
        let end = offset
            .checked_add(len)
            .ok_or(SegmentError::Malformed("section range overflows"))?;
        if offset < table_end || end > file.len() {
            return Err(SegmentError::Truncated(id.name()));
        }
        if entries.iter().any(|p| p.id == id) {
            return Err(SegmentError::Malformed("duplicate section id"));
        }
        if fnv1a64(&file[offset..end]) != checksum {
            return Err(SegmentError::ChecksumMismatch(id.name()));
        }
        entries.push(SectionEntry { id, offset, len });
    }

    // All required sections present, returned in canonical order.
    let mut ordered = Vec::with_capacity(SectionId::ALL.len());
    for want in SectionId::ALL {
        match entries.iter().find(|e| e.id == want) {
            Some(&e) => ordered.push(e),
            None => return Err(SegmentError::MissingSection(want.name())),
        }
    }
    Ok(ordered)
}

/// Incremental segment-file writer: collect section payloads, then emit
/// header + table + payloads with checksums in one buffer.
#[derive(Debug, Default)]
pub struct SectionWriter {
    sections: Vec<(SectionId, Vec<u8>)>,
}

impl SectionWriter {
    /// Empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one section's payload. Sections are written in insertion order.
    pub fn add(&mut self, id: SectionId, payload: Vec<u8>) {
        debug_assert!(
            !self.sections.iter().any(|(s, _)| *s == id),
            "duplicate section {id:?}"
        );
        self.sections.push((id, payload));
    }

    /// Emit the complete segment file.
    ///
    /// The file is assembled *inside the largest section's buffer* (in a
    /// real segment, the document store): everything that precedes it is
    /// spliced in front with one in-place shift, the rest is appended, so
    /// building a segment never holds a second copy of its biggest
    /// section. The index lives in RAM as these bytes; this is what keeps
    /// a build's peak memory near one file rather than two.
    pub fn finish(self) -> Vec<u8> {
        let table_end = TABLE_OFFSET + self.sections.len() * SECTION_ENTRY_LEN;
        let total: usize =
            table_end + self.sections.iter().map(|(_, p)| p.len()).sum::<usize>();
        let mut head = Vec::with_capacity(table_end);
        head.extend_from_slice(SEGMENT_MAGIC);
        head.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        head.extend_from_slice(&(self.sections.len() as u32).to_le_bytes());
        let mut offset = table_end;
        for (id, payload) in &self.sections {
            head.extend_from_slice(&(*id as u16).to_le_bytes());
            head.extend_from_slice(&0u16.to_le_bytes());
            head.extend_from_slice(&(offset as u64).to_le_bytes());
            head.extend_from_slice(&(payload.len() as u64).to_le_bytes());
            head.extend_from_slice(&fnv1a64(payload).to_le_bytes());
            offset += payload.len();
        }
        let base =
            (0..self.sections.len()).max_by_key(|&i| self.sections[i].1.len()).unwrap_or(0);
        let mut sections = self.sections.into_iter().map(|(_, payload)| payload);
        for payload in sections.by_ref().take(base) {
            head.extend_from_slice(&payload);
        }
        let mut out = sections.next().unwrap_or_default();
        out.reserve_exact(total - out.len());
        out.splice(0..0, head);
        for payload in sections {
            out.extend_from_slice(&payload);
        }
        debug_assert_eq!(out.len(), total);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_file() -> Vec<u8> {
        let mut w = SectionWriter::new();
        for id in SectionId::ALL {
            w.add(id, vec![id as u8; (id as usize) * 3]);
        }
        w.finish()
    }

    #[test]
    fn write_parse_round_trip() {
        let f = tiny_file();
        let sections = parse_sections(&f).expect("parse");
        assert_eq!(sections.len(), SectionId::ALL.len());
        for (e, want) in sections.iter().zip(SectionId::ALL) {
            assert_eq!(e.id, want);
            assert_eq!(e.slice(&f), vec![want as u8; (want as usize) * 3]);
        }
    }

    #[test]
    fn bad_magic_rejected() {
        let mut f = tiny_file();
        f[0] ^= 0xFF;
        assert_eq!(parse_sections(&f), Err(SegmentError::BadMagic));
        assert_eq!(parse_sections(b"PW"), Err(SegmentError::Truncated("magic")));
    }

    #[test]
    fn wrong_version_rejected() {
        let mut f = tiny_file();
        f[8] = 99;
        assert_eq!(parse_sections(&f), Err(SegmentError::UnsupportedVersion(99)));
    }

    #[test]
    fn every_truncation_errors_not_panics() {
        let f = tiny_file();
        for cut in 0..f.len() {
            assert!(parse_sections(&f[..cut]).is_err(), "prefix {cut} parsed");
        }
    }

    #[test]
    fn payload_corruption_is_checksum_mismatch() {
        let f = tiny_file();
        let sections = parse_sections(&f).expect("parse");
        let meta = sections[0];
        let mut corrupt = f.clone();
        corrupt[meta.offset] ^= 0xFF;
        assert_eq!(
            parse_sections(&corrupt),
            Err(SegmentError::ChecksumMismatch("Meta"))
        );
    }

    #[test]
    fn missing_section_detected() {
        let mut w = SectionWriter::new();
        for id in SectionId::ALL.iter().skip(1) {
            w.add(*id, Vec::new());
        }
        assert_eq!(
            parse_sections(&w.finish()),
            Err(SegmentError::MissingSection("Meta"))
        );
    }

    #[test]
    fn unknown_section_id_rejected() {
        let f = tiny_file();
        let mut bad = f.clone();
        // First table entry's id → 42.
        bad[TABLE_OFFSET] = 42;
        bad[TABLE_OFFSET + 1] = 0;
        assert_eq!(parse_sections(&bad), Err(SegmentError::UnknownSection(42)));
    }

    #[test]
    fn errors_display() {
        for e in [
            SegmentError::Io("x".into()),
            SegmentError::BadMagic,
            SegmentError::UnsupportedVersion(9),
            SegmentError::Truncated("Meta"),
            SegmentError::ChecksumMismatch("Docs"),
            SegmentError::MissingSection("Terms"),
            SegmentError::UnknownSection(8),
            SegmentError::Malformed("x"),
            SegmentError::Mismatch("analyzer"),
        ] {
            assert!(!format!("{e}").is_empty());
        }
    }
}
