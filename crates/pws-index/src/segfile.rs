//! The `PWSSEG1` segment file: its sections, its container descriptor and
//! its error type.
//!
//! A segment file is the unit of index persistence (see
//! `docs/INDEX_FORMAT.md` for the byte-level specification and a worked
//! hexdump example — check.sh keeps the section list there in sync with
//! [`SectionId`]). It is a [`pws_obs::format`] container
//! (`docs/CONTAINER_FORMAT.md`): header, checksummed section table, then
//! the payloads, so a reader can locate and validate every section
//! **without decoding postings or documents**.
//!
//! Every load failure is a typed [`SegmentError`] — corrupted, truncated,
//! or wrong-version files must never panic the loader.

use pws_obs::format::{Format, FormatError};

/// File magic: identifies a pws segment file, independent of version.
pub const SEGMENT_MAGIC: &[u8; 8] = b"PWSSEG1\0";

/// Current (and only) format version. Version 2 added the `Forms` and
/// `DocForms` sections; a version-1 file is refused with
/// [`FormatError::UnsupportedVersion`] (no version-1 reader is kept).
pub const FORMAT_VERSION: u32 = 2;

/// Section identifiers.
///
/// The variant list is mirrored byte-for-byte in `docs/INDEX_FORMAT.md`;
/// `scripts/check.sh` fails if the two drift apart. Ids 10+ are reserved
/// for future sections (e.g. positions) — unknown ids are rejected by
/// version-2 readers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u16)]
pub enum SectionId {
    /// Corpus statistics + analyzer configuration.
    Meta = 1,
    /// Term dictionary (term ord = position).
    Terms = 2,
    /// Per-term block table: doc ranges, max tf, min doc length, payload
    /// lengths. The executor reads the doc ranges and payload lengths; the
    /// max tf and min doc length are validated but not read.
    BlockMax = 3,
    /// Concatenated block payloads (delta-varint doc ids + tfs).
    Postings = 4,
    /// Fixed-width (u64 LE) byte offsets of each document record.
    DocIndex = 5,
    /// Document store: per-doc url/title/body records.
    Docs = 6,
    /// Per-document token counts (varint).
    DocLens = 7,
    /// The distinct body tokens, exactly as `pws_text::tokenize` outputs
    /// them (form id = position).
    Forms = 8,
    /// Every body's token sequence as varint form ids, then per-doc end
    /// offsets (u64 LE): what a snippet is cut from.
    DocForms = 9,
}

/// The segment container: every section a version-2 segment must
/// contain, in payload order.
pub const SEGMENT_FORMAT: Format = Format {
    magic: SEGMENT_MAGIC,
    version: FORMAT_VERSION,
    sections: &[
        (SectionId::Meta as u16, "Meta"),
        (SectionId::Terms as u16, "Terms"),
        (SectionId::BlockMax as u16, "BlockMax"),
        (SectionId::Postings as u16, "Postings"),
        (SectionId::DocIndex as u16, "DocIndex"),
        (SectionId::Docs as u16, "Docs"),
        (SectionId::DocLens as u16, "DocLens"),
        (SectionId::Forms as u16, "Forms"),
        (SectionId::DocForms as u16, "DocForms"),
    ],
};

/// Typed segment-load error. Loading a corrupted, truncated, or
/// wrong-version file returns one of these — never a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SegmentError {
    /// File I/O failed (open/read/write).
    Io(String),
    /// The file's bytes are not a valid version-2 segment.
    Format(FormatError),
    /// Segments being combined disagree (analyzer config, statistics).
    Mismatch(&'static str),
}

impl std::fmt::Display for SegmentError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SegmentError::Io(e) => write!(f, "segment i/o error: {e}"),
            SegmentError::Format(e) => write!(f, "segment file: {e}"),
            SegmentError::Mismatch(what) => write!(f, "segment mismatch: {what}"),
        }
    }
}

impl std::error::Error for SegmentError {}

impl From<FormatError> for SegmentError {
    fn from(e: FormatError) -> Self {
        SegmentError::Format(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display() {
        for e in [
            SegmentError::Io("x".into()),
            SegmentError::Format(FormatError::Truncated("Meta")),
            SegmentError::Mismatch("analyzer"),
        ] {
            assert!(!format!("{e}").is_empty());
        }
    }
}
