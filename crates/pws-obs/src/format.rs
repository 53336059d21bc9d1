//! The one on-disk container under `PWSSEG1` (index segments), `PWSUSR1`
//! (user records) and `PWSFLT1` (flight dumps).
//!
//! ```text
//! magic           8 raw bytes
//! format_version  u32 LE
//! section_count   u32 LE
//! section table   section_count × 28 bytes:
//!     id u16 · flags u16 (must be 0) · offset u64 · len u64 ·
//!     checksum u64 (FNV-1a 64 of the payload)          (all LE)
//! section payloads, contiguous, in table order, ending at EOF
//! ```
//!
//! A [`Format`] names a file type (magic, version, section list); its
//! [`write`](Format::write) and [`parse`](Format::parse) are the only
//! table writer and table parser in the workspace, [`FormatError`] the
//! only set of container failures, [`ByteWriter`]/[`ByteReader`] the only
//! payload cursors, and [`Format::gauntlet`] the corruption drill every
//! decoder built on them must survive. `docs/CONTAINER_FORMAT.md` is the
//! byte-level specification. Decoding is total: corrupt, truncated or
//! wrong-version input is a typed error, never a panic.

use std::fmt;

/// Byte offset of the section table (magic + version + section count).
pub const TABLE_OFFSET: usize = 16;

/// Bytes per section-table entry: id u16 + flags u16 + offset u64 +
/// len u64 + checksum u64.
pub const ENTRY_LEN: usize = 28;

/// Streaming FNV-1a 64-bit: feed the bytes in any number of
/// [`write`](Self::write) calls; the hash depends only on their
/// concatenation. The one FNV loop in the workspace — [`fnv1a64`] and
/// every keyed roll or fingerprint that hashes more than one slice go
/// through it.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a64(u64);

impl Fnv1a64 {
    /// The empty hash (the FNV offset basis).
    #[inline]
    pub const fn new() -> Self {
        Fnv1a64(0xcbf2_9ce4_8422_2325)
    }

    /// Fold `bytes` in.
    #[inline]
    pub fn write(&mut self, bytes: &[u8]) {
        let mut hash = self.0;
        for &b in bytes {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.0 = hash;
    }

    /// The hash of everything written so far.
    #[inline]
    pub const fn finish(self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a64 {
    fn default() -> Self {
        Self::new()
    }
}

/// FNV-1a 64-bit of one slice: the section checksum, and the stable (no
/// `RandomState`) hash behind query keys and statistics sharding.
#[inline]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a64::new();
    h.write(bytes);
    h.finish()
}

/// The SplitMix64 finalizer: a bijective 64-bit mix whose every output
/// bit depends on every input bit. The one copy in the workspace — shard
/// assignment, corpus per-document seeds, fault rolls and load schedules
/// all mix through it, so each stays replay-stable across crates.
#[inline]
pub const fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Everything that can be wrong with the bytes of a container file or of
/// a section payload read through [`ByteReader`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FormatError {
    /// The first 8 bytes are not the format's magic.
    BadMagic,
    /// The file declares a format version this reader does not know.
    UnsupportedVersion(u32),
    /// The file or a section ends before the named structure is complete.
    Truncated(&'static str),
    /// The named section's payload does not match its table checksum.
    ChecksumMismatch(&'static str),
    /// The named required section is absent from the table.
    MissingSection(&'static str),
    /// The table names a section id the format does not have.
    UnknownSection(u16),
    /// A structurally invalid value: nonzero flags, duplicate or
    /// out-of-order sections, payloads that overlap, leave a gap or stop
    /// short of EOF, bad enum codes, trailing bytes in a section, …
    Malformed(&'static str),
}

impl fmt::Display for FormatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FormatError::BadMagic => write!(f, "bad magic (not this file format)"),
            FormatError::UnsupportedVersion(v) => write!(f, "unsupported format version {v}"),
            FormatError::Truncated(what) => write!(f, "truncated in {what}"),
            FormatError::ChecksumMismatch(s) => write!(f, "checksum mismatch in section {s}"),
            FormatError::MissingSection(s) => write!(f, "missing section {s}"),
            FormatError::UnknownSection(id) => write!(f, "unknown section id {id}"),
            FormatError::Malformed(what) => write!(f, "malformed: {what}"),
        }
    }
}

impl std::error::Error for FormatError {}

/// The first `N` bytes of `b` (callers guarantee the length). Like the
/// cursor methods below it is `#[inline]`: they run once per field of
/// every record on the store tier's fault-in path, from other crates.
#[inline]
fn head<const N: usize>(b: &[u8]) -> [u8; N] {
    b[..N].try_into().expect("slice of length N")
}

#[inline]
fn le_u16(b: &[u8]) -> u16 {
    u16::from_le_bytes(head(b))
}

#[inline]
fn le_u32(b: &[u8]) -> u32 {
    u32::from_le_bytes(head(b))
}

/// Read a u64 LE from the front of `b` (caller guarantees 8 bytes).
#[inline]
pub fn le_u64(b: &[u8]) -> u64 {
    u64::from_le_bytes(head(b))
}

/// One file type built on the container: its magic, the one version
/// readers accept, and its sections as `(id, name)` in file order. Every
/// section is required.
#[derive(Debug, Clone, Copy)]
pub struct Format {
    /// The 8 magic bytes opening every file.
    pub magic: &'static [u8; 8],
    /// The format version written, and the only one read.
    pub version: u32,
    /// `(on-disk id, name)` of every section, in file order.
    pub sections: &'static [(u16, &'static str)],
}

impl Format {
    /// Assemble a file from one payload per section, in
    /// [`sections`](Self::sections) order.
    ///
    /// The file is assembled *inside the largest payload's buffer* (in a
    /// segment, the document store): everything that precedes it is
    /// spliced in front with one in-place shift, the rest is appended, so
    /// writing never holds a second copy of the biggest section. An index
    /// lives in RAM as these bytes; this is what keeps a build's peak
    /// memory near one file rather than two.
    pub fn write(&self, payloads: Vec<Vec<u8>>) -> Vec<u8> {
        assert_eq!(payloads.len(), self.sections.len(), "one payload per section");
        let table_end = TABLE_OFFSET + payloads.len() * ENTRY_LEN;
        let total = table_end + payloads.iter().map(Vec::len).sum::<usize>();
        let mut head = Vec::with_capacity(table_end);
        head.extend_from_slice(self.magic);
        head.extend_from_slice(&self.version.to_le_bytes());
        head.extend_from_slice(&(payloads.len() as u32).to_le_bytes());
        let mut offset = table_end;
        for (&(id, _), payload) in self.sections.iter().zip(&payloads) {
            head.extend_from_slice(&id.to_le_bytes());
            head.extend_from_slice(&0u16.to_le_bytes()); // flags, reserved
            head.extend_from_slice(&(offset as u64).to_le_bytes());
            head.extend_from_slice(&(payload.len() as u64).to_le_bytes());
            head.extend_from_slice(&fnv1a64(payload).to_le_bytes());
            offset += payload.len();
        }
        let base = (0..payloads.len()).max_by_key(|&i| payloads[i].len()).unwrap_or(0);
        let mut payloads = payloads.into_iter();
        for payload in payloads.by_ref().take(base) {
            head.extend_from_slice(&payload);
        }
        let mut out = payloads.next().unwrap_or_default();
        out.reserve_exact(total - out.len());
        out.splice(0..0, head);
        for payload in payloads {
            out.extend_from_slice(&payload);
        }
        debug_assert_eq!(out.len(), total);
        out
    }

    /// Validate a whole file — magic, version, table bounds, known ids in
    /// file order with zero flags, payloads contiguous from the table end
    /// to EOF, every checksum — and return the payload of every section,
    /// in [`sections`](Self::sections) order. This is the only full-file
    /// pass a load performs; payload contents are left encoded.
    pub fn parse<'a>(&self, file: &'a [u8]) -> Result<Vec<&'a [u8]>, FormatError> {
        if file.len() < self.magic.len() {
            return Err(FormatError::Truncated("magic"));
        }
        if file[..self.magic.len()] != self.magic[..] {
            return Err(FormatError::BadMagic);
        }
        if file.len() < TABLE_OFFSET {
            return Err(FormatError::Truncated("header"));
        }
        let version = le_u32(&file[8..]);
        if version != self.version {
            return Err(FormatError::UnsupportedVersion(version));
        }
        let table_end = (le_u32(&file[12..]) as usize)
            .checked_mul(ENTRY_LEN)
            .and_then(|table_len| table_len.checked_add(TABLE_OFFSET))
            .ok_or(FormatError::Malformed("section count overflows"))?;
        if file.len() < table_end {
            return Err(FormatError::Truncated("section table"));
        }

        let mut found: Vec<Option<&[u8]>> = vec![None; self.sections.len()];
        let mut last_slot = None;
        // Where the next payload must start: each one begins where the
        // previous one ended, the first at the end of the table.
        let mut next = table_end;
        for entry in file[TABLE_OFFSET..table_end].chunks_exact(ENTRY_LEN) {
            let id = le_u16(entry);
            let slot = self
                .sections
                .iter()
                .position(|&(known, _)| known == id)
                .ok_or(FormatError::UnknownSection(id))?;
            let name = self.sections[slot].1;
            if le_u16(&entry[2..]) != 0 {
                return Err(FormatError::Malformed("nonzero section flags"));
            }
            if last_slot.is_some_and(|last| slot <= last) {
                return Err(FormatError::Malformed("duplicate or out-of-order section id"));
            }
            last_slot = Some(slot);
            let offset = le_u64(&entry[4..]);
            let end = offset
                .checked_add(le_u64(&entry[12..]))
                .ok_or(FormatError::Malformed("section range overflows"))?;
            if end > file.len() as u64 {
                return Err(FormatError::Truncated(name));
            }
            if offset != next as u64 {
                return Err(FormatError::Malformed("section payloads overlap or leave a gap"));
            }
            let payload = &file[next..end as usize];
            if fnv1a64(payload) != le_u64(&entry[20..]) {
                return Err(FormatError::ChecksumMismatch(name));
            }
            found[slot] = Some(payload);
            next = end as usize;
        }
        if next != file.len() {
            return Err(FormatError::Malformed("bytes after the last section"));
        }
        self.sections
            .iter()
            .zip(found)
            .map(|(&(_, name), payload)| payload.ok_or(FormatError::MissingSection(name)))
            .collect()
    }

    /// The corruption drill for a decoder built on this container. `good`
    /// must be a valid file; `rejects` runs the decoder on a damaged copy
    /// and says whether it returned an error. Tried, in order: every
    /// single-byte flip, every prefix truncation, and every
    /// [`table_mutations`](Self::table_mutations) case. Panics naming the
    /// first damaged copy that decoded `Ok` (a decoder panic propagates);
    /// returns how many were tried.
    pub fn gauntlet(&self, good: &[u8], mut rejects: impl FnMut(&[u8]) -> bool) -> usize {
        let mut bad = good.to_vec();
        for i in 0..good.len() {
            bad[i] ^= 0xA5;
            assert!(rejects(&bad), "flip of byte {i}/{} decoded Ok", good.len());
            bad[i] = good[i];
        }
        for len in 0..good.len() {
            assert!(rejects(&good[..len]), "prefix of {len}/{} bytes decoded Ok", good.len());
        }
        let mutations = self.table_mutations(good);
        for (what, bad) in &mutations {
            assert!(rejects(bad), "{what} decoded Ok");
        }
        2 * good.len() + mutations.len()
    }

    /// Structured damage to a valid file's header and table: count =
    /// `u32::MAX`; per entry an offset and a len of `u64::MAX`, an
    /// unknown id, nonzero flags, a duplicated id, a swap with the next
    /// entry. And to its layout, where every checksum still matches the
    /// bytes its entry covers: a byte appended after the last section; a
    /// one-byte gap before each section; an entry stretched over the next
    /// section; and — wherever a section's bytes also occur elsewhere
    /// among the payloads — that section's entry pointed at the other
    /// occurrence and its own bytes dropped, so two entries cover one
    /// range.
    pub fn table_mutations(&self, good: &[u8]) -> Vec<(String, Vec<u8>)> {
        let sections = self.parse(good).expect("table_mutations needs a valid file");
        let n = sections.len();
        let table_end = TABLE_OFFSET + n * ENTRY_LEN;
        let entry = |i: usize| TABLE_OFFSET + i * ENTRY_LEN;
        let offset_of = |i: usize| le_u64(&good[entry(i) + 4..]) as usize;
        fn put_u64(b: &mut [u8], at: usize, v: u64) {
            b[at..at + 8].copy_from_slice(&v.to_le_bytes());
        }

        let mut out = Vec::new();
        let mut edit = |what: String, damage: &dyn Fn(&mut Vec<u8>)| {
            let mut bad = good.to_vec();
            damage(&mut bad);
            out.push((what, bad));
        };
        edit("section count = u32::MAX".into(), &|b| b[12..16].copy_from_slice(&[0xFF; 4]));
        edit("byte appended after the last section".into(), &|b| b.push(0));
        for i in 0..n {
            let at = entry(i);
            edit(format!("entry {i}: offset = u64::MAX"), &|b| put_u64(b, at + 4, u64::MAX));
            edit(format!("entry {i}: len = u64::MAX"), &|b| put_u64(b, at + 12, u64::MAX));
            edit(format!("entry {i}: unknown id"), &|b| b[at..at + 2].copy_from_slice(&[0xFF; 2]));
            edit(format!("entry {i}: nonzero flags"), &|b| b[at + 2] = 1);
            edit(format!("one-byte gap before section {i}"), &|b| {
                b.insert(offset_of(i), 0);
                for j in i..n {
                    put_u64(b, entry(j) + 4, offset_of(j) as u64 + 1);
                }
            });
            if i + 1 == n {
                continue;
            }
            edit(format!("entry {}: id duplicates entry {i}", i + 1), &|b| {
                b.copy_within(at..at + 2, at + ENTRY_LEN)
            });
            edit(format!("entries {i} and {} swapped", i + 1), &|b| {
                let (this, next) = b[at..at + 2 * ENTRY_LEN].split_at_mut(ENTRY_LEN);
                this.swap_with_slice(next);
            });
            if !sections[i + 1].is_empty() {
                edit(format!("entry {i} stretched over section {}", i + 1), &|b| {
                    let (start, end) = (offset_of(i), offset_of(i + 1) + sections[i + 1].len());
                    put_u64(b, at + 12, (end - start) as u64);
                    put_u64(b, at + 20, fnv1a64(&good[start..end]));
                });
            }
        }
        for (j, payload) in sections.iter().enumerate() {
            let (start, len) = (offset_of(j), payload.len());
            let elsewhere = (table_end..=good.len() - len).find(|&p| {
                len > 0 && (p + len <= start || p >= start + len) && good[p..p + len] == **payload
            });
            let Some(p) = elsewhere else { continue };
            edit(format!("entry {j} aliased onto the same bytes at {p}"), &|b| {
                b.drain(start..start + len);
                for k in 0..n {
                    let at = if k == j { p } else { offset_of(k) };
                    put_u64(b, entry(k) + 4, (if at > start { at - len } else { at }) as u64);
                }
            });
        }
        out
    }
}

/// Append-only cursor that builds one section payload: fixed-width
/// little-endian integers, `f64` as its `to_bits` image, strings as
/// `u32` byte length + UTF-8.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// Empty payload.
    pub fn new() -> Self {
        Self::default()
    }

    /// One byte.
    #[inline]
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// `u32` LE.
    #[inline]
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// `u64` LE.
    #[inline]
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// `f64` as `to_bits()` LE — NaN payloads and signed zeros survive.
    #[inline]
    pub fn f64bits(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// `u32` LE byte length, then the UTF-8 bytes.
    #[inline]
    pub fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.bytes(s.as_bytes());
    }

    /// Raw bytes, no length prefix.
    #[inline]
    pub fn bytes(&mut self, raw: &[u8]) {
        self.buf.extend_from_slice(raw);
    }

    /// The finished payload.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// Sequential reader over one section's payload, the inverse of
/// [`ByteWriter`]. Every read that runs past the end is a
/// [`FormatError::Truncated`] naming the section.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
    section: &'static str,
}

impl<'a> ByteReader<'a> {
    /// Start reading `buf`, the payload of the section called `section`.
    pub fn new(buf: &'a [u8], section: &'static str) -> Self {
        ByteReader { buf, pos: 0, section }
    }

    /// The next `n` raw bytes.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], FormatError> {
        let rest = &self.buf[self.pos..];
        if n > rest.len() {
            return Err(FormatError::Truncated(self.section));
        }
        self.pos += n;
        Ok(&rest[..n])
    }

    /// One byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, FormatError> {
        Ok(self.take(1)?[0])
    }

    /// `u32` LE.
    #[inline]
    pub fn u32(&mut self) -> Result<u32, FormatError> {
        Ok(le_u32(self.take(4)?))
    }

    /// `u64` LE.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, FormatError> {
        Ok(le_u64(self.take(8)?))
    }

    /// `f64` from its `to_bits()` LE image.
    #[inline]
    pub fn f64bits(&mut self) -> Result<f64, FormatError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// `u32` LE byte length, then that many UTF-8 bytes.
    #[inline]
    pub fn str(&mut self) -> Result<&'a str, FormatError> {
        let len = self.u32()? as usize;
        std::str::from_utf8(self.take(len)?)
            .map_err(|_| FormatError::Malformed("invalid utf-8 in string"))
    }

    /// A `u32` LE element count; see [`bounded`](Self::bounded).
    #[inline]
    pub fn count(&mut self, min_elem_bytes: usize) -> Result<usize, FormatError> {
        let n = self.u32()?;
        self.bounded(u64::from(n), min_elem_bytes)
    }

    /// Check an element count just read against the bytes that could
    /// back it (each element takes at least `min_elem_bytes`), so a
    /// corrupt count fails here and not in an allocation.
    #[inline]
    pub fn bounded(&self, n: u64, min_elem_bytes: usize) -> Result<usize, FormatError> {
        let remaining = (self.buf.len() - self.pos) as u64;
        match n.checked_mul(min_elem_bytes as u64) {
            Some(need) if need <= remaining => Ok(n as usize),
            _ => Err(FormatError::Truncated(self.section)),
        }
    }

    /// The payload must be fully consumed.
    pub fn finish(self) -> Result<(), FormatError> {
        if self.pos != self.buf.len() {
            return Err(FormatError::Malformed("trailing bytes in section"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TOY: Format =
        Format { magic: b"PWSTOY1\0", version: 3, sections: &[(1, "A"), (2, "B"), (5, "C")] };

    fn toy_file() -> Vec<u8> {
        // A and C hold the same bytes, so the aliasing mutation applies.
        TOY.write(vec![vec![7; 5], vec![1, 2, 3], vec![7; 5]])
    }

    #[test]
    fn streaming_fnv_equals_fnv_of_the_concatenation() {
        // Published FNV-1a 64 vectors pin the constants.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
        let parts: [&[u8]; 5] = [b"seafood", b"", &[0xff], &7u64.to_le_bytes(), b"restaurant"];
        for split in 0..=parts.len() {
            // Any chunking of the same bytes hashes the same, including
            // empty writes and no writes at all.
            let mut h = Fnv1a64::new();
            h.write(&parts[..split].concat());
            for p in &parts[split..] {
                h.write(p);
            }
            assert_eq!(h.finish(), fnv1a64(&parts.concat()));
        }
        assert_eq!(Fnv1a64::default().finish(), fnv1a64(b""));
    }

    #[test]
    fn splitmix64_matches_the_reference_stream() {
        // SplitMix64 seeded with 0: output i is the finalizer of i·γ.
        const GAMMA: u64 = 0x9E3779B97F4A7C15;
        let stream: Vec<u64> = (0..3u64).map(|i| splitmix64(i.wrapping_mul(GAMMA))).collect();
        assert_eq!(stream, [0xe220_a839_7b1d_cdaf, 0x6e78_9e6a_a1b9_65f4, 0x06c4_5d18_8009_454f]);
    }

    #[test]
    fn write_parse_round_trip() {
        let file = toy_file();
        assert_eq!(TOY.parse(&file), Ok(vec![&[7u8; 5][..], &[1, 2, 3], &[7; 5]]));
        // The in-place assembly is invisible in the bytes: whichever
        // payload is largest, the layout is header, table, payloads.
        assert_eq!(&file[..8], TOY.magic);
        assert_eq!(file.len(), TABLE_OFFSET + 3 * ENTRY_LEN + 13);
        assert_eq!(file[TABLE_OFFSET + 3 * ENTRY_LEN..][..5], [7; 5]);
        let empty = TOY.write(vec![vec![], vec![], vec![]]);
        assert_eq!(TOY.parse(&empty), Ok(vec![&[] as &[u8]; 3]));
    }

    #[test]
    fn header_failures_are_typed() {
        let file = toy_file();
        assert_eq!(TOY.parse(b"PW"), Err(FormatError::Truncated("magic")));
        assert_eq!(TOY.parse(b"NOTATOY!rest"), Err(FormatError::BadMagic));
        assert_eq!(TOY.parse(&file[..12]), Err(FormatError::Truncated("header")));
        assert_eq!(TOY.parse(&file[..40]), Err(FormatError::Truncated("section table")));
        let mut future = file.clone();
        future[8] = 4;
        assert_eq!(TOY.parse(&future), Err(FormatError::UnsupportedVersion(4)));
        let mut flipped = file.clone();
        flipped[TABLE_OFFSET + 3 * ENTRY_LEN + 6] ^= 0xFF;
        assert_eq!(TOY.parse(&flipped), Err(FormatError::ChecksumMismatch("B")));
        let two = Format { sections: &TOY.sections[1..], ..TOY };
        assert_eq!(
            TOY.parse(&two.write(vec![vec![1], vec![2]])),
            Err(FormatError::MissingSection("A"))
        );
        assert_eq!(two.parse(&file), Err(FormatError::UnknownSection(1)));
    }

    /// The layout rules the three per-format parsers never checked: a
    /// trailing byte, a gap and an overlap all keep every checksum valid.
    #[test]
    fn layout_violations_are_malformed() {
        let mutations = TOY.table_mutations(&toy_file());
        let verdict = |what: &str| {
            let (_, bad) = mutations
                .iter()
                .find(|(name, _)| name.starts_with(what))
                .unwrap_or_else(|| panic!("no mutation {what:?}"));
            TOY.parse(bad)
        };
        let broken_layout = Err(FormatError::Malformed("section payloads overlap or leave a gap"));
        assert_eq!(
            verdict("byte appended"),
            Err(FormatError::Malformed("bytes after the last section"))
        );
        assert_eq!(verdict("one-byte gap before section 0"), broken_layout);
        assert_eq!(verdict("one-byte gap before section 2"), broken_layout);
        assert_eq!(verdict("entry 0 stretched over section 1"), broken_layout);
        assert_eq!(verdict("entry 0 aliased"), broken_layout);
        assert_eq!(verdict("entry 2 aliased"), broken_layout);
        assert_eq!(verdict("entries 0 and 1 swapped"), broken_layout);
        let out_of_order = Err(FormatError::Malformed("duplicate or out-of-order section id"));
        assert_eq!(verdict("entry 1: id duplicates entry 0"), out_of_order);
        // With nothing to lay out, only the id order gives a swap away.
        let empty = TOY.table_mutations(&TOY.write(vec![vec![], vec![], vec![]]));
        let (_, swapped) = empty.iter().find(|(name, _)| name.ends_with("swapped")).unwrap();
        assert_eq!(TOY.parse(swapped), out_of_order);
        assert_eq!(
            verdict("section count = u32::MAX"),
            Err(FormatError::Truncated("section table"))
        );
    }

    #[test]
    fn gauntlet_counts_and_catches() {
        let file = toy_file();
        let tried = TOY.gauntlet(&file, |bad| TOY.parse(bad).is_err());
        assert_eq!(tried, 2 * file.len() + TOY.table_mutations(&file).len());
        // A decoder that ignores the container is caught.
        let lenient = std::panic::catch_unwind(|| TOY.gauntlet(&file, |bad| bad.len() < 8));
        assert!(lenient.is_err());
    }

    #[test]
    fn cursors_round_trip_and_fail_typed() {
        let mut w = ByteWriter::new();
        w.u8(9);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX - 1);
        w.f64bits(f64::NAN);
        w.str("héllo");
        w.bytes(&[1, 2]);
        let buf = w.finish();
        let mut r = ByteReader::new(&buf, "S");
        assert_eq!(r.u8(), Ok(9));
        assert_eq!(r.u32(), Ok(0xDEAD_BEEF));
        assert_eq!(r.u64(), Ok(u64::MAX - 1));
        assert_eq!(r.f64bits().map(f64::to_bits), Ok(f64::NAN.to_bits()));
        assert_eq!(r.str(), Ok("héllo"));
        assert_eq!(r.bounded(3, 1), Err(FormatError::Truncated("S")));
        assert_eq!(r.bounded(2, 1), Ok(2));
        assert_eq!(r.take(3), Err(FormatError::Truncated("S")));
        assert_eq!(r.take(2), Ok(&[1u8, 2][..]));
        r.finish().expect("consumed");

        let mut r = ByteReader::new(&[2, 0, 0, 0, 0xFF, 0xFE, 7], "S");
        assert_eq!(r.str(), Err(FormatError::Malformed("invalid utf-8 in string")));
        assert_eq!(r.finish(), Err(FormatError::Malformed("trailing bytes in section")));
        // A count that cannot be backed by the remaining bytes.
        assert_eq!(ByteReader::new(&[0xFF; 4], "S").count(8), Err(FormatError::Truncated("S")));
    }

    #[test]
    fn errors_display() {
        for e in [
            FormatError::BadMagic,
            FormatError::UnsupportedVersion(9),
            FormatError::Truncated("Meta"),
            FormatError::ChecksumMismatch("Docs"),
            FormatError::MissingSection("Terms"),
            FormatError::UnknownSection(8),
            FormatError::Malformed("x"),
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
