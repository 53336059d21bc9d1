//! The `PWSFLT1` flight-dump file format.
//!
//! A flight dump is the on-disk image of the serving layer's flight
//! recorder rings: the last N [`FlightEvent`]s per shard at the moment
//! something went wrong (or an operator asked). It is a
//! [`crate::format`] container (`docs/CONTAINER_FORMAT.md`), the same one
//! under `PWSSEG1` (segments) and `PWSUSR1` (user records):
//!
//! * fixed 8-byte magic + little-endian `u32` format version,
//! * a section table with per-section FNV-1a-64 checksums,
//! * every multi-byte integer little-endian, every `f64` as `to_bits`,
//! * decoding is total: corrupt, truncated, or future-version input
//!   yields a typed [`FlightError`], never a panic,
//! * encoding is a pure function of logical content (no timestamps, no
//!   randomness), so identical rings dump to identical bytes.
//!
//! The payload layout, with an annotated hexdump, lives in
//! `docs/FLIGHT_FORMAT.md`; a CI gate keeps the section table there in
//! two-way sync with [`SectionId`].

use crate::event::{DegradeReason, FlightEvent, SEARCH_STAGES};
use crate::format::{ByteReader, ByteWriter, Format, FormatError};
use crate::trace::BetaProvenance;

/// File magic: identifies a flight dump and its major format family.
pub const MAGIC: &[u8; 8] = b"PWSFLT1\0";

/// Current format version. Bump on any incompatible layout change;
/// readers reject versions they don't know.
pub const FORMAT_VERSION: u32 = 1;

/// Encoded byte length of one [`FlightEvent`] record.
pub const EVENT_LEN: usize = 4 + 4 + 8 + 8 + 8 * SEARCH_STAGES.len() + 8 + 8 + 5 + 8;

/// The sections of a flight dump, in file order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u16)]
pub enum SectionId {
    /// Dump-level metadata: trigger reason, shard count, event count.
    Meta = 1,
    /// The stage-slot schema: the [`SEARCH_STAGES`] names, so a dump is
    /// self-describing about what its latency slots mean.
    Stages = 2,
    /// The event records themselves, oldest first per shard.
    Events = 3,
}

/// The flight-dump container: all sections, in the order they are written.
pub const FLIGHT_FORMAT: Format = Format {
    magic: MAGIC,
    version: FORMAT_VERSION,
    sections: &[
        (SectionId::Meta as u16, "Meta"),
        (SectionId::Stages as u16, "Stages"),
        (SectionId::Events as u16, "Events"),
    ],
};

/// Why a dump was taken. Recorded in the [`SectionId::Meta`] section so
/// an incident review knows whether it is looking at an automatic
/// degrade/shed capture or an operator request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum DumpReason {
    /// An operator (or test) asked for the rings' current contents.
    OnDemand = 0,
    /// The degrade-burst threshold tripped.
    DegradeBurst = 1,
    /// The shed-burst threshold tripped.
    ShedBurst = 2,
}

impl DumpReason {
    /// Stable label for rendering and filtering.
    pub fn label(self) -> &'static str {
        match self {
            DumpReason::OnDemand => "on_demand",
            DumpReason::DegradeBurst => "degrade_burst",
            DumpReason::ShedBurst => "shed_burst",
        }
    }

    fn from_u8(code: u8) -> Option<Self> {
        [DumpReason::OnDemand, DumpReason::DegradeBurst, DumpReason::ShedBurst]
            .into_iter()
            .find(|r| *r as u8 == code)
    }
}

/// Everything a flight-dump file carries, decoded.
#[derive(Debug, Clone, PartialEq)]
pub struct FlightDump {
    /// Why the dump was taken.
    pub reason: DumpReason,
    /// Number of serving shards the recorder was configured with.
    pub shard_count: u32,
    /// The recorded events, oldest first per shard, shards
    /// concatenated in index order.
    pub events: Vec<FlightEvent>,
}

impl FlightDump {
    /// Render the whole dump for a terminal (the `pws-trace flight`
    /// output format): a header line plus one line per event.
    pub fn render(&self) -> String {
        let mut out = format!(
            "flight dump: {} event(s), {} shard(s), reason {}\n",
            self.events.len(),
            self.shard_count,
            self.reason.label()
        );
        for ev in &self.events {
            out.push_str("  ");
            out.push_str(&ev.render());
            out.push('\n');
        }
        out
    }

    /// Write the encoded dump to `path` (create/truncate).
    pub fn write_to(&self, path: &std::path::Path) -> Result<(), FlightError> {
        std::fs::write(path, encode_flight_dump(self))
            .map_err(|e| FlightError::Io(format!("{}: {e}", path.display())))
    }

    /// Read and decode a dump from `path`.
    pub fn read_from(path: &std::path::Path) -> Result<Self, FlightError> {
        let bytes =
            std::fs::read(path).map_err(|e| FlightError::Io(format!("{}: {e}", path.display())))?;
        decode_flight_dump(&bytes)
    }
}

/// Everything that can be wrong with a flight-dump file. Every decode
/// failure is one of these — never a panic.
#[derive(Debug, Clone, PartialEq)]
pub enum FlightError {
    /// Underlying file I/O failed.
    Io(String),
    /// The bytes are not a valid version-1 flight dump.
    Format(FormatError),
}

impl std::fmt::Display for FlightError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FlightError::Io(e) => write!(f, "flight dump io error: {e}"),
            FlightError::Format(e) => write!(f, "flight dump: {e}"),
        }
    }
}

impl std::error::Error for FlightError {}

impl From<FormatError> for FlightError {
    fn from(e: FormatError) -> Self {
        FlightError::Format(e)
    }
}

// ── Encoding ────────────────────────────────────────────────────────────

fn encode_meta(dump: &FlightDump) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.u8(dump.reason as u8);
    w.u32(dump.shard_count);
    w.u64(dump.events.len() as u64);
    w.finish()
}

fn encode_stages() -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.u32(SEARCH_STAGES.len() as u32);
    for name in SEARCH_STAGES {
        w.str(name);
    }
    w.finish()
}

fn encode_event(w: &mut ByteWriter, ev: &FlightEvent) {
    w.u32(ev.user);
    w.u32(ev.shard);
    w.u64(ev.queue_depth);
    w.u64(ev.query_hash);
    for nanos in ev.stage_nanos {
        w.u64(nanos);
    }
    w.u64(ev.total_nanos);
    w.u64(ev.beta_bits);
    w.u8(ev.beta_provenance.code());
    w.u8(match ev.cache_hit {
        None => 0,
        Some(false) => 1,
        Some(true) => 2,
    });
    w.u8(ev.degraded.map_or(0, |reason| reason as u8));
    w.u8(ev.store_fault_in as u8);
    w.u8(ev.store_evict as u8);
    w.u64(ev.page_fingerprint);
}

fn encode_events(dump: &FlightDump) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.u64(dump.events.len() as u64);
    for ev in &dump.events {
        encode_event(&mut w, ev);
    }
    w.finish()
}

/// Encode a dump to its canonical `PWSFLT1` byte image.
pub fn encode_flight_dump(dump: &FlightDump) -> Vec<u8> {
    FLIGHT_FORMAT.write(vec![encode_meta(dump), encode_stages(), encode_events(dump)])
}

// ── Decoding ────────────────────────────────────────────────────────────

fn decode_event(r: &mut ByteReader<'_>) -> Result<FlightEvent, FormatError> {
    let user = r.u32()?;
    let shard = r.u32()?;
    let queue_depth = r.u64()?;
    let query_hash = r.u64()?;
    let mut stage_nanos = [0u64; SEARCH_STAGES.len()];
    for slot in &mut stage_nanos {
        *slot = r.u64()?;
    }
    let total_nanos = r.u64()?;
    let beta_bits = r.u64()?;
    let beta_provenance = BetaProvenance::from_code(r.u8()?)
        .ok_or(FormatError::Malformed("unknown beta provenance code"))?;
    let cache_hit = match r.u8()? {
        0 => None,
        1 => Some(false),
        2 => Some(true),
        _ => return Err(FormatError::Malformed("unknown cache-hit code")),
    };
    let degraded = match r.u8()? {
        0 => None,
        code => Some(
            DegradeReason::from_code(code).ok_or(FormatError::Malformed("unknown degrade code"))?,
        ),
    };
    let store_fault_in = match r.u8()? {
        0 => false,
        1 => true,
        _ => return Err(FormatError::Malformed("non-boolean fault-in flag")),
    };
    let store_evict = match r.u8()? {
        0 => false,
        1 => true,
        _ => return Err(FormatError::Malformed("non-boolean evict flag")),
    };
    let page_fingerprint = r.u64()?;
    Ok(FlightEvent {
        user,
        shard,
        queue_depth,
        query_hash,
        stage_nanos,
        total_nanos,
        beta_bits,
        beta_provenance,
        cache_hit,
        degraded,
        store_fault_in,
        store_evict,
        page_fingerprint,
    })
}

/// Decode a `PWSFLT1` byte image. Total: every failure is a typed
/// [`FlightError`].
pub fn decode_flight_dump(bytes: &[u8]) -> Result<FlightDump, FlightError> {
    Ok(decode_sections(&FLIGHT_FORMAT.parse(bytes)?)?)
}

fn decode_sections(sections: &[&[u8]]) -> Result<FlightDump, FormatError> {
    let reader = |i: usize| ByteReader::new(sections[i], FLIGHT_FORMAT.sections[i].1);
    let mut meta = reader(0);
    let reason =
        DumpReason::from_u8(meta.u8()?).ok_or(FormatError::Malformed("unknown dump reason"))?;
    let shard_count = meta.u32()?;
    let declared_events = meta.u64()?;
    meta.finish()?;

    let mut stages = reader(1);
    let stage_count = stages.u32()? as usize;
    if stage_count != SEARCH_STAGES.len() {
        return Err(FormatError::Malformed("stage schema count mismatch"));
    }
    for expected in SEARCH_STAGES {
        if stages.str()? != expected {
            return Err(FormatError::Malformed("stage schema name mismatch"));
        }
    }
    stages.finish()?;

    let mut events_r = reader(2);
    let stored_events = events_r.u64()?;
    if stored_events != declared_events {
        return Err(FormatError::Malformed("event count disagrees with Meta"));
    }
    let count = events_r.bounded(stored_events, EVENT_LEN)?;
    let mut events = Vec::with_capacity(count);
    for _ in 0..count {
        events.push(decode_event(&mut events_r)?);
    }
    events_r.finish()?;

    Ok(FlightDump { reason, shard_count, events })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A dump with every field of every byte-width exercised: several
    /// events covering all enum codes, extreme values, and both flag
    /// polarities (the gauntlet needs every encoded byte to be
    /// load-bearing).
    fn dense_dump() -> FlightDump {
        let mut events = Vec::new();
        let mut ev = FlightEvent::empty();
        ev.user = 0xDEAD_BEEF;
        ev.shard = 7;
        ev.queue_depth = 3;
        ev.query_hash = crate::event::query_hash("seafood restaurant");
        ev.stage_nanos = [120_000, 80_000, 15_000, 500, 30_000];
        ev.total_nanos = 260_000;
        ev.beta_bits = 0.62f64.to_bits();
        ev.beta_provenance = BetaProvenance::Adaptive;
        ev.cache_hit = Some(true);
        ev.degraded = None;
        ev.store_fault_in = true;
        ev.store_evict = true;
        ev.page_fingerprint = crate::event::page_fingerprint([(3u32, 1usize), (1, 2)]);
        events.push(ev);
        let mut ev2 = FlightEvent::empty();
        ev2.user = 1;
        ev2.queue_depth = u64::MAX;
        ev2.beta_bits = f64::NAN.to_bits();
        ev2.beta_provenance = BetaProvenance::Fixed;
        ev2.cache_hit = Some(false);
        ev2.degraded = Some(DegradeReason::LockPoisoned);
        events.push(ev2);
        let mut ev3 = FlightEvent::empty();
        ev3.degraded = Some(DegradeReason::Panic);
        ev3.beta_provenance = BetaProvenance::AdaptiveNeutral;
        events.push(ev3);
        FlightDump { reason: DumpReason::DegradeBurst, shard_count: 8, events }
    }

    #[test]
    fn encode_decode_round_trips() {
        let dump = dense_dump();
        let bytes = encode_flight_dump(&dump);
        let decoded = decode_flight_dump(&bytes).expect("decode own encoding");
        assert_eq!(decoded, dump);
        // Canonical: re-encoding reproduces the byte image.
        assert_eq!(encode_flight_dump(&decoded), bytes);
    }

    #[test]
    fn empty_dump_round_trips() {
        let dump = FlightDump { reason: DumpReason::OnDemand, shard_count: 1, events: vec![] };
        let bytes = encode_flight_dump(&dump);
        assert_eq!(decode_flight_dump(&bytes).expect("decode"), dump);
    }

    #[test]
    fn event_len_matches_encoder() {
        let mut w = ByteWriter::new();
        encode_event(&mut w, &FlightEvent::empty());
        assert_eq!(w.finish().len(), EVENT_LEN);
    }

    #[test]
    fn render_includes_header_and_rows() {
        let dump = dense_dump();
        let s = dump.render();
        assert!(s.starts_with("flight dump: 3 event(s), 8 shard(s), reason degrade_burst\n"));
        assert_eq!(s.lines().count(), 4);
        assert!(s.contains("lock_poisoned"));
    }

    #[test]
    fn file_round_trip_and_io_error() {
        let path =
            std::env::temp_dir().join(format!("pws-flight-test-{}.pwsflt", std::process::id()));
        let dump = dense_dump();
        dump.write_to(&path).expect("write");
        assert_eq!(FlightDump::read_from(&path).expect("read"), dump);
        let _ = std::fs::remove_file(&path);
        assert!(matches!(FlightDump::read_from(&path), Err(FlightError::Io(_))));
    }

    #[test]
    fn wrong_magic_and_future_version_are_typed() {
        let typed = |e| Err(FlightError::Format(e));
        assert_eq!(decode_flight_dump(b"NOTFLT!!rest"), typed(FormatError::BadMagic));
        assert_eq!(decode_flight_dump(b""), typed(FormatError::Truncated("magic")));
        let mut bytes = encode_flight_dump(&dense_dump());
        bytes[8..12].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
        assert_eq!(
            decode_flight_dump(&bytes),
            typed(FormatError::UnsupportedVersion(FORMAT_VERSION + 1))
        );
    }

    /// Decoding is total: every flip, truncation and table mutation of a
    /// valid dump is a typed error. The empty dump's `Events` payload
    /// (a zero count) also occurs inside `Meta`, so it adds the case of
    /// two table entries covering one range.
    #[test]
    fn gauntlet_rejects_every_mutation() {
        let rejects = |bad: &[u8]| decode_flight_dump(bad).is_err();
        FLIGHT_FORMAT.gauntlet(&encode_flight_dump(&dense_dump()), rejects);
        let empty = FlightDump { reason: DumpReason::OnDemand, shard_count: 1, events: vec![] };
        let bytes = encode_flight_dump(&empty);
        assert!(FLIGHT_FORMAT
            .table_mutations(&bytes)
            .iter()
            .any(|(what, _)| what.contains("aliased")));
        FLIGHT_FORMAT.gauntlet(&bytes, rejects);
    }

    /// Length + FNV-1a-64 of the dense dump's bytes, captured before the
    /// container moved into `crate::format`: `PWSFLT1` stays version 1,
    /// byte for byte.
    #[test]
    fn dense_dump_bytes_pin_format_version_1() {
        let bytes = encode_flight_dump(&dense_dump());
        assert_eq!(
            (bytes.len(), crate::format::fnv1a64(&bytes)),
            (494, 0xed7d_f8c2_5e60_aed8),
            "flight dump bytes moved"
        );
    }
}
