//! Print an annotated hexdump of a small encoded flight dump.
//!
//! ```text
//! cargo run -p pws-obs --example flight_hexdump
//! ```
//!
//! The output is the source of the worked example in
//! `docs/FLIGHT_FORMAT.md` — rerun this after any codec change and
//! refresh the doc from it.

use pws_obs::event::{
    page_fingerprint, query_hash, DegradeReason, FlightEvent, SEARCH_STAGES, SEARCH_STAGE_LABELS,
};
use pws_obs::flight::{encode_flight_dump, DumpReason, FlightDump, EVENT_LEN, FLIGHT_FORMAT};
use pws_obs::format::{le_u64, ENTRY_LEN, TABLE_OFFSET};
use pws_obs::trace::BetaProvenance;

fn tiny_dump() -> FlightDump {
    let mut healthy = FlightEvent::empty();
    healthy.user = 3;
    healthy.shard = 0;
    healthy.queue_depth = 1;
    healthy.query_hash = query_hash("seafood restaurant");
    healthy.stage_nanos = [120_000, 80_000, 15_000, 500, 30_000];
    healthy.total_nanos = 260_000;
    healthy.beta_bits = 0.62f64.to_bits();
    healthy.beta_provenance = BetaProvenance::Adaptive;
    healthy.cache_hit = Some(false);
    healthy.degraded = None;
    healthy.store_fault_in = true;
    healthy.page_fingerprint = page_fingerprint([(2u32, 1usize), (0, 2), (5, 3)]);

    let mut degraded = FlightEvent::empty();
    degraded.user = 1;
    degraded.shard = 2;
    degraded.queue_depth = 4;
    degraded.query_hash = query_hash("pizza");
    degraded.stage_nanos = [2_000_000, 0, 0, 0, 0];
    degraded.total_nanos = 2_000_000;
    degraded.beta_bits = 0.5f64.to_bits();
    degraded.beta_provenance = BetaProvenance::AdaptiveNeutral;
    degraded.cache_hit = Some(true);
    degraded.degraded = Some(DegradeReason::DeadlineRetrieval);
    degraded.page_fingerprint = page_fingerprint([(4u32, 1usize)]);

    FlightDump { reason: DumpReason::DegradeBurst, shard_count: 3, events: vec![healthy, degraded] }
}

fn hexline(offset: usize, bytes: &[u8], note: &str) {
    let hex: Vec<String> = bytes.iter().map(|b| format!("{b:02x}")).collect();
    println!("{offset:06x}  {:<48}  {note}", hex.join(" "));
}

/// Annotate one encoded event field by field (the layout is fixed; see
/// `encode_event` in `crates/pws-obs/src/flight.rs`).
fn dump_event(mut at: usize, bytes: &[u8], index: usize) {
    let mut field = |len: usize, note: &str| {
        hexline(at, &bytes[at..at + len], note);
        at += len;
    };
    field(4, &format!("event {index}: user (u32 LE)"));
    field(4, "  shard (u32 LE)");
    field(8, "  queue_depth (u64 LE)");
    field(8, "  query_hash (u64 LE)");
    for label in SEARCH_STAGE_LABELS {
        field(8, &format!("  stage_nanos[{label}] (u64 LE)"));
    }
    field(8, "  total_nanos (u64 LE)");
    field(8, "  beta_bits (f64 to_bits LE)");
    field(5, "  provenance, cache_hit, degraded, fault_in, evict (5 × u8)");
    field(8, "  page_fingerprint (u64 LE)");
}

fn main() {
    let dump = tiny_dump();
    let bytes = encode_flight_dump(&dump);
    println!("total: {} bytes\n", bytes.len());

    hexline(0, &bytes[0..8], "magic \"PWSFLT1\\0\"");
    hexline(8, &bytes[8..12], "format_version = 1 (u32 LE)");
    hexline(12, &bytes[12..16], "section_count = 3 (u32 LE)");
    println!();

    // (offset, len, checksum) of table entry `i`.
    let entry = |i: usize| {
        let e = &bytes[TABLE_OFFSET + i * ENTRY_LEN..];
        (le_u64(&e[4..]) as usize, le_u64(&e[12..]) as usize, le_u64(&e[20..]))
    };
    for (i, (id, name)) in FLIGHT_FORMAT.sections.iter().enumerate() {
        let at = TABLE_OFFSET + i * ENTRY_LEN;
        let (off, len, sum) = entry(i);
        hexline(at, &bytes[at..at + 4], &format!("entry {i}: id={id} ({name}) flags=0"));
        hexline(at + 4, &bytes[at + 4..at + 12], &format!("  offset = {off}"));
        hexline(at + 12, &bytes[at + 12..at + 20], &format!("  len = {len}"));
        hexline(at + 20, &bytes[at + 20..at + 28], &format!("  fnv1a64 = {sum:#018x}"));
    }
    println!();

    let (off, len, _) = entry(0); // Meta
    println!("-- section Meta ({len} bytes) --");
    hexline(off, &bytes[off..off + 1], "reason = 1 (degrade_burst, u8)");
    hexline(off + 1, &bytes[off + 1..off + 5], "shard_count = 3 (u32 LE)");
    hexline(off + 5, &bytes[off + 5..off + 13], "event_count = 2 (u64 LE)");

    let (off, len, _) = entry(1); // Stages
    println!("-- section Stages ({len} bytes) --");
    hexline(off, &bytes[off..off + 4], "stage_count = 5 (u32 LE)");
    let mut at = off + 4;
    for name in SEARCH_STAGES {
        hexline(at, &bytes[at..at + 4], &format!("len = {} (u32 LE)", name.len()));
        hexline(at + 4, &bytes[at + 4..at + 4 + name.len()], &format!("{name:?}"));
        at += 4 + name.len();
    }

    let (off, len, _) = entry(2); // Events
    println!("-- section Events ({len} bytes) --");
    hexline(off, &bytes[off..off + 8], "event_count = 2 (u64 LE)");
    for i in 0..dump.events.len() {
        dump_event(off + 8 + i * EVENT_LEN, &bytes, i);
    }
}
