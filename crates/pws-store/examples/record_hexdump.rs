//! Print an annotated hexdump of a small encoded user record.
//!
//! ```text
//! cargo run -p pws-store --example record_hexdump
//! ```
//!
//! The output is the source of the worked example in
//! `docs/STORE_FORMAT.md` — rerun this after any codec change and
//! refresh the doc from it.

use pws_click::UserId;
use pws_core::UserState;
use pws_entropy::QueryStats;
use pws_geo::LocId;
use pws_obs::format::{le_u64, ENTRY_LEN, TABLE_OFFSET};
use pws_profile::{ContentProfile, LocationProfile, UserHistory};
use pws_ranksvm::{LinearRankModel, PreferencePair};
use pws_store::{encode_user_record, UserRecord, STORE_FORMAT};
use std::collections::BTreeMap;

fn tiny_record() -> UserRecord {
    let mut state = UserState::new();
    state.model = LinearRankModel::from_weights(vec![0.5, -1.0]);
    state.pairs = vec![PreferencePair { better: vec![1.0, 0.0], worse: vec![0.0, 1.0] }];
    state.content = ContentProfile::from_entries(vec![("fish".into(), 0.75)], 2);
    state.location = LocationProfile::from_entries(vec![(LocId(3), 1.0)], 1);
    state.history =
        UserHistory::from_entries(vec![("http://a/0".into(), 2)], vec![("a".into(), 2)], 2);
    state.observations = 2;
    state.seen_queries = vec!["fish".into()];
    let mut stats = BTreeMap::new();
    stats.insert(
        "fish".into(),
        QueryStats::from_parts(vec![], vec![("fish".into(), 1.0)], vec![], 2, 1),
    );
    UserRecord::new(UserId(0xAB), state, stats)
}

fn hexline(offset: usize, bytes: &[u8], note: &str) {
    let hex: Vec<String> = bytes.iter().map(|b| format!("{b:02x}")).collect();
    println!("{offset:06x}  {:<48}  {note}", hex.join(" "));
}

fn main() {
    let record = tiny_record();
    let bytes = encode_user_record(&record);
    println!("total: {} bytes\n", bytes.len());

    hexline(0, &bytes[0..8], "magic \"PWSUSR1\\0\"");
    hexline(8, &bytes[8..12], "format_version = 2 (u32 LE)");
    hexline(12, &bytes[12..16], "section_count = 7 (u32 LE)");
    println!();

    // (offset, len, checksum) of table entry `i`.
    let entry = |i: usize| {
        let e = &bytes[TABLE_OFFSET + i * ENTRY_LEN..];
        (le_u64(&e[4..]) as usize, le_u64(&e[12..]) as usize, le_u64(&e[20..]))
    };
    for (i, (id, name)) in STORE_FORMAT.sections.iter().enumerate() {
        let at = TABLE_OFFSET + i * ENTRY_LEN;
        let (off, len, sum) = entry(i);
        hexline(at, &bytes[at..at + 4], &format!("entry {i}: id={id} ({name}) flags=0"));
        hexline(at + 4, &bytes[at + 4..at + 12], &format!("  offset = {off}"));
        hexline(at + 12, &bytes[at + 12..at + 20], &format!("  len = {len}"));
        hexline(at + 20, &bytes[at + 20..at + 28], &format!("  fnv1a64 = {sum:#018x}"));
    }
    println!();

    for (i, (_, name)) in STORE_FORMAT.sections.iter().enumerate() {
        let (off, len, _) = entry(i);
        println!("-- section {name} ({len} bytes) --");
        for row in bytes[off..off + len].chunks(16).enumerate() {
            hexline(off + row.0 * 16, row.1, "");
        }
    }
}
