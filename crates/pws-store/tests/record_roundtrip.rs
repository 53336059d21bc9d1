//! Property tests for user-record persistence (the `segment_roundtrip`
//! idiom, applied to the user-state tier).
//!
//! Two guarantees, for *arbitrary* records:
//!
//! 1. **Round trip** — `decode(encode(r))` reproduces `r`'s logical
//!    content bit-exactly. `UserState` has no `PartialEq`, so the test
//!    asserts the stronger canonical-bytes property instead:
//!    `encode(decode(encode(r))) == encode(r)`, plus field spot checks.
//! 2. **Durability** — every damaged copy the shared container gauntlet
//!    makes (each single byte flipped, each prefix, each section-table
//!    and layout mutation), wrong-magic, and other-version files all fail
//!    to decode with a typed [`StoreError`], never a panic — user records
//!    and the pooled statistics file alike.

use proptest::prelude::*;
use pws_click::UserId;
use pws_core::UserState;
use pws_entropy::QueryStats;
use pws_geo::LocId;
use pws_profile::{ContentProfile, LocationProfile, UserHistory};
use pws_ranksvm::{LinearRankModel, PreferencePair};
use pws_obs::format::{ByteWriter, FormatError};
use pws_store::{
    decode_stats_file, decode_user_record, encode_stats_file, encode_user_record, encode_user_with,
    StoreError, UserRecord, UserStore, FORMAT_VERSION, STATS_FORMAT, STORE_FORMAT,
};
use std::collections::BTreeMap;

// ── Record strategies ───────────────────────────────────────────────────

const TERMS: [&str; 9] = [
    "lobster", "seafood", "harbor", "android", "battery", "camera", "hotel", "booking", "museum",
];

fn term() -> impl Strategy<Value = String> {
    prop::sample::select(TERMS.to_vec()).prop_map(str::to_string)
}

/// Finite weights spanning several magnitudes, including negatives and
/// exact zero (the codec must carry all of them bit-exactly).
fn weight() -> impl Strategy<Value = f64> {
    (0u32..4, -1e6..1e6f64).prop_map(|(kind, v)| match kind {
        0 => 0.0,
        1 => v * 1e-15,
        _ => v,
    })
}

/// Largest model dimension the generator uses; vectors are generated at
/// this length and truncated to the record's drawn dimension.
const MAX_DIM: usize = 6;

fn vector() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(weight(), MAX_DIM)
}

fn query_stats() -> impl Strategy<Value = QueryStats> {
    (
        prop::collection::vec((term(), weight()), 0..4),
        prop::collection::vec((term(), weight()), 0..4),
        prop::collection::vec((any::<u32>().prop_map(LocId), weight()), 0..4),
        0u64..1000,
        0u64..1000,
    )
        .prop_map(|(urls, concepts, locs, imp, clk)| {
            QueryStats::from_parts(urls, concepts, locs, imp, clk)
        })
}

fn user_record() -> impl Strategy<Value = UserRecord> {
    (
        (any::<u32>(), 0u64..10_000, 0..=MAX_DIM),
        (
            prop::collection::btree_map(term(), query_stats(), 0..4),
            vector(),
            prop::collection::vec((vector(), vector()), 0..5),
        ),
        (
            prop::collection::vec((term(), weight()), 0..6),
            prop::collection::vec((any::<u32>().prop_map(LocId), weight()), 0..6),
            prop::collection::vec((term(), 0u32..50), 0..5),
            prop::collection::vec((term(), 0u32..50), 0..5),
        ),
    )
        .prop_map(
            |(
                (user, obs, dim),
                (stats, weights, raw_pairs),
                (content, location, urls, domains),
            )| {
                let mut state = UserState::new();
                let mut weights = weights;
                weights.truncate(dim);
                state.model = LinearRankModel::from_weights(weights);
                state.pairs = raw_pairs
                    .into_iter()
                    .map(|(mut better, mut worse)| {
                        better.truncate(dim);
                        worse.truncate(dim);
                        PreferencePair { better, worse }
                    })
                    .collect();
                state.content = ContentProfile::from_entries(content, obs);
                state.location = LocationProfile::from_entries(location, obs / 2);
                let total = urls.iter().map(|(_, c)| u64::from(*c)).sum();
                state.history = UserHistory::from_entries(urls, domains, total);
                state.observations = obs;
                let mut seen: Vec<String> = stats.keys().cloned().collect();
                seen.sort();
                state.seen_queries = seen;
                UserRecord::new(UserId(user), state, stats)
            },
        )
}

/// A fixed, fully-populated record for the deterministic corruption and
/// truncation sweeps (every section non-empty).
fn dense_record() -> UserRecord {
    let mut state = UserState::new();
    state.model = LinearRankModel::from_weights(vec![0.25, -1.5, 3.0, 0.0]);
    state.pairs = vec![
        PreferencePair { better: vec![1.0, 2.0, -0.5, 0.125], worse: vec![0.0, 1.0, 0.5, -2.0] },
        PreferencePair { better: vec![-3.0, 0.75, 2.5, 1.0], worse: vec![1.5, -0.25, 0.0, 4.0] },
    ];
    state.content =
        ContentProfile::from_entries(vec![("seafood".into(), 0.7), ("harbor".into(), 0.3)], 11);
    state.location =
        LocationProfile::from_entries(vec![(LocId(3), 0.6), (LocId(7), 0.4)], 5);
    state.history = UserHistory::from_entries(
        vec![("http://t.test/0".into(), 3), ("http://t.test/1".into(), 1)],
        vec![("t.test".into(), 4)],
        4,
    );
    state.observations = 11;
    state.seen_queries = vec!["hotel".into(), "seafood".into()];
    let mut stats = BTreeMap::new();
    stats.insert(
        "seafood".into(),
        QueryStats::from_parts(
            vec![("http://t.test/0".into(), 2.0)],
            vec![("seafood".into(), 1.5)],
            vec![(LocId(3), 0.5)],
            9,
            4,
        ),
    );
    stats.insert(
        "hotel".into(),
        QueryStats::from_parts(vec![], vec![("hotel".into(), 0.25)], vec![], 2, 1),
    );
    UserRecord::new(UserId(0xBEEF), state, stats)
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("pws-store-{tag}-{}", std::process::id()))
}

// ── 1. Round trip ───────────────────────────────────────────────────────

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn encode_decode_is_canonical(record in user_record()) {
        let bytes = encode_user_record(&record);
        let decoded = decode_user_record(&bytes).expect("decode own encoding");
        // Canonical-bytes round trip: re-encoding the decoded record
        // reproduces the exact byte image, so every field (including
        // every f64 bit pattern) survived.
        prop_assert_eq!(encode_user_record(&decoded), bytes);
        // Spot checks on fields with an equality to compare directly.
        prop_assert_eq!(decoded.user, record.user);
        prop_assert_eq!(decoded.state.observations, record.state.observations);
        prop_assert_eq!(&decoded.state.seen_queries, &record.state.seen_queries);
        prop_assert_eq!(
            decoded.state.model.weight_bits_le(),
            record.state.model.weight_bits_le()
        );
        prop_assert_eq!(decoded.state.pairs.len(), record.state.pairs.len());
        prop_assert_eq!(
            decoded.state.history.total_clicks(),
            record.state.history.total_clicks()
        );
        prop_assert_eq!(decoded.query_stats.len(), record.query_stats.len());
    }
}

#[test]
fn non_finite_weights_round_trip() {
    let mut record = dense_record();
    record.state.model = LinearRankModel::from_weights(vec![f64::NAN, f64::INFINITY, -0.5, 1.0]);
    let bytes = encode_user_record(&record);
    let decoded = decode_user_record(&bytes).expect("decode");
    // NaN and ±∞ travel bit-exactly.
    assert_eq!(decoded.state.model.weight_bits_le(), record.state.model.weight_bits_le());
    assert_eq!(encode_user_record(&decoded), bytes);
}

/// The section-table checksums of `dense_record()`'s seven sections, read
/// out of the version-1 encoding (which carried an eighth, quantised
/// section): version 2 dropped that section and left every other
/// payload byte alone.
#[test]
fn exact_section_payloads_match_format_version_1() {
    use pws_obs::format::{le_u64, ENTRY_LEN, TABLE_OFFSET};
    const V1: [(u64, u64); 7] = [
        (40, 0x844c_da0d_b61a_0ec4),
        (36, 0x12a0_e4bd_2f90_4a41),
        (49, 0xc0e7_58ae_3716_4a81),
        (36, 0x7bfb_1260_0c5a_d787),
        (76, 0x2cfd_9c81_c1f5_e959),
        (148, 0x6879_8546_b364_1c2a),
        (155, 0x084e_489f_97c8_a75f),
    ];
    let bytes = encode_user_record(&dense_record());
    let table: Vec<(u64, u64)> = bytes[TABLE_OFFSET..TABLE_OFFSET + 7 * ENTRY_LEN]
        .chunks(ENTRY_LEN)
        .map(|e| (le_u64(&e[12..]), le_u64(&e[20..])))
        .collect();
    assert_eq!(table, V1, "(len, checksum) of Meta…QueryStats moved");
    assert_eq!(bytes[8..16], [2, 0, 0, 0, 7, 0, 0, 0], "version 2, seven sections");
}

/// The readable view of a record (`pws-trace user`) names the user and
/// labels each model weight with its feature.
#[test]
fn render_labels_the_record() {
    let text = decode_user_record(&encode_user_record(&dense_record())).expect("valid").render();
    assert!(text.starts_with("user 48879 · 11 observations\n"), "{text}");
    let labelled = |l: &str| l.split_whitespace().eq(["base_score_norm", "0.2500"]);
    assert!(text.lines().any(labelled), "{text}");
    assert!(text.contains("preference pairs: 2\n"), "{text}");
    assert!(text.lines().any(|l| l.split_whitespace().eq(["seafood", "4", "/", "9"])), "{text}");
}

// ── 2. Durability ───────────────────────────────────────────────────────

#[test]
fn gauntlet_rejects_every_mutation() {
    let rejects = |bad: &[u8]| decode_user_record(bad).is_err();
    STORE_FORMAT.gauntlet(&encode_user_record(&dense_record()), rejects);
    // A fresh user's two empty profiles encode to the same bytes, which
    // adds the case of two table entries covering one range.
    let fresh = encode_user_record(&UserRecord::new(UserId(7), UserState::new(), BTreeMap::new()));
    assert!(STORE_FORMAT.table_mutations(&fresh).iter().any(|(what, _)| what.contains("aliased")));
    STORE_FORMAT.gauntlet(&fresh, rejects);
}

#[test]
fn other_versions_are_rejected() {
    // Version 1 (the eight-section layout) has no compatibility reader.
    for version in [1, FORMAT_VERSION + 1] {
        let mut bytes = encode_user_record(&dense_record());
        bytes[8..12].copy_from_slice(&version.to_le_bytes());
        assert_eq!(
            decode_user_record(&bytes).err(),
            Some(StoreError::Format(FormatError::UnsupportedVersion(version)))
        );
    }
}

#[test]
fn wrong_magic_is_rejected() {
    assert_eq!(
        decode_user_record(b"NOTAPWSU record").err(),
        Some(StoreError::Format(FormatError::BadMagic))
    );
    assert_eq!(
        decode_user_record(b"").err(),
        Some(StoreError::Format(FormatError::Truncated("magic")))
    );
}

// ── 3. Directory store ──────────────────────────────────────────────────

#[test]
fn store_round_trips_and_surfaces_corruption() {
    let dir = temp_dir("roundtrip");
    let _ = std::fs::remove_dir_all(&dir);
    let store = UserStore::open(&dir).expect("open store");

    let record = dense_record();
    assert!(store.get(record.user).expect("get missing").is_none());
    store.put(&record).expect("put");
    assert!(store.get(record.user).expect("get").is_some());
    assert_eq!(store.users().expect("users"), vec![record.user]);
    assert_eq!(store.users().expect("users").len(), 1);

    let loaded = store.get(record.user).expect("get").expect("present");
    assert_eq!(encode_user_record(&loaded), encode_user_record(&record));

    // A present-but-corrupt file is an Err from get, never a fresh user.
    let path = dir.join(format!("user-{:08x}.pwsu", record.user.0));
    let mut raw = std::fs::read(&path).expect("read back");
    let mid = raw.len() / 2;
    raw[mid] ^= 0xFF;
    std::fs::write(&path, &raw).expect("tamper");
    assert!(store.get(record.user).is_err());

    assert!(store.remove(record.user).expect("remove"));
    assert!(!store.remove(record.user).expect("remove again"));
    assert!(store.users().expect("users").is_empty());

    let _ = std::fs::remove_dir_all(&dir);
}

// ── 4. Section 7 and the statistics file ───────────────────────────────
//
// Both carry the same payload, read by the one decoder: a malformed one
// fails typed in either.

/// `bytes` with section 7 replaced by `payload`, checksums recomputed, so
/// the bad payload reaches the section decoder.
fn with_query_stats_payload(bytes: &[u8], payload: Vec<u8>) -> Vec<u8> {
    let mut sections: Vec<Vec<u8>> =
        STORE_FORMAT.parse(bytes).expect("valid record").iter().map(|s| s.to_vec()).collect();
    sections[6] = payload;
    STORE_FORMAT.write(sections)
}

fn query_stats_payload(bytes: &[u8]) -> Vec<u8> {
    STORE_FORMAT.parse(bytes).expect("valid record")[6].to_vec()
}

/// One section-7 entry with no click masses.
fn bare_entry(w: &mut ByteWriter, key: &[u8]) {
    w.u32(key.len() as u32);
    w.bytes(key);
    w.u64(1);
    w.u64(0);
    w.u32(0);
    w.u32(0);
    w.u32(0);
}

fn entries_payload(keys: &[&[u8]]) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.u32(keys.len() as u32);
    for key in keys {
        bare_entry(&mut w, key);
    }
    w.finish()
}

#[test]
fn malformed_query_stats_fail_typed_in_a_record_and_in_the_statistics_file() {
    let bytes = encode_user_record(&dense_record());
    let malformed = |e: &'static str| Some(StoreError::Format(FormatError::Malformed(e)));
    let truncated = Some(StoreError::Format(FormatError::Truncated("query_stats")));
    let mut overlong = entries_payload(&[b"hotel"]);
    overlong[..4].copy_from_slice(&u32::MAX.to_le_bytes());
    let mut trailing = entries_payload(&[b"hotel", b"seafood"]);
    trailing.push(0);
    let cases: Vec<(&str, Vec<u8>, Option<StoreError>)> = vec![
        ("duplicate key", entries_payload(&[b"hotel", b"hotel"]), malformed("duplicate query-stats key")),
        (
            "duplicate key out of order",
            entries_payload(&[b"seafood", b"hotel", b"museum", b"hotel"]),
            malformed("duplicate query-stats key"),
        ),
        ("bad utf-8 key", entries_payload(&[b"hotel", b"sea\xfffood"]), malformed("invalid utf-8 in string")),
        ("over-long count", overlong, truncated),
        ("trailing bytes", trailing, malformed("trailing bytes in section")),
        ("unique keys out of order", entries_payload(&[b"seafood", b"hotel", b"museum"]), None),
        ("empty key", entries_payload(&[b"", b"hotel"]), None),
    ];
    for (what, payload, expected) in cases {
        let bad = with_query_stats_payload(&bytes, payload.clone());
        assert_eq!(decode_user_record(&bad).err(), expected, "{what}");
        let file = STATS_FORMAT.write(vec![payload]);
        assert_eq!(decode_stats_file(&file).err(), expected, "{what}: statistics file");
    }
}

/// The statistics file round-trips and its payload is section 7's: a
/// record's statistics written as the file decode to the same map, and
/// every damaged copy of the file fails typed.
#[test]
fn statistics_file_round_trips_and_rejects_every_mutation() {
    let record = dense_record();
    let file = encode_stats_file(|emit| {
        for (key, s) in &record.query_stats {
            emit(key, s);
        }
    });
    let record_bytes = encode_user_record(&record);
    assert_eq!(STATS_FORMAT.parse(&file).expect("valid")[0], query_stats_payload(&record_bytes));
    let decoded = decode_stats_file(&file).expect("decode own encoding");
    let again = encode_stats_file(|emit| {
        for (key, s) in &decoded {
            emit(key, s);
        }
    });
    assert_eq!(again, file, "canonical bytes");
    STATS_FORMAT.gauntlet(&file, |bad| decode_stats_file(bad).is_err());
    let bad_magic = Some(StoreError::Format(FormatError::BadMagic));
    assert_eq!(decode_user_record(&file).err(), bad_magic, "a statistics file is not a record");
    assert_eq!(decode_stats_file(&record_bytes).err(), bad_magic, "nor a record a statistics file");
}

/// The store writes the statistics file beside the records with the
/// same durable put, and reads it back; a store without one has none.
#[test]
fn store_round_trips_the_statistics_file() {
    let dir = temp_dir("stats-file");
    let _ = std::fs::remove_dir_all(&dir);
    let store = UserStore::open(&dir).expect("open store");
    assert!(store.get_stats().expect("no file yet").is_none());
    let record = dense_record();
    store
        .put_stats(|emit| {
            for (key, s) in &record.query_stats {
                emit(key, s);
            }
        })
        .expect("put_stats");
    let loaded = store.get_stats().expect("read").expect("present");
    let file = encode_stats_file(|emit| {
        for (key, s) in &loaded {
            emit(key, s);
        }
    });
    assert_eq!(std::fs::read(dir.join(pws_store::STATS_FILE)).expect("on disk"), file);
    assert!(store.users().expect("users").is_empty(), "the statistics file is not a record");
    assert!(store.scrub().expect("scrub").is_clean(), "nor something scrub touches");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Encoding section 7 from a visitor (how the serving tier writes a
/// record, straight from its live statistics) gives the record's bytes.
#[test]
fn encoding_from_a_stats_visitor_gives_the_record_bytes() {
    let record = dense_record();
    let live: std::collections::HashMap<String, QueryStats> =
        record.query_stats.iter().map(|(k, s)| (k.clone(), s.clone())).collect();
    let bytes = encode_user_with(record.user, &record.state, |emit| {
        for key in &record.state.seen_queries {
            emit(key, &live[key]);
        }
    });
    assert_eq!(bytes, encode_user_record(&record));
}
