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
//!    to decode with a typed [`StoreError`], never a panic.
//! 3. **One verdict** — the read that verifies section 7 without building
//!    it accepts and rejects exactly what the full decoder does, with the
//!    same error, on every damaged copy.

use proptest::prelude::*;
use pws_click::UserId;
use pws_core::UserState;
use pws_entropy::QueryStats;
use pws_geo::LocId;
use pws_profile::{ContentProfile, LocationProfile, UserHistory};
use pws_ranksvm::{LinearRankModel, PreferencePair};
use pws_obs::format::{ByteWriter, FormatError};
use pws_store::{
    decode_user_record, decode_user_record_with, encode_user_record, encode_user_with, StoreError,
    UserRecord, UserStore, FORMAT_VERSION, STORE_FORMAT,
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
    assert!(!store.contains(record.user));
    assert!(store.get(record.user).expect("get missing").is_none());
    store.put(&record).expect("put");
    assert!(store.contains(record.user));
    assert_eq!(store.users().expect("users"), vec![record.user]);
    assert_eq!(store.len().expect("len"), 1);

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
    assert!(store.is_empty().expect("is_empty"));

    let _ = std::fs::remove_dir_all(&dir);
}

// ── 3. The stats-skipping read ──────────────────────────────────────────
//
// `decode_user_record_with(bytes, need)` verifies section 7 without
// building it unless `need` asks for a key. It must accept and reject
// exactly the bytes `decode_user_record` does, with the same error.

/// Both readers agree on `bytes`: the same error, or both `Ok` — and a
/// reader that asks for every key decodes the very record the full one
/// does.
fn assert_readers_agree(bytes: &[u8], what: &str) {
    let full = decode_user_record(bytes);
    let skip = decode_user_record_with(bytes, |_| false);
    let some = decode_user_record_with(bytes, |key| key == "seafood");
    let all = decode_user_record_with(bytes, |_| true);
    assert_eq!(full.as_ref().err(), skip.as_ref().err(), "{what}: skip path disagrees");
    assert_eq!(full.as_ref().err(), some.as_ref().err(), "{what}: partial ask disagrees");
    assert_eq!(full.as_ref().err(), all.as_ref().err(), "{what}: asking for all disagrees");
    if let (Ok(full), Ok(skip), Ok(all)) = (full, skip, all) {
        assert!(skip.query_stats.is_empty(), "{what}: nothing asked for, nothing built");
        assert_eq!(encode_user_record(&all), encode_user_record(&full), "{what}: same record");
        let mut stripped = full;
        stripped.query_stats.clear();
        assert_eq!(encode_user_record(&skip), encode_user_record(&stripped), "{what}: sections 1–6");
    }
}

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
fn stats_skipping_read_agrees_on_every_flip_and_truncation() {
    let fresh = UserRecord::new(UserId(7), UserState::new(), BTreeMap::new());
    for (name, record) in [("dense", dense_record()), ("fresh", fresh)] {
        let bytes = encode_user_record(&record);
        assert_readers_agree(&bytes, name);
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0xFF;
            assert_readers_agree(&bad, &format!("{name}: byte {i} flipped"));
        }
        for len in 0..bytes.len() {
            assert_readers_agree(&bytes[..len], &format!("{name}: first {len} bytes"));
        }
        // The same inside section 7, re-checksummed so the damage reaches
        // the section decoder instead of the checksum.
        let payload = query_stats_payload(&bytes);
        for i in 0..payload.len() {
            for mask in [0x01, 0x80, 0xFF] {
                let mut bad = payload.clone();
                bad[i] ^= mask;
                let what = format!("{name}: section 7 byte {i} ^ {mask:#x}");
                assert_readers_agree(&with_query_stats_payload(&bytes, bad), &what);
            }
        }
        for len in 0..payload.len() {
            let what = format!("{name}: section 7 cut to {len} bytes");
            assert_readers_agree(&with_query_stats_payload(&bytes, payload[..len].to_vec()), &what);
        }
    }
}

#[test]
fn stats_skipping_read_rejects_malformed_query_stats_like_the_decoder() {
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
        let bad = with_query_stats_payload(&bytes, payload);
        assert_eq!(decode_user_record(&bad).err(), expected, "{what}");
        assert_readers_agree(&bad, what);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn stats_skipping_read_agrees_on_arbitrary_records(record in user_record(), at in any::<usize>()) {
        let bytes = encode_user_record(&record);
        assert_readers_agree(&bytes, "as encoded");
        let payload = query_stats_payload(&bytes);
        let i = at % payload.len();
        let mut bad = payload.clone();
        bad[i] ^= 0x5A;
        assert_readers_agree(&with_query_stats_payload(&bytes, bad), "section 7 byte flipped");
        assert_readers_agree(
            &with_query_stats_payload(&bytes, payload[..i].to_vec()),
            "section 7 truncated",
        );
    }
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
