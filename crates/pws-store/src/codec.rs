//! The binary user-record codec.
//!
//! One file per user, carrying the *complete* replay-relevant state: the
//! [`UserState`] (profiles, revisit history, RankSVM model, preference
//! pairs) **plus** the user's contribution to the per-query adaptive-β
//! statistics — the part the old JSON escape hatch silently dropped.
//!
//! A record is a [`pws_obs::format`] container
//! (`docs/CONTAINER_FORMAT.md`, the one under segments and flight dumps
//! too): a fixed header, a section table with per-section FNV-1a-64
//! checksums, then the section payloads. See `docs/STORE_FORMAT.md` for
//! the payload spec.
//!
//! Every map is serialized in **sorted key order** and every `f64`
//! travels as its `to_bits()` little-endian image, so encoding is a pure
//! function of the record's logical content (no `HashMap` iteration
//! order leaks into the bytes) and decoding is bit-exact — an
//! evicted-then-faulted-in user replays byte-identically to an
//! always-resident one.

use pws_click::UserId;
use pws_core::{UserExport, UserState};
use pws_entropy::QueryStats;
use pws_geo::LocId;
use pws_obs::format::{ByteReader, ByteWriter, Format, FormatError};
use pws_profile::{ContentProfile, LocationProfile, UserHistory};
use pws_ranksvm::{LinearRankModel, PreferencePair};
use std::collections::BTreeMap;

/// Magic bytes opening every user record.
pub const STORE_MAGIC: &[u8; 8] = b"PWSUSR1\0";

/// Current format version, the only one read. Version 1 carried an
/// eighth, product-quantised section that no reader used.
pub const FORMAT_VERSION: u32 = 2;

/// The sections of a user record. The discriminant is the on-disk id.
///
/// `docs/STORE_FORMAT.md` documents each section's payload; a `check.sh`
/// gate diffs this enum against the spec's section table in both
/// directions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u16)]
pub enum SectionId {
    /// User id, observation count, seen-query keys.
    Meta = 1,
    /// RankSVM weight vector, bit-exact f64s.
    Model = 2,
    /// Content-concept preference weights.
    ContentProfile = 3,
    /// Location-ontology preference weights.
    LocationProfile = 4,
    /// URL/domain revisit counters.
    History = 5,
    /// Mined preference-pair training window.
    Pairs = 6,
    /// Per-query adaptive-β statistics contributed by this user.
    QueryStats = 7,
}

/// The user-record container: all sections, in canonical file order,
/// with the stable lowercase names used in errors and the format spec.
pub const STORE_FORMAT: Format = Format {
    magic: STORE_MAGIC,
    version: FORMAT_VERSION,
    sections: &[
        (SectionId::Meta as u16, "meta"),
        (SectionId::Model as u16, "model"),
        (SectionId::ContentProfile as u16, "content_profile"),
        (SectionId::LocationProfile as u16, "location_profile"),
        (SectionId::History as u16, "history"),
        (SectionId::Pairs as u16, "pairs"),
        (SectionId::QueryStats as u16, "query_stats"),
    ],
};

/// Why a user record failed to load or decode. Every malformed input —
/// including every possible single-byte corruption and truncation — maps
/// to one of these; the codec never panics on untrusted bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// Filesystem error, with its retryability classification (see
    /// [`crate::io::IoErrorKind`]). The serving tier's writeback
    /// retry/backoff policy keys off [`StoreError::is_transient`].
    Io(crate::io::IoError),
    /// The bytes are not a valid version-2 user record.
    Format(FormatError),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store io error: {e}"),
            StoreError::Format(e) => write!(f, "user record: {e}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl StoreError {
    /// Whether retrying the failed operation can plausibly succeed:
    /// only transient I/O trouble (`EIO`-like, `ENOSPC`) qualifies.
    /// Corruption, truncation, and crashed-machine errors never do.
    pub fn is_transient(&self) -> bool {
        matches!(self, StoreError::Io(e) if e.is_transient())
    }
}

impl From<crate::io::IoError> for StoreError {
    fn from(e: crate::io::IoError) -> Self {
        StoreError::Io(e)
    }
}

impl From<FormatError> for StoreError {
    fn from(e: FormatError) -> Self {
        StoreError::Format(e)
    }
}

/// One user's complete persisted state.
#[derive(Debug, Clone)]
pub struct UserRecord {
    /// The user this record belongs to.
    pub user: UserId,
    /// The replay-exact engine state.
    pub state: UserState,
    /// Per-query statistics for the keys in `state.seen_queries`.
    pub query_stats: BTreeMap<String, QueryStats>,
}

impl UserRecord {
    /// Assemble a record from its exact parts.
    pub fn new(user: UserId, state: UserState, query_stats: BTreeMap<String, QueryStats>) -> Self {
        UserRecord { user, state, query_stats }
    }

    /// View as the portable export envelope.
    pub fn into_export(self) -> UserExport {
        UserExport { state: self.state, query_stats: self.query_stats }
    }
}

// ── Encoding ─────────────────────────────────────────────────────────────

fn encode_meta(user: UserId, state: &UserState) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.u64(u64::from(user.0));
    w.u64(state.observations);
    w.u32(state.seen_queries.len() as u32);
    for q in &state.seen_queries {
        w.str(q);
    }
    w.finish()
}

fn encode_model(model: &LinearRankModel) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.u32(model.dim() as u32);
    w.bytes(&model.weight_bits_le());
    w.finish()
}

fn encode_content(profile: &ContentProfile) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.u64(profile.observations());
    let entries = profile.weight_entries();
    w.u32(entries.len() as u32);
    for (term, weight) in entries {
        w.str(&term);
        w.f64bits(weight);
    }
    w.finish()
}

fn encode_location(profile: &LocationProfile) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.u64(profile.observations());
    let entries = profile.weight_entries();
    w.u32(entries.len() as u32);
    for (loc, weight) in entries {
        w.u32(loc.0);
        w.f64bits(weight);
    }
    w.finish()
}

fn encode_history(history: &UserHistory) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.u64(history.total_clicks());
    let urls = history.url_click_entries();
    w.u32(urls.len() as u32);
    for (url, clicks) in urls {
        w.str(&url);
        w.u32(clicks);
    }
    let domains = history.domain_click_entries();
    w.u32(domains.len() as u32);
    for (domain, clicks) in domains {
        w.str(&domain);
        w.u32(clicks);
    }
    w.finish()
}

fn encode_pairs(pairs: &[PreferencePair]) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.u32(pairs.len() as u32);
    for p in pairs {
        w.u32(p.better.len() as u32);
        for &v in &p.better {
            w.f64bits(v);
        }
        w.u32(p.worse.len() as u32);
        for &v in &p.worse {
            w.f64bits(v);
        }
    }
    w.finish()
}

/// Section 7 from `visit_stats`, which hands over every entry once, in
/// strictly ascending key order. The entry count leads the payload, so it
/// is written as a placeholder and patched once the visit is done.
fn encode_query_stats(visit_stats: impl FnOnce(&mut dyn FnMut(&str, &QueryStats))) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.u32(0);
    let mut n: u32 = 0;
    visit_stats(&mut |key, s| {
        n += 1;
        w.str(key);
        w.u64(s.impressions());
        w.u64(s.clicks());
        let urls = s.url_click_entries();
        w.u32(urls.len() as u32);
        for (url, mass) in urls {
            w.str(url);
            w.f64bits(mass);
        }
        let concepts = s.concept_click_entries();
        w.u32(concepts.len() as u32);
        for (term, mass) in concepts {
            w.str(term);
            w.f64bits(mass);
        }
        let locs = s.location_click_entries();
        w.u32(locs.len() as u32);
        for (loc, mass) in locs {
            w.u32(loc.0);
            w.f64bits(mass);
        }
    });
    let mut bytes = w.finish();
    bytes[..4].copy_from_slice(&n.to_le_bytes());
    bytes
}

/// Serialize a user record to its canonical byte image.
///
/// Deterministic: the bytes are a pure function of the record's logical
/// content (sorted map order, bit-exact floats).
pub fn encode_user_record(record: &UserRecord) -> Vec<u8> {
    encode_user_with(record.user, &record.state, |emit| {
        for (key, s) in &record.query_stats {
            emit(key, s);
        }
    })
}

/// [`encode_user_record`] from borrowed parts, with section 7 written
/// from wherever the statistics live: `visit_stats` must call its
/// argument once per entry, in strictly ascending key order (as a
/// `BTreeMap` iterates), and then the bytes equal those of the
/// assembled record. Nothing is copied — not the state, not the
/// statistics.
pub fn encode_user_with(
    user: UserId,
    state: &UserState,
    visit_stats: impl FnOnce(&mut dyn FnMut(&str, &QueryStats)),
) -> Vec<u8> {
    STORE_FORMAT.write(vec![
        encode_meta(user, state),
        encode_model(&state.model),
        encode_content(&state.content),
        encode_location(&state.location),
        encode_history(&state.history),
        encode_pairs(&state.pairs),
        encode_query_stats(visit_stats),
    ])
}

// ── Decoding ─────────────────────────────────────────────────────────────

fn decode_meta(mut r: ByteReader<'_>) -> Result<(UserId, u64, Vec<String>), FormatError> {
    let user_raw = r.u64()?;
    let user = u32::try_from(user_raw)
        .map(UserId)
        .map_err(|_| FormatError::Malformed("user id out of range"))?;
    let observations = r.u64()?;
    let n = r.count(4)?;
    let mut seen = Vec::with_capacity(n);
    for _ in 0..n {
        seen.push(r.str()?.to_string());
    }
    r.finish()?;
    Ok((user, observations, seen))
}

fn decode_model(mut r: ByteReader<'_>) -> Result<LinearRankModel, FormatError> {
    let dim = r.count(8)?;
    let mut weights = Vec::with_capacity(dim);
    for _ in 0..dim {
        weights.push(r.f64bits()?);
    }
    r.finish()?;
    Ok(LinearRankModel::from_weights(weights))
}

fn decode_content(mut r: ByteReader<'_>) -> Result<ContentProfile, FormatError> {
    let observations = r.u64()?;
    let n = r.count(12)?;
    let mut entries = Vec::with_capacity(n);
    for _ in 0..n {
        let term = r.str()?.to_string();
        let weight = r.f64bits()?;
        entries.push((term, weight));
    }
    r.finish()?;
    Ok(ContentProfile::from_entries(entries, observations))
}

fn decode_location(mut r: ByteReader<'_>) -> Result<LocationProfile, FormatError> {
    let observations = r.u64()?;
    let n = r.count(12)?;
    let mut entries = Vec::with_capacity(n);
    for _ in 0..n {
        let loc = LocId(r.u32()?);
        let weight = r.f64bits()?;
        entries.push((loc, weight));
    }
    r.finish()?;
    Ok(LocationProfile::from_entries(entries, observations))
}

fn decode_history(mut r: ByteReader<'_>) -> Result<UserHistory, FormatError> {
    let total = r.u64()?;
    let nu = r.count(8)?;
    let mut urls = Vec::with_capacity(nu);
    for _ in 0..nu {
        let url = r.str()?.to_string();
        let clicks = r.u32()?;
        urls.push((url, clicks));
    }
    let nd = r.count(8)?;
    let mut domains = Vec::with_capacity(nd);
    for _ in 0..nd {
        let domain = r.str()?.to_string();
        let clicks = r.u32()?;
        domains.push((domain, clicks));
    }
    r.finish()?;
    Ok(UserHistory::from_entries(urls, domains, total))
}

fn decode_pairs(mut r: ByteReader<'_>) -> Result<Vec<PreferencePair>, FormatError> {
    let n = r.count(8)?;
    let mut pairs = Vec::with_capacity(n);
    for _ in 0..n {
        let db = r.count(8)?;
        let mut better = Vec::with_capacity(db);
        for _ in 0..db {
            better.push(r.f64bits()?);
        }
        let dw = r.count(8)?;
        let mut worse = Vec::with_capacity(dw);
        for _ in 0..dw {
            worse.push(r.f64bits()?);
        }
        pairs.push(PreferencePair { better, worse });
    }
    r.finish()?;
    Ok(pairs)
}

fn decode_query_stats(mut r: ByteReader<'_>) -> Result<BTreeMap<String, QueryStats>, FormatError> {
    #[cfg(debug_assertions)]
    STATS_DECODES.with(|n| n.set(n.get() + 1));
    let n = r.count(4)?;
    let mut out = BTreeMap::new();
    for _ in 0..n {
        let key = r.str()?.to_string();
        let impressions = r.u64()?;
        let clicks = r.u64()?;
        let nu = r.count(12)?;
        let mut urls = Vec::with_capacity(nu);
        for _ in 0..nu {
            let url = r.str()?.to_string();
            let mass = r.f64bits()?;
            urls.push((url, mass));
        }
        let nc = r.count(12)?;
        let mut concepts = Vec::with_capacity(nc);
        for _ in 0..nc {
            let term = r.str()?.to_string();
            let mass = r.f64bits()?;
            concepts.push((term, mass));
        }
        let nl = r.count(12)?;
        let mut locs = Vec::with_capacity(nl);
        for _ in 0..nl {
            let loc = LocId(r.u32()?);
            let mass = r.f64bits()?;
            locs.push((loc, mass));
        }
        if out
            .insert(key, QueryStats::from_parts(urls, concepts, locs, impressions, clicks))
            .is_some()
        {
            return Err(FormatError::Malformed("duplicate query-stats key"));
        }
    }
    r.finish()?;
    Ok(out)
}

#[cfg(debug_assertions)]
thread_local! {
    static STATS_DECODES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// How many times section 7 has been decoded (not just verified) on this
/// thread. Debug builds only: tests in other crates pin through it that a
/// fault-in whose statistics are all live builds none of them.
#[cfg(debug_assertions)]
#[doc(hidden)]
pub fn query_stats_decodes() -> u64 {
    STATS_DECODES.with(|n| n.get())
}

/// One section-7 entry, read exactly as [`decode_query_stats`] reads it
/// and built into nothing. Returns the entry's key.
fn skip_query_stats_entry<'a>(r: &mut ByteReader<'a>) -> Result<&'a str, FormatError> {
    let key = r.str()?;
    r.u64()?;
    r.u64()?;
    for _ in 0..r.count(12)? {
        r.str()?;
        r.f64bits()?;
    }
    for _ in 0..r.count(12)? {
        r.str()?;
        r.f64bits()?;
    }
    for _ in 0..r.count(12)? {
        r.u32()?;
        r.f64bits()?;
    }
    Ok(key)
}

/// Walk section 7 with exactly [`decode_query_stats`]'s checks — counts,
/// UTF-8, duplicate keys, trailing bytes — allocating nothing. Returns
/// `Ok(true)` as soon as `need_stats` asks for a key (the caller then
/// decodes the section, which fails exactly where this walk would have),
/// `Ok(false)` once the whole section verified with no key asked for.
fn verify_query_stats(
    section: &[u8],
    mut need_stats: impl FnMut(&str) -> bool,
) -> Result<bool, FormatError> {
    let name = STORE_FORMAT.sections[6].1;
    let mut r = ByteReader::new(section, name);
    let n = r.count(4)?;
    let mut prev = "";
    let mut ascending = true;
    for i in 0..n {
        let key = skip_query_stats_entry(&mut r)?;
        if need_stats(key) {
            return Ok(true);
        }
        // An encoder writes keys strictly ascending, which cannot repeat;
        // only a record out of order pays a rescan of the keys before it.
        ascending &= i == 0 || prev < key;
        if !ascending {
            let mut before = ByteReader::new(section, name);
            before.u32()?;
            if (0..i).any(|_| skip_query_stats_entry(&mut before).is_ok_and(|k| k == key)) {
                return Err(FormatError::Malformed("duplicate query-stats key"));
            }
        }
        prev = key;
    }
    r.finish()?;
    Ok(false)
}

/// Decode a user record from its byte image, validating structure and
/// every section checksum. Inverse of [`encode_user_record`]:
/// `decode(encode(r))` reproduces `r`'s logical content bit-exactly.
pub fn decode_user_record(bytes: &[u8]) -> Result<UserRecord, StoreError> {
    decode_user_record_with(bytes, |_| true)
}

/// [`decode_user_record`] that builds the per-query statistics only when
/// they can be used: section 7 is always checksummed and walked with the
/// full decoder's checks, so the same bytes are accepted and rejected with
/// the same [`StoreError`], but it is decoded only if `need_stats` returns
/// `true` for one of its keys. Otherwise the record's `query_stats` is
/// empty. The serving tier asks for a key only when its live statistics
/// lack it — the only case in which seeding it does anything.
pub fn decode_user_record_with(
    bytes: &[u8],
    need_stats: impl FnMut(&str) -> bool,
) -> Result<UserRecord, StoreError> {
    let sections = STORE_FORMAT.parse(bytes)?;
    let reader = |i: usize| ByteReader::new(sections[i], STORE_FORMAT.sections[i].1);
    let (user, observations, seen_queries) = decode_meta(reader(0))?;
    let model = decode_model(reader(1))?;
    let content = decode_content(reader(2))?;
    let location = decode_location(reader(3))?;
    let history = decode_history(reader(4))?;
    let pairs = decode_pairs(reader(5))?;
    let query_stats = if verify_query_stats(sections[6], need_stats)? {
        decode_query_stats(reader(6))?
    } else {
        BTreeMap::new()
    };

    let mut state = UserState::new();
    state.content = content;
    state.location = location;
    state.history = history;
    state.model = model;
    state.pairs = pairs;
    state.observations = observations;
    state.seen_queries = seen_queries;

    Ok(UserRecord { user, state, query_stats })
}
