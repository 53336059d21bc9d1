//! The binary user-record codec.
//!
//! One file per user, carrying the *complete* replay-relevant
//! [`UserState`] (profiles, revisit history, RankSVM model, preference
//! pairs) **plus** a section for the user's slice of the pooled
//! per-query adaptive-β statistics. The store tier keeps the pooled
//! statistics once, in the statistics file ([`crate::stats`]), and leaves
//! that section empty; an export fills it. The record is also the one
//! export format: a user moves between engines as these bytes, and
//! [`UserRecord::render`] is the human-readable view of them.
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
use pws_core::{validate_query_stats, StateError, UserState};
use pws_entropy::QueryStats;
use pws_geo::LocId;
use pws_obs::format::{ByteReader, ByteWriter, Format, FormatError};
use pws_profile::{ContentProfile, LocationProfile, UserHistory, FEATURE_NAMES};
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
    /// The user's slice of the pooled per-query adaptive-β statistics:
    /// filled by an export, empty in a record the store tier writes.
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
    /// Pooled per-query statistics for keys in `state.seen_queries`
    /// (empty in a record the store tier writes).
    pub query_stats: BTreeMap<String, QueryStats>,
}

impl UserRecord {
    /// Assemble a record from its exact parts.
    pub fn new(user: UserId, state: UserState, query_stats: BTreeMap<String, QueryStats>) -> Self {
        UserRecord { user, state, query_stats }
    }

    /// Validate the state and every statistics entry: the structural
    /// checks an imported record must pass before it reaches the scoring
    /// path (the codec carries any dimension and any `f64`).
    pub fn validate(&self) -> Result<(), StateError> {
        self.state.validate()?;
        self.query_stats.values().try_for_each(validate_query_stats)
    }

    /// The record as text, for a person to read: the user id and
    /// observation count, the model weights by feature name, the ten
    /// heaviest content and location weights, the pair count, and each
    /// seen query's click and impression totals.
    pub fn render(&self) -> String {
        let s = &self.state;
        let mut out = format!("user {} · {} observations\n", self.user.0, s.observations);
        out += "model weights:\n";
        for (i, w) in s.model.weights.iter().enumerate() {
            out += &format!("  {:<16} {w:>10.4}\n", FEATURE_NAMES.get(i).unwrap_or(&"?"));
        }
        let content = s.content.weight_entries();
        let location =
            s.location.weight_entries().into_iter().map(|(l, w)| (format!("loc {}", l.0), w));
        for (what, mut entries) in [("content", content), ("location", location.collect())] {
            entries.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
            out += &format!("top {what} weights:\n");
            for (name, w) in entries.iter().take(10) {
                out += &format!("  {name:<16} {w:>10.4}\n");
            }
        }
        out += &format!("preference pairs: {}\n", s.pairs.len());
        out += "seen queries (clicks / impressions):\n";
        for key in &s.seen_queries {
            out += &match self.query_stats.get(key) {
                Some(q) => format!("  {key:<24} {} / {}\n", q.clicks(), q.impressions()),
                None => format!("  {key:<24} -\n"),
            };
        }
        out
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

/// Section 7's payload (also the statistics file's one section) from
/// `visit_stats`, which hands over every entry once, in strictly
/// ascending key order. The entry count leads the payload, so it
/// is written as a placeholder and patched once the visit is done.
pub(crate) fn encode_query_stats(
    visit_stats: impl FnOnce(&mut dyn FnMut(&str, &QueryStats)),
) -> Vec<u8> {
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

pub(crate) fn decode_query_stats(
    mut r: ByteReader<'_>,
) -> Result<BTreeMap<String, QueryStats>, FormatError> {
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

/// Decode a user record from its byte image, validating structure and
/// every section checksum. Inverse of [`encode_user_record`]:
/// `decode(encode(r))` reproduces `r`'s logical content bit-exactly.
pub fn decode_user_record(bytes: &[u8]) -> Result<UserRecord, StoreError> {
    let sections = STORE_FORMAT.parse(bytes)?;
    let reader = |i: usize| ByteReader::new(sections[i], STORE_FORMAT.sections[i].1);
    let (user, observations, seen_queries) = decode_meta(reader(0))?;
    let model = decode_model(reader(1))?;
    let content = decode_content(reader(2))?;
    let location = decode_location(reader(3))?;
    let history = decode_history(reader(4))?;
    let pairs = decode_pairs(reader(5))?;
    let query_stats = decode_query_stats(reader(6))?;

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
