//! The statistics file: the pooled per-query adaptive-β statistics,
//! stored once per store directory ([`STATS_FILE`]) rather than in every
//! user record — a [`pws_obs::format`] container with one section whose
//! payload is exactly a record's section 7 (`docs/STORE_FORMAT.md`,
//! "Statistics file").

use crate::codec::{decode_query_stats, encode_query_stats, StoreError};
use pws_entropy::QueryStats;
use pws_obs::format::{ByteReader, Format};
use std::collections::BTreeMap;

/// The statistics file's name inside a store directory.
pub const STATS_FILE: &str = "query-stats.pwsq";

/// The statistics file's sections; the discriminant is the on-disk id (a
/// `check.sh` gate diffs this enum against the spec's table).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u16)]
pub enum SectionId {
    /// Every query's statistics, encoded as a user record's section 7.
    QueryStats = 1,
}

/// The statistics-file container.
pub const STATS_FORMAT: Format = Format {
    magic: b"PWSQST1\0",
    version: 1,
    sections: &[(SectionId::QueryStats as u16, "query_stats")],
};

/// The statistics file's bytes, with the entries `visit_stats` hands
/// over once each in strictly ascending key order.
pub fn encode_stats_file(visit_stats: impl FnOnce(&mut dyn FnMut(&str, &QueryStats))) -> Vec<u8> {
    STATS_FORMAT.write(vec![encode_query_stats(visit_stats)])
}

/// Decode a statistics file; every malformed input is a typed error.
pub fn decode_stats_file(bytes: &[u8]) -> Result<BTreeMap<String, QueryStats>, StoreError> {
    let sections = STATS_FORMAT.parse(bytes)?;
    Ok(decode_query_stats(ByteReader::new(sections[0], STATS_FORMAT.sections[0].1))?)
}
