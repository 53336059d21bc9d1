//! Per-snippet analysis: the pure half of concept extraction.
//!
//! Everything extraction needs to know about one snippet — its token
//! stream under the default analyser and the places named in it — depends
//! on the snippet text alone, not on the query, the pool it was retrieved
//! into, or the user. [`SnippetAnalysis`] computes that once; the per-pool
//! counting pass ([`crate::QueryConceptOntology::from_analyses`]) then works
//! on analyses only and never looks at snippet text again.
//!
//! This module is the **only** place in the crate's serving path where the
//! analyser and the location matcher run (`scripts/check.sh` greps for it).

use pws_geo::{LocId, LocationMatcher};
use pws_text::Analyzer;

/// Call `f` with each term of `text` under the analyser concepts are
/// defined over (lowercase, stopwords dropped, Porter-stemmed). Snippets
/// and queries go through this one function so their terms compare equal.
pub(crate) fn for_each_term(text: &str, f: impl FnMut(&str)) {
    Analyzer::default().for_each_token(text, f);
}

/// What one snippet contributes to any pool it appears in.
///
/// Compact by construction (the memo holds thousands): the terms are one
/// concatenated string plus end offsets rather than a `Vec<String>`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnippetAnalysis {
    /// The analysed terms, concatenated without separators.
    terms: Box<str>,
    /// `ends[i]` is the byte offset in `terms` one past term `i`.
    ends: Box<[u32]>,
    /// Places named in the snippet: deduplicated, order of first appearance.
    locs: Box<[LocId]>,
}

impl SnippetAnalysis {
    /// Analyse `text`: one analyser run, one matcher run.
    pub fn new(text: &str, matcher: &LocationMatcher) -> Self {
        #[cfg(test)]
        BUILT.with(|n| n.set(n.get() + 1));
        let mut terms = String::new();
        let mut ends = Vec::new();
        for_each_term(text, |t| {
            terms.push_str(t);
            ends.push(u32::try_from(terms.len()).expect("snippet terms exceed 4 GiB"));
        });
        SnippetAnalysis {
            terms: terms.into(),
            ends: ends.into(),
            locs: matcher.locations_in(text).into(),
        }
    }

    /// Number of terms (repeats included).
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// True when the snippet has no terms.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// The snippet's terms in text order (repeats included).
    pub fn terms(&self) -> impl Iterator<Item = &str> {
        let mut start = 0;
        self.ends.iter().map(move |&end| {
            let term = &self.terms[start..end as usize];
            start = end as usize;
            term
        })
    }

    /// The places named in the snippet, each once, in order of first
    /// appearance — exactly [`LocationMatcher::locations_in`].
    pub fn locations(&self) -> &[LocId] {
        &self.locs
    }

    /// Bytes this analysis holds on the heap (the three boxed slices).
    pub fn heap_bytes(&self) -> usize {
        self.terms.len()
            + self.ends.len() * std::mem::size_of::<u32>()
            + self.locs.len() * std::mem::size_of::<LocId>()
    }
}

#[cfg(test)]
thread_local! {
    /// Analyses built on this thread, so tests can count them exactly.
    pub(crate) static BUILT: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

#[cfg(test)]
mod tests {
    use super::*;
    use pws_geo::LocationOntology;

    fn world() -> (LocationOntology, LocId) {
        let mut o = LocationOntology::new();
        let r = o.add(LocId::WORLD, "westland", vec![]);
        let city = o.add(r, "port alden", vec![]);
        (o, city)
    }

    #[test]
    fn terms_and_locations_match_the_analyser_and_the_matcher() {
        let (o, city) = world();
        let m = LocationMatcher::build(&o);
        let text = "The RUNNING dogs of Port Alden, don't they visit port alden?";
        let a = SnippetAnalysis::new(text, &m);
        let terms: Vec<&str> = a.terms().collect();
        assert_eq!(terms, Analyzer::default().analyze(text));
        assert_eq!(a.locations(), m.locations_in(text));
        assert_eq!(a.locations(), [city]);
    }

    #[test]
    fn empty_and_termless_snippets() {
        let (o, _) = world();
        let m = LocationMatcher::build(&o);
        for text in ["", "   ", "the of and", "!!!"] {
            let a = SnippetAnalysis::new(text, &m);
            assert_eq!(a.terms().count(), 0, "{text:?}");
            assert!(a.locations().is_empty());
            assert_eq!(a.heap_bytes(), 0);
        }
    }
}
