//! Per-snippet analysis: the pure half of concept extraction.
//!
//! Everything extraction needs to know about one snippet — its term
//! sequence under the default analyser and the places named in it — depends
//! on the snippet text alone, not on the query, the pool it was retrieved
//! into, or the user. [`SnippetAnalysis`] computes that once; the per-pool
//! counting pass ([`crate::QueryConceptOntology::from_analyses`]) then works
//! on analyses only and never looks at snippet text again.
//!
//! This module is the **only** place in the crate's serving path where the
//! analyser and the location matcher run, and where a term is given its id
//! in the [`TermDict`] (`scripts/check.sh` greps for both).

use crate::dict::TermDict;
use pws_geo::{LocId, LocationMatcher};
use pws_text::{Analyzer, Sym};

/// Call `f` with each term of `text` under the analyser concepts are
/// defined over (lowercase, stopwords dropped, Porter-stemmed). Snippets
/// and queries go through this one function so their terms compare equal.
pub(crate) fn for_each_term(text: &str, f: impl FnMut(&str)) {
    Analyzer::default().for_each_token(text, f);
}

/// What one snippet contributes to any pool it appears in.
///
/// Compact by construction (the memo holds thousands): a term is its 4-byte
/// id in the dictionary the analysis was built against, never its text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnippetAnalysis {
    /// The analysed terms in text order (repeats included), as ids.
    terms: Box<[Sym]>,
    /// Places named in the snippet: deduplicated, order of first appearance.
    locs: Box<[LocId]>,
    /// Stamp of the dictionary `terms` are ids of.
    dict: u32,
}

impl SnippetAnalysis {
    /// Analyse `text`: one analyser run, one matcher run, each term
    /// interned in `dict`. The analysis can only be counted against `dict`.
    pub fn new(text: &str, matcher: &LocationMatcher, dict: &TermDict) -> Self {
        #[cfg(test)]
        BUILT.with(|n| n.set(n.get() + 1));
        let mut ids = Vec::new();
        // One read lock for the whole snippet; `intern` trades it for the
        // write lock only on a term no snippet had before.
        let mut known = dict.read();
        for_each_term(text, |t| ids.push(known.intern(t)));
        drop(known);
        SnippetAnalysis {
            terms: ids.into(),
            locs: matcher.locations_in(text).into(),
            dict: dict.stamp(),
        }
    }

    /// Number of terms (repeats included).
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// True when the snippet has no terms.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// The snippet's terms in text order (repeats included), as ids of
    /// `dict`.
    ///
    /// # Panics
    /// Panics if the analysis was built against another dictionary: its
    /// ids would silently name other terms.
    pub fn terms(&self, dict: &TermDict) -> &[Sym] {
        assert_eq!(self.dict, dict.stamp(), "analysis counted against a dictionary it was not built with");
        &self.terms
    }

    /// The places named in the snippet, each once, in order of first
    /// appearance — exactly [`LocationMatcher::locations_in`].
    pub fn locations(&self) -> &[LocId] {
        &self.locs
    }

    /// Bytes this analysis holds on the heap (the two boxed slices).
    pub fn heap_bytes(&self) -> usize {
        self.terms.len() * std::mem::size_of::<Sym>()
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
        let dict = TermDict::new();
        let text = "The RUNNING dogs of Port Alden, don't they visit port alden?";
        let a = SnippetAnalysis::new(text, &m, &dict);
        let known = dict.read();
        let terms: Vec<&str> = a.terms(&dict).iter().map(|&t| known.resolve(t)).collect();
        assert_eq!(terms, Analyzer::default().analyze(text));
        assert_eq!(a.len(), terms.len());
        assert_eq!(a.locations(), m.locations_in(text));
        assert_eq!(a.locations(), [city]);
        // 4 bytes a term and a place, whatever the terms' lengths.
        assert_eq!(a.heap_bytes(), 4 * (a.len() + 1));
    }

    #[test]
    fn empty_and_termless_snippets() {
        let (o, _) = world();
        let m = LocationMatcher::build(&o);
        let dict = TermDict::new();
        for text in ["", "   ", "the of and", "!!!"] {
            let a = SnippetAnalysis::new(text, &m, &dict);
            assert!(a.is_empty(), "{text:?}");
            assert!(a.locations().is_empty());
            assert_eq!(a.heap_bytes(), 0);
        }
        assert!(dict.is_empty());
    }

    #[test]
    #[should_panic(expected = "dictionary it was not built with")]
    fn an_analysis_is_tied_to_its_dictionary() {
        let (o, _) = world();
        let a = SnippetAnalysis::new("seafood", &LocationMatcher::build(&o), &TermDict::new());
        a.terms(&TermDict::new());
    }
}
