//! Per-snippet analysis: the pure half of concept extraction.
//!
//! Everything extraction needs to know about one snippet — its term
//! sequence under the default analyser and the places named in it — depends
//! on the snippet text alone, not on the query, the pool it was retrieved
//! into, or the user. [`SnippetAnalysis`] computes that once; the per-pool
//! counting pass ([`crate::QueryConceptOntology::from_analyses`]) then works
//! on analyses only and never looks at snippet text again.
//!
//! A served snippet is a window of an indexed body's tokens (*forms*)
//! joined by `' '`, and each form adds what it alone decides: its term ids,
//! which the index gives (`pws_index::TermTable::form_terms`), and its
//! place-name tokens. So an engine builds one [`FormTable`] per index
//! segment, once, and [`SnippetAnalysis::from_forms`] reads a snippet's
//! analysis off its window's form ids, exactly; [`SnippetAnalysis::new`]
//! analyses text — the string entry point, and the oracle.
//!
//! This module is the only place in the crate where the analyser and the
//! matcher run, and [`SnippetAnalysis::new`] the only one that gives a term
//! an id (`scripts/check.sh` greps for both).

use crate::dict::TermDict;
use pws_geo::{LocId, LocationMatcher};
use pws_text::{Analyzer, Sym};

/// Call `f` with each term of `text` under the analyser concepts are
/// defined over (lowercase, stopwords dropped, Porter-stemmed). Snippets
/// and queries go through this one function so their terms compare equal.
pub(crate) fn for_each_term(text: &str, f: impl FnMut(&str)) {
    Analyzer::default().for_each_token(text, f);
}

/// The ids `dict` holds of the terms of `query_text`, in order: what the
/// counting pass compares snippet terms with (a term the dictionary lacks
/// occurs in no snippet). An engine passes its retrieval's query ids
/// instead — the same ids, its index analysing with the default analyser
/// and lending its term table as the dictionary.
pub fn query_terms(query_text: &str, dict: &TermDict<'_>) -> Vec<Sym> {
    let mut ids = Vec::new();
    for_each_term(query_text, |t| ids.extend(dict.get(t)));
    ids
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
    pub fn new(text: &str, matcher: &LocationMatcher, dict: &mut TermDict<'_>) -> Self {
        #[cfg(test)]
        BUILT.with(|n| n.set(n.get() + 1));
        let mut ids = Vec::new();
        for_each_term(text, |t| ids.push(dict.intern(t)));
        SnippetAnalysis {
            terms: ids.into(),
            locs: matcher.locations_in(text).into(),
            dict: dict.stamp(),
        }
    }

    /// The analysis of a snippet cut as the forms `forms` of the segment
    /// `table` was built for, read off the table: what
    /// [`SnippetAnalysis::new`] of their forms joined by `' '` gives, with
    /// no analyser run and no term interned.
    ///
    /// # Panics
    /// Panics if `table` was built against another dictionary than `dict`,
    /// or a form id is not one of the table's.
    pub fn from_forms(table: &FormTable, forms: &[u32], matcher: &LocationMatcher, dict: &TermDict<'_>) -> Self {
        assert_eq!(table.dict, dict.stamp(), "form table used with a dictionary it was not built with");
        let (mut terms, mut words) = (Vec::with_capacity(forms.len()), Vec::with_capacity(forms.len()));
        for &form in forms {
            let (from, to) = (table.ends[form as usize], table.ends[form as usize + 1]);
            terms.extend_from_slice(&table.terms[from.0 as usize..to.0 as usize]);
            words.extend_from_slice(&table.words[from.1 as usize..to.1 as usize]);
        }
        SnippetAnalysis {
            terms: terms.into(),
            locs: matcher.locations_in_words(&words).into(),
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
    pub fn terms(&self, dict: &TermDict<'_>) -> &[Sym] {
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

/// One index segment's forms (its distinct body tokens), each with what
/// it contributes to a snippet analysis: its term ids, as the index gives
/// them, and its place-name tokens. Built once per segment against the
/// engine's dictionary, read by [`SnippetAnalysis::from_forms`].
#[derive(Debug)]
pub struct FormTable {
    /// Form `f`'s terms are `terms[ends[f].0..ends[f + 1].0]`, its
    /// place-name tokens `words[ends[f].1..ends[f + 1].1]`.
    ends: Box<[(u32, u32)]>,
    terms: Box<[Sym]>,
    /// Place-name token ids, as [`LocationMatcher::words_in`] gives them.
    words: Box<[Option<Sym>]>,
    /// Stamp of the dictionary the term ids belong to.
    dict: u32,
}

impl FormTable {
    /// A table over `forms` (a segment's forms, form id = position), form
    /// `f`'s term ids in `dict` being `terms_of(f)` — the terms
    /// [`SnippetAnalysis::new`] makes of the form, as the index computed
    /// them: each form's place-name tokens under `matcher` are found once.
    pub fn new<'t>(
        forms: &[String],
        terms_of: impl Fn(u32) -> &'t [Sym],
        matcher: &LocationMatcher,
        dict: &TermDict<'_>,
    ) -> Self {
        let (mut ends, mut terms, mut words) = (vec![(0, 0)], Vec::new(), Vec::new());
        for (form, f) in forms.iter().zip(0..) {
            terms.extend_from_slice(terms_of(f));
            words.extend(matcher.words_in(form));
            ends.push((terms.len() as u32, words.len() as u32));
        }
        FormTable { ends: ends.into(), terms: terms.into(), words: words.into(), dict: dict.stamp() }
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
        let mut dict = TermDict::new();
        let text = "The RUNNING dogs of Port Alden, don't they visit port alden?";
        let a = SnippetAnalysis::new(text, &m, &mut dict);
        let terms: Vec<&str> = a.terms(&dict).iter().map(|&t| dict.resolve(t)).collect();
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
        let mut dict = TermDict::new();
        for text in ["", "   ", "the of and", "!!!"] {
            let a = SnippetAnalysis::new(text, &m, &mut dict);
            assert!(a.is_empty(), "{text:?}");
            assert!(a.locations().is_empty());
            assert_eq!(a.heap_bytes(), 0);
        }
        assert!(dict.is_empty());
    }

    /// Forms as the tokenizer hands them out — stopwords, one-letter,
    /// 41- and 61-byte, apostrophes, place-name tokens, `i̇` (the lowercase
    /// of `İ`, which re-tokenises as `i`) — in every window of a token
    /// sequence: read off the table, whose term ids come from an index
    /// holding the forms, the analysis of the joined window.
    #[test]
    fn from_forms_equals_the_analysis_of_the_joined_window() {
        let (o, _) = world();
        let m = LocationMatcher::build(&o);
        let (l41, l61) = ("l".repeat(41), "m".repeat(61));
        let forms: Vec<String> = [
            "port", "alden", "the", "of", "x", "seafood", "running", "don't", "o'hare's", &l41,
            &l61, "westland", "i\u{307}stanbul", "restaurants",
        ]
        .map(String::from)
        .to_vec();
        // A body whose tokens are the forms, in order: `İstanbul` lowercases
        // to the one token `i̇stanbul`.
        let mut b = pws_index::SegmentBuilder::new(Analyzer::default());
        b.add("u", "t", &forms.join(" ").replace("i\u{307}stanbul", "İstanbul"));
        let index = pws_index::SegmentedIndex::from_segments(vec![b.finish_segment().expect("segment")])
            .expect("index");
        assert_eq!(index.segments()[0].forms(), &forms[..]);
        let mut dict = TermDict::of(index.terms().interner());
        let table = FormTable::new(&forms, |f| index.terms().form_terms(0, f), &m, &dict);
        assert_eq!(table.ends.len(), forms.len() + 1);
        let pieces = |f: usize| table.ends[f + 1].1 - table.ends[f].1;
        assert!(pieces(12) == 2 && (0..forms.len()).filter(|&f| f != 12).all(|f| pieces(f) <= 1));
        let seq: Vec<u32> = [0, 1, 2, 9, 0, 10, 1, 5, 6, 11, 7, 8, 3, 0, 1, 4, 13, 12, 0, 1, 2]
            .into_iter()
            .collect();
        for start in 0..seq.len() {
            for end in start..=seq.len() {
                let ids = &seq[start..end];
                let text: Vec<&str> = ids.iter().map(|&f| forms[f as usize].as_str()).collect();
                let text = text.join(" ");
                let from_forms = SnippetAnalysis::from_forms(&table, ids, &m, &dict);
                assert_eq!(from_forms, SnippetAnalysis::new(&text, &m, &mut dict), "{text:?}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "dictionary it was not built with")]
    fn a_form_table_is_tied_to_its_dictionary() {
        let (o, _) = world();
        let m = LocationMatcher::build(&o);
        let table = FormTable::new(&["seafood".to_string()], |_| &[], &m, &TermDict::new());
        SnippetAnalysis::from_forms(&table, &[0], &m, &TermDict::new());
    }

    #[test]
    #[should_panic(expected = "dictionary it was not built with")]
    fn an_analysis_is_tied_to_its_dictionary() {
        let (o, _) = world();
        let a = SnippetAnalysis::new("seafood", &LocationMatcher::build(&o), &mut TermDict::new());
        a.terms(&TermDict::new());
    }
}
