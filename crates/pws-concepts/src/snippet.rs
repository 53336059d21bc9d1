//! Per-snippet analysis: the pure half of concept extraction.
//!
//! Everything extraction needs to know about one snippet — its term
//! sequence under the default analyser and the places named in it — depends
//! on the snippet text alone, not on the query, the pool it was retrieved
//! into, or the user. [`SnippetAnalysis`] computes that once; the per-pool
//! counting pass ([`crate::QueryConceptOntology::from_analyses`]) then works
//! on analyses only and never looks at snippet text again.
//!
//! A served snippet is a window of an indexed body's tokens, joined by
//! `' '` (see `pws_index::CutHit`), and each token — a *form* — adds to
//! the analysis what the form alone decides: its term, its place-name
//! token. So an engine builds one [`FormTable`] per index segment, once,
//! and [`SnippetAnalysis::from_forms`] reads a snippet's analysis off its
//! window's form ids; [`SnippetAnalysis::new`] analyses text (the string
//! entry point, and the fallback for a window holding a form that would
//! not re-tokenise to itself).
//!
//! This module is the **only** place in the crate's serving path where the
//! analyser and the location matcher run, and where a term is given its id
//! in the [`TermDict`] (`scripts/check.sh` greps for both).

use crate::dict::TermDict;
use pws_geo::{LocId, LocationMatcher};
use pws_text::{tokenize, Analyzer, Sym};

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

    /// The analysis of a snippet cut as the forms `forms` of the segment
    /// `table` was built for (`text` is their forms joined by `' '`), read
    /// off the table: what [`SnippetAnalysis::new`] of `text` gives, with
    /// no analyser run and no term interned. A window holding a form that
    /// does not re-tokenise to itself is analysed from `text` instead.
    ///
    /// # Panics
    /// Panics if `table` was built against another dictionary than `dict`.
    pub fn from_forms(
        table: &FormTable,
        forms: &[u32],
        text: &str,
        matcher: &LocationMatcher,
        dict: &TermDict,
    ) -> Self {
        assert_eq!(table.dict, dict.stamp(), "form table used with a dictionary it was not built with");
        let (mut terms, mut words) = (Vec::with_capacity(forms.len()), Vec::with_capacity(forms.len()));
        for &form in forms {
            match table.forms.get(form as usize) {
                Some(info) if info.plain => {
                    terms.extend(info.term);
                    words.extend(info.word);
                }
                _ => return Self::new(text, matcher, dict),
            }
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

/// What one form contributes to any snippet holding it.
#[derive(Debug, Clone, Copy)]
struct FormInfo {
    /// Its term's id (`None`: the analyser drops the form).
    term: Option<Sym>,
    /// Its place-name token id, as [`LocationMatcher::token_word`] gives
    /// it (`None`: the matcher's analyser drops the form).
    word: Option<Option<Sym>>,
    /// `tokenize(form) == [form]`: the form reads back from snippet text
    /// as itself. `term` and `word` are meaningful only when set.
    plain: bool,
}

/// One index segment's forms (its distinct body tokens), each with what
/// it contributes to a snippet analysis: built once per segment against
/// the engine's dictionary, read by [`SnippetAnalysis::from_forms`].
#[derive(Debug)]
pub struct FormTable {
    /// By form id.
    forms: Box<[FormInfo]>,
    /// Stamp of the dictionary the term ids belong to.
    dict: u32,
}

impl FormTable {
    /// Analyse each of `forms` (a segment's forms, form id = position)
    /// once: its term under the concept analyser, interned in `dict`, and
    /// its place-name token under `matcher`.
    pub fn new(forms: &[String], matcher: &LocationMatcher, dict: &TermDict) -> Self {
        let mut known = dict.read();
        let forms = forms
            .iter()
            .map(|form| {
                let (mut tokens, mut same) = (0, true);
                tokenize::for_each_token(form, |t| {
                    tokens += 1;
                    same &= t == form;
                });
                let plain = tokens == 1 && same;
                let mut term = None;
                if plain {
                    for_each_term(form, |t| term = Some(known.intern(t)));
                }
                FormInfo { term, word: matcher.token_word(form), plain }
            })
            .collect();
        FormTable { forms, dict: dict.stamp() }
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

    /// Forms as the tokenizer hands them out — stopwords, one-letter,
    /// 41- and 61-byte, apostrophes, place-name tokens, `i̇` (the lowercase
    /// of `İ`, which re-tokenises as `i`) — in every window of a token
    /// sequence: read off the table, the analysis of the joined window.
    #[test]
    fn from_forms_equals_the_analysis_of_the_joined_window() {
        let (o, _) = world();
        let m = LocationMatcher::build(&o);
        let dict = TermDict::new();
        let (l41, l61) = ("l".repeat(41), "m".repeat(61));
        let forms: Vec<String> = [
            "port", "alden", "the", "of", "x", "seafood", "running", "don't", "o'hare's", &l41,
            &l61, "westland", "i\u{307}stanbul", "restaurants",
        ]
        .map(String::from)
        .to_vec();
        let table = FormTable::new(&forms, &m, &dict);
        assert_eq!(table.forms.len(), forms.len());
        assert!(!table.forms[12].plain && table.forms[..12].iter().all(|f| f.plain));
        let seq: Vec<u32> = [0, 1, 2, 9, 0, 10, 1, 5, 6, 11, 7, 8, 3, 0, 1, 4, 13, 12, 0, 1, 2]
            .into_iter()
            .collect();
        for start in 0..seq.len() {
            for end in start..=seq.len() {
                let ids = &seq[start..end];
                let text: Vec<&str> = ids.iter().map(|&f| forms[f as usize].as_str()).collect();
                let text = text.join(" ");
                assert_eq!(
                    SnippetAnalysis::from_forms(&table, ids, &text, &m, &dict),
                    SnippetAnalysis::new(&text, &m, &dict),
                    "{text:?}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "dictionary it was not built with")]
    fn a_form_table_is_tied_to_its_dictionary() {
        let (o, _) = world();
        let m = LocationMatcher::build(&o);
        let table = FormTable::new(&["seafood".to_string()], &m, &TermDict::new());
        SnippetAnalysis::from_forms(&table, &[0], "seafood", &m, &TermDict::new());
    }

    #[test]
    #[should_panic(expected = "dictionary it was not built with")]
    fn an_analysis_is_tied_to_its_dictionary() {
        let (o, _) = world();
        let a = SnippetAnalysis::new("seafood", &LocationMatcher::build(&o), &TermDict::new());
        a.terms(&TermDict::new());
    }
}
