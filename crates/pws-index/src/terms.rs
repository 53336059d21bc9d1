//! The index's one vocabulary.
//!
//! A [`TermTable`] gives every term of an index one dense id ([`Sym`]):
//! each segment's lexicon terms, the Porter stem of each of its forms (what
//! a snippet marks a query term by), and the terms each form contributes to
//! a snippet's concept analysis. It is rebuilt whenever a segment is added —
//! O(vocabulary), a few hundred terms and forms a segment — and stored
//! nowhere, so the segment format does not change with it. A query is
//! analysed to ids once ([`TermTable::analyze`]); ranking, snippet marking,
//! re-scoring, the retrieval cache and concept counting all take those ids.
//! Ids depend on the order segments were added in; the string and the
//! document frequency an id stands for do not.

use crate::segment::Segment;
use pws_text::{Analyzer, Interner, Sym};

/// Marks an id a segment's lexicon lacks in [`SegmentTerms::ords`].
const NO_ORD: u32 = u32::MAX;

/// The term table of a [`crate::SegmentedIndex`]; see the module docs.
#[derive(Debug, Clone, Default)]
pub struct TermTable {
    /// The analyser every segment was built with.
    analyzer: Analyzer,
    terms: Interner,
    /// Global document frequency by id; 0 for an id no document indexes.
    df: Vec<u32>,
    segments: Vec<SegmentTerms>,
}

/// One segment's side of the table.
#[derive(Debug, Clone)]
struct SegmentTerms {
    /// The segment's term ordinal by id ([`NO_ORD`], or past the end, when
    /// its lexicon lacks the term).
    ords: Vec<u32>,
    /// Each form's Porter stem, by form id.
    form_stems: Vec<Sym>,
    /// Form `f`'s snippet terms are `form_terms[form_ends[f]..form_ends[f + 1]]`.
    form_ends: Vec<u32>,
    form_terms: Vec<Sym>,
}

impl TermTable {
    pub(crate) fn new(analyzer: Analyzer) -> Self {
        TermTable { analyzer, ..TermTable::default() }
    }

    pub(crate) fn analyzer(&self) -> &Analyzer {
        &self.analyzer
    }

    fn intern(&mut self, term: &str) -> Sym {
        let id = self.terms.intern(term);
        if id.index() == self.df.len() {
            self.df.push(0);
        }
        id
    }

    /// Enter `seg`, the index's next segment: its lexicon with document
    /// frequencies, its forms' stems, and each form's snippet terms — what
    /// the default analyser (concepts are counted under it) makes of the
    /// form as a snippet's text re-tokenises it: the form's own term, or
    /// each piece's for a form that does not read back as itself
    /// (`i̇stanbul`, the lowercase of `İstanbul`, splits at its combining dot).
    pub(crate) fn add_segment(&mut self, seg: &Segment) {
        let mut ords = Vec::new();
        for (ord, (term, df)) in seg.term_dfs().enumerate() {
            let id = self.intern(term).index();
            self.df[id] += df;
            ords.resize(ords.len().max(id + 1), NO_ORD);
            ords[id] = ord as u32;
        }
        let form_stems = pws_text::with_words(|words| {
            seg.forms().iter().map(|form| self.intern(words.analyse(form).0)).collect()
        });
        let (mut form_ends, mut form_terms) = (vec![0], Vec::new());
        for form in seg.forms() {
            Analyzer::default().for_each_token(form, |t| form_terms.push(self.intern(t)));
            form_ends.push(form_terms.len() as u32);
        }
        self.segments.push(SegmentTerms { ords, form_stems, form_ends, form_terms });
    }

    /// Every term, by id: what the personalization layer borrows as its
    /// concept vocabulary.
    pub fn interner(&self) -> &Interner {
        &self.terms
    }

    /// The id of an analysed term, if the index holds it.
    pub fn get(&self, term: &str) -> Option<Sym> {
        self.terms.get(term)
    }

    /// The ids of the analysed `tokens`, in order. A token the index lacks
    /// matches, marks and scores nothing, so it is left out.
    pub fn ids(&self, tokens: &[String]) -> Vec<Sym> {
        tokens.iter().filter_map(|t| self.get(t)).collect()
    }

    /// `text` analysed by the index's analyser, as [`TermTable::ids`].
    pub fn analyze(&self, text: &str) -> Vec<Sym> {
        let mut out = Vec::new();
        self.analyzer.for_each_token(text, |t| out.extend(self.get(t)));
        out
    }

    /// Global document frequency of `id` (0 for an id no document indexes,
    /// or none of this table's).
    pub(crate) fn df(&self, id: Sym) -> u32 {
        self.df.get(id.index()).copied().unwrap_or(0)
    }

    /// Number of terms some document indexes.
    pub(crate) fn lexicon_len(&self) -> usize {
        self.df.iter().filter(|&&df| df > 0).count()
    }

    /// Segment `s`'s ordinal of `id`, if its lexicon holds the term.
    pub(crate) fn ord(&self, s: usize, id: Sym) -> Option<u32> {
        self.segments[s].ords.get(id.index()).copied().filter(|&ord| ord != NO_ORD)
    }

    /// The Porter stem of each of segment `s`'s forms, by form id.
    pub(crate) fn form_stems(&self, s: usize) -> &[Sym] {
        &self.segments[s].form_stems
    }

    /// The snippet terms of form `form` of segment `s`, in order: what a
    /// snippet holding the form contributes to its concept analysis.
    pub fn form_terms(&self, s: usize, form: u32) -> &[Sym] {
        let t = &self.segments[s];
        &t.form_terms[t.form_ends[form as usize] as usize..t.form_ends[form as usize + 1] as usize]
    }
}
