//! # pws-text — text-processing substrate
//!
//! Low-level text utilities shared by every other crate in the `pws`
//! workspace: tokenization, normalization, stopword filtering, Porter
//! stemming, n-gram extraction, a compact string interner, and the
//! per-thread word table that makes stopword filtering and stemming a
//! once-per-word cost.
//!
//! The personalization pipeline of the paper operates on *web snippets*
//! (short text fragments accompanying each search result). All snippet and
//! document analysis funnels through [`Analyzer`], which applies a fixed,
//! deterministic pipeline so that the index, the concept extractor, and the
//! query parser all agree on token identity:
//!
//! ```text
//! raw text → unicode-lowercase → split on non-alphanumeric →
//!   drop pure punctuation → (optional) drop stopwords → (optional) Porter stem
//! ```
//!
//! ## Quick example
//!
//! ```
//! use pws_text::Analyzer;
//!
//! let a = Analyzer::default();
//! let toks = a.analyze("Seafood restaurants in Mount Washington!");
//! assert!(toks.iter().any(|t| t == "seafood"));
//! // stopword "in" removed, tokens lowercased and stemmed
//! assert!(!toks.iter().any(|t| t == "in"));
//! ```

pub mod interner;
pub mod ngram;
pub mod stem;
pub mod stopwords;
pub mod tokenize;
pub mod word;

pub use interner::{Interner, Sym};
pub use ngram::{bigrams, ngrams, window_cooccurrence};
pub use stem::{porter_stem, porter_stem_into};
pub use stopwords::is_stopword;
pub use tokenize::{tokenize, tokenize_keep_stops};
pub use word::{with_words, Words};

/// Configurable analysis pipeline: tokenize → stopword filter → stem.
///
/// Cloning is cheap; the analyzer holds only configuration flags.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Analyzer {
    /// Remove stopwords (see [`stopwords`]) after tokenization.
    pub remove_stopwords: bool,
    /// Apply the Porter stemmer to each surviving token.
    pub stem: bool,
    /// Drop tokens shorter than this many bytes after normalization.
    pub min_token_len: usize,
    /// Drop tokens longer than this many bytes (guards against garbage).
    pub max_token_len: usize,
}

impl Default for Analyzer {
    fn default() -> Self {
        Analyzer { remove_stopwords: true, stem: true, min_token_len: 2, max_token_len: 40 }
    }
}

impl Analyzer {
    /// An analyzer that performs no stopword removal and no stemming —
    /// useful for location-name matching, where surface forms matter.
    pub fn verbatim() -> Self {
        Analyzer { remove_stopwords: false, stem: false, min_token_len: 1, max_token_len: 60 }
    }

    /// Run the full pipeline over `text`, returning owned tokens.
    pub fn analyze(&self, text: &str) -> Vec<String> {
        let mut out = Vec::new();
        self.analyze_into(text, &mut out);
        out
    }

    /// [`Analyzer::analyze`] into a caller-supplied buffer (cleared
    /// first). Hot query paths reuse one buffer across calls so analysis
    /// stops allocating token vectors at steady state; output is
    /// identical to [`Analyzer::analyze`].
    pub fn analyze_into(&self, text: &str, out: &mut Vec<String>) {
        out.clear();
        self.for_each_token(text, |t| out.push(t.to_string()));
    }

    /// Run the full pipeline over `text`, calling `f` with each token
    /// [`Analyzer::analyze`] would return, in order. Tokens are borrowed
    /// (from `text`, a scratch buffer or the word table), so a caller that
    /// packs them into its own storage pays no `String` per token. A
    /// stemming analyser reads each token's stem and stopword flag from
    /// this thread's [`word`] table — one lookup per token; the stopword
    /// search and Porter run once per distinct word — and applies its own
    /// filters as it emits, so one table serves every configuration.
    pub fn for_each_token(&self, text: &str, mut f: impl FnMut(&str)) {
        let kept = |t: &str| t.len() >= self.min_token_len && t.len() <= self.max_token_len;
        if !self.stem {
            tokenize::for_each_token(text, |t| {
                if kept(t) && !(self.remove_stopwords && is_stopword(t)) {
                    f(t);
                }
            });
            return;
        }
        word::with_words(|words| {
            tokenize::for_each_token(text, |t| {
                if kept(t) {
                    let (stem, stop) = words.analyse(t);
                    if !(self.remove_stopwords && stop) {
                        f(stem);
                    }
                }
            })
        });
    }

    /// Analyze and intern in one pass, returning symbol ids.
    pub fn analyze_interned(&self, text: &str, interner: &mut Interner) -> Vec<Sym> {
        self.analyze(text).into_iter().map(|t| interner.intern(&t)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_pipeline_lowercases_stems_and_drops_stopwords() {
        let a = Analyzer::default();
        let toks = a.analyze("The RUNNING dogs are runners");
        assert!(toks.contains(&"run".to_string()) || toks.contains(&"runner".to_string()));
        assert!(!toks.iter().any(|t| t == "the"));
        assert!(!toks.iter().any(|t| t == "are"));
    }

    #[test]
    fn verbatim_keeps_everything() {
        let a = Analyzer::verbatim();
        let toks = a.analyze("The Mount of Washington");
        assert_eq!(toks, vec!["the", "mount", "of", "washington"]);
    }

    #[test]
    fn min_len_filter_applies() {
        let a = Analyzer { min_token_len: 3, ..Analyzer::verbatim() };
        let toks = a.analyze("a an the cat");
        assert_eq!(toks, vec!["the", "cat"]);
    }

    #[test]
    fn empty_input_gives_empty_output() {
        assert!(Analyzer::default().analyze("").is_empty());
        assert!(Analyzer::default().analyze("   \t\n ").is_empty());
    }

    #[test]
    fn interned_analysis_matches_plain() {
        let a = Analyzer::default();
        let mut it = Interner::new();
        let syms = a.analyze_interned("seafood buffet pittsburgh", &mut it);
        let toks = a.analyze("seafood buffet pittsburgh");
        let back: Vec<&str> = syms.iter().map(|&s| it.resolve(s)).collect();
        assert_eq!(back, toks);
    }
}
