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
        self.for_each_token(text, |t| out.push(t.to_string()));
        out
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

    /// What the pipeline makes of one token as the tokenizer hands it out
    /// (lowercased): its term, or `None` when a filter drops it. Over the
    /// tokens of a text, in order, the `Some`s are exactly
    /// [`Analyzer::for_each_token`]'s output — a caller that keeps the
    /// tokens themselves (the segment builder's form stream) analyses each
    /// distinct one once through this.
    pub fn term_of(&self, form: &str) -> Option<String> {
        if form.len() < self.min_token_len || form.len() > self.max_token_len {
            return None;
        }
        if !self.stem {
            return (!(self.remove_stopwords && is_stopword(form))).then(|| form.to_string());
        }
        word::with_words(|words| {
            let (stem, stop) = words.analyse(form);
            (!(self.remove_stopwords && stop)).then(|| stem.to_string())
        })
    }

    /// Does `haystack` contain `needle` as a contiguous run of whole terms
    /// (both analysed by this analyser)? An empty needle is trivially
    /// contained. Streams both texts; nothing is collected.
    pub fn contains_run(&self, haystack: &str, needle: &str) -> bool {
        let mut len = 0u32;
        self.for_each_token(needle, |_| len += 1);
        if len == 0 {
            return true;
        }
        if len > u64::BITS {
            // Longer than the match mask below is wide: compare collected.
            let (haystack, needle) = (self.analyze(haystack), self.analyze(needle));
            return haystack.windows(needle.len()).any(|w| w == needle);
        }
        // Shift-and matching: bit `i` of `runs` is set when the haystack terms
        // seen last equal the needle's first `i + 1`.
        let (mut runs, mut found) = (0u64, false);
        self.for_each_token(haystack, |token| {
            let (mut equal, mut i) = (0u64, 0);
            self.for_each_token(needle, |n| {
                equal |= u64::from(n == token) << i;
                i += 1;
            });
            runs = (runs << 1 | 1) & equal;
            found |= runs >> (len - 1) & 1 == 1;
        });
        found
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
    fn term_of_each_token_is_the_pipeline() {
        let text = "The RUNNING dogs' O'Hare's a x Köln İstanbul restaurants \
                    qqqqqqqqqqqqqqqqqqqqqqqqqqqqqqqqqqqqqqqqqqqqqqqq of";
        for a in [
            Analyzer::default(),
            Analyzer::verbatim(),
            Analyzer { stem: false, ..Analyzer::default() },
            Analyzer { remove_stopwords: false, ..Analyzer::default() },
        ] {
            let mut via_forms = Vec::new();
            tokenize::for_each_token(text, |form| via_forms.extend(a.term_of(form)));
            assert_eq!(via_forms, a.analyze(text), "{a:?}");
        }
    }

    #[test]
    fn token_run_containment() {
        let verbatim = Analyzer::verbatim();
        let contains = |h: &str, n: &str| verbatim.contains_run(h, n);
        assert!(contains("restaurants in york", "york"));
        assert!(contains("best new york pizza", "new york"));
        // Substring of a longer token is NOT a mention.
        assert!(!contains("restaurants in yorkshire", "york"));
        // Token runs must be contiguous and in order.
        assert!(!contains("new deals in york", "new york"));
        assert!(!contains("york new bridge", "new york"));
        // Empty needle is trivially contained; oversized needle never is.
        assert!(contains("a b", ""));
        assert!(contains("a b", " ,"));
        assert!(!contains("york", "new york"));
        // A failed run may overlap the start of the one that matches.
        assert!(contains("new new york", "new york"));
        assert!(contains("a a a b", "a a b"));
        assert!(!contains("a a a", "a a b"));
        // Surface forms, case-folded; non-ASCII takes the general tokenizer.
        assert!(contains("Hotels in New-York!", "new york"));
        assert!(contains("bars in KÖLN tonight", "köln"));
        // Past the 64-token mask the collected comparison answers.
        let long: Vec<String> = (0..70).map(|i| format!("t{i}")).collect();
        let (needle, hay) = (long.join(" "), format!("x {} y", long.join(" ")));
        assert!(contains(&hay, &needle));
        assert!(!contains(&hay, &format!("{needle} z")));
        assert!(contains(&hay, &long[3..67].join(" ")), "exactly 64 tokens");
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
