//! The per-thread word table: each distinct word is analysed once.
//!
//! What the analysis pipeline does to a token after tokenisation — the
//! stopword test and the Porter stem — depends on the token's text alone.
//! Text in this system repeats its words endlessly (the 300 k-document
//! benchmark corpus is 23.3 M tokens over 491 distinct forms), so every
//! thread keeps a table from tokenised form to `(stem, is stopword)` and
//! runs the stopword search and Porter only on a form's first sight.
//! [`crate::Analyzer::for_each_token`] and [`crate::Analyzer::term_of`]
//! (index build, segment load, query and text analysis, title matching)
//! and the string snippet extractor read stems through [`with_words`];
//! nothing else calls the stemmer.
//!
//! The table **memoises, it never decides**: a hit hands out what
//! [`porter_stem`](crate::porter_stem) and [`is_stopword`] returned for
//! that form, and everything the table cannot hold — a form longer than
//! 40 bytes, any new form once the table is full, an analysis nested in
//! another's callback (the table is borrowed) or run while the thread
//! exits — is analysed the uncached way. Output is therefore identical by
//! construction, whatever the table holds.
//!
//! It is per thread so a lookup takes no lock, and bounded so text with
//! an unbounded vocabulary cannot grow it: at most 2¹⁵ strings (forms and
//! their stems, stored once each in one [`Interner`]) of at most 40 bytes
//! — 2.0 MB of heap at capacity in the worst case (a test pins it under
//! 2.5 MiB), a few tens of KB for the benchmark worlds (491 forms).

use crate::interner::{Interner, Sym};
use crate::stem::porter_stem_into;
use crate::stopwords::is_stopword;
use std::cell::RefCell;

/// Longest form, in bytes, the table holds. The default analyser drops
/// longer tokens before they are stemmed.
const MAX_WORD_LEN: usize = 40;

/// Most strings — forms and stems together — one thread's table holds.
const CAPACITY: usize = 1 << 15;

/// Marks a form that is a stopword in [`WordTable::info`].
const STOP: u32 = 1 << 31;

/// [`WordTable::info`] of a string interned only as some form's stem.
const NOT_A_FORM: u32 = u32::MAX;

thread_local! {
    static TABLE: RefCell<WordTable> = const { RefCell::new(WordTable::new()) };
}

#[derive(Debug)]
struct WordTable {
    /// Every form and every stem, each stored once.
    strings: Interner,
    /// By symbol of `strings`: [`NOT_A_FORM`], or the symbol of the
    /// form's stem with [`STOP`] set when the form is a stopword.
    info: Vec<u32>,
    /// The stemmer's buffer.
    stem: Vec<u8>,
}

impl WordTable {
    const fn new() -> Self {
        WordTable { strings: Interner::new(), info: Vec::new(), stem: Vec::new() }
    }

    /// `form`'s stem and whether `form` is a stopword, analysing `form` on
    /// first sight. `None` when the table cannot hold `form` (too long, or
    /// new and the table full): the caller analyses it uncached.
    fn get(&mut self, form: &str) -> Option<(&str, bool)> {
        if form.len() > MAX_WORD_LEN {
            return None;
        }
        let info = match self.strings.get(form).map(|sym| self.info[sym.index()]) {
            Some(info) if info != NOT_A_FORM => info,
            _ => self.insert(form)?,
        };
        Some((self.strings.resolve(Sym(info & !STOP)), info & STOP != 0))
    }

    /// Analyse `form` and enter it (and its stem); `None` when full.
    fn insert(&mut self, form: &str) -> Option<u32> {
        if self.strings.len() + 2 > CAPACITY {
            return None;
        }
        let stem = self.strings.intern(porter_stem_into(form, &mut self.stem));
        let sym = self.strings.intern(form);
        self.info.resize(self.strings.len(), NOT_A_FORM);
        self.info[sym.index()] = stem.0 | if is_stopword(form) { STOP } else { 0 };
        Some(self.info[sym.index()])
    }

    #[cfg(test)]
    fn heap_bytes(&self) -> usize {
        self.strings.heap_bytes() + self.info.capacity() * 4 + self.stem.capacity()
    }
}

/// This thread's word table for the length of one [`with_words`] call —
/// or, when the table is already in use further up the stack (an analysis
/// nested in another's callback) or the thread is exiting, none: then
/// every word is analysed uncached, with the same result.
pub struct Words<'t> {
    table: Option<&'t mut WordTable>,
    /// The stemmer's buffer for uncached words.
    buf: Vec<u8>,
}

impl Words<'_> {
    /// The Porter stem of `form` (a token as the tokenizer hands it out:
    /// lowercased) and whether `form` is a stopword — exactly
    /// `(porter_stem(form), is_stopword(form))`.
    pub fn analyse<'s>(&'s mut self, form: &'s str) -> (&'s str, bool) {
        if let Some(hit) = self.table.as_deref_mut().and_then(|t| t.get(form)) {
            return hit;
        }
        (porter_stem_into(form, &mut self.buf), is_stopword(form))
    }
}

/// Run `f` with this thread's word table (see [`Words`]). The table stays
/// borrowed until `f` returns, so a loop over many tokens pays for the
/// thread-local access once; an analysis `f` starts itself on this thread
/// is served uncached.
pub fn with_words<R>(f: impl FnOnce(&mut Words<'_>) -> R) -> R {
    let mut f = Some(f);
    TABLE
        .try_with(|cell| {
            let mut table = cell.try_borrow_mut().ok();
            let f = f.take().expect("f runs once");
            f(&mut Words { table: table.as_deref_mut(), buf: Vec::new() })
        })
        .unwrap_or_else(|_| {
            let f = f.take().expect("f has not run");
            f(&mut Words { table: None, buf: Vec::new() })
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{porter_stem, Analyzer};

    /// The heap a table at capacity may hold (the module doc quotes it).
    const HEAP_BOUND: usize = 5 << 19;

    /// The uncached analysis of `form`.
    fn uncached(form: &str) -> (String, bool) {
        (porter_stem(form), is_stopword(form))
    }

    fn cached(form: &str) -> (String, bool) {
        with_words(|w| {
            let (stem, stop) = w.analyse(form);
            (stem.to_string(), stop)
        })
    }

    fn forms_held() -> usize {
        TABLE.with(|t| t.borrow().info.iter().filter(|&&i| i != NOT_A_FORM).count())
    }

    /// Run `f` on a thread of its own, so it starts from an empty table.
    fn on_fresh_thread<R: Send>(f: impl FnOnce() -> R + Send) -> R {
        std::thread::scope(|s| s.spawn(f).join().expect("test thread"))
    }

    #[test]
    fn hits_and_misses_give_the_uncached_answer() {
        on_fresh_thread(|| {
            let forms = [
                "running", "runs", "the", "don't", "it's", "o'hare's", "caresses", "ponies",
                "relational", "n73", "2009", "köln", "café", "a", "", "restaurants", "restaur",
                "agreed", "hopping", "x", "doing", "do",
            ];
            for round in 0..3 {
                for f in forms {
                    assert_eq!(cached(f), uncached(f), "{f:?} round {round}");
                }
            }
            // "restaur" is a form of its own and the stem of "restaurants":
            // one string, entered as a form only when it is seen as one.
            let distinct: std::collections::HashSet<&str> = forms.into_iter().collect();
            assert_eq!(forms_held(), distinct.len());
        });
    }

    #[test]
    fn long_forms_are_analysed_uncached() {
        on_fresh_thread(|| {
            for len in [39, 40, 41, 61] {
                let form = format!("{}ing", "b".repeat(len - 3));
                assert_eq!(cached(&form), uncached(&form), "{len} bytes");
            }
            assert_eq!(forms_held(), 2, "only the forms of at most 40 bytes are held");
        });
    }

    #[test]
    fn a_full_table_answers_new_forms_uncached_and_keeps_the_old() {
        on_fresh_thread(|| {
            let word = |i: usize| format!("w{i}ations");
            let mut i = 0;
            while TABLE.with(|t| t.borrow().strings.len()) + 2 <= CAPACITY {
                assert_eq!(cached(&word(i)), uncached(&word(i)));
                i += 1;
            }
            let held = TABLE.with(|t| t.borrow().strings.len());
            for j in (0..i + 100).step_by(7) {
                assert_eq!(cached(&word(j)), uncached(&word(j)), "{j}");
            }
            assert_eq!(cached("running"), uncached("running"));
            assert_eq!(TABLE.with(|t| t.borrow().strings.len()), held, "a full table grows no more");
        });
    }

    #[test]
    fn a_table_at_capacity_stays_under_its_bound() {
        on_fresh_thread(|| {
            // Worst case: every form of full length, every stem another string.
            let mut i = 0usize;
            while TABLE.with(|t| t.borrow().strings.len()) + 2 <= CAPACITY {
                let letters: String =
                    (0..4).map(|k| char::from(b'b' + (i >> (4 * k) & 15) as u8)).collect();
                let form = format!("{letters:a>33}ational");
                assert_eq!(form.len(), MAX_WORD_LEN);
                assert_eq!(cached(&form), uncached(&form));
                i += 1;
            }
            let bytes = TABLE.with(|t| t.borrow().heap_bytes());
            assert!(bytes <= HEAP_BOUND, "{bytes} bytes at capacity");
            assert!(bytes >= CAPACITY / 2 * MAX_WORD_LEN, "the table was filled: {bytes}");
        });
    }

    #[test]
    fn a_nested_call_gives_the_same_answers() {
        on_fresh_thread(|| {
            let outer = with_words(|w| {
                let (stem, stop) = w.analyse("runners");
                assert_eq!(cached("runners"), uncached("runners"));
                assert_eq!(cached("hopping"), uncached("hopping"));
                (stem.to_string(), stop)
            });
            assert_eq!(outer, uncached("runners"));
            assert_eq!(forms_held(), 1, "the nested calls were served uncached");
            assert_eq!(cached("hopping"), uncached("hopping"));
            assert_eq!(forms_held(), 2);
        });
    }

    /// The analyser as it was before the table: a stopword search and a
    /// Porter run per token.
    fn analyze_uncached(a: &Analyzer, text: &str) -> Vec<String> {
        let mut out = Vec::new();
        crate::tokenize::for_each_token(text, |t| {
            if t.len() < a.min_token_len || t.len() > a.max_token_len {
                return;
            }
            if a.remove_stopwords && is_stopword(t) {
                return;
            }
            out.push(if a.stem { porter_stem(t) } else { t.to_string() });
        });
        out
    }

    /// Every configuration the workspace builds, plus the stemming ones a
    /// segment file could carry.
    fn configs() -> Vec<Analyzer> {
        let (d, v) = (Analyzer::default(), Analyzer::verbatim());
        vec![
            d.clone(),
            v.clone(),
            Analyzer { min_token_len: 3, ..v.clone() },
            Analyzer { remove_stopwords: true, ..v },
            Analyzer { stem: false, ..d.clone() },
            Analyzer { remove_stopwords: false, ..d.clone() },
            Analyzer { min_token_len: 1, max_token_len: 60, ..d },
        ]
    }

    const TEXTS: [&str; 8] = [
        "The RUNNING dogs are Runners, aren't they? It's O'Hare's 'Quoted' dogs'",
        "'leading and trailing' apostrophes' at the text's edges'",
        "Köln CAFÉ crêpes über straße naïve résumé — don't STOP",
        "a I x of in the an be restaurants Restaurants RESTAURANTS restaur",
        "nokia n73 2009 relational conditional agreed hopping hoping",
        "",
        "   !!! ,,, ' '' ",
        "the of and to a in is it",
    ];

    /// Tokens of 1, 2, 39, 40, 41, 60 and 61 bytes.
    fn lengths_text() -> String {
        [1, 2, 39, 40, 41, 60, 61].map(|n| format!("{}ing", "r".repeat(n))[3..].to_string()).join(" ")
    }

    fn assert_analyses_agree(context: &str) {
        let long = lengths_text();
        for a in configs() {
            for text in TEXTS.iter().copied().chain([long.as_str()]) {
                let mut got = Vec::new();
                a.for_each_token(text, |t| got.push(t.to_string()));
                assert_eq!(got, analyze_uncached(&a, text), "{context}: {a:?} on {text:?}");
            }
        }
    }

    #[test]
    fn the_analyser_over_the_table_equals_the_uncached_pipeline() {
        on_fresh_thread(|| {
            assert_analyses_agree("first sight");
            assert!(forms_held() > 40);
            assert_analyses_agree("all hits");
        });
    }

    #[test]
    fn the_analyser_over_a_full_table_equals_the_uncached_pipeline() {
        on_fresh_thread(|| {
            let mut i = 0;
            while TABLE.with(|t| t.borrow().strings.len()) + 2 <= CAPACITY {
                cached(&format!("filler{i}"));
                i += 1;
            }
            assert_analyses_agree("full table");
            assert_eq!(forms_held(), i, "nothing entered a full table");
        });
    }

    #[test]
    fn a_nested_analysis_gives_the_same_tokens() {
        on_fresh_thread(|| {
            let a = Analyzer::default();
            let (outer_text, inner_text) = (TEXTS[0], TEXTS[3]);
            let mut outer = Vec::new();
            a.for_each_token(outer_text, |t| {
                let mut inner = Vec::new();
                a.for_each_token(inner_text, |u| inner.push(u.to_string()));
                assert_eq!(inner, analyze_uncached(&a, inner_text));
                outer.push(t.to_string());
            });
            assert_eq!(outer, analyze_uncached(&a, outer_text));
        });
    }

    proptest::proptest! {
        #[test]
        fn any_text_analyses_as_uncached(text in "[a-zA-Z' éÖ0-9.,]{0,120}") {
            for a in configs() {
                let mut got = Vec::new();
                a.for_each_token(&text, |t| got.push(t.to_string()));
                proptest::prop_assert_eq!(got, analyze_uncached(&a, &text));
            }
        }
    }
}
