//! Unicode-aware tokenization.
//!
//! Tokens are maximal runs of alphanumeric characters (plus intra-word
//! apostrophes, so `don't` stays one token), lowercased. Everything else is
//! a separator. This matches what web search engines do for snippet text
//! well enough for concept mining, and — more importantly — it is the *same*
//! rule everywhere in the workspace, so query terms, index terms, and
//! snippet terms always align.

/// Split `text` into normalized (lowercased) tokens.
///
/// ```
/// use pws_text::tokenize;
/// assert_eq!(tokenize("Hello, World!"), vec!["hello", "world"]);
/// assert_eq!(tokenize("don't stop"), vec!["don't", "stop"]);
/// assert_eq!(tokenize("state-of-the-art"), vec!["state", "of", "the", "art"]);
/// ```
pub fn tokenize(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    for_each_token(text, |t| out.push(t.to_string()));
    out
}

/// Call `f` with each token [`tokenize`] would return, in order, without
/// allocating a `String` per token.
///
/// ASCII text (every generated snippet, nearly every query) takes a byte
/// scan: a token that is already lowercase is handed out as a slice of
/// `text`, anything else is lowercased through one reused buffer. Any
/// non-ASCII byte sends the whole text down the general Unicode path.
pub fn for_each_token(text: &str, f: impl FnMut(&str)) {
    if text.is_ascii() {
        for_each_token_ascii(text, f);
    } else {
        for_each_token_general(text, f);
    }
}

/// The tokenization rule itself, for any input.
fn for_each_token_general(text: &str, mut f: impl FnMut(&str)) {
    let mut cur = String::new();
    let mut chars = text.chars().peekable();
    while let Some(c) = chars.next() {
        if c.is_alphanumeric() {
            for lc in c.to_lowercase() {
                cur.push(lc);
            }
        } else if c == '\'' && !cur.is_empty() && chars.peek().is_some_and(|n| n.is_alphanumeric())
        {
            // Intra-word apostrophe: keep it so "don't" survives as one token.
            cur.push('\'');
        } else if !cur.is_empty() {
            f(&cur);
            cur.clear();
        }
    }
    if !cur.is_empty() {
        f(&cur);
    }
}

/// [`for_each_token_general`] for all-ASCII `text`: token boundaries are
/// byte positions and lowercasing is `make_ascii_lowercase`.
fn for_each_token_ascii(text: &str, mut f: impl FnMut(&str)) {
    let bytes = text.as_bytes();
    let mut lower = String::new();
    let mut emit = |s: usize, e: usize| {
        let token = &text[s..e];
        if token.bytes().any(|b| b.is_ascii_uppercase()) {
            lower.clear();
            lower.push_str(token);
            lower.make_ascii_lowercase();
            f(&lower);
        } else {
            f(token);
        }
    };
    let mut start: Option<usize> = None;
    for (i, &b) in bytes.iter().enumerate() {
        let in_token = b.is_ascii_alphanumeric()
            || (b == b'\''
                && start.is_some()
                && bytes.get(i + 1).is_some_and(|n| n.is_ascii_alphanumeric()));
        if in_token {
            if start.is_none() {
                start = Some(i);
            }
        } else if let Some(s) = start.take() {
            emit(s, i);
        }
    }
    if let Some(s) = start {
        emit(s, bytes.len());
    }
}

/// Tokenize but additionally report, for each token, whether it is a
/// stopword. Used by the snippet highlighter and the concept extractor,
/// which need stopwords *in place* to form multi-word candidate phrases
/// ("statue of liberty") without merging across them incorrectly.
pub fn tokenize_keep_stops(text: &str) -> Vec<(String, bool)> {
    tokenize(text)
        .into_iter()
        .map(|t| {
            let stop = crate::stopwords::is_stopword(&t);
            (t, stop)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_splitting() {
        assert_eq!(tokenize("a b  c"), vec!["a", "b", "c"]);
    }

    #[test]
    fn lowercases_unicode() {
        assert_eq!(tokenize("Köln CAFÉ"), vec!["köln", "café"]);
    }

    #[test]
    fn digits_are_tokens() {
        assert_eq!(tokenize("nokia n73 2009"), vec!["nokia", "n73", "2009"]);
    }

    #[test]
    fn punctuation_is_separator() {
        assert_eq!(tokenize("x.y,z;(w)"), vec!["x", "y", "z", "w"]);
    }

    #[test]
    fn apostrophe_handling() {
        assert_eq!(tokenize("it's o'hare's"), vec!["it's", "o'hare's"]);
        // Trailing apostrophe is dropped (it has no following alphanumeric).
        assert_eq!(tokenize("dogs'"), vec!["dogs"]);
        // Leading apostrophe is dropped too.
        assert_eq!(tokenize("'quoted'"), vec!["quoted"]);
    }

    #[test]
    fn keep_stops_flags_stopwords() {
        let v = tokenize_keep_stops("statue of liberty");
        assert_eq!(v.len(), 3);
        assert!(!v[0].1);
        assert!(v[1].1); // "of"
        assert!(!v[2].1);
    }

    proptest::proptest! {
        /// The ASCII byte scan is the general tokenizer on its domain:
        /// same tokens, same order, for any ASCII text (upper case,
        /// apostrophes in every position, digits, control bytes).
        #[test]
        fn ascii_fast_path_equals_general_tokenizer(input in "[ -~\\t\\n]{0,160}") {
            let (mut fast, mut general) = (Vec::new(), Vec::new());
            for_each_token_ascii(&input, |t| fast.push(t.to_string()));
            for_each_token_general(&input, |t| general.push(t.to_string()));
            proptest::prop_assert_eq!(fast, general);
        }
    }

    #[test]
    fn apostrophes_and_case_on_the_ascii_path() {
        // The dispatch in `for_each_token` sends these down the byte scan.
        assert_eq!(tokenize("IT'S O'Hare's 'Quoted' dogs' a''b"), vec![
            "it's", "o'hare's", "quoted", "dogs", "a", "b"
        ]);
        // One non-ASCII byte anywhere sends the whole text down the general path.
        assert_eq!(tokenize("IT'S Köln"), vec!["it's", "köln"]);
    }

    #[test]
    fn empty_and_whitespace() {
        assert!(tokenize("").is_empty());
        assert!(tokenize(" \t\r\n").is_empty());
        assert!(tokenize("!!!").is_empty());
    }
}
