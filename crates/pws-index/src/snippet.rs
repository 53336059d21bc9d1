//! Query-biased snippet extraction.
//!
//! The personalization layer mines concepts from *snippets*, exactly as the
//! paper does, so snippet quality directly shapes what concepts exist.
//! We use the classic best-window heuristic: slide a fixed-size window over
//! the body tokens and pick the window covering the most *distinct* query
//! terms (ties: more total query-term occurrences, then earliest).
//!
//! Extraction sits on the latency path of every materialized hit, so three
//! exactness-preserving fast paths keep it cheap:
//!
//! * **first-byte prefilter** — the Porter stemmer only ever rewrites
//!   suffixes (and short/non-ASCII words pass through unchanged), so
//!   `stem(t)` always starts with `t`'s first character. A body token whose
//!   first character matches no query token's first character can't match
//!   any of them, and skips stemming entirely;
//! * **borrowed ASCII tokenization** — bodies that are pure
//!   ASCII-without-uppercase tokenize to byte-range slices of the input
//!   (lowercasing is a no-op), so the common case allocates no per-token
//!   strings. Anything else falls back to the general Unicode tokenizer;
//! * **one analysis per word** — a token's stem comes from the thread's
//!   word table ([`pws_text::with_words`]), so Porter runs once per distinct
//!   form per thread, not once per body or per result list.

use pws_text::{tokenize, with_words, Words};

/// Reusable state of snippet extraction; lives in the pooled
/// [`crate::scratch::SearchScratch`].
#[derive(Debug, Default)]
pub(crate) struct SnippetScratch {
    /// Token byte ranges of the body in hand.
    ranges: Vec<(u32, u32)>,
    /// Per token of the body in hand, the query token it matches.
    is_query_term: Vec<Option<usize>>,
}

impl SnippetScratch {
    /// An extractor for bodies matched against `q_tokens` (already
    /// stemmed/lowercased).
    pub(crate) fn for_query<'a>(&'a mut self, q_tokens: &'a [String]) -> Snippets<'a> {
        // First bytes of the query tokens (all prefilter candidates).
        let mut want = [false; 128];
        for q in q_tokens {
            if let Some(&b) = q.as_bytes().first().filter(|b| b.is_ascii()) {
                want[b as usize] = true;
            }
        }
        Snippets { q_tokens, want, scratch: self }
    }
}

/// Snippet extraction against one fixed set of query tokens.
pub(crate) struct Snippets<'a> {
    q_tokens: &'a [String],
    want: [bool; 128],
    scratch: &'a mut SnippetScratch,
}

/// Extract a snippet of (about) `window` tokens from `body`, biased towards
/// the analyzed query tokens `q_tokens` (already stemmed/lowercased).
///
/// Falls back to the leading `window` tokens when no query term occurs.
pub fn extract_snippet(body: &str, q_tokens: &[String], window: usize) -> String {
    SnippetScratch::default().for_query(q_tokens).extract(body, window)
}

impl Snippets<'_> {
    /// [`extract_snippet`] of `body` for this extractor's query tokens.
    pub(crate) fn extract(&mut self, body: &str, window: usize) -> String {
        // ASCII fast path: tokens are slices of `body` (lowercasing would be
        // a no-op), so skip the per-token String allocations.
        if body.bytes().all(|b| b.is_ascii() && !b.is_ascii_uppercase()) {
            return self.extract_ascii(body, window);
        }
        let q_tokens = self.q_tokens;

        let raw_tokens = tokenize(body);
        if raw_tokens.is_empty() {
            return String::new();
        }
        let window = window.max(1).min(raw_tokens.len());

        // Match on stemmed forms so the snippet window aligns with BM25's
        // view of the document.
        let is_query_term: Vec<Option<usize>> = with_words(|words| {
            raw_tokens
                .iter()
                .map(|t| {
                    if !first_char_may_match(t, q_tokens) {
                        return None;
                    }
                    query_term_of(words, t, q_tokens)
                })
                .collect()
        });

        let best_start = best_window(&is_query_term, window);
        raw_tokens[best_start..best_start + window].join(" ")
    }

    /// Zero-alloc tokenization + window selection for lowercase-ASCII
    /// bodies. Token boundaries replicate [`pws_text::tokenize`] exactly:
    /// maximal runs of alphanumerics plus intra-word apostrophes.
    fn extract_ascii(&mut self, body: &str, window: usize) -> String {
        let (q_tokens, want) = (self.q_tokens, &self.want);
        let SnippetScratch { ranges, is_query_term } = &mut *self.scratch;
        let bytes = body.as_bytes();
        ranges.clear();
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
                ranges.push((s as u32, i as u32));
            }
        }
        if let Some(s) = start {
            ranges.push((s as u32, bytes.len() as u32));
        }
        if ranges.is_empty() {
            return String::new();
        }
        let window = window.max(1).min(ranges.len());

        is_query_term.clear();
        with_words(|words| {
            is_query_term.extend(ranges.iter().map(|&(s, e)| {
                // Porter never alters the first character.
                want[bytes[s as usize] as usize]
                    .then(|| query_term_of(words, &body[s as usize..e as usize], q_tokens))
                    .flatten()
            }))
        });

        let best_start = best_window(is_query_term, window);
        let sel = &ranges[best_start..best_start + window];
        let cap = sel.iter().map(|&(s, e)| (e - s) as usize + 1).sum::<usize>();
        let mut out = String::with_capacity(cap);
        for (j, &(s, e)) in sel.iter().enumerate() {
            if j > 0 {
                out.push(' ');
            }
            out.push_str(&body[s as usize..e as usize]);
        }
        out
    }
}

/// The query token `token` stems to, if any.
#[inline]
fn query_term_of(words: &mut Words<'_>, token: &str, q_tokens: &[String]) -> Option<usize> {
    let (stem, _) = words.analyse(token);
    q_tokens.iter().position(|q| q == stem)
}

/// Can `token` possibly stem to one of `q_tokens`? The Porter stemmer never
/// changes a word's first character, so a first-character mismatch against
/// every query token is a proof of non-membership.
#[inline]
fn first_char_may_match(token: &str, q_tokens: &[String]) -> bool {
    let Some(fc) = token.chars().next() else { return false };
    q_tokens.iter().any(|q| q.starts_with(fc))
}

/// Incremental sliding window: per-term occurrence counts, with
/// `distinct`/`total` maintained as tokens enter and leave. Windows are
/// visited in the same order with the same strict-`>` comparisons as the
/// quadratic rescan this replaces, so the selected window (and the snippet
/// bytes) are identical. `window` must be in `1..=is_query_term.len()`.
fn best_window(is_query_term: &[Option<usize>], window: usize) -> usize {
    let nq = is_query_term.iter().flatten().max().map_or(0, |&m| m + 1);
    let mut counts = vec![0usize; nq];
    let mut distinct = 0usize;
    let mut total = 0usize;
    for qi in is_query_term[..window].iter().flatten() {
        if counts[*qi] == 0 {
            distinct += 1;
        }
        counts[*qi] += 1;
        total += 1;
    }
    let mut best_start = 0usize;
    let mut best_distinct = distinct;
    let mut best_total = total;
    for start in 1..=(is_query_term.len() - window) {
        if let Some(qi) = is_query_term[start - 1] {
            counts[qi] -= 1;
            if counts[qi] == 0 {
                distinct -= 1;
            }
            total -= 1;
        }
        if let Some(qi) = is_query_term[start + window - 1] {
            if counts[qi] == 0 {
                distinct += 1;
            }
            counts[qi] += 1;
            total += 1;
        }
        if distinct > best_distinct || (distinct == best_distinct && total > best_total) {
            best_distinct = distinct;
            best_total = total;
            best_start = start;
        }
    }
    best_start
}

#[cfg(test)]
mod tests {
    use super::*;
    use pws_text::porter_stem;

    fn q(terms: &[&str]) -> Vec<String> {
        terms.iter().map(|t| porter_stem(t)).collect()
    }

    #[test]
    fn empty_body_gives_empty_snippet() {
        assert_eq!(extract_snippet("", &q(&["x"]), 10), "");
    }

    #[test]
    fn no_match_falls_back_to_leading_window() {
        let s = extract_snippet("alpha beta gamma delta", &q(&["zzz"]), 2);
        assert_eq!(s, "alpha beta");
    }

    #[test]
    fn window_centers_on_match_region() {
        let body = "filler filler filler filler filler lobster rolls daily filler filler";
        let s = extract_snippet(body, &q(&["lobster"]), 3);
        assert!(s.contains("lobster"), "snippet = {s}");
    }

    #[test]
    fn prefers_window_with_more_distinct_terms() {
        let body = "seafood seafood seafood x x x x x x x seafood lobster x";
        let s = extract_snippet(body, &q(&["seafood", "lobster"]), 3);
        assert!(s.contains("lobster") && s.contains("seafood"), "snippet = {s}");
    }

    #[test]
    fn window_larger_than_body_returns_whole_body() {
        let s = extract_snippet("only three tokens", &q(&["three"]), 50);
        assert_eq!(s, "only three tokens");
    }

    #[test]
    fn stemmed_matching_finds_inflected_forms() {
        let body = "x x x x x x booking a room tonight x x";
        let s = extract_snippet(body, &q(&["bookings"]), 3);
        assert!(s.contains("booking"), "snippet = {s}");
    }

    #[test]
    fn snippet_is_lowercased_tokens() {
        let s = extract_snippet("The QUICK Fox", &q(&["fox"]), 3);
        assert_eq!(s, "the quick fox");
    }

    #[test]
    fn ascii_fast_path_matches_general_tokenizer() {
        // Apostrophes, digits, punctuation — the tricky boundary cases.
        let bodies = [
            "it's o'hare's gate 22b, near the cafe.",
            "dogs' 'quoted' x.y,z;(w) state-of-the-art",
            "trailing apostrophe' and 'leading",
            "word",
            "  ",
        ];
        for body in bodies {
            let via_slices = extract_snippet(body, &q(&["gate", "art"]), 4);
            // Force the general path by round-tripping through tokenize.
            let toks = tokenize(body);
            let via_general = if toks.is_empty() {
                String::new()
            } else {
                let w = 4usize.min(toks.len());
                let iqt: Vec<Option<usize>> = toks
                    .iter()
                    .map(|t| {
                        let s = porter_stem(t);
                        q(&["gate", "art"]).iter().position(|qq| qq == &s)
                    })
                    .collect();
                let bs = best_window(&iqt, w);
                toks[bs..bs + w].join(" ")
            };
            assert_eq!(via_slices, via_general, "body = {body:?}");
        }
    }

    /// The ASCII path with a linear-scan stem memo per body and a `String`
    /// per stem, calling Porter directly. Kept as the oracle of the
    /// differential test below.
    fn reference_ascii(body: &str, q_tokens: &[String], window: usize) -> String {
        let toks: Vec<&str> = body
            .split(|c: char| !(c.is_ascii_alphanumeric() || c == '\''))
            .flat_map(|run| {
                // Apostrophes count inside a word only.
                let run = run.trim_matches('\'');
                (!run.is_empty()).then_some(run)
            })
            .collect();
        assert_eq!(toks, tokenize(body), "reference tokenizer drifted on {body:?}");
        if toks.is_empty() {
            return String::new();
        }
        let window = window.max(1).min(toks.len());
        let mut memo: Vec<(&str, Option<usize>)> = Vec::new();
        let is_query_term: Vec<Option<usize>> = toks
            .iter()
            .map(|&t| {
                if !first_char_may_match(t, q_tokens) {
                    return None;
                }
                if let Some(&(_, v)) = memo.iter().find(|(m, _)| *m == t) {
                    return v;
                }
                let st = porter_stem(t);
                let v = q_tokens.iter().position(|q| q == &st);
                memo.push((t, v));
                v
            })
            .collect();
        let bs = best_window(&is_query_term, window);
        toks[bs..bs + window].join(" ")
    }

    /// One extractor per query over a whole list of generated bodies — the
    /// shape `materialize` uses — gives every body the snippet the per-body
    /// implementation gives it. Bodies share inflected topic words (so the
    /// word table is hit across bodies); every seventh is not lowercase
    /// ASCII and takes the general path.
    #[test]
    fn per_list_stem_memo_matches_the_per_body_memo() {
        const TOPICS: [&str; 24] = [
            "restaurant", "restaurants", "booking", "bookings", "booked", "hotel", "hotels",
            "seafood", "lobster", "lobsters", "running", "runs", "runner", "menu", "menus",
            "harbor", "harbors", "don't", "o'hare's", "n73", "2009", "relational", "rates",
            "rating",
        ];
        const FILLER: [&str; 8] = ["filler", "the", "of", "x", "daily", "near", "city", "a"];
        let mut state = 0x9E37_79B9u64;
        let mut next = move |n: usize| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as usize % n
        };
        let bodies: Vec<String> = (0..210)
            .map(|i| {
                let words: Vec<&str> = (0..20 + next(120))
                    .map(|_| if next(3) == 0 { TOPICS[next(TOPICS.len())] } else { FILLER[next(FILLER.len())] })
                    .collect();
                let body = words.join([" ", ", ", " - ", ". "][next(4)]);
                match i % 7 {
                    3 => format!("Köln café {body}"),
                    5 => body.to_uppercase(),
                    _ => body,
                }
            })
            .collect();
        let queries: Vec<Vec<String>> = (0..24)
            .map(|i| match i {
                0 => vec![],
                1 => q(&["zzz"]),
                _ => (0..1 + next(3)).map(|_| porter_stem(TOPICS[next(TOPICS.len())])).collect(),
            })
            .collect();
        let mut scratch = SnippetScratch::default();
        let (mut ascii, mut general) = (0, 0);
        for q_tokens in &queries {
            let mut snippets = scratch.for_query(q_tokens);
            for body in &bodies {
                for window in [5, 24] {
                    let got = snippets.extract(body, window);
                    assert_eq!(got, extract_snippet(body, q_tokens, window), "{q_tokens:?} {body:?}");
                    if body.bytes().all(|b| b.is_ascii() && !b.is_ascii_uppercase()) {
                        assert_eq!(got, reference_ascii(body, q_tokens, window), "{q_tokens:?} {body:?}");
                        ascii += 1;
                    } else {
                        general += 1;
                    }
                }
            }
        }
        assert!(ascii > 5_000 && general > 2_000, "{ascii} ascii, {general} general");
    }
}
