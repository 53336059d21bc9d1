//! Query-biased snippet extraction.
//!
//! The personalization layer mines concepts from *snippets*, exactly as the
//! paper does, so snippet quality directly shapes what concepts exist.
//! We use the classic best-window heuristic: slide a fixed-size window over
//! the body tokens and pick the window covering the most *distinct* query
//! terms (ties: more total query-term occurrences, then earliest).
//!
//! A snippet is cut on the latency path of every materialized hit, and
//! everything it depends on but the query is a property of the document.
//! So the serving path (`SnippetScratch::cut`) tokenises and stems
//! nothing: it reads the body's token sequence as form ids from the
//! segment's form stream (written at build, see [`crate::segment`]), marks
//! the tokens whose form's stem is a query term by comparing ids of the
//! index's term table ([`crate::terms`]), and joins the window's forms
//! with `' '`. [`extract_snippet`] is the same rule over a
//! body string — the string entry point, and the oracle every stream cut
//! equals byte for byte.

use crate::segment::Segment;
use crate::terms::TermTable;
use pws_text::{tokenize, with_words, Sym};
use std::ops::Range;

/// Window length of a served snippet, in tokens.
pub(crate) const SNIPPET_WINDOW: usize = 24;

/// Reusable state of snippet cutting; lives in the pooled
/// [`crate::scratch::SearchScratch`].
#[derive(Debug, Default)]
pub(crate) struct SnippetScratch {
    /// Form ids of the body in hand.
    forms: Vec<u32>,
    /// The tokens of the body in hand that match a query token, as
    /// `(position, query token index)`, by position.
    matches: Vec<(u32, u32)>,
    /// The cut window of the body in hand, into `forms`.
    window: Range<usize>,
    /// By term id: 1 + the index of the first query term with that id, or 0.
    query_of: Vec<u32>,
}

impl SnippetScratch {
    /// Mark `query` (an analysed query, as ids of `terms`) for every cut
    /// until the next call: a form matches the first query term that is
    /// its stem.
    pub(crate) fn for_query(&mut self, terms: &TermTable, query: &[Sym]) {
        self.query_of.clear();
        self.query_of.resize(terms.interner().len(), 0);
        for (q, id) in query.iter().enumerate().rev() {
            self.query_of[id.index()] = q as u32 + 1;
        }
    }

    /// Cut the snippet of document `local` of `seg`, whose forms' stems
    /// are `stems`, for the query of the last [`SnippetScratch::for_query`]
    /// call: the best window of `window` tokens. Equals [`extract_snippet`]
    /// of the document's body; the window's form ids are
    /// [`SnippetScratch::window_forms`] until the next cut.
    pub(crate) fn cut(&mut self, seg: &Segment, stems: &[Sym], local: u32, window: usize) -> String {
        let SnippetScratch { forms, matches, query_of, .. } = self;
        seg.doc_forms(local, forms);
        if forms.is_empty() {
            self.window = 0..0;
            return String::new();
        }
        let window = window.max(1).min(forms.len());
        matches.clear();
        for (pos, &form) in forms.iter().enumerate() {
            let q = query_of[stems[form as usize].index()];
            if q != 0 {
                matches.push((pos as u32, q - 1));
            }
        }
        let start = best_window(matches, window);
        self.window = start..start + window;
        let text = seg.forms();
        let ids = &self.forms[self.window.clone()];
        let mut out = String::with_capacity(ids.iter().map(|&f| text[f as usize].len() + 1).sum());
        for (j, &f) in ids.iter().enumerate() {
            if j > 0 {
                out.push(' ');
            }
            out.push_str(&text[f as usize]);
        }
        out
    }

    /// The form ids of the last cut's window.
    pub(crate) fn window_forms(&self) -> &[u32] {
        &self.forms[self.window.clone()]
    }
}

/// Extract a snippet of (about) `window` tokens from `body`, biased towards
/// the analyzed query tokens `q_tokens` (already stemmed/lowercased).
///
/// Falls back to the leading `window` tokens when no query term occurs.
pub fn extract_snippet(body: &str, q_tokens: &[String], window: usize) -> String {
    let tokens = tokenize(body);
    if tokens.is_empty() {
        return String::new();
    }
    let window = window.max(1).min(tokens.len());
    // Match on stemmed forms so the snippet window aligns with BM25's
    // view of the document.
    let matches: Vec<(u32, u32)> = with_words(|words| {
        (0..tokens.len() as u32)
            .filter_map(|pos| {
                let (stem, _) = words.analyse(&tokens[pos as usize]);
                q_tokens.iter().position(|q| q == stem).map(|q| (pos, q as u32))
            })
            .collect()
    });
    let start = best_window(&matches, window);
    tokens[start..start + window].join(" ")
}

/// The start of the best window of `window` tokens, given the tokens
/// that match a query token as `(position, query token index)`, by
/// position: most distinct query tokens, then most matches, then earliest
/// — windows visited in order, replaced only by a strictly better one. A
/// window can beat the one before it only when the token entering it
/// matches, so only those windows are scored, with per-term counts and
/// `distinct`/`total` maintained as matches enter and leave: the work is
/// in the matches, not in the body. `window` must be at least 1 and at
/// most the body's token count.
fn best_window(matches: &[(u32, u32)], window: usize) -> usize {
    let Some(nq) = matches.iter().map(|&(_, q)| q as usize + 1).max() else { return 0 };
    let mut counts = vec![0u32; nq];
    let (mut distinct, mut total) = (0usize, 0usize);
    let first_window = matches.partition_point(|&(pos, _)| (pos as usize) < window);
    for &(_, q) in &matches[..first_window] {
        distinct += usize::from(counts[q as usize] == 0);
        counts[q as usize] += 1;
        total += 1;
    }
    let (mut best_start, mut best) = (0, (distinct, total));
    let mut leaving = 0;
    for &(pos, q) in &matches[first_window..] {
        let start = pos as usize + 1 - window;
        // Every match before `start` leaves; the entering one is at or
        // after it, so this stops short of it.
        while (matches[leaving].0 as usize) < start {
            let out = matches[leaving].1 as usize;
            counts[out] -= 1;
            distinct -= usize::from(counts[out] == 0);
            total -= 1;
            leaving += 1;
        }
        distinct += usize::from(counts[q as usize] == 0);
        counts[q as usize] += 1;
        total += 1;
        if (distinct, total) > best {
            best = (distinct, total);
            best_start = start;
        }
    }
    best_start
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::SegmentBuilder;
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

    /// Windows scored from the matches alone pick the window the plain
    /// quadratic rescan picks — every window, most distinct query tokens,
    /// then most matches, first on ties — on random match patterns.
    #[test]
    fn best_window_equals_the_quadratic_rescan() {
        let mut state = 0x2545_F491u64;
        let mut next = move |n: usize| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as usize % n
        };
        for _ in 0..3_000 {
            let len = 1 + next(90);
            let (nq, density) = (1 + next(4), 1 + next(60));
            let tokens: Vec<Option<usize>> =
                (0..len).map(|_| (next(100) < density).then(|| next(nq))).collect();
            let matches: Vec<(u32, u32)> = tokens
                .iter()
                .enumerate()
                .filter_map(|(p, t)| t.map(|q| (p as u32, q as u32)))
                .collect();
            for window in [1, 2, 5, 24, len] {
                let window = window.min(len);
                let score = |s: usize| {
                    let w: Vec<usize> = tokens[s..s + window].iter().flatten().copied().collect();
                    let mut distinct = w.clone();
                    distinct.sort_unstable();
                    distinct.dedup();
                    (distinct.len(), w.len())
                };
                let rescan = (1..=len - window).fold(0, |best, s| if score(s) > score(best) { s } else { best });
                assert_eq!(best_window(&matches, window), rescan, "{tokens:?} window {window}");
            }
        }
    }

    /// Every body of a segment cut from its form stream, per query and per
    /// window, gives [`extract_snippet`]'s bytes and a window whose forms
    /// joined are the snippet. Bodies share inflected topic words; every
    /// seventh is not lowercase ASCII (upper case, `Köln`, `İstanbul`,
    /// whose lowercase is not one token), and some carry forms of 41 and
    /// 61 bytes. Queries include stems of stopwords and a stem no form has.
    #[test]
    fn stream_cut_equals_extract_snippet_on_generated_bodies() {
        const TOPICS: [&str; 26] = [
            "restaurant", "restaurants", "booking", "bookings", "booked", "hotel", "hotels",
            "seafood", "lobster", "lobsters", "running", "runs", "runner", "menu", "menus",
            "harbor", "harbors", "don't", "o'hare's", "n73", "2009", "relational", "rates",
            "rating", "does", "the",
        ];
        const FILLER: [&str; 8] = ["filler", "the", "of", "x", "daily", "near", "city", "a"];
        let mut state = 0x9E37_79B9u64;
        let mut next = move |n: usize| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as usize % n
        };
        let long = format!("{} {}", "l".repeat(41), "m".repeat(61));
        let mut bodies: Vec<String> = (0..210)
            .map(|i| {
                let words: Vec<&str> = (0..next(120))
                    .map(|_| if next(3) == 0 { TOPICS[next(TOPICS.len())] } else { FILLER[next(FILLER.len())] })
                    .collect();
                let body = words.join([" ", ", ", " - ", ". ", "' '"][next(5)]);
                match i % 7 {
                    3 => format!("Köln café İstanbul {body}"),
                    5 => body.to_uppercase(),
                    6 => format!("{body} {long} seafood"),
                    _ => body,
                }
            })
            .collect();
        bodies.extend(["", "  !!! ''", "İ", "seafood"].map(String::from));
        let mut b = SegmentBuilder::new(Default::default());
        for (i, body) in bodies.iter().enumerate() {
            b.add(&format!("u{i}"), "t", body);
        }
        let index = crate::SegmentedIndex::from_segments(vec![b.finish_segment().expect("round trip")])
            .expect("one segment");
        let seg = &index.segments()[0];
        let mut queries: Vec<Vec<String>> = (0..24)
            .map(|_| (0..1 + next(3)).map(|_| porter_stem(TOPICS[next(TOPICS.len())])).collect())
            .collect();
        queries.extend([vec![], q(&["zzz"]), q(&["does", "the", "seafood", "seafood"])]);
        let mut scratch = SnippetScratch::default();
        for q_tokens in &queries {
            scratch.for_query(index.terms(), &index.terms().ids(q_tokens));
            for (local, body) in bodies.iter().enumerate() {
                for window in [1, 5, 24] {
                    let got = scratch.cut(seg, index.terms().form_stems(0), local as u32, window);
                    assert_eq!(got, extract_snippet(body, q_tokens, window), "{q_tokens:?} {body:?}");
                    let joined: Vec<&str> =
                        scratch.window_forms().iter().map(|&f| seg.forms()[f as usize].as_str()).collect();
                    assert_eq!(joined.join(" "), got);
                }
            }
        }
    }
}
