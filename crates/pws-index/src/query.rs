//! Structured queries: phrases and boolean operators.
//!
//! The bag-of-words [`SegmentedIndex::search`] covers the
//! personalization pipeline; this module adds the query forms a real
//! engine's power users expect — and that location names need
//! (`"port alden"` as a phrase avoids matching the unrelated "port of
//! lakemoor alden street"):
//!
//! * `"lobster roll"` — phrase: terms must be adjacent, in order. The
//!   index stores no positions; a candidate (a doc containing every
//!   member term) is verified by re-analyzing its stored
//!   `title + " " + body`, the exact token stream that was indexed;
//! * `a AND b` — both required; `a OR b` — either; `NOT a` — excluded;
//! * parentheses group; `AND` binds tighter than `OR`; bare juxtaposition
//!   (`seafood lobster`) means `OR` (bag-of-words, like `search`).
//!
//! Scoring: a document's score is the sum of BM25 contributions of every
//! positive term/phrase it matches (phrases score each member term).
//! `NOT` arms contribute filtering only.

use crate::exec::rank_order;
use crate::search::SearchHit;
use crate::segmented::SegmentedIndex;
use crate::snippet::SnippetScratch;
use std::collections::HashMap;

/// Parsed query expression.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryExpr {
    /// One analyzed term.
    Term(String),
    /// Adjacent-terms phrase (analyzed).
    Phrase(Vec<String>),
    /// All children must match.
    And(Vec<QueryExpr>),
    /// At least one child must match.
    Or(Vec<QueryExpr>),
    /// Child must not match (only meaningful inside `And`).
    Not(Box<QueryExpr>),
}

/// Parse error with a human-readable reason.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError(pub String);

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "query parse error: {}", self.0)
    }
}

impl std::error::Error for ParseError {}

/// Lexer token.
#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Word(String),
    Quoted(String),
    And,
    Or,
    Not,
    LParen,
    RParen,
}

fn lex(input: &str) -> Result<Vec<Tok>, ParseError> {
    let mut toks = Vec::new();
    let mut chars = input.chars().peekable();
    while let Some(&c) = chars.peek() {
        match c {
            '(' => {
                chars.next();
                toks.push(Tok::LParen);
            }
            ')' => {
                chars.next();
                toks.push(Tok::RParen);
            }
            '"' => {
                chars.next();
                let mut s = String::new();
                loop {
                    match chars.next() {
                        Some('"') => break,
                        Some(ch) => s.push(ch),
                        None => return Err(ParseError("unterminated quote".into())),
                    }
                }
                toks.push(Tok::Quoted(s));
            }
            c if c.is_whitespace() => {
                chars.next();
            }
            _ => {
                let mut w = String::new();
                while let Some(&ch) = chars.peek() {
                    if ch.is_whitespace() || ch == '(' || ch == ')' || ch == '"' {
                        break;
                    }
                    w.push(ch);
                    chars.next();
                }
                match w.as_str() {
                    "AND" => toks.push(Tok::And),
                    "OR" => toks.push(Tok::Or),
                    "NOT" => toks.push(Tok::Not),
                    _ => toks.push(Tok::Word(w)),
                }
            }
        }
    }
    Ok(toks)
}

/// Recursive-descent parser.
///
/// Grammar: `or := and (OR and)*`; `and := unary ((AND)? unary)*` — but a
/// *bare* juxtaposition is OR (bag-of-words), so: `and := unary (AND unary)*`
/// and juxtaposition is handled at the `or` level.
struct Parser<'a> {
    toks: &'a [Tok],
    pos: usize,
    analyze: &'a dyn Fn(&str) -> Vec<String>,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos)
    }

    fn next(&mut self) -> Option<&Tok> {
        let t = self.toks.get(self.pos);
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn parse_or(&mut self) -> Result<QueryExpr, ParseError> {
        let mut arms = vec![self.parse_and()?];
        loop {
            match self.peek() {
                Some(Tok::Or) => {
                    self.next();
                    arms.push(self.parse_and()?);
                }
                // Bare juxtaposition = OR.
                Some(Tok::Word(_)) | Some(Tok::Quoted(_)) | Some(Tok::LParen) | Some(Tok::Not) => {
                    arms.push(self.parse_and()?);
                }
                _ => break,
            }
        }
        Ok(if arms.len() == 1 { arms.pop().expect("one arm") } else { QueryExpr::Or(arms) })
    }

    fn parse_and(&mut self) -> Result<QueryExpr, ParseError> {
        let mut arms = vec![self.parse_unary()?];
        while matches!(self.peek(), Some(Tok::And)) {
            self.next();
            arms.push(self.parse_unary()?);
        }
        Ok(if arms.len() == 1 { arms.pop().expect("one arm") } else { QueryExpr::And(arms) })
    }

    fn parse_unary(&mut self) -> Result<QueryExpr, ParseError> {
        match self.next().cloned() {
            Some(Tok::Not) => Ok(QueryExpr::Not(Box::new(self.parse_unary()?))),
            Some(Tok::LParen) => {
                let inner = self.parse_or()?;
                match self.next() {
                    Some(Tok::RParen) => Ok(inner),
                    _ => Err(ParseError("expected ')'".into())),
                }
            }
            Some(Tok::Word(w)) => {
                let terms = (self.analyze)(&w);
                match terms.len() {
                    0 => Err(ParseError(format!("term {w:?} analyzes to nothing"))),
                    1 => Ok(QueryExpr::Term(terms.into_iter().next().expect("one"))),
                    _ => Ok(QueryExpr::Phrase(terms)),
                }
            }
            Some(Tok::Quoted(s)) => {
                let terms = (self.analyze)(&s);
                match terms.len() {
                    0 => Err(ParseError(format!("phrase {s:?} analyzes to nothing"))),
                    1 => Ok(QueryExpr::Term(terms.into_iter().next().expect("one"))),
                    _ => Ok(QueryExpr::Phrase(terms)),
                }
            }
            Some(Tok::And) | Some(Tok::Or) => Err(ParseError("operator needs operands".into())),
            Some(Tok::RParen) => Err(ParseError("unexpected ')'".into())),
            None => Err(ParseError("empty (sub)query".into())),
        }
    }
}

/// Parse `input` with the engine's analyzer applied to terms and phrases.
pub fn parse_query(
    input: &str,
    analyze: impl Fn(&str) -> Vec<String>,
) -> Result<QueryExpr, ParseError> {
    let toks = lex(input)?;
    if toks.is_empty() {
        return Err(ParseError("empty query".into()));
    }
    let mut p = Parser { toks: &toks, pos: 0, analyze: &analyze };
    let expr = p.parse_or()?;
    if p.pos != toks.len() {
        return Err(ParseError("trailing tokens".into()));
    }
    Ok(expr)
}

/// Matching documents of an expression: doc → positive BM25 mass.
pub(crate) type DocScores = HashMap<u32, f64>;

impl SegmentedIndex {
    /// Evaluate a structured query and return the top `k` hits.
    ///
    /// Returns `Err` on malformed query strings.
    ///
    /// Records the `index.search` stage, like [`SegmentedIndex::search`],
    /// so both entry points report consistently.
    pub fn search_expr(&self, query: &str, k: usize) -> Result<Vec<SearchHit>, ParseError> {
        let _span = self.metrics_search().span();
        let expr = parse_query(query, |s| self.analyze_text(s))?;
        let mut cands: Vec<(u32, f64)> = self.eval_expr(&expr).into_iter().collect();
        cands.sort_unstable_by(rank_order);
        cands.truncate(k);
        // Use the raw (pre-structure) analyzed terms for snippets.
        let q_ids = self.terms().analyze(query);
        Ok(self.materialize(
            cands.into_iter().enumerate(),
            &q_ids,
            &mut SnippetScratch::default(),
            |h, _, _| h,
        ))
    }

    /// Recursively evaluate an expression to scored matching docs.
    pub(crate) fn eval_expr(&self, expr: &QueryExpr) -> DocScores {
        match expr {
            QueryExpr::Term(t) => {
                self.terms().get(t).map(|id| self.term_docs(id)).unwrap_or_default().into_iter().collect()
            }
            QueryExpr::Phrase(terms) => self.phrase_docs(terms).into_iter().collect(),
            QueryExpr::Or(arms) => {
                let mut acc = DocScores::new();
                for arm in arms {
                    for (d, s) in self.eval_expr(arm) {
                        *acc.entry(d).or_insert(0.0) += s;
                    }
                }
                acc
            }
            QueryExpr::And(arms) => {
                // Positive arms intersect; Not arms subtract.
                let mut pos: Option<DocScores> = None;
                let mut negs: Vec<DocScores> = Vec::new();
                for arm in arms {
                    match arm {
                        QueryExpr::Not(inner) => negs.push(self.eval_expr(inner)),
                        _ => {
                            let m = self.eval_expr(arm);
                            pos = Some(match pos {
                                None => m,
                                Some(prev) => {
                                    let mut out = DocScores::new();
                                    for (d, s) in prev {
                                        if let Some(s2) = m.get(&d) {
                                            out.insert(d, s + s2);
                                        }
                                    }
                                    out
                                }
                            });
                        }
                    }
                }
                let mut out = pos.unwrap_or_default();
                for neg in negs {
                    out.retain(|d, _| !neg.contains_key(d));
                }
                out
            }
            // A bare NOT matches nothing on its own (we refuse to
            // materialize "every other document").
            QueryExpr::Not(_) => DocScores::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::IndexBuilder;
    use crate::search::{SearchEngine, StoredDoc};

    fn engine() -> SearchEngine {
        let mut b = IndexBuilder::new();
        b.add(StoredDoc::new(0, "u0", "Crab shack", "fresh lobster roll and seafood daily"));
        b.add(StoredDoc::new(1, "u1", "Roll call", "drum roll and lobster bisque tonight"));
        b.add(StoredDoc::new(2, "u2", "Phones", "android battery and screen repair"));
        b.add(StoredDoc::new(3, "u3", "Mixed", "seafood platter with android app ordering"));
        b.build()
    }

    #[test]
    fn parses_terms_and_operators() {
        let e = parse_query("a AND bb OR cc", |s| vec![s.to_string()]).unwrap();
        assert_eq!(
            e,
            QueryExpr::Or(vec![
                QueryExpr::And(vec![QueryExpr::Term("a".into()), QueryExpr::Term("bb".into())]),
                QueryExpr::Term("cc".into()),
            ])
        );
    }

    #[test]
    fn juxtaposition_is_or() {
        let e = parse_query("aa bb", |s| vec![s.to_string()]).unwrap();
        assert_eq!(e, QueryExpr::Or(vec![QueryExpr::Term("aa".into()), QueryExpr::Term("bb".into())]));
    }

    #[test]
    fn quoted_phrase_parses() {
        let e = parse_query("\"lobster roll\"", |s| {
            s.split(' ').map(|x| x.to_string()).collect()
        })
        .unwrap();
        assert_eq!(e, QueryExpr::Phrase(vec!["lobster".into(), "roll".into()]));
    }

    #[test]
    fn parse_errors() {
        let id = |s: &str| vec![s.to_string()];
        assert!(parse_query("", id).is_err());
        assert!(parse_query("\"unterminated", id).is_err());
        assert!(parse_query("(a", id).is_err());
        assert!(parse_query("a )", id).is_err());
        assert!(parse_query("AND", id).is_err());
    }

    #[test]
    fn phrase_requires_adjacency_in_order() {
        let e = engine();
        // "lobster roll" is adjacent in doc 0 only; doc 1 has "roll … lobster".
        let hits = e.search_expr("\"lobster roll\"", 10).unwrap();
        let docs: Vec<u32> = hits.iter().map(|h| h.doc).collect();
        assert_eq!(docs, vec![0]);
    }

    #[test]
    fn and_intersects() {
        let e = engine();
        let hits = e.search_expr("seafood AND android", 10).unwrap();
        let docs: Vec<u32> = hits.iter().map(|h| h.doc).collect();
        assert_eq!(docs, vec![3]);
    }

    #[test]
    fn or_unions() {
        let e = engine();
        let hits = e.search_expr("lobster OR android", 10).unwrap();
        let docs: Vec<u32> = hits.iter().map(|h| h.doc).collect();
        assert_eq!(docs.len(), 4);
    }

    #[test]
    fn not_excludes() {
        let e = engine();
        let hits = e.search_expr("seafood AND NOT android", 10).unwrap();
        let docs: Vec<u32> = hits.iter().map(|h| h.doc).collect();
        assert_eq!(docs, vec![0]);
    }

    #[test]
    fn bare_not_matches_nothing() {
        let e = engine();
        assert!(e.search_expr("NOT seafood", 10).unwrap().is_empty());
    }

    #[test]
    fn parens_group() {
        let e = engine();
        let hits = e.search_expr("(lobster OR android) AND seafood", 10).unwrap();
        let mut docs: Vec<u32> = hits.iter().map(|h| h.doc).collect();
        docs.sort_unstable();
        assert_eq!(docs, vec![0, 3]);
    }

    #[test]
    fn bag_of_words_expr_matches_plain_search_docs() {
        let e = engine();
        let expr_hits = e.search_expr("seafood lobster", 10).unwrap();
        let plain_hits = e.search("seafood lobster", 10);
        let a: std::collections::HashSet<u32> = expr_hits.iter().map(|h| h.doc).collect();
        let b: std::collections::HashSet<u32> = plain_hits.iter().map(|h| h.doc).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn multiword_bare_token_with_stemming() {
        // A bare word that analyzes to one token goes through Term.
        let e = engine();
        let hits = e.search_expr("rolls", 10).unwrap();
        assert!(!hits.is_empty(), "stemmed 'rolls' should match 'roll'");
    }
}
