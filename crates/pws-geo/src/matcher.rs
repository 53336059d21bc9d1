//! Longest-match recognition of place names in text.
//!
//! Location-concept extraction scans each result snippet for ontology names.
//! Multi-word names ("port alden") must win over their single-word suffixes
//! when both exist, so the matcher is a token-level trie traversed greedily:
//! at each position we take the *longest* name starting there, then resume
//! after it.
//!
//! The trie is over token ids: every token of every name is interned once
//! (a fixed-key hash, see [`Interner`]), a text token is looked up by `&str`
//! as it is tokenised — a token no name contains ends the walk at once —
//! and each node keeps its children sorted by id.

use crate::ontology::{LocId, LocationOntology};
use pws_text::{Analyzer, Interner, Sym};

/// One recognized place name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LocationMatch {
    /// The matched ontology node.
    pub loc: LocId,
    /// Token index where the match starts.
    pub start: usize,
    /// Number of tokens the match spans.
    pub len: usize,
}

#[derive(Debug, Default)]
struct TrieNode {
    /// `(token, child node)`, ascending by token.
    children: Vec<(Sym, u32)>,
    /// Node whose (canonical or alias) name ends here.
    terminal: Option<LocId>,
}

/// Token-trie matcher over an ontology's names and aliases.
///
/// Matching is case-insensitive because both the trie and the input go
/// through the same verbatim analyzer.
#[derive(Debug)]
pub struct LocationMatcher {
    /// Every token of every name.
    words: Interner,
    /// The trie; `nodes[0]` is the root.
    nodes: Vec<TrieNode>,
    analyzer: Analyzer,
}

impl LocationMatcher {
    /// Build a matcher from every name and alias in `onto` (the root
    /// "world" node is excluded — it is not a real place name).
    pub fn build(onto: &LocationOntology) -> Self {
        let mut m = LocationMatcher {
            words: Interner::new(),
            nodes: vec![TrieNode::default()],
            analyzer: Analyzer::verbatim(),
        };
        for id in onto.ids() {
            if id == LocId::WORLD {
                continue;
            }
            let node = onto.node(id);
            m.insert(&node.name, id);
            for alias in &node.aliases {
                m.insert(alias, id);
            }
        }
        m
    }

    fn insert(&mut self, name: &str, id: LocId) {
        let toks = self.analyzer.analyze(name);
        if toks.is_empty() {
            return;
        }
        let mut cur = 0;
        for t in toks {
            let word = self.words.intern(&t);
            let children = &self.nodes[cur].children;
            cur = match children.binary_search_by_key(&word, |&(w, _)| w) {
                Ok(i) => children[i].1 as usize,
                Err(i) => {
                    let child = self.nodes.len();
                    self.nodes[cur].children.insert(i, (word, child as u32));
                    self.nodes.push(TrieNode::default());
                    child
                }
            };
        }
        // If two places share a surface form, the first inserted wins; the
        // generator guarantees uniqueness, and hand-built ontologies get
        // deterministic first-wins semantics.
        self.nodes[cur].terminal.get_or_insert(id);
    }

    /// The trie child of `node` along `word`.
    fn child(&self, node: usize, word: Sym) -> Option<usize> {
        let children = &self.nodes[node].children;
        let i = children.binary_search_by_key(&word, |&(w, _)| w).ok()?;
        Some(children[i].1 as usize)
    }

    /// Greedy longest match over a token stream given as name-token ids
    /// (`None`: a token no name contains), calling `f` per match.
    fn scan(&self, words: &[Option<Sym>], mut f: impl FnMut(LocationMatch)) {
        let mut i = 0;
        while i < words.len() {
            let mut cur = 0;
            let mut best: Option<(LocId, usize)> = None;
            for (j, word) in words[i..].iter().enumerate() {
                match word.and_then(|w| self.child(cur, w)) {
                    Some(next) => {
                        cur = next;
                        if let Some(id) = self.nodes[cur].terminal {
                            best = Some((id, j + 1));
                        }
                    }
                    None => break,
                }
            }
            if let Some((loc, len)) = best {
                f(LocationMatch { loc, start: i, len });
                i += len;
            } else {
                i += 1;
            }
        }
    }

    /// Tokenise `text` with the verbatim analyser and look each token up
    /// among the name tokens (`None`: no name contains it) — no `String`
    /// per token. The words of a text are its tokens' words in order, so
    /// the words of texts joined by `' '` are theirs concatenated: what
    /// [`LocationMatcher::locations_in_words`] takes.
    pub fn words_in(&self, text: &str) -> Vec<Option<Sym>> {
        let mut words = Vec::new();
        self.analyzer.for_each_token(text, |t| words.push(self.words.get(t)));
        words
    }

    /// Match over an already-tokenized (verbatim-analyzed) token stream.
    pub fn match_tokens(&self, tokens: &[String]) -> Vec<LocationMatch> {
        let words: Vec<Option<Sym>> = tokens.iter().map(|t| self.words.get(t)).collect();
        let mut out = Vec::new();
        self.scan(&words, |m| out.push(m));
        out
    }

    /// Tokenize `text` and match.
    pub fn match_text(&self, text: &str) -> Vec<LocationMatch> {
        let mut out = Vec::new();
        self.scan(&self.words_in(text), |m| out.push(m));
        out
    }

    /// Just the matched ids, deduplicated, order of first appearance. A
    /// snippet names a handful of places at most, so the dedup is a scan.
    pub fn locations_in(&self, text: &str) -> Vec<LocId> {
        self.locations_in_words(&self.words_in(text))
    }

    /// [`LocationMatcher::locations_in`] over a token stream already
    /// mapped to name-token ids (see [`LocationMatcher::words_in`]).
    pub fn locations_in_words(&self, words: &[Option<Sym>]) -> Vec<LocId> {
        let mut out = Vec::new();
        self.scan(words, |m| {
            if !out.contains(&m.loc) {
                out.push(m.loc);
            }
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ontology::LocationOntology;

    fn fixture() -> (LocationOntology, LocId, LocId, LocId, LocId) {
        let mut o = LocationOntology::new();
        let r = o.add(LocId::WORLD, "westland", vec![]);
        let c = o.add(r, "ardonia", vec!["ardonia republic".into()]);
        let s = o.add(c, "north vale", vec![]);
        let city = o.add(s, "port alden", vec!["alden harbor".into()]);
        (o, r, c, s, city)
    }

    #[test]
    fn single_word_match() {
        let (o, r, ..) = fixture();
        let m = LocationMatcher::build(&o);
        let hits = m.match_text("travel guide to Westland today");
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].loc, r);
    }

    #[test]
    fn multiword_match_spans_tokens() {
        let (o, _, _, _, city) = fixture();
        let m = LocationMatcher::build(&o);
        let hits = m.match_text("hotels in Port Alden tonight");
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].loc, city);
        assert_eq!(hits[0].len, 2);
    }

    #[test]
    fn longest_match_wins_over_prefix() {
        let mut o = LocationOntology::new();
        let r = o.add(LocId::WORLD, "vale", vec![]);
        let c = o.add(r, "vale norte", vec![]);
        let m = LocationMatcher::build(&o);
        // "vale norte" should match as the 2-token country, not the region.
        let hits = m.match_text("visiting vale norte soon");
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].loc, c);
        // Bare "vale" still matches the region.
        let hits = m.match_text("the vale is lovely");
        assert_eq!(hits[0].loc, r);
    }

    #[test]
    fn aliases_match_same_node() {
        let (o, _, c, _, city) = fixture();
        let m = LocationMatcher::build(&o);
        assert_eq!(m.locations_in("the ardonia republic announced"), vec![c]);
        assert_eq!(m.locations_in("ferry to alden harbor"), vec![city]);
    }

    #[test]
    fn case_insensitive() {
        let (o, _, _, _, city) = fixture();
        let m = LocationMatcher::build(&o);
        assert_eq!(m.locations_in("PORT ALDEN"), vec![city]);
    }

    #[test]
    fn multiple_and_deduped_matches() {
        let (o, r, c, ..) = fixture();
        let m = LocationMatcher::build(&o);
        let locs = m.locations_in("westland news: ardonia and westland trade");
        assert_eq!(locs, vec![r, c]);
    }

    #[test]
    fn no_match_in_plain_text() {
        let (o, ..) = fixture();
        let m = LocationMatcher::build(&o);
        assert!(m.match_text("nothing geographic here at all").is_empty());
        assert!(m.match_text("").is_empty());
    }

    #[test]
    fn partial_multiword_does_not_match() {
        let (o, _, _, s, _) = fixture();
        let m = LocationMatcher::build(&o);
        // "north" alone is only a prefix of "north vale" — no match.
        assert!(m.match_text("heading north tomorrow").is_empty());
        assert_eq!(m.locations_in("the north vale council"), vec![s]);
    }

    #[test]
    fn matches_do_not_overlap() {
        let (o, ..) = fixture();
        let m = LocationMatcher::build(&o);
        let hits = m.match_text("port alden port alden");
        assert_eq!(hits.len(), 2);
        assert_eq!(hits[0].start, 0);
        assert_eq!(hits[1].start, 2);
    }

    #[test]
    fn generated_world_all_cities_match_their_own_name() {
        let w = crate::gen::WorldGen::new(5).generate(&crate::gen::WorldSpec::small());
        let m = LocationMatcher::build(&w);
        for city in w.cities() {
            let text = format!("best food in {} downtown", w.name(city));
            let locs = m.locations_in(&text);
            assert!(
                locs.contains(&city),
                "city {} not matched in its own text",
                w.name(city)
            );
        }
    }
}
