//! Concept relationship graph.
//!
//! Concepts extracted for a query are related through their *snippet
//! incidence*: two concepts appearing in many of the same snippets are
//! similar. Similarity is the cosine over snippet-incidence vectors,
//!
//! ```text
//! sim(a, b) = |S_a ∩ S_b| / sqrt(|S_a| · |S_b|)
//! ```
//!
//! with `S_c` the set of snippets containing `c`. The graph also types
//! edges: when one concept's snippet set (nearly) contains another's, the
//! broader concept is a *parent* (e.g. "seafood" ⊃ "lobster roll").
//!
//! The user profile spreads a click's preference mass to concepts related
//! to the clicked ones (the paper's expansion step; GCS ablation in F7).
//! No search builds this graph: a [`crate::QueryConceptOntology`] keeps its
//! concepts' incidence rows, and a click reads the neighbours of the
//! concepts it touched straight off them
//! ([`crate::QueryConceptOntology::spread`], the graph's row for one
//! concept). The whole graph is derived on demand
//! ([`crate::QueryConceptOntology::graph`]) for callers that ask for it
//! (the differential tests).

use serde::{Deserialize, Serialize};

/// Minimum snippet-incidence cosine for two concepts to be related.
pub(crate) const SIM_THRESHOLD: f64 = 0.4;

/// Minimum `|S_a ∩ S_b| / |S_b|` for concept `a` to count as a parent of
/// concept `b`.
pub(crate) const CONTAINMENT_THRESHOLD: f64 = 0.8;

/// Edge type between two concepts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ConceptRelation {
    /// Symmetric: high snippet-incidence cosine.
    Similar,
    /// `a` is broader than `b` (S_b mostly ⊆ S_a).
    ParentOf,
    /// `a` is narrower than `b`.
    ChildOf,
}

/// One typed, weighted edge (indices into the concept list).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ConceptEdge {
    /// Source concept index.
    pub a: usize,
    /// Target concept index.
    pub b: usize,
    /// Cosine similarity in [0, 1].
    pub weight: f64,
    /// Relation as seen from `a`.
    pub relation: ConceptRelation,
}

/// Similarity graph over one query's content concepts.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ConceptGraph {
    /// Number of concepts (nodes).
    pub(crate) num_concepts: usize,
    /// All edges with weight ≥ the build threshold, `a < b` normalized for
    /// `Similar`, directed for parent/child.
    pub(crate) edges: Vec<ConceptEdge>,
}

/// Snippet-incidence bitsets: row `i`, bit `s` is set iff item `i` (a
/// concept, or a candidate while counting) occurs in snippet `s`. Rows
/// are `ceil(snippets / 64)` `u64`s wide, stored back to back.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) struct Incidence {
    words: usize,
    rows: usize,
    bits: Vec<u64>,
}

impl Incidence {
    /// An empty table with rows wide enough for `snippets` snippets.
    #[cfg(test)]
    pub(crate) fn new(snippets: usize) -> Self {
        Incidence { words: snippets.div_ceil(64), ..Self::default() }
    }

    /// Drop every row and make rows wide enough for `snippets` snippets,
    /// keeping the allocation.
    pub(crate) fn reset(&mut self, snippets: usize) {
        self.words = snippets.div_ceil(64);
        self.rows = 0;
        self.bits.clear();
    }

    /// Append an all-zero row; returns its index.
    pub(crate) fn push_empty_row(&mut self) -> usize {
        self.bits.resize(self.bits.len() + self.words, 0);
        self.rows += 1;
        self.rows - 1
    }

    /// Append a copy of `row` (a row of a table over the same snippets).
    pub(crate) fn push_row(&mut self, row: &[u64]) {
        debug_assert_eq!(row.len(), self.words);
        self.bits.extend_from_slice(row);
        self.rows += 1;
    }

    /// Mark row `i` as occurring in `snippet`.
    pub(crate) fn set(&mut self, i: usize, snippet: usize) {
        self.bits[i * self.words + snippet / 64] |= 1 << (snippet % 64);
    }

    /// Words allocated (for the scratch no-growth test).
    #[cfg(test)]
    pub(crate) fn capacity(&self) -> usize {
        self.bits.capacity()
    }

    /// Number of rows.
    pub(crate) fn len(&self) -> usize {
        self.rows
    }

    /// In how many snippets row `i` occurs.
    pub(crate) fn count(&self, i: usize) -> u32 {
        self.row(i).iter().map(|w| w.count_ones()).sum()
    }

    /// Row `i`.
    pub(crate) fn row(&self, i: usize) -> &[u64] {
        &self.bits[i * self.words..(i + 1) * self.words]
    }

    /// In how many snippets rows `a` and `b` both occur.
    fn shared(&self, a: usize, b: usize) -> u32 {
        self.row(a).iter().zip(self.row(b)).map(|(x, y)| (x & y).count_ones()).sum()
    }

    /// The neighbours of row `i` in the graph
    /// [`ConceptGraph::from_incidence`] builds over these rows at
    /// `sim_threshold`, with the edge weights, ascending — that graph's
    /// [`ConceptGraph::neighbors`]`(i)`, bit for bit, in O(rows) instead
    /// of the O(rows²) build.
    pub(crate) fn neighbors(
        &self,
        i: usize,
        sim_threshold: f64,
    ) -> impl Iterator<Item = (usize, f64)> + '_ {
        let len_i = self.count(i);
        (0..self.rows).filter(move |&j| j != i).filter_map(move |j| {
            let inter = self.shared(i, j);
            if inter == 0 {
                return None;
            }
            // The graph stores the edge as (min, max): keep its operand order.
            let (len_a, len_b) =
                if i < j { (len_i, self.count(j)) } else { (self.count(j), len_i) };
            let weight = cosine(inter, len_a, len_b);
            if weight < sim_threshold {
                return None;
            }
            Some((j, weight))
        })
    }

    /// How many rows occur in `snippet`.
    pub(crate) fn rows_with(&self, snippet: usize) -> usize {
        let (word, bit) = (snippet / 64, 1u64 << (snippet % 64));
        (0..self.rows).filter(|i| self.bits[i * self.words + word] & bit != 0).count()
    }

    /// The snippets (bit positions) of row `i`, ascending.
    pub(crate) fn snippets_of(&self, i: usize) -> impl Iterator<Item = usize> + '_ {
        self.row(i).iter().enumerate().flat_map(|(w, &word)| {
            let mut rest = word;
            std::iter::from_fn(move || {
                (rest != 0).then(|| {
                    let bit = rest.trailing_zeros() as usize;
                    rest &= rest - 1;
                    w * 64 + bit
                })
            })
        })
    }
}

/// The snippet-incidence cosine of two concepts occurring in `len_a` and
/// `len_b` snippets, `inter` of them shared.
fn cosine(inter: u32, len_a: u32, len_b: u32) -> f64 {
    f64::from(inter) / (f64::from(len_a) * f64::from(len_b)).sqrt()
}

impl ConceptGraph {
    /// Build the graph over the concepts whose snippet incidence is
    /// `incidence` (one row per concept, in concept order).
    ///
    /// `sim_threshold` — minimum cosine to keep an edge;
    /// `containment_threshold` — minimum |S_a∩S_b|/|S_b| for `a` to count
    /// as a parent of `b`. Outside tests the two are [`SIM_THRESHOLD`] and
    /// [`CONTAINMENT_THRESHOLD`], and the one caller is
    /// [`crate::QueryConceptOntology::graph`].
    pub(crate) fn from_incidence(
        incidence: &Incidence,
        sim_threshold: f64,
        containment_threshold: f64,
    ) -> Self {
        let num_concepts = incidence.len();
        let sizes: Vec<u32> = (0..num_concepts).map(|i| incidence.count(i)).collect();
        let mut edges = Vec::new();
        for a in 0..num_concepts {
            for b in (a + 1)..num_concepts {
                let (len_a, len_b) = (sizes[a], sizes[b]);
                let inter = incidence.shared(a, b);
                if inter == 0 {
                    continue;
                }
                let weight = cosine(inter, len_a, len_b);
                if weight < sim_threshold {
                    continue;
                }
                // Containment checks decide parent/child typing.
                let inter = f64::from(inter);
                let a_contains_b = inter / f64::from(len_b);
                let b_contains_a = inter / f64::from(len_a);
                let relation = if a_contains_b >= containment_threshold && len_a > len_b {
                    ConceptRelation::ParentOf
                } else if b_contains_a >= containment_threshold && len_b > len_a {
                    ConceptRelation::ChildOf
                } else {
                    ConceptRelation::Similar
                };
                edges.push(ConceptEdge { a, b, weight, relation });
            }
        }
        ConceptGraph { num_concepts, edges }
    }

    /// Number of nodes.
    pub fn num_concepts(&self) -> usize {
        self.num_concepts
    }

    /// All edges.
    pub fn edges(&self) -> &[ConceptEdge] {
        &self.edges
    }

    /// Neighbors of concept `i` with weights (both directions).
    pub fn neighbors(&self, i: usize) -> Vec<(usize, f64)> {
        let mut out = Vec::new();
        for e in &self.edges {
            if e.a == i {
                out.push((e.b, e.weight));
            } else if e.b == i {
                out.push((e.a, e.weight));
            }
        }
        out
    }

    /// Spread `mass` from concept `i` to its neighbors: returns
    /// `(concept, mass · weight · damping)` pairs. This implements the
    /// profile's concept-expansion step.
    pub fn spread(&self, i: usize, mass: f64, damping: f64) -> Vec<(usize, f64)> {
        self.neighbors(i)
            .into_iter()
            .map(|(j, w)| (j, mass * w * damping))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::content::{count_content, ConceptConfig, ContentConcept};
    use crate::snippet::SnippetAnalysis;
    use pws_geo::{LocationMatcher, LocationOntology};

    /// Unigram concepts of `snippets` and their graph at the given
    /// thresholds.
    fn concepts_and_graph(
        snippets: &[String],
        sim_threshold: f64,
        containment_threshold: f64,
    ) -> (Vec<ContentConcept>, ConceptGraph) {
        let matcher = LocationMatcher::build(&LocationOntology::new());
        let mut dict = crate::TermDict::new();
        let analyses: Vec<SnippetAnalysis> =
            snippets.iter().map(|s| SnippetAnalysis::new(s, &matcher, &mut dict)).collect();
        crate::scratch::with(|scratch| {
            let query = crate::query_terms("q", &dict);
            let concepts = count_content(&query, &analyses, &cfg(), &dict, scratch);
            let g = ConceptGraph::from_incidence(&scratch.chosen, sim_threshold, containment_threshold);
            (concepts, g)
        })
    }

    fn snips(texts: &[&str]) -> Vec<String> {
        texts.iter().map(|t| t.to_string()).collect()
    }

    fn cfg() -> ConceptConfig {
        ConceptConfig { min_support: 0.0, min_snippet_freq: 1, bigrams: false, max_concepts: 100 }
    }

    #[test]
    fn cooccurring_concepts_get_edges() {
        let s = snips(&["seafood lobster platter", "seafood lobster rolls", "sushi menu"]);
        let (concepts, g) = concepts_and_graph(&s, 0.3, 0.8);
        let sea = concepts.iter().position(|c| c.term == "seafood").unwrap();
        let lob = concepts.iter().position(|c| c.term == "lobster").unwrap();
        assert!(
            g.neighbors(sea).iter().any(|(j, _)| *j == lob),
            "seafood–lobster edge missing: {:?}",
            g.edges()
        );
    }

    #[test]
    fn disjoint_concepts_have_no_edge() {
        let s = snips(&["seafood platter", "sushi menu"]);
        let (concepts, g) = concepts_and_graph(&s, 0.1, 0.8);
        let sea = concepts.iter().position(|c| c.term == "seafood").unwrap();
        let sus = concepts.iter().position(|c| c.term == "sushi").unwrap();
        assert!(!g.neighbors(sea).iter().any(|(j, _)| *j == sus));
    }

    #[test]
    fn perfect_cooccurrence_has_cosine_one() {
        let s = snips(&["alpha beta", "alpha beta", "gamma delta"]);
        let (concepts, g) = concepts_and_graph(&s, 0.5, 2.0);
        let a = concepts.iter().position(|c| c.term == "alpha").unwrap();
        let b = concepts.iter().position(|c| c.term == "beta").unwrap();
        let e = g
            .edges()
            .iter()
            .find(|e| (e.a == a && e.b == b) || (e.a == b && e.b == a))
            .expect("edge");
        assert!((e.weight - 1.0).abs() < 1e-12);
        assert_eq!(e.relation, ConceptRelation::Similar);
    }

    #[test]
    fn containment_types_parent_child() {
        // "seafood" in 3 snippets; "lobster" only where seafood also is.
        let s = snips(&["seafood lobster", "seafood lobster", "seafood crab"]);
        let (concepts, g) = concepts_and_graph(&s, 0.1, 0.8);
        let sea = concepts.iter().position(|c| c.term == "seafood").unwrap();
        let lob = concepts.iter().position(|c| c.term == "lobster").unwrap();
        let e = g
            .edges()
            .iter()
            .find(|e| (e.a == sea && e.b == lob) || (e.a == lob && e.b == sea))
            .expect("edge");
        let rel_from_sea = if e.a == sea { e.relation } else {
            match e.relation {
                ConceptRelation::ParentOf => ConceptRelation::ChildOf,
                ConceptRelation::ChildOf => ConceptRelation::ParentOf,
                r => r,
            }
        };
        assert_eq!(rel_from_sea, ConceptRelation::ParentOf);
    }

    #[test]
    fn threshold_prunes_weak_edges() {
        let s = snips(&["aa bb", "aa cc", "aa dd", "bb cc", "cc dd", "bb dd"]);
        let (_, loose) = concepts_and_graph(&s, 0.0, 0.9);
        let (_, tight) = concepts_and_graph(&s, 0.9, 0.9);
        assert!(loose.edges().len() > tight.edges().len());
    }

    #[test]
    fn spread_scales_mass_by_weight_and_damping() {
        let s = snips(&["alpha beta", "alpha beta"]);
        let (concepts, g) = concepts_and_graph(&s, 0.5, 2.0);
        let a = concepts.iter().position(|c| c.term == "alpha").unwrap();
        let spread = g.spread(a, 2.0, 0.5);
        assert_eq!(spread.len(), 1);
        assert!((spread[0].1 - 1.0).abs() < 1e-12); // 2.0 * cos(1.0) * 0.5
    }

    /// One concept's neighbours read off the rows are the built graph's
    /// row for it, weights bit for bit, at every threshold.
    #[test]
    fn neighbors_are_the_graphs_row() {
        let matcher = LocationMatcher::build(&LocationOntology::new());
        let mut dict = crate::TermDict::new();
        let s = snips(&["aa bb", "aa cc", "aa dd", "bb cc", "cc dd", "bb dd", "aa bb cc", "ee"]);
        let analyses: Vec<SnippetAnalysis> =
            s.iter().map(|s| SnippetAnalysis::new(s, &matcher, &mut dict)).collect();
        crate::scratch::with(|scratch| {
            let concepts =
                count_content(&crate::query_terms("q", &dict), &analyses, &cfg(), &dict, scratch);
            assert_eq!(concepts.len(), 5);
            for t in [0.0, 0.3, SIM_THRESHOLD, 0.5, 0.9, 1.0] {
                let g = ConceptGraph::from_incidence(&scratch.chosen, t, CONTAINMENT_THRESHOLD);
                for i in 0..concepts.len() {
                    let bits = |v: Vec<(usize, f64)>| -> Vec<(usize, u64)> {
                        v.into_iter().map(|(j, w)| (j, w.to_bits())).collect()
                    };
                    let read = bits(scratch.chosen.neighbors(i, t).collect());
                    assert_eq!(read, bits(g.neighbors(i)), "concept {i} at {t}");
                }
            }
        });
    }

    #[test]
    fn empty_concepts_build_empty_graph() {
        let g = ConceptGraph::from_incidence(&Incidence::new(1), 0.1, 0.8);
        assert_eq!(g.num_concepts(), 0);
        assert!(g.edges().is_empty());
    }
}
