//! Per-query concept ontology.
//!
//! Bundles everything the extraction stage produces for one query issue:
//! the content concepts + their snippet-incidence rows, and the location
//! concepts. User profiling consumes this; the entropy module measures its
//! diversity.
//!
//! The concept relationship graph is not built here: an ontology keeps the
//! rows the counting pass leaves behind (≤ `max_concepts` rows of
//! ⌈snippets / 64⌉ words), [`QueryConceptOntology::spread`] reads one
//! clicked concept's neighbours off them, and
//! [`QueryConceptOntology::graph`] derives the whole graph on demand.

use crate::content::{count_content, ConceptConfig, ContentConcept};
use crate::dict::TermDict;
use crate::graph::{ConceptGraph, Incidence, CONTAINMENT_THRESHOLD, SIM_THRESHOLD};
use crate::location::{
    count_locations, locations_by_snippet, LocationConcept, LocationConceptConfig,
};
use crate::snippet::{query_terms, SnippetAnalysis};
use pws_geo::{LocationMatcher, LocationOntology};
use pws_text::Sym;
use serde::{Deserialize, Serialize};
use std::borrow::Borrow;

/// The combined concept view of one query's result snippets.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct QueryConceptOntology {
    /// The query text concepts were extracted for.
    pub query_text: String,
    /// Content concepts, support-descending.
    pub content: Vec<ContentConcept>,
    /// Snippet incidence of `content`: row `i`, bit `s` is set iff concept
    /// `i` occurs in snippet `s`.
    pub(crate) incidence: Incidence,
    /// The graph the reference extractor built over the snippet text; `None`
    /// on every ontology the counting pass builds.
    pub(crate) reference_graph: Option<ConceptGraph>,
    /// Location concepts, support-descending.
    pub locations: Vec<LocationConcept>,
    /// Per-snippet concept membership: `content_by_snippet[i]` lists the
    /// indices (into `content`) of the concepts occurring in snippet `i`.
    pub content_by_snippet: Vec<Vec<usize>>,
    /// Per-snippet location membership, indices into `locations`.
    pub locations_by_snippet: Vec<Vec<usize>>,
}

impl QueryConceptOntology {
    /// Extract the full ontology from a result page's snippets: analyse
    /// each snippet once (into a dictionary of this call's own), then run
    /// the counting pass ([`from_analyses`](Self::from_analyses)).
    pub fn extract(
        query_text: &str,
        snippets: &[String],
        matcher: &LocationMatcher,
        world: &LocationOntology,
        content_cfg: &ConceptConfig,
        location_cfg: &LocationConceptConfig,
    ) -> Self {
        let mut dict = TermDict::new();
        let analyses: Vec<SnippetAnalysis> =
            snippets.iter().map(|s| SnippetAnalysis::new(s, matcher, &mut dict)).collect();
        let query = query_terms(query_text, &dict);
        Self::from_analyses(query_text, &query, &analyses, &dict, world, content_cfg, location_cfg)
    }

    /// The per-pool half of extraction: count concepts of the query
    /// `query_text`, whose terms have the ids `query` in `dict`
    /// ([`query_terms`]; an engine's retrieval already holds them), over
    /// snippets that are already analysed (`analyses[i]` is snippet `i`,
    /// built against `dict`). Callers that see the same snippets again — the engine's
    /// pool and page, other users' pools — keep the analyses and pay only
    /// for this pass, which reads `dict` (it cannot intern) and works out
    /// of the thread's reusable scratch.
    ///
    /// # Panics
    /// Panics if an analysis was built against a dictionary other than
    /// `dict`.
    pub fn from_analyses<S: Borrow<SnippetAnalysis>>(
        query_text: &str,
        query: &[Sym],
        analyses: &[S],
        dict: &TermDict<'_>,
        world: &LocationOntology,
        content_cfg: &ConceptConfig,
        location_cfg: &LocationConceptConfig,
    ) -> Self {
        let (content, incidence, content_by_snippet) = crate::scratch::with(|scratch| {
            let content = count_content(query, analyses, content_cfg, dict, scratch);
            let incidence = &scratch.chosen;
            // Sized exactly first: a list per snippet, grown push by push,
            // was a third of the allocations of the whole pass.
            let mut content_by_snippet: Vec<Vec<usize>> = (0..analyses.len())
                .map(|si| Vec::with_capacity(incidence.rows_with(si)))
                .collect();
            for ci in 0..content.len() {
                for si in incidence.snippets_of(ci) {
                    content_by_snippet[si].push(ci);
                }
            }
            (content, incidence.clone(), content_by_snippet)
        });

        let locations = count_locations(analyses, world, location_cfg);
        let locations_by_snippet = locations_by_snippet(analyses, &locations);

        QueryConceptOntology {
            query_text: query_text.to_string(),
            content,
            incidence,
            reference_graph: None,
            locations,
            content_by_snippet,
            locations_by_snippet,
        }
    }

    /// The relationship graph over `content` (indices align), derived from
    /// the concepts' snippet incidence now — or, on an ontology
    /// [`extract_reference`](Self::extract_reference) returned, the graph
    /// it built itself. Nothing on a serving path calls this; a click
    /// reads its concepts' neighbours through [`spread`](Self::spread).
    pub fn graph(&self) -> ConceptGraph {
        match &self.reference_graph {
            Some(graph) => graph.clone(),
            None => {
                ConceptGraph::from_incidence(&self.incidence, SIM_THRESHOLD, CONTAINMENT_THRESHOLD)
            }
        }
    }

    /// Spread `mass` from content concept `i` to its neighbours in the
    /// relationship graph: `(concept, mass · weight · damping)` pairs,
    /// ascending by concept — `self.graph().spread(i, mass, damping)` bit
    /// for bit, read off concept `i`'s incidence row against the others
    /// without building the graph.
    pub fn spread(
        &self,
        i: usize,
        mass: f64,
        damping: f64,
    ) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.incidence.neighbors(i, SIM_THRESHOLD).map(move |(j, w)| (j, mass * w * damping))
    }

    /// [`extract`](Self::extract) as it was first written — five passes
    /// over the snippet text. The oracle of the differential tests; never
    /// call it from a serving or evaluation path.
    #[doc(hidden)]
    pub fn extract_reference(
        query_text: &str,
        snippets: &[String],
        matcher: &LocationMatcher,
        world: &LocationOntology,
        content_cfg: &ConceptConfig,
        location_cfg: &LocationConceptConfig,
    ) -> Self {
        crate::reference::extract(query_text, snippets, matcher, world, content_cfg, location_cfg)
    }

    /// Total number of extracted concepts (content + location).
    pub fn concept_count(&self) -> usize {
        self.content.len() + self.locations.len()
    }

    /// True when no concepts of either kind were extracted — personalization
    /// has nothing to work with for this query.
    pub fn is_vacuous(&self) -> bool {
        self.content.is_empty() && self.locations.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pws_geo::LocId;

    fn world() -> LocationOntology {
        let mut o = LocationOntology::new();
        let r = o.add(LocId::WORLD, "westland", vec![]);
        let c = o.add(r, "ardonia", vec![]);
        let s = o.add(c, "north vale", vec![]);
        o.add(s, "port alden", vec![]);
        o
    }

    fn snips() -> Vec<String> {
        vec![
            "seafood lobster specials in port alden".into(),
            "the seafood menu with lobster rolls".into(),
            "sushi and seafood downtown port alden".into(),
        ]
    }

    fn extract(snippets: &[String]) -> QueryConceptOntology {
        let w = world();
        let m = LocationMatcher::build(&w);
        QueryConceptOntology::extract(
            "restaurant",
            snippets,
            &m,
            &w,
            &ConceptConfig { min_support: 0.0, min_snippet_freq: 1, bigrams: true, max_concepts: 50 },
            &LocationConceptConfig { min_support: 0.0, ..Default::default() },
        )
    }

    #[test]
    fn extracts_both_dimensions() {
        let o = extract(&snips());
        assert!(o.content.iter().any(|c| c.term == "seafood"));
        assert!(!o.locations.is_empty());
        assert!(!o.is_vacuous());
        assert_eq!(o.concept_count(), o.content.len() + o.locations.len());
    }

    #[test]
    fn snippet_membership_is_consistent() {
        let s = snips();
        let o = extract(&s);
        assert_eq!(o.content_by_snippet.len(), s.len());
        assert_eq!(o.locations_by_snippet.len(), s.len());
        // Snippet 0 contains "seafood".
        let sea = o.content.iter().position(|c| c.term == "seafood").unwrap();
        assert!(o.content_by_snippet[0].contains(&sea));
        // Snippet 1 has no location.
        assert!(o.locations_by_snippet[1].is_empty());
        // Snippets 0 and 2 mention port alden.
        assert!(!o.locations_by_snippet[0].is_empty());
        assert!(!o.locations_by_snippet[2].is_empty());
    }

    #[test]
    fn graph_aligns_with_content_indices() {
        let o = extract(&snips());
        let graph = o.graph();
        assert_eq!(graph.num_concepts(), o.content.len());
        for e in graph.edges() {
            assert!(e.a < o.content.len() && e.b < o.content.len());
        }
    }

    /// `SnippetAnalysis::new` is the only caller of the analyser and the
    /// matcher (check.sh greps for it), so counting constructions counts
    /// both: n snippets, n analyser runs, n matcher runs.
    #[test]
    fn extract_analyses_each_snippet_exactly_once() {
        let built = || crate::snippet::BUILT.with(|n| n.get());
        let before = built();
        let o = extract(&snips());
        assert_eq!(built() - before, 3);
        assert!(!o.content.is_empty() && !o.graph().edges().is_empty());
        assert!(o.content_by_snippet.iter().all(|cs| !cs.is_empty()));
    }

    /// The counting pass interns nothing and, once a thread has seen a pool
    /// of a given size, allocates only what it returns: `TermDict::intern` is
    /// not called across `from_analyses` on kept analyses, and a second
    /// identical call leaves every scratch buffer at the capacity the first
    /// one grew it to.
    #[test]
    fn counting_kept_analyses_interns_nothing_and_regrows_no_scratch() {
        let interned = || crate::dict::INTERNED.with(|n| n.get());
        let capacities = || {
            crate::scratch::with(|s| {
                [
                    s.rows.capacity(),
                    s.keys.capacity(),
                    s.seen.capacity(),
                    s.ranked.capacity(),
                    s.chosen.capacity(),
                ]
            })
        };
        let w = world();
        let m = LocationMatcher::build(&w);
        let mut dict = TermDict::new();
        let topics = ["seafood", "lobster", "rolls", "sushi", "menu", "harbor", "booking", "port alden"];
        let pool: Vec<String> = (0..30)
            .map(|i| {
                let words: Vec<&str> =
                    (0..24).map(|j| topics[(i * 5 + j * (i % 3 + 1)) % topics.len()]).collect();
                format!("listing{i} {}", words.join(" "))
            })
            .collect();
        let kept: Vec<SnippetAnalysis> =
            pool.iter().map(|s| SnippetAnalysis::new(s, &m, &mut dict)).collect();
        assert!(interned() > 0);
        for analyses in [&kept[..], &kept[..10]] {
            let count = || {
                QueryConceptOntology::from_analyses(
                    "seafood restaurant",
                    &query_terms("seafood restaurant", &dict),
                    analyses,
                    &dict,
                    &w,
                    &ConceptConfig::default(),
                    &LocationConceptConfig::default(),
                )
            };
            let before = interned();
            let first = count();
            let grown = capacities();
            let second = count();
            assert_eq!(interned(), before, "the counting pass interned a term");
            assert_eq!(capacities(), grown, "an identical call grew a scratch buffer");
            assert!(!first.content.is_empty());
            assert_eq!(crate::reference::bits(&first), crate::reference::bits(&second));
        }
    }

    #[test]
    fn empty_snippets_are_vacuous() {
        let o = extract(&[]);
        assert!(o.is_vacuous());
        assert!(o.content_by_snippet.is_empty());
    }

    #[test]
    fn serde_round_trip() {
        let o = extract(&snips());
        let j = serde_json::to_string(&o).unwrap();
        let back: QueryConceptOntology = serde_json::from_str(&j).unwrap();
        assert_eq!(back.content, o.content);
        assert_eq!(back.locations, o.locations);
    }
}
