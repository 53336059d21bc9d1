//! pws-text's word table memoises, it never decides — checked on the text
//! the system really analyses. Every document of the paper-scale (8 k)
//! world analyses to the same tokens through the table as through a
//! stopword search and a Porter run per token; building that world's index
//! stems each distinct form once per thread; and the rewritten location
//! matcher finds what the `HashMap` trie it replaced found, on every
//! snippet of the paper world's 120 pools and of a 20 k-document large
//! world.

use pws_corpus::{CorpusGen, CorpusSpec, Document, QueryGen, QuerySpec};
use pws_eval::{ExperimentSpec, ExperimentWorld};
use pws_geo::{LocId, LocationMatch, LocationMatcher, LocationOntology, WorldGen, WorldSpec};
use pws_index::{extract_snippet, SegmentBuilder, SegmentedIndex};
use pws_text::{is_stopword, porter_stem, tokenize, Analyzer};
use std::collections::{HashMap, HashSet};
use std::sync::OnceLock;

fn paper_world() -> &'static ExperimentWorld {
    static WORLD: OnceLock<ExperimentWorld> = OnceLock::new();
    WORLD.get_or_init(|| ExperimentWorld::build(ExperimentSpec::default_paper()))
}

/// Run `f` on a thread of its own, so it starts from an empty word table.
fn on_fresh_thread<R: Send>(f: impl FnOnce() -> R + Send) -> R {
    std::thread::scope(|s| s.spawn(f).join().expect("test thread"))
}

/// The analyser without the table: a stopword search and a Porter run per
/// token.
fn analyze_uncached(a: &Analyzer, text: &str) -> Vec<String> {
    tokenize(text)
        .into_iter()
        .filter(|t| t.len() >= a.min_token_len && t.len() <= a.max_token_len)
        .filter(|t| !(a.remove_stopwords && is_stopword(t)))
        .map(|t| if a.stem { porter_stem(&t) } else { t })
        .collect()
}

fn analyze(a: &Analyzer, text: &str) -> Vec<String> {
    let mut out = Vec::new();
    a.for_each_token(text, |t| out.push(t.to_string()));
    out
}

/// Every analyser configuration the workspace builds.
fn configs() -> [Analyzer; 5] {
    let (d, v) = (Analyzer::default(), Analyzer::verbatim());
    [
        d.clone(),
        v.clone(),
        Analyzer { min_token_len: 3, ..v.clone() },
        Analyzer { remove_stopwords: true, ..v },
        Analyzer { stem: false, ..d },
    ]
}

#[test]
fn every_paper_world_document_analyses_as_uncached() {
    let docs = &paper_world().corpus.docs;
    assert_eq!(docs.len(), 8_000);
    let default = Analyzer::default();
    for (i, d) in docs.iter().enumerate() {
        let text = d.full_text();
        assert_eq!(analyze(&default, &text), analyze_uncached(&default, &text), "doc {i}");
        if i % 40 == 0 {
            for a in &configs()[1..] {
                assert_eq!(analyze(a, &text), analyze_uncached(a, &text), "doc {i}, {a:?}");
            }
        }
    }
}

/// The forms of `d` the default analyser stems: tokens of 2..=40 bytes.
fn stemmed_forms(d: &Document, into: &mut HashSet<String>) -> usize {
    let toks: Vec<String> = [&d.title, &d.body].iter().flat_map(|t| tokenize(t)).collect();
    let n = toks.len();
    into.extend(toks.into_iter().filter(|t| (2..=40).contains(&t.len())));
    n
}

/// Porter runs once per distinct form per thread: building the paper
/// world's index on one thread stems exactly its distinct forms, a second
/// thread stems them again, and a second snippet pass over the same result
/// list stems nothing. Debug builds only: the stemmer's counter is compiled
/// out of release builds.
#[cfg(debug_assertions)]
#[test]
fn building_the_paper_world_stems_each_form_once_per_thread() {
    let docs = &paper_world().corpus.docs;
    let (mut forms, mut tokens) = (HashSet::new(), 0);
    for d in docs {
        tokens += stemmed_forms(d, &mut forms);
    }
    let build = || {
        let before = pws_text::stem::porter_runs();
        let mut b = SegmentBuilder::new(Analyzer::default());
        for d in docs {
            b.add(&d.url, &d.title, &d.body);
        }
        let runs = pws_text::stem::porter_runs() - before;
        (runs, b.finish())
    };
    let (runs_a, bytes_a) = on_fresh_thread(build);
    let (runs_b, bytes_b) = on_fresh_thread(build);
    assert_eq!(runs_a, forms.len() as u64, "one Porter run per distinct form");
    assert_eq!(runs_b, runs_a, "each thread analyses its words once");
    assert_eq!(bytes_a, bytes_b);
    assert!(tokens as u64 > 100 * runs_a, "{tokens} tokens, {runs_a} runs");

    on_fresh_thread(|| {
        let world = paper_world();
        let q = Analyzer::default().analyze(&world.queries[0].text);
        let bodies: Vec<&str> = docs.iter().take(30).map(|d| d.body.as_str()).collect();
        let pass = || -> (u64, Vec<String>) {
            let before = pws_text::stem::porter_runs();
            let snippets = bodies.iter().map(|b| extract_snippet(b, &q, 24)).collect();
            (pws_text::stem::porter_runs() - before, snippets)
        };
        let (first, snippets) = pass();
        assert!(first > 0);
        assert_eq!(pass(), (0, snippets), "a second pass over the list stems nothing");
    });
}

/// The location matcher as it was: a trie of `HashMap<String, _>` children
/// walked over owned tokens, deduplicated through a `HashSet`.
#[derive(Default)]
struct RefNode {
    children: HashMap<String, RefNode>,
    terminal: Option<LocId>,
}

struct RefMatcher(RefNode);

impl RefMatcher {
    fn build(onto: &LocationOntology) -> Self {
        let mut root = RefNode::default();
        for id in onto.ids().filter(|&id| id != LocId::WORLD) {
            let node = onto.node(id);
            for name in std::iter::once(&node.name).chain(&node.aliases) {
                let toks = Analyzer::verbatim().analyze(name);
                if toks.is_empty() {
                    continue;
                }
                let mut cur = &mut root;
                for t in toks {
                    cur = cur.children.entry(t).or_default();
                }
                cur.terminal.get_or_insert(id);
            }
        }
        RefMatcher(root)
    }

    fn match_tokens(&self, tokens: &[String]) -> Vec<LocationMatch> {
        let mut out = Vec::new();
        let mut i = 0;
        while i < tokens.len() {
            let (mut cur, mut best, mut j) = (&self.0, None, i);
            while let Some(next) = tokens.get(j).and_then(|t| cur.children.get(t)) {
                cur = next;
                j += 1;
                if let Some(id) = cur.terminal {
                    best = Some((id, j - i));
                }
            }
            if let Some((loc, len)) = best {
                out.push(LocationMatch { loc, start: i, len });
                i += len;
            } else {
                i += 1;
            }
        }
        out
    }

    fn locations_in(&self, text: &str) -> Vec<LocId> {
        let mut seen = HashSet::new();
        self.match_tokens(&Analyzer::verbatim().analyze(text))
            .into_iter()
            .map(|m| m.loc)
            .filter(|l| seen.insert(*l))
            .collect()
    }
}

/// Differential check of one text; returns how many places it names.
fn check_matcher(m: &LocationMatcher, r: &RefMatcher, text: &str) -> usize {
    let tokens = Analyzer::verbatim().analyze(text);
    let want = r.match_tokens(&tokens);
    assert_eq!(m.match_text(text), want, "{text:?}");
    assert_eq!(m.match_tokens(&tokens), want, "{text:?}");
    assert_eq!(m.locations_in(text), r.locations_in(text), "{text:?}");
    want.len()
}

#[test]
fn location_matcher_agrees_with_the_hashmap_trie_on_paper_pools() {
    let world = paper_world();
    let (m, r) = (LocationMatcher::build(&world.world), RefMatcher::build(&world.world));
    let (mut snippets, mut places) = (0, 0);
    for q in &world.queries {
        for hit in world.engine.search(&q.text, 30) {
            places += check_matcher(&m, &r, &hit.snippet);
            snippets += 1;
        }
        places += check_matcher(&m, &r, &q.text);
    }
    for text in ["", "Port", "new new york york", "ÜBER Köln's café"] {
        check_matcher(&m, &r, text);
    }
    assert!(snippets > 3_000 && places > 1_000, "{snippets} snippets, {places} places");
}

#[test]
fn location_matcher_agrees_with_the_hashmap_trie_on_a_large_world() {
    const DOCS: usize = 20_000;
    let seed = ExperimentSpec::default_paper().seed;
    let world = WorldGen::new(seed).generate(&WorldSpec::default_world());
    let spec = CorpusSpec { num_docs: DOCS, ..CorpusSpec::large() };
    let gen = CorpusGen::new(seed.wrapping_add(1)).doc_gen(spec, &world);
    let index = SegmentedIndex::build_parallel(Analyzer::default(), DOCS, DOCS / 4, 2, |i| {
        let d = gen.doc(i);
        (d.url, d.title, d.body)
    })
    .expect("generated documents build");
    let queries = QueryGen::new(seed.wrapping_add(3))
        .generate(&QuerySpec { num_queries: 300, ..QuerySpec::default_workload() });
    let (m, r) = (LocationMatcher::build(&world), RefMatcher::build(&world));
    let (mut snippets, mut places) = (0, 0);
    for q in &queries {
        for hit in index.search(&q.text, 30) {
            places += check_matcher(&m, &r, &hit.snippet);
            snippets += 1;
        }
    }
    assert!(snippets > 6_000 && places > 1_000, "{snippets} snippets, {places} places");
}
