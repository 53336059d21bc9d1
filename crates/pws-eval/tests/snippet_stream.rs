//! Snippets cut from the segments' form streams, and their analyses read
//! off per-segment form tables, against the string entry points they
//! replaced on the serving path: `extract_snippet(body, q, 24)` and
//! `SnippetAnalysis::new(snippet)`.
//!
//! Covered: every document of the paper-scale world and of a 20 000-doc,
//! 8-segment large-shaped world, against every query template's analysed
//! tokens and every city-augmented variant ("template city", as the engine
//! augments). A snippet depends on the query only through which of the
//! body's stems the query holds — the best window counts distinct and
//! total matches, so which query position a stem first takes does not
//! matter — so each document is cut once per distinct set of held stems:
//! every (document, variant) pair falls in exactly one checked class. Each
//! distinct window is analysed both ways, the text analysis against a
//! dictionary of its own, and compared as term strings and places.
//! Hand-built segments add what generated text lacks: upper case and
//! non-ASCII bodies (`İ`, whose lowercase does not re-tokenise to itself),
//! apostrophes, forms over 40 and over 60 bytes, empty and termless
//! bodies, and a two-word place name straddling either window edge.

use pws_concepts::{FormTable, SnippetAnalysis, TermDict};
use pws_corpus::{CorpusGen, CorpusSpec, QueryGen, QuerySpec};
use pws_eval::{ExperimentSpec, ExperimentWorld};
use pws_geo::{LocId, LocationMatcher, LocationOntology, WorldGen, WorldSpec};
use pws_index::{extract_snippet, Analyzer, SegmentBuilder, SegmentedIndex};
use std::collections::{HashMap, HashSet};

const WINDOW: usize = 24;

/// Every stem of `body`'s tokens (no token dropped).
fn stems_of(body: &str) -> Vec<String> {
    Analyzer { remove_stopwords: false, stem: true, min_token_len: 0, max_token_len: usize::MAX }
        .analyze(body)
}

/// The two sides of the analysis check: a form table per segment against
/// the index's term table, text analyses against a dictionary of their
/// own.
struct Analyses<'w> {
    matcher: LocationMatcher,
    tables: Vec<FormTable>,
    table_dict: TermDict<'w>,
    text_dict: TermDict<'w>,
    world: &'w LocationOntology,
}

impl<'w> Analyses<'w> {
    fn new(index: &'w SegmentedIndex, world: &'w LocationOntology) -> Self {
        let matcher = LocationMatcher::build(world);
        let (terms, forms) = index.segment_forms();
        let table_dict = TermDict::of(terms.interner());
        let tables = (0..forms.len())
            .map(|s| FormTable::new(forms[s], |f| terms.form_terms(s, f), &matcher, &table_dict))
            .collect();
        Analyses { matcher, tables, table_dict, text_dict: TermDict::new(), world }
    }

    /// Terms as strings and place names of an analysis against `dict`.
    fn resolved(&self, a: &SnippetAnalysis, dict: &TermDict) -> (Vec<String>, Vec<String>) {
        (
            a.terms(dict).iter().map(|&t| dict.resolve(t).to_string()).collect(),
            a.locations().iter().map(|&l| self.world.name(l).to_string()).collect(),
        )
    }

    /// Assert the window `forms` of segment `segment`, read off the table,
    /// analyses as `snippet` does from text; returns whether it names a
    /// place.
    fn check(&mut self, segment: usize, forms: &[u32], snippet: &str) -> bool {
        let (m, d) = (&self.matcher, &self.table_dict);
        let from_forms = SnippetAnalysis::from_forms(&self.tables[segment], forms, m, d);
        let from_text = SnippetAnalysis::new(snippet, m, &mut self.text_dict);
        let want = self.resolved(&from_text, &self.text_dict);
        assert_eq!(self.resolved(&from_forms, d), want, "{snippet:?}");
        !want.1.is_empty()
    }
}

/// What a differential run covered.
#[derive(Debug, Default)]
struct Coverage {
    pairs: u64,
    cuts: u64,
    matched_classes: u64,
    windows: u64,
    placed_windows: u64,
}

/// Cut every document of `index` (bodies `bodies`) against every query
/// variant: each template of `templates` alone and with each city of
/// `cities` appended, analysed by the index's analyser.
fn check_world(
    index: &SegmentedIndex,
    bodies: &[String],
    templates: &[String],
    world: &LocationOntology,
    cities: &[LocId],
) -> Coverage {
    let per = 1 + cities.len();
    let variants: Vec<Vec<String>> = templates
        .iter()
        .flat_map(|t| {
            std::iter::once(index.analyze_text(t))
                .chain(cities.iter().map(move |&c| index.analyze_text(&format!("{t} {}", world.name(c)))))
        })
        .collect();
    // Every query token gets a small id; a body's stems are looked up by it.
    let mut ids: HashMap<&str, u32> = HashMap::new();
    for v in &variants {
        for t in v {
            let next = ids.len() as u32;
            ids.entry(t.as_str()).or_insert(next);
        }
    }
    let token_ids: Vec<Vec<u32>> = variants.iter().map(|v| v.iter().map(|t| ids[t.as_str()]).collect()).collect();
    // A variant's class in a document: the stems of the body it holds, as
    // a mask over the body's query stems (`held`: stem id → bit).
    let class = |v: usize, held: &HashMap<u32, u32>| -> u128 {
        token_ids[v].iter().filter_map(|t| held.get(t)).fold(0, |m, &bit| m | 1 << bit)
    };
    let city_ids: Vec<Vec<u32>> = cities
        .iter()
        .map(|&c| index.analyze_text(world.name(c)).iter().filter_map(|t| ids.get(t.as_str()).copied()).collect())
        .collect();

    // One representative variant per (document, class).
    let mut by_variant: HashMap<usize, Vec<u32>> = HashMap::new();
    let mut cov = Coverage::default();
    for (doc, body) in bodies.iter().enumerate() {
        let mut held: HashMap<u32, u32> = HashMap::new();
        for s in stems_of(body) {
            if let Some(&id) = ids.get(s.as_str()) {
                let bit = held.len() as u32;
                held.entry(id).or_insert(bit);
            }
        }
        assert!(held.len() <= 128, "doc {doc} holds {} query stems", held.len());
        let named: Vec<usize> =
            (0..cities.len()).filter(|&c| city_ids[c].iter().any(|t| held.contains_key(t))).collect();
        let mut seen: HashSet<u128> = HashSet::new();
        for t in 0..templates.len() {
            // A city none of whose tokens the body holds leaves the class
            // of the template alone.
            for v in std::iter::once(t * per).chain(named.iter().map(|&c| t * per + 1 + c)) {
                let key = class(v, &held);
                if seen.insert(key) {
                    by_variant.entry(v).or_default().push(doc as u32);
                    cov.matched_classes += u64::from(key != 0);
                }
            }
        }
        cov.pairs += (templates.len() * per) as u64;
    }

    let mut analyses = Analyses::new(index, world);
    let mut windows: HashSet<(usize, Vec<u32>)> = HashSet::new();
    let mut order: Vec<usize> = by_variant.keys().copied().collect();
    order.sort_unstable();
    for v in order {
        let q = &variants[v];
        let ranked: Vec<(u32, f64)> = by_variant[&v].iter().map(|&d| (d, 0.0)).collect();
        let all: Vec<usize> = (0..ranked.len()).collect();
        for cut in index.cut_hits(&index.terms().ids(q), &ranked, &all) {
            let body = &bodies[cut.hit.doc as usize];
            assert_eq!(cut.hit.snippet, extract_snippet(body, q, WINDOW), "doc {} q {q:?}", cut.hit.doc);
            cov.cuts += 1;
            if windows.insert((cut.segment, cut.forms.clone())) {
                cov.windows += 1;
                cov.placed_windows += u64::from(analyses.check(cut.segment, &cut.forms, &cut.hit.snippet));
            }
        }
    }
    cov
}

#[test]
fn stream_cuts_and_form_analyses_equal_the_string_path_on_the_paper_world() {
    let w = ExperimentWorld::build(ExperimentSpec::default_paper());
    let bodies: Vec<String> = w.corpus.docs.iter().map(|d| d.body.clone()).collect();
    assert_eq!(bodies.len() as u32, w.engine.doc_count());
    for (i, body) in bodies.iter().enumerate() {
        assert_eq!(&w.engine.doc(i as u32).body, body);
    }
    let templates: Vec<String> = w.queries.iter().map(|q| q.text.clone()).collect();
    let cities: Vec<LocId> = w.world.cities().collect();
    assert_eq!((templates.len(), cities.len()), (120, 144));
    let cov = check_world(&w.engine, &bodies, &templates, &w.world, &cities);
    assert_eq!(cov.pairs, 8_000 * 120 * 145, "{cov:?}");
    assert!(cov.cuts > 8_000 * 2 && cov.matched_classes > 10_000 && cov.placed_windows > 1_000, "{cov:?}");
}

#[test]
fn stream_cuts_and_form_analyses_equal_the_string_path_on_a_large_world() {
    // The large workload's world at 20 000 docs in 8 segments (its smoke
    // size) and 60 templates.
    let seed = ExperimentSpec::default_paper().seed;
    let world = WorldGen::new(seed).generate(&WorldSpec::default_world());
    let docs = 20_000;
    let gen = CorpusGen::new(seed.wrapping_add(1))
        .doc_gen(CorpusSpec { num_docs: docs, ..CorpusSpec::large() }, &world);
    let bodies: Vec<String> = (0..docs).map(|i| gen.doc(i).body).collect();
    let index = SegmentedIndex::build_parallel(Default::default(), docs, docs / 8, 2, |i| {
        let d = gen.doc(i);
        (d.url, d.title, d.body)
    })
    .expect("generated segments build");
    assert_eq!(index.num_segments(), 8);
    let templates: Vec<String> = QueryGen::new(seed.wrapping_add(3))
        .generate(&QuerySpec { num_queries: 60, ..QuerySpec::default_workload() })
        .into_iter()
        .map(|q| q.text)
        .collect();
    let cities: Vec<LocId> = world.cities().collect();
    let cov = check_world(&index, &bodies, &templates, &world, &cities);
    assert_eq!(cov.pairs, 20_000 * templates.len() as u64 * 145, "{cov:?}");
    assert!(cov.cuts > 20_000 * 2 && cov.matched_classes > 10_000 && cov.placed_windows > 1_000, "{cov:?}");
}

/// Hand-built bodies through one segment: every window of every body
/// against a set of queries, cut from the stream and analysed off the
/// table, equals the string path.
#[test]
fn stream_cuts_and_form_analyses_equal_the_string_path_on_hand_built_segments() {
    let mut world = LocationOntology::new();
    let region = world.add(LocId::WORLD, "westland", vec![]);
    let city = world.add(region, "port alden", vec!["İzmir".to_string()]);
    world.add(region, "o'hare", vec![]);
    let filler = |n: usize| vec!["filler"; n].join(" ");
    let (l41, l61) = ("l".repeat(41), "m".repeat(61));
    let bodies: Vec<String> = vec![
        String::new(),
        "   !!! ,,, ''".to_string(),
        "the of and a to in".to_string(),
        "x".to_string(),
        "The QUICK Seafood SHACK in PORT ALDEN serves LOBSTER Rolls".to_string(),
        "Köln CAFÉ crêpes über straße naïve résumé — DON'T stop at İzmir or İSTANBUL seafood".to_string(),
        "İ İ i̇ İzmir İzmir seafood İ".to_string(),
        "it's o'hare's gate, dogs' 'quoted' o'hare rock'n'roll seafood don't".to_string(),
        format!("seafood {l41} port {l61} alden {l41}{l61} lobster {l61} seafood"),
        // For "seafood lobster", "port alden" straddles the left edge of
        // the best window …
        format!("{} port alden {} seafood lobster seafood lobster {}", filler(30), filler(19), filler(30)),
        // … and the right edge.
        format!("seafood lobster seafood lobster {} port alden {}", filler(19), filler(30)),
    ];
    let mut b = SegmentBuilder::new(Analyzer::default());
    for (i, body) in bodies.iter().enumerate() {
        b.add(&format!("u{i}"), "title", body);
    }
    let index = SegmentedIndex::from_segments(vec![b.finish_segment().expect("round trip")]).expect("index");
    let mut analyses = Analyses::new(&index, &world);
    let queries: Vec<Vec<String>> = [
        "seafood lobster",
        "seafood",
        "lobster seafood seafood",
        "quick shack",
        "dogs o'hare",
        "izmir seafood",
        "zzz",
        "",
        &format!("{l41} seafood"),
    ]
    .iter()
    .map(|q| index.analyze_text(q))
    .chain([vec!["the".to_string(), "of".to_string()], vec![l61.clone()]])
    .collect();
    let ranked: Vec<(u32, f64)> = (0..bodies.len() as u32).map(|d| (d, 0.0)).collect();
    let all: Vec<usize> = (0..ranked.len()).collect();
    let (mut placed, mut straddled) = (0, 0);
    for q in &queries {
        for cut in index.cut_hits(&index.terms().ids(q), &ranked, &all) {
            let body = &bodies[cut.hit.doc as usize];
            assert_eq!(cut.hit.snippet, extract_snippet(body, q, WINDOW), "{body:?} {q:?}");
            placed += usize::from(analyses.check(cut.segment, &cut.forms, &cut.hit.snippet));
            let s = &cut.hit.snippet;
            straddled += usize::from(s.starts_with("alden ") || s.ends_with(" port"));
        }
    }
    assert!(placed > 0 && straddled >= 2, "{placed} placed, {straddled} straddled");
    // Every window of every body, not only the query-biased one.
    let seg = &index.segments()[0];
    for body in &bodies {
        let tokens = pws_text::tokenize(body);
        for start in 0..tokens.len() {
            for end in start + 1..=tokens.len().min(start + WINDOW) {
                let ids: Vec<u32> = tokens[start..end]
                    .iter()
                    .map(|t| seg.forms().iter().position(|f| f == t).expect("every token is a form") as u32)
                    .collect();
                analyses.check(0, &ids, &tokens[start..end].join(" "));
            }
        }
    }
    assert!(analyses.matcher.locations_in("port alden İzmir").contains(&city));
}
