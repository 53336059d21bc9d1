//! Integration tests for the extension features: structured queries,
//! index persistence, SpyNB pair mining, geo-smoothed scoring and session
//! refinement chains — all through the facade.

use pws::click::{SessionSimulator, SimConfig, UserId};
use pws::core::{EngineConfig, PairSource, PersonalizedSearchEngine};
use pws::corpus::session::{generate_session, Refinement, SessionSpec};
use pws::corpus::vocab::Topics;
use pws::eval::{ExperimentSpec, ExperimentWorld};
use pws::geo::WorldCoords;
use pws::index::{SearchEngine, Segment};
use pws::profile::SpyNbConfig;

fn world() -> ExperimentWorld {
    ExperimentWorld::build(ExperimentSpec::small())
}

#[test]
fn structured_queries_work_on_generated_corpus() {
    let w = world();
    // Every workload template should be a valid structured query too.
    for q in &w.queries {
        let hits = w.engine.search_expr(&q.text, 10).expect("bag-of-words parses");
        let plain = w.engine.search(&q.text, 10);
        let a: std::collections::HashSet<u32> = hits.iter().map(|h| h.doc).collect();
        let b: std::collections::HashSet<u32> = plain.iter().map(|h| h.doc).collect();
        assert_eq!(a, b, "expr vs plain mismatch for {:?}", q.text);
    }
    // Phrase query on a multi-word city name.
    let multiword_city: Option<pws::geo::LocId> =
        w.world.cities().find(|&c| w.world.name(c).contains(' '));
    if let Some(city) = multiword_city {
        let phrase = format!("\"{}\"", w.world.name(city));
        let hits = w.engine.search_expr(&phrase, 10).expect("phrase parses");
        // Every hit must contain the full city name in its text.
        for h in hits {
            let doc = w.corpus.doc(pws::corpus::DocId(h.doc));
            assert!(
                doc.full_text().contains(w.world.name(city)),
                "phrase match without the phrase"
            );
        }
    }
}

#[test]
fn full_index_round_trips_through_persistence() {
    let w = world();
    // Persist: one checksummed `PWSSEG1` file per segment. Reload: open
    // the files and assemble — no re-indexing.
    let dir = std::env::temp_dir().join(format!("pws-ext-persist-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let mut reopened = Vec::new();
    for (i, seg) in w.engine.segments().iter().enumerate() {
        let path = dir.join(format!("seg{i}.pws"));
        seg.write_file(&path).expect("write");
        assert!(std::fs::metadata(&path).expect("stat").len() > 1000);
        reopened.push(Segment::open(&path).expect("open"));
    }
    let reloaded = SearchEngine::from_segments(reopened).expect("assemble");
    let _ = std::fs::remove_dir_all(&dir);
    for q in w.queries.iter().take(10) {
        assert_eq!(w.engine.search(&q.text, 10), reloaded.search(&q.text, 10), "query {:?}", q.text);
    }
}

/// Phrase / boolean results `(doc, score bits)` captured from the
/// positional-postings implementation this index replaced (20 queries on
/// `ExperimentSpec::small()` plus a hand-written fixture): verifying a
/// phrase against the stored text reproduces them exactly.
#[test]
fn phrase_queries_match_positional_golden() {
    let golden = include_str!("golden/phrase_queries.tsv");
    let (small, fixture) = golden.split_once("#fixture\n").expect("two sections");
    let w = world();
    let mut b = pws::index::IndexBuilder::new();
    for (i, (title, body)) in [
        ("Crab shack", "fresh lobster roll and seafood daily"),
        ("Roll call", "drum roll and lobster bisque tonight"),
        ("Phones", "android battery and screen repair"),
        ("Mixed", "seafood platter with android app ordering"),
        ("Lobster roll stand", "the best lobster roll in town lobster roll lovers agree"),
        ("Port Alden guide", "visit port alden harbor and the port of lakemoor alden street"),
    ]
    .iter()
    .enumerate()
    {
        b.add(pws::index::StoredDoc::new(i as u32, &format!("u{i}"), title, body));
    }
    let fixture_engine = b.build();
    let mut checked = 0;
    for (engine, section) in [(&w.engine, small), (&fixture_engine, fixture)] {
        for line in section.lines() {
            let (query, want) = line.split_once('\t').expect("query<TAB>hits");
            let got: Vec<String> = engine
                .search_expr(query, 10)
                .expect("golden queries parse")
                .iter()
                .map(|h| format!("{}:{:016x}", h.doc, h.score.to_bits()))
                .collect();
            assert_eq!(got.join(","), want, "query {query}");
            checked += 1;
        }
    }
    assert_eq!(checked, 30);
}

#[test]
fn spynb_engine_learns_and_ranks() {
    let w = world();
    let cfg = EngineConfig {
        pair_source: PairSource::SpyNb(SpyNbConfig::default()),
        retrain_every: 3,
        ..EngineConfig::default()
    };
    let mut engine = PersonalizedSearchEngine::new(&w.engine, &w.world, cfg);
    let mut sim = SessionSimulator::new(
        &w.engine,
        &w.corpus,
        &w.world,
        &w.population,
        &w.queries,
        SimConfig { top_k: 10, seed: 13 },
    );
    let user = UserId(1);
    for _ in 0..12 {
        let qid = sim.sample_query(user);
        let q = &w.queries[qid.index()];
        let intent = sim.sample_intent_city(user);
        let text = sim.render_query(q, intent);
        let turn = engine.search(user, &text);
        let outcome = sim.issue_on_hits(user, qid, intent, &text, &turn.hits);
        engine.observe(&turn, &outcome.impression);
    }
    let state = engine.user_state(user).expect("state");
    assert_eq!(state.observations, 12);
    // SpyNB mines pairs only when clicks and clear negatives coexist; the
    // engine must stay functional either way.
    let turn = engine.search(user, &w.queries[0].text);
    assert!(turn.hits.len() <= 10);
}

#[test]
fn geo_engine_runs_end_to_end() {
    let w = world();
    let coords = WorldCoords::generate(&w.world, w.spec.seed);
    let mut engine = PersonalizedSearchEngine::new(&w.engine, &w.world, EngineConfig::default())
        .with_geo(&coords, 800.0);
    let mut sim = SessionSimulator::new(
        &w.engine,
        &w.corpus,
        &w.world,
        &w.population,
        &w.queries,
        SimConfig { top_k: 10, seed: 17 },
    );
    for i in 0..15 {
        let user = UserId(i % w.population.len() as u32);
        let qid = sim.sample_query(user);
        let q = &w.queries[qid.index()];
        let intent = sim.sample_intent_city(user);
        let text = sim.render_query(q, intent);
        let turn = engine.search(user, &text);
        assert_eq!(turn.features.len(), turn.hits.len());
        let outcome = sim.issue_on_hits(user, qid, intent, &text, &turn.hits);
        engine.observe(&turn, &outcome.impression);
    }
}

#[test]
fn sessions_replay_through_the_engine() {
    let w = world();
    let topics = Topics::first(w.spec.corpus.num_topics);
    let mut engine =
        PersonalizedSearchEngine::new(&w.engine, &w.world, EngineConfig::default());
    let mut sim = SessionSimulator::new(
        &w.engine,
        &w.corpus,
        &w.world,
        &w.population,
        &w.queries,
        SimConfig { top_k: 10, seed: 23 },
    );
    let user = UserId(0);
    let qid = sim.sample_query(user);
    let q = &w.queries[qid.index()];
    let steps = generate_session(q, &topics, &SessionSpec { steps: (3, 5), specialize_prob: 0.7 }, 5);
    assert!(!steps.is_empty());
    assert_eq!(steps[0].refinement, Refinement::Initial);
    let intent = sim.sample_intent_city(user);
    for step in &steps {
        let turn = engine.search(user, &step.text);
        let outcome = sim.issue_on_hits(user, qid, intent, &step.text, &turn.hits);
        engine.observe(&turn, &outcome.impression);
    }
    assert_eq!(
        engine.user_state(user).expect("state").observations,
        steps.len() as u64
    );
}
