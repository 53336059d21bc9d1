//! Flight-recorder correctness gate: record → reconcile → dump →
//! decode → corrupt.
//!
//! ```text
//! cargo run -p pws-bench --bin flight_smoke     # CI gate (scripts/check.sh)
//! cargo run -p pws-bench --bin flight_smoke -- --out results/flight.pwsflt
//! ```
//!
//! `--out PATH` additionally keeps the verified dump on disk — the file
//! `pws-trace flight PATH` renders (check.sh smoke-tests that pairing).
//!
//! One deterministic replay with the recorder enabled, then four checks:
//!
//! 1. **Inertness** — transcripts with the recorder on are byte-identical
//!    to a recorder-off run of the same log.
//! 2. **Reconciliation** — exactly one [`FlightEvent`](pws_obs::event::FlightEvent) per admitted turn,
//!    and each event's query hash and result-page fingerprint recompute
//!    from the turn that produced it. The `serve.flight.recorded`
//!    counter equals the event count.
//! 3. **Round-trip** — the dump survives encode → write → read → decode
//!    with full equality, and `FlightDump::render` mentions every event.
//! 4. **Corruption gauntlet** — every single-byte flip, prefix
//!    truncation and section-table mutation of the encoded dump (the
//!    shared [`Format::gauntlet`](pws_obs::format::Format::gauntlet)) is
//!    rejected with a typed [`FlightError`](pws_obs::flight::FlightError)
//!    — never a panic, never a silent wrong decode.
//!
//! Any failure prints the offending check and exits non-zero.

use pws_click::{Click, Impression, ShownResult, UserId};
use pws_core::{EngineCore, EngineConfig, SearchTurn};
use pws_corpus::query::QueryId;
use pws_geo::{LocId, LocationOntology};
use pws_index::{IndexBuilder, SearchEngine, StoredDoc};
use pws_obs::event::{page_fingerprint, query_hash};
use pws_obs::flight::{decode_flight_dump, encode_flight_dump, DumpReason, FLIGHT_FORMAT};
use pws_serve::{FlightConfig, SearchBudget, ServeConfig, ServingEngine};
use std::collections::HashMap;

const USERS: u32 = 6;
const ROUNDS: usize = 4;

fn world() -> LocationOntology {
    let mut o = LocationOntology::new();
    let r = o.add(LocId::WORLD, "westland", vec![]);
    let c = o.add(r, "ardonia", vec![]);
    let s = o.add(c, "vale", vec![]);
    o.add(s, "alden", vec![]);
    o.add(s, "lakemoor", vec![]);
    o
}

fn index() -> SearchEngine {
    let mut b = IndexBuilder::new();
    b.add(StoredDoc::new(0, "http://a.test/0", "Seafood guide",
        "seafood restaurant guide with lobster in alden harbor area"));
    b.add(StoredDoc::new(1, "http://b.test/1", "Seafood lakemoor",
        "seafood restaurant in lakemoor with fresh oysters"));
    b.add(StoredDoc::new(2, "http://c.test/2", "Sushi place",
        "sushi restaurant downtown with omakase menu in alden"));
    b.add(StoredDoc::new(3, "http://d.test/3", "Steak house",
        "steak restaurant grill with ribeye specials"));
    b.add(StoredDoc::new(4, "http://e.test/4", "Pizza lakemoor",
        "pizza restaurant in lakemoor stone oven margherita"));
    b.add(StoredDoc::new(5, "http://f.test/5", "Noodle bar",
        "noodle restaurant with ramen and broth in alden"));
    b.build()
}

fn queries_for(u: u32) -> Vec<String> {
    vec![
        format!("seafood restaurant u{u}"),
        format!("restaurant u{u}"),
        format!("seafood restaurant u{u}"),
        format!("sushi restaurant u{u}"),
    ]
}

/// Click the highest doc id on the page (stable, exercises skip-above).
fn impression_from(turn: &SearchTurn) -> Impression {
    let clicked = turn.hits.iter().map(|h| h.doc).max();
    Impression {
        user: turn.user,
        query: QueryId(0),
        query_text: turn.query_text.clone(),
        results: turn
            .hits
            .iter()
            .map(|h| ShownResult {
                doc: h.doc,
                rank: h.rank,
                url: h.url.to_string(),
                title: h.title.to_string(),
                snippet: h.snippet.clone(),
            })
            .collect(),
        clicks: turn
            .hits
            .iter()
            .filter(|h| Some(h.doc) == clicked)
            .map(|h| Click { doc: h.doc, rank: h.rank, dwell: 600 })
            .collect(),
    }
}

/// Round-robin replay; returns per-turn transcripts plus the per-turn
/// (query hash, page fingerprint) pairs the events must reproduce.
#[allow(clippy::type_complexity)]
fn replay(
    e: &ServingEngine<'_>,
) -> (HashMap<(u32, usize), String>, Vec<(u32, u64, u64)>) {
    let mut out = HashMap::new();
    let mut expected = Vec::new();
    for round in 0..ROUNDS {
        for u in 0..USERS {
            let q = &queries_for(u)[round];
            let resp = e
                .search_with(UserId(u), q, SearchBudget::none())
                .expect("no admission limit configured");
            expected.push((
                u,
                query_hash(&EngineCore::query_key(q)),
                page_fingerprint(resp.turn.hits.iter().map(|h| (h.doc, h.rank))),
            ));
            e.observe(&resp.turn, &impression_from(&resp.turn));
            out.insert((u, round), format!("{:?}", resp.turn));
        }
    }
    (out, expected)
}

fn fail(msg: &str) -> ! {
    eprintln!("FAIL: {msg}");
    std::process::exit(1);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let out = args.iter().position(|a| a == "--out").and_then(|i| args.get(i + 1)).cloned().or_else(
        || args.iter().find_map(|a| a.strip_prefix("--out=").map(str::to_string)),
    );
    let idx = index();
    let w = world();
    let serve = |flight: FlightConfig| ServeConfig {
        shards: 3,
        stats_refresh_every: 1,
        flight,
        ..ServeConfig::default()
    };

    // 1. Inertness: recorder off vs on, byte-identical transcripts.
    let off = ServingEngine::new(&idx, &w, EngineConfig::default(), serve(FlightConfig::default()));
    let (reference, _) = replay(&off);
    drop(off);

    pws_obs::reset();
    let on =
        ServingEngine::new(&idx, &w, EngineConfig::default(), serve(FlightConfig::enabled(256)));
    let (recorded, expected) = replay(&on);
    for (key, want) in &reference {
        match recorded.get(key) {
            Some(got) if got == want => {}
            Some(got) => {
                eprintln!("FAIL: turn {key:?} diverged with the recorder on");
                eprintln!("  off: {want}");
                eprintln!("  on:  {got}");
                std::process::exit(1);
            }
            None => fail(&format!("turn {key:?} missing with the recorder on")),
        }
    }

    // 2. Reconciliation: one event per turn, derived fields recompute.
    let events = on.flight_events();
    let total = USERS as usize * ROUNDS;
    if events.len() != total {
        fail(&format!("{} events for {total} turns", events.len()));
    }
    // One-to-one: a user re-issuing a query yields the same query hash
    // but (with personalization drift) a different page fingerprint, so
    // each expected turn must consume a distinct matching event.
    let mut consumed = vec![false; events.len()];
    for (u, qh, page) in &expected {
        let Some(i) = (0..events.len()).find(|&i| {
            let ev = &events[i];
            !consumed[i] && ev.user == *u && ev.query_hash == *qh && ev.page_fingerprint == *page
        }) else {
            fail(&format!("no unconsumed event for user {u} query hash {qh:#x} page {page:#x}"));
        };
        consumed[i] = true;
        if events[i].total_nanos == 0 {
            fail(&format!("user {u}: event has no timings"));
        }
    }
    let recorded_count = pws_obs::snapshot()
        .stage("serve.flight.recorded")
        .map(|s| s.count)
        .unwrap_or(0);
    if recorded_count != total as u64 {
        fail(&format!("serve.flight.recorded = {recorded_count}, want {total}"));
    }

    // 3. Round-trip: dump → file → load → equality, and render coverage.
    let dump = on.flight_dump(DumpReason::OnDemand).expect("recorder is enabled");
    let path = std::env::temp_dir().join(format!("pws-flight-smoke-{}.pwsflt", std::process::id()));
    if let Err(e) = dump.write_to(&path) {
        fail(&format!("write_to: {e}"));
    }
    match pws_obs::flight::FlightDump::read_from(&path) {
        Ok(back) if back == dump => {}
        Ok(_) => fail("file round-trip decoded a different dump"),
        Err(e) => fail(&format!("read_from: {e}")),
    }
    let _ = std::fs::remove_file(&path);
    if let Some(out) = &out {
        if let Some(parent) = std::path::Path::new(out).parent() {
            let _ = std::fs::create_dir_all(parent);
        }
        if let Err(e) = dump.write_to(std::path::Path::new(out)) {
            fail(&format!("--out {out}: {e}"));
        }
    }
    let rendered = dump.render();
    if rendered.lines().count() != dump.events.len() + 1 {
        fail("render() must print a header plus one line per event");
    }

    // 4. Corruption gauntlet: every damaged copy yields a typed error
    //    (it panics, failing this gate, on the first one that does not).
    let good = encode_flight_dump(&dump);
    let rejected = FLIGHT_FORMAT.gauntlet(&good, |bad| decode_flight_dump(bad).is_err());
    if decode_flight_dump(&good).as_ref() != Ok(&dump) {
        fail("pristine encoding stopped decoding after the gauntlet");
    }

    println!(
        "flight smoke OK: {total} turns byte-identical with the recorder on, \
         {total} events reconciled, dump round-tripped ({} bytes), \
         {rejected} damaged copies rejected",
        good.len(),
    );
}
