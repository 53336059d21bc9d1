//! Power-user search features of the underlying engine: phrase queries,
//! boolean operators, and index persistence (write the checksummed segment
//! file, reopen it, identical results — no re-indexing on restart).
//!
//! ```text
//! cargo run --release --example power_search
//! ```

use pws::eval::{ExperimentSpec, ExperimentWorld};
use pws::index::{SearchEngine, Segment};

fn main() {
    let world = ExperimentWorld::build(ExperimentSpec::small());
    let engine = &world.engine;

    // Pick a multi-word city so the phrase query is meaningful.
    let city = world
        .world
        .cities()
        .find(|&c| world.world.name(c).contains(' '))
        .expect("small world has multi-word city names");
    let city_name = world.world.name(city).to_string();

    println!("── structured queries ──");
    for q in [
        format!("\"{city_name}\""),
        format!("restaurant AND \"{city_name}\""),
        "seafood OR sushi".to_string(),
        "restaurant AND NOT buffet".to_string(),
        "(hotel OR resort) AND booking".to_string(),
    ] {
        match engine.search_expr(&q, 5) {
            Ok(hits) => {
                println!("\n{q}  →  {} hits", hits.len());
                for h in hits.iter().take(3) {
                    println!("  {}. {}", h.rank, h.title);
                }
            }
            Err(e) => println!("\n{q}  →  {e}"),
        }
    }

    // Malformed queries fail cleanly.
    println!("\n── error handling ──");
    for bad in ["\"unterminated", "AND", "(open"] {
        println!("{bad:?} → {}", engine.search_expr(bad, 5).unwrap_err());
    }

    // Persistence: write the segment file, reopen it, verify identity.
    println!("\n── persistence ──");
    let dir = std::env::temp_dir().join(format!("pws-power-search-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let mut reopened = Vec::new();
    for (i, seg) in engine.segments().iter().enumerate() {
        let path = dir.join(format!("seg{i}.pws"));
        seg.write_file(&path).expect("write segment");
        reopened.push(Segment::open(&path).expect("checksums verify on open"));
    }
    println!(
        "wrote {} docs / {} terms as {} segment file(s), {} KiB",
        engine.doc_count(),
        engine.vocab_size(),
        engine.num_segments(),
        engine.index_bytes() / 1024
    );
    let reloaded = SearchEngine::from_segments(reopened).expect("assemble");
    let _ = std::fs::remove_dir_all(&dir);
    let q = "seafood restaurant";
    let a = engine.search(q, 10);
    let b = reloaded.search(q, 10);
    assert_eq!(
        a.iter().map(|h| h.doc).collect::<Vec<_>>(),
        b.iter().map(|h| h.doc).collect::<Vec<_>>()
    );
    println!("reloaded engine returns identical results for {q:?} ✓");
}
