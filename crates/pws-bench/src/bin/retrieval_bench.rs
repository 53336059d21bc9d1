//! Base-retrieval benchmark: the exhaustive oracle vs the top-k scan over
//! one in-RAM segment, the same behind the serving cache, and over
//! segments re-opened from disk.
//!
//! ```text
//! cargo run -p pws-bench --release --bin retrieval_bench                  # paper scale (8k docs)
//! cargo run -p pws-bench --release --bin retrieval_bench -- --scale large # 1M docs, on-disk segments
//! cargo run -p pws-bench --release --bin retrieval_bench -- --smoke      # CI gate
//! ```
//!
//! `pws-index` has one index layout (the segment) and one top-k executor
//! (one exhaustive term-at-a-time scan); at paper scale three rows answer the same
//! query workload over the same corpus:
//!
//! * **naive** — [`SegmentedIndex::search_exhaustive`], the term-at-a-time
//!   oracle (score every matching document, sort everything) that the
//!   executor is gated against;
//! * **cached** — [`SegmentedIndex::rank_tokens`] on
//!   `ExperimentWorld.engine` (the single segment [`IndexBuilder`] built
//!   in RAM) behind `pws-core`'s [`RetrievalCache`] (analyse to ids once,
//!   probe, rank on a miss, cut and analyse each hit's snippet the first
//!   time it is taken), the configuration the serving layer runs;
//! * **segmented** — [`SegmentedIndex::search`] over four segment files
//!   written, then re-opened from disk.
//!
//! Every query's results are compared across rows first —
//! **bit-identical scores and identical pages are required**, and any
//! disagreement exits non-zero (this is the correctness gate
//! `scripts/check.sh` runs in `--smoke` mode; smoke mode also exercises
//! the full segment write → load → search round trip and runs a small
//! segment through the shared container gauntlet). Then each row is
//! timed under the `bench.retrieval.*` stages.
//!
//! `--scale large` builds a ≥1M-document corpus into on-disk segments
//! (parallel, thread-count-invariant), records build time and index
//! size, verifies the scan against exhaustive scoring on every
//! fixture query, and measures QPS/p50/p95/p99 through the segmented
//! backend. All scales merge into `results/BENCH_retrieval.json` under
//! a `scales` array keyed by scale name.
//!
//! [`IndexBuilder`]: pws_index::IndexBuilder
//! [`SegmentedIndex::search`]: pws_index::SegmentedIndex::search
//! [`SegmentedIndex::rank_tokens`]: pws_index::SegmentedIndex::rank_tokens
//! [`SegmentedIndex::search_exhaustive`]: pws_index::SegmentedIndex::search_exhaustive

use pws_core::{RankedPool, RetrievalCache, SnippetAnalyst};
use pws_corpus::{CorpusGen, CorpusSpec, Query, QueryGen, QuerySpec};
use pws_eval::{ExperimentSpec, ExperimentWorld};
use pws_geo::{WorldGen, WorldSpec};
use pws_index::{SearchHit, Segment, SegmentBuilder, SegmentedIndex, SEGMENT_FORMAT};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Pool size per query — the serving layer's default rerank pool.
const POOL_K: usize = 30;

/// Minimum measured queries per backend (rounds are sized to reach it).
const MIN_MEASURED_QUERIES: usize = 2_000;

/// Documents per segment at the large tier: 1M docs → 16 segments.
const LARGE_DOCS_PER_SEGMENT: usize = 65_536;

type BackendFn<'a> = Box<dyn Fn(&str) -> Vec<SearchHit> + 'a>;

struct Backend<'a> {
    name: &'static str,
    stage: &'static str,
    run: BackendFn<'a>,
}

fn backends<'a>(
    engine: &'a SegmentedIndex,
    cache: &'a RetrievalCache,
    analyst: &'a SnippetAnalyst,
    segmented: &'a SegmentedIndex,
) -> Vec<Backend<'a>> {
    vec![
        Backend {
            name: "naive",
            stage: "bench.retrieval.naive",
            run: Box::new(move |q| engine.search_exhaustive(q, POOL_K)),
        },
        Backend {
            name: "cached",
            stage: "bench.retrieval.cached",
            run: Box::new(move |q| cached_search(engine, cache, analyst, q)),
        },
        Backend {
            name: "segmented",
            stage: "bench.retrieval.segmented",
            run: Box::new(move |q| segmented.search(q, POOL_K)),
        },
    ]
}

/// What the engine core does per base retrieval: analyse to ids once, probe the
/// cache, fall through to the index on a miss (rank only) and fill; then
/// take every hit of the pool — cutting and analysing the snippets nobody
/// cut yet — and copy each out once, as the engine does into its base
/// candidate pool.
fn cached_search(
    index: &SegmentedIndex,
    cache: &RetrievalCache,
    analyst: &SnippetAnalyst,
    q: &str,
) -> Vec<SearchHit> {
    let query = index.terms().analyze(q);
    let pool = cache.get(&query, query.len(), POOL_K).unwrap_or_else(|| {
        let ranked = index.rank_tokens(&query, None, POOL_K).0;
        let pool = Arc::new(RankedPool::new(query, ranked));
        cache.put(POOL_K, Arc::clone(&pool));
        pool
    });
    let all: Vec<usize> = (0..pool.ranked().len()).collect();
    pool.cut(index, &all, analyst).into_iter().map(|(p, _)| p.hit.clone()).collect()
}

/// Exact equivalence: same page, same ranks, bit-identical scores.
fn hits_equal(a: &[SearchHit], b: &[SearchHit]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.doc == y.doc
                && x.rank == y.rank
                && x.score.to_bits() == y.score.to_bits()
                && x.url == y.url
                && x.title == y.title
                && x.snippet == y.snippet
        })
}

/// Split the world's corpus into on-disk segments, re-open them from
/// their files, and assemble a [`SegmentedIndex`] — so everything the
/// segmented backend serves has round-tripped through the format.
fn segmented_from_disk(
    world: &ExperimentWorld,
    dir: &Path,
    num_segments: usize,
) -> (SegmentedIndex, f64) {
    let build_start = Instant::now();
    let _ = fs::remove_dir_all(dir);
    fs::create_dir_all(dir).expect("create segment dir");
    let per = world.corpus.len().div_ceil(num_segments.max(1)).max(1);
    let mut paths: Vec<PathBuf> = Vec::new();
    for (s, chunk) in world.corpus.docs.chunks(per).enumerate() {
        let mut b = SegmentBuilder::new(Default::default());
        for d in chunk {
            b.add(&d.url, &d.title, &d.body);
        }
        let seg = b.finish_segment().expect("segment build");
        let path = dir.join(format!("seg{s:03}.pws"));
        seg.write_file(&path).expect("segment write");
        paths.push(path);
    }
    let segments: Vec<Segment> =
        paths.iter().map(|p| Segment::open(p).expect("segment open")).collect();
    let idx = SegmentedIndex::from_segments(segments).expect("assemble segmented index");
    (idx, build_start.elapsed().as_secs_f64())
}

/// A segment of the world's first documents through the shared container
/// gauntlet: every byte flip, prefix and section-table mutation must fail
/// [`Segment::load_bytes`] with a typed error — never a panic, never a
/// successful load. Returns how many damaged copies were tried.
fn check_corruption_detection(world: &ExperimentWorld) -> usize {
    let mut b = SegmentBuilder::new(Default::default());
    for d in world.corpus.docs.iter().take(4) {
        b.add(&d.url, &d.title, &d.body);
    }
    SEGMENT_FORMAT.gauntlet(&b.finish(), |bad| Segment::load_bytes(bad).is_err())
}

fn verify(
    world: &ExperimentWorld,
    cache: &RetrievalCache,
    analyst: &SnippetAnalyst,
    segmented: &SegmentedIndex,
) -> usize {
    let mut disagreements = 0;
    for q in &world.queries {
        let naive = world.engine.search_exhaustive(&q.text, POOL_K);
        let checks: [(&str, Vec<SearchHit>); 5] = [
            ("in-RAM segment", world.engine.search(&q.text, POOL_K)),
            // Cached: probe twice so both the miss (fill) and the hit
            // (serve from cache) paths are checked against the reference.
            ("cache miss", cached_search(&world.engine, cache, analyst, &q.text)),
            ("cache hit", cached_search(&world.engine, cache, analyst, &q.text)),
            // Segmented (from disk): the scan must match both the
            // in-RAM reference and its own exhaustive scorer.
            ("on-disk segments", segmented.search(&q.text, POOL_K)),
            ("on-disk exhaustive", segmented.search_exhaustive(&q.text, POOL_K)),
        ];
        for (what, hits) in &checks {
            if !hits_equal(&naive, hits) {
                eprintln!("DISAGREEMENT {what} vs exhaustive oracle on query {:?}", q.text);
                disagreements += 1;
                break;
            }
        }
    }
    disagreements
}

#[derive(serde::Serialize, serde::Deserialize)]
struct BackendReport {
    backend: String,
    queries: u64,
    qps: f64,
    p50_us: f64,
    p95_us: f64,
    p99_us: f64,
    mean_us: f64,
}

#[derive(serde::Serialize, serde::Deserialize)]
struct IndexReport {
    segments: usize,
    build_secs: f64,
    index_bytes: u64,
    vocab_terms: usize,
}

#[derive(serde::Serialize, serde::Deserialize)]
struct Report {
    scale: String,
    num_docs: usize,
    num_query_templates: usize,
    pool_k: usize,
    /// Segmented-index build/size stats (`null` in legacy entries).
    index: Option<IndexReport>,
    backends: Vec<BackendReport>,
}

/// The on-disk shape of `results/BENCH_retrieval.json`: one entry per
/// benchmark scale, accumulated across runs.
#[derive(serde::Serialize, serde::Deserialize)]
struct ScalesFile {
    scales: Vec<Report>,
}

/// Time one backend over `rounds` passes of the workload.
fn time_backend(
    name: &str,
    stage_name: &'static str,
    queries: &[Query],
    rounds: usize,
    run: &dyn Fn(&str) -> Vec<SearchHit>,
) -> BackendReport {
    // Warmup round: page in postings, fill caches (so cached backends'
    // measured numbers reflect steady-state hit traffic).
    for q in queries {
        std::hint::black_box(run(&q.text));
    }
    let stage = pws_obs::stage(stage_name);
    let mut samples: Vec<u64> = Vec::with_capacity(rounds * queries.len());
    let wall = Instant::now();
    for _ in 0..rounds {
        for q in queries {
            let span = stage.span();
            std::hint::black_box(run(&q.text));
            samples.push(span.finish());
        }
    }
    let elapsed = wall.elapsed().as_secs_f64();
    // Exact percentiles from the raw samples — the registry's log₂
    // histogram buckets are too coarse to separate the backends.
    samples.sort_unstable();
    let pct = |q: f64| -> f64 {
        let idx = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len()) - 1;
        samples[idx] as f64 / 1_000.0
    };
    let report = BackendReport {
        backend: name.to_string(),
        queries: samples.len() as u64,
        qps: samples.len() as f64 / elapsed,
        p50_us: pct(0.50),
        p95_us: pct(0.95),
        p99_us: pct(0.99),
        mean_us: samples.iter().sum::<u64>() as f64 / samples.len() as f64 / 1_000.0,
    };
    println!(
        "{:<10} {:>7} queries  {:>10.0} qps  p50 {:>8.1}µs  p95 {:>8.1}µs  p99 {:>8.1}µs",
        report.backend, report.queries, report.qps, report.p50_us, report.p95_us, report.p99_us
    );
    report
}

/// Merge `report` into `results/BENCH_retrieval.json`, replacing any
/// existing entry for the same scale and preserving the others (so the
/// paper and large tiers accumulate into one file).
fn write_report(report: Report) {
    let path = "results/BENCH_retrieval.json";
    let mut scales: Vec<Report> = fs::read_to_string(path)
        .ok()
        .and_then(|old| serde_json::from_str::<ScalesFile>(&old).ok())
        .map(|f| f.scales)
        .unwrap_or_default();
    scales.retain(|s| s.scale != report.scale);
    scales.push(report);
    scales.sort_by(|a, b| a.scale.cmp(&b.scale));
    let _ = fs::create_dir_all("results");
    match serde_json::to_string_pretty(&ScalesFile { scales }) {
        Ok(json) => {
            if let Err(e) = fs::write(path, json) {
                eprintln!("warn: could not write {path}: {e}");
            } else {
                eprintln!("wrote {path}");
            }
        }
        Err(e) => eprintln!("warn: could not serialize report: {e}"),
    }
}

/// The paper-scale (and smoke) flow: in-memory world + disk-round-trip
/// segmented index, full cross-backend verification, then timing.
fn run_world_scale(scale: &'static str, spec: ExperimentSpec, smoke: bool) {
    eprintln!("building {scale} world…");
    let world = ExperimentWorld::build(spec);
    let seg_dir = std::env::temp_dir().join(format!("pws_retrieval_bench_{scale}"));
    let (segmented, build_secs) = segmented_from_disk(&world, &seg_dir, 4);

    // ── Correctness gate ─────────────────────────────────────────────
    let verify_cache = RetrievalCache::new(4096);
    let analyst = SnippetAnalyst::new(&world.engine, &world.world);
    let disagreements = verify(&world, &verify_cache, &analyst, &segmented);
    if disagreements > 0 {
        eprintln!(
            "FAIL: {disagreements} of {} queries disagree between backends",
            world.queries.len()
        );
        std::process::exit(1);
    }
    println!(
        "correctness: the top-k scan over the in-RAM segment, the cache, and the \
         on-disk segments bit-identical to the exhaustive oracle on all {} queries",
        world.queries.len()
    );
    println!(
        "correctness: {} corrupted/truncated/table-mutated segment files fail load with typed errors",
        check_corruption_detection(&world)
    );
    if smoke {
        // The gates are the point of smoke mode; skip the timing runs so
        // check.sh stays fast.
        let _ = fs::remove_dir_all(&seg_dir);
        return;
    }

    // ── Timing ───────────────────────────────────────────────────────
    let rounds = MIN_MEASURED_QUERIES.div_ceil(world.queries.len()).max(1);
    let bench_cache = RetrievalCache::new(4096);
    let mut reports = Vec::new();
    for b in backends(&world.engine, &bench_cache, &analyst, &segmented) {
        reports.push(time_backend(b.name, b.stage, &world.queries, rounds, &b.run));
    }
    let _ = fs::remove_dir_all(&seg_dir);

    write_report(Report {
        scale: scale.to_string(),
        num_docs: world.corpus.len(),
        num_query_templates: world.queries.len(),
        pool_k: POOL_K,
        index: Some(IndexReport {
            segments: segmented.num_segments(),
            build_secs,
            index_bytes: segmented.index_bytes() as u64,
            vocab_terms: segmented.vocab_size(),
        }),
        backends: reports,
    });
}

/// The large tier: stream a ≥1M-document corpus straight into parallel
/// segment builds (never holding the corpus in memory), persist every
/// segment, re-open from disk, verify the scan vs exhaustive on the fixture
/// workload, then measure the segmented backend.
fn run_large() {
    let spec = CorpusSpec::large();
    let num_docs = spec.num_docs;
    let seed = 42u64;
    eprintln!("building large world ({num_docs} docs)…");
    let ontology = WorldGen::new(seed).generate(&WorldSpec::default_world());
    let docs = CorpusGen::new(seed.wrapping_add(1)).doc_gen(spec, &ontology);
    let queries = QueryGen::new(seed.wrapping_add(3)).generate(&QuerySpec::default_workload());

    let threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let build_start = Instant::now();
    let built = SegmentedIndex::build_parallel(
        Default::default(),
        num_docs,
        LARGE_DOCS_PER_SEGMENT,
        threads,
        |i| {
            let d = docs.doc(i);
            (d.url, d.title, d.body)
        },
    )
    .expect("large segmented build");
    let build_secs = build_start.elapsed().as_secs_f64();

    // Persist every segment and re-open from disk — the benchmark runs
    // against files, not against the build's in-memory byte buffers.
    let seg_dir = std::env::temp_dir().join("pws_retrieval_bench_large");
    let _ = fs::remove_dir_all(&seg_dir);
    fs::create_dir_all(&seg_dir).expect("create segment dir");
    let mut paths = Vec::new();
    for (s, seg) in built.segments().iter().enumerate() {
        let path = seg_dir.join(format!("seg{s:03}.pws"));
        seg.write_file(&path).expect("segment write");
        paths.push(path);
    }
    drop(built);
    let load_start = Instant::now();
    let segments: Vec<Segment> =
        paths.iter().map(|p| Segment::open(p).expect("segment open")).collect();
    let segmented = SegmentedIndex::from_segments(segments).expect("assemble");
    let load_secs = load_start.elapsed().as_secs_f64();
    let index_bytes = segmented.index_bytes() as u64;
    eprintln!(
        "built {} segments over {} docs in {build_secs:.1}s \
         ({:.1} MB on disk, loaded in {load_secs:.2}s)",
        segmented.num_segments(),
        segmented.doc_count(),
        index_bytes as f64 / 1e6
    );

    // ── Correctness gate: the scan vs exhaustive on every fixture query ───
    let mut disagreements = 0;
    for q in &queries {
        let scan = segmented.search(&q.text, POOL_K);
        let full = segmented.search_exhaustive(&q.text, POOL_K);
        if !hits_equal(&scan, &full) {
            eprintln!("DISAGREEMENT scan vs exhaustive on query {:?}", q.text);
            disagreements += 1;
        }
    }
    if disagreements > 0 {
        eprintln!("FAIL: {disagreements} of {} queries disagree", queries.len());
        std::process::exit(1);
    }
    println!(
        "correctness: the top-k scan bit-identical to exhaustive scoring \
         on all {} queries at {} docs",
        queries.len(),
        segmented.doc_count()
    );

    // ── Timing ───────────────────────────────────────────────────────
    let rounds = MIN_MEASURED_QUERIES.div_ceil(queries.len()).max(1);
    let bench_cache = RetrievalCache::new(4096);
    let analyst = SnippetAnalyst::new(&segmented, &ontology);
    let reports = vec![
        time_backend("segmented", "bench.retrieval.segmented", &queries, rounds, &|q| {
            segmented.search(q, POOL_K)
        }),
        time_backend("seg+cache", "bench.retrieval.segcached", &queries, rounds, &|q| {
            cached_search(&segmented, &bench_cache, &analyst, q)
        }),
    ];
    let _ = fs::remove_dir_all(&seg_dir);

    write_report(Report {
        scale: "large".to_string(),
        num_docs,
        num_query_templates: queries.len(),
        pool_k: POOL_K,
        index: Some(IndexReport {
            segments: segmented.num_segments(),
            build_secs,
            index_bytes,
            vocab_terms: segmented.vocab_size(),
        }),
        backends: reports,
    });
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let scale = args
        .iter()
        .position(|a| a == "--scale")
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
        .unwrap_or(if smoke { "smoke" } else { "paper" });
    match scale {
        "smoke" => run_world_scale("smoke", ExperimentSpec::small(), true),
        "paper" => run_world_scale("paper", ExperimentSpec::default_paper(), smoke),
        "large" => run_large(),
        other => {
            eprintln!("unknown --scale {other:?} (expected smoke | paper | large)");
            std::process::exit(2);
        }
    }
}
