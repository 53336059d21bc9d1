//! T4 — index build throughput and query latency.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use pws_bench::bench_world;
use pws_index::{Analyzer, IndexBuilder, SegmentBuilder, StoredDoc};

/// `n` documents of a 3-word title and a `body_words`-word body, no word
/// repeated anywhere: letters spelling a running count, plus a suffix
/// Porter works on. Returns the documents and their token count.
fn distinct_token_docs(n: usize, body_words: usize) -> (Vec<(String, String)>, u64) {
    const SUFFIXES: [&str; 8] = ["ing", "ations", "ness", "ed", "s", "ful", "ization", ""];
    let mut next = 0usize;
    let mut words = |k: usize| {
        let ws: Vec<String> = (0..k)
            .map(|_| {
                next += 1;
                let mut w: String =
                    (0..4).map(|d| char::from(b'a' + (next / 26usize.pow(d) % 26) as u8)).collect();
                w.push_str(SUFFIXES[next % SUFFIXES.len()]);
                w
            })
            .collect();
        ws.join(" ")
    };
    let docs: Vec<(String, String)> = (0..n).map(|_| (words(3), words(body_words))).collect();
    (docs, (n * (3 + body_words)) as u64)
}

fn bench_index(c: &mut Criterion) {
    let world = bench_world();

    let mut g = c.benchmark_group("index");

    // Build: docs/sec over the 2k-doc corpus.
    g.throughput(Throughput::Elements(world.corpus.len() as u64));
    g.bench_function("build_2k_docs", |b| {
        b.iter_batched(
            IndexBuilder::new,
            |mut builder| {
                for d in &world.corpus.docs {
                    builder.add(StoredDoc::new(d.id.0, &d.url, &d.title, &d.body));
                }
                builder.build()
            },
            BatchSize::LargeInput,
        )
    });

    // The long tail of the word table: every token a word never seen
    // before, on a fresh thread (so an empty table) per build — the table
    // fills, then answers the rest uncached. Throughput is per token.
    let (docs, tokens) = distinct_token_docs(1_000, 100);
    g.throughput(Throughput::Elements(tokens));
    g.bench_function("build_distinct_tokens", |b| {
        b.iter(|| {
            std::thread::scope(|s| {
                s.spawn(|| {
                    let mut builder = SegmentBuilder::new(Analyzer::default());
                    for (i, (title, body)) in docs.iter().enumerate() {
                        builder.add(&format!("u{i}"), title, body);
                    }
                    builder.finish().len()
                })
                .join()
                .expect("build thread")
            })
        })
    });
    // Block decode: every postings block of the 2k-doc corpus's segment,
    // once per iteration. Throughput is per posting.
    let mut builder = SegmentBuilder::new(Analyzer::default());
    for d in &world.corpus.docs {
        builder.add(&d.url, &d.title, &d.body);
    }
    let segment = builder.finish_segment().expect("a freshly built segment loads");
    g.throughput(Throughput::Elements(segment.decode_all_blocks()));
    g.bench_function("decode_all_blocks_2k_docs", |b| {
        b.iter(|| std::hint::black_box(segment.decode_all_blocks()))
    });
    g.throughput(Throughput::Elements(1));

    // Query latency across the workload (amortized per query).
    let queries: Vec<&str> = world.queries.iter().map(|q| q.text.as_str()).collect();
    g.bench_function("query_top10", |b| {
        let mut i = 0;
        b.iter(|| {
            let q = queries[i % queries.len()];
            i += 1;
            std::hint::black_box(world.engine.search(q, 10))
        })
    });
    g.bench_function("query_top30_pool", |b| {
        let mut i = 0;
        b.iter(|| {
            let q = queries[i % queries.len()];
            i += 1;
            std::hint::black_box(world.engine.search(q, 30))
        })
    });
    g.finish();
}

criterion_group!(benches, bench_index);
criterion_main!(benches);
