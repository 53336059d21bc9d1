//! Multi-threaded closed-loop throughput benchmark for `pws-serve`.
//!
//! ```text
//! cargo run -p pws-bench --release --bin serve_bench
//! cargo run -p pws-bench --release --bin serve_bench -- --workers 8 --shards 16
//! cargo run -p pws-bench --release --bin serve_bench -- --requests 2000 --sweep
//! ```
//!
//! Prints QPS and p50/p95/p99 request latency (exact percentiles from
//! the raw per-request samples — see `pws_bench::throughput`) and writes
//! the report plus the full stage profile — including the per-shard
//! `serve.shard{i}.*` stages — to `results/serve_bench.json` /
//! `results/serve_bench_metrics.json`. `--sweep` additionally scans
//! worker counts 1, 2, 4, … up to `--workers` to show throughput
//! scaling. `--metrics-out PATH` also writes the stage profile in
//! Prometheus text exposition format (the file a node exporter's
//! textfile collector would scrape).
//!
//! Fault tolerance knobs:
//!
//! ```text
//! cargo run -p pws-bench --release --bin serve_bench -- --deadline-ms 2
//! cargo run -p pws-bench --release --bin serve_bench -- \
//!     --chaos seed=42,panic=64,delay=16:200us,poison=512 --deadline-ms 5
//! ```
//!
//! `--deadline-ms N` gives every request a [`SearchBudget`] deadline
//! (queries over budget degrade to base ranking at the engine's stage
//! checkpoints). `--chaos PLAN` attaches a deterministic seeded
//! [`pws_chaos::SeededFaultPlan`]; after the run the `serve.*` fault
//! counter family (degrade reasons, lock recoveries, evictions,
//! discarded folds) is printed so injected faults can be reconciled against
//! the report's degraded/shed totals by eye.
//!
//! Observability:
//!
//! ```text
//! cargo run -p pws-bench --release --bin serve_bench -- --health-out results/health.json
//! ```
//!
//! `--health-out PATH` brackets the run with SLO burn-rate observations
//! (`pws_obs::health`) and writes the resulting `HealthReport` as JSON.
//! For one query's full decision trace use `pws-trace`; for the recent
//! traffic of a serving process, its flight recorder (`pws-top`).
//!
//! [`SearchBudget`]: pws_serve::SearchBudget

use pws_bench::throughput::{run_throughput, ThroughputOptions};
use pws_chaos::ChaosSpec;
use std::fs;
use std::time::Duration;

fn parse_str_flag(args: &[String], name: &str) -> Option<String> {
    let eq = format!("--{name}=");
    for (i, a) in args.iter().enumerate() {
        if a == &format!("--{name}") {
            return args.get(i + 1).cloned();
        }
        if let Some(v) = a.strip_prefix(&eq) {
            return Some(v.to_string());
        }
    }
    None
}

fn parse_flag(args: &[String], name: &str) -> Option<usize> {
    parse_str_flag(args, name).and_then(|v| v.parse().ok())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut opts = ThroughputOptions::default();
    if let Some(w) = parse_flag(&args, "workers") {
        opts.workers = w.max(1);
    }
    if let Some(r) = parse_flag(&args, "requests") {
        opts.requests_per_worker = r;
    }
    if let Some(s) = parse_flag(&args, "shards") {
        opts.shards = s.max(1);
    }
    if let Some(o) = parse_flag(&args, "observe-every") {
        opts.observe_every = o;
    }
    if let Some(ms) = parse_flag(&args, "deadline-ms") {
        opts.deadline = Some(Duration::from_millis(ms as u64));
    }
    if let Some(plan) = parse_str_flag(&args, "chaos") {
        match ChaosSpec::parse(&plan) {
            Ok(spec) => opts.chaos = Some(spec),
            Err(e) => {
                eprintln!("error: bad --chaos plan {plan:?}: {e}");
                std::process::exit(2);
            }
        }
    }
    let sweep = args.iter().any(|a| a == "--sweep");
    let health_out = parse_str_flag(&args, "health-out");

    eprintln!("building bench world…");
    let world = pws_bench::bench_world();
    // `--health-out`: bracket the run with monitor observations so the
    // burn-rate report covers exactly this benchmark's traffic.
    let monitor = health_out
        .as_deref()
        .map(|_| pws_obs::health::HealthMonitor::new(pws_obs::health::SloSpec::default()));
    if let Some(m) = &monitor {
        m.observe(pws_obs::snapshot());
    }

    let reports = if sweep {
        let mut w = 1;
        let mut reports = Vec::new();
        while w <= opts.workers {
            let r = run_throughput(&world, &ThroughputOptions { workers: w, ..opts.clone() });
            println!("{}\n", r.render());
            reports.push(r);
            w *= 2;
        }
        reports
    } else {
        let r = run_throughput(&world, &opts);
        println!("{}", r.render());
        vec![r]
    };

    if opts.chaos.is_some() || opts.deadline.is_some() {
        let snap = pws_obs::snapshot();
        let mut fault_counters: Vec<(String, u64)> = snap
            .stages
            .iter()
            .filter(|s| {
                s.count > 0
                    && (s.name.starts_with("serve.degraded.")
                        || matches!(
                            s.name.as_str(),
                            "serve.lock_recovered"
                                | "serve.user_evicted"
                                | "serve.state_restored"
                                | "serve.overloaded"
                                | "serve.state_io_error"
                        ))
            })
            .map(|s| (s.name.clone(), s.count))
            .collect();
        fault_counters.sort();
        println!("\nfault counters:");
        if fault_counters.is_empty() {
            println!("  (none fired)");
        }
        for (name, count) in fault_counters {
            println!("  {name:<34} {count}");
        }
    }

    let _ = fs::create_dir_all("results");
    match serde_json::to_string_pretty(&reports) {
        Ok(json) => {
            if let Err(e) = fs::write("results/serve_bench.json", json) {
                eprintln!("warn: could not write results/serve_bench.json: {e}");
            }
        }
        Err(e) => eprintln!("warn: could not serialize report: {e}"),
    }
    if let Err(e) = fs::write("results/serve_bench_metrics.json", pws_obs::snapshot().to_json(true))
    {
        eprintln!("warn: could not write results/serve_bench_metrics.json: {e}");
    }
    if let Some(path) = parse_str_flag(&args, "metrics-out") {
        if let Err(e) = fs::write(&path, pws_obs::prometheus_text()) {
            eprintln!("warn: could not write {path}: {e}");
        }
    }
    if let (Some(path), Some(m)) = (health_out, &monitor) {
        let report = m.observe_and_report(pws_obs::snapshot());
        println!("\n{}", report.render());
        if let Err(e) = fs::write(&path, report.to_json()) {
            eprintln!("warn: could not write {path}: {e}");
        }
    }
}
