//! Metric definitions, order statistics, and the text the benchmark emits.

use crate::drive::RunResult;
use crate::probe::Spans;
use pws_obs::MetricsSnapshot;
use std::collections::BTreeMap;

/// A gated end-to-end metric: `(name, unit, bound)`. `bound` is the share
/// of the parent's median by which the metric may get worse. Mirrors
/// `BENCHMARK.json` (a test pins the two together).
pub const END_TO_END: [(&str, &str, f64); 5] = [
    ("throughput_rps", "req/s", 0.25),
    ("search_p50_ms", "ms", 0.25),
    ("search_p99_ms", "ms", 0.25),
    ("setup_s", "s", 0.25),
    ("peak_rss_mb", "MB", 0.25),
];

/// Per-layer metrics of the traced pass: `(name, unit)`. No bounds.
pub const PER_LAYER: [(&str, &str); 30] = [
    ("serve_search_traced_p50_us", "us"),
    ("retrieval_cache_hit_ratio", "ratio"),
    ("fault_in_per_req", "1/req"),
    ("evict_per_req", "1/req"),
    ("store_retries", "count"),
    ("degraded_or_shed", "count"),
    ("index_search_us", "us"),
    ("index_calls_per_req", "1/req"),
    ("concepts_extract_us", "us"),
    ("concepts_extract_page_us", "us"),
    ("text_analyze_us", "us"),
    ("geo_match_us", "us"),
    ("concept_memo_hit_ratio", "ratio"),
    ("concept_calls_per_req", "1/req"),
    ("profile_features_us", "us"),
    ("profile_features_page_us", "us"),
    ("profile_content_weights_p50", "count"),
    ("profile_location_weights_p50", "count"),
    ("profile_pairs_p50", "count"),
    ("ranksvm_rank_us", "us"),
    ("ranksvm_train_us", "us"),
    ("ranksvm_trains_per_observe", "ratio"),
    ("store_encode_us", "us"),
    ("store_decode_us", "us"),
    ("store_put_us", "us"),
    ("store_get_us", "us"),
    ("record_bytes_p50", "bytes"),
    ("record_bytes_max", "bytes"),
    ("attributed_share", "ratio"),
    ("unattributed_share", "ratio"),
];

/// One reported value; `None` prints as `null` (a counter that no longer
/// exists, a span that never ran).
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: Option<f64>,
}

impl Metric {
    pub fn new(name: &'static str, unit: &'static str, value: Option<f64>) -> Metric {
        Metric { name, unit, value: value.filter(|v| v.is_finite()) }
    }
}

/// The ⌈q·n⌉-th smallest sample of a sorted slice (exact order statistic).
pub fn percentile(sorted: &[u64], q: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let idx = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len()) - 1;
    Some(sorted[idx])
}

pub fn sorted(mut v: Vec<u64>) -> Vec<u64> {
    v.sort_unstable();
    v
}

pub fn median_f64(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Counter growth between two registry snapshots. `None` when the stage is
/// not registered (renamed or removed), never an error.
pub struct Counters<'a> {
    pub before: &'a MetricsSnapshot,
    pub after: &'a MetricsSnapshot,
}

impl Counters<'_> {
    pub fn delta(&self, name: &str) -> Option<f64> {
        let after = self.after.stage(name)?.count;
        let before = self.before.stage(name).map_or(0, |s| s.count);
        Some(after.saturating_sub(before) as f64)
    }

    /// Sum of every stage whose name starts with `prefix`.
    pub fn delta_prefix(&self, prefix: &str) -> f64 {
        self.after
            .stages
            .iter()
            .filter(|s| s.name.starts_with(prefix))
            .filter_map(|s| self.delta(&s.name))
            .sum()
    }

    /// Requests the engine answered badly without the page showing it:
    /// degraded or shed answers, lost or rolled-back state.
    pub fn engine_failures(&self) -> f64 {
        self.delta_prefix("serve.degraded.")
            + ["serve.overloaded", "serve.state_io_error", "serve.state_restored"]
                .iter()
                .filter_map(|n| self.delta(n))
                .sum::<f64>()
    }
}

fn ratio(num: Option<f64>, den: Option<f64>) -> Option<f64> {
    match (num, den) {
        (Some(n), Some(d)) if d > 0.0 => Some(n / d),
        _ => None,
    }
}

/// The end-to-end metrics of an untraced run, gated ones first, then the
/// informational ones. Each measured segment follows its own set-up; a
/// timing is the median of the segments' values, so one noisy stretch of
/// the machine does not set the run's number.
pub fn end_to_end(segments: &[&RunResult], setup_secs: &[f64], failed: u64) -> Vec<Metric> {
    // One row per segment: throughput, then search and observe p50 / p99 (ms).
    let rows: Vec<[f64; 5]> = segments
        .iter()
        .map(|r| {
            let search = sorted(r.search_samples());
            let observe = sorted(r.observe_samples());
            let ms = |v: &[u64], q: f64| percentile(v, q).map_or(f64::NAN, |n| n as f64 / 1e6);
            [
                (r.searches() + r.observes()) as f64 / r.wall_secs(),
                ms(&search, 0.50),
                ms(&search, 0.99),
                ms(&observe, 0.50),
                ms(&observe, 0.99),
            ]
        })
        .collect();
    let over = |col: usize| Some(median_f64(&rows.iter().map(|r| r[col]).collect::<Vec<f64>>()));
    let searches: u64 = segments.iter().map(|r| r.searches()).sum();
    let observes: u64 = segments.iter().map(|r| r.observes()).sum();
    vec![
        Metric::new("throughput_rps", "req/s", over(0)),
        Metric::new("search_p50_ms", "ms", over(1)),
        Metric::new("search_p99_ms", "ms", over(2)),
        Metric::new("setup_s", "s", Some(median_f64(setup_secs))),
        Metric::new("peak_rss_mb", "MB", peak_rss_mb()),
        // Informational: not in BENCHMARK.json (observes exist on the write
        // workloads only, and a gated metric must exist on all four).
        Metric::new("observe_p50_ms", "ms", over(3)),
        Metric::new("observe_p99_ms", "ms", over(4)),
        Metric::new("search_samples", "count", Some(searches as f64)),
        Metric::new("observe_samples", "count", Some(observes as f64)),
        Metric::new(
            "fail_ratio",
            "ratio",
            Some(failed as f64 / (searches + observes).max(1) as f64),
        ),
    ]
}

/// The per-layer table of a traced pass.
pub fn per_layer(run: &RunResult, counters: &Counters<'_>, has_store: bool) -> Vec<Metric> {
    let all: Vec<&Spans> = run.clients.iter().map(|c| &c.spans).collect();
    let mut by_name: BTreeMap<&str, Vec<u64>> = BTreeMap::new();
    for s in all.iter().flat_map(|s| &s.spans) {
        by_name.entry(s.name).or_default().push(s.end_ns - s.start_ns);
    }
    // Median duration of a span name, in microseconds.
    let us = |name: &str| -> Option<f64> {
        let v = sorted(by_name.get(name).cloned().unwrap_or_default());
        percentile(&v, 0.50).map(|n| n as f64 / 1e3)
    };
    let gather = |f: fn(&Spans) -> &Vec<u64>| -> Vec<u64> {
        sorted(all.iter().flat_map(|s| f(s).iter().copied()).collect())
    };
    let p50 = |v: &[u64]| percentile(v, 0.50).map(|n| n as f64);

    let requests = Some(run.searches() as f64);
    let observes = Some(run.observes() as f64);
    let hit = counters.delta("serve.cache.hit");
    let miss = counters.delta("serve.cache.miss");
    let memo_hit = counters.delta("engine.concepts.memo_hit");
    let memo_miss = counters.delta("engine.concepts.memo_miss");
    // Without a store tier the store counters are not registered, and
    // nothing can fault in or be evicted.
    let store = |name: &str| if has_store { counters.delta(name) } else { Some(0.0) };
    let fault_in_per_req = ratio(store("serve.store.fault_in"), requests);
    // The probes train too; only the engine's own rounds count.
    let probe_trains = by_name.get("ranksvm.train").map_or(0, Vec::len) as f64;
    let trains = counters.delta("ranksvm.train").map(|t| (t - probe_trains).max(0.0));

    let index_calls = ratio(miss, requests);
    let concept_calls = ratio(memo_miss, requests);
    // Shares are sums of time, so they are built from means: a probe's mean
    // times how often the engine makes that call per request, over the mean
    // `serve.search`. Each search looks the concept memo up twice (pool,
    // page); the counters do not say which lookup missed, so misses are
    // split evenly between the two.
    let mean = |name: &str| -> Option<f64> {
        let v = by_name.get(name).filter(|v| !v.is_empty())?;
        Some(v.iter().sum::<u64>() as f64 / v.len() as f64)
    };
    let attributed = [
        mean("index.search").zip(index_calls).map(|(t, c)| t * c),
        mean("concepts.extract")
            .zip(mean("concepts.extract.page"))
            .zip(concept_calls)
            .map(|((pool, page), c)| (pool + page) * c / 2.0),
        mean("profile.features").zip(mean("profile.features.page")).map(|(a, b)| a + b),
        mean("ranksvm.rank"),
        mean("store.get").zip(fault_in_per_req).map(|(t, c)| t * c),
    ];
    let attributed_share = attributed
        .iter()
        .copied()
        .sum::<Option<f64>>()
        .and_then(|sum| mean("serve.search").map(|s| sum / s));

    let bytes = gather(|s| &s.record_bytes);
    let values: Vec<Option<f64>> = vec![
        us("serve.search"),
        ratio(hit, hit.zip(miss).map(|(h, m)| h + m)),
        fault_in_per_req,
        ratio(store("serve.store.evict"), requests),
        store("serve.store.retry"),
        Some(counters.engine_failures()),
        us("index.search"),
        index_calls,
        us("concepts.extract"),
        us("concepts.extract.page"),
        us("text.analyze"),
        us("geo.match"),
        ratio(memo_hit, memo_hit.zip(memo_miss).map(|(h, m)| h + m)),
        concept_calls,
        us("profile.features"),
        us("profile.features.page"),
        p50(&gather(|s| &s.content_weights)),
        p50(&gather(|s| &s.location_weights)),
        p50(&gather(|s| &s.pairs)),
        us("ranksvm.rank"),
        us("ranksvm.train"),
        // Read-only workloads observe nothing, so nothing trains.
        if run.observes() == 0 { Some(0.0) } else { ratio(trains, observes) },
        us("store.encode"),
        us("store.decode"),
        us("store.put"),
        us("store.get"),
        p50(&bytes),
        bytes.last().map(|b| *b as f64),
        attributed_share,
        attributed_share.map(|a| 1.0 - a),
    ];
    let mut out: Vec<Metric> = PER_LAYER
        .iter()
        .zip(values)
        .map(|((name, unit), value)| Metric::new(name, unit, value))
        .collect();
    // Informational: the real write call, present on write workloads only.
    out.push(Metric::new("serve_observe_traced_p50_us", "us", us("serve.observe")));
    out.push(Metric::new(
        "probed_requests",
        "count",
        Some(by_name.get("request").map_or(0, Vec::len) as f64),
    ));
    out
}

fn number(v: Option<f64>) -> String {
    v.map_or_else(|| "null".to_string(), |v| format!("{v}"))
}

/// `{"name": {"value": v, "unit": "u"}, …}` for the given metrics.
pub fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, number(m.value), m.unit)
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The result line the benchmark contract asks for.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {}}}",
        metrics_json(metrics)
    )
}

/// `workload metric unit value`, one line per metric.
pub fn print_lines(workload: &str, metrics: &[Metric]) {
    for m in metrics {
        println!("{workload} {} {} {}", m.name, m.unit, number(m.value));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_the_exact_order_statistic() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.50), Some(50));
        assert_eq!(percentile(&v, 0.99), Some(99));
        assert_eq!(percentile(&v, 1.0), Some(100));
        assert_eq!(percentile(&[7], 0.99), Some(7));
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(median_f64(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median_f64(&[4.0, 1.0]), 2.5);
    }

    #[test]
    fn benchmark_json_names_the_same_metrics_and_bounds() {
        let json = include_str!("../../BENCHMARK.json");
        for (name, unit, bound) in END_TO_END {
            let better = if name == "throughput_rps" { "higher" } else { "lower" };
            let entry = format!(
                "{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\", \
                 \"bound\": {bound}}}"
            );
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for (name, unit) in PER_LAYER {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": ");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(json.matches("\"bound\"").count(), END_TO_END.len());
        assert_eq!(json.matches("\"better\"").count(), END_TO_END.len() + PER_LAYER.len());
        let run_seconds = format!("\"run_seconds\": {}", crate::RUN_SECONDS);
        assert!(json.contains(&run_seconds), "BENCHMARK.json lacks {run_seconds}");
        for w in crate::workload::WORKLOADS {
            let entry = format!("{{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why);
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
            assert!(w.why.len() <= 200 && !w.why.contains('\n'));
        }
    }

    #[test]
    fn null_for_missing_values() {
        let m = [Metric::new("a", "us", None), Metric::new("b", "ms", Some(1.5))];
        assert_eq!(
            metrics_json(&m),
            "{\"a\": {\"value\": null, \"unit\": \"us\"}, \"b\": {\"value\": 1.5, \"unit\": \"ms\"}}"
        );
        assert!(Metric::new("c", "s", Some(f64::NAN)).value.is_none());
    }
}
