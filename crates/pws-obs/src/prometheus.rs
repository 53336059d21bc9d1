//! Prometheus text-exposition rendering of the metrics registry.
//!
//! [`prometheus_text`] snapshots every registered stage and renders it
//! in the [Prometheus text exposition format] (version 0.0.4) with no
//! external dependencies, suitable for writing to a `.prom` file or
//! serving from a scrape endpoint:
//!
//! * `pws_stage_invocations_total{stage="…"}` — counter of span /
//!   record / `incr` observations,
//! * `pws_stage_nanos_total{stage="…"}` — counter of recorded
//!   nanoseconds,
//! * `pws_stage_latency_nanos{stage="…"}` — histogram with cumulative
//!   `le` buckets at the log₂ bucket upper bounds (empty trailing
//!   ranges are skipped; `+Inf`, `_sum`, `_count` always emitted),
//! * `pws_stage_p50_nanos` / `p95` / `p99` — gauge convenience
//!   percentiles (bucket midpoints, see the crate docs for accuracy),
//! * `pws_serve_shard_requests_total` / `pws_serve_shard_p99_nanos` —
//!   the per-shard serving family, re-labelled `{shard="…",op="…"}`
//!   from the `serve.shard{i}.{op}` stage-name convention so dashboards
//!   can aggregate across shards without regex-parsing stage names.
//!
//! [Prometheus text exposition format]:
//!     https://prometheus.io/docs/instrumenting/exposition_formats/

use crate::{bucket_upper, MetricsSnapshot, StageSnapshot, BUCKETS};

/// Render the whole process-global registry in the Prometheus text
/// exposition format.
pub fn prometheus_text() -> String {
    crate::snapshot().to_prometheus()
}

impl MetricsSnapshot {
    /// Render this snapshot in the Prometheus text exposition format
    /// (see the [module docs](crate::prometheus) for the metric
    /// families emitted).
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();

        out.push_str(
            "# HELP pws_stage_invocations_total Observations recorded per pipeline stage.\n",
        );
        out.push_str("# TYPE pws_stage_invocations_total counter\n");
        for s in &self.stages {
            out.push_str(&format!(
                "pws_stage_invocations_total{{stage=\"{}\"}} {}\n",
                escape_label(&s.name),
                s.count
            ));
        }

        out.push_str(
            "# HELP pws_stage_nanos_total Total recorded nanoseconds per pipeline stage.\n",
        );
        out.push_str("# TYPE pws_stage_nanos_total counter\n");
        for s in &self.stages {
            out.push_str(&format!(
                "pws_stage_nanos_total{{stage=\"{}\"}} {}\n",
                escape_label(&s.name),
                s.total_nanos
            ));
        }

        out.push_str(
            "# HELP pws_stage_latency_nanos Per-stage latency distribution (log2 buckets).\n",
        );
        out.push_str("# TYPE pws_stage_latency_nanos histogram\n");
        for s in &self.stages {
            render_histogram(&mut out, s);
        }

        for (metric, pick) in [
            ("pws_stage_p50_nanos", (|s: &StageSnapshot| s.p50_nanos) as fn(&StageSnapshot) -> u64),
            ("pws_stage_p95_nanos", |s: &StageSnapshot| s.p95_nanos),
            ("pws_stage_p99_nanos", |s: &StageSnapshot| s.p99_nanos),
        ] {
            out.push_str(&format!(
                "# HELP {metric} Estimated latency percentile per stage (bucket midpoint).\n"
            ));
            out.push_str(&format!("# TYPE {metric} gauge\n"));
            for s in &self.stages {
                out.push_str(&format!(
                    "{metric}{{stage=\"{}\"}} {}\n",
                    escape_label(&s.name),
                    pick(s)
                ));
            }
        }

        let sharded: Vec<(usize, &str, &StageSnapshot)> = self
            .stages
            .iter()
            .filter_map(|s| parse_shard_stage(&s.name).map(|(i, op)| (i, op, s)))
            .collect();
        if !sharded.is_empty() {
            out.push_str(
                "# HELP pws_serve_shard_requests_total Requests handled per serving shard and operation.\n",
            );
            out.push_str("# TYPE pws_serve_shard_requests_total counter\n");
            for (shard, op, s) in &sharded {
                out.push_str(&format!(
                    "pws_serve_shard_requests_total{{shard=\"{shard}\",op=\"{}\"}} {}\n",
                    escape_label(op),
                    s.count
                ));
            }
            out.push_str(
                "# HELP pws_serve_shard_p99_nanos Estimated p99 latency per serving shard and operation.\n",
            );
            out.push_str("# TYPE pws_serve_shard_p99_nanos gauge\n");
            for (shard, op, s) in &sharded {
                out.push_str(&format!(
                    "pws_serve_shard_p99_nanos{{shard=\"{shard}\",op=\"{}\"}} {}\n",
                    escape_label(op),
                    s.p99_nanos
                ));
            }
        }

        out
    }
}

/// One stage's cumulative-bucket histogram lines. Only buckets up to
/// the last non-empty one are emitted (plus the mandatory `+Inf`);
/// cumulative counts stay exact because skipping empty *trailing*
/// buckets drops no observations.
fn render_histogram(out: &mut String, s: &StageSnapshot) {
    let stage = escape_label(&s.name);
    let histogram_count: u64 = s.buckets.iter().sum();
    let last_nonempty = s.buckets.iter().rposition(|&c| c > 0);
    let mut cumulative = 0u64;
    if let Some(last) = last_nonempty {
        for (i, &c) in s.buckets.iter().enumerate().take(last + 1) {
            cumulative += c;
            if c == 0 {
                continue;
            }
            // The top bucket is unbounded: it only appears as +Inf.
            if i >= BUCKETS - 1 {
                break;
            }
            out.push_str(&format!(
                "pws_stage_latency_nanos_bucket{{stage=\"{stage}\",le=\"{}\"}} {cumulative}\n",
                bucket_upper(i)
            ));
        }
    }
    out.push_str(&format!(
        "pws_stage_latency_nanos_bucket{{stage=\"{stage}\",le=\"+Inf\"}} {histogram_count}\n"
    ));
    out.push_str(&format!("pws_stage_latency_nanos_sum{{stage=\"{stage}\"}} {}\n", s.total_nanos));
    out.push_str(&format!(
        "pws_stage_latency_nanos_count{{stage=\"{stage}\"}} {histogram_count}\n"
    ));
}

/// Split a `serve.shard{i}.{op}` stage name into `(i, op)`.
fn parse_shard_stage(name: &str) -> Option<(usize, &str)> {
    let rest = name.strip_prefix("serve.shard")?;
    let dot = rest.find('.')?;
    let shard: usize = rest[..dot].parse().ok()?;
    let op = &rest[dot + 1..];
    if op.is_empty() {
        None
    } else {
        Some((shard, op))
    }
}

/// Escape a label value per the exposition format: backslash, double
/// quote, and line feed get their standard escapes. Any *other*
/// control character (tab, carriage return, …) has no escape in the
/// format and would corrupt the line-oriented output, so it is
/// sanitized to `_` — stage names are ours, losing the exact byte is
/// better than producing an unparseable scrape.
fn escape_label(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c if c.is_control() => out.push('_'),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StageMetrics;

    /// A parsed sample line: metric name, label pairs, value.
    type Sample = (String, Vec<(String, String)>, f64);

    /// Minimal hand-rolled validator for the text exposition format:
    /// every line is a comment (`# HELP` / `# TYPE` with a known kind)
    /// or a sample `name{labels} value` / `name value` whose metric
    /// name is legal, whose labels are `key="escaped"` pairs, and whose
    /// value parses as a float (or `+Inf`). Both `HELP` **and** `TYPE`
    /// must precede the family's samples (an undocumented/untyped
    /// family is rejected), and no line may contain a raw control
    /// character. Returns the parsed samples.
    fn validate(text: &str) -> Vec<Sample> {
        let mut typed: Vec<String> = Vec::new();
        let mut helped: Vec<String> = Vec::new();
        let mut samples = Vec::new();
        for (lineno, line) in text.lines().enumerate() {
            let err = |msg: &str| -> ! { panic!("line {}: {msg}: {line:?}", lineno + 1) };
            if line.is_empty() {
                continue;
            }
            if line.chars().any(|c| c.is_control()) {
                err("raw control character");
            }
            if let Some(rest) = line.strip_prefix("# ") {
                let mut parts = rest.splitn(3, ' ');
                let keyword = parts.next().unwrap_or("");
                let name = parts.next().unwrap_or("");
                let tail = parts.next().unwrap_or("");
                match keyword {
                    "HELP" => {
                        assert!(is_metric_name(name), "bad HELP name {name:?}");
                        assert!(!tail.is_empty(), "HELP without text");
                        helped.push(name.to_string());
                    }
                    "TYPE" => {
                        assert!(is_metric_name(name), "bad TYPE name {name:?}");
                        assert!(
                            ["counter", "gauge", "histogram", "summary", "untyped"].contains(&tail),
                            "bad TYPE kind {tail:?}"
                        );
                        typed.push(name.to_string());
                    }
                    _ => err("unknown comment keyword"),
                }
                continue;
            }
            // Sample line: name[{labels}] value
            let (name_labels, value) = line.rsplit_once(' ').unwrap_or_else(|| err("no value"));
            let v: f64 = match value {
                "+Inf" => f64::INFINITY,
                other => other.parse().unwrap_or_else(|_| err("bad value")),
            };
            let (name, labels) = match name_labels.split_once('{') {
                None => (name_labels.to_string(), Vec::new()),
                Some((n, rest)) => {
                    let inner = rest.strip_suffix('}').unwrap_or_else(|| err("unclosed labels"));
                    let mut pairs = Vec::new();
                    for pair in split_label_pairs(inner) {
                        let (k, qv) = pair.split_once('=').unwrap_or_else(|| err("label no ="));
                        let qv = qv
                            .strip_prefix('"')
                            .and_then(|s| s.strip_suffix('"'))
                            .unwrap_or_else(|| err("label not quoted"));
                        pairs.push((k.to_string(), qv.to_string()));
                    }
                    (n.to_string(), pairs)
                }
            };
            assert!(is_metric_name(&name), "bad metric name {name:?}");
            // The family (name minus histogram suffixes) must have a TYPE.
            let family = name
                .strip_suffix("_bucket")
                .or_else(|| name.strip_suffix("_sum"))
                .or_else(|| name.strip_suffix("_count"))
                .unwrap_or(&name);
            assert!(
                typed.iter().any(|t| t == family || t == &name),
                "sample {name:?} before its TYPE"
            );
            assert!(
                helped.iter().any(|t| t == family || t == &name),
                "sample {name:?} without a HELP line"
            );
            samples.push((name, labels, v));
        }
        samples
    }

    fn is_metric_name(s: &str) -> bool {
        !s.is_empty()
            && s.chars().next().is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':')
            && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
    }

    /// Split `k1="v1",k2="v2"` on commas outside quotes (label values
    /// may contain escaped quotes).
    fn split_label_pairs(s: &str) -> Vec<&str> {
        let mut out = Vec::new();
        let (mut start, mut in_quotes, mut escaped) = (0usize, false, false);
        for (i, c) in s.char_indices() {
            match c {
                _ if escaped => escaped = false,
                '\\' if in_quotes => escaped = true,
                '"' => in_quotes = !in_quotes,
                ',' if !in_quotes => {
                    out.push(&s[start..i]);
                    start = i + 1;
                }
                _ => {}
            }
        }
        if start < s.len() {
            out.push(&s[start..]);
        }
        out
    }

    fn snapshot_of(stages: Vec<StageSnapshot>) -> MetricsSnapshot {
        MetricsSnapshot { stages }
    }

    #[test]
    fn exposition_is_valid_and_complete() {
        let engine = StageMetrics::new("engine.rerank");
        for v in [800u64, 1_200, 1_000_000] {
            engine.record_nanos(v);
        }
        let shard0 = StageMetrics::new("serve.shard0.search");
        shard0.record_nanos(5_000);
        shard0.record_nanos(7_000);
        let shard1 = StageMetrics::new("serve.shard1.observe");
        shard1.record_nanos(300);
        let snap = snapshot_of(vec![engine.snapshot(), shard0.snapshot(), shard1.snapshot()]);
        let text = snap.to_prometheus();
        let samples = validate(&text);

        let find = |name: &str, labels: &[(&str, &str)]| -> f64 {
            samples
                .iter()
                .find(|(n, ls, _)| {
                    n == name
                        && labels.iter().all(|(k, v)| ls.iter().any(|(lk, lv)| lk == k && lv == v))
                })
                .unwrap_or_else(|| panic!("missing sample {name} {labels:?} in:\n{text}"))
                .2
        };

        assert_eq!(find("pws_stage_invocations_total", &[("stage", "engine.rerank")]), 3.0);
        assert_eq!(find("pws_stage_nanos_total", &[("stage", "engine.rerank")]), 1_002_000.0);
        // Histogram: 800 → bucket le=1023, 1200 → le=2047, 1e6 → le=1048575.
        assert_eq!(
            find("pws_stage_latency_nanos_bucket", &[("stage", "engine.rerank"), ("le", "1023")]),
            1.0
        );
        assert_eq!(
            find("pws_stage_latency_nanos_bucket", &[("stage", "engine.rerank"), ("le", "2047")]),
            2.0
        );
        assert_eq!(
            find("pws_stage_latency_nanos_bucket", &[("stage", "engine.rerank"), ("le", "+Inf")]),
            3.0
        );
        assert_eq!(find("pws_stage_latency_nanos_count", &[("stage", "engine.rerank")]), 3.0);
        assert_eq!(find("pws_stage_latency_nanos_sum", &[("stage", "engine.rerank")]), 1_002_000.0);
        assert!(find("pws_stage_p99_nanos", &[("stage", "engine.rerank")]) > 0.0);

        // Per-shard serve family, re-labelled from the stage names.
        assert_eq!(
            find("pws_serve_shard_requests_total", &[("shard", "0"), ("op", "search")]),
            2.0
        );
        assert_eq!(
            find("pws_serve_shard_requests_total", &[("shard", "1"), ("op", "observe")]),
            1.0
        );
        assert!(find("pws_serve_shard_p99_nanos", &[("shard", "0"), ("op", "search")]) > 0.0);
    }

    #[test]
    fn histogram_buckets_are_cumulative_and_inf_matches_count() {
        let m = StageMetrics::new("test.cumulative");
        let mut seed = 7u64;
        for _ in 0..200 {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            m.record_nanos(seed % 1_000_000);
        }
        let text = snapshot_of(vec![m.snapshot()]).to_prometheus();
        let samples = validate(&text);
        let mut last = 0.0;
        let mut inf = None;
        for (name, labels, v) in &samples {
            if name != "pws_stage_latency_nanos_bucket" {
                continue;
            }
            assert!(*v >= last, "cumulative buckets must be non-decreasing");
            last = *v;
            if labels.iter().any(|(k, val)| k == "le" && val == "+Inf") {
                inf = Some(*v);
            }
        }
        assert_eq!(inf, Some(200.0), "+Inf bucket equals total observations");
        let count = samples
            .iter()
            .find(|(n, _, _)| n == "pws_stage_latency_nanos_count")
            .expect("histogram _count")
            .2;
        assert_eq!(count, 200.0);
    }

    #[test]
    fn label_values_are_escaped() {
        let m = StageMetrics::new("weird\"stage\\name");
        m.record_nanos(1);
        let text = snapshot_of(vec![m.snapshot()]).to_prometheus();
        validate(&text);
        assert!(text.contains("stage=\"weird\\\"stage\\\\name\""));
    }

    #[test]
    fn control_characters_in_stage_names_are_sanitized() {
        // Tab, carriage return, and newline have no legal raw form in
        // a label value; the exporter must never emit them verbatim.
        let m = StageMetrics::new("bad\tstage\rname\nhere");
        m.record_nanos(1);
        let text = snapshot_of(vec![m.snapshot()]).to_prometheus();
        validate(&text); // would panic on a raw control character
        assert!(text.contains("stage=\"bad_stage_name\\nhere\""));
        assert!(!text.contains('\t'));
        assert!(!text.contains('\r'));
    }

    #[test]
    #[should_panic(expected = "without a HELP line")]
    fn validator_rejects_family_without_help() {
        validate("# TYPE pws_mystery gauge\npws_mystery 1\n");
    }

    #[test]
    #[should_panic(expected = "before its TYPE")]
    fn validator_rejects_untyped_family() {
        validate("# HELP pws_mystery A family with no TYPE.\npws_mystery 1\n");
    }

    #[test]
    #[should_panic(expected = "raw control character")]
    fn validator_rejects_raw_control_characters() {
        validate("# HELP pws_x x.\n# TYPE pws_x gauge\npws_x{stage=\"a\tb\"} 1\n");
    }

    #[test]
    fn shard_stage_name_parsing() {
        assert_eq!(parse_shard_stage("serve.shard0.search"), Some((0, "search")));
        assert_eq!(parse_shard_stage("serve.shard12.queue"), Some((12, "queue")));
        assert_eq!(parse_shard_stage("serve.shard12."), None);
        assert_eq!(parse_shard_stage("serve.shardx.search"), None);
        assert_eq!(parse_shard_stage("engine.rerank"), None);
        assert_eq!(parse_shard_stage("serve.request"), None);
    }

    #[test]
    fn global_render_includes_registered_stage() {
        crate::stage("test.prom.global").record_nanos(123);
        let text = prometheus_text();
        validate(&text);
        assert!(text.contains("stage=\"test.prom.global\""));
    }

    #[test]
    fn empty_stage_renders_inf_bucket_only() {
        let text =
            snapshot_of(vec![StageMetrics::new("test.prom.empty").snapshot()]).to_prometheus();
        validate(&text);
        assert!(text
            .contains("pws_stage_latency_nanos_bucket{stage=\"test.prom.empty\",le=\"+Inf\"} 0"));
    }
}
