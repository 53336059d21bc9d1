//! Per-query decision traces.
//!
//! The aggregate [`crate::MetricsSnapshot`] answers "how slow is stage
//! X overall"; a [`QueryTrace`] answers the scrutability questions a
//! re-ranker owes its operators: *why did document D rank #1 for this
//! query* and *where did this query's latency go*. The engine fills
//! one trace per traced search turn with
//!
//! * the stage-by-stage nanosecond breakdown,
//! * the content/location concepts the ranker saw (with support),
//! * the chosen β — value, provenance (fixed / adaptive / mode-pinned)
//!   and, when adaptive, the entropy-derived effectiveness inputs,
//! * every pool candidate's feature vector and base-rank → final-rank
//!   movement,
//! * the shard index and queue depth at admission (serving layer).
//!
//! The types here are plain data with no behavior beyond rendering:
//! tracing must never perturb ranking, so the engine only *copies*
//! values it computed anyway. A trace is built only when a caller asks
//! for one (`search_traced`); the serving layer's record of recent
//! traffic is the fixed-width [`crate::event::FlightEvent`] ring.

/// How the blend weight β was determined for a traced turn.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BetaProvenance {
    /// Pinned by the personalization mode (content-only → 0, location-
    /// only → 1, baseline → 0.5); click statistics play no role.
    Mode,
    /// A configured fixed blend (`BlendStrategy::Fixed`).
    Fixed,
    /// Adaptive blend, but no click statistics existed yet for this
    /// query — the neutral prior was used.
    AdaptiveNeutral,
    /// Adaptive blend computed from accumulated click statistics (the
    /// entropy inputs are recorded alongside).
    Adaptive,
}

impl BetaProvenance {
    /// Short label for rendering.
    pub fn label(&self) -> &'static str {
        match self {
            BetaProvenance::Mode => "mode-pinned",
            BetaProvenance::Fixed => "fixed",
            BetaProvenance::AdaptiveNeutral => "adaptive (neutral prior, no stats)",
            BetaProvenance::Adaptive => "adaptive (from click statistics)",
        }
    }
}

/// The β decision of one traced turn: the value, where it came from,
/// and — for the adaptive path — the entropy-derived inputs.
#[derive(Debug, Clone, PartialEq)]
pub struct BetaTrace {
    /// The blend weight the turn ranked with (location share).
    pub value: f64,
    /// How the value was determined.
    pub provenance: BetaProvenance,
    /// Content-personalization effectiveness (normalized entropy ×
    /// evidence shrinkage); only for the adaptive provenances.
    pub content_effectiveness: Option<f64>,
    /// Location-personalization effectiveness; only for adaptive.
    pub location_effectiveness: Option<f64>,
    /// Accumulated clicks behind the statistics ([`BetaProvenance::Adaptive`] only).
    pub clicks: Option<u64>,
    /// Accumulated impressions behind the statistics (adaptive only).
    pub impressions: Option<u64>,
}

impl BetaTrace {
    /// A β pinned by mode or fixed configuration (no entropy inputs).
    pub fn pinned(value: f64, provenance: BetaProvenance) -> Self {
        BetaTrace {
            value,
            provenance,
            content_effectiveness: None,
            location_effectiveness: None,
            clicks: None,
            impressions: None,
        }
    }
}

/// One pool candidate's journey through a traced turn.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultTrace {
    /// Document id.
    pub doc: u32,
    /// Result title (for human-readable rendering).
    pub title: String,
    /// 1-based rank in the candidate pool ordered by (normalized) base
    /// retrieval score — where the baseline would have put it.
    pub base_rank: usize,
    /// 1-based rank after personalized re-ranking over the full pool.
    pub final_rank: usize,
    /// Whether the result made the returned page (`final_rank ≤ top_k`).
    pub on_page: bool,
    /// Pool-normalized base retrieval score (feature 0's value).
    pub base_score: f64,
    /// The feature vector the ranking model scored, β-blend applied —
    /// exactly the numbers that decided `final_rank`.
    pub features: Vec<f64>,
}

impl ResultTrace {
    /// Positions moved by personalization: positive = promoted
    /// (base 5 → final 2 is +3), negative = demoted.
    pub fn rank_delta(&self) -> i64 {
        self.base_rank as i64 - self.final_rank as i64
    }
}

/// A concept (content term or location name) with its support value.
#[derive(Debug, Clone, PartialEq)]
pub struct ConceptTrace {
    /// The concept's surface form (term or location name).
    pub name: String,
    /// Support in the result snippets, as the extractor computed it.
    pub support: f64,
}

/// One stage's contribution to a traced turn's latency.
#[derive(Debug, Clone, PartialEq)]
pub struct StageNanos {
    /// Stage name, matching the registry name in the stage-name table
    /// (docs/ARCHITECTURE.md).
    pub stage: &'static str,
    /// Elapsed wall-clock nanoseconds of this stage in this turn.
    pub nanos: u64,
}

/// Everything one traced search turn decided, and why.
///
/// Filled by `EngineCore::search_user_gated`; the serving layer adds
/// [`shard`](Self::shard), [`queue_depth`](Self::queue_depth) and
/// [`total_nanos`](Self::total_nanos) at admission. Plain data —
/// cloneable, renderable, JSON-serializable without external crates.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryTrace {
    /// The issuing user's id.
    pub user: u32,
    /// The query text as received.
    pub query_text: String,
    /// Per-stage nanosecond breakdown, in execution order.
    pub stages: Vec<StageNanos>,
    /// The β decision.
    pub beta: BetaTrace,
    /// Content concepts extracted over the candidate snippets.
    pub content_concepts: Vec<ConceptTrace>,
    /// Location concepts extracted over the candidate snippets.
    pub location_concepts: Vec<ConceptTrace>,
    /// Human-readable names for the feature vector dimensions.
    pub feature_names: Vec<&'static str>,
    /// Every pool candidate, in final-rank order.
    pub results: Vec<ResultTrace>,
    /// Whether personalization actually re-ranked this turn.
    pub personalized: bool,
    /// Why the turn was served from the degraded (non-personalized)
    /// path, as a stable reason label (`None` for healthy turns). The
    /// serving layer stamps it; the label set is `pws-serve`'s
    /// `DegradeReason` and the matching `serve.degraded.{reason}`
    /// counter names.
    pub degraded: Option<&'static str>,
    /// Whether base retrieval was served from the shared retrieval cache
    /// (`None` when no cache is configured). Personalization always runs
    /// on top — a cache hit only skips re-scoring the index.
    pub cache_hit: Option<bool>,
    /// Serving shard that handled the request (serving layer only).
    pub shard: Option<usize>,
    /// In-flight request depth on that shard at admission.
    pub queue_depth: Option<u64>,
    /// End-to-end request nanoseconds as the serving layer measured it
    /// (0 until the serving layer stamps it).
    pub total_nanos: u64,
}

impl QueryTrace {
    /// An empty trace for a turn about to execute.
    pub fn new(user: u32, query_text: &str) -> Self {
        QueryTrace {
            user,
            query_text: query_text.to_string(),
            stages: Vec::new(),
            beta: BetaTrace::pinned(0.5, BetaProvenance::Mode),
            content_concepts: Vec::new(),
            location_concepts: Vec::new(),
            feature_names: Vec::new(),
            results: Vec::new(),
            personalized: false,
            degraded: None,
            cache_hit: None,
            shard: None,
            queue_depth: None,
            total_nanos: 0,
        }
    }

    /// Append one stage's elapsed time.
    pub fn stage(&mut self, stage: &'static str, nanos: u64) {
        self.stages.push(StageNanos { stage, nanos });
    }

    /// Sum of the recorded stage times (the engine-side latency; the
    /// serving layer's [`total_nanos`](Self::total_nanos) adds queueing
    /// and locking on top).
    pub fn stage_nanos_total(&self) -> u64 {
        self.stages.iter().map(|s| s.nanos).sum()
    }

    /// Pretty-print the full decision record (the `pws-trace` CLI's
    /// output format).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("query trace: {:?} (user {})\n", self.query_text, self.user));
        if let Some(shard) = self.shard {
            out.push_str(&format!(
                "  admission : shard {shard}, queue depth {}\n",
                self.queue_depth.unwrap_or(0)
            ));
        }
        out.push_str(&format!(
            "  latency   : {} total, {} in engine stages\n",
            fmt_nanos(self.total_nanos.max(self.stage_nanos_total())),
            fmt_nanos(self.stage_nanos_total())
        ));
        for s in &self.stages {
            out.push_str(&format!("    {:<18} {}\n", s.stage, fmt_nanos(s.nanos)));
        }
        out.push_str(&format!(
            "  β         : {:.4} [{}]\n",
            self.beta.value,
            self.beta.provenance.label()
        ));
        if let (Some(c), Some(l)) =
            (self.beta.content_effectiveness, self.beta.location_effectiveness)
        {
            out.push_str(&format!(
                "    effectiveness content {c:.4}, location {l:.4} ({} clicks / {} impressions)\n",
                self.beta.clicks.unwrap_or(0),
                self.beta.impressions.unwrap_or(0)
            ));
        }
        out.push_str(&format!(
            "  personalized: {}\n",
            if self.personalized { "yes" } else { "no (baseline order kept)" }
        ));
        if let Some(reason) = self.degraded {
            out.push_str(&format!("  degraded  : yes [{reason}]\n"));
        }
        if let Some(hit) = self.cache_hit {
            out.push_str(&format!("  retrieval cache: {}\n", if hit { "hit" } else { "miss" }));
        }
        let concepts = |cs: &[ConceptTrace]| -> String {
            if cs.is_empty() {
                "(none)".to_string()
            } else {
                cs.iter()
                    .map(|c| format!("{} ({:.2})", c.name, c.support))
                    .collect::<Vec<_>>()
                    .join(", ")
            }
        };
        out.push_str(&format!("  content concepts : {}\n", concepts(&self.content_concepts)));
        out.push_str(&format!("  location concepts: {}\n", concepts(&self.location_concepts)));
        out.push_str(&format!(
            "  results ({} pool candidates, final-rank order):\n",
            self.results.len()
        ));
        if !self.feature_names.is_empty() {
            out.push_str(&format!("    features = [{}]\n", self.feature_names.join(", ")));
        }
        for r in &self.results {
            let movement = match r.rank_delta() {
                0 => "=".to_string(),
                d if d > 0 => format!("↑{d}"),
                d => format!("↓{}", -d),
            };
            let feats: Vec<String> = r.features.iter().map(|f| format!("{f:.3}")).collect();
            out.push_str(&format!(
                "    #{:<3} doc {:<6} base #{:<3} {:>3}  {}  [{}] {:?}\n",
                r.final_rank,
                r.doc,
                r.base_rank,
                movement,
                if r.on_page { "page" } else { "cut " },
                feats.join(", "),
                r.title,
            ));
        }
        out
    }

    /// Serialize to JSON (no external crates). `pretty` adds two-space
    /// indentation at the top level.
    pub fn to_json(&self, pretty: bool) -> String {
        let (nl, ind) = if pretty { ("\n", "  ") } else { ("", "") };
        let sp = if pretty { " " } else { "" };
        let esc = crate::escape;
        let mut out = String::new();
        out.push('{');
        out.push_str(&format!("{nl}{ind}\"user\":{sp}{},", self.user));
        out.push_str(&format!("{nl}{ind}\"query_text\":{sp}\"{}\",", esc(&self.query_text)));
        out.push_str(&format!("{nl}{ind}\"total_nanos\":{sp}{},", self.total_nanos));
        out.push_str(&format!("{nl}{ind}\"personalized\":{sp}{},", self.personalized));
        if let Some(reason) = self.degraded {
            out.push_str(&format!("{nl}{ind}\"degraded\":{sp}\"{}\",", esc(reason)));
        }
        if let Some(hit) = self.cache_hit {
            out.push_str(&format!("{nl}{ind}\"cache_hit\":{sp}{hit},"));
        }
        if let Some(shard) = self.shard {
            out.push_str(&format!("{nl}{ind}\"shard\":{sp}{shard},"));
        }
        if let Some(depth) = self.queue_depth {
            out.push_str(&format!("{nl}{ind}\"queue_depth\":{sp}{depth},"));
        }
        let stages: Vec<String> = self
            .stages
            .iter()
            .map(|s| format!("{{\"stage\":{sp}\"{}\",{sp}\"nanos\":{sp}{}}}", s.stage, s.nanos))
            .collect();
        out.push_str(&format!("{nl}{ind}\"stages\":{sp}[{}],", stages.join(",")));
        out.push_str(&format!(
            "{nl}{ind}\"beta\":{sp}{{\"value\":{sp}{},{sp}\"provenance\":{sp}\"{}\"{}}},",
            self.beta.value,
            esc(self.beta.provenance.label()),
            match (self.beta.content_effectiveness, self.beta.location_effectiveness) {
                (Some(c), Some(l)) => format!(
                    ",{sp}\"content_effectiveness\":{sp}{c},{sp}\"location_effectiveness\":{sp}{l},\
                     {sp}\"clicks\":{sp}{},{sp}\"impressions\":{sp}{}",
                    self.beta.clicks.unwrap_or(0),
                    self.beta.impressions.unwrap_or(0)
                ),
                _ => String::new(),
            }
        ));
        let concept_json = |cs: &[ConceptTrace]| -> String {
            cs.iter()
                .map(|c| {
                    format!(
                        "{{\"name\":{sp}\"{}\",{sp}\"support\":{sp}{}}}",
                        esc(&c.name),
                        c.support
                    )
                })
                .collect::<Vec<_>>()
                .join(",")
        };
        out.push_str(&format!(
            "{nl}{ind}\"content_concepts\":{sp}[{}],",
            concept_json(&self.content_concepts)
        ));
        out.push_str(&format!(
            "{nl}{ind}\"location_concepts\":{sp}[{}],",
            concept_json(&self.location_concepts)
        ));
        let results: Vec<String> = self
            .results
            .iter()
            .map(|r| {
                let feats: Vec<String> = r.features.iter().map(|f| format!("{f}")).collect();
                format!(
                    "{{\"doc\":{sp}{},{sp}\"base_rank\":{sp}{},{sp}\"final_rank\":{sp}{},\
                     {sp}\"rank_delta\":{sp}{},{sp}\"on_page\":{sp}{},{sp}\"base_score\":{sp}{},\
                     {sp}\"features\":{sp}[{}]}}",
                    r.doc,
                    r.base_rank,
                    r.final_rank,
                    r.rank_delta(),
                    r.on_page,
                    r.base_score,
                    feats.join(",")
                )
            })
            .collect();
        out.push_str(&format!("{nl}{ind}\"results\":{sp}[{}]{nl}}}", results.join(",")));
        out
    }
}

/// Human-scale duration formatting for trace rendering.
fn fmt_nanos(nanos: u64) -> String {
    if nanos >= 1_000_000_000 {
        format!("{:.2}s", nanos as f64 / 1e9)
    } else if nanos >= 1_000_000 {
        format!("{:.2}ms", nanos as f64 / 1e6)
    } else if nanos >= 1_000 {
        format!("{:.1}µs", nanos as f64 / 1e3)
    } else {
        format!("{nanos}ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> QueryTrace {
        let mut t = QueryTrace::new(7, "seafood restaurant");
        t.stage("engine.retrieval", 120_000);
        t.stage("engine.concepts", 80_000);
        t.beta = BetaTrace {
            value: 0.62,
            provenance: BetaProvenance::Adaptive,
            content_effectiveness: Some(0.3),
            location_effectiveness: Some(0.5),
            clicks: Some(12),
            impressions: Some(20),
        };
        t.content_concepts.push(ConceptTrace { name: "seafood".into(), support: 0.8 });
        t.location_concepts.push(ConceptTrace { name: "lakemoor".into(), support: 0.4 });
        t.feature_names = vec!["base", "content", "location"];
        t.results.push(ResultTrace {
            doc: 3,
            title: "Seafood lakemoor".into(),
            base_rank: 4,
            final_rank: 1,
            on_page: true,
            base_score: 0.7,
            features: vec![0.7, 0.2, 0.9],
        });
        t.personalized = true;
        t.degraded = Some("deadline_concepts");
        t.shard = Some(2);
        t.queue_depth = Some(1);
        t.total_nanos = 250_000;
        t
    }

    #[test]
    fn rank_delta_signs() {
        let mut r = sample().results[0].clone();
        assert_eq!(r.rank_delta(), 3, "base 4 → final 1 is a +3 promotion");
        r.base_rank = 1;
        r.final_rank = 5;
        assert_eq!(r.rank_delta(), -4);
    }

    #[test]
    fn render_contains_all_decision_inputs() {
        let t = sample();
        let s = t.render();
        for needle in [
            "seafood restaurant",
            "user 7",
            "shard 2",
            "queue depth 1",
            "engine.retrieval",
            "0.6200",
            "adaptive (from click statistics)",
            "12 clicks / 20 impressions",
            "seafood (0.80)",
            "lakemoor (0.40)",
            "base, content, location",
            "↑3",
            "Seafood lakemoor",
            "degraded  : yes [deadline_concepts]",
        ] {
            assert!(s.contains(needle), "render missing {needle:?} in:\n{s}");
        }
    }

    #[test]
    fn json_shape() {
        let t = sample();
        let j = t.to_json(false);
        for needle in [
            "\"user\":7",
            "\"query_text\":\"seafood restaurant\"",
            "\"provenance\":\"adaptive (from click statistics)\"",
            "\"content_effectiveness\":0.3",
            "\"rank_delta\":3",
            "\"shard\":2",
            "\"queue_depth\":1",
            "\"degraded\":\"deadline_concepts\"",
            "\"stages\":[{\"stage\":\"engine.retrieval\",\"nanos\":120000}",
        ] {
            assert!(j.contains(needle), "json missing {needle:?} in:\n{j}");
        }
        assert!(!j.contains('\n'));
        let pretty = t.to_json(true);
        assert!(pretty.contains("\n  \"beta\":"));
    }

    #[test]
    fn stage_total_sums() {
        let t = sample();
        assert_eq!(t.stage_nanos_total(), 200_000);
    }

    #[test]
    fn fmt_nanos_scales() {
        assert_eq!(fmt_nanos(15), "15ns");
        assert_eq!(fmt_nanos(1_500), "1.5µs");
        assert_eq!(fmt_nanos(2_500_000), "2.50ms");
        assert_eq!(fmt_nanos(3_000_000_000), "3.00s");
    }
}
