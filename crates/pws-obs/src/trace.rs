//! Per-query decision traces.
//!
//! The aggregate [`crate::MetricsSnapshot`] answers "how slow is stage
//! X overall"; a [`QueryTrace`] answers the scrutability questions a
//! re-ranker owes its operators: *why did document D rank #1 for this
//! query* and *where did this query's latency go*. A trace is the
//! query's [`FlightEvent`] — who, where, the five stage slots, β and its
//! provenance, cache hit, degrade reason — plus the decision detail the
//! event has no room for:
//!
//! * the content/location concepts the ranker saw (with support),
//! * when β is adaptive, the entropy-derived effectiveness inputs,
//! * every pool candidate's feature vector and base-rank → final-rank
//!   movement.
//!
//! The types here are plain data with no behavior beyond rendering:
//! tracing must never perturb ranking, so the engine only *copies*
//! values it computed anyway. The engine writes the event for every
//! search; it fills the detail only for a caller that asks for a trace
//! (`search_traced`). The serving layer's record of recent traffic is
//! the ring of events alone.

use crate::event::{FlightEvent, SEARCH_STAGES};

/// How the blend weight β was determined for a turn.
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

/// The entropy-derived inputs behind an adaptive β
/// ([`BetaProvenance::Adaptive`]); the value and provenance themselves
/// live in the trace's event.
#[derive(Debug, Clone, PartialEq)]
pub struct BetaInputs {
    /// Content-personalization effectiveness (normalized entropy ×
    /// evidence shrinkage).
    pub content_effectiveness: f64,
    /// Location-personalization effectiveness.
    pub location_effectiveness: f64,
    /// Accumulated clicks behind the statistics.
    pub clicks: u64,
    /// Accumulated impressions behind the statistics.
    pub impressions: u64,
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

/// Everything one traced search turn decided, and why.
///
/// The [`event`](Self::event) is the same record the flight recorder
/// keeps; `EngineCore::search_user_gated` fills the detail around it.
/// Plain data — cloneable, renderable, JSON-serializable without
/// external crates.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryTrace {
    /// The query's flight event, as the serving path stamped it.
    pub event: FlightEvent,
    /// The query text as received.
    pub query_text: String,
    /// The entropy inputs behind an adaptive β (`None` when β was
    /// pinned by mode or configuration, or took the neutral prior).
    pub beta_inputs: Option<BetaInputs>,
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
}

impl QueryTrace {
    /// An empty trace for a turn about to execute; its event is stamped
    /// once the turn is served.
    pub fn new(query_text: &str) -> Self {
        QueryTrace {
            event: FlightEvent::empty(),
            query_text: query_text.to_string(),
            beta_inputs: None,
            content_concepts: Vec::new(),
            location_concepts: Vec::new(),
            feature_names: Vec::new(),
            results: Vec::new(),
            personalized: false,
        }
    }

    /// Pretty-print the full decision record (the `pws-trace` CLI's
    /// output format).
    pub fn render(&self) -> String {
        let ev = &self.event;
        let stage_total: u64 = ev.stage_nanos.iter().sum();
        let mut out = String::new();
        out.push_str(&format!("query trace: {:?} (user {})\n", self.query_text, ev.user));
        out.push_str(&format!(
            "  admission : shard {}, queue depth {}\n",
            ev.shard, ev.queue_depth
        ));
        out.push_str(&format!(
            "  latency   : {} total, {} in engine stages\n",
            fmt_nanos(ev.total_nanos.max(stage_total)),
            fmt_nanos(stage_total)
        ));
        for (stage, nanos) in SEARCH_STAGES.iter().zip(ev.stage_nanos) {
            out.push_str(&format!("    {stage:<18} {}\n", fmt_nanos(nanos)));
        }
        out.push_str(&format!("  β         : {:.4} [{}]\n", ev.beta(), ev.beta_provenance.label()));
        if let Some(b) = &self.beta_inputs {
            out.push_str(&format!(
                "    effectiveness content {:.4}, location {:.4} ({} clicks / {} impressions)\n",
                b.content_effectiveness, b.location_effectiveness, b.clicks, b.impressions
            ));
        }
        out.push_str(&format!(
            "  personalized: {}\n",
            if self.personalized { "yes" } else { "no (baseline order kept)" }
        ));
        if let Some(reason) = ev.degraded {
            out.push_str(&format!("  degraded  : yes [{}]\n", reason.label()));
        }
        if let Some(hit) = ev.cache_hit {
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
        out.push_str(&format!("{nl}{ind}\"event\":{sp}{},", self.event.to_json()));
        out.push_str(&format!("{nl}{ind}\"query_text\":{sp}\"{}\",", esc(&self.query_text)));
        out.push_str(&format!("{nl}{ind}\"personalized\":{sp}{},", self.personalized));
        if let Some(b) = &self.beta_inputs {
            out.push_str(&format!(
                "{nl}{ind}\"beta_inputs\":{sp}{{\"content_effectiveness\":{sp}{},\
                 {sp}\"location_effectiveness\":{sp}{},{sp}\"clicks\":{sp}{},\
                 {sp}\"impressions\":{sp}{}}},",
                b.content_effectiveness, b.location_effectiveness, b.clicks, b.impressions
            ));
        }
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
        let mut t = QueryTrace::new("seafood restaurant");
        t.event.user = 7;
        t.event.stage_nanos = [120_000, 80_000, 0, 0, 0];
        t.event.beta_bits = 0.62f64.to_bits();
        t.event.beta_provenance = BetaProvenance::Adaptive;
        t.beta_inputs = Some(BetaInputs {
            content_effectiveness: 0.3,
            location_effectiveness: 0.5,
            clicks: 12,
            impressions: 20,
        });
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
        t.event.degraded = Some(crate::event::DegradeReason::DeadlineConcepts);
        t.event.shard = 2;
        t.event.queue_depth = 1;
        t.event.total_nanos = 250_000;
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
            "\"user\": 7",
            "\"query_text\":\"seafood restaurant\"",
            "\"beta_provenance\": \"adaptive\"",
            "\"content_effectiveness\":0.3",
            "\"rank_delta\":3",
            "\"shard\": 2",
            "\"queue_depth\": 1",
            "\"degraded\": \"deadline_concepts\"",
            "\"stage_nanos\": [120000,80000,0,0,0]",
        ] {
            assert!(j.contains(needle), "json missing {needle:?} in:\n{j}");
        }
        assert!(!j.contains('\n'));
        let pretty = t.to_json(true);
        assert!(pretty.contains("\n  \"beta_inputs\":"));
    }

    #[test]
    fn stage_total_sums() {
        let s = sample().render();
        assert!(s.contains("250.0µs total, 200.0µs in engine stages"), "{s}");
    }

    #[test]
    fn fmt_nanos_scales() {
        assert_eq!(fmt_nanos(15), "15ns");
        assert_eq!(fmt_nanos(1_500), "1.5µs");
        assert_eq!(fmt_nanos(2_500_000), "2.50ms");
        assert_eq!(fmt_nanos(3_000_000_000), "3.00s");
    }
}
