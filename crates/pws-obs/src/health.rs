//! Declarative SLO monitoring over [`MetricsSnapshot`] deltas.
//!
//! An [`SloSpec`] states what "healthy" means — a p99 latency bound and
//! maximum rates of degraded, shed, and store-I/O-failed queries — and
//! a set of [`BurnWindow`]s over which those objectives are evaluated.
//! A [`HealthMonitor`] keeps a short history of metrics snapshots;
//! each evaluation diffs the newest snapshot against the one
//! `lookback` observations earlier (via [`MetricsSnapshot::delta`]) so
//! verdicts always describe *recent* behaviour, never
//! since-process-start totals.
//!
//! # Burn rates
//!
//! Each objective has an error budget: the fraction of queries allowed
//! to violate it (for the p99 latency objective that budget is 1% by
//! definition; for the rate objectives it is the configured maximum
//! rate). The **burn rate** of a window is
//!
//! ```text
//! burn = (bad / total) / budget
//! ```
//!
//! — how many times faster than "exactly on budget" the system is
//! consuming its allowance. Burn 1.0 means running exactly at the
//! objective; 10.0 means burning budget ten times too fast. Following
//! the standard multi-window pattern, the default spec pairs a **fast**
//! window (one observation interval, high thresholds — catches sudden
//! fires) with a **slow** window (twelve intervals, low thresholds —
//! catches smoulder). An objective's status is the worst verdict any
//! window returns; the report's overall status is the worst objective.
//!
//! A window with zero traffic is Healthy: no queries, no evidence of
//! harm. Every verdict carries its [`WindowEvidence`] (bad, total,
//! budget, burn) so a Critical can be audited rather than trusted.

use crate::{bucket_index, MetricsSnapshot};
use std::collections::VecDeque;
use std::sync::Mutex;

/// One evaluation window: how far back to diff, and the burn-rate
/// thresholds at which it votes Warning / Critical.
#[derive(Debug, Clone, PartialEq)]
pub struct BurnWindow {
    /// Label for reports and the JSON `window` field.
    pub name: &'static str,
    /// How many observations back the delta baseline sits. 1 = the
    /// single most recent interval.
    pub lookback: usize,
    /// Burn rate at or above which this window votes Warning.
    pub warn_burn: f64,
    /// Burn rate at or above which this window votes Critical.
    pub crit_burn: f64,
}

/// What "healthy" means for the serving stack.
#[derive(Debug, Clone, PartialEq)]
pub struct SloSpec {
    /// p99 latency objective for shard search, in nanoseconds: at most
    /// 1% of queries may take longer than this.
    pub p99_latency_nanos: u64,
    /// Maximum fraction of queries answered degraded (deadline
    /// fallback, panic isolation, poisoned-lock recovery).
    pub max_degraded_rate: f64,
    /// Maximum fraction of arrivals shed by admission control.
    pub max_shed_rate: f64,
    /// Maximum fraction of queries that hit a store-tier I/O error.
    pub max_store_io_error_rate: f64,
    /// Maximum fraction of observes whose writeback enqueue hit the
    /// backlog bound and fell back to a synchronous write
    /// (`serve.store.backpressure`). A sustained rate means the
    /// writeback daemon is losing to the disk and request threads are
    /// paying persistence latency.
    pub max_backpressure_rate: f64,
    /// Evaluation windows, typically one fast + one slow.
    pub windows: Vec<BurnWindow>,
}

impl Default for SloSpec {
    fn default() -> Self {
        SloSpec {
            p99_latency_nanos: 2_000_000, // 2ms, the ROADMAP target
            max_degraded_rate: 0.01,
            max_shed_rate: 0.05,
            max_store_io_error_rate: 0.001,
            max_backpressure_rate: 0.01,
            windows: vec![
                BurnWindow { name: "fast", lookback: 1, warn_burn: 2.0, crit_burn: 10.0 },
                BurnWindow { name: "slow", lookback: 12, warn_burn: 1.0, crit_burn: 2.0 },
            ],
        }
    }
}

/// The objectives an [`SloSpec`] tracks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Objective {
    /// Shard-search p99 latency bound.
    P99Latency,
    /// Degraded-answer rate.
    DegradedRate,
    /// Admission-shed rate.
    ShedRate,
    /// Store-tier I/O error rate.
    StoreIoErrorRate,
    /// Writeback-backlog backpressure rate (observes forced into
    /// synchronous writes).
    WritebackBackpressure,
}

impl Objective {
    /// All objectives, in report order.
    pub const ALL: [Objective; 5] = [
        Objective::P99Latency,
        Objective::DegradedRate,
        Objective::ShedRate,
        Objective::StoreIoErrorRate,
        Objective::WritebackBackpressure,
    ];

    /// Stable snake_case name (reports and JSON).
    pub fn name(self) -> &'static str {
        match self {
            Objective::P99Latency => "p99_latency",
            Objective::DegradedRate => "degraded_rate",
            Objective::ShedRate => "shed_rate",
            Objective::StoreIoErrorRate => "store_io_error_rate",
            Objective::WritebackBackpressure => "writeback_backpressure",
        }
    }
}

/// Per-objective (and overall) verdict, ordered by severity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum HealthStatus {
    /// Every window within budget.
    Healthy,
    /// Some window at or above its warn burn rate.
    Warning,
    /// Some window at or above its critical burn rate.
    Critical,
}

impl HealthStatus {
    /// Stable label for reports.
    pub fn label(self) -> &'static str {
        match self {
            HealthStatus::Healthy => "healthy",
            HealthStatus::Warning => "warning",
            HealthStatus::Critical => "critical",
        }
    }
}

/// The arithmetic behind one window's verdict on one objective.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowEvidence {
    /// Window label.
    pub window: &'static str,
    /// Observations back the baseline sat (clamped to history).
    pub lookback: usize,
    /// Objective-violating queries in the window.
    pub bad: u64,
    /// Total queries in the window.
    pub total: u64,
    /// Allowed bad fraction (the error budget).
    pub budget: f64,
    /// `(bad/total)/budget`; 0 when the window saw no traffic.
    pub burn: f64,
    /// This window's verdict.
    pub status: HealthStatus,
}

/// One objective's verdict with the per-window evidence behind it.
#[derive(Debug, Clone, PartialEq)]
pub struct ObjectiveHealth {
    /// Which objective.
    pub objective: Objective,
    /// Worst verdict across windows.
    pub status: HealthStatus,
    /// One entry per configured window.
    pub evidence: Vec<WindowEvidence>,
}

/// The full health verdict: overall status plus per-objective detail.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthReport {
    /// Worst status across objectives.
    pub status: HealthStatus,
    /// One entry per [`Objective::ALL`].
    pub objectives: Vec<ObjectiveHealth>,
}

impl HealthReport {
    /// A report that has seen nothing and judges nothing: Healthy with
    /// zeroed evidence. What a monitor returns before it has two
    /// snapshots to diff.
    pub fn empty(spec: &SloSpec) -> Self {
        let objectives = Objective::ALL
            .iter()
            .map(|&objective| ObjectiveHealth {
                objective,
                status: HealthStatus::Healthy,
                evidence: spec
                    .windows
                    .iter()
                    .map(|w| WindowEvidence {
                        window: w.name,
                        lookback: w.lookback,
                        bad: 0,
                        total: 0,
                        budget: budget_for(spec, objective),
                        burn: 0.0,
                        status: HealthStatus::Healthy,
                    })
                    .collect(),
            })
            .collect();
        HealthReport { status: HealthStatus::Healthy, objectives }
    }

    /// Render for a terminal: one header line, one line per objective,
    /// indented evidence per window.
    pub fn render(&self) -> String {
        let mut out = format!("health: {}\n", self.status.label());
        for obj in &self.objectives {
            out.push_str(&format!("  {:<20} {}\n", obj.objective.name(), obj.status.label()));
            for ev in &obj.evidence {
                out.push_str(&format!(
                    "    window {:<6} burn {:>7.2}  bad {:>6}/{:<6}  budget {}\n",
                    ev.window, ev.burn, ev.bad, ev.total, ev.budget
                ));
            }
        }
        out
    }

    /// Serialize to JSON (no external crates, same hand-rolled style
    /// as [`MetricsSnapshot::to_json`]).
    pub fn to_json(&self) -> String {
        let mut out = format!("{{\"status\":\"{}\",\"objectives\":[", self.status.label());
        for (i, obj) in self.objectives.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"objective\":\"{}\",\"status\":\"{}\",\"windows\":[",
                obj.objective.name(),
                obj.status.label()
            ));
            for (j, ev) in obj.evidence.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!(
                    "{{\"window\":\"{}\",\"status\":\"{}\",\"bad\":{},\"total\":{},\
                     \"budget\":{},\"burn\":{:.4}}}",
                    ev.window,
                    ev.status.label(),
                    ev.bad,
                    ev.total,
                    ev.budget,
                    ev.burn
                ));
            }
            out.push_str("]}");
        }
        out.push_str("]}");
        out
    }
}

/// The error budget (allowed bad fraction) of one objective.
fn budget_for(spec: &SloSpec, objective: Objective) -> f64 {
    let budget = match objective {
        // "p99 below the bound" by definition allows 1% above it.
        Objective::P99Latency => 0.01,
        Objective::DegradedRate => spec.max_degraded_rate,
        Objective::ShedRate => spec.max_shed_rate,
        Objective::StoreIoErrorRate => spec.max_store_io_error_rate,
        Objective::WritebackBackpressure => spec.max_backpressure_rate,
    };
    // A zero/negative budget would make every burn infinite; treat it
    // as "one in a million allowed" so the math stays finite.
    if budget > 0.0 {
        budget
    } else {
        1e-6
    }
}

/// `(bad, total)` for one objective over one interval delta.
///
/// Counts come from the stage registry's serving families:
/// * total admitted queries = Σ `serve.shard{i}.search` histogram counts,
/// * latency violations = histogram mass in buckets strictly above the
///   bucket containing the threshold (conservative: the threshold's own
///   bucket is not counted),
/// * degraded = Σ `serve.degraded.*`, shed = `serve.overloaded`,
///   store errors = `serve.state_io_error`,
/// * backpressure = `serve.store.backpressure` over total observes
///   (Σ `serve.shard{i}.observe` counts — backpressure can only occur
///   on the observe path, so that is the traffic it is rated against).
pub fn objective_counts(
    delta: &MetricsSnapshot,
    spec: &SloSpec,
    objective: Objective,
) -> (u64, u64) {
    let mut searches = 0u64;
    let mut slow = 0u64;
    let slow_from = bucket_index(spec.p99_latency_nanos) + 1;
    for s in &delta.stages {
        if s.name.starts_with("serve.shard") && s.name.ends_with(".search") {
            searches += s.buckets.iter().sum::<u64>();
            slow += s.buckets.iter().skip(slow_from).sum::<u64>();
        }
    }
    let counter = |name: &str| delta.stage(name).map_or(0, |s| s.count);
    let degraded: u64 = delta
        .stages
        .iter()
        .filter(|s| s.name.starts_with("serve.degraded."))
        .map(|s| s.count)
        .sum();
    match objective {
        Objective::P99Latency => (slow, searches),
        Objective::DegradedRate => (degraded, searches),
        Objective::ShedRate => {
            let shed = counter("serve.overloaded");
            (shed, searches + shed)
        }
        Objective::StoreIoErrorRate => (counter("serve.state_io_error"), searches),
        Objective::WritebackBackpressure => {
            let observes: u64 = delta
                .stages
                .iter()
                .filter(|s| s.name.starts_with("serve.shard") && s.name.ends_with(".observe"))
                .map(|s| s.count)
                .sum();
            (counter("serve.store.backpressure"), observes)
        }
    }
}

fn window_verdict(window: &BurnWindow, bad: u64, total: u64, budget: f64) -> WindowEvidence {
    let burn = if total == 0 { 0.0 } else { (bad as f64 / total as f64) / budget };
    let status = if total == 0 {
        HealthStatus::Healthy
    } else if burn >= window.crit_burn {
        HealthStatus::Critical
    } else if burn >= window.warn_burn {
        HealthStatus::Warning
    } else {
        HealthStatus::Healthy
    };
    WindowEvidence {
        window: window.name,
        lookback: window.lookback,
        bad,
        total,
        budget,
        burn,
        status,
    }
}

/// Evaluate `spec` over pre-computed per-window deltas (index-aligned
/// with `spec.windows`). Exposed so callers with their own snapshot
/// bookkeeping (tests, offline analysis) can reuse the exact serving
/// verdict logic.
pub fn evaluate(spec: &SloSpec, window_deltas: &[MetricsSnapshot]) -> HealthReport {
    assert_eq!(window_deltas.len(), spec.windows.len(), "one delta per window");
    let objectives: Vec<ObjectiveHealth> = Objective::ALL
        .iter()
        .map(|&objective| {
            let budget = budget_for(spec, objective);
            let evidence: Vec<WindowEvidence> = spec
                .windows
                .iter()
                .zip(window_deltas)
                .map(|(w, delta)| {
                    let (bad, total) = objective_counts(delta, spec, objective);
                    window_verdict(w, bad, total, budget)
                })
                .collect();
            let status = evidence.iter().map(|e| e.status).max().unwrap_or(HealthStatus::Healthy);
            ObjectiveHealth { objective, status, evidence }
        })
        .collect();
    let status = objectives.iter().map(|o| o.status).max().unwrap_or(HealthStatus::Healthy);
    HealthReport { status, objectives }
}

/// Rolling snapshot history + [`SloSpec`] evaluation.
///
/// Thread-safe; the serving engine holds one and feeds it fresh
/// registry snapshots. Until two snapshots exist every window is empty
/// and the report is [`HealthReport::empty`] — the monitor never
/// judges a process on its since-start totals.
pub struct HealthMonitor {
    spec: SloSpec,
    history: Mutex<VecDeque<MetricsSnapshot>>,
}

impl HealthMonitor {
    /// A monitor with an empty history.
    pub fn new(spec: SloSpec) -> Self {
        HealthMonitor { spec, history: Mutex::new(VecDeque::new()) }
    }

    /// The spec this monitor evaluates.
    pub fn spec(&self) -> &SloSpec {
        &self.spec
    }

    fn capacity(&self) -> usize {
        self.spec.windows.iter().map(|w| w.lookback).max().unwrap_or(1) + 1
    }

    /// Record a snapshot as the newest observation, discarding history
    /// beyond the longest window's reach.
    pub fn observe(&self, snap: MetricsSnapshot) {
        let mut h = self.history.lock().unwrap_or_else(|p| p.into_inner());
        h.push_back(snap);
        let cap = self.capacity();
        while h.len() > cap {
            h.pop_front();
        }
    }

    /// Evaluate the spec against the current history.
    pub fn report(&self) -> HealthReport {
        let h = self.history.lock().unwrap_or_else(|p| p.into_inner());
        let Some(latest) = h.back() else {
            return HealthReport::empty(&self.spec);
        };
        if h.len() < 2 {
            return HealthReport::empty(&self.spec);
        }
        let deltas: Vec<MetricsSnapshot> = self
            .spec
            .windows
            .iter()
            .map(|w| {
                // Clamp to the oldest snapshot we still hold.
                let base = &h[h.len().saturating_sub(w.lookback + 1)];
                latest.delta(base)
            })
            .collect();
        evaluate(&self.spec, &deltas)
    }

    /// [`observe`](Self::observe) then [`report`](Self::report).
    pub fn observe_and_report(&self, snap: MetricsSnapshot) -> HealthReport {
        self.observe(snap);
        self.report()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MetricsSnapshot, StageMetrics};

    /// Build a snapshot describing `total` searches of `nanos` each,
    /// of which `slow` took `slow_nanos`, plus raw counter values.
    fn snap(
        total: u64,
        nanos: u64,
        slow: u64,
        slow_nanos: u64,
        degraded: u64,
        shed: u64,
        io_errors: u64,
    ) -> MetricsSnapshot {
        let search = StageMetrics::new("serve.shard0.search");
        for _ in 0..total.saturating_sub(slow) {
            search.record_nanos(nanos);
        }
        for _ in 0..slow {
            search.record_nanos(slow_nanos);
        }
        let deg = StageMetrics::new("serve.degraded.panic");
        deg.incr(degraded);
        let over = StageMetrics::new("serve.overloaded");
        over.incr(shed);
        let io = StageMetrics::new("serve.state_io_error");
        io.incr(io_errors);
        MetricsSnapshot {
            stages: vec![search.snapshot(), deg.snapshot(), over.snapshot(), io.snapshot()],
        }
    }

    fn find(report: &HealthReport, objective: Objective) -> &ObjectiveHealth {
        report.objectives.iter().find(|o| o.objective == objective).expect("objective present")
    }

    #[test]
    fn no_history_and_no_traffic_are_healthy() {
        let m = HealthMonitor::new(SloSpec::default());
        assert_eq!(m.report().status, HealthStatus::Healthy);
        // One snapshot: still nothing to diff.
        let r = m.observe_and_report(snap(100, 1_000, 0, 0, 50, 0, 0));
        assert_eq!(r.status, HealthStatus::Healthy, "no baseline yet");
        // Identical snapshot again: a genuinely idle interval.
        let r = m.observe_and_report(snap(100, 1_000, 0, 0, 50, 0, 0));
        assert_eq!(r.status, HealthStatus::Healthy);
        for obj in &r.objectives {
            for ev in &obj.evidence {
                assert_eq!((ev.bad, ev.total, ev.burn), (0, 0, 0.0));
            }
        }
    }

    #[test]
    fn degraded_burst_goes_critical_with_evidence() {
        let m = HealthMonitor::new(SloSpec::default());
        m.observe(snap(0, 0, 0, 0, 0, 0, 0));
        // 100 queries, 20 degraded → rate 0.2, budget 0.01 → burn 20.
        let r = m.observe_and_report(snap(100, 1_000, 0, 0, 20, 0, 0));
        assert_eq!(r.status, HealthStatus::Critical);
        let deg = find(&r, Objective::DegradedRate);
        assert_eq!(deg.status, HealthStatus::Critical);
        let fast = &deg.evidence[0];
        assert_eq!((fast.window, fast.bad, fast.total), ("fast", 20, 100));
        assert!((fast.burn - 20.0).abs() < 1e-9);
        // Other objectives saw clean traffic.
        assert_eq!(find(&r, Objective::ShedRate).status, HealthStatus::Healthy);
        assert_eq!(find(&r, Objective::StoreIoErrorRate).status, HealthStatus::Healthy);
    }

    #[test]
    fn warn_sits_between_thresholds() {
        // 15 degraded / 1000 = rate 0.015 / budget 0.01 → burn 1.5:
        // below the fast window's warn (2.0), inside the slow window's
        // warn band (warn 1.0, crit 2.0) → overall Warning.
        let m = HealthMonitor::new(SloSpec::default());
        m.observe(snap(0, 0, 0, 0, 0, 0, 0));
        let r = m.observe_and_report(snap(1000, 1_000, 0, 0, 15, 0, 0));
        let deg = find(&r, Objective::DegradedRate);
        assert_eq!(deg.evidence[0].status, HealthStatus::Healthy, "fast: 1.5 < 2.0");
        assert_eq!(deg.evidence[1].status, HealthStatus::Warning, "slow: 1.0 ≤ 1.5 < 2.0");
        assert_eq!(deg.status, HealthStatus::Warning);
        assert_eq!(r.status, HealthStatus::Warning);
    }

    #[test]
    fn latency_objective_counts_histogram_mass_above_threshold() {
        let m = HealthMonitor::new(SloSpec::default());
        m.observe(snap(0, 0, 0, 0, 0, 0, 0));
        // 100 searches: 90 at ~1µs, 10 at ~16ms (≫ 2ms bound) → 10%
        // above the p99 bound vs 1% budget → burn 10 → Critical fast.
        let r = m.observe_and_report(snap(100, 1_000, 10, 16_000_000, 0, 0, 0));
        let lat = find(&r, Objective::P99Latency);
        assert_eq!(lat.status, HealthStatus::Critical);
        assert_eq!(lat.evidence[0].bad, 10);
        assert_eq!(lat.evidence[0].total, 100);
        // All-fast traffic is healthy.
        let m2 = HealthMonitor::new(SloSpec::default());
        m2.observe(snap(0, 0, 0, 0, 0, 0, 0));
        let r2 = m2.observe_and_report(snap(100, 1_000, 0, 0, 0, 0, 0));
        assert_eq!(find(&r2, Objective::P99Latency).status, HealthStatus::Healthy);
    }

    #[test]
    fn shed_rate_uses_arrivals_not_served() {
        let m = HealthMonitor::new(SloSpec::default());
        m.observe(snap(0, 0, 0, 0, 0, 0, 0));
        // 80 served + 20 shed → shed rate 20/100 vs budget 0.05 → burn 4:
        // Warning on fast (≥2), Critical on slow (≥2)… slow crit is 2.0,
        // so 4 ≥ 2 → Critical overall via the slow window.
        let r = m.observe_and_report(snap(80, 1_000, 0, 0, 0, 20, 0));
        let shed = find(&r, Objective::ShedRate);
        assert_eq!(shed.evidence[0].total, 100, "arrivals = served + shed");
        assert_eq!(shed.evidence[0].status, HealthStatus::Warning);
        assert_eq!(shed.status, HealthStatus::Critical, "slow window crit threshold is lower");
    }

    #[test]
    fn slow_window_spans_many_intervals() {
        // 1 degraded per 100 queries each interval = exactly on budget
        // (burn 1.0) → slow window warns (warn_burn 1.0) once it has
        // data, fast window stays quiet (warn_burn 2.0).
        let m = HealthMonitor::new(SloSpec::default());
        m.observe(snap(0, 0, 0, 0, 0, 0, 0));
        for i in 1..=13u64 {
            // Cumulative totals, so each observe() adds one interval of
            // 100 queries / 1 degraded.
            m.observe(snap(100 * i, 1_000, 0, 0, i, 0, 0));
        }
        let r = m.report();
        let deg = find(&r, Objective::DegradedRate);
        assert_eq!(deg.evidence[0].status, HealthStatus::Healthy, "fast: burn 1 < warn 2");
        assert_eq!(deg.evidence[1].window, "slow");
        assert!((deg.evidence[1].burn - 1.0).abs() < 0.2, "burn {}", deg.evidence[1].burn);
        assert_eq!(deg.evidence[1].status, HealthStatus::Warning);
    }

    #[test]
    fn io_error_objective_trips_on_store_failures() {
        let m = HealthMonitor::new(SloSpec::default());
        m.observe(snap(0, 0, 0, 0, 0, 0, 0));
        // 2 io errors / 100 queries vs 0.001 budget → burn 20.
        let r = m.observe_and_report(snap(100, 1_000, 0, 0, 0, 0, 2));
        assert_eq!(find(&r, Objective::StoreIoErrorRate).status, HealthStatus::Critical);
    }

    #[test]
    fn backpressure_objective_rates_against_observes() {
        let m = HealthMonitor::new(SloSpec::default());
        m.observe(MetricsSnapshot { stages: vec![] });
        let obs = StageMetrics::new("serve.shard0.observe");
        for _ in 0..100 {
            obs.record_nanos(1_000);
        }
        let bp = StageMetrics::new("serve.store.backpressure");
        bp.incr(10);
        let r =
            m.observe_and_report(MetricsSnapshot { stages: vec![obs.snapshot(), bp.snapshot()] });
        let o = find(&r, Objective::WritebackBackpressure);
        // 10 backpressured / 100 observes vs 0.01 budget → burn 10.
        assert_eq!((o.evidence[0].bad, o.evidence[0].total), (10, 100));
        assert_eq!(o.status, HealthStatus::Critical);
        // Search-side objectives saw no traffic at all: healthy.
        assert_eq!(find(&r, Objective::P99Latency).status, HealthStatus::Healthy);

        // An all-async interval (observes, no backpressure) is healthy.
        let m2 = HealthMonitor::new(SloSpec::default());
        m2.observe(MetricsSnapshot { stages: vec![] });
        let obs2 = StageMetrics::new("serve.shard0.observe");
        obs2.record_nanos(1_000);
        let r2 = m2.observe_and_report(MetricsSnapshot { stages: vec![obs2.snapshot()] });
        assert_eq!(find(&r2, Objective::WritebackBackpressure).status, HealthStatus::Healthy);
    }

    #[test]
    fn report_renders_text_and_json() {
        let m = HealthMonitor::new(SloSpec::default());
        m.observe(snap(0, 0, 0, 0, 0, 0, 0));
        let r = m.observe_and_report(snap(100, 1_000, 0, 0, 20, 0, 0));
        let text = r.render();
        assert!(text.starts_with("health: critical\n"));
        assert!(text.contains("degraded_rate"));
        assert!(text.contains("bad     20/100"));
        let json = r.to_json();
        assert!(json.starts_with("{\"status\":\"critical\""));
        assert!(json.contains("\"objective\":\"degraded_rate\""));
        assert!(json.contains("\"bad\":20"));
    }

    #[test]
    fn zero_budget_stays_finite() {
        let spec = SloSpec { max_degraded_rate: 0.0, ..SloSpec::default() };
        let m = HealthMonitor::new(spec);
        m.observe(snap(0, 0, 0, 0, 0, 0, 0));
        let r = m.observe_and_report(snap(100, 1_000, 0, 0, 1, 0, 0));
        let deg = find(&r, Objective::DegradedRate);
        assert!(deg.evidence[0].burn.is_finite());
        assert_eq!(deg.status, HealthStatus::Critical);
    }
}
