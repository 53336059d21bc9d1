//! The closed loop: two clients offer a workload's request streams to one
//! `ServingEngine` for a fixed time, timing every `search` and `observe`
//! and checking every page. With a [`Prober`] the same loop is the traced
//! pass (see `probe`).

use crate::probe::{Prober, Spans};
use crate::schedule::ClientStream;
use crate::workload::{impression, Fixture, Workload, CLIENTS};
use pws_click::UserId;
use pws_core::SearchTurn;
use pws_serve::ServingEngine;
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// What one client measured.
#[derive(Default)]
pub struct ClientResult {
    /// Wall time of every `search`, nanoseconds.
    pub search_ns: Vec<u64>,
    /// Wall time of every `observe`, nanoseconds.
    pub observe_ns: Vec<u64>,
    /// Pages that were empty or malformed.
    pub bad_pages: u64,
    /// Offset of the client's last completed request from the run's start.
    pub finished_ns: u64,
    pub spans: Spans,
}

/// Both clients' results.
pub struct RunResult {
    pub clients: Vec<ClientResult>,
}

impl RunResult {
    pub fn searches(&self) -> u64 {
        self.clients.iter().map(|c| c.search_ns.len() as u64).sum()
    }

    pub fn observes(&self) -> u64 {
        self.clients.iter().map(|c| c.observe_ns.len() as u64).sum()
    }

    pub fn bad_pages(&self) -> u64 {
        self.clients.iter().map(|c| c.bad_pages).sum()
    }

    /// Wall time of the measured schedule: start to the last completion.
    pub fn wall_secs(&self) -> f64 {
        self.clients.iter().map(|c| c.finished_ns).max().unwrap_or(0) as f64 / 1e9
    }

    pub fn search_samples(&self) -> Vec<u64> {
        self.clients.iter().flat_map(|c| c.search_ns.iter().copied()).collect()
    }

    pub fn observe_samples(&self) -> Vec<u64> {
        self.clients.iter().flat_map(|c| c.observe_ns.iter().copied()).collect()
    }
}

/// A page is well-formed when it has 1..=`top_k` hits, all distinct
/// documents, ranked 1..n in order.
pub fn page_ok(turn: &SearchTurn, top_k: usize) -> bool {
    let hits = &turn.hits;
    !hits.is_empty()
        && hits.len() <= top_k
        && hits.iter().enumerate().all(|(i, h)| h.rank == i + 1)
        && hits.iter().enumerate().all(|(i, h)| hits[..i].iter().all(|p| p.doc != h.doc))
}

/// Every `PROBE_EVERY`-th search of a client is traced and probed.
pub const PROBE_EVERY: u64 = 4;

/// Run the workload's schedule closed-loop for `run_for` (or until each
/// client has issued `max_searches`), returning the raw samples. `probers`
/// holds one entry per client: `Some` makes this the traced pass.
pub fn run(
    engine: &ServingEngine<'_>,
    fx: &Fixture,
    w: &Workload,
    seed: u64,
    run_for: Duration,
    max_searches: u64,
    mut probers: Vec<Option<Prober<'_>>>,
) -> RunResult {
    let spec = w.schedule(fx.queries.len());
    let top_k = engine.config().top_k;
    let barrier = Barrier::new(CLIENTS as usize);
    assert_eq!(probers.len(), CLIENTS as usize, "one (optional) prober per client");
    let clients = std::thread::scope(|scope| {
        let handles: Vec<_> = probers
            .iter_mut()
            .enumerate()
            .map(|(client, prober)| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut out = ClientResult::default();
                    // Room for any plausible run, so no sample push reallocates.
                    out.search_ns.reserve(1 << 18);
                    out.observe_ns.reserve(1 << 17);
                    let mut stream = ClientStream::new(seed, spec, client as u32);
                    barrier.wait();
                    let start = Instant::now();
                    let mut now = start;
                    let mut issued = 0u64;
                    while now.duration_since(start) < run_for && issued < max_searches {
                        let r = stream.next().expect("client streams are endless");
                        issued += 1;
                        let text = &fx.queries[r.query as usize];
                        let t0 = Instant::now();
                        let turn = engine.search(UserId(r.user), text);
                        let t1 = Instant::now();
                        out.search_ns.push((t1 - t0).as_nanos() as u64);
                        let ok = page_ok(&turn, top_k);
                        out.bad_pages += u64::from(!ok);
                        now = t1;
                        let mut observed = None;
                        if r.observe && ok {
                            let imp = impression(&turn, r.click_pos);
                            let t2 = Instant::now();
                            engine.observe(&turn, &imp);
                            now = Instant::now();
                            out.observe_ns.push((now - t2).as_nanos() as u64);
                            observed = Some((t2, now));
                        }
                        out.finished_ns = now.duration_since(start).as_nanos() as u64;
                        if let Some(p) = prober.as_mut() {
                            if issued.is_multiple_of(PROBE_EVERY) {
                                p.request(start, (t0, t1), observed, r.user, text, &turn);
                                now = Instant::now();
                            }
                        }
                    }
                    if let Some(p) = prober.take() {
                        out.spans = p.finish();
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    });
    RunResult { clients }
}
