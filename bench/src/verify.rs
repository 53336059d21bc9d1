//! The correctness pass: the repo's replay-equivalence contract applied to
//! benchmark traffic.
//!
//! One client replays warm-up rounds and then the workload's own request
//! stream through a `ServingEngine` configured as the workload says (store
//! tier included, so `store.churn` replays across evict → fault-in) and
//! through a serial `PersonalizedSearchEngine` over the same backend. With
//! `stats_refresh_every = 1` and a single client the two see the same
//! statistics at every turn, so every page's `(doc, rank)` list, β bits and
//! personalised flag must match.

use crate::schedule::{warm_up, ClientStream, Request, ScheduleSpec};
use crate::workload::{impression, Fixture, Workload};
use pws_click::UserId;
use pws_core::{EngineConfig, PersonalizedSearchEngine, SearchTurn};
use std::path::Path;

/// Searches replayed (observes ride on top).
pub const VERIFY_SEARCHES: usize = 500;
/// Warm-up rounds at the head of the replay: every verify user searches
/// and clicks this many times before the stream starts.
const VERIFY_WARM_ROUNDS: u32 = 2;

fn page(turn: &SearchTurn) -> (Vec<(u32, usize)>, u64, bool) {
    (turn.hits.iter().map(|h| (h.doc, h.rank)).collect(), turn.beta.to_bits(), turn.personalized)
}

/// Replay and compare; `Err` names the first diverging request.
pub fn replay_equivalence(
    fx: &Fixture,
    w: &Workload,
    seed: u64,
    searches: usize,
    store_dir: &Path,
) -> Result<(), String> {
    // One client over the verify population: with a store tier it exceeds
    // the resident capacity, so users are evicted and faulted back in.
    let spec = ScheduleSpec {
        clients: 1,
        users: w.verify_users.min(w.users),
        warm_turns: VERIFY_WARM_ROUNDS,
        ..w.schedule(fx.queries.len())
    };
    let requests: Vec<Request> = warm_up(seed, spec, 0)
        .into_iter()
        .chain(ClientStream::new(seed, spec, 0))
        .take(searches)
        .collect();

    let serving = fx.engine(w, store_dir, Some(1));
    let mut serial =
        PersonalizedSearchEngine::new(fx.backend.as_dyn(), &fx.world, EngineConfig::default());
    for (i, r) in requests.iter().enumerate() {
        let text = &fx.queries[r.query as usize];
        let a = serving.search(UserId(r.user), text);
        let b = serial.search(UserId(r.user), text);
        if page(&a) != page(&b) {
            return Err(format!(
                "{}: request {i} (user {}, query {text:?}) diverges: serving {:?} vs serial {:?}",
                w.name,
                r.user,
                page(&a),
                page(&b)
            ));
        }
        if r.observe && !a.hits.is_empty() {
            serving.observe(&a, &impression(&a, r.click_pos));
            serial.observe(&b, &impression(&b, r.click_pos));
        }
    }
    Ok(())
}
