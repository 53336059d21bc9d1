//! `pws-trace` — replay one query from an eval fixture and pretty-print
//! its decision trace.
//!
//! ```text
//! cargo run -p pws-bench --release --bin pws-trace -- small 3
//! cargo run -p pws-bench --release --bin pws-trace -- small 3 --user 2 --train 40
//! cargo run -p pws-bench --release --bin pws-trace -- paper 17 --shards 8 --json
//! ```
//!
//! Builds the named experiment fixture (`small` or `paper`), warms the
//! target user with `--train` simulated interactions exactly the way the
//! eval harness does (same per-user seed, same click model), then issues
//! query `<query-id>` through the sharded serving path's `search_traced`
//! and prints the resulting [`pws_obs::trace::QueryTrace`]: the query's
//! flight event (admission, the five stage slots, β and its provenance,
//! cache hit, degrade reason), extracted content/location concepts with
//! supports, the entropy inputs behind an adaptive β, and per-result
//! feature vectors with base→final rank deltas for every pool candidate. `--json` emits the trace as JSON
//! instead of the human-readable rendering.
//!
//! The `flight` subcommand renders a `PWSFLT1` flight-recorder dump
//! (see `docs/FLIGHT_FORMAT.md`) instead of replaying anything:
//!
//! ```text
//! cargo run -p pws-bench --release --bin pws-trace -- flight results/flight-0000.pwsflt
//! cargo run -p pws-bench --release --bin pws-trace -- flight dump.pwsflt --degraded
//! cargo run -p pws-bench --release --bin pws-trace -- flight dump.pwsflt --user=3 --json
//! ```
//!
//! `--user=N` / `--shard=N` filter to one user or shard, `--degraded`
//! keeps only degraded events, `--json` emits the events as JSON.
//!
//! The `user` subcommand renders one `PWSUSR1` user record — a store-tier
//! record file or an `export_user` export (see `docs/STORE_FORMAT.md`):
//! its model weights by feature name, heaviest profile weights, pair
//! count, and per-query click and impression totals — for a store-tier
//! record, from the statistics file beside it (`query-stats.pwsq`).
//!
//! ```text
//! cargo run -p pws-bench --release --bin pws-trace -- user store/user-00000003.pwsu
//! ```

use pws_click::{SessionSimulator, SimConfig, UserId};
use pws_core::EngineConfig;
use pws_corpus::query::QueryId;
use pws_eval::{user_seed, ClickModelKind, ExperimentSpec, ExperimentWorld};
use pws_obs::flight::FlightDump;
use pws_serve::{ServeConfig, ServingEngine};

fn usage() -> ! {
    eprintln!(
        "usage: pws-trace <small|paper> <query-id> [--user N] [--train N] \
         [--shards N] [--seed N] [--json]\n\
       pws-trace flight <dump.pwsflt> [--user=N] [--shard=N] [--degraded] [--json]\n\
       pws-trace user <record.pwsu>\n\
         \n\
         Replays one query from the eval fixture through the serving path\n\
         with tracing enabled and prints the decision trace, or renders a\n\
         PWSFLT1 flight-recorder dump or a PWSUSR1 user record."
    );
    std::process::exit(2);
}

/// The `flight` subcommand: load, filter, and render a PWSFLT1 dump.
fn flight_main(path: &str, args: &[String]) -> ! {
    let dump = match FlightDump::read_from(std::path::Path::new(path)) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("error: cannot load flight dump {path:?}: {e}");
            std::process::exit(1);
        }
    };
    let user = parse_flag(args, "user").map(|u| u as u32);
    let shard = parse_flag(args, "shard").map(|s| s as u32);
    let degraded_only = args.iter().any(|a| a == "--degraded");
    let json = args.iter().any(|a| a == "--json");
    let total = dump.events.len();
    let filtered = FlightDump {
        reason: dump.reason,
        shard_count: dump.shard_count,
        events: dump
            .events
            .into_iter()
            .filter(|ev| user.is_none_or(|u| ev.user == u))
            .filter(|ev| shard.is_none_or(|s| ev.shard == s))
            .filter(|ev| !degraded_only || ev.degraded.is_some())
            .collect(),
    };
    if json {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"reason\": \"{}\",\n", filtered.reason.label()));
        out.push_str(&format!("  \"shard_count\": {},\n", filtered.shard_count));
        out.push_str(&format!("  \"total_events\": {total},\n"));
        out.push_str("  \"events\": [");
        for (i, ev) in filtered.events.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str(&format!("    {}", ev.to_json()));
        }
        out.push_str("\n  ]\n}");
        println!("{out}");
    } else {
        println!("{}", filtered.render());
        if filtered.events.len() < total {
            println!("({} of {total} events after filters)", filtered.events.len());
        }
    }
    std::process::exit(0);
}

/// The `user` subcommand: decode and render one PWSUSR1 user record,
/// filling the statistics of its seen queries that the record itself
/// lacks from the statistics file beside it, if there is one.
fn user_main(path: &str) -> ! {
    let bytes = std::fs::read(path).map_err(|e| e.to_string());
    match bytes.and_then(|b| pws_store::decode_user_record(&b).map_err(|e| e.to_string())) {
        Ok(mut record) => {
            let beside = std::path::Path::new(path).with_file_name(pws_store::STATS_FILE);
            match std::fs::read(&beside).map(|b| pws_store::decode_stats_file(&b)) {
                Ok(Ok(pooled)) => pooled.into_iter().for_each(|(key, s)| {
                    if record.state.seen_queries.contains(&key) {
                        record.query_stats.entry(key).or_insert(s);
                    }
                }),
                Ok(Err(e)) => eprintln!("warning: ignoring {}: {e}", beside.display()),
                Err(_) => {} // no statistics file beside the record
            }
            print!("{}", record.render());
        }
        Err(e) => {
            eprintln!("error: cannot load user record {path:?}: {e}");
            std::process::exit(1);
        }
    }
    std::process::exit(0);
}

fn parse_flag(args: &[String], name: &str) -> Option<u64> {
    let eq = format!("--{name}=");
    for (i, a) in args.iter().enumerate() {
        if a == &format!("--{name}") {
            return args.get(i + 1).and_then(|v| v.parse().ok());
        }
        if let Some(v) = a.strip_prefix(&eq) {
            return v.parse().ok();
        }
    }
    None
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let positional: Vec<&String> =
        args.iter().filter(|a| !a.starts_with("--")).collect();
    // Flag values consumed by `--flag N` also land in `positional`; only
    // the first two positionals (fixture, query id) are meaningful, and
    // flags are recommended in `--flag=N` form. Reject obvious misuse.
    let (fixture, query_arg) = match (positional.first(), positional.get(1)) {
        (Some(f), Some(q)) => (f.as_str(), q.as_str()),
        _ => usage(),
    };
    match fixture {
        "flight" => flight_main(query_arg, &args),
        "user" => user_main(query_arg),
        _ => {}
    }

    let spec = match fixture {
        "small" => ExperimentSpec::small(),
        "paper" => ExperimentSpec::default_paper(),
        other => {
            eprintln!("unknown fixture {other:?} (want: small | paper)");
            usage();
        }
    };
    let Ok(query_id) = query_arg.parse::<u32>() else {
        eprintln!("query id {query_arg:?} is not a number");
        usage();
    };

    let user_idx = parse_flag(&args, "user").unwrap_or(0) as usize;
    let train = parse_flag(&args, "train").unwrap_or(40) as usize;
    let shards = parse_flag(&args, "shards").unwrap_or(8).max(1) as usize;
    let seed = parse_flag(&args, "seed").unwrap_or(99);
    let json = args.iter().any(|a| a == "--json");

    eprintln!(
        "building {fixture} fixture ({} docs, {} users, {} queries)…",
        spec.corpus.num_docs, spec.users.num_users, spec.queries.num_queries
    );
    let world = ExperimentWorld::build(spec);
    if query_id as usize >= world.queries.len() {
        eprintln!(
            "query id {query_id} out of range: the {fixture} fixture has {} queries (0..={})",
            world.queries.len(),
            world.queries.len() - 1
        );
        std::process::exit(2);
    }
    if user_idx >= world.population.len() {
        eprintln!(
            "user {user_idx} out of range: the {fixture} fixture has {} users",
            world.population.len()
        );
        std::process::exit(2);
    }

    // Same serving configuration the eval harness uses for its sharded
    // backend; only the replayed query is traced.
    let engine = ServingEngine::new(
        &world.engine,
        &world.world,
        EngineConfig::default(),
        ServeConfig { shards, stats_refresh_every: 1, ..ServeConfig::default() },
    );
    let top_k = EngineConfig::default().top_k;
    let mut sim = SessionSimulator::with_model(
        &world.engine,
        &world.corpus,
        &world.world,
        &world.population,
        &world.queries,
        SimConfig { top_k, seed: user_seed(seed, user_idx) },
        ClickModelKind::PositionBias.build(),
    );
    let user = UserId(user_idx as u32);

    // Warm the user's profile exactly like the harness training phase.
    eprintln!("warming user {user_idx} with {train} interaction(s)…");
    for _ in 0..train {
        let qid = sim.sample_query(user);
        let intent = sim.sample_intent_city(user);
        let query = &sim.queries()[qid.index()];
        let text = sim.render_query(query, intent);
        let turn = engine.search(user, &text);
        let outcome = sim.issue_on_hits(user, qid, intent, &text, &turn.hits);
        engine.observe(&turn, &outcome.impression);
    }

    // The replayed query: the requested template, rendered with a
    // deterministically sampled intent city for this user.
    let qid = QueryId(query_id);
    let intent = sim.sample_intent_city(user);
    let query = &sim.queries()[qid.index()];
    let text = sim.render_query(query, intent);
    let (_turn, trace) = engine.search_traced(user, &text);

    if json {
        println!("{}", trace.to_json(true));
    } else {
        println!("{}", trace.render());
    }
}
