//! The end-to-end serving benchmark: what a `ServingEngine::search` caller
//! sees on four traffic shapes, and — in a separate traced pass — where
//! each layer's time goes. See `bench/README.md`.
//!
//! ```text
//! bench/run.sh                                  # all four workloads, both passes
//! bench/run.sh --repeat 2                       # … twice, and compare against the bounds
//! bench/run.sh --smoke                          # same code paths, seconds
//! bench/run.sh --workload paper.hot --seed 7 --seconds 12 --trace 0
//! ```
//!
//! With `--workload` this process measures that one workload and prints the
//! result object as its last line; without it, it runs every workload and
//! pass in a fresh child process each and writes `bench/out/latest.json`.

mod drive;
mod probe;
mod report;
mod schedule;
mod verify;
mod workload;

use report::{Counters, END_TO_END, PER_LAYER};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};
use workload::{Fixture, Workload, CLIENTS, WORKLOADS};

/// Seconds one run measures; the same number is `run_seconds` in
/// `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 12;
/// Full set-ups per untraced run, each followed by a third of the measured
/// time; every end-to-end timing is the median of the three.
const SETUP_REPS: usize = 3;
/// Searches per client in `--smoke` mode.
const SMOKE_SEARCHES: u64 = 200;
/// Everything the benchmark writes lands here (ignored by git).
const OUT_DIR: &str = "bench/out";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
    repeat: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 42,
        seconds: RUN_SECONDS,
        trace: false,
        smoke: false,
        repeat: 1,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value("a name")?),
            "--seed" => a.seed = value("a number")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value("a number")?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                a.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--repeat" => {
                a.repeat = value("a count")?.parse().map_err(|e| format!("--repeat: {e}"))?
            }
            "--smoke" => a.smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if a.seconds == 0 || a.repeat == 0 {
        return Err("--seconds and --repeat must be at least 1".to_string());
    }
    Ok(a)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if cfg!(debug_assertions) {
        eprintln!("error: built with debug assertions; the benchmark measures release builds only");
        return ExitCode::from(2);
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    if nproc < CLIENTS as usize {
        eprintln!("error: {nproc} core(s) available, the load model needs {CLIENTS}");
        return ExitCode::from(2);
    }
    let outcome = match &args.workload {
        Some(name) => run_one(name, &args),
        None => run_suite(&args, nproc),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Scratch directory of one run, removed when dropped.
struct TempDir(PathBuf);

impl TempDir {
    fn create(tag: &str) -> std::io::Result<TempDir> {
        let dir = Path::new(OUT_DIR).join("tmp").join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(TempDir(dir))
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Measure one workload in this process. `Ok(false)` when the run
/// completed but its outputs were wrong.
fn run_one(name: &str, args: &Args) -> Result<bool, String> {
    let full = Workload::by_name(name).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?}; the workloads are {names:?}")
    })?;
    let w = if args.smoke { full.smoke() } else { full };
    let tmp = TempDir::create(w.name).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    let max_searches = if args.smoke { SMOKE_SEARCHES } else { u64::MAX };
    // The traced pass reports no set-up time, so it sets up once.
    let reps = if args.trace || args.smoke { 1 } else { SETUP_REPS };

    // Every set-up is followed by its share of the measured time.
    let run_for = Duration::from_secs_f64(args.seconds as f64 / reps as f64);
    let mut setup_secs = Vec::with_capacity(reps);
    let mut segments = Vec::with_capacity(reps);
    let mut verified = Ok(());
    let mut schedule_hash = 0;
    for rep in 0..reps {
        let store_dir = tmp.0.join(format!("store-{rep}"));
        let t = Instant::now();
        let fx = Fixture::build(&w, args.smoke);
        let engine = fx.engine(&w, &store_dir, None);
        workload::warm(&engine, &fx, &w, args.seed);
        setup_secs.push(t.elapsed().as_secs_f64());
        eprintln!("{}: set-up {} of {reps} took {:.2}s", w.name, rep + 1, setup_secs[rep]);

        let probers = (0..CLIENTS)
            .map(|c| {
                let scratch = tmp.0.join(format!("probe-{c}"));
                args.trace.then(|| probe::Prober::new(&engine, &fx, c, &scratch))
            })
            .collect();
        let before = pws_obs::snapshot();
        let run = drive::run(&engine, &fx, &w, args.seed, run_for, max_searches, probers);
        segments.push((run, before, pws_obs::snapshot()));
        // The engine flushes its store on drop, before the directory goes.
        drop(engine);

        if rep == 0 {
            schedule_hash = schedule::schedule_hash(args.seed, w.schedule(fx.queries.len()));
            let searches = if args.smoke { 100 } else { verify::VERIFY_SEARCHES };
            let t = Instant::now();
            verified =
                verify::replay_equivalence(&fx, &w, args.seed, searches, &tmp.0.join("verify"));
            eprintln!("{}: correctness replay took {:.2}s", w.name, t.elapsed().as_secs_f64());
        }
    }
    let attempted: u64 = segments.iter().map(|(r, ..)| r.searches() + r.observes()).sum();
    let failed: u64 = segments
        .iter()
        .map(|(r, before, after)| {
            r.bad_pages() + Counters { before, after }.engine_failures() as u64
        })
        .sum();
    if let Err(e) = &verified {
        eprintln!("{}: correctness replay FAILED: {e}", w.name);
    }
    let correct = verified.is_ok() && failed == 0;
    let (metrics, gated, file) = if args.trace {
        let (run, before, after) = &segments[0];
        let spans: Vec<&probe::Spans> = run.clients.iter().map(|c| &c.spans).collect();
        let path = Path::new(OUT_DIR).join(format!("{}.trace.jsonl", w.name));
        probe::write_jsonl(&path, &spans).map_err(|e| format!("{}: {e}", path.display()))?;
        let counters = Counters { before, after };
        let has_store = w.store_capacity_per_shard.is_some();
        (report::per_layer(run, &counters, has_store), PER_LAYER.len(), "trace.json")
    } else {
        let runs: Vec<&drive::RunResult> = segments.iter().map(|(r, ..)| r).collect();
        (report::end_to_end(&runs, &setup_secs, failed), END_TO_END.len(), "json")
    };

    if args.smoke {
        println!("SMOKE — not comparable");
    }
    report::print_lines(w.name, &metrics);
    let detail = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"smoke\": {}, \"traced\": {}, \
         \"schedule_hash\": \"{schedule_hash:016x}\", \"correct\": {correct}, \
         \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}\n",
        w.name,
        args.seed,
        args.seconds,
        args.smoke,
        args.trace,
        report::metrics_json(&metrics)
    );
    let path = Path::new(OUT_DIR).join(format!("{}.{file}", w.name));
    std::fs::write(&path, detail).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("{}", report::result_line(correct, attempted.max(1), failed, &metrics[..gated]));
    Ok(correct)
}

/// `(workload, metric) → value` as printed by a child run.
type Table = BTreeMap<(String, String), f64>;

/// Run one workload pass in a fresh process, echo its output, and collect
/// its `workload metric unit value` lines.
fn child(w: &Workload, args: &Args, trace: bool, into: &mut Table) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", w.name, "--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string(), "--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if args.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd.output().map_err(|e| format!("spawning {}: {e}", w.name))?;
    for line in String::from_utf8_lossy(&out.stdout).lines() {
        // The child's result object is for the driver; the lines say the same.
        if line.starts_with('{') {
            continue;
        }
        println!("{line}");
        let f: Vec<&str> = line.split_whitespace().collect();
        if let [workload, metric, _unit, value] = f[..] {
            if let Ok(v) = value.parse::<f64>() {
                into.insert((workload.to_string(), metric.to_string()), v);
            }
        }
    }
    Ok(out.status.success())
}

/// Every workload, untraced then traced, each in a fresh process; repeated
/// `--repeat` times on the same binary.
fn run_suite(args: &Args, nproc: usize) -> Result<bool, String> {
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    let mut ok = true;
    let mut sets: Vec<Table> = Vec::new();
    for rep in 0..args.repeat {
        let mut table = Table::new();
        for w in &WORKLOADS {
            eprintln!("── {} (set {} of {}): {} ──", w.name, rep + 1, args.repeat, w.why);
            ok &= child(w, args, false, &mut table)?;
            ok &= child(w, args, true, &mut table)?;
            let get = |m: &str| table.get(&(w.name.to_string(), m.to_string())).copied();
            if let (Some(traced), Some(plain)) =
                (get("serve_search_traced_p50_us"), get("search_p50_ms"))
            {
                println!("{} trace_overhead_ratio ratio {}", w.name, traced / (plain * 1e3) - 1.0);
            }
        }
        sets.push(table);
    }

    if args.repeat > 1 {
        ok &= print_repeat_table(&sets);
    }
    write_latest(args, nproc)?;
    if args.smoke {
        println!("SMOKE — not comparable");
    }
    println!("{}", if ok { "benchmark: ok" } else { "benchmark: FAILED" });
    Ok(ok)
}

/// The repeatability check: per workload × end-to-end metric, every set's
/// value, the largest difference from the first set, and the bound.
fn print_repeat_table(sets: &[Table]) -> bool {
    let mut ok = true;
    println!("\n| workload | metric | values | worst difference | bound | |");
    println!("|---|---|---|---|---|---|");
    for w in &WORKLOADS {
        for (metric, _, bound) in END_TO_END {
            let key = (w.name.to_string(), metric.to_string());
            let values: Vec<f64> = sets.iter().filter_map(|t| t.get(&key).copied()).collect();
            let worst =
                values.iter().map(|v| (v - values[0]).abs() / values[0]).fold(0.0_f64, f64::max);
            let within = values.len() == sets.len() && worst <= bound;
            ok &= within;
            let shown: Vec<String> = values.iter().map(|v| format!("{v:.4}")).collect();
            println!(
                "| {} | {metric} | {} | {:.1}% | {:.0}% | {} |",
                w.name,
                shown.join(" / "),
                worst * 100.0,
                bound * 100.0,
                if within { "ok" } else { "EXCEEDED" }
            );
        }
    }
    ok
}

/// `bench/out/latest.json`: the run's identity plus each workload's two
/// result files (the last set's, when repeated).
fn write_latest(args: &Args, nproc: usize) -> Result<(), String> {
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".to_string());
    let mut runs = Vec::new();
    for w in &WORKLOADS {
        for file in ["json", "trace.json"] {
            let path = Path::new(OUT_DIR).join(format!("{}.{file}", w.name));
            match std::fs::read_to_string(&path) {
                Ok(text) => runs.push(text.trim_end().to_string()),
                Err(e) => eprintln!("warn: {}: {e}", path.display()),
            }
        }
    }
    let latest = format!(
        "{{\"seed\": {}, \"git_sha\": \"{}\", \"rustc\": \"{}\", \"nproc\": {nproc}, \
         \"clients\": {CLIENTS}, \"seconds\": {}, \"smoke\": {}, \"repeat\": {},\n\"runs\": [\n{}\n]}}\n",
        args.seed,
        env("PWS_BENCH_GIT_SHA"),
        env("PWS_BENCH_RUSTC"),
        args.seconds,
        args.smoke,
        args.repeat,
        runs.join(",\n")
    );
    let path = Path::new(OUT_DIR).join("latest.json");
    std::fs::write(&path, latest).map_err(|e| format!("{}: {e}", path.display()))
}
