//! Crash gauntlet: kill a [`UserStore`] put at **every** I/O step and
//! prove the old-or-new invariant.
//!
//! ```text
//! cargo run -p pws-bench --bin crash_gauntlet -- --smoke   # CI gate
//! cargo run -p pws-bench --bin crash_gauntlet             # full sweep
//! ```
//!
//! A durable put is exactly four counted [`pws_store::StoreIo`] ops — temp write,
//! temp `fsync`, rename, directory `fsync`. The gauntlet drives a
//! [`FaultIo`] over a real directory and checks, for every fault the
//! injector can produce:
//!
//! 1. **Crash sweep** — the machine dies at each op index `0..4` (a
//!    dying write additionally tears its payload at every prefix
//!    length). The put returns a typed error — never a panic — and
//!    after the "reboot" (a fresh [`UserStore`] over the directory) the
//!    store yields the *old* record when the crash preceded the rename,
//!    the *new* record when only the directory `fsync` was lost, and
//!    never a torn or missing one. Orphaned temp files are swept.
//! 2. **Refusal sweep** — `ENOSPC` at each op, a refused rename, and a
//!    sick-then-recovered disk (`eio_first`) all fail typed and
//!    transient; one retry lands the new record with no orphans.
//! 3. **Corruption** — every damaged copy of a record file the shared
//!    container gauntlet makes (each byte flipped, each prefix down to
//!    zero length, each section-table mutation) fails typed on read; for
//!    a bit-flipped and a zero-length record [`UserStore::scrub`]
//!    quarantines the file so the user reads as a clean miss, and a
//!    re-put restores service.
//!
//! Any violation prints the case and exits non-zero. `--smoke` trims
//! the torn-prefix sweep to a handful of lengths; the invariants
//! checked are identical.

use pws_click::UserId;
use pws_core::UserState;
use pws_entropy::QueryStats;
use pws_geo::LocId;
use pws_profile::{ContentProfile, LocationProfile, UserHistory};
use pws_ranksvm::{LinearRankModel, PreferencePair};
use pws_store::{
    encode_user_record, FaultIo, IoFaultSpec, StoreError, UserRecord, UserStore, STORE_FORMAT,
};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::Arc;

const USER: UserId = UserId(0xC0FFEE);

/// A fully-populated record (every codec section non-empty) whose
/// encoding differs per `version` — so "old vs new on disk" is a byte
/// comparison, not a guess.
fn record(version: u64) -> UserRecord {
    let v = version as f64;
    let mut state = UserState::new();
    state.model = LinearRankModel::from_weights(vec![0.25 + v, -1.5 * v, 3.0, v]);
    state.pairs = vec![PreferencePair {
        better: vec![1.0 + v, 2.0, -0.5, 0.125],
        worse: vec![0.0, 1.0, 0.5, -2.0 - v],
    }];
    state.content = ContentProfile::from_entries(
        vec![("seafood".into(), 0.7), ("harbor".into(), 0.3)],
        10 + version,
    );
    state.location =
        LocationProfile::from_entries(vec![(LocId(3), 0.6), (LocId(7), 0.4)], 5 + version);
    state.history = UserHistory::from_entries(
        vec![(format!("http://t.test/{version}"), 3), ("http://t.test/x".into(), 1)],
        vec![("t.test".into(), 4)],
        4,
    );
    state.observations = 10 + version;
    state.seen_queries = vec!["hotel".into(), "seafood".into()];
    let mut stats = BTreeMap::new();
    stats.insert(
        "seafood".into(),
        QueryStats::from_parts(
            vec![(format!("http://t.test/{version}"), 2.0)],
            vec![("seafood".into(), 1.5)],
            vec![(LocId(3), 0.5)],
            9 + version,
            4,
        ),
    );
    UserRecord::new(USER, state, stats)
}

fn fail(case: &str, why: &str) -> ! {
    eprintln!("FAIL [{case}]: {why}");
    std::process::exit(1);
}

fn fresh_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir()
        .join(format!("pws-crash-gauntlet-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn tmp_orphans(dir: &Path) -> Vec<String> {
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.filter_map(|e| e.ok())
                .filter_map(|e| e.file_name().to_str().map(str::to_string))
                .filter(|n| n.ends_with(".tmp"))
                .collect()
        })
        .unwrap_or_default()
}

fn record_bytes(store: &UserStore, case: &str) -> Option<Vec<u8>> {
    match store.get(USER) {
        Ok(rec) => rec.map(|r| encode_user_record(&r)),
        Err(e) => fail(case, &format!("post-reboot get errored: {e:?}")),
    }
}

/// Attempt a put through a fault injector; the put must return a typed
/// error (the gauntlet only drives specs that fault the put) and must
/// never panic. Returns the error.
fn put_must_fail_typed(store: &UserStore, rec: &UserRecord, case: &str) -> StoreError {
    match catch_unwind(AssertUnwindSafe(|| store.put(rec))) {
        Ok(Ok(())) => fail(case, "put succeeded under a fault that must fail it"),
        Ok(Err(e)) => e,
        Err(_) => fail(case, "put PANICKED — typed errors only"),
    }
}

/// Crash at op `crash_at` of a put over an existing old record; check
/// the reboot sees old (crash before the rename) or new (crash at the
/// directory sync, after the rename) — never anything else.
fn crash_case(crash_at: u64, torn_keep: Option<usize>, old: &[u8], new_rec: &UserRecord) {
    let case = format!("crash_at={crash_at} torn_keep={torn_keep:?}");
    let dir = fresh_dir("crash");
    let seeded = UserStore::open(&dir).expect("open for seeding");
    seeded.put(&record(1)).expect("seed old record");

    let io = Arc::new(FaultIo::new(IoFaultSpec {
        seed: 9,
        crash_at: Some(crash_at),
        torn_keep,
        ..IoFaultSpec::default()
    }));
    let dying = UserStore::open_with_io(&dir, io.clone()).expect("open w/ injector");
    let err = put_must_fail_typed(&dying, new_rec, &case);
    if !matches!(err, StoreError::Io(_)) {
        fail(&case, &format!("expected a typed io error, got {err:?}"));
    }
    if io.counts().crashed == 0 {
        fail(&case, "crash never fired — op sweep out of range");
    }
    drop(dying); // the dead "machine"

    // The reboot: a fresh store over the directory, healthy disk.
    let rebooted = UserStore::open(&dir).expect("reopen after crash");
    let got = record_bytes(&rebooted, &case)
        .unwrap_or_else(|| fail(&case, "record vanished across the crash"));
    let want_new = crash_at >= 3; // rename (op 2) already published
    let want = if want_new { encode_user_record(new_rec) } else { old.to_vec() };
    if got != want {
        fail(
            &case,
            &format!("reboot saw a {} record", if got == old { "stale" } else { "torn/foreign" }),
        );
    }
    let orphans = tmp_orphans(&dir);
    if !orphans.is_empty() {
        fail(&case, &format!("reopen left temp orphans: {orphans:?}"));
    }
    let report = rebooted.scrub().expect("scrub after reboot");
    if !report.is_clean() || report.ok != 1 {
        fail(&case, &format!("post-reboot scrub not clean: {report:?}"));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A fault that refuses the put once (typed, transient); the retry must
/// land the new record with no orphans left behind.
fn refusal_case(tag: &str, spec: IoFaultSpec, new_rec: &UserRecord) {
    let case = format!("refusal {tag}");
    let dir = fresh_dir("refusal");
    UserStore::open(&dir).expect("seed open").put(&record(1)).expect("seed");
    let io = Arc::new(FaultIo::new(spec));
    let store = UserStore::open_with_io(&dir, io).expect("open w/ injector");
    let err = put_must_fail_typed(&store, new_rec, &case);
    if !err.is_transient() {
        fail(&case, &format!("refusal must be typed transient, got {err:?}"));
    }
    if let Err(e) = store.put(new_rec) {
        fail(&case, &format!("retry after refusal failed: {e:?}"));
    }
    drop(store);
    let reopened = UserStore::open(&dir).expect("reopen");
    let got = record_bytes(&reopened, &case)
        .unwrap_or_else(|| fail(&case, "record missing after retry"));
    if got != encode_user_record(new_rec) {
        fail(&case, "retry did not land the new record");
    }
    let orphans = tmp_orphans(&dir);
    if !orphans.is_empty() {
        fail(&case, &format!("temp orphans after retry: {orphans:?}"));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every damaged copy of a record file reads back through the store as
/// a typed, non-transient error (a panic fails the gate). Returns how
/// many were tried.
fn corrupt_reads_fail_typed() -> usize {
    let dir = fresh_dir("gauntlet");
    let store = UserStore::open(&dir).expect("open");
    let path = dir.join(format!("user-{:08x}.pwsu", USER.0));
    let tried = STORE_FORMAT.gauntlet(&encode_user_record(&record(1)), |bad| {
        std::fs::write(&path, bad).expect("write damaged record");
        matches!(store.get(USER), Err(e) if !e.is_transient())
    });
    let _ = std::fs::remove_dir_all(&dir);
    tried
}

/// Bit-flip / truncate-to-zero corruption: scrub quarantines, the user
/// becomes a clean miss, a re-put restores it.
fn corruption_case(tag: &str, corrupt: &dyn Fn(&Path)) {
    let case = format!("corruption {tag}");
    let dir = fresh_dir("corrupt");
    let store = UserStore::open(&dir).expect("open");
    store.put(&record(1)).expect("seed");
    let path = dir.join(format!("user-{:08x}.pwsu", USER.0));
    corrupt(&path);
    let report = store.scrub().expect("scrub");
    if report.quarantined.len() != 1 {
        fail(&case, &format!("expected 1 quarantined record: {report:?}"));
    }
    if store.get(USER).expect("post-quarantine get").is_some() {
        fail(&case, "quarantined user must read as a clean miss");
    }
    let qname = &report.quarantined[0].0;
    if !dir.join(pws_store::QUARANTINE_DIR).join(qname).exists() {
        fail(&case, "quarantined bytes not preserved for forensics");
    }
    store.put(&record(2)).expect("re-put after quarantine");
    if record_bytes(&store, &case) != Some(encode_user_record(&record(2))) {
        fail(&case, "re-put did not restore the user");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let new_rec = record(2);
    let old = encode_user_record(&record(1));
    let new_len = encode_user_record(&new_rec).len();

    // 1. Crash sweep: every op index; a dying write (op 0) additionally
    //    swept over torn prefix lengths.
    let torn_keeps: Vec<usize> = if smoke {
        vec![0, 1, new_len / 2, new_len.saturating_sub(1), new_len]
    } else {
        let stride = (new_len / 128).max(1);
        (0..=new_len).step_by(stride).chain([new_len]).collect()
    };
    let mut crash_cases = 0usize;
    for crash_at in 0..4u64 {
        crash_case(crash_at, None, &old, &new_rec);
        crash_cases += 1;
    }
    for &keep in &torn_keeps {
        crash_case(0, Some(keep), &old, &new_rec);
        crash_cases += 1;
    }

    // 2. Refusals: ENOSPC at every op, a refused rename, a disk that is
    //    sick for the whole first attempt and then recovers.
    let mut refusal_cases = 0usize;
    for op in 0..4u64 {
        refusal_case(
            &format!("enospc_at={op}"),
            IoFaultSpec { seed: 9, enospc_at: Some(op), ..IoFaultSpec::default() },
            &new_rec,
        );
        refusal_cases += 1;
    }
    refusal_case(
        "rename_refused",
        IoFaultSpec { seed: 9, rename_fail_at: Some(2), ..IoFaultSpec::default() },
        &new_rec,
    );
    refusal_case(
        "torn_then_retry",
        IoFaultSpec { seed: 9, torn_at: Some(0), torn_keep: Some(3), ..IoFaultSpec::default() },
        &new_rec,
    );
    refusal_cases += 2;

    // 3. Corruption → typed error → quarantine → clean miss → recovery.
    let corrupt_reads = corrupt_reads_fail_typed();
    corruption_case("bit_flip", &|p: &Path| {
        let mut bytes = std::fs::read(p).expect("read for corruption");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(p, bytes).expect("write corruption");
    });
    corruption_case("zero_length", &|p: &Path| {
        std::fs::write(p, b"").expect("truncate to zero");
    });

    println!(
        "crash gauntlet OK: {crash_cases} crash cases (4 op kills + {} torn prefixes), \
         {refusal_cases} typed refusals retried to the new record, \
         {corrupt_reads} damaged record files read back as typed errors, \
         2 corruption cases quarantined and recovered — zero panics",
        torn_keeps.len(),
    );
}
