//! Store robustness: crash consistency, recovery, and concurrency.
//!
//! * **Old-or-new** — a simulated machine crash at each of `put`'s four
//!   I/O steps leaves the reopened store yielding exactly the previous
//!   record or the new one, never a torn or empty one (the exhaustive
//!   sweep lives in the `crash_gauntlet` bench; this pins the shape).
//! * **Recovery** — opening sweeps `.tmp` orphans; `scrub()` deletes
//!   them, quarantines corrupt records into `quarantine/`, and reports
//!   both in a typed `ScrubReport`; a quarantined file never overwrites
//!   an earlier quarantined copy.
//! * **Typed errors** — a zero-length record file is a `StoreError`,
//!   never a panic.
//! * **Concurrency** — concurrent `put`/`get` of the same user is
//!   last-write-wins at the rename, and a reader never observes a torn
//!   record.

use pws_click::UserId;
use pws_core::UserState;
use pws_ranksvm::LinearRankModel;
use pws_entropy::QueryStats;
use pws_store::{
    encode_user_record, FaultIo, IoFaultSpec, ScrubReport, StoreError, UserRecord, UserStore,
    QUARANTINE_DIR, STATS_FILE,
};
use std::collections::BTreeMap;
use std::sync::Arc;

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("pws-store-rec-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// A record whose model weight distinguishes versions.
fn record(user: u32, version: f64) -> UserRecord {
    let mut state = UserState::new();
    state.model = LinearRankModel::from_weights(vec![version, -version, 0.5]);
    state.observations = version as u64;
    state.seen_queries = vec![format!("q{version}")];
    UserRecord::new(UserId(user), state, BTreeMap::new())
}

fn bytes_of(r: &UserRecord) -> Vec<u8> {
    encode_user_record(r)
}

// ── Crash consistency ───────────────────────────────────────────────────

#[test]
fn crash_at_each_put_step_yields_old_or_new_after_reopen() {
    let old = record(0xA1, 1.0);
    let new = record(0xA1, 2.0);
    // `put` is exactly 4 counted ops: write, sync_file, rename, sync_dir.
    for crash_at in 0..4u64 {
        let dir = temp_dir(&format!("crash{crash_at}"));
        UserStore::open(&dir).unwrap().put(&old).unwrap();
        let faulty = UserStore::open_with_io(
            &dir,
            Arc::new(FaultIo::new(IoFaultSpec { crash_at: Some(crash_at), ..Default::default() })),
        )
        .unwrap();
        let err = faulty.put(&new).expect_err("the machine died mid-put");
        assert!(matches!(err, StoreError::Io(_)), "typed error at step {crash_at}: {err}");
        assert!(!err.is_transient(), "a crash is not retryable");
        drop(faulty);
        // Reboot: plain filesystem again.
        let store = UserStore::open(&dir).unwrap();
        let got = store.get(UserId(0xA1)).unwrap().expect("record must survive");
        let got = bytes_of(&got);
        assert!(
            got == bytes_of(&old) || got == bytes_of(&new),
            "crash at step {crash_at}: neither old nor new record"
        );
        // Crashes before the rename (steps 0-2) must keep the old
        // record; after the rename (step 3) the new one is visible.
        if crash_at < 3 {
            assert_eq!(got, bytes_of(&old), "rename never ran at step {crash_at}");
        } else {
            assert_eq!(got, bytes_of(&new), "rename completed before step {crash_at}");
        }
        // Reopen + scrub leave no temp orphans behind.
        assert!(store.scrub().unwrap().quarantined.is_empty());
        assert!(std::fs::read_dir(&dir).unwrap().all(|e| {
            !e.unwrap().file_name().to_string_lossy().ends_with(".tmp")
        }));
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn transient_put_failure_is_typed_and_retry_succeeds() {
    let dir = temp_dir("transient");
    let io = Arc::new(FaultIo::new(IoFaultSpec { eio_first: 2, ..Default::default() }));
    let store = UserStore::open_with_io(&dir, io.clone()).unwrap();
    let rec = record(7, 1.0);
    // Ops 0 and 1 fail: the first two put attempts die on their first op
    // (write, then the cleanup remove consumes nothing extra? — the
    // cleanup remove *is* counted, so attempt 2 starts at op 2).
    let e = store.put(&rec).expect_err("injected EIO");
    assert!(e.is_transient(), "EIO must classify as retryable: {e}");
    let mut attempts = 1;
    while store.put(&rec).is_err() {
        attempts += 1;
        assert!(attempts < 10, "transient faults must clear");
    }
    let got = store.get(UserId(7)).unwrap().unwrap();
    assert_eq!(bytes_of(&got), bytes_of(&rec));
    let _ = std::fs::remove_dir_all(&dir);
}

// ── Recovery: orphans, quarantine, zero-length files ────────────────────

#[test]
fn open_sweeps_tmp_orphans() {
    let dir = temp_dir("orphans");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join(".user-00000001.tmp"), b"half a record").unwrap();
    std::fs::write(dir.join(".user-00000002.tmp"), b"").unwrap();
    let store = UserStore::open(&dir).unwrap();
    assert!(store.users().unwrap().is_empty());
    let leftovers: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|n| n.ends_with(".tmp"))
        .collect();
    assert!(leftovers.is_empty(), "orphans must be swept on open: {leftovers:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn scrub_quarantines_corrupt_records_and_reports() {
    let dir = temp_dir("scrub");
    let store = UserStore::open(&dir).unwrap();
    store.put(&record(1, 1.0)).unwrap();
    store.put(&record(2, 1.0)).unwrap();
    // Corrupt user 2's visible record with a mid-file bit flip, and
    // drop a fresh orphan .tmp alongside.
    let victim = dir.join("user-00000002.pwsu");
    let mut bytes = std::fs::read(&victim).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(&victim, &bytes).unwrap();
    std::fs::write(dir.join(".user-00000003.tmp"), b"torn").unwrap();

    let report: ScrubReport = store.scrub().unwrap();
    assert_eq!(report.scanned, 2);
    assert_eq!(report.ok, 1);
    assert_eq!(report.tmp_removed, 1);
    assert_eq!(report.skipped, 0);
    assert_eq!(report.quarantined.len(), 1);
    assert_eq!(report.quarantined[0].0, "user-00000002.pwsu");
    assert!(!report.is_clean());

    // The corrupt record now reads as a clean miss, the healthy one
    // survives, and the bytes moved (not vanished).
    assert!(store.get(UserId(2)).unwrap().is_none());
    assert!(store.get(UserId(1)).unwrap().is_some());
    assert!(dir.join(QUARANTINE_DIR).join("user-00000002.pwsu").exists());
    assert_eq!(store.users().unwrap(), vec![UserId(1)]);

    // A second pass over the now-clean directory finds nothing.
    let again = store.scrub().unwrap();
    assert!(again.is_clean(), "second scrub must be clean: {again:?}");
    assert_eq!(again.ok, 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn zero_length_record_file_is_a_typed_error_not_a_panic() {
    let dir = temp_dir("zero");
    let store = UserStore::open(&dir).unwrap();
    std::fs::write(dir.join("user-0000002a.pwsu"), b"").unwrap();
    match store.get(UserId(0x2A)) {
        Err(StoreError::Format(pws_obs::format::FormatError::Truncated(_))) => {}
        other => panic!("zero-length file must be Truncated, got {other:?}"),
    }
    // And scrub treats it as corrupt → quarantine.
    let report = store.scrub().unwrap();
    assert_eq!(report.quarantined.len(), 1);
    assert!(store.get(UserId(0x2A)).unwrap().is_none());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn quarantine_keeps_every_earlier_copy() {
    let dir = temp_dir("requarantine");
    let store = UserStore::open(&dir).unwrap();
    assert!(!store.quarantine_stats().unwrap(), "no statistics file, nothing moved");
    let mut files = Vec::new();
    for clicks in [1, 2] {
        store
            .put_stats(|emit| {
                emit("hotel", &QueryStats::from_parts(vec![], vec![], vec![], clicks, clicks))
            })
            .unwrap();
        files.push(std::fs::read(dir.join(STATS_FILE)).unwrap());
        assert!(store.quarantine_stats().unwrap());
        assert!(store.get_stats().unwrap().is_none(), "moved, not copied");
    }
    let qdir = dir.join(QUARANTINE_DIR);
    assert_eq!(std::fs::read(qdir.join(STATS_FILE)).unwrap(), files[0]);
    assert_eq!(std::fs::read(qdir.join(format!("{STATS_FILE}.1"))).unwrap(), files[1]);

    // A record corrupted twice keeps both quarantined copies as well.
    for _ in 0..2 {
        std::fs::write(dir.join("user-00000007.pwsu"), b"").unwrap();
        assert_eq!(store.scrub().unwrap().quarantined.len(), 1);
    }
    assert!(qdir.join("user-00000007.pwsu").exists());
    assert!(qdir.join("user-00000007.pwsu.1").exists());
    let _ = std::fs::remove_dir_all(&dir);
}

// ── Concurrency ─────────────────────────────────────────────────────────

#[test]
fn concurrent_put_get_same_user_never_observes_a_torn_record() {
    let dir = temp_dir("conc");
    let store = UserStore::open(&dir).unwrap();
    let versions: Vec<Vec<u8>> = (0..4).map(|v| bytes_of(&record(99, v as f64))).collect();
    store.put(&record(99, 0.0)).unwrap();
    const ROUNDS: usize = 50;
    std::thread::scope(|scope| {
        for w in 0..2usize {
            let store = store.clone();
            scope.spawn(move || {
                for i in 0..ROUNDS {
                    // Writers alternate distinct versions; any of them
                    // is a valid final state (last-write-wins).
                    let v = 1 + ((i * 2 + w) % 3);
                    store.put(&record(99, v as f64)).expect("put must not fail");
                }
            });
        }
        let reader = store.clone();
        let versions = &versions;
        scope.spawn(move || {
            for _ in 0..ROUNDS * 2 {
                let got = reader
                    .get(UserId(99))
                    .expect("reader must never see a torn record")
                    .expect("record exists for the whole run");
                let got = bytes_of(&got);
                assert!(
                    versions.contains(&got),
                    "read bytes match no complete version"
                );
            }
        });
    });
    // Last write wins: the final record is one of the written versions
    // and still decodes after the dust settles.
    let final_rec = bytes_of(&store.get(UserId(99)).unwrap().unwrap());
    assert!(versions[1..].contains(&final_rec));
    let _ = std::fs::remove_dir_all(&dir);
}
