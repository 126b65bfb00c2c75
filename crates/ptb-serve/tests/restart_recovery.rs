//! Crash-recovery integration: background jobs must survive a daemon
//! restart through the job journal — original ids, journaled shard rows
//! reused *verbatim* (never recomputed), remainder resumed — and a
//! panicking shard must fail its job without taking the daemon down.
//!
//! Failpoints are process-global, and so is the `PTB_FAILPOINTS`
//! registry; every test here serializes on [`TEST_LOCK`] so one test's
//! armed `shard_exec` cannot leak into another's server.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

use ptb_accel::config::Policy;
use ptb_bench::{failpoint, sweep_rows, RunOptions, SweepRow};
use ptb_serve::client;
use ptb_serve::journal::JobJournal;
use ptb_serve::{Server, ServerConfig};

static TEST_LOCK: Mutex<()> = Mutex::new(());

fn serialized() -> std::sync::MutexGuard<'static, ()> {
    TEST_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

fn tmp_dir(tag: &str) -> PathBuf {
    static UNIQ: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "ptb-restart-test-{tag}-{}-{}",
        std::process::id(),
        UNIQ.fetch_add(1, Ordering::Relaxed),
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn server_with_jobs(dir: &Path, workers: usize) -> Server {
    Server::start(&ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers,
        queue_cap: 32,
        cache: ptb_bench::CacheMode::Mem,
        job_dir: Some(dir.to_path_buf()),
        deadline_ms: None,
        verify: ptb_accel::audit::AuditLevel::Off,
        ..ServerConfig::default()
    })
    .expect("bind test server")
}

/// Polls `GET /jobs/{id}` until the job is terminal; returns the final
/// poll JSON.
fn poll_to_terminal(addr: std::net::SocketAddr, id: u64) -> serde_json::Value {
    let deadline = Instant::now() + Duration::from_secs(120);
    let text = client::poll_job(addr, id, deadline).expect("job must terminate");
    serde_json::from_str(&text).expect("poll parses")
}

fn metrics(addr: std::net::SocketAddr) -> serde_json::Value {
    let (status, text) = client::request_json(addr, "GET", "/metrics", "").expect("/metrics");
    assert_eq!(status, 200, "{text}");
    serde_json::from_str(&text).expect("metrics parse")
}

fn journal_counter(m: &serde_json::Value, key: &str) -> u64 {
    m.get("journal")
        .and_then(|j| j.get(key))
        .and_then(|v| v.as_u64())
        .unwrap_or_else(|| panic!("journal counter {key} missing: {m:?}"))
}

#[test]
fn restart_resumes_jobs_without_recomputing_journaled_shards() {
    let _guard = serialized();
    let dir = tmp_dir("resume");
    let spec = spikegen::dvs_gesture();
    let tws = vec![1u32, 4, 8];
    let opts = RunOptions::quick();
    let expected = sweep_rows(&spec, Policy::ptb(), &tws, &opts, &opts.new_cache());

    // Handcraft the journal a crashed daemon would have left behind:
    // the submission, shard 0's true row, and shard 1 journaled with a
    // SENTINEL row. If restart recomputed journaled shards, the
    // sentinel could never appear in the final rows.
    let sentinel = SweepRow {
        tw: 4,
        energy_j: 0.015625,
        seconds: 0.25,
        edp: 0.00390625,
    };
    assert_ne!(sentinel, expected[1], "sentinel must be distinguishable");
    let journal = JobJournal::new(&dir);
    journal.log_submit(
        7,
        &spec,
        Policy::ptb(),
        &tws,
        true,
        42,
        ptb_accel::audit::AuditLevel::Off,
    );
    journal.log_shard(7, 0, &expected[0]);
    journal.log_shard(7, 1, &sentinel);

    let server = server_with_jobs(&dir, 2);
    let addr = server.addr();
    let poll = poll_to_terminal(addr, 7);
    assert_eq!(poll.get("done").and_then(|v| v.as_bool()), Some(true));
    let rows: Vec<SweepRow> =
        serde_json::from_value(poll.get("rows").expect("rows")).expect("rows parse");
    assert_eq!(
        rows[0], expected[0],
        "journaled row 0 reused bit-identically"
    );
    assert_eq!(
        rows[1], sentinel,
        "journaled row 1 reused verbatim, not recomputed"
    );
    assert_eq!(
        rows[2], expected[2],
        "unjournaled shard recomputed bit-identically"
    );

    let m = metrics(addr);
    assert_eq!(journal_counter(&m, "resumed_jobs"), 1, "{m:?}");
    assert_eq!(journal_counter(&m, "replayed_shards"), 2, "{m:?}");
    // The resumed server journaled shard 2 and the done record.
    assert!(journal_counter(&m, "appends") >= 2, "{m:?}");

    // A *second* restart reloads the now-complete job without work.
    server.shutdown();
    server.join();
    let server = server_with_jobs(&dir, 2);
    let addr = server.addr();
    let poll = poll_to_terminal(addr, 7);
    let rows: Vec<SweepRow> =
        serde_json::from_value(poll.get("rows").expect("rows")).expect("rows parse");
    assert_eq!(rows[1], sentinel, "reloaded rows keep the journaled bytes");
    let m = metrics(addr);
    assert_eq!(journal_counter(&m, "reloaded_jobs"), 1, "{m:?}");
    assert_eq!(journal_counter(&m, "replayed_shards"), 3, "{m:?}");
    assert_eq!(journal_counter(&m, "appends"), 0, "reload appends nothing");

    // Fresh ids never collide with replayed ones.
    let body = "{\"network\": \"DVS-Gesture\", \"policy\": \"PTB\", \"tws\": [1], \
                \"quick\": true, \"background\": true}";
    let (status, text) = client::request_json(addr, "POST", "/sweep", body).unwrap();
    assert_eq!(status, 202, "{text}");
    let ack: serde_json::Value = serde_json::from_str(&text).unwrap();
    let new_id = ack.get("job").and_then(|v| v.as_u64()).expect("job id");
    assert!(
        new_id > 7,
        "fresh id {new_id} must not collide with replayed 7"
    );

    server.shutdown();
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn worker_panic_fails_the_job_and_the_daemon_survives_to_recover_it() {
    let _guard = serialized();
    let dir = tmp_dir("panic");
    let server = server_with_jobs(&dir, 2);
    let addr = server.addr();
    let tws = [1u32, 4];

    failpoint::set("shard_exec", "panic").unwrap();
    let body = format!(
        "{{\"network\": \"DVS-Gesture\", \"policy\": \"PTB\", \"tws\": {tws:?}, \
         \"quick\": true, \"background\": true}}"
    );
    let (status, text) = client::request_json(addr, "POST", "/sweep", &body).unwrap();
    assert_eq!(status, 202, "{text}");
    let ack: serde_json::Value = serde_json::from_str(&text).unwrap();
    let id = ack.get("job").and_then(|v| v.as_u64()).expect("job id");

    let poll = poll_to_terminal(addr, id);
    assert_eq!(
        poll.get("failed").and_then(|v| v.as_bool()),
        Some(true),
        "panicking shard must fail the job: {poll:?}"
    );
    let reason = poll
        .get("error")
        .and_then(|v| v.as_str())
        .expect("failed jobs carry a reason")
        .to_string();
    assert!(reason.contains("panic"), "reason names the panic: {reason}");
    failpoint::clear("shard_exec");

    // The daemon survived: health, metrics, and real work all fine.
    let (status, text) = client::request_json(addr, "GET", "/healthz", "").unwrap();
    assert_eq!(status, 200, "{text}");
    let m = metrics(addr);
    assert!(
        m.get("panics_contained").and_then(|v| v.as_u64()) >= Some(1),
        "containment must be counted: {m:?}"
    );
    let sync_body = format!(
        "{{\"network\": \"DVS-Gesture\", \"policy\": \"PTB\", \"tws\": {tws:?}, \"quick\": true}}"
    );
    let (status, text) = client::request_json(addr, "POST", "/sweep", &sync_body).unwrap();
    assert_eq!(status, 200, "daemon must still serve sweeps: {text}");

    // Restart: the failed job was journaled as unfinished (failure is
    // not a journaled state), so the new daemon resumes and finishes it
    // under the same id.
    server.shutdown();
    server.join();
    let server = server_with_jobs(&dir, 2);
    let addr = server.addr();
    let poll = poll_to_terminal(addr, id);
    assert_eq!(
        poll.get("done").and_then(|v| v.as_bool()),
        Some(true),
        "restart must recover the panicked job: {poll:?}"
    );
    let rows: Vec<SweepRow> =
        serde_json::from_value(poll.get("rows").expect("rows")).expect("rows parse");
    let opts = RunOptions::quick();
    let spec = spikegen::dvs_gesture();
    let expected = sweep_rows(&spec, Policy::ptb(), &tws, &opts, &opts.new_cache());
    assert_eq!(
        rows, expected,
        "recovered rows bit-identical to the harness"
    );

    server.shutdown();
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sync_sweep_deadline_expiry_answers_503_with_retry_after() {
    let _guard = serialized();
    let server = Server::start(&ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        queue_cap: 32,
        cache: ptb_bench::CacheMode::Mem,
        job_dir: None,
        deadline_ms: None,
        verify: ptb_accel::audit::AuditLevel::Off,
        ..ServerConfig::default()
    })
    .expect("bind test server");
    let addr = server.addr();

    // Each shard dawdles 300 ms at the failpoint; with 4 shards over 2
    // claimers and a 50 ms deadline, at most one shard per claimer
    // lands before the cutoff stops further claiming.
    failpoint::set("shard_exec", "sleep:300").unwrap();
    let body = "{\"network\": \"DVS-Gesture\", \"policy\": \"PTB\", \
                \"tws\": [1, 2, 4, 8], \"quick\": true, \"deadline_ms\": 50}";
    let resp = client::request_typed(addr, "POST", "/sweep", None, body.as_bytes()).unwrap();
    failpoint::clear("shard_exec");
    assert_eq!(resp.status, 503, "{}", String::from_utf8_lossy(&resp.body));
    assert!(
        resp.retry_after.is_some(),
        "503 must carry Retry-After backpressure guidance"
    );
    let m = metrics(addr);
    assert!(
        m.get("deadline_expired").and_then(|v| v.as_u64()) >= Some(1),
        "{m:?}"
    );

    // Without a deadline the same sweep completes normally.
    let ok_body = "{\"network\": \"DVS-Gesture\", \"policy\": \"PTB\", \
                   \"tws\": [1, 2, 4, 8], \"quick\": true}";
    let (status, text) = client::request_json(addr, "POST", "/sweep", ok_body).unwrap();
    assert_eq!(status, 200, "{text}");

    server.shutdown();
    server.join();
}
