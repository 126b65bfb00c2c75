//! Cluster chaos: the coordinator must keep its bit-identity promise
//! while the fleet misbehaves. One test `kill -9`s a worker *process*
//! mid-sweep (spawned through the `ptb-clusterd --spawn-worker` role,
//! so `CARGO_BIN_EXE_ptb-clusterd` is the only binary needed) and
//! asserts the dead worker's shards are reclaimed by the survivor with
//! rows bit-identical to a no-failure run; another injects garbage
//! worker responses through the `cluster_dispatch` failpoint and
//! asserts retries succeed without any liveness penalty.
//!
//! Worker processes are spawned through `ptb_serve::launch::Daemon`,
//! which kills and reaps them when a test fails; the launcher's own
//! failed-handshake path is tested here too. Failpoints are
//! process-global, so the tests serialize on [`TEST_LOCK`].

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

use ptb_accel::config::Policy;
use ptb_bench::{failpoint, sweep_rows, RunOptions, SweepRow};
use ptb_cluster::{ClusterConfig, Coordinator};
use ptb_serve::client;
use ptb_serve::launch::Daemon;
use ptb_serve::{Server, ServerConfig};

static TEST_LOCK: Mutex<()> = Mutex::new(());

fn serialized() -> std::sync::MutexGuard<'static, ()> {
    TEST_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

fn tmp_path(tag: &str) -> PathBuf {
    static UNIQ: AtomicUsize = AtomicUsize::new(0);
    std::env::temp_dir().join(format!(
        "ptb-cluster-chaos-{tag}-{}-{}",
        std::process::id(),
        UNIQ.fetch_add(1, Ordering::Relaxed),
    ))
}

/// Spawns a killable worker *process* (`ptb-clusterd --spawn-worker`)
/// on an ephemeral port, with every sweep shard slowed by `shard_ms` at
/// the `shard_exec` failpoint so a kill reliably lands mid-shard.
fn spawn_worker_process(shard_ms: u64) -> Daemon {
    let failpoints = format!("shard_exec=sleep:{shard_ms}");
    Daemon::worker(
        Path::new(env!("CARGO_BIN_EXE_ptb-clusterd")),
        None,
        &[("PTB_FAILPOINTS", failpoints)],
    )
    .expect("spawn worker process")
}

/// A daemon that dies before its port handshake (here: an unknown
/// flag) is an error at once — reporting its exit status, which also
/// proves the child was reaped — not a 30-second wait.
#[test]
fn a_daemon_that_exits_before_its_handshake_fails_fast_and_is_reaped() {
    let started = Instant::now();
    let err = Daemon::spawn(
        Path::new(env!("CARGO_BIN_EXE_ptb-clusterd")),
        &["--no-such-flag".into()],
        &[],
    )
    .err()
    .expect("an unknown flag must fail the handshake");
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "took {:?}",
        started.elapsed()
    );
    assert!(
        err.contains("exited (exit status: 2)"),
        "error must carry the exit status: {err}"
    );
}

#[test]
fn killed_worker_mid_sweep_is_reclaimed_and_rows_stay_bit_identical() {
    let _guard = serialized();
    let mut workers = [spawn_worker_process(200), spawn_worker_process(200)];
    let coordinator = Coordinator::start(&ClusterConfig {
        addr: "127.0.0.1:0".into(),
        workers: workers.iter().map(|w| w.addr().to_string()).collect(),
        fail_threshold: 1,
        probe_interval_ms: 100,
        probe_timeout_ms: 500,
        dispatch_timeout_ms: 10_000,
        ..ClusterConfig::default()
    })
    .expect("bind coordinator");
    let addr = coordinator.addr();

    // Enough shards that both workers own several: kills land mid-shard
    // and leave pending shards behind to reclaim.
    let tws: Vec<u32> = (1..=24).collect();
    let body = format!(
        "{{\"network\": \"DVS-Gesture\", \"policy\": \"PTB\", \"tws\": {tws:?}, \
         \"quick\": true, \"background\": true}}"
    );
    let (status, text) = client::request_json(addr, "POST", "/sweep", &body).unwrap();
    assert_eq!(status, 202, "{text}");
    let ack: serde_json::Value = serde_json::from_str(&text).unwrap();
    let id = ack.get("job").and_then(|v| v.as_u64()).expect("job id");

    // Kill a worker while a shard is in flight on it: its own metrics
    // count more shard requests accepted (the coordinator dispatches
    // shards, and only shards, in the binary codec) than it answered
    // and than the coordinator has completed for it. Only a shard
    // accepted since the previous poll qualifies, so the kill lands
    // early in its 200 ms dawdle, not as it finishes.
    let deadline = Instant::now() + Duration::from_secs(60);
    let mut seen = [0u64; 2];
    let victim = 'watch: loop {
        for (w, worker) in workers.iter().enumerate() {
            let (status, text) =
                client::request_json(worker.addr(), "GET", "/metrics", "").expect("worker metrics");
            assert_eq!(status, 200, "{text}");
            let m: serde_json::Value = serde_json::from_str(&text).unwrap();
            let count = |v: Option<&serde_json::Value>| v.and_then(|v| v.as_u64()).unwrap_or(0);
            let accepted = count(m.get("codec_bin"));
            let answered = count(
                m.get("endpoints")
                    .and_then(|e| e.get("sweep"))
                    .and_then(|s| s.get("requests")),
            );
            let completed = coordinator.metrics().per_worker[w]
                .dispatched
                .load(Ordering::Relaxed);
            let fresh = accepted > seen[w];
            seen[w] = accepted;
            if fresh && accepted > answered && accepted > completed {
                break 'watch w;
            }
        }
        assert!(
            Instant::now() < deadline,
            "no shard was ever seen in flight"
        );
        std::thread::sleep(Duration::from_millis(5));
    };
    workers[victim].kill();

    // The sweep must still finish, and finish *right*.
    let text = client::poll_job(addr, id, deadline).expect("sweep never finished after the kill");
    let poll: serde_json::Value = serde_json::from_str(&text).unwrap();
    assert_ne!(
        poll.get("failed").and_then(|v| v.as_bool()),
        Some(true),
        "sweep must survive the kill: {text}"
    );
    let rows: Vec<SweepRow> =
        serde_json::from_value(poll.get("rows").expect("rows present")).unwrap();

    let opts = RunOptions::quick();
    let spec = spikegen::network_by_name("DVS-Gesture").unwrap();
    let expected = sweep_rows(&spec, Policy::ptb(), &tws, &opts, &opts.new_cache());
    assert_eq!(
        rows, expected,
        "rows after a mid-sweep kill must be bit-identical to a no-failure run"
    );

    let m = coordinator.metrics();
    assert!(
        m.worker_deaths.load(Ordering::Relaxed) >= 1,
        "the kill must register as a worker death"
    );
    assert!(
        m.shards_reclaimed.load(Ordering::Relaxed) >= 1,
        "the victim's in-flight shard must be reclaimed by the survivor"
    );

    coordinator.shutdown();
    coordinator.join();
}

#[test]
fn garbage_worker_responses_are_retried_without_liveness_penalty() {
    let _guard = serialized();
    let workers: Vec<Server> = (0..2)
        .map(|_| {
            Server::start(&ServerConfig {
                addr: "127.0.0.1:0".into(),
                workers: 2,
                queue_cap: 32,
                cache: ptb_bench::CacheMode::Mem,
                ..ServerConfig::default()
            })
            .expect("bind worker")
        })
        .collect();
    let coordinator = Coordinator::start(&ClusterConfig {
        addr: "127.0.0.1:0".into(),
        workers: workers.iter().map(|w| w.addr().to_string()).collect(),
        ..ClusterConfig::default()
    })
    .expect("bind coordinator");
    let addr = coordinator.addr();

    // Every dispatch fails the response check while armed: the workers
    // answer (so they are alive), but the coordinator must treat the
    // answers as garbage and re-queue the shards.
    failpoint::set("cluster_dispatch", "err").unwrap();
    let tws = [1u32, 2, 4, 8];
    let body = format!(
        "{{\"network\": \"DVS-Gesture\", \"policy\": \"PTB+StSAP\", \"tws\": {tws:?}, \
         \"quick\": true, \"seed\": 42}}"
    );
    let sweep = std::thread::spawn(move || client::request_json(addr, "POST", "/sweep", &body));
    let deadline = Instant::now() + Duration::from_secs(30);
    while coordinator
        .metrics()
        .dispatch_failures
        .load(Ordering::Relaxed)
        == 0
    {
        assert!(Instant::now() < deadline, "no dispatch ever failed");
        std::thread::sleep(Duration::from_millis(5));
    }
    failpoint::clear("cluster_dispatch");

    let (status, text) = sweep.join().unwrap().unwrap();
    assert_eq!(status, 200, "{text}");
    let rows: Vec<SweepRow> = serde_json::from_str(&text).unwrap();
    let opts = RunOptions::quick();
    let spec = spikegen::network_by_name("DVS-Gesture").unwrap();
    let expected = sweep_rows(
        &spec,
        Policy::ptb_with_stsap(),
        &tws,
        &opts,
        &opts.new_cache(),
    );
    assert_eq!(rows, expected, "garbage responses must not corrupt rows");

    let m = coordinator.metrics();
    assert!(m.dispatch_failures.load(Ordering::Relaxed) >= 1);
    assert_eq!(
        m.worker_deaths.load(Ordering::Relaxed),
        0,
        "garbage proves liveness: answering workers must not be declared dead"
    );
    let (status, text) = client::request_json(addr, "GET", "/cluster", "").unwrap();
    assert_eq!(status, 200);
    let topo: serde_json::Value = serde_json::from_str(&text).unwrap();
    assert_eq!(topo.get("alive").and_then(|v| v.as_u64()), Some(2));

    coordinator.shutdown();
    coordinator.join();
    for w in workers {
        w.shutdown();
        w.join();
    }
}

/// A `kill -9`ed *coordinator* is the journal test: replay must resume
/// a mid-sweep job under its original id and finish it with rows
/// bit-identical to an uninterrupted run. Exercised in-process here by
/// starting a second coordinator over the first one's journal directory
/// (the first is shut down mid-sweep rather than killed — the journal
/// path is identical, and `kill -9` of a real coordinator process is
/// covered by the CI cluster stage).
#[test]
fn coordinator_restart_resumes_a_journaled_sweep_from_its_dispatch_journal() {
    let _guard = serialized();
    let workers = [spawn_worker_process(150), spawn_worker_process(150)];
    let job_dir = tmp_path("journal");
    let _ = std::fs::remove_dir_all(&job_dir);
    let cfg = ClusterConfig {
        addr: "127.0.0.1:0".into(),
        workers: workers.iter().map(|w| w.addr().to_string()).collect(),
        job_dir: Some(job_dir.clone()),
        fail_threshold: 1,
        probe_interval_ms: 100,
        probe_timeout_ms: 500,
        dispatch_timeout_ms: 10_000,
        ..ClusterConfig::default()
    };
    let first = Coordinator::start(&cfg).expect("bind first coordinator");

    let tws: Vec<u32> = (1..=12).collect();
    let body = format!(
        "{{\"network\": \"DVS-Gesture\", \"policy\": \"PTB\", \"tws\": {tws:?}, \
         \"quick\": true, \"background\": true}}"
    );
    let (status, text) = client::request_json(first.addr(), "POST", "/sweep", &body).unwrap();
    assert_eq!(status, 202, "{text}");
    let ack: serde_json::Value = serde_json::from_str(&text).unwrap();
    let id = ack.get("job").and_then(|v| v.as_u64()).expect("job id");

    // Let some — not all — shards land, then stop the coordinator cold.
    let deadline = Instant::now() + Duration::from_secs(60);
    while first.metrics().shards_dispatched.load(Ordering::Relaxed) < 2 {
        assert!(Instant::now() < deadline, "no shards completed");
        std::thread::sleep(Duration::from_millis(10));
    }
    first.shutdown();
    first.join();

    let second = Coordinator::start(&cfg).expect("bind second coordinator");
    let text = client::poll_job(second.addr(), id, deadline)
        .expect("job must survive the restart and finish");
    let poll: serde_json::Value = serde_json::from_str(&text).unwrap();
    assert_ne!(
        poll.get("failed").and_then(|v| v.as_bool()),
        Some(true),
        "{text}"
    );
    let rows: Vec<SweepRow> =
        serde_json::from_value(poll.get("rows").expect("rows present")).unwrap();

    let opts = RunOptions::quick();
    let spec = spikegen::network_by_name("DVS-Gesture").unwrap();
    let expected = sweep_rows(&spec, Policy::ptb(), &tws, &opts, &opts.new_cache());
    assert_eq!(
        rows, expected,
        "a resumed sweep must be bit-identical to an uninterrupted one"
    );

    second.shutdown();
    second.join();
    let _ = std::fs::remove_dir_all(&job_dir);
}
