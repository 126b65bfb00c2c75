//! End-to-end bit-identity of the service against the in-process
//! harness: whatever arrives over the wire must deserialize to exactly
//! what `network_reports` / `sweep_rows` produce — same
//! floats, same order — with N clients hammering one shared cache.

use ptb_accel::config::Policy;
use ptb_accel::report::NetworkReport;
use ptb_bench::{network_reports, sweep_rows, RunOptions, SweepRow};
use ptb_serve::client;
use ptb_serve::{Server, ServerConfig};

/// How long a background job may take to finish.
fn poll_deadline() -> std::time::Instant {
    std::time::Instant::now() + std::time::Duration::from_secs(120)
}

fn test_server(workers: usize) -> Server {
    Server::start(&ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers,
        queue_cap: 32,
        cache: ptb_bench::CacheMode::Mem,
        ..ServerConfig::default()
    })
    .expect("bind test server")
}

fn simulate_body(network: &str, policy: &str, tw: u32, seed: u64) -> String {
    format!(
        "{{\"network\": \"{network}\", \"policy\": \"{policy}\", \"tw\": {tw}, \
         \"quick\": true, \"seed\": {seed}}}"
    )
}

#[test]
fn parallel_simulates_match_in_process_runs_bit_identically() {
    let server = test_server(3);
    let addr = server.addr();

    // Mixed workload: same request repeated (exercises coalescing on
    // the shared cache) plus distinct policies and TWs.
    let cases: Vec<(&str, Policy, u32, u64)> = vec![
        ("DVS-Gesture", Policy::ptb_with_stsap(), 8, 42),
        ("DVS-Gesture", Policy::ptb_with_stsap(), 8, 42),
        ("DVS-Gesture", Policy::ptb_with_stsap(), 8, 42),
        ("DVS-Gesture", Policy::ptb(), 16, 42),
        ("DVS-Gesture", Policy::BaselineTemporal, 1, 42),
        ("DVS-Gesture", Policy::ptb_with_stsap(), 8, 7),
    ];

    let reports: Vec<NetworkReport> = std::thread::scope(|s| {
        let handles: Vec<_> = cases
            .iter()
            .map(|(net, policy, tw, seed)| {
                s.spawn(move || {
                    let body = simulate_body(net, policy.label(), *tw, *seed);
                    let (status, text) = client::request_json(addr, "POST", "/simulate", &body)
                        .expect("request must succeed");
                    assert_eq!(status, 200, "{text}");
                    serde_json::from_str(&text).expect("response must parse")
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // Sequential reference, one private cache — must be bit-identical.
    let ref_cache = RunOptions::quick().new_cache();
    for ((net, policy, tw, seed), report) in cases.iter().zip(&reports) {
        let opts = RunOptions {
            seed: *seed,
            ..RunOptions::quick()
        };
        let spec = spikegen::network_by_name(net).unwrap();
        let expected = network_reports(&spec, *policy, &[*tw], &opts, &ref_cache)
            .0
            .remove(0);
        assert_eq!(
            *report,
            expected,
            "{net} {} tw={tw} seed={seed} must round-trip bit-identically",
            policy.label()
        );
    }

    server.shutdown();
    server.join();
}

#[test]
fn sharded_sweep_matches_sweep_rows_exactly() {
    let server = test_server(3);
    let addr = server.addr();
    let tws = [1u32, 2, 4, 8, 16, 32];

    let body = format!(
        "{{\"network\": \"CIFAR10\", \"policy\": \"PTB\", \"tws\": {:?}, \
         \"quick\": true, \"seed\": 42}}",
        tws
    );
    let (status, text) = client::request_json(addr, "POST", "/sweep", &body).unwrap();
    assert_eq!(status, 200, "{text}");
    let rows: Vec<SweepRow> = serde_json::from_str(&text).unwrap();

    let opts = RunOptions::quick();
    let spec = spikegen::network_by_name("CIFAR10").unwrap();
    let expected = sweep_rows(&spec, Policy::ptb(), &tws, &opts, &opts.new_cache());
    assert_eq!(
        rows, expected,
        "sharded sweep must match the sequential harness"
    );

    server.shutdown();
    server.join();
}

#[test]
fn one_and_two_worker_daemons_answer_identical_bytes() {
    // A one-worker daemon drains every (TW point, layer) item on its
    // handler thread; a two-worker one shares them with a helper. The
    // bytes must not tell them apart, for any policy or audit level.
    let serial = test_server(1);
    let pooled = test_server(2);
    for policy in Policy::all() {
        let label = policy.label();
        for verify in ["off", "sample"] {
            let body = format!(
                "{{\"network\": \"DVS-Gesture\", \"policy\": \"{label}\", \
                 \"tws\": [1, 8, 64], \"quick\": true, \"verify\": \"{verify}\"}}"
            );
            let one = client::request_json(serial.addr(), "POST", "/sweep", &body).unwrap();
            let two = client::request_json(pooled.addr(), "POST", "/sweep", &body).unwrap();
            assert_eq!(one.0, 200, "{label} {verify}: {}", one.1);
            assert_eq!(one, two, "{label} verify={verify}: sweep bytes differ");
        }
        let body = simulate_body("CIFAR10-DVS", label, 4, 42);
        let one = client::request_json(serial.addr(), "POST", "/simulate", &body).unwrap();
        let two = client::request_json(pooled.addr(), "POST", "/simulate", &body).unwrap();
        assert_eq!(one.0, 200, "{label}: {}", one.1);
        assert_eq!(one, two, "{label}: simulate bytes differ");
    }
    for server in [serial, pooled] {
        server.shutdown();
        server.join();
    }
}

#[test]
fn background_sweeps_poll_to_the_same_rows() {
    let server = test_server(2);
    let addr = server.addr();
    let tws = [1u32, 4, 8];

    let body = format!(
        "{{\"network\": \"DVS-Gesture\", \"policy\": \"PTB+StSAP\", \"tws\": {:?}, \
         \"quick\": true, \"background\": true}}",
        tws
    );
    let (status, text) = client::request_json(addr, "POST", "/sweep", &body).unwrap();
    assert_eq!(status, 202, "{text}");
    let ack: serde_json::Value = serde_json::from_str(&text).unwrap();
    let id = ack.get("job").and_then(|v| v.as_u64()).expect("job id");

    // Poll until done (the job may already be complete).
    let text = client::poll_job(addr, id, poll_deadline()).unwrap();
    let poll: serde_json::Value = serde_json::from_str(&text).unwrap();
    assert_eq!(
        poll.get("done").and_then(|v| v.as_bool()),
        Some(true),
        "{text}"
    );
    let rows = poll.get("rows").expect("rows present when done");
    let rows = serde_json::from_value::<Vec<SweepRow>>(rows).expect("rows parse");

    let opts = RunOptions::quick();
    let spec = spikegen::network_by_name("DVS-Gesture").unwrap();
    let expected = sweep_rows(
        &spec,
        Policy::ptb_with_stsap(),
        &tws,
        &opts,
        &opts.new_cache(),
    );
    assert_eq!(rows, expected);

    // Unknown and malformed job ids are clean errors.
    let (status, _) = client::request_json(addr, "GET", "/jobs/99999", "").unwrap();
    assert_eq!(status, 404);
    let (status, _) = client::request_json(addr, "GET", "/jobs/banana", "").unwrap();
    assert_eq!(status, 400);

    server.shutdown();
    server.join();
}

/// The audit layer over the wire: a verified request still answers
/// bit-identically to the unverified harness, the audit counters show
/// up (and stay zero) in /metrics, a verified job exposes its `audit`
/// object, and a bad `verify` value is a 422.
#[test]
fn verified_requests_round_trip_clean_and_bad_levels_are_rejected() {
    let server = test_server(2);
    let addr = server.addr();

    let body = "{\"network\": \"DVS-Gesture\", \"policy\": \"PTB+StSAP\", \"tw\": 8, \
                \"quick\": true, \"seed\": 42, \"verify\": \"sample\"}";
    let (status, text) = client::request_json(addr, "POST", "/simulate", body).unwrap();
    assert_eq!(status, 200, "{text}");
    let report: NetworkReport = serde_json::from_str(&text).unwrap();
    let opts = RunOptions::quick();
    let spec = spikegen::network_by_name("DVS-Gesture").unwrap();
    let expected = network_reports(
        &spec,
        Policy::ptb_with_stsap(),
        &[8],
        &opts,
        &opts.new_cache(),
    )
    .0
    .remove(0);
    assert_eq!(report, expected, "verification must not perturb results");

    let bad = "{\"network\": \"DVS-Gesture\", \"policy\": \"PTB\", \"tw\": 8, \
               \"verify\": \"paranoid\"}";
    let (status, text) = client::request_json(addr, "POST", "/simulate", bad).unwrap();
    assert_eq!(status, 422, "{text}");

    let sweep = "{\"network\": \"DVS-Gesture\", \"policy\": \"PTB\", \"tws\": [1, 4], \
                 \"quick\": true, \"background\": true, \"verify\": \"sample\"}";
    let (status, text) = client::request_json(addr, "POST", "/sweep", sweep).unwrap();
    assert_eq!(status, 202, "{text}");
    let ack: serde_json::Value = serde_json::from_str(&text).unwrap();
    let id = ack.get("job").and_then(|v| v.as_u64()).expect("job id");
    let text = client::poll_job(addr, id, poll_deadline()).unwrap();
    let poll: serde_json::Value = serde_json::from_str(&text).unwrap();
    assert!(
        poll.get("failed").and_then(|v| v.as_bool()) != Some(true),
        "clean job must not fail: {text}"
    );
    let audit = poll.get("audit").expect("audit object present").clone();
    assert_eq!(audit.get("mismatches").and_then(|v| v.as_u64()), Some(0));
    assert!(
        audit.get("layers_checked").and_then(|v| v.as_u64()) > Some(0),
        "the job really was audited: {audit:?}"
    );

    let (_, text) = client::request_json(addr, "GET", "/metrics", "").unwrap();
    let m: serde_json::Value = serde_json::from_str(&text).unwrap();
    assert_eq!(
        m.get("audit_mismatches").and_then(|v| v.as_u64()),
        Some(0),
        "{text}"
    );
    assert!(m.get("acc_saturated").is_some(), "{text}");

    server.shutdown();
    server.join();
}

#[test]
fn metrics_reflect_traffic_and_validation_rejects_cleanly() {
    let server = test_server(2);
    let addr = server.addr();

    // Two good requests, two validation failures, one parse failure.
    let ok_body = simulate_body("DVS-Gesture", "PTB", 8, 42);
    for _ in 0..2 {
        let (status, _) = client::request_json(addr, "POST", "/simulate", &ok_body).unwrap();
        assert_eq!(status, 200);
    }
    let (status, text) = client::request_json(
        addr,
        "POST",
        "/simulate",
        &simulate_body("NoSuchNet", "PTB", 8, 1),
    )
    .unwrap();
    assert_eq!(status, 422, "{text}");
    let (status, text) = client::request_json(
        addr,
        "POST",
        "/simulate",
        &simulate_body("AlexNet", "PTB", 0, 1),
    )
    .unwrap();
    assert_eq!(status, 422, "{text}");
    let (status, _) = client::request_json(addr, "POST", "/simulate", "{not json").unwrap();
    assert_eq!(status, 400);

    let (status, text) = client::request_json(addr, "GET", "/metrics", "").unwrap();
    assert_eq!(status, 200);
    let m: serde_json::Value = serde_json::from_str(&text).unwrap();
    let simulate = m
        .get("endpoints")
        .and_then(|e| e.get("simulate"))
        .expect("simulate endpoint metrics");
    // 2 OK + 2 validation failures + 1 body-parse failure, all routed
    // to /simulate (a JSON parse error happens after routing).
    assert_eq!(simulate.get("requests").and_then(|v| v.as_u64()), Some(5));
    assert_eq!(simulate.get("errors").and_then(|v| v.as_u64()), Some(3));
    assert!(
        m.get("bad_requests").and_then(|v| v.as_u64()).is_some(),
        "{text}"
    );
    let cache = m.get("cache").expect("cache stats");
    // Two identical good requests: the second must be answered from
    // the report memo — no regeneration, no re-simulation.
    assert!(
        m.get("report_memo_hits").and_then(|v| v.as_u64()) >= Some(1),
        "{text}"
    );
    // The first request did real work through the activity cache.
    assert!(
        cache.get("misses").and_then(|v| v.as_u64()) >= Some(1),
        "{text}"
    );

    server.shutdown();
    server.join();
}

#[test]
fn shutdown_route_stops_the_daemon() {
    let server = test_server(2);
    let addr = server.addr();
    let (status, text) = client::request_json(addr, "POST", "/shutdown", "").unwrap();
    assert_eq!(status, 200, "{text}");
    server.join(); // must return: every thread exits

    // The listener is gone (give the OS a moment to tear down).
    let refused = (0..50).any(|_| {
        std::thread::sleep(std::time::Duration::from_millis(20));
        std::net::TcpStream::connect(addr).is_err()
    });
    assert!(refused, "listener still accepting after shutdown");
}

/// `Arc<ActivityCache>` sharing means a cold request after warm ones is
/// answered from memory; pin that the coalescing counter is wired up.
#[test]
fn identical_concurrent_requests_coalesce_on_the_shared_cache() {
    let server = test_server(4);
    let addr = server.addr();
    let body = simulate_body("DVS-Gesture", "PTB", 8, 1234);

    let reports: Vec<NetworkReport> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                s.spawn(|| {
                    let (status, text) =
                        client::request_json(addr, "POST", "/simulate", &body).unwrap();
                    assert_eq!(status, 200);
                    serde_json::from_str(&text).unwrap()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for r in &reports[1..] {
        assert_eq!(*r, reports[0], "all responses identical");
    }

    let (_, text) = client::request_json(addr, "GET", "/metrics", "").unwrap();
    let m: serde_json::Value = serde_json::from_str(&text).unwrap();
    let cache = m.get("cache").expect("cache stats");
    let misses = cache.get("misses").and_then(|v| v.as_u64()).unwrap();
    let spec = spikegen::network_by_name("DVS-Gesture").unwrap();
    assert!(
        misses <= spec.layers.len() as u64,
        "at most one generation per distinct layer key, got {misses} misses: {text}"
    );

    server.shutdown();
    server.join();
}

#[test]
fn stale_epoch_dispatches_are_fenced_with_409() {
    let server = test_server(2);
    let addr = server.addr();
    let sweep = |epoch: u64| {
        format!(
            "{{\"network\": \"DVS-Gesture\", \"policy\": \"ptb\", \"tws\": [1], \
             \"quick\": true, \"seed\": 7, \"epoch\": {epoch}}}"
        )
    };

    // Epoch-free requests (direct clients) are never fenced.
    let plain = "{\"network\": \"DVS-Gesture\", \"policy\": \"ptb\", \"tws\": [1], \
                 \"quick\": true, \"seed\": 7}";
    let (status, _) = client::request_json(addr, "POST", "/sweep", plain).unwrap();
    assert_eq!(status, 200);

    // Epoch 3 ratchets the watermark; an equal epoch still dispatches.
    let (status, _) = client::request_json(addr, "POST", "/sweep", &sweep(3)).unwrap();
    assert_eq!(status, 200);
    let (status, _) = client::request_json(addr, "POST", "/sweep", &sweep(3)).unwrap();
    assert_eq!(status, 200, "equal epochs are never stale");

    // A lower epoch is a zombie coordinator: 409, with the watermark in
    // the detail, and no simulation work done.
    let (status, text) = client::request_json(addr, "POST", "/sweep", &sweep(2)).unwrap();
    assert_eq!(status, 409, "{text}");
    assert!(text.contains("fenced"), "{text}");
    assert!(text.contains("epoch 3"), "{text}");

    // /healthz echoes the watermark and a nonzero generation.
    let (status, text) = client::request_json(addr, "GET", "/healthz", "").unwrap();
    assert_eq!(status, 200);
    let health: serde_json::Value = serde_json::from_str(&text).unwrap();
    assert_eq!(health.get("epoch").and_then(|v| v.as_u64()), Some(3));
    assert_ne!(
        health.get("generation").and_then(|v| v.as_u64()),
        Some(0),
        "generation is a nonzero process nonce: {text}"
    );

    // The fence shows in worker metrics.
    let (_, text) = client::request_json(addr, "GET", "/metrics", "").unwrap();
    let m: serde_json::Value = serde_json::from_str(&text).unwrap();
    assert_eq!(m.get("fenced").and_then(|v| v.as_u64()), Some(1), "{text}");
    assert_eq!(m.get("epoch_seen").and_then(|v| v.as_u64()), Some(3));

    server.shutdown();
    server.join();
}

#[test]
fn admission_cannot_shed_healthz() {
    // Pin the invariant the cluster prober leans on: admission control
    // guards only the heavy POST routes, so a probe can never see an
    // admission 503 — a healthz 503 is structurally impossible and any
    // non-200 probe outcome means transport trouble, not load.
    let server = Server::start(&ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        queue_cap: 16,
        cache: ptb_bench::CacheMode::Mem,
        // Impossible watermark: every heavy request sheds.
        mem_watermark: Some(0),
        ..ServerConfig::default()
    })
    .expect("bind test server");
    let addr = server.addr();

    // The first request is admitted (an empty cache is at the 0-byte
    // watermark, not over it) and populates the cache; from then on
    // every heavy request sheds.
    let body = simulate_body("DVS-Gesture", "ptb", 4, 7);
    let (status, _) = client::request_json(addr, "POST", "/simulate", &body).unwrap();
    assert_eq!(status, 200, "primes the cache past the watermark");
    let (status, text) = client::request_json(addr, "POST", "/simulate", &body).unwrap();
    assert_eq!(status, 503, "heavy routes shed: {text}");

    for _ in 0..3 {
        let (status, text) = client::request_json(addr, "GET", "/healthz", "").unwrap();
        assert_eq!((status, text.contains("ok")), (200, true), "{text}");
    }
    let (status, _) = client::request_json(addr, "GET", "/metrics", "").unwrap();
    assert_eq!(status, 200, "introspection rides the unshed fast path");

    server.shutdown();
    server.join();
}
