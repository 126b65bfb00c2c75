//! Cluster-vs-single-node bit identity: every response the coordinator
//! serves — sync sweeps in both codecs, proxied simulates, background
//! job polls, validation errors — must be byte-identical to what one
//! `ptb-serve` daemon answers for the same request. The workers here
//! are real in-process [`Server`]s on ephemeral ports; the coordinator
//! dispatches to them over real sockets.

use ptb_accel::config::Policy;
use ptb_bench::{sweep_rows, RunOptions, SweepRow};
use ptb_cluster::{ClusterConfig, Coordinator};
use ptb_serve::client::{self, Connection};
use ptb_serve::wire;
use ptb_serve::{Server, ServerConfig};
use serde::Value;

fn test_worker() -> Server {
    Server::start(&ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        queue_cap: 32,
        cache: ptb_bench::CacheMode::Mem,
        ..ServerConfig::default()
    })
    .expect("bind test worker")
}

fn test_fleet(n: usize) -> (Vec<Server>, Coordinator) {
    let workers: Vec<Server> = (0..n).map(|_| test_worker()).collect();
    let addrs = workers.iter().map(|w| w.addr().to_string()).collect();
    let coordinator = Coordinator::start(&ClusterConfig {
        addr: "127.0.0.1:0".into(),
        workers: addrs,
        ..ClusterConfig::default()
    })
    .expect("bind coordinator");
    (workers, coordinator)
}

fn teardown(workers: Vec<Server>, coordinator: Coordinator) {
    coordinator.shutdown();
    coordinator.join();
    for w in workers {
        w.shutdown();
        w.join();
    }
}

fn sweep_body(network: &str, policy: &str, tws: &[u32], seed: u64) -> String {
    format!(
        "{{\"network\": \"{network}\", \"policy\": \"{policy}\", \"tws\": {tws:?}, \
         \"quick\": true, \"seed\": {seed}}}"
    )
}

fn sweep_value(network: &str, policy: &str, tws: &[u32], seed: u64) -> Value {
    Value::Object(vec![
        ("network".into(), Value::Str(network.into())),
        ("policy".into(), Value::Str(policy.into())),
        (
            "tws".into(),
            Value::Array(tws.iter().map(|&t| Value::U64(u64::from(t))).collect()),
        ),
        ("quick".into(), Value::Bool(true)),
        ("seed".into(), Value::U64(seed)),
    ])
}

#[test]
fn cluster_sweeps_answer_byte_identically_to_a_single_node_in_both_codecs() {
    let (workers, coordinator) = test_fleet(3);
    let tws = [1u32, 2, 4, 8, 16, 32];
    let body = sweep_body("DVS-Gesture", "PTB+StSAP", &tws, 42);

    // JSON: coordinator response vs a lone worker's, byte for byte.
    let (status, via_cluster) =
        client::request_json(coordinator.addr(), "POST", "/sweep", &body).unwrap();
    assert_eq!(status, 200, "{via_cluster}");
    let (status, direct) =
        client::request_json(workers[0].addr(), "POST", "/sweep", &body).unwrap();
    assert_eq!(status, 200, "{direct}");
    assert_eq!(
        via_cluster, direct,
        "cluster and single-node sweep responses must be byte-identical"
    );

    // And both must equal the in-process harness exactly.
    let rows: Vec<SweepRow> = serde_json::from_str(&via_cluster).unwrap();
    let opts = RunOptions::quick();
    let spec = spikegen::network_by_name("DVS-Gesture").unwrap();
    let expected = sweep_rows(
        &spec,
        Policy::ptb_with_stsap(),
        &tws,
        &opts,
        &opts.new_cache(),
    );
    assert_eq!(rows, expected, "cluster sweep must match the harness");

    // Binary codec: same identity over a kept-alive PTBW1 connection.
    let frame = wire::frame(
        wire::KIND_SWEEP,
        &sweep_value("DVS-Gesture", "PTB+StSAP", &tws, 42),
    );
    let mut conn = Connection::open(coordinator.addr()).expect("connect to coordinator");
    let via_cluster_bin = conn
        .request("POST", "/sweep", Some(wire::CONTENT_TYPE), &frame)
        .expect("binary cluster sweep");
    assert_eq!(via_cluster_bin.status, 200);
    let mut conn = Connection::open(workers[1].addr()).expect("connect to worker");
    let direct_bin = conn
        .request("POST", "/sweep", Some(wire::CONTENT_TYPE), &frame)
        .expect("binary direct sweep");
    assert_eq!(direct_bin.status, 200);
    assert_eq!(
        via_cluster_bin.body, direct_bin.body,
        "binary sweep frames must be byte-identical"
    );

    assert!(
        coordinator
            .metrics()
            .shards_dispatched
            .load(std::sync::atomic::Ordering::Relaxed)
            >= 2 * tws.len() as u64,
        "both sweeps fanned every shard across the fleet"
    );
    teardown(workers, coordinator);
}

#[test]
fn simulates_proxy_byte_identically_and_validation_matches_a_worker() {
    let (workers, coordinator) = test_fleet(2);
    let body = "{\"network\": \"DVS-Gesture\", \"policy\": \"PTB\", \"tw\": 8, \
                \"quick\": true, \"seed\": 42}";
    let (status, via_cluster) =
        client::request_json(coordinator.addr(), "POST", "/simulate", body).unwrap();
    assert_eq!(status, 200, "{via_cluster}");
    let (status, direct) =
        client::request_json(workers[0].addr(), "POST", "/simulate", body).unwrap();
    assert_eq!(status, 200);
    assert_eq!(via_cluster, direct, "proxied simulate must relay verbatim");

    // Invalid requests get the worker's exact 422s — rendered by the
    // coordinator itself, no worker round trip.
    for bad in [
        "{\"network\": \"DVS-Gesture\", \"policy\": \"PTB\", \"tw\": 8, \"verify\": \"paranoid\"}",
        "{\"network\": \"no-such-net\", \"policy\": \"PTB\", \"tw\": 8}",
        "{\"network\": \"DVS-Gesture\", \"policy\": \"PTB\", \"tw\": 0}",
    ] {
        let (cluster_status, via_cluster) =
            client::request_json(coordinator.addr(), "POST", "/simulate", bad).unwrap();
        let (direct_status, direct) =
            client::request_json(workers[0].addr(), "POST", "/simulate", bad).unwrap();
        assert_eq!(cluster_status, 422, "{via_cluster}");
        assert_eq!(
            (cluster_status, via_cluster.as_str()),
            (direct_status, direct.as_str()),
            "validation errors must match byte for byte"
        );
    }

    // Unknown routes and wrong methods match too.
    let (status, via_cluster) =
        client::request_json(coordinator.addr(), "GET", "/nowhere", "").unwrap();
    let (direct_status, direct) =
        client::request_json(workers[0].addr(), "GET", "/nowhere", "").unwrap();
    assert_eq!((status, via_cluster), (direct_status, direct));
    let (status, via_cluster) =
        client::request_json(coordinator.addr(), "GET", "/sweep", "").unwrap();
    let (direct_status, direct) =
        client::request_json(workers[0].addr(), "GET", "/sweep", "").unwrap();
    assert_eq!((status, via_cluster), (direct_status, direct));

    teardown(workers, coordinator);
}

#[test]
fn background_cluster_sweeps_poll_to_the_harness_rows() {
    let (workers, coordinator) = test_fleet(2);
    let addr = coordinator.addr();
    let tws = [1u32, 4, 8];
    let body = format!(
        "{{\"network\": \"DVS-Gesture\", \"policy\": \"PTB\", \"tws\": {tws:?}, \
         \"quick\": true, \"background\": true}}"
    );
    let (status, text) = client::request_json(addr, "POST", "/sweep", &body).unwrap();
    assert_eq!(status, 202, "{text}");
    let ack: serde_json::Value = serde_json::from_str(&text).unwrap();
    let id = ack.get("job").and_then(|v| v.as_u64()).expect("job id");

    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(120);
    let text = client::poll_job(addr, id, deadline).unwrap();
    let poll: serde_json::Value = serde_json::from_str(&text).unwrap();
    assert_ne!(
        poll.get("failed").and_then(|v| v.as_bool()),
        Some(true),
        "cluster job must not fail: {text}"
    );
    let rows: Vec<SweepRow> =
        serde_json::from_value(poll.get("rows").expect("rows present")).unwrap();
    let opts = RunOptions::quick();
    let spec = spikegen::network_by_name("DVS-Gesture").unwrap();
    let expected = sweep_rows(&spec, Policy::ptb(), &tws, &opts, &opts.new_cache());
    assert_eq!(rows, expected);

    // Bad job ids answer the worker's exact strings.
    let (status, text) = client::request_json(addr, "GET", "/jobs/99999", "").unwrap();
    assert_eq!(
        (status, text.as_str()),
        (404, "{\"error\": \"no job 99999\"}")
    );
    let (status, _) = client::request_json(addr, "GET", "/jobs/banana", "").unwrap();
    assert_eq!(status, 400);

    teardown(workers, coordinator);
}

#[test]
fn cluster_and_metrics_endpoints_report_topology_and_dispatches() {
    let (workers, coordinator) = test_fleet(2);
    let addr = coordinator.addr();

    let (status, text) = client::request_json(addr, "GET", "/cluster", "").unwrap();
    assert_eq!(status, 200, "{text}");
    let topo: serde_json::Value = serde_json::from_str(&text).unwrap();
    let listed = topo.get("workers").and_then(|w| w.as_array()).unwrap();
    assert_eq!(listed.len(), 2);
    assert_eq!(topo.get("alive").and_then(|v| v.as_u64()), Some(2));
    for (worker, server) in listed.iter().zip(&workers) {
        assert_eq!(
            worker.get("addr").and_then(|v| v.as_str()),
            Some(server.addr().to_string().as_str())
        );
        assert_eq!(worker.get("alive").and_then(|v| v.as_bool()), Some(true));
    }

    let tws = [2u32, 8];
    let body = sweep_body("DVS-Gesture", "PTB", &tws, 42);
    let (status, _) = client::request_json(addr, "POST", "/sweep", &body).unwrap();
    assert_eq!(status, 200);

    let (status, text) = client::request_json(addr, "GET", "/metrics", "").unwrap();
    assert_eq!(status, 200, "{text}");
    let metrics: serde_json::Value = serde_json::from_str(&text).unwrap();
    assert_eq!(
        metrics.get("shards_dispatched").and_then(|v| v.as_u64()),
        Some(tws.len() as u64)
    );
    assert_eq!(
        metrics.get("worker_deaths").and_then(|v| v.as_u64()),
        Some(0)
    );
    let per_worker = metrics.get("workers").and_then(|w| w.as_array()).unwrap();
    assert_eq!(per_worker.len(), 2);
    let dispatched: u64 = per_worker
        .iter()
        .map(|w| w.get("dispatched").and_then(|v| v.as_u64()).unwrap())
        .sum();
    assert_eq!(dispatched, tws.len() as u64);
    let sweep_requests = metrics
        .get("endpoints")
        .and_then(|e| e.get("sweep"))
        .and_then(|s| s.get("requests"))
        .and_then(|v| v.as_u64());
    assert_eq!(sweep_requests, Some(1));

    teardown(workers, coordinator);
}
