//! Cross-codec equivalence and binary-decoder robustness, against a
//! live daemon.
//!
//! The contract (docs/PROTOCOL.md): a request has one answer,
//! independent of codec. Encoding a valid request as JSON or as a
//! `PTBW1` frame must yield responses that are *bit-identical* after
//! normalizing the binary frame through the JSON renderer — both
//! codecs serialize the same `Value` tree, so the JSON rendering of a
//! binary report equals the JSON body byte for byte. And the binary
//! decoder must be total: truncated, bit-flipped, or garbage frames
//! come back as clean `400` error frames, never a hung connection or
//! a dead worker.

use std::net::SocketAddr;
use std::sync::OnceLock;

use proptest::prelude::*;
use ptb_serve::client::{self, Connection};
use ptb_serve::wire;
use ptb_serve::{Server, ServerConfig};
use serde::Value;

/// A daemon on an ephemeral loopback port.
fn start_server() -> Server {
    Server::start(&ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 3,
        queue_cap: 32,
        cache: ptb_bench::CacheMode::Mem,
        ..ServerConfig::default()
    })
    .expect("bind test server")
}

/// One shared daemon for the tests that send one request per
/// connection (torn down with the test process). They only assert on
/// their own requests' responses, never on global counters, so sharing
/// is safe.
fn addr() -> SocketAddr {
    static SERVER: OnceLock<Server> = OnceLock::new();
    SERVER.get_or_init(start_server).addr()
}

/// Runs `test` against a daemon of its own, for a test that sends
/// several requests on one kept-alive connection. On the shared daemon
/// another test's queued connection trips the starvation guard, which
/// closes a kept-alive connection between requests (docs/PROTOCOL.md).
fn with_own_server(test: impl FnOnce(SocketAddr)) {
    let server = start_server();
    test(server.addr());
    server.shutdown();
    server.join();
}

fn simulate_json(network: &str, policy: &str, tw: u32, seed: u64) -> String {
    format!(
        "{{\"network\": \"{network}\", \"policy\": \"{policy}\", \"tw\": {tw}, \
         \"quick\": true, \"seed\": {seed}}}"
    )
}

fn simulate_value(network: &str, policy: &str, tw: u32, seed: u64) -> Value {
    Value::Object(vec![
        ("network".into(), Value::Str(network.into())),
        ("policy".into(), Value::Str(policy.into())),
        ("tw".into(), Value::U64(u64::from(tw))),
        ("quick".into(), Value::Bool(true)),
        ("seed".into(), Value::U64(seed)),
    ])
}

/// Decodes a binary response frame of the expected kind and renders
/// its value through the JSON codec.
fn bin_to_json(body: &[u8], expect_kind: u8) -> String {
    let (kind, value) = wire::unframe(body).expect("response must be a valid frame");
    assert_eq!(kind, expect_kind, "unexpected response kind");
    serde_json::to_string(&value).expect("value renders")
}

const POLICIES: [&str; 3] = ["PTB+StSAP", "PTB", "baseline[14]"];
const TWS: [u32; 5] = [1, 2, 4, 8, 16];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Any valid `/simulate` request answers bit-identically through
    /// both codecs: JSON one-shot vs binary over a kept-alive
    /// connection.
    #[test]
    fn simulate_reports_are_bit_identical_across_codecs(
        policy_ix in 0usize..POLICIES.len(),
        tw_ix in 0usize..TWS.len(),
        seed in 0u64..1_000_000,
    ) {
        let (policy, tw) = (POLICIES[policy_ix], TWS[tw_ix]);
        let json = client::request_typed(
            addr(),
            "POST",
            "/simulate",
            None,
            simulate_json("DVS-Gesture", policy, tw, seed).as_bytes(),
        )
        .expect("json request");
        prop_assert_eq!(json.status, 200);

        let frame = wire::frame(
            wire::KIND_SIMULATE,
            &simulate_value("DVS-Gesture", policy, tw, seed),
        );
        let mut conn = Connection::open(addr()).expect("connect");
        let bin = conn
            .request("POST", "/simulate", Some(wire::CONTENT_TYPE), &frame)
            .expect("binary request");
        prop_assert_eq!(bin.status, 200);

        let rendered = bin_to_json(&bin.body, wire::KIND_REPORT);
        prop_assert_eq!(
            rendered.as_bytes(),
            json.body.as_slice(),
            "codecs must agree byte for byte"
        );
    }

    /// Arbitrary bytes posted as a binary body: always a clean `400`
    /// carrying a decodable error frame — never a panic or a hang.
    #[test]
    fn garbage_binary_bodies_answer_400_error_frames(
        len in 0usize..512,
        seed in any::<u64>(),
    ) {
        let resp = client::request_typed(
            addr(),
            "POST",
            "/simulate",
            Some(wire::CONTENT_TYPE),
            &random_bytes(len, seed),
        )
        .expect("the transport itself must survive");
        prop_assert_eq!(resp.status, 400, "garbage must be rejected");
        let (kind, value) = wire::unframe(&resp.body).expect("error response must frame");
        let err = wire::decode_error(kind, &value).expect("error frame decodes");
        prop_assert_eq!(err.status, 400);
        prop_assert!(err.detail.contains("bad PTBW1 frame"), "{}", err.detail);
    }

    /// Any single bit flip in a valid request frame is detected and
    /// rejected as `400` (header checks or the FNV-1a checksum).
    #[test]
    fn bit_flipped_frames_are_rejected(bit_seed in any::<u64>()) {
        let frame = wire::frame(
            wire::KIND_SIMULATE,
            &simulate_value("DVS-Gesture", "PTB", 4, 42),
        );
        let bit = (bit_seed % (frame.len() as u64 * 8)) as usize;
        let mut flipped = frame;
        flipped[bit / 8] ^= 1 << (bit % 8);
        let resp = client::request_typed(
            addr(),
            "POST",
            "/simulate",
            Some(wire::CONTENT_TYPE),
            &flipped,
        )
        .expect("transport survives");
        prop_assert_eq!(resp.status, 400, "flipped bit {} went undetected", bit);
    }

    /// Truncating a valid frame anywhere is rejected as `400`.
    #[test]
    fn truncated_frames_are_rejected(cut_frac in 0.0f64..1.0) {
        let frame = wire::frame(
            wire::KIND_SIMULATE,
            &simulate_value("DVS-Gesture", "PTB", 4, 42),
        );
        let cut = ((frame.len() as f64) * cut_frac) as usize;
        let resp = client::request_typed(
            addr(),
            "POST",
            "/simulate",
            Some(wire::CONTENT_TYPE),
            &frame[..cut],
        )
        .expect("transport survives");
        prop_assert_eq!(resp.status, 400, "cut at {} went undetected", cut);
    }
}

/// Deterministic pseudo-random bytes (SplitMix64), matching the HTTP
/// fuzz harness idiom.
fn random_bytes(len: usize, seed: u64) -> Vec<u8> {
    let mut state = seed;
    (0..len)
        .map(|_| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) as u8
        })
        .collect()
}

/// A synchronous `/sweep` also answers bit-identically across codecs.
#[test]
fn sweep_rows_are_bit_identical_across_codecs() {
    let json_body = "{\"network\": \"DVS-Gesture\", \"policy\": \"PTB+StSAP\", \
                     \"tws\": [1, 4, 8], \"quick\": true, \"seed\": 42}";
    let json = client::request_typed(addr(), "POST", "/sweep", None, json_body.as_bytes())
        .expect("json sweep");
    assert_eq!(json.status, 200, "{}", String::from_utf8_lossy(&json.body));

    let value = Value::Object(vec![
        ("network".into(), Value::Str("DVS-Gesture".into())),
        ("policy".into(), Value::Str("PTB+StSAP".into())),
        (
            "tws".into(),
            Value::Array(vec![Value::U64(1), Value::U64(4), Value::U64(8)]),
        ),
        ("quick".into(), Value::Bool(true)),
        ("seed".into(), Value::U64(42)),
    ]);
    let bin = client::request_typed(
        addr(),
        "POST",
        "/sweep",
        Some(wire::CONTENT_TYPE),
        &wire::frame(wire::KIND_SWEEP, &value),
    )
    .expect("binary sweep");
    assert_eq!(bin.status, 200);

    assert_eq!(
        bin_to_json(&bin.body, wire::KIND_ROWS).as_bytes(),
        json.body.as_slice(),
        "sweep codecs must agree byte for byte"
    );
}

/// Validation errors carry their status inside the error frame too,
/// and a request frame of the wrong kind is a `400`.
#[test]
fn binary_error_frames_mirror_json_statuses() {
    // tw=0 fails validation: 422 in both the HTTP status and the frame.
    let resp = client::request_typed(
        addr(),
        "POST",
        "/simulate",
        Some(wire::CONTENT_TYPE),
        &wire::frame(
            wire::KIND_SIMULATE,
            &simulate_value("DVS-Gesture", "PTB", 0, 1),
        ),
    )
    .unwrap();
    assert_eq!(resp.status, 422);
    let (kind, value) = wire::unframe(&resp.body).unwrap();
    let err = wire::decode_error(kind, &value).unwrap();
    assert_eq!(err.status, 422);

    // A sweep frame posted to /simulate is a kind mismatch.
    let resp = client::request_typed(
        addr(),
        "POST",
        "/simulate",
        Some(wire::CONTENT_TYPE),
        &wire::frame(wire::KIND_SWEEP, &Value::Object(vec![])),
    )
    .unwrap();
    assert_eq!(resp.status, 400);
    let (kind, value) = wire::unframe(&resp.body).unwrap();
    let err = wire::decode_error(kind, &value).unwrap();
    assert!(
        err.detail.contains("unexpected message kind"),
        "{}",
        err.detail
    );
}

/// Keep-alive reuse and pipelining: several requests on one
/// connection, including two written back to back before either
/// response is read, all answered in order and bit-identical to their
/// one-shot equivalents.
#[test]
fn pipelined_keepalive_requests_answer_in_order() {
    with_own_server(pipelined_keepalive);
}

fn pipelined_keepalive(addr: SocketAddr) {
    let one_shot_a = client::request_typed(
        addr,
        "POST",
        "/simulate",
        None,
        simulate_json("DVS-Gesture", "PTB", 2, 101).as_bytes(),
    )
    .unwrap();
    let one_shot_b = client::request_typed(
        addr,
        "POST",
        "/simulate",
        None,
        simulate_json("DVS-Gesture", "PTB", 2, 202).as_bytes(),
    )
    .unwrap();
    assert_eq!((one_shot_a.status, one_shot_b.status), (200, 200));

    let mut conn = Connection::open(addr).expect("connect");
    // A plain sequential reuse first.
    let reused = conn
        .request(
            "POST",
            "/simulate",
            None,
            simulate_json("DVS-Gesture", "PTB", 2, 101).as_bytes(),
        )
        .expect("kept-alive request");
    assert_eq!(reused.status, 200);
    assert_eq!(reused.body, one_shot_a.body, "reuse must not change bytes");

    // Then a pipelined pair, sent in one write: both requests are on
    // the wire before either response is read.
    conn.queue_request(
        "POST",
        "/simulate",
        None,
        simulate_json("DVS-Gesture", "PTB", 2, 101).as_bytes(),
    );
    conn.queue_request(
        "POST",
        "/simulate",
        None,
        simulate_json("DVS-Gesture", "PTB", 2, 202).as_bytes(),
    );
    conn.flush_queued().unwrap();
    let first = conn.read_response().expect("first pipelined response");
    let second = conn.read_response().expect("second pipelined response");
    assert_eq!((first.status, second.status), (200, 200));
    assert_eq!(first.body, one_shot_a.body, "responses must keep order");
    assert_eq!(second.body, one_shot_b.body, "responses must keep order");
}

/// Both codecs interleaved on one kept-alive connection: negotiation
/// is per request, not per connection.
#[test]
fn codecs_interleave_on_one_connection() {
    with_own_server(codecs_interleave);
}

fn codecs_interleave(addr: SocketAddr) {
    let mut conn = Connection::open(addr).expect("connect");
    let json = conn
        .request(
            "POST",
            "/simulate",
            None,
            simulate_json("DVS-Gesture", "PTB+StSAP", 8, 7).as_bytes(),
        )
        .expect("json on kept-alive");
    assert_eq!(json.status, 200);
    let bin = conn
        .request(
            "POST",
            "/simulate",
            Some(wire::CONTENT_TYPE),
            &wire::frame(
                wire::KIND_SIMULATE,
                &simulate_value("DVS-Gesture", "PTB+StSAP", 8, 7),
            ),
        )
        .expect("binary on the same connection");
    assert_eq!(bin.status, 200);
    assert_eq!(
        bin_to_json(&bin.body, wire::KIND_REPORT).as_bytes(),
        json.body.as_slice()
    );
}
