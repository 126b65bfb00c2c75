//! `ptb-load`: a closed-loop load generator and smoke checker for the
//! `ptb-serve` daemon.
//!
//! ```text
//! ptb-load --addr HOST:PORT --smoke
//! ptb-load --addr HOST:PORT --xcheck                # codec cross-equivalence probe
//! ptb-load --addr HOST:PORT --shutdown
//! ptb-load --addr HOST:PORT --submit-tws 1,4,8      # background job, prints the ack
//! ptb-load --addr HOST:PORT --poll-job ID           # poll to terminal state
//! ptb-load --cluster N [--cluster-kill]             # self-contained fleet smoke
//! ptb-load --cluster N --cluster-saturate           # backpressure chaos: one worker sheds
//! ptb-load --cluster N --standby --coordinator-kill # HA drill: SIGKILL the active coordinator
//! ptb-load --cluster N --standby --coordinator-fence # HA drill: fence a zombie coordinator
//! ptb-load --soak SECS                              # budget-starved governance soak
//! ptb-load --addr HOST:PORT [--requests N] [--concurrency C]
//!          [--network NAME] [--policy LABEL] [--tw N]
//!          [--codec json|bin] [--keepalive]
//!          [--seed-mode unique|fixed] [--full] [--retries N] [--chaos]
//!          [--label TEXT]
//! ```
//!
//! Smoke mode drives `/healthz`, one quick `/simulate`, a `/sweep`,
//! and `/metrics`, checking each response, plus a `baseline[14]` sweep
//! over all seven TW sizes sent unaudited twice (filling, then reading
//! the layers' report memo) and once under a full audit, whose three
//! bodies must be byte-identical; it exits nonzero on any failure (the
//! CI smoke stage runs this). `--xcheck` drives `/simulate` and a sync
//! `/sweep` through *both* codecs over one kept-alive connection —
//! including a pipelined pair — and exits nonzero unless the binary
//! responses decode to byte-identical JSON renderings of the JSON
//! responses (the cross-codec bit-identity contract of
//! `docs/PROTOCOL.md`). `--shutdown` POSTs the `/shutdown` admin
//! route and exits zero iff the daemon acknowledged it. `--submit-tws`
//! submits a background sweep and prints the `{"job": id}` ack;
//! `--poll-job` polls `GET /jobs/{id}` until the job is done (exit 0)
//! or failed (exit 1), printing the final poll body. Load mode runs
//! `C` closed-loop workers (each issues a request, waits for the full
//! response, repeats) until `N` total requests have completed, then
//! prints a JSON summary with throughput and latency percentiles to
//! stdout.
//!
//! `--codec bin` sends requests as binary `PTBW1` frames
//! (`Content-Type: application/x-ptbw`) instead of JSON; `--keepalive`
//! reuses one connection per worker instead of reconnecting per
//! request (reconnecting transparently when the server closes). The
//! 2×2 codec × connection matrix in `BENCH_serve.json` comes from
//! these two flags.
//!
//! Requests retry on connection errors and `503` with exponential
//! backoff and decorrelated jitter, honoring the server's `Retry-After`
//! header (`--retries 0` disables). `--chaos` makes each worker harass
//! the daemon before every real request — dropped connections, short
//! writes, garbage bytes, malformed binary frames — and demands
//! convergence anyway: the run exits nonzero unless *every* request
//! eventually succeeded through the retry loop.
//!
//! `--seed-mode unique` gives every request a distinct seed so each
//! one misses the server's activity cache ("cold"); `fixed` reuses one
//! seed so all but the first hit it ("warm"). Comparing the two
//! isolates what the shared cache buys under load; `BENCH_serve.json`
//! records exactly that comparison.
//!
//! `--cluster N` is the self-contained fleet smoke: it spawns `N`
//! worker daemons plus a `ptb-clusterd` coordinator (sibling binary,
//! found next to this executable) on ephemeral ports, drives a sharded
//! sweep through the coordinator, and exits nonzero unless the cluster
//! response is **byte-identical** to the same sweep answered by a
//! single worker daemon directly. `--cluster-kill` additionally
//! `kill -9`s one worker mid-sweep (each shard is slowed through the
//! `shard_exec` failpoint so the kill reliably lands with work in
//! flight) and demands the reclaimed sweep still match a lone
//! survivor's rows exactly. Both print a one-line JSON summary with
//! wall time and shard throughput; the CI cluster stage runs both.
//!
//! `--standby` turns the fleet into the coordinator-HA drill: the
//! coordinator journals into a real temp directory and `PTB_STANDBYS`
//! (default 1) hot standbys tail it over `GET /journal/tail`. With
//! `--coordinator-kill` the drill SIGKILLs the *coordinator* mid-sweep
//! and demands the promoted standby finish the journaled job with rows
//! identical to a lone worker's — plus fresh sync sweeps through the
//! promoted coordinator that are byte-identical across both codecs.
//! With `--coordinator-fence` the active's tail route goes dark via the
//! `coordinator_pause` failpoint instead of dying: the standby promotes
//! while the old active still dispatches, and the drill demands the
//! zombie's stale-epoch dispatches were rejected by the workers
//! (`fenced_dispatches >= 1`, a worker `epoch_seen >= 2`), that it
//! demoted itself, and that the job still finished via the new active.
//! The poll client follows the `307` + `Location` redirects demoted
//! coordinators answer with (`docs/PROTOCOL.md` §7).
//!
//! `--cluster-saturate` instead strangles worker 0's admission
//! watermark (`PTB_MEM_WATERMARK_BYTES=1`) so it sheds every shard
//! with 503 while staying probe-green, and demands the sweep complete
//! byte-identically via backpressure re-dispatch with **zero**
//! `worker_deaths` — a saturated worker is never falsely declared
//! dead. `--soak SECS` spawns a single budget-starved daemon and
//! drives bursty unique-seed load at it; see `run_soak` for the
//! assertions (evictions and sheds happened, nothing but 503s failed,
//! disk footprints stayed within budget, expired jobs answer the
//! "gone" 404, and results stay bit-identical to an unbudgeted run).

use std::io::Write;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use ptb_bench::SweepRow;
use ptb_serve::client::{self, Connection, RetryPolicy};
use ptb_serve::wire;
use serde::Value;

struct LoadConfig {
    addr: SocketAddr,
    smoke: bool,
    xcheck: bool,
    shutdown: bool,
    submit_tws: Option<Vec<u32>>,
    poll_job: Option<u64>,
    requests: usize,
    concurrency: usize,
    network: String,
    policy: String,
    tw: u32,
    quick: bool,
    binary: bool,
    keepalive: bool,
    seed_unique: bool,
    retries: u32,
    chaos: bool,
    label: String,
    cluster: Option<usize>,
    cluster_kill: bool,
    cluster_saturate: bool,
    standby: bool,
    coordinator_kill: bool,
    coordinator_fence: bool,
    soak: Option<u64>,
}

fn main() {
    let cfg = parse_args();
    if let Some(secs) = cfg.soak {
        if let Err(msg) = run_soak(&cfg, secs) {
            eprintln!("soak FAILED: {msg}");
            std::process::exit(1);
        }
        eprintln!("soak OK");
        return;
    }
    if let Some(n) = cfg.cluster {
        if let Err(msg) = run_cluster(&cfg, n) {
            eprintln!("cluster FAILED: {msg}");
            std::process::exit(1);
        }
        eprintln!("cluster OK");
        return;
    }
    if cfg.shutdown {
        match client::request_json(cfg.addr, "POST", "/shutdown", "") {
            Ok((200, _)) => return,
            Ok((status, body)) => {
                eprintln!("shutdown answered {status}: {body}");
                std::process::exit(1);
            }
            Err(e) => {
                eprintln!("shutdown failed: {e}");
                std::process::exit(1);
            }
        }
    }
    if let Some(tws) = &cfg.submit_tws {
        run_submit(&cfg, tws);
        return;
    }
    if let Some(id) = cfg.poll_job {
        run_poll(&cfg, id);
        return;
    }
    if cfg.smoke {
        if let Err(msg) = run_smoke(&cfg) {
            eprintln!("smoke FAILED: {msg}");
            std::process::exit(1);
        }
        eprintln!("smoke OK");
        return;
    }
    if cfg.xcheck {
        if let Err(msg) = run_xcheck(&cfg) {
            eprintln!("xcheck FAILED: {msg}");
            std::process::exit(1);
        }
        eprintln!("xcheck OK");
        return;
    }
    run_load(&cfg);
}

fn parse_args() -> LoadConfig {
    let mut cfg = LoadConfig {
        addr: "127.0.0.1:7878"
            .parse()
            .expect("default address must parse"),
        smoke: false,
        xcheck: false,
        shutdown: false,
        submit_tws: None,
        poll_job: None,
        requests: 16,
        concurrency: 4,
        network: "DVS-Gesture".into(),
        policy: "PTB+StSAP".into(),
        tw: 8,
        quick: true,
        binary: false,
        keepalive: false,
        seed_unique: false,
        retries: 5,
        chaos: false,
        label: String::new(),
        cluster: None,
        cluster_kill: false,
        cluster_saturate: false,
        standby: false,
        coordinator_kill: false,
        coordinator_fence: false,
        soak: None,
    };
    if let Ok(addr) = std::env::var("PTB_ADDR") {
        cfg.addr = resolve_or_die(&addr);
    }
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("error: {flag} requires a value");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--addr" => cfg.addr = resolve_or_die(&value("--addr")),
            "--smoke" => cfg.smoke = true,
            "--xcheck" => cfg.xcheck = true,
            "--shutdown" => cfg.shutdown = true,
            "--codec" => match value("--codec").as_str() {
                "json" => cfg.binary = false,
                "bin" => cfg.binary = true,
                other => {
                    eprintln!("error: --codec wants json|bin, got {other:?}");
                    std::process::exit(2);
                }
            },
            "--keepalive" => cfg.keepalive = true,
            "--submit-tws" => {
                let spec = value("--submit-tws");
                let tws: Option<Vec<u32>> = spec
                    .split(',')
                    .map(|s| s.trim().parse::<u32>().ok())
                    .collect();
                match tws {
                    Some(tws) if !tws.is_empty() => cfg.submit_tws = Some(tws),
                    _ => {
                        eprintln!("error: --submit-tws wants N,N,..., got {spec:?}");
                        std::process::exit(2);
                    }
                }
            }
            "--poll-job" => {
                cfg.poll_job = Some(parse_or_die(&value("--poll-job"), "--poll-job") as u64);
            }
            "--requests" => cfg.requests = parse_or_die(&value("--requests"), "--requests").max(1),
            "--concurrency" => {
                cfg.concurrency = parse_or_die(&value("--concurrency"), "--concurrency").max(1);
            }
            "--network" => cfg.network = value("--network"),
            "--policy" => cfg.policy = value("--policy"),
            "--tw" => cfg.tw = parse_or_die(&value("--tw"), "--tw") as u32,
            "--full" => cfg.quick = false,
            "--seed-mode" => match value("--seed-mode").as_str() {
                "unique" => cfg.seed_unique = true,
                "fixed" => cfg.seed_unique = false,
                other => {
                    eprintln!("error: --seed-mode wants unique|fixed, got {other:?}");
                    std::process::exit(2);
                }
            },
            "--retries" => cfg.retries = parse_or_die(&value("--retries"), "--retries") as u32,
            "--chaos" => cfg.chaos = true,
            "--label" => cfg.label = value("--label"),
            "--cluster" => {
                cfg.cluster = Some(parse_or_die(&value("--cluster"), "--cluster").clamp(1, 16));
            }
            "--cluster-kill" => cfg.cluster_kill = true,
            "--cluster-saturate" => cfg.cluster_saturate = true,
            "--standby" => cfg.standby = true,
            "--coordinator-kill" => cfg.coordinator_kill = true,
            "--coordinator-fence" => cfg.coordinator_fence = true,
            "--soak" => {
                cfg.soak = Some(parse_or_die(&value("--soak"), "--soak").clamp(1, 600) as u64);
            }
            "--help" | "-h" => {
                println!(
                    "usage: ptb-load [--addr HOST:PORT] (--smoke | --xcheck | --shutdown | \
                     --submit-tws N,N,... | --poll-job ID | \
                     --cluster N [--cluster-kill | --cluster-saturate | \
                     --standby (--coordinator-kill | --coordinator-fence)] | \
                     --soak SECS | \
                     [--requests N] [--concurrency C] [--network NAME] [--policy LABEL] \
                     [--tw N] [--codec json|bin] [--keepalive] \
                     [--seed-mode unique|fixed] [--full] [--retries N] \
                     [--chaos] [--label TEXT])"
                );
                std::process::exit(0);
            }
            other => {
                eprintln!("error: unknown argument {other:?} (try --help)");
                std::process::exit(2);
            }
        }
    }
    cfg
}

fn resolve_or_die(addr: &str) -> SocketAddr {
    addr.to_socket_addrs()
        .ok()
        .and_then(|mut it| it.next())
        .unwrap_or_else(|| {
            eprintln!("error: cannot resolve address {addr:?}");
            std::process::exit(2);
        })
}

fn parse_or_die(s: &str, flag: &str) -> usize {
    s.parse().unwrap_or_else(|_| {
        eprintln!("error: {flag} wants an integer, got {s:?}");
        std::process::exit(2);
    })
}

fn retry_policy(cfg: &LoadConfig, seed: u64) -> RetryPolicy {
    RetryPolicy {
        max_retries: cfg.retries,
        seed,
        ..RetryPolicy::default()
    }
}

fn simulate_body(cfg: &LoadConfig, seed: u64) -> String {
    format!(
        "{{\"network\": \"{}\", \"policy\": \"{}\", \"tw\": {}, \"quick\": {}, \"seed\": {seed}}}",
        cfg.network, cfg.policy, cfg.tw, cfg.quick
    )
}

/// The same `/simulate` request as [`simulate_body`], as a binary
/// `PTBW1` frame.
fn simulate_frame(cfg: &LoadConfig, seed: u64) -> Vec<u8> {
    let request = Value::Object(vec![
        ("network".into(), Value::Str(cfg.network.clone())),
        ("policy".into(), Value::Str(cfg.policy.clone())),
        ("tw".into(), Value::U64(u64::from(cfg.tw))),
        ("quick".into(), Value::Bool(cfg.quick)),
        ("seed".into(), Value::U64(seed)),
    ]);
    wire::frame(wire::KIND_SIMULATE, &request)
}

/// The request body and `Content-Type` for this run's codec.
fn simulate_payload(cfg: &LoadConfig, seed: u64) -> (Vec<u8>, Option<&'static str>) {
    if cfg.binary {
        (simulate_frame(cfg, seed), Some(wire::CONTENT_TYPE))
    } else {
        (simulate_body(cfg, seed).into_bytes(), None)
    }
}

/// One request over a worker's kept-alive connection, (re)connecting
/// when none is open or the server closed the previous one.
fn keepalive_request(
    conn: &mut Option<Connection>,
    addr: SocketAddr,
    path: &str,
    content_type: Option<&str>,
    body: &[u8],
) -> std::io::Result<client::ClientResponse> {
    if conn.is_none() {
        *conn = Some(Connection::open(addr)?);
    }
    let result =
        conn.as_mut()
            .expect("connection just opened")
            .request("POST", path, content_type, body);
    match &result {
        Ok(_) if conn.as_ref().is_some_and(|c| !c.server_closed()) => {}
        // Error or server-announced close: next request reconnects.
        _ => *conn = None,
    }
    result
}

/// Drives the core routes once each, verifying every response.
fn run_smoke(cfg: &LoadConfig) -> Result<(), String> {
    let (status, body) = client::request_json(cfg.addr, "GET", "/healthz", "")
        .map_err(|e| format!("/healthz: {e}"))?;
    if status != 200 || !body.contains("ok") {
        return Err(format!("/healthz answered {status}: {body}"));
    }

    let (status, body) =
        client::request_json(cfg.addr, "POST", "/simulate", &simulate_body(cfg, 42))
            .map_err(|e| format!("/simulate: {e}"))?;
    if status != 200 || !body.contains("\"layers\"") {
        return Err(format!("/simulate answered {status}: {body}"));
    }

    let sweep = format!(
        "{{\"network\": \"{}\", \"policy\": \"{}\", \"tws\": [1, {}], \"quick\": true}}",
        cfg.network, cfg.policy, cfg.tw
    );
    let (status, body) = client::request_json(cfg.addr, "POST", "/sweep", &sweep)
        .map_err(|e| format!("/sweep: {e}"))?;
    if status != 200 || !body.contains("\"edp\"") {
        return Err(format!("/sweep answered {status}: {body}"));
    }

    // A TW-invariant policy is simulated once per cached layer and
    // served from that layer's report memo at every later TW point, but
    // only when the request is unaudited. Fill the memo, read it, then
    // recompute under a full audit: all three bodies must be identical.
    let invariant_sweep = |verify: &str| {
        let body = format!(
            "{{\"network\": \"{}\", \"policy\": \"baseline[14]\", \
             \"tws\": [1, 2, 4, 8, 16, 32, 64], \"quick\": true, \"seed\": 42, \
             \"verify\": \"{verify}\"}}",
            cfg.network
        );
        match client::request_json(cfg.addr, "POST", "/sweep", &body) {
            Ok((200, rows)) => Ok(rows),
            Ok((status, rows)) => Err(format!(
                "/sweep (verify {verify}) answered {status}: {rows}"
            )),
            Err(e) => Err(format!("/sweep (verify {verify}): {e}")),
        }
    };
    let cold = invariant_sweep("off")?;
    let warm = invariant_sweep("off")?;
    let audited = invariant_sweep("full")?;
    if warm != cold || audited != cold {
        return Err(format!(
            "memoized baseline sweep diverged\n  cold: {cold}\n  warm: {warm}\n  full: {audited}"
        ));
    }

    let (status, body) = client::request_json(cfg.addr, "GET", "/metrics", "")
        .map_err(|e| format!("/metrics: {e}"))?;
    if status != 200 || !body.contains("\"endpoints\"") {
        return Err(format!("/metrics answered {status}: {body}"));
    }
    // The counters must reflect the traffic this smoke run just sent.
    if !body.contains("\"requests\": ") || body.contains("\"accepted\": 0,") {
        return Err(format!("/metrics counters look dead: {body}"));
    }
    // The audit counters must be exposed, and a healthy daemon shows
    // zero mismatches — any other value means a simulation diverged
    // from the reference model and smoke must fail loudly.
    if !body.contains("\"audit_mismatches\": 0,") {
        return Err(format!(
            "/metrics audit_mismatches missing or nonzero: {body}"
        ));
    }
    if !body.contains("\"acc_saturated\": ") {
        return Err(format!("/metrics is missing acc_saturated: {body}"));
    }
    Ok(())
}

/// The codec cross-equivalence probe: drives `/simulate` and a sync
/// `/sweep` through both codecs over one kept-alive connection
/// (including a pipelined pair) and demands that every binary response
/// decodes to a byte-identical JSON rendering of the JSON response.
fn run_xcheck(cfg: &LoadConfig) -> Result<(), String> {
    let mut conn = Connection::open(cfg.addr).map_err(|e| format!("connect: {e}"))?;
    // Tracks whether the whole probe really ran on reused connections;
    // the server may close under load, which reconnecting handles but
    // makes the reuse-counter assertion vacuous.
    let mut stayed_alive = true;
    let mut send = |conn: &mut Connection,
                    path: &str,
                    ctype: Option<&str>,
                    body: &[u8]|
     -> Result<client::ClientResponse, String> {
        let resp = match conn.request("POST", path, ctype, body) {
            Ok(resp) => resp,
            Err(e) => return Err(format!("{path}: {e}")),
        };
        if conn.server_closed() {
            stayed_alive = false;
            *conn = Connection::open(cfg.addr).map_err(|e| format!("reconnect: {e}"))?;
        }
        Ok(resp)
    };

    // /simulate through both codecs; same request, both on this
    // connection.
    let json = send(
        &mut conn,
        "/simulate",
        None,
        simulate_body(cfg, 42).as_bytes(),
    )?;
    if json.status != 200 {
        return Err(format!(
            "/simulate (json) answered {}: {}",
            json.status,
            String::from_utf8_lossy(&json.body)
        ));
    }
    let bin = send(
        &mut conn,
        "/simulate",
        Some(wire::CONTENT_TYPE),
        &simulate_frame(cfg, 42),
    )?;
    if bin.status != 200 {
        return Err(format!(
            "/simulate (bin) answered {}: {}",
            bin.status,
            String::from_utf8_lossy(&bin.body)
        ));
    }
    check_bit_identical("/simulate", wire::KIND_REPORT, &bin.body, &json.body)?;

    // A synchronous /sweep through both codecs.
    let sweep_json = format!(
        "{{\"network\": \"{}\", \"policy\": \"{}\", \"tws\": [1, {}], \"quick\": true, \"seed\": 42}}",
        cfg.network, cfg.policy, cfg.tw
    );
    let sweep_value = Value::Object(vec![
        ("network".into(), Value::Str(cfg.network.clone())),
        ("policy".into(), Value::Str(cfg.policy.clone())),
        (
            "tws".into(),
            Value::Array(vec![Value::U64(1), Value::U64(u64::from(cfg.tw))]),
        ),
        ("quick".into(), Value::Bool(true)),
        ("seed".into(), Value::U64(42)),
    ]);
    let json = send(&mut conn, "/sweep", None, sweep_json.as_bytes())?;
    if json.status != 200 {
        return Err(format!(
            "/sweep (json) answered {}: {}",
            json.status,
            String::from_utf8_lossy(&json.body)
        ));
    }
    let bin = send(
        &mut conn,
        "/sweep",
        Some(wire::CONTENT_TYPE),
        &wire::frame(wire::KIND_SWEEP, &sweep_value),
    )?;
    if bin.status != 200 {
        return Err(format!(
            "/sweep (bin) answered {}: {}",
            bin.status,
            String::from_utf8_lossy(&bin.body)
        ));
    }
    check_bit_identical("/sweep", wire::KIND_ROWS, &bin.body, &json.body)?;

    // A pipelined pair: both requests go out in ONE write (one segment
    // on loopback), so the server deterministically finds the second
    // already buffered when it finishes the first.
    conn.queue_request("GET", "/healthz", None, b"");
    conn.queue_request("GET", "/healthz", None, b"");
    conn.flush_queued()
        .map_err(|e| format!("pipelined write: {e}"))?;
    for i in 0..2 {
        let resp = conn
            .read_response()
            .map_err(|e| format!("pipelined response {i}: {e}"))?;
        if resp.status != 200 {
            return Err(format!("pipelined /healthz {i} answered {}", resp.status));
        }
    }

    // The reuse and per-codec counters must have moved (unless the
    // server closed on us mid-probe, which makes them unprovable here).
    let (status, metrics) = client::request_json(cfg.addr, "GET", "/metrics", "")
        .map_err(|e| format!("/metrics: {e}"))?;
    if status != 200 {
        return Err(format!("/metrics answered {status}"));
    }
    if metrics.contains("\"codec_bin\": 0,") {
        return Err(format!("codec_bin never counted: {metrics}"));
    }
    if stayed_alive {
        if metrics.contains("\"keepalive_reused\": 0,") {
            return Err(format!("connection reuse never counted: {metrics}"));
        }
        if metrics.contains("\"pipelined\": 0,") {
            return Err(format!("pipelined request never counted: {metrics}"));
        }
    }
    Ok(())
}

/// Asserts a binary response frame decodes to the same bytes the JSON
/// codec produced for the same request.
fn check_bit_identical(
    path: &str,
    expect_kind: u8,
    bin_body: &[u8],
    json_body: &[u8],
) -> Result<(), String> {
    let (kind, value) =
        wire::unframe(bin_body).map_err(|e| format!("{path}: bad response frame: {e}"))?;
    if kind != expect_kind {
        return Err(format!(
            "{path}: response kind {kind:#04x}, wanted {expect_kind:#04x}"
        ));
    }
    let rendered =
        serde_json::to_string(&value).map_err(|e| format!("{path}: render failed: {e}"))?;
    if rendered.as_bytes() != json_body {
        return Err(format!(
            "{path}: codecs diverged\n  json: {}\n  bin→json: {rendered}",
            String::from_utf8_lossy(json_body)
        ));
    }
    Ok(())
}

/// Submits a background sweep over the given TWs; prints the ack JSON
/// (`{"job": id, "total": n}`) so scripts can capture the job id.
fn run_submit(cfg: &LoadConfig, tws: &[u32]) {
    let body = format!(
        "{{\"network\": \"{}\", \"policy\": \"{}\", \"tws\": {tws:?}, \
         \"quick\": {}, \"background\": true}}",
        cfg.network, cfg.policy, cfg.quick
    );
    match client::request_with_retry(
        cfg.addr,
        "POST",
        "/sweep",
        body.as_bytes(),
        &retry_policy(cfg, 0x5B317),
    ) {
        Ok(resp) if resp.status == 202 => {
            println!("{}", String::from_utf8_lossy(&resp.body));
        }
        Ok(resp) => {
            eprintln!(
                "submit answered {}: {}",
                resp.status,
                String::from_utf8_lossy(&resp.body)
            );
            std::process::exit(1);
        }
        Err(e) => {
            eprintln!("submit failed: {e}");
            std::process::exit(1);
        }
    }
}

/// Polls `GET /jobs/{id}` until the job is terminal; prints the final
/// poll body. Exit 0 = done, 1 = failed (or unreachable).
fn run_poll(cfg: &LoadConfig, id: u64) {
    let path = format!("/jobs/{id}");
    let policy = retry_policy(cfg, 0x9011 ^ id);
    loop {
        match client::request_with_retry(cfg.addr, "GET", &path, b"", &policy) {
            Ok(resp) if resp.status == 200 => {
                let body = String::from_utf8_lossy(&resp.body).to_string();
                if body.contains("\"done\": true") {
                    println!("{body}");
                    return;
                }
                if body.contains("\"failed\": true") {
                    println!("{body}");
                    std::process::exit(1);
                }
            }
            Ok(resp) => {
                eprintln!(
                    "poll answered {}: {}",
                    resp.status,
                    String::from_utf8_lossy(&resp.body)
                );
                std::process::exit(1);
            }
            Err(e) => {
                eprintln!("poll failed: {e}");
                std::process::exit(1);
            }
        }
        std::thread::sleep(Duration::from_millis(100));
    }
}

/// One chaos disruption: open a connection and misbehave — drop it
/// cold, send a short (truncated) write, or send garbage — exercising
/// the daemon's robustness right before a real request.
fn chaos_disrupt(addr: SocketAddr, draw: u64) {
    let Ok(mut stream) = TcpStream::connect(addr) else {
        return; // daemon busy: that's the load test's problem, not ours
    };
    let _ = stream.set_write_timeout(Some(Duration::from_millis(500)));
    match draw % 4 {
        // Connect-and-drop: accepted, then EOF before any bytes.
        0 => {}
        // Short write: a valid head that promises more body than sent.
        1 => {
            let _ =
                stream.write_all(b"POST /simulate HTTP/1.1\r\nContent-Length: 500\r\n\r\n{\"ne");
        }
        // A well-framed HTTP request carrying a corrupt binary frame
        // (bad checksum): must come back as a clean 400 error.
        2 => {
            let mut frame = wire::frame(wire::KIND_SIMULATE, &Value::Null);
            let last = frame.len() - 1;
            frame[last] ^= 0xFF;
            let head = format!(
                "POST /simulate HTTP/1.1\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
                wire::CONTENT_TYPE,
                frame.len()
            );
            let _ = stream.write_all(head.as_bytes());
            let _ = stream.write_all(&frame);
        }
        // Garbage bytes.
        _ => {
            let _ = stream.write_all(b"\xff\xfe\x00 not http at all \x01\x02");
        }
    }
    drop(stream); // immediate close, whatever was (not) sent
}

/// Closed-loop load: `concurrency` workers issue requests until
/// `requests` total complete; prints a JSON summary. Under `--chaos`
/// every request is preceded by a disruption and the run demands
/// `ok == requests` (convergence through retries) to exit zero.
fn run_load(cfg: &LoadConfig) {
    let issued = AtomicUsize::new(0);
    let errors = AtomicU64::new(0);
    let retried = AtomicU64::new(0);
    let latencies_us: Mutex<Vec<u64>> = Mutex::new(Vec::with_capacity(cfg.requests));
    let started = Instant::now();

    std::thread::scope(|s| {
        for worker in 0..cfg.concurrency {
            let issued = &issued;
            let errors = &errors;
            let retried = &retried;
            let latencies_us = &latencies_us;
            s.spawn(move || {
                let policy = retry_policy(cfg, 0xC0FFEE ^ worker as u64);
                // Under --keepalive each worker holds one connection
                // across requests, reconnecting when the server closes.
                let mut conn: Option<Connection> = None;
                loop {
                    let i = issued.fetch_add(1, Ordering::Relaxed);
                    if i >= cfg.requests {
                        return;
                    }
                    if cfg.chaos {
                        chaos_disrupt(cfg.addr, (worker * 31 + i) as u64);
                    }
                    let seed = if cfg.seed_unique { 1000 + i as u64 } else { 42 };
                    let (body, ctype) = simulate_payload(cfg, seed);
                    let t0 = Instant::now();
                    let first = if cfg.keepalive {
                        keepalive_request(&mut conn, cfg.addr, "/simulate", ctype, &body)
                    } else {
                        client::request_typed(cfg.addr, "POST", "/simulate", ctype, &body)
                    };
                    let ok = match &first {
                        Ok(resp) if resp.status == 200 => true,
                        _ if cfg.retries > 0 => {
                            retried.fetch_add(1, Ordering::Relaxed);
                            matches!(
                                client::request_with_retry_typed(
                                    cfg.addr,
                                    "POST",
                                    "/simulate",
                                    ctype,
                                    &body,
                                    &policy,
                                ),
                                Ok(resp) if resp.status == 200
                            )
                        }
                        _ => false,
                    };
                    let us = t0.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
                    if ok {
                        latencies_us
                            .lock()
                            .unwrap_or_else(std::sync::PoisonError::into_inner)
                            .push(us);
                    } else {
                        errors.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
    });

    let wall = started.elapsed().as_secs_f64();
    let mut lat = latencies_us
        .into_inner()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    lat.sort_unstable();
    let pct = |q: f64| -> u64 {
        if lat.is_empty() {
            return 0;
        }
        let rank = ((q * lat.len() as f64).ceil() as usize).clamp(1, lat.len());
        lat[rank - 1]
    };
    let ok = lat.len();
    println!(
        "{{\"label\": \"{}\", \"requests\": {}, \"ok\": {ok}, \"errors\": {}, \
         \"retried\": {}, \"chaos\": {}, \
         \"codec\": \"{}\", \"keepalive\": {}, \
         \"concurrency\": {}, \"seed_mode\": \"{}\", \"wall_s\": {wall:.3}, \
         \"throughput_rps\": {:.3}, \"p50_us\": {}, \"p99_us\": {}}}",
        cfg.label,
        cfg.requests,
        errors.load(Ordering::Relaxed),
        retried.load(Ordering::Relaxed),
        cfg.chaos,
        if cfg.binary { "bin" } else { "json" },
        cfg.keepalive,
        cfg.concurrency,
        if cfg.seed_unique { "unique" } else { "fixed" },
        ok as f64 / wall.max(1e-9),
        pct(0.50),
        pct(0.99),
    );
    // Chaos demands convergence: every request must have gotten through.
    if ok == 0 || (cfg.chaos && ok != cfg.requests) {
        std::process::exit(1);
    }
    // And it demands integrity: whatever the disruptions did to the
    // daemon, no audited run may have diverged from the reference.
    if cfg.chaos {
        match client::request_json(cfg.addr, "GET", "/metrics", "") {
            Ok((200, body)) if body.contains("\"audit_mismatches\": 0,") => {}
            Ok((status, body)) => {
                eprintln!("chaos integrity check failed ({status}): {body}");
                std::process::exit(1);
            }
            Err(e) => {
                eprintln!("chaos integrity check could not read /metrics: {e}");
                std::process::exit(1);
            }
        }
    }
}

/// The spawned fleet: worker and coordinator child processes, killed
/// wholesale on drop so no failure path leaks daemons.
struct FleetProcs {
    children: Vec<Child>,
}

impl Drop for FleetProcs {
    fn drop(&mut self) {
        for child in &mut self.children {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Spawns one `ptb-clusterd` process (worker or coordinator role per
/// `args`) with a `--port-file` handshake; returns the child and the
/// ephemeral address it bound.
fn spawn_daemon(
    binary: &PathBuf,
    args: &[&str],
    envs: &[(&str, String)],
    tag: usize,
) -> Result<(Child, SocketAddr), String> {
    let port_file = std::env::temp_dir().join(format!(
        "ptb-load-cluster-{}-{tag}.port",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&port_file);
    let mut command = Command::new(binary);
    command
        .args(args)
        .arg("--port-file")
        .arg(&port_file)
        .stdout(Stdio::null())
        .stderr(Stdio::null());
    for (key, value) in envs {
        command.env(key, value);
    }
    let child = command
        .spawn()
        .map_err(|e| format!("cannot spawn {}: {e}", binary.display()))?;
    let deadline = Instant::now() + Duration::from_secs(30);
    let port = loop {
        if let Ok(text) = std::fs::read_to_string(&port_file) {
            if let Ok(port) = text.trim().parse::<u16>() {
                break port;
            }
        }
        if Instant::now() >= deadline {
            return Err(format!("daemon {tag} never wrote its port file"));
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    let _ = std::fs::remove_file(&port_file);
    Ok((child, resolve_or_die(&format!("127.0.0.1:{port}"))))
}

/// `--cluster N`: spawn a real fleet (N workers + coordinator, sibling
/// `ptb-clusterd` binary, ephemeral ports), sweep through it, and
/// demand byte identity with a single direct worker. With
/// `--cluster-kill`, SIGKILL one worker mid-sweep first.
fn run_cluster(cfg: &LoadConfig, n: usize) -> Result<(), String> {
    if cfg.standby {
        if cfg.cluster_kill || cfg.cluster_saturate {
            return Err(
                "--standby pairs with --coordinator-kill / --coordinator-fence, \
                 not the worker drills"
                    .into(),
            );
        }
        if cfg.coordinator_kill == cfg.coordinator_fence {
            return Err(
                "--standby wants exactly one of --coordinator-kill / --coordinator-fence".into(),
            );
        }
        return run_cluster_failover(cfg, n);
    }
    if cfg.coordinator_kill || cfg.coordinator_fence {
        return Err("--coordinator-kill / --coordinator-fence need --standby".into());
    }
    if cfg.cluster_kill && cfg.cluster_saturate {
        return Err("pick one of --cluster-kill / --cluster-saturate".into());
    }
    // A kill needs a survivor to reclaim onto; so does a saturated
    // worker's backpressured shard.
    let n = if cfg.cluster_kill || cfg.cluster_saturate {
        n.max(2)
    } else {
        n
    };
    let binary = clusterd_binary()?;

    // Workers first. Under --cluster-kill every shard dawdles at the
    // `shard_exec` failpoint so the kill reliably lands mid-shard.
    let mut fleet = FleetProcs { children: vec![] };
    let worker_envs: Vec<(&str, String)> = if cfg.cluster_kill {
        vec![("PTB_FAILPOINTS", "shard_exec=sleep:200".into())]
    } else {
        vec![]
    };
    let mut worker_addrs = Vec::with_capacity(n);
    for tag in 0..n {
        let mut envs = worker_envs.clone();
        if cfg.cluster_saturate && tag == 0 {
            // Strangle worker 0's admission watermark: after its first
            // cached tensor it sheds every heavy request with 503 while
            // /healthz stays green — saturated, but emphatically alive.
            envs.push(("PTB_MEM_WATERMARK_BYTES", "1".into()));
        }
        let (child, addr) = spawn_daemon(
            &binary,
            &[
                "--spawn-worker",
                "--addr",
                "127.0.0.1:0",
                "--job-dir",
                "off",
                "--workers",
                "2",
            ],
            &envs,
            tag,
        )?;
        fleet.children.push(child);
        worker_addrs.push(addr);
    }
    let worker_list = worker_addrs
        .iter()
        .map(ToString::to_string)
        .collect::<Vec<_>>()
        .join(",");
    let (coordinator, addr) = spawn_daemon(
        &binary,
        &[
            "--addr",
            "127.0.0.1:0",
            "--workers",
            &worker_list,
            "--job-dir",
            "off",
            "--probe-ms",
            "100",
            "--probe-timeout-ms",
            "500",
            "--fail-threshold",
            "1",
        ],
        &[],
        n,
    )?;
    fleet.children.push(coordinator);

    let tws: Vec<u32> = if cfg.cluster_kill {
        (1..=24).collect()
    } else if cfg.cluster_saturate {
        // Enough shards that worker 0 owns some with near certainty,
        // so backpressure re-dispatch demonstrably happens.
        (1..=16).collect()
    } else {
        vec![1, 2, 4, 8, 16, 32]
    };
    if cfg.cluster_saturate {
        // Prime worker 0's cache so its 1-byte watermark is already
        // exceeded when the sweep's shards arrive.
        let (status, body) = client::request_json(
            worker_addrs[0],
            "POST",
            "/simulate",
            &simulate_body(cfg, 4242),
        )
        .map_err(|e| format!("priming /simulate: {e}"))?;
        if status != 200 {
            return Err(format!("priming /simulate answered {status}: {body}"));
        }
    }
    let sweep = format!(
        "{{\"network\": \"{}\", \"policy\": \"{}\", \"tws\": {tws:?}, \
         \"quick\": true, \"seed\": 42}}",
        cfg.network, cfg.policy
    );
    let started = Instant::now();

    let (rows_text, victim) = if cfg.cluster_kill {
        run_cluster_kill(addr, &mut fleet, &sweep)?
    } else {
        let (status, body) = client::request_json(addr, "POST", "/sweep", &sweep)
            .map_err(|e| format!("cluster /sweep: {e}"))?;
        if status != 200 {
            return Err(format!("cluster /sweep answered {status}: {body}"));
        }
        (body, None)
    };
    let wall = started.elapsed().as_secs_f64();

    // The reference: the same sweep on ONE worker daemon, no cluster.
    // After a kill that worker must be a survivor; under saturation it
    // must be an unthrottled worker (worker 0 sheds direct sweeps too).
    let reference = if cfg.cluster_saturate || victim == Some(0) {
        1 % n
    } else {
        0
    };
    let survivor = worker_addrs[reference];
    let (status, direct) = client::request_json(survivor, "POST", "/sweep", &sweep)
        .map_err(|e| format!("direct /sweep: {e}"))?;
    if status != 200 {
        return Err(format!("direct /sweep answered {status}: {direct}"));
    }
    if victim.is_none() && rows_text != direct {
        return Err(format!(
            "cluster response is not byte-identical to a single node\n  cluster: \
             {rows_text}\n  direct:  {direct}"
        ));
    }
    let cluster_rows: Vec<SweepRow> = serde_json::from_str(&rows_text)
        .map_err(|e| format!("cluster rows do not parse: {e}: {rows_text}"))?;
    let direct_rows: Vec<SweepRow> =
        serde_json::from_str(&direct).map_err(|e| format!("direct rows do not parse: {e}"))?;
    if cluster_rows != direct_rows {
        return Err(format!(
            "cluster rows diverge from a single node\n  cluster: {rows_text}\n  direct:  {direct}"
        ));
    }

    if cfg.cluster_saturate {
        // The whole point: a worker that shed every shard with 503 must
        // never have been declared dead, and the shards it bounced must
        // show up as backpressure re-dispatches, not failures.
        let (status, metrics) = client::request_json(addr, "GET", "/metrics", "")
            .map_err(|e| format!("coordinator /metrics: {e}"))?;
        if status != 200 {
            return Err(format!("coordinator /metrics answered {status}"));
        }
        let parsed: Value =
            serde_json::from_str(&metrics).map_err(|e| format!("bad /metrics: {e}"))?;
        let deaths = parsed
            .get("worker_deaths")
            .and_then(Value::as_u64)
            .unwrap_or(u64::MAX);
        if deaths != 0 {
            return Err(format!(
                "saturated worker was falsely declared dead ({deaths} deaths): {metrics}"
            ));
        }
        let redispatch = parsed
            .get("backpressure_redispatch")
            .and_then(Value::as_u64)
            .unwrap_or(0);
        if redispatch == 0 {
            return Err(format!(
                "saturation never produced a backpressure re-dispatch: {metrics}"
            ));
        }
    }

    let _ = client::request_json(addr, "POST", "/shutdown", "");
    println!(
        "{{\"label\": \"{}\", \"mode\": \"cluster\", \"workers\": {n}, \
         \"kill\": {}, \"saturate\": {}, \"shards\": {}, \"wall_s\": {wall:.3}, \
         \"shards_per_s\": {:.3}, \"bit_identical\": true}}",
        cfg.label,
        cfg.cluster_kill,
        cfg.cluster_saturate,
        tws.len(),
        tws.len() as f64 / wall.max(1e-9),
    );
    Ok(())
}

/// The sibling `ptb-clusterd` binary (same target directory), which
/// both the fleet modes and `--soak` spawn daemons through.
fn clusterd_binary() -> Result<PathBuf, String> {
    std::env::current_exe()
        .map_err(|e| format!("current_exe: {e}"))?
        .parent()
        .map(|dir| dir.join("ptb-clusterd"))
        .filter(|p| p.exists())
        .ok_or_else(|| {
            "ptb-clusterd not found next to ptb-load (build the ptb-cluster crate)".into()
        })
}

/// The `--cluster-kill` sweep: submit in the background, SIGKILL the
/// first worker that completes a shard, poll the job to done, and
/// return its rows (as the JSON array text) plus the victim's index.
fn run_cluster_kill(
    addr: SocketAddr,
    fleet: &mut FleetProcs,
    sweep: &str,
) -> Result<(String, Option<usize>), String> {
    let background = format!(
        "{}, \"background\": true}}",
        sweep.strip_suffix('}').expect("sweep body ends with }")
    );
    let (status, body) = client::request_json(addr, "POST", "/sweep", &background)
        .map_err(|e| format!("background /sweep: {e}"))?;
    if status != 202 {
        return Err(format!("background /sweep answered {status}: {body}"));
    }
    let ack: Value = serde_json::from_str(&body).map_err(|e| format!("bad ack: {e}: {body}"))?;
    let id = ack
        .get("job")
        .and_then(Value::as_u64)
        .ok_or_else(|| format!("ack has no job id: {body}"))?;

    // Kill whichever worker lands a shard first: it is already deep
    // into its next 200 ms shard, which the survivor must reclaim.
    let deadline = Instant::now() + Duration::from_secs(120);
    let victim = loop {
        let (status, metrics) = client::request_json(addr, "GET", "/metrics", "")
            .map_err(|e| format!("/metrics: {e}"))?;
        if status != 200 {
            return Err(format!("/metrics answered {status}"));
        }
        let parsed: Value =
            serde_json::from_str(&metrics).map_err(|e| format!("bad /metrics: {e}"))?;
        let dispatched: Vec<u64> = parsed
            .get("workers")
            .and_then(Value::as_array)
            .map(|workers| {
                workers
                    .iter()
                    .map(|w| w.get("dispatched").and_then(Value::as_u64).unwrap_or(0))
                    .collect()
            })
            .unwrap_or_default();
        if let Some(v) = dispatched.iter().position(|&d| d >= 1) {
            break v;
        }
        if Instant::now() >= deadline {
            return Err("no shard ever completed before the kill window".into());
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    let child = &mut fleet.children[victim];
    child
        .kill()
        .map_err(|e| format!("kill worker {victim}: {e}"))?;
    let _ = child.wait();

    // The sweep must converge anyway.
    let path = format!("/jobs/{id}");
    loop {
        let (status, body) = client::request_json(addr, "GET", &path, "")
            .map_err(|e| format!("poll {path}: {e}"))?;
        if status != 200 {
            return Err(format!("poll answered {status}: {body}"));
        }
        let poll: Value = serde_json::from_str(&body).map_err(|e| format!("bad poll: {e}"))?;
        if poll.get("failed").and_then(Value::as_bool) == Some(true) {
            return Err(format!("sweep failed after the kill: {body}"));
        }
        if poll.get("done").and_then(Value::as_bool) == Some(true) {
            let rows = poll.get("rows").ok_or_else(|| format!("no rows: {body}"))?;
            let text = serde_json::to_string(rows).map_err(|e| format!("render rows: {e}"))?;
            return Ok((text, Some(victim)));
        }
        if Instant::now() >= deadline {
            return Err("sweep never finished after the kill".into());
        }
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// One failover-aware request: tries each candidate coordinator in
/// turn, follows a single `307` `Location` hop (the HA redirect of
/// `docs/PROTOCOL.md` §7), and treats refused connections, `503`s, and
/// unfollowable redirects as "try the next candidate". `None` means
/// nobody gave a definitive answer this round; callers retry on a
/// deadline.
fn failover_request(
    candidates: &[SocketAddr],
    method: &str,
    path: &str,
    body: &[u8],
) -> Option<(u16, String)> {
    for &addr in candidates {
        let Ok(mut resp) = client::request_typed(addr, method, path, None, body) else {
            continue;
        };
        if resp.status == 307 {
            let Some(target) = resp
                .location
                .as_deref()
                .and_then(|loc| loc.to_socket_addrs().ok())
                .and_then(|mut it| it.next())
            else {
                continue;
            };
            resp = match client::request_typed(target, method, path, None, body) {
                Ok(followed) => followed,
                Err(_) => continue,
            };
        }
        match resp.status {
            307 | 503 => continue,
            status => return Some((status, String::from_utf8_lossy(&resp.body).to_string())),
        }
    }
    None
}

/// `--cluster N --standby`: the coordinator-HA drills. Spawns `N`
/// workers, an active coordinator journaling into a real temp job dir
/// on a short lease, and `PTB_STANDBYS` hot standbys tailing it, then
/// submits a journaled background sweep and injects the configured
/// coordinator failure:
///
/// - `--coordinator-kill` SIGKILLs the active with shards in flight.
///   A standby must promote, replay the mirrored journal, and finish
///   the job with rows identical to a lone worker's — and fresh sync
///   sweeps through the promoted coordinator must be byte-identical
///   to a single node across both codecs.
/// - `--coordinator-fence` leaves the active running but arms
///   `coordinator_pause=err@2` on it, so its tail route goes dark
///   after the standby's initial sync. The standby promotes while the
///   zombie still dispatches; the drill demands the workers rejected
///   the zombie's stale epoch (`fenced_dispatches >= 1` on the zombie,
///   `epoch_seen >= 2` on a worker), that the zombie demoted itself,
///   and that the job finished via the new active anyway.
///
/// Both modes also demand the promoted coordinator reports an epoch
/// above the deposed active's and zero `audit_mismatches`.
fn run_cluster_failover(cfg: &LoadConfig, n: usize) -> Result<(), String> {
    let n = n.max(2);
    let binary = clusterd_binary()?;
    // The fence drill needs exactly one standby so the promotion (and
    // the epoch the zombie is judged against) is deterministic.
    let standbys = if cfg.coordinator_fence {
        1
    } else {
        std::env::var("PTB_STANDBYS")
            .ok()
            .and_then(|s| s.parse::<usize>().ok())
            .unwrap_or(1)
            .clamp(1, 3)
    };
    let scratch = std::env::temp_dir().join(format!("ptb-failover-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);

    // Workers: every shard dawdles at `shard_exec` so the coordinator
    // kill (or the zombie's fencing) reliably lands with work in
    // flight.
    let mut fleet = FleetProcs { children: vec![] };
    let worker_envs: Vec<(&str, String)> = vec![("PTB_FAILPOINTS", "shard_exec=sleep:200".into())];
    let mut worker_addrs = Vec::with_capacity(n);
    for tag in 0..n {
        let (child, addr) = spawn_daemon(
            &binary,
            &[
                "--spawn-worker",
                "--addr",
                "127.0.0.1:0",
                "--job-dir",
                "off",
                "--workers",
                "2",
            ],
            &worker_envs,
            tag,
        )?;
        fleet.children.push(child);
        worker_addrs.push(addr);
    }
    let worker_list = worker_addrs
        .iter()
        .map(ToString::to_string)
        .collect::<Vec<_>>()
        .join(",");

    // The active coordinator, journaling for real (standbys mirror the
    // journals) on a short lease so the drill converges quickly.
    let active_dir = scratch.join("active").display().to_string();
    let mut active_envs: Vec<(&str, String)> = vec![];
    if cfg.coordinator_fence {
        // Two free index polls let the standby finish its initial
        // mirror sync; every later poll errors, so the standby hears
        // silence and promotes while the active still dispatches.
        active_envs.push(("PTB_FAILPOINTS", "coordinator_pause=err@2".into()));
    }
    let (active_child, active_addr) = spawn_daemon(
        &binary,
        &[
            "--addr",
            "127.0.0.1:0",
            "--workers",
            &worker_list,
            "--job-dir",
            &active_dir,
            "--probe-ms",
            "100",
            "--probe-timeout-ms",
            "500",
            "--fail-threshold",
            "1",
            "--lease-ms",
            "600",
        ],
        &active_envs,
        n,
    )?;
    let active_slot = fleet.children.len();
    fleet.children.push(active_child);

    // Submit the journaled sweep BEFORE any standby boots: the very
    // first tail sync then mirrors the submit record, so the drill
    // never races the mirror against the failpoint or the kill.
    let tws: Vec<u32> = if cfg.coordinator_fence {
        // Extra shards keep the zombie dispatching well past the
        // standby's promotion, so a stale-epoch dispatch must happen.
        (1..=32).collect()
    } else {
        (1..=24).collect()
    };
    let sweep = format!(
        "{{\"network\": \"{}\", \"policy\": \"{}\", \"tws\": {tws:?}, \
         \"quick\": true, \"seed\": 42}}",
        cfg.network, cfg.policy
    );
    let background = format!(
        "{}, \"background\": true}}",
        sweep.strip_suffix('}').expect("sweep body ends with }")
    );
    let started = Instant::now();
    let (status, ack) = client::request_json(active_addr, "POST", "/sweep", &background)
        .map_err(|e| format!("background /sweep: {e}"))?;
    if status != 202 {
        return Err(format!("background /sweep answered {status}: {ack}"));
    }
    let ack: Value = serde_json::from_str(&ack).map_err(|e| format!("bad ack: {e}: {ack}"))?;
    let id = ack
        .get("job")
        .and_then(Value::as_u64)
        .ok_or_else(|| format!("ack has no job id: {ack:?}"))?;

    let peer = active_addr.to_string();
    let mut standby_addrs = Vec::with_capacity(standbys);
    for k in 0..standbys {
        let dir = scratch.join(format!("standby-{k}")).display().to_string();
        let (child, addr) = spawn_daemon(
            &binary,
            &[
                "--addr",
                "127.0.0.1:0",
                "--workers",
                &worker_list,
                "--job-dir",
                &dir,
                "--standby",
                "--peer",
                &peer,
                "--probe-ms",
                "100",
                "--probe-timeout-ms",
                "500",
                "--fail-threshold",
                "1",
                "--lease-ms",
                "600",
            ],
            &[],
            n + 1 + k,
        )?;
        fleet.children.push(child);
        standby_addrs.push(addr);
    }

    if cfg.coordinator_kill {
        // Wait until a shard has actually round-tripped (the journal
        // holds a submit plus dispatch records), then SIGKILL the
        // active with the rest of the sweep still in flight.
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            let parsed = fetch_metrics(active_addr)?;
            if metric_u64(&parsed, "shards_dispatched") >= 1 {
                break;
            }
            if Instant::now() >= deadline {
                return Err("no shard ever completed before the coordinator kill".into());
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        let child = &mut fleet.children[active_slot];
        child.kill().map_err(|e| format!("kill coordinator: {e}"))?;
        let _ = child.wait();
    }

    // Poll the job to done through whatever coordinator answers.
    // Before promotion a standby 307s to the (dead or fenced) active
    // and a promoted standby may briefly answer 404 between taking
    // leadership and finishing its journal replay — both retry.
    let mut candidates = vec![active_addr];
    candidates.extend(standby_addrs.iter().copied());
    let path = format!("/jobs/{id}");
    let deadline = Instant::now() + Duration::from_secs(120);
    let rows_text = loop {
        if let Some((status, body)) = failover_request(&candidates, "GET", &path, b"") {
            match status {
                200 => {
                    let poll: Value = serde_json::from_str(&body)
                        .map_err(|e| format!("bad poll: {e}: {body}"))?;
                    if poll.get("failed").and_then(Value::as_bool) == Some(true) {
                        return Err(format!("sweep failed across the failover: {body}"));
                    }
                    if poll.get("done").and_then(Value::as_bool) == Some(true) {
                        let rows = poll.get("rows").ok_or_else(|| format!("no rows: {body}"))?;
                        break serde_json::to_string(rows)
                            .map_err(|e| format!("render rows: {e}"))?;
                    }
                }
                404 => {}
                other => return Err(format!("poll answered {other}: {body}")),
            }
        }
        if Instant::now() >= deadline {
            return Err("sweep never finished across the failover".into());
        }
        std::thread::sleep(Duration::from_millis(50));
    };
    let wall = started.elapsed().as_secs_f64();

    // The promoted coordinator: whichever standby now claims the
    // active role (the fence drill's zombie also said "active" until
    // its demotion, so only standbys are consulted).
    let promoted = {
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let promoted = standby_addrs.iter().copied().find(|&addr| {
                matches!(
                    client::request_json(addr, "GET", "/healthz", ""),
                    Ok((200, body)) if body.contains("\"role\": \"active\"")
                )
            });
            if let Some(addr) = promoted {
                break addr;
            }
            if Instant::now() >= deadline {
                return Err("no standby ever promoted itself".into());
            }
            std::thread::sleep(Duration::from_millis(50));
        }
    };

    if cfg.coordinator_fence {
        // The zombie must have been fenced at the worker boundary and
        // demoted itself on the first 409.
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let parsed = fetch_metrics(active_addr)?;
            let fenced = metric_u64(&parsed, "fenced_dispatches");
            let still_leader = parsed.get("leader").and_then(Value::as_bool) == Some(true);
            if fenced >= 1 && !still_leader {
                break;
            }
            if Instant::now() >= deadline {
                return Err(format!(
                    "the zombie coordinator was never fenced: {parsed:?}"
                ));
            }
            std::thread::sleep(Duration::from_millis(50));
        }
        let bumped = worker_addrs
            .iter()
            .any(|&w| fetch_metrics(w).is_ok_and(|m| metric_u64(&m, "epoch_seen") >= 2));
        if !bumped {
            return Err("no worker ever saw the promoted epoch".into());
        }
    }

    let parsed = fetch_metrics(promoted)?;
    let epoch = metric_u64(&parsed, "epoch");
    if epoch < 2 {
        return Err(format!(
            "promoted coordinator claims epoch {epoch}, wanted >= 2"
        ));
    }
    if parsed.get("leader").and_then(Value::as_bool) != Some(true) {
        return Err(format!(
            "promoted coordinator does not report leadership: {parsed:?}"
        ));
    }
    if metric_u64(&parsed, "audit_mismatches") != 0 {
        return Err(format!("audit mismatches across the failover: {parsed:?}"));
    }

    // The journaled job's rows must match a lone worker running the
    // same sweep — failover may cost recomputation, never correctness.
    let (status, direct) = client::request_json(worker_addrs[0], "POST", "/sweep", &sweep)
        .map_err(|e| format!("direct /sweep: {e}"))?;
    if status != 200 {
        return Err(format!("direct /sweep answered {status}: {direct}"));
    }
    let failover_rows: Vec<SweepRow> = serde_json::from_str(&rows_text)
        .map_err(|e| format!("failover rows do not parse: {e}: {rows_text}"))?;
    let direct_rows: Vec<SweepRow> =
        serde_json::from_str(&direct).map_err(|e| format!("direct rows do not parse: {e}"))?;
    if failover_rows != direct_rows {
        return Err(format!(
            "failover rows diverge from a single node\n  failover: {rows_text}\n  \
             direct:   {direct}"
        ));
    }

    // Fresh sync sweeps through the promoted coordinator: byte-
    // identical to a single node in JSON, and the binary codec must
    // decode to those exact bytes (the cross-codec contract survives
    // promotion).
    let small_json = format!(
        "{{\"network\": \"{}\", \"policy\": \"{}\", \"tws\": [1, 2, 4, 8], \
         \"quick\": true, \"seed\": 42}}",
        cfg.network, cfg.policy
    );
    let small_value = Value::Object(vec![
        ("network".into(), Value::Str(cfg.network.clone())),
        ("policy".into(), Value::Str(cfg.policy.clone())),
        (
            "tws".into(),
            Value::Array(vec![
                Value::U64(1),
                Value::U64(2),
                Value::U64(4),
                Value::U64(8),
            ]),
        ),
        ("quick".into(), Value::Bool(true)),
        ("seed".into(), Value::U64(42)),
    ]);
    let (status, via_cluster) = client::request_json(promoted, "POST", "/sweep", &small_json)
        .map_err(|e| format!("promoted /sweep: {e}"))?;
    if status != 200 {
        return Err(format!("promoted /sweep answered {status}: {via_cluster}"));
    }
    let (status, via_worker) =
        client::request_json(worker_addrs[1 % n], "POST", "/sweep", &small_json)
            .map_err(|e| format!("reference /sweep: {e}"))?;
    if status != 200 {
        return Err(format!("reference /sweep answered {status}: {via_worker}"));
    }
    if via_cluster != via_worker {
        return Err(format!(
            "promoted coordinator's sweep is not byte-identical to a single node\n  \
             cluster: {via_cluster}\n  direct:  {via_worker}"
        ));
    }
    let bin = client::request_typed(
        promoted,
        "POST",
        "/sweep",
        Some(wire::CONTENT_TYPE),
        &wire::frame(wire::KIND_SWEEP, &small_value),
    )
    .map_err(|e| format!("promoted /sweep (bin): {e}"))?;
    if bin.status != 200 {
        return Err(format!(
            "promoted /sweep (bin) answered {}: {}",
            bin.status,
            String::from_utf8_lossy(&bin.body)
        ));
    }
    check_bit_identical("/sweep", wire::KIND_ROWS, &bin.body, via_cluster.as_bytes())?;

    let _ = client::request_json(promoted, "POST", "/shutdown", "");
    if !cfg.coordinator_kill {
        let _ = client::request_json(active_addr, "POST", "/shutdown", "");
    }
    drop(fleet);
    let _ = std::fs::remove_dir_all(&scratch);
    println!(
        "{{\"label\": \"{}\", \"mode\": \"{}\", \"workers\": {n}, \
         \"standbys\": {standbys}, \"epoch\": {epoch}, \"shards\": {}, \
         \"wall_s\": {wall:.3}, \"bit_identical\": true}}",
        cfg.label,
        if cfg.coordinator_kill {
            "coordinator-kill"
        } else {
            "coordinator-fence"
        },
        tws.len(),
    );
    Ok(())
}

/// A numeric counter out of a parsed `/metrics` body (0 when absent).
fn metric_u64(parsed: &Value, key: &str) -> u64 {
    parsed.get(key).and_then(Value::as_u64).unwrap_or(0)
}

/// One `/metrics` fetch, parsed.
fn fetch_metrics(addr: SocketAddr) -> Result<Value, String> {
    let (status, body) =
        client::request_json(addr, "GET", "/metrics", "").map_err(|e| format!("/metrics: {e}"))?;
    if status != 200 {
        return Err(format!("/metrics answered {status}: {body}"));
    }
    serde_json::from_str(&body).map_err(|e| format!("bad /metrics: {e}: {body}"))
}

/// `--soak SECS`: the resource-governance soak. Spawns a worker daemon
/// strangled by tiny budgets (64 KiB memory cache, 256 KiB disk cache,
/// a 4-deep queue, 1-second job retention) and drives bursty
/// unique-seed traffic at it for `SECS` seconds, so the working set
/// dwarfs every budget. The run exits nonzero unless governance
/// demonstrably engaged without breaking anything:
///
/// - progress happened (`ok > 0`) and the ONLY tolerated per-request
///   failure is a 503 shed — any other status or transport error fails
///   the soak,
/// - `/metrics` shows `cache_evictions > 0`, `admission_shed > 0`, and
///   `audit_mismatches == 0`,
/// - the disk cache directory ends within its byte budget (plus one
///   in-flight temp file of slack),
/// - the up-front background job finishes, then *expires*: its journal
///   file is GC'd and its poll answers the documented `"gone"` 404,
/// - a final `/sweep` is byte-identical to an unbudgeted daemon's.
fn run_soak(cfg: &LoadConfig, secs: u64) -> Result<(), String> {
    const MEM_BUDGET: u64 = 64 * 1024;
    const DISK_BUDGET: u64 = 256 * 1024;
    const JOB_DIR_BUDGET: u64 = 64 * 1024;
    const SOAK_THREADS: usize = 8;
    let binary = clusterd_binary()?;
    let scratch = std::env::temp_dir().join(format!("ptb-soak-{}", std::process::id()));
    let cache_dir = scratch.join("cache");
    let job_dir = scratch.join("jobs");
    let _ = std::fs::remove_dir_all(&scratch);

    let mut fleet = FleetProcs { children: vec![] };
    let envs: Vec<(&str, String)> = vec![
        ("PTB_CACHE", "disk".into()),
        ("PTB_CACHE_DIR", cache_dir.display().to_string()),
        ("PTB_CACHE_MEM_BYTES", MEM_BUDGET.to_string()),
        ("PTB_CACHE_DISK_BYTES", DISK_BUDGET.to_string()),
        ("PTB_QUEUE_CAP", "4".into()),
        ("PTB_JOB_RETAIN", "1".into()),
        ("PTB_JOB_DIR_BYTES", JOB_DIR_BUDGET.to_string()),
    ];
    let job_dir_arg = job_dir.display().to_string();
    let (child, addr) = spawn_daemon(
        &binary,
        &[
            "--spawn-worker",
            "--addr",
            "127.0.0.1:0",
            "--job-dir",
            &job_dir_arg,
            "--workers",
            "2",
        ],
        &envs,
        0,
    )?;
    fleet.children.push(child);

    // A background job up front: it must finish now and EXPIRE later.
    let background = format!(
        "{{\"network\": \"{}\", \"policy\": \"{}\", \"tws\": [1, 2], \
         \"quick\": true, \"seed\": 7, \"background\": true}}",
        cfg.network, cfg.policy
    );
    let (status, ack) = client::request_json(addr, "POST", "/sweep", &background)
        .map_err(|e| format!("background /sweep: {e}"))?;
    if status != 202 {
        return Err(format!("background /sweep answered {status}: {ack}"));
    }
    let ack: Value = serde_json::from_str(&ack).map_err(|e| format!("bad ack: {e}: {ack}"))?;
    let job_id = ack
        .get("job")
        .and_then(Value::as_u64)
        .ok_or_else(|| "ack has no job id".to_string())?;
    let poll_path = format!("/jobs/{job_id}");
    let poll_deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let (status, body) = client::request_json(addr, "GET", &poll_path, "")
            .map_err(|e| format!("poll {poll_path}: {e}"))?;
        if status != 200 {
            return Err(format!("poll answered {status}: {body}"));
        }
        if body.contains("\"failed\": true") {
            return Err(format!("background job failed: {body}"));
        }
        if body.contains("\"done\": true") {
            break;
        }
        if Instant::now() >= poll_deadline {
            return Err("background job never finished".into());
        }
        std::thread::sleep(Duration::from_millis(50));
    }

    // The soak itself: SOAK_THREADS closed loops of unique-seed
    // /simulate (every 16th a sync /sweep), far outrunning a 4-deep
    // queue with 2 workers, so admission control must engage.
    let ok = AtomicU64::new(0);
    let sheds = AtomicU64::new(0);
    let hard_error: Mutex<Option<String>> = Mutex::new(None);
    let deadline = Instant::now() + Duration::from_secs(secs);
    std::thread::scope(|s| {
        for worker in 0..SOAK_THREADS {
            let ok = &ok;
            let sheds = &sheds;
            let hard_error = &hard_error;
            s.spawn(move || {
                let mut i: u64 = 0;
                while Instant::now() < deadline {
                    i += 1;
                    let seed = 1_000_000 * (worker as u64 + 1) + i;
                    let (path, body) = if i.is_multiple_of(16) {
                        (
                            "/sweep",
                            format!(
                                "{{\"network\": \"{}\", \"policy\": \"{}\", \
                                 \"tws\": [1, {}], \"quick\": true, \"seed\": {seed}}}",
                                cfg.network, cfg.policy, cfg.tw
                            ),
                        )
                    } else {
                        ("/simulate", simulate_body(cfg, seed))
                    };
                    match client::request_json(addr, "POST", path, &body) {
                        Ok((200, _)) => {
                            ok.fetch_add(1, Ordering::Relaxed);
                        }
                        Ok((503, _)) => {
                            // The one tolerated failure: governance
                            // shedding load. Back off briefly.
                            sheds.fetch_add(1, Ordering::Relaxed);
                            std::thread::sleep(Duration::from_millis(20));
                        }
                        Ok((status, body)) => {
                            let mut slot = hard_error
                                .lock()
                                .unwrap_or_else(std::sync::PoisonError::into_inner);
                            slot.get_or_insert(format!("{path} answered {status}: {body}"));
                            return;
                        }
                        Err(e) => {
                            let mut slot = hard_error
                                .lock()
                                .unwrap_or_else(std::sync::PoisonError::into_inner);
                            slot.get_or_insert(format!("{path} transport error: {e}"));
                            return;
                        }
                    }
                }
            });
        }
    });
    if let Some(err) = hard_error
        .into_inner()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
    {
        return Err(format!("non-503 failure under soak: {err}"));
    }
    let ok = ok.load(Ordering::Relaxed);
    if ok == 0 {
        return Err("soak made no progress: every request was shed".into());
    }

    // Governance must have ENGAGED, not just not-crashed.
    let parsed = fetch_metrics(addr)?;
    if metric_u64(&parsed, "audit_mismatches") != 0 {
        return Err(format!("audit mismatches under soak: {parsed:?}"));
    }
    if metric_u64(&parsed, "cache_evictions") == 0 {
        return Err("budgets never forced a cache eviction".into());
    }
    let mut shed_count = metric_u64(&parsed, "admission_shed");
    if shed_count == 0 {
        // Bursts may have all landed in queue gaps; force the issue
        // with a few more concurrent waves before giving up.
        for _ in 0..30 {
            std::thread::scope(|s| {
                for worker in 0..SOAK_THREADS {
                    s.spawn(move || {
                        let seed = 77_000_000 + worker as u64;
                        let body = simulate_body(cfg, seed);
                        let _ = client::request_json(addr, "POST", "/simulate", &body);
                    });
                }
            });
            shed_count = metric_u64(&fetch_metrics(addr)?, "admission_shed");
            if shed_count > 0 {
                break;
            }
        }
        if shed_count == 0 {
            return Err("admission control never shed a request".into());
        }
    }

    // Footprints stay bounded: the disk cache within its budget (plus
    // one in-flight temp file of slack), the journal dir within its.
    let dir_total = |dir: &PathBuf| -> u64 {
        std::fs::read_dir(dir)
            .map(|entries| {
                entries
                    .flatten()
                    .filter_map(|e| e.metadata().ok())
                    .filter(|m| m.is_file())
                    .map(|m| m.len())
                    .sum()
            })
            .unwrap_or(0)
    };
    let cache_total = dir_total(&cache_dir);
    if cache_total > DISK_BUDGET + 64 * 1024 {
        return Err(format!(
            "disk cache overran its budget: {cache_total} bytes on disk, budget {DISK_BUDGET}"
        ));
    }
    let job_total = dir_total(&job_dir);
    if job_total > JOB_DIR_BUDGET {
        return Err(format!(
            "journal dir overran its budget: {job_total} bytes, budget {JOB_DIR_BUDGET}"
        ));
    }

    // Retention: the long-finished background job must expire — journal
    // reaped, poll answering the documented "gone" 404.
    let gone_deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let (status, body) = client::request_json(addr, "GET", &poll_path, "")
            .map_err(|e| format!("expiry poll: {e}"))?;
        if status == 404 && body.contains("\"gone\": true") {
            break;
        }
        if Instant::now() >= gone_deadline {
            return Err(format!(
                "job {job_id} never expired: still answering {status}: {body}"
            ));
        }
        std::thread::sleep(Duration::from_millis(200));
    }
    let journal_file = job_dir.join(format!("job-{job_id:x}.ptbj"));
    if journal_file.exists() {
        return Err(format!(
            "expired job's journal survived GC: {}",
            journal_file.display()
        ));
    }

    // Finally: budgets may cost recomputation, never correctness. The
    // same sweep on an unbudgeted daemon must be byte-identical.
    let (fresh, fresh_addr) = spawn_daemon(
        &binary,
        &[
            "--spawn-worker",
            "--addr",
            "127.0.0.1:0",
            "--job-dir",
            "off",
            "--workers",
            "2",
        ],
        &[],
        1,
    )?;
    fleet.children.push(fresh);
    let sweep = format!(
        "{{\"network\": \"{}\", \"policy\": \"{}\", \"tws\": [1, {}], \
         \"quick\": true, \"seed\": 42}}",
        cfg.network, cfg.policy, cfg.tw
    );
    let soaked = loop {
        let (status, body) = client::request_json(addr, "POST", "/sweep", &sweep)
            .map_err(|e| format!("soaked /sweep: {e}"))?;
        match status {
            200 => break body,
            503 => std::thread::sleep(Duration::from_millis(50)),
            _ => return Err(format!("soaked /sweep answered {status}: {body}")),
        }
    };
    let (status, pristine) = client::request_json(fresh_addr, "POST", "/sweep", &sweep)
        .map_err(|e| format!("pristine /sweep: {e}"))?;
    if status != 200 {
        return Err(format!("pristine /sweep answered {status}: {pristine}"));
    }
    if soaked != pristine {
        return Err(format!(
            "budgeted sweep diverged from the unbudgeted reference\n  soaked:   {soaked}\n  \
             pristine: {pristine}"
        ));
    }

    let evictions = metric_u64(&fetch_metrics(addr)?, "cache_evictions");
    let _ = client::request_json(addr, "POST", "/shutdown", "");
    let _ = client::request_json(fresh_addr, "POST", "/shutdown", "");
    drop(fleet);
    let _ = std::fs::remove_dir_all(&scratch);
    println!(
        "{{\"label\": \"{}\", \"mode\": \"soak\", \"secs\": {secs}, \"ok\": {ok}, \
         \"sheds_seen\": {}, \"admission_shed\": {shed_count}, \
         \"cache_evictions\": {evictions}, \"disk_bytes\": {cache_total}, \
         \"journal_bytes\": {job_total}, \"bit_identical\": true}}",
        cfg.label,
        sheds.load(Ordering::Relaxed),
    );
    Ok(())
}
