//! `ptb-load`: a closed-loop load generator, smoke checker and drill
//! runner for the `ptb-serve` daemon and the `ptb-clusterd` fleet.
//!
//! ```text
//! ptb-load --addr HOST:PORT (--smoke | --xcheck | --shutdown)
//! ptb-load --scenario NAME                 # self-contained drill (see --help)
//! ptb-load --addr HOST:PORT [--requests N] [--concurrency C]
//!          [--network NAME] [--policy LABEL] [--tw N] [--codec json|bin]
//!          [--keepalive] [--seed-mode unique|fixed] [--full] [--retries N]
//!          [--chaos] [--label TEXT]
//! ```
//!
//! `--smoke` checks `/healthz`, `/simulate`, `/sweep` and `/metrics`
//! once each, plus a 7-TW `baseline[14]` sweep sent unaudited twice
//! (filling, then reading the report memo) and once under a full audit,
//! whose bodies must be byte-identical. `--xcheck` sends `/simulate`
//! and `/sweep` through *both* codecs over one kept-alive connection,
//! plus a pipelined pair, and demands the binary responses decode to
//! the JSON bodies byte for byte (`docs/PROTOCOL.md`). `--shutdown`
//! POSTs `/shutdown`. Load mode runs `C` closed-loop workers until `N`
//! requests completed and prints a JSON throughput/latency summary;
//! `--codec bin` sends `PTBW1` frames, `--keepalive` reuses one
//! connection per worker, and `--seed-mode unique|fixed` makes every
//! request miss or hit the daemon's cache (the `BENCH_serve.json`
//! matrices). Requests retry transport errors and `503`s with
//! decorrelated-jitter backoff honoring `Retry-After` (`--retries 0`
//! disables); `--chaos` harasses the daemon before every request
//! (dropped connections, short writes, garbage, corrupt frames) and
//! demands every request converge and `audit_mismatches` stay zero.
//!
//! `--scenario NAME` runs one row of [`SCENARIOS`]: a self-contained
//! drill that boots its own daemons from the sibling `ptb-clusterd`
//! binary through [`ptb_serve::launch::Daemon`], injects the row's
//! failure, checks that every answer stays bit-identical to a lone
//! worker's, prints a one-line JSON summary, and exits nonzero on any
//! failed check. The table fixes each drill's fleet size, TW list,
//! failpoints and soak length; `--network`, `--policy`, `--tw` and
//! `--label` still apply. `scripts/ci.sh` runs every scenario.

use std::io::Write;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use ptb_bench::SweepRow;
use ptb_serve::client::{self, Connection, RetryPolicy};
use ptb_serve::launch::Daemon;
use ptb_serve::wire;
use serde::Value;

#[derive(Clone)]
struct LoadConfig {
    addr: SocketAddr,
    smoke: bool,
    xcheck: bool,
    shutdown: bool,
    scenario: Option<&'static Scenario>,
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
}

/// The failure a scenario injects into its fleet.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Fault {
    None,
    /// SIGKILL the first worker that completes a shard.
    KillWorker,
    /// Strangle worker 0's admission watermark so it sheds every shard.
    SaturateWorker,
    /// SIGKILL the active coordinator with shards in flight.
    KillCoordinator,
    /// Blind the active coordinator's tail route (its failpoints) so a
    /// standby promotes under a still-dispatching zombie.
    FenceCoordinator,
}

/// One `--scenario` row. Every value is the one CI runs.
struct Scenario {
    name: &'static str,
    /// One line for `--help`.
    about: &'static str,
    drill: fn(&LoadConfig, &Scenario) -> Result<String, String>,
    fault: Fault,
    /// Worker daemons in the fleet.
    workers: usize,
    /// Hot-standby coordinators.
    standbys: usize,
    /// TW points of the drill's journaled or sharded sweep.
    tws: &'static [u32],
    /// `PTB_FAILPOINTS` armed on every worker.
    worker_failpoints: &'static str,
    /// `PTB_FAILPOINTS` armed on the active coordinator.
    coordinator_failpoints: &'static str,
    /// How long the soak hammers its daemon.
    soak_secs: u64,
}

/// `[1, 2, …, N]`.
const fn tws_up_to<const N: usize>() -> [u32; N] {
    let mut tws = [0; N];
    let mut i = 0;
    while i < N {
        tws[i] = i as u32 + 1;
        i += 1;
    }
    tws
}

/// A row's defaults: one worker, no standby, nothing injected.
const DEFAULTS: Scenario = Scenario {
    name: "",
    about: "",
    drill: run_serve,
    fault: Fault::None,
    workers: 1,
    standbys: 0,
    tws: &[],
    worker_failpoints: "",
    coordinator_failpoints: "",
    soak_secs: 0,
};

/// The drills, in the order `scripts/ci.sh` runs them.
static SCENARIOS: &[Scenario] = &[
    Scenario {
        name: "serve",
        about: "lone PTB_VERIFY=sample worker: --smoke, --xcheck, JSON and \
                binary keep-alive --chaos passes, clean shutdown",
        ..DEFAULTS
    },
    Scenario {
        name: "crash-recovery",
        about: "background sweep journaled, worker SIGKILLed mid-job, reboot \
                resumes it (resumed_jobs == 1) and finishes it",
        drill: run_crash_recovery,
        tws: &[1, 4, 8],
        worker_failpoints: "shard_exec=sleep:400",
        ..DEFAULTS
    },
    Scenario {
        name: "cluster",
        about: "coordinator + 2 workers: sharded sweep byte-identical to a lone worker",
        drill: run_cluster,
        workers: 2,
        tws: &[1, 2, 4, 8, 16, 32],
        ..DEFAULTS
    },
    Scenario {
        name: "worker-kill",
        about: "one worker SIGKILLed mid-sweep: survivor reclaims, rows match a lone worker",
        drill: run_cluster,
        fault: Fault::KillWorker,
        workers: 2,
        tws: &tws_up_to::<24>(),
        worker_failpoints: "shard_exec=sleep:200",
        ..DEFAULTS
    },
    Scenario {
        name: "soak",
        about: "budget-starved worker under bursty load: evictions and sheds \
                happen, only 503s fail, budgets hold, expired job answers gone-404",
        drill: run_soak,
        tws: &[1, 2],
        soak_secs: 8,
        ..DEFAULTS
    },
    Scenario {
        name: "saturate",
        about: "worker 0 sheds every shard: sweep completes byte-identically via \
                backpressure re-dispatch with zero worker_deaths",
        drill: run_cluster,
        fault: Fault::SaturateWorker,
        workers: 2,
        tws: &tws_up_to::<16>(),
        ..DEFAULTS
    },
    Scenario {
        name: "failover",
        about: "active coordinator SIGKILLed mid-sweep: the standby promotes \
                (epoch >= 2) and finishes the job; rows and both codecs match",
        drill: run_failover,
        fault: Fault::KillCoordinator,
        workers: 2,
        standbys: 1,
        tws: &tws_up_to::<24>(),
        worker_failpoints: "shard_exec=sleep:200",
        ..DEFAULTS
    },
    Scenario {
        name: "fence",
        about: "active's tail goes dark: standby promotes, zombie is fenced \
                (409) and demotes, the job still finishes",
        drill: run_failover,
        fault: Fault::FenceCoordinator,
        workers: 2,
        standbys: 1,
        tws: &tws_up_to::<32>(),
        worker_failpoints: "shard_exec=sleep:200",
        // Two free index polls let the standby finish its initial
        // mirror sync; every later poll errors, so the standby hears
        // silence and promotes while the active still dispatches.
        coordinator_failpoints: "coordinator_pause=err@2",
        ..DEFAULTS
    },
];

/// The HA lease of the failover drills: short, so they converge fast.
const LEASE_MS: u64 = 600;
/// How long a drill waits for a job, a kill window or a promotion.
const DRILL_DEADLINE: Duration = Duration::from_secs(120);

fn main() {
    let cfg = parse_args(std::env::args().skip(1)).unwrap_or_else(|(code, text)| {
        if code == 0 {
            println!("{text}");
        } else {
            eprintln!("{text}");
        }
        std::process::exit(code)
    });
    let print = |summary: String| println!("{summary}");
    let (mode, result) = match cfg.scenario {
        Some(sc) => (sc.name, (sc.drill)(&cfg, sc).map(print)),
        None if cfg.shutdown => ("shutdown", shutdown(cfg.addr)),
        None if cfg.smoke => ("smoke", run_smoke(&cfg)),
        None if cfg.xcheck => ("xcheck", run_xcheck(&cfg)),
        None => ("load", run_load(&cfg).map(print)),
    };
    if let Err(msg) = result {
        eprintln!("{mode} FAILED: {msg}");
        std::process::exit(1);
    }
    eprintln!("{mode} OK");
}

/// The `--help` text; its scenario list is read off [`SCENARIOS`].
fn usage() -> String {
    let mut text = String::from(
        "usage: ptb-load [--addr HOST:PORT] (--smoke | --xcheck | --shutdown | \
         --scenario NAME | [--requests N] [--concurrency C] [--network NAME] \
         [--policy LABEL] [--tw N] [--codec json|bin] [--keepalive] \
         [--seed-mode unique|fixed] [--full] [--retries N] [--chaos] [--label TEXT])\n\
         \nscenarios (each boots its own daemons from the sibling ptb-clusterd):\n",
    );
    for sc in SCENARIOS {
        text.push_str(&format!("  {:<15} {}\n", sc.name, sc.about));
    }
    text
}

/// Parses the command line; `Err((code, text))` means exit with
/// `code` after printing `text` (0 for `--help`, 2 for a usage error).
fn parse_args(args: impl IntoIterator<Item = String>) -> Result<LoadConfig, (i32, String)> {
    let usage_error = |msg: String| (2, format!("error: {msg}"));
    let mut cfg = LoadConfig {
        addr: "127.0.0.1:7878"
            .parse()
            .expect("default address must parse"),
        smoke: false,
        xcheck: false,
        shutdown: false,
        scenario: None,
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
    };
    if let Ok(addr) = std::env::var("PTB_ADDR") {
        cfg.addr = resolve(&addr).map_err(usage_error)?;
    }
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| {
            args.next()
                .ok_or_else(|| usage_error(format!("{flag} requires a value")))
        };
        let number = |flag: &str, s: String| {
            s.parse::<usize>()
                .map_err(|_| usage_error(format!("{flag} wants an integer, got {s:?}")))
        };
        match arg.as_str() {
            "--addr" => cfg.addr = resolve(&value("--addr")?).map_err(usage_error)?,
            "--smoke" => cfg.smoke = true,
            "--xcheck" => cfg.xcheck = true,
            "--shutdown" => cfg.shutdown = true,
            "--scenario" => {
                let name = value("--scenario")?;
                let sc = SCENARIOS.iter().find(|sc| sc.name == name).ok_or_else(|| {
                    let names: Vec<&str> = SCENARIOS.iter().map(|sc| sc.name).collect();
                    usage_error(format!(
                        "unknown scenario {name:?}; valid scenarios: {}",
                        names.join(", ")
                    ))
                })?;
                cfg.scenario = Some(sc);
            }
            "--codec" => match value("--codec")?.as_str() {
                "json" => cfg.binary = false,
                "bin" => cfg.binary = true,
                other => {
                    return Err(usage_error(format!(
                        "--codec wants json|bin, got {other:?}"
                    )))
                }
            },
            "--keepalive" => cfg.keepalive = true,
            "--requests" => cfg.requests = number("--requests", value("--requests")?)?.max(1),
            "--concurrency" => {
                cfg.concurrency = number("--concurrency", value("--concurrency")?)?.max(1);
            }
            "--network" => cfg.network = value("--network")?,
            "--policy" => cfg.policy = value("--policy")?,
            "--tw" => cfg.tw = number("--tw", value("--tw")?)? as u32,
            "--full" => cfg.quick = false,
            "--seed-mode" => match value("--seed-mode")?.as_str() {
                "unique" => cfg.seed_unique = true,
                "fixed" => cfg.seed_unique = false,
                other => {
                    return Err(usage_error(format!(
                        "--seed-mode wants unique|fixed, got {other:?}"
                    )))
                }
            },
            "--retries" => cfg.retries = number("--retries", value("--retries")?)? as u32,
            "--chaos" => cfg.chaos = true,
            "--label" => cfg.label = value("--label")?,
            "--help" | "-h" => return Err((0, usage())),
            other => {
                return Err(usage_error(format!(
                    "unknown argument {other:?} (try --help)"
                )))
            }
        }
    }
    Ok(cfg)
}

fn resolve(addr: &str) -> Result<SocketAddr, String> {
    addr.to_socket_addrs()
        .ok()
        .and_then(|mut it| it.next())
        .ok_or_else(|| format!("cannot resolve address {addr:?}"))
}

fn retry_policy(cfg: &LoadConfig, seed: u64) -> RetryPolicy {
    RetryPolicy {
        max_retries: cfg.retries,
        seed,
        ..RetryPolicy::default()
    }
}

/// A `/simulate` request at this run's network, policy and TW, as
/// JSON text and as the `Value` a binary frame carries.
fn simulate_request(cfg: &LoadConfig, seed: u64) -> (String, Value) {
    let value = Value::Object(vec![
        ("network".into(), Value::Str(cfg.network.clone())),
        ("policy".into(), Value::Str(cfg.policy.clone())),
        ("tw".into(), Value::U64(u64::from(cfg.tw))),
        ("quick".into(), Value::Bool(cfg.quick)),
        ("seed".into(), Value::U64(seed)),
    ]);
    let text = serde_json::to_string(&value).expect("a Value always renders");
    (text, value)
}

/// The `/simulate` body and `Content-Type` for this run's codec.
fn simulate_payload(cfg: &LoadConfig, seed: u64) -> (Vec<u8>, Option<&'static str>) {
    let (text, value) = simulate_request(cfg, seed);
    if cfg.binary {
        (
            wire::frame(wire::KIND_SIMULATE, &value),
            Some(wire::CONTENT_TYPE),
        )
    } else {
        (text.into_bytes(), None)
    }
}

/// A quick `/sweep` of this run's network and policy over `tws`, plus
/// `extra` fields, as JSON text and as the `Value` a binary frame
/// carries.
fn sweep_request(cfg: &LoadConfig, tws: &[u32], extra: &[(&str, Value)]) -> (String, Value) {
    let mut fields = vec![
        ("network".into(), Value::Str(cfg.network.clone())),
        ("policy".into(), Value::Str(cfg.policy.clone())),
        (
            "tws".into(),
            Value::Array(tws.iter().map(|&tw| Value::U64(u64::from(tw))).collect()),
        ),
        ("quick".into(), Value::Bool(true)),
    ];
    fields.extend(extra.iter().map(|(k, v)| ((*k).to_string(), v.clone())));
    let value = Value::Object(fields);
    let text = serde_json::to_string(&value).expect("a Value always renders");
    (text, value)
}

/// The `"seed"` field most drills pin their sweeps to.
fn seed(seed: u64) -> (&'static str, Value) {
    ("seed", Value::U64(seed))
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

/// POSTs `/shutdown` to a daemon this process did not spawn.
fn shutdown(addr: SocketAddr) -> Result<(), String> {
    match client::request_json(addr, "POST", "/shutdown", "") {
        Ok((200, _)) => Ok(()),
        Ok((status, body)) => Err(format!("/shutdown answered {status}: {body}")),
        Err(e) => Err(format!("/shutdown: {e}")),
    }
}

/// Drives the core routes once each, verifying every response.
fn run_smoke(cfg: &LoadConfig) -> Result<(), String> {
    let (status, body) = client::request_json(cfg.addr, "GET", "/healthz", "")
        .map_err(|e| format!("/healthz: {e}"))?;
    if status != 200 || !body.contains("ok") {
        return Err(format!("/healthz answered {status}: {body}"));
    }

    let (status, body) =
        client::request_json(cfg.addr, "POST", "/simulate", &simulate_request(cfg, 42).0)
            .map_err(|e| format!("/simulate: {e}"))?;
    if status != 200 || !body.contains("\"layers\"") {
        return Err(format!("/simulate answered {status}: {body}"));
    }

    let (sweep, _) = sweep_request(cfg, &[1, cfg.tw], &[]);
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
        let baseline = LoadConfig {
            policy: "baseline[14]".into(),
            ..cfg.clone()
        };
        let (body, _) = sweep_request(
            &baseline,
            &[1, 2, 4, 8, 16, 32, 64],
            &[seed(42), ("verify", Value::Str(verify.into()))],
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
        if resp.status != 200 {
            return Err(format!(
                "{path} ({}) answered {}: {}",
                if ctype.is_some() { "bin" } else { "json" },
                resp.status,
                String::from_utf8_lossy(&resp.body)
            ));
        }
        if conn.server_closed() {
            stayed_alive = false;
            *conn = Connection::open(cfg.addr).map_err(|e| format!("reconnect: {e}"))?;
        }
        Ok(resp)
    };

    // /simulate and a synchronous /sweep through both codecs: the same
    // request each way, all on this connection.
    let (sim_json, sim_value) = simulate_request(cfg, 42);
    let (sweep_json, sweep_value) = sweep_request(cfg, &[1, cfg.tw], &[seed(42)]);
    for (path, json_body, value, request_kind, reply_kind) in [
        (
            "/simulate",
            sim_json,
            sim_value,
            wire::KIND_SIMULATE,
            wire::KIND_REPORT,
        ),
        (
            "/sweep",
            sweep_json,
            sweep_value,
            wire::KIND_SWEEP,
            wire::KIND_ROWS,
        ),
    ] {
        let json = send(&mut conn, path, None, json_body.as_bytes())?;
        let frame = wire::frame(request_kind, &value);
        let bin = send(&mut conn, path, Some(wire::CONTENT_TYPE), &frame)?;
        check_bit_identical(path, reply_kind, &bin.body, &json.body)?;
    }

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
    let metrics = fetch_metrics(cfg.addr)?;
    if metric_u64(&metrics, "codec_bin") == 0 {
        return Err(format!("codec_bin never counted: {metrics:?}"));
    }
    if stayed_alive {
        if metric_u64(&metrics, "keepalive_reused") == 0 {
            return Err(format!("connection reuse never counted: {metrics:?}"));
        }
        if metric_u64(&metrics, "pipelined") == 0 {
            return Err(format!("pipelined request never counted: {metrics:?}"));
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
/// `requests` total complete; returns the JSON summary. Under `--chaos`
/// every request is preceded by a disruption and the run demands
/// `ok == requests` (convergence through retries) and zero
/// `audit_mismatches`.
fn run_load(cfg: &LoadConfig) -> Result<String, String> {
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
    let summary = format!(
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
        return Err(format!("requests failed: {summary}"));
    }
    // And it demands integrity: whatever the disruptions did to the
    // daemon, no audited run may have diverged from the reference.
    if cfg.chaos {
        let metrics = fetch_metrics(cfg.addr)?;
        if metrics.get("audit_mismatches").and_then(Value::as_u64) != Some(0) {
            return Err(format!("audit_mismatches missing or nonzero: {metrics:?}"));
        }
    }
    Ok(summary)
}

/// The sibling `ptb-clusterd` binary (same target directory), which
/// every scenario spawns its daemons from.
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

/// The environment that arms `failpoints` (none when empty).
fn failpoint_env(failpoints: &str) -> Vec<(&'static str, String)> {
    if failpoints.is_empty() {
        vec![]
    } else {
        vec![("PTB_FAILPOINTS", failpoints.into())]
    }
}

/// A drill's scratch directory under the system temp dir, removed on
/// drop (declare it before the daemons that write into it).
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!("ptb-load-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
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

/// Submits a background sweep over `tws` (plus `extra` fields) and
/// returns the job id from its `202` ack.
fn submit(
    addr: SocketAddr,
    cfg: &LoadConfig,
    tws: &[u32],
    extra: &[(&str, Value)],
) -> Result<u64, String> {
    let mut fields = extra.to_vec();
    fields.push(("background", Value::Bool(true)));
    let (body, _) = sweep_request(cfg, tws, &fields);
    let (status, ack) = client::request_json(addr, "POST", "/sweep", &body)
        .map_err(|e| format!("background /sweep: {e}"))?;
    if status != 202 {
        return Err(format!("background /sweep answered {status}: {ack}"));
    }
    serde_json::from_str::<Value>(&ack)
        .ok()
        .and_then(|v| v.get("job").and_then(Value::as_u64))
        .ok_or_else(|| format!("ack has no job id: {ack}"))
}

/// The rows of a finished job (as JSON array text), out of its final
/// poll body; a failed job is an error.
fn job_rows(body: &str) -> Result<String, String> {
    let poll: Value = serde_json::from_str(body).map_err(|e| format!("bad poll: {e}: {body}"))?;
    if poll.get("failed").and_then(Value::as_bool) == Some(true) {
        return Err(format!("job failed: {body}"));
    }
    let rows = poll.get("rows").ok_or_else(|| format!("no rows: {body}"))?;
    serde_json::to_string(rows).map_err(|e| format!("render rows: {e}"))
}

/// Polls job `id` on `addr` to done and returns its rows.
fn finished_rows(addr: SocketAddr, id: u64) -> Result<String, String> {
    job_rows(&client::poll_job(
        addr,
        id,
        Instant::now() + DRILL_DEADLINE,
    )?)
}

/// Demands `rows` (a sweep's rows as JSON text) match the same `sweep`
/// answered by one lone `worker`: byte for byte when `exact`, row for
/// row always (job polls re-render their rows, so they compare by row).
fn match_lone_worker(
    worker: SocketAddr,
    sweep: &str,
    rows: &str,
    exact: bool,
) -> Result<(), String> {
    let (status, direct) = client::request_json(worker, "POST", "/sweep", sweep)
        .map_err(|e| format!("lone-worker /sweep: {e}"))?;
    if status != 200 {
        return Err(format!("lone-worker /sweep answered {status}: {direct}"));
    }
    if exact && rows != direct {
        return Err(format!(
            "response is not byte-identical to a lone worker's\n  got:    {rows}\n  \
             direct: {direct}"
        ));
    }
    let got: Vec<SweepRow> =
        serde_json::from_str(rows).map_err(|e| format!("rows do not parse: {e}: {rows}"))?;
    let want: Vec<SweepRow> =
        serde_json::from_str(&direct).map_err(|e| format!("lone-worker rows do not parse: {e}"))?;
    if got != want {
        return Err(format!(
            "rows diverge from a lone worker's\n  got:    {rows}\n  direct: {direct}"
        ));
    }
    Ok(())
}

/// Retries `probe` every `every` until it yields a value or `timeout`
/// passes (then `Err(what)`); a probe error aborts at once.
fn wait_for<T>(
    timeout: Duration,
    every: Duration,
    what: &str,
    mut probe: impl FnMut() -> Result<Option<T>, String>,
) -> Result<T, String> {
    let deadline = Instant::now() + timeout;
    loop {
        if let Some(found) = probe()? {
            return Ok(found);
        }
        if Instant::now() >= deadline {
            return Err(what.into());
        }
        std::thread::sleep(every);
    }
}

/// `serve`: a lone `PTB_VERIFY=sample` worker through `--smoke`,
/// `--xcheck` and both `--chaos` passes (JSON one-shot, binary over
/// kept-alive connections), then a clean `/shutdown`.
fn run_serve(cfg: &LoadConfig, sc: &Scenario) -> Result<String, String> {
    let daemon = Daemon::worker(
        &clusterd_binary()?,
        None,
        &[("PTB_VERIFY", "sample".into())],
    )?;
    let at = LoadConfig {
        addr: daemon.addr(),
        requests: 8,
        concurrency: 2,
        chaos: true,
        ..cfg.clone()
    };
    run_smoke(&at).map_err(|e| format!("smoke: {e}"))?;
    run_xcheck(&at).map_err(|e| format!("xcheck: {e}"))?;
    let json = run_load(&at).map_err(|e| format!("chaos (json): {e}"))?;
    let bin = LoadConfig {
        binary: true,
        keepalive: true,
        ..at
    };
    let bin = run_load(&bin).map_err(|e| format!("chaos (bin, keep-alive): {e}"))?;
    daemon.shutdown()?;
    Ok(format!(
        "{{\"label\": \"{}\", \"mode\": \"{}\", \"chaos_json\": {json}, \"chaos_bin\": {bin}}}",
        cfg.label, sc.name
    ))
}

/// `crash-recovery`: a journaling worker takes a background sweep
/// whose shards dawdle at `shard_exec`; once a shard is journaled the
/// worker is SIGKILLed. A journal file must survive, a worker rebooted
/// on the same directory must report `resumed_jobs == 1`, and the job
/// must poll to done, followed by a clean `/shutdown`.
fn run_crash_recovery(cfg: &LoadConfig, sc: &Scenario) -> Result<String, String> {
    let bin = clusterd_binary()?;
    let scratch = Scratch::new("crash");
    let job_dir = scratch.0.as_path();
    let mut daemon = Daemon::worker(&bin, Some(job_dir), &failpoint_env(sc.worker_failpoints))?;
    let id = submit(daemon.addr(), cfg, sc.tws, &[])?;
    // The submit record is written before the ack; wait for a shard
    // record too, so the kill lands mid-job with progress journaled.
    wait_for(
        DRILL_DEADLINE,
        Duration::from_millis(10),
        "no shard was journaled",
        || {
            let metrics = fetch_metrics(daemon.addr())?;
            let appends = metrics
                .get("journal")
                .map_or(0, |j| metric_u64(j, "appends"));
            Ok((appends >= 2).then_some(()))
        },
    )?;
    daemon.kill();
    let journal = job_dir.join(format!("job-{id:016x}.ptbj"));
    if !journal.exists() {
        return Err(format!(
            "no journal file at {} after the kill",
            journal.display()
        ));
    }

    let daemon = Daemon::worker(&bin, Some(job_dir), &[])?;
    let resumed = fetch_metrics(daemon.addr())?
        .get("journal")
        .map_or(0, |j| metric_u64(j, "resumed_jobs"));
    if resumed != 1 {
        return Err(format!("reboot resumed {resumed} jobs, wanted 1"));
    }
    finished_rows(daemon.addr(), id).map_err(|e| format!("resumed job: {e}"))?;
    daemon.shutdown()?;
    Ok(format!(
        "{{\"label\": \"{}\", \"mode\": \"{}\", \"job\": {id}, \"resumed_jobs\": {resumed}}}",
        cfg.label, sc.name
    ))
}

/// One fleet of [`run_cluster`] and the sweep it answered. The daemons
/// live as long as this does.
struct ClusterRun {
    workers: Vec<Daemon>,
    coordinator: Daemon,
    sweep: String,
    rows: String,
    victim: Option<usize>,
    wall: f64,
}

/// Boots [`run_cluster`]'s fleet and sends its sweep: synchronously, or
/// under `worker-kill` as a background job whose first shard-landing
/// worker is SIGKILLed.
fn cluster_sweep(cfg: &LoadConfig, sc: &Scenario) -> Result<ClusterRun, String> {
    let bin = clusterd_binary()?;
    let saturate = sc.fault == Fault::SaturateWorker;
    let mut workers = Vec::with_capacity(sc.workers);
    for k in 0..sc.workers {
        let mut envs = failpoint_env(sc.worker_failpoints);
        if saturate && k == 0 {
            // After its first cached tensor worker 0 sheds every heavy
            // request with 503 while /healthz stays green — saturated,
            // but emphatically alive.
            envs.push(("PTB_MEM_WATERMARK_BYTES", "1".into()));
        }
        workers.push(Daemon::worker(&bin, None, &envs)?);
    }
    let worker_addrs: Vec<SocketAddr> = workers.iter().map(Daemon::addr).collect();
    let coordinator = Daemon::coordinator(&bin, &worker_addrs, None, None, None, &[])?;
    let addr = coordinator.addr();

    if saturate {
        // Prime worker 0's cache so its 1-byte watermark is already
        // exceeded when the sweep's shards arrive.
        let (status, body) = client::request_json(
            worker_addrs[0],
            "POST",
            "/simulate",
            &simulate_request(cfg, 4242).0,
        )
        .map_err(|e| format!("priming /simulate: {e}"))?;
        if status != 200 {
            return Err(format!("priming /simulate answered {status}: {body}"));
        }
    }
    let (sweep, _) = sweep_request(cfg, sc.tws, &[seed(42)]);
    let started = Instant::now();
    let (rows, victim) = if sc.fault == Fault::KillWorker {
        let id = submit(addr, cfg, sc.tws, &[seed(42)])?;
        // Kill whichever worker lands a shard first: it is already deep
        // into its next dawdling shard, which the survivor must reclaim.
        let msg = "no shard ever completed before the kill window";
        let victim = wait_for(DRILL_DEADLINE, Duration::from_millis(10), msg, || {
            let metrics = fetch_metrics(addr)?;
            let workers = metrics.get("workers").and_then(Value::as_array);
            Ok(workers
                .unwrap_or_default()
                .iter()
                .position(|w| metric_u64(w, "dispatched") >= 1))
        })?;
        workers[victim].kill();
        let rows = finished_rows(addr, id).map_err(|e| format!("after the kill: {e}"))?;
        (rows, Some(victim))
    } else {
        let (status, body) = client::request_json(addr, "POST", "/sweep", &sweep)
            .map_err(|e| format!("cluster /sweep: {e}"))?;
        if status != 200 {
            return Err(format!("cluster /sweep answered {status}: {body}"));
        }
        (body, None)
    };
    Ok(ClusterRun {
        workers,
        coordinator,
        sweep,
        rows,
        victim,
        wall: started.elapsed().as_secs_f64(),
    })
}

/// Fleets `saturate` boots before it gives up on placing a shard of its
/// sweep on the strangled worker.
const SATURATE_ATTEMPTS: usize = 3;

/// `cluster`, `worker-kill` and `saturate`: a coordinator over
/// `sc.workers` worker processes. The sweep must match a lone worker —
/// byte for byte when nothing was killed. `worker-kill` SIGKILLs the
/// first worker to land a shard of a background sweep; `saturate`
/// strangles worker 0's admission watermark and demands zero
/// `worker_deaths` with nonzero `backpressure_redispatch`.
///
/// Shards land by a hash ring seeded with the workers' ephemeral
/// addresses, so about one `saturate` fleet in fifty places none of the
/// sweep's shards on worker 0, and nothing can bounce. Such a fleet is
/// re-spawned on fresh ports, up to [`SATURATE_ATTEMPTS`] fleets.
fn run_cluster(cfg: &LoadConfig, sc: &Scenario) -> Result<String, String> {
    let saturate = sc.fault == Fault::SaturateWorker;
    let mut attempt = 1;
    let run = loop {
        let run = cluster_sweep(cfg, sc)?;
        if !saturate {
            break run;
        }
        // Worker 0 admitted only the priming request, so it shed every
        // shard it was sent. (The coordinator's per-worker `dispatched`
        // counts completed shards only, which is 0 either way.)
        let metrics = fetch_metrics(run.workers[0].addr())?;
        if metric_u64(&metrics, "admission_shed") > 0 {
            break run;
        }
        if attempt == SATURATE_ATTEMPTS {
            return Err(format!(
                "no fleet in {attempt} placed a shard on the saturated worker: {metrics:?}"
            ));
        }
        eprintln!("saturate: worker 0 owns no shard of the sweep; re-spawning the fleet");
        attempt += 1;
    };
    let ClusterRun {
        workers,
        coordinator,
        sweep,
        rows,
        victim,
        wall,
    } = run;
    let addr = coordinator.addr();
    let worker_addrs: Vec<SocketAddr> = workers.iter().map(Daemon::addr).collect();

    // After a kill the reference must be a survivor; under saturation
    // an unthrottled worker (worker 0 sheds direct sweeps too).
    let reference = if saturate || victim == Some(0) { 1 } else { 0 };
    match_lone_worker(worker_addrs[reference], &sweep, &rows, victim.is_none())?;

    if saturate {
        // A worker that shed every shard with 503 must never have been
        // declared dead, and the shards it bounced must show up as
        // backpressure re-dispatches, not failures.
        let metrics = fetch_metrics(addr)?;
        let deaths = metrics.get("worker_deaths").and_then(Value::as_u64);
        if deaths != Some(0) {
            return Err(format!(
                "saturated worker was falsely declared dead ({deaths:?} deaths): {metrics:?}"
            ));
        }
        if metric_u64(&metrics, "backpressure_redispatch") == 0 {
            return Err(format!(
                "saturation never produced a backpressure re-dispatch: {metrics:?}"
            ));
        }
    }
    Ok(format!(
        "{{\"label\": \"{}\", \"mode\": \"{}\", \"workers\": {}, \"shards\": {}, \
         \"wall_s\": {wall:.3}, \"shards_per_s\": {:.3}, \"bit_identical\": true}}",
        cfg.label,
        sc.name,
        sc.workers,
        sc.tws.len(),
        sc.tws.len() as f64 / wall.max(1e-9),
    ))
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

/// `failover` and `fence`: the coordinator-HA drills. Boots the
/// workers, an active coordinator journaling on a short lease, and hot
/// standbys tailing it; submits a journaled background sweep; then
/// `failover` SIGKILLs the active with shards in flight, while `fence`
/// blinds its tail route (`coordinator_pause`) so a standby promotes
/// under a live zombie, which the workers must fence
/// (`fenced_dispatches >= 1`, a worker's `epoch_seen >= 2`) and which
/// must demote itself.
/// Either way the job must finish through the promoted coordinator
/// (epoch >= 2, leader, zero `audit_mismatches`) with rows matching a
/// lone worker's, and fresh sync sweeps through it must be
/// byte-identical to a lone worker's in both codecs.
fn run_failover(cfg: &LoadConfig, sc: &Scenario) -> Result<String, String> {
    let bin = clusterd_binary()?;
    let scratch = Scratch::new("failover");
    // Every shard dawdles at `shard_exec` so the coordinator kill (or
    // the zombie's fencing) reliably lands with work in flight.
    let mut workers = Vec::with_capacity(sc.workers);
    for _ in 0..sc.workers {
        workers.push(Daemon::worker(
            &bin,
            None,
            &failpoint_env(sc.worker_failpoints),
        )?);
    }
    let worker_addrs: Vec<SocketAddr> = workers.iter().map(Daemon::addr).collect();
    let mut active = Daemon::coordinator(
        &bin,
        &worker_addrs,
        Some(scratch.0.join("active").as_path()),
        Some(LEASE_MS),
        None,
        &failpoint_env(sc.coordinator_failpoints),
    )?;
    let active_addr = active.addr();

    // Submit the journaled sweep BEFORE any standby boots: the very
    // first tail sync then mirrors the submit record, so the drill
    // never races the mirror against the failpoint or the kill.
    let started = Instant::now();
    let id = submit(active_addr, cfg, sc.tws, &[seed(42)])?;
    let mut standbys = Vec::with_capacity(sc.standbys);
    for k in 0..sc.standbys {
        let dir = scratch.0.join(format!("standby-{k}"));
        standbys.push(Daemon::coordinator(
            &bin,
            &worker_addrs,
            Some(dir.as_path()),
            Some(LEASE_MS),
            Some(active_addr),
            &[],
        )?);
    }
    let standby_addrs: Vec<SocketAddr> = standbys.iter().map(Daemon::addr).collect();

    if sc.fault == Fault::KillCoordinator {
        // Wait until a shard has actually round-tripped (the journal
        // holds a submit plus dispatch records), then SIGKILL the
        // active with the rest of the sweep still in flight.
        let msg = "no shard ever completed before the coordinator kill";
        wait_for(DRILL_DEADLINE, Duration::from_millis(10), msg, || {
            Ok((metric_u64(&fetch_metrics(active_addr)?, "shards_dispatched") >= 1).then_some(()))
        })?;
        active.kill();
    }

    // Poll the job to done through whatever coordinator answers.
    // Before promotion a standby 307s to the (dead or fenced) active
    // and a promoted standby may briefly answer 404 between taking
    // leadership and finishing its journal replay — both retry.
    let mut candidates = vec![active_addr];
    candidates.extend(&standby_addrs);
    let path = format!("/jobs/{id}");
    let msg = "sweep never finished across the failover";
    let rows = wait_for(
        DRILL_DEADLINE,
        Duration::from_millis(50),
        msg,
        || match failover_request(&candidates, "GET", &path, b"") {
            Some((200, body)) => {
                let poll: Value =
                    serde_json::from_str(&body).map_err(|e| format!("bad poll: {e}: {body}"))?;
                let flag = |key| poll.get(key).and_then(Value::as_bool) == Some(true);
                if flag("done") || flag("failed") {
                    job_rows(&body)
                        .map(Some)
                        .map_err(|e| format!("across the failover: {e}"))
                } else {
                    Ok(None)
                }
            }
            Some((404, _)) | None => Ok(None),
            Some((other, body)) => Err(format!("poll answered {other}: {body}")),
        },
    )?;
    let wall = started.elapsed().as_secs_f64();

    // The promoted coordinator: whichever standby now claims the
    // active role (the fence drill's zombie also said "active" until
    // its demotion, so only standbys are consulted).
    let promoted = wait_for(
        Duration::from_secs(30),
        Duration::from_millis(50),
        "no standby ever promoted itself",
        || {
            Ok(standby_addrs.iter().copied().find(|&addr| {
                matches!(
                    client::request_json(addr, "GET", "/healthz", ""),
                    Ok((200, body)) if body.contains("\"role\": \"active\"")
                )
            }))
        },
    )?;

    if sc.fault == Fault::FenceCoordinator {
        // The zombie must have been fenced at the worker boundary and
        // demoted itself on the first 409.
        let msg = "the zombie coordinator was never fenced and demoted";
        wait_for(
            Duration::from_secs(30),
            Duration::from_millis(50),
            msg,
            || {
                let metrics = fetch_metrics(active_addr)?;
                let still_leader = metrics.get("leader").and_then(Value::as_bool) == Some(true);
                Ok((metric_u64(&metrics, "fenced_dispatches") >= 1 && !still_leader).then_some(()))
            },
        )?;
        let bumped = worker_addrs
            .iter()
            .any(|&w| fetch_metrics(w).is_ok_and(|m| metric_u64(&m, "epoch_seen") >= 2));
        if !bumped {
            return Err("no worker ever saw the promoted epoch".into());
        }
    }

    let metrics = fetch_metrics(promoted)?;
    let epoch = metric_u64(&metrics, "epoch");
    if epoch < 2 {
        return Err(format!(
            "promoted coordinator claims epoch {epoch}, wanted >= 2"
        ));
    }
    if metrics.get("leader").and_then(Value::as_bool) != Some(true) {
        return Err(format!(
            "promoted coordinator does not report leadership: {metrics:?}"
        ));
    }
    if metric_u64(&metrics, "audit_mismatches") != 0 {
        return Err(format!("audit mismatches across the failover: {metrics:?}"));
    }

    // The journaled job's rows must match a lone worker running the
    // same sweep — failover may cost recomputation, never correctness.
    let (sweep, _) = sweep_request(cfg, sc.tws, &[seed(42)]);
    match_lone_worker(worker_addrs[0], &sweep, &rows, false)?;

    // Fresh sync sweeps through the promoted coordinator: byte-
    // identical to a lone worker in JSON, and the binary codec must
    // decode to those exact bytes (the cross-codec contract survives
    // promotion).
    let (small_json, small_value) = sweep_request(cfg, &[1, 2, 4, 8], &[seed(42)]);
    let (status, via_cluster) = client::request_json(promoted, "POST", "/sweep", &small_json)
        .map_err(|e| format!("promoted /sweep: {e}"))?;
    if status != 200 {
        return Err(format!("promoted /sweep answered {status}: {via_cluster}"));
    }
    match_lone_worker(worker_addrs[1], &small_json, &via_cluster, true)?;
    let bin_resp = client::request_typed(
        promoted,
        "POST",
        "/sweep",
        Some(wire::CONTENT_TYPE),
        &wire::frame(wire::KIND_SWEEP, &small_value),
    )
    .map_err(|e| format!("promoted /sweep (bin): {e}"))?;
    if bin_resp.status != 200 {
        return Err(format!(
            "promoted /sweep (bin) answered {}: {}",
            bin_resp.status,
            String::from_utf8_lossy(&bin_resp.body)
        ));
    }
    check_bit_identical(
        "/sweep",
        wire::KIND_ROWS,
        &bin_resp.body,
        via_cluster.as_bytes(),
    )?;
    Ok(format!(
        "{{\"label\": \"{}\", \"mode\": \"{}\", \"workers\": {}, \"standbys\": {}, \
         \"epoch\": {epoch}, \"shards\": {}, \"wall_s\": {wall:.3}, \"bit_identical\": true}}",
        cfg.label,
        sc.name,
        sc.workers,
        sc.standbys,
        sc.tws.len(),
    ))
}

/// `soak`: the resource-governance soak. Boots a worker strangled by
/// tiny budgets (64 KiB memory cache, 256 KiB disk cache, a 4-deep
/// queue, 1-second job retention) and drives bursty unique-seed
/// traffic at it for `sc.soak_secs` seconds, so the working set dwarfs
/// every budget. The run fails unless governance demonstrably engaged
/// without breaking anything:
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
fn run_soak(cfg: &LoadConfig, sc: &Scenario) -> Result<String, String> {
    const MEM_BUDGET: u64 = 64 * 1024;
    const DISK_BUDGET: u64 = 256 * 1024;
    const JOB_DIR_BUDGET: u64 = 64 * 1024;
    const SOAK_THREADS: usize = 8;
    let bin = clusterd_binary()?;
    let scratch = Scratch::new("soak");
    let cache_dir = scratch.0.join("cache");
    let job_dir = scratch.0.join("jobs");
    let envs: Vec<(&str, String)> = vec![
        ("PTB_CACHE", "disk".into()),
        ("PTB_CACHE_DIR", cache_dir.display().to_string()),
        ("PTB_CACHE_MEM_BYTES", MEM_BUDGET.to_string()),
        ("PTB_CACHE_DISK_BYTES", DISK_BUDGET.to_string()),
        ("PTB_QUEUE_CAP", "4".into()),
        ("PTB_JOB_RETAIN", "1".into()),
        ("PTB_JOB_DIR_BYTES", JOB_DIR_BUDGET.to_string()),
    ];
    let daemon = Daemon::worker(&bin, Some(job_dir.as_path()), &envs)?;
    let addr = daemon.addr();

    // A background job up front: it must finish now and EXPIRE later.
    let job_id = submit(addr, cfg, sc.tws, &[seed(7)])?;
    finished_rows(addr, job_id).map_err(|e| format!("background job: {e}"))?;

    // The soak itself: SOAK_THREADS closed loops of unique-seed
    // /simulate (every 16th a sync /sweep), far outrunning a 4-deep
    // queue with 2 workers, so admission control must engage.
    let ok = AtomicU64::new(0);
    let sheds = AtomicU64::new(0);
    let hard_error: Mutex<Option<String>> = Mutex::new(None);
    let deadline = Instant::now() + Duration::from_secs(sc.soak_secs);
    std::thread::scope(|s| {
        for worker in 0..SOAK_THREADS {
            let ok = &ok;
            let sheds = &sheds;
            let hard_error = &hard_error;
            s.spawn(move || {
                let mut i: u64 = 0;
                while Instant::now() < deadline {
                    i += 1;
                    let unique = 1_000_000 * (worker as u64 + 1) + i;
                    let (path, body) = if i.is_multiple_of(16) {
                        let (body, _) = sweep_request(cfg, &[1, cfg.tw], &[seed(unique)]);
                        ("/sweep", body)
                    } else {
                        ("/simulate", simulate_request(cfg, unique).0)
                    };
                    let failure = match client::request_json(addr, "POST", path, &body) {
                        Ok((200, _)) => {
                            ok.fetch_add(1, Ordering::Relaxed);
                            continue;
                        }
                        Ok((503, _)) => {
                            // The one tolerated failure: governance
                            // shedding load. Back off briefly.
                            sheds.fetch_add(1, Ordering::Relaxed);
                            std::thread::sleep(Duration::from_millis(20));
                            continue;
                        }
                        Ok((status, body)) => format!("{path} answered {status}: {body}"),
                        Err(e) => format!("{path} transport error: {e}"),
                    };
                    hard_error
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner)
                        .get_or_insert(failure);
                    return;
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
    let metrics = fetch_metrics(addr)?;
    if metric_u64(&metrics, "audit_mismatches") != 0 {
        return Err(format!("audit mismatches under soak: {metrics:?}"));
    }
    if metric_u64(&metrics, "cache_evictions") == 0 {
        return Err("budgets never forced a cache eviction".into());
    }
    let mut shed_count = metric_u64(&metrics, "admission_shed");
    if shed_count == 0 {
        // Bursts may have all landed in queue gaps; force the issue
        // with a few more concurrent waves before giving up.
        for _ in 0..30 {
            std::thread::scope(|s| {
                for worker in 0..SOAK_THREADS {
                    s.spawn(move || {
                        let (body, _) = simulate_request(cfg, 77_000_000 + worker as u64);
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
    let dir_total = |dir: &Path| -> u64 {
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
    let poll_path = format!("/jobs/{job_id}");
    let msg = format!("job {job_id} never expired");
    wait_for(
        Duration::from_secs(30),
        Duration::from_millis(200),
        &msg,
        || {
            let (status, body) = client::request_json(addr, "GET", &poll_path, "")
                .map_err(|e| format!("expiry poll: {e}"))?;
            Ok((status == 404 && body.contains("\"gone\": true")).then_some(()))
        },
    )?;
    let journal_file = job_dir.join(format!("job-{job_id:016x}.ptbj"));
    if journal_file.exists() {
        return Err(format!(
            "expired job's journal survived GC: {}",
            journal_file.display()
        ));
    }

    // Finally: budgets may cost recomputation, never correctness. The
    // same sweep on an unbudgeted daemon must be byte-identical.
    let pristine = Daemon::worker(&bin, None, &[])?;
    let (sweep, _) = sweep_request(cfg, &[1, cfg.tw], &[seed(42)]);
    let soaked = wait_for(
        DRILL_DEADLINE,
        Duration::from_millis(50),
        "soaked /sweep shed",
        || {
            let (status, body) = client::request_json(addr, "POST", "/sweep", &sweep)
                .map_err(|e| format!("soaked /sweep: {e}"))?;
            match status {
                200 => Ok(Some(body)),
                503 => Ok(None),
                _ => Err(format!("soaked /sweep answered {status}: {body}")),
            }
        },
    )?;
    match_lone_worker(pristine.addr(), &sweep, &soaked, true)
        .map_err(|e| format!("budgeted sweep vs an unbudgeted daemon: {e}"))?;

    let evictions = metric_u64(&fetch_metrics(addr)?, "cache_evictions");
    Ok(format!(
        "{{\"label\": \"{}\", \"mode\": \"{}\", \"secs\": {}, \"ok\": {ok}, \
         \"sheds_seen\": {}, \"admission_shed\": {shed_count}, \
         \"cache_evictions\": {evictions}, \"disk_bytes\": {cache_total}, \
         \"journal_bytes\": {job_total}, \"bit_identical\": true}}",
        cfg.label,
        sc.name,
        sc.soak_secs,
        sheds.load(Ordering::Relaxed),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<LoadConfig, (i32, String)> {
        parse_args(args.iter().map(|s| (*s).to_string()))
    }

    #[test]
    fn every_ci_scenario_is_in_the_table_and_every_row_runs_in_ci() {
        let ci =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../scripts/ci.sh"))
                .expect("read scripts/ci.sh");
        let in_ci: Vec<&str> = ci
            .split("--scenario ")
            .skip(1)
            .filter_map(|rest| rest.split_whitespace().next())
            .collect();
        for name in &in_ci {
            assert!(
                parse(&["--scenario", name]).is_ok(),
                "ci.sh runs unknown {name:?}"
            );
        }
        for sc in SCENARIOS {
            assert!(in_ci.contains(&sc.name), "ci.sh never runs {:?}", sc.name);
        }
    }

    #[test]
    fn unknown_scenarios_exit_2_listing_the_table_and_help_prints_it() {
        let Err((code, text)) = parse(&["--scenario", "no-such-drill"]) else {
            panic!("an unknown scenario must not parse");
        };
        assert_eq!(code, 2);
        assert!(SCENARIOS.iter().all(|sc| text.contains(sc.name)), "{text}");
        let Err((code, help)) = parse(&["--help"]) else {
            panic!("--help must exit");
        };
        assert_eq!(code, 0);
        for sc in SCENARIOS {
            let row = format!("{:<15} {}", sc.name, sc.about);
            assert!(help.contains(&row), "--help omits {:?}: {help}", sc.name);
        }
    }

    #[test]
    fn the_drill_flags_are_gone() {
        let gone = "--cluster --cluster-kill --cluster-saturate --standby --coordinator-kill \
                    --coordinator-fence --soak --submit-tws --poll-job";
        for flag in gone.split_whitespace() {
            assert_eq!(
                parse(&[flag]).err().map(|(code, _)| code),
                Some(2),
                "{flag}"
            );
        }
    }
}
