//! The `ptb-clusterd` daemon entry point.
//!
//! ```text
//! ptb-clusterd [--addr HOST:PORT] [--workers HOST:PORT,HOST:PORT,...]
//!              [--job-dir PATH|off] [--deadline-ms N] [--port-file PATH]
//!              [--probe-ms N] [--probe-timeout-ms N] [--probe-retries N]
//!              [--dispatch-timeout-ms N] [--fail-threshold N]
//!              [--lease-ms N] [--standby --peer HOST:PORT]
//! ptb-clusterd --spawn-worker [--addr HOST:PORT] [--job-dir PATH|off]
//!              [--port-file PATH]
//! ```
//!
//! Flags override the `PTB_ADDR` / `PTB_CLUSTER_WORKERS` /
//! `PTB_JOB_DIR` / `PTB_DEADLINE_MS` / `PTB_PROBE_MS` /
//! `PTB_PROBE_TIMEOUT_MS` / `PTB_PROBE_RETRIES` /
//! `PTB_DISPATCH_TIMEOUT_MS` / `PTB_FAIL_THRESHOLD` environment knobs
//! (see `ClusterConfig::from_env`). `--port-file` writes the bound port
//! (one decimal line) after the listener is up — bind port 0 and read
//! the file to get an ephemeral port race-free, which is how
//! `ptb_serve::launch` spawns fleets for `ptb-load --scenario`. The
//! process exits when a client POSTs `/shutdown`.
//!
//! `--standby` boots the daemon as a *hot standby*: it tails the peer
//! coordinator named by `--peer` over `GET /journal/tail`, mirrors its
//! job journals into `--job-dir` (required), and promotes itself to
//! active — at a higher epoch — when the peer misses its lease
//! (`--lease-ms`, default `PTB_LEASE_MS` or 1500). Until promotion it
//! answers sweeps with `307` redirects to the peer.
//!
//! `--spawn-worker` runs a plain `ptb-serve` worker instead of a
//! coordinator. It exists so cluster tests and CI have one binary that
//! can play either role: the chaos tests spawn killable worker
//! *processes* through `CARGO_BIN_EXE_ptb-clusterd` without needing the
//! `ptb-serve` binary's build path.

use ptb_cluster::{ClusterConfig, Coordinator};
use ptb_serve::{Server, ServerConfig};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--spawn-worker") {
        run_worker(&args[1..]);
        return;
    }

    let mut cfg = ClusterConfig::from_env();
    let mut port_file: Option<String> = None;

    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("error: {flag} requires a value");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--addr" => cfg.addr = value("--addr"),
            "--workers" => {
                cfg.workers = value("--workers")
                    .split(',')
                    .map(str::trim)
                    .filter(|s| !s.is_empty())
                    .map(String::from)
                    .collect();
            }
            "--job-dir" => {
                cfg.job_dir = match value("--job-dir").as_str() {
                    "" | "off" | "none" => None,
                    dir => Some(dir.into()),
                };
            }
            "--deadline-ms" => {
                let ms = parse_or_die(&value("--deadline-ms"), "--deadline-ms");
                cfg.deadline_ms = (ms > 0).then_some(ms);
            }
            "--probe-ms" => {
                cfg.probe_interval_ms = parse_or_die(&value("--probe-ms"), "--probe-ms").max(1)
            }
            "--probe-timeout-ms" => {
                cfg.probe_timeout_ms =
                    parse_or_die(&value("--probe-timeout-ms"), "--probe-timeout-ms").max(1);
            }
            "--probe-retries" => {
                cfg.probe_retries =
                    parse_or_die(&value("--probe-retries"), "--probe-retries").max(1) as u32;
            }
            "--dispatch-timeout-ms" => {
                cfg.dispatch_timeout_ms =
                    parse_or_die(&value("--dispatch-timeout-ms"), "--dispatch-timeout-ms").max(1);
            }
            "--fail-threshold" => {
                cfg.fail_threshold =
                    parse_or_die(&value("--fail-threshold"), "--fail-threshold").max(1) as u32;
            }
            "--lease-ms" => {
                cfg.lease_ms = parse_or_die(&value("--lease-ms"), "--lease-ms").max(1);
            }
            "--standby" => cfg.standby = true,
            "--peer" => cfg.peer = Some(value("--peer")),
            "--port-file" => port_file = Some(value("--port-file")),
            "--help" | "-h" => {
                println!(
                    "usage: ptb-clusterd [--addr HOST:PORT] [--workers LIST] \
                     [--job-dir PATH|off] [--deadline-ms N] [--port-file PATH] \
                     [--probe-ms N] [--probe-timeout-ms N] [--probe-retries N] \
                     [--dispatch-timeout-ms N] [--fail-threshold N] \
                     [--lease-ms N] [--standby --peer HOST:PORT]\n\
                     \x20      ptb-clusterd --spawn-worker [--addr HOST:PORT] \
                     [--job-dir PATH|off] [--port-file PATH]"
                );
                return;
            }
            other => {
                eprintln!("error: unknown flag {other:?} (try --help)");
                std::process::exit(2);
            }
        }
    }

    let coordinator = Coordinator::start(&cfg).unwrap_or_else(|e| {
        eprintln!("error: cannot start coordinator on {}: {e}", cfg.addr);
        std::process::exit(1);
    });
    let addr = coordinator.addr();
    eprintln!(
        "ptb-clusterd ({}) on http://{addr} fronting {} worker(s) \
         (POST /sweep | POST /simulate | GET /jobs/{{id}} | GET /cluster | \
         GET /metrics | GET /journal/tail | POST /shutdown)",
        if cfg.standby { "standby" } else { "active" },
        cfg.workers.len()
    );
    write_port_file(port_file.as_deref(), addr.port());
    coordinator.join();
}

/// `--spawn-worker`: a plain `ptb-serve` worker under the cluster
/// binary's roof.
fn run_worker(rest: &[String]) {
    let mut cfg = ServerConfig::from_env();
    let mut port_file: Option<String> = None;

    let mut args = rest.iter().cloned();
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("error: {flag} requires a value");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--addr" => cfg.addr = value("--addr"),
            "--job-dir" => {
                cfg.job_dir = match value("--job-dir").as_str() {
                    "" | "off" | "none" => None,
                    dir => Some(dir.into()),
                };
            }
            "--workers" => {
                cfg.workers = parse_or_die(&value("--workers"), "--workers").max(1) as usize;
            }
            "--port-file" => port_file = Some(value("--port-file")),
            other => {
                eprintln!("error: unknown --spawn-worker flag {other:?}");
                std::process::exit(2);
            }
        }
    }

    let server = Server::start(&cfg).unwrap_or_else(|e| {
        eprintln!("error: cannot start worker on {}: {e}", cfg.addr);
        std::process::exit(1);
    });
    let addr = server.addr();
    eprintln!("ptb-clusterd worker on http://{addr}");
    write_port_file(port_file.as_deref(), addr.port());
    server.join();
}

fn write_port_file(path: Option<&str>, port: u16) {
    let Some(path) = path else { return };
    if let Err(e) = std::fs::write(path, format!("{port}\n")) {
        eprintln!("error: cannot write port file {path:?}: {e}");
        std::process::exit(1);
    }
}

fn parse_or_die(value: &str, flag: &str) -> u64 {
    value.parse().unwrap_or_else(|_| {
        eprintln!("error: {flag} wants a number, got {value:?}");
        std::process::exit(2);
    })
}
