//! The one place daemons are spawned as child processes: `ptb-load`'s
//! scenarios and the cluster chaos tests boot workers and coordinators
//! through [`Daemon`], which holds the only copy of each role's
//! `ptb-clusterd` argument list and of the `--port-file` handshake.
//!
//! Every daemon binds `127.0.0.1:0` and reports its ephemeral port by
//! writing one decimal line to a port file once its listener is up.
//! [`Daemon::spawn`] waits for that line, fails at once (with the exit
//! status) if the child dies first, and kills and reaps the child on
//! every error path; a [`Daemon`] that is dropped is killed and reaped
//! too, so no failure path leaks a process.

use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use crate::client;

/// Coordinator health-probe interval: short, so drills notice a dead
/// worker within a few hundred milliseconds.
const PROBE_MS: u64 = 100;
/// Coordinator health-probe timeout.
const PROBE_TIMEOUT_MS: u64 = 500;
/// Consecutive failed probes before a coordinator declares a worker
/// dead.
const FAIL_THRESHOLD: u32 = 1;
/// How long a daemon may take to write its port file.
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(30);

/// A spawned daemon process and the address it bound. Dropping it
/// SIGKILLs and reaps the process.
pub struct Daemon {
    child: Child,
    addr: SocketAddr,
}

impl Daemon {
    /// A `ptb-clusterd --spawn-worker` process (a plain `ptb-serve`
    /// worker with two pool threads), journaling into `job_dir` or not
    /// at all. `envs` carries failpoints and budget knobs.
    pub fn worker(
        bin: &Path,
        job_dir: Option<&Path>,
        envs: &[(&str, String)],
    ) -> Result<Daemon, String> {
        let args = vec![
            "--spawn-worker".into(),
            "--addr".into(),
            "127.0.0.1:0".into(),
            "--job-dir".into(),
            dir_arg(job_dir),
            "--workers".into(),
            "2".into(),
        ];
        Daemon::spawn(bin, &args, envs)
    }

    /// A `ptb-clusterd` coordinator fronting `workers`, probing them
    /// every 100 ms and declaring one dead after a single failed probe
    /// (the drills want fast detection). `lease_ms` sets
    /// the HA lease; `standby_of` boots a hot standby tailing that
    /// active peer (a standby needs a `job_dir` to mirror into).
    pub fn coordinator(
        bin: &Path,
        workers: &[SocketAddr],
        job_dir: Option<&Path>,
        lease_ms: Option<u64>,
        standby_of: Option<SocketAddr>,
        envs: &[(&str, String)],
    ) -> Result<Daemon, String> {
        let list = workers
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join(",");
        let mut args = vec![
            "--addr".into(),
            "127.0.0.1:0".into(),
            "--workers".into(),
            list,
            "--job-dir".into(),
            dir_arg(job_dir),
            "--probe-ms".into(),
            PROBE_MS.to_string(),
            "--probe-timeout-ms".into(),
            PROBE_TIMEOUT_MS.to_string(),
            "--fail-threshold".into(),
            FAIL_THRESHOLD.to_string(),
        ];
        if let Some(peer) = standby_of {
            args.extend(["--standby".into(), "--peer".into(), peer.to_string()]);
        }
        if let Some(ms) = lease_ms {
            args.extend(["--lease-ms".into(), ms.to_string()]);
        }
        Daemon::spawn(bin, &args, envs)
    }

    /// Spawns `bin args --port-file PATH` and waits for the port
    /// handshake. Errors — the child exiting first, a 30 s timeout —
    /// leave no process behind.
    pub fn spawn(bin: &Path, args: &[String], envs: &[(&str, String)]) -> Result<Daemon, String> {
        static UNIQ: AtomicUsize = AtomicUsize::new(0);
        let port_file = std::env::temp_dir().join(format!(
            "ptb-daemon-{}-{}.port",
            std::process::id(),
            UNIQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_file(&port_file);
        let child = Command::new(bin)
            .args(args)
            .arg("--port-file")
            .arg(&port_file)
            .envs(envs.iter().cloned())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", bin.display()))?;
        // From here on, dropping `daemon` on an error kills and reaps.
        let mut daemon = Daemon {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        let deadline = Instant::now() + HANDSHAKE_TIMEOUT;
        let port = loop {
            // The daemon writes "PORT\n"; the newline proves the write
            // is complete, not a torn prefix of the number.
            let text = std::fs::read_to_string(&port_file).unwrap_or_default();
            if let Some(Ok(port)) = text.strip_suffix('\n').map(str::parse::<u16>) {
                break Ok(port);
            }
            match daemon.child.try_wait() {
                Ok(Some(status)) => {
                    break Err(format!(
                        "{} {args:?} exited ({status}) before writing its port file",
                        bin.display()
                    ))
                }
                Err(e) => break Err(format!("cannot poll {}: {e}", bin.display())),
                Ok(None) => {}
            }
            if Instant::now() >= deadline {
                break Err(format!(
                    "{} {args:?} never wrote its port file",
                    bin.display()
                ));
            }
            std::thread::sleep(Duration::from_millis(20));
        };
        let _ = std::fs::remove_file(&port_file);
        daemon.addr.set_port(port?);
        Ok(daemon)
    }

    /// The address the daemon bound.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// SIGKILLs the daemon and reaps it (`kill -9` in a drill).
    pub fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }

    /// The clean stop: POSTs `/shutdown`, then demands the process
    /// exit successfully within 30 s.
    pub fn shutdown(mut self) -> Result<(), String> {
        match client::request_json(self.addr, "POST", "/shutdown", "") {
            Ok((200, _)) => {}
            Ok((status, body)) => return Err(format!("/shutdown answered {status}: {body}")),
            Err(e) => return Err(format!("/shutdown: {e}")),
        }
        let deadline = Instant::now() + HANDSHAKE_TIMEOUT;
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("daemon exited ({status}) on /shutdown")),
                Err(e) => return Err(format!("cannot poll the daemon: {e}")),
                Ok(None) if Instant::now() >= deadline => {
                    return Err("daemon never exited after /shutdown".into())
                }
                Ok(None) => std::thread::sleep(Duration::from_millis(20)),
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.kill();
    }
}

/// The `--job-dir` value: a path, or `off` for no journaling.
fn dir_arg(job_dir: Option<&Path>) -> String {
    job_dir.map_or_else(|| "off".into(), |dir| dir.display().to_string())
}
