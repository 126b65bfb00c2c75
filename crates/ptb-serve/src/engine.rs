//! The codec-independent job engine: everything between "a validated
//! request arrived" and "here is its outcome".
//!
//! The transport layer ([`crate::server`]) owns sockets, HTTP framing,
//! keep-alive, and codec negotiation; this module owns the shared
//! simulation state — the [`ActivityCache`], the job registry, the
//! journal, metrics, and deadlines — and executes requests against it.
//! An [`Engine`] method returns an [`Outcome`], a typed result that
//! the transport renders as a JSON body or as a `PTBW1` frame
//! ([`crate::wire`]), which is what makes responses bit-identical
//! across codecs by construction — there is exactly one execution
//! path, and the codecs differ only in how its result is written down.
//! (Memoized reports additionally cache the transport's rendering per
//! codec — see [`MemoReport`] — but the bytes are still produced by the
//! transport's own closures, exactly once.) A future cluster RPC
//! becomes a third renderer over this same API, not a rewrite.
//!
//! Work-item fan-out stays transport-side (the bounded work queue lives
//! with the worker pool), so [`Engine::simulate`] and [`Engine::sweep`]
//! take an `offer` callback: the engine decides *that* a job's items
//! should be offered, the transport decides *where* they go.

use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::{Duration, Instant};

use ptb_accel::audit::AuditLevel;
use ptb_accel::report::NetworkReport;
use ptb_bench::{ActivityCache, RunOptions, SweepRow};
use serde::{Serialize, Value};

use crate::api;
use crate::jobs::{JobRegistry, SweepJob};
use crate::journal::JobJournal;
use crate::metrics::Metrics;

/// `Retry-After` seconds suggested on backpressure responses. The
/// service's work items are sub-second in quick mode and a few seconds
/// at full fidelity, so "come back in a second" is honest guidance.
pub const RETRY_AFTER_SECS: u64 = 1;

/// Bound on memoized `/simulate` reports. A report is a pure function
/// of its request, so identical repeats (dashboards polling one
/// configuration, warm load tests) can skip the simulation entirely;
/// at the cap the memo is simply cleared — the entries are
/// recomputable, so eviction needs no bookkeeping.
pub const REPORT_MEMO_CAP: usize = 64;

/// A `/simulate` report plus its rendered response body in each codec,
/// produced once and shared by every request that hits the same memo
/// entry. Rendering is deterministic (same report, same bytes), so
/// caching it preserves the cross-codec bit-identity guarantee while
/// letting a warm repeat skip re-serializing a multi-kilobyte report.
/// The engine stays codec-neutral: it only holds the cells; the
/// transport supplies the render closures.
pub struct MemoReport {
    /// The structured simulation report.
    pub report: NetworkReport,
    json: OnceLock<Option<String>>,
    ptbw: OnceLock<Vec<u8>>,
}

impl MemoReport {
    /// Wraps a freshly computed report with empty render cells.
    pub fn new(report: NetworkReport) -> Self {
        MemoReport {
            report,
            json: OnceLock::new(),
            ptbw: OnceLock::new(),
        }
    }

    /// The JSON response body, rendered by `render` on first use and
    /// cached (`None` when serialization failed — also cached, the
    /// report won't serialize differently next time).
    pub fn json_body(&self, render: impl FnOnce(&NetworkReport) -> Option<String>) -> Option<&str> {
        self.json.get_or_init(|| render(&self.report)).as_deref()
    }

    /// The binary (`PTBW1`) response frame, rendered by `render` on
    /// first use and cached.
    pub fn ptbw_body(&self, render: impl FnOnce(&NetworkReport) -> Vec<u8>) -> &[u8] {
        self.ptbw.get_or_init(|| render(&self.report))
    }
}

/// The shared simulation state and the request-execution logic over it.
/// One per server; every worker and the acceptor share it via `Arc`.
pub struct Engine {
    /// The cross-request activity cache (coalesces identical in-flight
    /// generations).
    pub cache: ActivityCache,
    /// Service metrics, snapshotted by `GET /metrics`.
    pub metrics: Metrics,
    /// Registry of background sweep jobs.
    pub jobs: JobRegistry,
    /// Durable job journal, when a job directory is configured.
    pub journal: Option<Arc<JobJournal>>,
    /// Server-default request deadline, measured from enqueue.
    pub deadline: Option<Duration>,
    /// Default audit level for requests that don't set `verify`.
    pub verify: AuditLevel,
    /// Admission watermark (`PTB_MEM_WATERMARK_BYTES`): when the
    /// cache's tracked resident bytes exceed it, new heavy work is shed
    /// with `503` + `Retry-After` instead of letting memory pressure
    /// kill the process. `None` disables the check.
    pub mem_watermark: Option<u64>,
    /// Retention window for terminal jobs and their journal/quarantine
    /// files (`PTB_JOB_RETAIN`).
    pub job_retain: Duration,
    /// Byte budget for the journal directory (`PTB_JOB_DIR_BYTES`);
    /// `None` means unbounded.
    pub job_dir_bytes: Option<u64>,
    /// Completed `/simulate` reports keyed by their full request
    /// identity (resolved spec, policy, TW, fidelity, seed). Only
    /// unaudited runs hit it: an audited request must actually re-run
    /// under audit, never be answered from memory. Serving a memoized
    /// report is bit-identical to re-running by the determinism
    /// guarantee (`DESIGN.md` §10); each entry also caches its rendered
    /// body per codec ([`MemoReport`]), so a warm repeat skips both the
    /// simulation and the serialization.
    pub report_memo: Mutex<HashMap<String, Arc<MemoReport>>>,
}

/// The result of executing a request — pure data, rendered to bytes by
/// whichever codec the connection negotiated.
pub enum Outcome {
    /// A completed `/simulate` run (shared with the report memo, so a
    /// hit clones a pointer, not the report, and reuses the cached
    /// rendering).
    Report(Arc<MemoReport>),
    /// A completed synchronous `/sweep`.
    Rows(Vec<SweepRow>),
    /// A background `/sweep` was accepted (renders as `202`).
    Accepted {
        /// The job id to poll at `GET /jobs/{id}`.
        id: u64,
        /// Number of TW shards the job will run.
        total: usize,
    },
    /// The request failed.
    Error {
        /// HTTP-equivalent status code.
        status: u16,
        /// Human-readable detail.
        detail: String,
        /// Backpressure guidance in seconds (`503`s).
        retry_after: Option<u64>,
        /// Audit findings, when a verified run diverged.
        audit: Option<Value>,
    },
}

impl Outcome {
    /// The HTTP status this outcome renders as.
    pub fn status(&self) -> u16 {
        match self {
            Outcome::Report(_) | Outcome::Rows(_) => 200,
            Outcome::Accepted { .. } => 202,
            Outcome::Error { status, .. } => *status,
        }
    }

    /// A `400 Bad Request` (body failed to decode in either codec).
    pub fn bad_request(detail: impl Into<String>) -> Outcome {
        Outcome::Error {
            status: 400,
            detail: detail.into(),
            retry_after: None,
            audit: None,
        }
    }

    /// A `422` from request validation. Public so the cluster
    /// coordinator's validation errors render byte-identically.
    pub fn invalid(e: api::ValidationError) -> Outcome {
        Outcome::Error {
            status: 422,
            detail: e.0,
            retry_after: None,
            audit: None,
        }
    }

    /// A `503` + `Retry-After` backpressure outcome.
    pub fn unavailable(detail: impl Into<String>) -> Outcome {
        Outcome::Error {
            status: 503,
            detail: detail.into(),
            retry_after: Some(RETRY_AFTER_SECS),
            audit: None,
        }
    }
}

impl Engine {
    /// Executes a validated-on-entry `POST /simulate` request: resolve,
    /// validate, run (audited when requested), and either hand back the
    /// report or — on any audit finding — the findings instead of the
    /// untrustworthy numbers. The run is a one-point job
    /// ([`SweepJob::simulate`]): `offer` hands it to the pool as for a
    /// sweep, and this thread drains it too.
    pub fn simulate(
        &self,
        req: &api::SimulateRequest,
        offer: &dyn Fn(&Arc<SweepJob>) -> usize,
    ) -> Outcome {
        let verify = match api::validate_verify(req.verify.as_deref(), self.verify) {
            Ok(v) => v,
            Err(e) => return Outcome::invalid(e),
        };
        let opts = run_options(req.quick, req.seed, verify);

        // Identical unaudited requests are answered from the report
        // memo: a report is a pure function of this key, so the served
        // bytes are bit-identical to a fresh run. Audited requests
        // always run — the caller asked for the work to be *checked*,
        // not for an answer. The key is built from the raw request
        // identity (no spec resolution or `Value` tree on the warm
        // path); NUL separators can't collide because built-in network
        // names contain no NULs, inline specs get a distinct prefix,
        // and only requests that validated and ran cleanly are stored.
        let memo_key = (!verify.is_on()).then(|| {
            let network = match &req.network {
                api::NetworkRef::Name(name) => format!("n\0{name}"),
                api::NetworkRef::Inline(spec) => format!(
                    "i\0{}",
                    serde_json::to_string(spec).expect("key serialization")
                ),
            };
            format!(
                "{network}\0{}\0{}\0{}\0{}",
                req.policy.0.label(),
                req.tw,
                req.quick.unwrap_or(false),
                opts.seed
            )
        });
        if let Some(key) = &memo_key {
            let memo = self
                .report_memo
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            if let Some(report) = memo.get(key).cloned() {
                self.metrics
                    .report_memo_hits
                    .fetch_add(1, Ordering::Relaxed);
                return Outcome::Report(report);
            }
        }

        let spec = match api::resolve_network(&req.network) {
            Ok(s) => s,
            Err(e) => return Outcome::invalid(e),
        };
        if let Err(e) = api::validate_tw(req.tw) {
            return Outcome::invalid(e);
        }
        let job = Arc::new(SweepJob::simulate(spec, req.policy.0, req.tw, opts));
        offer(&job);
        job.drain_until(&self.cache, None, Some(&self.metrics));
        job.wait();
        if let Some(reason) = job.failed() {
            let audit = job.audit();
            // A report that diverged from the reference model is never
            // served: the findings are, in its place.
            let (detail, audit) = if audit.is_clean() {
                (format!("simulation failed: {reason}"), None)
            } else {
                (
                    format!("simulation failed audit at level {}", audit.level.label()),
                    Some(audit.to_value()),
                )
            };
            return Outcome::Error {
                status: 500,
                detail,
                retry_after: None,
                audit,
            };
        }
        let report = Arc::new(MemoReport::new(
            job.report()
                .expect("a finished simulate job keeps its report"),
        ));
        if let Some(key) = memo_key {
            let mut memo = self
                .report_memo
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            if memo.len() >= REPORT_MEMO_CAP {
                memo.clear();
            }
            memo.insert(key, Arc::clone(&report));
        }
        Outcome::Report(report)
    }

    /// Executes a `POST /sweep` request. `offer` hands a job with
    /// unclaimed items to the transport's worker pool and returns how
    /// many helpers were enqueued; the engine always guarantees progress
    /// itself when the pool can't help.
    pub fn sweep(
        &self,
        req: &api::SweepRequest,
        enqueued: Instant,
        offer: &dyn Fn(&Arc<SweepJob>) -> usize,
    ) -> Outcome {
        let spec = match api::resolve_network(&req.network) {
            Ok(s) => s,
            Err(e) => return Outcome::invalid(e),
        };
        if let Err(e) = api::validate_tws(&req.tws) {
            return Outcome::invalid(e);
        }
        let verify = match api::validate_verify(req.verify.as_deref(), self.verify) {
            Ok(v) => v,
            Err(e) => return Outcome::invalid(e),
        };
        let quick = req.quick.unwrap_or(false);
        let opts = run_options(req.quick, req.seed, verify);
        let seed = opts.seed;
        let deadline = self.effective_deadline(req.deadline_ms, enqueued);

        if req.background.unwrap_or(false) {
            // Durable path: reserve the id first so the journal file
            // name is final, register, then journal the submission
            // *before* offering items — a shard record must never
            // precede its submit record.
            let id = self.jobs.reserve_id();
            let mut job = SweepJob::new(spec, req.policy.0, req.tws.clone(), opts);
            if let Some(journal) = &self.journal {
                job = job.with_journal(Arc::clone(journal), id);
            }
            let job = Arc::new(job);
            if !self.jobs.insert(id, Arc::clone(&job)) {
                return Outcome::unavailable("job registry is full");
            }
            if let Some(journal) = &self.journal {
                journal.log_submit(id, &job.spec, job.policy, &job.tws, quick, seed, verify);
            }
            let offered = offer(&job);
            // Guarantee progress even if no helper could be offered
            // (full queue, or a single-worker pool): run the items here
            // before answering, trading response latency for liveness.
            if offered == 0 {
                job.drain_until(&self.cache, deadline, Some(&self.metrics));
            }
            return Outcome::Accepted {
                id,
                total: job.tws.len(),
            };
        }

        // Synchronous: this handler claims items alongside the pool,
        // then waits out any item still running on another worker.
        let job = Arc::new(SweepJob::new(spec, req.policy.0, req.tws.clone(), opts));
        offer(&job);
        job.drain_until(&self.cache, deadline, Some(&self.metrics));
        let terminal = match deadline {
            Some(d) => job.wait_until(d),
            None => {
                job.wait();
                true
            }
        };
        if !terminal {
            self.metrics
                .deadline_expired
                .fetch_add(1, Ordering::Relaxed);
            return Outcome::unavailable(format!(
                "deadline expired with {}/{} shards complete",
                job.completed(),
                job.tws.len()
            ));
        }
        if let Some(reason) = job.failed() {
            let audit = job.audit();
            return Outcome::Error {
                status: 500,
                detail: format!("sweep failed: {reason}"),
                retry_after: None,
                audit: (!audit.is_clean()).then(|| audit.to_value()),
            };
        }
        match job.rows() {
            Some(rows) => Outcome::Rows(rows),
            None => Outcome::Error {
                status: 500,
                detail: "sweep neither completed nor failed".into(),
                retry_after: None,
                audit: None,
            },
        }
    }

    /// Resolves a request's effective deadline: its own `deadline_ms`
    /// wins, else the server default; measured from enqueue.
    pub fn effective_deadline(
        &self,
        request_ms: Option<u64>,
        enqueued: Instant,
    ) -> Option<Instant> {
        request_ms
            .filter(|&ms| ms > 0)
            .map(Duration::from_millis)
            .or(self.deadline)
            .map(|d| enqueued + d)
    }

    /// Rebuilds the job registry from the journal at boot: completed
    /// jobs reload their rows; unfinished ones resume with only the
    /// unjournaled points claimable. `offer` enqueues a resumed job on
    /// the transport's pool and reports whether it fit.
    pub fn replay_journal(&self, mut offer: impl FnMut(Arc<SweepJob>) -> bool) {
        let Some(journal) = &self.journal else {
            return;
        };
        let mut max_id = 0u64;
        for replayed in journal.replay() {
            max_id = max_id.max(replayed.id);
            let opts = run_options(Some(replayed.quick), Some(replayed.seed), replayed.verify);
            let unfinished = !replayed.done;
            // Under a non-off verify level even a *finished* job goes
            // back to the pool: its replayed rows get recomputed and
            // diffed before it is served again (see
            // `SweepJob::resumed`).
            let needs_pool = unfinished || (replayed.verify.is_on() && !replayed.shards.is_empty());
            let job = Arc::new(
                SweepJob::resumed(
                    replayed.spec,
                    replayed.policy,
                    replayed.tws,
                    opts,
                    replayed.shards,
                )
                .with_journal(Arc::clone(journal), replayed.id),
            );
            if !self.jobs.insert(replayed.id, Arc::clone(&job)) {
                eprintln!(
                    "warning: job registry full; journaled job {} not resumed",
                    replayed.id
                );
                continue;
            }
            if needs_pool && !offer(job) {
                // Queue smaller than the backlog of resumed jobs: this
                // one stays registered but idle until the next restart.
                eprintln!(
                    "warning: work queue full; journaled job {} resumes on next boot",
                    replayed.id
                );
            }
        }
        self.jobs.bump_next_id(max_id + 1);
    }

    /// Admission control for *heavy* routes (`POST /simulate`,
    /// `POST /sweep`): sheds with `503` + `Retry-After` when the
    /// cache's tracked resident bytes exceed the watermark, or when the
    /// transport reports its queue at least half full (`queue` =
    /// `(depth, cap)`). Light routes — `/healthz`, `/metrics`,
    /// `/jobs/{id}` polls — never call this, so monitoring and polling
    /// ride a fast path that overload cannot starve. Returns the
    /// outcome to serve when shedding.
    pub fn admit_heavy(&self, queue: (usize, usize)) -> Result<(), Outcome> {
        if let Some(watermark) = self.mem_watermark {
            let resident = self.cache.resident_bytes();
            if resident > watermark {
                self.metrics.admission_shed.fetch_add(1, Ordering::Relaxed);
                return Err(Outcome::unavailable(format!(
                    "over memory watermark ({resident} > {watermark} resident bytes), \
                     try again later"
                )));
            }
        }
        let (depth, cap) = queue;
        if cap > 0 && depth >= cap.div_ceil(2) {
            self.metrics.admission_shed.fetch_add(1, Ordering::Relaxed);
            return Err(Outcome::unavailable(format!(
                "work queue under pressure ({depth}/{cap}), try again later"
            )));
        }
        Ok(())
    }

    /// One resource-governance pass, driven by the server's GC thread
    /// (and callable directly by tests): expires terminal jobs past the
    /// retention window (reclaiming registry slots and journal files),
    /// then sweeps the journal directory for aged-out quarantine files,
    /// stale temps, and — under `PTB_JOB_DIR_BYTES` — disk-quota
    /// victims. Returns how many jobs expired.
    pub fn gc(&self) -> usize {
        let expired = self.jobs.expire_terminal(self.job_retain);
        if let Some(journal) = &self.journal {
            for &id in &expired {
                journal.remove(id);
            }
            journal.gc(self.job_retain, self.job_dir_bytes, &|id| {
                self.jobs.expendable(id)
            });
        }
        self.metrics
            .jobs_expired
            .fetch_add(expired.len() as u64, Ordering::Relaxed);
        expired.len()
    }
}

/// Builds the per-request run options: quick or full fidelity, caller's
/// seed, the resolved audit level. Parallelism comes from the pool
/// draining the job's items, never from within a layer.
pub fn run_options(quick: Option<bool>, seed: Option<u64>, verify: AuditLevel) -> RunOptions {
    let mut opts = if quick.unwrap_or(false) {
        RunOptions::quick()
    } else {
        RunOptions::full()
    };
    if let Some(seed) = seed {
        opts.seed = seed;
    }
    opts.verify = verify;
    opts
}
