//! Sweep jobs and the registry behind `GET /jobs/{id}`.
//!
//! A [`SweepJob`] is a sweep's [`WorkList`]: one item per (TW point,
//! layer). Items are *claimed* from an atomic counter, not
//! pre-assigned, so any number of workers — including the request's
//! own handler thread — can pull the next unclaimed item and run it.
//! That makes the synchronous `/sweep` path deadlock-free by
//! construction: even if every pool worker is busy, the handler claims
//! and runs every item itself, and extra workers only make it faster.
//! Whichever claimer finishes a point's last layer assembles the
//! point's report from its layers in spec order and publishes its row;
//! rows merge by original index ([`ptb_bench::merge_shards`]), so row
//! order and bits match [`ptb_bench::sweep_rows`] regardless
//! of which worker ran what in which order. A `/simulate` is a
//! one-point job ([`SweepJob::simulate`]) that keeps its report.
//!
//! ## Fault tolerance
//!
//! Each item executes under `catch_unwind`: a panicking simulation
//! moves the job to the terminal [`JobState::Failed`] (with the panic
//! message as the reason) instead of unwinding through the worker pool,
//! and wakes every waiter. Jobs constructed via [`SweepJob::resumed`]
//! — replayed from the [`crate::journal::JobJournal`] after a restart —
//! start with their journaled points already complete and claim only
//! the remainder. Deadline-aware callers pass a cutoff to
//! [`SweepJob::drain_until`]; claiming stops at the deadline while
//! already-running items finish wherever they are.
//!
//! ## Verification
//!
//! When the job's [`RunOptions::verify`] level is on, every item is
//! audited ([`ptb_bench::run_layer`]) and each point's merged
//! [`AuditSummary`] is folded into the job (served as the `audit`
//! object of `GET /jobs/{id}`). A point whose audit finds a divergence
//! fails the job — a corrupted row must never be served. Journal-
//! *replayed* points are claimed first and recomputed, and their rows
//! compared bit-for-bit: a journal that replayed a row the simulator no
//! longer reproduces (bit rot, tampering, or the `journal_replay_flip`
//! failpoint) surfaces as a typed [`AuditError::RowMismatch`] instead
//! of silently serving stale data.

use std::collections::{HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use ptb_accel::audit::AuditSummary;
use ptb_accel::config::Policy;
use ptb_accel::report::NetworkReport;
use ptb_bench::sync::{lock_recover, wait_recover, wait_timeout_recover};
use ptb_bench::{
    assemble, merge_shards, run_layer, ActivityCache, LayerRun, RunOptions, SweepRow, WorkList,
};
use snn_core::error::AuditError;
use spikegen::NetworkSpec;

use crate::journal::JobJournal;
use crate::metrics::Metrics;

/// Where a job stands, as reported by `GET /jobs/{id}`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobState {
    /// Shards are still being claimed or executed.
    Running,
    /// Every shard completed; rows are available.
    Done,
    /// A shard panicked (or an injected fault fired); terminal.
    Failed {
        /// Human-readable cause, e.g. the panic message.
        reason: String,
    },
}

/// Completion state behind the job's condvar: completed point rows
/// plus the failure reason, if any. One mutex guards both so waiters
/// can wake on either terminal condition.
#[derive(Debug, Default)]
struct Progress {
    done: Vec<(usize, SweepRow)>,
    failed: Option<String>,
    /// Merged audit outcome across every point run (and every replayed
    /// row recomputed) so far.
    audit: AuditSummary,
    /// The finished point's report, for a [`SweepJob::simulate`] job.
    report: Option<NetworkReport>,
}

/// One sweep request: a work list of (TW point, layer) items.
#[derive(Debug)]
pub struct SweepJob {
    /// Target network.
    pub spec: NetworkSpec,
    /// Scheduling policy.
    pub policy: Policy,
    /// TW points, in requested (output) order.
    pub tws: Vec<u32>,
    /// Fidelity/seed options for every point.
    pub opts: RunOptions,
    /// The items still to run: every point for a fresh job; for a
    /// resumed one, the replayed points to recompute (verify on) and
    /// then the unjournaled remainder.
    work: WorkList<LayerRun>,
    /// Completed point rows + failure state.
    progress: Mutex<Progress>,
    /// Signals completion of the final point, or failure.
    cv: Condvar,
    /// When set, point completions are journaled under this id.
    journal: Option<(Arc<JobJournal>, u64)>,
    /// Journal-replayed rows the work list recomputes (empty unless
    /// the job was resumed with its verify level on).
    resumed: Vec<(usize, SweepRow)>,
    /// Whether finished points keep their report ([`Self::report`]).
    keep_report: bool,
}

impl SweepJob {
    /// Creates the job. No work happens until items are claimed.
    pub fn new(spec: NetworkSpec, policy: Policy, tws: Vec<u32>, opts: RunOptions) -> Self {
        Self::resumed(spec, policy, tws, opts, Vec::new())
    }

    /// A one-point job whose finished report is kept: how the daemon
    /// runs a `POST /simulate` on its pool.
    pub fn simulate(spec: NetworkSpec, policy: Policy, tw: u32, opts: RunOptions) -> Self {
        SweepJob {
            keep_report: true,
            ..Self::new(spec, policy, vec![tw], opts)
        }
    }

    /// A job replayed from the journal: `completed` points are already
    /// done (their rows load verbatim) and only the remaining points
    /// are claimable. When the job's verify level is on, the loaded
    /// points are claimed first and recomputed (see the module docs).
    pub fn resumed(
        spec: NetworkSpec,
        policy: Policy,
        tws: Vec<u32>,
        opts: RunOptions,
        completed: Vec<(usize, SweepRow)>,
    ) -> Self {
        let resumed = if opts.verify.is_on() {
            completed.clone()
        } else {
            Vec::new()
        };
        let points = resumed
            .iter()
            .map(|&(i, _)| i)
            .chain((0..tws.len()).filter(|i| !completed.iter().any(|(j, _)| j == i)))
            .collect();
        let audit = AuditSummary::new(opts.verify);
        SweepJob {
            work: WorkList::new(spec.layers.len(), points),
            spec,
            policy,
            tws,
            opts,
            progress: Mutex::new(Progress {
                done: completed,
                audit,
                ..Progress::default()
            }),
            cv: Condvar::new(),
            journal: None,
            resumed,
            keep_report: false,
        }
    }

    /// Attaches a journal: subsequent point completions append
    /// `shard` records under `id`, and the final one appends `done`.
    pub fn with_journal(mut self, journal: Arc<JobJournal>, id: u64) -> Self {
        self.journal = Some((journal, id));
        self
    }

    /// Items no claimer has taken yet: how many helpers could usefully
    /// join.
    pub fn unclaimed(&self) -> usize {
        self.work.unclaimed()
    }

    /// Claims and runs unclaimed items until none remain, the job
    /// fails, or `deadline` passes. Returns the number of points whose
    /// last layer this call ran. Safe to call from any number of
    /// threads; each item runs exactly once.
    ///
    /// A panicking item is contained here: `metrics` (when given) gets
    /// its `panics_contained` counter incremented, the job transitions
    /// to [`JobState::Failed`], and the panic does not propagate.
    /// Failpoint `shard_exec` injects faults when a point's first layer
    /// is claimed, once per point. Under a non-off verify level each
    /// point's audit summary is folded into the job (and into
    /// `metrics`' audit counters).
    pub fn drain_until(
        &self,
        cache: &ActivityCache,
        deadline: Option<Instant>,
        metrics: Option<&Metrics>,
    ) -> usize {
        let mut finished = 0;
        loop {
            if deadline.is_some_and(|d| Instant::now() >= d) || self.failed().is_some() {
                return finished;
            }
            let Some(item) = self.work.claim() else {
                return finished;
            };
            let (index, tw) = (item.point, self.tws[item.point]);
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                if item.layer == 0 {
                    ptb_bench::failpoint!("shard_exec").map_err(|_| ())?;
                }
                Ok::<LayerRun, ()>(run_layer(
                    &self.spec,
                    self.policy,
                    tw,
                    item.layer,
                    &self.opts,
                    cache,
                ))
            }));
            let run = match outcome {
                Ok(Ok(run)) => run,
                Ok(Err(())) => {
                    self.fail(format!(
                        "shard {index} (tw={tw}): injected fault (shard_exec)"
                    ));
                    return finished;
                }
                Err(payload) => {
                    if let Some(m) = metrics {
                        m.panics_contained.fetch_add(1, Ordering::Relaxed);
                    }
                    self.fail(format!(
                        "shard {index} (tw={tw}) layer {} panicked: {}",
                        self.spec.layers[item.layer].name,
                        panic_message(&payload)
                    ));
                    return finished;
                }
            };
            let Some(runs) = self.work.complete(item, run) else {
                continue;
            };
            let (report, audit) = assemble(&self.spec, self.opts.verify, runs);
            if !self.finish_point(index, report, audit, metrics) {
                return finished;
            }
            finished += 1;
        }
    }

    /// Publishes a point whose last layer just ran: folds its audit
    /// into the job, then journals and records its row — or, for a
    /// journal-replayed point, diffs the recomputed row against the
    /// loaded one. Returns `false` when the point failed the job.
    fn finish_point(
        &self,
        index: usize,
        report: NetworkReport,
        mut audit: AuditSummary,
        metrics: Option<&Metrics>,
    ) -> bool {
        let tw = self.tws[index];
        let row = SweepRow::of(tw, &report);
        if let Some((_, loaded)) = self.resumed.iter().find(|(j, _)| *j == index) {
            if row != *loaded {
                audit.record(AuditError::RowMismatch { index, tw });
            }
            if let Some(finding) = self.absorb_audit(audit, metrics) {
                self.fail_replayed(format!(
                    "replayed shard {index} (tw={tw}) failed audit: {finding}"
                ));
                return false;
            }
            return true;
        }
        if let Some(finding) = self.absorb_audit(audit, metrics) {
            // The row failed its own audit: never journal or serve it;
            // the findings stay on the job.
            self.fail(format!("shard {index} (tw={tw}) failed audit: {finding}"));
            return false;
        }
        if let Some((journal, id)) = &self.journal {
            journal.log_shard(*id, index, &row);
        }
        let mut progress = lock_recover(&self.progress);
        progress.done.push((index, row));
        if self.keep_report {
            progress.report = Some(report);
        }
        let complete = progress.done.len() == self.tws.len();
        drop(progress);
        if complete {
            if let Some((journal, id)) = &self.journal {
                journal.log_done(*id);
            }
            self.cv.notify_all();
        }
        true
    }

    /// Folds one point's audit into the job and the service counters.
    /// Returns the first *new* finding, if the point was not clean.
    fn absorb_audit(&self, audit: AuditSummary, metrics: Option<&Metrics>) -> Option<AuditError> {
        if let Some(m) = metrics {
            m.audit_mismatches
                .fetch_add(audit.mismatches, Ordering::Relaxed);
            m.acc_saturated
                .fetch_add(audit.saturated, Ordering::Relaxed);
        }
        let first = audit.first().cloned();
        let clean = audit.is_clean();
        lock_recover(&self.progress).audit.merge(audit);
        if clean {
            None
        } else {
            // `first` can only be None past FINDINGS_CAP retained
            // findings, by which point the job already failed.
            Some(first.unwrap_or(AuditError::RowMismatch { index: 0, tw: 0 }))
        }
    }

    /// [`Self::drain_until`] with no deadline and no metrics.
    pub fn drain(&self, cache: &ActivityCache) -> usize {
        self.drain_until(cache, None, None)
    }

    /// Publishes a row computed *outside* this process — the cluster
    /// coordinator calls this with rows returned by worker daemons.
    /// First completion wins: a shard re-dispatched after a worker
    /// death may produce the same row twice, and since every row is a
    /// pure function of `(spec, policy, tw, opts)` dropping the
    /// duplicate is lossless. Journals the row (mirroring
    /// [`Self::drain_until`]) and wakes waiters on completion.
    /// Returns `false` when the shard already had a row.
    pub fn complete_shard(&self, index: usize, row: SweepRow) -> bool {
        assert!(index < self.tws.len(), "shard index out of range");
        {
            // Cheap pre-check so a racing duplicate usually skips the
            // journal append; the post-lock check below is the one that
            // guarantees first-wins.
            let progress = lock_recover(&self.progress);
            if progress.done.iter().any(|(j, _)| *j == index) {
                return false;
            }
        }
        if let Some((journal, id)) = &self.journal {
            journal.log_shard(*id, index, &row);
        }
        let mut progress = lock_recover(&self.progress);
        if progress.done.iter().any(|(j, _)| *j == index) {
            // Lost the race; the journal's replay dedup (first record
            // wins) makes the extra append harmless.
            return false;
        }
        progress.done.push((index, row));
        let complete = progress.done.len() == self.tws.len();
        drop(progress);
        if complete {
            if let Some((journal, id)) = &self.journal {
                journal.log_done(*id);
            }
        }
        self.cv.notify_all();
        true
    }

    /// Shard indices with no completed row yet, ascending. The
    /// coordinator's dispatch loop re-reads this to find work left by
    /// dead workers.
    pub fn pending(&self) -> Vec<usize> {
        let progress = lock_recover(&self.progress);
        (0..self.tws.len())
            .filter(|i| !progress.done.iter().any(|(j, _)| j == i))
            .collect()
    }

    /// Public façade over the private `fail` for external executors: the
    /// coordinator fails a job this way when no live worker remains to
    /// run its pending shards. Completion still outranks failure.
    pub fn fail_external(&self, reason: String) {
        self.fail(reason);
    }

    /// Moves the job to [`JobState::Failed`] (first reason wins) and
    /// wakes every waiter. A job whose every shard already completed
    /// cannot fail this way — completion is terminal.
    fn fail(&self, reason: String) {
        let mut progress = lock_recover(&self.progress);
        if progress.failed.is_none() && progress.done.len() < self.tws.len() {
            progress.failed = Some(reason);
        }
        drop(progress);
        self.cv.notify_all();
    }

    /// Fails the job even when every shard is present: a journal-
    /// replayed row that no longer matches its recomputation makes the
    /// "complete" rows untrustworthy, so audit failure outranks
    /// completion here (unlike [`Self::fail`]).
    fn fail_replayed(&self, reason: String) {
        let mut progress = lock_recover(&self.progress);
        if progress.failed.is_none() {
            progress.failed = Some(reason);
        }
        drop(progress);
        self.cv.notify_all();
    }

    /// The failure reason, if the job failed.
    pub fn failed(&self) -> Option<String> {
        lock_recover(&self.progress).failed.clone()
    }

    /// Number of completed shards.
    pub fn completed(&self) -> usize {
        lock_recover(&self.progress).done.len()
    }

    /// Whether every shard has completed.
    pub fn is_complete(&self) -> bool {
        self.completed() == self.tws.len()
    }

    /// The job's current state.
    pub fn state(&self) -> JobState {
        let progress = lock_recover(&self.progress);
        if let Some(reason) = &progress.failed {
            JobState::Failed {
                reason: reason.clone(),
            }
        } else if progress.done.len() == self.tws.len() {
            JobState::Done
        } else {
            JobState::Running
        }
    }

    /// Blocks until the job reaches a terminal state (done or failed).
    pub fn wait(&self) {
        let mut progress = lock_recover(&self.progress);
        while progress.done.len() < self.tws.len() && progress.failed.is_none() {
            progress = wait_recover(&self.cv, progress);
        }
    }

    /// Blocks until the job reaches a terminal state or `deadline`
    /// passes; `true` iff the job is terminal.
    pub fn wait_until(&self, deadline: Instant) -> bool {
        let mut progress = lock_recover(&self.progress);
        loop {
            if progress.done.len() == self.tws.len() || progress.failed.is_some() {
                return true;
            }
            let Some(remaining) = deadline.checked_duration_since(Instant::now()) else {
                return false;
            };
            let (guard, timed_out) = wait_timeout_recover(&self.cv, progress, remaining);
            progress = guard;
            if timed_out
                && progress.done.len() < self.tws.len()
                && progress.failed.is_none()
                && Instant::now() >= deadline
            {
                return false;
            }
        }
    }

    /// The merged rows, in requested TW order. `None` until complete.
    pub fn rows(&self) -> Option<Vec<SweepRow>> {
        let progress = lock_recover(&self.progress);
        if progress.done.len() < self.tws.len() {
            return None;
        }
        Some(merge_shards(progress.done.clone()))
    }

    /// The finished point's report of a [`Self::simulate`] job; `None`
    /// until it completes, and for every other job.
    pub fn report(&self) -> Option<NetworkReport> {
        lock_recover(&self.progress).report.clone()
    }

    /// The audit outcome folded across every shard run so far (all
    /// zeros when the job's verify level is off).
    pub fn audit(&self) -> AuditSummary {
        lock_recover(&self.progress).audit.clone()
    }
}

/// Renders a `catch_unwind` payload as the panic message when it is a
/// string (the overwhelmingly common case), or a placeholder otherwise.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Registry of background sweep jobs, polled via `GET /jobs/{id}`.
///
/// Terminal jobs (done or failed) are retained for a grace window and
/// then expired by [`Self::expire_terminal`] (driven by the server's GC
/// loop under `PTB_JOB_RETAIN`), freeing their registry slot and rows;
/// polls after expiry get a `404` with a `gone: true` hint rather than
/// the indistinguishable "never existed" `404`. [`MAX_JOBS`] bounds the
/// registry against runaway clients between GC passes.
#[derive(Debug, Default)]
pub struct JobRegistry {
    jobs: Mutex<HashMap<u64, Arc<SweepJob>>>,
    next_id: AtomicU64,
    /// Expiry bookkeeping: when each terminal job was first *observed*
    /// terminal by a GC pass, and the ids already expired (so polls can
    /// distinguish "gone" from "never existed").
    expiry: Mutex<ExpiryState>,
}

/// See [`JobRegistry::expiry`].
#[derive(Debug, Default)]
struct ExpiryState {
    terminal_seen: HashMap<u64, Instant>,
    gone: HashSet<u64>,
}

/// Upper bound on registered background jobs.
pub const MAX_JOBS: usize = 1024;

/// Cap on remembered expired-job ids. Ids are 8 bytes, so even the cap
/// is tiny; when it overflows, the oldest memory we have to give up is
/// arbitrary — a forgotten id just degrades its poll from "gone" to
/// "never existed", which is still a correct 404.
pub const MAX_GONE_IDS: usize = 65_536;

impl JobRegistry {
    /// Reserves the next job id. Callers that journal need the id
    /// before constructing the job; pair with [`Self::insert`].
    pub fn reserve_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Ensures future [`Self::reserve_id`] calls return at least
    /// `floor` — used at replay so fresh ids never collide with
    /// journaled ones.
    pub fn bump_next_id(&self, floor: u64) {
        self.next_id.fetch_max(floor, Ordering::Relaxed);
    }

    /// Registers `job` under `id`; `false` when the registry is full.
    pub fn insert(&self, id: u64, job: Arc<SweepJob>) -> bool {
        let mut jobs = lock_recover(&self.jobs);
        if jobs.len() >= MAX_JOBS {
            return false;
        }
        jobs.insert(id, job);
        true
    }

    /// Registers `job` under a fresh id and returns it, or `None` when
    /// the registry is full.
    pub fn register(&self, job: Arc<SweepJob>) -> Option<u64> {
        let id = self.reserve_id();
        self.insert(id, job).then_some(id)
    }

    /// Looks up a job by id.
    pub fn get(&self, id: u64) -> Option<Arc<SweepJob>> {
        lock_recover(&self.jobs).get(&id).cloned()
    }

    /// Number of registered jobs (live plus retained-terminal).
    pub fn len(&self) -> usize {
        lock_recover(&self.jobs).len()
    }

    /// Whether the registry holds no jobs.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// One retention pass: records newly terminal jobs, then expires
    /// every job that has been terminal for at least `retain`, returning
    /// the expired ids (so the caller can also reclaim their journal
    /// files). A `retain` of zero expires a terminal job on the first
    /// pass that sees it. Running jobs are never touched.
    ///
    /// Terminal-ness is timed from when a pass first *observes* it, not
    /// from the completing shard — at GC cadence the difference is one
    /// tick, and it keeps the hot shard-completion path free of clocks.
    pub fn expire_terminal(&self, retain: Duration) -> Vec<u64> {
        let now = Instant::now();
        let jobs = lock_recover(&self.jobs);
        let mut expiry = lock_recover(&self.expiry);
        let mut expired = Vec::new();
        for (&id, job) in jobs.iter() {
            if matches!(job.state(), JobState::Running) {
                // A resumed/retried job could in principle leave a
                // stale observation; forget it.
                expiry.terminal_seen.remove(&id);
                continue;
            }
            let seen = *expiry.terminal_seen.entry(id).or_insert(now);
            if now.duration_since(seen) >= retain {
                expired.push(id);
            }
        }
        drop(jobs);
        for &id in &expired {
            expiry.terminal_seen.remove(&id);
            if expiry.gone.len() >= MAX_GONE_IDS {
                expiry.gone.clear(); // see MAX_GONE_IDS
            }
            expiry.gone.insert(id);
        }
        drop(expiry);
        if !expired.is_empty() {
            let mut jobs = lock_recover(&self.jobs);
            for id in &expired {
                jobs.remove(id);
            }
        }
        expired
    }

    /// Whether `id` was expired by retention (vs never registered).
    pub fn is_gone(&self, id: u64) -> bool {
        lock_recover(&self.expiry).gone.contains(&id)
    }

    /// Whether `id`'s journal file is safe to reclaim in a disk-quota
    /// sweep: the job was expired, or is registered and already
    /// terminal (its rows live in memory; losing the file only costs
    /// durability across a restart, never a running job's progress).
    pub fn expendable(&self, id: u64) -> bool {
        if self.is_gone(id) {
            return true;
        }
        match self.get(id) {
            Some(job) => !matches!(job.state(), JobState::Running),
            // Unknown id: not this daemon's job to protect (a foreign
            // file in the journal dir), but be conservative and keep it
            // unless retention already expired it.
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptb_bench::{pool_size, sweep_reports, sweep_rows};

    fn quick_job(tws: &[u32]) -> SweepJob {
        SweepJob::new(
            spikegen::dvs_gesture(),
            Policy::ptb(),
            tws.to_vec(),
            RunOptions::quick(),
        )
    }

    #[test]
    fn single_thread_run_matches_sequential_sweep() {
        let opts = RunOptions::quick();
        let cache = opts.new_cache();
        let job = quick_job(&[1, 4, 8]);
        assert!(!job.is_complete());
        assert_eq!(job.state(), JobState::Running);
        assert_eq!(job.drain(&cache), 3);
        assert!(job.is_complete());
        assert_eq!(job.state(), JobState::Done);
        let expected = sweep_rows(&job.spec, job.policy, &job.tws, &opts, &opts.new_cache());
        assert_eq!(job.rows().unwrap(), expected);
    }

    #[test]
    fn concurrent_claimers_run_each_shard_exactly_once() {
        let opts = RunOptions::quick();
        let job = quick_job(&[1, 2, 4, 8, 16]);
        let total: usize = std::thread::scope(|s| {
            let handles: Vec<_> = (0..3)
                .map(|_| {
                    s.spawn(|| {
                        let cache = opts.new_cache();
                        job.drain(&cache)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).sum()
        });
        assert_eq!(total, 5, "each shard ran on exactly one thread");
        let expected = sweep_rows(&job.spec, job.policy, &job.tws, &opts, &opts.new_cache());
        assert_eq!(job.rows().unwrap(), expected);
        job.wait(); // returns immediately once complete
    }

    #[test]
    fn resumed_jobs_run_only_the_missing_shards() {
        let opts = RunOptions::quick();
        let cache = opts.new_cache();
        let spec = spikegen::dvs_gesture();
        let tws = vec![1u32, 4, 8];
        let expected = sweep_rows(&spec, Policy::ptb(), &tws, &opts, &cache);

        // Pretend shard 1 was journaled with a sentinel row: resumption
        // must keep it verbatim and run only shards 0 and 2.
        let sentinel = SweepRow {
            tw: 4,
            energy_j: 0.5,
            seconds: 0.25,
            edp: 0.125,
        };
        let job = SweepJob::resumed(spec, Policy::ptb(), tws, opts, vec![(1, sentinel.clone())]);
        assert_eq!(job.completed(), 1);
        assert_eq!(job.drain(&cache), 2, "only two shards left to run");
        let rows = job.rows().unwrap();
        assert_eq!(rows[1], sentinel, "journaled row used verbatim");
        assert_eq!(rows[0], expected[0]);
        assert_eq!(rows[2], expected[2]);
    }

    #[test]
    fn a_panicking_shard_fails_the_job_without_unwinding() {
        let opts = RunOptions::quick();
        let cache = opts.new_cache();
        // An invalid TW makes `SimInputs::hpca22` assert: a real panic
        // from deep inside the simulator, no failpoints needed.
        let job = SweepJob::new(
            spikegen::dvs_gesture(),
            Policy::ptb(),
            vec![4, 0],
            RunOptions::quick(),
        );
        let metrics = Metrics::default();
        job.drain_until(&cache, None, Some(&metrics));
        let state = job.state();
        let JobState::Failed { reason } = state else {
            panic!("job must fail, got {state:?}");
        };
        assert!(reason.contains("tw=0"), "reason names the shard: {reason}");
        assert_eq!(metrics.panics_contained.load(Ordering::Relaxed), 1);
        assert!(job.rows().is_none());
        job.wait(); // failure is terminal: wait returns
        assert!(job.wait_until(Instant::now()), "terminal before deadline");
    }

    #[test]
    fn expired_deadlines_stop_claiming_before_work_starts() {
        let opts = RunOptions::quick();
        let cache = opts.new_cache();
        let job = quick_job(&[1, 4]);
        let past = Instant::now() - std::time::Duration::from_millis(1);
        assert_eq!(job.drain_until(&cache, Some(past), None), 0);
        assert_eq!(job.completed(), 0);
        assert!(!job.wait_until(past), "deadline passed, job not terminal");
    }

    #[test]
    fn verified_jobs_fold_shard_audits_and_stay_clean() {
        let opts = RunOptions {
            verify: ptb_accel::audit::AuditLevel::Sample,
            ..RunOptions::quick()
        };
        let cache = opts.new_cache();
        let job = SweepJob::new(spikegen::dvs_gesture(), Policy::ptb(), vec![1, 4], opts);
        let metrics = Metrics::default();
        assert_eq!(job.drain_until(&cache, None, Some(&metrics)), 2);
        assert_eq!(job.state(), JobState::Done);
        let audit = job.audit();
        assert!(audit.is_clean(), "clean run: {:?}", audit.first());
        assert_eq!(audit.level, ptb_accel::audit::AuditLevel::Sample);
        assert!(audit.layers_checked > 0, "both shards were audited");
        assert_eq!(metrics.audit_mismatches.load(Ordering::Relaxed), 0);
        // Rows still match the unverified sweep bit-for-bit.
        let expected = sweep_rows(&job.spec, job.policy, &job.tws, &opts, &opts.new_cache());
        assert_eq!(job.rows().unwrap(), expected);
    }

    #[test]
    fn replayed_rows_are_recomputed_and_mismatches_fail_the_job() {
        let opts = RunOptions {
            verify: ptb_accel::audit::AuditLevel::Sample,
            ..RunOptions::quick()
        };
        let cache = opts.new_cache();
        let spec = spikegen::dvs_gesture();
        // A "journaled" row the simulator never produced: resumption
        // under verify must recompute, catch it, and fail the job even
        // though every shard is nominally present.
        let bogus = SweepRow {
            tw: 4,
            energy_j: 0.5,
            seconds: 0.25,
            edp: 0.125,
        };
        let job = SweepJob::resumed(spec, Policy::ptb(), vec![1, 4], opts, vec![(1, bogus)]);
        let metrics = Metrics::default();
        job.drain_until(&cache, None, Some(&metrics));
        let state = job.state();
        let JobState::Failed { reason } = state else {
            panic!("corrupt replayed row must fail the job, got {state:?}");
        };
        assert!(reason.contains("audit"), "{reason}");
        let audit = job.audit();
        assert!(audit
            .findings
            .iter()
            .any(|f| matches!(f, AuditError::RowMismatch { index: 1, tw: 4 })));
        assert!(metrics.audit_mismatches.load(Ordering::Relaxed) >= 1);
    }

    #[test]
    fn journal_replay_bit_flip_surfaces_as_a_typed_row_mismatch() {
        // End to end: journal a genuine row, flip one bit at replay via
        // the `journal_replay_flip` failpoint, resume under verify, and
        // demand the typed RowMismatch. The only test anywhere that
        // arms this failpoint (they are process-global).
        let opts = RunOptions {
            verify: ptb_accel::audit::AuditLevel::Sample,
            ..RunOptions::quick()
        };
        let cache = opts.new_cache();
        let spec = spikegen::dvs_gesture();
        let (report, audit) =
            sweep_reports(&spec, Policy::ptb(), &[4], &opts, &cache, pool_size()).remove(0);
        let real = SweepRow::of(4, &report);
        assert!(audit.is_clean());

        let dir = std::env::temp_dir().join(format!("ptb-jobs-replay-flip-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let journal = JobJournal::new(&dir);
        journal.log_submit(
            1,
            &spec,
            Policy::ptb(),
            &[1, 4],
            true,
            opts.seed,
            opts.verify,
        );
        journal.log_shard(1, 1, &real);

        ptb_bench::failpoint::set("journal_replay_flip", "err").unwrap();
        let replayed = JobJournal::new(&dir).replay();
        ptb_bench::failpoint::clear("journal_replay_flip");
        assert_eq!(replayed.len(), 1);
        let loaded = &replayed[0].shards;
        assert_eq!(loaded.len(), 1);
        assert_ne!(loaded[0].1, real, "the flip must have landed");
        assert_eq!(
            loaded[0].1.energy_j.to_bits() ^ 1,
            real.energy_j.to_bits(),
            "exactly the low mantissa bit of energy_j flipped"
        );

        let job = SweepJob::resumed(
            replayed[0].spec.clone(),
            replayed[0].policy,
            replayed[0].tws.clone(),
            opts,
            loaded.clone(),
        );
        job.drain_until(&cache, None, None);
        let state = job.state();
        let JobState::Failed { reason } = state else {
            panic!("flipped row must fail the resumed job, got {state:?}");
        };
        assert!(reason.contains("tw=4"), "{reason}");
        assert!(job
            .audit()
            .findings
            .iter()
            .any(|f| matches!(f, AuditError::RowMismatch { index: 1, tw: 4 })));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn external_completions_dedup_and_finish_the_job() {
        let job = quick_job(&[1, 4, 8]);
        assert_eq!(job.pending(), vec![0, 1, 2]);
        let row = |tw: u32| SweepRow {
            tw,
            energy_j: 1.0,
            seconds: 1.0,
            edp: 1.0,
        };
        assert!(job.complete_shard(1, row(4)));
        assert!(!job.complete_shard(1, row(4)), "duplicate rejected");
        assert_eq!(job.pending(), vec![0, 2]);
        assert_eq!(job.completed(), 1);
        assert!(job.complete_shard(0, row(1)));
        assert!(job.complete_shard(2, row(8)));
        assert_eq!(job.state(), JobState::Done);
        assert_eq!(
            job.rows().unwrap().iter().map(|r| r.tw).collect::<Vec<_>>(),
            vec![1, 4, 8],
            "rows merged in requested TW order"
        );
        // Completion is terminal: an external failure after the fact
        // must not flip the state.
        job.fail_external("too late".into());
        assert_eq!(job.state(), JobState::Done);
    }

    #[test]
    fn external_failure_wakes_waiters_and_is_first_wins() {
        let job = quick_job(&[1, 4]);
        job.fail_external("no live workers".into());
        job.fail_external("second reason".into());
        let JobState::Failed { reason } = job.state() else {
            panic!("job must be failed");
        };
        assert_eq!(reason, "no live workers");
        job.wait(); // terminal: returns immediately
    }

    #[test]
    fn registry_hands_out_distinct_ids() {
        let reg = JobRegistry::default();
        let a = reg.register(Arc::new(quick_job(&[1]))).unwrap();
        let b = reg.register(Arc::new(quick_job(&[2]))).unwrap();
        assert_ne!(a, b);
        assert!(reg.get(a).is_some());
        assert!(reg.get(999).is_none());
        reg.bump_next_id(500);
        let c = reg.register(Arc::new(quick_job(&[4]))).unwrap();
        assert!(c >= 500, "bumped floor respected, got {c}");
    }

    #[test]
    fn retention_expires_terminal_jobs_but_never_running_ones() {
        let opts = RunOptions::quick();
        let reg = JobRegistry::default();
        let done = Arc::new(quick_job(&[1]));
        done.drain(&opts.new_cache());
        assert_eq!(done.state(), JobState::Done);
        let done_id = reg.register(done).unwrap();
        let running_id = reg.register(Arc::new(quick_job(&[2]))).unwrap();

        // First pass only *observes* terminal state; nothing expires yet.
        assert!(reg.expire_terminal(Duration::from_millis(50)).is_empty());
        assert_eq!(reg.len(), 2);
        assert!(!reg.is_gone(done_id));
        assert!(reg.expendable(done_id), "terminal job is expendable");
        assert!(
            !reg.expendable(running_id),
            "running job is never expendable"
        );

        std::thread::sleep(Duration::from_millis(60));
        let expired = reg.expire_terminal(Duration::from_millis(50));
        assert_eq!(expired, vec![done_id]);
        assert_eq!(reg.len(), 1, "running job survives");
        assert!(reg.get(done_id).is_none());
        assert!(reg.is_gone(done_id), "expired id remembered as gone");
        assert!(reg.expendable(done_id), "gone ids stay expendable");
        assert!(!reg.is_gone(running_id));

        // An unknown id was never registered: not gone, not expendable.
        assert!(!reg.is_gone(424242));
        assert!(!reg.expendable(424242));
    }

    #[test]
    fn infinite_retention_never_expires() {
        let opts = RunOptions::quick();
        let reg = JobRegistry::default();
        let done = Arc::new(quick_job(&[1]));
        done.drain(&opts.new_cache());
        let id = reg.register(done).unwrap();
        for _ in 0..3 {
            assert!(reg
                .expire_terminal(Duration::from_secs(u64::MAX))
                .is_empty());
        }
        assert!(reg.get(id).is_some());
    }
}
