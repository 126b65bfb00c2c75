//! Shared experiment plumbing: generate a benchmark network's activity,
//! run every layer through the accelerator model, and format results.
//!
//! Three drivers run a network's TW sweep as one [`WorkList`]:
//! [`sweep_reports`] (reports and audits), [`network_reports`] (reports)
//! and [`sweep_rows`] (rows). A one-point run passes `&[tw]`.

use std::sync::{Mutex, PoisonError};

use ptb_accel::audit::{self, AuditLevel, AuditSummary};
use ptb_accel::config::{Policy, SimInputs};
use ptb_accel::report::{LayerReport, NetworkReport};
use ptb_accel::sim::simulate_layer;
use snn_core::shape::ConvShape;
use spikegen::NetworkSpec;

use crate::cache::{ActivityCache, CacheMode};
use crate::sync::lock_recover;
use crate::worklist::WorkList;

/// Options controlling an experiment run.
#[derive(Debug, Clone, Copy)]
pub struct RunOptions {
    /// RNG seed for the synthetic activity.
    pub seed: u64,
    /// If set, spatially crop every CONV layer so its output side is at
    /// most this value (statistically equivalent positions; results per
    /// position are unchanged, totals shrink). `None` = full size.
    pub max_ofmap_side: Option<u32>,
    /// If set, truncate the operational period to at most this many time
    /// points (for quick runs; full runs use the spec's `T`).
    pub max_timesteps: Option<usize>,
    /// Activity-cache mode for sweeps ([`crate::cache`]). Results are
    /// bit-identical for every mode; only wall time (and, for
    /// [`CacheMode::Disk`], the `results/.cache/` directory) changes.
    pub cache: CacheMode,
    /// Runtime audit level (`ptb_accel::audit`). [`AuditLevel::Off`]
    /// (the default) adds no work; [`sweep_reports`] returns the
    /// findings, [`network_reports`] returns them merged and logs them to
    /// stderr, and [`sweep_rows`] logs them.
    pub verify: AuditLevel,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            seed: 42,
            max_ofmap_side: None,
            max_timesteps: None,
            cache: CacheMode::Mem,
            verify: AuditLevel::Off,
        }
    }
}

impl RunOptions {
    /// Full-fidelity run of the paper's configuration.
    pub fn full() -> Self {
        Self::default()
    }

    /// A reduced-scale run for smoke tests and Criterion benches:
    /// cropped feature maps, shortened period.
    pub fn quick() -> Self {
        RunOptions {
            max_ofmap_side: Some(8),
            max_timesteps: Some(64),
            ..Self::default()
        }
    }

    /// Reads `PTB_QUICK=1` from the environment to let every experiment
    /// binary run in seconds instead of minutes when iterating,
    /// `PTB_CACHE=off|mem|disk` to select the activity-cache mode
    /// (results are identical; see [`crate::cache`]), and
    /// `PTB_VERIFY=off|sample|full` to select the runtime audit level
    /// (results are identical; see `ptb_accel::audit`).
    pub fn from_env() -> Self {
        let quick = std::env::var("PTB_QUICK").is_ok_and(|v| v == "1");
        let mut opts = if quick { Self::quick() } else { Self::full() };
        opts.cache = CacheMode::from_env();
        opts.verify = AuditLevel::from_env();
        opts
    }

    /// An [`ActivityCache`] in this run's [`RunOptions::cache`] mode,
    /// for callers that sweep many configurations and want to share
    /// generated activity across driver calls.
    pub fn new_cache(&self) -> ActivityCache {
        ActivityCache::new(self.cache)
    }

    /// The operational period to simulate `spec` over: its `T`, capped
    /// at [`RunOptions::max_timesteps`].
    pub fn timesteps(&self, spec: &NetworkSpec) -> usize {
        self.max_timesteps
            .map_or(spec.timesteps, |cap| spec.timesteps.min(cap))
    }

    /// The shape to simulate for `spec` under these options: the spec's
    /// own shape, spatially cropped (channels, filter, stride, padding
    /// preserved; ifmap shrunk so the ofmap side fits `max_ofmap_side`).
    pub fn effective_shape(&self, spec: &spikegen::LayerSpec) -> ConvShape {
        let s = spec.shape;
        let Some(cap) = self.max_ofmap_side else {
            return s;
        };
        if s.ofmap_side() <= cap {
            return s;
        }
        // Smallest padded ifmap producing `cap` outputs:
        // H' = (cap-1)·U + R − 2·pad.
        let h = (cap - 1) * s.stride() + s.filter_side();
        let h = h.saturating_sub(2 * s.padding()).max(s.filter_side());
        ConvShape::with_padding(
            h,
            s.filter_side(),
            s.in_channels(),
            s.out_channels(),
            s.stride(),
            s.padding(),
        )
        .expect("cropped shape remains valid")
    }

    /// What layer `index` of `spec` is simulated on in this run: its
    /// [effective shape](RunOptions::effective_shape), the
    /// [period](RunOptions::timesteps) and its activity seed — the
    /// activity-cache key's ingredients, so every caller that builds
    /// a layer's activity from them meets the same cache entry.
    pub fn layer_inputs(&self, spec: &NetworkSpec, index: usize) -> (ConvShape, usize, u64) {
        // Each layer draws its own activity stream.
        let seed = self
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(index as u64);
        let shape = self.effective_shape(&spec.layers[index]);
        (shape, self.timesteps(spec), seed)
    }
}

/// What one (TW point, layer) item of a sweep produces: the layer's
/// report and its audit outcome. [`assemble`] turns a point's runs into
/// its [`NetworkReport`].
#[derive(Debug)]
pub struct LayerRun {
    report: LayerReport,
    audit: AuditSummary,
}

/// Simulates layer `index` of `spec` under `policy` at `tw` — the body
/// of one [`WorkList`] item — and audits it at [`RunOptions::verify`].
///
/// Unaudited, a TW-invariant policy ([`Policy::tw_invariant`]) is
/// simulated once per cached layer and reused by later TW points
/// ([`ptb_accel::PreparedLayer::simulate_memoized`]). An audited run
/// simulates afresh, so no memoized report is checked against itself,
/// and diffs the cached activity against a fresh regeneration, so a bit
/// flipped between generation and use (e.g. in a disk-cache entry)
/// surfaces as a [`snn_core::error::AuditError::CorruptActivity`]
/// finding. The report is bit-identical at every level.
pub fn run_layer(
    spec: &NetworkSpec,
    policy: Policy,
    tw: u32,
    index: usize,
    opts: &RunOptions,
    cache: &ActivityCache,
) -> LayerRun {
    let layer = &spec.layers[index];
    let inputs = SimInputs::hpca22(tw);
    let level = opts.verify;
    let (shape, timesteps, seed) = opts.layer_inputs(spec, index);
    let prep = cache.layer(layer, shape, timesteps, seed);
    // An audit must check a fresh report, never a memoized one.
    let report = if level.is_on() {
        simulate_layer(&inputs, policy, shape, prep.spikes())
    } else {
        prep.simulate_memoized(&inputs, policy)
    };
    let mut audit = AuditSummary::new(level);
    if level.is_on() {
        // Exhaustive activity diff against a fresh regeneration — the
        // check that catches cached or recovered bit flips.
        let fresh = layer
            .input_profile
            .generate(shape.ifmap_neurons(), timesteps, seed);
        if let Some(finding) = audit::diff_activity(&layer.name, &fresh, prep.spikes()) {
            audit.record(finding);
        }
        audit.activity_checked += 1;
        audit::audit_layer(
            &inputs,
            policy,
            &prep,
            &layer.name,
            &report,
            level,
            &mut audit,
        );
    }
    LayerRun { report, audit }
}

/// Assembles one sweep point from its layers' runs, given in spec
/// order: the network report and the layers' audits merged in that
/// order.
pub fn assemble(
    spec: &NetworkSpec,
    level: AuditLevel,
    runs: Vec<LayerRun>,
) -> (NetworkReport, AuditSummary) {
    let mut summary = AuditSummary::new(level);
    let layers = spec
        .layers
        .iter()
        .zip(runs)
        .map(|(layer, run)| {
            summary.merge(run.audit);
            (layer.name.clone(), run.report)
        })
        .collect();
    (NetworkReport::new(spec.name.clone(), layers), summary)
}

/// Threads an offline sweep drains its [`WorkList`] on: one per core
/// the host offers.
pub fn pool_size() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Every point of a TW sweep as its [`NetworkReport`] and audit
/// outcome, in `tws` order: one [`WorkList`] of (point, layer) items
/// drained by `drainers` threads, the caller's included (no more
/// threads than items). The results are bit-identical for every
/// drainer count; one drainer is the plain serial loop.
///
/// All points share `cache`: activity is generated once per layer, and
/// the reports are bit-identical for every cache mode
/// (`ptb-bench/tests/cache_equivalence.rs` pins this).
pub fn sweep_reports(
    spec: &NetworkSpec,
    policy: Policy,
    tws: &[u32],
    opts: &RunOptions,
    cache: &ActivityCache,
    drainers: usize,
) -> Vec<(NetworkReport, AuditSummary)> {
    let list = WorkList::new(spec.layers.len(), (0..tws.len()).collect());
    let points = Mutex::new((0..tws.len()).map(|_| None).collect::<Vec<_>>());
    let drain = || {
        while let Some(item) = list.claim() {
            let run = run_layer(spec, policy, tws[item.point], item.layer, opts, cache);
            if let Some(runs) = list.complete(item, run) {
                lock_recover(&points)[item.point] = Some(assemble(spec, opts.verify, runs));
            }
        }
    };
    let helpers = drainers.min(list.unclaimed()).saturating_sub(1);
    std::thread::scope(|s| {
        for _ in 0..helpers {
            s.spawn(drain);
        }
        drain();
    });
    points
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)
        .into_iter()
        .map(|p| p.expect("a drained list finishes every point"))
        .collect()
}

/// [`sweep_reports`] on a pool of [`pool_size`] drainers: the reports
/// of `policy` over `spec` at every TW of `tws`, in order, and every
/// point's audit merged in that order. Each point's findings (if any)
/// are also logged to stderr as they are merged.
pub fn network_reports(
    spec: &NetworkSpec,
    policy: Policy,
    tws: &[u32],
    opts: &RunOptions,
    cache: &ActivityCache,
) -> (Vec<NetworkReport>, AuditSummary) {
    let mut merged = AuditSummary::new(opts.verify);
    let reports = sweep_reports(spec, policy, tws, opts, cache, pool_size())
        .into_iter()
        .zip(tws)
        .map(|((report, summary), &tw)| {
            log_findings(spec, tw, &summary);
            merged.merge(summary);
            report
        })
        .collect();
    (reports, merged)
}

/// Ends an experiment run whose audit found anything: prints the count
/// to stderr and exits with status 1, so that no caller records the
/// numbers of a run the audit flagged. A clean `summary` returns.
pub fn exit_on_findings(summary: &AuditSummary) {
    if summary.is_clean() {
        return;
    }
    eprintln!(
        "audit: {} finding(s) at level {}; this run's numbers are not to be recorded",
        summary.mismatches,
        summary.level.label()
    );
    std::process::exit(1);
}

/// Prints an unclean audit's findings to stderr.
fn log_findings(spec: &NetworkSpec, tw: u32, summary: &AuditSummary) {
    if summary.is_clean() {
        return;
    }
    for finding in &summary.findings {
        eprintln!("audit: {finding}");
    }
    eprintln!(
        "audit: {} finding(s) in {} at tw={tw} (level {})",
        summary.mismatches,
        spec.name,
        summary.level.label()
    );
}

/// One row of a TW sweep: per-TW normalized energy, latency, and EDP
/// relative to a reference (typically the baseline).
///
/// Serializable (and comparable with exact float equality) so sharded
/// sweeps — e.g. `ptb-serve` fanning TW points across workers — can
/// ship rows over the wire and assert bit-identity with an in-process
/// [`sweep_rows`] run.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SweepRow {
    /// Time-window size.
    pub tw: u32,
    /// Energy in joules.
    pub energy_j: f64,
    /// Latency in seconds.
    pub seconds: f64,
    /// Total EDP (joule-seconds, per-layer products summed).
    pub edp: f64,
}

impl SweepRow {
    /// The row of the sweep point at `tw` whose run produced `report`.
    pub fn of(tw: u32, report: &NetworkReport) -> Self {
        SweepRow {
            tw,
            energy_j: report.total_energy_joules(),
            seconds: report.total_seconds(),
            edp: report.total_edp(),
        }
    }
}

/// [`network_reports`] reduced to one [`SweepRow`] per point, in `tws`
/// order. A row is a pure function of its TW, so a sharded sweep that
/// runs its points anywhere and merges them ([`merge_shards`]) matches
/// this exactly.
pub fn sweep_rows(
    spec: &NetworkSpec,
    policy: Policy,
    tws: &[u32],
    opts: &RunOptions,
    cache: &ActivityCache,
) -> Vec<SweepRow> {
    network_reports(spec, policy, tws, opts, cache)
        .0
        .iter()
        .zip(tws)
        .map(|(report, &tw)| SweepRow::of(tw, report))
        .collect()
}

/// Reassembles sharded sweep rows into the order of the original `tws`
/// slice, given each row's original index. The merge is deterministic
/// regardless of completion order, so a sharded sweep matches
/// [`sweep_rows`] exactly (each row is a pure function of its TW; only
/// ordering is at stake).
pub fn merge_shards(mut shards: Vec<(usize, SweepRow)>) -> Vec<SweepRow> {
    shards.sort_by_key(|&(i, _)| i);
    shards.into_iter().map(|(_, row)| row).collect()
}

/// Canonical content-identity bytes of one sweep shard: every per-layer
/// [`spikegen::ProfileKey`] with its input width, the operational
/// period, the activity seed, the fidelity flag, and the shard's TW.
///
/// Two shards get the same bytes exactly when they would generate the
/// same activity tensors *and* run the same TW point, which is the
/// right placement identity for a sharded-sweep cluster: hashing these
/// bytes ([`shard_key`]) and consistent-hashing the digest onto workers
/// sends repeats of a workload's shard to the worker whose
/// [`ActivityCache`] already holds its activity. Deliberately excludes
/// the policy — policies share activity, so co-locating them is what
/// makes the cache pay.
pub fn shard_identity_bytes(spec: &NetworkSpec, quick: bool, seed: u64, tw: u32) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(spec.layers.len() * 41 + 32);
    for layer in &spec.layers {
        bytes.extend_from_slice(&layer.input_profile.key().to_bytes());
        bytes.extend_from_slice(&(layer.shape.ifmap_neurons() as u64).to_le_bytes());
    }
    bytes.extend_from_slice(&(spec.timesteps as u64).to_le_bytes());
    bytes.extend_from_slice(&seed.to_le_bytes());
    bytes.push(u8::from(quick));
    bytes.extend_from_slice(&tw.to_le_bytes());
    bytes
}

/// FNV-1a digest of [`shard_identity_bytes`]: the stable 64-bit
/// placement key a cluster coordinator feeds its consistent-hash ring.
pub fn shard_key(spec: &NetworkSpec, quick: bool, seed: u64, tw: u32) -> u64 {
    crate::cache::fnv1a(&shard_identity_bytes(spec, quick, seed, tw))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_produces_reports_for_every_layer() {
        let spec = spikegen::dvs_gesture();
        let opts = RunOptions::quick();
        let r = network_reports(&spec, Policy::ptb(), &[8], &opts, &opts.new_cache())
            .0
            .remove(0);
        assert_eq!(r.layers.len(), spec.layers.len());
        assert!(r.total_energy_joules() > 0.0);
        assert!(r.total_edp() > 0.0);
    }

    #[test]
    fn cropping_reduces_cost_but_keeps_fc_layers() {
        let spec = spikegen::dvs_gesture();
        let opts = RunOptions::quick();
        let quick = network_reports(&spec, Policy::ptb(), &[8], &opts, &opts.new_cache())
            .0
            .remove(0);
        // FC2 (1x1) is unaffected by cropping; CONV totals must shrink.
        let full_shape = spec.layers[4].shape;
        assert_eq!(full_shape.ofmap_side(), 1);
        assert!(quick.total_energy_joules() > 0.0);
    }

    #[test]
    fn ptb_beats_baseline_at_network_scale_quick() {
        let spec = spikegen::dvs_gesture();
        let opts = RunOptions::quick();
        let cache = opts.new_cache();
        let ptb = network_reports(&spec, Policy::ptb_with_stsap(), &[8], &opts, &cache)
            .0
            .remove(0);
        let base = network_reports(&spec, Policy::BaselineTemporal, &[1], &opts, &cache)
            .0
            .remove(0);
        assert!(
            ptb.total_edp() < base.total_edp() / 5.0,
            "expected a large EDP win, got {} vs {}",
            ptb.total_edp(),
            base.total_edp()
        );
    }
    #[test]
    fn effective_shape_crops_to_cap_preserving_structure() {
        let spec = spikegen::alexnet();
        let opts = RunOptions::quick(); // cap 8
        for l in &spec.layers {
            let s = opts.effective_shape(l);
            assert!(s.ofmap_side() <= 8, "{}", l.name);
            assert_eq!(s.in_channels(), l.shape.in_channels());
            assert_eq!(s.out_channels(), l.shape.out_channels());
            assert_eq!(s.filter_side(), l.shape.filter_side());
            assert_eq!(s.stride(), l.shape.stride());
            if l.shape.ofmap_side() > 8 {
                assert_eq!(s.ofmap_side(), 8, "{} crops exactly to the cap", l.name);
            } else {
                assert_eq!(s, l.shape, "{} small layers pass through", l.name);
            }
        }
        // Full fidelity never crops.
        let full = RunOptions::full();
        for l in &spec.layers {
            assert_eq!(full.effective_shape(l), l.shape);
        }
    }

    #[test]
    fn layer_inputs_follow_the_options() {
        let spec = spikegen::alexnet();
        let quick = RunOptions::quick();
        assert_eq!(quick.timesteps(&spec), spec.timesteps.min(64));
        assert_eq!(RunOptions::full().timesteps(&spec), spec.timesteps);
        for (i, l) in spec.layers.iter().enumerate() {
            let (shape, timesteps, seed) = quick.layer_inputs(&spec, i);
            assert_eq!(shape, quick.effective_shape(l));
            assert_eq!(timesteps, quick.timesteps(&spec));
            // Every layer draws its own stream, and the stream moves
            // with the run's seed.
            let other = RunOptions { seed: 43, ..quick };
            assert_ne!(seed, other.layer_inputs(&spec, i).2, "{}", l.name);
            for j in 0..i {
                assert_ne!(seed, quick.layer_inputs(&spec, j).2, "{}", l.name);
            }
        }
    }

    /// The plain serial loop a drained work list must reproduce: every
    /// point in order, every layer in spec order, freshly generated and
    /// simulated on this thread, with no cache, memo or pool.
    fn plain_loop(
        spec: &NetworkSpec,
        policy: Policy,
        tws: &[u32],
        opts: &RunOptions,
    ) -> Vec<NetworkReport> {
        tws.iter()
            .map(|&tw| {
                let layers = spec
                    .layers
                    .iter()
                    .enumerate()
                    .map(|(i, layer)| {
                        let (shape, timesteps, seed) = opts.layer_inputs(spec, i);
                        let spikes =
                            layer
                                .input_profile
                                .generate(shape.ifmap_neurons(), timesteps, seed);
                        let report = simulate_layer(&SimInputs::hpca22(tw), policy, shape, &spikes);
                        (layer.name.clone(), report)
                    })
                    .collect();
                NetworkReport::new(spec.name.clone(), layers)
            })
            .collect()
    }

    #[test]
    fn drained_sweeps_match_a_plain_serial_loop_at_every_level() {
        let spec = spikegen::dvs_gesture();
        // The oracle diff of a full audit is slow: it gets one point.
        for (level, tws) in [
            (AuditLevel::Off, &[1u32, 8, 64][..]),
            (AuditLevel::Sample, &[1, 8][..]),
            (AuditLevel::Full, &[8][..]),
        ] {
            let opts = RunOptions {
                verify: level,
                ..RunOptions::quick()
            };
            for policy in Policy::all() {
                let plain = plain_loop(&spec, policy, tws, &opts);
                let plain_rows: Vec<SweepRow> = plain
                    .iter()
                    .zip(tws)
                    .map(|(r, &tw)| SweepRow::of(tw, r))
                    .collect();
                let mut audits = Vec::new();
                for drainers in [1, 2, 3] {
                    let (reports, summaries): (Vec<_>, Vec<_>) =
                        sweep_reports(&spec, policy, tws, &opts, &opts.new_cache(), drainers)
                            .into_iter()
                            .unzip();
                    let label = format!("{} {level:?} {drainers} drainers", policy.label());
                    assert_eq!(reports, plain, "{label}");
                    assert!(summaries.iter().all(AuditSummary::is_clean), "{label}");
                    audits.push(summaries);
                }
                assert!(audits.windows(2).all(|w| w[0] == w[1]), "{level:?}");
                let rows = sweep_rows(&spec, policy, tws, &opts, &opts.new_cache());
                assert_eq!(rows, plain_rows, "{} {level:?}", policy.label());
            }
        }
    }

    #[test]
    fn sweep_rows_cover_requested_tws() {
        let spec = spikegen::dvs_gesture();
        let opts = RunOptions::quick();
        let rows = sweep_rows(&spec, Policy::ptb(), &[1, 8], &opts, &opts.new_cache());
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].tw, 1);
        assert_eq!(rows[1].tw, 8);
        assert!(rows.iter().all(|r| r.edp > 0.0));
    }

    #[test]
    fn verified_run_is_clean_and_bit_identical_to_plain_run() {
        let spec = spikegen::dvs_gesture();
        let opts = RunOptions {
            verify: AuditLevel::Sample,
            ..RunOptions::quick()
        };
        let cache = opts.new_cache();
        let (report, summary) = sweep_reports(
            &spec,
            Policy::ptb_with_stsap(),
            &[8],
            &opts,
            &cache,
            pool_size(),
        )
        .remove(0);
        assert!(summary.is_clean(), "clean run: {:?}", summary.first());
        assert_eq!(summary.layers_checked, spec.layers.len() as u64);
        assert_eq!(summary.activity_checked, spec.layers.len() as u64);
        assert!(summary.neurons_replayed > 0);
        let quick = RunOptions::quick();
        let plain = network_reports(
            &spec,
            Policy::ptb_with_stsap(),
            &[8],
            &quick,
            &quick.new_cache(),
        )
        .0;
        assert_eq!(report, plain[0], "auditing must never change results");
    }

    #[test]
    fn verify_off_runs_no_audit_work() {
        let spec = spikegen::dvs_gesture();
        let opts = RunOptions::quick();
        let cache = opts.new_cache();
        let (_, summary) =
            sweep_reports(&spec, Policy::ptb(), &[8], &opts, &cache, pool_size()).remove(0);
        assert_eq!(summary.level, AuditLevel::Off);
        assert_eq!(summary.layers_checked, 0);
        assert_eq!(summary.neurons_replayed, 0);
        assert!(summary.is_clean());
    }

    #[test]
    fn verified_sweep_merges_point_summaries() {
        let spec = spikegen::dvs_gesture();
        let opts = RunOptions {
            verify: AuditLevel::Sample,
            ..RunOptions::quick()
        };
        let cache = opts.new_cache();
        let (reports, summaries): (Vec<_>, Vec<_>) =
            sweep_reports(&spec, Policy::ptb(), &[1, 8], &opts, &cache, pool_size())
                .into_iter()
                .unzip();
        assert_eq!(reports.len(), 2);
        let mut summary = AuditSummary::new(opts.verify);
        for point in summaries {
            summary.merge(point);
        }
        assert!(summary.is_clean(), "{:?}", summary.first());
        assert_eq!(summary.layers_checked, 2 * spec.layers.len() as u64);
        // Rows must match the unverified sweep bit-for-bit.
        let rows: Vec<SweepRow> = reports
            .iter()
            .zip([1, 8])
            .map(|(r, tw)| SweepRow::of(tw, r))
            .collect();
        let plain = sweep_rows(&spec, Policy::ptb(), &[1, 8], &opts, &opts.new_cache());
        assert_eq!(rows, plain);
    }

    #[test]
    fn cache_load_bit_flip_yields_a_typed_corrupt_activity_finding() {
        use crate::cache::ActivityCache;
        use snn_core::error::AuditError;

        let dir = std::env::temp_dir().join(format!("ptb-harness-flip-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let spec = spikegen::dvs_gesture();
        let opts = RunOptions {
            verify: AuditLevel::Sample,
            cache: CacheMode::Disk,
            ..RunOptions::quick()
        };
        // Warm the disk store with good entries.
        let warm = ActivityCache::with_dir(CacheMode::Disk, &dir);
        let truth = network_reports(&spec, Policy::ptb(), &[8], &opts, &warm)
            .0
            .remove(0);

        // Cold cache + armed flip: every disk load delivers one
        // inverted bit. The audit's activity diff must name it.
        crate::failpoint::set("cache_load_flip", "err").unwrap();
        let cold = ActivityCache::with_dir(CacheMode::Disk, &dir);
        let (report, summary) =
            sweep_reports(&spec, Policy::ptb(), &[8], &opts, &cold, pool_size()).remove(0);
        crate::failpoint::clear("cache_load_flip");
        let _ = std::fs::remove_dir_all(&dir);

        assert!(!summary.is_clean(), "the flip must be detected");
        match summary.first() {
            Some(AuditError::CorruptActivity {
                neuron, timestep, ..
            }) => {
                assert_eq!((*neuron, *timestep), (0, 0), "flip site is (0, 0)");
            }
            other => panic!("expected CorruptActivity, got {other:?}"),
        }
        // The corrupted run really did compute on different data.
        assert_ne!(report, truth, "flipped activity changes the report");
    }

    #[test]
    fn sharded_points_merge_to_the_sequential_sweep() {
        let spec = spikegen::dvs_gesture();
        let opts = RunOptions::quick();
        let tws = [1, 4, 8, 16];
        let cache = opts.new_cache();
        let sequential = sweep_rows(&spec, Policy::ptb(), &tws, &opts, &cache);
        // Compute the points out of order (as a worker pool might) and
        // merge: the result must be bit-identical.
        let shards: Vec<(usize, SweepRow)> = [2usize, 0, 3, 1]
            .into_iter()
            .map(|i| {
                let row = sweep_rows(&spec, Policy::ptb(), &tws[i..=i], &opts, &cache).remove(0);
                (i, row)
            })
            .collect();
        assert_eq!(merge_shards(shards), sequential);
    }

    #[test]
    fn shard_keys_separate_what_must_not_collide_and_ignore_policy() {
        let spec = spikegen::dvs_gesture();
        let base = shard_key(&spec, true, 42, 8);
        // Stable within a process and across calls.
        assert_eq!(base, shard_key(&spec, true, 42, 8));
        // Every identity component moves the key.
        assert_ne!(base, shard_key(&spec, true, 42, 4), "tw");
        assert_ne!(base, shard_key(&spec, true, 43, 8), "seed");
        assert_ne!(base, shard_key(&spec, false, 42, 8), "fidelity");
        let other = spikegen::alexnet();
        assert_ne!(base, shard_key(&other, true, 42, 8), "network");
        // The display name alone is *not* identity: activity depends on
        // profiles/shapes/period, which a rename does not change.
        let mut renamed = spec.clone();
        renamed.name = "DVS-Gesture-प्रतिलिपि".into();
        assert_eq!(base, shard_key(&renamed, true, 42, 8));
    }
}
