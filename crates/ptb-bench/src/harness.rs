//! Shared experiment plumbing: generate a benchmark network's activity,
//! run every layer through the accelerator model, and format results.

use ptb_accel::audit::{self, AuditLevel, AuditSummary};
use ptb_accel::config::{Policy, SimInputs};
use ptb_accel::report::NetworkReport;
use ptb_accel::sim::simulate_layer;
use spikegen::NetworkSpec;

use crate::cache::{ActivityCache, CacheMode};

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
    /// Worker threads per layer simulation (`SimInputs::threads`).
    /// Results are bit-identical for every value; only wall time changes.
    pub threads: usize,
    /// Activity-cache mode for sweeps ([`crate::cache`]). Results are
    /// bit-identical for every mode; only wall time (and, for
    /// [`CacheMode::Disk`], the `results/.cache/` directory) changes.
    pub cache: CacheMode,
    /// Runtime audit level (`ptb_accel::audit`). [`AuditLevel::Off`]
    /// (the default) adds no work; the verified entry points
    /// ([`run_network_verified`], [`sweep_summary_verified`]) honor it
    /// and report findings, and [`run_network_cached`] logs any
    /// findings to stderr without changing its return type.
    pub verify: AuditLevel,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            seed: 42,
            max_ofmap_side: None,
            max_timesteps: None,
            threads: 1,
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
    /// `PTB_THREADS=N` to fan each layer's position scan across `N`
    /// workers (results are identical; see `ptb_accel::sim`),
    /// `PTB_CACHE=off|mem|disk` to select the activity-cache mode
    /// (results are identical; see [`crate::cache`]), and
    /// `PTB_VERIFY=off|sample|full` to select the runtime audit level
    /// (results are identical; see `ptb_accel::audit`).
    pub fn from_env() -> Self {
        let mut opts = if std::env::var("PTB_QUICK")
            .map(|v| v == "1")
            .unwrap_or(false)
        {
            Self::quick()
        } else {
            Self::full()
        };
        if let Some(n) = std::env::var("PTB_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
        {
            opts.threads = n.max(1);
        }
        opts.cache = CacheMode::from_env();
        opts.verify = AuditLevel::from_env();
        opts
    }

    /// An [`ActivityCache`] in this run's [`RunOptions::cache`] mode,
    /// for callers that sweep many configurations and want to share
    /// generated activity across [`run_network_cached`] calls.
    pub fn new_cache(&self) -> ActivityCache {
        ActivityCache::new(self.cache)
    }

    /// The shape to simulate for `spec` under these options: the spec's
    /// own shape, spatially cropped (channels, filter, stride, padding
    /// preserved; ifmap shrunk so the ofmap side fits `max_ofmap_side`).
    pub fn effective_shape(&self, spec: &spikegen::LayerSpec) -> snn_core::shape::ConvShape {
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
        snn_core::shape::ConvShape::with_padding(
            h,
            s.filter_side(),
            s.in_channels(),
            s.out_channels(),
            s.stride(),
            s.padding(),
        )
        .expect("cropped shape remains valid")
    }
}

/// Runs every layer of `spec` under `policy` at time-window size `tw`,
/// with full-fidelity options.
pub fn run_network(spec: &NetworkSpec, policy: Policy, tw: u32) -> NetworkReport {
    run_network_with(spec, policy, tw, &RunOptions::full())
}

/// Runs every layer of `spec` under `policy` at `tw`, honoring `opts`.
///
/// Convenience wrapper over [`run_network_cached`] with a private,
/// call-local cache: a single run sees no cross-run reuse, but layers
/// sharing one `(profile, shape, seed)` identity within the run still
/// share one generated tensor. Sweep callers should hold an
/// [`ActivityCache`] (see [`RunOptions::new_cache`]) and call
/// [`run_network_cached`] so generation is shared across sweep points.
pub fn run_network_with(
    spec: &NetworkSpec,
    policy: Policy,
    tw: u32,
    opts: &RunOptions,
) -> NetworkReport {
    run_network_cached(spec, policy, tw, opts, &opts.new_cache())
}

/// Runs every layer of `spec` under `policy` at `tw`, honoring `opts`
/// and sharing generated activity through `cache`.
///
/// The report is bit-identical to [`run_network_with`] (and to the
/// pre-cache harness) for every cache mode: the per-layer seed
/// derivation below is part of the cache key, and everything the cache
/// memoizes is a pure function of that key
/// (`ptb-bench/tests/cache_equivalence.rs` pins this).
pub fn run_network_cached(
    spec: &NetworkSpec,
    policy: Policy,
    tw: u32,
    opts: &RunOptions,
    cache: &ActivityCache,
) -> NetworkReport {
    let (report, summary) = run_network_verified(spec, policy, tw, opts, cache);
    if !summary.is_clean() {
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
    report
}

/// The activity seed of layer `index` in a run seeded `run_seed`: each
/// layer draws its own stream, and the derivation is part of the
/// activity-cache key.
pub fn layer_seed(run_seed: u64, index: usize) -> u64 {
    run_seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(index as u64)
}

/// [`run_network_cached`] plus the audit outcome: every layer is
/// simulated and then audited at [`RunOptions::verify`]
/// (`ptb_accel::audit`), and — when auditing is on — the layer's
/// cached activity tensor is diffed, exhaustively, against a fresh
/// regeneration, so a bit flipped anywhere between generation and
/// consumption (e.g. a corrupted disk-cache entry) surfaces as a
/// [`snn_core::error::AuditError::CorruptActivity`] finding.
///
/// The report is bit-identical to [`run_network_cached`] at every
/// level; at [`AuditLevel::Off`] the summary is empty and no audit
/// work runs.
///
/// At [`AuditLevel::Off`] a TW-invariant policy
/// ([`Policy::tw_invariant`]) is simulated once per cached layer and
/// its report reused by later TW points
/// ([`ptb_accel::PreparedLayer::simulate_memoized`]). Audited runs
/// neither read nor fill that memo: they simulate every layer afresh,
/// so the audit never checks a memoized report against itself.
pub fn run_network_verified(
    spec: &NetworkSpec,
    policy: Policy,
    tw: u32,
    opts: &RunOptions,
    cache: &ActivityCache,
) -> (NetworkReport, AuditSummary) {
    let inputs = SimInputs::hpca22(tw).with_threads(opts.threads);
    let level = opts.verify;
    let timesteps = opts
        .max_timesteps
        .map_or(spec.timesteps, |cap| spec.timesteps.min(cap));
    // Layers are independent: simulate them in parallel. Distinct
    // layers have distinct cache keys, so the cache never serializes
    // them — its locks only guard map access, not generation.
    let layers = std::thread::scope(|scope| {
        let handles: Vec<_> = spec
            .layers
            .iter()
            .enumerate()
            .map(|(i, layer)| {
                scope.spawn(move || {
                    let shape = opts.effective_shape(layer);
                    let seed = layer_seed(opts.seed, i);
                    let prep = cache.layer(layer, shape, timesteps, seed);
                    // An audit must check a fresh report, never a memoized one.
                    let report = if level.is_on() {
                        simulate_layer(&inputs, policy, shape, prep.spikes())
                    } else {
                        prep.simulate_memoized(&inputs, policy)
                    };
                    let mut summary = AuditSummary::new(level);
                    if level.is_on() {
                        // Exhaustive activity diff against a fresh
                        // regeneration — the check that catches cached
                        // or recovered bit flips.
                        let fresh =
                            layer
                                .input_profile
                                .generate(shape.ifmap_neurons(), timesteps, seed);
                        if let Some(finding) =
                            audit::diff_activity(&layer.name, &fresh, prep.spikes())
                        {
                            summary.record(finding);
                        }
                        summary.activity_checked += 1;
                        audit::audit_layer(
                            &inputs,
                            policy,
                            &prep,
                            &layer.name,
                            &report,
                            level,
                            &mut summary,
                        );
                    }
                    (layer.name.clone(), report, summary)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("layer simulation must not panic"))
            .collect::<Vec<_>>()
    });
    let mut summary = AuditSummary::new(level);
    let layers = layers
        .into_iter()
        .map(|(name, report, layer_summary)| {
            summary.merge(layer_summary);
            (name, report)
        })
        .collect();
    (NetworkReport::new(spec.name.clone(), layers), summary)
}

/// One row of a TW sweep: per-TW normalized energy, latency, and EDP
/// relative to a reference (typically the baseline).
///
/// Serializable (and comparable with exact float equality) so sharded
/// sweeps — e.g. `ptb-serve` fanning TW points across workers — can
/// ship rows over the wire and assert bit-identity with an in-process
/// [`sweep_summary_cached`] run.
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

/// Runs a TW sweep of `policy` over `spec` and returns the rows.
///
/// All sweep points share one [`ActivityCache`] in the mode selected by
/// [`RunOptions::cache`], so activity is generated once per layer and
/// each subsequent TW point re-simulates incrementally: PTB re-derives
/// only its TW-dependent window rows and schedule from the cached spike
/// words, and a
/// TW-invariant policy ([`Policy::tw_invariant`]) is simulated once per
/// layer and reused at every other TW point (unless
/// [`RunOptions::verify`] audits the run, which always recomputes). Use
/// [`sweep_summary_cached`] to share the cache across *several* sweeps
/// (e.g. one per policy).
pub fn sweep_summary(
    spec: &NetworkSpec,
    policy: Policy,
    tws: &[u32],
    opts: &RunOptions,
) -> Vec<SweepRow> {
    sweep_summary_cached(spec, policy, tws, opts, &opts.new_cache())
}

/// [`sweep_summary`] with a caller-held cache, so several sweeps (e.g.
/// PTB and PTB+StSAP over the same network) share generated activity.
pub fn sweep_summary_cached(
    spec: &NetworkSpec,
    policy: Policy,
    tws: &[u32],
    opts: &RunOptions,
    cache: &ActivityCache,
) -> Vec<SweepRow> {
    let shards = tws
        .iter()
        .enumerate()
        .map(|(i, &tw)| (i, sweep_point(spec, policy, tw, opts, cache)))
        .collect();
    merge_shards(shards)
}

/// [`sweep_summary_cached`] plus the merged audit outcome across every
/// sweep point (see [`run_network_verified`]).
pub fn sweep_summary_verified(
    spec: &NetworkSpec,
    policy: Policy,
    tws: &[u32],
    opts: &RunOptions,
    cache: &ActivityCache,
) -> (Vec<SweepRow>, AuditSummary) {
    let mut summary = AuditSummary::new(opts.verify);
    let shards = tws
        .iter()
        .enumerate()
        .map(|(i, &tw)| {
            let (row, point_summary) = sweep_point_verified(spec, policy, tw, opts, cache);
            summary.merge(point_summary);
            (i, row)
        })
        .collect();
    (merge_shards(shards), summary)
}

/// One sweep point: [`run_network_cached`] at `tw`, reduced to a
/// [`SweepRow`]. This is the unit of work a sharded sweep distributes;
/// [`sweep_summary_cached`] is exactly `tws` points merged in order, so
/// any scheduling of the points over any number of workers reproduces
/// it bit-for-bit.
pub fn sweep_point(
    spec: &NetworkSpec,
    policy: Policy,
    tw: u32,
    opts: &RunOptions,
    cache: &ActivityCache,
) -> SweepRow {
    let r = run_network_cached(spec, policy, tw, opts, cache);
    SweepRow {
        tw,
        energy_j: r.total_energy_joules(),
        seconds: r.total_seconds(),
        edp: r.total_edp(),
    }
}

/// [`sweep_point`] plus the audit outcome of its underlying run (see
/// [`run_network_verified`]).
pub fn sweep_point_verified(
    spec: &NetworkSpec,
    policy: Policy,
    tw: u32,
    opts: &RunOptions,
    cache: &ActivityCache,
) -> (SweepRow, AuditSummary) {
    let (r, summary) = run_network_verified(spec, policy, tw, opts, cache);
    (
        SweepRow {
            tw,
            energy_j: r.total_energy_joules(),
            seconds: r.total_seconds(),
            edp: r.total_edp(),
        },
        summary,
    )
}

/// Reassembles sharded sweep rows into the order of the original `tws`
/// slice, given each row's original index. The merge is deterministic
/// regardless of completion order, so a sharded sweep matches
/// [`sweep_summary_cached`] exactly (each row is a pure function of its
/// TW; only ordering is at stake).
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
        let r = run_network_with(&spec, Policy::ptb(), 8, &RunOptions::quick());
        assert_eq!(r.layers.len(), spec.layers.len());
        assert!(r.total_energy_joules() > 0.0);
        assert!(r.total_edp() > 0.0);
    }

    #[test]
    fn cropping_reduces_cost_but_keeps_fc_layers() {
        let spec = spikegen::dvs_gesture();
        let quick = run_network_with(&spec, Policy::ptb(), 8, &RunOptions::quick());
        // FC2 (1x1) is unaffected by cropping; CONV totals must shrink.
        let full_shape = spec.layers[4].shape;
        assert_eq!(full_shape.ofmap_side(), 1);
        assert!(quick.total_energy_joules() > 0.0);
    }

    #[test]
    fn ptb_beats_baseline_at_network_scale_quick() {
        let spec = spikegen::dvs_gesture();
        let opts = RunOptions::quick();
        let ptb = run_network_with(&spec, Policy::ptb_with_stsap(), 8, &opts);
        let base = run_network_with(&spec, Policy::BaselineTemporal, 1, &opts);
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
    fn threaded_run_matches_serial_run() {
        let spec = spikegen::dvs_gesture();
        let serial = run_network_with(&spec, Policy::ptb_with_stsap(), 8, &RunOptions::quick());
        let threaded = run_network_with(
            &spec,
            Policy::ptb_with_stsap(),
            8,
            &RunOptions {
                threads: 4,
                ..RunOptions::quick()
            },
        );
        assert_eq!(serial, threaded, "thread count must never change results");
    }

    #[test]
    fn sweep_rows_cover_requested_tws() {
        let spec = spikegen::dvs_gesture();
        let rows = sweep_summary(&spec, Policy::ptb(), &[1, 8], &RunOptions::quick());
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
        let (report, summary) =
            run_network_verified(&spec, Policy::ptb_with_stsap(), 8, &opts, &cache);
        assert!(summary.is_clean(), "clean run: {:?}", summary.first());
        assert_eq!(summary.layers_checked, spec.layers.len() as u64);
        assert_eq!(summary.activity_checked, spec.layers.len() as u64);
        assert!(summary.neurons_replayed > 0);
        let plain = run_network_with(&spec, Policy::ptb_with_stsap(), 8, &RunOptions::quick());
        assert_eq!(report, plain, "auditing must never change results");
    }

    #[test]
    fn verify_off_runs_no_audit_work() {
        let spec = spikegen::dvs_gesture();
        let opts = RunOptions::quick();
        let cache = opts.new_cache();
        let (_, summary) = run_network_verified(&spec, Policy::ptb(), 8, &opts, &cache);
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
        let (rows, summary) = sweep_summary_verified(&spec, Policy::ptb(), &[1, 8], &opts, &cache);
        assert_eq!(rows.len(), 2);
        assert!(summary.is_clean(), "{:?}", summary.first());
        assert_eq!(summary.layers_checked, 2 * spec.layers.len() as u64);
        // Rows must match the unverified sweep bit-for-bit.
        let plain = sweep_summary_cached(&spec, Policy::ptb(), &[1, 8], &opts, &opts.new_cache());
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
        let truth = run_network_cached(&spec, Policy::ptb(), 8, &opts, &warm);

        // Cold cache + armed flip: every disk load delivers one
        // inverted bit. The audit's activity diff must name it.
        crate::failpoint::set("cache_load_flip", "err").unwrap();
        let cold = ActivityCache::with_dir(CacheMode::Disk, &dir);
        let (report, summary) = run_network_verified(&spec, Policy::ptb(), 8, &opts, &cold);
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
        let sequential = sweep_summary_cached(&spec, Policy::ptb(), &tws, &opts, &cache);
        // Compute the points out of order (as a worker pool might) and
        // merge: the result must be bit-identical.
        let shards: Vec<(usize, SweepRow)> = [2usize, 0, 3, 1]
            .into_iter()
            .map(|i| (i, sweep_point(&spec, Policy::ptb(), tws[i], &opts, &cache)))
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
