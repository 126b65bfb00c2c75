//! The cache's one non-negotiable invariant, property-tested: reports
//! produced with `PTB_CACHE=mem` or `disk` are **bit-identical** to the
//! uncached (`off`) path — across policies, seeds, and a TW sweep whose
//! points share one cache (the incremental-re-simulation path).
//!
//! `NetworkReport` derives `PartialEq` over every field, including the
//! integer tally substrate the floating-point outputs are derived from,
//! so `assert_eq!` on reports *is* the bit-identity check (see
//! DESIGN.md on determinism).

use proptest::prelude::*;
use ptb_accel::audit::AuditLevel;
use ptb_accel::config::Policy;
use ptb_accel::PreparedLayer;
use ptb_bench::{
    network_reports, pool_size, sweep_reports, sweep_rows, ActivityCache, CacheMode, RunOptions,
};
use spikegen::NetworkSpec;
use std::path::PathBuf;
use std::sync::Arc;

/// All six scheduling policies the simulator exposes.
const POLICIES: [Policy; 6] = [
    Policy::Ptb { stsap: false },
    Policy::Ptb { stsap: true },
    Policy::BaselineTemporal,
    Policy::TimeSerial,
    Policy::EventDriven,
    Policy::Ann,
];

/// A quick-scale run with the given seed. The harness drains a run's
/// layers on one thread per core, so on a multi-core host they race on
/// the shared cache.
fn opts(seed: u64) -> RunOptions {
    RunOptions {
        seed,
        ..RunOptions::quick()
    }
}

/// A throwaway on-disk store, unique per test invocation site.
fn disk_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("ptb-cache-eq-{tag}-{}", std::process::id()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// For every policy: a TW sweep sharing one mem cache and one disk
    /// cache (cold *and* warm) reports bit-identically to fresh
    /// uncached runs.
    #[test]
    fn cached_reports_are_bit_identical_to_uncached(
        seed in 0u64..1_000_000,
        policy_ix in 0usize..POLICIES.len(),
    ) {
        let policy = POLICIES[policy_ix];
        let spec = spikegen::dvs_gesture();
        let opts = opts(seed);
        let off = ActivityCache::new(CacheMode::Off);
        let mem = ActivityCache::new(CacheMode::Mem);
        let dir = disk_dir(&format!("prop-{seed}-{policy_ix}"));
        let _ = std::fs::remove_dir_all(&dir);
        let disk_cold = ActivityCache::with_dir(CacheMode::Disk, &dir);
        let disk_warm = ActivityCache::with_dir(CacheMode::Disk, &dir);
        for tw in [1u32, 4, 16] {
            let reference = network_reports(&spec, policy, &[tw], &opts, &off).remove(0);
            let from_mem = network_reports(&spec, policy, &[tw], &opts, &mem).remove(0);
            prop_assert_eq!(&reference, &from_mem, "mem != off at tw={}", tw);
            // Cold disk populates the store; the warm cache then reads
            // entries it never generated itself.
            let from_cold = network_reports(&spec, policy, &[tw], &opts, &disk_cold).remove(0);
            let from_warm = network_reports(&spec, policy, &[tw], &opts, &disk_warm).remove(0);
            prop_assert_eq!(&reference, &from_cold, "disk(cold) != off at tw={}", tw);
            prop_assert_eq!(&reference, &from_warm, "disk(warm) != off at tw={}", tw);
        }
        prop_assert_eq!(disk_warm.stats().misses, 0, "warm disk cache must not regenerate");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The public sweep entry point honors `RunOptions::cache` and returns
/// identical rows in every mode (the cache-off rows being the pre-cache
/// harness behavior).
#[test]
fn sweep_rows_identical_across_modes() {
    let spec = spikegen::dvs_gesture();
    let tws = [1u32, 2, 8, 32];
    let dir = disk_dir("sweep");
    let _ = std::fs::remove_dir_all(&dir);
    let base = opts(42);
    let off = sweep_rows(
        &spec,
        Policy::ptb_with_stsap(),
        &tws,
        &base,
        &ActivityCache::new(CacheMode::Off),
    );
    for mode in [CacheMode::Mem, CacheMode::Disk] {
        let rows = if mode == CacheMode::Disk {
            // Route the disk store to a temp dir.
            let cache = ActivityCache::with_dir(mode, &dir);
            sweep_rows(&spec, Policy::ptb_with_stsap(), &tws, &base, &cache)
        } else {
            let opts = RunOptions {
                cache: mode,
                ..base
            };
            sweep_rows(
                &spec,
                Policy::ptb_with_stsap(),
                &tws,
                &opts,
                &opts.new_cache(),
            )
        };
        for (a, b) in off.iter().zip(&rows) {
            assert_eq!(a.tw, b.tw);
            assert_eq!(
                a.energy_j.to_bits(),
                b.energy_j.to_bits(),
                "{mode:?} energy"
            );
            assert_eq!(a.seconds.to_bits(), b.seconds.to_bits(), "{mode:?} seconds");
            assert_eq!(a.edp.to_bits(), b.edp.to_bits(), "{mode:?} edp");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Changing only the TW against a warm cache regenerates nothing: after
/// the first run, every layer lookup is a memory hit.
#[test]
fn tw_change_reuses_cached_activity() {
    let spec = spikegen::dvs_gesture();
    let base = opts(7);
    let cache = ActivityCache::new(CacheMode::Mem);
    let n_layers = spec.layers.len() as u64;
    let _ = network_reports(&spec, Policy::ptb(), &[1], &base, &cache);
    let cold = cache.stats();
    assert_eq!(cold.misses, n_layers, "first run generates each layer once");
    for tw in [2u32, 8, 64] {
        let _ = network_reports(&spec, Policy::ptb(), &[tw], &base, &cache);
    }
    let warm = cache.stats();
    assert_eq!(warm.misses, cold.misses, "TW changes must not regenerate");
    assert_eq!(warm.mem_hits, cold.mem_hits + 3 * n_layers);
}

/// Different run seeds must not alias in the cache (the per-layer seed
/// derivation is part of the key).
#[test]
fn different_seeds_do_not_alias() {
    let spec = spikegen::dvs_gesture();
    let cache = ActivityCache::new(CacheMode::Mem);
    let a = network_reports(&spec, Policy::ptb(), &[8], &opts(1), &cache).remove(0);
    let b = network_reports(&spec, Policy::ptb(), &[8], &opts(2), &cache).remove(0);
    assert_ne!(a, b, "distinct seeds must produce distinct reports");
    assert_eq!(
        b,
        network_reports(
            &spec,
            Policy::ptb(),
            &[8],
            &opts(2),
            &ActivityCache::new(CacheMode::Off)
        )[0],
        "seed-2 report must match its own uncached run, not seed-1 state"
    );
}

/// The service's full TW sweep.
const ALL_TWS: [u32; 7] = [1, 2, 4, 8, 16, 32, 64];

/// The policies whose reports the layer memo may serve.
fn invariant_policies() -> Vec<Policy> {
    POLICIES.into_iter().filter(Policy::tw_invariant).collect()
}

/// The prepared layers a run of `spec` under `opts` reads from `cache`,
/// looked up exactly as the harness does. Asserts every lookup is a
/// memory hit, so the layers are the very ones the run used.
fn resident_layers(
    spec: &NetworkSpec,
    opts: &RunOptions,
    cache: &ActivityCache,
) -> Vec<Arc<PreparedLayer>> {
    let misses = cache.stats().misses;
    let layers = spec
        .layers
        .iter()
        .enumerate()
        .map(|(i, l)| {
            let (shape, timesteps, seed) = opts.layer_inputs(spec, i);
            cache.layer(l, shape, timesteps, seed)
        })
        .collect();
    assert_eq!(cache.stats().misses, misses, "layers must be resident");
    layers
}

/// Memoized sweeps of every TW-invariant policy, on all three benchmark
/// networks, return the rows of a fresh uncached run — both the sweep
/// that fills the memo and the one served from it.
#[test]
fn memo_warm_invariant_sweeps_match_uncached_runs() {
    let opts = opts(11);
    for spec in spikegen::datasets::all_benchmarks() {
        let cache = ActivityCache::new(CacheMode::Mem);
        for policy in invariant_policies() {
            let off = sweep_rows(
                &spec,
                policy,
                &ALL_TWS,
                &opts,
                &ActivityCache::new(CacheMode::Off),
            );
            let filling = sweep_rows(&spec, policy, &ALL_TWS, &opts, &cache);
            let warm = sweep_rows(&spec, policy, &ALL_TWS, &opts, &cache);
            assert_eq!(
                filling,
                off,
                "{} {}: filling sweep",
                spec.name,
                policy.label()
            );
            assert_eq!(
                warm,
                off,
                "{} {}: memo-warm sweep",
                spec.name,
                policy.label()
            );
        }
        for layer in resident_layers(&spec, &opts, &cache) {
            assert_eq!(layer.memoized_reports(), invariant_policies().len());
        }
    }
}

/// Audited runs (sample and full) never fill the memo — and, since the
/// only way to read it fills it on a miss, never read it either. On a
/// memo an unaudited run warmed, an audited run still recomputes,
/// audits clean and reports the same bits.
#[test]
fn audited_runs_neither_read_nor_fill_the_report_memo() {
    let spec = spikegen::dvs_gesture();
    let policy = Policy::BaselineTemporal;
    for level in [AuditLevel::Sample, AuditLevel::Full] {
        let audited = RunOptions {
            verify: level,
            ..opts(5)
        };
        let cache = ActivityCache::new(CacheMode::Mem);
        let (report, summary) =
            sweep_reports(&spec, policy, &[4], &audited, &cache, pool_size()).remove(0);
        assert!(summary.is_clean(), "{level:?}: {:?}", summary.first());
        let layers = resident_layers(&spec, &audited, &cache);
        assert!(
            layers.iter().all(|l| l.memoized_reports() == 0),
            "{level:?}: an audited run filled the memo"
        );

        let plain = network_reports(&spec, policy, &[8], &opts(5), &cache).remove(0);
        assert_eq!(plain, report, "TW-invariant policy: same report at tw 8");
        assert!(layers.iter().all(|l| l.memoized_reports() == 1));
        let (again, summary) =
            sweep_reports(&spec, policy, &[16], &audited, &cache, pool_size()).remove(0);
        assert!(summary.is_clean(), "{level:?}: {:?}", summary.first());
        assert_eq!(summary.layers_checked, spec.layers.len() as u64);
        assert_eq!(again, report);
        assert!(layers.iter().all(|l| l.memoized_reports() == 1));
    }
}

/// Flushing the resident cache drops each layer's memo with it: the
/// next sweep rebuilds the layers, re-simulates, refills the memo, and
/// returns the same rows.
#[test]
fn flushed_layers_recompute_identical_memoized_rows() {
    let spec = spikegen::dvs_gesture();
    let opts = opts(23);
    let cache = ActivityCache::new(CacheMode::Mem);
    let policy = Policy::EventDriven;
    let before = sweep_rows(&spec, policy, &ALL_TWS, &opts, &cache);
    let old = resident_layers(&spec, &opts, &cache);
    cache.flush_resident();
    let after = sweep_rows(&spec, policy, &ALL_TWS, &opts, &cache);
    assert_eq!(after, before);
    let new = resident_layers(&spec, &opts, &cache);
    for (old, new) in old.iter().zip(&new) {
        assert!(!Arc::ptr_eq(old, new), "the flush must drop the layer");
        assert_eq!(new.memoized_reports(), 1, "the new layer memoizes afresh");
    }
}
