//! Eviction can never change results: with the `cache_evict` failpoint
//! flushing the resident maps at arbitrary points mid-sweep, and with
//! tight byte budgets forcing LRU eviction on nearly every insert,
//! sweep rows and reports must stay **bit-identical** to the unbudgeted
//! reference — an evicted entry just regenerates deterministically.
//!
//! This lives in its own test binary because failpoints are
//! process-global: arming `cache_evict` here must not perturb the other
//! cache tests.

use proptest::prelude::*;
use ptb_accel::config::Policy;
use ptb_bench::{
    failpoint, sweep_summary_cached, ActivityCache, CacheBudget, CacheMode, RunOptions,
};
use std::path::PathBuf;

fn opts(seed: u64) -> RunOptions {
    RunOptions {
        seed,
        threads: 2,
        ..RunOptions::quick()
    }
}

fn disk_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("ptb-cache-evict-{tag}-{}", std::process::id()))
}

/// Tracked bytes must survive arbitrary eviction exactly.
fn assert_accounting(cache: &ActivityCache) {
    assert_eq!(
        cache.resident_bytes(),
        cache.recounted_bytes(),
        "tracked bytes must equal the sum over live entries"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Sweeps under (a) the chaos failpoint flushing entries with
    /// probability p mid-sweep and (b) a near-zero memory budget
    /// evicting on every insert both produce rows bit-identical to an
    /// unbudgeted, unflushed cache — and the byte accounting stays
    /// exact throughout.
    #[test]
    fn evicted_sweeps_are_bit_identical(
        seed in 0u64..1_000_000,
        flip in 0usize..3, // 0: chaos flush, 1: tiny budget, 2: both
    ) {
        let spec = spikegen::dvs_gesture();
        let tws = [1u32, 4, 16];
        let policy = Policy::ptb_with_stsap();
        let base = opts(seed);

        let reference = {
            let cache = ActivityCache::new(CacheMode::Mem);
            sweep_summary_cached(&spec, policy, &tws, &base, &cache)
        };

        let budget = if flip >= 1 {
            CacheBudget { mem_bytes: Some(1), disk_bytes: None }
        } else {
            CacheBudget::unlimited()
        };
        if flip != 1 {
            failpoint::set("cache_evict", "err:0.4").unwrap();
        }
        let dir = disk_dir(&format!("prop-{seed}-{flip}"));
        let cache = ActivityCache::with_budget(CacheMode::Mem, &dir, budget);
        let rows = sweep_summary_cached(&spec, policy, &tws, &base, &cache);
        failpoint::clear("cache_evict");

        assert_accounting(&cache);
        if flip >= 1 {
            prop_assert!(cache.stats().evictions > 0, "1-byte budget must evict");
        }
        prop_assert_eq!(reference.len(), rows.len());
        for (a, b) in reference.iter().zip(&rows) {
            prop_assert_eq!(a.tw, b.tw);
            prop_assert_eq!(a.energy_j.to_bits(), b.energy_j.to_bits(), "energy bits");
            prop_assert_eq!(a.seconds.to_bits(), b.seconds.to_bits(), "seconds bits");
            prop_assert_eq!(a.edp.to_bits(), b.edp.to_bits(), "edp bits");
        }
    }
}

/// Disk mode under chaos eviction: flushed memory entries fall back to
/// verified disk hits (or regeneration), still bit-identically, and the
/// directory obeys its quota.
#[test]
fn disk_mode_evictions_stay_bit_identical_and_bounded() {
    let spec = spikegen::dvs_gesture();
    let tws = [1u32, 2, 8];
    let base = opts(99);
    let reference = {
        let cache = ActivityCache::new(CacheMode::Mem);
        sweep_summary_cached(&spec, Policy::ptb(), &tws, &base, &cache)
    };

    let dir = disk_dir("disk");
    let _ = std::fs::remove_dir_all(&dir);
    // A disk budget two entries wide: stores must sweep the rest.
    let budget = CacheBudget {
        mem_bytes: Some(1),
        disk_bytes: Some(256 * 1024),
    };
    failpoint::set("cache_evict", "err:0.5").unwrap();
    let cache = ActivityCache::with_budget(CacheMode::Disk, &dir, budget);
    let rows = sweep_summary_cached(&spec, Policy::ptb(), &tws, &base, &cache);
    failpoint::clear("cache_evict");

    assert_accounting(&cache);
    assert!(cache.stats().evictions > 0);
    let disk_total: u64 = std::fs::read_dir(&dir)
        .map(|rd| {
            rd.flatten()
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0);
    assert!(
        disk_total <= 256 * 1024,
        "disk store must obey its quota (got {disk_total})"
    );
    for (a, b) in reference.iter().zip(&rows) {
        assert_eq!(a.energy_j.to_bits(), b.energy_j.to_bits());
        assert_eq!(a.seconds.to_bits(), b.seconds.to_bits());
        assert_eq!(a.edp.to_bits(), b.edp.to_bits());
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Chaos eviction mid-sweep drops prepared layers together with their
/// memoized TW-invariant reports: sweeps that fill and then reuse the
/// memo still match uncached rows bit for bit.
#[test]
fn evicted_report_memos_recompute_bit_identically() {
    let spec = spikegen::dvs_gesture();
    let tws = [1u32, 2, 4, 8, 16, 32, 64];
    let base = opts(314);
    for policy in [Policy::BaselineTemporal, Policy::TimeSerial] {
        let reference = sweep_summary_cached(
            &spec,
            policy,
            &tws,
            &base,
            &ActivityCache::new(CacheMode::Off),
        );
        failpoint::set("cache_evict", "err:0.5").unwrap();
        let cache = ActivityCache::new(CacheMode::Mem);
        let first = sweep_summary_cached(&spec, policy, &tws, &base, &cache);
        let second = sweep_summary_cached(&spec, policy, &tws, &base, &cache);
        failpoint::clear("cache_evict");
        assert_accounting(&cache);
        assert_eq!(first, reference, "{}", policy.label());
        assert_eq!(second, reference, "{}", policy.label());
    }
}
