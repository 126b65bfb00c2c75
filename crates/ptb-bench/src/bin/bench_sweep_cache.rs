//! Records cold (cache off) vs. warm (cache on) wall time of the
//! Fig. 10-style TW sweep and writes `BENCH_sweep_cache.json`.
//!
//! The cold pass runs the full three-policy sweep of every benchmark
//! network with `CacheMode::Off` — every sweep point regenerates its
//! activity, the historical behavior. The warm pass repeats the
//! identical sweep with one shared `CacheMode::Mem` cache, so activity
//! is generated once per layer and later TW points re-simulate
//! incrementally. The two passes' reports are asserted bit-identical
//! before any timing is recorded, so the file doubles as an end-to-end
//! determinism check of the cache.
//!
//! Honors `PTB_QUICK=1` (cropped layers, shortened period) like every
//! other experiment binary; `PTB_CACHE` is deliberately ignored — both
//! modes are always measured.

use std::time::Instant;

use ptb_accel::config::Policy;
use ptb_bench::{exit_on_findings, network_reports, ActivityCache, CacheMode, RunOptions};
use serde::Serialize;
use spikegen::NetworkSpec;

#[derive(Serialize)]
struct NetworkTiming {
    network: String,
    cold_ms: f64,
    warm_ms: f64,
    speedup: f64,
    reports_identical: bool,
    cache_mem_hits: u64,
    cache_misses: u64,
}

#[derive(Serialize)]
struct BenchReport {
    description: String,
    host_cores: usize,
    /// Threads each network run drains its layers on.
    drainers: usize,
    quick_mode: bool,
    tw_sizes: Vec<u64>,
    policies: Vec<String>,
    networks: Vec<NetworkTiming>,
    total_cold_ms: f64,
    total_warm_ms: f64,
    overall_speedup: f64,
}

/// The fig10/fig11 sweep shape: baseline once, then PTB and PTB+StSAP
/// at every TW size, all through `cache`. Returns every report in a
/// fixed order so cold and warm passes compare element-wise; exits
/// nonzero on any audit finding.
fn sweep(
    net: &NetworkSpec,
    tws: &[u32],
    opts: &RunOptions,
    cache: &ActivityCache,
) -> Vec<ptb_accel::NetworkReport> {
    let run = |policy, tws: &[u32]| {
        let (reports, audit) = network_reports(net, policy, tws, opts, cache);
        exit_on_findings(&audit);
        reports
    };
    let mut reports = run(Policy::BaselineTemporal, &[1]);
    for &tw in tws {
        reports.extend(run(Policy::ptb(), &[tw]));
        reports.extend(run(Policy::ptb_with_stsap(), &[tw]));
    }
    reports
}

fn main() {
    let opts = RunOptions::from_env();
    let quick = std::env::var("PTB_QUICK")
        .map(|v| v == "1")
        .unwrap_or(false);
    let host_cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let tws = [1u32, 2, 4, 8, 16, 32, 64];

    let mut networks = Vec::new();
    let mut total_cold = 0.0;
    let mut total_warm = 0.0;
    for net in spikegen::datasets::all_benchmarks() {
        // Correctness first: the two modes must agree bit-for-bit.
        let off = ActivityCache::new(CacheMode::Off);
        let mem = ActivityCache::new(CacheMode::Mem);
        let t0 = Instant::now();
        let cold_reports = sweep(&net, &tws, &opts, &off);
        let cold_ms = t0.elapsed().as_secs_f64() * 1e3;
        let t0 = Instant::now();
        let warm_reports = sweep(&net, &tws, &opts, &mem);
        let warm_ms = t0.elapsed().as_secs_f64() * 1e3;
        let identical = cold_reports == warm_reports;
        assert!(
            identical,
            "{}: cached sweep changed a report — determinism violation",
            net.name
        );
        let stats = mem.stats();
        total_cold += cold_ms;
        total_warm += warm_ms;
        println!(
            "{:<12} cold {:>9.1} ms  warm {:>9.1} ms  speedup {:>5.2}x  \
             (cache: {} misses, {} hits)",
            net.name,
            cold_ms,
            warm_ms,
            cold_ms / warm_ms.max(1e-9),
            stats.misses,
            stats.mem_hits,
        );
        networks.push(NetworkTiming {
            network: net.name.clone(),
            cold_ms,
            warm_ms,
            speedup: cold_ms / warm_ms.max(1e-9),
            reports_identical: identical,
            cache_mem_hits: stats.mem_hits,
            cache_misses: stats.misses,
        });
    }

    let report = BenchReport {
        description: "full three-policy TW sweep (baseline + PTB + PTB+StSAP at 7 TW \
                      sizes) per benchmark network: cold = PTB_CACHE=off (regenerate \
                      every point), warm = one shared in-memory ActivityCache; reports \
                      asserted bit-identical before timing"
            .to_string(),
        host_cores,
        drainers: ptb_bench::pool_size(),
        quick_mode: quick,
        tw_sizes: tws.iter().map(|&t| u64::from(t)).collect(),
        policies: vec![
            "baseline".to_string(),
            "ptb".to_string(),
            "ptb+stsap".to_string(),
        ],
        networks,
        total_cold_ms: total_cold,
        total_warm_ms: total_warm,
        overall_speedup: total_cold / total_warm.max(1e-9),
    };
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write("BENCH_sweep_cache.json", &json).expect("can write BENCH_sweep_cache.json");
    println!(
        "wrote BENCH_sweep_cache.json: {} networks, {} host cores, overall speedup {:.2}x",
        report.networks.len(),
        host_cores,
        report.overall_speedup
    );
}
