//! `verify_sweep` — audited end-to-end sweep over the four benchmark
//! networks, the CI hook for the runtime verification layer.
//!
//! ```text
//! cargo run --release -p ptb-bench --bin verify_sweep -- \
//!     [--level off|sample|full] [--expect-findings] [--bench]
//! ```
//!
//! Runs the TW sweeps of DVS-Gesture, CIFAR10-DVS, AlexNet and CIFAR10
//! (whose `T = 8` makes TW 16 and 64 single-window) under every policy
//! ([`Policy::all`]: PTB, PTB+StSAP, baseline \[14\], time-serial, ANN
//! and event-driven) through
//! [`ptb_bench::sweep_reports`] at the chosen audit level (default: `PTB_VERIFY`, falling back to `full`) and
//! prints a JSON summary of coverage counters and findings. At `full`
//! every layer of every sweep is diffed against the serial per-tap
//! oracle, so each production kernel path is checked on the
//! networks' real shapes. The exit
//! code is the contract: `0` when every audit is clean, `1` when any
//! finding survives — inverted under `--expect-findings`, which CI uses
//! with an armed corruption failpoint (e.g.
//! `PTB_FAILPOINTS="cache_load_flip=err" PTB_CACHE=disk`) to prove the
//! audit actually catches injected bit flips rather than silently
//! passing everything.
//!
//! `--bench` instead times the PTB+StSAP sweep at *all three* levels
//! and writes `BENCH_verify.json` (off must be within noise of the
//! unverified harness — it takes the same code path — and the file
//! records what sample/full cost on top).
//!
//! Honors `PTB_QUICK=1` and `PTB_CACHE` like every other experiment
//! binary. Each sweep drains its (TW point, layer) items on one thread
//! per core; run under `taskset -c 0` to time it on one.

use std::time::Instant;

use ptb_accel::audit::{AuditLevel, AuditSummary};
use ptb_accel::config::Policy;
use ptb_bench::{sweep_reports, RunOptions};
use serde::Serialize;
use spikegen::NetworkSpec;

/// TW sizes swept per workload: the small/medium/large corners of the
/// paper's sweep, enough to exercise single-window, multi-tile, and
/// full-array schedules without full-sweep cost at `full` verification.
const TWS: [u32; 4] = [1, 4, 16, 64];

#[derive(Serialize)]
struct NetworkAudit {
    network: String,
    policy: String,
    wall_ms: f64,
    layers_checked: u64,
    tiles_checked: u64,
    neurons_replayed: u64,
    activity_checked: u64,
    saturated: u64,
    mismatches: u64,
    findings: Vec<String>,
}

#[derive(Serialize)]
struct VerifyReport {
    level: String,
    quick_mode: bool,
    /// Threads each sweep drains its (TW point, layer) items on.
    drainers: usize,
    tw_sizes: Vec<u64>,
    policies: Vec<String>,
    networks: Vec<NetworkAudit>,
    total_mismatches: u64,
    clean: bool,
}

#[derive(Serialize)]
struct LevelTiming {
    network: String,
    off_ms: f64,
    sample_ms: f64,
    full_ms: f64,
    sample_overhead: f64,
    full_overhead: f64,
    clean_at_all_levels: bool,
}

#[derive(Serialize)]
struct BenchReport {
    description: String,
    quick_mode: bool,
    /// Threads each sweep drains its (TW point, layer) items on.
    drainers: usize,
    tw_sizes: Vec<u64>,
    policy: String,
    networks: Vec<LevelTiming>,
    total_off_ms: f64,
    total_sample_ms: f64,
    total_full_ms: f64,
}

fn usage() -> ! {
    eprintln!("usage: verify_sweep [--level <off|sample|full>] [--expect-findings] [--bench]");
    std::process::exit(2);
}

/// The four networks the service and the benchmark mix serve.
fn workloads() -> Vec<NetworkSpec> {
    vec![
        spikegen::dvs_gesture(),
        spikegen::cifar10_dvs(),
        spikegen::alexnet(),
        spikegen::datasets::cifar10_cnn(),
    ]
}

/// One audited sweep of `net` under `policy` at `level`; returns wall
/// time and the merged audit outcome.
fn audited_sweep(
    net: &NetworkSpec,
    policy: Policy,
    level: AuditLevel,
    base: &RunOptions,
) -> (f64, AuditSummary) {
    let opts = RunOptions {
        verify: level,
        ..*base
    };
    let cache = opts.new_cache();
    let t0 = Instant::now();
    let mut summary = AuditSummary::new(level);
    for (_, point) in sweep_reports(net, policy, &TWS, &opts, &cache, ptb_bench::pool_size()) {
        summary.merge(point);
    }
    (t0.elapsed().as_secs_f64() * 1e3, summary)
}

fn run_levels(base: &RunOptions, quick: bool) -> ! {
    let mut networks = Vec::new();
    let (mut total_off, mut total_sample, mut total_full) = (0.0, 0.0, 0.0);
    let policy = Policy::ptb_with_stsap();
    for net in workloads() {
        let (off_ms, s_off) = audited_sweep(&net, policy, AuditLevel::Off, base);
        let (sample_ms, s_sample) = audited_sweep(&net, policy, AuditLevel::Sample, base);
        let (full_ms, s_full) = audited_sweep(&net, policy, AuditLevel::Full, base);
        let clean = s_off.is_clean() && s_sample.is_clean() && s_full.is_clean();
        assert!(
            clean,
            "{}: audit must be clean while benchmarking overhead",
            net.name
        );
        println!(
            "{:<12} off {:>9.1} ms  sample {:>9.1} ms ({:.2}x)  full {:>9.1} ms ({:.2}x)",
            net.name,
            off_ms,
            sample_ms,
            sample_ms / off_ms.max(1e-9),
            full_ms,
            full_ms / off_ms.max(1e-9),
        );
        total_off += off_ms;
        total_sample += sample_ms;
        total_full += full_ms;
        networks.push(LevelTiming {
            network: net.name.clone(),
            off_ms,
            sample_ms,
            full_ms,
            sample_overhead: sample_ms / off_ms.max(1e-9),
            full_overhead: full_ms / off_ms.max(1e-9),
            clean_at_all_levels: clean,
        });
    }
    let report = BenchReport {
        description: "PTB+StSAP TW sweep (tws 1/4/16/64) per paper workload through \
                      sweep_reports at PTB_VERIFY=off/sample/full; audits \
                      asserted clean before timing, overheads relative to off"
            .to_string(),
        quick_mode: quick,
        drainers: ptb_bench::pool_size(),
        tw_sizes: TWS.iter().map(|&t| u64::from(t)).collect(),
        policy: policy.label().to_string(),
        networks,
        total_off_ms: total_off,
        total_sample_ms: total_sample,
        total_full_ms: total_full,
    };
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write("BENCH_verify.json", &json).expect("can write BENCH_verify.json");
    println!(
        "wrote BENCH_verify.json: sample {:.2}x, full {:.2}x over off",
        total_sample / total_off.max(1e-9),
        total_full / total_off.max(1e-9),
    );
    std::process::exit(0);
}

fn main() {
    let mut level = None;
    let mut expect_findings = false;
    let mut bench = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--level" => {
                let value = it.next().unwrap_or_else(|| usage());
                level = Some(AuditLevel::parse(&value).unwrap_or_else(|| {
                    eprintln!("unknown audit level {value:?}");
                    usage()
                }));
            }
            "--expect-findings" => expect_findings = true,
            "--bench" => bench = true,
            _ => usage(),
        }
    }
    let base = RunOptions::from_env();
    let quick = std::env::var("PTB_QUICK")
        .map(|v| v == "1")
        .unwrap_or(false);
    if bench {
        run_levels(&base, quick);
    }
    // Without an explicit --level, PTB_VERIFY picks it, and a verifier
    // binary defaults to actually verifying.
    let level = level.unwrap_or_else(|| match AuditLevel::from_env() {
        AuditLevel::Off => AuditLevel::Full,
        on => on,
    });

    let mut networks = Vec::new();
    let mut total_mismatches = 0u64;
    for net in workloads() {
        for policy in Policy::all() {
            let (wall_ms, summary) = audited_sweep(&net, policy, level, &base);
            total_mismatches += summary.mismatches;
            networks.push(NetworkAudit {
                network: net.name.clone(),
                policy: policy.label().to_string(),
                wall_ms,
                layers_checked: summary.layers_checked,
                tiles_checked: summary.tiles_checked,
                neurons_replayed: summary.neurons_replayed,
                activity_checked: summary.activity_checked,
                saturated: summary.saturated,
                mismatches: summary.mismatches,
                findings: summary.findings.iter().map(|f| f.to_string()).collect(),
            });
        }
    }
    let clean = total_mismatches == 0;
    let report = VerifyReport {
        level: level.label().to_string(),
        quick_mode: quick,
        drainers: ptb_bench::pool_size(),
        tw_sizes: TWS.iter().map(|&t| u64::from(t)).collect(),
        policies: Policy::all().map(|p| p.label().to_string()).into(),
        networks,
        total_mismatches,
        clean,
    };
    println!(
        "{}",
        serde_json::to_string_pretty(&report).expect("report serializes")
    );
    let pass = if expect_findings { !clean } else { clean };
    if !pass {
        eprintln!(
            "verify_sweep: FAIL — {} mismatches at level {} (expect_findings={})",
            total_mismatches,
            level.label(),
            expect_findings,
        );
        std::process::exit(1);
    }
}
