//! Statistical robustness of the headline numbers: the synthetic
//! activity is sampled, so the EDP improvements must be stable across
//! seeds for the reproduction's claims to mean anything. Runs the
//! DVS-Gesture PTB-vs-baseline comparison across several seeds and
//! reports mean, spread, and the min/max improvement.

use ptb_accel::config::Policy;
use ptb_bench::{network_reports, RunOptions};

fn main() {
    let base_opts = RunOptions::from_env();
    // Seeds key the cache, so cross-seed runs never alias; within one
    // seed the baseline and PTB runs share generated activity.
    let cache = base_opts.new_cache();
    let seeds: &[u64] = &[1, 7, 42, 1234, 98765];
    println!("=== Variance check: DVS-Gesture EDP improvement across seeds ===");
    println!(
        "{:>8} {:>16} {:>16} {:>12}",
        "seed", "baseline EDP", "PTB+StSAP EDP", "improvement"
    );
    let net = spikegen::dvs_gesture();
    let mut improvements = Vec::new();
    for &seed in seeds {
        let opts = RunOptions { seed, ..base_opts };
        let base = network_reports(&net, Policy::BaselineTemporal, &[1], &opts, &cache).remove(0);
        let ptb = network_reports(&net, Policy::ptb_with_stsap(), &[8], &opts, &cache).remove(0);
        let imp = base.total_edp() / ptb.total_edp();
        println!(
            "{:>8} {:>16.3e} {:>16.3e} {:>11.1}x",
            seed,
            base.total_edp(),
            ptb.total_edp(),
            imp
        );
        improvements.push(imp);
    }
    let mean = improvements.iter().sum::<f64>() / improvements.len() as f64;
    let var = improvements
        .iter()
        .map(|x| (x - mean) * (x - mean))
        .sum::<f64>()
        / improvements.len() as f64;
    let (lo, hi) = (
        improvements.iter().copied().fold(f64::INFINITY, f64::min),
        improvements.iter().copied().fold(0.0f64, f64::max),
    );
    println!(
        "\nmean {:.1}x, std {:.1}, range [{:.1}x, {:.1}x] over {} seeds",
        mean,
        var.sqrt(),
        lo,
        hi,
        seeds.len()
    );
    let cv = var.sqrt() / mean;
    println!(
        "coefficient of variation {:.1}% — the headline is {}",
        cv * 100.0,
        if cv < 0.15 {
            "seed-robust"
        } else {
            "seed-SENSITIVE (investigate)"
        }
    );
}
