//! Ablation — per-layer (fine-grained) TW optimization.
//!
//! Section VII notes that "layerwise fine-grained optimization is
//! possible if the optimal TW size is chosen offline". This ablation
//! measures that headroom: the EDP of the best single global TW versus
//! choosing each layer's TW independently, per network.

use ptb_accel::config::Policy;
use ptb_bench::{network_reports, RunOptions};

fn main() {
    let opts = RunOptions::from_env();
    let tws = [1u32, 2, 4, 8, 16, 32, 64];
    // Activity is TW-invariant: one cache serves the whole sweep.
    let cache = opts.new_cache();
    println!("=== Ablation: global vs per-layer TW choice (PTB+StSAP) ===\n");
    for net in spikegen::datasets::all_benchmarks() {
        // One sweep, reused for both aggregations.
        let reports = network_reports(&net, Policy::ptb_with_stsap(), &tws, &opts, &cache);
        let runs: Vec<_> = tws.iter().zip(&reports).collect();

        let (best_tw, best_global) = runs
            .iter()
            .map(|&(&tw, r)| (tw, r.total_edp()))
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .expect("sweep non-empty");

        // Per-layer optimum: for each layer pick the TW minimizing its EDP.
        let n_layers = net.layers.len();
        let mut per_layer_edp = 0.0;
        let mut choices = Vec::with_capacity(n_layers);
        for li in 0..n_layers {
            let (tw, edp) = runs
                .iter()
                .map(|&(&tw, r)| (tw, r.layers[li].1.edp()))
                .min_by(|a, b| a.1.total_cmp(&b.1))
                .expect("sweep non-empty");
            per_layer_edp += edp;
            choices.push((net.layers[li].name.clone(), tw));
        }

        println!("{}:", net.name);
        println!("  best global TW = {best_tw}: EDP {best_global:.3e} J*s");
        print!("  per-layer TWs: ");
        for (name, tw) in &choices {
            print!("{name}={tw} ");
        }
        println!();
        println!(
            "  per-layer EDP {per_layer_edp:.3e} J*s -> {:.1}% below the global optimum\n",
            100.0 * (1.0 - per_layer_edp / best_global)
        );
    }
    println!("conclusion: per-layer TW selection buys a modest further gain on");
    println!("top of the global optimum — largest for networks whose early and");
    println!("late layers pull toward opposite TW sizes (Section VI-B1).");
}
