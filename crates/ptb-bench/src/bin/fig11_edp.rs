//! Figure 11 — total normalized EDP of the three benchmarks versus TW
//! size, and the paper's headline: average EDP improvement over the
//! baseline \[14\] at the per-network optimal TW.
//!
//! Paper values: 172x (DVS-Gesture), 198x (CIFAR10-DVS), 373x (AlexNet),
//! 248x average; optimum at TW = 8 for the two DVS models and larger for
//! AlexNet.

use ptb_accel::config::Policy;
use ptb_bench::{network_reports, RunOptions};

fn main() {
    let opts = RunOptions::from_env();
    let tws = [1u32, 2, 4, 8, 16, 32, 64];
    // Share generated activity across the baseline run and both PTB
    // sweeps (bit-identical results; see ptb_bench::cache).
    let cache = opts.new_cache();
    let mut improvements = Vec::new();
    for net in spikegen::datasets::all_benchmarks() {
        let base = network_reports(&net, Policy::BaselineTemporal, &[1], &opts, &cache).remove(0);
        println!(
            "=== Fig. 11: {} (baseline EDP {:.3e} J·s) ===",
            net.name,
            base.total_edp()
        );
        println!(
            "{:>4} {:>14} {:>14} {:>12}",
            "TW", "EDP (PTB)", "EDP(+StSAP)", "norm(+StSAP)"
        );
        let ptb_runs = network_reports(&net, Policy::ptb(), &tws, &opts, &cache);
        let stsap_runs = network_reports(&net, Policy::ptb_with_stsap(), &tws, &opts, &cache);
        let mut best: Option<(u32, f64)> = None;
        for ((&tw, ptb), st) in tws.iter().zip(&ptb_runs).zip(&stsap_runs) {
            let norm = st.total_edp() / base.total_edp();
            println!(
                "{:>4} {:>14.3e} {:>14.3e} {:>12.5}",
                tw,
                ptb.total_edp(),
                st.total_edp(),
                norm
            );
            if best.is_none_or(|(_, b)| st.total_edp() < b) {
                best = Some((tw, st.total_edp()));
            }
        }
        let (tw_opt, edp_opt) = best.expect("sweep is non-empty");
        let improvement = base.total_edp() / edp_opt;
        println!(
            "optimal TW = {tw_opt}: EDP improvement {improvement:.1}x (paper: {})\n",
            match net.name.as_str() {
                "DVS-Gesture" => "172x @ TW=8",
                "CIFAR10-DVS" => "198x @ TW=8",
                _ => "373x, larger optimal TW",
            }
        );
        improvements.push(improvement);
    }
    let avg = improvements.iter().sum::<f64>() / improvements.len() as f64;
    println!("average EDP improvement over baseline [14]: {avg:.1}x (paper: 248x)");
}
