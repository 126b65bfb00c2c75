//! Figure 12 — discussion experiments:
//! (a) firing-rate ranges of well-trained networks;
//! (b) PTB energy-efficiency scaling with sparsity level, and the
//!     SNN-vs-ANN comparison on the CIFAR10 CNN (paper: 14.6x energy,
//!     3.3x latency, 47x EDP in the SNN's favor);
//! (c) PTB generality across neuron models and layer types (validated
//!     bit-exactly against the serial reference dynamics).

use ptb_accel::config::{Policy, SimInputs};
use ptb_accel::reference::{batched_neuron_forward, serial_neuron_forward};
use ptb_accel::sim::simulate_layer;
use ptb_bench::{network_reports, RunOptions};
use snn_core::neuron::NeuronConfig;
use snn_core::spike::SpikeTensor;

fn main() {
    let opts = RunOptions::from_env();
    // Each sparsity level rewrites the profiles (fresh cache keys), but
    // the SNN and event-driven runs at one level share generation.
    let cache = opts.new_cache();

    // ---------------------------------------------------------- (a)
    println!("=== Fig. 12(a): firing rates of well-trained networks ===");
    for net in spikegen::datasets::all_benchmarks() {
        let rates: Vec<f64> = net
            .layers
            .iter()
            .enumerate()
            .map(|(i, l)| {
                let n = l.shape.ifmap_neurons().min(10_000);
                l.input_profile.generate(n, 64, i as u64).density()
            })
            .collect();
        let lo = rates.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = rates.iter().copied().fold(0.0f64, f64::max);
        println!(
            "{:<12} layer mean rates {:.1}%..{:.1}% (paper: ~1-15%)",
            net.name,
            lo * 100.0,
            hi * 100.0
        );
    }

    // ---------------------------------------------------------- (b)
    // Sparsity scaling on a long-period workload (CIFAR10-DVS, T=100):
    // PTB's windowed weight reuse pays off more the more often neurons
    // fire, versus an event-driven design that refetches per spike.
    println!("\n=== Fig. 12(b): PTB benefit vs sparsity level (CIFAR10-DVS net) ===");
    let dvs = spikegen::cifar10_dvs();
    println!(
        "{:>10} {:>16} {:>16} {:>16}",
        "fire-rate", "E vs event-drv", "D vs event-drv", "EDP vs evt-drv"
    );
    for rate in [0.01, 0.03, 0.05, 0.10, 0.15] {
        let mut net = dvs.clone();
        for l in &mut net.layers {
            l.input_profile = l.input_profile.with_mean_rate(rate);
        }
        let snn = network_reports(&net, Policy::ptb_with_stsap(), &[8], &opts, &cache).remove(0);
        let ev = network_reports(&net, Policy::EventDriven, &[1], &opts, &cache).remove(0);
        println!(
            "{:>9.0}% {:>15.1}x {:>15.1}x {:>15.1}x",
            rate * 100.0,
            ev.total_energy_joules() / snn.total_energy_joules(),
            ev.total_seconds() / snn.total_seconds(),
            ev.total_edp() / snn.total_edp(),
        );
    }
    println!("(paper: benefit grows with firing rate — low sparsity increases");
    println!(" PTB benefits — and remains ~28x energy even at 1% rates)");

    // SNN-vs-ANN headline on the CIFAR10 CNN trained with TSSL-BP
    // (few-time-step inference, T = 8).
    println!("\n--- SNN (PTB) vs ANN accelerator, CIFAR10 CNN [47]/[20] ---");
    let cnn = spikegen::datasets::cifar10_cnn();
    let ann = network_reports(&cnn, Policy::Ann, &[1], &opts, &cache).remove(0);
    let snn = network_reports(&cnn, Policy::ptb_with_stsap(), &[8], &opts, &cache).remove(0);
    println!(
        "ANN: {:.3} mJ, {:.3} ms | SNN+PTB: {:.3} mJ, {:.3} ms",
        ann.total_energy_joules() * 1e3,
        ann.total_seconds() * 1e3,
        snn.total_energy_joules() * 1e3,
        snn.total_seconds() * 1e3
    );
    println!(
        "SNN wins energy {:.1}x, latency {:.1}x, EDP {:.1}x  (paper: 14.6x / 3.3x / 47x)",
        ann.total_energy_joules() / snn.total_energy_joules(),
        ann.total_seconds() / snn.total_seconds(),
        ann.total_edp() / snn.total_edp(),
    );

    // ---------------------------------------------------------- (c)
    println!("\n=== Fig. 12(c): PTB generality across models and layers ===");
    let spikes = SpikeTensor::from_fn(32, 50, |n, t| (n * 3 + t * 7) % 11 == 0);
    let weights: Vec<f32> = (0..32).map(|i| (i as f32 - 16.0) / 40.0).collect();
    for (name, cfg) in [
        ("LIF", NeuronConfig::lif(0.5, 0.02)),
        ("IF", NeuronConfig::if_model(0.5)),
    ] {
        for tw in [1u32, 4, 8, 16] {
            let batched = batched_neuron_forward(&weights, &spikes, cfg, tw, 8);
            let serial = serial_neuron_forward(&weights, &spikes, cfg);
            assert_eq!(batched, serial);
            println!("  {name:<4} TW={tw:<3} batched Step A/B == serial reference: OK");
        }
    }
    // CONV and FC layers both schedule (FC = 1x1-output CONV).
    let fc = snn_core::shape::ConvShape::new(1, 1, 128, 64, 1).unwrap();
    let conv = snn_core::shape::ConvShape::new(8, 3, 8, 16, 1).unwrap();
    for (label, shape) in [("FC", fc), ("CONV", conv)] {
        let input = SpikeTensor::from_fn(shape.ifmap_neurons(), 64, |n, t| (n + t) % 9 == 0);
        let r = simulate_layer(&SimInputs::hpca22(8), Policy::ptb(), shape, &input);
        println!(
            "  {label:<4} layer scheduled under PTB: {} cycles, {:.3} uJ",
            r.cycles,
            r.energy.total_pj() / 1e6
        );
    }
    println!("\npaper's claim reproduced: Step A needs no post-synaptic state,");
    println!("so batching never violates causality — PTB applies to LIF and IF");
    println!("neurons and to FC and CONV layers alike.");
}
