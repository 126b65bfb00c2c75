//! Figure 12 — discussion experiments:
//! (a) firing-rate ranges of well-trained networks;
//! (b) PTB energy-efficiency scaling with sparsity level, and the
//!     SNN-vs-ANN comparison on the CIFAR10 CNN (paper: 14.6x energy,
//!     3.3x latency, 47x EDP in the SNN's favor); the sparsity rows are
//!     also drawn as `results/fig12b.svg`;
//! (c) PTB generality across neuron models and layer types (validated
//!     bit-exactly against the serial reference dynamics).
//!
//! Every audited run finishes first: a run the audit flags exits
//! nonzero before anything is printed or drawn.

use ptb_accel::audit::AuditSummary;
use ptb_accel::config::{Policy, SimInputs};
use ptb_accel::reference::{batched_neuron_forward, serial_neuron_forward};
use ptb_accel::report::NetworkReport;
use ptb_accel::sim::simulate_layer;
use ptb_bench::plot::LineChart;
use ptb_bench::{exit_on_findings, network_reports, RunOptions};
use snn_core::neuron::NeuronConfig;
use snn_core::spike::SpikeTensor;

/// Fig. 12(b)'s mean firing rates.
const RATES: [f64; 5] = [0.01, 0.03, 0.05, 0.10, 0.15];

/// Fig. 12(b)'s runs: at each of [`RATES`], CIFAR10-DVS under PTB+StSAP
/// (TW 8) and event-driven; then the CIFAR10 CNN under ANN and
/// PTB+StSAP (TW 8).
struct Fig12b {
    levels: Vec<(NetworkReport, NetworkReport)>,
    ann: NetworkReport,
    snn: NetworkReport,
}

fn main() {
    let opts = RunOptions::from_env();
    // Each sparsity level rewrites the profiles (fresh cache keys), but
    // the SNN and event-driven runs at one level share generation.
    let cache = opts.new_cache();
    let mut audit = AuditSummary::new(opts.verify);
    let mut run = |net: &spikegen::NetworkSpec, policy, tw| {
        let (mut reports, summary) = network_reports(net, policy, &[tw], &opts, &cache);
        audit.merge(summary);
        reports.remove(0)
    };
    // Sparsity scaling on a long-period workload (CIFAR10-DVS, T=100):
    // PTB's windowed weight reuse pays off more the more often neurons
    // fire, versus an event-driven design that refetches per spike.
    let dvs = spikegen::cifar10_dvs();
    let levels = RATES
        .iter()
        .map(|&rate| {
            let mut net = dvs.clone();
            for l in &mut net.layers {
                l.input_profile = l.input_profile.with_mean_rate(rate);
            }
            let snn = run(&net, Policy::ptb_with_stsap(), 8);
            (snn, run(&net, Policy::EventDriven, 1))
        })
        .collect();
    // SNN-vs-ANN headline on the CIFAR10 CNN trained with TSSL-BP
    // (few-time-step inference, T = 8).
    let cnn = spikegen::datasets::cifar10_cnn();
    let ann = run(&cnn, Policy::Ann, 1);
    let snn = run(&cnn, Policy::ptb_with_stsap(), 8);
    // Nothing is printed or drawn from runs the audit flagged.
    exit_on_findings(&audit);
    fig12a();
    fig12b(&Fig12b { levels, ann, snn });
    fig12c();
}

fn fig12a() {
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
}

fn fig12b(runs: &Fig12b) {
    println!("\n=== Fig. 12(b): PTB benefit vs sparsity level (CIFAR10-DVS net) ===");
    println!(
        "{:>10} {:>16} {:>16} {:>16}",
        "fire-rate", "E vs event-drv", "D vs event-drv", "EDP vs evt-drv"
    );
    let (mut energy_pts, mut edp_pts) = (Vec::new(), Vec::new());
    for (rate, (snn, ev)) in RATES.into_iter().zip(&runs.levels) {
        let energy = ev.total_energy_joules() / snn.total_energy_joules();
        let edp = ev.total_edp() / snn.total_edp();
        println!(
            "{:>9.0}% {:>15.1}x {:>15.1}x {:>15.1}x",
            rate * 100.0,
            energy,
            ev.total_seconds() / snn.total_seconds(),
            edp,
        );
        energy_pts.push((rate * 100.0, energy));
        edp_pts.push((rate * 100.0, edp));
    }
    std::fs::create_dir_all("results").expect("can create results dir");
    LineChart::new(
        "Fig. 12(b) — PTB benefit over event-driven vs firing rate",
        "mean firing rate (%)",
        "improvement (x)",
    )
    .x_ticks(
        RATES
            .iter()
            .map(|&r| (r * 100.0, format!("{:.0}", r * 100.0)))
            .collect(),
    )
    .series("energy", energy_pts)
    .series("EDP", edp_pts)
    .write_svg("results/fig12b.svg")
    .expect("can write fig12b.svg");
    println!("(paper: benefit grows with firing rate — low sparsity increases");
    println!(" PTB benefits — and remains ~28x energy even at 1% rates)");

    println!("\n--- SNN (PTB) vs ANN accelerator, CIFAR10 CNN [47]/[20] ---");
    let (ann, snn) = (&runs.ann, &runs.snn);
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
}

fn fig12c() {
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
