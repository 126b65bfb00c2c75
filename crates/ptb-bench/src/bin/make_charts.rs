//! Renders the headline figures as SVG charts under `results/`:
//!
//! * `fig09a.svg` — energy breakdown vs TW (DVS-Gesture CONV2),
//! * `fig11.svg` — normalized EDP vs TW per network (log y),
//! * `fig12b.svg` — PTB-vs-event-driven benefit vs firing rate.
//!
//! Numeric table views of the same data live in the sibling
//! `results/*.txt` files written by `all_experiments`.

use ptb_accel::config::{Policy, SimInputs};
use ptb_accel::sim::simulate_layer;
use ptb_bench::plot::LineChart;
use ptb_bench::{run_network_cached, RunOptions};
use systolic_sim::DataKind;

fn tw_ticks(tws: &[u32]) -> Vec<(f64, String)> {
    tws.iter()
        .map(|&tw| (f64::from(tw).log2(), tw.to_string()))
        .collect()
}

fn main() {
    std::fs::create_dir_all("results").expect("can create results dir");
    let opts = RunOptions::from_env();
    // One cache for all three charts — the fig11 sweep dominates and
    // shares generated activity across its baseline and PTB runs.
    let cache = opts.new_cache();
    let tws: Vec<u32> = SimInputs::tw_sweep().to_vec();

    // ------------------------------------------------ Fig. 9(a)
    let net = spikegen::dvs_gesture();
    let conv2 = &net.layers[1];
    let timesteps = opts
        .max_timesteps
        .map_or(net.timesteps, |cap| net.timesteps.min(cap));
    // Use a cropped shape consistent with the sampled activity; the
    // prepared layer reuses its activity across the TW sweep.
    let shape =
        snn_core::shape::ConvShape::with_padding(16, 3, 64, conv2.shape.out_channels(), 1, 1)
            .expect("cropped CONV2 is valid");
    let prep = cache.layer(conv2, shape, timesteps, 42);
    let mut weight_pts = Vec::new();
    let mut input_pts = Vec::new();
    let mut total_pts = Vec::new();
    for &tw in &tws {
        let r = simulate_layer(&SimInputs::hpca22(tw), Policy::ptb(), shape, prep.spikes());
        let x = f64::from(tw).log2();
        weight_pts.push((x, r.energy.kind_pj(DataKind::Weight) / 1e6));
        input_pts.push((x, r.energy.kind_pj(DataKind::InputSpike) / 1e6));
        total_pts.push((x, r.energy.total_pj() / 1e6));
    }
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

    // ------------------------------------------------ Fig. 11
    let mut chart = LineChart::new(
        "Fig. 11 — total EDP vs time-window size, normalized to baseline [14]",
        "time-window size (log2 axis)",
        "EDP / baseline (log scale)",
    )
    .log_y()
    .x_ticks(tw_ticks(&tws));
    for net in spikegen::datasets::all_benchmarks() {
        let base = run_network_cached(&net, Policy::BaselineTemporal, 1, &opts, &cache).total_edp();
        let pts: Vec<(f64, f64)> = tws
            .iter()
            .map(|&tw| {
                let edp = run_network_cached(&net, Policy::ptb_with_stsap(), tw, &opts, &cache)
                    .total_edp();
                (f64::from(tw).log2(), edp / base)
            })
            .collect();
        chart = chart.series(net.name.clone(), pts);
    }
    chart
        .write_svg("results/fig11.svg")
        .expect("can write fig11.svg");

    // ------------------------------------------------ Fig. 12(b)
    let rates = [0.01, 0.03, 0.05, 0.10, 0.15];
    let dvs = spikegen::cifar10_dvs();
    let mut energy_pts = Vec::new();
    let mut edp_pts = Vec::new();
    for &rate in &rates {
        let mut net = dvs.clone();
        for l in &mut net.layers {
            l.input_profile = l.input_profile.with_mean_rate(rate);
        }
        let snn = run_network_cached(&net, Policy::ptb_with_stsap(), 8, &opts, &cache);
        let ev = run_network_cached(&net, Policy::EventDriven, 1, &opts, &cache);
        energy_pts.push((
            rate * 100.0,
            ev.total_energy_joules() / snn.total_energy_joules(),
        ));
        edp_pts.push((rate * 100.0, ev.total_edp() / snn.total_edp()));
    }
    LineChart::new(
        "Fig. 12(b) — PTB benefit over event-driven vs firing rate",
        "mean firing rate (%)",
        "improvement (x)",
    )
    .x_ticks(
        rates
            .iter()
            .map(|&r| (r * 100.0, format!("{:.0}", r * 100.0)))
            .collect(),
    )
    .series("energy", energy_pts)
    .series("EDP", edp_pts)
    .write_svg("results/fig12b.svg")
    .expect("can write fig12b.svg");

    println!("wrote results/fig09a.svg, results/fig11.svg, results/fig12b.svg");
}
