//! Records `simulate_layer` wall time over the Fig. 10 layer sweep —
//! the serial per-tap oracle vs. the production kernel, serial and
//! threaded — and writes `BENCH_sim_parallel.json`.
//!
//! Every layer of every benchmark network is simulated under PTB+StSAP
//! at each Fig. 10 TW size three ways: the oracle
//! (`simulate_layer_reference`, which always runs on one thread), the
//! production kernel with `threads = 1`, and the production kernel
//! with one worker per available core (at least two). All three
//! reports are asserted identical — the kernel-equivalence and
//! determinism guarantees of `ptb_accel::sim` — before timing is
//! recorded, so the file doubles as an end-to-end equivalence check.
//! `kernel_speedup = reference_ms / serial_ms` is how much faster the
//! production kernel is than the oracle on one thread, and `speedup =
//! serial_ms / threaded_ms` is what the in-layer worker fan-out buys;
//! `host_cores` records how many cores the host offered.
//!
//! Honors `PTB_QUICK=1` (cropped layers, shortened period),
//! `PTB_THREADS=N` (overrides the worker count), and
//! `PTB_BENCH_OUT=path` (overrides the output path, so CI smoke runs
//! never dirty the checked-in file).

use std::time::Instant;

use ptb_accel::config::{Policy, SimInputs};
use ptb_accel::{simulate_layer, simulate_layer_reference};
use ptb_bench::RunOptions;
use serde::Serialize;

#[derive(Serialize)]
struct LayerTiming {
    network: String,
    layer: String,
    tw: u32,
    /// The serial per-tap oracle.
    reference_ms: f64,
    /// Production kernel, `threads = 1`.
    serial_ms: f64,
    /// Production kernel, one worker per core.
    threaded_ms: f64,
    /// reference_ms / serial_ms — the production kernel's lead over the oracle.
    kernel_speedup: f64,
    /// serial_ms / threaded_ms — the thread-scaling win.
    speedup: f64,
    reports_identical: bool,
}

#[derive(Serialize)]
struct BenchReport {
    description: String,
    host_cores: usize,
    threads: usize,
    quick_mode: bool,
    tw_sizes: Vec<u64>,
    layers: Vec<LayerTiming>,
    /// Total oracle time.
    total_reference_ms: f64,
    /// Total production-kernel serial time.
    total_serial_ms: f64,
    total_threaded_ms: f64,
    /// total_reference_ms / total_serial_ms at matched fidelity.
    kernel_speedup: f64,
    overall_speedup: f64,
}

fn time_ms(mut f: impl FnMut()) -> f64 {
    // Median of three: enough to damp scheduler noise without turning
    // the full sweep into a long run.
    let mut samples = [0.0f64; 3];
    for s in &mut samples {
        let t0 = Instant::now();
        f();
        *s = t0.elapsed().as_secs_f64() * 1e3;
    }
    samples.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
    samples[1]
}

fn main() {
    let opts = RunOptions::from_env();
    let quick = std::env::var("PTB_QUICK")
        .map(|v| v == "1")
        .unwrap_or(false);
    let out_path =
        std::env::var("PTB_BENCH_OUT").unwrap_or_else(|_| "BENCH_sim_parallel.json".to_string());
    let host_cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let threads = if opts.threads > 1 {
        opts.threads
    } else {
        host_cores.max(2)
    };
    let tws = [1u32, 2, 4, 8, 16, 32, 64];

    let mut layers = Vec::new();
    let mut total_reference = 0.0;
    let mut total_serial = 0.0;
    let mut total_threaded = 0.0;
    for net in spikegen::datasets::all_benchmarks() {
        let timesteps = opts
            .max_timesteps
            .map_or(net.timesteps, |cap| net.timesteps.min(cap));
        for (i, layer) in net.layers.iter().enumerate() {
            let shape = opts.effective_shape(layer);
            let activity = layer.input_profile.generate(
                shape.ifmap_neurons(),
                timesteps,
                ptb_bench::layer_seed(opts.seed, i),
            );
            for tw in tws {
                let serial_in = SimInputs::hpca22(tw);
                let threaded_in = serial_in.with_threads(threads);
                let policy = Policy::ptb_with_stsap();
                let a = simulate_layer(&serial_in, policy, shape, &activity);
                let b = simulate_layer(&threaded_in, policy, shape, &activity);
                let r = simulate_layer_reference(&serial_in, policy, shape, &activity);
                let identical = a == b && a == r;
                assert!(
                    identical,
                    "{}/{} tw={tw}: kernel or thread count changed the report",
                    net.name, layer.name
                );
                let reference_ms = time_ms(|| {
                    simulate_layer_reference(&serial_in, policy, shape, &activity);
                });
                let serial_ms = time_ms(|| {
                    simulate_layer(&serial_in, policy, shape, &activity);
                });
                let threaded_ms = time_ms(|| {
                    simulate_layer(&threaded_in, policy, shape, &activity);
                });
                total_reference += reference_ms;
                total_serial += serial_ms;
                total_threaded += threaded_ms;
                layers.push(LayerTiming {
                    network: net.name.clone(),
                    layer: layer.name.clone(),
                    tw,
                    reference_ms,
                    serial_ms,
                    threaded_ms,
                    kernel_speedup: reference_ms / serial_ms.max(1e-9),
                    speedup: serial_ms / threaded_ms.max(1e-9),
                    reports_identical: identical,
                });
            }
        }
    }

    let report = BenchReport {
        description: "simulate_layer wall time over the Fig. 10 layer sweep, PTB+StSAP: \
                      serial per-tap oracle vs production kernel (threads=1) vs production \
                      kernel (threaded); all three reports asserted bit-identical before \
                      timing"
            .to_string(),
        host_cores,
        threads,
        quick_mode: quick,
        tw_sizes: tws.iter().map(|&t| u64::from(t)).collect(),
        layers,
        total_reference_ms: total_reference,
        total_serial_ms: total_serial,
        total_threaded_ms: total_threaded,
        kernel_speedup: total_reference / total_serial.max(1e-9),
        overall_speedup: total_serial / total_threaded.max(1e-9),
    };
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(&out_path, &json).expect("can write the bench report");
    println!(
        "wrote {out_path}: {} timings, {} host cores, {} threads, kernel speedup {:.2}x, \
         thread speedup {:.2}x",
        report.layers.len(),
        host_cores,
        threads,
        report.kernel_speedup,
        report.overall_speedup
    );
}
