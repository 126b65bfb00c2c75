//! Records simulator wall time over the Fig. 10 layer sweep and writes
//! `BENCH_sim_parallel.json`: the serial per-tap oracle against the
//! production kernel layer by layer, and the whole sweep drained by one
//! thread against the same sweep drained by the offline pool.
//!
//! Every layer of every benchmark network is simulated under PTB+StSAP
//! at each Fig. 10 TW size by the oracle (`simulate_layer_reference`)
//! and by the production kernel, and the two reports are asserted
//! identical before timing is recorded, so the file doubles as an
//! end-to-end equivalence check. `kernel_speedup = reference_ms /
//! serial_ms` is how much faster the production kernel is than the
//! oracle.
//!
//! The parallel column is the sweep's one level of parallelism: each
//! network's PTB+StSAP sweep over the same TW sizes is one work list of
//! (TW point, layer) items ([`ptb_bench::sweep_reports`]), drained by
//! one thread and by one thread per core (at least two), on a warm
//! activity cache. Both drains are asserted to give identical reports
//! first. `pool_speedup = one_drainer_ms / pool_ms`; `host_cores`
//! records how many cores the host offered.
//!
//! Honors `PTB_QUICK=1` (cropped layers, shortened period) and
//! `PTB_BENCH_OUT=path` (overrides the output path, so CI smoke runs
//! never dirty the checked-in file).

use std::time::Instant;

use ptb_accel::config::{Policy, SimInputs};
use ptb_accel::{simulate_layer, simulate_layer_reference};
use ptb_bench::{sweep_reports, RunOptions};
use serde::Serialize;

#[derive(Serialize)]
struct LayerTiming {
    network: String,
    layer: String,
    tw: u32,
    /// The serial per-tap oracle.
    reference_ms: f64,
    /// The production kernel.
    serial_ms: f64,
    /// reference_ms / serial_ms — the production kernel's lead over the oracle.
    kernel_speedup: f64,
    reports_identical: bool,
}

#[derive(Serialize)]
struct SweepTiming {
    network: String,
    /// The network's sweep drained by one thread.
    one_drainer_ms: f64,
    /// The same sweep drained by `drainers` threads.
    pool_ms: f64,
    /// one_drainer_ms / pool_ms.
    pool_speedup: f64,
}

#[derive(Serialize)]
struct BenchReport {
    description: String,
    host_cores: usize,
    drainers: usize,
    quick_mode: bool,
    tw_sizes: Vec<u64>,
    layers: Vec<LayerTiming>,
    /// Total oracle time.
    total_reference_ms: f64,
    /// Total production-kernel time.
    total_serial_ms: f64,
    /// total_reference_ms / total_serial_ms at matched fidelity.
    kernel_speedup: f64,
    sweeps: Vec<SweepTiming>,
    total_one_drainer_ms: f64,
    total_pool_ms: f64,
    /// total_one_drainer_ms / total_pool_ms.
    pool_speedup: f64,
}

/// Median of three runs of `f`, in milliseconds: enough to damp
/// scheduler noise without turning the full sweep into a long run.
fn time_ms(mut f: impl FnMut()) -> f64 {
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
    let host_cores = ptb_bench::pool_size();
    let drainers = host_cores.max(2);
    let tws = [1u32, 2, 4, 8, 16, 32, 64];
    let policy = Policy::ptb_with_stsap();

    let mut layers = Vec::new();
    let mut total_reference = 0.0;
    let mut total_serial = 0.0;
    let mut sweeps = Vec::new();
    let mut total_one = 0.0;
    let mut total_pool = 0.0;
    for net in spikegen::datasets::all_benchmarks() {
        for (i, layer) in net.layers.iter().enumerate() {
            let (shape, timesteps, seed) = opts.layer_inputs(&net, i);
            let activity = layer
                .input_profile
                .generate(shape.ifmap_neurons(), timesteps, seed);
            for tw in tws {
                let inputs = SimInputs::hpca22(tw);
                let a = simulate_layer(&inputs, policy, shape, &activity);
                let r = simulate_layer_reference(&inputs, policy, shape, &activity);
                let identical = a == r;
                assert!(
                    identical,
                    "{}/{} tw={tw}: the kernel diverged from the oracle",
                    net.name, layer.name
                );
                let reference_ms = time_ms(|| {
                    simulate_layer_reference(&inputs, policy, shape, &activity);
                });
                let serial_ms = time_ms(|| {
                    simulate_layer(&inputs, policy, shape, &activity);
                });
                total_reference += reference_ms;
                total_serial += serial_ms;
                layers.push(LayerTiming {
                    network: net.name.clone(),
                    layer: layer.name.clone(),
                    tw,
                    reference_ms,
                    serial_ms,
                    kernel_speedup: reference_ms / serial_ms.max(1e-9),
                    reports_identical: identical,
                });
            }
        }

        // The first drains warm the cache and pin the bits.
        let cache = opts.new_cache();
        let one = sweep_reports(&net, policy, &tws, &opts, &cache, 1);
        let pool = sweep_reports(&net, policy, &tws, &opts, &cache, drainers);
        assert!(
            one == pool,
            "{}: the drainer count changed the sweep's reports",
            net.name
        );
        let one_drainer_ms = time_ms(|| {
            sweep_reports(&net, policy, &tws, &opts, &cache, 1);
        });
        let pool_ms = time_ms(|| {
            sweep_reports(&net, policy, &tws, &opts, &cache, drainers);
        });
        total_one += one_drainer_ms;
        total_pool += pool_ms;
        sweeps.push(SweepTiming {
            network: net.name.clone(),
            one_drainer_ms,
            pool_ms,
            pool_speedup: one_drainer_ms / pool_ms.max(1e-9),
        });
    }

    let report = BenchReport {
        description: "PTB+StSAP over the Fig. 10 layer sweep: serial per-tap oracle vs \
                      production kernel per layer (reports asserted bit-identical before \
                      timing), and each network's sweep as one work list of (TW point, \
                      layer) items drained by one thread vs by the pool (reports asserted \
                      bit-identical before timing); medians of 3"
            .to_string(),
        host_cores,
        drainers,
        quick_mode: quick,
        tw_sizes: tws.iter().map(|&t| u64::from(t)).collect(),
        layers,
        total_reference_ms: total_reference,
        total_serial_ms: total_serial,
        kernel_speedup: total_reference / total_serial.max(1e-9),
        sweeps,
        total_one_drainer_ms: total_one,
        total_pool_ms: total_pool,
        pool_speedup: total_one / total_pool.max(1e-9),
    };
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(&out_path, &json).expect("can write the bench report");
    println!(
        "wrote {out_path}: {} timings, {} host cores, {} drainers, kernel speedup {:.2}x, \
         pool speedup {:.2}x",
        report.layers.len(),
        host_cores,
        drainers,
        report.kernel_speedup,
        report.pool_speedup
    );
}
