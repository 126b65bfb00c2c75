//! The `ptb_sim` CLI's `--json` output, pinned to the library: a
//! checker that trusts `ptb_sim --quick --json` as its in-process
//! reference must read exactly the harness's report, byte for byte.

use std::process::Command;

use ptb_accel::config::{Policy, SimInputs};
use ptb_accel::report::NetworkReport;
use ptb_accel::sim::simulate_layer;
use ptb_bench::{network_reports, RunOptions};
use systolic_sim::array::ArrayDims;
use systolic_sim::{ArchConfig, EnergyModel};

/// `ptb_sim --network dvs-gesture --quick --json` plus `args`, on an
/// in-memory cache (no `results/.cache/` is written).
fn ptb_sim_json(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_ptb_sim"))
        .args(["--network", "dvs-gesture", "--quick", "--json"])
        .args(args)
        .env("PTB_CACHE", "mem")
        .output()
        .expect("ptb_sim runs");
    assert!(
        out.status.success(),
        "ptb_sim failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("ptb_sim prints UTF-8")
}

/// What `ptb_sim --json` prints for `report`.
fn printed(report: &NetworkReport) -> String {
    serde_json::to_string_pretty(report).expect("reports serialize") + "\n"
}

#[test]
fn default_array_json_is_the_harness_report() {
    let opts = RunOptions {
        seed: 7,
        ..RunOptions::quick()
    };
    let spec = spikegen::dvs_gesture();
    let (expected, _) = network_reports(&spec, Policy::ptb(), &[4], &opts, &opts.new_cache());
    let json = ptb_sim_json(&["--policy", "ptb", "--tw", "4", "--seed", "7"]);
    assert_eq!(json, printed(&expected[0]));
}

#[test]
fn custom_array_json_is_the_per_layer_simulation() {
    let spec = spikegen::dvs_gesture();
    let opts = RunOptions::quick();
    let inputs = SimInputs {
        arch: ArchConfig::hpca22().with_array(ArrayDims::new(8, 16)),
        energy: EnergyModel::cacti_32nm(),
        tw_size: 8,
    };
    let layers = spec
        .layers
        .iter()
        .enumerate()
        .map(|(i, layer)| {
            let (shape, timesteps, seed) = opts.layer_inputs(&spec, i);
            let spikes = layer
                .input_profile
                .generate(shape.ifmap_neurons(), timesteps, seed);
            let report = simulate_layer(&inputs, Policy::ptb_with_stsap(), shape, &spikes);
            (layer.name.clone(), report)
        })
        .collect();
    let expected = NetworkReport::new(spec.name.clone(), layers);
    let json = ptb_sim_json(&["--rows", "8", "--cols", "16"]);
    assert_eq!(json, printed(&expected));
}

#[test]
fn arrays_wider_than_128_columns_are_a_usage_error() {
    let out = Command::new(env!("CARGO_BIN_EXE_ptb_sim"))
        .args(["--network", "dvs-gesture", "--policy", "ptb"])
        .args(["--tw", "1", "--rows", "1", "--cols", "200"])
        .env("PTB_CACHE", "mem")
        .output()
        .expect("ptb_sim runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains("128 columns"), "stderr: {stderr}");
    assert!(stderr.contains("usage: ptb_sim"), "stderr: {stderr}");
    assert!(out.stdout.is_empty(), "nothing is simulated");
}
