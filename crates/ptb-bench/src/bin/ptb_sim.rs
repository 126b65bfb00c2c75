//! `ptb_sim` — command-line front end to the accelerator simulator.
//!
//! ```text
//! cargo run --release -p ptb-bench --bin ptb_sim -- \
//!     --network dvs-gesture --policy ptb-stsap --tw 8 [--rows 16 --cols 8] \
//!     [--seed 42] [--quick] [--json]
//! ```
//!
//! Simulates every layer of the chosen Table V network under the chosen
//! schedule and prints a per-layer report (or JSON with `--json`).

use ptb_accel::config::{Policy, SimInputs};
use ptb_bench::{network_reports, RunOptions};
use systolic_sim::array::ArrayDims;
use systolic_sim::{ArchConfig, EnergyModel};

#[derive(Debug)]
struct Args {
    network: String,
    policy: Policy,
    tw: u32,
    rows: u32,
    cols: u32,
    seed: u64,
    quick: bool,
    json: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: ptb_sim --network <dvs-gesture|cifar10-dvs|alexnet|cifar10> \
         [--policy <ptb|ptb-stsap|baseline|time-serial|event-driven|ann>] \
         [--tw N] [--rows N --cols N] [--seed N] [--quick] [--json]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        network: String::new(),
        policy: Policy::ptb_with_stsap(),
        tw: 8,
        rows: 16,
        cols: 8,
        seed: 42,
        quick: false,
        json: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> String {
            it.next().unwrap_or_else(|| {
                eprintln!("missing value for {name}");
                usage()
            })
        };
        match flag.as_str() {
            "--network" => args.network = value("--network"),
            "--policy" => {
                args.policy = match value("--policy").as_str() {
                    "ptb" => Policy::ptb(),
                    "ptb-stsap" => Policy::ptb_with_stsap(),
                    "baseline" => Policy::BaselineTemporal,
                    "time-serial" => Policy::TimeSerial,
                    "event-driven" => Policy::EventDriven,
                    "ann" => Policy::Ann,
                    other => {
                        eprintln!("unknown policy {other}");
                        usage()
                    }
                }
            }
            "--tw" => args.tw = value("--tw").parse().unwrap_or_else(|_| usage()),
            "--rows" => args.rows = value("--rows").parse().unwrap_or_else(|_| usage()),
            "--cols" => args.cols = value("--cols").parse().unwrap_or_else(|_| usage()),
            "--seed" => args.seed = value("--seed").parse().unwrap_or_else(|_| usage()),
            "--quick" => args.quick = true,
            "--json" => args.json = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other}");
                usage()
            }
        }
    }
    if args.network.is_empty() {
        usage();
    }
    if !(1..=64).contains(&args.tw) {
        eprintln!("--tw must be in 1..=64 (one packed spike word)");
        usage();
    }
    if args.rows == 0 || args.cols == 0 {
        eprintln!("--rows and --cols must be nonzero");
        usage();
    }
    if let Err(e) = args.arch().validate() {
        eprintln!("{e}");
        usage();
    }
    args
}

impl Args {
    /// Table IV's architecture on the chosen array.
    fn arch(&self) -> ArchConfig {
        ArchConfig::hpca22().with_array(ArrayDims::new(self.rows, self.cols))
    }
}

fn main() {
    let args = parse_args();
    let spec = match args.network.as_str() {
        "dvs-gesture" => spikegen::dvs_gesture(),
        "cifar10-dvs" => spikegen::cifar10_dvs(),
        "alexnet" => spikegen::alexnet(),
        "cifar10" => spikegen::datasets::cifar10_cnn(),
        other => {
            eprintln!("unknown network {other}");
            usage()
        }
    };
    let mut opts = if args.quick {
        RunOptions::quick()
    } else {
        RunOptions::full()
    };
    opts.seed = args.seed;
    opts.cache = ptb_bench::CacheMode::from_env();
    let cache = opts.new_cache();

    // Custom array geometry flows through a bespoke SimInputs; reuse the
    // harness when it is the default 16x8.
    let report = if (args.rows, args.cols) == (16, 8) {
        network_reports(&spec, args.policy, &[args.tw], &opts, &cache)
            .0
            .remove(0)
    } else {
        let inputs = SimInputs {
            arch: args.arch(),
            energy: EnergyModel::cacti_32nm(),
            tw_size: args.tw,
        };
        inputs.assert_valid();
        let layers = spec
            .layers
            .iter()
            .enumerate()
            .map(|(i, l)| {
                // Same key the harness uses, so a disk-cache entry
                // written by a default-array run is reused here.
                let (shape, timesteps, seed) = opts.layer_inputs(&spec, i);
                let prep = cache.layer(l, shape, timesteps, seed);
                (
                    l.name.clone(),
                    ptb_accel::sim::simulate_layer(&inputs, args.policy, shape, prep.spikes()),
                )
            })
            .collect();
        ptb_accel::report::NetworkReport::new(spec.name.clone(), layers)
    };

    if args.json {
        println!(
            "{}",
            serde_json::to_string_pretty(&report).expect("reports serialize")
        );
        return;
    }

    println!(
        "{} | {} | TW={} | array {}x{}",
        report.network,
        args.policy.label(),
        args.tw,
        args.rows,
        args.cols
    );
    println!(
        "{:<8} {:>13} {:>13} {:>8} {:>13}",
        "layer", "energy (uJ)", "cycles", "util", "EDP (J*s)"
    );
    for (name, r) in &report.layers {
        println!(
            "{:<8} {:>13.2} {:>13} {:>7.1}% {:>13.3e}",
            name,
            r.energy.total_pj() / 1e6,
            r.cycles,
            r.utilization() * 100.0,
            r.edp()
        );
    }
    println!(
        "total: {:.3} mJ, {:.3} ms, EDP {:.3e} J*s",
        report.total_energy_joules() * 1e3,
        report.total_seconds() * 1e3,
        report.total_edp()
    );
}
