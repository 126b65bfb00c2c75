//! Runs every table/figure experiment in sequence, writing each
//! successful one's stdout to `results/<name>.txt`; the chart binaries
//! also write their `results/*.svg`. Each experiment's stderr (audit
//! findings included) passes straight through. An experiment that exits
//! nonzero, as every experiment does on an audit finding, is reported
//! `FAILED` and its `results/<name>.txt` is left as it was; the run then
//! exits nonzero. This is the one-command regeneration entry point
//! referenced by EXPERIMENTS.md.
//!
//! Honors `PTB_QUICK=1` for a fast smoke run.

use std::io::Write as _;
use std::process::{Command, Stdio};

const EXPERIMENTS: &[&str] = &[
    "tableII_features",
    "tableIV_arch",
    "tableV_networks",
    "fig04_firing_rates",
    "fig06_stsap_density",
    "fig09_energy_breakdown",
    "fig10_fig11_tw_sweep",
    "fig12_discussion",
    "ablation_stsap_limit",
    "repr_formats",
    "variance_check",
];

fn main() {
    std::fs::create_dir_all("results").expect("can create results dir");
    // Each sub-binary inherits the environment, so PTB_QUICK/PTB_CACHE
    // apply to every experiment. Every figure's numbers come from the
    // one binary that prints them; with PTB_CACHE=disk, binaries that
    // simulate the same layers (DVS-Gesture's, in several of them)
    // additionally share generated activity through results/.cache/
    // instead of each regenerating it.
    println!(
        "activity cache: {} (set PTB_CACHE=off|mem|disk to change)",
        ptb_bench::CacheMode::from_env().label()
    );
    let exe_dir = std::env::current_exe()
        .expect("current exe path")
        .parent()
        .expect("exe has a parent dir")
        .to_path_buf();
    let mut failures = 0usize;
    for name in EXPERIMENTS {
        print!("running {name:<24} ... ");
        // The name shows before anything the experiment logs to stderr.
        std::io::stdout().flush().expect("can flush stdout");
        let started = std::time::Instant::now();
        let out = Command::new(exe_dir.join(name))
            .stderr(Stdio::inherit())
            .output()
            .unwrap_or_else(|e| panic!("failed to launch {name}: {e}"));
        if out.status.success() {
            let path = format!("results/{name}.txt");
            std::fs::write(&path, &out.stdout).expect("can write result file");
            println!("ok ({:.1}s) -> {path}", started.elapsed().as_secs_f64());
        } else {
            failures += 1;
            println!("FAILED ({})", out.status);
        }
    }
    if failures > 0 {
        eprintln!("{failures} experiment(s) failed");
        std::process::exit(1);
    }
    println!(
        "\nall {} experiments regenerated under results/",
        EXPERIMENTS.len()
    );
}
