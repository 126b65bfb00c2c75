//! Runs every table/figure experiment in sequence, writing each one's
//! stdout to `results/<name>.txt`. This is the one-command regeneration
//! entry point referenced by EXPERIMENTS.md.
//!
//! Honors `PTB_QUICK=1` for a fast smoke run.

use std::process::Command;

const EXPERIMENTS: &[&str] = &[
    "tableII_features",
    "tableIV_arch",
    "tableV_networks",
    "fig04_firing_rates",
    "fig06_stsap_density",
    "fig09_energy_breakdown",
    "fig10_layer_sweep",
    "fig11_edp",
    "fig12_discussion",
    "ablation_stsap_limit",
    "ablation_layerwise_tw",
    "repr_formats",
    "variance_check",
    "make_charts",
];

fn main() {
    std::fs::create_dir_all("results").expect("can create results dir");
    // Each sub-binary inherits the environment, so PTB_QUICK/PTB_CACHE
    // apply to every experiment. With PTB_CACHE=disk the
    // binaries additionally share generated activity through
    // results/.cache/ instead of each regenerating it.
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
        let started = std::time::Instant::now();
        let out = Command::new(exe_dir.join(name))
            .output()
            .unwrap_or_else(|e| panic!("failed to launch {name}: {e}"));
        let path = format!("results/{name}.txt");
        std::fs::write(&path, &out.stdout).expect("can write result file");
        if out.status.success() {
            println!("ok ({:.1}s) -> {path}", started.elapsed().as_secs_f64());
        } else {
            failures += 1;
            println!("FAILED: {}", String::from_utf8_lossy(&out.stderr));
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
