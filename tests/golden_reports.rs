//! The golden report pin: one FNV-1a hash over the serialized reports
//! of a quick-fidelity mix — the four benchmark networks' layer
//! profiles on cropped shapes, every policy, TW ∈ {1, 3, 8, 64}.
//!
//! A kernel rewrite that claims to keep the model's numbers must pass
//! with the constant unchanged. A change that *means* to move the model
//! regenerates `results/` and this constant in the same commit and says
//! why. Serde JSON renders floats shortest-roundtrip, so the bytes
//! determine every `LayerReport` field bit for bit.

use ptb_accel::config::Policy;
use ptb_bench::cache::fnv1a;
use ptb_bench::{network_reports, RunOptions};

const TWS: [u32; 4] = [1, 3, 8, 64];

/// The hash every commit that keeps the model must reproduce.
const GOLDEN: u64 = 0xba1e_77b3_666e_66da;

#[test]
fn quick_mix_reports_match_the_golden_hash() {
    let networks = [
        spikegen::dvs_gesture(),
        spikegen::cifar10_dvs(),
        spikegen::alexnet(),
        spikegen::datasets::cifar10_cnn(),
    ];
    let opts = RunOptions::quick();
    let cache = opts.new_cache();
    let mut bytes = Vec::new();
    for spec in &networks {
        for policy in Policy::all() {
            for report in network_reports(spec, policy, &TWS, &opts, &cache) {
                bytes.extend(serde_json::to_string(&report).unwrap().bytes());
                bytes.push(b'\n');
            }
        }
    }
    let hash = fnv1a(&bytes);
    assert_eq!(
        hash,
        GOLDEN,
        "quick-mix reports moved: got {hash:#018x} over {} bytes",
        bytes.len()
    );
}
