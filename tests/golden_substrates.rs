//! Golden pins below the simulator: one FNV-1a hash per substrate the
//! layer reports are built on, in the style of `golden_reports.rs`.
//!
//! * the spike words `spikegen` generates for each benchmark network's
//!   first layer at quick fidelity (the activity every report reads);
//! * an LIF replay (`snn_core::neuron`) over a fixed input sequence;
//! * one functional `systolic_sim::array::SystolicEngine` pass.
//!
//! The report pin only sees a substrate through the analytic model, so
//! a change that moves a generator, the neuron dynamics or the array's
//! arithmetic without moving a report would pass it. A change that
//! *means* to move one of these regenerates the constant in the same
//! commit and says why.

use ptb_bench::cache::fnv1a;
use ptb_bench::RunOptions;
use snn_core::neuron::NeuronConfig;
use systolic_sim::array::{ArrayDims, PairData, StreamEntry, SystolicEngine};

/// Hash of the four networks' quick-fidelity first-layer spike words.
const GOLDEN_SPIKES: u64 = 0x8e75_11d9_9daf_ef5d;
/// Hash of the LIF replay's spikes and membrane potentials.
const GOLDEN_LIF: u64 = 0x2bc9_872e_1326_7e8a;
/// Hash of the engine pass's psums and counters.
const GOLDEN_ENGINE: u64 = 0x742a_fbe7_030e_ae65;

/// A fixed, irregular value in `[0, 1)` for index `i`.
fn draw(i: u64) -> f32 {
    let x = (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40) as u32;
    x as f32 / (1u32 << 24) as f32
}

#[test]
fn first_layer_spike_words_match_the_golden_hash() {
    let opts = RunOptions::quick();
    let mut bytes = Vec::new();
    for net in spikegen::datasets::all_benchmarks() {
        let (shape, timesteps, seed) = opts.layer_inputs(&net, 0);
        let spikes = net.layers[0]
            .input_profile
            .generate(shape.ifmap_neurons(), timesteps, seed);
        bytes.extend((spikes.neurons() as u64).to_le_bytes());
        bytes.extend((spikes.timesteps() as u64).to_le_bytes());
        for word in spikes.words() {
            bytes.extend(word.to_le_bytes());
        }
    }
    let hash = fnv1a(&bytes);
    assert_eq!(
        hash,
        GOLDEN_SPIKES,
        "spike words moved: got {hash:#018x} over {} bytes",
        bytes.len()
    );
}

#[test]
fn lif_replay_matches_the_golden_hash() {
    let neuron = NeuronConfig::lif(1.0, 0.05);
    let mut membrane = 0.0f32;
    let mut bytes = Vec::new();
    for i in 0..512 {
        let fired = neuron.step(&mut membrane, 0.6 * draw(i));
        bytes.push(u8::from(fired));
        bytes.extend(membrane.to_bits().to_le_bytes());
    }
    let hash = fnv1a(&bytes);
    assert_eq!(hash, GOLDEN_LIF, "LIF replay moved: got {hash:#018x}");
}

#[test]
fn engine_pass_matches_the_golden_hash() {
    let (rows, cols, tw) = (4usize, 8usize, 8u32);
    let engine = SystolicEngine::new(ArrayDims::new(rows as u32, cols as u32), tw);
    let weights = |k: u64| (0..rows as u64).map(|r| draw(k * 31 + r) - 0.5).collect();
    let spikes = |k: u64| {
        (0..cols as u64)
            .map(|c| (k * 0x2545_F491 + c * 0x9E37) % 256)
            .collect()
    };
    let mut entries: Vec<StreamEntry> = (0..6)
        .map(|k| StreamEntry::single(weights(k), spikes(k)))
        .collect();
    // One StSAP slot: the partner owns the odd columns.
    entries.push(StreamEntry {
        pair: Some(PairData {
            row_weights: weights(7),
            col_select: 0b1010_1010,
        }),
        ..StreamEntry::single(weights(6), spikes(6))
    });
    let result = engine.run(&entries);
    let mut bytes = Vec::new();
    for v in result.psums.iter().flatten().flatten() {
        bytes.extend(v.to_bits().to_le_bytes());
    }
    for n in [result.cycles, result.useful_ops, result.occupied_ops] {
        bytes.extend(n.to_le_bytes());
    }
    let hash = fnv1a(&bytes);
    assert_eq!(hash, GOLDEN_ENGINE, "engine pass moved: got {hash:#018x}");
}
