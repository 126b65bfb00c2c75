//! Property: the production word kernel reproduces the serial per-tap
//! oracle bit for bit on layer shapes the fixed-shape unit tests do
//! not reach — stride above one, padding from none to half the filter
//! (fields clipped on every side, some emptied), filters up to 11 × 11,
//! deep layers of 32 to 36 channels (more than an 8-bit lane
//! accumulator holds before it spills), and the FC layer as a 1 × 1
//! convolution — on arrays of 8, 12, 16, 64 or 128 columns (PTB's lane
//! path and its scalar walker), with periods that are not multiples of
//! 64, and with silent neurons where PTB walks only the firing ones:
//! whole silent channels, scattered silent neurons, all-silent layers,
//! and neurons that fire in one storage word of a longer period only.
//! A second property does the same on layers deep and wide enough that
//! StSAP's class stores take several bands of output rows, and a third
//! pins baseline [14]'s latency to its dense stream.
//!
//! A failing case prints and persists its generator state; rerun with
//! the printed `cc` line in `kernel_equivalence.proptest-regressions`
//! (or `PROPTEST_SEED`) to replay it.

use proptest::prelude::*;
use ptb_snn::ptb_accel::config::{Policy, SimInputs};
use ptb_snn::ptb_accel::{simulate_layer, simulate_layer_reference};
use ptb_snn::snn_core::shape::ConvShape;
use ptb_snn::snn_core::spike::SpikeTensor;
use ptb_snn::systolic_sim::{ArchConfig, ArrayDims};

/// A shape from (filter index, stride index, padding draw, ofmap side,
/// channels), or the FC case; a `deep` layer takes 30 more channels
/// and, to keep the walks short, a 1 × 1 or 3 × 3 filter at stride 1
/// and at most 2 × 2 outputs. The padded side is sized so `E` outputs
/// tile it exactly, which with odd filters and `pad <= R / 2` always
/// leaves an ifmap of at least one neuron.
fn shape_of(fc: bool, deep: bool, r: usize, u: usize, pad: u32, e: u32, c: u32) -> ConvShape {
    if fc {
        return ConvShape::new(1, 1, 16 * c, 4, 1).expect("FC as a 1x1 convolution");
    }
    let (r, u, e, c) = if deep {
        (r % 2, 0, e.min(2), 30 + 2 * c)
    } else {
        (r, u, e, c)
    };
    let r = [1u32, 3, 5, 11][r];
    let u = [1u32, 2, 4][u];
    let pad = pad % (r / 2 + 1);
    let side = (e - 1) * u + r - 2 * pad;
    ConvShape::with_padding(side, r, c, 4, u, pad).expect("valid by construction")
}

/// Column counts of the drawn arrays: the paper's 8, a tile width that
/// does not divide a word (12), 16, one tile per word at TW 1 (64) and
/// Fig. 9(b)'s 128.
const COLS: [u32; 5] = [8, 12, 16, 64, 128];

/// The paper's configuration at `tw` on an array of `cols` columns.
fn inputs_on(cols: u32, tw: u32) -> SimInputs {
    let arch = ArchConfig::hpca22();
    let rows = arch.array.rows();
    SimInputs {
        arch: arch.with_array(ArrayDims::new(rows, cols)),
        ..SimInputs::hpca22(tw)
    }
}

/// Which neurons of a drawn layer are silent.
#[derive(Debug, Clone, Copy)]
enum Silence {
    /// Every neuron may fire.
    None,
    /// About one channel in three never fires.
    Channels,
    /// About half the neurons never fire, scattered over the map.
    Scattered,
    /// Both of the above.
    Both,
    /// No neuron fires.
    All,
}

/// A 32-bit mix of `a` and `b` under `seed`.
fn mix(a: u64, b: u64, seed: u64) -> u64 {
    let x = a
        .wrapping_mul(0x9E37_79B9)
        .wrapping_add(b.wrapping_mul(0x85EB_CA6B))
        .wrapping_add(seed);
    x ^ (x >> 17)
}

/// Activity of `shape` over `t` points: each non-silent neuron fires at
/// each time point with probability `density` %, and under `one_word`
/// only inside one storage word of its own choosing, so that at `t >
/// 64` a firing neuron has silent words.
fn activity(
    shape: ConvShape,
    t: usize,
    density: u64,
    silence: Silence,
    one_word: bool,
    seed: u64,
) -> SpikeTensor {
    let cells = (shape.ifmap_side() as usize).pow(2);
    let words = t.div_ceil(64) as u64;
    SpikeTensor::from_fn(shape.ifmap_neurons(), t, move |n, tp| {
        let channel_silent = mix(n as u64 / cells as u64, 1, seed).is_multiple_of(3);
        let neuron_silent = mix(n as u64, 2, seed).is_multiple_of(2);
        let silent = match silence {
            Silence::None => false,
            Silence::Channels => channel_silent,
            Silence::Scattered => neuron_silent,
            Silence::Both => channel_silent || neuron_silent,
            Silence::All => true,
        };
        let in_word = !one_word || mix(n as u64, 3, seed) % words == tp as u64 / 64;
        !silent && in_word && mix(n as u64, tp as u64, seed) % 100 < density
    })
}

/// A silence pattern and the one-word flag from `draw`: one layer in
/// eight is all silent, and every other pattern is equally likely.
fn silence_of(draw: u32) -> (Silence, bool) {
    let silence = match draw % 8 {
        0 => Silence::All,
        1 | 2 => Silence::None,
        3 => Silence::Channels,
        4 | 5 => Silence::Scattered,
        _ => Silence::Both,
    };
    (silence, draw / 8 == 1)
}

fn layer_strategy() -> impl Strategy<Value = (ConvShape, SpikeTensor, u32)> {
    (
        (0u32..8, 0usize..4, 0usize..3, 0u32..6, 1u32..5, 1u32..4),
        1usize..200,
        1u64..100,
        0u32..16,
        any::<u64>(),
    )
        .prop_flat_map(|((kind, r, u, pad, e, c), t, density, silent, seed)| {
            // The array and the depth take the seed's top byte: one
            // layer in eight is deep, and the column count is uniform.
            let (deep, cols) = (seed >> 61 == 0, COLS[(seed >> 56) as usize % COLS.len()]);
            let shape = shape_of(kind == 0, deep, r, u, pad, e, c);
            let (silence, one_word) = silence_of(silent);
            Just((
                shape,
                activity(shape, t, density, silence, one_word, seed),
                cols,
            ))
        })
}

/// Layers whose StSAP class stores take at least two bands of output
/// rows, so each band's scatter walks every channel's rows as a run of
/// its own: a 3 × 3 filter over 48 to 64 channels of a 12 × 12 or 13 ×
/// 13 map takes two bands on the paper's 8-column array, and one band
/// per row on 12 or 16 columns, where a tile spans more than 8 windows
/// at small TWs.
fn banded_strategy() -> impl Strategy<Value = (ConvShape, SpikeTensor, u32)> {
    (
        0u32..2,
        0u32..3,
        0usize..3,
        1usize..140,
        1u64..60,
        0u32..16,
        any::<u64>(),
    )
        .prop_map(|(grow, more, cols, t, density, silent, seed)| {
            let shape = ConvShape::with_padding(12 + grow, 3, 48 + 8 * more, 8, 1, 1)
                .expect("valid by construction");
            let (silence, one_word) = silence_of(silent);
            let input = activity(shape, t, density, silence, one_word, seed);
            (shape, input, [8, 12, 16][cols])
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn word_kernel_matches_reference_on_any_shape(
        (shape, input, cols) in layer_strategy(),
        invariant_tw in 1u32..=64,
    ) {
        // PTB at every valid TW; the TW-invariant policies at one drawn
        // TW (their reports do not depend on it).
        let runs = (1u32..=64)
            .flat_map(|tw| [(Policy::ptb(), tw), (Policy::ptb_with_stsap(), tw)])
            .chain(
                [Policy::BaselineTemporal, Policy::TimeSerial, Policy::Ann, Policy::EventDriven]
                    .map(|p| (p, invariant_tw)),
            );
        for (policy, tw) in runs {
            let inputs = inputs_on(cols, tw);
            let reference = simulate_layer_reference(&inputs, policy, shape, &input);
            let word = simulate_layer(&inputs, policy, shape, &input);
            prop_assert_eq!(
                &word,
                &reference,
                "{:?} {:?} t={} tw={} cols={}",
                policy,
                shape,
                input.timesteps(),
                tw,
                cols
            );
        }
    }

    #[test]
    fn baseline_cycles_are_the_dense_stream((shape, input, cols) in layer_strategy()) {
        // Baseline [14] runs one iteration per (position, column tile),
        // and a column is one time point: it counts at most one spike
        // per field neuron, so no column outlasts the dense stream and
        // every iteration costs its field length plus the array fill,
        // per row tile. Near-infinite DRAM bandwidth leaves the compute
        // cycles as the report's latency.
        let mut inputs = inputs_on(cols, 1);
        inputs.arch.dram_bandwidth_bytes_per_s = 1e18;
        let array = inputs.arch.array;
        let row_tiles = u64::from(shape.out_channels()).div_ceil(u64::from(array.rows()));
        let col_tiles = (input.timesteps() as u64).div_ceil(u64::from(array.cols()));
        let e = shape.ofmap_side();
        let compute: u64 = (0..e * e)
            .map(|p| shape.receptive_field_indices(p / e, p % e).len() as u64)
            .map(|len| (len + array.fill_cycles()) * col_tiles * row_tiles)
            .sum();
        for report in [
            simulate_layer_reference(&inputs, Policy::BaselineTemporal, shape, &input),
            simulate_layer(&inputs, Policy::BaselineTemporal, shape, &input),
        ] {
            prop_assert_eq!(report.cycles, compute, "{:?} t={}", shape, input.timesteps());
        }
    }
}

proptest! {
    // Each case walks the 432- to 576-tap fields of 144 or 169 positions
    // through the oracle.
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn banded_stsap_matches_reference(
        (shape, input, cols) in banded_strategy(),
        tw_draw in 0usize..5,
    ) {
        let tw = [1u32, 2, 4, 8, 16][tw_draw];
        // PTB too: it shares the fill, not the scatter.
        for policy in [Policy::ptb_with_stsap(), Policy::ptb()] {
            let inputs = inputs_on(cols, tw);
            let reference = simulate_layer_reference(&inputs, policy, shape, &input);
            let word = simulate_layer(&inputs, policy, shape, &input);
            prop_assert_eq!(
                &word,
                &reference,
                "{:?} {:?} t={} tw={} cols={}",
                policy,
                shape,
                input.timesteps(),
                tw,
                cols
            );
        }
    }
}
