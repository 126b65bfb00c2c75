//! Property: the production word kernel reproduces the serial per-tap
//! oracle bit for bit on layer shapes the fixed-shape unit tests do
//! not reach — stride above one, padding from none to half the filter
//! (fields clipped on every side, some emptied), filters up to 11 × 11,
//! deep layers of 32 to 36 channels (more than an 8-bit lane
//! accumulator holds before it spills), and the FC layer as a 1 × 1
//! convolution — on arrays of 8, 12, 16, 64 or 128 columns (PTB's lane
//! path and its scalar walker), with periods that are not multiples of
//! 64 and one or three scan workers. A second property pins baseline
//! [14]'s latency to its dense stream.
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

fn layer_strategy() -> impl Strategy<Value = (ConvShape, SpikeTensor, u32)> {
    (
        (0u32..8, 0usize..4, 0usize..3, 0u32..6, 1u32..5, 1u32..4),
        1usize..200,
        1u64..100,
        any::<u64>(),
    )
        .prop_flat_map(|((kind, r, u, pad, e, c), t, density, seed)| {
            // The array and the depth take the seed's top byte: one
            // layer in eight is deep, and the column count is uniform.
            let (deep, cols) = (seed >> 61 == 0, COLS[(seed >> 56) as usize % COLS.len()]);
            let shape = shape_of(kind == 0, deep, r, u, pad, e, c);
            Just((
                shape,
                SpikeTensor::from_fn(shape.ifmap_neurons(), t, move |n, tp| {
                    let x = (n as u64)
                        .wrapping_mul(0x9E37_79B9)
                        .wrapping_add((tp as u64).wrapping_mul(0x85EB_CA6B))
                        .wrapping_add(seed);
                    (x ^ (x >> 17)) % 100 < density
                }),
                cols,
            ))
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
