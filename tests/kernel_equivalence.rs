//! Property: the production word kernel reproduces the serial per-bit
//! reference bit for bit on layer shapes the fixed-shape unit tests do
//! not reach — stride above one, padding from none to half the filter
//! (fields clipped on every side, some emptied), filters up to 11 × 11,
//! and the FC layer as a 1 × 1 convolution — with periods that are not
//! multiples of 64 and one or three scan workers.
//!
//! A failing case prints and persists its generator state; rerun with
//! the printed `cc` line in `kernel_equivalence.proptest-regressions`
//! (or `PROPTEST_SEED`) to replay it.

use proptest::prelude::*;
use ptb_snn::ptb_accel::config::{Policy, SimInputs};
use ptb_snn::ptb_accel::sim::{simulate_layer, simulate_layer_reference};
use ptb_snn::snn_core::shape::ConvShape;
use ptb_snn::snn_core::spike::SpikeTensor;

/// A shape from (filter index, stride index, padding draw, ofmap side,
/// channels), or the FC case. The padded side is sized so `E` outputs
/// tile it exactly, which with odd filters and `pad <= R / 2` always
/// leaves an ifmap of at least one neuron.
fn shape_of(fc: bool, r: usize, u: usize, pad: u32, e: u32, c: u32) -> ConvShape {
    if fc {
        return ConvShape::new(1, 1, 16 * c, 4, 1).expect("FC as a 1x1 convolution");
    }
    let r = [1u32, 3, 5, 11][r];
    let u = [1u32, 2, 4][u];
    let pad = pad % (r / 2 + 1);
    let side = (e - 1) * u + r - 2 * pad;
    ConvShape::with_padding(side, r, c, 4, u, pad).expect("valid by construction")
}

fn layer_strategy() -> impl Strategy<Value = (ConvShape, SpikeTensor)> {
    (
        (0u32..8, 0usize..4, 0usize..3, 0u32..6, 1u32..5, 1u32..4),
        1usize..200,
        1u64..100,
        any::<u64>(),
    )
        .prop_flat_map(|((kind, r, u, pad, e, c), t, density, seed)| {
            let shape = shape_of(kind == 0, r, u, pad, e, c);
            Just((
                shape,
                SpikeTensor::from_fn(shape.ifmap_neurons(), t, move |n, tp| {
                    let x = (n as u64)
                        .wrapping_mul(0x9E37_79B9)
                        .wrapping_add((tp as u64).wrapping_mul(0x85EB_CA6B))
                        .wrapping_add(seed);
                    (x ^ (x >> 17)) % 100 < density
                }),
            ))
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn word_kernel_matches_reference_on_any_shape(
        (shape, input) in layer_strategy(),
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
            let inputs = SimInputs::hpca22(tw);
            let reference = simulate_layer_reference(&inputs, policy, shape, &input);
            for threads in [1usize, 3] {
                let word = simulate_layer(&inputs.with_threads(threads), policy, shape, &input);
                prop_assert_eq!(
                    &word,
                    &reference,
                    "{:?} {:?} t={} tw={} threads={}",
                    policy,
                    shape,
                    input.timesteps(),
                    tw,
                    threads
                );
            }
        }
    }
}
