//! The oracle: [`simulate_layer_reference`], the serial per-tap walk
//! every scan of [`crate::sim`] is pinned against.
//!
//! It walks the paper's iteration space the slow, obvious way, for all
//! six policies: one output position at a time, listing its receptive
//! field, and reading the activity tap by tap from per-(neuron, time
//! point) spike bits or per-(neuron, window) spike counts. It builds
//! its tables fresh on every call.
//!
//! What it shares with the production scans is everything that is not
//! a gather: the per-iteration booking, the layer-granular close, and
//! the StSAP greedy (through [`pack_tile`], which [`crate::stsap`] pins
//! against its own linear reference). So every production gather —
//! PTB's fused plane fill and box sums, the StSAP pairable gather, the
//! baselines' box sums, event-driven's box OR and ANN's field lengths —
//! has an independent counterpart here. The equivalence tests and the
//! full audit diff the two reports bit for bit.

use std::ops::Range;

use snn_core::shape::ConvShape;
use snn_core::spike::SpikeTensor;

use super::{close, Dims, PtbCtx, Tally};
use crate::config::{Policy, SimInputs};
use crate::geom::{field_indices, spike_bits, window_popcounts};
use crate::report::LayerReport;
use crate::stsap::{pack_tile, tile_full_mask};
use crate::window::WindowPartition;

/// Simulates one layer under `policy` with the serial per-tap walk.
///
/// The report is bit-identical to [`simulate_layer`](super::simulate_layer)
/// for every policy and TW size.
///
/// # Panics
///
/// Panics under the same conditions as
/// [`simulate_layer`](super::simulate_layer).
pub fn simulate_layer_reference(
    inputs: &SimInputs,
    policy: Policy,
    shape: ConvShape,
    input: &SpikeTensor,
) -> LayerReport {
    let d = Dims::new(inputs, shape, input);
    let (tally, fetched) = match policy {
        Policy::Ptb { stsap } => ptb(stsap, shape, input, &PtbCtx::new(inputs, d)),
        Policy::BaselineTemporal => (baseline(shape, &d, &spike_bits(input)), input.neurons()),
        Policy::TimeSerial => (time_serial(shape, &d, &spike_bits(input)), input.neurons()),
        Policy::Ann => (ann(shape, &d), input.neurons()),
        Policy::EventDriven => (event_driven(shape, &d, &spike_bits(input)), input.neurons()),
    };
    close(inputs, policy, shape, input, &d, tally, fetched)
}

/// Spikes the field `rf` fires over time points `span`, summed tap by
/// tap from a [`spike_bits`] table of `t` points per neuron.
fn field_spikes(bit_at: &[u8], t: usize, rf: &[usize], span: Range<usize>) -> u64 {
    rf.iter()
        .flat_map(|&n| &bit_at[n * t + span.start..n * t + span.end])
        .map(|&b| u64::from(b))
        .sum()
}

/// The active entries of the receptive field `rf` in column tile
/// `w0..w1`, in field order: clears `tags` and `pops`, then pushes each
/// active neuron's window tag onto `tags` and its `w1 - w0` window spike
/// counts onto `pops`. `win_pop` is a [`window_popcounts`] table of
/// `n_w` windows per neuron. The audit's StSAP re-pack walks tiles with
/// it too.
pub(crate) fn tile_entries(
    rf: &[usize],
    win_pop: &[u16],
    n_w: usize,
    (w0, w1): (usize, usize),
    tags: &mut Vec<u128>,
    pops: &mut Vec<u16>,
) {
    tags.clear();
    pops.clear();
    for &n in rf {
        let counts = &win_pop[n * n_w + w0..n * n_w + w1];
        let mut tag = 0u128;
        for (i, &c) in counts.iter().enumerate() {
            if c > 0 {
                tag |= 1 << i;
            }
        }
        if tag != 0 {
            tags.push(tag);
            pops.extend_from_slice(counts);
        }
    }
}

/// Streaming cost of one slot, in beats: the busiest column's
/// accumulate count, floored at the spike-link delivery time. For an
/// StSAP pair both members' window popcounts are summed per column —
/// their tags are disjoint so at most one member is nonzero per window,
/// but the sum is computed in `u32` so that large analysis-scale windows
/// (popcounts beyond `u8`) can never overflow the addition.
fn slot_cost(a: &[u16], b: Option<&[u16]>, min_beats: u64) -> u64 {
    let busiest = match b {
        None => a.iter().copied().map(u32::from).max().unwrap_or(0),
        Some(b) => a
            .iter()
            .zip(b)
            .map(|(&x, &y)| u32::from(x) + u32::from(y))
            .max()
            .unwrap_or(0),
    };
    u64::from(busiest).max(min_beats)
}

/// PTB, with or without StSAP: every (position, column tile) lists its
/// active entries, packs them with [`pack_tile`] under StSAP, and prices
/// each slot from its members' window counts. Also returns the number
/// of neurons PTB fetches: those with a spike in some window.
fn ptb(stsap: bool, shape: ConvShape, input: &SpikeTensor, ctx: &PtbCtx) -> (Tally, usize) {
    let part = WindowPartition::new(ctx.d.t, ctx.tws as usize);
    let win_pop = window_popcounts(input, &part);
    let firing = win_pop
        .chunks_exact(ctx.n_w)
        .filter(|counts| counts.iter().any(|&c| c > 0))
        .count();
    let (mut tally, mut tags, mut pops) = (Tally::default(), Vec::new(), Vec::new());
    for p in 0..ctx.d.positions {
        let rf = field_indices(shape, p);
        for &(w0, w1) in &ctx.tiles {
            tile_entries(&rf, &win_pop, ctx.n_w, (w0, w1), &mut tags, &mut pops);
            if tags.is_empty() {
                continue;
            }
            let nw = w1 - w0;
            let pops_of = |i: usize| &pops[i * nw..(i + 1) * nw];
            let raw = tags.len() as u64;
            let (slots, beats) = if stsap {
                let packed = pack_tile(&tags, tile_full_mask(nw));
                sat!(tally.exact_pairs += packed.exact_pairs as u64 * ctx.d.row_tiles);
                sat!(tally.near_pairs += packed.near_pairs as u64 * ctx.d.row_tiles);
                let beats = packed.slots.iter().map(|slot| {
                    slot_cost(pops_of(slot.first), slot.second.map(pops_of), ctx.min_beats)
                });
                (packed.entries_after() as u64, beats.sum())
            } else {
                let beats = (0..tags.len()).map(|i| slot_cost(pops_of(i), None, ctx.min_beats));
                (raw, beats.sum())
            };
            let span = pops.iter().map(|&c| u64::from(c)).sum();
            let windows = tags.iter().map(|tag| u64::from(tag.count_ones())).sum();
            ctx.account(&mut tally, raw, slots, beats, span, windows);
        }
    }
    (tally, firing)
}

/// Baseline \[14\]: every (position, column tile of time points) pair
/// counts its field's spikes tap by tap.
fn baseline(shape: ConvShape, d: &Dims, bit_at: &[u8]) -> Tally {
    let tiles = WindowPartition::new(d.t, 1).column_tiles(d.cols);
    let mut tally = Tally::default();
    for p in 0..d.positions {
        let rf = field_indices(shape, p);
        for &(w0, w1) in &tiles {
            let spikes = field_spikes(bit_at, d.t, &rf, w0..w1);
            d.book_dense_tile(&mut tally, rf.len() as u64, (w1 - w0) as u64, spikes);
        }
    }
    tally
}

/// Time-serial: output positions on the columns, one tile of `cols`
/// positions at a time, each tile booking its fields' lengths, the
/// longest of them and the spikes they gather over the period.
fn time_serial(shape: ConvShape, d: &Dims, bit_at: &[u8]) -> Tally {
    let mut tally = Tally::default();
    for p0 in (0..d.positions).step_by(d.cols) {
        let p1 = (p0 + d.cols).min(d.positions);
        let (mut rf_sum, mut rf_max, mut spikes) = (0u64, 0u64, 0u64);
        for p in p0..p1 {
            let rf = field_indices(shape, p);
            rf_sum += rf.len() as u64;
            rf_max = rf_max.max(rf.len() as u64);
            spikes += field_spikes(bit_at, d.t, &rf, 0..d.t);
        }
        d.book_position_tile(&mut tally, (p1 - p0) as u64, rf_sum, rf_max, spikes);
    }
    tally
}

/// ANN: output positions on the columns, one tile of `cols` positions
/// at a time, each tile booking one pass — its longest field plus the
/// fill — and its taps.
fn ann(shape: ConvShape, d: &Dims) -> Tally {
    let mut tally = Tally::default();
    for p0 in (0..d.positions).step_by(d.cols) {
        let (mut rf_sum, mut rf_max) = (0u64, 0u64);
        for p in p0..(p0 + d.cols).min(d.positions) {
            let len = field_indices(shape, p).len() as u64;
            rf_sum += len;
            rf_max = rf_max.max(len);
        }
        sat!(tally.compute_cycles += d.cycles(rf_max, 1));
        sat!(tally.sum_entries_raw += rf_sum);
    }
    tally
}

/// Event-driven: every position walks the period one time point at a
/// time and books the events of each point its field fires at.
fn event_driven(shape: ConvShape, d: &Dims, bit_at: &[u8]) -> Tally {
    let mut tally = Tally::default();
    for p in 0..d.positions {
        let rf = field_indices(shape, p);
        for tp in 0..d.t {
            let events = field_spikes(bit_at, d.t, &rf, tp..tp + 1);
            if events > 0 {
                d.book_events(&mut tally, events, 1);
            }
        }
    }
    tally
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::simulate_layer;
    use crate::sim::tests::{small_shape, sparse_input, straddle_input};

    #[test]
    fn slot_cost_is_exact_for_large_windows() {
        // Regression: an StSAP pair of 200-spike windows sums to 400
        // beats, which overflowed the old `u8 + u8` cost (debug panic,
        // wraparound in release). The floor also still applies.
        let a = [200u16, 3];
        let b = [150u16, 7];
        assert_eq!(slot_cost(&a, Some(&b), 1), 350);
        assert_eq!(slot_cost(&a, None, 1), 200);
        assert_eq!(slot_cost(&[0u16, 0], None, 5), 5);
        assert_eq!(slot_cost(&[], None, 2), 2);
    }

    #[test]
    fn word_kernel_matches_scalar_reference_for_every_policy() {
        // The kernel equivalence pin: the bit-parallel word paths must
        // reproduce the serial per-tap oracle bit-for-bit — on a
        // padded shape (uneven receptive fields) and a period that is
        // not a multiple of 64 (live tail masking), across TW sizes
        // that exercise the one-word, two-word, and tag-mask gathers.
        // Sizes that do not divide 64 put windows across word
        // boundaries, and `straddle_input` fires on exactly those.
        let shape = ConvShape::with_padding(6, 3, 4, 8, 1, 1).unwrap();
        let periods = [40usize, 64, 70, 128, 130, 200];
        let inputs_of = |t| [sparse_input(shape, t), straddle_input(shape, t)];
        for input in periods.into_iter().flat_map(inputs_of) {
            let t = input.timesteps();
            for tw in [1u32, 3, 4, 5, 7, 8, 12, 24, 32, 48, 64] {
                let inputs = SimInputs::hpca22(tw);
                for policy in [
                    Policy::ptb(),
                    Policy::ptb_with_stsap(),
                    Policy::BaselineTemporal,
                    Policy::TimeSerial,
                    Policy::Ann,
                    Policy::EventDriven,
                ] {
                    let word = simulate_layer(&inputs, policy, shape, &input);
                    let scalar = simulate_layer_reference(&inputs, policy, shape, &input);
                    assert_eq!(
                        word, scalar,
                        "{policy:?} t={t} tw={tw}: word kernel diverged from reference"
                    );
                }
            }
        }
    }

    #[test]
    fn single_window_tiles_pair_nothing() {
        // With one window per column tile (T <= TW) every active entry
        // carries the tile's full tag, so StSAP has nothing to pair and
        // its report is plain PTB's in every field but the policy —
        // from the word kernel and the oracle alike, on wide
        // arrays too.
        use systolic_sim::{ArchConfig, ArrayDims};
        let shape = ConvShape::with_padding(6, 3, 4, 8, 1, 1).unwrap();
        for (t, tw, cols) in [(8usize, 8u32, 8u32), (40, 64, 8), (64, 64, 8), (33, 48, 20)] {
            let input = straddle_input(shape, t);
            let inputs = SimInputs {
                arch: ArchConfig::hpca22().with_array(ArrayDims::new(4, cols)),
                ..SimInputs::hpca22(tw)
            };
            for run in [simulate_layer, simulate_layer_reference] {
                let plain = run(&inputs, Policy::ptb(), shape, &input);
                let packed = run(&inputs, Policy::ptb_with_stsap(), shape, &input);
                assert_eq!((packed.exact_pairs, packed.near_pairs), (0, 0));
                assert!(plain.entries_before > 0, "t={t} tw={tw}: no activity");
                assert_eq!(
                    LayerReport {
                        policy: Policy::ptb(),
                        ..packed
                    },
                    plain,
                    "t={t} tw={tw} cols={cols}"
                );
            }
        }
    }

    #[test]
    fn word_kernel_matches_scalar_reference_on_wide_arrays() {
        // Column counts other than the default 8 pin the paths that
        // setup never reaches: the StSAP scan's sorted-class storage
        // (tiles too wide for 8-bit tags) over `u16` tile masks (12
        // and 16 columns) and `u128` ones (cols > 16), valued and at
        // the beats floor; the fill's lane path on 16- and 32-column
        // arrays (TW 1, 2, 4 and TW 1, 2) and its scalar walker at
        // TW 1 (a tile width that does not divide a storage word: 12
        // and 20). 128 is the Fig. 9(b) extreme, one tile spanning two
        // window words. The dense baselines' column and position tiles
        // widen with the array.
        use systolic_sim::{ArchConfig, ArrayDims};
        let shape = ConvShape::with_padding(6, 3, 4, 8, 1, 1).unwrap();
        for (cols, t) in [8u32, 12, 16, 20, 32, 128]
            .into_iter()
            .flat_map(|cols| [64usize, 70, 130, 200].map(|t| (cols, t)))
        {
            let input = straddle_input(shape, t);
            let inputs = SimInputs {
                arch: ArchConfig::hpca22().with_array(ArrayDims::new(4, cols)),
                ..SimInputs::hpca22(1)
            };
            for tw in [1u32, 2, 3, 4, 5, 7, 8, 12, 24, 32, 48] {
                let inputs = SimInputs {
                    tw_size: tw,
                    ..inputs
                };
                inputs.assert_valid();
                let dense = [Policy::BaselineTemporal, Policy::TimeSerial];
                for policy in [Policy::ptb(), Policy::ptb_with_stsap()]
                    .into_iter()
                    .chain(dense.into_iter().filter(|_| tw == 1))
                {
                    let word = simulate_layer(&inputs, policy, shape, &input);
                    let scalar = simulate_layer_reference(&inputs, policy, shape, &input);
                    assert_eq!(
                        word, scalar,
                        "{policy:?} cols={cols} t={t} tw={tw}: wide-array kernel diverged"
                    );
                }
            }
        }
    }

    #[test]
    fn ac_ops_equal_spikes_times_channels() {
        // With no padding every input neuron appears in a known number of
        // receptive fields; check against a brute-force count.
        let shape = ConvShape::new(5, 3, 2, 4, 1).unwrap();
        let input = SpikeTensor::from_fn(shape.ifmap_neurons(), 16, |n, t| (n + t) % 5 == 0);
        let inputs = SimInputs::hpca22(4);
        let r = simulate_layer(&inputs, Policy::ptb(), shape, &input);
        let mut expected = 0u64;
        for x in 0..shape.ofmap_side() {
            for y in 0..shape.ofmap_side() {
                for n in shape.receptive_field_indices(x, y) {
                    expected += u64::from(input.popcount_range(n, 0, 16));
                }
            }
        }
        expected *= u64::from(shape.out_channels());
        assert_eq!(r.counts.ac_ops, expected);
        assert_eq!(r.useful_ops, expected);
    }

    #[test]
    fn ann_runs_one_dense_pass() {
        let shape = small_shape();
        let input = sparse_input(shape, 64);
        let inputs = SimInputs::hpca22(8);
        let ann = simulate_layer(&inputs, Policy::Ann, shape, &input);
        assert_eq!(ann.counts.ac_ops, 0);
        assert!(ann.counts.mac_ops > 0);
        let dense_macs: u64 = {
            let mut rf_total = 0u64;
            for x in 0..shape.ofmap_side() {
                for y in 0..shape.ofmap_side() {
                    rf_total += shape.receptive_field_indices(x, y).len() as u64;
                }
            }
            rf_total * u64::from(shape.out_channels())
        };
        assert_eq!(ann.counts.mac_ops, dense_macs);
    }

    #[test]
    fn dense_baselines_count_true_taps_under_padding() {
        // Regression for the truncating integer mean: with padding the
        // total tap count is not divisible by the position count, and
        // `rf_total / positions` silently dropped the remainder. The
        // exact accounting reports the true tap count.
        let shape = ConvShape::with_padding(6, 3, 2, 4, 1, 1).unwrap();
        let input = sparse_input(shape, 16);
        let inputs = SimInputs::hpca22(1);
        let positions = (shape.ofmap_side() as usize).pow(2);
        let taps: u64 = (0..positions)
            .map(|p| field_indices(shape, p).len() as u64)
            .sum();
        assert_ne!(
            taps % positions as u64,
            0,
            "padding must make the per-position mean fractional"
        );
        let rows = u64::from(inputs.arch.array.rows());
        let row_tiles = u64::from(shape.out_channels()).div_ceil(rows);
        let t = input.timesteps() as u64;
        // Time-serial: every tap of every position, at every time point.
        let serial = simulate_layer(&inputs, Policy::TimeSerial, shape, &input);
        assert_eq!(serial.entries_before, taps * t * row_tiles);
        // ANN: every tap of every position, once.
        let ann = simulate_layer(&inputs, Policy::Ann, shape, &input);
        assert_eq!(ann.entries_before, taps * row_tiles);
        // Baseline [14]: every tap, once per column tile of time points.
        let cols = u64::from(inputs.arch.array.cols());
        let base = simulate_layer(&inputs, Policy::BaselineTemporal, shape, &input);
        assert_eq!(base.entries_before, taps * t.div_ceil(cols) * row_tiles);
    }
}
