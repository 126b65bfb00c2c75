//! Executable PTB schedules: from a layer and its input activity to an
//! explicit per-iteration stream, executed on the functional
//! [`SystolicEngine`] — producing *real* output spikes, not just access
//! counts.
//!
//! This is the strongest correctness artifact of the reproduction: the
//! exact dataflow the analytic simulator costs (rows = output channels,
//! columns = time windows, silent-neuron skipping, StSAP pair merging
//! with per-column weight selection, Step B replay with membrane
//! carry-over across column tiles) is *executed*, and its output is
//! asserted bit-identical to the functional reference
//! ([`snn_core::layer::SpikingConv`]) by the test suite.

use snn_core::layer::SpikingConv;
use snn_core::spike::SpikeTensor;
use snn_core::{Result, SnnError};
use systolic_sim::array::{ArrayDims, PairData, StreamEntry, SystolicEngine};

use crate::stsap::{pack_tile, tile_full_mask};
use crate::window::WindowPartition;

/// Executes PTB schedules on the functional systolic engine.
///
/// ```
/// use ptb_accel::schedule::PtbExecutor;
/// use snn_core::layer::SpikingConv;
/// use snn_core::neuron::NeuronConfig;
/// use snn_core::shape::ConvShape;
/// use snn_core::spike::SpikeTensor;
/// use systolic_sim::array::ArrayDims;
///
/// let shape = ConvShape::new(6, 3, 2, 4, 1).unwrap();
/// let layer = SpikingConv::from_fn(shape, NeuronConfig::if_model(0.75), |m, c, i, j| {
///     ((m + c + i + j) % 5) as f32 * 0.25
/// });
/// let input = SpikeTensor::from_fn(shape.ifmap_neurons(), 32, |n, t| (n + t) % 6 == 0);
/// let exec = PtbExecutor::new(ArrayDims::new(4, 4), 8, true);
/// let scheduled = exec.run_conv(&layer, &input).unwrap();
/// assert_eq!(scheduled, layer.forward(&input).unwrap()); // bit-exact
/// ```
#[derive(Debug, Clone, Copy)]
pub struct PtbExecutor {
    dims: ArrayDims,
    tw_size: u32,
    stsap: bool,
}

/// Execution statistics of one scheduled layer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Array iterations issued.
    pub iterations: u64,
    /// Streaming slots issued (post-StSAP).
    pub slots: u64,
    /// Raw entries before packing.
    pub entries: u64,
    /// Useful accumulate operations performed by the engine.
    pub useful_ops: u64,
}

impl PtbExecutor {
    /// Creates an executor for the given array geometry and TW size.
    ///
    /// # Panics
    ///
    /// Panics if `tw_size` is outside `1..=64`.
    pub fn new(dims: ArrayDims, tw_size: u32, stsap: bool) -> Self {
        assert!((1..=64).contains(&tw_size), "tw size must be in 1..=64");
        PtbExecutor {
            dims,
            tw_size,
            stsap,
        }
    }

    /// Runs the layer under the PTB schedule, returning the output
    /// spikes (bit-identical to [`SpikingConv::forward`]).
    ///
    /// # Errors
    ///
    /// Returns [`SnnError::DimensionMismatch`] if the input does not
    /// match the layer's ifmap.
    pub fn run_conv(&self, layer: &SpikingConv, input: &SpikeTensor) -> Result<SpikeTensor> {
        self.run_conv_with_stats(layer, input).map(|(out, _)| out)
    }

    /// Like [`PtbExecutor::run_conv`] but also returns execution
    /// statistics.
    ///
    /// # Errors
    ///
    /// Returns [`SnnError::DimensionMismatch`] if the input does not
    /// match the layer's ifmap.
    pub fn run_conv_with_stats(
        &self,
        layer: &SpikingConv,
        input: &SpikeTensor,
    ) -> Result<(SpikeTensor, ExecStats)> {
        let shape = layer.shape();
        if input.neurons() != shape.ifmap_neurons() {
            return Err(SnnError::DimensionMismatch {
                expected: shape.ifmap_neurons(),
                actual: input.neurons(),
                what: "neurons",
            });
        }
        let t = input.timesteps();
        if t == 0 {
            return Ok((
                SpikeTensor::new(shape.ofmap_neurons(), 0),
                ExecStats::default(),
            ));
        }
        let part = WindowPartition::new(t, self.tw_size as usize);
        let engine = SystolicEngine::new(self.dims, self.tw_size);
        let rows = self.dims.rows() as usize;
        let cols = self.dims.cols() as usize;
        let m = shape.out_channels() as usize;
        let e = shape.ofmap_side();
        let mut out = SpikeTensor::new(shape.ofmap_neurons(), t);
        let mut stats = ExecStats::default();

        for x in 0..e {
            for y in 0..e {
                let taps = shape.receptive_field_taps(x, y);
                // Full psum timeline for every output channel at (x, y).
                let mut psums = vec![vec![0.0f32; t]; m];
                for (w0, w1) in part.column_tiles(cols) {
                    let nw = w1 - w0;
                    let full = tile_full_mask(nw);
                    // Active taps in this span, with tags and words.
                    let mut tags: Vec<u128> = Vec::new();
                    let mut active: Vec<usize> = Vec::new(); // tap indices
                    let mut words: Vec<Vec<u64>> = Vec::new();
                    for (ti, tap) in taps.iter().enumerate() {
                        let mut tag = 0u128;
                        let mut w = vec![0u64; nw];
                        for (i, win) in (w0..w1).enumerate() {
                            let (s, epoch) = part.window_range(win);
                            let word = input.spike_word(tap.input_index, s, epoch - s);
                            if word != 0 {
                                tag |= 1 << i;
                            }
                            w[i] = word;
                        }
                        if tag != 0 {
                            tags.push(tag);
                            active.push(ti);
                            words.push(w);
                        }
                    }
                    if tags.is_empty() {
                        continue;
                    }
                    stats.entries += tags.len() as u64;

                    // Row tiles over output channels.
                    for m0 in (0..m).step_by(rows) {
                        let weight_of = |ti: usize, r: usize| -> f32 {
                            let tap = &taps[active[ti]];
                            if m0 + r < m {
                                layer.weights()[[
                                    m0 + r,
                                    tap.channel as usize,
                                    tap.kernel_row as usize,
                                    tap.kernel_col as usize,
                                ]]
                            } else {
                                0.0 // idle rows beyond the channel count
                            }
                        };
                        let mut entries: Vec<StreamEntry> = Vec::new();
                        let push_single = |ti: usize, entries: &mut Vec<StreamEntry>| {
                            let mut col_spikes = vec![0u64; cols];
                            col_spikes[..nw].copy_from_slice(&words[ti]);
                            entries.push(StreamEntry::single(
                                (0..rows).map(|r| weight_of(ti, r)).collect(),
                                col_spikes,
                            ));
                        };
                        if self.stsap {
                            let packed = pack_tile(&tags, full);
                            for slot in &packed.slots {
                                match slot.second {
                                    None => push_single(slot.first, &mut entries),
                                    Some(second) => {
                                        // Merged words: tags are disjoint,
                                        // so per column at most one member
                                        // contributes.
                                        let mut col_spikes = vec![0u64; cols];
                                        for i in 0..nw {
                                            col_spikes[i] = words[slot.first][i] | words[second][i];
                                        }
                                        entries.push(StreamEntry {
                                            row_weights: (0..rows)
                                                .map(|r| weight_of(slot.first, r))
                                                .collect(),
                                            col_spikes,
                                            pair: Some(PairData {
                                                row_weights: (0..rows)
                                                    .map(|r| weight_of(second, r))
                                                    .collect(),
                                                col_select: tags[second],
                                            }),
                                        });
                                    }
                                }
                            }
                        } else {
                            for ti in 0..tags.len() {
                                push_single(ti, &mut entries);
                            }
                        }
                        stats.slots += entries.len() as u64;
                        stats.iterations += 1;
                        let result = engine.run(&entries);
                        stats.useful_ops += result.useful_ops;
                        // Scatter the engine's psums into the timeline.
                        for (r, row_psums) in result.psums.iter().enumerate() {
                            if m0 + r >= m {
                                break;
                            }
                            for (i, win) in (w0..w1).enumerate() {
                                let (s, epoch) = part.window_range(win);
                                for (k, tp) in (s..epoch).enumerate() {
                                    psums[m0 + r][tp] += row_psums[i][k];
                                }
                            }
                        }
                    }
                }
                // Step B: serial membrane replay per output neuron.
                for (mc, timeline) in psums.iter().enumerate() {
                    let mut v = 0.0f32;
                    let idx = shape.ofmap_index(mc as u32, x, y);
                    for (tp, &p) in timeline.iter().enumerate() {
                        if layer.neuron().step(&mut v, p) {
                            out.set(idx, tp, true);
                        }
                    }
                }
            }
        }
        Ok((out, stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snn_core::neuron::NeuronConfig;
    use snn_core::shape::ConvShape;

    fn test_layer(leak: f32) -> (SpikingConv, SpikeTensor) {
        let shape = ConvShape::with_padding(6, 3, 3, 5, 1, 1).unwrap();
        let layer = SpikingConv::from_fn(shape, NeuronConfig::lif(0.7, leak), |m, c, i, j| {
            ((m * 11 + c * 7 + i * 3 + j) % 13) as f32 / 16.0 - 0.25
        });
        let input =
            SpikeTensor::from_fn(shape.ifmap_neurons(), 50, |n, t| (n * 17 + t * 5) % 9 == 0);
        (layer, input)
    }

    #[test]
    fn scheduled_execution_is_bit_exact_plain() {
        let (layer, input) = test_layer(0.02);
        let reference = layer.forward(&input).unwrap();
        for tw in [1u32, 4, 8, 16] {
            let exec = PtbExecutor::new(ArrayDims::new(4, 4), tw, false);
            assert_eq!(exec.run_conv(&layer, &input).unwrap(), reference, "tw={tw}");
        }
    }

    #[test]
    fn scheduled_execution_is_bit_exact_with_stsap() {
        let (layer, input) = test_layer(0.0);
        let reference = layer.forward(&input).unwrap();
        for tw in [1u32, 2, 8] {
            for dims in [
                ArrayDims::new(2, 8),
                ArrayDims::new(8, 2),
                ArrayDims::new(16, 8),
            ] {
                let exec = PtbExecutor::new(dims, tw, true);
                assert_eq!(
                    exec.run_conv(&layer, &input).unwrap(),
                    reference,
                    "tw={tw} dims={dims}"
                );
            }
        }
    }

    #[test]
    fn stsap_reduces_slots_in_execution() {
        let (layer, input) = test_layer(0.0);
        let plain = PtbExecutor::new(ArrayDims::new(4, 4), 4, false)
            .run_conv_with_stats(&layer, &input)
            .unwrap()
            .1;
        let packed = PtbExecutor::new(ArrayDims::new(4, 4), 4, true)
            .run_conv_with_stats(&layer, &input)
            .unwrap()
            .1;
        assert!(
            packed.slots < plain.slots,
            "{} !< {}",
            packed.slots,
            plain.slots
        );
        assert_eq!(packed.useful_ops, plain.useful_ops, "same actual work");
        assert_eq!(packed.entries, plain.entries);
    }

    #[test]
    fn silent_input_produces_silent_output_and_no_slots() {
        let (layer, _) = test_layer(0.0);
        let silent = SpikeTensor::new(layer.shape().ifmap_neurons(), 20);
        let (out, stats) = PtbExecutor::new(ArrayDims::new(4, 4), 8, true)
            .run_conv_with_stats(&layer, &silent)
            .unwrap();
        assert_eq!(out.total_spikes(), 0);
        assert_eq!(stats.slots, 0);
        assert_eq!(stats.iterations, 0);
    }

    #[test]
    fn rejects_mismatched_input() {
        let (layer, _) = test_layer(0.0);
        let exec = PtbExecutor::new(ArrayDims::new(4, 4), 8, false);
        assert!(exec.run_conv(&layer, &SpikeTensor::new(3, 10)).is_err());
    }

    #[test]
    fn useful_ops_match_spike_weighted_work() {
        // Every spike of every in-range tap triggers one accumulate per
        // *array row* (idle rows still count as occupied but weight 0.0
        // contributes nothing to psums; useful counts spike-bit hits).
        let (layer, input) = test_layer(0.0);
        let rows = 4u64;
        let stats = PtbExecutor::new(ArrayDims::new(4, 4), 8, false)
            .run_conv_with_stats(&layer, &input)
            .unwrap()
            .1;
        let shape = layer.shape();
        let mut spikes_in_rf = 0u64;
        for x in 0..shape.ofmap_side() {
            for y in 0..shape.ofmap_side() {
                for n in shape.receptive_field_indices(x, y) {
                    spikes_in_rf += u64::from(input.popcount_range(n, 0, 50));
                }
            }
        }
        // 5 output channels over 4-row tiles -> 2 tiles, second half idle.
        let row_tiles = (shape.out_channels() as u64).div_ceil(rows);
        assert_eq!(stats.useful_ops, spikes_in_rf * rows * row_tiles);
    }
}
