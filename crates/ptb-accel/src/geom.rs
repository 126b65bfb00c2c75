//! Shared per-layer geometry and spike tables for the simulator.
//!
//! Every policy in [`crate::sim`] walks the same iteration space: output
//! positions, their receptive fields, and the input's spike activity
//! viewed either per time point or per time window. Before this module
//! existed each policy recomputed `receptive_field_indices` at every
//! position and built its own popcount tables inline; now the geometry
//! is computed once per `simulate_layer` call and shared read-only by
//! every worker of the parallel position scan.
//!
//! The popcount tables are deliberately wider than the hardware needs:
//! a window's spike count is bounded by the window length, and the
//! simulator accepts partitions far longer than the accelerator's
//! 64-point packed-word limit (e.g. when studying window geometry in
//! isolation). `u16` entries keep counts exact up to 65 535 time points
//! per window, where the previous `u8` table silently truncated beyond
//! 255.

use snn_core::shape::ConvShape;
use snn_core::spike::SpikeTensor;

use crate::window::WindowPartition;

/// Precomputed receptive-field geometry of one layer: the input-neuron
/// indices feeding every output position, in the simulator's canonical
/// position order (`x` major, `y` minor — position `p = x · E + y`).
#[derive(Debug, Clone)]
pub struct LayerGeometry {
    side: usize,
    rf: Vec<Vec<usize>>,
    rf_total: u64,
}

impl LayerGeometry {
    /// Builds the geometry for `shape`, visiting positions in the same
    /// `x`-major order the serial simulator historically used.
    pub fn new(shape: ConvShape) -> Self {
        let e = shape.ofmap_side();
        let side = e as usize;
        let mut rf = Vec::with_capacity(side * side);
        let mut rf_total = 0u64;
        for x in 0..e {
            for y in 0..e {
                let indices = shape.receptive_field_indices(x, y);
                rf_total += indices.len() as u64;
                rf.push(indices);
            }
        }
        LayerGeometry { side, rf, rf_total }
    }

    /// Output feature-map side `E`.
    pub fn side(&self) -> usize {
        self.side
    }

    /// Number of output positions, `E²`.
    pub fn positions(&self) -> usize {
        self.rf.len()
    }

    /// Receptive field of position `p` (`p = x · E + y`).
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    pub fn rf(&self, p: usize) -> &[usize] {
        &self.rf[p]
    }

    /// Receptive-field length of position `p`. With padding, edge
    /// positions have shorter fields than interior ones.
    pub fn rf_len(&self, p: usize) -> u64 {
        self.rf[p].len() as u64
    }

    /// Total taps across all positions, `Σ_p |RF(p)|` — the layer's true
    /// tap count, exact even when padding makes the per-position lengths
    /// uneven.
    pub fn rf_total(&self) -> u64 {
        self.rf_total
    }

    /// Longest receptive field among positions `p0..p1` (a position
    /// tile). Zero for an empty range.
    pub fn max_rf_len(&self, p0: usize, p1: usize) -> u64 {
        (p0..p1.min(self.rf.len()))
            .map(|p| self.rf_len(p))
            .max()
            .unwrap_or(0)
    }
}

/// Per-(neuron, window) spike counts of `input` under `part`, row-major
/// by neuron: entry `n · W + w` is the number of spikes neuron `n` fires
/// inside window `w`.
///
/// Counts are `u16`, exact for windows up to 65 535 time points; the
/// previous inline `u8` table truncated any window longer than 255
/// points (the accelerator itself caps packed words at 64 bits, but the
/// analysis path does not).
///
/// The build is word-parallel: windows of 64 points or fewer are read
/// as one funnel-shifted [`SpikeTensor::spike_word`] and popcounted;
/// `TWS = 1` walks only the *set* bits of each storage word (a sparse
/// tensor fills its per-point table in `O(spikes)` rather than
/// `O(N · T)` stores); longer windows fall back to the word-wise
/// [`SpikeTensor::popcount_range`].
///
/// # Panics
///
/// Panics if `part` does not cover exactly `input.timesteps()` points,
/// or if a window is longer than `u16::MAX` time points.
pub fn window_popcounts(input: &SpikeTensor, part: &WindowPartition) -> Vec<u16> {
    assert_eq!(
        part.timesteps(),
        input.timesteps(),
        "partition must cover the input's operational period"
    );
    let n_w = part.num_windows();
    let tw = part.tw_size();
    let mut pops = vec![0u16; input.neurons() * n_w];
    for n in 0..input.neurons() {
        let base = n * n_w;
        if tw == 1 {
            // Per-point windows: the count of window `t` is the spike
            // bit at `t`, so only set bits need a store.
            for (wi, &word) in input.neuron_words(n).iter().enumerate() {
                let mut word = word;
                while word != 0 {
                    let t = wi * 64 + word.trailing_zeros() as usize;
                    pops[base + t] = 1;
                    word &= word - 1;
                }
            }
        } else if tw <= 64 {
            for (w, s, e) in part.iter() {
                pops[base + w] = input.spike_word(n, s, e - s).count_ones() as u16;
            }
        } else {
            for (w, s, e) in part.iter() {
                pops[base + w] = u16::try_from(input.popcount_range(n, s, e))
                    .expect("window spike count must fit u16");
            }
        }
    }
    pops
}

/// Extracts windows `w0..w1` (at most 128) of neuron `n`'s
/// window-activity bits from a neuron-major table with `tag_words`
/// words per neuron (bit `w % 64` of word `w / 64` ⇔ window `w` is
/// active), packed little-endian (bit `i` = window `w0 + i`). Reads at
/// most three words; bits past the table read as zero. At `TWS = 1` the
/// spike tensor's own words are such a table.
///
/// # Panics
///
/// Panics (in debug builds) if the span exceeds 128 windows.
#[inline]
pub fn tag_mask(tags: &[u64], tag_words: usize, n: usize, w0: usize, w1: usize) -> u128 {
    debug_assert!(
        w0 < w1 && w1 - w0 <= 128,
        "tag span must be 1..=128 windows"
    );
    let nw = w1 - w0;
    let base = n * tag_words;
    let word = |i: usize| -> u64 {
        if i < tag_words {
            tags[base + i]
        } else {
            0
        }
    };
    let first = w0 / 64;
    let shift = w0 % 64;
    let lo = u128::from(word(first)) | (u128::from(word(first + 1)) << 64);
    let mut out = lo >> shift;
    if shift > 0 {
        out |= u128::from(word(first + 2)) << (128 - shift);
    }
    if nw < 128 {
        out &= (1u128 << nw) - 1;
    }
    out
}

/// Per-(neuron, time point) spike bits of `input`, row-major by neuron:
/// entry `n · T + t` is 1 iff neuron `n` fires at time `t`.
///
/// This dense table was the hot-path representation before the
/// bit-parallel kernel; it is retained as the *serial per-bit
/// reference* — [`crate::sim::simulate_layer_reference`] streams from
/// it, and the equivalence tests pin the word kernel against it.
pub fn spike_bits(input: &SpikeTensor) -> Vec<u8> {
    let t = input.timesteps();
    let mut bits = vec![0u8; input.neurons() * t];
    for n in 0..input.neurons() {
        let base = n * t;
        for tp in 0..t {
            bits[base + tp] = u8::from(input.get(n, tp));
        }
    }
    bits
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_matches_shape_queries() {
        let shape = ConvShape::with_padding(6, 3, 2, 4, 1, 1).unwrap();
        let geo = LayerGeometry::new(shape);
        let e = shape.ofmap_side();
        assert_eq!(geo.side(), e as usize);
        assert_eq!(geo.positions(), (e as usize).pow(2));
        let mut total = 0u64;
        for x in 0..e {
            for y in 0..e {
                let p = (x * e + y) as usize;
                let expect = shape.receptive_field_indices(x, y);
                assert_eq!(geo.rf(p), expect.as_slice(), "position ({x},{y})");
                total += expect.len() as u64;
            }
        }
        assert_eq!(geo.rf_total(), total);
    }

    #[test]
    fn padded_geometry_has_uneven_fields() {
        let shape = ConvShape::with_padding(6, 3, 2, 4, 1, 1).unwrap();
        let geo = LayerGeometry::new(shape);
        // Corner position sees a cropped field, interior sees the full one.
        assert!(geo.rf_len(0) < shape.receptive_field() as u64);
        let e = geo.side();
        let interior = e + 1; // (1, 1)
        assert_eq!(geo.rf_len(interior), shape.receptive_field() as u64);
        assert!(geo.max_rf_len(0, geo.positions()) == shape.receptive_field() as u64);
        // The total is NOT divisible by the position count — the case an
        // integer mean silently truncates.
        assert_ne!(geo.rf_total() % geo.positions() as u64, 0);
    }

    #[test]
    fn window_popcounts_survive_large_windows() {
        // Regression: a neuron firing at every one of 300 points in a
        // single 300-point window must count 300, not 300 mod 256 = 44
        // (the old `u8` table's silent truncation).
        let t = 300;
        let input = SpikeTensor::from_fn(2, t, |n, _| n == 0);
        let part = WindowPartition::new(t, t);
        let pops = window_popcounts(&input, &part);
        assert_eq!(pops, vec![300u16, 0]);
        assert!(pops[0] > u64::from(u8::MAX) as u16);
    }

    #[test]
    fn window_popcounts_match_popcount_range() {
        let input = SpikeTensor::from_fn(5, 37, |n, t| (n * 7 + t * 3) % 4 == 0);
        let part = WindowPartition::new(37, 8);
        let pops = window_popcounts(&input, &part);
        for n in 0..5 {
            for (w, s, e) in part.iter() {
                assert_eq!(
                    u32::from(pops[n * part.num_windows() + w]),
                    input.popcount_range(n, s, e)
                );
            }
        }
    }

    #[test]
    fn tag_mask_matches_per_window_walk() {
        // Every (start, span) alignment against a per-bit rebuild,
        // including spans that straddle word boundaries and spans
        // running past the last time point (must read as zero). The
        // table is a 130-point tensor's own words: 3 words per neuron.
        let t = 130;
        let input = SpikeTensor::from_fn(4, t, |n, tp| (n * 31 + tp * 7) % 19 == 0);
        let tag_words = input.words_per_neuron();
        for n in 0..4 {
            for w0 in (0..t).step_by(3) {
                for span in [1usize, 7, 63, 64, 65, 127, 128] {
                    let w1 = w0 + span;
                    let got = tag_mask(input.words(), tag_words, n, w0, w1);
                    let mut expect = 0u128;
                    for (i, w) in (w0..w1).enumerate() {
                        if w < t && input.get(n, w) {
                            expect |= 1 << i;
                        }
                    }
                    assert_eq!(got, expect, "neuron {n} windows {w0}..{w1}");
                }
            }
        }
    }

    #[test]
    fn spike_bits_match_tensor() {
        let input = SpikeTensor::from_fn(4, 11, |n, t| (n + t) % 3 == 0);
        let bits = spike_bits(&input);
        for n in 0..4 {
            for t in 0..11 {
                assert_eq!(bits[n * 11 + t] == 1, input.get(n, t));
            }
        }
    }
}
