//! Shared per-layer geometry and spike tables for the simulator.
//!
//! Every policy in [`crate::sim`] walks the same iteration space: output
//! positions, their receptive fields, and the input's spike activity
//! viewed either per time point or per time window. Before this module
//! existed each policy recomputed `receptive_field_indices` at every
//! position and built its own popcount tables inline; now the geometry
//! is computed once per `simulate_layer` call and shared read-only by
//! every worker of the parallel position scan. The policies whose
//! per-position terms are receptive-field sums skip the per-position
//! lists altogether: [`BoxScan`] answers each field's sum from 2D
//! prefix planes.
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

/// Summed-area planes over one layer's ifmap: the box-sum primitive of
/// every sum-separable policy scan.
///
/// Output position `p = x · E + y` reads the box of input rows
/// `x·U − pad .. x·U − pad + R` and columns `y·U − pad .. y·U − pad + R`
/// (clipped to the map) across *every* channel — exactly the neurons
/// [`ConvShape::receptive_field_indices`] lists. So any per-neuron
/// quantity summed over a receptive field is the same sum over that box
/// of a channel-summed `(row, col)` plane. A scan fills `planes` such
/// values per neuron ([`BoxScan::fill`]), integrates them into 2D prefix
/// sums ([`BoxScan::integrate`]), and then answers each position with
/// four lookups per plane ([`BoxScan::query`]) instead of walking its
/// `C × R × R` taps. Sums are `u64` integers, so a box sum equals the
/// gathered sum exactly.
///
/// Storage is `(H + 1)² × planes` words, cell-major (one cell's planes
/// are adjacent, so a corner lookup touches one cache line), with the
/// zero row and column of the prefix convention built in.
#[derive(Debug, Clone)]
pub struct BoxScan {
    side: usize,
    channels: usize,
    planes: usize,
    /// Clipped input range `lo..hi` of each output row (and, the map
    /// being square, of each output column).
    spans: Vec<(usize, usize)>,
    sums: Vec<u64>,
}

impl BoxScan {
    /// Zeroed planes for `shape`, `planes` values per cell.
    pub fn new(shape: ConvShape, planes: usize) -> Self {
        let side = shape.ifmap_side() as usize;
        let (r, u, pad) = (
            shape.filter_side() as usize,
            shape.stride() as usize,
            shape.padding() as usize,
        );
        let spans = (0..shape.ofmap_side() as usize)
            .map(|x| {
                let hi = (x * u + r).saturating_sub(pad).min(side);
                ((x * u).saturating_sub(pad).min(hi), hi)
            })
            .collect();
        BoxScan {
            side,
            channels: shape.in_channels() as usize,
            planes,
            spans,
            sums: vec![0; (side + 1) * (side + 1) * planes],
        }
    }

    /// Number of output positions, `E²`.
    pub fn positions(&self) -> usize {
        self.spans.len() * self.spans.len()
    }

    /// Receptive-field length of position `p`: channels times the
    /// clipped box area, equal to [`LayerGeometry::rf_len`].
    #[inline]
    pub fn field_len(&self, p: usize) -> u64 {
        let e = self.spans.len();
        let (r0, r1) = self.spans[p / e];
        let (s0, s1) = self.spans[p % e];
        (self.channels * (r1 - r0) * (s1 - s0)) as u64
    }

    /// Resets every plane and adds `value(n, cell)` for every ifmap
    /// neuron `n` in index order: the callback adds neuron `n`'s
    /// `planes` values into `cell`, which every channel at the same
    /// `(row, col)` shares.
    pub fn fill(&mut self, mut value: impl FnMut(usize, &mut [u64])) {
        self.sums.fill(0);
        let (h, k) = (self.side, self.planes);
        let mut n = 0;
        for _ in 0..self.channels {
            for r in 0..h {
                let row = (r + 1) * (h + 1) + 1;
                for s in 0..h {
                    value(n, &mut self.sums[(row + s) * k..(row + s + 1) * k]);
                    n += 1;
                }
            }
        }
    }

    /// Turns the filled cell values into inclusive 2D prefix sums in
    /// place: afterwards cell `(i, j)` holds the total over rows `< i`
    /// and columns `< j`.
    pub fn integrate(&mut self) {
        let k = self.planes;
        let stride = (self.side + 1) * k;
        let mut run = vec![0u64; k];
        for i in 1..=self.side {
            let (above, rest) = self.sums.split_at_mut(i * stride);
            let up_row = above[(i - 1) * stride..].chunks_exact(k);
            run.fill(0);
            for (cell, up) in rest[..stride].chunks_exact_mut(k).zip(up_row).skip(1) {
                for ((c, &u), r) in cell.iter_mut().zip(up).zip(run.iter_mut()) {
                    *r += *c;
                    *c = *r + u;
                }
            }
        }
    }

    /// Writes position `p`'s box sum of every plane into `out[..planes]`
    /// (zeros when padding leaves the field empty).
    #[inline]
    pub fn query(&self, p: usize, out: &mut [u64]) {
        let e = self.spans.len();
        let (r0, r1) = self.spans[p / e];
        let (s0, s1) = self.spans[p % e];
        let (w, k) = (self.side + 1, self.planes);
        let (a, b) = ((r1 * w + s1) * k, (r0 * w + s0) * k);
        let (c, d) = ((r0 * w + s1) * k, (r1 * w + s0) * k);
        for (q, o) in out[..k].iter_mut().enumerate() {
            *o = (self.sums[a + q] + self.sums[b + q]) - (self.sums[c + q] + self.sums[d + q]);
        }
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
    fn box_sums_equal_receptive_field_gathers() {
        // Stride, padding past the filter's reach (empty fields), large
        // filters and the FC case (a 1x1 map, one position).
        let shapes = [
            ConvShape::with_padding(6, 3, 4, 8, 1, 1).unwrap(),
            ConvShape::with_padding(11, 5, 2, 4, 2, 2).unwrap(),
            ConvShape::with_padding(23, 11, 3, 4, 4, 2).unwrap(),
            ConvShape::with_padding(7, 1, 3, 4, 2, 2).unwrap(),
            ConvShape::new(1, 1, 64, 8, 1).unwrap(),
        ];
        for shape in shapes {
            let geo = LayerGeometry::new(shape);
            let value = |n: usize, q: usize| ((n * 2_654_435_761 + q * 97) % 13) as u64;
            let mut boxes = BoxScan::new(shape, 3);
            assert_eq!(boxes.positions(), geo.positions());
            boxes.fill(|n, cell| {
                for (q, c) in cell.iter_mut().enumerate() {
                    *c += value(n, q);
                }
            });
            boxes.integrate();
            let mut got = [0u64; 3];
            for p in 0..geo.positions() {
                assert_eq!(boxes.field_len(p), geo.rf_len(p), "{shape:?} position {p}");
                boxes.query(p, &mut got);
                for (q, &g) in got.iter().enumerate() {
                    let expect: u64 = geo.rf(p).iter().map(|&n| value(n, q)).sum();
                    assert_eq!(g, expect, "{shape:?} position {p} plane {q}");
                }
            }
        }
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
