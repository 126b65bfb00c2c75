//! Receptive-field box sums and spike tables for the simulator.
//!
//! Every policy in [`crate::sim`] walks the same iteration space: output
//! positions, their receptive fields, and the input's spike activity
//! viewed either per time point or per time window. A receptive field is
//! a clipped `(row, col)` box across every channel, so the production
//! scans never list one: [`BoxScan`] answers each field's sums from 2D
//! prefix planes, its length from the box, its box itself for per-cell
//! tables, and scatters a band of fields' flagged neurons, each once, to
//! every position whose field covers it. A [`FiringIndex`] lists the
//! neurons that fire at all, channel by channel, so that PTB's plane
//! fill never visits a silent one.
//!
//! The rest of this module serves the slow paths — the oracle
//! ([`crate::sim::oracle`]) and the audit ([`crate::audit`]): a field's
//! list, one position at a time (`field_indices`), and the dense
//! per-(neuron, time point) bits ([`spike_bits`]) and per-(neuron,
//! window) counts ([`window_popcounts`]) they read it through.
//!
//! The popcount tables are deliberately wider than the hardware needs:
//! a window's spike count is bounded by the window length, and the
//! simulator accepts partitions far longer than the accelerator's
//! 64-point packed-word limit (e.g. when studying window geometry in
//! isolation). `u16` entries keep counts exact up to 65 535 time points
//! per window, where the previous `u8` table silently truncated beyond
//! 255.

use std::ops::Range;

use snn_core::shape::ConvShape;
use snn_core::spike::SpikeTensor;

use crate::window::WindowPartition;

/// Clipped input range `lo..hi` of each output row of `shape` (and, the
/// map being square, of each output column): the box every channel of
/// a receptive field covers.
fn field_spans(shape: ConvShape) -> Vec<(usize, usize)> {
    let side = shape.ifmap_side() as usize;
    let (r, u, pad) = (
        shape.filter_side() as usize,
        shape.stride() as usize,
        shape.padding() as usize,
    );
    (0..shape.ofmap_side() as usize)
        .map(|x| {
            let hi = (x * u + r).saturating_sub(pad).min(side);
            ((x * u).saturating_sub(pad).min(hi), hi)
        })
        .collect()
}

/// Receptive field of output position `p = x · E + y`, in
/// [`ConvShape::receptive_field_indices`] order: the per-position list
/// the oracle and the audit gather from.
pub(crate) fn field_indices(shape: ConvShape, p: usize) -> Vec<usize> {
    let e = shape.ofmap_side() as usize;
    shape.receptive_field_indices((p / e) as u32, (p % e) as u32)
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
    /// Output rows (and columns) whose field covers each input row (or
    /// column): see [`BoxScan::covering`].
    covers: Vec<Range<usize>>,
    sums: Vec<u64>,
}

impl BoxScan {
    /// Zeroed planes for `shape`, `planes` values per cell.
    pub fn new(shape: ConvShape, planes: usize) -> Self {
        let side = shape.ifmap_side() as usize;
        let spans = field_spans(shape);
        let covers = (0..side)
            .map(|r| {
                let x0 = spans.partition_point(|&(_, hi)| hi <= r);
                x0..spans.partition_point(|&(lo, _)| lo <= r).max(x0)
            })
            .collect();
        BoxScan {
            side,
            channels: shape.in_channels() as usize,
            planes,
            spans,
            covers,
            sums: vec![0; (side + 1) * (side + 1) * planes],
        }
    }

    /// Words the planes take.
    pub fn words(&self) -> usize {
        self.sums.len()
    }

    /// Number of output positions, `E²`.
    pub fn positions(&self) -> usize {
        self.spans.len() * self.spans.len()
    }

    /// The clipped input rows `r0..r1` and columns `s0..s1` of position
    /// `p`'s receptive field, as `((r0, r1), (s0, s1))`: the box every
    /// channel of the field covers (empty when padding leaves it
    /// outside the map).
    #[inline]
    pub fn field_box(&self, p: usize) -> ((usize, usize), (usize, usize)) {
        let e = self.spans.len();
        (self.spans[p / e], self.spans[p % e])
    }

    /// Receptive-field length of position `p`: channels times the
    /// clipped box area, the length of
    /// [`ConvShape::receptive_field_indices`] at that position.
    #[inline]
    pub fn field_len(&self, p: usize) -> u64 {
        let ((r0, r1), (s0, s1)) = self.field_box(p);
        (self.channels * (r1 - r0) * (s1 - s0)) as u64
    }

    /// Each input cell's `planes` values, row by row: cell `row · H +
    /// col` is the one neuron `c · H² + row · H + col` of every channel
    /// `c` adds into. The hook for scans that fill the planes
    /// themselves.
    pub fn cells_mut(&mut self) -> impl Iterator<Item = &mut [u64]> {
        let (h, k) = (self.side, self.planes);
        self.sums
            .chunks_exact_mut((h + 1) * k)
            .skip(1)
            .flat_map(move |row| row[k..].chunks_exact_mut(k))
    }

    /// Input cell `cell`'s `planes` values: the item
    /// [`BoxScan::cells_mut`] yields at that index.
    #[inline]
    pub fn cell_mut(&mut self, cell: usize) -> &mut [u64] {
        let (h, k) = (self.side, self.planes);
        let at = (cell / h + 1) * (h + 1) + cell % h + 1;
        &mut self.sums[at * k..(at + 1) * k]
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
        self.query_from(p, 0, &mut out[..self.planes]);
    }

    /// Writes position `p`'s box sums of planes `first..first +
    /// out.len()` into `out`.
    #[inline]
    pub fn query_from(&self, p: usize, first: usize, out: &mut [u64]) {
        let ((r0, r1), (s0, s1)) = self.field_box(p);
        let (w, k) = (self.side + 1, self.planes);
        let (a, b) = ((r1 * w + s1) * k + first, (r0 * w + s0) * k + first);
        let (c, d) = ((r0 * w + s1) * k + first, (r1 * w + s0) * k + first);
        for (q, o) in out.iter_mut().enumerate() {
            *o = (self.sums[a + q] + self.sums[b + q]) - (self.sums[c + q] + self.sums[d + q]);
        }
    }

    /// The output rows whose field covers input row `r` (and, the map
    /// being square, the output columns whose field covers input column
    /// `r`): the inverse of [`BoxScan::field_box`]. Both ends of a
    /// field's span grow with its output row, so the rows are one range
    /// (empty when no field reaches `r`).
    #[inline]
    pub fn covering(&self, r: usize) -> Range<usize> {
        self.covers[r].clone()
    }

    /// Hands every neuron of the output rows `rows`' receptive fields
    /// whose bit is set in `bits` (bit `n % 64` of word `n / 64`) to
    /// `visit(n, xs, ys)`, with the positions whose field holds it:
    /// output rows `xs` (within `rows`) times output columns `ys`. It
    /// walks the band's input rows once, channel by channel, a word of
    /// `bits` at a time, in ascending index order, so each position is
    /// handed its field's flagged neurons in the order
    /// [`ConvShape::receptive_field_indices`] lists them. A band whose
    /// fields reach every input row is one run over all channels, and a
    /// lone whole-map field (an FC layer) takes every flagged neuron.
    pub fn scatter(
        &self,
        rows: Range<usize>,
        bits: &[u64],
        mut visit: impl FnMut(usize, Range<usize>, Range<usize>),
    ) {
        let (h, lo, hi) = (
            self.side,
            self.spans[rows.start].0,
            self.spans[rows.end - 1].1,
        );
        if lo >= hi {
            return;
        }
        if self.spans.len() == 1 && lo == 0 && hi == h {
            // One position whose field is the whole map (an FC layer):
            // every flagged neuron is its own.
            for (w, &word) in bits.iter().enumerate() {
                let mut word = word;
                while word != 0 {
                    visit(w * 64 + word.trailing_zeros() as usize, 0..1, 0..1);
                    word &= word - 1;
                }
            }
            return;
        }
        // Each channel's rows `lo..hi` are one run of bits; full rows
        // run on into the next channel.
        let (runs, len) = if lo == 0 && hi == h {
            (1, self.channels * h * h)
        } else {
            (self.channels, (hi - lo) * h)
        };
        for c in 0..runs {
            let start = (c * h + lo) * h;
            let end = start + len;
            // Input row `r` of the current bit ends at `row_end`.
            let (mut r, mut row_end) = (lo, start + h);
            let words = bits[..end.div_ceil(64)].iter().enumerate();
            for (w, &word) in words.skip(start / 64) {
                let mut word = word;
                if w == start / 64 {
                    word &= u64::MAX << (start % 64);
                }
                if w == (end - 1) / 64 {
                    word &= u64::MAX >> (63 - (end - 1) % 64);
                }
                while word != 0 {
                    let n = w * 64 + word.trailing_zeros() as usize;
                    word &= word - 1;
                    while n >= row_end {
                        row_end += h;
                        r = if r + 1 == h { 0 } else { r + 1 };
                    }
                    let xs = &self.covers[r];
                    let xs = xs.start.max(rows.start)..xs.end.min(rows.end);
                    if !xs.is_empty() {
                        visit(n, xs, self.covering(n + h - row_end));
                    }
                }
            }
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

/// The neurons of a layer's input that fire at least once, in ascending
/// index order: channel by channel, each channel's firing `(row, col)`
/// cells (`row · H + col`, so neuron `c · H² + cell`). Silent neurons
/// are never fetched under PTB (their TB-tags are zero), so PTB's plane
/// fill walks this index instead of every neuron, and its input fetch
/// is the index's length.
///
/// It is a function of the tensor alone, the same at every TW size:
/// [`crate::PreparedLayer`] builds it once per activity and hands it to
/// each PTB simulation of the layer, and [`crate::simulate_layer`]
/// builds a fresh one per PTB call. Storage is 4 bytes per firing
/// neuron plus 4 per channel.
#[derive(Debug)]
pub struct FiringIndex {
    /// End of each channel's run in `cells`; a run starts where the
    /// previous channel's ends.
    ends: Vec<u32>,
    /// The firing cells, channel by channel, ascending within each.
    cells: Vec<u32>,
}

impl FiringIndex {
    /// Indexes the firing neurons of `input`, the ifmap of `shape`.
    ///
    /// # Panics
    ///
    /// Panics if the tensor's neuron count does not match the shape's
    /// ifmap, or does not fit a `u32`.
    pub fn new(shape: ConvShape, input: &SpikeTensor) -> Self {
        assert_eq!(
            input.neurons(),
            shape.ifmap_neurons(),
            "activity tensor must match the layer's ifmap"
        );
        assert!(
            u32::try_from(input.neurons()).is_ok(),
            "neuron ids fit a u32"
        );
        let per_channel = (shape.ifmap_side() as usize).pow(2);
        let (words, wpn) = (input.words(), input.words_per_neuron());
        let mut cells = Vec::new();
        let ends = (0..shape.in_channels() as usize)
            .map(|c| {
                for cell in 0..per_channel {
                    let n = c * per_channel + cell;
                    if words[n * wpn..(n + 1) * wpn].iter().any(|&w| w != 0) {
                        cells.push(cell as u32);
                    }
                }
                cells.len() as u32
            })
            .collect();
        FiringIndex { ends, cells }
    }

    /// Number of firing neurons.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True if no neuron fires.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Each channel's firing cells, channel by channel (an empty slice
    /// for a silent channel).
    pub fn channels(&self) -> impl ExactSizeIterator<Item = &[u32]> {
        (0..self.ends.len()).map(|c| {
            let start = if c == 0 { 0 } else { self.ends[c - 1] };
            &self.cells[start as usize..self.ends[c] as usize]
        })
    }

    /// Heap bytes the index takes: 4 per firing neuron and 4 per
    /// channel.
    pub fn bytes(&self) -> usize {
        std::mem::size_of::<u32>() * (self.ends.len() + self.cells.len())
    }
}

/// Per-(neuron, time point) spike bits of `input`, row-major by neuron:
/// entry `n · T + t` is 1 iff neuron `n` fires at time `t` — the table
/// the oracle's non-PTB walks read tap by tap.
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
            let h = shape.ifmap_side() as usize;
            let value = |n: usize, q: usize| ((n * 2_654_435_761 + q * 97) % 13) as u64;
            let mut boxes = BoxScan::new(shape, 3);
            assert_eq!(boxes.positions(), (shape.ofmap_side() as usize).pow(2));
            boxes.fill(|n, cell| {
                for (q, c) in cell.iter_mut().enumerate() {
                    *c += value(n, q);
                }
            });
            boxes.integrate();
            let mut got = [0u64; 3];
            let mut taps = 0u64;
            for p in 0..boxes.positions() {
                let field = field_indices(shape, p);
                // The field is its box across every channel, row-major.
                let ((r0, r1), (s0, s1)) = boxes.field_box(p);
                let from_box: Vec<usize> = (0..shape.in_channels() as usize)
                    .flat_map(|c| {
                        (r0..r1).flat_map(move |r| (s0..s1).map(move |s| (c * h + r) * h + s))
                    })
                    .collect();
                assert_eq!(from_box, field, "{shape:?} position {p}");
                assert_eq!(
                    boxes.field_len(p),
                    field.len() as u64,
                    "{shape:?} position {p}"
                );
                taps += field.len() as u64;
                boxes.query(p, &mut got);
                for (q, &g) in got.iter().enumerate() {
                    let expect: u64 = field.iter().map(|&n| value(n, q)).sum();
                    assert_eq!(g, expect, "{shape:?} position {p} plane {q}");
                }
            }
            if shape.padding() > 0 {
                // Padding makes the fields uneven: the tap total is NOT
                // divisible by the position count — the case an integer
                // mean silently truncates.
                assert_ne!(taps % boxes.positions() as u64, 0, "{shape:?}");
            }
        }
    }

    #[test]
    fn scatter_hands_each_position_its_flagged_field_in_order() {
        // Rows that straddle storage words (sides 71 and 227), several
        // rows per word (sides 6 and 13), a run longer than a word (a
        // 70-wide filter), stride 4 (AlexNet CONV1), padding 1 and 2
        // (side 7 with a 1-wide filter leaves the first position's field
        // empty), the FC case (one whole-map field), each in bands of
        // 1, 2 and 3 output rows as well as in one band.
        let shapes = [
            ConvShape::with_padding(6, 3, 4, 8, 1, 1).unwrap(),
            ConvShape::with_padding(13, 3, 3, 4, 1, 1).unwrap(),
            ConvShape::with_padding(71, 11, 2, 4, 4, 2).unwrap(),
            ConvShape::with_padding(227, 11, 1, 4, 4, 0).unwrap(),
            ConvShape::with_padding(7, 1, 3, 4, 2, 2).unwrap(),
            ConvShape::new(70, 70, 2, 4, 1).unwrap(),
            ConvShape::new(1, 1, 130, 8, 1).unwrap(),
        ];
        for shape in shapes {
            let boxes = BoxScan::new(shape, 1);
            let e = shape.ofmap_side() as usize;
            for r in 0..shape.ifmap_side() as usize {
                let covering: Vec<usize> = (0..e)
                    .filter(|&x| {
                        let ((r0, r1), _) = boxes.field_box(x * e);
                        (r0..r1).contains(&r)
                    })
                    .collect();
                let got: Vec<usize> = boxes.covering(r).collect();
                assert_eq!(got, covering, "{shape:?} input row {r}");
            }
            if shape.padding() == 2 && shape.filter_side() == 1 {
                assert_eq!(boxes.field_len(0), 0, "{shape:?} has an empty field");
            }
            for density in [1usize, 3, 7] {
                let flagged = |n: usize| (n * 2_654_435_761) % 7 < density;
                let mut bits = vec![0u64; shape.ifmap_neurons().div_ceil(64)];
                for n in (0..shape.ifmap_neurons()).filter(|&n| flagged(n)) {
                    bits[n / 64] |= 1 << (n % 64);
                }
                for band in [1, 2, 3, e] {
                    let mut got = vec![Vec::new(); e * e];
                    for x0 in (0..e).step_by(band) {
                        let rows = x0..(x0 + band).min(e);
                        boxes.scatter(rows.clone(), &bits, |n, xs, ys| {
                            assert!(rows.start <= xs.start && xs.end <= rows.end);
                            for x in xs {
                                for y in ys.clone() {
                                    got[x * e + y].push(n);
                                }
                            }
                        });
                    }
                    for (p, got) in got.iter().enumerate() {
                        let field = field_indices(shape, p);
                        let expect: Vec<usize> =
                            field.into_iter().filter(|&n| flagged(n)).collect();
                        assert_eq!(
                            got, &expect,
                            "{shape:?} density {density} band {band} position {p}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn firing_index_lists_the_firing_neurons_in_order() {
        // Silent channels (2 and 4), scattered silent neurons, neurons
        // that fire only in their last word, and an all-silent layer.
        let shape = ConvShape::with_padding(5, 3, 6, 4, 1, 1).unwrap();
        let fires = |n: usize| n / 25 != 2 && n / 25 != 4 && n % 7 != 3;
        for t in [1usize, 64, 130] {
            let input =
                SpikeTensor::from_fn(shape.ifmap_neurons(), t, |n, tp| fires(n) && tp == t - 1);
            let index = FiringIndex::new(shape, &input);
            let listed: Vec<usize> = index
                .channels()
                .enumerate()
                .flat_map(|(c, cells)| cells.iter().map(move |&cell| c * 25 + cell as usize))
                .collect();
            let expect: Vec<usize> = (0..shape.ifmap_neurons()).filter(|&n| fires(n)).collect();
            assert_eq!(listed, expect, "t={t}");
            assert_eq!(index.len(), input.active_neurons(), "t={t}");
            assert_eq!(index.channels().len(), 6);
            assert_eq!(index.bytes(), 4 * (6 + index.len()));
            let silent = FiringIndex::new(shape, &SpikeTensor::new(shape.ifmap_neurons(), t));
            assert!(silent.is_empty() && silent.channels().all(<[u32]>::is_empty));
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
