//! Systolic array geometry, cycle model, and a beat-level functional
//! execution engine.
//!
//! The accelerator's compute substrate is a 2-D output-stationary
//! systolic array (Section II-D): weights stream from the left edge
//! (one value per row per beat), bit-packed spike words stream from the
//! top edge (one word per column per beat), and each PE accumulates the
//! weighted spikes of its `(row, column)` assignment into a local
//! scratchpad. The [`SystolicEngine`] here actually performs that
//! computation — it is the ground truth the analytic cycle and
//! utilization formulas (and the PTB scheduler's batched math in
//! `ptb-accel`) are validated against.

use serde::{Deserialize, Serialize};

/// Array geometry: `rows × cols` processing elements.
///
/// Under PTB, rows host different post-synaptic neurons and columns host
/// different time windows (Fig. 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ArrayDims {
    rows: u32,
    cols: u32,
}

impl ArrayDims {
    /// Creates an array geometry.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(rows: u32, cols: u32) -> Self {
        assert!(rows > 0 && cols > 0, "array dimensions must be nonzero");
        ArrayDims { rows, cols }
    }

    /// Number of PE rows.
    pub fn rows(&self) -> u32 {
        self.rows
    }

    /// Number of PE columns.
    pub fn cols(&self) -> u32 {
        self.cols
    }

    /// Total PE count.
    pub fn pe_count(&self) -> u32 {
        self.rows * self.cols
    }

    /// Pipeline fill/drain overhead of one array iteration:
    /// `rows + cols − 2` beats of skew.
    pub fn fill_cycles(&self) -> u64 {
        u64::from(self.rows) + u64::from(self.cols) - 2
    }

    /// The latency model's one formula: `iterations` array iterations
    /// that stream `beats` beats between them take
    /// `beats + iterations · fill_cycles()` cycles. Each iteration's
    /// slots occupy the wavefront for their busiest column's beats, and
    /// the iteration pays the skew fill once
    /// ([`crate::timeline::play_iteration`] plays this out beat by
    /// beat). Every policy of the layer simulator books its compute
    /// cycles through this.
    pub fn cycles(&self, beats: u64, iterations: u64) -> u64 {
        beats + iterations * self.fill_cycles()
    }

    /// All factorizations of `pe_count` into `rows × cols` (the Fig. 9(b)
    /// shape sweep), widest-rows first.
    pub fn factorizations(pe_count: u32) -> Vec<ArrayDims> {
        assert!(pe_count > 0);
        let mut out = Vec::new();
        for rows in (1..=pe_count).rev() {
            if pe_count.is_multiple_of(rows) {
                out.push(ArrayDims::new(rows, pe_count / rows));
            }
        }
        out
    }
}

impl std::fmt::Display for ArrayDims {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}x{}", self.rows, self.cols)
    }
}

/// One streamed input entry for a functional array run: the per-row
/// weights it carries and the per-column spike words (bit `t` of
/// `spike_words[c]` = "the entry's neuron fired at local time `t` of
/// column `c`'s window").
///
/// An StSAP-packed slot carries a second neuron in [`StreamEntry::pair`]:
/// its weights ride along the same beat and a per-column select mask
/// tells each PE which neuron's weight applies in its window (the two
/// tags are disjoint, so exactly one neuron is ever active per column).
#[derive(Debug, Clone, PartialEq)]
pub struct StreamEntry {
    /// Weight delivered to each row (length = array rows).
    pub row_weights: Vec<f32>,
    /// Bit-packed spike word delivered to each column (length = cols).
    /// For a packed slot this is the *merged* word: per column it is the
    /// active member's word.
    pub col_spikes: Vec<u64>,
    /// StSAP partner data, if this slot packs two neurons.
    pub pair: Option<PairData>,
}

/// The second neuron of an StSAP-packed streaming slot.
#[derive(Debug, Clone, PartialEq)]
pub struct PairData {
    /// The partner's weight per row (length = array rows).
    pub row_weights: Vec<f32>,
    /// Bit `c` set ⇒ column `c` uses the partner's weight instead of the
    /// primary's (the partner owns that window).
    pub col_select: u128,
}

impl StreamEntry {
    /// A plain (unpacked) entry.
    pub fn single(row_weights: Vec<f32>, col_spikes: Vec<u64>) -> Self {
        StreamEntry {
            row_weights,
            col_spikes,
            pair: None,
        }
    }
}

/// Result of a functional systolic run.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineResult {
    /// Accumulated partial sums: `psums[row][col][t]` for
    /// `t < tw_size`.
    pub psums: Vec<Vec<Vec<f32>>>,
    /// Total cycles of the iteration (streaming + skew fill).
    pub cycles: u64,
    /// PE-beats that performed a useful accumulation (spike bit set).
    pub useful_ops: u64,
    /// PE-beats occupied by streaming (useful or not):
    /// `entries · ii · rows · cols`.
    pub occupied_ops: u64,
}

impl EngineResult {
    /// Utilization: useful accumulations / occupied PE-beats, in
    /// `\[0, 1\]`. The quantity PTB and StSAP exist to maximize.
    pub fn utilization(&self) -> f64 {
        if self.occupied_ops == 0 {
            0.0
        } else {
            self.useful_ops as f64 / self.occupied_ops as f64
        }
    }
}

/// Beat-level functional output-stationary systolic execution.
///
/// Every streamed entry takes `ii = tw_size` beats at each PE (the PE
/// serially walks the scratchpad's psum slots, in lockstep across the
/// array); skew between neighbours is one entry-slot, giving the classic
/// `K·ii + rows + cols − 2` iteration latency, [`ArrayDims::cycles`]
/// of `K·ii` beats in one iteration.
///
/// ```
/// use systolic_sim::array::{ArrayDims, StreamEntry, SystolicEngine};
/// let engine = SystolicEngine::new(ArrayDims::new(2, 2), 4);
/// let entry = StreamEntry::single(vec![1.0, 2.0], vec![0b1010, 0b0001]);
/// let res = engine.run(&[entry]);
/// assert_eq!(res.psums[1][0], vec![0.0, 2.0, 0.0, 2.0]);
/// assert_eq!(res.psums[0][1], vec![1.0, 0.0, 0.0, 0.0]);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct SystolicEngine {
    dims: ArrayDims,
    tw_size: u32,
}

impl SystolicEngine {
    /// Creates an engine for the given geometry and time-window size.
    ///
    /// # Panics
    ///
    /// Panics if `tw_size` is zero or exceeds 64 (one packed word).
    pub fn new(dims: ArrayDims, tw_size: u32) -> Self {
        assert!(
            (1..=64).contains(&tw_size),
            "time-window size must be in 1..=64"
        );
        SystolicEngine { dims, tw_size }
    }

    /// The array geometry.
    pub fn dims(&self) -> ArrayDims {
        self.dims
    }

    /// The time-window size (psum slots per PE used).
    pub fn tw_size(&self) -> u32 {
        self.tw_size
    }

    /// Executes one array iteration over the streamed `entries`.
    ///
    /// # Panics
    ///
    /// Panics if any entry's vectors do not match the array geometry.
    #[allow(clippy::needless_range_loop)] // r selects from two weight vectors
    pub fn run(&self, entries: &[StreamEntry]) -> EngineResult {
        let rows = self.dims.rows as usize;
        let cols = self.dims.cols as usize;
        let tw = self.tw_size as usize;
        let mut psums = vec![vec![vec![0.0f32; tw]; cols]; rows];
        let mut useful = 0u64;
        for e in entries {
            assert_eq!(e.row_weights.len(), rows, "row weights must match rows");
            assert_eq!(e.col_spikes.len(), cols, "col spikes must match cols");
            if let Some(p) = &e.pair {
                assert_eq!(p.row_weights.len(), rows, "pair weights must match rows");
            }
            for r in 0..rows {
                for (c, &word) in e.col_spikes.iter().enumerate() {
                    debug_assert!(
                        tw == 64 || word < (1u64 << tw),
                        "spike word has bits beyond the time window"
                    );
                    let w = match &e.pair {
                        Some(p) if p.col_select & (1 << c) != 0 => p.row_weights[r],
                        _ => e.row_weights[r],
                    };
                    for t in 0..tw {
                        if word & (1 << t) != 0 {
                            psums[r][c][t] += w;
                            useful += 1;
                        }
                    }
                }
            }
        }
        let (k, tw) = (entries.len() as u64, u64::from(self.tw_size));
        EngineResult {
            psums,
            cycles: self.dims.cycles(k * tw, u64::from(k > 0)),
            useful_ops: useful,
            occupied_ops: k * tw * u64::from(self.dims.pe_count()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dims_basics() {
        let d = ArrayDims::new(16, 8);
        assert_eq!(d.pe_count(), 128);
        assert_eq!(d.fill_cycles(), 22);
        assert_eq!(d.to_string(), "16x8");
    }

    #[test]
    #[should_panic]
    fn zero_dims_panics() {
        ArrayDims::new(0, 8);
    }

    #[test]
    fn cycles_formula() {
        let d = ArrayDims::new(4, 4);
        assert_eq!(d.cycles(0, 0), 0);
        assert_eq!(d.cycles(10, 1), 10 + 6);
        assert_eq!(d.cycles(80, 3), 80 + 3 * 6);
    }

    #[test]
    fn factorizations_cover_128() {
        let f = ArrayDims::factorizations(128);
        assert_eq!(f.len(), 8); // 128x1 .. 1x128
        assert!(f.iter().all(|d| d.pe_count() == 128));
        assert_eq!(f[0], ArrayDims::new(128, 1));
        assert_eq!(*f.last().unwrap(), ArrayDims::new(1, 128));
        assert!(f.contains(&ArrayDims::new(16, 8)));
    }

    #[test]
    fn engine_single_entry_math() {
        let engine = SystolicEngine::new(ArrayDims::new(2, 3), 4);
        let entry = StreamEntry::single(vec![0.5, -1.0], vec![0b1111, 0b0000, 0b0101]);
        let res = engine.run(&[entry]);
        assert_eq!(res.psums[0][0], vec![0.5; 4]);
        assert_eq!(res.psums[1][0], vec![-1.0; 4]);
        assert_eq!(res.psums[0][1], vec![0.0; 4]);
        assert_eq!(res.psums[0][2], vec![0.5, 0.0, 0.5, 0.0]);
        // useful = popcounts * rows = (4 + 0 + 2) * 2
        assert_eq!(res.useful_ops, 12);
        assert_eq!(res.occupied_ops, 4 * 6);
        assert!((res.utilization() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn engine_accumulates_across_entries() {
        let engine = SystolicEngine::new(ArrayDims::new(1, 1), 2);
        let e1 = StreamEntry::single(vec![1.0], vec![0b11]);
        let e2 = StreamEntry::single(vec![2.0], vec![0b10]);
        let res = engine.run(&[e1, e2]);
        assert_eq!(res.psums[0][0], vec![1.0, 3.0]);
        assert_eq!(res.cycles, 2 * 2); // fill = 0 for 1x1
    }

    #[test]
    fn engine_cycles_match_formula() {
        let engine = SystolicEngine::new(ArrayDims::new(16, 8), 8);
        let entry = StreamEntry::single(vec![0.0; 16], vec![0; 8]);
        let res = engine.run(&vec![entry; 10]);
        assert_eq!(res.cycles, 10 * 8 + 22);
        assert_eq!(res.utilization(), 0.0, "all-zero spikes do no useful work");
    }

    #[test]
    #[should_panic]
    fn engine_rejects_mismatched_entry() {
        let engine = SystolicEngine::new(ArrayDims::new(2, 2), 4);
        engine.run(&[StreamEntry::single(vec![1.0], vec![0, 0])]);
    }

    #[test]
    fn empty_run_is_free() {
        let engine = SystolicEngine::new(ArrayDims::new(4, 4), 8);
        let res = engine.run(&[]);
        assert_eq!(res.cycles, 0);
        assert_eq!(res.useful_ops, 0);
        assert_eq!(res.utilization(), 0.0);
    }

    #[test]
    fn tw_64_boundary_is_supported() {
        let engine = SystolicEngine::new(ArrayDims::new(1, 1), 64);
        let res = engine.run(&[StreamEntry::single(vec![1.0], vec![u64::MAX])]);
        assert_eq!(res.useful_ops, 64);
    }
}
