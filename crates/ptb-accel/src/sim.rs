//! The analytic layer simulator: PTB (± StSAP) and the three baselines.
//!
//! ## Mapping (Fig. 6)
//!
//! For a CONV layer at output position `(x, y)`, the work is the matrix
//! product `P[m][w] = Σ_j W[m][j] · S[j][w]` over the receptive field
//! `j`: array **rows** tile the output channels `m`, array **columns**
//! tile consecutive time windows `w`. FC layers are the `E = 1` special
//! case. The loop nest is `row-tile → position → column-tile`, keeping
//! a row tile's weights resident as long as possible (weights are the
//! multi-bit bottleneck; binary inputs are cheap to refetch).
//!
//! ## Latency
//!
//! An array iteration streams entry slots (a neuron's weight column and
//! packed spike words, or an StSAP pair). A slot holds the wavefront
//! for its busiest window's spike count, floored at the spike word's
//! column-link beats; a pair's tags are disjoint, so it costs its larger
//! member. Every policy books its iterations through one formula,
//! [`systolic_sim::ArrayDims::cycles`]: slot beats plus the
//! `rows + cols − 2` fill per iteration. The baselines stream densely,
//! so PTB wins latency by skipping silent-in-span neurons and (with
//! StSAP) sharing slots. Layer latency is
//! [`systolic_sim::ArchConfig::layer_cycles`]: the larger of the summed
//! compute cycles and DRAM traffic over bandwidth, the optimistic
//! stall-free bound (Section V-B), not checked against a per-iteration
//! double buffer.
//!
//! ## Energy
//!
//! Access counts per level/kind follow the working-set rules documented
//! on each policy's booking; `systolic_sim::EnergyModel` turns them into
//! joules. See DESIGN.md §4 for the model's assumptions.
//!
//! ## Determinism and parallelism
//!
//! Every policy's scan only *accumulates* into a `Tally`, and every
//! tally field is an integer sum; the floating-point energy/latency
//! figures are derived only after the integer totals are final. A layer
//! is simulated on one thread. Parallelism lives one level up: a sweep
//! is a work list of (TW point, layer) items that any number of threads
//! drain (`ptb_bench::worklist`), which scaled better than splitting a
//! layer's scan when both were measured; `BENCH_sweep.json`'s `drain`
//! section records one drainer against the pool.
//!
//! ## Bit-parallel kernel
//!
//! The scans read the activity in whole 64-time-point blocks and never
//! walk a per-(neuron, time-point) table. Then:
//!
//! * **Box sums** serve every policy whose per-(position, tile) terms
//!   are receptive-field sums: PTB (entries, active windows, spike span,
//!   slot beats), baseline \[14\] (each column tile's spike count),
//!   time-serial and event-driven (whole-period fire counts) and ANN
//!   (field lengths alone). Neighbouring receptive fields overlap almost
//!   entirely, so a [`BoxScan`] integrates channel-summed per-(row, col)
//!   planes once per column tile and answers each position with four
//!   lookups per plane.
//! * **PTB fills its planes straight from the spike words of the
//!   neurons that fire**, a chunk of column tiles at a time. A layer's
//!   [`FiringIndex`] lists the neurons that fire at least once, channel
//!   by channel; the fill walks only those neurons' words over the
//!   chunk's span, once each, and never visits a silent neuron (PTB's
//!   TB-tags never fetch one, and `close` books the index's length as
//!   PTB's fetched inputs). A prepared layer builds the index once per
//!   activity and every TW point reuses it; [`simulate_layer`] builds a
//!   fresh one. Two paths: when a tile is one `cols · TW`-bit
//!   lane of a word (`cols · TW` divides 64: TW 1, 2, 4 and 8 on the
//!   paper's 8-column array), every term of every lane is a SWAR sum —
//!   popcounts, nonzero-window counts, and the floored busiest window
//!   as a sum of per-lane threshold flags — gathered across channels in
//!   lane accumulators that spill into the planes before a lane can
//!   overflow. Any other tile is counted by a scalar walker that visits
//!   each active window once. Plain PTB materializes no per-(neuron,
//!   tile) table.
//! * **Scatter and box walks** remain where the per-position work is
//!   not a sum. PTB+StSAP takes PTB's box sums and prices only the
//!   *pairable* entries (tag not the tile's full mask), which the fill
//!   records per tile as a bit per neuron plus the entry's tag and
//!   lone-slot beats. One pass over that bitset per band of output rows
//!   pushes each entry, in ascending neuron order, into the class store
//!   of every position whose field covers its cell; each store is then
//!   priced from the StSAP pair plan ([`crate::stsap`]). Tiles with no
//!   pairable entry, such as every single-window tile, are skipped.
//!   Event-driven counts the active time points of each field's OR,
//!   taken over the field's `(row, col)` box of per-cell time words
//!   already OR-ed across channels.
//!
//! No scan here lists a receptive field.
//!
//! ## The oracle
//!
//! The [`oracle`] walks the same iteration space serially and tap by
//! tap, listing every receptive field, for all six policies. Its walks and these scans feed the same per-iteration
//! booking and the same layer-granular close, so the two differ only in
//! how they gather each iteration's terms. Every tally field is an
//! integer sum and both gather exactly the same summands (zero-count
//! windows add zero; per-point event totals aggregate to popcounts; a
//! box sum *is* the field's sum), so the reports are bit-identical.

use std::ops::Range;

use snn_core::shape::ConvShape;
use snn_core::spike::SpikeTensor;
use systolic_sim::{sat_mul, AccessCounts, ArrayDims, DataKind, MemLevel};

use crate::config::{Policy, SimInputs};
use crate::geom::{BoxScan, FiringIndex};
use crate::report::LayerReport;
use crate::stsap::{
    stream_cost, tile_full_mask, NarrowClasses, PairPlan, SortedClasses, TagClasses,
};
use crate::window::WindowPartition;

/// Checked accumulation into a tally field: `sat!(tally.field += expr)`
/// clamps at `u64::MAX` instead of wrapping and counts every clamp in
/// the tally's trace saturation counter
/// (`systolic_sim::AccessCounts::saturated`), which the audit layer
/// surfaces as a finding. When nothing clamps the result is
/// bit-identical to `+=`, so determinism and the pinned report-equality
/// properties are unaffected.
macro_rules! sat {
    ($t:ident . $($f:ident).+ += $v:expr) => {{
        let v: u64 = $v;
        let cur = $t.$($f).+;
        $t.$($f).+ = systolic_sim::sat_add(cur, v, &mut $t.counts.saturated);
    }};
}

pub mod oracle;

/// Simulates one layer under `policy`, returning the full report.
///
/// `input` holds the layer's pre-synaptic spike activity
/// (`shape.ifmap_neurons()` neurons over the operational period).
///
/// Sweeps that ask for a TW-invariant policy on the same layer at many TW sizes can serve it
/// from [`crate::prepared::PreparedLayer::simulate_memoized`].
///
/// # Panics
///
/// Panics if the input tensor does not match the shape, the period is
/// zero, or `inputs` is invalid.
pub fn simulate_layer(
    inputs: &SimInputs,
    policy: Policy,
    shape: ConvShape,
    input: &SpikeTensor,
) -> LayerReport {
    let firing = matches!(policy, Policy::Ptb { .. }).then(|| FiringIndex::new(shape, input));
    simulate_indexed(inputs, policy, shape, input, firing.as_ref())
}

/// [`simulate_layer`] on a given [`FiringIndex`] of `input`, which PTB
/// walks (and needs); the other policies ignore it. A prepared layer
/// passes its cached index.
pub(crate) fn simulate_indexed(
    inputs: &SimInputs,
    policy: Policy,
    shape: ConvShape,
    input: &SpikeTensor,
    firing: Option<&FiringIndex>,
) -> LayerReport {
    let d = Dims::new(inputs, shape, input);
    let (tally, fetched) = match policy {
        Policy::Ptb { stsap } => {
            let firing = firing.expect("PTB walks the firing index");
            debug_assert_eq!(firing.channels().len(), shape.in_channels() as usize);
            let ctx = PtbCtx::new(inputs, d);
            (ptb_scan(stsap, shape, &ctx, input, firing), firing.len())
        }
        Policy::BaselineTemporal => (baseline_scan(shape, input, &d), input.neurons()),
        Policy::TimeSerial => (time_serial_scan(shape, input, &d), input.neurons()),
        Policy::Ann => (ann_scan(shape, &d), input.neurons()),
        Policy::EventDriven => (event_scan(shape, input, &d), input.neurons()),
    };
    close(inputs, policy, shape, input, &d, tally, fetched)
}

/// Bits per address-event in the event-driven baseline's AER-style input
/// representation (neuron address + payload).
const AER_EVENT_BITS: u64 = 16;

/// Layer-wide constants of the accounting, shared by the scans here and
/// the oracle's walks.
#[derive(Debug, Clone, Copy)]
struct Dims {
    /// Output channels.
    m: u64,
    /// Array row tiles the output channels take.
    row_tiles: u64,
    /// The array, whose [`ArrayDims::cycles`] books every iteration.
    array: ArrayDims,
    /// Membrane potential width, bits.
    pbits: u64,
    /// Weight width, bits.
    wbits: u64,
    /// Array columns.
    cols: usize,
    /// Output positions, `E²`.
    positions: usize,
    /// Time points of the operational period.
    t: usize,
}

impl Dims {
    /// Checks the layer and reads its constants.
    ///
    /// # Panics
    ///
    /// Panics if the input tensor does not match the shape, the period is
    /// zero, or `inputs` is invalid.
    fn new(inputs: &SimInputs, shape: ConvShape, input: &SpikeTensor) -> Self {
        assert_eq!(
            input.neurons(),
            shape.ifmap_neurons(),
            "input tensor must match the layer's ifmap"
        );
        assert!(input.timesteps() > 0, "operational period must be nonzero");
        inputs.assert_valid();
        let arch = &inputs.arch;
        let m = u64::from(shape.out_channels());
        Dims {
            m,
            row_tiles: m.div_ceil(u64::from(arch.array.rows())),
            array: arch.array,
            pbits: u64::from(arch.potential_bits),
            wbits: u64::from(arch.weight_bits),
            cols: arch.array.cols() as usize,
            positions: (shape.ofmap_side() as usize).pow(2),
            t: input.timesteps(),
        }
    }

    /// Cycles of `iterations` array iterations streaming `beats` beats
    /// between them, run once per row tile: [`ArrayDims::cycles`].
    fn cycles(&self, beats: u64, iterations: u64) -> u64 {
        self.array
            .cycles(beats * self.row_tiles, iterations * self.row_tiles)
    }

    /// Books one baseline \[14\] iteration: a (position, column tile)
    /// pair streaming its field's `rf_len` taps densely over `span_len`
    /// time points, `spikes` of them firing. A column is one time point
    /// and counts at most one spike per field neuron, so the busiest
    /// column never outlasts the dense stream: the iteration takes
    /// `rf_len` beats, once per row tile.
    fn book_dense_tile(&self, tally: &mut Tally, rf_len: u64, span_len: u64, spikes: u64) {
        sat!(tally.compute_cycles += self.cycles(rf_len, 1));
        sat!(tally.useful_ops += spikes * self.m);
        sat!(tally.counts.ac_ops += spikes * self.m);
        sat!(tally.entries_before += rf_len * self.row_tiles);
        sat!(tally.entries_after += rf_len * self.row_tiles);
        sat!(tally.sum_entries_raw += rf_len);
        tally.stage_l1(DataKind::InputSpike, rf_len * span_len * self.row_tiles);
        tally.membrane(self.m * self.pbits);
    }

    /// Books one time-serial position tile: `positions` output positions
    /// on the columns, their fields `rf_sum` taps long in total and the
    /// longest `rf_max`, gathering `spikes` over the period. Every time
    /// point is a separate dense pass: every tap of every position is a
    /// streamed entry (the true tap count under padding), and the
    /// wavefront is bound by the longest field. Useful work is still
    /// gated by actual spikes.
    fn book_position_tile(
        &self,
        tally: &mut Tally,
        positions: u64,
        rf_sum: u64,
        rf_max: u64,
        spikes: u64,
    ) {
        let t = self.t as u64;
        sat!(tally.compute_cycles += self.cycles(rf_max * t, t));
        sat!(tally.useful_ops += spikes * self.m);
        sat!(tally.counts.ac_ops += spikes * self.m);
        sat!(tally.entries_before += rf_sum * t * self.row_tiles);
        sat!(tally.entries_after += rf_sum * t * self.row_tiles);
        // Weight-fetch driver: a dense RF per (position, time point).
        sat!(tally.sum_entries_raw += rf_sum * t);
        // Input bits: one bit per tap per time point, per row tile.
        tally.stage_l1(DataKind::InputSpike, rf_sum * t * self.row_tiles);
        // Membrane read+write per output neuron per time point — the
        // multi-bit movement bottleneck PTB amortizes per window.
        tally.membrane(self.m * positions * t * self.pbits);
    }

    /// Books one position's `events` input events, integrated over
    /// `active_tps` active time points (event-driven). Every event's
    /// weight column walks the whole hierarchy from off-chip (no
    /// windowed reuse; the "iterative weight data access" the paper
    /// targets), and each active point pays its own fill and membrane
    /// update for the position's output neurons.
    fn book_events(&self, tally: &mut Tally, events: u64, active_tps: u64) {
        sat!(tally.compute_cycles += self.cycles(events, active_tps));
        sat!(tally.entries_before += events * self.row_tiles);
        sat!(tally.entries_after += events * self.row_tiles);
        sat!(tally.useful_ops += events * self.m);
        sat!(tally.counts.ac_ops += events * self.m);
        let w_bits = events * self.m * self.wbits;
        tally.counts.transfer(
            MemLevel::Dram,
            MemLevel::GlobalBuffer,
            DataKind::Weight,
            w_bits,
        );
        tally.stage_l1(DataKind::Weight, w_bits);
        tally.stage_l1(
            DataKind::InputSpike,
            events * AER_EVENT_BITS * self.row_tiles,
        );
        tally.membrane(self.m * self.pbits * active_tps);
    }
}

/// Shared accumulation state while walking a layer's iteration space:
/// every field is an integer sum over the iteration space.
#[derive(Debug, Default)]
struct Tally {
    counts: AccessCounts,
    compute_cycles: u64,
    useful_ops: u64,
    entries_before: u64,
    entries_after: u64,
    exact_pairs: u64,
    near_pairs: u64,
    /// Σ over (position, column tile) of raw streamed entries — the
    /// weight-fetch driver, independent of the row tile.
    sum_entries_raw: u64,
}

impl Tally {
    /// Moves `bits` of `kind` from the global buffer into L1 and reads
    /// them there.
    fn stage_l1(&mut self, kind: DataKind, bits: u64) {
        self.counts
            .transfer(MemLevel::GlobalBuffer, MemLevel::L1, kind, bits);
        self.counts.read(MemLevel::L1, kind, bits);
    }

    /// Reads and writes back `bits` of membrane potential in the global
    /// buffer.
    fn membrane(&mut self, bits: u64) {
        self.counts
            .read(MemLevel::GlobalBuffer, DataKind::Membrane, bits);
        self.counts
            .write(MemLevel::GlobalBuffer, DataKind::Membrane, bits);
    }

    /// Writes `bits` of output through the global buffer to DRAM.
    fn write_out(&mut self, bits: u64) {
        self.counts
            .write(MemLevel::GlobalBuffer, DataKind::OutputSpike, bits);
        self.counts
            .write(MemLevel::Dram, DataKind::OutputSpike, bits);
    }

    /// Partial sums: one `pbits`-wide read-modify-write in the PE
    /// scratchpad per accumulate `ops`.
    fn psums(&mut self, ops: u64, pbits: u64) {
        let bits = sat_mul(ops, pbits, &mut self.counts.saturated);
        self.counts.read(MemLevel::Scratchpad, DataKind::Psum, bits);
        self.counts
            .write(MemLevel::Scratchpad, DataKind::Psum, bits);
    }
}

/// Whole-period fire counts as one integrated [`BoxScan`] plane: a
/// position's box sum is the spikes its receptive field gathers over
/// the period (time-serial's useful work, event-driven's events).
fn fire_count_box(shape: ConvShape, input: &SpikeTensor) -> BoxScan {
    let t = input.timesteps();
    let mut boxes = BoxScan::new(shape, 1);
    boxes.fill(|n, cell| cell[0] += u64::from(input.popcount_range(n, 0, t)));
    boxes.integrate();
    boxes
}

/// The event-driven time-serial SNN accelerator (\[15, 34, 35\]): at each
/// time point, only firing pre-synaptic neurons are fetched and
/// integrated (AER events of [`AER_EVENT_BITS`] each), but weights are
/// refetched at *every* time point a neuron fires (no reuse through
/// time) and time points are processed strictly serially with the
/// columns used spatially — the lack-of-parallelism critique of
/// Section I: neurons are processed "one at a time, and from time points
/// to time points", so every position pays its own serial pass.
///
/// Every per-time-point term is linear in the point's event count or
/// constant per *active* point, so the scan aggregates both over the
/// receptive field's box: total events as a box sum of whole-period
/// fire counts, active points as the popcount of the OR of the box's
/// cells, each cell's time words already OR-ed across channels.
/// Identical integer sums, `R² · T / 64` words per position instead of
/// `|RF| · T` bits.
fn event_scan(shape: ConvShape, input: &SpikeTensor, d: &Dims) -> Tally {
    let fires = fire_count_box(shape, input);
    let (h, wpn) = (shape.ifmap_side() as usize, input.words_per_neuron());
    // Each channel's words are one `H² · wpn` block, cell-major.
    let mut cell_words = vec![0u64; h * h * wpn];
    for channel in input.words().chunks_exact(h * h * wpn) {
        for (c, &w) in cell_words.iter_mut().zip(channel) {
            *c |= w;
        }
    }
    let mut tally = Tally::default();
    let mut union = vec![0u64; wpn];
    let mut fired = [0u64];
    for p in 0..d.positions {
        fires.query(p, &mut fired);
        if fired[0] == 0 {
            continue; // a fully silent receptive field
        }
        union.fill(0);
        let ((r0, r1), (s0, s1)) = fires.field_box(p);
        for r in r0..r1 {
            let row = &cell_words[(r * h + s0) * wpn..(r * h + s1) * wpn];
            for cell in row.chunks_exact(wpn) {
                for (u, &w) in union.iter_mut().zip(cell) {
                    *u |= w;
                }
            }
        }
        let active_tps: u64 = union.iter().map(|w| u64::from(w.count_ones())).sum();
        d.book_events(&mut tally, fired[0], active_tps);
    }
    tally
}

/// Closes a scan's tally into `policy`'s report: the movement and
/// compare work booked at layer granularity, then [`report`].
///
/// `fetched` is the number of input neurons whose spike trains the
/// policy fetches from DRAM. PTB's TB-tags never fetch a silent neuron,
/// so for PTB it is the length of the [`FiringIndex`] its fill walked
/// (the oracle counts its own); the dense baselines and ANN fetch every
/// neuron. Event-driven fetches its events instead and ignores it.
fn close(
    inputs: &SimInputs,
    policy: Policy,
    shape: ConvShape,
    input: &SpikeTensor,
    d: &Dims,
    mut tally: Tally,
    fetched: usize,
) -> LayerReport {
    let (m, e2, t) = (d.m, d.positions as u64, d.t as u64);
    match policy {
        Policy::Ptb { .. } | Policy::BaselineTemporal | Policy::TimeSerial => {
            let ptb = matches!(policy, Policy::Ptb { .. });
            sat!(tally.counts.compare_ops += m * e2 * t);
            move_weights(inputs, shape, d, &mut tally, ptb);
            // Input spikes from DRAM: the whole period of every fetched
            // neuron.
            fetch_inputs(inputs, d, &mut tally, fetched as u64 * t);
            // Output spikes: written back through the hierarchy once.
            tally.write_out(m * e2 * t);
            // Partial sums accumulate in the PE scratchpad and are
            // drained once per (neuron, window) by Step B.
            tally.psums(tally.counts.ac_ops, d.pbits);
            let tw_size = if ptb { inputs.tw_size } else { 1 };
            let windows = t.div_ceil(u64::from(tw_size));
            tally.counts.read(
                MemLevel::Scratchpad,
                DataKind::Psum,
                m * e2 * windows * d.pbits,
            );
            report(inputs, policy, tw_size, tally)
        }
        Policy::EventDriven => {
            sat!(tally.counts.compare_ops += m * e2 * t);
            // Input events from DRAM once (event streams are compact).
            let events = input.total_spikes();
            tally.counts.transfer(
                MemLevel::Dram,
                MemLevel::GlobalBuffer,
                DataKind::InputSpike,
                events * AER_EVENT_BITS,
            );
            tally.write_out(m * e2 * t);
            tally.psums(tally.counts.ac_ops, d.pbits);
            report(inputs, policy, 1, tally)
        }
        Policy::Ann => {
            // One dense pass: every MAC of every tap is useful work.
            let rf_total = tally.sum_entries_raw;
            let entries = rf_total * d.row_tiles;
            tally.useful_ops = rf_total * m;
            tally.entries_before = entries;
            tally.entries_after = entries;
            tally.counts.mac_ops = rf_total * m;
            // Activations: 8-bit like the weights, per tap per position,
            // staged per row tile; psums held in-PE; outputs written
            // once as 8-bit activations.
            let abits = d.wbits;
            tally.stage_l1(DataKind::InputSpike, rf_total * abits * d.row_tiles);
            tally.write_out(m * e2 * abits);
            tally.psums(tally.counts.mac_ops, d.pbits);
            sat!(tally.counts.compare_ops += m * e2); // ReLU
            move_weights(inputs, shape, d, &mut tally, true);
            fetch_inputs(inputs, d, &mut tally, fetched as u64 * abits);
            report(inputs, policy, 1, tally)
        }
    }
}

/// Weight movement, per row tile (the loop nest keeps a row tile's
/// weights live across positions and column tiles). Every raw entry
/// delivers one weight per active row at the array edge; a `resident`
/// row tile that fits L1 is fetched into it once, otherwise it streams
/// through L1 per iteration, and the global buffer stages it once when
/// it fits there.
fn move_weights(inputs: &SimInputs, shape: ConvShape, d: &Dims, tally: &mut Tally, resident: bool) {
    let rows = u64::from(inputs.arch.array.rows());
    let rf = shape.receptive_field() as u64;
    for rt in 0..d.row_tiles {
        let rows_rt = rows.min(d.m - rt * rows);
        // The product folds an accumulated total, so it is checked: a
        // clamp shows up in the saturation counter.
        let edge = sat_mul(
            sat_mul(tally.sum_entries_raw, rows_rt, &mut tally.counts.saturated),
            d.wbits,
            &mut tally.counts.saturated,
        );
        tally.counts.read(MemLevel::L1, DataKind::Weight, edge);
        let ws = rows_rt * rf * d.wbits;
        let gb_to_l1 = if resident && ws <= inputs.l1_weight_capacity_bits() {
            ws
        } else {
            edge
        };
        tally.counts.transfer(
            MemLevel::GlobalBuffer,
            MemLevel::L1,
            DataKind::Weight,
            gb_to_l1,
        );
        let dram = if ws <= inputs.gb_weight_capacity_bits() {
            ws
        } else {
            gb_to_l1
        };
        tally.counts.transfer(
            MemLevel::Dram,
            MemLevel::GlobalBuffer,
            DataKind::Weight,
            dram,
        );
    }
}

/// Fetches `bits` of layer input from DRAM into the global buffer: once
/// when they fit it, else once per row-tile pass.
fn fetch_inputs(inputs: &SimInputs, d: &Dims, tally: &mut Tally, bits: u64) {
    let passes = if bits <= inputs.gb_input_capacity_bits() {
        1
    } else {
        d.row_tiles
    };
    tally.counts.transfer(
        MemLevel::Dram,
        MemLevel::GlobalBuffer,
        DataKind::InputSpike,
        bits * passes,
    );
}

/// Turns a closed tally into the report: latency is compute vs.
/// off-chip bandwidth (double buffering hides the smaller; Section V-B's
/// stall-free assumption), and energy evaluates the access counts.
fn report(inputs: &SimInputs, policy: Policy, tw_size: u32, mut tally: Tally) -> LayerReport {
    let arch = &inputs.arch;
    let cycles = arch.layer_cycles(tally.compute_cycles, tally.counts.dram_traffic_bits());
    let pe_cycles = sat_mul(
        u64::from(arch.array.pe_count()),
        cycles,
        &mut tally.counts.saturated,
    );
    let energy = inputs.energy.evaluate(&tally.counts);
    LayerReport {
        policy,
        tw_size,
        energy,
        cycles,
        seconds: arch.cycles_to_seconds(cycles),
        useful_ops: tally.useful_ops,
        pe_cycles,
        entries_before: tally.entries_before,
        entries_after: tally.entries_after,
        exact_pairs: tally.exact_pairs,
        near_pairs: tally.near_pairs,
        counts: tally.counts,
    }
}

/// Per-layer constants of the PTB schedule (Section IV-C, StSAP IV-D),
/// plus the per-(position, column-tile) accounting every PTB walk books.
///
/// The word scan and the oracle walk (output position × column tile)
/// pairs in different orders (tile-major vs. position-major), which is
/// safe: every tally is a saturating sum of nonnegative terms, and such
/// sums are order-independent — the result is `min(true total,
/// u64::MAX)` regardless of the order the same summands arrive in.
struct PtbCtx {
    tiles: Vec<(usize, usize)>,
    n_w: usize,
    tws: u32,
    min_beats: u64,
    /// The lane path's geometry, when a column tile is one lane of a
    /// spike word.
    lanes: Option<Lanes>,
    d: Dims,
}

impl PtbCtx {
    fn new(inputs: &SimInputs, d: Dims) -> Self {
        let tws = inputs.tw_size;
        let min_beats = u64::from(tws.div_ceil(inputs.arch.spike_link_bits)).max(1);
        Self::with_floor(d, tws, min_beats)
    }

    /// The schedule of `d.cols`-window column tiles of `tws`-point
    /// windows, slots floored at `min_beats` (at most `tws`).
    fn with_floor(d: Dims, tws: u32, min_beats: u64) -> Self {
        debug_assert!((1..=u64::from(tws)).contains(&min_beats));
        let part = WindowPartition::new(d.t, tws as usize);
        PtbCtx {
            tiles: part.column_tiles(d.cols),
            n_w: part.num_windows(),
            tws,
            min_beats,
            lanes: Lanes::new(d.cols, tws as usize),
            d,
        }
    }

    /// Books one (position, tile) array iteration into the tally.
    fn account(
        &self,
        tally: &mut Tally,
        raw: u64,
        slots: u64,
        stream_beats: u64,
        spikes_span: u64,
        active_windows: u64,
    ) {
        let d = &self.d;
        sat!(tally.compute_cycles += d.cycles(stream_beats, 1));
        sat!(tally.useful_ops += spikes_span * d.m);
        sat!(tally.counts.ac_ops += spikes_span * d.m);
        sat!(tally.entries_before += raw * d.row_tiles);
        sat!(tally.entries_after += slots * d.row_tiles);
        sat!(tally.sum_entries_raw += raw);
        // Input spikes staged per row-tile pass at TB granularity:
        // only *tagged* time batches are fetched, TWS bits each —
        // wider windows therefore pay for the zero bits they pack
        // (Section VI-A1's input-movement growth).
        let in_bits = active_windows * u64::from(self.tws) * d.row_tiles;
        tally.stage_l1(DataKind::InputSpike, in_bits);
        // Membrane potentials cross column tiles once per tile.
        tally.membrane(d.m * d.pbits);
    }

    /// Splits the column tiles into the chunks the scan fills and
    /// prices one at a time, each chunk's planes and pairable tables
    /// within what [`CHUNK_WORDS`] leaves beside the `reserved` words of
    /// StSAP's class stores (or one tile's, if that is more): the fewest
    /// chunks of even size that fit. A chunk may split a word's lanes;
    /// the lane path masks each word to the chunk's tiles. A pairable
    /// entry holds a tag of the class store `S` and its beats.
    fn chunks<S: TagClasses>(
        &self,
        shape: ConvShape,
        stsap: bool,
        reserved: usize,
    ) -> Vec<Range<usize>> {
        let (neurons, entry_bytes) = (shape.ifmap_neurons(), size_of::<(S::Tag, u16)>());
        // Four planes, and a word for the tile's any-pairable flag.
        let mut per_tile = 4 * (shape.ifmap_side() as usize + 1).pow(2) + 1;
        if stsap {
            per_tile += neurons.div_ceil(64) + (neurons * entry_bytes).div_ceil(8);
        }
        even_ranges(
            self.tiles.len(),
            CHUNK_WORDS.saturating_sub(reserved) / per_tile,
        )
    }
}

/// `0..n` (`n > 0`) as the fewest ranges of even size that hold at most
/// `most` each (at least one).
fn even_ranges(n: usize, most: usize) -> Vec<Range<usize>> {
    let size = n.div_ceil(n.div_ceil(most.max(1)));
    (0..n).step_by(size).map(|a| a..(a + size).min(n)).collect()
}

/// Words of memory one chunk of column tiles may take: PTB's four
/// box-scan planes per tile plus, under StSAP, its pairable tables and
/// the class stores of one band of output rows (8 MiB). At quick
/// fidelity one chunk holds every tile of a layer.
const CHUNK_WORDS: usize = 1 << 20;

/// Words of memory the class stores of one band of output rows may take
/// under StSAP (512 KiB), so that the stores a scatter pushes into stay
/// in a core's L2 cache; a band holds at least one row, however large
/// its stores.
const BAND_WORDS: usize = 1 << 16;

/// `0x5555…`, `0x3333…`, `0x0f0f…`, …: the low half of every `2^i`-bit
/// pair of fields.
const HALVES: [u64; 6] = [
    0x5555_5555_5555_5555,
    0x3333_3333_3333_3333,
    0x0f0f_0f0f_0f0f_0f0f,
    0x00ff_00ff_00ff_00ff,
    0x0000_ffff_0000_ffff,
    0x0000_0000_ffff_ffff,
];

/// The low `bits` bits set (`bits <= 64`).
#[inline]
fn low_bits(bits: usize) -> u64 {
    if bits >= 64 {
        u64::MAX
    } else {
        (1 << bits) - 1
    }
}

/// Sums adjacent `from`-bit fields of `x` into `to`-bit fields (both
/// powers of two): applied to spike bits, each `to`-bit field's
/// popcount.
#[inline]
fn widen(mut x: u64, from: u32, to: u32) -> u64 {
    let mut w = from;
    while w < to {
        let half = HALVES[w.trailing_zeros() as usize];
        x = (x & half) + ((x >> w) & half);
        w *= 2;
    }
    x
}

/// Bit 0 of each `w`-bit field of `x` (`ones` has those bits) set iff
/// the field is nonzero.
#[inline]
fn any_in(x: u64, w: u32, ones: u64) -> u64 {
    let high = ones << (w - 1);
    let low = high - ones;
    ((((x & low) + low) | x) & high) >> (w - 1)
}

/// Bit 0 of each `w`-bit field of `counts` set iff the field's value is
/// at least `k` (every value at most `w`, `1 <= k <= w`, `w >= 2`): the
/// offset pushes exactly those values into the field's top bit.
#[inline]
fn at_least(counts: u64, k: u64, w: u32, ones: u64) -> u64 {
    ((counts + ones * ((1 << (w - 1)) - k)) >> (w - 1)) & ones
}

/// The lane path's word geometry: a column tile of `cols` windows of
/// `TW` points is one `L = cols · TW`-bit lane of a spike word, each
/// window one `TW`-bit field, when `L` divides 64 (both then powers of
/// two).
#[derive(Debug, Clone, Copy)]
struct Lanes {
    /// Lane width `L`, bits.
    width: u32,
    /// Field (window) width `TW`, bits.
    field: u32,
    /// Lanes (column tiles) per word.
    per_word: usize,
    /// Bit 0 of every lane.
    lane_ones: u64,
    /// Bit 0 of every field.
    field_ones: u64,
    /// Channels a lane accumulator takes before it must spill: a
    /// neuron adds at most `L` to any lane (its span), so `L`-bit
    /// lanes hold `(2^L − 1) / L` neurons (31 for 8-bit lanes).
    spill: usize,
    /// `(shift, mask)` steps that gather each lane's window-nonzero
    /// bits (one per field) into its low `cols` bits: each step joins
    /// neighbouring groups of bits, halving their number.
    gather: [(u32, u64); 6],
    steps: usize,
}

impl Lanes {
    fn new(cols: usize, tws: usize) -> Option<Self> {
        let l = cols * tws;
        if l > 64 || 64 % l != 0 {
            return None;
        }
        let repeat = |width: usize, period: usize| {
            (0..64 / period).fold(0u64, |acc, i| acc | low_bits(width) << (i * period))
        };
        let mut gather = [(0, 0); 6];
        let mut steps = 0;
        let mut g = 1;
        while g < cols && tws > 1 {
            gather[steps] = ((g * (tws - 1)) as u32, repeat(2 * g, 2 * g * tws));
            steps += 1;
            g *= 2;
        }
        Some(Lanes {
            width: l as u32,
            field: tws as u32,
            per_word: 64 / l,
            lane_ones: repeat(1, l),
            field_ones: repeat(1, tws),
            spill: if l == 64 {
                usize::MAX
            } else {
                (low_bits(l) / l as u64).max(1) as usize
            },
            gather,
            steps,
        })
    }

    /// One spike word's terms, lane by lane: `x` holds only the
    /// chunk's lanes, `valid` the field bits of windows inside the
    /// period, `floor` is `min_beats`. Under `stsap` the beats count
    /// only the unpairable entries.
    #[inline]
    fn terms(&self, x: u64, valid: u64, floor: u64, stsap: bool) -> LaneTerms {
        let (f, l) = (self.field, self.width);
        let counts = widen(x, 1, f);
        let span = widen(counts, f, l);
        let active = any_in(span, l, self.lane_ones);
        let flags = any_in(counts, f, self.field_ones);
        let windows = if f == 1 { span } else { widen(flags, 1, l) };
        // max(busiest, floor) = floor + #{k > floor : busiest >= k};
        // once no window reaches k, none reaches a larger one.
        let mut beats = active * floor;
        for k in floor + 1..=u64::from(f) {
            let reach = at_least(counts, k, f, self.field_ones);
            if reach == 0 {
                break;
            }
            beats += any_in(reach, l, self.lane_ones);
        }
        let mut pairable = 0;
        let mut unpaired = beats;
        if stsap {
            pairable = active & any_in(valid & !flags, l, self.lane_ones);
            unpaired &= (active & !pairable).wrapping_mul(low_bits(l as usize));
        }
        LaneTerms {
            active,
            windows,
            span,
            unpaired,
            pairable,
            flags,
            beats,
        }
    }

    /// Each lane's tile tag (bit `i` ⇔ its window `i` is active) in its
    /// low `cols` bits, from the window-nonzero field bits.
    #[inline]
    fn tags(&self, mut flags: u64) -> u64 {
        for &(shift, mask) in &self.gather[..self.steps] {
            flags = (flags | flags >> shift) & mask;
        }
        flags
    }
}

/// One spike word's per-lane terms: counts sit in each lane, flags at
/// each lane's bit 0 ([`Lanes::terms`]).
struct LaneTerms {
    /// The entry is active in the tile.
    active: u64,
    /// Active windows.
    windows: u64,
    /// Spikes.
    span: u64,
    /// Slot beats of the entries plain PTB streams alone: all of them,
    /// or under StSAP the unpairable ones.
    unpaired: u64,
    /// Active, and some window of the tile is silent (StSAP only).
    pairable: u64,
    /// Window-nonzero bit of every field.
    flags: u64,
    /// Every active entry's slot beats: busiest window, floored.
    beats: u64,
}

/// StSAP's pairable entries of one chunk's tiles — those whose tag is
/// not the tile's full mask — as a bit per neuron per tile, with each
/// flagged entry's tag, in the tag word of the class store `S` that
/// prices them, and lone-slot beats (busiest window floored at
/// `min_beats`). Empty for plain PTB.
struct Pairable<S: TagClasses> {
    /// Bitset words per tile.
    words: usize,
    neurons: usize,
    bits: Vec<u64>,
    /// Per (tile, neuron): the tag and the lone-slot beats.
    entries: Vec<(S::Tag, u16)>,
    any: Vec<bool>,
}

impl<S: TagClasses> Pairable<S> {
    fn new(neurons: usize, tiles: usize, stsap: bool) -> Self {
        let neurons = if stsap { neurons } else { 0 };
        let words = neurons.div_ceil(64);
        Pairable {
            words,
            neurons,
            bits: vec![0; words * tiles],
            entries: vec![(S::Tag::default(), 0); neurons * tiles],
            any: vec![false; tiles],
        }
    }

    #[inline]
    fn add(&mut self, tile: usize, n: usize, tag: u128, beats: u64) {
        self.bits[tile * self.words + n / 64] |= 1 << (n % 64);
        let tag = S::Tag::try_from(tag)
            .ok()
            .expect("the tag fits the store's tag word");
        self.entries[tile * self.neurons + n] = (tag, beats as u16);
        self.any[tile] = true;
    }
}

/// One chunk of column tiles, filled: four [`BoxScan`] planes per tile
/// (plane `4 · (ti − tiles.start) + q` holds term `q` of tile `ti`:
/// entries, active windows, spike span, and the slot beats of the
/// entries that stream alone) and, under StSAP, the pairable entries.
/// Both fill paths walk the layer's [`FiringIndex`], channel by channel
/// in ascending neuron order, so a silent neuron costs nothing. Every
/// plane term is an integer sum and the pairable tables are indexed by
/// (tile, neuron), so the order of the walk changes no value.
struct ChunkFill<S: TagClasses> {
    tiles: Range<usize>,
    boxes: BoxScan,
    pairable: Pairable<S>,
}

impl<S: TagClasses> ChunkFill<S> {
    /// Walks each firing neuron's spike words over the chunk's time
    /// span once and adds every active tile's terms straight into that
    /// tile's planes at the neuron's `(row, col)` cell — a lane at a
    /// time when [`PtbCtx::lanes`] allows, else window by window.
    fn new(
        ctx: &PtbCtx,
        shape: ConvShape,
        input: &SpikeTensor,
        firing: &FiringIndex,
        tiles: Range<usize>,
        stsap: bool,
    ) -> Self {
        let mut fill = ChunkFill {
            boxes: BoxScan::new(shape, 4 * tiles.len()),
            pairable: Pairable::new(input.neurons(), tiles.len(), stsap),
            tiles,
        };
        let cells = (shape.ifmap_side() as usize).pow(2);
        match ctx.lanes {
            Some(lanes) => fill.fill_lanes(ctx, lanes, input, firing, cells, stsap),
            None => fill.walk_windows(ctx, input, firing, cells, stsap),
        }
        fill
    }

    /// Words the chunk's planes and pairable tables take.
    fn words(&self) -> usize {
        let p = &self.pairable;
        let entry_bytes = p.entries.len() * size_of::<(S::Tag, u16)>();
        self.boxes.words() + p.bits.len() + entry_bytes.div_ceil(8) + p.any.len().div_ceil(8)
    }

    /// The lane path: every term is a SWAR sum over a word's lanes. A
    /// word of the chunk at a time, per cell, lane accumulators gather
    /// the terms of the firing neurons across channels and spill into
    /// the planes every [`Lanes::spill`] channels, before a lane can
    /// overflow; a firing neuron's silent words (at `T > 64`) add
    /// nothing. Pairable entries are recorded one at a time.
    fn fill_lanes(
        &mut self,
        ctx: &PtbCtx,
        lanes: Lanes,
        input: &SpikeTensor,
        firing: &FiringIndex,
        cells: usize,
        stsap: bool,
    ) {
        let (t0, t1) = (self.tiles.start, self.tiles.end);
        let (per, l) = (lanes.per_word, lanes.width as usize);
        let (t, wpn, words) = (input.timesteps(), input.words_per_neuron(), input.words());
        let mut acc = vec![[0u64; 4]; cells];
        let tag_bits = low_bits(ctx.d.cols);
        let channels = firing.channels().len();
        for wi in t0 / per..t1.div_ceil(per) {
            // The word's lanes inside the chunk, and the field bits of
            // its windows inside the period.
            let tile0 = wi * per;
            let chunk_lanes = tile0.max(t0)..(tile0 + per).min(t1);
            let inside = low_bits((chunk_lanes.end - tile0) * l)
                & !low_bits((chunk_lanes.start - tile0) * l);
            let valid = lanes.field_ones & low_bits(t - wi * 64);
            for (c, fires) in firing.channels().enumerate() {
                for &cell in fires {
                    let (cell, n) = (cell as usize, c * cells + cell as usize);
                    // A firing neuron may be silent in this word.
                    let x = words[n * wpn + wi] & inside;
                    if x == 0 {
                        continue;
                    }
                    let sums = &mut acc[cell];
                    let terms = lanes.terms(x, valid, ctx.min_beats, stsap);
                    sums[0] += terms.active;
                    sums[1] += terms.windows;
                    sums[2] += terms.span;
                    sums[3] += terms.unpaired;
                    let mut each = terms.pairable;
                    if each != 0 {
                        let tags = lanes.tags(terms.flags);
                        while each != 0 {
                            let bit = each.trailing_zeros() as usize;
                            let tag = (tags >> bit) & tag_bits;
                            let beats = (terms.beats >> bit) & low_bits(l);
                            let tile = tile0 + bit / l - t0;
                            self.pairable.add(tile, n, u128::from(tag), beats);
                            each &= each - 1;
                        }
                    }
                }
                if (c + 1) % lanes.spill != 0 && c + 1 != channels {
                    continue;
                }
                for (planes, sums) in self.boxes.cells_mut().zip(acc.iter_mut()) {
                    // Each word a cell takes sets an active flag, so
                    // an empty accumulator took none since the spill.
                    if sums[0] == 0 {
                        continue;
                    }
                    for j in chunk_lanes.clone() {
                        let (shift, o) = ((j - tile0) * l, 4 * (j - t0));
                        for (p, s) in planes[o..o + 4].iter_mut().zip(sums.iter()) {
                            *p += (s >> shift) & low_bits(l);
                        }
                    }
                    *sums = [0; 4];
                }
            }
        }
    }

    /// The scalar walker, for every tile a lane cannot hold (wider
    /// tiles, windows that straddle words): each firing neuron's set
    /// bits are walked in time order, and the first spike of a window
    /// counts the whole window — from the loaded word when the window
    /// ends inside it, otherwise with [`SpikeTensor::popcount_range`] —
    /// then the rest of the window is skipped. The cost is `O(firing
    /// neurons' words + active windows)`; per-tile state accumulates in
    /// registers and is added into the tile's planes once per active
    /// tile.
    fn walk_windows(
        &mut self,
        ctx: &PtbCtx,
        input: &SpikeTensor,
        firing: &FiringIndex,
        cells: usize,
        stsap: bool,
    ) {
        let (t0, t1) = (self.tiles.start, self.tiles.end);
        let (tws, cols, t) = (ctx.tws as usize, ctx.d.cols, input.timesteps());
        let (tp0, tp1) = (ctx.tiles[t0].0 * tws, (ctx.tiles[t1 - 1].1 * tws).min(t));
        // The window of each time point and the tile of each window:
        // table lookups keep integer divisions out of the per-spike
        // loop.
        let win_of: Vec<u32> = (tp0..tp1).map(|tp| (tp / tws) as u32).collect();
        let w_start = ctx.tiles[t0].0;
        let tile_of: Vec<u32> = (w_start..ctx.tiles[t1 - 1].1)
            .map(|w| (w / cols) as u32)
            .collect();
        let wpn = input.words_per_neuron();
        let span_words = tp0 / 64..tp1.div_ceil(64);
        let pairable = &mut self.pairable;
        for (c, fires) in firing.channels().enumerate() {
            for &cell in fires {
                let n = c * cells + cell as usize;
                let planes = self.boxes.cell_mut(cell as usize);
                let mut flush = |ti: usize, mask: u128, span: u32, busiest: u32| {
                    let (w0, w1) = ctx.tiles[ti];
                    let o = 4 * (ti - t0);
                    let beats = u64::from(busiest).max(ctx.min_beats);
                    planes[o] += 1;
                    planes[o + 1] += u64::from(mask.count_ones());
                    planes[o + 2] += u64::from(span);
                    if stsap && mask != tile_full_mask(w1 - w0) {
                        pairable.add(ti - t0, n, mask, beats);
                    } else {
                        planes[o + 3] += beats;
                    }
                };
                let mut cur_ti = usize::MAX;
                let (mut mask, mut span, mut busiest) = (0u128, 0u32, 0u32);
                // Time points before `next` belong to windows already
                // counted.
                let mut next = tp0;
                let row = &input.words()[n * wpn..(n + 1) * wpn];
                for wi in span_words.clone() {
                    let base = wi * 64;
                    if next >= base + 64 {
                        continue;
                    }
                    let mut word =
                        row[wi] & (u64::MAX << next.saturating_sub(base)) & low_bits(tp1 - base);
                    while word != 0 {
                        // The lowest live bit is the first spike of
                        // window `w`, so the window's count is the
                        // spikes from `tp` to its end `s1`.
                        let tp = base + word.trailing_zeros() as usize;
                        let w = win_of[tp - tp0] as usize;
                        let ti = tile_of[w - w_start] as usize;
                        let s1 = ((w + 1) * tws).min(t);
                        let end = s1 - base;
                        let c = if end <= 64 {
                            (word & low_bits(end)).count_ones()
                        } else {
                            input.popcount_range(n, tp, s1)
                        };
                        next = s1;
                        word = if end >= 64 {
                            0
                        } else {
                            word & (u64::MAX << end)
                        };
                        if ti != cur_ti {
                            if cur_ti != usize::MAX {
                                flush(cur_ti, mask, span, busiest);
                            }
                            (cur_ti, mask, span, busiest) = (ti, 0, 0, 0);
                        }
                        mask |= 1 << (w - ti * cols);
                        span += c;
                        busiest = busiest.max(c);
                    }
                }
                if cur_ti != usize::MAX {
                    flush(cur_ti, mask, span, busiest);
                }
            }
        }
    }
}

/// PTB, with StSAP's class storage, and with it the pairable tag word,
/// chosen by the widest tile: 8-bit tags while a tile spans at most 8
/// windows, `u128` beyond.
fn ptb_scan(
    stsap: bool,
    shape: ConvShape,
    ctx: &PtbCtx,
    input: &SpikeTensor,
    firing: &FiringIndex,
) -> Tally {
    let max_nw = ctx.tiles.iter().map(|&(w0, w1)| w1 - w0).max().unwrap_or(0);
    if max_nw <= 8 {
        ptb_box_scan::<NarrowClasses>(stsap, shape, ctx, input, firing, max_nw)
    } else {
        ptb_box_scan::<SortedClasses>(stsap, shape, ctx, input, firing, max_nw)
    }
}

/// PTB, with or without StSAP, as box sums plus an exact pairing term.
///
/// Without pairing, every term [`PtbCtx::account`] books for a
/// (position, column tile) is a receptive-field sum of a per-(neuron,
/// tile) value: the entry count, the active windows, the spike span and
/// the entry's slot beats (its busiest window floored at `min_beats`).
/// So a chunk of tiles fills four [`BoxScan`] planes per tile in one
/// pass over the spike words ([`ChunkFill`]), integrates them together,
/// and prices every (position, tile) with four lookups per plane.
///
/// StSAP changes slots and beats only through *pairable* entries, whose
/// tag is not the tile's full mask: a full tag's complement is 0 and
/// pass 2 skips it, so it streams alone and the pair plan is the same
/// without it. Under StSAP the beats plane sums the unpairable entries
/// only, and each position's pairable ones go into its own class store
/// `S`, priced by [`stream_cost`]. They are scattered, not gathered: a
/// band of output rows at a time ([`BAND_WORDS`]), one pass over the
/// tile's pairable bitset in ascending neuron order
/// ([`BoxScan::scatter`]) pushes each entry once into the store of
/// every position of the band whose field covers it. So each store
/// receives its field's entries in receptive-field order, the oracle's
/// entry order, which the plan's tail pops depend on. A tile without
/// pairable entries (every single-window tile) scatters nothing. At
/// `TWS = 1` entries carry no value: every slot sits at the floor.
///
/// The chunks ([`PtbCtx::chunks`]) run in order; `account` sees the
/// same per-(position, tile) values as the oracle's walk (see
/// [`PtbCtx`]).
fn ptb_box_scan<S: TagClasses>(
    stsap: bool,
    shape: ConvShape,
    ctx: &PtbCtx,
    input: &SpikeTensor,
    firing: &FiringIndex,
    max_nw: usize,
) -> Tally {
    let valued = ctx.tws > 1;
    let e = shape.ofmap_side() as usize;
    let (bands, mut stores) = band_stores::<S>(shape, stsap, max_nw);
    let store_words: usize = stores.iter().map(S::words).sum();
    let mut tally = Tally::default();
    let mut plan = PairPlan::default();
    let mut sums = [0u64; 4];
    for tiles in ctx.chunks::<S>(shape, stsap, store_words) {
        let mut fill = ChunkFill::<S>::new(ctx, shape, input, firing, tiles.clone(), stsap);
        debug_assert!(
            tiles.len() == 1
                || fill.words() + stores.iter().map(S::words).sum::<usize>() <= CHUNK_WORDS,
            "chunk {tiles:?} takes {} words beside {store_words} in class stores",
            fill.words()
        );
        fill.boxes.integrate();
        let pairable = &fill.pairable;
        for (i, &(w0, w1)) in ctx.tiles[tiles.clone()].iter().enumerate() {
            let full_mask = tile_full_mask(w1 - w0);
            let bits = &pairable.bits[i * pairable.words..(i + 1) * pairable.words];
            let entries = &pairable.entries[i * pairable.neurons..(i + 1) * pairable.neurons];
            for rows in &bands {
                let first = rows.start * e;
                if pairable.any[i] {
                    fill.boxes.scatter(rows.clone(), bits, |n, xs, ys| {
                        let (tag, beats) = entries[n];
                        let value = valued.then_some(beats);
                        for x in xs {
                            let row = &mut stores[x * e - first..][..e];
                            for store in &mut row[ys.clone()] {
                                store.push(tag, value);
                            }
                        }
                    });
                }
                for p in first..rows.end * e {
                    fill.boxes.query_from(p, 4 * i, &mut sums);
                    let [raw, windows, span, beats] = sums;
                    if raw == 0 {
                        continue;
                    }
                    let (mut slots, mut beats) = (raw, beats);
                    if pairable.any[i] {
                        let store = &mut stores[p - first];
                        let packed = store.len() as u64;
                        let cost = stream_cost(store, &mut plan, full_mask, ctx.min_beats);
                        sat!(tally.exact_pairs += cost.exact_pairs * ctx.d.row_tiles);
                        sat!(tally.near_pairs += cost.near_pairs * ctx.d.row_tiles);
                        slots = slots - packed + cost.slots;
                        beats += cost.beats;
                    }
                    ctx.account(&mut tally, raw, slots, beats, span, windows);
                }
            }
        }
    }
    tally
}

/// The bands of output rows StSAP scatters and prices one at a time,
/// and one band's class stores, one per position: as many whole rows as
/// fit [`BAND_WORDS`] (at least one), each store with room for one
/// field's entries, so that it never grows. Plain PTB keeps no stores
/// and prices every row in one band.
fn band_stores<S: TagClasses>(
    shape: ConvShape,
    stsap: bool,
    max_nw: usize,
) -> (Vec<Range<usize>>, Vec<S>) {
    let e = shape.ofmap_side() as usize;
    let new_store = || S::new(max_nw, shape.receptive_field());
    if !stsap {
        return (even_ranges(e, e), Vec::new());
    }
    let bands = even_ranges(e, BAND_WORDS / (e * new_store().words()));
    let stores = (0..bands[0].len() * e).map(|_| new_store()).collect();
    (bands, stores)
}

/// Baseline \[14\]: columns tile groups of `cols` consecutive time
/// points (limited temporal parallelism) with dense streaming, one
/// array iteration per (position, column tile), booked by
/// `Dims::book_dense_tile`. What varies per iteration is the field
/// length and the tile's spike total: one box sum of per-neuron tile
/// counts, one plane per column tile.
fn baseline_scan(shape: ConvShape, input: &SpikeTensor, d: &Dims) -> Tally {
    let mut tally = Tally::default();
    let mut boxes = BoxScan::new(shape, 1);
    let mut spikes = [0u64];
    for (w0, w1) in WindowPartition::new(d.t, 1).column_tiles(d.cols) {
        boxes.fill(|n, cell| cell[0] += u64::from(input.popcount_range(n, w0, w1)));
        boxes.integrate();
        for p in 0..d.positions {
            boxes.query(p, &mut spikes);
            d.book_dense_tile(&mut tally, boxes.field_len(p), (w1 - w0) as u64, spikes[0]);
        }
    }
    tally
}

/// The conventional time-serial accelerator: one time point at a time,
/// columns host output positions, weights refetched every time point
/// (Fig. 7a's alternating access), booked per position tile by
/// `Dims::book_position_tile`. Each field's spikes over the period come
/// from the whole-period fire-count box.
fn time_serial_scan(shape: ConvShape, input: &SpikeTensor, d: &Dims) -> Tally {
    let boxes = fire_count_box(shape, input);
    let mut spikes = [0u64];
    // Per position: (receptive-field length, spikes it gathers).
    let fields: Vec<(u64, u64)> = (0..d.positions)
        .map(|p| {
            boxes.query(p, &mut spikes);
            (boxes.field_len(p), spikes[0])
        })
        .collect();
    let mut tally = Tally::default();
    for tile in fields.chunks(d.cols) {
        let (mut rf_sum, mut rf_max, mut spikes) = (0u64, 0u64, 0u64);
        for &(len, s) in tile {
            rf_sum += len;
            rf_max = rf_max.max(len);
            spikes += s;
        }
        d.book_position_tile(&mut tally, tile.len() as u64, rf_sum, rf_max, spikes);
    }
    tally
}

/// The non-spiking ANN accelerator of the Fig. 12(b) comparison: one
/// dense pass, 8-bit activations, MAC PEs, good weight reuse
/// (SCALE-Sim-class output-stationary mapping on the same 128-PE
/// array). Columns host positions: each position tile's wavefront is
/// bound by its longest receptive field, and every tap of every
/// position is a streamed entry (no integer-mean truncation at padded
/// edges). The scan books the pass cycles and the tap total; `close`
/// derives the rest from the taps.
fn ann_scan(shape: ConvShape, d: &Dims) -> Tally {
    // No planes: the scan only needs each field's length.
    let boxes = BoxScan::new(shape, 0);
    let mut tally = Tally::default();
    for p0 in (0..d.positions).step_by(d.cols) {
        let lens = (p0..(p0 + d.cols).min(d.positions)).map(|p| boxes.field_len(p));
        sat!(tally.compute_cycles += d.cycles(lens.clone().max().unwrap_or(0), 1));
        sat!(tally.sum_entries_raw += lens.sum());
    }
    tally
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Policy;
    use crate::geom::window_popcounts;

    pub(super) fn small_shape() -> ConvShape {
        ConvShape::new(6, 3, 4, 8, 1).unwrap()
    }

    pub(super) fn sparse_input(shape: ConvShape, t: usize) -> SpikeTensor {
        SpikeTensor::from_fn(shape.ifmap_neurons(), t, |n, tp| {
            n % 3 != 2 && (n * 7 + tp * 11) % 17 == 0
        })
    }

    /// Activity aimed at windows that straddle storage words: one
    /// neuron class is silent in its first word and fires only later
    /// (a straddling window whose first word is silent and whose last
    /// word fires), one bursts on both sides of every word boundary,
    /// one is the sparse pattern, one never fires.
    pub(super) fn straddle_input(shape: ConvShape, t: usize) -> SpikeTensor {
        SpikeTensor::from_fn(shape.ifmap_neurons(), t, |n, tp| match n % 4 {
            0 => tp >= 64 && (tp * 3 + n) % 7 == 0,
            1 => (n * 7 + tp * 11) % 17 == 0,
            2 => false,
            _ => tp % 64 >= 61 || tp % 64 < 2,
        })
    }

    #[test]
    fn ptb_beats_baseline_on_sparse_input() {
        let shape = small_shape();
        let input = sparse_input(shape, 64);
        let inputs = SimInputs::hpca22(8);
        let ptb = simulate_layer(&inputs, Policy::ptb(), shape, &input);
        let base = simulate_layer(&inputs, Policy::BaselineTemporal, shape, &input);
        let serial = simulate_layer(&inputs, Policy::TimeSerial, shape, &input);
        assert!(ptb.energy_joules() < base.energy_joules());
        assert!(ptb.cycles < base.cycles);
        assert!(ptb.edp() < base.edp());
        assert!(
            base.edp() <= serial.edp(),
            "limited temporal parallelism beats pure time-serial"
        );
    }

    #[test]
    fn stsap_reduces_slots_never_energy_increase_latency() {
        let shape = small_shape();
        let input = sparse_input(shape, 64);
        let inputs = SimInputs::hpca22(8);
        let plain = simulate_layer(&inputs, Policy::ptb(), shape, &input);
        let packed = simulate_layer(&inputs, Policy::ptb_with_stsap(), shape, &input);
        assert!(packed.entries_after <= plain.entries_after);
        assert!(packed.cycles <= plain.cycles);
        assert_eq!(packed.entries_before, plain.entries_before);
        assert_eq!(
            packed.counts.ac_ops, plain.counts.ac_ops,
            "packing never changes the work"
        );
    }

    #[test]
    fn all_snn_policies_do_identical_useful_work() {
        let shape = small_shape();
        let input = sparse_input(shape, 40);
        let inputs = SimInputs::hpca22(8);
        let a = simulate_layer(&inputs, Policy::ptb(), shape, &input).useful_ops;
        let b = simulate_layer(&inputs, Policy::BaselineTemporal, shape, &input).useful_ops;
        let c = simulate_layer(&inputs, Policy::TimeSerial, shape, &input).useful_ops;
        assert_eq!(a, b);
        assert_eq!(b, c);
    }

    #[test]
    fn silent_input_costs_almost_nothing_under_ptb() {
        let shape = small_shape();
        let silent = SpikeTensor::new(shape.ifmap_neurons(), 64);
        let inputs = SimInputs::hpca22(8);
        let r = simulate_layer(&inputs, Policy::ptb(), shape, &silent);
        assert_eq!(r.useful_ops, 0);
        assert_eq!(r.entries_before, 0);
        let base = simulate_layer(&inputs, Policy::BaselineTemporal, shape, &silent);
        assert!(base.cycles > r.cycles, "dense baseline pays for silence");
    }

    #[test]
    fn larger_tw_reduces_weight_traffic_but_grows_input_traffic() {
        // Needs a row-tile weight working set larger than L1 so weights
        // take the per-iteration refetch path (as every Table V layer does).
        let shape = ConvShape::new(6, 3, 8, 32, 1).unwrap();
        let input = sparse_input(shape, 64);
        let w_traffic = |tw: u32| {
            let r = simulate_layer(&SimInputs::hpca22(tw), Policy::ptb(), shape, &input);
            (
                r.counts.read_bits(MemLevel::GlobalBuffer, DataKind::Weight),
                r.counts.read_bits(MemLevel::L1, DataKind::InputSpike),
            )
        };
        let (w1, i1) = w_traffic(1);
        let (w16, i16) = w_traffic(16);
        assert!(
            w16 < w1,
            "weight traffic must shrink with TW ({w16} !< {w1})"
        );
        assert!(i16 > i1, "input traffic must grow with TW ({i16} !> {i1})");
    }

    #[test]
    fn utilization_improves_with_ptb() {
        let shape = small_shape();
        let input = sparse_input(shape, 64);
        let inputs = SimInputs::hpca22(8);
        let ptb = simulate_layer(&inputs, Policy::ptb(), shape, &input);
        let base = simulate_layer(&inputs, Policy::BaselineTemporal, shape, &input);
        assert!(ptb.utilization() > base.utilization());
    }

    #[test]
    fn event_driven_skips_silent_timepoints() {
        let shape = small_shape();
        let silent = SpikeTensor::new(shape.ifmap_neurons(), 64);
        let r = simulate_layer(&SimInputs::hpca22(1), Policy::EventDriven, shape, &silent);
        assert_eq!(r.useful_ops, 0);
        assert_eq!(r.entries_before, 0);
        assert_eq!(r.counts.read_bits(MemLevel::L1, DataKind::Weight), 0);
    }

    #[test]
    fn ptb_benefit_over_event_driven_grows_with_rate() {
        // The Fig. 12(b) trend: higher firing rates amortize PTB's
        // windowed weight fetch better relative to per-event refetching.
        let shape = ConvShape::new(6, 3, 8, 32, 1).unwrap();
        let ratio_at = |num: usize, den: usize| {
            let input = SpikeTensor::from_fn(shape.ifmap_neurons(), 64, |n, t| {
                (n * 31 + t * 17) % den < num
            });
            let ptb = simulate_layer(&SimInputs::hpca22(8), Policy::ptb(), shape, &input);
            let ev = simulate_layer(&SimInputs::hpca22(1), Policy::EventDriven, shape, &input);
            ev.counts.read_bits(MemLevel::L1, DataKind::Weight) as f64
                / ptb.counts.read_bits(MemLevel::L1, DataKind::Weight) as f64
        };
        let low = ratio_at(1, 50); // ~2% rate
        let high = ratio_at(1, 5); // ~20% rate
        assert!(
            high > low,
            "weight amortization must grow with rate: low {low}, high {high}"
        );
    }

    #[test]
    fn event_driven_latency_suffers_without_parallelism() {
        let shape = small_shape();
        let input = sparse_input(shape, 64);
        let inputs = SimInputs::hpca22(8);
        let ptb = simulate_layer(&inputs, Policy::ptb(), shape, &input);
        let ev = simulate_layer(&SimInputs::hpca22(1), Policy::EventDriven, shape, &input);
        assert!(
            ev.cycles > ptb.cycles,
            "fill overhead per time point dominates"
        );
        assert_eq!(ev.useful_ops, ptb.useful_ops);
    }

    #[test]
    #[should_panic]
    fn mismatched_input_panics() {
        let shape = small_shape();
        let input = SpikeTensor::new(3, 8);
        simulate_layer(&SimInputs::hpca22(8), Policy::ptb(), shape, &input);
    }

    #[test]
    fn fc_layer_simulates() {
        // FC as 1x1-output conv.
        let shape = ConvShape::new(1, 1, 64, 32, 1).unwrap();
        let input = SpikeTensor::from_fn(64, 100, |n, t| (n + t) % 9 == 0);
        let inputs = SimInputs::hpca22(8);
        let ptb = simulate_layer(&inputs, Policy::ptb(), shape, &input);
        let base = simulate_layer(&inputs, Policy::BaselineTemporal, shape, &input);
        assert!(ptb.edp() < base.edp());
    }

    #[test]
    fn prepared_reports_match_fresh_for_every_policy() {
        // The incremental re-simulation guarantee: serving a TW and
        // policy sweep from a PreparedLayer (TW-invariant reports
        // memoized) yields reports bit-identical to the fresh path, on
        // a padded shape with uneven receptive fields.
        let shape = ConvShape::with_padding(6, 3, 4, 8, 1, 1).unwrap();
        let input = sparse_input(shape, 40);
        let prep = crate::prepared::PreparedLayer::new(shape, std::sync::Arc::new(input.clone()));
        for tw in [1u32, 8, 32] {
            let inputs = SimInputs::hpca22(tw);
            for policy in [
                Policy::ptb(),
                Policy::ptb_with_stsap(),
                Policy::BaselineTemporal,
                Policy::TimeSerial,
                Policy::Ann,
                Policy::EventDriven,
            ] {
                let fresh = simulate_layer(&inputs, policy, shape, &input);
                let prepared = prep.simulate_memoized(&inputs, policy);
                assert_eq!(fresh, prepared, "{policy:?} tw={tw} diverged under reuse");
            }
        }
    }

    #[test]
    fn realistic_layers_never_saturate() {
        let shape = small_shape();
        let input = sparse_input(shape, 64);
        for policy in [
            Policy::ptb(),
            Policy::ptb_with_stsap(),
            Policy::BaselineTemporal,
            Policy::TimeSerial,
            Policy::Ann,
            Policy::EventDriven,
        ] {
            let tw = if matches!(policy, Policy::Ptb { .. }) {
                8
            } else {
                1
            };
            let r = simulate_layer(&SimInputs::hpca22(tw), policy, shape, &input);
            assert_eq!(r.counts.saturated, 0, "{policy:?} saturated");
        }
    }

    #[test]
    fn tw_invariant_policies_report_identically_at_every_tw() {
        // The invariance `PreparedLayer::simulate_memoized` relies on:
        // a TW-invariant policy's report must not depend on the TW size
        // at all, on unpadded and padded shapes and on periods that are
        // not a multiple of 64. PTB must differ somewhere, so the
        // predicate cannot quietly widen to cover it.
        let tws = [1u32, 3, 4, 7, 8, 64];
        for shape in [
            small_shape(),
            ConvShape::with_padding(6, 3, 4, 8, 1, 1).unwrap(),
        ] {
            for t in [40usize, 70, 128] {
                let input = sparse_input(shape, t);
                for policy in Policy::all() {
                    let reports: Vec<LayerReport> = tws
                        .iter()
                        .map(|&tw| simulate_layer(&SimInputs::hpca22(tw), policy, shape, &input))
                        .collect();
                    if policy.tw_invariant() {
                        for (tw, r) in tws.iter().zip(&reports) {
                            assert_eq!(r, &reports[0], "{policy:?} t={t} tw={tw}");
                        }
                    } else {
                        assert!(
                            reports.iter().any(|r| r != &reports[0]),
                            "{policy:?} t={t}: PTB must depend on the TW size"
                        );
                    }
                }
            }
        }
        let invariant: Vec<_> = Policy::all()
            .into_iter()
            .filter(Policy::tw_invariant)
            .collect();
        assert_eq!(
            invariant,
            [
                Policy::BaselineTemporal,
                Policy::TimeSerial,
                Policy::Ann,
                Policy::EventDriven
            ]
        );
    }

    #[test]
    fn fill_matches_a_per_window_walk() {
        // Both fill paths against the dense per-(neuron, window) count
        // table, cell by cell and term by term before integration, with
        // and without StSAP, at both beat floors a spike link allows
        // (`TW / 8` and `TW`), in one chunk and in one-tile chunks (which
        // split a word's lanes) — including window sizes past one
        // storage word (65, 100), which `SimInputs` rejects and so no
        // report-level test can reach. Lane path: 8 columns at TW 1, 2,
        // 4, 8 and 16 columns at TW 1, 2, 4; the scalar walker the rest.
        let shape = ConvShape::with_padding(6, 3, 4, 8, 1, 1).unwrap();
        let cells = 36;
        for t in [64usize, 70, 130, 200] {
            let input = straddle_input(shape, t);
            let firing = FiringIndex::new(shape, &input);
            let neurons = input.neurons();
            for tw in [1u32, 2, 3, 4, 5, 7, 8, 12, 24, 48, 64, 65, 100] {
                let part = WindowPartition::new(t, tw as usize);
                let pops = window_popcounts(&input, &part);
                let n_w = part.num_windows();
                for cols in [8usize, 12, 16, 128] {
                    for link in [8u32, 1] {
                        let mut d = Dims::new(&SimInputs::hpca22(1), shape, &input);
                        d.cols = cols;
                        let ctx = PtbCtx::with_floor(d, tw, u64::from(tw.div_ceil(link)));
                        let n_tiles = ctx.tiles.len();
                        for stsap in [false, true] {
                            // Expected terms per (tile, cell), and the
                            // pairable entries' (tag, beats) per (tile,
                            // neuron).
                            let mut planes = vec![[0u64; 4]; n_tiles * cells];
                            let mut pairs = vec![None; n_tiles * neurons];
                            for n in 0..neurons {
                                for (ti, &(w0, w1)) in ctx.tiles.iter().enumerate() {
                                    let (mut mask, mut span, mut busiest) = (0u128, 0u64, 0u64);
                                    let counts = &pops[n * n_w + w0..n * n_w + w1];
                                    for (i, &c) in counts.iter().enumerate() {
                                        if c > 0 {
                                            mask |= 1 << i;
                                            span += u64::from(c);
                                            busiest = busiest.max(u64::from(c));
                                        }
                                    }
                                    if mask == 0 {
                                        continue;
                                    }
                                    let beats = busiest.max(ctx.min_beats);
                                    let cell = &mut planes[ti * cells + n % cells];
                                    cell[0] += 1;
                                    cell[1] += u64::from(mask.count_ones());
                                    cell[2] += span;
                                    if stsap && mask != tile_full_mask(w1 - w0) {
                                        pairs[ti * neurons + n] = Some((mask, beats as u16));
                                    } else {
                                        cell[3] += beats;
                                    }
                                }
                            }
                            let whole = std::iter::once(0..n_tiles);
                            for tiles in whole.chain((0..n_tiles).map(|ti| ti..ti + 1)) {
                                let at = format!(
                                    "t={t} tw={tw} cols={cols} link={link} stsap={stsap} tiles {tiles:?}"
                                );
                                let mut fill = ChunkFill::<SortedClasses>::new(
                                    &ctx,
                                    shape,
                                    &input,
                                    &firing,
                                    tiles.clone(),
                                    stsap,
                                );
                                let pairable = &fill.pairable;
                                for (i, ti) in tiles.clone().enumerate() {
                                    for n in 0..neurons {
                                        let at = format!("{at} tile {ti} neuron {n}");
                                        let want = pairs[ti * neurons + n];
                                        let flagged =
                                            pairable.bits.get(i * pairable.words + n / 64);
                                        let got = flagged
                                            .is_some_and(|w| w >> (n % 64) & 1 == 1)
                                            .then(|| pairable.entries[i * pairable.neurons + n]);
                                        assert_eq!(got, want, "{at}");
                                    }
                                    let any = pairs[ti * neurons..(ti + 1) * neurons]
                                        .iter()
                                        .any(Option::is_some);
                                    assert_eq!(pairable.any[i], any, "{at}");
                                }
                                for (cell, got) in fill.boxes.cells_mut().enumerate() {
                                    for (i, ti) in tiles.clone().enumerate() {
                                        let want = planes[ti * cells + cell];
                                        assert_eq!(
                                            got[4 * i..4 * i + 4],
                                            want,
                                            "{at} tile {ti} cell {cell}"
                                        );
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn narrow_tiles_keep_four_byte_pairable_entries() {
        // Tiles of at most 8 windows (the default 8-column array) are
        // priced on `NarrowClasses`, whose 8-bit tags keep a pairable
        // entry, tag and beats, at 4 bytes.
        assert_eq!(size_of::<(<NarrowClasses as TagClasses>::Tag, u16)>(), 4);
    }

    #[test]
    fn chunks_stay_within_their_memory_budget() {
        // A wide array (u128 tags) whose StSAP pairable table outweighs
        // the planes: every chunk but a lone tile fits in CHUNK_WORDS
        // beside one band's class stores, and the band's stores fit in
        // BAND_WORDS unless the band is one row.
        let shape = ConvShape::with_padding(32, 3, 16, 8, 1, 1).unwrap();
        let input = SpikeTensor::new(shape.ifmap_neurons(), 128 * 30);
        let mut d = Dims::new(&SimInputs::hpca22(1), shape, &input);
        d.cols = 128;
        let ctx = PtbCtx::with_floor(d, 1, 1);
        for stsap in [false, true] {
            let (bands, stores) = band_stores::<SortedClasses>(shape, stsap, 128);
            let reserved: usize = stores.iter().map(SortedClasses::words).sum();
            assert_eq!(bands.iter().map(|b| b.len()).sum::<usize>(), 32);
            assert_eq!(reserved > 0, stsap, "stsap={stsap}");
            assert!(
                bands[0].len() == 1 || reserved <= BAND_WORDS,
                "stsap={stsap}"
            );
            let chunks = ctx.chunks::<SortedClasses>(shape, stsap, reserved);
            assert_eq!(chunks.len() > 1, stsap, "stsap={stsap}");
            assert_eq!(
                chunks.iter().map(|c| c.len()).sum::<usize>(),
                ctx.tiles.len()
            );
            let widest = chunks.iter().max_by_key(|c| c.len()).unwrap().clone();
            let firing = FiringIndex::new(shape, &input);
            let fill = ChunkFill::<SortedClasses>::new(
                &ctx,
                shape,
                &input,
                &firing,
                widest.clone(),
                stsap,
            );
            assert!(
                fill.words() + reserved <= CHUNK_WORDS,
                "stsap={stsap} {widest:?}: {} words beside {reserved}",
                fill.words()
            );
        }
    }

    #[test]
    fn banded_scatter_matches_the_oracle() {
        // Class stores that take several bands of output rows, so each
        // band's scatter walks every channel's rows as a run of its own:
        // every store must still receive its field's entries in the
        // oracle's order, at TW 1 (count only) and where entries carry values.
        let shape = ConvShape::with_padding(20, 5, 64, 8, 1, 1).unwrap();
        let (bands, _) = band_stores::<NarrowClasses>(shape, true, 8);
        assert!(bands.len() > 1, "{bands:?}");
        // Hashed spikes at a rate that varies by neuron, so that the
        // members of a tag class differ in their busiest windows and the
        // order they reach a store changes the beats.
        let hashed = SpikeTensor::from_fn(shape.ifmap_neurons(), 64, |n, tp| {
            let h = (n as u64 * 64 + tp as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            (h >> 40) % 100 < (n % 7) as u64 * 6
        });
        for tw in [1u32, 2, 4] {
            let inputs = SimInputs::hpca22(tw);
            let policy = Policy::ptb_with_stsap();
            let reference = oracle::simulate_layer_reference(&inputs, policy, shape, &hashed);
            assert_eq!(
                simulate_layer(&inputs, policy, shape, &hashed),
                reference,
                "tw={tw}"
            );
        }
    }

    #[test]
    fn lanes_spill_before_they_overflow() {
        // 256 channels of neurons firing at every time point: an 8-bit
        // lane (TW 1 on 8 columns) gathers 8 spikes per channel and
        // would wrap after 31 channels without its spill, and every
        // entry is a full tag, so StSAP streams each alone.
        for shape in [
            ConvShape::new(3, 3, 256, 4, 1).unwrap(),
            ConvShape::with_padding(4, 3, 300, 4, 1, 1).unwrap(),
        ] {
            for t in [64usize, 70] {
                let input = SpikeTensor::full(shape.ifmap_neurons(), t);
                for tw in [1u32, 2, 4] {
                    let inputs = SimInputs::hpca22(tw);
                    for policy in [Policy::ptb(), Policy::ptb_with_stsap()] {
                        let reference =
                            oracle::simulate_layer_reference(&inputs, policy, shape, &input);
                        let got = simulate_layer(&inputs, policy, shape, &input);
                        assert_eq!(got, reference, "{shape:?} t={t} tw={tw} {policy:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn compare_ops_accumulation_saturates_instead_of_wrapping() {
        // The satellite fix: `compare_ops` now goes through `sat!` in
        // every policy, so a clamp is counted instead of wrapping.
        let mut tally = Tally::default();
        tally.counts.compare_ops = u64::MAX - 3;
        sat!(tally.counts.compare_ops += 10);
        assert_eq!(tally.counts.compare_ops, u64::MAX);
        assert_eq!(tally.counts.saturated, 1);
        // Below the clamp it is plain addition — bit-identical to `+=`.
        let mut tally = Tally::default();
        sat!(tally.counts.compare_ops += 7);
        assert_eq!(tally.counts.compare_ops, 7);
        assert_eq!(tally.counts.saturated, 0);
    }
}
