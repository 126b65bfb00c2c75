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
//! One array iteration streams `S` entry slots (one beat each: the
//! neuron's weight column and its packed spike words). Each PE must
//! apply one accumulate per spike bit of its window, so an iteration is
//! bound by the streaming beats *or* the busiest column's spike count:
//! `cycles = max(S, max_w spikes_w) + (rows + cols − 2)`. The paper's
//! baselines stream densely (`S = |RF|`), so PTB wins latency by
//! skipping silent-in-span neurons and (with StSAP) sharing slots.
//! Layer latency is `max(compute cycles, DRAM traffic / bandwidth)`
//! (stall-free double buffering, Section V-B).
//!
//! ## Energy
//!
//! Access counts per level/kind follow the working-set rules documented
//! on each policy's booking; `systolic_sim::EnergyModel` turns them into
//! joules. See DESIGN.md §4 for the model's assumptions.
//!
//! ## Parallelism and determinism
//!
//! Every policy's scan only *accumulates* into a `Tally`, and every
//! tally field is an integer sum — so accumulation is associative and
//! commutative, and any partition of the scan merged in any order
//! produces bit-identical totals. The simulator exploits this:
//! [`SimInputs::threads`] fans contiguous chunks of the scan —
//! positions, position tiles, or (for the box-sum scans) column tiles —
//! across scoped worker threads and merges the per-chunk tallies in
//! chunk-index order. `threads = 1` is one chunk in the serial
//! iteration order; any other count yields an [`assert_eq!`]-identical
//! [`LayerReport`], because the floating-point energy/latency figures
//! are derived only after the integer totals are final. The shared
//! read-only inputs of the scan — word rows, fire-count planes and
//! per-cell time words — are built once per call, before the workers
//! start.
//!
//! ## Bit-parallel kernel
//!
//! The scans read the activity in whole 64-time-point blocks and never
//! walk a per-(neuron, time-point) table. PTB first derives each
//! (neuron, column tile)'s window mask, spike span and busiest window
//! from the packed [`SpikeTensor`] words (the word rows). Then:
//!
//! * **Box sums** serve every policy whose per-(position, tile) terms
//!   are receptive-field sums: PTB (entries, active windows, spike span,
//!   slot beats), baseline \[14\] (each column tile's spike count),
//!   time-serial and event-driven (whole-period fire counts) and ANN
//!   (field lengths alone). Neighbouring receptive fields overlap almost
//!   entirely, so a [`BoxScan`] integrates channel-summed per-(row, col)
//!   planes once per column tile and answers each position with four
//!   lookups per plane.
//! * **Box walks** remain where the per-position work is not a sum.
//!   PTB+StSAP takes PTB's box sums and gathers only the *pairable*
//!   entries (tag not the tile's full mask), reading each field's rows a
//!   word of a per-tile pairable bitset at a time; it prices them from
//!   the StSAP pair plan ([`crate::stsap`]) and skips tiles with none,
//!   such as every single-window tile. Event-driven counts the active
//!   time points of each field's OR, taken over the field's `(row,
//!   col)` box of per-cell time words already OR-ed across channels.
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

use snn_core::shape::ConvShape;
use snn_core::spike::SpikeTensor;
use systolic_sim::{sat_add, sat_mul, AccessCounts, DataKind, MemLevel};

use crate::config::{Policy, SimInputs};
use crate::geom::{tag_mask, BoxScan};
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
/// The scan honors [`SimInputs::threads`]; the report is identical for
/// every thread count (see the module docs). Sweeps that ask for a
/// TW-invariant policy on the same layer at many TW sizes can serve it
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
    let d = Dims::new(inputs, shape, input);
    let threads = inputs.threads;
    let tally = match policy {
        Policy::Ptb { stsap } => {
            let ctx = PtbCtx::new(inputs, d);
            // Narrow mask words keep a tile's whole lookup slice
            // cache-resident; the wide fallback covers any array.
            if d.cols <= 16 {
                run_word_kernel::<u16>(threads, stsap, shape, &ctx, input)
            } else {
                run_word_kernel::<u128>(threads, stsap, shape, &ctx, input)
            }
        }
        Policy::BaselineTemporal => baseline_scan(threads, shape, input, &d),
        Policy::TimeSerial => time_serial_scan(threads, shape, input, &d),
        Policy::Ann => ann_scan(shape, &d),
        Policy::EventDriven => event_scan(threads, shape, input, &d),
    };
    close(inputs, policy, shape, input, &d, tally)
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
    /// Fill/drain cycles of one array iteration.
    fill: u64,
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
            fill: arch.array.fill_cycles(),
            pbits: u64::from(arch.potential_bits),
            wbits: u64::from(arch.weight_bits),
            cols: arch.array.cols() as usize,
            positions: (shape.ofmap_side() as usize).pow(2),
            t: input.timesteps(),
        }
    }

    /// Books one baseline \[14\] iteration: a (position, column tile)
    /// pair streaming its field's `rf_len` taps densely over `span_len`
    /// time points, `spikes` of them firing. A column is one time point
    /// and counts at most one spike per field neuron, so the busiest
    /// column never outlasts the dense stream: the iteration takes
    /// `rf_len` beats plus the fill.
    fn book_dense_tile(&self, tally: &mut Tally, rf_len: u64, span_len: u64, spikes: u64) {
        sat!(tally.compute_cycles += (rf_len + self.fill) * self.row_tiles);
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
        sat!(tally.compute_cycles += (rf_max + self.fill) * t * self.row_tiles);
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
        sat!(tally.compute_cycles += (events + self.fill * active_tps) * self.row_tiles);
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

/// Shared accumulation state while walking a layer's iteration space.
///
/// Every field is an integer sum over disjoint slices of the iteration
/// space, which makes tallies a commutative monoid under [`Tally::merge`]
/// — the property the parallel position scan relies on for bit-exact
/// determinism.
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
    /// Folds another tally into `self`. All fields are integer sums, so
    /// any merge order yields the same totals; the scan still merges in
    /// chunk-index order for clarity. Additions are checked: a clamp is
    /// counted in the trace's saturation counter instead of wrapping.
    fn merge(&mut self, other: Tally) {
        self.counts.merge(&other.counts);
        let sat = &mut self.counts.saturated;
        self.compute_cycles = sat_add(self.compute_cycles, other.compute_cycles, sat);
        self.useful_ops = sat_add(self.useful_ops, other.useful_ops, sat);
        self.entries_before = sat_add(self.entries_before, other.entries_before, sat);
        self.entries_after = sat_add(self.entries_after, other.entries_after, sat);
        self.exact_pairs = sat_add(self.exact_pairs, other.exact_pairs, sat);
        self.near_pairs = sat_add(self.near_pairs, other.near_pairs, sat);
        self.sum_entries_raw = sat_add(self.sum_entries_raw, other.sum_entries_raw, sat);
    }

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

/// Fans the index scan `0..items` across up to `threads` scoped workers,
/// each covering one contiguous chunk, and merges the per-chunk tallies
/// in chunk-index order.
///
/// With `threads = 1` (or one item) the single chunk is the exact
/// historical serial walk. Chunks never split below one item, so the
/// worker count is `min(threads, items)`; when the items do not divide
/// evenly the trailing chunks may be empty (6 items over 5 workers are
/// chunks of 2, 2, 2, 0, 0), and every range stays within `0..items`,
/// so a scan may slice by it.
fn scan_chunks<F>(threads: usize, items: usize, scan: F) -> Tally
where
    F: Fn(std::ops::Range<usize>) -> Tally + Sync,
{
    let workers = threads.max(1).min(items.max(1));
    if workers <= 1 {
        return scan(0..items);
    }
    let chunk = items.div_ceil(workers);
    let parts: Vec<Tally> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let scan = &scan;
                s.spawn(move || scan((w * chunk).min(items)..((w + 1) * chunk).min(items)))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("simulation worker must not panic"))
            .collect()
    });
    let mut total = Tally::default();
    for part in parts {
        total.merge(part);
    }
    total
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
fn event_scan(threads: usize, shape: ConvShape, input: &SpikeTensor, d: &Dims) -> Tally {
    let fires = fire_count_box(shape, input);
    let (h, wpn) = (shape.ifmap_side() as usize, input.words_per_neuron());
    // Each channel's words are one `H² · wpn` block, cell-major.
    let mut cell_words = vec![0u64; h * h * wpn];
    for channel in input.words().chunks_exact(h * h * wpn) {
        for (c, &w) in cell_words.iter_mut().zip(channel) {
            *c |= w;
        }
    }
    scan_chunks(threads, d.positions, |range| {
        let mut tally = Tally::default();
        let mut union = vec![0u64; wpn];
        let mut fired = [0u64];
        for p in range {
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
    })
}

/// Closes a scan's tally into `policy`'s report: the movement and
/// compare work booked at layer granularity, then [`report`].
fn close(
    inputs: &SimInputs,
    policy: Policy,
    shape: ConvShape,
    input: &SpikeTensor,
    d: &Dims,
    mut tally: Tally,
) -> LayerReport {
    let (m, e2, t) = (d.m, d.positions as u64, d.t as u64);
    match policy {
        Policy::Ptb { .. } | Policy::BaselineTemporal | Policy::TimeSerial => {
            let ptb = matches!(policy, Policy::Ptb { .. });
            sat!(tally.counts.compare_ops += m * e2 * t);
            move_weights(inputs, shape, d, &mut tally, ptb);
            // Input spikes from DRAM: silent neurons are never fetched
            // under PTB (TB-tag-driven), while the dense baselines fetch
            // everything.
            let fetched = if ptb {
                input.active_neurons()
            } else {
                input.neurons()
            };
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
            fetch_inputs(inputs, d, &mut tally, input.neurons() as u64 * abits);
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
    let dram_bytes = tally.counts.dram_traffic_bits() as f64 / 8.0;
    let dram_cycles = (dram_bytes / arch.dram_bytes_per_cycle()).ceil() as u64;
    let cycles = tally.compute_cycles.max(dram_cycles);
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
    /// Nominal tile width (the array's column count): every tile except
    /// possibly the last spans exactly this many windows, starting at
    /// `ti * tile_width`.
    tile_width: usize,
    n_w: usize,
    tws: u32,
    min_beats: u64,
    d: Dims,
}

impl PtbCtx {
    fn new(inputs: &SimInputs, d: Dims) -> Self {
        let tws = inputs.tw_size;
        let part = WindowPartition::new(d.t, tws as usize);
        PtbCtx {
            tiles: part.column_tiles(d.cols),
            tile_width: d.cols,
            n_w: part.num_windows(),
            tws,
            min_beats: u64::from(tws.div_ceil(inputs.arch.spike_link_bits)).max(1),
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
        sat!(tally.compute_cycles += (stream_beats + d.fill) * d.row_tiles);
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
}

/// Storage word for a hoisted per-(neuron, tile) window-activity mask.
///
/// A column tile spans at most 128 windows, so `u128` always works; the
/// paper's architecture streams 8 columns, so the common case fits a
/// `u16` and the per-tile mask table shrinks 8×. It only sizes the row
/// tables: the StSAP scan reads masks as `u128` and picks its class
/// storage by tile width.
trait TileMask: Copy + Default + Send + Sync + Into<u128> + TryFrom<u128> {
    fn from_u128(m: u128) -> Self {
        Self::try_from(m).ok().expect("mask fits the row word")
    }
}

impl TileMask for u16 {}
impl TileMask for u128 {}

/// The word kernel's hoisted per-(neuron, tile) tables, tile-major:
/// entry `ti * neurons + n` describes neuron `n` in column tile `ti`,
/// so the scan, which fills one tile's planes at a time, reads one
/// contiguous slice per tile, and the builders, which walk one neuron
/// at a time, write each tile's slice in order.
///
/// Everything the position scan reads per (neuron, tile) is a pure
/// function of the activity and the partition, never of the output
/// position — so one pass pays each neuron's window walk exactly once.
struct WordRows<M> {
    n_tiles: usize,
    /// Window-activity mask of the tile (bit `i` ⇔ window `w0 + i` has
    /// spikes) — the [`tag_mask`] funnel-shift result.
    masks: Vec<M>,
    /// Packed per-(neuron, tile) pair: low 16 bits the sum of the
    /// tile's window popcounts (the entry's `spikes_span` contribution
    /// — at most 128 windows × a ≤64-spike window, 8192), high 16 bits
    /// the busiest window (a lone entry's slot beats). Empty at
    /// `TWS = 1`, where the span is the mask's popcount, every busiest
    /// window is 1, and the scan never consults the table.
    span_busy: Vec<u32>,
}

/// Builds [`WordRows`] at `TWS = 1`, straight from the spike tensor's
/// packed time words: a per-point window holds at most one spike, so
/// the tag words *are* the tensor words and a tile's mask is a bit
/// field of the time word. When the tile width divides a storage word
/// (the paper's 8-column array), each nonzero word splits into its
/// tile fields in place — `O(nonzero words + active tiles)`, skipping
/// silent words wholesale; otherwise each tile slices out with two
/// funnel shifts ([`tag_mask`]). The spans and busiest tables stay
/// empty: at `TWS = 1` a span is its mask's popcount and every busiest
/// window is 1, so the scan never consults them.
fn build_word_rows_tw1<M: TileMask>(
    neurons: usize,
    ctx: &PtbCtx,
    tags: &[u64],
    tag_words: usize,
) -> WordRows<M> {
    let tile_width = ctx.tile_width;
    let n_tiles = ctx.tiles.len();
    let mut rows = WordRows {
        n_tiles,
        masks: vec![M::default(); neurons * n_tiles],
        span_busy: Vec::new(),
    };
    if tile_width <= 64 && 64 % tile_width == 0 {
        // A tile never straddles a storage word: walk nonzero words,
        // split each into its nonzero tile fields.
        debug_assert!(ctx
            .tiles
            .iter()
            .enumerate()
            .all(|(ti, &(w0, _))| w0 == ti * tile_width));
        let tpw = 64 / tile_width;
        let field_mask = if tile_width == 64 {
            u64::MAX
        } else {
            (1u64 << tile_width) - 1
        };
        for n in 0..neurons {
            for (wi, &word) in tags[n * tag_words..(n + 1) * tag_words].iter().enumerate() {
                let mut word = word;
                while word != 0 {
                    let f = (word.trailing_zeros() as usize / tile_width) * tile_width;
                    let sub = (word >> f) & field_mask;
                    word &= !(field_mask << f);
                    let ti = wi * tpw + f / tile_width;
                    rows.masks[ti * neurons + n] = M::from_u128(u128::from(sub));
                }
            }
        }
    } else {
        for n in 0..neurons {
            for (ti, &(w0, w1)) in ctx.tiles.iter().enumerate() {
                let mask = tag_mask(tags, tag_words, n, w0, w1);
                rows.masks[ti * neurons + n] = M::from_u128(mask);
            }
        }
    }
    rows
}

/// Builds [`WordRows`] for every `TWS > 1`, straight from the spike
/// tensor's packed time words: each neuron's set bits are walked in time
/// order, and the first spike of a window counts the whole window — from
/// the loaded word when the window ends inside it, otherwise with
/// [`SpikeTensor::popcount_range`] (a window reaching into the next
/// word) — then the rest of the window is skipped. The cost is
/// `O(nonzero words + active windows)` and no per-(neuron, window) table
/// is ever materialized. Window indices grow monotonically within a
/// neuron, so per-tile state (mask/span/busiest) accumulates in
/// registers and flushes once per active tile.
fn build_word_rows<M: TileMask>(input: &SpikeTensor, ctx: &PtbCtx) -> WordRows<M> {
    let tile_width = ctx.tile_width;
    let tws = ctx.tws as usize;
    debug_assert!(tws > 1);
    let t = input.timesteps();
    let neurons = input.neurons();
    let n_tiles = ctx.tiles.len();
    debug_assert!(ctx
        .tiles
        .iter()
        .enumerate()
        .all(|(ti, &(w0, _))| w0 == ti * tile_width));
    let mut rows = WordRows {
        n_tiles,
        masks: vec![M::default(); neurons * n_tiles],
        span_busy: vec![0u32; neurons * n_tiles],
    };
    // The window of each time point and the tile of each window: table
    // lookups keep integer divisions out of the per-spike loop.
    let win_of: Vec<u32> = (0..t).map(|tp| (tp / tws) as u32).collect();
    let tile_of: Vec<u32> = (0..ctx.n_w).map(|w| (w / tile_width) as u32).collect();
    for n in 0..neurons {
        let mut flush = |ti: usize, mask: u128, span: u32, busiest: u32| {
            let idx = ti * neurons + n;
            rows.masks[idx] = M::from_u128(mask);
            rows.span_busy[idx] = span | (busiest << 16);
        };
        let mut cur_ti = usize::MAX;
        let (mut mask, mut span, mut busiest) = (0u128, 0u32, 0u32);
        // Time points before `next` belong to windows already counted.
        let mut next = 0usize;
        for (wi, &raw) in input.neuron_words(n).iter().enumerate() {
            let base = wi * 64;
            if next >= base + 64 {
                continue;
            }
            let mut word = raw & (u64::MAX << next.saturating_sub(base));
            while word != 0 {
                // The lowest live bit is the first spike of window `w`,
                // so the window's count is the spikes from `tp` to its
                // end `s1`.
                let tp = base + word.trailing_zeros() as usize;
                let w = win_of[tp] as usize;
                let ti = tile_of[w] as usize;
                let s1 = ((w + 1) * tws).min(t);
                let end = s1 - base;
                let c = if end <= 64 {
                    (word & (u64::MAX >> (64 - end))).count_ones()
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
                mask |= 1 << (w - ti * tile_width);
                span += c;
                busiest = busiest.max(c);
            }
        }
        if cur_ti != usize::MAX {
            flush(cur_ti, mask, span, busiest);
        }
    }
    rows
}

/// Builder dispatch + box scan for one mask width, with StSAP class
/// storage chosen by the widest tile.
fn run_word_kernel<M: TileMask>(
    threads: usize,
    stsap: bool,
    shape: ConvShape,
    ctx: &PtbCtx,
    input: &SpikeTensor,
) -> Tally {
    let rows = if ctx.tws == 1 {
        build_word_rows_tw1::<M>(
            input.neurons(),
            ctx,
            input.words(),
            input.words_per_neuron(),
        )
    } else {
        build_word_rows::<M>(input, ctx)
    };
    let max_nw = ctx.tiles.iter().map(|&(w0, w1)| w1 - w0).max().unwrap_or(0);
    if max_nw <= 8 {
        ptb_box_scan::<M, NarrowClasses>(threads, stsap, shape, ctx, &rows, max_nw)
    } else {
        ptb_box_scan::<M, SortedClasses>(threads, stsap, shape, ctx, &rows, max_nw)
    }
}

/// PTB, with or without StSAP, as box sums plus an exact pairing term.
///
/// Without pairing, every term [`PtbCtx::account`] books for a
/// (position, column tile) is a receptive-field sum of a per-(neuron,
/// tile) value: the entry count, the active windows, the spike span and
/// the entry's slot beats (its busiest window floored at `min_beats`).
/// So each tile fills four [`BoxScan`] planes and prices every position
/// with four lookups per plane instead of gathering its field.
///
/// StSAP changes slots and beats only through *pairable* entries, whose
/// tag is not the tile's full mask: a full tag's complement is 0 and
/// pass 2 skips it, so it streams alone and the pair plan is the same
/// without it. Under StSAP the beats plane sums the unpairable entries
/// only, and each position gathers its pairable ones in receptive-field
/// order (the oracle's entry order, which the plan's tail pops
/// depend on) into class storage `S`, priced by [`stream_cost`]. A tile
/// without pairable entries (every single-window tile) gathers nothing.
/// At `TWS = 1` entries carry no value: every slot sits at the floor.
///
/// Workers take whole column tiles and hold one tile's planes and
/// pairable table at a time; `account` sees the same per-(position,
/// tile) values as the oracle's walk (see [`PtbCtx`]).
fn ptb_box_scan<M: TileMask, S: TagClasses>(
    threads: usize,
    stsap: bool,
    shape: ConvShape,
    ctx: &PtbCtx,
    rows: &WordRows<M>,
    max_nw: usize,
) -> Tally {
    let n_tiles = rows.n_tiles;
    let neurons = shape.ifmap_neurons();
    scan_chunks(threads, n_tiles, |range| {
        let mut tally = Tally::default();
        let mut boxes = BoxScan::new(shape, 4);
        let mut sums = [0u64; 4];
        // This tile's pairable entries: a bit per neuron, and the
        // neuron's tag and busiest window.
        let table = if stsap { neurons } else { 0 };
        let mut pairable = vec![0u64; table.div_ceil(64)];
        let mut tags = vec![M::default(); table];
        let mut busiest = vec![0u16; table];
        let valued = !rows.span_busy.is_empty();
        let mut store = S::new(max_nw);
        let mut plan = PairPlan::default();
        for ti in range {
            let (w0, w1) = ctx.tiles[ti];
            let full_mask = tile_full_mask(w1 - w0);
            let mut any_pairable = false;
            pairable.fill(0);
            boxes.fill(|n, cell| {
                let idx = ti * neurons + n;
                let mask: u128 = rows.masks[idx].into();
                if mask == 0 {
                    return;
                }
                let windows = u64::from(mask.count_ones());
                // At `TWS = 1` the table is empty: one spike per window.
                let (span, busy) = match rows.span_busy.get(idx) {
                    Some(&sb) => (u64::from(sb & 0xFFFF), sb >> 16),
                    None => (windows, 1),
                };
                cell[0] += 1;
                cell[1] += windows;
                cell[2] += span;
                if stsap && mask != full_mask {
                    pairable[n / 64] |= 1 << (n % 64);
                    (tags[n], busiest[n]) = (rows.masks[idx], busy as u16);
                    any_pairable = true;
                } else {
                    cell[3] += u64::from(busy).max(ctx.min_beats);
                }
            });
            boxes.integrate();
            for p in 0..boxes.positions() {
                boxes.query(p, &mut sums);
                let [raw, windows, span, beats] = sums;
                if raw == 0 {
                    continue;
                }
                let (mut slots, mut beats) = (raw, beats);
                if any_pairable {
                    boxes.visit_field(p, &pairable, |n| {
                        store.push(tags[n].into(), valued.then(|| busiest[n]));
                    });
                    let packed = store.len() as u64;
                    let cost = stream_cost(&mut store, &mut plan, full_mask, ctx.min_beats);
                    sat!(tally.exact_pairs += cost.exact_pairs * ctx.d.row_tiles);
                    sat!(tally.near_pairs += cost.near_pairs * ctx.d.row_tiles);
                    slots = slots - packed + cost.slots;
                    beats += cost.beats;
                }
                ctx.account(&mut tally, raw, slots, beats, span, windows);
            }
        }
        tally
    })
}

/// Baseline \[14\]: columns tile groups of `cols` consecutive time
/// points (limited temporal parallelism) with dense streaming, one
/// array iteration per (position, column tile), booked by
/// `Dims::book_dense_tile`. What varies per iteration is the field
/// length and the tile's spike total: one box sum of per-neuron tile
/// counts. Workers take whole column tiles, one plane at a time.
fn baseline_scan(threads: usize, shape: ConvShape, input: &SpikeTensor, d: &Dims) -> Tally {
    let tiles = WindowPartition::new(d.t, 1).column_tiles(d.cols);
    scan_chunks(threads, tiles.len(), |range| {
        let mut tally = Tally::default();
        let mut boxes = BoxScan::new(shape, 1);
        let mut spikes = [0u64];
        for &(w0, w1) in &tiles[range] {
            boxes.fill(|n, cell| cell[0] += u64::from(input.popcount_range(n, w0, w1)));
            boxes.integrate();
            for p in 0..d.positions {
                boxes.query(p, &mut spikes);
                d.book_dense_tile(&mut tally, boxes.field_len(p), (w1 - w0) as u64, spikes[0]);
            }
        }
        tally
    })
}

/// The conventional time-serial accelerator: one time point at a time,
/// columns host output positions, weights refetched every time point
/// (Fig. 7a's alternating access), booked per position tile by
/// `Dims::book_position_tile`. Each field's spikes over the period come
/// from the whole-period fire-count box.
///
/// The scan is chunked at position-*tile* granularity (`cols`
/// consecutive positions per tile) so a tile's longest-field bound
/// never straddles two workers.
fn time_serial_scan(threads: usize, shape: ConvShape, input: &SpikeTensor, d: &Dims) -> Tally {
    let boxes = fire_count_box(shape, input);
    let mut spikes = [0u64];
    // Per position: (receptive-field length, spikes it gathers).
    let fields: Vec<(u64, u64)> = (0..d.positions)
        .map(|p| {
            boxes.query(p, &mut spikes);
            (boxes.field_len(p), spikes[0])
        })
        .collect();
    scan_chunks(threads, d.positions.div_ceil(d.cols), |range| {
        let mut tally = Tally::default();
        for tile in fields.chunks(d.cols).take(range.end).skip(range.start) {
            let (mut rf_sum, mut rf_max, mut spikes) = (0u64, 0u64, 0u64);
            for &(len, s) in tile {
                rf_sum += len;
                rf_max = rf_max.max(len);
                spikes += s;
            }
            d.book_position_tile(&mut tally, tile.len() as u64, rf_sum, rf_max, spikes);
        }
        tally
    })
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
        sat!(tally.compute_cycles += (lens.clone().max().unwrap_or(0) + d.fill) * d.row_tiles);
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
    fn parallel_scan_is_bit_identical_for_every_policy() {
        // The determinism guarantee: thread count never changes a report,
        // including on a padded shape where receptive fields are uneven
        // and chunk boundaries cut through edge positions.
        let shape = ConvShape::with_padding(6, 3, 4, 8, 1, 1).unwrap();
        let input = sparse_input(shape, 40);
        let serial = SimInputs::hpca22(8);
        for threads in [2, 3, 7, 64] {
            let parallel = serial.with_threads(threads);
            for policy in [
                Policy::ptb(),
                Policy::ptb_with_stsap(),
                Policy::BaselineTemporal,
                Policy::TimeSerial,
                Policy::Ann,
                Policy::EventDriven,
            ] {
                let a = simulate_layer(&serial, policy, shape, &input);
                let b = simulate_layer(&parallel, policy, shape, &input);
                assert_eq!(a, b, "policy {policy:?} with {threads} threads diverged");
            }
        }
    }

    #[test]
    fn prepared_reports_match_fresh_for_every_policy() {
        // The incremental re-simulation guarantee: serving a TW and
        // policy sweep from a PreparedLayer (TW-invariant reports
        // memoized) yields reports bit-identical to the fresh path,
        // serial and threaded, on a padded shape with uneven receptive
        // fields.
        let shape = ConvShape::with_padding(6, 3, 4, 8, 1, 1).unwrap();
        let input = sparse_input(shape, 40);
        let prep = crate::prepared::PreparedLayer::new(shape, std::sync::Arc::new(input.clone()));
        for tw in [1u32, 8, 32] {
            for threads in [1usize, 3] {
                let inputs = SimInputs::hpca22(tw).with_threads(threads);
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
                    assert_eq!(
                        fresh, prepared,
                        "{policy:?} tw={tw} threads={threads} diverged under reuse"
                    );
                }
            }
        }
    }

    #[test]
    fn scan_chunks_cover_every_item_once_with_ranges_in_bounds() {
        for items in 0..12usize {
            for threads in 1..9 {
                let seen = scan_chunks(threads, items, |range| {
                    assert!(range.start <= range.end && range.end <= items);
                    Tally {
                        useful_ops: range.map(|i| 1u64 << i).sum(),
                        ..Tally::default()
                    }
                });
                assert_eq!(
                    seen.useful_ops,
                    (1u64 << items) - 1,
                    "{items} over {threads}"
                );
            }
        }
    }

    #[test]
    fn tally_merge_saturates_instead_of_wrapping() {
        let mut a = Tally {
            compute_cycles: u64::MAX - 1,
            ..Tally::default()
        };
        let b = Tally {
            compute_cycles: 5,
            ..Tally::default()
        };
        a.merge(b);
        assert_eq!(a.compute_cycles, u64::MAX);
        assert_eq!(a.counts.saturated, 1);
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
    fn row_builder_matches_a_per_window_walk() {
        // The general builder against the dense per-(neuron, window)
        // count table, field by field — including window sizes past one
        // storage word (65, 100), which `SimInputs` rejects and so no
        // report-level test can reach.
        let shape = ConvShape::with_padding(6, 3, 4, 8, 1, 1).unwrap();
        for t in [64usize, 70, 130, 200] {
            let input = straddle_input(shape, t);
            for tw in [2u32, 3, 5, 7, 12, 24, 48, 64, 65, 100] {
                let part = WindowPartition::new(t, tw as usize);
                let pops = window_popcounts(&input, &part);
                let n_w = part.num_windows();
                for cols in [8usize, 12, 16, 128] {
                    let tiles = part.column_tiles(cols);
                    let ctx = PtbCtx {
                        tiles: tiles.clone(),
                        tile_width: cols,
                        n_w,
                        tws: tw,
                        min_beats: 1,
                        d: Dims::new(&SimInputs::hpca22(1), shape, &input),
                    };
                    let rows = build_word_rows::<u128>(&input, &ctx);
                    for n in 0..input.neurons() {
                        for (ti, &(w0, w1)) in tiles.iter().enumerate() {
                            let (mut mask, mut span, mut busiest) = (0u128, 0u32, 0u32);
                            for (i, &c) in pops[n * n_w + w0..n * n_w + w1].iter().enumerate() {
                                if c > 0 {
                                    mask |= 1 << i;
                                    span += u32::from(c);
                                    busiest = busiest.max(u32::from(c));
                                }
                            }
                            let idx = ti * input.neurons() + n;
                            let at = format!("t={t} tw={tw} cols={cols} neuron {n} tile {ti}");
                            assert_eq!(rows.masks[idx], mask, "{at}");
                            assert_eq!(rows.span_busy[idx], span | (busiest << 16), "{at}");
                        }
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
