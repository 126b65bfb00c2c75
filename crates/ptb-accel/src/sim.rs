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
//! on each policy function; `systolic_sim::EnergyModel` turns them into
//! joules. See DESIGN.md §4 for the model's assumptions.
//!
//! ## Parallelism and determinism
//!
//! Every policy's position loop only *accumulates* into a `Tally`,
//! and every tally field is an integer sum — so accumulation is
//! associative and commutative, and any partition of the position space
//! merged in any order produces bit-identical totals. The simulator
//! exploits this: [`SimInputs::threads`] fans contiguous chunks of the
//! scan — positions, position tiles, or (for the box-sum scans) column
//! tiles — across scoped worker threads and merges the per-chunk
//! tallies in chunk-index order. `threads = 1` is one chunk in the
//! serial iteration order; any other count yields an
//! [`assert_eq!`]-identical [`LayerReport`], because the floating-point
//! energy/latency figures are derived only after the integer totals are
//! final. The shared read-only inputs of the scan — word rows,
//! fire-count planes, per-cell time words and, for the scalar
//! reference, spike popcount tables — are built once per call, before
//! the workers start.
//!
//! ## Bit-parallel kernel
//!
//! The hot paths read the activity in whole 64-time-point blocks and
//! never walk a per-(neuron, time-point) byte table. PTB first derives
//! each (neuron, column tile)'s window mask, spike span and busiest
//! window from the packed [`SpikeTensor`] words (the word rows). Then:
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
//! No production path lists a receptive field; only the scalar
//! reference does, one position at a time.
//!
//! The retired byte-table walks survive verbatim behind
//! [`simulate_layer_reference`] — the serial per-bit reference the
//! equivalence tests (and benchmarks) pin the word kernel against.
//! Every tally field is an integer sum, and the word paths accumulate
//! exactly the same summands (zero-count windows add zero; per-point
//! event totals aggregate to popcounts; a box sum *is* the field's
//! sum), so reports stay bit-identical to the reference.

use std::sync::atomic::{AtomicU64, Ordering};

use snn_core::shape::ConvShape;
use snn_core::spike::SpikeTensor;
use systolic_sim::{sat_add, sat_mul, AccessCounts, DataKind, MemLevel};

use crate::config::{Policy, SimInputs};
use crate::geom::{field_indices, spike_bits, tag_mask, window_popcounts, BoxScan};
use crate::report::LayerReport;
use crate::stsap::{
    pack_tile, stream_cost, tile_full_mask, NarrowClasses, PairPlan, SortedClasses, TagClasses,
};
use crate::window::WindowPartition;

/// Simulates one layer under `policy`, returning the full report.
///
/// `input` holds the layer's pre-synaptic spike activity
/// (`shape.ifmap_neurons()` neurons over the operational period).
///
/// The scan over output positions honors [`SimInputs::threads`]; the
/// report is identical for every thread count (see the module docs).
/// Sweeps that ask for a TW-invariant policy on the same layer at many
/// TW sizes can serve it from
/// [`crate::prepared::PreparedLayer::simulate_memoized`].
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
    assert_eq!(
        input.neurons(),
        shape.ifmap_neurons(),
        "input tensor must match the layer's ifmap"
    );
    assert!(input.timesteps() > 0, "operational period must be nonzero");
    dispatch(inputs, policy, shape, input, Kernel::Words)
}

/// Simulates one layer with the retired *serial per-bit* inner loops —
/// the pre-kernel implementation, kept as the correctness and
/// performance reference for the bit-parallel word kernel.
///
/// The report is bit-identical to [`simulate_layer`] for every policy,
/// TW size, and thread count (the equivalence tests pin this): the word
/// kernel accumulates exactly the same integer summands, just 64 time
/// points at a time. Derived tables are always built fresh here — the
/// reference exists to be slow and obvious, not memoized.
///
/// # Panics
///
/// Panics under the same conditions as [`simulate_layer`].
pub fn simulate_layer_reference(
    inputs: &SimInputs,
    policy: Policy,
    shape: ConvShape,
    input: &SpikeTensor,
) -> LayerReport {
    assert_eq!(
        input.neurons(),
        shape.ifmap_neurons(),
        "input tensor must match the layer's ifmap"
    );
    assert!(input.timesteps() > 0, "operational period must be nonzero");
    dispatch(inputs, policy, shape, input, Kernel::Scalar)
}

/// Which inner-loop implementation a simulation runs.
///
/// [`Kernel::Words`] is the production bit-parallel kernel (mask /
/// popcount over packed 64-point words); [`Kernel::Scalar`] is the
/// retired per-bit walk kept behind [`simulate_layer_reference`]. Both
/// accumulate identical integer summands, so the choice never changes a
/// report — only how fast it is produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kernel {
    Words,
    Scalar,
}

/// Times the word kernel's inner gathers have run in this process (all
/// threads). Monotone, `Relaxed` — a smoke-test observability counter
/// (the CI bench asserts it advances, proving the bit-parallel path is
/// actually exercised), never part of any report.
static WORD_KERNEL_CALLS: AtomicU64 = AtomicU64::new(0);

/// Current value of the process-wide word-kernel invocation counter.
pub fn word_kernel_calls() -> u64 {
    WORD_KERNEL_CALLS.load(Ordering::Relaxed)
}

/// Common dispatch of both entry points.
fn dispatch(
    inputs: &SimInputs,
    policy: Policy,
    shape: ConvShape,
    input: &SpikeTensor,
    kernel: Kernel,
) -> LayerReport {
    inputs.assert_valid();
    match policy {
        Policy::Ptb { stsap } => simulate_ptb(inputs, stsap, shape, input, kernel),
        Policy::BaselineTemporal => simulate_dense_temporal(inputs, shape, input, false, kernel),
        Policy::TimeSerial => simulate_dense_temporal(inputs, shape, input, true, kernel),
        Policy::Ann => simulate_ann(inputs, shape, input),
        Policy::EventDriven => simulate_event_driven(inputs, shape, input, kernel),
    }
}

/// Bits per address-event in the event-driven baseline's AER-style input
/// representation (neuron address + payload).
const AER_EVENT_BITS: u64 = 16;

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
        $t.$($f).+ = sat_add(cur, v, &mut $t.counts.saturated);
    }};
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

/// Streaming cost of one slot, in beats: the busiest column's
/// accumulate count, floored at the spike-link delivery time. For an
/// StSAP pair both members' window popcounts are summed per column —
/// their tags are disjoint so at most one member is nonzero per window,
/// but the sum is computed in `u32` so that large analysis-scale windows
/// (popcounts beyond `u8`) can never overflow the addition, which the
/// old `u8 + u8` did in debug builds.
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

/// The event-driven time-serial SNN accelerator (\[15, 34, 35\]): at each
/// time point, only firing pre-synaptic neurons are fetched and
/// integrated (AER events of [`AER_EVENT_BITS`] each), but weights are
/// refetched at *every* time point a neuron fires (no reuse through
/// time) and time points are processed strictly serially with the
/// columns used spatially — the lack-of-parallelism critique of
/// Section I.
fn simulate_event_driven(
    inputs: &SimInputs,
    shape: ConvShape,
    input: &SpikeTensor,
    kernel: Kernel,
) -> LayerReport {
    let arch = &inputs.arch;
    let rows = u64::from(arch.array.rows());
    // No spatial or temporal parallelism in this baseline: columns idle.
    let fill = arch.array.fill_cycles();
    let t = input.timesteps();
    let m = u64::from(shape.out_channels());
    let row_tiles = m.div_ceil(rows);
    let pbits = u64::from(arch.potential_bits);
    let wbits = u64::from(arch.weight_bits);
    let positions = (shape.ofmap_side() as usize).pow(2);

    // Events are integrated per position; with columns used spatially, a
    // position tile of up to `cols` positions shares one pass per time
    // point, streaming the union of their active receptive-field events
    // (adjacent RFs almost coincide, so we approximate the union by the
    // per-position count and divide the shared quantities by `cols`).
    //
    // No spatial parallelism: neurons are processed "one at a time, and
    // from time points to time points" (Section I's critique) — every
    // position pays its own serial pass, and every event's weight column
    // walks the whole hierarchy from off-chip (no windowed reuse; the
    // "iterative weight data access" the paper targets).
    //
    // Every per-time-point tally is linear in the point's event count or
    // constant per *active* point, so the word kernel aggregates both
    // over the receptive field's box: total events as a box sum of
    // whole-period fire counts, active points as the popcount of the OR
    // of the box's cells, each cell's time words already OR-ed across
    // channels. Identical integer sums, `R² · T / 64` words per position
    // instead of `|RF| · T` bytes.
    let mut tally = match kernel {
        Kernel::Words => {
            WORD_KERNEL_CALLS.fetch_add(1, Ordering::Relaxed);
            let fires = fire_count_box(shape, input);
            let (h, wpn) = (shape.ifmap_side() as usize, input.words_per_neuron());
            // Each channel's words are one `H² · wpn` block, cell-major.
            let mut cell_words = vec![0u64; h * h * wpn];
            for channel in input.words().chunks_exact(h * h * wpn) {
                for (c, &w) in cell_words.iter_mut().zip(channel) {
                    *c |= w;
                }
            }
            scan_chunks(inputs.threads, positions, |range| {
                let mut tally = Tally::default();
                let mut union = vec![0u64; wpn];
                let mut fired = [0u64];
                for p in range {
                    fires.query(p, &mut fired);
                    let events = fired[0];
                    if events == 0 {
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
                    sat!(tally.compute_cycles += (events + fill * active_tps) * row_tiles);
                    sat!(tally.entries_before += events * row_tiles);
                    sat!(tally.useful_ops += events * m);
                    sat!(tally.counts.ac_ops += events * m);
                    // Weights refetched for every event at every time point.
                    let w_bits = events * m * wbits;
                    tally.counts.transfer(
                        MemLevel::Dram,
                        MemLevel::GlobalBuffer,
                        DataKind::Weight,
                        w_bits,
                    );
                    tally.counts.transfer(
                        MemLevel::GlobalBuffer,
                        MemLevel::L1,
                        DataKind::Weight,
                        w_bits,
                    );
                    tally.counts.read(MemLevel::L1, DataKind::Weight, w_bits);
                    let in_bits = events * AER_EVENT_BITS * row_tiles;
                    tally.counts.transfer(
                        MemLevel::GlobalBuffer,
                        MemLevel::L1,
                        DataKind::InputSpike,
                        in_bits,
                    );
                    tally
                        .counts
                        .read(MemLevel::L1, DataKind::InputSpike, in_bits);
                    // Membrane potentials move once per *active* time
                    // point, for every position's own output neurons.
                    tally.counts.read(
                        MemLevel::GlobalBuffer,
                        DataKind::Membrane,
                        m * pbits * active_tps,
                    );
                    tally.counts.write(
                        MemLevel::GlobalBuffer,
                        DataKind::Membrane,
                        m * pbits * active_tps,
                    );
                }
                tally
            })
        }
        Kernel::Scalar => {
            let bit_at = spike_bits(input);
            scan_chunks(inputs.threads, positions, |range| {
                let mut tally = Tally::default();
                for p in range {
                    let rf = field_indices(shape, p);
                    for tp in 0..t {
                        let mut active = 0u64;
                        for &n in &rf {
                            active += u64::from(bit_at[n * t + tp]);
                        }
                        if active == 0 {
                            continue; // silent time points are skipped entirely
                        }
                        sat!(tally.compute_cycles += (active + fill) * row_tiles);
                        sat!(tally.entries_before += active * row_tiles);
                        sat!(tally.useful_ops += active * m);
                        sat!(tally.counts.ac_ops += active * m);
                        // Weights refetched for every event at every time point.
                        let w_bits = active * m * wbits;
                        tally.counts.transfer(
                            MemLevel::Dram,
                            MemLevel::GlobalBuffer,
                            DataKind::Weight,
                            w_bits,
                        );
                        tally.counts.transfer(
                            MemLevel::GlobalBuffer,
                            MemLevel::L1,
                            DataKind::Weight,
                            w_bits,
                        );
                        tally.counts.read(MemLevel::L1, DataKind::Weight, w_bits);
                        let in_bits = active * AER_EVENT_BITS * row_tiles;
                        tally.counts.transfer(
                            MemLevel::GlobalBuffer,
                            MemLevel::L1,
                            DataKind::InputSpike,
                            in_bits,
                        );
                        tally
                            .counts
                            .read(MemLevel::L1, DataKind::InputSpike, in_bits);
                        // Membrane potentials move every active time point,
                        // for every position's own output neurons.
                        tally
                            .counts
                            .read(MemLevel::GlobalBuffer, DataKind::Membrane, m * pbits);
                        tally
                            .counts
                            .write(MemLevel::GlobalBuffer, DataKind::Membrane, m * pbits);
                    }
                }
                tally
            })
        }
    };
    tally.entries_after = tally.entries_before;

    sat!(tally.counts.compare_ops += m * positions as u64 * t as u64);
    // Input events from DRAM once (event streams are compact).
    let events = input.total_spikes();
    tally.counts.transfer(
        MemLevel::Dram,
        MemLevel::GlobalBuffer,
        DataKind::InputSpike,
        events * AER_EVENT_BITS,
    );
    let out_bits = m * positions as u64 * t as u64;
    tally
        .counts
        .write(MemLevel::GlobalBuffer, DataKind::OutputSpike, out_bits);
    tally
        .counts
        .write(MemLevel::Dram, DataKind::OutputSpike, out_bits);
    let ac = tally.counts.ac_ops;
    let psum_bits = sat_mul(ac, pbits, &mut tally.counts.saturated);
    tally
        .counts
        .read(MemLevel::Scratchpad, DataKind::Psum, psum_bits);
    tally
        .counts
        .write(MemLevel::Scratchpad, DataKind::Psum, psum_bits);

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
        policy: Policy::EventDriven,
        tw_size: 1,
        energy,
        cycles,
        seconds: arch.cycles_to_seconds(cycles),
        useful_ops: tally.useful_ops,
        pe_cycles,
        entries_before: tally.entries_before,
        entries_after: tally.entries_after,
        exact_pairs: 0,
        near_pairs: 0,
        counts: tally.counts,
    }
}

/// Finalizes a tally into a report: applies weight/input/output movement
/// that is computed at layer granularity, evaluates energy, and applies
/// the bandwidth bound.
#[allow(clippy::too_many_arguments)]
fn finalize(
    inputs: &SimInputs,
    policy: Policy,
    shape: ConvShape,
    input: &SpikeTensor,
    mut tally: Tally,
    weight_resident: bool,
    dense_input: bool,
    tw_size: u32,
) -> LayerReport {
    let arch = &inputs.arch;
    let rows = u64::from(arch.array.rows());
    let m = u64::from(shape.out_channels());
    let row_tiles = m.div_ceil(rows);
    let rf = shape.receptive_field() as u64;
    let wbits = u64::from(arch.weight_bits);
    let pbits = u64::from(arch.potential_bits);
    let t = input.timesteps() as u64;
    let e2 = u64::from(shape.ofmap_side()).pow(2);

    // --- Weight movement, per row tile (loop nest keeps a row tile's
    // weights live across positions and column tiles).
    for rt in 0..row_tiles {
        let rows_rt = rows.min(m - rt * rows);
        // Array-edge streaming: every raw entry delivers one weight per
        // active row. The product folds an accumulated total, so it is
        // checked: a clamp shows up in the saturation counter.
        let edge = sat_mul(
            sat_mul(tally.sum_entries_raw, rows_rt, &mut tally.counts.saturated),
            wbits,
            &mut tally.counts.saturated,
        );
        tally.counts.read(MemLevel::L1, DataKind::Weight, edge);
        let ws = rows_rt * rf * wbits;
        let gb_to_l1 = if weight_resident && ws <= inputs.l1_weight_capacity_bits() {
            ws // fetched once, stays resident for the whole row-tile pass
        } else {
            edge // streamed through L1 per iteration
        };
        tally.counts.transfer(
            MemLevel::GlobalBuffer,
            MemLevel::L1,
            DataKind::Weight,
            gb_to_l1,
        );
        let dram = if ws <= inputs.gb_weight_capacity_bits() {
            ws // global buffer stages the row tile once
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

    // --- Input spikes from DRAM: silent neurons are never fetched under
    // PTB (TB-tag-driven), while the dense baselines fetch everything.
    let fetched_neurons = if dense_input {
        input.neurons() as u64
    } else {
        input.active_neurons() as u64
    };
    let in_bits = fetched_neurons * t;
    let passes = if in_bits <= inputs.gb_input_capacity_bits() {
        1
    } else {
        row_tiles // refetched per row-tile pass
    };
    tally.counts.transfer(
        MemLevel::Dram,
        MemLevel::GlobalBuffer,
        DataKind::InputSpike,
        in_bits * passes,
    );

    // --- Output spikes: written back through the hierarchy once.
    let out_bits = m * e2 * t;
    tally
        .counts
        .write(MemLevel::GlobalBuffer, DataKind::OutputSpike, out_bits);
    tally
        .counts
        .write(MemLevel::Dram, DataKind::OutputSpike, out_bits);

    // --- Partial sums: accumulate in the PE scratchpad (read-modify-
    // write per AC op) and are drained once per (neuron, window) by
    // Step B.
    let ac = tally.counts.ac_ops;
    let psum_bits = sat_mul(ac, pbits, &mut tally.counts.saturated);
    tally
        .counts
        .read(MemLevel::Scratchpad, DataKind::Psum, psum_bits);
    tally
        .counts
        .write(MemLevel::Scratchpad, DataKind::Psum, psum_bits);
    let windows = t.div_ceil(u64::from(tw_size));
    tally.counts.read(
        MemLevel::Scratchpad,
        DataKind::Psum,
        m * e2 * windows * pbits,
    );

    // --- Latency: compute vs. off-chip bandwidth (double buffering
    // hides the smaller; Section V-B's stall-free assumption).
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

/// Shared per-layer constants of the PTB position scan, plus the
/// per-(position, column-tile) tally accounting both kernels emit.
///
/// The word and scalar scans walk (output position × column tile) pairs
/// in different orders (tile-major vs. position-major), which is safe:
/// every tally is a saturating sum of nonnegative terms, and such sums
/// are order-independent — the result is `min(true total, u64::MAX)`
/// regardless of the order the same summands arrive in.
struct PtbCtx<'a> {
    tiles: &'a [(usize, usize)],
    /// Nominal tile width (the array's column count): every tile except
    /// possibly the last spans exactly this many windows, starting at
    /// `ti * tile_width`.
    tile_width: usize,
    n_w: usize,
    tws: u32,
    min_beats: u64,
    m: u64,
    row_tiles: u64,
    fill: u64,
    pbits: u64,
}

impl PtbCtx<'_> {
    /// Books one (position, tile) array iteration into the tally —
    /// identical arithmetic for both kernels.
    fn account(
        &self,
        tally: &mut Tally,
        raw: u64,
        slots: u64,
        stream_beats: u64,
        spikes_span: u64,
        active_windows: u64,
    ) {
        let iter_cycles = stream_beats + self.fill;
        sat!(tally.compute_cycles += iter_cycles * self.row_tiles);
        sat!(tally.useful_ops += spikes_span * self.m);
        sat!(tally.counts.ac_ops += spikes_span * self.m);
        sat!(tally.entries_before += raw * self.row_tiles);
        sat!(tally.entries_after += slots * self.row_tiles);
        sat!(tally.sum_entries_raw += raw);

        // Input spikes staged per row-tile pass at TB granularity:
        // only *tagged* time batches are fetched, TWS bits each —
        // wider windows therefore pay for the zero bits they pack
        // (Section VI-A1's input-movement growth).
        let in_bits = active_windows * u64::from(self.tws) * self.row_tiles;
        tally.counts.transfer(
            MemLevel::GlobalBuffer,
            MemLevel::L1,
            DataKind::InputSpike,
            in_bits,
        );
        tally
            .counts
            .read(MemLevel::L1, DataKind::InputSpike, in_bits);

        // Membrane potentials cross column tiles once per tile.
        tally.counts.read(
            MemLevel::GlobalBuffer,
            DataKind::Membrane,
            self.m * self.pbits,
        );
        tally.counts.write(
            MemLevel::GlobalBuffer,
            DataKind::Membrane,
            self.m * self.pbits,
        );
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
    /// the busiest window (a lone entry's [`slot_cost`]). Empty at
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
    inputs: &SimInputs,
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
        ptb_box_scan::<M, NarrowClasses>(inputs.threads, stsap, shape, ctx, &rows, max_nw)
    } else {
        ptb_box_scan::<M, SortedClasses>(inputs.threads, stsap, shape, ctx, &rows, max_nw)
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
/// order (the scalar walk's entry order, which the plan's tail pops
/// depend on) into class storage `S`, priced by [`stream_cost`]. A tile
/// without pairable entries (every single-window tile) gathers nothing.
/// At `TWS = 1` entries carry no value: every slot sits at the floor.
///
/// Workers take whole column tiles and hold one tile's planes and
/// pairable table at a time; `account` sees the same per-(position,
/// tile) values as [`ptb_scalar_scan`] (see [`PtbCtx`]).
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
                    sat!(tally.exact_pairs += cost.exact_pairs * ctx.row_tiles);
                    sat!(tally.near_pairs += cost.near_pairs * ctx.row_tiles);
                    slots = slots - packed + cost.slots;
                    beats += cost.beats;
                }
                ctx.account(&mut tally, raw, slots, beats, span, windows);
            }
        }
        tally
    })
}

/// The retired scalar PTB scan — the historical per-window walk, kept
/// verbatim as the serial yardstick behind
/// [`simulate_layer_reference`].
fn ptb_scalar_scan(
    threads: usize,
    stsap: bool,
    shape: ConvShape,
    ctx: &PtbCtx,
    win_pop: &[u16],
) -> Tally {
    let positions = (shape.ofmap_side() as usize).pow(2);
    scan_chunks(threads, positions, |range| {
        let mut tally = Tally::default();
        let mut tile_tags: Vec<u128> = Vec::new();
        let mut tile_pops: Vec<u16> = Vec::new(); // per entry × window popcounts
        for p in range {
            let rf = field_indices(shape, p);
            for &(w0, w1) in ctx.tiles {
                let nw = w1 - w0;
                let full_mask = tile_full_mask(nw);
                tile_tags.clear();
                tile_pops.clear();
                let mut spikes_span = 0u64;
                let mut active_windows = 0u64;
                for &n in &rf {
                    let base = n * ctx.n_w;
                    let mut mask = 0u128;
                    for (i, w) in (w0..w1).enumerate() {
                        let c = win_pop[base + w];
                        if c > 0 {
                            mask |= 1 << i;
                            spikes_span += u64::from(c);
                        }
                    }
                    if mask != 0 {
                        active_windows += u64::from(mask.count_ones());
                        tile_tags.push(mask);
                        for w in w0..w1 {
                            tile_pops.push(win_pop[base + w]);
                        }
                    }
                }
                let raw = tile_tags.len() as u64;
                if raw == 0 {
                    continue;
                }
                let pops_of = |i: usize| &tile_pops[i * nw..(i + 1) * nw];
                let mut stream_beats = 0u64;
                let slots;
                if stsap {
                    let packed = pack_tile(&tile_tags, full_mask);
                    sat!(tally.exact_pairs += packed.exact_pairs as u64 * ctx.row_tiles);
                    sat!(tally.near_pairs += packed.near_pairs as u64 * ctx.row_tiles);
                    slots = packed.entries_after() as u64;
                    for slot in &packed.slots {
                        let second = slot.second.map(pops_of);
                        stream_beats += slot_cost(pops_of(slot.first), second, ctx.min_beats);
                    }
                } else {
                    slots = raw;
                    for i in 0..raw as usize {
                        stream_beats += slot_cost(pops_of(i), None, ctx.min_beats);
                    }
                }
                ctx.account(
                    &mut tally,
                    raw,
                    slots,
                    stream_beats,
                    spikes_span,
                    active_windows,
                );
            }
        }
        tally
    })
}

/// PTB schedule (Section IV-C), optionally with StSAP (IV-D).
fn simulate_ptb(
    inputs: &SimInputs,
    stsap: bool,
    shape: ConvShape,
    input: &SpikeTensor,
    kernel: Kernel,
) -> LayerReport {
    let arch = &inputs.arch;
    let rows = u64::from(arch.array.rows());
    let cols = arch.array.cols() as usize;
    let tws = inputs.tw_size;
    let t = input.timesteps();
    let part = WindowPartition::new(t, tws as usize);
    let tiles = part.column_tiles(cols);
    let m = u64::from(shape.out_channels());

    let n_w = part.num_windows();
    let ctx = PtbCtx {
        tiles: &tiles,
        tile_width: cols,
        n_w,
        tws,
        min_beats: u64::from(tws.div_ceil(arch.spike_link_bits)).max(1),
        m,
        row_tiles: m.div_ceil(rows),
        fill: arch.array.fill_cycles(),
        pbits: u64::from(arch.potential_bits),
    };
    let mut tally = match kernel {
        Kernel::Words => {
            WORD_KERNEL_CALLS.fetch_add(1, Ordering::Relaxed);
            // Narrow mask words keep a tile's whole lookup slice
            // cache-resident; the wide fallback covers any array.
            if cols <= 16 {
                run_word_kernel::<u16>(inputs, stsap, shape, &ctx, input)
            } else {
                run_word_kernel::<u128>(inputs, stsap, shape, &ctx, input)
            }
        }
        Kernel::Scalar => {
            let win_pop = window_popcounts(input, &part);
            ptb_scalar_scan(inputs.threads, stsap, shape, &ctx, &win_pop)
        }
    };
    let positions = u64::from(shape.ofmap_side()).pow(2);
    sat!(tally.counts.compare_ops += m * positions * t as u64);
    finalize(
        inputs,
        Policy::Ptb { stsap },
        shape,
        input,
        tally,
        true,
        false,
        tws,
    )
}

/// Dense temporal baselines: the paper's baseline \[14\]
/// (`time_serial = false`; columns host `cols` consecutive time points,
/// weights shared within the group only) and the conventional
/// time-serial accelerator (`time_serial = true`; one time point at a
/// time, columns host output positions, weights refetched every time
/// point — Fig. 7a's alternating access).
///
/// Every spike term either baseline books is a receptive-field sum, so
/// the word kernel takes it from a [`BoxScan`] plane: whole-period fire
/// counts for time-serial, per-column-tile spike counts for \[14\]. The
/// scalar reference walks every tap.
fn simulate_dense_temporal(
    inputs: &SimInputs,
    shape: ConvShape,
    input: &SpikeTensor,
    time_serial: bool,
    kernel: Kernel,
) -> LayerReport {
    let arch = &inputs.arch;
    let rows = u64::from(arch.array.rows());
    let cols = arch.array.cols() as usize;
    let fill = arch.array.fill_cycles();
    let t = input.timesteps();
    let m = u64::from(shape.out_channels());
    let row_tiles = m.div_ceil(rows);
    let pbits = u64::from(arch.potential_bits);
    let positions = (shape.ofmap_side() as usize).pow(2);
    if kernel == Kernel::Words {
        WORD_KERNEL_CALLS.fetch_add(1, Ordering::Relaxed);
    }

    if time_serial {
        // Columns tile output positions; every time point is a separate
        // dense pass over the receptive field. RF length varies with
        // padding, so the accounting is exact per position: every tap of
        // every position is a streamed entry (the true tap count), and a
        // position tile's wavefront is bound by its longest receptive
        // field. Useful work is still gated by actual spikes.
        //
        // The scan is chunked at position-*tile* granularity (`cols`
        // consecutive positions per tile) so a tile's max-RF bound never
        // straddles two workers.
        let pos_tiles = positions.div_ceil(cols);
        let t_u = t as u64;
        // Per position: (receptive-field length, spikes it gathers over
        // the whole period).
        let fields: Vec<(u64, u64)> = match kernel {
            Kernel::Words => {
                let boxes = fire_count_box(shape, input);
                let mut spikes = [0u64];
                (0..positions)
                    .map(|p| {
                        boxes.query(p, &mut spikes);
                        (boxes.field_len(p), spikes[0])
                    })
                    .collect()
            }
            Kernel::Scalar => {
                let fires: Vec<u64> = (0..input.neurons())
                    .map(|n| u64::from(input.popcount_range(n, 0, t)))
                    .collect();
                (0..positions)
                    .map(|p| {
                        let rf = field_indices(shape, p);
                        (rf.len() as u64, rf.iter().map(|&n| fires[n]).sum())
                    })
                    .collect()
            }
        };
        let mut tally = scan_chunks(inputs.threads, pos_tiles, |range| {
            let mut tally = Tally::default();
            for tile in range {
                let (mut rf_sum, mut rf_max, mut spikes) = (0u64, 0u64, 0u64);
                for &(len, s) in &fields[tile * cols..((tile + 1) * cols).min(positions)] {
                    rf_sum += len;
                    rf_max = rf_max.max(len);
                    spikes += s;
                }
                sat!(tally.compute_cycles += (rf_max + fill) * t_u * row_tiles);
                sat!(tally.useful_ops += spikes * m);
                sat!(tally.counts.ac_ops += spikes * m);
                sat!(tally.entries_before += rf_sum * t_u * row_tiles);
                // Weight-fetch driver: a dense RF per (position, time point).
                sat!(tally.sum_entries_raw += rf_sum * t_u);
                // Input bits: one bit per tap per time point, per row tile.
                let in_bits = rf_sum * t_u * row_tiles;
                tally.counts.transfer(
                    MemLevel::GlobalBuffer,
                    MemLevel::L1,
                    DataKind::InputSpike,
                    in_bits,
                );
                tally
                    .counts
                    .read(MemLevel::L1, DataKind::InputSpike, in_bits);
            }
            tally
        });
        tally.entries_after = tally.entries_before;
        // Membrane read+write per output neuron per time point — the
        // multi-bit movement bottleneck PTB amortizes per window.
        let mem = m * positions as u64 * t_u * pbits;
        tally
            .counts
            .read(MemLevel::GlobalBuffer, DataKind::Membrane, mem);
        tally
            .counts
            .write(MemLevel::GlobalBuffer, DataKind::Membrane, mem);
        sat!(tally.counts.compare_ops += m * positions as u64 * t_u);
        return finalize(
            inputs,
            Policy::TimeSerial,
            shape,
            input,
            tally,
            false,
            true,
            1,
        );
    }

    // Baseline [14]: columns tile groups of `cols` consecutive time
    // points (limited temporal parallelism), dense streaming. One array
    // iteration per (position, column tile) of `beats` cycles plus the
    // fill, bound by the dense stream or the busiest column's spikes.
    let part = WindowPartition::new(t, 1);
    let tiles = part.column_tiles(cols);
    let book = |tally: &mut Tally, rf_len: u64, span_len: u64, beats: u64, spikes: u64| {
        sat!(tally.compute_cycles += (beats + fill) * row_tiles);
        sat!(tally.useful_ops += spikes * m);
        sat!(tally.counts.ac_ops += spikes * m);
        sat!(tally.entries_before += rf_len * row_tiles);
        sat!(tally.entries_after += rf_len * row_tiles);
        sat!(tally.sum_entries_raw += rf_len);
        let in_bits = rf_len * span_len * row_tiles;
        tally.counts.transfer(
            MemLevel::GlobalBuffer,
            MemLevel::L1,
            DataKind::InputSpike,
            in_bits,
        );
        tally
            .counts
            .read(MemLevel::L1, DataKind::InputSpike, in_bits);
        tally
            .counts
            .read(MemLevel::GlobalBuffer, DataKind::Membrane, m * pbits);
        tally
            .counts
            .write(MemLevel::GlobalBuffer, DataKind::Membrane, m * pbits);
    };
    let mut tally = match kernel {
        // A column counts at most one spike per receptive-field neuron,
        // so the busiest column never outlasts the dense stream and an
        // iteration takes exactly `rf_len` beats. What remains is the
        // tile's spike total: one box sum of per-neuron tile counts.
        // Workers take whole column tiles, one plane at a time.
        Kernel::Words => scan_chunks(inputs.threads, tiles.len(), |range| {
            let mut tally = Tally::default();
            let mut boxes = BoxScan::new(shape, 1);
            let mut spikes = [0u64];
            for &(w0, w1) in &tiles[range] {
                boxes.fill(|n, cell| cell[0] += u64::from(input.popcount_range(n, w0, w1)));
                boxes.integrate();
                for p in 0..positions {
                    boxes.query(p, &mut spikes);
                    let rf_len = boxes.field_len(p);
                    book(&mut tally, rf_len, (w1 - w0) as u64, rf_len, spikes[0]);
                }
            }
            tally
        }),
        Kernel::Scalar => {
            let bit_at = spike_bits(input);
            scan_chunks(inputs.threads, positions, |range| {
                let mut tally = Tally::default();
                for p in range {
                    let rf = field_indices(shape, p);
                    for &(w0, w1) in &tiles {
                        let mut spikes = 0u64;
                        let mut busiest = 0u64;
                        for tp in w0..w1 {
                            let mut col_spikes = 0u64;
                            for &n in &rf {
                                col_spikes += u64::from(bit_at[n * t + tp]);
                            }
                            busiest = busiest.max(col_spikes);
                            spikes += col_spikes;
                        }
                        let rf_len = rf.len() as u64;
                        book(
                            &mut tally,
                            rf_len,
                            (w1 - w0) as u64,
                            rf_len.max(busiest),
                            spikes,
                        );
                    }
                }
                tally
            })
        }
    };
    sat!(tally.counts.compare_ops += m * positions as u64 * t as u64);
    finalize(
        inputs,
        Policy::BaselineTemporal,
        shape,
        input,
        tally,
        false,
        true,
        1,
    )
}

/// The non-spiking ANN accelerator of the Fig. 12(b) comparison: one
/// dense pass, 8-bit activations, MAC PEs, good weight reuse
/// (SCALE-Sim-class output-stationary mapping on the same 128-PE array).
fn simulate_ann(inputs: &SimInputs, shape: ConvShape, input: &SpikeTensor) -> LayerReport {
    let arch = &inputs.arch;
    let rows = u64::from(arch.array.rows());
    let cols = arch.array.cols() as usize;
    let fill = arch.array.fill_cycles();
    let m = u64::from(shape.out_channels());
    let row_tiles = m.div_ceil(rows);
    let abits = u64::from(arch.weight_bits); // activations share the 8-bit width
    let pbits = u64::from(arch.potential_bits);

    // No planes: the scan only needs each field's length.
    let boxes = BoxScan::new(shape, 0);
    let positions = boxes.positions();
    let rf_total: u64 = (0..positions).map(|p| boxes.field_len(p)).sum();

    // Exact per position tile: the wavefront is bound by the tile's
    // longest receptive field, and every tap of every position is a
    // streamed entry (no integer-mean truncation at padded edges).
    let mut pass_cycles = 0u64;
    for p0 in (0..positions).step_by(cols) {
        let p1 = (p0 + cols).min(positions);
        pass_cycles += (p0..p1).map(|p| boxes.field_len(p)).max().unwrap_or(0) + fill;
    }

    let entries_before = rf_total * row_tiles;
    let mut tally = Tally {
        compute_cycles: pass_cycles * row_tiles,
        useful_ops: rf_total * m, // dense: every MAC is useful work
        entries_before,
        entries_after: entries_before,
        sum_entries_raw: rf_total, // one dense pass over every position
        ..Tally::default()
    };
    tally.counts.mac_ops = rf_total * m;

    // Activations: 8-bit, per tap per position, staged per row tile.
    let in_bits = rf_total * abits * row_tiles;
    tally.counts.transfer(
        MemLevel::GlobalBuffer,
        MemLevel::L1,
        DataKind::InputSpike,
        in_bits,
    );
    tally
        .counts
        .read(MemLevel::L1, DataKind::InputSpike, in_bits);
    // Psums held in-PE; outputs written once as 8-bit activations.
    let out_bits = m * positions as u64 * abits;
    tally
        .counts
        .write(MemLevel::GlobalBuffer, DataKind::OutputSpike, out_bits);
    tally
        .counts
        .write(MemLevel::Dram, DataKind::OutputSpike, out_bits);
    let psum_bits = sat_mul(tally.counts.mac_ops, pbits, &mut tally.counts.saturated);
    tally
        .counts
        .read(MemLevel::Scratchpad, DataKind::Psum, psum_bits);
    tally
        .counts
        .write(MemLevel::Scratchpad, DataKind::Psum, psum_bits);
    sat!(tally.counts.compare_ops += m * positions as u64); // ReLU

    // Weight movement (resident rule), mirroring `finalize` but with the
    // ANN's dense input already counted above; input DRAM traffic is
    // 8-bit dense.
    let rf = shape.receptive_field() as u64;
    let wbits = u64::from(arch.weight_bits);
    for rt in 0..row_tiles {
        let rows_rt = rows.min(m - rt * rows);
        let edge = sat_mul(
            sat_mul(tally.sum_entries_raw, rows_rt, &mut tally.counts.saturated),
            wbits,
            &mut tally.counts.saturated,
        );
        tally.counts.read(MemLevel::L1, DataKind::Weight, edge);
        let ws = rows_rt * rf * wbits;
        let gb_to_l1 = if ws <= inputs.l1_weight_capacity_bits() {
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
    let in_dram = input.neurons() as u64 * abits;
    let passes = if in_dram <= inputs.gb_input_capacity_bits() {
        1
    } else {
        row_tiles
    };
    tally.counts.transfer(
        MemLevel::Dram,
        MemLevel::GlobalBuffer,
        DataKind::InputSpike,
        in_dram * passes,
    );

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
        policy: Policy::Ann,
        tw_size: 1,
        energy,
        cycles,
        seconds: arch.cycles_to_seconds(cycles),
        useful_ops: tally.useful_ops,
        pe_cycles,
        entries_before: tally.entries_before,
        entries_after: tally.entries_after,
        exact_pairs: 0,
        near_pairs: 0,
        counts: tally.counts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Policy;

    fn small_shape() -> ConvShape {
        ConvShape::new(6, 3, 4, 8, 1).unwrap()
    }

    fn sparse_input(shape: ConvShape, t: usize) -> SpikeTensor {
        SpikeTensor::from_fn(shape.ifmap_neurons(), t, |n, tp| {
            n % 3 != 2 && (n * 7 + tp * 11) % 17 == 0
        })
    }

    /// Activity aimed at windows that straddle storage words: one
    /// neuron class is silent in its first word and fires only later
    /// (a straddling window whose first word is silent and whose last
    /// word fires), one bursts on both sides of every word boundary,
    /// one is the sparse pattern, one never fires.
    fn straddle_input(shape: ConvShape, t: usize) -> SpikeTensor {
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
    fn word_kernel_matches_scalar_reference_for_every_policy() {
        // The kernel equivalence pin: the bit-parallel word paths must
        // reproduce the retired per-bit reference bit-for-bit — on a
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
                    let calls_before = word_kernel_calls();
                    let word = simulate_layer(&inputs, policy, shape, &input);
                    let scalar = simulate_layer_reference(&inputs, policy, shape, &input);
                    assert_eq!(
                        word, scalar,
                        "{policy:?} t={t} tw={tw}: word kernel diverged from reference"
                    );
                    if matches!(
                        policy,
                        Policy::Ptb { .. } | Policy::BaselineTemporal | Policy::EventDriven
                    ) {
                        assert!(
                            word_kernel_calls() > calls_before,
                            "{policy:?}: word kernel path was not exercised"
                        );
                    }
                }
            }
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
    fn single_window_tiles_pair_nothing() {
        // With one window per column tile (T <= TW) every active entry
        // carries the tile's full tag, so StSAP has nothing to pair and
        // its report is plain PTB's in every field but the policy —
        // from the word kernel and the scalar reference alike, on wide
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
        // the beats floor, and the funnel-shift TW=1 builder fallback
        // (a tile width that does not divide a storage word: 12 and
        // 20). 128 is the Fig. 9(b) extreme, one tile spanning two
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
            for tw in [1u32, 3, 5, 7, 8, 12, 24, 32, 48] {
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
                        tiles: &tiles,
                        tile_width: cols,
                        n_w,
                        tws: tw,
                        min_beats: 1,
                        m: 1,
                        row_tiles: 1,
                        fill: 0,
                        pbits: 1,
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
