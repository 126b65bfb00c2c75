//! Per-level, per-data-type access counters — the "read/write traces"
//! of the paper's Section V-B, aggregated analytically.
//!
//! All data volumes are counted in **bits**, because spike data is
//! genuinely sub-byte (`TWS × 1-bit` per Table IV) and the paper's whole
//! premise is that binary activations move more cheaply than multi-bit
//! weights and partial sums.

use serde::{Deserialize, Serialize};

/// One level of the three-level memory hierarchy (plus the per-PE
/// scratchpad).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum MemLevel {
    /// Off-chip DRAM.
    Dram,
    /// On-chip global buffer (54 KB in Table IV).
    GlobalBuffer,
    /// Double-buffered L1 (2 KB in Table IV).
    L1,
    /// Per-PE scratchpad (96 × 8-bit in Table IV).
    Scratchpad,
}

impl MemLevel {
    /// All levels, outermost first.
    pub const ALL: [MemLevel; 4] = [
        MemLevel::Dram,
        MemLevel::GlobalBuffer,
        MemLevel::L1,
        MemLevel::Scratchpad,
    ];

    /// Stable index for table storage.
    pub fn index(self) -> usize {
        match self {
            MemLevel::Dram => 0,
            MemLevel::GlobalBuffer => 1,
            MemLevel::L1 => 2,
            MemLevel::Scratchpad => 3,
        }
    }

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            MemLevel::Dram => "DRAM",
            MemLevel::GlobalBuffer => "GlobalBuffer",
            MemLevel::L1 => "L1",
            MemLevel::Scratchpad => "Scratchpad",
        }
    }
}

/// The data types the simulator tracks separately (the paper partitions
/// each memory level per type).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum DataKind {
    /// Multi-bit synaptic weights (filters).
    Weight,
    /// Binary input spikes (IFmap activity).
    InputSpike,
    /// Binary output spikes (OFmap activity).
    OutputSpike,
    /// Multi-bit partial sums.
    Psum,
    /// Multi-bit membrane potentials.
    Membrane,
}

impl DataKind {
    /// All tracked data kinds.
    pub const ALL: [DataKind; 5] = [
        DataKind::Weight,
        DataKind::InputSpike,
        DataKind::OutputSpike,
        DataKind::Psum,
        DataKind::Membrane,
    ];

    /// Stable index for table storage.
    pub fn index(self) -> usize {
        match self {
            DataKind::Weight => 0,
            DataKind::InputSpike => 1,
            DataKind::OutputSpike => 2,
            DataKind::Psum => 3,
            DataKind::Membrane => 4,
        }
    }

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            DataKind::Weight => "weight",
            DataKind::InputSpike => "input-spike",
            DataKind::OutputSpike => "output-spike",
            DataKind::Psum => "psum",
            DataKind::Membrane => "membrane",
        }
    }
}

/// Adds `b` to `a` with saturation: the sum clamps at [`u64::MAX`]
/// instead of wrapping, and every clamp increments `*saturated` so the
/// caller can report the overflow as an audit finding rather than
/// silently publishing a wrapped total. When nothing clamps the result
/// is bit-identical to `a + b`.
#[inline]
pub fn sat_add(a: u64, b: u64, saturated: &mut u64) -> u64 {
    match a.checked_add(b) {
        Some(v) => v,
        None => {
            *saturated += 1;
            u64::MAX
        }
    }
}

/// Multiplies `a` by `b` with saturation, counting clamps like
/// [`sat_add`]. When nothing clamps the result is bit-identical to
/// `a * b`.
#[inline]
pub fn sat_mul(a: u64, b: u64, saturated: &mut u64) -> u64 {
    match a.checked_mul(b) {
        Some(v) => v,
        None => {
            *saturated += 1;
            u64::MAX
        }
    }
}

/// Aggregated access trace: read/write bit counts per (level, kind),
/// plus arithmetic operation counts.
///
/// All accumulation into a trace is *checked*: additions clamp at
/// [`u64::MAX`] and count the clamp in [`AccessCounts::saturated`], so
/// an overflowed model run reports a lower bound plus a nonzero
/// saturation counter instead of a silently wrapped total (the audit
/// layer turns the counter into a finding).
///
/// ```
/// use systolic_sim::trace::{AccessCounts, DataKind, MemLevel};
/// let mut c = AccessCounts::new();
/// c.read(MemLevel::Dram, DataKind::Weight, 8 * 1024);
/// c.write(MemLevel::L1, DataKind::Weight, 8 * 1024);
/// assert_eq!(c.read_bits(MemLevel::Dram, DataKind::Weight), 8 * 1024);
/// assert_eq!(c.level_bits(MemLevel::L1), 8 * 1024);
/// assert_eq!(c.saturated, 0);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct AccessCounts {
    reads: [[u64; 5]; 4],
    writes: [[u64; 5]; 4],
    /// 8-bit accumulate (AC) operations executed by PEs.
    pub ac_ops: u64,
    /// 8-bit multiply-accumulate operations (ANN baseline PEs).
    pub mac_ops: u64,
    /// Threshold comparisons / membrane updates (Step B).
    pub compare_ops: u64,
    /// How many accumulations clamped at [`u64::MAX`] instead of
    /// wrapping. Zero on every well-formed run; nonzero means the other
    /// counters are lower bounds.
    pub saturated: u64,
}

impl AccessCounts {
    /// Creates a zeroed counter set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `bits` read from `level` of data `kind`.
    pub fn read(&mut self, level: MemLevel, kind: DataKind, bits: u64) {
        let cell = &mut self.reads[level.index()][kind.index()];
        *cell = sat_add(*cell, bits, &mut self.saturated);
    }

    /// Records `bits` written to `level` of data `kind`.
    pub fn write(&mut self, level: MemLevel, kind: DataKind, bits: u64) {
        let cell = &mut self.writes[level.index()][kind.index()];
        *cell = sat_add(*cell, bits, &mut self.saturated);
    }

    /// Records a transfer from an outer level into an inner one: a read
    /// at `from` plus a write at `to`.
    pub fn transfer(&mut self, from: MemLevel, to: MemLevel, kind: DataKind, bits: u64) {
        self.read(from, kind, bits);
        self.write(to, kind, bits);
    }

    /// Bits read from `(level, kind)`.
    pub fn read_bits(&self, level: MemLevel, kind: DataKind) -> u64 {
        self.reads[level.index()][kind.index()]
    }

    /// Bits written to `(level, kind)`.
    pub fn write_bits(&self, level: MemLevel, kind: DataKind) -> u64 {
        self.writes[level.index()][kind.index()]
    }

    /// Total bits (reads + writes) touching `level`. Saturating, so a
    /// clamped trace aggregates without wrapping.
    pub fn level_bits(&self, level: MemLevel) -> u64 {
        DataKind::ALL.iter().fold(0u64, |acc, &k| {
            acc.saturating_add(self.read_bits(level, k))
                .saturating_add(self.write_bits(level, k))
        })
    }

    /// Total bits (reads + writes) of `kind` across all levels.
    /// Saturating, like [`AccessCounts::level_bits`].
    pub fn kind_bits(&self, kind: DataKind) -> u64 {
        MemLevel::ALL.iter().fold(0u64, |acc, &l| {
            acc.saturating_add(self.read_bits(l, kind))
                .saturating_add(self.write_bits(l, kind))
        })
    }

    /// Off-chip traffic in bits (DRAM reads + writes); the quantity the
    /// latency model compares against DRAM bandwidth.
    pub fn dram_traffic_bits(&self) -> u64 {
        self.level_bits(MemLevel::Dram)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_are_stable_and_distinct() {
        let mut seen = std::collections::HashSet::new();
        for l in MemLevel::ALL {
            assert!(seen.insert(l.index()));
        }
        let mut seen = std::collections::HashSet::new();
        for k in DataKind::ALL {
            assert!(seen.insert(k.index()));
        }
    }

    #[test]
    fn read_write_accumulate() {
        let mut c = AccessCounts::new();
        c.read(MemLevel::L1, DataKind::Psum, 100);
        c.read(MemLevel::L1, DataKind::Psum, 50);
        c.write(MemLevel::L1, DataKind::Psum, 25);
        assert_eq!(c.read_bits(MemLevel::L1, DataKind::Psum), 150);
        assert_eq!(c.write_bits(MemLevel::L1, DataKind::Psum), 25);
        assert_eq!(c.level_bits(MemLevel::L1), 175);
        assert_eq!(c.kind_bits(DataKind::Psum), 175);
        assert_eq!(c.level_bits(MemLevel::Dram), 0);
    }

    #[test]
    fn transfer_counts_both_sides() {
        let mut c = AccessCounts::new();
        c.transfer(MemLevel::Dram, MemLevel::GlobalBuffer, DataKind::Weight, 64);
        assert_eq!(c.read_bits(MemLevel::Dram, DataKind::Weight), 64);
        assert_eq!(c.write_bits(MemLevel::GlobalBuffer, DataKind::Weight), 64);
        assert_eq!(c.dram_traffic_bits(), 64);
    }

    #[test]
    fn default_is_all_zero() {
        let c = AccessCounts::new();
        for l in MemLevel::ALL {
            assert_eq!(c.level_bits(l), 0);
        }
        assert_eq!(c.ac_ops, 0);
        assert_eq!(c.saturated, 0);
    }

    #[test]
    fn sat_helpers_are_exact_until_they_clamp() {
        let mut sat = 0u64;
        assert_eq!(sat_add(3, 4, &mut sat), 7);
        assert_eq!(sat_mul(3, 4, &mut sat), 12);
        assert_eq!(sat, 0);
        assert_eq!(sat_add(u64::MAX, 1, &mut sat), u64::MAX);
        assert_eq!(sat, 1);
        assert_eq!(sat_mul(u64::MAX, 2, &mut sat), u64::MAX);
        assert_eq!(sat, 2);
        assert_eq!(sat_add(u64::MAX, 0, &mut sat), u64::MAX, "MAX + 0 is exact");
        assert_eq!(sat, 2);
    }

    #[test]
    fn overflowing_accumulation_clamps_and_counts() {
        let mut c = AccessCounts::new();
        c.read(MemLevel::Dram, DataKind::Weight, u64::MAX);
        assert_eq!(c.saturated, 0, "a single huge read still fits");
        c.read(MemLevel::Dram, DataKind::Weight, 1);
        assert_eq!(c.read_bits(MemLevel::Dram, DataKind::Weight), u64::MAX);
        assert_eq!(c.saturated, 1);
        // Aggregations over a clamped trace must not wrap either.
        assert_eq!(c.level_bits(MemLevel::Dram), u64::MAX);
        assert_eq!(c.dram_traffic_bits(), u64::MAX);
    }
}
