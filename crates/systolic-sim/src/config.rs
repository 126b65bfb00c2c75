//! Architecture configuration (Tables III & IV of the paper).

use serde::{Deserialize, Serialize};

use crate::array::ArrayDims;

/// Error raised when an [`ArchConfig`] is internally inconsistent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvalidArchError {
    /// Description of the violated constraint.
    pub reason: String,
}

impl std::fmt::Display for InvalidArchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid architecture configuration: {}", self.reason)
    }
}

impl std::error::Error for InvalidArchError {}

/// The widest array an [`ArchConfig`] may have: a column tile's
/// windows are tagged in one `u128`, a bit per column.
pub const MAX_COLS: u32 = 128;

/// Full architecture specification of the simulated accelerator
/// (Table IV), independent of any particular workload.
///
/// ```
/// use systolic_sim::ArchConfig;
/// let arch = ArchConfig::hpca22();
/// assert_eq!(arch.array.pe_count(), 128);
/// assert_eq!(arch.psum_slots(), 96);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ArchConfig {
    /// Systolic array geometry (rows × cols; 16×8 by default).
    pub array: ArrayDims,
    /// Global buffer capacity in bytes (54 KB in Table IV).
    pub global_buffer_bytes: u64,
    /// L1 (double-buffered) capacity in bytes (2 KB in Table IV).
    pub l1_bytes: u64,
    /// Per-PE scratchpad capacity in bytes (96 B in Table IV).
    pub scratchpad_bytes: u64,
    /// DRAM bandwidth in bytes per second (30 GB/s in Table IV).
    pub dram_bandwidth_bytes_per_s: f64,
    /// Clock frequency in Hz (1 GHz assumed; the paper reports energy
    /// and relative latency, so only ratios matter).
    pub clock_hz: f64,
    /// Weight precision in bits (8 in Table IV).
    pub weight_bits: u32,
    /// Membrane-potential / partial-sum precision in bits (8).
    pub potential_bits: u32,
    /// Width of the vertical spike-delivery link into each column, in
    /// bits per beat. A time batch's `TWS × 1-bit` word needs
    /// `ceil(TWS / spike_link_bits)` beats to enter the column, which is
    /// what makes overly wide time windows pay for the zero bits they
    /// pack (Section VI-A1).
    pub spike_link_bits: u32,
}

impl ArchConfig {
    /// The paper's Table IV configuration: 128 PEs as a 16×8 array,
    /// 54 KB global buffer, 2 KB L1, 96 B scratchpad, 30 GB/s DRAM,
    /// 8-bit weights and potentials.
    pub fn hpca22() -> Self {
        ArchConfig {
            array: ArrayDims::new(16, 8),
            global_buffer_bytes: 54 * 1024,
            l1_bytes: 2 * 1024,
            scratchpad_bytes: 96,
            dram_bandwidth_bytes_per_s: 30.0e9,
            clock_hz: 1.0e9,
            weight_bits: 8,
            potential_bits: 8,
            spike_link_bits: 8,
        }
    }

    /// Same architecture with a different array shape (for the Fig. 9(b)
    /// shape sweep; the PE count is preserved by the caller's choice).
    pub fn with_array(mut self, array: ArrayDims) -> Self {
        self.array = array;
        self
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidArchError`] if any capacity, bandwidth, clock, or
    /// precision is zero, the scratchpad cannot hold a single psum, or
    /// the array is wider than [`MAX_COLS`] columns.
    pub fn validate(&self) -> Result<(), InvalidArchError> {
        let err = |reason: &str| {
            Err(InvalidArchError {
                reason: reason.to_string(),
            })
        };
        if self.array.cols() > MAX_COLS {
            return err("array must have at most 128 columns (tile tags are 128-bit)");
        }
        if self.array.pe_count() == 0 {
            return err("array must contain at least one PE");
        }
        if self.global_buffer_bytes == 0 || self.l1_bytes == 0 || self.scratchpad_bytes == 0 {
            return err("all memory capacities must be nonzero");
        }
        if self.dram_bandwidth_bytes_per_s <= 0.0 || !self.dram_bandwidth_bytes_per_s.is_finite() {
            return err("dram bandwidth must be finite and positive");
        }
        if self.clock_hz <= 0.0 || !self.clock_hz.is_finite() {
            return err("clock must be finite and positive");
        }
        if self.weight_bits == 0 || self.potential_bits == 0 {
            return err("bit precisions must be nonzero");
        }
        if self.spike_link_bits == 0 {
            return err("spike link width must be nonzero");
        }
        if self.scratchpad_bytes * 8 < u64::from(self.potential_bits) {
            return err("scratchpad cannot hold a single partial sum");
        }
        if self.l1_bytes > self.global_buffer_bytes {
            return err("l1 must not exceed the global buffer");
        }
        Ok(())
    }

    /// Number of partial-sum slots in one PE's scratchpad: the hard
    /// upper bound on the time-window size a PE can batch (Table IV's
    /// `96 × 8-bit`).
    pub fn psum_slots(&self) -> u64 {
        self.scratchpad_bytes * 8 / u64::from(self.potential_bits)
    }

    /// DRAM bytes transferable per clock cycle.
    pub fn dram_bytes_per_cycle(&self) -> f64 {
        self.dram_bandwidth_bytes_per_s / self.clock_hz
    }

    /// A layer's latency in cycles: `compute_cycles` against the
    /// cycles that `dram_bits` of off-chip traffic take at the DRAM
    /// bandwidth, whichever is larger. Double buffering hides the
    /// smaller of the two (Section V-B's stall-free assumption); this is
    /// the optimistic bound, and no per-iteration double buffer is
    /// played against it.
    pub fn layer_cycles(&self, compute_cycles: u64, dram_bits: u64) -> u64 {
        let dram_bytes = dram_bits as f64 / 8.0;
        let dram_cycles = (dram_bytes / self.dram_bytes_per_cycle()).ceil() as u64;
        compute_cycles.max(dram_cycles)
    }

    /// Converts a cycle count to seconds.
    pub fn cycles_to_seconds(&self, cycles: u64) -> f64 {
        cycles as f64 / self.clock_hz
    }
}

impl Default for ArchConfig {
    fn default() -> Self {
        ArchConfig::hpca22()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hpca22_matches_table_iv() {
        let a = ArchConfig::hpca22();
        assert_eq!(a.array.rows(), 16);
        assert_eq!(a.array.cols(), 8);
        assert_eq!(a.array.pe_count(), 128);
        assert_eq!(a.global_buffer_bytes, 55_296);
        assert_eq!(a.l1_bytes, 2048);
        assert_eq!(a.psum_slots(), 96);
        assert!((a.dram_bytes_per_cycle() - 30.0).abs() < 1e-9);
        a.validate().unwrap();
    }

    #[test]
    fn validation_catches_zero_capacities() {
        let mut a = ArchConfig::hpca22();
        a.l1_bytes = 0;
        assert!(a.validate().is_err());
        let mut a = ArchConfig::hpca22();
        a.dram_bandwidth_bytes_per_s = 0.0;
        assert!(a.validate().is_err());
        let mut a = ArchConfig::hpca22();
        a.weight_bits = 0;
        assert!(a.validate().is_err());
    }

    #[test]
    fn validation_catches_inverted_hierarchy() {
        let mut a = ArchConfig::hpca22();
        a.l1_bytes = a.global_buffer_bytes + 1;
        assert!(a.validate().is_err());
    }

    #[test]
    fn validation_catches_tiny_scratchpad() {
        let mut a = ArchConfig::hpca22();
        a.scratchpad_bytes = 1;
        a.potential_bits = 16;
        assert!(a.validate().is_err());
    }

    #[test]
    fn validation_caps_the_array_at_128_columns() {
        let widest = ArchConfig::hpca22().with_array(ArrayDims::new(1, MAX_COLS));
        widest.validate().unwrap();
        let wider = ArchConfig::hpca22().with_array(ArrayDims::new(1, MAX_COLS + 1));
        let e = wider.validate().unwrap_err();
        assert!(e.reason.contains("128 columns"), "{e}");
    }

    #[test]
    fn layer_cycles_take_the_slower_of_compute_and_dram() {
        let a = ArchConfig::hpca22(); // 30 bytes per cycle
        assert_eq!(a.layer_cycles(1000, 0), 1000);
        assert_eq!(a.layer_cycles(0, 8 * 30 * 10), 10);
        // A partial cycle of traffic rounds up.
        assert_eq!(a.layer_cycles(5, 8 * 30 * 10 + 8), 11);
        assert_eq!(a.layer_cycles(50, 8 * 30 * 10), 50);
    }

    #[test]
    fn with_array_reshapes() {
        let a = ArchConfig::hpca22().with_array(ArrayDims::new(8, 16));
        assert_eq!(a.array.pe_count(), 128);
        assert_eq!(a.array.rows(), 8);
        a.validate().unwrap();
    }

    #[test]
    fn cycle_time_conversion() {
        let a = ArchConfig::hpca22();
        assert!((a.cycles_to_seconds(1_000_000_000) - 1.0).abs() < 1e-12);
    }
}
