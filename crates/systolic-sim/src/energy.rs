//! CACTI-style energy model (Section V-B of the paper).
//!
//! The paper evaluates energy by multiplying per-level access counts by
//! CACTI 6.0 per-access energies (32 nm) and adding the arithmetic
//! energy of the PE accumulate units. CACTI itself is a C++ tool we
//! cannot run here; the constants below are of the magnitude CACTI
//! reports for the Table IV capacities at 32 nm and — more importantly —
//! preserve the *relative* costs between hierarchy levels that all the
//! paper's normalized results depend on (DRAM ≫ global buffer ≫ L1 ≫
//! scratchpad ≈ ALU op).

use serde::{Deserialize, Serialize};

use crate::trace::{AccessCounts, DataKind, MemLevel};

/// Per-access energy constants, in picojoules per **byte** for memories
/// and picojoules per operation for arithmetic.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EnergyModel {
    /// DRAM access energy (pJ/byte).
    pub dram_pj_per_byte: f64,
    /// Global buffer (54 KB SRAM) access energy (pJ/byte).
    pub global_buffer_pj_per_byte: f64,
    /// L1 (2 KB SRAM) access energy (pJ/byte).
    pub l1_pj_per_byte: f64,
    /// Per-PE scratchpad / register-file access energy (pJ/byte).
    pub scratchpad_pj_per_byte: f64,
    /// 8-bit accumulate (add + conditional select) energy (pJ/op).
    pub ac_pj_per_op: f64,
    /// 8-bit multiply-accumulate energy (pJ/op) — ANN baseline PEs.
    pub mac_pj_per_op: f64,
    /// Membrane update + threshold comparison energy (pJ/op).
    pub compare_pj_per_op: f64,
}

impl EnergyModel {
    /// The default 32 nm-class constants used throughout the
    /// reproduction (see module docs for provenance).
    pub fn cacti_32nm() -> Self {
        EnergyModel {
            dram_pj_per_byte: 160.0,
            global_buffer_pj_per_byte: 6.0,
            l1_pj_per_byte: 1.2,
            scratchpad_pj_per_byte: 0.2,
            ac_pj_per_op: 0.1,
            mac_pj_per_op: 0.6,
            compare_pj_per_op: 0.05,
        }
    }

    /// pJ per byte for one memory level.
    pub fn level_pj_per_byte(&self, level: MemLevel) -> f64 {
        match level {
            MemLevel::Dram => self.dram_pj_per_byte,
            MemLevel::GlobalBuffer => self.global_buffer_pj_per_byte,
            MemLevel::L1 => self.l1_pj_per_byte,
            MemLevel::Scratchpad => self.scratchpad_pj_per_byte,
        }
    }

    /// Evaluates the energy of an access trace, returning a per-level /
    /// per-kind breakdown (everything in picojoules).
    pub fn evaluate(&self, counts: &AccessCounts) -> EnergyBreakdown {
        let mut by_level = [0.0f64; 4];
        let mut by_kind = [0.0f64; 5];
        for level in MemLevel::ALL {
            let cost = self.level_pj_per_byte(level);
            for kind in DataKind::ALL {
                let bits = counts.read_bits(level, kind) + counts.write_bits(level, kind);
                let pj = bits as f64 / 8.0 * cost;
                by_level[level.index()] += pj;
                by_kind[kind.index()] += pj;
            }
        }
        let compute_pj = counts.ac_ops as f64 * self.ac_pj_per_op
            + counts.mac_ops as f64 * self.mac_pj_per_op
            + counts.compare_ops as f64 * self.compare_pj_per_op;
        EnergyBreakdown {
            by_level,
            by_kind,
            compute_pj,
        }
    }
}

impl Default for EnergyModel {
    fn default() -> Self {
        EnergyModel::cacti_32nm()
    }
}

/// Energy evaluation result, in picojoules.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct EnergyBreakdown {
    by_level: [f64; 4],
    by_kind: [f64; 5],
    /// Arithmetic energy (AC + MAC + compare), pJ.
    pub compute_pj: f64,
}

impl EnergyBreakdown {
    /// Memory energy at one level, pJ.
    pub fn level_pj(&self, level: MemLevel) -> f64 {
        self.by_level[level.index()]
    }

    /// Memory energy attributed to one data kind (summed over levels), pJ.
    pub fn kind_pj(&self, kind: DataKind) -> f64 {
        self.by_kind[kind.index()]
    }

    /// Total memory energy, pJ.
    pub fn memory_pj(&self) -> f64 {
        self.by_level.iter().sum()
    }

    /// Total energy (memory + compute), pJ.
    pub fn total_pj(&self) -> f64 {
        self.memory_pj() + self.compute_pj
    }

    /// Total energy in joules.
    pub fn total_joules(&self) -> f64 {
        self.total_pj() * 1e-12
    }

    /// Element-wise sum of two breakdowns.
    pub fn merged(&self, other: &EnergyBreakdown) -> EnergyBreakdown {
        let mut by_level = self.by_level;
        let mut by_kind = self.by_kind;
        for (a, b) in by_level.iter_mut().zip(other.by_level) {
            *a += b;
        }
        for (a, b) in by_kind.iter_mut().zip(other.by_kind) {
            *a += b;
        }
        EnergyBreakdown {
            by_level,
            by_kind,
            compute_pj: self.compute_pj + other.compute_pj,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hierarchy_costs_are_ordered() {
        let m = EnergyModel::cacti_32nm();
        assert!(m.dram_pj_per_byte > m.global_buffer_pj_per_byte);
        assert!(m.global_buffer_pj_per_byte > m.l1_pj_per_byte);
        assert!(m.l1_pj_per_byte > m.scratchpad_pj_per_byte);
        assert!(
            m.mac_pj_per_op > m.ac_pj_per_op,
            "AC must be cheaper than MAC"
        );
    }

    #[test]
    fn evaluate_counts_bits_as_bytes() {
        let m = EnergyModel::cacti_32nm();
        let mut c = AccessCounts::new();
        c.read(MemLevel::Dram, DataKind::Weight, 8); // exactly one byte
        let e = m.evaluate(&c);
        assert!((e.level_pj(MemLevel::Dram) - m.dram_pj_per_byte).abs() < 1e-12);
        assert!((e.kind_pj(DataKind::Weight) - m.dram_pj_per_byte).abs() < 1e-12);
        assert_eq!(e.compute_pj, 0.0);
        assert!((e.total_pj() - m.dram_pj_per_byte).abs() < 1e-12);
    }

    #[test]
    fn compute_energy_separates_ac_and_mac() {
        let m = EnergyModel::cacti_32nm();
        let mut c = AccessCounts::new();
        c.ac_ops = 10;
        c.mac_ops = 10;
        c.compare_ops = 10;
        let e = m.evaluate(&c);
        let expect = 10.0 * (m.ac_pj_per_op + m.mac_pj_per_op + m.compare_pj_per_op);
        assert!((e.compute_pj - expect).abs() < 1e-12);
        assert_eq!(e.memory_pj(), 0.0);
    }

    #[test]
    fn breakdown_merge_adds() {
        let m = EnergyModel::cacti_32nm();
        let mut a = AccessCounts::new();
        a.read(MemLevel::L1, DataKind::InputSpike, 800);
        let mut b = AccessCounts::new();
        b.write(MemLevel::L1, DataKind::InputSpike, 800);
        b.ac_ops = 4;
        let ea = m.evaluate(&a);
        let eb = m.evaluate(&b);
        let merged = ea.merged(&eb);
        let mut both = a.clone();
        both.write(MemLevel::L1, DataKind::InputSpike, 800);
        both.ac_ops = 4;
        let direct = m.evaluate(&both);
        assert!((merged.total_pj() - direct.total_pj()).abs() < 1e-9);
        assert!((merged.level_pj(MemLevel::L1) - direct.level_pj(MemLevel::L1)).abs() < 1e-9);
    }

    #[test]
    fn total_joules_scales() {
        let m = EnergyModel::cacti_32nm();
        let mut c = AccessCounts::new();
        c.read(MemLevel::Dram, DataKind::Weight, 8_000_000_000); // 1 GB
        let e = m.evaluate(&c);
        // 1e9 bytes * 160 pJ = 0.16 J
        assert!((e.total_joules() - 0.16).abs() < 1e-6);
    }
}
