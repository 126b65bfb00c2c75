//! Simulator inputs (Table III of the paper) and scheduling policies.

use serde::{Deserialize, Serialize};
use systolic_sim::{ArchConfig, EnergyModel};

/// Which accelerator/schedule to simulate.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Policy {
    /// The paper's contribution: parallel time batching, optionally with
    /// StSAP packing of non-bursting neurons.
    Ptb {
        /// Enable StSAP pair packing (Section IV-D).
        stsap: bool,
    },
    /// The paper's evaluation baseline \[14\]: temporal tiling across the
    /// array columns (each column one time point), dense streaming with
    /// no sparsity handling, weights refetched per column group.
    BaselineTemporal,
    /// The conventional time-serial SNN accelerator (Fig. 7a): one time
    /// point at a time, columns used spatially, weights refetched every
    /// time point ("alternating access").
    TimeSerial,
    /// A non-spiking ANN accelerator running the same layer once with
    /// dense 8-bit activations and MAC PEs (the Fig. 12(b) comparator).
    Ann,
    /// An event-driven time-serial SNN accelerator in the
    /// Minitaur/TrueNorth class (\[15, 34, 35\], Table II's "Ref*"):
    /// processes one time point at a time, fetches weights and inputs
    /// only for neurons that actually fire (limited sparsity handling)
    /// but has no temporal parallelism and refetches a neuron's weights
    /// at every time point it fires — the weight-amortization foil for
    /// the Fig. 12(b) sparsity-scaling study.
    EventDriven,
}

impl Policy {
    /// PTB without StSAP.
    pub fn ptb() -> Self {
        Policy::Ptb { stsap: false }
    }

    /// PTB with StSAP packing.
    pub fn ptb_with_stsap() -> Self {
        Policy::Ptb { stsap: true }
    }

    /// Short display label.
    pub fn label(&self) -> &'static str {
        match self {
            Policy::Ptb { stsap: false } => "PTB",
            Policy::Ptb { stsap: true } => "PTB+StSAP",
            Policy::BaselineTemporal => "baseline[14]",
            Policy::TimeSerial => "time-serial",
            Policy::Ann => "ANN",
            Policy::EventDriven => "event-driven",
        }
    }

    /// Every policy, in the canonical comparison order used by the
    /// experiment binaries and the service.
    pub fn all() -> [Policy; 6] {
        [
            Policy::ptb(),
            Policy::ptb_with_stsap(),
            Policy::BaselineTemporal,
            Policy::TimeSerial,
            Policy::Ann,
            Policy::EventDriven,
        ]
    }

    /// Whether this policy's report is independent of
    /// [`SimInputs::tw_size`]. Only PTB batches time points into
    /// windows; the dense baseline \[14\] tiles `cols` consecutive time
    /// points whatever the TW size, the time-serial and event-driven
    /// accelerators walk one time point at a time, and the ANN has no
    /// time axis. Each of those four reports `tw_size: 1` and is a pure
    /// function of the layer and the arch/energy model, which is what
    /// lets [`crate::PreparedLayer::simulate_memoized`] simulate it
    /// once per layer instead of once per sweep point.
    pub fn tw_invariant(&self) -> bool {
        // Exhaustive on purpose: a new policy must choose a side.
        match self {
            Policy::Ptb { .. } => false,
            Policy::BaselineTemporal | Policy::TimeSerial | Policy::EventDriven | Policy::Ann => {
                true
            }
        }
    }

    /// Parses a [`Policy::label`] string back into a policy
    /// (case-insensitive). `None` for unrecognized labels, so callers
    /// taking labels from the outside (CLI flags, service requests) can
    /// reject them with a proper error instead of a panic.
    pub fn from_label(label: &str) -> Option<Self> {
        Self::all()
            .into_iter()
            .find(|p| p.label().eq_ignore_ascii_case(label))
    }
}

/// The user-specified simulator inputs of Table III: architecture
/// configuration, memory configuration (inside [`ArchConfig`]), energy
/// constants, and the time-window size.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SimInputs {
    /// Array and memory configuration (Table IV).
    pub arch: ArchConfig,
    /// Per-access energy constants.
    pub energy: EnergyModel,
    /// Time-window size `TWS` (1 = per-time-point processing).
    pub tw_size: u32,
    /// Worker threads for the simulator's position scan. `1` (the
    /// default) is the serial walk; any value produces a bit-identical
    /// [`crate::report::LayerReport`] because the scan only accumulates
    /// integer tallies, merged in chunk order (see `sim` module docs).
    pub threads: usize,
}

impl SimInputs {
    /// The paper's default setup (Table IV architecture, 32 nm energies)
    /// at the given time-window size.
    ///
    /// # Panics
    ///
    /// Panics if `tw_size` is outside `1..=64` or exceeds the PE
    /// scratchpad's psum capacity.
    pub fn hpca22(tw_size: u32) -> Self {
        let inputs = SimInputs {
            arch: ArchConfig::hpca22(),
            energy: EnergyModel::cacti_32nm(),
            tw_size,
            threads: 1,
        };
        inputs.assert_valid();
        inputs
    }

    /// Returns a copy that fans the simulator's position scan across
    /// `threads` workers. Reports are identical for every thread count.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn with_threads(mut self, threads: usize) -> Self {
        assert!(threads >= 1, "thread count must be nonzero");
        self.threads = threads;
        self
    }

    /// Checks the time-window size against the hardware limits: one
    /// packed spike word (≤ 64 bits) and the scratchpad's psum slots.
    ///
    /// # Panics
    ///
    /// Panics on violation; construction sites call this.
    pub fn assert_valid(&self) {
        assert!(
            (1..=64).contains(&self.tw_size),
            "time-window size must be in 1..=64 (one packed spike word)"
        );
        assert!(
            u64::from(self.tw_size) <= self.arch.psum_slots(),
            "time-window size {} exceeds the scratchpad's {} psum slots",
            self.tw_size,
            self.arch.psum_slots()
        );
        assert!(self.threads >= 1, "thread count must be nonzero");
        self.arch.validate().expect("architecture must be valid");
    }

    /// The candidate TW sizes swept throughout the evaluation
    /// (Figs. 9–11): powers of two from 1 to 64.
    pub fn tw_sweep() -> [u32; 7] {
        [1, 2, 4, 8, 16, 32, 64]
    }

    /// Effective L1 capacity available to the weight partition, in bits.
    ///
    /// The L1 is double-buffered (Table IV), halving the usable space;
    /// half of that is assigned to weights, the rest to input spikes and
    /// membrane staging (the paper partitions each level per data type).
    pub fn l1_weight_capacity_bits(&self) -> u64 {
        self.arch.l1_bytes * 8 / 4
    }

    /// Effective global-buffer capacity for the weight partition, bits
    /// (double-buffered, half assigned to weights).
    pub fn gb_weight_capacity_bits(&self) -> u64 {
        self.arch.global_buffer_bytes * 8 / 4
    }

    /// Effective global-buffer capacity for input spikes, bits.
    pub fn gb_input_capacity_bits(&self) -> u64 {
        self.arch.global_buffer_bytes * 8 / 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hpca22_defaults() {
        let s = SimInputs::hpca22(8);
        assert_eq!(s.tw_size, 8);
        assert_eq!(s.arch.array.pe_count(), 128);
        assert_eq!(s.threads, 1, "default is the serial walk");
        s.assert_valid();
    }

    #[test]
    fn with_threads_sets_worker_count() {
        let s = SimInputs::hpca22(8).with_threads(4);
        assert_eq!(s.threads, 4);
        s.assert_valid();
    }

    #[test]
    #[should_panic]
    fn zero_threads_rejected() {
        SimInputs::hpca22(8).with_threads(0);
    }

    #[test]
    #[should_panic]
    fn zero_tw_rejected() {
        SimInputs::hpca22(0);
    }

    #[test]
    #[should_panic]
    fn oversized_tw_rejected() {
        SimInputs::hpca22(65);
    }

    #[test]
    fn sweep_is_sorted_powers_of_two() {
        let sweep = SimInputs::tw_sweep();
        assert!(sweep.windows(2).all(|w| w[1] == w[0] * 2));
        for tw in sweep {
            SimInputs::hpca22(tw).assert_valid();
        }
    }

    #[test]
    fn policy_labels_are_distinct() {
        let labels = [
            Policy::ptb().label(),
            Policy::ptb_with_stsap().label(),
            Policy::BaselineTemporal.label(),
            Policy::TimeSerial.label(),
            Policy::Ann.label(),
            Policy::EventDriven.label(),
        ];
        let set: std::collections::HashSet<_> = labels.iter().collect();
        assert_eq!(set.len(), labels.len());
    }

    #[test]
    fn capacity_partitions_are_quarters() {
        let s = SimInputs::hpca22(8);
        assert_eq!(s.l1_weight_capacity_bits(), 2048 * 2);
        assert_eq!(s.gb_weight_capacity_bits(), 54 * 1024 * 2);
    }
}
