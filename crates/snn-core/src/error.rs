//! Error types shared across the SNN substrate.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Convenience alias for results produced by this crate.
pub type Result<T> = std::result::Result<T, SnnError>;

/// Errors raised while constructing or simulating spiking networks.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SnnError {
    /// A layer shape parameter is inconsistent (e.g. the filter is larger
    /// than the input feature map, or the stride does not evenly divide).
    InvalidShape {
        /// Human-readable description of the violated constraint.
        reason: String,
    },
    /// An input tensor's neuron count or timestep count does not match
    /// what the consumer expects.
    DimensionMismatch {
        /// What the consumer expected.
        expected: usize,
        /// What was supplied.
        actual: usize,
        /// Which dimension mismatched ("neurons", "timesteps", ...).
        what: &'static str,
    },
    /// An index was out of bounds for the addressed structure.
    IndexOutOfBounds {
        /// The offending index.
        index: usize,
        /// The exclusive bound it violated.
        len: usize,
        /// Which structure was indexed.
        what: &'static str,
    },
    /// A configuration value is outside its legal range.
    InvalidConfig {
        /// Human-readable description of the violated constraint.
        reason: String,
    },
}

impl fmt::Display for SnnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnnError::InvalidShape { reason } => {
                write!(f, "invalid layer shape: {reason}")
            }
            SnnError::DimensionMismatch {
                expected,
                actual,
                what,
            } => write!(
                f,
                "dimension mismatch on {what}: expected {expected}, got {actual}"
            ),
            SnnError::IndexOutOfBounds { index, len, what } => {
                write!(f, "index {index} out of bounds for {what} of length {len}")
            }
            SnnError::InvalidConfig { reason } => {
                write!(f, "invalid configuration: {reason}")
            }
        }
    }
}

impl std::error::Error for SnnError {}

impl SnnError {
    /// Builds an [`SnnError::InvalidShape`] from anything displayable.
    pub fn invalid_shape(reason: impl fmt::Display) -> Self {
        SnnError::InvalidShape {
            reason: reason.to_string(),
        }
    }

    /// Builds an [`SnnError::InvalidConfig`] from anything displayable.
    pub fn invalid_config(reason: impl fmt::Display) -> Self {
        SnnError::InvalidConfig {
            reason: reason.to_string(),
        }
    }
}

/// A divergence detected by the runtime audit layer
/// (`ptb_accel::audit`): the simulation's accounting or dynamics
/// disagreed with an independent recomputation.
///
/// Every variant carries the *first-divergence coordinates* so a
/// finding can be traced to a concrete (layer, neuron, timestep) —
/// an audit failure is a typed report, never a panic. The type is
/// serializable so findings survive the `ptb-serve` job path and can
/// be surfaced in `/jobs/{id}` responses.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum AuditError {
    /// Replaying one post-synaptic neuron through the serial reference
    /// dynamics produced a different output spike train than the
    /// batched Step A / Step B decomposition.
    ReplayDivergence {
        /// Layer name.
        layer: String,
        /// Output-channel index of the replayed neuron.
        neuron: usize,
        /// First timestep at which the trains differ.
        timestep: usize,
        /// What the serial reference produced at that timestep.
        expected: bool,
        /// What the batched path produced.
        got: bool,
    },
    /// A per-(neuron, window) spike count table disagreed with counts
    /// re-derived from the raw spike tensor.
    PopcountMismatch {
        /// Layer name.
        layer: String,
        /// Pre-synaptic neuron index.
        neuron: usize,
        /// Time-window index.
        window: usize,
        /// Popcount re-derived from the raw tensor.
        expected: u16,
        /// Popcount the table held.
        got: u16,
    },
    /// The window partition's column tiles do not cover every time
    /// window exactly once: some (post-neuron, TW) tile would be
    /// scheduled `count` times instead of once.
    TileCoverage {
        /// Layer name.
        layer: String,
        /// The window with wrong coverage.
        window: usize,
        /// How many column tiles claimed it.
        count: usize,
    },
    /// StSAP paired two entries whose TB-tags overlap (they would
    /// contend for the same streaming slot in the same window).
    PackingOverlap {
        /// Layer name.
        layer: String,
        /// Column-tile index within the window partition.
        tile: usize,
        /// First entry of the offending pair.
        first: usize,
        /// Second entry of the offending pair.
        second: usize,
    },
    /// StSAP packing lost or duplicated an entry: an input entry was
    /// covered `count` times instead of exactly once.
    PackingCoverage {
        /// Layer name.
        layer: String,
        /// Column-tile index within the window partition.
        tile: usize,
        /// The entry with wrong coverage.
        entry: usize,
        /// How many slots referenced it.
        count: usize,
    },
    /// StSAP slot accounting is inconsistent:
    /// `entries_after + pairs != entries_before`.
    SlotAccounting {
        /// Layer name.
        layer: String,
        /// Column-tile index within the window partition.
        tile: usize,
        /// Entries before packing.
        before: u64,
        /// Slots after packing.
        after: u64,
        /// Pairs formed.
        pairs: u64,
    },
    /// The production report disagreed with the oracle's serial
    /// per-tap simulation of the same layer (`ptb_accel`'s
    /// `simulate_layer_reference`): the production kernel diverged.
    ReferenceDivergence {
        /// Layer name.
        layer: String,
    },
    /// An energy/latency/tally accumulator saturated instead of
    /// wrapping: totals are a lower bound, not exact.
    AccumulatorSaturation {
        /// Layer name.
        layer: String,
        /// Number of saturated additions observed.
        saturated: u64,
    },
    /// Cached activity disagreed with a fresh regeneration: a bit
    /// flipped somewhere between generation and consumption.
    CorruptActivity {
        /// Layer name.
        layer: String,
        /// Pre-synaptic neuron index.
        neuron: usize,
        /// First timestep at which the tensors differ.
        timestep: usize,
        /// The freshly regenerated bit.
        expected: bool,
        /// The bit the cached tensor held.
        got: bool,
    },
    /// A sweep row recovered from a journal disagreed with an
    /// independent recomputation of the same shard.
    RowMismatch {
        /// Shard index of the row within its sweep.
        index: usize,
        /// Time-window size of the row.
        tw: u32,
    },
}

impl fmt::Display for AuditError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AuditError::ReplayDivergence {
                layer,
                neuron,
                timestep,
                expected,
                got,
            } => write!(
                f,
                "replay divergence in layer {layer}: neuron {neuron} at timestep \
                 {timestep} expected {expected}, got {got}"
            ),
            AuditError::PopcountMismatch {
                layer,
                neuron,
                window,
                expected,
                got,
            } => write!(
                f,
                "popcount mismatch in layer {layer}: neuron {neuron} window {window} \
                 expected {expected}, got {got}"
            ),
            AuditError::TileCoverage {
                layer,
                window,
                count,
            } => write!(
                f,
                "tile coverage in layer {layer}: window {window} scheduled {count} times"
            ),
            AuditError::PackingOverlap {
                layer,
                tile,
                first,
                second,
            } => write!(
                f,
                "packing overlap in layer {layer} tile {tile}: entries {first} and \
                 {second} share a window"
            ),
            AuditError::PackingCoverage {
                layer,
                tile,
                entry,
                count,
            } => write!(
                f,
                "packing coverage in layer {layer} tile {tile}: entry {entry} covered \
                 {count} times"
            ),
            AuditError::SlotAccounting {
                layer,
                tile,
                before,
                after,
                pairs,
            } => write!(
                f,
                "slot accounting in layer {layer} tile {tile}: {after} slots + {pairs} \
                 pairs != {before} entries"
            ),
            AuditError::ReferenceDivergence { layer } => write!(
                f,
                "reference divergence in layer {layer}: report differs from the \
                 serial reference simulation"
            ),
            AuditError::AccumulatorSaturation { layer, saturated } => write!(
                f,
                "accumulator saturation in layer {layer}: {saturated} additions clamped"
            ),
            AuditError::CorruptActivity {
                layer,
                neuron,
                timestep,
                expected,
                got,
            } => write!(
                f,
                "corrupt activity in layer {layer}: neuron {neuron} at timestep \
                 {timestep} expected {expected}, got {got}"
            ),
            AuditError::RowMismatch { index, tw } => write!(
                f,
                "journaled sweep row {index} (tw {tw}) differs from recomputation"
            ),
        }
    }
}

impl std::error::Error for AuditError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_concise() {
        let e = SnnError::invalid_shape("filter larger than ifmap");
        assert_eq!(
            e.to_string(),
            "invalid layer shape: filter larger than ifmap"
        );
        let e = SnnError::DimensionMismatch {
            expected: 4,
            actual: 7,
            what: "neurons",
        };
        assert_eq!(
            e.to_string(),
            "dimension mismatch on neurons: expected 4, got 7"
        );
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync + std::error::Error>() {}
        assert_send_sync::<SnnError>();
    }

    #[test]
    fn index_out_of_bounds_display() {
        let e = SnnError::IndexOutOfBounds {
            index: 10,
            len: 5,
            what: "spike tensor neurons",
        };
        assert!(e.to_string().contains("index 10"));
        assert!(e.to_string().contains("length 5"));
    }

    #[test]
    fn audit_error_display_names_coordinates() {
        let e = AuditError::ReplayDivergence {
            layer: "CONV1".to_string(),
            neuron: 7,
            timestep: 42,
            expected: true,
            got: false,
        };
        let s = e.to_string();
        assert!(s.contains("CONV1"), "{s}");
        assert!(s.contains("neuron 7"), "{s}");
        assert!(s.contains("timestep 42"), "{s}");
        let e = AuditError::RowMismatch { index: 3, tw: 16 };
        assert!(e.to_string().contains("row 3"));
    }

    #[test]
    fn audit_error_is_send_sync_error() {
        fn assert_send_sync<T: Send + Sync + std::error::Error>() {}
        assert_send_sync::<AuditError>();
    }

    #[test]
    fn audit_error_round_trips_through_json() {
        let e = AuditError::PopcountMismatch {
            layer: "FC1".to_string(),
            neuron: 11,
            window: 2,
            expected: 5,
            got: 6,
        };
        let json = serde_json::to_string(&e).expect("serialize");
        let back: AuditError = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back, e);
    }
}
