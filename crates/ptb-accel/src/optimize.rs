//! Joint architectural optimization (Section VI-A): choosing the array
//! dimension and time-window size.
//!
//! The paper fixes the PE count (128) and jointly explores array shape
//! and TW size against a workload, settling on 16×8 and TW ≈ 8. This
//! module provides that search as a library API: give it layers with
//! activity and a candidate space, get the EDP-optimal configuration.
//! The per-layer TW choice Section VII suggests is read off a network's
//! TW sweep by `ptb-bench`'s `ablation_layerwise_tw`.

use snn_core::shape::ConvShape;
use snn_core::spike::SpikeTensor;
use systolic_sim::array::ArrayDims;
use systolic_sim::{ArchConfig, EnergyModel};

use crate::config::{Policy, SimInputs};
use crate::sim::simulate_layer;

/// The search space: candidate array shapes and TW sizes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SearchSpace {
    /// Candidate array geometries (all same PE count for fairness).
    pub shapes: Vec<ArrayDims>,
    /// Candidate time-window sizes.
    pub tw_sizes: Vec<u32>,
}

impl SearchSpace {
    /// The paper's space: every 128-PE factorization × TW ∈ {1..64}.
    pub fn hpca22() -> Self {
        SearchSpace {
            shapes: ArrayDims::factorizations(128),
            tw_sizes: SimInputs::tw_sweep().to_vec(),
        }
    }

    /// Restricts the space to shapes whose TW candidates fit the
    /// scratchpad of `arch`.
    pub fn feasible_tws(&self, arch: &ArchConfig) -> Vec<u32> {
        self.tw_sizes
            .iter()
            .copied()
            .filter(|&tw| u64::from(tw) <= arch.psum_slots() && tw <= 64)
            .collect()
    }
}

/// One evaluated configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct Candidate {
    /// Array geometry.
    pub shape: ArrayDims,
    /// Time-window size.
    pub tw: u32,
    /// Summed EDP over the evaluated layers (joule-seconds).
    pub edp: f64,
}

/// Result of a joint search.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchResult {
    /// The EDP-optimal configuration.
    pub best: Candidate,
    /// Every evaluated candidate, for inspection/plotting.
    pub evaluated: Vec<Candidate>,
}

/// Searches the joint space for the configuration minimizing total EDP
/// over the given `(shape, activity)` layers under `policy`.
///
/// # Panics
///
/// Panics if the space or the layer list is empty, or an activity
/// tensor mismatches its shape (propagated from the simulator).
pub fn search_joint(
    layers: &[(ConvShape, &SpikeTensor)],
    policy: Policy,
    space: &SearchSpace,
) -> SearchResult {
    assert!(!layers.is_empty(), "need at least one layer");
    assert!(
        !space.shapes.is_empty() && !space.tw_sizes.is_empty(),
        "search space must be non-empty"
    );
    let mut evaluated = Vec::new();
    for &shape in &space.shapes {
        let arch = ArchConfig::hpca22().with_array(shape);
        for &tw in &space.feasible_tws(&arch) {
            let inputs = SimInputs {
                arch,
                energy: EnergyModel::cacti_32nm(),
                tw_size: tw,
            };
            let edp: f64 = layers
                .iter()
                .map(|&(s, a)| simulate_layer(&inputs, policy, s, a).edp())
                .sum();
            evaluated.push(Candidate { shape, tw, edp });
        }
    }
    let best = evaluated
        .iter()
        .min_by(|a, b| a.edp.total_cmp(&b.edp))
        .expect("space is non-empty")
        .clone();
    SearchResult { best, evaluated }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn workload() -> (ConvShape, SpikeTensor) {
        let shape = ConvShape::new(8, 3, 8, 16, 1).unwrap();
        let input =
            SpikeTensor::from_fn(shape.ifmap_neurons(), 64, |n, t| (n * 7 + t * 3) % 11 == 0);
        (shape, input)
    }

    #[test]
    fn joint_search_prefers_balanced_shapes() {
        let (shape, input) = workload();
        let space = SearchSpace {
            shapes: vec![
                ArrayDims::new(128, 1),
                ArrayDims::new(16, 8),
                ArrayDims::new(8, 16),
                ArrayDims::new(1, 128),
            ],
            tw_sizes: vec![1, 8, 32],
        };
        let result = search_joint(&[(shape, &input)], Policy::ptb(), &space);
        assert_eq!(result.evaluated.len(), 12);
        let best_rows = result.best.shape.rows();
        assert!(
            (2..=64).contains(&best_rows),
            "extreme shape won: {}",
            result.best.shape
        );
        // The winner must actually be the minimum of the evaluated set.
        assert!(result.evaluated.iter().all(|c| c.edp >= result.best.edp));
    }

    #[test]
    fn feasible_tws_respect_scratchpad() {
        let mut arch = ArchConfig::hpca22();
        arch.potential_bits = 16; // 48 psum slots
        let space = SearchSpace::hpca22();
        let tws = space.feasible_tws(&arch);
        assert!(tws.contains(&32));
        assert!(!tws.contains(&64));
    }

    #[test]
    #[should_panic]
    fn empty_layer_list_panics() {
        search_joint(&[], Policy::ptb(), &SearchSpace::hpca22());
    }
}
