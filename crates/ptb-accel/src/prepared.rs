//! Reusable per-layer simulation state for incremental re-simulation.
//!
//! A TW or policy sweep re-simulates the same `(shape, activity)` pair
//! many times. The whole report of a TW-invariant policy
//! ([`Policy::tw_invariant`]: the dense baseline \[14\], time-serial,
//! event-driven, ANN) depends on the activity and the arch/energy model
//! only — it is invariant across *TW sizes*.
//!
//! A [`PreparedLayer`] owns the shape and the activity tensor and
//! memoizes those reports, so a TW-invariant policy is simulated once
//! per layer however many TW points ask for it
//! ([`PreparedLayer::simulate_memoized`]). It holds nothing else: every
//! scan derives its receptive fields from the shape's box spans
//! ([`crate::geom::BoxScan`]) and fills its planes from the tensor's
//! packed `u64` time words on every call.
//!
//! ## Determinism
//!
//! Every memoized report is a *pure function* of the tensor and shape
//! the `PreparedLayer` was constructed with, plus its key — the memo
//! only skips recomputation, never changes a value. Consequently
//! [`PreparedLayer::simulate_memoized`] returns reports bit-identical to
//! [`crate::sim::simulate_layer`] on the same `(shape, input)`, for
//! every policy, TW size, and thread count;
//! `prepared_reports_match_fresh_for_every_policy` and the
//! TW-invariance tests pin this.
//!
//! [`crate::sim::simulate_layer`] itself never reads or fills the report
//! memo: it stays a real computation, which is what audits (and the
//! merge-invariance check in [`crate::audit`]) rely on.

use std::sync::{Arc, Mutex, OnceLock};

use snn_core::shape::ConvShape;
use snn_core::spike::SpikeTensor;

use crate::config::{Policy, SimInputs};
use crate::report::LayerReport;
use crate::sim::simulate_layer;

/// One layer's simulation-ready state: the input activity plus the
/// memoized reports of TW-invariant policies. Cheap to share across
/// threads and sweep points via [`Arc`]; all interior mutability is
/// memoization only.
#[derive(Debug)]
pub struct PreparedLayer {
    shape: ConvShape,
    spikes: Arc<SpikeTensor>,
    /// Reports of TW-invariant policies, keyed by the policy and the
    /// normalized [`SimInputs`] ([`report_key`]). Holds entries for one
    /// arch/energy model at a time — a key with a different model
    /// replaces them — so it is bounded by the four invariant policies,
    /// each entry one [`LayerReport`] (well under a kilobyte). Each
    /// entry's cell is filled outside the map lock, and concurrent
    /// callers of one entry wait on that cell instead of simulating
    /// twice.
    reports: Mutex<Vec<ReportEntry>>,
}

/// One report-memo entry: its key and the report cell.
type ReportEntry = (Policy, SimInputs, Arc<OnceLock<LayerReport>>);

/// The report-memo key of `inputs`: the TW size is normalized to 1,
/// because it does not change a TW-invariant policy's report. The arch and energy model stay, so a run under a different
/// model never hits an entry computed for another.
fn report_key(inputs: &SimInputs) -> SimInputs {
    SimInputs {
        tw_size: 1,
        ..*inputs
    }
}

impl PreparedLayer {
    /// Wraps `spikes` as the activity of a layer shaped `shape`.
    ///
    /// # Panics
    ///
    /// Panics if the tensor's neuron count does not match the shape's
    /// ifmap, or the period is zero — the same preconditions
    /// [`crate::sim::simulate_layer`] asserts.
    pub fn new(shape: ConvShape, spikes: Arc<SpikeTensor>) -> Self {
        assert_eq!(
            spikes.neurons(),
            shape.ifmap_neurons(),
            "activity tensor must match the layer's ifmap"
        );
        assert!(spikes.timesteps() > 0, "operational period must be nonzero");
        PreparedLayer {
            shape,
            spikes,
            reports: Mutex::new(Vec::new()),
        }
    }

    /// The layer shape this state was prepared for.
    pub fn shape(&self) -> ConvShape {
        self.shape
    }

    /// The input spike activity.
    pub fn spikes(&self) -> &Arc<SpikeTensor> {
        &self.spikes
    }

    /// The report of `policy` under `inputs`, bit-identical to
    /// [`simulate_layer`]`(inputs, policy, self.shape(), self.spikes())`.
    ///
    /// A TW-invariant policy ([`Policy::tw_invariant`]) is simulated
    /// once per (policy, arch, energy model) and its report reused for
    /// every later TW size and thread count; PTB policies are simulated
    /// on every call. Two threads asking for the same missing entry
    /// simulate it once: the second waits for the first's result.
    ///
    /// Audited runs must call [`simulate_layer`] instead, so an
    /// audit always checks a fresh computation, never a memoized one.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` is invalid.
    pub fn simulate_memoized(&self, inputs: &SimInputs, policy: Policy) -> LayerReport {
        if !policy.tw_invariant() {
            return simulate_layer(inputs, policy, self.shape, &self.spikes);
        }
        inputs.assert_valid();
        let key = report_key(inputs);
        let cell = {
            let mut memo = self.reports.lock().expect("report memo lock");
            match memo.iter().find(|(p, k, _)| *p == policy && *k == key) {
                Some((_, _, cell)) => Arc::clone(cell),
                None => {
                    memo.retain(|(_, k, _)| *k == key);
                    let cell = Arc::new(OnceLock::new());
                    memo.push((policy, key, Arc::clone(&cell)));
                    cell
                }
            }
        };
        cell.get_or_init(|| simulate_layer(inputs, policy, self.shape, &self.spikes))
            .clone()
    }

    /// Number of reports currently memoized by
    /// [`PreparedLayer::simulate_memoized`] (exposed for tests; never
    /// exceeds the number of TW-invariant policies).
    pub fn memoized_reports(&self) -> usize {
        self.reports
            .lock()
            .expect("report memo lock")
            .iter()
            .filter(|(_, _, cell)| cell.get().is_some())
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn prep() -> PreparedLayer {
        let shape = ConvShape::new(6, 3, 2, 4, 1).unwrap();
        let spikes = SpikeTensor::from_fn(shape.ifmap_neurons(), 40, |n, t| (n + 3 * t) % 7 == 0);
        PreparedLayer::new(shape, Arc::new(spikes))
    }

    const INVARIANT: [Policy; 4] = [
        Policy::BaselineTemporal,
        Policy::TimeSerial,
        Policy::EventDriven,
        Policy::Ann,
    ];

    #[test]
    fn memoized_reports_match_fresh_simulation_at_every_tw() {
        let p = prep();
        for tw in [1u32, 3, 8, 64] {
            let inputs = SimInputs::hpca22(tw);
            for policy in INVARIANT.into_iter().chain([Policy::ptb_with_stsap()]) {
                let fresh = crate::sim::simulate_layer(&inputs, policy, p.shape(), p.spikes());
                assert_eq!(
                    p.simulate_memoized(&inputs, policy),
                    fresh,
                    "{} tw={tw}",
                    policy.label()
                );
            }
        }
        // One entry per invariant policy; PTB is never memoized.
        assert_eq!(p.memoized_reports(), INVARIANT.len());
    }

    #[test]
    fn a_different_energy_model_never_hits_a_stale_entry() {
        let p = prep();
        let paper = SimInputs::hpca22(8);
        let base = p.simulate_memoized(&paper, Policy::BaselineTemporal);
        let mut cheap_dram = paper;
        cheap_dram.energy.dram_pj_per_byte /= 2.0;
        let other = p.simulate_memoized(&cheap_dram, Policy::BaselineTemporal);
        assert_ne!(other, base, "the energy model must be part of the key");
        assert_eq!(
            other,
            crate::sim::simulate_layer(
                &cheap_dram,
                Policy::BaselineTemporal,
                p.shape(),
                p.spikes()
            )
        );
        // One model at a time: the new key replaced the old entry.
        assert_eq!(p.memoized_reports(), 1);
        assert_eq!(p.simulate_memoized(&paper, Policy::BaselineTemporal), base);
    }

    #[test]
    fn concurrent_callers_share_one_entry() {
        let p = prep();
        let reports: Vec<LayerReport> = std::thread::scope(|scope| {
            let handles: Vec<_> = [1u32, 8]
                .into_iter()
                .map(|tw| {
                    let p = &p;
                    scope.spawn(move || {
                        p.simulate_memoized(&SimInputs::hpca22(tw), Policy::EventDriven)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(reports[0], reports[1]);
        assert_eq!(p.memoized_reports(), 1);
    }

    /// A memo entry that disagrees with the simulator (planted here,
    /// since a correct memo never does) shows which paths read it:
    /// `simulate_memoized` serves it, while `simulate_layer` and the
    /// Full audit's reference diff recompute.
    #[test]
    fn audits_and_prepared_simulation_never_read_the_memo() {
        use crate::audit::{audit_layer, AuditLevel, AuditSummary};
        use snn_core::error::AuditError;

        let p = prep();
        let inputs = SimInputs::hpca22(8);
        let policy = Policy::BaselineTemporal;
        let truth = simulate_layer(&inputs, policy, p.shape(), p.spikes());
        assert_eq!(p.memoized_reports(), 0, "simulate_layer fills no memo");
        let mut planted = truth.clone();
        planted.cycles += 1;
        let cell = Arc::new(OnceLock::from(planted.clone()));
        p.reports
            .lock()
            .unwrap()
            .push((policy, report_key(&inputs), cell));

        assert_eq!(p.simulate_memoized(&inputs, policy), planted);
        assert_eq!(
            simulate_layer(&inputs, policy, p.shape(), p.spikes()),
            truth
        );

        let mut clean = AuditSummary::new(AuditLevel::Full);
        audit_layer(
            &inputs,
            policy,
            &p,
            "L",
            &truth,
            AuditLevel::Full,
            &mut clean,
        );
        assert!(clean.is_clean(), "{:?}", clean.first());
        let mut caught = AuditSummary::new(AuditLevel::Full);
        audit_layer(
            &inputs,
            policy,
            &p,
            "L",
            &planted,
            AuditLevel::Full,
            &mut caught,
        );
        assert!(
            caught
                .findings
                .iter()
                .any(|f| matches!(f, AuditError::ReferenceDivergence { .. })),
            "the reference diff must compare against a recomputation: {:?}",
            caught.findings
        );
    }

    #[test]
    #[should_panic]
    fn mismatched_tensor_rejected() {
        let shape = ConvShape::new(6, 3, 2, 4, 1).unwrap();
        PreparedLayer::new(shape, Arc::new(SpikeTensor::new(3, 8)));
    }
}
