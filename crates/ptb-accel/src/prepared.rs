//! Reusable per-layer simulation state for incremental re-simulation.
//!
//! A TW or policy sweep re-simulates the same `(shape, activity)` pair
//! many times, but most of what [`crate::sim::simulate_layer`] derives
//! from that pair is invariant across the sweep:
//!
//! * the receptive-field geometry ([`LayerGeometry`]) depends only on
//!   the shape — it never changes across TW *or* policy;
//! * the per-(neuron, window) popcount table
//!   ([`crate::geom::window_popcounts`]) and its packed window-activity
//!   tag words ([`crate::geom::window_tags`]) depend on the activity
//!   and the TW size — invariant across *policies* at a fixed TW;
//! * the whole report of a TW-invariant policy
//!   ([`Policy::tw_invariant`]: the dense baseline \[14\], time-serial,
//!   event-driven, ANN) depends on the activity and the arch/energy
//!   model only — invariant across *TW sizes*.
//!
//! A [`PreparedLayer`] owns the activity tensor and memoizes all three,
//! so a sweep rebuilds only what its changed axis actually invalidates:
//! changing the policy rebuilds nothing, changing TW rebuilds only the
//! popcount/tag tables for the new window size (the schedule is
//! re-derived inside the simulator as always), and a TW-invariant
//! policy is simulated once per layer however many TW points ask for
//! it ([`PreparedLayer::simulate_memoized`]). The bit-parallel kernel
//! reads the activity's packed `u64` time words straight from the
//! tensor, so no dense per-point table is memoized.
//!
//! ## Determinism
//!
//! Every memoized table and report is a *pure function* of the tensor
//! and shape the `PreparedLayer` was constructed with (plus, for a
//! report, its key) — the memo only skips recomputation, never changes
//! a value. Consequently [`crate::sim::simulate_layer_prepared`] and
//! [`PreparedLayer::simulate_memoized`] return reports bit-identical to
//! [`crate::sim::simulate_layer`] on the same `(shape, input)`, for
//! every policy, TW size, and thread count; `prepared_matches_fresh`
//! and the TW-invariance tests pin this.
//!
//! [`crate::sim::simulate_layer_prepared`] itself never reads or fills
//! the report memo: it stays a real computation, which is what audits
//! (and the merge-invariance check in [`crate::audit`]) rely on.

use std::sync::{Arc, Mutex, OnceLock};

use snn_core::shape::ConvShape;
use snn_core::spike::SpikeTensor;

use crate::config::{Policy, SimInputs};
use crate::geom::{window_popcounts, window_tags, LayerGeometry};
use crate::report::LayerReport;
use crate::sim::simulate_layer_prepared;
use crate::window::WindowPartition;

/// One layer's simulation-ready state: the input activity plus lazily
/// built, memoized derived tables (geometry, per-TW window popcounts
/// and packed window tags) and the reports of TW-invariant policies.
/// Cheap to share across threads and sweep points via [`Arc`]; all
/// interior mutability is memoization only.
#[derive(Debug)]
pub struct PreparedLayer {
    shape: ConvShape,
    spikes: Arc<SpikeTensor>,
    geo: OnceLock<Arc<LayerGeometry>>,
    /// Window popcount + tag tables keyed by TW size, most recent last.
    /// The activity and period are fixed at construction, so TW size
    /// alone identifies a table pair. Bounded to [`POPCOUNT_MEMO_CAP`]
    /// entries (FIFO eviction): a popcount table costs
    /// `neurons · ceil(T/TWS) · 2` bytes — ~90 MB for AlexNet CONV1 at
    /// TWS = 1 — so holding a full 7-point TW sweep per layer would
    /// dominate memory for no benefit (sweeps revisit at most the
    /// current and neighboring TW sizes).
    pops: Mutex<Vec<(usize, WindowTables)>>,
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

/// The report-memo key of `inputs`: the TW size and worker count are
/// normalized to 1, because neither changes a TW-invariant policy's
/// report. The arch and energy model stay, so a run under a different
/// model never hits an entry computed for another.
fn report_key(inputs: &SimInputs) -> SimInputs {
    SimInputs {
        tw_size: 1,
        threads: 1,
        ..*inputs
    }
}

/// The pair of per-TW derived tables the simulator consumes: the
/// per-(neuron, window) spike counts and the bit-packed window-activity
/// tags the bit-parallel gather scans (64 windows per word).
#[derive(Debug, Clone)]
pub struct WindowTables {
    /// Per-(neuron, window) spike counts ([`crate::geom::window_popcounts`]).
    pub pops: Arc<Vec<u16>>,
    /// Packed per-neuron window-activity bits ([`crate::geom::window_tags`]).
    pub tags: Arc<Vec<u64>>,
}

/// Maximum distinct TW sizes memoized per layer (see
/// [`PreparedLayer::window_popcounts`]).
pub const POPCOUNT_MEMO_CAP: usize = 4;

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
            geo: OnceLock::new(),
            pops: Mutex::new(Vec::new()),
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

    /// The receptive-field geometry, built on first use and shared
    /// thereafter (TW- and policy-invariant).
    pub fn geometry(&self) -> Arc<LayerGeometry> {
        self.geo
            .get_or_init(|| Arc::new(LayerGeometry::new(self.shape)))
            .clone()
    }

    /// The per-(neuron, window) popcount table for windows of `tw_size`
    /// time points (see [`PreparedLayer::window_tables`]).
    ///
    /// # Panics
    ///
    /// Panics if `tw_size` is zero (via [`WindowPartition::new`]).
    pub fn window_popcounts(&self, tw_size: usize) -> Arc<Vec<u16>> {
        self.window_tables(tw_size).pops
    }

    /// The popcount + packed-tag table pair for windows of `tw_size`
    /// time points, built on first use per TW size (at most
    /// [`POPCOUNT_MEMO_CAP`] sizes retained, oldest evicted first).
    /// Changing only the TW therefore costs at most one popcount/tag
    /// pass — the activity tensor and geometry are reused as-is.
    ///
    /// # Panics
    ///
    /// Panics if `tw_size` is zero (via [`WindowPartition::new`]).
    pub fn window_tables(&self, tw_size: usize) -> WindowTables {
        if let Some((_, hit)) = self
            .pops
            .lock()
            .expect("popcount memo lock")
            .iter()
            .find(|(tw, _)| *tw == tw_size)
        {
            return hit.clone();
        }
        // Build outside the lock: popcount passes over big layers are
        // slow, and concurrent callers ask for *different* TW sizes in
        // practice (one sweep point at a time). A racing duplicate for
        // the same TW computes an identical table; first insert wins.
        let part = WindowPartition::new(self.spikes.timesteps(), tw_size);
        let pops = Arc::new(window_popcounts(&self.spikes, &part));
        let tags = Arc::new(window_tags(&self.spikes, &part, &pops));
        let built = WindowTables { pops, tags };
        let mut memo = self.pops.lock().expect("popcount memo lock");
        if let Some((_, hit)) = memo.iter().find(|(tw, _)| *tw == tw_size) {
            return hit.clone();
        }
        if memo.len() == POPCOUNT_MEMO_CAP {
            memo.remove(0);
        }
        memo.push((tw_size, built.clone()));
        built
    }

    /// Number of distinct TW sizes currently holding a memoized
    /// popcount table (exposed for cache accounting and tests; never
    /// exceeds [`POPCOUNT_MEMO_CAP`]).
    pub fn memoized_tw_sizes(&self) -> usize {
        self.pops.lock().expect("popcount memo lock").len()
    }

    /// The report of `policy` under `inputs`, bit-identical to
    /// [`simulate_layer_prepared`]`(inputs, policy, self)`.
    ///
    /// A TW-invariant policy ([`Policy::tw_invariant`]) is simulated
    /// once per (policy, arch, energy model) and its report reused for
    /// every later TW size and thread count; PTB policies are simulated
    /// on every call. Two threads asking for the same missing entry
    /// simulate it once: the second waits for the first's result.
    ///
    /// Audited runs must call [`simulate_layer_prepared`] instead, so an
    /// audit always checks a fresh computation, never a memoized one.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` is invalid.
    pub fn simulate_memoized(&self, inputs: &SimInputs, policy: Policy) -> LayerReport {
        if !policy.tw_invariant() {
            return simulate_layer_prepared(inputs, policy, self);
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
        cell.get_or_init(|| simulate_layer_prepared(inputs, policy, self))
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

    #[test]
    fn memoized_tables_match_fresh_computation() {
        let p = prep();
        let geo = LayerGeometry::new(p.shape());
        assert_eq!(p.geometry().rf_total(), geo.rf_total());
        assert_eq!(p.geometry().positions(), geo.positions());
        for tw in [1usize, 4, 8, 64] {
            let part = WindowPartition::new(40, tw);
            let pops = window_popcounts(p.spikes(), &part);
            let tbl = p.window_tables(tw);
            assert_eq!(*tbl.pops, pops);
            assert_eq!(*tbl.tags, window_tags(p.spikes(), &part, &pops));
            assert_eq!(*p.window_popcounts(tw), pops);
        }
        assert_eq!(p.memoized_tw_sizes(), 4);
    }

    #[test]
    fn repeated_lookups_share_one_table() {
        let p = prep();
        let a = p.window_popcounts(8);
        let b = p.window_popcounts(8);
        assert!(Arc::ptr_eq(&a, &b), "same TW must share one table");
        assert!(
            Arc::ptr_eq(&p.window_tables(8).tags, &p.window_tables(8).tags),
            "same TW must share one tag table"
        );
        assert_eq!(p.memoized_tw_sizes(), 1);
        assert!(Arc::ptr_eq(&p.geometry(), &p.geometry()));
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
            for threads in [1usize, 2] {
                let inputs = SimInputs::hpca22(tw).with_threads(threads);
                for policy in INVARIANT.into_iter().chain([Policy::ptb_with_stsap()]) {
                    let fresh = crate::sim::simulate_layer(&inputs, policy, p.shape(), p.spikes());
                    assert_eq!(
                        p.simulate_memoized(&inputs, policy),
                        fresh,
                        "{} tw={tw} threads={threads}",
                        policy.label()
                    );
                }
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
    /// `simulate_memoized` serves it, while `simulate_layer_prepared`
    /// and the Full audit's merge-invariance check recompute.
    #[test]
    fn audits_and_prepared_simulation_never_read_the_memo() {
        use crate::audit::{audit_layer, AuditLevel, AuditSummary};
        use snn_core::error::AuditError;

        let p = prep();
        let inputs = SimInputs::hpca22(8);
        let policy = Policy::BaselineTemporal;
        let truth = simulate_layer_prepared(&inputs, policy, &p);
        assert_eq!(p.memoized_reports(), 0, "prepared simulation fills no memo");
        let mut planted = truth.clone();
        planted.cycles += 1;
        let cell = Arc::new(OnceLock::from(planted.clone()));
        p.reports
            .lock()
            .unwrap()
            .push((policy, report_key(&inputs), cell));

        assert_eq!(p.simulate_memoized(&inputs, policy), planted);
        assert_eq!(simulate_layer_prepared(&inputs, policy, &p), truth);

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
                .any(|f| matches!(f, AuditError::MergeDivergence { .. })),
            "the merge check must compare against a recomputation: {:?}",
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
