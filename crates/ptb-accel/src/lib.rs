//! # ptb-accel
//!
//! The paper's contribution: **Parallel Time Batching (PTB)** and
//! **Spatiotemporally-non-overlapping Spiking Activity Packing (StSAP)**
//! scheduling for a systolic-array SNN accelerator, plus the baseline
//! accelerators it is evaluated against (Lee, Zhang & Li, HPCA 2022).
//!
//! ## Concepts (Section IV of the paper)
//!
//! * The operational period (*time stride*, TS) is split into
//!   *time windows* (TWs) of `TWS` time points ([`window`]).
//! * One pre-synaptic neuron's activity over one TW, integrated into one
//!   post-synaptic neuron, is a *time batch* (TB) — the unit of work one
//!   PE executes. A neuron's *TB-tag* ([`tag::TbTag`]) marks which of its
//!   TWs contain any spike; all-zero tags are *silent* neurons (skipped),
//!   all-ones are *bursting*, the rest *non-bursting*.
//! * PTB maps post-synaptic neurons to array rows and consecutive TWs to
//!   array columns, so weights are reused across the TW's time points
//!   *and* across the row's PEs ([`sim`]).
//! * StSAP pairs non-bursting neurons with non-overlapping tags so two
//!   neurons share one streaming slot ([`stsap`]).
//!
//! ## Modules
//!
//! * [`tag`] — TB-tags and neuron classification.
//! * [`window`] — time-window partitioning of the operational period.
//! * [`stsap`] — the greedy complement-packing algorithm (Fig. 8).
//! * [`config`] — simulator inputs (Table III).
//! * [`geom`] — receptive fields as clipped boxes: the summed-area box
//!   sums ([`geom::BoxScan`]) that price every production scan, and the
//!   field lists and spike tables the oracle and the audit read.
//! * [`prepared`] — [`PreparedLayer`]: memoized TW-invariant reports
//!   for incremental re-simulation across TW/policy sweeps
//!   ([`PreparedLayer::simulate_memoized`] is bit-identical to
//!   [`simulate_layer`]).
//! * [`sim`] — the analytic layer simulator for PTB and the baselines
//!   (conventional time-serial, dense temporal tiling \[14\], and the
//!   non-spiking ANN accelerator of the Fig. 12(b) comparison).
//! * [`sim::oracle`] — [`simulate_layer_reference`], the serial per-tap
//!   walk of all six policies that the production kernel is pinned
//!   against.
//! * [`report`] — per-layer and per-network results: energy breakdown,
//!   latency, utilization, and EDP.
//! * `reference` — a bit-exact functional check that PTB's batched
//!   Step A / Step B decomposition (Eqs. 7–8) matches the serial
//!   reference dynamics (Eqs. 1–3).
//! * [`audit`] — the runtime audit layer (`PTB_VERIFY=off|sample|full`):
//!   re-derives structural invariants (tile coverage, window popcounts,
//!   StSAP conservation), replays sampled neurons through `reference`,
//!   and at `full` diffs each report against the oracle, reporting
//!   divergences as typed [`snn_core::error::AuditError`] findings
//!   with first-divergence coordinates.
//!
//! ## Quick start
//!
//! ```
//! use ptb_accel::config::SimInputs;
//! use ptb_accel::sim::simulate_layer;
//! use ptb_accel::config::Policy;
//! use snn_core::shape::ConvShape;
//! use snn_core::spike::SpikeTensor;
//!
//! let shape = ConvShape::new(8, 3, 4, 16, 1).unwrap();
//! let input = SpikeTensor::from_fn(shape.ifmap_neurons(), 64, |n, t| (n + t) % 13 == 0);
//! let inputs = SimInputs::hpca22(8); // TW size 8
//! let ptb = simulate_layer(&inputs, Policy::ptb_with_stsap(), shape, &input);
//! let base = simulate_layer(&inputs, Policy::BaselineTemporal, shape, &input);
//! assert!(ptb.edp() < base.edp());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod audit;
pub mod config;
pub mod geom;
pub mod optimize;
pub mod prepared;
pub mod reference;
pub mod report;
pub mod schedule;
pub mod sim;
pub mod stsap;
pub mod tag;
pub mod window;

pub use audit::{audit_layer, AuditLevel, AuditSummary};
pub use config::{Policy, SimInputs};
pub use prepared::PreparedLayer;
pub use report::{LayerReport, NetworkReport};
pub use sim::oracle::simulate_layer_reference;
pub use sim::simulate_layer;
pub use tag::{NeuronClass, TbTag};
pub use window::WindowPartition;
