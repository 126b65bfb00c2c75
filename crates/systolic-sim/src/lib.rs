//! # systolic-sim
//!
//! Analytic systolic-array and memory-hierarchy model for the PTB
//! accelerator reproduction (Section V-A/B of the paper).
//!
//! The paper evaluates its architecture with an *analytic* simulator: it
//! generates read/write traces per memory level and data type, multiplies
//! access counts by CACTI-derived per-access energies, and estimates
//! latency from the worse of compute and data-movement time under
//! double-buffered, stall-free operation. This crate provides those
//! primitives; the scheduling policies (PTB, StSAP, baselines) that
//! decide *how many* accesses happen live in `ptb-accel`.
//!
//! * [`config`] — [`config::ArchConfig`]: array geometry, buffer sizes,
//!   bandwidth, bit precisions (Table IV).
//! * [`trace`] — [`trace::AccessCounts`]: per-level, per-data-type
//!   read/write counters (in bits) plus operation counts.
//! * [`energy`] — [`energy::EnergyModel`]: CACTI-32nm-inspired per-byte
//!   access energies and per-op energies; turns counts into joules.
//! * `array` — [`array::ArrayDims`] geometry and the one latency
//!   formula every array iteration is booked with
//!   ([`array::ArrayDims::cycles`]), plus a beat-level functional
//!   systolic execution used to validate it on small cases.
//! * [`timeline`] — [`timeline::play_iteration`]: the skewed wavefront
//!   played out beat by beat, the reference that formula is checked
//!   against.
//!
//! A layer's latency is [`config::ArchConfig::layer_cycles`]: the
//! larger of its compute cycles and its DRAM transfer cycles, the
//! optimistic bound of stall-free double buffering.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod array;
pub mod config;
pub mod energy;
pub mod timeline;
pub mod trace;

pub use array::ArrayDims;
pub use config::ArchConfig;
pub use energy::{EnergyBreakdown, EnergyModel};
pub use trace::{sat_add, sat_mul, AccessCounts, DataKind, MemLevel};
