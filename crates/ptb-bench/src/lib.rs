//! # ptb-bench
//!
//! Experiment harness for the HPCA'22 PTB reproduction: utilities shared
//! by the per-figure/table binaries in `src/bin/` (see DESIGN.md §6 for
//! the experiment index) and by the Criterion benches.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backoff;
pub mod cache;
pub mod failpoint;
pub mod harness;
pub mod plot;
pub mod sync;
pub mod worklist;

pub use cache::{ActivityCache, ActivityKey, CacheBudget, CacheMode, CacheStats};
pub use harness::{
    assemble, merge_shards, network_reports, pool_size, run_layer, shard_identity_bytes, shard_key,
    sweep_reports, sweep_rows, LayerRun, RunOptions, SweepRow,
};
pub use worklist::{Item, WorkList};
