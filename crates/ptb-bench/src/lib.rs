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

pub use cache::{ActivityCache, ActivityKey, CacheBudget, CacheMode, CacheStats};
pub use harness::{
    layer_seed, merge_shards, run_network, run_network_cached, run_network_verified,
    run_network_with, shard_identity_bytes, shard_key, sweep_point, sweep_point_verified,
    sweep_summary, sweep_summary_cached, sweep_summary_verified, RunOptions, SweepRow,
};
