//! # ptb-serve
//!
//! A long-running simulation service for the PTB reproduction: an
//! HTTP/1.1 daemon (plain `std::net`, no external dependencies) that
//! keeps one [`ptb_bench::ActivityCache`] warm across requests and
//! shares it over a fixed worker pool, so interactive exploration of
//! the design space — one policy/TW point per request, or a sharded TW
//! sweep — pays for activity generation once instead of once per
//! invocation.
//!
//! ## API
//!
//! | Route | Body | Response |
//! |---|---|---|
//! | `POST /simulate` | `{"network", "policy", "tw", "quick"?, "seed"?, "deadline_ms"?, "verify"?}` | `NetworkReport` JSON |
//! | `POST /sweep` | `{"network", "policy", "tws", "quick"?, "seed"?, "background"?, "deadline_ms"?, "verify"?}` | `[SweepRow]`, or `202 {"job": id}` |
//! | `GET /jobs/{id}` | — | job status + `audit` summary + rows when done, or `"failed"` + reason |
//! | `GET /metrics` | — | counters, latency percentiles, cache + journal + audit stats |
//! | `GET /healthz` | — | `{"status": "ok"}` |
//! | `POST /shutdown` | — | responds, then drains and stops the daemon |
//!
//! `network` is a built-in name (`DVS-Gesture`, `CIFAR10-DVS`,
//! `AlexNet`, `CIFAR10`) or a full inline `NetworkSpec`; `policy` is a
//! label (`PTB+StSAP`) or serde form (`{"Ptb": {"stsap": true}}`).
//! Responses are bit-identical to the in-process harness:
//! `/simulate` to `ptb_bench::run_network_cached`, `/sweep` to
//! `ptb_bench::sweep_summary_cached` (pinned by
//! `tests/service_roundtrip.rs`).
//!
//! ## Wire codecs and connections
//!
//! `POST /simulate` and `POST /sweep` speak two codecs over one
//! engine: JSON (the default) and the compact binary `PTBW1` frame
//! format ([`wire`]), negotiated per request with
//! `Content-Type: application/x-ptbw`. Responses are bit-identical
//! across codecs by construction — both render the same
//! [`engine::Outcome`] — and `tests/codec_equivalence.rs`
//! property-tests that. Connections are kept alive by default
//! (HTTP/1.1 semantics) with request pipelining and idle timeouts;
//! `/metrics` counts reuse (`keepalive_reused`, `pipelined`) and
//! per-codec traffic (`codec_json`, `codec_bin`). The full wire
//! contract — frame layout, field tables, keep-alive and versioning
//! rules — is written down in `docs/PROTOCOL.md`.
//!
//! Background jobs are crash-safe: each is append-journaled under
//! `PTB_JOB_DIR` (checksummed records; replayed on boot so unfinished
//! jobs resume under their original ids without recomputing journaled
//! shards). Worker panics are contained (`Failed` job state, not a
//! dead daemon), deadlines (`PTB_DEADLINE_MS` or per-request
//! `deadline_ms`) shed expired work with `503` + `Retry-After`, and
//! the [`client`] retries with decorrelated-jitter backoff.
//!
//! Runs can be *audited*: `"verify": "sample"|"full"` on a request (or
//! `PTB_VERIFY` as the daemon default) re-derives structural invariants
//! and replays sampled neurons through the serial reference model
//! (`ptb_accel::audit`). A divergence fails the response or job with
//! typed findings instead of serving wrong numbers, journal-replayed
//! rows are recomputed before being trusted, and `/metrics` exposes the
//! totals (`audit_mismatches`, `acc_saturated`).
//!
//! See `docs/ARCHITECTURE.md` ("The simulation service", "Failure
//! modes and recovery") for the request lifecycle, sweep sharding, and
//! journal design, and `EXPERIMENTS.md` for the `PTB_ADDR` /
//! `PTB_WORKERS` / `PTB_QUEUE_CAP` / `PTB_JOB_DIR` / `PTB_DEADLINE_MS`
//! / `PTB_FAILPOINTS` knobs and the `ptb-load` load generator.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod api;
pub mod client;
pub mod engine;
pub mod http;
pub mod jobs;
pub mod journal;
pub mod launch;
pub mod metrics;
pub mod server;
pub mod wire;

pub use api::{SimulateRequest, SweepRequest};
pub use server::{Server, ServerConfig};
