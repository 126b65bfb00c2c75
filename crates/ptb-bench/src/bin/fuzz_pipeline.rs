//! `fuzz_pipeline` — time-boxed structured fuzzing of the simulation
//! pipeline: generators, packers, and the simulator under audit.
//!
//! ```text
//! cargo run --release -p ptb-bench --bin fuzz_pipeline -- \
//!     [--seconds N] [--seed N]
//! ```
//!
//! Until the time box expires, each iteration draws one adversarial
//! case from a deterministic RNG and runs it under
//! `std::panic::catch_unwind`:
//!
//! * **profile** — extreme [`spikegen::FiringProfile`] parameters
//!   (all-silent, saturated rates, huge dispersion, degenerate bursts);
//!   generated tensors must satisfy the tensor's own counting
//!   invariants.
//! * **tensor** — arbitrary word soup through
//!   [`SpikeTensor::from_words`]: either a typed error or a tensor
//!   whose popcounts agree with bit-level reads.
//! * **pack** — random TB-tag sets through
//!   [`ptb_accel::stsap::pack_tile`], checked by the production
//!   invariant auditor [`ptb_accel::audit::verify_pack`].
//! * **sim** — a random small layer under a random policy, TW and
//!   array column count (8, 12, 16, 20 or 128), simulated and then
//!   audited at [`AuditLevel::Full`] (serial-replay cross-check,
//!   popcount re-derivation, tile coverage).
//!
//! Any panic or audit finding is a failure: the driver prints a JSON
//! summary (per-kind case counts, failure descriptors with the seed to
//! replay them) and exits nonzero. CI runs this with a small
//! `--seconds` budget; exit 0 means the box finished clean.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ptb_accel::audit::{audit_layer, verify_pack, AuditLevel, AuditSummary};
use ptb_accel::config::{Policy, SimInputs};
use ptb_accel::stsap::tile_full_mask;
use ptb_accel::{simulate_layer, PreparedLayer};
use serde::Serialize;
use snn_core::shape::ConvShape;
use snn_core::spike::SpikeTensor;
use spikegen::{FiringProfile, TemporalStructure};
use systolic_sim::{ArchConfig, ArrayDims};

/// SplitMix64: the same tiny deterministic generator the vendored
/// proptest uses, so a failing seed replays exactly.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, bound)`; `bound` must be nonzero.
    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

const KINDS: [&str; 4] = ["profile", "tensor", "pack", "sim"];

#[derive(Serialize)]
struct Failure {
    kind: String,
    case_seed: u64,
    detail: String,
}

#[derive(Serialize)]
struct FuzzReport {
    seconds_budget: f64,
    seconds_used: f64,
    seed: u64,
    cases: u64,
    cases_by_kind: Vec<(String, u64)>,
    failures: Vec<Failure>,
    clean: bool,
}

/// Fuzzes the profile sampler with corner-case parameters. Errors from
/// rejected parameters are expected; generated tensors must be
/// self-consistent.
fn case_profile(rng: &mut Rng) -> Result<(), String> {
    let silent = match rng.below(4) {
        0 => 0.0,
        1 => 1.0,
        _ => rng.unit(),
    };
    let rate = match rng.below(4) {
        0 => 1.0,
        1 => 1e-9,
        _ => rng.unit().max(1e-9),
    };
    let dispersion = match rng.below(3) {
        0 => 0.0,
        1 => 8.0,
        _ => rng.unit() * 3.0,
    };
    let temporal = match rng.below(3) {
        0 => TemporalStructure::Bernoulli,
        1 => TemporalStructure::Regular,
        _ => TemporalStructure::Bursty {
            burst_len: rng.below(9) as u32, // 0 must be rejected, not panic
            within_rate: (rng.unit() as f32).max(f32::MIN_POSITIVE),
        },
    };
    let profile = match FiringProfile::new(silent, rate, dispersion, temporal) {
        Ok(p) => p,
        Err(_) => return Ok(()), // typed rejection is correct behavior
    };
    let neurons = rng.below(129) as usize;
    let timesteps = rng.below(257) as usize;
    let spikes = profile.generate(neurons, timesteps, rng.next());
    if spikes.neurons() != neurons || spikes.timesteps() != timesteps {
        return Err(format!(
            "generated shape {}x{} != requested {neurons}x{timesteps}",
            spikes.neurons(),
            spikes.timesteps()
        ));
    }
    let counted: u64 = (0..neurons).map(|n| u64::from(spikes.fire_count(n))).sum();
    if counted != spikes.total_spikes() {
        return Err(format!(
            "total_spikes {} != sum of fire_count {counted}",
            spikes.total_spikes()
        ));
    }
    if silent >= 1.0 && spikes.total_spikes() != 0 {
        return Err("fully silent profile produced spikes".to_string());
    }
    Ok(())
}

/// Fuzzes `SpikeTensor::from_words` with word soup of arbitrary
/// (usually wrong) length, then cross-checks bit reads on accepted
/// tensors.
fn case_tensor(rng: &mut Rng) -> Result<(), String> {
    let neurons = rng.below(33) as usize;
    let timesteps = rng.below(200) as usize;
    let len = rng.below(128) as usize;
    let words: Vec<u64> = (0..len).map(|_| rng.next()).collect();
    let Ok(tensor) = SpikeTensor::from_words(neurons, timesteps, words) else {
        return Ok(()); // length mismatch is a typed error, not a panic
    };
    for _ in 0..8 {
        if neurons == 0 || timesteps == 0 {
            break;
        }
        let n = rng.below(neurons as u64) as usize;
        let start = rng.below(timesteps as u64) as usize;
        let end = start + rng.below((timesteps - start) as u64 + 1) as usize;
        let pop = tensor.popcount_range(n, start, end);
        let scalar = (start..end).filter(|&t| tensor.get(n, t)).count() as u32;
        if pop != scalar {
            return Err(format!(
                "popcount_range({n}, {start}, {end}) = {pop}, bit-by-bit = {scalar}"
            ));
        }
    }
    Ok(())
}

/// Fuzzes StSAP packing with random tag sets (including empty tags,
/// full tags, duplicates) and audits the result with the production
/// invariant checker.
fn case_pack(rng: &mut Rng) -> Result<(), String> {
    let width = 1 + rng.below(128) as u32;
    let full_mask = tile_full_mask(width as usize);
    let entries = rng.below(65) as usize;
    // pack_tile's contract: silent entries are filtered out upstream
    // (the scheduler only tags active neurons), so every fuzzed tag
    // keeps at least one in-mask bit set.
    let tags: Vec<u128> = (0..entries)
        .map(|_| {
            let one_bit = 1u128 << rng.below(u64::from(width));
            match rng.below(4) {
                0 => one_bit,
                1 => full_mask,
                _ => {
                    let raw = (u128::from(rng.next()) << 64) | u128::from(rng.next());
                    (raw & full_mask) | one_bit
                }
            }
        })
        .collect();
    let packed = ptb_accel::stsap::pack_tile(&tags, full_mask);
    let mut summary = AuditSummary::new(AuditLevel::Full);
    verify_pack("fuzz", 0, &tags, &packed, &mut summary);
    match summary.first() {
        None => Ok(()),
        Some(finding) => Err(format!("pack invariant violated: {finding}")),
    }
}

/// Fuzzes the simulator itself: a random small layer, random policy, TW
/// and column count, audited at `Full` against the serial reference
/// model.
fn case_sim(rng: &mut Rng) -> Result<(), String> {
    let ifmap = 2 + rng.below(8) as u32;
    let filter = 1 + rng.below(3) as u32;
    let stride = 1 + rng.below(2) as u32;
    let pad = rng.below(2) as u32;
    let in_ch = 1 + rng.below(3) as u32;
    let out_ch = 1 + rng.below(8) as u32;
    let Ok(shape) = ConvShape::with_padding(ifmap, filter, in_ch, out_ch, stride, pad) else {
        return Ok(()); // geometry rejection is a typed error
    };
    let timesteps = 1 + rng.below(64) as usize;
    let tw = [1u32, 2, 3, 4, 8, 16, 64][rng.below(7) as usize];
    let policies = Policy::all();
    let policy = policies[rng.below(policies.len() as u64) as usize];
    let profile = match FiringProfile::new(
        rng.unit(),
        rng.unit().max(1e-3),
        rng.unit() * 2.0,
        TemporalStructure::Bernoulli,
    ) {
        Ok(p) => p,
        Err(_) => return Ok(()),
    };
    let spikes = profile.generate(shape.ifmap_neurons(), timesteps, rng.next());
    // Past 8 columns a tile can span more windows than an 8-bit tag
    // holds, so StSAP takes the sorted-class path.
    let cols = [8u32, 12, 16, 20, 128][rng.below(5) as usize];
    let arch = ArchConfig::hpca22();
    let inputs = SimInputs {
        arch: arch.with_array(ArrayDims::new(arch.array.rows(), cols)),
        ..SimInputs::hpca22(tw)
    };
    let prep = PreparedLayer::new(shape, Arc::new(spikes));
    let report = simulate_layer(&inputs, policy, shape, prep.spikes());
    let mut summary = AuditSummary::new(AuditLevel::Full);
    audit_layer(
        &inputs,
        policy,
        &prep,
        "fuzz",
        &report,
        AuditLevel::Full,
        &mut summary,
    );
    match summary.first() {
        None => Ok(()),
        Some(finding) => Err(format!(
            "{} tw={tw} t={timesteps} cols={cols} shape={ifmap}x{filter}x{in_ch}x{out_ch}: {finding}",
            policy.label()
        )),
    }
}

fn main() {
    let mut seconds = 10.0f64;
    let mut seed = 0xC0FF_EE00u64;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next().unwrap_or_else(|| {
                eprintln!("usage: fuzz_pipeline [--seconds N] [--seed N]");
                std::process::exit(2);
            })
        };
        match flag.as_str() {
            "--seconds" => seconds = value().parse().expect("--seconds takes a number"),
            "--seed" => seed = value().parse().expect("--seed takes a u64"),
            _ => {
                eprintln!("usage: fuzz_pipeline [--seconds N] [--seed N]");
                std::process::exit(2);
            }
        }
    }

    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let t0 = Instant::now();
    let mut master = Rng(seed);
    let mut cases = 0u64;
    let mut by_kind = [0u64; KINDS.len()];
    let mut failures: Vec<Failure> = Vec::new();
    while Instant::now() < deadline && failures.len() < 16 {
        let kind = (cases % KINDS.len() as u64) as usize;
        let case_seed = master.next();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let mut rng = Rng(case_seed);
            match kind {
                0 => case_profile(&mut rng),
                1 => case_tensor(&mut rng),
                2 => case_pack(&mut rng),
                _ => case_sim(&mut rng),
            }
        }));
        let detail = match outcome {
            Ok(Ok(())) => None,
            Ok(Err(msg)) => Some(msg),
            Err(panic) => Some(format!(
                "panic: {}",
                panic
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_string())
                    .or_else(|| panic.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "<non-string payload>".to_string())
            )),
        };
        if let Some(detail) = detail {
            failures.push(Failure {
                kind: KINDS[kind].to_string(),
                case_seed,
                detail,
            });
        }
        by_kind[kind] += 1;
        cases += 1;
    }

    let report = FuzzReport {
        seconds_budget: seconds,
        seconds_used: t0.elapsed().as_secs_f64(),
        seed,
        cases,
        cases_by_kind: KINDS
            .iter()
            .zip(by_kind)
            .map(|(k, n)| ((*k).to_string(), n))
            .collect(),
        failures,
        clean: cases > 0,
    };
    let clean = report.failures.is_empty() && cases > 0;
    let report = FuzzReport { clean, ..report };
    println!(
        "{}",
        serde_json::to_string_pretty(&report).expect("report serializes")
    );
    if !clean {
        eprintln!(
            "fuzz_pipeline: FAIL — {} failure(s) in {} cases (replay with --seed {seed})",
            report.failures.len(),
            cases
        );
        std::process::exit(1);
    }
}
