//! Runtime audit layer: every simulation run can prove itself correct.
//!
//! An analytic model is trusted only as far as its accounting is
//! audited. This module re-derives, independently of the hot path, the
//! structural invariants the scheduler relies on and — at the higher
//! levels — replays sampled post-synaptic neurons through the serial
//! reference dynamics ([`crate::reference`]), diffing output spike
//! trains bit-for-bit. Divergences become typed
//! [`snn_core::error::AuditError`] findings carrying first-divergence
//! coordinates (layer, neuron, timestep), never panics.
//!
//! ## Levels (`PTB_VERIFY=off|sample|full`)
//!
//! * [`AuditLevel::Off`] — no checks, no measurable overhead (the knob
//!   is consulted once per run).
//! * [`AuditLevel::Sample`] — a deterministic sample of positions and
//!   neurons: up to [`SAMPLE_TILE_BUDGET`] positions' StSAP tiles and
//!   [`SAMPLE_REPLAY_BUDGET`] replayed neurons per layer, plus a
//!   sampled popcount re-derivation.
//! * [`AuditLevel::Full`] — exhaustive structural checks (every
//!   position's tiles, every neuron's window popcounts), a diff of the
//!   report against the oracle's serial per-tap simulation, and a
//!   replay sample widened to [`FULL_REPLAY_BUDGET`] stratified neurons
//!   per layer.
//!
//! Replay at `full` is *capped*, not literally exhaustive: replaying
//! every post-synaptic neuron of a production CONV layer would cost
//! millions of reference runs per layer. The cap is stratified across
//! output positions and deterministic (same layer → same sample every
//! run), so repeated full audits cover the same witness set and any
//! systematic divergence in the batched decomposition is caught by the
//! structural checks plus the witness replays. Checks that guard
//! against *data corruption* (window popcounts vs the raw tensor,
//! cached-activity diffs in `ptb-bench`) remain exhaustive at every
//! on level, so a flipped bit is always found.
//!
//! ## What each invariant guards
//!
//! * **Tile coverage** — the window partition schedules every
//!   (post-neuron, TW) tile exactly once; a gap silently drops work, an
//!   overlap double-counts energy.
//! * **Popcount re-derivation** — the per-(neuron, window) spike
//!   count table ([`crate::geom::window_popcounts`], which the oracle
//!   and the audit's own StSAP re-pack read) matches counts
//!   taken window by window from the raw `SpikeTensor`.
//! * **StSAP packing** — packing conserves entries (each input entry in
//!   exactly one slot), never pairs overlapping tags, and its slot
//!   accounting balances; violations would corrupt both latency and the
//!   paper's packing-saving metric.
//! * **Replay** — the batched Step A / Step B decomposition (Eqs. 7–8)
//!   matches the serial reference dynamics (Eqs. 1–3) on the actual
//!   layer activity.
//! * **Reference diff** (full only) — the report matches
//!   [`simulate_layer_reference`], the oracle's serial per-tap walk,
//!   bit for bit, for every policy including ANN: the production plane
//!   fill, box scans and StSAP coster against the slow, obvious walk.
//! * **Saturation** — checked accumulators clamped instead of wrapping;
//!   a nonzero counter means totals are lower bounds.

use serde::{Deserialize, Serialize};
use snn_core::error::AuditError;
use snn_core::neuron::NeuronConfig;
use snn_core::spike::SpikeTensor;

use crate::config::{Policy, SimInputs};
use crate::geom::{field_indices, window_popcounts};
use crate::prepared::PreparedLayer;
use crate::reference::{batched_neuron_forward, serial_neuron_forward};
use crate::report::LayerReport;
use crate::sim::oracle::{simulate_layer_reference, tile_entries};
use crate::stsap::{pack_tile, tile_full_mask, PackResult};
use crate::window::WindowPartition;

/// How much of a run the audit layer verifies.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum AuditLevel {
    /// No checks (the default): zero overhead on the hot path.
    #[default]
    Off,
    /// Deterministic samples of every invariant class.
    Sample,
    /// Exhaustive structural checks, widened replay samples, and a diff
    /// of the report against the oracle's serial per-tap simulation.
    Full,
}

impl AuditLevel {
    /// Parses `off|sample|full` (case-insensitive).
    pub fn parse(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().as_str() {
            "off" => Some(AuditLevel::Off),
            "sample" => Some(AuditLevel::Sample),
            "full" => Some(AuditLevel::Full),
            _ => None,
        }
    }

    /// Reads `PTB_VERIFY` from the environment; unset or unrecognized
    /// values mean [`AuditLevel::Off`].
    pub fn from_env() -> Self {
        std::env::var("PTB_VERIFY")
            .ok()
            .and_then(|v| Self::parse(&v))
            .unwrap_or(AuditLevel::Off)
    }

    /// The knob spelling of this level.
    pub fn label(self) -> &'static str {
        match self {
            AuditLevel::Off => "off",
            AuditLevel::Sample => "sample",
            AuditLevel::Full => "full",
        }
    }

    /// Whether any checking happens at this level.
    pub fn is_on(self) -> bool {
        !matches!(self, AuditLevel::Off)
    }
}

/// Replayed neurons per layer at [`AuditLevel::Full`].
pub const FULL_REPLAY_BUDGET: usize = 64;
/// Replayed neurons per layer at [`AuditLevel::Sample`].
pub const SAMPLE_REPLAY_BUDGET: usize = 8;
/// Positions whose StSAP tiles are verified at [`AuditLevel::Sample`].
pub const SAMPLE_TILE_BUDGET: usize = 32;
/// Pre-synaptic neurons whose popcounts are re-derived at
/// [`AuditLevel::Sample`].
pub const SAMPLE_POPCOUNT_BUDGET: usize = 64;
/// Findings retained verbatim in an [`AuditSummary`]; the total count
/// keeps incrementing past the cap.
pub const FINDINGS_CAP: usize = 32;

/// Aggregated outcome of auditing one or more layers/runs.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct AuditSummary {
    /// The level the audit ran at.
    pub level: AuditLevel,
    /// Layers that went through [`audit_layer`].
    pub layers_checked: u64,
    /// (position, column-tile) StSAP tiles re-packed and verified.
    pub tiles_checked: u64,
    /// Post-synaptic neurons replayed through the serial reference.
    pub neurons_replayed: u64,
    /// Activity tensors diffed against a fresh regeneration.
    pub activity_checked: u64,
    /// Total saturated accumulations observed across audited reports.
    pub saturated: u64,
    /// Total findings observed (keeps counting past [`FINDINGS_CAP`]).
    pub mismatches: u64,
    /// The first [`FINDINGS_CAP`] findings, in discovery order.
    pub findings: Vec<AuditError>,
}

impl AuditSummary {
    /// An empty summary at `level`.
    pub fn new(level: AuditLevel) -> Self {
        AuditSummary {
            level,
            layers_checked: 0,
            tiles_checked: 0,
            neurons_replayed: 0,
            activity_checked: 0,
            saturated: 0,
            mismatches: 0,
            findings: Vec::new(),
        }
    }

    /// Whether the audit observed zero findings.
    pub fn is_clean(&self) -> bool {
        self.mismatches == 0
    }

    /// The first finding, if any.
    pub fn first(&self) -> Option<&AuditError> {
        self.findings.first()
    }

    /// Records a finding, retaining at most [`FINDINGS_CAP`] verbatim.
    pub fn record(&mut self, finding: AuditError) {
        self.mismatches += 1;
        if self.findings.len() < FINDINGS_CAP {
            self.findings.push(finding);
        }
    }

    /// Folds another summary (e.g. another layer or sweep shard) into
    /// this one. The level is taken from `self`.
    pub fn merge(&mut self, other: AuditSummary) {
        self.layers_checked += other.layers_checked;
        self.tiles_checked += other.tiles_checked;
        self.neurons_replayed += other.neurons_replayed;
        self.activity_checked += other.activity_checked;
        self.saturated = self.saturated.saturating_add(other.saturated);
        self.mismatches += other.mismatches;
        for f in other.findings {
            if self.findings.len() >= FINDINGS_CAP {
                break;
            }
            self.findings.push(f);
        }
    }

    /// `Ok(self)` when clean, `Err(first finding)` otherwise.
    pub fn into_result(self) -> Result<AuditSummary, AuditError> {
        if self.is_clean() {
            Ok(self)
        } else {
            // A nonzero mismatch count always has a retained finding:
            // `record` caps retention, never the first entry.
            Err(self
                .findings
                .into_iter()
                .next()
                .expect("non-clean summary retains its first finding"))
        }
    }
}

/// SplitMix64 step — the audit's deterministic sampling/weight stream.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a over a name: the per-layer audit seed, stable across runs.
fn fnv64(s: &str) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// A weight in `[-0.5, 0.5)` from one SplitMix64 draw.
fn weight_from(draw: u64) -> f32 {
    ((draw >> 40) as f32 / (1u64 << 24) as f32) - 0.5
}

/// First index where two spike trains differ.
fn first_divergence(expected: &[bool], got: &[bool]) -> Option<usize> {
    expected
        .iter()
        .zip(got)
        .position(|(e, g)| e != g)
        .or_else(|| (expected.len() != got.len()).then_some(expected.len().min(got.len())))
}

/// Diffs a cached/recovered activity tensor against its fresh
/// regeneration, returning the first-divergence coordinates as a
/// [`AuditError::CorruptActivity`] finding (or `None` when identical).
///
/// Word-level compare first, so the exhaustive check stays cheap enough
/// to run at every on level — this is the check that catches a bit
/// flipped between generation and consumption (e.g. a corrupted disk
/// cache entry).
pub fn diff_activity(layer: &str, expected: &SpikeTensor, got: &SpikeTensor) -> Option<AuditError> {
    if expected.neurons() != got.neurons() || expected.timesteps() != got.timesteps() {
        return Some(AuditError::CorruptActivity {
            layer: layer.to_string(),
            neuron: 0,
            timestep: 0,
            expected: false,
            got: false,
        });
    }
    if expected.neurons() == 0 || expected.timesteps() == 0 {
        return None;
    }
    let (ew, gw) = (expected.words(), got.words());
    let idx = ew.iter().zip(gw).position(|(a, b)| a != b)?;
    let wpn = ew.len() / expected.neurons();
    let neuron = idx / wpn;
    let bit = (ew[idx] ^ gw[idx]).trailing_zeros() as usize;
    let timestep = (idx % wpn) * 64 + bit;
    Some(AuditError::CorruptActivity {
        layer: layer.to_string(),
        neuron,
        timestep,
        expected: expected.get(neuron, timestep),
        got: got.get(neuron, timestep),
    })
}

/// Verifies one packed tile's invariants: entry conservation (each
/// input entry in exactly one slot), pair disjointness, and slot
/// accounting. Records findings into `summary`.
pub fn verify_pack(
    layer: &str,
    tile: usize,
    tags: &[u128],
    packed: &PackResult,
    summary: &mut AuditSummary,
) {
    summary.tiles_checked += 1;
    if packed.entries_before != tags.len()
        || packed.entries_after() + packed.pairs() != packed.entries_before
    {
        summary.record(AuditError::SlotAccounting {
            layer: layer.to_string(),
            tile,
            before: packed.entries_before as u64,
            after: packed.entries_after() as u64,
            pairs: packed.pairs() as u64,
        });
    }
    let mut coverage = vec![0usize; tags.len()];
    for slot in &packed.slots {
        for member in [Some(slot.first), slot.second].into_iter().flatten() {
            match coverage.get_mut(member) {
                Some(c) => *c += 1,
                None => summary.record(AuditError::PackingCoverage {
                    layer: layer.to_string(),
                    tile,
                    entry: member,
                    count: 0,
                }),
            }
        }
        if let Some(second) = slot.second {
            let overlap = match (tags.get(slot.first), tags.get(second)) {
                (Some(a), Some(b)) => a & b != 0,
                _ => false, // out-of-range already reported above
            };
            if overlap {
                summary.record(AuditError::PackingOverlap {
                    layer: layer.to_string(),
                    tile,
                    first: slot.first,
                    second,
                });
            }
        }
    }
    for (entry, &count) in coverage.iter().enumerate() {
        if count != 1 {
            summary.record(AuditError::PackingCoverage {
                layer: layer.to_string(),
                tile,
                entry,
                count,
            });
        }
    }
}

/// Audits one simulated layer at `level`, recording findings and
/// coverage counters into `summary`. `report` is the layer's production
/// result (checked for saturation and, at [`AuditLevel::Full`], against
/// the serial reference). Never panics on
/// well-formed inputs; divergences are typed findings.
pub fn audit_layer(
    inputs: &SimInputs,
    policy: Policy,
    prep: &PreparedLayer,
    layer_name: &str,
    report: &LayerReport,
    level: AuditLevel,
    summary: &mut AuditSummary,
) {
    if !level.is_on() {
        return;
    }
    summary.layers_checked += 1;

    // --- Saturation: a clamped accumulator means the totals are lower
    // bounds; surface it as a finding rather than trusting the report.
    if report.counts.saturated > 0 {
        summary.saturated = summary.saturated.saturating_add(report.counts.saturated);
        summary.record(AuditError::AccumulatorSaturation {
            layer: layer_name.to_string(),
            saturated: report.counts.saturated,
        });
    }

    let is_ptb = matches!(policy, Policy::Ptb { .. });
    let (shape, spikes) = (prep.shape(), prep.spikes());
    let t = spikes.timesteps();

    if is_ptb && t > 0 {
        let part = WindowPartition::new(t, inputs.tw_size as usize);
        let n_w = part.num_windows();
        let positions = (shape.ofmap_side() as usize).pow(2);

        // --- Popcount re-derivation: the window-count table, built
        // fresh, vs counts taken window by window from the raw tensor.
        let pops = window_popcounts(spikes, &part);
        let neurons = spikes.neurons();
        let stride = match level {
            AuditLevel::Full => 1,
            _ => (neurons / SAMPLE_POPCOUNT_BUDGET).max(1),
        };
        'popcounts: for n in (0..neurons).step_by(stride) {
            for w in 0..n_w {
                let (s, e) = part.window_range(w);
                let expected = spikes.popcount_range(n, s, e) as u16;
                let got = pops[n * n_w + w];
                if expected != got {
                    summary.record(AuditError::PopcountMismatch {
                        layer: layer_name.to_string(),
                        neuron: n,
                        window: w,
                        expected,
                        got,
                    });
                    break 'popcounts; // first divergence is the report
                }
            }
        }

        // --- Tile coverage: the column tiles must schedule every time
        // window exactly once.
        let cols = inputs.arch.array.cols() as usize;
        let tiles = part.column_tiles(cols);
        let mut covered = vec![0usize; n_w];
        for &(w0, w1) in &tiles {
            for c in covered.iter_mut().take(w1.min(n_w)).skip(w0) {
                *c += 1;
            }
        }
        for (window, &count) in covered.iter().enumerate() {
            if count != 1 {
                summary.record(AuditError::TileCoverage {
                    layer: layer_name.to_string(),
                    window,
                    count,
                });
                break;
            }
        }

        // --- StSAP re-pack: list each sampled position's tile tags
        // with the oracle's walk and verify the packing invariants.
        if let Policy::Ptb { stsap: true } = policy {
            let pos_stride = match level {
                AuditLevel::Full => 1,
                _ => (positions / SAMPLE_TILE_BUDGET).max(1),
            };
            let (mut tags, mut counts) = (Vec::new(), Vec::new());
            for p in (0..positions).step_by(pos_stride) {
                let rf = field_indices(shape, p);
                for (tile_idx, &(w0, w1)) in tiles.iter().enumerate() {
                    tile_entries(&rf, &pops, n_w, (w0, w1), &mut tags, &mut counts);
                    if !tags.is_empty() {
                        let packed = pack_tile(&tags, tile_full_mask(w1 - w0));
                        verify_pack(layer_name, tile_idx, &tags, &packed, summary);
                    }
                }
            }
        }

        // --- Replay: stratified post-synaptic neurons through the
        // serial reference dynamics, diffed bit-for-bit against the
        // batched Step A / Step B decomposition.
        let channels = shape.out_channels() as usize;
        if positions > 0 && channels > 0 {
            let budget = match level {
                AuditLevel::Full => FULL_REPLAY_BUDGET,
                _ => SAMPLE_REPLAY_BUDGET,
            }
            .min(positions.saturating_mul(channels));
            let mut rng = fnv64(layer_name);
            let neuron_cfg = NeuronConfig::lif(1.0, 0.05);
            let arr_cols = inputs.arch.array.cols();
            for i in 0..budget {
                // Stratify positions across the output map; draw the
                // channel (and weights) from the deterministic stream.
                let p = (i * positions) / budget;
                let ch = (splitmix(&mut rng) as usize) % channels;
                let rf = field_indices(shape, p);
                if rf.is_empty() {
                    continue;
                }
                let rf_spikes = spikes
                    .select(&rf)
                    .expect("receptive-field indices are in range");
                let weights: Vec<f32> = (0..rf.len())
                    .map(|_| weight_from(splitmix(&mut rng)))
                    .collect();
                let serial = serial_neuron_forward(&weights, &rf_spikes, neuron_cfg);
                let batched = batched_neuron_forward(
                    &weights,
                    &rf_spikes,
                    neuron_cfg,
                    inputs.tw_size,
                    arr_cols,
                );
                summary.neurons_replayed += 1;
                if let Some(timestep) = first_divergence(&serial, &batched) {
                    summary.record(AuditError::ReplayDivergence {
                        layer: layer_name.to_string(),
                        neuron: ch * positions + p,
                        timestep,
                        expected: serial.get(timestep).copied().unwrap_or(false),
                        got: batched.get(timestep).copied().unwrap_or(false),
                    });
                }
            }
        }
    }

    // --- Reference diff (full only: it costs one extra, slow
    // simulation). The serial per-tap oracle must reproduce the report
    // bit-for-bit.
    if level == AuditLevel::Full {
        let oracle = simulate_layer_reference(inputs, policy, shape, spikes);
        if oracle != *report {
            summary.record(AuditError::ReferenceDivergence {
                layer: layer_name.to_string(),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::simulate_layer;
    use crate::stsap::Slot;
    use snn_core::shape::ConvShape;
    use std::sync::Arc;

    fn prepared() -> PreparedLayer {
        let shape = ConvShape::new(6, 3, 4, 8, 1).unwrap();
        let input = SpikeTensor::from_fn(shape.ifmap_neurons(), 48, |n, tp| {
            n % 3 != 2 && (n * 7 + tp * 11) % 17 == 0
        });
        PreparedLayer::new(shape, Arc::new(input))
    }

    #[test]
    fn level_parsing_and_env_spelling() {
        assert_eq!(AuditLevel::parse("off"), Some(AuditLevel::Off));
        assert_eq!(AuditLevel::parse("SAMPLE"), Some(AuditLevel::Sample));
        assert_eq!(AuditLevel::parse("Full"), Some(AuditLevel::Full));
        assert_eq!(AuditLevel::parse("yes"), None);
        assert_eq!(AuditLevel::default(), AuditLevel::Off);
        assert!(!AuditLevel::Off.is_on());
        assert!(AuditLevel::Sample.is_on());
        for level in [AuditLevel::Off, AuditLevel::Sample, AuditLevel::Full] {
            assert_eq!(AuditLevel::parse(level.label()), Some(level));
        }
    }

    #[test]
    fn clean_layer_audits_clean_at_every_level() {
        let prep = prepared();
        for stsap in [false, true] {
            let policy = Policy::Ptb { stsap };
            let inputs = SimInputs::hpca22(8);
            let report = simulate_layer(&inputs, policy, prep.shape(), prep.spikes());
            for level in [AuditLevel::Sample, AuditLevel::Full] {
                let mut summary = AuditSummary::new(level);
                audit_layer(
                    &inputs,
                    policy,
                    &prep,
                    "CONV1",
                    &report,
                    level,
                    &mut summary,
                );
                assert!(
                    summary.is_clean(),
                    "stsap={stsap} {level:?}: {:?}",
                    summary.first()
                );
                assert_eq!(summary.layers_checked, 1);
                assert!(summary.neurons_replayed > 0);
            }
        }
    }

    #[test]
    fn off_level_checks_nothing() {
        let prep = prepared();
        let inputs = SimInputs::hpca22(8);
        let report = simulate_layer(&inputs, Policy::ptb(), prep.shape(), prep.spikes());
        let mut summary = AuditSummary::new(AuditLevel::Off);
        audit_layer(
            &inputs,
            Policy::ptb(),
            &prep,
            "CONV1",
            &report,
            AuditLevel::Off,
            &mut summary,
        );
        assert_eq!(summary.layers_checked, 0);
        assert_eq!(summary.neurons_replayed, 0);
        assert!(summary.is_clean());
    }

    #[test]
    fn saturated_report_becomes_a_finding() {
        let prep = prepared();
        let inputs = SimInputs::hpca22(8);
        let mut report = simulate_layer(&inputs, Policy::ptb(), prep.shape(), prep.spikes());
        report.counts.saturated = 7;
        let mut summary = AuditSummary::new(AuditLevel::Sample);
        audit_layer(
            &inputs,
            Policy::ptb(),
            &prep,
            "CONV1",
            &report,
            AuditLevel::Sample,
            &mut summary,
        );
        assert_eq!(summary.saturated, 7);
        assert!(matches!(
            summary.first(),
            Some(AuditError::AccumulatorSaturation { saturated: 7, .. })
        ));
    }

    #[test]
    fn full_audit_diffs_the_report_against_the_reference() {
        // A planted wrong report — one cycle off, as a kernel bug in the
        // word scan would produce — must be caught at Full by the
        // serial-reference diff, for a PTB and a baseline policy alike.
        let prep = prepared();
        for (policy, tw) in [(Policy::ptb_with_stsap(), 5u32), (Policy::EventDriven, 1)] {
            let inputs = SimInputs::hpca22(tw);
            let mut planted = simulate_layer(&inputs, policy, prep.shape(), prep.spikes());
            planted.cycles += 1;
            let mut summary = AuditSummary::new(AuditLevel::Full);
            audit_layer(
                &inputs,
                policy,
                &prep,
                "CONV1",
                &planted,
                AuditLevel::Full,
                &mut summary,
            );
            assert!(
                summary.findings.iter().any(
                    |f| matches!(f, AuditError::ReferenceDivergence { layer } if layer == "CONV1")
                ),
                "{policy:?}: {:?}",
                summary.findings
            );
        }
    }

    #[test]
    fn verify_pack_accepts_real_packings() {
        let tags: Vec<u128> = (1u128..40)
            .map(|i| (i * 0x2D) % 255)
            .filter(|&t| t != 0)
            .collect();
        let packed = pack_tile(&tags, 0xFF);
        let mut summary = AuditSummary::new(AuditLevel::Full);
        verify_pack("L", 0, &tags, &packed, &mut summary);
        assert!(summary.is_clean(), "{:?}", summary.first());
        assert_eq!(summary.tiles_checked, 1);
    }

    #[test]
    fn verify_pack_catches_overlapping_pair() {
        let tags = vec![0b0011u128, 0b0110];
        let doctored = PackResult {
            slots: vec![Slot {
                first: 0,
                second: Some(1),
            }],
            entries_before: 2,
            exact_pairs: 0,
            near_pairs: 1,
        };
        let mut summary = AuditSummary::new(AuditLevel::Full);
        verify_pack("L", 3, &tags, &doctored, &mut summary);
        assert!(matches!(
            summary.first(),
            Some(AuditError::PackingOverlap {
                tile: 3,
                first: 0,
                second: 1,
                ..
            })
        ));
    }

    #[test]
    fn verify_pack_catches_lost_and_duplicated_entries() {
        let tags = vec![0b0001u128, 0b0010, 0b0100];
        // Entry 2 dropped, entry 0 duplicated.
        let doctored = PackResult {
            slots: vec![
                Slot {
                    first: 0,
                    second: None,
                },
                Slot {
                    first: 0,
                    second: Some(1),
                },
            ],
            entries_before: 3,
            exact_pairs: 0,
            near_pairs: 1,
        };
        let mut summary = AuditSummary::new(AuditLevel::Full);
        verify_pack("L", 0, &tags, &doctored, &mut summary);
        let findings = &summary.findings;
        assert!(findings.iter().any(|f| matches!(
            f,
            AuditError::PackingCoverage {
                entry: 0,
                count: 2,
                ..
            }
        )));
        assert!(findings.iter().any(|f| matches!(
            f,
            AuditError::PackingCoverage {
                entry: 2,
                count: 0,
                ..
            }
        )));
    }

    #[test]
    fn verify_pack_catches_unbalanced_accounting() {
        let tags = vec![0b0001u128, 0b0010];
        let doctored = PackResult {
            slots: vec![
                Slot {
                    first: 0,
                    second: None,
                },
                Slot {
                    first: 1,
                    second: None,
                },
            ],
            entries_before: 2,
            exact_pairs: 1, // claims a pair that doesn't exist
            near_pairs: 0,
        };
        let mut summary = AuditSummary::new(AuditLevel::Full);
        verify_pack("L", 0, &tags, &doctored, &mut summary);
        assert!(matches!(
            summary.first(),
            Some(AuditError::SlotAccounting {
                before: 2,
                after: 2,
                pairs: 1,
                ..
            })
        ));
    }

    #[test]
    fn diff_activity_names_the_flipped_bit() {
        let a = SpikeTensor::from_fn(5, 130, |n, t| (n + t) % 7 == 0);
        let mut b = a.clone();
        assert!(diff_activity("L", &a, &b).is_none());
        let flipped = !b.get(3, 100);
        b.set(3, 100, flipped);
        match diff_activity("L", &a, &b) {
            Some(AuditError::CorruptActivity {
                neuron,
                timestep,
                expected,
                got,
                ..
            }) => {
                assert_eq!((neuron, timestep), (3, 100));
                assert_eq!(expected, !flipped);
                assert_eq!(got, flipped);
            }
            other => panic!("expected CorruptActivity, got {other:?}"),
        }
    }

    #[test]
    fn diff_activity_rejects_shape_drift() {
        let a = SpikeTensor::new(4, 16);
        let b = SpikeTensor::new(4, 32);
        assert!(diff_activity("L", &a, &b).is_some());
        assert!(diff_activity("L", &SpikeTensor::new(0, 0), &SpikeTensor::new(0, 0)).is_none());
    }

    #[test]
    fn first_divergence_finds_length_and_value_diffs() {
        assert_eq!(first_divergence(&[true, false], &[true, false]), None);
        assert_eq!(first_divergence(&[true, false], &[true, true]), Some(1));
        assert_eq!(
            first_divergence(&[true, false, true], &[true, false]),
            Some(2)
        );
    }

    #[test]
    fn summary_caps_findings_but_counts_everything() {
        let mut s = AuditSummary::new(AuditLevel::Sample);
        for i in 0..(FINDINGS_CAP + 10) {
            s.record(AuditError::RowMismatch { index: i, tw: 1 });
        }
        assert_eq!(s.findings.len(), FINDINGS_CAP);
        assert_eq!(s.mismatches, (FINDINGS_CAP + 10) as u64);
        assert!(!s.is_clean());
        assert!(s.clone().into_result().is_err());

        let mut merged = AuditSummary::new(AuditLevel::Sample);
        merged.merge(s);
        assert_eq!(merged.mismatches, (FINDINGS_CAP + 10) as u64);
        assert_eq!(merged.findings.len(), FINDINGS_CAP);
    }

    #[test]
    fn summary_serializes_round_trip() {
        let mut s = AuditSummary::new(AuditLevel::Full);
        s.layers_checked = 3;
        s.record(AuditError::ReferenceDivergence {
            layer: "FC1".to_string(),
        });
        let json = serde_json::to_string(&s).expect("serialize");
        let back: AuditSummary = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back, s);
    }

    #[test]
    fn replay_is_deterministic_across_runs() {
        let prep = prepared();
        let inputs = SimInputs::hpca22(8);
        let report = simulate_layer(&inputs, Policy::ptb(), prep.shape(), prep.spikes());
        let run = || {
            let mut s = AuditSummary::new(AuditLevel::Sample);
            audit_layer(
                &inputs,
                Policy::ptb(),
                &prep,
                "CONV1",
                &report,
                AuditLevel::Sample,
                &mut s,
            );
            s
        };
        assert_eq!(run(), run());
    }
}
