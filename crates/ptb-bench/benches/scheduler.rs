//! Criterion benchmarks of the reproduction's hot paths: StSAP packing,
//! TB-tag extraction, the PTB layer simulator, the dense baseline, and
//! the functional spiking forward pass.
//!
//! These are engineering benchmarks of the *simulator itself* (the
//! paper's figures are regenerated by the `ptb-bench` binaries; see
//! DESIGN.md §6).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use ptb_accel::config::{Policy, SimInputs};
use ptb_accel::sim::simulate_layer;
use ptb_accel::stsap::pack_tile;
use ptb_accel::tag::tags_of_layer;
use ptb_accel::window::WindowPartition;
use snn_core::layer::SpikingConv;
use snn_core::neuron::NeuronConfig;
use snn_core::shape::ConvShape;
use snn_core::spike::SpikeTensor;
use spikegen::{FiringProfile, TemporalStructure};

fn bench_workload() -> (ConvShape, SpikeTensor) {
    let shape = ConvShape::with_padding(16, 3, 16, 64, 1, 1).expect("valid shape");
    let profile = FiringProfile::new(
        0.35,
        0.06,
        0.8,
        TemporalStructure::Bursty {
            burst_len: 5,
            within_rate: 0.5,
        },
    )
    .expect("valid profile");
    let input = profile.generate(shape.ifmap_neurons(), 128, 42);
    (shape, input)
}

fn bench_stsap_packing(c: &mut Criterion) {
    let (_, input) = bench_workload();
    let part = WindowPartition::new(128, 8);
    let tags = tags_of_layer(&input, part);
    let tile_tags: Vec<u128> = tags
        .iter()
        .map(|t| t.slice_mask(0, 8))
        .filter(|&m| m != 0)
        .collect();
    let full = (1u128 << 8) - 1;
    c.bench_function("stsap_pack_tile_4k_entries", |b| {
        b.iter(|| pack_tile(std::hint::black_box(&tile_tags), full))
    });
}

fn bench_tag_extraction(c: &mut Criterion) {
    let (_, input) = bench_workload();
    let part = WindowPartition::new(128, 8);
    c.bench_function("tb_tags_of_4k_neurons", |b| {
        b.iter(|| tags_of_layer(std::hint::black_box(&input), part))
    });
}

fn bench_ptb_simulation(c: &mut Criterion) {
    let (shape, input) = bench_workload();
    let inputs = SimInputs::hpca22(8);
    c.bench_function("simulate_layer_ptb_stsap", |b| {
        b.iter(|| {
            simulate_layer(
                &inputs,
                Policy::ptb_with_stsap(),
                shape,
                std::hint::black_box(&input),
            )
        })
    });
    c.bench_function("simulate_layer_baseline", |b| {
        b.iter(|| {
            simulate_layer(
                &inputs,
                Policy::BaselineTemporal,
                shape,
                std::hint::black_box(&input),
            )
        })
    });
}

fn bench_ptb_stsap_simulation(c: &mut Criterion) {
    let (shape, input) = bench_workload();
    let inputs = SimInputs::hpca22(8);
    c.bench_function("simulate_layer_ptb_stsap_serial", |b| {
        b.iter(|| {
            simulate_layer(
                &inputs,
                Policy::ptb_with_stsap(),
                shape,
                std::hint::black_box(&input),
            )
        })
    });
}

fn bench_functional_forward(c: &mut Criterion) {
    let shape = ConvShape::with_padding(12, 3, 4, 8, 1, 1).expect("valid shape");
    let layer = SpikingConv::from_fn(shape, NeuronConfig::lif(0.8, 0.02), |m, ch, i, j| {
        ((m + ch + i + j) % 7) as f32 * 0.05 - 0.1
    });
    let input = SpikeTensor::from_fn(shape.ifmap_neurons(), 64, |n, t| (n * 7 + t * 3) % 13 == 0);
    c.bench_function("spiking_conv_forward_64steps", |b| {
        b.iter(|| {
            layer
                .forward(std::hint::black_box(&input))
                .expect("dims match")
        })
    });
}

fn bench_activity_generation(c: &mut Criterion) {
    let profile = FiringProfile::typical();
    c.bench_function("spikegen_16k_neurons_128steps", |b| {
        b.iter_batched(
            || (),
            |_| profile.generate(16_384, 128, 7),
            BatchSize::SmallInput,
        )
    });
}

criterion_group!(
    benches,
    bench_stsap_packing,
    bench_tag_extraction,
    bench_ptb_simulation,
    bench_ptb_stsap_simulation,
    bench_functional_forward,
    bench_activity_generation
);
criterion_main!(benches);
