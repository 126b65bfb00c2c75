//! Failure-injection and boundary-condition tests: the simulator must
//! degrade predictably when the architecture is starved or misconfigured,
//! not silently produce nonsense.

use ptb_snn::ptb_accel::config::{Policy, SimInputs};
use ptb_snn::ptb_accel::sim::simulate_layer;
use ptb_snn::snn_core::shape::ConvShape;
use ptb_snn::snn_core::spike::SpikeTensor;
use ptb_snn::systolic_sim::{ArchConfig, EnergyModel};

fn workload() -> (ConvShape, SpikeTensor) {
    let shape = ConvShape::new(8, 3, 8, 16, 1).unwrap();
    let input = SpikeTensor::from_fn(shape.ifmap_neurons(), 64, |n, t| (n * 7 + t) % 9 == 0);
    (shape, input)
}

#[test]
fn bandwidth_starvation_dominates_latency() {
    let (shape, input) = workload();
    let healthy = SimInputs::hpca22(8);
    let mut starved = healthy;
    // 1000x less DRAM bandwidth: the layer must become memory-bound and
    // slow down by roughly the bandwidth deficit.
    starved.arch.dram_bandwidth_bytes_per_s = healthy.arch.dram_bandwidth_bytes_per_s / 1000.0;
    let h = simulate_layer(&healthy, Policy::ptb(), shape, &input);
    let s = simulate_layer(&starved, Policy::ptb(), shape, &input);
    assert!(
        s.cycles > h.cycles * 10,
        "{} !> {}",
        s.cycles,
        h.cycles * 10
    );
    // Energy is traffic-driven, not time-driven: unchanged.
    assert!((s.energy_joules() - h.energy_joules()).abs() < 1e-12);
}

#[test]
fn infinite_bandwidth_makes_compute_the_bound() {
    let (shape, input) = workload();
    let mut inputs = SimInputs::hpca22(8);
    inputs.arch.dram_bandwidth_bytes_per_s = 1e18;
    let r = simulate_layer(&inputs, Policy::ptb(), shape, &input);
    // With free DRAM, more bandwidth cannot help further.
    let mut inputs2 = inputs;
    inputs2.arch.dram_bandwidth_bytes_per_s = 1e19;
    let r2 = simulate_layer(&inputs2, Policy::ptb(), shape, &input);
    assert_eq!(r.cycles, r2.cycles);
}

#[test]
#[should_panic]
fn tw_beyond_scratchpad_rejected() {
    // 16-bit potentials shrink the 96-byte scratchpad to 48 psum slots;
    // TW = 64 no longer fits and must be refused up front.
    let mut inputs = SimInputs::hpca22(64);
    inputs.arch.potential_bits = 16;
    inputs.assert_valid();
}

#[test]
fn tiny_buffers_force_more_offchip_traffic() {
    let (shape, input) = workload();
    let big = SimInputs::hpca22(8);
    let mut small = big;
    small.arch.global_buffer_bytes = 256;
    small.arch.l1_bytes = 64;
    small.arch.scratchpad_bytes = 96;
    small.arch.validate().unwrap();
    let r_big = simulate_layer(&big, Policy::ptb(), shape, &input);
    let r_small = simulate_layer(&small, Policy::ptb(), shape, &input);
    assert!(
        r_small.counts.dram_traffic_bits() >= r_big.counts.dram_traffic_bits(),
        "shrinking on-chip storage must not reduce DRAM traffic"
    );
    assert!(r_small.energy_joules() >= r_big.energy_joules());
}

#[test]
fn degenerate_single_pe_array_still_simulates() {
    use ptb_snn::systolic_sim::array::ArrayDims;
    let (shape, input) = workload();
    let inputs = SimInputs {
        arch: ArchConfig::hpca22().with_array(ArrayDims::new(1, 1)),
        energy: EnergyModel::cacti_32nm(),
        tw_size: 8,
    };
    let one = simulate_layer(&inputs, Policy::ptb(), shape, &input);
    let full = simulate_layer(&SimInputs::hpca22(8), Policy::ptb(), shape, &input);
    assert!(one.cycles > full.cycles, "1 PE cannot beat 128");
    assert_eq!(one.useful_ops, full.useful_ops, "same work, just slower");
}

#[test]
fn single_timestep_period_works() {
    let (shape, _) = workload();
    let input = SpikeTensor::from_fn(shape.ifmap_neurons(), 1, |n, _| n % 4 == 0);
    for policy in [
        Policy::ptb(),
        Policy::ptb_with_stsap(),
        Policy::BaselineTemporal,
        Policy::TimeSerial,
        Policy::EventDriven,
    ] {
        let r = simulate_layer(&SimInputs::hpca22(8), policy, shape, &input);
        assert!(r.cycles > 0, "{:?}", policy);
    }
}

#[test]
fn one_spike_total_is_handled_by_everyone() {
    let (shape, _) = workload();
    let mut input = SpikeTensor::new(shape.ifmap_neurons(), 32);
    input.set(0, 17, true);
    let ptb = simulate_layer(&SimInputs::hpca22(8), Policy::ptb(), shape, &input);
    // Neuron 0 sits in the RFs of a few output positions only.
    assert!(ptb.useful_ops > 0);
    assert!(
        ptb.useful_ops <= 9 * 16,
        "one spike, <= R*R positions x M channels"
    );
}

#[test]
fn executor_survives_extreme_geometries() {
    use ptb_snn::ptb_accel::schedule::PtbExecutor;
    use ptb_snn::snn_core::layer::SpikingConv;
    use ptb_snn::snn_core::neuron::NeuronConfig;
    use ptb_snn::systolic_sim::array::ArrayDims;
    let shape = ConvShape::new(5, 3, 2, 3, 1).unwrap();
    let layer = SpikingConv::from_fn(shape, NeuronConfig::if_model(0.5), |m, c, i, j| {
        ((m + c + i + j) % 3) as f32 * 0.25
    });
    let input = SpikeTensor::from_fn(shape.ifmap_neurons(), 13, |n, t| (n + t) % 4 == 0);
    let reference = layer.forward(&input).unwrap();
    for dims in [
        ArrayDims::new(1, 1),
        ArrayDims::new(1, 16),
        ArrayDims::new(16, 1),
        ArrayDims::new(3, 5),
    ] {
        for tw in [1u32, 5, 13, 64] {
            let out = PtbExecutor::new(dims, tw, true)
                .run_conv(&layer, &input)
                .unwrap();
            assert_eq!(out, reference, "dims={dims} tw={tw}");
        }
    }
}
