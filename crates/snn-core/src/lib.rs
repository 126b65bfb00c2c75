//! # snn-core
//!
//! Spiking neural network (SNN) substrate for the Parallel Time Batching
//! (PTB) accelerator reproduction (Lee, Zhang & Li, HPCA 2022).
//!
//! This crate provides everything needed to *functionally* simulate the
//! spiking convolutional networks (S-CNNs) that the accelerator model in
//! `ptb-accel` schedules:
//!
//! * [`shape`] — layer shape parameters (Table I of the paper) and the
//!   three benchmark network topologies are built from these.
//! * [`neuron`] — leaky integrate-and-fire (LIF) and integrate-and-fire
//!   (IF) neuron dynamics (Eqs. 1–3).
//! * [`spike`] — compact bit-packed spatiotemporal spike tensors, the
//!   lingua franca between the functional simulator, the synthetic
//!   activity generators, and the accelerator model.
//! * [`tensor`] — minimal dense tensors for weights and membrane state.
//! * [`layer`] — spiking CONV / FC layer forward simulation (Eqs. 4–6).
//! * [`network`] — layer-by-layer network execution with activity
//!   recording.
//! * [`encode`] — rate and latency encoders turning analog frames into
//!   spike trains.
//! * [`learn`] — a small surrogate-gradient-free delta-rule trainer used
//!   to demonstrate that the substrate genuinely learns (Table VI
//!   stand-in; see DESIGN.md §5).
//!
//! ## Example
//!
//! ```
//! use snn_core::shape::ConvShape;
//! use snn_core::layer::SpikingConv;
//! use snn_core::neuron::NeuronConfig;
//! use snn_core::spike::SpikeTensor;
//!
//! // A tiny 2-channel 8x8 input, 4 output channels, 3x3 kernel.
//! let shape = ConvShape::new(8, 3, 2, 4, 1).unwrap();
//! let mut layer = SpikingConv::zeros(shape, NeuronConfig::lif(1.0, 0.01));
//! layer.fill_weights(|_, _, _, _| 0.25);
//! let input = SpikeTensor::full(shape.ifmap_neurons(), 16);
//! let out = layer.forward(&input).unwrap();
//! assert_eq!(out.neurons(), shape.ofmap_neurons());
//! assert_eq!(out.timesteps(), 16);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod bptt;
pub mod encode;
pub mod error;
pub mod layer;
pub mod learn;
pub mod network;
pub mod neuron;
pub mod quant;
pub mod recurrent;
pub mod repr;
pub mod shape;
pub mod spike;
pub mod tensor;

pub use error::{Result, SnnError};
pub use neuron::{NeuronConfig, NeuronKind};
pub use shape::{ConvShape, FcShape, LayerShape};
pub use spike::SpikeTensor;
