//! Layer-by-layer network execution (Section II-C of the paper).
//!
//! The accelerator processes a deep SNN "in a layer-by-layer manner";
//! this module provides the functional equivalent: a [`Network`] chains
//! spiking layers and [`Network::run`] returns the full activity trace —
//! the per-layer spike tensors that the accelerator model schedules.

use crate::error::{Result, SnnError};
use crate::layer::{SpikingConv, SpikingFc};
use crate::shape::LayerShape;
use crate::spike::SpikeTensor;

/// Any supported spiking layer kind.
#[derive(Debug, Clone, PartialEq)]
pub enum Layer {
    /// A spiking convolutional layer.
    Conv(SpikingConv),
    /// A spiking fully-connected layer.
    Fc(SpikingFc),
}

impl Layer {
    /// The layer's shape descriptor.
    pub fn shape(&self) -> LayerShape {
        match self {
            Layer::Conv(l) => LayerShape::Conv(l.shape()),
            Layer::Fc(l) => LayerShape::Fc(l.shape()),
        }
    }

    /// Number of pre-synaptic neurons the layer consumes.
    pub fn input_neurons(&self) -> usize {
        match self {
            Layer::Conv(l) => l.shape().ifmap_neurons(),
            Layer::Fc(l) => l.shape().inputs() as usize,
        }
    }

    /// Number of neurons the layer produces.
    pub fn output_neurons(&self) -> usize {
        match self {
            Layer::Conv(l) => l.shape().ofmap_neurons(),
            Layer::Fc(l) => l.shape().outputs() as usize,
        }
    }

    /// Runs the layer's forward pass.
    ///
    /// # Errors
    ///
    /// Propagates the layer's dimension check.
    pub fn forward(&self, input: &SpikeTensor) -> Result<SpikeTensor> {
        match self {
            Layer::Conv(l) => l.forward(input),
            Layer::Fc(l) => l.forward(input),
        }
    }
}

impl From<SpikingConv> for Layer {
    fn from(l: SpikingConv) -> Self {
        Layer::Conv(l)
    }
}

impl From<SpikingFc> for Layer {
    fn from(l: SpikingFc) -> Self {
        Layer::Fc(l)
    }
}

/// A feed-forward spiking network.
///
/// ```
/// use snn_core::network::Network;
/// use snn_core::layer::SpikingFc;
/// use snn_core::shape::FcShape;
/// use snn_core::neuron::NeuronConfig;
/// use snn_core::spike::SpikeTensor;
///
/// let mut net = Network::new();
/// net.push(SpikingFc::from_fn(
///     FcShape::new(4, 2).unwrap(),
///     NeuronConfig::if_model(1.0),
///     |_, _| 0.6,
/// ));
/// let trace = net.run(&SpikeTensor::full(4, 5)).unwrap();
/// assert_eq!(trace.layer_outputs().len(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Network {
    layers: Vec<Layer>,
}

impl Network {
    /// Creates an empty network.
    pub fn new() -> Self {
        Network { layers: Vec::new() }
    }

    /// Appends a layer.
    ///
    /// # Panics
    ///
    /// Panics if the layer's input size does not match the previous
    /// layer's output size; use [`Network::try_push`] for the fallible
    /// variant.
    pub fn push(&mut self, layer: impl Into<Layer>) -> &mut Self {
        self.try_push(layer).expect("layer dimensions must chain");
        self
    }

    /// Appends a layer, checking that dimensions chain.
    ///
    /// # Errors
    ///
    /// Returns [`SnnError::DimensionMismatch`] if the new layer's input
    /// neuron count differs from the previous layer's output count.
    pub fn try_push(&mut self, layer: impl Into<Layer>) -> Result<&mut Self> {
        let layer = layer.into();
        if let Some(prev) = self.layers.last() {
            let expected = prev.output_neurons();
            let actual = layer.input_neurons();
            if expected != actual {
                return Err(SnnError::DimensionMismatch {
                    expected,
                    actual,
                    what: "neurons",
                });
            }
        }
        self.layers.push(layer);
        Ok(self)
    }

    /// The layers in execution order.
    pub fn layers(&self) -> &[Layer] {
        &self.layers
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// True when the network has no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Runs the network on `input`, recording every layer's output.
    ///
    /// # Errors
    ///
    /// Propagates dimension mismatches from any layer.
    pub fn run(&self, input: &SpikeTensor) -> Result<ActivityTrace> {
        let mut outputs = Vec::with_capacity(self.layers.len());
        let mut current = input.clone();
        for layer in &self.layers {
            let next = layer.forward(&current)?;
            outputs.push(next.clone());
            current = next;
        }
        Ok(ActivityTrace {
            input: input.clone(),
            outputs,
        })
    }

    /// Spike counts of the final layer, a simple rate-decoding readout:
    /// the predicted class is the output neuron with the most spikes.
    ///
    /// # Errors
    ///
    /// Propagates dimension mismatches from any layer.
    pub fn classify(&self, input: &SpikeTensor) -> Result<usize> {
        let trace = self.run(input)?;
        let last = trace
            .outputs
            .last()
            .ok_or_else(|| SnnError::invalid_config("cannot classify with an empty network"))?;
        Ok((0..last.neurons())
            .max_by_key(|&n| last.fire_count(n))
            .unwrap_or(0))
    }
}

/// The recorded activity of one network run: the input tensor plus each
/// layer's output spikes. This is exactly what the accelerator model
/// consumes (the spike activity "extracted from the trained models",
/// Section V-C).
#[derive(Debug, Clone)]
pub struct ActivityTrace {
    input: SpikeTensor,
    outputs: Vec<SpikeTensor>,
}

impl ActivityTrace {
    /// The network input.
    pub fn input(&self) -> &SpikeTensor {
        &self.input
    }

    /// Every layer's output tensor, in execution order.
    pub fn layer_outputs(&self) -> &[SpikeTensor] {
        &self.outputs
    }

    /// The spike tensor *feeding* layer `i` (the input for `i == 0`).
    pub fn layer_input(&self, i: usize) -> &SpikeTensor {
        if i == 0 {
            &self.input
        } else {
            &self.outputs[i - 1]
        }
    }

    /// Mean firing rate per layer output, useful for sparsity reporting.
    pub fn layer_rates(&self) -> Vec<f64> {
        self.outputs.iter().map(|o| o.mean_rate()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::neuron::NeuronConfig;
    use crate::shape::{ConvShape, FcShape};

    fn fc(inp: u32, out: u32, w: f32) -> SpikingFc {
        SpikingFc::from_fn(
            FcShape::new(inp, out).unwrap(),
            NeuronConfig::if_model(1.0),
            move |_, _| w,
        )
    }

    #[test]
    fn push_checks_chaining() {
        let mut net = Network::new();
        net.push(fc(4, 8, 0.5));
        assert!(net.try_push(fc(9, 2, 0.5)).is_err());
        assert!(net.try_push(fc(8, 2, 0.5)).is_ok());
        assert_eq!(net.len(), 2);
    }

    #[test]
    fn conv_then_fc_chains() {
        let conv = SpikingConv::from_fn(
            ConvShape::new(4, 3, 1, 2, 1).unwrap(),
            NeuronConfig::if_model(0.5),
            |_, _, _, _| 0.3,
        );
        // conv output: 2 channels * 2x2 = 8 neurons
        let mut net = Network::new();
        net.push(conv);
        net.push(fc(8, 3, 0.4));
        let trace = net.run(&SpikeTensor::full(16, 6)).unwrap();
        assert_eq!(trace.layer_outputs().len(), 2);
        assert_eq!(trace.layer_outputs()[1].neurons(), 3);
        assert_eq!(trace.layer_input(1).neurons(), 8);
    }

    #[test]
    fn run_on_empty_network_returns_empty_trace() {
        let net = Network::new();
        let trace = net.run(&SpikeTensor::full(4, 3)).unwrap();
        assert!(trace.layer_outputs().is_empty());
        assert_eq!(trace.input().neurons(), 4);
    }

    #[test]
    fn classify_picks_highest_rate_output() {
        // Output 0 gets weight 1.0 from every input (always fires),
        // output 1 gets 0 weight (never fires).
        let layer = SpikingFc::from_fn(
            FcShape::new(2, 2).unwrap(),
            NeuronConfig::if_model(1.0),
            |o, _| if o == 0 { 1.0 } else { 0.0 },
        );
        let mut net = Network::new();
        net.push(layer);
        assert_eq!(net.classify(&SpikeTensor::full(2, 5)).unwrap(), 0);
        assert!(Network::new().classify(&SpikeTensor::full(2, 5)).is_err());
    }

    #[test]
    fn trace_layer_rates() {
        let mut net = Network::new();
        net.push(fc(2, 2, 1.0)); // fires every step with full input
        let trace = net.run(&SpikeTensor::full(2, 4)).unwrap();
        assert_eq!(trace.layer_rates(), vec![1.0]);
    }
}
