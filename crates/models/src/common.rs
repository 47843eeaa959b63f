//! The model-zoo trait and whole-model surgery helpers.

use std::any::Any;

use wa_core::{ConvAlgo, ConvLayer, ConvSpec};
use wa_nn::{
    BatchNorm2d, BatchNormSpec, Conv2d, Conv2dSpec, Layer, Linear, LinearSpec, Node, QuantConfig,
    WaError,
};
use wa_tensor::SeededRng;

/// A CNN whose 3×3 (or 5×5) convolutions can be re-implemented with any
/// [`ConvAlgo`] — the interface the paper's experiments (Tables 1/3/4/5,
/// Figures 4/5/6) and wiNAS operate on.
pub trait ConvNet: Layer {
    /// Mutable access to the swappable convolution layers, in network
    /// order: every [`ConvLayer`] of the child tree. 1×1 convolutions and
    /// the input layer are plain [`Conv2d`]s and so *not* included: the
    /// paper fixes both to direct convolution (§5.1, A.3).
    fn conv_layers_mut(&mut self) -> Vec<&mut ConvLayer> {
        let mut out = Vec::new();
        for c in self.children_mut() {
            collect_convs(c, &mut out);
        }
        out
    }

    /// Model name for logs.
    fn model_name(&self) -> &str;

    /// Number of swappable convolution layers.
    fn conv_count(&mut self) -> usize {
        self.conv_layers_mut().len()
    }

    /// The current [`ConvSpec`] of every swappable layer, in network
    /// order — the model's searchable state as data.
    fn conv_specs(&mut self) -> Vec<ConvSpec> {
        self.conv_layers_mut().iter().map(|l| l.spec()).collect()
    }
}

/// Depth-first walk of the child tree collecting the [`ConvLayer`]s.
fn collect_convs<'a>(node: &'a mut dyn Node, out: &mut Vec<&'a mut ConvLayer>) {
    if (&*node as &dyn Any).is::<ConvLayer>() {
        let any: &mut dyn Any = node;
        out.extend(any.downcast_mut::<ConvLayer>());
    } else {
        for c in node.children_mut() {
            collect_convs(c, out);
        }
    }
}

/// Converts every swappable convolution to `algo`, pinning the **last**
/// `pin_last_f2` layers to F2 instead — the paper's policy for ResNet-18:
/// "all layers in the network use the same tile size, except the last two
/// residual blocks which are kept fixed to F2" (§5.1).
///
/// Weights are preserved (surgery), so this implements both the Table 1
/// post-training swap and the network construction for Winograd-aware
/// training.
///
/// # Errors
///
/// [`WaError::UnsupportedAlgo`] if any layer cannot implement `algo`;
/// already-converted layers keep their new algorithm (convert a valid
/// uniform config, or inspect [`current_algos`], to recover).
pub fn convert_convs(
    net: &mut dyn ConvNet,
    algo: ConvAlgo,
    pin_last_f2: usize,
) -> Result<(), WaError> {
    let mut layers = net.conv_layers_mut();
    let n = layers.len();
    for (i, layer) in layers.iter_mut().enumerate() {
        let target = if i + pin_last_f2 >= n && algo.tile_m().map(|m| m > 2).unwrap_or(false) {
            match algo {
                ConvAlgo::WinogradFlex { .. } => ConvAlgo::WinogradFlex { m: 2 },
                _ => ConvAlgo::Winograd { m: 2 },
            }
        } else {
            algo
        };
        layer.try_convert(target)?;
    }
    Ok(())
}

/// Applies per-layer algorithm assignments (e.g. a wiNAS result).
///
/// # Errors
///
/// [`WaError::InvalidSpec`] if `algos.len()` differs from the layer
/// count (no layer is touched); [`WaError::UnsupportedAlgo`] if an
/// assignment cannot implement its layer.
pub fn apply_algos(net: &mut dyn ConvNet, algos: &[ConvAlgo]) -> Result<(), WaError> {
    let mut layers = net.conv_layers_mut();
    if layers.len() != algos.len() {
        return Err(WaError::invalid(
            "ModelSpec",
            "overrides",
            format!(
                "expected {} algo assignments, got {}",
                layers.len(),
                algos.len()
            ),
        ));
    }
    for (layer, &algo) in layers.iter_mut().zip(algos) {
        layer.try_convert(algo)?;
    }
    Ok(())
}

/// Reads back the current per-layer algorithms.
pub fn current_algos(net: &mut dyn ConvNet) -> Vec<ConvAlgo> {
    net.conv_layers_mut().iter().map(|l| l.algo()).collect()
}

/// Sets the quantization config on every swappable convolution.
pub fn set_conv_quant(net: &mut dyn ConvNet, q: QuantConfig) {
    for layer in net.conv_layers_mut() {
        layer.set_quant(q);
    }
}

/// Applies per-layer quantization assignments (wiNAS-Q results).
///
/// # Errors
///
/// [`WaError::InvalidSpec`] if lengths disagree (no layer is touched).
pub fn apply_quants(net: &mut dyn ConvNet, quants: &[QuantConfig]) -> Result<(), WaError> {
    let mut layers = net.conv_layers_mut();
    if layers.len() != quants.len() {
        return Err(WaError::invalid(
            "ModelSpec",
            "overrides",
            format!(
                "expected {} quant assignments, got {}",
                layers.len(),
                quants.len()
            ),
        ));
    }
    for (layer, &q) in layers.iter_mut().zip(quants) {
        layer.set_quant(q);
    }
    Ok(())
}

/// Scales a channel count by a width multiplier, keeping at least one
/// channel (the MobileNet-style sweep of paper Figure 4).
pub fn scale_width(base: usize, width: f64) -> usize {
    ((base as f64 * width).round() as usize).max(1)
}

// ---- construction helpers shared by the zoo ---------------------------

/// A swappable convolution (starts as im2row; surgery re-implements it).
pub(crate) fn swappable_conv(
    name: &str,
    in_ch: usize,
    out_ch: usize,
    kernel: usize,
    pad: usize,
    quant: QuantConfig,
    rng: &mut SeededRng,
) -> Result<ConvLayer, WaError> {
    let spec = ConvSpec::builder()
        .name(name)
        .in_channels(in_ch)
        .out_channels(out_ch)
        .kernel(kernel)
        .pad(pad)
        .quant(quant)
        .build()?;
    ConvLayer::from_spec(&spec, rng)
}

/// A fixed (never swapped) direct 3×3 "same" convolution — the stems.
pub(crate) fn stem_conv3x3(
    name: &str,
    in_ch: usize,
    out_ch: usize,
    quant: QuantConfig,
    rng: &mut SeededRng,
) -> Result<Conv2d, WaError> {
    let spec = Conv2dSpec::builder(name)
        .in_channels(in_ch)
        .out_channels(out_ch)
        .quant(quant)
        .build()?;
    Conv2d::from_spec(&spec, rng)
}

/// A fixed 1×1 convolution (projections, squeeze/expand, classifiers).
pub(crate) fn conv1x1(
    name: &str,
    in_ch: usize,
    out_ch: usize,
    bias: bool,
    quant: QuantConfig,
    rng: &mut SeededRng,
) -> Result<Conv2d, WaError> {
    let spec = Conv2dSpec::builder(name)
        .in_channels(in_ch)
        .out_channels(out_ch)
        .kernel(1)
        .bias(bias)
        .quant(quant)
        .build()?;
    Conv2d::from_spec(&spec, rng)
}

/// A batch-norm layer with default momentum/eps.
pub(crate) fn bn(name: &str, channels: usize) -> Result<BatchNorm2d, WaError> {
    BatchNorm2d::from_spec(&BatchNormSpec::builder(name).channels(channels).build()?)
}

/// A fully connected head.
pub(crate) fn linear(
    name: &str,
    in_features: usize,
    out_features: usize,
    quant: QuantConfig,
    rng: &mut SeededRng,
) -> Result<Linear, WaError> {
    let spec = LinearSpec::builder(name)
        .in_features(in_features)
        .out_features(out_features)
        .quant(quant)
        .build()?;
    Linear::from_spec(&spec, rng)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_width_rounds_and_floors() {
        assert_eq!(scale_width(64, 1.0), 64);
        assert_eq!(scale_width(64, 0.125), 8);
        assert_eq!(scale_width(3, 0.125), 1);
    }
}
