//! ResNet-18, modified for CIFAR and Winograd as in the paper (§5.1):
//!
//! * stride-2 convolutions replaced by 2×2 max-pool + dense 3×3 conv
//!   ("there is no known equivalent for strided Winograd convolutions");
//! * the stem outputs 32 channels instead of 64 (memory peak reduction);
//! * the stem uses normal (direct) convolution — only the 16 block convs
//!   are Winograd-swappable;
//! * width multiplier 0.125–1.0 scales every channel count (Figure 4).

use wa_core::{ConvAlgo, ConvLayer};
use wa_nn::{
    children, residual_trunk, BasicBody, BatchNorm2d, Composite, Conv2d, Flow, Linear, QuantConfig,
    Residual, Tape, Var, WaError,
};
use wa_tensor::SeededRng;

use crate::common::{
    bn, conv1x1, convert_convs, linear, scale_width, stem_conv3x3, swappable_conv, ConvNet,
};
use crate::spec::ModelSpec;

/// Two 3×3 convolutions with identity (or 1×1-projected) shortcut; the
/// downsampling variant max-pools its input first.
type BasicBlock = Residual<BasicBody<ConvLayer>>;

fn basic_block(
    name: &str,
    in_ch: usize,
    out_ch: usize,
    downsample: bool,
    quant: QuantConfig,
    rng: &mut SeededRng,
) -> Result<BasicBlock, WaError> {
    let conv1 = swappable_conv(&format!("{name}.conv1"), in_ch, out_ch, 3, 1, quant, rng)?;
    let conv2 = swappable_conv(&format!("{name}.conv2"), out_ch, out_ch, 3, 1, quant, rng)?;
    let shortcut = if in_ch != out_ch {
        Some((
            conv1x1(&format!("{name}.proj"), in_ch, out_ch, false, quant, rng)?,
            bn(&format!("{name}.proj_bn"), out_ch)?,
        ))
    } else {
        None
    };
    Ok(Residual {
        body: BasicBody {
            conv1,
            bn1: bn(&format!("{name}.bn1"), out_ch)?,
            conv2,
            bn2: bn(&format!("{name}.bn2"), out_ch)?,
        },
        shortcut,
        downsample,
    })
}

/// The paper's ResNet-18 variant (see module docs).
///
/// # Example
///
/// ```
/// use wa_core::ConvAlgo;
/// use wa_models::{ConvNet, ModelSpec, ResNet18};
/// use wa_nn::{Layer, Tape};
/// use wa_tensor::SeededRng;
///
/// let mut rng = SeededRng::new(0);
/// let spec = ModelSpec::builder()
///     .classes(10)
///     .width(0.125)
///     .algo(ConvAlgo::Winograd { m: 4 }) // last two blocks pinned to F2
///     .build()?;
/// let mut net = ResNet18::from_spec(&spec, &mut rng)?;
/// assert_eq!(net.conv_count(), 16); // the 16 swappable 3×3 convs
/// let mut tape = Tape::new();
/// let x = tape.leaf(rng.uniform_tensor(&[1, 3, 16, 16], -1.0, 1.0));
/// let y = net.forward(&mut tape, x, false);
/// assert_eq!(tape.value(y).shape(), &[1, 10]);
/// # Ok::<(), wa_nn::WaError>(())
/// ```
pub struct ResNet18 {
    stem: Conv2d,
    stem_bn: BatchNorm2d,
    blocks: Vec<BasicBlock>,
    head: Linear,
    width: f64,
}

impl ResNet18 {
    /// Builds the network from a validated [`ModelSpec`]: construction,
    /// the uniform algorithm (with the paper's F2 pinning policy), then
    /// per-layer overrides.
    ///
    /// # Errors
    ///
    /// [`WaError::InvalidSpec`] / [`WaError::UnsupportedAlgo`] if the
    /// spec is invalid or an override index is out of range.
    pub fn from_spec(spec: &ModelSpec, rng: &mut SeededRng) -> Result<ResNet18, WaError> {
        spec.validate()?;
        let quant = spec.quant;
        let stem_ch = scale_width(32, spec.width);
        let chans = [
            scale_width(64, spec.width),
            scale_width(128, spec.width),
            scale_width(256, spec.width),
            scale_width(512, spec.width),
        ];
        let stem = stem_conv3x3("stem", 3, stem_ch, quant, rng)?;
        let stem_bn = bn("stem_bn", stem_ch)?;
        let mut blocks = Vec::with_capacity(8);
        let mut in_ch = stem_ch;
        for (stage, &out_ch) in chans.iter().enumerate() {
            for b in 0..2 {
                let downsample = stage > 0 && b == 0;
                blocks.push(basic_block(
                    &format!("layer{}.{}", stage + 1, b),
                    in_ch,
                    out_ch,
                    downsample,
                    quant,
                    rng,
                )?);
                in_ch = out_ch;
            }
        }
        let head = linear("fc", chans[3], spec.classes, quant, rng)?;
        let mut net = ResNet18 {
            stem,
            stem_bn,
            blocks,
            head,
            width: spec.width,
        };
        net.try_set_algo(spec.algo)?;
        spec.check_override_bounds(net.conv_count())?;
        for &(idx, algo) in &spec.overrides {
            net.conv_layers_mut()[idx].try_convert(algo)?;
        }
        Ok(net)
    }

    /// Applies a uniform algorithm with the paper's policy: the last two
    /// residual blocks (4 convs) are pinned to F2 whenever `algo` uses a
    /// tile larger than F2.
    ///
    /// # Errors
    ///
    /// [`WaError::UnsupportedAlgo`] if `algo` is unusable.
    pub fn try_set_algo(&mut self, algo: ConvAlgo) -> Result<(), WaError> {
        convert_convs(self, algo, 4)
    }

    /// Panicking wrapper around [`ResNet18::try_set_algo`] for
    /// experiment code using known-good algorithms.
    ///
    /// # Panics
    ///
    /// Panics if `algo` is unusable.
    pub fn set_algo(&mut self, algo: ConvAlgo) {
        self.try_set_algo(algo)
            .unwrap_or_else(|e| panic!("set_algo({algo}): {e}"));
    }

    /// Width multiplier used at construction.
    pub fn width(&self) -> f64 {
        self.width
    }
}

impl Composite for ResNet18 {
    children!(stem, stem_bn, blocks, head);

    fn dataflow(flow: &mut Flow<'_, Self>, tape: &mut Tape, x: Var) -> Result<Var, WaError> {
        let blocks = flow.blocks.len();
        residual_trunk(flow, tape, x, blocks)
    }

    fn check_input(&self, shape: &[usize]) -> Result<(), WaError> {
        if shape.len() != 4 || shape[1] != 3 {
            return Err(WaError::shape("ResNet18 input", &[0, 3, 0, 0], shape));
        }
        // the three downsampling stages each max-pool (even dims needed),
        // so spatial dims must be divisible by 8
        if shape[2] == 0 || !shape[2].is_multiple_of(8) || !shape[3].is_multiple_of(8) {
            return Err(WaError::shape(
                "ResNet18 input (spatial dims must be nonzero multiples of 8 \
                 for the three max-pool stages)",
                &[0, 3, 8, 8],
                shape,
            ));
        }
        Ok(())
    }
}

impl ConvNet for ResNet18 {
    fn model_name(&self) -> &str {
        "ResNet-18"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::current_algos;
    use wa_nn::Layer;

    fn basic(classes: usize, width: f64) -> ModelSpec {
        ModelSpec::builder()
            .classes(classes)
            .width(width)
            .build()
            .unwrap()
    }

    #[test]
    fn sixteen_swappable_convs() {
        let mut rng = SeededRng::new(0);
        let mut net = ResNet18::from_spec(&basic(10, 0.125), &mut rng).unwrap();
        assert_eq!(net.conv_count(), 16);
    }

    #[test]
    fn full_width_parameter_count_near_11m() {
        let mut rng = SeededRng::new(1);
        let mut net = ResNet18::from_spec(&basic(10, 1.0), &mut rng).unwrap();
        let params = net.param_count();
        assert!(
            (10_000_000..13_000_000).contains(&params),
            "full ResNet-18 should be ≈11M params, got {}",
            params
        );
    }

    #[test]
    fn eighth_width_parameter_count_near_215k() {
        // paper §5.1: models range between 215K and 11M parameters
        let mut rng = SeededRng::new(2);
        let mut net = ResNet18::from_spec(&basic(10, 0.125), &mut rng).unwrap();
        let params = net.param_count();
        assert!(
            (120_000..320_000).contains(&params),
            "0.125-width ResNet-18 should be ≈215K params, got {}",
            params
        );
    }

    #[test]
    fn forward_shape_and_downsampling() {
        let mut rng = SeededRng::new(3);
        let mut net = ResNet18::from_spec(&basic(7, 0.125), &mut rng).unwrap();
        let mut tape = Tape::new();
        let x = tape.leaf(rng.uniform_tensor(&[2, 3, 16, 16], -1.0, 1.0));
        let y = net.try_forward(&mut tape, x, true).unwrap();
        assert_eq!(tape.value(y).shape(), &[2, 7]);
    }

    #[test]
    fn try_forward_rejects_wrong_input_channels() {
        let mut rng = SeededRng::new(9);
        let mut net = ResNet18::from_spec(&basic(10, 0.125), &mut rng).unwrap();
        let mut tape = Tape::new();
        let x = tape.leaf(rng.uniform_tensor(&[1, 4, 16, 16], -1.0, 1.0));
        assert!(matches!(
            net.try_forward(&mut tape, x, false),
            Err(WaError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn spec_algo_pins_last_two_blocks_to_f2() {
        let mut rng = SeededRng::new(4);
        let spec = ModelSpec::builder()
            .classes(10)
            .width(0.125)
            .algo(ConvAlgo::Winograd { m: 4 })
            .build()
            .unwrap();
        let mut net = ResNet18::from_spec(&spec, &mut rng).unwrap();
        let algos = current_algos(&mut net);
        assert_eq!(algos.len(), 16);
        for a in &algos[..12] {
            assert_eq!(*a, ConvAlgo::Winograd { m: 4 });
        }
        for a in &algos[12..] {
            assert_eq!(
                *a,
                ConvAlgo::Winograd { m: 2 },
                "last two blocks must be F2"
            );
        }
        // F2 itself is not pinned
        net.try_set_algo(ConvAlgo::Winograd { m: 2 }).unwrap();
        assert!(current_algos(&mut net)
            .iter()
            .all(|a| *a == ConvAlgo::Winograd { m: 2 }));
    }

    #[test]
    fn overrides_apply_after_uniform_algo() {
        let mut rng = SeededRng::new(6);
        let spec = ModelSpec::builder()
            .classes(10)
            .width(0.125)
            .algo(ConvAlgo::Winograd { m: 2 })
            .override_layer(0, ConvAlgo::Im2row)
            .override_layer(3, ConvAlgo::WinogradFlex { m: 4 })
            .build()
            .unwrap();
        let mut net = ResNet18::from_spec(&spec, &mut rng).unwrap();
        let algos = current_algos(&mut net);
        assert_eq!(algos[0], ConvAlgo::Im2row);
        assert_eq!(algos[3], ConvAlgo::WinogradFlex { m: 4 });
        assert_eq!(algos[1], ConvAlgo::Winograd { m: 2 });
    }

    #[test]
    fn out_of_range_override_is_rejected() {
        let mut rng = SeededRng::new(7);
        let spec = ModelSpec::builder()
            .classes(10)
            .width(0.125)
            .override_layer(16, ConvAlgo::Winograd { m: 2 })
            .build()
            .unwrap();
        let Err(err) = ResNet18::from_spec(&spec, &mut rng) else {
            panic!("out-of-range override must be rejected")
        };
        assert!(
            matches!(
                err,
                WaError::InvalidSpec {
                    field: "overrides",
                    ..
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn width_scales_channels() {
        let mut rng = SeededRng::new(5);
        let mut half = ResNet18::from_spec(&basic(10, 0.5), &mut rng).unwrap();
        let mut full = ResNet18::from_spec(&basic(10, 1.0), &mut rng).unwrap();
        assert!(half.param_count() < full.param_count() / 3);
    }
}
