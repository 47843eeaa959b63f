//! SqueezeNet (Iandola et al. 2016), CIFAR-sized, with Winograd-swappable
//! expand-3×3 convolutions — the Table 4 architecture. It has 8 swappable
//! 3×3 layers (one per fire module), which the paper credits for its
//! milder INT8/F4 degradation versus ResNet-18's 16.

use wa_core::{ConvAlgo, ConvLayer};
use wa_nn::{children, BatchNorm2d, Composite, Conv2d, Flow, QuantConfig, Tape, Var, WaError};
use wa_tensor::SeededRng;

use crate::common::{
    bn, conv1x1, convert_convs, scale_width, stem_conv3x3, swappable_conv, ConvNet,
};
use crate::spec::ModelSpec;

/// Fire module: 1×1 squeeze, then parallel 1×1 and 3×3 expands,
/// channel-concatenated. Only the 3×3 expand is Winograd-swappable.
struct Fire {
    squeeze: Conv2d,
    expand1: Conv2d,
    expand3: ConvLayer,
}

impl Fire {
    fn new(
        name: &str,
        in_ch: usize,
        squeeze_ch: usize,
        expand_ch: usize,
        quant: QuantConfig,
        rng: &mut SeededRng,
    ) -> Result<Fire, WaError> {
        Ok(Fire {
            squeeze: conv1x1(
                &format!("{name}.squeeze"),
                in_ch,
                squeeze_ch,
                true,
                quant,
                rng,
            )?,
            expand1: conv1x1(
                &format!("{name}.expand1"),
                squeeze_ch,
                expand_ch,
                true,
                quant,
                rng,
            )?,
            expand3: swappable_conv(
                &format!("{name}.expand3"),
                squeeze_ch,
                expand_ch,
                3,
                1,
                quant,
                rng,
            )?,
        })
    }

    fn out_channels(&self) -> usize {
        self.expand1.out_channels() * 2
    }
}

impl Composite for Fire {
    children!(squeeze, expand1, expand3);

    fn dataflow(flow: &mut Flow<'_, Self>, tape: &mut Tape, x: Var) -> Result<Var, WaError> {
        let s = flow.call(tape, 0, x)?;
        let s = tape.relu(s);
        let e1 = flow.call(tape, 1, s)?;
        let e3 = flow.call(tape, 2, s)?;
        let cat = tape.concat_chan(&[e1, e3]);
        Ok(tape.relu(cat))
    }
}

/// CIFAR-sized SqueezeNet: 3×3 stem, eight fire modules with two
/// max-pool stages, 1×1 classifier conv and global average pooling.
///
/// # Example
///
/// ```
/// use wa_models::{ConvNet, ModelSpec, SqueezeNet};
/// use wa_tensor::SeededRng;
///
/// let mut rng = SeededRng::new(0);
/// let spec = ModelSpec::builder().classes(10).width(0.25).build()?;
/// let mut net = SqueezeNet::from_spec(&spec, &mut rng)?;
/// assert_eq!(net.conv_count(), 8); // one expand-3×3 per fire module
/// # Ok::<(), wa_nn::WaError>(())
/// ```
pub struct SqueezeNet {
    stem: Conv2d,
    stem_bn: BatchNorm2d,
    fires: Vec<Fire>,
    classifier: Conv2d,
    /// Max-pool after these fire indices (0-based, applied post-module).
    pools_after: Vec<usize>,
}

impl SqueezeNet {
    /// Builds the network from a validated [`ModelSpec`] (width 1.0 =
    /// paper scale).
    ///
    /// # Errors
    ///
    /// [`WaError::InvalidSpec`] / [`WaError::UnsupportedAlgo`] for an
    /// invalid spec or out-of-range override.
    pub fn from_spec(spec: &ModelSpec, rng: &mut SeededRng) -> Result<SqueezeNet, WaError> {
        spec.validate()?;
        let quant = spec.quant;
        let w = |c: usize| scale_width(c, spec.width);
        let stem_ch = w(64);
        let stem = stem_conv3x3("stem", 3, stem_ch, quant, rng)?;
        let stem_bn = bn("stem_bn", stem_ch)?;
        // (squeeze, expand) per fire module, SqueezeNet v1.1 ratios
        let cfg = [
            (16, 64),
            (16, 64),
            (32, 128),
            (32, 128),
            (48, 192),
            (48, 192),
            (64, 256),
            (64, 256),
        ];
        let mut fires = Vec::with_capacity(8);
        let mut in_ch = stem_ch;
        for (i, &(s, e)) in cfg.iter().enumerate() {
            let fire = Fire::new(&format!("fire{}", i + 2), in_ch, w(s), w(e), quant, rng)?;
            in_ch = fire.out_channels();
            fires.push(fire);
        }
        let classifier = conv1x1("classifier", in_ch, spec.classes, true, quant, rng)?;
        let mut net = SqueezeNet {
            stem,
            stem_bn,
            fires,
            classifier,
            pools_after: vec![1, 3],
        };
        net.try_set_algo(spec.algo)?;
        spec.check_override_bounds(net.conv_count())?;
        for &(idx, algo) in &spec.overrides {
            net.conv_layers_mut()[idx].try_convert(algo)?;
        }
        Ok(net)
    }

    /// Converts every expand-3×3 to the given algorithm.
    ///
    /// # Errors
    ///
    /// [`WaError::UnsupportedAlgo`] if `algo` is unusable.
    pub fn try_set_algo(&mut self, algo: ConvAlgo) -> Result<(), WaError> {
        convert_convs(self, algo, 0)
    }

    /// Panicking wrapper around [`SqueezeNet::try_set_algo`].
    ///
    /// # Panics
    ///
    /// Panics if `algo` is unusable.
    pub fn set_algo(&mut self, algo: ConvAlgo) {
        self.try_set_algo(algo)
            .unwrap_or_else(|e| panic!("set_algo({algo}): {e}"));
    }
}

impl Composite for SqueezeNet {
    children!(stem, stem_bn, fires, classifier);

    fn dataflow(flow: &mut Flow<'_, Self>, tape: &mut Tape, x: Var) -> Result<Var, WaError> {
        let mut h = flow.call(tape, 0, x)?;
        h = flow.call(tape, 1, h)?;
        h = tape.relu(h);
        h = tape.max_pool2d(h);
        let fires = flow.fires.len();
        for i in 0..fires {
            h = flow.call(tape, 2 + i, h)?;
            if flow.pools_after.contains(&i) && tape.value(h).dim(2) >= 4 {
                h = tape.max_pool2d(h);
            }
        }
        let logits_map = flow.call(tape, 2 + fires, h)?;
        Ok(tape.global_avg_pool(logits_map))
    }

    fn check_input(&self, shape: &[usize]) -> Result<(), WaError> {
        if shape.len() != 4 || shape[1] != 3 {
            return Err(WaError::shape("SqueezeNet input", &[0, 3, 0, 0], shape));
        }
        // replay the pooling plan of the dataflow: the stem pool always
        // applies, the fire-stage pools only while the height is >= 4 —
        // every applied pool needs even dims
        let (mut h, mut w) = (shape[2], shape[3]);
        let mut pool_ok = h > 0 && h.is_multiple_of(2) && w.is_multiple_of(2);
        if pool_ok {
            h /= 2;
            w /= 2;
            for _ in 0..self.pools_after.len() {
                if h >= 4 {
                    if !h.is_multiple_of(2) || !w.is_multiple_of(2) {
                        pool_ok = false;
                        break;
                    }
                    h /= 2;
                    w /= 2;
                }
            }
        }
        if !pool_ok {
            return Err(WaError::shape(
                "SqueezeNet input (spatial dims must stay even through every \
                 applied max-pool stage)",
                &[0, 3, 0, 0],
                shape,
            ));
        }
        Ok(())
    }
}

impl ConvNet for SqueezeNet {
    fn model_name(&self) -> &str {
        "SqueezeNet"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::current_algos;
    use wa_nn::Layer;

    fn spec(classes: usize, width: f64) -> ModelSpec {
        ModelSpec::builder()
            .classes(classes)
            .width(width)
            .build()
            .unwrap()
    }

    #[test]
    fn forward_shape() {
        let mut rng = SeededRng::new(0);
        let mut net = SqueezeNet::from_spec(&spec(10, 0.25), &mut rng).unwrap();
        let mut tape = Tape::new();
        let x = tape.leaf(rng.uniform_tensor(&[2, 3, 16, 16], -1.0, 1.0));
        let y = net.try_forward(&mut tape, x, true).unwrap();
        assert_eq!(tape.value(y).shape(), &[2, 10]);
    }

    #[test]
    fn eight_swappable_convs_and_swap() {
        let mut rng = SeededRng::new(1);
        let mut net = SqueezeNet::from_spec(&spec(10, 0.25), &mut rng).unwrap();
        assert_eq!(net.conv_count(), 8);
        net.try_set_algo(ConvAlgo::WinogradFlex { m: 4 }).unwrap();
        assert!(current_algos(&mut net)
            .iter()
            .all(|a| *a == ConvAlgo::WinogradFlex { m: 4 }));
    }

    #[test]
    fn fp32_swap_preserves_output() {
        let mut rng = SeededRng::new(2);
        let mut net = SqueezeNet::from_spec(&spec(5, 0.25), &mut rng).unwrap();
        let x = rng.uniform_tensor(&[1, 3, 16, 16], -1.0, 1.0);
        let before = {
            let mut tape = Tape::new();
            let xv = tape.leaf(x.clone());
            let y = net.forward(&mut tape, xv, false);
            tape.value(y).clone()
        };
        net.try_set_algo(ConvAlgo::Winograd { m: 2 }).unwrap();
        let after = {
            let mut tape = Tape::new();
            let xv = tape.leaf(x);
            let y = net.forward(&mut tape, xv, false);
            tape.value(y).clone()
        };
        for (a, b) in before.data().iter().zip(after.data()) {
            assert!((a - b).abs() < 1e-2, "{} vs {}", a, b);
        }
    }
}
