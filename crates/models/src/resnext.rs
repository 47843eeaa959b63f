//! ResNeXt-20 (8×16) — aggregated-transform bottleneck blocks with
//! grouped 3×3 convolutions (Xie et al. 2017), the Table 5 architecture.
//! Six bottleneck blocks → six (grouped) swappable 3×3 stages.

use wa_core::{ConvAlgo, ConvLayer};
use wa_nn::{
    children, residual_trunk, BatchNorm2d, Composite, Conv2d, Flow, QuantConfig, Residual, Tape,
    Var, WaError,
};
use wa_tensor::SeededRng;

use crate::common::{
    bn, conv1x1, convert_convs, linear, scale_width, stem_conv3x3, swappable_conv, ConvNet,
};
use crate::spec::ModelSpec;

/// Channel geometry of one bottleneck block.
#[derive(Clone, Copy, Debug)]
struct BlockDims {
    in_ch: usize,
    inner: usize,
    out_ch: usize,
    groups: usize,
}

/// Bottleneck body: 1×1 reduce → grouped 3×3 (cardinality `groups`) →
/// 1×1 expand. The grouped 3×3 is realized as `groups` parallel
/// [`ConvLayer`]s over channel slices — each is independently
/// Winograd-swappable (policies apply uniformly).
struct Bottleneck {
    reduce: Conv2d,
    bn1: BatchNorm2d,
    group_convs: Vec<ConvLayer>,
    bn2: BatchNorm2d,
    expand: Conv2d,
    bn3: BatchNorm2d,
    group_width: usize,
}

impl Composite for Bottleneck {
    children!(reduce, bn1, group_convs, bn2, expand, bn3);

    fn dataflow(flow: &mut Flow<'_, Self>, tape: &mut Tape, x: Var) -> Result<Var, WaError> {
        let mut h = flow.call(tape, 0, x)?;
        h = flow.call(tape, 1, h)?;
        h = tape.relu(h);
        // grouped 3×3: slice, convolve per group, concat
        let (groups, gw) = (flow.group_convs.len(), flow.group_width);
        let mut parts = Vec::with_capacity(groups);
        for g in 0..groups {
            let slice = tape.slice_chan(h, g * gw, (g + 1) * gw);
            parts.push(flow.call(tape, 2 + g, slice)?);
        }
        let mut cat = tape.concat_chan(&parts);
        cat = flow.call(tape, 2 + groups, cat)?;
        cat = tape.relu(cat);
        let e = flow.call(tape, 3 + groups, cat)?;
        flow.call(tape, 4 + groups, e)
    }
}

/// A bottleneck with projected shortcut; the downsampling variant
/// max-pools its input first.
type ResNeXtBlock = Residual<Bottleneck>;

fn resnext_block(
    name: &str,
    dims: BlockDims,
    downsample: bool,
    quant: QuantConfig,
    rng: &mut SeededRng,
) -> Result<ResNeXtBlock, WaError> {
    let BlockDims {
        in_ch,
        inner,
        out_ch,
        groups,
    } = dims;
    if !inner.is_multiple_of(groups) {
        return Err(WaError::invalid(
            "ModelSpec",
            "width",
            format!("inner width {inner} not divisible by {groups} groups"),
        ));
    }
    let gw = inner / groups;
    let group_convs = (0..groups)
        .map(|g| swappable_conv(&format!("{name}.group{}", g), gw, gw, 3, 1, quant, rng))
        .collect::<Result<Vec<_>, WaError>>()?;
    let shortcut = if in_ch != out_ch {
        Some((
            conv1x1(&format!("{name}.proj"), in_ch, out_ch, false, quant, rng)?,
            bn(&format!("{name}.proj_bn"), out_ch)?,
        ))
    } else {
        None
    };
    Ok(Residual {
        body: Bottleneck {
            reduce: conv1x1(&format!("{name}.reduce"), in_ch, inner, false, quant, rng)?,
            bn1: bn(&format!("{name}.bn1"), inner)?,
            group_convs,
            bn2: bn(&format!("{name}.bn2"), inner)?,
            expand: conv1x1(&format!("{name}.expand"), inner, out_ch, false, quant, rng)?,
            bn3: bn(&format!("{name}.bn3"), out_ch)?,
            group_width: gw,
        },
        shortcut,
        downsample,
    })
}

/// ResNeXt-20 with cardinality 8 and base group width 16 ("8×16"),
/// stride-2 replaced by max-pool as throughout the paper.
///
/// # Example
///
/// ```
/// use wa_models::{ConvNet, ModelSpec, ResNeXt20};
/// use wa_tensor::SeededRng;
///
/// let mut rng = SeededRng::new(0);
/// let spec = ModelSpec::builder().classes(10).width(0.25).build()?;
/// let mut net = ResNeXt20::from_spec(&spec, &mut rng)?;
/// assert_eq!(net.logical_conv_count(), 6); // 6 grouped 3×3 stages
/// # Ok::<(), wa_nn::WaError>(())
/// ```
pub struct ResNeXt20 {
    stem: Conv2d,
    stem_bn: BatchNorm2d,
    blocks: Vec<ResNeXtBlock>,
    head: wa_nn::Linear,
    groups: usize,
}

impl ResNeXt20 {
    /// Builds the network from a validated [`ModelSpec`] (width 1.0 =
    /// paper scale).
    ///
    /// # Errors
    ///
    /// [`WaError::InvalidSpec`] / [`WaError::UnsupportedAlgo`] for an
    /// invalid spec or out-of-range override.
    pub fn from_spec(spec: &ModelSpec, rng: &mut SeededRng) -> Result<ResNeXt20, WaError> {
        spec.validate()?;
        let quant = spec.quant;
        let width = spec.width;
        let groups = 8;
        // base width 16 per group → inner widths 128/256/512, outs 256/512/1024
        let inner = [
            scale_width(128, width).div_ceil(groups) * groups,
            scale_width(256, width).div_ceil(groups) * groups,
            scale_width(512, width).div_ceil(groups) * groups,
        ];
        let outs = [
            scale_width(256, width),
            scale_width(512, width),
            scale_width(1024, width),
        ];
        let stem_ch = scale_width(64, width);
        let stem = stem_conv3x3("stem", 3, stem_ch, quant, rng)?;
        let stem_bn = bn("stem_bn", stem_ch)?;
        let mut blocks = Vec::with_capacity(6);
        let mut in_ch = stem_ch;
        for stage in 0..3 {
            for b in 0..2 {
                let downsample = stage > 0 && b == 0;
                blocks.push(resnext_block(
                    &format!("stage{}.{}", stage + 1, b),
                    BlockDims {
                        in_ch,
                        inner: inner[stage],
                        out_ch: outs[stage],
                        groups,
                    },
                    downsample,
                    quant,
                    rng,
                )?);
                in_ch = outs[stage];
            }
        }
        let head = linear("fc", outs[2], spec.classes, quant, rng)?;
        let mut net = ResNeXt20 {
            stem,
            stem_bn,
            blocks,
            head,
            groups,
        };
        net.try_set_algo(spec.algo)?;
        spec.check_override_bounds(net.conv_count())?;
        for &(idx, algo) in &spec.overrides {
            net.conv_layers_mut()[idx].try_convert(algo)?;
        }
        Ok(net)
    }

    /// Number of *logical* grouped-3×3 stages (6), as the paper counts.
    pub fn logical_conv_count(&self) -> usize {
        self.blocks.len()
    }

    /// Cardinality (number of groups per block).
    pub fn cardinality(&self) -> usize {
        self.groups
    }

    /// Converts every group conv in every block to the given algorithm.
    ///
    /// # Errors
    ///
    /// [`WaError::UnsupportedAlgo`] if `algo` is unusable.
    pub fn try_set_algo(&mut self, algo: ConvAlgo) -> Result<(), WaError> {
        convert_convs(self, algo, 0)
    }

    /// Panicking wrapper around [`ResNeXt20::try_set_algo`].
    ///
    /// # Panics
    ///
    /// Panics if `algo` is unusable.
    pub fn set_algo(&mut self, algo: ConvAlgo) {
        self.try_set_algo(algo)
            .unwrap_or_else(|e| panic!("set_algo({algo}): {e}"));
    }
}

impl Composite for ResNeXt20 {
    children!(stem, stem_bn, blocks, head);

    fn dataflow(flow: &mut Flow<'_, Self>, tape: &mut Tape, x: Var) -> Result<Var, WaError> {
        let blocks = flow.blocks.len();
        residual_trunk(flow, tape, x, blocks)
    }

    fn check_input(&self, shape: &[usize]) -> Result<(), WaError> {
        if shape.len() != 4 || shape[1] != 3 {
            return Err(WaError::shape("ResNeXt20 input", &[0, 3, 0, 0], shape));
        }
        // stages 2 and 3 max-pool, so spatial dims must be divisible by 4
        if shape[2] == 0 || !shape[2].is_multiple_of(4) || !shape[3].is_multiple_of(4) {
            return Err(WaError::shape(
                "ResNeXt20 input (spatial dims must be nonzero multiples of 4 \
                 for the two max-pool stages)",
                &[0, 3, 4, 4],
                shape,
            ));
        }
        Ok(())
    }
}

impl ConvNet for ResNeXt20 {
    fn model_name(&self) -> &str {
        "ResNeXt-20 (8x16)"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let mut net = ResNeXt20::from_spec(&spec(10, 0.25), &mut rng).unwrap();
        let mut tape = Tape::new();
        let x = tape.leaf(rng.uniform_tensor(&[2, 3, 16, 16], -1.0, 1.0));
        let y = net.try_forward(&mut tape, x, true).unwrap();
        assert_eq!(tape.value(y).shape(), &[2, 10]);
    }

    #[test]
    fn six_logical_blocks_cardinality_eight() {
        let mut rng = SeededRng::new(1);
        let mut net = ResNeXt20::from_spec(&spec(10, 0.25), &mut rng).unwrap();
        assert_eq!(net.logical_conv_count(), 6);
        assert_eq!(net.cardinality(), 8);
        assert_eq!(net.conv_count(), 48); // 6 blocks × 8 groups
    }

    #[test]
    fn fp32_group_swap_preserves_output() {
        let mut rng = SeededRng::new(2);
        let mut net = ResNeXt20::from_spec(&spec(4, 0.25), &mut rng).unwrap();
        let x = rng.uniform_tensor(&[1, 3, 8, 8], -1.0, 1.0);
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
