//! LeNet with 5×5 filters (paper §5.1): the testbed for Winograd-aware
//! layers on larger filters, where `F(m×m, 5×5)` needs tiles up to 10×10
//! and static transforms fail hard (Figure 5).

use wa_core::{ConvAlgo, ConvLayer};
use wa_nn::{children, Composite, Flow, Linear, Tape, Var, WaError};
use wa_tensor::SeededRng;

use crate::common::{convert_convs, linear, swappable_conv, ConvNet};
use crate::spec::ModelSpec;

/// LeNet-5-style network: two 5×5 convolutions (both Winograd-swappable)
/// with 2×2 max-pooling, then three fully connected layers.
///
/// # Example
///
/// ```
/// use wa_models::{ConvNet, LeNet, ModelSpec};
/// use wa_nn::{Layer, Tape};
/// use wa_tensor::SeededRng;
///
/// let mut rng = SeededRng::new(0);
/// let spec = ModelSpec::builder().classes(10).input_size(28).build()?;
/// let mut net = LeNet::from_spec(&spec, &mut rng)?;
/// assert_eq!(net.conv_count(), 2);
/// let mut tape = Tape::new();
/// let x = tape.leaf(rng.uniform_tensor(&[1, 1, 28, 28], -1.0, 1.0));
/// let y = net.forward(&mut tape, x, false);
/// assert_eq!(tape.value(y).shape(), &[1, 10]);
/// # Ok::<(), wa_nn::WaError>(())
/// ```
pub struct LeNet {
    conv1: ConvLayer,
    conv2: ConvLayer,
    fc1: Linear,
    fc2: Linear,
    fc3: Linear,
    flat_dim: usize,
    input_size: usize,
}

impl LeNet {
    /// Builds LeNet from a validated [`ModelSpec`] for square
    /// single-channel inputs of `spec.input_size` (28 for MNIST).
    ///
    /// # Errors
    ///
    /// [`WaError::InvalidSpec`] if the input is too small for the two
    /// conv/pool stages (needs `input_size ≥ 12` and even intermediate
    /// sizes); [`WaError::UnsupportedAlgo`] for an unusable algorithm.
    pub fn from_spec(spec: &ModelSpec, rng: &mut SeededRng) -> Result<LeNet, WaError> {
        spec.validate()?;
        let input_size = spec.input_size;
        // conv1: 5×5 pad 2 keeps size; pool halves; conv2: 5×5 valid; pool halves
        if input_size < 12 {
            return Err(WaError::invalid(
                "ModelSpec",
                "input_size",
                format!("LeNet needs input_size >= 12, got {input_size}"),
            ));
        }
        if !input_size.is_multiple_of(2) {
            return Err(WaError::invalid(
                "ModelSpec",
                "input_size",
                format!("LeNet input_size must be even, got {input_size}"),
            ));
        }
        let s_pool1 = input_size / 2;
        let s_conv2 = s_pool1 - 4;
        if s_conv2 < 2 || !s_conv2.is_multiple_of(2) {
            return Err(WaError::invalid(
                "ModelSpec",
                "input_size",
                format!("input_size {input_size} incompatible with LeNet geometry"),
            ));
        }
        let s_pool2 = s_conv2 / 2;
        let flat_dim = 16 * s_pool2 * s_pool2;
        let quant = spec.quant;
        let mut net = LeNet {
            conv1: swappable_conv("conv1", 1, 6, 5, 2, quant, rng)?,
            conv2: swappable_conv("conv2", 6, 16, 5, 0, quant, rng)?,
            fc1: linear("fc1", flat_dim, 120, quant, rng)?,
            fc2: linear("fc2", 120, 84, quant, rng)?,
            fc3: linear("fc3", 84, spec.classes, quant, rng)?,
            flat_dim,
            input_size,
        };
        net.try_set_algo(spec.algo)?;
        spec.check_override_bounds(net.conv_count())?;
        for &(idx, algo) in &spec.overrides {
            net.conv_layers_mut()[idx].try_convert(algo)?;
        }
        Ok(net)
    }

    /// Converts both conv layers to the given algorithm (5×5 filters use
    /// Cook-Toom synthesized `F(m, 5)` transforms).
    ///
    /// # Errors
    ///
    /// [`WaError::UnsupportedAlgo`] if `algo` is unusable.
    pub fn try_set_algo(&mut self, algo: ConvAlgo) -> Result<(), WaError> {
        convert_convs(self, algo, 0)
    }

    /// Panicking wrapper around [`LeNet::try_set_algo`].
    ///
    /// # Panics
    ///
    /// Panics if `algo` is unusable.
    pub fn set_algo(&mut self, algo: ConvAlgo) {
        self.try_set_algo(algo)
            .unwrap_or_else(|e| panic!("set_algo({algo}): {e}"));
    }
}

impl Composite for LeNet {
    children!(conv1, conv2, fc1, fc2, fc3);

    fn dataflow(flow: &mut Flow<'_, Self>, tape: &mut Tape, x: Var) -> Result<Var, WaError> {
        let mut h = flow.call(tape, 0, x)?;
        h = tape.relu(h);
        h = tape.max_pool2d(h);
        h = flow.call(tape, 1, h)?;
        h = tape.relu(h);
        h = tape.max_pool2d(h);
        let n = tape.value(h).dim(0);
        let flat = tape.reshape(h, &[n, flow.flat_dim]);
        let mut f = flow.call(tape, 2, flat)?;
        f = tape.relu(f);
        f = flow.call(tape, 3, f)?;
        f = tape.relu(f);
        flow.call(tape, 4, f)
    }

    fn check_input(&self, shape: &[usize]) -> Result<(), WaError> {
        // the conv/pool/flatten geometry is fixed at construction, so a
        // serving request must match the built input size exactly
        let s = self.input_size;
        if shape.len() != 4 || shape[1] != 1 || shape[2] != s || shape[3] != s {
            return Err(WaError::shape("LeNet input", &[0, 1, s, s], shape));
        }
        Ok(())
    }
}

impl ConvNet for LeNet {
    fn model_name(&self) -> &str {
        "LeNet"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wa_nn::Layer;

    fn spec(classes: usize, input_size: usize) -> ModelSpec {
        ModelSpec::builder()
            .classes(classes)
            .input_size(input_size)
            .build()
            .unwrap()
    }

    #[test]
    fn forward_shapes_mnist_size() {
        let mut rng = SeededRng::new(0);
        let mut net = LeNet::from_spec(&spec(10, 28), &mut rng).unwrap();
        let mut tape = Tape::new();
        let x = tape.leaf(rng.uniform_tensor(&[3, 1, 28, 28], -1.0, 1.0));
        let y = net.try_forward(&mut tape, x, true).unwrap();
        assert_eq!(tape.value(y).shape(), &[3, 10]);
    }

    #[test]
    fn five_by_five_winograd_swap_preserves_output_fp32() {
        let mut rng = SeededRng::new(1);
        let mut net = LeNet::from_spec(&spec(10, 20), &mut rng).unwrap();
        let x = rng.uniform_tensor(&[1, 1, 20, 20], -1.0, 1.0);
        let before = {
            let mut tape = Tape::new();
            let xv = tape.leaf(x.clone());
            let y = net.forward(&mut tape, xv, false);
            tape.value(y).clone()
        };
        net.try_set_algo(ConvAlgo::Winograd { m: 2 }).unwrap(); // F(2×2, 5×5), 6×6 tiles
        let after = {
            let mut tape = Tape::new();
            let xv = tape.leaf(x);
            let y = net.forward(&mut tape, xv, false);
            tape.value(y).clone()
        };
        for (a, b) in before.data().iter().zip(after.data()) {
            assert!((a - b).abs() < 2e-2, "{} vs {}", a, b);
        }
    }

    #[test]
    fn too_small_input_is_rejected_as_error() {
        let mut rng = SeededRng::new(2);
        let Err(err) = LeNet::from_spec(&spec(10, 8), &mut rng) else {
            panic!("size 8 must be rejected")
        };
        assert!(
            matches!(
                err,
                WaError::InvalidSpec {
                    field: "input_size",
                    ..
                }
            ),
            "{err}"
        );
        let Err(err) = LeNet::from_spec(&spec(10, 13), &mut rng) else {
            panic!("odd size must be rejected")
        };
        assert!(
            matches!(
                err,
                WaError::InvalidSpec {
                    field: "input_size",
                    ..
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn try_forward_rejects_mismatched_input_size() {
        let mut rng = SeededRng::new(3);
        let mut net = LeNet::from_spec(&spec(10, 28), &mut rng).unwrap();
        let mut tape = Tape::new();
        // built for 28×28; feed 20×20 (still geometrically valid per-layer)
        let x = tape.leaf(rng.uniform_tensor(&[1, 1, 20, 20], -1.0, 1.0));
        assert!(matches!(
            net.try_forward(&mut tape, x, false),
            Err(WaError::ShapeMismatch { .. })
        ));
    }
}
