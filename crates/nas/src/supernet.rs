//! The over-parameterized search network.
//!
//! Following ProxylessNAS (Cai et al. 2019), every searchable 3×3 slot
//! holds one instantiation of *each* candidate operation (its own weights
//! and observers); path sampling activates a single candidate per batch,
//! so only sampled paths are evaluated and updated — "enabling the
//! allocation of the entire network on a single GPU" (paper §4.1).

use wa_core::{ConvAlgo, ConvLayer};
use wa_latency::LayerShape;
use wa_nn::{
    children, residual_trunk, BasicBody, BatchNorm2d, BatchNormSpec, Composite, Conv2d, Conv2dSpec,
    Flow, Linear, LinearSpec, QuantConfig, Residual, Tape, Var, WaError,
};
use wa_tensor::SeededRng;

use crate::space::SearchSpace;

/// Macro-architecture description: wiNAS keeps this fixed and only picks
/// per-layer convolution algorithms/precisions (paper §4: "without
/// modifying the network's macro-architecture").
#[derive(Clone, Debug, PartialEq)]
pub struct MacroArch {
    /// Output classes.
    pub classes: usize,
    /// Stem output channels (the stem itself is fixed to direct conv).
    pub stem_ch: usize,
    /// Stages: `(out_channels, blocks, downsample_first)`.
    pub stages: Vec<(usize, usize, bool)>,
    /// Input spatial size (square) — needed for latency lookups (§4.1:
    /// "introducing latency … requires knowing the shape of the input
    /// tensor at each layer").
    pub input_size: usize,
}

impl MacroArch {
    /// The paper's ResNet-18 CIFAR macro-architecture at a width
    /// multiplier.
    pub fn resnet18(classes: usize, width: f64, input_size: usize) -> MacroArch {
        let w = |c: usize| ((c as f64 * width).round() as usize).max(1);
        MacroArch {
            classes,
            stem_ch: w(32),
            stages: vec![
                (w(64), 2, false),
                (w(128), 2, true),
                (w(256), 2, true),
                (w(512), 2, true),
            ],
            input_size,
        }
    }

    /// A miniature macro-architecture for tests and demos.
    pub fn tiny(classes: usize, channels: usize, input_size: usize) -> MacroArch {
        MacroArch {
            classes,
            stem_ch: channels,
            stages: vec![(channels, 1, false)],
            input_size,
        }
    }

    /// Validates the macro-architecture.
    ///
    /// # Errors
    ///
    /// [`WaError::InvalidSpec`] for zero classes/channels/input size or
    /// an empty stage list.
    pub fn validate(&self) -> Result<(), WaError> {
        if self.classes == 0 {
            return Err(WaError::invalid(
                "MacroArch",
                "classes",
                "need at least one class",
            ));
        }
        if self.stem_ch == 0 {
            return Err(WaError::invalid("MacroArch", "stem_ch", "must be nonzero"));
        }
        if self.input_size == 0 {
            return Err(WaError::invalid(
                "MacroArch",
                "input_size",
                "must be nonzero",
            ));
        }
        if self.stages.is_empty() || self.stages.iter().any(|&(c, b, _)| c == 0 || b == 0) {
            return Err(WaError::invalid(
                "MacroArch",
                "stages",
                "stages must be non-empty with nonzero channels and block counts",
            ));
        }
        Ok(())
    }

    /// Number of searchable conv slots (two per block).
    pub fn slot_count(&self) -> usize {
        2 * self.stages.iter().map(|&(_, b, _)| b).sum::<usize>()
    }

    /// Layer geometry per searchable slot, in forward order.
    pub fn slot_shapes(&self) -> Vec<LayerShape> {
        let mut shapes = Vec::with_capacity(self.slot_count());
        let mut in_ch = self.stem_ch;
        let mut size = self.input_size;
        for &(out_ch, blocks, downsample) in &self.stages {
            for b in 0..blocks {
                if downsample && b == 0 {
                    size /= 2;
                }
                shapes.push(LayerShape::square(in_ch, out_ch, size, 3));
                shapes.push(LayerShape::square(out_ch, out_ch, size, 3));
                in_ch = out_ch;
            }
        }
        shapes
    }
}

/// A slot's bank of candidate convolutions with one active path.
pub struct Bank {
    candidates: Vec<ConvLayer>,
    active: usize,
}

impl Bank {
    fn new(
        name: &str,
        in_ch: usize,
        out_ch: usize,
        space: &SearchSpace,
        rng: &mut SeededRng,
    ) -> Result<Bank, WaError> {
        let candidates = space
            .candidates
            .iter()
            .enumerate()
            .map(|(i, cand)| {
                let spec = cand.conv_spec(&format!("{name}.cand{i}"), in_ch, out_ch)?;
                ConvLayer::from_spec(&spec, rng)
            })
            .collect::<Result<Vec<_>, WaError>>()?;
        Ok(Bank {
            candidates,
            active: 0,
        })
    }

    /// Currently active candidate index.
    pub fn active(&self) -> usize {
        self.active
    }

    /// Selects the active candidate.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn set_active(&mut self, i: usize) {
        assert!(
            i < self.candidates.len(),
            "candidate {} out of {}",
            i,
            self.candidates.len()
        );
        self.active = i;
    }

    /// Algorithm of the active candidate.
    pub fn active_algo(&self) -> ConvAlgo {
        self.candidates[self.active].algo()
    }
}

impl Composite for Bank {
    children!(candidates);

    fn dataflow(flow: &mut Flow<'_, Self>, tape: &mut Tape, x: Var) -> Result<Var, WaError> {
        let active = flow.active;
        flow.call(tape, active, x)
    }
}

/// A ResNet basic block whose two 3×3 slots are candidate banks.
type SuperBlock = Residual<BasicBody<Bank>>;

/// The searchable network: fixed stem/shortcuts/head, candidate banks in
/// every 3×3 slot.
pub struct SuperNet {
    stem: Conv2d,
    stem_bn: BatchNorm2d,
    blocks: Vec<SuperBlock>,
    head: Linear,
    arch: MacroArch,
}

impl SuperNet {
    /// Instantiates the supernet for a macro-architecture and search
    /// space. All candidates start with independent Kaiming weights.
    ///
    /// # Errors
    ///
    /// [`WaError::InvalidSpec`] / [`WaError::UnsupportedAlgo`] if the
    /// macro-architecture or any search-space candidate is invalid.
    pub fn new(
        arch: &MacroArch,
        space: &SearchSpace,
        rng: &mut SeededRng,
    ) -> Result<SuperNet, WaError> {
        arch.validate()?;
        space.validate()?;
        // fixed parts use the first candidate's precision (paper keeps
        // non-searched layers at the network-wide precision)
        let fixed_quant: QuantConfig = space.candidates[0].quant;
        let conv = |name: &str, in_ch: usize, out_ch: usize, k: usize, rng: &mut SeededRng| {
            let spec = Conv2dSpec::builder(name)
                .in_channels(in_ch)
                .out_channels(out_ch)
                .kernel(k)
                .quant(fixed_quant)
                .build()?;
            Conv2d::from_spec(&spec, rng)
        };
        let bn = |name: &str, ch: usize| {
            BatchNorm2d::from_spec(&BatchNormSpec::builder(name).channels(ch).build()?)
        };
        let stem = conv("stem", 3, arch.stem_ch, 3, rng)?;
        let stem_bn = bn("stem_bn", arch.stem_ch)?;
        let mut blocks = Vec::new();
        let mut in_ch = arch.stem_ch;
        for (si, &(out_ch, nblocks, downsample)) in arch.stages.iter().enumerate() {
            for b in 0..nblocks {
                let name = format!("s{si}b{b}");
                let shortcut = if in_ch != out_ch {
                    Some((
                        conv(&format!("{name}.proj"), in_ch, out_ch, 1, rng)?,
                        bn(&format!("{name}.proj_bn"), out_ch)?,
                    ))
                } else {
                    None
                };
                blocks.push(Residual {
                    body: BasicBody {
                        conv1: Bank::new(&format!("{name}.c1"), in_ch, out_ch, space, rng)?,
                        bn1: bn(&format!("{name}.bn1"), out_ch)?,
                        conv2: Bank::new(&format!("{name}.c2"), out_ch, out_ch, space, rng)?,
                        bn2: bn(&format!("{name}.bn2"), out_ch)?,
                    },
                    shortcut,
                    downsample: downsample && b == 0,
                });
                in_ch = out_ch;
            }
        }
        let head = Linear::from_spec(
            &LinearSpec::builder("fc")
                .in_features(in_ch)
                .out_features(arch.classes)
                .quant(fixed_quant)
                .build()?,
            rng,
        )?;
        Ok(SuperNet {
            stem,
            stem_bn,
            blocks,
            head,
            arch: arch.clone(),
        })
    }

    /// The macro-architecture this supernet was built for.
    pub fn arch(&self) -> &MacroArch {
        &self.arch
    }

    /// Applies a full path selection (one candidate index per slot).
    ///
    /// # Panics
    ///
    /// Panics if `selection.len() != slot_count`.
    pub fn set_selection(&mut self, selection: &[usize]) {
        let mut banks = self.banks_mut();
        assert_eq!(selection.len(), banks.len(), "selection length mismatch");
        for (bank, &s) in banks.iter_mut().zip(selection) {
            bank.set_active(s);
        }
    }

    /// The banks in slot order.
    pub fn banks_mut(&mut self) -> Vec<&mut Bank> {
        let mut out = Vec::with_capacity(2 * self.blocks.len());
        for b in &mut self.blocks {
            out.push(&mut b.body.conv1);
            out.push(&mut b.body.conv2);
        }
        out
    }

    /// Current per-slot active algorithms (Figure 9 readout).
    pub fn active_algos(&self) -> Vec<ConvAlgo> {
        let mut out = Vec::with_capacity(2 * self.blocks.len());
        for b in &self.blocks {
            out.push(b.body.conv1.active_algo());
            out.push(b.body.conv2.active_algo());
        }
        out
    }
}

impl Composite for SuperNet {
    children!(stem, stem_bn, blocks, head);

    fn dataflow(flow: &mut Flow<'_, Self>, tape: &mut Tape, x: Var) -> Result<Var, WaError> {
        let blocks = flow.blocks.len();
        residual_trunk(flow, tape, x, blocks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wa_nn::{export_quant_state, Layer, QuantStateMut};
    use wa_quant::BitWidth;

    #[test]
    fn macro_arch_slot_inventory() {
        let arch = MacroArch::resnet18(10, 1.0, 32);
        assert_eq!(arch.slot_count(), 16);
        let shapes = arch.slot_shapes();
        assert_eq!(shapes.len(), 16);
        assert_eq!(shapes[0], LayerShape::square(32, 64, 32, 3));
        assert_eq!(shapes[15], LayerShape::square(512, 512, 4, 3));
    }

    #[test]
    fn supernet_forward_and_selection() {
        let mut rng = SeededRng::new(0);
        let arch = MacroArch::tiny(4, 8, 8);
        let space = SearchSpace::small(BitWidth::FP32);
        let mut net = SuperNet::new(&arch, &space, &mut rng).unwrap();
        assert_eq!(net.banks_mut().len(), 2);

        net.set_selection(&[0, 2]);
        assert_eq!(net.active_algos()[1], ConvAlgo::WinogradFlex { m: 4 });

        let mut tape = Tape::new();
        let x = tape.leaf(rng.uniform_tensor(&[2, 3, 8, 8], -1.0, 1.0));
        let y = net.forward(&mut tape, x, true);
        assert_eq!(tape.value(y).shape(), &[2, 4]);
    }

    #[test]
    fn different_selections_give_different_outputs() {
        let mut rng = SeededRng::new(1);
        let arch = MacroArch::tiny(3, 8, 8);
        let space = SearchSpace::small(BitWidth::FP32);
        let mut net = SuperNet::new(&arch, &space, &mut rng).unwrap();
        let x = rng.uniform_tensor(&[1, 3, 8, 8], -1.0, 1.0);
        let run = |net: &mut SuperNet, sel: &[usize], x: &wa_tensor::Tensor| {
            net.set_selection(sel);
            let mut tape = Tape::new();
            let xv = tape.leaf(x.clone());
            let y = net.forward(&mut tape, xv, false);
            tape.value(y).clone()
        };
        let a = run(&mut net, &[0, 0], &x);
        let b = run(&mut net, &[1, 1], &x);
        assert_ne!(a.data(), b.data(), "candidates have independent weights");
    }

    /// Observations (or, for batch norm, "moments moved off their reset
    /// values") per calibration site.
    fn site_activity(net: &mut SuperNet) -> Vec<(String, bool)> {
        let mut out = Vec::new();
        net.visit_quant_state(&mut |name, site| {
            let active = match site {
                QuantStateMut::Observer(o) => o.observations() > 0,
                QuantStateMut::Taps(t) => t.observations() > 0,
                QuantStateMut::BatchNorm { mean, var } => {
                    mean.iter().any(|&m| m != 0.0) || var.iter().any(|&v| v != 1.0)
                }
            };
            out.push((name.to_string(), active));
        });
        out
    }

    #[test]
    fn reset_and_quant_state_reach_every_candidate() {
        let mut rng = SeededRng::new(3);
        let arch = MacroArch::tiny(4, 8, 8);
        let space = SearchSpace::small(BitWidth::INT8);
        let mut net = SuperNet::new(&arch, &space, &mut rng).unwrap();
        let x = rng.uniform_tensor(&[2, 3, 8, 8], -1.0, 1.0);
        // one quantized train forward through every candidate
        for i in 0..space.len() {
            net.set_selection(&[i, i]);
            let mut tape = Tape::new();
            let xv = tape.leaf(x.clone());
            net.forward(&mut tape, xv, true);
        }

        let sites = export_quant_state(&mut net).unwrap();
        for slot in ["s0b0.c1", "s0b0.c2"] {
            for i in 0..space.len() {
                let prefix = format!("{slot}.cand{i}.");
                assert!(
                    sites.keys().any(|k| k.starts_with(&prefix)),
                    "no `{prefix}*` site in {:?}",
                    sites.keys()
                );
            }
        }
        let before = site_activity(&mut net);
        assert!(before.iter().any(|(n, _)| n.ends_with(".bn")));
        for (name, active) in &before {
            assert!(active, "site `{name}` saw no calibration data");
        }

        net.reset_statistics();
        for (name, active) in site_activity(&mut net) {
            assert!(!active, "site `{name}` survived reset_statistics");
        }
    }

    #[test]
    #[should_panic(expected = "selection length mismatch")]
    fn wrong_selection_length_panics() {
        let mut rng = SeededRng::new(2);
        let arch = MacroArch::tiny(2, 4, 8);
        let space = SearchSpace::small(BitWidth::FP32);
        let mut net = SuperNet::new(&arch, &space, &mut rng).unwrap();
        net.set_selection(&[0]);
    }
}
