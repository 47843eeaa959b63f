//! Composite layers: one ordered child list and one dataflow function per
//! network or block, from which the train forward, the read-only
//! [`Infer`] path and every visitor are derived.
//!
//! A composite implements [`Composite`]: its child list (written once
//! with [`children!`](crate::children)) and a `dataflow` that moves data
//! between children, reaching them only through [`Flow::call`]. The
//! blanket impls below turn that into [`Layer`] (`forward`,
//! `try_forward`, and the child list the default visitors walk) and
//! [`Infer`], so the train and serving paths cannot drift apart.
//!
//! The module also holds the two building blocks both the model zoo and
//! the wiNAS supernet use: the residual tail [`Residual`] and the
//! two-conv [`BasicBody`].

use std::any::Any;
use std::ops::Deref;

use crate::executor::Infer;
use crate::layers::{BatchNorm2d, Conv2d, Layer};
use crate::{Tape, Var, WaError};

/// A child of a composite: a layer that runs on both the train path and
/// the read-only path, and can be shared across executor threads.
pub trait Node: Layer + Infer + Send + Sync + Any {}

impl<T: Layer + Infer + Send + Sync + Any> Node for T {}

/// A layer made of child layers.
///
/// Implementors get [`Layer`] and [`Infer`] for free. Everything
/// depends on the order of the child list: parameter and calibration-site
/// order (the checkpoint schema) and the order of swappable convs.
///
/// # Example
///
/// ```
/// use wa_nn::{children, Composite, Flow, Layer, Linear, LinearSpec, Tape, Var, WaError};
/// use wa_tensor::SeededRng;
///
/// /// Two linear layers with a ReLU between them.
/// struct Mlp {
///     fc1: Linear,
///     fc2: Linear,
/// }
///
/// impl Composite for Mlp {
///     children!(fc1, fc2);
///
///     fn dataflow(flow: &mut Flow<'_, Self>, tape: &mut Tape, x: Var) -> Result<Var, WaError> {
///         let h = flow.call(tape, 0, x)?;
///         let h = tape.relu(h);
///         flow.call(tape, 1, h)
///     }
/// }
///
/// let mut rng = SeededRng::new(0);
/// let mut linear = |name: &str, i, o| {
///     let spec = LinearSpec::builder(name).in_features(i).out_features(o).build()?;
///     Linear::from_spec(&spec, &mut rng)
/// };
/// let mut mlp = Mlp { fc1: linear("fc1", 4, 8)?, fc2: linear("fc2", 8, 2)? };
/// assert_eq!(mlp.param_count(), (4 * 8 + 8) + (8 * 2 + 2));
///
/// let mut tape = Tape::new();
/// let x = tape.leaf(SeededRng::new(1).uniform_tensor(&[3, 4], -1.0, 1.0));
/// let y = mlp.forward(&mut tape, x, true);
/// assert_eq!(tape.value(y).shape(), &[3, 2]);
/// # Ok::<(), WaError>(())
/// ```
pub trait Composite: Sized {
    /// The ordered child list, shared. Written with
    /// [`children!`](crate::children).
    fn nodes(&self) -> Vec<&dyn Node>;

    /// The same list, mutable. Written with
    /// [`children!`](crate::children).
    fn nodes_mut(&mut self) -> Vec<&mut dyn Node>;

    /// The one dataflow definition: how data moves between the children,
    /// each reached through [`Flow::call`] by its index in the child list.
    ///
    /// # Errors
    ///
    /// Whatever a child returns on the checked paths.
    fn dataflow(flow: &mut Flow<'_, Self>, tape: &mut Tape, x: Var) -> Result<Var, WaError>;

    /// Validates a model input before any child runs. The default accepts
    /// everything and leaves the checks to the children.
    ///
    /// # Errors
    ///
    /// [`WaError::ShapeMismatch`] when `shape` cannot be consumed.
    fn check_input(&self, _shape: &[usize]) -> Result<(), WaError> {
        Ok(())
    }
}

/// Writes a [`Composite`]'s child list once — the fields, in dataflow
/// order — as both `nodes` and `nodes_mut`. Each field is a [`Node`], or
/// an `Option`, `Vec` or pair of them ([`ChildList`]). See [`Composite`]
/// for an example.
#[macro_export]
macro_rules! children {
    ($($field:ident),+ $(,)?) => {
        fn nodes(&self) -> Vec<&dyn $crate::Node> {
            let mut out: Vec<&dyn $crate::Node> = Vec::new();
            $($crate::ChildList::push_ref(&self.$field, &mut out);)+
            out
        }

        fn nodes_mut(&mut self) -> Vec<&mut dyn $crate::Node> {
            let mut out: Vec<&mut dyn $crate::Node> = Vec::new();
            $($crate::ChildList::push_mut(&mut self.$field, &mut out);)+
            out
        }
    };
}

/// A field that contributes zero or more children to a child list.
pub trait ChildList {
    /// Appends the field's children, shared.
    fn push_ref<'a>(&'a self, out: &mut Vec<&'a dyn Node>);
    /// Appends the field's children, mutable.
    fn push_mut<'a>(&'a mut self, out: &mut Vec<&'a mut dyn Node>);
}

impl<T: Node> ChildList for T {
    fn push_ref<'a>(&'a self, out: &mut Vec<&'a dyn Node>) {
        out.push(self);
    }
    fn push_mut<'a>(&'a mut self, out: &mut Vec<&'a mut dyn Node>) {
        out.push(self);
    }
}

impl ChildList for Box<dyn Node> {
    fn push_ref<'a>(&'a self, out: &mut Vec<&'a dyn Node>) {
        out.push(self.as_ref());
    }
    fn push_mut<'a>(&'a mut self, out: &mut Vec<&'a mut dyn Node>) {
        out.push(self.as_mut());
    }
}

impl<T: ChildList> ChildList for Vec<T> {
    fn push_ref<'a>(&'a self, out: &mut Vec<&'a dyn Node>) {
        self.iter().for_each(|c| c.push_ref(out));
    }
    fn push_mut<'a>(&'a mut self, out: &mut Vec<&'a mut dyn Node>) {
        self.iter_mut().for_each(|c| c.push_mut(out));
    }
}

impl<T: ChildList> ChildList for Option<T> {
    fn push_ref<'a>(&'a self, out: &mut Vec<&'a dyn Node>) {
        if let Some(c) = self {
            c.push_ref(out);
        }
    }
    fn push_mut<'a>(&'a mut self, out: &mut Vec<&'a mut dyn Node>) {
        if let Some(c) = self {
            c.push_mut(out);
        }
    }
}

impl<A: ChildList, B: ChildList> ChildList for (A, B) {
    fn push_ref<'a>(&'a self, out: &mut Vec<&'a dyn Node>) {
        self.0.push_ref(out);
        self.1.push_ref(out);
    }
    fn push_mut<'a>(&'a mut self, out: &mut Vec<&'a mut dyn Node>) {
        self.0.push_mut(out);
        self.1.push_mut(out);
    }
}

/// A composite's view of itself while its dataflow runs: [`Flow::call`]
/// runs a child (`forward`/`try_forward` on the train path, `infer` on
/// the read-only path), and `Deref` reads the composite's configuration.
pub struct Flow<'a, T> {
    mode: Mode<'a, T>,
}

enum Mode<'a, T> {
    Forward {
        net: &'a mut T,
        train: bool,
        checked: bool,
    },
    Infer(&'a T),
}

impl<T: Composite> Flow<'_, T> {
    /// Runs child `i` of the child list on `x`.
    ///
    /// # Errors
    ///
    /// The child's error on the checked paths (`try_forward`, `infer`).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range — a bug in the dataflow.
    pub fn call(&mut self, tape: &mut Tape, i: usize, x: Var) -> Result<Var, WaError> {
        match &mut self.mode {
            Mode::Forward {
                net,
                train,
                checked,
            } => {
                let child = net.nodes_mut().swap_remove(i);
                if *checked {
                    child.try_forward(tape, x, *train)
                } else {
                    Ok(child.forward(tape, x, *train))
                }
            }
            Mode::Infer(net) => net.nodes().swap_remove(i).infer(tape, x),
        }
    }
}

impl<T> Deref for Flow<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        match &self.mode {
            Mode::Forward { net, .. } => net,
            Mode::Infer(net) => net,
        }
    }
}

impl<T: Composite> Layer for T {
    fn forward(&mut self, tape: &mut Tape, x: Var, train: bool) -> Var {
        let mode = Mode::Forward {
            net: self,
            train,
            checked: false,
        };
        T::dataflow(&mut Flow { mode }, tape, x)
            .unwrap_or_else(|e| panic!("an unchecked forward cannot fail: {e}"))
    }

    fn try_forward(&mut self, tape: &mut Tape, x: Var, train: bool) -> Result<Var, WaError> {
        self.check_input(tape.value(x).shape())?;
        let mode = Mode::Forward {
            net: self,
            train,
            checked: true,
        };
        T::dataflow(&mut Flow { mode }, tape, x)
    }

    fn children_mut(&mut self) -> Vec<&mut dyn Node> {
        self.nodes_mut()
    }
}

impl<T: Composite> Infer for T {
    fn infer(&self, tape: &mut Tape, x: Var) -> Result<Var, WaError> {
        self.check_input(tape.value(x).shape())?;
        T::dataflow(
            &mut Flow {
                mode: Mode::Infer(self),
            },
            tape,
            x,
        )
    }
}

/// The trunk every residual network here shares: stem conv → batch norm
/// → ReLU → `blocks` → global average pool → linear head, over a child
/// list `stem, stem_bn, blocks…, head`.
///
/// # Errors
///
/// Whatever a child returns.
pub fn residual_trunk<T: Composite>(
    flow: &mut Flow<'_, T>,
    tape: &mut Tape,
    x: Var,
    blocks: usize,
) -> Result<Var, WaError> {
    let mut h = flow.call(tape, 0, x)?;
    h = flow.call(tape, 1, h)?;
    h = tape.relu(h);
    for b in 0..blocks {
        h = flow.call(tape, 2 + b, h)?;
    }
    let pooled = tape.global_avg_pool(h);
    flow.call(tape, 2 + blocks, pooled)
}

/// The residual tail of every ResNet-style block: optional 2×2 max-pool
/// (the paper's replacement for stride 2) → `body` → shortcut (1×1
/// projection + batch norm when channel counts change, else identity) →
/// add → ReLU.
pub struct Residual<B> {
    /// The residual branch.
    pub body: B,
    /// 1×1 projection + batch norm when the channel count changes.
    pub shortcut: Option<(Conv2d, BatchNorm2d)>,
    /// Max-pool the input first.
    pub downsample: bool,
}

impl<B: Node> Composite for Residual<B> {
    children!(body, shortcut);

    fn dataflow(flow: &mut Flow<'_, Self>, tape: &mut Tape, x: Var) -> Result<Var, WaError> {
        let x = if flow.downsample {
            tape.max_pool2d(x)
        } else {
            x
        };
        let h = flow.call(tape, 0, x)?;
        let s = if flow.shortcut.is_some() {
            let p = flow.call(tape, 1, x)?;
            flow.call(tape, 2, p)?
        } else {
            x
        };
        let sum = tape.add(h, s);
        Ok(tape.relu(sum))
    }
}

/// conv → batch norm → ReLU → conv → batch norm: the body of a ResNet
/// basic block, generic over the conv (a swappable conv layer in the
/// model zoo, a bank of candidates in the wiNAS supernet).
pub struct BasicBody<C> {
    /// First 3×3 conv.
    pub conv1: C,
    /// Batch norm after `conv1`.
    pub bn1: BatchNorm2d,
    /// Second 3×3 conv.
    pub conv2: C,
    /// Batch norm after `conv2`.
    pub bn2: BatchNorm2d,
}

impl<C: Node> Composite for BasicBody<C> {
    children!(conv1, bn1, conv2, bn2);

    fn dataflow(flow: &mut Flow<'_, Self>, tape: &mut Tape, x: Var) -> Result<Var, WaError> {
        let mut h = flow.call(tape, 0, x)?;
        h = flow.call(tape, 1, h)?;
        h = tape.relu(h);
        h = flow.call(tape, 2, h)?;
        flow.call(tape, 3, h)
    }
}
