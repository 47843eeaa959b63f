//! # wa-nn
//!
//! A compact define-by-run neural-network stack: tape-based reverse-mode
//! autodiff ([`Tape`]), layers ([`Conv2d`], [`Linear`], [`BatchNorm2d`]),
//! optimizers ([`Sgd`], [`Adam`], [`CosineAnnealing`]) and metrics.
//!
//! Built from scratch so that the Winograd-aware convolution of
//! *Searching for Winograd-aware Quantized Networks* (MLSys 2020) can be
//! expressed op-by-op — matmuls, tile gathers/scatters, per-coordinate
//! batched GEMM and straight-through fake-quantization — with gradients
//! flowing through **every** stage, including the transform matrices
//! `Aᵀ`, `G`, `Bᵀ` when they are trainable (`-flex`).
//!
//! Networks and blocks are [`Composite`]s: one ordered child list plus
//! one dataflow function, from which the train forward, the read-only
//! [`Infer`] path and the parameter/statistics visitors are all derived.
//!
//! Layers are constructed from typed specs built through fallible
//! builders ([`Conv2dSpec`], [`LinearSpec`], [`BatchNormSpec`]): invalid
//! configurations surface as [`WaError`] values instead of panics, and
//! [`Layer::try_forward`] gives a shape-checked forward path for serving.
//!
//! Serving-side throughput comes from the [`executor`] module: the
//! read-only [`Infer`] trait (the `&self` half of [`Layer::forward`])
//! lets one model be shared across threads, and [`BatchExecutor`] shards
//! an input batch across `std::thread::scope` workers — each with its
//! own [`Tape`] — with outputs identical to the sequential per-sample
//! loop.
//!
//! # Example
//!
//! ```
//! use wa_nn::{accuracy, Layer, Linear, LinearSpec, Optimizer, Sgd, Tape};
//! use wa_tensor::{SeededRng, Tensor};
//!
//! // learn y = argmax over a linear map of 2-D points
//! let mut rng = SeededRng::new(7);
//! let spec = LinearSpec::builder("clf").in_features(2).out_features(2).build().unwrap();
//! let mut model = Linear::from_spec(&spec, &mut rng).unwrap();
//! let mut opt = Sgd::new(0.5, 0.0, false, 0.0);
//! for _ in 0..200 {
//!     let xs = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], &[2, 2]);
//!     let mut tape = Tape::new();
//!     let x = tape.leaf(xs);
//!     let logits = model.forward(&mut tape, x, true);
//!     let loss = tape.cross_entropy(logits, &[0, 1]);
//!     let grads = tape.backward(loss);
//!     model.visit_params(&mut |p| {
//!         p.absorb(&grads);
//!         opt.update(p);
//!     });
//! }
//! let mut tape = Tape::new();
//! let x = tape.leaf(Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], &[2, 2]));
//! let logits = model.forward(&mut tape, x, false);
//! assert_eq!(accuracy(tape.value(logits), &[0, 1]), 1.0);
//! ```

mod checkpoint;
mod composite;
pub mod container;
mod error;
pub mod executor;
pub(crate) mod int8;
mod layers;
mod metrics;
mod optim;
mod param;
mod spec;
mod tape;

pub use checkpoint::{
    export_params, export_quant_state, import_params, import_quant_state, Checkpoint,
    CheckpointError, FullCheckpoint, QuantSiteState,
};
pub use composite::{residual_trunk, BasicBody, ChildList, Composite, Flow, Node, Residual};
pub use container::{
    is_container, read_checkpoint, write_checkpoint, Blob, BlobData, BlobDtype, Container,
};
pub use error::WaError;
pub use executor::{BatchExecutor, ExecutorConfig, ExecutorStats, Infer};
pub use layers::{
    infer_quant, infer_quant_taps, observe_quant, observe_quant_taps, BatchNorm2d, Conv2d, Layer,
    Linear, QuantConfig, QuantStateMut,
};
pub use metrics::{accuracy, RunningMean};
pub use optim::{Adam, CosineAnnealing, Optimizer, Sgd};
pub use param::Param;
pub use spec::{
    BatchNormSpec, BatchNormSpecBuilder, Conv2dSpec, Conv2dSpecBuilder, LinearSpec,
    LinearSpecBuilder,
};
pub use tape::{BnRunning, Gradients, TapFilter, Tape, Var};
