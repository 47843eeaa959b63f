//! # wa-quant
//!
//! Uniform **symmetric** per-tensor quantization with straight-through
//! estimator (STE) gradients, following the scheme of Krishnamoorthi (2018)
//! that *Searching for Winograd-aware Quantized Networks* (MLSys 2020)
//! adopts for its INT8/INT10/INT16 experiments.
//!
//! The building blocks are:
//!
//! * [`BitWidth`] — FP32 or a signed integer width (INT8/INT10/INT16, …).
//! * [`Observer`] — tracks the dynamic range of a tensor as a running
//!   maximum or an exponential moving average (the paper warms these up
//!   on the training set before evaluating post-training swaps, Table 1).
//! * [`fake_quant`] / [`fake_quant_scale`] — quantize-dequantize in f32,
//!   exposing the rounding error to training.
//! * [`ste_mask`] — the STE pass-through mask used by the autograd engine.
//! * [`TapQuant`] / [`TapPolicy`] / [`fake_quant_taps`] — **tap-wise**
//!   quantization of Winograd-domain tensors: one scale (and optionally
//!   one bit-width) per tap position of the `n×n` transformed tile
//!   (Tap-Wise Quantization, Andri et al. 2022), selected per layer by
//!   the transform-domain policy.
//! * [`Execution`] / [`QTensor`] / [`Requantizer`] — the **true
//!   integer** inference path: prepacked `i8` buffers with per-layer or
//!   per-tap scales, and fixed-point (`i32` multiplier + right-shift)
//!   requantization of `i8×i8→i32` GEMM accumulators, the deployment
//!   recipe of LANCE (Li et al. 2020) and Andri et al. 2022.
//!
//! # Example
//!
//! ```
//! use wa_quant::{fake_quant_scale, BitWidth};
//! use wa_tensor::Tensor;
//!
//! let x = Tensor::from_vec(vec![0.1, -0.5, 0.92], &[3]);
//! let q = fake_quant_scale(&x, BitWidth::INT8, 1.0 / 127.0);
//! // INT8 symmetric over [-1, 1]: 0.1 snaps to 13/127
//! assert!((q.data()[0] - 13.0 / 127.0).abs() < 1e-6);
//! ```

#![warn(missing_docs)]

mod bitwidth;
mod execution;
mod observer;
mod qtensor;
mod quantize;
mod requant;
mod tap;

pub use bitwidth::{BitWidth, ParseBitWidthError};
pub use execution::{Execution, ParseExecutionError};
pub use observer::{Observer, ObserverMode};
pub use qtensor::{quantize_i8, quantize_i8_tap_major, quantize_i8_taps, QTensor};
pub use quantize::{
    dequantize_i32, fake_quant, fake_quant_scale, fake_quant_taps, quantization_rmse, quantize_i32,
    round_clamp_i32, ste_mask, ste_mask_taps,
};
pub use requant::Requantizer;
pub use tap::{ParseTapPolicyError, TapPolicy, TapQuant};
