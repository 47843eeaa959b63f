//! # wa-tensor
//!
//! Dense row-major `f32` tensors and the numeric primitives that the rest of
//! the `winograd-aware` workspace is built on: a cache-blocked GEMM,
//! padding, `im2row`/`col2im` lowering for convolutions, and a deterministic
//! seeded RNG for reproducible experiments.
//!
//! The crate is deliberately small and dependency-light; it is the substrate
//! on which the `wa-winograd` kernels and the `wa-nn` autograd engine are
//! built. Shape mismatches are programming errors and panic with a
//! descriptive message (the convention used by `ndarray` and friends);
//! fallible *data* operations return [`Result`].
//!
//! # Example
//!
//! ```
//! use wa_tensor::Tensor;
//!
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
//! let b = Tensor::eye(2);
//! let c = a.matmul(&b);
//! assert_eq!(c.data(), a.data());
//! ```

mod conv;
mod gemm;
mod gemm_i8;
pub mod json;
mod packed;
mod rng;
mod tensor;

pub use conv::{col2im, conv2d_direct, conv2d_direct_f64, im2row, pad_nchw, unpad_nchw, ConvShape};
pub use gemm::{gemm, gemm_batched, gemm_into, gemm_taps, with_gemm_thread_cap, Transpose};
pub use gemm_i8::{gemm_i8, gemm_i8_batched, gemm_i8_prepacked, PackedBI8};
pub use json::{Json, JsonError};
pub use packed::{PackedA, PackedAI8};
pub use rng::SeededRng;
pub use tensor::{cow_detach_bytes, Tensor};
