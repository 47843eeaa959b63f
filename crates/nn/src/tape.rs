//! The reverse-mode autodiff tape.
//!
//! Define-by-run: every operation executes eagerly, appending a node with
//! its inputs and just enough saved state to compute the vector-Jacobian
//! product. [`Tape::backward`] then walks the nodes in reverse creation
//! order (a valid topological order by construction).
//!
//! The Winograd-aware layer (paper Figure 2) is expressed purely in these
//! ops — matmuls, tile permutations, gathers/scatters and fake-quant — so
//! "the numerical inaccuracies introduced by the Winograd transformations
//! are exposed to the learning of the model parameters" exactly as in the
//! paper, including gradients into `Aᵀ`, `G`, `Bᵀ` when they are trainable.

// Index-based loops are deliberate in the kernel code below: most walk
// several parallel buffers with differing strides, where iterator zips
// obscure the math.
#![allow(clippy::needless_range_loop)]

use std::sync::Arc;

use wa_quant::{fake_quant_scale, fake_quant_taps, ste_mask, ste_mask_taps, BitWidth};
use wa_tensor::{
    col2im, gemm, gemm_taps, im2row, pad_nchw, unpad_nchw, PackedA, Tensor, Transpose,
};
use wa_winograd::TileGeometry;

use crate::param::Param;

static NEXT_TAPE_ID: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);

/// Handle to a tensor on the tape.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Var(pub(crate) usize);

/// Saved state for batch-norm backward.
#[derive(Clone, Debug)]
struct BnSaved {
    /// 1/√(var + ε) per channel.
    invstd: Vec<f32>,
    /// Normalized activations x̂ (same shape as input).
    xhat: Tensor,
    /// Whether batch statistics were used (training) — controls which
    /// backward formula applies.
    batch_stats: bool,
}

#[derive(Clone, Debug)]
enum Op {
    Leaf,
    Add(Var, Var),
    Mul(Var, Var),
    Scale(Var, f32),
    AddBiasRows(Var, Var),
    AddBiasChan(Var, Var),
    Matmul(Var, Var),
    MatmulNT(Var, Var),
    TapGemm {
        /// The filter rows, when they are on the tape.
        u: Option<Var>,
        /// The filter in per-tap `[n², K, C]` order.
        a: Arc<PackedA<f32>>,
        v: Var,
    },
    Reshape(Var),
    TileTranspose {
        x: Var,
        rows: usize,
        cols: usize,
    },
    Permute3 {
        x: Var,
        dims: [usize; 3],
        perm: [usize; 3],
    },
    Relu(Var),
    MaxPool2d {
        x: Var,
        indices: Vec<u32>,
    },
    Gap(Var),
    SqSum(Var),
    AddN(Vec<Var>),
    CrossEntropy {
        logits: Var,
        probs: Tensor,
        targets: Vec<usize>,
    },
    FakeQuant {
        x: Var,
        bits: BitWidth,
        scale: f32,
    },
    FakeQuantTaps {
        x: Var,
        bits: Vec<BitWidth>,
        scales: Vec<f32>,
    },
    Pad {
        x: Var,
        pad: usize,
    },
    PadTiles {
        x: Var,
        geom: TileGeometry,
    },
    GatherTiles {
        x: Var,
        geom: TileGeometry,
        batch: usize,
        ch: usize,
    },
    AssembleOut {
        x: Var,
        geom: TileGeometry,
    },
    Im2Row {
        x: Var,
        kh: usize,
        kw: usize,
        stride: usize,
    },
    BatchNorm {
        x: Var,
        gamma: Var,
        beta: Var,
        saved: BnSaved,
    },
    SliceChan {
        x: Var,
        from: usize,
        to: usize,
    },
    ConcatChan(Vec<Var>),
}

struct Node {
    value: Tensor,
    op: Op,
    needs_grad: bool,
}

/// Gradients produced by [`Tape::backward`], indexed by [`Var`].
pub struct Gradients {
    grads: Vec<Option<Tensor>>,
    tape_id: u64,
}

impl Gradients {
    /// Gradient of the loss w.r.t. `v`, if `v` influences the loss and
    /// requires grad.
    pub fn get(&self, v: Var) -> Option<&Tensor> {
        self.grads.get(v.0).and_then(|g| g.as_ref())
    }

    /// Identity of the tape that produced these gradients. Parameters
    /// registered on a *different* tape must not consume them (their
    /// `Var` indices would be stale) — see [`Param::absorb`].
    pub fn tape_id(&self) -> u64 {
        self.tape_id
    }
}

/// The filter operand `U` of [`Tape::tap_gemm`].
#[derive(Clone, Debug)]
pub enum TapFilter {
    /// Taps-last filter rows `[K·C, n²]` recorded on this tape: packed
    /// into per-tap order on every call, and gradients flow back into
    /// them (training).
    Rows(Var),
    /// A constant filter prepacked once in per-tap `[n², K, C]` order and
    /// shared by handle: nothing is copied per call, and no gradient is
    /// produced for it (inference).
    Packed(Arc<PackedA<f32>>),
}

/// Running statistics handed to [`Tape::batch_norm`]: the per-channel
/// running mean/variance used in eval mode, plus the variance epsilon.
pub struct BnRunning<'a> {
    /// Per-channel running mean.
    pub mean: &'a [f32],
    /// Per-channel running variance.
    pub var: &'a [f32],
    /// Variance epsilon.
    pub eps: f32,
}

/// A define-by-run computation tape.
///
/// # Example
///
/// ```
/// use wa_nn::Tape;
/// use wa_tensor::Tensor;
///
/// let mut tape = Tape::new();
/// let x = tape.leaf_grad(Tensor::from_vec(vec![3.0], &[1]));
/// let y = tape.mul(x, x); // y = x²
/// let grads = tape.backward(y);
/// assert_eq!(grads.get(x).unwrap().data(), &[6.0]); // dy/dx = 2x
/// ```
pub struct Tape {
    nodes: Vec<Node>,
    id: u64,
}

impl Default for Tape {
    fn default() -> Self {
        Tape::new()
    }
}

impl Tape {
    /// Creates an empty tape with a process-unique identity.
    pub fn new() -> Tape {
        Tape {
            nodes: Vec::new(),
            id: NEXT_TAPE_ID.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
        }
    }

    /// Process-unique identity of this tape.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Number of nodes recorded so far.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tape is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The value of a variable.
    pub fn value(&self, v: Var) -> &Tensor {
        &self.nodes[v.0].value
    }

    fn push(&mut self, value: Tensor, op: Op, needs_grad: bool) -> Var {
        self.nodes.push(Node {
            value,
            op,
            needs_grad,
        });
        Var(self.nodes.len() - 1)
    }

    fn ng(&self, v: Var) -> bool {
        self.nodes[v.0].needs_grad
    }

    /// Registers a constant input (no gradient).
    ///
    /// Zero-copy: `Tensor` storage is copy-on-write, so handing a clone
    /// to this method shares the buffer with the caller rather than
    /// duplicating it (tape values are never mutated after creation).
    pub fn leaf(&mut self, t: Tensor) -> Var {
        self.push(t, Op::Leaf, false)
    }

    /// Registers an input that requires gradient.
    pub fn leaf_grad(&mut self, t: Tensor) -> Var {
        self.push(t, Op::Leaf, true)
    }

    /// Registers a [`Param`], remembering the variable on the parameter so
    /// its gradient can be pulled after `backward`. Non-trainable params
    /// become constant leaves. Like [`Tape::param_ref`], the registered
    /// leaf shares the parameter's buffer (copy-on-write) — the
    /// optimizer's later in-place step detaches rather than corrupting
    /// the recorded forward value.
    pub fn param(&mut self, p: &mut Param) -> Var {
        let v = if p.trainable {
            self.leaf_grad(p.value.clone())
        } else {
            self.leaf(p.value.clone())
        };
        p.set_last_var(self.id, v);
        v
    }

    /// Registers a [`Param`] as a constant leaf **without** recording the
    /// variable on the parameter — the read-only registration used by the
    /// shared-reference inference path ([`crate::Infer`]), where many
    /// worker tapes read one set of parameters concurrently and nobody
    /// will ever pull gradients.
    ///
    /// Genuinely zero-copy: the leaf *aliases* the parameter's buffer
    /// (an O(1) copy-on-write clone), so N worker tapes share one set of
    /// parameter tensors instead of each deep-copying ~every weight per
    /// chunk. The aliasing is safe because tape values are read-only and
    /// any later in-place update of the parameter (optimizer step,
    /// checkpoint import) detaches through `Tensor::data_mut` without
    /// touching the registered leaf.
    pub fn param_ref(&mut self, p: &Param) -> Var {
        self.leaf(p.value.clone())
    }

    // ---- elementwise ----------------------------------------------------

    /// Elementwise sum.
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let v = self.value(a).add(self.value(b));
        let g = self.ng(a) || self.ng(b);
        self.push(v, Op::Add(a, b), g)
    }

    /// Elementwise (Hadamard) product.
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        let v = self.value(a).mul(self.value(b));
        let g = self.ng(a) || self.ng(b);
        self.push(v, Op::Mul(a, b), g)
    }

    /// Scalar multiple.
    pub fn scale(&mut self, a: Var, s: f32) -> Var {
        let v = self.value(a).scale(s);
        let g = self.ng(a);
        self.push(v, Op::Scale(a, s), g)
    }

    /// Adds a `[C]` bias to every row of a `[R, C]` matrix.
    ///
    /// # Panics
    ///
    /// Panics if shapes disagree.
    pub fn add_bias_rows(&mut self, x: Var, b: Var) -> Var {
        let xv = self.value(x);
        let bv = self.value(b);
        assert_eq!(xv.ndim(), 2, "add_bias_rows expects a matrix");
        let (r, c) = (xv.dim(0), xv.dim(1));
        assert_eq!(
            bv.shape(),
            &[c],
            "bias must be [{}], got {:?}",
            c,
            bv.shape()
        );
        // deliberate eager copy: the whole buffer is rewritten below, and
        // tape values are shared (COW) — see Tensor::deep_clone
        let mut out = xv.deep_clone();
        {
            let bd = bv.data().to_vec();
            let od = out.data_mut();
            for i in 0..r {
                for j in 0..c {
                    od[i * c + j] += bd[j];
                }
            }
        }
        let g = self.ng(x) || self.ng(b);
        self.push(out, Op::AddBiasRows(x, b), g)
    }

    /// Adds a `[C]` bias per channel of an NCHW tensor.
    ///
    /// # Panics
    ///
    /// Panics if shapes disagree.
    pub fn add_bias_chan(&mut self, x: Var, b: Var) -> Var {
        let xv = self.value(x);
        let bv = self.value(b);
        assert_eq!(xv.ndim(), 4, "add_bias_chan expects NCHW");
        let (n, c, h, w) = (xv.dim(0), xv.dim(1), xv.dim(2), xv.dim(3));
        assert_eq!(
            bv.shape(),
            &[c],
            "bias must be [{}], got {:?}",
            c,
            bv.shape()
        );
        let mut out = xv.deep_clone();
        {
            let bd = bv.data().to_vec();
            let od = out.data_mut();
            for img in 0..n {
                for ch in 0..c {
                    let base = (img * c + ch) * h * w;
                    for v in &mut od[base..base + h * w] {
                        *v += bd[ch];
                    }
                }
            }
        }
        let g = self.ng(x) || self.ng(b);
        self.push(out, Op::AddBiasChan(x, b), g)
    }

    // ---- linear algebra --------------------------------------------------

    /// Matrix product `a · b`.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let v = gemm(self.value(a), Transpose::No, self.value(b), Transpose::No);
        let g = self.ng(a) || self.ng(b);
        self.push(v, Op::Matmul(a, b), g)
    }

    /// Matrix product `a · bᵀ` (the workhorse for applying transform
    /// matrices from the right).
    pub fn matmul_nt(&mut self, a: Var, b: Var) -> Var {
        let v = gemm(self.value(a), Transpose::No, self.value(b), Transpose::Yes);
        let g = self.ng(a) || self.ng(b);
        self.push(v, Op::MatmulNT(a, b), g)
    }

    /// The Winograd per-tap GEMM stage `M_t = U_t · V_t` on its native
    /// taps-last layouts: `v_rows` holds the transformed input as
    /// `[T·C, n²]` rows (`n² = taps`, `C = in_ch`), and the result holds
    /// the products as `[T, K, n²]` (`K = out_ch`) — the rows the output
    /// transform reads.
    /// One [`gemm_taps`] call; no operand is permuted.
    ///
    /// The filter is either on the tape ([`TapFilter::Rows`], training:
    /// packed per call and differentiated) or a constant prepacked once
    /// and shared by handle ([`TapFilter::Packed`], inference).
    ///
    /// # Panics
    ///
    /// Panics if the operand lengths disagree with `taps`, `out_ch` and
    /// `in_ch`.
    pub fn tap_gemm(
        &mut self,
        filter: TapFilter,
        v_rows: Var,
        taps: usize,
        out_ch: usize,
        in_ch: usize,
    ) -> Var {
        let (u, a) = match filter {
            TapFilter::Rows(u) => {
                let a = PackedA::pack_taps_last(self.value(u).data(), taps, out_ch, in_ch);
                (Some(u), Arc::new(a))
            }
            TapFilter::Packed(a) => (None, a),
        };
        assert_eq!(
            (a.batch(), a.m(), a.k()),
            (taps, out_ch, in_ch),
            "tap_gemm filter is not [{taps}, {out_ch}, {in_ch}]"
        );
        let vv = self.value(v_rows);
        let tiles = vv.len() / (taps * in_ch).max(1);
        assert_eq!(
            vv.len(),
            tiles * taps * in_ch,
            "tap_gemm input is not [T·{in_ch}, {taps}] rows"
        );
        let mut out = Tensor::zeros(&[tiles, out_ch, taps]);
        gemm_taps(&a, vv.data(), out.data_mut());
        let g = u.is_some_and(|u| self.ng(u)) || self.ng(v_rows);
        self.push(out, Op::TapGemm { u, a, v: v_rows }, g)
    }

    // ---- shape ------------------------------------------------------------

    /// Reshape (element count preserved).
    ///
    /// # Panics
    ///
    /// Panics if element counts differ.
    pub fn reshape(&mut self, x: Var, shape: &[usize]) -> Var {
        let v = self.value(x).reshape(shape);
        let g = self.ng(x);
        self.push(v, Op::Reshape(x), g)
    }

    /// Transposes each `rows × cols` block stored as a row of a
    /// `[R, rows·cols]` matrix, yielding `[R, cols·rows]`.
    ///
    /// # Panics
    ///
    /// Panics if the row length is not `rows·cols`.
    pub fn tile_transpose(&mut self, x: Var, rows: usize, cols: usize) -> Var {
        let xv = self.value(x);
        assert_eq!(xv.ndim(), 2, "tile_transpose expects a matrix");
        assert_eq!(
            xv.dim(1),
            rows * cols,
            "row length {} != {}x{}",
            xv.dim(1),
            rows,
            cols
        );
        let r = xv.dim(0);
        let mut out = Tensor::zeros(&[r, cols * rows]);
        {
            let src = xv.data();
            let dst = out.data_mut();
            for t in 0..r {
                let s0 = t * rows * cols;
                for i in 0..rows {
                    for j in 0..cols {
                        dst[s0 + j * rows + i] = src[s0 + i * cols + j];
                    }
                }
            }
        }
        let g = self.ng(x);
        self.push(out, Op::TileTranspose { x, rows, cols }, g)
    }

    /// Permutes a tensor interpreted as 3-D `dims`, producing the
    /// permuted-contiguous result (2-D output shape `[d_perm0, d_perm1 ·
    /// d_perm2]` is *not* imposed; the output keeps 3-D shape).
    ///
    /// # Panics
    ///
    /// Panics if `x` length differs from the product of `dims` or `perm`
    /// is not a permutation of `{0,1,2}`.
    pub fn permute3(&mut self, x: Var, dims: [usize; 3], perm: [usize; 3]) -> Var {
        let xv = self.value(x);
        assert_eq!(
            xv.len(),
            dims[0] * dims[1] * dims[2],
            "permute3 length mismatch"
        );
        {
            let mut sorted = perm;
            sorted.sort_unstable();
            assert_eq!(sorted, [0, 1, 2], "perm must be a permutation of 0..3");
        }
        let out = permute3_tensor(xv, dims, perm);
        let g = self.ng(x);
        self.push(out, Op::Permute3 { x, dims, perm }, g)
    }

    // ---- nonlinearities and pooling ---------------------------------------

    /// Rectified linear unit.
    pub fn relu(&mut self, x: Var) -> Var {
        let v = self.value(x).map(|a| a.max(0.0));
        let g = self.ng(x);
        self.push(v, Op::Relu(x), g)
    }

    /// 2×2 max-pooling with stride 2 on NCHW (the paper replaces stride-2
    /// convolutions with max-pool + dense conv, §5.1).
    ///
    /// # Panics
    ///
    /// Panics unless the input is 4-D with even spatial dims.
    pub fn max_pool2d(&mut self, x: Var) -> Var {
        let xv = self.value(x);
        assert_eq!(xv.ndim(), 4, "max_pool2d expects NCHW");
        let (n, c, h, w) = (xv.dim(0), xv.dim(1), xv.dim(2), xv.dim(3));
        assert!(
            h % 2 == 0 && w % 2 == 0,
            "max_pool2d needs even dims, got {}x{}",
            h,
            w
        );
        let (oh, ow) = (h / 2, w / 2);
        let mut out = Tensor::zeros(&[n, c, oh, ow]);
        let mut indices = vec![0u32; n * c * oh * ow];
        {
            let src = xv.data();
            let dst = out.data_mut();
            for img in 0..n * c {
                let s0 = img * h * w;
                let d0 = img * oh * ow;
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut best = f32::NEG_INFINITY;
                        let mut best_idx = 0usize;
                        for dy in 0..2 {
                            for dx in 0..2 {
                                let idx = s0 + (oy * 2 + dy) * w + ox * 2 + dx;
                                if src[idx] > best {
                                    best = src[idx];
                                    best_idx = idx;
                                }
                            }
                        }
                        dst[d0 + oy * ow + ox] = best;
                        indices[d0 + oy * ow + ox] = best_idx as u32;
                    }
                }
            }
        }
        let g = self.ng(x);
        self.push(out, Op::MaxPool2d { x, indices }, g)
    }

    /// Global average pooling NCHW → `[N, C]`.
    ///
    /// # Panics
    ///
    /// Panics unless the input is 4-D.
    pub fn global_avg_pool(&mut self, x: Var) -> Var {
        let xv = self.value(x);
        assert_eq!(xv.ndim(), 4, "global_avg_pool expects NCHW");
        let (n, c, h, w) = (xv.dim(0), xv.dim(1), xv.dim(2), xv.dim(3));
        let mut out = Tensor::zeros(&[n, c]);
        {
            let src = xv.data();
            let dst = out.data_mut();
            let inv = 1.0 / (h * w) as f32;
            for i in 0..n * c {
                let s: f32 = src[i * h * w..(i + 1) * h * w].iter().sum();
                dst[i] = s * inv;
            }
        }
        let g = self.ng(x);
        self.push(out, Op::Gap(x), g)
    }

    // ---- reductions and losses ---------------------------------------------

    /// Sum of squares → scalar `[1]` (L2 regularization terms of Eq. 2/3).
    pub fn sq_sum(&mut self, x: Var) -> Var {
        let v = Tensor::from_vec(vec![self.value(x).sq_norm() as f32], &[1]);
        let g = self.ng(x);
        self.push(v, Op::SqSum(x), g)
    }

    /// Sum of several scalars → scalar `[1]` (total loss assembly).
    ///
    /// # Panics
    ///
    /// Panics if `xs` is empty or any operand is not shape `[1]`.
    pub fn add_n(&mut self, xs: &[Var]) -> Var {
        assert!(!xs.is_empty(), "add_n needs at least one operand");
        let mut acc = 0.0f32;
        for &v in xs {
            assert_eq!(
                self.value(v).shape(),
                &[1],
                "add_n operands must be scalars"
            );
            acc += self.value(v).data()[0];
        }
        let g = xs.iter().any(|&v| self.ng(v));
        self.push(Tensor::from_vec(vec![acc], &[1]), Op::AddN(xs.to_vec()), g)
    }

    /// Softmax cross-entropy loss (mean over the batch) → scalar `[1]`.
    ///
    /// `logits` is `[N, K]`; `targets` are class indices.
    ///
    /// # Panics
    ///
    /// Panics if `targets.len() != N` or any target is out of range.
    pub fn cross_entropy(&mut self, logits: Var, targets: &[usize]) -> Var {
        let lv = self.value(logits);
        assert_eq!(lv.ndim(), 2, "cross_entropy expects [N, K] logits");
        let (n, k) = (lv.dim(0), lv.dim(1));
        assert_eq!(
            targets.len(),
            n,
            "targets length {} != batch {}",
            targets.len(),
            n
        );
        let mut probs = Tensor::zeros(&[n, k]);
        let mut loss = 0.0f64;
        {
            let src = lv.data();
            let dst = probs.data_mut();
            for i in 0..n {
                assert!(targets[i] < k, "target {} out of range {}", targets[i], k);
                let row = &src[i * k..(i + 1) * k];
                let maxv = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
                let mut z = 0.0f32;
                for j in 0..k {
                    let e = (row[j] - maxv).exp();
                    dst[i * k + j] = e;
                    z += e;
                }
                for j in 0..k {
                    dst[i * k + j] /= z;
                }
                loss -= (dst[i * k + targets[i]].max(1e-12) as f64).ln();
            }
        }
        let v = Tensor::from_vec(vec![(loss / n as f64) as f32], &[1]);
        let g = self.ng(logits);
        self.push(
            v,
            Op::CrossEntropy {
                logits,
                probs,
                targets: targets.to_vec(),
            },
            g,
        )
    }

    // ---- quantization --------------------------------------------------------

    /// Fake-quantization with straight-through-estimator gradients at a
    /// fixed scale. FP32 is the identity (no node state). This is the `Qx`
    /// box of the paper's Figure 2.
    pub fn fake_quant(&mut self, x: Var, bits: BitWidth, scale: f32) -> Var {
        let v = fake_quant_scale(self.value(x), bits, scale);
        let g = self.ng(x);
        self.push(v, Op::FakeQuant { x, bits, scale }, g)
    }

    /// Tap-wise fake-quantization with straight-through-estimator
    /// gradients: the element at flat index `i` is snapped to the grid of
    /// tap `i % bits.len()` (one `(bits, scale)` pair per tap position of
    /// an `n×n` Winograd tile). With every tap at one shared pair this is
    /// bit-for-bit [`Tape::fake_quant`].
    ///
    /// # Panics
    ///
    /// Panics if `bits`/`scales` disagree in length or do not divide the
    /// tensor's length.
    pub fn fake_quant_taps(&mut self, x: Var, bits: &[BitWidth], scales: &[f32]) -> Var {
        let v = fake_quant_taps(self.value(x), bits, scales);
        let g = self.ng(x);
        self.push(
            v,
            Op::FakeQuantTaps {
                x,
                bits: bits.to_vec(),
                scales: scales.to_vec(),
            },
            g,
        )
    }

    // ---- convolution plumbing -------------------------------------------------

    /// Symmetric zero-padding of an NCHW tensor.
    pub fn pad(&mut self, x: Var, pad: usize) -> Var {
        let v = pad_nchw(self.value(x), pad);
        let g = self.ng(x);
        self.push(v, Op::Pad { x, pad }, g)
    }

    /// Winograd padding: `geom.pad` plus the extra bottom/right zeros the
    /// tile grid needs (see [`TileGeometry::pad_input`]).
    pub fn pad_tiles(&mut self, x: Var, geom: TileGeometry) -> Var {
        let v = geom.pad_input(self.value(x));
        let g = self.ng(x);
        self.push(v, Op::PadTiles { x, geom }, g)
    }

    /// Gathers overlapping Winograd input tiles (see
    /// [`TileGeometry::gather_tiles`]).
    pub fn gather_tiles(&mut self, x: Var, geom: TileGeometry) -> Var {
        let xv = self.value(x);
        let (batch, ch) = (xv.dim(0), xv.dim(1));
        let v = geom.gather_tiles(xv);
        let g = self.ng(x);
        self.push(v, Op::GatherTiles { x, geom, batch, ch }, g)
    }

    /// Assembles `m×m` output tiles into NCHW, cropping tile overrun (see
    /// [`TileGeometry::assemble_output`]).
    pub fn assemble_output(&mut self, x: Var, geom: TileGeometry, batch: usize, ch: usize) -> Var {
        let v = geom.assemble_output(self.value(x), batch, ch);
        let g = self.ng(x);
        self.push(v, Op::AssembleOut { x, geom }, g)
    }

    /// Lowers a padded NCHW input to im2row patch rows (the paper's
    /// `im2row` baseline algorithm).
    pub fn im2row(&mut self, x: Var, kh: usize, kw: usize, stride: usize) -> Var {
        let v = im2row(self.value(x), kh, kw, stride);
        let g = self.ng(x);
        self.push(v, Op::Im2Row { x, kh, kw, stride }, g)
    }

    /// Slices channels `[from, to)` of an NCHW tensor (for grouped
    /// convolutions à la ResNeXt).
    ///
    /// # Panics
    ///
    /// Panics if the range is invalid.
    pub fn slice_chan(&mut self, x: Var, from: usize, to: usize) -> Var {
        let xv = self.value(x);
        assert_eq!(xv.ndim(), 4, "slice_chan expects NCHW");
        let (n, c, h, w) = (xv.dim(0), xv.dim(1), xv.dim(2), xv.dim(3));
        assert!(
            from < to && to <= c,
            "invalid channel range {}..{} of {}",
            from,
            to,
            c
        );
        let cs = to - from;
        let mut out = Tensor::zeros(&[n, cs, h, w]);
        {
            let src = xv.data();
            let dst = out.data_mut();
            for img in 0..n {
                for ch in 0..cs {
                    let s0 = ((img * c) + from + ch) * h * w;
                    let d0 = ((img * cs) + ch) * h * w;
                    dst[d0..d0 + h * w].copy_from_slice(&src[s0..s0 + h * w]);
                }
            }
        }
        let g = self.ng(x);
        self.push(out, Op::SliceChan { x, from, to }, g)
    }

    /// Concatenates NCHW tensors along the channel dimension.
    ///
    /// # Panics
    ///
    /// Panics if `xs` is empty or batch/spatial dims disagree.
    pub fn concat_chan(&mut self, xs: &[Var]) -> Var {
        assert!(!xs.is_empty(), "concat_chan needs at least one input");
        let (n, h, w) = {
            let v = self.value(xs[0]);
            assert_eq!(v.ndim(), 4, "concat_chan expects NCHW");
            (v.dim(0), v.dim(2), v.dim(3))
        };
        let mut total_c = 0;
        for &x in xs {
            let v = self.value(x);
            assert_eq!(
                (v.dim(0), v.dim(2), v.dim(3)),
                (n, h, w),
                "concat_chan dims disagree"
            );
            total_c += v.dim(1);
        }
        let mut out = Tensor::zeros(&[n, total_c, h, w]);
        {
            let dst = out.data_mut();
            let mut c0 = 0;
            for &x in xs {
                let v = self.value(x);
                let c = v.dim(1);
                let src = v.data();
                for img in 0..n {
                    let s0 = img * c * h * w;
                    let d0 = (img * total_c + c0) * h * w;
                    dst[d0..d0 + c * h * w].copy_from_slice(&src[s0..s0 + c * h * w]);
                }
                c0 += c;
            }
        }
        let g = xs.iter().any(|&x| self.ng(x));
        self.push(out, Op::ConcatChan(xs.to_vec()), g)
    }

    // ---- normalization ----------------------------------------------------------

    /// Batch normalization over NCHW with affine parameters.
    ///
    /// In training mode uses batch statistics and returns the per-channel
    /// `(mean, var)` actually used so the layer can maintain running
    /// statistics; in eval mode uses the provided running statistics.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatches.
    pub fn batch_norm(
        &mut self,
        x: Var,
        gamma: Var,
        beta: Var,
        running: BnRunning<'_>,
        training: bool,
    ) -> (Var, Vec<f32>, Vec<f32>) {
        let BnRunning {
            mean: running_mean,
            var: running_var,
            eps,
        } = running;
        let xv = self.value(x).clone();
        assert_eq!(xv.ndim(), 4, "batch_norm expects NCHW");
        let (n, c, h, w) = (xv.dim(0), xv.dim(1), xv.dim(2), xv.dim(3));
        assert_eq!(self.value(gamma).shape(), &[c], "gamma must be [{}]", c);
        assert_eq!(self.value(beta).shape(), &[c], "beta must be [{}]", c);
        assert_eq!(running_mean.len(), c, "running_mean must be [{}]", c);
        assert_eq!(running_var.len(), c, "running_var must be [{}]", c);

        let m = (n * h * w) as f32;
        let (mean, var) = if training {
            let mut mean = vec![0.0f32; c];
            let mut var = vec![0.0f32; c];
            let src = xv.data();
            for img in 0..n {
                for ch in 0..c {
                    let base = (img * c + ch) * h * w;
                    for &v in &src[base..base + h * w] {
                        mean[ch] += v;
                    }
                }
            }
            for ch in 0..c {
                mean[ch] /= m;
            }
            for img in 0..n {
                for ch in 0..c {
                    let base = (img * c + ch) * h * w;
                    for &v in &src[base..base + h * w] {
                        let d = v - mean[ch];
                        var[ch] += d * d;
                    }
                }
            }
            for ch in 0..c {
                var[ch] /= m;
            }
            (mean, var)
        } else {
            (running_mean.to_vec(), running_var.to_vec())
        };

        let invstd: Vec<f32> = var.iter().map(|&v| 1.0 / (v + eps).sqrt()).collect();
        let mut xhat = Tensor::zeros(xv.shape());
        let mut out = Tensor::zeros(xv.shape());
        {
            let src = xv.data();
            let xh = xhat.data_mut();
            let gm = self.value(gamma).data().to_vec();
            let bt = self.value(beta).data().to_vec();
            let od = out.data_mut();
            for img in 0..n {
                for ch in 0..c {
                    let base = (img * c + ch) * h * w;
                    let (mu, is) = (mean[ch], invstd[ch]);
                    for i in base..base + h * w {
                        let nh = (src[i] - mu) * is;
                        xh[i] = nh;
                        od[i] = gm[ch] * nh + bt[ch];
                    }
                }
            }
        }
        let g = self.ng(x) || self.ng(gamma) || self.ng(beta);
        let saved = BnSaved {
            invstd,
            xhat,
            batch_stats: training,
        };
        let v = self.push(
            out,
            Op::BatchNorm {
                x,
                gamma,
                beta,
                saved,
            },
            g,
        );
        (v, mean, var)
    }

    // ---- backward --------------------------------------------------------------

    /// Reverse-mode sweep from a scalar `loss` variable.
    ///
    /// # Panics
    ///
    /// Panics if `loss` is not shape `[1]`.
    pub fn backward(&mut self, loss: Var) -> Gradients {
        assert_eq!(
            self.value(loss).shape(),
            &[1],
            "backward requires a scalar loss"
        );
        let mut grads: Vec<Option<Tensor>> = (0..self.nodes.len()).map(|_| None).collect();
        grads[loss.0] = Some(Tensor::ones(&[1]));

        for idx in (0..self.nodes.len()).rev() {
            if !self.nodes[idx].needs_grad {
                grads[idx] = None;
                continue;
            }
            let Some(g) = grads[idx].take() else { continue };
            self.backprop_node(idx, &g, &mut grads);
            // keep the gradient available for callers (params, inputs)
            grads[idx] = Some(g);
        }
        Gradients {
            grads,
            tape_id: self.id,
        }
    }

    fn accumulate(grads: &mut [Option<Tensor>], v: Var, g: Tensor) {
        match &mut grads[v.0] {
            Some(acc) => acc.add_assign(&g),
            slot @ None => *slot = Some(g),
        }
    }

    fn backprop_node(&self, idx: usize, g: &Tensor, grads: &mut [Option<Tensor>]) {
        let node = &self.nodes[idx];
        match &node.op {
            Op::Leaf => {}
            Op::Add(a, b) => {
                if self.ng(*a) {
                    Self::accumulate(grads, *a, g.clone());
                }
                if self.ng(*b) {
                    Self::accumulate(grads, *b, g.clone());
                }
            }
            Op::Mul(a, b) => {
                if self.ng(*a) {
                    Self::accumulate(grads, *a, g.mul(self.value(*b)));
                }
                if self.ng(*b) {
                    Self::accumulate(grads, *b, g.mul(self.value(*a)));
                }
            }
            Op::Scale(a, s) => {
                if self.ng(*a) {
                    Self::accumulate(grads, *a, g.scale(*s));
                }
            }
            Op::AddBiasRows(x, b) => {
                if self.ng(*x) {
                    Self::accumulate(grads, *x, g.clone());
                }
                if self.ng(*b) {
                    let (r, c) = (g.dim(0), g.dim(1));
                    let mut db = Tensor::zeros(&[c]);
                    let gd = g.data();
                    let dd = db.data_mut();
                    for i in 0..r {
                        for j in 0..c {
                            dd[j] += gd[i * c + j];
                        }
                    }
                    Self::accumulate(grads, *b, db);
                }
            }
            Op::AddBiasChan(x, b) => {
                if self.ng(*x) {
                    Self::accumulate(grads, *x, g.clone());
                }
                if self.ng(*b) {
                    let (n, c, h, w) = (g.dim(0), g.dim(1), g.dim(2), g.dim(3));
                    let mut db = Tensor::zeros(&[c]);
                    let gd = g.data();
                    let dd = db.data_mut();
                    for img in 0..n {
                        for ch in 0..c {
                            let base = (img * c + ch) * h * w;
                            dd[ch] += gd[base..base + h * w].iter().sum::<f32>();
                        }
                    }
                    Self::accumulate(grads, *b, db);
                }
            }
            Op::Matmul(a, b) => {
                // c = a·b : da = g·bᵀ, db = aᵀ·g
                if self.ng(*a) {
                    Self::accumulate(
                        grads,
                        *a,
                        gemm(g, Transpose::No, self.value(*b), Transpose::Yes),
                    );
                }
                if self.ng(*b) {
                    Self::accumulate(
                        grads,
                        *b,
                        gemm(self.value(*a), Transpose::Yes, g, Transpose::No),
                    );
                }
            }
            Op::MatmulNT(a, b) => {
                // c = a·bᵀ : da = g·b, db = gᵀ·a
                if self.ng(*a) {
                    Self::accumulate(
                        grads,
                        *a,
                        gemm(g, Transpose::No, self.value(*b), Transpose::No),
                    );
                }
                if self.ng(*b) {
                    Self::accumulate(
                        grads,
                        *b,
                        gemm(g, Transpose::Yes, self.value(*a), Transpose::No),
                    );
                }
            }
            Op::TapGemm { u, a, v } => {
                let (taps, k, c) = (a.batch(), a.m(), a.k());
                let t = g.len() / (taps * k).max(1);
                // Per tap s: da[s] = g[s]·v[s]ᵀ and dv[s] = a[s]ᵀ·g[s], in
                // the per-tap [n², ·, T] order and the accumulation order
                // of the former permute–bmm–permute chain, then back to
                // the taps-last layouts of the operands.
                let gt = permute3_tensor(g, [t, k, taps], [2, 1, 0]); // [n², K, T]
                let gd = gt.data();
                if let Some(u) = u.filter(|&u| self.ng(u)) {
                    let vt = permute3_tensor(self.value(*v), [t, c, taps], [2, 1, 0]);
                    let vd = vt.data();
                    let mut da = vec![0.0f32; taps * k * c];
                    for s in 0..taps {
                        let gb = &gd[s * k * t..(s + 1) * k * t];
                        let vb = &vd[s * c * t..(s + 1) * c * t];
                        let ab = &mut da[s * k * c..(s + 1) * k * c];
                        for i in 0..k {
                            for p in 0..c {
                                let mut acc = 0.0f32;
                                for j in 0..t {
                                    acc += gb[i * t + j] * vb[p * t + j];
                                }
                                ab[i * c + p] += acc;
                            }
                        }
                    }
                    let da = Tensor::from_vec(da, &[taps, k, c]);
                    let du = permute3_tensor(&da, [taps, k, c], [1, 2, 0]); // [K, C, n²]
                    Self::accumulate(grads, u, du.reshape(self.value(u).shape()));
                }
                if self.ng(*v) {
                    let mut dv = vec![0.0f32; taps * c * t];
                    for s in 0..taps {
                        let gb = &gd[s * k * t..(s + 1) * k * t];
                        let ab = a.item(s);
                        let vb = &mut dv[s * c * t..(s + 1) * c * t];
                        for i in 0..k {
                            for p in 0..c {
                                let aval = ab[i * c + p];
                                if aval != 0.0 {
                                    let grow = &gb[i * t..(i + 1) * t];
                                    let vrow = &mut vb[p * t..(p + 1) * t];
                                    for j in 0..t {
                                        vrow[j] += aval * grow[j];
                                    }
                                }
                            }
                        }
                    }
                    let dv = Tensor::from_vec(dv, &[taps, c, t]);
                    let dv = permute3_tensor(&dv, [taps, c, t], [2, 1, 0]); // [T, C, n²]
                    Self::accumulate(grads, *v, dv.reshape(self.value(*v).shape()));
                }
            }
            Op::Reshape(x) => {
                if self.ng(*x) {
                    Self::accumulate(grads, *x, g.reshape(self.value(*x).shape()));
                }
            }
            Op::TileTranspose { x, rows, cols } => {
                if self.ng(*x) {
                    // adjoint of per-tile transpose is per-tile transpose
                    // with swapped dims
                    let r = g.dim(0);
                    let mut out = Tensor::zeros(&[r, rows * cols]);
                    let src = g.data();
                    let dst = out.data_mut();
                    for t in 0..r {
                        let s0 = t * rows * cols;
                        for i in 0..*cols {
                            for j in 0..*rows {
                                dst[s0 + j * cols + i] = src[s0 + i * rows + j];
                            }
                        }
                    }
                    Self::accumulate(grads, *x, out);
                }
            }
            Op::Permute3 { x, dims, perm } => {
                if self.ng(*x) {
                    // inverse permutation
                    let mut inv = [0usize; 3];
                    for (i, &p) in perm.iter().enumerate() {
                        inv[p] = i;
                    }
                    let pdims = [dims[perm[0]], dims[perm[1]], dims[perm[2]]];
                    let out = permute3_tensor(g, pdims, inv);
                    Self::accumulate(grads, *x, out.reshape(self.value(*x).shape()));
                }
            }
            Op::Relu(x) => {
                if self.ng(*x) {
                    let mask = node.value.map(|v| if v > 0.0 { 1.0 } else { 0.0 });
                    Self::accumulate(grads, *x, g.mul(&mask));
                }
            }
            Op::MaxPool2d { x, indices } => {
                if self.ng(*x) {
                    let mut dx = Tensor::zeros(self.value(*x).shape());
                    let dd = dx.data_mut();
                    for (o, &src_idx) in indices.iter().enumerate() {
                        dd[src_idx as usize] += g.data()[o];
                    }
                    Self::accumulate(grads, *x, dx);
                }
            }
            Op::Gap(x) => {
                if self.ng(*x) {
                    let xs = self.value(*x).shape();
                    let (n, c, h, w) = (xs[0], xs[1], xs[2], xs[3]);
                    let inv = 1.0 / (h * w) as f32;
                    let mut dx = Tensor::zeros(xs);
                    let dd = dx.data_mut();
                    for i in 0..n * c {
                        let gv = g.data()[i] * inv;
                        for v in &mut dd[i * h * w..(i + 1) * h * w] {
                            *v = gv;
                        }
                    }
                    Self::accumulate(grads, *x, dx);
                }
            }
            Op::SqSum(x) => {
                if self.ng(*x) {
                    let s = 2.0 * g.data()[0];
                    Self::accumulate(grads, *x, self.value(*x).scale(s));
                }
            }
            Op::AddN(xs) => {
                for &v in xs {
                    if self.ng(v) {
                        Self::accumulate(grads, v, g.clone());
                    }
                }
            }
            Op::CrossEntropy {
                logits,
                probs,
                targets,
            } => {
                if self.ng(*logits) {
                    let (n, k) = (probs.dim(0), probs.dim(1));
                    let mut dl = probs.deep_clone();
                    {
                        let dd = dl.data_mut();
                        for (i, &t) in targets.iter().enumerate() {
                            dd[i * k + t] -= 1.0;
                        }
                        let s = g.data()[0] / n as f32;
                        for v in dd.iter_mut() {
                            *v *= s;
                        }
                    }
                    Self::accumulate(grads, *logits, dl);
                }
            }
            Op::FakeQuant { x, bits, scale } => {
                if self.ng(*x) {
                    let mask = ste_mask(self.value(*x), *bits, *scale);
                    Self::accumulate(grads, *x, g.mul(&mask));
                }
            }
            Op::FakeQuantTaps { x, bits, scales } => {
                if self.ng(*x) {
                    let mask = ste_mask_taps(self.value(*x), bits, scales);
                    Self::accumulate(grads, *x, g.mul(&mask));
                }
            }
            Op::Pad { x, pad } => {
                if self.ng(*x) {
                    Self::accumulate(grads, *x, unpad_nchw(g, *pad));
                }
            }
            Op::PadTiles { x, geom } => {
                if self.ng(*x) {
                    Self::accumulate(grads, *x, geom.unpad_input(g));
                }
            }
            Op::GatherTiles { x, geom, batch, ch } => {
                if self.ng(*x) {
                    Self::accumulate(grads, *x, geom.scatter_tiles(g, *batch, *ch));
                }
            }
            Op::AssembleOut { x, geom, .. } => {
                if self.ng(*x) {
                    Self::accumulate(grads, *x, geom.disassemble_output(g));
                }
            }
            Op::Im2Row { x, kh, kw, stride } => {
                if self.ng(*x) {
                    let xs = self.value(*x).shape();
                    Self::accumulate(
                        grads,
                        *x,
                        col2im(g, [xs[0], xs[1], xs[2], xs[3]], (*kh, *kw), *stride),
                    );
                }
            }
            Op::SliceChan { x, from, to } => {
                if self.ng(*x) {
                    let xs = self.value(*x).shape();
                    let (n, c, h, w) = (xs[0], xs[1], xs[2], xs[3]);
                    let cs = to - from;
                    let mut dx = Tensor::zeros(xs);
                    let src = g.data();
                    let dst = dx.data_mut();
                    for img in 0..n {
                        for ch in 0..cs {
                            let d0 = ((img * c) + from + ch) * h * w;
                            let s0 = ((img * cs) + ch) * h * w;
                            dst[d0..d0 + h * w].copy_from_slice(&src[s0..s0 + h * w]);
                        }
                    }
                    Self::accumulate(grads, *x, dx);
                }
            }
            Op::ConcatChan(xs) => {
                let gs = g.shape();
                let (n, total_c, h, w) = (gs[0], gs[1], gs[2], gs[3]);
                let src = g.data();
                let mut c0 = 0;
                for &x in xs {
                    let c = self.value(x).dim(1);
                    if self.ng(x) {
                        let mut dx = Tensor::zeros(self.value(x).shape());
                        let dst = dx.data_mut();
                        for img in 0..n {
                            let s0 = (img * total_c + c0) * h * w;
                            let d0 = img * c * h * w;
                            dst[d0..d0 + c * h * w].copy_from_slice(&src[s0..s0 + c * h * w]);
                        }
                        Self::accumulate(grads, x, dx);
                    }
                    c0 += c;
                }
            }
            Op::BatchNorm {
                x,
                gamma,
                beta,
                saved,
            } => {
                let gs = g.shape();
                let (n, c, h, w) = (gs[0], gs[1], gs[2], gs[3]);
                let m = (n * h * w) as f32;
                let gd = g.data();
                let xh = saved.xhat.data();
                // per-channel reductions
                let mut dbeta = vec![0.0f32; c];
                let mut dgamma = vec![0.0f32; c];
                for img in 0..n {
                    for ch in 0..c {
                        let base = (img * c + ch) * h * w;
                        for i in base..base + h * w {
                            dbeta[ch] += gd[i];
                            dgamma[ch] += gd[i] * xh[i];
                        }
                    }
                }
                if self.ng(*beta) {
                    Self::accumulate(grads, *beta, Tensor::from_vec(dbeta.clone(), &[c]));
                }
                if self.ng(*gamma) {
                    Self::accumulate(grads, *gamma, Tensor::from_vec(dgamma.clone(), &[c]));
                }
                if self.ng(*x) {
                    let gm = self.value(*gamma).data();
                    let mut dx = Tensor::zeros(g.shape());
                    let dd = dx.data_mut();
                    if saved.batch_stats {
                        for img in 0..n {
                            for ch in 0..c {
                                let base = (img * c + ch) * h * w;
                                let k = gm[ch] * saved.invstd[ch] / m;
                                for i in base..base + h * w {
                                    dd[i] = k * (m * gd[i] - dbeta[ch] - xh[i] * dgamma[ch]);
                                }
                            }
                        }
                    } else {
                        for img in 0..n {
                            for ch in 0..c {
                                let base = (img * c + ch) * h * w;
                                let k = gm[ch] * saved.invstd[ch];
                                for i in base..base + h * w {
                                    dd[i] = k * gd[i];
                                }
                            }
                        }
                    }
                    Self::accumulate(grads, *x, dx);
                }
            }
        }
    }
}

/// Contiguous 3-D permutation helper.
fn permute3_tensor(x: &Tensor, dims: [usize; 3], perm: [usize; 3]) -> Tensor {
    let out_dims = [dims[perm[0]], dims[perm[1]], dims[perm[2]]];
    let mut out = Tensor::zeros(&out_dims);
    let src = x.data();
    let dst = out.data_mut();
    let strides = [dims[1] * dims[2], dims[2], 1];
    let s = [strides[perm[0]], strides[perm[1]], strides[perm[2]]];
    let mut o = 0usize;
    for i in 0..out_dims[0] {
        for j in 0..out_dims[1] {
            let base = i * s[0] + j * s[1];
            for k in 0..out_dims[2] {
                dst[o] = src[base + k * s[2]];
                o += 1;
            }
        }
    }
    out
}
