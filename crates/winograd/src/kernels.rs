//! Batched Winograd convolution kernels (GEMM formulation).
//!
//! The layout follows the efficient region-wise multi-channel scheme of
//! Maji et al. (2019) that the paper deploys on Arm CPUs: after
//! transforming, the Hadamard-product-and-channel-sum stage becomes one
//! independent GEMM per Winograd-domain coordinate `(u, v)`:
//! `M_uv[K, T] = U_uv[K, C] · V_uv[C, T]`, run by [`wa_tensor::gemm_taps`]
//! straight on the taps-last rows of the input and output transforms.

use wa_tensor::{gemm_taps, PackedA, Tensor};

use crate::tiling::TileGeometry;
use crate::transform::WinogradTransform;

/// Transforms a weight tensor `[K, C, r, r]` to the Winograd domain,
/// returning `U` prepacked coordinate-major: `n²` blocks of `[K, C]`.
///
/// This is the `GgGᵀ` stage whose cost is "often ignored as it is
/// amortized across inferences" (paper §3.1); surgery and deployment
/// pre-compute it once.
///
/// # Panics
///
/// Panics if `weight` is not `[K, C, r, r]` with `r` matching the
/// transform.
pub fn transform_weights(weight: &Tensor, t: &WinogradTransform) -> PackedA<f32> {
    assert_eq!(weight.ndim(), 4, "weight must be [K, C, r, r]");
    let (k, c, r) = (weight.dim(0), weight.dim(1), weight.dim(2));
    assert_eq!(
        (r, weight.dim(3)),
        (t.r(), t.r()),
        "filter size mismatch with transform"
    );
    let n = t.input_tile();
    let flat = weight.reshape(&[k * c, r * r]);
    let u_rows = t.transform_filter_tiles(&flat); // [K·C, n²]
    PackedA::pack_taps_last(u_rows.data(), n * n, k, c)
}

/// Winograd convolution of an NCHW input (stride 1).
///
/// Computes `Y = Aᵀ[(G·g·Gᵀ) ⊙ (Bᵀ·d·B)]A` over all tiles of all images —
/// Eq. (1) of the paper — using per-coordinate GEMMs. Results match
/// [`wa_tensor::conv2d_direct`] up to FP32 rounding for well-conditioned
/// transforms.
///
/// # Panics
///
/// Panics on shape mismatches between `x` `[N, C, H, W]`, `weight`
/// `[K, C, r, r]`, `bias` `[K]`, and the transform's `r`.
///
/// # Example
///
/// ```
/// use wa_tensor::{SeededRng, Tensor};
/// use wa_winograd::{winograd_conv2d, WinogradTransform};
///
/// let mut rng = SeededRng::new(0);
/// let x = rng.uniform_tensor(&[1, 2, 8, 8], -1.0, 1.0);
/// let w = rng.uniform_tensor(&[4, 2, 3, 3], -1.0, 1.0);
/// let t = WinogradTransform::canonical(2, 3);
/// let y = winograd_conv2d(&x, &w, None, &t, 1);
/// assert_eq!(y.shape(), &[1, 4, 8, 8]);
/// ```
pub fn winograd_conv2d(
    x: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    t: &WinogradTransform,
    pad: usize,
) -> Tensor {
    let u = transform_weights(weight, t);
    winograd_conv2d_pretransformed(x, &u, bias, t, pad)
}

/// Winograd convolution with pre-transformed weights `u` (`n²` blocks of
/// `[K, C]`, from [`transform_weights`]).
///
/// Splitting the weight transform out mirrors deployment, where `GgGᵀ` is
/// computed once — and exposes the 1.78×/4× run-time weight-memory
/// increase of F2/F4 the paper notes in §3.1 (`u` holds `n²·K·C` floats
/// versus `r²·K·C`).
///
/// # Panics
///
/// Panics on layout mismatches.
pub fn winograd_conv2d_pretransformed(
    x: &Tensor,
    u: &PackedA<f32>,
    bias: Option<&Tensor>,
    t: &WinogradTransform,
    pad: usize,
) -> Tensor {
    assert_eq!(x.ndim(), 4, "input must be NCHW");
    let (nb, c, h, w) = (x.dim(0), x.dim(1), x.dim(2), x.dim(3));
    let (out_ch, in_ch) = (u.m(), u.k());
    assert_eq!(
        c, in_ch,
        "input channels {} vs weight channels {}",
        c, in_ch
    );
    let n = t.input_tile();
    assert_eq!(u.batch(), n * n, "pretransformed weight layout mismatch");
    if let Some(b) = bias {
        assert_eq!(b.shape(), &[out_ch], "bias must be [{}]", out_ch);
    }

    let geom = TileGeometry::for_conv(h, w, t.m(), t.r(), pad);
    let tiles_per_img = geom.tiles();
    let total_tiles = nb * tiles_per_img;

    // 1. gather + input transform (tile-batched: two GEMMs over all tiles)
    let xp = geom.pad_input(x);
    let tiles = geom.gather_tiles(&xp); // [N·T·C, n²]
    let v_rows = t.transform_input_tiles(&tiles); // [N·T·C, n²]

    // 2. per-coordinate GEMM: M_uv[K, T] = U_uv[K, C] · V_uv[C, T] for
    //    all n² coordinates, read from and written to taps-last rows
    let nn = n * n;
    let mut m_rows = Tensor::zeros(&[total_tiles * out_ch, nn]);
    gemm_taps(u, v_rows.data(), m_rows.data_mut());

    // 3. inverse transform per (tile, k): rows [N·T·K, n²] -> [N·T·K, m²]
    let y_rows = t.transform_output_tiles(&m_rows); // [N·T·K, m²]

    // 4. assemble + bias
    let mut out = geom.assemble_output(&y_rows, nb, out_ch);
    if let Some(b) = bias {
        let (oh, ow) = (geom.out_h, geom.out_w);
        let dst = out.data_mut();
        for img in 0..nb {
            for k in 0..out_ch {
                let bv = b.data()[k];
                let o0 = (img * out_ch + k) * oh * ow;
                for v in &mut dst[o0..o0 + oh * ow] {
                    *v += bv;
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use wa_tensor::{conv2d_direct, SeededRng};

    fn assert_close(a: &Tensor, b: &Tensor, tol: f32) {
        assert_eq!(a.shape(), b.shape());
        for (x, y) in a.data().iter().zip(b.data()) {
            assert!(
                (x - y).abs() <= tol * (1.0 + x.abs().max(y.abs())),
                "{} vs {}",
                x,
                y
            );
        }
    }

    fn check(m: usize, r: usize, shape: &[usize; 4], k: usize, pad: usize, tol: f32, seed: u64) {
        let mut rng = SeededRng::new(seed);
        let x = rng.uniform_tensor(shape, -1.0, 1.0);
        let w = rng.uniform_tensor(&[k, shape[1], r, r], -1.0, 1.0);
        let b = rng.uniform_tensor(&[k], -0.5, 0.5);
        let t = WinogradTransform::canonical(m, r);
        let got = winograd_conv2d(&x, &w, Some(&b), &t, pad);
        let want = conv2d_direct(&x, &w, Some(&b), 1, pad);
        assert_close(&got, &want, tol);
    }

    #[test]
    fn f2_matches_direct_conv() {
        check(2, 3, &[2, 3, 8, 8], 4, 1, 1e-4, 10);
    }

    #[test]
    fn f4_matches_direct_conv() {
        check(4, 3, &[1, 4, 12, 12], 5, 1, 1e-3, 11);
    }

    #[test]
    fn f6_matches_direct_conv() {
        check(6, 3, &[1, 2, 16, 16], 3, 1, 1e-3, 12);
    }

    #[test]
    fn odd_sizes_with_tile_overrun() {
        // 7x9 output with m=4 wastes tile area; result must still be exact.
        check(4, 3, &[1, 3, 7, 9], 2, 1, 1e-3, 13);
    }

    #[test]
    fn no_padding() {
        check(2, 3, &[1, 2, 10, 10], 3, 0, 1e-4, 14);
    }

    #[test]
    fn five_by_five_filter() {
        let mut rng = SeededRng::new(15);
        let x = rng.uniform_tensor(&[1, 2, 12, 12], -1.0, 1.0);
        let w = rng.uniform_tensor(&[3, 2, 5, 5], -1.0, 1.0);
        let t = WinogradTransform::cook_toom(2, 5);
        let got = winograd_conv2d(&x, &w, None, &t, 2);
        let want = conv2d_direct(&x, &w, None, 1, 2);
        assert_close(&got, &want, 1e-3);
    }

    #[test]
    fn pretransformed_weights_match_on_the_fly() {
        let mut rng = SeededRng::new(16);
        let x = rng.uniform_tensor(&[1, 3, 8, 8], -1.0, 1.0);
        let w = rng.uniform_tensor(&[4, 3, 3, 3], -1.0, 1.0);
        let t = WinogradTransform::canonical(2, 3);
        let u = transform_weights(&w, &t);
        // run-time weight footprint grows n²/r² = 16/9 ≈ 1.78x (paper §3.1)
        let u_len = u.batch() * u.m() * u.k();
        assert_eq!(u_len, 16 * 4 * 3);
        assert_eq!(u_len as f64 / w.len() as f64, 16.0 / 9.0);
        let a = winograd_conv2d(&x, &w, None, &t, 1);
        let b = winograd_conv2d_pretransformed(&x, &u, None, &t, 1);
        assert_close(&a, &b, 1e-6);
    }

    #[test]
    fn batch_independence() {
        // convolving a batch equals convolving each image separately
        let mut rng = SeededRng::new(17);
        let x = rng.uniform_tensor(&[3, 2, 6, 6], -1.0, 1.0);
        let w = rng.uniform_tensor(&[2, 2, 3, 3], -1.0, 1.0);
        let t = WinogradTransform::canonical(2, 3);
        let all = winograd_conv2d(&x, &w, None, &t, 1);
        for i in 0..3 {
            let single = winograd_conv2d(&x.slice_dim0(i, i + 1), &w, None, &t, 1);
            assert_close(&all.slice_dim0(i, i + 1), &single, 1e-6);
        }
    }
}
