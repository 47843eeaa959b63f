//! Prepacked `i8` buffers for the true integer inference path.

use crate::BitWidth;
use wa_tensor::Tensor;

/// Quantizes `x` onto the `i8` grid of `(bits, scale)` with exactly the
/// arithmetic of [`crate::quantize_i32`]: `clamp(round(x/scale), −qmax,
/// qmax)`. Because [`crate::fake_quant_scale`] shares that arithmetic,
/// quantizing a fake-quantized tensor with its own scale recovers the
/// integer grid values bit-for-bit.
///
/// # Panics
///
/// Panics if `bits` is FP32 or wider than 8 bits (the values must fit
/// `i8`), or if `scale` is not positive.
pub fn quantize_i8(x: &Tensor, bits: BitWidth, scale: f32) -> Vec<i8> {
    let qmax = check_i8_bits(bits);
    assert!(scale > 0.0, "quantize_i8 requires a positive scale");
    x.data()
        .iter()
        .map(|&v| crate::round_clamp_i32(v / scale, qmax) as i8)
        .collect()
}

/// Tap-wise [`quantize_i8`]: the element at flat index `i` is quantized
/// with `(bits[i % taps], scales[i % taps])` — one grid per tap position
/// of an `n×n` Winograd tile, matching [`crate::fake_quant_taps`].
///
/// # Panics
///
/// Panics if `bits`/`scales` disagree in length or do not divide the
/// tensor's length, if any tap is FP32 or wider than 8 bits, or if any
/// scale is not positive.
pub fn quantize_i8_taps(x: &Tensor, bits: &[BitWidth], scales: &[f32]) -> Vec<i8> {
    let taps = bits.len();
    assert_eq!(taps, scales.len(), "bits/scales length mismatch");
    assert!(taps > 0, "need at least one tap");
    assert_eq!(
        x.len() % taps,
        0,
        "tensor length {} is not a multiple of the tap count {}",
        x.len(),
        taps
    );
    let qmaxes: Vec<i32> = bits.iter().map(|&b| check_i8_bits(b)).collect();
    for &s in scales {
        assert!(s > 0.0, "quantize_i8_taps requires positive scales");
    }
    // chunk-wise (tap = flat index % taps) keeps the inner loop free of
    // the per-element modulo
    let mut out = Vec::with_capacity(x.len());
    for chunk in x.data().chunks_exact(taps) {
        for (t, &v) in chunk.iter().enumerate() {
            out.push(crate::round_clamp_i32(v / scales[t], qmaxes[t]) as i8);
        }
    }
    out
}

/// The tap-major twin of [`quantize_i8_taps`]: `x` holds `bits.len()`
/// equal blocks, one per tap position (e.g. a Winograd filter prepacked
/// as `[n², K, C]`), and block `t` is quantized with
/// `(bits[t], scales[t])`. Same arithmetic, so the two layouts of one
/// tensor quantize to the same integers.
///
/// # Panics
///
/// As [`quantize_i8_taps`].
pub fn quantize_i8_tap_major(x: &[f32], bits: &[BitWidth], scales: &[f32]) -> Vec<i8> {
    let taps = bits.len();
    assert_eq!(taps, scales.len(), "bits/scales length mismatch");
    assert!(taps > 0, "need at least one tap");
    assert_eq!(
        x.len() % taps,
        0,
        "tensor length {} is not a multiple of the tap count {}",
        x.len(),
        taps
    );
    let mut out = Vec::with_capacity(x.len());
    for ((block, &b), &s) in x
        .chunks_exact((x.len() / taps).max(1))
        .zip(bits)
        .zip(scales)
    {
        let qmax = check_i8_bits(b);
        assert!(s > 0.0, "quantize_i8_tap_major requires positive scales");
        out.extend(
            block
                .iter()
                .map(|&v| crate::round_clamp_i32(v / s, qmax) as i8),
        );
    }
    out
}

fn check_i8_bits(bits: BitWidth) -> i32 {
    assert!(
        !bits.is_float(),
        "the integer path cannot represent an FP32 site"
    );
    let qmax = bits.qmax();
    assert!(qmax <= i8::MAX as i32, "{bits} does not fit i8 storage");
    qmax
}

/// A quantized tensor: `i8` data plus the shape and the per-layer (one
/// entry) or per-tap (`n²` entries, tap = flat index mod tap count)
/// scales needed to interpret it. This is the storage format of
/// prepacked weights and the memoized Winograd-domain filter on the
/// [`Execution::Int8`](crate::Execution::Int8) path — 4× smaller than
/// the f32 original, and directly consumable by `wa_tensor::gemm_i8`.
///
/// # Example
///
/// ```
/// use wa_quant::{BitWidth, QTensor};
/// use wa_tensor::Tensor;
///
/// let w = Tensor::from_vec(vec![0.5, -0.25, 1.0, 0.0], &[2, 2]);
/// let q = QTensor::quantize(&w, BitWidth::INT8, 1.0 / 127.0);
/// assert_eq!(q.shape(), &[2, 2]);
/// assert_eq!(q.data()[0], 64); // 0.5 · 127 rounded up
/// let back = q.dequantize();
/// assert!((back.data()[0] - 0.5) < 1e-2);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct QTensor {
    data: Vec<i8>,
    shape: Vec<usize>,
    scales: Vec<f32>,
}

impl QTensor {
    /// Quantizes `x` with one per-layer scale (see [`quantize_i8`]).
    ///
    /// # Panics
    ///
    /// As [`quantize_i8`].
    pub fn quantize(x: &Tensor, bits: BitWidth, scale: f32) -> QTensor {
        QTensor {
            data: quantize_i8(x, bits, scale),
            shape: x.shape().to_vec(),
            scales: vec![scale],
        }
    }

    /// Quantizes `x` tap-wise (see [`quantize_i8_taps`]).
    ///
    /// # Panics
    ///
    /// As [`quantize_i8_taps`].
    pub fn quantize_taps(x: &Tensor, bits: &[BitWidth], scales: &[f32]) -> QTensor {
        QTensor {
            data: quantize_i8_taps(x, bits, scales),
            shape: x.shape().to_vec(),
            scales: scales.to_vec(),
        }
    }

    /// Wraps already-quantized data. The scale slice must have one entry
    /// (per-layer) or divide the data length (per-tap).
    ///
    /// # Panics
    ///
    /// Panics on a shape/data length mismatch or an invalid scale count.
    pub fn from_parts(data: Vec<i8>, shape: &[usize], scales: Vec<f32>) -> QTensor {
        let len: usize = shape.iter().product();
        assert_eq!(data.len(), len, "data length does not match shape");
        assert!(
            !scales.is_empty() && len.is_multiple_of(scales.len()),
            "scale count {} does not divide tensor length {}",
            scales.len(),
            len
        );
        QTensor {
            data,
            shape: shape.to_vec(),
            scales,
        }
    }

    /// The quantized values.
    pub fn data(&self) -> &[i8] {
        &self.data
    }

    /// Tensor shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Element count.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The scale vector: one entry for per-layer quantization, `n²`
    /// entries for tap-wise (tap = flat index mod count).
    pub fn scales(&self) -> &[f32] {
        &self.scales
    }

    /// The single per-layer scale.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is tap-wise quantized.
    pub fn scale(&self) -> f32 {
        assert_eq!(
            self.scales.len(),
            1,
            "QTensor::scale on a tap-wise tensor; use scales()"
        );
        self.scales[0]
    }

    /// Expands back to f32 (`q·scale` per element) — the verification
    /// hook: dequantizing recovers exactly what the fake-quant reference
    /// produces at this site.
    pub fn dequantize(&self) -> Tensor {
        let taps = self.scales.len();
        let data: Vec<f32> = self
            .data
            .iter()
            .enumerate()
            .map(|(i, &q)| q as f32 * self.scales[i % taps])
            .collect();
        Tensor::from_vec(data, &self.shape)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{fake_quant_scale, fake_quant_taps, quantize_i32};

    #[test]
    fn matches_quantize_i32() {
        let x = Tensor::from_vec(vec![0.73, -1.9, 0.004, -0.51, 2.0, -2.0], &[6]);
        let scale = 1.5 / 127.0;
        let q = quantize_i8(&x, BitWidth::INT8, scale);
        let reference = quantize_i32(&x, BitWidth::INT8, scale);
        assert_eq!(q.iter().map(|&v| v as i32).collect::<Vec<_>>(), reference);
    }

    #[test]
    fn requantizing_fake_quant_recovers_grid() {
        let x = Tensor::from_vec(vec![0.9, -0.33, 0.123, -1.4], &[4]);
        let scale = 1.4 / 127.0;
        let fq = fake_quant_scale(&x, BitWidth::INT8, scale);
        let q_direct = quantize_i8(&x, BitWidth::INT8, scale);
        let q_from_fq = quantize_i8(&fq, BitWidth::INT8, scale);
        assert_eq!(q_direct, q_from_fq);
    }

    #[test]
    fn tap_wise_matches_fake_quant_taps_grid() {
        let x = Tensor::from_vec((0..12).map(|i| i as f32 * 0.1 - 0.6).collect(), &[3, 4]);
        let bits = vec![
            BitWidth::INT8,
            BitWidth::Int(6),
            BitWidth::INT8,
            BitWidth::Int(4),
        ];
        let scales = vec![0.01, 0.02, 0.005, 0.04];
        let q = QTensor::quantize_taps(&x, &bits, &scales);
        let fq = fake_quant_taps(&x, &bits, &scales);
        let dq = q.dequantize();
        for (a, b) in dq.data().iter().zip(fq.data()) {
            assert!((a - b).abs() < 1e-6, "{a} vs {b}");
        }
    }

    #[test]
    fn tap_major_matches_taps_last_per_element() {
        let (rows, taps) = (3usize, 4usize);
        let x = Tensor::from_vec(
            (0..rows * taps).map(|i| i as f32 * 0.1 - 0.6).collect(),
            &[rows, taps],
        );
        let bits = vec![
            BitWidth::INT8,
            BitWidth::Int(6),
            BitWidth::INT8,
            BitWidth::Int(4),
        ];
        let scales = vec![0.01, 0.02, 0.005, 0.04];
        let last = quantize_i8_taps(&x, &bits, &scales);
        let major: Vec<f32> = (0..taps * rows)
            .map(|i| x.data()[(i % rows) * taps + i / rows])
            .collect();
        let q = quantize_i8_tap_major(&major, &bits, &scales);
        for t in 0..taps {
            for r in 0..rows {
                assert_eq!(q[t * rows + r], last[r * taps + t], "tap {t} row {r}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "does not fit i8")]
    fn rejects_wide_bits() {
        let x = Tensor::zeros(&[2]);
        let _ = quantize_i8(&x, BitWidth::INT16, 0.1);
    }
}
