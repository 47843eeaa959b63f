//! Prepacked constant left operands, shared by the f32 and integer GEMMs.
//!
//! A GEMM whose left operand is constant across calls — a layer's
//! weights, above all the memoized Winograd-domain filter `G·g·Gᵀ` — pays
//! for laying that operand out in the kernel's order on every call unless
//! the layout is built once. [`PackedA`] is that once-built layout:
//! `batch` stacked `[m, k]` row-major blocks in the element type the
//! kernel reads, with a row stride the kernel can consume directly.
//!
//! * `PackedA<f32>` feeds [`gemm_taps`](crate::gemm_taps): row stride `k`,
//!   so each block is read in place.
//! * `PackedA<i16>` ([`PackedAI8`]) feeds
//!   [`gemm_i8_prepacked`](crate::gemm_i8_prepacked): `i8` values widened
//!   once to `i16`, with `k` rounded up to even so the `pmaddwd` kernel
//!   reads whole pairs (the pad lane is 0).
//!
//! For a Winograd layer the batch index is the tap position: block `t`
//! is the `[K, C]` filter slice `U_t` of tap `t`.

/// A prepacked batched **left** operand: `batch` stacked `[m, k]` blocks,
/// each stored row-major with row stride `ld ≥ k` in the kernel's element
/// type `T`. Built once and shared by handle; the GEMMs read it without
/// copying or converting anything per call.
#[derive(Clone, Debug)]
pub struct PackedA<T> {
    pub(crate) data: Vec<T>,
    pub(crate) batch: usize,
    pub(crate) m: usize,
    pub(crate) k: usize,
    /// Row stride in elements.
    pub(crate) ld: usize,
}

/// The integer GEMM's prepacked left operand: `i8` blocks widened to the
/// `i16` layout of [`gemm_i8_prepacked`](crate::gemm_i8_prepacked).
pub type PackedAI8 = PackedA<i16>;

impl<T> PackedA<T> {
    /// Batch count (the tap count for a Winograd filter).
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// Rows per batch item.
    pub fn m(&self) -> usize {
        self.m
    }

    /// Inner (contraction) dimension.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Batch item `s` in the kernel's layout: `m` rows, each `k` values
    /// padded to the row stride (no padding for `f32`).
    ///
    /// # Panics
    ///
    /// Panics if `s >= batch`.
    pub fn item(&self, s: usize) -> &[T] {
        let len = self.m * self.ld;
        &self.data[s * len..(s + 1) * len]
    }
}

impl PackedA<f32> {
    /// Packs taps-last rows `[m·k, taps]` — element `(i, p)` of block `t`
    /// at `rows[(i·k + p)·taps + t]`, the layout a Winograd filter
    /// transform produces — into `taps` blocks of `[m, k]`.
    ///
    /// # Panics
    ///
    /// Panics if `rows.len() != m·k·taps`.
    pub fn pack_taps_last(rows: &[f32], taps: usize, m: usize, k: usize) -> PackedA<f32> {
        assert_eq!(
            rows.len(),
            m * k * taps,
            "PackedA taps-last operand length mismatch"
        );
        let block = m * k;
        let mut data = vec![0.0f32; rows.len()];
        for (ip, row) in rows.chunks_exact(taps.max(1)).enumerate() {
            for (t, &v) in row.iter().enumerate() {
                data[t * block + ip] = v;
            }
        }
        PackedA {
            data,
            batch: taps,
            m,
            k,
            ld: k,
        }
    }

    /// The packed values, block after block (`[batch, m, k]` row-major).
    pub fn values(&self) -> &[f32] {
        &self.data
    }
}

impl PackedA<i16> {
    /// Widens row-major `[batch, m, k]` i8 into the integer kernel's
    /// layout (`k` rounded up to even, pad lane 0).
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != batch·m·k`.
    pub fn pack(a: &[i8], batch: usize, m: usize, k: usize) -> PackedA<i16> {
        assert_eq!(a.len(), batch * m * k, "PackedAI8 operand length mismatch");
        let ld = k.next_multiple_of(2);
        let mut data = vec![0i16; batch * m * ld];
        for (src, dst) in a
            .chunks_exact(k.max(1))
            .zip(data.chunks_exact_mut(ld.max(1)))
        {
            for (d, &s) in dst[..k].iter_mut().zip(src) {
                *d = s as i16;
            }
        }
        PackedA {
            data,
            batch,
            m,
            k,
            ld,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn taps_last_pack_is_the_per_tap_transpose() {
        let (taps, m, k) = (3usize, 2, 4);
        let rows: Vec<f32> = (0..taps * m * k).map(|v| v as f32).collect();
        let p = PackedA::pack_taps_last(&rows, taps, m, k);
        for t in 0..taps {
            for i in 0..m {
                for q in 0..k {
                    assert_eq!(p.item(t)[i * k + q], rows[(i * k + q) * taps + t]);
                }
            }
        }
    }

    #[test]
    fn i8_pack_widens_and_pads_odd_k() {
        let a: Vec<i8> = vec![1, -2, 3, -4, 5, -6];
        let p = PackedAI8::pack(&a, 2, 1, 3);
        assert_eq!(p.ld, 4);
        assert_eq!(p.data, vec![1, -2, 3, 0, -4, 5, -6, 0]);
        assert_eq!((p.batch(), p.m(), p.k()), (2, 1, 3));
    }
}
