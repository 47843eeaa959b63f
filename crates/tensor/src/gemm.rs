//! Packed, cache-blocked micro-kernel matrix multiply.
//!
//! A dependency-free GEMM in the GotoBLAS shape, tuned for the modest
//! matrix sizes that appear in CNN inference/training on small images:
//!
//! * **Packing** — `B` is repacked once per call into `NR`-wide column
//!   panels (zero-padded at the right edge) held in a reused thread-local
//!   scratch buffer, so the inner kernel reads it as contiguous
//!   `[kc × NR]` strips. The packer reads `B` through arbitrary row and
//!   column strides, so a transposed operand or the taps-last Winograd
//!   rows of [`gemm_taps`] are packed straight from where they live.
//!   `A` is read in place with row stride `k`: an untransposed operand is
//!   borrowed, a `Transpose::Yes` operand is transpose-packed into reused
//!   scratch, and a constant operand is packed **once**, ahead of time,
//!   into a [`PackedA`] — the same prepacked type the integer kernel
//!   uses for its constant side. Neither operand is ever cloned per call.
//! * **Blocking** — the `k` dimension is split into [`KC`]-deep panels
//!   and rows into [`MC`]-tall blocks, so one `B` strip (`KC·NR` floats)
//!   stays L1-resident while the `A` block streams from L2.
//! * **Micro-kernel** — an `MR×NR` (4×8) register tile written as
//!   fixed-bound loops that LLVM auto-vectorizes. Full panels and
//!   remainder rows run the *same* const-generic kernel, so every output
//!   element — tail or not — comes from the identical accumulation
//!   pattern. The tile is stored through a row and column stride, so
//!   [`gemm_taps`] writes its products straight into their taps-last
//!   rows.
//!
//! Numerical contract: each output element is accumulated over `k` in
//! strictly ascending order (the K-panel split reads the partial result
//! back instead of reassociating), so the result is bit-identical to a
//! naive f32 triple loop for **every** shape — the property the
//! `gemm_regression` suite and the executor parity suites pin.
//!
//! Large products are split across threads by whole output rows (or, in
//! [`gemm_taps`], whole tiles) with `std::thread::scope`; the split never
//! changes results.

use std::cell::Cell;
use std::sync::{Arc, OnceLock};

use crate::packed::PackedA;
use crate::tensor::Tensor;

/// Bumps `wa_gemm_calls_total{kind=...}` through a per-kind cached
/// handle: one relaxed atomic add per GEMM call.
fn count_gemm_call(cell: &OnceLock<Arc<wa_obs::Counter>>, kind: &'static str) {
    cell.get_or_init(|| {
        wa_obs::counter_with(
            "wa_gemm_calls_total",
            "GEMM invocations, by kind (single 2-D products vs batched Winograd-coordinate products).",
            &[("kind", kind)],
        )
    })
    .inc();
}

/// Whether an operand of [`gemm`] is logically transposed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Transpose {
    /// Use the operand as stored.
    No,
    /// Use the transpose of the stored operand.
    Yes,
}

/// Multiply-accumulate operations (`m·n·k`) above which the GEMM is split
/// across threads. Shared with the integer kernel (`gemm_i8`) so both
/// paths make the same go-parallel decision for a given problem size.
pub(crate) const PARALLEL_THRESHOLD: usize = 64 * 64 * 64;

/// Rows per register tile.
const MR: usize = 4;

/// Columns per register tile (and per packed `B` panel). `MR·NR` f32
/// accumulators fill 8 SSE registers, leaving room for the broadcast and
/// the `B` strip on baseline x86-64.
const NR: usize = 8;

/// K-panel depth: one `B` strip is `KC·NR` floats = 8 KiB, comfortably
/// L1-resident across a whole row block.
const KC: usize = 256;

/// Rows per A block: `MC·KC` floats = 64 KiB streams from L2 while the
/// `B` strip stays in L1.
const MC: usize = 64;

thread_local! {
    /// Per-thread cap on the GEMM's internal worker count (see
    /// [`with_gemm_thread_cap`]).
    static GEMM_THREAD_CAP: Cell<usize> = const { Cell::new(usize::MAX) };

    /// Reused scratch for transpose-packing `A` (`Transpose::Yes` only).
    static PACK_A: Cell<Vec<f32>> = const { Cell::new(Vec::new()) };

    /// Reused scratch for panel-packing `B`.
    static PACK_B: Cell<Vec<f32>> = const { Cell::new(Vec::new()) };
}

/// Runs `f` with this thread's GEMM parallelism capped at `cap` threads
/// (a cap of 1 keeps every GEMM on the calling thread), restoring the
/// previous cap afterwards — including on panic, so a caught unwind on a
/// long-lived thread cannot leave its GEMMs silently serialized.
///
/// Outer parallel layers — e.g. a batch executor that already runs one
/// worker per core — use this to stop large products from spawning a
/// *second* level of threads and oversubscribing the machine. The cap
/// never changes results: the threaded split assigns whole output rows,
/// so every element is computed identically either way.
pub fn with_gemm_thread_cap<R>(cap: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            GEMM_THREAD_CAP.with(|c| c.set(self.0));
        }
    }
    let _guard = Restore(GEMM_THREAD_CAP.with(|c| c.replace(cap.max(1))));
    f()
}

/// Worker threads a GEMM may use right now: every available core, bounded
/// by the ambient [`with_gemm_thread_cap`]. Shared with `gemm_i8`, so
/// the cap governs the integer kernel too.
pub(crate) fn gemm_threads() -> usize {
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
        .min(GEMM_THREAD_CAP.with(|c| c.get()))
}

/// Computes `op_a(a) · op_b(b)` for 2-D tensors.
///
/// `op(a)` is `a` or `aᵀ` according to the [`Transpose`] flags; the result
/// has shape `[m, n]` where `op_a(a)` is `[m, k]` and `op_b(b)` is `[k, n]`.
///
/// # Panics
///
/// Panics if either tensor is not 2-D or the inner dimensions disagree.
///
/// # Example
///
/// ```
/// use wa_tensor::{gemm, Tensor, Transpose};
///
/// let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
/// let b = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], &[2, 2]);
/// let c = gemm(&a, Transpose::Yes, &b, Transpose::No);
/// assert_eq!(c.data(), &[1.0, 3.0, 2.0, 4.0]);
/// ```
pub fn gemm(a: &Tensor, ta: Transpose, b: &Tensor, tb: Transpose) -> Tensor {
    let (m, k) = op_dims(a, ta);
    let (kb, n) = op_dims(b, tb);
    assert_eq!(k, kb, "gemm inner dimension mismatch: {} vs {}", k, kb);
    let mut out = Tensor::zeros(&[m, n]);
    gemm_into(a, ta, b, tb, &mut out);
    out
}

fn op_dims(t: &Tensor, tr: Transpose) -> (usize, usize) {
    assert_eq!(
        t.ndim(),
        2,
        "gemm operands must be 2-D, got {:?}",
        t.shape()
    );
    match tr {
        Transpose::No => (t.dim(0), t.dim(1)),
        Transpose::Yes => (t.dim(1), t.dim(0)),
    }
}

/// Computes `out = op_a(a) · op_b(b)`, overwriting `out`.
///
/// Use this to reuse an output allocation inside hot loops.
///
/// # Panics
///
/// Panics if shapes disagree (see [`gemm`]) or `out` is not `[m, n]`.
pub fn gemm_into(a: &Tensor, ta: Transpose, b: &Tensor, tb: Transpose, out: &mut Tensor) {
    let (m, k) = op_dims(a, ta);
    let (kb, n) = op_dims(b, tb);
    assert_eq!(k, kb, "gemm inner dimension mismatch: {} vs {}", k, kb);
    assert_eq!(
        out.shape(),
        &[m, n],
        "gemm output must be [{}, {}], got {:?}",
        m,
        n,
        out.shape()
    );
    static CALLS: OnceLock<Arc<wa_obs::Counter>> = OnceLock::new();
    count_gemm_call(&CALLS, "single");
    let out_data = out.data_mut();
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        out_data.fill(0.0);
        return;
    }

    // B is always repacked into NR-wide panels (the kernel's native
    // layout); A is borrowed in place unless it needs transposing. Both
    // scratch buffers are thread-local and reused across calls.
    PACK_B.with(|bcell| {
        let mut bbuf = bcell.take();
        let (sp, sj) = match tb {
            Transpose::No => (n, 1),  // stored [k, n]
            Transpose::Yes => (1, k), // stored [n, k]
        };
        pack_b_panels(b.data(), sp, sj, k, n, &mut bbuf);
        match ta {
            Transpose::No => compute(a.data(), &bbuf, out_data, m, n, k),
            Transpose::Yes => PACK_A.with(|acell| {
                let mut abuf = acell.take();
                pack_a_transposed(a.data(), m, k, &mut abuf);
                compute(&abuf, &bbuf, out_data, m, n, k);
                acell.set(abuf);
            }),
        }
        bcell.set(bbuf);
    });
}

/// Batched matrix multiply over flat slices: for each `s` in `0..batch`,
/// `out[s] = a[s] · b[s]` with `a[s]: [m, k]`, `b[s]: [k, n]`,
/// `out[s]: [m, n]`, all stored contiguously.
///
/// A stack of independent small products that would each sit below the
/// threading threshold alone, on contiguous operands both packed per
/// call. (The Winograd per-coordinate stage `M_uv = U_uv · V_uv` runs
/// through [`gemm_taps`] instead, on a prepacked filter and the
/// transforms' taps-last rows.) The batch is split across threads (respecting
/// [`with_gemm_thread_cap`]); every item runs the same packed
/// micro-kernel as [`gemm`], so each output element is accumulated over
/// `k` in ascending order — bit-identical to a naive triple loop, and
/// independent of the thread split.
///
/// # Panics
///
/// Panics if any slice length disagrees with the stated dimensions.
pub fn gemm_batched(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    batch: usize,
    m: usize,
    k: usize,
    n: usize,
) {
    assert_eq!(a.len(), batch * m * k, "gemm_batched lhs length mismatch");
    assert_eq!(b.len(), batch * k * n, "gemm_batched rhs length mismatch");
    assert_eq!(
        out.len(),
        batch * m * n,
        "gemm_batched output length mismatch"
    );
    static CALLS: OnceLock<Arc<wa_obs::Counter>> = OnceLock::new();
    count_gemm_call(&CALLS, "batched");
    if batch == 0 || m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        out.fill(0.0);
        return;
    }

    let threads = if batch * m * n * k >= PARALLEL_THRESHOLD {
        gemm_threads().min(batch)
    } else {
        1
    };
    if threads > 1 {
        let per = batch.div_ceil(threads);
        std::thread::scope(|s| {
            for (ti, ochunk) in out.chunks_mut(per * m * n).enumerate() {
                let s0 = ti * per;
                s.spawn(move || batch_range(a, b, ochunk, s0, m, k, n));
            }
        });
    } else {
        batch_range(a, b, out, 0, m, k, n);
    }
}

/// Computes `out` for batch items `s0..s0 + out.len()/(m·n)` on the
/// calling thread, packing each `b[s]` into this thread's scratch.
fn batch_range(a: &[f32], b: &[f32], out: &mut [f32], s0: usize, m: usize, k: usize, n: usize) {
    PACK_B.with(|bcell| {
        let mut bbuf = bcell.take();
        for (i, oitem) in out.chunks_mut(m * n).enumerate() {
            let s = s0 + i;
            pack_b_panels(&b[s * k * n..(s + 1) * k * n], n, 1, k, n, &mut bbuf);
            kernel_rows::<false>(
                &a[s * m * k..(s + 1) * m * k],
                &bbuf,
                oitem,
                OutStride::rows(n),
                m,
                n,
                k,
            );
        }
        bcell.set(bbuf);
    });
}

/// Floats of taps-last input and output rows that one tile block of
/// [`gemm_taps`] keeps cache-resident across its tap loop (256 KiB, well
/// inside L2 beside the streaming filter; larger blocks measured slower
/// on the ResNet-18 shapes).
const TAP_BLOCK_FLOATS: usize = 64 * 1024;

/// The Winograd per-tap GEMM stage on its native layouts: for every tap
/// `t` of `a` (`n²` taps of `[m, k]`, i.e. `U_t[K, C]`),
/// `M_t[m, tiles] = U_t · V_t`, where `V_t` is read straight out of the
/// taps-last rows `b_rows` (`[tiles·k, taps]`, element `(p, j)` of tap
/// `t` at `b_rows[(j·k + p)·taps + t]` — the layout the input transform
/// produces) and the products are written straight into the taps-last
/// rows `out` (`[tiles·m, taps]`, element `(i, j)` of tap `t` at
/// `out[(j·m + i)·taps + t]` — the layout the output transform reads).
///
/// Nothing is permuted or copied outside the kernel's own `B` packing
/// pass: the filter is prepacked once into `a`, each tap's `B` panels are
/// gathered from `b_rows` into this thread's reused scratch, and the
/// register tiles store through the taps-last strides. Tiles are
/// processed in blocks whose rows stay cache-resident across the tap
/// loop, and split across threads by whole tiles (respecting
/// [`with_gemm_thread_cap`]), so no two threads share an output row.
/// Each output element is accumulated over `k` in ascending order —
/// bit-identical to a naive f32 triple loop and to [`gemm_batched`] on
/// explicitly permuted operands, independent of the thread split.
///
/// # Panics
///
/// Panics if `b_rows` is not a whole number of `k·taps` tile rows or if
/// `out` is not `tiles·m·taps` long.
pub fn gemm_taps(a: &PackedA<f32>, b_rows: &[f32], out: &mut [f32]) {
    let (taps, m, k) = (a.batch, a.m, a.k);
    let tile_in = k * taps;
    let tiles = b_rows.len().checked_div(tile_in).unwrap_or(0);
    assert_eq!(
        b_rows.len(),
        tiles * tile_in,
        "gemm_taps rhs is not a whole number of [{k}, {taps}] tile rows"
    );
    assert_eq!(
        out.len(),
        tiles * m * taps,
        "gemm_taps output length mismatch"
    );
    static CALLS: OnceLock<Arc<wa_obs::Counter>> = OnceLock::new();
    count_gemm_call(&CALLS, "taps");
    // k = 0 leaves no tile rows to count, so it lands here too
    if taps == 0 || m == 0 || tiles == 0 {
        return;
    }

    let threads = if taps * m * tiles * k >= PARALLEL_THRESHOLD {
        gemm_threads().min(tiles.div_ceil(NR))
    } else {
        1
    };
    if threads > 1 {
        // NR-aligned tile ranges so no B panel spans two workers
        let per = tiles.div_ceil(threads).next_multiple_of(NR);
        std::thread::scope(|s| {
            for (bchunk, ochunk) in b_rows
                .chunks(per * tile_in)
                .zip(out.chunks_mut(per * m * taps))
            {
                s.spawn(move || taps_range(a, bchunk, ochunk));
            }
        });
    } else {
        taps_range(a, b_rows, out);
    }
}

/// Computes [`gemm_taps`] for the tiles of `b_rows`/`out` on the calling
/// thread, one cache-sized tile block at a time.
fn taps_range(a: &PackedA<f32>, b_rows: &[f32], out: &mut [f32]) {
    let (taps, m, k) = (a.batch, a.m, a.k);
    let block = (TAP_BLOCK_FLOATS / ((k + m) * taps)).max(NR) / NR * NR;
    PACK_B.with(|bcell| {
        let mut bbuf = bcell.take();
        for (bb, ob) in b_rows
            .chunks(block * k * taps)
            .zip(out.chunks_mut(block * m * taps))
        {
            let n = ob.len() / (m * taps);
            let os = OutStride {
                row: taps,
                col: m * taps,
            };
            for t in 0..taps {
                pack_b_panels(&bb[t..], taps, k * taps, k, n, &mut bbuf);
                kernel_rows::<true>(a.item(t), &bbuf, &mut ob[t..], os, m, n, k);
            }
        }
        bcell.set(bbuf);
    });
}

/// Repacks `B` into `⌈n/NR⌉` column panels, each a contiguous
/// `[k × NR]` strip (`panel[p·NR + jj] = B[p, j0 + jj]`), zero-padding
/// the right edge so the micro-kernel always reads full `NR` lanes.
/// `B[p, j]` is read from `src[p·sp + j·sj]`: `(n, 1)` for a row-major
/// `[k, n]` operand, `(1, k)` for a stored `[n, k]` transpose, and the
/// tap and tile strides for the taps-last rows of [`gemm_taps`].
fn pack_b_panels(src: &[f32], sp: usize, sj: usize, k: usize, n: usize, buf: &mut Vec<f32>) {
    let npanels = n.div_ceil(NR);
    let need = npanels * k * NR;
    if buf.len() < need {
        buf.resize(need, 0.0);
    }
    for jp in 0..npanels {
        let j0 = jp * NR;
        let nr = NR.min(n - j0);
        let panel = &mut buf[jp * k * NR..(jp + 1) * k * NR];
        for (p, drow) in panel.chunks_exact_mut(NR).enumerate() {
            let s0 = p * sp + j0 * sj;
            if sj == 1 {
                drow[..nr].copy_from_slice(&src[s0..s0 + nr]);
            } else {
                for (jj, d) in drow[..nr].iter_mut().enumerate() {
                    *d = src[s0 + jj * sj];
                }
            }
            drow[nr..].fill(0.0);
        }
    }
}

/// Transpose-packs an `A` stored `[k, m]` into row-major `[m, k]`,
/// blocked for cache-friendly strides on both sides.
fn pack_a_transposed(src: &[f32], m: usize, k: usize, buf: &mut Vec<f32>) {
    let need = m * k;
    if buf.len() < need {
        buf.resize(need, 0.0);
    }
    const TB: usize = 32;
    let mut i0 = 0;
    while i0 < m {
        let im = (i0 + TB).min(m);
        let mut p0 = 0;
        while p0 < k {
            let pm = (p0 + TB).min(k);
            for i in i0..im {
                for p in p0..pm {
                    buf[i * k + p] = src[p * m + i];
                }
            }
            p0 = pm;
        }
        i0 = im;
    }
}

/// Multiplies row-major `a [m, k]` by panel-packed `bp` into `out [m, n]`,
/// splitting rows across threads when the product is large enough.
fn compute(a: &[f32], bp: &[f32], out: &mut [f32], m: usize, n: usize, k: usize) {
    let threads = if m * n * k >= PARALLEL_THRESHOLD {
        gemm_threads()
    } else {
        1
    };
    if threads > 1 {
        // MR-aligned row chunks so no register tile spans two workers
        let rows_per = m.div_ceil(threads).next_multiple_of(MR);
        std::thread::scope(|s| {
            for (ti, chunk) in out.chunks_mut(rows_per * n).enumerate() {
                let row0 = ti * rows_per;
                s.spawn(move || {
                    let rows = chunk.len() / n;
                    kernel_rows::<false>(
                        &a[row0 * k..(row0 + rows) * k],
                        bp,
                        chunk,
                        OutStride::rows(n),
                        rows,
                        n,
                        k,
                    );
                });
            }
        });
    } else {
        kernel_rows::<false>(a, bp, out, OutStride::rows(n), m, n, k);
    }
}

/// Where the kernel stores output element `(i, j)`: at `i·row + j·col`
/// from the start of its output slice. Kernels instantiated with
/// `STRIDED = false` require `col == 1` and store whole row segments.
#[derive(Clone, Copy)]
struct OutStride {
    row: usize,
    col: usize,
}

impl OutStride {
    /// Row-major `[rows, n]`.
    fn rows(n: usize) -> OutStride {
        OutStride { row: n, col: 1 }
    }
}

/// The blocked kernel: `out[rows, n] = a[rows, k] · B` with `B` packed
/// into `NR` panels by [`pack_b_panels`] and `out` addressed through
/// `os` (`col == 1` unless `STRIDED`).
///
/// Loop nest (GotoBLAS order): K-panels of depth [`KC`] outermost — the
/// partial result is read back from `out` on later panels, preserving the
/// exact per-element `k` accumulation order — then [`MC`]-row blocks,
/// then `B` panels (one `KC·NR` strip stays L1-hot across the whole row
/// block), then `MR`-row register tiles with the remainder rows running
/// the same const-generic micro-kernel.
fn kernel_rows<const STRIDED: bool>(
    a: &[f32],
    bp: &[f32],
    out: &mut [f32],
    os: OutStride,
    rows: usize,
    n: usize,
    k: usize,
) {
    debug_assert!(STRIDED || os.col == 1);
    let npanels = n.div_ceil(NR);
    let mut pc = 0;
    while pc < k {
        let kc = KC.min(k - pc);
        let accumulate = pc > 0;
        let mut ic = 0;
        while ic < rows {
            let mc = MC.min(rows - ic);
            for jp in 0..npanels {
                let j0 = jp * NR;
                let nr = NR.min(n - j0);
                let strip = &bp[jp * k * NR + pc * NR..jp * k * NR + (pc + kc) * NR];
                let tile = |i: usize| (&a[i * k + pc..], i * os.row + j0 * os.col);
                let mut ir = 0;
                while ir + MR <= mc {
                    let (at, o) = tile(ic + ir);
                    micro::<MR, STRIDED>(at, k, strip, &mut out[o..], os, nr, accumulate);
                    ir += MR;
                }
                let rem = mc - ir;
                if rem > 0 {
                    let (at, o) = tile(ic + ir);
                    let o = &mut out[o..];
                    match rem {
                        1 => micro::<1, STRIDED>(at, k, strip, o, os, nr, accumulate),
                        2 => micro::<2, STRIDED>(at, k, strip, o, os, nr, accumulate),
                        _ => micro::<3, STRIDED>(at, k, strip, o, os, nr, accumulate),
                    }
                }
            }
            ic += mc;
        }
        pc += kc;
    }
}

/// The `R × NR` register-tile micro-kernel.
///
/// `a` starts at the tile's first row and current K-panel (row stride
/// `k`); `strip` is the packed `kc × NR` B strip; `out` starts at the
/// tile's first element, with element `(r, jj)` at `r·os.row +
/// jj·os.col` and `nr ≤ NR` live columns. Padded B lanes contribute only
/// to accumulator lanes that are never stored.
///
/// Every tile — interior or edge — runs this same code: the accumulator
/// starts at zero (or the previous K-panel's partial result) and adds
/// `a·b` products in ascending `k` order, so each output element is
/// bit-identical to a naive f32 triple loop regardless of `R`, the panel
/// split or the output strides.
#[inline(always)]
fn micro<const R: usize, const STRIDED: bool>(
    a: &[f32],
    k: usize,
    strip: &[f32],
    out: &mut [f32],
    os: OutStride,
    nr: usize,
    accumulate: bool,
) {
    let mut acc = [[0.0f32; NR]; R];
    if accumulate {
        for (r, accr) in acc.iter_mut().enumerate() {
            let o = r * os.row;
            if !STRIDED {
                accr[..nr].copy_from_slice(&out[o..o + nr]);
            } else {
                for (jj, v) in accr[..nr].iter_mut().enumerate() {
                    *v = out[o + jj * os.col];
                }
            }
        }
    }
    for (p, brow) in strip.chunks_exact(NR).enumerate() {
        for (r, accr) in acc.iter_mut().enumerate() {
            let av = a[r * k + p];
            for (dst, &bv) in accr.iter_mut().zip(brow) {
                *dst += av * bv;
            }
        }
    }
    for (r, accr) in acc.iter().enumerate() {
        let o = r * os.row;
        if !STRIDED {
            out[o..o + nr].copy_from_slice(&accr[..nr]);
        } else {
            for (jj, &v) in accr[..nr].iter().enumerate() {
                out[o + jj * os.col] = v;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k) = (a.dim(0), a.dim(1));
        let n = b.dim(1);
        let mut out = Tensor::zeros(&[m, n]);
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f64;
                for p in 0..k {
                    acc += (a.data()[i * k + p] as f64) * (b.data()[p * n + j] as f64);
                }
                *out.at_mut(&[i, j]) = acc as f32;
            }
        }
        out
    }

    fn rand_mat(r: usize, c: usize, seed: u64) -> Tensor {
        let mut rng = crate::rng::SeededRng::new(seed);
        Tensor::from_fn(&[r, c], |_| rng.uniform(-1.0, 1.0))
    }

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

    #[test]
    fn matches_naive_small() {
        for (m, k, n) in [(1, 1, 1), (2, 3, 4), (5, 7, 3), (8, 8, 8), (13, 1, 9)] {
            let a = rand_mat(m, k, 42 + m as u64);
            let b = rand_mat(k, n, 7 + n as u64);
            assert_close(
                &gemm(&a, Transpose::No, &b, Transpose::No),
                &naive(&a, &b),
                1e-5,
            );
        }
    }

    #[test]
    fn transpose_flags_agree_with_explicit_transpose() {
        let a = rand_mat(6, 4, 1);
        let b = rand_mat(6, 5, 2);
        // aᵀ·b
        let want = naive(&a.transpose(), &b);
        assert_close(&gemm(&a, Transpose::Yes, &b, Transpose::No), &want, 1e-5);
        // aᵀ·cᵀ : [4,6]·[6,5]
        let c = rand_mat(5, 6, 3);
        let want2 = naive(&a.transpose(), &c.transpose());
        assert_close(&gemm(&a, Transpose::Yes, &c, Transpose::Yes), &want2, 1e-5);
    }

    #[test]
    fn parallel_path_matches_naive() {
        // Force the threshold by exceeding 64^3 multiply-accumulates.
        let a = rand_mat(80, 70, 11);
        let b = rand_mat(70, 90, 12);
        assert_close(
            &gemm(&a, Transpose::No, &b, Transpose::No),
            &naive(&a, &b),
            1e-4,
        );
    }

    #[test]
    #[should_panic(expected = "inner dimension mismatch")]
    fn mismatched_inner_dims_panic() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[4, 2]);
        let _ = gemm(&a, Transpose::No, &b, Transpose::No);
    }

    #[test]
    fn gemm_into_reuses_buffer() {
        let a = rand_mat(3, 3, 5);
        let b = rand_mat(3, 3, 6);
        let mut out = Tensor::ones(&[3, 3]);
        gemm_into(&a, Transpose::No, &b, Transpose::No, &mut out);
        assert_close(&out, &naive(&a, &b), 1e-5);
    }

    #[test]
    fn zero_k_overwrites_output_with_zeros() {
        let a = Tensor::zeros(&[3, 0]);
        let b = Tensor::zeros(&[0, 4]);
        let mut out = Tensor::ones(&[3, 4]);
        gemm_into(&a, Transpose::No, &b, Transpose::No, &mut out);
        assert!(out.data().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn batched_matches_per_item_gemm_exactly() {
        let (batch, m, k, n) = (5usize, 6, 9, 7);
        let mut rng = crate::rng::SeededRng::new(99);
        let a: Vec<f32> = (0..batch * m * k).map(|_| rng.uniform(-1.0, 1.0)).collect();
        let b: Vec<f32> = (0..batch * k * n).map(|_| rng.uniform(-1.0, 1.0)).collect();
        let mut got = vec![0.0f32; batch * m * n];
        gemm_batched(&a, &b, &mut got, batch, m, k, n);
        for s in 0..batch {
            let at = Tensor::from_vec(a[s * m * k..(s + 1) * m * k].to_vec(), &[m, k]);
            let bt = Tensor::from_vec(b[s * k * n..(s + 1) * k * n].to_vec(), &[k, n]);
            let want = gemm(&at, Transpose::No, &bt, Transpose::No);
            assert_eq!(
                &got[s * m * n..(s + 1) * m * n],
                want.data(),
                "batch item {s} must match a standalone gemm bit-for-bit"
            );
        }
    }

    #[test]
    fn batched_threaded_split_matches_serial() {
        // large enough that batch*m*n*k crosses the threshold
        let (batch, m, k, n) = (16usize, 24, 24, 32);
        assert!(batch * m * k * n >= PARALLEL_THRESHOLD);
        let mut rng = crate::rng::SeededRng::new(123);
        let a: Vec<f32> = (0..batch * m * k).map(|_| rng.uniform(-1.0, 1.0)).collect();
        let b: Vec<f32> = (0..batch * k * n).map(|_| rng.uniform(-1.0, 1.0)).collect();
        let mut par = vec![0.0f32; batch * m * n];
        gemm_batched(&a, &b, &mut par, batch, m, k, n);
        let mut ser = vec![0.0f32; batch * m * n];
        with_gemm_thread_cap(1, || gemm_batched(&a, &b, &mut ser, batch, m, k, n));
        assert_eq!(par, ser, "batch split must not change any element");
    }
}
