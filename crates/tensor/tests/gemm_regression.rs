//! Regression suite for the packed/threaded GEMM on shapes that do not
//! divide evenly into its internal blocking:
//!
//! * odd `M` exercises the register-tile remainder rows (which run the
//!   same const-generic micro-kernel as full tiles),
//! * odd `N`/`K` exercise the zero-padded B-panel edges and the K-panel
//!   split,
//! * `M·N·K` above the parallel threshold exercises the
//!   `std::thread::scope` row split with a ragged final chunk,
//! * thread caps around `M` exercise the split boundaries (`M` not a
//!   multiple of the worker count, `M` smaller than the worker count).
//!
//! The same holds for `gemm_taps`, the Winograd per-tap entry that reads
//! a prepacked filter and taps-last input rows and stores taps-last
//! output rows: it is pinned against a naive loop over the same layouts
//! and against `gemm_batched` on explicitly permuted copies.
//!
//! The kernel accumulates each output element over `k` in strictly
//! ascending order for **every** shape — the K-panel loop reads the
//! partial result back instead of reassociating — so every comparison
//! against the naive f32 triple loop demands *exact* equality.

use wa_tensor::{gemm, gemm_batched, gemm_taps, PackedA, SeededRng, Tensor, Transpose};

fn rand_mat(r: usize, c: usize, seed: u64) -> Tensor {
    let mut rng = SeededRng::new(seed);
    Tensor::from_fn(&[r, c], |_| rng.uniform(-1.0, 1.0))
}

/// Naive f32 triple loop — accumulation order identical to the packed
/// kernel for every shape.
fn naive_f32(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = (a.dim(0), a.dim(1));
    let n = b.dim(1);
    let mut out = Tensor::zeros(&[m, n]);
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for p in 0..k {
                acc += a.data()[i * k + p] * b.data()[p * n + j];
            }
            *out.at_mut(&[i, j]) = acc;
        }
    }
    out
}

/// f64 reference for cases where the blocked kernel's K-panel split
/// changes the f32 accumulation order.
fn naive_f64(a: &Tensor, b: &Tensor) -> Tensor {
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

#[test]
fn odd_shapes_match_naive_exactly_below_parallel_threshold() {
    // all-odd M/N/K around the 4-row panel boundary
    for (m, k, n) in [(5, 9, 7), (7, 3, 5), (9, 11, 13), (3, 255, 3), (17, 31, 29)] {
        let a = rand_mat(m, k, 1000 + (m * k) as u64);
        let b = rand_mat(k, n, 2000 + (k * n) as u64);
        let got = gemm(&a, Transpose::No, &b, Transpose::No);
        let want = naive_f32(&a, &b);
        assert_eq!(
            got.data(),
            want.data(),
            "blocked GEMM must match the naive f32 loop exactly for \
             {m}x{k}x{n} (k fits one K-panel)"
        );
    }
}

#[test]
fn odd_shapes_match_naive_exactly_on_the_threaded_path() {
    // 65*63*67 = 274,365 result-work units > 64^3: the threaded split
    // engages, with a ragged final row chunk (65 rows over the workers).
    let (m, k, n) = (65usize, 63, 67);
    assert!(m * k * n >= 64 * 64 * 64, "shape must trigger threading");
    let a = rand_mat(m, k, 3);
    let b = rand_mat(k, n, 4);
    let got = gemm(&a, Transpose::No, &b, Transpose::No);
    let want = naive_f32(&a, &b);
    assert_eq!(
        got.data(),
        want.data(),
        "threaded row split must not change any output element"
    );
}

#[test]
fn odd_k_above_panel_size_is_still_exact_and_near_f64() {
    // k = 300 splits into K-panels 256 + 44. The kernel reads its partial
    // result back between panels instead of reassociating, so even the
    // K-split path stays bit-identical to the naive f32 loop — and the
    // f64 reference bounds the genuine rounding of that shared order.
    let (m, k, n) = (7usize, 300, 5);
    let a = rand_mat(m, k, 5);
    let b = rand_mat(k, n, 6);
    let got = gemm(&a, Transpose::No, &b, Transpose::No);
    assert_eq!(
        got.data(),
        naive_f32(&a, &b).data(),
        "the K-panel split must not reassociate the accumulation"
    );
    let want = naive_f64(&a, &b);
    for (x, y) in got.data().iter().zip(want.data()) {
        assert!(
            (x - y).abs() <= 1e-4 * (1.0 + x.abs().max(y.abs())),
            "{x} vs {y}"
        );
    }
}

#[test]
fn row_split_boundaries_are_exact_for_any_worker_count() {
    // M chosen so that common worker counts leave a ragged final chunk
    // (67 = 4·16 + 3 rows) and M·N·K crosses the parallel threshold. The
    // cap bounds the split at w workers (the machine's core count may
    // bound it lower still); every variant must agree with the naive
    // loop exactly, because the split assigns whole output rows.
    let (m, k, n) = (67usize, 64, 70);
    assert!(m * k * n >= 64 * 64 * 64, "shape must trigger threading");
    let a = rand_mat(m, k, 21);
    let b = rand_mat(k, n, 22);
    let want = naive_f32(&a, &b);
    for workers in [1usize, 2, 3, 5, 8, 64] {
        let got =
            wa_tensor::with_gemm_thread_cap(workers, || gemm(&a, Transpose::No, &b, Transpose::No));
        assert_eq!(
            got.data(),
            want.data(),
            "row split with a cap of {workers} workers changed an element"
        );
    }
}

#[test]
fn more_workers_than_rows_is_exact() {
    // M < the permitted worker count: the split must simply spawn fewer
    // workers (MR-aligned row chunks), never hand a worker zero rows or
    // split a row. K is large so the per-row work crosses the threshold.
    let (m, k, n) = (3usize, 512, 200);
    assert!(m * k * n >= 64 * 64 * 64, "shape must trigger threading");
    let a = rand_mat(m, k, 31);
    let b = rand_mat(k, n, 32);
    let want = naive_f32(&a, &b);
    for workers in [2usize, 4, 16, 1024] {
        let got =
            wa_tensor::with_gemm_thread_cap(workers, || gemm(&a, Transpose::No, &b, Transpose::No));
        assert_eq!(
            got.data(),
            want.data(),
            "M={m} with a cap of {workers} workers changed an element"
        );
    }
}

#[test]
fn transpose_flags_on_odd_shapes_match_explicit_transpose() {
    let a = rand_mat(9, 5, 7); // aᵀ: [5, 9]
    let b = rand_mat(9, 7, 8);
    let got = gemm(&a, Transpose::Yes, &b, Transpose::No);
    let want = naive_f32(&a.transpose(), &b);
    assert_eq!(got.data(), want.data());

    let c = rand_mat(11, 9, 9); // cᵀ: [9, 11]
    let got2 = gemm(&b, Transpose::Yes, &c, Transpose::Yes); // [7,9]·[9,11]
    let want2 = naive_f32(&b.transpose(), &c.transpose());
    assert_eq!(got2.data(), want2.data());
}

#[test]
fn degenerate_single_row_and_column_shapes() {
    for (m, k, n) in [(1, 1, 1), (1, 7, 1), (3, 1, 5), (1, 5, 9)] {
        let a = rand_mat(m, k, 60 + m as u64);
        let b = rand_mat(k, n, 70 + n as u64);
        let got = gemm(&a, Transpose::No, &b, Transpose::No);
        let want = naive_f32(&a, &b);
        assert_eq!(got.data(), want.data(), "{m}x{k}x{n}");
    }
}

/// Random taps-last operands for `gemm_taps`: filter rows `[m·k, taps]`
/// and input rows `[n·k, taps]` (`n` tiles).
fn taps_operands(taps: usize, m: usize, k: usize, n: usize, seed: u64) -> (Vec<f32>, Vec<f32>) {
    let mut rng = SeededRng::new(seed);
    let u = (0..m * k * taps).map(|_| rng.uniform(-1.0, 1.0)).collect();
    let v = (0..n * k * taps).map(|_| rng.uniform(-1.0, 1.0)).collect();
    (u, v)
}

/// Naive per-tap loop straight on the taps-last layouts:
/// `out[(j·m + i)·taps + t] = Σ_p u[(i·k + p)·taps + t] · v[(j·k + p)·taps + t]`,
/// accumulated in ascending `p`.
fn naive_taps(u: &[f32], v: &[f32], taps: usize, m: usize, k: usize, n: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; n * m * taps];
    for t in 0..taps {
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for p in 0..k {
                    acc += u[(i * k + p) * taps + t] * v[(j * k + p) * taps + t];
                }
                out[(j * m + i) * taps + t] = acc;
            }
        }
    }
    out
}

/// The former pipeline: permute both operands to per-tap order, run
/// `gemm_batched`, permute the products back to taps-last.
fn permuted_batched(u: &[f32], v: &[f32], taps: usize, m: usize, k: usize, n: usize) -> Vec<f32> {
    let mut up = vec![0.0f32; taps * m * k];
    for ip in 0..m * k {
        for t in 0..taps {
            up[t * m * k + ip] = u[ip * taps + t];
        }
    }
    let mut vp = vec![0.0f32; taps * k * n];
    for j in 0..n {
        for p in 0..k {
            for t in 0..taps {
                vp[(t * k + p) * n + j] = v[(j * k + p) * taps + t];
            }
        }
    }
    let mut mp = vec![0.0f32; taps * m * n];
    gemm_batched(&up, &vp, &mut mp, taps, m, k, n);
    let mut out = vec![0.0f32; n * m * taps];
    for t in 0..taps {
        for i in 0..m {
            for j in 0..n {
                out[(j * m + i) * taps + t] = mp[(t * m + i) * n + j];
            }
        }
    }
    out
}

fn run_taps(u: &[f32], v: &[f32], taps: usize, m: usize, k: usize, n: usize) -> Vec<f32> {
    let a = PackedA::pack_taps_last(u, taps, m, k);
    let mut out = vec![f32::NAN; n * m * taps];
    gemm_taps(&a, v, &mut out);
    out
}

#[test]
fn tap_gemm_matches_naive_and_permuted_batched_on_ragged_shapes() {
    // m off the MR=4 row tile, n off the NR=8 panel (including a single
    // tile), k inside one K-panel and across KC=256 (300 = 256 + 44,
    // 513 = 2·256 + 1)
    let mut seed = 500;
    for taps in [4usize, 16, 36] {
        for (m, k, n) in [
            (5usize, 7usize, 1usize),
            (7, 3, 9),
            (13, 11, 17),
            (3, 300, 5),
            (6, 513, 3),
            (9, 300, 1),
        ] {
            seed += 1;
            let (u, v) = taps_operands(taps, m, k, n, seed);
            let got = run_taps(&u, &v, taps, m, k, n);
            assert_eq!(
                got,
                naive_taps(&u, &v, taps, m, k, n),
                "gemm_taps vs naive loop, taps {taps} m {m} k {k} n {n}"
            );
            assert_eq!(
                got,
                permuted_batched(&u, &v, taps, m, k, n),
                "gemm_taps vs permuted gemm_batched, taps {taps} m {m} k {k} n {n}"
            );
        }
    }
}

#[test]
fn tap_gemm_thread_split_is_exact() {
    // above the parallel threshold with a ragged tile count (45 tiles =
    // 5 panels of 8 + 5), so a cap of 2 splits whole tile panels
    let (taps, m, k, n) = (16usize, 13, 70, 45);
    assert!(
        taps * m * k * n >= 64 * 64 * 64,
        "shape must trigger threading"
    );
    let (u, v) = taps_operands(taps, m, k, n, 77);
    let want = naive_taps(&u, &v, taps, m, k, n);
    for cap in [1usize, 2] {
        let got = wa_tensor::with_gemm_thread_cap(cap, || run_taps(&u, &v, taps, m, k, n));
        assert_eq!(got, want, "a GEMM thread cap of {cap} changed an element");
    }
}
