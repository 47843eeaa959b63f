//! Benches of the real Rust kernels — a host-CPU-measured analog of the
//! paper's Figure 7/8 study: where does our own Winograd implementation
//! beat our own im2row?
//!
//! Run with `cargo bench -p wa-bench`. The harness is a dependency-free
//! `std::time` timer (`harness = false`): each case is warmed up, then
//! timed over enough iterations to smooth scheduler noise. The absolute
//! numbers describe the host CPU, not a Cortex-A73, but the qualitative
//! crossovers (Winograd wins as channels grow and loses on the stem)
//! mirror the paper.

use std::time::Instant;

use wa_tensor::{gemm, im2row, pad_nchw, SeededRng, Tensor, Transpose};
use wa_winograd::{transform_weights, winograd_conv2d_pretransformed, WinogradTransform};

/// Times `f` with warm-up, returning mean nanoseconds per iteration.
fn time_ns(mut f: impl FnMut()) -> f64 {
    // warm-up
    for _ in 0..2 {
        f();
    }
    // calibrate iteration count toward ~100ms of work
    let t0 = Instant::now();
    f();
    let once = t0.elapsed().as_secs_f64().max(1e-7);
    let iters = ((0.1 / once) as usize).clamp(3, 1000);
    let t0 = Instant::now();
    for _ in 0..iters {
        f();
    }
    t0.elapsed().as_secs_f64() * 1e9 / iters as f64
}

fn report(group: &str, name: &str, ns: f64) {
    if ns > 1e6 {
        println!("{group:<12} {name:<28} {:>10.3} ms", ns / 1e6);
    } else {
        println!("{group:<12} {name:<28} {:>10.3} µs", ns / 1e3);
    }
}

fn conv_im2row(x: &Tensor, wmat: &Tensor, kh: usize, pad: usize) -> Tensor {
    let xp = pad_nchw(x, pad);
    let rows = im2row(&xp, kh, kh, 1);
    gemm(&rows, Transpose::No, wmat, Transpose::Yes)
}

/// Figure 7/8 analog: one conv layer per algorithm at three ResNet-18
/// shapes.
fn bench_conv_algorithms() {
    let shapes: [(usize, usize, usize, &str); 3] = [
        (3, 32, 32, "stem 3->32 @32"),
        (64, 64, 16, "mid 64->64 @16"),
        (128, 128, 8, "deep 128->128 @8"),
    ];
    let mut rng = SeededRng::new(0);
    for (cin, cout, hw, label) in shapes {
        let x = rng.uniform_tensor(&[1, cin, hw, hw], -1.0, 1.0);
        let w = rng.uniform_tensor(&[cout, cin, 3, 3], -1.0, 1.0);
        let wmat = w.reshape(&[cout, cin * 9]);
        report(
            "conv",
            &format!("im2row {label}"),
            time_ns(|| {
                let _ = conv_im2row(&x, &wmat, 3, 1);
            }),
        );
        for m in [2usize, 4, 6] {
            let t = WinogradTransform::canonical(m, 3);
            let u = transform_weights(&w, &t);
            report(
                "conv",
                &format!("F{m} {label}"),
                time_ns(|| {
                    let _ = winograd_conv2d_pretransformed(&x, &u, None, &t, 1);
                }),
            );
        }
    }
}

/// GEMM throughput at the sizes the conv lowering produces.
fn bench_gemm() {
    let mut rng = SeededRng::new(1);
    for (m, k, n) in [(256, 288, 64), (1024, 576, 128), (64, 1152, 192)] {
        let a = rng.uniform_tensor(&[m, k], -1.0, 1.0);
        let b = rng.uniform_tensor(&[k, n], -1.0, 1.0);
        report(
            "gemm",
            &format!("{m}x{k}x{n}"),
            time_ns(|| {
                let _ = gemm(&a, Transpose::No, &b, Transpose::No);
            }),
        );
    }
}

/// Cook-Toom synthesis cost (exact rational arithmetic).
fn bench_cook_toom() {
    for (m, r) in [(2usize, 3usize), (4, 3), (6, 3), (6, 5)] {
        report(
            "cook_toom",
            &format!("F({m},{r})"),
            time_ns(|| {
                let _ = wa_winograd::cook_toom(m, r);
            }),
        );
    }
}

/// Winograd numerical-error probe (Table 1 root cause) — cheap enough to
/// track as a bench so regressions in transform quality are visible.
fn bench_tile_error() {
    let t = WinogradTransform::canonical(4, 3);
    report(
        "tile_error",
        "F4_int8_100tiles",
        time_ns(|| {
            let _ = wa_winograd::tile_error_quantized(&t, wa_quant::BitWidth::INT8, 100, 7);
        }),
    );
}

fn main() {
    // `cargo bench` passes filter/`--bench` style args; this harness runs
    // every group regardless, which is fine at its size.
    println!("{:<12} {:<28} {:>13}", "group", "case", "time/iter");
    bench_conv_algorithms();
    bench_gemm();
    bench_cook_toom();
    bench_tile_error();
}
