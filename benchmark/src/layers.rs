//! Per-layer measurements taken from outside the program: windows over
//! the program's own stage histograms, standalone conv layers, and the
//! GEMM kernels on the shapes the workloads run.

use std::collections::BTreeMap;
use std::time::Instant;

use wa_core::{ConvAlgo, ConvLayer, ConvSpec};
use wa_nn::{Infer, Layer, QuantConfig, Tape};
use wa_tensor::{
    gemm, gemm_batched, gemm_i8, gemm_i8_prepacked, with_gemm_thread_cap, PackedAI8, PackedBI8,
    SeededRng, Transpose,
};

use crate::stats::median;
use crate::trace::Tracer;
use crate::Metrics;

/// Stage spans the program records (`wa_stage_duration_microseconds`),
/// reported per batch or per request as `stage.<name>_ms`.
pub const STAGES: [&str; 13] = [
    "winograd.input_transform",
    "winograd.gemm",
    "winograd.output_transform",
    "winograd.filter_transform",
    "im2row",
    "im2row.gemm",
    "fake_quant",
    "int8.quantize",
    "int8.im2row",
    "int8.gemm",
    "int8.winograd_gemm",
    "int8.requantize",
    "executor.chunk",
];

/// `(count, sum µs)` per stage name at one instant.
pub type StageTotals = BTreeMap<String, (u64, u64)>;

/// The in-process stage histograms (offline workloads), plus
/// `executor.run`.
pub fn local_stage_totals() -> StageTotals {
    STAGES
        .iter()
        .chain(std::iter::once(&"executor.run"))
        .map(|&s| {
            let h = wa_obs::stage_histogram(s);
            (s.to_string(), (h.count(), h.sum()))
        })
        .collect()
}

/// Stage time between two snapshots, per unit of work (a batch or a
/// request), as `stage.*` metrics, plus `executor.run_ms` (per executor
/// run) and the share of Winograd time spent in the transforms.
pub fn stage_metrics(before: &StageTotals, after: &StageTotals, units: f64, out: &mut Metrics) {
    let delta = |s: &str| -> (f64, f64) {
        let (c0, s0) = before.get(s).copied().unwrap_or_default();
        let (c1, s1) = after.get(s).copied().unwrap_or_default();
        ((c1 - c0) as f64, (s1 - s0) as f64 / 1e3)
    };
    for s in STAGES {
        out.push(format!("stage.{s}_ms"), delta(s).1 / units, "ms");
    }
    let transforms: f64 = [
        "winograd.input_transform",
        "winograd.output_transform",
        "winograd.filter_transform",
    ]
    .iter()
    .map(|s| delta(s).1)
    .sum();
    let gemms = delta("winograd.gemm").1 + delta("int8.winograd_gemm").1;
    let share = if transforms + gemms > 0.0 {
        transforms / (transforms + gemms)
    } else {
        0.0
    };
    out.push("stage.transform_share", share, "ratio");
    let (runs, run_ms) = delta("executor.run");
    out.push(
        "executor.run_ms",
        if runs > 0.0 { run_ms / runs } else { 0.0 },
        "ms",
    );
}

/// The conv shapes of the per-layer table: channels (in = out) and
/// spatial size, as in ResNet-18's four stages at 32×32 input.
pub const CONV_SHAPES: [(usize, usize); 4] = [(64, 32), (128, 16), (256, 8), (512, 4)];

const CONV_ALGOS: [(&str, ConvAlgo); 4] = [
    ("im2row", ConvAlgo::Im2row),
    ("f2", ConvAlgo::Winograd { m: 2 }),
    ("f4", ConvAlgo::Winograd { m: 4 }),
    ("f6", ConvAlgo::Winograd { m: 6 }),
];

/// Batch size of the conv and kernel tables (the offline batch).
const TABLE_BATCH: usize = 16;

/// Median wall time of `f` in ms: one warm-up call, then at least
/// `min_reps` calls and until `min_ms` have passed.
fn time_ms(min_reps: usize, min_ms: f64, mut f: impl FnMut()) -> f64 {
    f();
    let mut times = Vec::new();
    let t0 = Instant::now();
    while times.len() < min_reps || crate::stats::ms(t0.elapsed()) < min_ms {
        let t = Instant::now();
        f();
        times.push(crate::stats::ms(t.elapsed()));
    }
    median(&times)
}

/// `conv.<shape>.<algo>_ms`: each standalone 3×3 layer, calibrated by
/// one training forward, timed with `Infer::infer_tensor` at batch 16
/// under `quant` (the traced workload's dtype) and `gemm_cap`, the GEMM
/// thread cap the traced workload's executor gives each worker.
pub fn conv_table(
    quant: QuantConfig,
    gemm_cap: usize,
    rng: &mut SeededRng,
    tracer: &mut Tracer,
    out: &mut Metrics,
) {
    for (c, s) in CONV_SHAPES {
        let x = rng.uniform_tensor(&[TABLE_BATCH, c, s, s], -1.0, 1.0);
        for (algo_name, algo) in CONV_ALGOS {
            let spec = ConvSpec::builder()
                .name("bench")
                .in_channels(c)
                .out_channels(c)
                .algo(algo)
                .quant(quant)
                .build()
                .expect("the table's shapes are valid 3×3 convs");
            let mut layer = ConvLayer::from_spec(&spec, rng).expect("valid spec");
            let calib = rng.uniform_tensor(&[2, c, s, s], -1.0, 1.0);
            let mut tape = Tape::new();
            let v = tape.leaf(calib);
            let _ = layer.forward(&mut tape, v, true);
            let name = format!("conv.c{c}s{s}.{algo_name}");
            let t = with_gemm_thread_cap(gemm_cap, || {
                time_ms(3, 150.0, || {
                    let start = Instant::now();
                    let y = layer.infer_tensor(&x).expect("layer accepts its shape");
                    std::hint::black_box(y);
                    tracer.record(&name, None, start, Instant::now());
                })
            });
            out.push(format!("{name}_ms"), t, "ms");
        }
    }
}

/// One kernel row: median call time on fixed operands → rate, plus the
/// operation count and computed bytes moved per call.
fn kernel_row(
    out: &mut Metrics,
    tracer: &mut Tracer,
    name: &str,
    rate_unit: &'static str,
    ops: f64,
    bytes: f64,
    mut f: impl FnMut(),
) {
    let t = time_ms(5, 200.0, || {
        let start = Instant::now();
        f();
        tracer.record(name, None, start, Instant::now());
    });
    let rate_key = if rate_unit == "GFLOP/s" {
        "gflops"
    } else {
        "gops"
    };
    out.push(format!("{name}.{rate_key}"), ops / (t * 1e6), rate_unit);
    out.push(format!("{name}.ops_per_call"), ops, "count");
    out.push(format!("{name}.bytes_per_call"), bytes, "B");
}

/// `kernel.*`: the f32 and i8 GEMMs on the c128s16 layer's shapes at
/// batch 16 — im2row (`[N·H·W, 9C] · [K, 9C]ᵀ`) for the single GEMMs,
/// the F4 Hadamard stage (36 taps of `[K, C] · [C, tiles]`) for the
/// batched ones — under `gemm_cap`, as for the conv table. Bytes
/// moved are computed from operand and output sizes in the layout each
/// kernel reads and writes.
pub fn kernel_table(gemm_cap: usize, rng: &mut SeededRng, tracer: &mut Tracer, out: &mut Metrics) {
    let (c, s) = (128usize, 16usize);
    // im2row shapes
    let (m, k, n) = (TABLE_BATCH * s * s, 9 * c, c);
    // F4 Hadamard shapes: 6×6 taps, (16/4)² tiles per image
    let (taps, tiles) = (36usize, TABLE_BATCH * (s / 4) * (s / 4));
    let rows = rng.uniform_tensor(&[m, k], -1.0, 1.0);
    let w = rng.uniform_tensor(&[n, k], -1.0, 1.0);
    let u = rng.uniform_tensor(&[taps, c, c], -1.0, 1.0);
    let v = rng.uniform_tensor(&[taps, c, tiles], -1.0, 1.0);
    let to_i8 = |len: usize, rng: &mut SeededRng| -> Vec<i8> {
        (0..len)
            .map(|_| (rng.below(255) as i32 - 127) as i8)
            .collect()
    };
    let rows_i8 = to_i8(m * k, rng);
    let w_i8 = to_i8(n * k, rng);
    let u_i8 = to_i8(taps * c * c, rng);
    let v_i8 = to_i8(taps * c * tiles, rng);
    let pa = PackedAI8::pack(&u_i8, taps, c, c);
    let pb = PackedBI8::pack(&v_i8, taps, c, tiles);

    with_gemm_thread_cap(gemm_cap, || {
        let single_ops = 2.0 * (m * k * n) as f64;
        let batched_ops = 2.0 * (taps * c * c * tiles) as f64;
        kernel_row(
            out,
            tracer,
            "kernel.gemm_f32",
            "GFLOP/s",
            single_ops,
            4.0 * (m * k + n * k + m * n) as f64,
            || {
                std::hint::black_box(gemm(&rows, Transpose::No, &w, Transpose::Yes));
            },
        );
        let mut acc = vec![0f32; taps * c * tiles];
        kernel_row(
            out,
            tracer,
            "kernel.gemm_batched_f32",
            "GFLOP/s",
            batched_ops,
            4.0 * (taps * (c * c + 2 * c * tiles)) as f64,
            || {
                gemm_batched(u.data(), v.data(), &mut acc, taps, c, c, tiles);
                std::hint::black_box(&acc);
            },
        );
        let mut acc_i = vec![0i32; m * n];
        kernel_row(
            out,
            tracer,
            "kernel.gemm_i8",
            "GOP/s",
            single_ops,
            (m * k + n * k + 4 * m * n) as f64,
            || {
                gemm_i8(
                    &rows_i8,
                    Transpose::No,
                    &w_i8,
                    Transpose::Yes,
                    m,
                    k,
                    n,
                    &mut acc_i,
                );
                std::hint::black_box(&acc_i);
            },
        );
        let mut acc_p = vec![0i32; taps * c * tiles];
        kernel_row(
            out,
            tracer,
            "kernel.gemm_i8_prepacked",
            "GOP/s",
            batched_ops,
            // both operands are stored widened to i16
            (2 * taps * (c * c + c * tiles) + 4 * taps * c * tiles) as f64,
            || {
                gemm_i8_prepacked(&pa, &pb, &mut acc_p);
                std::hint::black_box(&acc_p);
            },
        );
    });
}
