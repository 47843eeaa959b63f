//! The offline workloads: full-width ResNet-18 with the paper's F4
//! policy (direct stem, F4 body, last two blocks pinned to F2), decoded
//! from a binary container and run batch after batch through
//! `BatchExecutor` with its default configuration.
//!
//! An untraced run measures in [`FORKS`] fresh processes one after
//! another (the benchmark binary again, with `--fork k`), each setting
//! the network up once and running batches for its share of the run.
//! How fast a process runs the f32 network depends on state it settles
//! into: how much memory each batch page-faults (anywhere from about 20
//! to 550 MB, holding for up to tens of batches) and where its pages
//! land. Processes of one run differed by up to 2× in samples/s; with a
//! single process per run, every run would be a single draw of that.

use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::Instant;

use wa_core::ConvAlgo;
use wa_models::{BatchExecutor, ExecutorConfig, Infer, ModelKind, ModelSpec, ZooModel};
use wa_nn::{Layer, QuantConfig, Tape};
use wa_quant::{BitWidth, Execution, TapPolicy};
use wa_tensor::{Json, SeededRng, Tensor};

use crate::stats::{median, ms, tail};
use crate::trace::Tracer;
use crate::{fail, host, layers, out_dir, Args, Metrics, Outcome};

/// Samples per batch.
pub const BATCH: usize = 16;
/// Input side (CIFAR-native).
const SIDE: usize = 32;
/// Set-ups in a traced run; the `setup.*` metrics are their medians.
const SETUPS: usize = 3;
/// Samples per batch checked against the sequential reference.
const CHECKED: usize = 1;
/// Measuring processes of an untraced run; each gets an equal share of
/// the run's seconds and one set-up, and the rates and `setup_s` are
/// medians over them.
const FORKS: usize = 5;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Dtype {
    F32,
    Int8,
}

impl Dtype {
    /// The quantization the workload's network (and the traced conv
    /// table) runs under.
    pub fn quant(self) -> QuantConfig {
        match self {
            Dtype::F32 => QuantConfig::FP32,
            Dtype::Int8 => QuantConfig::uniform(BitWidth::INT8)
                .with_transform(TapPolicy::PerTap)
                .with_execution(Execution::Int8),
        }
    }
}

/// Workers the executor runs for one batch, and the GEMM thread cap
/// each gets (a lone worker keeps the GEMM's own threading, one thread
/// per core) — the same division `BatchExecutor::run` makes.
pub fn effective_threads(cfg: ExecutorConfig, batch: usize) -> (usize, usize) {
    let cores = host::nproc();
    let chunks = batch.div_ceil(cfg.chunk.min(batch));
    let workers = cfg.threads.min(chunks).min(cores).max(1);
    let cap = if workers == 1 {
        cores
    } else {
        (cores / workers).max(1)
    };
    (workers, cap)
}

/// The network as shipped in a binary container, built from the seed.
fn make_container(dtype: Dtype, rng: &mut SeededRng) -> Vec<u8> {
    let spec = ModelSpec::builder()
        .classes(10)
        .width(1.0)
        .input_size(SIDE)
        .algo(ConvAlgo::Winograd { m: 4 })
        .quant(dtype.quant())
        .build()
        .expect("static spec");
    let mut model = ZooModel::from_spec(ModelKind::ResNet18, &spec, rng).expect("static spec");
    if dtype == Dtype::Int8 {
        // one seeded training forward calibrates every observer
        let warm = rng.uniform_tensor(&[2, 3, SIDE, SIDE], -1.0, 1.0);
        let mut tape = Tape::new();
        let x = tape.leaf(warm);
        let _ = model.forward(&mut tape, x, true);
    }
    let ckpt = model
        .to_full_checkpoint()
        .expect("zoo models export cleanly");
    wa_nn::write_checkpoint(&ckpt)
}

struct Setup {
    model: ZooModel,
    decode_ms: f64,
    build_ms: f64,
    first_batch_ms: f64,
}

impl Setup {
    fn total_s(&self) -> f64 {
        (self.decode_ms + self.build_ms + self.first_batch_ms) / 1e3
    }
}

/// Container decode, model build, and the first batch (which fills the
/// per-layer filter caches).
fn set_up(bytes: &[u8], exec: &BatchExecutor, first: &Tensor, tracer: &mut Tracer) -> Setup {
    let t0 = Instant::now();
    let doc = wa_nn::read_checkpoint(bytes).unwrap_or_else(|e| crate::fail(e));
    let t1 = Instant::now();
    let model = ZooModel::from_full_checkpoint(&doc).unwrap_or_else(|e| crate::fail(e));
    drop(doc);
    let t2 = Instant::now();
    let y = exec.run(&model, first).unwrap_or_else(|e| crate::fail(e));
    let t3 = Instant::now();
    if !y.data().iter().all(|v| v.is_finite()) {
        crate::fail("the first batch produced non-finite logits");
    }
    let root = tracer.record("setup", None, t0, t3);
    tracer.record("setup.decode", root, t0, t1);
    tracer.record("setup.build", root, t1, t2);
    tracer.record("setup.first_batch", root, t2, t3);
    Setup {
        model,
        decode_ms: ms(t1 - t0),
        build_ms: ms(t2 - t1),
        first_batch_ms: ms(t3 - t2),
    }
}

/// One measured phase: batch wall times, executor chunk counts, and
/// the number of batches whose checked samples diverged.
#[derive(Default)]
struct Phase {
    batch_ms: Vec<f64>,
    /// Per batch: it ran and its checked samples matched the reference.
    ok: Vec<bool>,
    /// Peak resident set of the process during each batch, MB.
    peak_mb: Vec<f64>,
    chunks: Vec<usize>,
    failed: u64,
}

/// Runs seeded batches back to back for `seconds`, each timed alone,
/// with the process's peak resident set reset before it and read after.
/// Then, outside the timed loop (so that the reference runs never
/// disturb the allocator state the batches see), a seeded subset of
/// every batch's samples is re-run through the sequential
/// `Infer::infer_tensor` and must match bit for bit.
fn measure(
    model: &ZooModel,
    exec: &BatchExecutor,
    rng: &mut SeededRng,
    seconds: f64,
    tracer: &mut Tracer,
) -> Phase {
    let mut phase = Phase::default();
    // (batch index, root span, samples to check, their logits from the
    // batch)
    let mut checks = Vec::new();
    let t0 = Instant::now();
    while phase.batch_ms.len() < 3 || t0.elapsed().as_secs_f64() < seconds {
        let x = rng.uniform_tensor(&[BATCH, 3, SIDE, SIDE], -1.0, 1.0);
        let picked: Vec<usize> = (0..CHECKED).map(|_| rng.below(BATCH)).collect();
        host::reset_peak_rss("self");
        let start = Instant::now();
        let run = exec.run_with_stats(model, &x);
        let end = Instant::now();
        phase.peak_mb.extend(host::peak_rss_mb("self"));
        let root = tracer.record("batch", None, start, end);
        tracer.record("executor.run", root, start, end);
        phase.batch_ms.push(ms(end - start));
        phase.ok.push(run.is_ok());
        let Ok((y, stats)) = run else {
            phase.failed += 1;
            continue;
        };
        phase.chunks.push(stats.chunks);
        let per = y.len() / BATCH;
        let samples: Vec<(Tensor, Vec<f32>)> = picked
            .into_iter()
            .map(|i| {
                (
                    x.slice_dim0(i, i + 1),
                    y.data()[i * per..(i + 1) * per].to_vec(),
                )
            })
            .collect();
        checks.push((phase.ok.len() - 1, root, samples));
    }
    // the checks are not timed, so they run on every core at once
    let threads = host::nproc().clamp(1, checks.len().max(1));
    let part = checks.len().div_ceil(threads).max(1);
    let checked: Vec<_> = std::thread::scope(|s| {
        let workers: Vec<_> = checks
            .chunks(part)
            .map(|part| {
                s.spawn(move || {
                    part.iter()
                        .map(|(batch, root, samples)| {
                            let start = Instant::now();
                            let diverged = samples.iter().any(|(x, want)| {
                                let one = model.infer_tensor(x);
                                !matches!(one, Ok(one) if one.data() == &want[..])
                            });
                            (*batch, *root, start, Instant::now(), diverged)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("a check thread panicked"))
            .collect()
    });
    for (batch, root, start, end, diverged) in checked {
        tracer.record("reference_check", root, start, end);
        phase.failed += diverged as u64;
        phase.ok[batch] &= !diverged;
    }
    phase
}

/// Where an untraced run leaves its container for its processes.
fn container_path(args: &Args) -> PathBuf {
    out_dir().join(format!("{}-{}.wack", args.workload, args.seed))
}

/// What one measuring process of an untraced run reports.
struct Fork {
    setup_s: f64,
    batch_ms: Vec<f64>,
    ok: Vec<bool>,
    peak_mb: Vec<f64>,
    failed: u64,
}

/// Runs measuring process `k` of an untraced run to its end and reads
/// its report.
fn run_fork(args: &Args, k: usize) -> Fork {
    let exe = std::env::current_exe().unwrap_or_else(|e| fail(format!("locating myself: {e}")));
    let share = args.seconds / FORKS as f64;
    let out = Command::new(exe)
        .args(["--workload", &args.workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &share.to_string()])
        .args(["--trace", "0", "--fork", &k.to_string()])
        .stderr(Stdio::inherit())
        .output()
        .unwrap_or_else(|e| fail(format!("running process {k}: {e}")));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let doc = stdout
        .lines()
        .find_map(|l| l.strip_prefix("fork "))
        .filter(|_| out.status.success())
        .and_then(|l| Json::parse(l).ok())
        .unwrap_or_else(|| fail(format!("process {k} failed: {}", out.status)));
    let nums = |key: &str| -> Vec<f64> {
        doc.get(key)
            .and_then(Json::as_arr)
            .map(|a| a.iter().filter_map(Json::as_f64).collect())
            .unwrap_or_default()
    };
    let field = |key: &str| doc.get(key).and_then(Json::as_f64).unwrap_or(f64::NAN);
    let ok = doc
        .get("ok")
        .and_then(Json::as_arr)
        .map(|a| a.iter().map(|v| v.as_bool() == Some(true)).collect())
        .unwrap_or_default();
    let fork = Fork {
        setup_s: field("setup_s"),
        batch_ms: nums("batch_ms"),
        ok,
        peak_mb: nums("peak_mb"),
        failed: field("failed") as u64,
    };
    if fork.batch_ms.is_empty() || fork.ok.len() != fork.batch_ms.len() {
        fail(format!("process {k} reported no batches"));
    }
    fork
}

/// Measuring process `k` of an untraced run (`--fork k`): reads the
/// run's container, sets the network up once, runs batches for
/// `--seconds` and prints what it measured as one `fork {json}` line.
pub fn fork_main(args: &Args, k: usize) {
    let path = container_path(args);
    let bytes = std::fs::read(&path).unwrap_or_else(|e| fail(format!("reading {path:?}: {e}")));
    let mut inputs = SeededRng::new(args.seed).fork(10 + k as u64);
    let exec = BatchExecutor::new(ExecutorConfig::default()).expect("the default config is valid");
    let first = inputs.uniform_tensor(&[BATCH, 3, SIDE, SIDE], -1.0, 1.0);
    let mut tracer = Tracer::new(false);
    let s = set_up(&bytes, &exec, &first, &mut tracer);
    let p = measure(&s.model, &exec, &mut inputs, args.seconds, &mut tracer);
    let doc = Json::obj([
        ("setup_s", Json::from(s.total_s())),
        ("batch_ms", Json::from(p.batch_ms)),
        ("ok", Json::from(p.ok)),
        ("peak_mb", Json::from(p.peak_mb)),
        ("failed", Json::from(p.failed as f64)),
    ]);
    println!("fork {}", doc.to_string_compact());
}

pub fn run(dtype: Dtype, args: &Args, tracer: &mut Tracer) -> Outcome {
    let t0 = Instant::now();
    let mut rng = SeededRng::new(args.seed);
    let bytes = make_container(dtype, &mut rng.fork(1));
    eprintln!(
        "container of {} bytes made in {:.2} s",
        bytes.len(),
        t0.elapsed().as_secs_f64()
    );
    let cfg = ExecutorConfig::default();
    let (workers, gemm_cap) = effective_threads(cfg, BATCH);

    let mut metrics = Metrics::default();
    let (attempted, failed) = if !args.trace {
        let path = container_path(args);
        std::fs::write(&path, &bytes).unwrap_or_else(|e| fail(format!("writing {path:?}: {e}")));
        let forks: Vec<Fork> = (0..FORKS).map(|k| run_fork(args, k)).collect();
        let _ = std::fs::remove_file(&path);
        let pooled = |f: fn(&Fork) -> &Vec<f64>| -> Vec<f64> {
            forks.iter().flat_map(|k| f(k).iter().copied()).collect()
        };
        let batch_ms = pooled(|f| &f.batch_ms);
        crate::stats::report_spread("batch_ms", &batch_ms);
        // rates over every batch of every process, so that each
        // process's state counts in proportion
        let busy_s = batch_ms.iter().sum::<f64>() / 1e3;
        let batches = batch_ms.len() as f64;
        let good = forks
            .iter()
            .map(|f| f.ok.iter().filter(|&&ok| ok).count())
            .sum::<usize>() as f64;
        let per_process: Vec<f64> = forks
            .iter()
            .map(|f| BATCH as f64 * f.batch_ms.len() as f64 * 1e3 / f.batch_ms.iter().sum::<f64>())
            .collect();
        crate::stats::report_spread("samples_per_s per process", &per_process);
        let setup_s: Vec<f64> = forks.iter().map(|f| f.setup_s).collect();
        crate::stats::report_spread("setup_s", &setup_s);
        metrics.push("samples_per_s", BATCH as f64 * batches / busy_s, "1/s");
        metrics.push("latency_p50_ms", median(&batch_ms), "ms");
        // a run has tens of batches: no percentile above the median has
        // ten beyond it, so the reported tail falls back to the median
        metrics.push("latency_p90_ms", tail(&batch_ms, 90.0).1, "ms");
        metrics.push("max_rate_rps", batches / busy_s, "1/s");
        metrics.push("goodput_rps", good / busy_s, "1/s");
        metrics.push("setup_s", median(&setup_s), "s");
        metrics.push("peak_rss_mb", median(&pooled(|f| &f.peak_mb)), "MB");
        (batch_ms.len() as u64, forks.iter().map(|f| f.failed).sum())
    } else {
        let mut inputs = rng.fork(2);
        let exec = BatchExecutor::new(cfg).expect("the default config is valid");
        let first = inputs.uniform_tensor(&[BATCH, 3, SIDE, SIDE], -1.0, 1.0);
        let (mut decode, mut build, mut first_batch) = (vec![], vec![], vec![]);
        let mut model = None;
        for _ in 0..SETUPS {
            // release the previous model first, so set-ups never overlap
            drop(model.take());
            let s = set_up(&bytes, &exec, &first, tracer);
            decode.push(s.decode_ms);
            build.push(s.build_ms);
            first_batch.push(s.first_batch_ms);
            model = Some(s.model);
        }
        let model = model.expect("SETUPS > 0");

        // an untraced half, then a traced half: the gap in executor
        // time between them is the tracing overhead
        tracer.set_enabled(false);
        let s0 = layers::local_stage_totals();
        let plain = measure(&model, &exec, &mut inputs, args.seconds / 2.0, tracer);
        let s1 = layers::local_stage_totals();
        tracer.set_enabled(true);
        let traced = measure(&model, &exec, &mut inputs, args.seconds / 2.0, tracer);
        let s2 = layers::local_stage_totals();

        metrics.push("setup.decode_ms", median(&decode), "ms");
        metrics.push("setup.build_ms", median(&build), "ms");
        metrics.push("setup.first_batch_ms", median(&first_batch), "ms");
        let mut untraced = Metrics::default();
        layers::stage_metrics(&s0, &s1, plain.batch_ms.len() as f64, &mut untraced);
        layers::stage_metrics(&s1, &s2, traced.batch_ms.len() as f64, &mut metrics);
        let run_ms = |m: &Metrics| m.get("executor.run_ms").unwrap_or(f64::NAN);
        metrics.push(
            "executor.trace_overhead_ms",
            run_ms(&metrics) - run_ms(&untraced),
            "ms",
        );
        let chunks: Vec<f64> = traced.chunks.iter().map(|&c| c as f64).collect();
        metrics.push("executor.chunks_per_run", median(&chunks), "count");
        let mut table_rng = rng.fork(3);
        layers::conv_table(
            dtype.quant(),
            gemm_cap,
            &mut table_rng,
            tracer,
            &mut metrics,
        );
        layers::kernel_table(gemm_cap, &mut table_rng, tracer, &mut metrics);
        (
            (plain.batch_ms.len() + traced.batch_ms.len()) as u64,
            plain.failed + traced.failed,
        )
    };

    Outcome {
        attempted,
        failed,
        metrics,
        host: vec![
            (
                "executor",
                Json::obj([
                    ("threads", Json::from(cfg.threads)),
                    ("chunk", Json::from(cfg.chunk)),
                    ("batch", Json::from(BATCH)),
                    ("effective_workers", Json::from(workers)),
                    ("gemm_thread_cap", Json::from(gemm_cap)),
                    ("processes", Json::from(if args.trace { 1 } else { FORKS })),
                ]),
            ),
            (
                "model",
                Json::from(format!(
                    "resnet18 w1.0 {SIDE}x{SIDE} F4 policy, {}",
                    match dtype {
                        Dtype::F32 => "f32",
                        Dtype::Int8 => "int8 per-tap, Execution::Int8",
                    }
                )),
            ),
            ("container_bytes", Json::from(bytes.len())),
        ],
    }
}
