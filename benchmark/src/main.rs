//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <offline-f32-f4|offline-int8-f4|serve-lenet-int8> \
//!     --seed N --seconds S --trace <0|1>
//! ```
//!
//! Run from the repository root. Prints each metric as `name value
//! unit`, a `host` line, and, as the last line, one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0`
//! the metrics are the end-to-end ones; with `--trace 1` the per-layer
//! ones, and the benchmark's own spans are written to
//! `<target dir>/perfbench/trace-<workload>-<seed>.json`. An untraced
//! offline run starts the binary again with `--fork k` for each of its
//! measuring processes. See `benchmark/README.md` for the workloads and
//! every metric.

mod host;
mod layers;
mod offline;
mod serve;
mod stats;
mod trace;

use std::path::PathBuf;

use wa_tensor::Json;

/// Named metrics in output order.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.0 == name).map(|m| m.1)
    }
}

/// The end-to-end metrics every untraced run reports, with units.
const END_TO_END: [(&str, &str); 7] = [
    ("samples_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("max_rate_rps", "1/s"),
    ("goodput_rps", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics every traced run reports, with units. A layer
/// a workload does not run reports 0.
fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = [
        ("setup.decode_ms", "ms"),
        ("setup.build_ms", "ms"),
        ("setup.first_batch_ms", "ms"),
        ("registry.load_ms", "ms"),
        ("registry.resident_mb", "MB"),
        ("executor.run_ms", "ms"),
        ("executor.chunks_per_run", "count"),
        ("executor.trace_overhead_ms", "ms"),
    ]
    .into_iter()
    .map(|(n, u)| (n.to_string(), u))
    .collect();
    for (c, s) in layers::CONV_SHAPES {
        for algo in ["im2row", "f2", "f4", "f6"] {
            out.push((format!("conv.c{c}s{s}.{algo}_ms"), "ms"));
        }
    }
    for stage in layers::STAGES {
        out.push((format!("stage.{stage}_ms"), "ms"));
    }
    out.push(("stage.transform_share".into(), "ratio"));
    for (kernel, rate, unit) in [
        ("gemm_f32", "gflops", "GFLOP/s"),
        ("gemm_batched_f32", "gflops", "GFLOP/s"),
        ("gemm_i8", "gops", "GOP/s"),
        ("gemm_i8_prepacked", "gops", "GOP/s"),
    ] {
        out.push((format!("kernel.{kernel}.{rate}"), unit));
        out.push((format!("kernel.{kernel}.ops_per_call"), "count"));
        out.push((format!("kernel.{kernel}.bytes_per_call"), "B"));
    }
    for (name, unit) in [
        ("scheduler.queue_wait_ms_p50", "ms"),
        ("scheduler.queue_wait_ms_p99", "ms"),
        ("scheduler.jobs_per_flush", "count"),
        ("scheduler.batch_ms_p50", "ms"),
        ("scheduler.busy_refusals", "count"),
        ("scheduler.deadline_expired", "count"),
        ("edge.ms_p50", "ms"),
        ("protocol.decode_us", "us"),
        ("protocol.encode_us", "us"),
        ("client.late_ms_p99", "ms"),
    ] {
        out.push((name.to_string(), unit));
    }
    out
}

/// Orders a workload's metrics by the declared list, checking names and
/// units; per-layer metrics a workload does not measure read 0.
fn declared(measured: Metrics, traced: bool) -> Metrics {
    let list: Vec<(String, &'static str)> = if traced {
        per_layer()
    } else {
        END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    };
    for (name, _, _) in &measured.0 {
        if !list.iter().any(|(n, _)| n == name) {
            fail(format!("undeclared metric `{name}`"));
        }
    }
    let mut out = Metrics::default();
    for (name, unit) in list {
        match measured.0.iter().find(|m| m.0 == name) {
            Some(&(_, value, u)) if u == unit => out.push(name, value, unit),
            Some(&(_, _, u)) => fail(format!("metric `{name}` measured in {u}, declared {unit}")),
            None if traced => out.push(name, 0.0, unit),
            None => fail(format!("end-to-end metric `{name}` was not measured")),
        }
    }
    out
}

/// What a workload hands back to be printed.
pub struct Outcome {
    /// Operations attempted: batches (offline) or requests (serve).
    pub attempted: u64,
    /// Attempts that errored, were refused, or answered wrongly.
    pub failed: u64,
    pub metrics: Metrics,
    /// Workload-specific entries of the host block.
    pub host: Vec<(&'static str, Json)>,
}

/// The benchmark's command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Set in a measuring process of an untraced offline run: its index.
    pub fork: Option<usize>,
}

const WORKLOADS: [&str; 3] = ["offline-f32-f4", "offline-int8-f4", "serve-lenet-int8"];

fn usage() -> ! {
    eprintln!(
        "usage: wa-perfbench --workload <{}> --seed N --seconds S --trace <0|1>",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        fork: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().unwrap_or_else(|_| usage()),
            "--seconds" => args.seconds = value.parse().unwrap_or_else(|_| usage()),
            "--fork" => args.fork = Some(value.parse().unwrap_or_else(|_| usage())),
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            _ => usage(),
        }
    }
    let valid = WORKLOADS.contains(&args.workload.as_str())
        && args.seconds.is_finite()
        && args.seconds > 0.0
        && (args.fork.is_none() || (args.workload.starts_with("offline") && !args.trace));
    if !valid {
        usage();
    }
    args
}

/// Where the benchmark writes its scratch files and traces: under the
/// cargo target directory of the checkout it runs in.
pub fn out_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target"));
    let dir = target.join("perfbench");
    std::fs::create_dir_all(&dir).unwrap_or_else(|e| fail(format!("creating {dir:?}: {e}")));
    dir
}

/// Aborts the run without a result. It panics rather than exiting, so
/// unwinding stops any server the run started.
pub fn fail(msg: impl std::fmt::Display) -> ! {
    panic!("wa-perfbench: {msg}");
}

fn main() {
    let args = parse_args();
    if let Some(k) = args.fork {
        offline::fork_main(&args, k);
        return;
    }
    let mut tracer = trace::Tracer::new(args.trace);
    let mut outcome = match args.workload.as_str() {
        "offline-f32-f4" => offline::run(offline::Dtype::F32, &args, &mut tracer),
        "offline-int8-f4" => offline::run(offline::Dtype::Int8, &args, &mut tracer),
        _ => serve::run(&args, &mut tracer),
    };
    outcome.metrics = declared(outcome.metrics, args.trace);

    let mut fields = vec![
        ("workload", Json::from(args.workload.as_str())),
        ("seed", Json::from(args.seed as f64)),
        ("seconds", Json::from(args.seconds)),
        ("traced", Json::from(args.trace)),
    ];
    fields.extend(outcome.host);
    let host = host::block(fields);
    for (name, value, unit) in &outcome.metrics.0 {
        println!("{name} {value} {unit}");
    }
    println!(
        "failed_share {} ratio",
        outcome.failed as f64 / outcome.attempted.max(1) as f64
    );
    println!("host {}", host.to_string_compact());
    if args.trace {
        let path = out_dir().join(format!("trace-{}-{}.json", args.workload, args.seed));
        let doc = Json::obj([
            ("host", host),
            ("spans", tracer.to_json()),
            (
                "self_time_ms",
                Json::Obj(
                    tracer
                        .self_time_ms()
                        .into_iter()
                        .map(|(k, v)| (k, Json::from(v)))
                        .collect(),
                ),
            ),
        ]);
        std::fs::write(&path, doc.to_string_compact())
            .unwrap_or_else(|e| fail(format!("writing {path:?}: {e}")));
        eprintln!("wrote {} spans to {}", tracer.len(), path.display());
    }

    let all_finite = outcome.metrics.0.iter().all(|(_, v, _)| v.is_finite());
    let metrics = Json::Obj(
        outcome
            .metrics
            .0
            .iter()
            .map(|(name, value, unit)| {
                (
                    name.clone(),
                    Json::obj([("value", Json::from(*value)), ("unit", Json::from(*unit))]),
                )
            })
            .collect(),
    );
    let result = Json::obj([
        (
            "correct",
            Json::from(outcome.failed == 0 && outcome.attempted > 0 && all_finite),
        ),
        ("attempted", Json::from(outcome.attempted as f64)),
        ("failed", Json::from(outcome.failed as f64)),
        ("metrics", metrics),
    ]);
    println!("{}", result.to_string_compact());
}
