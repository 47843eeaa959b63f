//! The serving workload: the shipped `wa-serve` binary as a child
//! process on loopback HTTP, serving a calibrated int8 LeNet-F2 loaded
//! from its binary container by server-side path, under open-loop
//! traffic on a fixed schedule over two keep-alive connections.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use wa_bench::HttpClient;
use wa_models::{ExecutorConfig, Infer, ZooModel};
use wa_tensor::{Json, SeededRng, Tensor};

use crate::stats::{backlog_grows, max_rate, median, ms, percentile, tail, Rung, Timed};
use crate::trace::Tracer;
use crate::{fail, host, layers, offline, out_dir, Args, Metrics, Outcome};

/// The ladder of offered rates, requests per second, lowest (nominal)
/// first: three below the knee, one far above it.
const RATES: [f64; 4] = [40.0, 70.0, 100.0, 250.0];
/// Shares of the run's seconds each rung gets: the nominal rung over
/// half, so that its slice of each walk (104 requests in a 25 s run) has
/// ten beyond its p90.
const RUNG_SHARES: [f64; 4] = [0.52, 0.14, 0.14, 0.2];
/// Times the ladder is walked in a run; each rung runs a slice per walk.
/// Every metric is computed per walk and reported as the median over the
/// walks, so a host stall that spans fewer than half of them moves none.
const CYCLES: usize = 5;
/// Seconds of traffic at the nominal rate before anything is measured.
const WARMUP_S: f64 = 2.0;
/// The latency limit a request must meet at the tail percentile, from
/// its due time.
const LIMIT_MS: f64 = 60.0;
/// The tail percentile latency is judged and reported at.
const TAIL: f64 = 90.0;
/// Keep-alive connections the generator sends over.
const CONNECTIONS: usize = 2;
/// Samples per request, one chosen per request by the seed.
const SAMPLES: [usize; 3] = [1, 2, 4];
/// Distinct request bodies the schedule draws from, a third of each size.
const POOL: usize = 66;
/// Server set-ups per run; `setup_s` is their median.
const SETUPS: usize = 9;
/// Lateness growth across a rung that counts as a growing backlog.
const BACKLOG_TOLERANCE_MS: f64 = 5.0;
/// The name the model is served under.
const MODEL: &str = "lenet";
/// `wa-serve` runs with its defaults apart from the listen addresses:
/// ephemeral loopback ports, so concurrent checkouts never collide.
const SERVE_FLAGS: [&str; 4] = ["--addr", "127.0.0.1:0", "--http-port", "0"];
const TIMEOUT: Duration = Duration::from_secs(10);

struct Programs {
    serve: PathBuf,
    client: PathBuf,
}

/// Builds the shipped `wa-serve` and `wa-client` binaries of the
/// checkout (a no-op when they are fresh).
fn build_programs() -> Programs {
    let status = Command::new("cargo")
        .args([
            "build",
            "--release",
            "--quiet",
            "-p",
            "wa-serve",
            "--bin",
            "wa-serve",
            "--bin",
            "wa-client",
        ])
        .stdout(Stdio::null())
        .status()
        .unwrap_or_else(|e| fail(format!("running cargo: {e}")));
    if !status.success() {
        fail("building wa-serve failed");
    }
    let release = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target"))
        .join("release");
    Programs {
        serve: release.join("wa-serve"),
        client: release.join("wa-client"),
    }
}

fn run_client(p: &Programs, args: &[&str]) {
    let out = Command::new(&p.client)
        .args(args)
        .output()
        .unwrap_or_else(|e| fail(format!("running wa-client: {e}")));
    if !out.status.success() {
        fail(format!(
            "wa-client {} failed: {}",
            args.join(" "),
            String::from_utf8_lossy(&out.stderr)
        ));
    }
}

/// Mints the calibrated int8 LeNet-F2 checkpoint with `wa-client` and
/// converts it to a binary container; returns the container's absolute
/// path.
fn make_container(p: &Programs, seed: u64, dir: &Path) -> PathBuf {
    let json = dir.join(format!("lenet-{seed}.json"));
    let wack = dir.join(format!("lenet-{seed}.wack"));
    let (json_s, wack_s) = (json.to_string_lossy(), wack.to_string_lossy());
    let seed_s = seed.to_string();
    run_client(
        p,
        &[
            "make-checkpoint",
            &json_s,
            "--arch",
            "lenet",
            "--algo",
            "F2",
            "--quant",
            "INT8",
            "--transform",
            "per-tap",
            "--execution",
            "int8",
            "--seed",
            &seed_s,
        ],
    );
    run_client(p, &["convert", &json_s, &wack_s]);
    std::fs::canonicalize(&wack).unwrap_or_else(|e| fail(format!("resolving {wack:?}: {e}")))
}

/// A running `wa-serve` child; dropping it kills the process and waits
/// for it, so a failing run leaves nothing behind.
struct Server {
    child: Child,
    // held open so the server's stdout never breaks
    _stdout: BufReader<ChildStdout>,
    http: String,
}

impl Server {
    fn spawn(p: &Programs, log: &Path) -> Server {
        let log = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(log)
            .unwrap_or_else(|e| fail(format!("opening {log:?}: {e}")));
        let mut child = Command::new(&p.serve)
            .args(SERVE_FLAGS)
            .stdout(Stdio::piped())
            .stderr(log)
            .spawn()
            .unwrap_or_else(|e| fail(format!("spawning wa-serve: {e}")));
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let http = loop {
            line.clear();
            if stdout.read_line(&mut line).unwrap_or(0) == 0 {
                let _ = child.kill();
                let _ = child.wait();
                fail("wa-serve exited before listening");
            }
            if let Some(addr) = line.trim().strip_prefix("wa-serve http listening on ") {
                break addr.to_string();
            }
        };
        Server {
            child,
            _stdout: stdout,
            http,
        }
    }

    fn connect(&self) -> HttpClient {
        HttpClient::connect(self.http.as_str(), Some(TIMEOUT))
            .unwrap_or_else(|e| fail(format!("connecting to {}: {e}", self.http)))
    }

    fn post(&self, path: &str, body: &str) -> Json {
        let reply = self
            .connect()
            .post(path, body)
            .unwrap_or_else(|e| fail(format!("POST {path}: {e}")));
        if reply.status != 200 {
            fail(format!("POST {path}: {} {}", reply.status, reply.body));
        }
        Json::parse(&reply.body).unwrap_or_else(|e| fail(format!("POST {path}: {e}")))
    }

    /// The `/v1/metrics` exposition as `series → value`.
    fn scrape(&self) -> BTreeMap<String, f64> {
        let reply = self
            .connect()
            .get("/v1/metrics")
            .unwrap_or_else(|e| fail(format!("GET /v1/metrics: {e}")));
        reply
            .body
            .lines()
            .filter(|l| !l.starts_with('#'))
            .filter_map(|l| {
                let (series, value) = l.rsplit_once(' ')?;
                Some((series.to_string(), value.parse().ok()?))
            })
            .collect()
    }

    fn pid(&self) -> String {
        self.child.id().to_string()
    }

    /// Shuts the server down over HTTP and waits for it to exit.
    fn stop(mut self) {
        let _ = self.connect().post("/v1/shutdown", "{}");
        let t0 = Instant::now();
        while self.child.try_wait().ok().flatten().is_none() {
            if t0.elapsed() > TIMEOUT {
                let _ = self.child.kill();
                let _ = self.child.wait();
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if self.child.try_wait().ok().flatten().is_none() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// One request body of the pool, with the in-process answer it must get.
struct Body {
    json: String,
    input: Tensor,
    expected: Tensor,
}

/// Whether a reply is ok and its output bit-equal to `expected`.
fn answer_is_correct(status: u16, body: &str, expected: &Tensor) -> bool {
    let Ok(doc) = Json::parse(body) else {
        return false;
    };
    if status != 200 || doc.get("ok") != Some(&Json::Bool(true)) {
        return false;
    }
    let Some(Ok(out)) = doc.get("output").map(Tensor::from_json) else {
        return false;
    };
    out.shape() == expected.shape()
        && out
            .data()
            .iter()
            .zip(expected.data())
            .all(|(a, b)| a.to_bits() == b.to_bits())
}

/// What a rung of traffic left behind.
#[derive(Default)]
struct Step {
    timed: Vec<Timed>,
    /// Answers that errored, were refused, failed in transport, or were
    /// wrong.
    failed: u64,
    /// Requests never sent: a quarter of their budget gone before a
    /// connection was free.
    shed: u64,
    samples_good: u64,
    /// From the first due time to the last answer.
    wall_s: f64,
    /// Slices of this rung whose backlog grew.
    backlogged_slices: usize,
    slices: usize,
}

impl Step {
    /// Adds one slice of the same rung.
    fn absorb(&mut self, slice: Step) {
        self.backlogged_slices += backlog_grows(&slice.timed, BACKLOG_TOLERANCE_MS) as usize;
        self.slices += 1;
        self.timed.extend(slice.timed);
        self.failed += slice.failed;
        self.shed += slice.shed;
        self.samples_good += slice.samples_good;
        self.wall_s += slice.wall_s;
    }
}

/// One sent or shed request: its schedule index, its timing, and the
/// reply's status and body — `None` when it was shed, status 0 when the
/// exchange failed in transport.
type Row = (usize, Timed, Option<(u16, String)>);

/// Sends `schedule` (pool indices) at `rate` on a fixed schedule: request
/// `i` is due at `start + i/rate` and goes out on whichever connection is
/// free. A request that has already used a quarter of its latency budget
/// waiting for a connection is not sent and counts as missing the limit,
/// so an overloaded rung sheds load instead of queueing without bound,
/// and what it does send still has the time to make the limit.
fn run_step(server: &Server, pool: &[Body], schedule: &[usize], rate: f64) -> Step {
    let next = AtomicUsize::new(0);
    let start = Instant::now() + Duration::from_millis(20);
    let limit = Duration::from_secs_f64(LIMIT_MS / 1e3);
    let mut rows: Vec<Row> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..CONNECTIONS)
            .map(|_| {
                let next = &next;
                s.spawn(move || {
                    let mut http = HttpClient::connect(server.http.as_str(), Some(TIMEOUT)).ok();
                    let mut rows = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= schedule.len() {
                            return rows;
                        }
                        let due = start + Duration::from_secs_f64(i as f64 / rate);
                        if let Some(wait) = due.checked_duration_since(Instant::now()) {
                            std::thread::sleep(wait);
                        }
                        let mut t = Timed {
                            due,
                            sent: None,
                            done: None,
                            good: false,
                        };
                        if Instant::now().saturating_duration_since(due) > limit / 4 {
                            rows.push((i, t, None));
                            continue;
                        }
                        if http.is_none() {
                            http = HttpClient::connect(server.http.as_str(), Some(TIMEOUT)).ok();
                        }
                        t.sent = Some(Instant::now());
                        let reply = http
                            .as_mut()
                            .and_then(|c| c.post("/v1/infer", &pool[schedule[i]].json).ok());
                        t.done = Some(Instant::now());
                        if reply.is_none() {
                            http = None; // reconnect for the next request
                        }
                        rows.push((
                            i,
                            t,
                            Some(
                                reply
                                    .map(|r| (r.status, r.body))
                                    .unwrap_or((0, String::new())),
                            ),
                        ));
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("a load thread panicked"))
            .collect()
    });
    rows.sort_by_key(|r| r.0);
    let mut step = Step {
        timed: Vec::with_capacity(rows.len()),
        ..Step::default()
    };
    let mut last = start;
    for (i, mut t, reply) in rows {
        match reply {
            None => step.shed += 1,
            Some((status, body)) => {
                let b = &pool[schedule[i]];
                t.good = answer_is_correct(status, &body, &b.expected);
                if t.good {
                    step.samples_good += b.input.dim(0) as u64;
                } else {
                    step.failed += 1;
                }
            }
        }
        if let Some(d) = t.done {
            last = last.max(d);
        }
        step.timed.push(t);
    }
    step.wall_s = (last - start).as_secs_f64();
    step
}

/// Requests of a step answered correctly within the limit.
fn in_limit(step: &Step) -> f64 {
    step.timed
        .iter()
        .filter(|t| t.latency_ms() <= LIMIT_MS)
        .count() as f64
}

/// Latencies (ms, from the due time) of a step.
fn latencies(step: &Step) -> Vec<f64> {
    step.timed.iter().map(Timed::latency_ms).collect()
}

/// A histogram's quantile over the window between two scrapes, in the
/// histogram's unit, from its cumulative `le` buckets.
fn window_quantile(
    before: &BTreeMap<String, f64>,
    after: &BTreeMap<String, f64>,
    name: &str,
    q: f64,
) -> f64 {
    let prefix = format!("{name}_bucket{{le=\"");
    let buckets = |m: &BTreeMap<String, f64>| -> Vec<(f64, f64)> {
        let mut v: Vec<(f64, f64)> = m
            .iter()
            .filter_map(|(k, &c)| {
                let le = k.strip_prefix(&prefix)?.strip_suffix("\"}")?;
                let le = if le == "+Inf" {
                    f64::INFINITY
                } else {
                    le.parse().ok()?
                };
                Some((le, c))
            })
            .collect();
        v.sort_by(|a, b| a.0.total_cmp(&b.0));
        v
    };
    let (b0, b1) = (buckets(before), buckets(after));
    // cumulative count at or below `le` in a scrape (buckets that were
    // empty then are absent, so take the nearest edge below)
    let cum_at = |b: &[(f64, f64)], le: f64| {
        b.iter()
            .take_while(|(e, _)| *e <= le)
            .last()
            .map_or(0.0, |&(_, c)| c)
    };
    let total = cum_at(&b1, f64::INFINITY) - cum_at(&b0, f64::INFINITY);
    if total <= 0.0 {
        return 0.0;
    }
    b1.iter()
        .find(|&&(le, c)| c - cum_at(&b0, le) >= q * total)
        .map_or(0.0, |&(le, _)| le)
}

fn counter_delta(before: &BTreeMap<String, f64>, after: &BTreeMap<String, f64>, key: &str) -> f64 {
    after.get(key).copied().unwrap_or(0.0) - before.get(key).copied().unwrap_or(0.0)
}

/// The server's stage histograms as `(count, sum µs)` per stage.
fn remote_stage_totals(scrape: &BTreeMap<String, f64>) -> layers::StageTotals {
    layers::STAGES
        .iter()
        .chain(std::iter::once(&"executor.run"))
        .map(|&s| {
            let get = |suffix: &str| {
                scrape
                    .get(&format!(
                        "wa_stage_duration_microseconds_{suffix}{{stage=\"{s}\"}}"
                    ))
                    .copied()
                    .unwrap_or(0.0) as u64
            };
            (s.to_string(), (get("count"), get("sum")))
        })
        .collect()
}

/// Mean µs per body of decoding a request (`Json::parse` +
/// `Tensor::from_json`) and of encoding its answer (`to_json` + the
/// response document), on the workload's own bodies.
fn protocol_costs(pool: &[Body], tracer: &mut Tracer) -> (f64, f64) {
    const ROUNDS: usize = 20;
    let t0 = Instant::now();
    for _ in 0..ROUNDS {
        for b in pool {
            let doc = Json::parse(&b.json).expect("pool bodies are valid JSON");
            let input = doc.get("input").map(Tensor::from_json);
            std::hint::black_box(input);
        }
    }
    let t1 = Instant::now();
    for _ in 0..ROUNDS {
        for b in pool {
            let doc = Json::obj([
                ("ok", Json::from(true)),
                ("model", Json::from(MODEL)),
                ("samples", Json::from(b.input.dim(0))),
                ("trace_id", Json::from("00000000deadbeef")),
                ("output", b.expected.to_json()),
            ]);
            std::hint::black_box(doc.to_string_compact());
        }
    }
    let t2 = Instant::now();
    tracer.record("protocol.decode", None, t0, t1);
    tracer.record("protocol.encode", None, t1, t2);
    let per = (ROUNDS * pool.len()) as f64;
    (
        (t1 - t0).as_secs_f64() * 1e6 / per,
        (t2 - t1).as_secs_f64() * 1e6 / per,
    )
}

/// One server set-up, from spawn to the first correct answer.
struct Setup {
    server: Server,
    total_s: f64,
    load_ms: f64,
    resident_mb: f64,
    first_answer_ms: f64,
}

fn set_up(p: &Programs, container: &Path, first: &Body, log: &Path, tracer: &mut Tracer) -> Setup {
    let t0 = Instant::now();
    let server = Server::spawn(p, log);
    let t1 = Instant::now();
    let load = server.post(
        "/v1/models/load",
        &Json::obj([
            ("name", Json::from(MODEL)),
            (
                "checkpoint",
                Json::from(container.to_string_lossy().as_ref()),
            ),
        ])
        .to_string_compact(),
    );
    let t2 = Instant::now();
    let reply = server
        .connect()
        .post("/v1/infer", &first.json)
        .unwrap_or_else(|e| fail(format!("first infer: {e}")));
    let t3 = Instant::now();
    if !answer_is_correct(reply.status, &reply.body, &first.expected) {
        fail(format!("the first answer is wrong: {}", reply.body));
    }
    let root = tracer.record("setup", None, t0, t3);
    tracer.record("setup.spawn", root, t0, t1);
    tracer.record("setup.load", root, t1, t2);
    tracer.record("setup.first_answer", root, t2, t3);
    let field = |k: &str| load.get(k).and_then(Json::as_f64).unwrap_or(f64::NAN);
    Setup {
        server,
        total_s: (t3 - t0).as_secs_f64(),
        load_ms: field("load_micros") / 1e3,
        resident_mb: field("resident_bytes") / (1u64 << 20) as f64,
        first_answer_ms: ms(t3 - t2),
    }
}

/// Seeded request mix: `n` pool indices, each request size a third of
/// them, in seeded order.
fn schedule(rng: &mut SeededRng, n: usize) -> Vec<usize> {
    let mut s: Vec<usize> = (0..n)
        .map(|k| k % SAMPLES.len() + SAMPLES.len() * rng.below(POOL / SAMPLES.len()))
        .collect();
    rng.shuffle(&mut s);
    s
}

/// Records a step's requests as spans: each request a root, with the
/// generator's lateness and the exchange as children.
fn trace_step(tracer: &mut Tracer, step: &Step) {
    for t in &step.timed {
        let end = t.done.or(t.sent).unwrap_or(t.due);
        let root = tracer.record("request", None, t.due, end);
        if let Some(sent) = t.sent {
            tracer.record("client.late", root, t.due, sent);
            tracer.record("client.exchange", root, sent, end);
        }
    }
}

pub fn run(args: &Args, tracer: &mut Tracer) -> Outcome {
    // the server's executor: flushes of a few samples run as one chunk
    let cfg = ExecutorConfig::default();
    let (workers, cap) = offline::effective_threads(cfg, SAMPLES[SAMPLES.len() - 1]);
    let programs = build_programs();
    let dir = out_dir();
    let log = dir.join(format!("wa-serve-{}.log", args.seed));
    let _ = std::fs::remove_file(&log);
    let container = make_container(&programs, args.seed, &dir);

    // the in-process reference: the same container, decoded here
    let bytes = std::fs::read(&container).unwrap_or_else(|e| fail(format!("{container:?}: {e}")));
    let (mut decode_ms, mut build_ms) = (Vec::new(), Vec::new());
    let mut model = None;
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        let doc = wa_nn::read_checkpoint(&bytes).unwrap_or_else(|e| fail(e));
        let t1 = Instant::now();
        model = Some(ZooModel::from_full_checkpoint(&doc).unwrap_or_else(|e| fail(e)));
        decode_ms.push(ms(t1 - t0));
        build_ms.push(ms(t1.elapsed()));
    }
    let model = model.expect("SETUPS > 0");
    let [c, h, w] = model.sample_shape();
    let mut rng = SeededRng::new(args.seed).fork(4);
    let pool: Vec<Body> = (0..POOL)
        .map(|j| {
            let n = SAMPLES[j % SAMPLES.len()];
            let input = rng.uniform_tensor(&[n, c, h, w], -1.0, 1.0);
            let expected = model.infer_tensor(&input).unwrap_or_else(|e| fail(e));
            let json = Json::obj([("model", Json::from(MODEL)), ("input", input.to_json())])
                .to_string_compact();
            Body {
                json,
                input,
                expected,
            }
        })
        .collect();

    let mut totals = Vec::new();
    let mut loads = Vec::new();
    let mut residents = Vec::new();
    let mut firsts = Vec::new();
    let mut server = None;
    for _ in 0..SETUPS {
        if let Some(s) = server.take() {
            Server::stop(s);
        }
        let s = set_up(&programs, &container, &pool[0], &log, tracer);
        totals.push(s.total_s);
        loads.push(s.load_ms);
        residents.push(s.resident_mb);
        firsts.push(s.first_answer_ms);
        server = Some(s.server);
    }
    let server = server.expect("SETUPS > 0");

    let mut metrics = Metrics::default();
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut shed = 0u64;
    let mut count = |step: &Step| {
        attempted += step.timed.len() as u64;
        failed += step.failed;
        shed += step.shed;
    };
    // warm the server up at the nominal rate; not measured
    let warm_n = (WARMUP_S * RATES[0]).ceil() as usize;
    count(&run_step(
        &server,
        &pool,
        &schedule(&mut rng, warm_n),
        RATES[0],
    ));
    if !args.trace {
        // the rungs take turns in short slices, so each sees the whole
        // run's share of the host's noise
        let mut walks: Vec<Vec<Step>> = Vec::new();
        let mut peak_mb = Vec::new();
        for _ in 0..CYCLES {
            let mut walk = Vec::new();
            for (rate, share) in RATES.into_iter().zip(RUNG_SHARES) {
                let n = (args.seconds * share * rate / CYCLES as f64).ceil() as usize;
                host::reset_peak_rss(&server.pid());
                walk.push(run_step(&server, &pool, &schedule(&mut rng, n), rate));
                peak_mb.extend(host::peak_rss_mb(&server.pid()));
            }
            walks.push(walk);
        }
        // what each walk up the ladder measured
        let mut per_walk: [Vec<f64>; 5] = Default::default();
        let mut tail_used = TAIL;
        for walk in &walks {
            let nominal = latencies(&walk[0]);
            let rungs: Vec<Rung> = RATES
                .into_iter()
                .zip(walk)
                .map(|(rate, step)| Rung {
                    rate,
                    attained: in_limit(step) / step.timed.len() as f64,
                    backlog: backlog_grows(&step.timed, BACKLOG_TOLERANCE_MS),
                })
                .collect();
            let top = walk.last().expect("RATES is not empty");
            per_walk[0].push(top.samples_good as f64 / top.wall_s);
            per_walk[1].push(median(&nominal));
            let (p, tail_ms) = tail(&nominal, TAIL);
            tail_used = tail_used.min(p);
            per_walk[2].push(tail_ms);
            per_walk[3].push(max_rate(&rungs, TAIL / 100.0));
            per_walk[4].push(in_limit(top) / top.wall_s);
        }
        // the same requests per rung over the whole run, for the log
        let mut steps: Vec<Step> = RATES.iter().map(|_| Step::default()).collect();
        for walk in walks {
            for (step, slice) in steps.iter_mut().zip(walk) {
                step.absorb(slice);
            }
        }
        for (rate, step) in RATES.into_iter().zip(&steps) {
            let lat = latencies(step);
            let (p, tail_ms) = tail(&lat, TAIL);
            let late: Vec<f64> = step.timed.iter().filter_map(Timed::late_ms).collect();
            eprintln!(
                "rung {rate} req/s: {} requests, p50 {:.3} ms, p{p} {tail_ms:.3} ms, \
                 {:.2}% within {LIMIT_MS} ms, late p{p} {:.3} ms, {} failed, {} shed, \
                 backlog grew in {}/{} slices",
                lat.len(),
                median(&lat),
                100.0 * in_limit(step) / lat.len() as f64,
                percentile(&late, p),
                step.failed,
                step.shed,
                step.backlogged_slices,
                step.slices,
            );
            count(step);
        }
        if tail_used != TAIL {
            eprintln!(
                "latency_p90_ms reports p{tail_used}: too few requests per walk for a p{TAIL}"
            );
        }
        let names = [
            ("samples_per_s", "1/s"),
            ("latency_p50_ms", "ms"),
            ("latency_p90_ms", "ms"),
            ("max_rate_rps", "1/s"),
            ("goodput_rps", "1/s"),
        ];
        for ((name, unit), values) in names.into_iter().zip(&per_walk) {
            crate::stats::report_spread(&format!("{name} per walk"), values);
            metrics.push(name, median(values), unit);
        }
        metrics.push("setup_s", median(&totals), "s");
        metrics.push("peak_rss_mb", median(&peak_mb), "MB");
        server.stop();
    } else {
        // an untraced and a traced window at the nominal rate; the
        // per-layer numbers come from the traced one
        let rate = RATES[0];
        let n = (args.seconds / 2.0 * rate).ceil() as usize;
        tracer.set_enabled(false);
        let m0 = server.scrape();
        let plain = run_step(&server, &pool, &schedule(&mut rng, n), rate);
        let m1 = server.scrape();
        tracer.set_enabled(true);
        let traced = run_step(&server, &pool, &schedule(&mut rng, n), rate);
        let m2 = server.scrape();
        trace_step(tracer, &traced);
        count(&plain);
        count(&traced);

        metrics.push("setup.decode_ms", median(&decode_ms), "ms");
        metrics.push("setup.build_ms", median(&build_ms), "ms");
        metrics.push("setup.first_batch_ms", median(&firsts), "ms");
        metrics.push("registry.load_ms", median(&loads), "ms");
        metrics.push("registry.resident_mb", median(&residents), "MB");
        let mut untraced = Metrics::default();
        let (r0, r1, r2) = (
            remote_stage_totals(&m0),
            remote_stage_totals(&m1),
            remote_stage_totals(&m2),
        );
        layers::stage_metrics(&r0, &r1, plain.timed.len() as f64, &mut untraced);
        layers::stage_metrics(&r1, &r2, traced.timed.len() as f64, &mut metrics);
        let run_ms = |m: &Metrics| m.get("executor.run_ms").unwrap_or(f64::NAN);
        metrics.push(
            "executor.trace_overhead_ms",
            run_ms(&metrics) - run_ms(&untraced),
            "ms",
        );
        let delta = |key: &str| counter_delta(&m1, &m2, key);
        metrics.push(
            "executor.chunks_per_run",
            delta("wa_executor_chunks_total") / delta("wa_executor_runs_total"),
            "count",
        );
        let quantile_ms = |name: &str, q: f64| window_quantile(&m1, &m2, name, q) / 1e3;
        let queue_p50 = quantile_ms("wa_scheduler_queue_wait_microseconds", 0.5);
        let batch_p50 = quantile_ms("wa_scheduler_batch_duration_microseconds", 0.5);
        metrics.push("scheduler.queue_wait_ms_p50", queue_p50, "ms");
        // both halves, for a p99 with enough samples beyond it
        metrics.push(
            "scheduler.queue_wait_ms_p99",
            window_quantile(&m0, &m2, "wa_scheduler_queue_wait_microseconds", 0.99) / 1e3,
            "ms",
        );
        metrics.push(
            "scheduler.jobs_per_flush",
            delta("wa_scheduler_jobs_total") / delta("wa_scheduler_batches_total"),
            "count",
        );
        metrics.push("scheduler.batch_ms_p50", batch_p50, "ms");
        metrics.push(
            "scheduler.busy_refusals",
            delta("wa_scheduler_busy_refusals_total"),
            "count",
        );
        metrics.push(
            "scheduler.deadline_expired",
            delta("wa_scheduler_deadline_expired_total"),
            "count",
        );
        let service: Vec<f64> = traced.timed.iter().filter_map(Timed::service_ms).collect();
        metrics.push(
            "edge.ms_p50",
            median(&service) - queue_p50 - batch_p50,
            "ms",
        );
        let (decode_us, encode_us) = protocol_costs(&pool, tracer);
        metrics.push("protocol.decode_us", decode_us, "us");
        metrics.push("protocol.encode_us", encode_us, "us");
        let late: Vec<f64> = plain
            .timed
            .iter()
            .chain(&traced.timed)
            .filter_map(Timed::late_ms)
            .collect();
        metrics.push("client.late_ms_p99", tail(&late, 99.0).1, "ms");
        let mut table_rng = SeededRng::new(args.seed).fork(3);
        let quant = offline::Dtype::Int8.quant();
        layers::conv_table(quant, cap, &mut table_rng, tracer, &mut metrics);
        layers::kernel_table(cap, &mut table_rng, tracer, &mut metrics);
        server.stop();
    }

    Outcome {
        attempted,
        failed,
        metrics,
        host: vec![
            (
                "wa_serve",
                Json::obj([
                    ("flags", Json::from(SERVE_FLAGS.join(" "))),
                    (
                        "log_threshold",
                        Json::from(
                            std::env::var("WA_LOG").unwrap_or_else(|_| "info (default)".into()),
                        ),
                    ),
                    ("executor_threads", Json::from(cfg.threads)),
                    ("executor_chunk", Json::from(cfg.chunk)),
                    ("effective_workers_per_small_flush", Json::from(workers)),
                    ("gemm_thread_cap", Json::from(cap)),
                ]),
            ),
            (
                "load",
                Json::obj([
                    ("connections", Json::from(CONNECTIONS)),
                    ("rates_rps", Json::from(RATES.to_vec())),
                    ("limit_ms", Json::from(LIMIT_MS)),
                    ("samples_per_request", Json::from(SAMPLES.to_vec())),
                    ("shed", Json::from(shed as f64)),
                ]),
            ),
        ],
    }
}
