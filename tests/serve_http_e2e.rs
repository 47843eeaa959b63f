//! End-to-end HTTP serving: boot a real server with both front-ends on
//! ephemeral ports and assert that the HTTP edge is a *view* of the
//! same service — logits bit-identical to in-process
//! `try_forward_batch` **and** to the socket path, error kinds mapped
//! onto HTTP statuses, deadlines enforced, admission control refusing
//! before batching, and graceful drain answering everything accepted.

use std::net::SocketAddr;
use std::time::Duration;

use winograd_aware::bench::HttpClient;
use winograd_aware::models::{ExecutorConfig, Infer, ModelKind, ModelSpec, ZooModel};
use winograd_aware::serve::{
    Client, ClientError, SchedulerConfig, Server, ServerConfig, ServerHandle,
};
use winograd_aware::tensor::{Json, SeededRng, Tensor};

/// The executor sharding used on both sides of every comparison.
const EXEC: ExecutorConfig = ExecutorConfig {
    threads: 2,
    chunk: 2,
};

/// Boots a server with socket + HTTP listeners on ephemeral ports.
fn boot_http(
    cfg: ServerConfig,
) -> (
    SocketAddr,
    SocketAddr,
    ServerHandle,
    std::thread::JoinHandle<()>,
) {
    // the suites log at warn (real problems only) unless WA_LOG says otherwise
    winograd_aware::obs::set_default_max_level(winograd_aware::obs::Level::Warn);
    let server =
        Server::bind_with_http("127.0.0.1:0", "127.0.0.1:0", cfg).expect("binding ephemeral ports");
    let addr = server.local_addr();
    let http = server.http_addr().expect("an HTTP listener was requested");
    let handle = server.handle();
    let join = std::thread::spawn(move || {
        server.run().expect("server run failed");
    });
    (addr, http, handle, join)
}

fn quick_batching() -> SchedulerConfig {
    SchedulerConfig {
        max_batch: 16,
        max_delay: Duration::from_millis(1),
        exec: EXEC,
        ..SchedulerConfig::default()
    }
}

/// A small LeNet and its one-document checkpoint.
fn lenet(seed: u64) -> (ZooModel, Json) {
    let spec = ModelSpec::builder()
        .classes(10)
        .input_size(12)
        .build()
        .expect("static spec");
    let mut rng = SeededRng::new(seed);
    let mut model = ZooModel::from_spec(ModelKind::LeNet, &spec, &mut rng).expect("static spec");
    let ckpt = model.to_full_checkpoint().expect("export").to_json();
    (model, ckpt)
}

/// `POST /v1/models/load` with a checkpoint document.
fn http_load(http: &mut HttpClient, name: &str, ckpt: &Json) {
    let body =
        Json::obj([("name", Json::from(name)), ("checkpoint", ckpt.clone())]).to_string_compact();
    let reply = http.post("/v1/models/load", &body).expect("POST load");
    assert_eq!(reply.status, 200, "load failed: {}", reply.body);
}

/// The error kind of a structured `{ok: false}` body.
fn error_kind(body: &str) -> String {
    Json::parse(body)
        .expect("responses are JSON")
        .get("error")
        .and_then(|e| e.get("kind"))
        .and_then(|k| k.as_str())
        .expect("error bodies carry a kind")
        .to_string()
}

#[test]
fn http_logits_bit_identical_to_in_process_and_to_the_socket_path() {
    let (addr, http_addr, _handle, join) = boot_http(ServerConfig {
        scheduler: quick_batching(),
        ..ServerConfig::default()
    });
    let (model, ckpt) = lenet(41);
    let mut http = HttpClient::connect(http_addr, None).expect("http connect");
    http_load(&mut http, "mnist", &ckpt);

    let [c, h, w] = model.sample_shape();
    let mut rng = SeededRng::new(42);
    let batch = rng.uniform_tensor(&[3, c, h, w], -1.0, 1.0);
    let want = model
        .try_forward_batch(&batch, EXEC)
        .expect("in-process batched forward");

    // the HTTP edge and the socket edge answer over the same scheduler:
    // all three outputs must agree to the bit
    let body =
        Json::obj([("model", Json::from("mnist")), ("input", batch.to_json())]).to_string_compact();
    let reply = http.post("/v1/infer", &body).expect("POST infer");
    assert_eq!(reply.status, 200, "infer failed: {}", reply.body);
    let doc = Json::parse(&reply.body).expect("infer body is JSON");
    let via_http = Tensor::from_json(doc.get("output").expect("infer responses carry `output`"))
        .expect("output parses as a tensor");
    assert_eq!(via_http.shape(), want.shape());
    assert_eq!(
        via_http.data(),
        want.data(),
        "HTTP logits must be bit-identical to try_forward_batch"
    );

    let mut socket = Client::connect(addr).expect("socket connect");
    let via_socket = socket.infer("mnist", &batch).expect("socket inference");
    assert_eq!(
        via_socket.data(),
        via_http.data(),
        "the socket and HTTP edges must agree to the bit"
    );

    // both edges see the same registry
    let listed = http.get("/v1/models").expect("GET models");
    assert_eq!(listed.status, 200);
    let names = Json::parse(&listed.body).expect("JSON");
    assert_eq!(
        names
            .get("models")
            .and_then(|m| m.as_arr())
            .map(<[Json]>::len),
        Some(1)
    );

    let reply = http.post("/v1/shutdown", "").expect("POST shutdown");
    assert_eq!(reply.status, 200);
    join.join().expect("server thread");
}

#[test]
fn http_error_paths_map_onto_statuses() {
    let (_addr, http_addr, handle, join) = boot_http(ServerConfig {
        max_frame: 2048,
        scheduler: quick_batching(),
        ..ServerConfig::default()
    });
    let mut http = HttpClient::connect(http_addr, None).expect("http connect");

    // unknown path → 404; the message names the endpoints
    let reply = http.post("/v2/does-not-exist", "{}").expect("POST");
    assert_eq!(reply.status, 404);
    assert_eq!(error_kind(&reply.body), "bad_request");

    // wrong method on a known path → 405
    let reply = http.get("/v1/infer").expect("GET infer");
    assert_eq!(reply.status, 405);
    let reply = http.post("/v1/models", "{}").expect("POST models");
    assert_eq!(reply.status, 405);

    // malformed JSON body → 400 bad_frame (connection keeps serving)
    let reply = http.post("/v1/infer", "{not json").expect("POST bad json");
    assert_eq!(reply.status, 400);
    assert_eq!(error_kind(&reply.body), "bad_frame");

    // a valid request for an absent model → 404 unknown_model
    let body = Json::obj([
        ("model", Json::from("ghost")),
        ("input", Json::arr([Json::from(1.0)])),
    ])
    .to_string_compact();
    let reply = http.post("/v1/infer", &body).expect("POST ghost");
    assert_eq!(reply.status, 400, "bad input tensor shape reports first");

    // an oversized body → 413, and that connection closes (the body was
    // never read, so the stream cannot be trusted afterwards)
    let huge = "x".repeat(4096);
    let reply = http.post("/v1/infer", &huge).expect("POST oversized");
    assert_eq!(reply.status, 413);
    assert_eq!(error_kind(&reply.body), "bad_frame");
    assert!(
        http.get("/v1/stats").is_err(),
        "the connection must close after an unread oversized body"
    );

    // a fresh connection still serves
    let mut http = HttpClient::connect(http_addr, None).expect("reconnect");
    let reply = http.get("/v1/stats").expect("GET stats");
    assert_eq!(reply.status, 200);

    handle.shutdown();
    join.join().expect("server thread");
}

#[test]
fn deadline_zero_is_answered_with_504_and_never_executed() {
    let (_addr, http_addr, handle, join) = boot_http(ServerConfig {
        scheduler: quick_batching(),
        ..ServerConfig::default()
    });
    let (model, ckpt) = lenet(43);
    let mut http = HttpClient::connect(http_addr, None).expect("http connect");
    http_load(&mut http, "mnist", &ckpt);

    let [c, h, w] = model.sample_shape();
    let mut rng = SeededRng::new(44);
    let input = rng.uniform_tensor(&[1, c, h, w], -1.0, 1.0);
    let body = Json::obj([
        ("model", Json::from("mnist")),
        ("input", input.to_json()),
        ("deadline_ms", Json::from(0.0)),
    ])
    .to_string_compact();
    let reply = http.post("/v1/infer", &body).expect("POST infer");
    assert_eq!(reply.status, 504, "an already-expired budget is a 504");
    assert_eq!(error_kind(&reply.body), "deadline_exceeded");

    // the drop shows up in the stats, and nothing was executed for it
    let stats = http.get("/v1/stats").expect("GET stats");
    let doc = Json::parse(&stats.body).expect("JSON");
    let mnist = doc
        .get("models")
        .and_then(|m| m.as_arr())
        .and_then(|a| a.first())
        .and_then(|row| row.get("stats"))
        .expect("one model stats row");
    assert_eq!(
        mnist.get("deadline_expired").and_then(Json::as_f64),
        Some(1.0)
    );
    assert_eq!(mnist.get("batches").and_then(Json::as_f64), Some(0.0));

    handle.shutdown();
    join.join().expect("server thread");
}

#[test]
fn admission_cap_refuses_with_429_before_batching() {
    // a long batching window keeps the first request queued while the
    // second arrives, so the cap (not the executor) is what answers
    let (addr, http_addr, _handle, join) = boot_http(ServerConfig {
        scheduler: SchedulerConfig {
            max_batch: 64,
            max_delay: Duration::from_millis(400),
            max_queue: 4,
            exec: EXEC,
            ..SchedulerConfig::default()
        },
        ..ServerConfig::default()
    });
    let (model, ckpt) = lenet(45);
    let mut http = HttpClient::connect(http_addr, None).expect("http connect");
    http_load(&mut http, "mnist", &ckpt);

    let [c, h, w] = model.sample_shape();
    let mut rng = SeededRng::new(46);
    let filler = rng.uniform_tensor(&[4, c, h, w], -1.0, 1.0);
    let one = rng.uniform_tensor(&[1, c, h, w], -1.0, 1.0);

    // fill the queue from a socket client on its own thread…
    let fill = std::thread::spawn(move || {
        let mut socket = Client::connect(addr).expect("socket connect");
        socket
            .infer("mnist", &filler)
            .expect("the filler batch runs")
    });
    std::thread::sleep(Duration::from_millis(100));

    // …then the HTTP request over the cap is refused, before batching
    let body =
        Json::obj([("model", Json::from("mnist")), ("input", one.to_json())]).to_string_compact();
    let reply = http.post("/v1/infer", &body).expect("POST infer");
    assert_eq!(reply.status, 429);
    assert_eq!(error_kind(&reply.body), "busy");

    let stats = http.get("/v1/stats").expect("GET stats");
    let doc = Json::parse(&stats.body).expect("JSON");
    let mnist = doc
        .get("models")
        .and_then(|m| m.as_arr())
        .and_then(|a| a.first())
        .and_then(|row| row.get("stats"))
        .expect("one model stats row");
    assert_eq!(mnist.get("rejected_busy").and_then(Json::as_f64), Some(1.0));

    // the refused request never displaced the accepted one
    let logits = fill.join().expect("filler thread");
    assert_eq!(logits.shape(), &[4, 10]);

    let reply = http.post("/v1/shutdown", "").expect("POST shutdown");
    assert_eq!(reply.status, 200);
    join.join().expect("server thread");
}

#[test]
fn graceful_drain_answers_every_accepted_request() {
    // requests sit in a wide batching window when shutdown lands; every
    // one of them must still be answered — with logits (flushed by the
    // drain) or a structured error — never a dead connection
    let (addr, http_addr, _handle, join) = boot_http(ServerConfig {
        scheduler: SchedulerConfig {
            max_batch: 64,
            max_delay: Duration::from_millis(300),
            exec: EXEC,
            ..SchedulerConfig::default()
        },
        ..ServerConfig::default()
    });
    let (model, ckpt) = lenet(47);
    let mut http = HttpClient::connect(http_addr, None).expect("http connect");
    http_load(&mut http, "mnist", &ckpt);

    let [c, h, w] = model.sample_shape();
    let workers: Vec<_> = (0..6)
        .map(|i| {
            std::thread::spawn(move || {
                let mut rng = SeededRng::new(100 + i);
                let input = rng.uniform_tensor(&[1, c, h, w], -1.0, 1.0);
                let mut socket = Client::connect(addr).expect("socket connect");
                socket.infer("mnist", &input)
            })
        })
        .collect();
    std::thread::sleep(Duration::from_millis(100)); // let them queue

    let reply = http.post("/v1/shutdown", "").expect("POST shutdown");
    assert_eq!(reply.status, 200);
    join.join().expect("server thread");

    for worker in workers {
        match worker.join().expect("client thread") {
            Ok(logits) => assert_eq!(logits.shape(), &[1, 10]),
            Err(ClientError::Server { kind, .. }) => {
                assert!(
                    kind == "shutting_down" || kind == "deadline_exceeded",
                    "unexpected structured error: {kind}"
                );
            }
            Err(other) => panic!("an accepted request died without an answer: {other}"),
        }
    }
}

#[test]
fn stats_report_uptime_and_latency_quantiles() {
    let (_addr, http_addr, handle, join) = boot_http(ServerConfig {
        scheduler: quick_batching(),
        ..ServerConfig::default()
    });
    let (model, ckpt) = lenet(48);
    let mut http = HttpClient::connect(http_addr, None).expect("http connect");
    http_load(&mut http, "mnist", &ckpt);

    let [c, h, w] = model.sample_shape();
    let mut rng = SeededRng::new(49);
    for _ in 0..3 {
        let input = rng.uniform_tensor(&[2, c, h, w], -1.0, 1.0);
        let body = Json::obj([("model", Json::from("mnist")), ("input", input.to_json())])
            .to_string_compact();
        let reply = http.post("/v1/infer", &body).expect("POST infer");
        assert_eq!(reply.status, 200);
    }

    let stats = http.get("/v1/stats").expect("GET stats");
    assert_eq!(stats.status, 200);
    let doc = Json::parse(&stats.body).expect("JSON");
    assert!(doc.get("uptime_ms").and_then(Json::as_f64).unwrap_or(-1.0) >= 0.0);
    assert!(
        doc.get("scheduler")
            .and_then(|s| s.get("max_queue"))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
            > 0.0
    );
    let mnist = doc
        .get("models")
        .and_then(|m| m.as_arr())
        .and_then(|a| a.first())
        .and_then(|row| row.get("stats"))
        .expect("one model stats row");
    let latency = mnist.get("latency").expect("per-model latency block");
    let p50 = latency.get("p50_ms").and_then(Json::as_f64).expect("p50");
    let p99 = latency.get("p99_ms").and_then(Json::as_f64).expect("p99");
    assert!(p50 > 0.0 && p99 >= p50, "p50 {p50}ms, p99 {p99}ms");

    handle.shutdown();
    join.join().expect("server thread");
}
