//! End-to-end observability: boot a real server with both front-ends,
//! drive batched inference through the im2row *and* Winograd pipelines,
//! and assert the `/v1/metrics` exposition is well-formed, internally
//! consistent (histogram `_count` equals its `+Inf` bucket), monotone
//! across scrapes, and in exact agreement with the `stats` op — plus
//! the health endpoints and trace-id echo that ride the same edge.

use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use wa_bench::HttpClient;
use wa_core::ConvAlgo;
use wa_models::{ModelKind, ModelSpec, ZooModel};
use wa_serve::{
    read_frame, write_frame, Scheduler, SchedulerConfig, Server, ServerConfig, ServerHandle,
    DEFAULT_MAX_FRAME,
};
use wa_tensor::{Json, SeededRng};

/// Boots a server with socket + HTTP listeners on ephemeral ports.
fn boot() -> (
    SocketAddr,
    SocketAddr,
    ServerHandle,
    std::thread::JoinHandle<()>,
) {
    // the suites log at warn (real problems only) unless WA_LOG says otherwise
    wa_obs::set_default_max_level(wa_obs::Level::Warn);
    let cfg = ServerConfig {
        scheduler: SchedulerConfig {
            max_batch: 8,
            max_delay: Duration::from_millis(1),
            ..SchedulerConfig::default()
        },
        ..ServerConfig::default()
    };
    let server =
        Server::bind_with_http("127.0.0.1:0", "127.0.0.1:0", cfg).expect("binding ephemeral ports");
    let addr = server.local_addr();
    let http = server.http_addr().expect("an HTTP listener was requested");
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run().expect("server run failed"));
    (addr, http, handle, join)
}

/// A small LeNet checkpoint with the given uniform conv algorithm.
fn lenet_ckpt(algo: ConvAlgo, seed: u64) -> Json {
    let spec = ModelSpec::builder()
        .classes(10)
        .input_size(12)
        .algo(algo)
        .build()
        .expect("static spec");
    let mut rng = SeededRng::new(seed);
    let mut model = ZooModel::from_spec(ModelKind::LeNet, &spec, &mut rng).expect("static spec");
    model.to_full_checkpoint().expect("export").to_json()
}

fn http_load(http: &mut HttpClient, name: &str, ckpt: &Json) {
    let body =
        Json::obj([("name", Json::from(name)), ("checkpoint", ckpt.clone())]).to_string_compact();
    let reply = http.post("/v1/models/load", &body).expect("POST load");
    assert_eq!(reply.status, 200, "load failed: {}", reply.body);
}

/// Fires `n` single-sample infers at `model`, asserting 200s, and
/// returns the last response document.
fn infer_n(http: &mut HttpClient, model: &str, n: usize, trace: Option<&str>) -> Json {
    let mut rng = SeededRng::new(7);
    let mut last = Json::Null;
    for _ in 0..n {
        let input = rng.uniform_tensor(&[1, 1, 12, 12], -1.0, 1.0);
        let mut fields = vec![
            ("model".to_string(), Json::from(model)),
            ("input".to_string(), input.to_json()),
        ];
        if let Some(t) = trace {
            fields.push(("trace_id".to_string(), Json::from(t)));
        }
        let reply = http
            .post("/v1/infer", &Json::Obj(fields).to_string_compact())
            .expect("POST infer");
        assert_eq!(reply.status, 200, "infer failed: {}", reply.body);
        last = Json::parse(&reply.body).expect("infer body is JSON");
    }
    last
}

/// The value of one fully-qualified series (`name{labels}`), if present.
fn sample_value(text: &str, series: &str) -> Option<f64> {
    text.lines().find_map(|line| {
        line.strip_prefix(series)?
            .strip_prefix(' ')?
            .parse::<f64>()
            .ok()
    })
}

/// Splits a sample line into its series (name + labels) and value.
fn split_sample(line: &str) -> (&str, f64) {
    let (series, value) = line.rsplit_once(' ').expect("sample lines have a value");
    (
        series,
        value.parse().unwrap_or_else(|_| {
            panic!("unparsable sample value in line `{line}`");
        }),
    )
}

/// Every non-comment line must be `series value` with a numeric value
/// and a plausible metric name.
fn assert_well_formed(text: &str) {
    for line in text.lines() {
        if line.starts_with("# ") {
            continue;
        }
        assert!(!line.trim().is_empty(), "blank line in exposition");
        let (series, _) = split_sample(line);
        let name = series.split('{').next().unwrap();
        assert!(
            !name.is_empty()
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
            "malformed metric name in line `{line}`"
        );
        if series.contains('{') {
            assert!(series.ends_with('}'), "unterminated label set: `{line}`");
        }
    }
}

/// For every histogram on the page, `_count` must equal the `+Inf`
/// bucket — the never-tears invariant the renderer guarantees.
fn assert_histograms_consistent(text: &str) {
    let mut checked = 0;
    for line in text.lines().filter(|l| l.contains("le=\"+Inf\"")) {
        let (series, inf_value) = split_sample(line);
        let brace = series.find('{').expect("+Inf lines carry labels");
        let (name, labels) = series.split_at(brace);
        let base = name
            .strip_suffix("_bucket")
            .expect("only _bucket series carry le");
        let rest: Vec<&str> = labels
            .trim_start_matches('{')
            .trim_end_matches('}')
            .split(',')
            .filter(|pair| !pair.starts_with("le="))
            .collect();
        let count_series = if rest.is_empty() {
            format!("{base}_count")
        } else {
            format!("{base}_count{{{}}}", rest.join(","))
        };
        assert_eq!(
            sample_value(text, &count_series),
            Some(inf_value),
            "{count_series} disagrees with its +Inf bucket"
        );
        checked += 1;
    }
    assert!(checked > 0, "no histograms found on the page");
}

#[test]
fn metrics_exposition_is_consistent_monotone_and_matches_stats() {
    let (addr, http_addr, _handle, join) = boot();
    let mut http = HttpClient::connect(http_addr, None).expect("http connect");
    http_load(&mut http, "lenet-direct", &lenet_ckpt(ConvAlgo::Im2row, 41));
    http_load(
        &mut http,
        "lenet-wino",
        &lenet_ckpt(ConvAlgo::Winograd { m: 2 }, 42),
    );

    // health endpoints answer before any traffic
    let alive = http.get("/v1/healthz").expect("GET healthz");
    assert_eq!(alive.status, 200);
    let alive = Json::parse(&alive.body).expect("healthz is JSON");
    assert_eq!(
        alive.get("status").and_then(|s| s.as_str()),
        Some("alive"),
        "healthz body: {alive:?}"
    );
    let ready = http.get("/v1/readyz").expect("GET readyz");
    assert_eq!(ready.status, 200);
    let ready = Json::parse(&ready.body).expect("readyz is JSON");
    assert_eq!(ready.get("ready"), Some(&Json::Bool(true)));
    assert_eq!(ready.get("models_loaded").and_then(Json::as_f64), Some(2.0));

    // traffic through both conv pipelines, one request explicitly traced
    infer_n(&mut http, "lenet-direct", 3, None);
    let traced = infer_n(&mut http, "lenet-wino", 3, Some("e2e-trace.1"));
    assert_eq!(
        traced.get("trace_id").and_then(|t| t.as_str()),
        Some("e2e-trace.1"),
        "the server must echo a caller-supplied trace id"
    );

    let scrape1 = http.get("/v1/metrics").expect("GET metrics");
    assert_eq!(scrape1.status, 200);
    let page1 = scrape1.body;
    assert_well_formed(&page1);
    assert_histograms_consistent(&page1);

    // the edge counter saw all six requests (other tests in this
    // process may add more — the floor is what is deterministic)
    let edge = sample_value(&page1, "wa_infer_requests_total").expect("edge counter");
    assert!(edge >= 6.0, "wa_infer_requests_total = {edge}");

    // both pipelines left their stage spans behind
    for stage in [
        "im2row",
        "im2row.gemm",
        "winograd.input_transform",
        "winograd.gemm",
        "winograd.output_transform",
        "executor.run",
    ] {
        let series = format!("wa_stage_duration_microseconds_count{{stage=\"{stage}\"}}");
        let count = sample_value(&page1, &series);
        assert!(
            count.unwrap_or(0.0) > 0.0,
            "no samples for stage `{stage}` (series `{series}`)"
        );
    }

    // the Prometheus view and the stats op read the same atomics
    let stats = http.get("/v1/stats").expect("GET stats");
    let stats = Json::parse(&stats.body).expect("stats is JSON");
    let rows = stats
        .get("models")
        .and_then(|m| m.as_arr())
        .expect("stats rows");
    assert_eq!(rows.len(), 2);
    for row in rows {
        let name = row.get("name").and_then(|n| n.as_str()).expect("name");
        let from_stats = row
            .get("stats")
            .and_then(|s| s.get("requests"))
            .and_then(Json::as_f64)
            .expect("requests");
        let from_metrics = sample_value(
            &page1,
            &format!("wa_model_requests_total{{model=\"{name}\"}}"),
        )
        .expect("per-model counter");
        assert_eq!(
            from_stats, from_metrics,
            "stats and metrics disagree on `{name}`"
        );
        assert_eq!(from_stats, 3.0, "`{name}` answered 3 requests");
    }

    // more traffic, then every *_total series must be monotone
    infer_n(&mut http, "lenet-direct", 2, None);
    let page2 = http.get("/v1/metrics").expect("GET metrics").body;
    for line in page1.lines() {
        if line.starts_with("# ") || !line.split('{').next().unwrap().ends_with("_total") {
            continue;
        }
        let (series, before) = split_sample(line);
        let after = sample_value(&page2, series)
            .unwrap_or_else(|| panic!("series `{series}` vanished between scrapes"));
        assert!(
            after >= before,
            "counter `{series}` went backwards: {before} -> {after}"
        );
    }
    let edge2 = sample_value(&page2, "wa_infer_requests_total").expect("edge counter");
    assert!(edge2 >= edge + 2.0, "edge counter did not advance");

    // the socket `metrics` op renders the same exposition
    let mut socket = TcpStream::connect(addr).expect("socket connect");
    write_frame(&mut socket, &Json::obj([("op", Json::from("metrics"))])).expect("write frame");
    let doc = read_frame(&mut socket, DEFAULT_MAX_FRAME).expect("read frame");
    assert_eq!(doc.get("ok"), Some(&Json::Bool(true)));
    let text = doc
        .get("metrics")
        .and_then(|m| m.as_str())
        .expect("metrics op returns the exposition text");
    assert!(text.contains("wa_infer_requests_total"));
    assert_well_formed(text);

    // readiness flips once shutdown begins (asked over a connection that
    // predates the stop, since the accept loop is gone afterwards)
    let reply = http.post("/v1/shutdown", "").expect("POST shutdown");
    assert_eq!(reply.status, 200);
    join.join().expect("server thread");
    let mut late = HttpClient::connect(http_addr, Some(Duration::from_millis(500)));
    if let Ok(conn) = late.as_mut() {
        // a racing accept may still answer; if it does, it must say 503
        if let Ok(r) = conn.get("/v1/readyz") {
            assert_eq!(r.status, 503, "readyz after shutdown: {}", r.body);
        }
    }
}

#[test]
fn scheduler_validation_is_unaffected_by_instrumentation() {
    // a zero max_batch must still be rejected before any thread spawns
    let bad = SchedulerConfig {
        max_batch: 0,
        ..SchedulerConfig::default()
    };
    assert!(Scheduler::start(bad).is_err());
}
