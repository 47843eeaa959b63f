//! Registry memory budget end-to-end: boot real servers with
//! `--max-model-bytes`-style budgets and assert LRU eviction order,
//! busy refusals when nothing can be evicted, hot reload with zero
//! dropped in-flight requests, and server-side binary-container loads.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use wa_models::{ModelKind, ModelSpec, ZooModel};
use wa_nn::FullCheckpoint;
use wa_serve::{
    checkpoint_resident_bytes, Client, ClientError, SchedulerConfig, Server, ServerConfig,
    ServerHandle,
};
use wa_tensor::{Json, SeededRng, Tensor};

/// Boots a server with the given resident-bytes budget on an ephemeral
/// port.
fn boot(max_model_bytes: Option<u64>) -> (SocketAddr, ServerHandle, std::thread::JoinHandle<()>) {
    // the suites log at warn (real problems only) unless WA_LOG says otherwise
    wa_obs::set_default_max_level(wa_obs::Level::Warn);
    let cfg = ServerConfig {
        max_model_bytes,
        scheduler: SchedulerConfig {
            max_batch: 8,
            max_delay: Duration::from_millis(1),
            ..SchedulerConfig::default()
        },
        ..ServerConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", cfg).expect("binding an ephemeral port");
    let addr = server.local_addr();
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run().expect("server run failed"));
    (addr, handle, join)
}

fn lenet_ckpt(seed: u64) -> FullCheckpoint {
    let spec = ModelSpec::builder()
        .classes(10)
        .input_size(12)
        .build()
        .expect("static spec");
    let mut model = ZooModel::from_spec(ModelKind::LeNet, &spec, &mut SeededRng::new(seed))
        .expect("static spec");
    model.to_full_checkpoint().expect("export")
}

/// The loaded model names, from `list_models`.
fn loaded_names(client: &mut Client) -> Vec<String> {
    client
        .list_models()
        .expect("list")
        .as_arr()
        .expect("rows")
        .iter()
        .map(|r| r.get("name").and_then(|n| n.as_str()).unwrap().to_string())
        .collect()
}

/// One model's stats row from the `stats` op.
fn stats_row(client: &mut Client, name: &str) -> Json {
    let stats = client.stats().expect("stats");
    stats
        .get("models")
        .and_then(|m| m.as_arr())
        .expect("rows")
        .iter()
        .find(|r| r.get("name").and_then(|n| n.as_str()) == Some(name))
        .cloned()
        .unwrap_or(Json::Null)
}

#[test]
fn budget_evicts_least_recently_used_idle_model_first() {
    let ckpt = lenet_ckpt(70);
    let one = checkpoint_resident_bytes(&ckpt);
    let (addr, handle, join) = boot(Some(2 * one));
    let mut client = Client::connect(addr).expect("connect");

    client.load_model("a", &ckpt).expect("load a");
    client.load_model("b", &ckpt).expect("load b");
    // make `a` the most recently used so `b` becomes the LRU victim
    let x = SeededRng::new(71).uniform_tensor(&[1, 1, 12, 12], -1.0, 1.0);
    client.infer("a", &x).expect("infer a");

    client.load_model("c", &ckpt).expect("load c evicts b");
    let names = loaded_names(&mut client);
    assert!(names.contains(&"a".to_string()), "loaded: {names:?}");
    assert!(names.contains(&"c".to_string()), "loaded: {names:?}");
    assert!(
        !names.contains(&"b".to_string()),
        "the LRU model `b` must be evicted, loaded: {names:?}"
    );
    // an evicted model answers unknown_model, not a stale response
    match client.infer("b", &x) {
        Err(ClientError::Server { kind, .. }) => assert_eq!(kind, "unknown_model"),
        other => panic!("inferring against an evicted model: {other:?}"),
    }
    // the stats memory block accounts exactly two resident models
    let stats = client.stats().expect("stats");
    let memory = stats.get("memory").expect("memory block");
    assert_eq!(
        memory.get("max_model_bytes").and_then(Json::as_f64),
        Some(2.0 * one as f64)
    );
    assert_eq!(
        memory.get("resident_bytes").and_then(Json::as_f64),
        Some(2.0 * one as f64)
    );

    handle.shutdown();
    join.join().expect("server thread");
}

#[test]
fn load_is_refused_busy_when_nothing_fits_or_nothing_is_idle() {
    let ckpt = lenet_ckpt(72);
    let one = checkpoint_resident_bytes(&ckpt);

    // a checkpoint bigger than the whole budget is refused outright
    let (addr, handle, join) = boot(Some(one - 1));
    let mut client = Client::connect(addr).expect("connect");
    match client.load_model("big", &ckpt) {
        Err(ClientError::Server { kind, message }) => {
            assert_eq!(kind, "busy", "{message}");
            assert!(message.contains("max-model-bytes"), "{message}");
        }
        other => panic!("oversized load: {other:?}"),
    }
    assert!(loaded_names(&mut client).is_empty());
    handle.shutdown();
    join.join().expect("server thread");
}

#[test]
fn hot_reload_drops_no_in_flight_requests_and_keeps_logits_bit_identical() {
    let ckpt = lenet_ckpt(73);
    let (addr, handle, join) = boot(None);
    let mut client = Client::connect(addr).expect("connect");
    client.load_model("m", &ckpt).expect("load");

    // the ground truth every response must match, before/during/after
    let x = SeededRng::new(74).uniform_tensor(&[2, 1, 12, 12], -1.0, 1.0);
    let want: Tensor = client.infer("m", &x).expect("baseline infer");

    let stop = AtomicBool::new(false);
    let reloads = 5usize;
    std::thread::scope(|s| {
        // three clients hammer the model across the reload window
        let workers: Vec<_> = (0..3)
            .map(|_| {
                s.spawn(|| {
                    let mut c = Client::connect(addr).expect("connect");
                    let mut served = 0usize;
                    while !stop.load(Ordering::Relaxed) {
                        let got = c.infer("m", &x).expect("no request may be dropped");
                        assert_eq!(
                            got.data(),
                            want.data(),
                            "logits drifted during a hot reload"
                        );
                        served += 1;
                    }
                    served
                })
            })
            .collect();
        // … while the same checkpoint is hot-swapped in repeatedly
        let mut loader = Client::connect(addr).expect("connect");
        for _ in 0..reloads {
            loader.load_model("m", &ckpt).expect("hot reload");
            std::thread::sleep(Duration::from_millis(10));
        }
        stop.store(true, Ordering::Relaxed);
        let total: usize = workers.into_iter().map(|w| w.join().expect("worker")).sum();
        assert!(total > 0, "workers never got a request through");
    });

    let row = stats_row(&mut client, "m");
    let lifecycle = row.get("lifecycle").expect("lifecycle block");
    assert_eq!(
        lifecycle.get("loads").and_then(Json::as_f64),
        Some(1.0 + reloads as f64)
    );
    assert_eq!(
        lifecycle.get("reloads").and_then(Json::as_f64),
        Some(reloads as f64)
    );
    assert_eq!(lifecycle.get("evictions").and_then(Json::as_f64), Some(0.0));

    handle.shutdown();
    join.join().expect("server thread");
}

#[test]
fn server_loads_binary_containers_from_a_path_and_reports_provenance() {
    let ckpt = lenet_ckpt(75);
    let dir = std::env::temp_dir().join(format!("wa-evict-e2e-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let bin_path = dir.join("lenet.wack");
    let json_path = dir.join("lenet.json");
    std::fs::write(&bin_path, wa_nn::write_checkpoint(&ckpt)).expect("write container");
    std::fs::write(&json_path, ckpt.to_json().to_string_pretty()).expect("write JSON");

    let (addr, handle, join) = boot(None);
    let mut client = Client::connect(addr).expect("connect");

    let resp = client
        .load_model_path("bin", bin_path.to_str().unwrap())
        .expect("binary path load");
    assert_eq!(resp.get("format").and_then(|f| f.as_str()), Some("binary"));
    assert!(resp.get("load_micros").and_then(Json::as_f64).unwrap() > 0.0);
    let resp = client
        .load_model_path("json", json_path.to_str().unwrap())
        .expect("JSON path load");
    assert_eq!(resp.get("format").and_then(|f| f.as_str()), Some("json"));

    // both load routes serve identical logits
    let x = SeededRng::new(76).uniform_tensor(&[2, 1, 12, 12], -1.0, 1.0);
    let from_bin = client.infer("bin", &x).expect("infer bin");
    let from_json = client.infer("json", &x).expect("infer json");
    assert_eq!(from_bin.data(), from_json.data());

    // the stats rows carry the provenance too
    let row = stats_row(&mut client, "bin");
    assert_eq!(row.get("format").and_then(|f| f.as_str()), Some("binary"));
    assert!(row.get("resident_bytes").and_then(Json::as_f64).unwrap() > 0.0);

    // a corrupt container is a structured error that names the file
    let broken = dir.join("broken.wack");
    let mut bytes = wa_nn::write_checkpoint(&ckpt);
    let last = bytes.len() - 1;
    bytes[last] ^= 0xFF;
    std::fs::write(&broken, &bytes).expect("write broken");
    match client.load_model_path("bad", broken.to_str().unwrap()) {
        Err(ClientError::Server { kind, message }) => {
            assert_eq!(kind, "bad_request", "{message}");
            assert!(message.contains("checksum"), "{message}");
        }
        other => panic!("corrupt path load: {other:?}"),
    }

    handle.shutdown();
    join.join().expect("server thread");
    let _ = std::fs::remove_dir_all(&dir);
}
