//! End-to-end serving: boot a real server on an ephemeral port, load
//! models from one-document checkpoints over the wire, and assert that
//! served `infer` logits are **bit-identical** to in-process
//! `try_forward_batch` — for two architectures under both im2row and
//! Winograd F2 — and that concurrent clients are coalesced into shared
//! batches by the scheduler.

use std::net::SocketAddr;
use std::time::Duration;

use winograd_aware::core::ConvAlgo;
use winograd_aware::models::{ExecutorConfig, Infer, ModelKind, ModelSpec, ZooModel};
use winograd_aware::serve::{
    Client, ClientError, SchedulerConfig, Server, ServerConfig, ServerHandle,
};
use winograd_aware::tensor::{SeededRng, Tensor};

/// The executor sharding used on both sides of every comparison.
const EXEC: ExecutorConfig = ExecutorConfig {
    threads: 2,
    chunk: 2,
};

/// Boots a server on an ephemeral port in a background thread.
fn boot(scheduler: SchedulerConfig) -> (SocketAddr, ServerHandle, std::thread::JoinHandle<()>) {
    boot_with(ServerConfig {
        scheduler,
        ..ServerConfig::default()
    })
}

/// Boots a server with a full [`ServerConfig`] on an ephemeral port.
fn boot_with(cfg: ServerConfig) -> (SocketAddr, ServerHandle, std::thread::JoinHandle<()>) {
    // the suites log at warn (real problems only) unless WA_LOG says otherwise
    winograd_aware::obs::set_default_max_level(winograd_aware::obs::Level::Warn);
    let server = Server::bind("127.0.0.1:0", cfg).expect("binding an ephemeral port");
    let addr = server.local_addr();
    let handle = server.handle();
    let join = std::thread::spawn(move || {
        server.run().expect("server run failed");
    });
    (addr, handle, join)
}

fn spec_for(kind: ModelKind, algo: ConvAlgo) -> ModelSpec {
    let builder = ModelSpec::builder().classes(10).algo(algo);
    match kind {
        ModelKind::LeNet => builder.input_size(12),
        _ => builder.input_size(8).width(0.125),
    }
    .build()
    .expect("static spec")
}

#[test]
fn served_logits_bit_identical_to_in_process_for_two_models_two_algos() {
    let (addr, _handle, join) = boot(SchedulerConfig {
        max_batch: 16,
        max_delay: Duration::from_millis(1),
        exec: EXEC,
        ..SchedulerConfig::default()
    });
    let mut rng = SeededRng::new(30);
    let mut client = Client::connect(addr).expect("connect");

    for kind in [ModelKind::LeNet, ModelKind::ResNet18] {
        for algo in [ConvAlgo::Im2row, ConvAlgo::Winograd { m: 2 }] {
            let spec = spec_for(kind, algo);
            let mut model = ZooModel::from_spec(kind, &spec, &mut rng).expect("static spec");
            let name = format!("{kind}-{algo}");
            let ckpt = model.to_full_checkpoint().expect("export");
            client.load_model(&name, &ckpt).expect("load over the wire");

            let [c, h, w] = model.sample_shape();
            let batch = rng.uniform_tensor(&[5, c, h, w], -1.0, 1.0);
            let want = model
                .try_forward_batch(&batch, EXEC)
                .expect("in-process batched forward");
            let got = client.infer(&name, &batch).expect("served inference");
            assert_eq!(got.shape(), want.shape(), "{name}");
            assert_eq!(
                got.data(),
                want.data(),
                "{name}: served logits must be bit-identical to try_forward_batch"
            );
        }
    }

    // all four models stayed loaded
    let models = client.list_models().expect("list");
    assert_eq!(models.as_arr().expect("array").len(), 4);

    client.shutdown().expect("shutdown");
    join.join().expect("server thread");
}

#[test]
fn per_tap_int8_f4_model_round_trips_through_the_wire_unchanged() {
    // A *calibrated* tap-wise INT8 F4 model: warmed so every
    // Winograd-domain tap has its own (non-uniform) scale, exported as a
    // one-document checkpoint, loaded over the wire, and served — the
    // served logits must be bit-identical to the in-process
    // `try_forward_batch` of the exporting model, which is only possible
    // if the per-tap calibration survived FullCheckpoint → wa-serve.
    use winograd_aware::nn::{Layer, QuantConfig, Tape};
    use winograd_aware::quant::BitWidth;

    let (addr, _handle, join) = boot(SchedulerConfig {
        max_batch: 16,
        max_delay: Duration::from_millis(1),
        exec: EXEC,
        ..SchedulerConfig::default()
    });
    let mut rng = SeededRng::new(33);
    let spec = ModelSpec::builder()
        .classes(10)
        .input_size(12)
        .algo(ConvAlgo::Winograd { m: 4 })
        .quant(QuantConfig::per_tap(BitWidth::INT8))
        .build()
        .expect("static spec");
    let mut model = ZooModel::from_spec(ModelKind::LeNet, &spec, &mut rng).expect("static spec");
    {
        let warm = rng.uniform_tensor(&[4, 1, 12, 12], -1.0, 1.0);
        let mut tape = Tape::new();
        let x = tape.leaf(warm);
        let _ = model.forward(&mut tape, x, true);
    }

    let ckpt = model.to_full_checkpoint().expect("export");
    assert!(
        !ckpt.quant.is_empty(),
        "the served document must carry the calibration section"
    );
    let mut client = Client::connect(addr).expect("connect");
    client
        .load_model("tapnet", &ckpt)
        .expect("load over the wire");

    let batch = rng.uniform_tensor(&[5, 1, 12, 12], -1.0, 1.0);
    let want = model
        .try_forward_batch(&batch, EXEC)
        .expect("in-process batched forward");
    let got = client.infer("tapnet", &batch).expect("served inference");
    assert_eq!(
        got.data(),
        want.data(),
        "served per-tap INT8 F4 logits must be bit-identical to in-process"
    );

    client.shutdown().expect("shutdown");
    join.join().expect("server thread");
}

#[test]
fn concurrent_clients_are_coalesced_into_one_scheduler_batch() {
    // max_batch equals the total concurrent sample count and the
    // deadline is far away: only the size threshold can flush, so all
    // requests *must* land in one executor batch.
    const CLIENTS: usize = 3;
    const PER_CLIENT: usize = 2;
    let (addr, _handle, join) = boot(SchedulerConfig {
        max_batch: CLIENTS * PER_CLIENT,
        max_delay: Duration::from_secs(30),
        exec: EXEC,
        ..SchedulerConfig::default()
    });
    let mut rng = SeededRng::new(31);
    let spec = spec_for(ModelKind::LeNet, ConvAlgo::Winograd { m: 2 });
    let mut model = ZooModel::from_spec(ModelKind::LeNet, &spec, &mut rng).expect("static spec");
    let ckpt = model.to_full_checkpoint().expect("export");

    let mut admin = Client::connect(addr).expect("connect");
    admin.load_model("mnist", &ckpt).expect("load");

    // per-request references: FP32 outputs are independent of batch
    // composition (executor chunk invariance), so each client's served
    // logits must equal its own in-process forward regardless of which
    // requests shared the batch
    let inputs: Vec<Tensor> = (0..CLIENTS)
        .map(|_| rng.uniform_tensor(&[PER_CLIENT, 1, 12, 12], -1.0, 1.0))
        .collect();
    let wants: Vec<Tensor> = inputs
        .iter()
        .map(|x| model.try_forward_batch(x, EXEC).expect("reference"))
        .collect();

    std::thread::scope(|s| {
        let handles: Vec<_> = inputs
            .iter()
            .map(|x| {
                s.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    client.infer("mnist", x).expect("served inference")
                })
            })
            .collect();
        for (h, want) in handles.into_iter().zip(&wants) {
            let got = h.join().expect("client thread");
            assert_eq!(got.data(), want.data(), "batched-together request diverged");
        }
    });

    // the scheduler must have formed exactly one batch out of the three
    // concurrent requests
    let stats = admin.stats().expect("stats");
    let rows = stats.get("models").and_then(|m| m.as_arr()).expect("rows");
    let mnist = rows
        .iter()
        .find(|r| r.get("name").and_then(|v| v.as_str()) == Some("mnist"))
        .expect("mnist row");
    let counter = |key: &str| {
        mnist
            .get("stats")
            .and_then(|s| s.get(key))
            .and_then(|v| v.as_f64())
            .expect("counter")
    };
    assert_eq!(counter("requests"), CLIENTS as f64);
    assert_eq!(counter("samples"), (CLIENTS * PER_CLIENT) as f64);
    assert_eq!(
        counter("batches"),
        1.0,
        "concurrent requests must coalesce into a single executor batch"
    );

    admin.shutdown().expect("shutdown");
    join.join().expect("server thread");
}

#[test]
fn hot_reload_swaps_the_served_model() {
    let (addr, _handle, join) = boot(SchedulerConfig {
        max_batch: 8,
        max_delay: Duration::from_millis(1),
        exec: EXEC,
        ..SchedulerConfig::default()
    });
    let spec = spec_for(ModelKind::LeNet, ConvAlgo::Im2row);
    let mut rng = SeededRng::new(32);
    let mut a = ZooModel::from_spec(ModelKind::LeNet, &spec, &mut rng).expect("static spec");
    let mut b = ZooModel::from_spec(ModelKind::LeNet, &spec, &mut rng).expect("static spec");

    let mut client = Client::connect(addr).expect("connect");
    let x = rng.uniform_tensor(&[2, 1, 12, 12], -1.0, 1.0);

    client
        .load_model("m", &a.to_full_checkpoint().expect("export"))
        .expect("load a");
    let got_a = client.infer("m", &x).expect("serve a");
    assert_eq!(
        got_a.data(),
        a.try_forward_batch(&x, EXEC).expect("ref a").data()
    );

    client
        .load_model("m", &b.to_full_checkpoint().expect("export"))
        .expect("reload with b");
    let got_b = client.infer("m", &x).expect("serve b");
    assert_eq!(
        got_b.data(),
        b.try_forward_batch(&x, EXEC).expect("ref b").data()
    );
    assert_ne!(
        got_a.data(),
        got_b.data(),
        "differently-seeded models must disagree"
    );

    client.unload("m").expect("unload");
    assert!(client.infer("m", &x).is_err(), "unloaded model must 404");

    client.shutdown().expect("shutdown");
    join.join().expect("server thread");
}

#[test]
fn over_limit_connections_get_a_structured_busy_error() {
    // max_conns = 1: while one client connection is open, a second
    // connection's first request must be answered with exactly one
    // {ok: false, error: {kind: "busy"}} frame — not a reset, not a
    // hang, and never an unbounded connection thread.
    let (addr, handle, join) = boot_with(ServerConfig {
        max_conns: 1,
        scheduler: SchedulerConfig {
            max_batch: 8,
            max_delay: Duration::from_millis(1),
            exec: EXEC,
            ..SchedulerConfig::default()
        },
        ..ServerConfig::default()
    });

    // occupy the only slot with a live connection
    let mut holder = Client::connect(addr).expect("connect");
    let models = holder.list_models().expect("list over the held slot");
    assert_eq!(models.as_arr().expect("array").len(), 0);

    // the over-limit connection gets the busy refusal
    let mut refused = Client::connect(addr).expect("tcp connect still accepted");
    match refused.list_models() {
        Err(ClientError::Server { kind, message }) => {
            assert_eq!(kind, "busy", "unexpected error kind: {message}");
            assert!(message.contains("connection limit"), "got: {message}");
        }
        other => panic!("expected a structured busy error, got {other:?}"),
    }

    // releasing the held slot lets new connections in again (the slot is
    // freed asynchronously when the connection thread sees EOF, so poll)
    drop(holder);
    let mut ok = false;
    for _ in 0..100 {
        let mut retry = Client::connect(addr).expect("tcp connect");
        if retry.list_models().is_ok() {
            ok = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(ok, "a freed slot must become usable again");

    handle.shutdown();
    join.join().expect("server thread");
}

#[test]
fn stats_reports_connection_and_flusher_limits() {
    let (addr, handle, join) = boot_with(ServerConfig {
        max_conns: 7,
        scheduler: SchedulerConfig {
            max_batch: 8,
            max_delay: Duration::from_millis(1),
            exec: EXEC,
            max_inflight_flushes: 3,
            ..SchedulerConfig::default()
        },
        ..ServerConfig::default()
    });
    let mut client = Client::connect(addr).expect("connect");
    let stats = client.stats().expect("stats");

    let conns = stats.get("connections").expect("connections object");
    assert_eq!(conns.get("max_conns").and_then(|v| v.as_f64()), Some(7.0));
    // this very client is the one open connection
    assert_eq!(conns.get("open").and_then(|v| v.as_f64()), Some(1.0));

    let sched = stats.get("scheduler").expect("scheduler object");
    assert_eq!(
        sched.get("max_inflight_flushes").and_then(|v| v.as_f64()),
        Some(3.0)
    );
    assert_eq!(
        sched.get("inflight_flushes").and_then(|v| v.as_f64()),
        Some(0.0)
    );

    handle.shutdown();
    join.join().expect("server thread");
}
