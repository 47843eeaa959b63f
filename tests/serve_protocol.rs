//! Protocol error paths: malformed JSON, unknown models, shape-mismatched
//! inputs and oversized payloads must each produce a *structured* error
//! response — and the server must keep serving afterwards.

use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use winograd_aware::models::{ModelKind, ModelSpec, ZooModel};
use winograd_aware::serve::{
    read_frame, Client, ClientError, SchedulerConfig, Server, ServerConfig, ServerHandle,
    DEFAULT_MAX_FRAME,
};
use winograd_aware::tensor::{Json, SeededRng, Tensor};

fn boot(max_frame: usize) -> (SocketAddr, ServerHandle, std::thread::JoinHandle<()>) {
    // the suites log at warn (real problems only) unless WA_LOG says otherwise
    winograd_aware::obs::set_default_max_level(winograd_aware::obs::Level::Warn);
    let server = Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            max_frame,
            scheduler: SchedulerConfig {
                max_batch: 8,
                max_delay: Duration::from_millis(1),
                ..SchedulerConfig::default()
            },
            ..ServerConfig::default()
        },
    )
    .expect("binding an ephemeral port");
    let addr = server.local_addr();
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run().expect("server run failed"));
    (addr, handle, join)
}

fn load_lenet(client: &mut Client, name: &str) -> ZooModel {
    let spec = ModelSpec::builder()
        .classes(10)
        .input_size(12)
        .build()
        .expect("static spec");
    let mut model =
        ZooModel::from_spec(ModelKind::LeNet, &spec, &mut SeededRng::new(40)).expect("static spec");
    let ckpt = model.to_full_checkpoint().expect("export");
    client.load_model(name, &ckpt).expect("load");
    model
}

/// The error kind of a failed request, via the typed client.
fn server_error_kind(result: Result<Tensor, ClientError>) -> String {
    match result {
        Err(ClientError::Server { kind, .. }) => kind,
        other => panic!("expected a structured server error, got {other:?}"),
    }
}

#[test]
fn malformed_json_gets_structured_error_and_connection_survives() {
    let (addr, _handle, join) = boot(DEFAULT_MAX_FRAME);
    let mut stream = TcpStream::connect(addr).expect("connect");

    // a frame whose body is not JSON
    let body = b"{definitely not json";
    stream
        .write_all(&(body.len() as u32).to_be_bytes())
        .expect("header");
    stream.write_all(body).expect("body");
    stream.flush().expect("flush");

    let resp = read_frame(&mut stream, DEFAULT_MAX_FRAME).expect("a response frame");
    assert_eq!(resp.get("ok"), Some(&Json::Bool(false)));
    assert_eq!(
        resp.get("error").unwrap().get("kind").unwrap().as_str(),
        Some("bad_frame")
    );

    // the SAME connection must still serve a valid request
    let list = Json::obj([("op", Json::from("list_models"))]);
    winograd_aware::serve::write_frame(&mut stream, &list).expect("write");
    let resp = read_frame(&mut stream, DEFAULT_MAX_FRAME).expect("a response frame");
    assert_eq!(resp.get("ok"), Some(&Json::Bool(true)));

    Client::connect(addr)
        .expect("connect")
        .shutdown()
        .expect("shutdown");
    join.join().expect("server thread");
}

#[test]
fn non_object_and_unknown_op_requests_are_structured_errors() {
    let (addr, _handle, join) = boot(DEFAULT_MAX_FRAME);
    let mut client = Client::connect(addr).expect("connect");

    for doc in [
        Json::from(42usize),
        Json::obj([("op", Json::from("levitate"))]),
        Json::obj([("op", Json::from("infer"))]), // missing model/input
    ] {
        let resp = client.request_raw(&doc).expect("a response frame");
        assert_eq!(resp.get("ok"), Some(&Json::Bool(false)), "{doc}");
        assert_eq!(
            resp.get("error").unwrap().get("kind").unwrap().as_str(),
            Some("bad_request"),
            "{doc}"
        );
    }

    // request ids are echoed even on failures
    let doc = Json::obj([("id", Json::from("req-9")), ("op", Json::from("levitate"))]);
    let resp = client.request_raw(&doc).expect("a response frame");
    assert_eq!(resp.get("id").unwrap().as_str(), Some("req-9"));

    client.shutdown().expect("shutdown");
    join.join().expect("server thread");
}

#[test]
fn unknown_model_and_bad_shape_leave_the_server_serving() {
    let (addr, _handle, join) = boot(DEFAULT_MAX_FRAME);
    let mut client = Client::connect(addr).expect("connect");
    let x = Tensor::zeros(&[1, 1, 12, 12]);

    // unknown model
    let kind = server_error_kind(client.infer("ghost", &x));
    assert_eq!(kind, "unknown_model");

    // now load a model and send it a wrong-shaped input
    load_lenet(&mut client, "mnist");
    let bad = Tensor::zeros(&[1, 3, 12, 12]);
    let kind = server_error_kind(client.infer("mnist", &bad));
    assert_eq!(kind, "shape_mismatch");
    // wrong rank entirely
    let kind = server_error_kind(client.infer("mnist", &Tensor::zeros(&[12, 12])));
    assert_eq!(kind, "shape_mismatch");

    // the same connection still serves valid work afterwards
    let out = client.infer("mnist", &x).expect("valid inference");
    assert_eq!(out.shape(), &[1, 10]);

    client.shutdown().expect("shutdown");
    join.join().expect("server thread");
}

#[test]
fn bad_checkpoints_are_rejected_with_diagnosable_messages() {
    let (addr, _handle, join) = boot(DEFAULT_MAX_FRAME);
    let mut client = Client::connect(addr).expect("connect");

    // checkpoint missing its params object: the error names the key path
    let doc = Json::obj([
        ("op", Json::from("load_model")),
        ("name", Json::from("m")),
        (
            "checkpoint",
            Json::obj([("arch", Json::from("lenet")), ("spec", Json::Obj(vec![]))]),
        ),
    ]);
    let resp = client.request_raw(&doc).expect("a response frame");
    assert_eq!(resp.get("ok"), Some(&Json::Bool(false)));
    let message = resp
        .get("error")
        .unwrap()
        .get("message")
        .unwrap()
        .as_str()
        .unwrap()
        .to_string();
    assert!(message.contains("`params`"), "{message}");

    // unknown architecture: structured invalid_spec
    let doc = Json::obj([
        ("op", Json::from("load_model")),
        ("name", Json::from("m")),
        (
            "checkpoint",
            Json::obj([
                ("arch", Json::from("transformer")),
                ("spec", Json::Obj(vec![])),
                ("params", Json::Obj(vec![])),
            ]),
        ),
    ]);
    let resp = client.request_raw(&doc).expect("a response frame");
    assert_eq!(
        resp.get("error").unwrap().get("kind").unwrap().as_str(),
        Some("invalid_spec")
    );

    client.shutdown().expect("shutdown");
    join.join().expect("server thread");
}

#[test]
fn oversized_payload_gets_error_then_new_connections_still_serve() {
    // a tiny frame cap so an ordinary request is oversized
    let (addr, _handle, join) = boot(256);
    let mut stream = TcpStream::connect(addr).expect("connect");

    // declare a body far over the cap; the server must answer without
    // reading it, then close this connection (stream is out of sync)
    stream
        .write_all(&(1_000_000u32).to_be_bytes())
        .expect("header");
    stream.flush().expect("flush");
    let resp = read_frame(&mut stream, DEFAULT_MAX_FRAME).expect("a response frame");
    assert_eq!(resp.get("ok"), Some(&Json::Bool(false)));
    assert_eq!(
        resp.get("error").unwrap().get("kind").unwrap().as_str(),
        Some("bad_frame")
    );
    let after = read_frame(&mut stream, DEFAULT_MAX_FRAME);
    assert!(
        matches!(
            after,
            Err(winograd_aware::serve::FrameError::Closed)
                | Err(winograd_aware::serve::FrameError::Io(_))
        ),
        "the desynced connection must be closed"
    );

    // the server itself keeps serving: a new connection works
    let mut client = Client::connect(addr).expect("connect");
    let models = client.list_models().expect("list");
    assert_eq!(models.as_arr().expect("array").len(), 0);

    client.shutdown().expect("shutdown");
    join.join().expect("server thread");
}
