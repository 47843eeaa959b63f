//! Schema and op-sequence golden: pins, for every zoo architecture and
//! the wiNAS supernet, what a refactor of the model definitions must not
//! change.
//!
//! * the ordered `(name, shape)` parameter list — the checkpoint name
//!   schema, i.e. the on-disk format;
//! * the ordered calibration-site names (the `quant` checkpoint section);
//! * `conv_specs()` — the swappable conv order that `overrides` indices
//!   and wiNAS selections address;
//! * the tape length after one train forward and after one `infer` — the
//!   op sequence each path records.
//!
//! Every model runs per-tap `Execution::Int8` at small width with a
//! `Winograd { m: 4 }` policy, so the Winograd, int8 and per-tap paths all
//! contribute ops. The supernet has no `conv_specs()` and its
//! calibration-site list is covered by its own unit tests, so only its
//! parameters and train-forward tape are pinned here.
//!
//! The expected text lives in `tests/golden/model_schema.txt`. A mismatch
//! prints the full rendering; update the file only for an intended
//! change of the checkpoint format or op sequence.

use std::fmt::Write as _;

use winograd_aware::core::ConvAlgo;
use winograd_aware::models::{ConvNet, Infer, LeNet, ModelSpec, ResNeXt20, ResNet18, SqueezeNet};
use winograd_aware::nas::{MacroArch, SearchSpace, SuperNet};
use winograd_aware::nn::{Layer, QuantConfig, Tape};
use winograd_aware::quant::{BitWidth, Execution};
use winograd_aware::tensor::{SeededRng, Tensor};

const GOLDEN: &str = include_str!("golden/model_schema.txt");

fn spec(input_size: usize) -> ModelSpec {
    ModelSpec::builder()
        .classes(10)
        .width(0.125)
        .input_size(input_size)
        .algo(ConvAlgo::Winograd { m: 4 })
        .quant(QuantConfig::per_tap(BitWidth::INT8).with_execution(Execution::Int8))
        .build()
        .expect("static spec")
}

fn render_params(out: &mut String, net: &mut dyn Layer) {
    net.visit_params(&mut |p| {
        writeln!(out, "param {} {:?}", p.name, p.value.shape()).unwrap();
    });
}

/// Tape length of one train forward over `x`.
fn train_tape_len(net: &mut dyn Layer, x: &Tensor) -> usize {
    let mut tape = Tape::new();
    let v = tape.leaf(x.clone());
    let _ = net.forward(&mut tape, v, true);
    tape.len()
}

fn render_model<M: ConvNet + Infer>(out: &mut String, title: &str, mut net: M, input: &[usize]) {
    let x = SeededRng::new(5).uniform_tensor(input, -1.0, 1.0);
    writeln!(out, "== {title}").unwrap();
    render_params(out, &mut net);
    net.visit_quant_state(&mut |name, _| writeln!(out, "site {name}").unwrap());
    for s in net.conv_specs() {
        writeln!(out, "conv {s:?}").unwrap();
    }
    writeln!(out, "tape.train {}", train_tape_len(&mut net, &x)).unwrap();
    let mut tape = Tape::new();
    let v = tape.leaf(x);
    net.infer(&mut tape, v)
        .expect("golden input fits the model");
    writeln!(out, "tape.infer {}", tape.len()).unwrap();
}

fn render_all() -> String {
    let mut out = String::new();
    let rng = &mut SeededRng::new(0);
    let lenet = LeNet::from_spec(&spec(12), rng).expect("static spec");
    render_model(&mut out, "lenet", lenet, &[2, 1, 12, 12]);
    let resnet = ResNet18::from_spec(&spec(8), rng).expect("static spec");
    render_model(&mut out, "resnet18", resnet, &[2, 3, 8, 8]);
    let squeeze = SqueezeNet::from_spec(&spec(8), rng).expect("static spec");
    render_model(&mut out, "squeezenet", squeeze, &[2, 3, 8, 8]);
    let resnext = ResNeXt20::from_spec(&spec(8), rng).expect("static spec");
    render_model(&mut out, "resnext20", resnext, &[2, 3, 8, 8]);

    let arch = MacroArch::tiny(10, 8, 8);
    let mut supernet =
        SuperNet::new(&arch, &SearchSpace::small(BitWidth::INT8), rng).expect("static arch");
    writeln!(out, "== supernet").unwrap();
    render_params(&mut out, &mut supernet);
    let x = SeededRng::new(5).uniform_tensor(&[2, 3, 8, 8], -1.0, 1.0);
    writeln!(out, "tape.train {}", train_tape_len(&mut supernet, &x)).unwrap();
    out
}

#[test]
fn parameter_schema_sites_conv_order_and_op_counts_are_pinned() {
    let got = render_all();
    if got != GOLDEN {
        let first = got
            .lines()
            .zip(GOLDEN.lines())
            .position(|(a, b)| a != b)
            .unwrap_or(got.lines().count().min(GOLDEN.lines().count()));
        panic!(
            "model schema drifted from tests/golden/model_schema.txt \
             (first difference at line {}); full rendering:\n{got}",
            first + 1
        );
    }
}
