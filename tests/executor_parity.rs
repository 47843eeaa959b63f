//! Executor parity suite: the [`BatchExecutor`] must reproduce the
//! sequential per-sample loop *exactly* — for every model of the zoo,
//! under both direct and Winograd convolutions, for thread counts 1/2/4
//! (determinism under sharding), and regardless of chunk size.

use winograd_aware::core::ConvAlgo;
use winograd_aware::models::{
    BatchExecutor, ExecutorConfig, Infer, LeNet, ModelSpec, ResNeXt20, ResNet18, SqueezeNet,
};
use winograd_aware::nn::{Layer, QuantConfig, Tape};
use winograd_aware::quant::BitWidth;
use winograd_aware::tensor::{SeededRng, Tensor};

const BATCH: usize = 5; // deliberately not a multiple of the chunk size

/// Sequential reference: one sample at a time through the same read-only
/// inference path, stitched in order.
fn sequential<M: Infer>(model: &M, batch: &Tensor) -> Tensor {
    let n = batch.dim(0);
    let outs: Vec<Tensor> = (0..n)
        .map(|i| {
            model
                .infer_tensor(&batch.slice_dim0(i, i + 1))
                .expect("sequential inference failed")
        })
        .collect();
    let refs: Vec<&Tensor> = outs.iter().collect();
    Tensor::concat_dim0(&refs)
}

/// Asserts batched == sequential for threads 1, 2 and 4.
fn assert_parity<M: Infer + Sync>(name: &str, model: &M, batch: &Tensor) {
    let want = sequential(model, batch);
    for threads in [1usize, 2, 4] {
        let exec = BatchExecutor::new(ExecutorConfig { threads, chunk: 2 })
            .expect("static config is valid");
        let got = exec.run(model, batch).expect("batched inference failed");
        assert_eq!(got.shape(), want.shape(), "{name}, threads {threads}");
        assert_eq!(
            got.data(),
            want.data(),
            "{name}: batched output must be identical to the sequential \
             per-sample loop (threads {threads})"
        );
    }
}

fn cifar_spec(algo: ConvAlgo) -> ModelSpec {
    ModelSpec::builder()
        .classes(10)
        .width(0.125)
        .algo(algo)
        .build()
        .expect("static spec")
}

const ALGOS: [ConvAlgo; 2] = [ConvAlgo::Im2row, ConvAlgo::Winograd { m: 2 }];

#[test]
fn lenet_parity_direct_and_winograd() {
    let mut rng = SeededRng::new(1);
    let batch = rng.uniform_tensor(&[BATCH, 1, 12, 12], -1.0, 1.0);
    for algo in ALGOS {
        let spec = ModelSpec::builder()
            .classes(10)
            .input_size(12)
            .algo(algo)
            .build()
            .expect("static spec");
        let net = LeNet::from_spec(&spec, &mut rng).expect("static spec");
        assert_parity(&format!("LeNet {algo}"), &net, &batch);
    }
}

#[test]
fn resnet18_parity_direct_and_winograd() {
    let mut rng = SeededRng::new(2);
    let batch = rng.uniform_tensor(&[BATCH, 3, 8, 8], -1.0, 1.0);
    for algo in ALGOS {
        let net = ResNet18::from_spec(&cifar_spec(algo), &mut rng).expect("static spec");
        assert_parity(&format!("ResNet-18 {algo}"), &net, &batch);
    }
}

#[test]
fn squeezenet_parity_direct_and_winograd() {
    let mut rng = SeededRng::new(3);
    let batch = rng.uniform_tensor(&[BATCH, 3, 8, 8], -1.0, 1.0);
    for algo in ALGOS {
        let net = SqueezeNet::from_spec(&cifar_spec(algo), &mut rng).expect("static spec");
        assert_parity(&format!("SqueezeNet {algo}"), &net, &batch);
    }
}

#[test]
fn resnext20_parity_direct_and_winograd() {
    let mut rng = SeededRng::new(4);
    let batch = rng.uniform_tensor(&[BATCH, 3, 8, 8], -1.0, 1.0);
    for algo in ALGOS {
        let net = ResNeXt20::from_spec(&cifar_spec(algo), &mut rng).expect("static spec");
        assert_parity(&format!("ResNeXt-20 {algo}"), &net, &batch);
    }
}

#[test]
fn chunk_size_never_changes_the_output() {
    let mut rng = SeededRng::new(5);
    let spec = ModelSpec::builder()
        .classes(10)
        .input_size(12)
        .algo(ConvAlgo::Winograd { m: 2 })
        .build()
        .expect("static spec");
    let net = LeNet::from_spec(&spec, &mut rng).expect("static spec");
    let batch = rng.uniform_tensor(&[7, 1, 12, 12], -1.0, 1.0);
    let reference = net
        .try_forward_batch(
            &batch,
            ExecutorConfig {
                threads: 1,
                chunk: 1,
            },
        )
        .expect("batched inference failed");
    for chunk in [2usize, 3, 7, 16] {
        let got = net
            .try_forward_batch(&batch, ExecutorConfig { threads: 4, chunk })
            .expect("batched inference failed");
        assert_eq!(got.data(), reference.data(), "chunk {chunk}");
    }
}

/// One whole-batch forward through the `&mut Layer` path (`train =
/// false`) must equal the executor's read-only path exactly.
fn assert_eval_tape_matches_executor<M: Layer + Infer + Sync>(
    name: &str,
    net: &mut M,
    batch: &Tensor,
) {
    let want = {
        let mut tape = Tape::new();
        let x = tape.leaf(batch.clone());
        let y = net.forward(&mut tape, x, false);
        tape.value(y).clone()
    };
    let got = net
        .try_forward_batch(
            batch,
            ExecutorConfig {
                threads: 2,
                chunk: 3,
            },
        )
        .expect("batched inference failed");
    assert_eq!(got.shape(), want.shape(), "{name}");
    assert_eq!(got.data(), want.data(), "{name}");
}

#[test]
fn batched_path_matches_the_legacy_eval_tape() {
    // The train forward and the Infer path are two drivers of one model
    // definition: for every architecture of the zoo the eval tape may not
    // drift from the executor.
    let mut rng = SeededRng::new(6);
    let spec = cifar_spec(ConvAlgo::Winograd { m: 2 });
    let mut net = ResNet18::from_spec(&spec, &mut rng).expect("static spec");
    let batch = rng.uniform_tensor(&[3, 3, 8, 8], -1.0, 1.0);
    assert_eval_tape_matches_executor("ResNet18", &mut net, &batch);

    let mut net = SqueezeNet::from_spec(&spec, &mut rng).expect("static spec");
    assert_eval_tape_matches_executor("SqueezeNet", &mut net, &batch);
    let mut net = ResNeXt20::from_spec(&spec, &mut rng).expect("static spec");
    assert_eval_tape_matches_executor("ResNeXt20", &mut net, &batch);

    let lenet_spec = ModelSpec::builder()
        .classes(10)
        .input_size(12)
        .algo(ConvAlgo::Winograd { m: 2 })
        .build()
        .expect("static spec");
    let mut net = LeNet::from_spec(&lenet_spec, &mut rng).expect("static spec");
    let batch = rng.uniform_tensor(&[3, 1, 12, 12], -1.0, 1.0);
    assert_eval_tape_matches_executor("LeNet", &mut net, &batch);
}

#[test]
fn filter_cache_reuse_is_bit_identical_across_runs_and_invalidation() {
    // The Winograd filter transform G·g·Gᵀ is derived once per model and
    // reused for every chunk of every run. Repeated runs (warm cache),
    // a fresh identical model (cold cache), and a model whose cache was
    // invalidated through the &mut Layer API must all agree exactly.
    let mut rng = SeededRng::new(8);
    let spec = ModelSpec::builder()
        .classes(10)
        .input_size(12)
        .algo(ConvAlgo::Winograd { m: 2 })
        .quant(QuantConfig::uniform(BitWidth::INT8))
        .build()
        .expect("static spec");
    let mut net = LeNet::from_spec(&spec, &mut rng).expect("static spec");
    let batch = rng.uniform_tensor(&[BATCH, 1, 12, 12], -1.0, 1.0);
    let cfg = ExecutorConfig {
        threads: 2,
        chunk: 2,
    };
    let first = net.try_forward_batch(&batch, cfg).expect("batched run");
    let warm = net.try_forward_batch(&batch, cfg).expect("warm-cache run");
    assert_eq!(first.data(), warm.data(), "cache reuse changed the output");

    // a no-op visit_params invalidates the cache (visitors may mutate);
    // the re-derived transform must reproduce the same logits
    Layer::visit_params(&mut net, &mut |_| {});
    let rederived = net
        .try_forward_batch(&batch, cfg)
        .expect("post-invalidation run");
    assert_eq!(first.data(), rederived.data(), "re-derivation diverged");

    // and a cold model restored from the same parameters agrees too
    let ckpt = winograd_aware::nn::export_params(&mut net).expect("unique names");
    let mut fresh = LeNet::from_spec(&spec, &mut SeededRng::new(77)).expect("static spec");
    winograd_aware::nn::import_params(&mut fresh, &ckpt).expect("import");
    let cold = fresh
        .try_forward_batch(&batch, cfg)
        .expect("cold-cache run");
    assert_eq!(first.data(), cold.data(), "cold vs warm cache diverged");

    // The prepacked filter must go stale exactly when what it derives
    // from changes. Under per-tap quantization both a weight edit through
    // the visitor and an edit of the G·g·Gᵀ tap calibration reach the
    // filter; after each, a warm model must equal a freshly built one
    // carrying the same edit (which has never cached anything).
    use winograd_aware::core::ConvLayer;
    use winograd_aware::models::ConvNet;
    let tap_spec = ModelSpec::builder()
        .classes(10)
        .input_size(12)
        .algo(ConvAlgo::Winograd { m: 2 })
        .quant(QuantConfig::per_tap(BitWidth::INT8))
        .build()
        .expect("static spec");
    let rebuild = |from: &mut LeNet| {
        let ckpt = winograd_aware::nn::export_params(from).expect("unique names");
        let mut m = LeNet::from_spec(&tap_spec, &mut SeededRng::new(78)).expect("static spec");
        winograd_aware::nn::import_params(&mut m, &ckpt).expect("import");
        m
    };
    let coarsen_filter_taps = |m: &mut LeNet| {
        for conv in m.conv_layers_mut() {
            if let ConvLayer::Winograd(w) = conv {
                let ggt = w.tap_calibration_mut().1;
                let mut bits = vec![BitWidth::INT8; ggt.taps()];
                let half = bits.len() / 2;
                bits[..half].fill(BitWidth::Int(4));
                ggt.set_bit_overrides(Some(bits)).expect("right length");
            }
        }
    };
    let mut net = LeNet::from_spec(&tap_spec, &mut SeededRng::new(9)).expect("static spec");
    let before = net.try_forward_batch(&batch, cfg).expect("warming run");

    Layer::visit_params(&mut net, &mut |p| {
        if p.name.ends_with(".weight") {
            p.value.map_in_place(|v| v * 0.5);
        }
    });
    let edited = net.try_forward_batch(&batch, cfg).expect("post-edit run");
    assert_ne!(
        before.data(),
        edited.data(),
        "the weight edit must reach the output"
    );
    let fresh = rebuild(&mut net)
        .try_forward_batch(&batch, cfg)
        .expect("fresh run");
    assert_eq!(
        edited.data(),
        fresh.data(),
        "stale filter after a weight edit"
    );

    coarsen_filter_taps(&mut net);
    let retapped = net
        .try_forward_batch(&batch, cfg)
        .expect("post-tap-edit run");
    assert_ne!(
        edited.data(),
        retapped.data(),
        "the tap edit must reach the output"
    );
    let mut fresh = rebuild(&mut net);
    coarsen_filter_taps(&mut fresh);
    let fresh = fresh.try_forward_batch(&batch, cfg).expect("fresh run");
    assert_eq!(
        retapped.data(),
        fresh.data(),
        "stale filter after a tap edit"
    );

    // two workers share the one prepacked filter: nothing is copied
    let exec = BatchExecutor::new(ExecutorConfig {
        threads: 2,
        chunk: 2,
    })
    .expect("static config is valid");
    let (shared, stats) = exec.run_with_stats(&net, &batch).expect("shared run");
    assert_eq!(shared.data(), retapped.data());
    assert_eq!(
        stats.params_cloned_bytes, 0,
        "workers must share the prepacked filter, not copy it"
    );
}

#[test]
fn quantized_model_parity_after_warmup() {
    // INT8 path: warm the observers with one training batch, then the
    // frozen scales must make batched and sequential outputs identical.
    let mut rng = SeededRng::new(7);
    let spec = ModelSpec::builder()
        .classes(10)
        .input_size(12)
        .algo(ConvAlgo::Winograd { m: 2 })
        .quant(QuantConfig::uniform(BitWidth::INT8))
        .build()
        .expect("static spec");
    let mut net = LeNet::from_spec(&spec, &mut rng).expect("static spec");
    let warm = rng.uniform_tensor(&[4, 1, 12, 12], -1.0, 1.0);
    {
        let mut tape = Tape::new();
        let x = tape.leaf(warm);
        let _ = net.forward(&mut tape, x, true);
    }
    let batch = rng.uniform_tensor(&[BATCH, 1, 12, 12], -1.0, 1.0);
    assert_parity("LeNet INT8 F2", &net, &batch);
}

#[test]
fn per_tap_with_uniform_taps_matches_per_layer_across_the_zoo() {
    // The tap-wise refactor is pinned by the parity matrix: for every
    // architecture and algorithm, an INT8 `PerTap` model whose tap
    // scales are uniform (broadcast from a warmed `PerLayer` model's
    // calibration) must produce bit-identical logits — under every
    // thread count. im2row layers have no Winograd domain, so there the
    // policy must be perfectly inert.
    use winograd_aware::models::{ModelKind, ZooModel};
    use winograd_aware::nn::{
        export_params, export_quant_state, import_params, import_quant_state,
    };
    use winograd_aware::quant::TapPolicy;

    let mut rng = SeededRng::new(11);
    for kind in ModelKind::ALL {
        for algo in ALGOS {
            let builder = ModelSpec::builder()
                .classes(10)
                .algo(algo)
                .quant(QuantConfig::uniform(BitWidth::INT8));
            let spec = match kind {
                ModelKind::LeNet => builder.input_size(12),
                _ => builder.input_size(8).width(0.125),
            }
            .build()
            .expect("static spec");
            let mut per_layer = ZooModel::from_spec(kind, &spec, &mut rng).expect("static spec");

            let [c, h, w] = per_layer.sample_shape();
            // warm the per-layer calibration (observers + BN moments)
            {
                let warm = rng.uniform_tensor(&[4, c, h, w], -1.0, 1.0);
                let mut tape = Tape::new();
                let x = tape.leaf(warm);
                let _ = per_layer.forward(&mut tape, x, true);
            }

            let mut tap_spec = spec.clone();
            tap_spec.quant.transform = TapPolicy::PerTap;
            let mut per_tap =
                ZooModel::from_spec(kind, &tap_spec, &mut SeededRng::new(77)).expect("static spec");
            let params = export_params(&mut per_layer).expect("unique names");
            import_params(&mut per_tap, &params).expect("same geometry");
            let state = export_quant_state(&mut per_layer).expect("unique names");
            import_quant_state(&mut per_tap, &state).expect("calibration broadcasts");

            let batch = rng.uniform_tensor(&[BATCH, c, h, w], -1.0, 1.0);
            let want = per_layer
                .try_forward_batch(
                    &batch,
                    ExecutorConfig {
                        threads: 1,
                        chunk: 2,
                    },
                )
                .expect("per-layer reference");
            for threads in [1usize, 2, 4] {
                let got = per_tap
                    .try_forward_batch(&batch, ExecutorConfig { threads, chunk: 2 })
                    .expect("per-tap batched inference");
                assert_eq!(
                    got.data(),
                    want.data(),
                    "{kind}/{algo} threads {threads}: uniform-tap PerTap must be \
                     bit-identical to PerLayer"
                );
            }
        }
    }
}

#[test]
fn worker_tapes_alias_parameter_buffers_without_copying() {
    // Zero-copy contract: Tensor storage is copy-on-write, so
    // `Tape::param_ref` registers a leaf that *aliases* the parameter's
    // buffer. A probe model records the buffer address every worker tape
    // actually saw — all of them must be pointer-identical to the
    // parameter itself, and the executor's COW-detach stat must be 0.
    use std::sync::Mutex;
    use winograd_aware::nn::{Param, Tape, Var, WaError};

    struct Probe {
        w: Param,
        seen: Mutex<Vec<usize>>,
    }

    impl Infer for Probe {
        fn infer(&self, tape: &mut Tape, x: Var) -> Result<Var, WaError> {
            let w = tape.param_ref(&self.w);
            self.seen
                .lock()
                .expect("probe lock")
                .push(tape.value(w).data_ptr() as usize);
            Ok(tape.matmul(x, w))
        }
    }

    let mut rng = SeededRng::new(9);
    let probe = Probe {
        w: Param::new("w", rng.uniform_tensor(&[3, 2], -1.0, 1.0)),
        seen: Mutex::new(Vec::new()),
    };
    let batch = rng.uniform_tensor(&[8, 3], -1.0, 1.0);
    let exec = BatchExecutor::new(ExecutorConfig {
        threads: 4,
        chunk: 1,
    })
    .expect("static config is valid");

    let (out, stats) = exec
        .run_with_stats(&probe, &batch)
        .expect("batched inference failed");
    assert_eq!(out.shape(), &[8, 2]);
    assert_eq!(stats.chunks, 8);
    assert_eq!(stats.samples, 8);
    assert_eq!(
        stats.params_cloned_bytes, 0,
        "the read-only inference path must not trigger a single COW detach"
    );

    let want = probe.w.value.data_ptr() as usize;
    let seen = probe.seen.into_inner().expect("probe lock");
    assert_eq!(seen.len(), 8, "one registration per chunk");
    assert!(
        seen.iter().all(|&p| p == want),
        "every worker tape must alias the parameter buffer (no copy): \
         param at {want:#x}, tapes saw {seen:?}"
    );
}

#[test]
fn full_model_inference_is_cow_detach_free() {
    // The whole zoo-model inference pipeline — Winograd transforms,
    // quant sites, reshapes, GEMMs — over shared parameters must never
    // write to a shared buffer: params_cloned_bytes stays 0 for any
    // thread/chunk sharding.
    let mut rng = SeededRng::new(10);
    let net = ResNet18::from_spec(&cifar_spec(ConvAlgo::Winograd { m: 2 }), &mut rng)
        .expect("static spec");
    let batch = rng.uniform_tensor(&[4, 3, 8, 8], -1.0, 1.0);
    for (threads, chunk) in [(1usize, 1usize), (2, 1), (4, 2)] {
        let exec =
            BatchExecutor::new(ExecutorConfig { threads, chunk }).expect("static config is valid");
        let (_, stats) = exec
            .run_with_stats(&net, &batch)
            .expect("batched inference failed");
        assert_eq!(
            stats.params_cloned_bytes, 0,
            "threads {threads} chunk {chunk}: inference must share, not copy"
        );
    }
}
