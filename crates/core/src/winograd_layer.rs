//! The Winograd-aware convolution layer (paper §3.2, Figure 2).

use std::sync::{Arc, Mutex};

use wa_nn::{
    infer_quant, infer_quant_taps, observe_quant, observe_quant_taps, Infer, Layer, Param,
    QuantConfig, QuantStateMut, TapFilter, Tape, Var, WaError,
};
use wa_quant::{
    quantize_i8_tap_major, quantize_i8_taps, BitWidth, Execution, Observer, Requantizer, TapPolicy,
    TapQuant,
};
use wa_tensor::{gemm_i8_prepacked, PackedA, PackedAI8, PackedBI8, SeededRng, Tensor};
use wa_winograd::{TileGeometry, WinogradTransform};

use crate::int8_pipeline::{
    fused_input_pack, fused_requant_output, supports_tile, BackQuant, FrontQuant,
};
use crate::spec::ConvSpec;

/// Identifies one quantization point `Qx` of Figure 2.
#[derive(Clone, Copy)]
enum QuantSite {
    /// Input activations `d`.
    Input,
    /// Spatial weights `g`.
    Weight,
    /// One-sided filter transform `G·g`.
    Gg,
    /// Winograd-domain filter `G·g·Gᵀ`.
    Ggt,
    /// One-sided input transform `Bᵀ·d`.
    Bd,
    /// Winograd-domain input `Bᵀ·d·B`.
    Bdb,
    /// Elementwise product (per-coordinate GEMM output).
    Hadamard,
    /// One-sided output transform `Aᵀ·y`.
    Ay,
    /// Layer output `Aᵀ·y·A`.
    Aya,
}

/// Range observers for every quantization point `Qx` of Figure 2, plus
/// the tap-wise calibration of the two **Winograd-domain** sites. The
/// tensors at `Q(Bᵀ·d·B)` and `Q(G·g·Gᵀ)` are rows of `n²` taps, so under
/// [`TapPolicy::PerTap`] those two sites quantize through [`TapQuant`]
/// (one scale per tap position) instead of their scalar observer; every
/// other site is per-tensor under either policy.
#[derive(Debug)]
struct WinogradObservers {
    input: Observer,
    weight: Observer,
    gg: Observer,  // G·g
    ggt: Observer, // G·g·Gᵀ
    bd: Observer,  // Bᵀ·d
    bdb: Observer, // Bᵀ·d·B
    hadamard: Observer,
    ay: Observer,  // Aᵀ·y
    aya: Observer, // Aᵀ·y·A (layer output)
    /// Tap-wise state for `Bᵀ·d·B` (used iff the policy is `PerTap`).
    bdb_taps: TapQuant,
    /// Tap-wise state for `G·g·Gᵀ` (used iff the policy is `PerTap`).
    ggt_taps: TapQuant,
}

impl WinogradObservers {
    /// Fresh observers for an `n×n` input tile.
    fn new(n: usize) -> WinogradObservers {
        WinogradObservers {
            input: Observer::default(),
            weight: Observer::default(),
            gg: Observer::default(),
            ggt: Observer::default(),
            bd: Observer::default(),
            bdb: Observer::default(),
            hadamard: Observer::default(),
            ay: Observer::default(),
            aya: Observer::default(),
            bdb_taps: TapQuant::new(n),
            ggt_taps: TapQuant::new(n),
        }
    }

    fn site(&self, s: QuantSite) -> &Observer {
        match s {
            QuantSite::Input => &self.input,
            QuantSite::Weight => &self.weight,
            QuantSite::Gg => &self.gg,
            QuantSite::Ggt => &self.ggt,
            QuantSite::Bd => &self.bd,
            QuantSite::Bdb => &self.bdb,
            QuantSite::Hadamard => &self.hadamard,
            QuantSite::Ay => &self.ay,
            QuantSite::Aya => &self.aya,
        }
    }

    fn site_mut(&mut self, s: QuantSite) -> &mut Observer {
        match s {
            QuantSite::Input => &mut self.input,
            QuantSite::Weight => &mut self.weight,
            QuantSite::Gg => &mut self.gg,
            QuantSite::Ggt => &mut self.ggt,
            QuantSite::Bd => &mut self.bd,
            QuantSite::Bdb => &mut self.bdb,
            QuantSite::Hadamard => &mut self.hadamard,
            QuantSite::Ay => &mut self.ay,
            QuantSite::Aya => &mut self.aya,
        }
    }
}

/// Prepacked integer Winograd-domain filter for the [`Execution::Int8`]
/// path: the per-tap `[n², K, C]` `G·g·Gᵀ` blocks re-quantized to `i8`
/// (exact when the weight-side sites are calibrated — the derived values
/// already sit on the quantization grid) and packed once into the
/// [`gemm_i8_prepacked`] left-operand layout (widened i16), together
/// with the per-tap scales they were quantized under (a per-layer site
/// broadcasts its one scale). Packing at cache-build time keeps the
/// per-inference GEMM free of operand widening — the filter is the large
/// static side (`n²·K·C` elements, ~9.4M on a deep ResNet layer), so
/// repacking it per call dominated the integer middle.
#[derive(Debug)]
struct Int8Filter {
    /// Taps in `[n², K, C]` order, prepacked for the integer GEMM.
    packed: PackedAI8,
    /// One scale per tap position (`n²` entries).
    scales: Vec<f32>,
}

/// A warm view of tap-wise calibration state: the state itself if it has
/// observed anything, otherwise a one-off clone warmed on the tensor at
/// hand (the tap-wise analogue of `infer_quant`'s cold-observer
/// fallback).
fn warm_taps(tq: &TapQuant, x: &Tensor) -> TapQuant {
    let mut t = tq.clone();
    if t.observations() == 0 {
        t.observe(x);
    }
    t
}

/// A warm per-layer scale: the observer's settled scale, or the one-off
/// fallback a cold observer would derive from the tensor at hand.
fn warm_scale(obs: &Observer, bits: BitWidth, x: &Tensor) -> f32 {
    if obs.observations() > 0 {
        obs.scale(bits)
    } else {
        let mut tmp = obs.clone();
        tmp.observe(x);
        tmp.scale(bits)
    }
}

/// How the pipeline obtains the Winograd-domain filter `G·g·Gᵀ`.
enum FilterVars {
    /// Spatial weights + `G` registered on this tape: quantize and
    /// transform inline (training, and any path that needs gradients or
    /// observer updates for the weight-side sites).
    Spatial {
        /// Spatial filter `[K, C, r, r]`.
        w: Var,
        /// Filter transform `G` `[n, r]`.
        g: Var,
    },
    /// The already-quantized filter, derived once and prepacked in
    /// per-tap `[n², K, C]` order — the weights are constant across a
    /// batch, so inference reuses one derivation (and one buffer, shared
    /// by handle) for every chunk.
    Packed(Arc<PackedA<f32>>),
}

/// Tape variables for the layer's parameters, registered by the caller
/// (mutably via [`Tape::param`] in training, read-only via
/// [`Tape::param_ref`] in inference).
struct PipelineVars {
    filter: FilterVars,
    at: Var,
    bt: Var,
    bias: Option<Var>,
}

/// Static layer configuration copied out of the struct so the pipeline
/// borrows neither the layer nor its observers.
#[derive(Clone, Copy)]
struct PipelineCfg {
    m: usize,
    r: usize,
    pad: usize,
    in_ch: usize,
    out_ch: usize,
    abits: BitWidth,
    wbits: BitWidth,
}

/// The filter half of the pipeline: quantized spatial weights `wq` →
/// `G·g·Gᵀ` rows `[K·C, n²]`, with the `Q(G·g)` / `Q(G·g·Gᵀ)` sites
/// realized through `quant`. Shared by the inline (training) path and the
/// per-model filter cache, so both derive bit-identical values.
fn filter_u_rows(
    tape: &mut Tape,
    wq: Var,
    g: Var,
    cfg: PipelineCfg,
    quant: &mut dyn FnMut(&mut Tape, Var, BitWidth, QuantSite) -> Var,
) -> Var {
    let _span = wa_obs::stage_span!("winograd.filter_transform");
    let (r, n) = (cfg.r, cfg.m + cfg.r - 1);
    let wrows = cfg.out_ch * cfg.in_ch;
    let w1 = tape.reshape(wq, &[wrows * r, r]);
    let w2 = tape.matmul_nt(w1, g); // g·Gᵀ ≡ (G·gᵀ)ᵀ
    let w2q = quant(tape, w2, cfg.wbits, QuantSite::Gg);
    let w3 = tape.reshape(w2q, &[wrows, r * n]);
    let w4 = tape.tile_transpose(w3, r, n);
    let w5 = tape.reshape(w4, &[wrows * n, r]);
    let w6 = tape.matmul_nt(w5, g);
    let w7 = tape.reshape(w6, &[wrows, n * n]);
    let u_rows = tape.tile_transpose(w7, n, n); // GgGᵀ
    quant(tape, u_rows, cfg.wbits, QuantSite::Ggt)
}

/// The Winograd-aware op pipeline `Y = Aᵀ[(G·g·Gᵀ) ⊙ (Bᵀ·d·B)]A`, shared
/// by the training forward (mutable observers) and the [`Infer`] path
/// (read-only observers): the `quant` callback realizes each `Qx` site
/// for its caller. Site calls happen in the same order as the original
/// single-path forward, so observer statistics evolve identically.
fn winograd_pipeline(
    tape: &mut Tape,
    x: Var,
    vars: PipelineVars,
    cfg: PipelineCfg,
    quant: &mut dyn FnMut(&mut Tape, Var, BitWidth, QuantSite) -> Var,
) -> Var {
    let (batch, in_ch, h, w) = {
        let v = tape.value(x);
        assert_eq!(
            v.ndim(),
            4,
            "WinogradAwareConv2d expects NCHW, got {:?}",
            v.shape()
        );
        (v.dim(0), v.dim(1), v.dim(2), v.dim(3))
    };
    assert_eq!(in_ch, cfg.in_ch, "input channels mismatch");
    let (m, r) = (cfg.m, cfg.r);
    let n = m + r - 1;
    let out_ch = cfg.out_ch;
    let geom = TileGeometry::for_conv(h, w, m, r, cfg.pad);
    let total_tiles = batch * geom.tiles();
    let (abits, wbits) = (cfg.abits, cfg.wbits);

    // -- inputs & parameters, quantized
    let xq = quant(tape, x, abits, QuantSite::Input);
    let wq = match vars.filter {
        FilterVars::Spatial { w, .. } => Some(quant(tape, w, wbits, QuantSite::Weight)),
        FilterVars::Packed(_) => None,
    };
    let (at, bt) = (vars.at, vars.bt);

    // -- input transform BᵀdB (two one-sided products, Qx after each)
    let v_rows = {
        let _span = wa_obs::stage_span!("winograd.input_transform");
        let xp = tape.pad_tiles(xq, geom);
        let tiles = tape.gather_tiles(xp, geom); // [B·T·C, n²]
        let rows = total_tiles * in_ch;
        let t1 = tape.reshape(tiles, &[rows * n, n]);
        let t2 = tape.matmul_nt(t1, bt); // X·B  ≡ (Bᵀ·Xᵀ)ᵀ
        let t2q = quant(tape, t2, abits, QuantSite::Bd);
        let t3 = tape.reshape(t2q, &[rows, n * n]);
        let t4 = tape.tile_transpose(t3, n, n);
        let t5 = tape.reshape(t4, &[rows * n, n]);
        let t6 = tape.matmul_nt(t5, bt);
        let t7 = tape.reshape(t6, &[rows, n * n]);
        let v_rows = tape.tile_transpose(t7, n, n); // BᵀdB
        quant(tape, v_rows, abits, QuantSite::Bdb)
    };

    // -- filter transform GgGᵀ (or the prepacked filter)
    let filter = match (vars.filter, wq) {
        (FilterVars::Spatial { g, .. }, Some(wq)) => {
            TapFilter::Rows(filter_u_rows(tape, wq, g, cfg, quant))
        }
        (FilterVars::Packed(u), _) => TapFilter::Packed(u),
        (FilterVars::Spatial { .. }, None) => unreachable!("wq is Some iff filter is Spatial"),
    };

    // -- Hadamard product + summation across channels, as one GEMM per
    //    Winograd-domain coordinate (Maji et al. 2019 formulation), read
    //    from and written to the transforms' taps-last rows
    let mm = {
        let _span = wa_obs::stage_span!("winograd.gemm");
        let mm = tape.tap_gemm(filter, v_rows, n * n, out_ch, in_ch); // [T, K, n²]
        quant(tape, mm, abits, QuantSite::Hadamard)
    };

    // -- output transform AᵀyA
    let _span = wa_obs::stage_span!("winograd.output_transform");
    let orows = total_tiles * out_ch;
    let m_rows = tape.reshape(mm, &[orows, n * n]);
    let o1 = tape.reshape(m_rows, &[orows * n, n]);
    let o2 = tape.matmul_nt(o1, at); // Y·A
    let o2q = quant(tape, o2, abits, QuantSite::Ay);
    let o3 = tape.reshape(o2q, &[orows, n * m]);
    let o4 = tape.tile_transpose(o3, n, m);
    let o5 = tape.reshape(o4, &[orows * m, n]);
    let o6 = tape.matmul_nt(o5, at);
    let o7 = tape.reshape(o6, &[orows, m * m]);
    let y_rows = tape.tile_transpose(o7, m, m);

    let mut y = tape.assemble_output(y_rows, geom, batch, out_ch);
    if let Some(bv) = vars.bias {
        y = tape.add_bias_chan(y, bv);
    }
    quant(tape, y, abits, QuantSite::Aya)
}

/// A convolution layer evaluated *explicitly* as
/// `Y = Aᵀ[(G·g·Gᵀ) ⊙ (Bᵀ·d·B)]A` with every intermediate
/// fake-quantized, so training sees the numerical error of the Winograd
/// algorithm (the central idea of the paper).
///
/// * **Static** configurations (paper `WAF2`, `WAF4`, …) keep `Aᵀ`, `G`,
///   `Bᵀ` fixed at their Cook-Toom values.
/// * **Flex** configurations (`-flex`) mark them trainable, letting
///   back-propagation reshape the transforms to absorb quantization error
///   — worth up to 10% accuracy at INT8/F4 in the paper.
///
/// Stride is fixed at 1: the paper replaces stride-2 convolutions with
/// max-pool + dense conv because "there is no known equivalent for strided
/// Winograd convolutions" (§5.1).
///
/// # Example
///
/// ```
/// use wa_core::{ConvAlgo, ConvSpec, WinogradAwareConv2d};
/// use wa_nn::{Layer, QuantConfig, Tape};
/// use wa_quant::BitWidth;
/// use wa_tensor::SeededRng;
///
/// let mut rng = SeededRng::new(0);
/// let spec = ConvSpec::builder()
///     .name("wa")
///     .in_channels(3)
///     .out_channels(8)
///     .algo(ConvAlgo::WinogradFlex { m: 4 })
///     .quant(QuantConfig::uniform(BitWidth::INT8))
///     .build()?;
/// let mut layer = WinogradAwareConv2d::from_spec(&spec, &mut rng)?;
/// let mut tape = Tape::new();
/// let x = tape.leaf(rng.uniform_tensor(&[1, 3, 8, 8], -1.0, 1.0));
/// let y = layer.try_forward(&mut tape, x, true)?;
/// assert_eq!(tape.value(y).shape(), &[1, 8, 8, 8]);
/// # Ok::<(), wa_nn::WaError>(())
/// ```
#[derive(Debug)]
pub struct WinogradAwareConv2d {
    /// Spatial filter `[K, C, r, r]` (the layer's *deploy-time* weights —
    /// Winograd-aware training does not change model size, §1).
    pub weight: Param,
    /// Optional bias `[K]`.
    pub bias: Option<Param>,
    /// Output transform `Aᵀ` `[m, n]`; trainable iff `-flex`.
    pub at: Param,
    /// Filter transform `G` `[n, r]`; trainable iff `-flex`.
    pub g: Param,
    /// Input transform `Bᵀ` `[n, n]`; trainable iff `-flex`.
    pub bt: Param,
    /// Quantization applied to weights, activations and every intermediate.
    pub quant: QuantConfig,
    m: usize,
    r: usize,
    pad: usize,
    obs: WinogradObservers,
    /// Memoized quantized Winograd-domain filter `G·g·Gᵀ` for the f32
    /// path, prepacked in per-tap `[n², K, C]` order (the left operand of
    /// [`Tape::tap_gemm`]) and tagged with the [`QuantConfig`] it was
    /// derived under. The weights are constant across a batch, so the
    /// [`Infer`] path derives and packs this once and reuses it for every
    /// chunk of every [`wa_nn::BatchExecutor`] run. It is handed out as
    /// an `Arc` handle: every worker tape reads one buffer, and no call
    /// copies it. Invalidated by every `&mut self` path that can change
    /// what the derivation would produce (`forward`, `visit_params`,
    /// `reset_statistics`, `tap_calibration_mut`) and by a `quant`
    /// change; code that mutates the public parameter fields directly
    /// must call [`WinogradAwareConv2d::invalidate_filter_cache`].
    filter_cache: Mutex<Option<(QuantConfig, Arc<PackedA<f32>>)>>,
    /// Memoized [`Int8Filter`] for the [`Execution::Int8`] path, derived
    /// from the same per-tap filter and shared across
    /// [`wa_nn::BatchExecutor`] workers as an `Arc` handle. An int8
    /// layer holds only this, never the f32 filter. Invalidated together
    /// with `filter_cache`.
    filter_cache_i8: Mutex<Option<(QuantConfig, Arc<Int8Filter>)>>,
}

impl WinogradAwareConv2d {
    /// Creates a Winograd-aware layer `F(m×m, r×r)` from a validated
    /// [`ConvSpec`], with Kaiming weights and Cook-Toom-initialized
    /// transforms (canonical Lavin & Gray matrices for F2/F4 with r = 3).
    ///
    /// The spec's [`crate::ConvAlgo`] selects the tile size `m` and
    /// whether the transforms are learnable (`-flex`).
    ///
    /// # Errors
    ///
    /// [`WaError::UnsupportedAlgo`] if the spec's algorithm is im2row or
    /// violates a Winograd constraint; [`WaError::InvalidSpec`] for bad
    /// geometry.
    pub fn from_spec(spec: &ConvSpec, rng: &mut SeededRng) -> Result<WinogradAwareConv2d, WaError> {
        spec.validate()?;
        let name = &spec.name;
        let weight = Param::new(
            format!("{name}.weight"),
            rng.kaiming_tensor(&[
                spec.out_channels,
                spec.in_channels,
                spec.kernel,
                spec.kernel,
            ]),
        );
        let bias = spec
            .bias
            .then(|| Param::new(format!("{name}.bias"), Tensor::zeros(&[spec.out_channels])));
        Self::from_spec_with_weight(spec, weight, bias)
    }

    /// Builds the layer around existing weight/bias parameters — the
    /// surgery path used to convert a trained direct-convolution model
    /// into its Winograd-aware counterpart (paper Table 1 / Figure 6).
    ///
    /// # Errors
    ///
    /// [`WaError::ShapeMismatch`] if `weight` is not the 4-D
    /// square-kernel `[K, C, r, r]` tensor the spec describes;
    /// [`WaError::UnsupportedAlgo`] if the spec's algorithm is not a
    /// Winograd variant.
    pub fn from_spec_with_weight(
        spec: &ConvSpec,
        weight: Param,
        bias: Option<Param>,
    ) -> Result<WinogradAwareConv2d, WaError> {
        spec.validate()?;
        let Some(m) = spec.algo.tile_m() else {
            return Err(WaError::unsupported(
                spec.algo,
                "WinogradAwareConv2d requires a Winograd algorithm, not im2row",
            ));
        };
        let flex = spec.algo.is_flex();
        let r = spec.kernel;
        let expected = [spec.out_channels, spec.in_channels, r, r];
        if weight.value.shape() != expected {
            return Err(WaError::shape(
                format!("WinogradAwareConv2d `{}` weight", spec.name),
                &expected,
                weight.value.shape(),
            ));
        }
        let name = &spec.name;
        let t = WinogradTransform::canonical(m, r);
        let mk = |suffix: &str, v: &Tensor| {
            if flex {
                Param::new(format!("{name}.{suffix}"), v.clone())
            } else {
                Param::frozen(format!("{name}.{suffix}"), v.clone())
            }
        };
        Ok(WinogradAwareConv2d {
            at: mk("at", t.at()),
            g: mk("g", t.g()),
            bt: mk("bt", t.bt()),
            weight,
            bias,
            quant: spec.quant,
            m,
            r,
            pad: spec.pad,
            obs: WinogradObservers::new(m + r - 1),
            filter_cache: Mutex::new(None),
            filter_cache_i8: Mutex::new(None),
        })
    }

    /// Output tile size `m`.
    pub fn m(&self) -> usize {
        self.m
    }

    /// Filter size `r`.
    pub fn r(&self) -> usize {
        self.r
    }

    /// Input tile size `n = m + r − 1`.
    pub fn input_tile(&self) -> usize {
        self.m + self.r - 1
    }

    /// Whether the transforms are trainable (`-flex`).
    pub fn is_flex(&self) -> bool {
        self.at.trainable
    }

    /// Output channel count.
    pub fn out_channels(&self) -> usize {
        self.weight.value.dim(0)
    }

    /// Input channel count.
    pub fn in_channels(&self) -> usize {
        self.weight.value.dim(1)
    }

    /// The current transform triple (e.g. to persist learned `-flex`
    /// transforms or hand them to the latency model).
    pub fn transform(&self) -> WinogradTransform {
        WinogradTransform::from_matrices(
            self.m,
            self.r,
            self.at.value.clone(),
            self.g.value.clone(),
            self.bt.value.clone(),
        )
    }

    /// Run-time weight-memory growth factor `n²/r²` (1.78× for F2, 4× for
    /// F4 — paper §3.1).
    pub fn weight_memory_factor(&self) -> f64 {
        let n = self.input_tile() as f64;
        (n * n) / (self.r * self.r) as f64
    }

    /// Zero-padding applied by the layer.
    pub fn pad_size(&self) -> usize {
        self.pad
    }

    /// The transform-domain quantization policy in effect.
    pub fn tap_policy(&self) -> TapPolicy {
        self.quant.transform
    }

    /// Read-only view of the tap-wise calibration state of the two
    /// Winograd-domain sites, as `(BᵀdB, G·g·Gᵀ)`. Meaningful when
    /// [`WinogradAwareConv2d::tap_policy`] is [`TapPolicy::PerTap`]; the
    /// state exists (cold) under `PerLayer` too so a policy switch keeps
    /// prior calibration.
    pub fn tap_calibration(&self) -> (&TapQuant, &TapQuant) {
        (&self.obs.bdb_taps, &self.obs.ggt_taps)
    }

    /// Mutable view of the tap-wise calibration state (`(BᵀdB, G·g·Gᵀ)`)
    /// — the hook for installing per-tap bit-width overrides
    /// ([`TapQuant::set_bit_overrides`]) or hand-set ranges. Invalidates
    /// the memoized filter transform, since `G·g·Gᵀ` is derived through
    /// these scales.
    pub fn tap_calibration_mut(&mut self) -> (&mut TapQuant, &mut TapQuant) {
        self.invalidate_filter_cache();
        (&mut self.obs.bdb_taps, &mut self.obs.ggt_taps)
    }

    /// Drops the memoized quantized filter transform. Called internally
    /// by every `&mut self` path of the [`Layer`] API; only needed
    /// explicitly after mutating the public parameter fields (`weight`,
    /// `g`, …) or observers outside that API.
    pub fn invalidate_filter_cache(&mut self) {
        *self
            .filter_cache
            .get_mut()
            .expect("filter cache lock poisoned") = None;
        *self
            .filter_cache_i8
            .get_mut()
            .expect("int8 filter cache lock poisoned") = None;
    }

    /// The quantized `G·g·Gᵀ` for the current weights/quant config,
    /// prepacked in per-tap `[n², K, C]` order. Values are bit-identical
    /// to the inline derivation: the same [`filter_u_rows`] ops run on the
    /// same inputs through the same read-only `Q` sites.
    fn derive_filter(&self) -> PackedA<f32> {
        let cfg = self.pipeline_cfg();
        let policy = self.quant.transform;
        let mut tape = Tape::new();
        let w = tape.param_ref(&self.weight);
        let g = tape.param_ref(&self.g);
        let wq = infer_quant(&mut tape, w, cfg.wbits, self.obs.site(QuantSite::Weight));
        let u = filter_u_rows(
            &mut tape,
            wq,
            g,
            cfg,
            &mut |t, v, bits, site| match (policy, site) {
                (TapPolicy::PerTap, QuantSite::Ggt) => {
                    infer_quant_taps(t, v, bits, &self.obs.ggt_taps)
                }
                _ => infer_quant(t, v, bits, self.obs.site(site)),
            },
        );
        let taps = self.input_tile() * self.input_tile();
        PackedA::pack_taps_last(tape.value(u).data(), taps, cfg.out_ch, cfg.in_ch)
    }

    /// [`WinogradAwareConv2d::derive_filter`], derived the first time and
    /// memoized. The returned handle shares the cached buffer, so
    /// concurrent callers cost one refcount bump each, not a copy.
    fn cached_filter(&self) -> Arc<PackedA<f32>> {
        let mut guard = self
            .filter_cache
            .lock()
            .expect("filter cache lock poisoned");
        if let Some((q, u)) = &*guard {
            if *q == self.quant {
                return u.clone();
            }
        }
        let u = Arc::new(self.derive_filter());
        *guard = Some((self.quant, u.clone()));
        u
    }

    /// Rejects tap bit-widths the `i8` kernel cannot carry (`FP32` or
    /// wider than 8 bits), naming the offending Winograd-domain site.
    fn check_tap_bits(&self, site: &str, bits: &[BitWidth]) -> Result<(), WaError> {
        for &b in bits {
            let bad = match b {
                BitWidth::Fp32 => true,
                b => b.qmax() > i8::MAX as i32,
            };
            if bad {
                return Err(WaError::invalid(
                    "WinogradAwareConv2d",
                    "quant.execution",
                    format!(
                        "`{}`: int8 execution requires every {site} tap at \
                         most 8 bits, got {b}",
                        self.weight.name
                    ),
                ));
            }
        }
        Ok(())
    }

    /// The prepacked integer filter for the current weights/quant config.
    /// Re-quantizing [`WinogradAwareConv2d::derive_filter`] is exact on
    /// calibrated state: the derived values already sit on the `G·g·Gᵀ`
    /// site's grid, so `round(q·s/s) = q` recovers the integers
    /// bit-for-bit. The f32 filter is dropped once quantized. A never-calibrated site instead derives a one-off
    /// scale from the quantized rows themselves, which may drift
    /// sub-quantum from the fake-quant reference. Nothing rejects such a
    /// model: loading and serving an uncalibrated int8 checkpoint takes
    /// this path, so warm the model with one training forward first.
    fn cached_filter_i8(&self) -> Result<Arc<Int8Filter>, WaError> {
        {
            let guard = self
                .filter_cache_i8
                .lock()
                .expect("int8 filter cache lock poisoned");
            if let Some((q, f)) = &*guard {
                if *q == self.quant {
                    return Ok(f.clone());
                }
            }
        }
        let u = self.derive_filter(); // [n², K, C], values on the Ggt grid
        let taps = u.batch();
        let wbits = self.quant.weights;
        // What a cold site observes of the filter is its per-tap max |x|;
        // one taps-last row of those maxima gives any observer the same
        // range as the full filter would.
        let tap_max = || {
            let maxima = (0..taps)
                .map(|t| u.item(t).iter().fold(0.0f32, |m, &v| m.max(v.abs())))
                .collect();
            Tensor::from_vec(maxima, &[1, taps])
        };
        let (u_bits, u_scales) = match self.quant.transform {
            TapPolicy::PerTap => {
                let tq = if self.obs.ggt_taps.observations() > 0 {
                    self.obs.ggt_taps.clone()
                } else {
                    warm_taps(&self.obs.ggt_taps, &tap_max())
                };
                let bits = tq.effective_bits(wbits);
                let scales = tq.scales_for(&bits);
                (bits, scales)
            }
            TapPolicy::PerLayer => {
                let s = if self.obs.ggt.observations() > 0 {
                    self.obs.ggt.scale(wbits)
                } else {
                    warm_scale(&self.obs.ggt, wbits, &tap_max())
                };
                (vec![wbits; taps], vec![s; taps])
            }
        };
        self.check_tap_bits("G·g·Gᵀ", &u_bits)?;
        let q = quantize_i8_tap_major(u.values(), &u_bits, &u_scales);
        let f = Arc::new(Int8Filter {
            packed: PackedAI8::pack(&q, taps, u.m(), u.k()),
            scales: u_scales,
        });
        let mut guard = self
            .filter_cache_i8
            .lock()
            .expect("int8 filter cache lock poisoned");
        *guard = Some((self.quant, f.clone()));
        Ok(f)
    }

    /// The [`Execution::Int8`] inference pass. Numerically the pipeline
    /// is: f32 front half identical to the reference up to `Q(Bᵀ·d·B)`,
    /// then quantize per tap, batched `i8×i8→i32` GEMM against the
    /// memoized integer filter, fixed-point requantize onto the Hadamard
    /// grid, and an f32 back half identical to the reference from there.
    /// Per element the Hadamard-site output is within 1 quantum of its
    /// scale of the reference (exact integer arithmetic plus the
    /// [`Requantizer`]'s ±1 sliver).
    ///
    /// On a **calibrated** layer the halves run as fused eager kernels
    /// ([`fused_input_pack`] / [`fused_requant_output`]) that walk the
    /// tiles once and write straight into the packed GEMM operand /
    /// final output — bit-identical to the op-by-op tape sequence (the
    /// f32 GEMM accumulates in ascending-`k` order, and the fused dot
    /// products replicate it), but without materializing the ~10
    /// intermediate tensors per convolution. A layer with any cold
    /// quantization site falls back to the op-by-op pipeline, whose
    /// observer semantics (one-off scales derived from the tensor at
    /// hand) need the full intermediates.
    fn infer_int8(&self, tape: &mut Tape, x: Var) -> Result<Var, WaError> {
        if let Some(reason) = self.quant.int8_incompatibility() {
            return Err(WaError::invalid(
                "WinogradAwareConv2d",
                "quant.execution",
                format!("`{}`: {reason}", self.weight.name),
            ));
        }
        let cfg = self.pipeline_cfg();
        let (m, r) = (cfg.m, cfg.r);
        let n = m + r - 1;
        let taps = n * n;
        let (batch, h, w_sp) = {
            let v = tape.value(x);
            (v.dim(0), v.dim(2), v.dim(3))
        };
        let geom = TileGeometry::for_conv(h, w_sp, m, r, cfg.pad);
        let total_tiles = batch * geom.tiles();
        let (in_ch, out_ch) = (cfg.in_ch, cfg.out_ch);
        let abits = cfg.abits;

        let warm = self.obs.bd.observations() > 0
            && self.obs.hadamard.observations() > 0
            && self.obs.ay.observations() > 0
            && self.obs.aya.observations() > 0
            && match self.quant.transform {
                TapPolicy::PerTap => self.obs.bdb_taps.observations() > 0,
                TapPolicy::PerLayer => self.obs.bdb.observations() > 0,
            };
        if warm && supports_tile(n, m) {
            return self.infer_int8_fused(tape, x, &geom);
        }

        // -- f32 front half: identical ops to the reference up to (but
        //    not including) the Q(Bᵀ·d·B) site
        let xq = infer_quant(tape, x, abits, &self.obs.input);
        let bt = tape.param_ref(&self.bt);
        let v_pre = {
            let _span = wa_obs::stage_span!("winograd.input_transform");
            let xp = tape.pad_tiles(xq, geom);
            let tiles = tape.gather_tiles(xp, geom); // [B·T·C, n²]
            let rows = total_tiles * in_ch;
            let t1 = tape.reshape(tiles, &[rows * n, n]);
            let t2 = tape.matmul_nt(t1, bt);
            let t2q = infer_quant(tape, t2, abits, &self.obs.bd);
            let t3 = tape.reshape(t2q, &[rows, n * n]);
            let t4 = tape.tile_transpose(t3, n, n);
            let t5 = tape.reshape(t4, &[rows * n, n]);
            let t6 = tape.matmul_nt(t5, bt);
            let t7 = tape.reshape(t6, &[rows, n * n]);
            tape.tile_transpose(t7, n, n) // BᵀdB, pre-quant
        };

        // -- integer middle: Q(Bᵀ·d·B) to i8 per tap, one i8 GEMM per
        //    Winograd coordinate, requantize onto the Hadamard grid
        let filter = self.cached_filter_i8()?;
        let mm_t = {
            let _span = wa_obs::stage_span!("int8.winograd_gemm");
            let v_t = tape.value(v_pre);
            let (v_bits, v_scales) = match self.quant.transform {
                TapPolicy::PerTap => {
                    let tq = warm_taps(&self.obs.bdb_taps, v_t);
                    let bits = tq.effective_bits(abits);
                    let scales = tq.scales_for(&bits);
                    (bits, scales)
                }
                TapPolicy::PerLayer => {
                    let s = warm_scale(&self.obs.bdb, abits, v_t);
                    (vec![abits; taps], vec![s; taps])
                }
            };
            self.check_tap_bits("Bᵀ·d·B", &v_bits)?;
            let qv_rows = quantize_i8_taps(v_t, &v_bits, &v_scales);
            // permute [B·T·C, n²] → [n², C, T], the reference's `v_p`
            let mut v_p = vec![0i8; total_tiles * in_ch * taps];
            for tile in 0..total_tiles {
                for c in 0..in_ch {
                    let src = &qv_rows[(tile * in_ch + c) * taps..][..taps];
                    for (t, &q) in src.iter().enumerate() {
                        v_p[(t * in_ch + c) * total_tiles + tile] = q;
                    }
                }
            }
            let pb = PackedBI8::pack(&v_p, taps, in_ch, total_tiles);
            let mut acc = vec![0i32; taps * out_ch * total_tiles];
            gemm_i8_prepacked(&filter.packed, &pb, &mut acc);
            let block = out_ch * total_tiles;
            let s_h = if self.obs.hadamard.observations() > 0 {
                self.obs.hadamard.scale(abits)
            } else {
                // cold one-off: dequantize the accumulator and let a
                // scratch observer derive the range, like infer_quant
                // would from the f32 product
                let mut pre = Tensor::zeros(&[taps, out_ch, total_tiles]);
                let pd = pre.data_mut();
                for (t, chunk) in pd.chunks_mut(block).enumerate() {
                    let sq = filter.scales[t] as f64 * v_scales[t] as f64;
                    for (d, &a) in chunk.iter_mut().zip(&acc[t * block..]) {
                        *d = (a as f64 * sq) as f32;
                    }
                }
                let mut tmp = self.obs.hadamard.clone();
                tmp.observe(&pre);
                tmp.scale(abits)
            };
            // requantize straight into the taps-last [T, K, n²] rows the
            // output transform reads
            let qmax_h = abits.qmax();
            let mut mm = Tensor::zeros(&[total_tiles, out_ch, taps]);
            let md = mm.data_mut();
            for (t, chunk) in acc.chunks_exact(block).enumerate() {
                let req =
                    Requantizer::new(filter.scales[t] as f64 * v_scales[t] as f64 / s_h as f64);
                for (k, row) in chunk.chunks_exact(total_tiles).enumerate() {
                    for (tile, &a) in row.iter().enumerate() {
                        md[(tile * out_ch + k) * taps + t] =
                            req.apply_clamped(a, qmax_h) as f32 * s_h;
                    }
                }
            }
            mm
        };

        // -- f32 back half: identical ops to the reference from the
        //    Hadamard product onwards
        let mm = tape.leaf(mm_t);
        let at = tape.param_ref(&self.at);
        let _span = wa_obs::stage_span!("winograd.output_transform");
        let orows = total_tiles * out_ch;
        let m_rows = tape.reshape(mm, &[orows, taps]);
        let o1 = tape.reshape(m_rows, &[orows * n, n]);
        let o2 = tape.matmul_nt(o1, at);
        let o2q = infer_quant(tape, o2, abits, &self.obs.ay);
        let o3 = tape.reshape(o2q, &[orows, n * m]);
        let o4 = tape.tile_transpose(o3, n, m);
        let o5 = tape.reshape(o4, &[orows * m, n]);
        let o6 = tape.matmul_nt(o5, at);
        let o7 = tape.reshape(o6, &[orows, m * m]);
        let y_rows = tape.tile_transpose(o7, m, m);
        let mut y = tape.assemble_output(y_rows, geom, batch, out_ch);
        if let Some(b) = self.bias.as_ref() {
            let bv = tape.param_ref(b);
            y = tape.add_bias_chan(y, bv);
        }
        Ok(infer_quant(tape, y, abits, &self.obs.aya))
    }

    /// The fused [`Execution::Int8`] pass for a calibrated layer: one
    /// eager tile walk per half plus the prepacked integer GEMM. Every
    /// quantization site must be warm and `n ≤ MAX_TILE` (the caller's
    /// dispatch guarantees both). Bit-identical to the op-by-op path —
    /// the `int8_pipeline` unit tests pin the equivalence with `==`.
    fn infer_int8_fused(
        &self,
        tape: &mut Tape,
        x: Var,
        geom: &TileGeometry,
    ) -> Result<Var, WaError> {
        let n = geom.tile();
        let taps = n * n;
        let abits = self.quant.activations;
        let qmax_a = abits.qmax();
        let (batch, in_ch, out_ch) = (
            tape.value(x).dim(0),
            self.in_channels(),
            self.out_channels(),
        );
        let total_tiles = batch * geom.tiles();
        let filter = self.cached_filter_i8()?;

        let xq = infer_quant(tape, x, abits, &self.obs.input);

        // per-tap grids at Q(Bᵀ·d·B) — the sites are warm by dispatch
        let (v_bits, v_scales) = match self.quant.transform {
            TapPolicy::PerTap => {
                let bits = self.obs.bdb_taps.effective_bits(abits);
                let scales = self.obs.bdb_taps.scales_for(&bits);
                (bits, scales)
            }
            TapPolicy::PerLayer => (vec![abits; taps], vec![self.obs.bdb.scale(abits); taps]),
        };
        self.check_tap_bits("Bᵀ·d·B", &v_bits)?;
        let v_qmaxes: Vec<i32> = v_bits.iter().map(|b| b.qmax()).collect();

        let mut pb = PackedBI8::zeroed(taps, in_ch, total_tiles);
        {
            let _span = wa_obs::stage_span!("winograd.input_transform");
            let fq = FrontQuant {
                s_bd: self.obs.bd.scale(abits),
                qmax_bd: qmax_a,
                v_scales: &v_scales,
                v_qmaxes: &v_qmaxes,
            };
            fused_input_pack(tape.value(xq), &self.bt.value, geom, &fq, &mut pb);
        }

        let mut acc = vec![0i32; taps * out_ch * total_tiles];
        {
            let _span = wa_obs::stage_span!("int8.winograd_gemm");
            gemm_i8_prepacked(&filter.packed, &pb, &mut acc);
        }

        let s_h = self.obs.hadamard.scale(abits);
        let reqs: Vec<Requantizer> = (0..taps)
            .map(|t| Requantizer::new(filter.scales[t] as f64 * v_scales[t] as f64 / s_h as f64))
            .collect();
        let y = {
            let _span = wa_obs::stage_span!("winograd.output_transform");
            let bq = BackQuant {
                reqs: &reqs,
                s_h,
                qmax_h: qmax_a,
                s_ay: self.obs.ay.scale(abits),
                qmax_ay: qmax_a,
                s_aya: self.obs.aya.scale(abits),
                qmax_aya: qmax_a,
            };
            fused_requant_output(
                &acc,
                &self.at.value,
                geom,
                batch,
                out_ch,
                self.bias.as_ref().map(|b| b.value.data()),
                &bq,
            )
        };
        Ok(tape.leaf(y))
    }

    fn pipeline_cfg(&self) -> PipelineCfg {
        PipelineCfg {
            m: self.m,
            r: self.r,
            pad: self.pad,
            in_ch: self.in_channels(),
            out_ch: self.out_channels(),
            abits: self.quant.activations,
            wbits: self.quant.weights,
        }
    }

    fn check_input(&self, shape: &[usize]) -> Result<(), WaError> {
        if shape.len() != 4 || shape[1] != self.in_channels() {
            return Err(WaError::shape(
                format!("WinogradAwareConv2d `{}` input", self.weight.name),
                &[0, self.in_channels(), 0, 0],
                shape,
            ));
        }
        if shape[2] + 2 * self.pad < self.r || shape[3] + 2 * self.pad < self.r {
            return Err(WaError::shape(
                format!(
                    "WinogradAwareConv2d `{}` spatial extent vs kernel",
                    self.weight.name
                ),
                &[self.r, self.r],
                &shape[2..],
            ));
        }
        Ok(())
    }
}

impl Layer for WinogradAwareConv2d {
    fn try_forward(&mut self, tape: &mut Tape, x: Var, train: bool) -> Result<Var, WaError> {
        self.check_input(tape.value(x).shape())?;
        Ok(self.forward(tape, x, train))
    }

    fn forward(&mut self, tape: &mut Tape, x: Var, train: bool) -> Var {
        // the pass may update observers (and training will mutate the
        // weights afterwards), so the memoized filter transform is stale
        self.invalidate_filter_cache();
        let cfg = self.pipeline_cfg();
        let vars = PipelineVars {
            filter: FilterVars::Spatial {
                w: tape.param(&mut self.weight),
                g: tape.param(&mut self.g),
            },
            at: tape.param(&mut self.at),
            bt: tape.param(&mut self.bt),
            bias: self.bias.as_mut().map(|b| tape.param(b)),
        };
        let policy = self.quant.transform;
        let obs = &mut self.obs;
        winograd_pipeline(
            tape,
            x,
            vars,
            cfg,
            &mut |t, v, bits, site| match (policy, site) {
                (TapPolicy::PerTap, QuantSite::Bdb) => {
                    observe_quant_taps(t, v, bits, &mut obs.bdb_taps, train)
                }
                (TapPolicy::PerTap, QuantSite::Ggt) => {
                    observe_quant_taps(t, v, bits, &mut obs.ggt_taps, train)
                }
                _ => observe_quant(t, v, bits, obs.site_mut(site), train),
            },
        )
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.weight);
        if let Some(b) = &mut self.bias {
            f(b);
        }
        f(&mut self.at);
        f(&mut self.g);
        f(&mut self.bt);
        // visitors get `&mut Param` (optimizer steps, checkpoint
        // imports), so the memoized filter transform may now be stale
        self.invalidate_filter_cache();
    }

    fn reset_statistics(&mut self) {
        for site in [
            QuantSite::Input,
            QuantSite::Weight,
            QuantSite::Gg,
            QuantSite::Ggt,
            QuantSite::Bd,
            QuantSite::Bdb,
            QuantSite::Hadamard,
            QuantSite::Ay,
            QuantSite::Aya,
        ] {
            self.obs.site_mut(site).reset();
        }
        // tap resets clear ranges but keep per-tap bit-width overrides
        // (configuration, not statistics)
        self.obs.bdb_taps.reset();
        self.obs.ggt_taps.reset();
        self.invalidate_filter_cache();
    }

    fn visit_quant_state(&mut self, f: &mut dyn FnMut(&str, QuantStateMut<'_>)) {
        let prefix = self.weight.name.trim_end_matches(".weight").to_string();
        let per_tap = self.quant.transform == TapPolicy::PerTap;
        let obs = &mut self.obs;
        let sites: [(&str, &mut Observer); 7] = [
            ("input", &mut obs.input),
            ("weight", &mut obs.weight),
            ("gg", &mut obs.gg),
            ("bd", &mut obs.bd),
            ("hadamard", &mut obs.hadamard),
            ("ay", &mut obs.ay),
            ("aya", &mut obs.aya),
        ];
        for (suffix, o) in sites {
            f(&format!("{prefix}.q.{suffix}"), QuantStateMut::Observer(o));
        }
        // the two Winograd-domain sites surface the state the active
        // policy actually quantizes through
        if per_tap {
            f(
                &format!("{prefix}.q.bdb"),
                QuantStateMut::Taps(&mut obs.bdb_taps),
            );
            f(
                &format!("{prefix}.q.ggt"),
                QuantStateMut::Taps(&mut obs.ggt_taps),
            );
        } else {
            f(
                &format!("{prefix}.q.bdb"),
                QuantStateMut::Observer(&mut obs.bdb),
            );
            f(
                &format!("{prefix}.q.ggt"),
                QuantStateMut::Observer(&mut obs.ggt),
            );
        }
        // visitors get mutable calibration state (checkpoint imports),
        // so the memoized filter transform may now be stale; read-only
        // visitors (checkpoint export) pay one re-derivation on the next
        // inference — exports happen at load/save time, not per request
        self.invalidate_filter_cache();
    }
}

impl Infer for WinogradAwareConv2d {
    fn infer(&self, tape: &mut Tape, x: Var) -> Result<Var, WaError> {
        self.check_input(tape.value(x).shape())?;
        if self.quant.execution == Execution::Int8 {
            return self.infer_int8(tape, x);
        }
        let cfg = self.pipeline_cfg();
        let vars = PipelineVars {
            filter: FilterVars::Packed(self.cached_filter()),
            at: tape.param_ref(&self.at),
            bt: tape.param_ref(&self.bt),
            bias: self.bias.as_ref().map(|b| tape.param_ref(b)),
        };
        let policy = self.quant.transform;
        Ok(winograd_pipeline(
            tape,
            x,
            vars,
            cfg,
            &mut |t, v, bits, site| match (policy, site) {
                (TapPolicy::PerTap, QuantSite::Bdb) => {
                    infer_quant_taps(t, v, bits, &self.obs.bdb_taps)
                }
                (TapPolicy::PerTap, QuantSite::Ggt) => {
                    infer_quant_taps(t, v, bits, &self.obs.ggt_taps)
                }
                _ => infer_quant(t, v, bits, self.obs.site(site)),
            },
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conv_layer::ConvAlgo;
    use wa_quant::BitWidth;
    use wa_tensor::conv2d_direct;

    fn spec(
        in_ch: usize,
        out_ch: usize,
        m: usize,
        r: usize,
        flex: bool,
        quant: QuantConfig,
    ) -> ConvSpec {
        let algo = if flex {
            ConvAlgo::WinogradFlex { m }
        } else {
            ConvAlgo::Winograd { m }
        };
        ConvSpec::builder()
            .name("wa")
            .in_channels(in_ch)
            .out_channels(out_ch)
            .kernel(r)
            .pad(1)
            .algo(algo)
            .quant(quant)
            .build()
            .unwrap()
    }

    fn fwd(layer: &mut WinogradAwareConv2d, x: &Tensor, train: bool) -> Tensor {
        let mut tape = Tape::new();
        let xv = tape.leaf(x.clone());
        let y = layer.forward(&mut tape, xv, train);
        tape.value(y).clone()
    }

    #[test]
    fn fp32_matches_direct_convolution() {
        let mut rng = SeededRng::new(1);
        for m in [2usize, 4] {
            let mut layer = WinogradAwareConv2d::from_spec(
                &spec(3, 4, m, 3, false, QuantConfig::FP32),
                &mut rng,
            )
            .unwrap();
            let x = rng.uniform_tensor(&[2, 3, 8, 8], -1.0, 1.0);
            let got = fwd(&mut layer, &x, false);
            let want = conv2d_direct(&x, &layer.weight.value, None, 1, 1);
            assert_eq!(got.shape(), want.shape());
            for (a, b) in got.data().iter().zip(want.data()) {
                assert!((a - b).abs() < 1e-3, "F{}: {} vs {}", m, a, b);
            }
        }
    }

    #[test]
    fn odd_spatial_sizes_with_tile_waste() {
        let mut rng = SeededRng::new(2);
        let mut layer =
            WinogradAwareConv2d::from_spec(&spec(2, 3, 4, 3, false, QuantConfig::FP32), &mut rng)
                .unwrap();
        let x = rng.uniform_tensor(&[1, 2, 7, 9], -1.0, 1.0);
        let got = fwd(&mut layer, &x, false);
        let want = conv2d_direct(&x, &layer.weight.value, None, 1, 1);
        assert_eq!(got.shape(), want.shape());
        for (a, b) in got.data().iter().zip(want.data()) {
            assert!((a - b).abs() < 1e-3, "{} vs {}", a, b);
        }
    }

    #[test]
    fn int8_f4_shows_winograd_error_while_f2_is_mild() {
        // Single-layer version of Table 1: quantize all intermediates and
        // compare with direct conv of the same (unquantized) weights.
        let mut rng = SeededRng::new(3);
        let x = rng.uniform_tensor(&[1, 4, 8, 8], -1.0, 1.0);
        let mut rel_err = |m: usize| {
            let mut layer = WinogradAwareConv2d::from_spec(
                &spec(4, 4, m, 3, false, QuantConfig::uniform(BitWidth::INT8)),
                &mut rng.fork(m as u64),
            )
            .unwrap();
            // warm up observers
            let _ = fwd(&mut layer, &x, true);
            let got = fwd(&mut layer, &x, false);
            let want = conv2d_direct(&x, &layer.weight.value, None, 1, 1);
            let num: f64 = got
                .data()
                .iter()
                .zip(want.data())
                .map(|(a, b)| ((a - b) as f64).powi(2))
                .sum();
            let den: f64 = want.data().iter().map(|v| (*v as f64).powi(2)).sum();
            (num / den).sqrt()
        };
        let e2 = rel_err(2);
        let e4 = rel_err(4);
        assert!(
            e2 < e4,
            "INT8 error must grow with tile size: F2 {} vs F4 {}",
            e2,
            e4
        );
    }

    #[test]
    fn flex_transforms_receive_gradients_static_do_not() {
        let mut rng = SeededRng::new(4);
        for flex in [true, false] {
            let mut layer = WinogradAwareConv2d::from_spec(
                &spec(2, 2, 2, 3, flex, QuantConfig::FP32),
                &mut rng,
            )
            .unwrap();
            let mut tape = Tape::new();
            let x = tape.leaf(rng.uniform_tensor(&[1, 2, 4, 4], -1.0, 1.0));
            let y = layer.forward(&mut tape, x, true);
            let loss = tape.sq_sum(y);
            let grads = tape.backward(loss);
            layer.visit_params(&mut |p| p.absorb(&grads));
            let bt_grad = layer.bt.grad.is_some();
            let w_grad = layer.weight.grad.is_some();
            assert!(w_grad, "weights always receive gradients");
            assert_eq!(bt_grad, flex, "transform gradient presence must track flex");
            if flex {
                assert!(layer.bt.grad.as_ref().unwrap().max_abs() > 0.0);
            }
        }
    }

    #[test]
    fn surgery_preserves_weights() {
        let mut rng = SeededRng::new(5);
        let w = Param::new("w", rng.kaiming_tensor(&[4, 3, 3, 3]));
        let wv = w.value.clone();
        let layer = WinogradAwareConv2d::from_spec_with_weight(
            &spec(3, 4, 4, 3, true, QuantConfig::FP32),
            w,
            None,
        )
        .unwrap();
        assert_eq!(layer.weight.value, wv);
        assert!((layer.weight_memory_factor() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn bias_is_applied() {
        let mut rng = SeededRng::new(6);
        let w = Param::new("w", Tensor::zeros(&[2, 1, 3, 3]));
        let b = Param::new("b", Tensor::from_vec(vec![1.5, -0.5], &[2]));
        let mut layer = WinogradAwareConv2d::from_spec_with_weight(
            &spec(1, 2, 2, 3, false, QuantConfig::FP32),
            w,
            Some(b),
        )
        .unwrap();
        let x = rng.uniform_tensor(&[1, 1, 4, 4], -1.0, 1.0);
        let y = fwd(&mut layer, &x, false);
        for i in 0..16 {
            assert!((y.data()[i] - 1.5).abs() < 1e-4);
            assert!((y.data()[16 + i] + 0.5).abs() < 1e-4);
        }
    }

    #[test]
    fn transform_accessor_roundtrips() {
        let mut rng = SeededRng::new(7);
        let layer =
            WinogradAwareConv2d::from_spec(&spec(1, 1, 4, 3, false, QuantConfig::FP32), &mut rng)
                .unwrap();
        let t = layer.transform();
        assert_eq!(t.m(), 4);
        assert_eq!(t.bt(), WinogradTransform::canonical(4, 3).bt());
    }
}
