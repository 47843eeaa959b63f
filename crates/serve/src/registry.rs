//! The model registry: named, concurrently-shared, instrumented models.
//!
//! Loading installs a [`ZooModel`] reconstructed from a one-document
//! [`FullCheckpoint`] behind an [`Arc`], so any number of connection
//! threads and the batching scheduler can read it simultaneously
//! (inference goes through the read-only `Infer` trait). Each entry
//! carries its own [`ModelStats`] counters, updated lock-free by the
//! scheduler as batches complete.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};
use std::time::Instant;

use wa_models::ZooModel;
use wa_nn::FullCheckpoint;
use wa_tensor::Json;

use crate::protocol::{ErrorBody, ErrorKind};

/// Process-wide monotonic recency clock: every admitted inference
/// stamps its model, and the eviction policy removes the idle model
/// with the smallest stamp (least recently used).
static USE_CLOCK: AtomicU64 = AtomicU64::new(1);

/// The bytes a checkpoint's parameters occupy once resident (dense
/// `f32` storage) — what the `--max-model-bytes` budget accounts.
pub fn checkpoint_resident_bytes(doc: &FullCheckpoint) -> u64 {
    doc.params
        .params
        .values()
        .map(|t| 4 * t.data().len() as u64)
        .sum()
}

/// Lifecycle totals for one model *name*, surviving eviction and
/// reload (the [`ServedModel`] entry itself is replaced on each load).
#[derive(Debug, Default)]
pub struct ModelLifecycle {
    /// Checkpoints loaded under this name (reloads included).
    pub loads: AtomicU64,
    /// Loads that replaced a live model (hot reloads).
    pub reloads: AtomicU64,
    /// Times the memory budget evicted this name.
    pub evictions: AtomicU64,
}

impl ModelLifecycle {
    fn to_json(&self) -> Json {
        Json::obj([
            (
                "loads",
                Json::from(self.loads.load(Ordering::Relaxed) as f64),
            ),
            (
                "reloads",
                Json::from(self.reloads.load(Ordering::Relaxed) as f64),
            ),
            (
                "evictions",
                Json::from(self.evictions.load(Ordering::Relaxed) as f64),
            ),
        ])
    }
}

/// Per-model serving counters (relaxed atomics: the numbers are
/// monotonic telemetry, not synchronization) plus a full-history
/// log-linear latency histogram for p50/p99 estimates.
///
/// The histogram replaced an older 256-sample ring: the ring forgot
/// history, so p99 under sustained load reflected only the last few
/// seconds and a brief stall could vanish from the quantiles entirely.
/// The `wa_obs` histogram accumulates every batch since load in fixed
/// memory with ~3% quantile error, records lock-free, and renders
/// directly as Prometheus bucket series.
///
/// The histogram lives on the entry (not in the global registry) so each
/// `Registry` instance — and each test — starts from zero; `wa-serve`'s
/// `/v1/metrics` collector renders it with a `model` label at scrape
/// time.
#[derive(Debug, Default)]
pub struct ModelStats {
    /// `infer` requests answered.
    pub requests: AtomicU64,
    /// Samples pushed through the model.
    pub samples: AtomicU64,
    /// Executor batches formed (`< requests` means the scheduler
    /// coalesced concurrent requests).
    pub batches: AtomicU64,
    /// Time spent inside the executor, in microseconds.
    pub busy_micros: AtomicU64,
    /// Samples submitted to the scheduler but not yet answered (queued
    /// or inside a flush) — the gauge admission control caps.
    pub queued_samples: AtomicU64,
    /// Requests answered with `deadline_exceeded` instead of running.
    pub deadline_expired: AtomicU64,
    /// Requests refused with `busy` by the admission-control queue cap.
    pub rejected_busy: AtomicU64,
    /// Recency stamp of the last admitted inference, drawn from the
    /// registry's monotonic use-clock; the LRU eviction key.
    pub last_used: AtomicU64,
    latency: wa_obs::Histogram,
}

impl ModelStats {
    /// Stamps this model as just-used (called on every admitted
    /// inference and at load time, so a fresh model is never the
    /// immediate eviction victim).
    pub fn touch(&self) {
        self.last_used
            .store(USE_CLOCK.fetch_add(1, Ordering::Relaxed), Ordering::Relaxed);
    }

    /// Records one flushed batch.
    pub fn record_batch(&self, requests: u64, samples: u64, micros: u64) {
        self.requests.fetch_add(requests, Ordering::Relaxed);
        self.samples.fetch_add(samples, Ordering::Relaxed);
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.busy_micros.fetch_add(micros, Ordering::Relaxed);
        self.latency.record(micros);
    }

    /// The `q`-quantile (0.0..=1.0) of all batch latencies since load in
    /// microseconds, or `None` before the first flushed batch.
    pub fn latency_quantile_micros(&self, q: f64) -> Option<u64> {
        self.latency.quantile(q)
    }

    /// A point-in-time copy of the batch-latency histogram — what the
    /// `/v1/metrics` collector renders under a `model` label.
    pub fn latency_snapshot(&self) -> wa_obs::LogHistogram {
        self.latency.snapshot()
    }

    /// The counters as a JSON object.
    pub fn to_json(&self) -> Json {
        let req = self.requests.load(Ordering::Relaxed);
        let samples = self.samples.load(Ordering::Relaxed);
        let batches = self.batches.load(Ordering::Relaxed);
        let micros = self.busy_micros.load(Ordering::Relaxed);
        let quantile_ms = |q: f64| match self.latency_quantile_micros(q) {
            Some(us) => Json::from(us as f64 / 1e3),
            None => Json::Null,
        };
        Json::obj([
            ("requests", Json::from(req as f64)),
            ("samples", Json::from(samples as f64)),
            ("batches", Json::from(batches as f64)),
            ("busy_micros", Json::from(micros as f64)),
            (
                "queued_samples",
                Json::from(self.queued_samples.load(Ordering::Relaxed) as f64),
            ),
            (
                "deadline_expired",
                Json::from(self.deadline_expired.load(Ordering::Relaxed) as f64),
            ),
            (
                "rejected_busy",
                Json::from(self.rejected_busy.load(Ordering::Relaxed) as f64),
            ),
            (
                "latency",
                Json::obj([
                    ("p50_ms", quantile_ms(0.50)),
                    ("p99_ms", quantile_ms(0.99)),
                    ("count", Json::from(self.latency.count() as f64)),
                ]),
            ),
            (
                "samples_per_second",
                if micros > 0 {
                    Json::from(samples as f64 / (micros as f64 / 1e6))
                } else {
                    Json::Null
                },
            ),
        ])
    }
}

/// One registry entry: the runnable model plus its counters.
#[derive(Debug)]
pub struct ServedModel {
    /// Registry name the model is served under.
    pub name: String,
    /// The reconstructed model (read-only after load).
    pub model: ZooModel,
    /// Serving counters.
    pub stats: ModelStats,
    /// Parameter bytes this model keeps resident (the budget's unit).
    pub resident_bytes: u64,
    /// End-to-end load cost in microseconds: checkpoint read + parse
    /// (when the server resolved a path) plus model build + import.
    pub load_micros: u64,
    /// Which source format the checkpoint arrived in
    /// (`"inline"` / `"json"` / `"binary"`).
    pub format: String,
    /// Name-keyed lifecycle totals, shared across reloads.
    pub lifecycle: Arc<ModelLifecycle>,
}

/// Name → model map shared by every connection thread, with an
/// optional resident-bytes budget enforced by LRU eviction of idle
/// models (`wa-serve --max-model-bytes`).
#[derive(Debug, Default)]
pub struct Registry {
    models: RwLock<BTreeMap<String, Arc<ServedModel>>>,
    /// Resident-parameter-bytes budget; `None` = unlimited.
    max_model_bytes: Option<u64>,
    /// Lifecycle counters by model *name*, surviving eviction/reload.
    lifecycle: RwLock<BTreeMap<String, Arc<ModelLifecycle>>>,
}

/// Global load/unload/evict counters (process-wide lifecycle totals;
/// the per-model counters live on each entry's [`ModelStats`] and
/// [`ModelLifecycle`]).
struct RegistryMetrics {
    loads: Arc<wa_obs::Counter>,
    unloads: Arc<wa_obs::Counter>,
    evictions: Arc<wa_obs::Counter>,
}

fn registry_metrics() -> &'static RegistryMetrics {
    static M: OnceLock<RegistryMetrics> = OnceLock::new();
    M.get_or_init(|| RegistryMetrics {
        loads: wa_obs::counter(
            "wa_model_loads_total",
            "Models (re)loaded into a registry from a checkpoint.",
        ),
        unloads: wa_obs::counter("wa_model_unloads_total", "Models removed from a registry."),
        evictions: wa_obs::counter(
            "wa_model_evictions_total",
            "Idle models evicted by the --max-model-bytes memory budget.",
        ),
    })
}

impl Registry {
    /// Creates an empty registry with no memory budget.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Creates an empty registry capped at `max_model_bytes` resident
    /// parameter bytes (`None` = unlimited). When a load would exceed
    /// the cap, idle models are evicted least-recently-used first; if
    /// nothing idle can be evicted the load is refused with `busy`.
    pub fn with_budget(max_model_bytes: Option<u64>) -> Registry {
        Registry {
            max_model_bytes,
            ..Registry::default()
        }
    }

    /// The configured resident-bytes budget (`None` = unlimited).
    pub fn budget(&self) -> Option<u64> {
        self.max_model_bytes
    }

    /// Parameter bytes currently resident across all loaded models.
    pub fn resident_bytes_total(&self) -> u64 {
        self.read().values().map(|m| m.resident_bytes).sum()
    }

    /// The lifecycle counter block for `name`, created on first use and
    /// retained after eviction so `evictions` totals survive the entry.
    fn lifecycle_for(&self, name: &str) -> Arc<ModelLifecycle> {
        let mut map = self.lifecycle.write().expect("lifecycle lock poisoned");
        Arc::clone(map.entry(name.to_string()).or_default())
    }

    /// Every model name that has ever been loaded, with its lifecycle
    /// totals (evicted names included — their counters outlive the
    /// entry), for collectors that render labeled series.
    pub fn lifecycle_entries(&self) -> Vec<(String, Arc<ModelLifecycle>)> {
        self.lifecycle
            .read()
            .expect("lifecycle lock poisoned")
            .iter()
            .map(|(k, v)| (k.clone(), Arc::clone(v)))
            .collect()
    }

    /// Reconstructs a model from a one-document checkpoint and installs
    /// it under `name`, replacing any previous model of that name (the
    /// replaced model finishes its in-flight batches through its `Arc`).
    ///
    /// # Errors
    ///
    /// [`ErrorBody`] describing the bad checkpoint (unknown arch, invalid
    /// spec, shape-mismatched params), or [`ErrorKind::Busy`] when the
    /// memory budget cannot make room.
    pub fn load(&self, name: &str, doc: &FullCheckpoint) -> Result<Arc<ServedModel>, ErrorBody> {
        self.load_with_origin(name, doc, "inline", 0)
    }

    /// [`Registry::load`] with source attribution: `format` names where
    /// the checkpoint came from (`"inline"` / `"json"` / `"binary"`) and
    /// `parse_micros` is the time the caller already spent reading and
    /// parsing it, folded into the entry's `load_micros`.
    ///
    /// # Errors
    ///
    /// As [`Registry::load`].
    pub fn load_with_origin(
        &self,
        name: &str,
        doc: &FullCheckpoint,
        format: &str,
        parse_micros: u64,
    ) -> Result<Arc<ServedModel>, ErrorBody> {
        let resident_bytes = checkpoint_resident_bytes(doc);
        if let Some(budget) = self.max_model_bytes {
            if resident_bytes > budget {
                return Err(ErrorBody::new(
                    ErrorKind::Busy,
                    format!(
                        "checkpoint `{name}` needs {resident_bytes} resident bytes but the \
                         --max-model-bytes budget is {budget}"
                    ),
                ));
            }
        }
        let build_start = Instant::now();
        let model = ZooModel::from_full_checkpoint(doc).map_err(ErrorBody::from)?;
        let load_micros = parse_micros + build_start.elapsed().as_micros() as u64;
        let lifecycle = self.lifecycle_for(name);
        let entry = Arc::new(ServedModel {
            name: name.to_string(),
            model,
            stats: ModelStats::default(),
            resident_bytes,
            load_micros,
            format: format.to_string(),
            lifecycle: Arc::clone(&lifecycle),
        });
        entry.stats.touch();
        let mut evicted: Vec<String> = Vec::new();
        {
            let mut models = self.write();
            if let Some(budget) = self.max_model_bytes {
                // Bytes that stay resident alongside the new model — a
                // same-name reload replaces its old entry, so exclude it.
                let mut used: u64 = models
                    .iter()
                    .filter(|(k, _)| k.as_str() != name)
                    .map(|(_, m)| m.resident_bytes)
                    .sum();
                while used + resident_bytes > budget {
                    let victim = models
                        .iter()
                        .filter(|(k, m)| {
                            k.as_str() != name
                                && m.stats.queued_samples.load(Ordering::Relaxed) == 0
                        })
                        .min_by_key(|(_, m)| m.stats.last_used.load(Ordering::Relaxed))
                        .map(|(k, _)| k.clone());
                    let Some(victim) = victim else {
                        return Err(ErrorBody::new(
                            ErrorKind::Busy,
                            format!(
                                "cannot make room for `{name}` ({resident_bytes} bytes): \
                                 {used} bytes resident, every other model is busy, and the \
                                 --max-model-bytes budget is {budget}"
                            ),
                        ));
                    };
                    let gone = models.remove(&victim).expect("eviction victim vanished");
                    used -= gone.resident_bytes;
                    gone.lifecycle.evictions.fetch_add(1, Ordering::Relaxed);
                    registry_metrics().evictions.inc();
                    evicted.push(victim);
                }
            }
            let replaced = models
                .insert(name.to_string(), Arc::clone(&entry))
                .is_some();
            lifecycle.loads.fetch_add(1, Ordering::Relaxed);
            if replaced {
                lifecycle.reloads.fetch_add(1, Ordering::Relaxed);
            }
        }
        registry_metrics().loads.inc();
        for victim in &evicted {
            wa_obs::info(
                "wa_serve::registry",
                "model evicted",
                &[
                    ("model", victim.as_str().into()),
                    ("evicted_for", name.into()),
                ],
            );
        }
        wa_obs::info(
            "wa_serve::registry",
            "model loaded",
            &[
                ("model", name.into()),
                ("arch", entry.model.kind().name().into()),
                ("format", format.into()),
            ],
        );
        Ok(entry)
    }

    /// Looks a model up by name.
    ///
    /// # Errors
    ///
    /// [`ErrorKind::UnknownModel`] listing what *is* loaded.
    pub fn get(&self, name: &str) -> Result<Arc<ServedModel>, ErrorBody> {
        let models = self.read();
        models.get(name).cloned().ok_or_else(|| {
            ErrorBody::new(
                ErrorKind::UnknownModel,
                format!(
                    "no model `{name}` is loaded (loaded: [{}])",
                    models.keys().cloned().collect::<Vec<_>>().join(", ")
                ),
            )
        })
    }

    /// Removes a model.
    ///
    /// # Errors
    ///
    /// [`ErrorKind::UnknownModel`] if nothing is loaded under `name`.
    pub fn unload(&self, name: &str) -> Result<(), ErrorBody> {
        if self.write().remove(name).is_some() {
            registry_metrics().unloads.inc();
            wa_obs::info(
                "wa_serve::registry",
                "model unloaded",
                &[("model", name.into())],
            );
            Ok(())
        } else {
            Err(ErrorBody::new(
                ErrorKind::UnknownModel,
                format!("no model `{name}` is loaded"),
            ))
        }
    }

    /// Number of loaded models.
    pub fn len(&self) -> usize {
        self.read().len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.read().is_empty()
    }

    /// One JSON row per loaded model (name, arch, expected sample shape,
    /// class count) — the `list_models` response body.
    pub fn list_json(&self) -> Json {
        Json::Arr(
            self.read()
                .values()
                .map(|m| {
                    Json::obj([
                        ("name", Json::from(m.name.as_str())),
                        ("arch", Json::from(m.model.kind().name())),
                        (
                            "sample_shape",
                            Json::arr(m.model.sample_shape().iter().copied()),
                        ),
                        ("classes", Json::from(m.model.spec().classes)),
                    ])
                })
                .collect(),
        )
    }

    /// A point-in-time snapshot of every loaded model (name order), for
    /// collectors that render per-model series outside the lock.
    pub fn entries(&self) -> Vec<Arc<ServedModel>> {
        self.read().values().cloned().collect()
    }

    /// One JSON row per loaded model with its counters — the `stats`
    /// response body.
    pub fn stats_json(&self) -> Json {
        Json::Arr(
            self.read()
                .values()
                .map(|m| {
                    Json::obj([
                        ("name", Json::from(m.name.as_str())),
                        ("format", Json::from(m.format.as_str())),
                        ("resident_bytes", Json::from(m.resident_bytes as f64)),
                        ("load_micros", Json::from(m.load_micros as f64)),
                        ("lifecycle", m.lifecycle.to_json()),
                        ("stats", m.stats.to_json()),
                    ])
                })
                .collect(),
        )
    }

    fn read(&self) -> std::sync::RwLockReadGuard<'_, BTreeMap<String, Arc<ServedModel>>> {
        self.models.read().expect("registry lock poisoned")
    }

    fn write(&self) -> std::sync::RwLockWriteGuard<'_, BTreeMap<String, Arc<ServedModel>>> {
        self.models.write().expect("registry lock poisoned")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wa_models::{ModelKind, ModelSpec, ZooModel};
    use wa_tensor::SeededRng;

    fn lenet_doc() -> FullCheckpoint {
        // the suites log at warn (real problems only) unless WA_LOG says otherwise
        wa_obs::set_default_max_level(wa_obs::Level::Warn);
        let spec = ModelSpec::builder()
            .classes(10)
            .input_size(12)
            .build()
            .unwrap();
        let mut model =
            ZooModel::from_spec(ModelKind::LeNet, &spec, &mut SeededRng::new(0)).unwrap();
        model.to_full_checkpoint().unwrap()
    }

    #[test]
    fn load_get_unload_cycle() {
        let reg = Registry::new();
        assert!(reg.is_empty());
        reg.load("mnist", &lenet_doc()).unwrap();
        assert_eq!(reg.len(), 1);
        let entry = reg.get("mnist").unwrap();
        assert_eq!(entry.model.kind(), ModelKind::LeNet);
        reg.unload("mnist").unwrap();
        assert!(matches!(
            reg.get("mnist").unwrap_err().kind,
            ErrorKind::UnknownModel
        ));
        assert!(matches!(
            reg.unload("mnist").unwrap_err().kind,
            ErrorKind::UnknownModel
        ));
    }

    #[test]
    fn unknown_model_error_names_what_is_loaded() {
        let reg = Registry::new();
        reg.load("a", &lenet_doc()).unwrap();
        let err = reg.get("b").unwrap_err();
        assert!(err.message.contains("`b`"));
        assert!(err.message.contains('a'));
    }

    #[test]
    fn bad_checkpoint_is_a_structured_error() {
        let reg = Registry::new();
        let mut doc = lenet_doc();
        doc.arch = "mystery-net".to_string();
        let err = reg.load("x", &doc).unwrap_err();
        assert_eq!(err.kind, ErrorKind::InvalidSpec);
        assert!(reg.is_empty());
    }

    #[test]
    fn budget_evicts_the_least_recently_used_idle_model() {
        let doc = lenet_doc();
        let one = checkpoint_resident_bytes(&doc);
        assert!(one > 0);
        // Room for two resident models, not three.
        let reg = Registry::with_budget(Some(2 * one));
        reg.load("a", &doc).unwrap();
        reg.load("b", &doc).unwrap();
        assert_eq!(reg.resident_bytes_total(), 2 * one);
        // Touch `a` so `b` becomes the LRU victim.
        reg.get("a").unwrap().stats.touch();
        reg.load("c", &doc).unwrap();
        assert_eq!(reg.len(), 2);
        assert!(reg.get("b").is_err(), "LRU model `b` should be evicted");
        assert!(reg.get("a").is_ok() && reg.get("c").is_ok());
        let lifecycles: BTreeMap<_, _> = reg.lifecycle_entries().into_iter().collect();
        assert_eq!(lifecycles["b"].evictions.load(Ordering::Relaxed), 1);
        assert_eq!(lifecycles["a"].evictions.load(Ordering::Relaxed), 0);
        assert_eq!(lifecycles["c"].loads.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn budget_refuses_when_every_other_model_is_busy() {
        let doc = lenet_doc();
        let one = checkpoint_resident_bytes(&doc);
        let reg = Registry::with_budget(Some(one));
        reg.load("hot", &doc).unwrap();
        // In-flight samples pin the only possible victim.
        reg.get("hot")
            .unwrap()
            .stats
            .queued_samples
            .store(3, Ordering::Relaxed);
        let err = reg.load("next", &doc).unwrap_err();
        assert_eq!(err.kind, ErrorKind::Busy);
        assert!(err.message.contains("busy"), "message: {}", err.message);
        assert!(reg.get("hot").is_ok(), "busy model must not be evicted");
        assert!(reg.get("next").is_err());
    }

    #[test]
    fn oversized_checkpoint_is_refused_outright() {
        let doc = lenet_doc();
        let one = checkpoint_resident_bytes(&doc);
        let reg = Registry::with_budget(Some(one - 1));
        let err = reg.load("big", &doc).unwrap_err();
        assert_eq!(err.kind, ErrorKind::Busy);
        assert!(err.message.contains("--max-model-bytes"));
        assert!(reg.is_empty());
    }

    #[test]
    fn reload_replaces_in_place_and_counts_as_reload() {
        let doc = lenet_doc();
        let one = checkpoint_resident_bytes(&doc);
        // Budget fits exactly one copy: a same-name reload must not
        // double-count the entry it replaces.
        let reg = Registry::with_budget(Some(one));
        reg.load("m", &doc).unwrap();
        reg.load("m", &doc).unwrap();
        assert_eq!(reg.len(), 1);
        assert_eq!(reg.resident_bytes_total(), one);
        let lifecycles: BTreeMap<_, _> = reg.lifecycle_entries().into_iter().collect();
        assert_eq!(lifecycles["m"].loads.load(Ordering::Relaxed), 2);
        assert_eq!(lifecycles["m"].reloads.load(Ordering::Relaxed), 1);
        assert_eq!(lifecycles["m"].evictions.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn stats_rows_carry_load_provenance() {
        let reg = Registry::new();
        reg.load_with_origin("m", &lenet_doc(), "binary", 1234)
            .unwrap();
        let rows = reg.stats_json();
        let row = &rows.as_arr().unwrap()[0];
        assert_eq!(row.get("format").unwrap().as_str(), Some("binary"));
        assert!(row.get("load_micros").unwrap().as_f64().unwrap() >= 1234.0);
        assert!(row.get("resident_bytes").unwrap().as_f64().unwrap() > 0.0);
        let lc = row.get("lifecycle").unwrap();
        assert_eq!(lc.get("loads").and_then(|v| v.as_f64()), Some(1.0));
    }

    #[test]
    fn latency_quantiles_cover_the_full_history() {
        let stats = ModelStats::default();
        assert_eq!(stats.latency_quantile_micros(0.5), None);
        for us in 1..=100u64 {
            stats.record_batch(1, 1, us);
        }
        assert_eq!(stats.latency_quantile_micros(0.0), Some(1));
        let p100 = stats.latency_quantile_micros(1.0).unwrap();
        assert!((97..=100).contains(&p100), "p100 was {p100}");
        let p50 = stats.latency_quantile_micros(0.5).unwrap();
        assert!((48..=52).contains(&p50), "p50 was {p50}");
        // Unlike the old 256-sample ring, history never ages out: a flood
        // of fast batches shifts p50 but the early slow tail stays in p99.
        for _ in 0..2048 {
            stats.record_batch(1, 1, 7);
        }
        assert_eq!(stats.latency_quantile_micros(0.5), Some(7));
        let p999 = stats.latency_quantile_micros(0.999).unwrap();
        assert!(p999 >= 90, "slow tail forgotten: p99.9 was {p999}");
        let row = stats.to_json();
        let lat = row.get("latency").expect("latency object");
        assert_eq!(lat.get("p50_ms").and_then(|v| v.as_f64()), Some(0.007));
        assert_eq!(lat.get("count").and_then(|v| v.as_f64()), Some(2148.0));
        let snap = stats.latency_snapshot();
        assert_eq!(snap.count(), 2148);
    }

    #[test]
    fn list_reports_shape_and_arch() {
        let reg = Registry::new();
        reg.load("mnist", &lenet_doc()).unwrap();
        let rows = reg.list_json();
        let row = &rows.as_arr().unwrap()[0];
        assert_eq!(row.get("arch").unwrap().as_str(), Some("lenet"));
        let shape: Vec<f64> = row
            .get("sample_shape")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|v| v.as_f64().unwrap())
            .collect();
        assert_eq!(shape, vec![1.0, 12.0, 12.0]);
    }
}
