//! # wa-obs
//!
//! The workspace's observability layer: a process-wide metrics registry
//! (typed counters, gauges and log-linear histograms), a span API for
//! per-stage wall-time attribution, structured leveled JSON logging, and
//! trace-ID minting — all dependency-free and cheap on the hot path.
//!
//! Every other crate can depend on this one (it depends on nothing), so
//! the GEMM kernel, the conv pipelines, the batch executor and the
//! serving edge all report into one [`MetricsRegistry`] that
//! `wa-serve` exposes as Prometheus-style text at `GET /v1/metrics`.
//!
//! # Design rules
//!
//! * **Registration is the cold path, recording is the hot path.** The
//!   registry dedupes series by `(name, labels)` under a mutex; the
//!   returned [`Counter`] / [`Gauge`] / [`Histogram`] handles are plain
//!   relaxed atomics, lock-free to record into. Hot call sites cache
//!   their handle in a `OnceLock` (the [`stage_span!`] macro does this
//!   per call site).
//! * **Cheap when disabled.** Spans check one relaxed [`AtomicBool`]
//!   (see [`set_spans_enabled`]) before touching the clock; log calls
//!   below the `WA_LOG` threshold cost one relaxed load.
//! * **Telemetry, not synchronization.** Every atomic here is
//!   `Ordering::Relaxed`; a scrape racing a record may be one event
//!   stale, never torn (histogram `_count` is derived from the bucket
//!   counts themselves, so bucket sums and counts always agree).
//!
//! # Example
//!
//! ```
//! use wa_obs::{counter, stage_span};
//!
//! let hits = counter("doc_example_hits_total", "Times the doctest ran.");
//! hits.inc();
//! {
//!     let _span = stage_span!("doc_example.work"); // records on drop
//!     // ... the stage being timed ...
//! }
//! let text = wa_obs::global().render();
//! assert!(text.contains("doc_example_hits_total"));
//! assert!(text.contains("stage=\"doc_example.work\""));
//! ```
//!
//! [`AtomicBool`]: std::sync::atomic::AtomicBool

mod hist;
mod log;
mod metrics;
mod span;
mod trace;

pub mod expo;

pub use hist::{HistBucket, LogHistogram};
pub use log::{
    debug, error, info, log, log_enabled, set_default_max_level, set_max_level, trace as trace_log,
    warn, Level, LogValue,
};
pub use metrics::{
    counter, counter_with, gauge, gauge_with, global, histogram, histogram_with, Counter, Gauge,
    Histogram, MetricsRegistry,
};
pub use span::{set_spans_enabled, span, spans_enabled, stage_histogram, Span, STAGE_HISTOGRAM};
pub use trace::{is_valid_trace_id, TraceId};
