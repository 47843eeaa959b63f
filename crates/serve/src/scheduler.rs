//! The batching scheduler: coalesce concurrent `infer` requests into
//! `[N, C, H, W]` batches and drive them through the [`BatchExecutor`].
//!
//! Connection threads [`submit`](Scheduler::submit) jobs (one tensor +
//! one reply channel each) and block on their reply. A single scheduler
//! thread accumulates jobs per model and flushes a model's queue when
//! either
//!
//! * the accumulated sample count reaches
//!   [`SchedulerConfig::max_batch`], or
//! * the oldest queued job has waited [`SchedulerConfig::max_delay`]
//!   (the batching deadline).
//!
//! A flush concatenates the queued inputs along dimension 0 in arrival
//! order and hands the batch to a *flusher thread*, which runs one
//! [`BatchExecutor`] pass, slices the output back into per-request
//! pieces, and answers every reply channel — so a slow model's
//! inference never stalls batch formation (or another model's flush):
//! different models' batches execute concurrently while the scheduler
//! thread keeps accumulating. Deadlines are swept on *every* wake-up of
//! the scheduler loop, so a partial batch flushes on time even while
//! other models keep the job channel busy. Because the executor's
//! output is bit-identical for any batch partition (see
//! `wa_nn::executor`), a request's logits do not depend on which other
//! requests happened to share its batch — batching is invisible to
//! clients except as throughput.
//!
//! Shape safety: jobs are validated against the model's expected
//! per-sample shape *before* they are queued (see
//! [`Scheduler::submit`]), so one malformed request cannot poison a
//! whole batch.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use wa_nn::{BatchExecutor, ExecutorConfig, WaError};
use wa_obs::TraceId;
use wa_tensor::Tensor;

use crate::protocol::{ErrorBody, ErrorKind};
use crate::registry::ServedModel;

/// Cached handles into the global metrics registry. The per-model
/// counters live on each entry's `ModelStats`; these are the
/// process-wide scheduler aggregates `/v1/metrics` exposes directly.
struct SchedMetrics {
    /// Samples submitted but not yet answered, across all models.
    queue_depth: Arc<wa_obs::Gauge>,
    /// Submit → flush-assembly wait per answered job.
    queue_wait: Arc<wa_obs::Histogram>,
    /// Samples per flushed batch.
    batch_size: Arc<wa_obs::Histogram>,
    /// Executor wall time per flushed batch.
    batch_duration: Arc<wa_obs::Histogram>,
    batches: Arc<wa_obs::Counter>,
    jobs: Arc<wa_obs::Counter>,
    deadline_expired: Arc<wa_obs::Counter>,
    busy_refusals: Arc<wa_obs::Counter>,
}

fn sched_metrics() -> &'static SchedMetrics {
    static M: OnceLock<SchedMetrics> = OnceLock::new();
    M.get_or_init(|| SchedMetrics {
        queue_depth: wa_obs::gauge(
            "wa_scheduler_queue_depth_samples",
            "Samples submitted to the scheduler but not yet answered (all models).",
        ),
        queue_wait: wa_obs::histogram(
            "wa_scheduler_queue_wait_microseconds",
            "Time a job waited between submit and flush assembly.",
        ),
        batch_size: wa_obs::histogram(
            "wa_scheduler_batch_size_samples",
            "Samples per flushed batch.",
        ),
        batch_duration: wa_obs::histogram(
            "wa_scheduler_batch_duration_microseconds",
            "Executor wall time per flushed batch.",
        ),
        batches: wa_obs::counter("wa_scheduler_batches_total", "Batches flushed."),
        jobs: wa_obs::counter("wa_scheduler_jobs_total", "Jobs accepted into the queue."),
        deadline_expired: wa_obs::counter(
            "wa_scheduler_deadline_expired_total",
            "Jobs answered deadline_exceeded instead of running (drop-on-expiry).",
        ),
        busy_refusals: wa_obs::counter(
            "wa_scheduler_busy_refusals_total",
            "Submissions refused with busy by the per-model admission cap.",
        ),
    })
}

/// Hard cap on `max_inflight_flushes` (beyond this a config is a typo,
/// not a deployment).
const MAX_INFLIGHT_FLUSHES: usize = 1024;

/// Hard cap on `max_queue` (samples per model awaiting an answer).
const MAX_QUEUE: usize = 1 << 20;

/// Batching policy.
#[derive(Clone, Copy, Debug)]
pub struct SchedulerConfig {
    /// Flush a model's queue once this many samples are waiting.
    pub max_batch: usize,
    /// Flush whatever is waiting once the oldest job is this old.
    pub max_delay: Duration,
    /// Executor sharding for each flushed batch.
    pub exec: ExecutorConfig,
    /// Maximum number of flusher threads running at once. Each flush
    /// gets its own thread (so different models' batches execute
    /// concurrently), but without a cap a burst of batches could spawn
    /// unboundedly many; at the cap the scheduler thread blocks until
    /// *any* in-flight flush finishes before spawning the next —
    /// backpressure instead of thread exhaustion.
    pub max_inflight_flushes: usize,
    /// Admission control: the most samples one model may have submitted
    /// but not yet answered (queued or mid-flush). A submit that would
    /// exceed the cap is refused with a structured `busy` error *before*
    /// batching, so an overloaded model degrades into prompt refusals
    /// instead of an unbounded queue whose tail latency grows forever.
    pub max_queue: usize,
}

impl Default for SchedulerConfig {
    /// 32-sample batches, a 2 ms batching window, default executor, at
    /// most one in-flight flush per available core, and a 1024-sample
    /// per-model admission cap.
    fn default() -> SchedulerConfig {
        SchedulerConfig {
            max_batch: 32,
            max_delay: Duration::from_millis(2),
            exec: ExecutorConfig::default(),
            max_inflight_flushes: std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1),
            max_queue: 1024,
        }
    }
}

impl SchedulerConfig {
    /// Validates the policy.
    ///
    /// # Errors
    ///
    /// [`WaError::InvalidSpec`] for a zero `max_batch`, a zero or absurd
    /// `max_inflight_flushes`, or an invalid executor config.
    pub fn validate(&self) -> Result<(), WaError> {
        if self.max_batch == 0 {
            return Err(WaError::invalid(
                "SchedulerConfig",
                "max_batch",
                "must be nonzero",
            ));
        }
        if self.max_inflight_flushes == 0 || self.max_inflight_flushes > MAX_INFLIGHT_FLUSHES {
            return Err(WaError::invalid(
                "SchedulerConfig",
                "max_inflight_flushes",
                format!(
                    "max_inflight_flushes must be in 1..={MAX_INFLIGHT_FLUSHES}, got {}",
                    self.max_inflight_flushes
                ),
            ));
        }
        if self.max_queue == 0 || self.max_queue > MAX_QUEUE {
            return Err(WaError::invalid(
                "SchedulerConfig",
                "max_queue",
                format!(
                    "max_queue must be in 1..={MAX_QUEUE}, got {}",
                    self.max_queue
                ),
            ));
        }
        self.exec.validate()
    }
}

/// One queued inference request.
struct Job {
    entry: Arc<ServedModel>,
    input: Tensor,
    reply: Sender<Result<Tensor, ErrorBody>>,
    /// Absolute expiry instant (from the request's `deadline_ms`); a job
    /// past it is answered with `deadline_exceeded` instead of running.
    deadline: Option<Instant>,
    /// The request's trace ID, minted at the serving edge (or by
    /// `submit_with_deadline` for direct callers) — carried through the
    /// flush log so one request's life is reconstructable.
    trace: String,
    /// When the job entered the queue (for the queue-wait histogram).
    submitted: Instant,
}

impl Job {
    /// Whether the job's deadline has passed at `now`.
    fn expired(&self, now: Instant) -> bool {
        self.deadline.is_some_and(|d| d <= now)
    }
}

/// Answers a job and releases its admission-control samples. Every job
/// is answered through here exactly once, so the `queued_samples` gauge
/// can never leak. A dropped receiver just means the client went away.
fn answer(job: Job, result: Result<Tensor, ErrorBody>) {
    let samples = job.input.dim(0) as u64;
    job.entry
        .stats
        .queued_samples
        .fetch_sub(samples, Ordering::Relaxed);
    sched_metrics().queue_depth.add(-(samples as i64));
    let _ = job.reply.send(result);
}

/// Releases a job's admission-control reservation without answering it
/// (the caller reports the failure through its own return value).
fn answer_unsent(job: Job) {
    let samples = job.input.dim(0) as u64;
    job.entry
        .stats
        .queued_samples
        .fetch_sub(samples, Ordering::Relaxed);
    sched_metrics().queue_depth.add(-(samples as i64));
}

/// The structured refusal for submissions racing a shutdown.
fn shutting_down_error() -> ErrorBody {
    ErrorBody::new(
        ErrorKind::ShuttingDown,
        "the scheduler is draining for shutdown and no longer accepts work",
    )
}

/// Answers an expired job with `deadline_exceeded` (drop-on-expiry: the
/// input is never executed).
fn expire(job: Job) {
    job.entry
        .stats
        .deadline_expired
        .fetch_add(1, Ordering::Relaxed);
    sched_metrics().deadline_expired.inc();
    wa_obs::warn(
        "wa_serve::scheduler",
        "deadline expired, job dropped unexecuted",
        &[
            ("trace_id", job.trace.as_str().into()),
            ("model", job.entry.name.as_str().into()),
            ("samples", job.input.dim(0).into()),
        ],
    );
    let body = ErrorBody::new(
        ErrorKind::DeadlineExceeded,
        "the request's deadline_ms expired before inference ran; it was dropped unexecuted",
    );
    answer(job, Err(body));
}

/// A model's accumulating batch.
struct Pending {
    jobs: Vec<Job>,
    samples: usize,
    oldest: Instant,
}

/// Handle to the scheduler thread. Dropping it flushes the queue and
/// joins the thread.
pub struct Scheduler {
    tx: Mutex<Option<Sender<Job>>>,
    worker: Mutex<Option<JoinHandle<()>>>,
    cfg: SchedulerConfig,
    /// Set by [`Scheduler::stop`] *before* the queue is closed, so
    /// submissions racing a shutdown get a structured `shutting_down`
    /// refusal instead of an opaque internal error.
    shutting: AtomicBool,
    /// Flusher threads currently executing a batch (shared with the
    /// scheduler thread; exposed through [`Scheduler::inflight_flushes`]
    /// and the server's `stats` op).
    inflight: Arc<FlushGauge>,
}

/// The in-flight flush gauge: a counter whose decrement wakes the
/// scheduler thread when it is waiting for a free flusher slot. A
/// condvar (not an atomic) so the wait releases as soon as *any* flush
/// finishes, rather than blocking on one specific thread.
#[derive(Debug, Default)]
struct FlushGauge {
    count: Mutex<usize>,
    freed: Condvar,
}

impl FlushGauge {
    fn lock(&self) -> std::sync::MutexGuard<'_, usize> {
        self.count.lock().expect("flush gauge poisoned")
    }

    fn inc(&self) {
        *self.lock() += 1;
    }

    fn dec(&self) {
        *self.lock() -= 1;
        self.freed.notify_all();
    }

    fn get(&self) -> usize {
        *self.lock()
    }

    /// Blocks until fewer than `cap` flushes are executing. No missed
    /// wake-ups: the predicate is re-checked under the same lock
    /// [`FlushGauge::dec`] notifies under.
    fn wait_below(&self, cap: usize) {
        let mut count = self.lock();
        while *count >= cap {
            count = self.freed.wait(count).expect("flush gauge poisoned");
        }
    }
}

impl std::fmt::Debug for Scheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scheduler").field("cfg", &self.cfg).finish()
    }
}

impl Scheduler {
    /// Starts the scheduler thread.
    ///
    /// # Errors
    ///
    /// [`WaError::InvalidSpec`] for an invalid config.
    pub fn start(cfg: SchedulerConfig) -> Result<Scheduler, WaError> {
        cfg.validate()?;
        let exec = BatchExecutor::new(cfg.exec)?;
        let (tx, rx) = channel::<Job>();
        let inflight = Arc::new(FlushGauge::default());
        let loop_inflight = Arc::clone(&inflight);
        let worker = std::thread::Builder::new()
            .name("wa-serve-scheduler".to_string())
            .spawn(move || scheduler_loop(rx, cfg, exec, loop_inflight))
            .expect("spawning the scheduler thread failed");
        Ok(Scheduler {
            tx: Mutex::new(Some(tx)),
            worker: Mutex::new(Some(worker)),
            cfg,
            shutting: AtomicBool::new(false),
            inflight,
        })
    }

    /// The active policy.
    pub fn config(&self) -> SchedulerConfig {
        self.cfg
    }

    /// Flusher threads currently executing a batch — always `<=`
    /// [`SchedulerConfig::max_inflight_flushes`].
    pub fn inflight_flushes(&self) -> usize {
        self.inflight.get()
    }

    /// Validates `input` against `entry`'s expected per-sample shape and
    /// queues it, returning the channel the result will arrive on.
    /// Equivalent to [`Scheduler::submit_with_deadline`] with no
    /// deadline.
    ///
    /// # Errors
    ///
    /// See [`Scheduler::submit_with_deadline`].
    pub fn submit(
        &self,
        entry: Arc<ServedModel>,
        input: Tensor,
    ) -> Result<Receiver<Result<Tensor, ErrorBody>>, ErrorBody> {
        self.submit_with_deadline(entry, input, None)
    }

    /// Validates `input` against `entry`'s expected per-sample shape,
    /// applies admission control, and queues it, returning the channel
    /// the result will arrive on. A job whose `deadline` passes before
    /// its batch runs is answered with a `deadline_exceeded` error
    /// instead of riding a late flush.
    ///
    /// # Errors
    ///
    /// [`ErrorKind::ShapeMismatch`] for an input the model could not
    /// consume (rejected *before* batching, so other requests are
    /// unaffected); [`ErrorKind::Busy`] when the model already has
    /// [`SchedulerConfig::max_queue`] unanswered samples;
    /// [`ErrorKind::ShuttingDown`] once [`Scheduler::stop`] has begun.
    pub fn submit_with_deadline(
        &self,
        entry: Arc<ServedModel>,
        input: Tensor,
        deadline: Option<Instant>,
    ) -> Result<Receiver<Result<Tensor, ErrorBody>>, ErrorBody> {
        self.submit_traced(entry, input, deadline, &TraceId::mint().to_string())
    }

    /// [`Scheduler::submit_with_deadline`] with an explicit trace ID
    /// (the serving edge mints or echoes one per request); the ID rides
    /// the job into the batch-flush log.
    ///
    /// # Errors
    ///
    /// See [`Scheduler::submit_with_deadline`].
    pub fn submit_traced(
        &self,
        entry: Arc<ServedModel>,
        input: Tensor,
        deadline: Option<Instant>,
        trace: &str,
    ) -> Result<Receiver<Result<Tensor, ErrorBody>>, ErrorBody> {
        let want = entry.model.sample_shape();
        let shape = input.shape();
        if shape.len() != 4 || shape[0] == 0 || shape[1..] != want {
            return Err(ErrorBody::new(
                ErrorKind::ShapeMismatch,
                format!(
                    "model `{}` expects [N, {}, {}, {}] input with N >= 1, got {:?}",
                    entry.name, want[0], want[1], want[2], shape
                ),
            ));
        }
        if self.shutting.load(Ordering::SeqCst) {
            return Err(shutting_down_error());
        }
        // admission control: reserve the samples, then undo the
        // reservation if it overshot the cap (the transient overshoot is
        // only ever visible to other submitters as an early refusal)
        let samples = input.dim(0) as u64;
        let cap = self.cfg.max_queue as u64;
        let queued = &entry.stats.queued_samples;
        if queued.fetch_add(samples, Ordering::Relaxed) + samples > cap {
            queued.fetch_sub(samples, Ordering::Relaxed);
            entry.stats.rejected_busy.fetch_add(1, Ordering::Relaxed);
            sched_metrics().busy_refusals.inc();
            wa_obs::warn(
                "wa_serve::scheduler",
                "admission cap hit, refusing with busy",
                &[
                    ("trace_id", trace.into()),
                    ("model", entry.name.as_str().into()),
                    ("samples", samples.into()),
                    ("max_queue", cap.into()),
                ],
            );
            return Err(ErrorBody::new(
                ErrorKind::Busy,
                format!(
                    "model `{}` has {cap} samples awaiting inference (max_queue); retry later",
                    entry.name
                ),
            ));
        }
        sched_metrics().queue_depth.add(samples as i64);
        // admitted: stamp recency so the memory budget's LRU eviction
        // never picks a model that is actively serving traffic
        entry.stats.touch();
        let (reply, result) = channel();
        let job = Job {
            entry,
            input,
            reply,
            deadline,
            trace: trace.to_string(),
            submitted: Instant::now(),
        };
        sched_metrics().jobs.inc();
        let guard = self.tx.lock().expect("scheduler sender lock poisoned");
        let tx = match guard.as_ref() {
            Some(tx) => tx,
            None => {
                answer_unsent(job);
                return Err(shutting_down_error());
            }
        };
        if let Err(send) = tx.send(job) {
            // the scheduler thread is gone: nothing will ever drain the
            // reservation, so release it here (answer_unsent returns the
            // gauge without replying — the error below is the reply)
            answer_unsent(send.0);
            return Err(ErrorBody::new(
                ErrorKind::Internal,
                "the scheduler thread exited",
            ));
        }
        drop(guard);
        Ok(result)
    }

    /// Stops the scheduler deterministically: new submissions are
    /// refused with `shutting_down`, everything already queued is
    /// flushed and answered, and every flusher thread is joined before
    /// this returns. Idempotent.
    pub fn stop(&self) {
        self.shutting.store(true, Ordering::SeqCst);
        self.tx
            .lock()
            .expect("scheduler sender lock poisoned")
            .take();
        if let Some(worker) = self
            .worker
            .lock()
            .expect("scheduler worker lock poisoned")
            .take()
        {
            let _ = worker.join();
        }
    }
}

impl Drop for Scheduler {
    fn drop(&mut self) {
        self.stop();
    }
}

/// The scheduler thread: accumulate → flush on size or deadline, with
/// the actual inference handed to flusher threads (at most
/// `cfg.max_inflight_flushes` at once).
fn scheduler_loop(
    rx: Receiver<Job>,
    cfg: SchedulerConfig,
    exec: BatchExecutor,
    inflight: Arc<FlushGauge>,
) {
    let mut pending: BTreeMap<String, Pending> = BTreeMap::new();
    let mut flushers = Flushers {
        handles: Vec::new(),
        gauge: inflight,
        cap: cfg.max_inflight_flushes,
    };
    loop {
        // sleep until the nearest batching deadline or per-request
        // expiry (or indefinitely when idle)
        let now = Instant::now();
        let batch_due = pending
            .values()
            .map(|p| cfg.max_delay.saturating_sub(p.oldest.elapsed()))
            .min();
        let job_due = pending
            .values()
            .flat_map(|p| p.jobs.iter().filter_map(|j| j.deadline))
            .map(|d| d.saturating_duration_since(now))
            .min();
        let timeout = match (batch_due, job_due) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        let msg = match timeout {
            None => rx.recv().map_err(|_| RecvTimeoutError::Disconnected),
            Some(t) => rx.recv_timeout(t),
        };
        match msg {
            Ok(job) => {
                let samples = job.input.dim(0);
                // a hot reload can swap the model behind a name while
                // jobs for the old instance are queued: flush those
                // rather than run them on a model they weren't meant for
                if let Some(p) = pending.get(&job.entry.name) {
                    if !Arc::ptr_eq(&p.jobs[0].entry, &job.entry) {
                        let p = pending.remove(&job.entry.name).expect("key exists");
                        flushers.spawn(p, &exec);
                    }
                }
                let p = pending
                    .entry(job.entry.name.clone())
                    .or_insert_with(|| Pending {
                        jobs: Vec::new(),
                        samples: 0,
                        oldest: Instant::now(),
                    });
                p.jobs.push(job);
                p.samples += samples;
                if p.samples >= cfg.max_batch {
                    let key = pending
                        .iter()
                        .find(|(_, p)| p.samples >= cfg.max_batch)
                        .map(|(k, _)| k.clone())
                        .expect("the batch just filled");
                    let p = pending.remove(&key).expect("key exists");
                    flushers.spawn(p, &exec);
                }
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => {
                // final drain: answer everything still queued, then wait
                // for every in-flight flush before exiting (stop() joins
                // this thread, so joining here makes stop() synchronous)
                for (_, p) in std::mem::take(&mut pending) {
                    flushers.spawn(p, &exec);
                }
                for h in flushers.handles {
                    let _ = h.join();
                }
                return;
            }
        }
        // sweep expired requests on *every* wake-up (the wake timer
        // includes the earliest job deadline, so expiry is answered
        // promptly even while the queue idles): drop-on-expiry means an
        // expired request is answered now, never executed late
        let now = Instant::now();
        pending.retain(|_, p| {
            if p.jobs.iter().any(|j| j.expired(now)) {
                let jobs = std::mem::take(&mut p.jobs);
                let (expired, live): (Vec<Job>, Vec<Job>) =
                    jobs.into_iter().partition(|j| j.expired(now));
                for job in expired {
                    p.samples -= job.input.dim(0);
                    expire(job);
                }
                p.jobs = live;
            }
            !p.jobs.is_empty()
        });
        // sweep due batching deadlines on *every* wake-up — under
        // sustained traffic the channel never empties, so a Timeout-only
        // sweep would starve partial batches far past max_delay
        let due: Vec<String> = pending
            .iter()
            .filter(|(_, p)| p.oldest.elapsed() >= cfg.max_delay)
            .map(|(k, _)| k.clone())
            .collect();
        for key in due {
            let p = pending.remove(&key).expect("key exists");
            flushers.spawn(p, &exec);
        }
        flushers.reap();
    }
}

/// The scheduler thread's bounded pool of flusher threads.
struct Flushers {
    handles: Vec<JoinHandle<()>>,
    gauge: Arc<FlushGauge>,
    cap: usize,
}

impl Flushers {
    /// Drops handles whose threads have finished.
    fn reap(&mut self) {
        self.handles.retain(|h| !h.is_finished());
    }

    /// Hands an accumulated batch to its own flusher thread so the
    /// scheduler loop can keep accumulating (and other models' batches
    /// can execute concurrently). Fan-out stays bounded twice over: each
    /// flush's executor is capped at `cfg.exec.threads`, and at most
    /// `cap` flusher threads run at once — at the cap this blocks until
    /// *any* in-flight flush finishes (backpressure), so a burst of
    /// batches can no longer spawn unbounded threads and one slow model
    /// cannot stall the scheduler once another slot frees.
    fn spawn(&mut self, p: Pending, exec: &BatchExecutor) {
        self.gauge.wait_below(self.cap);
        self.reap();
        let exec = exec.clone();
        let gauge = Arc::clone(&self.gauge);
        // count the flush before its thread exists so the gauge can
        // never exceed `cap` (only this thread spawns flushes)
        gauge.inc();
        let handle = std::thread::Builder::new()
            .name("wa-serve-flush".to_string())
            .spawn(move || {
                // decrement (and wake the scheduler) even if the flush
                // panics, so the gauge can never get stuck above the
                // true in-flight count
                struct Dec(Arc<FlushGauge>);
                impl Drop for Dec {
                    fn drop(&mut self) {
                        self.0.dec();
                    }
                }
                let _dec = Dec(gauge);
                flush(p, &exec);
            })
            .expect("spawning a flusher thread failed");
        self.handles.push(handle);
    }
}

/// Runs one accumulated batch and routes the per-request outputs back.
///
/// Jobs whose deadline passed between the last sweep and this flush are
/// filtered out *here* — answered `deadline_exceeded` — and the batch
/// runs with the survivors only, so one expired request never delays or
/// perturbs its batch-mates (executor output is partition-invariant).
fn flush(p: Pending, exec: &BatchExecutor) {
    let now = Instant::now();
    let (expired, live): (Vec<Job>, Vec<Job>) = p.jobs.into_iter().partition(|j| j.expired(now));
    for job in expired {
        expire(job);
    }
    if live.is_empty() {
        return;
    }
    let entry = Arc::clone(&live[0].entry);
    let metrics = sched_metrics();
    for job in &live {
        metrics
            .queue_wait
            .record(job.submitted.elapsed().as_micros() as u64);
    }
    let inputs: Vec<&Tensor> = live.iter().map(|j| &j.input).collect();
    let batch = Tensor::concat_dim0(&inputs);
    let samples = batch.dim(0);
    let t0 = Instant::now();
    let result = exec.run(&entry.model, &batch);
    let micros = t0.elapsed().as_micros() as u64;
    entry
        .stats
        .record_batch(live.len() as u64, samples as u64, micros);
    metrics.batches.inc();
    metrics.batch_size.record(samples as u64);
    metrics.batch_duration.record(micros);
    if wa_obs::log_enabled(wa_obs::Level::Info) {
        let trace_ids = live
            .iter()
            .map(|j| j.trace.as_str())
            .collect::<Vec<_>>()
            .join(",");
        wa_obs::info(
            "wa_serve::scheduler",
            "batch flushed",
            &[
                ("model", entry.name.as_str().into()),
                ("requests", live.len().into()),
                ("samples", samples.into()),
                ("micros", micros.into()),
                ("ok", result.is_ok().into()),
                ("trace_ids", trace_ids.into()),
            ],
        );
    }
    match result {
        Ok(output) => {
            // slice the stitched output back into per-request pieces, in
            // the arrival order the batch was assembled in
            let mut row = 0;
            for job in live {
                let n = job.input.dim(0);
                let piece = output.slice_dim0(row, row + n);
                row += n;
                answer(job, Ok(piece));
            }
        }
        Err(e) => {
            // per-job shape validation happened at submit, so a batch
            // failure is a genuine server-side problem; every waiting
            // request learns about it
            let body = ErrorBody::new(
                ErrorKind::Internal,
                format!("batched inference failed: {e}"),
            );
            for job in live {
                answer(job, Err(body.clone()));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;
    use wa_models::{ModelKind, ModelSpec, ZooModel};
    use wa_nn::Infer;
    use wa_tensor::SeededRng;

    fn loaded_lenet(reg: &Registry) -> Arc<ServedModel> {
        // the suites log at warn (real problems only) unless WA_LOG says otherwise
        wa_obs::set_default_max_level(wa_obs::Level::Warn);
        let spec = ModelSpec::builder()
            .classes(10)
            .input_size(12)
            .build()
            .unwrap();
        let mut model =
            ZooModel::from_spec(ModelKind::LeNet, &spec, &mut SeededRng::new(3)).unwrap();
        let doc = model.to_full_checkpoint().unwrap();
        reg.load("mnist", &doc).unwrap()
    }

    fn test_cfg(max_batch: usize, max_delay: Duration) -> SchedulerConfig {
        SchedulerConfig {
            max_batch,
            max_delay,
            exec: ExecutorConfig {
                threads: 2,
                chunk: 2,
            },
            ..SchedulerConfig::default()
        }
    }

    #[test]
    fn config_rejects_zero_batch() {
        let cfg = SchedulerConfig {
            max_batch: 0,
            ..SchedulerConfig::default()
        };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn config_rejects_zero_or_absurd_inflight_cap() {
        for bad in [0usize, MAX_INFLIGHT_FLUSHES + 1] {
            let cfg = SchedulerConfig {
                max_inflight_flushes: bad,
                ..SchedulerConfig::default()
            };
            assert!(cfg.validate().is_err(), "cap {bad} must be rejected");
        }
        assert!(SchedulerConfig::default().validate().is_ok());
        assert!(SchedulerConfig::default().max_inflight_flushes >= 1);
    }

    #[test]
    fn inflight_cap_one_still_answers_bursts_of_batches() {
        // with the cap at 1, a burst of deadline-flushed batches is
        // serialized through one flusher at a time (backpressure) —
        // every request must still be answered, and the gauge may never
        // exceed the cap
        let reg = Registry::new();
        let entry = loaded_lenet(&reg);
        let cfg = SchedulerConfig {
            max_inflight_flushes: 1,
            ..test_cfg(2, Duration::from_millis(1))
        };
        let sched = Scheduler::start(cfg).unwrap();
        let mut rng = SeededRng::new(9);
        let rxs: Vec<_> = (0..6)
            .map(|_| {
                let x = rng.uniform_tensor(&[2, 1, 12, 12], -1.0, 1.0);
                sched.submit(Arc::clone(&entry), x).unwrap()
            })
            .collect();
        for rx in rxs {
            assert!(sched.inflight_flushes() <= 1, "cap exceeded");
            assert!(rx.recv_timeout(Duration::from_secs(30)).unwrap().is_ok());
        }
        assert_eq!(
            entry
                .stats
                .requests
                .load(std::sync::atomic::Ordering::Relaxed),
            6
        );
    }

    #[test]
    fn single_request_is_answered_and_matches_in_process_inference() {
        let reg = Registry::new();
        let entry = loaded_lenet(&reg);
        let sched = Scheduler::start(test_cfg(8, Duration::from_millis(1))).unwrap();
        let mut rng = SeededRng::new(4);
        let x = rng.uniform_tensor(&[2, 1, 12, 12], -1.0, 1.0);
        let want = entry
            .model
            .try_forward_batch(&x, sched.config().exec)
            .unwrap();
        let rx = sched.submit(Arc::clone(&entry), x).unwrap();
        let got = rx.recv().unwrap().unwrap();
        assert_eq!(got.data(), want.data());
        assert_eq!(
            entry
                .stats
                .requests
                .load(std::sync::atomic::Ordering::Relaxed),
            1
        );
    }

    #[test]
    fn bad_shape_is_rejected_before_batching() {
        let reg = Registry::new();
        let entry = loaded_lenet(&reg);
        let sched = Scheduler::start(test_cfg(8, Duration::from_millis(1))).unwrap();
        let bad = Tensor::zeros(&[1, 3, 12, 12]);
        let err = sched.submit(entry, bad).unwrap_err();
        assert_eq!(err.kind, ErrorKind::ShapeMismatch);
        assert!(err.message.contains("mnist"));
    }

    #[test]
    fn concurrent_requests_coalesce_into_one_batch() {
        let reg = Registry::new();
        let entry = loaded_lenet(&reg);
        // max_batch 4 = the total sample count, generous deadline: the
        // flush must be triggered by the size threshold, as one batch
        let sched = Arc::new(Scheduler::start(test_cfg(4, Duration::from_secs(5))).unwrap());
        let mut rng = SeededRng::new(5);
        let inputs: Vec<Tensor> = (0..4)
            .map(|_| rng.uniform_tensor(&[1, 1, 12, 12], -1.0, 1.0))
            .collect();
        let wants: Vec<Tensor> = inputs
            .iter()
            .map(|x| {
                entry
                    .model
                    .try_forward_batch(x, sched.config().exec)
                    .unwrap()
            })
            .collect();
        std::thread::scope(|s| {
            let handles: Vec<_> = inputs
                .iter()
                .map(|x| {
                    let entry = Arc::clone(&entry);
                    let sched = Arc::clone(&sched);
                    s.spawn(move || {
                        sched
                            .submit(entry, x.clone())
                            .unwrap()
                            .recv()
                            .unwrap()
                            .unwrap()
                    })
                })
                .collect();
            for (h, want) in handles.into_iter().zip(&wants) {
                assert_eq!(h.join().unwrap().data(), want.data());
            }
        });
        assert_eq!(
            entry
                .stats
                .batches
                .load(std::sync::atomic::Ordering::Relaxed),
            1
        );
        assert_eq!(
            entry
                .stats
                .requests
                .load(std::sync::atomic::Ordering::Relaxed),
            4
        );
        assert_eq!(
            entry
                .stats
                .samples
                .load(std::sync::atomic::Ordering::Relaxed),
            4
        );
    }

    #[test]
    fn deadline_flushes_a_partial_batch() {
        let reg = Registry::new();
        let entry = loaded_lenet(&reg);
        let sched = Scheduler::start(test_cfg(64, Duration::from_millis(5))).unwrap();
        let x = Tensor::zeros(&[1, 1, 12, 12]);
        let rx = sched.submit(entry, x).unwrap();
        // well under max_batch: only the deadline can flush this
        let got = rx.recv_timeout(Duration::from_secs(10)).unwrap();
        assert!(got.is_ok());
    }

    #[test]
    fn stop_drains_queued_work_and_rejects_stragglers_with_shutting_down() {
        let reg = Registry::new();
        let entry = loaded_lenet(&reg);
        let sched = Scheduler::start(test_cfg(64, Duration::from_secs(5))).unwrap();
        let rx = sched
            .submit(Arc::clone(&entry), Tensor::zeros(&[1, 1, 12, 12]))
            .unwrap();
        sched.stop();
        // stop() is deterministic: by the time it returns every queued
        // job has been flushed and answered and every flusher joined
        assert!(
            rx.try_recv().expect("already answered").is_ok(),
            "queued job must be answered before stop() returns"
        );
        assert_eq!(sched.inflight_flushes(), 0, "all flushers joined");
        assert_eq!(
            entry.stats.queued_samples.load(Ordering::Relaxed),
            0,
            "admission gauge drained"
        );
        // post-stop submissions are structured shutting_down refusals
        let err = sched
            .submit(entry, Tensor::zeros(&[1, 1, 12, 12]))
            .unwrap_err();
        assert_eq!(err.kind, ErrorKind::ShuttingDown);
    }

    #[test]
    fn deadline_zero_is_dropped_unexecuted() {
        // a 0 ms budget can never be met: the request must come back as
        // deadline_exceeded without the model ever running
        let reg = Registry::new();
        let entry = loaded_lenet(&reg);
        // huge max_batch + long max_delay: only expiry can answer this
        let sched = Scheduler::start(test_cfg(64, Duration::from_secs(30))).unwrap();
        let rx = sched
            .submit_with_deadline(
                Arc::clone(&entry),
                Tensor::zeros(&[2, 1, 12, 12]),
                Some(Instant::now()),
            )
            .unwrap();
        let got = rx.recv_timeout(Duration::from_secs(10)).unwrap();
        assert_eq!(got.unwrap_err().kind, ErrorKind::DeadlineExceeded);
        assert_eq!(entry.stats.batches.load(Ordering::Relaxed), 0);
        assert_eq!(entry.stats.deadline_expired.load(Ordering::Relaxed), 1);
        assert_eq!(entry.stats.queued_samples.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn expiry_while_queued_is_answered_promptly_not_at_the_batch_deadline() {
        // the batching window is far away (30 s); the request deadline
        // (20 ms) must wake the scheduler and answer long before it
        let reg = Registry::new();
        let entry = loaded_lenet(&reg);
        let sched = Scheduler::start(test_cfg(64, Duration::from_secs(30))).unwrap();
        let t0 = Instant::now();
        let rx = sched
            .submit_with_deadline(
                Arc::clone(&entry),
                Tensor::zeros(&[1, 1, 12, 12]),
                Some(Instant::now() + Duration::from_millis(20)),
            )
            .unwrap();
        let got = rx.recv_timeout(Duration::from_secs(10)).unwrap();
        assert_eq!(got.unwrap_err().kind, ErrorKind::DeadlineExceeded);
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "expiry must not wait for the batch deadline"
        );
        assert_eq!(entry.stats.deadline_expired.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn expiry_at_flush_time_leaves_batch_mates_unaffected() {
        // Drive `flush` directly with a batch holding one already-expired
        // job between two live ones — the narrow race the flush-time
        // filter exists for (a deadline passing between the last sweep
        // and batch assembly). The expired job must get
        // deadline_exceeded; the live jobs' logits must be bit-identical
        // to a batch that never contained the expired input.
        let reg = Registry::new();
        let entry = loaded_lenet(&reg);
        let cfg = test_cfg(8, Duration::from_millis(1));
        let exec = BatchExecutor::new(cfg.exec).unwrap();
        let mut rng = SeededRng::new(11);
        let a = rng.uniform_tensor(&[2, 1, 12, 12], -1.0, 1.0);
        let doomed = rng.uniform_tensor(&[1, 1, 12, 12], -1.0, 1.0);
        let b = rng.uniform_tensor(&[1, 1, 12, 12], -1.0, 1.0);
        let want_a = entry.model.try_forward_batch(&a, cfg.exec).unwrap();
        let want_b = entry.model.try_forward_batch(&b, cfg.exec).unwrap();

        let mut jobs = Vec::new();
        let mut rxs = Vec::new();
        for (input, deadline) in [
            (a, None),
            (doomed, Some(Instant::now() - Duration::from_millis(1))),
            (b, None),
        ] {
            // mirror submit's bookkeeping so answer()'s decrement balances
            entry
                .stats
                .queued_samples
                .fetch_add(input.dim(0) as u64, Ordering::Relaxed);
            let (reply, rx) = std::sync::mpsc::channel();
            jobs.push(Job {
                entry: Arc::clone(&entry),
                input,
                reply,
                deadline,
                trace: TraceId::mint().to_string(),
                submitted: Instant::now(),
            });
            rxs.push(rx);
        }
        let samples = jobs.iter().map(|j| j.input.dim(0)).sum();
        flush(
            Pending {
                jobs,
                samples,
                oldest: Instant::now(),
            },
            &exec,
        );

        let got_a = rxs[0].recv().unwrap().unwrap();
        assert_eq!(got_a.data(), want_a.data(), "batch-mate before perturbed");
        let err = rxs[1].recv().unwrap().unwrap_err();
        assert_eq!(err.kind, ErrorKind::DeadlineExceeded);
        let got_b = rxs[2].recv().unwrap().unwrap();
        assert_eq!(got_b.data(), want_b.data(), "batch-mate after perturbed");
        // the executor saw one 3-sample batch (2 + 1 live samples)
        assert_eq!(entry.stats.batches.load(Ordering::Relaxed), 1);
        assert_eq!(entry.stats.samples.load(Ordering::Relaxed), 3);
        assert_eq!(entry.stats.queued_samples.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn admission_cap_refuses_with_busy_before_batching() {
        let reg = Registry::new();
        let entry = loaded_lenet(&reg);
        let cfg = SchedulerConfig {
            max_queue: 4,
            ..test_cfg(64, Duration::from_secs(30))
        };
        let sched = Scheduler::start(cfg).unwrap();
        // 4 samples fill the cap exactly
        let rx1 = sched
            .submit(Arc::clone(&entry), Tensor::zeros(&[2, 1, 12, 12]))
            .unwrap();
        let rx2 = sched
            .submit(Arc::clone(&entry), Tensor::zeros(&[2, 1, 12, 12]))
            .unwrap();
        // the 5th sample is refused before batching
        let err = sched
            .submit(Arc::clone(&entry), Tensor::zeros(&[1, 1, 12, 12]))
            .unwrap_err();
        assert_eq!(err.kind, ErrorKind::Busy);
        assert!(err.message.contains("max_queue"), "{}", err.message);
        assert_eq!(entry.stats.rejected_busy.load(Ordering::Relaxed), 1);
        // draining the queue frees the budget again
        sched.stop();
        assert!(rx1.recv().unwrap().is_ok());
        assert!(rx2.recv().unwrap().is_ok());
        assert_eq!(entry.stats.queued_samples.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn config_rejects_zero_or_absurd_max_queue() {
        for bad in [0usize, MAX_QUEUE + 1] {
            let cfg = SchedulerConfig {
                max_queue: bad,
                ..SchedulerConfig::default()
            };
            assert!(cfg.validate().is_err(), "max_queue {bad} must be rejected");
        }
    }
}
