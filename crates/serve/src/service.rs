//! The service itself: bounded submission queue, micro-batcher thread,
//! one worker thread per shard, and price reassembly.
//!
//! Threading model:
//!
//! * `submit` runs on the caller's thread. It either enqueues the
//!   request (bounded queue, never blocks) or returns a typed
//!   rejection.
//! * The **batcher** thread sleeps until a full batch's worth of options
//!   is queued, no shard has a batch queued or running (the pool is
//!   idle, so lingering could not fill a batch), the oldest request has
//!   lingered `max_linger` behind in-flight work, or shutdown starts. It
//!   then extracts one micro-batch — splitting requests at the batch
//!   boundary *and at payoff-class changes*, so every batch prices on a
//!   single kernel — counts why it closed (`serve.batches.closed`,
//!   reason `full`, `pool_idle`, `linger` or `shutdown`), picks a shard
//!   by completion horizon, and hands the batch over. Workers wake the
//!   batcher whenever they free shard backlog, so a request lingering
//!   behind in-flight work dispatches as soon as the pool drains.
//! * Each **shard worker** owns one [`PayoffSuite`] (the four compiled
//!   payoff kernels of one device). It drops past-deadline chunks with
//!   [`Error::DeadlineExceeded`], prices the rest in a single
//!   `price_risk` call — Greeks bumps riding in the same device batch —
//!   and scatters [`PricingResponse`]s back through each request's
//!   aggregator. The time a batch spends in the shard queue, from
//!   dispatch to the worker's pop, is its shard wait
//!   (`serve.shard_wait_s`, and a `serve.shard_wait` span when tracing).
//!
//! Failure policy (exercised by `tests/chaos.rs` under injected
//! faults): a retryable error ([`Error::is_retryable`], i.e. an
//! injected [`bop_core::Error::Fault`]) is re-priced locally up to
//! `max_retries` times with exponential backoff accounted on the
//! simulated clock; a batch that exhausts its retries is redispatched
//! to a healthy peer (at most one turn per shard); a shard that
//! exhausts `quarantine_after` consecutive batches is quarantined out
//! of scheduling. Every chunk always reaches its aggregator — filled
//! with prices or failed with a typed error — so callers never hang,
//! and successful results are bit-identical to a fault-free
//! [`PayoffSuite::price_risk`] because injected faults are detected (a
//! faulted command kills the session rather than corrupting results).

use crate::config::ServeConfig;
use crate::request::{PricingRequest, PricingResponse};
use crate::scheduler::ShardScheduler;
use crate::tracing::{RequestId, RequestTracer};
use bop_core::{Error, PayoffSuite, PricingRun, Rejection, RiskRequest};
use bop_finance::OptionParams;
use bop_obs::{Json, MetricsRegistry, SpanCategory, TraceSpan};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// Per-request reassembly state: chunks report back here, callers wait
/// here.
struct Aggregator {
    request_id: RequestId,
    submitted_at: Instant,
    /// Submission time on the tracer clock (seconds since its epoch).
    submitted_s: f64,
    /// Span id reserved for the whole-request span, when tracing.
    root_span: Option<u64>,
    state: Mutex<AggState>,
    done: Condvar,
}

struct AggState {
    responses: Vec<PricingResponse>,
    /// Options not yet priced or failed; 0 means the request finished.
    remaining: usize,
    /// First error wins; later chunks only decrement `remaining`.
    error: Option<Error>,
}

impl Aggregator {
    fn new(
        n_options: usize,
        request_id: RequestId,
        submitted_s: f64,
        root_span: Option<u64>,
    ) -> Aggregator {
        Aggregator {
            request_id,
            submitted_at: Instant::now(),
            submitted_s,
            root_span,
            state: Mutex::new(AggState {
                responses: vec![PricingResponse::pending(); n_options],
                remaining: n_options,
                error: None,
            }),
            done: Condvar::new(),
        }
    }

    /// Record a priced chunk. When this was the last outstanding chunk,
    /// `on_finish` runs with the request's final outcome — under the
    /// state lock, so a `wait`er cannot observe completion before the
    /// finish bookkeeping (metrics, request span) is done — and the
    /// outcome is returned.
    fn fill(
        &self,
        offset: usize,
        responses: &[PricingResponse],
        on_finish: impl FnOnce(&Result<(), Error>),
    ) -> Option<Result<(), Error>> {
        let mut st = self.state.lock().expect("aggregator lock");
        st.responses[offset..offset + responses.len()].copy_from_slice(responses);
        st.remaining -= responses.len();
        self.maybe_finish(&st, on_finish)
    }

    /// Record a failed chunk of `n_options`; `on_finish` as in
    /// [`Aggregator::fill`].
    fn fail(
        &self,
        n_options: usize,
        error: Error,
        on_finish: impl FnOnce(&Result<(), Error>),
    ) -> Option<Result<(), Error>> {
        let mut st = self.state.lock().expect("aggregator lock");
        if st.error.is_none() {
            st.error = Some(error);
        }
        st.remaining -= n_options;
        self.maybe_finish(&st, on_finish)
    }

    fn maybe_finish(
        &self,
        st: &AggState,
        on_finish: impl FnOnce(&Result<(), Error>),
    ) -> Option<Result<(), Error>> {
        if st.remaining > 0 {
            return None;
        }
        let outcome = match &st.error {
            Some(e) => Err(e.clone()),
            None => Ok(()),
        };
        on_finish(&outcome);
        self.done.notify_all();
        Some(outcome)
    }

    fn wait(&self) -> Result<Vec<PricingResponse>, Error> {
        let mut st = self.state.lock().expect("aggregator lock");
        while st.remaining > 0 {
            st = self.done.wait(st).expect("aggregator lock");
        }
        match &st.error {
            Some(e) => Err(e.clone()),
            None => Ok(std::mem::take(&mut st.responses)),
        }
    }
}

/// Handle to a submitted request.
///
/// Dropping the ticket abandons the result (the request still runs and
/// is counted in the metrics); [`Ticket::wait`] blocks until the
/// request's responses — in submission order — are ready.
pub struct Ticket {
    agg: Arc<Aggregator>,
}

impl std::fmt::Debug for Ticket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.agg.state.lock().expect("aggregator lock");
        f.debug_struct("Ticket")
            .field("request_id", &self.agg.request_id)
            .field("n_options", &st.responses.len())
            .field("remaining", &st.remaining)
            .finish()
    }
}

impl Ticket {
    /// The id assigned to this request at admission; every span and
    /// trace annotation the request touches carries it.
    pub fn request_id(&self) -> RequestId {
        self.agg.request_id
    }

    /// Block until the request finishes, returning one
    /// [`PricingResponse`] per submitted [`PricingRequest`], in
    /// submission order.
    ///
    /// # Errors
    /// [`Error::DeadlineExceeded`] if the request outlived its deadline
    /// in the queue; any shard pricing error otherwise.
    pub fn wait(self) -> Result<Vec<PricingResponse>, Error> {
        self.agg.wait()
    }

    /// Block until the request finishes and return bare prices — the
    /// pre-payoff API's result shape.
    ///
    /// # Errors
    /// As [`Ticket::wait`].
    #[deprecated(since = "0.3.0", note = "use `Ticket::wait`, which returns `PricingResponse`s")]
    pub fn wait_prices(self) -> Result<Vec<f64>, Error> {
        Ok(self.agg.wait()?.into_iter().map(|r| r.price).collect())
    }
}

/// A slice of one request, bound for a single micro-batch.
struct Chunk {
    requests: Vec<PricingRequest>,
    /// Offset of this chunk inside its request's response vector.
    offset: usize,
    deadline: Option<Instant>,
    agg: Arc<Aggregator>,
}

struct Batch {
    chunks: Vec<Chunk>,
    n_options: usize,
    /// The payoff class every item in the batch shares (the batcher
    /// splits at class changes so one kernel prices the whole batch).
    class: &'static str,
    /// Shards that have already tried (and failed) to price this batch.
    /// Redispatch stops once every shard has had a turn, so a batch can
    /// never bounce around the pool forever.
    attempts: usize,
    /// Span id of the batch's `serve.batch` linger span, when tracing;
    /// shard waits and execution attempts parent to it.
    span: Option<u64>,
    /// When the batch was last handed to a shard queue, on the tracer
    /// clock; the worker's pop closes the batch's shard wait.
    pushed_s: f64,
}

struct PendingRequest {
    requests: Vec<PricingRequest>,
    /// Items before `cursor` have already been extracted into batches.
    cursor: usize,
    deadline: Option<Instant>,
    enqueued_at: Instant,
    agg: Arc<Aggregator>,
}

struct QueueState {
    queue: VecDeque<PendingRequest>,
    queued_options: usize,
    shutting_down: bool,
}

struct Shared {
    config: ServeConfig,
    scheduler: ShardScheduler,
    state: Mutex<QueueState>,
    /// Wakes the batcher: a submission, shutdown, or freed shard backlog
    /// (a lingering partial batch may close once the pool is idle).
    work_ready: Condvar,
}

impl Shared {
    /// Free `n_options` of `shard`'s backlog and wake the batcher. The
    /// notify runs under the service lock, so it cannot fall between the
    /// batcher's pool-idle check and its wait.
    fn complete(&self, shard: usize, n_options: usize) {
        self.scheduler.complete(shard, n_options);
        let _st = self.state.lock().expect("service lock");
        self.work_ready.notify_one();
    }
}

struct ShardQueue {
    state: Mutex<ShardQueueState>,
    ready: Condvar,
}

struct ShardQueueState {
    batches: VecDeque<Batch>,
    closed: bool,
}

impl ShardQueue {
    fn new() -> ShardQueue {
        ShardQueue {
            state: Mutex::new(ShardQueueState { batches: VecDeque::new(), closed: false }),
            ready: Condvar::new(),
        }
    }

    /// Enqueue a batch, or hand it back if the queue already closed
    /// (shutdown races a redispatch) so the caller can fail its chunks
    /// instead of leaking them — every chunk must reach its aggregator.
    fn push(&self, batch: Batch) -> Result<(), Batch> {
        let mut st = self.state.lock().expect("shard queue lock");
        if st.closed {
            return Err(batch);
        }
        st.batches.push_back(batch);
        self.ready.notify_one();
        Ok(())
    }

    /// Blocking pop; `None` once the queue is closed and drained.
    fn pop(&self) -> Option<Batch> {
        let mut st = self.state.lock().expect("shard queue lock");
        loop {
            if let Some(batch) = st.batches.pop_front() {
                return Some(batch);
            }
            if st.closed {
                return None;
            }
            st = self.ready.wait(st).expect("shard queue lock");
        }
    }

    fn close(&self) {
        let mut st = self.state.lock().expect("shard queue lock");
        st.closed = true;
        self.ready.notify_all();
    }
}

/// A running pricing service. See the crate docs for the pipeline.
pub struct PricingService {
    shared: Arc<Shared>,
    metrics: Arc<MetricsRegistry>,
    tracer: Arc<RequestTracer>,
    next_request_id: AtomicU64,
    shard_queues: Vec<Arc<ShardQueue>>,
    batcher: Option<thread::JoinHandle<()>>,
    workers: Vec<thread::JoinHandle<()>>,
}

impl PricingService {
    /// Start a service over `shards` with a fresh metrics registry.
    ///
    /// # Errors
    /// [`Error::Invalid`] on an empty pool, mismatched lattices, or bad
    /// config; calibration failures propagate.
    pub fn start(shards: Vec<PayoffSuite>, config: ServeConfig) -> Result<PricingService, Error> {
        PricingService::start_with_metrics(shards, config, Arc::new(MetricsRegistry::new()))
    }

    /// Start a service publishing into an existing metrics registry.
    ///
    /// # Errors
    /// As [`PricingService::start`].
    pub fn start_with_metrics(
        shards: Vec<PayoffSuite>,
        config: ServeConfig,
        metrics: Arc<MetricsRegistry>,
    ) -> Result<PricingService, Error> {
        config.validate()?;
        if shards.is_empty() {
            return Err(Error::Invalid("empty shard pool".into()));
        }
        let n = shards[0].n_steps();
        let p = shards[0].precision();
        if shards.iter().any(|a| a.n_steps() != n || a.precision() != p) {
            return Err(Error::Invalid("shards must share lattice size and precision".into()));
        }
        // Calibrate each shard's marginal rate on the probe batch — the
        // same rates MultiAccelerator::split uses to divide a batch.
        let rates: Vec<f64> = shards
            .iter()
            .map(|a| a.project(config.probe_batch).map(|p| p.options_per_s))
            .collect::<Result<_, _>>()?;
        for (i, rate) in rates.iter().enumerate() {
            metrics.set_gauge(
                "serve.shard.rate_options_per_s",
                &[("shard", &i.to_string())],
                *rate,
            );
        }
        let shared = Arc::new(Shared {
            config,
            scheduler: ShardScheduler::new(rates),
            state: Mutex::new(QueueState {
                queue: VecDeque::new(),
                queued_options: 0,
                shutting_down: false,
            }),
            work_ready: Condvar::new(),
        });
        let tracer = Arc::new(RequestTracer::new());
        let shard_queues: Vec<Arc<ShardQueue>> =
            shards.iter().map(|_| Arc::new(ShardQueue::new())).collect();
        let workers = shards
            .into_iter()
            .enumerate()
            .map(|(i, acc)| {
                let queues = shard_queues.clone();
                let shared = shared.clone();
                let metrics = metrics.clone();
                let tracer = tracer.clone();
                thread::spawn(move || worker_loop(i, acc, &queues, &shared, &metrics, &tracer))
            })
            .collect();
        let batcher = {
            let shared = shared.clone();
            let shard_queues = shard_queues.clone();
            let metrics = metrics.clone();
            let tracer = tracer.clone();
            thread::spawn(move || batcher_loop(&shared, &shard_queues, &metrics, &tracer))
        };
        Ok(PricingService {
            shared,
            metrics,
            tracer,
            next_request_id: AtomicU64::new(1),
            shard_queues,
            batcher: Some(batcher),
            workers,
        })
    }

    /// Submit a typed pricing request — any mix of payoffs and output
    /// sets — and get a [`Ticket`]; never blocks.
    ///
    /// `deadline`, when given, is measured from now: a request still
    /// undispatched past it fails with [`Error::DeadlineExceeded`].
    ///
    /// # Errors
    /// [`Error::Rejected`] when the queue is full or the service is
    /// shutting down; [`Error::Invalid`] on an empty request, an invalid
    /// payoff, or an empty output set.
    pub fn submit(
        &self,
        requests: Vec<PricingRequest>,
        deadline: Option<Duration>,
    ) -> Result<Ticket, Error> {
        if requests.is_empty() {
            return Err(Error::Invalid("empty request".into()));
        }
        for r in &requests {
            r.payoff.validate().map_err(|e| Error::Invalid(e.to_string()))?;
            r.params.validate().map_err(|e| Error::Invalid(e.to_string()))?;
            if r.outputs.is_empty() {
                return Err(Error::Invalid("request with an empty output set".into()));
            }
        }
        let n_options = requests.len();
        let request_id = RequestId(self.next_request_id.fetch_add(1, Ordering::Relaxed));
        let submitted_s = self.tracer.now_s();
        // Reserve the whole-request span id up front so queue-wait and
        // execution spans can parent to it; the span itself is pushed
        // when the last chunk finishes (see `record_finish`).
        let root_span = self.tracer.is_enabled().then(|| self.tracer.next_id());
        let mut st = self.shared.state.lock().expect("service lock");
        if st.shutting_down {
            self.metrics.inc("serve.requests.rejected", &[("reason", "shutdown")], 1);
            return Err(Error::Rejected(Rejection {
                depth: st.queue.len(),
                capacity: self.shared.config.queue_capacity,
                shutting_down: true,
            }));
        }
        if st.queue.len() >= self.shared.config.queue_capacity {
            self.metrics.inc("serve.requests.rejected", &[("reason", "full")], 1);
            return Err(Error::Rejected(Rejection {
                depth: st.queue.len(),
                capacity: self.shared.config.queue_capacity,
                shutting_down: false,
            }));
        }
        let agg = Arc::new(Aggregator::new(n_options, request_id, submitted_s, root_span));
        st.queue.push_back(PendingRequest {
            requests,
            cursor: 0,
            deadline: deadline.map(|d| Instant::now() + d),
            enqueued_at: Instant::now(),
            agg: agg.clone(),
        });
        st.queued_options += n_options;
        self.metrics.inc("serve.requests.accepted", &[], 1);
        publish_queue_gauges(&self.metrics, &st);
        self.shared.work_ready.notify_one();
        Ok(Ticket { agg })
    }

    /// Submit and wait: the synchronous convenience path.
    ///
    /// # Errors
    /// As [`PricingService::submit`] and [`Ticket::wait`].
    pub fn price(&self, requests: Vec<PricingRequest>) -> Result<Vec<PricingResponse>, Error> {
        self.submit(requests, None)?.wait()
    }

    /// Submit bare options priced per their `style` field — the
    /// pre-payoff API.
    ///
    /// # Errors
    /// As [`PricingService::submit`].
    #[deprecated(
        since = "0.3.0",
        note = "use `PricingService::submit` with typed `PricingRequest`s"
    )]
    pub fn submit_options(
        &self,
        options: Vec<OptionParams>,
        deadline: Option<Duration>,
    ) -> Result<Ticket, Error> {
        self.submit(options.into_iter().map(PricingRequest::from_style).collect(), deadline)
    }

    /// Price bare options per their `style` field and return bare
    /// prices — the pre-payoff API.
    ///
    /// # Errors
    /// As [`PricingService::price`].
    #[deprecated(
        since = "0.3.0",
        note = "use `PricingService::price` with typed `PricingRequest`s"
    )]
    pub fn price_options(&self, options: Vec<OptionParams>) -> Result<Vec<f64>, Error> {
        let requests = options.into_iter().map(PricingRequest::from_style).collect();
        Ok(self.price(requests)?.into_iter().map(|r| r.price).collect())
    }

    /// The service's metrics registry.
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.metrics
    }

    /// The service's request tracer (disabled until
    /// [`PricingService::enable_tracing`]). Clone the `Arc` to export
    /// the trace after [`PricingService::shutdown`].
    pub fn tracer(&self) -> &Arc<RequestTracer> {
        &self.tracer
    }

    /// Start recording per-request spans (request lifetime, queue wait,
    /// batch linger, shard execution with the session's queue commands
    /// merged in, retries, redispatch). Requests already in flight keep
    /// whatever spans they were admitted with.
    pub fn enable_tracing(&self) {
        self.tracer.enable();
    }

    /// Export the recorded request trace as a Chrome trace-event JSON
    /// document (wall-clock microseconds since service start).
    pub fn export_trace(&self) -> Json {
        self.tracer.to_chrome_json()
    }

    /// The shard scheduler (rates and live backlog).
    pub fn scheduler(&self) -> &ShardScheduler {
        &self.shared.scheduler
    }

    /// Number of shards in the pool.
    pub fn n_shards(&self) -> usize {
        self.shard_queues.len()
    }

    /// Stop accepting work, drain every queued request through the
    /// shards, and join all threads. Equivalent to dropping the service,
    /// but explicit at call sites.
    pub fn shutdown(self) {
        drop(self);
    }

    fn stop(&mut self) {
        {
            let mut st = self.shared.state.lock().expect("service lock");
            if st.shutting_down && self.batcher.is_none() {
                return;
            }
            st.shutting_down = true;
        }
        self.shared.work_ready.notify_all();
        if let Some(batcher) = self.batcher.take() {
            let _ = batcher.join();
        }
        // The batcher exits only once the submission queue is drained;
        // closing the shard queues now lets workers finish the backlog.
        for queue in &self.shard_queues {
            queue.close();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        self.metrics.set_gauge("serve.queue.depth", &[], 0.0);
        self.metrics.set_gauge("serve.queue.options", &[], 0.0);
    }
}

impl Drop for PricingService {
    fn drop(&mut self) {
        self.stop();
    }
}

fn publish_queue_gauges(metrics: &MetricsRegistry, st: &QueueState) {
    metrics.set_gauge("serve.queue.depth", &[], st.queue.len() as f64);
    metrics.set_gauge("serve.queue.options", &[], st.queued_options as f64);
}

/// Extract up to `max_batch` same-payoff-class items from the queue
/// front, splitting the boundary request if needed — at the batch size
/// limit or wherever the payoff class changes (each device batch prices
/// on a single kernel). FIFO order is preserved: the remainder of a
/// split request stays at the queue front for the next batch.
fn extract(st: &mut QueueState, max_batch: usize) -> Batch {
    let mut chunks = Vec::new();
    let mut n_options = 0;
    let mut class: Option<&'static str> = None;
    'requests: while n_options < max_batch {
        let Some(req) = st.queue.front_mut() else { break };
        let head = req.requests[req.cursor].payoff.label();
        let class = match class {
            Some(c) if c != head => break 'requests,
            Some(c) => c,
            None => *class.insert(head),
        };
        let mut take = 0;
        while req.cursor + take < req.requests.len()
            && n_options + take < max_batch
            && req.requests[req.cursor + take].payoff.label() == class
        {
            take += 1;
        }
        chunks.push(Chunk {
            requests: req.requests[req.cursor..req.cursor + take].to_vec(),
            offset: req.cursor,
            deadline: req.deadline,
            agg: req.agg.clone(),
        });
        req.cursor += take;
        n_options += take;
        st.queued_options -= take;
        if req.cursor == req.requests.len() {
            st.queue.pop_front();
        } else if req.requests[req.cursor].payoff.label() != class {
            // The same request continues with a different payoff class;
            // it stays at the front for the next batch.
            break 'requests;
        }
    }
    Batch { chunks, n_options, class: class.unwrap_or(""), attempts: 0, span: None, pushed_s: 0.0 }
}

/// Comma-joined deduplicated ids of the requests a chunk list serves,
/// for span annotations.
fn request_ids(chunks: &[Chunk]) -> String {
    let mut out = String::new();
    let mut last = None;
    for chunk in chunks {
        let id = chunk.agg.request_id;
        if last == Some(id) {
            continue;
        }
        if !out.is_empty() {
            out.push(',');
        }
        out.push_str(&id.to_string());
        last = Some(id);
    }
    out
}

fn batcher_loop(
    shared: &Shared,
    shard_queues: &[Arc<ShardQueue>],
    metrics: &MetricsRegistry,
    tracer: &RequestTracer,
) {
    loop {
        let (mut batch, reason) = {
            let mut st = shared.state.lock().expect("service lock");
            let reason = loop {
                if st.queue.is_empty() {
                    if st.shutting_down {
                        return; // fully drained
                    }
                    st = shared.work_ready.wait(st).expect("service lock");
                    continue;
                }
                // Close a batch when it is full, when no shard has work
                // queued or running (lingering could not fill it), when
                // the oldest request has lingered `max_linger` behind
                // in-flight work, or on shutdown. Workers wake this wait
                // whenever they free backlog (`Shared::complete`).
                let lingered = st.queue.front().expect("non-empty").enqueued_at.elapsed();
                if st.queued_options >= shared.config.max_batch {
                    break "full";
                }
                if shared.scheduler.pool_idle() {
                    break "pool_idle";
                }
                if lingered >= shared.config.max_linger {
                    break "linger";
                }
                if st.shutting_down {
                    break "shutdown";
                }
                let linger_left = shared.config.max_linger - lingered;
                st = shared.work_ready.wait_timeout(st, linger_left).expect("service lock").0;
            };
            let batch = extract(&mut st, shared.config.max_batch);
            publish_queue_gauges(metrics, &st);
            (batch, reason)
        };
        metrics.inc("serve.batches.closed", &[("reason", reason)], 1);
        // Latency breakdown: how long each chunk waited in the
        // submission queue, and how long the batch's oldest request
        // lingered before dispatch (both wall clock).
        let now_s = tracer.now_s();
        let mut oldest_s = f64::INFINITY;
        for chunk in &batch.chunks {
            oldest_s = oldest_s.min(chunk.agg.submitted_s);
            metrics.observe("serve.queue_wait_s", &[], (now_s - chunk.agg.submitted_s).max(0.0));
        }
        if oldest_s.is_finite() {
            metrics.observe("serve.linger_s", &[], (now_s - oldest_s).max(0.0));
        }
        metrics.observe("serve.batch.options", &[], batch.n_options as f64);
        metrics.observe("serve.batch.options", &[("payoff", batch.class)], batch.n_options as f64);
        if tracer.is_enabled() && !batch.chunks.is_empty() {
            for chunk in &batch.chunks {
                let id = tracer.next_id();
                tracer.push(TraceSpan {
                    id,
                    parent: chunk.agg.root_span,
                    name: format!("queue wait ({} options)", chunk.requests.len()),
                    category: SpanCategory::ServeQueueWait,
                    track: "serve".into(),
                    queued_s: chunk.agg.submitted_s,
                    start_s: chunk.agg.submitted_s,
                    end_s: now_s,
                    args: vec![
                        ("request_id".into(), chunk.agg.request_id.to_string()),
                        ("offset".into(), chunk.offset.to_string()),
                    ],
                });
            }
            let batch_span = tracer.next_id();
            tracer.push(TraceSpan {
                id: batch_span,
                parent: None,
                name: format!("batch ({} {} options)", batch.n_options, batch.class),
                category: SpanCategory::ServeBatch,
                track: "batcher".into(),
                queued_s: oldest_s,
                start_s: oldest_s,
                end_s: now_s,
                args: vec![
                    ("request_ids".into(), request_ids(&batch.chunks)),
                    ("payoff".into(), batch.class.to_string()),
                ],
            });
            batch.span = Some(batch_span);
        }
        // The shard wait starts where the queue wait ends.
        batch.pushed_s = now_s;
        let shard = shared.scheduler.pick(batch.n_options);
        if let Err(batch) = shard_queues[shard].push(batch) {
            // Unreachable in the normal lifecycle (queues close only
            // after the batcher exits), but a lost batch would hang its
            // callers forever, so fail it rather than drop it.
            shared.complete(shard, batch.n_options);
            for chunk in &batch.chunks {
                let rejection = Rejection {
                    depth: 0,
                    capacity: shared.config.queue_capacity,
                    shutting_down: true,
                };
                chunk.agg.fail(chunk.requests.len(), Error::Rejected(rejection), |outcome| {
                    record_finish(outcome, &chunk.agg, metrics, tracer)
                });
            }
        }
    }
}

fn worker_loop(
    shard: usize,
    suite: PayoffSuite,
    queues: &[Arc<ShardQueue>],
    shared: &Shared,
    metrics: &MetricsRegistry,
    tracer: &RequestTracer,
) {
    let (config, scheduler) = (&shared.config, &shared.scheduler);
    let label = shard.to_string();
    // Consecutive micro-batches that exhausted their local retries here.
    // One success resets it; reaching `quarantine_after` takes the shard
    // out of scheduling.
    let mut failure_streak = 0usize;
    'batches: while let Some(batch) = queues[shard].pop() {
        record_shard_wait(&batch, shard, metrics, tracer);
        // Batches routed here before the quarantine took effect are
        // handed to a healthy peer without consuming a redispatch
        // attempt — this shard never touched them.
        let batch = if scheduler.is_quarantined(shard) {
            let n_options = batch.n_options;
            match redispatch(shard, batch, queues, shared, metrics, tracer, &label) {
                None => {
                    shared.complete(shard, n_options);
                    continue 'batches;
                }
                Some(batch) => batch, // no healthy peer: price it here anyway
            }
        } else {
            batch
        };
        let now = Instant::now();
        let mut live = Vec::with_capacity(batch.chunks.len());
        for chunk in batch.chunks {
            match chunk.deadline {
                Some(deadline) if now > deadline => {
                    let missed_by_s = (now - deadline).as_secs_f64();
                    chunk.agg.fail(
                        chunk.requests.len(),
                        Error::DeadlineExceeded { missed_by_s },
                        |outcome| record_finish(outcome, &chunk.agg, metrics, tracer),
                    );
                }
                _ => live.push(chunk),
            }
        }
        if live.is_empty() {
            shared.complete(shard, batch.n_options);
            continue 'batches;
        }
        let risk: Vec<RiskRequest> = live
            .iter()
            .flat_map(|c| c.requests.iter())
            .map(|r| RiskRequest { params: r.params, payoff: r.payoff, greeks: r.wants_greeks() })
            .collect();
        let ids = request_ids(&live);
        // Bounded local retries. Only injected faults are retryable
        // (Error::is_retryable); real errors are deterministic and fail
        // fast. The backoff runs on the simulated device clock, so it is
        // accounted in a metric instead of slept.
        let mut attempt = 0usize;
        let mut result = risk_attempt(
            &suite,
            &risk,
            batch.class,
            batch.span,
            shard,
            &label,
            &ids,
            0,
            metrics,
            tracer,
        );
        while let Err(error) = &result {
            if !error.is_retryable() || attempt >= config.max_retries {
                break;
            }
            let backoff_s = config.retry_backoff_s * (1u64 << attempt) as f64;
            attempt += 1;
            metrics.inc("serve.retries", &[("shard", &label)], 1);
            metrics.observe("serve.retry_backoff_s", &[("shard", &label)], backoff_s);
            if tracer.is_enabled() {
                let id = tracer.next_id();
                let now = tracer.now_s();
                tracer.push(TraceSpan {
                    id,
                    parent: batch.span,
                    name: format!("retry {attempt} (backoff {backoff_s:.1e} s)"),
                    category: SpanCategory::ServeRetry,
                    track: format!("shard {shard}"),
                    queued_s: now,
                    start_s: now,
                    end_s: now,
                    args: vec![("request_ids".into(), ids.clone())],
                });
            }
            result = risk_attempt(
                &suite,
                &risk,
                batch.class,
                batch.span,
                shard,
                &label,
                &ids,
                attempt,
                metrics,
                tracer,
            );
        }
        // Free the backlog before touching aggregators: a caller woken
        // by the final fill must observe the scheduler already drained.
        shared.complete(shard, batch.n_options);
        match result {
            Ok((results, run)) => {
                failure_streak = 0;
                // Cumulative per-shard energy, from the session's
                // simulated busy time × modeled watts — bit-identical
                // for a given request stream regardless of wall-clock
                // knobs (worker counts, thread timing). The run covers
                // the whole device batch, Greeks bumps included.
                metrics.add_gauge("energy.joules", &[("shard", &label)], run.joules);
                metrics.add_gauge("energy.busy_s", &[("shard", &label)], run.device_busy_s);
                let mut offset = 0;
                for chunk in &live {
                    let responses: Vec<PricingResponse> = results
                        [offset..offset + chunk.requests.len()]
                        .iter()
                        .map(|r| PricingResponse { price: r.price, greeks: r.greeks })
                        .collect();
                    offset += chunk.requests.len();
                    chunk.agg.fill(chunk.offset, &responses, |outcome| {
                        record_finish(outcome, &chunk.agg, metrics, tracer)
                    });
                }
                metrics.inc("serve.shard.options", &[("shard", &label)], risk.len() as u64);
                metrics.inc("serve.payoff.options", &[("payoff", batch.class)], risk.len() as u64);
                let greeks_n = risk.iter().filter(|r| r.greeks).count() as u64;
                if greeks_n > 0 {
                    metrics.inc("serve.greeks.options", &[], greeks_n);
                }
                metrics.inc("serve.shard.batches", &[("shard", &label)], 1);
            }
            Err(error) => {
                let mut live = live;
                if error.is_retryable() {
                    failure_streak += 1;
                    if failure_streak >= config.quarantine_after && scheduler.quarantine(shard) {
                        metrics.inc("serve.quarantined", &[("shard", &label)], 1);
                        let out = scheduler.quarantined().iter().filter(|&&q| q).count();
                        metrics.set_gauge("serve.quarantined_shards", &[], out as f64);
                    }
                    // The surviving chunks get one turn on each other
                    // shard before the batch is declared dead.
                    let attempts = batch.attempts + 1;
                    if attempts < queues.len() {
                        let n_live: usize = live.iter().map(|c| c.requests.len()).sum();
                        let redo = Batch {
                            chunks: live,
                            n_options: n_live,
                            class: batch.class,
                            attempts,
                            span: batch.span,
                            pushed_s: 0.0,
                        };
                        match redispatch(shard, redo, queues, shared, metrics, tracer, &label) {
                            None => continue 'batches,
                            Some(returned) => live = returned.chunks,
                        }
                    }
                }
                metrics.inc("serve.failed", &[("shard", &label)], 1);
                for chunk in &live {
                    chunk.agg.fail(chunk.requests.len(), error.clone(), |outcome| {
                        record_finish(outcome, &chunk.agg, metrics, tracer)
                    });
                }
            }
        }
    }
}

/// Close a popped batch's shard wait — from its push onto `shard`'s
/// queue to the worker's pop — in the `serve.shard_wait_s` histogram
/// and, when tracing, a `serve.shard_wait` span parented like the
/// execution attempts that follow it.
fn record_shard_wait(
    batch: &Batch,
    shard: usize,
    metrics: &MetricsRegistry,
    tracer: &RequestTracer,
) {
    let now_s = tracer.now_s();
    metrics.observe("serve.shard_wait_s", &[], (now_s - batch.pushed_s).max(0.0));
    if tracer.is_enabled() {
        let id = tracer.next_id();
        tracer.push(TraceSpan {
            id,
            parent: batch.span,
            name: format!("shard wait ({} {} options)", batch.n_options, batch.class),
            category: SpanCategory::ServeShardWait,
            track: format!("shard {shard}"),
            queued_s: batch.pushed_s,
            start_s: batch.pushed_s,
            end_s: now_s,
            args: vec![("request_ids".into(), request_ids(&batch.chunks))],
        });
    }
}

/// One pricing attempt of a micro-batch on a shard: price it (with its
/// Greeks bumps) through the shard's payoff suite, observe the
/// wall-clock `serve.exec_s` histogram (whole-pool, per-shard and
/// per-payoff), and (when tracing) emit the attempt's `serve.exec` span
/// with the session's simulated queue commands merged in underneath it.
#[allow(clippy::too_many_arguments)]
fn risk_attempt(
    suite: &PayoffSuite,
    requests: &[RiskRequest],
    class: &'static str,
    parent: Option<u64>,
    shard: usize,
    label: &str,
    ids: &str,
    attempt: usize,
    metrics: &MetricsRegistry,
    tracer: &RequestTracer,
) -> Result<(Vec<bop_core::RiskResult>, PricingRun), Error> {
    let traced = tracer.is_enabled();
    let t0 = tracer.now_s();
    let outcome = if traced {
        suite
            .price_risk_with_session_trace(requests)
            .map(|(results, run, session)| (results, run, Some(session)))
    } else {
        suite.price_risk(requests).map(|(results, run)| (results, run, None))
    };
    let t1 = tracer.now_s();
    metrics.observe("serve.exec_s", &[], (t1 - t0).max(0.0));
    metrics.observe("serve.exec_s", &[("shard", label)], (t1 - t0).max(0.0));
    metrics.observe("serve.exec_s", &[("payoff", class)], (t1 - t0).max(0.0));
    if traced {
        let exec = tracer.next_id();
        let mut args = vec![
            ("request_ids".to_string(), ids.to_string()),
            ("attempt".to_string(), attempt.to_string()),
            ("payoff".to_string(), class.to_string()),
        ];
        if let Err(error) = &outcome {
            args.push(("error".into(), error.to_string()));
        }
        tracer.push(TraceSpan {
            id: exec,
            parent,
            name: format!("exec attempt {attempt} ({} {class} options)", requests.len()),
            category: SpanCategory::ServeExec,
            track: format!("shard {shard}"),
            queued_s: t0,
            start_s: t0,
            end_s: t1,
            args,
        });
        return match outcome {
            Ok((results, run, session)) => {
                if let Some(session) = session {
                    tracer.merge_session(session, exec, &format!("shard {shard}"), t0, t1, ids);
                }
                Ok((results, run))
            }
            Err(error) => Err(error),
        };
    }
    outcome.map(|(results, run, _)| (results, run))
}

/// Move `batch` to the healthiest peer of `shard`. Returns the batch
/// when no healthy peer exists or the peer's queue already closed; the
/// caller must then price or fail it — never drop it. Backlog
/// accounting for the *target* happens here (recorded by the pick,
/// rolled back on a refused push); the origin shard's backlog stays the
/// caller's responsibility.
fn redispatch(
    shard: usize,
    mut batch: Batch,
    queues: &[Arc<ShardQueue>],
    shared: &Shared,
    metrics: &MetricsRegistry,
    tracer: &RequestTracer,
    label: &str,
) -> Option<Batch> {
    let Some(target) = shared.scheduler.pick_for_redispatch(batch.n_options, shard) else {
        return Some(batch);
    };
    batch.pushed_s = tracer.now_s();
    let n_options = batch.n_options;
    let span_parent = batch.span;
    let ids = tracer.is_enabled().then(|| request_ids(&batch.chunks));
    match queues[target].push(batch) {
        Ok(()) => {
            metrics.inc("serve.redispatched", &[("from", label)], 1);
            if let Some(ids) = ids {
                let id = tracer.next_id();
                let now = tracer.now_s();
                tracer.push(TraceSpan {
                    id,
                    parent: span_parent,
                    name: format!("redispatch shard {shard} -> shard {target}"),
                    category: SpanCategory::ServeRedispatch,
                    track: format!("shard {shard}"),
                    queued_s: now,
                    start_s: now,
                    end_s: now,
                    args: vec![
                        ("request_ids".into(), ids),
                        ("from".into(), shard.to_string()),
                        ("to".into(), target.to_string()),
                    ],
                });
            }
            None
        }
        Err(batch) => {
            shared.complete(target, n_options);
            Some(batch)
        }
    }
}

/// Finish-of-request bookkeeping: outcome counters, end-to-end latency,
/// and the whole-request trace span. Runs as the `on_finish` callback of
/// [`Aggregator::fill`]/[`Aggregator::fail`], i.e. under the aggregator's
/// state lock, so `Ticket::wait` returns only after the counters are
/// visible.
fn record_finish(
    outcome: &Result<(), Error>,
    agg: &Aggregator,
    metrics: &MetricsRegistry,
    tracer: &RequestTracer,
) {
    let status = match outcome {
        Ok(()) => {
            metrics.inc("serve.requests.completed", &[], 1);
            metrics.observe("serve.latency_s", &[], agg.submitted_at.elapsed().as_secs_f64());
            "ok"
        }
        Err(Error::DeadlineExceeded { .. }) => {
            metrics.inc("serve.requests.deadline_exceeded", &[], 1);
            "deadline_exceeded"
        }
        Err(_) => {
            metrics.inc("serve.requests.failed", &[], 1);
            "failed"
        }
    };
    // Close the whole-request span reserved at admission.
    if let Some(root) = agg.root_span {
        let now = tracer.now_s();
        tracer.push(TraceSpan {
            id: root,
            parent: None,
            name: format!("request {}", agg.request_id),
            category: SpanCategory::ServeRequest,
            track: "serve".into(),
            queued_s: agg.submitted_s,
            start_s: agg.submitted_s,
            end_s: now,
            args: vec![
                ("request_id".into(), agg.request_id.to_string()),
                ("outcome".into(), status.into()),
            ],
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bop_finance::payoff::Payoff;

    fn response(price: f64) -> PricingResponse {
        PricingResponse { price, greeks: None }
    }

    #[test]
    fn aggregator_reassembles_out_of_order_chunks() {
        let agg = Aggregator::new(5, RequestId(1), 0.0, None);
        assert!(agg.fill(3, &[response(4.0), response(5.0)], |_| {}).is_none());
        let mut finished = false;
        let outcome = agg
            .fill(0, &[response(1.0), response(2.0), response(3.0)], |o| finished = o.is_ok())
            .expect("finished");
        assert!(outcome.is_ok());
        assert!(finished, "on_finish sees the final outcome");
        let prices: Vec<f64> = agg.wait().expect("ok").iter().map(|r| r.price).collect();
        assert_eq!(prices, vec![1.0, 2.0, 3.0, 4.0, 5.0]);
    }

    #[test]
    fn first_chunk_error_wins_and_poisons_the_request() {
        let agg = Aggregator::new(4, RequestId(2), 0.0, None);
        assert!(agg.fail(2, Error::DeadlineExceeded { missed_by_s: 0.5 }, |_| {}).is_none());
        let outcome = agg.fill(2, &[response(1.0), response(2.0)], |_| {}).expect("finished");
        assert!(matches!(outcome, Err(Error::DeadlineExceeded { .. })));
        assert!(
            matches!(agg.wait(), Err(Error::DeadlineExceeded { missed_by_s }) if missed_by_s == 0.5)
        );
    }

    fn pending(requests: Vec<PricingRequest>) -> PendingRequest {
        let n = requests.len();
        PendingRequest {
            requests,
            cursor: 0,
            deadline: None,
            enqueued_at: Instant::now(),
            agg: Arc::new(Aggregator::new(n, RequestId(9), 0.0, None)),
        }
    }

    #[test]
    fn extract_splits_requests_at_the_batch_boundary() {
        let mk = |n: usize| pending(vec![PricingRequest::from_style(OptionParams::example()); n]);
        let mut st = QueueState {
            queue: VecDeque::from([mk(3), mk(4)]),
            queued_options: 7,
            shutting_down: false,
        };
        let batch = extract(&mut st, 5);
        assert_eq!(batch.n_options, 5);
        assert_eq!(batch.chunks.len(), 2, "request two is split");
        assert_eq!(batch.chunks[1].offset, 0);
        assert_eq!(batch.class, "american");
        assert_eq!(st.queue.len(), 1, "split request stays queued");
        assert_eq!(st.queued_options, 2);
        let rest = extract(&mut st, 5);
        assert_eq!(rest.n_options, 2);
        assert_eq!(rest.chunks[0].offset, 2, "tail chunk remembers its offset");
        assert!(st.queue.is_empty());
    }

    #[test]
    fn extract_splits_at_payoff_class_changes() {
        let o = OptionParams::example();
        // One submission mixing three payoff classes, plus a second
        // request continuing the last class.
        let mixed = vec![
            PricingRequest::price_only(o, Payoff::American),
            PricingRequest::price_only(o, Payoff::American),
            PricingRequest::price_only(o, Payoff::European),
            PricingRequest::price_only(o, Payoff::Bermudan { exercise_every: 4 }),
        ];
        let tail = vec![PricingRequest::price_only(o, Payoff::Bermudan { exercise_every: 2 })];
        let mut st = QueueState {
            queue: VecDeque::from([pending(mixed), pending(tail)]),
            queued_options: 5,
            shutting_down: false,
        };
        let first = extract(&mut st, 10);
        assert_eq!((first.class, first.n_options), ("american", 2));
        let second = extract(&mut st, 10);
        assert_eq!((second.class, second.n_options), ("european", 1));
        assert_eq!(second.chunks[0].offset, 2, "offsets survive class splits");
        let third = extract(&mut st, 10);
        assert_eq!((third.class, third.n_options), ("bermudan", 2));
        assert_eq!(third.chunks.len(), 2, "same class spans request boundaries");
        assert!(st.queue.is_empty());
        assert_eq!(st.queued_options, 0);
    }
}
