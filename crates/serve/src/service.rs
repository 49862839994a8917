//! The service itself: bounded submission queue, one worker thread per
//! shard pulling micro-batches from it, and price reassembly.
//!
//! Threading model:
//!
//! * `submit` runs on the caller's thread. It either enqueues the
//!   request (bounded queue, never blocks) or returns a typed
//!   rejection.
//! * Each **shard worker** owns one [`PayoffSuite`] (the four compiled
//!   payoff kernels of one device) and pulls its own work from the one
//!   shared queue. An idle worker sleeps until a full batch's worth of
//!   options is queued, no shard is running a batch (the pool is idle,
//!   so lingering could not fill a batch), the oldest request has
//!   lingered `max_linger` behind in-flight work, or shutdown starts.
//!   It then closes and extracts one micro-batch under the service
//!   lock — splitting requests at the batch boundary *and at
//!   payoff-class changes*, so every batch prices on a single kernel —
//!   counts why it closed (`serve.batches.closed`, reason `full`,
//!   `pool_idle`, `linger` or `shutdown`), drops past-deadline chunks
//!   with [`Error::DeadlineExceeded`], prices the rest in a single
//!   `price_risk` call — Greeks bumps riding in the same device batch —
//!   and scatters [`PricingResponse`]s back through each request's
//!   aggregator. Whichever shard frees first prices the next batch, so
//!   no shard idles while work is queued, and a worker that finishes
//!   wakes its peers, so a request lingering behind in-flight work
//!   dispatches as soon as the pool drains.
//!
//! Failure policy (exercised by `tests/chaos.rs` under injected
//! faults): a retryable error ([`Error::is_retryable`], i.e. an
//! injected [`bop_core::Error::Fault`]) is re-priced locally up to
//! `max_retries` times with exponential backoff accounted on the
//! simulated clock; a batch that exhausts its retries goes back to the
//! front of the shared queue for a shard that has not failed it yet (at
//! most one turn per shard); a shard that exhausts `quarantine_after`
//! consecutive batches is quarantined and stops pulling while a healthy
//! peer exists. Every chunk always reaches its aggregator — filled with
//! prices or failed with a typed error, even when its worker panics — so
//! callers never hang, and successful results are bit-identical to a
//! fault-free [`PayoffSuite::price_risk`] because injected faults are
//! detected (a faulted command kills the session rather than corrupting
//! results).

use crate::config::ServeConfig;
use crate::request::{PricingRequest, PricingResponse};
use crate::tracing::{RequestId, RequestTracer};
use bop_core::{Error, PayoffSuite, PricingRun, Rejection, RiskRequest, RuntimeError};
use bop_obs::{Json, MetricsRegistry, SpanCategory, TraceSpan};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
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
    metrics: Arc<MetricsRegistry>,
    tracer: Arc<RequestTracer>,
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
    /// Admit a request of `n_options`, reserving its whole-request span
    /// id when tracing so queue-wait and execution spans can parent to
    /// it (the span itself is pushed when the request finishes).
    fn new(
        n_options: usize,
        request_id: RequestId,
        metrics: &Arc<MetricsRegistry>,
        tracer: &Arc<RequestTracer>,
    ) -> Aggregator {
        Aggregator {
            request_id,
            submitted_at: Instant::now(),
            submitted_s: tracer.now_s(),
            root_span: tracer.is_enabled().then(|| tracer.next_id()),
            metrics: metrics.clone(),
            tracer: tracer.clone(),
            state: Mutex::new(AggState {
                responses: vec![PricingResponse::pending(); n_options],
                remaining: n_options,
                error: None,
            }),
            done: Condvar::new(),
        }
    }

    /// The state lock. A panic elsewhere never leaves this state half
    /// written, so a poisoned lock is still safe to use — and a chunk
    /// failing during that panic's unwind must not panic again.
    fn state(&self) -> MutexGuard<'_, AggState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Record a priced chunk; returns the request's outcome when this was
    /// the last outstanding chunk.
    fn fill(&self, offset: usize, responses: &[PricingResponse]) -> Option<Result<(), Error>> {
        let mut st = self.state();
        st.responses[offset..offset + responses.len()].copy_from_slice(responses);
        st.remaining -= responses.len();
        self.maybe_finish(&st)
    }

    /// Record a failed chunk of `n_options`; returns as
    /// [`Aggregator::fill`].
    fn fail(&self, n_options: usize, error: Error) -> Option<Result<(), Error>> {
        let mut st = self.state();
        if st.error.is_none() {
            st.error = Some(error);
        }
        st.remaining -= n_options;
        self.maybe_finish(&st)
    }

    /// When no option is outstanding, record the finish (metrics,
    /// request span) and wake the waiter — under the state lock, so a
    /// `wait`er cannot observe completion before the bookkeeping is done.
    fn maybe_finish(&self, st: &AggState) -> Option<Result<(), Error>> {
        if st.remaining > 0 {
            return None;
        }
        let outcome = match &st.error {
            Some(e) => Err(e.clone()),
            None => Ok(()),
        };
        self.record_finish(&outcome);
        self.done.notify_all();
        Some(outcome)
    }

    fn wait(&self) -> Result<Vec<PricingResponse>, Error> {
        let st = self.done.wait_while(self.state(), |st| st.remaining > 0);
        Self::outcome(st.unwrap_or_else(PoisonError::into_inner))
    }

    /// [`Aggregator::wait`] for at most `timeout`; `None` if the request
    /// is still outstanding then.
    fn wait_timeout(&self, timeout: Duration) -> Option<Result<Vec<PricingResponse>, Error>> {
        let waited = self.done.wait_timeout_while(self.state(), timeout, |st| st.remaining > 0);
        let (st, _) = waited.unwrap_or_else(PoisonError::into_inner);
        (st.remaining == 0).then(|| Self::outcome(st))
    }

    /// The outcome of a finished request; takes its responses.
    fn outcome(mut st: MutexGuard<'_, AggState>) -> Result<Vec<PricingResponse>, Error> {
        match &st.error {
            Some(e) => Err(e.clone()),
            None => Ok(std::mem::take(&mut st.responses)),
        }
    }

    /// Finish-of-request bookkeeping: outcome counters, end-to-end
    /// latency, and the whole-request trace span.
    fn record_finish(&self, outcome: &Result<(), Error>) {
        let metrics = &self.metrics;
        let status = match outcome {
            Ok(()) => {
                metrics.inc("serve.requests.completed", &[], 1);
                metrics.observe("serve.latency_s", &[], self.submitted_at.elapsed().as_secs_f64());
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
        if let Some(root) = self.root_span {
            self.tracer.push(TraceSpan {
                id: root,
                parent: None,
                name: format!("request {}", self.request_id),
                category: SpanCategory::ServeRequest,
                track: "serve".into(),
                queued_s: self.submitted_s,
                start_s: self.submitted_s,
                end_s: self.tracer.now_s(),
                args: vec![
                    ("request_id".into(), self.request_id.to_string()),
                    ("outcome".into(), status.into()),
                ],
            });
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
        let st = self.agg.state();
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

    /// [`Ticket::wait`] for at most `timeout`. If the request is still
    /// outstanding then, the ticket comes back as `Err(self)`: wait on
    /// it again, or drop it to abandon the result.
    ///
    /// # Errors
    /// `Err(ticket)` on timeout. The inner result is [`Ticket::wait`]'s.
    pub fn wait_timeout(
        self,
        timeout: Duration,
    ) -> Result<Result<Vec<PricingResponse>, Error>, Ticket> {
        self.agg.wait_timeout(timeout).ok_or(self)
    }
}

/// The error of options no shard worker priced: their worker panicked,
/// or every worker did before taking them.
fn unpriced() -> Error {
    Error::Runtime(RuntimeError::Invalid("no shard worker priced this request".into()))
}

/// A slice of one request, bound for a single micro-batch. A chunk
/// resolves by [`Chunk::fill`] or [`Chunk::fail`]; one dropped
/// unresolved — its worker panicked — fails its options with
/// [`unpriced`], so the request's caller never waits forever.
struct Chunk {
    /// The chunk's requests; emptied once the chunk has resolved.
    requests: Vec<PricingRequest>,
    /// Offset of this chunk inside its request's response vector.
    offset: usize,
    deadline: Option<Instant>,
    agg: Arc<Aggregator>,
}

impl Chunk {
    fn fill(mut self, responses: &[PricingResponse]) {
        self.agg.fill(self.offset, responses);
        self.requests.clear();
    }

    fn fail(mut self, error: Error) {
        self.agg.fail(self.requests.len(), error);
        self.requests.clear();
    }
}

impl Drop for Chunk {
    fn drop(&mut self) {
        if !self.requests.is_empty() {
            self.agg.fail(self.requests.len(), unpriced());
        }
    }
}

struct Batch {
    chunks: Vec<Chunk>,
    n_options: usize,
    /// The payoff class every item in the batch shares (batches split at
    /// class changes so one kernel prices the whole batch).
    class: &'static str,
    /// Shards that have already tried (and failed) to price this batch.
    /// Each shard gets at most one turn, so a batch can never bounce
    /// around the pool forever.
    failed_on: Vec<usize>,
    /// Span id of the batch's `serve.batch` linger span, when tracing;
    /// execution attempts parent to it.
    span: Option<u64>,
}

struct PendingRequest {
    requests: Vec<PricingRequest>,
    /// Items before `cursor` have already been extracted into batches.
    cursor: usize,
    deadline: Option<Instant>,
    enqueued_at: Instant,
    agg: Arc<Aggregator>,
}

impl Drop for PendingRequest {
    /// A request still queued when the service goes away — every worker
    /// panicked — fails its unextracted options with [`unpriced`].
    fn drop(&mut self) {
        if self.cursor < self.requests.len() {
            self.agg.fail(self.requests.len() - self.cursor, unpriced());
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Health {
    Healthy,
    /// Taken out of scheduling after `quarantine_after` exhausted batches.
    Quarantined,
    /// The worker panicked; its thread is gone.
    Stopped,
}

struct ShardState {
    health: Health,
    /// The worker is pricing a batch.
    running: bool,
}

struct QueueState {
    queue: VecDeque<PendingRequest>,
    queued_options: usize,
    /// Batches that exhausted their retries on some shard, waiting for a
    /// peer; they go before every queued request.
    redo: VecDeque<Batch>,
    shards: Vec<ShardState>,
    shutting_down: bool,
}

impl QueueState {
    /// Whether `shard` takes work: it is healthy, or it is quarantined
    /// and no shard is healthy (a fully quarantined pool still serves).
    fn schedulable(&self, shard: usize) -> bool {
        match self.shards[shard].health {
            Health::Healthy => true,
            Health::Quarantined => self.shards.iter().all(|s| s.health != Health::Healthy),
            Health::Stopped => false,
        }
    }

    /// Whether no schedulable shard is running a batch.
    fn pool_idle(&self) -> bool {
        (0..self.shards.len()).all(|i| !self.shards[i].running || !self.schedulable(i))
    }

    /// Whether `shard` may take the redispatched `batch`: it has not
    /// failed it yet, or every schedulable shard has.
    fn may_take(&self, shard: usize, batch: &Batch) -> bool {
        let tried = |i: usize| batch.failed_on.contains(&i);
        !tried(shard) || (0..self.shards.len()).filter(|&i| self.schedulable(i)).all(tried)
    }
}

struct Shared {
    config: ServeConfig,
    state: Mutex<QueueState>,
    /// Wakes idle workers: a submission, shutdown, or a worker's batch
    /// ending (the pool may have drained, a batch may wait for a peer,
    /// or a quarantine may have changed who pulls). Always
    /// `notify_all`: a waiter may be a quarantined worker that must not
    /// take the work.
    work_ready: Condvar,
}

impl Shared {
    /// The state lock, recovered if another thread panicked while holding
    /// it: one panic must not turn into a panic in every submitter and
    /// worker.
    fn state(&self) -> MutexGuard<'_, QueueState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Marks a shard as running a batch; dropping it — after the batch or
/// on a panic's unwind — clears the mark and wakes the pool, so
/// `pool_idle` cannot stick at false. A panicked shard stops for good.
struct Running<'a> {
    shared: &'a Shared,
    shard: usize,
}

impl Drop for Running<'_> {
    fn drop(&mut self) {
        let mut st = self.shared.state();
        st.shards[self.shard].running = false;
        if thread::panicking() {
            st.shards[self.shard].health = Health::Stopped;
        }
        self.shared.work_ready.notify_all();
    }
}

/// A running pricing service. See the crate docs for the pipeline.
pub struct PricingService {
    shared: Arc<Shared>,
    metrics: Arc<MetricsRegistry>,
    tracer: Arc<RequestTracer>,
    next_request_id: AtomicU64,
    workers: Vec<thread::JoinHandle<()>>,
}

impl PricingService {
    /// Start a service over `shards` with a fresh metrics registry.
    ///
    /// # Errors
    /// [`Error::Invalid`] on an empty pool, mismatched lattices, or bad
    /// config.
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
        let shared = Arc::new(Shared {
            config,
            state: Mutex::new(QueueState {
                queue: VecDeque::new(),
                queued_options: 0,
                redo: VecDeque::new(),
                shards: shards
                    .iter()
                    .map(|_| ShardState { health: Health::Healthy, running: false })
                    .collect(),
                shutting_down: false,
            }),
            work_ready: Condvar::new(),
        });
        let tracer = Arc::new(RequestTracer::new());
        let workers = shards
            .into_iter()
            .enumerate()
            .map(|(i, suite)| {
                let shared = shared.clone();
                let metrics = metrics.clone();
                let tracer = tracer.clone();
                thread::spawn(move || worker_loop(i, suite, &shared, &metrics, &tracer))
            })
            .collect();
        Ok(PricingService { shared, metrics, tracer, next_request_id: AtomicU64::new(1), workers })
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
        let agg = Arc::new(Aggregator::new(n_options, request_id, &self.metrics, &self.tracer));
        let mut st = self.shared.state();
        if st.shutting_down || st.queue.len() >= self.shared.config.queue_capacity {
            let reason = if st.shutting_down { "shutdown" } else { "full" };
            self.metrics.inc("serve.requests.rejected", &[("reason", reason)], 1);
            return Err(Error::Rejected(Rejection {
                depth: st.queue.len(),
                capacity: self.shared.config.queue_capacity,
                shutting_down: st.shutting_down,
            }));
        }
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
        self.shared.work_ready.notify_all();
        Ok(Ticket { agg })
    }

    /// Submit and wait: the synchronous convenience path.
    ///
    /// # Errors
    /// As [`PricingService::submit`] and [`Ticket::wait`].
    pub fn price(&self, requests: Vec<PricingRequest>) -> Result<Vec<PricingResponse>, Error> {
        self.submit(requests, None)?.wait()
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

    /// Number of shards in the pool.
    pub fn n_shards(&self) -> usize {
        self.workers.len()
    }

    /// Stop accepting work, drain every queued request through the
    /// shards, and join all threads. Equivalent to dropping the service,
    /// but explicit at call sites.
    pub fn shutdown(self) {
        drop(self);
    }
}

impl Drop for PricingService {
    fn drop(&mut self) {
        self.shared.state().shutting_down = true;
        self.shared.work_ready.notify_all();
        // Workers exit once the queue is drained and no batch is in
        // flight.
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        self.metrics.set_gauge("serve.queue.depth", &[], 0.0);
        self.metrics.set_gauge("serve.queue.options", &[], 0.0);
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
    Batch { chunks, n_options, class: class.unwrap_or(""), failed_on: Vec::new(), span: None }
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

/// Block until `shard` has a batch to price and mark the shard running.
/// A redispatched batch it may take comes first; otherwise it closes a
/// batch from the queue when one is full, the pool is idle, the oldest
/// request has lingered `max_linger`, or on shutdown. `None` once the
/// service shuts down with nothing queued or in flight.
fn next_batch<'a>(
    shard: usize,
    shared: &'a Shared,
    metrics: &MetricsRegistry,
    tracer: &RequestTracer,
) -> Option<(Batch, Running<'a>)> {
    let config = &shared.config;
    let mut st = shared.state();
    let (mut batch, reason) = loop {
        if st.schedulable(shard) {
            if let Some(i) = st.redo.iter().position(|b| st.may_take(shard, b)) {
                break (st.redo.remove(i).expect("in range"), None);
            }
            if let Some(front) = st.queue.front() {
                let lingered = front.enqueued_at.elapsed();
                let reason = if st.queued_options >= config.max_batch {
                    "full"
                } else if st.pool_idle() {
                    "pool_idle"
                } else if lingered >= config.max_linger {
                    "linger"
                } else if st.shutting_down {
                    "shutdown"
                } else {
                    let linger_left = config.max_linger - lingered;
                    st = shared
                        .work_ready
                        .wait_timeout(st, linger_left)
                        .unwrap_or_else(PoisonError::into_inner)
                        .0;
                    continue;
                };
                let batch = extract(&mut st, config.max_batch);
                publish_queue_gauges(metrics, &st);
                break (batch, Some(reason));
            }
        }
        let drained = st.queue.is_empty() && st.redo.is_empty();
        if st.shutting_down && drained && st.shards.iter().all(|s| !s.running) {
            return None;
        }
        st = shared.work_ready.wait(st).unwrap_or_else(PoisonError::into_inner);
    };
    st.shards[shard].running = true;
    drop(st);
    let running = Running { shared, shard };
    match reason {
        Some(reason) => record_close(&mut batch, reason, metrics, tracer),
        None => record_redispatch(&batch, shard, metrics, tracer),
    }
    Some((batch, running))
}

/// Count why a batch closed and record its latency breakdown: how long
/// each chunk waited in the submission queue, and how long the batch's
/// oldest request lingered (both wall clock), as histograms and, when
/// tracing, `serve.queue_wait` and `serve.batch` spans.
fn record_close(
    batch: &mut Batch,
    reason: &'static str,
    metrics: &MetricsRegistry,
    tracer: &RequestTracer,
) {
    metrics.inc("serve.batches.closed", &[("reason", reason)], 1);
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
    if !tracer.is_enabled() || batch.chunks.is_empty() {
        return;
    }
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

/// Count a batch that `shard` took over from the last shard that failed
/// it, and mark the hand-over in the trace.
fn record_redispatch(
    batch: &Batch,
    shard: usize,
    metrics: &MetricsRegistry,
    tracer: &RequestTracer,
) {
    let from = batch.failed_on.last().expect("a redispatched batch failed somewhere");
    metrics.inc("serve.redispatched", &[("from", &from.to_string())], 1);
    if tracer.is_enabled() {
        let id = tracer.next_id();
        let now = tracer.now_s();
        tracer.push(TraceSpan {
            id,
            parent: batch.span,
            name: format!("redispatch shard {from} -> shard {shard}"),
            category: SpanCategory::ServeRedispatch,
            track: format!("shard {shard}"),
            queued_s: now,
            start_s: now,
            end_s: now,
            args: vec![
                ("request_ids".into(), request_ids(&batch.chunks)),
                ("from".into(), from.to_string()),
                ("to".into(), shard.to_string()),
            ],
        });
    }
}

fn worker_loop(
    shard: usize,
    suite: PayoffSuite,
    shared: &Shared,
    metrics: &MetricsRegistry,
    tracer: &RequestTracer,
) {
    let config = &shared.config;
    let label = shard.to_string();
    // Consecutive micro-batches that exhausted their local retries here.
    // One success resets it; reaching `quarantine_after` takes the shard
    // out of scheduling.
    let mut failure_streak = 0usize;
    let mut energy = EnergyMeter::default();
    while let Some((batch, running)) = next_batch(shard, shared, metrics, tracer) {
        let now = Instant::now();
        let mut live = Vec::with_capacity(batch.chunks.len());
        for chunk in batch.chunks {
            match chunk.deadline {
                Some(deadline) if now > deadline => {
                    let missed_by_s = (now - deadline).as_secs_f64();
                    chunk.fail(Error::DeadlineExceeded { missed_by_s });
                }
                _ => live.push(chunk),
            }
        }
        if live.is_empty() {
            continue;
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
        let attempt_on = |attempt| {
            risk_attempt(
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
            )
        };
        let mut attempt = 0usize;
        let mut result = attempt_on(0);
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
            result = attempt_on(attempt);
        }
        match result {
            Ok((results, run)) => {
                failure_streak = 0;
                // Let the pool go idle before callers wake: a caller's
                // next submission must find this shard free.
                drop(running);
                // Cumulative per-shard energy, from the session's
                // simulated busy time × modeled watts — bit-identical
                // for a given request stream regardless of wall-clock
                // knobs (worker counts, thread timing) and of the order
                // batches complete in. The run covers the whole device
                // batch, Greeks bumps included.
                metrics.set_gauge("energy.joules", &[("shard", &label)], energy.add(run.joules));
                metrics.add_gauge("energy.busy_s", &[("shard", &label)], run.device_busy_s);
                metrics.inc("serve.shard.options", &[("shard", &label)], risk.len() as u64);
                metrics.inc("serve.payoff.options", &[("payoff", batch.class)], risk.len() as u64);
                let greeks_n = risk.iter().filter(|r| r.greeks).count() as u64;
                if greeks_n > 0 {
                    metrics.inc("serve.greeks.options", &[], greeks_n);
                }
                metrics.inc("serve.shard.batches", &[("shard", &label)], 1);
                let mut offset = 0;
                for chunk in live {
                    let n = chunk.requests.len();
                    let responses: Vec<PricingResponse> = results[offset..offset + n]
                        .iter()
                        .map(|r| PricingResponse { price: r.price, greeks: r.greeks })
                        .collect();
                    offset += n;
                    chunk.fill(&responses);
                }
            }
            Err(error) => {
                if error.is_retryable() {
                    failure_streak += 1;
                    let mut st = shared.state();
                    if failure_streak >= config.quarantine_after
                        && st.shards[shard].health == Health::Healthy
                    {
                        st.shards[shard].health = Health::Quarantined;
                        metrics.inc("serve.quarantined", &[("shard", &label)], 1);
                        let out =
                            st.shards.iter().filter(|s| s.health == Health::Quarantined).count();
                        metrics.set_gauge("serve.quarantined_shards", &[], out as f64);
                    }
                    // The surviving chunks go back to the front of the
                    // shared queue for one turn on each other shard
                    // before the batch is declared dead.
                    let mut failed_on = batch.failed_on;
                    failed_on.push(shard);
                    if failed_on.len() < st.shards.len() {
                        let n_options = live.iter().map(|c| c.requests.len()).sum();
                        st.redo.push_back(Batch {
                            chunks: live,
                            n_options,
                            class: batch.class,
                            failed_on,
                            span: batch.span,
                        });
                        continue;
                    }
                }
                drop(running);
                metrics.inc("serve.failed", &[("shard", &label)], 1);
                for chunk in live {
                    chunk.fail(error.clone());
                }
            }
        }
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

/// A shard's cumulative energy as a count of 2^-32 J units. Its value in
/// joules, and every sum of such values, is exact while the total stays
/// under 2^21 J (about 2 MJ), so a sum over shards does not depend on the
/// order batches completed in or on the shards they ran on.
#[derive(Debug, Default)]
struct EnergyMeter {
    units: u64,
}

impl EnergyMeter {
    /// Fixed-point units per joule.
    const UNITS_PER_J: f64 = (1u64 << 32) as f64;

    /// Add one batch's `joules`, rounded to the nearest unit, and return
    /// the shard's total in joules.
    fn add(&mut self, joules: f64) -> f64 {
        self.units = self.units.saturating_add((joules * Self::UNITS_PER_J).round() as u64);
        self.units as f64 / Self::UNITS_PER_J
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bop_finance::payoff::Payoff;
    use bop_finance::OptionParams;
    use std::sync::mpsc;

    fn response(price: f64) -> PricingResponse {
        PricingResponse { price, greeks: None }
    }

    fn aggregator(n_options: usize, id: u64) -> Aggregator {
        let (metrics, tracer) = (Arc::new(MetricsRegistry::new()), Arc::new(RequestTracer::new()));
        Aggregator::new(n_options, RequestId(id), &metrics, &tracer)
    }

    #[test]
    fn shard_energy_sums_are_exact_in_any_order_and_split() {
        let batches: Vec<f64> = (1..=40).map(|i| 0.1 * i as f64 / 7.0 + 1e-3 / i as f64).collect();
        let reversed: Vec<f64> = batches.iter().rev().copied().collect();
        let float_sum = |xs: &[f64]| xs.iter().sum::<f64>().to_bits();
        assert_ne!(float_sum(&batches), float_sum(&reversed), "a float sum depends on the order");
        // The two shard gauges after every batch has run, summed as a
        // reader of the registry sums them.
        let total = |order: &[f64], on_shard_0: &dyn Fn(usize) -> bool| {
            let (mut meters, mut gauges) =
                ([EnergyMeter::default(), EnergyMeter::default()], [0.0; 2]);
            for (i, &joules) in order.iter().enumerate() {
                let shard = usize::from(!on_shard_0(i));
                gauges[shard] = meters[shard].add(joules);
            }
            (gauges[0] + gauges[1]).to_bits()
        };
        let alternate = |i: usize| i.is_multiple_of(2);
        let halves = |i: usize| i < batches.len() / 2;
        let reference = total(&batches, &alternate);
        for order in [&batches, &reversed] {
            for split in [&alternate as &dyn Fn(usize) -> bool, &halves] {
                assert_eq!(total(order, split), reference);
            }
        }
    }

    #[test]
    fn aggregator_reassembles_out_of_order_chunks() {
        let agg = aggregator(5, 1);
        assert!(agg.fill(3, &[response(4.0), response(5.0)]).is_none());
        let outcome =
            agg.fill(0, &[response(1.0), response(2.0), response(3.0)]).expect("finished");
        assert!(outcome.is_ok());
        assert_eq!(
            agg.metrics.counter_total("serve.requests.completed"),
            1,
            "the finish bookkeeping sees the final outcome"
        );
        let prices: Vec<f64> = agg.wait().expect("ok").iter().map(|r| r.price).collect();
        assert_eq!(prices, vec![1.0, 2.0, 3.0, 4.0, 5.0]);
    }

    #[test]
    fn a_timed_out_wait_hands_the_ticket_back_until_the_request_finishes() {
        let ticket = Ticket { agg: Arc::new(aggregator(2, 4)) };
        let ticket = ticket.wait_timeout(Duration::from_millis(1)).expect_err("nothing priced");
        ticket.agg.fill(0, &[response(1.0)]);
        let ticket = ticket.wait_timeout(Duration::ZERO).expect_err("one option outstanding");
        assert_eq!(ticket.agg.state().remaining, 1);
        ticket.agg.fill(1, &[response(2.0)]);
        let responses = ticket.wait_timeout(Duration::ZERO).expect("finished").expect("ok");
        let prices: Vec<f64> = responses.iter().map(|r| r.price).collect();
        assert_eq!(prices, vec![1.0, 2.0]);
    }

    #[test]
    fn first_chunk_error_wins_and_poisons_the_request() {
        let agg = aggregator(4, 2);
        assert!(agg.fail(2, Error::DeadlineExceeded { missed_by_s: 0.5 }).is_none());
        let outcome = agg.fill(2, &[response(1.0), response(2.0)]).expect("finished");
        assert!(matches!(outcome, Err(Error::DeadlineExceeded { .. })));
        assert!(
            matches!(agg.wait(), Err(Error::DeadlineExceeded { missed_by_s }) if missed_by_s == 0.5)
        );
    }

    #[test]
    fn a_chunk_dropped_unfilled_fails_its_request() {
        let agg = Arc::new(aggregator(2, 3));
        let chunk = |offset| Chunk {
            requests: vec![PricingRequest::from_style(OptionParams::example())],
            offset,
            deadline: None,
            agg: agg.clone(),
        };
        let (filled, lost) = (chunk(0), chunk(1));
        let ticket = Ticket { agg: agg.clone() };
        let (tx, rx) = mpsc::channel();
        let waiter = thread::spawn(move || tx.send(ticket.wait()).expect("receiver alive"));
        filled.fill(&[response(1.0)]);
        drop(lost); // as a panicking worker's unwind would
        let outcome = rx.recv_timeout(Duration::from_secs(10)).expect("the wait returns");
        assert!(matches!(outcome, Err(Error::Runtime(_))), "typed failure, got {outcome:?}");
        waiter.join().expect("waiter joins");
    }

    #[test]
    fn a_panic_under_the_service_lock_does_not_reach_submit_or_shutdown() {
        let mut config = bop_core::AcceleratorConfig::new(bop_core::devices::gpu());
        config.n_steps = 16;
        let suite = PayoffSuite::from_config(config).expect("suite builds");
        let service = PricingService::start(vec![suite], ServeConfig::default()).expect("starts");
        let shared = service.shared.clone();
        let poisoner = thread::spawn(move || {
            let _held = shared.state();
            panic!("a panic while holding the service lock");
        });
        assert!(poisoner.join().is_err(), "the helper panicked");
        assert!(service.shared.state.is_poisoned());
        let (tx, rx) = mpsc::channel();
        let caller = thread::spawn(move || {
            let request = vec![PricingRequest::from_style(OptionParams::example())];
            let outcome = service.submit(request, None).and_then(Ticket::wait);
            service.shutdown();
            tx.send(outcome).expect("receiver alive");
        });
        let outcome = rx.recv_timeout(Duration::from_secs(60)).expect("submit and shutdown return");
        caller.join().expect("the caller joins");
        assert_eq!(outcome.expect("the request prices").len(), 1);
    }

    fn pending(requests: Vec<PricingRequest>) -> PendingRequest {
        let n = requests.len();
        PendingRequest {
            requests,
            cursor: 0,
            deadline: None,
            enqueued_at: Instant::now(),
            agg: Arc::new(aggregator(n, 9)),
        }
    }

    fn queue(requests: Vec<PendingRequest>, queued_options: usize) -> QueueState {
        QueueState {
            queue: VecDeque::from(requests),
            queued_options,
            redo: VecDeque::new(),
            shards: Vec::new(),
            shutting_down: false,
        }
    }

    #[test]
    fn extract_splits_requests_at_the_batch_boundary() {
        let mk = |n: usize| pending(vec![PricingRequest::from_style(OptionParams::example()); n]);
        let mut st = queue(vec![mk(3), mk(4)], 7);
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
        let mut st = queue(vec![pending(mixed), pending(tail)], 5);
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
