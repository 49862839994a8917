//! Structured span tracing over the *simulated* timeline.
//!
//! Every span carries times in simulated seconds (the command queue's
//! clock), a stable id, and an optional parent id, so the hierarchy
//! host-program phase → queue command → barrier phase is preserved.
//! [`TraceLog::to_chrome_json`] exports the whole collection in the
//! Chrome trace-event format (`{"traceEvents": [...]}` with complete
//! `ph:"X"` events, microsecond timestamps), which loads directly into
//! Perfetto / `chrome://tracing`.
//!
//! Track assignment: each span names a `track` (e.g. `"host"`,
//! `"queue"`, `"kernel:binomial_option"`); tracks map to Chrome `tid`s
//! within one process so related spans stack into swim-lanes.

use crate::json::Json;
use std::collections::BTreeMap;

/// What produced a span. The category string becomes the Chrome `cat`
/// field and makes filtering in the viewer practical.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanCategory {
    /// A host-program phase (e.g. one IV.A timestep batch, or the IV.B
    /// write/launch/read sequence).
    Host,
    /// A queue command: buffer write (host→device).
    TransferH2D,
    /// A queue command: buffer read (device→host).
    TransferD2H,
    /// A queue command: device-side copy or fill.
    DeviceMem,
    /// A kernel NDRange execution.
    Kernel,
    /// A barrier-delimited phase inside one kernel execution.
    BarrierPhase,
    /// A whole serving request, admission to completion.
    ServeRequest,
    /// Time a request chunk waited in the submission queue.
    ServeQueueWait,
    /// A micro-batch forming in the queue until a worker closes it.
    ServeBatch,
    /// One pricing attempt of a micro-batch on a shard.
    ServeExec,
    /// A local retry marker after a retryable fault.
    ServeRetry,
    /// A batch handed from a failing shard to a healthy peer.
    ServeRedispatch,
}

impl SpanCategory {
    /// The Chrome `cat` string.
    pub fn as_str(self) -> &'static str {
        match self {
            SpanCategory::Host => "host",
            SpanCategory::TransferH2D => "h2d",
            SpanCategory::TransferD2H => "d2h",
            SpanCategory::DeviceMem => "devmem",
            SpanCategory::Kernel => "kernel",
            SpanCategory::BarrierPhase => "barrier_phase",
            SpanCategory::ServeRequest => "serve.request",
            SpanCategory::ServeQueueWait => "serve.queue_wait",
            SpanCategory::ServeBatch => "serve.batch",
            SpanCategory::ServeExec => "serve.exec",
            SpanCategory::ServeRetry => "serve.retry",
            SpanCategory::ServeRedispatch => "serve.redispatch",
        }
    }
}

/// One completed span on the simulated timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSpan {
    /// Stable id, unique within one [`TraceLog`].
    pub id: u64,
    /// Parent span id, if nested under another span.
    pub parent: Option<u64>,
    /// Human-readable name (e.g. `"enqueue_nd_range(binomial_option)"`).
    pub name: String,
    /// Category for filtering.
    pub category: SpanCategory,
    /// Swim-lane name; spans sharing a track render on one row group.
    pub track: String,
    /// Simulated time the work became eligible (command queued). Equals
    /// `start_s` for spans without a queue-wait phase.
    pub queued_s: f64,
    /// Simulated start time.
    pub start_s: f64,
    /// Simulated end time.
    pub end_s: f64,
    /// Free-form key/value annotations (bytes moved, work-items, ...).
    pub args: Vec<(String, String)>,
}

impl TraceSpan {
    /// Span duration in simulated seconds.
    pub fn duration_s(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// An append-only collection of completed spans.
///
/// The log hands out ids ([`TraceLog::next_id`]) so producers can link
/// children to parents before the parent span itself is closed and
/// pushed.
#[derive(Debug, Default)]
pub struct TraceLog {
    spans: Vec<TraceSpan>,
    next_id: u64,
    /// When `Some(cap)`, only the first `cap` spans are kept; further
    /// pushes increment `dropped` instead of growing without bound.
    cap: Option<usize>,
    dropped: u64,
}

impl TraceLog {
    /// An empty, uncapped log.
    pub fn new() -> TraceLog {
        TraceLog::default()
    }

    /// Limit retained spans to `cap`; excess pushes are counted in
    /// [`TraceLog::dropped`] but not stored.
    pub fn set_cap(&mut self, cap: Option<usize>) {
        self.cap = cap;
    }

    /// Reserve the next span id.
    pub fn next_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Append a completed span (respecting the cap).
    pub fn push(&mut self, span: TraceSpan) {
        if let Some(cap) = self.cap {
            if self.spans.len() >= cap {
                self.dropped += 1;
                return;
            }
        }
        self.spans.push(span);
    }

    /// The retained spans, in push order.
    pub fn spans(&self) -> &[TraceSpan] {
        &self.spans
    }

    /// How many spans the cap discarded.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Account `n` spans dropped *outside* this log (e.g. by a capped
    /// producer whose spans were merged in), so the exported
    /// `droppedSpans` count covers the whole pipeline.
    pub fn note_dropped(&mut self, n: u64) {
        self.dropped += n;
    }

    /// Drop all retained spans and reset the dropped counter (ids keep
    /// increasing so references never collide across clears).
    pub fn clear(&mut self) {
        self.spans.clear();
        self.dropped = 0;
    }

    /// Export as a Chrome trace-event JSON document.
    ///
    /// Each span becomes one complete (`ph:"X"`) event with `ts`/`dur`
    /// in microseconds of simulated time; `pid` is a constant process,
    /// `tid` is derived from the span's track so tracks render as
    /// separate rows, and thread-name metadata events label them.
    pub fn to_chrome_json(&self) -> Json {
        // Stable track → tid assignment in order of first appearance.
        let mut tids: BTreeMap<&str, u64> = BTreeMap::new();
        let mut order: Vec<&str> = Vec::new();
        for span in &self.spans {
            if !tids.contains_key(span.track.as_str()) {
                tids.insert(span.track.as_str(), order.len() as u64 + 1);
                order.push(span.track.as_str());
            }
        }

        let mut events: Vec<Json> = Vec::with_capacity(self.spans.len() + order.len());
        for (track, &tid) in order.iter().map(|t| (*t, &tids[t])) {
            events.push(Json::obj([
                ("name", Json::str("thread_name")),
                ("ph", Json::str("M")),
                ("pid", Json::Num(1.0)),
                ("tid", Json::Num(tid as f64)),
                ("args", Json::obj([("name", Json::str(track))])),
            ]));
        }
        for span in &self.spans {
            let mut args: BTreeMap<String, Json> =
                span.args.iter().map(|(k, v)| (k.clone(), Json::str(v.clone()))).collect();
            args.insert("span_id".into(), Json::Num(span.id as f64));
            if let Some(parent) = span.parent {
                args.insert("parent_span_id".into(), Json::Num(parent as f64));
            }
            args.insert("queued_us".into(), Json::Num(span.queued_s * 1e6));
            events.push(Json::obj([
                ("name", Json::str(span.name.clone())),
                ("cat", Json::str(span.category.as_str())),
                ("ph", Json::str("X")),
                ("ts", Json::Num(span.start_s * 1e6)),
                ("dur", Json::Num(span.duration_s() * 1e6)),
                ("pid", Json::Num(1.0)),
                ("tid", Json::Num(tids[span.track.as_str()] as f64)),
                ("args", Json::Obj(args)),
            ]));
        }
        Json::obj([
            ("traceEvents", Json::Arr(events)),
            ("displayTimeUnit", Json::str("ms")),
            ("droppedSpans", Json::Num(self.dropped as f64)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(log: &mut TraceLog, name: &str, track: &str, t0: f64, t1: f64) -> u64 {
        let id = log.next_id();
        log.push(TraceSpan {
            id,
            parent: None,
            name: name.into(),
            category: SpanCategory::Kernel,
            track: track.into(),
            queued_s: t0,
            start_s: t0,
            end_s: t1,
            args: vec![],
        });
        id
    }

    #[test]
    fn ids_are_unique_and_monotone() {
        let mut log = TraceLog::new();
        let a = span(&mut log, "a", "q", 0.0, 1.0);
        let b = span(&mut log, "b", "q", 1.0, 2.0);
        assert!(b > a);
        log.clear();
        let c = span(&mut log, "c", "q", 0.0, 1.0);
        assert!(c > b, "ids keep increasing across clear()");
    }

    #[test]
    fn cap_drops_excess_spans() {
        let mut log = TraceLog::new();
        log.set_cap(Some(2));
        for i in 0..5 {
            span(&mut log, "s", "q", i as f64, i as f64 + 0.5);
        }
        assert_eq!(log.spans().len(), 2);
        assert_eq!(log.dropped(), 3);
        log.note_dropped(2);
        assert_eq!(log.dropped(), 5);
        let doc = log.to_chrome_json();
        assert_eq!(doc.get("droppedSpans").and_then(Json::as_f64), Some(5.0));
        log.clear();
        assert_eq!(log.spans().len(), 0);
        assert_eq!(log.dropped(), 0);
    }

    #[test]
    fn chrome_export_has_events_and_track_metadata() {
        let mut log = TraceLog::new();
        let parent = log.next_id();
        log.push(TraceSpan {
            id: parent,
            parent: None,
            name: "batch step 0".into(),
            category: SpanCategory::Host,
            track: "host".into(),
            queued_s: 0.0,
            start_s: 0.0,
            end_s: 2e-3,
            args: vec![],
        });
        let child = log.next_id();
        log.push(TraceSpan {
            id: child,
            parent: Some(parent),
            name: "binomial_option".into(),
            category: SpanCategory::Kernel,
            track: "queue".into(),
            queued_s: 1e-4,
            start_s: 2e-4,
            end_s: 1.2e-3,
            args: vec![("work_items".into(), "256".into())],
        });

        let doc = log.to_chrome_json();
        let events = doc.get("traceEvents").and_then(Json::as_arr).expect("events");
        // 2 thread_name metadata + 2 spans.
        assert_eq!(events.len(), 4);
        let kernel = events
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("binomial_option"))
            .expect("kernel event");
        assert_eq!(kernel.get("ph").and_then(Json::as_str), Some("X"));
        let ts = kernel.get("ts").and_then(Json::as_f64).expect("ts");
        let dur = kernel.get("dur").and_then(Json::as_f64).expect("dur");
        assert!((ts - 200.0).abs() < 1e-9); // 2e-4 s = 200 us
        assert!((dur - 1000.0).abs() < 1e-9);
        let args = kernel.get("args").expect("args");
        assert_eq!(args.get("parent_span_id").and_then(Json::as_f64), Some(parent as f64));
        assert_eq!(args.get("work_items").and_then(Json::as_str), Some("256"));
        // The document round-trips through the parser.
        let text = doc.to_string();
        assert_eq!(Json::parse(&text).expect("valid"), doc);
    }
}
