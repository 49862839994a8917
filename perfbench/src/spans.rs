//! In-memory spans recorded by the benchmark around the public calls it
//! makes, merged with the serving layer's own request trace, written out
//! once as a Chrome/Perfetto document and reduced to per-layer self time.
//!
//! Each span the benchmark records sits on the track of the layer it
//! measures (`core`, `clc`, `clir.passes`, ...).

use bop_obs::{Json, SpanCategory, TraceLog, TraceSpan};
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// Span recorder with one wall-clock epoch.
pub struct Recorder {
    epoch: Instant,
    log: Mutex<TraceLog>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder { epoch: Instant::now(), log: Mutex::new(TraceLog::new()) }
    }

    /// Seconds since the recorder's epoch.
    pub fn now_s(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Reserve a span id, for a parent whose span closes later.
    pub fn next_id(&self) -> u64 {
        self.log.lock().expect("span log lock").next_id()
    }

    /// Record a completed span of `layer` over `[start_s, end_s]`.
    pub fn record(
        &self,
        id: u64,
        parent: Option<u64>,
        layer: &str,
        name: &str,
        start_s: f64,
        end_s: f64,
    ) {
        self.log.lock().expect("span log lock").push(TraceSpan {
            id,
            parent,
            name: name.to_string(),
            category: SpanCategory::Host,
            track: layer.to_string(),
            queued_s: start_s,
            start_s,
            end_s,
            args: Vec::new(),
        });
    }

    /// Run `f` inside a span of `layer` named `name` under `parent`.
    pub fn span<T>(
        &self,
        parent: Option<u64>,
        layer: &str,
        name: &str,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.next_id();
        let start = self.now_s();
        let out = f();
        self.record(id, parent, layer, name, start, self.now_s());
        out
    }

    /// Merge a Chrome trace exported by the serving layer's
    /// `RequestTracer`, whose clock reads `offset_s` less than this
    /// recorder's. Ids are remapped into this recorder's id space; spans
    /// keep the service's tracks (`serve`, `batcher`, `shard <i>`, ...).
    pub fn import_serve_trace(&self, doc: &Json, offset_s: f64) {
        let tracks = chrome_tracks(doc);
        let spans = chrome_spans(doc);
        let mut log = self.log.lock().expect("span log lock");
        let ids: BTreeMap<u64, u64> = spans
            .iter()
            .filter_map(|e| arg_f64(e, "span_id"))
            .map(|id| (id as u64, log.next_id()))
            .collect();
        for e in spans {
            let (Some(old), Some(ts), Some(dur)) = (
                arg_f64(e, "span_id"),
                e.get("ts").and_then(Json::as_f64),
                e.get("dur").and_then(Json::as_f64),
            ) else {
                continue;
            };
            let category = match e.get("cat").and_then(Json::as_str).unwrap_or("") {
                "serve.request" => SpanCategory::ServeRequest,
                "serve.queue_wait" => SpanCategory::ServeQueueWait,
                "serve.batch" => SpanCategory::ServeBatch,
                "serve.exec" => SpanCategory::ServeExec,
                "serve.retry" => SpanCategory::ServeRetry,
                "serve.redispatch" => SpanCategory::ServeRedispatch,
                "kernel" => SpanCategory::Kernel,
                "barrier_phase" => SpanCategory::BarrierPhase,
                "h2d" => SpanCategory::TransferH2D,
                "d2h" => SpanCategory::TransferD2H,
                "devmem" => SpanCategory::DeviceMem,
                _ => SpanCategory::Host,
            };
            let track = e.get("tid").and_then(Json::as_f64).and_then(|t| tracks.get(&(t as u64)));
            let start_s = ts * 1e-6 + offset_s;
            let args = ["request_id", "request_ids"]
                .iter()
                .filter_map(|k| Some((k.to_string(), e.get("args")?.get(k)?.as_str()?.to_string())))
                .collect();
            log.push(TraceSpan {
                id: ids[&(old as u64)],
                parent: arg_f64(e, "parent_span_id").and_then(|p| ids.get(&(p as u64)).copied()),
                name: e.get("name").and_then(Json::as_str).unwrap_or("").to_string(),
                category,
                track: track.map_or("serve", |t| t).to_string(),
                queued_s: start_s,
                start_s,
                end_s: start_s + dur * 1e-6,
                args,
            });
        }
    }

    /// The merged trace as a Chrome trace-event document.
    pub fn to_chrome_json(&self) -> Json {
        self.log.lock().expect("span log lock").to_chrome_json()
    }

    /// Self time per track: each span's duration minus the part of it its
    /// children cover.
    pub fn self_time_by_layer(&self) -> BTreeMap<String, f64> {
        let log = self.log.lock().expect("span log lock");
        let spans = log.spans();
        let mut children: BTreeMap<u64, Vec<(f64, f64)>> = BTreeMap::new();
        for s in spans {
            if let Some(p) = s.parent {
                children.entry(p).or_default().push((s.start_s, s.end_s));
            }
        }
        let mut by_layer = BTreeMap::new();
        for s in spans {
            let covered = children.get(&s.id).map_or(0.0, |c| covered_s(c, s.start_s, s.end_s));
            *by_layer.entry(s.track.clone()).or_insert(0.0) += (s.duration_s() - covered).max(0.0);
        }
        by_layer
    }
}

/// The complete (`ph: "X"`) events of a Chrome trace document.
pub fn chrome_spans(doc: &Json) -> Vec<&Json> {
    let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap_or(&[]);
    events.iter().filter(|e| e.get("ph").and_then(Json::as_str) == Some("X")).collect()
}

/// Track names by thread id, from a Chrome trace's metadata events.
pub fn chrome_tracks(doc: &Json) -> BTreeMap<u64, &str> {
    let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap_or(&[]);
    events
        .iter()
        .filter(|e| e.get("ph").and_then(Json::as_str) == Some("M"))
        .filter_map(|e| {
            let tid = e.get("tid")?.as_f64()? as u64;
            Some((tid, e.get("args")?.get("name")?.as_str()?))
        })
        .collect()
}

fn arg_f64(event: &Json, key: &str) -> Option<f64> {
    event.get("args")?.get(key)?.as_f64()
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered_s(intervals: &[(f64, f64)], lo: f64, hi: f64) -> f64 {
    let mut clipped: Vec<(f64, f64)> =
        intervals.iter().map(|&(a, b)| (a.max(lo), b.min(hi))).filter(|(a, b)| b > a).collect();
    clipped.sort_by(|x, y| x.0.total_cmp(&y.0));
    let (mut total, mut end) = (0.0, f64::NEG_INFINITY);
    for (a, b) in clipped {
        if b > end {
            total += b - a.max(end);
            end = b;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let rec = Recorder::new();
        let root = rec.next_id();
        rec.record(root, None, "loadgen", "window", 0.0, 10.0);
        for (a, b) in [(1.0, 3.0), (2.0, 4.0), (8.0, 12.0)] {
            let id = rec.next_id();
            rec.record(id, Some(root), "core", "price", a, b);
        }
        let by_layer = rec.self_time_by_layer();
        assert_eq!(by_layer["loadgen"], 10.0 - 3.0 - 2.0);
        assert_eq!(by_layer["core"], 2.0 + 2.0 + 4.0);
    }
}
