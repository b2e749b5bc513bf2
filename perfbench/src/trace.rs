//! In-memory spans recorded by the benchmark around its own calls into
//! the program: world runs, role callbacks and engine chunks.
//!
//! A span has a name, a tag (the wiring or role it belongs to), start and
//! end offsets from the tracer's creation, and the id of the span that
//! caused it (`0` = root). Spans are kept in memory and written out once,
//! when the run ends. A disabled tracer records nothing and hands out id
//! `0`, so traced and untraced passes share one code path.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use serde::Serialize;

use crate::report::Host;

/// Identifier of a recorded span (`SpanId::ROOT` = no parent).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanId(pub u64);

impl SpanId {
    pub const ROOT: SpanId = SpanId(0);
}

#[derive(Clone, Debug, Serialize)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub tag: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Tracer {
    on: bool,
    t0: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            t0: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    /// Run `f` inside a span; `f` receives the span's id so it can
    /// parent its own children.
    pub fn span<T>(
        &self,
        name: &'static str,
        tag: &'static str,
        parent: SpanId,
        f: impl FnOnce(SpanId) -> T,
    ) -> T {
        if !self.on {
            return f(SpanId::ROOT);
        }
        let id = SpanId(self.next.fetch_add(1, Ordering::Relaxed));
        let start = Instant::now();
        let out = f(id);
        self.push(id, name, tag, parent, start, Instant::now());
        out
    }

    /// Record a span whose bounds the caller measured itself.
    pub fn record(
        &self,
        name: &'static str,
        tag: &'static str,
        parent: SpanId,
        start: Instant,
        end: Instant,
    ) {
        if self.on {
            let id = SpanId(self.next.fetch_add(1, Ordering::Relaxed));
            self.push(id, name, tag, parent, start, end);
        }
    }

    fn push(
        &self,
        id: SpanId,
        name: &'static str,
        tag: &'static str,
        parent: SpanId,
        start: Instant,
        end: Instant,
    ) {
        let ns = |t: Instant| t.saturating_duration_since(self.t0).as_nanos() as u64;
        let span = Span {
            id: id.0,
            parent: parent.0,
            name,
            tag,
            start_ns: ns(start),
            end_ns: ns(end),
        };
        self.spans
            .lock()
            .expect("span list poisoned by a panicking worker")
            .push(span);
    }

    pub fn take(&self) -> Vec<Span> {
        let mut spans = std::mem::take(
            &mut *self
                .spans
                .lock()
                .expect("span list poisoned by a panicking worker"),
        );
        spans.sort_by_key(|s| (s.start_ns, s.id));
        spans
    }
}

/// Write `spans` as one JSON document, headed by the run's host record.
pub fn write(path: &std::path::Path, host: &Host, spans: &[Span]) -> std::io::Result<()> {
    decoupling::obs::write_json(&serde_json::json!({ "host": host, "spans": spans }), path)
}
