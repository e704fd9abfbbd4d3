//! In-memory spans around the calls into each layer, written out in
//! Chrome trace-event format when the run ends.
//!
//! The library has no spans of its own yet (ROADMAP item 3), so these are
//! recorded from the benchmark's side of each public function call. A
//! tracer that is not recording still times, so the same probe code runs
//! traced and untraced and the difference is the tracing overhead.

use pj2k_benchmark::json::Json;
use std::io;
use std::path::Path;
use std::time::Instant;

struct Span {
    name: &'static str,
    start_us: f64,
    end_us: f64,
    /// Index of the span that was open when this one began.
    parent: Option<usize>,
}

pub struct Tracer {
    recording: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// A begun span; hand it back to [`Tracer::end`].
pub struct Open {
    start: Instant,
    index: Option<usize>,
}

impl Tracer {
    pub fn new(recording: bool) -> Self {
        Tracer {
            recording,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn begin(&mut self, name: &'static str) -> Open {
        let index = self.recording.then(|| {
            self.spans.push(Span {
                name,
                start_us: self.origin.elapsed().as_secs_f64() * 1e6,
                end_us: f64::NAN,
                parent: self.open.last().copied(),
            });
            self.open.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        Open {
            start: Instant::now(),
            index,
        }
    }

    /// Close a span; returns its duration in seconds.
    pub fn end(&mut self, open: Open) -> f64 {
        let seconds = open.start.elapsed().as_secs_f64();
        if let Some(i) = open.index {
            self.spans[i].end_us = self.origin.elapsed().as_secs_f64() * 1e6;
            let closed = self.open.pop();
            debug_assert_eq!(closed, Some(i), "spans close in LIFO order");
        }
        seconds
    }

    /// Time `f` as a leaf span; returns its result and its seconds.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
        let open = self.begin(name);
        let result = f();
        (result, self.end(open))
    }

    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// Write the spans as complete ("X") events; `args` carries the parent
    /// span's index and the workload, which the format has no field for.
    pub fn write_chrome(&self, path: &Path, workload: &str) -> io::Result<()> {
        let events = self.spans.iter().enumerate().map(|(i, s)| {
            let parent = s.parent.map_or(Json::Null, |p| Json::Num(p as f64));
            Json::obj([
                ("name", Json::str(s.name)),
                ("ph", Json::str("X")),
                ("ts", Json::Num(s.start_us)),
                ("dur", Json::Num(s.end_us - s.start_us)),
                ("pid", Json::Num(1.0)),
                ("tid", Json::Num(1.0)),
                (
                    "args",
                    Json::obj([
                        ("id", Json::Num(i as f64)),
                        ("parent", parent),
                        ("workload", Json::str(workload)),
                    ]),
                ),
            ])
        });
        let doc = Json::obj([
            ("displayTimeUnit", Json::str("ms")),
            ("traceEvents", Json::Arr(events.collect())),
        ]);
        std::fs::write(path, doc.to_string())
    }
}
