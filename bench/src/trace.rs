//! Spans recorded by the benchmark's own code, around its calls into each
//! layer. They nest workload → phase (`setup.*`, `run`, `verify`) → layer
//! replay, stay in memory, and are written out once at exit. The crates under
//! test carry no probe: a span here never starts inside them.

use crate::json::Value;
use crate::stats::Log2Hist;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: usize,
    /// The span open when this one began; `None` for the workload span.
    pub parent: Option<usize>,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Handle returned by [`Tracer::begin`]; give it back to [`Tracer::end`].
#[derive(Debug)]
#[must_use = "end the span"]
pub struct Open(Option<usize>);

#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    enabled: bool,
}

impl Tracer {
    /// A disabled tracer records nothing, so the untraced run pays one
    /// branch per phase and nothing per call.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            enabled,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let id = self.spans.len();
        let now = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.stack.last().copied(),
            name: name.to_string(),
            start_ns: now,
            end_ns: now,
        });
        self.stack.push(id);
        Open(Some(id))
    }

    /// Ends `open`, and any span begun inside it that is still open.
    pub fn end(&mut self, open: Open) {
        let Some(id) = open.0 else { return };
        let now = self.now_ns();
        while let Some(top) = self.stack.pop() {
            self.spans[top].end_ns = now;
            if top == id {
                break;
            }
        }
    }

    /// Runs `f` inside a span.
    pub fn scope<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let open = self.begin(name);
        let out = f(self);
        self.end(open);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Duration of `id` minus the part its direct children cover.
    pub fn self_time_ns(&self, id: usize) -> u64 {
        let s = &self.spans[id];
        let children: u64 = self
            .spans
            .iter()
            .filter(|c| c.parent == Some(id))
            .map(|c| c.end_ns - c.start_ns)
            .sum();
        (s.end_ns - s.start_ns).saturating_sub(children)
    }

    /// The span file: every span plus the per-call histogram of the traced
    /// rep (`SimClock::step` calls for World workloads, `demux` calls for
    /// device workloads).
    pub fn to_json(&self, workload: &str, seed: u64, calls: &Log2Hist) -> Value {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Value::object([
                    ("id", Value::from(s.id as u64)),
                    (
                        "parent",
                        s.parent.map_or(Value::Null, |p| Value::from(p as u64)),
                    ),
                    ("name", Value::from(s.name.as_str())),
                    ("start_ns", Value::from(s.start_ns)),
                    ("end_ns", Value::from(s.end_ns)),
                    ("self_ns", Value::from(self.self_time_ns(s.id))),
                ])
            })
            .collect();
        Value::object([
            ("workload", Value::from(workload)),
            ("seed", Value::from(seed)),
            ("spans", Value::Array(spans)),
            (
                "call_ns_log2_hist",
                Value::Array(calls.buckets().iter().map(|&c| Value::from(c)).collect()),
            ),
            ("call_samples", Value::from(calls.count())),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let mut t = Tracer::new(true);
        let w = t.begin("workload");
        t.scope("setup.build", |t| {
            t.scope("setup.build.inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let run = t.begin("run");
        t.end(run);
        t.end(w);
        let s = t.spans();
        assert_eq!(s.len(), 4);
        assert_eq!(s[0].parent, None);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(1));
        assert_eq!(s[3].parent, Some(0));
        assert!(s.iter().all(|x| x.end_ns >= x.start_ns));
        assert!(t.self_time_ns(1) < s[1].end_ns - s[1].start_ns);
        assert!(t.self_time_ns(2) >= 2_000_000);
    }

    #[test]
    fn ending_an_outer_span_closes_what_is_open_inside_it() {
        let mut t = Tracer::new(true);
        let outer = t.begin("outer");
        let _leaked = t.begin("inner");
        t.end(outer);
        assert!(t.spans().iter().all(|s| s.end_ns >= s.start_ns));
        let next = t.begin("next");
        t.end(next);
        assert_eq!(t.spans()[2].parent, None);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let got = t.scope("anything", |_| 7);
        assert_eq!(got, 7);
        assert!(t.spans().is_empty());
    }
}
