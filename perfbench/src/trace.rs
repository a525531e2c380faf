//! Span recording around the benchmark's calls into the library.
//!
//! A [`Tracer`] records one span per timed public call: name, start, end,
//! parent span and a group id (the batch or request the call served).
//! Spans stay in memory and are written out as chrome-trace JSON when the
//! run ends. A disabled tracer records nothing and only runs the closure.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified call name, e.g. `index.lut`.
    pub name: &'static str,
    /// Start, in ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, in ns since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Batch or request id shared by the spans of one unit of work.
    pub group: u64,
}

impl Span {
    /// Span duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span recorder for the benchmark's single-threaded load loop.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
    group: Cell<u64>,
}

impl Tracer {
    /// A tracer that records spans when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
            group: Cell::new(0),
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Sets the group id stamped on spans opened from now on.
    pub fn set_group(&self, group: u64) {
        self.group.set(group);
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let idx = {
            let mut spans = self.spans.borrow_mut();
            let parent = self.open.borrow().last().copied();
            let start = self.epoch.elapsed().as_nanos() as u64;
            spans.push(Span {
                name,
                start_ns: start,
                end_ns: start,
                parent,
                group: self.group.get(),
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(idx);
        let out = f();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[idx].end_ns = self.epoch.elapsed().as_nanos() as u64;
        out
    }

    /// The recorded spans.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }

    /// Total self time per span name: each span's duration minus the part
    /// its direct children cover.
    pub fn self_time_ns(&self) -> BTreeMap<&'static str, u64> {
        self_times(&self.spans.borrow())
    }

    /// `(group, duration ns)` of every span named `name`, in order.
    pub fn durations(&self, name: &str) -> Vec<(u64, u64)> {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.group, s.dur_ns()))
            .collect()
    }

    /// Chrome-trace (`chrome://tracing`, Perfetto) JSON of every span.
    pub fn chrome_json(&self) -> String {
        let spans = self.spans.borrow();
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or(-1, |p| p as i64);
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{i},\"parent\":{parent},\"group\":{}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                s.group
            ));
        }
        out.push_str("]}");
        out
    }
}

/// Self time per span name over `spans` (see [`Tracer::self_time_ns`]).
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            covered[p] += s.dur_ns();
        }
    }
    let mut out = BTreeMap::new();
    for (s, c) in spans.iter().zip(&covered) {
        *out.entry(s.name).or_insert(0) += s.dur_ns().saturating_sub(*c);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            Span {
                name: "outer",
                start_ns: 0,
                end_ns: 100,
                parent: None,
                group: 0,
            },
            Span {
                name: "inner",
                start_ns: 10,
                end_ns: 40,
                parent: Some(0),
                group: 0,
            },
            Span {
                name: "inner",
                start_ns: 50,
                end_ns: 70,
                parent: Some(0),
                group: 0,
            },
        ];
        let t = self_times(&spans);
        assert_eq!(t["outer"], 50);
        assert_eq!(t["inner"], 50);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("x", || 7), 7);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn nested_spans_link_parents_and_groups() {
        let t = Tracer::new(true);
        t.set_group(3);
        t.span("a", || t.span("b", || ()));
        let s = t.spans();
        assert_eq!(s.len(), 2);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[1].group, 3);
        assert!(t.chrome_json().contains("\"name\":\"b\""));
    }
}
