//! Host-time spans recorded from the benchmark's side of each layer
//! boundary, and an observer wrapper that times every call into the
//! observer it wraps. Spans stay in memory until the run ends.

use std::time::Instant;

use hem_core::{Observer, TraceRecord};

/// One timed call: nanoseconds since the recorder's origin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.new`.
    pub name: &'static str,
    /// Start, ns since the origin.
    pub start: u64,
    /// End, ns since the origin.
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end - self.start) as f64 * 1e-9
    }
}

/// A stack-shaped span recorder: a span opened inside another becomes
/// its child.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Spans {
    fn default() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Spans {
    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        let ix = self.spans.len();
        let parent = self.open.last().copied();
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent,
        });
        self.open.push(ix);
        let out = f(self);
        self.open.pop();
        self.spans[ix].end = self.now();
        out
    }

    /// Every closed span, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total seconds of every span named `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .fold(0.0, |a, b| a + b)
    }

    /// Total self seconds of every span named `name`.
    pub fn self_total(&self, name: &str) -> f64 {
        let own = self_times(&self.spans);
        self.spans
            .iter()
            .zip(own)
            .filter(|(s, _)| s.name == name)
            .map(|(_, t)| t as f64 * 1e-9)
            .fold(0.0, |a, b| a + b)
    }
}

/// Self time of each span in ns: its duration minus the part of its
/// interval that its direct children cover. Children may not overlap
/// each other (they are sequential calls), but a child that outlives
/// its parent's interval is clipped to it.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end - s.start).collect();
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let covered = s
                .end
                .min(parent.end)
                .saturating_sub(s.start.max(parent.start));
            own[p] = own[p].saturating_sub(covered);
        }
    }
    own
}

/// Wraps an observer and times every call into it.
pub struct TimedObserver {
    inner: Box<dyn Observer>,
    /// Records observed.
    pub records: u64,
    /// Nanoseconds spent inside the inner observer.
    pub ns: u64,
}

impl TimedObserver {
    /// Wrap `inner`.
    pub fn new(inner: Box<dyn Observer>) -> Self {
        TimedObserver {
            inner,
            records: 0,
            ns: 0,
        }
    }

    /// The wrapped observer.
    pub fn into_inner(self) -> Box<dyn Observer> {
        self.inner
    }
}

impl Observer for TimedObserver {
    fn on_record(&mut self, rec: &TraceRecord) {
        let t0 = Instant::now();
        self.inner.on_record(rec);
        self.ns += t0.elapsed().as_nanos() as u64;
        self.records += 1;
    }

    fn on_flush(&mut self) {
        let t0 = Instant::now();
        self.inner.on_flush();
        self.ns += t0.elapsed().as_nanos() as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("rep", 0, 100, None),
            span("setup", 10, 40, Some(0)),
            span("ir.build", 12, 20, Some(1)),
            span("core.new", 20, 35, Some(1)),
            span("run", 40, 90, Some(0)),
        ];
        // rep: 100 - (30 + 50); setup: 30 - (8 + 15); leaves keep all.
        assert_eq!(self_times(&spans), vec![20, 7, 8, 15, 50]);
    }

    #[test]
    fn self_time_clips_children_to_the_parent() {
        let spans = vec![span("p", 10, 20, None), span("c", 5, 15, Some(0))];
        assert_eq!(self_times(&spans), vec![5, 10]);
    }

    #[test]
    fn recorder_nests_and_totals() {
        let mut s = Spans::default();
        let v = s.time("outer", |s| {
            s.time("inner", |_| 1) + s.time("inner", |_| std::hint::black_box(2))
        });
        assert_eq!(v, 3);
        let sp = s.spans();
        assert_eq!(sp.len(), 3);
        assert_eq!(
            (sp[0].parent, sp[1].parent, sp[2].parent),
            (None, Some(0), Some(0))
        );
        assert!(sp.iter().all(|x| x.start <= x.end));
        let inner = s.total("inner");
        assert!((s.total("outer") - s.self_total("outer") - inner).abs() < 1e-12);
        assert!(s.total("missing").to_bits() == 0, "absent spans total +0");
    }
}
