//! In-memory spans around the public calls the benchmark makes into each
//! layer, and the per-layer self-time waterfall computed from them.
//!
//! A span is named `layer.call`; its layer is the part before the first dot.
//! A span's self time is the time it covers minus the time its child spans
//! cover. Spans of one round share the round's root span.

use crate::stats::Stopwatch;
use serde::Serialize;
use std::collections::BTreeMap;

/// One recorded span. `start_ns`/`end_ns` count from the tracer's creation.
#[derive(Debug, Clone, Serialize)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Span recorder. A disabled tracer runs the wrapped calls and records
/// nothing, so traced and untraced rounds execute the same code.
#[derive(Debug)]
pub struct Tracer {
    clock: Option<Stopwatch>,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records spans.
    pub fn on() -> Self {
        Tracer {
            clock: Some(Stopwatch::start()),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A tracer that records nothing.
    pub fn off() -> Self {
        Tracer {
            clock: None,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Runs `f` inside a span named `name`, nested under the innermost open
    /// span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let Some(clock) = self.clock else {
            return f(self);
        };
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name,
            start_ns: clock.nanos(),
            end_ns: 0,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        if let Some(span) = self.spans.get_mut(id) {
            span.end_ns = clock.nanos();
        }
        out
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Totals of the spans sharing one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Totals {
    pub calls: u64,
    /// Time the spans cover, children included.
    pub total_ns: u64,
    /// Time the spans cover minus the time their children cover.
    pub self_ns: u64,
}

/// The layer a span name belongs to: the part before the first dot.
pub fn layer(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// Per-name totals over `spans`.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, Totals> {
    let duration = |s: &Span| s.end_ns.saturating_sub(s.start_ns);
    let mut children = vec![0u64; spans.len()];
    for span in spans {
        if let Some(slot) = span.parent.and_then(|p| children.get_mut(p)) {
            *slot += duration(span);
        }
    }
    let mut names: BTreeMap<&'static str, Totals> = BTreeMap::new();
    for (span, covered) in spans.iter().zip(&children) {
        let t = names.entry(span.name).or_default();
        t.calls += 1;
        t.total_ns += duration(span);
        t.self_ns += duration(span).saturating_sub(*covered);
    }
    names
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::off();
        assert_eq!(t.span("a.b", |t| t.span("c.d", |_| 7)), 7);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn spans_nest_and_self_times_add_up_to_the_root() {
        let mut t = Tracer::on();
        t.span("round", |t| {
            t.span("runner.run_batch", |t| t.span("serde_json.parse", |_| ()));
            t.span("experiments.fold", |_| ());
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[3].parent, Some(0));
        let names = totals_by_name(spans);
        let self_sum: u64 = names.values().map(|t| t.self_ns).sum();
        assert_eq!(self_sum, spans[0].end_ns - spans[0].start_ns);
        assert_eq!(names["round"].total_ns, self_sum);
        assert_eq!(
            names["runner.run_batch"].total_ns,
            names["runner.run_batch"].self_ns + names["serde_json.parse"].total_ns
        );
        assert_eq!(layer("serde_json.parse"), "serde_json");
        assert_eq!(layer("round"), "round");
    }
}
