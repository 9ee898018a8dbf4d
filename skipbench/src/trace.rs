//! In-memory spans for the traced run.
//!
//! Spans are recorded by the benchmark around its own calls into the
//! library (and from the round-observer hooks), kept in memory, and
//! written out once when the run ends. A span's self time is its duration
//! minus the part of its interval covered by its children; children that
//! ran concurrently on different threads count once.

use std::collections::BTreeMap;
use std::time::Instant;

/// Identifier of a recorded span.
pub type SpanId = usize;

/// One named interval, in nanoseconds since the trace epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span store with a fixed epoch.
#[derive(Debug)]
pub struct Trace {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Trace {
    pub fn new(epoch: Instant) -> Self {
        Self {
            epoch,
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a finished span and returns its id.
    pub fn record(
        &mut self,
        name: impl Into<String>,
        start: Instant,
        end: Instant,
        parent: Option<SpanId>,
    ) -> SpanId {
        self.spans.push(Span {
            name: name.into(),
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
        });
        self.spans.len() - 1
    }

    /// Sets the end of an already recorded span (one opened before its
    /// children were recorded).
    pub fn close(&mut self, id: SpanId, end: Instant) {
        let end_ns = self.ns(end);
        if let Some(span) = self.spans.get_mut(id) {
            span.end_ns = end_ns;
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Total and self time of every span name.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SelfTime {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Self time of each span: its duration minus the union of its
/// children's intervals, clipped to the span.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent.filter(|&p| p < spans.len()) {
            children[parent].push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, kids)| {
            let covered = covered_ns(span.start_ns, span.end_ns, kids);
            span.duration_ns() - covered
        })
        .collect()
}

/// Length of the union of `intervals` inside `[lo, hi)`.
fn covered_ns(lo: u64, hi: u64, mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut cursor = lo;
    for (start, end) in intervals {
        let (start, end) = (start.max(cursor), end.min(hi));
        if end > start {
            covered += end - start;
            cursor = end;
        }
    }
    covered
}

/// Per-name totals over all spans, sorted by name.
pub fn summarize(spans: &[Span]) -> BTreeMap<String, SelfTime> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<String, SelfTime> = BTreeMap::new();
    for (span, self_ns) in spans.iter().zip(selfs) {
        let entry = out.entry(span.name.clone()).or_default();
        entry.count += 1;
        entry.total_ns += span.duration_ns();
        entry.self_ns += self_ns;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span {
            name: name.into(),
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span("cell", 0, 100, None),
            span("round", 10, 30, Some(0)),
            span("round", 40, 70, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![50, 20, 30]);
    }

    #[test]
    fn overlapping_children_count_once() {
        // Two concurrent cells under one campaign span.
        let spans = vec![
            span("campaign", 0, 100, None),
            span("cell", 0, 80, Some(0)),
            span("cell", 20, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 10);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let spans = vec![span("p", 10, 20, None), span("c", 5, 15, Some(0))];
        assert_eq!(self_times(&spans), vec![5, 10]);
    }

    #[test]
    fn grandchildren_only_reduce_their_own_parent() {
        let spans = vec![
            span("a", 0, 100, None),
            span("b", 0, 60, Some(0)),
            span("c", 0, 50, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![40, 10, 50]);
        let summary = summarize(&spans);
        assert_eq!(summary["a"].total_ns, 100);
        assert_eq!(summary["a"].self_ns, 40);
        assert_eq!(summary["b"].count, 1);
    }
}
