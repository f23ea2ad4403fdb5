//! In-memory span recorder for the traced run.
//!
//! The harness brackets every call into a layer's public functions with a
//! span — name, start, end, parent span, and the op id (one per program
//! execution, query or set-up repetition) — and attaches the counter
//! deltas it read at span close. Time a layer spends where the harness
//! cannot bracket it (kernel compile, loop execution, native compile)
//! enters as a *counter-derived* child whose duration is the program's own
//! counter, so a span's self time is its duration minus its children's.
//! Spans live in memory and are written out once, when the run ends.
//!
//! Spans inside the program are a later change (ROADMAP item 2); these are
//! recorded from the benchmark's own files only.

use crate::stats::median;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    /// What the op ran: an app name, a query class, or "" for none.
    pub label: &'static str,
    pub op: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Duration comes from the program's counters, not the harness clock.
    pub derived: bool,
    pub counters: Vec<(&'static str, u64)>,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |(_, v)| *v)
    }
}

/// Summed duration of the spans named `name`.
pub fn sum_secs(spans: &[Span], name: &str) -> f64 {
    let secs = spans.iter().filter(|s| s.name == name).map(Span::secs);
    // (`+ 0.0`: the empty float sum is -0.)
    secs.sum::<f64>() + 0.0
}

/// Summed `counter` over the spans named `name`.
pub fn sum_counter(spans: &[Span], name: &str, counter: &str) -> u64 {
    let named = spans.iter().filter(|s| s.name == name);
    named.map(|s| s.counter(counter)).sum()
}

/// Sum the spans named `name` per op, and take the median over ops: the
/// time of one set-up repetition.
pub fn median_secs_per_op(spans: &[Span], name: &str) -> f64 {
    let mut by_op: BTreeMap<u64, f64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.name == name) {
        *by_op.entry(s.op).or_insert(0.0) += s.secs();
    }
    median(&by_op.into_values().collect::<Vec<_>>())
}

/// Handle to an open span; `None` when tracing is off.
#[derive(Clone, Copy, Debug)]
pub struct SpanId(Option<usize>);

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Pause or resume recording (the traced run measures its untraced
    /// baseline in the same process to report its own overhead).
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Nanoseconds since the harness started (the span clock).
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Record a span whose boundaries were stamped elsewhere: service
    /// queries overlap, so each is recorded whole when its outcome arrives.
    pub fn record(
        &mut self,
        name: &'static str,
        label: &'static str,
        op: u64,
        parent: Option<SpanId>,
        (start_ns, end_ns): (u64, u64),
    ) -> SpanId {
        let id = self.open(name, label, op, parent);
        if let Some(i) = id.0 {
            self.spans[i].start_ns = start_ns;
            self.spans[i].end_ns = end_ns;
        }
        id
    }

    pub fn open(
        &mut self,
        name: &'static str,
        label: &'static str,
        op: u64,
        parent: Option<SpanId>,
    ) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            label,
            op,
            parent: parent.and_then(|p| p.0),
            start_ns,
            end_ns: start_ns,
            derived: false,
            counters: Vec::new(),
        });
        SpanId(Some(self.spans.len() - 1))
    }

    pub fn close(&mut self, id: SpanId) {
        self.close_with(id, Vec::new());
    }

    /// Close a span, attaching the counter deltas read at the boundary.
    pub fn close_with(&mut self, id: SpanId, counters: Vec<(&'static str, u64)>) {
        if let Some(i) = id.0 {
            self.spans[i].end_ns = self.now_ns();
            self.spans[i].counters = counters;
        }
    }

    /// Record layer-internal time the harness cannot bracket as a child of
    /// `parent`, `nanos` long by the program's own counter.
    pub fn derived_child(&mut self, parent: SpanId, name: &'static str, nanos: u64) {
        let Some(p) = parent.0 else { return };
        if nanos == 0 {
            return;
        }
        let (label, op, start_ns) = {
            let s = &self.spans[p];
            (s.label, s.op, s.start_ns)
        };
        self.spans.push(Span {
            name,
            label,
            op,
            parent: Some(p),
            start_ns,
            end_ns: start_ns + nanos,
            derived: true,
            counters: Vec::new(),
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// A span's duration minus the time its direct children cover.
    pub fn self_secs(&self, index: usize) -> f64 {
        let children: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(index))
            .map(Span::secs)
            .sum();
        (self.spans[index].secs() - children).max(0.0)
    }

    /// Serialize every span as one JSON document.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut out = format!(
            "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"clock\": \"ns since harness start\", \"spans\": [\n"
        );
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"label\": \"{}\", \"op\": {}, \"parent\": {parent}, \
                 \"start\": {}, \"end\": {}, \"derived\": {}, \"counters\": {{",
                s.name, s.label, s.op, s.start_ns, s.end_ns, s.derived
            );
            for (j, (name, value)) in s.counters.iter().enumerate() {
                let sep = if j == 0 { "" } else { ", " };
                let _ = write!(out, "{sep}\"{name}\": {value}");
            }
            out.push_str(if i + 1 == self.spans.len() {
                "}}\n"
            } else {
                "}},\n"
            });
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_off_records_nothing() {
        let mut t = Tracer::new(true);
        let op = t.open("op", "app", 1, None);
        let run = t.open("interp.run", "app", 1, Some(op));
        t.close_with(run, vec![("loops", 3)]);
        t.derived_child(run, "interp.loops", 0);
        t.close(op);
        assert_eq!(t.spans().len(), 2, "zero-length derived child is dropped");
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[1].counter("loops"), 3);
        assert!(t.self_secs(0) <= t.spans()[0].secs());
        assert!(t.to_json("w", 0).contains("\"name\": \"interp.run\""));

        t.set_enabled(false);
        let off = t.open("op", "", 2, None);
        t.close(off);
        assert_eq!(t.spans().len(), 2);
    }
}
