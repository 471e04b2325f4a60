//! Spans recorded around calls into the simulator's layers.
//!
//! Every span has a name, a start and an end (ns since the tracer was
//! made), the span that caused it and the op it belongs to. Calls that
//! happen thousands of times per span (host-hypervisor exits, wake-up
//! servicing) are not kept one by one: the span carries their count and
//! summed self time instead, so a traced grid stays a few kilobytes.
//! Spans live in memory and are written out as JSON lines at exit.

use neve_json::JsonValue;
use std::time::{Duration, Instant};

/// Aggregated calls of one kind inside a span. `timed` of the `count`
/// calls were timed; their self time `ns` is scaled up to all of them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Calls {
    /// Layer function name, e.g. `kvmarm.handle_sync`.
    pub name: &'static str,
    /// Calls made.
    pub count: u64,
    /// Calls timed.
    pub timed: u64,
    /// Self time of the timed calls.
    pub ns: u64,
}

impl Calls {
    /// No calls yet.
    pub fn new(name: &'static str) -> Self {
        Self {
            name,
            count: 0,
            timed: 0,
            ns: 0,
        }
    }

    /// Counts a call whose self time was measured.
    pub fn timed(&mut self, self_time: Duration) {
        self.count += 1;
        self.timed += 1;
        self.ns += self_time.as_nanos() as u64;
    }

    /// Counts a call that was not timed.
    pub fn untimed(&mut self) {
        self.count += 1;
    }

    /// Self time of every call, the untimed ones estimated from the
    /// timed ones.
    pub fn est_ns(&self) -> u64 {
        if self.timed == 0 {
            0
        } else {
            (self.ns as u128 * self.count as u128 / self.timed as u128) as u64
        }
    }
}

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Which layer call the span wraps, e.g. `grid.cell`.
    pub name: &'static str,
    /// Index of this span in the tracer.
    pub id: usize,
    /// The span that caused this one.
    pub parent: Option<usize>,
    /// The op this span belongs to.
    pub op: u64,
    /// Start, ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, ns since the tracer's epoch.
    pub end_ns: u64,
    /// What the span ran, e.g. a cell label.
    pub what: String,
    /// Aggregated inner calls (disjoint from each other and from any
    /// child span).
    pub calls: Vec<Calls>,
}

impl Span {
    /// The span's duration.
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    fn to_json(&self) -> JsonValue {
        let calls = self
            .calls
            .iter()
            .map(|c| {
                JsonValue::Object(vec![
                    ("name".into(), c.name.into()),
                    ("count".into(), c.count.into()),
                    ("timed".into(), c.timed.into()),
                    ("ns".into(), c.ns.into()),
                ])
            })
            .collect();
        JsonValue::Object(vec![
            ("name".into(), self.name.into()),
            ("id".into(), (self.id as u64).into()),
            (
                "parent".into(),
                self.parent
                    .map_or(JsonValue::Null, |p| JsonValue::from(p as u64)),
            ),
            ("op".into(), self.op.into()),
            ("start_ns".into(), self.start_ns.into()),
            ("end_ns".into(), self.end_ns.into()),
            ("what".into(), self.what.as_str().into()),
            ("calls".into(), JsonValue::Array(calls)),
        ])
    }
}

/// A span's self time: its duration minus the part of it that its
/// child spans cover (overlapping children counted once, parts outside
/// the span ignored) minus its aggregated inner calls.
pub fn self_ns(span: &Span, children: &[&Span]) -> u64 {
    let mut iv: Vec<(u64, u64)> = children
        .iter()
        .map(|c| (c.start_ns.max(span.start_ns), c.end_ns.min(span.end_ns)))
        .filter(|(s, e)| s < e)
        .collect();
    iv.sort_unstable();
    let mut covered = 0;
    let mut reach = span.start_ns;
    for (s, e) in iv {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    let calls: u64 = span.calls.iter().map(Calls::est_ns).sum();
    span.ns().saturating_sub(covered).saturating_sub(calls)
}

/// Keeps spans in memory. Untraced ops are handed no tracer at all.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer whose epoch is now.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// `at` in ns since the epoch.
    fn ns_at(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a finished span and returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        (start, end): (Instant, Instant),
        what: String,
        calls: Vec<Calls>,
    ) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            id,
            parent,
            op,
            start_ns: self.ns_at(start),
            end_ns: self.ns_at(end),
            what,
            calls,
        });
        id
    }

    /// Starts a span now, so spans it causes can name it as parent;
    /// [`Tracer::close`] ends it.
    pub fn open(&mut self, name: &'static str, op: u64, parent: Option<usize>) -> usize {
        let now = Instant::now();
        self.record(name, op, parent, (now, now), String::new(), vec![])
    }

    /// Ends an open span now.
    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.ns_at(Instant::now());
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as JSON lines, one span per line.
    pub fn jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            out.push_str(&s.to_json().compact());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, calls: Vec<Calls>) -> Span {
        Span {
            name: "t",
            id: 0,
            parent: None,
            op: 0,
            start_ns,
            end_ns,
            what: String::new(),
            calls,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children_once() {
        let parent = span(100, 200, vec![]);
        assert_eq!(self_ns(&parent, &[]), 100);
        let a = span(110, 130, vec![]);
        let b = span(120, 150, vec![]); // overlaps a: union is 110..150
        let c = span(180, 260, vec![]); // sticks out: only 180..200 counts
        let d = span(10, 20, vec![]); // entirely outside
        assert_eq!(self_ns(&parent, &[&a, &b, &c, &d]), 100 - 40 - 20);
        let nested = span(112, 118, vec![]); // inside a: already covered
        assert_eq!(self_ns(&parent, &[&a, &nested, &b, &c]), 40);
    }

    #[test]
    fn self_time_subtracts_aggregated_calls_scaled_to_every_call() {
        let mut hyp = Calls::new("kvmarm.handle_sync");
        hyp.timed(Duration::from_nanos(30));
        hyp.timed(Duration::from_nanos(10));
        let mut wake = Calls::new("armv8.service_wakeups");
        wake.timed(Duration::from_nanos(4));
        for _ in 0..15 {
            wake.untimed();
        }
        assert_eq!(wake.est_ns(), 64);
        let s = span(0, 1000, vec![hyp, wake]);
        assert_eq!(self_ns(&s, &[]), 1000 - 40 - 64);
        let child = span(900, 1000, vec![]);
        assert_eq!(self_ns(&s, &[&child]), 1000 - 40 - 64 - 100);
        // Never negative.
        assert_eq!(self_ns(&span(0, 10, vec![hyp]), &[]), 0);
    }

    #[test]
    fn spans_serialize_with_their_parent_and_op() {
        let mut t = Tracer::new();
        let op = t.open("op", 3, None);
        let now = Instant::now();
        let child = t.record("x", 3, Some(op), (now, now), "w".into(), vec![]);
        t.close(op);
        assert_eq!((op, child), (0, 1));
        let text = t.jsonl();
        let lines: Vec<JsonValue> = text.lines().map(|l| neve_json::parse(l).unwrap()).collect();
        assert_eq!(lines[0].get("parent"), Some(&JsonValue::Null));
        assert_eq!(lines[1].get("parent").and_then(|v| v.as_u64()), Some(0));
        assert_eq!(lines[1].get("op").and_then(|v| v.as_u64()), Some(3));
        assert!(t.spans()[0].end_ns >= t.spans()[1].end_ns);
    }
}
