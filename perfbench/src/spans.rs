//! In-memory spans of the traced run.
//!
//! Spans are recorded by the benchmark around its calls into each
//! module's public functions (nothing is recorded inside the program).
//! They stay in memory and are written out once, when the run ends,
//! together with a per-layer self-time table.

use std::cell::Cell;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One recorded span. Times are seconds since the run's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `smpi.advance`.
    pub name: String,
    /// Start, seconds since the epoch.
    pub start_s: f64,
    /// End, seconds since the epoch.
    pub end_s: f64,
    /// Time the span's work took: `end_s - start_s`, or, for a span that
    /// stands for several disjoint intervals, their summed length.
    pub busy_s: f64,
    /// Number of intervals the span stands for (1 for an ordinary span).
    pub pieces: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Workload the span belongs to.
    pub workload: String,
}

/// Disjoint intervals of one layer, collected where no span can be
/// opened: inside a source the engine pulls from while it advances.
#[derive(Debug, Default, Clone, Copy)]
pub struct Pieces {
    first: Option<Instant>,
    last: Option<Instant>,
    busy: Duration,
    count: u64,
}

impl Pieces {
    /// Adds the interval `start..end` to the shared collector `cell`.
    pub fn add(cell: &Cell<Pieces>, start: Instant, end: Instant) {
        let mut p = cell.get();
        p.first.get_or_insert(start);
        p.last = Some(end);
        p.busy += end - start;
        p.count += 1;
        cell.set(p);
    }
}

/// Records nested spans against one epoch.
pub struct Tracer {
    epoch: Instant,
    workload: String,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer whose times count from now.
    pub fn new(workload: &str) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            workload: workload.to_string(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn since_epoch(&self, at: Instant) -> f64 {
        at.duration_since(self.epoch).as_secs_f64()
    }

    fn push(&mut self, name: &str, start_s: f64, end_s: f64, busy_s: f64, pieces: u64) -> usize {
        self.spans.push(Span {
            name: name.to_string(),
            start_s,
            end_s,
            busy_s,
            pieces,
            parent: self.open.last().copied(),
            workload: self.workload.clone(),
        });
        self.spans.len() - 1
    }

    /// Runs `f` inside a span named `name`; spans opened inside `f`
    /// become its children. Returns `f`'s result.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let start_s = self.since_epoch(Instant::now());
        let id = self.push(name, start_s, f64::NAN, f64::NAN, 1);
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        let end_s = self.since_epoch(Instant::now());
        self.spans[id].end_s = end_s;
        self.spans[id].busy_s = end_s - start_s;
        out
    }

    /// Records the intervals collected in `pieces` as one child span of
    /// the open span, from the first start to the last end; nothing when
    /// there are none.
    pub fn pieces(&mut self, name: &str, pieces: Pieces) {
        if let (Some(first), Some(last)) = (pieces.first, pieces.last) {
            let (start_s, end_s) = (self.since_epoch(first), self.since_epoch(last));
            self.push(
                name,
                start_s,
                end_s,
                pieces.busy.as_secs_f64(),
                pieces.count,
            );
        }
    }

    /// The recorded spans, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Summed self time of the spans named `name` among those recorded
    /// from index `first` on, seconds.
    pub fn self_s(&self, first: usize, name: &str) -> f64 {
        self_times(&self.spans, first)
            .iter()
            .find(|r| r.name == name)
            .map_or(0.0, |r| r.self_s)
    }
}

/// One row of the self-time table.
#[derive(Debug, Clone, PartialEq)]
pub struct SelfTime {
    /// Span name.
    pub name: String,
    /// Number of spans with that name.
    pub count: usize,
    /// Summed busy times, seconds.
    pub total_s: f64,
    /// Summed self times (busy time minus the children's busy times).
    pub self_s: f64,
}

/// Per-name self times of the spans from index `first` on: each span's
/// busy time minus the busy time of its direct children. Rows keep
/// first-appearance order.
pub fn self_times(spans: &[Span], first: usize) -> Vec<SelfTime> {
    let mut child_s = vec![0.0; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_s[p] += s.busy_s;
        }
    }
    let mut rows: Vec<SelfTime> = Vec::new();
    for (s, covered) in spans.iter().zip(child_s).skip(first) {
        let row = match rows.iter_mut().position(|r| r.name == s.name) {
            Some(i) => &mut rows[i],
            None => {
                rows.push(SelfTime {
                    name: s.name.clone(),
                    count: 0,
                    total_s: 0.0,
                    self_s: 0.0,
                });
                rows.last_mut().expect("row just pushed")
            }
        };
        row.count += 1;
        row.total_s += s.busy_s;
        row.self_s += s.busy_s - covered;
    }
    rows
}

/// Renders the self-time table as aligned text.
pub fn render_table(rows: &[SelfTime]) -> String {
    let mut out = format!(
        "{:<32} {:>6} {:>12} {:>12}\n",
        "span", "count", "total_s", "self_s"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<32} {:>6} {:>12.6} {:>12.6}",
            r.name, r.count, r.total_s, r.self_s
        );
    }
    out
}

/// The spans and the self-time table as one JSON document.
pub fn to_json(spans: &[Span], rows: &[SelfTime], header: &[(&str, String)]) -> String {
    let mut out = String::from("{\n");
    for (k, v) in header {
        let _ = writeln!(out, "  \"{k}\": {v},");
    }
    out.push_str("  \"spans\": [\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            out,
            "    {{\"id\": {i}, \"name\": \"{}\", \"start_s\": {:.9}, \"end_s\": {:.9}, \
             \"busy_s\": {:.9}, \"pieces\": {}, \"parent\": {parent}, \"workload\": \"{}\"}}",
            s.name, s.start_s, s.end_s, s.busy_s, s.pieces, s.workload
        );
        out.push_str(if i + 1 < spans.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ],\n  \"self_times\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"name\": \"{}\", \"count\": {}, \"total_s\": {:.9}, \"self_s\": {:.9}}}",
            r.name, r.count, r.total_s, r.self_s
        );
        out.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_s: f64, end_s: f64, parent: Option<usize>) -> Span {
        Span {
            name: name.into(),
            start_s,
            end_s,
            busy_s: end_s - start_s,
            pieces: 1,
            parent,
            workload: "w".into(),
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut spans = vec![
            span("run", 0.0, 10.0, None),
            span("decode", 1.0, 3.0, Some(0)),
            span("engine", 3.0, 9.0, Some(0)),
            span("advance", 4.0, 8.0, Some(2)),
            // Three pieces of decoding interleaved with `advance`.
            span("decode", 4.5, 7.5, Some(3)),
        ];
        spans[4].busy_s = 1.5;
        spans[4].pieces = 3;
        let rows = self_times(&spans, 0);
        let get = |n: &str| rows.iter().find(|r| r.name == n).unwrap().clone();
        assert_eq!(get("run").self_s, 2.0);
        assert_eq!(get("engine").self_s, 2.0);
        assert_eq!(get("advance").self_s, 2.5);
        assert_eq!((get("decode").count, get("decode").self_s), (2, 3.5));
        let total_self: f64 = rows.iter().map(|r| r.self_s).sum();
        assert_eq!(total_self, 10.0, "self times partition the root");
        let from_engine = self_times(&spans, 2);
        assert_eq!(from_engine.len(), 3, "spans before `first` are left out");
        assert_eq!(from_engine[2].self_s, 1.5);
    }

    #[test]
    fn tracer_nests_spans_and_pieces() {
        let mut t = Tracer::new("w");
        let cell = Cell::new(Pieces::default());
        t.span("outer", |t| {
            t.span("inner", |_| ());
            t.span("inner", |t| {
                t.span("leaf", |_| ());
                let a = Instant::now();
                Pieces::add(&cell, a, a + Duration::from_millis(2));
                Pieces::add(
                    &cell,
                    a + Duration::from_millis(5),
                    a + Duration::from_millis(6),
                );
                t.pieces("piece", cell.take());
                t.pieces("none", cell.take());
            });
        });
        let s = t.spans();
        assert_eq!(s.len(), 5, "an empty collector records no span");
        assert_eq!(s[0].parent, None);
        assert_eq!(
            (s[1].parent, s[2].parent, s[3].parent, s[4].parent),
            (Some(0), Some(0), Some(2), Some(2))
        );
        assert!(s.iter().all(|x| x.end_s >= x.start_s));
        assert!(s[0].end_s >= s[3].end_s);
        assert_eq!((s[4].pieces, s[4].busy_s), (2, 0.003));
        assert!((s[4].end_s - s[4].start_s - 0.006).abs() < 1e-9);
        let own = s[2].busy_s - (s[3].busy_s + 0.003);
        assert!((t.self_s(0, "inner") - (s[1].busy_s + own)).abs() < 1e-12);
        assert!((t.self_s(2, "inner") - own).abs() < 1e-12);
        let json = to_json(s, &self_times(s, 0), &[("nproc", "2".into())]);
        assert!(json.contains("\"nproc\": 2,") && json.contains("\"pieces\": 2,"));
    }
}
