//! Spans recorded around the benchmark's calls into each layer.
//!
//! A span is `{name, op_id, parent, start_ns, end_ns}`; its name starts
//! with the layer it times (`sqlmini.`, `catalog.`, `fmi.`, `estimation.`,
//! `core.`) or `bench.` for the operation itself. Spans are kept in memory
//! and written out once, when the run ends.

use std::io::Write;
use std::ops::Range;
use std::path::Path;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use crate::json::Json;

/// One recorded span. `end_ns` is 0 while the span is open.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `<layer>.<call>`.
    pub name: &'static str,
    /// The operation the span belongs to.
    pub op_id: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// The layer: the name up to the first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    /// Wall time of the span.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Default)]
struct Inner {
    spans: Vec<Span>,
    open: Vec<usize>,
    op: Option<u64>,
}

/// The span recorder. Recording is on only between
/// [`Tracer::begin_op`] and [`Tracer::end_op`]; outside, [`Tracer::span`]
/// just runs its closure.
pub struct Tracer {
    epoch: Instant,
    inner: Mutex<Inner>,
}

impl Tracer {
    /// A new recorder, shared with the objective wrappers it times.
    pub fn new() -> Arc<Tracer> {
        Arc::new(Tracer {
            epoch: Instant::now(),
            inner: Mutex::new(Inner::default()),
        })
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner
            .lock()
            .expect("tracer lock poisoned by a panicking operation")
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Start recording spans for operation `op_id`.
    pub fn begin_op(&self, op_id: u64) {
        self.lock().op = Some(op_id);
    }

    /// Stop recording.
    pub fn end_op(&self) {
        self.lock().op = None;
    }

    /// Run `f` inside a span named `name` (when recording).
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let idx = {
            let mut inner = self.lock();
            let Some(op_id) = inner.op else {
                drop(inner);
                return f();
            };
            let idx = inner.spans.len();
            let parent = inner.open.last().copied();
            let start_ns = self.now_ns();
            inner.spans.push(Span {
                name,
                op_id,
                parent,
                start_ns,
                end_ns: 0,
            });
            inner.open.push(idx);
            idx
        };
        let out = f();
        let end_ns = self.now_ns();
        let mut inner = self.lock();
        inner.spans[idx].end_ns = end_ns;
        inner.open.pop();
        out
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.lock().spans.clone()
    }
}

/// Run `f` in a span when a tracer is given, plainly otherwise.
pub fn span<T>(tracer: Option<&Tracer>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match tracer {
        Some(t) => t.span(name, f),
        None => f(),
    }
}

/// The spans of the operations in `ops`, with each `parent` renumbered to
/// index the returned list (a span's parent is always recorded before it,
/// and belongs to the same operation).
pub fn select(spans: &[Span], ops: Range<u64>) -> Vec<Span> {
    let mut new_index = vec![None; spans.len()];
    let mut kept = Vec::new();
    for (i, s) in spans.iter().enumerate() {
        if ops.contains(&s.op_id) {
            new_index[i] = Some(kept.len());
            kept.push(Span {
                parent: s.parent.and_then(|p| new_index[p]),
                ..s.clone()
            });
        }
    }
    kept
}

/// Self time of every span: its duration minus the part of its interval
/// that the union of its children's intervals covers. Children may nest
/// or overlap; parts of a child outside its parent are ignored.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut cursor = s.start_ns;
            for (a, b) in kids {
                let a = a.max(cursor);
                let b = b.min(s.end_ns);
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// Write spans as JSON lines.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let line = Json::obj([
            ("name", Json::str(s.name)),
            ("op_id", Json::from(s.op_id)),
            ("parent", s.parent.map_or(Json::Null, Json::from)),
            ("start_ns", Json::from(s.start_ns)),
            ("end_ns", Json::from(s.end_ns)),
        ]);
        writeln!(out, "{line}")?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            op_id: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        let spans = vec![
            span("bench.op", None, 0, 100),
            span("core.a", Some(0), 10, 40),
            span("fmi.b", Some(1), 15, 25),
            span("sqlmini.c", Some(0), 50, 60),
        ];
        assert_eq!(self_times(&spans), vec![100 - 30 - 10, 30 - 10, 10, 10]);
        assert_eq!(spans[1].layer(), "core");
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        let spans = vec![
            span("bench.op", None, 0, 100),
            span("x.a", Some(0), 10, 50),
            span("x.b", Some(0), 30, 70),
            // Sticks out past the parent's end: only 90..100 counts.
            span("x.c", Some(0), 90, 120),
            // Inside an earlier child entirely.
            span("x.d", Some(0), 20, 40),
        ];
        // Covered: 10..70 and 90..100 = 70.
        assert_eq!(self_times(&spans)[0], 30);
    }

    #[test]
    fn tracer_records_only_inside_an_op() {
        let t = Tracer::new();
        assert_eq!(t.span("core.x", || 1), 1);
        assert!(t.spans().is_empty());
        t.begin_op(7);
        t.span("bench.op", || t.span("sqlmini.q", || ()));
        t.end_op();
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].op_id, 7);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
    }

    /// A rerun timed phase: the second attempt's spans start deep in the
    /// tracer's list, and its self times must come out as if it were alone.
    #[test]
    fn selecting_a_later_attempt_renumbers_parents() {
        let t = Tracer::new();
        let nested = |op| {
            t.begin_op(op);
            t.span("bench.op", || {
                t.span("core.a", || t.span("fmi.b", || ()));
                t.span("sqlmini.c", || ());
            });
            t.end_op();
        };
        // Attempt 1 is ops 0..3, attempt 2 is ops 3..5.
        (0..5).for_each(nested);
        let all = t.spans();
        let second = select(&all, 3..5);
        assert_eq!(second.len(), 8);
        assert!(second.iter().all(|s| (3..5).contains(&s.op_id)));
        let parents: Vec<Option<usize>> = second.iter().map(|s| s.parent).collect();
        let one = [None, Some(0), Some(1), Some(0)];
        let expected: Vec<Option<usize>> = one
            .iter()
            .chain(&one)
            .enumerate()
            .map(|(i, p)| p.map(|p| p + 4 * (i / 4)))
            .collect();
        assert_eq!(parents, expected);
        // Self times over the selection equal those over the full list.
        let full = self_times(&all);
        assert_eq!(self_times(&second), full[12..].to_vec());
    }
}
