//! In-memory spans recorded around calls into the program's layers.
//!
//! A span has a name, a start, an end, a parent and the id of the request
//! it belongs to. Spans stay in memory during the run and are written out
//! as JSON lines when it ends. A span's self time is its duration minus
//! the part of it that its children cover.

use std::collections::BTreeMap;
use std::io::{self, Write as _};
use std::path::Path;
use std::time::Instant;

use crate::stats::Json;

/// Index of a span in its [`Tracer`].
pub type SpanId = usize;

/// One timed interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call, e.g. `query.parse`.
    pub name: &'static str,
    /// Planning method, for the spans that are reported per method.
    pub method: Option<&'static str>,
    /// Request (operation index) the span belongs to.
    pub req: u64,
    /// Start, in ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, in ns since the tracer's epoch.
    pub end_ns: u64,
    /// Enclosing span.
    pub parent: Option<SpanId>,
}

impl Span {
    /// Duration in µs.
    pub fn us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// Collects spans against one epoch.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer whose epoch is now.
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a finished span from `start` to `end`.
    pub fn record(
        &mut self,
        name: &'static str,
        req: u64,
        start: Instant,
        end: Instant,
        parent: Option<SpanId>,
    ) -> SpanId {
        let span = Span {
            name,
            method: None,
            req,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Times `f` as a span and returns its result.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        req: u64,
        parent: Option<SpanId>,
        f: impl FnOnce() -> T,
    ) -> (T, SpanId) {
        let start = Instant::now();
        let out = f();
        let id = self.record(name, req, start, Instant::now(), parent);
        (out, id)
    }

    /// Tags a span with the planning method it measured.
    pub fn set_method(&mut self, id: SpanId, method: &'static str) {
        self.spans[id].method = Some(method);
    }

    /// Opens a span that [`Tracer::close`] ends later (a parent whose
    /// children are recorded in between).
    pub fn open(&mut self, name: &'static str, req: u64, parent: Option<SpanId>) -> SpanId {
        let now = Instant::now();
        self.record(name, req, now, now, parent)
    }

    /// Ends a span opened with [`Tracer::open`].
    pub fn close(&mut self, id: SpanId) {
        self.spans[id].end_ns = self.ns(Instant::now());
    }

    /// Every span recorded, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time in µs of every span: its duration minus the union of its
    /// children's intervals.
    pub fn self_us(&self) -> Vec<f64> {
        let mut children: BTreeMap<SpanId, Vec<(u64, u64)>> = BTreeMap::new();
        for s in &self.spans {
            if let Some(p) = s.parent {
                children.entry(p).or_default().push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let mut covered = 0u64;
                if let Some(kids) = children.get_mut(&i) {
                    kids.sort_unstable();
                    let mut cursor = s.start_ns;
                    for &(a, b) in kids.iter() {
                        let (a, b) = (a.max(cursor), b.min(s.end_ns));
                        if b > a {
                            covered += b - a;
                            cursor = b;
                        }
                    }
                }
                (s.end_ns - s.start_ns).saturating_sub(covered) as f64 / 1e3
            })
            .collect()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let selfs = self.self_us();
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for (i, (s, self_us)) in self.spans.iter().zip(selfs).enumerate() {
            let mut o = Json::obj();
            o.set("id", i)
                .set("name", s.name)
                .set("req", s.req)
                .set("start_ns", s.start_ns)
                .set("end_ns", s.end_ns)
                .set("self_us", self_us)
                .set("parent", s.parent.map_or(Json::Null, Json::from))
                .set("method", s.method.map_or(Json::Null, Json::from));
            writeln!(out, "{o}")?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_covered_children() {
        let mut t = Tracer::new();
        let e = t.epoch;
        let at = |us: u64| e + Duration::from_micros(us);
        let root = t.record("root", 0, at(0), at(100), None);
        t.record("a", 0, at(10), at(40), Some(root));
        // Overlapping child: only the uncovered 40..50 counts again.
        t.record("b", 0, at(30), at(50), Some(root));
        let selfs = t.self_us();
        assert_eq!(selfs[root], 60.0);
        assert_eq!(selfs[1], 30.0);
    }
}
