//! Spans recorded around calls into each layer during a traced run.
//!
//! A span is `{name, start, end, parent, req_id}`; spans are kept in
//! memory and written as JSON lines when the run ends. With tracing off
//! every method is a no-op, so the untraced path runs the same code.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Spans beyond this many are counted but not kept (bounds memory).
const MAX_SPANS: usize = 1 << 21;

#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<usize>);

impl SpanId {
    /// No parent: a root span.
    pub const NONE: SpanId = SpanId(None);
}

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    req_id: u64,
}

pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    dropped: u64,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            dropped: 0,
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, parent: SpanId, req_id: u64) -> SpanId {
        if !self.on {
            return SpanId(None);
        }
        if self.spans.len() >= MAX_SPANS {
            self.dropped += 1;
            return SpanId(None);
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: parent.0,
            req_id,
        });
        SpanId(Some(self.spans.len() - 1))
    }

    pub fn end(&mut self, id: SpanId) {
        if let Some(i) = id.0 {
            self.spans[i].end_ns = self.now_ns();
        }
    }

    /// Record an already-timed interval (`start`..`end`) as a span.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant, req_id: u64) {
        if !self.on {
            return;
        }
        if self.spans.len() >= MAX_SPANS {
            self.dropped += 1;
            return;
        }
        let at = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: at(start),
            end_ns: at(end),
            parent: None,
            req_id,
        });
    }

    /// Run `f` inside a span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        req_id: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.begin(name, parent, req_id);
        let out = f();
        self.end(id);
        out
    }

    /// Durations in ns of every kept span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect()
    }

    /// For each span named `parent`, the summed durations of its direct
    /// children named `child`.
    pub fn child_sums(&self, parent: &str, child: &str) -> Vec<f64> {
        let mut sums: Vec<(usize, f64)> = self
            .spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == parent)
            .map(|(i, _)| (i, 0.0))
            .collect();
        for s in self.spans.iter().filter(|s| s.name == child) {
            if let Some(p) = s.parent {
                if let Ok(k) = sums.binary_search_by_key(&p, |&(i, _)| i) {
                    sums[k].1 += (s.end_ns - s.start_ns) as f64;
                }
            }
        }
        sums.into_iter().map(|(_, v)| v).collect()
    }

    /// Write every kept span as one JSON line to `path`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start\":{},\"end\":{},\"parent\":{parent},\"req_id\":{}}}",
                s.name, s.start_ns, s.end_ns, s.req_id
            )?;
        }
        if self.dropped > 0 {
            writeln!(out, "{{\"dropped\":{}}}", self.dropped)?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.begin("a", SpanId(None), 0);
        t.end(id);
        assert_eq!(t.time("b", id, 1, || 5), 5);
        assert!(t.durations("a").is_empty());
    }

    #[test]
    fn children_sum_under_their_parent() {
        let mut t = Tracer::new(true);
        for _ in 0..2 {
            let p = t.begin("sweep", SpanId(None), 0);
            t.time("parse", p, 1, || {
                std::thread::sleep(std::time::Duration::from_millis(1))
            });
            t.time("parse", p, 2, || ());
            t.end(p);
        }
        let sums = t.child_sums("sweep", "parse");
        let sweeps = t.durations("sweep");
        assert_eq!(sums.len(), 2);
        assert!(sums[0] >= 1e6 && sums[0] <= sweeps[0]);
        assert_eq!(t.durations("parse").len(), 4);
    }
}
