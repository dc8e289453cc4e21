//! In-memory spans around calls into each layer, written out when the
//! run ends.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

use crate::stats::median;

/// One timed call: `parent` is the span of the enclosing stage, and all
/// spans of one request share `request`.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub request: u64,
    pub id: usize,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Collects spans in memory.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
        }
    }

    /// Runs `f` inside a span and returns its result and the span id.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        request: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, usize) {
        let start = self.origin.elapsed();
        let out = f();
        let end = self.origin.elapsed();
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            request,
            id,
            parent,
            start_ns: start.as_nanos() as u64,
            end_ns: end.as_nanos() as u64,
        });
        (out, id)
    }

    /// Durations of every span called `name`, µs.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect()
    }

    /// Median duration of the spans called `name`, µs.
    pub fn median_us(&self, name: &str) -> f64 {
        median(&mut self.durations_us(name))
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes one JSON object per span, one per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                r#"{{"name":"{}","request":{},"id":{},"parent":{},"start_ns":{},"end_ns":{}}}"#,
                s.name, s.request, s.id, parent, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_link_parents_and_requests() {
        let mut t = Tracer::new();
        let (_, root) = t.span("root", 7, None, || ());
        let (v, child) = t.span("child", 7, Some(root), || 41 + 1);
        assert_eq!(v, 42);
        assert_eq!(t.spans[child].parent, Some(root));
        assert_eq!(t.spans[child].request, 7);
        assert_eq!(t.durations_us("child").len(), 1);
        assert!(t.median_us("missing").is_nan());
    }
}
