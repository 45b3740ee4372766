//! In-memory spans for the traced run.
//!
//! Spans are recorded by this benchmark around its calls into each
//! layer's public functions (nothing inside the program is instrumented),
//! kept in memory, and written out once when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    /// Index of the span that caused this one.
    parent: Option<usize>,
    /// Spans of one request (or one compile) share this id.
    req: u64,
}

#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

/// Per-layer totals derived from the spans.
#[derive(Debug, Default, Clone, Copy)]
pub struct LayerTotal {
    /// Span time not covered by child spans, in nanoseconds.
    pub self_ns: u64,
    pub count: u64,
}

impl LayerTotal {
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.self_ns as f64 / 1e3 / self.count as f64
        }
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer { epoch: Instant::now(), spans: Vec::new() }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Record a finished span; returns its index for children to name.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        req: u64,
    ) -> usize {
        let span = Span { name, start_ns: self.ns(start), end_ns: self.ns(end), parent, req };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Open a span whose end is not known yet (a parent); close it with
    /// [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, start: Instant, req: u64) -> usize {
        self.record(name, start, start, None, req)
    }

    pub fn close(&mut self, idx: usize, end: Instant) {
        self.spans[idx].end_ns = self.ns(end);
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Each span's duration minus the time its child spans cover.
    fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<i128> =
            self.spans.iter().map(|s| i128::from(s.end_ns - s.start_ns)).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= i128::from(s.end_ns - s.start_ns);
            }
        }
        own.into_iter().map(|v| v.max(0) as u64).collect()
    }

    /// Self time and call count per span name.
    pub fn layers(&self) -> BTreeMap<&'static str, LayerTotal> {
        let mut out: BTreeMap<&'static str, LayerTotal> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_ns()) {
            let t = out.entry(s.name).or_default();
            t.self_ns += own;
            t.count += 1;
        }
        out
    }

    /// Write every span as one CSV line: name, start, end, parent, request.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "name,start_ns,end_ns,parent,req")?;
        for s in &self.spans {
            let parent = s.parent.map_or(-1, |p| p as i64);
            writeln!(w, "{},{},{},{},{}", s.name, s.start_ns, s.end_ns, parent, s.req)?;
        }
        w.flush()
    }
}
