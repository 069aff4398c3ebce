//! In-memory span recording for the traced run.
//!
//! A span brackets one call into a layer's public function: its layer
//! name, its parent span, its start and end on a monotonic clock, and the
//! heap allocations made while it was open. Spans go into a buffer that
//! is allocated up front, so recording allocates nothing; the buffer is
//! written out once, when the traced run ends.

use crate::alloc;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone, Copy)]
struct Span {
    layer: &'static str,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
    /// Allocation counter at the start, then the span's total once closed.
    allocs: u64,
}

/// Per-layer totals over every span of that layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTotals {
    pub spans: u64,
    pub total_ns: u64,
    /// Total minus the time covered by child spans.
    pub self_ns: u64,
    /// Allocations minus those made inside child spans.
    pub self_allocs: u64,
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn with_capacity(capacity: usize) -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(capacity),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its id.
    pub fn begin(&mut self, layer: &'static str, parent: Option<usize>) -> usize {
        assert!(
            self.spans.len() < self.spans.capacity(),
            "span buffer full: growing it inside a span would count its allocation"
        );
        let span = Span {
            layer,
            parent,
            start_ns: self.now_ns(),
            end_ns: 0,
            allocs: alloc::allocations(),
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    pub fn end(&mut self, id: usize) {
        let now = self.now_ns();
        let allocs = alloc::allocations();
        let span = &mut self.spans[id];
        span.end_ns = now;
        span.allocs = allocs - span.allocs;
    }

    /// Duration of a closed span.
    pub fn duration_ns(&self, id: usize) -> u64 {
        let span = &self.spans[id];
        span.end_ns - span.start_ns
    }

    /// Allocations made while a closed span was open.
    pub fn allocations(&self, id: usize) -> u64 {
        self.spans[id].allocs
    }

    pub fn totals(&self) -> BTreeMap<&'static str, LayerTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        let mut child_allocs = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.end_ns - span.start_ns;
                child_allocs[parent] += span.allocs;
            }
        }
        let mut totals: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
        for (i, span) in self.spans.iter().enumerate() {
            let t = totals.entry(span.layer).or_default();
            let dur = span.end_ns - span.start_ns;
            t.spans += 1;
            t.total_ns += dur;
            t.self_ns += dur.saturating_sub(child_ns[i]);
            t.self_allocs += span.allocs - child_allocs[i];
        }
        totals
    }

    /// Writes every span as one tab-separated line:
    /// `id parent layer start_ns end_ns allocs` (`-` for a root's parent).
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\tlayer\tstart_ns\tend_ns\tallocs")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{i}\t{parent}\t{}\t{}\t{}\t{}",
                s.layer, s.start_ns, s.end_ns, s.allocs
            )?;
        }
        out.flush()
    }
}
