//! In-memory span recorder for the traced run.
//!
//! The benchmark opens a span around each call it makes into a layer's
//! public functions. Spans live in memory (name, start, end, parent, shot)
//! and are written out once the traced run ends, so recording costs two
//! clock reads and a push per span.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Spans a traced run records at most (the workloads sample their spans to
/// stay below this).
const SPAN_CAPACITY: usize = 1 << 20;

/// One recorded call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same tracer.
    pub parent: Option<u32>,
    /// The shot (or window, or round) the call worked on.
    pub shot: u64,
}

impl Span {
    pub fn duration_ns(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64
    }
}

/// A per-thread span recorder with a stack of open spans.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Self {
        Self {
            epoch,
            // reserved up front: growing a large span buffer mid-run would
            // stall the thread being traced for milliseconds
            spans: Vec::with_capacity(SPAN_CAPACITY),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn open(&mut self, name: &'static str, shot: u64) -> u32 {
        let id = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            shot,
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn close(&mut self, id: u32) {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id as usize].end_ns = self.now_ns();
    }

    /// Renames a span once its outcome is known (fast or escalated decode).
    pub fn rename(&mut self, id: u32, name: &'static str) {
        self.spans[id as usize].name = name;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in nanoseconds of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ns)
            .collect()
    }

    /// Total duration in nanoseconds of the spans called `name`.
    pub fn total_ns(&self, name: &str) -> f64 {
        self.durations(name).iter().sum()
    }

    /// Self time per span name: each span's duration minus the part of it
    /// its child spans cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0.0; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent as usize] += span.duration_ns();
            }
        }
        let mut totals = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            *totals.entry(span.name).or_insert(0.0) += span.duration_ns() - children;
        }
        totals
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for span in &self.spans {
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"shot\":{}}}",
                span.name, span.start_ns, span.end_ns, parent, span.shot
            )?;
        }
        out.flush()
    }
}

/// Opens a span when the run is traced, that is when `tracer` is `Some`.
pub fn open(tracer: &mut Option<&mut Tracer>, name: &'static str, shot: u64) -> Option<u32> {
    tracer.as_mut().map(|t| t.open(name, shot))
}

/// Closes a span that [`open`] returned.
pub fn close(tracer: &mut Option<&mut Tracer>, span: Option<u32>) {
    if let (Some(t), Some(span)) = (tracer.as_mut(), span) {
        t.close(span);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let epoch = Instant::now();
        let mut tracer = Tracer::new(epoch);
        let root = tracer.open("root", 1);
        let child = tracer.open("child", 1);
        std::thread::sleep(std::time::Duration::from_millis(2));
        tracer.close(child);
        tracer.close(root);
        let spans = tracer.spans();
        assert_eq!(spans[1].parent, Some(0));
        let self_times = tracer.self_times();
        let root_ns = spans[0].duration_ns();
        let child_ns = spans[1].duration_ns();
        assert!(child_ns >= 2e6);
        assert_eq!(self_times["child"], child_ns);
        assert_eq!(self_times["root"], root_ns - child_ns);

        tracer.rename(child, "renamed");
        assert_eq!(tracer.durations("renamed"), vec![child_ns]);
    }

    #[test]
    #[should_panic(expected = "innermost first")]
    fn closing_out_of_order_is_a_bug() {
        let mut tracer = Tracer::new(Instant::now());
        let outer = tracer.open("outer", 0);
        let _inner = tracer.open("inner", 0);
        tracer.close(outer);
    }
}
