//! In-memory spans for the traced run.
//!
//! The harness records a span around each call into a layer's public
//! function. Spans stay in memory until the workload ends and are then
//! written as one JSON object per line. Spans of one construct, query
//! or request share an `op` id; a child names its parent, and a span's
//! self time is its duration minus what its children cover.

use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the causing span in the tracer's list.
    pub parent: Option<usize>,
    /// Shared by every span of one construct / query / request.
    pub op: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Collects spans from any thread; timestamps count from its creation.
pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a finished span and returns its index.
    pub fn record(
        &self,
        name: &str,
        op: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let span = Span {
            name: name.to_owned(),
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            op,
        };
        let mut spans = self
            .spans
            .lock()
            .expect("no span recorder panics while holding the lock");
        spans.push(span);
        spans.len() - 1
    }

    /// Opens a span that [`close`](Self::close) ends later, so children
    /// recorded in between can name it as their parent.
    pub fn open(&self, name: &str, op: u64, parent: Option<usize>) -> usize {
        let now = Instant::now();
        self.record(name, op, parent, now, now)
    }

    pub fn close(&self, id: usize) {
        let end = self.ns(Instant::now());
        self.spans
            .lock()
            .expect("no span recorder panics while holding the lock")[id]
            .end_ns = end;
    }

    /// Runs `f` under a span.
    pub fn time<T>(&self, name: &str, op: u64, parent: Option<usize>, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.record(name, op, parent, start, Instant::now());
        out
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("no span recorder panics while holding the lock")
            .clone()
    }

    /// Durations, in milliseconds, of every span with this name.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e6)
            .collect()
    }

    /// Writes the spans as JSON lines, each with its self time.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans();
        let selfs = self_times_ns(&spans);
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, (s, self_ns)) in spans.iter().zip(selfs).enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\
                 \"op\":{},\"self_ns\":{self_ns}}}",
                s.name, s.start_ns, s.end_ns, s.op
            )?;
        }
        out.flush()
    }
}

/// Self time of each span: its duration minus the part of its interval
/// that its direct children cover (overlapping children count once).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let lo = s.start_ns.max(spans[p].start_ns);
            let hi = s.end_ns.min(spans[p].end_ns);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for (lo, hi) in kids {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.into(),
            start_ns: start,
            end_ns: end,
            parent,
            op: 1,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span("construct", 0, 100, None),
            span("ground", 10, 40, Some(0)),
            span("sample", 40, 90, Some(0)),
            span("rule", 15, 25, Some(1)),
            // Overlaps `sample`: the shared 10 ns count once.
            span("overlap", 80, 95, Some(0)),
        ];
        assert_eq!(
            self_times_ns(&spans),
            vec![100 - 30 - 50 - 5, 20, 50, 10, 15]
        );
    }

    #[test]
    fn child_outside_parent_is_clipped() {
        let spans = vec![span("p", 10, 20, None), span("c", 0, 15, Some(0))];
        assert_eq!(self_times_ns(&spans), vec![5, 15]);
    }

    #[test]
    fn open_close_nests_recorded_children() {
        let t = Tracer::new();
        let root = t.open("construct", 7, None);
        let x = t.time("ground", 7, Some(root), || 41 + 1);
        t.close(root);
        assert_eq!(x, 42);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(root));
        assert!(spans[0].end_ns >= spans[1].end_ns);
        assert!(self_times_ns(&spans)[0] <= spans[0].duration_ns());
        assert_eq!(t.durations_ms("ground").len(), 1);
    }
}
