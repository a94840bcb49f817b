//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span is a name, a start and end on one monotonic clock, the span
//! that caused it and the request it belongs to. Spans are kept in memory
//! while the workload runs and written out once it ends, so recording
//! costs one clock read and one short lock per span.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique id within the run.
    pub id: u32,
    /// The span that caused this one (`None` for a top-level span).
    pub parent: Option<u32>,
    /// The layer call, e.g. `engine.submit`.
    pub name: &'static str,
    /// The request the span belongs to.
    pub request: u64,
    /// Start, ns since the epoch.
    pub start: u64,
    /// End, ns since the epoch.
    pub end: u64,
}

impl Span {
    /// Wall duration in nanoseconds.
    #[must_use]
    pub fn duration(&self) -> u64 {
        self.end - self.start
    }
}

/// Records spans from any thread.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            next: AtomicU32::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    fn now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Runs `f` inside a span; `f` receives the span's id so the spans it
    /// causes can name it as their parent.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: Option<u32>,
        request: u64,
        f: impl FnOnce(u32) -> R,
    ) -> R {
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let start = self.now();
        let out = f(id);
        let end = self.now();
        self.spans
            .lock()
            .expect("no thread panics while holding the span list")
            .push(Span {
                id,
                parent,
                name,
                request,
                start,
                end,
            });
        out
    }

    /// Every span recorded so far, ordered by id.
    #[must_use]
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self
            .spans
            .lock()
            .expect("no thread panics while holding the span list")
            .clone();
        spans.sort_by_key(|s| s.id);
        spans
    }
}

/// Runs `f` inside a span when tracing, or bare when not.
pub fn span<R>(
    tracer: Option<&Tracer>,
    name: &'static str,
    parent: Option<u32>,
    request: u64,
    f: impl FnOnce(Option<u32>) -> R,
) -> R {
    match tracer {
        Some(t) => t.span(name, parent, request, |id| f(Some(id))),
        None => f(None),
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that the union of its children's intervals covers. Children that
/// overlap one another (parallel workers) are counted once.
#[must_use]
pub fn self_times(spans: &[Span]) -> BTreeMap<u32, u64> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start, s.end));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut kids = children.remove(&s.id).unwrap_or_default();
            kids.sort_unstable();
            let mut covered = 0;
            let mut cursor = s.start;
            for (a, b) in kids {
                let (a, b) = (a.max(cursor), b.min(s.end));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            (s.id, s.duration() - covered)
        })
        .collect()
}

/// Writes the spans as JSON lines, one span per line, with self times.
///
/// # Errors
///
/// Any I/O error creating or writing the file.
pub fn write_jsonl(spans: &[Span], path: &Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let selfs = self_times(spans);
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
        writeln!(
            out,
            r#"{{"id":{},"parent":{},"name":"{}","request":{},"start_ns":{},"end_ns":{},"self_ns":{}}}"#,
            s.id, parent, s.name, s.request, s.start, s.end, selfs[&s.id]
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name: "t",
            request: 0,
            start,
            end,
        }
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        let spans = [
            span(0, None, 0, 100),
            span(1, Some(0), 10, 40),
            span(2, Some(0), 30, 60),
            span(3, Some(0), 80, 90),
            // A grandchild does not reduce the root's self time again.
            span(4, Some(1), 15, 20),
        ];
        let selfs = self_times(&spans);
        // Children cover [10, 60) and [80, 90): 60 of the root's 100 ns.
        assert_eq!(selfs[&0], 40);
        assert_eq!(selfs[&1], 25);
        assert_eq!(selfs[&2], 30);
        assert_eq!(selfs[&4], 5);
    }

    #[test]
    fn child_running_past_its_parent_is_clipped() {
        let spans = [span(0, None, 0, 50), span(1, Some(0), 40, 70)];
        assert_eq!(self_times(&spans)[&0], 40);
    }

    #[test]
    fn tracer_links_children_to_parents() {
        let tracer = Tracer::default();
        tracer.span("outer", None, 7, |outer| {
            tracer.span("inner", Some(outer), 7, |_| ());
        });
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        let (outer, inner) = (&spans[0], &spans[1]);
        assert_eq!(inner.parent, Some(outer.id));
        assert!(outer.start <= inner.start && inner.end <= outer.end);
        assert_eq!(outer.request, 7);
    }
}
