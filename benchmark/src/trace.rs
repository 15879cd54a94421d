//! In-memory spans recorded around the calls the benchmark makes into each
//! layer, written out as JSONL when the run ends.
//!
//! A span has a name, a start, an end, a parent (0 for a root) and the id
//! of the request or job it belongs to. A layer's self time is its span's
//! duration minus the part of that interval its child spans cover; the
//! coverage of a root span is the share of it that its children cover.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span; times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span store. Recording is a no-op while the tracer is disabled, so
/// untraced phases pay one atomic load per would-be span.
#[derive(Debug)]
pub struct Tracer {
    enabled: AtomicBool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    #[must_use]
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled: AtomicBool::new(enabled),
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// A fresh span id, for a parent whose children are recorded before it
    /// ends (0 while disabled).
    #[must_use]
    pub fn next_id(&self) -> u64 {
        if self.enabled() {
            self.next_id.fetch_add(1, Ordering::Relaxed)
        } else {
            0
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records a finished span under a pre-allocated `id`.
    pub fn record_as(
        &self,
        id: u64,
        name: &'static str,
        parent: u64,
        request: u64,
        start: Instant,
        end: Instant,
    ) {
        if !self.enabled() {
            return;
        }
        let span = Span {
            id,
            parent,
            request,
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        };
        self.spans.lock().expect("span store lock").push(span);
    }

    /// Records a finished span and returns its id.
    pub fn record(
        &self,
        name: &'static str,
        parent: u64,
        request: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let id = self.next_id();
        self.record_as(id, name, parent, request, start, end);
        id
    }

    /// Runs `f` inside a span.
    pub fn time<T>(
        &self,
        name: &'static str,
        parent: u64,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = f();
        self.record(name, parent, request, start, Instant::now());
        out
    }

    #[must_use]
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span store lock").clone()
    }

    /// Writes every span as one JSON line.
    ///
    /// # Errors
    ///
    /// I/O errors creating or writing `path`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans.lock().expect("span store lock").iter() {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.request, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Length of the union of `intervals`, each clipped to `[lo, hi]`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

/// Child intervals of every span that has children, keyed by parent id.
fn children(spans: &[Span]) -> BTreeMap<u64, Vec<(u64, u64)>> {
    let mut map: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        map.entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    map
}

/// Per span name: the summed self time in nanoseconds and the span count.
#[must_use]
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (u64, usize)> {
    let mut kids = children(spans);
    let mut out: BTreeMap<&'static str, (u64, usize)> = BTreeMap::new();
    for s in spans {
        let covered = kids
            .get_mut(&s.id)
            .map_or(0, |iv| covered_ns(iv, s.start_ns, s.end_ns));
        let entry = out.entry(s.name).or_default();
        entry.0 += s.duration_ns() - covered;
        entry.1 += 1;
    }
    out
}

/// Share of the root spans' total duration that their children cover
/// (0 when there are no root spans with a duration).
#[must_use]
pub fn coverage(spans: &[Span]) -> f64 {
    let mut kids = children(spans);
    let (mut covered, mut total) = (0u64, 0u64);
    for s in spans.iter().filter(|s| s.parent == 0) {
        total += s.duration_ns();
        if let Some(iv) = kids.get_mut(&s.id) {
            covered += covered_ns(iv, s.start_ns, s.end_ns);
        }
    }
    if total == 0 {
        0.0
    } else {
        covered as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            request: 7,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(1, 0, "request", 0, 100),
            // Overlapping children cover [10, 50) once, not twice.
            span(2, 1, "admit", 10, 40),
            span(3, 1, "server", 30, 50),
            // A child running past its parent's end counts only inside it.
            span(4, 1, "tail", 90, 130),
            span(5, 3, "solve", 35, 45),
        ];
        let t = self_times(&spans);
        assert_eq!(t["request"], (100 - 40 - 10, 1));
        assert_eq!(t["admit"], (30, 1));
        assert_eq!(t["server"], (20 - 10, 1));
        assert_eq!(t["solve"], (10, 1));
        assert_eq!(t["tail"], (40, 1));
        assert!((coverage(&spans) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn leaf_and_repeated_spans_accumulate() {
        let spans = [span(1, 0, "job", 0, 10), span(2, 0, "job", 20, 50)];
        assert_eq!(self_times(&spans)["job"], (40, 2));
        assert_eq!(coverage(&spans), 0.0);
        assert_eq!(coverage(&[]), 0.0);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::new(false);
        let now = Instant::now();
        assert_eq!(tracer.record("x", 0, 0, now, now), 0);
        tracer.set_enabled(true);
        let id = tracer.record("y", 0, 3, now, Instant::now());
        assert!(id > 0);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 1);
        assert_eq!((spans[0].name, spans[0].request), ("y", 3));
    }
}
