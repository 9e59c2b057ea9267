//! In-memory span recorder.
//!
//! Spans are recorded by the benchmark around its own calls into the
//! program's public functions; nothing inside the program is instrumented.
//! Each span carries its name, start and end (nanoseconds since the
//! recorder's epoch), the id of the span that caused it, and a tag — the
//! grid-cell index or request number it belongs to. Spans stay in memory
//! until [`Recorder::write_jsonl`] writes them once at the end of a run.

use std::collections::HashMap;
use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    /// Cell index or request number.
    pub tag: u64,
    pub start: u64,
    pub end: u64,
}

impl Span {
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// A span that has started but not ended.
#[derive(Debug)]
pub struct Open {
    pub id: u64,
    parent: Option<u64>,
    name: &'static str,
    tag: u64,
    start: u64,
}

pub struct Recorder {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn open(&self, name: &'static str, parent: Option<u64>, tag: u64) -> Open {
        Open {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            name,
            tag,
            start: self.now(),
        }
    }

    /// Ends `open` now and returns the closed span.
    pub fn close(&self, open: Open) -> Span {
        let span = Span {
            id: open.id,
            parent: open.parent,
            name: open.name,
            tag: open.tag,
            start: open.start,
            end: self.now(),
        };
        self.spans
            .lock()
            .expect("span list poisoned")
            .push(span.clone());
        span
    }

    /// Records a span whose length was measured elsewhere — a duration
    /// the program reports — starting at `start`.
    pub fn push_derived(
        &self,
        name: &'static str,
        parent: Option<u64>,
        tag: u64,
        start: u64,
        len: u64,
    ) {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.spans.lock().expect("span list poisoned").push(Span {
            id,
            parent,
            name,
            tag,
            start,
            end: start + len,
        });
    }

    /// Runs `f` inside a span.
    pub fn time<T>(
        &self,
        name: &'static str,
        parent: Option<u64>,
        tag: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let open = self.open(name, parent, tag);
        let out = f();
        self.close(open);
        out
    }

    /// Number of spans recorded so far (a mark for [`Recorder::spans_since`]).
    pub fn len(&self) -> usize {
        self.spans.lock().expect("span list poisoned").len()
    }

    /// The spans recorded after `mark`.
    pub fn spans_since(&self, mark: usize) -> Vec<Span> {
        self.spans.lock().expect("span list poisoned")[mark..].to_vec()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans.lock().expect("span list poisoned").iter() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"tag\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.name, s.tag, s.start, s.end
            )?;
        }
        out.flush()
    }
}

/// Length of the union of `intervals` (each `(start, end)`).
pub fn union_len(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(s, e) in intervals.iter() {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// Self time of every span, by id: its duration minus the part of its
/// interval that its direct children cover. Children running in parallel
/// on other threads overlap; the covered part is their union, clipped to
/// the parent.
pub fn self_times(spans: &[Span]) -> HashMap<u64, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start, s.end));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut clipped: Vec<(u64, u64)> = children
                .get(&s.id)
                .into_iter()
                .flatten()
                .map(|&(a, b)| (a.max(s.start), b.min(s.end)))
                .filter(|&(a, b)| a < b)
                .collect();
            (s.id, s.duration() - union_len(&mut clipped))
        })
        .collect()
}

/// Total self time, in seconds, of the spans in `spans` named `name`.
pub fn self_seconds(spans: &[Span], name: &str, selfs: &HashMap<u64, u64>) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| selfs[&s.id] as f64 * 1e-9)
        .sum()
}

/// Share of `root`'s interval that the other spans cover — the
/// `trace.coverage` of one pass.
pub fn coverage(spans: &[Span], root: &Span) -> f64 {
    let mut inner: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.id != root.id)
        .map(|s| (s.start.max(root.start), s.end.min(root.end)))
        .filter(|&(a, b)| a < b)
        .collect();
    union_len(&mut inner) as f64 / root.duration().max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name: "t",
            tag: 0,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_overlapping_children_once() {
        // Parent 0..100; two children on different threads overlap on
        // 30..40, so together they cover 10..60 = 50.
        let spans = vec![
            span(1, None, 0, 100),
            span(2, Some(1), 10, 40),
            span(3, Some(1), 30, 60),
        ];
        let st = self_times(&spans);
        assert_eq!(st[&1], 50);
        assert_eq!(st[&2], 30);
        assert_eq!(st[&3], 30);
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // A derived grandchild may run past its own parent (30..60 under
        // 10..40); only the child's own interval counts against the
        // grandparent.
        let spans = vec![
            span(1, None, 0, 100),
            span(2, Some(1), 10, 40),
            span(3, Some(2), 30, 60),
        ];
        let st = self_times(&spans);
        assert_eq!(st[&1], 70);
        assert_eq!(st[&2], 20);
        assert_eq!(st[&3], 30);
    }

    #[test]
    fn self_time_clips_children_to_the_parent() {
        // A derived child that reports more time than its parent spans
        // cannot drive the parent's self time below zero.
        let spans = vec![span(1, None, 100, 200), span(2, Some(1), 150, 260)];
        let st = self_times(&spans);
        assert_eq!(st[&1], 50);
        assert_eq!(st[&2], 110);
    }

    #[test]
    fn union_merges_touching_and_nested_intervals() {
        assert_eq!(union_len(&mut [(0, 10), (10, 20), (5, 8), (30, 31)]), 21);
        assert_eq!(union_len(&mut []), 0);
    }

    #[test]
    fn coverage_is_share_of_root_covered() {
        let spans = vec![
            span(1, None, 0, 100),
            span(2, Some(1), 0, 20),
            span(3, Some(2), 10, 30),
            span(4, Some(1), 90, 150),
        ];
        let c = coverage(&spans, &spans[0]);
        assert!((c - 0.4).abs() < 1e-12, "{c}");
    }
}
