//! In-memory span recorder for the traced runs.
//!
//! A span is a named interval with the span that caused it (its parent) and
//! a group id shared by everything one round or request did. Spans are kept
//! in memory and written out when the run ends; nothing is recorded unless
//! [`start`] armed the recorder, so the untraced runs pay one thread-local
//! check per call site.
//!
//! The recorder is thread-local: every boundary the harness times is
//! entered from the harness's own thread (the ALS worker threads live
//! below [`crate::decor::TimedCompleter`], inside one span).

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Parent marker of a root span.
pub const ROOT: u32 = u32::MAX;

/// One recorded span; times are nanoseconds since the recorder started.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Boundary name, `<layer>.<what>`.
    pub name: &'static str,
    /// Start, ns.
    pub start: u64,
    /// End, ns (`>= start`).
    pub end: u64,
    /// Index of the enclosing span, or [`ROOT`].
    pub parent: u32,
    /// Round or request id shared by a span and its children.
    pub group: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur(&self) -> u64 {
        self.end - self.start
    }
}

/// Everything one armed recorder collected.
#[derive(Debug, Default)]
pub struct Recording {
    /// Spans in start order.
    pub spans: Vec<Span>,
    /// Event counters incremented at the same boundaries (bytes appended,
    /// cells asked for, ...).
    pub counters: BTreeMap<&'static str, u64>,
}

struct Recorder {
    epoch: Instant,
    rec: Recording,
    open: Vec<u32>,
    group: u64,
}

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Arm the recorder on this thread, discarding anything recorded before.
pub fn start() {
    RECORDER.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            epoch: Instant::now(),
            rec: Recording::default(),
            open: Vec::new(),
            group: 0,
        })
    });
}

/// Disarm the recorder and hand back what it collected.
pub fn finish() -> Recording {
    RECORDER.with(|r| r.borrow_mut().take()).map(|r| r.rec).unwrap_or_default()
}

/// Set the group id that spans opened from now on carry.
pub fn set_group(group: u64) {
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            rec.group = group;
        }
    });
}

/// Add `by` to counter `name` (no-op while disarmed).
pub fn count(name: &'static str, by: u64) {
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            *rec.rec.counters.entry(name).or_insert(0) += by;
        }
    });
}

/// Run `f` inside a span named `name`, nested under the innermost open
/// span. Disarmed, this is a plain call.
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let idx = RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let rec = r.as_mut()?;
        let idx = rec.rec.spans.len() as u32;
        let parent = rec.open.last().copied().unwrap_or(ROOT);
        let start = rec.epoch.elapsed().as_nanos() as u64;
        rec.rec.spans.push(Span { name, start, end: start, parent, group: rec.group });
        rec.open.push(idx);
        Some(idx)
    });
    let out = f();
    if let Some(idx) = idx {
        RECORDER.with(|r| {
            if let Some(rec) = r.borrow_mut().as_mut() {
                rec.rec.spans[idx as usize].end = rec.epoch.elapsed().as_nanos() as u64;
                rec.open.pop();
            }
        });
    }
    out
}

/// Total length of the union of `intervals` clipped to `[lo, hi]`.
fn covered(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(lo), e.min(hi));
        if s >= e {
            continue;
        }
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover. Children may nest or overlap one another; the
/// covered part is the union of their intervals, clipped to the parent.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != ROOT {
            children[s.parent as usize].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| s.dur() - covered(kids, s.start, s.end))
        .collect()
}

/// Write spans as JSON lines (`name start_ns end_ns parent group`).
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = if s.parent == ROOT { -1 } else { i64::from(s.parent) };
        writeln!(
            out,
            "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"group\":{}}}",
            s.name, s.start, s.end, s.group
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(name: &'static str, start: u64, end: u64, parent: u32) -> Span {
        Span { name, start, end, parent, group: 0 }
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        // round [0,100) > select [10,60) > complete [20,50); oracle [70,80).
        let spans = [
            sp("round", 0, 100, ROOT),
            sp("select", 10, 60, 0),
            sp("complete", 20, 50, 1),
            sp("oracle", 70, 80, 0),
        ];
        assert_eq!(self_times(&spans), vec![40, 20, 30, 10]);
        // Self times partition the root: they sum to its duration.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        // Two children overlap on [30,40); a third pokes past the parent.
        let spans = [
            sp("parent", 0, 100, ROOT),
            sp("a", 10, 40, 0),
            sp("b", 30, 60, 0),
            sp("c", 90, 130, 0),
            sp("d", 45, 50, 0),
        ];
        // Covered: [10,60) + [90,100) = 60, so the parent keeps 40.
        assert_eq!(self_times(&spans)[0], 40);
        // Identical children and a zero-length child add nothing extra.
        let dup = [sp("p", 0, 10, ROOT), sp("x", 2, 6, 0), sp("x", 2, 6, 0), sp("z", 8, 8, 0)];
        assert_eq!(self_times(&dup)[0], 6);
    }

    #[test]
    fn recorder_nests_groups_and_counts() {
        start();
        set_group(7);
        let v = span("outer", || {
            count("cells", 3);
            span("inner", || 5) + 1
        });
        count("cells", 2);
        let rec = finish();
        assert_eq!(v, 6);
        assert_eq!(rec.spans.len(), 2);
        assert_eq!(rec.spans[0].name, "outer");
        assert_eq!(rec.spans[1].parent, 0);
        assert!(rec.spans.iter().all(|s| s.group == 7 && s.end >= s.start));
        assert!(rec.spans[1].start >= rec.spans[0].start && rec.spans[1].end <= rec.spans[0].end);
        assert_eq!(rec.counters["cells"], 5);
        // Disarmed: spans are plain calls and nothing is kept.
        assert_eq!(span("ignored", || 1), 1);
        assert!(finish().spans.is_empty());
    }
}
