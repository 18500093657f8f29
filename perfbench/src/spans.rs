//! The traced run's span recorder.
//!
//! Spans wrap calls into the program's layers from the benchmark's own
//! code: name, start, end and parent, kept in memory on the calling
//! thread and written out when the run ends. Nothing inside the program
//! is instrumented. When recording is off, [`span`] is a plain call.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the recorder's origin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer call name, e.g. `ring_fn.map`.
    pub name: &'static str,
    /// Start, ns since origin.
    pub start: u64,
    /// End, ns since origin.
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Wall time in nanoseconds.
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

thread_local! {
    static RECORDER: RefCell<Recorder> = RefCell::new(Recorder {
        enabled: false,
        origin: Instant::now(),
        spans: Vec::new(),
        open: Vec::new(),
    });
}

/// Turn recording on or off for the calling thread.
pub fn set_enabled(on: bool) {
    RECORDER.with(|r| r.borrow_mut().enabled = on);
}

/// Run `f` inside a span named `name` (a plain call when recording is
/// off). Spans nest by call order on the calling thread.
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let id = RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        if !r.enabled {
            return None;
        }
        let id = r.spans.len();
        let parent = r.open.last().copied();
        let start = r.origin.elapsed().as_nanos() as u64;
        r.spans.push(Span {
            name,
            start,
            end: start,
            parent,
        });
        r.open.push(id);
        Some(id)
    });
    let out = f();
    if let Some(id) = id {
        RECORDER.with(|r| {
            let mut r = r.borrow_mut();
            let end = r.origin.elapsed().as_nanos() as u64;
            r.spans[id].end = end;
            r.open.pop();
        });
    }
    out
}

/// Take every span recorded so far on the calling thread.
pub fn take() -> Vec<Span> {
    RECORDER.with(|r| std::mem::take(&mut r.borrow_mut().spans))
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (overlapping children counted once,
/// children clipped to the parent). Never negative.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let (a, b) = (s.start.max(parent.start), s.end.min(parent.end));
            if a < b {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start;
            for (a, b) in kids {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.duration() - covered
        })
        .collect()
}

/// Spans as JSON lines: `{"id","name","start_ns","end_ns","parent","self_ns"}`.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for (id, (s, self_ns)) in spans.iter().zip(self_times(spans)).enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            r#"{{"id":{id},"name":"{}","start_ns":{},"end_ns":{},"parent":{parent},"self_ns":{self_ns}}}"#,
            s.name, s.start, s.end
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            sp("job", 0, 100, None),
            sp("a", 10, 40, Some(0)),
            sp("b", 30, 60, Some(0)), // overlaps a: 10..60 covered once
            sp("c", 55, 70, Some(2)), // grandchild: counts against b only
        ];
        assert_eq!(self_times(&spans), vec![50, 30, 25, 15]);
    }

    #[test]
    fn self_time_never_negative() {
        // A child reported past its parent's end (clock skew) is clipped.
        let spans = vec![
            sp("job", 100, 200, None),
            sp("a", 90, 150, Some(0)),
            sp("b", 150, 260, Some(0)),
            sp("zero", 120, 120, Some(0)),
        ];
        let t = self_times(&spans);
        assert_eq!(t[0], 0);
        assert!(t.iter().all(|&x| x <= 110));
    }

    #[test]
    fn recorder_nests_and_is_inert_when_off() {
        assert_eq!(span("off", || 3), 3);
        assert!(take().is_empty());
        set_enabled(true);
        let v = span("outer", || span("inner", || 7));
        set_enabled(false);
        let spans = take();
        assert_eq!(v, 7);
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].name, spans[0].parent), ("outer", None));
        assert_eq!((spans[1].name, spans[1].parent), ("inner", Some(0)));
        assert!(spans[0].start <= spans[1].start && spans[1].end <= spans[0].end);
        assert!(to_jsonl(&spans).contains(r#""name":"inner""#));
    }
}
