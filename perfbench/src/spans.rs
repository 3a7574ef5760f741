//! In-memory span recording for the traced run.
//!
//! A span is one call from the benchmark into a layer of the program:
//! its name, start, end, the span that caused it, and (for control-plane
//! traffic) the request it belongs to. Spans are kept in per-thread
//! buffers while the workload runs and are only merged, summarized and
//! written out after it ends. With tracing off, opening and closing a
//! span reads no clock and records nothing.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// A finished span. Times are nanoseconds since the tracer's epoch.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub req: u64,
    pub thread: u32,
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
}

/// The process-wide side of tracing: the epoch, id allocation and the
/// merged span store.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    next_id: AtomicU64,
    next_thread: AtomicU64,
    done: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(on: bool) -> Arc<Tracer> {
        Arc::new(Tracer {
            on,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            next_thread: AtomicU64::new(0),
            done: Mutex::new(Vec::new()),
        })
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// A recorder for the calling thread, whose root spans hang under
    /// `parent` (0 = none).
    pub fn local(self: &Arc<Tracer>, parent: u64) -> Local {
        Local {
            tracer: Arc::clone(self),
            thread: self.next_thread.fetch_add(1, Ordering::Relaxed) as u32,
            stack: vec![parent],
            open: Vec::new(),
            spans: Vec::new(),
            enabled: self.on,
        }
    }

    /// Every span recorded so far by recorders that have been dropped.
    pub fn take(&self) -> Vec<Span> {
        let mut spans = std::mem::take(&mut *self.done.lock().expect("span store lock"));
        spans.sort_by_key(|s| (s.start, s.id));
        spans
    }
}

/// A handle on an open span.
#[must_use = "close the span with Local::close"]
pub struct Open(usize);

/// One thread's span recorder.
pub struct Local {
    tracer: Arc<Tracer>,
    thread: u32,
    stack: Vec<u64>,
    open: Vec<(u64, &'static str, u64, u64)>,
    spans: Vec<Span>,
    enabled: bool,
}

impl Local {
    fn now(&self) -> u64 {
        self.tracer.epoch.elapsed().as_nanos() as u64
    }

    /// Turns recording on or off for this thread (the untraced passes of
    /// a traced run). Spans opened while off close as no-ops.
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on && self.tracer.on;
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// The innermost open span (or the recorder's root parent).
    pub fn current(&self) -> u64 {
        *self.stack.last().expect("root parent stays on the stack")
    }

    /// Opens a span; spans opened before it closes become its children.
    pub fn open(&mut self, name: &'static str, req: u64) -> Open {
        if !self.enabled {
            return Open(usize::MAX);
        }
        let id = self.tracer.next_id.fetch_add(1, Ordering::Relaxed);
        let start = self.now();
        self.open.push((id, name, req, start));
        self.stack.push(id);
        Open(self.open.len() - 1)
    }

    /// Closes the innermost open span, returning its duration in ns (0
    /// when tracing is off).
    pub fn close(&mut self, token: Open) -> u64 {
        if token.0 == usize::MAX {
            return 0;
        }
        debug_assert_eq!(token.0 + 1, self.open.len(), "spans close innermost first");
        let end = self.now();
        let (id, name, req, start) = self.open.pop().expect("an open span");
        self.stack.pop();
        self.spans.push(Span {
            id,
            parent: self.current(),
            req,
            thread: self.thread,
            name,
            start,
            end,
        });
        end - start
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let s = self.open(name, 0);
        let r = f();
        self.close(s);
        r
    }
}

/// Dropping a recorder hands its spans to the tracer.
impl Drop for Local {
    fn drop(&mut self) {
        if let Ok(mut done) = self.tracer.done.lock() {
            done.append(&mut self.spans);
        }
    }
}

/// Per-name totals over a span set.
#[derive(Clone, Copy, Debug, Default)]
pub struct LayerTime {
    pub count: u64,
    /// Sum of span durations.
    pub total_ns: u64,
    /// Sum of self times: duration minus the union of child intervals.
    pub self_ns: u64,
}

/// Self time of every span, grouped by name.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            children.entry(s.parent).or_default().push((s.start, s.end));
        }
    }
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for s in spans {
        let covered = children
            .get(&s.id)
            .map(|c| union_within(c, s.start, s.end))
            .unwrap_or(0);
        let e = out.entry(s.name).or_default();
        e.count += 1;
        e.total_ns += s.end - s.start;
        e.self_ns += (s.end - s.start).saturating_sub(covered);
    }
    out
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn union_within(intervals: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut v: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(a, b)| (a.max(lo), b.min(hi)))
        .filter(|(a, b)| a < b)
        .collect();
    v.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in v {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + cur.map(|(a, b)| b - a).unwrap_or(0)
}

/// Writes spans as CSV: `id,parent,req,thread,name,start_ns,end_ns`.
pub fn write_csv(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "id,parent,req,thread,name,start_ns,end_ns")?;
    for s in spans {
        writeln!(
            w,
            "{},{},{},{},{},{},{}",
            s.id, s.parent, s.req, s.thread, s.name, s.start, s.end
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mk = |id, parent, start, end| Span {
            id,
            parent,
            req: 0,
            thread: 0,
            name: if parent == 0 { "root" } else { "child" },
            start,
            end,
        };
        // Two overlapping children on other threads cover [10, 40).
        let spans = [mk(1, 0, 0, 100), mk(2, 1, 10, 30), mk(3, 1, 20, 40)];
        let t = self_times(&spans);
        assert_eq!(t["root"].self_ns, 70);
        assert_eq!(t["child"].self_ns, 40);
        assert_eq!(t["child"].count, 2);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let tracer = Tracer::new(false);
        let mut l = tracer.local(0);
        let s = l.open("x", 0);
        assert_eq!(l.close(s), 0);
        drop(l);
        assert!(tracer.take().is_empty());
    }
}
