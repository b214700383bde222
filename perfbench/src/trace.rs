//! The benchmark's own spans, recorded around its calls into each layer.
//!
//! A span has a name, a start, an end, the span that was open when it
//! started on the same thread (its parent) and a request id shared by all
//! spans of one request (0 outside requests). Spans are kept in memory
//! and written out once, when the traced run ends. Recording is off
//! unless [`enable`] was called, and then a span costs one relaxed load.
//!
//! A layer's self time is its span's duration minus the durations of its
//! child spans (children on one thread nest and do not overlap).

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the recorder's origin.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique id (starts at 1).
    pub id: u64,
    /// Enclosing span on the same thread, 0 for a root.
    pub parent: u64,
    /// Layer-qualified name, e.g. `seastar.execute_fwd`.
    pub name: &'static str,
    /// Start, ns since origin.
    pub start_ns: u64,
    /// End, ns since origin.
    pub end_ns: u64,
    /// Request id shared by one request's spans (0 = none).
    pub request: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

static ON: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());

thread_local! {
    static STACK: RefCell<Vec<(u64, &'static str)>> = const { RefCell::new(Vec::new()) };
    static REQUEST: Cell<u64> = const { Cell::new(0) };
}

fn origin() -> Instant {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    *ORIGIN.get_or_init(Instant::now)
}

fn ns(at: Instant) -> u64 {
    at.saturating_duration_since(origin()).as_nanos() as u64
}

/// Turns recording on or off for the whole process.
pub fn enable(on: bool) {
    origin();
    ON.store(on, Ordering::Relaxed);
}

/// Whether spans are being recorded.
pub fn enabled() -> bool {
    ON.load(Ordering::Relaxed)
}

/// Sets the request id stamped on spans opened by this thread.
pub fn set_request(id: u64) {
    REQUEST.with(|r| r.set(id));
}

/// An open span; records itself when dropped.
pub struct Guard {
    open: Option<(u64, u64, &'static str, Instant)>,
}

/// Opens a span named `name` under the innermost open span of this thread.
pub fn span(name: &'static str) -> Guard {
    if !enabled() {
        return Guard { open: None };
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s.last().map_or(0, |&(p, _)| p);
        s.push((id, name));
        parent
    });
    Guard {
        open: Some((id, parent, name, Instant::now())),
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        if let Some((id, parent, name, start)) = self.open.take() {
            let end = Instant::now();
            STACK.with(|s| {
                let mut s = s.borrow_mut();
                if let Some(pos) = s.iter().rposition(|&(i, _)| i == id) {
                    s.truncate(pos);
                }
            });
            push(Span {
                id,
                parent,
                name,
                start_ns: ns(start),
                end_ns: ns(end),
                request: REQUEST.with(Cell::get),
            });
        }
    }
}

/// Records a span whose bounds were measured by the caller (for intervals
/// such as "due time to send time" that no code block encloses). Returns
/// its id so children can name it as their parent; 0 when recording is off.
pub fn record(name: &'static str, start: Instant, end: Instant, parent: u64, request: u64) -> u64 {
    if !enabled() {
        return 0;
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    push(Span {
        id,
        parent,
        name,
        start_ns: ns(start),
        end_ns: ns(end),
        request,
    });
    id
}

fn push(span: Span) {
    SPANS.lock().unwrap_or_else(|e| e.into_inner()).push(span);
}

/// Whether a span called `name` is open on this thread (e.g. to tell a
/// kernel launched by the backward pass from one launched by the forward).
pub fn inside(name: &str) -> bool {
    enabled() && STACK.with(|s| s.borrow().iter().any(|&(_, n)| n == name))
}

/// Removes and returns every recorded span.
pub fn take() -> Vec<Span> {
    std::mem::take(&mut *SPANS.lock().unwrap_or_else(|e| e.into_inner()))
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Totals {
    /// Number of spans.
    pub count: u64,
    /// Sum of durations, ns.
    pub total_ns: u64,
    /// Sum of durations minus child durations, ns.
    pub self_ns: u64,
}

/// Totals and self times per span name.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, Totals> {
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *child_ns.entry(s.parent).or_default() += s.dur_ns();
    }
    let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
    for s in spans {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.dur_ns();
        t.self_ns += s
            .dur_ns()
            .saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
    }
    out
}

/// Writes spans as JSON lines (`name`, `id`, `parent`, `request`,
/// `start_ns`, `end_ns`).
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            w,
            "{{\"name\":\"{}\",\"id\":{},\"parent\":{},\"request\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.name, s.id, s.parent, s.request, s.start_ns, s.end_ns
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            Span {
                id: 1,
                parent: 0,
                name: "root",
                start_ns: 0,
                end_ns: 100,
                request: 0,
            },
            Span {
                id: 2,
                parent: 1,
                name: "child",
                start_ns: 10,
                end_ns: 40,
                request: 0,
            },
            Span {
                id: 3,
                parent: 1,
                name: "child",
                start_ns: 50,
                end_ns: 70,
                request: 0,
            },
        ];
        let t = totals(&spans);
        assert_eq!(t["root"].self_ns, 50);
        assert_eq!(t["child"].total_ns, 50);
        assert_eq!(t["child"].count, 2);
        // Self times over all names sum to the root's duration.
        let sum: u64 = t.values().map(|x| x.self_ns).sum();
        assert_eq!(sum, 100);
    }
}
