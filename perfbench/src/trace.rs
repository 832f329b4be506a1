//! In-memory span recorder for the traced run.
//!
//! A span has a name, start, end, the span that was open on the same
//! thread when it began (its parent) and a group id shared by every span
//! of one training step or one request. Spans are only recorded around
//! calls the benchmark makes into the crates' public functions; nothing
//! inside the program is instrumented. Recording is off unless
//! [`enable`] was called, and then [`span`] costs two clock reads and
//! one push under a mutex.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: u64,
    /// Enclosing span on the recording thread; 0 for a root.
    pub parent: u64,
    /// Step or request the span belongs to.
    pub group: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

// Statistics flags and id counters publish no other data: `Relaxed`.
static ON: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());

thread_local! {
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static GROUP: Cell<u64> = const { Cell::new(0) };
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the recorder's epoch.
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// Nanoseconds since the epoch of a given instant.
pub fn ns_of(t: Instant) -> u64 {
    t.saturating_duration_since(epoch()).as_nanos() as u64
}

pub fn enable(on: bool) {
    epoch();
    ON.store(on, Ordering::Relaxed);
}

pub fn is_on() -> bool {
    ON.load(Ordering::Relaxed)
}

/// Tag the spans this thread records from now on with `group`.
pub fn set_group(group: u64) {
    GROUP.with(|g| g.set(group));
}

fn push(span: Span) {
    SPANS
        .lock()
        .expect("span buffer poisoned by a panicking recorder")
        .push(span);
}

/// Run `f` inside a span named `name`, nested under whatever span this
/// thread has open.
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    if !is_on() {
        return f();
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s.last().copied().unwrap_or(0);
        s.push(id);
        parent
    });
    let start_ns = now_ns();
    let out = f();
    let end_ns = now_ns();
    STACK.with(|s| s.borrow_mut().pop());
    push(Span {
        id,
        parent,
        group: GROUP.with(Cell::get),
        name,
        start_ns,
        end_ns,
    });
    out
}

/// Record a root span whose ends were observed by different threads
/// (a request from submit to answer), whether or not recording is on
/// now: the caller knows whether it was on when the span began.
pub fn record(name: &'static str, group: u64, start_ns: u64, end_ns: u64) {
    push(Span {
        id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
        parent: 0,
        group,
        name,
        start_ns,
        end_ns,
    });
}

/// Drain every recorded span.
pub fn take() -> Vec<Span> {
    std::mem::take(&mut *SPANS.lock().expect("span buffer poisoned"))
}

/// Per-name totals: count, summed duration and summed self time.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Self time is a span's duration minus the durations of its children.
/// Children run nested on the parent's thread, so they never overlap.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *child_ns.entry(s.parent).or_default() += s.dur_ns();
    }
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
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

/// Write spans as JSON lines.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            w,
            "{{\"id\":{},\"parent\":{},\"group\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.group, s.name, s.start_ns, s.end_ns
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span_of(id: u64, parent: u64, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            group: 1,
            name,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = [
            span_of(1, 0, "step", 0, 100),
            span_of(2, 1, "fwd", 10, 40),
            span_of(3, 2, "mm", 15, 35),
            span_of(4, 1, "bwd", 50, 90),
        ];
        let t = totals(&spans);
        assert_eq!(t["step"].self_ns, 30);
        assert_eq!(t["fwd"].self_ns, 10);
        assert_eq!(t["mm"].self_ns, 20);
        assert_eq!(t["bwd"].total_ns, 40);
    }

    #[test]
    fn nested_spans_record_parents_and_groups() {
        enable(true);
        set_group(42);
        span("outer", || span("inner", || ()));
        enable(false);
        let spans: Vec<Span> = take().into_iter().filter(|s| s.group == 42).collect();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        assert_eq!(inner.parent, outer.id);
        assert_eq!(outer.parent, 0);
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
    }
}
