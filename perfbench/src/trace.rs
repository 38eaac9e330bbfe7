//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code, around calls into
//! each layer's public functions: the program itself carries no
//! instrumentation. Each thread keeps its own buffer and parent stack;
//! buffers are collected when a thread finishes and written out once,
//! at the end of the run.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One recorded span. `start_ns`/`end_ns` are relative to the process
/// trace origin; `parent` indexes the same thread's buffer.
#[derive(Debug, Clone)]
pub struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    /// Cell, period or epoch the span belongs to.
    id: u64,
}

#[derive(Default)]
struct ThreadBuf {
    enabled: bool,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

thread_local! {
    static BUF: RefCell<ThreadBuf> = RefCell::new(ThreadBuf::default());
}

/// Finished per-thread buffers, in collection order.
static COLLECTED: Mutex<Vec<Vec<Span>>> = Mutex::new(Vec::new());

fn origin() -> Instant {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    *ORIGIN.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    origin().elapsed().as_nanos() as u64
}

/// Turns recording on or off for the calling thread.
pub fn set_enabled(on: bool) {
    origin();
    BUF.with(|b| b.borrow_mut().enabled = on);
}

/// Span id meaning "the enclosing span's id" (for layer calls that do
/// not know which cell, period or epoch they serve).
pub const INHERIT: u64 = u64::MAX;

/// Runs `f` inside a span named `name` (a no-op wrapper when the
/// calling thread is not recording).
pub fn span<T>(name: &'static str, id: u64, f: impl FnOnce() -> T) -> T {
    let slot = BUF.with(|b| {
        let mut b = b.borrow_mut();
        if !b.enabled {
            return None;
        }
        let parent = b.stack.last().copied();
        let id = match (id, parent) {
            (INHERIT, Some(p)) => b.spans[p].id,
            (INHERIT, None) => 0,
            _ => id,
        };
        let idx = b.spans.len();
        b.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent,
            id,
        });
        b.stack.push(idx);
        Some(idx)
    });
    let Some(idx) = slot else {
        return f();
    };
    let start = now_ns();
    let out = f();
    let end = now_ns();
    BUF.with(|b| {
        let mut b = b.borrow_mut();
        b.stack.pop();
        let s = &mut b.spans[idx];
        s.start_ns = start;
        s.end_ns = end;
    });
    out
}

/// Moves the calling thread's spans into the shared collection. Worker
/// threads call this before they exit.
pub fn collect_thread() {
    let spans = BUF.with(|b| std::mem::take(&mut b.borrow_mut().spans));
    if !spans.is_empty() {
        COLLECTED.lock().expect("trace collection lock").push(spans);
    }
}

/// Collects the calling thread, then drains every collected buffer.
pub fn take() -> Vec<Vec<Span>> {
    collect_thread();
    std::mem::take(&mut *COLLECTED.lock().expect("trace collection lock"))
}

/// Per-name totals over a set of spans.
#[derive(Debug, Default, Clone, Copy)]
pub struct Totals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Totals {
    /// Mean duration per span, in units of `unit_ns` nanoseconds.
    pub fn mean(&self, unit_ns: f64) -> f64 {
        self.total_ns as f64 / unit_ns / self.count.max(1) as f64
    }

    /// Mean self time per span, in units of `unit_ns` nanoseconds.
    pub fn self_mean(&self, unit_ns: f64) -> f64 {
        self.self_ns as f64 / unit_ns / self.count.max(1) as f64
    }
}

pub type Summary = BTreeMap<&'static str, Totals>;

/// Folds per-thread span buffers into per-name totals. Self time is a
/// span's duration minus its direct children's.
pub fn fold(summary: &mut Summary, threads: &[Vec<Span>]) {
    for spans in threads {
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        for (s, child) in spans.iter().zip(child_ns) {
            let dur = s.end_ns - s.start_ns;
            let t = summary.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += dur;
            t.self_ns += dur.saturating_sub(child);
        }
    }
}

/// Writes spans as JSON lines (thread, index, name, id, start, end,
/// parent) to `path`.
pub fn write_jsonl(path: &std::path::Path, threads: &[Vec<Span>]) -> std::io::Result<()> {
    let mut text = String::new();
    for (t, spans) in threads.iter().enumerate() {
        for (i, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                text,
                "{{\"thread\":{t},\"span\":{i},\"name\":\"{}\",\"id\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.name, s.id, s.start_ns, s.end_ns
            );
        }
    }
    std::fs::write(path, text)
}
