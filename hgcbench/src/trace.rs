//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer (`"<layer>.<operation>"` names), kept in memory, and written out
//! once at the end. With tracing off, [`span`] is a plain call: the
//! untraced run pays one relaxed atomic load per call site.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

/// One finished span. Times are nanoseconds since the recorder's epoch.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    /// Enclosing span on the same thread (0 for a root).
    pub parent: u64,
    /// Root span of the operation this span belongs to: spans of one
    /// request or one round share it.
    pub trace: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

struct Recorder {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

fn recorder() -> &'static Recorder {
    static REC: OnceLock<Recorder> = OnceLock::new();
    REC.get_or_init(|| Recorder {
        epoch: Instant::now(),
        spans: Mutex::new(Vec::new()),
    })
}

thread_local! {
    /// Open spans on this thread: (span id, trace id).
    static STACK: RefCell<Vec<(u64, u64)>> = const { RefCell::new(Vec::new()) };
}

/// Turns recording on or off for spans opened from now on.
pub fn set_enabled(on: bool) {
    recorder();
    ENABLED.store(on, Ordering::SeqCst);
}

pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Runs `f` inside a span named `name` when tracing is on.
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    if !enabled() {
        return f();
    }
    let rec = recorder();
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let (parent, trace) = STACK.with(|s| {
        let s = s.borrow();
        s.last().map_or((0, id), |&(p, t)| (p, t))
    });
    STACK.with(|s| s.borrow_mut().push((id, trace)));
    let start = rec.epoch.elapsed().as_nanos() as u64;
    let out = f();
    let end = rec.epoch.elapsed().as_nanos() as u64;
    STACK.with(|s| s.borrow_mut().pop());
    rec.spans
        .lock()
        .expect("span recorder lock poisoned by a panicking span")
        .push(Span {
            id,
            parent,
            trace,
            name,
            start_ns: start,
            end_ns: end.max(start),
        });
    out
}

/// Takes every recorded span, leaving the recorder empty.
pub fn drain() -> Vec<Span> {
    std::mem::take(
        &mut *recorder()
            .spans
            .lock()
            .expect("span recorder lock poisoned by a panicking span"),
    )
}

/// Self time of every span: its duration minus the time covered by its
/// direct children (children of one span run on its thread, so they are
/// disjoint intervals inside it).
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let index: BTreeMap<u64, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(&p) = index.get(&s.parent) {
            child_ns[p] += s.end_ns - s.start_ns;
        }
    }
    spans
        .iter()
        .zip(child_ns)
        .map(|(s, c)| (s.end_ns - s.start_ns).saturating_sub(c) as f64 * 1e-9)
        .collect()
}

/// Durations (seconds) of every span called `name`.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::secs)
        .collect()
}

/// Writes the spans as JSON lines, one object per span, with self time.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let selfs = self_times(spans);
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (s, self_s) in spans.iter().zip(selfs) {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"trace\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_s\":{:e}}}",
            s.id, s.parent, s.trace, s.name, s.start_ns, s.end_ns, self_s
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mk = |id, parent, start_ns, end_ns| Span {
            id,
            parent,
            trace: 1,
            name: "x",
            start_ns,
            end_ns,
        };
        let spans = [mk(1, 0, 0, 100), mk(2, 1, 10, 40), mk(3, 1, 50, 60)];
        let s = self_times(&spans);
        assert!((s[0] - 60e-9).abs() < 1e-15);
        assert!((s[1] - 30e-9).abs() < 1e-15);
    }
}
