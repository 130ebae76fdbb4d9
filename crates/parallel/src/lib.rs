//! Deterministic fork-join primitives for the FreeHGC workspace.
//!
//! The paper's time-complexity analysis (§IV) notes that the per-class /
//! per-meta-path loops are "easily parallelizable"; this crate is the
//! shared substrate those loops (and the sparse kernels underneath them)
//! run on. The build environment has no registry access, so instead of
//! rayon this is a small scoped layer over [`std::thread::scope`]:
//!
//! * **Determinism is the contract.** Every helper partitions work into
//!   contiguous, order-preserving chunks and returns results in chunk
//!   order. Callers are expected to partition by *output ownership* (each
//!   worker writes a disjoint region, accumulating in the same order the
//!   serial code would), which makes parallel results bitwise-identical
//!   to serial ones — there are no atomics and no order-dependent
//!   reductions anywhere in the workspace.
//! * **`FREEHGC_THREADS` is the escape hatch.** `FREEHGC_THREADS=1`
//!   forces every kernel down its serial path; unset, the thread count
//!   defaults to [`std::thread::available_parallelism`]. Benchmarks and
//!   tests can switch counts at runtime with [`set_thread_override`].
//! * **No nested oversubscription.** Worker threads are flagged, and any
//!   parallel helper invoked from inside a worker runs inline — an outer
//!   loop parallelized over meta-paths does not multiply with the
//!   parallel SpGEMM it calls.

use std::cell::Cell;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread;

pub mod pool;
pub mod singleflight;
pub mod workspace;

pub use pool::{PoolStats, SubmitError, WorkerPool};
pub use singleflight::SingleFlight;

/// Locks `m`, recovering from poisoning instead of propagating it.
///
/// Every mutex in the workspace guards state that its critical sections
/// change by single complete operations — a map insert or removal, a
/// queue push or pop — on values computed *outside* the lock. A panic
/// unwinding through a lock scope therefore cannot leave half-written
/// state behind, and the data under a poisoned mutex is exactly as
/// consistent as under a clean one. Recovering keeps one panicking
/// request from wedging every later caller of the registry, the pool or
/// the server, without weakening any invariant.
pub fn relock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Runtime override of the thread count (0 = no override). Takes
/// precedence over `FREEHGC_THREADS`; used by benches and the
/// serial/parallel equivalence tests.
static OVERRIDE: AtomicUsize = AtomicUsize::new(0);

fn env_threads() -> usize {
    static ENV: OnceLock<usize> = OnceLock::new();
    *ENV.get_or_init(|| {
        match std::env::var("FREEHGC_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
        {
            Some(n) if n >= 1 => n,
            _ => thread::available_parallelism().map_or(1, |n| n.get()),
        }
    })
}

/// Sets (or with `None`, clears) the runtime thread-count override.
///
/// Because every parallel kernel is bitwise-identical to its serial
/// path, flipping this concurrently from several threads cannot change
/// any result — only how fast it is produced.
pub fn set_thread_override(n: Option<usize>) {
    OVERRIDE.store(n.map_or(0, |v| v.max(1)), Ordering::Relaxed);
}

/// The configured maximum worker count: the runtime override if set,
/// else `FREEHGC_THREADS`, else the machine's available parallelism.
pub fn max_threads() -> usize {
    match OVERRIDE.load(Ordering::Relaxed) {
        0 => env_threads(),
        n => n,
    }
}

/// The machine's real core count ([`std::thread::available_parallelism`],
/// memoized), independent of `FREEHGC_THREADS` and the runtime override.
/// No kernel consults it; benchmarks and tests use it to pick and
/// report thread counts relative to the host.
pub fn machine_parallelism() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| thread::available_parallelism().map_or(1, |n| n.get()))
}

thread_local! {
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// True while executing inside a parallel worker (nested helpers run
/// inline there instead of spawning threads of their own).
pub fn in_worker() -> bool {
    IN_WORKER.with(|w| w.get())
}

/// The thread budget visible from the current context: 1 inside a
/// worker, [`max_threads`] otherwise. Kernels consult this to pick
/// between their serial and chunked paths.
pub fn current_threads() -> usize {
    if in_worker() {
        1
    } else {
        max_threads()
    }
}

/// Marks the current thread as a worker for the guard's lifetime.
struct WorkerGuard {
    prev: bool,
}

impl WorkerGuard {
    fn enter() -> Self {
        let prev = IN_WORKER.with(|w| w.replace(true));
        WorkerGuard { prev }
    }
}

/// Flags the current thread as a parallel worker for the returned
/// guard's lifetime — long-lived pool workers ([`pool::WorkerPool`])
/// enter this once so every nested kernel they run stays inline.
pub(crate) fn enter_worker() -> WorkerGuard {
    WorkerGuard::enter()
}

impl Drop for WorkerGuard {
    fn drop(&mut self) {
        let prev = self.prev;
        IN_WORKER.with(|w| w.set(prev));
    }
}

/// Splits `0..n` into at most `chunks` contiguous, balanced ranges
/// (never empty; sizes differ by at most one, larger chunks first).
pub fn chunk_ranges(n: usize, chunks: usize) -> Vec<Range<usize>> {
    let chunks = chunks.clamp(1, n.max(1));
    let base = n / chunks;
    let rem = n % chunks;
    let mut out = Vec::with_capacity(chunks);
    let mut start = 0usize;
    for i in 0..chunks {
        let len = base + usize::from(i < rem);
        out.push(start..start + len);
        start += len;
    }
    out
}

/// Runs `f(index, item)` for every item, returning outputs in item
/// order. With more than one item and a thread budget above 1, items
/// run on scoped worker threads — never more than [`current_threads`]
/// of them: excess items are grouped into contiguous batches that each
/// worker drains in order (the first batch runs on the caller's
/// thread). Workers are flagged so nested parallel helpers run inline.
pub fn scoped_map<I, T, F>(items: Vec<I>, f: F) -> Vec<T>
where
    I: Send,
    T: Send,
    F: Fn(usize, I) -> T + Sync,
{
    let budget = current_threads();
    if items.len() <= 1 || budget == 1 {
        return items
            .into_iter()
            .enumerate()
            .map(|(i, item)| f(i, item))
            .collect();
    }
    if items.len() > budget {
        // Group into at most `budget` batches so FREEHGC_THREADS really
        // bounds concurrency even for per-item callers.
        let ranges = chunk_ranges(items.len(), budget);
        let mut iter = items.into_iter().enumerate();
        let batches: Vec<Vec<(usize, I)>> = ranges
            .into_iter()
            .map(|r| iter.by_ref().take(r.len()).collect())
            .collect();
        let nested: Vec<Vec<T>> = spawn_per_item(batches, &|_, batch: Vec<(usize, I)>| {
            batch.into_iter().map(|(i, item)| f(i, item)).collect()
        });
        return nested.into_iter().flatten().collect();
    }
    spawn_per_item(items, &f)
}

/// One scoped thread per item (the first item runs on the caller's
/// thread); callers are responsible for bounding `items.len()`.
///
/// Panic contract: every worker is joined, then the *first* worker
/// panic (in item order) resumes on the caller with its original
/// payload — not a generic join-failure message — so a caller isolating
/// faults (`ContextRegistry::run_isolated` upstream) can still identify
/// what failed. No result of a successful worker is ever returned
/// alongside a panic; the pool itself stays usable for the next call.
fn spawn_per_item<I, T, F>(items: Vec<I>, f: &F) -> Vec<T>
where
    I: Send,
    T: Send,
    F: Fn(usize, I) -> T + Sync,
{
    thread::scope(|scope| {
        let mut iter = items.into_iter().enumerate();
        let Some((first_idx, first_item)) = iter.next() else {
            return Vec::new();
        };
        let handles: Vec<_> = iter
            .map(|(i, item)| {
                scope.spawn(move || {
                    let _g = WorkerGuard::enter();
                    f(i, item)
                })
            })
            .collect();
        let first_out = {
            let _g = WorkerGuard::enter();
            f(first_idx, first_item)
        };
        let mut out = Vec::with_capacity(handles.len() + 1);
        out.push(first_out);
        let mut panic_payload = None;
        for h in handles {
            match h.join() {
                Ok(v) => out.push(v),
                // Keep joining the rest: every worker must finish
                // before we unwind out of the scope, and the first
                // payload (item order) is the one that propagates.
                Err(p) => {
                    panic_payload.get_or_insert(p);
                }
            }
        }
        if let Some(p) = panic_payload {
            std::panic::resume_unwind(p);
        }
        out
    })
}

/// Chunked parallel map over `0..n`: partitions the index space into at
/// most [`current_threads`] contiguous ranges of at least `grain` items
/// each and runs `f` once per range, returning per-range outputs in
/// range order. Degenerates to one inline `f(0..n)` call when the work
/// is too small or the budget is 1.
pub fn par_chunks<T, F>(n: usize, grain: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(Range<usize>) -> T + Sync,
{
    // grain == 0 means "no grain": as many chunks as there are threads.
    let chunks = chunks_for(n, grain, usize::MAX);
    if chunks <= 1 {
        return vec![f(0..n)];
    }
    scoped_map(chunk_ranges(n, chunks), |_, r| f(r))
}

/// How many chunks a kernel with `work` total units should use: the
/// current thread budget, clamped so each chunk owns at least `grain`
/// units and there are never more chunks than `max_chunks` (usually the
/// partitioned dimension). Returns 1 — "stay serial" — for small work.
pub fn chunks_for(work: usize, grain: usize, max_chunks: usize) -> usize {
    current_threads()
        .min(work.checked_div(grain).map_or(usize::MAX, |c| c.max(1)))
        .min(max_chunks.max(1))
}

/// Partitions `out` into the given per-range lengths and runs
/// `f(chunk_index, range, slice)` on scoped workers, one per range —
/// the common shape of every row-partitioned kernel (each worker owns
/// the output region its index range maps to).
pub fn par_write_chunks<U, F>(ranges: Vec<Range<usize>>, lens: Vec<usize>, out: &mut [U], f: F)
where
    U: Send,
    F: Fn(usize, Range<usize>, &mut [U]) + Sync,
{
    let slices = split_by_lens(out, lens);
    let work: Vec<_> = ranges.into_iter().zip(slices).collect();
    scoped_map(work, |i, (r, s)| f(i, r, s));
}

/// Splits a mutable slice into consecutive disjoint sub-slices of the
/// given lengths (which must sum to at most the slice length). This is
/// how kernels hand each worker exclusive ownership of its region of a
/// shared output buffer.
pub fn split_by_lens<T>(
    mut slice: &mut [T],
    lens: impl IntoIterator<Item = usize>,
) -> Vec<&mut [T]> {
    let mut out = Vec::new();
    for len in lens {
        let (head, tail) = slice.split_at_mut(len);
        out.push(head);
        slice = tail;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// The override is process-global and the test harness runs tests
    /// concurrently; every test that touches it serializes here.
    static OVERRIDE_LOCK: Mutex<()> = Mutex::new(());

    fn with_override<T>(n: usize, f: impl FnOnce() -> T) -> T {
        let _guard = OVERRIDE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_thread_override(Some(n));
        let out = f();
        set_thread_override(None);
        out
    }

    #[test]
    fn chunk_ranges_partition_exactly() {
        for n in [0usize, 1, 7, 64, 101] {
            for c in [1usize, 2, 3, 8, 200] {
                let ranges = chunk_ranges(n, c);
                assert!(!ranges.is_empty());
                assert_eq!(ranges[0].start, 0);
                assert_eq!(ranges.last().unwrap().end, n);
                for w in ranges.windows(2) {
                    assert_eq!(w[0].end, w[1].start);
                }
                if n > 0 {
                    assert!(ranges.iter().all(|r| !r.is_empty()));
                    let min = ranges.iter().map(|r| r.len()).min().unwrap();
                    let max = ranges.iter().map(|r| r.len()).max().unwrap();
                    assert!(max - min <= 1, "balanced chunks for n={n} c={c}");
                }
            }
        }
    }

    #[test]
    fn scoped_map_preserves_order_and_caps_concurrency() {
        // 32 items over a budget of 4 batches into ≤ 4 workers; outputs
        // must still come back in item order with correct indices.
        let out = with_override(4, || {
            scoped_map((0..32).collect::<Vec<usize>>(), |i, item| {
                assert_eq!(i, item);
                item * 2
            })
        });
        assert_eq!(out, (0..32).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn scoped_map_never_exceeds_the_budget() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static LIVE: AtomicUsize = AtomicUsize::new(0);
        static PEAK: AtomicUsize = AtomicUsize::new(0);
        LIVE.store(0, Ordering::SeqCst);
        PEAK.store(0, Ordering::SeqCst);
        with_override(3, || {
            scoped_map((0..64).collect::<Vec<usize>>(), |_, _| {
                let live = LIVE.fetch_add(1, Ordering::SeqCst) + 1;
                PEAK.fetch_max(live, Ordering::SeqCst);
                std::thread::sleep(std::time::Duration::from_micros(200));
                LIVE.fetch_sub(1, Ordering::SeqCst);
            })
        });
        assert!(
            PEAK.load(Ordering::SeqCst) <= 3,
            "worker concurrency must stay within the configured budget"
        );
    }

    #[test]
    fn worker_panics_propagate_with_their_payload() {
        // The catch_unwind sits *inside* with_override so the thread
        // budget is restored even though the mapped closure panics.
        let payload = with_override(4, || {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                scoped_map((0..8).collect::<Vec<usize>>(), |i, _| {
                    if i == 2 {
                        panic!("boom {i}");
                    }
                    i
                })
            }))
            .expect_err("a worker panic must propagate to the caller")
        });
        assert_eq!(
            payload.downcast_ref::<String>().map(String::as_str),
            Some("boom 2"),
            "the worker's own payload must survive the join"
        );
        // The pool is not wedged: the next call works normally.
        let out = with_override(4, || scoped_map(vec![1, 2, 3], |_, x| x * 10));
        assert_eq!(out, vec![10, 20, 30]);
    }

    #[test]
    fn par_chunks_covers_index_space() {
        let chunks = with_override(3, || par_chunks(100, 10, |r| r.collect::<Vec<usize>>()));
        let flat: Vec<usize> = chunks.concat();
        assert_eq!(flat, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn par_chunks_respects_grain() {
        // 100 items at grain 60 → only one chunk fits the grain.
        let chunks = with_override(8, || par_chunks(100, 60, |r| r.len()));
        assert_eq!(chunks, vec![100]);
    }

    #[test]
    fn chunks_for_clamps_all_three_ways() {
        with_override(4, || {
            assert_eq!(chunks_for(1000, 10, usize::MAX), 4, "thread-bound");
            assert_eq!(chunks_for(25, 10, usize::MAX), 2, "grain-bound");
            assert_eq!(chunks_for(1000, 10, 3), 3, "dimension-bound");
            assert_eq!(chunks_for(5, 10, usize::MAX), 1, "small work stays serial");
            assert_eq!(chunks_for(5, 0, usize::MAX), 4, "zero grain means no grain");
        });
    }

    #[test]
    fn par_write_chunks_fills_disjoint_regions() {
        let mut out = vec![0usize; 10];
        with_override(4, || {
            let ranges = chunk_ranges(10, 3);
            let lens: Vec<usize> = ranges.iter().map(|r| r.len()).collect();
            par_write_chunks(ranges, lens, &mut out, |i, r, s| {
                assert_eq!(s.len(), r.len());
                s.fill(i + 1);
            });
        });
        assert_eq!(out, vec![1, 1, 1, 1, 2, 2, 2, 3, 3, 3]);
    }

    #[test]
    fn nested_calls_run_inline() {
        let nested_budget = with_override(4, || scoped_map(vec![(), ()], |_, _| current_threads()));
        assert_eq!(nested_budget, vec![1, 1], "workers must see a budget of 1");
        assert!(!in_worker(), "flag must be restored on the caller");
    }

    #[test]
    fn split_by_lens_is_disjoint_and_ordered() {
        let mut data = [0u32; 10];
        let parts = split_by_lens(&mut data, [3usize, 0, 4, 3]);
        assert_eq!(
            parts.iter().map(|p| p.len()).collect::<Vec<_>>(),
            vec![3, 0, 4, 3]
        );
        for (i, p) in parts.into_iter().enumerate() {
            p.fill(i as u32);
        }
        assert_eq!(data, [0, 0, 0, 2, 2, 2, 2, 3, 3, 3]);
    }

    #[test]
    fn override_wins_over_env() {
        with_override(7, || assert_eq!(max_threads(), 7));
        let _guard = OVERRIDE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        assert!(max_threads() >= 1);
    }
}
