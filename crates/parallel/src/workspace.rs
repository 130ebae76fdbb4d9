//! Pooled per-thread scratch buffers for the hot kernels.
//!
//! The sparse kernels and their iterative callers (PPR pushes, HITS
//! power iterations, propagation sweeps, `condense_target` scans) used
//! to allocate a fresh `Vec` per call for every accumulator, marker
//! array and output vector. None of those allocations carry state
//! between calls — they are pure scratch — so this module keeps them in
//! a small per-thread pool instead: [`take_f32`] / [`take_u32`] hand
//! out a buffer resized to the requested length (reusing a previously
//! returned one when possible) and the RAII guard returns it to the
//! pool on drop. Pooled buffers never leave the pool: a result that
//! must outlive the kernel (an allocating wrapper's output) is a plain
//! `Vec` of exactly its length, so a caller never walks off with the
//! pool's largest buffer.
//!
//! A caller that keeps a buffer beyond one scope — the inference tape
//! of `freehgc_autograd`, whose op outputs live as long as the tape —
//! takes it with [`take_f32_owned`] as a plain `Vec` and hands it back
//! with [`give_f32`]. Both draw on the same per-thread pool as the
//! guards. An owned take picks the smallest pooled buffer that holds
//! the request, so the small outputs of a forward pass do not claim the
//! large ones; only when none is big enough does it grow the largest.
//!
//! Two contracts matter:
//!
//! * **Pooling never changes bits.** [`take_f32`] returns a buffer with
//!   *unspecified contents* (whatever the previous user left behind);
//!   every kernel that uses one either overwrites the full length or
//!   guards reads behind its own occupancy markers. Callers that need a
//!   zeroed buffer use the `_zeroed` variants. Given that, a pooled run
//!   is bitwise-identical to a fresh-allocation run.
//! * **Counters are per-thread and observable.** [`stats`] snapshots the
//!   current thread's take/hit/alloc counts, so a bench or test can
//!   assert a steady-state inner loop performs *zero* fresh allocations
//!   (`reset_stats`, run, check `fresh_allocs == 0`) without being
//!   perturbed by other test threads. Scoped worker threads are
//!   short-lived, so their pools (and counts) die with them — pooling
//!   pays off on the serial paths and on the caller thread, which is
//!   exactly where the single-core hot loops run.

use std::cell::{Cell, RefCell};

/// Buffers a pool keeps whatever their size. A pool only grows when
/// every pooled buffer is taken, so it holds at most as many buffers
/// as its thread ever held at once, and the kernels' scratch stays
/// under this count.
const MAX_POOLED: usize = 16;

/// Bytes up to which a pool keeps returned buffers beyond
/// [`MAX_POOLED`]. An inference forward pass holds one buffer per op
/// (4–7 per meta-path block in the HGNN heads), more than
/// `MAX_POOLED`; this budget keeps all of a small pass's buffers while
/// bounding what a large one leaves parked between calls, which counts
/// against the process's resident memory: keeping every buffer of the
/// HGNN's test-split forward raised hgcbench `protocol`'s peak RSS by
/// 6–8%.
const MAX_POOLED_BYTES: usize = 1 << 20;

/// A point-in-time snapshot of the *current thread's* workspace
/// counters (the `CacheCounters` of the allocation layer).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkspaceStats {
    /// Buffers requested via `take_*`.
    pub takes: u64,
    /// Takes served by reusing a pooled buffer.
    pub pool_hits: u64,
    /// Takes that had to allocate a brand-new buffer.
    pub fresh_allocs: u64,
    /// Bytes newly allocated (fresh buffers plus capacity growth of
    /// reused ones).
    pub alloc_bytes: u64,
    /// Buffers returned to the pool by guard drops and `give_*` calls.
    pub gives: u64,
}

thread_local! {
    static STATS: Cell<WorkspaceStats> = Cell::new(WorkspaceStats::default());
}

fn bump(f: impl FnOnce(&mut WorkspaceStats)) {
    STATS.with(|s| {
        let mut v = s.get();
        f(&mut v);
        s.set(v);
    });
}

/// Snapshot of the current thread's workspace counters.
pub fn stats() -> WorkspaceStats {
    STATS.with(Cell::get)
}

/// Resets the current thread's workspace counters to zero (the pools
/// themselves keep their buffers — that is the point: a reset-then-run
/// window shows the *steady-state* allocation behaviour).
pub fn reset_stats() {
    STATS.with(|s| s.set(WorkspaceStats::default()));
}

/// Counts a take and sizes its buffer, `reused` from the pool or else
/// fresh, to exactly `len` elements.
fn fit<T: Clone + Default>(reused: Option<Vec<T>>, len: usize) -> Vec<T> {
    let elem_bytes = std::mem::size_of::<T>() as u64;
    let mut buf = match reused {
        Some(b) => {
            let grown = len.saturating_sub(b.capacity()) as u64;
            bump(|s| {
                s.takes += 1;
                s.pool_hits += 1;
                s.alloc_bytes += grown * elem_bytes;
            });
            b
        }
        None => {
            bump(|s| {
                s.takes += 1;
                s.fresh_allocs += 1;
                s.alloc_bytes += len as u64 * elem_bytes;
            });
            Vec::with_capacity(len)
        }
    };
    buf.resize(len, T::default());
    buf.truncate(len);
    buf
}

macro_rules! pool_impl {
    ($elem:ty, $pool:ident, $guard:ident, $take:ident, $take_zeroed:ident, $take_owned:ident, $give:ident) => {
        thread_local! {
            static $pool: RefCell<Vec<Vec<$elem>>> = const { RefCell::new(Vec::new()) };
        }

        /// RAII guard over a pooled scratch buffer; derefs to the
        /// underlying `Vec` and returns it to the current thread's pool
        /// on drop.
        pub struct $guard {
            buf: Option<Vec<$elem>>,
        }

        impl std::ops::Deref for $guard {
            type Target = Vec<$elem>;
            fn deref(&self) -> &Vec<$elem> {
                self.buf.as_ref().expect("buffer present until drop")
            }
        }

        impl std::ops::DerefMut for $guard {
            fn deref_mut(&mut self) -> &mut Vec<$elem> {
                self.buf.as_mut().expect("buffer present until drop")
            }
        }

        impl Drop for $guard {
            fn drop(&mut self) {
                if let Some(buf) = self.buf.take() {
                    $give(buf);
                }
            }
        }

        /// Takes a buffer of exactly `len` elements with **unspecified
        /// contents** — the caller must fully overwrite it or guard
        /// every read (see the module docs' bitwise contract).
        pub fn $take(len: usize) -> $guard {
            // Reuse the pooled buffer with the largest capacity so a
            // steady-state caller converges on zero growth.
            let reused = $pool.with(|p| {
                let mut p = p.borrow_mut();
                let best = (0..p.len()).max_by_key(|&i| p[i].capacity())?;
                Some(p.swap_remove(best))
            });
            $guard {
                buf: Some(fit(reused, len)),
            }
        }

        /// Takes a buffer of exactly `len` elements with **unspecified
        /// contents** out of the pool as a plain `Vec`; hand it back with
        #[doc = concat!("[`", stringify!($give), "`] when done (dropping it just frees it).")]
        /// Picks the smallest pooled buffer that holds `len`, else the
        /// largest, which grows.
        pub fn $take_owned(len: usize) -> Vec<$elem> {
            let reused = $pool.with(|p| {
                let mut p = p.borrow_mut();
                let fits = (0..p.len())
                    .filter(|&i| p[i].capacity() >= len)
                    .min_by_key(|&i| p[i].capacity());
                let best = fits.or_else(|| (0..p.len()).max_by_key(|&i| p[i].capacity()))?;
                Some(p.swap_remove(best))
            });
            fit(reused, len)
        }

        /// Returns a buffer to the current thread's pool, or frees it if
        /// the pool already holds 16 buffers and this one would take it
        /// past 1 MiB in all.
        pub fn $give(buf: Vec<$elem>) {
            bump(|s| s.gives += 1);
            $pool.with(|p| {
                let mut p = p.borrow_mut();
                let bytes = |b: &Vec<$elem>| b.capacity() * std::mem::size_of::<$elem>();
                if p.len() < MAX_POOLED
                    || p.iter().map(bytes).sum::<usize>() + bytes(&buf) <= MAX_POOLED_BYTES
                {
                    p.push(buf);
                }
            });
        }

        #[doc = concat!("[`", stringify!($take), "`] with the buffer fully zeroed.")]
        pub fn $take_zeroed(len: usize) -> $guard {
            let mut g = $take(len);
            g.fill(Default::default());
            g
        }
    };
}

pool_impl!(
    f32,
    POOL_F32,
    WsF32,
    take_f32,
    take_f32_zeroed,
    take_f32_owned,
    give_f32
);
pool_impl!(
    u32,
    POOL_U32,
    WsU32,
    take_u32,
    take_u32_zeroed,
    take_u32_owned,
    give_u32
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_reuses_buffers_and_counts() {
        // Run on a dedicated thread: counters and pools are
        // thread-local, so this is isolated from every other test.
        std::thread::spawn(|| {
            reset_stats();
            {
                let mut a = take_f32(100);
                a[0] = 1.0;
                a[99] = 2.0;
            } // returned to the pool
            let s = stats();
            assert_eq!(s.takes, 1);
            assert_eq!(s.fresh_allocs, 1);
            assert_eq!(s.gives, 1);
            assert_eq!(s.alloc_bytes, 400);

            reset_stats();
            let b = take_f32(80); // steady state: served from the pool
            assert_eq!(b.len(), 80);
            let s = stats();
            assert_eq!(s.takes, 1);
            assert_eq!(s.pool_hits, 1);
            assert_eq!(s.fresh_allocs, 0);
            assert_eq!(s.alloc_bytes, 0, "a shrink must not count as growth");
        })
        .join()
        .unwrap();
    }

    #[test]
    fn zeroed_take_is_zero_even_after_reuse() {
        std::thread::spawn(|| {
            {
                let mut a = take_u32(10);
                a.fill(7);
            }
            let b = take_u32_zeroed(10);
            assert!(b.iter().all(|&v| v == 0));
        })
        .join()
        .unwrap();
    }

    #[test]
    fn owned_takes_pick_the_smallest_fit_and_come_back() {
        std::thread::spawn(|| {
            let (big, small) = (take_f32_owned(1000), take_f32_owned(10));
            give_f32(big);
            give_f32(small);
            reset_stats();
            let a = take_f32_owned(8);
            assert_eq!((a.len(), a.capacity()), (8, 10), "smallest fit");
            let b = take_f32_owned(500);
            assert!(b.capacity() >= 1000);
            let c = take_f32_owned(4);
            let s = stats();
            assert_eq!((s.takes, s.pool_hits, s.fresh_allocs), (3, 2, 1));
            give_f32(a);
            give_f32(b);
            give_f32(c);
            assert_eq!(stats().gives, 3);
            // A request no pooled buffer holds grows the largest.
            reset_stats();
            let d = take_f32_owned(2000);
            let s = stats();
            assert_eq!((s.pool_hits, s.fresh_allocs), (1, 0));
            assert_eq!(s.alloc_bytes, 1000 * 4);
            assert_eq!(d.len(), 2000);
        })
        .join()
        .unwrap();
    }

    #[test]
    fn growth_counts_bytes() {
        std::thread::spawn(|| {
            drop(take_u32(4));
            reset_stats();
            let g = take_u32(12); // reuse of the 4-capacity buffer grows it
            assert_eq!(g.len(), 12);
            let s = stats();
            assert_eq!(s.pool_hits, 1);
            assert!(s.alloc_bytes >= 8 * 4, "growth bytes must be counted");
        })
        .join()
        .unwrap();
    }
}
