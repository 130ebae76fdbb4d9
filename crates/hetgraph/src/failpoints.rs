//! Deterministic, named fault-injection sites for robustness drills.
//!
//! A *failpoint* is a named hook compiled into a failure-prone code path
//! (snapshot I/O, the registry's cold build, a condenser's compute, a
//! serving worker and its queue). Tests *arm* a site — "fail the next N
//! times" ([`arm`]) or "fail a deterministic pseudo-random one-in-K of
//! hits" ([`arm_seeded`]) — and the hook then
//! reports [`should_fire`]` == true` at exactly those hits. Everything
//! is seed-deterministic: the same arming produces the same firing
//! pattern on every run, so a chaos test that passes once passes always.
//!
//! The whole module is gated behind the `failpoints` cargo feature.
//! Without it every entry point is a constant no-op the optimizer
//! deletes — release builds carry zero branches for any of this.
//!
//! Arming is process-global (sites are hit from arbitrary threads deep
//! inside the stack, where no test-owned handle could reach). Tests
//! that arm sites must serialize on a lock and [`reset`] when done —
//! see `tests/chaos_failpoints.rs` for the pattern.

/// Injected I/O error while reading a snapshot file back
/// (`ContextRegistry::resolve` with a snapshot directory). Degrades to a
/// bounded retry, then a clean cold miss.
pub const SNAPSHOT_READ_IO: &str = "snapshot.read.io";
/// Injected I/O error while persisting a snapshot. Degrades to a
/// bounded retry inside `CondenseContext::save_snapshot`.
pub const SNAPSHOT_WRITE_IO: &str = "snapshot.write.io";
/// Simulated crash mid-persist: half the bytes land in the per-call
/// temp file, which is left behind (as a real crash would), and the
/// attempt reports an error. Degrades to a retry (fresh temp file);
/// the orphan is garbage-collected by the startup sweep.
pub const SNAPSHOT_TORN_WRITE: &str = "snapshot.write.torn";
/// Injected panic inside a condensation reached through
/// `Condenser::condense_shared`. Degrades to a counted, bounded retry
/// (`ContextRegistry::run_isolated`).
pub const CONDENSE_PANIC: &str = "condense.panic";
/// Injected panic inside the registry's single-flight leader build.
/// Degrades to the leader (or exactly one waiter) retrying the build.
pub const REGISTRY_BUILD_PANIC: &str = "registry.build.panic";
/// Holds the single-flight leader's build open for a few milliseconds,
/// so concurrency tests can guarantee waiters actually coalesce instead
/// of racing past an already-finished flight.
pub const REGISTRY_BUILD_DELAY: &str = "registry.build.delay";
/// Injected panic inside a serving worker's request execution (between
/// dequeue and the condensation itself). Degrades to a typed error
/// reply for exactly that request; the worker, pool and registry keep
/// serving.
pub const SERVE_WORKER_PANIC: &str = "serve.worker.panic";
/// Simulated full serving queue: the enqueue path treats the bounded
/// queue as at capacity and replies with typed backpressure
/// (`Overloaded`) even when depth remains — a stand-in for an overload
/// spike.
pub const SERVE_QUEUE_FULL: &str = "serve.queue.full";

#[cfg(feature = "failpoints")]
mod imp {
    use freehgc_parallel::relock;
    use freehgc_sparse::FxHashMap;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{Mutex, OnceLock};

    #[derive(Clone, Copy)]
    enum Plan {
        /// Fire on each of the next `remaining` hits.
        Times { remaining: u64 },
        /// Fire whenever `mix(seed, hit_index) % one_in == 0` — a
        /// deterministic stand-in for a random fault rate.
        Seeded { seed: u64, one_in: u64 },
    }

    struct Site {
        plan: Plan,
        hits: u64,
        fired: u64,
    }

    fn sites() -> &'static Mutex<FxHashMap<&'static str, Site>> {
        static SITES: OnceLock<Mutex<FxHashMap<&'static str, Site>>> = OnceLock::new();
        SITES.get_or_init(Mutex::default)
    }

    static TOTAL_FIRED: AtomicU64 = AtomicU64::new(0);

    /// SplitMix64 finalizer — a full-avalanche mix, so consecutive hit
    /// indices under one seed look uncorrelated.
    fn mix(seed: u64, n: u64) -> u64 {
        let mut z = seed ^ n.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn arm(site: &'static str, times: u64) {
        relock(sites()).insert(
            site,
            Site {
                plan: Plan::Times { remaining: times },
                hits: 0,
                fired: 0,
            },
        );
    }

    pub fn arm_seeded(site: &'static str, seed: u64, one_in: u64) {
        relock(sites()).insert(
            site,
            Site {
                plan: Plan::Seeded {
                    seed,
                    one_in: one_in.max(1),
                },
                hits: 0,
                fired: 0,
            },
        );
    }

    pub fn disarm(site: &'static str) {
        relock(sites()).remove(site);
    }

    pub fn reset() {
        relock(sites()).clear();
        TOTAL_FIRED.store(0, Ordering::Relaxed);
    }

    pub fn should_fire(site: &'static str) -> bool {
        let mut sites = relock(sites());
        let Some(s) = sites.get_mut(site) else {
            return false;
        };
        let hit = s.hits;
        s.hits += 1;
        let fire = match &mut s.plan {
            Plan::Times { remaining } => {
                if *remaining > 0 {
                    *remaining -= 1;
                    true
                } else {
                    false
                }
            }
            Plan::Seeded { seed, one_in } => mix(*seed, hit).is_multiple_of(*one_in),
        };
        if fire {
            s.fired += 1;
            TOTAL_FIRED.fetch_add(1, Ordering::Relaxed);
        }
        fire
    }

    pub fn fired(site: &'static str) -> u64 {
        relock(sites()).get(site).map_or(0, |s| s.fired)
    }

    pub fn total_fired() -> u64 {
        TOTAL_FIRED.load(Ordering::Relaxed)
    }
}

#[cfg(feature = "failpoints")]
pub use imp::{arm, arm_seeded, disarm, fired, reset, should_fire, total_fired};

#[cfg(not(feature = "failpoints"))]
mod noop {
    /// No-op without the `failpoints` feature.
    #[inline(always)]
    pub fn arm(_site: &'static str, _times: u64) {}
    /// No-op without the `failpoints` feature.
    #[inline(always)]
    pub fn arm_seeded(_site: &'static str, _seed: u64, _one_in: u64) {}
    /// No-op without the `failpoints` feature.
    #[inline(always)]
    pub fn disarm(_site: &'static str) {}
    /// No-op without the `failpoints` feature.
    #[inline(always)]
    pub fn reset() {}
    /// Constant `false` without the `failpoints` feature — the guarded
    /// branch folds away entirely.
    #[inline(always)]
    pub fn should_fire(_site: &'static str) -> bool {
        false
    }
    /// Constant `0` without the `failpoints` feature.
    #[inline(always)]
    pub fn fired(_site: &'static str) -> u64 {
        0
    }
    /// Constant `0` without the `failpoints` feature.
    #[inline(always)]
    pub fn total_fired() -> u64 {
        0
    }
}

#[cfg(not(feature = "failpoints"))]
pub use noop::{arm, arm_seeded, disarm, fired, reset, should_fire, total_fired};

/// Panics with an identifiable payload when `site` fires. The payload
/// names the site, so a test catching the unwind can tell an injected
/// panic from a genuine bug.
#[inline]
pub fn fire_panic(site: &'static str) {
    if should_fire(site) {
        panic!("injected failpoint panic: {site}");
    }
}

/// Returns an injected `std::io::Error` when `site` fires.
#[inline]
pub fn fire_io(site: &'static str) -> std::io::Result<()> {
    if should_fire(site) {
        return Err(std::io::Error::other(format!(
            "injected failpoint I/O error: {site}"
        )));
    }
    Ok(())
}

/// Sleeps a few milliseconds when `site` fires — enough for concurrent
/// threads to pile onto an in-flight build, not enough to slow a suite.
#[inline]
pub fn fire_delay(site: &'static str) {
    if should_fire(site) {
        std::thread::sleep(std::time::Duration::from_millis(25));
    }
}

#[cfg(all(test, feature = "failpoints"))]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Failpoint state is process-global; tests that arm it serialize.
    static FP_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn times_plan_fires_exactly_n_hits() {
        let _g = FP_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        reset();
        arm("test.times", 2);
        assert!(should_fire("test.times"));
        assert!(should_fire("test.times"));
        assert!(!should_fire("test.times"));
        assert_eq!(fired("test.times"), 2);
        assert_eq!(total_fired(), 2);
        reset();
    }

    #[test]
    fn seeded_plan_is_deterministic() {
        let _g = FP_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        reset();
        let pattern = |seed: u64| {
            arm_seeded("test.seeded", seed, 3);
            let p: Vec<bool> = (0..64).map(|_| should_fire("test.seeded")).collect();
            disarm("test.seeded");
            p
        };
        let a = pattern(7);
        let b = pattern(7);
        assert_eq!(a, b, "same seed, same firing pattern");
        assert!(a.iter().any(|&f| f), "one-in-3 over 64 hits must fire");
        assert!(!a.iter().all(|&f| f), "…but not on every hit");
        let c = pattern(8);
        assert_ne!(a, c, "different seeds diverge");
        reset();
    }

    #[test]
    fn unarmed_sites_never_fire() {
        assert!(!should_fire("test.unarmed"));
        assert_eq!(fired("test.unarmed"), 0);
    }
}
