//! Single-flight: concurrent callers that ask for the same key share one
//! computation.
//!
//! [`SingleFlight`] owns the map of calls in the air. The first caller to
//! [`SingleFlight::join`] a key becomes its **leader** and computes; every
//! caller that joins while the call is registered becomes a **follower**
//! and waits for the leader's outcome — blocking ([`Call::wait`]) or one
//! bounded slice at a time ([`Call::wait_timeout`]), so a follower can
//! poll its own deadline or cancellation between slices.
//!
//! The leader must [`SingleFlight::finish`] its call on **every** exit
//! path, success or failure, or its followers wait forever. `finish`
//! retires the call from the map, then publishes the outcome and wakes
//! every waiter. Retiring first means a caller that joins afterwards
//! always starts a fresh call; none ever joins one that already failed.
//!
//! Policy stays with the caller. The primitive never retries: a follower
//! that receives `Err` decides whether to re-join (exactly one re-joiner
//! then leads the next call) or to surface the error. Nor does it keep
//! finished values. A caller that memoizes outcomes must keep a
//! ready map of its own and obey one ordering rule to never compute a key
//! twice:
//!
//! 1. the leader writes its value into the ready map *before* `finish`
//!    retires the call, and
//! 2. a newly elected leader re-checks the ready map before computing.
//!
//! A caller that missed the ready map and joined after the retire is then
//! elected leader and finds the value on its re-check.

use crate::relock;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Duration;

/// One computation in the air: the leader's outcome once published, and
/// the condvar its followers sleep on.
pub struct Call<V, E> {
    outcome: Mutex<Option<Result<V, E>>>,
    done: Condvar,
}

/// What [`SingleFlight::join`] made of the caller.
pub enum Role<V, E> {
    /// No call was registered under the key: this caller registered one
    /// and must [`SingleFlight::finish`] it.
    Leader(Arc<Call<V, E>>),
    /// Another caller leads the registered call; wait on it.
    Follower(Arc<Call<V, E>>),
}

/// Keyed map of calls in the air. See the module docs.
pub struct SingleFlight<K, V, E> {
    calls: Mutex<HashMap<K, Arc<Call<V, E>>>>,
}

impl<K, V, E> Default for SingleFlight<K, V, E> {
    fn default() -> Self {
        Self {
            calls: Mutex::new(HashMap::new()),
        }
    }
}

impl<K: Hash + Eq + Clone, V, E> SingleFlight<K, V, E> {
    /// Joins the call registered under `key`, or registers a new one and
    /// leads it.
    pub fn join(&self, key: &K) -> Role<V, E> {
        let mut calls = relock(&self.calls);
        if let Some(call) = calls.get(key) {
            return Role::Follower(Arc::clone(call));
        }
        let call = Arc::new(Call {
            outcome: Mutex::new(None),
            done: Condvar::new(),
        });
        calls.insert(key.clone(), Arc::clone(&call));
        Role::Leader(call)
    }

    /// Retires `call` from `key` — only if it is still the registered
    /// call, so a stale finish never retires a newer one — then publishes
    /// `outcome` and wakes every waiter. The first outcome published on a
    /// call is final.
    pub fn finish(&self, key: &K, call: &Arc<Call<V, E>>, outcome: Result<V, E>) {
        {
            let mut calls = relock(&self.calls);
            if calls.get(key).is_some_and(|cur| Arc::ptr_eq(cur, call)) {
                calls.remove(key);
            }
        }
        relock(&call.outcome).get_or_insert(outcome);
        call.done.notify_all();
    }

    /// Keys with a call in the air.
    pub fn keys(&self) -> Vec<K> {
        relock(&self.calls).keys().cloned().collect()
    }
}

impl<V: Clone, E: Clone> Call<V, E> {
    /// Blocks until the leader publishes, then returns its outcome.
    pub fn wait(&self) -> Result<V, E> {
        let mut outcome = relock(&self.outcome);
        loop {
            if let Some(out) = &*outcome {
                return out.clone();
            }
            outcome = self
                .done
                .wait(outcome)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// The outcome if the leader has published; otherwise waits at most
    /// `slice` for it and returns `None` if the call is still pending.
    pub fn wait_timeout(&self, slice: Duration) -> Option<Result<V, E>> {
        let mut outcome = relock(&self.outcome);
        if outcome.is_none() {
            outcome = self
                .done
                .wait_timeout(outcome, slice)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
        outcome.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;

    fn leader<V, E>(role: Role<V, E>) -> Arc<Call<V, E>> {
        match role {
            Role::Leader(call) => call,
            Role::Follower(_) => panic!("expected to lead"),
        }
    }

    fn follower<V, E>(role: Role<V, E>) -> Arc<Call<V, E>> {
        match role {
            Role::Follower(call) => call,
            Role::Leader(_) => panic!("expected to follow"),
        }
    }

    #[test]
    fn followers_receive_the_leaders_value() {
        let sf = SingleFlight::<u32, String, ()>::default();
        let lead = leader(sf.join(&1));
        let waiter = follower(sf.join(&1));
        assert_eq!(sf.keys(), vec![1]);
        std::thread::scope(|s| {
            let h = s.spawn(|| waiter.wait());
            sf.finish(&1, &lead, Ok("v".to_string()));
            assert_eq!(h.join().unwrap(), Ok("v".to_string()));
        });
        assert!(sf.keys().is_empty(), "finish retires the call");
    }

    #[test]
    fn failed_leader_hands_exactly_one_waiter_the_next_lead() {
        const WAITERS: usize = 6;
        let sf = SingleFlight::<u32, u32, &str>::default();
        let lead = leader(sf.join(&7));
        let joined = AtomicUsize::new(0);
        let next_leaders = AtomicUsize::new(0);
        let barrier = Barrier::new(WAITERS);
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..WAITERS)
                .map(|_| {
                    s.spawn(|| {
                        let call = follower(sf.join(&7));
                        joined.fetch_add(1, Ordering::SeqCst);
                        assert_eq!(call.wait(), Err("boom"));
                        // Every waiter has seen the failure before any re-joins.
                        barrier.wait();
                        match sf.join(&7) {
                            Role::Leader(call) => {
                                next_leaders.fetch_add(1, Ordering::SeqCst);
                                barrier.wait();
                                sf.finish(&7, &call, Ok(2));
                                2
                            }
                            Role::Follower(call) => {
                                barrier.wait();
                                call.wait().unwrap()
                            }
                        }
                    })
                })
                .collect();
            while joined.load(Ordering::SeqCst) < WAITERS {
                std::thread::yield_now();
            }
            sf.finish(&7, &lead, Err("boom"));
            for h in handles {
                assert_eq!(h.join().unwrap(), 2);
            }
        });
        assert_eq!(next_leaders.load(Ordering::SeqCst), 1);
        assert!(sf.keys().is_empty());
    }

    #[test]
    fn stale_finish_never_retires_a_newer_call() {
        let sf = SingleFlight::<&str, u32, ()>::default();
        let old = leader(sf.join(&"k"));
        sf.finish(&"k", &old, Ok(1));
        let new = leader(sf.join(&"k"));
        sf.finish(&"k", &old, Ok(9));
        assert_eq!(old.wait(), Ok(1), "the first outcome is final");
        let late = follower(sf.join(&"k"));
        assert!(
            Arc::ptr_eq(&late, &new),
            "the newer call is still registered"
        );
        sf.finish(&"k", &new, Ok(2));
        assert_eq!(late.wait(), Ok(2));
    }

    #[test]
    fn sliced_wait_returns_while_the_call_is_pending() {
        let sf = SingleFlight::<u8, u8, ()>::default();
        let lead = leader(sf.join(&0));
        let waiter = follower(sf.join(&0));
        assert_eq!(waiter.wait_timeout(Duration::from_millis(2)), None);
        sf.finish(&0, &lead, Ok(5));
        assert_eq!(waiter.wait_timeout(Duration::ZERO), Some(Ok(5)));
    }

    /// Threads × rounds over a few keys, each caller memoizing into a
    /// ready map with the publish-then-retire order of the module docs:
    /// every key is computed exactly once per round.
    #[test]
    fn stress_computes_each_key_once_per_round() {
        const THREADS: usize = 8;
        const ROUNDS: usize = 200;
        const KEYS: usize = 3;
        let sf = SingleFlight::<usize, usize, ()>::default();
        let ready: Mutex<HashMap<usize, usize>> = Mutex::default();
        let computes: Vec<AtomicUsize> = (0..KEYS).map(|_| AtomicUsize::new(0)).collect();
        let barrier = Barrier::new(THREADS);
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let (sf, ready, computes, barrier) = (&sf, &ready, &computes, &barrier);
                s.spawn(move || {
                    for round in 0..ROUNDS {
                        barrier.wait();
                        for i in 0..KEYS {
                            let key = (i + t) % KEYS;
                            let want = round * KEYS + key;
                            let hit = relock(ready).get(&key).copied();
                            let got = hit.unwrap_or_else(|| match sf.join(&key) {
                                Role::Follower(call) => call.wait().unwrap(),
                                Role::Leader(call) => {
                                    let recheck = relock(ready).get(&key).copied();
                                    let v = recheck.unwrap_or_else(|| {
                                        computes[key].fetch_add(1, Ordering::SeqCst);
                                        relock(ready).insert(key, want);
                                        want
                                    });
                                    sf.finish(&key, &call, Ok(v));
                                    v
                                }
                            });
                            assert_eq!(got, want);
                        }
                        barrier.wait();
                        if t == 0 {
                            relock(ready).clear();
                        }
                        barrier.wait();
                    }
                });
            }
        });
        for (key, c) in computes.iter().enumerate() {
            assert_eq!(c.load(Ordering::SeqCst), ROUNDS, "key {key}");
        }
        assert!(sf.keys().is_empty());
    }
}
