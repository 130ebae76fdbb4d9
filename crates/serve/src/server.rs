//! The request path: catalog → registry fast path → bounded pool.
//!
//! [`ServeHandle`] is the transport-independent server. The TCP front
//! end ([`crate::tcp`]) and the in-process tests/bench drive the *same*
//! `call` path, so every protocol rule — typed backpressure, request
//! coalescing, deadlines, cancellation — is exercised without sockets.
//!
//! A `Condense` request travels:
//!
//! 1. **Catalog** — [`GraphRef`] resolves to an `Arc<HeteroGraph>`
//!    (registered id or memoized inline spec).
//! 2. **Fast path** — a repeat of an identical request answers from a
//!    FIFO-capped reply memo (a condensation is a deterministic
//!    function of its flight key, so the memoized bytes ARE the
//!    recompute's bytes); otherwise [`ContextRegistry::peek`] lets a
//!    warm context answer on the *caller's* thread. Neither touches
//!    the worker pool — warm requests cannot be queued behind cold
//!    ones.
//! 3. **Request single-flight** — identical in-flight requests (same
//!    graph, method, ratio, seed, hops, paths) coalesce onto one
//!    computation through the shared [`freehgc_parallel::SingleFlight`]
//!    primitive; followers wait for the leader's reply. A leader that
//!    fails returns its typed error and hands followers a fresh
//!    election, so exactly one client observes each injected worker
//!    panic. A successful leader memoizes its reply *before* it retires
//!    the flight, and a newly elected leader re-checks the memo, so an
//!    identical request is never condensed twice.
//! 4. **Bounded pool** — cold leaders enqueue on the fixed-size
//!    [`WorkerPool`]; a full queue is a typed [`ErrorCode::Overloaded`]
//!    reply, never unbounded buffering.
//!
//! Deadlines and cancellation (client disconnect) are checked at phase
//! boundaries — before context resolution and before condensation — and
//! while waiting on a flight, so abandoned work is shed early without
//! ever interrupting a kernel mid-compute.
//!
//! The output contract is strict: a served condensation is
//! bitwise-identical to calling `Condenser::condense_shared` directly
//! against the same registry — serving reuses that exact code path
//! (context resolution, panic isolation, failpoints included).

use crate::catalog::{CatalogError, GraphCatalog};
use crate::wire::{self, CondensedSummary, ErrorCode, GraphRef, Reply, Request, StatsReply};
use freehgc_baselines::{
    CoarseningHg, GCondBaseline, GradMatchConfig, HGCondBaseline, HerdingHg, KCenterHg, RandomHg,
};
use freehgc_core::FreeHgc;
use freehgc_hetgraph::failpoints as fp;
use freehgc_hetgraph::{CondenseSpec, Condenser, ContextRegistry, GraphFingerprint, HeteroGraph};
use freehgc_parallel::singleflight::{Call, Role};
use freehgc_parallel::{relock, SingleFlight, SubmitError, WorkerPool};
use std::collections::{BTreeMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Hop/path caps a request may ask for: the hetgraph bounds every
/// untrusted meta-path query shares.
const MAX_REQUEST_HOPS: u32 = freehgc_hetgraph::MAX_HOPS as u32;
const MAX_REQUEST_PATHS: u32 = freehgc_hetgraph::MAX_PATHS as u32;
/// How often a flight waiter wakes to check deadline / cancellation /
/// the disconnect probe.
const WAIT_SLICE: Duration = Duration::from_millis(5);
/// A follower whose leader failed re-runs the resolution this many
/// times before surrendering with the leader's error.
const MAX_CALL_ATTEMPTS: u32 = 4;
/// Completed condense replies kept for repeat requests (FIFO-capped).
/// A condensation is a deterministic function of its flight key, so a
/// memoized reply is exactly the bytes a recompute would produce.
const REPLY_CACHE_CAP: usize = 256;

/// Cooperative cancellation flag for one request. The transport sets it
/// when the client disconnects; workers observe it at phase boundaries.
#[derive(Clone, Debug, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

/// Per-call context a transport may attach.
#[derive(Default)]
pub struct CallOpts<'a> {
    /// Cancellation flag shared with whoever owns the connection.
    pub cancel: Option<CancelToken>,
    /// Polled while the caller waits on a coalesced/pooled flight;
    /// returning `true` means "the client is gone" — the call cancels
    /// (and flips `cancel`, aborting the pooled job at its next phase
    /// boundary).
    pub disconnect_probe: Option<&'a (dyn Fn() -> bool + Sync)>,
}

/// Server construction knobs.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Worker threads executing cold condensations.
    pub workers: usize,
    /// Bounded queue depth; the `workers + queue_depth + 1`-th
    /// concurrent cold request gets a typed overload reply.
    pub queue_depth: usize,
    /// When set, `ApplyDelta` seeds contexts through the registry's
    /// snapshot-aware delta path rooted here.
    pub snapshot_dir: Option<PathBuf>,
    /// When set, after every cold condensation the registry evicts
    /// least-recently-resolved contexts until resident cache bytes fit —
    /// the serving integration of `ContextRegistry::evict_idle`.
    pub resident_budget: Option<u64>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            workers: 4,
            queue_depth: 64,
            snapshot_dir: None,
            resident_budget: None,
        }
    }
}

/// The default method table: every condenser of the paper's comparison,
/// with the gradient-matching baselines at the bench's quick settings
/// so a served request and a direct `condense_shared` agree bit for
/// bit.
pub fn default_methods() -> Vec<Box<dyn Condenser + Send + Sync>> {
    let quick_gm = GradMatchConfig {
        outer: 3,
        inner: 2,
        relay_samples: 2,
        ..Default::default()
    };
    vec![
        Box::new(FreeHgc::default()),
        Box::new(RandomHg),
        Box::new(HerdingHg),
        Box::new(KCenterHg),
        Box::new(CoarseningHg),
        Box::new(HGCondBaseline {
            cfg: quick_gm.clone(),
            kmeans_iters: 3,
        }),
        Box::new(GCondBaseline {
            cfg: quick_gm,
            ..Default::default()
        }),
    ]
}

/// Key under which identical in-flight condense requests coalesce:
/// everything that determines the (deterministic) output.
type FlightKey = (GraphFingerprint, String, u64, u64, u32, u32);

/// One coalesced condensation. `Ok` is a successful reply, which
/// followers return as-is; `Err` is the leader's typed error, which the
/// leader returns and on which followers run a fresh election (bounded
/// retries).
type ReplyCall = Arc<Call<Reply, Box<Reply>>>;

#[derive(Default)]
struct Counters {
    requests: AtomicU64,
    condense_ok: AtomicU64,
    fast_path_hits: AtomicU64,
    coalesced: AtomicU64,
    overloaded: AtomicU64,
    shutdown_rejected: AtomicU64,
    worker_panics: AtomicU64,
    deadline_exceeded: AtomicU64,
    cancelled: AtomicU64,
    deltas_applied: AtomicU64,
}

/// Memoized successful condense replies, FIFO-evicted at
/// [`REPLY_CACHE_CAP`]. Safe by construction: the flight key includes
/// the graph *fingerprint*, so any mutation (delta, re-registration)
/// changes the key and stale entries simply age out unread.
#[derive(Default)]
struct ReplyCache {
    map: BTreeMap<FlightKey, Reply>,
    order: VecDeque<FlightKey>,
}

struct ServerInner {
    catalog: GraphCatalog,
    registry: ContextRegistry,
    pool: WorkerPool,
    methods: BTreeMap<String, Arc<dyn Condenser + Send + Sync>>,
    flights: SingleFlight<FlightKey, Reply, Box<Reply>>,
    replies: Mutex<ReplyCache>,
    counters: Counters,
    shutting_down: AtomicBool,
    snapshot_dir: Option<PathBuf>,
    resident_budget: Option<u64>,
}

fn err(code: ErrorCode, message: impl Into<String>) -> Reply {
    Reply::Error {
        code,
        message: message.into(),
    }
}

/// The in-process condensation server. Cheap to clone (shared
/// interior); [`ServeHandle::shutdown`] drains and joins everything.
#[derive(Clone)]
pub struct ServeHandle {
    inner: Arc<ServerInner>,
}

impl ServeHandle {
    /// A server with its own worker pool and the default method table.
    pub fn new(config: ServeConfig) -> Self {
        let pool = WorkerPool::new(config.workers, config.queue_depth);
        Self::with_pool(config, pool)
    }

    /// A server over a caller-built pool — how the bench stages
    /// deterministic overload (saturate the pool with blocked jobs
    /// first, then submit requests).
    pub fn with_pool(config: ServeConfig, pool: WorkerPool) -> Self {
        let methods = default_methods()
            .into_iter()
            .map(|c| (c.name().to_string(), Arc::from(c)))
            .collect();
        ServeHandle {
            inner: Arc::new(ServerInner {
                catalog: GraphCatalog::new(),
                registry: ContextRegistry::new(),
                pool,
                methods,
                flights: SingleFlight::default(),
                replies: Mutex::new(ReplyCache::default()),
                counters: Counters::default(),
                shutting_down: AtomicBool::new(false),
                snapshot_dir: config.snapshot_dir,
                resident_budget: config.resident_budget,
            }),
        }
    }

    /// Registers (or replaces) a graph under `id`.
    pub fn register_graph(&self, id: impl Into<String>, graph: Arc<HeteroGraph>) {
        self.inner.catalog.register(id, graph);
    }

    /// The registry backing this server — shared so tests and the bench
    /// can run reference condensations against the *same* warm state.
    pub fn registry(&self) -> &ContextRegistry {
        &self.inner.registry
    }

    pub fn catalog(&self) -> &GraphCatalog {
        &self.inner.catalog
    }

    pub fn pool(&self) -> &WorkerPool {
        &self.inner.pool
    }

    /// Point-in-time serving counters (the payload of a `Stats` reply).
    pub fn stats(&self) -> StatsReply {
        let c = &self.inner.counters;
        let rs = self.inner.registry.stats();
        StatsReply {
            requests: c.requests.load(Ordering::Relaxed),
            condense_ok: c.condense_ok.load(Ordering::Relaxed),
            fast_path_hits: c.fast_path_hits.load(Ordering::Relaxed),
            coalesced: c.coalesced.load(Ordering::Relaxed),
            overloaded: c.overloaded.load(Ordering::Relaxed),
            shutdown_rejected: c.shutdown_rejected.load(Ordering::Relaxed),
            worker_panics: c.worker_panics.load(Ordering::Relaxed),
            deadline_exceeded: c.deadline_exceeded.load(Ordering::Relaxed),
            cancelled: c.cancelled.load(Ordering::Relaxed),
            deltas_applied: c.deltas_applied.load(Ordering::Relaxed),
            pool_executed: self.inner.pool.stats().executed,
            registry_contexts: self.inner.registry.len() as u64,
            registry_hits: rs.hits,
            registry_misses: rs.misses,
            duplicate_computes: rs.duplicate_computes,
            resident_bytes: self.inner.registry.resident_bytes(),
        }
    }

    /// Graceful drain: new `Condense`/`ApplyDelta` requests get typed
    /// [`ErrorCode::ShuttingDown`] replies from this point (`Ping` and
    /// `Stats` still answer), every job already accepted runs to
    /// completion and its waiters get real replies, and every pool
    /// worker is joined before this returns. Idempotent.
    pub fn shutdown(&self) {
        self.inner.shutting_down.store(true, Ordering::SeqCst);
        self.inner.pool.shutdown();
    }

    /// Handles one already-framed request, producing one reply frame.
    /// Malformed frames get a typed [`ErrorCode::BadFrame`] reply
    /// (echoing the request id when the header was readable).
    pub fn handle_frame(&self, frame: &[u8]) -> Vec<u8> {
        self.handle_frame_with(frame, &CallOpts::default())
    }

    /// [`ServeHandle::handle_frame`] with transport-supplied options.
    pub fn handle_frame_with(&self, frame: &[u8], opts: &CallOpts<'_>) -> Vec<u8> {
        match wire::decode_request(frame) {
            Ok((req_id, req)) => wire::encode_reply(req_id, &self.call_with(&req, opts)),
            Err(e) => {
                let req_id = wire::decode_header(frame)
                    .map(|(_, rid, _)| rid)
                    .unwrap_or(0);
                wire::encode_reply(req_id, &err(ErrorCode::BadFrame, e.to_string()))
            }
        }
    }

    /// Handles one typed request.
    pub fn call(&self, req: &Request) -> Reply {
        self.call_with(req, &CallOpts::default())
    }

    /// [`ServeHandle::call`] with transport-supplied options.
    pub fn call_with(&self, req: &Request, opts: &CallOpts<'_>) -> Reply {
        self.inner.counters.requests.fetch_add(1, Ordering::Relaxed);
        match req {
            Request::Ping => Reply::Pong,
            Request::Stats => Reply::Stats(self.stats()),
            Request::ApplyDelta { graph_id, delta } => self.apply_delta(graph_id, delta),
            Request::Condense {
                graph,
                method,
                ratio,
                seed,
                max_hops,
                max_paths,
                deadline_ms,
            } => self.condense(
                graph,
                method,
                *ratio,
                *seed,
                *max_hops,
                *max_paths,
                *deadline_ms,
                opts,
            ),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn condense(
        &self,
        graph_ref: &GraphRef,
        method: &str,
        ratio: f64,
        seed: u64,
        max_hops: u32,
        max_paths: u32,
        deadline_ms: u64,
        opts: &CallOpts<'_>,
    ) -> Reply {
        let inner = &self.inner;
        if inner.shutting_down.load(Ordering::Relaxed) {
            inner
                .counters
                .shutdown_rejected
                .fetch_add(1, Ordering::Relaxed);
            return err(ErrorCode::ShuttingDown, "server is draining");
        }
        // Validate before CondenseSpec::new — its contract is an assert.
        if !ratio.is_finite() || ratio <= 0.0 || ratio > 1.0 {
            return err(
                ErrorCode::BadRequest,
                format!("ratio {ratio} outside (0, 1]"),
            );
        }
        if max_hops == 0 || max_hops > MAX_REQUEST_HOPS {
            return err(
                ErrorCode::BadRequest,
                format!("max_hops {max_hops} outside 1..={MAX_REQUEST_HOPS}"),
            );
        }
        if max_paths == 0 || max_paths > MAX_REQUEST_PATHS {
            return err(
                ErrorCode::BadRequest,
                format!("max_paths {max_paths} outside 1..={MAX_REQUEST_PATHS}"),
            );
        }
        let condenser = match inner.methods.get(method) {
            Some(c) => Arc::clone(c),
            None => {
                return err(
                    ErrorCode::UnknownMethod,
                    format!("unknown method {method:?}"),
                )
            }
        };
        let graph = match inner.catalog.resolve(graph_ref) {
            Ok(g) => g,
            Err(CatalogError::UnknownGraph(id)) => {
                return err(ErrorCode::UnknownGraph, format!("unknown graph id {id:?}"))
            }
            Err(e @ CatalogError::BadInlineSpec(_)) => {
                return err(ErrorCode::BadRequest, e.to_string())
            }
        };
        let spec = CondenseSpec::new(ratio)
            .with_seed(seed)
            .with_max_hops(max_hops as usize)
            .with_max_paths(max_paths as usize);
        let deadline =
            (deadline_ms > 0).then(|| Instant::now() + Duration::from_millis(deadline_ms));
        let cancel = opts.cancel.clone().unwrap_or_default();
        let key: FlightKey = (
            graph.fingerprint(),
            method.to_string(),
            ratio.to_bits(),
            seed,
            max_hops,
            max_paths,
        );

        // Warmest path: an identical request already completed — its
        // reply is the bytes a recompute would produce (the key pins
        // every input), so answer from memory without touching the
        // registry or the pool.
        if let Some(reply) = memoized(inner, &key) {
            return reply;
        }

        let mut last_failure = None;
        for _attempt in 0..MAX_CALL_ATTEMPTS {
            if let Some(reply) = gate(&inner.counters, deadline, &cancel) {
                return reply;
            }
            match inner.flights.join(&key) {
                Role::Follower(call) => {
                    inner.counters.coalesced.fetch_add(1, Ordering::Relaxed);
                    match await_call(&inner.counters, &call, deadline, &cancel, opts) {
                        Ok(reply) => return reply,
                        // The leader took the error; run a fresh election.
                        Err(failure) => last_failure = Some(*failure),
                    }
                }
                Role::Leader(call) => {
                    // The previous leader may have memoized and retired
                    // between our memo miss and our election.
                    if let Some(reply) = memoized(inner, &key) {
                        inner.flights.finish(&key, &call, Ok(reply.clone()));
                        return reply;
                    }
                    return self.lead(&key, call, &graph, condenser, spec, deadline, cancel, opts);
                }
            }
        }
        last_failure.unwrap_or_else(|| err(ErrorCode::Internal, "retries exhausted"))
    }

    /// The leader's path: warm fast path inline, cold via the pool.
    #[allow(clippy::too_many_arguments)]
    fn lead(
        &self,
        key: &FlightKey,
        call: ReplyCall,
        graph: &Arc<HeteroGraph>,
        condenser: Arc<dyn Condenser + Send + Sync>,
        spec: CondenseSpec,
        deadline: Option<Instant>,
        cancel: CancelToken,
        opts: &CallOpts<'_>,
    ) -> Reply {
        let inner = &self.inner;
        // Fast path: a warm context answers on this thread — the pool is
        // for cold precompute, not for lookups.
        if inner.registry.peek(graph).is_some() {
            inner
                .counters
                .fast_path_hits
                .fetch_add(1, Ordering::Relaxed);
            let reply = run_condense(inner, graph, &*condenser, &spec, deadline, &cancel, false);
            publish(inner, key, &call, reply.clone());
            return reply;
        }
        // Cold: bounded enqueue. The failpoint simulates an overload
        // spike (queue treated as full) for the chaos drill.
        if fp::should_fire(fp::SERVE_QUEUE_FULL) {
            let reply = err(ErrorCode::Overloaded, "queue full (injected)");
            inner.counters.overloaded.fetch_add(1, Ordering::Relaxed);
            publish(inner, key, &call, reply.clone());
            return reply;
        }
        let job = {
            let inner = Arc::clone(&self.inner);
            let key = key.clone();
            let call = Arc::clone(&call);
            let graph = Arc::clone(graph);
            let cancel = cancel.clone();
            Box::new(move || {
                let reply =
                    run_condense(&inner, &graph, &*condenser, &spec, deadline, &cancel, true);
                publish(&inner, &key, &call, reply);
                if let Some(budget) = inner.resident_budget {
                    inner.registry.evict_idle(budget);
                }
            })
        };
        match inner.pool.submit(job) {
            // The leader owns its flight's outcome, error or not.
            Ok(()) => await_call(&inner.counters, &call, deadline, &cancel, opts)
                .unwrap_or_else(|failure| *failure),
            Err(e) => {
                let reply = match e {
                    SubmitError::QueueFull(_) => {
                        inner.counters.overloaded.fetch_add(1, Ordering::Relaxed);
                        err(ErrorCode::Overloaded, "worker queue full; retry later")
                    }
                    SubmitError::ShuttingDown(_) => {
                        inner
                            .counters
                            .shutdown_rejected
                            .fetch_add(1, Ordering::Relaxed);
                        err(ErrorCode::ShuttingDown, "server is draining")
                    }
                };
                publish(inner, key, &call, reply.clone());
                reply
            }
        }
    }

    fn apply_delta(&self, graph_id: &str, delta: &freehgc_hetgraph::GraphDelta) -> Reply {
        let inner = &self.inner;
        if inner.shutting_down.load(Ordering::Relaxed) {
            inner
                .counters
                .shutdown_rejected
                .fetch_add(1, Ordering::Relaxed);
            return err(ErrorCode::ShuttingDown, "server is draining");
        }
        let Some(old) = inner.catalog.get(graph_id) else {
            return err(
                ErrorCode::UnknownGraph,
                format!("unknown graph id {graph_id:?}"),
            );
        };
        let old_fp = old.fingerprint();
        // A delta naming out-of-range rows/edge types, or carrying a
        // non-finite weight or feature value, panics inside the graph
        // kernels; surface that as a typed bad request, keeping the
        // catalog entry untouched.
        let applied = catch_unwind(AssertUnwindSafe(|| {
            let mut g = (*old).clone();
            g.apply_delta(delta);
            Arc::new(g)
        }));
        let new_graph = match applied {
            Ok(g) => g,
            Err(_) => return err(ErrorCode::BadRequest, "delta failed to apply"),
        };
        // Seed the mutated graph's context from the old one: survivors
        // carry over, only what the delta invalidated recomputes.
        let report = catch_unwind(AssertUnwindSafe(|| {
            let dir = inner.snapshot_dir.as_deref();
            let delta = Some((old_fp, delta));
            inner.registry.resolve(&new_graph, dir, delta).1
        }));
        let report = match report {
            Ok(r) => r,
            Err(_) => return err(ErrorCode::Internal, "delta context seeding panicked"),
        };
        if !inner.catalog.swap(graph_id, &old, Arc::clone(&new_graph)) {
            // Someone swapped the entry mid-apply; their delta won and
            // this one must be re-issued against the new base.
            return err(
                ErrorCode::BadRequest,
                "graph changed while applying delta; re-fetch and retry",
            );
        }
        inner
            .counters
            .deltas_applied
            .fetch_add(1, Ordering::Relaxed);
        let fp = new_graph.fingerprint();
        Reply::DeltaApplied {
            new_fingerprint: (fp.0, fp.1),
            reused_entries: report.reused() as u64,
            dropped_entries: report.dropped as u64,
        }
    }
}

/// Executes one condensation exactly as `Condenser::condense_shared`
/// would — same context resolution, same panic isolation, same
/// failpoints — plus serving's phase-boundary gates. `via_worker` adds
/// the `serve.worker.panic` failpoint (the drill's injected worker
/// death); the catch converts any escaped panic into a typed
/// [`ErrorCode::WorkerPanic`] reply, so the worker thread, the pool and
/// the registry all keep serving.
fn run_condense(
    inner: &ServerInner,
    graph: &Arc<HeteroGraph>,
    condenser: &(dyn Condenser + Send + Sync),
    spec: &CondenseSpec,
    deadline: Option<Instant>,
    cancel: &CancelToken,
    via_worker: bool,
) -> Reply {
    let outcome = catch_unwind(AssertUnwindSafe(
        || -> Result<CondensedSummary, Box<Reply>> {
            if via_worker {
                fp::fire_panic(fp::SERVE_WORKER_PANIC);
            }
            if let Some(reply) = gate(&inner.counters, deadline, cancel) {
                return Err(Box::new(reply));
            }
            let ctx = inner.registry.context_for(graph, spec);
            if let Some(reply) = gate(&inner.counters, deadline, cancel) {
                return Err(Box::new(reply));
            }
            let condensed = inner.registry.run_isolated(|| {
                fp::fire_panic(fp::CONDENSE_PANIC);
                condenser.condense_in(&ctx, spec)
            });
            Ok(CondensedSummary::from(&condensed))
        },
    ));
    match outcome {
        Ok(Ok(summary)) => {
            inner.counters.condense_ok.fetch_add(1, Ordering::Relaxed);
            Reply::Condensed(summary)
        }
        Ok(Err(reply)) => *reply,
        Err(_) => {
            inner.counters.worker_panics.fetch_add(1, Ordering::Relaxed);
            err(ErrorCode::WorkerPanic, "worker panicked executing request")
        }
    }
}

/// Typed early exit, counted, if the request's deadline passed or its
/// client is gone.
fn gate(counters: &Counters, deadline: Option<Instant>, cancel: &CancelToken) -> Option<Reply> {
    if cancel.is_cancelled() {
        counters.cancelled.fetch_add(1, Ordering::Relaxed);
        return Some(err(ErrorCode::Cancelled, "request cancelled"));
    }
    if deadline.is_some_and(|d| Instant::now() >= d) {
        counters.deadline_exceeded.fetch_add(1, Ordering::Relaxed);
        return Some(err(ErrorCode::DeadlineExceeded, "deadline exceeded"));
    }
    None
}

/// The memoized reply for `key`, counted as a fast-path hit.
fn memoized(inner: &ServerInner, key: &FlightKey) -> Option<Reply> {
    let reply = relock(&inner.replies).map.get(key).cloned()?;
    inner
        .counters
        .fast_path_hits
        .fetch_add(1, Ordering::Relaxed);
    Some(reply)
}

/// Waits on `call` one [`WAIT_SLICE`] at a time, polling the caller's
/// disconnect probe, cancel token and deadline between slices. `Ok` is
/// the caller's answer: the flight's reply, or the caller's own typed
/// bail-out while the flight runs on. `Err` is the leader's failure.
fn await_call(
    counters: &Counters,
    call: &ReplyCall,
    deadline: Option<Instant>,
    cancel: &CancelToken,
    opts: &CallOpts<'_>,
) -> Result<Reply, Box<Reply>> {
    loop {
        if let Some(outcome) = call.wait_timeout(WAIT_SLICE) {
            return outcome;
        }
        if opts.disconnect_probe.is_some_and(|probe| probe()) {
            // Client gone: flip the shared token so the pooled job
            // (which carries it) sheds the work at its next phase
            // boundary, handing any followers a fresh election.
            cancel.cancel();
        }
        if let Some(reply) = gate(counters, deadline, cancel) {
            return Ok(reply);
        }
    }
}

/// Finishes a flight with `reply`. A success is memoized *before* the
/// flight retires, so an identical request that misses the flight finds
/// the memo; an error reply finishes the flight as failed, which hands
/// followers a fresh election while the leader keeps the error.
fn publish(inner: &ServerInner, key: &FlightKey, call: &ReplyCall, reply: Reply) {
    if reply.error_code().is_some() {
        inner.flights.finish(key, call, Err(Box::new(reply)));
        return;
    }
    {
        let mut cache = relock(&inner.replies);
        if !cache.map.contains_key(key) {
            if cache.order.len() >= REPLY_CACHE_CAP {
                if let Some(evicted) = cache.order.pop_front() {
                    cache.map.remove(&evicted);
                }
            }
            cache.order.push_back(key.clone());
        }
        cache.map.insert(key.clone(), reply.clone());
    }
    inner.flights.finish(key, call, Ok(reply));
}
