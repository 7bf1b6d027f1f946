//! The request engine: worker pool, admission control, two-level cache.
//!
//! One [`Engine`] owns a [`Catalog`] of versioned databases (the paper's
//! workloads run many large queries over tiny databases, so databases are
//! server state and queries are the traffic — but unlike PR 2's single
//! frozen database, the catalog is mutable over the wire), a
//! [`ResultCache`], a [`PlanCache`], and a pool of worker threads
//! draining a bounded queue. The life of a request:
//!
//! 1. **Admission** — [`EngineHandle::execute`] fast-fails with
//!    [`ServiceError::Overloaded`] when the in-flight cap or the bounded
//!    queue is full. Nothing ever waits for queue space: under overload
//!    the server sheds load in O(1) rather than building an unbounded
//!    backlog.
//! 2. **Snapshot** — the worker resolves the request's database name
//!    against the catalog, pinning one `(Arc<Database>, DbVersion)`
//!    snapshot for the whole request; concurrent mutations publish new
//!    versions beside it and never tear an evaluation.
//! 3. **Parse + identity** — parse the Datalog-ish text, check every atom
//!    against the snapshot, compute the canonical
//!    [`ppr_query::QueryIdentity`] once for both caches.
//! 4. **Result cache** — a hit on `(db, version, fingerprint, method,
//!    seed)` returns the cached rows with **zero execution**; any catalog
//!    mutation bumped the version and so naturally invalidated every
//!    older entry.
//! 5. **Plan cache / plan** — on a result miss, a plan-cache hit returns
//!    the shared `Arc<Plan>`; a miss builds the plan and publishes it.
//!    The plan key carries the same `(db, version)` prefix, because plans
//!    embed `Arc<Relation>` scans of the snapshot they were built on.
//! 6. **Execute + publish** — the streaming executor
//!    ([`exec::execute_with`]) under the request budget clamped by the
//!    server maximum; a successful result is offered to the result cache
//!    (byte-budgeted, LRU).
//!
//! Shutdown is graceful: the queue closes, workers drain every admitted
//! request (each waiting client still gets its answer), then exit.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ppr_core::methods::{Method, OrderHeuristic};
use ppr_core::passes::plan_query;
use ppr_obs::{OpNode, PassSpan, Phase, ProfileMode, Quantiles, SlowEntry, TraceSpans, PHASES};
use ppr_query::{ConjunctiveQuery, Database, QueryIdentity};
use ppr_relalg::{exec, streaming_shape, Budget, ExecStats, Value};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::cache::{CacheKey, PlanCache};
use crate::catalog::{Catalog, DbSnapshot, DEFAULT_DB};
use crate::decomp::{self, DecompCache, DecompKey};
use crate::lru::LruStats;
use crate::metrics::ServiceMetrics;
use crate::queue::{BoundedQueue, PushError};
use crate::result_cache::{CachedResult, ResultCache};
use crate::ServiceError;

/// Completion callback for an asynchronously submitted request. Invoked
/// exactly once — with the response, or with the admission/refusal error.
pub type ReplyFn = Box<dyn FnOnce(Result<Response, ServiceError>) + Send + 'static>;

/// What an `explain` request wants back.
///
/// `#[non_exhaustive]`: future modes (e.g. verbose costing) extend the
/// enum without a breaking change.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[non_exhaustive]
pub enum ExplainMode {
    /// Not an explain request: execute normally.
    #[default]
    None,
    /// Run the optimizer pipeline and render the operator tree the
    /// streaming executor *would* run, without executing anything.
    Plan,
    /// Execute with per-operator profiling on and annotate the tree with
    /// measured rows, probes, and self times.
    Analyze,
}

/// The planner and executor detail an `explain` request carries back on
/// its [`Response`]. Boxed there so non-explain responses pay one
/// pointer.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ExplainData {
    /// True when the operators carry measured counters
    /// (`explain analyze`); false for the zero-counter planned tree.
    pub analyze: bool,
    /// Per-pass wall time and plan-delta spans from the optimizer run.
    /// Explain bypasses the plan cache, so these are always fresh.
    pub passes: Vec<PassSpan>,
    /// The operator tree, pre-order with depths. Counters are zero under
    /// `explain plan`, measured under `explain analyze`.
    pub ops: Vec<OpNode>,
}

/// One query request, embedded or decoded from the wire.
///
/// Build one with the fluent constructors —
/// `Request::query("q(x) :- edge(x, y)").method(m).on("graphs")` — or
/// start from [`Request::new`] and set fields. The struct is
/// `#[non_exhaustive]`: future protocol extensions add fields without a
/// breaking change, so downstream code uses the builders (or field
/// mutation), never struct literals.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub struct Request {
    /// Datalog-ish rule text, e.g. `q(x) :- e(x, y), e(y, x)`.
    pub query: String,
    /// Planning method.
    pub method: Method,
    /// Database to run against; `None` targets
    /// [`crate::catalog::DEFAULT_DB`] (or the connection's
    /// `use`-selected session database on the wire).
    pub db: Option<String>,
    /// Tuple-flow budget override (clamped by the server maximum).
    pub max_tuples: Option<u64>,
    /// Wall-clock budget override in milliseconds (clamped likewise).
    pub timeout_ms: Option<u64>,
    /// Planner tie-breaking seed; `None` uses the engine default so that
    /// repeated requests are deterministic.
    pub seed: Option<u64>,
    /// Explain mode. Anything but [`ExplainMode::None`] bypasses both
    /// caches (the report must describe a fresh planner run) and returns
    /// [`Response::explain`] data; `Analyze` additionally forces the
    /// serial streaming executor with per-operator profiling on.
    pub explain: ExplainMode,
}

impl Request {
    /// A request for `query` with `method` and no overrides.
    pub fn new(query: impl Into<String>, method: Method) -> Self {
        Request {
            query: query.into(),
            method,
            db: None,
            max_tuples: None,
            timeout_ms: None,
            seed: None,
            explain: ExplainMode::None,
        }
    }

    /// Starts a builder for `query` with the default method
    /// (bucket elimination under the MCS order — the paper's winner).
    pub fn query(query: impl Into<String>) -> Self {
        Request::new(query, Method::BucketElimination(OrderHeuristic::Mcs))
    }

    /// Selects the planning method.
    pub fn method(mut self, method: Method) -> Self {
        self.method = method;
        self
    }

    /// Targets a named catalog database instead of the default.
    pub fn on(mut self, db: impl Into<String>) -> Self {
        self.db = Some(db.into());
        self
    }

    /// Overrides the tuple-flow budget (clamped by the server maximum).
    pub fn max_tuples(mut self, max: u64) -> Self {
        self.max_tuples = Some(max);
        self
    }

    /// Overrides the wall-clock budget (clamped by the server maximum).
    /// Stored with millisecond granularity, matching the wire protocol.
    pub fn timeout(mut self, limit: Duration) -> Self {
        self.timeout_ms = Some(limit.as_millis() as u64);
        self
    }

    /// Pins the planner tie-breaking seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// Selects an explain mode (see [`Request::explain`]).
    pub fn explain(mut self, mode: ExplainMode) -> Self {
        self.explain = mode;
        self
    }
}

/// A successful evaluation.
///
/// `#[non_exhaustive]`: responses grow fields (as `result_cache_hit` did)
/// without breaking downstream constructors.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub struct Response {
    /// Output column names (the query's free variables, in order). On a
    /// result-cache hit these are the column names of the query that
    /// originally produced the rows (same positions under renaming).
    pub columns: Vec<String>,
    /// Result rows, byte-identical to library-level evaluation of the
    /// same query, method, and database snapshot — whether executed cold
    /// or served from the result cache.
    pub rows: Vec<Box<[Value]>>,
    /// Executor statistics. On a result-cache hit, the stats of the
    /// execution that originally produced the rows.
    pub stats: ExecStats,
    /// Whether the request skipped re-planning (plan-cache hit, or a
    /// result-cache hit, which never consults the planner at all).
    pub cache_hit: bool,
    /// Whether the rows came from the result cache (zero execution).
    pub result_cache_hit: bool,
    /// Time spent building the plan (0 on either kind of hit).
    pub plan_micros: u64,
    /// Per-phase span breakdown recorded by the worker
    /// (queue-wait → parse → fingerprint → cache-lookup → plan → exec).
    /// Zeroed on wire-decoded responses — `run` replies do not carry it;
    /// the `trace` verb does.
    pub trace: TraceSpans,
    /// Planner/operator detail, present exactly when the request carried
    /// an explain mode. `None` on every other path (including wire
    /// decodes of `run` replies — `explain` replies travel as an
    /// [`crate::protocol::ExplainReport`] instead).
    pub explain: Option<Box<ExplainData>>,
}

impl Response {
    /// An empty cold-execution response — the decoding seed for the wire
    /// layer and the only way to construct one outside this crate (the
    /// struct is `#[non_exhaustive]`).
    pub fn empty() -> Response {
        Response {
            columns: Vec::new(),
            rows: Vec::new(),
            stats: ExecStats::default(),
            cache_hit: false,
            result_cache_hit: false,
            plan_micros: 0,
            trace: TraceSpans::new(),
            explain: None,
        }
    }
}

/// Engine sizing and limits.
///
/// `#[non_exhaustive]`: start from [`EngineConfig::default`] and set
/// fields — struct literals would break on the next added knob.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct EngineConfig {
    /// Worker threads executing requests.
    pub workers: usize,
    /// Bounded-queue capacity (requests admitted but not yet picked up).
    pub queue_capacity: usize,
    /// Hard cap on requests queued + executing; 0 derives
    /// `workers + queue_capacity`.
    pub max_inflight: usize,
    /// Plan-cache entries.
    pub cache_capacity: usize,
    /// Result-cache byte budget; 0 disables result caching (every request
    /// executes, as in PR 2).
    pub result_cache_bytes: usize,
    /// Must be 1: execution is serial and the engine never reads this
    /// field. It exists only because the benchmark harness sets it, and
    /// goes with the next change to the benchmark.
    pub exec_threads: usize,
    /// Server-side budget ceiling; request overrides are clamped to it.
    pub max_budget: Budget,
    /// Planner seed used when a request does not carry one.
    pub default_seed: u64,
    /// Slow-query-log entries retained (worst-N by latency); 0 selects
    /// [`crate::metrics::DEFAULT_SLOWLOG_CAPACITY`].
    pub slowlog_capacity: usize,
    /// Run every execution with per-operator profiling on, feeding
    /// the `ppr_op_*` metrics and slow-log operator digests. Costs a few
    /// clock reads per row on the streaming executor's hot path, so it is
    /// off by default; `explain analyze` profiles its own request
    /// regardless.
    pub profile_ops: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            workers: 4,
            queue_capacity: 64,
            max_inflight: 0,
            cache_capacity: 256,
            result_cache_bytes: 8 << 20,
            exec_threads: 1,
            max_budget: Budget::tuples(u64::MAX).with_timeout(Duration::from_secs(60)),
            default_seed: 0,
            slowlog_capacity: 0,
            profile_ops: false,
        }
    }
}

struct Job {
    request: Request,
    /// Snapshot pinned at submission time (batch submission): the worker
    /// skips catalog resolution and every request of the batch evaluates
    /// against the same published version.
    pinned: Option<(String, DbSnapshot)>,
    /// When admission accepted the job — the worker's pickup time minus
    /// this is the queue-wait span.
    submitted: Instant,
    reply: ReplyFn,
}

struct Shared {
    catalog: Arc<Catalog>,
    cache: PlanCache,
    decomps: DecompCache,
    results: ResultCache,
    queue: BoundedQueue<Job>,
    accepting: AtomicBool,
    inflight: AtomicUsize,
    max_inflight: usize,
    served: AtomicU64,
    rejected: AtomicU64,
    max_budget: Budget,
    default_seed: u64,
    profile_ops: bool,
    obs: Arc<ServiceMetrics>,
}

/// Aggregate engine counters, reported by the `stats` wire command.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EngineStats {
    /// Requests answered (ok or error) by workers.
    pub served: u64,
    /// Requests refused by admission control.
    pub rejected: u64,
    /// Requests currently queued or executing.
    pub inflight: usize,
    /// Plan-cache counters.
    pub cache: LruStats,
    /// Result-cache counters.
    pub results: LruStats,
    /// Secondary-index lookups performed by the streaming executor
    /// across all served requests.
    pub index_probes: u64,
    /// Secondary indexes built (cache misses); stops growing once the
    /// serving snapshot's indexes are warm.
    pub index_builds: u64,
    /// Optimizer passes executed by the planning pipeline across all
    /// planned requests (plan- and result-cache hits run none).
    pub passes_run: u64,
    /// Bucket decompositions skipped because the structure-keyed
    /// [`DecompCache`] supplied the variable order as a pass hint.
    pub decomp_cache_hits: u64,
    /// Decomposition-cache counters.
    pub decomps: LruStats,
    /// Per-phase latency quantiles from the shared histograms.
    pub spans: SpanStats,
}

/// Latency quantiles per request phase, extracted from the engine's
/// shared histograms at [`EngineHandle::stats`] time. Quantile values
/// are upper bucket bounds (see `ppr_obs::HistSnapshot::quantile`), in
/// microseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SpanStats {
    /// One [`Quantiles`] per [`Phase`], indexed by `Phase as usize`.
    pub phase: [Quantiles; Phase::COUNT],
    /// End-to-end latency (admission to completion).
    pub total: Quantiles,
}

/// Cloneable submission handle; the [`Engine`] keeps thread ownership.
#[derive(Clone)]
pub struct EngineHandle {
    shared: Arc<Shared>,
}

impl EngineHandle {
    /// The largest per-connection pipeline window that admission control
    /// can never shed: a lone client with at most this many requests in
    /// flight always fits both the in-flight cap and the queue outright,
    /// so backpressure (not `Overloaded`) is what bounds it.
    pub fn safe_window(&self) -> usize {
        self.shared
            .queue
            .capacity()
            .min(self.shared.max_inflight)
            .max(1)
    }

    /// Submits `request` and blocks until its result. Fast-fails with
    /// [`ServiceError::Overloaded`] under saturation and
    /// [`ServiceError::ShuttingDown`] during drain.
    pub fn execute(&self, request: Request) -> Result<Response, ServiceError> {
        let (tx, rx) = mpsc::channel();
        self.submit(request, move |result| {
            let _ = tx.send(result);
        });
        rx.recv().unwrap_or(Err(ServiceError::ShuttingDown))
    }

    /// Submits `request` without waiting: `on_done` is invoked exactly
    /// once — from a worker thread with the response, or inline with the
    /// admission error ([`ServiceError::Overloaded`] /
    /// [`ServiceError::ShuttingDown`]). This is the pipelining primitive:
    /// a connection can keep many requests in flight and complete them
    /// out of order.
    pub fn submit<F>(&self, request: Request, on_done: F)
    where
        F: FnOnce(Result<Response, ServiceError>) + Send + 'static,
    {
        self.submit_job(Job {
            request,
            pinned: None,
            submitted: Instant::now(),
            reply: Box::new(on_done),
        });
    }

    /// Submits a whole batch against one database under **one** catalog
    /// lookup and **one** queue lock: the snapshot of `db` (the engine
    /// default when `None`) is resolved once and pinned into every
    /// request of the batch, so the batch evaluates against a single
    /// published version and submission does no per-request locking.
    /// Every callback is invoked exactly once, as in [`submit`].
    ///
    /// Requests carrying their own `db` field are still evaluated against
    /// `db` — callers group requests by effective database first.
    ///
    /// [`submit`]: EngineHandle::submit
    pub fn submit_batch(&self, db: Option<&str>, batch: Vec<(Request, ReplyFn)>) {
        if batch.is_empty() {
            return;
        }
        let s = &self.shared;
        if !s.accepting.load(Ordering::Acquire) {
            for (_, reply) in batch {
                reply(Err(ServiceError::ShuttingDown));
            }
            return;
        }
        let name = db.unwrap_or(DEFAULT_DB);
        let Some(snapshot) = s.catalog.snapshot(name) else {
            for (_, reply) in batch {
                reply(Err(ServiceError::UnknownDatabase(name.to_string())));
            }
            return;
        };
        // Reserve in-flight slots for the whole batch at once; the
        // suffix that does not fit under the cap is refused without ever
        // touching the queue.
        let want = batch.len();
        let prior = s.inflight.fetch_add(want, Ordering::AcqRel);
        let granted = s.max_inflight.saturating_sub(prior).min(want);
        if granted < want {
            s.inflight.fetch_sub(want - granted, Ordering::AcqRel);
        }
        let mut batch = batch;
        let refused: Vec<(Request, ReplyFn)> = batch.split_off(granted);
        let submitted = Instant::now();
        let jobs: Vec<Job> = batch
            .into_iter()
            .map(|(request, reply)| Job {
                request,
                pinned: Some((name.to_string(), snapshot.clone())),
                submitted,
                reply,
            })
            .collect();
        match s.queue.try_push_batch(jobs) {
            Ok(()) => {}
            Err(PushError::Full(tail)) => {
                for job in tail {
                    s.inflight.fetch_sub(1, Ordering::AcqRel);
                    s.rejected.fetch_add(1, Ordering::Relaxed);
                    (job.reply)(Err(ServiceError::Overloaded {
                        inflight: prior,
                        capacity: s.max_inflight,
                    }));
                }
            }
            Err(PushError::Closed(all)) => {
                for job in all {
                    s.inflight.fetch_sub(1, Ordering::AcqRel);
                    (job.reply)(Err(ServiceError::ShuttingDown));
                }
            }
        }
        for (_, reply) in refused {
            s.rejected.fetch_add(1, Ordering::Relaxed);
            reply(Err(ServiceError::Overloaded {
                inflight: prior,
                capacity: s.max_inflight,
            }));
        }
    }

    fn submit_job(&self, job: Job) {
        let s = &self.shared;
        if !s.accepting.load(Ordering::Acquire) {
            (job.reply)(Err(ServiceError::ShuttingDown));
            return;
        }
        // Reserve an in-flight slot before touching the queue so the cap
        // covers queued *and* executing requests.
        let prior = s.inflight.fetch_add(1, Ordering::AcqRel);
        if prior >= s.max_inflight {
            s.inflight.fetch_sub(1, Ordering::AcqRel);
            s.rejected.fetch_add(1, Ordering::Relaxed);
            (job.reply)(Err(ServiceError::Overloaded {
                inflight: prior,
                capacity: s.max_inflight,
            }));
            return;
        }
        match s.queue.try_push(job) {
            Ok(()) => {}
            Err(PushError::Full(job)) => {
                s.inflight.fetch_sub(1, Ordering::AcqRel);
                s.rejected.fetch_add(1, Ordering::Relaxed);
                (job.reply)(Err(ServiceError::Overloaded {
                    inflight: prior,
                    capacity: s.max_inflight,
                }));
            }
            Err(PushError::Closed(job)) => {
                s.inflight.fetch_sub(1, Ordering::AcqRel);
                (job.reply)(Err(ServiceError::ShuttingDown));
            }
        }
    }

    /// The engine's catalog — the mutation surface the wire verbs
    /// (`create` / `load` / `add` / `drop`) act on. Mutations are O(tiny
    /// database), so they run on the caller's thread, not the worker
    /// queue; admission control governs query execution only.
    pub fn catalog(&self) -> Arc<Catalog> {
        self.shared.catalog.clone()
    }

    /// Current counters.
    pub fn stats(&self) -> EngineStats {
        let obs = &self.shared.obs;
        EngineStats {
            served: self.shared.served.load(Ordering::Relaxed),
            rejected: self.shared.rejected.load(Ordering::Relaxed),
            inflight: self.shared.inflight.load(Ordering::Relaxed),
            cache: self.shared.cache.stats(),
            results: self.shared.results.stats(),
            index_probes: obs.index_probes.get(),
            index_builds: obs.index_builds.get(),
            passes_run: obs.passes_run.get(),
            decomp_cache_hits: obs.decomp_hits.get(),
            decomps: self.shared.decomps.stats(),
            spans: SpanStats {
                phase: std::array::from_fn(|i| obs.phase_us[i].snapshot().quantiles()),
                total: obs.total_us.snapshot().quantiles(),
            },
        }
    }

    /// The engine's observability surface: the metric registry the
    /// workers record into and the slow-query log. Shared — cloning the
    /// `Arc` observes the live engine, it does not copy counters.
    pub fn metrics(&self) -> Arc<ServiceMetrics> {
        self.shared.obs.clone()
    }

    /// Renders the full Prometheus text page: every registry metric plus
    /// the engine/cache counters and the queue-depth gauge sampled at
    /// scrape time (pull model — the hot path never mirrors them).
    pub fn render_prometheus(&self) -> String {
        let mut out = self.shared.obs.registry.render_prometheus();
        let mut push = |name: &str, kind: &str, help: &str, value: u64| {
            out.push_str(&format!(
                "# HELP {name} {help}\n# TYPE {name} {kind}\n{name} {value}\n"
            ));
        };
        let s = &self.shared;
        push(
            "ppr_served_total",
            "counter",
            "Requests answered (ok or error) by workers",
            s.served.load(Ordering::Relaxed),
        );
        push(
            "ppr_rejected_total",
            "counter",
            "Requests refused by admission control",
            s.rejected.load(Ordering::Relaxed),
        );
        push(
            "ppr_inflight",
            "gauge",
            "Requests currently queued or executing",
            s.inflight.load(Ordering::Relaxed) as u64,
        );
        push(
            "ppr_queue_depth",
            "gauge",
            "Requests admitted but not yet picked up by a worker",
            s.queue.len() as u64,
        );
        let cache = s.cache.stats();
        push(
            "ppr_plan_cache_hits_total",
            "counter",
            "Plan-cache hits",
            cache.hits,
        );
        push(
            "ppr_plan_cache_misses_total",
            "counter",
            "Plan-cache misses",
            cache.misses,
        );
        push(
            "ppr_plan_cache_evictions_total",
            "counter",
            "Plan-cache evictions",
            cache.evictions,
        );
        let results = s.results.stats();
        push(
            "ppr_result_cache_hits_total",
            "counter",
            "Result-cache hits",
            results.hits,
        );
        push(
            "ppr_result_cache_misses_total",
            "counter",
            "Result-cache misses",
            results.misses,
        );
        push(
            "ppr_result_cache_bytes",
            "gauge",
            "Bytes held by the result cache",
            results.weight as u64,
        );
        // Durable catalogs append the store's own exposition (WAL appends,
        // fsync latency, snapshot writes, recovery gauges).
        if let Some(p) = s.catalog.persister() {
            out.push_str(&p.render_prometheus());
        }
        out
    }
}

/// The worker pool plus its shared state. Create with [`Engine::start`],
/// submit through [`Engine::handle`], stop with [`Engine::shutdown`].
pub struct Engine {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl Engine {
    /// Spawns the worker pool over `catalog`. To serve one fixed database
    /// the way PR 2's `Engine::start(db, cfg)` did, pass
    /// [`Catalog::with_default`]`(db)`.
    pub fn start(catalog: Catalog, cfg: EngineConfig) -> Engine {
        let workers = cfg.workers.max(1);
        let max_inflight = if cfg.max_inflight == 0 {
            workers + cfg.queue_capacity
        } else {
            cfg.max_inflight
        };
        let shared = Arc::new(Shared {
            catalog: Arc::new(catalog),
            cache: PlanCache::new(cfg.cache_capacity.max(1)),
            decomps: DecompCache::new(cfg.cache_capacity.max(1)),
            results: ResultCache::new(cfg.result_cache_bytes),
            queue: BoundedQueue::new(cfg.queue_capacity.max(1)),
            accepting: AtomicBool::new(true),
            inflight: AtomicUsize::new(0),
            max_inflight,
            served: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            max_budget: cfg.max_budget,
            default_seed: cfg.default_seed,
            profile_ops: cfg.profile_ops,
            obs: ServiceMetrics::new(cfg.slowlog_capacity),
        });
        let handles = (0..workers)
            .map(|i| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("ppr-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn worker")
            })
            .collect();
        Engine {
            shared,
            workers: handles,
        }
    }

    /// A cloneable submission handle.
    pub fn handle(&self) -> EngineHandle {
        EngineHandle {
            shared: self.shared.clone(),
        }
    }

    /// Graceful drain-and-shutdown: stop admitting, answer everything
    /// already queued, join the workers.
    pub fn shutdown(self) {
        self.shared.accepting.store(false, Ordering::Release);
        self.shared.queue.close();
        for h in self.workers {
            let _ = h.join();
        }
    }
}

/// Jobs a worker drains per queue lock. Bounded so one worker cannot
/// hoard a burst while its siblings idle; small enough that a pipelined
/// batch still spreads across the pool.
const WORKER_BATCH: usize = 8;

fn worker_loop(shared: &Shared) {
    // Batch pop: under pipelined load the queue holds whole bursts, and
    // draining one per lock acquisition made the mutex+condvar round trip
    // a per-request cost. A lone queued job still pops immediately —
    // `pop_batch` never waits for a full batch.
    while let Some(jobs) = shared.queue.pop_batch(WORKER_BATCH) {
        for job in jobs {
            let mut spans = TraceSpans::new();
            spans.set(Phase::QueueWait, job.submitted.elapsed().as_micros() as u64);
            let mut slow_id = None;
            // Panic isolation: requests come off the wire, and a panic
            // escaping `process` would kill this worker *and* leak its
            // in-flight slot — enough such requests would empty the pool
            // and leave later admitted requests waiting forever.
            // Known-bad inputs are rejected with typed errors before they
            // can panic; this is the backstop for the unknown ones.
            // `process` writes spans through an out-parameter so a failed
            // (or panicked) request keeps the phases it did complete.
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                process(
                    shared,
                    &job.request,
                    job.pinned.as_ref(),
                    &mut spans,
                    &mut slow_id,
                )
            }))
            .unwrap_or_else(|payload| {
                let msg = panic_message(payload.as_ref());
                ppr_obs::ppr_error!("worker caught a panic processing a request: {msg}");
                Err(ServiceError::Internal(msg))
            })
            .map(|mut resp| {
                resp.trace = spans;
                resp
            });
            // Total latency is measured from admission, so the recorded
            // spans always sum to at most the recorded total.
            let total_us = job.submitted.elapsed().as_micros() as u64;
            record_completion(shared, &job.request, &result, spans, total_us, slow_id);
            shared.served.fetch_add(1, Ordering::Relaxed);
            shared.inflight.fetch_sub(1, Ordering::AcqRel);
            // The callback owns delivery; a vanished caller (client
            // disconnected mid-request) just makes it a no-op.
            (job.reply)(result);
        }
    }
}

/// The identity a slow-query-log entry aggregates by, known once the
/// worker has fingerprinted the request. Requests failing before that
/// point (unknown database, parse error, missing relation) are counted
/// in the error metrics but not logged — they have no identity.
struct SlowIdentity {
    db: String,
    version: u64,
    fingerprint: u128,
    /// Optimizer passes this request ran (0 on plan/result-cache hits).
    passes_run: u64,
    /// Whether the decomposition cache supplied the variable order.
    decomp_hit: bool,
}

/// Records one completed request into the metrics registry and, when its
/// identity is known, the slow-query log. Every completion records all
/// six phases — a zero means the phase did not run or was
/// sub-microsecond, which keeps phase counts comparable.
fn record_completion(
    shared: &Shared,
    request: &Request,
    result: &Result<Response, ServiceError>,
    spans: TraceSpans,
    total_us: u64,
    slow_id: Option<SlowIdentity>,
) {
    let obs = &shared.obs;
    obs.requests_total.inc();
    for p in PHASES {
        obs.phase_us[p as usize].record(spans.get(p));
    }
    obs.total_us.record(total_us);
    let (rows, digest, op_digest, outcome) = match result {
        Ok(resp) => {
            obs.result_rows.record(resp.rows.len() as u64);
            let (digest, op_digest) = if resp.result_cache_hit {
                // A result-cache hit executed nothing; recording the
                // original execution's flow (or its operator profile)
                // would double-count it.
                (ppr_relalg::ExecDigest::default(), String::new())
            } else {
                let op_digest = match resp.stats.op_profile.as_deref() {
                    Some(profile) => {
                        // Per-operator metrics ride on the same profile
                        // the slow-log digest compresses.
                        for node in profile.flatten() {
                            obs.op_rows[node.op as usize].add(node.rows_out);
                            obs.op_time_us[node.op as usize].record(node.time_us);
                        }
                        profile.digest()
                    }
                    None => String::new(),
                };
                (resp.stats.digest(), op_digest)
            };
            obs.tuples_flowed.record(digest.tuples_flowed);
            obs.rows_scanned.record(digest.rows_scanned);
            obs.index_probes.add(digest.index_probes);
            obs.index_builds.add(digest.index_builds);
            (resp.rows.len() as u64, digest, op_digest, "ok")
        }
        Err(e) => {
            obs.errors_total.inc();
            (
                0,
                ppr_relalg::ExecDigest::default(),
                String::new(),
                e.kind(),
            )
        }
    };
    if let Some(id) = slow_id {
        let seq = obs.slowlog.next_seq();
        obs.slowlog.record(SlowEntry {
            db: id.db,
            version: id.version,
            fingerprint: id.fingerprint,
            method: request.method.name().to_string(),
            outcome: outcome.to_string(),
            total_us,
            spans,
            rows,
            tuples_flowed: digest.tuples_flowed,
            peak_materialized: digest.peak_materialized,
            join_stages: digest.join_stages,
            threads_used: digest.threads_used,
            rows_scanned: digest.rows_scanned,
            passes_run: id.passes_run,
            decomp_hit: id.decomp_hit,
            op_digest,
            seq,
        });
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "worker panicked".to_string()
    }
}

/// Validates every atom against the snapshot database before planning, so
/// a bad request fails with a typed error instead of a worker panic.
fn check_relations(query: &ConjunctiveQuery, db: &Database) -> Result<(), ServiceError> {
    for atom in &query.atoms {
        match db.get(&atom.relation) {
            None => return Err(ServiceError::MissingRelation(atom.relation.clone())),
            Some(rel) if rel.arity() != atom.arity() => {
                return Err(ServiceError::MissingRelation(format!(
                    "{} has arity {}, query uses {}",
                    atom.relation,
                    rel.arity(),
                    atom.arity()
                )))
            }
            Some(_) => {}
        }
    }
    Ok(())
}

fn process(
    shared: &Shared,
    request: &Request,
    pinned: Option<&(String, DbSnapshot)>,
    spans: &mut TraceSpans,
    slow_id: &mut Option<SlowIdentity>,
) -> Result<Response, ServiceError> {
    // One snapshot for the whole request: concurrent catalog mutations
    // publish new versions beside it and never tear this evaluation.
    // Batch submission already pinned one; single submission resolves it
    // here.
    let (db_name, snapshot) = match pinned {
        Some((name, snap)) => (name.as_str(), snap.clone()),
        None => {
            let name = request.db.as_deref().unwrap_or(DEFAULT_DB);
            let snap = shared
                .catalog
                .snapshot(name)
                .ok_or_else(|| ServiceError::UnknownDatabase(name.to_string()))?;
            (name, snap)
        }
    };

    // Span writes go through the out-parameter *before* each `?` so a
    // failed request keeps the phases it did complete.
    let started = Instant::now();
    let parsed = ppr_query::parse_query(&request.query)
        .map_err(|e| ServiceError::Parse(e.0))
        .and_then(|q| check_relations(&q, &snapshot.db).map(|()| q));
    spans.set(Phase::Parse, started.elapsed().as_micros() as u64);
    let query = parsed?;

    // The effective seed is part of both cache keys: it breaks planner
    // ties, so a request carrying an explicit seed must not be answered
    // with a plan (or rows) built under a different one.
    let seed = request.seed.unwrap_or(shared.default_seed);
    let started = Instant::now();
    let identity = QueryIdentity::of(&query);
    spans.set(Phase::Fingerprint, started.elapsed().as_micros() as u64);
    *slow_id = Some(SlowIdentity {
        db: db_name.to_string(),
        version: snapshot.version.0,
        fingerprint: identity.fingerprint.0,
        passes_run: 0,
        decomp_hit: false,
    });

    // Explain requests bypass both caches — lookup *and* insert — so the
    // report always describes a fresh planner run and leaves no footprint
    // a later cached request would be answered from.
    let explaining = request.explain != ExplainMode::None;

    // Result cache first: a hit is rows with zero execution. The budget
    // is deliberately not part of the key — budgets bound execution work,
    // and a hit does none. The plan cache below shares the key.
    let key = CacheKey {
        data: snapshot.fingerprint,
        fingerprint: identity.fingerprint,
        method: request.method,
        seed,
    };
    let started = Instant::now();
    let cached = if explaining {
        None
    } else {
        shared.results.get(&key, &identity.shape)
    };
    let mut lookup_us = started.elapsed().as_micros() as u64;
    spans.set(Phase::CacheLookup, lookup_us);
    if let Some(cached) = cached {
        return Ok(Response {
            columns: cached.columns.clone(),
            rows: cached.rows.clone(),
            stats: cached.stats.clone(),
            cache_hit: true,
            result_cache_hit: true,
            plan_micros: 0,
            trace: TraceSpans::new(),
            explain: None,
        });
    }

    let started = Instant::now();
    let cached_plan = if explaining {
        None
    } else {
        shared.cache.get(&key, &identity.shape)
    };
    lookup_us += started.elapsed().as_micros() as u64;
    spans.set(Phase::CacheLookup, lookup_us);
    let (plan, cache_hit, plan_micros, pass_spans) = match cached_plan {
        Some(plan) => (plan, true, 0, Vec::new()),
        None => {
            let started = Instant::now();
            let mut rng = StdRng::seed_from_u64(seed);
            // Bucket elimination's expensive step is choosing the variable
            // order, which depends only on query *structure* — so unlike
            // the plan (which embeds snapshot scans), it is reusable
            // across catalog mutations. A cached order, rank-decoded into
            // this query's own ids, rides into the pass pipeline as a
            // hint; the `Decompose` pass consumes it instead of
            // re-decomposing (docs/PLANNING.md).
            let decomp_key = match request.method {
                Method::BucketElimination(heuristic) => Some(DecompKey {
                    fingerprint: identity.fingerprint,
                    heuristic,
                    seed,
                }),
                _ => None,
            };
            let canonical = decomp_key
                .is_some()
                .then(|| ppr_query::canonical_var_order(&query));
            let hint = match (&decomp_key, &canonical) {
                (Some(dkey), Some(canonical)) => shared
                    .decomps
                    .get(dkey, &identity.shape)
                    .and_then(|ranks| decomp::decode_order(&ranks, canonical)),
                _ => None,
            };
            let report = plan_query(request.method, &query, &snapshot.db, &mut rng, hint);
            shared.obs.passes_run.add(report.passes_run as u64);
            if let Some(id) = slow_id.as_mut() {
                id.passes_run = report.passes_run as u64;
                id.decomp_hit = report.used_hint;
            }
            if report.used_hint {
                shared.obs.decomp_hits.inc();
            } else if let (Some(dkey), Some(canonical), Some(order)) =
                (decomp_key, &canonical, &report.chosen_order)
            {
                if let Some(ranks) = decomp::encode_order(order, canonical) {
                    shared
                        .decomps
                        .insert(dkey, identity.shape.clone(), ranks, 1);
                }
            }
            let built = Arc::new(report.plan);
            let micros = started.elapsed().as_micros() as u64;
            // A racing worker may have published the same key first; the
            // cache keeps the existing plan so concurrent identical
            // requests all run one plan.
            let plan = if explaining {
                built
            } else {
                shared.cache.insert(key, identity.shape.clone(), built, 1)
            };
            (plan, false, micros, report.pass_spans)
        }
    };
    spans.set(Phase::Plan, plan_micros);

    if request.explain == ExplainMode::Plan {
        // Plan mode never executes: render the operator tree the streaming
        // executor *would* build, with every counter zero.
        let shape = streaming_shape(&plan);
        let columns: Vec<String> = query.free.iter().map(|&f| query.vars.name(f)).collect();
        return Ok(Response {
            columns,
            rows: Vec::new(),
            stats: ExecStats::default(),
            cache_hit,
            result_cache_hit: false,
            plan_micros,
            trace: TraceSpans::new(),
            explain: Some(Box::new(ExplainData {
                analyze: false,
                passes: pass_spans,
                ops: shape.flatten(),
            })),
        });
    }

    let mut budget = Budget::unlimited();
    if let Some(t) = request.max_tuples {
        budget.max_tuples_flowed = t;
        budget.max_materialized = t;
    }
    if let Some(ms) = request.timeout_ms {
        budget.timeout = Some(Duration::from_millis(ms));
    }
    let budget = budget.clamp(&shared.max_budget);

    let started = Instant::now();
    // The streaming executor (`ExecMode::Streaming`, the `exec::execute`
    // default): per-column indexes are built lazily and cached on the
    // pinned snapshot's `Arc`-shared relations, so every later request
    // against the same catalog version probes them for free —
    // copy-on-write catalog updates clone the relation and start cold,
    // which keeps sharing sound.
    let analyze = request.explain == ExplainMode::Analyze;
    let profile = if analyze || shared.profile_ops {
        ProfileMode::On
    } else {
        ProfileMode::Off
    };
    let executed = exec::execute_with(
        &plan,
        &budget,
        exec::ExecOptions {
            profile,
            ..Default::default()
        },
    );
    spans.set(Phase::Exec, started.elapsed().as_micros() as u64);
    let (rel, stats) = executed.map_err(ServiceError::Exec)?;

    let columns: Vec<String> = query.free.iter().map(|&f| query.vars.name(f)).collect();
    let rows = rel.tuples().to_vec();
    if !explaining {
        let result = Arc::new(CachedResult {
            columns: columns.clone(),
            rows: rows.clone(),
            stats: stats.clone(),
        });
        let bytes = result.approx_bytes();
        shared.results.insert(key, identity.shape, result, bytes);
    }
    let explain = analyze.then(|| {
        Box::new(ExplainData {
            analyze: true,
            passes: pass_spans,
            ops: stats
                .op_profile
                .as_deref()
                .map(|p| p.flatten())
                .unwrap_or_default(),
        })
    });
    Ok(Response {
        columns,
        rows,
        stats,
        cache_hit,
        result_cache_hit: false,
        plan_micros,
        trace: TraceSpans::new(),
        explain,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppr_relalg::RelalgError;

    fn three_color_catalog() -> Catalog {
        let mut db = Database::new();
        db.add(ppr_workload::edge_relation(3));
        Catalog::with_default(db)
    }

    fn small_cfg() -> EngineConfig {
        EngineConfig {
            workers: 2,
            queue_capacity: 8,
            ..Default::default()
        }
    }

    /// Plan-cache-focused tests disable the result cache so every request
    /// reaches the planner layer.
    fn plan_only_cfg() -> EngineConfig {
        let mut cfg = small_cfg();
        cfg.result_cache_bytes = 0;
        cfg
    }

    const PENTAGON: &str = "q() :- e(a,b), e(b,c), e(c,d), e(d,f), e(f,a)";

    fn pentagon_request(method: Method) -> Request {
        Request::new(PENTAGON.replace('e', "edge"), method)
    }

    #[test]
    fn answers_match_library_evaluation() {
        let engine = Engine::start(three_color_catalog(), small_cfg());
        let h = engine.handle();
        for method in Method::paper_lineup() {
            let resp = h.execute(pentagon_request(method)).unwrap();
            assert!(!resp.rows.is_empty(), "{method:?}: pentagon is 3-colorable");
        }
        engine.shutdown();
    }

    #[test]
    fn builder_composes_a_request() {
        let req = Request::query("q(x) :- edge(x, y)")
            .method(Method::EarlyProjection)
            .on("graphs")
            .max_tuples(1000)
            .timeout(Duration::from_millis(250))
            .seed(7);
        assert_eq!(req.method, Method::EarlyProjection);
        assert_eq!(req.db.as_deref(), Some("graphs"));
        assert_eq!(req.max_tuples, Some(1000));
        assert_eq!(req.timeout_ms, Some(250));
        assert_eq!(req.seed, Some(7));
        // The no-argument form targets the default database and the
        // paper's winning method.
        let plain = Request::query("q() :- edge(x, y)");
        assert_eq!(plain.db, None);
        assert_eq!(plain.method, Method::BucketElimination(OrderHeuristic::Mcs));
    }

    #[test]
    fn unknown_database_is_a_typed_error() {
        let engine = Engine::start(three_color_catalog(), small_cfg());
        let h = engine.handle();
        let out = h.execute(Request::query("q() :- edge(x, y)").on("nope"));
        assert!(
            matches!(out, Err(ServiceError::UnknownDatabase(_))),
            "{out:?}"
        );
        engine.shutdown();
    }

    #[test]
    fn repeated_query_hits_plan_cache_even_renamed() {
        let engine = Engine::start(three_color_catalog(), plan_only_cfg());
        let h = engine.handle();
        let m = Method::BucketElimination(ppr_core::methods::OrderHeuristic::Mcs);
        let first = h.execute(pentagon_request(m)).unwrap();
        assert!(!first.cache_hit);
        let second = h.execute(pentagon_request(m)).unwrap();
        assert!(second.cache_hit, "identical query must reuse the plan");
        // A renamed, atom-permuted variant of the same pentagon.
        let renamed = Request::new(
            "q() :- edge(v,w), edge(u,v), edge(z,u), edge(y,z), edge(w,y)",
            m,
        );
        let third = h.execute(renamed).unwrap();
        assert!(third.cache_hit, "isomorphic query must reuse the plan");
        assert_eq!(first.rows, third.rows);
        let stats = h.stats();
        assert_eq!(stats.cache.hits, 2);
        assert_eq!(stats.cache.misses, 1);
        engine.shutdown();
    }

    #[test]
    fn decomp_cache_survives_catalog_mutation() {
        let engine = Engine::start(three_color_catalog(), plan_only_cfg());
        let h = engine.handle();
        let m = Method::BucketElimination(OrderHeuristic::Mcs);
        let cold = h.execute(pentagon_request(m)).unwrap();
        assert!(!cold.cache_hit);
        let stats = h.stats();
        assert_eq!(stats.decomp_cache_hits, 0, "cold request decomposes");
        assert_eq!(stats.passes_run, 2, "bucket recipe = decompose + build");
        // A mutation bumps the content fingerprint: every cached plan is
        // stale (plans embed snapshot scans)…
        h.catalog()
            .add(DEFAULT_DB, "edge", vec![4, 5].into())
            .unwrap();
        // …but the variable order is pure query structure, so a renamed
        // isomorphic query re-plans without re-decomposing.
        let renamed = Request::new(
            "q() :- edge(v,w), edge(u,v), edge(z,u), edge(y,z), edge(w,y)",
            m,
        );
        let fresh = h.execute(renamed).unwrap();
        assert!(!fresh.cache_hit, "content change must re-plan");
        let stats = h.stats();
        assert!(
            stats.decomp_cache_hits > 0,
            "repeated structure must skip decomposition: {stats:?}"
        );
        assert_eq!(stats.passes_run, 4, "both requests ran the pipeline");
        assert_eq!(stats.decomps.hits, 1);
        assert_eq!(stats.decomps.misses, 1);
        engine.shutdown();
    }

    #[test]
    fn exact_repeat_with_decomp_hint_is_byte_identical() {
        // The plan a hinted pipeline builds for an *exact* repeat must be
        // byte-identical to the cold plan: the decode is the identity and
        // the Decompose pass consumes no randomness when hinted.
        let engine = Engine::start(three_color_catalog(), plan_only_cfg());
        let h = engine.handle();
        let req = || {
            Request::new(
                "q(a, b) :- edge(a,b), edge(b,c), edge(c,d), edge(d,f), edge(f,a)",
                Method::BucketElimination(OrderHeuristic::MinFill),
            )
        };
        let cold = h.execute(req()).unwrap();
        h.catalog()
            .add(DEFAULT_DB, "edge", vec![7, 8].into())
            .unwrap();
        h.catalog()
            .add(DEFAULT_DB, "edge", vec![8, 7].into())
            .unwrap();
        let warm = h.execute(req()).unwrap();
        assert!(!warm.cache_hit);
        assert!(h.stats().decomp_cache_hits > 0);
        // The added colors 7/8 pair only with each other, and an odd
        // cycle needs three colors, so the pentagon's answers are
        // unchanged — the hinted plan rebuilt the same bucket structure
        // over the new snapshot.
        assert!(!cold.rows.is_empty());
        assert_eq!(cold.rows, warm.rows);
        engine.shutdown();
    }

    #[test]
    fn repeated_query_hits_result_cache_even_renamed() {
        let engine = Engine::start(three_color_catalog(), small_cfg());
        let h = engine.handle();
        let m = Method::EarlyProjection;
        let first = h.execute(pentagon_request(m)).unwrap();
        assert!(!first.result_cache_hit);
        let second = h.execute(pentagon_request(m)).unwrap();
        assert!(second.result_cache_hit, "identical query must reuse rows");
        assert_eq!(second.rows, first.rows);
        assert_eq!(second.plan_micros, 0);
        // A renamed variant shares the fingerprint, so it reuses the rows
        // without executing either.
        let renamed = Request::new(
            "q() :- edge(v,w), edge(u,v), edge(z,u), edge(y,z), edge(w,y)",
            m,
        );
        let third = h.execute(renamed).unwrap();
        assert!(third.result_cache_hit);
        assert_eq!(third.rows, first.rows);
        let stats = h.stats();
        assert_eq!(stats.results.hits, 2);
        assert_eq!(stats.results.misses, 1);
        // The plan cache saw only the cold request.
        assert_eq!(stats.cache.misses, 1);
        assert_eq!(stats.cache.hits, 0);
        engine.shutdown();
    }

    #[test]
    fn mutation_invalidates_results_by_version() {
        let engine = Engine::start(three_color_catalog(), small_cfg());
        let h = engine.handle();
        let req = || Request::query("q(x, y) :- edge(x, y), edge(y, x)");
        let cold = h.execute(req()).unwrap();
        assert!(!cold.result_cache_hit);
        assert!(h.execute(req()).unwrap().result_cache_hit);

        // `edge` is the color-disequality relation; adding the pair
        // (4, 5)/(5, 4) legalizes a fourth color and changes the answer.
        h.catalog()
            .add(DEFAULT_DB, "edge", vec![4, 5].into())
            .unwrap();
        h.catalog()
            .add(DEFAULT_DB, "edge", vec![5, 4].into())
            .unwrap();
        let fresh = h.execute(req()).unwrap();
        assert!(!fresh.result_cache_hit, "version bump must invalidate");
        assert!(!fresh.cache_hit, "plans embed scans, so they re-plan too");
        assert!(fresh.rows.len() > cold.rows.len(), "new data must show up");
        assert!(h.execute(req()).unwrap().result_cache_hit, "then re-caches");
        engine.shutdown();
    }

    #[test]
    fn parse_and_missing_relation_errors_are_typed() {
        let engine = Engine::start(three_color_catalog(), small_cfg());
        let h = engine.handle();
        let bad = h.execute(Request::new("not a rule", Method::Straightforward));
        assert!(matches!(bad, Err(ServiceError::Parse(_))));
        let missing = h.execute(Request::new("q() :- nope(x, y)", Method::Straightforward));
        assert!(matches!(missing, Err(ServiceError::MissingRelation(_))));
        let arity = h.execute(Request::new(
            "q() :- edge(x, y, z)",
            Method::Straightforward,
        ));
        assert!(matches!(arity, Err(ServiceError::MissingRelation(_))));
        engine.shutdown();
    }

    #[test]
    fn repeated_head_variable_is_a_typed_error_and_workers_survive() {
        // `q(x, x) :- …` used to reach ConjunctiveQuery::new's "free
        // variables repeat" assert and kill a worker (leaking its
        // in-flight slot); it must be a Parse error, and the pool must
        // keep serving afterwards.
        let mut cfg = small_cfg();
        cfg.workers = 1;
        let engine = Engine::start(three_color_catalog(), cfg);
        let h = engine.handle();
        for _ in 0..3 {
            let bad = h.execute(Request::new(
                "q(x, x) :- edge(x, y)",
                Method::Straightforward,
            ));
            assert!(matches!(bad, Err(ServiceError::Parse(_))), "{bad:?}");
        }
        let ok = h.execute(pentagon_request(Method::Straightforward));
        assert!(ok.is_ok(), "the lone worker must still be alive: {ok:?}");
        assert_eq!(h.stats().inflight, 0, "no in-flight slots leaked");
        engine.shutdown();
    }

    #[test]
    fn explicit_seed_does_not_reuse_default_seed_plan() {
        let engine = Engine::start(three_color_catalog(), plan_only_cfg());
        let h = engine.handle();
        let m = Method::Reordering;
        let first = h.execute(pentagon_request(m)).unwrap();
        assert!(!first.cache_hit);
        // Same query under an explicit seed: the plan may legitimately
        // differ (the seed breaks planner ties), so it must re-plan, and
        // repeating that seed must then hit its own entry.
        let seeded = pentagon_request(m).seed(42);
        let second = h.execute(seeded.clone()).unwrap();
        assert!(!second.cache_hit, "different seed must not hit the cache");
        let third = h.execute(seeded).unwrap();
        assert!(third.cache_hit, "same seed must hit its own entry");
        engine.shutdown();
    }

    #[test]
    fn budget_override_is_enforced_and_clamped() {
        let mut cfg = small_cfg();
        cfg.max_budget = Budget::tuples(1_000_000);
        let engine = Engine::start(three_color_catalog(), cfg);
        let h = engine.handle();
        let req = pentagon_request(Method::Straightforward).max_tuples(3);
        let out = h.execute(req);
        assert!(
            matches!(
                out,
                Err(ServiceError::Exec(RelalgError::BudgetExceeded { .. }))
            ),
            "{out:?}"
        );
        engine.shutdown();
    }

    #[test]
    fn saturation_returns_overloaded() {
        // One worker, tiny queue, and a request that runs long enough to
        // pile up concurrent submissions.
        let cfg = EngineConfig {
            workers: 1,
            queue_capacity: 1,
            max_inflight: 2,
            ..Default::default()
        };
        let engine = Engine::start(three_color_catalog(), cfg);
        let h = engine.handle();
        let slow = || {
            // K7 with straightforward join order: plenty of tuple flow.
            let mut atoms = Vec::new();
            for i in 0..7 {
                for j in (i + 1)..7 {
                    atoms.push(format!("edge(v{i}, v{j})"));
                }
            }
            Request::new(
                format!("q() :- {}", atoms.join(", ")),
                Method::Straightforward,
            )
        };
        let mut handles = Vec::new();
        for _ in 0..8 {
            let h = h.clone();
            let req = slow();
            handles.push(std::thread::spawn(move || h.execute(req)));
        }
        let results: Vec<_> = handles.into_iter().map(|t| t.join().unwrap()).collect();
        let overloaded = results
            .iter()
            .filter(|r| matches!(r, Err(ServiceError::Overloaded { .. })))
            .count();
        assert!(
            overloaded > 0,
            "8 concurrent requests against inflight cap 2 must shed load"
        );
        let stats = h.stats();
        assert_eq!(stats.rejected as usize, overloaded);
        engine.shutdown();
    }

    #[test]
    fn submit_completes_out_of_band_and_batch_pins_one_snapshot() {
        let engine = Engine::start(three_color_catalog(), small_cfg());
        let h = engine.handle();

        // Async single submission: the callback fires with the answer.
        let (tx, rx) = mpsc::channel();
        h.submit(pentagon_request(Method::EarlyProjection), move |r| {
            let _ = tx.send(r);
        });
        let resp = rx.recv().unwrap().unwrap();
        assert!(!resp.rows.is_empty());

        // Batch submission: all requests resolve against the snapshot
        // pinned at submit time, so a mutation racing in *after* the
        // submit is invisible to the whole batch.
        let reqs = ["q(x, y) :- edge(x, y), edge(y, x)"; 4];
        let (tx, rx) = mpsc::channel();
        let batch: Vec<(Request, ReplyFn)> = reqs
            .iter()
            .map(|q| {
                let tx = tx.clone();
                let reply: ReplyFn = Box::new(move |r| {
                    let _ = tx.send(r);
                });
                (Request::query(*q), reply)
            })
            .collect();
        h.submit_batch(None, batch);
        // Mutate immediately; batched requests may still be queued, but
        // their pinned snapshot predates this version bump.
        h.catalog()
            .add(DEFAULT_DB, "edge", vec![7, 8].into())
            .unwrap();
        let rows: Vec<_> = (0..reqs.len())
            .map(|_| rx.recv().unwrap().unwrap().rows)
            .collect();
        for r in &rows {
            assert_eq!(r, &rows[0], "one snapshot per batch");
            assert_eq!(r.len(), 6, "pre-mutation K3 answer");
        }

        // Batch against an unknown database fails every callback.
        let (tx, rx) = mpsc::channel();
        let reply: ReplyFn = Box::new(move |r| {
            let _ = tx.send(r);
        });
        h.submit_batch(
            Some("nope"),
            vec![(Request::query("q() :- edge(x, y)"), reply)],
        );
        assert!(matches!(
            rx.recv().unwrap(),
            Err(ServiceError::UnknownDatabase(_))
        ));
        engine.shutdown();
    }

    #[test]
    fn batch_beyond_inflight_cap_refuses_the_tail_only() {
        let cfg = EngineConfig {
            workers: 1,
            queue_capacity: 2,
            max_inflight: 3,
            ..Default::default()
        };
        let engine = Engine::start(three_color_catalog(), cfg);
        let h = engine.handle();
        let (tx, rx) = mpsc::channel();
        let batch: Vec<(Request, ReplyFn)> = (0..6)
            .map(|_| {
                let tx = tx.clone();
                let reply: ReplyFn = Box::new(move |r| {
                    let _ = tx.send(r);
                });
                (pentagon_request(Method::EarlyProjection), reply)
            })
            .collect();
        h.submit_batch(None, batch);
        let results: Vec<_> = (0..6).map(|_| rx.recv().unwrap()).collect();
        let ok = results.iter().filter(|r| r.is_ok()).count();
        let overloaded = results
            .iter()
            .filter(|r| matches!(r, Err(ServiceError::Overloaded { .. })))
            .count();
        assert_eq!(ok + overloaded, 6);
        // 3 slots granted under the cap; of those, at least the 2 that
        // fit the queue outright are answered (the third also lands when
        // a worker drains in time). Everything past the cap is refused.
        assert!(ok >= 2, "admitted requests must be answered: {ok}");
        assert!(overloaded >= 3, "the tail over the cap must be refused");
        assert_eq!(h.stats().rejected as usize, overloaded);
        engine.shutdown();
        assert_eq!(h.stats().inflight, 0, "no slots leaked");
    }

    #[test]
    fn shutdown_drains_admitted_requests() {
        let engine = Engine::start(three_color_catalog(), small_cfg());
        let h = engine.handle();
        let resp = h
            .execute(pentagon_request(Method::EarlyProjection))
            .unwrap();
        assert!(!resp.rows.is_empty());
        engine.shutdown();
        assert!(matches!(
            h.execute(pentagon_request(Method::EarlyProjection)),
            Err(ServiceError::ShuttingDown)
        ));
    }

    /// A binary query on K3's edge relation: 6 rows, a real pipeline.
    fn mutual_edge_request() -> Request {
        Request::query("q(x, y) :- edge(x, y), edge(y, x)").method(Method::EarlyProjection)
    }

    #[test]
    fn explain_analyze_profiles_and_bypasses_both_caches() {
        let engine = Engine::start(three_color_catalog(), small_cfg());
        let h = engine.handle();
        // Warm the plan and result caches with a plain run …
        let warm = h.execute(mutual_edge_request()).unwrap();
        assert!(h.execute(mutual_edge_request()).unwrap().result_cache_hit);
        // … then explain analyze must plan and execute fresh anyway.
        let resp = h
            .execute(mutual_edge_request().explain(ExplainMode::Analyze))
            .unwrap();
        assert!(!resp.cache_hit, "explain bypasses the plan cache");
        assert!(!resp.result_cache_hit, "explain bypasses the result cache");
        assert_eq!(resp.rows, warm.rows, "analyze returns the real rows");
        let data = resp.explain.as_deref().expect("explain data");
        assert!(data.analyze);
        // EarlyProjection's pipeline is three passes, each with a span.
        let names: Vec<&str> = data.passes.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(
            names,
            ["listing-order", "build-join-chain", "projection-pushdown"]
        );
        // The measured tree's root is the sink: its output is the result.
        assert_eq!(data.ops[0].depth, 0);
        assert_eq!(data.ops[0].rows_out, resp.rows.len() as u64);
        assert!(
            data.ops.iter().any(|n| n.rows_out > 0),
            "measured counters populated: {:?}",
            data.ops
        );
        // The response's stats carry the same profile for the slow log.
        assert!(resp.stats.op_profile.is_some());
        engine.shutdown();
    }

    #[test]
    fn explain_plan_renders_the_shape_without_executing() {
        let engine = Engine::start(three_color_catalog(), small_cfg());
        let h = engine.handle();
        let plan = h
            .execute(mutual_edge_request().explain(ExplainMode::Plan))
            .unwrap();
        assert!(plan.rows.is_empty(), "plan mode never executes");
        assert_eq!(plan.columns, ["x", "y"], "but the header is real");
        let plan_data = plan.explain.as_deref().expect("explain data");
        assert!(!plan_data.analyze);
        assert!(!plan_data.passes.is_empty());
        assert!(plan_data
            .ops
            .iter()
            .all(|n| n.rows_in == 0 && n.rows_out == 0 && n.probes == 0 && n.time_us == 0));
        // The planned shape is the measured tree, node for node.
        let analyzed = h
            .execute(mutual_edge_request().explain(ExplainMode::Analyze))
            .unwrap();
        let measured = &analyzed.explain.as_deref().unwrap().ops;
        let planned_shape: Vec<_> = plan_data
            .ops
            .iter()
            .map(|n| (n.depth, n.op, n.target.clone()))
            .collect();
        let measured_shape: Vec<_> = measured
            .iter()
            .map(|n| (n.depth, n.op, n.target.clone()))
            .collect();
        assert_eq!(planned_shape, measured_shape);
        engine.shutdown();
    }

    #[test]
    fn profile_ops_config_populates_stats_on_plain_runs() {
        let mut cfg = small_cfg();
        cfg.profile_ops = true;
        cfg.result_cache_bytes = 0;
        let engine = Engine::start(three_color_catalog(), cfg);
        let h = engine.handle();
        let resp = h.execute(mutual_edge_request()).unwrap();
        assert!(resp.explain.is_none(), "a plain run has no explain data");
        let profile = resp.stats.op_profile.as_deref().expect("profile");
        assert_eq!(profile.flatten()[0].rows_out, resp.rows.len() as u64);
        engine.shutdown();
    }
}
