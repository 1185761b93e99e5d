//! A persistent job server: one long-lived worker pool serving a *stream*
//! of scheduler runs.
//!
//! [`Scheduler::run`](crate::Scheduler::run) spawns and joins a whole
//! thread pool per root task, which caps the reproduction at one benchmark
//! at a time. [`JobServer`] amortises that: the pool is spawned once,
//! workers park when idle, and submissions flow through a bounded MPMC
//! priority queue (see [`crate::submit`] for the model-checked protocol).
//!
//! # Job lifecycle
//!
//! ```text
//! submit() ──► Queued ──claim──► Running ──finish──► Completed
//!                │                  │                      │
//!              cancel()          cancel()             (exactly one
//!                ▼                  ▼                  terminal state)
//!            Cancelled      token raised; engine
//!         (never executed)  prunes at poll points ──► Cancelled
//! ```
//!
//! The state machine lives in [`crate::submit::JobLifecycle`]; its
//! no-lost-submission / no-double-claim / single-terminal-state properties
//! are verified exhaustively by the `adaptivetc-check` suite.
//!
//! # Isolation and work sharing
//!
//! Each job owns a complete engine [`Shared`] region: its own root frame,
//! deques, `need_task` signals and per-slot `RunStats`. The "job id tag" on
//! deque entries and signals is therefore structural — an entry physically
//! cannot migrate across jobs because no other job's workers ever probe
//! these deques. By default a job runs entirely on the pool worker that
//! claimed it (lead at job slot 0), so N concurrent single-thread jobs
//! behave bit-identically to N solo runs. With
//! [`ServerConfig::work_sharing`] enabled, idle pool workers additionally
//! *join* running multi-slot jobs: they claim a free job slot, steal within
//! that job only, and abandon it again between tasks when new submissions
//! are queued. Every participant brackets its engine entry with
//! `JobBegin`/`JobEnd` trace markers so a server trace can be split back
//! into per-job run-epochs (`adaptivetc_trace::jobs`).

use crate::engine::{participate, DequeEntry, FfEntry, ProblemRef, Shared};
use crate::frame::FramePtr;
use crate::submit::{CancelOutcome, CancelToken, JobLifecycle, JobStatus, PrioQueue, Priority};
use crate::sync::{AtomicBool, AtomicU32, AtomicU64, Condvar, Mutex, Ordering};
use crate::trace::{worker_tracer, TracerRef};
use crate::Mode;
use adaptivetc_core::{
    Config, ConfigError, DequeBackend, Problem, RunReport, RunStats, XorShift64,
};
use adaptivetc_deque::{ChaseLevDeque, FenceFreeDeque, PoolDeque, TheDeque, WsDeque};
use std::any::Any;
use std::sync::Arc;
use std::time::{Duration, Instant};

#[cfg(feature = "trace")]
use adaptivetc_trace::EventKind as Ev;

/// The pool-wide trace collector, shared by every worker thread. Collapses
/// to `()` when tracing is compiled out.
#[cfg(feature = "trace")]
type SharedCollector = Option<Arc<adaptivetc_trace::TraceCollector>>;
#[cfg(not(feature = "trace"))]
type SharedCollector = ();

/// Borrow a [`TracerRef`] out of a worker's collector clone.
#[cfg(feature = "trace")]
fn tracer_ref(c: &SharedCollector) -> TracerRef<'_> {
    c.as_deref()
}
#[cfg(not(feature = "trace"))]
fn tracer_ref(_c: &SharedCollector) -> TracerRef<'_> {}

/// Emit a job-epoch marker from pool worker `$worker`. Expands to nothing
/// when the `trace` feature is off (the tokens are removed before name
/// resolution, like `tev!`).
macro_rules! jmark {
    ($tracer:expr, $worker:expr, $kind:expr) => {
        #[cfg(feature = "trace")]
        {
            if let Some(c) = $tracer {
                c.handle($worker).emit($kind);
            }
        }
    };
}

// ---------------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------------

/// Configuration for a [`JobServer`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Pool worker threads. Clamped to at least 1.
    pub workers: usize,
    /// Submission-queue capacity *per priority lane* (admission control:
    /// a full lane rejects with [`RejectReason::QueueFull`]). Clamped to
    /// at least 1.
    pub queue_capacity: usize,
    /// Allow idle pool workers to join running multi-slot jobs and steal
    /// within them. Off by default: strict job isolation.
    pub work_sharing: bool,
    /// Record a pool-wide event trace (requires the `trace` cargo
    /// feature; ignored without it). Drained by [`JobServer::shutdown`].
    pub trace: bool,
    /// Per-worker trace ring capacity when `trace` is set.
    pub trace_capacity: usize,
    /// Category bitmask for the pool trace (see
    /// `adaptivetc_trace::Category`); the job-bracket category is always
    /// kept on so traces stay splittable per job.
    pub trace_filter: u64,
    /// Record 1 in `n` events for the highest-frequency categories
    /// (default 16, the production flight-recorder rate; `1` = record
    /// everything; see `Config::trace_sample`).
    pub trace_sample: u32,
}

impl ServerConfig {
    /// A server with `workers` pool threads and defaults for the rest
    /// (queue capacity 64 per lane, no work sharing, no tracing).
    pub fn new(workers: usize) -> ServerConfig {
        ServerConfig {
            workers,
            queue_capacity: 64,
            work_sharing: false,
            trace: false,
            trace_capacity: 1 << 14,
            trace_filter: u64::MAX,
            trace_sample: 16,
        }
    }

    /// Builder-style setter for [`ServerConfig::queue_capacity`].
    pub fn queue_capacity(mut self, cap: usize) -> ServerConfig {
        self.queue_capacity = cap;
        self
    }

    /// Builder-style setter for [`ServerConfig::work_sharing`].
    pub fn work_sharing(mut self, on: bool) -> ServerConfig {
        self.work_sharing = on;
        self
    }

    /// Builder-style setter for [`ServerConfig::trace`].
    pub fn trace(mut self, on: bool) -> ServerConfig {
        self.trace = on;
        self
    }

    /// Builder-style setter for [`ServerConfig::trace_filter`].
    pub fn trace_filter(mut self, mask: u64) -> ServerConfig {
        self.trace_filter = mask;
        self
    }

    /// Builder-style setter for [`ServerConfig::trace_sample`].
    pub fn trace_sample(mut self, n: u32) -> ServerConfig {
        self.trace_sample = n;
        self
    }
}

// ---------------------------------------------------------------------------
// Submission results
// ---------------------------------------------------------------------------

/// Why a submission was rejected (the problem is handed back in
/// [`SubmitError`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RejectReason {
    /// The priority lane was full (admission control back-pressure).
    /// Retry later or shed load.
    QueueFull,
    /// The server is shutting down and no longer accepts jobs.
    ShuttingDown,
    /// The job's [`Config`] failed validation.
    Config(ConfigError),
}

impl std::fmt::Display for RejectReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RejectReason::QueueFull => f.write_str("submission queue full"),
            RejectReason::ShuttingDown => f.write_str("server shutting down"),
            RejectReason::Config(e) => write!(f, "invalid job config: {e}"),
        }
    }
}

/// A rejected submission: the reason plus the problem, returned so the
/// caller can retry without having cloned it.
pub struct SubmitError<P> {
    /// The problem instance, given back unchanged.
    pub problem: P,
    /// Why it was rejected.
    pub reason: RejectReason,
}

impl<P> std::fmt::Debug for SubmitError<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SubmitError")
            .field("reason", &self.reason)
            .finish_non_exhaustive()
    }
}

impl<P> std::fmt::Display for SubmitError<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job rejected: {}", self.reason)
    }
}

impl<P> std::error::Error for SubmitError<P> {}

// ---------------------------------------------------------------------------
// Job handle
// ---------------------------------------------------------------------------

/// How a job ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobOutcome<O> {
    /// The job ran to completion.
    Completed {
        /// The reduced result.
        out: O,
        /// Per-slot statistics, isolated to this job.
        report: RunReport,
    },
    /// The job was cancelled. `report` is `None` when the cancel landed
    /// before any worker claimed the job (it never executed), `Some` when
    /// the engine was pruned mid-flight (partial counters).
    Cancelled {
        /// Statistics up to the prune, if the job had started.
        report: Option<RunReport>,
    },
}

/// The client half of a submitted job.
struct JobShared<O> {
    id: u64,
    lifecycle: JobLifecycle,
    cancel: CancelToken,
    outcome: Mutex<Option<JobOutcome<O>>>,
    cv: Condvar,
    submitted: Instant,
    /// Submission-to-terminal latency, stored at publication (so `wait`
    /// order does not skew bench percentiles).
    latency_ns: AtomicU64,
}

impl<O: Send> JobShared<O> {
    fn new(id: u64) -> Arc<JobShared<O>> {
        Arc::new(JobShared {
            id,
            lifecycle: JobLifecycle::new(),
            cancel: CancelToken::new(),
            outcome: Mutex::new(None),
            cv: Condvar::new(),
            submitted: Instant::now(),
            latency_ns: AtomicU64::new(0),
        })
    }

    fn publish(&self, outcome: JobOutcome<O>) {
        self.latency_ns.store(
            self.submitted.elapsed().as_nanos() as u64,
            Ordering::Relaxed,
        );
        let mut g = self.outcome.lock();
        debug_assert!(g.is_none(), "job outcome published twice");
        *g = Some(outcome);
        self.cv.notify_all();
    }
}

/// A typed handle to a submitted job.
///
/// Dropping the handle detaches the job: it still runs (or is cancelled at
/// shutdown drain) but its outcome is discarded.
pub struct JobHandle<O> {
    shared: Arc<JobShared<O>>,
}

impl<O> std::fmt::Debug for JobHandle<O> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobHandle")
            .field("id", &self.shared.id)
            .field("status", &self.shared.lifecycle.status())
            .finish()
    }
}

impl<O: Send> JobHandle<O> {
    /// The server-assigned job id (also the trace epoch tag).
    pub fn id(&self) -> u64 {
        self.shared.id
    }

    /// The job's current lifecycle state.
    pub fn status(&self) -> JobStatus {
        self.shared.lifecycle.status()
    }

    /// Request cancellation. Queued jobs are cancelled before ever
    /// running; running jobs are pruned cooperatively at the engine's
    /// poll points (the same points that service the copy-on-steal
    /// deposit handshake, so cancellation never wedges a thief).
    pub fn cancel(&self) -> CancelOutcome {
        self.shared.lifecycle.cancel(&self.shared.cancel)
    }

    /// Block until the job reaches its terminal state.
    pub fn wait(self) -> JobOutcome<O> {
        let mut g = self.shared.outcome.lock();
        while g.is_none() {
            self.shared.cv.wait(&mut g);
        }
        g.take().expect("guarded by loop")
    }

    /// Non-blocking poll: the outcome if terminal, otherwise the handle
    /// back.
    pub fn try_result(self) -> Result<JobOutcome<O>, JobHandle<O>> {
        {
            let mut g = self.shared.outcome.lock();
            if g.is_some() {
                return Ok(g.take().expect("checked"));
            }
        }
        Err(self)
    }

    /// Submission-to-terminal latency, `None` until the job is terminal.
    pub fn latency(&self) -> Option<Duration> {
        if self.shared.outcome.lock().is_some() {
            Some(Duration::from_nanos(
                self.shared.latency_ns.load(Ordering::Relaxed),
            ))
        } else {
            None
        }
    }
}

// ---------------------------------------------------------------------------
// Queued / active job erasure
// ---------------------------------------------------------------------------

/// A type-erased queued job: `lead` claims and runs it to a terminal
/// state on the calling pool worker.
trait QueuedJob: Send + 'static {
    fn lead(self: Box<Self>, ctx: &Arc<ServerCtx>, worker: usize, tracer: TracerRef<'_>);
    /// Recover the concrete `Pending<P>` on queue-full rejection.
    fn into_any(self: Box<Self>) -> Box<dyn Any + Send>;
}

/// A type-erased running job an idle worker can join (work sharing).
trait ActiveJob: Send + Sync {
    fn id(&self) -> u64;
    fn done(&self) -> bool;
    /// Claim a free slot and steal within the job until it completes or
    /// the abandon condition fires. Returns whether any participation
    /// happened.
    fn try_join(&self, ctx: &ServerCtx, worker: usize, tracer: TracerRef<'_>) -> bool;
}

/// A submission waiting in the queue.
struct Pending<P: Problem> {
    problem: P,
    cfg: Config,
    mode: Mode,
    shared: Arc<JobShared<P::Out>>,
}

impl<P: Problem + 'static> QueuedJob for Pending<P> {
    fn lead(self: Box<Self>, ctx: &Arc<ServerCtx>, worker: usize, tracer: TracerRef<'_>) {
        let Pending {
            problem,
            cfg,
            mode,
            shared,
        } = *self;
        if !shared.lifecycle.claim() {
            // Cancelled while queued: never executes.
            shared.publish(JobOutcome::Cancelled { report: None });
            ctx.jobs_cancelled.fetch_add(1, Ordering::Relaxed);
            return;
        }
        match cfg.backend {
            DequeBackend::The => run_job::<P, FramePtr<P>, TheDeque<FramePtr<P>>>(
                problem, cfg, mode, shared, ctx, worker, tracer,
            ),
            DequeBackend::ChaseLev => run_job::<P, FramePtr<P>, ChaseLevDeque<FramePtr<P>>>(
                problem, cfg, mode, shared, ctx, worker, tracer,
            ),
            DequeBackend::Pool => run_job::<P, FramePtr<P>, PoolDeque<FramePtr<P>>>(
                problem, cfg, mode, shared, ctx, worker, tracer,
            ),
            DequeBackend::FenceFree => run_job::<P, FfEntry<P>, FenceFreeDeque<FfEntry<P>>>(
                problem, cfg, mode, shared, ctx, worker, tracer,
            ),
        }
    }

    fn into_any(self: Box<Self>) -> Box<dyn Any + Send> {
        self
    }
}

/// One job's engine region plus the slot bookkeeping work sharing needs.
struct JobCtx<P: Problem + 'static, E: DequeEntry<P>, D: WsDeque<E>> {
    id: u64,
    eng: Shared<'static, P, D>,
    /// Slot claim flags; slot 0 is pre-taken by the lead.
    taken: Vec<AtomicBool>,
    /// Live participants (lead + joiners). The lead drains this to zero
    /// before collecting per-slot stats.
    participants: AtomicU32,
    /// Per-slot stats, merged by whoever occupied the slot.
    stats: Vec<Mutex<RunStats>>,
    /// Per-slot deterministic RNG streams (identical to a solo run's).
    seeds: Vec<XorShift64>,
    _entry: std::marker::PhantomData<fn() -> E>,
}

impl<P, E, D> ActiveJob for JobCtx<P, E, D>
where
    P: Problem + 'static,
    E: DequeEntry<P> + 'static,
    D: WsDeque<E> + 'static,
{
    fn id(&self) -> u64 {
        self.id
    }

    fn done(&self) -> bool {
        self.eng.root.is_done()
    }

    fn try_join(&self, ctx: &ServerCtx, worker: usize, tracer: TracerRef<'_>) -> bool {
        if self.done() {
            return false;
        }
        // Claim a free joiner slot (slot 0 is the lead's).
        let Some(slot) = (1..self.taken.len()).find(|&i| {
            self.taken[i]
                .compare_exchange(false, true, Ordering::AcqRel, Ordering::Relaxed)
                .is_ok()
        }) else {
            return false;
        };
        self.participants.fetch_add(1, Ordering::AcqRel);
        // Recheck after announcing ourselves: the lead may have observed
        // participants == 0 and started collecting stats. `done` is
        // monotone, so if it is still false here the lead is guaranteed
        // to wait for our decrement.
        if self.done() {
            self.taken[slot].store(false, Ordering::Release);
            self.participants.fetch_sub(1, Ordering::Release);
            return false;
        }
        jmark!(
            tracer,
            worker,
            Ev::JobBegin {
                job: self.id as u32,
                slot: slot as u16,
            }
        );
        #[cfg_attr(not(feature = "trace"), allow(clippy::let_unit_value))]
        let tr = worker_tracer(tracer, worker);
        let abandon = || ctx.shutdown.load(Ordering::Acquire) || !ctx.queue.is_empty();
        let stats = participate::<P, E, D>(
            &self.eng,
            slot,
            self.seeds[slot].clone(),
            tr,
            false,
            Some(&abandon),
        );
        jmark!(
            tracer,
            worker,
            Ev::JobEnd {
                job: self.id as u32
            }
        );
        self.stats[slot].lock().merge(&stats);
        self.taken[slot].store(false, Ordering::Release);
        self.participants.fetch_sub(1, Ordering::Release);
        true
    }
}

/// Lead a claimed job to its terminal state on the calling worker.
#[allow(clippy::needless_pass_by_value)]
fn run_job<P, E, D>(
    problem: P,
    cfg: Config,
    mode: Mode,
    shared: Arc<JobShared<P::Out>>,
    ctx: &Arc<ServerCtx>,
    worker: usize,
    tracer: TracerRef<'_>,
) where
    P: Problem + 'static,
    E: DequeEntry<P> + 'static,
    D: WsDeque<E> + 'static,
{
    // A job never gets more slots than the pool has workers; the cut-off
    // still derives from cfg.threads (see Shared::new), so clamping only
    // bounds parallelism, never changes the task-creation frontier.
    let slots = cfg.threads.min(ctx.workers).max(1);
    let t0 = Instant::now();
    let job = Arc::new(JobCtx::<P, E, D> {
        id: shared.id,
        eng: Shared::new::<E>(
            ProblemRef::Owned(Arc::new(problem)),
            &cfg,
            mode,
            slots,
            Some(shared.cancel.clone()),
        ),
        taken: (0..slots).map(|i| AtomicBool::new(i == 0)).collect(),
        participants: AtomicU32::new(1),
        stats: (0..slots)
            .map(|_| Mutex::new(RunStats::default()))
            .collect(),
        seeds: Shared::<P, D>::seeds(&cfg, slots),
        _entry: std::marker::PhantomData,
    });
    let registered = ctx.work_sharing && slots > 1;
    if registered {
        ctx.active.lock().push(job.clone());
        ctx.wake_all();
    }
    jmark!(
        tracer,
        worker,
        Ev::JobBegin {
            job: job.id as u32,
            slot: 0,
        }
    );
    #[cfg_attr(not(feature = "trace"), allow(clippy::let_unit_value))]
    let tr = worker_tracer(tracer, worker);
    let lead_stats = participate::<P, E, D>(&job.eng, 0, job.seeds[0].clone(), tr, true, None);
    jmark!(tracer, worker, Ev::JobEnd { job: job.id as u32 });
    job.stats[0].lock().merge(&lead_stats);
    if registered {
        let id = job.id;
        ctx.active.lock().retain(|j| j.id() != id);
    }
    // Wait for every joiner to finish merging its slot stats. They exit
    // promptly: the root is done, so their steal loops terminate.
    job.participants.fetch_sub(1, Ordering::Release);
    while job.participants.load(Ordering::Acquire) != 0 {
        std::thread::yield_now();
    }
    let per_slot: Vec<RunStats> = job.stats.iter().map(|m| m.lock().clone()).collect();
    let report = RunReport::from_workers(per_slot, t0.elapsed().as_nanos() as u64);
    let out = job.eng.root.wait();
    let cancelled = shared.cancel.get();
    shared.lifecycle.finish(cancelled);
    // Count before publishing: `publish` releases the waiter, and callers
    // reasonably expect `stats()` to reflect a job whose `wait()` returned.
    if cancelled {
        drop(out);
        ctx.jobs_cancelled.fetch_add(1, Ordering::Relaxed);
        shared.publish(JobOutcome::Cancelled {
            report: Some(report),
        });
    } else {
        ctx.jobs_completed.fetch_add(1, Ordering::Relaxed);
        shared.publish(JobOutcome::Completed { out, report });
    }
}

// ---------------------------------------------------------------------------
// The server
// ---------------------------------------------------------------------------

/// Shared server state, one `Arc` per worker thread plus the front end.
struct ServerCtx {
    queue: PrioQueue<Box<dyn QueuedJob>>,
    /// Running multi-slot jobs joinable under work sharing.
    active: Mutex<Vec<Arc<dyn ActiveJob>>>,
    park: Mutex<()>,
    wake: Condvar,
    shutdown: AtomicBool,
    accepting: AtomicBool,
    next_job: AtomicU64,
    jobs_submitted: AtomicU64,
    jobs_completed: AtomicU64,
    jobs_cancelled: AtomicU64,
    jobs_rejected: AtomicU64,
    workers: usize,
    work_sharing: bool,
}

impl ServerCtx {
    fn wake_all(&self) {
        let _g = self.park.lock();
        self.wake.notify_all();
    }
}

/// A point-in-time snapshot of server health (admission control state).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerStats {
    /// Jobs accepted by `submit`.
    pub submitted: u64,
    /// Jobs that reached `Completed`.
    pub completed: u64,
    /// Jobs that reached `Cancelled` (before or during execution).
    pub cancelled: u64,
    /// Submissions rejected by admission control (`QueueFull` only;
    /// config and shutdown rejections are the caller's bug, not load).
    pub rejected: u64,
    /// Submissions currently waiting in the queue (advisory, summed over
    /// priority lanes).
    pub queue_depth: usize,
    /// Multi-slot jobs currently registered for work sharing.
    pub active_jobs: usize,
    /// Pool worker threads.
    pub workers: usize,
}

/// The server's final report, returned by [`JobServer::shutdown`].
pub struct ServerReport {
    /// Counter snapshot at shutdown (queue necessarily drained to 0).
    pub stats: ServerStats,
    /// The pool-wide event trace, when [`ServerConfig::trace`] was set.
    /// Split it per job with `adaptivetc_trace::Trace::split_jobs`.
    #[cfg(feature = "trace")]
    pub trace: Option<adaptivetc_trace::Trace>,
}

/// A long-lived worker pool serving a stream of scheduler jobs. See the
/// [module docs](crate::server) for the lifecycle and isolation model.
pub struct JobServer {
    ctx: Arc<ServerCtx>,
    threads: Vec<std::thread::JoinHandle<()>>,
    #[cfg_attr(not(feature = "trace"), allow(dead_code))]
    collector: SharedCollector,
}

impl JobServer {
    /// Spawn the worker pool (once; workers park between jobs).
    pub fn new(cfg: ServerConfig) -> JobServer {
        let workers = cfg.workers.max(1);
        let ctx = Arc::new(ServerCtx {
            queue: PrioQueue::with_capacity(cfg.queue_capacity.max(1)),
            active: Mutex::new(Vec::new()),
            park: Mutex::new(()),
            wake: Condvar::new(),
            shutdown: AtomicBool::new(false),
            accepting: AtomicBool::new(true),
            next_job: AtomicU64::new(1),
            jobs_submitted: AtomicU64::new(0),
            jobs_completed: AtomicU64::new(0),
            jobs_cancelled: AtomicU64::new(0),
            jobs_rejected: AtomicU64::new(0),
            workers,
            work_sharing: cfg.work_sharing,
        });
        #[cfg(feature = "trace")]
        let collector: SharedCollector = cfg.trace.then(|| {
            Arc::new(adaptivetc_trace::TraceCollector::with_options(
                workers,
                cfg.trace_capacity,
                cfg.trace_filter,
                cfg.trace_sample,
            ))
        });
        #[cfg(not(feature = "trace"))]
        let collector: SharedCollector = ();
        let threads = (0..workers)
            .map(|id| {
                let ctx = Arc::clone(&ctx);
                #[cfg(feature = "trace")]
                let collector = collector.clone();
                #[cfg(not(feature = "trace"))]
                let collector = ();
                std::thread::Builder::new()
                    .name(format!("jobserver-{id}"))
                    .spawn(move || worker_loop(&ctx, id, &collector))
                    .expect("spawn job-server worker")
            })
            .collect();
        JobServer {
            ctx,
            threads,
            collector,
        }
    }

    /// Submit `problem` to run under `mode` with the per-job `cfg`
    /// (backend, threads, seed, cut-off — everything a solo run accepts).
    ///
    /// `cfg.threads` asks for that many job slots, clamped to the pool
    /// size; slots beyond the lead are only filled when
    /// [`ServerConfig::work_sharing`] is on.
    ///
    /// # Errors
    ///
    /// Rejects (returning the problem) when the priority lane is full,
    /// the server is shutting down, or `cfg` is invalid.
    pub fn submit<P>(
        &self,
        problem: P,
        cfg: Config,
        mode: Mode,
        priority: Priority,
    ) -> Result<JobHandle<P::Out>, SubmitError<P>>
    where
        P: Problem + 'static,
    {
        if let Err(e) = cfg.validate() {
            return Err(SubmitError {
                problem,
                reason: RejectReason::Config(e),
            });
        }
        if !self.ctx.accepting.load(Ordering::Acquire) {
            return Err(SubmitError {
                problem,
                reason: RejectReason::ShuttingDown,
            });
        }
        let id = self.ctx.next_job.fetch_add(1, Ordering::Relaxed);
        let shared = JobShared::<P::Out>::new(id);
        let pending = Box::new(Pending {
            problem,
            cfg,
            mode,
            shared: Arc::clone(&shared),
        });
        match self
            .ctx
            .queue
            .try_push(priority, pending as Box<dyn QueuedJob>)
        {
            Ok(()) => {
                self.ctx.jobs_submitted.fetch_add(1, Ordering::Relaxed);
                self.ctx.wake_all();
                Ok(JobHandle { shared })
            }
            Err(rejected) => {
                self.ctx.jobs_rejected.fetch_add(1, Ordering::Relaxed);
                let pending = rejected
                    .into_any()
                    .downcast::<Pending<P>>()
                    .expect("a lane rejects the value it was offered");
                Err(SubmitError {
                    problem: pending.problem,
                    reason: RejectReason::QueueFull,
                })
            }
        }
    }

    /// A point-in-time health snapshot.
    pub fn stats(&self) -> ServerStats {
        ServerStats {
            submitted: self.ctx.jobs_submitted.load(Ordering::Relaxed),
            completed: self.ctx.jobs_completed.load(Ordering::Relaxed),
            cancelled: self.ctx.jobs_cancelled.load(Ordering::Relaxed),
            rejected: self.ctx.jobs_rejected.load(Ordering::Relaxed),
            queue_depth: self.ctx.queue.len(),
            active_jobs: self.ctx.active.lock().len(),
            workers: self.ctx.workers,
        }
    }

    /// Drain every event the pool's workers have *published* so far into
    /// a point-in-time [`Trace`](adaptivetc_trace::Trace) snapshot,
    /// without stopping (or even pausing) the pool. Wait-free for the
    /// workers; concurrent drains are serialised inside the collector,
    /// and events handed out here never reappear in a later drain or in
    /// the final [`shutdown`](JobServer::shutdown) trace. Returns `None`
    /// when the server was built without [`ServerConfig::trace`].
    ///
    /// Use [`published_len`](JobServer::published_len) to size
    /// expectations: a drain returns at least the events a worker had
    /// published before the call began (minus at most one in-flight
    /// block near ring overflow).
    #[cfg(feature = "trace")]
    pub fn drain_trace(&self) -> Option<adaptivetc_trace::Trace> {
        self.collector.as_deref().map(|c| c.drain_published())
    }

    /// Events `worker` has published and not yet drained — a lower bound
    /// (up to one in-flight block) on what the next
    /// [`drain_trace`](JobServer::drain_trace) returns for that ring.
    /// `None` without tracing or for an out-of-range worker id.
    #[cfg(feature = "trace")]
    pub fn published_len(&self, worker: usize) -> Option<usize> {
        let c = self.collector.as_deref()?;
        (worker < self.ctx.workers).then(|| c.published_len(worker))
    }

    /// Stop accepting submissions, run every already-queued job to its
    /// terminal state, join the pool, and return the final report (with
    /// the drained trace when tracing was on).
    pub fn shutdown(mut self) -> ServerReport {
        self.shutdown_inner()
    }

    fn shutdown_inner(&mut self) -> ServerReport {
        self.ctx.accepting.store(false, Ordering::Release);
        self.ctx.shutdown.store(true, Ordering::Release);
        self.ctx.wake_all();
        for t in std::mem::take(&mut self.threads) {
            let _ = t.join();
        }
        // Workers exit on (shutdown && queue empty); the Vyukov queue's
        // empty verdict is conservative, so a submission racing shutdown
        // can still be parked here. Every accepted job must reach a
        // terminal state, so drain inline on this thread (the pool is
        // joined — worker id 0's trace ring has a single producer again).
        #[cfg(feature = "trace")]
        let tracer: TracerRef<'_> = self.collector.as_deref();
        #[cfg(not(feature = "trace"))]
        let tracer: TracerRef<'_> = ();
        while let Some((_prio, job)) = self.ctx.queue.try_pop() {
            job.lead(&self.ctx, 0, tracer);
        }
        let stats = ServerStats {
            submitted: self.ctx.jobs_submitted.load(Ordering::Relaxed),
            completed: self.ctx.jobs_completed.load(Ordering::Relaxed),
            cancelled: self.ctx.jobs_cancelled.load(Ordering::Relaxed),
            rejected: self.ctx.jobs_rejected.load(Ordering::Relaxed),
            queue_depth: self.ctx.queue.len(),
            active_jobs: self.ctx.active.lock().len(),
            workers: self.ctx.workers,
        };
        ServerReport {
            stats,
            #[cfg(feature = "trace")]
            trace: self
                .collector
                .take()
                .and_then(|c| Arc::try_unwrap(c).ok())
                .map(|c| c.finish()),
        }
    }
}

impl Drop for JobServer {
    /// A dropped server still drains and joins (outcomes of queued jobs
    /// are published to any waiting handles; the trace is discarded).
    fn drop(&mut self) {
        if !self.threads.is_empty() {
            let _ = self.shutdown_inner();
        }
    }
}

/// One pool worker: lead queued jobs; otherwise join active jobs (work
/// sharing); otherwise park.
fn worker_loop(ctx: &Arc<ServerCtx>, id: usize, collector: &SharedCollector) {
    loop {
        let tracer = tracer_ref(collector);
        if let Some((_prio, job)) = ctx.queue.try_pop() {
            job.lead(ctx, id, tracer);
            continue;
        }
        if ctx.work_sharing {
            let snapshot: Vec<Arc<dyn ActiveJob>> = ctx.active.lock().clone();
            if snapshot.iter().any(|j| j.try_join(ctx, id, tracer)) {
                continue;
            }
        }
        if ctx.shutdown.load(Ordering::Acquire) {
            break;
        }
        let mut g = ctx.park.lock();
        // Re-check under the park lock to close the submit/park race, then
        // sleep with a timeout as a backstop for the conservative queue
        // verdicts.
        if ctx.queue.is_empty() && !ctx.shutdown.load(Ordering::Acquire) {
            let _ = ctx.wake.wait_for(&mut g, Duration::from_millis(1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaptivetc_core::Expansion;

    /// Ternary tree of height `h`; counts leaves.
    struct Tern {
        h: u32,
    }
    impl Problem for Tern {
        type State = u32;
        type Choice = u8;
        type Out = u64;
        fn root(&self) -> u32 {
            0
        }
        fn expand(&self, _: &u32, d: u32) -> Expansion<u8, u64> {
            if d == self.h {
                Expansion::Leaf(1)
            } else {
                Expansion::Children(vec![0, 1, 2])
            }
        }
        fn apply(&self, s: &mut u32, _: u8) {
            *s += 1;
        }
        fn undo(&self, s: &mut u32, _: u8) {
            *s -= 1;
        }
    }

    /// As `Tern`, but the first leaf reached raises `started` and blocks
    /// until `gate` opens — a deterministic way to keep a pool worker
    /// busy while the test arranges queue states around it.
    struct GatedTern {
        h: u32,
        started: Arc<AtomicBool>,
        gate: Arc<AtomicBool>,
    }
    impl Problem for GatedTern {
        type State = u32;
        type Choice = u8;
        type Out = u64;
        fn root(&self) -> u32 {
            0
        }
        fn expand(&self, _: &u32, d: u32) -> Expansion<u8, u64> {
            if d == self.h {
                if !self.started.swap(true, Ordering::AcqRel) {
                    while !self.gate.load(Ordering::Acquire) {
                        std::thread::yield_now();
                    }
                }
                Expansion::Leaf(1)
            } else {
                Expansion::Children(vec![0, 1, 2])
            }
        }
        fn apply(&self, s: &mut u32, _: u8) {
            *s += 1;
        }
        fn undo(&self, s: &mut u32, _: u8) {
            *s -= 1;
        }
    }

    fn wait_started(flag: &AtomicBool) {
        while !flag.load(Ordering::Acquire) {
            std::thread::yield_now();
        }
    }

    /// Submit a gated job to occupy the (single) pool worker; returns the
    /// handle plus the gate to open when done.
    fn occupy_worker(server: &JobServer) -> (JobHandle<u64>, Arc<AtomicBool>) {
        let started = Arc::new(AtomicBool::new(false));
        let gate = Arc::new(AtomicBool::new(false));
        let h = server
            .submit(
                GatedTern {
                    h: 2,
                    started: Arc::clone(&started),
                    gate: Arc::clone(&gate),
                },
                Config::new(1),
                Mode::Adaptive,
                Priority::Normal,
            )
            .expect("submit gate job");
        wait_started(&started);
        (h, gate)
    }

    #[test]
    fn single_job_completes_with_correct_result() {
        let server = JobServer::new(ServerConfig::new(2));
        let h = server
            .submit(
                Tern { h: 6 },
                Config::new(1),
                Mode::Adaptive,
                Priority::Normal,
            )
            .expect("submit");
        let id = h.id();
        match h.wait() {
            JobOutcome::Completed { out, report } => {
                assert_eq!(out, 3u64.pow(6));
                assert_eq!(report.per_worker.len(), 1);
                assert!(report.stats.tasks_created >= 1);
            }
            JobOutcome::Cancelled { .. } => panic!("job {id} spuriously cancelled"),
        }
        let report = server.shutdown();
        assert_eq!(report.stats.submitted, 1);
        assert_eq!(report.stats.completed, 1);
        assert_eq!(report.stats.queue_depth, 0);
    }

    #[test]
    fn pool_survives_a_stream_of_jobs() {
        let server = JobServer::new(ServerConfig::new(2));
        let handles: Vec<_> = (0..10)
            .map(|i| {
                server
                    .submit(
                        Tern { h: 3 + (i % 3) },
                        Config::new(1),
                        Mode::Adaptive,
                        Priority::Normal,
                    )
                    .expect("submit")
            })
            .collect();
        for (i, h) in handles.into_iter().enumerate() {
            match h.wait() {
                JobOutcome::Completed { out, .. } => {
                    assert_eq!(out, 3u64.pow(3 + (i as u32 % 3)));
                }
                JobOutcome::Cancelled { .. } => panic!("job {i} spuriously cancelled"),
            }
        }
        assert_eq!(server.stats().completed, 10);
    }

    #[test]
    fn cancel_while_queued_never_runs() {
        let server = JobServer::new(ServerConfig::new(1));
        let (gate_job, gate) = occupy_worker(&server);
        let victim = server
            .submit(
                Tern { h: 6 },
                Config::new(1),
                Mode::Adaptive,
                Priority::Normal,
            )
            .expect("submit victim");
        assert_eq!(victim.status(), JobStatus::Queued);
        assert_eq!(victim.cancel(), CancelOutcome::CancelledBeforeRun);
        assert_eq!(victim.status(), JobStatus::Cancelled);
        gate.store(true, Ordering::Release);
        assert!(matches!(gate_job.wait(), JobOutcome::Completed { .. }));
        match victim.wait() {
            JobOutcome::Cancelled { report } => assert!(report.is_none(), "never executed"),
            JobOutcome::Completed { .. } => panic!("cancelled job ran"),
        }
        assert_eq!(server.shutdown().stats.cancelled, 1);
    }

    #[test]
    fn cancel_mid_flight_prunes_and_reports_partial_stats() {
        let server = JobServer::new(ServerConfig::new(1));
        let started = Arc::new(AtomicBool::new(false));
        let gate = Arc::new(AtomicBool::new(false));
        let h = 9; // 9841 nodes if run to completion
        let job = server
            .submit(
                GatedTern {
                    h,
                    started: Arc::clone(&started),
                    gate: Arc::clone(&gate),
                },
                Config::new(1),
                Mode::Adaptive,
                Priority::Normal,
            )
            .expect("submit");
        wait_started(&started);
        assert_eq!(job.status(), JobStatus::Running);
        assert_eq!(job.cancel(), CancelOutcome::Requested);
        gate.store(true, Ordering::Release);
        match job.wait() {
            JobOutcome::Cancelled { report } => {
                let report = report.expect("job had started");
                let total_nodes = (3u64.pow(h + 1) - 1) / 2;
                assert!(
                    report.stats.nodes < total_nodes,
                    "prune should skip most of the tree: {} vs {total_nodes}",
                    report.stats.nodes
                );
            }
            JobOutcome::Completed { .. } => panic!("cancel lost"),
        }
        assert_eq!(server.shutdown().stats.cancelled, 1);
    }

    #[test]
    fn cancel_after_completion_is_already_terminal() {
        let server = JobServer::new(ServerConfig::new(1));
        let h = server
            .submit(
                Tern { h: 4 },
                Config::new(1),
                Mode::Adaptive,
                Priority::Normal,
            )
            .expect("submit");
        // Wait for terminality through the handle's non-consuming probe.
        while h.latency().is_none() {
            std::thread::yield_now();
        }
        assert_eq!(h.cancel(), CancelOutcome::AlreadyTerminal);
        assert!(matches!(h.wait(), JobOutcome::Completed { .. }));
        server.shutdown();
    }

    /// Records its tag at root expansion, exposing execution order.
    struct LogTern {
        tag: u8,
        log: Arc<Mutex<Vec<u8>>>,
    }
    impl Problem for LogTern {
        type State = u32;
        type Choice = u8;
        type Out = u64;
        fn root(&self) -> u32 {
            0
        }
        fn expand(&self, _: &u32, d: u32) -> Expansion<u8, u64> {
            if d == 0 {
                self.log.lock().push(self.tag);
            }
            if d == 2 {
                Expansion::Leaf(1)
            } else {
                Expansion::Children(vec![0, 1, 2])
            }
        }
        fn apply(&self, s: &mut u32, _: u8) {
            *s += 1;
        }
        fn undo(&self, s: &mut u32, _: u8) {
            *s -= 1;
        }
    }

    #[test]
    fn high_priority_overtakes_queued_normal_and_low() {
        let server = JobServer::new(ServerConfig::new(1));
        let (gate_job, gate) = occupy_worker(&server);
        let log = Arc::new(Mutex::new(Vec::new()));
        let order = |tag| LogTern {
            tag,
            log: Arc::clone(&log),
        };
        let low = server
            .submit(order(1), Config::new(1), Mode::Adaptive, Priority::Low)
            .expect("submit low");
        let normal = server
            .submit(order(2), Config::new(1), Mode::Adaptive, Priority::Normal)
            .expect("submit normal");
        let high = server
            .submit(order(3), Config::new(1), Mode::Adaptive, Priority::High)
            .expect("submit high");
        gate.store(true, Ordering::Release);
        assert!(matches!(gate_job.wait(), JobOutcome::Completed { .. }));
        for h in [high, normal, low] {
            assert!(matches!(h.wait(), JobOutcome::Completed { .. }));
        }
        // All three were queued while the single worker was pinned, so it
        // must drain lanes strictly by priority.
        assert_eq!(*log.lock(), vec![3, 2, 1]);
        server.shutdown();
    }

    #[test]
    fn full_lane_rejects_and_returns_the_problem() {
        let server = JobServer::new(ServerConfig::new(1).queue_capacity(2));
        let (gate_job, gate) = occupy_worker(&server);
        let mut queued = Vec::new();
        let mut rejected_problem = None;
        // The worker is pinned; pushes beyond the lane capacity must fail.
        for i in 0..4u32 {
            match server.submit(
                Tern { h: 2 + i },
                Config::new(1),
                Mode::Adaptive,
                Priority::Normal,
            ) {
                Ok(h) => queued.push(h),
                Err(e) => {
                    assert!(matches!(e.reason, RejectReason::QueueFull));
                    rejected_problem = Some(e.problem);
                    break;
                }
            }
        }
        let rejected = rejected_problem.expect("a push beyond capacity was rejected");
        // The problem comes back intact for a retry.
        assert!(rejected.h >= 2);
        assert!(server.stats().rejected >= 1);
        gate.store(true, Ordering::Release);
        assert!(matches!(gate_job.wait(), JobOutcome::Completed { .. }));
        for h in queued {
            assert!(matches!(h.wait(), JobOutcome::Completed { .. }));
        }
        server.shutdown();
    }

    #[test]
    fn invalid_job_config_is_rejected_up_front() {
        let server = JobServer::new(ServerConfig::new(1));
        let err = server
            .submit(
                Tern { h: 3 },
                Config::new(0),
                Mode::Adaptive,
                Priority::Normal,
            )
            .expect_err("zero threads is invalid");
        assert!(matches!(err.reason, RejectReason::Config(_)));
        assert_eq!(server.stats().submitted, 0);
        server.shutdown();
    }

    #[test]
    fn shutdown_drains_queued_jobs_to_terminal_states() {
        let server = JobServer::new(ServerConfig::new(1));
        let (gate_job, gate) = occupy_worker(&server);
        let queued: Vec<_> = (0..3)
            .map(|_| {
                server
                    .submit(
                        Tern { h: 3 },
                        Config::new(1),
                        Mode::Adaptive,
                        Priority::Normal,
                    )
                    .expect("submit")
            })
            .collect();
        gate.store(true, Ordering::Release);
        assert!(matches!(gate_job.wait(), JobOutcome::Completed { .. }));
        let report = server.shutdown();
        assert_eq!(report.stats.queue_depth, 0);
        for h in queued {
            // Drained either by the worker before it joined or inline by
            // shutdown; both must produce a terminal outcome.
            match h.try_result() {
                Ok(JobOutcome::Completed { out, .. }) => assert_eq!(out, 3u64.pow(3)),
                other => panic!("queued job not completed at shutdown: {other:?}"),
            }
        }
    }

    #[test]
    fn work_sharing_job_uses_multiple_slots() {
        let server = JobServer::new(ServerConfig::new(2).work_sharing(true));
        let h = server
            .submit(
                Tern { h: 10 },
                Config::new(2),
                Mode::Adaptive,
                Priority::Normal,
            )
            .expect("submit");
        match h.wait() {
            JobOutcome::Completed { out, report } => {
                assert_eq!(out, 3u64.pow(10));
                assert_eq!(report.per_worker.len(), 2, "two job slots");
            }
            JobOutcome::Cancelled { .. } => panic!("spuriously cancelled"),
        }
        server.shutdown();
    }

    #[test]
    fn dropped_server_still_drains() {
        let started = Arc::new(AtomicBool::new(false));
        let gate = Arc::new(AtomicBool::new(true)); // gate open: plain run
        let handle = {
            let server = JobServer::new(ServerConfig::new(1));
            let h = server
                .submit(
                    GatedTern {
                        h: 3,
                        started: Arc::clone(&started),
                        gate,
                    },
                    Config::new(1),
                    Mode::Adaptive,
                    Priority::Normal,
                )
                .expect("submit");
            drop(server); // Drop runs shutdown_inner
            h
        };
        match handle.try_result() {
            Ok(JobOutcome::Completed { out, .. }) => assert_eq!(out, 3u64.pow(3)),
            other => panic!("job not terminal after server drop: {other:?}"),
        }
    }

    #[test]
    fn job_ids_are_unique_and_reported() {
        let server = JobServer::new(ServerConfig::new(2));
        let a = server
            .submit(
                Tern { h: 2 },
                Config::new(1),
                Mode::Adaptive,
                Priority::Normal,
            )
            .expect("submit");
        let b = server
            .submit(
                Tern { h: 2 },
                Config::new(1),
                Mode::Adaptive,
                Priority::Normal,
            )
            .expect("submit");
        assert_ne!(a.id(), b.id());
        a.wait();
        b.wait();
        server.shutdown();
    }

    /// Drain the trace from a live server — pool running, its only worker
    /// blocked mid-job — and check the snapshot against `published_len`,
    /// then that the mid-run drain and the shutdown trace partition the
    /// job markers with no loss and no duplication.
    #[cfg(feature = "trace")]
    #[test]
    fn drain_trace_mid_run_without_stopping_the_pool() {
        use adaptivetc_trace::EventKind;

        let count_ends = |t: &adaptivetc_trace::Trace| {
            t.workers
                .iter()
                .flat_map(|w| &w.events)
                .filter(|e| matches!(e.kind, EventKind::JobEnd { .. }))
                .count()
        };

        let server = JobServer::new(ServerConfig::new(1).trace(true));
        // Three completed jobs, big enough that whole event blocks are
        // published (only full blocks are visible mid-run).
        for _ in 0..3 {
            let h = server
                .submit(
                    Tern { h: 8 },
                    Config::new(1),
                    Mode::Adaptive,
                    Priority::Normal,
                )
                .expect("submit");
            assert!(matches!(h.wait(), JobOutcome::Completed { .. }));
        }
        // A gated job pins the pool's only worker mid-run: the server is
        // demonstrably live (not quiesced) while we read.
        let (gated, gate) = occupy_worker(&server);

        let announced = server.published_len(0).expect("tracing is on");
        assert!(
            announced > 0,
            "three completed jobs must have published whole blocks"
        );
        let snap = server.drain_trace().expect("tracing is on");
        assert!(
            snap.len() >= announced,
            "drain returned {} events, {announced} were announced published",
            snap.len()
        );
        let after = server.published_len(0).expect("tracing is on");
        assert!(
            after < announced,
            "drain must consume the published events it returned"
        );
        let ends_mid = count_ends(&snap);
        assert!(ends_mid <= 3, "only three jobs have ended");

        gate.store(true, Ordering::Release);
        assert!(matches!(gated.wait(), JobOutcome::Completed { .. }));
        let report = server.shutdown();
        let final_trace = report.trace.expect("tracing is on");
        // Partition: every job's end marker lands in exactly one of the
        // two traces — the mid-run drain lost nothing and the shutdown
        // trace repeats nothing.
        assert_eq!(
            ends_mid + count_ends(&final_trace),
            4,
            "mid-run drain and shutdown trace must partition the 4 job-end markers"
        );
        assert!(
            !final_trace.workers.is_empty(),
            "shutdown trace still reports every worker ring"
        );
    }
}
