//! The shared deque-based execution engine.
//!
//! One engine runs all five deque-based schedulers, because they are
//! points on the same design axis — *when does a spawn create a task, and
//! what runs below the cut-off?* Each run reads those decisions from its
//! [`Preset`] (built from the [`Mode`] by `Preset::new`), never from the
//! mode:
//!
//! * `Mode::Cilk` — a task at every spawn (the work-first Cilk 5 policy):
//!   every spawn pushes the parent continuation and copies the child's
//!   taskprivate workspace into a fresh allocation.
//! * `Mode::CilkSynched` — as Cilk, but workspace buffers are recycled
//!   through a per-worker free list (the `SYNCHED` idiom: allocations drop,
//!   copies remain).
//! * `Mode::CutoffSequence` / `Mode::CutoffCopy` — tasks only above a
//!   fixed cut-off depth; below it, plain recursion. The *programmer*
//!   variant knows the subtree is sequential and skips workspace copies; the
//!   *library* variant cannot and still copies per child (Figure 9).
//! * `Mode::Adaptive` — the paper's AdaptiveTC: tasks above `⌈log₂ N⌉`
//!   (the **fast** version), then fake tasks that poll `need_task` (the
//!   **check** version), transitioning through a **special task** into
//!   **fast_2** (doubled cut-off, task depth reset to 0) and finally the
//!   **sequence** version. Stolen tasks resume in the **slow** version
//!   (fast/check rules).
//!
//! The engine tracks two depths: the *logical* depth (distance from the root
//! node, passed to [`Problem::expand`]) and the *task* depth (the paper's
//! cut-off counter, reset to 0 under a special task).
//!
//! The engine uses continuation stealing over any
//! [`WsDeque`] backend (selected by
//! [`Config::backend`](adaptivetc_core::Config)): a spawn pushes the parent
//! frame, the worker dives into the child, and the matched pop detects theft
//! (the THE race, or the Chase-Lev bottom CAS). Frames are work-first: a
//! child that completes synchronously returns its result to the spawning
//! loop, and only a theft or a pending child touches the frame's join
//! ([`crate::join`]); results of stolen work flow through the delivery
//! chain in [`crate::frame`].
//!
//! # Hot-path object pools
//!
//! Each worker privately recycles the two allocations the hot path would
//! otherwise make per task:
//!
//! * **workspace buffers** — when the preset pools them (every mode but
//!   the faithful `Mode::Cilk` baseline, which must allocate per spawn to
//!   reproduce the paper's Cilk numbers), copies draw from a [`Pool`] of
//!   dead buffers and overwrite them with `clone_from`;
//!   `RunStats::state_reuse` counts the hits.
//! * **frames** — a completed frame is scrubbed and parked in the frame
//!   pool of whichever worker completed it; the next spawn reuses the
//!   allocation (`RunStats::frame_reuse`).
//!
//! # Copy-on-steal workspaces
//!
//! Under [`WorkspacePolicy::CopyOnSteal`](adaptivetc_core::WorkspacePolicy)
//! (the default for every mode except the faithful `Cilk`/`CilkSynched`
//! baselines, whose presets turn it off) a spawn does **not** clone the
//! taskprivate workspace. The worker executes children *in
//! place* — `apply`, recurse, `undo` on one live workspace, exactly like
//! the sequence version — and the pushed frame merely borrows it: the
//! frame's `state` stays `None` and the owner records the frame on a
//! **spine** alongside a mark into a **trail** of every choice currently
//! applied to the live workspace. An owner pop reuses the workspace
//! directly (`RunStats::workspace_copies_saved`); only when a thief
//! actually steals such a frame is an isolated clone **materialised**:
//!
//! 1. the thief flags the frame (`ws_requested`) and raises the owner's
//!    padded `ws_hint`, then spins;
//! 2. the owner, at its poll points (every spawn iteration, every check
//!    poll, sequence entry, the special task's sync wait), clones the live
//!    workspace and unwinds the trail suffix past the frame's mark, which
//!    reconstructs the frame-pristine workspace, and deposits it
//!    (`ws_ready`);
//! 3. as a backstop, a pop conflict — the owner discovering the theft, at
//!    which point the live workspace *is* frame-pristine — deposits
//!    unconditionally before unwinding, so a waiting thief never starves.
//!
//! The thief then runs the stolen continuation in place on the deposit, so
//! stolen-task semantics are bit-identical to the eager scheme while the
//! ~never-stolen majority of spawns pay no copy at all. Special-task
//! children still clone eagerly (they run detached from the live
//! workspace), each such clone seeding a fresh in-place region.

use crate::frame::{deliver, Frame, FramePtr, OutCell, Parent};
use crate::pool::Pool;
use crate::submit::CancelToken;
use crate::sync::{AtomicBool, AtomicUsize, Ordering};
use crate::trace::{tev, worker_tracer, TracerRef, WorkerTracer};
use adaptivetc_core::{
    Config, DequeBackend, Expansion, Problem, Reduce, RunReport, RunStats, VictimPolicy, XorShift64,
};
use adaptivetc_deque::{
    ChaseLevDeque, FenceFreeDeque, NeedTask, PoolDeque, PopSpecial, StealOutcome, TheDeque, WsDeque,
};
use adaptivetc_strategy::{fsm, Below, Mode, Preset, HARD_STEAL_STREAK};
#[cfg(feature = "trace")]
use adaptivetc_trace::{EventKind as Ev, FsmState as Fs};
use crossbeam_utils::CachePadded;
use std::marker::PhantomData;
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

/// Objects each worker's pools retain at most (dead workspace buffers and
/// scrubbed frames). Bounds the steady-state footprint while covering the
/// spawn working set of every paper workload.
const POOL_CAP: usize = 128;

/// Failed steals after which a spinning thief starts yielding the CPU
/// (2^6 = 64 spin-hint rounds of exponential back-off first).
const BACKOFF_SPIN_LIMIT: u32 = 6;

/// How long a special task's sync wait sleeps between servicing rounds of
/// pending copy-on-steal workspace requests.
const WS_SERVICE_WAIT: Duration = Duration::from_micros(50);

/// How long a special task's sync wait sleeps between checks that the run
/// has not been poisoned by another worker's panic.
const POISON_POLL: Duration = Duration::from_millis(1);

/// `Shared::panicked` while no participation has unwound.
const NOT_PANICKED: usize = usize::MAX;

/// The unwind payload of a worker that leaves a poisoned run (see
/// [`Worker::bail_if_poisoned`]).
struct Poisoned;

/// A continuation handed over through a deque: the frame, plus — on
/// multiplicity backends — a strong reference the claimant holds for the
/// session's duration.
pub(crate) struct Claim<P: Problem> {
    frame: FramePtr<P>,
    guard: Option<Arc<Frame<P>>>,
}

/// How a frame travels through a deque backend.
///
/// Exactly-once backends carry a bare [`FramePtr`]: the pop/steal race
/// itself decides who runs the continuation, and the frame stays live
/// without a reference count because it cannot complete before the
/// session it was taken from has contributed (see [`crate::join`]), so a
/// push, pop or steal touches no reference count. A session unwound by a
/// panic never contributes and leaks the frame's handle instead (see
/// [`Session`]), so an entry left in a dead worker's deque stays valid
/// for a thief that steals it before the run is abandoned. Multiplicity backends
/// ([`WsDeque::CAN_DUPLICATE`]) may hand the *same* logical entry to both
/// the owner's pop and a thief's steal — possibly after the frame has
/// completed — so their entries carry a weak handle stamped with the
/// frame's claim epoch, and [`claim`] performs the dedup-at-extraction
/// CAS: exactly one extraction of an entry wins the right to run the
/// frame, every duplicate gets `None` (counted in
/// `RunStats::dup_extractions`).
///
/// [`claim`]: DequeEntry::claim
pub(crate) trait DequeEntry<P: Problem>: Send + Sync + Sized {
    /// Build the entry pushed for `frame`; `strong` is a strong handle to
    /// it (the session's owning handle or claim guard) when it has one.
    fn make(frame: FramePtr<P>, strong: Option<&Arc<Frame<P>>>) -> Self;

    /// Claim the right to run the referenced frame; `None` means another
    /// extraction already claimed this entry (a duplicate) or the frame
    /// is gone.
    fn claim(self) -> Option<Claim<P>>;
}

impl<P: Problem> DequeEntry<P> for FramePtr<P> {
    #[inline]
    fn make(frame: FramePtr<P>, _strong: Option<&Arc<Frame<P>>>) -> Self {
        frame
    }

    #[inline]
    fn claim(self) -> Option<Claim<P>> {
        Some(Claim {
            frame: self,
            guard: None,
        })
    }
}

/// Entry type for the fence-free (multiplicity) backend: a weak frame
/// handle plus the claim epoch snapshotted at push time. Weak, because
/// duplicate extractions outlive the frame's lifecycle: a bare pointer
/// could dangle, and a strong handle would keep retired shells alive from
/// dead log slots; the epoch CAS in `claim` also makes
/// a stale entry harmless after the shell is pooled and reused, since
/// `Frame::claim_seq` is never reset.
pub(crate) struct FfEntry<P: Problem> {
    frame: Weak<Frame<P>>,
    epoch: u64,
}

impl<P: Problem> Clone for FfEntry<P> {
    fn clone(&self) -> Self {
        FfEntry {
            frame: Weak::clone(&self.frame),
            epoch: self.epoch,
        }
    }
}

impl<P: Problem> DequeEntry<P> for FfEntry<P> {
    fn make(_frame: FramePtr<P>, strong: Option<&Arc<Frame<P>>>) -> Self {
        let frame = strong.expect("multiplicity entries are made from a strong handle");
        // Relaxed: the owner is the only writer of its frames' epochs
        // between push and claim, and the push's Release publication
        // orders the snapshot for thieves.
        FfEntry {
            frame: Arc::downgrade(frame),
            epoch: frame.claim_seq.load(Ordering::Relaxed),
        }
    }

    fn claim(self) -> Option<Claim<P>> {
        let frame = self.frame.upgrade()?;
        // AcqRel success: the winner's claim synchronizes with whatever
        // the loser does next. Acquire on *failure* is load-bearing: a
        // losing owner pop must observe the winning thief's prior deque
        // cursor CAS, so the owner's subsequent `pop_special` reliably
        // reports `ChildStolen` for the special the thief passed.
        frame
            .claim_seq
            .compare_exchange(
                self.epoch,
                self.epoch + 1,
                Ordering::AcqRel,
                Ordering::Acquire,
            )
            .ok()?;
        Some(Claim {
            frame: FramePtr::new(&frame),
            guard: Some(frame),
        })
    }
}

/// The code-version regime a frame's children are spawned under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Regime {
    /// fast / slow versions: cut-off = `cutoff`; beyond it, the check
    /// version.
    Fast,
    /// fast_2 version: cut-off = `2 * cutoff`; beyond it, the sequence
    /// version.
    Fast2,
}

/// How the engine's shared state holds the problem: borrowed for the
/// one-shot [`run`] entry points (the problem outlives the scoped worker
/// threads), owned for [`crate::server`] jobs (the job context must be
/// `'static` to be shared across long-lived pool workers).
pub(crate) enum ProblemRef<'p, P> {
    /// Borrowed from the caller (`Scheduler::run`).
    Borrowed(&'p P),
    /// Owned by the job context (`JobServer` submissions).
    Owned(Arc<P>),
}

impl<P> ProblemRef<'_, P> {
    #[inline]
    fn get(&self) -> &P {
        match self {
            ProblemRef::Borrowed(p) => p,
            ProblemRef::Owned(p) => p,
        }
    }
}

pub(crate) struct Shared<'p, P: Problem, D> {
    pub(crate) problem: ProblemRef<'p, P>,
    pub(crate) deques: Vec<D>,
    /// Per-worker `need_task` signals. Padded: a thief hammering one
    /// worker's signal must not invalidate its neighbours' lines.
    signals: Vec<CachePadded<NeedTask>>,
    /// Relaxed per-worker d-e-que occupancy hints, published by the owner
    /// after every push/pop so `VictimPolicy::BestOfTwo` thieves can
    /// compare victims without touching the deques' hot head/tail lines.
    occupancy: Vec<CachePadded<AtomicUsize>>,
    /// Per-worker copy-on-steal doorbells: a thief waiting for a workspace
    /// deposit raises the owner's hint; the owner checks it at poll points.
    ws_hints: Vec<CachePadded<AtomicBool>>,
    pub(crate) root: Arc<OutCell<P::Out>>,
    /// The slot of the first participation a panic unwound, or
    /// [`NOT_PANICKED`]. A poisoned run never completes its root — the
    /// dead worker's obligations are never discharged — so the other
    /// workers leave instead: idle ones at their steal-loop head, waiting
    /// ones by unwinding too.
    panicked: AtomicUsize,
    /// The run's preset, which each worker clones privately.
    preset: Preset,
    victim: VictimPolicy,
    timing: bool,
    /// Cooperative cancellation for `JobServer` jobs: when raised, the
    /// poll points below prune remaining expansions to identity leaves so
    /// the delivery chain still completes the root cell. `None` (the
    /// one-shot entry points) compiles to a single branch per node.
    cancel: Option<CancelToken>,
}

impl<'p, P: Problem, D> Shared<'p, P, D> {
    /// Build the engine's shared state for `slots` worker slots.
    ///
    /// `slots` may be smaller than `cfg.threads` (a server job clamped to
    /// the pool size); the cut-off still derives from `cfg.threads`, so a
    /// job's task-creation frontier is a function of its own configuration
    /// only, never of pool occupancy.
    pub(crate) fn new<E>(
        problem: ProblemRef<'p, P>,
        cfg: &Config,
        mode: Mode,
        slots: usize,
        cancel: Option<CancelToken>,
    ) -> Self
    where
        E: Send,
        D: WsDeque<E>,
    {
        Shared {
            problem,
            deques: (0..slots)
                .map(|_| D::with_capacity(cfg.deque_capacity))
                .collect(),
            signals: (0..slots)
                .map(|_| CachePadded::new(NeedTask::new(cfg.max_stolen_num)))
                .collect(),
            occupancy: (0..slots)
                .map(|_| CachePadded::new(AtomicUsize::new(0)))
                .collect(),
            ws_hints: (0..slots)
                .map(|_| CachePadded::new(AtomicBool::new(false)))
                .collect(),
            root: OutCell::new(),
            panicked: AtomicUsize::new(NOT_PANICKED),
            preset: Preset::new(mode, cfg),
            victim: cfg.victim,
            timing: cfg.timing,
            cancel,
        }
    }

    /// The slot whose participation a panic unwound first, if any.
    pub(crate) fn panicked(&self) -> Option<usize> {
        // Relaxed: a monotone flag that publishes no data; readers only
        // stop waiting on it.
        let slot = self.panicked.load(Ordering::Relaxed);
        (slot != NOT_PANICKED).then_some(slot)
    }

    /// The per-slot deterministic RNG streams `cfg.seed` expands to —
    /// shared by [`run_on`] and the job server so a job's slot `i` sees
    /// exactly the stream worker `i` of a solo run would.
    pub(crate) fn seeds(cfg: &Config, slots: usize) -> Vec<XorShift64> {
        let mut seeder = XorShift64::new(cfg.seed);
        (0..slots).map(|_| seeder.split()).collect()
    }
}

/// Per-op timing probe. Compiled down to a constant `None` without the
/// `trace` feature so untraced builds carry zero clock reads on the hot
/// path even when `Config::timing` is (uselessly) set.
#[cfg(feature = "trace")]
#[inline]
fn now_if(enabled: bool) -> Option<Instant> {
    enabled.then(Instant::now)
}

#[cfg(not(feature = "trace"))]
#[inline]
fn now_if(_enabled: bool) -> Option<Instant> {
    None
}

#[inline]
fn lap(field: &mut u64, start: Option<Instant>) {
    if let Some(t0) = start {
        *field += t0.elapsed().as_nanos() as u64;
    }
}

/// One in-place frame on a worker's copy-on-steal spine.
struct SpineSlot<P: Problem> {
    /// Live while its session is on this worker's stack.
    frame: FramePtr<P>,
    /// Trail length at frame entry: undoing `trail[mark..]` on a clone of
    /// the live workspace reconstructs this frame's pristine workspace.
    mark: usize,
    /// Whether the frame's deque entry for the child currently executing
    /// is outstanding (pushed and not yet popped back). Only such frames
    /// can be stolen, so only they need deposits when the region is sealed.
    live_entry: bool,
}

/// One session of a frame's continuation (see [`crate::join`]): the
/// stretch during which one worker owns the spawn loop.
///
/// A session is closed by [`Session::finish`] or [`Session::surrender`];
/// dropping one that is still open happens only when user code
/// (`Problem::expand`, `apply`, a workspace clone, `Reduce::combine`)
/// panics inside it, and then the session *leaks* its strong handles
/// instead of releasing them. The frame may still be referenced by bare
/// [`FramePtr`]s — its deque entry, which another worker can steal, and
/// its children's parent links — and nothing will ever complete it, so
/// releasing the handle could free memory those pointers still reach.
struct Session<P: Problem> {
    frame: FramePtr<P>,
    /// The frame's owning handle; held by the creating session only.
    handle: Option<Arc<Frame<P>>>,
    /// A multiplicity-backend thief's strong reference, held for the
    /// session's duration.
    guard: Option<Arc<Frame<P>>>,
    /// Registrations the session owes and has not applied to the join.
    owed: i64,
    /// Whether the session has touched the join (a stolen one always has).
    joined: bool,
}

impl<P: Problem> Session<P> {
    /// The first session of a frame, on the worker that created it.
    fn created(frame: Arc<Frame<P>>) -> Self {
        Session {
            frame: FramePtr::new(&frame),
            handle: Some(frame),
            guard: None,
            owed: 0,
            joined: false,
        }
    }

    /// A thief's session: it owes the victim's two obligations.
    fn stolen(claim: Claim<P>) -> Self {
        Session {
            frame: claim.frame,
            handle: None,
            guard: claim.guard,
            owed: 2,
            joined: true,
        }
    }

    fn strong(&self) -> Option<&Arc<Frame<P>>> {
        self.handle.as_ref().or(self.guard.as_ref())
    }

    /// Close a session whose loop ran out of children. Returns the frame's
    /// result and owning handle if the frame completed.
    fn finish(mut self, acc: P::Out) -> Option<(P::Out, Arc<Frame<P>>)> {
        let handle = self.handle.take();
        if !self.joined && self.owed == 0 {
            // The fast path: never stolen, every child returned its result,
            // so nobody else has touched the join.
            return Some((acc, handle.expect("an untouched session created its frame")));
        }
        drop(self.guard.take());
        // SAFETY: the session is still open, so the frame is live; the
        // borrow ends with the closing `finish` event (see `FramePtr::get`).
        unsafe { self.frame.get() }
            .join
            .finish(acc, self.owed, handle)
    }

    /// Close a session whose continuation was stolen: contribute the
    /// partial result, with the in-flight child's if it completed
    /// synchronously (a pending one delivers on its own). Returns the
    /// frame's result and owning handle if this completed the frame.
    fn surrender(
        mut self,
        mut acc: P::Out,
        in_flight: Option<P::Out>,
    ) -> Option<(P::Out, Arc<Frame<P>>)> {
        debug_assert_eq!(self.owed, 0, "registrations are applied before every push");
        let n = match in_flight {
            Some(out) => {
                acc.combine(out);
                2
            }
            None => 1,
        };
        let handle = self.handle.take();
        drop(self.guard.take());
        // SAFETY: as in `finish`: the borrow ends with the discharge.
        unsafe { self.frame.get() }.join.discharge(acc, n, handle)
    }
}

impl<P: Problem> Drop for Session<P> {
    fn drop(&mut self) {
        // `finish` and `surrender` take both handles, so one left here
        // means the session is being unwound (see the type docs).
        if self.handle.is_some() || self.guard.is_some() {
            debug_assert!(std::thread::panicking(), "a session was dropped open");
            std::mem::forget(self.handle.take());
            std::mem::forget(self.guard.take());
        }
    }
}

pub(crate) struct Worker<'s, 'p, P: Problem, E: DequeEntry<P>, D: WsDeque<E>> {
    shared: &'s Shared<'p, P, D>,
    id: usize,
    stats: RunStats,
    rng: XorShift64,
    /// This worker's private copy of the run's preset: the fixed
    /// decisions plus its own cut-off and threshold controllers.
    /// Mutating it never touches shared memory — publishing a threshold
    /// retune is one relaxed store into this worker's own `NeedTask`
    /// signal.
    preset: Preset,
    /// Recycled workspace buffers (when the preset pools them).
    freelist: Pool<P::State>,
    /// Recycled frame shells whose `Arc` became unique after a synchronous
    /// completion.
    frames: Pool<Arc<Frame<P>>>,
    /// Sink parent installed into pooled frames so they hold no live
    /// references while parked.
    dummy: Arc<OutCell<P::Out>>,
    /// Copy-on-steal bookkeeping: every choice currently applied to the
    /// live in-place workspace, in application order.
    trail: Vec<P::Choice>,
    /// The in-place frames whose continuations are on this worker's call
    /// stack, oldest first.
    spine: Vec<SpineSlot<P>>,
    /// Start of the *current* in-place region on the spine. Detached
    /// workspaces (special-task children, materialised thief clones) run
    /// as nested regions; only current-region frames can be serviced from
    /// the current live workspace.
    region_base: usize,
    /// Event-trace recording endpoint (`()` when the `trace` feature is
    /// compiled out; `None` when `Config::trace` is off).
    #[cfg_attr(not(feature = "trace"), allow(dead_code))]
    tr: WorkerTracer<'s>,
    /// The deque-entry representation this engine instantiation uses.
    _entry: PhantomData<E>,
}

impl<'s, 'p, P: Problem, E: DequeEntry<P>, D: WsDeque<E>> Worker<'s, 'p, P, E, D> {
    fn new(shared: &'s Shared<'p, P, D>, id: usize, rng: XorShift64, tr: WorkerTracer<'s>) -> Self {
        Worker {
            preset: shared.preset.clone(),
            shared,
            id,
            stats: RunStats::default(),
            rng,
            freelist: Pool::new(POOL_CAP),
            frames: Pool::new(POOL_CAP),
            dummy: OutCell::new(),
            trail: Vec::new(),
            spine: Vec::new(),
            region_base: 0,
            tr,
            _entry: PhantomData,
        }
    }

    #[inline]
    fn problem(&self) -> &P {
        self.shared.problem.get()
    }

    /// Whether this worker's job has been cancelled. Pruning is purely
    /// cooperative: the node that observes the raised token returns an
    /// identity leaf instead of expanding, so the result-delivery chain
    /// (and with it every waiting sync and the root cell) still completes
    /// normally — cancellation never bypasses the deposit handshake or
    /// the frame join.
    #[inline]
    fn cancelled(&self) -> bool {
        match &self.shared.cancel {
            Some(token) => token.get(),
            None => false,
        }
    }

    /// Probe `victim`'s deque once, recording the special entries the
    /// probe retired on the way (`RunStats::specials_retired`), whatever
    /// the outcome.
    fn steal_from(&mut self, victim: usize) -> StealOutcome<E> {
        let (outcome, retired) = self.shared.deques[victim].steal_reporting();
        for _ in 0..retired {
            self.stats.specials_retired += 1;
            tev!(
                self,
                Steal,
                Ev::SpecialRetired {
                    victim: victim as u32
                }
            );
        }
        outcome
    }

    /// Leave a run another worker's panic has poisoned by unwinding this
    /// worker's stack as well: whatever it is waiting for may depend on the
    /// dead worker, and its open sessions leak their frames (see
    /// [`Session`]), so nothing a dead worker might still reach is freed.
    fn bail_if_poisoned(&self) {
        if self.shared.panicked().is_some() {
            std::panic::resume_unwind(Box::new(Poisoned));
        }
    }

    #[inline]
    fn my_deque(&self) -> &D {
        &self.shared.deques[self.id]
    }

    #[inline]
    fn my_signal(&self) -> &NeedTask {
        &self.shared.signals[self.id]
    }

    #[inline]
    fn my_ws_hint(&self) -> &AtomicBool {
        &self.shared.ws_hints[self.id]
    }

    #[inline]
    fn cos(&self) -> bool {
        self.preset.copy_on_steal
    }

    /// Publish this worker's d-e-que occupancy for `BestOfTwo` thieves.
    #[inline]
    fn publish_occupancy(&self) {
        self.shared.occupancy[self.id].store(self.my_deque().len(), Ordering::Relaxed);
    }

    /// The paper's taskprivate copy: allocate (or recycle) and memcpy.
    fn clone_state(&mut self, src: &P::State) -> P::State {
        let t0 = now_if(self.shared.timing);
        let state = if self.preset.pool {
            match self.freelist.take() {
                Some(mut buf) => {
                    buf.clone_from(src);
                    self.stats.state_reuse += 1;
                    buf
                }
                None => {
                    self.stats.allocations += 1;
                    src.clone()
                }
            }
        } else {
            self.stats.allocations += 1;
            src.clone()
        };
        self.stats.copies += 1;
        self.stats.copy_bytes += self.problem().state_bytes(src) as u64;
        lap(&mut self.stats.time.copy_ns, t0);
        state
    }

    /// Return a dead workspace buffer to the free list.
    fn recycle(&mut self, state: P::State) {
        if self.preset.pool {
            self.freelist.put(state);
        }
    }

    /// Create (or revive from the frame pool) a frame for a node whose
    /// continuation is about to run.
    fn make_frame(
        &mut self,
        parent: Parent<P>,
        state: Option<P::State>,
        choices: Vec<P::Choice>,
        logical: u32,
        depth: u32,
    ) -> Arc<Frame<P>> {
        match self.frames.take() {
            Some(mut arc) => {
                let f = Arc::get_mut(&mut arc).expect("pooled frames hold the only reference");
                f.parent = parent;
                f.state = state;
                f.choices = choices;
                f.depth = depth;
                f.logical = logical;
                *f.next.get_mut() = 0;
                f.join.reset();
                // New incarnation of the shell: any thief still observing
                // the old generation across a steal handshake is a bug
                // (checked in debug builds on the thief side).
                let generation = f.generation.get_mut();
                *generation = generation.wrapping_add(1);
                *f.ws_requested.get_mut() = false;
                *f.ws_ready.get_mut() = false;
                self.stats.frame_reuse += 1;
                arc
            }
            None => Frame::new(parent, state, choices, logical, depth),
        }
    }

    /// Park a completed frame for reuse if this worker holds the only
    /// reference; otherwise let it drop.
    fn retire_frame(&mut self, mut frame: Arc<Frame<P>>) {
        if let Some(f) = Arc::get_mut(&mut frame) {
            // Scrub what a parked frame would keep alive: a mailbox
            // parent, the workspace buffers. (A frame parent link is a
            // bare pointer and is overwritten on reuse.)
            if matches!(f.parent, Parent::Cell(_)) {
                f.parent = Parent::Cell(Arc::clone(&self.dummy));
            }
            for state in [f.state.take(), f.take_deposit()].into_iter().flatten() {
                self.recycle(state);
            }
            self.frames.put(frame);
            return;
        }
        // Multiplicity backends keep a `Weak` per log entry for the whole
        // run, so `get_mut` (which demands weak_count == 0) never succeeds
        // there and shells are freed instead of pooled. Still recycle the
        // workspace buffers — the allocation that actually matters — when
        // no other strong holder remains; a stale entry's `upgrade` then
        // fails.
        if let Ok(mut f) = Arc::try_unwrap(frame) {
            for state in [f.state.take(), f.take_deposit()].into_iter().flatten() {
                self.recycle(state);
            }
        }
    }

    /// Push a deque entry, tolerating overflow by leaving the child
    /// unstealable (executed inline); returns whether the entry was pushed.
    fn push_entry(&mut self, entry: E, special: bool) -> bool {
        let result = if special {
            self.my_deque().push_special(entry)
        } else {
            self.my_deque().push(entry)
        };
        match result {
            Ok(()) => {
                self.stats.deque_pushes += 1;
                self.stats.deque_peak = self.stats.deque_peak.max(self.my_deque().len() as u64);
                self.publish_occupancy();
                tev!(
                    self,
                    Deque,
                    if special { Ev::SpecialPush } else { Ev::Push }
                );
                true
            }
            Err(_) => {
                self.stats.deque_overflows += 1;
                false
            }
        }
    }

    /// Make the session's continuation stealable at resume index `next`.
    /// Registrations the session owes are applied first: after the push a
    /// thief may finish the frame (the join invariant).
    fn push_continuation(&mut self, frame: &Frame<P>, s: &mut Session<P>, next: usize) -> bool {
        if s.owed != 0 {
            frame.join.register(s.owed);
            s.owed = 0;
            s.joined = true;
        }
        // Relaxed: the push below publishes it to the thief that steals it.
        frame.next.store(next, Ordering::Relaxed);
        self.push_entry(E::make(s.frame, s.strong()), false)
    }

    /// Pop back the entry the owner pushed for the child it just ran and
    /// claim it. Returns whether the owner still owns the continuation:
    /// `false` means the frame was stolen — either the pop itself lost
    /// the race (exact backends) or the popped entry lost the claim CAS
    /// to a thief (multiplicity backends, a duplicate extraction).
    fn pop_back(&mut self) -> bool {
        let claimed = match self.my_deque().pop() {
            Some(entry) => match entry.claim() {
                Some(_) => true,
                None => {
                    self.stats.dup_extractions += 1;
                    false
                }
            },
            None => false,
        };
        self.publish_occupancy();
        if claimed {
            self.stats.deque_pops += 1;
            tev!(self, Deque, Ev::Pop);
        } else {
            self.stats.pop_conflicts += 1;
            tev!(self, Deque, Ev::PopConflict);
        }
        claimed
    }

    /// Does a child at task depth `tdepth` run as a task (with a frame)?
    /// The preset's creation rule decides; an adaptive one may have had
    /// its cut-off raised by this worker's controller.
    #[inline]
    fn task_mode(&self, tdepth: u32, regime: Regime) -> bool {
        self.preset
            .creation
            .real_task(tdepth, regime == Regime::Fast2, || self.my_deque().len())
    }

    /// Run a node whose spawn is not a task in the version the preset
    /// puts below the cut-off. The workspace is restored on return.
    fn below_cutoff(
        &mut self,
        state: &mut P::State,
        logical: u32,
        tdepth: u32,
        regime: Regime,
        choices: Vec<P::Choice>,
    ) -> P::Out {
        #[cfg(not(feature = "trace"))]
        let _ = tdepth;
        match self.preset.below(regime == Regime::Fast2) {
            // Appendix C: the check version recurses into the check
            // version at every depth.
            Below::Check => {
                tev!(
                    self,
                    Fsm,
                    Ev::Fsm {
                        from: Fs::Fast,
                        to: Fs::Check,
                        depth: tdepth,
                    }
                );
                self.check(state, logical, choices)
            }
            Below::Sequence => {
                // Only the adaptive machine reaches fast_2, so a sequence
                // entered there is its fall-through; the Cutoff-programmer
                // recursion is no FSM transition.
                if regime == Regime::Fast2 {
                    tev!(
                        self,
                        Fsm,
                        Ev::Fsm {
                            from: Fs::Fast2,
                            to: Fs::Sequence,
                            depth: tdepth,
                        }
                    );
                }
                self.sequence(state, logical, choices)
            }
            Below::Copy => self.sequence_copy(state, logical, choices),
        }
    }

    /// Execute a node given an owned workspace. Returns the subtree's
    /// result, or `None` when it is *pending*: a task in the subtree was
    /// stolen, and the result will be delivered to `parent` later.
    fn exec_node(
        &mut self,
        mut state: P::State,
        logical: u32,
        tdepth: u32,
        parent: Parent<P>,
        regime: Regime,
    ) -> Option<P::Out> {
        if self.cancelled() {
            // Prune: an identity leaf, so the chain still completes.
            self.recycle(state);
            return Some(P::Out::identity());
        }
        self.stats.nodes += 1;
        match self.problem().expand(&state, logical) {
            Expansion::Leaf(out) => {
                self.recycle(state);
                Some(out)
            }
            Expansion::Children(choices) => {
                if self.task_mode(tdepth, regime) {
                    let frame = self.make_frame(parent, Some(state), choices, logical, tdepth);
                    self.frame_loop(Session::created(frame), regime)
                        .map(|(out, frame)| {
                            self.retire_frame(frame);
                            out
                        })
                } else {
                    let out = self.below_cutoff(&mut state, logical, tdepth, regime, choices);
                    self.recycle(state);
                    Some(out)
                }
            }
        }
    }

    /// Run one session of a frame's continuation: spawn each remaining
    /// child as a task, work-first — push the continuation, dive into the
    /// child, pop the continuation back.
    ///
    /// This is the loop body shared by the fast, fast_2 and slow versions;
    /// stolen frames enter here with `Regime::Fast` (the slow version
    /// "restores the program counter" — `next` — and continues). The
    /// spawn index and the partial result stay in locals; the join is
    /// touched only on the stolen path (see [`crate::join`]). Returns the
    /// frame's result and owning handle if the frame completed during
    /// this session.
    fn frame_loop(&mut self, mut s: Session<P>, regime: Regime) -> Option<(P::Out, Arc<Frame<P>>)> {
        // SAFETY: the session is open until `finish`/`surrender`, and the
        // frame cannot complete before then.
        let frame = unsafe { s.frame.get() };
        let len = frame.choices.len();
        let mut next = frame.next.load(Ordering::Relaxed);
        let mut acc = P::Out::identity();
        // The cancellation poll stops spawning; children already spawned
        // still deliver, completing the frame normally.
        while next < len && !self.cancelled() {
            let choice = frame.choices[next];
            next += 1;
            // Workspace copy for the spawned child (taskprivate). The
            // frame's workspace is immutable, so no lock is needed.
            let src = frame
                .state
                .as_ref()
                .expect("regular frames own a workspace");
            let mut child_state = self.clone_state(src);
            self.problem().apply(&mut child_state, choice);
            self.stats.tasks_created += 1;
            tev!(
                self,
                Spawn,
                Ev::Spawn {
                    depth: frame.depth + 1
                }
            );
            // After the last spawn the continuation holds nothing
            // stealable (only the sync), so its entry is elided —
            // otherwise chain-shaped trees fill deques with dead
            // continuations that satisfy thieves without feeding them.
            let pushed = next < len && self.push_continuation(frame, &mut s, next);
            let out = self.exec_node(
                child_state,
                frame.logical + 1,
                frame.depth + 1,
                Parent::Frame(s.frame),
                regime,
            );
            if pushed && !self.pop_back() {
                // Continuation stolen: a thief now runs this frame's
                // remaining children; contribute and unwind to the
                // steal loop.
                return s.surrender(acc, out);
            }
            match out {
                Some(out) => acc.combine(out),
                None => s.owed += 1,
            }
        }
        s.finish(acc)
    }

    /// Service pending copy-on-steal workspace requests for frames of the
    /// *current* in-place region. `live` must be exactly the region's live
    /// workspace, consistent with the trail (called between an apply/undo
    /// pair, never mid-operation). Requests against frames of outer,
    /// paused regions stay pending — their thieves keep re-raising the
    /// hint and are guaranteed a deposit at the owner's pop conflict at
    /// the latest.
    fn service_ws(&mut self, live: &P::State) {
        if !self.my_ws_hint().swap(false, Ordering::AcqRel) {
            return;
        }
        let spine = std::mem::take(&mut self.spine);
        for slot in &spine[self.region_base..] {
            // SAFETY: spine frames have open sessions on this worker's
            // stack.
            let frame = unsafe { slot.frame.get() };
            if frame.ws_requested.load(Ordering::Acquire) {
                let snap = self.materialise(live, slot.mark);
                frame.deposit_ws(snap);
                tev!(self, Workspace, Ev::WsDeposit);
            }
        }
        self.spine = spine;
    }

    /// Materialise a frame-pristine workspace: clone the live one and
    /// unwind the trail suffix applied since frame entry.
    fn materialise(&mut self, live: &P::State, mark: usize) -> P::State {
        let mut snap = self.clone_state(live);
        for &c in self.trail[mark..].iter().rev() {
            self.problem().undo(&mut snap, c);
        }
        snap
    }

    /// Publish deposits for *every* stealable entry of the current region.
    ///
    /// Called before the region is paused by a special section: while the
    /// special children run as nested regions, this region's live workspace
    /// is unreachable, so a thief stealing one of these entries could not
    /// be serviced and would spin for the whole pause — long enough to
    /// close a wait cycle across owners that are themselves blocked at
    /// special syncs. Sealing up front keeps every possible request
    /// targeted at a *current* region, which its owner always services.
    fn seal_region(&mut self, live: &P::State) {
        let spine = std::mem::take(&mut self.spine);
        for slot in &spine[self.region_base..] {
            // SAFETY: spine frames have open sessions on this worker's
            // stack.
            let frame = unsafe { slot.frame.get() };
            if slot.live_entry && !frame.ws_ready.load(Ordering::Acquire) {
                let snap = self.materialise(live, slot.mark);
                frame.deposit_ws(snap);
                tev!(self, Workspace, Ev::WsDeposit);
            }
        }
        self.spine = spine;
    }

    /// Run a node on an *owned* workspace as a fresh in-place region (the
    /// root task, a special-task child, or any other detached workspace).
    /// The buffer is recycled when the region completes or unwinds.
    /// Returns as [`Worker::exec_node`].
    fn run_region(
        &mut self,
        mut state: P::State,
        logical: u32,
        tdepth: u32,
        parent: Parent<P>,
        regime: Regime,
    ) -> Option<P::Out> {
        let saved_base = self.region_base;
        self.region_base = self.spine.len();
        let trail_mark = self.trail.len();
        let out = self.exec_node_inplace(&mut state, logical, tdepth, parent, regime);
        debug_assert_eq!(
            self.spine.len(),
            self.region_base,
            "region left spine entries"
        );
        debug_assert_eq!(self.trail.len(), trail_mark, "region left trail entries");
        self.region_base = saved_base;
        self.recycle(state);
        out
    }

    /// Copy-on-steal counterpart of [`Worker::exec_node`]: execute a node
    /// on the borrowed live workspace (choice already applied by the
    /// caller). On return — normal completion *or* theft-driven unwind —
    /// the workspace is restored to its value at entry.
    fn exec_node_inplace(
        &mut self,
        state: &mut P::State,
        logical: u32,
        tdepth: u32,
        parent: Parent<P>,
        regime: Regime,
    ) -> Option<P::Out> {
        if self.cancelled() {
            return Some(P::Out::identity());
        }
        self.stats.nodes += 1;
        match self.problem().expand(state, logical) {
            Expansion::Leaf(out) => Some(out),
            Expansion::Children(choices) => {
                if self.task_mode(tdepth, regime) {
                    let frame = self.make_frame(parent, None, choices, logical, tdepth);
                    self.frame_loop_inplace(Session::created(frame), state, regime)
                        .map(|(out, frame)| {
                            self.retire_frame(frame);
                            out
                        })
                } else {
                    Some(self.below_cutoff(state, logical, tdepth, regime, choices))
                }
            }
        }
    }

    /// Copy-on-steal counterpart of [`Worker::frame_loop`]: spawn each
    /// remaining child as a task *without* cloning the workspace — apply
    /// the choice to the live workspace, dive in, undo on return. A pop
    /// conflict deposits the (now frame-pristine) workspace for the thief
    /// before the session contributes and unwinds.
    fn frame_loop_inplace(
        &mut self,
        mut s: Session<P>,
        state: &mut P::State,
        regime: Regime,
    ) -> Option<(P::Out, Arc<Frame<P>>)> {
        // SAFETY: the session is open until `finish`/`surrender`, and the
        // frame cannot complete before then.
        let frame = unsafe { s.frame.get() };
        frame.owner.store(self.id, Ordering::Release);
        self.spine.push(SpineSlot {
            frame: s.frame,
            mark: self.trail.len(),
            live_entry: false,
        });
        let len = frame.choices.len();
        let mut next = frame.next.load(Ordering::Relaxed);
        let mut acc = P::Out::identity();
        loop {
            self.service_ws(state);
            // Cancellation poll, co-located with the copy-on-steal service
            // point: no new spawns after the token is raised.
            if next >= len || self.cancelled() {
                break;
            }
            let choice = frame.choices[next];
            next += 1;
            self.problem().apply(state, choice);
            self.trail.push(choice);
            self.stats.tasks_created += 1;
            tev!(
                self,
                Spawn,
                Ev::Spawn {
                    depth: frame.depth + 1
                }
            );
            // The spawn that eager copying would have paid a clone for.
            self.stats.workspace_copies_saved += 1;
            tev!(self, Workspace, Ev::CopySaved);
            // Last-spawn elision, as in the eager loop.
            let pushed = next < len && self.push_continuation(frame, &mut s, next);
            if let Some(slot) = self.spine.last_mut() {
                slot.live_entry = pushed;
            }
            let out = self.exec_node_inplace(
                state,
                frame.logical + 1,
                frame.depth + 1,
                Parent::Frame(s.frame),
                regime,
            );
            self.problem().undo(state, choice);
            self.trail.pop();
            if pushed {
                if self.pop_back() {
                    if let Some(slot) = self.spine.last_mut() {
                        slot.live_entry = false;
                    }
                } else {
                    // Continuation stolen. The live workspace is
                    // frame-pristine right now (the child's choice was
                    // just undone): deposit a clone for the thief
                    // unless a seal or service round already did, and
                    // only then contribute — after that the frame may
                    // complete and be recycled.
                    if !frame.ws_ready.load(Ordering::Acquire) {
                        let snap = self.clone_state(state);
                        frame.deposit_ws(snap);
                        tev!(self, Workspace, Ev::WsDeposit);
                    }
                    self.spine.pop();
                    return s.surrender(acc, out);
                }
            }
            match out {
                Some(out) => acc.combine(out),
                None => s.owed += 1,
            }
        }
        self.spine.pop();
        s.finish(acc)
    }

    /// Run a stolen continuation (the slow version) as a new session,
    /// delivering the frame's result upward if the session completes it.
    /// Under copy-on-steal the thief first obtains an isolated workspace:
    /// it takes a deposit if one is already published, otherwise it
    /// requests one from the owner and spins — re-raising the owner's
    /// doorbell periodically, since the owner may consume a hint while a
    /// different region is current — and then runs the continuation in
    /// place on the materialised clone.
    fn run_stolen(&mut self, claim: Claim<P>) {
        // SAFETY: the stolen session is open until its loop returns, and
        // the frame cannot complete before then.
        let frame = unsafe { claim.frame.get() };
        tev!(
            self,
            Fsm,
            Ev::Fsm {
                from: Fs::Idle,
                to: Fs::Slow,
                depth: frame.depth,
            }
        );
        let s = Session::stolen(claim);
        let done = if self.cos() {
            let ws = self.take_stolen_ws(frame);
            let saved_base = self.region_base;
            self.region_base = self.spine.len();
            let mut ws = ws;
            let done = self.frame_loop_inplace(s, &mut ws, Regime::Fast);
            self.region_base = saved_base;
            self.recycle(ws);
            done
        } else {
            self.frame_loop(s, Regime::Fast)
        };
        if let Some((out, handle)) = done {
            let parent = handle.parent.clone();
            self.retire_frame(handle);
            // SAFETY: the stolen frame's creating session returned pending
            // to its parent's loop, which registered (or had its thief
            // register) this result as an obligation; frames the delivery
            // completes go back to this worker's pool.
            unsafe { deliver(&parent, out, |f| self.retire_frame(f)) };
        }
        tev!(
            self,
            Fsm,
            Ev::Fsm {
                from: Fs::Slow,
                to: Fs::Idle,
                depth: 0,
            }
        );
    }

    /// The thief's side of the copy-on-steal handshake for `frame`.
    fn take_stolen_ws(&mut self, frame: &Frame<P>) -> P::State {
        #[cfg(debug_assertions)]
        let generation = frame.generation.load(Ordering::Acquire);
        let state = match frame.try_take_ws() {
            Some(s) => s,
            None => {
                frame.ws_requested.store(true, Ordering::Release);
                let owner = frame.owner.load(Ordering::Acquire);
                self.shared.ws_hints[owner].store(true, Ordering::Release);
                tev!(
                    self,
                    Workspace,
                    Ev::WsRequest {
                        owner: owner as u32
                    }
                );
                let mut spins: u32 = 0;
                loop {
                    if let Some(s) = frame.try_take_ws() {
                        break s;
                    }
                    spins = spins.wrapping_add(1);
                    if spins & 0x3F == 0 {
                        // The owner may be the worker that panicked.
                        self.bail_if_poisoned();
                        self.shared.ws_hints[frame.owner.load(Ordering::Acquire)]
                            .store(true, Ordering::Release);
                        std::thread::yield_now();
                    } else {
                        std::hint::spin_loop();
                    }
                }
            }
        };
        tev!(self, Workspace, Ev::WsTake);
        #[cfg(debug_assertions)]
        debug_assert_eq!(
            frame.generation.load(Ordering::Acquire),
            generation,
            "frame shell recycled during a steal handshake"
        );
        state
    }

    /// The sequence version: plain recursion, no tasks, no copies, no polls
    /// (under copy-on-steal it still services workspace requests once per
    /// node, so thieves waiting on ancestor frames are fed promptly).
    fn sequence(&mut self, state: &mut P::State, logical: u32, choices: Vec<P::Choice>) -> P::Out {
        if self.cos() {
            self.service_ws(state);
        }
        if self.cancelled() {
            // One cancellation poll per sequence node, matching the
            // copy-on-steal service cadence of the recursion.
            return P::Out::identity();
        }
        self.stats.fake_tasks += 1;
        tev!(self, Fake, Ev::FakeTask { depth: logical });
        let mut acc = P::Out::identity();
        for c in choices {
            self.problem().apply(state, c);
            if self.cos() {
                self.trail.push(c);
            }
            self.stats.nodes += 1;
            match self.problem().expand(state, logical + 1) {
                Expansion::Leaf(out) => acc.combine(out),
                Expansion::Children(cs) => acc.combine(self.sequence(state, logical + 1, cs)),
            }
            self.problem().undo(state, c);
            if self.cos() {
                self.trail.pop();
            }
        }
        acc
    }

    /// The Cutoff-library sequential region: recursion that still pays a
    /// workspace copy per child (the library cannot know the subtree is
    /// sequential, so taskprivate semantics force the copy).
    fn sequence_copy(&mut self, state: &P::State, logical: u32, choices: Vec<P::Choice>) -> P::Out {
        if self.cancelled() {
            return P::Out::identity();
        }
        self.stats.fake_tasks += 1;
        tev!(self, Fake, Ev::FakeTask { depth: logical });
        let mut acc = P::Out::identity();
        for c in choices {
            let mut child = self.clone_state(state);
            self.problem().apply(&mut child, c);
            self.stats.nodes += 1;
            match self.problem().expand(&child, logical + 1) {
                Expansion::Leaf(out) => acc.combine(out),
                Expansion::Children(cs) => acc.combine(self.sequence_copy(&child, logical + 1, cs)),
            }
            self.recycle(child);
        }
        acc
    }

    /// Close the strategy feedback loops at a `need_task` poll. Every
    /// input is a value this worker already owns or reads relaxed on the
    /// existing poll path — no new fences. A pressured poll is a raise
    /// signal for the cutoff controller; a calm poll feeds both decay
    /// loops (the occupancy read happens only while the cutoff is
    /// actually boosted). Threshold retunes publish with one relaxed
    /// store into this worker's own signal.
    fn strategy_poll(&mut self, pressured: bool) {
        let shared = self.shared;
        let id = self.id;
        if pressured {
            if let Some(eff) = self.preset.creation.on_pressure() {
                self.stats.cutoff_adjustments += 1;
                tev!(self, Strategy, Ev::CutoffTune { eff, up: true });
            }
        } else {
            if let Some(eff) = self
                .preset
                .creation
                .on_calm_poll(|| shared.deques[id].len())
            {
                self.stats.cutoff_adjustments += 1;
                tev!(self, Strategy, Ev::CutoffTune { eff, up: false });
            }
            if let Some(threshold) = self.preset.threshold.retune_on_quiet() {
                shared.signals[id].set_threshold(threshold);
                self.stats.threshold_adjustments += 1;
                tev!(self, Strategy, Ev::ThresholdTune { threshold });
            }
        }
    }

    /// The check version: fake tasks that poll `need_task` once per node and
    /// transition through a special task when another thread is starving
    /// (Appendix C: the `!need_task` branch recurses into the check version
    /// at every depth).
    fn check(&mut self, state: &mut P::State, logical: u32, choices: Vec<P::Choice>) -> P::Out {
        self.stats.polls += 1;
        if self.cos() {
            // The need_task poll is also the copy-on-steal service point.
            self.service_ws(state);
        }
        if self.cancelled() {
            // The need_task poll doubles as the cancellation poll.
            return P::Out::identity();
        }
        let pressured = self.my_signal().needs_task();
        self.strategy_poll(pressured);
        // Only a creation policy that responds to `need_task` diverts a
        // raised poll into the special transition; the static and hybrid
        // arms stay in the check version regardless.
        let respond = pressured && self.preset.creation.responds_to_need_task();
        if fsm::after_poll(respond) == fsm::Version::Check {
            self.stats.fake_tasks += 1;
            tev!(self, Fake, Ev::FakeTask { depth: logical });
            let mut acc = P::Out::identity();
            for c in choices {
                self.problem().apply(state, c);
                if self.cos() {
                    self.trail.push(c);
                }
                self.stats.nodes += 1;
                match self.problem().expand(state, logical + 1) {
                    Expansion::Leaf(out) => acc.combine(out),
                    Expansion::Children(cs) => acc.combine(self.check(state, logical + 1, cs)),
                }
                self.problem().undo(state, c);
                if self.cos() {
                    self.trail.pop();
                }
            }
            acc
        } else {
            tev!(
                self,
                Fsm,
                Ev::Fsm {
                    from: Fs::Check,
                    to: Fs::Special,
                    depth: logical,
                }
            );
            self.special_section(state, logical, choices)
        }
    }

    /// Transition from fake tasks back to tasks: create a special task, run
    /// every child through the fast_2 version with its task depth reset to
    /// 0, and wait for stolen children at the end (`sync_specialtask`).
    fn special_section(
        &mut self,
        state: &mut P::State,
        logical: u32,
        choices: Vec<P::Choice>,
    ) -> P::Out {
        self.stats.special_tasks += 1;
        tev!(self, Special, Ev::SpecialBegin { depth: logical });
        self.my_signal().acknowledge();
        tev!(self, Signal, Ev::NeedTaskAck);
        // Adaptive threshold back-off: the burst this special is about to
        // spawn should not immediately re-trigger another special.
        if let Some(threshold) = self.preset.threshold.retune_on_ack() {
            self.my_signal().set_threshold(threshold);
            self.stats.threshold_adjustments += 1;
            tev!(self, Strategy, Ev::ThresholdTune { threshold });
        }
        if self.cos() {
            self.seal_region(state);
        }
        // The paper's special-task re-entry: the fake task's children run
        // as tasks again in fast_2 with the cut-off doubled and depth 0.
        tev!(
            self,
            Fsm,
            Ev::Fsm {
                from: Fs::Special,
                to: Fs::Fast2,
                depth: logical,
            }
        );
        let waiter: Arc<OutCell<P::Out>> = OutCell::new();
        let special = self.make_frame(
            Parent::Cell(Arc::clone(&waiter)),
            None,
            Vec::new(),
            logical,
            0,
        );
        // The special task's continuation is never stolen (a special
        // entry is never returned by `steal`), so its session lasts until
        // the sync below and may defer every pending child's registration
        // to its finish.
        let mut s = Session::created(special);
        let mut acc = P::Out::identity();
        for c in choices {
            if self.cancelled() {
                // Stop spawning special children; the ones already in
                // flight still deliver and the sync below still resolves.
                break;
            }
            // Special children always clone eagerly: they run detached from
            // the live workspace while the special loop keeps using it.
            // Under copy-on-steal the clone seeds a fresh in-place region,
            // so the fast_2 subtree below it is copy-free again.
            let mut child = self.clone_state(state);
            self.problem().apply(&mut child, c);
            self.stats.tasks_created += 1;
            tev!(self, Spawn, Ev::Spawn { depth: 0 });
            let pushed = self.push_entry(E::make(s.frame, s.strong()), true);
            let parent = Parent::Frame(s.frame);
            let out = if self.cos() {
                self.run_region(child, logical + 1, 0, parent, Regime::Fast2)
            } else {
                self.exec_node(child, logical + 1, 0, parent, Regime::Fast2)
            };
            if pushed {
                match self.my_deque().pop_special() {
                    PopSpecial::Reclaimed(_) => {
                        self.stats.deque_pops += 1;
                        tev!(self, Deque, Ev::SpecialConsume { reclaimed: true });
                    }
                    PopSpecial::ChildStolen => {
                        self.stats.pop_conflicts += 1;
                        tev!(self, Deque, Ev::SpecialConsume { reclaimed: false });
                    }
                }
                self.publish_occupancy();
            }
            match out {
                Some(out) => acc.combine(out),
                None => s.owed += 1,
            }
        }
        // sync_specialtask: the special task cannot be suspended — wait for
        // every child to deliver before resuming the fake task.
        if let Some((out, handle)) = s.finish(acc) {
            self.retire_frame(handle);
            tev!(self, Special, Ev::SpecialEnd);
            return out;
        }
        self.stats.suspensions += 1;
        tev!(self, Sync, Ev::SyncSuspend);
        let t0 = now_if(self.shared.timing);
        // Under copy-on-steal, keep servicing workspace requests while
        // blocked: a thief that stole an ancestor frame of this special
        // section must not wait out the whole sync for its deposit. A
        // child stolen by a worker that then panicked never delivers.
        let wait = if self.cos() {
            WS_SERVICE_WAIT
        } else {
            POISON_POLL
        };
        let out = loop {
            if self.cos() {
                self.service_ws(state);
            }
            if let Some(out) = waiter.wait_timeout(wait) {
                break out;
            }
            self.bail_if_poisoned();
        };
        lap(&mut self.stats.time.wait_children_ns, t0);
        tev!(self, Sync, Ev::SyncResume);
        // The delivery that completed the special frame retired it.
        tev!(self, Special, Ev::SpecialEnd);
        out
    }

    /// Pick a victim uniformly at random, never this worker itself and —
    /// when at least three workers exist, so a choice remains — never
    /// `avoid` (the victim that just reported an empty deque).
    fn random_victim(&mut self, n: usize, avoid: Option<usize>) -> usize {
        match avoid {
            Some(av) if n >= 3 && av != self.id => {
                let mut v = self.rng.below_usize(n - 2);
                // Remap over the two excluded ids in ascending order.
                let (lo, hi) = (self.id.min(av), self.id.max(av));
                if v >= lo {
                    v += 1;
                }
                if v >= hi {
                    v += 1;
                }
                v
            }
            _ => {
                let mut v = self.rng.below_usize(n - 1);
                if v >= self.id {
                    v += 1;
                }
                v
            }
        }
    }

    /// Choose the next victim under the configured [`VictimPolicy`].
    fn pick_victim(
        &mut self,
        n: usize,
        last_victim: Option<usize>,
        last_empty: Option<usize>,
    ) -> usize {
        match self.shared.victim {
            VictimPolicy::Uniform => self.random_victim(n, last_empty),
            VictimPolicy::LastVictim => match last_victim {
                // Steal affinity: return to the last productive victim.
                Some(v) => v,
                None => self.random_victim(n, last_empty),
            },
            VictimPolicy::BestOfTwo => {
                let a = self.random_victim(n, last_empty);
                let b = self.random_victim(n, last_empty);
                if a == b {
                    a
                } else {
                    // Probe whichever hint reports the longer deque; ties
                    // go to the first draw.
                    let occ = &self.shared.occupancy;
                    if occ[a].load(Ordering::Relaxed) >= occ[b].load(Ordering::Relaxed) {
                        a
                    } else {
                        b
                    }
                }
            }
        }
    }

    /// Steal until the root result is ready.
    ///
    /// Idle thieves back off exponentially: after the k-th consecutive
    /// failed round a thief spins `2^k` pause hints (capped at
    /// `2^BACKOFF_SPIN_LIMIT`), then starts yielding the CPU between
    /// attempts. Any success resets the back-off, so a thief that finds
    /// work is immediately aggressive again. A victim that just reported
    /// an empty deque is never re-probed on the immediately following
    /// attempt (a wasted probe that would also inflate the idle victim's
    /// `stolen_num`).
    ///
    /// `abandon` is the job-server joiner hook: a worker that volunteered
    /// into another job's free slot consults it after every *failed* round
    /// and leaves the loop early when it returns `true` (e.g. new jobs are
    /// queued). Abandoning between tasks is safe — at the loop head the
    /// worker's own deque is empty and it holds no frames — and the job
    /// does not depend on the deserter: the lead worker alone always
    /// completes the job. One-shot runs pass `None` and exit only on root
    /// completion.
    fn steal_loop(&mut self, abandon: Option<&dyn Fn() -> bool>) {
        let n = self.shared.deques.len();
        if n == 1 {
            return;
        }
        let mut idle_since = now_if(self.shared.timing);
        let mut backoff = 0u32;
        let mut last_victim: Option<usize> = None;
        let mut last_empty: Option<usize> = None;
        // Consecutive failed probes since the last success: a steal that
        // lands only after a long streak is a task-scarcity signal for
        // the cutoff controller.
        let mut fail_streak = 0u32;
        // Extra frames a steal-half probe looted beyond the first. Always
        // empty at the loop head (drained inside the success arm), so the
        // abandon and root-done exits never strand claimed work.
        let mut loot: Vec<Claim<P>> = Vec::new();
        while !self.shared.root.is_done() && self.shared.panicked().is_none() {
            let victim = self.pick_victim(n, last_victim, last_empty);
            tev!(
                self,
                Steal,
                Ev::StealAttempt {
                    victim: victim as u32,
                }
            );
            match self.steal_from(victim) {
                StealOutcome::Stolen(entry) => {
                    let Some(claim) = entry.claim() else {
                        // A duplicate of an entry some other extraction
                        // already claimed (multiplicity backends only).
                        // Not a failed steal: the victim's deque was not
                        // empty, so neither the back-off nor the victim
                        // signal should react — just retry.
                        self.stats.dup_extractions += 1;
                        tev!(
                            self,
                            Steal,
                            Ev::StealDup {
                                victim: victim as u32
                            }
                        );
                        continue;
                    };
                    self.shared.signals[victim].record_steal_success();
                    self.stats.steals_ok += 1;
                    tev!(
                        self,
                        Steal,
                        Ev::StealOk {
                            victim: victim as u32
                        }
                    );
                    if fail_streak >= HARD_STEAL_STREAK {
                        if let Some(eff) = self.preset.creation.on_hard_steal() {
                            self.stats.cutoff_adjustments += 1;
                            tev!(self, Strategy, Ev::CutoffTune { eff, up: true });
                        }
                    }
                    fail_streak = 0;
                    backoff = 0;
                    last_victim = Some(victim);
                    last_empty = None;
                    lap(&mut self.stats.time.steal_wait_ns, idle_since.take());
                    // Steal-half extraction: the first frame paid for the
                    // probe; loot up to `batch − 1` more from the same
                    // victim before running anything. A dry victim simply
                    // ends the loot round — no failure is recorded and no
                    // signal touched, the probe as a whole succeeded.
                    if !self.preset.extraction.is_unit() {
                        let batch = self
                            .preset
                            .extraction
                            .batch(self.shared.occupancy[victim].load(Ordering::Relaxed));
                        while loot.len() + 1 < batch {
                            tev!(
                                self,
                                Steal,
                                Ev::StealAttempt {
                                    victim: victim as u32,
                                }
                            );
                            match self.steal_from(victim) {
                                StealOutcome::Stolen(entry) => match entry.claim() {
                                    Some(f) => {
                                        self.shared.signals[victim].record_steal_success();
                                        self.stats.steals_ok += 1;
                                        tev!(
                                            self,
                                            Steal,
                                            Ev::StealOk {
                                                victim: victim as u32
                                            }
                                        );
                                        loot.push(f);
                                    }
                                    None => {
                                        self.stats.dup_extractions += 1;
                                        tev!(
                                            self,
                                            Steal,
                                            Ev::StealDup {
                                                victim: victim as u32
                                            }
                                        );
                                    }
                                },
                                StealOutcome::Empty => break,
                            }
                        }
                    }
                    // The slow version: resume the stolen continuation under
                    // fast/check rules, then drain the loot (newest first —
                    // the deepest frames, closest to this thief's cache).
                    self.run_stolen(claim);
                    while let Some(f) = loot.pop() {
                        self.run_stolen(f);
                    }
                    idle_since = now_if(self.shared.timing);
                }
                StealOutcome::Empty => {
                    let raised = self.shared.signals[victim].record_steal_failure();
                    if raised {
                        tev!(
                            self,
                            Signal,
                            Ev::NeedTaskSignal {
                                victim: victim as u32,
                            }
                        );
                    }
                    self.stats.steals_failed += 1;
                    tev!(
                        self,
                        Steal,
                        Ev::StealEmpty {
                            victim: victim as u32
                        }
                    );
                    fail_streak = fail_streak.saturating_add(1);
                    if last_victim == Some(victim) {
                        last_victim = None; // the affinity victim ran dry
                    }
                    last_empty = Some(victim);
                    if backoff < BACKOFF_SPIN_LIMIT {
                        for _ in 0..(1u32 << backoff) {
                            std::hint::spin_loop();
                        }
                        backoff += 1;
                    } else {
                        std::thread::yield_now();
                    }
                    self.stats.steal_backoffs += 1;
                    if let Some(quit) = abandon {
                        if quit() {
                            break;
                        }
                    }
                }
            }
        }
        lap(&mut self.stats.time.steal_wait_ns, idle_since.take());
    }
}

/// One worker's whole participation in a run: execute the root task when
/// `lead` (slot 0), then steal until the root completes (or `abandon`
/// fires, see [`Worker::steal_loop`], or another participation panics). This is the body both [`run_on`]
/// workers and `JobServer` participants execute — keeping them the same
/// code path is what makes a single-slot server job bit-identical in
/// counters to a solo single-thread run.
pub(crate) fn participate<'s, 'p, P, E, D>(
    shared: &'s Shared<'p, P, D>,
    slot: usize,
    rng: XorShift64,
    tr: WorkerTracer<'s>,
    lead: bool,
    abandon: Option<&dyn Fn() -> bool>,
) -> RunStats
where
    P: Problem,
    E: DequeEntry<P>,
    D: WsDeque<E>,
{
    /// Poisons the run if the participation unwinds.
    struct OnUnwind<'a>(&'a AtomicUsize, usize);
    impl Drop for OnUnwind<'_> {
        fn drop(&mut self) {
            if std::thread::panicking() {
                // Relaxed: see `Shared::panicked`; the first slot wins.
                let _ = self.0.compare_exchange(
                    NOT_PANICKED,
                    self.1,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                );
            }
        }
    }
    let _poison = OnUnwind(&shared.panicked, slot);
    let mut w = Worker::<P, E, D>::new(shared, slot, rng, tr);
    if lead {
        let root_state = shared.problem.get().root();
        w.stats.tasks_created += 1; // the root task
        tev!(w, Spawn, Ev::Spawn { depth: 0 });
        let parent = Parent::Cell(Arc::clone(&shared.root));
        let out = if w.cos() {
            w.run_region(root_state, 0, 0, parent, Regime::Fast)
        } else {
            w.exec_node(root_state, 0, 0, parent, Regime::Fast)
        };
        if let Some(out) = out {
            shared.root.deliver(out);
        }
    }
    w.steal_loop(abandon);
    w.stats
}

/// Run `problem` under `mode` with the given configuration.
///
/// The deque substrate is chosen by [`Config::backend`]; every mode runs on
/// every backend (the Chase-Lev and pool deques support the special-task
/// protocol `Mode::Adaptive` needs).
///
/// Returns the reduced result and a [`RunReport`] with per-worker
/// statistics.
///
/// # Errors
///
/// Returns [`adaptivetc_core::SchedulerError::Config`] for invalid
/// configurations and `WorkerPanicked` if a worker thread panics (at any
/// thread count: the other workers leave the poisoned run). Deque
/// overflow is tolerated (the child runs inline, unstealable) and surfaced
/// via `RunStats::deque_overflows`.
pub fn run<P: Problem>(
    problem: &P,
    cfg: &Config,
    mode: Mode,
) -> Result<(P::Out, RunReport), adaptivetc_core::SchedulerError> {
    #[cfg(feature = "trace")]
    {
        run_traced(problem, cfg, mode).map(|(out, report, _trace)| (out, report))
    }
    #[cfg(not(feature = "trace"))]
    {
        dispatch(problem, cfg, mode, ())
    }
}

/// As [`run`], but additionally returns the drained event trace when
/// `cfg.trace` is set (and `None` when it is not).
#[cfg(feature = "trace")]
pub fn run_traced<P: Problem>(
    problem: &P,
    cfg: &Config,
    mode: Mode,
) -> Result<(P::Out, RunReport, Option<adaptivetc_trace::Trace>), adaptivetc_core::SchedulerError> {
    cfg.validate()?;
    let collector = cfg.trace.then(|| {
        adaptivetc_trace::TraceCollector::with_options(
            cfg.threads,
            cfg.trace_capacity,
            cfg.trace_filter,
            cfg.trace_sample,
        )
    });
    let (out, report) = dispatch(problem, cfg, mode, collector.as_ref())?;
    Ok((out, report, collector.map(|c| c.finish())))
}

/// Select the deque backend and run.
fn dispatch<'a, P: Problem>(
    problem: &'a P,
    cfg: &Config,
    mode: Mode,
    tracer: TracerRef<'a>,
) -> Result<(P::Out, RunReport), adaptivetc_core::SchedulerError> {
    match cfg.backend {
        DequeBackend::The => {
            run_on::<P, FramePtr<P>, TheDeque<FramePtr<P>>>(problem, cfg, mode, tracer)
        }
        DequeBackend::ChaseLev => {
            run_on::<P, FramePtr<P>, ChaseLevDeque<FramePtr<P>>>(problem, cfg, mode, tracer)
        }
        DequeBackend::Pool => {
            run_on::<P, FramePtr<P>, PoolDeque<FramePtr<P>>>(problem, cfg, mode, tracer)
        }
        // The multiplicity backend stores (weak-ref, epoch) entries so that
        // duplicate extractions can be rejected by the claim layer instead
        // of running a task twice.
        DequeBackend::FenceFree => {
            run_on::<P, FfEntry<P>, FenceFreeDeque<FfEntry<P>>>(problem, cfg, mode, tracer)
        }
    }
}

/// The engine, monomorphized over one deque backend and its entry type.
fn run_on<'a, P: Problem, E: DequeEntry<P>, D: WsDeque<E>>(
    problem: &'a P,
    cfg: &Config,
    mode: Mode,
    tracer: TracerRef<'a>,
) -> Result<(P::Out, RunReport), adaptivetc_core::SchedulerError> {
    cfg.validate()?;
    let threads = cfg.threads;
    let shared = Shared::new::<E>(ProblemRef::Borrowed(problem), cfg, mode, threads, None);
    let seeds = Shared::<P, D>::seeds(cfg, threads);

    let start = Instant::now();
    let joined = std::thread::scope(|s| {
        let mut handles = Vec::with_capacity(threads);
        for (id, rng) in seeds.into_iter().enumerate() {
            let shared = &shared;
            // Collapses to a unit binding when tracing is compiled out.
            #[cfg_attr(not(feature = "trace"), allow(clippy::let_unit_value))]
            let tr = worker_tracer(tracer, id);
            handles
                .push(s.spawn(move || participate::<P, E, D>(shared, id, rng, tr, id == 0, None)));
        }
        // Join every worker, even past a failed one: a panicked worker
        // left unjoined makes the scope itself panic.
        handles.into_iter().map(|h| h.join()).collect::<Vec<_>>()
    });
    // Report the worker whose panic poisoned the run, not one that
    // unwound after it (`Worker::bail_if_poisoned`).
    if let Some(id) = shared.panicked() {
        return Err(adaptivetc_core::SchedulerError::WorkerPanicked(id));
    }
    let per_worker = joined
        .into_iter()
        .enumerate()
        .map(|(id, r)| r.map_err(|_| adaptivetc_core::SchedulerError::WorkerPanicked(id)))
        .collect::<Result<Vec<_>, _>>()?;
    let wall_ns = start.elapsed().as_nanos() as u64;
    let out = shared.root.wait();
    Ok((out, RunReport::from_workers(per_worker, wall_ns)))
}
