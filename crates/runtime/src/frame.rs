//! Task frames and the asynchronous result-delivery chain.
//!
//! A [`Frame`] is the runtime representation of a *task*: the continuation of
//! a node whose children are being spawned. It corresponds to the
//! `task_info` structure the AdaptiveTC compiler allocates at the entry of a
//! fast version (saved program counter = `next`, saved live variables =
//! `state` + the partial result).
//!
//! Frames are **work-first**: the continuation runs in sessions (see
//! [`crate::join`]), and while a worker owns a session the spawn index and
//! the partial result are private to it. A child that completes
//! synchronously hands its result straight back to the spawning loop, so
//! the common case — a frame that is never stolen — finishes without
//! touching its lock or any reference count:
//!
//! * **fast path** — the creating worker pops every continuation entry back,
//!   every child returns its result, and the loop ends with the frame's
//!   result in a local. The frame goes straight back to the worker's pool.
//! * **stolen path** — a thief that takes the continuation starts a new
//!   session and registers the victim's two obligations on the frame's
//!   [`Join`]; the victim, discovering the theft at its pop, contributes its
//!   partial result. A child whose own continuation was stolen returns
//!   *pending* and is registered too; its completer later delivers into the
//!   frame through [`deliver`]. The frame completes when its continuation has
//!   finished and the join's counter reads 0, and completion delivers the
//!   frame's result one level up, cascading until a root/waiter [`OutCell`]
//!   is reached. Suspension at a `sync` is implicit: the continuation
//!   finishes with obligations outstanding, the worker walks away, and the
//!   last discharge performs the completion (the paper's Terminate rule
//!   (3)).
//!
//! Ownership: each frame has exactly one owning `Arc` handle, held by the
//! creating session and parked in the join when that session ends without
//! completing the frame; the event that completes the frame takes it back.
//! Everything else — deque entries on exactly-once backends, children's
//! parent links, the copy-on-steal spine — is a non-owning [`FramePtr`],
//! valid while its holder has an obligation the frame cannot complete
//! without. (Multiplicity backends' entries are weak handles instead, and
//! their thieves hold a strong guard for the session's duration.)
//! A session that a panic unwinds leaks its handle rather than free a frame
//! those pointers may still reach; the run is then poisoned and the other
//! workers leave it (see `engine::Session`).

use crate::join::Join;
use crate::sync::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use crate::sync::{Condvar, Mutex};
use adaptivetc_core::Problem;
use std::ptr::NonNull;
use std::sync::Arc;
use std::time::Duration;

/// A one-shot result mailbox with blocking wait.
///
/// Used for the root task's final result and for the special task's
/// `sync_specialtask` wait.
#[derive(Debug)]
pub(crate) struct OutCell<O> {
    slot: Mutex<Option<O>>,
    cv: Condvar,
    done: AtomicBool,
}

impl<O: Send> OutCell<O> {
    pub(crate) fn new() -> Arc<Self> {
        Arc::new(OutCell {
            slot: Mutex::new(None),
            cv: Condvar::new(),
            done: AtomicBool::new(false),
        })
    }

    pub(crate) fn deliver(&self, out: O) {
        let mut g = self.slot.lock();
        debug_assert!(g.is_none(), "OutCell delivered twice");
        *g = Some(out);
        self.done.store(true, Ordering::Release);
        self.cv.notify_all();
    }

    /// Non-blocking readiness check (workers poll this to terminate).
    pub(crate) fn is_done(&self) -> bool {
        self.done.load(Ordering::Acquire)
    }

    /// Block until the value arrives.
    pub(crate) fn wait(&self) -> O {
        let mut g = self.slot.lock();
        while g.is_none() {
            self.cv.wait(&mut g);
        }
        g.take().expect("guarded by loop")
    }

    /// Block for at most `timeout`; `Some` if the value arrived. Used by
    /// waiters that must keep servicing copy-on-steal workspace requests
    /// while blocked (see `engine::special_section`).
    pub(crate) fn wait_timeout(&self, timeout: Duration) -> Option<O> {
        let mut g = self.slot.lock();
        if g.is_none() {
            let _ = self.cv.wait_for(&mut g, timeout);
        }
        g.take()
    }
}

/// A non-owning reference to a frame.
///
/// Copying one costs nothing and touches no reference count: this is what
/// exactly-once deques carry, what a child stores as its parent link and
/// what the copy-on-steal spine records.
pub(crate) struct FramePtr<P: Problem>(NonNull<Frame<P>>);

impl<P: Problem> Clone for FramePtr<P> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<P: Problem> Copy for FramePtr<P> {}

// SAFETY: a `FramePtr` is only an address; every dereference goes through
// `FramePtr::get`, whose liveness contract does not depend on the thread it
// runs on, and `Frame` itself is `Send + Sync`.
unsafe impl<P: Problem> Send for FramePtr<P> {}
unsafe impl<P: Problem> Sync for FramePtr<P> {}

impl<P: Problem> FramePtr<P> {
    pub(crate) fn new(frame: &Arc<Frame<P>>) -> Self {
        FramePtr(NonNull::from(&**frame))
    }

    /// Borrow the frame.
    ///
    /// # Safety
    ///
    /// The frame must stay live for `'a`. It does while the caller holds
    /// its owning handle, or while the caller holds an obligation the frame
    /// cannot complete without: a session that has not yet run its closing
    /// join event (finish or theft contribution), or a pending child that
    /// has not yet delivered. The borrow ends at that event: the event
    /// itself may be the frame's last access on this thread, and once its
    /// lock is released another worker may complete and free the frame
    /// while the `&Join` the event was called through is still an
    /// argument on this stack. That is the pattern of rust-lang/rust#55005
    /// (`Arc::drop`'s `&self`); it is sound in practice because the join
    /// reads and writes nothing after the unlock, and code after a closing
    /// event must not touch the frame again.
    ///
    /// A panic in user code never ends an obligation early: a session
    /// unwound by a panic leaks its strong handles (see `engine::Session`)
    /// and an unfinished join keeps any handle parked in it, so a frame
    /// that a dead worker will never complete is never freed either.
    pub(crate) unsafe fn get<'a>(self) -> &'a Frame<P> {
        // SAFETY: guaranteed by the caller (see above).
        unsafe { self.0.as_ref() }
    }
}

/// Where a frame delivers its completed result.
pub(crate) enum Parent<P: Problem> {
    /// A root or special-task waiter mailbox.
    Cell(Arc<OutCell<P::Out>>),
    /// An enclosing frame, which cannot complete before this child's
    /// result arrives.
    Frame(FramePtr<P>),
}

impl<P: Problem> Clone for Parent<P> {
    fn clone(&self) -> Self {
        match self {
            Parent::Cell(c) => Parent::Cell(Arc::clone(c)),
            Parent::Frame(f) => Parent::Frame(*f),
        }
    }
}

/// A heap-allocated task continuation.
pub(crate) struct Frame<P: Problem> {
    pub parent: Parent<P>,
    /// The node's taskprivate workspace under eager copying (children get
    /// clones). Immutable while the frame is shared, so the per-spawn clone
    /// takes no lock. `None` for special tasks, which never spawn from
    /// their own workspace, and for copy-on-steal frames, which borrow the
    /// owner's in-place workspace (a thief's clone arrives via `deposit`).
    pub state: Option<P::State>,
    /// Choices at this node, in order.
    pub choices: Vec<P::Choice>,
    /// Index of the next choice to spawn (the saved program counter).
    /// Written by the session's owner before each push of the
    /// continuation; a thief reads it after the steal that hands it over.
    pub next: AtomicUsize,
    /// The slow-path join (see [`crate::join`]).
    pub join: Join<P::Out, Arc<Frame<P>>>,
    /// Copy-on-steal deposit slot (see `ws_ready`).
    deposit: Mutex<Option<P::State>>,
    /// Task depth (the paper's cut-off counter; reset to 0 under a special
    /// task).
    pub depth: u32,
    /// Logical depth of the node in the problem tree (always root-relative;
    /// passed to `Problem::expand`).
    pub logical: u32,
    /// Copy-on-steal handshake. `owner` is the worker whose in-place
    /// workspace this frame borrows; a thief that steals the frame before a
    /// workspace was materialised sets `ws_requested` and waits for the
    /// owner to deposit a clone and publish it through `ws_ready`. The
    /// owner also deposits unconditionally when a pop conflict reveals the
    /// frame was stolen, so a waiting thief always makes progress.
    pub owner: AtomicUsize,
    pub ws_requested: AtomicBool,
    pub ws_ready: AtomicBool,
    /// Generation stamp, bumped every time a pooled frame shell is reused.
    /// A thief snapshots it when it begins the workspace handshake; the
    /// stamp changing under the handshake would mean the frame was recycled
    /// while a steal was in flight (checked in debug builds).
    pub generation: AtomicU32,
    /// Claim epoch for multiplicity deque backends (`fence-free`): each
    /// deque entry snapshots this counter at push time, and every
    /// extraction must CAS it from its snapshot to snapshot+1 before the
    /// frame may run — duplicates of the same entry lose the CAS and are
    /// discarded (`RunStats::dup_extractions`). Strictly monotone over
    /// the *shell's* whole lifetime, pooled reuse included: never reset,
    /// so a stale entry from a previous incarnation can never claim a
    /// recycled shell (ABA guard). Exactly-once backends never touch it.
    pub claim_seq: AtomicU64,
}

// SAFETY: the fields without their own synchronisation (`parent`, `state`,
// `choices`, `depth`, `logical`) are written only through exclusive access
// (construction, or pooled reuse behind `Arc::get_mut`) and otherwise only
// read. `state` and `choices` — whose types need not be `Sync` — are read
// only by the session that currently owns the continuation, and sessions
// hand over through a deque pop/steal or the claim CAS, both release/acquire
// edges, so no two threads ever access them concurrently. Every other field
// (`next`, `join`, `deposit`, `owner`, the handshake flags, `generation`,
// `claim_seq`) is an atomic or lock-protected and `Sync` on its own.
unsafe impl<P: Problem> Sync for Frame<P> {}

impl<P: Problem> Frame<P> {
    /// Create a frame for a node whose continuation is about to run.
    pub(crate) fn new(
        parent: Parent<P>,
        state: Option<P::State>,
        choices: Vec<P::Choice>,
        logical: u32,
        depth: u32,
    ) -> Arc<Self> {
        Arc::new(Frame {
            parent,
            state,
            choices,
            next: AtomicUsize::new(0),
            join: Join::new(),
            deposit: Mutex::new(None),
            depth,
            logical,
            owner: AtomicUsize::new(usize::MAX),
            ws_requested: AtomicBool::new(false),
            ws_ready: AtomicBool::new(false),
            generation: AtomicU32::new(0),
            claim_seq: AtomicU64::new(0),
        })
    }

    /// Owner side of the copy-on-steal handshake: store a materialised
    /// workspace clone and publish it. Idempotent — a deposit racing with a
    /// pop-conflict backstop deposit keeps the first clone.
    pub(crate) fn deposit_ws(&self, state: P::State) {
        let mut g = self.deposit.lock();
        if g.is_none() {
            *g = Some(state);
            drop(g);
            self.ws_ready.store(true, Ordering::Release);
        }
        self.ws_requested.store(false, Ordering::Release);
    }

    /// Thief side: take the deposited workspace if the owner published one.
    /// Consuming the deposit lowers `ws_ready` again, keeping the invariant
    /// `ws_ready ⟺ an untaken deposit is present` — the owner's pop-conflict
    /// backstop relies on it when the same frame shell is stolen again
    /// later (a thief that materialised a frame re-pushes it, and *its*
    /// thief starts a fresh handshake).
    pub(crate) fn try_take_ws(&self) -> Option<P::State> {
        if !self.ws_ready.swap(false, Ordering::AcqRel) {
            return None;
        }
        self.ws_requested.store(false, Ordering::Release);
        self.deposit.lock().take()
    }

    /// Take an untaken deposit out of a frame being recycled.
    pub(crate) fn take_deposit(&mut self) -> Option<P::State> {
        self.deposit.get_mut().take()
    }
}

/// Deliver `out`, the result of a pending child of `parent`, and cascade
/// completions upward. The walk follows parent links by reference; each
/// frame it completes hands over its owning handle, which goes to `retire`
/// once its parent link has been read.
///
/// # Safety
///
/// If `parent` is a frame, `out` must discharge an obligation of that
/// frame — the result of a child that returned pending — so the frame
/// cannot have completed before this call. Every frame further up the
/// chain then owes its completion to its own parent in the same way.
pub(crate) unsafe fn deliver<P: Problem>(
    parent: &Parent<P>,
    out: P::Out,
    mut retire: impl FnMut(Arc<Frame<P>>),
) {
    let mut link = match parent {
        Parent::Cell(cell) => return cell.deliver(out),
        Parent::Frame(f) => *f,
    };
    let mut value = out;
    loop {
        // SAFETY: this delivery is an obligation `link`'s frame cannot
        // complete without (the caller's contract, or the completed
        // child's own parent link one level up), and `f` is not used after
        // the discharge.
        let f = unsafe { link.get() };
        let Some((completed, handle)) = f.join.discharge(value, 1, None) else {
            return;
        };
        value = completed;
        match &handle.parent {
            Parent::Cell(cell) => {
                let cell = Arc::clone(cell);
                retire(handle);
                cell.deliver(value);
                return;
            }
            Parent::Frame(p) => {
                link = *p;
                retire(handle);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaptivetc_core::Expansion;

    struct Nop;
    impl Problem for Nop {
        type State = ();
        type Choice = u8;
        type Out = u64;
        fn root(&self) {}
        fn expand(&self, _: &(), _: u32) -> Expansion<u8, u64> {
            Expansion::Leaf(0)
        }
        fn apply(&self, _: &mut (), _: u8) {}
        fn undo(&self, _: &mut (), _: u8) {}
    }

    fn frame(parent: Parent<Nop>) -> (Arc<Frame<Nop>>, FramePtr<Nop>) {
        let f = Frame::new(parent, Some(()), vec![0; 2], 0, 0);
        let p = FramePtr::new(&f);
        (f, p)
    }

    #[test]
    fn out_cell_roundtrip() {
        let cell: Arc<OutCell<u64>> = OutCell::new();
        assert!(!cell.is_done());
        cell.deliver(42);
        assert!(cell.is_done());
        assert_eq!(cell.wait(), 42);
    }

    #[test]
    fn pending_child_delivery_completes_a_suspended_frame() {
        let cell = OutCell::new();
        let (f, p) = frame(Parent::Cell(Arc::clone(&cell)));
        // SAFETY: the frame's pending child has not delivered yet.
        let join = &unsafe { p.get() }.join;
        assert!(join.finish(10, 1, Some(f)).is_none(), "one child pending");
        let mut retired = 0;
        // SAFETY: 5 is the pending child's result the frame registered.
        unsafe { deliver(&Parent::Frame(p), 5, |_| retired += 1) };
        assert_eq!(cell.wait(), 15);
        assert_eq!(retired, 1, "the completer retires the parked handle");
    }

    #[test]
    fn completion_cascades_through_nested_frames() {
        let cell = OutCell::new();
        let (top, tp) = frame(Parent::Cell(Arc::clone(&cell)));
        let (mid, mp) = frame(Parent::Frame(tp));
        assert!(top.join.finish(1, 1, Some(Arc::clone(&top))).is_none());
        drop(top);
        assert!(mid.join.finish(2, 1, Some(Arc::clone(&mid))).is_none());
        drop(mid);
        let mut retired = 0;
        // SAFETY: mid registered one pending child; completing mid
        // discharges the child top registered. Completes mid, then top.
        unsafe { deliver(&Parent::Frame(mp), 7, |_| retired += 1) };
        assert_eq!(cell.wait(), 10);
        assert_eq!(retired, 2);
    }

    #[test]
    fn delivery_to_an_unfinished_frame_stops() {
        let cell = OutCell::new();
        let (f, p) = frame(Parent::Cell(Arc::clone(&cell)));
        // SAFETY: the frame registers this child at its finish below; the
        // test holds the owning handle throughout.
        unsafe { deliver(&Parent::Frame(p), 3, |_| panic!("nothing completes")) };
        assert!(!cell.is_done());
        let (out, _handle) = f
            .join
            .finish(4, 1, Some(Arc::clone(&f)))
            .expect("the early delivery balanced the registration");
        assert_eq!(out, 7);
    }

    #[test]
    fn blocking_wait_wakes_from_another_thread() {
        let cell: Arc<OutCell<u64>> = OutCell::new();
        let c2 = Arc::clone(&cell);
        std::thread::scope(|s| {
            s.spawn(move || {
                std::thread::sleep(std::time::Duration::from_millis(10));
                c2.deliver(9);
            });
            assert_eq!(cell.wait(), 9);
        });
    }
}
