//! The slow-path join of a work-first frame.
//!
//! A frame's continuation runs in *sessions*. The first session belongs
//! to the worker that created the frame; every theft of the continuation
//! (a deque steal, or a won claim CAS on a multiplicity backend) ends the
//! current session and starts a new one on the thief. While a session
//! runs, its spawn index and partial result are private to the session's
//! worker; a [`Join`] is touched only by the four events below, so a
//! session that is never stolen and whose children all complete
//! synchronously finishes without taking the lock at all.
//!
//! The join holds a signed obligation counter `count`, a partial result
//! `acc` and a `done` flag:
//!
//! | event | who | update |
//! |---|---|---|
//! | stolen session starts | thief | `+2`: the victim's partial result, and the victim's in-flight child |
//! | child returns *pending* (its own continuation was stolen) | session owner | `+1` |
//! | theft discovered | victim | adds its partial result, `−1`; `−1` more if the in-flight child completed synchronously (its result travels in the partial) |
//! | pending child completes | the child's completer | adds the child's result, `−1` |
//! | continuation finishes its loop | session owner | adds its partial result, sets `done` |
//!
//! The frame completes — exactly once — when `done` is set and `count`
//! reads 0; whichever event observes that takes the result. A pending
//! child's `−1` may arrive before its `+1`, and a victim's `−1`s before
//! the thief's `+2`, which is why the counter is signed.
//!
//! **Invariant.** Registrations a session owes (the thief's `+2`, a
//! pending child's `+1`) may be deferred, but never past the point where
//! the continuation becomes stealable again (the session's next push) or
//! past the session's finish (where they are applied under the same lock
//! that sets `done`). Then, whenever `done` is set, every obligation of
//! every earlier session and every pending child is either registered
//! or already discharged, so `count == 0` implies all results are in.
//!
//! The thief registers *two* obligations, not one: with only the
//! in-flight child covered, a victim whose earlier pending children all
//! deliver before the victim contributes would let the count reach 0
//! while the victim's partial result is still missing (the
//! `join_protocol` model suite in `crates/check` refutes that variant).
//!
//! The frame's owning handle rides along: a finishing session that does
//! not complete the frame parks its handle here ([`Join::finish`]), and
//! the event that completes the frame takes it back, so a suspended
//! frame stays alive until its last obligation is discharged.
//!
//! This file is `#[path]`-included into `adaptivetc-check`, where
//! `crate::sync` resolves to the model primitives.

use crate::sync::Mutex;
use adaptivetc_core::Reduce;

/// The lock-protected join state of one frame; see the module docs.
pub struct Join<O, K> {
    cell: Mutex<JoinCell<O, K>>,
}

struct JoinCell<O, K> {
    acc: O,
    count: i64,
    done: bool,
    /// The owning handle a finished-but-incomplete frame parks here.
    keep: Option<K>,
}

impl<O: Reduce, K> Default for Join<O, K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<O: Reduce, K> Join<O, K> {
    /// A fresh join: no obligations, nothing accumulated.
    pub fn new() -> Self {
        Join {
            cell: Mutex::new(JoinCell {
                acc: O::identity(),
                count: 0,
                done: false,
                keep: None,
            }),
        }
    }

    /// Reset a recycled join (exclusive access, so no locking).
    pub fn reset(&mut self) {
        let c = self.cell.get_mut();
        debug_assert!(c.keep.is_none(), "recycled a join that parks a handle");
        c.acc = O::identity();
        c.count = 0;
        c.done = false;
    }

    /// Register `n` obligations owed by the current session (a thief's
    /// `+2`, pending children). Must happen before the continuation is
    /// pushed again.
    pub fn register(&self, n: i64) {
        self.cell.lock().count += n;
    }

    /// Fold `out` in and discharge `n` obligations: a pending child's
    /// delivery (`n = 1`, no handle) or a victim's contribution at theft
    /// discovery (`n = 1`, or 2 with a synchronous in-flight child; the
    /// creating session hands over the frame's owning handle here).
    /// Returns the frame's result and owning handle if this completed it.
    pub fn discharge(&self, out: O, n: i64, handle: Option<K>) -> Option<(O, K)> {
        self.settle(out, -n, false, handle)
    }

    /// The continuation finished its loop: fold the session's partial
    /// result in, register the `owed` obligations it deferred and set
    /// `done`. Returns the result and the owning handle if the frame is
    /// complete; otherwise a handle passed in is parked until the last
    /// discharge.
    pub fn finish(&self, acc: O, owed: i64, handle: Option<K>) -> Option<(O, K)> {
        self.settle(acc, owed, true, handle)
    }

    /// Apply one join event under the lock. Once the guard unlocks, a
    /// worker applying a later event may complete the frame and free it,
    /// so nothing here touches `self` after the unlock (the `&self` borrow
    /// can outlive the frame; see `FramePtr::get`).
    fn settle(&self, out: O, delta: i64, finish: bool, handle: Option<K>) -> Option<(O, K)> {
        let mut c = self.cell.lock();
        // Park a handed-over handle before running `combine`: user code
        // that panics there must leave the handle with the frame rather
        // than drop it while other workers may still reach the frame.
        if handle.is_some() {
            debug_assert!(c.keep.is_none(), "two owning handles for one frame");
            c.keep = handle;
        }
        c.acc.combine(out);
        c.count += delta;
        if finish {
            debug_assert!(!c.done, "a continuation finished twice");
            c.done = true;
        }
        if c.done && c.count == 0 {
            let handle = c
                .keep
                .take()
                .expect("the owning handle is parked before the frame can complete");
            Some((std::mem::replace(&mut c.acc, O::identity()), handle))
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The frame's owning handle, as a plain token.
    const H: u8 = 7;

    #[test]
    fn untouched_join_completes_at_finish() {
        let j: Join<u64, u8> = Join::new();
        assert_eq!(j.finish(5, 0, Some(H)), Some((5, H)));
    }

    #[test]
    fn pending_child_completes_a_suspended_frame() {
        let j: Join<u64, u8> = Join::new();
        assert_eq!(
            j.finish(5, 1, Some(H)),
            None,
            "suspended with one child out"
        );
        assert_eq!(
            j.discharge(3, 1, None),
            Some((8, H)),
            "last child completes"
        );
    }

    #[test]
    fn early_delivery_runs_the_counter_negative_without_completing() {
        let j: Join<u64, u8> = Join::new();
        assert_eq!(
            j.discharge(3, 1, None),
            None,
            "delivery before registration"
        );
        assert_eq!(j.finish(5, 1, Some(H)), Some((8, H)));
    }

    #[test]
    fn victim_contribution_after_thief_finish_completes() {
        let j: Join<u64, u8> = Join::new();
        // Thief session: registers the victim's two obligations with done.
        assert_eq!(j.finish(4, 2, None), None);
        // Victim: partial 1 plus a synchronous in-flight child 2.
        assert_eq!(j.discharge(1 + 2, 2, Some(H)), Some((7, H)));
    }

    #[test]
    fn victim_contribution_before_thief_finish_parks_the_handle() {
        let j: Join<u64, u8> = Join::new();
        // Victim first, its in-flight child pending: one obligation.
        assert_eq!(j.discharge(1, 1, Some(H)), None);
        assert_eq!(j.finish(4, 2, None), None, "in-flight child still out");
        assert_eq!(j.discharge(2, 1, None), Some((7, H)));
    }

    #[test]
    fn reset_clears_a_completed_join() {
        let mut j: Join<u64, u8> = Join::new();
        assert_eq!(j.finish(5, 1, Some(H)), None);
        assert_eq!(j.discharge(1, 1, None), Some((6, H)));
        j.reset();
        assert_eq!(j.finish(2, 0, Some(H)), Some((2, H)));
    }
}
