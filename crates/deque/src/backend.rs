//! The pluggable deque-backend abstraction.
//!
//! Every substrate in this crate exposes the same owner/thief protocol —
//! LIFO push/pop at the tail for the owner, FIFO steal at the head for
//! thieves, plus AdaptiveTC's special-task operations. [`WsDeque`] captures
//! that protocol so the runtime engine can be instantiated over any
//! backend ([`TheDeque`], [`ChaseLevDeque`], [`PoolDeque`],
//! [`FenceFreeDeque`]) and the ablation harness can compare them under
//! identical workloads.
//!
//! # Protocol contract
//!
//! Implementations must uphold, for a single owner thread and any number
//! of concurrent thieves:
//!
//! 1. every pushed entry is claimed by **exactly one** party (the owner's
//!    matching pop, or one thief's steal);
//! 2. a special entry is **never returned by [`steal`](WsDeque::steal)**:
//!    a thief that finds one at the head retires it and takes the entry
//!    above it (the special task's child) instead;
//! 3. [`pop_special`](WsDeque::pop_special) returns
//!    [`PopSpecial::Reclaimed`] only when the matching special entry is
//!    still present; once any thief has consumed the special's slot it
//!    returns [`PopSpecial::ChildStolen`].
//!
//! Lock-free backends may additionally report `ChildStolen` in a benign
//! race where the special entry was retired but its child was reclaimed
//! by the owner first; the runtime treats `ChildStolen` as "do not reuse
//! the handle", which is safe in both cases.
//!
//! Backends that set [`CAN_DUPLICATE`](WsDeque::CAN_DUPLICATE) weaken
//! property (1) to **at least one** party: the owner's pop may *offer* an
//! entry a thief already took (and `pop_special` may report `Reclaimed`
//! while a thief still races for the child). Such backends are only sound
//! under the engine's claim layer, which gates every execution behind a
//! per-frame epoch CAS so exactly-once *execution* still holds; the
//! copy-on-steal deposit handshake then keys off the claim winner instead
//! of the pop/steal race. See [`FenceFreeDeque`] and DESIGN.md §6.
//!
//! Backends carry opaque entries and know nothing about taskprivate
//! workspaces. Under the runtime's copy-on-steal policy a stolen entry
//! may reference a workspace the owner is still mutating in place; the
//! *engine's* steal path materialises an isolated clone via the frame's
//! deposit handshake before the stolen frame runs, so the same protocol
//! holds on every backend with no per-backend code (property (1) is what
//! makes the handshake sound: exactly one of {owner pop, thief steal}
//! claims the entry, and the loser's side of the pop/steal race is the
//! deposit trigger).

use crate::{
    ChaseLevDeque, ClSteal, FenceFreeDeque, Overflow, PoolDeque, PopSpecial, StealOutcome, TheDeque,
};

/// A work-stealing deque usable as the engine's task substrate.
///
/// See the [module documentation](self) for the protocol contract.
///
/// # Examples
///
/// ```
/// use adaptivetc_deque::{StealOutcome, WsDeque};
///
/// fn drain_oldest<D: WsDeque<u32>>(dq: &D) -> Vec<u32> {
///     let mut out = Vec::new();
///     while let StealOutcome::Stolen(v) = dq.steal() {
///         out.push(v);
///     }
///     out
/// }
///
/// let dq = adaptivetc_deque::ChaseLevDeque::with_capacity(8);
/// WsDeque::push(&dq, 1).unwrap(); // inherent `push` returns (), the trait's returns Result
/// WsDeque::push(&dq, 2).unwrap();
/// assert_eq!(drain_oldest(&dq), vec![1, 2]);
/// ```
pub trait WsDeque<T: Send>: Send + Sync {
    /// Short name for reports and benchmark labels.
    const NAME: &'static str;

    /// Whether an entry may be extracted more than once (multiplicity).
    ///
    /// `false` for exactly-once backends. When `true`, the engine must
    /// run its claim layer (per-frame epoch CAS) over every extraction;
    /// see the [module documentation](self).
    const CAN_DUPLICATE: bool = false;

    /// Create a deque able to hold at least `capacity` entries before a
    /// push can fail (growable backends never fail and treat `capacity`
    /// as the initial allocation).
    fn with_capacity(capacity: usize) -> Self
    where
        Self: Sized;

    /// Owner: push a regular task at the tail.
    ///
    /// # Errors
    ///
    /// Returns [`Overflow`] when a fixed capacity is exhausted.
    fn push(&self, value: T) -> Result<(), Overflow>;

    /// Owner: push a special (transition) task at the tail.
    ///
    /// # Errors
    ///
    /// Returns [`Overflow`] when a fixed capacity is exhausted.
    fn push_special(&self, value: T) -> Result<(), Overflow>;

    /// Owner: pop the entry it pushed most recently; `None` if stolen.
    fn pop(&self) -> Option<T>;

    /// Owner: pop a special entry, detecting whether a thief consumed it.
    fn pop_special(&self) -> PopSpecial<T>;

    /// Thief: steal the oldest stealable entry. Blocks only for bounded
    /// internal retries; returns [`StealOutcome::Empty`] when nothing is
    /// stealable.
    fn steal(&self) -> StealOutcome<T> {
        self.steal_reporting().0
    }

    /// As [`steal`](WsDeque::steal), also reporting how many special
    /// entries the call retired (property 2) — the thief's side of the
    /// loss the owner's [`pop_special`](WsDeque::pop_special) reports as
    /// [`PopSpecial::ChildStolen`]. On exactly-once backends the two pair
    /// one to one; a multiplicity backend may report `Reclaimed` for a
    /// retired special whose child the owner claimed first. One attempt
    /// retires at most one special, but a backend that retries
    /// internally may retire another on a later attempt.
    fn steal_reporting(&self) -> (StealOutcome<T>, u32);

    /// Thief: steal up to `max` entries in one probe (multi-pop for
    /// steal-half extraction), appending them to `out` oldest-first and
    /// returning how many were taken. The default repeats
    /// [`steal`](WsDeque::steal) and stops at the first empty outcome,
    /// which every backend supports; backends with a cheaper batched
    /// head CAS may override it. Partial batches are normal — the
    /// caller gets whatever was stealable, never an error.
    fn steal_many(&self, max: usize, out: &mut Vec<T>) -> usize {
        let mut taken = 0;
        while taken < max {
            match self.steal() {
                StealOutcome::Stolen(v) => {
                    out.push(v);
                    taken += 1;
                }
                StealOutcome::Empty => break,
            }
        }
        taken
    }

    /// Entries currently present (racy; for statistics).
    fn len(&self) -> usize;

    /// Whether the deque currently appears empty (racy; for statistics).
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T: Send> WsDeque<T> for TheDeque<T> {
    const NAME: &'static str = "the";

    fn with_capacity(capacity: usize) -> Self {
        TheDeque::new(capacity)
    }

    fn push(&self, value: T) -> Result<(), Overflow> {
        TheDeque::push(self, value)
    }

    fn push_special(&self, value: T) -> Result<(), Overflow> {
        TheDeque::push_special(self, value)
    }

    fn pop(&self) -> Option<T> {
        TheDeque::pop(self)
    }

    fn pop_special(&self) -> PopSpecial<T> {
        TheDeque::pop_special(self)
    }

    fn steal_reporting(&self) -> (StealOutcome<T>, u32) {
        let (outcome, retired) = TheDeque::steal_reporting(self);
        (outcome, u32::from(retired))
    }

    fn len(&self) -> usize {
        TheDeque::len(self)
    }
}

impl<T: Send> WsDeque<T> for ChaseLevDeque<T> {
    const NAME: &'static str = "chase-lev";

    fn with_capacity(capacity: usize) -> Self {
        ChaseLevDeque::with_capacity(capacity)
    }

    fn push(&self, value: T) -> Result<(), Overflow> {
        ChaseLevDeque::push(self, value);
        Ok(())
    }

    fn push_special(&self, value: T) -> Result<(), Overflow> {
        ChaseLevDeque::push_special(self, value);
        Ok(())
    }

    fn pop(&self) -> Option<T> {
        ChaseLevDeque::pop(self)
    }

    fn pop_special(&self) -> PopSpecial<T> {
        ChaseLevDeque::pop_special(self)
    }

    fn steal_reporting(&self) -> (StealOutcome<T>, u32) {
        // `Retry` means another party's CAS succeeded between our read and
        // our claim, so spinning here is globally lock-free. A special
        // retired by an attempt that then had to retry still counts.
        let mut retired = 0;
        loop {
            let (outcome, r) = ChaseLevDeque::steal_reporting(self);
            retired += u32::from(r);
            match outcome {
                ClSteal::Stolen(v) => return (StealOutcome::Stolen(v), retired),
                ClSteal::Empty => return (StealOutcome::Empty, retired),
                ClSteal::Retry => std::hint::spin_loop(),
            }
        }
    }

    fn len(&self) -> usize {
        ChaseLevDeque::len(self)
    }
}

impl<T: Send> WsDeque<T> for PoolDeque<T> {
    const NAME: &'static str = "pool";

    fn with_capacity(_capacity: usize) -> Self {
        PoolDeque::new()
    }

    fn push(&self, value: T) -> Result<(), Overflow> {
        PoolDeque::push(self, value);
        Ok(())
    }

    fn push_special(&self, value: T) -> Result<(), Overflow> {
        PoolDeque::push_special(self, value);
        Ok(())
    }

    fn pop(&self) -> Option<T> {
        PoolDeque::pop(self)
    }

    fn pop_special(&self) -> PopSpecial<T> {
        PoolDeque::pop_special(self)
    }

    fn steal_reporting(&self) -> (StealOutcome<T>, u32) {
        let (outcome, retired) = PoolDeque::steal_reporting(self);
        (outcome, u32::from(retired))
    }

    fn len(&self) -> usize {
        PoolDeque::len(self)
    }
}

impl<T: Send + Sync + Clone> WsDeque<T> for FenceFreeDeque<T> {
    const NAME: &'static str = "fence-free";
    const CAN_DUPLICATE: bool = true;

    fn with_capacity(capacity: usize) -> Self {
        FenceFreeDeque::with_capacity(capacity)
    }

    fn push(&self, value: T) -> Result<(), Overflow> {
        FenceFreeDeque::push(self, value);
        Ok(())
    }

    fn push_special(&self, value: T) -> Result<(), Overflow> {
        FenceFreeDeque::push_special(self, value);
        Ok(())
    }

    fn pop(&self) -> Option<T> {
        FenceFreeDeque::pop(self)
    }

    fn pop_special(&self) -> PopSpecial<T> {
        FenceFreeDeque::pop_special(self)
    }

    fn steal_reporting(&self) -> (StealOutcome<T>, u32) {
        let (outcome, retired) = FenceFreeDeque::steal_reporting(self);
        (outcome, u32::from(retired))
    }

    fn len(&self) -> usize {
        FenceFreeDeque::len(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The generic protocol smoke test every backend must pass.
    fn protocol_smoke<D: WsDeque<u32>>() {
        let d = D::with_capacity(16);
        // LIFO owner, FIFO thief.
        d.push(1).unwrap();
        d.push(2).unwrap();
        d.push(3).unwrap();
        assert_eq!(d.len(), 3);
        assert_eq!(d.steal_reporting(), (StealOutcome::Stolen(1), 0));
        assert_eq!(d.pop(), Some(3));
        assert_eq!(d.steal(), StealOutcome::Stolen(2));
        assert_eq!(d.pop(), None);
        assert_eq!(d.steal(), StealOutcome::Empty);
        assert!(d.is_empty());

        // Special-task protocol: a lone special is unstealable …
        d.push_special(42).unwrap();
        assert_eq!(d.steal_reporting(), (StealOutcome::Empty, 0));
        assert_eq!(d.pop_special(), PopSpecial::Reclaimed(42));
        // … a special with a child yields the child and is retired, which
        // the thief is told and the owner's pop_special reports …
        d.push_special(43).unwrap();
        d.push(7).unwrap();
        assert_eq!(d.steal_reporting(), (StealOutcome::Stolen(7), 1));
        assert_eq!(d.pop_special(), PopSpecial::ChildStolen);
        // … and the owner reclaims it when the child was not stolen.
        d.push_special(44).unwrap();
        d.push(8).unwrap();
        assert_eq!(d.pop(), Some(8));
        assert_eq!(d.pop_special(), PopSpecial::Reclaimed(44));
        assert!(d.is_empty());
    }

    #[test]
    fn the_deque_satisfies_protocol() {
        protocol_smoke::<TheDeque<u32>>();
    }

    #[test]
    fn chase_lev_satisfies_protocol() {
        protocol_smoke::<ChaseLevDeque<u32>>();
    }

    #[test]
    fn pool_deque_satisfies_protocol() {
        protocol_smoke::<PoolDeque<u32>>();
    }

    /// The fence-free backend's multiplicity-adjusted smoke test: same
    /// protocol shape as [`protocol_smoke`], but property (1) is
    /// at-least-once — pops *offer* stolen entries (the claim layer's
    /// job to reject) — and `len` is a racy over-estimate after steals.
    #[test]
    fn fence_free_satisfies_relaxed_protocol() {
        type D = FenceFreeDeque<u32>;
        const { assert!(<D as WsDeque<u32>>::CAN_DUPLICATE) };
        let d = <D as WsDeque<u32>>::with_capacity(16);
        WsDeque::push(&d, 1).unwrap();
        WsDeque::push(&d, 2).unwrap();
        WsDeque::push(&d, 3).unwrap();
        assert_eq!(WsDeque::len(&d), 3);
        assert_eq!(WsDeque::steal(&d), StealOutcome::Stolen(1));
        assert_eq!(WsDeque::pop(&d), Some(3));
        assert_eq!(WsDeque::steal(&d), StealOutcome::Stolen(2));
        assert_eq!(WsDeque::pop(&d), Some(2), "duplicate offer of stolen 2");
        assert_eq!(WsDeque::pop(&d), Some(1), "duplicate offer of stolen 1");
        assert_eq!(WsDeque::pop(&d), None);
        assert_eq!(
            WsDeque::steal(&d),
            StealOutcome::Stolen(3),
            "cursor re-offers the owner-popped 3"
        );
        assert_eq!(WsDeque::steal(&d), StealOutcome::Empty);

        // Special-task protocol: identical to the exact backends, except
        // that the stolen child's dead offer is discarded internally when
        // pop_special is called without popping the child first.
        WsDeque::push_special(&d, 42).unwrap();
        assert_eq!(WsDeque::steal_reporting(&d), (StealOutcome::Empty, 0));
        assert_eq!(WsDeque::pop_special(&d), PopSpecial::Reclaimed(42));
        WsDeque::push_special(&d, 43).unwrap();
        WsDeque::push(&d, 7).unwrap();
        assert_eq!(WsDeque::steal_reporting(&d), (StealOutcome::Stolen(7), 1));
        assert_eq!(WsDeque::pop_special(&d), PopSpecial::ChildStolen);
        WsDeque::push_special(&d, 44).unwrap();
        WsDeque::push(&d, 8).unwrap();
        assert_eq!(WsDeque::pop(&d), Some(8));
        assert_eq!(WsDeque::pop_special(&d), PopSpecial::Reclaimed(44));
    }

    #[test]
    fn steal_many_takes_oldest_first_and_stops_at_empty() {
        fn check<D: WsDeque<u32>>() {
            let d = D::with_capacity(16);
            for v in 1..=5u32 {
                WsDeque::push(&d, v).unwrap();
            }
            let mut out = Vec::new();
            assert_eq!(d.steal_many(3, &mut out), 3);
            assert_eq!(out, vec![1, 2, 3]);
            // Asking for more than remains takes what is there.
            assert_eq!(d.steal_many(10, &mut out), 2);
            assert_eq!(out, vec![1, 2, 3, 4, 5]);
            assert_eq!(d.steal_many(4, &mut out), 0);
        }
        check::<TheDeque<u32>>();
        check::<ChaseLevDeque<u32>>();
        check::<PoolDeque<u32>>();
        check::<FenceFreeDeque<u32>>();
    }

    #[test]
    fn backend_names_are_distinct() {
        let names = [
            <TheDeque<u32> as WsDeque<u32>>::NAME,
            <ChaseLevDeque<u32> as WsDeque<u32>>::NAME,
            <PoolDeque<u32> as WsDeque<u32>>::NAME,
            <FenceFreeDeque<u32> as WsDeque<u32>>::NAME,
        ];
        assert_eq!(names, ["the", "chase-lev", "pool", "fence-free"]);
        const {
            assert!(!<TheDeque<u32> as WsDeque<u32>>::CAN_DUPLICATE);
            assert!(!<ChaseLevDeque<u32> as WsDeque<u32>>::CAN_DUPLICATE);
            assert!(!<PoolDeque<u32> as WsDeque<u32>>::CAN_DUPLICATE);
        }
    }
}
