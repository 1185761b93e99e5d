//! A growable deque with THE-protocol-compatible semantics.

use crate::sync::Mutex;
use crate::the::{PopSpecial, StealOutcome};
use std::collections::VecDeque;
use std::fmt;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Task,
    Special,
}

struct Inner<T> {
    items: VecDeque<(Kind, T)>,
    peak: usize,
}

/// A growable work-stealing deque with the same observable semantics as
/// [`TheDeque`](crate::TheDeque), including the special-task rules.
///
/// The paper cites buffer-pool / growable deques as the remedy for the
/// overflow-proneness of Cilk's fixed-size arrays. This implementation
/// favours simplicity over speed: one mutex guards all operations, and the
/// backing store grows without bound. It exists for the overflow ablation
/// and as a drop-in alternative backing store; the measured experiments use
/// [`TheDeque`](crate::TheDeque).
///
/// Semantics parity holds because thieves always consume a prefix of the
/// logical index range and the owner a suffix, so "front" and "back" of a
/// `VecDeque` coincide with the THE head and tail.
///
/// # Examples
///
/// ```
/// use adaptivetc_deque::{PoolDeque, StealOutcome, PopSpecial};
///
/// let dq: PoolDeque<u32> = PoolDeque::new();
/// for i in 0..10_000 { dq.push(i); } // never overflows
/// assert_eq!(dq.steal(), StealOutcome::Stolen(0));
/// assert_eq!(dq.pop(), Some(9_999));
/// ```
pub struct PoolDeque<T> {
    inner: Mutex<Inner<T>>,
}

impl<T> PoolDeque<T> {
    /// Create an empty deque.
    pub fn new() -> Self {
        PoolDeque {
            inner: Mutex::new(Inner {
                items: VecDeque::new(),
                peak: 0,
            }),
        }
    }

    /// Owner: push a regular task at the tail. Never fails.
    pub fn push(&self, value: T) {
        let mut g = self.inner.lock();
        g.items.push_back((Kind::Task, value));
        g.peak = g.peak.max(g.items.len());
    }

    /// Owner: push a special (transition) task at the tail. Never fails.
    pub fn push_special(&self, value: T) {
        let mut g = self.inner.lock();
        g.items.push_back((Kind::Special, value));
        g.peak = g.peak.max(g.items.len());
    }

    /// Owner: pop its most recent push; `None` if it was stolen.
    pub fn pop(&self) -> Option<T> {
        let mut g = self.inner.lock();
        match g.items.back() {
            Some((Kind::Task, _)) => g.items.pop_back().map(|(_, v)| v),
            _ => None,
        }
    }

    /// Owner: pop a special entry, detecting whether its child was stolen.
    pub fn pop_special(&self) -> PopSpecial<T> {
        let mut g = self.inner.lock();
        match g.items.back() {
            Some((Kind::Special, _)) => {
                let (_, v) = g.items.pop_back().expect("just observed");
                PopSpecial::Reclaimed(v)
            }
            _ => PopSpecial::ChildStolen,
        }
    }

    /// Thief: steal the oldest stealable entry. A special entry at the head
    /// yields its child (the entry above it) and is retired.
    #[inline]
    pub fn steal(&self) -> StealOutcome<T> {
        self.steal_reporting().0
    }

    /// As [`steal`](PoolDeque::steal), also reporting whether the call
    /// retired a special entry (always together with its child).
    pub fn steal_reporting(&self) -> (StealOutcome<T>, bool) {
        let mut g = self.inner.lock();
        match g.items.front() {
            None => (StealOutcome::Empty, false),
            Some((Kind::Task, _)) => {
                let (_, v) = g.items.pop_front().expect("just observed");
                (StealOutcome::Stolen(v), false)
            }
            Some((Kind::Special, _)) => match g.items.get(1) {
                Some((Kind::Task, _)) => {
                    // steal_specialtask: retire the special, take its child.
                    g.items.pop_front();
                    let (_, v) = g.items.pop_front().expect("just observed");
                    (StealOutcome::Stolen(v), true)
                }
                _ => (StealOutcome::Empty, false),
            },
        }
    }

    /// Current number of entries (exact, taken under the lock).
    pub fn len(&self) -> usize {
        self.inner.lock().items.len()
    }

    /// Whether the deque is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Peak occupancy observed since creation.
    pub fn peak(&self) -> usize {
        self.inner.lock().peak
    }
}

impl<T> Default for PoolDeque<T> {
    fn default() -> Self {
        PoolDeque::new()
    }
}

impl<T> fmt::Debug for PoolDeque<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let g = self.inner.lock();
        f.debug_struct("PoolDeque")
            .field("len", &g.items.len())
            .field("peak", &g.peak)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifo_owner_fifo_thief() {
        let d: PoolDeque<u32> = PoolDeque::new();
        d.push(1);
        d.push(2);
        d.push(3);
        assert_eq!(d.steal(), StealOutcome::Stolen(1));
        assert_eq!(d.pop(), Some(3));
        assert_eq!(d.steal(), StealOutcome::Stolen(2));
        assert_eq!(d.pop(), None);
    }

    #[test]
    fn grows_without_overflow() {
        let d: PoolDeque<usize> = PoolDeque::new();
        for i in 0..100_000 {
            d.push(i);
        }
        assert_eq!(d.len(), 100_000);
        assert_eq!(d.peak(), 100_000);
    }

    #[test]
    fn special_semantics_match_the_deque() {
        let d: PoolDeque<u32> = PoolDeque::new();
        d.push_special(42);
        assert_eq!(d.steal(), StealOutcome::Empty);
        d.push(7);
        assert_eq!(d.steal(), StealOutcome::Stolen(7));
        assert_eq!(d.pop_special(), PopSpecial::ChildStolen);

        d.push_special(43);
        d.push(8);
        assert_eq!(d.pop(), Some(8));
        assert_eq!(d.pop_special(), PopSpecial::Reclaimed(43));
    }

    #[test]
    fn frames_above_special_child_are_stealable() {
        let d: PoolDeque<u32> = PoolDeque::new();
        d.push_special(99);
        d.push(1); // the special's child
        d.push(2); // a frame pushed by the child's execution
        assert_eq!(d.steal(), StealOutcome::Stolen(1));
        assert_eq!(d.steal(), StealOutcome::Stolen(2));
        assert_eq!(d.pop(), None);
        assert_eq!(d.pop_special(), PopSpecial::ChildStolen);
        assert!(d.is_empty());
    }
}
