//! A fully read/write fence-free work-stealing deque with multiplicity,
//! after Castañeda & Piña (PPoPP 2021 / TPDS 2023).
//!
//! The THE and Chase-Lev protocols buy *exactly-once* extraction with a
//! store-load fence (or SeqCst RMW) on the owner's pop path — the very
//! cost the paper's Table 2 charges to every serialised task. This
//! backend removes it by **relaxing exactness to multiplicity**: a task
//! may be *extracted* more than once (at most once per thief, at most
//! twice overall in practice), and a claim layer above the deque —
//! `adaptivetc-runtime`'s epoch CAS on the frame, see
//! `RunStats::dup_extractions` — arbitrates which extraction gets to
//! *execute*. The owner's push and pop then perform **zero fences, zero
//! SeqCst operations and zero RMWs**:
//!
//! * the log is append-only: `tail` and `head` are monotone counters that
//!   are never decremented, and every slot is written exactly once by the
//!   owner before being published by one `Release` store of `tail`;
//! * the owner keeps a thread-local stack of the indices it pushed; `pop`
//!   is a stack pop plus a plain clone of the slot — it never reads or
//!   writes `head`, so there is nothing to fence against;
//! * thieves advance the `head` cursor with a `Relaxed` CAS *after*
//!   cloning the slot; the CAS only arbitrates the cursor between
//!   thieves, not ownership of the value — extraction is duplicated
//!   exactly when the owner pops an entry the cursor also passes.
//!
//! # Contract relaxation
//!
//! Property (1) of the [`WsDeque`](crate::WsDeque) protocol contract
//! ("claimed by exactly one party") is weakened to **at least one party**;
//! [`pop`](FenceFreeDeque::pop) always offers the entry it matched, even
//! if a thief's cursor already passed it. Likewise
//! [`pop_special`](FenceFreeDeque::pop_special) decides `ChildStolen` by
//! a `Relaxed` read of the cursor: it may report `Reclaimed` while a
//! thief is still racing for the child. Both are sound **only** under a
//! claim layer that (a) gates every execution behind an epoch CAS and
//! (b) runs the owner's claim *before* acting on `Reclaimed` — which the
//! engine does; see DESIGN.md §6. The raw deque is not a drop-in
//! exactly-once substrate, which is why
//! [`WsDeque::CAN_DUPLICATE`](crate::WsDeque::CAN_DUPLICATE) is `true`
//! here and the engine only enables the claim path for such backends.
//!
//! # Space
//!
//! Slots are never reused (reuse would let a lagging thief clone a
//! recycled value); memory grows with the *total* number of pushes, in
//! doubling segments reachable from a fixed directory so published slots
//! never move. The paper's adaptive strategy pushes orders of magnitude
//! fewer tasks than Cilk-style always-spawn, which is what makes this
//! trade acceptable here.

use crate::sync::{AtomicPtr, AtomicU64, Ordering, RaceCell};
use crate::the::{PopSpecial, StealOutcome};
use crossbeam_utils::CachePadded;
use std::fmt;
use std::mem::MaybeUninit;
use std::ptr;

const KIND_TASK: u8 = 1;
const KIND_SPECIAL: u8 = 2;

/// Directory entries; segment `s` holds `base << s` slots, so 48 entries
/// address ~2^48 * base total pushes — unreachable in practice.
const DIR_ENTRIES: usize = 48;

/// One write-once slot of the publication log. Plain (non-atomic) cells:
/// the owner's single write happens-before every reader via the `Release`
/// store of `tail` / `Acquire` load by the thief, and the value is only
/// ever *cloned* through a shared reference after that, never mutated.
/// Unlike the recycling backends, every access here is fully race-checked
/// under `cfg(adaptivetc_check)` — write-once publication needs no
/// speculative escape hatch (DESIGN.md §16).
struct Slot<T> {
    kind: RaceCell<u8>,
    value: RaceCell<MaybeUninit<T>>,
}

struct Segment<T> {
    slots: Box<[Slot<T>]>,
}

impl<T> Segment<T> {
    fn alloc(len: usize) -> *mut Segment<T> {
        let slots = (0..len)
            .map(|_| Slot {
                kind: RaceCell::new(0),
                value: RaceCell::new(MaybeUninit::uninit()),
            })
            .collect::<Vec<_>>()
            .into_boxed_slice();
        Box::into_raw(Box::new(Segment { slots }))
    }
}

/// Owner-local bookkeeping; only the owner thread touches it.
struct OwnerState {
    /// Next log index to write (mirror of `tail`, kept local so a push
    /// does not even need a `Relaxed` load).
    next: u64,
    /// Indices of the owner's live (pushed, not yet popped) entries, in
    /// push order — the LIFO the owner pops from.
    stack: Vec<u64>,
}

/// The fence-free work-stealing deque with multiplicity.
///
/// Owner operations ([`push`](FenceFreeDeque::push),
/// [`pop`](FenceFreeDeque::pop),
/// [`push_special`](FenceFreeDeque::push_special),
/// [`pop_special`](FenceFreeDeque::pop_special)) must all come from one
/// thread, like every backend in this crate; any thread may call
/// [`steal`](FenceFreeDeque::steal). Entries must be `Clone` because
/// extraction never moves a value out of the log (a duplicate extraction
/// of a moved-out slot would be a use-after-move) — the engine stores
/// cheap `Weak`-handle entries.
///
/// # Examples
///
/// ```
/// use adaptivetc_deque::{FenceFreeDeque, StealOutcome};
///
/// let dq: FenceFreeDeque<u32> = FenceFreeDeque::with_capacity(8);
/// dq.push(1);
/// dq.push(2);
/// assert_eq!(dq.steal(), StealOutcome::Stolen(1)); // thieves take the oldest
/// assert_eq!(dq.pop(), Some(2));                   // the owner the newest
/// // Multiplicity: the owner still *offers* the entry the thief took —
/// // the runtime's claim layer is what rejects the duplicate.
/// assert_eq!(dq.pop(), Some(1));
/// assert_eq!(dq.pop(), None);
/// ```
pub struct FenceFreeDeque<T> {
    /// Thief cursor: first index not yet passed by a steal. Monotone;
    /// advanced only by thieves' CAS.
    head: CachePadded<AtomicU64>,
    /// Publication count: slots `[0, tail)` are written and immutable.
    /// Monotone; stored only by the owner (`Release`).
    tail: CachePadded<AtomicU64>,
    /// Owner's live-entry count (its stack depth), mirrored with plain
    /// `Relaxed` stores so `len` does not count owner-popped log entries
    /// the thief cursor has not passed. Over-counts only by entries
    /// stolen but not yet duplicate-popped by the owner.
    live: CachePadded<AtomicU64>,
    /// Segment directory. Entry `s` (capacity `base << s`) is allocated
    /// by the owner on first use and never moved or freed until `Drop`.
    dir: [AtomicPtr<Segment<T>>; DIR_ENTRIES],
    /// `log2` of segment 0's capacity.
    base_shift: u32,
    /// Owner-only by the protocol contract; a [`RaceCell`] so the model
    /// checker can *verify* the single-owner contract rather than assume it.
    owner: RaceCell<OwnerState>,
}

// SAFETY: slots are write-once (owner, pre-publication) and cloned
// concurrently afterwards through `&T`, so `T: Sync` is required in
// addition to `Send`; the owner state is single-threaded by the protocol
// contract (as for the other backends in this crate).
unsafe impl<T: Send + Sync> Send for FenceFreeDeque<T> {}
unsafe impl<T: Send + Sync> Sync for FenceFreeDeque<T> {}

impl<T> FenceFreeDeque<T> {
    /// Create a deque whose first segment holds at least `capacity`
    /// entries (rounded up to a power of two, minimum 16). The log grows
    /// by doubling segments and never rejects a push.
    pub fn with_capacity(capacity: usize) -> Self {
        let base = capacity.next_power_of_two().max(16);
        FenceFreeDeque {
            head: CachePadded::new(AtomicU64::new(0)),
            tail: CachePadded::new(AtomicU64::new(0)),
            live: CachePadded::new(AtomicU64::new(0)),
            dir: std::array::from_fn(|_| AtomicPtr::new(ptr::null_mut())),
            base_shift: base.trailing_zeros(),
            owner: RaceCell::new(OwnerState {
                next: 0,
                stack: Vec::with_capacity(base),
            }),
        }
    }

    /// Log index -> (directory entry, offset). Segment `s` covers
    /// `[(2^s - 1) * base, (2^(s+1) - 1) * base)`.
    #[inline]
    fn locate(&self, idx: u64) -> (usize, usize) {
        let n = (idx >> self.base_shift) + 1;
        let s = 63 - n.leading_zeros();
        let start = ((1u64 << s) - 1) << self.base_shift;
        (s as usize, (idx - start) as usize)
    }

    /// Thief-side slot access: `idx` must be below an `Acquire`-loaded
    /// `tail`, which makes both the directory entry and the slot write
    /// visible.
    #[inline]
    fn slot(&self, idx: u64, owner: bool) -> &Slot<T> {
        let (s, off) = self.locate(idx);
        let order = if owner {
            // The owner reads back its own directory stores.
            Ordering::Relaxed
        } else {
            Ordering::Acquire
        };
        let seg = self.dir[s].load(order);
        debug_assert!(!seg.is_null(), "slot {idx} read before publication");
        // SAFETY: segments are allocated before any index inside them is
        // published and are only freed in `Drop` (exclusive access).
        unsafe { &(*seg).slots[off] }
    }

    /// Entries currently live. Racy over-estimate: the minimum of the
    /// cursor window `T - H` (which still counts owner-popped middle
    /// entries) and the owner's stack depth (which still counts stolen
    /// entries the owner has not duplicate-popped yet); for statistics
    /// and the adaptive policy's emptiness signal only.
    pub fn len(&self) -> usize {
        let t = self.tail.load(Ordering::Relaxed);
        let h = self.head.load(Ordering::Relaxed);
        let window = t.saturating_sub(h);
        window.min(self.live.load(Ordering::Relaxed)) as usize
    }

    /// Whether the deque currently appears empty (racy; for statistics).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn push_kind(&self, value: T, kind: u8) {
        // SAFETY: owner-only method (protocol contract).
        let st = unsafe { &mut *self.owner.write() };
        let idx = st.next;
        let (s, off) = self.locate(idx);
        let mut seg = self.dir[s].load(Ordering::Relaxed);
        if seg.is_null() {
            seg = Segment::alloc(1usize << (self.base_shift + s as u32));
            // Publish the segment before any index inside it: paired with
            // the thief's `Acquire` directory load.
            self.dir[s].store(seg, Ordering::Release);
        }
        // SAFETY: slot `idx` has never been written (the log is
        // append-only and `idx == tail`), and no reader can observe it
        // until the `Release` store of `tail` below.
        unsafe {
            let slot = &(*seg).slots[off];
            *slot.kind.write() = kind;
            (*slot.value.write()).write(value);
        }
        st.stack.push(idx);
        st.next = idx + 1;
        self.live.store(st.stack.len() as u64, Ordering::Relaxed);
        // The owner's whole push: two plain stores. No fence, no RMW,
        // no SeqCst — the `Release` store of `tail` publishes the slot.
        self.tail.store(idx + 1, Ordering::Release);
    }

    /// Owner: push a regular task at the tail. Never fails (the log
    /// grows by doubling segments).
    pub fn push(&self, value: T) {
        self.push_kind(value, KIND_TASK);
    }

    /// Owner: push a special (transition) task at the tail. Thieves never
    /// return a special from [`steal`](FenceFreeDeque::steal); they take
    /// the entry above it instead.
    pub fn push_special(&self, value: T) {
        self.push_kind(value, KIND_SPECIAL);
    }
}

impl<T: Clone> FenceFreeDeque<T> {
    /// Owner: pop the entry it pushed most recently — by *offering* it,
    /// whether or not a thief's cursor already passed it (multiplicity;
    /// see the module docs). `None` only when the owner has no live
    /// entries. The owner's whole pop touches no atomics at all.
    pub fn pop(&self) -> Option<T> {
        // SAFETY: owner-only method (protocol contract).
        let st = unsafe { &mut *self.owner.write() };
        let idx = st.stack.pop()?;
        self.live.store(st.stack.len() as u64, Ordering::Relaxed);
        let slot = self.slot(idx, true);
        // SAFETY: write-once slot published by this same thread.
        unsafe {
            debug_assert_eq!(
                *slot.kind.read(),
                KIND_TASK,
                "pop must match a regular push (LIFO discipline violated)"
            );
            Some((*slot.value.read()).assume_init_ref().clone())
        }
    }

    /// Owner: pop a special entry.
    ///
    /// Reports [`PopSpecial::ChildStolen`] when the thief cursor has
    /// passed the special (a thief retired it while claiming its child).
    /// The cursor read is `Relaxed` and may lag: `Reclaimed` can be
    /// returned while a thief still races for the child. That is sound
    /// only under the claim layer (the owner claimed the child *before*
    /// reaching this pop, so a racing thief's claim loses); see the
    /// module docs.
    pub fn pop_special(&self) -> PopSpecial<T> {
        // SAFETY: owner-only method (protocol contract).
        let st = unsafe { &mut *self.owner.write() };
        let mut idx = st
            .stack
            .pop()
            .expect("pop_special without a matching push_special");
        let mut slot = self.slot(idx, true);
        // SAFETY (slot reads below): write-once slots published by this
        // same thread.
        if unsafe { *slot.kind.read() } == KIND_TASK {
            // The caller skipped popping the special's child because a
            // thief took it (the other backends consumed its slot; our
            // log kept it). Discard the dead offer and pop the special
            // beneath — the thief's cursor CAS already passed it.
            idx = st
                .stack
                .pop()
                .expect("pop_special found a task with no special beneath");
            slot = self.slot(idx, true);
            debug_assert!(self.head.load(Ordering::Relaxed) > idx);
        }
        self.live.store(st.stack.len() as u64, Ordering::Relaxed);
        // SAFETY: write-once slot published by this same thread's push.
        unsafe {
            debug_assert_eq!(
                *slot.kind.read(),
                KIND_SPECIAL,
                "pop_special must match a push_special (LIFO discipline violated)"
            );
            if self.head.load(Ordering::Relaxed) > idx {
                PopSpecial::ChildStolen
            } else {
                PopSpecial::Reclaimed((*slot.value.read()).assume_init_ref().clone())
            }
        }
    }

    /// Thief: steal the oldest entry the cursor has not passed.
    ///
    /// A special entry at the cursor is skipped together with its child
    /// (one CAS advances the cursor by 2, retiring the special and
    /// extracting the child), exactly like `steal_specialtask`; a lone
    /// special (or a defensive adjacent-special pair) is unstealable.
    /// The value is cloned *before* the CAS; losing the CAS drops the
    /// clone and retries, so thieves never duplicate *each other* — only
    /// the owner's pop can duplicate an extraction.
    #[inline]
    pub fn steal(&self) -> StealOutcome<T> {
        self.steal_reporting().0
    }

    /// As [`steal`](FenceFreeDeque::steal), also reporting whether the
    /// call retired a live special entry (always together with a clone
    /// of its child). The owner's
    /// [`pop_special`](FenceFreeDeque::pop_special) reads the cursor
    /// relaxed, so it may still report `Reclaimed` for a retired special
    /// whose child the owner claimed first.
    pub fn steal_reporting(&self) -> (StealOutcome<T>, bool) {
        loop {
            let t = self.tail.load(Ordering::Acquire);
            let h = self.head.load(Ordering::Relaxed);
            if h >= t {
                return (StealOutcome::Empty, false);
            }
            let slot = self.slot(h, false);
            // SAFETY: h < t, which the Acquire load of `tail` proved
            // published; slots are write-once, so the read cannot race.
            if unsafe { *slot.kind.read() } == KIND_SPECIAL {
                if h + 1 >= t {
                    // A lone special is unstealable: leave it to the owner.
                    return (StealOutcome::Empty, false);
                }
                let child = self.slot(h + 1, false);
                // SAFETY: h + 1 < t per the bound check above; write-once.
                if unsafe { *child.kind.read() } == KIND_SPECIAL {
                    // A *live* special always has its task child directly
                    // above it (the five-version FSM pushes them as a
                    // pair), so adjacent specials mean the one at the
                    // cursor is dead — already reclaimed by the owner,
                    // whose pops never advance the cursor. Skip it so a
                    // dead special can never wall off live entries.
                    let _ =
                        self.head
                            .compare_exchange(h, h + 1, Ordering::Relaxed, Ordering::Relaxed);
                    continue;
                }
                // SAFETY: slot h + 1 < t is published (Acquire `tail`) and
                // write-once initialised; cloning by shared ref never
                // conflicts with other readers.
                let v = unsafe { (*child.value.read()).assume_init_ref().clone() };
                // Relaxed suffices: the CAS only arbitrates the cursor
                // between thieves — the clone above was already made safe
                // by the Acquire load of `tail`, and exactly-once
                // *execution* is the claim layer's job, not the cursor's.
                if self
                    .head
                    .compare_exchange(h, h + 2, Ordering::Relaxed, Ordering::Relaxed)
                    .is_ok()
                {
                    return (StealOutcome::Stolen(v), true);
                }
            } else {
                // SAFETY: slot h < t is published (Acquire `tail`) and
                // write-once initialised; cloning by shared ref is safe.
                let v = unsafe { (*slot.value.read()).assume_init_ref().clone() };
                if self
                    .head
                    .compare_exchange(h, h + 1, Ordering::Relaxed, Ordering::Relaxed)
                    .is_ok()
                {
                    return (StealOutcome::Stolen(v), false);
                }
            }
            // Lost the cursor race to another thief; retry from the top.
        }
    }
}

impl<T> Default for FenceFreeDeque<T> {
    fn default() -> Self {
        FenceFreeDeque::with_capacity(16)
    }
}

impl<T> Drop for FenceFreeDeque<T> {
    fn drop(&mut self) {
        // Extraction clones and never moves out, so every written slot
        // `[0, tail)` still owns a live value: drop each exactly once,
        // then free the segments.
        let t = self.tail.load(Ordering::Relaxed);
        for idx in 0..t {
            let (s, off) = self.locate(idx);
            let seg = self.dir[s].load(Ordering::Relaxed);
            // SAFETY: exclusive access in Drop; slots [0, t) are
            // initialised and segments live until freed below.
            unsafe {
                (*(*seg).slots[off].value.write()).assume_init_drop();
            }
        }
        for d in &self.dir {
            let seg = d.load(Ordering::Relaxed);
            if !seg.is_null() {
                // SAFETY: allocated via Box::into_raw, freed exactly once.
                unsafe { drop(Box::from_raw(seg)) };
            }
        }
    }
}

impl<T> fmt::Debug for FenceFreeDeque<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FenceFreeDeque")
            .field("head", &self.head.load(Ordering::Relaxed))
            .field("tail", &self.tail.load(Ordering::Relaxed))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool as StdBool, AtomicU64 as TestCounter};
    use std::sync::Arc;

    #[test]
    fn lifo_owner_fifo_thief_with_multiplicity() {
        let d: FenceFreeDeque<u32> = FenceFreeDeque::with_capacity(8);
        d.push(1);
        d.push(2);
        d.push(3);
        assert_eq!(d.len(), 3);
        assert_eq!(d.steal(), StealOutcome::Stolen(1));
        assert_eq!(d.pop(), Some(3));
        assert_eq!(d.steal(), StealOutcome::Stolen(2));
        // Multiplicity: the owner's pop *offers* 2 and 1 again even
        // though the cursor passed them — the claim layer's job to drop.
        assert_eq!(d.pop(), Some(2));
        assert_eq!(d.pop(), Some(1));
        assert_eq!(d.pop(), None);
        // … and symmetrically the cursor re-offers the owner-popped 3.
        assert_eq!(d.steal(), StealOutcome::Stolen(3));
        assert_eq!(d.steal(), StealOutcome::Empty);
    }

    #[test]
    fn special_is_never_stolen_alone() {
        let d: FenceFreeDeque<u32> = FenceFreeDeque::with_capacity(8);
        d.push_special(42);
        assert_eq!(d.steal(), StealOutcome::Empty);
        assert_eq!(d.pop_special(), PopSpecial::Reclaimed(42));
    }

    #[test]
    fn steal_special_takes_child_and_pop_special_detects() {
        let d: FenceFreeDeque<u32> = FenceFreeDeque::with_capacity(8);
        d.push_special(42);
        d.push(7);
        assert_eq!(d.steal(), StealOutcome::Stolen(7));
        // The cursor passed the special: the owner sees ChildStolen for
        // both the (duplicate-offered) child pop and the special.
        assert_eq!(d.pop(), Some(7), "duplicate offer of the stolen child");
        assert_eq!(d.pop_special(), PopSpecial::ChildStolen);
    }

    #[test]
    fn special_reclaimed_when_child_popped_by_owner() {
        let d: FenceFreeDeque<u32> = FenceFreeDeque::with_capacity(8);
        d.push_special(42);
        d.push(7);
        assert_eq!(d.pop(), Some(7));
        assert_eq!(d.pop_special(), PopSpecial::Reclaimed(42));
    }

    #[test]
    fn dead_special_at_cursor_is_skipped_not_a_wall() {
        let d: FenceFreeDeque<u32> = FenceFreeDeque::with_capacity(8);
        // A reclaimed special stays in the log at the cursor …
        d.push_special(1);
        assert_eq!(d.pop_special(), PopSpecial::Reclaimed(1));
        // … and must not block a later special+child pair from thieves.
        d.push_special(2);
        d.push(7);
        assert_eq!(d.steal(), StealOutcome::Stolen(7));
        assert_eq!(d.pop(), Some(7), "duplicate offer of the stolen child");
        assert_eq!(d.pop_special(), PopSpecial::ChildStolen);
    }

    #[test]
    fn check_version_loop_shape() {
        let d: FenceFreeDeque<u32> = FenceFreeDeque::with_capacity(8);
        // Steal first: dead log entries left by reclaimed rounds would
        // otherwise be (harmlessly) re-offered to the thief.
        for (i, stolen_by_thief) in [(10u32, true), (11, false), (12, false)] {
            d.push_special(99);
            d.push(i);
            if stolen_by_thief {
                assert_eq!(d.steal(), StealOutcome::Stolen(i));
                assert_eq!(d.pop(), Some(i), "duplicate offer");
                assert_eq!(d.pop_special(), PopSpecial::ChildStolen);
            } else {
                assert_eq!(d.pop(), Some(i));
                assert_eq!(d.pop_special(), PopSpecial::Reclaimed(99));
            }
        }
    }

    #[test]
    fn log_grows_across_segments() {
        let d: FenceFreeDeque<usize> = FenceFreeDeque::with_capacity(16);
        // Far past the first segment (16 + 32 + 64 + ...).
        let n = if cfg!(miri) { 200 } else { 5_000 };
        for i in 0..n {
            d.push(i);
        }
        for i in 0..n / 2 {
            assert_eq!(d.steal(), StealOutcome::Stolen(i));
        }
        for i in (n / 2..n).rev() {
            assert_eq!(d.pop(), Some(i));
        }
    }

    #[test]
    fn drop_releases_log_entries_exactly_once() {
        static DROPS: TestCounter = TestCounter::new(0);
        #[derive(Clone)]
        struct Token;
        impl Drop for Token {
            fn drop(&mut self) {
                DROPS.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            }
        }
        {
            let d: FenceFreeDeque<Token> = FenceFreeDeque::with_capacity(4);
            for _ in 0..40 {
                d.push(Token);
            }
            // 10 extraction clones dropped by us; 40 originals in Drop.
            for _ in 0..10 {
                drop(d.pop());
            }
        }
        assert_eq!(DROPS.load(std::sync::atomic::Ordering::SeqCst), 50);
    }

    /// The multiplicity stress test: raw extractions may duplicate, but
    /// with the claim layer emulated on top (one CAS-guarded claim per
    /// value, as the engine does per frame epoch) every value is claimed
    /// exactly once and duplicates are observable as claim rejections.
    #[test]
    fn concurrent_extractions_claim_each_value_exactly_once() {
        const ROUNDS: u64 = if cfg!(miri) { 100 } else { 20_000 };
        let d: Arc<FenceFreeDeque<u64>> = Arc::new(FenceFreeDeque::with_capacity(64));
        let claims: Arc<Vec<StdBool>> =
            Arc::new((0..=ROUNDS).map(|_| StdBool::new(false)).collect());
        let claimed_sum = Arc::new(TestCounter::new(0));
        let dup_extractions = Arc::new(TestCounter::new(0));
        let stop = Arc::new(StdBool::new(false));
        use std::sync::atomic::Ordering as O;

        let claim = |claims: &[StdBool], sums: &TestCounter, dups: &TestCounter, v: u64| {
            if claims[v as usize]
                .compare_exchange(false, true, O::SeqCst, O::SeqCst)
                .is_ok()
            {
                sums.fetch_add(v, O::Relaxed);
            } else {
                dups.fetch_add(1, O::Relaxed);
            }
        };

        std::thread::scope(|s| {
            for _ in 0..2 {
                let d = Arc::clone(&d);
                let claims = Arc::clone(&claims);
                let sums = Arc::clone(&claimed_sum);
                let dups = Arc::clone(&dup_extractions);
                let stop = Arc::clone(&stop);
                s.spawn(move || {
                    while !stop.load(O::Relaxed) {
                        if let StealOutcome::Stolen(v) = d.steal() {
                            claim(&claims, &sums, &dups, v);
                        }
                        std::hint::spin_loop();
                    }
                });
            }
            // Owner: push one, sometimes pop one — every offer goes
            // through the claim table, exactly like the engine.
            for i in 1..=ROUNDS {
                d.push(i);
                if i % 2 == 0 {
                    if let Some(v) = d.pop() {
                        claim(&claims, &claimed_sum, &dup_extractions, v);
                    }
                }
            }
            while let Some(v) = d.pop() {
                claim(&claims, &claimed_sum, &dup_extractions, v);
            }
            stop.store(true, O::Relaxed);
        });

        assert_eq!(
            claimed_sum.load(O::SeqCst),
            ROUNDS * (ROUNDS + 1) / 2,
            "every value claimed exactly once ({} duplicate extractions rejected)",
            dup_extractions.load(O::SeqCst)
        );
    }

    #[test]
    fn concurrent_special_children_conserved_via_claims() {
        const ROUNDS: u64 = if cfg!(miri) { 100 } else { 10_000 };
        let d: Arc<FenceFreeDeque<u64>> = Arc::new(FenceFreeDeque::with_capacity(16));
        let claims: Arc<Vec<StdBool>> =
            Arc::new((0..=ROUNDS).map(|_| StdBool::new(false)).collect());
        let claimed_sum = Arc::new(TestCounter::new(0));
        let stop = Arc::new(StdBool::new(false));
        use std::sync::atomic::Ordering as O;

        std::thread::scope(|s| {
            for _ in 0..2 {
                let d = Arc::clone(&d);
                let claims = Arc::clone(&claims);
                let sums = Arc::clone(&claimed_sum);
                let stop = Arc::clone(&stop);
                s.spawn(move || {
                    while !stop.load(O::Relaxed) {
                        if let StealOutcome::Stolen(v) = d.steal() {
                            assert_ne!(v, 0, "a special entry was stolen");
                            if claims[v as usize]
                                .compare_exchange(false, true, O::SeqCst, O::SeqCst)
                                .is_ok()
                            {
                                sums.fetch_add(v, O::Relaxed);
                            }
                        }
                        std::hint::spin_loop();
                    }
                });
            }
            for i in 1..=ROUNDS {
                d.push_special(0);
                d.push(i);
                if let Some(v) = d.pop() {
                    let won = claims[v as usize]
                        .compare_exchange(false, true, O::SeqCst, O::SeqCst)
                        .is_ok();
                    if won {
                        claimed_sum.fetch_add(v, O::Relaxed);
                    }
                    // Claim-winner semantics mirror the engine: a lost
                    // claim means the child ran elsewhere, and the
                    // cursor must already have passed the special (the
                    // thief's CAS precedes its claim win).
                    match d.pop_special() {
                        PopSpecial::Reclaimed(s) => assert_eq!(s, 0),
                        PopSpecial::ChildStolen => {}
                    }
                }
            }
            stop.store(true, O::Relaxed);
        });

        assert_eq!(claimed_sum.load(O::SeqCst), ROUNDS * (ROUNDS + 1) / 2);
    }
}
