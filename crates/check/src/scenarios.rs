//! The shared scenario registry: every bounded protocol workload the
//! race-detection lane and the ordering-minimization audit re-run.
//!
//! Each [`Scenario`] is a self-contained closure body for [`explore`]:
//! it builds its structures inside the exploration (a TSO-mode
//! requirement), drives a two-thread protocol race, and asserts the
//! protocol's safety properties — the same assertions double as the
//! refutation oracle when the audit re-runs a scenario with a weakened
//! memory ordering. The `covers` list ties a scenario to the
//! `#[path]`-included product sources whose `Ordering::` sites it
//! exercises; `adaptivetc-lint`'s `verdicts::COVERED_FILES` is the
//! union of these lists, and `tests/race_detector.rs` re-explores every
//! scenario with `check_races` in both SC and TSO modes.
//!
//! Bodies are deliberately smaller than the dedicated suites in
//! `tests/` (race checking folds the happens-before state into the
//! state hash, so pruning is weaker): the suites prove depth, this
//! registry proves breadth per covered file.

use crate::chase_lev::{ChaseLevDeque, ClSteal};
use crate::controller::ThresholdController;
use crate::fence_free::FenceFreeDeque;
use crate::join::Join;
use crate::pool::PoolDeque;
use crate::signal::NeedTask;
use crate::submit::{
    CancelOutcome, CancelToken, JobLifecycle, JobStatus, PrioQueue, Priority, SubmitQueue,
};
use crate::sync::{AtomicBool, AtomicU64, Ordering, RaceCell};
use crate::the::{PopSpecial, StealOutcome, TheDeque};
use crate::{linearizable, OwnerOp};
use std::sync::Arc;

/// One registered workload: a name for reports, the covered product
/// sources, and the exploration body.
pub struct Scenario {
    /// Stable name used in verdict reports and test output.
    pub name: &'static str,
    /// Workspace-relative product sources whose ordering sites this
    /// scenario exercises.
    pub covers: &'static [&'static str],
    /// The body to hand to [`explore`](crate::explore).
    pub run: fn(),
}

const THE: &str = "crates/deque/src/the.rs";
const CHASE_LEV: &str = "crates/deque/src/chase_lev.rs";
const FENCE_FREE: &str = "crates/deque/src/fence_free.rs";
const POOL: &str = "crates/deque/src/pool.rs";
const SIGNAL: &str = "crates/deque/src/signal.rs";
const SUBMIT: &str = "crates/runtime/src/submit.rs";
const CONTROLLER: &str = "crates/strategy/src/controller.rs";
const JOIN: &str = "crates/runtime/src/join.rs";

/// Every registered scenario. `tests/race_detector.rs` explores each
/// with race checking on; the `ordering_audit` binary re-runs the ones
/// covering a site's file under weakened-ordering overrides.
pub const SCENARIOS: &[Scenario] = &[
    Scenario {
        name: "the_linearizable",
        covers: &[THE],
        run: the_linearizable,
    },
    Scenario {
        name: "the_special",
        covers: &[THE],
        run: the_special,
    },
    Scenario {
        name: "the_wraparound",
        covers: &[THE],
        run: the_wraparound,
    },
    Scenario {
        name: "chase_lev_steal",
        covers: &[CHASE_LEV, THE],
        run: chase_lev_steal,
    },
    Scenario {
        name: "chase_lev_grow",
        covers: &[CHASE_LEV],
        run: chase_lev_grow,
    },
    Scenario {
        name: "chase_lev_special",
        covers: &[CHASE_LEV, THE],
        run: chase_lev_special,
    },
    Scenario {
        name: "fence_free_claims",
        covers: &[FENCE_FREE, THE],
        run: fence_free_claims,
    },
    Scenario {
        name: "fence_free_special",
        covers: &[FENCE_FREE, THE],
        run: fence_free_special,
    },
    Scenario {
        name: "pool_locked",
        covers: &[POOL, THE],
        run: pool_locked,
    },
    Scenario {
        name: "signal_delivery",
        covers: &[SIGNAL],
        run: signal_delivery,
    },
    Scenario {
        name: "strategy_retune",
        covers: &[SIGNAL, CONTROLLER],
        run: strategy_retune,
    },
    Scenario {
        name: "submit_claim",
        covers: &[SUBMIT],
        run: submit_claim,
    },
    Scenario {
        name: "submit_cancel",
        covers: &[SUBMIT],
        run: submit_cancel,
    },
    Scenario {
        name: "submit_prio",
        covers: &[SUBMIT],
        run: submit_prio,
    },
    Scenario {
        name: "join_protocol",
        covers: &[JOIN, THE],
        run: join_protocol,
    },
];

/// The scenarios exercising `file` (a workspace-relative source path).
pub fn covering(file: &str) -> impl Iterator<Item = &'static Scenario> {
    let file = file.to_string();
    SCENARIOS
        .iter()
        .filter(move |s| s.covers.contains(&file.as_str()))
}

// ---------------------------------------------------------------------------
// THE deque
// ---------------------------------------------------------------------------

fn the_linearizable() {
    let d = Arc::new(TheDeque::<u32>::new(8));
    d.push(1).unwrap();
    d.push(2).unwrap();
    let thief = {
        let d = Arc::clone(&d);
        shim_sync::thread::spawn(move || {
            let mut got = Vec::new();
            for _ in 0..2 {
                got.push(match d.steal() {
                    StealOutcome::Stolen(v) => Some(v),
                    StealOutcome::Empty => None,
                });
            }
            got
        })
    };
    let mut owner = vec![OwnerOp::Push(1), OwnerOp::Push(2)];
    for _ in 0..2 {
        owner.push(OwnerOp::Pop(d.pop()));
    }
    let steals = thief.join().unwrap();
    assert!(
        linearizable(&owner, &steals),
        "history not linearizable: owner {owner:?}, steals {steals:?}"
    );
}

fn the_special() {
    let d = Arc::new(TheDeque::<u32>::new(8));
    d.push_special(10).unwrap();
    d.push(20).unwrap();
    let thief = {
        let d = Arc::clone(&d);
        shim_sync::thread::spawn(move || match d.steal() {
            StealOutcome::Stolen(v) => Some(v),
            StealOutcome::Empty => None,
        })
    };
    let popped = d.pop();
    let spec = d.pop_special();
    let stolen = thief.join().unwrap();
    assert_ne!(stolen, Some(10), "thief stole the special task itself");
    let owner_got = popped == Some(20);
    let thief_got = stolen == Some(20);
    assert!(owner_got ^ thief_got, "child consumed zero or two times");
    let child_stolen = matches!(spec, PopSpecial::ChildStolen);
    assert_eq!(child_stolen, thief_got, "pop_special misreported the race");
}

/// Slot recycling at capacity 2: the owner's overflow check reads the
/// completion cursor `cleaned` concurrently with the thief's Release
/// store of it — the exact edge the cursor exists to provide.
fn the_wraparound() {
    let d = Arc::new(TheDeque::<u32>::new(2));
    d.push(1).unwrap();
    d.push(2).unwrap();
    let thief = {
        let d = Arc::clone(&d);
        shim_sync::thread::spawn(move || match d.steal() {
            StealOutcome::Stolen(v) => Some(v),
            StealOutcome::Empty => None,
        })
    };
    // Racing the steal: admitted exactly when a recycled slot is proven
    // clean, rejected otherwise — both are legal, and the HB engine
    // verifies the admitted case reuses the slot race-free.
    let third_ok = d.push(3).is_ok();
    let mut popped = Vec::new();
    while let Some(v) = d.pop() {
        popped.push(v);
    }
    let stolen = thief.join().unwrap();
    let mut all: Vec<u32> = popped;
    all.extend(stolen);
    all.sort_unstable();
    let mut expect = vec![1, 2];
    if third_ok {
        expect.push(3);
    }
    assert_eq!(all, expect, "value lost or duplicated across the wrap");
    // Quiescent accessor sweep: exercises the observer-side orderings
    // (len / Debug) so the audit has an exercise signal for them.
    assert_eq!(d.len(), 0);
    assert!(d.is_empty());
    let _ = format!("{d:?}");
}

// ---------------------------------------------------------------------------
// Chase-Lev deque
// ---------------------------------------------------------------------------

fn cl_steal_to_completion(d: &ChaseLevDeque<u32>) -> Option<u32> {
    loop {
        match d.steal() {
            ClSteal::Stolen(v) => return Some(v),
            ClSteal::Empty => return None,
            ClSteal::Retry => continue,
        }
    }
}

/// Three pushes race one thief, then the owner drains; exercises push,
/// pop and steal (growth is `chase_lev_grow`'s job — `with_capacity`
/// rounds up to the minimum 16, so these pushes never grow).
fn chase_lev_steal() {
    let d = Arc::new(ChaseLevDeque::<u32>::with_capacity(2));
    d.push(1);
    d.push(2);
    let thief = {
        let d = Arc::clone(&d);
        shim_sync::thread::spawn(move || cl_steal_to_completion(&d))
    };
    d.push(3);
    let mut owner = vec![OwnerOp::Push(1), OwnerOp::Push(2), OwnerOp::Push(3)];
    for _ in 0..3 {
        owner.push(OwnerOp::Pop(d.pop()));
    }
    let steals = vec![thief.join().unwrap()];
    assert!(
        linearizable(&owner, &steals),
        "history not linearizable: owner {owner:?}, steals {steals:?}"
    );
    // Quiescent accessor sweep for the audit's exercise signal.
    assert!(d.is_empty());
    assert_eq!(d.capacity(), 16, "rounded-up minimum capacity");
    let _ = format!("{d:?}");
}

/// Force a buffer grow while a steal may be in flight. The minimum
/// capacity (16) is pre-filled before the thief spawns; the thief
/// claims at most one entry, so the second racing push always sees
/// `bottom - top >= 16` and must grow. The conservation check over all
/// 18 entries — plus the race detector watching the thief's plain slot
/// reads against the owner's copy into the new buffer — is the
/// refutation oracle for `grow`'s Release publish.
fn chase_lev_grow() {
    let d = Arc::new(ChaseLevDeque::<u32>::with_capacity(2));
    for i in 0..16 {
        d.push(i);
    }
    let thief = {
        let d = Arc::clone(&d);
        shim_sync::thread::spawn(move || cl_steal_to_completion(&d))
    };
    d.push(16);
    d.push(17);
    assert!(d.capacity() >= 32, "a grow must have happened");
    let mut seen = Vec::new();
    seen.extend(thief.join().unwrap());
    while let Some(v) = d.pop() {
        seen.push(v);
    }
    seen.sort_unstable();
    assert_eq!(
        seen,
        (0..18).collect::<Vec<u32>>(),
        "grow lost or duplicated an entry"
    );
}

fn chase_lev_special() {
    let d = Arc::new(ChaseLevDeque::<u32>::with_capacity(16));
    d.push_special(10);
    d.push(20);
    let thief = {
        let d = Arc::clone(&d);
        shim_sync::thread::spawn(move || cl_steal_to_completion(&d))
    };
    let popped = d.pop();
    let spec = d.pop_special();
    let stolen = thief.join().unwrap();
    assert_ne!(stolen, Some(10), "thief stole the special task itself");
    let owner_got = popped == Some(20);
    let thief_got = stolen == Some(20);
    assert!(owner_got ^ thief_got, "child consumed zero or two times");
    // Chase-Lev's resolution is conservative: ChildStolen whenever the
    // thief MAY have the child, so only the converse direction holds.
    if thief_got {
        assert!(
            matches!(spec, PopSpecial::ChildStolen),
            "thief took the child but pop_special said Reclaimed"
        );
    }
}

// ---------------------------------------------------------------------------
// Fence-free multiplicity deque
// ---------------------------------------------------------------------------

fn ff_claim(claims: &[AtomicBool], v: u32) -> bool {
    !claims[v as usize].swap(true, Ordering::AcqRel)
}

fn fence_free_claims() {
    let d = Arc::new(FenceFreeDeque::<u32>::with_capacity(8));
    let claims: Arc<[AtomicBool; 3]> = Arc::new(std::array::from_fn(|_| AtomicBool::new(false)));
    d.push(1);
    d.push(2);
    let thief = {
        let d = Arc::clone(&d);
        let claims = Arc::clone(&claims);
        shim_sync::thread::spawn(move || {
            let mut claimed = 0u32;
            for _ in 0..2 {
                if let StealOutcome::Stolen(v) = d.steal() {
                    if ff_claim(&*claims, v) {
                        claimed += 1;
                    }
                }
            }
            claimed
        })
    };
    let mut claimed = 0u32;
    while let Some(v) = d.pop() {
        if ff_claim(&*claims, v) {
            claimed += 1;
        }
    }
    claimed += thief.join().unwrap();
    assert!(
        claims[1].load(Ordering::Relaxed) && claims[2].load(Ordering::Relaxed),
        "a pushed value was never extracted (lost work)"
    );
    assert_eq!(claimed, 2, "a value was claimed twice (claim layer broken)");
    // Quiescent accessor sweep for the audit's exercise signal.
    let _ = d.len();
    let _ = d.is_empty();
    let _ = format!("{d:?}");
}

fn fence_free_special() {
    let d = Arc::new(FenceFreeDeque::<u32>::with_capacity(8));
    let claims: Arc<[AtomicBool; 3]> = Arc::new(std::array::from_fn(|_| AtomicBool::new(false)));
    d.push_special(1);
    d.push(2);
    let thief = {
        let d = Arc::clone(&d);
        let claims = Arc::clone(&claims);
        shim_sync::thread::spawn(move || match d.steal() {
            StealOutcome::Stolen(v) => {
                assert_ne!(v, 1, "thief stole the special task itself");
                ff_claim(&*claims, v)
            }
            StealOutcome::Empty => false,
        })
    };
    // Engine order (LIFO discipline): pop and claim the special's child
    // first, then pop_special.
    let owner_got = match d.pop() {
        Some(v) => {
            assert_eq!(v, 2, "owner popped something it never pushed");
            ff_claim(&*claims, v)
        }
        None => false,
    };
    let spec = d.pop_special();
    let thief_got = thief.join().unwrap();
    assert!(
        owner_got ^ thief_got,
        "child claimed {} times",
        u8::from(owner_got) + u8::from(thief_got)
    );
    if thief_got {
        assert!(
            matches!(spec, PopSpecial::ChildStolen),
            "thief claimed the child but pop_special said Reclaimed"
        );
    } else if let PopSpecial::Reclaimed(v) = spec {
        assert_eq!(v, 1, "reclaimed a different special");
    }
}

// ---------------------------------------------------------------------------
// Locked pool deque (mutex-only backend)
// ---------------------------------------------------------------------------

fn pool_locked() {
    let d = Arc::new(PoolDeque::<u32>::new());
    d.push(1);
    d.push_special(10);
    let thief = {
        let d = Arc::clone(&d);
        shim_sync::thread::spawn(move || match d.steal() {
            StealOutcome::Stolen(v) => Some(v),
            StealOutcome::Empty => None,
        })
    };
    let spec = d.pop_special();
    let popped = d.pop();
    let stolen = thief.join().unwrap();
    assert_ne!(stolen, Some(10), "thief stole the special task itself");
    let mut got: Vec<u32> = [popped, stolen].into_iter().flatten().collect();
    if let PopSpecial::Reclaimed(v) = spec {
        got.push(v);
    }
    got.sort_unstable();
    assert!(
        got == vec![1, 10] || got == vec![1],
        "pool lost or duplicated a value: {got:?}"
    );
    // Deliberately cross-checks the two accessors against each other.
    #[allow(clippy::len_zero)]
    let consistent = d.is_empty() == (d.len() == 0);
    assert!(consistent, "len/is_empty disagree");
}

// ---------------------------------------------------------------------------
// need_task signal + strategy handshake
// ---------------------------------------------------------------------------

fn signal_delivery() {
    let sig = Arc::new(NeedTask::new(1));
    let thief = {
        let sig = Arc::clone(&sig);
        shim_sync::thread::spawn(move || {
            sig.record_steal_failure();
            sig.record_steal_failure();
        })
    };
    let mut acknowledged = false;
    for _ in 0..3 {
        if sig.needs_task() {
            sig.acknowledge();
            assert!(!sig.needs_task(), "acknowledge did not clear need_task");
            assert_eq!(sig.stolen_num(), 0, "acknowledge did not reset stolen_num");
            acknowledged = true;
            break;
        }
    }
    thief.join().unwrap();
    if !acknowledged {
        assert!(
            sig.needs_task(),
            "two failures past the threshold never raised need_task"
        );
    }
    assert!(sig.stolen_num() <= 2, "stolen_num overshot the failures");
    // A successful steal withdraws the signal (quiescent here; the
    // concurrent variant lives in the dedicated suite).
    sig.record_steal_success();
    assert!(!sig.needs_task(), "success must clear need_task");
    assert_eq!(sig.stolen_num(), 0, "success must reset stolen_num");
}

fn strategy_retune() {
    let sig = Arc::new(NeedTask::new(1));
    let thief = {
        let sig = Arc::clone(&sig);
        shim_sync::thread::spawn(move || {
            sig.record_steal_failure();
            sig.record_steal_failure();
            sig.record_steal_failure();
        })
    };
    // Owner retunes mid-burst without acknowledging: the store races all
    // three threshold loads, but three failures exceed both 1 and 2.
    let mut ctl = ThresholdController::new(1);
    let t = ctl.on_ack().expect("first back-off moves 1 -> 2");
    assert!(t >= ctl.lo() && t <= ctl.hi(), "threshold escaped bounds");
    sig.set_threshold(t);
    thief.join().unwrap();
    assert!(
        sig.needs_task(),
        "three failures exceed both the old and new threshold"
    );
    assert_eq!(sig.stolen_num(), 3);
}

// ---------------------------------------------------------------------------
// Job-server submission kernel
// ---------------------------------------------------------------------------

fn submit_claim() {
    let q = Arc::new(SubmitQueue::<u32>::with_capacity(2));
    let life = Arc::new(JobLifecycle::new());
    let t = {
        let (q, life) = (Arc::clone(&q), Arc::clone(&life));
        shim_sync::thread::spawn(move || {
            let pushed = q.try_push(1).is_ok();
            (pushed, life.claim())
        })
    };
    let main_ok = q.try_push(2).is_ok();
    let main_claimed = life.claim();
    let (thief_ok, thief_claimed) = t.join().unwrap();
    assert!(main_ok && thief_ok, "a two-slot ring dropped a submission");
    assert!(
        main_claimed ^ thief_claimed,
        "JobLifecycle::claim admitted {} claimers",
        u8::from(main_claimed) + u8::from(thief_claimed)
    );
    let mut drained = Vec::new();
    while let Some(v) = q.try_pop() {
        drained.push(v);
    }
    drained.sort_unstable();
    assert_eq!(drained, vec![1, 2], "submission lost or duplicated");
    assert_eq!(q.len(), 0, "drained ring reports occupancy");
}

fn submit_cancel() {
    let life = Arc::new(JobLifecycle::new());
    let token = Arc::new(CancelToken::new());
    let ran = Arc::new(AtomicBool::new(false));
    let worker = {
        let (life, token, ran) = (Arc::clone(&life), Arc::clone(&token), Arc::clone(&ran));
        shim_sync::thread::spawn(move || {
            if life.claim() {
                ran.store(true, Ordering::Relaxed);
                let cancelled = token.get();
                assert!(life.finish(cancelled), "lead finish must succeed");
            } else {
                assert_eq!(life.status(), JobStatus::Cancelled);
                assert!(!ran.load(Ordering::Relaxed), "cancelled job ran");
            }
        })
    };
    let outcome = life.cancel(&token);
    worker.join().unwrap();
    let status = life.status();
    assert!(status.is_terminal(), "job left non-terminal: {status:?}");
    match outcome {
        CancelOutcome::CancelledBeforeRun => {
            assert_eq!(status, JobStatus::Cancelled);
            assert!(!ran.load(Ordering::Relaxed));
        }
        CancelOutcome::Requested => assert!(ran.load(Ordering::Relaxed)),
        CancelOutcome::AlreadyTerminal => {
            assert_eq!(status, JobStatus::Completed);
            assert!(ran.load(Ordering::Relaxed));
        }
    }
    assert_eq!(life.cancel(&token), CancelOutcome::AlreadyTerminal);
}

fn submit_prio() {
    let q = Arc::new(PrioQueue::<u32>::with_capacity(2));
    let t = {
        let q = Arc::clone(&q);
        shim_sync::thread::spawn(move || q.try_push(Priority::High, 1).unwrap())
    };
    q.try_push(Priority::Low, 3).unwrap();
    t.join().unwrap();
    assert_eq!(q.try_pop(), Some((Priority::High, 1)));
    assert_eq!(q.try_pop(), Some((Priority::Low, 3)));
    assert_eq!(q.try_pop(), None);
}

// ---------------------------------------------------------------------------
// Work-first frame join (runtime/src/join.rs)
// ---------------------------------------------------------------------------

/// The knobs of the join-protocol model. [`JoinModel::PRODUCT`] plays the
/// rule the engine runs; the `join_protocol` suite sweeps the event
/// shapes and seeds bugs through `thief_owes`.
#[derive(Debug, Clone, Copy)]
pub struct JoinModel {
    /// Obligations a thief registers for its victim (the engine: 2).
    pub thief_owes: i64,
    /// Child 1 returns *pending* (its own continuation was stolen) and is
    /// delivered later by the second thread; otherwise it completes
    /// synchronously.
    pub pending_child: bool,
    /// The victim's in-flight child (child 2) is pending too.
    pub in_flight_pending: bool,
    /// The second thread delivers child 1 before attempting its steal.
    pub deliver_first: bool,
}

impl JoinModel {
    /// Every event kind at once: a pending child, a pending in-flight
    /// child, the thief's registration and the victim's contribution.
    pub const PRODUCT: JoinModel = JoinModel {
        thief_owes: 2,
        pending_child: true,
        in_flight_pending: true,
        deliver_first: false,
    };
}

/// The frame's owning handle, as a token.
const HANDLE: u8 = 7;

/// Child results: distinct bits, so a lost or double-counted
/// contribution shows in the sum.
const CHILD: [u64; 4] = [1, 2, 4, 8];

fn join_protocol() {
    join_model(JoinModel::PRODUCT);
}

/// One frame with four children, the engine's session rules replayed on
/// the product [`Join`] over a real THE deque. The main thread is the
/// creating session: child 0 completes synchronously, child 1 per
/// `pending_child`, then it pushes the continuation (resume index 3, an
/// owner-private plain write) and runs the in-flight child 2. The second
/// thread delivers pending children and tries to steal the continuation;
/// a successful steal starts a session that reads the resume index, runs
/// child 3 and finishes. Every completion is recorded: exactly one must
/// happen, with the sum of all four children, and the frame's owning
/// handle must reach the completer.
pub fn join_model(m: JoinModel) {
    let deque = Arc::new(TheDeque::<u32>::new(4));
    let join: Arc<Join<u64, u8>> = Arc::new(Join::new());
    let next = Arc::new(RaceCell::new(0usize));
    let completions = Arc::new(AtomicU64::new(0));
    let result = Arc::new(AtomicU64::new(0));
    let record = {
        let (completions, result) = (Arc::clone(&completions), Arc::clone(&result));
        move |done: Option<(u64, u8)>| {
            if let Some((out, handle)) = done {
                assert_eq!(handle, HANDLE, "the completer got no owning handle");
                completions.fetch_add(1, Ordering::SeqCst);
                result.store(out, Ordering::SeqCst);
            }
        }
    };

    let other = {
        let (deque, join, next) = (Arc::clone(&deque), Arc::clone(&join), Arc::clone(&next));
        let record = record.clone();
        shim_sync::thread::spawn(move || {
            let deliver_child_1 = || {
                if m.pending_child {
                    record(join.discharge(CHILD[1], 1, None));
                }
            };
            if m.deliver_first {
                deliver_child_1();
            }
            let stolen = matches!(deque.steal(), StealOutcome::Stolen(_));
            if stolen {
                // SAFETY: the steal acquired the owner's push, which was
                // sequenced after its write of the resume index.
                let resume = unsafe { *next.read() };
                assert_eq!(resume, 3, "the thief resumed at the wrong child");
                // The stolen session runs the last child (no push: the
                // last spawn's entry is elided) and finishes.
                record(join.finish(CHILD[3], m.thief_owes, None));
            }
            if !m.deliver_first {
                deliver_child_1();
            }
            if m.in_flight_pending {
                // Child 2's own completer. Its obligation is the thief's
                // registration if the continuation was stolen, else the
                // owner's pending registration at its finish.
                record(join.discharge(CHILD[2], 1, None));
            }
            stolen
        })
    };

    // The creating session.
    let mut acc = CHILD[0];
    let mut owed = 0;
    let mut joined = false;
    if m.pending_child {
        owed += 1;
    } else {
        acc += CHILD[1];
    }
    // push_continuation: apply what the session owes, publish the resume
    // index, push.
    if owed != 0 {
        join.register(owed);
        owed = 0;
        joined = true;
    }
    // SAFETY: owner-private until the push below publishes it.
    unsafe { *next.write() = 3 };
    deque.push(1).unwrap();
    let in_flight = (!m.in_flight_pending).then_some(CHILD[2]);
    let kept = deque.pop().is_some();
    if kept {
        match in_flight {
            Some(out) => acc += out,
            None => owed += 1,
        }
        acc += CHILD[3];
        if !joined && owed == 0 {
            // The fast path: the join was never touched.
            record(Some((acc, HANDLE)));
        } else {
            record(join.finish(acc, owed, Some(HANDLE)));
        }
    } else {
        // Theft discovered: contribute.
        let n = match in_flight {
            Some(out) => {
                acc += out;
                2
            }
            None => 1,
        };
        record(join.discharge(acc, n, Some(HANDLE)));
    }
    let stolen = other.join().unwrap();
    assert_eq!(stolen, !kept, "the continuation ran on zero or two workers");
    assert_eq!(
        completions.load(Ordering::SeqCst),
        1,
        "the frame must complete exactly once"
    );
    assert_eq!(
        result.load(Ordering::SeqCst),
        CHILD.iter().sum::<u64>(),
        "a contribution was lost or counted twice"
    );
}
