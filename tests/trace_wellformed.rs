//! Well-formedness of traced event streams: whatever the interleaving,
//! backend, or scheduler, the per-worker streams must satisfy the
//! protocol's structural invariants — every push is consumed exactly
//! once, steal outcomes balance victim-side conflicts, FSM transitions
//! walk only the legal edges of the five-version state machine, and
//! bracketing events (special sections, sync waits, slow phases) nest.

#![cfg(feature = "trace")]

use adaptivetc_suite::core::{Config, CutoffPolicy, DequeBackend, Expansion, Problem};
use adaptivetc_suite::runtime::fsm::{self, Version};
use adaptivetc_suite::runtime::Scheduler;
use adaptivetc_suite::trace::{legal_fsm_edge, Category, EventKind, FsmState, Trace};
use proptest::prelude::*;

/// A tree defined by explicit child lists (generated by proptest).
#[derive(Debug, Clone)]
struct ListTree {
    children: Vec<Vec<u32>>,
}

impl Problem for ListTree {
    type State = Vec<u32>;
    type Choice = u32;
    type Out = u64;
    fn root(&self) -> Vec<u32> {
        vec![0]
    }
    fn expand(&self, path: &Vec<u32>, _d: u32) -> Expansion<u32, u64> {
        let node = *path.last().expect("never empty") as usize;
        if self.children[node].is_empty() {
            Expansion::Leaf(1)
        } else {
            Expansion::Children(self.children[node].clone())
        }
    }
    fn apply(&self, path: &mut Vec<u32>, c: u32) {
        path.push(c);
    }
    fn undo(&self, path: &mut Vec<u32>, _c: u32) {
        path.pop();
    }
}

fn tree_strategy(max_nodes: usize) -> impl Strategy<Value = ListTree> {
    (2..max_nodes).prop_flat_map(|n| {
        proptest::collection::vec(0..u32::MAX, n - 1).prop_map(move |parents| {
            let mut children = vec![Vec::new(); n];
            for (i, p) in parents.into_iter().enumerate() {
                let node = (i + 1) as u32;
                let parent = (p as usize) % (i + 1); // parent precedes child
                children[parent].push(node);
            }
            ListTree { children }
        })
    })
}

/// Per-worker tallies plus the bracketing checks that depend on each
/// worker's (reliable, SPSC-ordered) emission order.
#[derive(Default)]
struct Tally {
    push: u64,
    pop: u64,
    pop_conflict: u64,
    special_push: u64,
    special_consume: u64,
    special_lost: u64,
    special_begin: u64,
    special_end: u64,
    need_task_ack: u64,
    suspend: u64,
    resume: u64,
    steal_attempt: u64,
    steal_ok: u64,
    steal_empty: u64,
    steal_dup: u64,
    special_retired: u64,
}

/// `multiplicity`: the backend may hand one entry to several extractions
/// (fence-free), which weakens the special-loss pairing below.
fn check_stream(trace: &Trace, multiplicity: bool) -> Result<(), String> {
    if trace.total_dropped() != 0 {
        return Err(format!("{} events dropped", trace.total_dropped()));
    }
    let mut total = Tally::default();
    for w in &trace.workers {
        let mut t = Tally::default();
        let mut special_depth = 0i64;
        let mut slow_depth = 0i64;
        for e in &w.events {
            match e.kind {
                EventKind::Push => t.push += 1,
                EventKind::Pop => t.pop += 1,
                EventKind::PopConflict => t.pop_conflict += 1,
                EventKind::SpecialPush => t.special_push += 1,
                EventKind::SpecialConsume { reclaimed } => {
                    t.special_consume += 1;
                    if !reclaimed {
                        t.special_lost += 1;
                    }
                }
                EventKind::SpecialBegin { .. } => {
                    t.special_begin += 1;
                    special_depth += 1;
                }
                EventKind::SpecialEnd => {
                    t.special_end += 1;
                    special_depth -= 1;
                    if special_depth < 0 {
                        return Err(format!("worker {}: SpecialEnd before Begin", w.worker));
                    }
                }
                EventKind::NeedTaskAck => t.need_task_ack += 1,
                EventKind::SyncSuspend => t.suspend += 1,
                EventKind::SyncResume => t.resume += 1,
                EventKind::StealAttempt { .. } => t.steal_attempt += 1,
                EventKind::StealOk { .. } => t.steal_ok += 1,
                EventKind::StealEmpty { .. } => t.steal_empty += 1,
                EventKind::StealDup { .. } => t.steal_dup += 1,
                EventKind::SpecialRetired { .. } => t.special_retired += 1,
                EventKind::Fsm { from, to, .. } => {
                    if !legal_fsm_edge(from, to) {
                        return Err(format!(
                            "worker {}: illegal FSM edge {} -> {}",
                            w.worker,
                            from.name(),
                            to.name()
                        ));
                    }
                    match (from, to) {
                        (FsmState::Idle, FsmState::Slow) => slow_depth += 1,
                        (FsmState::Slow, FsmState::Idle) => {
                            slow_depth -= 1;
                            if slow_depth < 0 {
                                return Err(format!(
                                    "worker {}: slow phase closed before it opened",
                                    w.worker
                                ));
                            }
                        }
                        _ => {}
                    }
                }
                _ => {}
            }
        }
        if special_depth != 0 {
            return Err(format!("worker {}: unclosed special section", w.worker));
        }
        if slow_depth != 0 {
            return Err(format!("worker {}: unclosed slow phase", w.worker));
        }
        // Every regular push is consumed exactly once by its owner's pop
        // attempt: reclaimed (Pop) or lost to a thief (PopConflict).
        if t.push != t.pop + t.pop_conflict {
            return Err(format!(
                "worker {}: {} pushes vs {} pops + {} conflicts",
                w.worker, t.push, t.pop, t.pop_conflict
            ));
        }
        // Likewise every special push meets exactly one pop_special.
        if t.special_push != t.special_consume {
            return Err(format!(
                "worker {}: {} special pushes vs {} consumes",
                w.worker, t.special_push, t.special_consume
            ));
        }
        // Special sections bracket and acknowledge exactly once each.
        if t.special_begin != t.special_end || t.special_begin != t.need_task_ack {
            return Err(format!(
                "worker {}: {} begins, {} ends, {} acks",
                w.worker, t.special_begin, t.special_end, t.need_task_ack
            ));
        }
        // A suspension resumes exactly once (the special sync).
        if t.suspend != t.resume {
            return Err(format!(
                "worker {}: {} suspends vs {} resumes",
                w.worker, t.suspend, t.resume
            ));
        }
        // Every probe resolves to exactly one outcome. Duplicate
        // extractions (the multiplicity backend's third outcome) count
        // too: a `StealDup` is neither a success nor an empty probe.
        if t.steal_attempt != t.steal_ok + t.steal_empty + t.steal_dup {
            return Err(format!(
                "worker {}: {} attempts vs {} ok + {} empty + {} dup",
                w.worker, t.steal_attempt, t.steal_ok, t.steal_empty, t.steal_dup
            ));
        }
        total.steal_ok += t.steal_ok;
        total.steal_dup += t.steal_dup;
        total.pop_conflict += t.pop_conflict;
        total.special_lost += t.special_lost;
        total.special_retired += t.special_retired;
    }
    // Conservation across workers, one identity per kind of loss (the
    // deque contract in crates/deque/src/backend.rs). A steal never
    // returns a special entry (property 2), so each successful steal took
    // one regular entry whose owner's pop then failed (property 1) — a
    // steal that passes a special takes the child above it, and that
    // child's pop is the conflict — and vice versa.
    if total.steal_ok != total.pop_conflict {
        return Err(format!(
            "{} steals vs {} conflicts",
            total.steal_ok, total.pop_conflict
        ));
    }
    // Each special a thief retired is the loss its owner's pop_special
    // reports (ChildStolen), on the lock-free backends too, where the
    // child may still go back to the owner. A multiplicity backend's
    // owner reads the thief cursor relaxed: for a retired special whose
    // child the owner claimed first (the thief's extraction became a
    // StealDup) it may report Reclaimed, so there a retirement is lost
    // at most once per duplicate.
    let retired_ok = if multiplicity {
        total.special_lost <= total.special_retired
            && total.special_retired <= total.special_lost + total.steal_dup
    } else {
        total.special_retired == total.special_lost
    };
    if !retired_ok {
        return Err(format!(
            "{} retired specials vs {} lost specials ({} duplicate extractions)",
            total.special_retired, total.special_lost, total.steal_dup
        ));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    // The core property: any traced run on any backend yields a
    // well-formed stream.
    #[test]
    fn traced_streams_are_well_formed(
        tree in tree_strategy(300),
        threads in 1usize..5,
        seed in 0u64..100,
        backend_idx in 0usize..DequeBackend::ALL.len(),
    ) {
        let backend = DequeBackend::ALL[backend_idx];
        // Exhaustive recording: the conservation identities below pair
        // individual events, which 1-in-N sampling would break.
        let cfg = Config::new(threads)
            .trace(true)
            .trace_sample(1)
            .backend(backend)
            .cutoff(CutoffPolicy::Fixed(2))
            .max_stolen_num(1)
            .seed(seed);
        for scheduler in [Scheduler::AdaptiveTc, Scheduler::Cilk] {
            let (_, _, trace) = scheduler
                .run_traced(&tree, &cfg)
                .expect("scheduler runs");
            let trace = trace.expect("Config::trace is set");
            if let Err(msg) = check_stream(&trace, backend == DequeBackend::FenceFree) {
                return Err(TestCaseError::Fail(format!(
                    "{scheduler}/{}/{threads}t/seed {seed}: {msg}",
                    backend.name()
                )));
            }
        }
    }

    // `Config::trace_filter` is surgical: a masked category records zero
    // events, and every unmasked category's counts are exactly what an
    // unfiltered run of the same (deterministic, single-slot) config
    // records — masking never perturbs what it does not mask.
    #[test]
    fn filter_drops_masked_categories_and_nothing_else(
        tree in tree_strategy(200),
        seed in 0u64..100,
        mask in 0u64..(1u64 << Category::ALL.len()),
    ) {
        // One thread + fixed seed: the engine is deterministic, so the
        // two runs below execute the identical schedule. Exhaustive
        // sampling keeps the unmasked counts exact.
        let cfg = Config::new(1)
            .trace(true)
            .trace_sample(1)
            .cutoff(CutoffPolicy::Fixed(2))
            .seed(seed);
        let (_, _, full) = Scheduler::AdaptiveTc
            .run_traced(&tree, &cfg)
            .expect("unfiltered run");
        let full = full.expect("Config::trace is set");
        let (_, _, filtered) = Scheduler::AdaptiveTc
            .run_traced(&tree, &cfg.clone().trace_filter(mask))
            .expect("filtered run");
        let filtered = filtered.expect("Config::trace is set");

        let count = |t: &Trace, c: Category| {
            t.workers
                .iter()
                .flat_map(|w| &w.events)
                .filter(|e| e.kind.category() == c)
                .count()
        };
        for c in Category::ALL {
            // Job brackets are forced on by the collector regardless of
            // the mask; everything else obeys its bit.
            let expected = if mask & c.bit() != 0 || c == Category::Job {
                count(&full, c)
            } else {
                0
            };
            prop_assert_eq!(
                count(&filtered, c),
                expected,
                "category {} under mask {mask:#x}",
                c.name()
            );
        }
    }
}

/// The trace crate's legal edge set is exactly the walk the runtime's
/// pure FSM kernel produces — any drift between the two modules fails
/// here rather than in a confusing stream assertion.
#[test]
fn legal_edges_match_runtime_fsm() {
    fn state(v: Version) -> FsmState {
        match v {
            Version::Fast => FsmState::Fast,
            Version::Check => FsmState::Check,
            Version::Special => FsmState::Special,
            Version::Fast2 => FsmState::Fast2,
            Version::Sequence => FsmState::Sequence,
        }
    }
    // Edges derived from the kernel's decision functions.
    let derived = [
        (FsmState::Fast, state(fsm::fallthrough(false))), // fast falls to check
        (FsmState::Check, state(fsm::after_poll(true))),  // poll diverts to special
        (
            state(fsm::after_poll(true)),
            state(fsm::special_reentry().0),
        ),
        (FsmState::Fast2, state(fsm::fallthrough(true))), // fast_2 falls to sequence
        // The steal bracket: an idle worker resumes a stolen frame in the
        // slow version and returns to idle when it unwinds.
        (FsmState::Idle, FsmState::Slow),
        (FsmState::Slow, FsmState::Idle),
    ];
    for (from, to) in derived {
        assert!(
            legal_fsm_edge(from, to),
            "derived edge {} -> {} not legal",
            from.name(),
            to.name()
        );
    }
    // And nothing else is legal: the derived set is the whole edge set.
    let mut count = 0;
    for from in FsmState::ALL {
        for to in FsmState::ALL {
            if legal_fsm_edge(from, to) {
                count += 1;
                assert!(
                    derived.contains(&(from, to)),
                    "undocumented legal edge {} -> {}",
                    from.name(),
                    to.name()
                );
            }
        }
    }
    assert_eq!(count, derived.len());
}
