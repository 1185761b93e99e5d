//! A panic in user code fails the run with `WorkerPanicked` instead of
//! hanging it or freeing frames other workers still reach.
//!
//! The panicking worker's deque still holds continuations of the frames
//! on its stack, and other workers hold children of those frames, so the
//! run exercises both ways a dead worker's frames are reached after its
//! panic: a steal of one of its entries, and a child's delivery into one
//! of its frames.

use adaptivetc_core::{
    Config, DequeBackend, Expansion, Problem, Reduce, SchedulerError, WorkspacePolicy,
};
use adaptivetc_runtime::Scheduler;
use std::sync::mpsc;
use std::time::Duration;

/// Where the tripwire problem panics.
#[derive(Clone, Copy, Debug)]
enum Trip {
    /// `Problem::expand` of the target node.
    Expand,
    /// `Problem::apply` of the choice that reaches the target node.
    Apply,
    /// `Reduce::combine` of the target node's (leaf) result.
    Combine,
}

/// A leaf value that makes `Tally::combine` panic.
const TRIP: u64 = u64::MAX;

#[derive(Debug)]
struct Tally(u64);

impl Reduce for Tally {
    fn identity() -> Self {
        Tally(0)
    }
    fn combine(&mut self, other: Self) {
        assert_ne!(other.0, TRIP, "tripwire: combine");
        self.0 += other.0;
    }
}

/// A bushy tree that panics at one node, in the middle of the tree, so
/// the panicking worker has continuations pushed for its ancestors.
struct Tripwire {
    height: u32,
    fanout: u8,
    target: Vec<u8>,
    trip: Trip,
}

impl Problem for Tripwire {
    type State = Vec<u8>;
    type Choice = u8;
    type Out = Tally;
    fn root(&self) -> Vec<u8> {
        Vec::new()
    }
    fn expand(&self, path: &Vec<u8>, depth: u32) -> Expansion<u8, Tally> {
        if *path == self.target {
            match self.trip {
                Trip::Expand => panic!("tripwire: expand"),
                Trip::Combine => return Expansion::Leaf(Tally(TRIP)),
                Trip::Apply => unreachable!("apply trips first"),
            }
        }
        if depth == self.height {
            Expansion::Leaf(Tally(1))
        } else {
            Expansion::Children((0..self.fanout).collect())
        }
    }
    fn apply(&self, path: &mut Vec<u8>, c: u8) {
        path.push(c);
        if matches!(self.trip, Trip::Apply) && *path == self.target {
            panic!("tripwire: apply");
        }
    }
    fn undo(&self, path: &mut Vec<u8>, _c: u8) {
        path.pop();
    }
}

/// Run on a helper thread so a hang fails the test instead of wedging it.
fn run_bounded(scheduler: Scheduler, cfg: Config, trip: Trip) -> Result<u64, SchedulerError> {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let p = Tripwire {
            height: 8,
            fanout: 3,
            target: vec![1; 5],
            trip,
        };
        let _ = tx.send(scheduler.run(&p, &cfg).map(|(out, _)| out.0));
    });
    rx.recv_timeout(Duration::from_secs(60))
        .unwrap_or_else(|_| panic!("{scheduler} with a {trip:?} panic hung"))
}

#[test]
fn a_panicking_problem_fails_the_run_at_every_thread_count() {
    for (seed, threads) in (0..3u64).flat_map(|seed| [1, 2, 4].map(|t| (seed, t))) {
        for backend in DequeBackend::ALL {
            for workspace in [WorkspacePolicy::EagerCopy, WorkspacePolicy::CopyOnSteal] {
                for scheduler in [
                    Scheduler::Cilk,
                    Scheduler::CilkSynched,
                    Scheduler::CutoffProgrammer(3),
                    Scheduler::CutoffLibrary,
                    Scheduler::AdaptiveTc,
                ] {
                    for trip in [Trip::Expand, Trip::Apply, Trip::Combine] {
                        // A tiny max_stolen_num sends AdaptiveTC through
                        // special tasks and their sync wait.
                        let cfg = Config::new(threads)
                            .backend(backend)
                            .workspace(workspace)
                            .max_stolen_num(1)
                            .seed(seed);
                        match run_bounded(scheduler, cfg, trip) {
                            Err(SchedulerError::WorkerPanicked(id)) => assert!(id < threads),
                            other => panic!(
                                "{scheduler}, {threads} threads, seed {seed}, {}, \
                                 {workspace:?}, {trip:?}: expected WorkerPanicked, \
                                 got {other:?}",
                                backend.name()
                            ),
                        }
                    }
                }
            }
        }
    }
}
