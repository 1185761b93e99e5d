//! Stress and edge-case tests for the threaded runtime.

use adaptivetc_core::{Config, CutoffPolicy, DequeBackend, Expansion, Problem, WorkspacePolicy};
use adaptivetc_runtime::Scheduler;

/// A bushy tree with a payload that checks apply/undo pairing at every
/// node (any workspace corruption changes the result).
struct Checked {
    height: u32,
    fanout: u8,
}

impl Problem for Checked {
    type State = Vec<u64>; // path of choice hashes
    type Choice = u8;
    type Out = u64;
    fn root(&self) -> Vec<u64> {
        Vec::new()
    }
    fn expand(&self, path: &Vec<u64>, depth: u32) -> Expansion<u8, u64> {
        assert_eq!(path.len() as u32, depth, "workspace desynchronised");
        if depth == self.height {
            // Leaf value derives from the path so misrouted workspaces
            // change the sum.
            Expansion::Leaf(
                path.iter()
                    .fold(1u64, |a, &h| a.wrapping_mul(31).wrapping_add(h))
                    % 97,
            )
        } else {
            Expansion::Children((0..self.fanout).collect())
        }
    }
    fn apply(&self, path: &mut Vec<u64>, c: u8) {
        path.push(u64::from(c) + 1);
    }
    fn undo(&self, path: &mut Vec<u64>, _c: u8) {
        path.pop();
    }
    fn state_bytes(&self, path: &Vec<u64>) -> usize {
        path.len() * 8
    }
}

fn expected(p: &Checked) -> u64 {
    adaptivetc_core::serial::run(p).0
}

#[test]
fn adaptive_stress_with_aggressive_signalling() {
    // A tiny max_stolen_num forces many special-task transitions.
    let p = Checked {
        height: 9,
        fanout: 3,
    };
    let want = expected(&p);
    for seed in 0..5 {
        let cfg = Config::new(4).max_stolen_num(1).seed(seed);
        let (got, report) = Scheduler::AdaptiveTc.run(&p, &cfg).expect("runs");
        assert_eq!(got, want, "seed {seed}");
        assert_eq!(report.stats.nodes, adaptivetc_core::serial::run(&p).1.nodes);
    }
}

#[test]
fn cilk_stress_many_threads_small_deques() {
    let p = Checked {
        height: 8,
        fanout: 3,
    };
    let want = expected(&p);
    // Capacity 2 forces constant overflow fallback; correctness must hold.
    let cfg = Config::new(8).deque_capacity(2).seed(3);
    let (got, report) = Scheduler::Cilk.run(&p, &cfg).expect("runs");
    assert_eq!(got, want);
    assert!(
        report.stats.deque_overflows > 0,
        "tiny deques must overflow"
    );
}

#[test]
fn adaptive_with_deep_cutoff_degenerates_to_cilk_behaviour() {
    let p = Checked {
        height: 7,
        fanout: 3,
    };
    let want = expected(&p);
    let cfg = Config::new(2).cutoff(CutoffPolicy::Fixed(100));
    let (got, report) = Scheduler::AdaptiveTc.run(&p, &cfg).expect("runs");
    assert_eq!(got, want);
    // Cut-off deeper than the tree: every node is a task, like Cilk.
    assert_eq!(report.stats.tasks_created, report.stats.nodes);
    assert_eq!(report.stats.fake_tasks, 0);
}

#[test]
fn every_scheduler_on_every_backend_matches_serial() {
    // Mixed-backend sweep: every scheduler × deque backend × {2,4,8}
    // threads must return the serial answer. This is the cross-product the
    // pluggable-substrate refactor has to keep correct.
    let p = Checked {
        height: 8,
        fanout: 3,
    };
    let want = expected(&p);
    for backend in DequeBackend::ALL {
        for scheduler in [
            Scheduler::Cilk,
            Scheduler::CilkSynched,
            Scheduler::CutoffProgrammer(3),
            Scheduler::CutoffLibrary,
            Scheduler::AdaptiveTc,
        ] {
            for threads in [2, 4, 8] {
                let cfg = Config::new(threads).backend(backend).seed(7);
                let (got, report) = scheduler.run(&p, &cfg).expect("runs");
                assert_eq!(
                    got,
                    want,
                    "{scheduler} on {} with {threads} threads",
                    backend.name()
                );
                assert_eq!(report.threads, threads);
            }
        }
    }
}

#[test]
fn adaptive_stress_on_chase_lev_with_aggressive_signalling() {
    // The special-task path on the lock-free backend, forced hot: a tiny
    // max_stolen_num raises need_task constantly, so pop_special races
    // steal_specialtask (including the benign owner-won-the-child race the
    // Chase-Lev decomposition admits).
    let p = Checked {
        height: 9,
        fanout: 3,
    };
    let want = expected(&p);
    for seed in 0..5 {
        let cfg = Config::new(4)
            .backend(DequeBackend::ChaseLev)
            .max_stolen_num(1)
            .seed(seed);
        let (got, report) = Scheduler::AdaptiveTc.run(&p, &cfg).expect("runs");
        assert_eq!(got, want, "seed {seed}");
        assert_eq!(report.stats.nodes, adaptivetc_core::serial::run(&p).1.nodes);
        assert_eq!(report.stats.deque_overflows, 0, "chase-lev never overflows");
    }
}

#[test]
fn pools_report_reuse_on_all_backends() {
    let p = Checked {
        height: 8,
        fanout: 3,
    };
    let want = expected(&p);
    for backend in DequeBackend::ALL {
        // Pin the eager-copy policy: this test is about the pools, and
        // copy-on-steal (the default) removes almost every copy the pools
        // would recycle.
        let cfg = Config::new(2)
            .backend(backend)
            .workspace(WorkspacePolicy::EagerCopy)
            .seed(11);
        let (got, report) = Scheduler::AdaptiveTc.run(&p, &cfg).expect("runs");
        assert_eq!(got, want, "{}", backend.name());
        assert!(
            report.stats.state_reuse > 0,
            "{}: adaptive runs recycle workspace buffers",
            backend.name()
        );
        let (got, report) = Scheduler::CilkSynched.run(&p, &cfg).expect("runs");
        assert_eq!(got, want, "{}", backend.name());
        if backend == DequeBackend::FenceFree {
            // The multiplicity backend keeps a `Weak` per log entry for the
            // whole run, which pins every shell's weak count and blocks
            // `Arc::get_mut` pooling: shells are freed, not reused. The
            // workspace buffers (the expensive allocation) must still
            // recycle through the retire fallback.
            assert_eq!(
                report.stats.frame_reuse, 0,
                "fence-free cannot pool shells while log entries hold weaks"
            );
        } else {
            assert!(
                report.stats.frame_reuse > 0,
                "{}: frame-per-node schedulers recycle frames",
                backend.name()
            );
        }
        assert!(report.stats.state_reuse > 0, "{}", backend.name());
        // The faithful Cilk baseline must keep allocating.
        let (_, report) = Scheduler::Cilk.run(&p, &cfg).expect("runs");
        assert_eq!(report.stats.state_reuse, 0, "{}", backend.name());
    }
}

#[test]
fn idle_thieves_back_off() {
    // A serial chain gives thieves nothing to steal; they must record
    // back-off escalations rather than spin flat out until the root
    // resolves.
    struct Chain;
    impl Problem for Chain {
        type State = ();
        type Choice = u8;
        type Out = u64;
        fn root(&self) {}
        fn expand(&self, _: &(), depth: u32) -> Expansion<u8, u64> {
            // Busy work per node keeps the owner occupied for several
            // milliseconds in total, so thieves get many failed rounds;
            // the depth stays shallow enough for the check version's
            // recursion in debug builds.
            let mut h = u64::from(depth);
            for i in 0..4_000u64 {
                h = std::hint::black_box(h.wrapping_mul(0x9e3779b97f4a7c15) ^ i);
            }
            std::hint::black_box(h);
            if depth == 1_000 {
                Expansion::Leaf(1)
            } else {
                Expansion::Children(vec![0])
            }
        }
        fn apply(&self, _: &mut (), _: u8) {}
        fn undo(&self, _: &mut (), _: u8) {}
    }
    let cfg = Config::new(4).cutoff(CutoffPolicy::Fixed(1));
    let (got, report) = Scheduler::AdaptiveTc.run(&Chain, &cfg).expect("runs");
    assert_eq!(got, 1);
    assert!(
        report.stats.steal_backoffs > 0,
        "starved thieves must escalate back-off (failed={})",
        report.stats.steals_failed
    );
    assert!(report.stats.steal_backoffs <= report.stats.steals_failed);
}

#[test]
fn tascell_stress_repeated_splits() {
    let p = Checked {
        height: 9,
        fanout: 3,
    };
    let want = expected(&p);
    for seed in 0..5 {
        let cfg = Config::new(4).seed(seed);
        let (got, _) = Scheduler::Tascell.run(&p, &cfg).expect("runs");
        assert_eq!(got, want, "seed {seed}");
    }
}

#[test]
fn timing_instrumentation_does_not_change_results() {
    let p = Checked {
        height: 8,
        fanout: 3,
    };
    let want = expected(&p);
    for s in [Scheduler::Cilk, Scheduler::Tascell, Scheduler::AdaptiveTc] {
        let (got, report) = s.run(&p, &Config::new(2).timing(true)).expect("runs");
        assert_eq!(got, want, "{s}");
        // With timing on, the copy clock must tick for copying schedulers.
        if matches!(s, Scheduler::Cilk) {
            assert!(report.stats.time.copy_ns > 0);
        }
    }
}

#[test]
fn single_node_problem() {
    struct One;
    impl Problem for One {
        type State = ();
        type Choice = u8;
        type Out = u64;
        fn root(&self) {}
        fn expand(&self, _: &(), _: u32) -> Expansion<u8, u64> {
            Expansion::Leaf(7)
        }
        fn apply(&self, _: &mut (), _: u8) {}
        fn undo(&self, _: &mut (), _: u8) {}
    }
    for s in [
        Scheduler::Serial,
        Scheduler::Cilk,
        Scheduler::Tascell,
        Scheduler::AdaptiveTc,
    ] {
        let (got, _) = s.run(&One, &Config::new(4)).expect("runs");
        assert_eq!(got, 7, "{s}");
    }
}

#[test]
fn dead_end_heavy_problem() {
    // Interior nodes whose candidate lists are empty (failed backtracking
    // branches) must reduce to the identity without hanging any scheduler.
    struct DeadEnds;
    impl Problem for DeadEnds {
        type State = u32;
        type Choice = u8;
        type Out = u64;
        fn root(&self) -> u32 {
            0
        }
        fn expand(&self, st: &u32, depth: u32) -> Expansion<u8, u64> {
            if depth == 6 {
                Expansion::Leaf(1)
            } else if st % 3 == 2 {
                Expansion::Children(vec![]) // dead end
            } else {
                Expansion::Children(vec![0, 1, 2])
            }
        }
        fn apply(&self, st: &mut u32, c: u8) {
            *st = *st * 4 + u32::from(c) + 1;
        }
        fn undo(&self, st: &mut u32, c: u8) {
            *st = (*st - u32::from(c) - 1) / 4;
        }
    }
    let want = adaptivetc_core::serial::run(&DeadEnds).0;
    for s in [Scheduler::Cilk, Scheduler::Tascell, Scheduler::AdaptiveTc] {
        let (got, _) = s.run(&DeadEnds, &Config::new(3)).expect("runs");
        assert_eq!(got, want, "{s}");
    }
}

/// A random tree given by explicit child lists. Leaf `n` reduces to
/// `n + 1` after a little busy work (so thieves find continuations to
/// take), which makes every leaf's contribution distinct: a victim's
/// partial result lost, or counted twice, at a theft changes the sum.
struct ListTree {
    children: Vec<Vec<u32>>,
}

impl ListTree {
    /// `n` nodes; each node's parent is drawn uniformly among the nodes
    /// before it, giving bushy trees whose wide continuations get stolen
    /// mid-loop again and again.
    fn random(seed: u64, n: usize) -> ListTree {
        let mut rng = adaptivetc_core::XorShift64::new(seed);
        let mut children = vec![Vec::new(); n];
        for node in 1..n {
            children[rng.below_usize(node)].push(node as u32);
        }
        ListTree { children }
    }
}

impl Problem for ListTree {
    type State = Vec<u32>;
    type Choice = u32;
    type Out = u64;
    fn root(&self) -> Vec<u32> {
        vec![0]
    }
    fn expand(&self, path: &Vec<u32>, _depth: u32) -> Expansion<u32, u64> {
        let node = *path.last().expect("never empty") as usize;
        if self.children[node].is_empty() {
            let mut spin = node as u64;
            for _ in 0..200 {
                spin = std::hint::black_box(spin.wrapping_mul(31).wrapping_add(7));
            }
            std::hint::black_box(spin);
            Expansion::Leaf(node as u64 + 1)
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

/// Steal-heavy conservation: random trees at 2 and 4 threads, on every
/// backend, under every engine mode (eager frames and copy-on-steal
/// frames alike). Every answer must equal the serial one, and across the
/// sweep thieves must actually have taken continuations and victims
/// discovered it, so the stolen path of the frame join really ran.
#[test]
fn steal_heavy_random_trees_conserve_every_contribution() {
    let mut steals = 0;
    let mut conflicts = 0;
    for seed in 1..=6u64 {
        let tree = ListTree::random(seed, 600);
        let want = adaptivetc_core::serial::run(&tree).0;
        for threads in [2, 4] {
            for backend in DequeBackend::ALL {
                for scheduler in [
                    Scheduler::Cilk,
                    Scheduler::CilkSynched,
                    Scheduler::CutoffProgrammer(4),
                    Scheduler::CutoffLibrary,
                    Scheduler::AdaptiveTc,
                ] {
                    let cfg = Config::new(threads).backend(backend).seed(seed);
                    let (got, report) = scheduler.run(&tree, &cfg).expect("runs");
                    assert_eq!(
                        got,
                        want,
                        "seed {seed}, {scheduler}, {threads} threads, {}",
                        backend.name()
                    );
                    steals += report.stats.steals_ok;
                    conflicts += report.stats.pop_conflicts;
                }
            }
        }
    }
    assert!(
        steals > 0 && conflicts > 0,
        "the sweep never exercised a theft ({steals} steals, {conflicts} pop conflicts)"
    );
}
