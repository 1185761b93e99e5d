//! Cross-crate integration: every scheduler (threaded and simulated)
//! produces the serial answer on every workload.

use adaptivetc_suite::core::{serial, Config};
use adaptivetc_suite::runtime::Scheduler;
use adaptivetc_suite::sim::{simulate, CostModel, Policy, SimTree};
use adaptivetc_suite::workloads::comp::Comp;
use adaptivetc_suite::workloads::fib::Fib;
use adaptivetc_suite::workloads::knights::KnightsTour;
use adaptivetc_suite::workloads::nqueens::{NqueensArray, NqueensCompute};
use adaptivetc_suite::workloads::pentomino::Pentomino;
use adaptivetc_suite::workloads::strimko::Strimko;
use adaptivetc_suite::workloads::sudoku::Sudoku;
use adaptivetc_suite::workloads::tree::UnbalancedTree;

fn schedulers() -> Vec<Scheduler> {
    vec![
        Scheduler::Cilk,
        Scheduler::CilkSynched,
        Scheduler::Tascell,
        Scheduler::CutoffProgrammer(2),
        Scheduler::CutoffLibrary,
        Scheduler::AdaptiveTc,
    ]
}

fn check_all<P>(problem: &P, label: &str)
where
    P: adaptivetc_suite::core::Problem<Out = u64>,
{
    let (expected, serial_report) = serial::run(problem);
    for scheduler in schedulers() {
        for threads in [1, 2, 4] {
            let cfg = Config::new(threads).seed(42 + threads as u64);
            let (got, report) = scheduler
                .run(problem, &cfg)
                .unwrap_or_else(|e| panic!("{label}/{scheduler}/{threads}: {e}"));
            assert_eq!(got, expected, "{label}: {scheduler} with {threads} threads");
            assert_eq!(
                report.stats.nodes, serial_report.nodes,
                "{label}: {scheduler} with {threads} threads visited a different tree"
            );
        }
    }
    // Simulated policies visit every leaf too.
    let tree = SimTree::from_problem(problem);
    for policy in [
        Policy::Cilk,
        Policy::CilkSynched,
        Policy::CutoffProgrammer(2),
        Policy::CutoffLibrary,
        Policy::AdaptiveTc,
        Policy::Tascell,
    ] {
        for threads in [1, 3, 8] {
            let out = simulate(
                &tree,
                policy,
                &Config::new(threads),
                CostModel::calibrated(),
            );
            assert_eq!(
                out.leaves,
                tree.leaf_count(),
                "{label}: simulated {} with {threads} workers",
                policy.name()
            );
        }
    }
}

#[test]
fn nqueens_array() {
    check_all(&NqueensArray::new(8), "nqueens-array(8)");
}

#[test]
fn nqueens_compute() {
    check_all(&NqueensCompute::new(8), "nqueens-compute(8)");
}

#[test]
fn strimko_small() {
    // A 5×5 instance keeps the integration test quick.
    let mut givens = vec![0u8; 25];
    for (c, g) in givens.iter_mut().take(5).enumerate() {
        *g = c as u8 + 1;
    }
    check_all(&Strimko::linear(5, 1, 1, givens), "strimko(5x5)");
}

#[test]
fn knights_tour() {
    check_all(&KnightsTour::new(5, 1, 2), "knights(5x5)");
}

#[test]
fn sudoku_balanced() {
    check_all(&Sudoku::balanced(), "sudoku(balanced)");
}

#[test]
fn pentomino() {
    check_all(&Pentomino::with_board(5, 5, 5), "pentomino(5)");
}

#[test]
fn fib() {
    check_all(&Fib::new(18), "fib(18)");
}

#[test]
fn comp() {
    check_all(&Comp::new(256, 3), "comp(256)");
}

#[test]
fn unbalanced_tree_left_and_right() {
    check_all(&UnbalancedTree::tree3(30_000), "tree3L(30k)");
    check_all(&UnbalancedTree::tree3(30_000).reversed(), "tree3R(30k)");
}

/// Differential test on the shared Figure 1 call tree: at one thread the
/// threaded engine is deterministic (no thieves), so every task, deque and
/// workspace counter must agree *exactly* with the discrete-event
/// simulator's, for every engine mode on every deque backend, with both
/// engines given the same config. Any drift between the two engines'
/// task-creation logic shows up here first. The simulator does not model
/// the pools' capacity, only whether a mode pools its workspace copies: a
/// mode that copies recycles buffers in the engine exactly when the
/// simulator spares some of its copies the allocation. The reuse counters
/// may only rise above the floors pinned here.
#[test]
fn fig1_engine_matches_simulator_exactly() {
    use adaptivetc_suite::core::{CutoffPolicy, DequeBackend, RunStats};
    use adaptivetc_suite::workloads::fig1::Fig1Tree;

    fn exact(s: &RunStats) -> [(&'static str, u64); 11] {
        [
            ("nodes", s.nodes),
            ("tasks_created", s.tasks_created),
            ("fake_tasks", s.fake_tasks),
            ("polls", s.polls),
            ("deque_pushes", s.deque_pushes),
            ("deque_pops", s.deque_pops),
            ("pop_conflicts", s.pop_conflicts),
            ("special_tasks", s.special_tasks),
            ("copies", s.copies),
            ("copy_bytes", s.copy_bytes),
            ("workspace_copies_saved", s.workspace_copies_saved),
        ]
    }

    let tree = Fig1Tree::new();
    let sim_tree = SimTree::from_problem(&tree);
    let base = Config::new(1).cutoff(CutoffPolicy::Fixed(2)).seed(42);
    // (scheduler, simulated policy, pool floors (frame_reuse,
    // state_reuse) on exactly-once / fence-free backends).
    type Floors = [(u64, u64); 2];
    let cases: [(Scheduler, Policy, Floors); 5] = [
        (Scheduler::Cilk, Policy::Cilk, [(18, 0), (1, 0)]),
        (
            Scheduler::CilkSynched,
            Policy::CilkSynched,
            [(18, 42), (1, 42)],
        ),
        (
            Scheduler::CutoffProgrammer(2),
            Policy::CutoffProgrammer(2),
            [(1, 0), (0, 0)],
        ),
        (
            Scheduler::CutoffLibrary,
            Policy::CutoffLibrary,
            [(0, 41), (0, 41)],
        ),
        (Scheduler::AdaptiveTc, Policy::AdaptiveTc, [(1, 0), (0, 0)]),
    ];
    for (scheduler, policy, floors) in cases {
        let sim = simulate(&sim_tree, policy, &base, CostModel::calibrated());
        assert_eq!(sim.leaves, Fig1Tree::LEAVES, "sim {}", policy.name());
        for backend in DequeBackend::ALL {
            let cfg = base.clone().backend(backend);
            let (out, report) = scheduler
                .run(&tree, &cfg)
                .unwrap_or_else(|e| panic!("fig1/{scheduler}/{}: {e}", backend.name()));
            assert_eq!(out, Fig1Tree::LEAVES, "{scheduler}/{}", backend.name());
            for ((name, engine), (_, simulated)) in exact(&report.stats)
                .into_iter()
                .zip(exact(&sim.report.stats))
            {
                assert_eq!(
                    engine,
                    simulated,
                    "fig1: {scheduler} ({}) vs simulated {}: {name} diverged",
                    backend.name(),
                    policy.name()
                );
            }
            let (frames, states) = floors[usize::from(backend == DequeBackend::FenceFree)];
            assert!(
                report.stats.frame_reuse >= frames && report.stats.state_reuse >= states,
                "fig1: {scheduler} ({}): pool reuse fell to frames {} / states {} \
                 (floors {frames} / {states})",
                backend.name(),
                report.stats.frame_reuse,
                report.stats.state_reuse
            );
            let sim = &sim.report.stats;
            if sim.copies > 0 {
                assert_eq!(
                    report.stats.state_reuse > 0,
                    sim.allocations < sim.copies,
                    "fig1: {scheduler} ({}): the engine reused {} workspace buffers, \
                     the simulator allocated for {} of {} copies",
                    backend.name(),
                    report.stats.state_reuse,
                    sim.allocations,
                    sim.copies
                );
            }
        }
    }
    // Tascell is its own interpreter: task accounting only.
    let sim = simulate(&sim_tree, Policy::Tascell, &base, CostModel::calibrated());
    for backend in DequeBackend::ALL {
        let (out, report) = Scheduler::Tascell
            .run(&tree, &base.clone().backend(backend))
            .expect("tascell runs");
        assert_eq!(out, Fig1Tree::LEAVES);
        for (name, engine, simulated) in [
            (
                "tasks_created",
                report.stats.tasks_created,
                sim.report.stats.tasks_created,
            ),
            (
                "fake_tasks",
                report.stats.fake_tasks,
                sim.report.stats.fake_tasks,
            ),
            (
                "special_tasks",
                report.stats.special_tasks,
                sim.report.stats.special_tasks,
            ),
        ] {
            assert_eq!(engine, simulated, "fig1: Tascell: {name} diverged");
        }
    }
}
