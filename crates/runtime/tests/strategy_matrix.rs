//! Property and pin tests for the pluggable scheduling-strategy engine:
//! every (creation, extraction, threshold, backend) combination must
//! preserve exactly-once execution and coherent run statistics, and the
//! non-adaptive schedulers must ignore strategy overrides entirely.

use adaptivetc_core::{
    Config, CreationPolicy, DequeBackend, Expansion, ExtractionPolicy, Problem, RunStats,
    ThresholdPolicy,
};
use adaptivetc_runtime::Scheduler;
use proptest::prelude::*;

/// A bushy tree whose leaf values derive from the path, so any lost,
/// duplicated or misrouted node changes the reduced sum.
struct Checked {
    height: u32,
    fanout: u8,
}

impl Problem for Checked {
    type State = Vec<u64>;
    type Choice = u8;
    type Out = u64;
    fn root(&self) -> Vec<u64> {
        Vec::new()
    }
    fn expand(&self, path: &Vec<u64>, depth: u32) -> Expansion<u8, u64> {
        assert_eq!(path.len() as u32, depth, "workspace desynchronised");
        if depth == self.height {
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

/// The coherence contract every strategy combination must keep.
fn assert_coherent(stats: &RunStats, cfg: &Config, serial_nodes: u64) {
    assert_eq!(stats.nodes, serial_nodes, "a node ran zero or two times");
    assert!(
        stats.steals_ok <= stats.tasks_created,
        "stole more tasks than were ever created ({} > {})",
        stats.steals_ok,
        stats.tasks_created
    );
    if cfg.backend != DequeBackend::FenceFree {
        assert_eq!(
            stats.dup_extractions,
            0,
            "exact backend {} reported duplicate extractions",
            cfg.backend.name()
        );
    }
    if cfg.creation == CreationPolicy::Static {
        assert_eq!(
            stats.cutoff_adjustments, 0,
            "the static creation policy must never retune the cutoff"
        );
    }
    if cfg.threshold == ThresholdPolicy::Fixed {
        assert_eq!(
            stats.threshold_adjustments, 0,
            "the fixed threshold policy must never retune"
        );
    }
    if cfg.threads == 1 {
        assert_eq!(
            stats.cutoff_adjustments, 0,
            "no thieves, no pressure: 1-thread runs never retune the cutoff"
        );
        assert_eq!(
            stats.steals_ok, 0,
            "1-thread runs have nobody to steal from"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // Exactly-once execution and stats coherence across the full
    // strategy matrix, at 1, 2 and 4 threads.
    #[test]
    fn strategy_matrix_preserves_exactly_once(
        creation_ix in 0usize..CreationPolicy::ALL.len(),
        extraction_ix in 0usize..ExtractionPolicy::ALL.len(),
        threshold_ix in 0usize..ThresholdPolicy::ALL.len(),
        backend_ix in 0usize..DequeBackend::ALL.len(),
        threads_ix in 0usize..3,
        height in 6u32..9,
        seed in 0u64..1 << 20,
    ) {
        let creation = CreationPolicy::ALL[creation_ix];
        let extraction = ExtractionPolicy::ALL[extraction_ix];
        let threshold = ThresholdPolicy::ALL[threshold_ix];
        let backend = DequeBackend::ALL[backend_ix];
        let threads = [1usize, 2, 4][threads_ix];
        let p = Checked { height, fanout: 3 };
        let (want, serial) = adaptivetc_core::serial::run(&p);
        let cfg = Config::new(threads)
            .creation(creation)
            .extraction(extraction)
            .threshold(threshold)
            .backend(backend)
            .max_stolen_num(1) // aggressive signalling exercises the controllers
            .seed(seed);
        let (got, report) = Scheduler::AdaptiveTc.run(&p, &cfg).expect("runs");
        prop_assert_eq!(
            got, want,
            "{}/{}/{} on {} with {} threads",
            creation.name(), extraction.name(), threshold.name(),
            backend.name(), threads
        );
        assert_coherent(&report.stats, &cfg, serial.nodes);
    }
}

/// The full matrix once, deterministically, so a combination that
/// proptest happens to skip still runs on every CI pass.
#[test]
fn strategy_matrix_exhaustive_single_seed() {
    let p = Checked {
        height: 7,
        fanout: 3,
    };
    let (want, serial) = adaptivetc_core::serial::run(&p);
    for creation in CreationPolicy::ALL {
        for extraction in ExtractionPolicy::ALL {
            for threshold in ThresholdPolicy::ALL {
                for backend in DequeBackend::ALL {
                    for threads in [1, 2, 4] {
                        let cfg = Config::new(threads)
                            .creation(creation)
                            .extraction(extraction)
                            .threshold(threshold)
                            .backend(backend)
                            .max_stolen_num(1)
                            .seed(17);
                        let (got, report) = Scheduler::AdaptiveTc.run(&p, &cfg).expect("runs");
                        assert_eq!(
                            got,
                            want,
                            "{}/{}/{} on {} with {threads} threads",
                            creation.name(),
                            extraction.name(),
                            threshold.name(),
                            backend.name()
                        );
                        assert_coherent(&report.stats, &cfg, serial.nodes);
                    }
                }
            }
        }
    }
}

/// The paper's fixed-cutoff baselines and the Cilk family run presets
/// that read no strategy axis and carry no controller, so strategy
/// overrides in the config must not change a single counter: same tree, same seed, overridden vs
/// default configs, bit-identical single-thread stats and zero retunes
/// at any thread count.
#[test]
fn non_adaptive_schedulers_ignore_strategy_overrides() {
    let p = Checked {
        height: 7,
        fanout: 3,
    };
    let want = adaptivetc_core::serial::run(&p).0;
    let overridden = |threads: usize| {
        Config::new(threads)
            .creation(CreationPolicy::Hybrid)
            .extraction(ExtractionPolicy::StealHalf)
            .threshold(ThresholdPolicy::Adaptive)
            .seed(23)
    };
    for scheduler in [
        Scheduler::Cilk,
        Scheduler::CilkSynched,
        Scheduler::CutoffProgrammer(3),
        Scheduler::CutoffLibrary,
        Scheduler::Tascell,
    ] {
        // Single thread is deterministic: the full stat blocks must be
        // bit-identical with and without the overrides.
        let (got_a, base) = scheduler.run(&p, &Config::new(1).seed(23)).expect("runs");
        let (got_b, over) = scheduler.run(&p, &overridden(1)).expect("runs");
        assert_eq!(got_a, want, "{scheduler}");
        assert_eq!(got_b, want, "{scheduler}");
        assert_eq!(
            base.stats, over.stats,
            "{scheduler}: strategy overrides leaked into a non-adaptive mode"
        );
        // Multi-thread runs are timing-dependent, but the controllers must
        // stay silent regardless.
        let (got, report) = scheduler.run(&p, &overridden(4)).expect("runs");
        assert_eq!(got, want, "{scheduler}");
        assert_eq!(
            report.stats.cutoff_adjustments, 0,
            "{scheduler} retuned a cutoff it does not own"
        );
        assert_eq!(
            report.stats.threshold_adjustments, 0,
            "{scheduler} retuned a threshold it does not own"
        );
    }
}
