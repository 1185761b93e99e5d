//! The search problems the benchmark solves, built once per set-up.
//!
//! Sizes are those of `adaptivetc_bench::PaperBench` (the Table 1
//! problems scaled to one machine), so the numbers here read against the
//! paper exhibits the repository already regenerates.

use adaptivetc_core::{Config, Problem, RunReport, SchedulerError};
use adaptivetc_runtime::Scheduler;
use adaptivetc_trace::Trace;
use adaptivetc_workloads::comp::Comp;
use adaptivetc_workloads::dag::LayeredDag;
use adaptivetc_workloads::fib::Fib;
use adaptivetc_workloads::knights::KnightsTour;
use adaptivetc_workloads::nqueens::{NqueensArray, NqueensCompute};
use adaptivetc_workloads::pentomino::Pentomino;
use adaptivetc_workloads::strimko::Strimko;
use adaptivetc_workloads::sudoku::Sudoku;
use std::time::Instant;

/// One problem of a workload's set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Prob {
    NqueensArray,
    NqueensCompute,
    Strimko,
    Knights,
    Sudoku,
    Pentomino,
    Fib,
    Comp,
    /// A `LayeredDag::phase_skewed` instance drawn from the run's seed.
    Dag,
}

impl Prob {
    /// The eight Table 1 problems, in the paper's order.
    pub const TABLE1: [Prob; 8] = [
        Prob::NqueensArray,
        Prob::NqueensCompute,
        Prob::Strimko,
        Prob::Knights,
        Prob::Sudoku,
        Prob::Pentomino,
        Prob::Fib,
        Prob::Comp,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Prob::NqueensArray => "Nqueen-array(11)",
            Prob::NqueensCompute => "Nqueen-compute(11)",
            Prob::Strimko => "Strimko",
            Prob::Knights => "Knights-Tour(5x5)",
            Prob::Sudoku => "Sudoku(balance)",
            Prob::Pentomino => "Pentomino(8)",
            Prob::Fib => "Fib(26)",
            Prob::Comp => "Comp(1024)",
            Prob::Dag => "LayeredDag(phase-skewed)",
        }
    }
}

/// Width multiplier of the DAG's wide bands: about 10 ms of serial work,
/// the order of the smaller Table 1 problems.
const DAG_SCALE: usize = 384;

/// One solve: the answer, the engine's report, the trace when one was
/// asked for, and the wall time of the public-API call.
pub struct Solve {
    pub out: u64,
    pub report: RunReport,
    pub trace: Option<Trace>,
    pub ns: u64,
}

/// Built problem instances.
pub struct Inputs {
    nqa: NqueensArray,
    nqc: NqueensCompute,
    strimko: Strimko,
    knights: KnightsTour,
    sudoku: Sudoku,
    pento: Pentomino,
    fib: Fib,
    comp: Comp,
    dag: Option<LayeredDag>,
}

impl Inputs {
    /// Build the Table 1 instances, plus the DAG drawn from `seed` when
    /// `set` contains it.
    pub fn build(set: &[Prob], seed: u64) -> Inputs {
        Inputs {
            nqa: NqueensArray::new(11),
            nqc: NqueensCompute::new(11),
            strimko: Strimko::paper_default(),
            knights: KnightsTour::new(5, 0, 0),
            sudoku: Sudoku::balanced_tree(),
            pento: Pentomino::with_board(8, 5, 8),
            fib: Fib::new(26),
            comp: Comp::new(1024, 7).leaf_size(4),
            dag: set
                .contains(&Prob::Dag)
                .then(|| LayeredDag::phase_skewed(DAG_SCALE, seed)),
        }
    }

    /// Solve `p` under `sched` through `Scheduler::run`, or through
    /// `Scheduler::run_traced` when `traced`.
    pub fn solve(
        &self,
        p: Prob,
        sched: Scheduler,
        cfg: &Config,
        traced: bool,
    ) -> Result<Solve, SchedulerError> {
        match p {
            Prob::NqueensArray => solve(&self.nqa, sched, cfg, traced),
            Prob::NqueensCompute => solve(&self.nqc, sched, cfg, traced),
            Prob::Strimko => solve(&self.strimko, sched, cfg, traced),
            Prob::Knights => solve(&self.knights, sched, cfg, traced),
            Prob::Sudoku => solve(&self.sudoku, sched, cfg, traced),
            Prob::Pentomino => solve(&self.pento, sched, cfg, traced),
            Prob::Fib => solve(&self.fib, sched, cfg, traced),
            Prob::Comp => solve(&self.comp, sched, cfg, traced),
            Prob::Dag => solve(
                self.dag
                    .as_ref()
                    .expect("the DAG is built for sets that hold it"),
                sched,
                cfg,
                traced,
            ),
        }
    }
}

fn solve<P: Problem<Out = u64>>(
    p: &P,
    sched: Scheduler,
    cfg: &Config,
    traced: bool,
) -> Result<Solve, SchedulerError> {
    let t0 = Instant::now();
    let (out, report, trace) = if traced {
        sched.run_traced(p, cfg)?
    } else {
        let (out, report) = sched.run(p, cfg)?;
        (out, report, None)
    };
    let ns = t0.elapsed().as_nanos() as u64;
    Ok(Solve {
        out: std::hint::black_box(out),
        report,
        trace,
        ns,
    })
}
