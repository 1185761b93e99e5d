//! The search workloads: a problem set solved pass after pass under one
//! scheduler, with serial solves of the same problems interleaved.
//!
//! Every solve goes through `Scheduler::run` (or `run_traced`) and its
//! answer is checked against the reference computed in set-up. A pass
//! solves each problem once per kind; the kinds alternate their order
//! from pass to pass so neither side always runs on a warm or a cold
//! cache.

use crate::layers;
use crate::problems::{Inputs, Prob};
use crate::report::Row;
use crate::stats::{geomean, ratio};
use crate::Tally;
use adaptivetc_core::{Config, RunStats, XorShift64};
use adaptivetc_runtime::Scheduler;
use adaptivetc_trace::analysis::{response_time_cdf, steal_latency_cdf, TraceCounts};
use adaptivetc_trace::Trace;
use std::time::Instant;

/// Events each worker's ring keeps: enough that a traced solve of the
/// largest problem drops few of them.
const TRACE_CAPACITY: usize = 1 << 18;

/// What a search workload runs.
pub struct Spec {
    pub sched: Scheduler,
    pub threads: usize,
    pub set: Vec<Prob>,
}

/// How one solve of a pass is run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// `Scheduler::Serial`: the denominator.
    Serial,
    /// The scheduler under test, untraced: every end-to-end number.
    Plain,
    /// `trace(true)` through `run_traced`: events, CDFs, trace overhead.
    Traced,
    /// `timing(true)`: the engine's per-activity time breakdown.
    Timed,
}

/// One kind's share of a pass.
#[derive(Default)]
struct PassSide {
    ns: u64,
    /// Indexed like the workload's problem set.
    per_problem_ns: Vec<u64>,
    stats: RunStats,
    traces: Vec<Trace>,
    summary: TraceSummary,
}

/// What the per-layer rows need from a traced pass's event streams.
#[derive(Default)]
struct TraceSummary {
    events: f64,
    dropped: f64,
    need_task_signals: f64,
    steal_p50_us: f64,
    steal_p90_us: f64,
    response_p50_us: f64,
}

impl TraceSummary {
    /// Pool the streams of every solve of a pass into one trace.
    fn of(traces: Vec<Trace>) -> TraceSummary {
        let events = traces.iter().map(|t| t.len() as f64).sum();
        let dropped = traces.iter().map(|t| t.total_dropped() as f64).sum();
        let pooled = Trace::from_workers(traces.into_iter().flat_map(|t| t.workers).collect());
        let steal = steal_latency_cdf(&pooled);
        TraceSummary {
            events,
            dropped,
            need_task_signals: TraceCounts::from_trace(&pooled).need_task_signals as f64,
            steal_p50_us: steal.p50() as f64 / 1e3,
            steal_p90_us: steal.p90() as f64 / 1e3,
            response_p50_us: response_time_cdf(&pooled).p50() as f64 / 1e3,
        }
    }
}

/// The measured state a set-up leaves behind.
pub struct Prepared {
    inputs: Inputs,
    refs: Vec<u64>,
}

/// Build the inputs, compute each problem's reference answer serially,
/// and warm the scheduler up with one solve of each problem.
pub fn setup(spec: &Spec, seed: u64, tally: &mut Tally) -> Prepared {
    let inputs = Inputs::build(&spec.set, seed);
    let serial_cfg = Config::new(1);
    let cfg = Config::new(spec.threads).seed(seed);
    let mut refs = Vec::with_capacity(spec.set.len());
    for &p in &spec.set {
        let reference = inputs
            .solve(p, Scheduler::Serial, &serial_cfg, false)
            .expect("the serial baseline runs")
            .out;
        let warm = inputs.solve(p, spec.sched, &cfg, false);
        tally.check(p.name(), warm.map(|s| s.out), reference);
        refs.push(reference);
    }
    Prepared { inputs, refs }
}

/// Everything the passes measured.
pub struct Measured {
    serial: Vec<PassSide>,
    plain: Vec<PassSide>,
    traced: Vec<PassSide>,
    timed: Vec<PassSide>,
}

/// Run passes until `seconds` have gone by. With `layers`, each pass
/// also makes a traced and a timed solve of every problem.
pub fn measure(
    spec: &Spec,
    prep: &Prepared,
    seed: u64,
    seconds: f64,
    layers: bool,
    tally: &mut Tally,
) -> Measured {
    let mut kinds = vec![Kind::Serial, Kind::Plain];
    if layers {
        kinds.extend([Kind::Traced, Kind::Timed]);
    }
    // The seed fixes the order problems are solved in within a pass.
    let mut order: Vec<usize> = (0..spec.set.len()).collect();
    let mut rng = XorShift64::new(seed);
    for i in (1..order.len()).rev() {
        order.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let base = Config::new(spec.threads).seed(seed);
    let cfg_of = |k: Kind| match k {
        Kind::Serial => Config::new(1),
        Kind::Plain => base.clone(),
        Kind::Traced => base.clone().trace(true).trace_capacity(TRACE_CAPACITY),
        Kind::Timed => base.clone().timing(true),
    };
    let mut m = Measured {
        serial: Vec::new(),
        plain: Vec::new(),
        traced: Vec::new(),
        timed: Vec::new(),
    };
    let start = Instant::now();
    let mut pass = 0usize;
    while pass == 0 || start.elapsed().as_secs_f64() < seconds {
        let mut sides: Vec<PassSide> = kinds
            .iter()
            .map(|_| PassSide {
                per_problem_ns: vec![0; spec.set.len()],
                ..PassSide::default()
            })
            .collect();
        for &i in &order {
            let p = spec.set[i];
            for step in 0..kinds.len() {
                // Rotate which kind goes first, pass by pass.
                let k = (step + pass) % kinds.len();
                let kind = kinds[k];
                let sched = if kind == Kind::Serial {
                    Scheduler::Serial
                } else {
                    spec.sched
                };
                let solved = prep
                    .inputs
                    .solve(p, sched, &cfg_of(kind), kind == Kind::Traced);
                let out = solved.as_ref().map(|s| s.out).map_err(|e| e.to_string());
                tally.check(p.name(), out, prep.refs[i]);
                if let Ok(s) = solved {
                    let side = &mut sides[k];
                    side.ns += s.ns;
                    side.per_problem_ns[i] = s.ns;
                    side.stats.merge(&s.report.stats);
                    side.traces.extend(s.trace);
                }
            }
        }
        for (kind, mut side) in kinds.iter().zip(sides) {
            match kind {
                Kind::Serial => m.serial.push(side),
                Kind::Plain => m.plain.push(side),
                Kind::Traced => {
                    side.summary = TraceSummary::of(std::mem::take(&mut side.traces));
                    m.traced.push(side);
                }
                Kind::Timed => m.timed.push(side),
            }
        }
        pass += 1;
    }
    m
}

fn ms(sides: &[PassSide]) -> Vec<f64> {
    sides.iter().map(|s| s.ns as f64 / 1e6).collect()
}

/// Per pass, the geometric mean over problems of scheduler time over
/// serial time, paired within the pass.
fn overhead(m: &Measured) -> Vec<f64> {
    m.plain
        .iter()
        .zip(&m.serial)
        .map(|(p, s)| {
            let r: Vec<f64> = p
                .per_problem_ns
                .iter()
                .zip(&s.per_problem_ns)
                .map(|(&a, &b)| a as f64 / b.max(1) as f64)
                .collect();
            geomean(&r)
        })
        .collect()
}

/// The end-to-end rows; every value comes from untraced passes.
pub fn end_to_end(spec: &Spec, m: &Measured) -> (Vec<Row>, Vec<Row>) {
    let plain = ms(&m.plain);
    let over = overhead(m);
    let gated = vec![
        Row::median("solve_ms", "ms", &plain)
            .note(format!("{} at {} worker(s)", spec.sched, spec.threads)),
        Row::tail("solve_ms_tail", "ms", &plain),
        Row::median("serial_ms", "ms", &ms(&m.serial)),
        Row::median("overhead_x", "x", &over).note("geomean of paired scheduler/serial"),
    ];
    let speedup: Vec<f64> = over.iter().map(|x| 1.0 / x).collect();
    let mut info = vec![Row::median("speedup_x", "x", &speedup).note("1 / overhead_x")];
    for (i, p) in spec.set.iter().enumerate() {
        let r: Vec<f64> = m
            .plain
            .iter()
            .zip(&m.serial)
            .map(|(a, b)| a.per_problem_ns[i] as f64 / b.per_problem_ns[i].max(1) as f64)
            .collect();
        info.push(Row::median(format!("ratio_x.{}", p.name()), "x", &r).note("scheduler / serial"));
    }
    (gated, info)
}

/// The per-layer rows of the engine, its steal path, strategy, workspace,
/// pools, the trace layer and the serial core. `deque_op_ns` is the
/// measured cost of one push or pop on the backend the runs use.
pub fn layers(spec: &Spec, m: &Measured, deque_op_ns: f64) -> Vec<Row> {
    let threads = spec.threads as f64;
    let per_node = |sides: &[PassSide]| -> Vec<f64> {
        sides
            .iter()
            .map(|s| ratio(s.ns as f64, s.stats.nodes as f64))
            .collect()
    };
    let t = |name: &str, unit: &'static str, f: &dyn Fn(&TraceSummary) -> f64| {
        let xs: Vec<f64> = m.traced.iter().map(|s| f(&s.summary)).collect();
        Row::median(name, unit, &xs)
    };
    let summary = |f: &dyn Fn(&TraceSummary) -> f64| -> Vec<f64> {
        m.traced.iter().map(|s| f(&s.summary)).collect()
    };
    let mut rows = layers::counters(&samples(&m.plain, threads), deque_op_ns);
    rows.extend(layers::shares(&samples(&m.timed, threads)));
    rows.extend(layers::trace(
        &ms(&m.plain),
        &ms(&m.traced),
        &summary(&|s| s.events),
        &summary(&|s| s.dropped),
    ));
    rows.extend([
        Row::median("engine.ns_per_node", "ns", &per_node(&m.plain)),
        t("steal.latency_p50_us", "us", &|s| s.steal_p50_us),
        t("steal.latency_p90_us", "us", &|s| s.steal_p90_us),
        t("strategy.need_task_signals", "count", &|s| {
            s.need_task_signals
        }),
        t("strategy.need_task_response_p50_us", "us", &|s| {
            s.response_p50_us
        }),
        Row::median("serial.ns_per_node", "ns", &per_node(&m.serial)),
    ]);
    rows
}

fn samples(sides: &[PassSide], threads: f64) -> Vec<layers::Sample<'_>> {
    sides
        .iter()
        .map(|s| layers::Sample {
            stats: &s.stats,
            worker_ns: s.ns as f64 * threads,
        })
        .collect()
}

/// Counter totals over the untraced passes, for the coverage checks.
pub fn totals(m: &Measured) -> (RunStats, usize) {
    let mut t = RunStats::default();
    for s in &m.plain {
        t.merge(&s.stats);
    }
    (t, m.plain.len())
}
