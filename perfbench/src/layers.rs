//! Per-layer rows that the search and job-server workloads compute the
//! same way: engine counters, time shares and the trace layer's cost.

use crate::report::Row;
use crate::stats::{median, ratio};
use adaptivetc_core::RunStats;

/// One measured pass (or batch) of the scheduler under test.
pub struct Sample<'a> {
    pub stats: &'a RunStats,
    /// Time the workers were there to run it: pass wall time × workers,
    /// or the jobs' summed engine time.
    pub worker_ns: f64,
}

/// Counter rows, each the median over untraced samples, plus the deque
/// share computed from `deque_op_ns`, the measured cost of one push or
/// pop on the backend the runs use.
pub fn counters(plain: &[Sample], deque_op_ns: f64) -> Vec<Row> {
    let c = |name: &str, unit: &'static str, f: &dyn Fn(&RunStats) -> f64| {
        let xs: Vec<f64> = plain.iter().map(|s| f(s.stats)).collect();
        Row::median(name, unit, &xs)
    };
    let deque_share: Vec<f64> = plain
        .iter()
        .map(|s| {
            let ops = (s.stats.deque_pushes + s.stats.deque_pops) as f64;
            ratio(ops * deque_op_ns, s.worker_ns)
        })
        .collect();
    vec![
        c("deque.pushes", "count", &|s| s.deque_pushes as f64),
        c("deque.pop_conflicts", "count", &|s| s.pop_conflicts as f64),
        c("deque.dup_extractions", "count", &|s| {
            s.dup_extractions as f64
        }),
        c("deque.peak", "count", &|s| s.deque_peak as f64),
        c("engine.tasks_created", "count", &|s| s.tasks_created as f64),
        c("engine.fake_tasks", "count", &|s| s.fake_tasks as f64),
        c("engine.special_tasks", "count", &|s| s.special_tasks as f64),
        c("engine.polls", "count", &|s| s.polls as f64),
        c("engine.task_share", "ratio", &|s| {
            ratio(s.tasks_created as f64, s.nodes as f64)
        }),
        Row::median("engine.deque_share", "ratio", &deque_share)
            .note("computed: deque ops x deque.push_pop_ns.the"),
        c("steal.ok", "count", &|s| s.steals_ok as f64),
        c("steal.failed", "count", &|s| s.steals_failed as f64),
        c("steal.success_ratio", "ratio", &|s| {
            ratio(s.steals_ok as f64, (s.steals_ok + s.steals_failed) as f64)
        }),
        c("steal.backoffs", "count", &|s| s.steal_backoffs as f64),
        c("strategy.cutoff_adjustments", "count", &|s| {
            s.cutoff_adjustments as f64
        }),
        c("strategy.threshold_adjustments", "count", &|s| {
            s.threshold_adjustments as f64
        }),
        c("workspace.copies", "count", &|s| s.copies as f64),
        c("workspace.copy_bytes", "bytes", &|s| s.copy_bytes as f64),
        c("workspace.copies_saved", "count", &|s| {
            s.workspace_copies_saved as f64
        }),
        c("pool.frame_reuse_ratio", "ratio", &|s| {
            ratio(s.frame_reuse as f64, s.tasks_created as f64)
        }),
        c("pool.state_reuse_ratio", "ratio", &|s| {
            ratio(s.state_reuse as f64, s.tasks_created as f64)
        }),
    ]
}

/// Time shares from `timing(true)` samples. The engine's timing mode
/// records copy, wait-for-children and steal-wait laps; busy is the rest
/// of the workers' time.
pub fn shares(timed: &[Sample]) -> Vec<Row> {
    let share = |name: &str, f: &dyn Fn(&RunStats) -> u64| {
        let xs: Vec<f64> = timed
            .iter()
            .map(|s| ratio(f(s.stats) as f64, s.worker_ns))
            .collect();
        Row::median(name, "ratio", &xs)
    };
    let busy: Vec<f64> = timed
        .iter()
        .map(|s| 1.0 - ratio(s.stats.time.total_ns() as f64, s.worker_ns))
        .collect();
    vec![
        Row::median("engine.busy_share", "ratio", &busy).note("1 - recorded laps over worker time"),
        share("steal.wait_share", &|s| s.time.steal_wait_ns),
        share("steal.wait_children_share", &|s| s.time.wait_children_ns),
        share("workspace.copy_share", &|s| s.time.copy_ns),
    ]
}

/// The trace layer's cost: traced samples against untraced ones, in
/// milliseconds, and the events each traced sample recorded.
pub fn trace(plain_ms: &[f64], traced_ms: &[f64], events: &[f64], dropped: &[f64]) -> Vec<Row> {
    let (plain, traced) = (median(plain_ms), median(traced_ms));
    let extra_ns = (traced - plain) * 1e6;
    vec![
        Row::single(
            "trace.overhead_pct",
            "%",
            100.0 * ratio(traced - plain, plain),
            traced_ms.len(),
        )
        .note("median traced against median untraced"),
        Row::median("trace.events", "count", events),
        Row::median("trace.dropped", "count", dropped),
        Row::single(
            "trace.emit_ns",
            "ns",
            ratio(extra_ns, median(events)),
            traced_ms.len(),
        )
        .note("extra time / events recorded"),
    ]
}
