//! Checks that each workload loads the layer it was chosen for. A run
//! whose check fails reports `correct: false`: its numbers would not
//! measure what the workload claims to.

use crate::jobs::ServerTotals;
use adaptivetc_core::RunStats;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Check {
    pub what: String,
    pub ok: bool,
}

/// The checks of a search workload over the counter totals of its
/// `passes` untraced passes.
pub fn search(workload: &str, t: &RunStats, passes: usize) -> Vec<Check> {
    let passes = passes.max(1) as u64;
    match workload {
        // One worker: the engine runs almost every spawn as a fake task.
        "search-1t" => vec![Check {
            what: format!(
                "search-1t: deque pushes {} < 1% of nodes {}",
                t.deque_pushes, t.nodes
            ),
            ok: t.deque_pushes * 100 < t.nodes,
        }],
        "search-par" => vec![Check {
            what: format!("search-par: steals {} > 0", t.steals_ok),
            ok: t.steals_ok > 0,
        }],
        // Every spawn is a task; the FSM's poll path is never taken.
        "spawn-heavy" => vec![
            Check {
                what: format!("spawn-heavy: need_task polls {} == 0", t.polls),
                ok: t.polls == 0,
            },
            Check {
                what: format!(
                    "spawn-heavy: deque pushes per pass {} >= 100000",
                    t.deque_pushes / passes
                ),
                ok: t.deque_pushes / passes >= 100_000,
            },
        ],
        _ => Vec::new(),
    }
}

/// Every accepted job completed.
pub fn jobs_open(t: &ServerTotals) -> Check {
    Check {
        what: format!(
            "jobs-open: completed {} == attempts {} - rejected {}",
            t.completed, t.attempts, t.rejected
        ),
        ok: t.completed + t.rejected == t.attempts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn search_1t_wants_few_pushes() {
        let mut t = RunStats {
            nodes: 10_000,
            deque_pushes: 99,
            ..RunStats::default()
        };
        assert!(search("search-1t", &t, 1)[0].ok);
        t.deque_pushes = 100;
        assert!(!search("search-1t", &t, 1)[0].ok);
    }

    #[test]
    fn spawn_heavy_wants_no_polls_and_many_pushes_per_pass() {
        let mut t = RunStats {
            deque_pushes: 300_000,
            ..RunStats::default()
        };
        assert!(search("spawn-heavy", &t, 3).iter().all(|c| c.ok));
        assert!(!search("spawn-heavy", &t, 4).iter().all(|c| c.ok));
        t.polls = 1;
        assert!(!search("spawn-heavy", &t, 3).iter().all(|c| c.ok));
    }

    #[test]
    fn search_par_wants_steals() {
        let mut t = RunStats::default();
        assert!(!search("search-par", &t, 1)[0].ok);
        t.steals_ok = 1;
        assert!(search("search-par", &t, 1)[0].ok);
    }

    #[test]
    fn jobs_open_wants_every_accepted_job_completed() {
        let mut t = ServerTotals {
            attempts: 10,
            completed: 9,
            rejected: 1,
            cancelled: 0,
        };
        assert!(jobs_open(&t).ok);
        t.rejected = 0;
        assert!(!jobs_open(&t).ok);
    }
}
