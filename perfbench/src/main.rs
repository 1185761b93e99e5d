//! The repository benchmark.
//!
//! ```text
//! adaptivetc-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload through the public API for `--seconds` seconds,
//! checks every answer, prints a table of metrics (name, value, unit,
//! sample count, spread) and, as the last line, one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. `--trace 0` reports
//! the end-to-end metrics from untraced passes; `--trace 1` reports the
//! per-layer metrics from the same passes plus traced and timed ones.
//! See `perfbench/README.md` for what each workload is for.

mod coverage;
mod deque_ops;
mod jobs;
mod layers;
mod problems;
mod report;
mod search;
mod stats;

use problems::Prob;
use report::Row;
use std::fmt::Display;
use std::process::ExitCode;
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

/// The workloads, by the name `--workload` takes.
pub const WORKLOADS: [&str; 4] = ["search-1t", "search-par", "spawn-heavy", "jobs-open"];

/// Every end-to-end metric, in `BENCHMARK.json`'s order.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("solve_ms", "ms"),
    ("solve_ms_tail", "ms"),
    ("serial_ms", "ms"),
    ("overhead_x", "x"),
];

/// Every per-layer metric, in `BENCHMARK.json`'s order. Each workload
/// reports all of them; a layer a workload does not reach reads 0.
pub const PER_LAYER: [(&str, &str); 65] = [
    ("deque.push_pop_ns.the", "ns"),
    ("deque.steal_ns.the", "ns"),
    ("deque.special_ns.the", "ns"),
    ("deque.contended_steal_ns.the", "ns"),
    ("deque.push_pop_ns.chase_lev", "ns"),
    ("deque.steal_ns.chase_lev", "ns"),
    ("deque.special_ns.chase_lev", "ns"),
    ("deque.contended_steal_ns.chase_lev", "ns"),
    ("deque.push_pop_ns.pool", "ns"),
    ("deque.steal_ns.pool", "ns"),
    ("deque.special_ns.pool", "ns"),
    ("deque.contended_steal_ns.pool", "ns"),
    ("deque.push_pop_ns.fence_free", "ns"),
    ("deque.steal_ns.fence_free", "ns"),
    ("deque.special_ns.fence_free", "ns"),
    ("deque.contended_steal_ns.fence_free", "ns"),
    ("deque.pushes", "count"),
    ("deque.pop_conflicts", "count"),
    ("deque.dup_extractions", "count"),
    ("deque.peak", "count"),
    ("engine.ns_per_node", "ns"),
    ("engine.tasks_created", "count"),
    ("engine.fake_tasks", "count"),
    ("engine.special_tasks", "count"),
    ("engine.polls", "count"),
    ("engine.task_share", "ratio"),
    ("engine.busy_share", "ratio"),
    ("engine.deque_share", "ratio"),
    ("steal.ok", "count"),
    ("steal.failed", "count"),
    ("steal.success_ratio", "ratio"),
    ("steal.backoffs", "count"),
    ("steal.wait_share", "ratio"),
    ("steal.wait_children_share", "ratio"),
    ("steal.latency_p50_us", "us"),
    ("steal.latency_p90_us", "us"),
    ("strategy.cutoff_adjustments", "count"),
    ("strategy.threshold_adjustments", "count"),
    ("strategy.need_task_signals", "count"),
    ("strategy.need_task_response_p50_us", "us"),
    ("workspace.copies", "count"),
    ("workspace.copy_bytes", "bytes"),
    ("workspace.copies_saved", "count"),
    ("workspace.copy_share", "ratio"),
    ("pool.frame_reuse_ratio", "ratio"),
    ("pool.state_reuse_ratio", "ratio"),
    ("server.submit_ns_p50", "ns"),
    ("server.submit_ns_p90", "ns"),
    ("server.overhead_us_p50", "us"),
    ("server.job_run_us_p50", "us"),
    ("server.job_p99_us_low", "us"),
    ("server.job_p99_us_high", "us"),
    ("server.completed", "count"),
    ("server.rejected", "count"),
    ("server.cancelled", "count"),
    ("bench.gen_late_us_p99", "us"),
    ("job_p50_us_low", "us"),
    ("job_p90_us_low", "us"),
    ("job_p50_us_high", "us"),
    ("job_p90_us_high", "us"),
    ("trace.overhead_pct", "%"),
    ("trace.events", "count"),
    ("trace.dropped", "count"),
    ("trace.emit_ns", "ns"),
    ("serial.ns_per_node", "ns"),
];

/// Put `rows` in the order of `listed`, whose names and units they must
/// match exactly.
fn in_order(mut rows: Vec<Row>, listed: &[(&str, &str)]) -> Vec<Row> {
    let got: Vec<(&str, &str)> = rows.iter().map(|r| (r.name.as_str(), r.unit)).collect();
    let extra: Vec<_> = got.iter().filter(|m| !listed.contains(m)).collect();
    let missing: Vec<_> = listed.iter().filter(|m| !got.contains(m)).collect();
    assert!(
        extra.is_empty() && missing.is_empty() && got.len() == listed.len(),
        "reported metrics differ from BENCHMARK.json: extra {extra:?}, missing {missing:?}"
    );
    rows.sort_by_key(|r| listed.iter().position(|(n, _)| *n == r.name));
    rows
}

/// Answers checked and failures seen.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    /// Wrong answers.
    pub wrong: u64,
    /// Solves or submits that returned an error, and jobs that were
    /// cancelled instead of completing.
    pub errors: u64,
}

impl Tally {
    /// Count one attempt, and a failure unless it produced `want`.
    pub fn check<E: Display>(&mut self, what: &str, got: Result<u64, E>, want: u64) {
        self.attempted += 1;
        match got {
            Ok(v) if v == want => {}
            Ok(v) => {
                self.wrong += 1;
                eprintln!("WRONG ANSWER: {what} gave {v}, expected {want}");
            }
            Err(e) => {
                self.errors += 1;
                eprintln!("FAILED: {what}: {e}");
            }
        }
    }

    pub fn failed(&self) -> u64 {
        self.wrong + self.errors
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// What one workload run produced.
struct Run {
    gated: Vec<Row>,
    info: Vec<Row>,
    layers: Vec<Row>,
    coverage: Vec<coverage::Check>,
}

fn search_spec(workload: &str, cores: usize) -> search::Spec {
    use adaptivetc_runtime::Scheduler;
    match workload {
        "search-1t" => search::Spec {
            sched: Scheduler::AdaptiveTc,
            threads: 1,
            set: Prob::TABLE1.to_vec(),
        },
        "search-par" => search::Spec {
            sched: Scheduler::AdaptiveTc,
            threads: cores,
            set: Prob::TABLE1.iter().copied().chain([Prob::Dag]).collect(),
        },
        "spawn-heavy" => search::Spec {
            sched: Scheduler::Cilk,
            threads: cores,
            set: vec![
                Prob::Fib,
                Prob::Comp,
                Prob::NqueensArray,
                Prob::Sudoku,
                Prob::Pentomino,
            ],
        },
        other => unreachable!("{other} is not a search workload"),
    }
}

/// Run `setup` `count` times, keeping only the last result alive, and
/// return it with every set-up time.
fn timed_setups<T>(
    count: usize,
    mut setup: impl FnMut() -> T,
    mut discard: impl FnMut(T),
) -> (T, Vec<f64>) {
    let mut times = Vec::with_capacity(count);
    let mut kept = None;
    for _ in 0..count {
        if let Some(old) = kept.take() {
            discard(old);
        }
        let t0 = Instant::now();
        kept = Some(setup());
        times.push(t0.elapsed().as_secs_f64());
    }
    (kept.expect("at least one set-up"), times)
}

fn run(args: &Args, cores: usize, tally: &mut Tally) -> Run {
    // The per-operation deque rows come first: the engine's deque share
    // is computed from them. Runs use the default backend, THE.
    let deque_rows = if args.trace {
        deque_ops::rows(cores)
    } else {
        Vec::new()
    };
    let deque_op_ns = deque_rows
        .iter()
        .find(|r| r.name == "deque.push_pop_ns.the")
        .map_or(0.0, |r| r.value);
    let layer_rows = |mut rows: Vec<Row>| {
        rows.extend(deque_rows.iter().cloned());
        rows
    };
    if args.workload == "jobs-open" {
        let workers = cores.saturating_sub(1).max(1);
        let (prep, setup_times) = timed_setups(
            SETUPS,
            || jobs::setup(workers, args.seed, tally),
            jobs::Prepared::discard,
        );
        let m = jobs::measure(prep, args.seconds, args.trace, tally);
        let (mut gated, info) = jobs::end_to_end(&m);
        gated.insert(0, Row::median("setup_s", "s", &setup_times));
        Run {
            gated,
            info,
            layers: layer_rows(if args.trace {
                jobs::layers(&m, deque_op_ns)
            } else {
                Vec::new()
            }),
            coverage: vec![coverage::jobs_open(&m.totals)],
        }
    } else {
        let spec = search_spec(&args.workload, cores);
        let (prep, setup_times) =
            timed_setups(SETUPS, || search::setup(&spec, args.seed, tally), drop);
        let m = search::measure(&spec, &prep, args.seed, args.seconds, args.trace, tally);
        let (mut gated, info) = search::end_to_end(&spec, &m);
        gated.insert(0, Row::median("setup_s", "s", &setup_times));
        let (totals, passes) = search::totals(&m);
        let layers = if args.trace {
            let mut rows = search::layers(&spec, &m, deque_op_ns);
            rows.extend(server_rows_absent());
            rows
        } else {
            Vec::new()
        };
        Run {
            gated,
            info,
            layers: layer_rows(layers),
            coverage: coverage::search(&args.workload, &totals, passes),
        }
    }
}

/// Search workloads start no job server; its rows read 0 there.
fn server_rows_absent() -> Vec<Row> {
    [
        ("server.submit_ns_p50", "ns"),
        ("server.submit_ns_p90", "ns"),
        ("server.overhead_us_p50", "us"),
        ("server.job_run_us_p50", "us"),
        ("server.job_p99_us_low", "us"),
        ("server.job_p99_us_high", "us"),
        ("server.completed", "count"),
        ("server.rejected", "count"),
        ("server.cancelled", "count"),
        ("bench.gen_late_us_p99", "us"),
        ("job_p50_us_low", "us"),
        ("job_p90_us_low", "us"),
        ("job_p50_us_high", "us"),
        ("job_p90_us_high", "us"),
    ]
    .into_iter()
    .map(|(n, u)| Row::single(n, u, 0.0, 0).note("no job server in this workload"))
    .collect()
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("usage: adaptivetc-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>\n{e}");
            return ExitCode::from(2);
        }
    };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "workload={} seed={} seconds={} trace={} nproc={cores}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let mut tally = Tally::default();
    let r = run(&args, cores, &mut tally);
    let attempted = tally.attempted.max(1);
    let mut info = r.info;
    info.push(Row::single(
        "failed_share",
        "ratio",
        tally.failed() as f64 / attempted as f64,
        attempted as usize,
    ));
    let covered = r.coverage.iter().all(|c| c.ok);
    let correct = tally.failed() == 0 && covered;
    let reported = if args.trace {
        let rows = in_order(r.layers, &PER_LAYER);
        report::print_table(
            "per-layer metrics (untraced, traced and timed passes)",
            &rows,
        );
        rows
    } else {
        let rows = in_order(r.gated, &END_TO_END);
        report::print_table("end-to-end metrics (untraced passes)", &rows);
        report::print_table("derived and per-problem (not gated)", &info);
        rows
    };
    println!("== coverage");
    for c in &r.coverage {
        println!("{} {}", if c.ok { "ok  " } else { "FAIL" }, c.what);
    }
    println!(
        "{}",
        report::json_line(correct, attempted, tally.failed(), &reported)
    );
    if tally.wrong > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `name`s, with their `unit`s where given, listed under `key` in
    /// the repository's BENCHMARK.json (one entry per line).
    fn listed(key: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        let start = text.find(&format!("\"{key}\"")).expect("key is present");
        let section = &text[start..];
        let end = section.find(']').expect("the list is closed");
        let field = |line: &str, key: &str| {
            let rest = &line[line.find(&format!("\"{key}\": \""))? + key.len() + 5..];
            Some(rest[..rest.find('"')?].to_string())
        };
        section[..end]
            .lines()
            .filter_map(|l| Some((field(l, "name")?, field(l, "unit").unwrap_or_default())))
            .collect()
    }

    fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        assert_eq!(listed("end_to_end"), owned(&END_TO_END));
        assert_eq!(listed("per_layer"), owned(&PER_LAYER));
        let workloads: Vec<(&str, &str)> = WORKLOADS.iter().map(|w| (*w, "")).collect();
        assert_eq!(listed("workloads"), owned(&workloads));
    }
}
