//! The job-server workload: tiny `Fig1Tree` jobs through `JobServer`.
//!
//! The main thread is the only client. Each round it submits jobs open
//! loop on a fixed schedule at a low rate (the worker parks between jobs)
//! and at a high rate (it rarely parks), timing each job from
//! the moment it was due; then it runs closed-loop saturation batches
//! with a fixed in-flight window. A batch's time is compared with the
//! time its jobs spent in the engine (`RunReport.wall_ns`), which is
//! measured on the same pool worker.

use crate::layers;
use crate::report::Row;
use crate::stats::{quantile, ratio};
use crate::Tally;
use adaptivetc_core::{Config, RunReport, RunStats};
use adaptivetc_runtime::{
    JobHandle, JobOutcome, JobServer, Mode, Priority, Scheduler, ServerConfig,
};
use adaptivetc_trace::Trace;
use adaptivetc_workloads::fig1::Fig1Tree;
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// Jobs per second submitted in the low-rate phase.
const LOW_RATE: f64 = 2_000.0;
/// Jobs per second submitted in the high-rate phase.
const HIGH_RATE: f64 = 20_000.0;
/// Length of each open-loop phase in a round.
const PHASE: Duration = Duration::from_millis(400);
/// Jobs in one saturation batch: long enough (about 80 ms) that a host
/// stall of a few milliseconds moves a batch's time by a few percent.
const BATCH: usize = 4_000;
/// Jobs in flight at once during a saturation batch.
const WINDOW: usize = 64;
/// Saturation batches per round.
const BATCHES_PER_ROUND: usize = 6;

/// The client side of one server: it counts every submit it attempts,
/// so the coverage check can match them against the server's counters.
struct Client {
    server: JobServer,
    submits: u64,
}

impl Client {
    /// Start a pool of `workers`. Each lane holds more jobs than a host
    /// stall can pile up at the high rate, so admission control never
    /// rejects a job of this workload.
    fn start(workers: usize, traced: bool) -> Client {
        let mut sc = ServerConfig::new(workers)
            .queue_capacity(1 << 16)
            .trace(traced);
        // A round's traced batches fit in the rings with few drops.
        sc.trace_capacity = 1 << 18;
        Client {
            server: JobServer::new(sc),
            submits: 0,
        }
    }

    fn submit(&mut self, cfg: &Config) -> Result<JobHandle<u64>, String> {
        self.submits += 1;
        self.server
            .submit(
                Fig1Tree::new(),
                cfg.clone(),
                Mode::Adaptive,
                Priority::Normal,
            )
            .map_err(|e| e.to_string())
    }

    fn shutdown(self, totals: &mut ServerTotals) -> Option<Trace> {
        let report = self.server.shutdown();
        totals.attempts += self.submits;
        totals.completed += report.stats.completed;
        totals.rejected += report.stats.rejected;
        totals.cancelled += report.stats.cancelled;
        report.trace
    }
}

/// Server counters summed over every pool a run started.
#[derive(Debug, Default, Clone, Copy)]
pub struct ServerTotals {
    pub attempts: u64,
    pub completed: u64,
    pub rejected: u64,
    pub cancelled: u64,
}

/// The running pool set-up leaves behind.
pub struct Prepared {
    client: Client,
    workers: usize,
    /// Every job's configuration: one slot, the run's seed.
    cfg: Config,
}

/// Check the reference answer, start the pool and warm it with one
/// saturation batch.
pub fn setup(workers: usize, seed: u64, tally: &mut Tally) -> Prepared {
    let reference = Scheduler::Serial.run(&Fig1Tree::new(), &Config::new(1));
    tally.check(
        "Fig1Tree reference",
        reference.map(|r| r.0),
        Fig1Tree::LEAVES,
    );
    let mut client = Client::start(workers, false);
    let cfg = Config::new(1).seed(seed);
    saturate(&mut client, &cfg, tally);
    Prepared {
        client,
        workers,
        cfg,
    }
}

impl Prepared {
    /// Stop the pool of a set-up that is not measured.
    pub fn discard(self) {
        self.client.shutdown(&mut ServerTotals::default());
    }
}

/// Wait for a job and check it: completed, with the Figure 1 leaf count.
/// The client polls rather than sleeping in `JobHandle::wait`, so the
/// worker's publication never has to wake it: a closed loop then measures
/// the server, not the operating system's wake-up latency.
fn finish(mut h: JobHandle<u64>, tally: &mut Tally) -> Option<RunReport> {
    let outcome = loop {
        if h.status().is_terminal() {
            match h.try_result() {
                Ok(outcome) => break outcome,
                Err(back) => h = back,
            }
        }
        std::thread::yield_now();
    };
    match outcome {
        JobOutcome::Completed { out, report } => {
            tally.check("Fig1Tree job", Ok::<u64, String>(out), Fig1Tree::LEAVES);
            Some(report)
        }
        JobOutcome::Cancelled { .. } => {
            tally.check("Fig1Tree job", Err::<u64, _>("cancelled"), Fig1Tree::LEAVES);
            None
        }
    }
}

/// Per-job samples of the open-loop phases at one rate, in nanoseconds.
#[derive(Default)]
struct OpenLoop {
    /// Due time to completion.
    latency: Vec<f64>,
    /// Time inside `JobServer::submit`.
    submit: Vec<f64>,
    /// How late the generator submitted.
    late: Vec<f64>,
    /// `JobHandle::latency()` minus the engine's `RunReport.wall_ns`:
    /// queueing, claim, wake and publication.
    overhead: Vec<f64>,
    /// The engine's `RunReport.wall_ns`.
    run: Vec<f64>,
}

/// Submit jobs due every `1 / rate` seconds for one phase, then collect
/// them. A job completes at its submit time plus `JobHandle::latency()`,
/// which runs from submission to publication of the outcome.
fn open_loop(client: &mut Client, cfg: &Config, rate: f64, into: &mut OpenLoop, tally: &mut Tally) {
    let jobs = (rate * PHASE.as_secs_f64()) as u32;
    let period = Duration::from_secs_f64(1.0 / rate);
    let mut pending = Vec::with_capacity(jobs as usize);
    let start = Instant::now() + period;
    for k in 0..jobs {
        let due = start + period * k;
        while Instant::now() < due {
            std::hint::spin_loop();
        }
        let t0 = Instant::now();
        let handle = client.submit(cfg);
        into.submit.push(t0.elapsed().as_nanos() as f64);
        let late = (t0 - due).as_nanos() as f64;
        into.late.push(late);
        match handle {
            Ok(h) => pending.push((h, late)),
            Err(e) => tally.check("Fig1Tree submit", Err::<u64, _>(e), Fig1Tree::LEAVES),
        }
    }
    for (h, late) in pending {
        let lat = loop {
            if let Some(l) = h.latency() {
                break l.as_nanos() as f64;
            }
            std::thread::yield_now();
        };
        if let Some(report) = finish(h, tally) {
            into.overhead.push(lat - report.wall_ns as f64);
            into.run.push(report.wall_ns as f64);
        }
        into.latency.push(late + lat);
    }
}

/// One closed-loop batch's measurements.
#[derive(Default)]
struct Batch {
    ns: u64,
    stats: RunStats,
    /// Sum of the jobs' `RunReport.wall_ns`.
    engine_ns: u64,
}

/// `BATCH` jobs with at most `WINDOW` in flight.
fn saturate(client: &mut Client, cfg: &Config, tally: &mut Tally) -> Batch {
    let mut b = Batch::default();
    let mut inflight: VecDeque<JobHandle<u64>> = VecDeque::with_capacity(WINDOW);
    let retire = |h, b: &mut Batch, tally: &mut Tally| {
        if let Some(r) = finish(h, tally) {
            b.stats.merge(&r.stats);
            b.engine_ns += r.wall_ns;
        }
    };
    let t0 = Instant::now();
    for _ in 0..BATCH {
        if inflight.len() == WINDOW {
            let h = inflight.pop_front().expect("the window is full");
            retire(h, &mut b, tally);
        }
        match client.submit(cfg) {
            Ok(h) => inflight.push_back(h),
            Err(e) => tally.check("Fig1Tree submit", Err::<u64, _>(e), Fig1Tree::LEAVES),
        }
    }
    while let Some(h) = inflight.pop_front() {
        retire(h, &mut b, tally);
    }
    b.ns = t0.elapsed().as_nanos() as u64;
    b
}

/// Everything the rounds measured.
pub struct Measured {
    low: OpenLoop,
    high: OpenLoop,
    batches: Vec<Batch>,
    timed: Vec<Batch>,
    traced: Vec<Batch>,
    /// Events and drops per traced batch.
    trace_events: Vec<f64>,
    trace_dropped: Vec<f64>,
    pub totals: ServerTotals,
}

/// Run rounds until `seconds` have gone by. With `layers`, each round
/// also runs timed batches, then restarts the pool with tracing on for
/// traced batches (one pool at a time, so the pool and the client never
/// outnumber the cores).
pub fn measure(prep: Prepared, seconds: f64, layers: bool, tally: &mut Tally) -> Measured {
    let Prepared {
        mut client,
        workers,
        cfg: base,
    } = prep;
    let mut m = Measured {
        low: OpenLoop::default(),
        high: OpenLoop::default(),
        batches: Vec::new(),
        timed: Vec::new(),
        traced: Vec::new(),
        trace_events: Vec::new(),
        trace_dropped: Vec::new(),
        totals: ServerTotals::default(),
    };
    let timed = base.clone().timing(true);
    let start = Instant::now();
    let mut round = 0usize;
    while round == 0 || start.elapsed().as_secs_f64() < seconds {
        open_loop(&mut client, &base, LOW_RATE, &mut m.low, tally);
        open_loop(&mut client, &base, HIGH_RATE, &mut m.high, tally);
        for _ in 0..BATCHES_PER_ROUND {
            m.batches.push(saturate(&mut client, &base, tally));
            if layers {
                m.timed.push(saturate(&mut client, &timed, tally));
            }
        }
        if layers {
            client.shutdown(&mut m.totals);
            let mut traced = Client::start(workers, true);
            for _ in 0..BATCHES_PER_ROUND {
                m.traced.push(saturate(&mut traced, &base, tally));
            }
            let trace = traced.shutdown(&mut m.totals);
            let per = BATCHES_PER_ROUND as f64;
            m.trace_events
                .push(trace.as_ref().map_or(0.0, |t| t.len() as f64 / per));
            m.trace_dropped.push(
                trace
                    .as_ref()
                    .map_or(0.0, |t| t.total_dropped() as f64 / per),
            );
            client = Client::start(workers, false);
        }
        round += 1;
    }
    client.shutdown(&mut m.totals);
    m
}

fn batch_ms(bs: &[Batch]) -> Vec<f64> {
    bs.iter().map(|b| b.ns as f64 / 1e6).collect()
}

/// The end-to-end rows; every value comes from untraced batches.
///
/// The baseline is the jobs' own engine time, not serial solves on the
/// client thread: on a shared host the speed of tiny serial solves swings
/// by up to 2x for seconds at a time while the batch time barely moves,
/// so a batch / serial ratio measures the host. The batch time and its
/// jobs' engine time are both set by the pool worker's speed.
pub fn end_to_end(m: &Measured) -> (Vec<Row>, Vec<Row>) {
    let batch = batch_ms(&m.batches);
    let engine: Vec<f64> = m.batches.iter().map(|b| b.engine_ns as f64 / 1e6).collect();
    let over: Vec<f64> = m
        .batches
        .iter()
        .map(|b| ratio(b.ns as f64, b.engine_ns as f64))
        .collect();
    let jobs_per_s: Vec<f64> = batch.iter().map(|ms| BATCH as f64 / (ms / 1e3)).collect();
    let gated = vec![
        Row::median("solve_ms", "ms", &batch)
            .note(format!("batch of {BATCH} jobs, window {WINDOW}")),
        Row::tail("solve_ms_tail", "ms", &batch),
        Row::median("serial_ms", "ms", &engine).note("the batch's summed job engine time"),
        Row::median("overhead_x", "x", &over).note("batch / its jobs' engine time"),
    ];
    let mut info = vec![Row::median("jobs_per_s", "1/s", &jobs_per_s)];
    info.extend(latencies(m));
    (gated, info)
}

/// Job latency from due time at the low and the high rate.
fn latencies(m: &Measured) -> [Row; 4] {
    [
        pct("job_p50_us_low", &m.low.latency, 0.5),
        pct("job_p90_us_low", &m.low.latency, 0.9),
        pct("job_p50_us_high", &m.high.latency, 0.5),
        pct("job_p90_us_high", &m.high.latency, 0.9),
    ]
}

/// A percentile of pooled per-job nanosecond samples, in microseconds.
fn pct(name: &str, ns: &[f64], q: f64) -> Row {
    Row::single(name, "us", quantile(ns, q) / 1e3, ns.len())
        .note(format!("p{} from due time", q * 100.0))
}

/// The per-layer rows. Engine counters are per saturation batch;
/// `deque_op_ns` is the measured cost of one push or pop on the backend
/// the jobs use.
pub fn layers(m: &Measured, deque_op_ns: f64) -> Vec<Row> {
    let per_node: Vec<f64> = m
        .batches
        .iter()
        .map(|b| ratio(b.engine_ns as f64, b.stats.nodes as f64))
        .collect();
    let no_steals = |name: &str, unit: &'static str| {
        Row::single(name, unit, 0.0, 0).note("one-slot jobs do not steal")
    };
    let mut submit = m.low.submit.clone();
    submit.extend(&m.high.submit);
    let mut late = m.low.late.clone();
    late.extend(&m.high.late);
    let t = &m.totals;
    let mut rows = layers::counters(&samples(&m.batches), deque_op_ns);
    rows.extend(layers::shares(&samples(&m.timed)));
    rows.extend(layers::trace(
        &batch_ms(&m.batches),
        &batch_ms(&m.traced),
        &m.trace_events,
        &m.trace_dropped,
    ));
    rows.extend([
        Row::median("engine.ns_per_node", "ns", &per_node).note("job engine time / nodes"),
        no_steals("steal.latency_p50_us", "us"),
        no_steals("steal.latency_p90_us", "us"),
        no_steals("strategy.need_task_signals", "count"),
        no_steals("strategy.need_task_response_p50_us", "us"),
        Row::single("serial.ns_per_node", "ns", 0.0, 0).note("jobs-open solves nothing serially"),
        Row::single(
            "server.submit_ns_p50",
            "ns",
            quantile(&submit, 0.5),
            submit.len(),
        ),
        Row::single(
            "server.submit_ns_p90",
            "ns",
            quantile(&submit, 0.9),
            submit.len(),
        ),
        Row::single(
            "server.overhead_us_p50",
            "us",
            quantile(&m.low.overhead, 0.5) / 1e3,
            m.low.overhead.len(),
        )
        .note("low rate: latency - wall_ns"),
        Row::single(
            "server.job_run_us_p50",
            "us",
            quantile(&m.low.run, 0.5) / 1e3,
            m.low.run.len(),
        )
        .note("low rate: RunReport.wall_ns"),
        pct("server.job_p99_us_low", &m.low.latency, 0.99),
        pct("server.job_p99_us_high", &m.high.latency, 0.99),
        Row::single("server.completed", "count", t.completed as f64, 1).note("run total"),
        Row::single("server.rejected", "count", t.rejected as f64, 1).note("run total"),
        Row::single("server.cancelled", "count", t.cancelled as f64, 1).note("run total"),
        Row::single(
            "bench.gen_late_us_p99",
            "us",
            quantile(&late, 0.99) / 1e3,
            late.len(),
        ),
    ]);
    rows.extend(latencies(m));
    rows
}

/// Each job has one slot, so the jobs' summed engine time is the time a
/// worker was there to run them.
fn samples(bs: &[Batch]) -> Vec<layers::Sample<'_>> {
    bs.iter()
        .map(|b| layers::Sample {
            stats: &b.stats,
            worker_ns: b.engine_ns as f64,
        })
        .collect()
}
