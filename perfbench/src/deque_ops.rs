//! Per-operation costs of every deque backend, through the `WsDeque`
//! trait the engine is generic over.
//!
//! Each figure is the median of `REPS` timed loops of `OPS` operations.
//! The contended loop runs one thief thread against the owner, so it
//! needs two cores and reads 0 on a one-core machine.

use crate::report::Row;
use adaptivetc_deque::{ChaseLevDeque, FenceFreeDeque, PoolDeque, StealOutcome, TheDeque, WsDeque};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// Operations per timed loop, pushed and popped in blocks of `BLOCK`.
const OPS: usize = 1 << 16;
const BLOCK: usize = 256;
const REPS: usize = 7;

/// Rows for all four backends.
pub fn rows(cores: usize) -> Vec<Row> {
    let mut rows = Vec::new();
    backend::<TheDeque<u64>>(cores, &mut rows);
    backend::<ChaseLevDeque<u64>>(cores, &mut rows);
    backend::<PoolDeque<u64>>(cores, &mut rows);
    backend::<FenceFreeDeque<u64>>(cores, &mut rows);
    rows
}

fn backend<D: WsDeque<u64>>(cores: usize, rows: &mut Vec<Row>) {
    let name = D::NAME.replace('-', "_");
    let per_op = |f: &dyn Fn() -> (f64, f64)| -> Vec<f64> {
        (0..REPS)
            .map(|_| {
                let (ns, ops) = f();
                ns / ops
            })
            .collect()
    };
    rows.push(Row::median(
        format!("deque.push_pop_ns.{name}"),
        "ns",
        &per_op(&|| push_pop::<D>()),
    ));
    rows.push(Row::median(
        format!("deque.steal_ns.{name}"),
        "ns",
        &per_op(&|| steal::<D>()),
    ));
    rows.push(Row::median(
        format!("deque.special_ns.{name}"),
        "ns",
        &per_op(&|| special::<D>()),
    ));
    let contended = if cores >= 2 {
        Row::median(
            format!("deque.contended_steal_ns.{name}"),
            "ns",
            &per_op(&|| contended::<D>()),
        )
    } else {
        Row::single(format!("deque.contended_steal_ns.{name}"), "ns", 0.0, 0)
            .note("needs two cores")
    };
    rows.push(contended);
}

/// Owner pushes a block, then pops it: ns per push or pop.
fn push_pop<D: WsDeque<u64>>() -> (f64, f64) {
    let d = D::with_capacity(BLOCK * 2);
    let t0 = Instant::now();
    for _ in 0..OPS / BLOCK {
        for i in 0..BLOCK as u64 {
            d.push(black_box(i)).expect("a block fits");
        }
        for _ in 0..BLOCK {
            black_box(d.pop());
        }
    }
    (t0.elapsed().as_nanos() as f64, (2 * OPS) as f64)
}

/// Uncontended steals from the head of a pushed block: ns per steal.
fn steal<D: WsDeque<u64>>() -> (f64, f64) {
    let d = D::with_capacity(BLOCK * 2);
    let mut ns = 0;
    for _ in 0..OPS / BLOCK {
        for i in 0..BLOCK as u64 {
            d.push(i).expect("a block fits");
        }
        let t0 = Instant::now();
        for _ in 0..BLOCK {
            black_box(d.steal());
        }
        ns += t0.elapsed().as_nanos();
    }
    (ns as f64, OPS as f64)
}

/// Owner pushes a special entry and reclaims it, as AdaptiveTC does
/// around a special task's child: ns per push or pop.
fn special<D: WsDeque<u64>>() -> (f64, f64) {
    let d = D::with_capacity(BLOCK * 2);
    let t0 = Instant::now();
    for i in 0..OPS as u64 {
        d.push_special(black_box(i)).expect("one entry fits");
        black_box(d.pop_special());
    }
    (t0.elapsed().as_nanos() as f64, (2 * OPS) as f64)
}

/// One thief steals while the owner pushes and pops blocks: thief ns per
/// steal attempt, whatever its outcome.
fn contended<D: WsDeque<u64>>() -> (f64, f64) {
    let d = D::with_capacity(BLOCK * 2);
    let done = AtomicBool::new(false);
    let attempts = AtomicU64::new(0);
    let thief_ns = AtomicU64::new(0);
    std::thread::scope(|s| {
        s.spawn(|| {
            let mut n = 0u64;
            let t0 = Instant::now();
            while !done.load(Ordering::Relaxed) {
                if let StealOutcome::Stolen(v) = d.steal() {
                    black_box(v);
                }
                n += 1;
            }
            thief_ns.store(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
            attempts.store(n, Ordering::Relaxed);
        });
        for _ in 0..OPS / BLOCK {
            for i in 0..BLOCK as u64 {
                d.push(i).expect("a block fits");
            }
            for _ in 0..BLOCK {
                black_box(d.pop());
            }
        }
        done.store(true, Ordering::Relaxed);
    });
    (
        thief_ns.load(Ordering::Relaxed) as f64,
        attempts.load(Ordering::Relaxed).max(1) as f64,
    )
}
