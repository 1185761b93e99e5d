//! Bounded model checking of the work-first frame join
//! (`runtime/src/join.rs`, `#[path]`-included): the engine's session
//! rules — owner fast path, steal plus thief registration, victim
//! contribution, pending-child delivery and continuation finish — replayed
//! over the product `Join` and a real THE deque, in every order the
//! explorer can reach at 2 threads. Every execution must complete the
//! frame exactly once, with the exact reduced sum, and hand the frame's
//! owning handle to the completer; the owner-private resume index must be
//! ordered by the deque handoff (race checking on).
//!
//! The scenario body is shared with the race-detection registry
//! (`scenarios::join_model`).

use adaptivetc_check::scenarios::{join_model, JoinModel};
use adaptivetc_check::{explore, replay_with, Config};
use std::panic::{catch_unwind, AssertUnwindSafe};

fn races(bound: u32) -> Config {
    Config {
        check_races: true,
        ..Config::with_preemption_bound(bound)
    }
}

/// Every event shape of the product rule: with and without a pending
/// child, with the in-flight child synchronous or pending, and the
/// pending child delivered before or after the steal attempt.
fn shapes() -> Vec<JoinModel> {
    let mut out = Vec::new();
    for pending_child in [false, true] {
        for in_flight_pending in [false, true] {
            for deliver_first in [false, true] {
                if !pending_child && deliver_first {
                    continue; // nothing to deliver early
                }
                out.push(JoinModel {
                    thief_owes: 2,
                    pending_child,
                    in_flight_pending,
                    deliver_first,
                });
            }
        }
    }
    out
}

#[test]
fn product_rule_completes_exactly_once_in_every_order() {
    for m in shapes() {
        let report = explore(races(2), move || join_model(m));
        assert!(report.complete, "{m:?}: space not exhausted: {report:?}");
        println!("join_protocol {m:?}: {report:?}");
    }
}

#[test]
fn product_rule_holds_at_bound_three() {
    let report = explore(races(3), || join_model(JoinModel::PRODUCT));
    assert!(report.complete, "space not exhausted: {report:?}");
}

/// Run `m` expecting a violation; return the panic text.
fn refute(cfg: Config, m: JoinModel) -> String {
    let err = catch_unwind(AssertUnwindSafe(|| explore(cfg, move || join_model(m))))
        .expect_err("the explorer missed a seeded join bug");
    err.downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
        .expect("violation panics carry a message")
}

/// The ways a broken join shows: a completion count other than one, a
/// wrong sum, or a completion before the owning handle was parked (the
/// frame completed while its creating session was still running).
fn is_join_violation(msg: &str) -> bool {
    [
        "exactly once",
        "lost or counted twice",
        "owning handle is parked",
    ]
    .iter()
    .any(|m| msg.contains(m))
}

fn trail_of(msg: &str) -> Vec<usize> {
    let tail = msg
        .split("shim_sync::replay): [")
        .nth(1)
        .unwrap_or_else(|| panic!("no replayable trail in report: {msg}"));
    tail[..tail.find(']').expect("unterminated trail")]
        .split(',')
        .filter(|s| !s.trim().is_empty())
        .map(|s| s.trim().parse().expect("trail entries are indices"))
        .collect()
}

/// Seeded bug: the thief registers nothing for its victim. Some
/// interleaving completes the frame before the victim contributes (or
/// twice), and replaying the reported trail reproduces it.
#[test]
fn dropped_thief_registration_is_refuted_with_replayable_trail() {
    let bug = JoinModel {
        thief_owes: 0,
        ..JoinModel::PRODUCT
    };
    let msg = refute(races(2), bug);
    assert!(
        is_join_violation(&msg),
        "refuted for an unexpected reason: {msg}"
    );
    let trail = trail_of(&msg);
    let replayed = catch_unwind(AssertUnwindSafe(|| {
        replay_with(races(2), &trail, move || join_model(bug))
    }))
    .expect_err("replaying the violating schedule did not reproduce the bug");
    let rmsg = replayed
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| replayed.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default();
    assert!(
        is_join_violation(&rmsg),
        "replay failed for a different reason: {rmsg}"
    );
}

/// A thief that registers only the victim's in-flight child (one
/// obligation) is not enough: when the victim's earlier pending child
/// delivers before the victim contributes, the count reaches zero with
/// the victim's partial result still missing.
#[test]
fn single_obligation_thief_rule_is_refuted() {
    let bug = JoinModel {
        thief_owes: 1,
        pending_child: true,
        in_flight_pending: false,
        deliver_first: true,
    };
    let msg = refute(races(2), bug);
    assert!(
        is_join_violation(&msg),
        "refuted for an unexpected reason: {msg}"
    );
}
