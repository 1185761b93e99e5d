//! Pluggable scheduling strategies for the AdaptiveTC engine.
//!
//! The paper hard-wires one strategy: create tasks down to the static
//! `⌈log₂N⌉` cutoff, steal one entry per probe, and trigger the
//! `need_task` back-pressure at a fixed `max_stolen_num`. This crate
//! factors each of those decisions into a policy the engine, the job
//! server and the simulator all consume from the same `Config` axes
//! ([`CreationPolicy`], [`ExtractionPolicy`], [`ThresholdPolicy`] in
//! `adaptivetc-core`):
//!
//! * **Creation** — when a spawn becomes a real task (frame + workspace
//!   copy) rather than an inlined fake task: [`StaticCreation`] (the
//!   fixed cutoff alone, no back-pressure response — Figure 9's
//!   cutoff-only arm), [`HybridCreation`] (the fixed cutoff plus a
//!   depth window that re-opens while the own deque runs dry), and
//!   [`AdaptiveCreation`] (the paper's FSM driven by the online
//!   [`CutoffController`]).
//! * **Extraction** — how much a successful probe takes: [`StealOne`]
//!   (the paper's unit steal) or [`StealHalf`] (loot up to half the
//!   victim's published occupancy, bounded by [`MAX_LOOT`]).
//! * **Threshold** — how the `need_task` trigger is tuned:
//!   [`FixedThreshold`] or [`AdaptiveThreshold`] (the
//!   [`ThresholdController`] feedback loop).
//!
//! Each policy axis is a trait ([`CreationStrategy`],
//! [`ExtractionStrategy`], [`ThresholdStrategy`]) with the concrete
//! implementations above, and a closed enum per axis ([`Creation`],
//! [`Extraction`], [`Threshold`]) that the engine's hot path matches on
//! — static dispatch, no vtables. [`WorkerStrategy::from_config`]
//! builds one per-worker bundle from a `Config`; all controller state
//! is worker-private (see [`controller`]).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod controller;

pub use controller::{
    CutoffController, ThresholdController, COMFORT_OCCUPANCY, DECAY_PERIOD, HARD_STEAL_STREAK,
    MAX_BOOST, THRESHOLD_MAX_FACTOR, THRESHOLD_QUIET_PERIOD,
};

use adaptivetc_core::{Config, CreationPolicy, ExtractionPolicy, ThresholdPolicy};

/// Most entries one probe may loot under [`StealHalf`], whatever the
/// victim's occupancy: bounds the time claimed-but-unstarted frames sit
/// invisible in the thief's hand.
pub const MAX_LOOT: usize = 8;

// ---------------------------------------------------------------------------
// Creation
// ---------------------------------------------------------------------------

/// When does a spawn become a real task (frame + workspace copy)?
///
/// `fast2` marks the paper's fast_2 regime (cutoff doubled, depth
/// reset); policies that never respond to `need_task` never enter it
/// but must still answer for stolen frames resumed by a thief.
pub trait CreationStrategy {
    /// Does a child at task depth `depth` run as a real task?
    fn real_task(&self, depth: u32, fast2: bool, occupancy: usize) -> bool;

    /// Does this policy divert a raised `need_task` poll into the
    /// special-task transition (the paper's adaptive response)?
    fn responds_to_need_task(&self) -> bool;
}

/// The fixed cutoff alone: `depth < cutoff`, no back-pressure response,
/// no fast_2 doubling — the static arm of the Figure 9 sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StaticCreation {
    /// The fixed cutoff depth.
    pub cutoff: u32,
}

impl CreationStrategy for StaticCreation {
    #[inline]
    fn real_task(&self, depth: u32, _fast2: bool, _occupancy: usize) -> bool {
        depth < self.cutoff
    }

    fn responds_to_need_task(&self) -> bool {
        false
    }
}

/// Depth + occupancy hybrid: the fixed cutoff, plus a second depth
/// window up to `2 × cutoff` that opens whenever the worker's own deque
/// has run dry (occupancy below [`COMFORT_OCCUPANCY`]). Replenishes the
/// stealable frontier without the special-task machinery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HybridCreation {
    /// The base cutoff depth.
    pub cutoff: u32,
}

impl CreationStrategy for HybridCreation {
    #[inline]
    fn real_task(&self, depth: u32, _fast2: bool, occupancy: usize) -> bool {
        depth < self.cutoff || (occupancy < COMFORT_OCCUPANCY && depth < 2 * self.cutoff)
    }

    fn responds_to_need_task(&self) -> bool {
        false
    }
}

/// The paper-faithful adaptive policy: the five-version FSM (cutoff
/// doubled and depth reset in fast_2) with the base cutoff retuned
/// online by the [`CutoffController`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdaptiveCreation {
    /// The online cutoff state (worker-private).
    pub ctl: CutoffController,
}

impl CreationStrategy for AdaptiveCreation {
    #[inline]
    fn real_task(&self, depth: u32, fast2: bool, _occupancy: usize) -> bool {
        let eff = self.ctl.effective();
        depth < if fast2 { eff * 2 } else { eff }
    }

    fn responds_to_need_task(&self) -> bool {
        true
    }
}

/// Closed creation-policy sum the engine matches on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Creation {
    /// [`StaticCreation`].
    Static(StaticCreation),
    /// [`HybridCreation`].
    Hybrid(HybridCreation),
    /// [`AdaptiveCreation`].
    Adaptive(AdaptiveCreation),
}

impl Creation {
    /// Instantiate from the config axis with the run's base cutoff.
    pub fn from_policy(policy: CreationPolicy, cutoff: u32) -> Creation {
        match policy {
            CreationPolicy::Static => Creation::Static(StaticCreation { cutoff }),
            CreationPolicy::Hybrid => Creation::Hybrid(HybridCreation { cutoff }),
            CreationPolicy::Adaptive => Creation::Adaptive(AdaptiveCreation {
                ctl: CutoffController::new(cutoff),
            }),
        }
    }

    /// Does a child at task depth `depth` run as a real task?
    /// `occupancy` is consulted lazily — only the hybrid policy reads
    /// it, so static and adaptive decisions stay free of deque loads.
    #[inline]
    pub fn real_task(&self, depth: u32, fast2: bool, occupancy: impl FnOnce() -> usize) -> bool {
        match self {
            Creation::Static(p) => p.real_task(depth, fast2, 0),
            Creation::Hybrid(p) => p.real_task(depth, fast2, occupancy()),
            Creation::Adaptive(p) => p.real_task(depth, fast2, 0),
        }
    }

    /// See [`CreationStrategy::responds_to_need_task`].
    #[inline]
    pub fn responds_to_need_task(&self) -> bool {
        match self {
            Creation::Static(p) => p.responds_to_need_task(),
            Creation::Hybrid(p) => p.responds_to_need_task(),
            Creation::Adaptive(p) => p.responds_to_need_task(),
        }
    }

    /// Controller feedback: a poll observed `need_task` pressure.
    /// Returns the new effective cutoff if the policy adapted.
    #[inline]
    pub fn on_pressure(&mut self) -> Option<u32> {
        match self {
            Creation::Adaptive(p) => p.ctl.on_pressure(),
            _ => None,
        }
    }

    /// Controller feedback: a calm poll. `occupancy` (the worker's own
    /// deque length) is gathered lazily — only an adaptive policy whose
    /// cutoff is currently boosted reads it, so a resting controller
    /// adds nothing to the poll.
    #[inline]
    pub fn on_calm_poll(&mut self, occupancy: impl FnOnce() -> usize) -> Option<u32> {
        match self {
            Creation::Adaptive(p) if p.ctl.boosted() => p.ctl.on_calm_poll(occupancy()),
            _ => None,
        }
    }

    /// Controller feedback: this worker's steal succeeded only after at
    /// least [`HARD_STEAL_STREAK`] failed probes.
    #[inline]
    pub fn on_hard_steal(&mut self) -> Option<u32> {
        match self {
            Creation::Adaptive(p) => p.ctl.on_hard_steal(),
            _ => None,
        }
    }
}

// ---------------------------------------------------------------------------
// Extraction
// ---------------------------------------------------------------------------

/// How many entries one successful probe takes.
pub trait ExtractionStrategy {
    /// Batch size for a probe against a victim whose published
    /// occupancy is `victim_occupancy` (≥ 1; 1 = the paper's unit
    /// steal).
    fn batch(&self, victim_occupancy: usize) -> usize;
}

/// The paper's unit steal: one entry per probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StealOne;

impl ExtractionStrategy for StealOne {
    #[inline]
    fn batch(&self, _victim_occupancy: usize) -> usize {
        1
    }
}

/// Steal-half: loot up to half the victim's published occupancy,
/// bounded by [`MAX_LOOT`]. The classic amortisation — one probe's
/// synchronization buys several tasks — at the cost of work sitting in
/// the thief's hand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StealHalf;

impl ExtractionStrategy for StealHalf {
    #[inline]
    fn batch(&self, victim_occupancy: usize) -> usize {
        (victim_occupancy / 2).clamp(1, MAX_LOOT)
    }
}

/// Closed extraction-policy sum the engine matches on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Extraction {
    /// [`StealOne`].
    One(StealOne),
    /// [`StealHalf`].
    Half(StealHalf),
}

impl Extraction {
    /// Instantiate from the config axis.
    pub fn from_policy(policy: ExtractionPolicy) -> Extraction {
        match policy {
            ExtractionPolicy::StealOne => Extraction::One(StealOne),
            ExtractionPolicy::StealHalf => Extraction::Half(StealHalf),
        }
    }

    /// See [`ExtractionStrategy::batch`].
    #[inline]
    pub fn batch(&self, victim_occupancy: usize) -> usize {
        match self {
            Extraction::One(p) => p.batch(victim_occupancy),
            Extraction::Half(p) => p.batch(victim_occupancy),
        }
    }

    /// Is this the paper's unit steal? Lets the engine skip reading the
    /// victim's occupancy hint entirely when the batch is always 1.
    #[inline]
    pub fn is_unit(&self) -> bool {
        matches!(self, Extraction::One(_))
    }
}

// ---------------------------------------------------------------------------
// Threshold
// ---------------------------------------------------------------------------

/// How the `need_task` trigger threshold (`max_stolen_num`) is tuned.
pub trait ThresholdStrategy {
    /// The threshold the worker's signal starts at.
    fn initial(&self) -> u32;

    /// The owner acknowledged a `need_task`; returns a new threshold to
    /// publish, if the policy adapts.
    fn retune_on_ack(&mut self) -> Option<u32>;

    /// A poll observed no pressure; returns a new threshold to publish,
    /// if a decay step fired.
    fn retune_on_quiet(&mut self) -> Option<u32>;
}

/// The paper's fixed threshold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FixedThreshold(
    /// The static `max_stolen_num`.
    pub u32,
);

impl ThresholdStrategy for FixedThreshold {
    fn initial(&self) -> u32 {
        self.0
    }

    fn retune_on_ack(&mut self) -> Option<u32> {
        None
    }

    fn retune_on_quiet(&mut self) -> Option<u32> {
        None
    }
}

/// The adaptive threshold driven by the [`ThresholdController`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdaptiveThreshold(
    /// The online threshold state (worker-private).
    pub ThresholdController,
);

impl ThresholdStrategy for AdaptiveThreshold {
    fn initial(&self) -> u32 {
        self.0.current()
    }

    fn retune_on_ack(&mut self) -> Option<u32> {
        self.0.on_ack()
    }

    fn retune_on_quiet(&mut self) -> Option<u32> {
        self.0.on_quiet_poll()
    }
}

/// Closed threshold-policy sum the engine matches on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Threshold {
    /// [`FixedThreshold`].
    Fixed(FixedThreshold),
    /// [`AdaptiveThreshold`].
    Adaptive(AdaptiveThreshold),
}

impl Threshold {
    /// Instantiate from the config axis with the run's base threshold.
    pub fn from_policy(policy: ThresholdPolicy, max_stolen_num: u32) -> Threshold {
        match policy {
            ThresholdPolicy::Fixed => Threshold::Fixed(FixedThreshold(max_stolen_num)),
            ThresholdPolicy::Adaptive => {
                Threshold::Adaptive(AdaptiveThreshold(ThresholdController::new(max_stolen_num)))
            }
        }
    }

    /// See [`ThresholdStrategy::retune_on_ack`].
    #[inline]
    pub fn retune_on_ack(&mut self) -> Option<u32> {
        match self {
            Threshold::Fixed(p) => p.retune_on_ack(),
            Threshold::Adaptive(p) => p.retune_on_ack(),
        }
    }

    /// See [`ThresholdStrategy::retune_on_quiet`].
    #[inline]
    pub fn retune_on_quiet(&mut self) -> Option<u32> {
        match self {
            Threshold::Fixed(p) => p.retune_on_quiet(),
            Threshold::Adaptive(p) => p.retune_on_quiet(),
        }
    }
}

// ---------------------------------------------------------------------------
// The per-worker bundle
// ---------------------------------------------------------------------------

/// One worker's strategy state: the three policy axes, instantiated
/// from a `Config`. Entirely worker-private — cloning the bundle per
/// worker is what keeps every controller fence-free.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerStrategy {
    /// The creation policy (and its cutoff controller when adaptive).
    pub creation: Creation,
    /// The extraction policy.
    pub extraction: Extraction,
    /// The threshold policy (and its controller when adaptive).
    pub threshold: Threshold,
}

impl WorkerStrategy {
    /// Build a worker's bundle from the run configuration and its
    /// resolved base cutoff (`Config::cutoff_depth`, already clamped).
    pub fn from_config(cfg: &Config, cutoff: u32) -> WorkerStrategy {
        WorkerStrategy {
            creation: Creation::from_policy(cfg.creation, cutoff),
            extraction: Extraction::from_policy(cfg.extraction),
            threshold: Threshold::from_policy(cfg.threshold, cfg.max_stolen_num),
        }
    }

    /// The bundle every non-adaptive mode (Cilk, Cilk-SYNCHED, both
    /// cut-off baselines) runs regardless of the config's strategy axes:
    /// static creation at the base cutoff, unit steal, fixed threshold.
    /// The policy knobs parameterise the AdaptiveTC scheduler, not the
    /// baselines it is measured against. Static creation carries no
    /// controller, so the steal loop's `on_hard_steal` (shared by every
    /// mode) cannot retune a baseline; those modes never consult the
    /// creation policy for their own task decisions.
    pub fn baseline(cutoff: u32, max_stolen_num: u32) -> WorkerStrategy {
        WorkerStrategy {
            creation: Creation::from_policy(CreationPolicy::Static, cutoff),
            extraction: Extraction::One(StealOne),
            threshold: Threshold::Fixed(FixedThreshold(max_stolen_num)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_is_the_cutoff_alone() {
        let p = StaticCreation { cutoff: 3 };
        assert!(p.real_task(2, false, 0));
        assert!(!p.real_task(3, false, 0));
        // No fast_2 doubling, no need_task response.
        assert!(!p.real_task(3, true, 0));
        assert!(!p.responds_to_need_task());
    }

    #[test]
    fn hybrid_opens_a_window_when_the_deque_runs_dry() {
        let p = HybridCreation { cutoff: 3 };
        assert!(p.real_task(2, false, 100));
        assert!(!p.real_task(3, false, COMFORT_OCCUPANCY));
        assert!(p.real_task(3, false, 0), "dry deque re-opens creation");
        assert!(p.real_task(5, false, 0));
        assert!(!p.real_task(6, false, 0), "window closes at 2 × cutoff");
        assert!(!p.responds_to_need_task());
    }

    #[test]
    fn adaptive_matches_the_paper_fsm_at_rest() {
        let p = AdaptiveCreation {
            ctl: CutoffController::new(3),
        };
        assert!(p.responds_to_need_task());
        for depth in 0..10 {
            assert_eq!(p.real_task(depth, false, 0), depth < 3);
            assert_eq!(p.real_task(depth, true, 0), depth < 6);
        }
    }

    #[test]
    fn adaptive_tracks_its_controller() {
        let mut c = Creation::from_policy(CreationPolicy::Adaptive, 3);
        assert!(!c.real_task(3, false, || unreachable!("not hybrid")));
        assert_eq!(c.on_pressure(), Some(4));
        assert!(c.real_task(3, false, || unreachable!("not hybrid")));
    }

    #[test]
    fn non_adaptive_creation_ignores_feedback() {
        for policy in [CreationPolicy::Static, CreationPolicy::Hybrid] {
            let mut c = Creation::from_policy(policy, 3);
            assert_eq!(c.on_pressure(), None);
            assert_eq!(c.on_calm_poll(|| 0), None);
            assert_eq!(c.on_hard_steal(), None);
        }
    }

    #[test]
    fn steal_half_batches_are_bounded() {
        let h = StealHalf;
        assert_eq!(h.batch(0), 1);
        assert_eq!(h.batch(1), 1);
        assert_eq!(h.batch(2), 1);
        assert_eq!(h.batch(6), 3);
        assert_eq!(h.batch(1000), MAX_LOOT);
        assert_eq!(StealOne.batch(1000), 1);
    }

    #[test]
    fn fixed_threshold_never_retunes() {
        let mut t = Threshold::from_policy(ThresholdPolicy::Fixed, 20);
        assert_eq!(t.retune_on_ack(), None);
        for _ in 0..10 * THRESHOLD_QUIET_PERIOD {
            assert_eq!(t.retune_on_quiet(), None);
        }
    }

    #[test]
    fn bundle_mirrors_the_config_axes() {
        let cfg = Config::new(4)
            .creation(CreationPolicy::Hybrid)
            .extraction(ExtractionPolicy::StealHalf)
            .threshold(ThresholdPolicy::Adaptive);
        let s = WorkerStrategy::from_config(&cfg, 5);
        assert!(matches!(s.creation, Creation::Hybrid(_)));
        assert!(matches!(s.extraction, Extraction::Half(_)));
        assert!(matches!(s.threshold, Threshold::Adaptive(_)));
        let d = WorkerStrategy::from_config(&Config::new(4), 5);
        assert!(matches!(d.creation, Creation::Adaptive(_)));
        assert!(matches!(d.extraction, Extraction::One(_)));
        assert!(matches!(d.threshold, Threshold::Fixed(_)));
    }
}
