//! How each scheduler creates tasks: one [`Preset`] per engine [`Mode`].
//!
//! The paper's baselines and AdaptiveTC are points of one five-version
//! machine ([`fsm`]); they differ in when a spawn becomes a task and in
//! what runs below the cut-off. [`Preset::new`] turns a `(Mode, &Config)`
//! pair into every such decision for one run, and the threaded engine,
//! the job server and the simulator read the preset, never the mode:
//!
//! | [`Mode`] | creation | below the cut-off | copy-on-steal | pooled buffers | cut-off |
//! |---|---|---|---|---|---|
//! | `Cilk` | always | — | never | no | — |
//! | `CilkSynched` | always | — | never | yes | — |
//! | `CutoffSequence` | static | sequence | `cfg.workspace` | yes | `cfg.cutoff` |
//! | `CutoffCopy` | static | copying recursion | `cfg.workspace` | yes | `⌈log₂ N⌉` |
//! | `Adaptive` | `cfg.creation` | check; sequence under fast_2 | `cfg.workspace` | yes | `cfg.cutoff` |
//!
//! Only `Adaptive` reads the strategy axes of the `Config`
//! ([`CreationPolicy`], [`ExtractionPolicy`], [`ThresholdPolicy`]); every
//! baseline runs unit steals and the fixed threshold with no controller,
//! so nothing a baseline observes can retune it. Each axis is a closed
//! enum carrying its own data:
//!
//! * [`Creation`] — when a spawn becomes a real task (frame + workspace
//!   copy) rather than an inlined fake task: always (Cilk), below a
//!   static cut-off, the static cut-off plus a window that re-opens while
//!   the own deque runs dry (hybrid), or the paper's FSM driven by the
//!   online [`CutoffController`].
//! * [`Extraction`] — how much a successful probe takes: one entry (the
//!   paper's unit steal) or half the victim's published occupancy,
//!   bounded by [`MAX_LOOT`].
//! * [`Threshold`] — the paper's fixed `need_task` trigger, or one the
//!   [`ThresholdController`] retunes.
//!
//! Each worker clones the run's preset, so all controller state is
//! worker-private (see [`controller`]).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod controller;
pub mod fsm;

pub use controller::{
    CutoffController, ThresholdController, COMFORT_OCCUPANCY, DECAY_PERIOD, HARD_STEAL_STREAK,
    MAX_BOOST, THRESHOLD_MAX_FACTOR, THRESHOLD_QUIET_PERIOD,
};

use adaptivetc_core::{
    Config, CreationPolicy, CutoffPolicy, ExtractionPolicy, ThresholdPolicy, WorkspacePolicy,
};

/// Most entries one probe may loot under [`Extraction::Half`], whatever
/// the victim's occupancy: bounds the time claimed-but-unstarted frames
/// sit invisible in the thief's hand.
pub const MAX_LOOT: usize = 8;

/// Which scheduling policy the deque engine runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mode {
    /// Work-first Cilk: every spawn is a task with a workspace copy.
    Cilk,
    /// Cilk with `SYNCHED`-style workspace buffer reuse.
    CilkSynched,
    /// Fixed cut-off, sequential (copy-free) recursion below it
    /// ("Cutoff-programmer").
    CutoffSequence,
    /// Runtime-chosen cut-off (`⌈log₂ N⌉`), but workspace copies at every
    /// node below it ("Cutoff-library").
    CutoffCopy,
    /// The AdaptiveTC five-version state machine.
    Adaptive,
}

/// When does a spawn become a real task (frame + workspace copy)?
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Creation {
    /// At every spawn: the Cilk baselines.
    Always,
    /// The fixed cut-off alone: `depth < cutoff`, no `need_task`
    /// response, no fast_2 doubling — both cut-off baselines and the
    /// static arm of the Figure 9 sweep.
    Static {
        /// The fixed cut-off depth.
        cutoff: u32,
    },
    /// The fixed cut-off, plus fast_2's doubled window whenever the
    /// worker's own deque has run dry (occupancy below
    /// [`COMFORT_OCCUPANCY`]), in either regime. Replenishes the
    /// stealable frontier without the special-task machinery.
    Hybrid {
        /// The base cut-off depth.
        cutoff: u32,
    },
    /// The paper's FSM: the fast / fast_2 cut-off pair on a base the
    /// worker's [`CutoffController`] retunes online.
    Adaptive(CutoffController),
}

impl Creation {
    /// Instantiate from the config axis with the run's base cut-off.
    fn from_policy(policy: CreationPolicy, cutoff: u32) -> Creation {
        match policy {
            CreationPolicy::Static => Creation::Static { cutoff },
            CreationPolicy::Hybrid => Creation::Hybrid { cutoff },
            CreationPolicy::Adaptive => Creation::Adaptive(CutoffController::new(cutoff)),
        }
    }

    /// Does a child at task depth `depth` run as a real task? `fast2`
    /// marks the paper's fast_2 regime. `occupancy` (the worker's own
    /// deque length) is read lazily — only the hybrid rule past its base
    /// cut-off consults it, so every other decision stays free of deque
    /// loads.
    #[inline]
    pub fn real_task(&self, depth: u32, fast2: bool, occupancy: impl FnOnce() -> usize) -> bool {
        match self {
            Creation::Always => true,
            Creation::Static { cutoff } => depth < *cutoff,
            Creation::Hybrid { cutoff } => {
                depth < *cutoff
                    || (occupancy() < COMFORT_OCCUPANCY && fsm::task_mode(depth, *cutoff, true))
            }
            Creation::Adaptive(ctl) => fsm::task_mode(depth, ctl.effective(), fast2),
        }
    }

    /// Does a raised `need_task` poll divert the check version into the
    /// special-task transition? Only the adaptive rule responds; the
    /// static and hybrid arms keep polling as fake tasks.
    #[inline]
    pub fn responds_to_need_task(&self) -> bool {
        matches!(self, Creation::Adaptive(_))
    }

    /// Controller feedback: a poll observed `need_task` pressure.
    /// Returns the new effective cut-off if the rule adapted.
    #[inline]
    pub fn on_pressure(&mut self) -> Option<u32> {
        match self {
            Creation::Adaptive(ctl) => ctl.on_pressure(),
            _ => None,
        }
    }

    /// Controller feedback: a calm poll. `occupancy` is gathered lazily —
    /// only an adaptive rule whose cut-off is currently boosted reads it,
    /// so a resting controller adds nothing to the poll.
    #[inline]
    pub fn on_calm_poll(&mut self, occupancy: impl FnOnce() -> usize) -> Option<u32> {
        match self {
            Creation::Adaptive(ctl) if ctl.boosted() => ctl.on_calm_poll(occupancy()),
            _ => None,
        }
    }

    /// Controller feedback: this worker's steal succeeded only after at
    /// least [`HARD_STEAL_STREAK`] failed probes.
    #[inline]
    pub fn on_hard_steal(&mut self) -> Option<u32> {
        match self {
            Creation::Adaptive(ctl) => ctl.on_hard_steal(),
            _ => None,
        }
    }
}

/// How many entries one successful probe takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Extraction {
    /// The paper's unit steal: one entry per probe.
    One,
    /// Steal-half: loot `⌊occupancy / 2⌋` of the victim's published
    /// occupancy, at least one and at most [`MAX_LOOT`]. The classic
    /// amortisation — one probe's synchronization buys several tasks — at
    /// the cost of work sitting in the thief's hand.
    Half,
}

impl Extraction {
    /// Instantiate from the config axis.
    fn from_policy(policy: ExtractionPolicy) -> Extraction {
        match policy {
            ExtractionPolicy::StealOne => Extraction::One,
            ExtractionPolicy::StealHalf => Extraction::Half,
        }
    }

    /// Batch size for a probe against a victim whose published occupancy
    /// is `victim_occupancy`.
    #[inline]
    pub fn batch(&self, victim_occupancy: usize) -> usize {
        match self {
            Extraction::One => 1,
            Extraction::Half => (victim_occupancy / 2).clamp(1, MAX_LOOT),
        }
    }

    /// Is this the paper's unit steal? Lets the engine skip reading the
    /// victim's occupancy hint entirely when the batch is always 1.
    #[inline]
    pub fn is_unit(&self) -> bool {
        *self == Extraction::One
    }
}

/// How the `need_task` trigger threshold (`max_stolen_num`) is tuned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Threshold {
    /// The paper's fixed `max_stolen_num`.
    Fixed,
    /// Retuned online by the worker's [`ThresholdController`].
    Adaptive(ThresholdController),
}

impl Threshold {
    /// Instantiate from the config axis with the run's base threshold.
    fn from_policy(policy: ThresholdPolicy, max_stolen_num: u32) -> Threshold {
        match policy {
            ThresholdPolicy::Fixed => Threshold::Fixed,
            ThresholdPolicy::Adaptive => {
                Threshold::Adaptive(ThresholdController::new(max_stolen_num))
            }
        }
    }

    /// The owner acknowledged a `need_task`; returns a new threshold to
    /// publish, if the policy adapts.
    #[inline]
    pub fn retune_on_ack(&mut self) -> Option<u32> {
        match self {
            Threshold::Fixed => None,
            Threshold::Adaptive(ctl) => ctl.on_ack(),
        }
    }

    /// A poll observed no pressure; returns a new threshold to publish,
    /// if a decay step fired.
    #[inline]
    pub fn retune_on_quiet(&mut self) -> Option<u32> {
        match self {
            Threshold::Fixed => None,
            Threshold::Adaptive(ctl) => ctl.on_quiet_poll(),
        }
    }
}

/// The code a node runs once its spawn is no longer a task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Below {
    /// The check version: fake tasks polling `need_task` once per node.
    Check,
    /// The sequence version: plain recursion on one workspace.
    Sequence,
    /// Recursion that still copies the workspace per child: a library
    /// cannot know its subtree runs sequentially (Cutoff-library).
    Copy,
}

/// Everything one scheduler decides about task creation, resolved for
/// one run (see the table in the crate docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Preset {
    /// When a spawn becomes a task, with the cut-off it applies.
    pub creation: Creation,
    /// How much a successful probe takes.
    pub extraction: Extraction,
    /// How the `need_task` trigger is tuned.
    pub threshold: Threshold,
    /// What a non-task node runs under fast (`[0]`) and fast_2 (`[1]`).
    below: [Below; 2],
    /// Spawns borrow the live workspace and a thief materialises its
    /// clone (`WorkspacePolicy::CopyOnSteal`); the Cilk baselines always
    /// copy eagerly.
    pub copy_on_steal: bool,
    /// Workspace copies recycle dead buffers; Cilk allocates one per
    /// spawn, as the paper's Cilk does.
    pub pool: bool,
}

impl Preset {
    /// The preset `mode` runs under `cfg`.
    pub fn new(mode: Mode, cfg: &Config) -> Preset {
        let cutoff = cfg.cutoff_depth().max(1);
        let baseline = Preset {
            creation: Creation::Static { cutoff },
            extraction: Extraction::One,
            threshold: Threshold::Fixed,
            below: [Below::Sequence; 2],
            copy_on_steal: cfg.workspace == WorkspacePolicy::CopyOnSteal,
            pool: true,
        };
        match mode {
            Mode::Cilk => Preset {
                creation: Creation::Always,
                copy_on_steal: false,
                pool: false,
                ..baseline
            },
            Mode::CilkSynched => Preset {
                creation: Creation::Always,
                copy_on_steal: false,
                ..baseline
            },
            Mode::CutoffSequence => baseline,
            Mode::CutoffCopy => Preset {
                creation: Creation::Static {
                    cutoff: CutoffPolicy::Auto.depth_for(cfg.threads),
                },
                below: [Below::Copy; 2],
                ..baseline
            },
            Mode::Adaptive => Preset {
                creation: Creation::from_policy(cfg.creation, cutoff),
                extraction: Extraction::from_policy(cfg.extraction),
                threshold: Threshold::from_policy(cfg.threshold, cfg.max_stolen_num),
                below: [false, true].map(|fast2| match fsm::fallthrough(fast2) {
                    fsm::Version::Check => Below::Check,
                    _ => Below::Sequence,
                }),
                ..baseline
            },
        }
    }

    /// What a node whose spawn is not a task runs, under fast or (with
    /// `fast2`) under fast_2.
    #[inline]
    pub fn below(&self, fast2: bool) -> Below {
        self.below[usize::from(fast2)]
    }
}

/// The Cutoff-programmer baseline with the programmer's cut-off `depth`:
/// [`Mode::CutoffSequence`] run under `cfg` with `depth` in place of the
/// config's cut-off. The runtime's scheduler and the simulator's policy
/// both resolve their programmer-chosen cut-off here.
pub fn cutoff_programmer(depth: u32, cfg: &Config) -> (Mode, Config) {
    (
        Mode::CutoffSequence,
        cfg.clone().cutoff(CutoffPolicy::Fixed(depth)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    const MODES: [Mode; 5] = [
        Mode::Cilk,
        Mode::CilkSynched,
        Mode::CutoffSequence,
        Mode::CutoffCopy,
        Mode::Adaptive,
    ];

    /// The config with every combination of the three strategy axes.
    fn strategy_configs(threads: usize) -> Vec<Config> {
        let mut out = Vec::new();
        for creation in CreationPolicy::ALL {
            for extraction in ExtractionPolicy::ALL {
                for threshold in ThresholdPolicy::ALL {
                    out.push(
                        Config::new(threads)
                            .creation(creation)
                            .extraction(extraction)
                            .threshold(threshold),
                    );
                }
            }
        }
        out
    }

    #[test]
    fn baselines_ignore_the_strategy_axes() {
        let configs = strategy_configs(4);
        assert_eq!(configs.len(), 12);
        for mode in MODES {
            if mode == Mode::Adaptive {
                continue;
            }
            let default = Preset::new(mode, &Config::new(4));
            for cfg in &configs {
                let preset = Preset::new(mode, cfg);
                assert_eq!(preset, default, "{mode:?} read a strategy axis");
                assert!(!preset.creation.responds_to_need_task(), "{mode:?}");
                assert!(
                    !matches!(preset.creation, Creation::Adaptive(_)),
                    "{mode:?}"
                );
                assert_eq!(preset.extraction, Extraction::One, "{mode:?}");
                assert_eq!(preset.threshold, Threshold::Fixed, "{mode:?}");
            }
        }
    }

    #[test]
    fn adaptive_preset_mirrors_the_config_axes() {
        for cfg in strategy_configs(4) {
            let preset = Preset::new(Mode::Adaptive, &cfg);
            let axes = (cfg.creation, cfg.extraction, cfg.threshold);
            match cfg.creation {
                CreationPolicy::Static => {
                    assert_eq!(preset.creation, Creation::Static { cutoff: 2 }, "{axes:?}")
                }
                CreationPolicy::Hybrid => {
                    assert_eq!(preset.creation, Creation::Hybrid { cutoff: 2 }, "{axes:?}")
                }
                CreationPolicy::Adaptive => match &preset.creation {
                    Creation::Adaptive(ctl) => assert_eq!(ctl.effective(), 2, "{axes:?}"),
                    other => panic!("{axes:?} built {other:?}"),
                },
            }
            let extraction = match cfg.extraction {
                ExtractionPolicy::StealOne => Extraction::One,
                ExtractionPolicy::StealHalf => Extraction::Half,
            };
            assert_eq!(preset.extraction, extraction, "{axes:?}");
            match cfg.threshold {
                ThresholdPolicy::Fixed => assert_eq!(preset.threshold, Threshold::Fixed),
                ThresholdPolicy::Adaptive => assert!(
                    matches!(preset.threshold, Threshold::Adaptive(_)),
                    "{axes:?} built {:?}",
                    preset.threshold
                ),
            }
        }
        // The default config is the paper's: adaptive creation, unit
        // steals, the fixed threshold.
        let d = Preset::new(Mode::Adaptive, &Config::new(4));
        assert!(matches!(d.creation, Creation::Adaptive(_)));
        assert_eq!(d.extraction, Extraction::One);
        assert_eq!(d.threshold, Threshold::Fixed);
    }

    #[test]
    fn default_adaptive_preset_is_the_paper_fsm() {
        for threads in [1, 4, 8] {
            let cfg = Config::new(threads);
            let base = cfg.cutoff_depth();
            let preset = Preset::new(Mode::Adaptive, &cfg);
            assert!(preset.creation.responds_to_need_task());
            for fast2 in [false, true] {
                // fast_2 doubles the cut-off (§3.2).
                let window = if fast2 { 2 * base } else { base };
                for depth in 0..16 {
                    let real = preset
                        .creation
                        .real_task(depth, fast2, || unreachable!("no occupancy read"));
                    assert_eq!(real, fsm::task_mode(depth, base, fast2), "depth {depth}");
                    assert_eq!(real, depth < window, "depth {depth}, fast2 {fast2}");
                }
                let expected = match fsm::fallthrough(fast2) {
                    fsm::Version::Check => Below::Check,
                    fsm::Version::Sequence => Below::Sequence,
                    v => panic!("{v:?} is not a fall-through"),
                };
                assert_eq!(preset.below(fast2), expected);
            }
            // fast hands over to check, fast_2 to sequence (Appendix C).
            assert_eq!(preset.below(false), Below::Check);
            assert_eq!(preset.below(true), Below::Sequence);
        }
    }

    #[test]
    fn the_preset_table() {
        let cfg = Config::new(8).cutoff(CutoffPolicy::Fixed(5));
        let eager = cfg.clone().workspace(WorkspacePolicy::EagerCopy);
        let row = |mode| {
            let p = Preset::new(mode, &cfg);
            (p.creation.clone(), p.below(false), p.copy_on_steal, p.pool)
        };
        assert_eq!(row(Mode::Cilk).0, Creation::Always);
        assert!(!row(Mode::Cilk).2 && !row(Mode::Cilk).3);
        assert_eq!(row(Mode::CilkSynched).0, Creation::Always);
        assert!(!row(Mode::CilkSynched).2 && row(Mode::CilkSynched).3);
        assert_eq!(
            row(Mode::CutoffSequence),
            (Creation::Static { cutoff: 5 }, Below::Sequence, true, true)
        );
        // The library's cut-off is runtime-chosen, whatever the config.
        assert_eq!(
            row(Mode::CutoffCopy),
            (Creation::Static { cutoff: 3 }, Below::Copy, true, true)
        );
        assert_eq!(Preset::new(Mode::CutoffCopy, &cfg).below(true), Below::Copy);
        for mode in MODES {
            assert!(!Preset::new(mode, &eager).copy_on_steal, "{mode:?}");
        }
    }

    #[test]
    fn static_is_the_cutoff_alone() {
        let c = Creation::Static { cutoff: 3 };
        assert!(c.real_task(2, false, || unreachable!("static reads no occupancy")));
        assert!(!c.real_task(3, false, || unreachable!("static reads no occupancy")));
        // No fast_2 doubling, no need_task response.
        assert!(!c.real_task(3, true, || unreachable!("static reads no occupancy")));
        assert!(!c.responds_to_need_task());
    }

    #[test]
    fn always_makes_every_spawn_a_task() {
        for fast2 in [false, true] {
            for depth in [0, 3, 64] {
                assert!(Creation::Always.real_task(depth, fast2, || unreachable!()));
            }
        }
        assert!(!Creation::Always.responds_to_need_task());
    }

    #[test]
    fn cutoff_programmer_overrides_the_config_cutoff() {
        let cfg = Config::new(8)
            .cutoff(CutoffPolicy::Fixed(2))
            .creation(CreationPolicy::Hybrid);
        let (mode, run_cfg) = cutoff_programmer(7, &cfg);
        assert_eq!(mode, Mode::CutoffSequence);
        assert_eq!(run_cfg.cutoff_depth(), 7);
        let p = Preset::new(mode, &run_cfg);
        assert_eq!(p.creation, Creation::Static { cutoff: 7 });
        assert_eq!([p.below(false), p.below(true)], [Below::Sequence; 2]);
    }

    #[test]
    fn hybrid_opens_a_window_when_the_deque_runs_dry() {
        let c = Creation::Hybrid { cutoff: 3 };
        for fast2 in [false, true] {
            assert!(c.real_task(2, fast2, || unreachable!("inside the base cut-off")));
            assert!(!c.real_task(3, fast2, || COMFORT_OCCUPANCY));
            assert!(c.real_task(3, fast2, || 0), "dry deque re-opens creation");
            assert!(c.real_task(5, fast2, || 0));
            assert!(!c.real_task(6, fast2, || 0), "window closes at 2 × cutoff");
        }
        assert!(!c.responds_to_need_task());
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
        for mut c in [
            Creation::Always,
            Creation::Static { cutoff: 3 },
            Creation::Hybrid { cutoff: 3 },
        ] {
            assert_eq!(c.on_pressure(), None);
            assert_eq!(c.on_calm_poll(|| 0), None);
            assert_eq!(c.on_hard_steal(), None);
        }
    }

    #[test]
    fn steal_half_batches_are_bounded() {
        let h = Extraction::Half;
        assert_eq!(h.batch(0), 1);
        assert_eq!(h.batch(1), 1);
        assert_eq!(h.batch(2), 1);
        assert_eq!(h.batch(7), 3, "a floor, not a ceiling");
        assert_eq!(h.batch(1000), MAX_LOOT);
        assert_eq!(Extraction::One.batch(1000), 1);
    }

    #[test]
    fn fixed_threshold_never_retunes() {
        let mut t = Threshold::from_policy(ThresholdPolicy::Fixed, 20);
        assert_eq!(t.retune_on_ack(), None);
        for _ in 0..10 * THRESHOLD_QUIET_PERIOD {
            assert_eq!(t.retune_on_quiet(), None);
        }
    }
}
