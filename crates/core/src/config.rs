//! Scheduler configuration.

use crate::error::ConfigError;

/// How the task-creation cut-off depth is chosen.
///
/// The paper's runtime sets the AdaptiveTC cut-off to `⌈log₂ N⌉` for `N`
/// threads ([`CutoffPolicy::Auto`]); the fixed-cut-off baselines of Figure 9
/// use a programmer- or library-chosen constant ([`CutoffPolicy::Fixed`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CutoffPolicy {
    /// `⌈log₂ threads⌉`, minimum 1 — the paper's default.
    Auto,
    /// A fixed depth.
    Fixed(u32),
}

impl CutoffPolicy {
    /// Resolve the policy to a depth for a given worker count.
    ///
    /// # Examples
    ///
    /// ```
    /// use adaptivetc_core::CutoffPolicy;
    ///
    /// assert_eq!(CutoffPolicy::Auto.depth_for(8), 3);
    /// assert_eq!(CutoffPolicy::Auto.depth_for(5), 3);
    /// assert_eq!(CutoffPolicy::Auto.depth_for(1), 1);
    /// assert_eq!(CutoffPolicy::Fixed(7).depth_for(8), 7);
    /// ```
    pub fn depth_for(&self, threads: usize) -> u32 {
        match *self {
            CutoffPolicy::Fixed(d) => d,
            CutoffPolicy::Auto => {
                let t = threads.max(1) as u32;
                let lg = 32 - (t - 1).leading_zeros(); // ceil(log2 t), 0 for t=1
                lg.max(1)
            }
        }
    }
}

/// Which work-stealing deque substrate the threaded runtime uses.
///
/// All backends expose the same owner/thief protocol (including the
/// special-task operations AdaptiveTC needs), so every [`Config`] ×
/// scheduler combination is valid; they differ in synchronization cost and
/// overflow behaviour, which is exactly what the `ablation_backend` harness
/// measures.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum DequeBackend {
    /// The simplified THE protocol of Frigo et al. (fixed capacity,
    /// per-deque thief lock) — the paper's substrate and the default.
    #[default]
    The,
    /// The lock-free dynamic circular deque of Chase & Lev (grows on
    /// demand, single-CAS thief synchronization).
    ChaseLev,
    /// The growable locked buffer-pool deque (overflow-free reference).
    Pool,
    /// The fully read/write fence-free deque with multiplicity of
    /// Castañeda & Piña: zero fences/RMWs on the owner path; a task may
    /// be extracted more than once, and the runtime's per-frame epoch
    /// claim layer restores exactly-once execution (duplicates are
    /// counted in `RunStats::dup_extractions`).
    FenceFree,
}

impl DequeBackend {
    /// Short name for reports and benchmark labels.
    pub fn name(&self) -> &'static str {
        match self {
            DequeBackend::The => "the",
            DequeBackend::ChaseLev => "chase-lev",
            DequeBackend::Pool => "pool",
            DequeBackend::FenceFree => "fence-free",
        }
    }

    /// All backends, for ablation sweeps.
    pub const ALL: [DequeBackend; 4] = [
        DequeBackend::The,
        DequeBackend::ChaseLev,
        DequeBackend::Pool,
        DequeBackend::FenceFree,
    ];
}

/// When the taskprivate workspace of a pushed task is cloned.
///
/// Under the work-first principle the overwhelming majority of pushed
/// tasks are popped back by their owner, so an eager clone at every spawn
/// is almost always wasted. [`WorkspacePolicy::CopyOnSteal`] defers the
/// clone to the moment of a successful steal: the pushed frame borrows the
/// owner's in-place workspace, an owner pop reuses it directly (counted in
/// `workspace_copies_saved`), and the steal path materialises an isolated
/// clone for the thief so stolen-task semantics are bit-identical.
/// `Mode::Cilk`/`Mode::CilkSynched` always copy eagerly regardless of this
/// setting — they are the faithful per-spawn-allocation baselines.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum WorkspacePolicy {
    /// Clone the workspace at every spawn (the paper's literal scheme).
    EagerCopy,
    /// Defer the clone until a thief actually steals the task — the
    /// default.
    #[default]
    CopyOnSteal,
}

impl WorkspacePolicy {
    /// Short name for reports and benchmark labels.
    pub fn name(&self) -> &'static str {
        match self {
            WorkspacePolicy::EagerCopy => "eager",
            WorkspacePolicy::CopyOnSteal => "copy-on-steal",
        }
    }

    /// All policies, for ablation sweeps.
    pub const ALL: [WorkspacePolicy; 2] =
        [WorkspacePolicy::EagerCopy, WorkspacePolicy::CopyOnSteal];
}

/// How a thief picks its next victim.
///
/// The paper steals from a uniformly random other worker; the
/// alternatives here are the classic locality/occupancy refinements
/// surveyed in *Configurable Strategies for Work-stealing* (Wimmer et
/// al.). All policies skip the thief itself and avoid immediately
/// re-probing the victim that just reported an empty deque.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum VictimPolicy {
    /// Uniformly random victim — the paper's scheme and the default.
    #[default]
    Uniform,
    /// Return to the victim of the last successful steal first (steal
    /// affinity); fall back to uniform when it runs dry.
    LastVictim,
    /// Sample two distinct candidates and probe the one whose relaxed
    /// occupancy hint reports the longer deque.
    BestOfTwo,
}

impl VictimPolicy {
    /// Short name for reports and benchmark labels.
    pub fn name(&self) -> &'static str {
        match self {
            VictimPolicy::Uniform => "uniform",
            VictimPolicy::LastVictim => "last-victim",
            VictimPolicy::BestOfTwo => "best-of-two",
        }
    }

    /// All policies, for ablation sweeps.
    pub const ALL: [VictimPolicy; 3] = [
        VictimPolicy::Uniform,
        VictimPolicy::LastVictim,
        VictimPolicy::BestOfTwo,
    ];
}

/// When a spawn becomes a real (stealable) task instead of an inlined
/// fake-task frame.
///
/// Under `Mode::Adaptive` this selects the task-creation strategy; every
/// other mode ignores it. The Cilk baselines create a task at every spawn
/// (and ignore the workspace policy too); the fixed-cut-off baselines
/// always behave like [`CreationPolicy::Static`]. The victim policy, by
/// contrast, is honoured by every engine mode.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum CreationPolicy {
    /// `depth < cutoff`, constant for the whole run: the Figure 9
    /// fixed-cut-off frontier. No `need_task` response, no fast_2
    /// doubling — what you set is what you get.
    Static,
    /// Depth plus own-deque occupancy: `depth < cutoff`, extended to
    /// `depth < 2 × cutoff` while the worker's own deque is nearly
    /// empty. A cheap feedback rule with no cross-worker signals.
    Hybrid,
    /// The paper's adaptive strategy (fake tasks polling `need_task`,
    /// special-task re-entry, fast_2 doubling), with the effective
    /// cut-off additionally auto-tuned per worker by the online
    /// controller (`adaptivetc-strategy`) — the default.
    #[default]
    Adaptive,
}

impl CreationPolicy {
    /// Short name for reports and benchmark labels.
    pub fn name(&self) -> &'static str {
        match self {
            CreationPolicy::Static => "static",
            CreationPolicy::Hybrid => "hybrid",
            CreationPolicy::Adaptive => "adaptive",
        }
    }

    /// All policies, for ablation sweeps.
    pub const ALL: [CreationPolicy; 3] = [
        CreationPolicy::Static,
        CreationPolicy::Hybrid,
        CreationPolicy::Adaptive,
    ];
}

/// How much work a successful steal extracts from the victim.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum ExtractionPolicy {
    /// Take the single oldest entry — the paper's scheme and the
    /// default.
    #[default]
    StealOne,
    /// Take up to half of the victim's visible backlog in one visit
    /// (bounded multi-pop through `WsDeque::steal_many`); the thief runs
    /// the extra loot before probing new victims.
    StealHalf,
}

impl ExtractionPolicy {
    /// Short name for reports and benchmark labels.
    pub fn name(&self) -> &'static str {
        match self {
            ExtractionPolicy::StealOne => "steal-one",
            ExtractionPolicy::StealHalf => "steal-half",
        }
    }

    /// All policies, for ablation sweeps.
    pub const ALL: [ExtractionPolicy; 2] =
        [ExtractionPolicy::StealOne, ExtractionPolicy::StealHalf];
}

/// How the `need_task` trigger threshold behaves over the run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum ThresholdPolicy {
    /// [`Config::max_stolen_num`] for the whole run — the paper's
    /// fixed threshold and the default.
    #[default]
    Fixed,
    /// Each owner retunes its own trigger from live special-task
    /// pressure: frequent acknowledgements raise the threshold (serving
    /// is thrashing), quiet stretches decay it back toward the
    /// configured base. Bounded to `[max(1, base/2), base × 8]`.
    Adaptive,
}

impl ThresholdPolicy {
    /// Short name for reports and benchmark labels.
    pub fn name(&self) -> &'static str {
        match self {
            ThresholdPolicy::Fixed => "fixed",
            ThresholdPolicy::Adaptive => "adaptive",
        }
    }

    /// All policies, for ablation sweeps.
    pub const ALL: [ThresholdPolicy; 2] = [ThresholdPolicy::Fixed, ThresholdPolicy::Adaptive];
}

/// Configuration shared by all schedulers.
///
/// Use the builder-style setters; [`Config::validate`] is called by the
/// schedulers before running.
///
/// # Examples
///
/// ```
/// use adaptivetc_core::{Config, CutoffPolicy, DequeBackend};
///
/// let cfg = Config::new(8)
///     .cutoff(CutoffPolicy::Auto)
///     .max_stolen_num(20)
///     .backend(DequeBackend::ChaseLev)
///     .seed(1);
/// assert_eq!(cfg.threads, 8);
/// assert!(cfg.validate().is_ok());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Config {
    /// Number of worker threads (virtual workers in the simulator).
    pub threads: usize,
    /// Task-creation cut-off policy.
    pub cutoff: CutoffPolicy,
    /// Failed-steal threshold before a victim's `need_task` flag is raised
    /// (the paper's default is 20).
    pub max_stolen_num: u32,
    /// Capacity of each fixed-size d-e-que (initial capacity for growable
    /// backends).
    pub deque_capacity: usize,
    /// Which deque substrate the threaded runtime uses (the simulator
    /// models the THE protocol only).
    pub backend: DequeBackend,
    /// When the taskprivate workspace of a pushed task is cloned (the
    /// threaded runtime and the simulator both honour this; the Cilk
    /// baselines always copy eagerly).
    pub workspace: WorkspacePolicy,
    /// How thieves pick their victims. Every threaded engine mode
    /// honours it; the simulator always picks uniformly.
    pub victim: VictimPolicy,
    /// When a spawn becomes a real task under `Mode::Adaptive` (every
    /// other mode ignores this; see [`CreationPolicy`]).
    pub creation: CreationPolicy,
    /// How much work a successful steal extracts.
    pub extraction: ExtractionPolicy,
    /// Whether the `need_task` trigger threshold is fixed at
    /// `max_stolen_num` or retuned online per owner.
    pub threshold: ThresholdPolicy,
    /// Seed for all scheduler-internal randomness.
    pub seed: u64,
    /// Measure per-activity times (adds instrumentation overhead to the
    /// threaded runtime; the simulator always reports exact virtual times).
    pub timing: bool,
    /// Record per-worker event traces (spawns, deque traffic, steals, FSM
    /// transitions, workspace handshake). Works in every mode, including
    /// the Cilk baselines. Requires the runtime's `trace` cargo feature;
    /// with the feature compiled out this flag is ignored.
    pub trace: bool,
    /// Per-worker event-ring capacity (events, rounded up to a power of
    /// two). Full rings drop their oldest events and count the loss.
    pub trace_capacity: usize,
    /// Category bitmask selecting which event categories are recorded
    /// (bit layout defined by `adaptivetc_trace::Category`; this is a
    /// raw `u64` so the core crate carries no trace dependency). The
    /// default records everything; the collector additionally clamps to
    /// the categories compiled into the build and always keeps
    /// job-epoch markers.
    pub trace_filter: u64,
    /// Record only 1 in N events of the high-frequency categories (deque
    /// traffic, fake tasks, spawns). The default of 16 keeps traced-on
    /// overhead in low single digits (production flight-recorder mode);
    /// set `1` to record everything — required when a consumer needs
    /// exhaustive streams, e.g. the trace-vs-sim diff. `RunStats` keeps
    /// exact counts regardless, so the trace/stats differential stays
    /// meaningful — sampled categories are checked as bounds.
    pub trace_sample: u32,
}

impl Config {
    /// A configuration with the paper's defaults for `threads` workers.
    pub fn new(threads: usize) -> Self {
        Config {
            threads,
            cutoff: CutoffPolicy::Auto,
            max_stolen_num: 20,
            deque_capacity: 4096,
            backend: DequeBackend::The,
            workspace: WorkspacePolicy::CopyOnSteal,
            victim: VictimPolicy::Uniform,
            creation: CreationPolicy::Adaptive,
            extraction: ExtractionPolicy::StealOne,
            threshold: ThresholdPolicy::Fixed,
            seed: 0x5EED,
            timing: false,
            trace: false,
            trace_capacity: 1 << 16,
            trace_filter: u64::MAX,
            trace_sample: 16,
        }
    }

    /// Set the cut-off policy.
    pub fn cutoff(mut self, cutoff: CutoffPolicy) -> Self {
        self.cutoff = cutoff;
        self
    }

    /// Set the failed-steal threshold that raises `need_task`.
    pub fn max_stolen_num(mut self, n: u32) -> Self {
        self.max_stolen_num = n;
        self
    }

    /// Set the fixed d-e-que capacity.
    pub fn deque_capacity(mut self, cap: usize) -> Self {
        self.deque_capacity = cap;
        self
    }

    /// Set the deque backend.
    pub fn backend(mut self, backend: DequeBackend) -> Self {
        self.backend = backend;
        self
    }

    /// Set the workspace-cloning policy.
    pub fn workspace(mut self, workspace: WorkspacePolicy) -> Self {
        self.workspace = workspace;
        self
    }

    /// Set the victim-selection policy.
    pub fn victim(mut self, victim: VictimPolicy) -> Self {
        self.victim = victim;
        self
    }

    /// Set the task-creation policy.
    pub fn creation(mut self, creation: CreationPolicy) -> Self {
        self.creation = creation;
        self
    }

    /// Set the steal-extraction policy.
    pub fn extraction(mut self, extraction: ExtractionPolicy) -> Self {
        self.extraction = extraction;
        self
    }

    /// Set the `need_task` threshold policy.
    pub fn threshold(mut self, threshold: ThresholdPolicy) -> Self {
        self.threshold = threshold;
        self
    }

    /// Set the random seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Enable or disable time instrumentation.
    pub fn timing(mut self, timing: bool) -> Self {
        self.timing = timing;
        self
    }

    /// Enable or disable event tracing.
    pub fn trace(mut self, trace: bool) -> Self {
        self.trace = trace;
        self
    }

    /// Set the per-worker event-ring capacity.
    pub fn trace_capacity(mut self, capacity: usize) -> Self {
        self.trace_capacity = capacity;
        self
    }

    /// Set the trace category filter mask.
    pub fn trace_filter(mut self, mask: u64) -> Self {
        self.trace_filter = mask;
        self
    }

    /// Set the 1-in-N sampling rate for high-frequency trace categories.
    pub fn trace_sample(mut self, n: u32) -> Self {
        self.trace_sample = n;
        self
    }

    /// The resolved cut-off depth for this configuration.
    pub fn cutoff_depth(&self) -> u32 {
        self.cutoff.depth_for(self.threads)
    }

    /// Check the configuration for nonsensical values.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if `threads == 0`, `deque_capacity < 2`,
    /// `max_stolen_num == 0`, or tracing is enabled with
    /// `trace_capacity < 16` or `trace_sample == 0`.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.threads == 0 {
            return Err(ConfigError::ZeroThreads);
        }
        if self.deque_capacity < 2 {
            return Err(ConfigError::DequeTooSmall(self.deque_capacity));
        }
        if self.max_stolen_num == 0 {
            return Err(ConfigError::ZeroMaxStolen);
        }
        if self.trace && self.trace_capacity < 16 {
            return Err(ConfigError::TraceCapacityTooSmall(self.trace_capacity));
        }
        if self.trace && self.trace_sample == 0 {
            return Err(ConfigError::ZeroTraceSample);
        }
        Ok(())
    }
}

impl Default for Config {
    fn default() -> Self {
        Config::new(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn auto_cutoff_is_ceil_log2() {
        assert_eq!(CutoffPolicy::Auto.depth_for(1), 1);
        assert_eq!(CutoffPolicy::Auto.depth_for(2), 1);
        assert_eq!(CutoffPolicy::Auto.depth_for(3), 2);
        assert_eq!(CutoffPolicy::Auto.depth_for(4), 2);
        assert_eq!(CutoffPolicy::Auto.depth_for(8), 3);
        assert_eq!(CutoffPolicy::Auto.depth_for(9), 4);
        assert_eq!(CutoffPolicy::Auto.depth_for(16), 4);
    }

    #[test]
    fn fixed_cutoff_ignores_threads() {
        assert_eq!(CutoffPolicy::Fixed(5).depth_for(1), 5);
        assert_eq!(CutoffPolicy::Fixed(5).depth_for(64), 5);
    }

    #[test]
    fn validate_rejects_zero_threads() {
        assert!(Config::new(0).validate().is_err());
    }

    #[test]
    fn validate_rejects_tiny_deque() {
        assert!(Config::new(1).deque_capacity(1).validate().is_err());
    }

    #[test]
    fn validate_rejects_zero_max_stolen() {
        assert!(Config::new(1).max_stolen_num(0).validate().is_err());
    }

    #[test]
    fn builder_roundtrip() {
        let cfg = Config::new(4)
            .cutoff(CutoffPolicy::Fixed(9))
            .max_stolen_num(3)
            .deque_capacity(64)
            .backend(DequeBackend::ChaseLev)
            .workspace(WorkspacePolicy::EagerCopy)
            .victim(VictimPolicy::BestOfTwo)
            .creation(CreationPolicy::Hybrid)
            .extraction(ExtractionPolicy::StealHalf)
            .threshold(ThresholdPolicy::Adaptive)
            .seed(77)
            .timing(true)
            .trace(true)
            .trace_capacity(1 << 10)
            .trace_filter(0b1010)
            .trace_sample(8);
        assert_eq!(cfg.cutoff_depth(), 9);
        assert_eq!(cfg.max_stolen_num, 3);
        assert_eq!(cfg.deque_capacity, 64);
        assert_eq!(cfg.backend, DequeBackend::ChaseLev);
        assert_eq!(cfg.workspace, WorkspacePolicy::EagerCopy);
        assert_eq!(cfg.victim, VictimPolicy::BestOfTwo);
        assert_eq!(cfg.creation, CreationPolicy::Hybrid);
        assert_eq!(cfg.extraction, ExtractionPolicy::StealHalf);
        assert_eq!(cfg.threshold, ThresholdPolicy::Adaptive);
        assert_eq!(cfg.seed, 77);
        assert!(cfg.timing);
        assert!(cfg.trace);
        assert_eq!(cfg.trace_capacity, 1 << 10);
        assert_eq!(cfg.trace_filter, 0b1010);
        assert_eq!(cfg.trace_sample, 8);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn validate_rejects_zero_trace_sample_only_when_tracing() {
        assert!(Config::new(1).trace_sample(0).validate().is_ok());
        let err = Config::new(1)
            .trace(true)
            .trace_sample(0)
            .validate()
            .unwrap_err();
        assert_eq!(err, crate::ConfigError::ZeroTraceSample);
        // The defaults record every category, hot ones sampled 1-in-16
        // (flight-recorder mode); exhaustive recording is opt-in.
        let cfg = Config::new(1);
        assert_eq!(cfg.trace_filter, u64::MAX);
        assert_eq!(cfg.trace_sample, 16);
    }

    #[test]
    fn validate_rejects_tiny_trace_ring_only_when_tracing() {
        // A tiny capacity is fine while tracing is off...
        assert!(Config::new(1).trace_capacity(1).validate().is_ok());
        // ...and rejected once tracing is requested.
        let err = Config::new(1)
            .trace(true)
            .trace_capacity(1)
            .validate()
            .unwrap_err();
        assert_eq!(err, crate::ConfigError::TraceCapacityTooSmall(1));
        assert!(Config::new(1).trace(true).validate().is_ok());
    }

    #[test]
    fn backend_names_are_distinct() {
        let mut names: Vec<_> = DequeBackend::ALL.iter().map(|b| b.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), DequeBackend::ALL.len());
        assert_eq!(DequeBackend::default(), DequeBackend::The);
    }

    #[test]
    fn default_is_single_threaded_and_valid() {
        let cfg = Config::default();
        assert_eq!(cfg.threads, 1);
        assert!(cfg.validate().is_ok());
        assert_eq!(cfg.workspace, WorkspacePolicy::CopyOnSteal);
        assert_eq!(cfg.victim, VictimPolicy::Uniform);
    }

    #[test]
    fn policy_names_are_distinct() {
        let mut names: Vec<_> = VictimPolicy::ALL.iter().map(|v| v.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), VictimPolicy::ALL.len());
        let mut ws_names: Vec<_> = WorkspacePolicy::ALL.iter().map(|w| w.name()).collect();
        ws_names.sort_unstable();
        ws_names.dedup();
        assert_eq!(ws_names.len(), WorkspacePolicy::ALL.len());
    }

    // Every config axis must expose the same surface: an `ALL` sweep
    // constant covering each variant, distinct `name()`s, and a default
    // that appears in the sweep. This is what keeps the ablation benches
    // and EXPERIMENTS.md's axis tables honest as axes are added.
    #[test]
    fn config_axes_are_uniform() {
        fn axis<T: Copy + PartialEq + std::fmt::Debug + Default>(
            all: &[T],
            name: impl Fn(&T) -> &'static str,
        ) {
            let mut names: Vec<_> = all.iter().map(&name).collect();
            names.sort_unstable();
            names.dedup();
            assert_eq!(names.len(), all.len(), "duplicate names in {all:?}");
            assert!(
                all.contains(&T::default()),
                "default of {all:?} missing from ALL"
            );
        }
        axis(&DequeBackend::ALL, DequeBackend::name);
        axis(&WorkspacePolicy::ALL, WorkspacePolicy::name);
        axis(&VictimPolicy::ALL, VictimPolicy::name);
        axis(&CreationPolicy::ALL, CreationPolicy::name);
        axis(&ExtractionPolicy::ALL, ExtractionPolicy::name);
        axis(&ThresholdPolicy::ALL, ThresholdPolicy::name);
    }

    #[test]
    fn strategy_defaults_preserve_the_paper_policy() {
        let cfg = Config::new(4);
        assert_eq!(cfg.creation, CreationPolicy::Adaptive);
        assert_eq!(cfg.extraction, ExtractionPolicy::StealOne);
        assert_eq!(cfg.threshold, ThresholdPolicy::Fixed);
    }
}
