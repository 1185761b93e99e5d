//! Pure decision kernel of the paper's five-version finite-state machine.
//!
//! The adaptive scheduler compiles five versions of every task-creating
//! function — fast, check, special task, fast_2 and sequence (§3.2, Fig. 4)
//! — and the engine's control flow is the walk between them. This module
//! isolates the *decisions* of that walk (which version handles a node,
//! what the check version does after a poll, what the special section
//! re-enters with) as pure functions with no synchronization. The
//! [`Preset`](crate::Preset) builds its creation and fall-through rules
//! from them, the threaded engine and the simulator read those rules, and
//! the model-checking harness in `crates/check` drives a miniature worker
//! built on these functions and the real deque/signal protocols, so the
//! fast_2 doubling and the fall-through are stated here and nowhere else.

/// The five compiled versions of a task-creating function. `Fast` also
/// stands for the slow version: a stolen frame re-enters the same code
/// path with the cut-off of the fast version (the "slow" distinction is
/// only who resumed the frame).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Version {
    /// Spawn real tasks while above the cut-off.
    Fast,
    /// Fake tasks: traverse sequentially, polling `need_task` per node.
    Check,
    /// Transition back to task creation via a special task.
    Special,
    /// Like fast but with the cut-off doubled and task depth reset.
    Fast2,
    /// Plain sequential execution, no polling (below fast_2's cut-off).
    Sequence,
}

/// The effective cut-off: fast_2 doubles the base cut-off depth (§3.2:
/// "with a cut-off depth twice the original").
#[must_use]
pub fn effective_cutoff(base: u32, fast2: bool) -> u32 {
    if fast2 {
        base * 2
    } else {
        base
    }
}

/// Does a node at task depth `tdepth` still create a real task (run with a
/// frame), given the base cut-off and whether the worker is in fast_2?
#[must_use]
pub fn task_mode(tdepth: u32, base: u32, fast2: bool) -> bool {
    tdepth < effective_cutoff(base, fast2)
}

/// Which version a node falls through to once `task_mode` is false: the
/// fast version hands over to the check version (fake tasks), while fast_2
/// runs the rest of the subtree sequentially (Appendix C).
#[must_use]
pub fn fallthrough(fast2: bool) -> Version {
    if fast2 {
        Version::Sequence
    } else {
        Version::Check
    }
}

/// One `need_task` poll of the check version: a raised signal diverts the
/// fake task into the special-task section, otherwise it stays a fake task.
#[must_use]
pub fn after_poll(need_task: bool) -> Version {
    if need_task {
        Version::Special
    } else {
        Version::Check
    }
}

/// The special section runs every child through fast_2 with its task depth
/// reset to zero (§3.2: "the special task creates tasks eagerly again").
#[must_use]
pub fn special_reentry() -> (Version, u32) {
    (Version::Fast2, 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast2_doubles_cutoff_and_resets_depth() {
        assert_eq!(effective_cutoff(3, false), 3);
        assert_eq!(effective_cutoff(3, true), 6);
        assert_eq!(special_reentry(), (Version::Fast2, 0));
        // Depth reset + doubled cut-off: the special task's children are
        // always tasks again, whatever depth the fake task had reached.
        assert!(task_mode(special_reentry().1, 3, true));
    }

    #[test]
    fn fallthrough_matrix() {
        assert_eq!(fallthrough(false), Version::Check);
        assert_eq!(fallthrough(true), Version::Sequence);
        assert_eq!(after_poll(false), Version::Check);
        assert_eq!(after_poll(true), Version::Special);
    }
}
