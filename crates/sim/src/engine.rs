//! Virtual-time interpreter for the deque-based policies (Cilk,
//! Cilk-SYNCHED, the two cut-off baselines, AdaptiveTC, help-first Cilk).
//!
//! Like the threaded engine, the interpreter reads every task-creation
//! decision — which spawns are tasks, what runs below the cut-off,
//! copy-on-steal, buffer pooling — from the run's [`Preset`], never from
//! the policy.
//!
//! Each virtual worker owns an explicit continuation stack whose entries
//! mirror the threaded engine's recursion: `Node` (expand and dispatch),
//! `Loop`/`PopCheck` (the frame spawn loop and its THE pop), `SeqLoop` (the
//! sequence/check fake-task recursion) and `SpecialLoop`/`SpecialPop` (the
//! special-task section). A binary heap of `(virtual time, sequence,
//! worker)` events drives the interleaving deterministically; every costed
//! activity advances only the acting worker's clock.

use crate::cost::CostModel;
use crate::trace::{sev, SimTracer};
use crate::tree::SimTree;
use adaptivetc_core::{Config, RunReport, RunStats, XorShift64};
use adaptivetc_strategy::{Below, Preset, HARD_STEAL_STREAK};
#[cfg(feature = "trace")]
use adaptivetc_trace::EventKind as Ev;
use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::rc::Rc;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Regime {
    Fast,
    Fast2,
}

struct FrameMut {
    next: usize,
    outstanding: u32,
    acc: u64,
}

struct Frame {
    node: u32,
    tdepth: u32,
    parent: Deliver,
    m: RefCell<FrameMut>,
}

type FrameRef = Rc<Frame>;

impl Frame {
    fn new(node: u32, tdepth: u32, parent: Deliver) -> FrameRef {
        Rc::new(Frame {
            node,
            tdepth,
            parent,
            m: RefCell::new(FrameMut {
                next: 0,
                outstanding: 1,
                acc: 0,
            }),
        })
    }
}

#[derive(Clone)]
enum Deliver {
    /// The root result.
    Root,
    /// Absorb into a frame (asynchronous join).
    Frame(FrameRef),
    /// Add to the accumulator of the worker's current top stack entry.
    Below,
    /// Wake the blocked worker (special-task sync).
    Wake(usize),
}

enum Entry {
    Node {
        node: u32,
        tdepth: u32,
        regime: Regime,
        out: Deliver,
    },
    Loop {
        frame: FrameRef,
        regime: Regime,
    },
    PopCheck {
        frame: FrameRef,
        regime: Regime,
    },
    SeqLoop {
        node: u32,
        kid: usize,
        acc: u64,
        kind: Below,
        /// Task depth of `node` (for the fake-task trace events).
        tdepth: u32,
        out: Deliver,
    },
    SpecialLoop {
        node: u32,
        kid: usize,
        sframe: FrameRef,
        out: Deliver,
    },
    SpecialPop {
        sframe: FrameRef,
    },
}

enum DqEntry {
    Task(FrameRef),
    Special(FrameRef),
    /// A spawned child task (help-first policy): the node itself, not a
    /// continuation.
    Child {
        node: u32,
        tdepth: u32,
        out: Deliver,
    },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WState {
    Active,
    Waiting,
    Done,
}

/// Outcome of processing one stack entry.
enum Flow {
    /// Pay a virtual cost, then schedule the next event.
    Pay(u64),
    /// Free bookkeeping: continue within the same event.
    Free,
    /// The worker blocked (special-task sync): no reschedule.
    Block,
}

struct WorkerSim {
    stack: Vec<Entry>,
    deque: VecDeque<DqEntry>,
    stolen_num: u32,
    need_task: bool,
    /// This worker's `need_task` threshold; the adaptive threshold
    /// policy retunes it mid-run (mirrors `NeedTask::set_threshold`).
    max_stolen: u32,
    /// Worker-private copy of the run's preset (its cut-off and threshold
    /// controllers), mirroring the threaded engine's per-worker clone.
    preset: Preset,
    /// Consecutive failed steal probes since this worker's last success.
    fail_streak: u32,
    stats: RunStats,
    rng: XorShift64,
    state: WState,
    /// Pending wake value for a special-task sync.
    wake: Option<(u64, Deliver)>,
    /// Where the blocked special sync should deliver on wake.
    wait_out: Option<Deliver>,
    wait_since: u64,
    idle_since: Option<u64>,
    epoch: u64,
}

pub(crate) struct Sim<'t> {
    tree: &'t SimTree,
    cost: CostModel,
    /// The run's preset. Under copy-on-steal, spawns skip the eager
    /// clone and thieves pay one materialisation copy per stolen frame
    /// instead; the owner-side region seals around special sections are
    /// not modelled — they are a liveness device, not a steady-state
    /// cost. Pooled copies are charged without the allocation.
    preset: Preset,
    /// Help-first spawning (the Cilk preset, but a spawn pushes the child
    /// and the parent keeps running).
    help_first: bool,
    /// The deque backend being simulated. The sim's deques are exact
    /// (`VecDeque`) regardless — multiplicity and the claim layer are a
    /// memory-protocol concern, not a virtual-time one — but the owner's
    /// pop charge depends on whether the backend fences its pop fast path
    /// (see [`CostModel::pop_ns`]).
    backend: adaptivetc_core::DequeBackend,
    workers: Vec<WorkerSim>,
    heap: BinaryHeap<Reverse<(u64, u64, usize, u64)>>, // (time, seq, wid, epoch)
    seq: u64,
    root_value: u64,
    root_done: Option<u64>,
    now: u64,
    /// Event sink stamping the virtual clock (`()` when the `trace`
    /// feature is compiled out; `None` when `Config::trace` is off).
    #[cfg_attr(not(feature = "trace"), allow(dead_code))]
    tracer: SimTracer<'t>,
}

impl<'t> Sim<'t> {
    pub(crate) fn new(
        tree: &'t SimTree,
        cfg: &Config,
        cost: CostModel,
        preset: Preset,
        help_first: bool,
        tracer: SimTracer<'t>,
    ) -> Self {
        let mut seeder = XorShift64::new(cfg.seed);
        let workers = (0..cfg.threads)
            .map(|_| WorkerSim {
                stack: Vec::new(),
                deque: VecDeque::new(),
                stolen_num: 0,
                need_task: false,
                max_stolen: cfg.max_stolen_num,
                preset: preset.clone(),
                fail_streak: 0,
                stats: RunStats::default(),
                rng: seeder.split(),
                state: WState::Active,
                wake: None,
                wait_out: None,
                wait_since: 0,
                idle_since: None,
                epoch: 0,
            })
            .collect();
        Sim {
            tree,
            cost,
            preset,
            help_first,
            backend: cfg.backend,
            workers,
            heap: BinaryHeap::new(),
            seq: 0,
            root_value: 0,
            root_done: None,
            now: 0,
            tracer,
        }
    }

    fn schedule(&mut self, wid: usize, at: u64) {
        self.seq += 1;
        let epoch = self.workers[wid].epoch;
        self.heap.push(Reverse((at, self.seq, wid, epoch)));
    }

    /// The worker's creation rule, as in the threaded engine.
    fn task_mode(&self, wid: usize, tdepth: u32, regime: Regime) -> bool {
        let w = &self.workers[wid];
        w.preset
            .creation
            .real_task(tdepth, regime == Regime::Fast2, || w.deque.len())
    }

    /// The paper's workspace copy, charged and recorded.
    fn charge_copy(&mut self, wid: usize, bytes: u64) -> u64 {
        let alloc = !self.preset.pool;
        let ns = self.cost.copy_ns(bytes, alloc);
        let st = &mut self.workers[wid].stats;
        st.copies += 1;
        st.copy_bytes += bytes;
        if alloc {
            st.allocations += 1;
        }
        st.time.copy_ns += ns;
        ns
    }

    fn deliver(&mut self, out: Deliver, value: u64, wid: usize) {
        let mut out = out;
        let mut value = value;
        loop {
            match out {
                Deliver::Root => {
                    self.root_value = value;
                    self.root_done = Some(self.now);
                    return;
                }
                Deliver::Below => {
                    match self.workers[wid]
                        .stack
                        .last_mut()
                        .expect("Below requires an enclosing sequential entry")
                    {
                        Entry::SeqLoop { acc, .. } => *acc += value,
                        _ => unreachable!("Below delivers into a SeqLoop"),
                    }
                    return;
                }
                Deliver::Wake(target) => {
                    let at = self.now;
                    let w = &mut self.workers[target];
                    debug_assert_eq!(w.state, WState::Waiting);
                    let final_out = w.wait_out.take().expect("waiter stored its out");
                    w.wake = Some((value, final_out));
                    w.state = WState::Active;
                    w.epoch += 1;
                    self.schedule(target, at);
                    return;
                }
                Deliver::Frame(f) => {
                    let completed = {
                        let mut m = f.m.borrow_mut();
                        m.acc += value;
                        m.outstanding -= 1;
                        (m.outstanding == 0).then_some(m.acc)
                    };
                    match completed {
                        Some(v) => {
                            value = v;
                            out = f.parent.clone();
                        }
                        None => return,
                    }
                }
            }
        }
    }

    /// Execute one costed step for a worker; returns the cost, or `None` if
    /// the worker blocked or finished (no reschedule).
    fn step(&mut self, wid: usize) -> Option<u64> {
        // A pending special-task wake is consumed first.
        if let Some((value, out)) = self.workers[wid].wake.take() {
            let waited = self.now - self.workers[wid].wait_since;
            self.workers[wid].stats.time.wait_children_ns += waited;
            self.deliver(out, value, wid);
        }
        loop {
            let Some(entry) = self.workers[wid].stack.pop() else {
                return self.steal_step(wid);
            };
            match self.exec(wid, entry) {
                Flow::Pay(cost) => return Some(cost),
                Flow::Free => {} // zero-cost bookkeeping: keep going
                Flow::Block => return None,
            }
        }
    }

    /// Process one stack entry.
    fn exec(&mut self, wid: usize, entry: Entry) -> Flow {
        match entry {
            Entry::Node {
                node,
                tdepth,
                regime,
                out,
            } => {
                let mut cost = self.cost.work_ns(self.tree.work(node));
                self.workers[wid].stats.nodes += 1;
                self.workers[wid].stats.time.busy_ns += cost;
                if self.tree.is_leaf(node) {
                    self.deliver(out, 1, wid);
                    return Flow::Pay(cost);
                }
                if self.task_mode(wid, tdepth, regime) {
                    let frame = Frame::new(node, tdepth, out);
                    self.workers[wid].stack.push(Entry::Loop { frame, regime });
                    return Flow::Pay(cost);
                }
                let kind = self.preset.below(regime == Regime::Fast2);
                cost += self.below_cutoff(wid, node, tdepth, kind, out);
                Flow::Pay(cost)
            }

            Entry::SeqLoop {
                node,
                kid,
                acc,
                kind,
                tdepth,
                out,
            } => {
                let kids = self.tree.children(node);
                if kid >= kids.len() {
                    self.deliver(out, acc, wid);
                    return Flow::Free;
                }
                let child = kids[kid];
                self.workers[wid].stack.push(Entry::SeqLoop {
                    node,
                    kid: kid + 1,
                    acc,
                    kind,
                    tdepth,
                    out,
                });
                let mut cost = self.cost.work_ns(self.tree.work(child));
                self.workers[wid].stats.nodes += 1;
                self.workers[wid].stats.time.busy_ns += cost;
                if kind == Below::Copy {
                    cost += self.charge_copy(wid, self.tree.bytes(node));
                }
                if self.tree.is_leaf(child) {
                    self.deliver(Deliver::Below, 1, wid);
                    return Flow::Pay(cost);
                }
                cost += self.below_cutoff(wid, child, tdepth + 1, kind, Deliver::Below);
                Flow::Pay(cost)
            }

            Entry::Loop { frame, regime } => {
                let kids = self.tree.children(frame.node);
                let next = {
                    let mut m = frame.m.borrow_mut();
                    if m.next < kids.len() {
                        let child = kids[m.next];
                        m.next += 1;
                        m.outstanding += 1;
                        // The continuation after the last spawn holds
                        // nothing stealable: elide its deque entry (dead
                        // continuations would otherwise satisfy thieves
                        // without feeding them).
                        Some((child, m.next < kids.len()))
                    } else {
                        None
                    }
                };
                match next {
                    Some((child, stealable)) => {
                        let mut cost = self.cost.task_create_ns;
                        {
                            let st = &mut self.workers[wid].stats;
                            st.tasks_created += 1;
                            st.time.deque_ns += self.cost.task_create_ns;
                        }
                        let tdepth = frame.tdepth + 1;
                        sev!(self, wid, Ev::Spawn { depth: tdepth });
                        if self.preset.copy_on_steal {
                            // The child borrows the live workspace; the
                            // clone is deferred to a thief, if any.
                            self.workers[wid].stats.workspace_copies_saved += 1;
                            sev!(self, wid, Ev::CopySaved);
                        } else {
                            cost += self.charge_copy(wid, self.tree.bytes(frame.node));
                        }
                        let parent = Deliver::Frame(Rc::clone(&frame));
                        if self.help_first {
                            // Help-first: enqueue the child, keep running the
                            // parent's loop.
                            cost += self.cost.deque_op_ns;
                            sev!(self, wid, Ev::Push);
                            let w = &mut self.workers[wid];
                            w.stats.deque_pushes += 1;
                            w.stats.time.deque_ns += self.cost.deque_op_ns;
                            w.deque.push_back(DqEntry::Child {
                                node: child,
                                tdepth,
                                out: parent,
                            });
                            w.stats.deque_peak = w.stats.deque_peak.max(w.deque.len() as u64);
                            w.stack.push(Entry::Loop { frame, regime });
                            return Flow::Pay(cost);
                        }
                        if stealable {
                            sev!(self, wid, Ev::Push);
                        }
                        let w = &mut self.workers[wid];
                        if stealable {
                            cost += self.cost.deque_op_ns;
                            w.stats.deque_pushes += 1;
                            w.stats.time.deque_ns += self.cost.deque_op_ns;
                            w.deque.push_back(DqEntry::Task(Rc::clone(&frame)));
                            w.stats.deque_peak = w.stats.deque_peak.max(w.deque.len() as u64);
                            w.stack.push(Entry::PopCheck { frame, regime });
                        } else {
                            // No entry to pop; re-enter the loop directly so
                            // the continuation still reaches its sync.
                            w.stack.push(Entry::Loop {
                                frame: Rc::clone(&frame),
                                regime,
                            });
                        }
                        w.stack.push(Entry::Node {
                            node: child,
                            tdepth,
                            regime,
                            out: parent,
                        });
                        Flow::Pay(cost)
                    }
                    None => {
                        let completed = {
                            let mut m = frame.m.borrow_mut();
                            m.outstanding -= 1;
                            (m.outstanding == 0).then_some(m.acc)
                        };
                        if let Some(v) = completed {
                            self.deliver(frame.parent.clone(), v, wid);
                        } else {
                            self.workers[wid].stats.suspensions += 1;
                            sev!(self, wid, Ev::SyncSuspend);
                        }
                        Flow::Free
                    }
                }
            }

            Entry::PopCheck { frame, regime } => {
                let cost = self.cost.pop_ns(self.backend);
                self.workers[wid].stats.time.deque_ns += cost;
                let retained = matches!(
                    self.workers[wid].deque.back(),
                    Some(DqEntry::Task(f)) if Rc::ptr_eq(f, &frame)
                );
                if retained {
                    self.workers[wid].deque.pop_back();
                    self.workers[wid].stats.deque_pops += 1;
                    sev!(self, wid, Ev::Pop);
                    self.workers[wid].stack.push(Entry::Loop { frame, regime });
                } else {
                    self.workers[wid].stats.pop_conflicts += 1;
                    sev!(self, wid, Ev::PopConflict);
                }
                Flow::Pay(cost)
            }

            Entry::SpecialLoop {
                node,
                kid,
                sframe,
                out,
            } => {
                let kids = self.tree.children(node);
                if kid < kids.len() {
                    let child = kids[kid];
                    self.workers[wid].stack.push(Entry::SpecialLoop {
                        node,
                        kid: kid + 1,
                        sframe: Rc::clone(&sframe),
                        out,
                    });
                    sframe.m.borrow_mut().outstanding += 1;
                    let mut cost = self.cost.task_create_ns + 2 * self.cost.deque_op_ns;
                    {
                        let st = &mut self.workers[wid].stats;
                        st.tasks_created += 1;
                        st.deque_pushes += 1;
                        st.time.deque_ns += cost;
                    }
                    sev!(self, wid, Ev::Spawn { depth: 0 });
                    sev!(self, wid, Ev::SpecialPush);
                    cost += self.charge_copy(wid, self.tree.bytes(node));
                    let w = &mut self.workers[wid];
                    w.deque.push_back(DqEntry::Special(Rc::clone(&sframe)));
                    w.stats.deque_peak = w.stats.deque_peak.max(w.deque.len() as u64);
                    w.stack.push(Entry::SpecialPop {
                        sframe: Rc::clone(&sframe),
                    });
                    w.stack.push(Entry::Node {
                        node: child,
                        tdepth: 0,
                        regime: Regime::Fast2,
                        out: Deliver::Frame(sframe),
                    });
                    Flow::Pay(cost)
                } else {
                    // sync_specialtask.
                    let completed = {
                        let mut m = sframe.m.borrow_mut();
                        m.outstanding -= 1;
                        (m.outstanding == 0).then_some(m.acc)
                    };
                    match completed {
                        Some(v) => {
                            self.deliver(out, v, wid);
                            Flow::Free
                        }
                        None => {
                            sev!(self, wid, Ev::SyncSuspend);
                            let w = &mut self.workers[wid];
                            w.stats.suspensions += 1;
                            w.state = WState::Waiting;
                            w.wait_out = Some(out);
                            w.wait_since = self.now;
                            w.epoch += 1;
                            Flow::Block
                        }
                    }
                }
            }

            Entry::SpecialPop { sframe } => {
                let cost = self.cost.pop_ns(self.backend);
                self.workers[wid].stats.time.deque_ns += cost;
                let reclaimed = matches!(
                    self.workers[wid].deque.back(),
                    Some(DqEntry::Special(f)) if Rc::ptr_eq(f, &sframe)
                );
                if reclaimed {
                    self.workers[wid].deque.pop_back();
                    self.workers[wid].stats.deque_pops += 1;
                } else {
                    self.workers[wid].stats.pop_conflicts += 1;
                }
                sev!(self, wid, Ev::SpecialConsume { reclaimed });
                Flow::Pay(cost)
            }
        }
    }

    /// Enter a non-task node in the version `kind` the preset puts below
    /// the cut-off: the check version polls first, and a raised
    /// `need_task` diverts it into a special task. Returns the cost.
    fn below_cutoff(
        &mut self,
        wid: usize,
        node: u32,
        tdepth: u32,
        kind: Below,
        out: Deliver,
    ) -> u64 {
        let mut cost = 0;
        if kind == Below::Check {
            cost += self.poll(wid);
            if self.take_need_task(wid) {
                return cost + self.start_special(wid, node, tdepth, out);
            }
        }
        self.workers[wid].stats.fake_tasks += 1;
        sev!(self, wid, Ev::FakeTask { depth: tdepth });
        self.workers[wid].stack.push(Entry::SeqLoop {
            node,
            kid: 0,
            acc: 0,
            kind,
            tdepth,
            out,
        });
        cost
    }

    fn poll(&mut self, wid: usize) -> u64 {
        let w = &mut self.workers[wid];
        w.stats.polls += 1;
        w.stats.time.poll_ns += self.cost.poll_ns;
        self.cost.poll_ns
    }

    /// Close the strategy feedback loops at a `need_task` poll,
    /// mirroring the threaded engine's `strategy_poll`.
    fn strategy_poll(&mut self, wid: usize, pressured: bool) {
        if pressured {
            if let Some(eff) = self.workers[wid].preset.creation.on_pressure() {
                self.workers[wid].stats.cutoff_adjustments += 1;
                sev!(self, wid, Ev::CutoffTune { eff, up: true });
            }
        } else {
            let occ = self.workers[wid].deque.len();
            if let Some(eff) = self.workers[wid].preset.creation.on_calm_poll(|| occ) {
                self.workers[wid].stats.cutoff_adjustments += 1;
                sev!(self, wid, Ev::CutoffTune { eff, up: false });
            }
            if let Some(threshold) = self.workers[wid].preset.threshold.retune_on_quiet() {
                self.workers[wid].max_stolen = threshold;
                self.workers[wid].stats.threshold_adjustments += 1;
                sev!(self, wid, Ev::ThresholdTune { threshold });
            }
        }
    }

    fn take_need_task(&mut self, wid: usize) -> bool {
        let pressured = self.workers[wid].need_task;
        self.strategy_poll(wid, pressured);
        // Only a creation policy that responds to need_task diverts a
        // raised poll into the special transition.
        if pressured && self.workers[wid].preset.creation.responds_to_need_task() {
            let w = &mut self.workers[wid];
            w.need_task = false;
            w.stolen_num = 0;
            true
        } else {
            false
        }
    }

    fn start_special(&mut self, wid: usize, node: u32, depth: u32, out: Deliver) -> u64 {
        self.workers[wid].stats.special_tasks += 1;
        sev!(self, wid, Ev::SpecialBegin { depth });
        #[cfg(not(feature = "trace"))]
        let _ = depth;
        // Adaptive threshold back-off on the acknowledge, mirroring the
        // threaded engine's special section.
        if let Some(threshold) = self.workers[wid].preset.threshold.retune_on_ack() {
            self.workers[wid].max_stolen = threshold;
            self.workers[wid].stats.threshold_adjustments += 1;
            sev!(self, wid, Ev::ThresholdTune { threshold });
        }
        let sframe = Frame::new(node, 0, Deliver::Wake(wid));
        self.workers[wid].stack.push(Entry::SpecialLoop {
            node,
            kid: 0,
            sframe,
            out,
        });
        self.cost.task_create_ns
    }

    /// One steal attempt (the worker's stack is empty).
    fn steal_step(&mut self, wid: usize) -> Option<u64> {
        // Help-first: pending local children run before any stealing.
        if let Some(DqEntry::Child { .. }) = self.workers[wid].deque.back() {
            if let Some(DqEntry::Child { node, tdepth, out }) = self.workers[wid].deque.pop_back() {
                sev!(self, wid, Ev::Pop);
                let w = &mut self.workers[wid];
                w.stats.deque_pops += 1;
                w.stack.push(Entry::Node {
                    node,
                    tdepth,
                    regime: Regime::Fast,
                    out,
                });
                return Some(self.cost.deque_op_ns);
            }
        }
        if self.root_done.is_some() {
            self.finish_idle(wid);
            self.workers[wid].state = WState::Done;
            return None;
        }
        if self.workers[wid].idle_since.is_none() {
            self.workers[wid].idle_since = Some(self.now);
        }
        let n = self.workers.len();
        if n == 1 {
            // Nothing to steal from; spin until done.
            return Some(self.cost.steal_backoff_ns);
        }
        let victim = {
            let w = &mut self.workers[wid];
            let mut v = w.rng.below_usize(n - 1);
            if v >= wid {
                v += 1;
            }
            v
        };
        enum Booty {
            Frame(FrameRef),
            Child {
                node: u32,
                tdepth: u32,
                out: Deliver,
            },
        }
        let stolen: Option<Booty> = {
            let vd = &mut self.workers[victim].deque;
            match vd.front() {
                Some(DqEntry::Task(_)) => match vd.pop_front() {
                    Some(DqEntry::Task(f)) => Some(Booty::Frame(f)),
                    _ => unreachable!("just matched"),
                },
                Some(DqEntry::Child { .. }) => match vd.pop_front() {
                    Some(DqEntry::Child { node, tdepth, out }) => {
                        Some(Booty::Child { node, tdepth, out })
                    }
                    _ => unreachable!("just matched"),
                },
                Some(DqEntry::Special(_)) => match vd.get(1) {
                    Some(DqEntry::Task(_)) => {
                        // steal_specialtask: retire the special, take its
                        // child.
                        vd.pop_front();
                        match vd.pop_front() {
                            Some(DqEntry::Task(f)) => Some(Booty::Frame(f)),
                            _ => unreachable!("just matched"),
                        }
                    }
                    _ => None,
                },
                None => None,
            }
        };
        match stolen {
            Some(booty) => {
                {
                    let v = &mut self.workers[victim];
                    v.stolen_num = 0;
                    v.need_task = false;
                }
                self.workers[wid].stats.steals_ok += 1;
                sev!(
                    self,
                    wid,
                    Ev::StealOk {
                        victim: victim as u32
                    }
                );
                if self.workers[wid].fail_streak >= HARD_STEAL_STREAK {
                    if let Some(eff) = self.workers[wid].preset.creation.on_hard_steal() {
                        self.workers[wid].stats.cutoff_adjustments += 1;
                        sev!(self, wid, Ev::CutoffTune { eff, up: true });
                    }
                }
                self.workers[wid].fail_streak = 0;
                let mut cost = self.cost.steal_ns;
                match booty {
                    // The slow version resumes under fast/check rules.
                    Booty::Frame(frame) => {
                        if self.preset.copy_on_steal {
                            // Copy-on-steal: the deferred workspace clone
                            // is materialised for the thief now.
                            cost += self.charge_copy(wid, self.tree.bytes(frame.node));
                        }
                        // Steal-half extraction: loot up to `batch − 1`
                        // more plain task entries from the same victim's
                        // top. Looted frames go under the primary frame on
                        // the stack, so the thief runs the primary first,
                        // then the loot newest-first — the threaded
                        // engine's drain order.
                        if !self.workers[wid].preset.extraction.is_unit() {
                            let batch = self.workers[wid]
                                .preset
                                .extraction
                                .batch(self.workers[victim].deque.len());
                            let mut looted = 0usize;
                            while looted + 1 < batch {
                                match self.workers[victim].deque.front() {
                                    Some(DqEntry::Task(_)) => {
                                        let Some(DqEntry::Task(f)) =
                                            self.workers[victim].deque.pop_front()
                                        else {
                                            unreachable!("just matched")
                                        };
                                        looted += 1;
                                        cost += self.cost.steal_ns;
                                        self.workers[wid].stats.steals_ok += 1;
                                        sev!(
                                            self,
                                            wid,
                                            Ev::StealOk {
                                                victim: victim as u32
                                            }
                                        );
                                        if self.preset.copy_on_steal {
                                            cost += self.charge_copy(wid, self.tree.bytes(f.node));
                                        }
                                        self.workers[wid].stack.push(Entry::Loop {
                                            frame: f,
                                            regime: Regime::Fast,
                                        });
                                    }
                                    _ => break,
                                }
                            }
                        }
                        self.workers[wid].stack.push(Entry::Loop {
                            frame,
                            regime: Regime::Fast,
                        });
                    }
                    Booty::Child { node, tdepth, out } => {
                        self.workers[wid].stack.push(Entry::Node {
                            node,
                            tdepth,
                            regime: Regime::Fast,
                            out,
                        });
                    }
                }
                self.finish_idle_at(wid, self.now + cost);
                Some(cost)
            }
            None => {
                {
                    let v = &mut self.workers[victim];
                    v.stolen_num += 1;
                    if v.stolen_num > v.max_stolen {
                        v.need_task = true;
                    }
                }
                self.workers[wid].fail_streak += 1;
                self.workers[wid].stats.steals_failed += 1;
                sev!(
                    self,
                    wid,
                    Ev::StealEmpty {
                        victim: victim as u32
                    }
                );
                Some(self.cost.steal_ns + self.cost.steal_backoff_ns)
            }
        }
    }

    fn finish_idle(&mut self, wid: usize) {
        self.finish_idle_at(wid, self.now);
    }

    fn finish_idle_at(&mut self, wid: usize, end: u64) {
        let w = &mut self.workers[wid];
        if let Some(since) = w.idle_since.take() {
            w.stats.time.steal_wait_ns += end.saturating_sub(since);
        }
    }

    /// Run to completion, returning the leaf count and the report.
    pub(crate) fn run(mut self) -> (u64, RunReport) {
        self.workers[0].stack.push(Entry::Node {
            node: 0,
            tdepth: 0,
            regime: Regime::Fast,
            out: Deliver::Root,
        });
        self.workers[0].stats.tasks_created += 1; // the root task
        sev!(self, 0, Ev::Spawn { depth: 0 });
        let n = self.workers.len();
        for wid in 0..n {
            self.schedule(wid, 0);
        }
        while let Some(Reverse((t, _, wid, epoch))) = self.heap.pop() {
            if self.workers[wid].epoch != epoch || self.workers[wid].state != WState::Active {
                continue; // stale event
            }
            self.now = t;
            if let Some(cost) = self.step(wid) {
                let at = t + cost.max(1);
                self.schedule(wid, at);
            }
        }
        let wall = self.root_done.expect("simulation must complete the root");
        let per_worker: Vec<RunStats> = self.workers.into_iter().map(|w| w.stats).collect();
        (self.root_value, RunReport::from_workers(per_worker, wall))
    }
}
