//! The non-blocking work stealer (Figure 3), executed one instruction at a
//! time under an adversarial kernel.
//!
//! Every process runs the scheduling loop as a small state machine whose
//! transitions each consume exactly one *instruction*:
//!
//! * executing the assigned node — 1 instruction (a **milestone**);
//! * a deque operation — 1 instruction per shared-memory access of the
//!   Figure-5 pseudocode ([`abp_deque::sim_deque`]), with `popTop`
//!   completion a **milestone**;
//! * `yield` and victim selection — 1 instruction each.
//!
//! The kernel schedules *rounds* (§4.1): each round it picks a set of
//! processes (filtered through the yield constraints), and every chosen
//! process executes between `2C` and `3C` instructions, where
//! [`MILESTONE_C`] is large enough that any `C` consecutive instructions
//! of a process contain a milestone. A steal attempt completing at its
//! process's *second* milestone of a round is a **throw** — the quantity
//! the analysis of Section 4 counts.

use crate::cache::{CacheConfig, CacheStats, LruCache};
use crate::invariants::{check_structural_lemma, PotentialTracker, ReadyState};
use crate::locked_deque::{LockKind, LockOp, LockStepOutcome, LockedSimDeque, LockedSteal};
use crate::metrics::{PhaseStats, RunReport};
use crate::trace::{RoundActivity, StealRecord, Trace};
use abp_core::{
    BackoffAction, Counters, IdleAction, PolicyEngine, PolicyRng, PolicySet, StealResult, Structure,
};
use abp_dag::{Dag, DetRng, EnablingTree, NodeId, ProcId};
use abp_deque::{DequeOp, SimDeque, SimSteal, StepOutcome};
use abp_kernel::{Kernel, KernelView, YieldLedger, YieldPolicy};
use abp_telemetry::StealOutcome;

/// The milestone constant `C`: any `C` consecutive instructions executed
/// by a process include a milestone. The longest milestone-free stretch is
/// a full `popBottom` returning NIL (7) followed by yield (1), victim
/// selection (1), and all but the last step of a `popTop` (3) — 12
/// instructions, plus slack.
pub const MILESTONE_C: u32 = 16;

/// Which deque implementation the scheduler uses — the A1 ablation axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DequeBackend {
    /// The non-blocking ABP deque (the paper's algorithm).
    #[default]
    Abp,
    /// The ABP deque with the tag mechanism disabled (§3.3's broken
    /// variant) — for demonstrations; unsafe.
    AbpUntagged,
    /// A blocking, lock-based deque.
    Locking,
}

/// When a node's execution enables two children, which becomes the new
/// assigned node (the paper proves its bounds for either choice).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AssignPolicy {
    /// Assign the spawned/enabled thread's node, push the continuation —
    /// the depth-first order Cilk uses (the paper's "latter choice").
    #[default]
    SpawnFirst,
    /// Keep executing the current thread, push the newly enabled node.
    ContinueFirst,
}

/// Simulation parameters.
#[derive(Debug, Clone)]
pub struct WsConfig {
    pub yield_policy: YieldPolicy,
    pub backend: DequeBackend,
    pub assign: AssignPolicy,
    /// The scheduling-policy set (victim selection, contention backoff,
    /// idle behaviour). Defaults to [`PolicySet::paper`].
    pub policies: PolicySet,
    /// Seed for victim selection and quantum jitter.
    pub seed: u64,
    /// Abort the run after this many rounds (starvation protection for
    /// adversaries that defeat the configuration under test).
    pub max_rounds: u64,
    /// Check Lemma 3 / Corollary 4 at every deque-operation completion.
    pub check_structural: bool,
    /// Check Φ monotonicity at every round boundary (O(nodes) per round).
    pub check_potential: bool,
    /// Collect Lemma-8 phase statistics (phases of ≥ P throws).
    pub track_phases: bool,
    /// Record a full per-round activity [`Trace`] (adds O(P) per round
    /// plus one entry per steal attempt).
    pub trace: bool,
    /// Model per-process LRU caches of the given shape, counting hits,
    /// misses, and deviations per executed node (`None` = no model, and
    /// all cache counters stay structurally zero).
    pub cache: Option<CacheConfig>,
    /// Pool count `K` of the topology: processes partition into `K`
    /// contiguous pools and thieves scan their own pool first, crossing
    /// only with probability [`WsConfig::cross_steal`] (the federation
    /// model the `hood` runtime mirrors). `1` (the default) is the flat
    /// paper scheduler, bit-identical to the pre-topology simulator.
    pub pools: usize,
    /// Probability that a hierarchical victim draw goes *outside* the
    /// thief's pool. Only consulted when `pools > 1` and `flat_scan` is
    /// off; a thief alone in its pool always crosses.
    pub cross_steal: f64,
    /// Keep `pools > 1` accounting labels but scan all `P − 1` victims
    /// uniformly, like the flat scheduler — the control arm that
    /// isolates the victim-selection axis (remote-steal fractions stay
    /// at their topology-blind baseline).
    pub flat_scan: bool,
}

impl Default for WsConfig {
    fn default() -> Self {
        WsConfig {
            yield_policy: YieldPolicy::ToAll,
            backend: DequeBackend::Abp,
            assign: AssignPolicy::SpawnFirst,
            policies: PolicySet::paper(),
            seed: 0x5EED,
            max_rounds: 50_000_000,
            check_structural: false,
            check_potential: false,
            track_phases: false,
            trace: false,
            cache: None,
            pools: 1,
            cross_steal: 0.125,
            flat_scan: false,
        }
    }
}

impl WsConfig {
    /// Replaces the yield policy.
    pub fn with_yield_policy(mut self, yield_policy: YieldPolicy) -> Self {
        self.yield_policy = yield_policy;
        self
    }

    /// Replaces the deque backend.
    pub fn with_backend(mut self, backend: DequeBackend) -> Self {
        self.backend = backend;
        self
    }

    /// Replaces the assignment policy.
    pub fn with_assign(mut self, assign: AssignPolicy) -> Self {
        self.assign = assign;
        self
    }

    /// Replaces the scheduling-policy set.
    pub fn with_policies(mut self, policies: PolicySet) -> Self {
        self.policies = policies;
        self
    }

    /// Replaces the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Replaces the round cap.
    pub fn with_max_rounds(mut self, max_rounds: u64) -> Self {
        self.max_rounds = max_rounds;
        self
    }

    /// Enables/disables the structural-lemma checker.
    pub fn with_check_structural(mut self, on: bool) -> Self {
        self.check_structural = on;
        self
    }

    /// Enables/disables the potential-monotonicity checker.
    pub fn with_check_potential(mut self, on: bool) -> Self {
        self.check_potential = on;
        self
    }

    /// Enables/disables Lemma-8 phase statistics.
    pub fn with_track_phases(mut self, on: bool) -> Self {
        self.track_phases = on;
        self
    }

    /// Enables/disables full per-round tracing.
    pub fn with_trace(mut self, on: bool) -> Self {
        self.trace = on;
        self
    }

    /// Enables the per-process LRU cache model.
    pub fn with_cache(mut self, cache: CacheConfig) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Replaces the pool count of the topology.
    pub fn with_pools(mut self, pools: usize) -> Self {
        self.pools = pools;
        self
    }

    /// Replaces the cross-pool steal probability.
    pub fn with_cross_steal(mut self, cross_steal: f64) -> Self {
        self.cross_steal = cross_steal;
        self
    }

    /// Enables/disables the topology-blind flat-scan control arm.
    pub fn with_flat_scan(mut self, on: bool) -> Self {
        self.flat_scan = on;
        self
    }

    /// The policy identity stamped on reports and telemetry:
    /// `"victim+backoff+idle/yield-policy"`.
    pub fn policy_label(&self) -> String {
        format!("{}/{}", self.policies.label(), self.yield_policy.label())
    }
}

/// An in-flight deque operation on either backend.
enum AnyOp {
    Sim(DequeOp),
    Locked(LockOp),
}

/// Unified completion result.
enum OpDone {
    NotDone,
    Push,
    PopBottom(Option<u64>),
    PopTop(Option<u64>, /*was_abort:*/ bool),
}

/// What a process is doing, at instruction granularity.
enum Phase {
    /// Top of the scheduling loop: execute assigned node or start
    /// stealing.
    Loop,
    /// `popBottom` in progress after the assigned thread died/blocked.
    PoppingBottom(AnyOp),
    /// `pushBottom(child)` in progress after enabling two children.
    Pushing(AnyOp),
    /// About to perform the yield system call.
    Yielding,
    /// About to pick a victim.
    PickingVictim,
    /// `popTop` on the victim's deque in progress. `observe_as` is the
    /// coordinate the policy engine sees the outcome under — the global
    /// index on a flat scan, the pool-local index on a hierarchical one,
    /// and `None` for cross-pool attempts, which bypass the victim
    /// selector entirely (its state lives in pool-local coordinates).
    Stealing {
        victim: usize,
        observe_as: Option<usize>,
        op: AnyOp,
    },
    /// Spinning in a contention backoff: `left` more milestone-free
    /// instructions, then yield (if `then_yield`) or attempt directly.
    Backing { left: u64, then_yield: bool },
    /// Parked by the idle policy for `left` more milestone-free
    /// instructions.
    Parked { left: u64 },
}

struct Proc {
    assigned: Option<NodeId>,
    phase: Phase,
    milestones_this_round: u32,
    engine: PolicyEngine,
}

/// One of the two deque arrays, depending on backend.
enum Deques {
    Sim(Vec<SimDeque>),
    Locked(Vec<LockedSimDeque>),
}

impl Deques {
    fn len_of(&self, i: usize) -> usize {
        match self {
            Deques::Sim(v) => v[i].len(),
            Deques::Locked(v) => v[i].len(),
        }
    }

    fn contents_bottom_to_top(&self, i: usize) -> Vec<u64> {
        match self {
            Deques::Sim(v) => {
                let mut c = v[i].contents();
                c.reverse(); // contents() is top→bottom
                c
            }
            Deques::Locked(v) => v[i].contents_bottom_to_top(),
        }
    }
}

/// The full simulator state for one run.
pub struct WorkStealer<'a> {
    dag: &'a Dag,
    config: WsConfig,
    procs: Vec<Proc>,
    deques: Deques,
    remaining_preds: Vec<u32>,
    executed: Vec<bool>,
    tree: EnablingTree,
    potential: PotentialTracker,
    done: bool,
    /// Whether the configured policy set keeps Lemma 7's milestone
    /// accounting valid (no spinning backoff, no parking).
    milestone_safe: bool,
    // Topology: pool of each process, [start, end) of each pool, the
    // pre-scaled cross-steal coin, and per-pool steal-back hints (the
    // global index of the last cross-pool thief that robbed the pool;
    // `usize::MAX` = none).
    pool_of: Vec<u32>,
    pool_bounds: Vec<(usize, usize)>,
    cross_coin: u64,
    last_thief: Vec<usize>,
    /// Ceiling on tasks per cross-pool round trip, from the policy set's
    /// batch axis (`1` = the single-steal default, no batching anywhere).
    batch_cap: usize,
    // measurement
    tally: Counters,
    throws: u64,
    structural_violations: u64,
    potential_violations: u64,
    milestone_violations: u64,
    last_log_potential: f64,
    phase_throws: u64,
    phase_start_potential: f64,
    phase_stats: PhaseStats,
    ledger: YieldLedger,
    quantum_rng: DetRng,
    // Cache model (empty/zero when `config.cache` is None).
    caches: Vec<LruCache>,
    executed_on: Vec<u32>,
    cache_stats: CacheStats,
    trace: Trace,
    round_executed: Vec<bool>,
    round_attempted: Vec<bool>,
    round_stole: Vec<bool>,
}

impl<'a> WorkStealer<'a> {
    /// Prepares a run of `dag` on `p` processes.
    pub fn new(dag: &'a Dag, p: usize, config: WsConfig) -> Self {
        assert!(p >= 1);
        let k = config.pools;
        assert!(
            (1..=p).contains(&k),
            "pools must satisfy 1 <= pools ({k}) <= procs ({p})"
        );
        // A migrated batch lands at the *bottom* of the thief's deque,
        // which breaks the structural lemma's premise that every deque
        // reads as a designated-parent chain top-to-bottom — the checker
        // would report violations that are batching artifacts, not bugs.
        assert!(
            !(config.check_structural && config.policies.batch.is_batched()),
            "check_structural is incompatible with batched stealing: \
             migrated batches land at the thief's deque bottom, outside \
             Lemma 3's deque-ordering premise"
        );
        let pool_bounds: Vec<(usize, usize)> =
            (0..k).map(|j| (j * p / k, (j + 1) * p / k)).collect();
        let mut pool_of = vec![0u32; p];
        for (j, &(start, end)) in pool_bounds.iter().enumerate() {
            for slot in &mut pool_of[start..end] {
                *slot = j as u32;
            }
        }
        let mut seed_rng = DetRng::new(config.seed);
        let procs = (0..p)
            .map(|i| Proc {
                assigned: if i == 0 { Some(dag.root()) } else { None },
                phase: Phase::Loop,
                milestones_this_round: 0,
                engine: PolicyEngine::new(
                    &config.policies,
                    PolicyRng::from_det(seed_rng.fork(i as u64)),
                ),
            })
            .collect();
        let deques = match config.backend {
            DequeBackend::Abp => Deques::Sim((0..p).map(|_| SimDeque::new()).collect()),
            DequeBackend::AbpUntagged => {
                Deques::Sim((0..p).map(|_| SimDeque::with_tagging(false)).collect())
            }
            DequeBackend::Locking => {
                Deques::Locked((0..p).map(|_| LockedSimDeque::new()).collect())
            }
        };
        let tree = EnablingTree::new(dag);
        let potential = PotentialTracker::new(dag, &tree);
        let last_log_potential = potential.log_potential();
        WorkStealer {
            dag,
            procs,
            deques,
            remaining_preds: (0..dag.num_nodes())
                .map(|i| dag.in_degree(NodeId(i as u32)) as u32)
                .collect(),
            executed: vec![false; dag.num_nodes()],
            tree,
            phase_start_potential: last_log_potential,
            potential,
            done: false,
            milestone_safe: config.policies.preserves_milestones(),
            pool_of,
            pool_bounds,
            cross_coin: abp_core::coin_threshold(config.cross_steal),
            last_thief: vec![usize::MAX; k],
            batch_cap: config.policies.batch.cap(),
            tally: Counters::default(),
            throws: 0,
            structural_violations: 0,
            potential_violations: 0,
            milestone_violations: 0,
            last_log_potential,
            phase_throws: 0,
            phase_stats: PhaseStats::default(),
            ledger: YieldLedger::new(p),
            quantum_rng: DetRng::new(config.seed ^ 0x9E3779B97F4A7C15),
            caches: match &config.cache {
                Some(c) => (0..p).map(|_| LruCache::new(c.lines)).collect(),
                None => Vec::new(),
            },
            executed_on: match &config.cache {
                Some(_) => vec![u32::MAX; dag.num_nodes()],
                None => Vec::new(),
            },
            cache_stats: match &config.cache {
                Some(c) => CacheStats::new(p, c),
                None => CacheStats::default(),
            },
            trace: Trace::default(),
            round_executed: vec![false; p],
            round_attempted: vec![false; p],
            round_stole: vec![false; p],
            config,
        }
    }

    /// Runs the scheduling loop under `kernel` until the final node
    /// executes or `max_rounds` elapse.
    pub fn run(mut self, kernel: &mut dyn Kernel) -> RunReport {
        assert_eq!(kernel.num_procs(), self.procs.len());
        let p = self.procs.len();
        let mut rounds = 0u64;
        let mut proc_rounds = 0u64;
        let mut instructions = 0u64;
        let mut wall_steps = 0u64;
        let use_yields = self.config.yield_policy != YieldPolicy::None;

        let mut has_assigned = vec![false; p];
        let mut deque_len = vec![0usize; p];
        let mut in_cs = vec![false; p];
        // Per-round scratch, reused so the round loop never allocates
        // outside the kernel's choice and the yield enforcement.
        let mut scheduled: Vec<usize> = Vec::with_capacity(p);
        let mut quanta: Vec<u64> = Vec::with_capacity(p);

        while !self.done && rounds < self.config.max_rounds {
            rounds += 1;
            for i in 0..p {
                has_assigned[i] = self.procs[i].assigned.is_some();
                deque_len[i] = self.deques.len_of(i);
            }
            // Lock-holder visibility (adaptive adversaries may exploit
            // this; trivially all-false for the non-blocking backends).
            in_cs.fill(false);
            if let Deques::Locked(dq) = &self.deques {
                for d in dq {
                    if let Some(h) = d.holder() {
                        in_cs[h as usize] = true;
                    }
                }
            }
            let view = KernelView {
                round: rounds,
                has_assigned: &has_assigned,
                deque_len: &deque_len,
                in_critical_section: &in_cs,
            };
            let raw = kernel.choose(&view);
            let chosen = if use_yields {
                self.ledger.enforce(&raw)
            } else {
                raw
            };
            proc_rounds += chosen.len() as u64;

            // Quanta: the kernel grants each scheduled process 2C..3C
            // instructions (its choice; here jittered deterministically).
            scheduled.clear();
            scheduled.extend(chosen.iter().map(|q| q.index()));
            quanta.clear();
            for _ in 0..scheduled.len() {
                quanta.push(
                    self.quantum_rng
                        .range_inclusive(2 * MILESTONE_C as u64, 3 * MILESTONE_C as u64),
                );
            }
            for &i in &scheduled {
                self.procs[i].milestones_this_round = 0;
            }
            if self.config.trace {
                self.trace.deque_depths.push(deque_len.clone());
                self.round_executed.fill(false);
                self.round_attempted.fill(false);
                self.round_stole.fill(false);
            }
            // Interleave instruction-by-instruction in round-robin order
            // with a random starting offset (the kernel may interleave
            // arbitrarily; this realizes one adversary-ish choice).
            let n_sched = scheduled.len();
            let offset = if n_sched == 0 {
                0
            } else {
                self.quantum_rng.below_usize(n_sched)
            };
            let max_q = quanta.iter().copied().max().unwrap_or(0);
            'round: for step in 0..max_q {
                // Visit positions offset, offset + 1, …, wrapping at
                // n_sched — an increment instead of a division per
                // instruction.
                let mut idx = offset;
                for _ in 0..n_sched {
                    if step < quanta[idx] {
                        self.instruction(scheduled[idx]);
                        instructions += 1;
                        if self.done {
                            break 'round;
                        }
                    }
                    idx += 1;
                    if idx == n_sched {
                        idx = 0;
                    }
                }
            }
            wall_steps += max_q;

            if use_yields {
                self.ledger.note_scheduled(&chosen);
            }
            // Milestone accounting: every scheduled process that received a
            // full quantum must have hit ≥ 2 milestones (§4.1) — guaranteed
            // for the non-blocking backends under the paper's policies,
            // and precisely what the Locking backend (and any spinning or
            // parking policy) loses.
            if !self.done && self.config.backend != DequeBackend::Locking && self.milestone_safe {
                for (pos, &i) in scheduled.iter().enumerate() {
                    if quanta[pos] >= 2 * MILESTONE_C as u64
                        && self.procs[i].milestones_this_round < 2
                    {
                        self.milestone_violations += 1;
                    }
                }
            }
            if self.config.trace {
                let row: Vec<RoundActivity> = (0..p)
                    .map(|i| {
                        if !scheduled.contains(&i) {
                            RoundActivity::Unscheduled
                        } else if self.round_stole[i] {
                            RoundActivity::Stealing
                        } else if self.round_executed[i] {
                            RoundActivity::Working
                        } else if self.round_attempted[i] {
                            RoundActivity::Thieving
                        } else {
                            RoundActivity::Stalled
                        }
                    })
                    .collect();
                self.trace.rounds.push(row);
            }
            if self.config.check_potential {
                let now = self.potential.log_potential();
                if now > self.last_log_potential + 1e-9 {
                    self.potential_violations += 1;
                }
                self.last_log_potential = now;
            }
        }

        let pa = if rounds == 0 {
            0.0
        } else {
            proc_rounds as f64 / rounds as f64
        };
        // Every simulated backend extracts exactly once, and the blocking
        // deque waits out contention rather than aborting.
        self.tally.assert_checked(Structure {
            can_abort: self.config.backend != DequeBackend::Locking,
            exact: true,
            pools: self.pool_bounds.len(),
            batched: self.batch_cap > 1,
        });
        // Structural zero: with the cache model disabled, no code path
        // may touch the cache counters — telemetry goldens rely on it.
        if self.config.cache.is_none() {
            assert_eq!(
                (
                    self.cache_stats.hits,
                    self.cache_stats.misses,
                    self.cache_stats.accesses
                ),
                (0, 0, 0),
                "cache counters moved with the model disabled"
            );
        }
        if self.config.trace {
            self.trace.cache = self.config.cache.map(|_| self.cache_stats.clone());
        }
        RunReport {
            rounds,
            proc_rounds,
            instructions,
            wall_steps,
            pa,
            work: self.dag.work(),
            critical_path: self.dag.critical_path(),
            procs: p,
            executed: self.tally.jobs,
            pools: self.pool_bounds.len(),
            counters: self.tally,
            throws: self.throws,
            policy: self.config.policy_label(),
            completed: self.done,
            structural_violations: self.structural_violations,
            potential_violations: self.potential_violations,
            milestone_violations: self.milestone_violations,
            phases: if self.config.track_phases {
                Some(self.phase_stats.clone())
            } else {
                None
            },
            cache: if self.config.cache.is_some() {
                Some(std::mem::take(&mut self.cache_stats))
            } else {
                None
            },
            trace: if self.config.trace {
                Some(std::mem::take(&mut self.trace))
            } else {
                None
            },
        }
    }

    /// Executes one instruction of process `i`.
    fn instruction(&mut self, i: usize) {
        // Temporarily take the phase to appease the borrow checker.
        let phase = std::mem::replace(&mut self.procs[i].phase, Phase::Loop);
        let next = match phase {
            Phase::Loop => self.at_loop_top(i),
            Phase::PoppingBottom(op) => self.step_pop_bottom(i, op),
            Phase::Pushing(op) => self.step_push(i, op),
            Phase::Yielding => {
                self.tally.yields += 1;
                let p = self.procs.len();
                match self.config.yield_policy {
                    YieldPolicy::None => unreachable!("Yielding phase with no yield policy"),
                    YieldPolicy::ToRandom => {
                        let target = self.procs[i].engine.uniform_other(i, p);
                        self.ledger
                            .yield_to_random(ProcId(i as u32), ProcId(target as u32));
                    }
                    YieldPolicy::ToAll => self.ledger.yield_to_all(ProcId(i as u32)),
                }
                Phase::PickingVictim
            }
            Phase::PickingVictim => self.pick_and_steal(i),
            Phase::Stealing {
                victim,
                observe_as,
                op,
            } => self.step_steal(i, victim, observe_as, op),
            Phase::Backing { left, then_yield } => {
                // One milestone-free spin instruction.
                if left > 1 {
                    Phase::Backing {
                        left: left - 1,
                        then_yield,
                    }
                } else if then_yield && self.config.yield_policy != YieldPolicy::None {
                    Phase::Yielding
                } else {
                    self.pick_and_steal(i)
                }
            }
            Phase::Parked { left } => {
                // One milestone-free parked instruction; on wake, hunt
                // again (skipping the idle check so the wake always
                // attempts at least one steal).
                if left > 1 {
                    Phase::Parked { left: left - 1 }
                } else {
                    self.after_idle(i)
                }
            }
        };
        self.procs[i].phase = next;
    }

    /// Top of the scheduling loop: execute the assigned node, or begin a
    /// hunt for work.
    fn at_loop_top(&mut self, i: usize) -> Phase {
        match self.procs[i].assigned {
            Some(u) => self.execute_node(i, u),
            None => match self.procs[i].engine.idle_action() {
                IdleAction::Park(n) => Phase::Parked { left: n as u64 },
                // The simulator has no producer-side wake events, so the
                // untimed park is approximated by the legacy 100-unit
                // bounded park (a sleeping simulated process must rejoin
                // the throw economy on its own).
                IdleAction::ParkUntilWake => Phase::Parked { left: 100 },
                IdleAction::Steal => self.after_idle(i),
            },
        }
    }

    /// The idle policy said to keep hunting: consult the backoff, then
    /// head for a steal attempt.
    fn after_idle(&mut self, i: usize) -> Phase {
        match self.procs[i].engine.backoff_action() {
            // The paper's path: yield (line 15), then pick a victim —
            // unless the yield ablation removed line 15, in which case
            // the victim draw happens right here, in this instruction.
            BackoffAction::Yield if self.config.yield_policy != YieldPolicy::None => {
                Phase::Yielding
            }
            BackoffAction::Yield | BackoffAction::Proceed => self.pick_and_steal(i),
            BackoffAction::Spin(n) => Phase::Backing {
                left: n as u64,
                then_yield: false,
            },
            BackoffAction::SpinThenYield(n) => Phase::Backing {
                left: n as u64,
                then_yield: true,
            },
        }
    }

    /// Picks the next victim (one scan of one attempt — the thief yields
    /// between attempts) and starts the `popTop`.
    ///
    /// On a flat run (`pools == 1`, or the flat-scan control arm) the
    /// engine draws over all `P − 1` others, consuming exactly the
    /// pre-topology rng stream. On a hierarchical run the engine runs in
    /// pool-local coordinates over the thief's own pool; a cross-steal
    /// coin (or being alone in the pool) sends the attempt outside,
    /// where the pool's steal-back hint is tried first and the victim
    /// selector is bypassed (`observe_as: None`).
    fn pick_and_steal(&mut self, i: usize) -> Phase {
        let p = self.procs.len();
        if self.pool_bounds.len() == 1 || self.config.flat_scan {
            let eng = &mut self.procs[i].engine;
            eng.begin_scan(i, p);
            let victim = eng.next_victim(i, p);
            return Phase::Stealing {
                victim,
                observe_as: Some(victim),
                op: self.new_op(LockKind::PopTop),
            };
        }
        let my_pool = self.pool_of[i] as usize;
        let (start, end) = self.pool_bounds[my_pool];
        let n_local = end - start;
        let eng = &mut self.procs[i].engine;
        if n_local > 1 && !eng.coin(self.cross_coin) {
            let me_local = i - start;
            eng.begin_scan(me_local, n_local);
            let v_local = eng.next_victim(me_local, n_local);
            return Phase::Stealing {
                victim: start + v_local,
                observe_as: Some(v_local),
                op: self.new_op(LockKind::PopTop),
            };
        }
        // Cross-pool: steal back from the last thief on record to have
        // robbed this pool, else draw uniformly over the other pools.
        let hint = self.last_thief[my_pool];
        let victim = if hint != usize::MAX {
            hint
        } else {
            let r = eng.draw_below(p - n_local);
            if r < start {
                r
            } else {
                r + n_local
            }
        };
        Phase::Stealing {
            victim,
            observe_as: None,
            op: self.new_op(LockKind::PopTop),
        }
    }

    /// Executes assigned node `u` (one instruction; a milestone).
    fn execute_node(&mut self, i: usize, u: NodeId) -> Phase {
        debug_assert!(!self.executed[u.index()], "{u} executed twice");
        debug_assert_eq!(
            self.remaining_preds[u.index()],
            0,
            "{u} executed while not ready"
        );
        self.executed[u.index()] = true;
        self.tally.jobs += 1;
        if let Some(cache_cfg) = self.config.cache {
            // A node run on a different process than its designated
            // parent is a deviation — the migration count of the
            // Gu/Napier/Sun extra-miss bound.
            self.executed_on[u.index()] = i as u32;
            if let Some(par) = self.tree.designated_parent(u) {
                let enabler = self.executed_on[par.index()];
                if enabler != i as u32 {
                    self.cache_stats.deviations += 1;
                    // The deviation signal doubles as the locality hint:
                    // the enabling processor plausibly still holds the
                    // rest of this subcomputation, so the `LastEnabler`
                    // victim policy targets it on the next scan — in the
                    // coordinate space that scan will run in. Cross-pool
                    // enablers are unreachable from a local scan and are
                    // dropped. `note_enabler` consumes no randomness, so
                    // other victim policies stay bit-identical.
                    let e = enabler as usize;
                    if self.pool_bounds.len() == 1 || self.config.flat_scan {
                        self.procs[i].engine.note_enabler(e);
                    } else if self.pool_of[e] == self.pool_of[i] {
                        let start = self.pool_bounds[self.pool_of[i] as usize].0;
                        self.procs[i].engine.note_enabler(e - start);
                    }
                }
            }
            let frame_hit = self.caches[i].access(cache_cfg.frame_line(self.dag.thread_of(u)));
            self.cache_stats.record(i, frame_hit);
            let data_hit = self.caches[i].access(cache_cfg.data_line(u));
            self.cache_stats.record(i, data_hit);
        }
        if self.config.trace {
            self.round_executed[i] = true;
        }
        self.milestone(i, false);
        self.potential.remove(u);
        if u == self.dag.final_node() {
            self.done = true;
            self.procs[i].assigned = None;
            return Phase::Loop;
        }
        // Determine enabled children (out-degree is at most two).
        let mut enabled = [(u, abp_dag::EdgeKind::Continue); 2];
        let mut n_enabled = 0;
        for &(v, kind) in self.dag.succs(u) {
            self.remaining_preds[v.index()] -= 1;
            if self.remaining_preds[v.index()] == 0 {
                self.tree.record(u, v);
                enabled[n_enabled] = (v, kind);
                n_enabled += 1;
            }
        }
        match n_enabled {
            0 => {
                // Die or block: get new work from the bottom of the deque.
                self.procs[i].assigned = None;
                Phase::PoppingBottom(self.new_op(LockKind::PopBottom))
            }
            1 => {
                let (v, _) = enabled[0];
                self.procs[i].assigned = Some(v);
                self.potential.insert(v, ReadyState::Assigned, &self.tree);
                Phase::Loop
            }
            _ => {
                // Enable or spawn: one child is assigned, the other pushed.
                let (a, b) = self.pick_assignment(enabled[0], enabled[1]);
                self.procs[i].assigned = Some(a);
                self.potential.insert(a, ReadyState::Assigned, &self.tree);
                self.potential.insert(b, ReadyState::InDeque, &self.tree);
                Phase::Pushing(self.new_op(LockKind::Push(b.index() as u64)))
            }
        }
    }

    /// Chooses (assigned, pushed) among two enabled children per policy.
    fn pick_assignment(
        &self,
        x: (NodeId, abp_dag::EdgeKind),
        y: (NodeId, abp_dag::EdgeKind),
    ) -> (NodeId, NodeId) {
        use abp_dag::EdgeKind::Continue;
        let (cont, other) = if x.1 == Continue {
            (Some(x.0), y.0)
        } else if y.1 == Continue {
            (Some(y.0), x.0)
        } else {
            (None, y.0)
        };
        match (cont, self.config.assign) {
            (Some(c), AssignPolicy::SpawnFirst) => (other, c),
            (Some(c), AssignPolicy::ContinueFirst) => (c, other),
            (None, _) => (x.0, y.0),
        }
    }

    fn new_op(&self, kind: LockKind) -> AnyOp {
        match self.config.backend {
            DequeBackend::Abp | DequeBackend::AbpUntagged => AnyOp::Sim(match kind {
                LockKind::Push(v) => DequeOp::push_bottom(v),
                LockKind::PopBottom => DequeOp::pop_bottom(),
                LockKind::PopTop => DequeOp::pop_top(),
            }),
            DequeBackend::Locking => AnyOp::Locked(LockOp::new(kind)),
        }
    }

    /// Steps an in-flight op against deque `target` on behalf of process
    /// `me`, translating both backends to a unified result.
    fn step_op(&mut self, me: usize, target: usize, op: &mut AnyOp) -> OpDone {
        match (op, &mut self.deques) {
            (AnyOp::Sim(op), Deques::Sim(dq)) => match op.step(&mut dq[target]) {
                StepOutcome::Continue => OpDone::NotDone,
                StepOutcome::PushDone => OpDone::Push,
                StepOutcome::PopBottomDone(r) => OpDone::PopBottom(r),
                StepOutcome::PopTopDone(SimSteal::Taken(v)) => OpDone::PopTop(Some(v), false),
                StepOutcome::PopTopDone(SimSteal::Empty) => OpDone::PopTop(None, false),
                StepOutcome::PopTopDone(SimSteal::Abort) => OpDone::PopTop(None, true),
                StepOutcome::PopTopDone(SimSteal::Duplicate) => {
                    unreachable!("stepped ABP deque is exact: no duplicates")
                }
                StepOutcome::PopTopBatchDone(_) => {
                    // The simulator models batching at the pool level
                    // (claim_batch_extras) and never issues the batch op.
                    unreachable!("simulator ops are single push/pop/steal")
                }
            },
            (AnyOp::Locked(op), Deques::Locked(dq)) => match op.step(&mut dq[target], me as u32) {
                LockStepOutcome::Continue => OpDone::NotDone,
                LockStepOutcome::PushDone => OpDone::Push,
                LockStepOutcome::PopBottomDone(r) => OpDone::PopBottom(r),
                LockStepOutcome::PopTopDone(LockedSteal::Taken(v)) => {
                    OpDone::PopTop(Some(v), false)
                }
                LockStepOutcome::PopTopDone(LockedSteal::Empty) => OpDone::PopTop(None, false),
            },
            _ => unreachable!("op/backend mismatch"),
        }
    }

    fn step_pop_bottom(&mut self, i: usize, mut op: AnyOp) -> Phase {
        match self.step_op(i, i, &mut op) {
            OpDone::NotDone => Phase::PoppingBottom(op),
            OpDone::PopBottom(Some(v)) => {
                let u = NodeId(v as u32);
                self.procs[i].assigned = Some(u);
                self.procs[i].engine.note_work_found();
                self.potential.assign(u, &self.tree);
                self.check_structure(i);
                Phase::Loop
            }
            OpDone::PopBottom(None) => {
                self.check_structure(i);
                Phase::Loop // becomes a thief next instruction
            }
            _ => unreachable!(),
        }
    }

    fn step_push(&mut self, i: usize, mut op: AnyOp) -> Phase {
        match self.step_op(i, i, &mut op) {
            OpDone::NotDone => Phase::Pushing(op),
            OpDone::Push => {
                self.check_structure(i);
                Phase::Loop
            }
            _ => unreachable!(),
        }
    }

    fn step_steal(
        &mut self,
        i: usize,
        victim: usize,
        observe_as: Option<usize>,
        mut op: AnyOp,
    ) -> Phase {
        match self.step_op(i, victim, &mut op) {
            OpDone::NotDone => Phase::Stealing {
                victim,
                observe_as,
                op,
            },
            OpDone::PopTop(result, aborted) => {
                let res = if result.is_some() {
                    StealResult::Hit
                } else if aborted {
                    StealResult::Abort
                } else {
                    StealResult::Empty
                };
                let my_pool = self.pool_of[i] as usize;
                let victim_pool = self.pool_of[victim] as usize;
                let remote = victim_pool != my_pool;
                self.tally.record(res, remote);
                if remote {
                    if result.is_some() {
                        // The victim's pool remembers its robber, so its
                        // members can steal their work back.
                        self.last_thief[victim_pool] = i;
                    } else if self.last_thief[my_pool] == victim {
                        // A dry steal-back hint is stale: retire it.
                        self.last_thief[my_pool] = usize::MAX;
                    }
                }
                self.milestone(i, true);
                if self.config.trace {
                    self.round_attempted[i] = true;
                    if result.is_some() {
                        self.round_stole[i] = true;
                    }
                    self.trace.steals.push(StealRecord {
                        // Round rows are pushed at round end, so the rows
                        // recorded so far count the current round's index.
                        round: self.trace.rounds.len() as u64,
                        thief: ProcId(i as u32),
                        victim: ProcId(victim as u32),
                        outcome: match res {
                            StealResult::Hit => StealOutcome::Hit,
                            StealResult::Abort => StealOutcome::Abort,
                            StealResult::Empty => StealOutcome::Empty,
                            StealResult::Duplicate => StealOutcome::Duplicate,
                        },
                    });
                }
                if let Some(seen) = observe_as {
                    self.procs[i].engine.observe(seen, res);
                }
                if let Some(v) = result {
                    self.procs[i].engine.note_work_found();
                    let u = NodeId(v as u32);
                    self.procs[i].assigned = Some(u);
                    self.potential.assign(u, &self.tree);
                    self.check_structure(victim);
                    // A cross-pool hit amortizes under the batch policy:
                    // claim up to half the victim's remaining backlog in
                    // the same round trip (same instruction — extra
                    // claims cost no further synchronization episodes).
                    if observe_as.is_none() && self.batch_cap > 1 {
                        self.claim_batch_extras(i, victim);
                    }
                } else {
                    self.procs[i].engine.note_failed();
                }
                Phase::Loop
            }
            _ => unreachable!(),
        }
    }

    /// Claims up to `batch_cap - 1` further tasks from `victim` right
    /// after a successful cross-pool `popTop`, mirroring the runtime's
    /// `steal_batch`: the grab is biased to half the victim's visible
    /// backlog, the extras land at the thief's own deque bottom, and the
    /// whole batch shares one synchronization episode (zero extra
    /// simulated instructions — that amortization *is* the model of
    /// batching). Each extra task is still its own counted attempt and
    /// hit, so the five-way identity, the locality split, and the
    /// trace's one-record-per-attempt invariant all hold per task;
    /// `record_batch` logs the episode on the outside-the-identity axis
    /// whenever ≥ 2 tasks moved.
    ///
    /// Only the non-blocking backends batch: a blocking deque would have
    /// to reacquire the victim's lock per task — exactly the round-trip
    /// cost batching exists to avoid — and a stepped lock acquisition
    /// cannot complete inside one instruction while a rival holds it.
    fn claim_batch_extras(&mut self, i: usize, victim: usize) {
        if !matches!(self.deques, Deques::Sim(_)) {
            return;
        }
        // The backlog the runtime's `batch_want` sees includes the task
        // the just-completed popTop took.
        let avail = self.deques.len_of(victim) + 1;
        let want = self.batch_cap.min(avail.div_ceil(2)).max(1);
        let mut claimed = 1u64;
        for _ in 1..want {
            let mut op = self.new_op(LockKind::PopTop);
            let got = loop {
                match self.step_op(i, victim, &mut op) {
                    OpDone::NotDone => continue,
                    OpDone::PopTop(r, _) => break r,
                    _ => unreachable!(),
                }
            };
            // Nothing left (a rival's earlier stale read cannot race us
            // mid-instruction, but the backlog estimate can be stale):
            // the chain simply stops, recording no extra outcome — the
            // runtime's per-slot CAS chain stops the same way.
            let Some(v) = got else { break };
            self.tally.record(StealResult::Hit, true);
            if self.config.trace {
                self.trace.steals.push(StealRecord {
                    round: self.trace.rounds.len() as u64,
                    thief: ProcId(i as u32),
                    victim: ProcId(victim as u32),
                    outcome: StealOutcome::Hit,
                });
            }
            // Land the extra at our own bottom. It stays `InDeque`, so
            // the potential tracker does not move.
            let mut push = self.new_op(LockKind::Push(v));
            loop {
                match self.step_op(i, i, &mut push) {
                    OpDone::NotDone => continue,
                    OpDone::Push => break,
                    _ => unreachable!(),
                }
            }
            claimed += 1;
        }
        if claimed >= 2 {
            self.tally.record_batch(claimed);
        }
    }

    /// Records a milestone for process `i`; a steal completion at the
    /// second milestone of a round is a throw.
    fn milestone(&mut self, i: usize, is_steal_completion: bool) {
        self.procs[i].milestones_this_round += 1;
        if is_steal_completion && self.procs[i].milestones_this_round == 2 {
            self.throws += 1;
            if self.config.track_phases {
                self.phase_throws += 1;
                if self.phase_throws >= self.procs.len() as u64 {
                    // A phase of ≥ P throws ended: did Φ drop by ≥ 1/4?
                    let now = self.potential.log_potential();
                    self.phase_stats.phases += 1;
                    const LN_4_3: f64 = 0.2876820724517809; // ln(4/3)
                    if now <= self.phase_start_potential - LN_4_3 {
                        self.phase_stats.successful += 1;
                    }
                    self.phase_start_potential = now;
                    self.phase_throws = 0;
                }
            }
        }
    }

    /// Structural-lemma check for process `q`'s deque (between operations).
    fn check_structure(&mut self, q: usize) {
        if !self.config.check_structural {
            return;
        }
        let contents: Vec<NodeId> = self
            .deques
            .contents_bottom_to_top(q)
            .into_iter()
            .map(|v| NodeId(v as u32))
            .collect();
        if let Err(_e) =
            check_structural_lemma(&self.tree, self.dag, self.procs[q].assigned, &contents)
        {
            self.structural_violations += 1;
        }
    }
}

/// Convenience: run `dag` on `p` processes under `kernel` with `config`.
///
/// ```
/// use abp_dag::gen;
/// use abp_kernel::DedicatedKernel;
/// use abp_sim::{run_ws, WsConfig};
///
/// let dag = gen::fork_join_tree(4, 2);
/// let mut kernel = DedicatedKernel::new(4);
/// let report = run_ws(&dag, 4, &mut kernel, WsConfig::default());
/// assert!(report.completed);
/// assert_eq!(report.executed, dag.work());
/// // Theorem 9's bound, with a generous round-unit constant:
/// assert!(report.bound_ratio() < 1.0);
/// ```
pub fn run_ws(dag: &Dag, p: usize, kernel: &mut dyn Kernel, config: WsConfig) -> RunReport {
    WorkStealer::new(dag, p, config).run(kernel)
}

#[cfg(test)]
mod tests {
    use super::*;
    use abp_dag::gen;
    use abp_kernel::{BenignKernel, CountSource, DedicatedKernel};

    fn checked_config() -> WsConfig {
        WsConfig {
            check_structural: true,
            check_potential: true,
            track_phases: true,
            max_rounds: 2_000_000,
            ..WsConfig::default()
        }
    }

    fn assert_clean(r: &RunReport) {
        assert!(r.completed, "did not complete: {r}");
        assert_eq!(r.executed, r.work, "not all nodes executed");
        assert_eq!(r.structural_violations, 0, "structural lemma violated");
        assert_eq!(r.potential_violations, 0, "potential increased");
        assert_eq!(r.milestone_violations, 0, "milestone guarantee violated");
    }

    #[test]
    fn serial_chain_single_process() {
        let d = gen::chain(100);
        let mut k = DedicatedKernel::new(1);
        let r = run_ws(&d, 1, &mut k, checked_config());
        assert_clean(&r);
        assert_eq!(
            r.steal_attempts, 0,
            "nobody to steal from with P=1 and serial work"
        );
    }

    #[test]
    fn fork_join_dedicated_completes_clean() {
        let d = gen::fork_join_tree(5, 2);
        for p in [1, 2, 4, 8] {
            let mut k = DedicatedKernel::new(p);
            let r = run_ws(&d, p, &mut k, checked_config());
            assert_clean(&r);
            assert!(r.pa == p as f64);
        }
    }

    #[test]
    fn figure1_both_assign_policies() {
        let (d, _) = abp_dag::examples::figure1();
        for assign in [AssignPolicy::SpawnFirst, AssignPolicy::ContinueFirst] {
            let mut k = DedicatedKernel::new(2);
            let cfg = WsConfig {
                assign,
                ..checked_config()
            };
            let r = run_ws(&d, 2, &mut k, cfg);
            assert_clean(&r);
        }
    }

    #[test]
    fn sync_pipeline_blocking_paths() {
        let d = gen::sync_pipeline(4, 10);
        let mut k = DedicatedKernel::new(3);
        let r = run_ws(&d, 3, &mut k, checked_config());
        assert_clean(&r);
    }

    #[test]
    fn speedup_with_more_processes() {
        let d = gen::fork_join_tree(8, 3);
        let mut rounds = Vec::new();
        for p in [1, 2, 4, 8] {
            let mut k = DedicatedKernel::new(p);
            let r = run_ws(&d, p, &mut k, WsConfig::default());
            assert!(r.completed);
            rounds.push(r.rounds);
        }
        // Ample parallelism: doubling P should shrink time substantially.
        assert!(
            (rounds[3] as f64) < rounds[0] as f64 / 4.0,
            "rounds by P: {rounds:?}"
        );
    }

    #[test]
    fn benign_kernel_completes_clean() {
        let d = gen::fib(12, 3);
        let mut k = BenignKernel::new(6, CountSource::UniformBetween(1, 6), 11);
        let r = run_ws(&d, 6, &mut k, checked_config());
        assert_clean(&r);
        assert!(r.pa < 6.0, "P_A should be well under P, got {}", r.pa);
    }

    #[test]
    fn deterministic_given_seed() {
        let d = gen::random_series_parallel(5, 2000);
        let run = || {
            let mut k = BenignKernel::new(4, CountSource::UniformBetween(1, 4), 42);
            run_ws(&d, 4, &mut k, WsConfig::default())
        };
        let (a, b) = (run(), run());
        assert_eq!(a.rounds, b.rounds);
        assert_eq!(a.throws, b.throws);
        assert_eq!(a.instructions, b.instructions);
    }

    #[test]
    fn different_seeds_differ() {
        let d = gen::fib(11, 2);
        let r1 = {
            let mut k = DedicatedKernel::new(4);
            run_ws(
                &d,
                4,
                &mut k,
                WsConfig {
                    seed: 1,
                    ..WsConfig::default()
                },
            )
        };
        let r2 = {
            let mut k = DedicatedKernel::new(4);
            run_ws(
                &d,
                4,
                &mut k,
                WsConfig {
                    seed: 2,
                    ..WsConfig::default()
                },
            )
        };
        // Almost surely different victim choices somewhere.
        assert!(
            r1.instructions != r2.instructions || r1.throws != r2.throws,
            "identical runs across seeds is vanishingly unlikely"
        );
    }

    #[test]
    fn locking_backend_completes_on_dedicated() {
        let d = gen::fork_join_tree(4, 2);
        let mut k = DedicatedKernel::new(4);
        let cfg = WsConfig {
            backend: DequeBackend::Locking,
            ..WsConfig::default()
        };
        let r = run_ws(&d, 4, &mut k, cfg);
        assert!(r.completed);
        assert_eq!(r.executed, r.work);
    }

    #[test]
    fn phase_success_rate_beats_lemma8_bound() {
        // Lemma 8 promises phases succeed with probability > 1/4; the
        // empirical rate is much higher.
        let d = gen::fork_join_tree(7, 2);
        let mut k = DedicatedKernel::new(8);
        let cfg = WsConfig {
            track_phases: true,
            ..WsConfig::default()
        };
        let r = run_ws(&d, 8, &mut k, cfg);
        let ph = r.phases.unwrap();
        assert!(ph.phases > 0, "no phases recorded");
        assert!(
            ph.success_rate() > 0.25,
            "phase success rate {} ≤ 1/4 over {} phases",
            ph.success_rate(),
            ph.phases
        );
    }

    #[test]
    fn trace_records_everything_and_victims_are_uniform() {
        let d = gen::fib(15, 3);
        let p = 8;
        let mut k = DedicatedKernel::new(p);
        let cfg = WsConfig {
            trace: true,
            ..WsConfig::default()
        };
        let r = run_ws(&d, p, &mut k, cfg);
        assert!(r.completed);
        let tr = r.trace.as_ref().expect("trace requested");
        assert_eq!(tr.len() as u64, r.rounds);
        assert_eq!(tr.steals.len() as u64, r.steal_attempts);
        assert_eq!(
            tr.steals.iter().filter(|s| s.hit()).count() as u64,
            r.steals
        );
        // Nobody targets themselves.
        assert!(tr.steals.iter().all(|s| s.thief != s.victim));
        // Steal rounds are within range and non-decreasing per thief.
        assert!(tr.steals.iter().all(|s| s.round < r.rounds));
        // Dedicated kernel: no Unscheduled entries; the non-blocking
        // backend never stalls a whole round.
        let b = tr.activity_breakdown();
        assert_eq!(b.unscheduled, 0);
        assert_eq!(b.stalled, 0);
        assert_eq!(b.scheduled(), r.proc_rounds);
        // Victim selection is uniform: chi-square over P bins with many
        // samples stays below a generous threshold (99.9th percentile of
        // χ²₇ is ~24.3; allow slack for the structured workload).
        if tr.steals.len() > 500 {
            let chi = tr.victim_chi_square(p);
            assert!(chi < 60.0, "victim distribution suspicious: chi² = {chi}");
        }
        // The timeline renders one row per process.
        let timeline = tr.render_timeline(60);
        assert_eq!(timeline.lines().count(), p + 1);
    }

    #[test]
    fn trace_marks_unscheduled_rounds() {
        let d = gen::fork_join_tree(5, 2);
        let p = 4;
        let mut k = abp_kernel::BenignKernel::new(p, CountSource::Constant(2), 9);
        let cfg = WsConfig {
            trace: true,
            ..WsConfig::default()
        };
        let r = run_ws(&d, p, &mut k, cfg);
        assert!(r.completed);
        let b = r.trace.unwrap().activity_breakdown();
        // Half the process-rounds are unscheduled under Constant(2) of 4.
        assert!(b.unscheduled > 0);
        assert_eq!(b.scheduled(), r.proc_rounds);
    }

    #[test]
    fn cache_model_disabled_is_structurally_zero() {
        let d = gen::fork_join_tree(5, 2);
        let mut k = DedicatedKernel::new(4);
        let r = run_ws(&d, 4, &mut k, checked_config());
        assert_clean(&r);
        // run() asserts the zero internally; the report must carry no
        // cache block at all.
        assert!(r.cache.is_none());
    }

    #[test]
    fn cache_model_counts_two_accesses_per_node() {
        let d = gen::fork_join_tree(5, 2);
        let mut k = DedicatedKernel::new(4);
        let cfg = WsConfig::default().with_cache(crate::cache::CacheConfig::default());
        let r = run_ws(&d, 4, &mut k, cfg);
        assert!(r.completed);
        let c = r.cache.expect("cache model was enabled");
        assert_eq!(c.accesses, 2 * r.executed);
        assert_eq!(c.accesses, c.hits + c.misses);
        assert_eq!(c.misses, c.per_proc_misses.iter().sum::<u64>());
        assert!(c.misses > 0, "a real run must miss at least once");
        assert!(c.hits > 0, "thread frames must produce hits");
    }

    #[test]
    fn cache_model_serial_run_has_no_deviations() {
        let d = gen::fork_join_tree(6, 2);
        let run = || {
            let mut k = DedicatedKernel::new(1);
            let cfg = WsConfig::default().with_cache(crate::cache::CacheConfig::default());
            run_ws(&d, 1, &mut k, cfg)
        };
        let a = run().cache.unwrap();
        let b = run().cache.unwrap();
        // P = 1: no steals, no deviations, and bit-identical counters.
        assert_eq!(a.deviations, 0);
        assert_eq!(a, b);
    }

    #[test]
    fn cache_stats_flow_into_trace() {
        let d = gen::fork_join_tree(4, 2);
        let mut k = DedicatedKernel::new(2);
        let cfg = WsConfig::default()
            .with_trace(true)
            .with_cache(crate::cache::CacheConfig::default());
        let r = run_ws(&d, 2, &mut k, cfg);
        let from_trace = r.trace.as_ref().unwrap().cache.clone().unwrap();
        assert_eq!(from_trace, r.cache.unwrap());
        // Traced runs without the model carry no block.
        let mut k = DedicatedKernel::new(2);
        let r = run_ws(&d, 2, &mut k, WsConfig::default().with_trace(true));
        assert!(r.trace.unwrap().cache.is_none());
    }

    #[test]
    fn tree_workload_steals_respect_rooted_tree_bound() {
        // The encoded tree is a binary spawn tree of height
        // spawn_height(); Leiserson et al.'s bound with k = 2 must hold
        // for every policy and seed.
        let tree = abp_dag::tree::full_kary(3, 4);
        let d = tree.to_dag(2);
        for p in [2, 4, 8] {
            for seed in [1, 2, 3] {
                let mut k = DedicatedKernel::new(p);
                let cfg = WsConfig::default().with_seed(seed);
                let r = run_ws(&d, p, &mut k, cfg);
                assert!(r.completed);
                let check = abp_core::StealBoundCheck::rooted_tree(
                    r.steals,
                    2,
                    tree.spawn_height(),
                    tree.num_edges() as u64,
                    p,
                );
                assert!(
                    check.holds(),
                    "P={p} seed={seed}: {} steals > bound {}",
                    check.observed,
                    check.bound
                );
            }
        }
    }

    #[test]
    fn explicit_flat_topology_is_byte_identical() {
        // `pools: 1` must consume exactly the pre-topology rng stream:
        // the whole run, not just the outcome, is bit-identical.
        let d = gen::fib(13, 3);
        let run = |cfg: WsConfig| {
            let mut k = BenignKernel::new(6, CountSource::UniformBetween(1, 6), 7);
            run_ws(&d, 6, &mut k, cfg)
        };
        let a = run(WsConfig::default());
        let b = run(WsConfig::default().with_pools(1).with_cross_steal(0.9));
        assert_eq!(a.rounds, b.rounds);
        assert_eq!(a.instructions, b.instructions);
        assert_eq!(a.throws, b.throws);
        assert_eq!(a.steal_attempts, b.steal_attempts);
        assert_eq!(a.steals, b.steals);
        assert_eq!((a.pools, a.remote_steals), (1, 0));
        // The flat-scan control arm with pool labels also replays the
        // flat stream — only the accounting axis moves.
        let c = run(WsConfig::default().with_pools(2).with_flat_scan(true));
        assert_eq!(a.rounds, c.rounds);
        assert_eq!(a.instructions, c.instructions);
        assert_eq!(a.steal_attempts, c.steal_attempts);
        assert_eq!(c.pools, 2);
        assert!(c.locality_consistent());
    }

    #[test]
    fn hierarchical_topology_completes_clean() {
        let d = gen::fib(13, 3);
        for k_pools in [2, 4] {
            let mut k = DedicatedKernel::new(8);
            let cfg = WsConfig {
                pools: k_pools,
                ..checked_config()
            };
            let r = run_ws(&d, 8, &mut k, cfg);
            assert_clean(&r);
            assert_eq!(r.pools, k_pools);
            assert!(r.locality_consistent());
            assert!(
                r.remote_steals > 0,
                "fib on a dedicated K={k_pools} topology must cross pools sometimes"
            );
        }
    }

    #[test]
    fn hierarchical_scans_keep_remote_fraction_low() {
        // The whole point of the topology: hierarchical victim selection
        // crosses pools far less often than a topology-blind flat scan
        // over the same pool labels. The *attempt* fraction is the scan
        // policy's own property (the hit fraction also depends on where
        // the workload puts the work): a flat scan over K=4 pools of 2
        // crosses 6/7 ≈ 0.86 of the time, the hierarchical scan at the
        // cross-steal coin's rate (default 1/8).
        let d = gen::fib(15, 3);
        let run = |flat: bool| {
            let mut k = DedicatedKernel::new(8);
            let cfg = WsConfig::default().with_pools(4).with_flat_scan(flat);
            run_ws(&d, 8, &mut k, cfg)
        };
        let hier = run(false);
        let flat = run(true);
        assert!(hier.completed && flat.completed);
        assert!(
            flat.remote_attempt_fraction() > 5.0 * hier.remote_attempt_fraction(),
            "flat {:.3} vs hierarchical {:.3}",
            flat.remote_attempt_fraction(),
            hier.remote_attempt_fraction()
        );
        // Hits follow the same direction, if less sharply (work spreads
        // out of the root's pool only via remote hits).
        assert!(
            flat.remote_steal_fraction() > hier.remote_steal_fraction(),
            "flat {:.3} vs hierarchical {:.3}",
            flat.remote_steal_fraction(),
            hier.remote_steal_fraction()
        );
    }

    #[test]
    fn solo_pools_always_cross() {
        // P pools of one process each: every steal is remote, and the
        // run still completes (the steal-back hint keeps rotating).
        let d = gen::fork_join_tree(6, 2);
        let mut k = DedicatedKernel::new(4);
        let cfg = WsConfig::default().with_pools(4);
        let r = run_ws(&d, 4, &mut k, cfg);
        assert!(r.completed);
        assert_eq!(r.remote_steals, r.steals);
        assert_eq!(r.remote_attempts, r.steal_attempts);
        assert!(r.steals > 0);
    }

    #[test]
    fn last_enabler_policy_runs_clean_with_cache() {
        use abp_core::VictimKind;
        let d = gen::fib(13, 3);
        let mut policies = PolicySet::paper();
        policies.victim = VictimKind::LastEnabler;
        let mut k = DedicatedKernel::new(8);
        let cfg = WsConfig {
            policies,
            ..checked_config()
        }
        .with_cache(crate::cache::CacheConfig::default());
        let r = run_ws(&d, 8, &mut k, cfg);
        assert_clean(&r);
        let c = r.cache.expect("cache model enabled");
        assert!(c.deviations > 0, "a parallel run must deviate somewhere");
    }

    #[test]
    fn batched_hierarchical_completes_clean_and_batches() {
        use abp_core::BatchKind;
        let d = gen::fib(15, 3);
        for k_pools in [2, 4] {
            let mut k = DedicatedKernel::new(8);
            let cfg = WsConfig::default()
                .with_pools(k_pools)
                .with_policies(PolicySet::paper().with_batch(BatchKind::Half { cap: 4 }));
            let r = run_ws(&d, 8, &mut k, cfg);
            assert!(r.completed);
            assert_eq!(r.executed, r.work);
            assert!(r.steal_accounting_balanced(), "identity broken: {r:?}");
            assert!(r.locality_consistent());
            assert!(r.batch_consistent(), "batch split broken: {r:?}");
            assert!(
                r.batch_steals > 0,
                "K={k_pools}: a deep fib run must multi-claim at least once"
            );
        }
    }

    #[test]
    fn batched_trace_keeps_one_record_per_attempt() {
        // Every task claimed by a batch is its own attempt, so the
        // trace's one-record-per-attempt invariant survives batching.
        use abp_core::BatchKind;
        let d = gen::fib(13, 3);
        let mut k = DedicatedKernel::new(8);
        let cfg = WsConfig::default()
            .with_pools(4)
            .with_trace(true)
            .with_policies(PolicySet::paper().with_batch(BatchKind::Half { cap: 8 }));
        let r = run_ws(&d, 8, &mut k, cfg);
        assert!(r.completed);
        let tr = r.trace.as_ref().expect("trace requested");
        assert_eq!(tr.steals.len() as u64, r.steal_attempts);
        assert_eq!(
            tr.steals.iter().filter(|s| s.hit()).count() as u64,
            r.steals
        );
    }

    #[test]
    fn single_batch_policy_keeps_structural_zero() {
        // `run` asserts the zero internally; this pins the report
        // surface on a hierarchical run under the default policy.
        let d = gen::fib(13, 3);
        let mut k = DedicatedKernel::new(8);
        let r = run_ws(&d, 8, &mut k, WsConfig::default().with_pools(4));
        assert!(r.completed);
        assert_eq!((r.batch_steals, r.batched_tasks), (0, 0));
    }

    #[test]
    fn locking_backend_ignores_batch_policy() {
        // A blocking deque reacquires the lock per task — the round
        // trip batching amortizes doesn't exist — so the policy is a
        // documented no-op there.
        use abp_core::BatchKind;
        let d = gen::fork_join_tree(5, 2);
        let mut k = DedicatedKernel::new(4);
        let cfg = WsConfig::default()
            .with_pools(2)
            .with_backend(DequeBackend::Locking)
            .with_policies(PolicySet::paper().with_batch(BatchKind::Half { cap: 4 }));
        let r = run_ws(&d, 4, &mut k, cfg);
        assert!(r.completed);
        assert_eq!((r.batch_steals, r.batched_tasks), (0, 0));
    }

    #[test]
    #[should_panic(expected = "check_structural is incompatible with batched stealing")]
    fn structural_checker_rejects_batched_config() {
        use abp_core::BatchKind;
        let d = gen::chain(4);
        let mut k = DedicatedKernel::new(2);
        let cfg = WsConfig::default()
            .with_pools(2)
            .with_check_structural(true)
            .with_policies(PolicySet::paper().with_batch(BatchKind::Half { cap: 4 }));
        let _ = run_ws(&d, 2, &mut k, cfg);
    }

    #[test]
    #[should_panic(expected = "pools must satisfy")]
    fn more_pools_than_procs_rejected() {
        let d = gen::chain(4);
        let mut k = DedicatedKernel::new(2);
        let _ = run_ws(&d, 2, &mut k, WsConfig::default().with_pools(3));
    }

    #[test]
    fn throws_bounded_by_o_p_tinf_dedicated() {
        // Theorem 9's internals: E[throws] = O(P · T∞). Check a generous
        // constant across shapes.
        for (d, label) in [
            (gen::fork_join_tree(6, 2), "fork-join"),
            (gen::fib(13, 3), "fib"),
            (gen::wide_shallow(32, 20), "wide"),
        ] {
            let p = 8;
            let mut total = 0u64;
            let trials = 5;
            for seed in 0..trials {
                let mut k = DedicatedKernel::new(p);
                let cfg = WsConfig {
                    seed,
                    ..WsConfig::default()
                };
                let r = run_ws(&d, p, &mut k, cfg);
                assert!(r.completed);
                total += r.throws;
            }
            let avg = total as f64 / trials as f64;
            let bound = 32.0 * p as f64 * d.critical_path() as f64;
            assert!(
                avg < bound,
                "{label}: avg throws {avg} exceeds 32·P·T∞ = {bound}"
            );
        }
    }
}
