//! Bounded exhaustive checking of the deque's relaxed semantics (§3.2).
//!
//! The paper's correctness argument for the Figure-5 deque lives in a
//! separate technical report \[11\]; in its place this module *exhaustively
//! enumerates every interleaving* of small owner/thief programs over the
//! instruction-stepped deque of [`crate::sim_deque`] and checks each
//! complete history with the shared relaxed-semantics checker in
//! [`crate::history`] (conservation, the §3.2 Abort excuse, and Wing–Gong
//! linearizability of the good ops). The same checker also runs over
//! timestamped histories recorded from the *real* [`crate::atomic`] deque
//! — see [`crate::history::Recorder`].
//!
//! The state space of a scenario with a handful of operations is small
//! (thousands to a few million interleavings), so the exploration is a
//! plain depth-first search with no state hashing.

use crate::sim_deque::{DequeOp, SimDeque, StepOutcome};

pub use crate::history::{
    check, check_with_batches, BatchInvocation, Invocation, OpResult, ProgOp, Violation,
};

/// A scenario: `programs[0]` is the owner (may push/pop bottom), the rest
/// are thieves (must only `PopTop`) — the "good invocation sets" of §3.2.
#[derive(Debug, Clone)]
pub struct Scenario {
    pub programs: Vec<Vec<ProgOp>>,
}

impl Scenario {
    /// Builds and sanity-checks a scenario.
    pub fn new(programs: Vec<Vec<ProgOp>>) -> Self {
        assert!(!programs.is_empty());
        for prog in &programs[1..] {
            assert!(
                prog.iter().all(|op| matches!(op, ProgOp::PopTop)),
                "thief programs may only contain PopTop (good invocation sets)"
            );
        }
        Scenario { programs }
    }
}

/// Outcome of exploring every interleaving of a scenario.
#[derive(Debug)]
pub struct Report {
    /// Number of complete histories enumerated.
    pub histories: u64,
    /// Number of histories that violated the relaxed semantics.
    pub violating: u64,
    /// One concrete counterexample, if any.
    pub example: Option<Violation>,
}

impl Report {
    /// True if no history violated the semantics.
    pub fn ok(&self) -> bool {
        self.violating == 0
    }
}

#[derive(Clone)]
struct ProcState {
    program: Vec<ProgOp>,
    next_op: usize,
    current: Option<(DequeOp, ProgOp, u64)>, // op, kind, start step
}

impl ProcState {
    fn done(&self) -> bool {
        self.current.is_none() && self.next_op >= self.program.len()
    }
}

/// Explores every interleaving of `scenario` on a deque with the tag
/// mechanism enabled (`tagged = true`) or disabled.
///
/// ```
/// use abp_deque::model::{explore, ProgOp, Scenario};
///
/// let sc = Scenario::new(vec![
///     vec![ProgOp::Push(1), ProgOp::PopBottom], // owner
///     vec![ProgOp::PopTop],                     // one thief
/// ]);
/// assert!(explore(&sc, true).ok());   // the real algorithm is clean
/// assert!(!explore(&Scenario::new(vec![
///     vec![ProgOp::Push(1), ProgOp::PopBottom, ProgOp::Push(2)],
///     vec![ProgOp::PopTop],
/// ]), false).ok());                   // the untagged variant is not
/// ```
pub fn explore(scenario: &Scenario, tagged: bool) -> Report {
    explore_on(scenario, SimDeque::with_tagging(tagged))
}

/// Explores every interleaving of `scenario` starting from an arbitrary
/// initial deque — e.g. [`SimDeque::with_growth`] to model the growable
/// deque's buffer replacement racing concurrent `popTop`s.
pub fn explore_on(scenario: &Scenario, initial: SimDeque) -> Report {
    let procs: Vec<ProcState> = scenario
        .programs
        .iter()
        .map(|p| ProcState {
            program: p.clone(),
            next_op: 0,
            current: None,
        })
        .collect();
    let mut report = Report {
        histories: 0,
        violating: 0,
        example: None,
    };
    let mut history = Vec::new();
    let mut deque = initial;
    dfs(&mut deque, procs, 0, &mut history, &mut report);
    report
}

fn dfs(
    deque: &mut SimDeque,
    procs: Vec<ProcState>,
    step: u64,
    history: &mut Vec<Invocation>,
    report: &mut Report,
) {
    if procs.iter().all(|p| p.done()) {
        report.histories += 1;
        if let Err(reason) = check(history) {
            report.violating += 1;
            if report.example.is_none() {
                report.example = Some(Violation {
                    reason,
                    history: history.clone(),
                });
            }
        }
        return;
    }
    for i in 0..procs.len() {
        if procs[i].done() {
            continue;
        }
        // Step process i by one instruction on a cloned world.
        let mut d2 = deque.clone();
        let mut p2 = procs.clone();
        let pushed_hist = step_proc(&mut d2, &mut p2[i], i, step, history);
        dfs(&mut d2, p2, step + 1, history, report);
        if pushed_hist {
            history.pop();
        }
    }
}

/// One step of a thief program in a [`BatchScenario`]: a plain `popTop`
/// or a batched grab of up to `max` tasks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThiefOp {
    PopTop,
    Batch(usize),
}

/// A scenario whose thieves may issue *batched* grabs, judged by
/// [`check_with_batches`] (INV-SB-1/INV-SB-2 plus the single-op
/// semantics over the batch-expanded history). This is the exhaustive
/// counterpart of the concurrent batch histories recorded from the real
/// deque — small enough programs that every interleaving of the
/// instruction-stepped [`DequeOp::PopTopBatch`] against the owner can
/// be enumerated, including the keep-path overlap a wall-clock test
/// practically never schedules.
#[derive(Debug, Clone)]
pub struct BatchScenario {
    /// The owner's program (push/pop bottom).
    pub owner: Vec<ProgOp>,
    /// Thief programs; each step is a single or batched steal.
    pub thieves: Vec<Vec<ThiefOp>>,
}

#[derive(Clone)]
enum BCurrent {
    Single(DequeOp, ProgOp, u64),
    Batch(DequeOp, u64),
}

#[derive(Clone)]
struct BProc {
    owner_prog: Vec<ProgOp>,
    thief_prog: Vec<ThiefOp>,
    next_op: usize,
    current: Option<BCurrent>,
}

impl BProc {
    fn done(&self) -> bool {
        let len = self.owner_prog.len().max(self.thief_prog.len());
        self.current.is_none() && self.next_op >= len
    }
}

/// What a batch-scenario step appended, so the DFS can backtrack.
enum Logged {
    Nothing,
    History,
    Batch,
}

/// Explores every interleaving of `scenario` starting from `initial`.
/// `revalidate` selects the batched chain variant: `true` is the
/// shipped per-claim preamble re-run (INV-SB-REVAL), `false` the broken
/// stale-`bot` chain — exploring the latter must produce a violation
/// (see the tests), which is the non-vacuity check for the former.
pub fn explore_batches(scenario: &BatchScenario, initial: SimDeque, revalidate: bool) -> Report {
    let mut procs = vec![BProc {
        owner_prog: scenario.owner.clone(),
        thief_prog: Vec::new(),
        next_op: 0,
        current: None,
    }];
    for t in &scenario.thieves {
        procs.push(BProc {
            owner_prog: Vec::new(),
            thief_prog: t.clone(),
            next_op: 0,
            current: None,
        });
    }
    let mut report = Report {
        histories: 0,
        violating: 0,
        example: None,
    };
    let mut history = Vec::new();
    let mut batches = Vec::new();
    let mut deque = initial;
    dfs_batches(
        &mut deque,
        procs,
        revalidate,
        0,
        &mut history,
        &mut batches,
        &mut report,
    );
    report
}

fn dfs_batches(
    deque: &mut SimDeque,
    procs: Vec<BProc>,
    revalidate: bool,
    step: u64,
    history: &mut Vec<Invocation>,
    batches: &mut Vec<BatchInvocation>,
    report: &mut Report,
) {
    if procs.iter().all(|p| p.done()) {
        report.histories += 1;
        if let Err(reason) = check_with_batches(history, batches, false) {
            report.violating += 1;
            if report.example.is_none() {
                report.example = Some(Violation {
                    reason,
                    history: history.clone(),
                });
            }
        }
        return;
    }
    for i in 0..procs.len() {
        if procs[i].done() {
            continue;
        }
        let mut d2 = deque.clone();
        let mut p2 = procs.clone();
        let logged = step_bproc(&mut d2, &mut p2[i], i, revalidate, step, history, batches);
        dfs_batches(&mut d2, p2, revalidate, step + 1, history, batches, report);
        match logged {
            Logged::Nothing => {}
            Logged::History => {
                history.pop();
            }
            Logged::Batch => {
                batches.pop();
            }
        }
    }
}

/// Advances one instruction of batch-scenario process `i`.
fn step_bproc(
    deque: &mut SimDeque,
    p: &mut BProc,
    proc_idx: usize,
    revalidate: bool,
    step: u64,
    history: &mut Vec<Invocation>,
    batches: &mut Vec<BatchInvocation>,
) -> Logged {
    if p.current.is_none() {
        let cur = if p.owner_prog.is_empty() {
            match p.thief_prog[p.next_op] {
                ThiefOp::PopTop => BCurrent::Single(DequeOp::pop_top(), ProgOp::PopTop, step),
                ThiefOp::Batch(max) => {
                    BCurrent::Batch(DequeOp::pop_top_batch(max, revalidate), step)
                }
            }
        } else {
            let kind = p.owner_prog[p.next_op];
            let op = match kind {
                ProgOp::Push(v) => DequeOp::push_bottom(v),
                ProgOp::PopBottom => DequeOp::pop_bottom(),
                ProgOp::PopTop => DequeOp::pop_top(),
            };
            BCurrent::Single(op, kind, step)
        };
        p.next_op += 1;
        p.current = Some(cur);
    }
    match p.current.as_mut().unwrap() {
        BCurrent::Single(op, kind, start) => {
            let outcome = op.step(deque);
            let (kind, start) = (*kind, *start);
            match outcome {
                StepOutcome::Continue => Logged::Nothing,
                done => {
                    let result = match done {
                        StepOutcome::PushDone => OpResult::Pushed,
                        StepOutcome::PopBottomDone(r) => OpResult::Popped(r),
                        StepOutcome::PopTopDone(r) => OpResult::Stolen(r),
                        StepOutcome::Continue | StepOutcome::PopTopBatchDone(_) => unreachable!(),
                    };
                    history.push(Invocation {
                        proc: proc_idx,
                        start,
                        end: step,
                        kind,
                        result,
                    });
                    p.current = None;
                    Logged::History
                }
            }
        }
        BCurrent::Batch(op, start) => {
            let start = *start;
            match op.step(deque) {
                StepOutcome::Continue => Logged::Nothing,
                StepOutcome::PopTopBatchDone(b) => {
                    // Every successful cas claimed exactly one slot and
                    // took exactly one task, so claimed == tasks (the
                    // exact-backend shape of INV-SB-1).
                    batches.push(BatchInvocation {
                        proc: proc_idx,
                        start,
                        end: step,
                        claimed: b.tasks.len(),
                        tasks: b.tasks,
                        duplicates: 0,
                    });
                    p.current = None;
                    Logged::Batch
                }
                other => unreachable!("batch op produced {other:?}"),
            }
        }
    }
}

/// Advances one instruction of process `i`; returns true if an invocation
/// completed (and was appended to `history`).
fn step_proc(
    deque: &mut SimDeque,
    p: &mut ProcState,
    proc_idx: usize,
    step: u64,
    history: &mut Vec<Invocation>,
) -> bool {
    if p.current.is_none() {
        let kind = p.program[p.next_op];
        p.next_op += 1;
        let op = match kind {
            ProgOp::Push(v) => DequeOp::push_bottom(v),
            ProgOp::PopBottom => DequeOp::pop_bottom(),
            ProgOp::PopTop => DequeOp::pop_top(),
        };
        p.current = Some((op, kind, step));
    }
    let (op, kind, start) = p.current.as_mut().unwrap();
    let outcome = op.step(deque);
    let (kind, start) = (*kind, *start);
    match outcome {
        StepOutcome::Continue => false,
        done => {
            let result = match done {
                StepOutcome::PushDone => OpResult::Pushed,
                StepOutcome::PopBottomDone(r) => OpResult::Popped(r),
                StepOutcome::PopTopDone(r) => OpResult::Stolen(r),
                StepOutcome::Continue | StepOutcome::PopTopBatchDone(_) => unreachable!(),
            };
            history.push(Invocation {
                proc: proc_idx,
                start,
                end: step,
                kind,
                result,
            });
            p.current = None;
            true
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn owner(ops: &[ProgOp]) -> Vec<ProgOp> {
        ops.to_vec()
    }

    #[test]
    fn single_thief_scenarios_pass_when_tagged() {
        use ProgOp::*;
        let scenarios = [
            Scenario::new(vec![owner(&[Push(1), PopBottom]), vec![PopTop]]),
            Scenario::new(vec![owner(&[Push(1), Push(2), PopBottom]), vec![PopTop]]),
            Scenario::new(vec![owner(&[Push(1), PopBottom, Push(2)]), vec![PopTop]]),
            Scenario::new(vec![
                owner(&[Push(1), Push(2), PopBottom, PopBottom]),
                vec![PopTop, PopTop],
            ]),
        ];
        for (i, sc) in scenarios.iter().enumerate() {
            let rep = explore(sc, true);
            assert!(rep.histories > 0);
            assert!(
                rep.ok(),
                "scenario {i} violated: {:?}",
                rep.example.as_ref().map(|v| &v.reason)
            );
        }
    }

    #[test]
    fn two_thieves_pass_when_tagged() {
        use ProgOp::*;
        let sc = Scenario::new(vec![
            owner(&[Push(1), Push(2), PopBottom]),
            vec![PopTop],
            vec![PopTop],
        ]);
        let rep = explore(&sc, true);
        assert!(rep.histories > 1000, "histories: {}", rep.histories);
        assert!(
            rep.ok(),
            "violated: {:?}",
            rep.example.as_ref().map(|v| &v.reason)
        );
    }

    #[test]
    fn untagged_aba_is_found() {
        use ProgOp::*;
        // The §3.3 scenario: the checker must find a violating
        // interleaving for the untagged deque...
        let sc = Scenario::new(vec![owner(&[Push(1), PopBottom, Push(2)]), vec![PopTop]]);
        let rep = explore(&sc, false);
        assert!(
            !rep.ok(),
            "untagged deque should violate the semantics somewhere in {} histories",
            rep.histories
        );
        let ex = rep.example.unwrap();
        assert!(
            ex.reason.contains("consumed twice") || ex.reason.contains("no linearization"),
            "unexpected reason: {}",
            ex.reason
        );
        // ...and the same scenario must be clean with tags.
        let rep_tagged = explore(&sc, true);
        assert!(
            rep_tagged.ok(),
            "tagged: {:?}",
            rep_tagged.example.as_ref().map(|v| &v.reason)
        );
    }

    #[test]
    #[should_panic(expected = "good invocation sets")]
    fn thief_cannot_push() {
        Scenario::new(vec![vec![ProgOp::Push(1)], vec![ProgOp::Push(2)]]);
    }

    /// INV-FENCE, owner side: with `popBottom`'s claim store buffered
    /// past its age load (the store→load reordering the owner's SeqCst
    /// fence forbids), a thief can observe the stale `bot` and re-steal
    /// the entry the owner fast-path-popped. The checker must find it —
    /// and the same scenario must be clean under the in-order model.
    #[test]
    fn owner_store_load_reordering_is_caught() {
        use crate::sim_deque::{MemModel, SimDeque};
        use ProgOp::*;
        let sc = Scenario::new(vec![
            owner(&[Push(1), Push(2), PopBottom]),
            vec![PopTop, PopTop],
        ]);
        let rep = explore_on(
            &sc,
            SimDeque::new().with_mem_model(MemModel::OwnerStoreLoadReordered),
        );
        assert!(
            !rep.ok(),
            "unfenced owner should violate the semantics somewhere in {} histories",
            rep.histories
        );
        let ex = rep.example.unwrap();
        assert!(
            ex.reason.contains("consumed twice") || ex.reason.contains("no linearization"),
            "unexpected reason: {}",
            ex.reason
        );
        let fenced = explore(&sc, true);
        assert!(
            fenced.ok(),
            "fenced: {:?}",
            fenced.example.as_ref().map(|v| &v.reason)
        );
    }

    /// INV-FENCE, thief side: with `popTop` loading `bot` before `age`
    /// (the load→load reordering the thief-side ordering forbids), a
    /// stale large `bot` can pair with a *reset* age word — whose fresh
    /// tag validates the cas — and the thief consumes an entry the owner
    /// already took through the reset path.
    #[test]
    fn thief_load_load_reordering_is_caught() {
        use crate::sim_deque::{MemModel, SimDeque};
        use ProgOp::*;
        let sc = Scenario::new(vec![owner(&[Push(1), PopBottom]), vec![PopTop]]);
        let rep = explore_on(
            &sc,
            SimDeque::new().with_mem_model(MemModel::ThiefLoadLoadReordered),
        );
        assert!(
            !rep.ok(),
            "reordered thief should violate the semantics somewhere in {} histories",
            rep.histories
        );
        let ex = rep.example.unwrap();
        assert!(
            ex.reason.contains("consumed twice") || ex.reason.contains("no linearization"),
            "unexpected reason: {}",
            ex.reason
        );
        let ordered = explore(&sc, true);
        assert!(
            ordered.ok(),
            "in-order: {:?}",
            ordered.example.as_ref().map(|v| &v.reason)
        );
    }

    /// A growth event racing concurrent popTops: with the faithful
    /// copy-on-grow protocol (the one [`crate::atomic::Growable`] implements),
    /// every interleaving satisfies the relaxed semantics.
    #[test]
    fn growth_racing_poptop_is_clean_when_copied() {
        use crate::sim_deque::SimDeque;
        use ProgOp::*;
        // cap = 1, so the second push grows the array while the thieves'
        // popTops may be mid-flight (between their slot read and cas).
        let scenarios = [
            Scenario::new(vec![owner(&[Push(1), Push(2)]), vec![PopTop]]),
            Scenario::new(vec![
                owner(&[Push(1), Push(2), PopBottom]),
                vec![PopTop],
                vec![PopTop],
            ]),
        ];
        for (i, sc) in scenarios.iter().enumerate() {
            let rep = explore_on(sc, SimDeque::with_growth(true, 1, true));
            assert!(rep.histories > 0);
            assert!(
                rep.ok(),
                "scenario {i} violated: {:?}",
                rep.example.as_ref().map(|v| &v.reason)
            );
        }
    }

    /// INV-SB-REVAL necessity, exhaustively: the stale-`bot` chain
    /// (`revalidate = false`) double-takes against the owner's keep-path
    /// pops somewhere in the interleaving space — the checker must find
    /// it. Three pushes and two aggressive pops around a 2-task grab is
    /// the minimal shape: the thief's bound (bot = 3) goes stale while
    /// the owner keep-pops indices 2 and 1, and the chain's second cas
    /// re-takes index 1.
    #[test]
    fn batch_stale_bot_chain_is_caught() {
        use ProgOp::*;
        let sc = BatchScenario {
            owner: owner(&[Push(1), Push(2), Push(3), PopBottom, PopBottom]),
            thieves: vec![vec![ThiefOp::Batch(2)]],
        };
        let rep = explore_batches(&sc, SimDeque::new(), false);
        assert!(
            !rep.ok(),
            "stale-bot chain should violate the semantics somewhere in {} histories",
            rep.histories
        );
        let ex = rep.example.unwrap();
        assert!(
            ex.reason.contains("consumed twice") || ex.reason.contains("no linearization"),
            "unexpected reason: {}",
            ex.reason
        );
    }

    /// The shipped re-validated chain is clean over the same scenario —
    /// and over a mixed one where a second thief single-steals — on both
    /// the plain deque and the growable one (growth racing a mid-chain
    /// grab).
    #[test]
    fn batch_revalidated_chain_is_clean() {
        use ProgOp::*;
        let scenarios = [
            BatchScenario {
                owner: owner(&[Push(1), Push(2), Push(3), PopBottom, PopBottom]),
                thieves: vec![vec![ThiefOp::Batch(2)]],
            },
            BatchScenario {
                owner: owner(&[Push(1), Push(2), PopBottom]),
                thieves: vec![vec![ThiefOp::Batch(2)], vec![ThiefOp::PopTop]],
            },
        ];
        for (i, sc) in scenarios.iter().enumerate() {
            let rep = explore_batches(sc, SimDeque::new(), true);
            assert!(rep.histories > 0);
            assert!(
                rep.ok(),
                "scenario {i} violated: {:?}",
                rep.example.as_ref().map(|v| &v.reason)
            );
        }
        // Growth racing a mid-chain grab (cap = 1: the second push
        // replaces the buffer while the batch may hold a stale bound).
        let rep = explore_batches(&scenarios[0], SimDeque::with_growth(true, 1, true), true);
        assert!(
            rep.ok(),
            "growable violated: {:?}",
            rep.example.as_ref().map(|v| &v.reason)
        );
    }

    /// The broken growth variant — publish a fresh buffer without copying
    /// the live region — is caught by the checker: a thief whose slot
    /// read lands after the growth consumes a value that was never
    /// pushed (the zeroed slot).
    #[test]
    fn growth_without_copy_is_caught() {
        use crate::sim_deque::SimDeque;
        use ProgOp::*;
        let sc = Scenario::new(vec![owner(&[Push(1), Push(2)]), vec![PopTop]]);
        let rep = explore_on(&sc, SimDeque::with_growth(true, 1, false));
        assert!(
            !rep.ok(),
            "no-copy growth should violate conservation somewhere in {} histories",
            rep.histories
        );
        let ex = rep.example.unwrap();
        assert!(
            ex.reason.contains("never pushed") || ex.reason.contains("no linearization"),
            "unexpected reason: {}",
            ex.reason
        );
    }
}
