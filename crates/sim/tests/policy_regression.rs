//! Policy-swap regression: the paper-default policy path must produce
//! metrics identical to the pre-policy-layer simulator on a fixed DAG
//! corpus, and swapping any policy axis must still complete the same
//! computations.
//!
//! The golden numbers below were captured from the simulator *before*
//! victim selection, backoff, and idle handling moved behind the
//! `abp-core` traits. Byte-identical randomness is the contract: the
//! default `UniformVictim` draws exactly one `below_usize(p - 1)` per
//! scan from the same forked per-process stream the inlined code used,
//! so every field — not just aggregates — must match.

use abp_dag::{gen, Dag};
use abp_kernel::{BenignKernel, CountSource, DedicatedKernel, Kernel, YieldPolicy};
use abp_sim::{run_ws, BackoffKind, IdleKind, PolicySet, RunReport, VictimKind, WsConfig};

struct Golden {
    name: &'static str,
    rounds: u64,
    proc_rounds: u64,
    instructions: u64,
    wall_steps: u64,
    executed: u64,
    steal_attempts: u64,
    successful_steals: u64,
    throws: u64,
    yields: u64,
}

type KernelFactory = Box<dyn FnMut() -> Box<dyn Kernel>>;

/// The fixed corpus: (dag, p, config, kernel factory) spanning both
/// kernels, all three yield policies, and varied DAG shapes.
fn corpus() -> Vec<(Dag, usize, WsConfig, KernelFactory)> {
    vec![
        (
            gen::fork_join_tree(8, 2),
            4,
            WsConfig::default().with_seed(11),
            Box::new(|| Box::new(DedicatedKernel::new(4)) as Box<dyn Kernel>),
        ),
        (
            gen::fib(14, 3),
            8,
            WsConfig::default().with_seed(7),
            Box::new(|| Box::new(DedicatedKernel::new(8)) as Box<dyn Kernel>),
        ),
        (
            gen::wide_shallow(64, 25),
            6,
            WsConfig::default().with_seed(3),
            Box::new(|| {
                Box::new(BenignKernel::new(6, CountSource::UniformBetween(2, 6), 99))
                    as Box<dyn Kernel>
            }),
        ),
        (
            gen::sync_pipeline(6, 80),
            4,
            WsConfig::default()
                .with_seed(23)
                .with_yield_policy(YieldPolicy::None),
            Box::new(|| {
                Box::new(BenignKernel::new(4, CountSource::Constant(2), 5)) as Box<dyn Kernel>
            }),
        ),
        (
            gen::random_series_parallel(41, 8000),
            8,
            WsConfig::default()
                .with_seed(13)
                .with_yield_policy(YieldPolicy::ToRandom),
            Box::new(|| Box::new(DedicatedKernel::new(8)) as Box<dyn Kernel>),
        ),
    ]
}

/// Captured from the pre-refactor simulator (same corpus, same seeds).
fn goldens() -> Vec<Golden> {
    [
        (
            "fork-join(8,2)/dedicated",
            (34, 136, 5518, 1550, 3575, 21, 5, 3, 23),
        ),
        (
            "fib(14,3)/dedicated",
            (14, 112, 4231, 647, 2002, 103, 23, 15, 108),
        ),
        (
            "wide(64,25)/benign",
            (21, 72, 2859, 929, 1915, 88, 19, 12, 90),
        ),
        (
            "pipeline(6,80)/benign-none",
            (34, 68, 2733, 1467, 490, 543, 25, 44, 0),
        ),
        (
            "series-par(41)/dedicated-torandom",
            (149, 1192, 47583, 6940, 8003, 7847, 26, 984, 7853),
        ),
    ]
    .into_iter()
    .map(|(name, g)| Golden {
        name,
        rounds: g.0,
        proc_rounds: g.1,
        instructions: g.2,
        wall_steps: g.3,
        executed: g.4,
        steal_attempts: g.5,
        successful_steals: g.6,
        throws: g.7,
        yields: g.8,
    })
    .collect()
}

fn check_identity(r: &RunReport, name: &str) {
    assert!(
        r.steal_accounting_balanced(),
        "{name}: attempts {} != steals {} + aborts {} + empties {}",
        r.steal_attempts,
        r.steals,
        r.aborts,
        r.empties
    );
}

#[test]
fn paper_default_matches_pre_refactor_goldens() {
    for ((dag, p, cfg, mut mk_kernel), g) in corpus().into_iter().zip(goldens()) {
        assert_eq!(cfg.policies, PolicySet::paper());
        let r = run_ws(&dag, p, mk_kernel().as_mut(), cfg);
        assert!(r.completed, "{}: did not complete", g.name);
        check_identity(&r, g.name);
        assert_eq!(r.rounds, g.rounds, "{}: rounds drifted", g.name);
        assert_eq!(r.proc_rounds, g.proc_rounds, "{}: proc_rounds", g.name);
        assert_eq!(r.instructions, g.instructions, "{}: instructions", g.name);
        assert_eq!(r.wall_steps, g.wall_steps, "{}: wall_steps", g.name);
        assert_eq!(r.executed, g.executed, "{}: executed", g.name);
        assert_eq!(r.steal_attempts, g.steal_attempts, "{}: attempts", g.name);
        assert_eq!(r.steals, g.successful_steals, "{}: steals", g.name);
        assert_eq!(r.throws, g.throws, "{}: throws", g.name);
        assert_eq!(r.yields, g.yields, "{}: yields", g.name);
    }
}

#[test]
fn swapped_policies_complete_the_same_corpus() {
    let swaps = [
        PolicySet::paper().with_victim(VictimKind::RoundRobin),
        PolicySet::paper().with_victim(VictimKind::LastVictim),
        PolicySet::paper().with_backoff(BackoffKind::None),
        PolicySet::paper().with_backoff(BackoffKind::ExpJitter { base: 2, cap: 64 }),
        PolicySet::paper().with_backoff(BackoffKind::SpinThenYield {
            spin: 4,
            threshold: 2,
        }),
        PolicySet::paper().with_idle(IdleKind::ParkAfter {
            threshold: 8,
            park_len: 32,
        }),
    ];
    for set in swaps {
        for (dag, p, cfg, mut mk_kernel) in corpus() {
            let r = run_ws(&dag, p, mk_kernel().as_mut(), cfg.with_policies(set));
            assert!(r.completed, "{}: did not complete", set.label());
            assert_eq!(r.executed, dag.work(), "{}: lost nodes", set.label());
            check_identity(&r, &set.label());
            assert_eq!(
                r.structural_violations,
                0,
                "{}: structural lemma broke",
                set.label()
            );
        }
    }
}

#[test]
fn non_default_victim_changes_the_execution() {
    // Sanity that the policy axis is actually live: round-robin victims
    // must diverge from uniform somewhere on the corpus.
    let mut any_diff = false;
    for (dag, p, cfg, mut mk_kernel) in corpus() {
        let base = run_ws(&dag, p, mk_kernel().as_mut(), cfg.clone());
        let rr = run_ws(
            &dag,
            p,
            mk_kernel().as_mut(),
            cfg.with_policies(PolicySet::paper().with_victim(VictimKind::RoundRobin)),
        );
        if base.instructions != rr.instructions || base.steal_attempts != rr.steal_attempts {
            any_diff = true;
        }
    }
    assert!(any_diff, "round-robin behaved identically to uniform");
}

#[test]
fn same_seed_same_policy_identical_victim_sequence() {
    // Determinism at the finest grain: not just aggregate counters but
    // the full (round, thief, victim, outcome) sequence must repeat.
    let dag = gen::fib(13, 3);
    for set in [
        PolicySet::paper(),
        PolicySet::paper().with_victim(VictimKind::RoundRobin),
        PolicySet::paper().with_victim(VictimKind::LastVictim),
        PolicySet::paper().with_backoff(BackoffKind::ExpJitter { base: 2, cap: 32 }),
    ] {
        let run = || {
            let mut k = BenignKernel::new(6, CountSource::UniformBetween(2, 6), 17);
            run_ws(
                &dag,
                6,
                &mut k,
                WsConfig::default()
                    .with_seed(0xD15C)
                    .with_trace(true)
                    .with_policies(set),
            )
        };
        let (a, b) = (run(), run());
        let (ta, tb) = (a.trace.as_ref().unwrap(), b.trace.as_ref().unwrap());
        assert_eq!(
            ta.steals.len(),
            tb.steals.len(),
            "{}: attempt counts differ",
            set.label()
        );
        for (x, y) in ta.steals.iter().zip(&tb.steals) {
            assert_eq!(
                (x.round, x.thief, x.victim, x.outcome),
                (y.round, y.thief, y.victim, y.outcome),
                "{}: steal sequence diverged",
                set.label()
            );
        }
    }
}

#[test]
fn policy_identity_is_stamped_on_reports() {
    let dag = gen::fork_join_tree(5, 2);
    let mut k = DedicatedKernel::new(4);
    let r = run_ws(&dag, 4, &mut k, WsConfig::default());
    assert_eq!(r.policy, "uniform+yield+spin/to-all");
    let mut k = DedicatedKernel::new(4);
    let r = run_ws(
        &dag,
        4,
        &mut k,
        WsConfig::default()
            .with_yield_policy(YieldPolicy::ToRandom)
            .with_policies(PolicySet::paper().with_victim(VictimKind::LastVictim)),
    );
    assert_eq!(r.policy, "last-victim+yield+spin/to-random");
}
