//! Golden run fingerprints: exact `RunReport` counts for a fixed set of
//! cells spanning every simulator path the benchmark and the theory
//! checks exercise — the three kernel/yield pairings of the
//! multiprogrammed matrix, the untagged and locking deque backends, a
//! four-pool batched topology, a traced run and the cache model.
//!
//! The numbers were captured from the simulator before its inner loop
//! was made allocation- and division-free. Any change to the rng draw
//! order, the instruction interleaving or the yield substitution shows up
//! here as a drifted count, so performance work on `WorkStealer::run` and
//! `YieldLedger` must pass this file without regenerating it.

use abp_dag::{gen, Dag};
use abp_kernel::{
    AdaptiveWorkerStarver, BenignKernel, CountSource, Kernel, ObliviousKernel, YieldPolicy,
};
use abp_sim::{
    run_ws, BatchKind, CacheConfig, DequeBackend, PolicySet, RoundActivity, RunReport, WsConfig,
};

const P: usize = 8;

#[derive(Debug, Clone, Copy)]
enum Adversary {
    Benign,
    Oblivious,
    Adaptive,
}

impl Adversary {
    /// The kernel with the yield policy the paper pairs it with (the
    /// benchmark's `multiprog_sim` matrix uses the same three).
    fn build(self, seed: u64) -> (Box<dyn Kernel>, YieldPolicy) {
        match self {
            Adversary::Benign => (
                Box::new(BenignKernel::new(
                    P,
                    CountSource::UniformBetween(1, P),
                    seed,
                )),
                YieldPolicy::None,
            ),
            Adversary::Oblivious => (
                Box::new(ObliviousKernel::rotating(P, 3, 20, 20 * P as u64)),
                YieldPolicy::ToRandom,
            ),
            Adversary::Adaptive => (
                Box::new(AdaptiveWorkerStarver::new(
                    P,
                    CountSource::Constant(P / 2),
                    seed,
                )),
                YieldPolicy::ToAll,
            ),
        }
    }
}

/// The counts pinned per cell, in the order `rounds, proc_rounds,
/// instructions, wall_steps, steal_attempts, successful_steals, throws,
/// yields, remote_steals, batch_steals`, plus (traced cells only) the
/// steal-record count and a checksum of the per-round trace rows.
#[derive(Debug, PartialEq, Eq)]
struct Fingerprint {
    counts: [u64; 10],
    trace: Option<(u64, u64)>,
}

/// FNV-1a over every round row (activity per process) and every sampled
/// deque depth, in order.
fn trace_checksum(r: &RunReport) -> Option<(u64, u64)> {
    let t = r.trace.as_ref()?;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |x: u64| {
        for b in x.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for row in &t.rounds {
        for a in row {
            mix(match a {
                RoundActivity::Unscheduled => 0,
                RoundActivity::Working => 1,
                RoundActivity::Thieving => 2,
                RoundActivity::Stealing => 3,
                RoundActivity::Stalled => 4,
            });
        }
    }
    for row in &t.deque_depths {
        for &d in row {
            mix(d as u64);
        }
    }
    Some((t.steals.len() as u64, h))
}

fn fingerprint(r: &RunReport) -> Fingerprint {
    Fingerprint {
        counts: [
            r.rounds,
            r.proc_rounds,
            r.instructions,
            r.wall_steps,
            r.steal_attempts,
            r.successful_steals,
            r.throws,
            r.yields,
            r.remote_steals,
            r.batch_steals,
        ],
        trace: trace_checksum(r),
    }
}

struct Cell {
    name: &'static str,
    dag: fn() -> Dag,
    adversary: Adversary,
    seed: u64,
    config: fn(WsConfig) -> WsConfig,
    golden: Fingerprint,
}

fn sp_dag() -> Dag {
    gen::random_series_parallel(41, 3000)
}

fn fib_dag() -> Dag {
    gen::fib(15, 4)
}

fn deep_fib_dag() -> Dag {
    gen::fib(17, 2)
}

fn cells() -> Vec<Cell> {
    let same = |c: WsConfig| c;
    vec![
        Cell {
            name: "benign-none/sp",
            dag: sp_dag,
            adversary: Adversary::Benign,
            seed: 1,
            config: same,
            golden: Fingerprint {
                counts: [100, 468, 18343, 4446, 5011, 19, 380, 0, 0, 0],
                trace: None,
            },
        },
        Cell {
            name: "oblivious-torandom/sp",
            dag: sp_dag,
            adversary: Adversary::Oblivious,
            seed: 2,
            config: same,
            golden: Fingerprint {
                counts: [89, 266, 10435, 3876, 1426, 16, 182, 1430, 0, 0],
                trace: None,
            },
        },
        Cell {
            name: "adaptive-toall/sp",
            dag: sp_dag,
            adversary: Adversary::Adaptive,
            seed: 3,
            config: same,
            golden: Fingerprint {
                counts: [86, 283, 11323, 3835, 1605, 15, 199, 1610, 0, 0],
                trace: None,
            },
        },
        Cell {
            name: "adaptive-toall/fib/locking",
            dag: fib_dag,
            adversary: Adversary::Adaptive,
            seed: 4,
            config: |c| c.with_backend(DequeBackend::Locking),
            golden: Fingerprint {
                counts: [33, 126, 5051, 1507, 65, 15, 14, 71, 0, 0],
                trace: None,
            },
        },
        Cell {
            name: "oblivious-torandom/fib/untagged",
            dag: fib_dag,
            adversary: Adversary::Oblivious,
            seed: 5,
            config: |c| c.with_backend(DequeBackend::AbpUntagged),
            golden: Fingerprint {
                counts: [39, 115, 4671, 1753, 144, 27, 15, 149, 0, 0],
                trace: None,
            },
        },
        Cell {
            name: "benign-toall/deep-fib/pools4-batch-half",
            dag: deep_fib_dag,
            adversary: Adversary::Benign,
            seed: 6,
            config: |c| {
                c.with_yield_policy(YieldPolicy::ToAll)
                    .with_pools(4)
                    .with_cross_steal(0.5)
                    .with_policies(PolicySet::paper().with_batch(BatchKind::Half { cap: 8 }))
            },
            golden: Fingerprint {
                counts: [140, 608, 24085, 6221, 141, 67, 11, 122, 51, 15],
                trace: None,
            },
        },
        Cell {
            name: "adaptive-toall/fib/trace",
            dag: fib_dag,
            adversary: Adversary::Adaptive,
            seed: 7,
            config: |c| c.with_trace(true),
            golden: Fingerprint {
                counts: [31, 112, 4461, 1379, 104, 18, 11, 109, 0, 0],
                trace: Some((104, 9689545235499681217)),
            },
        },
        Cell {
            name: "oblivious-torandom/sp/cache",
            dag: sp_dag,
            adversary: Adversary::Oblivious,
            seed: 8,
            config: |c| c.with_cache(CacheConfig::default()),
            golden: Fingerprint {
                counts: [103, 308, 12208, 4529, 1782, 13, 226, 1785, 0, 0],
                trace: None,
            },
        },
    ]
}

fn run_cell(c: &Cell) -> RunReport {
    let dag = (c.dag)();
    let (mut kernel, yield_policy) = c.adversary.build(c.seed);
    let cfg = (c.config)(
        WsConfig::default()
            .with_yield_policy(yield_policy)
            .with_seed(c.seed),
    );
    let r = run_ws(&dag, P, kernel.as_mut(), cfg);
    assert!(r.completed, "{}: did not complete", c.name);
    assert_eq!(r.executed, dag.work(), "{}: lost nodes", c.name);
    assert!(r.steal_accounting_balanced(), "{}: identity broken", c.name);
    r
}

#[test]
fn run_fingerprints_match_goldens() {
    for c in cells() {
        assert_eq!(
            fingerprint(&run_cell(&c)),
            c.golden,
            "{}: run fingerprint drifted",
            c.name
        );
    }
}
