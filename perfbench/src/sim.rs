//! `multiprog_sim`: the paper's multiprogrammed setting, simulated. A
//! fixed matrix of `abp-dag` computations runs under `run_ws` at P = 8
//! against benign, oblivious-rotating and adaptive-starver kernels with
//! the paper's yield policies. Each pass of the matrix is one
//! `hood::map_collect` over its cells inside `install` — a parameter
//! sweep on the real pool — and passes repeat until time is up.

use crate::reference::Reference;
use crate::report::{median, quantile};
use crate::{nproc, pool, Bench, Metric, Outcome, Phase, PoolWindow, RunConfig, Scale};
use abp_dag::{gen, Dag, DetRng};
use abp_kernel::{
    AdaptiveWorkerStarver, BenignKernel, CountSource, Kernel, ObliviousKernel, YieldPolicy,
};
use abp_sim::{run_ws, RunReport, WsConfig};
use hood::ThreadPool;
use std::time::Instant;

/// Simulated process count.
pub const SIM_P: usize = 8;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelKind {
    Benign,
    Oblivious,
    Adaptive,
}

impl KernelKind {
    const ALL: [KernelKind; 3] = [
        KernelKind::Benign,
        KernelKind::Oblivious,
        KernelKind::Adaptive,
    ];

    fn name(self) -> &'static str {
        match self {
            KernelKind::Benign => "benign",
            KernelKind::Oblivious => "oblivious",
            KernelKind::Adaptive => "adaptive",
        }
    }

    /// The kernel with the yield policy the paper pairs it with.
    fn build(self, seed: u64) -> (Box<dyn Kernel>, YieldPolicy) {
        match self {
            KernelKind::Benign => (
                Box::new(BenignKernel::new(
                    SIM_P,
                    CountSource::UniformBetween(1, SIM_P),
                    seed,
                )),
                YieldPolicy::None,
            ),
            KernelKind::Oblivious => (
                // One full rotation of 3-process blocks; the table cycles.
                Box::new(ObliviousKernel::rotating(SIM_P, 3, 20, 20 * SIM_P as u64)),
                YieldPolicy::ToRandom,
            ),
            KernelKind::Adaptive => (
                Box::new(AdaptiveWorkerStarver::new(
                    SIM_P,
                    CountSource::Constant(SIM_P / 2),
                    seed,
                )),
                YieldPolicy::ToAll,
            ),
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Cell {
    dag: usize,
    kernel: KernelKind,
    seed: u64,
}

/// The numbers of one run that must repeat exactly on every pass.
fn fingerprint(r: &RunReport) -> (u64, u64, u64, u64) {
    (r.rounds, r.instructions, r.steal_attempts, r.throws)
}

pub struct Sim {
    pool: ThreadPool,
    dags: Vec<Dag>,
    cells: Vec<Cell>,
    /// Each cell's fingerprint from the warm-up pass.
    first: Vec<(u64, u64, u64, u64)>,
    build_s: f64,
    reference: Reference,
}

/// The fixed dag matrix: fib, a wavefront, and six random
/// series-parallel computations drawn from fixed seeds. One random
/// computation may come out as nearly a serial chain; fixing the draws
/// keeps a pass's work the same for every `--seed`, which drives the
/// kernels and the scheduler instead.
fn build_dags(scale: Scale) -> Vec<Dag> {
    let (fib, side, sp_count, sp_work) = match scale {
        Scale::Full => (20, 120, 6, 4000),
        Scale::Tiny => (12, 16, 2, 500),
    };
    let mut rng = DetRng::new(0xDA6);
    let mut dags = vec![gen::fib(fib, 4), gen::wavefront(side, side)];
    dags.extend((0..sp_count).map(|_| gen::random_series_parallel(rng.next_u64(), sp_work)));
    dags
}

fn run_cell(dags: &[Dag], c: &Cell) -> (RunReport, f64) {
    let (mut kernel, yield_policy) = c.kernel.build(c.seed);
    let cfg = WsConfig {
        yield_policy,
        seed: c.seed,
        ..WsConfig::default()
    };
    let t = Instant::now();
    let r = run_ws(&dags[c.dag], SIM_P, kernel.as_mut(), cfg);
    (r, t.elapsed().as_secs_f64())
}

impl Sim {
    pub fn build(seed: u64, scale: Scale, traced: bool) -> Sim {
        let t = Instant::now();
        let dags = build_dags(scale);
        let build_s = t.elapsed().as_secs_f64();
        let mut rng = DetRng::new(seed ^ 0x5_1A);
        let cells: Vec<Cell> = (0..dags.len())
            .flat_map(|dag| KernelKind::ALL.map(|kernel| (dag, kernel)))
            .map(|(dag, kernel)| Cell {
                dag,
                kernel,
                seed: rng.next_u64(),
            })
            .collect();
        let pool = pool(seed, nproc(), traced);
        let mut sim = Sim {
            pool,
            dags,
            cells,
            first: Vec::new(),
            build_s,
            reference: Reference::new(seed, scale, nproc()),
        };
        sim.first = sim.pass().iter().map(|(r, _)| fingerprint(r)).collect();
        sim
    }

    fn pass(&self) -> Vec<(RunReport, f64)> {
        let (dags, cells) = (&self.dags, &self.cells);
        self.pool
            .install(|| hood::map_collect(cells, 1, &|c: &Cell| run_cell(dags, c)))
    }
}

impl Bench for Sim {
    fn setup(cfg: &RunConfig, traced: bool) -> Sim {
        Sim::build(cfg.seed, cfg.scale, traced)
    }

    fn measure(&mut self, seconds: f64, traced: bool, out: &mut Outcome) -> Phase {
        let window = PoolWindow::open(&self.pool);
        let mut phase = Phase::default();
        let mut passes = 0u64;
        let (mut instructions, mut run_s) = (0u64, 0f64);
        let mut per_kernel: Vec<Vec<f64>> = vec![Vec::new(); KernelKind::ALL.len()];
        let mut one_pass: Vec<RunReport> = Vec::new();
        let t0 = Instant::now();
        while passes == 0 || t0.elapsed().as_secs_f64() < seconds {
            let t = Instant::now();
            let results = self.pass();
            phase.lat_us.push(t.elapsed().as_secs_f64() * 1e6);
            let reference = self.reference.run();
            phase.ref_us.push(reference.wall_us);
            phase.ref_cpu_us.push(reference.cpu_us);
            for (i, (r, secs)) in results.iter().enumerate() {
                let c = &self.cells[i];
                phase.checked += 1;
                let ok = r.completed
                    && r.steal_accounting_balanced()
                    && r.executed == r.work
                    && fingerprint(r) == self.first[i];
                if !ok {
                    out.fail(format!(
                        "sim cell {i} ({} on dag {}): completed {} balanced {} executed {}/{} fingerprint {:?} vs {:?}",
                        c.kernel.name(),
                        c.dag,
                        r.completed,
                        r.steal_accounting_balanced(),
                        r.executed,
                        r.work,
                        fingerprint(r),
                        self.first[i]
                    ));
                    continue;
                }
                instructions += r.instructions;
                run_s += secs;
                per_kernel[c.kernel as usize].push(*secs);
            }
            if passes == 0 {
                one_pass = results.into_iter().map(|(r, _)| r).collect();
            }
            passes += 1;
        }
        phase.ops = passes;
        let sim_rounds: u64 = one_pass.iter().map(|r| r.rounds).sum();
        let bound_max = one_pass
            .iter()
            .map(RunReport::bound_ratio)
            .fold(0.0, f64::max);
        phase.extra = vec![
            Metric::new("passes", passes as f64, "count"),
            Metric::new(
                "cells",
                (passes as usize * self.cells.len()) as f64,
                "count",
            ),
            Metric::new(
                "sim_minstr_per_s",
                instructions as f64 / run_s / 1e6,
                "Minstr/s",
            ),
            Metric::new("sim_rounds", sim_rounds as f64, "count"),
            Metric::new("sim_bound_ratio_max", bound_max, "ratio"),
            Metric::new("latency_p99_us", quantile(&phase.lat_us, 0.99), "us"),
        ];
        if traced {
            phase.layers = window.close(&self.pool, phase.ops, false);
            phase
                .layers
                .extend(sim_layers(&one_pass, &per_kernel, self.build_s));
            phase.layers.extend([
                Metric::new("sim.rounds", sim_rounds as f64, "count"),
                Metric::new("sim.bound_ratio_max", bound_max, "ratio"),
            ]);
        }
        phase
    }

    fn pool(self) -> ThreadPool {
        self.pool
    }

    fn reference(&self) -> &Reference {
        &self.reference
    }
}

/// The simulator and kernel layer metrics of one pass, besides its
/// rounds and bound ratio.
fn sim_layers(pass: &[RunReport], per_kernel: &[Vec<f64>], build_s: f64) -> Vec<Metric> {
    let sum = |f: fn(&RunReport) -> u64| pass.iter().map(f).sum::<u64>() as f64;
    let mut m: Vec<Metric> = KernelKind::ALL
        .iter()
        .map(|k| {
            Metric::new(
                format!("sim.run_s.{}", k.name()),
                median(&per_kernel[*k as usize]),
                "s",
            )
        })
        .collect();
    let pa: Vec<f64> = pass.iter().map(|r| r.pa).collect();
    m.extend([
        Metric::new("sim.steal_attempts", sum(|r| r.steal_attempts), "count"),
        Metric::new("sim.throws", sum(|r| r.throws), "count"),
        Metric::new("sim.yields", sum(|r| r.yields), "count"),
        Metric::new(
            "sim.pa",
            pa.iter().sum::<f64>() / pa.len().max(1) as f64,
            "procs",
        ),
        Metric::new("dag.build_s", build_s, "s"),
    ]);
    m
}

/// A one-pass traced run of a small matrix: the simulator layer metrics
/// for workloads that do not run the simulator themselves.
pub fn probe(seed: u64, out: &mut Outcome) -> Vec<Metric> {
    let mut sim = Sim::build(seed, Scale::Tiny, false);
    let ph = sim.measure(0.0, true, out);
    out.attempted += ph.checked;
    crate::shutdown_checked(sim.pool, out);
    ph.layers
        .into_iter()
        .filter(|m| m.name.starts_with("sim.") || m.name.starts_with("dag."))
        .collect()
}
