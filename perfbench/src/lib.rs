//! The repository benchmark: four workloads driven through the public
//! APIs of `hood`, `abp-deque`, `abp-sim`, `abp-kernel` and `abp-dag`.
//!
//! An untraced run measures the end-to-end metrics; a traced run
//! measures the same workload with the pool's telemetry on and the
//! benchmark's own spans around each call into a layer, then runs the
//! layer probes, and reports per-layer metrics. See `README.md` for the
//! workloads and the layer → end-to-end metric map.

mod alloc;
mod forkjoin;
mod os;
mod probes;
mod reference;
mod report;
mod serve;
mod sim;

use hood::{PoolConfig, PoolStats, SleepStats, ThreadPool};
use os::{Sched, SchedDelta};
use reference::Reference;
use report::{median, quantile, ratio};
pub use report::{Metric, Outcome};
use std::time::Instant;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ForkJoin,
    ServeTrickle,
    ServeLoad,
    MultiprogSim,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ForkJoin,
        Workload::ServeTrickle,
        Workload::ServeLoad,
        Workload::MultiprogSim,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ForkJoin => "forkjoin",
            Workload::ServeTrickle => "serve_trickle",
            Workload::ServeLoad => "serve_load",
            Workload::MultiprogSim => "multiprog_sim",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes: `Full` for measurement, `Tiny` for the benchmark's own
/// tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Tiny,
}

#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    pub workload: Workload,
    pub seed: u64,
    /// Measured time of the run.
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
}

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 9;

/// Share of a traced run's time given to each of its untraced and traced
/// phases; the layer probes take the rest.
const TRACE_PHASE_SHARE: f64 = 0.35;

/// Worker count of every workload's pool: the host's processors.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn pool(seed: u64, procs: usize, traced: bool) -> ThreadPool {
    let config = PoolConfig::default().with_num_procs(procs).with_seed(seed);
    ThreadPool::with_config(if traced {
        config.with_telemetry(hood::TelemetryConfig::default())
    } else {
        config
    })
}

/// What one measured phase of a workload produced.
#[derive(Debug, Default)]
struct Phase {
    /// Operations timed: rounds, requests or matrix passes.
    ops: u64,
    /// Operations whose outputs were checked: rounds, requests or
    /// simulator runs.
    checked: u64,
    /// Per-operation latency.
    lat_us: Vec<f64>,
    /// Reference runs (see `reference`): one right after each operation
    /// of a closed loop, paired with `lat_us`; a few after an open-loop
    /// phase otherwise. Wall time of a run, and CPU time of one copy.
    ref_us: Vec<f64>,
    ref_cpu_us: Vec<f64>,
    wall_s: f64,
    sched: SchedDelta,
    /// Per-layer metrics (traced phases only).
    layers: Vec<Metric>,
    /// Report-only numbers.
    extra: Vec<Metric>,
}

/// A workload: built by `setup`, measured once, then shut down.
trait Bench: Sized {
    fn setup(cfg: &RunConfig, traced: bool) -> Self;
    fn measure(&mut self, seconds: f64, traced: bool, out: &mut Outcome) -> Phase;
    fn pool(self) -> ThreadPool;
    fn reference(&self) -> &Reference;
}

/// Pool-counter deltas over a phase, as steal-round, `par` and sleep
/// layer metrics.
struct PoolWindow {
    stats: PoolStats,
    sleep: SleepStats,
}

impl PoolWindow {
    fn open(pool: &ThreadPool) -> PoolWindow {
        PoolWindow {
            stats: pool.stats(),
            sleep: pool.sleep_stats(),
        }
    }

    /// The steal-round and `par` metrics, plus the sleep metrics when
    /// `serving` (the phase fed the pool through its front door).
    fn close(self, pool: &ThreadPool, ops: u64, serving: bool) -> Vec<Metric> {
        let (a, b) = (self.stats, pool.stats());
        let (sa, sb) = (self.sleep, pool.sleep_stats());
        let jobs = b.jobs - a.jobs;
        let attempts = b.steal_attempts - a.steal_attempts;
        let mut m = vec![
            Metric::new("steal.attempts_per_job", ratio(attempts, jobs), "count"),
            Metric::new(
                "steal.success_ratio",
                ratio(b.steals - a.steals, attempts),
                "ratio",
            ),
            Metric::new(
                "steal.abort_ratio",
                ratio(b.aborts - a.aborts, attempts),
                "ratio",
            ),
            Metric::new(
                "steal.empty_ratio",
                ratio(b.empties - a.empties, attempts),
                "ratio",
            ),
            Metric::new(
                "steal.yields_per_job",
                ratio(b.yields - a.yields, jobs),
                "count",
            ),
            Metric::new(
                "par.splits",
                ratio(b.par_splits - a.par_splits, ops),
                "count",
            ),
            Metric::new("par.seq", ratio(b.par_seq - a.par_seq, ops), "count"),
        ];
        if !serving {
            return m;
        }
        m.extend([
            Metric::new(
                "sleep.parks_per_request",
                ratio(b.parks - a.parks, ops),
                "count",
            ),
            Metric::new(
                "sleep.spurious_ratio",
                ratio(
                    sb.wakes_spurious - sa.wakes_spurious,
                    sb.wakes_sent - sa.wakes_sent,
                ),
                "ratio",
            ),
            Metric::new(
                "sleep.timed_out_parks",
                (sb.timed_out_parks - sa.timed_out_parks) as f64,
                "count",
            ),
        ]);
        m
    }
}

/// Shuts `pool` down and counts any broken accounting identity.
fn shutdown_checked(pool: ThreadPool, out: &mut Outcome) {
    let report = pool.shutdown();
    if !report.stats.attempts_balance() {
        out.fail(format!(
            "pool steal attempts unbalanced: {:?}",
            report.stats
        ));
    }
    if !report.stats.parks_balance() {
        out.fail(format!("pool parks unbalanced: {:?}", report.stats));
    }
}

/// Times `SETUPS` set-ups and keeps the last; returns it with the median
/// set-up time.
fn setup_median<B: Bench>(cfg: &RunConfig, traced: bool, out: &mut Outcome) -> (B, f64) {
    let mut times = Vec::with_capacity(SETUPS);
    let mut kept: Option<B> = None;
    for _ in 0..SETUPS {
        if let Some(old) = kept.take() {
            shutdown_checked(old.pool(), out);
        }
        let t = Instant::now();
        kept = Some(B::setup(cfg, traced));
        times.push(t.elapsed().as_secs_f64());
    }
    (kept.expect("SETUPS > 0"), median(&times))
}

/// Measures one phase with the OS-kernel window around it.
fn measured<B: Bench>(b: &mut B, seconds: f64, traced: bool, out: &mut Outcome) -> Phase {
    let mut own = b.reference().helper_tids();
    own.push(os::current_tid());
    let s0 = Sched::now();
    let t0 = Instant::now();
    let mut phase = b.measure(seconds, traced, out);
    phase.wall_s = t0.elapsed().as_secs_f64();
    phase.sched = Sched::now().since(&s0, &own);
    phase
}

/// The run's operations are split, in order, into this many segments;
/// a latency percentile is the median of the segments' percentiles, so a
/// burst of host noise in one segment does not move it.
const SEGMENTS: usize = 10;

/// The median over [`SEGMENTS`] consecutive segments of `xs` of each
/// segment's `q`-quantile (the plain quantile for short samples).
fn segmented_quantile(xs: &[f64], q: f64) -> f64 {
    if xs.len() < SEGMENTS * 20 {
        return quantile(xs, q);
    }
    let per: Vec<f64> = xs
        .chunks(xs.len().div_ceil(SEGMENTS))
        .map(|seg| quantile(seg, q))
        .collect();
    median(&per)
}

/// Each operation's latency in units of the reference run beside it;
/// an open-loop phase, whose operations have no run beside them, divides
/// by the median of its reference runs.
fn relative_latency(ph: &Phase) -> Vec<f64> {
    if ph.ref_us.len() == ph.lat_us.len() {
        ph.lat_us
            .iter()
            .zip(&ph.ref_us)
            .map(|(l, r)| l / r)
            .collect()
    } else {
        let r = median(&ph.ref_us);
        ph.lat_us.iter().map(|l| l / r).collect()
    }
}

/// The result line's metrics, then the same numbers in absolute units
/// for the report lines.
fn end_to_end(setup_s: f64, ph: &Phase) -> (Vec<Metric>, Vec<Metric>) {
    let rel = relative_latency(ph);
    let ref_cpu_us = median(&ph.ref_cpu_us);
    let cpu_us = ph.sched.runtime_cpu_ns as f64 / 1e3 / ph.ops.max(1) as f64;
    let gated = vec![
        Metric::new("setup_s", setup_s, "s"),
        Metric::new("latency_p50_rel", segmented_quantile(&rel, 0.5), "ratio"),
        Metric::new("latency_p90_rel", segmented_quantile(&rel, 0.9), "ratio"),
        Metric::new("cpu_per_op_rel", cpu_us / ref_cpu_us, "ratio"),
    ];
    let absolute = vec![
        Metric::new("latency_p50_us", segmented_quantile(&ph.lat_us, 0.5), "us"),
        Metric::new("latency_p90_us", segmented_quantile(&ph.lat_us, 0.9), "us"),
        Metric::new("cpu_us_per_op", cpu_us, "us"),
        Metric::new("reference_us_p50", median(&ph.ref_us), "us"),
        Metric::new("reference_cpu_us_p50", ref_cpu_us, "us"),
    ];
    (gated, absolute)
}

fn run_bench<B: Bench>(cfg: &RunConfig, out: &mut Outcome) {
    let (mut b, setup_s) = setup_median::<B>(cfg, false, out);
    if !cfg.trace {
        let ph = measured(&mut b, cfg.seconds, false, out);
        shutdown_checked(b.pool(), out);
        out.attempted += ph.checked;
        let (gated, absolute) = end_to_end(setup_s, &ph);
        out.metrics = gated;
        out.extra.extend(absolute);
        out.extra.extend(ph.extra);
        return;
    }
    let phase_s = cfg.seconds * TRACE_PHASE_SHARE;
    let untraced = measured(&mut b, phase_s, false, out);
    shutdown_checked(b.pool(), out);
    let mut t = B::setup(cfg, true);
    let traced = measured(&mut t, phase_s, true, out);
    shutdown_checked(t.pool(), out);
    out.attempted += untraced.checked + traced.checked;

    let overhead = median(&relative_latency(&traced)) / median(&relative_latency(&untraced));
    let mut layers = traced.layers;
    layers.push(Metric::new(
        "os.pa",
        untraced.sched.cpu_ns as f64 / 1e9 / untraced.wall_s,
        "procs",
    ));
    layers.push(Metric::new(
        "os.run_delay_ms",
        untraced.sched.run_delay_ns as f64 / 1e6,
        "ms",
    ));
    layers.push(Metric::new("telemetry.overhead_ratio", overhead, "ratio"));
    probes::fill(cfg, &mut layers, out);
    layers.sort_by(|a, b| a.name.cmp(&b.name));
    out.metrics = layers;
    let (gated, absolute) = end_to_end(setup_s, &untraced);
    out.extra = gated;
    out.extra.extend(absolute);
    out.extra.extend(untraced.extra);
}

/// Runs one invocation of the benchmark.
pub fn run(cfg: &RunConfig) -> Outcome {
    let mut out = Outcome {
        workload: cfg.workload.name(),
        seed: cfg.seed,
        trace: cfg.trace,
        ..Outcome::default()
    };
    match cfg.workload {
        Workload::ForkJoin => run_bench::<forkjoin::ForkJoin>(cfg, &mut out),
        Workload::ServeTrickle | Workload::ServeLoad => run_bench::<serve::Serve>(cfg, &mut out),
        Workload::MultiprogSim => run_bench::<sim::Sim>(cfg, &mut out),
    }
    out.extra
        .push(Metric::new("host.nproc", nproc() as f64, "procs"));
    for m in &out.metrics {
        if !m.value.is_finite() {
            out.invalid
                .push(format!("{} is not a finite number", m.name));
        }
    }
    out
}
