//! `serve_trickle` and `serve_load`: an open-loop Poisson submitter
//! feeding requests through `ThreadPool::spawn`, the pool's front door.
//!
//! The arrival schedule and every request's shape are drawn from the
//! seed during set-up; the generator only waits for each due time and
//! submits. Latency runs from the request's due time to the end of its
//! job, so generator stalls count against it.

use crate::reference::Reference;
use crate::report::{median, quantile, ratio};
use crate::{nproc, pool, Bench, Metric, Outcome, Phase, PoolWindow, RunConfig, Scale, Workload};
use abp_dag::DetRng;
use hood::ThreadPool;
use std::hint::black_box;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Shape of a request stream.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Mean arrival rate of the Poisson process.
    pub rate_per_s: f64,
    /// Spin iterations of one leaf job.
    pub leaf_iters: u32,
    /// Leaves of a common request (a `hood::join` tree over them).
    pub small_leaves: u32,
    /// Leaves of a rare large request.
    pub large_leaves: u32,
    /// Chance that a request is large.
    pub large_chance: f64,
    /// The generator sleeps until this close to a due time, then spins,
    /// so timer slack stays out of the measured latency.
    pub spin_ns: u64,
}

/// About 1k requests/s of single ~10 µs leaves: nearly every request
/// finds every worker parked.
pub const TRICKLE: Shape = Shape {
    rate_per_s: 1000.0,
    leaf_iters: 2500,
    small_leaves: 1,
    large_leaves: 1,
    large_chance: 0.0,
    // The workers are mostly parked, so the generator busy-polls, like a
    // polling I/O thread: one processor never idles, and the measured
    // wake is the workers' alone.
    spin_ns: u64::MAX,
};

/// Join trees of ~20 µs leaves, mostly 8 leaves and one in ten 80, at a
/// rate that keeps two workers roughly half busy.
pub const LOAD: Shape = Shape {
    rate_per_s: 2500.0,
    leaf_iters: 5000,
    small_leaves: 8,
    large_leaves: 80,
    large_chance: 0.1,
    // Gaps are short and the workers busy: a generator spinning through
    // every gap would take a processor from them.
    spin_ns: 150_000,
};

/// Distinct leaf inputs; expected leaf results are tabled in set-up so
/// checking a request costs O(leaves), not a re-run of its work.
const LEAF_INPUTS: usize = 64;

/// Runs fail as invalid when the generator's median lag exceeds this
/// share of the mean inter-arrival time.
const MAX_LAG_SHARE: f64 = 0.25;

/// Reference runs after an open-loop phase.
const REFERENCE_RUNS: usize = 9;

/// How long after the last submission requests may still finish.
const DRAIN_DEADLINE: Duration = Duration::from_secs(5);

/// The leaf job: a serial xorshift-multiply chain of `iters` steps.
fn leaf(input: u64, iters: u32) -> u64 {
    let mut x = input.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    for _ in 0..iters {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x = x.wrapping_mul(0x2545_F491_4F6C_DD1D);
    }
    black_box(x)
}

/// Leaves `[lo, hi)` of a request whose first leaf input is `first`,
/// forked as a binary `hood::join` tree; the sum of the leaf results.
fn tree(lo: u32, hi: u32, first: u32, iters: u32) -> u64 {
    if hi - lo == 1 {
        return leaf(((first + lo) as usize % LEAF_INPUTS) as u64, iters);
    }
    let mid = lo + (hi - lo) / 2;
    let (a, b) = hood::join(
        || tree(lo, mid, first, iters),
        || tree(mid, hi, first, iters),
    );
    a.wrapping_add(b)
}

#[derive(Debug, Clone, Copy)]
struct Request {
    due_ns: u64,
    leaves: u32,
    first: u32,
}

/// What a request's job writes; read after the drain.
#[derive(Default)]
struct Slot {
    runs: AtomicU32,
    start_ns: AtomicU64,
    end_ns: AtomicU64,
    result: AtomicU64,
}

struct Shared {
    slots: Vec<Slot>,
    done: AtomicU64,
}

pub struct Serve {
    pool: ThreadPool,
    shape: Shape,
    schedule: Vec<Request>,
    /// Expected result of each leaf input.
    table: Vec<u64>,
    reference: Reference,
}

fn ns_since(base: Instant) -> u64 {
    base.elapsed().as_nanos() as u64
}

fn wait_until(base: Instant, due_ns: u64, spin_ns: u64) {
    loop {
        let now = ns_since(base);
        if now >= due_ns {
            return;
        }
        let left = due_ns - now;
        if left > spin_ns {
            std::thread::sleep(Duration::from_nanos(left - spin_ns));
        } else {
            std::hint::spin_loop();
        }
    }
}

impl Serve {
    /// A pool and a `seconds`-long arrival schedule of `shape`, warmed up.
    pub fn with_shape(shape: Shape, seed: u64, scale: Scale, seconds: f64, traced: bool) -> Serve {
        let mut rng = DetRng::new(seed ^ 0x5E7E);
        let mut schedule = Vec::new();
        let mut t = 0.0f64;
        loop {
            t += -(1.0 - rng.unit_f64()).ln() / shape.rate_per_s;
            if t >= seconds {
                break;
            }
            let leaves = if rng.chance(shape.large_chance) {
                shape.large_leaves
            } else {
                shape.small_leaves
            };
            schedule.push(Request {
                due_ns: (t * 1e9) as u64,
                leaves,
                first: rng.below(LEAF_INPUTS as u64) as u32,
            });
        }
        let table = (0..LEAF_INPUTS as u64)
            .map(|i| leaf(i, shape.leaf_iters))
            .collect();
        let pool = pool(seed, nproc(), traced);
        for r in schedule.iter().take(32) {
            black_box(pool.install(|| tree(0, r.leaves, r.first, shape.leaf_iters)));
        }
        Serve {
            pool,
            shape,
            schedule,
            table,
            reference: Reference::new(seed, scale, nproc()),
        }
    }

    fn expected(&self, r: &Request) -> u64 {
        (0..r.leaves).fold(0u64, |acc, j| {
            acc.wrapping_add(self.table[(r.first + j) as usize % LEAF_INPUTS])
        })
    }
}

impl Bench for Serve {
    fn setup(cfg: &RunConfig, traced: bool) -> Serve {
        let shape = match cfg.workload {
            Workload::ServeLoad => LOAD,
            _ => TRICKLE,
        };
        let shape = match cfg.scale {
            Scale::Full => shape,
            Scale::Tiny => Shape {
                leaf_iters: shape.leaf_iters / 10,
                ..shape
            },
        };
        Serve::with_shape(shape, cfg.seed, cfg.scale, cfg.seconds, traced)
    }

    fn measure(&mut self, seconds: f64, traced: bool, out: &mut Outcome) -> Phase {
        let n = self
            .schedule
            .iter()
            .take_while(|r| (r.due_ns as f64) < seconds * 1e9)
            .count();
        let shared = Arc::new(Shared {
            slots: (0..n).map(|_| Slot::default()).collect(),
            done: AtomicU64::new(0),
        });
        let mut call_ns = vec![0u64; n];
        let mut ret_ns = vec![0u64; if traced { n } else { 0 }];
        let mut all_parked = vec![false; if traced { n } else { 0 }];
        let mut backlog_max = 0usize;
        let procs = self.pool.num_procs();
        let iters = self.shape.leaf_iters;
        let window = PoolWindow::open(&self.pool);
        let tel0 = if traced {
            self.pool.telemetry_snapshot()
        } else {
            None
        };

        let base = Instant::now();
        for (i, r) in self.schedule[..n].iter().copied().enumerate() {
            wait_until(base, r.due_ns, self.shape.spin_ns);
            if traced {
                all_parked[i] = self.pool.sleeping_workers() == procs;
            }
            call_ns[i] = ns_since(base);
            let sh = Arc::clone(&shared);
            self.pool.spawn(move || {
                let slot = &sh.slots[i];
                slot.start_ns.store(ns_since(base), Ordering::Relaxed);
                let v = tree(0, r.leaves, r.first, iters);
                slot.result.store(v, Ordering::Relaxed);
                slot.end_ns.store(ns_since(base), Ordering::Relaxed);
                slot.runs.fetch_add(1, Ordering::Relaxed);
                // Release: publishes the slot writes to the drain's Acquire.
                sh.done.fetch_add(1, Ordering::Release);
            });
            if traced {
                ret_ns[i] = ns_since(base);
                backlog_max = backlog_max.max(self.pool.injector_backlog());
            }
        }
        let deadline = Instant::now() + DRAIN_DEADLINE;
        while shared.done.load(Ordering::Acquire) < n as u64 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_micros(200));
        }
        // A request unfinished by now counts as failed below; its job, if
        // still running, is left to shutdown's drain.

        let mut phase = Phase {
            ops: n as u64,
            checked: n as u64,
            ..Phase::default()
        };
        // An open loop leaves no gap beside each request for a reference
        // run; these follow the drain.
        for _ in 0..REFERENCE_RUNS {
            let reference = self.reference.run();
            phase.ref_us.push(reference.wall_us);
            phase.ref_cpu_us.push(reference.cpu_us);
        }
        let (mut lag, mut submit, mut queue, mut run, mut wake) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
        for (i, r) in self.schedule[..n].iter().enumerate() {
            let slot = &shared.slots[i];
            let runs = slot.runs.load(Ordering::Relaxed);
            if runs != 1 {
                out.fail(format!(
                    "request {i} ran {runs} times by the drain deadline"
                ));
                continue;
            }
            let got = slot.result.load(Ordering::Relaxed);
            if got != self.expected(r) {
                out.fail(format!("request {i} returned {got:#x}"));
                continue;
            }
            let (start, end) = (
                slot.start_ns.load(Ordering::Relaxed),
                slot.end_ns.load(Ordering::Relaxed),
            );
            phase.lat_us.push(end.saturating_sub(r.due_ns) as f64 / 1e3);
            lag.push(call_ns[i].saturating_sub(r.due_ns) as f64 / 1e3);
            if traced {
                submit.push(ret_ns[i].saturating_sub(call_ns[i]) as f64);
                let q = start.saturating_sub(ret_ns[i]) as f64 / 1e3;
                queue.push(q);
                if all_parked[i] {
                    wake.push(q);
                }
                run.push(end.saturating_sub(start) as f64 / 1e3);
            }
        }

        let mean_gap_us = 1e6 / self.shape.rate_per_s;
        let lag_p50 = median(&lag);
        if lag_p50 > MAX_LAG_SHARE * mean_gap_us {
            out.invalid.push(format!(
                "generator median lag {lag_p50:.1} us exceeds {MAX_LAG_SHARE} of the mean gap {mean_gap_us:.0} us"
            ));
        }
        phase.extra = vec![
            Metric::new("requests", n as f64, "count"),
            Metric::new("offered_rate", self.shape.rate_per_s, "1/s"),
            Metric::new("latency_p99_us", quantile(&phase.lat_us, 0.99), "us"),
            Metric::new("latency_p999_us", quantile(&phase.lat_us, 0.999), "us"),
            Metric::new("generator_lag_p50_us", lag_p50, "us"),
            Metric::new("generator_lag_p99_us", quantile(&lag, 0.99), "us"),
        ];
        if traced {
            let parts = [
                ("req.lag_us", median(&lag)),
                ("req.submit_us", median(&submit) / 1e3),
                ("req.queue_wait_us", median(&queue)),
                ("req.run_us", median(&run)),
            ];
            let sum: f64 = parts.iter().map(|p| p.1).sum();
            let p50 = median(&phase.lat_us);
            for (name, v) in parts {
                phase.layers.push(Metric::new(name, v, "us"));
            }
            let tel = self.pool.telemetry_snapshot();
            let (polls, hits) = match (&tel0, &tel) {
                (Some(a), Some(b)) => (
                    b.injector.polls - a.injector.polls,
                    b.injector.hits - a.injector.hits,
                ),
                _ => (0, 0),
            };
            phase.layers.extend([
                Metric::new("req.sum_of_medians_us", sum, "us"),
                Metric::new("req.p50_us", p50, "us"),
                Metric::new("req.unattributed_us", p50 - sum, "us"),
                Metric::new("inject.spawn_ns_p50", median(&submit), "ns"),
                Metric::new("inject.spawn_ns_p90", quantile(&submit, 0.9), "ns"),
                Metric::new("inject.queue_wait_us_p50", median(&queue), "us"),
                Metric::new("inject.queue_wait_us_p90", quantile(&queue, 0.9), "us"),
                Metric::new("inject.backlog_max", backlog_max as f64, "count"),
                Metric::new("inject.hit_ratio", ratio(hits, polls), "ratio"),
                Metric::new("sleep.wake_us", median(&wake), "us"),
            ]);
            phase
                .layers
                .extend(window.close(&self.pool, n as u64, true));
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
