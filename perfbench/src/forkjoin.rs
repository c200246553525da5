//! `forkjoin`: a closed loop of rounds, each `install(fib(N))` through
//! `hood::join` with no serial cutoff, then `par_sort_unstable` of M
//! seeded `u64`s.

use crate::reference::Reference;
use crate::report::{median, quantile};
use crate::{nproc, pool, Bench, Metric, Outcome, Phase, PoolWindow, RunConfig, Scale};
use abp_dag::DetRng;
use hood::ThreadPool;
use std::time::Instant;

/// Distinct sort inputs, cycled through by the rounds.
const INPUTS: usize = 4;

/// `fib` forked through `hood::join` at every level.
pub fn fib(n: u32) -> u64 {
    if n < 2 {
        return n as u64;
    }
    let (a, b) = hood::join(|| fib(n - 1), || fib(n - 2));
    a + b
}

/// `fib` as plain recursion: the serial baseline of a join.
pub fn fib_serial(n: u32) -> u64 {
    if n < 2 {
        return n as u64;
    }
    fib_serial(n - 1) + fib_serial(n - 2)
}

/// `(fib(n), joins made by fib(n), calls made by fib(n))`, computed
/// iteratively.
pub fn fib_counts(n: u32) -> (u64, u64, u64) {
    // (value, joins, calls) for k-1 and k.
    let (mut prev, mut cur) = ((0u64, 0u64, 1u64), (1u64, 0u64, 1u64));
    if n == 0 {
        return prev;
    }
    for _ in 1..n {
        let next = (cur.0 + prev.0, 1 + cur.1 + prev.1, 1 + cur.2 + prev.2);
        prev = cur;
        cur = next;
    }
    cur
}

pub struct ForkJoin {
    pool: ThreadPool,
    fib_n: u32,
    inputs: Vec<Vec<u64>>,
    sorted: Vec<Vec<u64>>,
    reference: Reference,
}

impl Bench for ForkJoin {
    fn setup(cfg: &RunConfig, traced: bool) -> ForkJoin {
        let (fib_n, len) = match cfg.scale {
            Scale::Full => (28, 200_000),
            Scale::Tiny => (14, 4096),
        };
        let mut rng = DetRng::new(cfg.seed ^ 0xF0F0);
        let inputs: Vec<Vec<u64>> = (0..INPUTS)
            .map(|_| (0..len).map(|_| rng.next_u64()).collect())
            .collect();
        let sorted = inputs
            .iter()
            .map(|v| {
                let mut s = v.clone();
                s.sort_unstable();
                s
            })
            .collect();
        let pool = pool(cfg.seed, nproc(), traced);
        let b = ForkJoin {
            pool,
            fib_n,
            inputs,
            sorted,
            reference: Reference::new(cfg.seed, cfg.scale, nproc()),
        };
        for k in 0..2 {
            b.round(k);
        }
        b
    }

    fn measure(&mut self, seconds: f64, traced: bool, out: &mut Outcome) -> Phase {
        let (fib_expect, joins, _) = fib_counts(self.fib_n);
        let window = PoolWindow::open(&self.pool);
        let mut phase = Phase::default();
        let (mut fib_s, mut sort_s, mut elems) = (Vec::new(), Vec::new(), 0usize);
        let t0 = Instant::now();
        let mut k = 0;
        while k == 0 || t0.elapsed().as_secs_f64() < seconds {
            let (f, v, tf, ts) = self.round(k);
            let reference = self.reference.run();
            if f != fib_expect {
                out.fail(format!("round {k}: fib({}) = {f}", self.fib_n));
            } else if v != self.sorted[k % INPUTS] {
                out.fail(format!(
                    "round {k}: par_sort_unstable output differs from the reference sort"
                ));
            } else {
                phase.lat_us.push((tf + ts) * 1e6);
                phase.ref_us.push(reference.wall_us);
                phase.ref_cpu_us.push(reference.cpu_us);
            }
            fib_s.push(tf);
            sort_s.push(ts);
            elems += v.len();
            k += 1;
        }
        phase.ops = k as u64;
        phase.checked = k as u64;
        let (fib_total, sort_total): (f64, f64) = (fib_s.iter().sum(), sort_s.iter().sum());
        phase.extra = vec![
            Metric::new("rounds", k as f64, "count"),
            Metric::new(
                "fib_joins_per_s",
                (joins * k as u64) as f64 / fib_total,
                "1/s",
            ),
            Metric::new(
                "sort_melems_per_s",
                elems as f64 / sort_total / 1e6,
                "Melem/s",
            ),
            Metric::new("fib_ms_p50", median(&fib_s) * 1e3, "ms"),
            Metric::new("sort_ms_p50", median(&sort_s) * 1e3, "ms"),
            Metric::new("latency_p99_us", quantile(&phase.lat_us, 0.99), "us"),
        ];
        if traced {
            phase.layers = window.close(&self.pool, k as u64, false);
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

impl ForkJoin {
    /// One round: `(fib result, sorted copy of input k, fib s, sort s)`.
    /// The input copy is made before the clock starts.
    fn round(&self, k: usize) -> (u64, Vec<u64>, f64, f64) {
        let mut v = self.inputs[k % INPUTS].clone();
        let n = self.fib_n;
        let t0 = Instant::now();
        let f = self.pool.install(|| fib(n));
        let t1 = Instant::now();
        self.pool.install(|| hood::par_sort_unstable(&mut v));
        let t2 = Instant::now();
        (f, v, (t1 - t0).as_secs_f64(), (t2 - t1).as_secs_f64())
    }
}
