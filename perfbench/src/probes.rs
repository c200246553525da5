//! Layer probes of the traced run: direct calls into one layer at a
//! time, timed by the benchmark's own spans. Each fills only the metrics
//! the workload's traced phase did not already measure, so every traced
//! run reports every per-layer metric.

use crate::forkjoin::{fib, fib_counts, fib_serial};
use crate::report::median;
use crate::serve::{Serve, TRICKLE};
use crate::{alloc, pool, shutdown_checked, sim, Bench, Metric, Outcome, RunConfig, Scale};
use hood::par::prelude::*;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Repetitions of each timed probe; each reports the median.
const REPS: usize = 5;

struct Sizes {
    deque_ops: usize,
    fib_n: u32,
    spawns: usize,
    reduce_len: usize,
    front_door_s: f64,
}

fn sizes(scale: Scale) -> Sizes {
    match scale {
        Scale::Full => Sizes {
            deque_ops: 1 << 16,
            fib_n: 22,
            spawns: 20_000,
            reduce_len: 1 << 20,
            front_door_s: 1.0,
        },
        Scale::Tiny => Sizes {
            deque_ops: 1 << 10,
            fib_n: 12,
            spawns: 200,
            reduce_len: 1 << 12,
            front_door_s: 0.05,
        },
    }
}

/// Median over `REPS` of `f`'s returned seconds.
fn med(mut f: impl FnMut() -> f64) -> f64 {
    let v: Vec<f64> = (0..REPS).map(|_| f()).collect();
    median(&v)
}

/// `abp-deque`: owner push/pop pairs, single steals and batched steals
/// on one `abp_deque::new` deque, from one thread (no contention).
fn deque(n: usize) -> Vec<Metric> {
    let (w, s) = abp_deque::new::<usize>(n);
    let push_pop = med(|| {
        let t = Instant::now();
        for i in 0..n {
            w.push_bottom(i).expect("capacity n");
            black_box(w.pop_bottom());
        }
        t.elapsed().as_secs_f64()
    });
    let steal = med(|| {
        for i in 0..n {
            w.push_bottom(i).expect("capacity n");
        }
        let t = Instant::now();
        for _ in 0..n {
            black_box(s.pop_top());
        }
        let secs = t.elapsed().as_secs_f64();
        // Thieves only advance `top`; the owner's pop on the empty deque
        // resets both indices so the next round can refill it.
        assert!(w.pop_bottom().is_none(), "steals drained the deque");
        secs
    });
    let mut batch_tasks = 0usize;
    let batch = med(|| {
        for i in 0..n {
            w.push_bottom(i).expect("capacity n");
        }
        let t = Instant::now();
        let mut got = 0;
        loop {
            let b = s.pop_top_batch(32);
            if b.is_empty() && w.len_hint() == 0 {
                break;
            }
            got += black_box(b).len();
        }
        let secs = t.elapsed().as_secs_f64();
        assert!(w.pop_bottom().is_none(), "batched steals drained the deque");
        batch_tasks = got;
        secs
    });
    vec![
        Metric::new("deque.push_pop_ns", push_pop * 1e9 / n as f64, "ns"),
        Metric::new("deque.steal_ns", steal * 1e9 / n as f64, "ns"),
        Metric::new(
            "deque.steal_batch_ns_per_task",
            batch * 1e9 / batch_tasks.max(1) as f64,
            "ns",
        ),
    ]
}

/// `hood::join`: `fib` on a one-worker pool against plain recursion, and
/// the exact allocations of the joined run.
fn join(seed: u64, n: u32, out: &mut Outcome) -> Vec<Metric> {
    let (expect, joins, calls) = fib_counts(n);
    let p1 = pool(seed, 1, false);
    let joined = med(|| {
        let t = Instant::now();
        let f = p1.install(|| fib(n));
        let secs = t.elapsed().as_secs_f64();
        if f != expect {
            out.fail(format!("join probe: fib({n}) = {f}"));
        }
        secs
    });
    let (f, allocs) = alloc::count(|| p1.install(|| fib(n)));
    if f != expect {
        out.fail(format!("join probe: fib({n}) = {f}"));
    }
    shutdown_checked(p1, out);
    let serial = med(|| {
        let t = Instant::now();
        black_box(fib_serial(black_box(n)));
        t.elapsed().as_secs_f64()
    });
    let per_join = joined * 1e9 / joins as f64;
    let per_call = serial * 1e9 / calls as f64;
    vec![
        Metric::new("join.ns_per_join", per_join, "ns"),
        Metric::new("join.serial_ns_per_call", per_call, "ns"),
        Metric::new("join.overhead_ratio", per_join / per_call, "ratio"),
        Metric::new("alloc.per_join", allocs as f64 / joins as f64, "count"),
    ]
}

/// `hood::injector`: exact allocations per `spawn`, counted over the
/// submissions and their execution.
fn spawn_allocs(seed: u64, n: usize, out: &mut Outcome) -> Vec<Metric> {
    let p = pool(seed, crate::nproc(), false);
    let ran = Arc::new(AtomicU64::new(0));
    let (_, allocs) = alloc::count(|| {
        for _ in 0..n {
            let ran = Arc::clone(&ran);
            p.spawn(move || {
                ran.fetch_add(1, Ordering::Relaxed);
            });
        }
        while ran.load(Ordering::Relaxed) < n as u64 {
            std::thread::yield_now();
        }
    });
    shutdown_checked(p, out);
    vec![Metric::new(
        "alloc.per_spawn",
        allocs as f64 / n as f64,
        "count",
    )]
}

/// `hood::par`: a `par_iter().map().sum()` reduction, per element.
fn reduce(seed: u64, len: usize, out: &mut Outcome) -> Vec<Metric> {
    let p = pool(seed, crate::nproc(), false);
    let v: Vec<u64> = (0..len as u64).collect();
    let expect: u64 = v.iter().map(|x| x ^ 1).sum();
    let secs = med(|| {
        let t = Instant::now();
        let got: u64 = p.install(|| v.par_iter().map(|x| x ^ 1).sum());
        let secs = t.elapsed().as_secs_f64();
        if got != expect {
            out.fail(format!("par probe: sum {got} != {expect}"));
        }
        secs
    });
    shutdown_checked(p, out);
    vec![Metric::new(
        "par.reduce_ns_per_elem",
        secs * 1e9 / len as f64,
        "ns",
    )]
}

/// A short traced trickle through the front door: the injector, sleep
/// and request-breakdown metrics for workloads that do not `spawn`.
fn front_door(cfg: &RunConfig, seconds: f64, out: &mut Outcome) -> Vec<Metric> {
    let mut s = Serve::with_shape(TRICKLE, cfg.seed, cfg.scale, seconds, true);
    let ph = s.measure(seconds, true, out);
    out.attempted += ph.checked;
    shutdown_checked(s.pool(), out);
    ph.layers
}

/// Adds every per-layer metric `layers` lacks.
pub fn fill(cfg: &RunConfig, layers: &mut Vec<Metric>, out: &mut Outcome) {
    let z = sizes(cfg.scale);
    let has =
        |layers: &Vec<Metric>, prefix: &str| layers.iter().any(|m| m.name.starts_with(prefix));
    let mut found = deque(z.deque_ops);
    found.extend(join(cfg.seed, z.fib_n, out));
    found.extend(spawn_allocs(cfg.seed, z.spawns, out));
    found.extend(reduce(cfg.seed, z.reduce_len, out));
    if !has(layers, "req.") {
        found.extend(front_door(cfg, z.front_door_s, out));
    }
    if !has(layers, "sim.") {
        found.extend(sim::probe(cfg.seed, out));
    }
    for m in found {
        if !layers.iter().any(|l| l.name == m.name) {
            layers.push(m);
        }
    }
}
