//! Per-worker and aggregate scheduler statistics: `abp_core`'s one
//! counter table under the runtime's names. [`WorkerStats`] is the padded
//! atomic mirror each worker writes; [`PoolStats`] is a snapshot or an
//! aggregate, carrying the identities and ratios. See [`abp_core::tally`]
//! for the counters and the accounting rules the pool asserts at
//! shutdown.

pub use abp_core::{AtomicCounters as WorkerStats, Counters as PoolStats};

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Regression for the extended identity on the live pool: external
    /// submissions flow through counted injector polls, so `injects`
    /// moves and `steal_attempts == steals + aborts + empties + injects`
    /// still holds per worker and in aggregate.
    #[test]
    fn live_pool_attempts_balance_with_injects() {
        let pool = crate::pool::ThreadPool::new(3);
        let done = std::sync::Arc::new(AtomicU64::new(0));
        for _ in 0..64 {
            let done = std::sync::Arc::clone(&done);
            pool.spawn(move || {
                done.fetch_add(1, Ordering::Relaxed);
            });
        }
        while done.load(Ordering::Relaxed) < 64 {
            std::thread::yield_now();
        }
        let report = pool.shutdown();
        assert!(
            report.stats.injects > 0,
            "external submissions must be taken via counted injector polls: {:?}",
            report.stats
        );
        assert!(
            report.stats.attempts_balance(),
            "attempts {} != steals {} + aborts {} + empties {} + injects {}",
            report.stats.steal_attempts,
            report.stats.steals,
            report.stats.aborts,
            report.stats.empties,
            report.stats.injects
        );
        for (i, w) in report.per_worker.iter().enumerate() {
            assert!(w.attempts_balance(), "worker {i} unbalanced: {w:?}");
        }
    }

    /// The live pool maintains the identity: every completed `popTop` is
    /// classified as exactly one of hit / abort / empty.
    #[test]
    fn live_pool_attempts_balance() {
        let pool = crate::pool::ThreadPool::new(4);
        let n = pool.install(|| {
            fn fib(n: u64) -> u64 {
                if n < 2 {
                    return n;
                }
                let (a, b) = crate::join(|| fib(n - 1), || fib(n - 2));
                a + b
            }
            fib(16)
        });
        assert_eq!(n, 987);
        let report = pool.shutdown();
        assert!(
            report.stats.attempts_balance(),
            "attempts {} != steals {} + aborts {} + empties {}",
            report.stats.steal_attempts,
            report.stats.steals,
            report.stats.aborts,
            report.stats.empties
        );
        for (i, w) in report.per_worker.iter().enumerate() {
            assert!(w.attempts_balance(), "worker {i} unbalanced: {w:?}");
        }
    }
}
