//! Integration tests for the `hood::sleep` eventcount subsystem: the
//! missed-wakeup regression, targeted wake-one accounting, the
//! `parks == unparks` shutdown invariant, and runtime selection of the
//! legacy condvar fallback.
//!
//! Every test pins its `SleepKind` explicitly through
//! [`PoolConfig::with_sleep`] and never relies on `SleepKind::default()`.

use hood::{IdleKind, PolicySet, PoolConfig, SleepKind, ThreadPool};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Untimed-park policy with a tiny threshold so workers reach the
/// parked state quickly instead of after 64 failed scans.
fn park_policies() -> PolicySet {
    PolicySet::paper().with_idle(IdleKind::ParkUntilWake { threshold: 4 })
}

fn pool_with(sleep: SleepKind, workers: usize) -> ThreadPool {
    ThreadPool::with_config(
        PoolConfig::default()
            .with_num_procs(workers)
            .with_policies(park_policies())
            .with_sleep(sleep),
    )
}

/// Spin until `cond` holds or the deadline passes; returns success.
fn wait_for(timeout: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + timeout;
    while Instant::now() < deadline {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    cond()
}

/// The regression the eventcount exists to close: a single submission
/// to a pool whose workers are ALL parked under an *untimed* policy
/// must still run. Under the old pool-wide lock a producer could check
/// the sleeper count before a worker finished falling asleep and skip
/// the notify; with no park timeout that job would hang forever.
#[test]
fn single_submit_to_fully_parked_pool_runs() {
    let pool = pool_with(SleepKind::Eventcount, 4);
    assert!(
        wait_for(Duration::from_secs(10), || pool.sleeping_workers() == 4),
        "workers never parked: {} of 4 asleep",
        pool.sleeping_workers()
    );

    let hits = Arc::new(AtomicU64::new(0));
    for round in 0..8u64 {
        let h = Arc::clone(&hits);
        pool.spawn(move || {
            h.fetch_add(1, Ordering::Relaxed);
        });
        assert!(
            wait_for(Duration::from_secs(10), || hits.load(Ordering::Relaxed)
                > round),
            "job {round} never ran against a parked pool (lost wakeup)"
        );
        // Let the woken worker drain back to a full-pool park so every
        // round re-tests the cold all-asleep path.
        assert!(wait_for(Duration::from_secs(10), || pool
            .sleeping_workers()
            == 4));
    }

    let report = pool.shutdown();
    assert_eq!(hits.load(Ordering::Relaxed), 8);
    // Untimed parks cannot time out by construction.
    assert_eq!(report.sleep.timed_out_parks, 0);
}

/// Satellite 2: one job wakes exactly one of the eight sleepers — not
/// the herd. `wakes_sent` is read before shutdown because shutdown
/// wakes every remaining sleeper (and counts those wakes too).
#[test]
fn one_job_wakes_exactly_one_of_eight() {
    let pool = pool_with(SleepKind::Eventcount, 8);
    assert!(
        wait_for(Duration::from_secs(10), || pool.sleeping_workers() == 8),
        "workers never parked: {} of 8 asleep",
        pool.sleeping_workers()
    );
    assert_eq!(pool.sleep_stats().wakes_sent, 0);

    let hits = Arc::new(AtomicU64::new(0));
    let h = Arc::clone(&hits);
    pool.spawn(move || {
        h.fetch_add(1, Ordering::Relaxed);
    });
    assert!(wait_for(Duration::from_secs(10), || {
        hits.load(Ordering::Relaxed) == 1
    }));

    let stats = pool.sleep_stats();
    assert_eq!(
        stats.wakes_sent, 1,
        "a single submission must wake exactly one worker, not the herd"
    );

    let report = pool.shutdown();
    // Shutdown wakes the remaining sleepers; the job's single wake plus
    // at most one per worker is the ceiling.
    assert!(report.sleep.wakes_sent >= 1);
    assert!(report.sleep.wakes_sent <= 1 + 8);
}

/// A batch of `k` jobs wakes `min(k, sleepers)` workers in one epoch
/// bump, never more.
#[test]
fn batch_wakes_at_most_batch_len() {
    let pool = pool_with(SleepKind::Eventcount, 8);
    assert!(wait_for(Duration::from_secs(10), || pool
        .sleeping_workers()
        == 8));

    let hits = Arc::new(AtomicU64::new(0));
    let jobs: Vec<_> = (0..3)
        .map(|_| {
            let h = Arc::clone(&hits);
            move || {
                h.fetch_add(1, Ordering::Relaxed);
            }
        })
        .collect();
    pool.spawn_batch(jobs);
    assert!(wait_for(Duration::from_secs(10), || {
        hits.load(Ordering::Relaxed) == 3
    }));

    // Exactly the batch's worth of wakes from the submission itself;
    // woken workers may push/wake nothing further for closure jobs this
    // small, but allow the re-wake slack of one per job.
    let sent = pool.sleep_stats().wakes_sent;
    assert!(
        (3..=6).contains(&sent),
        "3-job batch against 8 sleepers sent {sent} wakes"
    );
    pool.shutdown();
}

/// Satellite 3: the pool-level accounting invariants. Every committed
/// park is matched by an unpark, and (eventcount only) a worker can
/// credit at most one post-unpark work find per wake it was sent.
#[test]
fn park_accounting_balances_at_shutdown() {
    for kind in [SleepKind::Eventcount, SleepKind::CondvarFallback] {
        let pool = pool_with(kind, 4);
        let hits = Arc::new(AtomicU64::new(0));
        for _ in 0..64 {
            let h = Arc::clone(&hits);
            pool.spawn(move || {
                h.fetch_add(1, Ordering::Relaxed);
            });
            // A trickle, so workers park between submissions.
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(wait_for(Duration::from_secs(10), || {
            hits.load(Ordering::Relaxed) == 64
        }));
        let report = pool.shutdown();
        assert_eq!(hits.load(Ordering::Relaxed), 64);
        assert_eq!(
            report.stats.parks, report.stats.unparks,
            "{kind:?}: park/unpark accounting must balance at shutdown"
        );
        assert!(report.stats.parks_balance());
        if kind == SleepKind::Eventcount {
            assert!(
                report.sleep.wakes_sent >= report.sleep.hits_after_unpark,
                "{} wakes sent but {} post-unpark hits",
                report.sleep.wakes_sent,
                report.sleep.hits_after_unpark
            );
        }
    }
}

/// The legacy condvar backend stays runtime-selectable and correct:
/// jobs run, nothing hangs, and its bounded naps substitute for the
/// untimed park (so `timed_out_parks` may be nonzero — that is the
/// baseline behaviour ID1 measures against).
#[test]
fn condvar_fallback_still_serves_parked_pool() {
    let pool = pool_with(SleepKind::CondvarFallback, 4);
    assert_eq!(pool.sleep_kind(), SleepKind::CondvarFallback);

    // The fallback's sleepers oscillate (100 µs naps), so don't demand
    // a steady all-asleep state — just give workers time to go idle.
    std::thread::sleep(Duration::from_millis(20));

    let hits = Arc::new(AtomicU64::new(0));
    for _ in 0..16 {
        let h = Arc::clone(&hits);
        pool.spawn(move || {
            h.fetch_add(1, Ordering::Relaxed);
        });
    }
    assert!(wait_for(Duration::from_secs(10), || {
        hits.load(Ordering::Relaxed) == 16
    }));
    let report = pool.shutdown();
    assert_eq!(report.sleep_kind, SleepKind::CondvarFallback);
    assert!(report.stats.parks_balance());
}

/// The report's backend stamp matches what the config asked for, under
/// both runtime selections.
#[test]
fn report_stamps_selected_backend() {
    for kind in [SleepKind::Eventcount, SleepKind::CondvarFallback] {
        let pool = pool_with(kind, 2);
        assert_eq!(pool.sleep_kind(), kind);
        let report = pool.shutdown();
        assert_eq!(report.sleep_kind, kind);
    }
}
