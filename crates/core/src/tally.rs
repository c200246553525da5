//! The one counter table shared by the `hood` runtime and the simulator.
//!
//! Every scheduler counter is declared once, in the `counters!` table
//! below. The table generates the plain [`Counters`] (snapshots,
//! aggregates, the simulator's tallies) and its padded atomic mirror
//! [`AtomicCounters`] (one per runtime worker). The recording entry
//! points, the identities, the ratios and the structural-zero check are
//! written once, on [`Counters`]; the atomic mirror is written only
//! through [`AtomicCounters::tally`], which runs those same entry points
//! on a zeroed delta.
//!
//! Every completed `popTop` against a victim, and every counted poll of
//! the external-submission injector, records exactly one attempt under
//! exactly one outcome, so the five-way identity
//!
//! ```text
//! steal_attempts == steals + aborts + empties + injects + duplicates
//! ```
//!
//! holds by construction ([`Counters::attempts_balance`]). An injector
//! poll lands in `injects` on a grab and in `empties` on a miss.
//! `duplicates` counts lost multiplicity once-guard races, which only the
//! fence-free backend produces.
//!
//! Three splits ride outside the identity:
//!
//! * **locality** — `remote_attempts` and `remote_steals` sub-count
//!   attempts and steals whose victim lives in another pool
//!   ([`Counters::locality_consistent`]);
//! * **batching** — a grab of `n ≥ 2` tasks records `n` attempts and `n`
//!   steals, plus one `batch_steals` and `n` `batched_tasks`
//!   ([`Counters::batch_consistent`]);
//! * **sleep** — every park ends in exactly one unpark
//!   ([`Counters::parks_balance`], at quiescent points only).
//!
//! [`Counters::check`] asserts all of these plus the structural zeros a
//! configuration implies ([`Structure`]): no aborts on a backend that
//! cannot abort, no duplicates on an exact backend, no remote attempts
//! on a flat (K = 1) topology, and no batches under `BatchKind::Single`.

use std::sync::atomic::{AtomicU64, Ordering};

/// Outcome of one completed steal attempt (`popTop` against a victim).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StealResult {
    /// The attempt returned a job/node.
    Hit,
    /// The attempt lost a `cas` race (§3.2's ABORT).
    Abort,
    /// The victim's deque was empty.
    Empty,
    /// The attempt raced an extraction of the same item and lost its
    /// once-guard (fence-free multiplicity backend only).
    Duplicate,
}

impl StealResult {
    /// True for [`StealResult::Hit`].
    pub fn is_hit(self) -> bool {
        self == StealResult::Hit
    }
}

macro_rules! counters {
    ($( $(#[$doc:meta])* $name:ident, )*) => {
        /// Every scheduler counter, as plain numbers: a runtime snapshot
        /// or aggregate, or a simulator tally. `hood` re-exports it as
        /// `PoolStats`.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct Counters {
            $( $(#[$doc])* pub $name: u64, )*
        }

        /// The same counters as relaxed atomics: one set per runtime
        /// worker, padded to a 128-byte line so workers never false-share
        /// their hot counters. `hood` re-exports it as `WorkerStats`.
        #[derive(Debug, Default)]
        #[repr(align(128))]
        pub struct AtomicCounters {
            $( $(#[$doc])* pub $name: AtomicU64, )*
        }

        impl Counters {
            /// Adds `other` into this one, counter by counter.
            pub fn merge(&mut self, other: &Counters) {
                $( self.$name += other.$name; )*
            }
        }

        impl AtomicCounters {
            /// A point-in-time copy of the counters. Each load is
            /// relaxed, so a copy taken while the worker runs may see one
            /// counter of an attempt before the other.
            pub fn snapshot(&self) -> Counters {
                Counters {
                    $( $name: self.$name.load(Ordering::Relaxed), )*
                }
            }

            /// Runs `f` on a zeroed [`Counters`] and adds every counter it
            /// moved. Passing one of the [`Counters`] entry points
            /// (`|c| c.record(result, remote)`) makes the atomic mirror
            /// count exactly as the plain struct does; once inlined, the
            /// counters `f` cannot move cost nothing.
            #[inline]
            pub fn tally(&self, f: impl FnOnce(&mut Counters)) {
                let mut delta = Counters::default();
                f(&mut delta);
                $(
                    if delta.$name != 0 {
                        self.$name.fetch_add(delta.$name, Ordering::Relaxed);
                    }
                )*
            }
        }
    };
}

counters! {
    /// Jobs executed (assigned-node executions, in the paper's terms).
    jobs,
    /// Completed steal attempts: `popTop`s against victims plus counted
    /// injector polls.
    steal_attempts,
    /// Attempts that returned a job from a victim's deque.
    steals,
    /// Attempts that lost a `cas` race (§3.2's ABORT).
    aborts,
    /// Attempts that found the victim's deque empty, plus injector polls
    /// that found the injector empty (or contended).
    empties,
    /// Injector polls that grabbed an externally submitted job.
    injects,
    /// Attempts that reached a task another thief had already extracted
    /// (a multiplicity-relaxed backend's lost once-guard).
    duplicates,
    /// Steals whose victim lives in another pool than the thief
    /// (sub-count of `steals` and of `remote_attempts`).
    remote_steals,
    /// Attempts, of any outcome, whose victim lives in another pool — the
    /// scan policy's own property (sub-count of `steal_attempts`).
    remote_attempts,
    /// Multi-task grabs: steal episodes that claimed `n ≥ 2` tasks under
    /// one synchronization round trip.
    batch_steals,
    /// Tasks moved by those grabs, the first kept task included
    /// (sub-count of `steals`; at least `2 * batch_steals`).
    batched_tasks,
    /// `yield` calls between steal scans (§4.4).
    yields,
    /// Times a worker parked for lack of work.
    parks,
    /// Times a worker returned from a park (wake or timeout).
    unparks,
    /// Forks taken by the data-parallel adaptive splitter.
    par_splits,
    /// Splittable ranges (`len ≥ 2`) the splitter ran sequentially.
    par_seq,
}

/// What a configuration rules out: each field forces one counter to be
/// exactly zero, not merely balanced. See [`Counters::check`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Structure {
    /// The deque backend can lose a `cas` race (`aborts` may move).
    pub can_abort: bool,
    /// The backend extracts every task exactly once (`duplicates` stays 0).
    pub exact: bool,
    /// Pool count `K` of the topology (`remote_attempts` stays 0 at 1).
    pub pools: usize,
    /// The batch policy may move several tasks per steal (the batch
    /// counters stay 0 under `BatchKind::Single`).
    pub batched: bool,
}

impl Counters {
    /// Records one completed steal attempt against a victim under exactly
    /// one outcome. `remote` says the victim lives outside the thief's
    /// pool; only a hit adds to `remote_steals`.
    #[inline]
    pub fn record(&mut self, result: StealResult, remote: bool) {
        self.steal_attempts += 1;
        match result {
            StealResult::Hit => self.steals += 1,
            StealResult::Abort => self.aborts += 1,
            StealResult::Empty => self.empties += 1,
            StealResult::Duplicate => self.duplicates += 1,
        }
        if remote {
            self.remote_attempts += 1;
            if result.is_hit() {
                self.remote_steals += 1;
            }
        }
    }

    /// Records `n` jobs taken from the external-submission injector, each
    /// one attempt whose outcome is an inject. A poll that finds nothing
    /// is `record(StealResult::Empty, false)`.
    #[inline]
    pub fn record_inject(&mut self, n: u64) {
        self.steal_attempts += n;
        self.injects += n;
    }

    /// Records one grab that claimed `n ≥ 2` tasks in one synchronization
    /// episode. Its `n` hits are recorded one by one through
    /// [`Counters::record`]; this only adds the batch axis.
    #[inline]
    pub fn record_batch(&mut self, n: u64) {
        debug_assert!(n >= 2, "a batch is a multi-task grab");
        self.batch_steals += 1;
        self.batched_tasks += n;
    }

    /// The five-way identity: every attempt has exactly one outcome.
    pub fn attempts_balance(&self) -> bool {
        self.steal_attempts
            == self.steals + self.aborts + self.empties + self.injects + self.duplicates
    }

    /// [`Counters::attempts_balance`] under the name the simulator's
    /// `RunReport` callers use.
    pub fn steal_accounting_balanced(&self) -> bool {
        self.attempts_balance()
    }

    /// The locality split: each remote counter is a sub-count of its
    /// total, and a remote hit is a remote attempt.
    pub fn locality_consistent(&self) -> bool {
        self.remote_steals <= self.steals
            && self.remote_steals <= self.remote_attempts
            && self.remote_attempts <= self.steal_attempts
    }

    /// The batch split: every batched task is a counted steal, and every
    /// batch moved at least two tasks.
    pub fn batch_consistent(&self) -> bool {
        self.batched_tasks <= self.steals && self.batched_tasks >= 2 * self.batch_steals
    }

    /// Every park returned. Holds at quiescent points; a live snapshot
    /// may read `parks == unparks + 1` per sleeping worker.
    pub fn parks_balance(&self) -> bool {
        self.parks == self.unparks
    }

    /// Checks every identity above and every structural zero `s` implies.
    /// Call it at a quiescent point; the error names the first broken
    /// rule.
    pub fn check(&self, s: Structure) -> Result<(), &'static str> {
        let rules = [
            (
                self.attempts_balance(),
                "steal_attempts != steals + aborts + empties + injects + duplicates",
            ),
            (
                self.locality_consistent(),
                "a remote counter exceeds its total",
            ),
            (
                self.batch_consistent(),
                "batch counters disagree with steals",
            ),
            (self.parks_balance(), "parks != unparks"),
            (
                s.can_abort || self.aborts == 0,
                "aborts on a backend that cannot abort",
            ),
            (
                !s.exact || self.duplicates == 0,
                "duplicates on an exact backend",
            ),
            (
                s.pools > 1 || self.remote_attempts == 0,
                "remote attempts on a flat (K = 1) topology",
            ),
            (
                s.batched || self.batch_steals + self.batched_tasks == 0,
                "batches under single-steal",
            ),
        ];
        match rules.into_iter().find(|&(holds, _)| !holds) {
            Some((_, broken)) => Err(broken),
            None => Ok(()),
        }
    }

    /// [`Counters::check`] as an assertion kept in release builds: it
    /// runs once per pool shutdown or simulator run.
    pub fn assert_checked(&self, s: Structure) {
        if let Err(broken) = self.check(s) {
            panic!("accounting broken: {broken}: {self:?} under {s:?}");
        }
    }

    /// Fraction of completed attempts that succeeded.
    pub fn steal_success_rate(&self) -> f64 {
        ratio(self.steals, self.steal_attempts)
    }

    /// Steals whose victim shared the thief's pool.
    pub fn local_steals(&self) -> u64 {
        self.steals - self.remote_steals
    }

    /// Fraction of steals that crossed a pool boundary.
    pub fn remote_steal_fraction(&self) -> f64 {
        ratio(self.remote_steals, self.steals)
    }

    /// Fraction of attempts that targeted another pool.
    pub fn remote_attempt_fraction(&self) -> f64 {
        ratio(self.remote_attempts, self.steal_attempts)
    }

    /// Cross-pool synchronization round trips per migrated task — the
    /// overhead batching amortizes, and the SB1 gate metric. A batched
    /// grab is one trip however many tasks it moves, so the free riders
    /// (`batched_tasks - batch_steals`) are subtracted from the attempt
    /// count. `f64::INFINITY` when trips were paid but nothing migrated;
    /// 0.0 when no remote attempt happened.
    pub fn remote_trips_per_migrated_task(&self) -> f64 {
        if self.remote_attempts == 0 {
            return 0.0;
        }
        if self.remote_steals == 0 {
            return f64::INFINITY;
        }
        let trips = self
            .remote_attempts
            .saturating_sub(self.batched_tasks - self.batch_steals);
        trips as f64 / self.remote_steals as f64
    }
}

impl std::iter::Sum for Counters {
    fn sum<I: Iterator<Item = Counters>>(iter: I) -> Counters {
        iter.fold(Counters::default(), |mut sum, c| {
            sum.merge(&c);
            sum
        })
    }
}

/// `num / den`, or 0.0 when `den` is 0.
fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The configuration with no structural zero at all.
    const ANY: Structure = Structure {
        can_abort: true,
        exact: false,
        pools: 4,
        batched: true,
    };

    /// The configuration with every structural zero in force.
    const STRICT: Structure = Structure {
        can_abort: false,
        exact: true,
        pools: 1,
        batched: false,
    };

    #[test]
    fn identity_holds_under_any_mix() {
        let mut t = Counters::default();
        for (r, remote) in [
            (StealResult::Hit, false),
            (StealResult::Abort, true),
            (StealResult::Empty, false),
            (StealResult::Duplicate, true),
            (StealResult::Hit, true),
        ] {
            t.record(r, remote);
            assert!(t.attempts_balance());
            assert!(t.locality_consistent());
        }
        t.record_inject(2);
        assert!(t.attempts_balance());
        assert_eq!(
            (
                t.steal_attempts,
                t.steals,
                t.aborts,
                t.empties,
                t.duplicates,
                t.injects
            ),
            (7, 2, 1, 1, 1, 2)
        );
        // Misses carry no locality: three remote attempts, one remote hit.
        assert_eq!(
            (t.remote_attempts, t.remote_steals, t.local_steals()),
            (3, 1, 1)
        );
        assert_eq!(t.check(ANY), Ok(()));
    }

    #[test]
    fn merge_and_sum_carry_every_counter() {
        let mut a = Counters::default();
        a.record(StealResult::Hit, true);
        a.record(StealResult::Hit, true);
        a.record_batch(2);
        a.parks = 3;
        a.unparks = 3;
        let mut b = Counters::default();
        b.record(StealResult::Empty, false);
        b.record_inject(1);
        b.jobs = 5;
        let sum: Counters = [a, b].into_iter().sum();
        let mut merged = a;
        merged.merge(&b);
        assert_eq!(sum, merged);
        assert_eq!(sum.steal_attempts, 4);
        assert_eq!((sum.batch_steals, sum.batched_tasks), (1, 2));
        assert_eq!((sum.jobs, sum.parks), (5, 3));
        assert_eq!(sum.check(ANY), Ok(()));
    }

    #[test]
    fn atomic_mirror_counts_as_the_plain_struct() {
        let worker = AtomicCounters::default();
        let mut plain = Counters::default();
        let steps: [&dyn Fn(&mut Counters); 5] = [
            &|c| c.record(StealResult::Hit, true),
            &|c| c.record(StealResult::Abort, false),
            &|c| c.record_inject(3),
            &|c| c.record_batch(2),
            &|c| c.jobs += 1,
        ];
        for step in steps {
            worker.tally(step);
            step(&mut plain);
        }
        assert_eq!(worker.snapshot(), plain);
    }

    /// Adjacent workers' counters must never share a cache line, and the
    /// table must fit one line.
    #[test]
    fn atomic_counters_are_one_padded_line() {
        assert_eq!(std::mem::align_of::<AtomicCounters>(), 128);
        assert_eq!(std::mem::size_of::<AtomicCounters>(), 128);
    }

    #[test]
    fn ratios_are_zero_on_empty_counters() {
        let z = Counters::default();
        assert_eq!(z.steal_success_rate(), 0.0);
        assert_eq!(z.remote_steal_fraction(), 0.0);
        assert_eq!(z.remote_attempt_fraction(), 0.0);
        assert_eq!(z.remote_trips_per_migrated_task(), 0.0);
        let c = Counters {
            steal_attempts: 10,
            steals: 4,
            remote_steals: 3,
            remote_attempts: 6,
            empties: 6,
            ..Counters::default()
        };
        assert!((c.steal_success_rate() - 0.4).abs() < 1e-12);
        assert!((c.remote_steal_fraction() - 0.75).abs() < 1e-12);
        assert!((c.remote_attempt_fraction() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn remote_trips_per_migrated_task_subtracts_free_riders() {
        // 12 attempts landed 6 migrated tasks, but 2 batches carried 5 of
        // them: the 3 extras rode paid trips, so 9 trips moved 6 tasks.
        let mut r = Counters {
            remote_attempts: 12,
            remote_steals: 6,
            batch_steals: 2,
            batched_tasks: 5,
            ..Counters::default()
        };
        assert!((r.remote_trips_per_migrated_task() - 1.5).abs() < 1e-9);
        // With no batching every attempt is a trip: 12 trips, 6 tasks.
        r.batch_steals = 0;
        r.batched_tasks = 0;
        assert_eq!(r.remote_trips_per_migrated_task(), 2.0);
        // Free riders can cancel the trip count, never drive it negative.
        r.batch_steals = 2;
        r.batched_tasks = 20;
        assert_eq!(r.remote_trips_per_migrated_task(), 0.0);
        r.remote_steals = 0;
        assert!(r.remote_trips_per_migrated_task().is_infinite());
    }

    /// The shared check is not vacuous: starting from counters that pass
    /// under every structure, each forgery breaks exactly the rule it
    /// targets, and the check names it.
    #[test]
    fn check_rejects_each_forged_identity_and_structural_zero() {
        let mut sound = Counters::default();
        sound.record(StealResult::Hit, false);
        sound.record(StealResult::Empty, false);
        sound.record_inject(1);
        sound.parks = 2;
        sound.unparks = 2;
        assert_eq!(sound.check(ANY), Ok(()));
        assert_eq!(sound.check(STRICT), Ok(()));

        type Forgery = (fn(&mut Counters), Structure, &'static str);
        let forgeries: [Forgery; 12] = [
            // The five-way identity, one outcome at a time.
            (|c| c.steal_attempts += 1, ANY, "steal_attempts !="),
            (|c| c.steals += 1, ANY, "steal_attempts !="),
            (|c| c.aborts += 1, ANY, "steal_attempts !="),
            (|c| c.empties += 1, ANY, "steal_attempts !="),
            (|c| c.injects += 1, ANY, "steal_attempts !="),
            (|c| c.duplicates += 1, ANY, "steal_attempts !="),
            // A remote hit that was not a remote attempt.
            (|c| c.remote_steals += 1, ANY, "remote counter"),
            // A "batch" of one task.
            (
                |c| (c.batch_steals, c.batched_tasks) = (1, 1),
                ANY,
                "batch counters",
            ),
            (|c| c.parks += 1, ANY, "parks != unparks"),
            // Structural zeros: each outcome is balanced, yet forbidden.
            (
                |c| c.record(StealResult::Abort, false),
                STRICT,
                "cannot abort",
            ),
            (
                |c| c.record(StealResult::Duplicate, false),
                STRICT,
                "exact backend",
            ),
            (
                |c| c.record(StealResult::Empty, true),
                STRICT,
                "flat (K = 1)",
            ),
        ];
        for (i, (forge, structure, rule)) in forgeries.into_iter().enumerate() {
            let mut c = sound;
            forge(&mut c);
            let err = c
                .check(structure)
                .expect_err(&format!("forgery {i} ({rule}) passed"));
            assert!(err.contains(rule), "forgery {i}: wrong rule named: {err}");
        }
        // The batch zero needs a real two-task batch to forge against.
        let mut batched = sound;
        batched.record(StealResult::Hit, false);
        batched.record_batch(2);
        assert_eq!(batched.check(ANY), Ok(()));
        assert_eq!(batched.check(STRICT), Err("batches under single-steal"));
        // More batched tasks than steals.
        batched.batched_tasks = batched.steals + 1;
        assert!(batched.check(ANY).unwrap_err().contains("batch counters"));
    }

    #[test]
    #[should_panic(expected = "accounting broken: aborts on a backend that cannot abort")]
    fn assert_checked_names_the_broken_rule() {
        let mut c = Counters::default();
        c.record(StealResult::Abort, false);
        c.assert_checked(STRICT);
    }
}
