//! **abp-core** — the shared scheduling-policy layer.
//!
//! The paper's work stealer (Figure 3) fixes one policy point: a thief
//! yields (line 15), picks a **uniformly random** victim (line 16), and
//! tries `popTop` on the victim's deque (line 17). The analysis machinery
//! of Section 4 — throws, the potential function, the enabling tree — is
//! exactly the instrument for comparing *alternative* policies, so this
//! crate factors the three policy points out of the two execution
//! surfaces (the `hood` threaded runtime and the `abp-sim`
//! instruction-level simulator) into pluggable traits:
//!
//! * [`VictimSelector`] — who to rob (Figure 3, line 16). Implementations:
//!   [`UniformVictim`] (the paper), [`RoundRobinVictim`], the
//!   affinity-flavoured [`LastVictim`] leapfrog, and the enabling-tree
//!   driven [`LastEnabler`] (fed by the cache model's deviation signal).
//! * [`ContentionBackoff`] — what to do between failed steal attempts
//!   (Figure 3, line 15). Implementations: [`PlainYield`] (the paper),
//!   [`NoBackoff`] (line 15 removed), [`ExpJitterBackoff`] (truncated
//!   exponential with seeded jitter), and [`SpinThenYield`].
//! * [`IdlePolicy`] — what a persistently work-less thief does with its
//!   quantum. Implementations: [`SpinIdle`] (yield-per-throw, the paper)
//!   and [`ParkAfter`] (park after `k` consecutive failures, the Hood
//!   engineering compromise).
//!
//! A cloneable [`PolicySet`] names one choice per axis (the spec that
//! lives inside `WsConfig`/`PoolConfig`), and a per-worker
//! [`PolicyEngine`] holds the built trait objects plus the seeded
//! [`PolicyRng`], so both surfaces make **identical decisions from
//! identical seeds**: the simulator and the runtime thread the same
//! engine protocol (`backoff_action` → `begin_scan` → `next_victim` →
//! `observe`) through their otherwise very different steal loops.
//!
//! * [`InjectPolicy`] — how often a work-less worker polls the external
//!   submission injector, when the runtime has one. Implementations:
//!   [`EveryScan`] (once per victim scan, the default) and
//!   [`NeverInject`] (the pre-injector behavior, for ablation).
//!
//! * [`SplitKind`] — when a data-parallel computation forks vs. runs a
//!   range sequentially, for runtimes with a `par_iter`-style layer.
//!   Consulted from inside running jobs (not the steal loop), so it is a
//!   plain spec with no engine hook: `Adaptive` (split while idle
//!   workers are visible, the default), `EagerGrain` (recurse to an
//!   explicit grain, the classic baseline), and `Sequential`.
//!
//! * [`BatchKind`] — how many tasks one successful cross-pool steal
//!   migrates: `Single` (the paper's one-task semantics, the default)
//!   or `Half { cap }` (claim up to half the victim's visible backlog
//!   in one grab). Like the split axis it is a plain spec read directly
//!   by the runtime's steal path — it draws no randomness, so the
//!   default keeps rng streams byte-identical.
//!
//! [`bounds`] holds the machine-checkable theory predicates next to the
//! tally they consume: the Leiserson et al. rooted-tree steal bound
//! ([`StealBoundCheck`]) and the work-stealing cache bound
//! ([`CacheBoundCheck`]), both reporting gap ratios rather than bare
//! pass/fail.
//!
//! [`Counters`] is the one counter table both surfaces record into
//! ([`tally`]): the runtime through its atomic mirror
//! [`AtomicCounters`], the simulator directly. Its identities
//! (`steal_attempts == steals + aborts + empties + injects + duplicates`
//! and the locality, batch and park splits) and the structural zeros a
//! configuration implies ([`Structure`]) are written once and checked by
//! both at the end of every run.
//!
//! ```
//! use abp_core::{PolicyEngine, PolicySet, PolicyRng, StealResult};
//!
//! let set = PolicySet::paper(); // uniform victim + yield + spin idle
//! let mut eng = PolicyEngine::new(&set, PolicyRng::new(0x5EED));
//! eng.begin_scan(0, 4);
//! let v = eng.next_victim(0, 4);
//! assert!(v != 0 && v < 4);
//! eng.observe(v, StealResult::Empty);
//! eng.note_failed();
//! assert_eq!(eng.fails(), 1);
//! ```

pub mod backoff;
pub mod batch;
pub mod bounds;
pub mod engine;
pub mod idle;
pub mod inject;
pub mod rng;
pub mod split;
pub mod tally;
pub mod victim;

pub use backoff::{
    BackoffAction, BackoffKind, ContentionBackoff, ExpJitterBackoff, NoBackoff, PlainYield,
    SpinThenYield,
};
pub use batch::BatchKind;
pub use bounds::{
    cache_extra_miss_bound, rooted_tree_steal_bound, CacheBoundCheck, StealBoundCheck, CACHE_KAPPA,
};
pub use engine::{coin_threshold, PolicyEngine, PolicySet};
pub use idle::{IdleAction, IdleKind, IdlePolicy, ParkAfter, ParkUntilWakeIdle, SpinIdle};
pub use inject::{EveryScan, InjectKind, InjectPolicy, NeverInject};
pub use rng::PolicyRng;
pub use split::SplitKind;
pub use tally::{AtomicCounters, Counters, StealResult, Structure};
pub use victim::{
    LastEnabler, LastVictim, RoundRobinVictim, UniformVictim, VictimKind, VictimSelector,
};
