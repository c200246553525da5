//! Machine-checkable theory bounds for the steal-validation suite.
//!
//! Two published results about work stealing state quantities the
//! instruction-stepped simulator measures exactly, so both can be
//! asserted per run instead of merely cited:
//!
//! * **Rooted-tree steal bound** (Leiserson, Schardl, Suksompong,
//!   *Upper Bounds on Number of Steals in Rooted Trees*): `P`
//!   processors executing a rooted tree of branching factor `k` and
//!   height `h` under work stealing perform at most
//!   `Σ_{i=1}^{P−1} k^i · C(h, i)` successful steals
//!   ([`rooted_tree_steal_bound`], checked via [`StealBoundCheck`]).
//! * **Work-stealing cache bound** (Acar, Blelloch, Blumofe; Gu,
//!   Napier, Sun, *Analysis of Work-Stealing and Parallel Cache
//!   Complexity*): with per-processor LRU caches of `M` lines, the
//!   parallel miss count exceeds the serial one by at most `O(M)` per
//!   *deviation* — a node executed on a different processor than its
//!   enabling-tree designated parent ([`cache_extra_miss_bound`],
//!   checked via [`CacheBoundCheck`]).
//!
//! Checkers record the **gap ratio** (observed / bound), not just
//! pass/fail, so experiments can report how loose each bound runs.

/// Hidden constant `κ` of the cache bound's `O(M)`-per-deviation term:
/// a deviated subcomputation rewarms at most `M` lines it would have
/// found resident serially, and its return/join disturbs at most `M`
/// more, so extra misses ≤ `κ·M` per deviation with `κ = 2`.
pub const CACHE_KAPPA: u64 = 2;

/// The Leiserson et al. upper bound on successful steals: `P` processors
/// executing a rooted tree of branching factor `branching` and height
/// `height` (in edges) steal at most `Σ_{i=1}^{min(P−1, h)} k^i·C(h, i)`
/// times. Computed in `f64` and saturating to `+∞` on overflow (the
/// check `observed ≤ bound` stays sound either way).
///
/// `P = 1` (no thieves) and `height = 0` (a bare root) give 0.
pub fn rooted_tree_steal_bound(branching: u64, height: u64, procs: usize) -> f64 {
    if procs <= 1 || height == 0 || branching == 0 {
        return 0.0;
    }
    let k = branching as f64;
    let h = height as f64;
    let mut sum = 0.0f64;
    let mut term = 1.0f64; // k^i · C(h, i), built incrementally
    let top = (procs as u64 - 1).min(height);
    for i in 1..=top {
        // C(h, i) = C(h, i−1) · (h − i + 1) / i.
        term *= k * (h - i as f64 + 1.0) / i as f64;
        sum += term;
        if !sum.is_finite() {
            return f64::INFINITY;
        }
    }
    sum
}

/// One steal-bound verdict: an observed successful-steal count against
/// a bound value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StealBoundCheck {
    /// Successful steals the run performed (`Counters::steals`).
    pub observed: u64,
    /// The applicable upper bound.
    pub bound: f64,
}

impl StealBoundCheck {
    /// Checks `observed` steals against the rooted-tree bound for a
    /// tree of the given branching factor and height on `procs`
    /// processors, additionally capped by `edges` (each successful
    /// steal removes one pushed continuation, and at most one is
    /// pushed per tree edge — so `observed ≤ edges` always).
    pub fn rooted_tree(
        observed: u64,
        branching: u64,
        height: u64,
        edges: u64,
        procs: usize,
    ) -> Self {
        let bound = rooted_tree_steal_bound(branching, height, procs).min(edges as f64);
        StealBoundCheck { observed, bound }
    }

    /// True iff the bound holds.
    pub fn holds(&self) -> bool {
        self.observed as f64 <= self.bound
    }

    /// Observed / bound: 0 when nothing was stolen, > 1 iff violated.
    pub fn gap_ratio(&self) -> f64 {
        if self.observed == 0 {
            return 0.0;
        }
        if self.bound == 0.0 {
            return f64::INFINITY;
        }
        self.observed as f64 / self.bound
    }
}

/// The checkable form of the work-stealing cache bound: extra parallel
/// misses over the serial run are at most [`CACHE_KAPPA`]`·M` per
/// deviation. Saturates instead of overflowing.
pub fn cache_extra_miss_bound(deviations: u64, cache_lines: u64) -> u64 {
    CACHE_KAPPA
        .saturating_mul(cache_lines)
        .saturating_mul(deviations)
}

/// One cache-bound verdict: a parallel run's miss count against the
/// serial baseline plus the deviation term.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheBoundCheck {
    /// Misses of the `P = 1` run of the same computation (`Q₁`).
    pub serial_misses: u64,
    /// Misses of the parallel run (`Q_P`).
    pub parallel_misses: u64,
    /// Deviations: nodes executed on a different processor than their
    /// enabling-tree designated parent.
    pub deviations: u64,
    /// Per-processor cache capacity in lines (`M`).
    pub cache_lines: u64,
}

impl CacheBoundCheck {
    /// `max(Q_P − Q₁, 0)` — parallel caches have more aggregate
    /// capacity, so the difference can be negative.
    pub fn extra_misses(&self) -> u64 {
        self.parallel_misses.saturating_sub(self.serial_misses)
    }

    /// The bound value `κ·M·deviations`.
    pub fn bound(&self) -> u64 {
        cache_extra_miss_bound(self.deviations, self.cache_lines)
    }

    /// True iff the extra-miss term is within the bound. With zero
    /// deviations the parallel run must miss no more than the serial
    /// one.
    pub fn holds(&self) -> bool {
        self.extra_misses() <= self.bound()
    }

    /// Extra misses / bound: 0 when there were none, > 1 iff violated.
    pub fn gap_ratio(&self) -> f64 {
        if self.extra_misses() == 0 {
            return 0.0;
        }
        if self.bound() == 0 {
            return f64::INFINITY;
        }
        self.extra_misses() as f64 / self.bound() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_procs_bound_is_k_times_h() {
        // Σ_{i=1}^{1} k^i·C(h,i) = k·h.
        assert_eq!(rooted_tree_steal_bound(2, 7, 2), 14.0);
        assert_eq!(rooted_tree_steal_bound(3, 5, 2), 15.0);
    }

    #[test]
    fn hand_computed_small_cases() {
        // k=2, h=3, P=3: 2·3 + 4·C(3,2) = 6 + 12 = 18.
        assert_eq!(rooted_tree_steal_bound(2, 3, 3), 18.0);
        // k=2, h=3, P=4: 18 + 8·C(3,3) = 26; more procs than height
        // adds nothing beyond i = h.
        assert_eq!(rooted_tree_steal_bound(2, 3, 4), 26.0);
        assert_eq!(rooted_tree_steal_bound(2, 3, 9), 26.0);
    }

    #[test]
    fn degenerate_cases_are_zero() {
        assert_eq!(rooted_tree_steal_bound(2, 5, 1), 0.0);
        assert_eq!(rooted_tree_steal_bound(2, 0, 8), 0.0);
        assert_eq!(rooted_tree_steal_bound(0, 5, 8), 0.0);
    }

    #[test]
    fn bound_is_monotone_in_every_parameter() {
        let base = rooted_tree_steal_bound(2, 10, 4);
        assert!(rooted_tree_steal_bound(3, 10, 4) > base);
        assert!(rooted_tree_steal_bound(2, 11, 4) > base);
        assert!(rooted_tree_steal_bound(2, 10, 5) > base);
    }

    #[test]
    fn huge_parameters_saturate_to_infinity() {
        let b = rooted_tree_steal_bound(1 << 40, 1 << 40, 1024);
        assert_eq!(b, f64::INFINITY);
        // Saturated bounds still accept any observation.
        let c = StealBoundCheck {
            observed: u64::MAX,
            bound: b,
        };
        assert!(c.holds());
    }

    #[test]
    fn steal_check_accepts_and_reports_gap() {
        let c = StealBoundCheck::rooted_tree(5, 2, 7, 100, 2);
        assert!(c.holds());
        assert!((c.gap_ratio() - 5.0 / 14.0).abs() < 1e-12);
        // Zero observed: gap 0 even with a zero bound.
        let z = StealBoundCheck::rooted_tree(0, 2, 7, 100, 1);
        assert!(z.holds());
        assert_eq!(z.gap_ratio(), 0.0);
    }

    #[test]
    fn forged_steal_count_is_rejected() {
        // Non-vacuity: inflate the observation past the bound and the
        // checker must reject it.
        let honest = StealBoundCheck::rooted_tree(10, 2, 7, 1000, 2);
        assert!(honest.holds());
        let forged = StealBoundCheck::rooted_tree(honest.bound as u64 + 1, 2, 7, 1000, 2);
        assert!(!forged.holds());
        assert!(forged.gap_ratio() > 1.0);
        // A single thief on a bare root must steal nothing.
        let impossible = StealBoundCheck::rooted_tree(1, 2, 0, 0, 8);
        assert!(!impossible.holds());
        assert_eq!(impossible.gap_ratio(), f64::INFINITY);
    }

    #[test]
    fn edge_cap_tightens_tall_thin_trees() {
        // A spine of 20 edges on 8 procs: the k-ary formula explodes in
        // P, but steals can never exceed the 20 pushable continuations.
        let c = StealBoundCheck::rooted_tree(3, 1, 20, 20, 8);
        assert!(c.bound <= 20.0);
        assert!(c.holds());
    }

    #[test]
    fn cache_check_holds_and_rejects() {
        let ok = CacheBoundCheck {
            serial_misses: 100,
            parallel_misses: 140,
            deviations: 5,
            cache_lines: 16,
        };
        assert_eq!(ok.extra_misses(), 40);
        assert_eq!(ok.bound(), 2 * 16 * 5);
        assert!(ok.holds());
        assert!((ok.gap_ratio() - 40.0 / 160.0).abs() < 1e-12);
        // Forged: more extra misses than κ·M·ν.
        let bad = CacheBoundCheck {
            parallel_misses: 100 + 161,
            ..ok
        };
        assert!(!bad.holds());
        assert!(bad.gap_ratio() > 1.0);
    }

    #[test]
    fn cache_check_zero_deviations_requires_no_extra() {
        let strict = CacheBoundCheck {
            serial_misses: 50,
            parallel_misses: 50,
            deviations: 0,
            cache_lines: 16,
        };
        assert!(strict.holds());
        assert_eq!(strict.gap_ratio(), 0.0);
        let violating = CacheBoundCheck {
            parallel_misses: 51,
            ..strict
        };
        assert!(!violating.holds());
        assert_eq!(violating.gap_ratio(), f64::INFINITY);
    }

    #[test]
    fn parallel_can_beat_serial_without_underflow() {
        let c = CacheBoundCheck {
            serial_misses: 80,
            parallel_misses: 60,
            deviations: 3,
            cache_lines: 8,
        };
        assert_eq!(c.extra_misses(), 0);
        assert!(c.holds());
    }
}
