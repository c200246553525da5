//! Slice-level parallel helpers built on [`crate::join()`](crate::join::join): the small,
//! practical API layer a downstream user reaches for before writing
//! explicit joins (a deliberately minimal analog of data-parallel
//! libraries' cores). The richer combinator surface lives in
//! [`crate::par`]; these helpers remain as the stable flat-function
//! entry points, thin shims over its drive loops and its splitter.
//!
//! All helpers are plain recursive divide-and-conquer over `join`, so
//! they inherit the scheduler's properties: depth-first execution on one
//! process, breadth-first stealing from many, and graceful degradation
//! when the kernel takes processors away. Outside a pool they run
//! sequentially.
//!
//! # The `grain` parameter
//!
//! * `grain == 0` — **auto** (recommended): leaf size is decided at run
//!   time by the adaptive [`crate::par::Splitter`], which
//!   consults the pool's idle-worker gauge. Historically `0` was
//!   silently clamped to `1` — the worst possible grain, forking down
//!   to single elements — so reusing the old footgun value as the
//!   "let the runtime decide" switch is strictly an improvement.
//! * `grain >= 1` — **legacy explicit grain**: classic eager recursion
//!   down to leaves of at most `grain` elements, regardless of pool
//!   load. Pick it so a leaf is ≥ a few microseconds of work. Still
//!   useful for reproducing fixed task-DAG shapes (the experiment
//!   suites do) or when the workload is known to saturate the pool.

use crate::par::iter::{
    collect_spine, drive_fold, IndexedParIterator, ParIter, ParIterMut, ParIterator,
};
use crate::par::split::Splitter;

/// The splitter implementing a helper's `grain` contract: `0` = adaptive
/// (pool policy), `>= 1` = legacy eager grain.
fn splitter_for(grain: usize) -> Splitter {
    if grain == 0 {
        Splitter::new()
    } else {
        Splitter::eager(grain)
    }
}

/// Applies `f` to every element, potentially in parallel.
pub fn for_each_mut<T, F>(slice: &mut [T], grain: usize, f: &F)
where
    T: Send,
    F: Fn(&mut T) + Sync,
{
    let d = ParIterMut { slice }.driver();
    drive_fold(d, splitter_for(grain), &|| (), &|(), x| f(x), &|(), ()| ());
}

/// Maps every element and folds the results with an associative
/// `reduce`, returning `identity` for empty input. The reduction tree
/// follows the recursion, so `reduce` must be associative and `identity`
/// a two-sided identity for it; neither needs to be commutative.
///
/// ```
/// use hood::{map_reduce, ThreadPool};
///
/// let pool = ThreadPool::new(4);
/// let squares = pool.install(|| {
///     let v: Vec<u64> = (1..=100).collect();
///     map_reduce(&v, 0, 0u64, &|&x| x * x, &|a, b| a + b)
/// });
/// assert_eq!(squares, 100 * 101 * 201 / 6);
/// ```
pub fn map_reduce<T, R, M, Rd>(slice: &[T], grain: usize, identity: R, map: &M, reduce: &Rd) -> R
where
    T: Sync,
    R: Send + Clone,
    M: Fn(&T) -> R + Sync,
    Rd: Fn(R, R) -> R + Sync,
{
    // Leaves start empty rather than from a clone of `identity`, which
    // need not be `Sync`; `identity` is two-sided, so the fold is the same.
    let folded = drive_fold(
        ParIter { slice }.driver(),
        splitter_for(grain),
        &|| None,
        &|acc: Option<R>, x| {
            Some(match acc {
                Some(a) => reduce(a, map(x)),
                None => map(x),
            })
        },
        &|a, b| match (a, b) {
            (Some(a), Some(b)) => Some(reduce(a, b)),
            (a, None) => a,
            (None, b) => b,
        },
    );
    folded.unwrap_or(identity)
}

/// Parallel unstable sort: [`crate::par::par_sort_unstable`] under its
/// historical flat name (median splits, `std` sequential leaves, fork
/// cadence from the pool's [`abp_core::SplitKind`] policy).
pub fn sort_unstable<T: Ord + Send>(slice: &mut [T]) {
    crate::par::par_sort_unstable(slice);
}

/// Parallel map into a fresh `Vec`, preserving element order.
///
/// Results are written straight into one pre-sized spine — a single
/// allocation, no `Default` pre-fill, no per-leaf buffers. If `map`
/// panics the spine is abandoned with length zero: already-written
/// elements leak rather than double-drop.
pub fn map_collect<T, R, M>(slice: &[T], grain: usize, map: &M) -> Vec<R>
where
    T: Sync,
    R: Send,
    M: Fn(&T) -> R + Sync,
{
    collect_spine(
        ParIter { slice }.map(map).indexed_driver(),
        splitter_for(grain),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::ThreadPool;

    #[test]
    fn for_each_mut_touches_everything() {
        let pool = ThreadPool::new(4);
        let mut v: Vec<u64> = (0..10_000).collect();
        pool.install(|| for_each_mut(&mut v, 64, &|x| *x *= 2));
        for (i, &x) in v.iter().enumerate() {
            assert_eq!(x, 2 * i as u64);
        }
    }

    #[test]
    fn for_each_mut_auto_grain() {
        let pool = ThreadPool::new(4);
        let mut v: Vec<u64> = (0..10_000).collect();
        pool.install(|| for_each_mut(&mut v, 0, &|x| *x *= 2));
        for (i, &x) in v.iter().enumerate() {
            assert_eq!(x, 2 * i as u64);
        }
    }

    #[test]
    fn for_each_empty_and_tiny() {
        let pool = ThreadPool::new(2);
        let mut empty: Vec<u32> = vec![];
        pool.install(|| for_each_mut(&mut empty, 8, &|x| *x += 1));
        let mut one = vec![5u32];
        pool.install(|| for_each_mut(&mut one, 8, &|x| *x += 1));
        assert_eq!(one, vec![6]);
    }

    #[test]
    fn map_reduce_sums() {
        let pool = ThreadPool::new(4);
        let v: Vec<u64> = (1..=10_000).collect();
        let s = pool.install(|| map_reduce(&v, 128, 0u64, &|&x| x, &|a, b| a + b));
        assert_eq!(s, 10_000 * 10_001 / 2);
        let auto = pool.install(|| map_reduce(&v, 0, 0u64, &|&x| x, &|a, b| a + b));
        assert_eq!(auto, s);
    }

    #[test]
    fn map_reduce_non_commutative_associative() {
        // String concatenation is associative but not commutative; order
        // must be preserved.
        let pool = ThreadPool::new(4);
        let v: Vec<u32> = (0..200).collect();
        let s = pool
            .install(|| map_reduce(&v, 16, String::new(), &|x| format!("{x},"), &|a, b| a + &b));
        let expect: String = (0..200).map(|x| format!("{x},")).collect();
        assert_eq!(s, expect);
    }

    #[test]
    fn map_reduce_empty_returns_identity() {
        let v: Vec<u32> = vec![];
        let r = map_reduce(&v, 8, 42u64, &|&x| x as u64, &|a, b| a + b);
        assert_eq!(r, 42);
    }

    #[test]
    fn parallel_sort_sorts() {
        use abp_dag::DetRng;
        let pool = ThreadPool::new(4);
        let mut rng = DetRng::new(99);
        let mut v: Vec<u64> = (0..100_000).map(|_| rng.below(1_000)).collect();
        let mut expect = v.clone();
        expect.sort_unstable();
        pool.install(|| sort_unstable(&mut v));
        assert_eq!(v, expect);
    }

    #[test]
    fn parallel_sort_edge_cases() {
        let pool = ThreadPool::new(2);
        let mut empty: Vec<u8> = vec![];
        pool.install(|| sort_unstable(&mut empty));
        let mut rev: Vec<u32> = (0..5_000).rev().collect();
        pool.install(|| sort_unstable(&mut rev));
        assert!(rev.windows(2).all(|w| w[0] <= w[1]));
        let mut same = vec![7u8; 10_000];
        pool.install(|| sort_unstable(&mut same));
        assert!(same.iter().all(|&x| x == 7));
    }

    #[test]
    fn map_collect_preserves_order() {
        let pool = ThreadPool::new(3);
        let v: Vec<u32> = (0..5_000).collect();
        let out = pool.install(|| map_collect(&v, 100, &|&x| x as u64 * 3));
        for (i, &x) in out.iter().enumerate() {
            assert_eq!(x, i as u64 * 3);
        }
    }

    /// `map_collect` no longer needs `R: Default + Clone` — the spine is
    /// written in place, so non-defaultable results work.
    #[test]
    fn map_collect_non_default_type() {
        struct NoDefault(u64);
        let pool = ThreadPool::new(2);
        let v: Vec<u32> = (0..3_000).collect();
        let out = pool.install(|| map_collect(&v, 0, &|&x| NoDefault(x as u64 + 1)));
        for (i, x) in out.iter().enumerate() {
            assert_eq!(x.0, i as u64 + 1);
        }
    }

    #[test]
    fn helpers_work_outside_pool_sequentially() {
        let mut v = vec![3u32, 1, 2];
        sort_unstable(&mut v);
        assert_eq!(v, vec![1, 2, 3]);
        assert_eq!(map_reduce(&v, 1, 0u32, &|&x| x, &|a, b| a + b), 6);
        assert_eq!(map_reduce(&v, 0, 0u32, &|&x| x, &|a, b| a + b), 6);
        assert_eq!(map_collect(&v, 0, &|&x| x * 2), vec![2, 4, 6]);
    }
}
