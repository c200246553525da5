//! Adaptive parallel unstable sort.
//!
//! Median-split recursion: each level that forks places the slice's
//! exact median with `std`'s `select_nth_unstable` (introselect, with a
//! median-of-medians fallback) and sorts the two halves in parallel via
//! `join`. Every split therefore halves its range, so the recursion is
//! `log2(n / leaf)` deep on every input and the work stays O(n log n)
//! even on inputs that defeat a sampled pivot. The [`Splitter`] decides
//! per level whether the recursion forks or stays sequential — once the
//! pool stops reporting idle workers the remaining sub-ranges are handed
//! to `std`'s `sort_unstable`, so both the split pass and the leaves run
//! library code rather than hand-rolled loops.

use super::split::Splitter;
use crate::join::join;

/// Sorts the slice, potentially in parallel, honouring the current
/// pool's [`abp_core::SplitKind`] policy. Splitting at the exact median
/// keeps runs reproducible; outside a pool this is exactly
/// `slice::sort_unstable`.
pub fn par_sort_unstable<T: Ord + Send>(v: &mut [T]) {
    // A split costs one linear select pass over the range plus a `join`
    // (~16 ns); the 512-element floor keeps every leaf's sequential sort
    // far larger than both.
    sort_with(v, Splitter::new().with_min_len(512));
}

fn sort_with<T: Ord + Send>(v: &mut [T], mut sp: Splitter) {
    if !sp.should_split(v.len()) {
        v.sort_unstable();
        return;
    }
    let (lo, _, hi) = v.select_nth_unstable(v.len() / 2);
    join(|| sort_with(lo, sp), || sort_with(hi, sp));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::ThreadPool;
    use abp_dag::DetRng;

    #[test]
    fn sorts_random_input() {
        let pool = ThreadPool::new(4);
        let mut rng = DetRng::new(7);
        let mut v: Vec<u64> = (0..120_000).map(|_| rng.below(10_000)).collect();
        let mut expect = v.clone();
        expect.sort_unstable();
        pool.install(|| par_sort_unstable(&mut v));
        assert_eq!(v, expect);
    }

    #[test]
    fn sorts_adversarial_shapes() {
        let pool = ThreadPool::new(2);
        pool.install(|| {
            let mut empty: Vec<u8> = vec![];
            par_sort_unstable(&mut empty);
            let mut one = vec![3u8];
            par_sort_unstable(&mut one);
            assert_eq!(one, vec![3]);
            let mut rev: Vec<u32> = (0..30_000).rev().collect();
            par_sort_unstable(&mut rev);
            assert!(rev.windows(2).all(|w| w[0] <= w[1]));
            let mut same = vec![9u16; 20_000];
            par_sort_unstable(&mut same);
            assert!(same.iter().all(|&x| x == 9));
            let mut sorted: Vec<u32> = (0..30_000).collect();
            par_sort_unstable(&mut sorted);
            assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
        });
    }

    #[test]
    fn works_outside_pool() {
        let mut v = vec![5u32, 1, 4, 2, 3];
        par_sort_unstable(&mut v);
        assert_eq!(v, vec![1, 2, 3, 4, 5]);
    }
}
