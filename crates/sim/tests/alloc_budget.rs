//! Allocation guard for the simulator's inner loop.
//!
//! `WorkStealer::run` executes the paper's machine model one instruction
//! at a time, so a heap allocation per instruction, per executed node or
//! per yield multiplies into most of its run time. The only allocations
//! `run` may make are per *round* — inside `Kernel::choose` and the yield
//! ledger's `enforce`, which hand back a fresh `ProcSet` — plus a
//! constant number at the end to build the report. This binary installs a
//! counting global allocator (its own test binary, so no other test
//! shares it) and checks that budget on runs that yield to all and yield
//! to random.

use abp_dag::{gen, Dag};
use abp_kernel::{AdaptiveWorkerStarver, CountSource, Kernel, ObliviousKernel, YieldPolicy};
use abp_sim::{DequeBackend, RunReport, WorkStealer, WsConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts allocations (and reallocations, which may move and so are a
/// fresh allocation) made by threads that have switched counting on.
struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn note() {
    if COUNTING.with(Cell::get) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `run` may make per round: the kernel's chosen set (plus
/// the benign-style kernels' index scratch) and the enforced copy.
const PER_ROUND: u64 = 4;
/// Allocations `run` may make once: the report's policy label, and the
/// growth of the deques' and trackers' backing arrays to their peak.
const ONCE: u64 = 64;

/// Runs `dag` on `p` processes and returns the report with the number of
/// allocations `run` made (construction excluded).
fn counted_run(dag: &Dag, p: usize, kernel: &mut dyn Kernel, cfg: WsConfig) -> (RunReport, u64) {
    let ws = WorkStealer::new(dag, p, cfg);
    ALLOCS.store(0, Ordering::Relaxed);
    COUNTING.with(|c| c.set(true));
    let r = ws.run(kernel);
    COUNTING.with(|c| c.set(false));
    (r, ALLOCS.load(Ordering::Relaxed))
}

fn check(name: &str, r: &RunReport, allocs: u64) {
    assert!(r.completed, "{name}: did not complete");
    assert!(r.yields > 0, "{name}: no yields, so nothing was guarded");
    let budget = PER_ROUND * r.rounds + ONCE;
    assert!(
        allocs <= budget,
        "{name}: run allocated {allocs} times in {} rounds ({} instructions, {} nodes, \
         {} yields); budget {budget}",
        r.rounds,
        r.instructions,
        r.executed,
        r.yields
    );
}

#[test]
fn run_allocations_scale_with_rounds_not_instructions() {
    let p = 8;
    let dag = gen::random_series_parallel(41, 4000);
    let cases = [
        ("to-all/abp", YieldPolicy::ToAll, DequeBackend::Abp),
        ("to-random/abp", YieldPolicy::ToRandom, DequeBackend::Abp),
        ("to-all/locking", YieldPolicy::ToAll, DequeBackend::Locking),
    ];
    for (name, yield_policy, backend) in cases {
        let cfg = WsConfig::default()
            .with_yield_policy(yield_policy)
            .with_backend(backend)
            .with_seed(0xA110C);
        let (r, allocs) = match yield_policy {
            YieldPolicy::ToRandom => {
                let mut k = ObliviousKernel::rotating(p, 3, 20, 20 * p as u64);
                counted_run(&dag, p, &mut k, cfg)
            }
            _ => {
                let mut k = AdaptiveWorkerStarver::new(p, CountSource::Constant(p / 2), 9);
                counted_run(&dag, p, &mut k, cfg)
            }
        };
        check(name, &r, allocs);
        // Far below one allocation per executed node: a per-node or
        // per-yield allocation coming back would blow through this.
        assert!(
            allocs * 4 < r.executed,
            "{name}: {allocs} allocations for {} executed nodes",
            r.executed
        );
    }
}
