//! Fence-free work-stealing with multiplicity (Castañeda & Piña,
//! arXiv:2008.04424), adapted to the runtime's exactly-once contract.
//!
//! The ABP protocol of [`crate::atomic`] pays a `cas` on the single shared
//! `age` word for every steal and keeps one full fence on each side of the
//! §3.3 owner/thief window. This module implements the other end of the
//! design space: `top` and `bot` are *plain read/write hints* — thieves
//! advance `top` with an unconditional store, the owner retracts `bot`
//! with an unconditional store, and **nobody ever retries a `cas` on a
//! contended word**. The price named by the source paper is
//! *multiplicity*: two thieves that read the same `top` both extract the
//! same task, and a relaxed work-stealing spec has to allow each task to
//! be taken up to once per process.
//!
//! # The once-guard: where multiplicity is paid for
//!
//! A scheduler cannot hand the same job to two workers unless execution is
//! idempotent, and the runtime's jobs are not (a `StackJob` frame is dead
//! the moment its latch is set — a duplicate winner would read freed
//! stack). The runtime's contract is therefore *claim before execute*,
//! and the claim state must live somewhere that outlives the job. It
//! lives here, in the deque: a `claims` word per slot, versioned by an
//! era counter so it is immune to slot reuse, consulted by exactly one
//! `compare_exchange` per extraction:
//!
//! * `claims[i]` **even** — era `claims[i]` of slot `i` holds a live,
//!   unextracted task;
//! * `claims[i]` **odd** — the slot's current occupant (if any) has been
//!   extracted; the slot is reusable by the owner.
//!
//! A push bumps the slot's claim word from odd to even (`c + 1`); an
//! extraction — owner pop or guarded steal — bumps it from even to odd
//! with a single `compare_exchange(c, c + 1)`. The counter is monotonic
//! per slot, every value occurs exactly once, so a stale thief holding
//! yesterday's era can never claim today's occupant by accident (the ABA
//! defense that `tag` provides in ABP). Losing the guard is reported as
//! [`Steal::Duplicate`] — the extraction attempt raced an extraction of
//! the same item and lost — which the pool counts (`duplicates`) but
//! treats like a miss.
//!
//! Note what the guard is *not*: it is not a retry loop, and it is not on
//! a contended word. Each extraction performs exactly one
//! `compare_exchange` on a slot-private word; two processes collide on the
//! same word only when they race for the *same item*, which is precisely
//! the duplicate case being resolved. The steal fast path has no `cas`
//! the way ABP's does — there is no word every thief must win in turn.
//!
//! # Soundness: claims are ground truth, `top`/`bot` are hints
//!
//! All correctness flows from the claim protocol; the index words only
//! filter which slot a process looks at. Every hint failure degrades to
//! a counted non-event:
//!
//! * a stale `top` aims a thief at a claimed slot → the guard fails →
//!   [`Steal::Duplicate`];
//! * plain `top` stores can go backwards (a slow thief overwrites a
//!   faster one's advance) → slots are re-examined → more `Duplicate`s;
//! * a stale `top` above the live region → spurious [`Steal::Empty`] —
//!   legal under the relaxed spec, the thief simply rescans;
//! * the owner never consults `top` to drain: `pop_bottom` walks `bot`
//!   downward claiming as it goes, so every task the owner pushed is
//!   extracted by *someone* before the owner observes its deque empty.
//!
//! The value a successful claimant returns is proved fresh by a
//! two-sided argument (INV-FF-VAL below): the `Acquire` read of the even
//! claim word pins the task read to *at least* that era's store, and the
//! success of the `compare_exchange` pins it to *at most* that era —
//! the next era's task store is sequenced after the owner observes this
//! very claim.
//!
//! The exhaustive interleaving checker for this protocol (raw multiplicity
//! bound and guarded exactly-once, including slot-reuse scenarios) lives in
//! [`crate::multiplicity`]; real-thread histories are judged by
//! `deque::history::check_multiplicity` in `tests/atomic_linearizability.rs`.
//!
//! # Raw mode for the checkers
//!
//! [`FenceFreeStealer::steal_relaxed`] is the paper's unguarded protocol —
//! reads and a plain `top` store, no guard — so tests can observe genuine
//! duplicate *extractions* (not just lost races). Its multiplicity is
//! bounded structurally: the method keeps a per-handle cursor so one
//! stealer handle never re-extracts the same slot, giving at most
//! `1 (owner) + #handles` extractions per task — the per-process
//! multiplicity bound of the source paper. The runtime never calls it.

// `Line` pads `top` and `bot` apart for the same reason as in
// `crate::atomic`: every scanning thief stores `top`, while the owner
// stores `bot` on every push/pop.
use crate::atomic::{batch_want, Line, PushError, Steal, StolenBatch};
use crate::word::Word;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

struct Inner<T: Word> {
    /// Thief-side hint: index of the next slot to steal. Written by
    /// thieves with plain (Relaxed) stores — may regress, may run ahead.
    /// Also healed by the owner when it observes `top > bot` after a
    /// drain (INV-FF-HEAL).
    top: Line<AtomicU64>,
    /// Owner-side index one past the newest task. Advanced on push
    /// (Release — this is what publishes a new era to thieves,
    /// INV-FF-PUB), retracted during pop's walk-down (Relaxed — a
    /// retraction carries no data, INV-FF-HINT).
    bot: Line<AtomicU64>,
    /// Per-slot era/claim words: even = live, odd = extracted/free.
    /// Initialized to 1 ("era 0 already extracted"). Strictly monotonic;
    /// see module docs.
    claims: Box<[AtomicU64]>,
    /// Task payloads, valid for the slot's current even era.
    tasks: Box<[AtomicU64]>,
    _marker: PhantomData<T>,
}

/// The owner handle: `put` (push) and `take` (pop). `Send` but `!Sync`,
/// like [`crate::atomic::Worker`] — the protocol requires a unique owner.
pub struct FenceFreeWorker<T: Word> {
    inner: Arc<Inner<T>>,
    _not_sync: PhantomData<std::cell::Cell<()>>,
}

// The owner may migrate between OS threads, never be shared by two.
unsafe impl<T: Word> Send for FenceFreeWorker<T> {}

/// A thief handle: guarded `steal` (exactly-once via the claim word) plus
/// the unguarded [`steal_relaxed`](FenceFreeStealer::steal_relaxed) used
/// by the multiplicity checkers.
pub struct FenceFreeStealer<T: Word> {
    inner: Arc<Inner<T>>,
    /// Raw-mode cursor: highest slot index this handle has already
    /// examined via `steal_relaxed`, so one handle never re-extracts the
    /// same slot (the per-process multiplicity bound). Unused by the
    /// guarded path.
    cursor: u64,
}

impl<T: Word> Clone for FenceFreeStealer<T> {
    fn clone(&self) -> Self {
        FenceFreeStealer {
            inner: Arc::clone(&self.inner),
            cursor: self.cursor,
        }
    }
}

/// Creates a fence-free deque with space for `capacity` entries, returning
/// the unique owner handle and a cloneable stealer handle.
///
/// ```
/// use abp_deque::fence_free::new_fence_free;
/// use abp_deque::Steal;
///
/// let (worker, stealer) = new_fence_free::<u64>(64);
/// worker.push_bottom(1).unwrap();
/// worker.push_bottom(2).unwrap();
/// // Owner pops LIFO at the bottom; thieves extract FIFO-ish at the top.
/// assert_eq!(worker.pop_bottom(), Some(2));
/// assert_eq!(stealer.steal(), Steal::Taken(1));
/// assert_eq!(stealer.steal(), Steal::Empty);
/// ```
///
/// As with the fixed-size ABP deque, `capacity` bounds the *bottom index*,
/// not the instantaneous size: `bot` only returns toward zero as the owner
/// pops, so a workload where thieves keep the deque non-empty forever can
/// push the index to `capacity`, at which point
/// [`FenceFreeWorker::push_bottom`] reports [`PushError`] instead of
/// overwriting a live entry. Size generously.
pub fn new_fence_free<T: Word>(capacity: usize) -> (FenceFreeWorker<T>, FenceFreeStealer<T>) {
    assert!(capacity >= 1 && capacity <= u32::MAX as usize);
    let claims = (0..capacity).map(|_| AtomicU64::new(1)).collect();
    let tasks = (0..capacity).map(|_| AtomicU64::new(0)).collect();
    let inner = Arc::new(Inner {
        top: Line(AtomicU64::new(0)),
        bot: Line(AtomicU64::new(0)),
        claims,
        tasks,
        _marker: PhantomData,
    });
    (
        FenceFreeWorker {
            inner: Arc::clone(&inner),
            _not_sync: PhantomData,
        },
        FenceFreeStealer { inner, cursor: 0 },
    )
}

impl<T: Word> FenceFreeWorker<T> {
    /// `put`: write the task, open the slot's next even era, advance `bot`.
    /// Owner-only; plain stores end to end (the single Release on `bot` is
    /// a store, not a fence or `cas`).
    pub fn push_bottom(&self, node: T) -> Result<(), PushError<T>> {
        let inner = &*self.inner;
        // Owner is bot's sole writer; coherence alone yields its own
        // latest value.
        let b = inner.bot.0.load(Ordering::Relaxed);
        if b as usize >= inner.claims.len() {
            return Err(PushError(node));
        }
        let slot = b as usize;
        // INV-FF-REUSE: Acquire pairs with the Release of the claimant's
        // `compare_exchange`, so our overwrite of `tasks[slot]` below
        // happens-after the claimant's read of the old occupant — we never
        // clobber a value a winner is still about to return. The walk-down
        // invariant (every index >= bot is claimed) guarantees the word is
        // odd here.
        let c = inner.claims[slot].load(Ordering::Acquire);
        debug_assert!(c & 1 == 1, "pushing onto a live slot");
        // Payload first; published by the era store below.
        inner.tasks[slot].store(node.to_word(), Ordering::Relaxed);
        // INV-FF-VAL (lower bound): a thief that Acquire-reads this even
        // era also observes the task store above.
        inner.claims[slot].store(c + 1, Ordering::Release);
        // INV-FF-HEAL: after a full drain `bot` returns to the walk-down
        // floor while `top` stays wherever the thieves left it; if we
        // didn't pull `top` back the new era would be unstealable (only
        // poppable) until `bot` grew past the stale `top`. A concurrent
        // slow thief can overwrite the heal with a stale advance — the
        // next push heals again, and in the window the deque is merely
        // steal-invisible, never incorrect (claims are ground truth).
        if inner.top.0.load(Ordering::Relaxed) > b {
            inner.top.0.store(b, Ordering::Relaxed);
        }
        // INV-FF-PUB: Release orders the era store (and every earlier
        // era's stores) before the index advance, so a thief that
        // Acquire-reads `bot > h` sees slot `h`'s current era word.
        inner.bot.0.store(b + 1, Ordering::Release);
        Ok(())
    }

    /// `take`: walk `bot` downward, claiming the newest unextracted task.
    /// Returns `None` only when every task this owner ever pushed has been
    /// extracted (by the owner or by thieves) — the hints can be
    /// arbitrarily stale and this still holds, because the walk consults
    /// only the claim words.
    pub fn pop_bottom(&self) -> Option<T> {
        let inner = &*self.inner;
        let mut b = inner.bot.0.load(Ordering::Relaxed);
        while b > 0 {
            let idx = b - 1;
            let slot = idx as usize;
            // INV-FF-HINT: retract before claiming so thieves stop
            // targeting the entry we are about to fight for. Relaxed: a
            // retraction publishes nothing; thieves that read the stale
            // larger value just lose the claim race below.
            inner.bot.0.store(idx, Ordering::Relaxed);
            // Slot `idx` is the highest index the owner ever pushed to
            // this slot, so the word is either this era (even — live) or
            // this era + 1 (odd — a thief won it).
            let c = inner.claims[slot].load(Ordering::Relaxed);
            if c & 1 == 0
                && inner.claims[slot]
                    .compare_exchange(c, c + 1, Ordering::AcqRel, Ordering::Relaxed)
                    .is_ok()
            {
                // Our own push wrote this payload; per-location coherence
                // suffices to read it back.
                return Some(T::from_word(inner.tasks[slot].load(Ordering::Relaxed)));
            }
            // A thief extracted it; keep walking down. Amortized O(1):
            // each index is walked past at most once per era.
            b = idx;
        }
        None
    }

    /// Best-effort size hint (may be stale under concurrent steals, and
    /// `top` may transiently exceed `bot`).
    pub fn len_hint(&self) -> usize {
        len_hint(&self.inner)
    }

    /// A new thief handle for this deque.
    pub fn stealer(&self) -> FenceFreeStealer<T> {
        FenceFreeStealer {
            inner: Arc::clone(&self.inner),
            cursor: 0,
        }
    }
}

impl<T: Word> FenceFreeStealer<T> {
    /// Guarded `steal`: the paper's read/write protocol for locating the
    /// oldest task, plus the one-shot claim `compare_exchange` that makes
    /// extraction exactly-once. Never aborts: there is no `cas` to lose
    /// and no lock to miss — the three outcomes are [`Steal::Taken`],
    /// [`Steal::Empty`], and [`Steal::Duplicate`] (lost the claim race for
    /// an item someone else extracted).
    pub fn steal(&self) -> Steal<T> {
        let inner = &*self.inner;
        // Hints. `top` is Relaxed (multi-writer plain stores, may regress
        // — every consequence is a counted non-event, see module docs);
        // `bot` is Acquire, pairing with INV-FF-PUB so that `h < b`
        // implies slot `h`'s era word for index `h` is visible.
        let h = inner.top.0.load(Ordering::Relaxed);
        let b = inner.bot.0.load(Ordering::Acquire);
        if h >= b {
            return Steal::Empty;
        }
        let slot = h as usize;
        // INV-FF-VAL (lower bound): Acquire pairs with the owner's
        // Release store of this even era, so the task read below returns
        // at least this era's payload.
        let c = inner.claims[slot].load(Ordering::Acquire);
        if c & 1 == 1 {
            // Already extracted (or a stale hint aimed us at a completed
            // era). Advance the hint past it and report the lost race.
            advance_top(inner, h);
            return Steal::Duplicate;
        }
        let v = inner.tasks[slot].load(Ordering::Relaxed);
        // The paper's plain-store advance — before the claim resolves, so
        // competing thieves move on to the next slot instead of piling
        // onto this one.
        advance_top(inner, h);
        // INV-FF-VAL (upper bound): if this succeeds, the slot's era was
        // still `c` — the owner opens era `c + 2` only after an Acquire
        // read of `c + 1` (INV-FF-REUSE), i.e. after this very exchange,
        // so the payload read above cannot have been a later era's value.
        // Release on success hands the claimant's reads to that Acquire.
        match inner.claims[slot].compare_exchange(c, c + 1, Ordering::AcqRel, Ordering::Relaxed) {
            Ok(_) => Steal::Taken(T::from_word(v)),
            Err(_) => Steal::Duplicate,
        }
    }

    /// Batched guarded steal: run the once-guard claim over a top range
    /// `[top, top + want)` under **one** `bot` Acquire and **one** final
    /// `top` hint store.
    ///
    /// Range claims are safe here by construction (INV-SB-GUARD): the
    /// per-slot claim word is the ground truth for extraction, so
    /// claiming a range is just `want` independent slot claims — there
    /// is no shared word whose stale read could hand two processes the
    /// same task. A slot inside the range that is already odd (or whose
    /// exchange loses) counts as a duplicate exactly as in
    /// [`steal`](FenceFreeStealer::steal); the batch never aborts. The
    /// single trailing hint store replaces `want` per-steal stores —
    /// legal because `top` is only a hint [INV-FF-HINT].
    pub fn steal_batch(&self, max: usize) -> StolenBatch<T> {
        let mut out = StolenBatch::empty();
        self.steal_batch_into(max, &mut out);
        out
    }

    /// [`steal_batch`](FenceFreeStealer::steal_batch) into a
    /// caller-owned buffer: `out` is cleared and refilled, so a reused
    /// buffer makes the grab allocation-free in steady state. The range
    /// is borrowed as two slices up front, paying the bounds checks
    /// once per grab instead of once per slot.
    pub fn steal_batch_into(&self, max: usize, out: &mut StolenBatch<T>) {
        out.clear();
        let inner = &*self.inner;
        // Hints, exactly as in `steal`: `h < b` publishes every era word
        // below `b` [INV-FF-PUB].
        let h = inner.top.0.load(Ordering::Relaxed);
        let b = inner.bot.0.load(Ordering::Acquire);
        if h >= b {
            return;
        }
        let avail = (b - h) as usize;
        let want = batch_want(avail, max);
        if want == 0 {
            // Zero-cap grab: touch nothing, not even the `top` hint — a
            // regressed hint would make rivals re-pay duplicates.
            return;
        }
        let end = h + want as u64;
        out.tasks.reserve(want);
        let claims = &inner.claims[h as usize..end as usize];
        let tasks = &inner.tasks[h as usize..end as usize];
        for (claim, task) in claims.iter().zip(tasks) {
            // INV-FF-VAL per slot, unchanged from the single steal.
            let c = claim.load(Ordering::Acquire);
            if c & 1 == 1 {
                out.duplicates += 1;
                continue;
            }
            let v = task.load(Ordering::Relaxed);
            match claim.compare_exchange(c, c + 1, Ordering::AcqRel, Ordering::Relaxed) {
                Ok(_) => out.tasks.push(T::from_word(v)),
                Err(_) => out.duplicates += 1,
            }
        }
        // One plain hint store for the whole range [INV-FF-HINT]; a
        // racing thief's stale store can regress it, which the next
        // grab re-pays as duplicates — a counted non-event.
        inner.top.0.store(end, Ordering::Relaxed);
    }

    /// The source paper's unguarded steal: reads plus a plain `top`
    /// advance, **no claim** — the same item can be extracted by several
    /// handles (multiplicity). Test-only surface for the multiplicity
    /// checkers; the runtime never calls this.
    ///
    /// The per-handle cursor realizes the paper's per-process bound: one
    /// handle never re-examines a slot, so a task is extracted at most
    /// once per handle (plus once by the owner, whose walk-down ignores
    /// raw extractions entirely). The bound is per *handle*: clone a new
    /// handle per thief.
    pub fn steal_relaxed(&mut self) -> Steal<T> {
        let inner = &*self.inner;
        let h = inner.top.0.load(Ordering::Relaxed).max(self.cursor);
        let b = inner.bot.0.load(Ordering::Acquire);
        if h >= b {
            return Steal::Empty;
        }
        let slot = h as usize;
        // INV-FF-PUB's Acquire on `bot` already published the payload for
        // index `h` (the task store is sequenced before the bot advance).
        let v = inner.tasks[slot].load(Ordering::Relaxed);
        self.cursor = h + 1;
        inner.top.0.store(h + 1, Ordering::Relaxed);
        Steal::Taken(T::from_word(v))
    }

    /// Best-effort size hint (may be stale).
    pub fn len_hint(&self) -> usize {
        len_hint(&self.inner)
    }
}

/// The paper's thief-side `top <- h + 1`: an unconditional plain store.
/// Slow thieves can regress the hint; see module docs.
fn advance_top<T: Word>(inner: &Inner<T>, h: u64) {
    inner.top.0.store(h + 1, Ordering::Relaxed);
}

fn len_hint<T: Word>(inner: &Inner<T>) -> usize {
    let b = inner.bot.0.load(Ordering::Relaxed);
    let t = inner.top.0.load(Ordering::Relaxed);
    b.saturating_sub(t) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use std::sync::atomic::AtomicBool;

    #[test]
    fn lifo_bottom_fifo_top() {
        let (w, s) = new_fence_free::<u64>(8);
        assert_eq!(w.pop_bottom(), None);
        assert_eq!(s.steal(), Steal::Empty);
        for v in 0..4 {
            w.push_bottom(v).unwrap();
        }
        assert_eq!(s.steal(), Steal::Taken(0));
        assert_eq!(w.pop_bottom(), Some(3));
        assert_eq!(s.steal(), Steal::Taken(1));
        assert_eq!(w.pop_bottom(), Some(2));
        assert_eq!(w.pop_bottom(), None);
        assert_eq!(s.steal(), Steal::Empty);
    }

    #[test]
    fn capacity_bounds_the_bottom_index_and_popping_reopens_it() {
        let (w, _s) = new_fence_free::<u64>(2);
        w.push_bottom(1).unwrap();
        w.push_bottom(2).unwrap();
        assert_eq!(w.push_bottom(3), Err(PushError(3)));
        assert_eq!(w.pop_bottom(), Some(2));
        // The walk-down freed index 1; the slot's era advances on reuse.
        w.push_bottom(4).unwrap();
        assert_eq!(w.pop_bottom(), Some(4));
        assert_eq!(w.pop_bottom(), Some(1));
        assert_eq!(w.pop_bottom(), None);
    }

    #[test]
    fn drained_slots_are_stealable_again_after_reuse() {
        let (w, s) = new_fence_free::<u64>(4);
        // Round 1: thieves drain everything; top ends at 2.
        w.push_bottom(10).unwrap();
        w.push_bottom(11).unwrap();
        assert_eq!(s.steal(), Steal::Taken(10));
        assert_eq!(s.steal(), Steal::Taken(11));
        assert_eq!(w.pop_bottom(), None); // owner walk-down resets bot to 0
                                          // Round 2: without INV-FF-HEAL the new era would be invisible to
                                          // thieves (top=2 > bot).
        w.push_bottom(20).unwrap();
        assert_eq!(s.steal(), Steal::Taken(20));
        assert_eq!(s.steal(), Steal::Empty);
    }

    #[test]
    fn raw_steal_duplicates_but_owner_drain_still_covers_everything() {
        let (w, s) = new_fence_free::<u64>(8);
        for v in 0..3 {
            w.push_bottom(v).unwrap();
        }
        // Two raw handles, both starting at cursor 0: genuine multiplicity.
        let mut t1 = s.clone();
        let mut t2 = s.clone();
        assert_eq!(t1.steal_relaxed(), Steal::Taken(0));
        // t2's view of top may already be advanced; rewind it to simulate
        // the race where both read top == 0.
        w.inner.top.0.store(0, Ordering::Relaxed);
        assert_eq!(t2.steal_relaxed(), Steal::Taken(0));
        // The cursor stops a single handle from re-extracting slot 0.
        w.inner.top.0.store(0, Ordering::Relaxed);
        assert_eq!(t1.steal_relaxed(), Steal::Taken(1));
        // Raw steals never claim, so the owner's guarded drain still
        // extracts every task exactly once.
        let mut drained = vec![];
        while let Some(v) = w.pop_bottom() {
            drained.push(v);
        }
        drained.sort_unstable();
        assert_eq!(drained, vec![0, 1, 2]);
    }

    #[test]
    fn guarded_extraction_is_exactly_once_under_a_thief_storm() {
        // 4 thieves race the owner for 20_000 tasks pushed in bursts;
        // every task must surface exactly once as Taken/popped, and raced
        // extractions must surface as Duplicate, never as a second Taken.
        const TASKS: u64 = 20_000;
        const THIEVES: usize = 4;
        let (w, s) = new_fence_free::<u64>(1 << 15);
        let done = Arc::new(AtomicBool::new(false));
        let handles: Vec<_> = (0..THIEVES)
            .map(|_| {
                let s = s.clone();
                let done = Arc::clone(&done);
                std::thread::spawn(move || {
                    let mut got = vec![];
                    let mut dups = 0u64;
                    loop {
                        match s.steal() {
                            Steal::Taken(v) => got.push(v),
                            Steal::Duplicate => dups += 1,
                            Steal::Abort => unreachable!("fence-free never aborts"),
                            Steal::Empty => {
                                if done.load(Ordering::Acquire) {
                                    break;
                                }
                                std::hint::spin_loop();
                            }
                        }
                    }
                    (got, dups)
                })
            })
            .collect();
        let mut popped = vec![];
        let mut v = 0;
        while v < TASKS {
            for _ in 0..64 {
                if v == TASKS {
                    break;
                }
                if w.push_bottom(v).is_ok() {
                    v += 1;
                } else {
                    // Ring full: drain a little.
                    if let Some(x) = w.pop_bottom() {
                        popped.push(x);
                    }
                }
            }
            if let Some(x) = w.pop_bottom() {
                popped.push(x);
            }
        }
        while let Some(x) = w.pop_bottom() {
            popped.push(x);
        }
        done.store(true, Ordering::Release);
        let mut counts: HashMap<u64, u32> = HashMap::new();
        for x in popped {
            *counts.entry(x).or_default() += 1;
        }
        for h in handles {
            let (got, _dups) = h.join().unwrap();
            for x in got {
                *counts.entry(x).or_default() += 1;
            }
        }
        assert_eq!(counts.len() as u64, TASKS, "every task extracted");
        for (task, n) in counts {
            assert_eq!(n, 1, "task {task} extracted {n} times");
        }
    }

    #[test]
    fn batch_claims_half_and_reports_claimed_slots_as_duplicates() {
        let (w, s) = new_fence_free::<u64>(16);
        for v in 0..8 {
            w.push_bottom(v).unwrap();
        }
        // An uncontended batch takes half the backlog in top order.
        let b = s.steal_batch(16);
        assert_eq!(b.tasks, vec![0, 1, 2, 3]);
        assert_eq!(b.duplicates, 0);
        assert!(!b.aborted, "fence-free never aborts");
        // Rewind the hint so the next batch rescans claimed slots: the
        // range walk surfaces them as duplicates, never a second Taken.
        w.inner.top.0.store(0, Ordering::Relaxed);
        let b = s.steal_batch(16);
        assert_eq!(b.tasks, Vec::<u64>::new());
        assert_eq!(b.duplicates, 4);
        // The trailing hint store healed top past the claimed prefix.
        let b = s.steal_batch(16);
        assert_eq!(b.tasks, vec![4, 5]);
        // Owner drains the rest exactly once.
        let mut rest = vec![];
        while let Some(v) = w.pop_bottom() {
            rest.push(v);
        }
        rest.sort_unstable();
        assert_eq!(rest, vec![6, 7]);
    }

    #[test]
    fn len_hint_tracks_roughly() {
        let (w, s) = new_fence_free::<u64>(8);
        assert_eq!(w.len_hint(), 0);
        w.push_bottom(1).unwrap();
        w.push_bottom(2).unwrap();
        assert_eq!(w.len_hint(), 2);
        assert_eq!(s.len_hint(), 2);
        let _ = s.steal();
        assert_eq!(w.len_hint(), 1);
    }
}
