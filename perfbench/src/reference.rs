//! The host-speed reference: a fixed piece of plain serial code — the
//! serial twin of a `forkjoin` round, recursive `fib` and the standard
//! library's `sort_unstable` — that calls into no repository crate, run
//! as one copy per pool worker side by side, each on its own thread.
//!
//! The closed-loop workloads run it right after every measured
//! operation, while the pool is idle, and report each operation's latency
//! and CPU time in units of the reference. A shared host's speed drifts
//! by tens of percent from one minute to the next (co-tenants, frequency,
//! vCPU steal, other processes on the same processors); the drift slows
//! the operation and the reference beside it alike and cancels from their
//! ratio, while a change to the repository's code moves only the
//! operation. The copies run side by side because the pool's workers do:
//! a processor taken away slows both.

use crate::forkjoin::{fib_counts, fib_serial};
use crate::os::{current_tid, thread_cpu_ns};
use crate::Scale;
use abp_dag::DetRng;
use std::hint::black_box;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// One copy of the reference work: copy the input into a buffer kept
/// across runs, sort it, and compute `fib` recursively.
struct Work {
    fib_n: u32,
    fib_expect: u64,
    input: Arc<Vec<u64>>,
    scratch: Vec<u64>,
}

impl Work {
    /// Runs once; this copy's `(wall, CPU)` time in ns.
    fn run(&mut self) -> (u64, u64) {
        let (t, c0) = (Instant::now(), thread_cpu_ns());
        self.scratch.copy_from_slice(&self.input);
        self.scratch.sort_unstable();
        let f = fib_serial(black_box(self.fib_n));
        let times = (t.elapsed().as_nanos() as u64, thread_cpu_ns() - c0);
        assert_eq!(f, self.fib_expect, "reference fib");
        black_box(&self.scratch);
        times
    }
}

struct Helper {
    go: Sender<()>,
    done: Receiver<(u64, u64)>,
    thread: JoinHandle<()>,
    tid: u64,
}

/// One reference run: the mean wall and CPU time of a copy. The mean,
/// not the slowest copy, because a work-stealing pool moves work off a
/// slowed processor.
#[derive(Debug, Clone, Copy)]
pub struct RefRun {
    pub wall_us: f64,
    pub cpu_us: f64,
}

pub struct Reference {
    own: Work,
    helpers: Vec<Helper>,
}

impl Reference {
    /// `copies` side-by-side copies: the calling thread runs one, helper
    /// threads (blocked between runs) the others.
    pub fn new(seed: u64, scale: Scale, copies: usize) -> Reference {
        let (fib_n, len) = match scale {
            Scale::Full => (28, 200_000),
            Scale::Tiny => (14, 4096),
        };
        let mut rng = DetRng::new(seed ^ 0x4EF);
        let input: Arc<Vec<u64>> = Arc::new((0..len).map(|_| rng.next_u64()).collect());
        let work = || Work {
            fib_n,
            fib_expect: fib_counts(fib_n).0,
            input: Arc::clone(&input),
            scratch: input.to_vec(),
        };
        let helpers = (1..copies.max(1))
            .map(|_| {
                let (go, go_rx) = channel::<()>();
                let (done_tx, done) = channel();
                let (tid_tx, tid_rx) = channel();
                let mut w = work();
                let thread = std::thread::spawn(move || {
                    if tid_tx.send(current_tid()).is_err() {
                        return;
                    }
                    while go_rx.recv().is_ok() {
                        if done_tx.send(w.run()).is_err() {
                            return;
                        }
                    }
                });
                let tid = tid_rx.recv().expect("reference helper started");
                Helper {
                    go,
                    done,
                    thread,
                    tid,
                }
            })
            .collect();
        Reference {
            own: work(),
            helpers,
        }
    }

    /// Kernel task ids of the helper threads, whose CPU time is the
    /// reference's, not the runtime's.
    pub fn helper_tids(&self) -> Vec<u64> {
        self.helpers.iter().map(|h| h.tid).collect()
    }

    pub fn run(&mut self) -> RefRun {
        for h in &self.helpers {
            h.go.send(()).expect("reference helper alive");
        }
        let (mut wall, mut cpu) = self.own.run();
        for h in &self.helpers {
            let (w, c) = h.done.recv().expect("reference helper finished");
            wall += w;
            cpu += c;
        }
        let copies = (self.helpers.len() + 1) as f64;
        RefRun {
            wall_us: wall as f64 / 1e3 / copies,
            cpu_us: cpu as f64 / 1e3 / copies,
        }
    }
}

impl Drop for Reference {
    /// Stops every helper thread and waits for it to end.
    fn drop(&mut self) {
        for h in self.helpers.drain(..) {
            drop(h.go);
            let _ = h.thread.join();
        }
    }
}
