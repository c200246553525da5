//! The OS kernel's view of this process — the paper's adversary — read
//! from `/proc/self/task/*/schedstat`: per thread, nanoseconds on a CPU
//! and nanoseconds runnable but waiting for one.

use std::collections::BTreeMap;
use std::fs;

/// Per-thread `(on_cpu_ns, run_delay_ns)` at one instant.
#[derive(Debug, Clone, Default)]
pub struct Sched {
    tasks: BTreeMap<u64, (u64, u64)>,
}

/// What every thread of the process did between two [`Sched`] snapshots.
#[derive(Debug, Clone, Copy, Default)]
pub struct SchedDelta {
    /// On-CPU time of every thread.
    pub cpu_ns: u64,
    /// On-CPU time of every thread except the benchmark's own — the
    /// generator (the thread that took the snapshots) and the reference
    /// helpers: the runtime's own CPU cost.
    pub runtime_cpu_ns: u64,
    /// Time threads were runnable but not running.
    pub run_delay_ns: u64,
}

/// The calling thread's kernel task id.
pub fn current_tid() -> u64 {
    fs::read_link("/proc/thread-self")
        .ok()
        .and_then(|p| p.file_name()?.to_str()?.parse().ok())
        .unwrap_or(0)
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// `CLOCK_THREAD_CPUTIME_ID` on Linux.
const CLOCK_THREAD_CPUTIME: i32 = 3;

/// The calling thread's on-CPU time in ns, exact to the call (a running
/// thread's `schedstat` lags by up to a scheduler tick).
pub fn thread_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec of the 64-bit Linux
    // layout; the call writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID)");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

impl Sched {
    /// Reads every live thread of the process. Threads that exit between
    /// the directory listing and the read are skipped.
    pub fn now() -> Sched {
        let mut tasks = BTreeMap::new();
        if let Ok(dir) = fs::read_dir("/proc/self/task") {
            for entry in dir.flatten() {
                let Some(tid) = entry.file_name().to_str().and_then(|s| s.parse().ok()) else {
                    continue;
                };
                let Ok(text) = fs::read_to_string(entry.path().join("schedstat")) else {
                    continue;
                };
                let mut fields = text
                    .split_whitespace()
                    .map(|f| f.parse::<u64>().unwrap_or(0));
                let cpu = fields.next().unwrap_or(0);
                let delay = fields.next().unwrap_or(0);
                tasks.insert(tid, (cpu, delay));
            }
        }
        Sched { tasks }
    }

    /// Time accrued since `earlier`; threads born in between count from
    /// zero, threads that died in between are lost (the benchmark keeps
    /// its threads alive across a measured phase).
    pub fn since(&self, earlier: &Sched, own_tids: &[u64]) -> SchedDelta {
        let mut d = SchedDelta::default();
        for (tid, &(cpu, delay)) in &self.tasks {
            let (cpu0, delay0) = earlier.tasks.get(tid).copied().unwrap_or((0, 0));
            let dc = cpu.saturating_sub(cpu0);
            d.cpu_ns += dc;
            if !own_tids.contains(tid) {
                d.runtime_cpu_ns += dc;
            }
            d.run_delay_ns += delay.saturating_sub(delay0);
        }
        d
    }
}
