//! Measurements collected from a simulated execution.

use abp_core::Counters;
use std::fmt;
use std::ops::Deref;

/// Everything measured over one run of the simulated work stealer.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Number of kernel rounds until the final node executed.
    pub rounds: u64,
    /// Σ pᵢ — total process-rounds granted by the kernel.
    pub proc_rounds: u64,
    /// Total instructions actually executed across all processes.
    pub instructions: u64,
    /// Wall-clock steps: Σ over rounds of the longest quantum granted in
    /// that round (scheduled processes run in parallel within a round).
    pub wall_steps: u64,
    /// The processor average `P_A = proc_rounds / rounds` (Equation 1,
    /// in round units).
    pub pa: f64,
    /// The computation's work `T₁`.
    pub work: u64,
    /// The computation's critical-path length `T∞`.
    pub critical_path: u64,
    /// The process count `P`.
    pub procs: usize,
    /// Nodes executed (equals `work` on a completed run): `counters.jobs`,
    /// kept as its own field for readers of the flat report.
    pub executed: u64,
    /// Pool count `K` of the topology the run used (1 = flat).
    pub pools: usize,
    /// Every steal, yield and job counter of the run, summed over the
    /// pools. `RunReport` dereferences to it, so `r.steal_attempts`,
    /// `r.steals` and `r.attempts_balance()` read straight through.
    pub counters: Counters,
    /// Steal attempts that were *throws*: completed at their process's
    /// second milestone in a round (§4.1).
    pub throws: u64,
    /// Identity of the scheduling-policy configuration that produced this
    /// run, `"victim+backoff+idle/yield-policy"` (e.g. the paper default
    /// is `"uniform+yield+spin/to-all"`).
    pub policy: String,
    /// True if the computation ran to completion (vs. hitting the round
    /// cap).
    pub completed: bool,
    /// Structural-lemma violations observed (must be 0).
    pub structural_violations: u64,
    /// Potential-function increases observed (must be 0).
    pub potential_violations: u64,
    /// Scheduled process-rounds that achieved fewer than two milestones
    /// (must be 0 when quanta are ≥ 2C).
    pub milestone_violations: u64,
    /// Potential-function phase statistics (Lemma 8), if tracked.
    pub phases: Option<PhaseStats>,
    /// Cache-model counters, if the LRU model was enabled.
    pub cache: Option<crate::cache::CacheStats>,
    /// Full per-round activity trace, if requested.
    pub trace: Option<crate::trace::Trace>,
}

impl RunReport {
    /// The denominator of the paper's bound: `T₁/P_A + T∞·P/P_A`, in
    /// node-execution units.
    pub fn bound_denominator(&self) -> f64 {
        let pa = self.pa.max(f64::MIN_POSITIVE);
        self.work as f64 / pa + self.critical_path as f64 * self.procs as f64 / pa
    }

    /// Execution time (in rounds) divided by the bound denominator — the
    /// empirical "hidden constant" of the `O(T₁/P_A + T∞·P/P_A)` bound, in
    /// rounds per node-step. Comparable across runs of the same simulator
    /// configuration.
    pub fn bound_ratio(&self) -> f64 {
        self.rounds as f64 / self.bound_denominator()
    }

    /// `T₁ / (P_A · T)` in round units: how close the execution came to
    /// perfect linear speedup over the processors actually received. The
    /// maximum achievable value is `1/q` where `q` is the per-round
    /// quantum, since each node costs one instruction of a quantum.
    pub fn utilization(&self) -> f64 {
        self.work as f64 / (self.pa.max(f64::MIN_POSITIVE) * self.rounds as f64)
    }
}

impl Deref for RunReport {
    type Target = Counters;

    fn deref(&self) -> &Counters {
        &self.counters
    }
}

impl fmt::Display for RunReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "rounds {} | P {} | P_A {:.2} | T1 {} | Tinf {} | throws {} | steals {}/{} | ratio {:.3}{}",
            self.rounds,
            self.procs,
            self.pa,
            self.work,
            self.critical_path,
            self.throws,
            self.steals,
            self.steal_attempts,
            self.bound_ratio(),
            if self.completed { "" } else { " [INCOMPLETE]" }
        )
    }
}

/// Lemma-8 phase statistics: execution divided into phases of ≥ P throws;
/// a phase "succeeds" if the potential drops by at least a 1/4 fraction.
#[derive(Debug, Clone, Default)]
pub struct PhaseStats {
    /// Phases observed.
    pub phases: u64,
    /// Phases in which `Φ_end ≤ (3/4)·Φ_start`.
    pub successful: u64,
}

impl PhaseStats {
    /// Empirical success probability (Lemma 8 proves > 1/4).
    pub fn success_rate(&self) -> f64 {
        if self.phases == 0 {
            return 0.0;
        }
        self.successful as f64 / self.phases as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy() -> RunReport {
        RunReport {
            rounds: 100,
            proc_rounds: 400,
            instructions: 12_000,
            wall_steps: 3_200,
            pa: 4.0,
            work: 1_000,
            critical_path: 50,
            procs: 8,
            executed: 1_000,
            pools: 1,
            counters: Counters {
                jobs: 1_000,
                steal_attempts: 60,
                steals: 30,
                aborts: 10,
                empties: 20,
                yields: 60,
                ..Counters::default()
            },
            throws: 55,
            policy: "uniform+yield+spin/to-all".to_string(),
            completed: true,
            structural_violations: 0,
            potential_violations: 0,
            milestone_violations: 0,
            phases: None,
            cache: None,
            trace: None,
        }
    }

    #[test]
    fn bound_math() {
        let r = dummy();
        // T1/PA + Tinf*P/PA = 250 + 100 = 350.
        assert!((r.bound_denominator() - 350.0).abs() < 1e-9);
        assert!((r.bound_ratio() - 100.0 / 350.0).abs() < 1e-9);
        assert!((r.utilization() - 1000.0 / 400.0).abs() < 1e-9);
    }

    #[test]
    fn phase_stats_rate() {
        let p = PhaseStats {
            phases: 8,
            successful: 6,
        };
        assert!((p.success_rate() - 0.75).abs() < 1e-9);
        assert_eq!(PhaseStats::default().success_rate(), 0.0);
    }

    #[test]
    fn reads_through_to_its_counters() {
        let r = dummy();
        assert!(r.steal_accounting_balanced());
        assert!((r.steal_success_rate() - 0.5).abs() < 1e-9);
        assert_eq!(r.steal_attempts, r.counters.steal_attempts);
    }
}
