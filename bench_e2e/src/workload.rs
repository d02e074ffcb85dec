//! The benchmark's workloads: which subjects each repairs, and with which
//! pinned configuration. `workloads.json` next to this crate records why
//! each was chosen and which metrics it is expected to move.

use cpr_core::RepairConfig;

/// Iteration budget of the paper workloads (the ROADMAP baseline probe's).
pub const PAPER_ITERATIONS: usize = 60;
/// Iteration budget of `explore_deep`: large enough that the anytime loop,
/// not Phase 1, takes most of the wall time on its subjects.
pub const DEEP_ITERATIONS: usize = 400;

/// Which registry subjects a workload repairs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Selection {
    /// Every subject the registry does not mark `not_supported`.
    Runnable,
    /// The runnable subjects whose golden report at
    /// [`PAPER_ITERATIONS`] stopped on the iteration budget: those the
    /// paper workload leaves with exploration still to do.
    BudgetBound,
}

/// One workload: a sequential pass over its subjects in one process.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name passed as `--workload`.
    pub name: &'static str,
    /// Subjects repaired.
    pub selection: Selection,
    /// `RepairConfig::max_iterations`.
    pub iterations: usize,
    /// `RepairConfig::threads`.
    pub threads: usize,
}

/// Every workload the benchmark knows.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "paper_serial",
        selection: Selection::Runnable,
        iterations: PAPER_ITERATIONS,
        threads: 1,
    },
    Workload {
        name: "paper_parallel",
        selection: Selection::Runnable,
        iterations: PAPER_ITERATIONS,
        threads: 2,
    },
    Workload {
        name: "explore_deep",
        selection: Selection::BudgetBound,
        iterations: DEEP_ITERATIONS,
        threads: 1,
    },
];

impl Workload {
    /// The workload named `name`.
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// The repair configuration: the shipped defaults except for the knobs
    /// that would make a report depend on the machine or the environment.
    /// There is no wall-clock cap, so every report is a function of the
    /// subject alone, and the thread count is fixed rather than taken from
    /// the machine's parallelism.
    pub fn config(&self) -> RepairConfig {
        RepairConfig {
            max_iterations: self.iterations,
            max_millis: None,
            threads: self.threads,
            metrics: false,
            ..RepairConfig::default()
        }
    }

    /// File name of the golden fingerprints for this workload's budget.
    /// Workloads at the same budget share goldens: thread count must not
    /// change a report.
    pub fn golden_file(&self) -> String {
        golden_file(self.iterations)
    }
}

/// File name of the golden fingerprints at iteration budget `iterations`.
pub fn golden_file(iterations: usize) -> String {
    format!("golden/i{iterations}.txt")
}

/// A deterministic permutation of `0..n` per `(seed, pass)`: the subject
/// order of one pass. Reports do not depend on the order; only cache and
/// allocator state carried between subjects does.
pub fn order(n: usize, seed: u64, pass: u64) -> Vec<usize> {
    let mut state = seed ^ pass.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let mut next = move || {
        // splitmix64
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let mut v: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        v.swap(i, j);
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_is_a_seeded_permutation() {
        let a = order(43, 7, 0);
        assert_eq!(a, order(43, 7, 0));
        assert_ne!(a, order(43, 8, 0));
        assert_ne!(a, order(43, 7, 1));
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..43).collect::<Vec<_>>());
    }

    #[test]
    fn configs_pin_machine_dependent_knobs() {
        for w in WORKLOADS {
            let c = w.config();
            assert_eq!(c.max_millis, None, "{}", w.name);
            assert_eq!(c.threads, w.threads, "{}", w.name);
            assert_eq!(c.max_iterations, w.iterations, "{}", w.name);
        }
        // workloads.json records each resolved configuration; a changed
        // shipped default must be recorded there too.
        let recorded = include_str!("../workloads.json");
        for w in WORKLOADS {
            let debug = format!("{:?}", w.config());
            assert!(recorded.contains(&debug), "{}: {debug}", w.name);
        }
        let serial = Workload::by_name("paper_serial").unwrap();
        let parallel = Workload::by_name("paper_parallel").unwrap();
        assert_eq!(serial.golden_file(), parallel.golden_file());
    }
}
