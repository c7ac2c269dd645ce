//! Experiment drivers regenerating the paper's evaluation (Section 5).
//!
//! Each `expN` module reproduces one experiment of the paper and returns its
//! measurements as plain rows, so the same code backs the `experiments`
//! binary (which prints the tables used in `EXPERIMENTS.md`), the Criterion
//! benchmarks, and any ad-hoc analysis.
//!
//! | module | paper figure | what is measured |
//! |---|---|---|
//! | [`exp1`] | Figure 5 | optimisation time and cost `s(T)` of optimal f-trees for random queries on flat data |
//! | [`exp2`] | Figures 6 and 9 | f-plan and result costs, and optimisation times, of the full-search vs. greedy optimisers on factorised data |
//! | [`exp3`] | Figure 7 | result sizes and evaluation times of FDB vs. the RDB baseline on flat data (uniform, Zipf, combinatorial) |
//! | [`exp4`] | Figure 8 | result sizes and evaluation times of FDB vs. RDB for queries on factorised data |
//!
//! The comparator engines SQLite and PostgreSQL of the paper are not
//! re-implemented: RDB is the flat baseline every table measures.

#![warn(missing_docs)]

pub mod exp1;
pub mod exp2;
pub mod exp3;
pub mod exp4;
pub mod report;

/// Scale of an experiment run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// A quick run: fewer repetitions, smaller sweeps — finishes in a couple
    /// of minutes and still shows every trend.
    Quick,
    /// The full run used to fill in `EXPERIMENTS.md`.
    Full,
}

impl Scale {
    /// Number of repetitions per configuration (the paper averages over 5).
    pub fn repetitions(self) -> usize {
        match self {
            Scale::Quick => 2,
            Scale::Full => 5,
        }
    }
}
