//! F-plans and query optimisation for factorised databases.
//!
//! An *f-plan* is a sequence of f-plan operators (swap, merge, absorb,
//! push-up, selection with a constant, projection) that evaluates a
//! select-project-join query over a factorised representation.  This crate
//! provides:
//!
//! * the [`FPlan`] description of plans ([`fplan`]) — a list of
//!   [`FPlanOp`], the one operator type of the workspace, defined in
//!   `fdb_frep::ops` and re-exported here — their schema-level simulation
//!   on f-trees and their data-level execution on f-representations;
//! * the asymptotic cost measure of the paper's Section 4.1 ([`cost`]),
//!   based on the size-bound parameter `s(T)` of every intermediate f-tree;
//! * the optimisers ([`optimizer`]):
//!   - [`optimal_ftree`] finds an optimal (minimum `s(T)`) f-tree of a
//!     query over flat input — Experiment 1 of the paper (re-exported from
//!     `fdb_ftree`, which keys and solves every path cover);
//!   - [`optimizer::exhaustive`] runs Dijkstra over the space of normalised
//!     f-trees reachable by f-plan operators to find an optimal f-plan for a
//!     query over factorised input — Section 4.2;
//!   - [`optimizer::greedy`] is the polynomial-time heuristic of Section 4.3.

#![warn(missing_docs)]

pub mod cost;
pub mod fplan;
pub mod optimizer;
pub mod ordering;

pub use cost::FPlanCost;
pub use fdb_ftree::{optimal_ftree, FTreeSearchResult};
pub use fplan::{FPlan, FPlanOp};
pub use optimizer::exhaustive::ExhaustiveOptimizer;
pub use optimizer::greedy::GreedyOptimizer;
pub use optimizer::OptimizedPlan;
pub use ordering::{plan_chain_restructure, ChainDecision, ChainStrategy};

/// Compile-time pin of the frozen plan types' shareability: a plan produced
/// by the optimisers is immutable data that the serving layer caches behind
/// an `Arc` and hands to concurrent workers, so [`FPlan`] and friends must
/// stay `Send + Sync` (no `Rc`, no interior mutability).
#[allow(dead_code)]
fn _assert_send_sync<T: Send + Sync>() {}
const _: () = {
    #[allow(dead_code)]
    fn frozen_plan_types_are_shareable() {
        _assert_send_sync::<FPlan>();
        _assert_send_sync::<FPlanOp>();
        _assert_send_sync::<FPlanCost>();
        _assert_send_sync::<OptimizedPlan>();
    }
};
