//! Query optimisers for factorised data.
//!
//! * [`crate::optimal_ftree`] (re-exported from `fdb_ftree`, where it sits
//!   beside the `s(T)` memo it takes its path covers from) — finds an
//!   optimal f-tree (minimum `s(T)`) for a query over *flat* relational
//!   input, searching the space of normalised f-trees by recursive
//!   decomposition with memoisation (Experiment 1).
//! * [`exhaustive`] — finds an optimal f-plan for a conjunction of equality
//!   selections over *factorised* input by running Dijkstra over the space
//!   of f-trees reachable through f-plan operators (Section 4.2).
//! * [`greedy`] — the polynomial-time heuristic that restructures only the
//!   nodes participating in selection conditions and orders the conditions
//!   by the cost of their individual plans (Section 4.3).

pub mod exhaustive;
#[cfg(test)]
mod exhaustive_reference;
#[cfg(test)]
mod ftree_search;
pub mod greedy;

use crate::cost::FPlanCost;
use crate::fplan::FPlan;
use fdb_common::{AttrId, FdbError, Result};
use fdb_ftree::FTree;

/// Whether `tree` satisfies every equality: both attributes label one node.
fn is_goal(tree: &FTree, equalities: &[(AttrId, AttrId)]) -> bool {
    equalities
        .iter()
        .all(|(a, b)| tree.node_of_attr(*a) == tree.node_of_attr(*b))
}

/// Fails unless both attributes of every equality label a node of `tree`.
fn check_equalities(tree: &FTree, equalities: &[(AttrId, AttrId)]) -> Result<()> {
    let missing = |a: &AttrId| tree.node_of_attr(*a).is_none();
    match equalities.iter().find(|(a, b)| missing(a) || missing(b)) {
        Some((a, b)) => Err(FdbError::AttributeNotInQuery {
            attr: format!("{a} = {b}"),
        }),
        None => Ok(()),
    }
}

/// The outcome of f-plan optimisation: the chosen plan, its cost, and how
/// much of the search space was explored.
#[derive(Clone, Debug)]
pub struct OptimizedPlan {
    /// The chosen f-plan.
    pub plan: FPlan,
    /// Cost of the chosen plan under the asymptotic measure.
    pub cost: FPlanCost,
    /// Number of f-trees (states) examined by the optimiser; for the
    /// exhaustive search, the states settled before its answer was proven.
    pub explored_states: usize,
}
