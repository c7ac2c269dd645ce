//! Greedy f-plan optimisation (Section 4.3 of the paper).
//!
//! The heuristic restricts the search in two ways: it only restructures the
//! nodes that participate in selection conditions, and it orders the
//! conditions greedily by the cost of their individual plans.  For each
//! condition `A = B` three restructuring scenarios are costed:
//!
//! 1. swap `A` upwards until it is an ancestor of `B`, then absorb;
//! 2. swap `B` upwards until it is an ancestor of `A`, then absorb;
//! 3. swap both upwards until they are siblings, then merge.
//!
//! The cheapest scenario becomes the condition's candidate plan; the
//! condition with the cheapest candidate is applied first, and the process
//! repeats on the resulting f-tree until no condition remains.  The overall
//! running time is polynomial in the size of the input f-tree, in contrast
//! to the exponential exhaustive search.

use crate::cost::{plan_cost_memo, FPlanCost};
use crate::fplan::{FPlan, FPlanOp};
use crate::optimizer::OptimizedPlan;
use fdb_common::{AttrId, FdbError, Result};
use fdb_ftree::{FTree, NodeId, SCostMemo};

/// The greedy f-plan optimiser.
#[derive(Clone, Copy, Debug, Default)]
pub struct GreedyOptimizer;

impl GreedyOptimizer {
    /// Creates a greedy optimiser.
    pub fn new() -> Self {
        GreedyOptimizer
    }

    /// Builds an f-plan enforcing the given equality conditions on an input
    /// over `input_tree`.
    pub fn optimize(
        &self,
        input_tree: &FTree,
        equalities: &[(AttrId, AttrId)],
    ) -> Result<OptimizedPlan> {
        super::check_equalities(input_tree, equalities)?;
        let mut tree = input_tree.clone();
        let mut overall = FPlan::empty();
        let mut remaining: Vec<(AttrId, AttrId)> = equalities.to_vec();
        let mut explored = 0usize;
        // One memo for every scenario costed below: they share most paths.
        let mut memo = SCostMemo::new();

        loop {
            // Conditions already satisfied (their attributes label the same
            // node) cost nothing and are simply dropped.
            remaining.retain(|&(a, b)| tree.node_of_attr(a) != tree.node_of_attr(b));
            if remaining.is_empty() {
                break;
            }
            // Cost the cheapest scenario of every remaining condition on the
            // current tree.
            let mut best: Option<(usize, FPlan, FPlanCost)> = None;
            for (idx, &(a, b)) in remaining.iter().enumerate() {
                let Some((candidate, cost)) = cheapest_scenario(&tree, a, b, &mut memo)? else {
                    continue;
                };
                explored += 3;
                let better = match &best {
                    None => true,
                    Some((_, _, best_cost)) => cost.better_than(best_cost),
                };
                if better {
                    best = Some((idx, candidate, cost));
                }
            }
            let Some((idx, plan, _)) = best else {
                return Err(FdbError::NoPlanFound {
                    detail: "greedy optimiser could not restructure for the remaining conditions"
                        .into(),
                });
            };
            remaining.remove(idx);
            // Apply the chosen condition's plan to the working tree and
            // append it to the overall plan.
            for op in &plan.ops {
                op.apply_to_tree(&mut tree)?;
            }
            overall.extend(plan);
            // Conditions already satisfied by side effects can be dropped.
            remaining.retain(|&(a, b)| tree.node_of_attr(a) != tree.node_of_attr(b));
        }

        let cost = plan_cost_memo(&overall, input_tree, &mut memo)?;
        Ok(OptimizedPlan {
            plan: overall,
            cost,
            explored_states: explored,
        })
    }
}

/// Builds the cheapest of the three restructuring scenarios for one equality
/// condition, with its cost, or `None` if the condition is already satisfied.
fn cheapest_scenario(
    tree: &FTree,
    a_attr: AttrId,
    b_attr: AttrId,
    memo: &mut SCostMemo,
) -> Result<Option<(FPlan, FPlanCost)>> {
    let na = tree.node_of_attr(a_attr).expect("checked by caller");
    let nb = tree.node_of_attr(b_attr).expect("checked by caller");
    if na == nb {
        return Ok(None);
    }
    let scenarios = [
        ancestor_scenario(tree, na, nb),
        ancestor_scenario(tree, nb, na),
        sibling_scenario(tree, na, nb),
    ];
    let mut best: Option<(FPlan, FPlanCost)> = None;
    for scenario in scenarios.into_iter().flatten() {
        let cost = plan_cost_memo(&scenario, tree, memo)?;
        let better = match &best {
            None => true,
            Some((_, best_cost)) => cost.better_than(best_cost),
        };
        if better {
            best = Some((scenario, cost));
        }
    }
    match best {
        Some(found) => Ok(Some(found)),
        None => Err(FdbError::NoPlanFound {
            detail: "no restructuring scenario applies to the condition".into(),
        }),
    }
}

/// Scenario: swap `anc` upwards until it is an ancestor of `desc`, then
/// absorb `desc` into it.  Returns `None` if `anc` can never become an
/// ancestor of `desc` (they live in different trees of the forest).
fn ancestor_scenario(tree: &FTree, anc: NodeId, desc: NodeId) -> Option<FPlan> {
    let mut work = tree.clone();
    let mut plan = FPlan::empty();
    let budget = work.node_count() + 1;
    for _ in 0..budget {
        if work.is_ancestor(anc, desc) {
            plan.push(FPlanOp::Absorb(anc, desc));
            return Some(plan);
        }
        work.parent(anc)?;
        work.swap_with_parent(anc).ok()?;
        plan.push(FPlanOp::Swap(anc));
    }
    None
}

/// Scenario: swap `a` and `b` upwards until they become siblings (children of
/// their lowest common ancestor, or both roots of the forest), then merge.
/// Returns `None` when one is an ancestor of the other (the ancestor
/// scenarios cover that case) or when they never become siblings.
fn sibling_scenario(tree: &FTree, a: NodeId, b: NodeId) -> Option<FPlan> {
    let mut work = tree.clone();
    let mut plan = FPlan::empty();
    let budget = 2 * work.node_count() + 2;
    for _ in 0..budget {
        if work.are_siblings(a, b) {
            plan.push(FPlanOp::Merge(a, b));
            return Some(plan);
        }
        if work.is_ancestor(a, b) || work.is_ancestor(b, a) {
            return None;
        }
        // Swap the deeper of the two upwards (ties: a).
        let (da, db) = (work.depth(a), work.depth(b));
        let target = if da >= db { a } else { b };
        if work.parent(target).is_none() {
            let other = if target == a { b } else { a };
            work.parent(other)?;
            work.swap_with_parent(other).ok()?;
            plan.push(FPlanOp::Swap(other));
            continue;
        }
        work.swap_with_parent(target).ok()?;
        plan.push(FPlanOp::Swap(target));
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::exhaustive::ExhaustiveOptimizer;
    use fdb_ftree::DepEdge;
    use std::collections::BTreeSet;

    fn attrs(ids: &[u32]) -> BTreeSet<AttrId> {
        ids.iter().map(|&i| AttrId(i)).collect()
    }

    /// Example 11: {A,D} → (B → C, E → F) with relations {A,B,C}, {D,E,F}.
    fn example11_tree() -> FTree {
        let edges = vec![
            DepEdge::new("R1", attrs(&[0, 1, 2]), 10),
            DepEdge::new("R2", attrs(&[3, 4, 5]), 10),
        ];
        let mut t = FTree::new(edges);
        let ad = t.add_node(attrs(&[0, 3]), None).unwrap();
        let b = t.add_node(attrs(&[1]), Some(ad)).unwrap();
        t.add_node(attrs(&[2]), Some(b)).unwrap();
        let e = t.add_node(attrs(&[4]), Some(ad)).unwrap();
        t.add_node(attrs(&[5]), Some(e)).unwrap();
        t
    }

    #[test]
    fn greedy_finds_the_cost_one_plan_for_example11() {
        let tree = example11_tree();
        let result = GreedyOptimizer::new()
            .optimize(&tree, &[(AttrId(1), AttrId(5))])
            .unwrap();
        assert!(
            (result.cost.max_intermediate - 1.0).abs() < 1e-6,
            "{:?}",
            result.cost
        );
        let final_tree = result.plan.final_tree(&tree).unwrap();
        assert_eq!(
            final_tree.node_of_attr(AttrId(1)),
            final_tree.node_of_attr(AttrId(5))
        );
    }

    #[test]
    fn greedy_handles_multiple_conditions() {
        let tree = example11_tree();
        let conditions = [(AttrId(1), AttrId(5)), (AttrId(2), AttrId(4))];
        let result = GreedyOptimizer::new().optimize(&tree, &conditions).unwrap();
        let final_tree = result.plan.final_tree(&tree).unwrap();
        for (a, b) in conditions {
            assert_eq!(final_tree.node_of_attr(a), final_tree.node_of_attr(b));
        }
        final_tree.check_path_constraint().unwrap();
    }

    #[test]
    fn greedy_is_never_better_than_exhaustive() {
        // On Example 11 with assorted condition sets, greedy's cost is at
        // least the exhaustive optimum (and usually equal).
        let tree = example11_tree();
        let condition_sets: Vec<Vec<(AttrId, AttrId)>> = vec![
            vec![(AttrId(1), AttrId(5))],
            vec![(AttrId(2), AttrId(4))],
            vec![(AttrId(1), AttrId(4))],
            vec![(AttrId(1), AttrId(5)), (AttrId(2), AttrId(4))],
        ];
        for conditions in condition_sets {
            let greedy = GreedyOptimizer::new().optimize(&tree, &conditions).unwrap();
            let exhaustive = ExhaustiveOptimizer::new()
                .optimize(&tree, &conditions)
                .unwrap();
            assert!(
                greedy.cost.max_intermediate + 1e-6 >= exhaustive.cost.max_intermediate,
                "greedy beat exhaustive on {conditions:?}"
            );
        }
    }

    #[test]
    fn satisfied_conditions_yield_the_empty_plan() {
        let tree = example11_tree();
        let result = GreedyOptimizer::new()
            .optimize(&tree, &[(AttrId(0), AttrId(3))])
            .unwrap();
        assert!(result.plan.is_empty());
    }

    #[test]
    fn conditions_across_forest_roots_are_merged_at_the_top() {
        let edges = vec![
            DepEdge::new("R", attrs(&[0, 1]), 5),
            DepEdge::new("S", attrs(&[2, 3]), 5),
        ];
        let mut tree = FTree::new(edges);
        let r_root = tree.add_node(attrs(&[0]), None).unwrap();
        tree.add_node(attrs(&[1]), Some(r_root)).unwrap();
        let s_root = tree.add_node(attrs(&[2]), None).unwrap();
        tree.add_node(attrs(&[3]), Some(s_root)).unwrap();
        // Join the two leaves: both must be swapped up to the top and merged.
        let result = GreedyOptimizer::new()
            .optimize(&tree, &[(AttrId(1), AttrId(3))])
            .unwrap();
        let final_tree = result.plan.final_tree(&tree).unwrap();
        assert_eq!(
            final_tree.node_of_attr(AttrId(1)),
            final_tree.node_of_attr(AttrId(3))
        );
        assert!(result.plan.len() >= 3, "two swaps plus a merge expected");
    }

    #[test]
    fn unknown_attributes_are_rejected() {
        let tree = example11_tree();
        assert!(GreedyOptimizer::new()
            .optimize(&tree, &[(AttrId(0), AttrId(70))])
            .is_err());
    }
}
