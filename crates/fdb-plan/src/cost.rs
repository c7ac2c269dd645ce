//! The asymptotic cost measure for f-plans (Section 4.1 of the paper).
//!
//! The cost of an f-plan `f : T₀ ↦ T₁ ↦ … ↦ T_k` is `s(f) = max_i s(T_i)` —
//! the evaluation time is `O(|D|^{s(f)} log |D|)`, so the most expensive
//! intermediate f-tree dominates.  Plans are compared lexicographically:
//! first by `s(f)`, then by the cost `s(T_k)` of the result, then (as a
//! tie-breaker) by plan length.  (The paper's second, cardinality-estimate
//! measure is not implemented: no optimiser here ranks plans by it.)

use crate::fplan::FPlan;
use fdb_common::Result;
use fdb_ftree::{FTree, SCostMemo};

/// The cost of an f-plan under the asymptotic measure.
#[derive(Clone, Debug, PartialEq)]
pub struct FPlanCost {
    /// `s(f)`: the maximum `s(T_i)` over all intermediate trees (including
    /// the input and the final tree).
    pub max_intermediate: f64,
    /// `s(T_final)`: the cost of the result's f-tree.
    pub final_cost: f64,
    /// The cost of every intermediate tree, in order (input first).
    pub steps: Vec<f64>,
}

impl FPlanCost {
    /// The cost of a plan whose trees cost `steps`, input first.
    pub(crate) fn from_steps(steps: Vec<f64>) -> FPlanCost {
        FPlanCost {
            max_intermediate: steps.iter().copied().fold(0.0, f64::max),
            final_cost: *steps.last().expect("at least the input tree"),
            steps,
        }
    }

    /// Lexicographic comparison used by the optimisers: smaller
    /// `max_intermediate` first, then smaller `final_cost`, then fewer
    /// steps.
    pub fn better_than(&self, other: &FPlanCost) -> bool {
        let key = |c: &FPlanCost| (c.max_intermediate, c.final_cost, c.steps.len());
        key(self) < key(other)
    }
}

/// Computes the asymptotic cost of a plan on the given input f-tree, every
/// tree costed through the caller's memo (callers cost several plans over
/// related trees).
pub(crate) fn plan_cost_memo(
    plan: &FPlan,
    input: &FTree,
    memo: &mut SCostMemo,
) -> Result<FPlanCost> {
    let mut steps = Vec::with_capacity(plan.len() + 1);
    let mut tree = input.clone();
    steps.push(memo.s_cost(&tree)?);
    for op in &plan.ops {
        op.apply_to_tree(&mut tree)?;
        steps.push(memo.s_cost(&tree)?);
    }
    Ok(FPlanCost::from_steps(steps))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fplan::FPlanOp;
    use fdb_common::AttrId;
    use fdb_ftree::{s_cost, DepEdge};
    use std::collections::BTreeSet;

    fn attrs(ids: &[u32]) -> BTreeSet<AttrId> {
        ids.iter().map(|&i| AttrId(i)).collect()
    }

    /// Example 11 of the paper: dependency sets {A,B,C} and {D,E,F} with the
    /// f-tree {A,D} → (B → C, E → F).  Attribute ids A=0,B=1,C=2,D=3,E=4,F=5.
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
    fn example11_two_plans_have_costs_two_and_one() {
        let tree = example11_tree();
        assert!((s_cost(&tree).unwrap() - 1.0).abs() < 1e-6);
        let b = tree.node_of_attr(AttrId(1)).unwrap();
        let f = tree.node_of_attr(AttrId(5)).unwrap();

        // Plan 1: swap B with {A,D} (B becomes root), then absorb F into B.
        // Its intermediate tree has cost 2.
        let plan1 = FPlan::new(vec![FPlanOp::Swap(b), FPlanOp::Absorb(b, f)]);
        let mut memo = SCostMemo::new();
        let cost1 = plan_cost_memo(&plan1, &tree, &mut memo).unwrap();
        assert!(
            (cost1.max_intermediate - 2.0).abs() < 1e-6,
            "plan1 cost {cost1:?}"
        );
        assert!((cost1.final_cost - 1.0).abs() < 1e-6);

        // Plan 2: swap F with E, then merge F with B — all trees have cost 1.
        let plan2 = FPlan::new(vec![FPlanOp::Swap(f), FPlanOp::Merge(b, f)]);
        let cost2 = plan_cost_memo(&plan2, &tree, &mut memo).unwrap();
        assert!(
            (cost2.max_intermediate - 1.0).abs() < 1e-6,
            "plan2 cost {cost2:?}"
        );
        assert!((cost2.final_cost - 1.0).abs() < 1e-6);

        assert!(cost2.better_than(&cost1));
        assert!(!cost1.better_than(&cost2));
    }

    #[test]
    fn better_than_breaks_ties_on_final_cost_then_length() {
        let a = FPlanCost {
            max_intermediate: 2.0,
            final_cost: 1.0,
            steps: vec![1.0, 2.0, 1.0],
        };
        let b = FPlanCost {
            max_intermediate: 2.0,
            final_cost: 2.0,
            steps: vec![2.0, 2.0],
        };
        assert!(a.better_than(&b));
        let c = FPlanCost {
            max_intermediate: 2.0,
            final_cost: 1.0,
            steps: vec![1.0, 1.0],
        };
        assert!(c.better_than(&a));
    }
}
