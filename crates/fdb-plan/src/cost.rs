//! Cost measures for f-plans (Section 4.1 of the paper).
//!
//! Two measures are provided:
//!
//! * **Asymptotic bounds**: the cost of an f-plan `f : T₀ ↦ T₁ ↦ … ↦ T_k` is
//!   `s(f) = max_i s(T_i)` — the evaluation time is `O(|D|^{s(f)} log |D|)`,
//!   so the most expensive intermediate f-tree dominates.  Plans are compared
//!   lexicographically: first by `s(f)`, then by the cost `s(T_k)` of the
//!   result, then (as a tie-breaker) by plan length.
//! * **Cardinality estimates**: the size of an f-representation over `T` is
//!   `Σ_{A} |Q_anc(A)(D)|` over the attributes `A` of `T`, where `anc(A)` is
//!   the set of attribute classes from the root to `A`'s node.  Each term is
//!   estimated from the relation cardinalities and per-class distinct value
//!   counts with the classic System-R style formula.

use crate::fplan::FPlan;
use fdb_common::Result;
use fdb_ftree::{FTree, NodeId, SCostMemo};

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
        const EPS: f64 = 1e-9;
        if self.max_intermediate + EPS < other.max_intermediate {
            return true;
        }
        if self.max_intermediate > other.max_intermediate + EPS {
            return false;
        }
        if self.final_cost + EPS < other.final_cost {
            return true;
        }
        if self.final_cost > other.final_cost + EPS {
            return false;
        }
        self.steps.len() < other.steps.len()
    }
}

/// Computes the asymptotic cost of a plan on the given input f-tree.
pub fn plan_cost(plan: &FPlan, input: &FTree) -> Result<FPlanCost> {
    plan_cost_memo(plan, input, &mut SCostMemo::new())
}

/// [`plan_cost`] against a caller-held memo, for callers that cost several
/// plans over related trees.
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

/// Estimates the number of singletons of the f-representation of a query
/// result over `tree`, from the cardinalities stored on the dependency edges
/// and a per-node distinct-value estimate.
///
/// For each node `N`, the number of `N`-singletons equals the cardinality of
/// `π_{anc(N)}(Q)`; it is estimated as
///
/// ```text
/// min( Π_{M ∈ anc(N) ∪ {N}} ndv(M),
///      Π_{edges e touching anc(N) ∪ {N}} |e|  /  Π_{M joined by >1 edge} ndv(M)^(cover(M)−1) )
/// ```
///
/// i.e. the textbook join-size estimate capped by the product of distinct
/// counts, summed over all nodes (weighted by class size, since a node
/// labelled by `k` attributes contributes `k` singletons per combination).
pub fn estimate_frep_size<F>(tree: &FTree, ndv: F) -> f64
where
    F: Fn(NodeId) -> f64,
{
    let mut total = 0.0;
    for node in tree.node_ids() {
        let mut path: Vec<NodeId> = tree.ancestors(node);
        path.push(node);
        // Product of distinct counts along the path.
        let ndv_product: f64 = path.iter().map(|&n| ndv(n).max(1.0)).product();
        // Join-size estimate over the edges touching the path.
        let mut join_size = 1.0_f64;
        let mut seen_edge = vec![false; tree.edges().len()];
        for &n in &path {
            for e in tree.edges_of_node(n) {
                if !seen_edge[e] {
                    seen_edge[e] = true;
                    join_size *= tree.edges()[e].cardinality.max(1) as f64;
                }
            }
        }
        for &n in &path {
            let covering = tree.edges_of_node(n).len();
            if covering > 1 {
                join_size /= ndv(n).max(1.0).powi(covering as i32 - 1);
            }
        }
        let combinations = ndv_product.min(join_size).max(1.0);
        total += combinations * tree.visible_attrs(node).len() as f64;
    }
    total
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
        let cost1 = plan_cost(&plan1, &tree).unwrap();
        assert!(
            (cost1.max_intermediate - 2.0).abs() < 1e-6,
            "plan1 cost {cost1:?}"
        );
        assert!((cost1.final_cost - 1.0).abs() < 1e-6);

        // Plan 2: swap F with E, then merge F with B — all trees have cost 1.
        let plan2 = FPlan::new(vec![FPlanOp::Swap(f), FPlanOp::Merge(b, f)]);
        let cost2 = plan_cost(&plan2, &tree).unwrap();
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

    #[test]
    fn size_estimate_prefers_shallower_trees() {
        // Two independent unary relations of 100 tuples each: as a forest of
        // two roots the estimate is 200 singletons; as a chain it is
        // 100 + 100·100.
        let edges = vec![
            DepEdge::new("R", attrs(&[0]), 100),
            DepEdge::new("S", attrs(&[1]), 100),
        ];
        let mut forest = FTree::new(edges.clone());
        forest.add_node(attrs(&[0]), None).unwrap();
        forest.add_node(attrs(&[1]), None).unwrap();
        let mut chain = FTree::new(edges);
        let r = chain.add_node(attrs(&[0]), None).unwrap();
        chain.add_node(attrs(&[1]), Some(r)).unwrap();

        let ndv = |_: NodeId| 100.0;
        let forest_size = estimate_frep_size(&forest, ndv);
        let chain_size = estimate_frep_size(&chain, ndv);
        assert!((forest_size - 200.0).abs() < 1e-6);
        assert!(chain_size > forest_size);
    }

    #[test]
    fn size_estimate_caps_by_join_size() {
        // A single relation {A,B} of 50 tuples with 100 distinct values per
        // attribute: the number of B-singletons is bounded by the relation
        // size (50), not by 100 × 100.
        let edges = vec![DepEdge::new("R", attrs(&[0, 1]), 50)];
        let mut chain = FTree::new(edges);
        let a = chain.add_node(attrs(&[0]), None).unwrap();
        chain.add_node(attrs(&[1]), Some(a)).unwrap();
        let est = estimate_frep_size(&chain, |_| 100.0);
        assert!(est <= 100.0 + 50.0 + 1e-6);
    }
}
