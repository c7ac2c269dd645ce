//! Restructure-to-root planning for `ORDER BY`.
//!
//! The 2013 follow-up paper evaluates an ordering head on a factorised
//! representation by *restructuring* its f-tree so that the requested
//! attributes form a root-to-node path: once `A₁ … Aₖ` sit on a chain
//! starting at a root, ordered enumeration falls out of the cursor's slot
//! priority ([`fdb_frep::enumerate`]).  (Grouping needs no such path: the
//! aggregate fold of [`fdb_frep::aggregate`] groups by any attributes in
//! place, so the engine plans chains for `ORDER BY` only.)  Restructuring is
//! a sequence of the paper's swap operators `χ`, so it is itself an f-plan
//! and has an asymptotic cost under the `s(T)` measure — and sometimes that
//! cost is *worse* than just materialising the result and sorting it flat.
//!
//! This module makes that call.  [`plan_chain_restructure`] builds the
//! candidate swap plan (lifting each requested attribute's node to the root
//! of its tree, innermost attribute first), simulates it, and compares the
//! worst intermediate tree against the input:
//!
//! * the attributes already form a root path → [`ChainStrategy::AlreadyChain`]
//!   with an empty plan;
//! * a swap plan exists whose every intermediate tree costs no more than the
//!   input (`max_intermediate ≤ s(T_in)`) → [`ChainStrategy::Restructure`]
//!   with the plan;
//! * no chain is achievable (the attributes span independent trees, a swap
//!   is structurally impossible, or lifting one attribute drags another off
//!   the path) **or** the plan blows up an intermediate tree →
//!   [`ChainStrategy::FlatSort`]: the caller should materialise and sort
//!   flat instead.
//!
//! The decision is purely schema-level — only f-trees are simulated, no
//! data is touched — so the engine can make it per query at planning time
//! and cache it with the plan.

use fdb_common::{AttrId, FdbError, Result};
use fdb_frep::order_chain;
use fdb_ftree::{FTree, SCostMemo};

use crate::cost::plan_cost_memo;
use crate::fplan::{FPlan, FPlanOp};

/// How the engine should satisfy an ordering head.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChainStrategy {
    /// The attributes already form a root-to-node path in the input f-tree;
    /// no restructuring is needed.
    AlreadyChain,
    /// Apply [`ChainDecision::plan`] (a sequence of swaps) first; the
    /// attributes form a root path in the resulting tree and every
    /// intermediate tree is asymptotically no worse than the input.
    Restructure,
    /// No root-path restructuring is achievable at acceptable cost:
    /// materialise and sort instead.
    FlatSort,
}

/// The outcome of [`plan_chain_restructure`].
#[derive(Clone, Debug)]
pub struct ChainDecision {
    /// The chosen strategy.
    pub strategy: ChainStrategy,
    /// The swap plan to run first ([`ChainStrategy::Restructure`] only;
    /// empty otherwise).
    pub plan: FPlan,
}

impl ChainDecision {
    fn no_plan(strategy: ChainStrategy) -> ChainDecision {
        ChainDecision {
            strategy,
            plan: FPlan::empty(),
        }
    }
}

/// Plans how to bring `attrs` onto a root-to-node path of `tree`.
///
/// `attrs` is an attribute list in request order — the engine passes an
/// `ORDER BY` head, but any list plans the same way: the first
/// attribute must end up at a root, each following attribute on the same
/// node or a direct child of the previous one.  Every attribute must exist
/// in the tree and be visible (not projected away); unknown or invisible
/// attributes are an [`FdbError::AttributeNotInQuery`] — a planning bug,
/// not a data condition.  An empty `attrs` trivially returns
/// [`ChainStrategy::AlreadyChain`] with an empty plan.
///
/// The candidate plan lifts each attribute's node to the root of its tree
/// with repeated swaps, **innermost (last) attribute first**, so each
/// earlier attribute's lift stacks the later ones directly beneath it.
/// Lifting can fail to produce a chain — swapping `A₀` past an unrelated
/// node makes that node a child of `A₀`, and dependent children can be
/// dragged off the path — so the chain property is re-verified on the
/// simulated final tree rather than assumed.
pub fn plan_chain_restructure(tree: &FTree, attrs: &[AttrId]) -> Result<ChainDecision> {
    for &attr in attrs {
        let node = tree
            .node_of_attr(attr)
            .ok_or_else(|| FdbError::AttributeNotInQuery {
                attr: format!("{attr}"),
            })?;
        if !tree.visible_attrs(node).contains(&attr) {
            return Err(FdbError::AttributeNotInQuery {
                attr: format!("{attr} (projected away)"),
            });
        }
    }
    if attrs.is_empty() || order_chain(tree, attrs).is_some() {
        return Ok(ChainDecision::no_plan(ChainStrategy::AlreadyChain));
    }

    // Build the candidate plan by simulation: lift the last attribute's
    // node to its root, then the one before it, and so on.  Any swap the
    // tree refuses (or a final tree without the chain) means no root-path
    // restructuring exists along this strategy — fall back to flat sort.
    let mut work = tree.clone();
    let mut ops: Vec<FPlanOp> = Vec::new();
    for &attr in attrs.iter().rev() {
        // Re-resolve on the working tree: earlier lifts may have moved it.
        let node = work
            .node_of_attr(attr)
            .expect("attr verified above; swaps never drop nodes");
        while work.parent(node).is_some() {
            let op = FPlanOp::Swap(node);
            if op.apply_to_tree(&mut work).is_err() {
                return Ok(ChainDecision::no_plan(ChainStrategy::FlatSort));
            }
            ops.push(op);
        }
    }
    if order_chain(&work, attrs).is_none() {
        // Lifting succeeded but dependent children were dragged between
        // the chain nodes (or the attrs span independent trees — their
        // roots can never stack).
        return Ok(ChainDecision::no_plan(ChainStrategy::FlatSort));
    }

    let plan = FPlan::new(ops);
    let mut memo = SCostMemo::new();
    let input_cost = memo.s_cost(tree)?;
    let cost = plan_cost_memo(&plan, tree, &mut memo)?;
    if cost.max_intermediate <= input_cost {
        Ok(ChainDecision {
            strategy: ChainStrategy::Restructure,
            plan,
        })
    } else {
        Ok(ChainDecision::no_plan(ChainStrategy::FlatSort))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::FPlanCost;
    use fdb_ftree::DepEdge;
    use std::collections::BTreeSet;

    fn attrs(ids: &[u32]) -> BTreeSet<AttrId> {
        ids.iter().map(|&i| AttrId(i)).collect()
    }

    /// `s(T)` of `tree` and the cost of `plan` on it.
    fn costs(tree: &FTree, plan: &FPlan) -> (f64, FPlanCost) {
        let mut memo = SCostMemo::new();
        let input_cost = memo.s_cost(tree).unwrap();
        (input_cost, plan_cost_memo(plan, tree, &mut memo).unwrap())
    }

    /// The plan that swaps the node of `attr` up `swaps` times.
    fn lift(tree: &FTree, attr: u32, swaps: usize) -> FPlan {
        let node = tree.node_of_attr(AttrId(attr)).unwrap();
        FPlan::new(vec![FPlanOp::Swap(node); swaps])
    }

    /// A → B → C over one relation {A,B,C}: any of the three attributes can
    /// be lifted to the root for free (a path tree stays a path tree).
    fn path_tree() -> FTree {
        let edges = vec![DepEdge::new("R", attrs(&[0, 1, 2]), 10)];
        let mut t = FTree::new(edges);
        let a = t.add_node(attrs(&[0]), None).unwrap();
        let b = t.add_node(attrs(&[1]), Some(a)).unwrap();
        t.add_node(attrs(&[2]), Some(b)).unwrap();
        t
    }

    /// Example 11 of the paper: {A,D} → (B → C, E → F) over R1{A,B,C},
    /// R2{D,E,F}; s(T) = 1.
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
    fn existing_chains_need_no_plan() {
        let t = path_tree();
        for head in [vec![], vec![AttrId(0)], vec![AttrId(0), AttrId(1)]] {
            let d = plan_chain_restructure(&t, &head).unwrap();
            assert_eq!(d.strategy, ChainStrategy::AlreadyChain, "{head:?}");
            assert!(d.plan.is_empty());
        }
    }

    #[test]
    fn lifting_within_a_path_tree_is_free() {
        let t = path_tree();
        // ORDER BY B: one swap, every intermediate tree still a path.
        let d = plan_chain_restructure(&t, &[AttrId(1)]).unwrap();
        assert_eq!(d.strategy, ChainStrategy::Restructure);
        assert_eq!(d.plan.len(), 1);
        assert!(order_chain(&d.plan.final_tree(&t).unwrap(), &[AttrId(1)]).is_some());
        // ORDER BY (B, A): B to the root, A right under it.
        let d = plan_chain_restructure(&t, &[AttrId(1), AttrId(0)]).unwrap();
        assert_eq!(d.strategy, ChainStrategy::Restructure);
        let lifted = d.plan.final_tree(&t).unwrap();
        assert!(order_chain(&lifted, &[AttrId(1), AttrId(0)]).is_some());
        let (input_cost, cost) = costs(&t, &d.plan);
        assert!(cost.max_intermediate <= input_cost);
    }

    #[test]
    fn costly_lifts_fall_back_to_flat_sort() {
        // Lifting C above B in Example 11 breaks the A-D/B nesting: the
        // intermediate trees cost more than s(T_in) = 1, so the planner
        // must refuse the candidate (C swapped past B, then past {A,D}).
        let t = example11_tree();
        let d = plan_chain_restructure(&t, &[AttrId(2)]).unwrap();
        assert_eq!(d.strategy, ChainStrategy::FlatSort);
        assert!(d.plan.is_empty());
        let (input_cost, cost) = costs(&t, &lift(&t, 2, 2));
        assert!(cost.max_intermediate > input_cost);
        // The final tree is the *input* tree: no plan runs.
        assert_eq!(
            t.canonical_key(),
            d.plan.final_tree(&t).unwrap().canonical_key()
        );
    }

    #[test]
    fn independent_trees_cannot_chain() {
        // Two unconnected relations: their roots can never stack, so an
        // ordering across both has no root path whatever we swap.
        let edges = vec![
            DepEdge::new("R1", attrs(&[0]), 10),
            DepEdge::new("R2", attrs(&[1]), 10),
        ];
        let mut t = FTree::new(edges);
        t.add_node(attrs(&[0]), None).unwrap();
        t.add_node(attrs(&[1]), None).unwrap();
        let d = plan_chain_restructure(&t, &[AttrId(0), AttrId(1)]).unwrap();
        assert_eq!(d.strategy, ChainStrategy::FlatSort);
        assert!(d.plan.is_empty());
    }

    #[test]
    fn unknown_and_invisible_attributes_are_rejected() {
        let t = path_tree();
        assert!(matches!(
            plan_chain_restructure(&t, &[AttrId(9)]),
            Err(FdbError::AttributeNotInQuery { .. })
        ));
    }

    #[test]
    fn class_siblings_share_a_chain_node() {
        // ORDER BY (A, D) on Example 11: both live in the root class, so
        // the chain is already there.
        let t = example11_tree();
        let d = plan_chain_restructure(&t, &[AttrId(0), AttrId(3)]).unwrap();
        assert_eq!(d.strategy, ChainStrategy::AlreadyChain);
    }

    #[test]
    fn grouping_head_reuses_the_same_planner() {
        // GROUP BY E on Example 11: E does lift to the root in one swap,
        // but the lifted tree nests {A,D} (and everything below) under E —
        // the path E → {A,D} → B → C now touches both relations and costs
        // s = 2 > s(T_in) = 1, so the planner refuses the lift.
        let t = example11_tree();
        let d = plan_chain_restructure(&t, &[AttrId(4)]).unwrap();
        assert_eq!(d.strategy, ChainStrategy::FlatSort);
        let (input_cost, cost) = costs(&t, &lift(&t, 4, 1));
        assert!(cost.max_intermediate > input_cost);
        // GROUP BY B on the path tree: the same planner says yes there.
        let t = path_tree();
        let d = plan_chain_restructure(&t, &[AttrId(1)]).unwrap();
        assert_eq!(d.strategy, ChainStrategy::Restructure);
        assert!(order_chain(&d.plan.final_tree(&t).unwrap(), &[AttrId(1)]).is_some());
    }
}
