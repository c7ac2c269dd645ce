//! Selection with a constant, `σ_{A θ c}`.
//!
//! The operator keeps only the entries of the `A`-node's unions whose value
//! satisfies the comparison, and prunes: entries whose product became empty
//! disappear, empty unions propagate upwards.  It has no rebuild of its own —
//! it **is** the one-operator overlay program `[FPlanOp::SelectConst]`
//! ([`crate::ops::fuse`]): one liveness sweep with the comparison evaluated
//! per union block, a walk that rebuilds only the unions the selection
//! dirtied, and an emission that copies every clean subtree whole.  For an
//! equality comparison the node is additionally marked as bound to the
//! constant: every remaining `A`-value equals `c`, so the node no longer
//! contributes to the size bound `s(T)`.

use crate::frep::FRep;
use crate::ops::fuse::{execute_fused_ctx, FPlanOp};
use fdb_common::{AttrId, ComparisonOp, ExecCtx, Result, Value};

/// Selection with constant `σ_{attr θ value}` on the representation.  On
/// error the representation is left exactly as it was.
pub fn select_const(rep: &mut FRep, attr: AttrId, op: ComparisonOp, value: Value) -> Result<()> {
    execute_fused_ctx(
        rep,
        &[FPlanOp::SelectConst { attr, op, value }],
        &ExecCtx::unlimited(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enumerate::materialize;
    use crate::node::{Entry, Union};
    use fdb_ftree::{DepEdge, FTree, NodeId};
    use std::collections::BTreeSet;

    fn attrs(ids: &[u32]) -> BTreeSet<AttrId> {
        ids.iter().map(|&i| AttrId(i)).collect()
    }

    /// A{0} → B{1}: A=1 → B{10,20}, A=2 → B{20}, A=3 → B{30,40}.
    fn sample() -> (FRep, NodeId, NodeId) {
        let edges = vec![DepEdge::new("R", attrs(&[0, 1]), 5)];
        let mut tree = FTree::new(edges);
        let a = tree.add_node(attrs(&[0]), None).unwrap();
        let b = tree.add_node(attrs(&[1]), Some(a)).unwrap();
        let entry = |v: u64, bs: &[u64]| Entry {
            value: Value::new(v),
            children: vec![Union::new(
                b,
                bs.iter().map(|&x| Entry::leaf(Value::new(x))).collect(),
            )],
        };
        let u = Union::new(
            a,
            vec![entry(1, &[10, 20]), entry(2, &[20]), entry(3, &[30, 40])],
        );
        (FRep::from_parts(tree, vec![u]).unwrap(), a, b)
    }

    #[test]
    fn equality_selection_binds_the_node() {
        let (mut rep, a, _) = sample();
        select_const(&mut rep, AttrId(0), ComparisonOp::Eq, Value::new(2)).unwrap();
        rep.validate().unwrap();
        assert_eq!(rep.tuple_count(), 1);
        assert_eq!(rep.tree().constant(a), Some(Value::new(2)));
        let flat = materialize(&rep).unwrap();
        assert_eq!(flat.row(0), &[Value::new(2), Value::new(20)]);
        // Binding the constant removes the node from the size bound.
        assert!((fdb_ftree::s_cost(rep.tree()).unwrap() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn range_selection_keeps_matching_entries() {
        let (mut rep, a, _) = sample();
        select_const(&mut rep, AttrId(0), ComparisonOp::Ge, Value::new(2)).unwrap();
        rep.validate().unwrap();
        assert_eq!(rep.tuple_count(), 3);
        assert_eq!(rep.tree().constant(a), None);
    }

    #[test]
    fn selection_on_an_inner_child_prunes_empty_parents() {
        let (mut rep, _, _) = sample();
        // Only B > 25 survives: the A=1 and A=2 entries must disappear.
        select_const(&mut rep, AttrId(1), ComparisonOp::Gt, Value::new(25)).unwrap();
        rep.validate().unwrap();
        assert_eq!(rep.root(0).len(), 1);
        assert_eq!(rep.root(0).entry(0).value(), Value::new(3));
        assert_eq!(rep.tuple_count(), 2);
    }

    #[test]
    fn selection_that_matches_nothing_empties_the_representation() {
        let (mut rep, _, _) = sample();
        select_const(&mut rep, AttrId(0), ComparisonOp::Eq, Value::new(99)).unwrap();
        rep.validate().unwrap();
        assert!(rep.represents_empty());
        assert_eq!(rep.size(), 0);
    }

    #[test]
    fn unknown_attribute_is_an_error() {
        let (mut rep, _, _) = sample();
        assert!(select_const(&mut rep, AttrId(9), ComparisonOp::Eq, Value::new(1)).is_err());
    }

    #[test]
    fn ne_selection_removes_a_single_value() {
        let (mut rep, _, _) = sample();
        let before = materialize(&rep).unwrap();
        select_const(&mut rep, AttrId(1), ComparisonOp::Ne, Value::new(20)).unwrap();
        rep.validate().unwrap();
        let after = materialize(&rep).unwrap();
        let col = before.col_index(AttrId(1)).unwrap();
        let expected: BTreeSet<Vec<Value>> = before
            .rows()
            .filter(|r| r[col] != Value::new(20))
            .map(|r| r.to_vec())
            .collect();
        assert_eq!(after.tuple_set(), expected);
    }
}
