//! The projection operator `π_Ā`.
//!
//! Projection replaces the singletons of every attribute outside the
//! projection list with the nullary singleton `⟨⟩`: projected-away
//! attributes are marked on their nodes, fully-projected leaves are removed,
//! and fully-projected inner nodes are swapped downwards until they are
//! leaves.  It has no rewriter of its own — it **is** the one-operator
//! overlay program `[FPlanOp::Project]`.  The sequence of removals and
//! swap-downs is defined once on the tree ([`fdb_ftree::FTree::project`]);
//! `edit_step` in [`crate::ops::fuse`] runs each one on the overlay.

use crate::frep::FRep;
use crate::ops::fuse::{execute_fused_ctx, FPlanOp};
use fdb_common::{AttrId, ExecCtx, Result};
use std::collections::BTreeSet;

/// Projection operator `π_keep`: projects the representation onto the given
/// attributes.  Attributes in `keep` that do not occur in the representation
/// are ignored.
pub fn project(rep: &mut FRep, keep: &BTreeSet<AttrId>) -> Result<()> {
    execute_fused_ctx(
        rep,
        &[FPlanOp::Project(keep.clone())],
        &ExecCtx::unlimited(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enumerate::materialize;
    use crate::frep::{Entry, Union};
    use crate::ops::oracle;
    use fdb_common::Value;
    use fdb_ftree::{DepEdge, FTree};

    fn attrs(ids: &[u32]) -> BTreeSet<AttrId> {
        ids.iter().map(|&i| AttrId(i)).collect()
    }

    /// A{0} → B{1} → C{2} over relations {0,1} and {1,2}; projections of a
    /// two-step chain.
    fn chain() -> FRep {
        let edges = vec![
            DepEdge::new("RAB", attrs(&[0, 1]), 3),
            DepEdge::new("RBC", attrs(&[1, 2]), 3),
        ];
        let mut tree = FTree::new(edges);
        let a = tree.add_node(attrs(&[0]), None).unwrap();
        let b = tree.add_node(attrs(&[1]), Some(a)).unwrap();
        let c = tree.add_node(attrs(&[2]), Some(b)).unwrap();
        let b_entry = |v: u64, cs: &[u64]| Entry {
            value: Value::new(v),
            children: vec![Union::new(
                c,
                cs.iter().map(|&x| Entry::leaf(Value::new(x))).collect(),
            )],
        };
        let u = Union::new(
            a,
            vec![
                Entry {
                    value: Value::new(1),
                    children: vec![Union::new(
                        b,
                        vec![b_entry(10, &[100, 200]), b_entry(11, &[100])],
                    )],
                },
                Entry {
                    value: Value::new(2),
                    children: vec![Union::new(b, vec![b_entry(10, &[300])])],
                },
            ],
        );
        FRep::from_parts(tree, vec![u]).unwrap()
    }

    fn project_reference(rep: &FRep, keep: &[u32]) -> BTreeSet<Vec<Value>> {
        let keep_attrs: Vec<AttrId> = keep.iter().map(|&i| AttrId(i)).collect();
        materialize(rep)
            .unwrap()
            .project_distinct(&keep_attrs)
            .unwrap()
            .tuple_set()
    }

    /// The arena-native projection must match the thaw-path oracle store for
    /// store, tree shape and represented relation.
    fn check_against_oracle(rep: &FRep, keep: &BTreeSet<AttrId>) {
        let mut arena = rep.clone();
        let mut reference = rep.clone();
        project(&mut arena, keep).unwrap();
        oracle::project(&mut reference, keep).unwrap();
        assert!(
            arena.store_identical(&reference),
            "keep {keep:?}: arena:\n{}\noracle:\n{}",
            arena.dump_store(),
            reference.dump_store()
        );
    }

    #[test]
    fn projecting_away_a_leaf_removes_it() {
        let mut rep = chain();
        let expected = project_reference(&rep, &[0, 1]);
        check_against_oracle(&rep, &attrs(&[0, 1]));
        project(&mut rep, &attrs(&[0, 1])).unwrap();
        rep.validate().unwrap();
        assert_eq!(rep.tree().node_count(), 2);
        assert_eq!(rep.visible_attrs(), vec![AttrId(0), AttrId(1)]);
        assert_eq!(materialize(&rep).unwrap().tuple_set(), expected);
    }

    #[test]
    fn projecting_away_an_inner_node_preserves_the_correlation() {
        // Project away B: A and C stay transitively dependent — the result
        // must be exactly π_{A,C} of the chain, not the cross product.
        let mut rep = chain();
        let expected = project_reference(&rep, &[0, 2]);
        check_against_oracle(&rep, &attrs(&[0, 2]));
        project(&mut rep, &attrs(&[0, 2])).unwrap();
        rep.validate().unwrap();
        assert_eq!(rep.visible_attrs(), vec![AttrId(0), AttrId(2)]);
        assert_eq!(materialize(&rep).unwrap().tuple_set(), expected);
        // (1, 100), (1, 200), (2, 300): the pair (2, 100) must NOT appear.
        assert_eq!(rep.tuple_count(), 3);
    }

    #[test]
    fn projecting_everything_away_leaves_the_nullary_relation() {
        let mut rep = chain();
        check_against_oracle(&rep, &BTreeSet::new());
        project(&mut rep, &BTreeSet::new()).unwrap();
        rep.validate().unwrap();
        assert!(rep.tree().is_empty());
        assert_eq!(rep.tuple_count(), 1); // the nullary tuple ⟨⟩
        assert_eq!(rep.size(), 0);
    }

    #[test]
    fn identity_projection_is_a_no_op() {
        let mut rep = chain();
        let before = materialize(&rep).unwrap().tuple_set();
        let size = rep.size();
        project(&mut rep, &attrs(&[0, 1, 2])).unwrap();
        assert_eq!(rep.size(), size);
        assert_eq!(materialize(&rep).unwrap().tuple_set(), before);
    }

    #[test]
    fn projection_onto_the_middle_attribute_only() {
        let mut rep = chain();
        let expected = project_reference(&rep, &[1]);
        check_against_oracle(&rep, &attrs(&[1]));
        project(&mut rep, &attrs(&[1])).unwrap();
        rep.validate().unwrap();
        assert_eq!(materialize(&rep).unwrap().tuple_set(), expected);
        assert_eq!(rep.tuple_count(), 2); // values 10 and 11
    }
}
