//! The push-up operator `ψ_B` and the normalisation operator `η`.
//!
//! Push-up factors a common subexpression out of a union: a child `B` of `A`
//! that `A` does not depend on is lifted, with its subtree, to be `A`'s
//! sibling.  Normalisation applies push-ups bottom-up until no node can be
//! lifted any further.  Neither has a rewriter of its own — they **are** the
//! one-operator overlay programs `[FPlanOp::PushUp]` and
//! `[FPlanOp::Normalise]`.  Which nodes normalisation lifts, and in what
//! order, is defined once on the tree ([`FTree::normalise`]); each push-up
//! is `push_up_step`, an edit of the one restructuring walk in
//! [`crate::ops::fuse`].

use crate::frep::FRep;
use crate::ops::fuse::{execute_fused_ctx, FPlanOp};
use fdb_common::{ExecCtx, Result};
use fdb_ftree::{FTree, NodeId, TreeEdit};

/// Push-up operator `ψ_B`: lifts node `b` (with its subtree) one level up in
/// both the f-tree and the representation.  On error the representation is
/// left exactly as it was.
pub fn push_up(rep: &mut FRep, b: NodeId) -> Result<()> {
    execute_fused_ctx(rep, &[FPlanOp::PushUp(b)], &ExecCtx::unlimited())
}

/// Normalisation operator `η`: applies push-ups bottom-up until the f-tree is
/// normalised.  Returns the nodes pushed up, in order (known from the tree
/// alone).
pub fn normalise(rep: &mut FRep) -> Result<Vec<NodeId>> {
    let pushed = pushed_by_normalise(&mut rep.tree().clone())?;
    execute_fused_ctx(rep, &[FPlanOp::Normalise], &ExecCtx::unlimited())?;
    Ok(pushed)
}

/// Normalises `tree` alone and returns the nodes it pushed up, in order.
pub(crate) fn pushed_by_normalise(tree: &mut FTree) -> Result<Vec<NodeId>> {
    let mut pushed = Vec::new();
    tree.normalise(|t, edit| {
        if let TreeEdit::PushUp(n) = edit {
            pushed.push(n);
        }
        t.apply_edit(edit)
    })?;
    Ok(pushed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enumerate::materialize;
    use crate::frep::{Entry, Union};
    use crate::ops::oracle;
    use fdb_common::{AttrId, Value};
    use fdb_ftree::{DepEdge, FTree};
    use std::collections::BTreeSet;

    fn attrs(ids: &[u32]) -> BTreeSet<AttrId> {
        ids.iter().map(|&i| AttrId(i)).collect()
    }

    /// A representation over the tree A{0} → B{1} where B does *not* depend
    /// on A (two separate unary relations):
    /// ⟨A:1⟩×(⟨B:5⟩∪⟨B:6⟩) ∪ ⟨A:2⟩×(⟨B:5⟩∪⟨B:6⟩).
    fn independent_pair() -> FRep {
        let edges = vec![
            DepEdge::new("R", attrs(&[0]), 2),
            DepEdge::new("S", attrs(&[1]), 2),
        ];
        let mut tree = FTree::new(edges);
        let a = tree.add_node(attrs(&[0]), None).unwrap();
        let b = tree.add_node(attrs(&[1]), Some(a)).unwrap();
        let b_union = || {
            Union::new(
                b,
                vec![Entry::leaf(Value::new(5)), Entry::leaf(Value::new(6))],
            )
        };
        let a_union = Union::new(
            a,
            vec![
                Entry {
                    value: Value::new(1),
                    children: vec![b_union()],
                },
                Entry {
                    value: Value::new(2),
                    children: vec![b_union()],
                },
            ],
        );
        FRep::from_parts(tree, vec![a_union]).unwrap()
    }

    #[test]
    fn push_up_factors_out_the_common_subexpression() {
        let mut rep = independent_pair();
        let before = materialize(&rep).unwrap().tuple_set();
        let size_before = rep.size(); // 2 A-singletons + 4 B-singletons = 6
        assert_eq!(size_before, 6);
        let b = rep.tree().node_of_attr(AttrId(1)).unwrap();
        push_up(&mut rep, b).unwrap();
        rep.validate().unwrap();
        // Now (⋃A) × (⋃B): 2 + 2 = 4 singletons, same represented relation.
        assert_eq!(rep.size(), 4);
        assert_eq!(rep.tree().roots().len(), 2);
        assert_eq!(materialize(&rep).unwrap().tuple_set(), before);
    }

    #[test]
    fn push_up_is_store_identical_to_the_oracle() {
        let rep = independent_pair();
        let b = rep.tree().node_of_attr(AttrId(1)).unwrap();
        let mut arena = rep.clone();
        let mut reference = rep;
        push_up(&mut arena, b).unwrap();
        oracle::push_up(&mut reference, b).unwrap();
        assert!(
            arena.store_identical(&reference),
            "arena:\n{}\noracle:\n{}",
            arena.dump_store(),
            reference.dump_store()
        );
    }

    #[test]
    fn push_up_is_rejected_when_dependent() {
        // A and B in the same relation: the B-unions under different A values
        // are genuinely different, so push-up must refuse.
        let edges = vec![DepEdge::new("R", attrs(&[0, 1]), 3)];
        let mut tree = FTree::new(edges);
        let a = tree.add_node(attrs(&[0]), None).unwrap();
        let b = tree.add_node(attrs(&[1]), Some(a)).unwrap();
        let a_union = Union::new(
            a,
            vec![Entry {
                value: Value::new(1),
                children: vec![Union::new(b, vec![Entry::leaf(Value::new(5))])],
            }],
        );
        let mut rep = FRep::from_parts(tree, vec![a_union]).unwrap();
        assert!(push_up(&mut rep, b).is_err());
        assert!(push_up(&mut rep, a).is_err()); // roots cannot be pushed up
    }

    #[test]
    fn normalise_reaches_a_normalised_tree_and_preserves_the_relation() {
        let mut rep = independent_pair();
        let before = materialize(&rep).unwrap().tuple_set();
        let applied = normalise(&mut rep).unwrap();
        assert_eq!(applied.len(), 1);
        assert!(rep.tree().is_normalised());
        rep.validate().unwrap();
        assert_eq!(materialize(&rep).unwrap().tuple_set(), before);
        // Normalising again is a no-op.
        assert!(normalise(&mut rep).unwrap().is_empty());
    }

    #[test]
    fn push_up_deeper_in_the_tree_keeps_context() {
        // Tree: C{2} → A{0} → B{1}; relations: {2,0} and {1} and {2}.
        // B is independent of A, so it can be pushed up to be a child of C;
        // the B-union must stay inside each C-entry.
        let edges = vec![
            DepEdge::new("RCA", attrs(&[2, 0]), 2),
            DepEdge::new("SB", attrs(&[1]), 1),
        ];
        let mut tree = FTree::new(edges);
        let c = tree.add_node(attrs(&[2]), None).unwrap();
        let a = tree.add_node(attrs(&[0]), Some(c)).unwrap();
        let b = tree.add_node(attrs(&[1]), Some(a)).unwrap();
        let make_b = || Union::new(b, vec![Entry::leaf(Value::new(9))]);
        let make_a = |vals: &[u64]| {
            Union::new(
                a,
                vals.iter()
                    .map(|&v| Entry {
                        value: Value::new(v),
                        children: vec![make_b()],
                    })
                    .collect(),
            )
        };
        let c_union = Union::new(
            c,
            vec![
                Entry {
                    value: Value::new(1),
                    children: vec![make_a(&[10, 11])],
                },
                Entry {
                    value: Value::new(2),
                    children: vec![make_a(&[12])],
                },
            ],
        );
        let mut rep = FRep::from_parts(tree, vec![c_union]).unwrap();
        let reference = rep.clone();
        let before = materialize(&rep).unwrap().tuple_set();
        assert_eq!(rep.size(), 8);
        push_up(&mut rep, b).unwrap();
        rep.validate().unwrap();
        assert_eq!(rep.tree().parent(b), Some(c));
        assert_eq!(materialize(&rep).unwrap().tuple_set(), before);
        // Size shrinks: the two B singletons under C=1 collapse into one.
        assert_eq!(rep.size(), 7);
        // Bit-for-bit what the thaw path would have built.
        let mut via_oracle = reference;
        oracle::push_up(&mut via_oracle, b).unwrap();
        assert!(rep.store_identical(&via_oracle));
    }
}
