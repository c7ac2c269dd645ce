//! The absorb selection operator `α_{A,B}`.
//!
//! Absorb enforces an equality `A = B` when the node `B` is a *descendant*
//! of the node `A`: inside the subtree of every `A`-value each `B`-union is
//! restricted to that value and spliced out, emptied products are pruned
//! away, and — as in the paper — the operator finishes with a normalisation
//! step.  It has no rewriter of its own — it **is** the one-operator overlay
//! program `[FPlanOp::Absorb]`; the operator's definition is on
//! `absorb_step` in [`crate::ops::fuse`], an edit of the one restructuring
//! walk there.

use crate::frep::FRep;
use crate::ops::fuse::{execute_fused_ctx, FPlanOp};
use crate::ops::restructure::pushed_by_normalise;
use fdb_common::{ExecCtx, Result};
use fdb_ftree::NodeId;

/// Absorb operator `α_{A,B}` where `a` is an ancestor of `b`: enforces
/// `A = B`, fuses `b` into `a` and normalises.  Returns the nodes pushed up
/// by the final normalisation step (known from the tree alone).  On error
/// the representation is left exactly as it was.
pub fn absorb(rep: &mut FRep, a: NodeId, b: NodeId) -> Result<Vec<NodeId>> {
    let mut tree = rep.tree().clone();
    tree.absorb_into_ancestor(a, b)?;
    let pushed = pushed_by_normalise(&mut tree)?;
    execute_fused_ctx(rep, &[FPlanOp::Absorb(a, b)], &ExecCtx::unlimited())?;
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

    /// Tree A{0} → B{1} → C{2} with relations {0,1} and {1,2}; the data is a
    /// two-step chain.  Absorbing C into A keeps only the chains whose two
    /// endpoints are equal.
    fn chain_rep() -> FRep {
        let edges = vec![
            DepEdge::new("RAB", attrs(&[0, 1]), 4),
            DepEdge::new("RBC", attrs(&[1, 2]), 4),
        ];
        let mut tree = FTree::new(edges);
        let a = tree.add_node(attrs(&[0]), None).unwrap();
        let b = tree.add_node(attrs(&[1]), Some(a)).unwrap();
        let c = tree.add_node(attrs(&[2]), Some(b)).unwrap();
        let b_entry = |bv: u64, cs: &[u64]| Entry {
            value: Value::new(bv),
            children: vec![Union::new(
                c,
                cs.iter().map(|&v| Entry::leaf(Value::new(v))).collect(),
            )],
        };
        // A=1: B∈{10 → C {1,3}, 11 → C {2}};  A=2: B∈{10 → C {1,3}}.
        let a_union = Union::new(
            a,
            vec![
                Entry {
                    value: Value::new(1),
                    children: vec![Union::new(b, vec![b_entry(10, &[1, 3]), b_entry(11, &[2])])],
                },
                Entry {
                    value: Value::new(2),
                    children: vec![Union::new(b, vec![b_entry(10, &[1, 3])])],
                },
            ],
        );
        FRep::from_parts(tree, vec![a_union]).unwrap()
    }

    #[test]
    fn absorb_keeps_only_matching_values() {
        let mut rep = chain_rep();
        let reference = rep.clone();
        let a = rep.tree().node_of_attr(AttrId(0)).unwrap();
        let c = rep.tree().node_of_attr(AttrId(2)).unwrap();
        // Reference: flat tuples with A = C.
        let expected: BTreeSet<Vec<Value>> = materialize(&rep)
            .unwrap()
            .rows()
            .filter(|r| r[0] == r[2])
            .map(|r| r.to_vec())
            .collect();
        absorb(&mut rep, a, c).unwrap();
        rep.validate().unwrap();
        assert_eq!(materialize(&rep).unwrap().tuple_set(), expected);
        // A and C are now one node labelled by both attributes.
        let merged = rep.tree().node_of_attr(AttrId(0)).unwrap();
        assert_eq!(merged, rep.tree().node_of_attr(AttrId(2)).unwrap());
        assert!(rep.tree().is_normalised());
        // Only the A=1 branch had C=1 below B=10; A=2 had C∈{1,3} ∌ 2.
        assert_eq!(rep.tuple_count(), 1);
        // Bit-for-bit what the thaw path would have built.
        let mut via_oracle = reference;
        oracle::absorb(&mut via_oracle, a, c).unwrap();
        assert!(
            rep.store_identical(&via_oracle),
            "arena:\n{}\noracle:\n{}",
            rep.dump_store(),
            via_oracle.dump_store()
        );
    }

    #[test]
    fn absorb_example10_pushes_independent_subtrees_up() {
        // Example 10: A{0} → {B,B'}{1,2} → {C,C'}{3,4} → D{5} with relations
        // {A,B}, {B',C}, {C',D}.  After absorbing {C,C'} into A, D no longer
        // depends on {B,B'}, so normalisation pushes D up under the merged
        // root.
        let edges = vec![
            DepEdge::new("R1", attrs(&[0, 1]), 2),
            DepEdge::new("R2", attrs(&[2, 3]), 2),
            DepEdge::new("R3", attrs(&[4, 5]), 2),
        ];
        let mut tree = FTree::new(edges);
        let a = tree.add_node(attrs(&[0]), None).unwrap();
        let bb = tree.add_node(attrs(&[1, 2]), Some(a)).unwrap();
        let cc = tree.add_node(attrs(&[3, 4]), Some(bb)).unwrap();
        let d = tree.add_node(attrs(&[5]), Some(cc)).unwrap();
        let cc_entry = |v: u64, ds: &[u64]| Entry {
            value: Value::new(v),
            children: vec![Union::new(
                d,
                ds.iter().map(|&x| Entry::leaf(Value::new(x))).collect(),
            )],
        };
        let bb_entry = |v: u64, ccs: Vec<Entry>| Entry {
            value: Value::new(v),
            children: vec![Union::new(cc, ccs)],
        };
        // The D-values are a function of the C-value alone (D is tied to C'
        // by R3), as in any factorisation of σ(R1 × R2 × R3): C=1 pairs with
        // D ∈ {100, 101} and C=2 pairs with D ∈ {200} wherever they occur.
        let a_union = Union::new(
            a,
            vec![
                Entry {
                    value: Value::new(1),
                    children: vec![Union::new(
                        bb,
                        vec![
                            bb_entry(10, vec![cc_entry(1, &[100, 101]), cc_entry(2, &[200])]),
                            bb_entry(11, vec![cc_entry(1, &[100, 101])]),
                        ],
                    )],
                },
                Entry {
                    value: Value::new(2),
                    children: vec![Union::new(bb, vec![bb_entry(1, vec![cc_entry(2, &[200])])])],
                },
            ],
        );
        let mut rep = FRep::from_parts(tree, vec![a_union]).unwrap();
        let reference = rep.clone();
        let expected: BTreeSet<Vec<Value>> = materialize(&rep)
            .unwrap()
            .rows()
            .filter(|r| r[0] == r[3]) // A = C (attr 0 = attr 3)
            .map(|r| r.to_vec())
            .collect();
        let pushed = absorb(&mut rep, a, cc).unwrap();
        rep.validate().unwrap();
        assert_eq!(materialize(&rep).unwrap().tuple_set(), expected);
        // D was pushed up next to {B,B'}: the merged root has two children.
        let root = rep.tree().roots()[0];
        assert_eq!(rep.tree().children(root).len(), 2);
        assert!(pushed.contains(&d));
        assert!(rep.tree().is_normalised());
        // Same push-up sequence and bit-for-bit the same store as the thaw
        // path.
        let mut via_oracle = reference;
        let oracle_pushed = oracle::absorb(&mut via_oracle, a, cc).unwrap();
        assert_eq!(pushed, oracle_pushed);
        assert!(
            rep.store_identical(&via_oracle),
            "arena:\n{}\noracle:\n{}",
            rep.dump_store(),
            via_oracle.dump_store()
        );
    }

    #[test]
    fn absorb_requires_an_ancestor_descendant_pair() {
        let mut rep = chain_rep();
        let b = rep.tree().node_of_attr(AttrId(1)).unwrap();
        let a = rep.tree().node_of_attr(AttrId(0)).unwrap();
        assert!(absorb(&mut rep, b, a).is_err());
    }

    #[test]
    fn absorb_that_matches_nothing_gives_the_empty_representation() {
        // Shift the C values so that no A value ever equals a C value.
        let mut rep = chain_rep();
        let a = rep.tree().node_of_attr(AttrId(0)).unwrap();
        let c = rep.tree().node_of_attr(AttrId(2)).unwrap();
        // Select only C values ≥ 3 (so A ∈ {1,2} can only match C = 3 … but
        // then restrict A to 2 which never pairs with 3).
        crate::ops::select::select_const(
            &mut rep,
            AttrId(0),
            fdb_common::ComparisonOp::Eq,
            Value::new(2),
        )
        .unwrap();
        crate::ops::select::select_const(
            &mut rep,
            AttrId(2),
            fdb_common::ComparisonOp::Ge,
            Value::new(3),
        )
        .unwrap();
        absorb(&mut rep, a, c).unwrap();
        rep.validate().unwrap();
        assert!(rep.represents_empty());
    }
}
