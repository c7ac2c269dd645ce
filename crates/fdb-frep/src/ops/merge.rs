//! The merge selection operator `µ_{A,B}`.
//!
//! Merge enforces an equality `A = B` between two *sibling* nodes of the
//! f-tree: the two sibling unions of every product context are replaced by
//! one union over the merged node that keeps only the values present in
//! both, and entries whose product became empty are pruned away.  It has no
//! rewriter of its own — it **is** the one-operator overlay program
//! `[FPlanOp::Merge]`; the operator's definition (formula, sort-merge join,
//! cost bound) is on `merge_step` in [`crate::ops::fuse`], an edit of the
//! one restructuring walk there.

use crate::frep::FRep;
use crate::ops::fuse::{execute_fused_ctx, FPlanOp};
use fdb_common::{ExecCtx, Result};
use fdb_ftree::NodeId;

/// Merge operator `µ_{A,B}` on sibling nodes: enforces `A = B`, fusing the
/// two nodes.  Returns the surviving node id, `a`.  On error the
/// representation is left exactly as it was.
pub fn merge(rep: &mut FRep, a: NodeId, b: NodeId) -> Result<NodeId> {
    execute_fused_ctx(rep, &[FPlanOp::Merge(a, b)], &ExecCtx::unlimited())?;
    Ok(a)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enumerate::materialize;
    use crate::node::{Entry, Union};
    use crate::ops::oracle;
    use crate::ops::product::product;
    use fdb_common::{AttrId, Value};
    use fdb_ftree::{DepEdge, FTree};
    use std::collections::BTreeSet;

    fn attrs(ids: &[u32]) -> BTreeSet<AttrId> {
        ids.iter().map(|&i| AttrId(i)).collect()
    }

    /// A small factorisation item{attr 0} → partner{attr 1}.
    fn rep_over(attr_root: u32, attr_child: u32, name: &str, data: &[(u64, &[u64])]) -> FRep {
        let edges = vec![DepEdge::new(
            name,
            attrs(&[attr_root, attr_child]),
            data.len() as u64,
        )];
        let mut tree = FTree::new(edges);
        let root = tree.add_node(attrs(&[attr_root]), None).unwrap();
        let child = tree.add_node(attrs(&[attr_child]), Some(root)).unwrap();
        let entries = data
            .iter()
            .map(|&(v, children)| Entry {
                value: Value::new(v),
                children: vec![Union::new(
                    child,
                    children
                        .iter()
                        .map(|&c| Entry::leaf(Value::new(c)))
                        .collect(),
                )],
            })
            .collect();
        FRep::from_parts(tree, vec![Union::new(root, entries)]).unwrap()
    }

    #[test]
    fn merging_sibling_roots_joins_on_the_shared_values() {
        // Example 9 in miniature: two factorisations with items at the top
        // are joined on item by merging the two root nodes.
        let left = rep_over(0, 1, "Orders", &[(1, &[10]), (2, &[20, 21]), (3, &[30])]);
        let right = rep_over(2, 3, "Produce", &[(2, &[77]), (3, &[88, 99]), (4, &[11])]);
        let mut rep = product(left, right).unwrap();
        let reference = rep.clone();
        let a = rep.tree().node_of_attr(AttrId(0)).unwrap();
        let b = rep.tree().node_of_attr(AttrId(2)).unwrap();
        let survivor = merge(&mut rep, a, b).unwrap();
        rep.validate().unwrap();
        assert_eq!(survivor, a);
        // Only items 2 and 3 survive.
        let root = rep.root(0);
        assert_eq!(root.len(), 2);
        assert_eq!(rep.tree().class(a), &attrs(&[0, 2]));
        // The flat view must equal the join: item 2 → {20,21}×{77},
        // item 3 → {30}×{88,99}.
        let flat = materialize(&rep).unwrap();
        assert_eq!(flat.len(), 2 + 2);
        // Both item attributes carry the same value in every tuple.
        let c0 = flat.col_index(AttrId(0)).unwrap();
        let c2 = flat.col_index(AttrId(2)).unwrap();
        assert!(flat.rows().all(|r| r[c0] == r[c2]));
        // Bit-for-bit what the thaw path would have built.
        let mut via_oracle = reference;
        oracle::merge(&mut via_oracle, a, b).unwrap();
        assert!(
            rep.store_identical(&via_oracle),
            "arena:\n{}\noracle:\n{}",
            rep.dump_store(),
            via_oracle.dump_store()
        );
    }

    #[test]
    fn merge_of_disjoint_value_sets_gives_the_empty_representation() {
        let left = rep_over(0, 1, "R", &[(1, &[10])]);
        let right = rep_over(2, 3, "S", &[(2, &[20])]);
        let mut rep = product(left, right).unwrap();
        let a = rep.tree().node_of_attr(AttrId(0)).unwrap();
        let b = rep.tree().node_of_attr(AttrId(2)).unwrap();
        merge(&mut rep, a, b).unwrap();
        rep.validate().unwrap();
        assert!(rep.represents_empty());
        assert_eq!(rep.tuple_count(), 0);
    }

    #[test]
    fn merge_requires_siblings() {
        let left = rep_over(0, 1, "R", &[(1, &[10])]);
        let mut rep = left;
        let root = rep.tree().node_of_attr(AttrId(0)).unwrap();
        let child = rep.tree().node_of_attr(AttrId(1)).unwrap();
        assert!(merge(&mut rep, root, child).is_err());
    }

    #[test]
    fn merge_deeper_in_the_tree_joins_within_each_context() {
        // A forest of one tree: root{0} → (x{1}, y{2}); relations make x and
        // y independent of each other but both dependent on the root.
        let edges = vec![
            DepEdge::new("RX", attrs(&[0, 1]), 2),
            DepEdge::new("RY", attrs(&[0, 2]), 2),
        ];
        let mut tree = FTree::new(edges);
        let root = tree.add_node(attrs(&[0]), None).unwrap();
        let x = tree.add_node(attrs(&[1]), Some(root)).unwrap();
        let y = tree.add_node(attrs(&[2]), Some(root)).unwrap();
        let entry = |v: u64, xs: &[u64], ys: &[u64]| Entry {
            value: Value::new(v),
            children: vec![
                Union::new(x, xs.iter().map(|&a| Entry::leaf(Value::new(a))).collect()),
                Union::new(y, ys.iter().map(|&a| Entry::leaf(Value::new(a))).collect()),
            ],
        };
        // Under root=1 the x/y values overlap in {5}; under root=2 they do
        // not overlap at all, so that whole entry must disappear.
        let u = Union::new(root, vec![entry(1, &[4, 5], &[5, 6]), entry(2, &[7], &[8])]);
        let mut rep = FRep::from_parts(tree, vec![u]).unwrap();
        let reference = rep.clone();
        merge(&mut rep, x, y).unwrap();
        rep.validate().unwrap();
        let flat = materialize(&rep).unwrap();
        assert_eq!(flat.len(), 1);
        let row = flat.row(0);
        assert_eq!(row, &[Value::new(1), Value::new(5), Value::new(5)]);
        // The pruning of the root=2 entry happened exactly as on the thaw
        // path.
        let mut via_oracle = reference;
        oracle::merge(&mut via_oracle, x, y).unwrap();
        assert!(
            rep.store_identical(&via_oracle),
            "arena:\n{}\noracle:\n{}",
            rep.dump_store(),
            via_oracle.dump_store()
        );
    }
}
