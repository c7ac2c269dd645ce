//! The Cartesian product operator `×`.
//!
//! Given two f-representations over disjoint attribute sets, their product is
//! the f-representation over the forest obtained by putting the two forests
//! side by side.  The operator is **arena-native**: the right store is
//! appended to the left one with its arena indices offset and its node
//! identifiers remapped through the f-tree import — time linear in the right
//! input, no tree walk at all.  Sizes add and tuple counts multiply: when
//! both operands know their [`FRep::counts`], so does the product; the left
//! operand's per-union count table is dropped with it.

use crate::frep::FRep;
use crate::ops::debug_validate;
use fdb_common::Result;

/// Computes the Cartesian product of two f-representations.
///
/// The attribute sets must be disjoint (a shared attribute is reported as an
/// error by the underlying f-tree import).
pub fn product(left: FRep, right: FRep) -> Result<FRep> {
    let counts = (left.recorded_counts().zip(right.recorded_counts()))
        .map(|((ls, lt), (rs, rt))| (ls + rs, lt.wrapping_mul(rt)));
    let (mut tree, mut store) = left.into_parts();
    let id_map = tree.import_forest(right.tree())?;
    store.append_remapped(right.store(), &id_map);
    let rep = FRep::from_store(tree, store, counts).canonical();
    debug_validate(&rep, "product");
    Ok(rep)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::{Entry, Union};
    use fdb_common::{AttrId, Value};
    use fdb_ftree::{DepEdge, FTree};
    use std::collections::BTreeSet;

    fn attrs(ids: &[u32]) -> BTreeSet<AttrId> {
        ids.iter().map(|&i| AttrId(i)).collect()
    }

    fn leaf_rep(attr: u32, name: &str, values: &[u64]) -> FRep {
        let edges = vec![DepEdge::new(name, attrs(&[attr]), values.len() as u64)];
        let mut tree = FTree::new(edges);
        let n = tree.add_node(attrs(&[attr]), None).unwrap();
        let union = Union::new(
            n,
            values.iter().map(|&v| Entry::leaf(Value::new(v))).collect(),
        );
        FRep::from_parts(tree, vec![union]).unwrap()
    }

    #[test]
    fn product_concatenates_forests() {
        let a = leaf_rep(0, "R", &[1, 2, 3]);
        let b = leaf_rep(1, "S", &[7, 8]);
        let p = product(a, b).unwrap();
        p.validate().unwrap();
        assert_eq!(p.tree().roots().len(), 2);
        assert_eq!(p.size(), 5);
        assert_eq!(p.tuple_count(), 6);
        assert_eq!(p.visible_attrs(), vec![AttrId(0), AttrId(1)]);
        assert_eq!(p.tree().edges().len(), 2);
    }

    #[test]
    fn product_with_empty_is_empty() {
        let a = leaf_rep(0, "R", &[1, 2]);
        let b = leaf_rep(1, "S", &[]);
        let p = product(a, b).unwrap();
        assert!(p.represents_empty());
        assert_eq!(p.tuple_count(), 0);
    }

    #[test]
    fn overlapping_attributes_are_rejected() {
        let a = leaf_rep(0, "R", &[1]);
        let b = leaf_rep(0, "S", &[2]);
        assert!(product(a, b).is_err());
    }

    /// `A{0} → B{1}`: A = 1 with B ∈ {1, 2}, A = 2 with B = 2.
    fn chain_rep() -> FRep {
        let edges = vec![DepEdge::new("R", attrs(&[0, 1]), 3)];
        let mut tree = FTree::new(edges);
        let a = tree.add_node(attrs(&[0]), None).unwrap();
        let b = tree.add_node(attrs(&[1]), Some(a)).unwrap();
        let leaf = |values: &[u64]| {
            Union::new(
                b,
                values.iter().map(|&v| Entry::leaf(Value::new(v))).collect(),
            )
        };
        let entry = |value, values: &[u64]| Entry {
            value: Value::new(value),
            children: vec![leaf(values)],
        };
        FRep::from_parts(
            tree,
            vec![Union::new(a, vec![entry(1, &[1, 2]), entry(2, &[2])])],
        )
        .unwrap()
    }

    #[test]
    fn product_combines_known_counts_and_drops_the_left_memo() {
        // The left operand has read its counts and filled its per-union
        // count table; the product rewrites its arena in place, so neither
        // may survive as they were.
        let left = chain_rep();
        assert_eq!(left.counts(), (5, 3));
        assert_eq!(left.union_counts(), &[3, 2, 1]);
        let right = leaf_rep(2, "S", &[7, 8]);
        assert_eq!(right.counts(), (2, 2));
        let p = product(left, right).unwrap();
        assert_eq!(p.recorded_counts(), Some((7, 6)));
        assert_eq!(p.counts(), (p.size(), p.tuple_count()));
        assert_eq!(p.union_counts(), &[3, 2, 1, 2]);

        // An operand that has not counted itself leaves the product to walk
        // on its first read.
        let p = product(chain_rep(), leaf_rep(2, "S", &[7, 8])).unwrap();
        assert_eq!(p.recorded_counts(), None);
        assert_eq!(p.counts(), (7, 6));
    }

    #[test]
    fn product_is_associative_in_size_and_count() {
        let a = leaf_rep(0, "R", &[1, 2]);
        let b = leaf_rep(1, "S", &[3, 4, 5]);
        let c = leaf_rep(2, "T", &[6]);
        let left = product(product(a.clone(), b.clone()).unwrap(), c.clone()).unwrap();
        let right = product(a, product(b, c).unwrap()).unwrap();
        assert_eq!(left.size(), right.size());
        assert_eq!(left.tuple_count(), right.tuple_count());
        assert_eq!(left.tuple_count(), 6);
    }
}
