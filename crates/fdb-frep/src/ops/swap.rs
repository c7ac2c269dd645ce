//! The swap operator `χ_{A,B}`.
//!
//! Swap exchanges a node `B` with its parent `A`, regrouping the
//! representation first by `B` then by `A` (Figure 3(b)).  It has no
//! rewriter of its own — it **is** the one-operator overlay program
//! `[FPlanOp::Swap]`; the operator's definition (formula, sort-merge
//! regrouping, cost bound) is on `swap_step` in [`crate::ops::fuse`], an
//! edit of the one restructuring walk there.

use crate::frep::FRep;
use crate::ops::fuse::{execute_fused_ctx, FPlanOp};
use fdb_common::{ExecCtx, Result};
use fdb_ftree::{NodeId, SwapOutcome};

/// Swap operator `χ_{A,B}` where `b`'s parent is `A`: regroups the
/// representation by `B` before `A` and updates the f-tree accordingly.  On
/// error the representation is left exactly as it was.
pub fn swap(rep: &mut FRep, b: NodeId) -> Result<SwapOutcome> {
    let outcome = rep.tree().clone().swap_with_parent(b)?;
    execute_fused_ctx(rep, &[FPlanOp::Swap(b)], &ExecCtx::unlimited())?;
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enumerate::materialize;
    use crate::node::{Entry, Union};
    use crate::ops::oracle;
    use fdb_common::{AttrId, Value};
    use fdb_ftree::{DepEdge, FTree};
    use std::collections::BTreeSet;

    fn attrs(ids: &[u32]) -> BTreeSet<AttrId> {
        ids.iter().map(|&i| AttrId(i)).collect()
    }

    /// The grocery Q1 result of Example 1 over the f-tree T1
    /// (item → (oid, location → dispatcher)), with values encoded as
    /// integers: Milk=1, Cheese=2, Melon=3; Istanbul=1, Izmir=2, Antalya=3;
    /// Adnan=1, Yasemin=2, Volkan=3.
    fn grocery_q1_over_t1() -> FRep {
        // Attribute ids: oid=0, Orders.item=1, Store.location=2,
        // Store.item=3, dispatcher=4, Disp.location=5.
        let edges = vec![
            DepEdge::new("Orders", attrs(&[0, 1]), 5),
            DepEdge::new("Store", attrs(&[2, 3]), 6),
            DepEdge::new("Disp", attrs(&[4, 5]), 4),
        ];
        let mut tree = FTree::new(edges);
        let item = tree.add_node(attrs(&[1, 3]), None).unwrap();
        let oid = tree.add_node(attrs(&[0]), Some(item)).unwrap();
        let location = tree.add_node(attrs(&[2, 5]), Some(item)).unwrap();
        let dispatcher = tree.add_node(attrs(&[4]), Some(location)).unwrap();

        let disp_union = |vals: &[u64]| {
            Union::new(
                dispatcher,
                vals.iter().map(|&v| Entry::leaf(Value::new(v))).collect(),
            )
        };
        let loc_entry = |loc: u64, dispatchers: &[u64]| Entry {
            value: Value::new(loc),
            children: vec![disp_union(dispatchers)],
        };
        let oid_union = |vals: &[u64]| {
            Union::new(
                oid,
                vals.iter().map(|&v| Entry::leaf(Value::new(v))).collect(),
            )
        };
        // Milk: orders {1}, locations Istanbul{Adnan,Yasemin}, Izmir{Adnan}, Antalya{Volkan}
        // Cheese: orders {1,3}, locations Istanbul{Adnan,Yasemin}, Antalya{Volkan}
        // Melon: orders {2,3}, locations Istanbul{Adnan,Yasemin}
        let item_union = Union::new(
            item,
            vec![
                Entry {
                    value: Value::new(1),
                    children: vec![
                        oid_union(&[1]),
                        Union::new(
                            location,
                            vec![
                                loc_entry(1, &[1, 2]),
                                loc_entry(2, &[1]),
                                loc_entry(3, &[3]),
                            ],
                        ),
                    ],
                },
                Entry {
                    value: Value::new(2),
                    children: vec![
                        oid_union(&[1, 3]),
                        Union::new(location, vec![loc_entry(1, &[1, 2]), loc_entry(3, &[3])]),
                    ],
                },
                Entry {
                    value: Value::new(3),
                    children: vec![
                        oid_union(&[2, 3]),
                        Union::new(location, vec![loc_entry(1, &[1, 2])]),
                    ],
                },
            ],
        );
        FRep::from_parts(tree, vec![item_union]).unwrap()
    }

    #[test]
    fn swapping_item_and_location_matches_example1() {
        // χ_{item,location} turns the T1 factorisation into the T2
        // factorisation of Example 1: grouped by location first.
        let mut rep = grocery_q1_over_t1();
        let before = materialize(&rep).unwrap().tuple_set();
        let location = rep.tree().node_of_attr(AttrId(2)).unwrap();
        let item = rep.tree().node_of_attr(AttrId(1)).unwrap();
        let outcome = swap(&mut rep, location).unwrap();
        rep.validate().unwrap();
        assert_eq!(outcome.new_parent, location);
        assert_eq!(outcome.old_parent, item);
        // dispatcher stays with location, oid follows item (it depends on it).
        assert_eq!(outcome.kept.len(), 1);
        assert!(outcome.moved_down.is_empty());
        assert_eq!(materialize(&rep).unwrap().tuple_set(), before);
        // T2 of Example 1: the root union now ranges over the three
        // locations; under Istanbul there are three items.
        let root = rep.root(0);
        assert_eq!(root.node(), location);
        assert_eq!(root.len(), 3);
        let istanbul = root.find_value(Value::new(1)).unwrap();
        let item_union = istanbul.child(item).unwrap();
        assert_eq!(item_union.len(), 3);
    }

    #[test]
    fn swap_back_restores_the_original_grouping() {
        let mut rep = grocery_q1_over_t1();
        let original_key = rep.tree().canonical_key();
        let original_size = rep.size();
        let before = materialize(&rep).unwrap().tuple_set();
        let location = rep.tree().node_of_attr(AttrId(2)).unwrap();
        swap(&mut rep, location).unwrap();
        let item = rep.tree().node_of_attr(AttrId(1)).unwrap();
        swap(&mut rep, item).unwrap();
        rep.validate().unwrap();
        assert_eq!(rep.tree().canonical_key(), original_key);
        assert_eq!(rep.size(), original_size);
        assert_eq!(materialize(&rep).unwrap().tuple_set(), before);
    }

    #[test]
    fn swap_rejects_roots() {
        let mut rep = grocery_q1_over_t1();
        let item = rep.tree().node_of_attr(AttrId(1)).unwrap();
        assert!(swap(&mut rep, item).is_err());
    }

    #[test]
    fn arena_swap_is_store_identical_to_the_oracle() {
        let rep = grocery_q1_over_t1();
        let location = rep.tree().node_of_attr(AttrId(2)).unwrap();
        let mut arena = rep.clone();
        let mut reference = rep;
        swap(&mut arena, location).unwrap();
        oracle::swap(&mut reference, location).unwrap();
        assert!(
            arena.store_identical(&reference),
            "arena:\n{}\noracle:\n{}",
            arena.dump_store(),
            reference.dump_store()
        );
    }

    #[test]
    fn dependent_children_follow_the_old_parent_down() {
        // Tree A{0} → B{1} → (C{2}, D{3}) with relations {0,1}, {0,2}, {1,3}:
        // C depends on A (G_ab), D does not (F_b).
        let edges = vec![
            DepEdge::new("RAB", attrs(&[0, 1]), 1),
            DepEdge::new("RAC", attrs(&[0, 2]), 1),
            DepEdge::new("RBD", attrs(&[1, 3]), 1),
        ];
        let mut tree = FTree::new(edges);
        let a = tree.add_node(attrs(&[0]), None).unwrap();
        let b = tree.add_node(attrs(&[1]), Some(a)).unwrap();
        let c = tree.add_node(attrs(&[2]), Some(b)).unwrap();
        let d = tree.add_node(attrs(&[3]), Some(b)).unwrap();

        // Data: A=1 with B∈{10, 20}; under (1,10): C={100}, D={7};
        //       under (1,20): C={200}, D={8};  A=2 with B={10}: C={300}, D={7}.
        let b_entry = |bv: u64, cv: u64, dv: u64| Entry {
            value: Value::new(bv),
            children: vec![
                Union::new(c, vec![Entry::leaf(Value::new(cv))]),
                Union::new(d, vec![Entry::leaf(Value::new(dv))]),
            ],
        };
        let a_union = Union::new(
            a,
            vec![
                Entry {
                    value: Value::new(1),
                    children: vec![Union::new(
                        b,
                        vec![b_entry(10, 100, 7), b_entry(20, 200, 8)],
                    )],
                },
                Entry {
                    value: Value::new(2),
                    children: vec![Union::new(b, vec![b_entry(10, 300, 7)])],
                },
            ],
        );
        let mut rep = FRep::from_parts(tree, vec![a_union]).unwrap();
        let reference = rep.clone();
        let before = materialize(&rep).unwrap().tuple_set();
        let outcome = swap(&mut rep, b).unwrap();
        rep.validate().unwrap();
        assert_eq!(outcome.moved_down, vec![c]);
        assert_eq!(outcome.kept, vec![d]);
        assert_eq!(materialize(&rep).unwrap().tuple_set(), before);
        // Structure: root over B with values 10, 20; under B=10 the D-union
        // {7} is shared while the A-union has entries 1 and 2 with their own
        // C-unions.
        let root = rep.root(0);
        assert_eq!(root.node(), b);
        assert_eq!(root.len(), 2);
        let b10 = root.find_value(Value::new(10)).unwrap();
        assert_eq!(b10.child(a).unwrap().len(), 2);
        assert_eq!(b10.child(d).unwrap().len(), 1);
        let a1 = b10.child(a).unwrap().find_value(Value::new(1)).unwrap();
        assert_eq!(a1.child(c).unwrap().entry(0).value(), Value::new(100));
        // And the arena is bit-for-bit what the thaw path would have built.
        let mut via_oracle = reference;
        oracle::swap(&mut via_oracle, b).unwrap();
        assert!(rep.store_identical(&via_oracle));
    }
}
