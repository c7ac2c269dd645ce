//! Data-level f-plan operators.
//!
//! Each operator of the paper's Section 3 transforms an f-representation
//! *and* its f-tree, keeping the two consistent:
//!
//! | operator | entry point | defined by | f-tree effect |
//! |---|---|---|---|
//! | Cartesian product `×` | [`product()`] | [`mod@product`] | forests are concatenated |
//! | push-up `ψ_B`, normalisation `η` | [`FPlanOp::PushUp`], [`FPlanOp::Normalise`] | `push_up_step`; `FTree::normalise` + `edit_step` | a subtree moves one level up |
//! | swap `χ_{A,B}` | [`FPlanOp::Swap`] | `swap_step` | a child exchanges places with its parent |
//! | merge `µ_{A,B}` | [`FPlanOp::Merge`] | `merge_step` | two sibling nodes fuse |
//! | absorb `α_{A,B}` | [`FPlanOp::Absorb`] | `absorb_step` | a node fuses into an ancestor |
//! | selection with constant `σ_{AθC}` | [`FPlanOp::SelectConst`] | `Fusion::filter` | the node may become constant-bound |
//! | projection `π_Ā` | [`FPlanOp::Project`] | `FTree::project` + `edit_step` (`remove_leaf_step`, `swap_step`) | projected nodes swap down to leaves and disappear |
//!
//! Every operator but the product runs as a program of [`emit_fused_ctx`]:
//! a single operator `op` is the one-operator program `&[op]`.
//!
//! # One implementation per operator
//!
//! The Cartesian product runs directly on the flat arenas (an index-offset
//! concatenation).  Every other operator is defined **once**, as a step of
//! [`fuse`] over an overlay of references into the input arena — the formula
//! and cost bound of each are on its step there; the restructuring ones are
//! edits of one root-to-parent rewrite — and a *whole f-plan*,
//! structural operators, constant selections and projections alike, is one
//! program: each step advances the f-tree through the operator's one tree
//! definition in `fdb_ftree` and rewrites the overlay to match (a selection
//! is one walk down the selected node's path, normalisation and
//! projection run the push-ups, swap-downs and leaf removals their tree
//! definition decides), and one final emission through a
//! [`crate::store::Rewriter`] produces the freeze-layout output — union
//! headers in depth-first preorder, unchanged subtrees copied whole (as
//! relocated blocks when the input is in the freeze layout), the regrouped
//! region assembled directly in the *new* tree's child order.  A
//! k-step plan pays one full copy instead of k, and a single operator pays
//! for what it touches plus a block copy of what it does not.
//!
//! The operator vocabulary is one type, [`FPlanOp`], defined in [`fuse`]
//! next to the steps that execute it (and re-exported by `fdb-plan`, whose
//! `FPlan` is a `Vec` of them): a program is a `&[FPlanOp]`.  `fdb-plan`
//! hands every non-empty plan's operator list to [`emit_fused_ctx`] as it
//! is.  [`emit_fused_ctx`] runs every program the same way, on the
//! overlay: a lone swap (an ORDER BY chain swap) as much as a twenty-step
//! plan.
//!
//! The builder-form implementations the engine started from (thaw the arena
//! into the owned [`crate::node`] form, splice pointers, freeze back)
//! survive in [`oracle`] as the independent test reference for all seven
//! overlay operators, behind one entry, [`oracle::apply`]: every program
//! reproduces the freeze layout exactly, so the equivalence tests compare
//! its output with the oracle applied operator by operator, bit for bit.
//!
//! All operators preserve the invariants of [`crate::FRep`]: values inside
//! every union stay sorted and distinct, every entry carries one child union
//! per f-tree child, the path constraint holds, and (where the paper
//! promises it) normalisation is preserved.  Under `debug_assertions` every
//! emitted result re-validates the full arena ([`crate::FRep::validate`])
//! before it is installed.

pub mod fuse;
#[doc(hidden)]
pub mod oracle;
pub mod product;

pub use fuse::{emit_fused_ctx, execute_fused_aggregate_ctx, FPlanOp};
pub use product::product;

use crate::frep::FRep;
use fdb_ftree::NodeId;

/// Position of `node` in an f-tree child list.  The passes use this to
/// translate between the kid-slot orders of the input and output trees; a
/// miss means the representation disagrees with its tree, which validation
/// would have rejected.
pub(crate) fn child_pos(children: &[NodeId], node: NodeId) -> u32 {
    children
        .iter()
        .position(|&c| c == node)
        .expect("validated representation: node present in the child list") as u32
}

/// Debug-only full-arena invariant check, run on every written result: the
/// arena is valid and the statistics its writer recorded equal the walks.
/// Release builds skip it: the writers maintain both by construction.
#[inline]
pub(crate) fn debug_validate(rep: &FRep, op: &str) {
    if cfg!(debug_assertions) {
        if let Err(e) = rep.validate() {
            panic!("{op}: the emitted arena breaks an invariant: {e:?}");
        }
        if let Some(recorded) = rep.recorded_counts() {
            let walked = (rep.size(), rep.tuple_count());
            assert_eq!(
                recorded, walked,
                "{op}: recorded counts differ from the walks"
            );
        }
    }
}

// The unit tests of the single operators.  Each runs its operator as the
// one-operator program `&[op]` of `emit_fused_ctx`, and those that pin the
// output arena compare it with `oracle::apply`.  The modules keep the paths
// `ops::<operator>::tests` the suites have always reported them under.

/// What the operator tests share.
#[cfg(test)]
mod test_support {
    use super::{emit_fused_ctx, oracle, FPlanOp, FRep};
    use fdb_common::{AttrId, ExecCtx, Result};
    use std::collections::BTreeSet;

    pub(super) fn attrs(ids: &[u32]) -> BTreeSet<AttrId> {
        ids.iter().map(|&i| AttrId(i)).collect()
    }

    /// Runs `op` as a one-operator program on the borrowed input.
    pub(super) fn run(rep: &FRep, op: FPlanOp) -> Result<FRep> {
        emit_fused_ctx(rep, &[op], &ExecCtx::unlimited())
    }

    /// [`run`], asserting that the output is bit for bit the thaw-path
    /// oracle's.
    pub(super) fn run_against_oracle(rep: &FRep, op: FPlanOp) -> FRep {
        let out = run(rep, op.clone()).unwrap();
        let mut reference = rep.clone();
        oracle::apply(&mut reference, &op).unwrap();
        assert!(
            out.store_identical(&reference),
            "{op}: program:\n{}\noracle:\n{}",
            out.dump_store(),
            reference.dump_store()
        );
        out
    }
}

/// Swap `χ_{A,B}`: `swap_step` in [`fuse`].
#[cfg(test)]
mod swap {
    mod tests {
        use crate::enumerate::materialize;
        use crate::node::{Entry, Union};
        use crate::ops::test_support::{attrs, run, run_against_oracle};
        use crate::ops::FPlanOp;
        use crate::FRep;
        use fdb_common::{AttrId, Value};
        use fdb_ftree::{DepEdge, FTree};

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
            let rep = grocery_q1_over_t1();
            let before = materialize(&rep).unwrap().tuple_set();
            let location = rep.tree().node_of_attr(AttrId(2)).unwrap();
            let item = rep.tree().node_of_attr(AttrId(1)).unwrap();
            let oid = rep.tree().node_of_attr(AttrId(0)).unwrap();
            let dispatcher = rep.tree().node_of_attr(AttrId(4)).unwrap();
            let rep = run(&rep, FPlanOp::Swap(location)).unwrap();
            rep.validate().unwrap();
            let tree = rep.tree();
            assert_eq!(tree.parent(location), None);
            assert_eq!(tree.parent(item), Some(location));
            // dispatcher stays with location, oid follows item (it depends on it).
            assert_eq!(tree.parent(dispatcher), Some(location));
            assert_eq!(tree.children(item), &[oid]);
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
            let rep = grocery_q1_over_t1();
            let original_key = rep.tree().canonical_key();
            let original_size = rep.size();
            let before = materialize(&rep).unwrap().tuple_set();
            let location = rep.tree().node_of_attr(AttrId(2)).unwrap();
            let rep = run(&rep, FPlanOp::Swap(location)).unwrap();
            let item = rep.tree().node_of_attr(AttrId(1)).unwrap();
            let rep = run(&rep, FPlanOp::Swap(item)).unwrap();
            rep.validate().unwrap();
            assert_eq!(rep.tree().canonical_key(), original_key);
            assert_eq!(rep.size(), original_size);
            assert_eq!(materialize(&rep).unwrap().tuple_set(), before);
        }

        #[test]
        fn swap_rejects_roots() {
            let rep = grocery_q1_over_t1();
            let item = rep.tree().node_of_attr(AttrId(1)).unwrap();
            assert!(run(&rep, FPlanOp::Swap(item)).is_err());
        }

        #[test]
        fn arena_swap_is_store_identical_to_the_oracle() {
            let rep = grocery_q1_over_t1();
            let location = rep.tree().node_of_attr(AttrId(2)).unwrap();
            run_against_oracle(&rep, FPlanOp::Swap(location));
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
            let input = FRep::from_parts(tree, vec![a_union]).unwrap();
            let before = materialize(&input).unwrap().tuple_set();
            // And the arena is bit-for-bit what the thaw path would have built.
            let rep = run_against_oracle(&input, FPlanOp::Swap(b));
            rep.validate().unwrap();
            assert_eq!(rep.tree().parent(c), Some(a), "C follows A down");
            assert_eq!(rep.tree().parent(d), Some(b), "D stays with B");
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
        }
    }
}

/// Merge `µ_{A,B}`: `merge_step` in [`fuse`].
#[cfg(test)]
mod merge {
    mod tests {
        use crate::enumerate::materialize;
        use crate::node::{Entry, Union};
        use crate::ops::test_support::{attrs, run, run_against_oracle};
        use crate::ops::{product, FPlanOp};
        use crate::FRep;
        use fdb_common::{AttrId, Value};
        use fdb_ftree::{DepEdge, FTree};

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
            let input = product(left, right).unwrap();
            let a = input.tree().node_of_attr(AttrId(0)).unwrap();
            let b = input.tree().node_of_attr(AttrId(2)).unwrap();
            // Bit-for-bit what the thaw path would have built.
            let rep = run_against_oracle(&input, FPlanOp::Merge(a, b));
            rep.validate().unwrap();
            // The first node survives.
            assert_eq!(rep.tree().node_of_attr(AttrId(2)), Some(a));
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
        }

        #[test]
        fn merge_of_disjoint_value_sets_gives_the_empty_representation() {
            let left = rep_over(0, 1, "R", &[(1, &[10])]);
            let right = rep_over(2, 3, "S", &[(2, &[20])]);
            let rep = product(left, right).unwrap();
            let a = rep.tree().node_of_attr(AttrId(0)).unwrap();
            let b = rep.tree().node_of_attr(AttrId(2)).unwrap();
            let rep = run(&rep, FPlanOp::Merge(a, b)).unwrap();
            rep.validate().unwrap();
            assert!(rep.represents_empty());
            assert_eq!(rep.tuple_count(), 0);
        }

        #[test]
        fn merge_requires_siblings() {
            let rep = rep_over(0, 1, "R", &[(1, &[10])]);
            let root = rep.tree().node_of_attr(AttrId(0)).unwrap();
            let child = rep.tree().node_of_attr(AttrId(1)).unwrap();
            assert!(run(&rep, FPlanOp::Merge(root, child)).is_err());
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
            let input = FRep::from_parts(tree, vec![u]).unwrap();
            // The pruning of the root=2 entry happens exactly as on the thaw
            // path.
            let rep = run_against_oracle(&input, FPlanOp::Merge(x, y));
            rep.validate().unwrap();
            let flat = materialize(&rep).unwrap();
            assert_eq!(flat.len(), 1);
            let row = flat.row(0);
            assert_eq!(row, &[Value::new(1), Value::new(5), Value::new(5)]);
        }
    }
}

/// Absorb `α_{A,B}`: `absorb_step` in [`fuse`], then normalisation.
#[cfg(test)]
mod absorb {
    mod tests {
        use crate::enumerate::materialize;
        use crate::frep::{Entry, Union};
        use crate::ops::test_support::{attrs, run, run_against_oracle};
        use crate::ops::FPlanOp;
        use crate::FRep;
        use fdb_common::{AttrId, ComparisonOp, ExecCtx, Value};
        use fdb_ftree::{DepEdge, FTree};
        use std::collections::BTreeSet;

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
                        children: vec![Union::new(
                            b,
                            vec![b_entry(10, &[1, 3]), b_entry(11, &[2])],
                        )],
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
            let input = chain_rep();
            let a = input.tree().node_of_attr(AttrId(0)).unwrap();
            let c = input.tree().node_of_attr(AttrId(2)).unwrap();
            // Reference: flat tuples with A = C.
            let expected: BTreeSet<Vec<Value>> = materialize(&input)
                .unwrap()
                .rows()
                .filter(|r| r[0] == r[2])
                .map(|r| r.to_vec())
                .collect();
            // Bit-for-bit what the thaw path would have built.
            let rep = run_against_oracle(&input, FPlanOp::Absorb(a, c));
            rep.validate().unwrap();
            assert_eq!(materialize(&rep).unwrap().tuple_set(), expected);
            // A and C are now one node labelled by both attributes.
            let merged = rep.tree().node_of_attr(AttrId(0)).unwrap();
            assert_eq!(merged, rep.tree().node_of_attr(AttrId(2)).unwrap());
            assert!(rep.tree().is_normalised());
            // Only the A=1 branch had C=1 below B=10; A=2 had C∈{1,3} ∌ 2.
            assert_eq!(rep.tuple_count(), 1);
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
                        children: vec![Union::new(
                            bb,
                            vec![bb_entry(1, vec![cc_entry(2, &[200])])],
                        )],
                    },
                ],
            );
            let input = FRep::from_parts(tree, vec![a_union]).unwrap();
            let expected: BTreeSet<Vec<Value>> = materialize(&input)
                .unwrap()
                .rows()
                .filter(|r| r[0] == r[3]) // A = C (attr 0 = attr 3)
                .map(|r| r.to_vec())
                .collect();
            // Bit-for-bit the same store as the thaw path.
            let rep = run_against_oracle(&input, FPlanOp::Absorb(a, cc));
            rep.validate().unwrap();
            assert_eq!(materialize(&rep).unwrap().tuple_set(), expected);
            // D was pushed up next to {B,B'}: the merged root has two children.
            let root = rep.tree().roots()[0];
            assert_eq!(rep.tree().children(root).len(), 2);
            assert_eq!(rep.tree().parent(d), Some(root));
            assert!(rep.tree().is_normalised());
        }

        #[test]
        fn absorb_requires_an_ancestor_descendant_pair() {
            let rep = chain_rep();
            let b = rep.tree().node_of_attr(AttrId(1)).unwrap();
            let a = rep.tree().node_of_attr(AttrId(0)).unwrap();
            assert!(run(&rep, FPlanOp::Absorb(b, a)).is_err());
        }

        #[test]
        fn absorb_that_matches_nothing_gives_the_empty_representation() {
            // Shift the C values so that no A value ever equals a C value.
            let rep = chain_rep();
            let a = rep.tree().node_of_attr(AttrId(0)).unwrap();
            let c = rep.tree().node_of_attr(AttrId(2)).unwrap();
            // Select only C values ≥ 3 (so A ∈ {1,2} can only match C = 3 … but
            // then restrict A to 2 which never pairs with 3).
            let select = |attr, op, value| FPlanOp::SelectConst {
                attr: AttrId(attr),
                op,
                value: Value::new(value),
            };
            let program = [
                select(0, ComparisonOp::Eq, 2),
                select(2, ComparisonOp::Ge, 3),
            ];
            let rep = crate::ops::emit_fused_ctx(&rep, &program, &ExecCtx::unlimited()).unwrap();
            let rep = run(&rep, FPlanOp::Absorb(a, c)).unwrap();
            rep.validate().unwrap();
            assert!(rep.represents_empty());
        }
    }
}

/// Push-up `ψ_B` and normalisation `η`: `push_up_step` in [`fuse`], and
/// `FTree::normalise` deciding which nodes normalisation lifts.
#[cfg(test)]
mod restructure {
    mod tests {
        use crate::enumerate::materialize;
        use crate::frep::{Entry, Union};
        use crate::ops::test_support::{attrs, run, run_against_oracle};
        use crate::ops::FPlanOp;
        use crate::FRep;
        use fdb_common::{AttrId, Value};
        use fdb_ftree::{DepEdge, FTree};

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
            let rep = independent_pair();
            let before = materialize(&rep).unwrap().tuple_set();
            let size_before = rep.size(); // 2 A-singletons + 4 B-singletons = 6
            assert_eq!(size_before, 6);
            let b = rep.tree().node_of_attr(AttrId(1)).unwrap();
            let rep = run(&rep, FPlanOp::PushUp(b)).unwrap();
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
            run_against_oracle(&rep, FPlanOp::PushUp(b));
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
            let rep = FRep::from_parts(tree, vec![a_union]).unwrap();
            assert!(run(&rep, FPlanOp::PushUp(b)).is_err());
            assert!(run(&rep, FPlanOp::PushUp(a)).is_err()); // roots cannot be pushed up
        }

        #[test]
        fn normalise_reaches_a_normalised_tree_and_preserves_the_relation() {
            let rep = independent_pair();
            let before = materialize(&rep).unwrap().tuple_set();
            let b = rep.tree().node_of_attr(AttrId(1)).unwrap();
            let rep = run(&rep, FPlanOp::Normalise).unwrap();
            // One push-up: B became a root.
            assert_eq!(rep.tree().parent(b), None);
            assert_eq!(rep.tree().roots().len(), 2);
            assert!(rep.tree().is_normalised());
            rep.validate().unwrap();
            assert_eq!(materialize(&rep).unwrap().tuple_set(), before);
            // Normalising again is a no-op.
            let again = run(&rep, FPlanOp::Normalise).unwrap();
            assert_eq!(again.tree().canonical_key(), rep.tree().canonical_key());
            assert!(again.store_identical(&rep));
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
            let input = FRep::from_parts(tree, vec![c_union]).unwrap();
            let before = materialize(&input).unwrap().tuple_set();
            assert_eq!(input.size(), 8);
            // Bit-for-bit what the thaw path would have built.
            let rep = run_against_oracle(&input, FPlanOp::PushUp(b));
            rep.validate().unwrap();
            assert_eq!(rep.tree().parent(b), Some(c));
            assert_eq!(materialize(&rep).unwrap().tuple_set(), before);
            // Size shrinks: the two B singletons under C=1 collapse into one.
            assert_eq!(rep.size(), 7);
        }
    }
}

/// Projection `π_Ā`: the removals and swap-downs `FTree::project` decides,
/// each an edit in [`fuse`].
#[cfg(test)]
mod project {
    mod tests {
        use crate::enumerate::materialize;
        use crate::frep::{Entry, Union};
        use crate::ops::test_support::{attrs, run, run_against_oracle};
        use crate::ops::FPlanOp;
        use crate::FRep;
        use fdb_common::{AttrId, Value};
        use fdb_ftree::{DepEdge, FTree};
        use std::collections::BTreeSet;

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

        #[test]
        fn projecting_away_a_leaf_removes_it() {
            let rep = chain();
            let expected = project_reference(&rep, &[0, 1]);
            let rep = run_against_oracle(&rep, FPlanOp::Project(attrs(&[0, 1])));
            rep.validate().unwrap();
            assert_eq!(rep.tree().node_count(), 2);
            assert_eq!(rep.visible_attrs(), vec![AttrId(0), AttrId(1)]);
            assert_eq!(materialize(&rep).unwrap().tuple_set(), expected);
        }

        #[test]
        fn projecting_away_an_inner_node_preserves_the_correlation() {
            // Project away B: A and C stay transitively dependent — the result
            // must be exactly π_{A,C} of the chain, not the cross product.
            let rep = chain();
            let expected = project_reference(&rep, &[0, 2]);
            let rep = run_against_oracle(&rep, FPlanOp::Project(attrs(&[0, 2])));
            rep.validate().unwrap();
            assert_eq!(rep.visible_attrs(), vec![AttrId(0), AttrId(2)]);
            assert_eq!(materialize(&rep).unwrap().tuple_set(), expected);
            // (1, 100), (1, 200), (2, 300): the pair (2, 100) must NOT appear.
            assert_eq!(rep.tuple_count(), 3);
        }

        #[test]
        fn projecting_everything_away_leaves_the_nullary_relation() {
            let rep = run_against_oracle(&chain(), FPlanOp::Project(BTreeSet::new()));
            rep.validate().unwrap();
            assert!(rep.tree().is_empty());
            assert_eq!(rep.tuple_count(), 1); // the nullary tuple ⟨⟩
            assert_eq!(rep.size(), 0);
        }

        #[test]
        fn identity_projection_is_a_no_op() {
            let input = chain();
            let before = materialize(&input).unwrap().tuple_set();
            let rep = run(&input, FPlanOp::Project(attrs(&[0, 1, 2]))).unwrap();
            assert_eq!(rep.size(), input.size());
            assert_eq!(materialize(&rep).unwrap().tuple_set(), before);
        }

        #[test]
        fn projection_onto_the_middle_attribute_only() {
            let rep = chain();
            let expected = project_reference(&rep, &[1]);
            let rep = run_against_oracle(&rep, FPlanOp::Project(attrs(&[1])));
            rep.validate().unwrap();
            assert_eq!(materialize(&rep).unwrap().tuple_set(), expected);
            assert_eq!(rep.tuple_count(), 2); // values 10 and 11
        }
    }
}

/// Selection with a constant `σ_{A θ c}`: `Fusion::filter` in [`fuse`].
#[cfg(test)]
mod select {
    mod tests {
        use crate::enumerate::materialize;
        use crate::node::{Entry, Union};
        use crate::ops::test_support::{attrs, run};
        use crate::ops::FPlanOp;
        use crate::FRep;
        use fdb_common::{AttrId, ComparisonOp, Result, Value};
        use fdb_ftree::{DepEdge, FTree, NodeId};
        use std::collections::BTreeSet;

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

        /// The one-operator selection program `σ_{attr op value}`.
        fn select(rep: &FRep, attr: u32, op: ComparisonOp, value: u64) -> Result<FRep> {
            let attr = AttrId(attr);
            let value = Value::new(value);
            run(rep, FPlanOp::SelectConst { attr, op, value })
        }

        #[test]
        fn equality_selection_binds_the_node() {
            let (rep, a, _) = sample();
            let rep = select(&rep, 0, ComparisonOp::Eq, 2).unwrap();
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
            let (rep, a, _) = sample();
            let rep = select(&rep, 0, ComparisonOp::Ge, 2).unwrap();
            rep.validate().unwrap();
            assert_eq!(rep.tuple_count(), 3);
            assert_eq!(rep.tree().constant(a), None);
        }

        #[test]
        fn selection_on_an_inner_child_prunes_empty_parents() {
            let (rep, _, _) = sample();
            // Only B > 25 survives: the A=1 and A=2 entries must disappear.
            let rep = select(&rep, 1, ComparisonOp::Gt, 25).unwrap();
            rep.validate().unwrap();
            assert_eq!(rep.root(0).len(), 1);
            assert_eq!(rep.root(0).entry(0).value(), Value::new(3));
            assert_eq!(rep.tuple_count(), 2);
        }

        #[test]
        fn selection_that_matches_nothing_empties_the_representation() {
            let (rep, _, _) = sample();
            let rep = select(&rep, 0, ComparisonOp::Eq, 99).unwrap();
            rep.validate().unwrap();
            assert!(rep.represents_empty());
            assert_eq!(rep.size(), 0);
        }

        #[test]
        fn unknown_attribute_is_an_error() {
            let (rep, _, _) = sample();
            assert!(select(&rep, 9, ComparisonOp::Eq, 1).is_err());
        }

        #[test]
        fn ne_selection_removes_a_single_value() {
            let (rep, _, _) = sample();
            let before = materialize(&rep).unwrap();
            let rep = select(&rep, 1, ComparisonOp::Ne, 20).unwrap();
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
}
