//! The swap operator `χ_{A,B}`.
//!
//! Swap exchanges a node `B` with its parent `A`: the representation grouped
//! first by `A` then `B` is regrouped first by `B` then `A` (Figure 3(b)):
//!
//! ```text
//! ⋃_a ⟨A:a⟩ × E_a × ⋃_b (⟨B:b⟩ × F_b × G_ab)
//!     ⇒  ⋃_b ⟨B:b⟩ × F_b × ⋃_a (⟨A:a⟩ × E_a × G_ab)
//! ```
//!
//! where `E_a` are the subtrees under `A`, `F_b` the children of `B` that do
//! not depend on `A` (they stay with `B`), and `G_ab` the children of `B`
//! that do depend on `A` (they follow `A` down).
//!
//! # Why this is the one direct rewriter left
//!
//! Every other operator exists once, as an overlay pass of
//! [`crate::ops::fuse`]; swap exists there too ([`SwapPass`] serves every
//! swap inside a longer program and every swap-down of a projection).  What
//! this module keeps is the **lone-swap arm** of
//! [`crate::ops::emit_fused_ctx`]: the program `[Swap(b)]` and nothing else
//! — the ORDER BY chain swap of an analytics head — emits through
//! the [`Rewriter`] below straight from the borrowed input.  The overlay
//! writes the regrouped region twice (into `Mix` nodes, then into the arena),
//! and for a swap deep in a tree that region is most of the arena.  Measured
//! when the other four direct rewriters were deleted (one operator, ms per
//! call, store-identical outputs):
//!
//! | program | direct | overlay |
//! |---|---|---|
//! | `path` shape, swap(mid) | 0.022 | 0.044 |
//! | `nested` shape, swap(D) | 0.79 | 2.56 |
//! | serving forest, lone merge | 0.67 | 0.18 |
//!
//! (still 1.9–2.2× for the two swaps with a bump allocator under both, so
//! it is the second write, not `malloc`), and end to end routing the lone
//! swap through the overlay cost `analytics_heads` 12 % of its `p50_ms` in
//! five pairs of five while this arm leaves it unmoved.  What would retire
//! the arm, and this module's rewriter with it: overlay `Mix` unions as
//! ranges into one per-worker bump pair instead of two heap vectors each
//! (ROADMAP item 4(b)) bringing a lone deep swap within ~1.2× of the table's
//! left column.
//!
//! # The rewriter
//!
//! The output arena is emitted in one pass over the input arena.  Unions on
//! the root-to-`A` path are re-emitted with their kid slots translated to
//! the new tree's child order, every union over `A` is regrouped in place
//! (the `(b, a)` pairs are gathered with one flat sort — the sort-merge
//! equivalent of the paper's Figure 4 priority-queue algorithm, the same
//! `O(N log N)` bound), and all unchanged subtrees are copied whole.  The
//! result is the exact [`Store::freeze`] layout, bit for bit what
//! [`SwapPass`] and the thaw-path [`crate::ops::oracle`] produce.
//!
//! [`SwapPass`]: crate::ops::fuse

use crate::frep::FRep;
use crate::ops::{child_pos, debug_validate};
use crate::store::{Rewriter, Store};
use fdb_common::{ExecCtx, Result, Value};
use fdb_ftree::{FTree, NodeId, SwapOutcome};
use std::collections::BTreeSet;

/// Swap operator `χ_{A,B}` where `b`'s parent is `A`: regroups the
/// representation by `B` before `A` and updates the f-tree accordingly.  On
/// error the representation is left exactly as it was.
pub fn swap(rep: &mut FRep, b: NodeId) -> Result<SwapOutcome> {
    let (out, outcome) = emit_swap(rep, b, &ExecCtx::unlimited())?;
    *rep = out;
    Ok(outcome)
}

/// The lone-swap arm of [`crate::ops::emit_fused_ctx`]: validates on the
/// tree, charges the context, then emits the swapped representation from
/// the borrowed input.  The rewriter has no interruption point of its own,
/// so the input's record count (`unions + entries`) is charged up front and
/// a tripped limit aborts before anything is written.
pub(crate) fn emit_swap(rep: &FRep, b: NodeId, ctx: &ExecCtx) -> Result<(FRep, SwapOutcome)> {
    let mut new_tree = rep.tree().clone();
    let outcome = new_tree.swap_with_parent(b)?;
    ctx.check_now()?;
    let store = rep.store();
    ctx.charge((store.unions.len() + store.entry_count()) as u64)?;
    let swapped = swap_rewrite(store, rep.tree(), &new_tree, &outcome);
    let out = FRep::from_store(new_tree, swapped);
    debug_validate(&out, "swap");
    Ok((out, outcome))
}

/// Emits the swapped arena.
fn swap_rewrite(src: &Store, old_tree: &FTree, new_tree: &FTree, outcome: &SwapOutcome) -> Store {
    let mut sw = SwapRewrite::new(src, old_tree, new_tree, outcome);
    let roots: Vec<u32> = src.roots.iter().map(|&r| sw.emit(r)).collect();
    sw.rw.finish(roots)
}

struct SwapRewrite<'a> {
    rw: Rewriter<'a>,
    a: NodeId,
    b: NodeId,
    /// Ancestors of `A` in the old tree: the unions that must be re-emitted
    /// (rather than copied) because the regrouping happens below them.
    on_path: BTreeSet<NodeId>,
    /// `A`'s old child list (kid-slot order of the input `A`-unions).
    old_a_children: Vec<NodeId>,
    /// For each new child of `A`: `(comes_from_b_side, old kid position)` —
    /// children of `B` that depend on `A` follow `A` down, the rest of `A`'s
    /// children keep their slots.
    a_slots: Vec<(bool, u32)>,
    /// For each new child of `B`: the old kid position of a kept child, or
    /// `None` for the slot of the new inner `A`-union.
    b_slots: Vec<Option<u32>>,
    /// For each ancestor on the path: the old kid position feeding each new
    /// kid slot (only the grandparent's order actually changes: `A`'s slot
    /// becomes `B`'s).
    path_slots: Vec<(NodeId, Vec<u32>)>,
    /// Scratch for the `(b value, a entry, b union, b entry)` pair sort.
    pairs: Vec<(Value, u32, u32, u32)>,
    /// Scratch: the distinct `B`-values of the union being regrouped.
    values: Vec<Value>,
    /// Scratch: start offset of each `B`-value's pair group in `pairs`.
    group_starts: Vec<u32>,
}

impl<'a> SwapRewrite<'a> {
    fn new(src: &'a Store, old_tree: &FTree, new_tree: &FTree, outcome: &SwapOutcome) -> Self {
        let (a, b) = (outcome.old_parent, outcome.new_parent);
        let moved_down: BTreeSet<NodeId> = outcome.moved_down.iter().copied().collect();
        let old_a_children = old_tree.children(a).to_vec();
        let old_b_children = old_tree.children(b).to_vec();

        let a_slots = new_tree
            .children(a)
            .iter()
            .map(|&d| {
                if moved_down.contains(&d) {
                    (true, child_pos(&old_b_children, d))
                } else {
                    (false, child_pos(&old_a_children, d))
                }
            })
            .collect();
        let b_slots = new_tree
            .children(b)
            .iter()
            .map(|&c| {
                if c == a {
                    None
                } else {
                    Some(child_pos(&old_b_children, c))
                }
            })
            .collect();

        let path: Vec<NodeId> = old_tree.ancestors(a);
        let path_slots = path
            .iter()
            .map(|&n| {
                let old_children = old_tree.children(n);
                let slots = new_tree
                    .children(n)
                    .iter()
                    .map(|&c| child_pos(old_children, if c == b { a } else { c }))
                    .collect();
                (n, slots)
            })
            .collect();

        SwapRewrite {
            rw: Rewriter::new(src, old_tree),
            a,
            b,
            on_path: path.into_iter().collect(),
            old_a_children,
            a_slots,
            b_slots,
            path_slots,
            pairs: Vec::new(),
            values: Vec::new(),
            group_starts: Vec::new(),
        }
    }

    fn emit(&mut self, uid: u32) -> u32 {
        let src = self.rw.src;
        let rec = src.unions[uid as usize];
        if rec.node == self.a {
            return self.regroup(uid);
        }
        if !self.on_path.contains(&rec.node) {
            // Nothing below this union changes.
            return self.rw.copy_union(uid);
        }
        // An ancestor of `A`: same entries, kid slots re-emitted in the new
        // tree's child order.
        let out = self
            .rw
            .begin_union(rec.node, src.value_slice(uid).iter().copied());
        let pi = self
            .path_slots
            .iter()
            .position(|(n, _)| *n == rec.node)
            .expect("path nodes are precomputed");
        let slot_count = self.path_slots[pi].1.len();
        for i in 0..rec.entries_len {
            let mark = self.rw.mark();
            for k in 0..slot_count {
                let pos = self.path_slots[pi].1[k];
                let kid = self.emit(src.kid(uid, i, pos));
                self.rw.push_kid(kid);
            }
            self.rw.end_entry(out, i, mark);
        }
        out
    }

    /// Regroups one `A`-union into the corresponding `B`-union.
    fn regroup(&mut self, a_uid: u32) -> u32 {
        let src = self.rw.src;
        let a_rec = src.unions[a_uid as usize];
        let pos_b = child_pos(&self.old_a_children, self.b);

        // Gather every (b value, a entry) pair, then sort by b value with
        // ties in a-entry order — within one b value the pairing a values
        // then arrive in increasing order, as the paper's priority queue
        // delivers them.
        self.pairs.clear();
        for i in 0..a_rec.entries_len {
            let b_uid = src.kid(a_uid, i, pos_b);
            for (j, &value) in src.value_slice(b_uid).iter().enumerate() {
                self.pairs.push((value, i, b_uid, j as u32));
            }
        }
        self.pairs.sort_unstable();

        self.values.clear();
        self.group_starts.clear();
        for (idx, p) in self.pairs.iter().enumerate() {
            if idx == 0 || p.0 != self.pairs[idx - 1].0 {
                self.values.push(p.0);
                self.group_starts.push(idx as u32);
            }
        }
        self.group_starts.push(self.pairs.len() as u32);

        let out_uid = {
            let values = std::mem::take(&mut self.values);
            let uid = self.rw.begin_union(self.b, values.iter().copied());
            self.values = values;
            uid
        };
        let group_count = self.group_starts.len() - 1;
        for g in 0..group_count {
            let (start, end) = (self.group_starts[g], self.group_starts[g + 1]);
            let (_, _a0, b_uid0, j0) = self.pairs[start as usize];
            let mark = self.rw.mark();
            for slot in 0..self.b_slots.len() {
                match self.b_slots[slot] {
                    // A kept child of `B` (F_b): all copies under the
                    // different a values are equal by independence, keep the
                    // first pair's.
                    Some(pos) => {
                        let kid = self.rw.copy_union(src.kid(b_uid0, j0, pos));
                        self.rw.push_kid(kid);
                    }
                    // The inner union over `A`.
                    None => {
                        let inner = self.emit_inner_a(a_uid, start, end);
                        self.rw.push_kid(inner);
                    }
                }
            }
            self.rw.end_entry(out_uid, g as u32, mark);
        }
        out_uid
    }

    /// Emits the inner `A`-union of one `B`-value: one entry per `(a, b)`
    /// pair, with `E_a` copied from the old `A`-entry and `G_ab` copied from
    /// the pair's `B`-entry.
    fn emit_inner_a(&mut self, a_uid: u32, start: u32, end: u32) -> u32 {
        let src = self.rw.src;
        let a_values = src.value_slice(a_uid);
        let inner = self.rw.begin_union_raw(self.a, end - start);
        for p in start..end {
            let (_, i, _, _) = self.pairs[p as usize];
            self.rw.push_value(a_values[i as usize]);
        }
        for k in 0..(end - start) {
            let (_, i, b_uid, j) = self.pairs[(start + k) as usize];
            let mark = self.rw.mark();
            for slot in 0..self.a_slots.len() {
                let (from_b, pos) = self.a_slots[slot];
                let kid = if from_b {
                    src.kid(b_uid, j, pos)
                } else {
                    src.kid(a_uid, i, pos)
                };
                let copied = self.rw.copy_union(kid);
                self.rw.push_kid(copied);
            }
            self.rw.end_entry(inner, k, mark);
        }
        inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enumerate::materialize;
    use crate::node::{Entry, Union};
    use crate::ops::oracle;
    use fdb_common::AttrId;
    use fdb_ftree::{DepEdge, FTree};

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
