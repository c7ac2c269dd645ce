//! The projection operator `π_Ā`.
//!
//! Projection replaces the singletons of every attribute outside the
//! projection list with the nullary singleton `⟨⟩`.  On the structure this
//! means:
//!
//! 1. the projected-away attributes are *marked* on their nodes (nodes are
//!    not removed immediately — an inner node whose attributes are all
//!    projected away still carries the correlation between its ancestors and
//!    descendants, exactly the paper's `A — B — C` example);
//! 2. leaves whose attributes are all marked are removed (their union of
//!    singletons collapses to `⟨⟩`), merging the dependency edges that used
//!    to meet in them so transitive dependencies survive;
//! 3. remaining marked inner nodes are swapped downwards until they become
//!    leaves, then removed as well.
//!
//! Every step is **arena-native**: the marking touches only the f-tree, each
//! leaf removal is one [`Rewriter`] pass that drops the leaf's unions and
//! kid slots, and the swap-down steps reuse the arena-native
//! [`crate::ops::swap()`].  The old thaw-once/freeze-once implementation
//! survives as [`crate::ops::oracle`].
//!
//! The represented relation afterwards is the projection (with set
//! semantics — a factorised representation never stores duplicate tuples).

use crate::frep::FRep;
use crate::ops::swap::swap;
use crate::ops::{child_pos, debug_validate};
use crate::store::{Rewriter, Store};
use fdb_common::{AttrId, Result};
use fdb_ftree::{FTree, NodeId};
use std::collections::BTreeSet;

/// Projection operator `π_keep`: projects the representation onto the given
/// attributes.  Attributes in `keep` that do not occur in the representation
/// are ignored.
pub fn project(rep: &mut FRep, keep: &BTreeSet<AttrId>) -> Result<()> {
    let all = rep.tree().all_attrs();
    let marked: BTreeSet<AttrId> = all.difference(keep).copied().collect();
    if marked.is_empty() {
        return Ok(());
    }

    // Marking is a schema-level change only; the data is untouched until a
    // node actually disappears.
    rep.tree_mut().mark_attrs_projected(&marked);

    loop {
        // Remove every leaf whose attributes have all been projected away.
        let removable = rep.tree().removable_projected_leaves();
        if !removable.is_empty() {
            for leaf in removable {
                remove_leaf(rep, leaf)?;
            }
            continue;
        }
        // Otherwise pick a fully-projected inner node and swap it one level
        // down (each swap strictly shrinks its subtree, so this terminates).
        let marked_inner = rep
            .tree()
            .node_ids()
            .into_iter()
            .find(|&n| rep.tree().visible_attrs(n).is_empty() && !rep.tree().is_leaf(n));
        match marked_inner {
            Some(node) => {
                let child = rep.tree().children(node)[0];
                swap(rep, child)?;
            }
            None => break,
        }
    }
    debug_validate(rep, "project");
    Ok(())
}

/// Removes one fully-projected leaf from both the tree and the arena: its
/// unions vanish, its kid slot disappears from the parent's entries, and the
/// dependency edges that met in it are merged.
fn remove_leaf(rep: &mut FRep, leaf: NodeId) -> Result<()> {
    let parent = rep.tree().parent(leaf);
    let mut new_tree = rep.tree().clone();
    new_tree.remove_projected_leaf(leaf)?;
    let store = remove_leaf_rewrite(rep.store(), rep.tree(), leaf, parent);
    rep.replace_parts(new_tree, store);
    debug_validate(rep, "project: leaf removal");
    Ok(())
}

/// Emits the arena without the leaf's unions.
fn remove_leaf_rewrite(
    src: &Store,
    old_tree: &FTree,
    leaf: NodeId,
    parent: Option<NodeId>,
) -> Store {
    let mut rl = RemoveLeaf {
        rw: Rewriter::new(src, old_tree),
        parent,
        on_path: old_tree.ancestors(leaf).into_iter().collect(),
        kept_slots: parent
            .map(|p| {
                let pos_leaf = child_pos(old_tree.children(p), leaf);
                (0..old_tree.children(p).len() as u32)
                    .filter(|&k| k != pos_leaf)
                    .collect()
            })
            .unwrap_or_default(),
    };
    let roots: Vec<u32> = match parent {
        Some(_) => src.roots.iter().map(|&r| rl.emit(r)).collect(),
        // A root leaf: its union simply drops out of the root product.
        None => src
            .roots
            .iter()
            .filter(|&&r| src.unions[r as usize].node != leaf)
            .map(|&r| rl.rw.copy_union(r))
            .collect(),
    };
    rl.rw.finish(roots)
}

struct RemoveLeaf<'a> {
    rw: Rewriter<'a>,
    parent: Option<NodeId>,
    /// Ancestors of the leaf in the old tree (so including the parent).
    on_path: BTreeSet<NodeId>,
    /// The parent's kid positions that survive (everything but the leaf's).
    kept_slots: Vec<u32>,
}

impl RemoveLeaf<'_> {
    fn emit(&mut self, uid: u32) -> u32 {
        let src = self.rw.src;
        let rec = src.unions[uid as usize];
        if Some(rec.node) == self.parent {
            // Drop the leaf's kid slot; everything below the others is
            // unchanged.
            let out = self
                .rw
                .begin_union(rec.node, src.value_slice(uid).iter().copied());
            for i in 0..rec.entries_len {
                let mark = self.rw.mark();
                for s in 0..self.kept_slots.len() {
                    let pos = self.kept_slots[s];
                    let kid = self.rw.copy_union(src.kid(uid, i, pos));
                    self.rw.push_kid(kid);
                }
                self.rw.end_entry(out, i, mark);
            }
            return out;
        }
        if !self.on_path.contains(&rec.node) {
            return self.rw.copy_union(uid);
        }
        // A strict ancestor above the parent.
        let out = self
            .rw
            .begin_union(rec.node, src.value_slice(uid).iter().copied());
        let kid_count = self.rw.src_kid_count(rec.node);
        for i in 0..rec.entries_len {
            let mark = self.rw.mark();
            for k in 0..kid_count {
                let kid = self.emit(src.kid(uid, i, k));
                self.rw.push_kid(kid);
            }
            self.rw.end_entry(out, i, mark);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enumerate::materialize;
    use crate::frep::{Entry, Union};
    use crate::ops::oracle;
    use fdb_common::Value;
    use fdb_ftree::DepEdge;

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
