//! Schema-level f-tree transformations.
//!
//! Every f-plan operator of the paper has a schema-level effect (a
//! transformation of the f-tree) and a data-level effect (a transformation
//! of the f-representation).  This module owns the schema level of every
//! operator, composite ones included, so plan simulation and execution
//! cannot disagree on the tree an operator yields:
//!
//! * **push-up** `ψ_B` — move a child above its parent when the parent does
//!   not depend on it (Figure 3(a));
//! * **normalisation** `η` — apply push-ups bottom-up until no node can be
//!   lifted any further (Definition 3);
//! * **swap** `χ_{A,B}` — exchange a node with its parent, splitting the
//!   child's children into those that depend on the old parent (they follow
//!   the old parent down) and those that do not (they stay) (Figure 3(b));
//! * **merge** `µ_{A,B}` — fuse two sibling nodes (Figure 3(c));
//! * **absorb** `α_{A,B}` — fuse a node into one of its ancestors
//!   (Figure 3(d));
//! * **constant selection** marking and **projection** `π` (marking
//!   attributes as projected away, swapping fully-projected inner nodes
//!   down, removing exhausted leaves, merging dependency edges to preserve
//!   transitive dependencies).
//!
//! The two composite operators, [`FTree::normalise`] and [`FTree::project`],
//! decide their sequence of primitive edits ([`TreeEdit`]) here, once, and
//! hand each edit to a callback that applies it: [`FTree::apply_edit`] to
//! simulate on the tree alone, or the data-level executor (in `fdb-frep`),
//! which applies the same edit to the tree and mirrors it on the data.

use crate::edgeset::IndexSet;
use crate::ftree::{DepEdge, FTree, NodeId};
use fdb_common::{AttrId, FdbError, Result, Value};
use std::collections::BTreeSet;

/// One primitive edit of a composite operator: what [`FTree::normalise`] and
/// [`FTree::project`] hand their callback to apply.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TreeEdit {
    /// Push-up `ψ` of the node ([`FTree::push_up`]).
    PushUp(NodeId),
    /// Swap `χ` of the node with its parent ([`FTree::swap_with_parent`]).
    Swap(NodeId),
    /// Removal of a fully-projected leaf ([`FTree::remove_projected_leaf`]).
    RemoveLeaf(NodeId),
}

/// Description of what a swap did to the tree, needed by the data-level
/// operator to rearrange the representation accordingly.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SwapOutcome {
    /// The node that was the parent before the swap (labelled `A` in the
    /// paper) — now the child.
    pub old_parent: NodeId,
    /// The node that was the child before the swap (labelled `B`) — now the
    /// parent.
    pub new_parent: NodeId,
    /// Children of `B` that depend on `A` (the paper's `T_{AB}`); they have
    /// been re-attached under `A`.
    pub moved_down: Vec<NodeId>,
    /// Children of `B` that do not depend on `A` (the paper's `T_B`); they
    /// stayed attached to `B`.
    pub kept: Vec<NodeId>,
}

impl FTree {
    // ------------------------------------------------------------------
    // Push-up and normalisation
    // ------------------------------------------------------------------

    /// Returns `true` if node `b` can be pushed above its parent without
    /// violating the path constraint: it has a parent, and that parent does
    /// not depend on `b` or any of `b`'s descendants.
    pub fn can_push_up(&self, b: NodeId) -> bool {
        (self.parent(b)).is_some_and(|a| !self.depends_on_subtree(a, b))
    }

    /// Push-up operator `ψ_B`: moves `b` (with its whole subtree) one level
    /// up, making it a sibling of its former parent.
    pub fn push_up(&mut self, b: NodeId) -> Result<()> {
        self.check_node(b)?;
        let Some(a) = self.parent(b) else {
            return Err(FdbError::InvalidOperator {
                detail: format!("push-up: {b} is a root"),
            });
        };
        if self.depends_on_subtree(a, b) {
            return Err(FdbError::InvalidOperator {
                detail: format!("push-up: parent {a} depends on the subtree of {b}"),
            });
        }
        let grandparent = self.parent(a);
        self.detach(b);
        self.attach(b, grandparent);
        Ok(())
    }

    /// Returns `true` if no node of the tree can be pushed up (Definition 3).
    pub fn is_normalised(&self) -> bool {
        self.node_ids().into_iter().all(|n| !self.can_push_up(n))
    }

    /// Normalisation operator `η`: pushes each node up (bottom-up) as far as
    /// it goes.  Each push-up goes to `edit`, which must apply it to the
    /// tree it is handed ([`FTree::apply_edit`] does, on the tree alone);
    /// the first error `edit` returns stops the pass.
    ///
    /// One pass leaves the tree normalised.  A push-up moves a subtree up,
    /// so ancestor sets only shrink: once a node stops, its parent stays,
    /// and so does its subtree — every node that could leave it lay deeper,
    /// and so went before it.  The node depends on its parent as it did.
    pub fn normalise(
        &mut self,
        mut edit: impl FnMut(&mut FTree, TreeEdit) -> Result<()>,
    ) -> Result<()> {
        for node in self.bottom_up() {
            while self.can_push_up(node) {
                edit(self, TreeEdit::PushUp(node))?;
            }
        }
        Ok(())
    }

    /// Applies one primitive edit to the tree alone.
    pub fn apply_edit(&mut self, edit: TreeEdit) -> Result<()> {
        match edit {
            TreeEdit::PushUp(b) => self.push_up(b),
            TreeEdit::Swap(b) => self.swap_with_parent(b).map(drop),
            TreeEdit::RemoveLeaf(leaf) => self.remove_projected_leaf(leaf),
        }
    }

    // ------------------------------------------------------------------
    // Swap
    // ------------------------------------------------------------------

    /// The parent `b` swaps with, or the error the swap fails with.
    pub(crate) fn swap_parent(&self, b: NodeId) -> Result<NodeId> {
        self.check_node(b)?;
        self.parent(b).ok_or_else(|| FdbError::InvalidOperator {
            detail: format!("swap: {b} is a root"),
        })
    }

    /// Swap operator `χ_{A,B}` where `b` is a child of `a = parent(b)`:
    /// promotes `b` to `a`'s position and demotes `a` to a child of `b`.
    /// Children of `b` that depend on `a` follow `a` down; the rest stay
    /// under `b`.
    pub fn swap_with_parent(&mut self, b: NodeId) -> Result<SwapOutcome> {
        let a = self.swap_parent(b)?;
        let (moved_down, kept) =
            (self.children(b).iter()).partition(|&&c| self.depends_on_subtree(a, c));
        let grandparent = self.parent(a);
        // Detach b from a, re-root it where a was, and hang a under b.
        self.detach(b);
        self.detach(a);
        self.attach(b, grandparent);
        self.attach(a, Some(b));
        // Children of b that depend on a move under a.
        for &c in &moved_down {
            self.detach(c);
            self.attach(c, Some(a));
        }
        Ok(SwapOutcome {
            old_parent: a,
            new_parent: b,
            moved_down,
            kept,
        })
    }

    // ------------------------------------------------------------------
    // Merge and absorb
    // ------------------------------------------------------------------

    /// Returns `true` if the two nodes are siblings: they share the same
    /// parent, or are both roots of the forest.
    pub fn are_siblings(&self, a: NodeId, b: NodeId) -> bool {
        a != b && self.parent(a) == self.parent(b)
    }

    /// Merge operator `µ_{A,B}` on sibling nodes: fuses `b` into `a`.  The
    /// surviving node `a` is labelled by the union of both classes and
    /// inherits `b`'s children (appended after `a`'s own).
    pub fn merge_siblings(&mut self, a: NodeId, b: NodeId) -> Result<NodeId> {
        self.check_node(a)?;
        self.check_node(b)?;
        if !self.are_siblings(a, b) {
            return Err(FdbError::InvalidOperator {
                detail: format!("merge: {a} and {b} are not siblings"),
            });
        }
        self.fuse_nodes(a, b, Some(a));
        Ok(a)
    }

    /// Absorb operator `α_{A,B}` where `a` is a strict ancestor of `b`:
    /// fuses `b` into `a`.  `b`'s children are re-attached to `b`'s former
    /// parent.  The caller is expected to normalise afterwards (the paper's
    /// absorb finishes with a normalisation step); this method leaves that to
    /// the caller, whose [`FTree::normalise`] callback applies the push-ups.
    pub fn absorb_into_ancestor(&mut self, a: NodeId, b: NodeId) -> Result<()> {
        self.check_node(a)?;
        self.check_node(b)?;
        if !self.is_ancestor(a, b) {
            return Err(FdbError::InvalidOperator {
                detail: format!("absorb: {a} is not an ancestor of {b}"),
            });
        }
        self.fuse_nodes(a, b, self.parent(b));
        Ok(())
    }

    // ------------------------------------------------------------------
    // Constant selections and projections
    // ------------------------------------------------------------------

    /// Marks a node as bound to a constant by an equality selection
    /// (`σ_{A=c}`); such nodes are ignored when computing `s(T)`.
    pub fn bind_constant(&mut self, node: NodeId, value: Value) -> Result<()> {
        self.check_node(node)?;
        self.set_constant(node, value);
        Ok(())
    }

    /// Projection operator `π` onto `keep` (attributes of `keep` absent from
    /// the tree are ignored):
    ///
    /// 1. every other attribute is *marked* projected on its node;
    /// 2. leaves whose attributes are all marked are removed, merging the
    ///    dependency edges that met in them so transitive dependencies
    ///    survive;
    /// 3. a marked inner node — it still carries the correlation between
    ///    its ancestors and descendants, the paper's `A — B — C` example —
    ///    swaps with its first child, one level down, and step 2 runs again
    ///    until no marked node is left.
    ///
    /// Each swap and removal goes to `edit`, which must apply it to the
    /// tree it is handed ([`FTree::apply_edit`] does, on the tree alone);
    /// the first error `edit` returns stops the loop.
    pub fn project(
        &mut self,
        keep: &BTreeSet<AttrId>,
        mut edit: impl FnMut(&mut FTree, TreeEdit) -> Result<()>,
    ) -> Result<()> {
        let marked: BTreeSet<AttrId> = self.all_attrs().difference(keep).copied().collect();
        if marked.is_empty() {
            return Ok(());
        }
        self.mark_attrs_projected(&marked);
        loop {
            let removable = self.removable_projected_leaves();
            if !removable.is_empty() {
                for leaf in removable {
                    edit(self, TreeEdit::RemoveLeaf(leaf))?;
                }
                continue;
            }
            // Each swap strictly shrinks the marked node's subtree, so this
            // terminates.
            let marked_inner = self
                .node_ids()
                .into_iter()
                .find(|&n| self.visible_attrs(n).is_empty() && !self.is_leaf(n));
            let Some(node) = marked_inner else {
                return Ok(());
            };
            edit(self, TreeEdit::Swap(self.children(node)[0]))?;
        }
    }

    /// Marks the given attributes as projected away wherever they occur.
    /// Nodes keep their labels ([`FTree::project`] removes nodes only once
    /// they are leaves with no visible attribute left).
    pub fn mark_attrs_projected(&mut self, attrs: &BTreeSet<AttrId>) {
        for node in self.node_ids() {
            self.mark_projected(node, attrs);
        }
    }

    /// Returns the leaves whose attributes have all been projected away;
    /// these can be removed without losing dependency information.
    pub fn removable_projected_leaves(&self) -> Vec<NodeId> {
        self.leaf_ids()
            .filter(|&l| self.visible_attrs(l).is_empty())
            .collect()
    }

    /// Removes a leaf node whose attributes have all been projected away.
    ///
    /// To preserve *transitive* dependencies (the paper's `A — B — C`
    /// example in Section 3.4), all dependency edges that had attributes in
    /// the removed class are merged into a single edge before the node is
    /// dropped.
    pub fn remove_projected_leaf(&mut self, leaf: NodeId) -> Result<()> {
        self.check_node(leaf)?;
        if !self.is_leaf(leaf) {
            return Err(FdbError::InvalidOperator {
                detail: format!("projection: {leaf} is not a leaf"),
            });
        }
        if !self.visible_attrs(leaf).is_empty() {
            return Err(FdbError::InvalidOperator {
                detail: format!("projection: {leaf} still has visible attributes"),
            });
        }
        self.merge_edges_touching(leaf);
        self.remove_childless(leaf);
        Ok(())
    }

    /// Merges all dependency edges that have at least one attribute in the
    /// node's class into a single edge (the union of their attribute sets).
    /// The merged edge's cardinality is the product of the constituents'
    /// cardinalities — an upper bound on the size of their join.
    fn merge_edges_touching(&mut self, node: NodeId) {
        let touching: Vec<usize> = self.incidence(node).iter().collect();
        if touching.len() <= 1 {
            return;
        }
        let mut merged_attrs: BTreeSet<AttrId> = BTreeSet::new();
        let mut labels: Vec<String> = Vec::new();
        let mut cardinality: u64 = 1;
        for &i in &touching {
            let e = &self.edges()[i];
            merged_attrs.extend(e.attrs.iter().copied());
            labels.push(e.label.clone());
            cardinality = cardinality.saturating_mul(e.cardinality.max(1));
        }
        let edges = self.edges_mut();
        // Remove from the back so indices stay valid.
        for &i in touching.iter().rev() {
            edges.remove(i);
        }
        edges.push(DepEdge::new(labels.join("⋈"), merged_attrs, cardinality));
        // Removing edges renumbered the ones behind them.
        self.rebuild_incidence();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn attrs(ids: &[u32]) -> BTreeSet<AttrId> {
        ids.iter().map(|&i| AttrId(i)).collect()
    }

    /// Example 7 of the paper: relations over {A,B}, {B',C}, {C',D}, {D',E}
    /// with attribute ids A=0, B=1, B'=2, C=3, C'=4, D=5, D'=6, E=7.
    /// Initial (non-normalised) tree is the single path
    ///   {B,B'} → A → {D,D'} → {C,C'} → E.
    fn example7() -> (FTree, [NodeId; 5]) {
        let edges = vec![
            DepEdge::new("R1", attrs(&[0, 1]), 1),
            DepEdge::new("R2", attrs(&[2, 3]), 1),
            DepEdge::new("R3", attrs(&[4, 5]), 1),
            DepEdge::new("R4", attrs(&[6, 7]), 1),
        ];
        let mut t = FTree::new(edges);
        let bb = t.add_node(attrs(&[1, 2]), None).unwrap();
        let a = t.add_node(attrs(&[0]), Some(bb)).unwrap();
        let dd = t.add_node(attrs(&[5, 6]), Some(a)).unwrap();
        let cc = t.add_node(attrs(&[3, 4]), Some(dd)).unwrap();
        let e = t.add_node(attrs(&[7]), Some(cc)).unwrap();
        (t, [bb, a, dd, cc, e])
    }

    #[test]
    fn example7_normalisation_matches_the_paper() {
        let (mut t, [bb, a, dd, cc, e]) = example7();
        assert!(!t.is_normalised());
        // E can be pushed above {C,C'} (R4 = {D',E} does not involve C/C').
        assert!(t.can_push_up(e));
        // {C,C'} cannot be pushed above {D,D'} (R3 = {C',D}).
        assert!(!t.can_push_up(cc));
        let mut applied = Vec::new();
        t.normalise(|t, edit| {
            applied.push(edit);
            t.apply_edit(edit)
        })
        .unwrap();
        assert!(t.is_normalised());
        t.check_structure().unwrap();
        t.check_path_constraint().unwrap();
        // Per Example 7: E ends up as a child of {D,D'}, and {D,D'} is pushed
        // up next to A under {B,B'}.
        assert_eq!(t.parent(e), Some(dd));
        assert_eq!(t.parent(dd), Some(bb));
        assert_eq!(t.parent(cc), Some(dd));
        assert_eq!(t.parent(a), Some(bb));
        // Exactly the paper's two push-ups were needed (ψ_E then ψ_{D,D'}).
        assert_eq!(applied, vec![TreeEdit::PushUp(e), TreeEdit::PushUp(dd)]);
    }

    #[test]
    fn push_up_rejects_dependent_children_and_roots() {
        let (mut t, [_, _, _, cc, _]) = example7();
        let err = t.push_up(cc).unwrap_err();
        assert!(matches!(err, FdbError::InvalidOperator { .. }));
        let roots = t.roots().to_vec();
        let err = t.push_up(roots[0]).unwrap_err();
        assert!(matches!(err, FdbError::InvalidOperator { .. }));
    }

    /// The grocery T1 tree (see `ftree.rs` tests) used for swap/merge tests:
    /// item{1,3} → oid{0}, location{2,5} → dispatcher{4}.
    fn grocery_t1() -> (FTree, [NodeId; 4]) {
        let edges = vec![
            DepEdge::new("Orders", attrs(&[0, 1]), 5),
            DepEdge::new("Store", attrs(&[2, 3]), 6),
            DepEdge::new("Disp", attrs(&[4, 5]), 4),
        ];
        let mut t = FTree::new(edges);
        let item = t.add_node(attrs(&[1, 3]), None).unwrap();
        let oid = t.add_node(attrs(&[0]), Some(item)).unwrap();
        let location = t.add_node(attrs(&[2, 5]), Some(item)).unwrap();
        let dispatcher = t.add_node(attrs(&[4]), Some(location)).unwrap();
        (t, [item, oid, location, dispatcher])
    }

    #[test]
    fn swap_item_location_produces_t2() {
        // χ_{item,location} turns T1 into T2: location on top, item below it
        // with oid still under item, dispatcher staying under location
        // (dispatcher does not depend on item).
        let (mut t, [item, oid, location, dispatcher]) = grocery_t1();
        let outcome = t.swap_with_parent(location).unwrap();
        t.check_structure().unwrap();
        t.check_path_constraint().unwrap();
        assert_eq!(outcome.new_parent, location);
        assert_eq!(outcome.old_parent, item);
        assert!(outcome.moved_down.is_empty());
        assert_eq!(outcome.kept, vec![dispatcher]);
        assert_eq!(t.roots(), &[location]);
        assert_eq!(t.parent(item), Some(location));
        assert_eq!(t.parent(dispatcher), Some(location));
        assert_eq!(t.parent(oid), Some(item));
        assert!(t.is_normalised());
    }

    #[test]
    fn swap_moves_dependent_children_down() {
        // Tree: A{0} → B{1} → (C{2}, D{3}); relations {0,1}, {0,2}, {1,3}.
        // C depends on A, D does not.  Swapping B above A must move C under
        // A and keep D under B.
        let edges = vec![
            DepEdge::new("R1", attrs(&[0, 1]), 1),
            DepEdge::new("R2", attrs(&[0, 2]), 1),
            DepEdge::new("R3", attrs(&[1, 3]), 1),
        ];
        let mut t = FTree::new(edges);
        let a = t.add_node(attrs(&[0]), None).unwrap();
        let b = t.add_node(attrs(&[1]), Some(a)).unwrap();
        let c = t.add_node(attrs(&[2]), Some(b)).unwrap();
        let d = t.add_node(attrs(&[3]), Some(b)).unwrap();
        let outcome = t.swap_with_parent(b).unwrap();
        t.check_structure().unwrap();
        t.check_path_constraint().unwrap();
        assert_eq!(outcome.moved_down, vec![c]);
        assert_eq!(outcome.kept, vec![d]);
        assert_eq!(t.parent(c), Some(a));
        assert_eq!(t.parent(d), Some(b));
        assert_eq!(t.parent(a), Some(b));
        assert_eq!(t.roots(), &[b]);
    }

    #[test]
    fn swap_is_an_involution_on_the_canonical_key() {
        let (t0, [_item, _oid, location, _dispatcher]) = grocery_t1();
        let key_before = t0.canonical_key();
        let mut t = t0.clone();
        t.swap_with_parent(location).unwrap();
        // Swapping back: item is now the child of location.
        let item = t.node_of_attr(AttrId(1)).unwrap();
        t.swap_with_parent(item).unwrap();
        assert_eq!(t.canonical_key(), key_before);
    }

    /// The link frame against the operator, for every node of random trees
    /// — normalised and not, with merged classes, constant-bound nodes,
    /// children that follow the old parent down, and forests of 70 and 200
    /// relations, whose incidence sets spill past one word: one frame per
    /// tree probes every swap, and each probe's key and `s(T)` are the
    /// swapped tree's, bit for bit.
    #[test]
    fn the_key_after_a_swap_is_the_key_of_the_swapped_tree() {
        use crate::cost::SCostMemo;
        use crate::frame::LinkFrame;
        use crate::invariant_tests::{random_edit, relation_chains};
        use rand::{rngs::StdRng, Rng, SeedableRng};
        // Swaps checked; of them on non-normalised trees, on trees with a
        // constant, with a multi-attribute class involved, moving children,
        // leaving the old parent a leaf, on trees of more than 64 edges;
        // roots refused.
        let mut seen = [0usize; 8];
        let mut memo = SCostMemo::new();
        for (relations, seeds, steps) in [(3, 12, 16), (6, 12, 16), (70, 2, 8), (200, 1, 5)] {
            for seed in 0..seeds {
                let mut rng = StdRng::seed_from_u64(0x5A9 ^ (relations as u64) << 8 ^ seed);
                let mut tree = relation_chains(&mut rng, relations, 0);
                let mut next_attr = 3 * relations as u32;
                // Join chains up, so classes span edges and nodes depend on
                // each other across relations.
                for _ in 0..relations / 2 {
                    if let [a, .., b] = tree.roots().to_vec()[..] {
                        tree.merge_siblings(a, b).unwrap();
                    }
                }
                // Every other tree starts far from normalised: its roots
                // hung below each other, relations that share nothing nested.
                if seed % 2 == 0 {
                    for pair in tree.roots().to_vec().windows(2) {
                        tree.detach(pair[1]);
                        tree.attach(pair[1], Some(pair[0]));
                    }
                }
                for step in 0..steps {
                    random_edit(&mut tree, &mut rng, &mut next_attr);
                    let nodes = tree.node_ids();
                    if step % 5 == 4 {
                        let bound = nodes[rng.gen_range(0..nodes.len())];
                        tree.bind_constant(bound, Value::new(step)).unwrap();
                    }
                    let constants = nodes.iter().any(|&n| tree.constant(n).is_some());
                    let mut frame = LinkFrame::new(&tree);
                    let own = memo.s_cost(&tree).unwrap().to_bits();
                    assert_eq!(frame.s_cost(&mut memo).unwrap().to_bits(), own);
                    for &b in &nodes {
                        let mut swapped = tree.clone();
                        match swapped.swap_with_parent(b) {
                            Ok(outcome) => {
                                let key = frame.swap(b).unwrap();
                                assert_eq!(key, &swapped.canonical_key()[..], "{b}");
                                let cost = memo.s_cost(&swapped).unwrap().to_bits();
                                assert_eq!(frame.s_cost(&mut memo).unwrap().to_bits(), cost);
                                let a = outcome.old_parent;
                                seen[0] += 1;
                                seen[1] += usize::from(!tree.is_normalised());
                                seen[2] += usize::from(constants);
                                seen[3] +=
                                    usize::from(tree.class(a).len() + tree.class(b).len() > 2);
                                seen[4] += usize::from(!outcome.moved_down.is_empty());
                                seen[5] += usize::from(swapped.children(a).is_empty());
                                seen[6] += usize::from(tree.edges().len() > 64);
                            }
                            Err(e) => {
                                assert_eq!(frame.swap(b).unwrap_err(), e);
                                seen[7] += 1;
                            }
                        }
                    }
                }
            }
        }
        assert!(seen.iter().all(|&n| n >= 100), "{seen:?}");
        // A node the tree does not have fails as the swap does.
        let (t, _) = grocery_t1();
        let ghost = NodeId(9);
        assert_eq!(
            LinkFrame::new(&t).swap(ghost).unwrap_err(),
            t.clone().swap_with_parent(ghost).unwrap_err()
        );
    }

    #[test]
    fn merge_requires_siblings() {
        let (mut t, [item, _oid, _location, dispatcher]) = grocery_t1();
        assert!(matches!(
            t.merge_siblings(item, dispatcher),
            Err(FdbError::InvalidOperator { .. })
        ));
    }

    #[test]
    fn merge_of_sibling_roots_combines_classes_and_children() {
        // Two separate trees rooted at item-like nodes (as after a Cartesian
        // product of two factorisations), then merged on their roots — this
        // is how the paper's Example 9 builds T5 out of T1 and T4.
        let edges = vec![
            DepEdge::new("R", attrs(&[0, 1]), 1),
            DepEdge::new("S", attrs(&[2, 3]), 1),
        ];
        let mut t = FTree::new(edges);
        let r_item = t.add_node(attrs(&[0]), None).unwrap();
        let r_oid = t.add_node(attrs(&[1]), Some(r_item)).unwrap();
        let s_item = t.add_node(attrs(&[2]), None).unwrap();
        let s_sup = t.add_node(attrs(&[3]), Some(s_item)).unwrap();
        let merged = t.merge_siblings(r_item, s_item).unwrap();
        t.check_structure().unwrap();
        t.check_path_constraint().unwrap();
        assert_eq!(merged, r_item);
        assert_eq!(t.class(merged), &attrs(&[0, 2]));
        assert_eq!(t.children(merged), &[r_oid, s_sup]);
        assert_eq!(t.node_count(), 3);
        assert!(t.roots() == [r_item]);
    }

    #[test]
    fn absorb_example10_matches_the_paper() {
        // Example 10: relations {A,B}, {B',C}, {C',D} with the path
        // A → {B,B'} → {C,C'} → D.  Absorbing {C,C'} into A makes D
        // independent of {B,B'}, so normalisation pushes D up.
        // Attribute ids: A=0, B=1, B'=2, C=3, C'=4, D=5.
        let edges = vec![
            DepEdge::new("R1", attrs(&[0, 1]), 1),
            DepEdge::new("R2", attrs(&[2, 3]), 1),
            DepEdge::new("R3", attrs(&[4, 5]), 1),
        ];
        let mut t = FTree::new(edges);
        let a = t.add_node(attrs(&[0]), None).unwrap();
        let bb = t.add_node(attrs(&[1, 2]), Some(a)).unwrap();
        let cc = t.add_node(attrs(&[3, 4]), Some(bb)).unwrap();
        let d = t.add_node(attrs(&[5]), Some(cc)).unwrap();

        t.absorb_into_ancestor(a, cc).unwrap();
        t.check_structure().unwrap();
        // After absorption (before normalisation) D hangs under {B,B'}.
        assert_eq!(t.parent(d), Some(bb));
        assert_eq!(t.class(a), &attrs(&[0, 3, 4]));
        // Normalisation lifts D next to {B,B'} under the merged root.
        t.normalise(FTree::apply_edit).unwrap();
        t.check_path_constraint().unwrap();
        assert_eq!(t.parent(d), Some(a));
        assert_eq!(t.parent(bb), Some(a));
        assert!(t.is_normalised());
    }

    #[test]
    fn absorb_rejects_non_ancestors() {
        let (mut t, [_item, oid, _location, dispatcher]) = grocery_t1();
        assert!(matches!(
            t.absorb_into_ancestor(oid, dispatcher),
            Err(FdbError::InvalidOperator { .. })
        ));
    }

    #[test]
    fn constant_binding_is_recorded() {
        let (mut t, [item, ..]) = grocery_t1();
        t.bind_constant(item, Value::new(42)).unwrap();
        assert_eq!(t.constant(item), Some(Value::new(42)));
    }

    #[test]
    fn projection_marking_and_leaf_removal() {
        let (mut t, [item, oid, location, dispatcher]) = grocery_t1();
        // Project away the dispatcher (AttrId 4): it is a leaf, so it can be
        // removed straight away.
        t.mark_attrs_projected(&attrs(&[4]));
        assert_eq!(t.removable_projected_leaves(), vec![dispatcher]);
        t.remove_projected_leaf(dispatcher).unwrap();
        t.check_structure().unwrap();
        assert_eq!(t.node_count(), 3);
        assert!(t.is_leaf(location));
        // Removing a non-leaf or a still-visible leaf is rejected.
        assert!(t.remove_projected_leaf(item).is_err());
        assert!(t.remove_projected_leaf(oid).is_err());
    }

    #[test]
    fn projection_swaps_a_marked_inner_node_down_and_removes_it() {
        // A{0} → B{1} over R{0,1}, projected onto B: A is a marked inner
        // node, so B swaps above it, and A, now a leaf, goes.
        let mut t = FTree::new(vec![DepEdge::new("R", attrs(&[0, 1]), 1)]);
        let a = t.add_node(attrs(&[0]), None).unwrap();
        let b = t.add_node(attrs(&[1]), Some(a)).unwrap();
        let mut applied = Vec::new();
        t.project(&attrs(&[1]), |t, edit| {
            applied.push(edit);
            t.apply_edit(edit)
        })
        .unwrap();
        t.check_structure().unwrap();
        assert_eq!(applied, vec![TreeEdit::Swap(b), TreeEdit::RemoveLeaf(a)]);
        assert_eq!(t.roots(), &[b]);
        assert_eq!(t.node_count(), 1);
        // Keeping every attribute edits nothing.
        t.project(&attrs(&[1]), |_, edit| panic!("{edit:?}"))
            .unwrap();
    }

    #[test]
    fn removing_a_shared_leaf_merges_dependency_edges() {
        // A{0} — X{1} — C{2} with R1 = {0,1}, R2 = {1,2}.  Projecting X away
        // must leave A and C transitively dependent: after removing the leaf
        // X the two edges are merged, so A and C may not become siblings by
        // normalisation.
        let edges = vec![
            DepEdge::new("R1", attrs(&[0, 1]), 1),
            DepEdge::new("R2", attrs(&[1, 2]), 1),
        ];
        let mut t = FTree::new(edges);
        let a = t.add_node(attrs(&[0]), None).unwrap();
        let c = t.add_node(attrs(&[2]), Some(a)).unwrap();
        let x = t.add_node(attrs(&[1]), Some(c)).unwrap();
        t.mark_attrs_projected(&attrs(&[1]));
        t.remove_projected_leaf(x).unwrap();
        assert_eq!(t.edges().len(), 1);
        assert!(
            t.incidence(a).intersects(t.incidence(c)),
            "transitive dependency must be preserved"
        );
        assert!(!t.can_push_up(c));
    }
}
