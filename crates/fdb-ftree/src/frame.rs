//! The link frame of an f-tree: what the plan search reads off a tree it
//! expands, once, to key and cost each of its swap neighbours without
//! copying the tree.
//!
//! A swap changes no label, only the parent of `b`, of `a = parent(b)` and
//! of the children of `b` whose subtree meets `a`'s incidence set (the split
//! [`FTree::swap_with_parent`] applies, decided by the same
//! [`FTree::depends_on_subtree`]).  So the frame holds the parent array over
//! node slots and the live nodes in canonical-key order with the bytes of
//! their labels.  A swap neighbour is the parent array with those entries
//! patched: its key is written by the one key writer, which
//! [`FTree::canonical_key`] runs on the unpatched array, and its `s(T)`
//! walks the patched paths through the one path walk behind
//! [`SCostMemo::s_cost`].  Its leaves are the tree's without `b`, which now
//! has `a` below it, and with `a` if `b` was its only child and none of
//! `b`'s children moved down.  Merges and absorbs are not probed here: the
//! search builds them and keys them from their trees, so node fusion and
//! normalisation keep one implementation each.

use crate::cost::SCostMemo;
use crate::ftree::{FTree, NodeId};
use fdb_common::{AttrId, Result, Value};
use std::collections::BTreeSet;

/// One f-tree's links and labels, read once, and the swap last probed (see
/// the module docs).
pub struct LinkFrame<'t> {
    tree: &'t FTree,
    /// The live nodes in key order (ascending smallest class attribute,
    /// which comes first), each with the end of its label — class and
    /// constant — in `labels`.
    order: Vec<(u32, NodeId, usize)>,
    labels: Vec<u8>,
    /// Per node slot: the smallest class attribute and the parent.
    first: Vec<u32>,
    parent: Vec<Option<NodeId>>,
    /// The swap last probed (the tree itself before any probe): its parent
    /// array, the leaf it takes away (`b`) and the one it adds (`a`, if
    /// any), and its key.
    swapped: Vec<Option<NodeId>>,
    leaf_lost: Option<NodeId>,
    leaf_gained: Option<NodeId>,
    key: Vec<u8>,
}

impl<'t> LinkFrame<'t> {
    /// Reads the frame of `tree`.
    pub fn new(tree: &'t FTree) -> LinkFrame<'t> {
        let parent = tree.parents();
        let smallest = |n: NodeId| tree.class(n).first().expect("classes are non-empty").0;
        let mut order: Vec<(u32, NodeId, usize)> = (tree.node_ids().into_iter())
            .map(|n| (smallest(n), n, 0))
            .collect();
        order.sort_unstable();
        let (mut labels, mut first) = (Vec::with_capacity(4 * order.len()), vec![0; parent.len()]);
        for (attr, n, end) in &mut order {
            first[n.index()] = *attr;
            write_label(tree.class(*n), tree.constant(*n), &mut labels);
            *end = labels.len();
        }
        LinkFrame {
            tree,
            order,
            labels,
            first,
            swapped: parent.clone(),
            parent,
            leaf_lost: None,
            leaf_gained: None,
            key: Vec::new(),
        }
    }

    /// The key writer: each node's label, in key order, then the smallest
    /// class attribute of its parent in the swap last probed plus one (zero
    /// for a root).
    pub(crate) fn write_key(&mut self) -> &[u8] {
        let key = &mut self.key;
        key.clear();
        // Exact when every parent varint is one byte.
        key.reserve(self.labels.len() + self.order.len());
        let mut start = 0;
        for &(_, n, end) in &self.order {
            key.extend_from_slice(&self.labels[start..end]);
            start = end;
            let up = self.swapped[n.index()].map_or(0, |p| self.first[p.index()] as u64 + 1);
            write_varint(up, key);
        }
        key
    }

    /// Probes the swap of `b` with its parent: the key
    /// [`FTree::canonical_key`] gives the tree [`FTree::swap_with_parent`]
    /// leaves, and fails where the swap would.
    pub fn swap(&mut self, b: NodeId) -> Result<&[u8]> {
        let a = self.tree.swap_parent(b)?;
        self.swapped.clone_from(&self.parent);
        self.swapped[b.index()] = self.parent[a.index()];
        self.swapped[a.index()] = Some(b);
        let mut a_is_leaf = self.tree.children(a).len() == 1;
        for &c in self.tree.children(b) {
            if self.tree.depends_on_subtree(a, c) {
                self.swapped[c.index()] = Some(a);
                a_is_leaf = false;
            }
        }
        self.leaf_lost = Some(b);
        self.leaf_gained = a_is_leaf.then_some(a);
        Ok(self.write_key())
    }

    /// `s(T)` of the swap last probed (of the tree before any probe),
    /// through `memo`: bit for bit what [`SCostMemo::s_cost`] gives that
    /// tree.
    pub fn s_cost(&self, memo: &mut SCostMemo) -> Result<f64> {
        let kept = self.order.iter().map(|&(_, n, _)| n);
        let kept = kept.filter(|&n| self.tree.is_leaf(n) && Some(n) != self.leaf_lost);
        let leaves = kept.chain(self.leaf_gained);
        memo.max_cover(self.tree, leaves, |n| self.swapped[n.index()])
    }
}

/// Appends a node's label: its class (size, then attributes, ascending),
/// then its constant.
fn write_label(class: &BTreeSet<AttrId>, constant: Option<Value>, out: &mut Vec<u8>) {
    write_varint(class.len() as u64, out);
    for attr in class {
        write_varint(attr.0.into(), out);
    }
    match constant {
        Some(v) => {
            out.push(1);
            write_varint(v.raw(), out);
        }
        None => out.push(0),
    }
}

/// Appends `value` as a little-endian base-128 varint.
fn write_varint(mut value: u64, out: &mut Vec<u8>) {
    while value >= 0x80 {
        out.push(value as u8 | 0x80);
        value >>= 7;
    }
    out.push(value as u8);
}
