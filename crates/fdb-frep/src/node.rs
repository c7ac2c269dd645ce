//! The owned node-tree *builder* form of an f-representation.
//!
//! [`Union`] and [`Entry`] are the pointer-rich form of the factorised data:
//! every union owns a `Vec` of entries and every entry owns one child union
//! per f-tree child.  Since the arena refactor ([`crate::store`]) this form
//! is no longer how an [`crate::FRep`] *stores* its data, and since the
//! arena-native operator rewrite ([`crate::ops`]) it is no longer on any
//! production rewrite path either: it survives as the form in which
//! representations are hand-**constructed** (tests, examples) and as the
//! substrate of the thaw-path oracle ([`crate::ops::oracle`]) that the
//! equivalence tests and benchmarks compare against.  `FRep::from_parts`
//! freezes a builder forest into the arena; `FRep::to_forest` thaws it
//! back.

use fdb_common::{FdbError, Result, Value};
use fdb_ftree::{FTree, NodeId};
use std::collections::BTreeSet;

/// One `⟨value⟩ × children…` term of a [`Union`].
#[derive(Clone, Debug, PartialEq)]
pub struct Entry {
    /// The common value of all attributes labelling the union's node.
    pub value: Value,
    /// One child union per child of the node in the f-tree (in any order;
    /// each child union records which node it ranges over).
    pub children: Vec<Union>,
}

impl Entry {
    /// Creates an entry with no children (for unions over leaf nodes).
    pub fn leaf(value: Value) -> Self {
        Entry {
            value,
            children: Vec::new(),
        }
    }

    /// Returns the child union over the given node, if present.
    pub fn child(&self, node: NodeId) -> Option<&Union> {
        self.children.iter().find(|u| u.node == node)
    }

    /// Removes and returns the child union over the given node.
    pub(crate) fn take_child(&mut self, node: NodeId) -> Option<Union> {
        let idx = self.children.iter().position(|u| u.node == node)?;
        Some(self.children.remove(idx))
    }
}

/// A union of singleton-products over one f-tree node (builder form).
#[derive(Clone, Debug, PartialEq)]
pub struct Union {
    /// The f-tree node this union ranges over.
    pub node: NodeId,
    /// The entries, sorted strictly increasing by value.
    pub entries: Vec<Entry>,
}

impl Union {
    /// Creates an empty union over a node (represents the empty relation for
    /// that part of the factorisation).
    pub fn empty(node: NodeId) -> Self {
        Union {
            node,
            entries: Vec::new(),
        }
    }

    /// Creates a union from entries (the caller must supply them sorted by
    /// value).
    pub fn new(node: NodeId, entries: Vec<Entry>) -> Self {
        Union { node, entries }
    }

    /// Returns `true` if the union has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of entries (distinct values).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Binary-searches for the entry with the given value (the same probe
    /// contract as the arena's `UnionRef::find_value`, via
    /// [`crate::kernel::find_by_key`]).
    pub fn find_value(&self, value: Value) -> Option<&Entry> {
        crate::kernel::find_by_key(&self.entries, |e| e.value, value).map(|i| &self.entries[i])
    }

    /// Binary-searches for the entry with the given value and removes it
    /// (the remaining entries keep their order).
    pub(crate) fn take_value(&mut self, value: Value) -> Option<Entry> {
        crate::kernel::find_by_key(&self.entries, |e| e.value, value)
            .map(|i| self.entries.remove(i))
    }
}

/// Checks the structural invariants of a builder forest against its f-tree:
///
/// * there is exactly one root union per f-tree root;
/// * every union's entries are sorted strictly increasing by value;
/// * every entry has exactly one child union per f-tree child of its node,
///   and none of them is empty (only a root union may be).
pub(crate) fn validate_forest(tree: &FTree, roots: &[Union]) -> Result<()> {
    let tree_roots: BTreeSet<NodeId> = tree.roots().iter().copied().collect();
    let rep_roots: BTreeSet<NodeId> = roots.iter().map(|u| u.node).collect();
    if tree_roots != rep_roots || roots.len() != tree.roots().len() {
        return Err(FdbError::MalformedRepresentation {
            detail: format!("root unions {rep_roots:?} do not match f-tree roots {tree_roots:?}"),
        });
    }
    for root in roots {
        validate_union(tree, root)?;
    }
    Ok(())
}

fn validate_union(tree: &FTree, union: &Union) -> Result<()> {
    tree.check_node(union.node)?;
    let expected_children: BTreeSet<NodeId> = tree.children(union.node).iter().copied().collect();
    let mut prev: Option<Value> = None;
    for entry in &union.entries {
        if let Some(p) = prev {
            if entry.value <= p {
                return Err(FdbError::MalformedRepresentation {
                    detail: format!(
                        "union over {} has out-of-order or duplicate value {}",
                        union.node, entry.value
                    ),
                });
            }
        }
        prev = Some(entry.value);
        let child_nodes: BTreeSet<NodeId> = entry.children.iter().map(|u| u.node).collect();
        if child_nodes != expected_children
            || entry.children.len() != expected_children.len()
            || entry.children.iter().any(Union::is_empty)
        {
            return Err(FdbError::MalformedRepresentation {
                detail: format!(
                    "entry {} of union over {} has children {child_nodes:?}, expected {expected_children:?}, none empty",
                    entry.value, union.node
                ),
            });
        }
        for child in &entry.children {
            validate_union(tree, child)?;
        }
    }
    Ok(())
}

/// Removes entries whose product has become empty (some child union with no
/// entries), propagating upwards.  Root unions are allowed to end up empty.
pub(crate) fn prune_forest(roots: &mut [Union]) {
    for root in roots.iter_mut() {
        prune_union(root);
    }
}

fn prune_union(union: &mut Union) {
    union.entries.retain_mut(|entry| {
        for child in &mut entry.children {
            prune_union(child);
            if child.is_empty() {
                return false;
            }
        }
        true
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdb_common::AttrId;
    use fdb_ftree::DepEdge;

    fn attrs(ids: &[u32]) -> BTreeSet<AttrId> {
        ids.iter().map(|&i| AttrId(i)).collect()
    }

    #[test]
    fn take_value_uses_the_sorted_order() {
        let mut u = Union::new(
            NodeId(0),
            vec![
                Entry::leaf(Value::new(2)),
                Entry::leaf(Value::new(5)),
                Entry::leaf(Value::new(9)),
            ],
        );
        assert!(u.take_value(Value::new(3)).is_none());
        let taken = u.take_value(Value::new(5)).unwrap();
        assert_eq!(taken.value, Value::new(5));
        assert_eq!(u.len(), 2);
        assert_eq!(u.find_value(Value::new(9)).unwrap().value, Value::new(9));
    }

    #[test]
    fn forest_validation_rejects_duplicate_values() {
        let edges = vec![DepEdge::new("R", attrs(&[0]), 2)];
        let mut tree = FTree::new(edges);
        let a = tree.add_node(attrs(&[0]), None).unwrap();
        let u = Union::new(
            a,
            vec![Entry::leaf(Value::new(1)), Entry::leaf(Value::new(1))],
        );
        assert!(validate_forest(&tree, &[u]).is_err());
    }

    #[test]
    fn prune_forest_removes_dead_branches() {
        let edges = vec![DepEdge::new("R", attrs(&[0, 1]), 2)];
        let mut tree = FTree::new(edges);
        let a = tree.add_node(attrs(&[0]), None).unwrap();
        let b = tree.add_node(attrs(&[1]), Some(a)).unwrap();
        let mut roots = vec![Union::new(
            a,
            vec![
                Entry {
                    value: Value::new(1),
                    children: vec![Union::empty(b)],
                },
                Entry {
                    value: Value::new(2),
                    children: vec![Union::new(b, vec![Entry::leaf(Value::new(7))])],
                },
            ],
        )];
        prune_forest(&mut roots);
        assert_eq!(roots[0].len(), 1);
        assert_eq!(roots[0].entries[0].value, Value::new(2));
    }
}
