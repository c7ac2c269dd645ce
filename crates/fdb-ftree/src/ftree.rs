//! The f-tree data structure: labelled rooted forests with dependency edges.
//!
//! Nodes live in a slotted arena (`Vec<Option<Node>>`) so that [`NodeId`]s
//! stay stable while operators remove and re-parent nodes.  Alongside the
//! forest, an f-tree carries its *dependency edges*: one edge per input
//! relation (or per merged group of relations once projections have removed
//! shared join attributes).  Dependency edges are what give meaning to the
//! path constraint, node dependency, normalisation and the `s(T)` cost.
//! Each node also carries the indices of the edges that touch its class (its
//! incidence set, see the crate docs), which is what those queries read.

use crate::edgeset::{EdgeSet, IndexSet};
use crate::frame::LinkFrame;
use fdb_common::{AttrId, FdbError, Result, Value};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Arc;

/// Identifier of a node inside one [`FTree`].  Ids are stable across the
/// schema transformations (a removed node's id is simply never reused).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Index into the node arena.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A dependency edge: a set of attributes that must lie on a single
/// root-to-leaf path (initially the attribute set of one relation).
#[derive(Clone, Debug, PartialEq)]
pub struct DepEdge {
    /// Human-readable label (the relation name, or a `⋈`-joined label after
    /// edges are merged by a projection).
    pub label: String,
    /// Attributes constrained by this edge.
    pub attrs: BTreeSet<AttrId>,
    /// Cardinality of the corresponding relation (used by the cost-estimate
    /// metric; `1` when unknown).
    pub cardinality: u64,
}

impl DepEdge {
    /// Creates a new dependency edge.
    pub fn new(label: impl Into<String>, attrs: BTreeSet<AttrId>, cardinality: u64) -> Self {
        DepEdge {
            label: label.into(),
            attrs,
            cardinality,
        }
    }
}

#[derive(Clone, Debug)]
pub(crate) struct Node {
    /// Shared between clones of the tree: only merge and absorb relabel a
    /// node, and they install a new set.
    pub(crate) class: Arc<BTreeSet<AttrId>>,
    /// The dependency edges with an attribute in `class` — derived state,
    /// kept current by every edit of a class or of the edge list (see the
    /// crate docs).
    pub(crate) incidence: EdgeSet,
    pub(crate) parent: Option<NodeId>,
    pub(crate) children: Vec<NodeId>,
    /// Attributes of the class that have been projected away (kept while the
    /// node is still needed to preserve transitive dependencies).
    pub(crate) projected: BTreeSet<AttrId>,
    /// Set when an equality selection with a constant has bound this node's
    /// value; the node then no longer contributes to `s(T)`.
    pub(crate) constant: Option<Value>,
}

/// A factorisation tree: an unordered rooted forest of nodes labelled by
/// disjoint attribute classes, plus the dependency edges of its relations.
#[derive(Clone, Debug, Default)]
pub struct FTree {
    nodes: Vec<Option<Node>>,
    roots: Vec<NodeId>,
    /// Shared between clones: the transformations edit nodes, and only a
    /// projection that removes a shared leaf (or a product) edits edges.
    edges: Arc<Vec<DepEdge>>,
}

impl FTree {
    /// Creates an empty f-tree with the given dependency edges.
    pub fn new(edges: Vec<DepEdge>) -> Self {
        FTree {
            nodes: Vec::new(),
            roots: Vec::new(),
            edges: Arc::new(edges),
        }
    }

    // ------------------------------------------------------------------
    // Construction
    // ------------------------------------------------------------------

    /// Adds a node labelled by `class` under `parent` (or as a new root when
    /// `parent` is `None`).  Returns the new node's id.
    pub fn add_node(&mut self, class: BTreeSet<AttrId>, parent: Option<NodeId>) -> Result<NodeId> {
        if class.is_empty() {
            return Err(FdbError::InvalidInput {
                detail: "f-tree node class must be non-empty".into(),
            });
        }
        for attr in &class {
            if self.node_of_attr(*attr).is_some() {
                return Err(FdbError::InvalidInput {
                    detail: format!("attribute {attr} already labels another f-tree node"),
                });
            }
        }
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Some(Node {
            incidence: incidence_of(&self.edges, &class),
            class: Arc::new(class),
            parent,
            children: Vec::new(),
            projected: BTreeSet::new(),
            constant: None,
        }));
        match parent {
            Some(p) => {
                self.check_node(p)?;
                self.node_mut(p).children.push(id);
            }
            None => self.roots.push(id),
        }
        Ok(id)
    }

    /// Adds a dependency edge; returns its index.
    pub fn add_edge(&mut self, edge: DepEdge) -> usize {
        let index = self.edges.len();
        for &attr in &edge.attrs {
            if let Some(node) = self.node_of_attr(attr) {
                self.node_mut(node).incidence.insert(index);
            }
        }
        self.edges_mut().push(edge);
        index
    }

    /// Recomputes every node's incidence set from the classes and the edge
    /// list — for edits that renumber edges.
    pub(crate) fn rebuild_incidence(&mut self) {
        for node in self.nodes.iter_mut().flatten() {
            node.incidence = incidence_of(&self.edges, &node.class);
        }
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    pub(crate) fn node(&self, id: NodeId) -> &Node {
        self.nodes[id.index()].as_ref().expect("node was removed")
    }

    pub(crate) fn node_mut(&mut self, id: NodeId) -> &mut Node {
        self.nodes[id.index()].as_mut().expect("node was removed")
    }

    /// Returns an error if `id` does not refer to a live node.
    pub fn check_node(&self, id: NodeId) -> Result<()> {
        match self.nodes.get(id.index()) {
            Some(Some(_)) => Ok(()),
            _ => Err(FdbError::InvalidInput {
                detail: format!("no such f-tree node: {id}"),
            }),
        }
    }

    /// Returns `true` if the node id refers to a live node.
    pub fn contains(&self, id: NodeId) -> bool {
        matches!(self.nodes.get(id.index()), Some(Some(_)))
    }

    /// Root nodes of the forest, in insertion order.
    pub fn roots(&self) -> &[NodeId] {
        &self.roots
    }

    /// The parent of every node slot (`None` for a root and for a removed
    /// node), indexed by node id.
    pub(crate) fn parents(&self) -> Vec<Option<NodeId>> {
        self.nodes.iter().map(|n| n.as_ref()?.parent).collect()
    }

    /// Live nodes, in id order.
    pub fn node_ids(&self) -> Vec<NodeId> {
        self.live().map(|(id, _)| id).collect()
    }

    /// Live node slots, in id order.
    fn live(&self) -> impl Iterator<Item = (NodeId, &Node)> {
        self.nodes
            .iter()
            .enumerate()
            .filter_map(|(i, slot)| Some((NodeId(i as u32), slot.as_ref()?)))
    }

    /// Number of live nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.iter().filter(|n| n.is_some()).count()
    }

    /// Returns `true` if the forest has no nodes.
    pub fn is_empty(&self) -> bool {
        self.node_count() == 0
    }

    /// The attribute class labelling a node.
    pub fn class(&self, id: NodeId) -> &BTreeSet<AttrId> {
        &self.node(id).class
    }

    /// The attributes of a node that have been projected away.
    pub fn projected_attrs(&self, id: NodeId) -> &BTreeSet<AttrId> {
        &self.node(id).projected
    }

    /// The attributes of a node that are still visible (not projected away).
    pub fn visible_attrs(&self, id: NodeId) -> BTreeSet<AttrId> {
        self.node(id)
            .class
            .difference(&self.node(id).projected)
            .copied()
            .collect()
    }

    /// The constant this node has been bound to by an equality selection, if
    /// any.
    pub fn constant(&self, id: NodeId) -> Option<Value> {
        self.node(id).constant
    }

    /// Parent of a node (`None` for roots).
    pub fn parent(&self, id: NodeId) -> Option<NodeId> {
        self.node(id).parent
    }

    /// Children of a node, in their current order (the order matters to the
    /// data-level representation, which aligns per-entry child unions with
    /// it).
    pub fn children(&self, id: NodeId) -> &[NodeId] {
        &self.node(id).children
    }

    /// Returns `true` if a node has no children.
    pub fn is_leaf(&self, id: NodeId) -> bool {
        self.node(id).children.is_empty()
    }

    /// The dependency edges.
    pub fn edges(&self) -> &[DepEdge] {
        &self.edges
    }

    /// Mutable access to the dependency edges, unsharing them from other
    /// clones first.  The caller restores the incidence sets.
    pub(crate) fn edges_mut(&mut self) -> &mut Vec<DepEdge> {
        Arc::make_mut(&mut self.edges)
    }

    /// All attributes labelling nodes of the forest.
    pub fn all_attrs(&self) -> BTreeSet<AttrId> {
        self.node_ids()
            .iter()
            .flat_map(|&id| self.class(id).iter().copied())
            .collect()
    }

    /// The node labelled by the given attribute, if any.
    pub fn node_of_attr(&self, attr: AttrId) -> Option<NodeId> {
        self.live()
            .find(|(_, node)| node.class.contains(&attr))
            .map(|(id, _)| id)
    }

    /// Ancestors of a node, nearest first (excluding the node itself).
    pub fn ancestors(&self, id: NodeId) -> Vec<NodeId> {
        self.up_from(id).collect()
    }

    /// The ancestors of `id`, nearest first, without collecting them.
    fn up_from(&self, id: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        std::iter::successors(self.parent(id), |&p| self.parent(p))
    }

    /// Returns `true` if `anc` is a strict ancestor of `desc`.
    pub fn is_ancestor(&self, anc: NodeId, desc: NodeId) -> bool {
        self.up_from(desc).any(|p| p == anc)
    }

    /// Leaves of the forest, in id order.
    pub(crate) fn leaf_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.live()
            .filter(|(_, node)| node.children.is_empty())
            .map(|(id, _)| id)
    }

    /// Depth of a node (roots have depth 0).
    pub fn depth(&self, id: NodeId) -> usize {
        self.up_from(id).count()
    }

    /// Nodes in bottom-up order (every node appears after all of its
    /// descendants).
    pub fn bottom_up(&self) -> Vec<NodeId> {
        let mut order: Vec<NodeId> = self.node_ids();
        order.sort_by_cached_key(|&id| std::cmp::Reverse(self.depth(id)));
        order
    }

    // ------------------------------------------------------------------
    // Dependencies and the path constraint
    // ------------------------------------------------------------------

    /// The node's incidence set itself, for the cost module.
    pub(crate) fn incidence(&self, id: NodeId) -> &EdgeSet {
        &self.node(id).incidence
    }

    /// Returns `true` if node `a` is dependent on node `b` or on any
    /// descendant of `b` — the condition under which `b` may *not* be pushed
    /// above `a`.
    pub fn depends_on_subtree(&self, a: NodeId, b: NodeId) -> bool {
        self.subtree_touches(b, &self.node(a).incidence)
    }

    fn subtree_touches(&self, id: NodeId, edges: &EdgeSet) -> bool {
        let node = self.node(id);
        node.incidence.intersects(edges)
            || node
                .children
                .iter()
                .any(|&c| self.subtree_touches(c, edges))
    }

    /// Checks the path constraint: every dependency edge's attributes label
    /// nodes that all lie on a single root-to-leaf path.
    pub fn check_path_constraint(&self) -> Result<()> {
        for edge in self.edges.iter() {
            let mut nodes: Vec<NodeId> = Vec::new();
            for &attr in &edge.attrs {
                if let Some(n) = self.node_of_attr(attr) {
                    if !nodes.contains(&n) {
                        nodes.push(n);
                    }
                }
            }
            for i in 0..nodes.len() {
                for j in (i + 1)..nodes.len() {
                    let (a, b) = (nodes[i], nodes[j]);
                    if !(self.is_ancestor(a, b) || self.is_ancestor(b, a)) {
                        return Err(FdbError::PathConstraintViolation {
                            detail: format!(
                                "relation {} has attributes in unrelated nodes {a} and {b}",
                                edge.label
                            ),
                        });
                    }
                }
            }
        }
        Ok(())
    }

    /// Checks internal structural invariants (parent/child symmetry, roots
    /// list, class disjointness, incidence sets).  Intended for tests and
    /// debug assertions.
    pub fn check_structure(&self) -> Result<()> {
        self.check_links()?;
        for (id, node) in self.live() {
            if node.incidence != incidence_of(&self.edges, &node.class) {
                return Err(FdbError::InvalidInput {
                    detail: format!("node {id} carries a stale incidence set"),
                });
            }
        }
        Ok(())
    }

    /// The checks of [`FTree::check_structure`] that do not read derived
    /// state.
    fn check_links(&self) -> Result<()> {
        let mut seen_attrs: BTreeSet<AttrId> = BTreeSet::new();
        for id in self.node_ids() {
            let node = self.node(id);
            if node.class.is_empty() {
                return Err(FdbError::InvalidInput {
                    detail: format!("node {id} has an empty class"),
                });
            }
            for attr in node.class.iter() {
                if !seen_attrs.insert(*attr) {
                    return Err(FdbError::InvalidInput {
                        detail: format!("attribute {attr} labels two nodes"),
                    });
                }
            }
            match node.parent {
                Some(p) => {
                    self.check_node(p)?;
                    if !self.node(p).children.contains(&id) {
                        return Err(FdbError::InvalidInput {
                            detail: format!(
                                "node {id} not listed among children of its parent {p}"
                            ),
                        });
                    }
                    if self.roots.contains(&id) {
                        return Err(FdbError::InvalidInput {
                            detail: format!("node {id} has a parent but is listed as a root"),
                        });
                    }
                }
                None => {
                    if !self.roots.contains(&id) {
                        return Err(FdbError::InvalidInput {
                            detail: format!("parentless node {id} missing from the roots list"),
                        });
                    }
                }
            }
            for &c in &node.children {
                self.check_node(c)?;
                if self.node(c).parent != Some(id) {
                    return Err(FdbError::InvalidInput {
                        detail: format!("child {c} of {id} does not point back to it"),
                    });
                }
            }
        }
        for &r in &self.roots {
            self.check_node(r)?;
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Canonical form
    // ------------------------------------------------------------------

    /// A canonical, order-insensitive encoding of the forest shape and node
    /// labels.  Two f-trees over the same attributes get the same key iff
    /// they are equal up to reordering of children/roots — exactly the
    /// equivalence the optimiser's search space is defined over.
    ///
    /// The key is flat: the live nodes by ascending smallest class attribute
    /// (classes are disjoint, so that order is total and depends on neither
    /// node ids nor the stored child order), each written as its class, its
    /// constant and the smallest class attribute of its *parent* (plus one;
    /// zero for a root) in self-delimiting varints.  The records name every
    /// node and its parent, so distinct forests never share a key.
    pub fn canonical_key(&self) -> Vec<u8> {
        LinkFrame::new(self).write_key().to_vec()
    }

    /// Renders the forest as indented ASCII, resolving attribute names via
    /// the provided naming function.
    pub fn render<F>(&self, mut name: F) -> String
    where
        F: FnMut(AttrId) -> String,
    {
        let mut out = String::new();
        for &root in &self.roots {
            self.render_node(root, 0, &mut name, &mut out);
        }
        out
    }

    fn render_node<F>(&self, id: NodeId, depth: usize, name: &mut F, out: &mut String)
    where
        F: FnMut(AttrId) -> String,
    {
        let node = self.node(id);
        let label: Vec<String> = node.class.iter().map(|&a| name(a)).collect();
        let constant = match node.constant {
            Some(v) => format!(" = {v}"),
            None => String::new(),
        };
        out.push_str(&format!(
            "{}{}{}\n",
            "  ".repeat(depth),
            label.join(","),
            constant
        ));
        for &c in &node.children {
            self.render_node(c, depth + 1, name, out);
        }
    }

    // ------------------------------------------------------------------
    // Low-level structural edits shared by the transformation module
    // ------------------------------------------------------------------

    /// Detaches `id` from its current parent (or from the roots list).
    pub(crate) fn detach(&mut self, id: NodeId) {
        match self.node(id).parent {
            Some(p) => {
                let children = &mut self.node_mut(p).children;
                children.retain(|&c| c != id);
            }
            None => self.roots.retain(|&r| r != id),
        }
        self.node_mut(id).parent = None;
    }

    /// Attaches a detached node under `parent` (or as a root).
    pub(crate) fn attach(&mut self, id: NodeId, parent: Option<NodeId>) {
        debug_assert!(self.node(id).parent.is_none());
        self.node_mut(id).parent = parent;
        match parent {
            Some(p) => self.node_mut(p).children.push(id),
            None => self.roots.push(id),
        }
    }

    /// Removes a node that has no children, detaching it from its parent.
    pub(crate) fn remove_childless(&mut self, id: NodeId) {
        debug_assert!(self.node(id).children.is_empty());
        self.detach(id);
        self.nodes[id.index()] = None;
    }

    /// Fuses node `b` into node `a` (merge and absorb): `b`'s children move
    /// under `children_to`, its class, projected attributes and constant
    /// join `a`'s, and `b` is removed.
    pub(crate) fn fuse_nodes(&mut self, a: NodeId, b: NodeId, children_to: Option<NodeId>) {
        for c in self.children(b).to_vec() {
            self.detach(c);
            self.attach(c, children_to);
        }
        self.detach(b);
        let old = self.nodes[b.index()].take().expect("node was removed");
        let mut new_class = BTreeSet::clone(self.class(a));
        new_class.extend(old.class.iter().copied());
        let node = self.node_mut(a);
        node.class = Arc::new(new_class);
        // An edge meets the union of two classes iff it meets one of them.
        node.incidence.insert_all(&old.incidence);
        node.projected.extend(old.projected);
        // If both sides carry constants they must agree; the data-level
        // operator will already have produced an empty representation
        // otherwise, so preferring the existing constant is safe.
        node.constant = node.constant.or(old.constant);
    }

    /// Adds attributes to the projected-away set of a node.
    pub(crate) fn mark_projected(&mut self, id: NodeId, attrs: &BTreeSet<AttrId>) {
        let node = self.node_mut(id);
        for a in attrs {
            if node.class.contains(a) {
                node.projected.insert(*a);
            }
        }
    }

    /// Marks a node as bound to a constant by an equality selection.
    pub(crate) fn set_constant(&mut self, id: NodeId, value: Value) {
        self.node_mut(id).constant = Some(value);
    }

    /// Imports another forest into this one (used by the Cartesian product
    /// operator): all of `other`'s nodes and dependency edges are copied and
    /// the returned map translates `other`'s node ids into ids of this tree.
    ///
    /// Fails if the two forests share an attribute (the product operator
    /// requires disjoint attribute sets).
    pub fn import_forest(&mut self, other: &FTree) -> Result<BTreeMap<NodeId, NodeId>> {
        let mut map: BTreeMap<NodeId, NodeId> = BTreeMap::new();
        // Insert top-down so parents exist before their children.
        let mut order: Vec<NodeId> = other.node_ids();
        order.sort_by_key(|&id| other.depth(id));
        for old in order {
            let parent = other.parent(old).map(|p| map[&p]);
            let new = self.add_node(other.class(old).clone(), parent)?;
            let projected = other.projected_attrs(old).clone();
            self.mark_projected(new, &projected);
            if let Some(v) = other.constant(old) {
                self.set_constant(new, v);
            }
            map.insert(old, new);
        }
        for edge in other.edges() {
            self.add_edge(edge.clone());
        }
        Ok(map)
    }

    // ------------------------------------------------------------------
    // Loss-free snapshot codec support
    // ------------------------------------------------------------------

    /// Flat, loss-free description of every node slot — including the `None`
    /// holes left by removed nodes, which must survive a snapshot round trip
    /// because node ids index into the slot vector.  Used by the snapshot
    /// codec in `fdb-frep`; not part of the stable API.
    #[doc(hidden)]
    pub fn snapshot_nodes(&self) -> Vec<Option<NodeSnapshot>> {
        self.nodes
            .iter()
            .map(|slot| {
                slot.as_ref().map(|n| NodeSnapshot {
                    class: BTreeSet::clone(&n.class),
                    parent: n.parent,
                    children: n.children.clone(),
                    projected: n.projected.clone(),
                    constant: n.constant,
                })
            })
            .collect()
    }

    /// Rebuilds a forest from the exact slot layout captured by
    /// [`FTree::snapshot_nodes`], re-validating the structural invariants
    /// (parent/child symmetry, roots list, class disjointness) before
    /// returning.  Malformed input yields a structured error, never a panic.
    /// Used by the snapshot codec in `fdb-frep`; not part of the stable API.
    #[doc(hidden)]
    pub fn from_snapshot(
        edges: Vec<DepEdge>,
        nodes: Vec<Option<NodeSnapshot>>,
        roots: Vec<NodeId>,
    ) -> Result<FTree> {
        let mut tree = FTree {
            nodes: nodes
                .into_iter()
                .map(|slot| {
                    slot.map(|s| Node {
                        class: Arc::new(s.class),
                        incidence: EdgeSet::default(),
                        parent: s.parent,
                        children: s.children,
                        projected: s.projected,
                        constant: s.constant,
                    })
                })
                .collect(),
            roots,
            edges: Arc::new(edges),
        };
        tree.check_links()?;
        tree.rebuild_incidence();
        Ok(tree)
    }
}

/// The edges with an attribute in `class`, by the set-scan definition.
fn incidence_of(edges: &[DepEdge], class: &BTreeSet<AttrId>) -> EdgeSet {
    let mut set = EdgeSet::default();
    for (index, edge) in edges.iter().enumerate() {
        if edge.attrs.iter().any(|a| class.contains(a)) {
            set.insert(index);
        }
    }
    set
}

/// One node slot of an f-tree in loss-free snapshot form (see
/// [`FTree::snapshot_nodes`]).  All fields mirror the private node record
/// exactly; child order is significant because the data-level representation
/// aligns per-entry child unions with it.
#[doc(hidden)]
#[derive(Clone, Debug, PartialEq)]
pub struct NodeSnapshot {
    /// Attribute class labelling the node.
    pub class: BTreeSet<AttrId>,
    /// Parent node (`None` for roots).
    pub parent: Option<NodeId>,
    /// Children, in their significant order.
    pub children: Vec<NodeId>,
    /// Attributes projected away but retained for transitive dependencies.
    pub projected: BTreeSet<AttrId>,
    /// Constant bound by an equality selection, if any.
    pub constant: Option<Value>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn attrs(ids: &[u32]) -> BTreeSet<AttrId> {
        ids.iter().map(|&i| AttrId(i)).collect()
    }

    /// The paper's T1 f-tree for the grocery example:
    /// item → {oid, location}, location → dispatcher.
    /// Relations: Orders{oid,item}, Store{location,item}, Disp{dispatcher,location}.
    fn t1() -> (FTree, NodeId, NodeId, NodeId, NodeId) {
        let edges = vec![
            DepEdge::new("Orders", attrs(&[0, 1]), 5),
            DepEdge::new("Store", attrs(&[2, 3]), 6),
            DepEdge::new("Disp", attrs(&[4, 5]), 4),
        ];
        // Attribute ids: 0=oid, 1=Orders.item, 2=Store.location, 3=Store.item,
        // 4=dispatcher, 5=Disp.location.
        let mut t = FTree::new(edges);
        let item = t.add_node(attrs(&[1, 3]), None).unwrap();
        let oid = t.add_node(attrs(&[0]), Some(item)).unwrap();
        let location = t.add_node(attrs(&[2, 5]), Some(item)).unwrap();
        let dispatcher = t.add_node(attrs(&[4]), Some(location)).unwrap();
        (t, item, oid, location, dispatcher)
    }

    #[test]
    fn construction_and_accessors() {
        let (t, item, oid, location, dispatcher) = t1();
        assert_eq!(t.node_count(), 4);
        assert_eq!(t.roots(), &[item]);
        assert_eq!(t.children(item), &[oid, location]);
        assert_eq!(t.parent(dispatcher), Some(location));
        assert!(t.is_leaf(oid));
        assert!(!t.is_leaf(item));
        assert_eq!(t.depth(dispatcher), 2);
        assert_eq!(t.node_of_attr(AttrId(4)), Some(dispatcher));
        assert_eq!(t.node_of_attr(AttrId(9)), None);
        assert_eq!(t.visible_attrs(item), attrs(&[1, 3]));
        t.check_structure().unwrap();
    }

    #[test]
    fn duplicate_attribute_is_rejected() {
        let (mut t, _, _, _, _) = t1();
        assert!(t.add_node(attrs(&[0]), None).is_err());
        assert!(t.add_node(BTreeSet::new(), None).is_err());
    }

    #[test]
    fn ancestors_and_subtrees() {
        let (t, item, oid, location, dispatcher) = t1();
        assert_eq!(t.ancestors(dispatcher), vec![location, item]);
        assert!(t.is_ancestor(item, dispatcher));
        assert!(!t.is_ancestor(oid, dispatcher));
        let leaves: BTreeSet<NodeId> = t.leaf_ids().collect();
        assert_eq!(leaves, [oid, dispatcher].into_iter().collect());
    }

    #[test]
    fn dependency_queries_follow_edges() {
        let (t, item, oid, location, dispatcher) = t1();
        // Orders links item and oid; Store links item and location; Disp
        // links location and dispatcher.
        assert!(t.incidence(item).intersects(t.incidence(oid)));
        assert!(t.incidence(item).intersects(t.incidence(location)));
        assert!(t.incidence(location).intersects(t.incidence(dispatcher)));
        assert!(!t.incidence(oid).intersects(t.incidence(dispatcher)));
        assert!(!t.incidence(item).intersects(t.incidence(dispatcher)));
        // item depends on the subtree of location because of Store.
        assert!(t.depends_on_subtree(item, location));
        // oid's subtree does not constrain dispatcher.
        assert!(!t.depends_on_subtree(dispatcher, oid));
    }

    #[test]
    fn path_constraint_detects_violations() {
        let (t, ..) = t1();
        t.check_path_constraint().unwrap();

        // Putting dispatcher and location in *sibling* subtrees violates the
        // Disp edge.
        let edges = vec![DepEdge::new("Disp", attrs(&[0, 1]), 4)];
        let mut bad = FTree::new(edges);
        let root = bad.add_node(attrs(&[2]), None).unwrap();
        bad.add_node(attrs(&[0]), Some(root)).unwrap();
        bad.add_node(attrs(&[1]), Some(root)).unwrap();
        assert!(matches!(
            bad.check_path_constraint(),
            Err(FdbError::PathConstraintViolation { .. })
        ));
    }

    #[test]
    fn canonical_key_ignores_child_order() {
        let edges = vec![DepEdge::new("R", attrs(&[0, 1, 2]), 1)];
        let mut a = FTree::new(edges.clone());
        let ra = a.add_node(attrs(&[0]), None).unwrap();
        a.add_node(attrs(&[1]), Some(ra)).unwrap();
        a.add_node(attrs(&[2]), Some(ra)).unwrap();

        let mut b = FTree::new(edges);
        let rb = b.add_node(attrs(&[0]), None).unwrap();
        b.add_node(attrs(&[2]), Some(rb)).unwrap();
        b.add_node(attrs(&[1]), Some(rb)).unwrap();

        assert_eq!(a.canonical_key(), b.canonical_key());
    }

    #[test]
    fn canonical_key_distinguishes_shapes() {
        let edges = vec![DepEdge::new("R", attrs(&[0, 1]), 1)];
        let mut chain = FTree::new(edges.clone());
        let r = chain.add_node(attrs(&[0]), None).unwrap();
        chain.add_node(attrs(&[1]), Some(r)).unwrap();

        let mut flipped = FTree::new(edges);
        let r = flipped.add_node(attrs(&[1]), None).unwrap();
        flipped.add_node(attrs(&[0]), Some(r)).unwrap();

        assert_ne!(chain.canonical_key(), flipped.canonical_key());
    }

    #[test]
    fn render_produces_indented_output() {
        let (t, ..) = t1();
        let names = ["oid", "item", "location", "item", "dispatcher", "location"];
        let rendered = t.render(|a| names[a.index()].to_string());
        assert!(rendered.contains("item,item"));
        assert!(rendered.contains("  oid"));
        assert!(rendered.contains("    dispatcher"));
    }

    #[test]
    fn structural_edits_keep_invariants() {
        let (mut t, item, oid, location, _dispatcher) = t1();
        t.detach(oid);
        t.attach(oid, Some(location));
        t.check_structure().unwrap();
        assert_eq!(t.parent(oid), Some(location));
        assert_eq!(t.children(item), &[location]);
        // Re-root oid.
        t.detach(oid);
        t.attach(oid, None);
        t.check_structure().unwrap();
        assert!(t.roots().contains(&oid));
    }

    #[test]
    fn bottom_up_lists_descendants_first() {
        let (t, item, _, location, dispatcher) = t1();
        let order = t.bottom_up();
        let pos = |id: NodeId| order.iter().position(|&x| x == id).unwrap();
        assert!(pos(dispatcher) < pos(location));
        assert!(pos(location) < pos(item));
    }
}
