//! The size-bound parameter `s(T)` of an f-tree.
//!
//! For a root-to-leaf path `p` of an f-tree `T`, consider the hypergraph
//! whose vertices are the attribute classes of the nodes on `p` and whose
//! edges are the relations (dependency edges) containing attributes of those
//! classes.  The *fractional edge cover number* of `p` is the optimum of the
//! covering LP of Section 2, and
//!
//! ```text
//! s(T) = max over root-to-leaf paths p of the fractional edge cover of p.
//! ```
//!
//! For any database `D`, the f-representation of the query result over `T`
//! has size `O(|D|^{s(T)})`, and this bound is tight.  Nodes that have been
//! bound to a constant by an equality selection are ignored (the only
//! f-representation over such a node is a single singleton).

use crate::edgeset::EdgeSet;
use crate::ftree::{FTree, NodeId};
use fdb_common::Result;
use fdb_lp::{fractional_edge_cover, CoverInstance};
use std::collections::HashMap;

/// Cost details of one root-to-leaf path.
#[derive(Clone, Debug)]
pub struct PathCost {
    /// The leaf the path ends at.
    pub leaf: NodeId,
    /// The nodes on the path (root first), excluding constant-bound nodes.
    pub nodes: Vec<NodeId>,
    /// Fractional edge cover number of the path.
    pub cost: f64,
}

/// Builds the edge-cover instance of a single root-to-leaf path.
///
/// Vertices are the non-constant nodes of the path; an edge of the instance
/// is added for every dependency edge that has at least one attribute in one
/// of those nodes, covering the vertices whose classes it intersects.
pub fn path_cover_instance(tree: &FTree, path_nodes: &[NodeId]) -> CoverInstance {
    let path: Vec<EdgeSet> = path_nodes
        .iter()
        .map(|&n| tree.incidence(n).clone())
        .collect();
    cover_instance(&path)
}

/// The edge-cover instance of a path given as its root-first incidence sets:
/// one instance edge per dependency edge on the path, in edge order, covering
/// the path positions it is incident to.
fn cover_instance(path: &[EdgeSet]) -> CoverInstance {
    let mut on_path = EdgeSet::default();
    for set in path {
        on_path.union_with(set);
    }
    let mut instance = CoverInstance::new(path.len());
    for edge in on_path.iter() {
        let covered = (0..path.len())
            .filter(|&i| path[i].contains(edge))
            .collect();
        instance.add_edge(covered);
    }
    instance
}

/// Computes the cost of every root-to-leaf path of the tree.
pub fn s_cost_details(tree: &FTree) -> Result<Vec<PathCost>> {
    let mut out = Vec::new();
    for leaf in tree.leaves() {
        let mut nodes: Vec<NodeId> = tree.ancestors(leaf);
        nodes.reverse();
        nodes.push(leaf);
        // Constant-bound nodes do not contribute to the size bound: the only
        // f-representation over them is a single singleton.
        let nodes: Vec<NodeId> = nodes
            .into_iter()
            .filter(|&n| tree.constant(n).is_none())
            .collect();
        if nodes.is_empty() {
            out.push(PathCost {
                leaf,
                nodes,
                cost: 0.0,
            });
            continue;
        }
        let instance = path_cover_instance(tree, &nodes);
        let cost = fractional_edge_cover(&instance)?;
        out.push(PathCost { leaf, nodes, cost });
    }
    Ok(out)
}

/// `s(T)` with the path covers remembered between calls.
///
/// A path's covering LP is fixed by the root-first sequence of its nodes'
/// incidence sets, and an optimiser costs thousands of trees that share
/// most of their paths: the memo solves one LP per distinct sequence and
/// hands every later occurrence the same `f64`.  A memo serves any number of
/// trees, over the same edge list or not.
#[derive(Debug, Default)]
pub struct SCostMemo {
    covers: HashMap<Vec<EdgeSet>, f64>,
    /// The path being looked up (kept for its allocation).
    path: Vec<EdgeSet>,
}

impl SCostMemo {
    /// An empty memo.
    pub fn new() -> Self {
        SCostMemo::default()
    }

    /// Computes `s(T)`: the maximum fractional edge cover number over all
    /// root-to-leaf paths.  An empty forest has cost 0.
    pub fn s_cost(&mut self, tree: &FTree) -> Result<f64> {
        let mut max = 0.0_f64;
        for leaf in tree.leaf_ids() {
            // Constant-bound nodes do not contribute to the size bound: the
            // only f-representation over them is a single singleton.
            self.path.clear();
            let mut cur = Some(leaf);
            while let Some(n) = cur {
                if tree.constant(n).is_none() {
                    self.path.push(tree.incidence(n).clone());
                }
                cur = tree.parent(n);
            }
            self.path.reverse();
            let cost = match self.covers.get(self.path.as_slice()) {
                Some(&cost) => cost,
                None if self.path.is_empty() => 0.0,
                None => {
                    let cost = fractional_edge_cover(&cover_instance(&self.path))?;
                    self.covers.insert(self.path.clone(), cost);
                    cost
                }
            };
            max = max.max(cost);
        }
        Ok(max)
    }
}

/// Computes `s(T)` of one tree (see [`SCostMemo::s_cost`], which callers
/// costing many trees should hold on to instead).
pub fn s_cost(tree: &FTree) -> Result<f64> {
    SCostMemo::new().s_cost(tree)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ftree::DepEdge;
    use fdb_common::{AttrId, Value};
    use std::collections::BTreeSet;

    fn attrs(ids: &[u32]) -> BTreeSet<AttrId> {
        ids.iter().map(|&i| AttrId(i)).collect()
    }

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-6
    }

    /// Grocery edges: Orders{oid=0, item=1}, Store{location=2, item=3},
    /// Disp{dispatcher=4, location=5}, Produce{supplier=6, item=7},
    /// Serve{supplier=8, location=9}.
    fn grocery_edges() -> Vec<DepEdge> {
        vec![
            DepEdge::new("Orders", attrs(&[0, 1]), 5),
            DepEdge::new("Store", attrs(&[2, 3]), 6),
            DepEdge::new("Disp", attrs(&[4, 5]), 4),
            DepEdge::new("Produce", attrs(&[6, 7]), 4),
            DepEdge::new("Serve", attrs(&[8, 9]), 5),
        ]
    }

    /// T1 of Figure 2: item → (oid, location → dispatcher), using the
    /// Orders/Store/Disp relations.  `s(T1) = 2` (Example 4).
    fn t1() -> FTree {
        let mut t = FTree::new(grocery_edges());
        let item = t.add_node(attrs(&[1, 3]), None).unwrap();
        t.add_node(attrs(&[0]), Some(item)).unwrap();
        let location = t.add_node(attrs(&[2, 5]), Some(item)).unwrap();
        t.add_node(attrs(&[4]), Some(location)).unwrap();
        t
    }

    /// T3 of Figure 2: supplier → (item, location), using Produce/Serve.
    /// `s(T3) = 1` (Example 4).
    fn t3() -> FTree {
        let mut t = FTree::new(grocery_edges());
        let supplier = t.add_node(attrs(&[6, 8]), None).unwrap();
        t.add_node(attrs(&[7]), Some(supplier)).unwrap();
        t.add_node(attrs(&[9]), Some(supplier)).unwrap();
        t
    }

    /// T4 of Figure 2: item → supplier → location.  `s(T4) = 2`.
    fn t4() -> FTree {
        let mut t = FTree::new(grocery_edges());
        let item = t.add_node(attrs(&[7]), None).unwrap();
        let supplier = t.add_node(attrs(&[6, 8]), Some(item)).unwrap();
        t.add_node(attrs(&[9]), Some(supplier)).unwrap();
        t
    }

    #[test]
    fn example4_costs_match_the_paper() {
        assert!(close(s_cost(&t1()).unwrap(), 2.0));
        assert!(close(s_cost(&t3()).unwrap(), 1.0));
        assert!(close(s_cost(&t4()).unwrap(), 2.0));
    }

    #[test]
    fn empty_tree_costs_zero() {
        let t = FTree::new(vec![]);
        assert!(close(s_cost(&t).unwrap(), 0.0));
    }

    #[test]
    fn single_relation_path_costs_one() {
        // A chain of classes all covered by one relation has cost 1 however
        // long it is.
        let mut t = FTree::new(vec![DepEdge::new("R", attrs(&[0, 1, 2, 3]), 1)]);
        let a = t.add_node(attrs(&[0]), None).unwrap();
        let b = t.add_node(attrs(&[1]), Some(a)).unwrap();
        let c = t.add_node(attrs(&[2]), Some(b)).unwrap();
        t.add_node(attrs(&[3]), Some(c)).unwrap();
        assert!(close(s_cost(&t).unwrap(), 1.0));
    }

    #[test]
    fn triangle_path_costs_three_halves() {
        // R{A,B}, S{B,C}, T{A,C} on one path: fractional cover 1.5.
        let edges = vec![
            DepEdge::new("R", attrs(&[0, 1]), 1),
            DepEdge::new("S", attrs(&[1, 2]), 1),
            DepEdge::new("T", attrs(&[0, 2]), 1),
        ];
        let mut t = FTree::new(edges);
        let a = t.add_node(attrs(&[0]), None).unwrap();
        let b = t.add_node(attrs(&[1]), Some(a)).unwrap();
        t.add_node(attrs(&[2]), Some(b)).unwrap();
        assert!(close(s_cost(&t).unwrap(), 1.5));
    }

    #[test]
    fn constant_nodes_are_ignored() {
        let mut t = t1();
        // Binding the item node to a constant removes it from every path;
        // the remaining paths item-oid and item-location-dispatcher lose the
        // item vertex, so each is coverable by a single relation … except
        // the location/dispatcher path which still needs Store and Disp?
        // No: with item gone the path oid has cover 1 (Orders), and the path
        // location→dispatcher has cover … location is in Store and Disp,
        // dispatcher in Disp, so Disp alone covers both: cost 1.
        let item = t.node_of_attr(AttrId(1)).unwrap();
        t.bind_constant(item, Value::new(7)).unwrap();
        assert!(close(s_cost(&t).unwrap(), 1.0));
    }

    #[test]
    fn per_path_details_identify_the_expensive_path() {
        let t = t1();
        let details = s_cost_details(&t).unwrap();
        assert_eq!(details.len(), 2); // two leaves: oid, dispatcher
        let max = details.iter().map(|d| d.cost).fold(0.0, f64::max);
        assert!(close(max, 2.0));
        // The cheap path is item → oid (covered by Orders + … actually item
        // needs Store or Orders: Orders covers both item and oid → cost 1).
        let min = details.iter().map(|d| d.cost).fold(f64::INFINITY, f64::min);
        assert!(close(min, 1.0));
    }

    #[test]
    fn deeper_nesting_can_increase_cost() {
        // Path of three mutually independent relations: each contributes 1.
        let edges = vec![
            DepEdge::new("R", attrs(&[0]), 1),
            DepEdge::new("S", attrs(&[1]), 1),
            DepEdge::new("T", attrs(&[2]), 1),
        ];
        let mut path = FTree::new(edges.clone());
        let a = path.add_node(attrs(&[0]), None).unwrap();
        let b = path.add_node(attrs(&[1]), Some(a)).unwrap();
        path.add_node(attrs(&[2]), Some(b)).unwrap();
        assert!(close(s_cost(&path).unwrap(), 3.0));

        // The same three relations as a forest of three roots: cost 1.
        let mut forest = FTree::new(edges);
        forest.add_node(attrs(&[0]), None).unwrap();
        forest.add_node(attrs(&[1]), None).unwrap();
        forest.add_node(attrs(&[2]), None).unwrap();
        assert!(close(s_cost(&forest).unwrap(), 1.0));
    }
}
