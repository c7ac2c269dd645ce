//! The size-bound parameter `s(T)` of an f-tree, and the search for an
//! f-tree that minimises it.
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
//!
//! Every path cover of the workspace is keyed and solved by [`SCostMemo`]:
//! the `s(T)` of a given tree, and the least `s(T)` over every f-tree of
//! some classes ([`optimal_ftree`] for a query over flat input — Experiment
//! 1 of the paper — and [`SCostMemo::min_s_cost`] for the classes of a tree).
//! The normalised f-trees of some classes have a recursive structure: pick a
//! class as the root of a (sub)tree, and the remaining classes split into
//! connected components — two classes are connected when some relation has
//! attributes in both — each becoming an independent child subtree.
//! (Sibling subtrees of a valid f-tree can never share a relation, because
//! the path constraint would be violated; conversely every such recursive
//! decomposition satisfies the path constraint.)  A path's cover depends
//! only on the set of its classes' incidence sets, so classes with the same
//! set are interchangeable: the lowest of them names their *kind*, and the
//! search branches over kinds only.
//!
//! The search is dynamic programming over sets of classes held as bitset
//! words (one `u64` up to 64 classes, the incidence sets' spilling form
//! beyond), the way Selinger's join enumeration keys relation subsets.  A
//! subproblem's key is two words and nothing allocated: its component,
//! each kind's classes replaced by the lowest classes of that kind (one
//! word per multiset of sets), and the kinds of its ancestors.  That
//! collapses the exponentially many orderings of interchangeable classes.
//! Components come from a flood fill over per-class adjacency words (the
//! classes that share a relation), the highest class's component first;
//! and a per-search map from ancestor words to covers sits in front of the
//! memo.
//!
//! The memo answers three path shapes without an LP: no non-constant node
//! (cover 0), incidence sets that all share an edge (1), and non-empty,
//! pairwise disjoint sets (one per set).  [`s_cost_details`] solves every
//! path's LP, shapes included: it is the oracle the memo is tested against.
//!
//! Every other cover is solved exactly, in integers: a fraction-free simplex
//! on the dual packing LP yields the optimum as a fraction, which is reduced
//! to lowest terms and rounded once to `f64`.  So a cost's bits are
//! canonical: one optimum is one bit pattern whichever path, order or pivot
//! sequence reached it, and two different optima (small fractions: ½ steps
//! on every path the engine has met) lie far more than an ulp apart.  Costs
//! compare with plain `<` and `==` here and in the plan optimisers.

use crate::builder::dep_edges_for_query;
use crate::cover::path_cover;
use crate::edgeset::{EdgeSet, IndexSet};
use crate::ftree::{FTree, NodeId};
use fdb_common::{Catalog, FdbError, Query, RelId, Result};
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

/// Appends the incidence set of `node` to `path` as `width` bitmap words.
fn push_set(tree: &FTree, node: NodeId, width: usize, path: &mut Vec<u64>) {
    path.extend((0..width).map(|slot| tree.incidence(node).word(slot)));
}

/// The number of bitmap words that hold any incidence set of the tree.
fn set_width(tree: &FTree) -> usize {
    tree.edges().len().div_ceil(64).max(1)
}

/// Computes the cost of every root-to-leaf path of the tree, one LP per
/// path and no memo.
pub fn s_cost_details(tree: &FTree) -> Result<Vec<PathCost>> {
    let width = set_width(tree);
    let mut out = Vec::new();
    for leaf in tree.leaf_ids() {
        let mut nodes: Vec<NodeId> = tree.ancestors(leaf);
        nodes.reverse();
        nodes.push(leaf);
        // Constant-bound nodes do not contribute to the size bound: the only
        // f-representation over them is a single singleton.
        nodes.retain(|&n| tree.constant(n).is_none());
        let mut path = Vec::new();
        for &n in &nodes {
            push_set(tree, n, width, &mut path);
        }
        let cost = path_cover(&path, width)?;
        out.push(PathCost { leaf, nodes, cost });
    }
    Ok(out)
}

/// The most covers a [`SCostMemo`] holds before it starts over.
const MAX_COVERS: usize = 1 << 14;

/// `s(T)` with the path covers remembered between calls.
///
/// A path's fractional edge cover depends on the *set* of its nodes'
/// incidence sets — not on their order along the path, and a node whose set
/// repeats another's adds a constraint the LP already has — and an optimiser
/// costs thousands of trees whose paths carry the same nodes in different
/// orders: the memo keys a path by its sorted, de-duplicated list of sets,
/// answers the three shapes of the module docs (no set, a shared edge,
/// pairwise disjoint sets) outright, solves one LP per other distinct list
/// and hands every later occurrence the same `f64`.  A memo serves any
/// number of trees, over the same edge list or not, and the f-tree search
/// takes its covers from the same entries.
///
/// A cover is a pure function of its key — the LP is built from the sorted
/// sets alone — so a memo outlives any one search: a plan cache lends the
/// same memos to search after search, and a value read from an old entry is
/// the `f64` a fresh solve would produce.  The memo is bounded: once it
/// holds `MAX_COVERS` (16 384) entries, the next new cover clears it first,
/// so a stream of one-off shapes cannot grow a long-lived memo without limit.
#[derive(Debug, Default)]
pub struct SCostMemo {
    /// Keyed by a path's sets as bitmap words, then the words a set takes;
    /// one entry per LP solved.
    pub(crate) covers: WordMap<Vec<u64>, f64>,
    /// The path being looked up (kept for its allocation).
    path: Vec<u64>,
}

impl SCostMemo {
    /// An empty memo.
    pub fn new() -> Self {
        SCostMemo::default()
    }

    /// Computes `s(T)`: the maximum fractional edge cover number over all
    /// root-to-leaf paths.  An empty forest has cost 0.
    pub fn s_cost(&mut self, tree: &FTree) -> Result<f64> {
        self.max_cover(tree, tree.leaf_ids(), |n| tree.parent(n))
    }

    /// The largest cover of the paths from `leaves` up the links `parent`
    /// over the nodes of `tree`: `s(T)` of the tree with those links.
    pub(crate) fn max_cover(
        &mut self,
        tree: &FTree,
        leaves: impl Iterator<Item = NodeId>,
        parent: impl Fn(NodeId) -> Option<NodeId>,
    ) -> Result<f64> {
        let mut max = 0.0_f64;
        for leaf in leaves {
            let path = std::iter::successors(Some(leaf), |&n| parent(n));
            max = max.max(self.cover(tree, path)?);
        }
        Ok(max)
    }

    /// The least `s(T)` of any f-tree whose nodes are the non-constant
    /// classes of `tree`, on its edges — the cost [`optimal_ftree`] finds
    /// for a query, without building the tree.
    pub fn min_s_cost(&mut self, tree: &FTree) -> Result<f64> {
        Ok(arrange(tree, self, None)?.0)
    }

    /// The fractional edge cover number of the non-constant nodes among
    /// `nodes`: the one place a path is keyed and its LP solved.
    fn cover(&mut self, tree: &FTree, nodes: impl Iterator<Item = NodeId>) -> Result<f64> {
        // Constant-bound nodes do not contribute to the size bound: the only
        // f-representation over them is a single singleton.
        let width = set_width(tree);
        self.path.clear();
        for n in nodes.filter(|&n| tree.constant(n).is_none()) {
            push_set(tree, n, width, &mut self.path);
        }
        if width == 1 {
            self.path.sort_unstable();
            self.path.dedup();
        } else {
            let mut sets: Vec<&[u64]> = self.path.chunks(width).collect();
            sets.sort_unstable();
            sets.dedup();
            self.path = sets.concat();
        }
        if let Some(cost) = closed_form(&self.path, width) {
            return Ok(cost);
        }
        self.path.push(width as u64);
        if let Some(&cost) = self.covers.get(&self.path) {
            return Ok(cost);
        }
        let cost = path_cover(&self.path[..self.path.len() - 1], width)?;
        if self.covers.len() >= MAX_COVERS {
            self.covers.clear();
        }
        self.covers.insert(self.path.clone(), cost);
        Ok(cost)
    }
}

/// The cover of a path of distinct sets, `width` words a set, in the three
/// shapes that need no LP: no set (0); sets that share an edge (1, since
/// that edge alone covers every vertex, and each vertex needs weight 1); and
/// non-empty, pairwise disjoint sets (their number, since no edge covers two
/// vertices).
fn closed_form(path: &[u64], width: usize) -> Option<f64> {
    let (mut shared, mut disjoint) = (false, true);
    for slot in 0..width {
        let (mut all, mut any, mut ones) = (u64::MAX, 0u64, 0);
        for &w in path.iter().skip(slot).step_by(width) {
            (all, any, ones) = (all & w, any | w, ones + w.count_ones());
        }
        shared |= all != 0;
        disjoint &= ones == any.count_ones();
    }
    if path.is_empty() {
        Some(0.0)
    } else if shared {
        Some(1.0)
    } else if disjoint && path.chunks(width).all(|set| set.iter().any(|&w| w != 0)) {
        Some((path.len() / width) as f64)
    } else {
        None
    }
}

/// Computes `s(T)` of one tree (see [`SCostMemo::s_cost`], which callers
/// costing many trees should hold on to instead).
pub fn s_cost(tree: &FTree) -> Result<f64> {
    SCostMemo::new().s_cost(tree)
}

/// The result of the optimal f-tree search.
#[derive(Clone, Debug)]
pub struct FTreeSearchResult {
    /// An f-tree of the query with minimum `s(T)`.
    pub tree: FTree,
    /// Its cost `s(T)`.
    pub cost: f64,
    /// Number of memoised subproblems solved.
    pub explored_states: usize,
}

/// Finds an f-tree of the query with minimum cost `s(T)`.
///
/// `cardinality_of` supplies relation sizes for the dependency edges (they do
/// not influence the asymptotic cost but are carried along for later stages).
pub fn optimal_ftree(
    catalog: &Catalog,
    query: &Query,
    cardinality_of: impl Fn(RelId) -> u64,
) -> Result<FTreeSearchResult> {
    optimal_ftree_memo(catalog, query, cardinality_of, &mut SCostMemo::new())
}

/// [`optimal_ftree`] taking every path cover from `memo`, which keeps them
/// for later searches: the same tree, cost and states as a fresh memo gives.
pub fn optimal_ftree_memo(
    catalog: &Catalog,
    query: &Query,
    cardinality_of: impl Fn(RelId) -> u64,
    memo: &mut SCostMemo,
) -> Result<FTreeSearchResult> {
    query.validate(catalog)?;
    // The classes as a forest of roots, for the incidence sets it computes.
    let mut classes = FTree::new(dep_edges_for_query(catalog, query, cardinality_of));
    for class in query.equivalence_classes(catalog) {
        classes.add_node(class, None)?;
    }
    let mut tree = FTree::new(classes.edges().to_vec());
    let (cost, explored_states) = arrange(&classes, memo, Some(&mut tree))?;
    tree.check_path_constraint()?;
    Ok(FTreeSearchResult {
        tree,
        cost,
        explored_states,
    })
}

/// Nominal database size used by the size-proxy tie-breaker: among trees
/// with the same `s(T)`, the search prefers the one whose estimated
/// representation size `Σ_nodes N^{cover(path to node)}` is smallest.
const NOMINAL_N: f64 = 100.0;

/// Cost of a (sub)forest arrangement: the maximum path cover over its nodes
/// (the primary objective — its overall maximum is `s(T)`) and the estimated
/// representation size under a nominal database size (the tie-breaker that
/// steers the search towards bushier, smaller factorisations).
#[derive(Clone, Copy, Debug, PartialEq)]
struct SubCost {
    max: f64,
    size_proxy: f64,
}

impl SubCost {
    const ZERO: SubCost = SubCost {
        max: 0.0,
        size_proxy: 0.0,
    };

    fn combine_forest(self, other: SubCost) -> SubCost {
        SubCost {
            max: self.max.max(other.max),
            size_proxy: self.size_proxy + other.size_proxy,
        }
    }

    /// Exact: covers are canonical, and a half-integral cover (every one
    /// the engine has met) makes `NOMINAL_N^cover` an integer, so size
    /// proxies that tie do so bit for bit.
    fn better_than(self, other: SubCost) -> bool {
        (self.max, self.size_proxy) < (other.max, other.size_proxy)
    }
}

/// A multiply-rotate hasher for the keys the searches make themselves: the
/// f-tree search's class words, the memo's path covers and the plan
/// search's tree keys, eight bytes a round.  SipHash's defence against keys
/// crafted to collide buys nothing here: the keys are sets and trees a
/// search enumerates itself, and a query needs no collisions to make a
/// search exponential in its classes.  On `flat_join`'s catalogue SipHash
/// made the f-tree search about 1.6 times slower.
#[derive(Default)]
pub struct WordHasher(u64);

impl std::hash::Hasher for WordHasher {
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }

    fn write(&mut self, bytes: &[u8]) {
        // Eight bytes a word, little-endian, the last word zero-padded.
        let word = |chunk: &[u8]| chunk.iter().rev().fold(0, |w, &b| w << 8 | u64::from(b));
        bytes
            .chunks(8)
            .for_each(|chunk| self.write_u64(word(chunk)));
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

type WordMap<K, V> = HashMap<K, V, std::hash::BuildHasherDefault<WordHasher>>;

/// The least `s(T)` over every arrangement of the non-constant nodes of
/// `tree` (the classes), and the number of subproblems solved; an optimal
/// arrangement is written into `out` if given.  Sets of classes are one
/// word when the tree has at most 64 nodes: an `EdgeSet`-only search
/// (every spill empty) took 1.8 times as long on `flat_join`'s catalogue
/// and made its `p50_ms` 1.18 times as high.
fn arrange(tree: &FTree, memo: &mut SCostMemo, out: Option<&mut FTree>) -> Result<(f64, usize)> {
    match tree.node_count() {
        0..=64 => Search::<u64>::run(tree, memo, out),
        _ => Search::<EdgeSet>::run(tree, memo, out),
    }
}

/// The memoised decomposition search over the classes of a forest, reading
/// each class's incidence set off the forest and every path cover from the
/// memo.  Classes are named by their position in `classes`, and a set of
/// classes is a bitset `S` of positions.  A class's *kind* is the lowest
/// class with the same incidence set, and ancestors are a bitset of kinds.
struct Search<'a, S> {
    tree: &'a FTree,
    memo: &'a mut SCostMemo,
    classes: Vec<NodeId>,
    kind: Vec<usize>,
    /// The classes of each kind, ascending, indexed by the kind.
    of_kind: Vec<Vec<usize>>,
    /// The classes sharing a relation with each class, itself included.
    adjacent: Vec<S>,
    /// Ancestor kinds → their path cover.
    covers: WordMap<S, f64>,
    /// (canonical component, ancestor kinds) → (best cost, best root kind).
    states: WordMap<(S, S), (SubCost, usize)>,
}

impl<S: IndexSet> Search<'_, S> {
    /// See [`arrange`].
    fn run(tree: &FTree, memo: &mut SCostMemo, out: Option<&mut FTree>) -> Result<(f64, usize)> {
        let classes: Vec<NodeId> = tree
            .node_ids()
            .into_iter()
            .filter(|&n| tree.constant(n).is_none())
            .collect();
        let set = |c: usize| tree.incidence(classes[c]);
        let mut kind = Vec::with_capacity(classes.len());
        let mut of_kind = vec![Vec::new(); classes.len()];
        let (mut all, mut adjacent) = (S::default(), Vec::with_capacity(classes.len()));
        for i in 0..classes.len() {
            if set(i).iter().next().is_none() {
                return Err(FdbError::InvalidInput {
                    detail: "query class not covered by any relation".into(),
                });
            }
            let first = (0..i).find(|&j| set(j) == set(i)).unwrap_or(i);
            kind.push(first);
            of_kind[first].push(i);
            all.insert(i);
            let mut near = S::default();
            for j in (0..classes.len()).filter(|&j| set(i).intersects(set(j))) {
                near.insert(j);
            }
            adjacent.push(near);
        }
        let mut search = Search {
            tree,
            memo,
            classes,
            kind,
            of_kind,
            adjacent,
            covers: WordMap::default(),
            states: WordMap::default(),
        };
        let cost = search.best_forest(&all, &S::default())?.max;
        if let Some(out) = out {
            // Rebuild an optimal forest from the memoised root choices.
            search.reconstruct_forest(&all, &S::default(), None, out)?;
        }
        Ok((cost, search.states.len()))
    }

    /// Takes the connected component of the highest class out of
    /// `remaining`.
    fn next_component(&self, remaining: &mut S) -> Option<S> {
        let mut grow = S::default();
        grow.insert(remaining.last()?);
        let mut component = S::default();
        while let Some(c) = grow.last() {
            grow.remove(c);
            remaining.remove(c);
            component.insert(c);
            grow.insert_shared(&self.adjacent[c], remaining);
        }
        Some(component)
    }

    /// The component's memo key: for each kind, the lowest classes of that
    /// kind, as many as the component holds.
    fn canonical(&self, component: &S) -> S {
        let (mut key, mut left) = (S::default(), component.clone());
        while let Some(c) = left.last() {
            let members = &self.of_kind[self.kind[c]];
            let held = members.iter().filter(|&&m| left.contains(m)).count();
            for &m in members {
                left.remove(m);
            }
            for &m in &members[..held] {
                key.insert(m);
            }
        }
        key
    }

    /// The cover of the path through the classes of the kinds `anc`.
    fn cover(&mut self, anc: &S) -> Result<f64> {
        if let Some(&cost) = self.covers.get(anc) {
            return Ok(cost);
        }
        let path = anc.iter().map(|k| self.classes[k]);
        let cost = self.memo.cover(self.tree, path)?;
        self.covers.insert(anc.clone(), cost);
        Ok(cost)
    }

    /// Minimum achievable cost for arranging `classes` (a forest of
    /// independent components) below ancestors of kinds `anc`.
    fn best_forest(&mut self, classes: &S, anc: &S) -> Result<SubCost> {
        let mut total = SubCost::ZERO;
        let mut remaining = classes.clone();
        while let Some(component) = self.next_component(&mut remaining) {
            total = total.combine_forest(self.best_tree(&component, anc)?.0);
        }
        Ok(total)
    }

    /// Minimum achievable cost for arranging one connected component as a
    /// single subtree below ancestors of kinds `anc`, and the kind of its
    /// root.
    fn best_tree(&mut self, component: &S, anc: &S) -> Result<(SubCost, usize)> {
        let key = (self.canonical(component), anc.clone());
        if let Some(&best) = self.states.get(&key) {
            return Ok(best);
        }
        let mut best = SubCost {
            max: f64::INFINITY,
            size_proxy: f64::INFINITY,
        };
        let mut best_root = usize::MAX;
        let mut tried = S::default();
        for class in component.iter() {
            // Classes of one kind are interchangeable: branch on the first.
            let kind = self.kind[class];
            if tried.contains(kind) {
                continue;
            }
            tried.insert(kind);
            let mut rest = component.clone();
            rest.remove(class);
            let mut below = anc.clone();
            below.insert(kind);
            let node_cover = self.cover(&below)?;
            let sub = self.best_forest(&rest, &below)?;
            let cost = SubCost {
                max: node_cover.max(sub.max),
                size_proxy: NOMINAL_N.powf(node_cover) + sub.size_proxy,
            };
            if cost.better_than(best) {
                best = cost;
                best_root = kind;
            }
        }
        self.states.insert(key, (best, best_root));
        Ok((best, best_root))
    }

    /// Rebuilds an optimal forest below `parent` by replaying the memoised
    /// root choices on the concrete classes.
    fn reconstruct_forest(
        &mut self,
        classes: &S,
        anc: &S,
        parent: Option<NodeId>,
        out: &mut FTree,
    ) -> Result<()> {
        let mut remaining = classes.clone();
        while let Some(mut component) = self.next_component(&mut remaining) {
            let (_, root_kind) = self.best_tree(&component, anc)?;
            let root = component
                .iter()
                .find(|&c| self.kind[c] == root_kind)
                .expect("the memoised root kind occurs in the component");
            let node = out.add_node(self.tree.class(self.classes[root]).clone(), parent)?;
            component.remove(root);
            let mut below = anc.clone();
            below.insert(root_kind);
            self.reconstruct_forest(&component, &below, Some(node), out)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ftree::DepEdge;
    use fdb_common::{AttrId, Value};
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};
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

    /// The triangle R{A,B}, S{B,C}, T{A,C} as a chain in the given node
    /// order, its three relations behind `padding` single-attribute ones.
    /// Attribute 5 is a second `C`: in `S` and `T` like attribute 2.
    fn triangle_chain(order: &[u32], padding: u32) -> FTree {
        let mut edges: Vec<DepEdge> = (0..padding)
            .map(|i| DepEdge::new(format!("P{i}"), attrs(&[10 + i]), 1))
            .collect();
        edges.extend([
            DepEdge::new("R", attrs(&[0, 1]), 1),
            DepEdge::new("S", attrs(&[1, 2, 5]), 1),
            DepEdge::new("T", attrs(&[0, 2, 5]), 1),
        ]);
        let mut t = FTree::new(edges);
        let mut parent = None;
        for &attr in order {
            parent = Some(t.add_node(attrs(&[attr]), parent).unwrap());
        }
        t
    }

    #[test]
    fn chains_of_the_same_nodes_in_any_order_share_one_lp() {
        // With 70 relations in front the incidence sets spill past one word.
        for padding in [0, 70] {
            let mut memo = SCostMemo::new();
            let first = memo.s_cost(&triangle_chain(&[0, 1, 2], padding)).unwrap();
            assert!(close(first, 1.5));
            // The last chain carries a node whose set repeats another's: a
            // constraint the LP already has.
            for order in [&[2, 0, 1][..], &[1, 2, 0], &[2, 1, 0], &[5, 0, 2, 1]] {
                let tree = triangle_chain(order, padding);
                assert_eq!(memo.s_cost(&tree).unwrap().to_bits(), first.to_bits());
                let per_path = s_cost_details(&tree).unwrap();
                assert_eq!(per_path[0].cost.to_bits(), first.to_bits());
            }
            assert_eq!(memo.covers.len(), 1);
        }
    }

    #[test]
    fn a_full_memo_starts_over_and_solves_the_same_cover() {
        let tree = triangle_chain(&[0, 1, 2], 0);
        let fresh = SCostMemo::new().s_cost(&tree).unwrap();
        // Keys no path produces: a path's last word is its set width.
        let mut memo = SCostMemo::new();
        memo.covers
            .extend((0..MAX_COVERS as u64).map(|i| (vec![i, u64::MAX], 0.0)));
        assert_eq!(memo.s_cost(&tree).unwrap().to_bits(), fresh.to_bits());
        assert_eq!(memo.covers.len(), 1);
        assert_eq!(memo.s_cost(&tree).unwrap().to_bits(), fresh.to_bits());
        assert_eq!(memo.covers.len(), 1);
    }

    /// A chain of `len` single-attribute nodes (attributes `0..len`), its
    /// relations shuffled among `padding` relations on no node, so that
    /// with 64 or more relations the incidence sets spill past one word.
    /// `shared`: one relation holds every node and the others random
    /// subsets, so the path's sets share an edge.  Otherwise every relation
    /// holds one node (and an attribute on no node), so the sets are
    /// pairwise disjoint.
    fn shaped_chain(rng: &mut StdRng, shared: bool, len: u32, padding: u32) -> FTree {
        let mut edges: Vec<DepEdge> = (0..padding)
            .map(|i| DepEdge::new(format!("P{i}"), attrs(&[1000 + i]), 1))
            .collect();
        if shared {
            edges.push(DepEdge::new("H", (0..len).map(AttrId).collect(), 1));
            for i in 0..rng.gen_range(0..4u32) {
                let subset = (0..len).filter(|_| rng.gen_bool(0.5)).map(AttrId);
                edges.push(DepEdge::new(format!("S{i}"), subset.collect(), 1));
            }
        } else {
            for node in 0..len {
                for i in 0..rng.gen_range(1..=3u32) {
                    let own = attrs(&[node, 500 + node * 4 + i]);
                    edges.push(DepEdge::new(format!("D{node}.{i}"), own, 1));
                }
            }
        }
        edges.retain(|edge| !edge.attrs.is_empty());
        edges.shuffle(rng);
        let mut t = FTree::new(edges);
        let mut parent = None;
        for attr in 0..len {
            parent = Some(t.add_node(attrs(&[attr]), parent).unwrap());
        }
        t
    }

    #[test]
    fn closed_form_covers_equal_the_lp_bit_for_bit() {
        // `s_cost_details` solves every path's LP; the memo answers these
        // three shapes without one.
        let mut rng = StdRng::seed_from_u64(0xC105ED);
        let mut memo = SCostMemo::new();
        for case in 0..240 {
            let (len, padding) = (rng.gen_range(1..=6), [0, 40, 70][case % 3]);
            let mut tree = shaped_chain(&mut rng, case % 2 == 0, len, padding);
            if case % 8 == 1 {
                // The empty path: every node bound to a constant.
                for node in tree.node_ids() {
                    tree.bind_constant(node, Value::new(7)).unwrap();
                }
            }
            let per_path = s_cost_details(&tree).unwrap();
            let expected = per_path.iter().map(|p| p.cost).fold(0.0, f64::max);
            let shape = match case % 8 {
                1 => 0.0,
                _ if case % 2 == 0 => 1.0,
                _ => f64::from(len),
            };
            assert_eq!(expected, shape, "case {case}");
            let memoised = memo.s_cost(&tree).unwrap();
            assert_eq!(memoised.to_bits(), expected.to_bits(), "case {case}");
        }
        assert!(memo.covers.is_empty());
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

    /// The catalogue of `relations` (name, attribute names) and the query
    /// joining them on the `joins` (`"R.A"` names).
    fn join(relations: &[(&str, [&str; 2])], joins: &[(&str, &str)]) -> (Catalog, Query) {
        let mut catalog = Catalog::new();
        let rels = relations
            .iter()
            .map(|(name, attrs)| catalog.add_relation(name, attrs).0)
            .collect();
        let attr = |name: &str| catalog.find_attr(name).unwrap();
        let query = joins.iter().fold(Query::product(rels), |q, (a, b)| {
            q.with_equality(attr(a), attr(b))
        });
        (catalog, query)
    }

    #[test]
    fn costing_the_searched_tree_solves_no_new_lp() {
        let chain: Vec<(&str, [&str; 2])> = ["R0", "R1", "R2", "R3"]
            .into_iter()
            .map(|name| (name, ["A", "B"]))
            .collect();
        let cases = [
            // Q1 of Example 5: Orders ⋈_item Store ⋈_location Disp.
            (
                join(
                    &[
                        ("Orders", ["oid", "item"]),
                        ("Store", ["location", "item"]),
                        ("Disp", ["dispatcher", "location"]),
                    ],
                    &[
                        ("Orders.item", "Store.item"),
                        ("Store.location", "Disp.location"),
                    ],
                ),
                2.0,
            ),
            // Q2 of Example 5: Produce ⋈_supplier Serve.
            (
                join(
                    &[
                        ("Produce", ["supplier", "item"]),
                        ("Serve", ["supplier", "location"]),
                    ],
                    &[("Produce.supplier", "Serve.supplier")],
                ),
                1.0,
            ),
            // The triangle R(A,B), S(B,C), T(C,A).
            (
                join(
                    &[("R", ["A", "B"]), ("S", ["B", "C"]), ("T", ["C", "A"])],
                    &[("R.A", "T.A"), ("R.B", "S.B"), ("S.C", "T.C")],
                ),
                1.5,
            ),
            // The 4-chain of Example 6: R0.B = R1.A, R1.B = R2.A, R2.B = R3.A.
            (
                join(
                    &chain,
                    &[("R0.B", "R1.A"), ("R1.B", "R2.A"), ("R2.B", "R3.A")],
                ),
                2.0,
            ),
        ];
        for ((catalog, query), cost) in cases {
            let mut memo = SCostMemo::new();
            let found = optimal_ftree_memo(&catalog, &query, |_| 1, &mut memo).unwrap();
            assert!(close(found.cost, cost), "{} vs {cost}", found.cost);
            // Every root-to-leaf path of the arranged tree is a set of
            // ancestors the search has already covered.
            let solved = memo.covers.len();
            assert!(close(memo.s_cost(&found.tree).unwrap(), cost));
            assert_eq!(memo.covers.len(), solved, "{query:?}");
        }
    }
}
