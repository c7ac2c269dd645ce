//! Optimal f-tree search for queries over flat relational input.
//!
//! Given a query, the FDB optimiser must pick the f-tree over which the
//! factorised query result will be built (Experiment 1 of the paper).  The
//! space of *normalised* f-trees of a query has a convenient recursive
//! structure: pick a class as the root of a (sub)tree, and the remaining
//! classes split into connected components — two classes are connected when
//! some relation has attributes in both — each becoming an independent child
//! subtree.  (Sibling subtrees of a valid f-tree can never share a relation,
//! because the path constraint would be violated; conversely every such
//! recursive decomposition satisfies the path constraint.)
//!
//! Two observations make the search fast in practice:
//!
//! * the cost `s(T)` of a root-to-leaf path only depends on the *set of
//!   relation signatures* of the classes on the path, so classes with the
//!   same signature (the same set of covering relations) are
//!   interchangeable — the search branches over distinct signatures only;
//! * subproblems are memoised on (signature multiset of the component,
//!   signature set of the ancestors), which collapses the exponentially many
//!   orderings of same-signature classes.

use fdb_common::{AttrId, Catalog, FdbError, Query, RelId, Result};
use fdb_ftree::{dep_edges_for_query, DepEdge, FTree, NodeId};
use fdb_lp::{fractional_edge_cover, CoverInstance};
use std::collections::{BTreeMap, BTreeSet, HashMap};

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
    query.validate(catalog)?;
    let classes = query.equivalence_classes(catalog);
    let edges = dep_edges_for_query(catalog, query, cardinality_of);
    let mut search = Search::new(&edges, &classes)?;
    let cost = search.cost()?;
    // Reconstruct an optimal tree from the memoised root choices.
    let mut tree = FTree::new(edges);
    let all_classes: Vec<usize> = (0..classes.len()).collect();
    search.reconstruct_forest(&all_classes, &BTreeSet::new(), None, &classes, &mut tree)?;
    tree.check_path_constraint()?;
    Ok(FTreeSearchResult {
        tree,
        cost,
        explored_states: search.memo.len(),
    })
}

/// The least `s(T)` of any f-tree whose nodes are `classes` on `edges` — the
/// cost [`optimal_ftree`] finds, without building the tree.
pub(crate) fn min_s_cost(edges: &[DepEdge], classes: &[BTreeSet<AttrId>]) -> Result<f64> {
    Search::new(edges, classes)?.cost()
}

type MultisetKey = Vec<(usize, usize)>;
type AncKey = Vec<usize>;

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

    fn better_than(self, other: SubCost) -> bool {
        if self.max + 1e-9 < other.max {
            return true;
        }
        if self.max > other.max + 1e-9 {
            return false;
        }
        self.size_proxy + 1e-6 < other.size_proxy
    }
}

/// The memoised decomposition search over some classes on some edges.
struct Search {
    /// The distinct signatures: a class's signature is the set of edges
    /// (relations) with an attribute in it.
    unique_sigs: Vec<BTreeSet<usize>>,
    sig_id_of_class: Vec<usize>,
    num_edges: usize,
    /// (component signature multiset, ancestor signature set) →
    /// (best cost, best root signature).
    memo: HashMap<(MultisetKey, AncKey), (SubCost, usize)>,
    cover_cache: HashMap<AncKey, f64>,
}

impl Search {
    fn new(edges: &[DepEdge], classes: &[BTreeSet<AttrId>]) -> Result<Search> {
        let mut unique_sigs: Vec<BTreeSet<usize>> = Vec::new();
        let mut sig_id_of_class: Vec<usize> = Vec::with_capacity(classes.len());
        for class in classes {
            let sig: BTreeSet<usize> = edges
                .iter()
                .enumerate()
                .filter(|(_, e)| e.attrs.iter().any(|a| class.contains(a)))
                .map(|(i, _)| i)
                .collect();
            if sig.is_empty() {
                return Err(FdbError::InvalidInput {
                    detail: "query class not covered by any relation".into(),
                });
            }
            let id = match unique_sigs.iter().position(|s| *s == sig) {
                Some(i) => i,
                None => {
                    unique_sigs.push(sig);
                    unique_sigs.len() - 1
                }
            };
            sig_id_of_class.push(id);
        }
        Ok(Search {
            unique_sigs,
            sig_id_of_class,
            num_edges: edges.len(),
            memo: HashMap::new(),
            cover_cache: HashMap::new(),
        })
    }

    /// The least `s(T)` over every arrangement of all the classes.
    fn cost(&mut self) -> Result<f64> {
        let all_classes: Vec<usize> = (0..self.sig_id_of_class.len()).collect();
        Ok(self.best_forest(&all_classes, &BTreeSet::new())?.max)
    }

    /// Fractional edge cover of a set of signatures (a root-to-leaf path).
    fn cover(&mut self, sigs: &BTreeSet<usize>) -> Result<f64> {
        let key: AncKey = sigs.iter().copied().collect();
        if let Some(&c) = self.cover_cache.get(&key) {
            return Ok(c);
        }
        let mut instance = CoverInstance::new(key.len());
        for edge in 0..self.num_edges {
            let covered: Vec<usize> = key
                .iter()
                .enumerate()
                .filter(|(_, &sig)| self.unique_sigs[sig].contains(&edge))
                .map(|(i, _)| i)
                .collect();
            if !covered.is_empty() {
                instance.add_edge(covered);
            }
        }
        let cost = fractional_edge_cover(&instance)?;
        self.cover_cache.insert(key, cost);
        Ok(cost)
    }

    fn sig(&self, class: usize) -> &BTreeSet<usize> {
        &self.unique_sigs[self.sig_id_of_class[class]]
    }

    /// Splits the classes into connected components (two classes are
    /// connected when their signatures share a relation).
    fn components(&self, classes: &[usize]) -> Vec<Vec<usize>> {
        let mut remaining: Vec<usize> = classes.to_vec();
        let mut components = Vec::new();
        while let Some(seed) = remaining.pop() {
            let mut component = vec![seed];
            let mut frontier_rels: BTreeSet<usize> = self.sig(seed).iter().copied().collect();
            loop {
                let (connected, rest): (Vec<usize>, Vec<usize>) = remaining
                    .into_iter()
                    .partition(|&c| self.sig(c).iter().any(|r| frontier_rels.contains(r)));
                remaining = rest;
                if connected.is_empty() {
                    break;
                }
                for &c in &connected {
                    frontier_rels.extend(self.sig(c).iter().copied());
                }
                component.extend(connected);
            }
            component.sort_unstable();
            components.push(component);
        }
        components
    }

    fn multiset_key(&self, classes: &[usize]) -> MultisetKey {
        let mut counts: BTreeMap<usize, usize> = BTreeMap::new();
        for &c in classes {
            *counts.entry(self.sig_id_of_class[c]).or_insert(0) += 1;
        }
        counts.into_iter().collect()
    }

    /// Minimum achievable cost for arranging `classes` (a forest of
    /// independent components) below ancestors with signature set `anc`.
    fn best_forest(&mut self, classes: &[usize], anc: &BTreeSet<usize>) -> Result<SubCost> {
        if classes.is_empty() {
            return Ok(SubCost::ZERO);
        }
        let mut total = SubCost::ZERO;
        for component in self.components(classes) {
            let cost = self.best_tree(&component, anc)?;
            total = total.combine_forest(cost);
        }
        Ok(total)
    }

    /// Minimum achievable cost for arranging one connected component as a
    /// single subtree below ancestors `anc`.
    fn best_tree(&mut self, component: &[usize], anc: &BTreeSet<usize>) -> Result<SubCost> {
        let key = (
            self.multiset_key(component),
            anc.iter().copied().collect::<AncKey>(),
        );
        if let Some(&(cost, _)) = self.memo.get(&key) {
            return Ok(cost);
        }
        let mut best = SubCost {
            max: f64::INFINITY,
            size_proxy: f64::INFINITY,
        };
        let mut best_root_sig = usize::MAX;
        // Branch over distinct signatures present in the component.
        let mut tried: BTreeSet<usize> = BTreeSet::new();
        for &class in component {
            let sig = self.sig_id_of_class[class];
            if !tried.insert(sig) {
                continue;
            }
            let rest: Vec<usize> = component.iter().copied().filter(|&c| c != class).collect();
            let mut new_anc = anc.clone();
            new_anc.insert(sig);
            let node_cover = self.cover(&new_anc)?;
            let sub = self.best_forest(&rest, &new_anc)?;
            let cost = SubCost {
                max: node_cover.max(sub.max),
                size_proxy: NOMINAL_N.powf(node_cover) + sub.size_proxy,
            };
            if cost.better_than(best) {
                best = cost;
                best_root_sig = sig;
            }
        }
        self.memo.insert(key, (best, best_root_sig));
        Ok(best)
    }

    /// Rebuilds an optimal forest below `parent` by replaying the memoised
    /// root choices on the concrete classes.
    fn reconstruct_forest(
        &mut self,
        classes: &[usize],
        anc: &BTreeSet<usize>,
        parent: Option<NodeId>,
        class_attrs: &[BTreeSet<AttrId>],
        tree: &mut FTree,
    ) -> Result<()> {
        if classes.is_empty() {
            return Ok(());
        }
        for component in self.components(classes) {
            // Ensure the component's subproblem has been solved (it always
            // has been by the preceding best_forest call, but re-solving is
            // harmless and keeps this method self-contained).
            self.best_tree(&component, anc)?;
            let key = (
                self.multiset_key(&component),
                anc.iter().copied().collect::<AncKey>(),
            );
            let (_, root_sig) = self.memo[&key];
            let root_class = component
                .iter()
                .copied()
                .find(|&c| self.sig_id_of_class[c] == root_sig)
                .expect("memoised root signature occurs in the component");
            let node = tree.add_node(class_attrs[root_class].clone(), parent)?;
            let rest: Vec<usize> = component
                .iter()
                .copied()
                .filter(|&c| c != root_class)
                .collect();
            let mut new_anc = anc.clone();
            new_anc.insert(root_sig);
            self.reconstruct_forest(&rest, &new_anc, Some(node), class_attrs, tree)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdb_ftree::s_cost;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-6
    }

    /// The grocery catalog with the five relations of Figure 1.
    fn grocery() -> (Catalog, Vec<RelId>) {
        let mut catalog = Catalog::new();
        let (o, _) = catalog.add_relation("Orders", &["oid", "item"]);
        let (s, _) = catalog.add_relation("Store", &["location", "item"]);
        let (d, _) = catalog.add_relation("Disp", &["dispatcher", "location"]);
        let (p, _) = catalog.add_relation("Produce", &["supplier", "item"]);
        let (sv, _) = catalog.add_relation("Serve", &["supplier", "location"]);
        (catalog, vec![o, s, d, p, sv])
    }

    #[test]
    fn q1_has_optimal_cost_two() {
        // Example 5: s(Q1) = 2 for Orders ⋈ Store ⋈ Disp.
        let (catalog, rels) = grocery();
        let q1 = Query::product(vec![rels[0], rels[1], rels[2]])
            .with_equality(
                catalog.find_attr("Orders.item").unwrap(),
                catalog.find_attr("Store.item").unwrap(),
            )
            .with_equality(
                catalog.find_attr("Store.location").unwrap(),
                catalog.find_attr("Disp.location").unwrap(),
            );
        let result = optimal_ftree(&catalog, &q1, |_| 1).unwrap();
        assert!(close(result.cost, 2.0), "cost = {}", result.cost);
        assert!(close(s_cost(&result.tree).unwrap(), result.cost));
        result.tree.check_path_constraint().unwrap();
        assert_eq!(result.tree.all_attrs().len(), 6);
    }

    #[test]
    fn q2_has_optimal_cost_one() {
        // Example 5: s(Q2) = 1 for Produce ⋈_supplier Serve (f-tree T3).
        let (catalog, rels) = grocery();
        let q2 = Query::product(vec![rels[3], rels[4]]).with_equality(
            catalog.find_attr("Produce.supplier").unwrap(),
            catalog.find_attr("Serve.supplier").unwrap(),
        );
        let result = optimal_ftree(&catalog, &q2, |_| 1).unwrap();
        assert!(close(result.cost, 1.0), "cost = {}", result.cost);
        // The optimal tree groups by supplier first: the supplier class is
        // the root and item/location hang below it.
        let supplier_class_node = result
            .tree
            .node_of_attr(catalog.find_attr("Produce.supplier").unwrap())
            .unwrap();
        assert!(result.tree.parent(supplier_class_node).is_none());
        assert_eq!(result.tree.children(supplier_class_node).len(), 2);
    }

    #[test]
    fn single_relation_queries_cost_one() {
        let (catalog, rels) = grocery();
        let q = Query::product(vec![rels[0]]);
        let result = optimal_ftree(&catalog, &q, |_| 1).unwrap();
        assert!(close(result.cost, 1.0));
        assert_eq!(result.tree.node_count(), 2);
    }

    #[test]
    fn chain_queries_grow_logarithmically() {
        // Example 6: a chain of equality joins R1(A1,B1) ⋈ … has
        // s(Q_n) = Θ(log n); for n = 2 the cost is 1, for n = 4 it is 2.
        let mut catalog = Catalog::new();
        let mut rels = Vec::new();
        for i in 0..4 {
            let (r, _) = catalog.add_relation(&format!("R{i}"), &["A", "B"]);
            rels.push(r);
        }
        let attr = |i: usize, name: &str| catalog.find_attr(&format!("R{i}.{name}")).unwrap();
        // 2-chain: R0.B = R1.A.
        let q2 = Query::product(vec![rels[0], rels[1]]).with_equality(attr(0, "B"), attr(1, "A"));
        let r2 = optimal_ftree(&catalog, &q2, |_| 1).unwrap();
        assert!(close(r2.cost, 1.0), "2-chain cost = {}", r2.cost);
        // 4-chain: R0.B=R1.A, R1.B=R2.A, R2.B=R3.A.
        let q4 = Query::product(rels.clone())
            .with_equality(attr(0, "B"), attr(1, "A"))
            .with_equality(attr(1, "B"), attr(2, "A"))
            .with_equality(attr(2, "B"), attr(3, "A"));
        let r4 = optimal_ftree(&catalog, &q4, |_| 1).unwrap();
        assert!(close(r4.cost, 2.0), "4-chain cost = {}", r4.cost);
        r4.tree.check_path_constraint().unwrap();
    }

    #[test]
    fn product_of_disjoint_relations_costs_one() {
        let (catalog, rels) = grocery();
        let q = Query::product(vec![rels[0], rels[2]]);
        let result = optimal_ftree(&catalog, &q, |_| 1).unwrap();
        assert!(close(result.cost, 1.0));
        // Two independent relations give two root subtrees.
        assert_eq!(result.tree.roots().len(), 2);
    }

    #[test]
    fn triangle_query_costs_three_halves() {
        // R(A,B), S(B,C), T(C,A) joined pairwise: the fractional edge cover
        // of any root-to-leaf order of the three classes is 1.5.
        let mut catalog = Catalog::new();
        let (r, _) = catalog.add_relation("R", &["A", "B"]);
        let (s, _) = catalog.add_relation("S", &["B", "C"]);
        let (t, _) = catalog.add_relation("T", &["C", "A"]);
        let q = Query::product(vec![r, s, t])
            .with_equality(
                catalog.find_attr("R.A").unwrap(),
                catalog.find_attr("T.A").unwrap(),
            )
            .with_equality(
                catalog.find_attr("R.B").unwrap(),
                catalog.find_attr("S.B").unwrap(),
            )
            .with_equality(
                catalog.find_attr("S.C").unwrap(),
                catalog.find_attr("T.C").unwrap(),
            );
        let result = optimal_ftree(&catalog, &q, |_| 1).unwrap();
        assert!(close(result.cost, 1.5), "triangle cost = {}", result.cost);
    }

    #[test]
    fn larger_random_style_query_terminates_quickly() {
        // 6 relations of 5 attributes each (30 attributes), 5 equalities —
        // the scale of Experiment 1's mid-range settings.
        let mut catalog = Catalog::new();
        let mut rels = Vec::new();
        for i in 0..6 {
            let names: Vec<String> = (0..5).map(|j| format!("a{j}")).collect();
            let (r, _) = catalog.add_relation(&format!("R{i}"), &names);
            rels.push(r);
        }
        let attr = |i: usize, j: usize| catalog.find_attr(&format!("R{i}.a{j}")).unwrap();
        let q = Query::product(rels)
            .with_equality(attr(0, 0), attr(1, 0))
            .with_equality(attr(1, 1), attr(2, 0))
            .with_equality(attr(2, 1), attr(3, 0))
            .with_equality(attr(0, 1), attr(4, 0))
            .with_equality(attr(4, 1), attr(5, 0));
        let result = optimal_ftree(&catalog, &q, |_| 1).unwrap();
        assert!(result.cost >= 1.0 && result.cost <= 3.0);
        assert_eq!(result.tree.all_attrs().len(), 30);
        result.tree.check_path_constraint().unwrap();
    }
}
