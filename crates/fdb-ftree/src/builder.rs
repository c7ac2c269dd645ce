//! Constructors of valid f-trees for queries and databases.
//!
//! The optimiser searches the space of f-trees; this module provides the
//! pieces every search starts from:
//!
//! * [`dep_edges_for_query`]: the dependency edges of a query (one per
//!   relation, carrying its cardinality for the cost-estimate metric);
//! * [`ftree_from_query_classes`]: the fallback f-tree of a query — a single
//!   path over its equivalence classes (always valid: every relation's
//!   attributes then trivially lie on one root-to-leaf path), normalised;
//! * [`flat_database_ftree`]: the f-tree under which a flat relational
//!   database *is already* a factorised representation — a forest with one
//!   path per relation, one singleton class per attribute.  This is the
//!   starting point when FDB evaluates a query on flat input purely with
//!   f-plan operators.

use crate::ftree::{DepEdge, FTree, NodeId};
use fdb_common::{AttrId, Catalog, Query, RelId, Result};
use std::collections::BTreeSet;

/// Builds the dependency edges of a query: one edge per relation occurrence,
/// labelled with the relation name and carrying the cardinality reported by
/// `cardinality_of` (pass `|_| 1` when sizes are unknown or irrelevant).
pub fn dep_edges_for_query(
    catalog: &Catalog,
    query: &Query,
    cardinality_of: impl Fn(RelId) -> u64,
) -> Vec<DepEdge> {
    query
        .relations
        .iter()
        .map(|&rel| {
            let attrs: BTreeSet<AttrId> = catalog.rel_attrs(rel).iter().copied().collect();
            DepEdge::new(catalog.rel_name(rel), attrs, cardinality_of(rel))
        })
        .collect()
}

/// Builds the f-tree that chains the given classes along a single path, in
/// the given order (the first class becomes the root).  A single path always
/// satisfies the path constraint.
fn single_path_ftree(classes: &[BTreeSet<AttrId>], edges: Vec<DepEdge>) -> Result<FTree> {
    let mut tree = FTree::new(edges);
    let mut parent: Option<NodeId> = None;
    for class in classes {
        let node = tree.add_node(class.clone(), parent)?;
        parent = Some(node);
    }
    Ok(tree)
}

/// Builds a valid, normalised f-tree for the query result: the single-path
/// f-tree over the query's attribute equivalence classes, then normalised.
/// This is the fallback the optimiser starts from (and improves upon).
pub fn ftree_from_query_classes(
    catalog: &Catalog,
    query: &Query,
    cardinality_of: impl Fn(RelId) -> u64,
) -> Result<FTree> {
    let classes = query.equivalence_classes(catalog);
    let edges = dep_edges_for_query(catalog, query, cardinality_of);
    let mut tree = single_path_ftree(&classes, edges)?;
    tree.normalise(FTree::apply_edit)?;
    tree.check_path_constraint()?;
    Ok(tree)
}

/// Builds the f-tree under which an (unjoined) flat database is already a
/// factorised representation: a forest with one path per relation, each path
/// listing that relation's attributes as singleton classes in declaration
/// order.
pub fn flat_database_ftree(
    catalog: &Catalog,
    relations: &[RelId],
    cardinality_of: impl Fn(RelId) -> u64,
) -> Result<FTree> {
    let product = Query::product(relations.to_vec());
    let mut tree = FTree::new(dep_edges_for_query(catalog, &product, cardinality_of));
    for &rel in relations {
        let mut parent: Option<NodeId> = None;
        for &attr in catalog.rel_attrs(rel) {
            let class: BTreeSet<AttrId> = [attr].into_iter().collect();
            let node = tree.add_node(class, parent)?;
            parent = Some(node);
        }
    }
    Ok(tree)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::s_cost;

    fn grocery() -> (Catalog, Vec<RelId>) {
        let mut catalog = Catalog::new();
        let (o, _) = catalog.add_relation("Orders", &["oid", "item"]);
        let (s, _) = catalog.add_relation("Store", &["location", "item"]);
        let (d, _) = catalog.add_relation("Disp", &["dispatcher", "location"]);
        (catalog, vec![o, s, d])
    }

    fn q1(catalog: &Catalog, rels: &[RelId]) -> Query {
        // Orders ⋈_item Store ⋈_location Disp
        let item_o = catalog.find_attr("Orders.item").unwrap();
        let item_s = catalog.find_attr("Store.item").unwrap();
        let loc_s = catalog.find_attr("Store.location").unwrap();
        let loc_d = catalog.find_attr("Disp.location").unwrap();
        Query::product(rels.to_vec())
            .with_equality(item_o, item_s)
            .with_equality(loc_s, loc_d)
    }

    #[test]
    fn dep_edges_cover_each_relation() {
        let (catalog, rels) = grocery();
        let query = q1(&catalog, &rels);
        let edges = dep_edges_for_query(&catalog, &query, |r| (r.0 + 1) as u64 * 10);
        assert_eq!(edges.len(), 3);
        assert_eq!(edges[0].label, "Orders");
        assert_eq!(edges[0].attrs.len(), 2);
        assert_eq!(edges[2].cardinality, 30);
    }

    #[test]
    fn single_path_tree_is_always_valid() {
        let (catalog, rels) = grocery();
        let query = q1(&catalog, &rels);
        let classes = query.equivalence_classes(&catalog);
        let edges = dep_edges_for_query(&catalog, &query, |_| 1);
        let tree = single_path_ftree(&classes, edges).unwrap();
        tree.check_structure().unwrap();
        tree.check_path_constraint().unwrap();
        assert_eq!(tree.node_count(), classes.len());
        assert_eq!(tree.leaf_ids().count(), 1);
    }

    #[test]
    fn query_fallback_tree_is_normalised_and_valid() {
        let (catalog, rels) = grocery();
        let query = q1(&catalog, &rels);
        let tree = ftree_from_query_classes(&catalog, &query, |_| 1).unwrap();
        tree.check_structure().unwrap();
        tree.check_path_constraint().unwrap();
        assert!(tree.is_normalised());
        // Q1's result admits f-trees with cost 2 (Example 5); the fallback
        // cannot do better than s = 2 but must be finite and ≥ 1.
        let s = s_cost(&tree).unwrap();
        assert!(s >= 1.0);
    }

    #[test]
    fn flat_database_tree_has_one_path_per_relation() {
        let (catalog, rels) = grocery();
        let tree = flat_database_ftree(&catalog, &rels, |_| 100).unwrap();
        tree.check_structure().unwrap();
        tree.check_path_constraint().unwrap();
        assert_eq!(tree.roots().len(), 3);
        assert_eq!(tree.node_count(), 6);
        // Every root-to-leaf path is one relation: cost 1.
        assert!((s_cost(&tree).unwrap() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn flat_database_tree_respects_relation_subset() {
        let (catalog, rels) = grocery();
        let tree = flat_database_ftree(&catalog, &rels[..2], |_| 1).unwrap();
        assert_eq!(tree.roots().len(), 2);
        assert_eq!(tree.node_count(), 4);
    }
}
