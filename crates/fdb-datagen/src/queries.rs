//! Random query generation: equi-joins with `K` non-redundant equalities.

use fdb_common::query::UnionFind;
use fdb_common::{AttrId, Catalog, Query, RelId};
use rand::seq::SliceRandom;
use rand::Rng;

/// Draws `k` non-redundant equality conditions over the attributes of the
/// given relations: every condition merges two previously distinct attribute
/// equivalence classes (so no condition is implied by the others), exactly as
/// in the paper's experimental design.
///
/// Returns fewer than `k` conditions only if fewer are possible (at most
/// `A − 1` non-trivial equalities exist over `A` attributes).
pub fn random_equalities<R: Rng + ?Sized>(
    rng: &mut R,
    catalog: &Catalog,
    relations: &[RelId],
    k: usize,
) -> Vec<(AttrId, AttrId)> {
    let attrs: Vec<AttrId> = relations
        .iter()
        .flat_map(|&r| catalog.rel_attrs(r).iter().copied())
        .collect();
    draw_equalities(rng, &attrs, UnionFind::new(&attrs), k)
}

/// Builds a random equi-join query over all the given relations with `k`
/// non-redundant equality conditions.
pub fn random_query<R: Rng + ?Sized>(
    rng: &mut R,
    catalog: &Catalog,
    relations: &[RelId],
    k: usize,
) -> Query {
    let mut query = Query::product(relations.to_vec());
    for (a, b) in random_equalities(rng, catalog, relations, k) {
        query = query.with_equality(a, b);
    }
    query
}

/// Draws `l` additional non-redundant equalities *on top of* an existing
/// query: the new conditions are not implied by the query's existing
/// equality conditions (they keep merging distinct equivalence classes).
/// This is how Experiments 2 and 4 pose follow-up queries on the attribute
/// classes of a previous result.
pub fn random_followup_equalities<R: Rng + ?Sized>(
    rng: &mut R,
    catalog: &Catalog,
    base: &Query,
    l: usize,
) -> Vec<(AttrId, AttrId)> {
    let attrs = base.all_attrs(catalog);
    let mut uf = UnionFind::new(&attrs);
    for eq in &base.equalities {
        uf.union(eq.left, eq.right);
    }
    draw_equalities(rng, &attrs, uf, l)
}

/// Draws pairs of `attrs` until `k` of them have each merged two classes of
/// `uf` that were distinct, or `50 (k + 1)` draws per attribute are spent.
fn draw_equalities<R: Rng + ?Sized>(
    rng: &mut R,
    attrs: &[AttrId],
    mut uf: UnionFind,
    k: usize,
) -> Vec<(AttrId, AttrId)> {
    let mut conditions = Vec::with_capacity(k);
    let max_attempts = 50 * (k + 1) * attrs.len().max(1);
    let mut attempts = 0;
    while conditions.len() < k && attempts < max_attempts {
        attempts += 1;
        let a = *attrs.choose(rng).expect("non-empty attribute list");
        let b = *attrs.choose(rng).expect("non-empty attribute list");
        if a == b {
            continue;
        }
        if uf.union(a, b) {
            conditions.push((a.min(b), a.max(b)));
        }
    }
    conditions
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::random_schema;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Each non-redundant equality merges two classes.
    fn merged_classes(query: &Query, catalog: &Catalog) -> usize {
        query.all_attrs(catalog).len() - query.equivalence_classes(catalog).len()
    }

    #[test]
    fn equalities_are_non_redundant() {
        let mut rng = StdRng::seed_from_u64(11);
        let catalog = random_schema(&mut rng, 4, 10);
        let rels: Vec<RelId> = catalog.rels().collect();
        for k in 1..=9 {
            let query = random_query(&mut rng, &catalog, &rels, k);
            assert_eq!(query.equalities.len(), k);
            assert_eq!(merged_classes(&query, &catalog), k);
        }
    }

    #[test]
    fn requesting_too_many_equalities_saturates() {
        let mut rng = StdRng::seed_from_u64(12);
        let catalog = random_schema(&mut rng, 2, 4);
        let rels: Vec<RelId> = catalog.rels().collect();
        // Only 3 non-redundant equalities exist over 4 attributes.
        let eqs = random_equalities(&mut rng, &catalog, &rels, 10);
        assert!(eqs.len() <= 3);
    }

    #[test]
    fn followup_equalities_extend_without_redundancy() {
        let mut rng = StdRng::seed_from_u64(13);
        let catalog = random_schema(&mut rng, 4, 10);
        let rels: Vec<RelId> = catalog.rels().collect();
        let base = random_query(&mut rng, &catalog, &rels, 3);
        let follow = random_followup_equalities(&mut rng, &catalog, &base, 4);
        assert_eq!(follow.len(), 4);
        // Adding all follow-up conditions to the base still counts 3 + 4
        // non-redundant equalities.
        let mut extended = base.clone();
        for (a, b) in &follow {
            extended = extended.with_equality(*a, *b);
        }
        assert_eq!(merged_classes(&extended, &catalog), 7);
    }

    #[test]
    fn random_queries_validate_against_their_catalog() {
        let mut rng = StdRng::seed_from_u64(14);
        for _ in 0..20 {
            let relations: usize = rng.gen_range(1..=6);
            let attributes = rng.gen_range(relations.max(2)..=20);
            let catalog = random_schema(&mut rng, relations, attributes);
            let rels: Vec<RelId> = catalog.rels().collect();
            let k = rng.gen_range(0..attributes.min(6));
            let query = random_query(&mut rng, &catalog, &rels, k);
            query.validate(&catalog).unwrap();
        }
    }
}
