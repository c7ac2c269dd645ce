//! A database: a catalog plus the stored instance of every relation.

use crate::relation::Relation;
use fdb_common::{AttrId, Catalog, FdbError, RelId, Result, Value};
use std::collections::BTreeMap;

/// An in-memory database instance.
///
/// The [`Catalog`] describes the schema (relations and attributes); the
/// database stores one [`Relation`] instance per catalog relation.  Relations
/// that have not been populated are treated as empty.
#[derive(Clone, Debug, Default)]
pub struct Database {
    catalog: Catalog,
    relations: BTreeMap<RelId, Relation>,
}

impl Database {
    /// Creates an empty database over the given catalog.
    pub fn new(catalog: Catalog) -> Self {
        Database {
            catalog,
            relations: BTreeMap::new(),
        }
    }

    /// The schema catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Installs (or replaces) the instance of a relation.  The relation's
    /// columns must be exactly the catalog attributes of `rel`, in catalog
    /// order.
    pub fn insert_relation(&mut self, rel: RelId, instance: Relation) -> Result<()> {
        self.catalog.check_rel(rel)?;
        let expected = self.catalog.rel_attrs(rel);
        if instance.attrs() != expected {
            return Err(FdbError::InvalidInput {
                detail: format!(
                    "relation {} expects columns {:?}, instance has {:?}",
                    self.catalog.rel_name(rel),
                    expected,
                    instance.attrs()
                ),
            });
        }
        self.relations.insert(rel, instance);
        Ok(())
    }

    /// Convenience: installs a relation from rows of raw integers.
    pub fn insert_raw_rows(&mut self, rel: RelId, rows: &[Vec<u64>]) -> Result<()> {
        self.catalog.check_rel(rel)?;
        let attrs = self.catalog.rel_attrs(rel).to_vec();
        let instance = Relation::from_raw_rows(attrs, rows)?;
        self.insert_relation(rel, instance)
    }

    /// Returns the stored instance of a relation, or an empty instance if it
    /// has not been populated.
    pub fn relation(&self, rel: RelId) -> Relation {
        match self.relations.get(&rel) {
            Some(r) => r.clone(),
            None => Relation::new(self.catalog.rel_attrs(rel).to_vec()),
        }
    }

    /// Returns a reference to the stored instance, if it was populated.
    pub fn relation_ref(&self, rel: RelId) -> Option<&Relation> {
        self.relations.get(&rel)
    }

    /// Number of tuples stored in a relation.
    pub fn rel_len(&self, rel: RelId) -> usize {
        self.relations.get(&rel).map_or(0, Relation::len)
    }

    /// Total number of tuples across all relations.
    pub fn total_tuples(&self) -> usize {
        self.relations.values().map(Relation::len).sum()
    }

    /// Total number of data elements (`Σ arity × rows`) across all relations,
    /// the `|D|` size measure the paper's bounds are stated in.
    pub fn total_data_elements(&self) -> usize {
        self.relations
            .values()
            .map(Relation::data_element_count)
            .sum()
    }

    /// Sorted distinct values of an attribute in its stored relation.
    pub fn distinct_values(&self, attr: AttrId) -> Vec<Value> {
        let rel = self.catalog.attr_relation(attr);
        self.relations
            .get(&rel)
            .map_or_else(Vec::new, |r| r.distinct_values(attr))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Database, RelId, RelId) {
        let mut catalog = Catalog::new();
        let (r, _) = catalog.add_relation("R", &["A", "B"]);
        let (s, _) = catalog.add_relation("S", &["B", "C"]);
        let mut db = Database::new(catalog);
        db.insert_raw_rows(r, &[vec![1, 2], vec![1, 3], vec![2, 3]])
            .unwrap();
        db.insert_raw_rows(s, &[vec![2, 7], vec![3, 8]]).unwrap();
        (db, r, s)
    }

    #[test]
    fn sizes_are_tracked() {
        let (db, r, s) = setup();
        assert_eq!(db.rel_len(r), 3);
        assert_eq!(db.rel_len(s), 2);
        assert_eq!(db.total_tuples(), 5);
        assert_eq!(db.total_data_elements(), 10);
    }

    #[test]
    fn unpopulated_relation_is_empty() {
        let mut catalog = Catalog::new();
        let (r, _) = catalog.add_relation("R", &["A"]);
        let db = Database::new(catalog);
        assert_eq!(db.rel_len(r), 0);
        assert!(db.relation(r).is_empty());
        assert!(db.relation_ref(r).is_none());
    }

    #[test]
    fn schema_mismatch_is_rejected() {
        let (mut db, r, _) = setup();
        let bogus = Relation::from_raw_rows(vec![AttrId(5)], &[vec![1]]).unwrap();
        assert!(db.insert_relation(r, bogus).is_err());
        assert!(db.insert_relation(RelId(9), Relation::new(vec![])).is_err());
    }

    #[test]
    fn distinct_values_look_in_the_owning_relation() {
        let (db, _, _) = setup();
        // Attribute B of R (AttrId 1) has values {2, 3}; attribute B of S
        // (AttrId 2) has values {2, 3} as well but is a different attribute.
        assert_eq!(db.distinct_values(AttrId(1)).len(), 2);
        let vals: Vec<u64> = db
            .distinct_values(AttrId(3))
            .iter()
            .map(|v| v.raw())
            .collect();
        assert_eq!(vals, vec![7, 8]);
    }
}
