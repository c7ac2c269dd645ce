//! A database: a catalog plus the stored instance of every relation.

use crate::relation::Relation;
use fdb_common::{Catalog, FdbError, RelId, Result, Value};
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// An in-memory database instance.
///
/// The [`Catalog`] describes the schema (relations and attributes); the
/// database stores one [`Relation`] instance per catalog relation.  Relations
/// that have not been populated are treated as empty.
#[derive(Clone, Debug, Default)]
pub struct Database {
    catalog: Catalog,
    relations: BTreeMap<RelId, Relation>,
    sorted: SortedCache,
}

/// The [`Database::sorted_columns`] computed so far: one slot per
/// `(relation, column groups)`, filled on first use outside the map lock, so
/// concurrent first users of one order sort it once and users of other
/// orders never wait for that sort.  Clones share it until one of them
/// replaces a relation and starts afresh.
type SortedCache = Arc<Mutex<HashMap<(RelId, Vec<Vec<usize>>), Arc<OnceLock<Arc<[Vec<Value>]>>>>>>;

impl Database {
    /// Creates an empty database over the given catalog.
    pub fn new(catalog: Catalog) -> Self {
        Database {
            catalog,
            relations: BTreeMap::new(),
            sorted: SortedCache::default(),
        }
    }

    /// The schema catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Installs (or replaces) the instance of a relation, dropping every
    /// [`Database::sorted_columns`].  The relation's columns must be exactly
    /// the catalog attributes of `rel`, in catalog order.
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
        self.sorted = SortedCache::default();
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

    /// The rows of `rel` whose columns agree within each of `groups` (lists
    /// of `rel`'s column indices), as one column per group holding that
    /// common value, with the rows sorted lexicographically, first group
    /// most significant.  The flat build reads a relation this way, one
    /// group per f-tree level.  The sort runs on the first call per `(rel,
    /// groups)`; every later call, from any thread, shares its result until
    /// a relation is replaced.
    pub fn sorted_columns(&self, rel: RelId, groups: &[Vec<usize>]) -> Arc<[Vec<Value>]> {
        // The lock only guards inserting a whole empty slot (the sort runs
        // outside it), so a poisoned map is still a valid one.
        let mut slots = self.sorted.lock().unwrap_or_else(PoisonError::into_inner);
        let slot = Arc::clone(slots.entry((rel, groups.to_vec())).or_default());
        drop(slots);
        Arc::clone(slot.get_or_init(|| match self.relations.get(&rel) {
            Some(relation) => sort_columns(relation, groups).into(),
            None => vec![Vec::new(); groups.len()].into(),
        }))
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
}

/// [`Database::sorted_columns`] of a stored relation: the rows whose
/// columns agree within each group, sorted by an LSD byte-radix sort of a
/// row permutation, one stable counting pass per key byte, skipping the
/// bytes on which all rows agree (values from a small domain differ in one
/// or two of their eight).
fn sort_columns(relation: &Relation, groups: &[Vec<usize>]) -> Vec<Vec<Value>> {
    let value = |row: usize, col: usize| relation.row(row)[col].raw();
    let agrees =
        |row: usize| (groups.iter()).all(|g| g.iter().all(|&c| value(row, c) == value(row, g[0])));
    let mut perm: Vec<usize> = (0..relation.len()).filter(|&row| agrees(row)).collect();
    let mut scattered = perm.clone();
    for col in groups.iter().rev().map(|group| group[0]) {
        let varying = (perm.iter()).fold(0, |bits, &row| bits | (value(row, col) ^ value(0, col)));
        for shift in (0..64).step_by(8).filter(|s| (varying >> s) & 0xff != 0) {
            let byte = |row: usize| (value(row, col) >> shift) as usize & 0xff;
            // `starts[b]` becomes the output position of the next row whose
            // byte is `b`.
            let mut starts = [0usize; 257];
            for &row in &perm {
                starts[byte(row) + 1] += 1;
            }
            for b in 1..256 {
                starts[b] += starts[b - 1];
            }
            for &row in &perm {
                let start = &mut starts[byte(row)];
                scattered[*start] = row;
                *start += 1;
            }
            std::mem::swap(&mut perm, &mut scattered);
        }
    }
    let column = |group: &Vec<usize>| {
        perm.iter()
            .map(|&row| relation.row(row)[group[0]])
            .collect()
    };
    groups.iter().map(column).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdb_common::AttrId;

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
    }

    #[test]
    fn schema_mismatch_is_rejected() {
        let (mut db, r, _) = setup();
        let bogus = Relation::from_raw_rows(vec![AttrId(5)], &[vec![1]]).unwrap();
        assert!(db.insert_relation(r, bogus).is_err());
        assert!(db.insert_relation(RelId(9), Relation::new(vec![])).is_err());
    }

    #[test]
    fn sorted_columns_are_shared_until_a_relation_is_replaced() {
        let (mut db, r, s) = setup();
        let raw = |columns: &[Vec<Value>]| -> Vec<Vec<u64>> {
            columns
                .iter()
                .map(|column| column.iter().map(|v| v.raw()).collect())
                .collect()
        };
        let (b_then_a, by_c) = (vec![vec![1], vec![0]], vec![vec![1]]);
        let by_b = db.sorted_columns(r, &b_then_a);
        assert_eq!(raw(&by_b), vec![vec![2, 3, 3], vec![1, 1, 2]]);
        // Every caller, on any thread, shares the one sort.
        std::thread::scope(|scope| {
            let threads: Vec<_> = (0..4)
                .map(|_| scope.spawn(|| db.sorted_columns(r, &b_then_a)))
                .collect();
            for thread in threads {
                assert!(Arc::ptr_eq(&thread.join().unwrap(), &by_b));
            }
        });
        // A clone shares the sorts until it replaces a relation.
        let of_s = db.sorted_columns(s, &by_c);
        let copy = db.clone();
        assert!(Arc::ptr_eq(&copy.sorted_columns(s, &by_c), &of_s));
        db.insert_raw_rows(r, &[vec![5, 5], vec![4, 0], vec![4, 4]])
            .unwrap();
        assert_eq!(
            raw(&db.sorted_columns(r, &b_then_a)),
            vec![vec![0, 4, 5], vec![4, 4, 5]]
        );
        assert!(!Arc::ptr_eq(&db.sorted_columns(s, &by_c), &of_s));
        assert_eq!(db.sorted_columns(s, &by_c), of_s);
        assert!(Arc::ptr_eq(&copy.sorted_columns(r, &b_then_a), &by_b));
        // A group keeps the rows whose columns agree, as one column.
        assert_eq!(raw(&db.sorted_columns(r, &[vec![0, 1]])), vec![vec![4, 5]]);
        // An unpopulated relation sorts to empty columns.
        let mut catalog = Catalog::new();
        let (t, _) = catalog.add_relation("T", &["A", "B"]);
        let empty = Database::new(catalog).sorted_columns(t, &b_then_a);
        assert_eq!(raw(&empty), vec![vec![]; 2]);
    }
}
