//! In-memory relations with row-major storage.
//!
//! A [`Relation`] is an ordered multiset of tuples over a fixed list of
//! attributes.  Storage is a single flat `Vec<Value>` in row-major order,
//! which keeps scans and sorts cache-friendly and makes the "number of data
//! elements" the paper reports (`arity × tuple count`) trivially available.

use fdb_common::{AttrId, FdbError, Result, Value};
use std::cmp::Ordering;
use std::collections::BTreeSet;
use std::fmt;

/// A tuple is simply a vector of values, positionally aligned with the
/// relation's attribute list.
pub type Tuple = Vec<Value>;

/// An in-memory relation: a list of attributes (columns) plus a row-major
/// data buffer.
#[derive(Clone, PartialEq, Eq)]
pub struct Relation {
    attrs: Vec<AttrId>,
    data: Vec<Value>,
}

impl Relation {
    /// Creates an empty relation over the given attributes.
    pub fn new(attrs: Vec<AttrId>) -> Self {
        Relation {
            attrs,
            data: Vec::new(),
        }
    }

    /// Creates a relation from rows, validating arity.
    pub fn from_rows<I>(attrs: Vec<AttrId>, rows: I) -> Result<Self>
    where
        I: IntoIterator<Item = Tuple>,
    {
        let mut rel = Relation::new(attrs);
        for row in rows {
            rel.push_row(&row)?;
        }
        Ok(rel)
    }

    /// Creates a relation that takes over an already row-major buffer
    /// (`arity` values per row, rows back to back) without copying it.  The
    /// buffer must hold whole rows: a trailing partial row is an
    /// [`FdbError::ArityMismatch`] reporting its length.
    pub fn from_flat(attrs: Vec<AttrId>, data: Vec<Value>) -> Result<Self> {
        let trailing = match attrs.len() {
            0 => data.len(),
            arity => data.len() % arity,
        };
        if trailing != 0 {
            return Err(FdbError::ArityMismatch {
                expected: attrs.len(),
                actual: trailing,
            });
        }
        Ok(Relation { attrs, data })
    }

    /// Creates a relation from rows of raw integers (convenient in tests and
    /// generators), validating arity.
    pub fn from_raw_rows(attrs: Vec<AttrId>, rows: &[Vec<u64>]) -> Result<Self> {
        let mut rel = Relation::new(attrs);
        for row in rows {
            let tuple: Tuple = row.iter().map(|&v| Value::new(v)).collect();
            rel.push_row(&tuple)?;
        }
        Ok(rel)
    }

    /// The relation's attributes, in column order.
    pub fn attrs(&self) -> &[AttrId] {
        &self.attrs
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.attrs.len()
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        if self.attrs.is_empty() {
            0
        } else {
            self.data.len() / self.attrs.len()
        }
    }

    /// Returns `true` if the relation has no rows.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Number of data elements (`arity × rows`), the size measure used by the
    /// paper when comparing flat and factorised result sizes.
    pub fn data_element_count(&self) -> usize {
        self.data.len()
    }

    /// Appends a row.
    pub fn push_row(&mut self, row: &[Value]) -> Result<()> {
        if row.len() != self.arity() {
            return Err(FdbError::ArityMismatch {
                expected: self.arity(),
                actual: row.len(),
            });
        }
        self.data.extend_from_slice(row);
        Ok(())
    }

    /// Returns the `i`-th row as a slice.
    pub fn row(&self, i: usize) -> &[Value] {
        let a = self.arity();
        &self.data[i * a..(i + 1) * a]
    }

    /// Iterates over rows as slices.
    pub fn rows(&self) -> impl Iterator<Item = &[Value]> + '_ {
        let a = self.arity().max(1);
        self.data.chunks_exact(a)
    }

    /// Position of an attribute in the column order, if present.
    pub fn col_index(&self, attr: AttrId) -> Option<usize> {
        self.attrs.iter().position(|&a| a == attr)
    }

    /// Returns `true` if the relation contains the attribute.
    pub fn has_attr(&self, attr: AttrId) -> bool {
        self.col_index(attr).is_some()
    }

    /// Value of attribute `attr` in row `i`.
    pub fn value(&self, i: usize, attr: AttrId) -> Option<Value> {
        self.col_index(attr).map(|c| self.row(i)[c])
    }

    /// Sorts rows lexicographically by the given column indices.
    pub fn sort_by_cols(&mut self, cols: &[usize]) {
        let a = self.arity();
        if a == 0 || self.is_empty() {
            return;
        }
        let mut indices: Vec<usize> = (0..self.len()).collect();
        indices.sort_by(|&i, &j| {
            let ri = &self.data[i * a..(i + 1) * a];
            let rj = &self.data[j * a..(j + 1) * a];
            for &c in cols {
                match ri[c].cmp(&rj[c]) {
                    Ordering::Equal => continue,
                    other => return other,
                }
            }
            Ordering::Equal
        });
        let mut new_data = Vec::with_capacity(self.data.len());
        for i in indices {
            new_data.extend_from_slice(&self.data[i * a..(i + 1) * a]);
        }
        self.data = new_data;
    }

    /// Sorts rows lexicographically over all columns and removes duplicates.
    pub fn sort_and_dedup(&mut self) {
        let cols: Vec<usize> = (0..self.arity()).collect();
        self.sort_by_cols(&cols);
        self.dedup_sorted();
    }

    /// Removes adjacent duplicate rows (the relation must already be sorted
    /// for this to deduplicate globally).
    fn dedup_sorted(&mut self) {
        let a = self.arity();
        if a == 0 || self.len() <= 1 {
            return;
        }
        let mut new_data: Vec<Value> = Vec::with_capacity(self.data.len());
        let mut prev: Option<Vec<Value>> = None;
        for row in self.data.chunks_exact(a) {
            if prev.as_deref() != Some(row) {
                new_data.extend_from_slice(row);
                prev = Some(row.to_vec());
            }
        }
        self.data = new_data;
    }

    /// Keeps only the rows satisfying the predicate.
    pub fn filter<F>(&self, mut pred: F) -> Relation
    where
        F: FnMut(&[Value]) -> bool,
    {
        let mut out = Relation::new(self.attrs.clone());
        for row in self.rows() {
            if pred(row) {
                out.data.extend_from_slice(row);
            }
        }
        out
    }

    /// Projects onto the given attributes (in the given order), without
    /// duplicate elimination (bag semantics).
    pub fn project(&self, attrs: &[AttrId]) -> Result<Relation> {
        let cols: Vec<usize> = attrs
            .iter()
            .map(|&a| {
                self.col_index(a)
                    .ok_or(FdbError::UnknownAttribute { attr: a.0 })
            })
            .collect::<Result<_>>()?;
        let mut out = Relation::new(attrs.to_vec());
        for row in self.rows() {
            for &c in &cols {
                out.data.push(row[c]);
            }
        }
        Ok(out)
    }

    /// Projects onto the given attributes with duplicate elimination (set
    /// semantics), returning a sorted relation.
    pub fn project_distinct(&self, attrs: &[AttrId]) -> Result<Relation> {
        let mut out = self.project(attrs)?;
        out.sort_and_dedup();
        Ok(out)
    }

    /// Returns the set of rows as a `BTreeSet` of tuples — handy for
    /// order-insensitive comparisons in tests.
    pub fn tuple_set(&self) -> BTreeSet<Tuple> {
        self.rows().map(|r| r.to_vec()).collect()
    }

    /// Reorders the columns to the given attribute order (which must be a
    /// permutation of the current attributes).
    pub fn reorder_columns(&self, attrs: &[AttrId]) -> Result<Relation> {
        if attrs.len() != self.arity() {
            return Err(FdbError::InvalidInput {
                detail: format!(
                    "reorder_columns: expected {} attributes, got {}",
                    self.arity(),
                    attrs.len()
                ),
            });
        }
        self.project(attrs)
    }
}

impl fmt::Debug for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Relation({:?}) [{} rows]", self.attrs, self.len())?;
        for (i, row) in self.rows().enumerate() {
            if i >= 20 {
                writeln!(f, "  … ({} more rows)", self.len() - 20)?;
                break;
            }
            writeln!(f, "  {row:?}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn attrs(ids: &[u32]) -> Vec<AttrId> {
        ids.iter().map(|&i| AttrId(i)).collect()
    }

    fn rel(ids: &[u32], rows: &[Vec<u64>]) -> Relation {
        Relation::from_raw_rows(attrs(ids), rows).unwrap()
    }

    #[test]
    fn construction_and_basic_accessors() {
        let r = rel(&[0, 1], &[vec![1, 2], vec![3, 4], vec![5, 6]]);
        assert_eq!(r.arity(), 2);
        assert_eq!(r.len(), 3);
        assert_eq!(r.data_element_count(), 6);
        assert_eq!(r.row(1), &[Value::new(3), Value::new(4)]);
        assert_eq!(r.value(2, AttrId(1)), Some(Value::new(6)));
        assert_eq!(r.value(2, AttrId(9)), None);
        assert!(!r.is_empty());
        assert!(Relation::new(attrs(&[0])).is_empty());
    }

    #[test]
    fn arity_mismatch_is_rejected() {
        let mut r = Relation::new(attrs(&[0, 1]));
        let err = r.push_row(&[Value::new(1)]).unwrap_err();
        assert_eq!(
            err,
            FdbError::ArityMismatch {
                expected: 2,
                actual: 1
            }
        );
    }

    #[test]
    fn from_flat_adopts_whole_rows_and_rejects_a_partial_one() {
        let data: Vec<Value> = (1..=6).map(Value::new).collect();
        let r = Relation::from_flat(attrs(&[0, 1]), data.clone()).unwrap();
        assert_eq!(r, rel(&[0, 1], &[vec![1, 2], vec![3, 4], vec![5, 6]]));
        assert_eq!(
            Relation::from_flat(attrs(&[0, 1]), data[..5].to_vec()),
            Err(FdbError::ArityMismatch {
                expected: 2,
                actual: 1
            })
        );
        // No columns, no data: any value would be a partial row.
        assert!(Relation::from_flat(vec![], vec![]).unwrap().is_empty());
        assert!(Relation::from_flat(vec![], data).is_err());
    }

    #[test]
    fn sorting_is_lexicographic_and_stable() {
        let mut r = rel(&[0, 1], &[vec![2, 1], vec![1, 9], vec![2, 0], vec![1, 3]]);
        r.sort_by_cols(&[0, 1]);
        let rows: Vec<Vec<u64>> = r
            .rows()
            .map(|row| row.iter().map(|v| v.raw()).collect())
            .collect();
        assert_eq!(rows, vec![vec![1, 3], vec![1, 9], vec![2, 0], vec![2, 1]]);
    }

    #[test]
    fn sort_by_single_column_keeps_other_columns_attached() {
        let mut r = rel(&[0, 1], &[vec![3, 30], vec![1, 10], vec![2, 20]]);
        r.sort_by_cols(&[0]);
        assert_eq!(r.row(0), &[Value::new(1), Value::new(10)]);
        assert_eq!(r.row(2), &[Value::new(3), Value::new(30)]);
    }

    #[test]
    fn dedup_removes_duplicates_globally_after_sort() {
        let mut r = rel(
            &[0, 1],
            &[vec![1, 1], vec![2, 2], vec![1, 1], vec![2, 2], vec![1, 1]],
        );
        r.sort_and_dedup();
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn filter_and_project() {
        let r = rel(
            &[0, 1, 2],
            &[vec![1, 10, 100], vec![2, 20, 200], vec![3, 30, 300]],
        );
        let f = r.filter(|row| row[0].raw() >= 2);
        assert_eq!(f.len(), 2);
        let p = f.project(&attrs(&[2, 0])).unwrap();
        assert_eq!(p.attrs(), &attrs(&[2, 0])[..]);
        assert_eq!(p.row(0), &[Value::new(200), Value::new(2)]);
        assert!(f.project(&attrs(&[9])).is_err());
    }

    #[test]
    fn project_distinct_eliminates_duplicates() {
        let r = rel(&[0, 1], &[vec![1, 10], vec![1, 20], vec![2, 10]]);
        let p = r.project_distinct(&attrs(&[0])).unwrap();
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn reorder_columns_validates_arity() {
        let r = rel(&[0, 1], &[vec![1, 2]]);
        assert!(r.reorder_columns(&attrs(&[1])).is_err());
        let swapped = r.reorder_columns(&attrs(&[1, 0])).unwrap();
        assert_eq!(swapped.row(0), &[Value::new(2), Value::new(1)]);
    }

    #[test]
    fn tuple_set_is_order_insensitive() {
        let r1 = rel(&[0, 1], &[vec![1, 2], vec![3, 4]]);
        let r2 = rel(&[0, 1], &[vec![3, 4], vec![1, 2]]);
        assert_eq!(r1.tuple_set(), r2.tuple_set());
    }
}
