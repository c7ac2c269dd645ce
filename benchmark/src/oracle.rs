//! The independent flat oracle of the check phase.
//!
//! Before any timing, every op's output is compared with what a plain
//! relational evaluation gives.  The oracle never touches f-plans,
//! overlays or arenas: it filters, hash-joins, projects, sorts and folds
//! flat [`Relation`]s.  Its one concession to scale is that a relation may
//! be held as a **product of independent parts** ([`FlatProduct`]) — the
//! serving representations are products of chains whose flat form has 10¹²
//! tuples, and a flat engine would keep those factors apart too.

use fdb_common::{AggregateFunc, AggregateHead, AttrId, ConstSelection, Value};
use fdb_frep::{AggregateResult, AggregateValue, AvgValue};
use fdb_relation::Relation;
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Largest relation the oracle expands and sorts for a tuple-set
/// comparison (about a microsecond per tuple, paid by every run's check
/// phase); beyond it the comparison is by tuple count and factor by factor.
pub const FLATTEN_LIMIT: u128 = 100_000;

/// A relation held as the product of independent flat parts.
#[derive(Clone)]
pub struct FlatProduct {
    parts: Vec<Relation>,
}

impl FlatProduct {
    /// The product of the given parts (attribute sets must be disjoint).
    pub fn new(parts: Vec<Relation>) -> Self {
        FlatProduct { parts }
    }

    /// The independent parts.
    pub fn parts(&self) -> &[Relation] {
        &self.parts
    }

    fn part_of(&self, attr: AttrId) -> Result<usize, String> {
        self.parts
            .iter()
            .position(|p| p.has_attr(attr))
            .ok_or_else(|| format!("oracle: attribute {attr} is not in the input"))
    }

    /// Applies `attr θ constant`.
    pub fn select_const(&mut self, sel: &ConstSelection) -> Result<(), String> {
        let part = self.part_of(sel.attr)?;
        let col = self.parts[part]
            .col_index(sel.attr)
            .expect("part holds the attribute");
        self.parts[part] = self.parts[part].filter(|row| sel.op.eval(row[col], sel.value));
        Ok(())
    }

    /// Applies `a = b`: a row filter inside one part, a hash join across
    /// two (which merges them into one part).
    pub fn select_eq(&mut self, a: AttrId, b: AttrId) -> Result<(), String> {
        let (pa, pb) = (self.part_of(a)?, self.part_of(b)?);
        if pa == pb {
            let part = &self.parts[pa];
            let (ca, cb) = (part.col_index(a).unwrap(), part.col_index(b).unwrap());
            self.parts[pa] = part.filter(|row| row[ca] == row[cb]);
            return Ok(());
        }
        let right = self.parts.remove(pa.max(pb));
        let left = self.parts.remove(pa.min(pb));
        let (left_attr, right_attr) = if pa < pb { (a, b) } else { (b, a) };
        let (cl, cr) = (
            left.col_index(left_attr).unwrap(),
            right.col_index(right_attr).unwrap(),
        );
        let mut index: HashMap<Value, Vec<usize>> = HashMap::new();
        for (i, row) in right.rows().enumerate() {
            index.entry(row[cr]).or_default().push(i);
        }
        let attrs: Vec<AttrId> = left.attrs().iter().chain(right.attrs()).copied().collect();
        let mut joined = Relation::new(attrs);
        let mut buffer = Vec::new();
        for row in left.rows() {
            for &i in index.get(&row[cl]).map_or(&[][..], Vec::as_slice) {
                buffer.clear();
                buffer.extend_from_slice(row);
                buffer.extend_from_slice(right.row(i));
                joined.push_row(&buffer).map_err(|e| e.to_string())?;
            }
        }
        self.parts.push(joined);
        Ok(())
    }

    /// Projects onto `keep` with set semantics.  A part that keeps no
    /// attribute contributes only its emptiness.
    pub fn project(&mut self, keep: &[AttrId]) -> Result<(), String> {
        let empty = self.is_empty();
        let mut parts = Vec::new();
        for part in &self.parts {
            let kept: Vec<AttrId> = part
                .attrs()
                .iter()
                .copied()
                .filter(|a| keep.contains(a))
                .collect();
            if !kept.is_empty() {
                parts.push(part.project_distinct(&kept).map_err(|e| e.to_string())?);
            }
        }
        if empty {
            for part in &mut parts {
                *part = Relation::new(part.attrs().to_vec());
            }
        }
        self.parts = parts;
        Ok(())
    }

    /// Whether the represented relation has no tuples.
    pub fn is_empty(&self) -> bool {
        self.parts.iter().any(Relation::is_empty)
    }

    /// Number of represented tuples (wrapping like the engine's counts).
    pub fn tuple_count(&self) -> u128 {
        self.parts
            .iter()
            .fold(1u128, |acc, p| acc.wrapping_mul(p.len() as u128))
    }

    /// All attributes, ascending.
    pub fn attrs(&self) -> Vec<AttrId> {
        let mut attrs: Vec<AttrId> = self.parts.iter().flat_map(|p| p.attrs().to_vec()).collect();
        attrs.sort_unstable();
        attrs
    }

    /// The cross product as one relation with columns in ascending
    /// attribute order and rows sorted, or `None` beyond [`FLATTEN_LIMIT`].
    pub fn flatten(&self) -> Option<Relation> {
        if self.tuple_count() > FLATTEN_LIMIT {
            return None;
        }
        let mut rows: Vec<Vec<Value>> = vec![Vec::new()];
        let mut attrs: Vec<AttrId> = Vec::new();
        for part in &self.parts {
            attrs.extend_from_slice(part.attrs());
            rows = rows
                .iter()
                .flat_map(|prefix| {
                    part.rows().map(move |row| {
                        let mut out = prefix.clone();
                        out.extend_from_slice(row);
                        out
                    })
                })
                .collect();
        }
        let flat = Relation::from_rows(attrs, rows).expect("uniform arity by construction");
        Some(canonical(&flat))
    }

    /// Evaluates an aggregate head.  Small products are expanded and folded
    /// row by row; beyond [`FLATTEN_LIMIT`] only the ungrouped,
    /// non-`DISTINCT` `COUNT` and `SUM` have a product formula, which is all
    /// the workloads pose on such inputs.
    pub fn aggregate(&self, head: &AggregateHead) -> Result<AggregateResult, String> {
        if let Some(flat) = self.flatten() {
            return aggregate_rows(&flat, head);
        }
        if !head.group_by.is_empty() || head.distinct {
            return Err(
                "oracle: grouped/DISTINCT aggregate over a product too large to expand".into(),
            );
        }
        let count = self.tuple_count();
        match (head.func, head.attr) {
            (AggregateFunc::Count, _) => Ok(AggregateResult::Scalar(AggregateValue::Count(count))),
            (AggregateFunc::Sum, Some(attr)) => {
                let part = self.part_of(attr)?;
                let col = self.parts[part].col_index(attr).unwrap();
                let part_sum: u128 = self.parts[part].rows().map(|r| r[col].raw() as u128).sum();
                let others = self
                    .parts
                    .iter()
                    .enumerate()
                    .filter(|&(i, _)| i != part)
                    .fold(1u128, |acc, (_, p)| acc.wrapping_mul(p.len() as u128));
                Ok(AggregateResult::Scalar(AggregateValue::Sum(
                    part_sum.wrapping_mul(others),
                )))
            }
            other => Err(format!("oracle: no product formula for {other:?}")),
        }
    }
}

/// Columns in ascending attribute order, rows sorted, duplicates removed:
/// the form in which two relations are equal iff they hold the same tuple
/// set.
pub fn canonical(rel: &Relation) -> Relation {
    let mut attrs = rel.attrs().to_vec();
    attrs.sort_unstable();
    let mut out = rel
        .reorder_columns(&attrs)
        .expect("a permutation of its own attributes");
    out.sort_and_dedup();
    out
}

/// Sorts by the `ORDER BY` attributes in request order, ties broken by the
/// remaining columns in ascending attribute order — the canonical total
/// order of `OrderedOutput`.  Input columns must be ascending by attribute.
pub fn sort_canonical(rel: &Relation, order_by: &[AttrId]) -> Result<Relation, String> {
    let mut cols = Vec::new();
    for &attr in order_by {
        cols.push(
            rel.col_index(attr)
                .ok_or_else(|| format!("oracle: ORDER BY attribute {attr} is not in the output"))?,
        );
    }
    for col in 0..rel.arity() {
        if !cols.contains(&col) {
            cols.push(col);
        }
    }
    let mut sorted = rel.clone();
    sorted.sort_by_cols(&cols);
    Ok(sorted)
}

/// Per-group fold state of [`aggregate_rows`].
#[derive(Default)]
struct Fold {
    count: u128,
    sum: u128,
    min: Option<Value>,
    max: Option<Value>,
    distinct: BTreeSet<Value>,
}

impl Fold {
    fn add(&mut self, value: Option<Value>) {
        self.count = self.count.wrapping_add(1);
        if let Some(v) = value {
            self.sum = self.sum.wrapping_add(v.raw() as u128);
            self.min = Some(self.min.map_or(v, |m| m.min(v)));
            self.max = Some(self.max.map_or(v, |m| m.max(v)));
            self.distinct.insert(v);
        }
    }

    fn finish(&self, head: &AggregateHead) -> AggregateValue {
        let (count, sum) = if head.distinct {
            (
                self.distinct.len() as u128,
                self.distinct.iter().map(|v| v.raw() as u128).sum(),
            )
        } else {
            (self.count, self.sum)
        };
        match head.func {
            AggregateFunc::Count => AggregateValue::Count(count),
            AggregateFunc::Sum => AggregateValue::Sum(sum),
            AggregateFunc::Min => AggregateValue::Min(self.min),
            AggregateFunc::Max => AggregateValue::Max(self.max),
            AggregateFunc::Avg => {
                AggregateValue::Avg((self.count > 0).then_some(AvgValue { sum, count }))
            }
        }
    }
}

/// Folds an aggregate head over flat rows with plain collections: one
/// [`Fold`] per group key, groups sorted ascending by key, empty groups
/// absent.
pub fn aggregate_rows(rel: &Relation, head: &AggregateHead) -> Result<AggregateResult, String> {
    let col_of = |attr: AttrId| {
        rel.col_index(attr)
            .ok_or_else(|| format!("oracle: attribute {attr} is not in the input"))
    };
    let value_col = head.attr.map(col_of).transpose()?;
    let group_cols = head
        .group_by
        .iter()
        .map(|&g| col_of(g))
        .collect::<Result<Vec<_>, _>>()?;
    let mut groups: BTreeMap<Vec<Value>, Fold> = BTreeMap::new();
    for row in rel.rows() {
        groups
            .entry(group_cols.iter().map(|&c| row[c]).collect())
            .or_default()
            .add(value_col.map(|c| row[c]));
    }
    if head.group_by.is_empty() {
        let fold = groups.into_values().next().unwrap_or_default();
        return Ok(AggregateResult::Scalar(fold.finish(head)));
    }
    Ok(AggregateResult::Groups(
        groups
            .into_iter()
            .map(|(key, fold)| (key, fold.finish(head)))
            .collect(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdb_common::ComparisonOp;

    fn rel(attrs: &[u32], rows: &[Vec<u64>]) -> Relation {
        Relation::from_raw_rows(attrs.iter().map(|&a| AttrId(a)).collect(), rows).unwrap()
    }

    fn two_parts() -> FlatProduct {
        FlatProduct::new(vec![
            rel(&[0, 1], &[vec![1, 10], vec![2, 20], vec![2, 21]]),
            rel(&[2], &[vec![2], vec![3]]),
        ])
    }

    #[test]
    fn selections_joins_and_projection_follow_relational_semantics() {
        let mut p = two_parts();
        assert_eq!(p.tuple_count(), 6);
        p.select_const(&ConstSelection {
            attr: AttrId(1),
            op: ComparisonOp::Ge,
            value: Value::new(20),
        })
        .unwrap();
        assert_eq!(p.tuple_count(), 4);
        p.select_eq(AttrId(0), AttrId(2)).unwrap();
        let flat = p.flatten().unwrap();
        assert_eq!(flat, rel(&[0, 1, 2], &[vec![2, 20, 2], vec![2, 21, 2]]));
        p.project(&[AttrId(0), AttrId(2)]).unwrap();
        assert_eq!(p.flatten().unwrap(), rel(&[0, 2], &[vec![2, 2]]));
    }

    #[test]
    fn an_emptied_part_empties_the_projection() {
        let mut p = two_parts();
        p.select_const(&ConstSelection {
            attr: AttrId(2),
            op: ComparisonOp::Gt,
            value: Value::new(9),
        })
        .unwrap();
        p.project(&[AttrId(0)]).unwrap();
        assert!(p.is_empty());
        assert_eq!(p.tuple_count(), 0);
    }

    #[test]
    fn aggregates_match_hand_computed_values() {
        let p = two_parts();
        let count = p.aggregate(&AggregateHead::count()).unwrap();
        assert_eq!(count, AggregateResult::Scalar(AggregateValue::Count(6)));
        let sum = p
            .aggregate(&AggregateHead::over(AggregateFunc::Sum, AttrId(1)))
            .unwrap();
        assert_eq!(sum, AggregateResult::Scalar(AggregateValue::Sum(102)));
        let grouped = p
            .aggregate(
                &AggregateHead::over(AggregateFunc::Count, AttrId(1))
                    .with_distinct()
                    .grouped_by(AttrId(0)),
            )
            .unwrap();
        assert_eq!(
            grouped,
            AggregateResult::Groups(vec![
                (vec![Value::new(1)], AggregateValue::Count(1)),
                (vec![Value::new(2)], AggregateValue::Count(2)),
            ])
        );
        let empty = FlatProduct::new(vec![rel(&[0], &[])]);
        assert_eq!(
            empty
                .aggregate(&AggregateHead::over(AggregateFunc::Avg, AttrId(0)))
                .unwrap(),
            AggregateResult::Scalar(AggregateValue::Avg(None))
        );
    }

    #[test]
    fn canonical_sort_breaks_ties_on_the_remaining_columns() {
        let r = rel(&[0, 1], &[vec![2, 5], vec![1, 9], vec![2, 5], vec![1, 7]]);
        let sorted = sort_canonical(&r, &[AttrId(1)]).unwrap();
        assert_eq!(
            sorted,
            rel(&[0, 1], &[vec![2, 5], vec![2, 5], vec![1, 7], vec![1, 9]])
        );
    }
}
