//! Pairwise join kernels used by the RDB engine.

use super::LimitChecker;
use crate::relation::Relation;
use fdb_common::{Result, Value};

/// How often (in produced tuples) the resource limits are re-checked.
const CHECK_EVERY: usize = 4096;

/// Concatenates every pair of rows (cross product).
pub(crate) fn cross_product(
    left: &Relation,
    right: &Relation,
    checker: &LimitChecker,
) -> Result<Relation> {
    let mut out_attrs = left.attrs().to_vec();
    out_attrs.extend_from_slice(right.attrs());
    let mut out = Relation::new(out_attrs);
    let mut produced = 0usize;
    let mut row_buf: Vec<Value> = Vec::with_capacity(left.arity() + right.arity());
    for lrow in left.rows() {
        for rrow in right.rows() {
            row_buf.clear();
            row_buf.extend_from_slice(lrow);
            row_buf.extend_from_slice(rrow);
            out.push_row(&row_buf)?;
            produced += 1;
            if produced.is_multiple_of(CHECK_EVERY) {
                checker.check(produced)?;
            }
        }
    }
    checker.check(produced)?;
    Ok(out)
}

/// Equi-join on the given `(left column, right column)` key pairs by sorting
/// both inputs on the key and merging.
pub(crate) fn sort_merge_join(
    left: &Relation,
    right: &Relation,
    keys: &[(usize, usize)],
    checker: &LimitChecker,
) -> Result<Relation> {
    let mut out_attrs = left.attrs().to_vec();
    out_attrs.extend_from_slice(right.attrs());
    let mut out = Relation::new(out_attrs);
    if left.is_empty() || right.is_empty() {
        return Ok(out);
    }

    let left_cols: Vec<usize> = keys.iter().map(|&(l, _)| l).collect();
    let right_cols: Vec<usize> = keys.iter().map(|&(_, r)| r).collect();

    let mut sorted_left = left.clone();
    sorted_left.sort_by_cols(&left_cols);
    let mut sorted_right = right.clone();
    sorted_right.sort_by_cols(&right_cols);

    let key_of =
        |row: &[Value], cols: &[usize]| -> Vec<Value> { cols.iter().map(|&c| row[c]).collect() };

    let mut produced = 0usize;
    let mut row_buf: Vec<Value> = Vec::with_capacity(left.arity() + right.arity());
    let (n, m) = (sorted_left.len(), sorted_right.len());
    let (mut i, mut j) = (0usize, 0usize);
    while i < n && j < m {
        let lkey = key_of(sorted_left.row(i), &left_cols);
        let rkey = key_of(sorted_right.row(j), &right_cols);
        match lkey.cmp(&rkey) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                // Determine the runs of equal keys on both sides and emit the
                // product of the two runs.
                let mut i_end = i + 1;
                while i_end < n && key_of(sorted_left.row(i_end), &left_cols) == lkey {
                    i_end += 1;
                }
                let mut j_end = j + 1;
                while j_end < m && key_of(sorted_right.row(j_end), &right_cols) == rkey {
                    j_end += 1;
                }
                for li in i..i_end {
                    for rj in j..j_end {
                        row_buf.clear();
                        row_buf.extend_from_slice(sorted_left.row(li));
                        row_buf.extend_from_slice(sorted_right.row(rj));
                        out.push_row(&row_buf)?;
                        produced += 1;
                        if produced.is_multiple_of(CHECK_EVERY) {
                            checker.check(produced)?;
                        }
                    }
                }
                i = i_end;
                j = j_end;
            }
        }
    }
    checker.check(produced)?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EvalLimits;
    use fdb_common::AttrId;

    fn checker() -> LimitChecker {
        LimitChecker::new(&EvalLimits::unlimited())
    }

    fn rel(ids: &[u32], rows: &[Vec<u64>]) -> Relation {
        let attrs = ids.iter().map(|&i| AttrId(i)).collect();
        Relation::from_raw_rows(attrs, rows).unwrap()
    }

    #[test]
    fn runs_of_equal_keys_join_as_their_product() {
        let left = rel(
            &[0, 1],
            &[vec![1, 10], vec![2, 10], vec![3, 20], vec![4, 30]],
        );
        let right = rel(
            &[2, 3],
            &[vec![10, 7], vec![10, 8], vec![20, 9], vec![40, 1]],
        );
        let keys = [(1usize, 0usize)];
        let s = sort_merge_join(&left, &right, &keys, &checker()).unwrap();
        // (1,10)/(2,10) × (10,7)/(10,8) plus (3,20) × (20,9) = 5 rows.
        let expected = rel(
            &[0, 1, 2, 3],
            &[
                vec![1, 10, 10, 7],
                vec![1, 10, 10, 8],
                vec![2, 10, 10, 7],
                vec![2, 10, 10, 8],
                vec![3, 20, 20, 9],
            ],
        );
        assert_eq!(s.tuple_set(), expected.tuple_set());
        assert_eq!(s.len(), 5);
    }

    #[test]
    fn multi_column_keys_are_supported() {
        let left = rel(&[0, 1], &[vec![1, 1], vec![1, 2], vec![2, 2]]);
        let right = rel(&[2, 3], &[vec![1, 1], vec![2, 2], vec![2, 3]]);
        // Join on both columns: (A,B) = (C,D).
        let keys = [(0usize, 0usize), (1usize, 1usize)];
        let s = sort_merge_join(&left, &right, &keys, &checker()).unwrap();
        let expected = rel(&[0, 1, 2, 3], &[vec![1, 1, 1, 1], vec![2, 2, 2, 2]]);
        assert_eq!(s.tuple_set(), expected.tuple_set());
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn empty_inputs_yield_empty_output() {
        let left = rel(&[0], &[]);
        let right = rel(&[1], &[vec![1], vec![2]]);
        let keys = [(0usize, 0usize)];
        assert!(sort_merge_join(&left, &right, &keys, &checker())
            .unwrap()
            .is_empty());
    }

    #[test]
    fn column_order_is_left_then_right_even_when_flipped() {
        // Right is the smaller input: whichever side a kernel walks first,
        // the output column order must be left ++ right.
        let left = rel(&[0, 1], &[vec![1, 5], vec![2, 5], vec![3, 6]]);
        let right = rel(&[2], &[vec![5]]);
        let keys = [(1usize, 0usize)];
        let s = sort_merge_join(&left, &right, &keys, &checker()).unwrap();
        assert_eq!(s.attrs(), &[AttrId(0), AttrId(1), AttrId(2)]);
        for row in s.rows() {
            assert_eq!(row[1], row[2]);
        }
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn cross_product_counts() {
        let left = rel(&[0], &[vec![1], vec![2], vec![3]]);
        let right = rel(&[1], &[vec![7], vec![8]]);
        let p = cross_product(&left, &right, &checker()).unwrap();
        assert_eq!(p.len(), 6);
        assert_eq!(p.arity(), 2);
    }

    #[test]
    fn budget_is_enforced_in_kernels() {
        let left = rel(&[0], &(0..200).map(|i| vec![i % 3]).collect::<Vec<_>>());
        let right = rel(&[1], &(0..200).map(|i| vec![i % 3]).collect::<Vec<_>>());
        let limited = LimitChecker::new(&EvalLimits::unlimited().with_max_tuples(10));
        let keys = [(0usize, 0usize)];
        assert!(sort_merge_join(&left, &right, &keys, &limited).is_err());
        assert!(cross_product(&left, &right, &limited).is_err());
    }
}
