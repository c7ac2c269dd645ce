//! Greedy join planning for the RDB engine.
//!
//! The paper's RDB baseline runs "hand-crafted optimised query plans"; the
//! closest automated stand-in is the classic greedy heuristic: repeatedly
//! join the pair of intermediates with the smallest estimated output
//! (product of input cardinalities, refined by whether they share a join
//! class at all).  Cross products are deferred until no joinable pair
//! remains.

use crate::relation::Relation;
use fdb_common::AttrId;
use std::collections::{BTreeMap, BTreeSet};

/// One pairwise step chosen by the planner: join `pending[left]` with
/// `pending[right]` (indices into the current list of intermediates) on the
/// listed equivalence classes (empty ⇒ cross product).
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct JoinStep {
    /// Index of the left input in the pending list.  Always greater than or
    /// equal to zero and strictly less than `right` so that callers can
    /// `swap_remove(right)` then `swap_remove(left)` safely.
    pub left: usize,
    /// Index of the right input in the pending list.
    pub right: usize,
    /// Equivalence classes shared by the two inputs (join key classes).
    pub key_classes: Vec<usize>,
}

/// Greedy smallest-intermediate-first join planner.
#[derive(Clone, Debug)]
pub(crate) struct GreedyJoinPlanner {
    class_of: BTreeMap<AttrId, usize>,
}

impl GreedyJoinPlanner {
    /// Creates a planner given the attribute → equivalence class mapping of
    /// the query.
    pub(crate) fn new(class_of: &BTreeMap<AttrId, usize>) -> Self {
        GreedyJoinPlanner {
            class_of: class_of.clone(),
        }
    }

    /// Returns the equivalence classes present in a relation's columns.
    fn classes_of(&self, rel: &Relation) -> BTreeSet<usize> {
        rel.attrs()
            .iter()
            .filter_map(|a| self.class_of.get(a).copied())
            .collect()
    }

    /// Chooses the next pair of intermediates to combine.
    ///
    /// Joinable pairs (sharing at least one class) are preferred over cross
    /// products; among candidates the pair with the smallest product of
    /// cardinalities wins, with index order as the tie-breaker for
    /// determinism.
    pub(crate) fn next_step(&self, pending: &[Relation]) -> JoinStep {
        assert!(pending.len() >= 2, "need at least two intermediates");
        let classes: Vec<BTreeSet<usize>> = pending.iter().map(|r| self.classes_of(r)).collect();

        let mut best: Option<(bool, u128, usize, usize, Vec<usize>)> = None;
        for i in 0..pending.len() {
            for j in (i + 1)..pending.len() {
                let shared: Vec<usize> = classes[i].intersection(&classes[j]).copied().collect();
                let joinable = !shared.is_empty();
                let cost = pending[i].len() as u128 * pending[j].len() as u128;
                let candidate = (joinable, cost, i, j, shared);
                let better = match &best {
                    None => true,
                    Some((best_joinable, best_cost, ..)) => {
                        // Prefer joinable pairs; then smaller estimated size.
                        (candidate.0 && !best_joinable)
                            || (candidate.0 == *best_joinable && candidate.1 < *best_cost)
                    }
                };
                if better {
                    best = Some(candidate);
                }
            }
        }
        let (_, _, left, right, key_classes) = best.expect("at least one pair exists");
        JoinStep {
            left,
            right,
            key_classes,
        }
    }
}

/// Translates shared equivalence classes into concrete `(left column, right
/// column)` key pairs, one per class, using the first attribute of the class
/// found on each side.
pub(crate) fn key_columns(
    left: &Relation,
    right: &Relation,
    class_of: &BTreeMap<AttrId, usize>,
    key_classes: &[usize],
) -> Vec<(usize, usize)> {
    let find = |rel: &Relation, class: usize| -> Option<usize> {
        rel.attrs()
            .iter()
            .position(|a| class_of.get(a).copied() == Some(class))
    };
    key_classes
        .iter()
        .filter_map(|&class| Some((find(left, class)?, find(right, class)?)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rel(ids: &[u32], len: usize) -> Relation {
        let attrs: Vec<AttrId> = ids.iter().map(|&i| AttrId(i)).collect();
        let arity = attrs.len();
        let rows: Vec<Vec<u64>> = (0..len).map(|i| vec![i as u64; arity]).collect();
        Relation::from_raw_rows(attrs, &rows).unwrap()
    }

    fn class_map(pairs: &[(u32, usize)]) -> BTreeMap<AttrId, usize> {
        pairs.iter().map(|&(a, c)| (AttrId(a), c)).collect()
    }

    #[test]
    fn joinable_pairs_beat_cross_products() {
        // R(A0) and S(A1) share class 0; T(A2) shares nothing.
        let class_of = class_map(&[(0, 0), (1, 0), (2, 1)]);
        let planner = GreedyJoinPlanner::new(&class_of);
        let pending = vec![rel(&[0], 1000), rel(&[1], 1000), rel(&[2], 1)];
        let step = planner.next_step(&pending);
        // Even though joining with T would give the smallest product, T is
        // not joinable, so R ⋈ S must be chosen.
        assert_eq!((step.left, step.right), (0, 1));
        assert_eq!(step.key_classes, vec![0]);
    }

    #[test]
    fn smallest_joinable_pair_is_chosen() {
        let class_of = class_map(&[(0, 0), (1, 0), (2, 0)]);
        let planner = GreedyJoinPlanner::new(&class_of);
        let pending = vec![rel(&[0], 100), rel(&[1], 10), rel(&[2], 20)];
        let step = planner.next_step(&pending);
        assert_eq!((step.left, step.right), (1, 2));
    }

    #[test]
    fn cross_product_step_has_no_keys() {
        let class_of = class_map(&[(0, 0), (1, 1)]);
        let planner = GreedyJoinPlanner::new(&class_of);
        let pending = vec![rel(&[0], 5), rel(&[1], 5)];
        let step = planner.next_step(&pending);
        assert!(step.key_classes.is_empty());
    }

    #[test]
    fn key_columns_resolve_class_to_columns() {
        let class_of = class_map(&[(0, 7), (1, 8), (2, 8), (3, 7)]);
        let left = rel(&[0, 1], 1);
        let right = rel(&[2, 3], 1);
        let keys = key_columns(&left, &right, &class_of, &[7, 8]);
        assert_eq!(keys, vec![(0, 1), (1, 0)]);
    }
}
