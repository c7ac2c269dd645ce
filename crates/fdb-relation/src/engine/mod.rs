//! The RDB baseline engine: select-project-join evaluation on flat relations.
//!
//! This is the "homebred in-memory relational engine" the paper measures FDB
//! against.  It evaluates a [`Query`] bottom-up on flat relations:
//!
//! 1. constant selections and intra-relation equality selections are pushed
//!    onto the base relations;
//! 2. relations are joined pairwise following a greedy plan that always picks
//!    the pair with the smallest estimated intermediate result, using
//!    sort-merge joins (the paper's choice — the input relations are given
//!    sorted);
//! 3. remaining cross products are taken when no join condition links the
//!    remaining intermediates;
//! 4. the projection is applied last (with duplicate elimination, matching
//!    the set semantics of the paper's relational algebra).
//!
//! Evaluation can be bounded with [`EvalLimits`] (output-tuple budget and/or
//! wall-clock deadline) so that experiment sweeps can report timeouts the
//! way the paper's plots leave out points that exceeded 100 seconds.

mod join;
mod plan;

use join::sort_merge_join;
use plan::GreedyJoinPlanner;

use crate::database::Database;
use crate::relation::Relation;
use fdb_common::{AttrId, FdbError, Query, Result};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Resource limits for a single query evaluation.
#[derive(Clone, Copy, Debug, Default)]
pub struct EvalLimits {
    /// Maximum number of tuples any intermediate or final result may reach.
    pub max_tuples: Option<usize>,
    /// Wall-clock budget for the whole evaluation.
    pub timeout: Option<Duration>,
}

impl EvalLimits {
    /// No limits at all.
    pub fn unlimited() -> Self {
        EvalLimits::default()
    }

    /// Limits evaluation to `max_tuples` tuples per (intermediate) result.
    pub fn with_max_tuples(mut self, max_tuples: usize) -> Self {
        self.max_tuples = Some(max_tuples);
        self
    }

    /// Limits evaluation to the given wall-clock duration.
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = Some(timeout);
        self
    }
}

/// Ticking deadline/budget checker handed to the join kernels.  Constructed
/// from [`EvalLimits`]; exposed so the kernels can be reused directly.
#[derive(Clone, Copy, Debug)]
pub struct LimitChecker {
    max_tuples: usize,
    deadline: Option<Instant>,
}

impl LimitChecker {
    /// Creates a checker from the given limits (the deadline starts now).
    pub fn new(limits: &EvalLimits) -> Self {
        LimitChecker {
            max_tuples: limits.max_tuples.unwrap_or(usize::MAX),
            deadline: limits.timeout.map(|t| Instant::now() + t),
        }
    }

    /// Fails when the produced-tuple count exceeds the budget or the
    /// deadline has passed.
    #[inline]
    pub fn check(&self, produced: usize) -> Result<()> {
        if produced > self.max_tuples {
            return Err(FdbError::LimitExceeded {
                detail: format!("result exceeded the {}-tuple budget", self.max_tuples),
            });
        }
        // Checking the clock on every tuple would dominate tight loops; the
        // callers only invoke `check` every few thousand tuples.
        if let Some(deadline) = self.deadline {
            if Instant::now() > deadline {
                return Err(FdbError::LimitExceeded {
                    detail: "evaluation exceeded its wall-clock budget".to_owned(),
                });
            }
        }
        Ok(())
    }
}

/// Statistics of a single RDB evaluation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct RdbStats {
    /// Number of pairwise joins performed.
    pub joins: usize,
    /// Number of cross products performed (no join condition available).
    pub cross_products: usize,
    /// Largest intermediate result, in tuples.
    pub max_intermediate_tuples: usize,
    /// Tuples in the final result.
    pub output_tuples: usize,
}

/// The flat relational query engine.
#[derive(Clone, Copy, Debug, Default)]
pub struct RdbEngine {
    /// Resource limits applied to every evaluation.
    pub limits: EvalLimits,
}

impl RdbEngine {
    /// Creates an engine with no resource limits.
    pub fn new() -> Self {
        RdbEngine::default()
    }

    /// Sets the resource limits.
    pub fn with_limits(mut self, limits: EvalLimits) -> Self {
        self.limits = limits;
        self
    }

    /// Evaluates the query on the database, returning the flat result.
    pub fn evaluate(&self, db: &Database, query: &Query) -> Result<Relation> {
        self.evaluate_with_stats(db, query).map(|(rel, _)| rel)
    }

    /// Evaluates the query, also returning evaluation statistics.
    pub(crate) fn evaluate_with_stats(
        &self,
        db: &Database,
        query: &Query,
    ) -> Result<(Relation, RdbStats)> {
        query.validate(db.catalog())?;
        let checker = LimitChecker::new(&self.limits);
        let mut stats = RdbStats::default();

        // Attribute → equivalence-class index, used to find join keys.
        let classes = query.equivalence_classes(db.catalog());
        let mut class_of: BTreeMap<AttrId, usize> = BTreeMap::new();
        for (i, class) in classes.iter().enumerate() {
            for &a in class {
                class_of.insert(a, i);
            }
        }

        // Base relations with constant selections and intra-relation
        // equality selections pushed down.
        let mut pending: Vec<Relation> = Vec::with_capacity(query.relations.len());
        for &rel_id in &query.relations {
            let mut rel = db.relation(rel_id);
            rel = self.apply_const_selections(rel, query);
            rel = Self::apply_intra_relation_equalities(rel, &class_of);
            pending.push(rel);
        }
        if pending.is_empty() {
            return Err(FdbError::InvalidInput {
                detail: "query has no relations".into(),
            });
        }

        // Greedy pairwise joining.
        let planner = GreedyJoinPlanner::new(&class_of);
        while pending.len() > 1 {
            let step = planner.next_step(&pending);
            let right = pending.swap_remove(step.right);
            let left = pending.swap_remove(step.left);
            let joined = if step.key_classes.is_empty() {
                stats.cross_products += 1;
                join::cross_product(&left, &right, &checker)?
            } else {
                stats.joins += 1;
                let keys = plan::key_columns(&left, &right, &class_of, &step.key_classes);
                sort_merge_join(&left, &right, &keys, &checker)?
            };
            stats.max_intermediate_tuples = stats.max_intermediate_tuples.max(joined.len());
            pending.push(joined);
        }
        let mut result = pending.pop().expect("at least one relation");

        // Projection (set semantics).
        if let Some(_proj) = &query.projection {
            let out_attrs = query.output_attrs(db.catalog());
            result = result.project_distinct(&out_attrs)?;
        }
        stats.output_tuples = result.len();
        Ok((result, stats))
    }

    fn apply_const_selections(&self, rel: Relation, query: &Query) -> Relation {
        let applicable: Vec<_> = query
            .const_selections
            .iter()
            .filter(|sel| rel.has_attr(sel.attr))
            .copied()
            .collect();
        if applicable.is_empty() {
            return rel;
        }
        let cols: Vec<(usize, _)> = applicable
            .iter()
            .map(|sel| (rel.col_index(sel.attr).expect("checked above"), *sel))
            .collect();
        rel.filter(|row| cols.iter().all(|(c, sel)| sel.op.eval(row[*c], sel.value)))
    }

    fn apply_intra_relation_equalities(
        rel: Relation,
        class_of: &BTreeMap<AttrId, usize>,
    ) -> Relation {
        // Columns of the same equivalence class within one relation must be
        // pairwise equal.
        let mut by_class: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for (col, &attr) in rel.attrs().iter().enumerate() {
            if let Some(&class) = class_of.get(&attr) {
                by_class.entry(class).or_default().push(col);
            }
        }
        let groups: Vec<Vec<usize>> = by_class
            .into_values()
            .filter(|cols| cols.len() > 1)
            .collect();
        if groups.is_empty() {
            return rel;
        }
        rel.filter(|row| {
            groups
                .iter()
                .all(|cols| cols.windows(2).all(|w| row[w[0]] == row[w[1]]))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdb_common::{Catalog, ComparisonOp, Value};

    /// R(A,B), S(B,C), T(C,D) with a small many-to-many instance.
    fn chain_db() -> (Database, Vec<fdb_common::RelId>, Vec<AttrId>) {
        let mut catalog = Catalog::new();
        let (r, ra) = catalog.add_relation("R", &["A", "B"]);
        let (s, sa) = catalog.add_relation("S", &["B", "C"]);
        let (t, ta) = catalog.add_relation("T", &["C", "D"]);
        let mut db = Database::new(catalog);
        db.insert_raw_rows(r, &[vec![1, 10], vec![1, 20], vec![2, 10]])
            .unwrap();
        db.insert_raw_rows(s, &[vec![10, 100], vec![10, 200], vec![20, 100]])
            .unwrap();
        db.insert_raw_rows(t, &[vec![100, 7], vec![200, 7], vec![200, 8]])
            .unwrap();
        let attrs = [ra, sa, ta].concat();
        (db, vec![r, s, t], attrs)
    }

    fn chain_query(rels: &[fdb_common::RelId], attrs: &[AttrId]) -> Query {
        // R.B = S.B, S.C = T.C
        Query::product(rels.to_vec())
            .with_equality(attrs[1], attrs[2])
            .with_equality(attrs[3], attrs[4])
    }

    fn brute_force_chain(db: &Database, query: &Query) -> std::collections::BTreeSet<Vec<Value>> {
        // Nested-loop reference implementation over the product of all
        // relations, filtering by all equalities and constant selections.
        let cat = db.catalog();
        let rels: Vec<Relation> = query.relations.iter().map(|&r| db.relation(r)).collect();
        let all_attrs: Vec<AttrId> = query
            .relations
            .iter()
            .flat_map(|&r| cat.rel_attrs(r).to_vec())
            .collect();
        let mut result = std::collections::BTreeSet::new();
        let mut indices = vec![0usize; rels.len()];
        'outer: loop {
            if rels.iter().any(|r| r.is_empty()) {
                break;
            }
            let mut tuple: Vec<Value> = Vec::new();
            for (rel, &i) in rels.iter().zip(&indices) {
                tuple.extend_from_slice(rel.row(i));
            }
            let pos = |a: AttrId| all_attrs.iter().position(|&x| x == a).unwrap();
            let eq_ok = query
                .equalities
                .iter()
                .all(|eq| tuple[pos(eq.left)] == tuple[pos(eq.right)]);
            let sel_ok = query
                .const_selections
                .iter()
                .all(|sel| sel.op.eval(tuple[pos(sel.attr)], sel.value));
            if eq_ok && sel_ok {
                let projected: Vec<Value> = match &query.projection {
                    Some(_) => {
                        let outs = query.output_attrs(cat);
                        outs.iter().map(|&a| tuple[pos(a)]).collect()
                    }
                    None => {
                        let mut sorted = all_attrs.clone();
                        sorted.sort_unstable();
                        sorted.iter().map(|&a| tuple[pos(a)]).collect()
                    }
                };
                result.insert(projected);
            }
            // Advance the odometer.
            for k in (0..indices.len()).rev() {
                indices[k] += 1;
                if indices[k] < rels[k].len() {
                    continue 'outer;
                }
                indices[k] = 0;
                if k == 0 {
                    break 'outer;
                }
            }
        }
        result
    }

    #[test]
    fn chain_join_matches_brute_force() {
        let (db, rels, attrs) = chain_db();
        let query = chain_query(&rels, &attrs);
        let expected = brute_force_chain(&db, &query);
        let result = RdbEngine::new().evaluate(&db, &query).unwrap();
        // Reorder the columns to ascending attribute id for comparison.
        let mut sorted_attrs = result.attrs().to_vec();
        sorted_attrs.sort_unstable();
        let canon = result.reorder_columns(&sorted_attrs).unwrap();
        assert_eq!(canon.tuple_set(), expected);
    }

    #[test]
    fn const_selection_is_applied() {
        let (db, rels, attrs) = chain_db();
        let query = chain_query(&rels, &attrs).with_const_selection(
            attrs[0],
            ComparisonOp::Eq,
            Value::new(1),
        );
        let expected = brute_force_chain(&db, &query);
        let result = RdbEngine::new().evaluate(&db, &query).unwrap();
        let mut sorted_attrs = result.attrs().to_vec();
        sorted_attrs.sort_unstable();
        assert_eq!(
            result.reorder_columns(&sorted_attrs).unwrap().tuple_set(),
            expected
        );
        assert!(expected.iter().all(|t| t[0] == Value::new(1)));
    }

    #[test]
    fn projection_uses_set_semantics() {
        let (db, rels, attrs) = chain_db();
        // Project the chain join onto A only: duplicates must collapse.
        let query = chain_query(&rels, &attrs).with_projection(vec![attrs[0]]);
        let result = RdbEngine::new().evaluate(&db, &query).unwrap();
        let expected = brute_force_chain(&db, &query);
        assert_eq!(result.tuple_set(), expected);
        assert_eq!(result.len(), expected.len());
    }

    #[test]
    fn cross_product_is_used_when_no_join_exists() {
        let (db, rels, _) = chain_db();
        let query = Query::product(vec![rels[0], rels[2]]);
        let (result, stats) = RdbEngine::new().evaluate_with_stats(&db, &query).unwrap();
        assert_eq!(result.len(), 9);
        assert_eq!(stats.cross_products, 1);
        assert_eq!(stats.joins, 0);
    }

    #[test]
    fn tuple_budget_aborts_evaluation() {
        let (db, rels, attrs) = chain_db();
        let query = chain_query(&rels, &attrs);
        let engine = RdbEngine::new().with_limits(EvalLimits::unlimited().with_max_tuples(1));
        let err = engine.evaluate(&db, &query).unwrap_err();
        assert!(matches!(err, FdbError::LimitExceeded { .. }));
    }

    #[test]
    fn intra_relation_equality_is_a_selection() {
        let mut catalog = Catalog::new();
        let (r, ra) = catalog.add_relation("R", &["A", "B"]);
        let mut db = Database::new(catalog);
        db.insert_raw_rows(r, &[vec![1, 1], vec![1, 2], vec![3, 3]])
            .unwrap();
        let query = Query::product(vec![r]).with_equality(ra[0], ra[1]);
        let result = RdbEngine::new().evaluate(&db, &query).unwrap();
        assert_eq!(result.len(), 2);
    }

    #[test]
    fn empty_relation_yields_empty_result() {
        let (mut db, rels, attrs) = chain_db();
        db.insert_raw_rows(rels[1], &[]).unwrap();
        let query = chain_query(&rels, &attrs);
        let result = RdbEngine::new().evaluate(&db, &query).unwrap();
        assert!(result.is_empty());
    }

    #[test]
    fn stats_count_joins() {
        let (db, rels, attrs) = chain_db();
        let query = chain_query(&rels, &attrs);
        let (_, stats) = RdbEngine::new().evaluate_with_stats(&db, &query).unwrap();
        assert_eq!(stats.joins, 2);
        assert_eq!(stats.cross_products, 0);
        assert!(stats.output_tuples > 0);
    }
}
