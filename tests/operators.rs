//! Property-based tests of the f-plan operators: every restructuring
//! operator preserves the represented relation, and every selection operator
//! computes exactly the selection it claims.

use fdb::common::{ComparisonOp, ExecCtx, Query, RelId, Result, Value};
use fdb::datagen::{populate, random_query, random_schema, ValueDistribution};
use fdb::engine::FdbEngine;
use fdb::frep::ops::{self, FPlanOp};
use fdb::frep::{materialize, FRep};
use fdb::relation::Database;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

/// Runs `op` as the one-operator program `&[op]`.
fn run(rep: &FRep, op: FPlanOp) -> Result<FRep> {
    ops::emit_fused_ctx(rep, &[op], &ExecCtx::unlimited())
}

/// Builds a random factorised query result to act as the operator input.
fn random_frep(
    seed: u64,
    relations: usize,
    attributes: usize,
    tuples: usize,
    k: usize,
) -> (Database, Query, FRep) {
    let mut rng = StdRng::seed_from_u64(seed);
    let catalog = random_schema(&mut rng, relations, attributes);
    let rels: Vec<RelId> = catalog.rels().collect();
    let db = populate(&mut rng, &catalog, tuples, 6, ValueDistribution::Uniform);
    let query = random_query(&mut rng, &catalog, &rels, k);
    let rep = FdbEngine::new()
        .evaluate_flat(&db, &query)
        .expect("builds")
        .result;
    (db, query, rep)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 20, .. ProptestConfig::default() })]

    /// Random sequences of swaps and push-ups never change the represented
    /// relation, never break the structural invariants, and normalisation
    /// never increases the size.
    #[test]
    fn restructuring_preserves_the_relation(
        seed in 0u64..5_000,
        relations in 1usize..4,
        extra in 0usize..4,
        tuples in 1usize..30,
        k in 0usize..3,
        steps in 1usize..8,
    ) {
        let attributes = relations + extra;
        let k = k.min(attributes.saturating_sub(1));
        let (_, _, mut rep) = random_frep(seed, relations, attributes, tuples, k);
        let reference = materialize(&rep).expect("enumerate").tuple_set();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5151);

        for _ in 0..steps {
            let nodes = rep.tree().node_ids();
            let non_roots: Vec<_> =
                nodes.iter().copied().filter(|&n| rep.tree().parent(n).is_some()).collect();
            if non_roots.is_empty() {
                break;
            }
            let node = *non_roots.choose(&mut rng).expect("non-empty");
            if rng.gen_bool(0.5) {
                rep = run(&rep, FPlanOp::Swap(node)).expect("swap of a non-root always applies");
            } else if rep.tree().can_push_up(node) {
                rep = run(&rep, FPlanOp::PushUp(node)).expect("push-up applies when allowed");
            }
            rep.validate().expect("operators preserve the invariants");
            prop_assert_eq!(materialize(&rep).expect("enumerate").tuple_set(), reference.clone());
        }

        let size_before = rep.size();
        let rep = run(&rep, FPlanOp::Normalise).expect("normalisation succeeds");
        rep.validate().expect("normalisation preserves the invariants");
        prop_assert!(rep.tree().is_normalised());
        prop_assert!(rep.size() <= size_before, "normalisation never grows the representation");
        prop_assert_eq!(materialize(&rep).expect("enumerate").tuple_set(), reference);
    }

    /// Selection with a constant keeps exactly the tuples satisfying the
    /// comparison.
    #[test]
    fn select_const_matches_the_flat_filter(
        seed in 0u64..5_000,
        tuples in 1usize..30,
        constant in 1u64..7,
        op_choice in 0usize..6,
    ) {
        let (_, _, rep) = random_frep(seed, 2, 5, tuples, 1);
        let attrs = rep.visible_attrs();
        let attr = attrs[seed as usize % attrs.len()];
        let op = [
            ComparisonOp::Eq,
            ComparisonOp::Ne,
            ComparisonOp::Lt,
            ComparisonOp::Le,
            ComparisonOp::Gt,
            ComparisonOp::Ge,
        ][op_choice];
        let before = materialize(&rep).expect("enumerate");
        let col = before.col_index(attr).expect("attr present");
        let expected: BTreeSet<Vec<Value>> = before
            .rows()
            .filter(|row| op.eval(row[col], Value::new(constant)))
            .map(|r| r.to_vec())
            .collect();

        let value = Value::new(constant);
        let rep = run(&rep, FPlanOp::SelectConst { attr, op, value }).expect("selection succeeds");
        rep.validate().expect("selection preserves the invariants");
        prop_assert_eq!(materialize(&rep).expect("enumerate").tuple_set(), expected);
    }

    /// Projection keeps exactly the distinct projections of the tuples.
    #[test]
    fn project_matches_the_flat_projection(
        seed in 0u64..5_000,
        tuples in 1usize..30,
        keep_mask in 1u32..63,
    ) {
        let (_, _, rep) = random_frep(seed, 2, 5, tuples, 1);
        let attrs = rep.visible_attrs();
        let keep: BTreeSet<_> = attrs
            .iter()
            .copied()
            .enumerate()
            .filter(|(i, _)| keep_mask & (1 << (i % 6)) != 0)
            .map(|(_, a)| a)
            .collect();
        let before = materialize(&rep).expect("enumerate");
        let keep_vec: Vec<_> = keep.iter().copied().collect();
        let expected = before.project_distinct(&keep_vec).expect("projection").tuple_set();

        let rep = run(&rep, FPlanOp::Project(keep)).expect("projection succeeds");
        rep.validate().expect("projection preserves the invariants");
        prop_assert_eq!(rep.visible_attrs(), keep_vec);
        prop_assert_eq!(materialize(&rep).expect("enumerate").tuple_set(), expected);
    }

    /// Merging the roots of two independent factorisations computes their
    /// equi-join on the root attributes.
    #[test]
    fn merge_of_independent_inputs_is_a_join(
        seed in 0u64..5_000,
        tuples in 1usize..25,
    ) {
        // Two binary relations of the same catalog, each factorised on its
        // own (so their attribute sets are disjoint but live in one id space).
        let mut rng = StdRng::seed_from_u64(seed);
        let catalog = random_schema(&mut rng, 2, 4);
        let rels: Vec<RelId> = catalog.rels().collect();
        let db = populate(&mut rng, &catalog, tuples, 6, ValueDistribution::Uniform);
        let engine = FdbEngine::new();
        let left = engine
            .evaluate_flat(&db, &Query::product(vec![rels[0]]))
            .expect("left relation factorises")
            .result;
        let right = engine
            .evaluate_flat(&db, &Query::product(vec![rels[1]]))
            .expect("right relation factorises")
            .result;
        prop_assume!(!left.represents_empty() && !right.represents_empty());
        let left_attrs = left.visible_attrs();
        let right_attrs = right.visible_attrs();
        let product = ops::product(left.clone(), right.clone()).expect("disjoint attributes");

        // Join on the root attributes of the two inputs.
        let a = left.tree().roots()[0];
        let b = right.tree().roots()[0];
        let a_attr = *left.tree().class(a).iter().next().expect("non-empty class");
        let b_attr = *right.tree().class(b).iter().next().expect("non-empty class");

        let joined = product;
        let a_node = joined.tree().node_of_attr(a_attr).expect("present");
        let b_node = joined.tree().node_of_attr(b_attr).expect("present");
        prop_assume!(joined.tree().are_siblings(a_node, b_node));
        let joined = run(&joined, FPlanOp::Merge(a_node, b_node)).expect("merge of sibling roots");
        joined.validate().expect("merge preserves the invariants");

        // Reference: nested-loop join of the two flat relations.
        let flat_left = materialize(&left).expect("enumerate");
        let flat_right = materialize(&right).expect("enumerate");
        let la = flat_left.col_index(a_attr).expect("attr");
        let rb = flat_right.col_index(b_attr).expect("attr");
        let mut expected: BTreeSet<Vec<Value>> = BTreeSet::new();
        for lrow in flat_left.rows() {
            for rrow in flat_right.rows() {
                if lrow[la] == rrow[rb] {
                    // Canonical order: ascending attribute id over all attrs.
                    let mut tuple: Vec<(u32, Value)> = Vec::new();
                    for (i, &attr) in left_attrs.iter().enumerate() {
                        tuple.push((attr.0, lrow[i]));
                    }
                    for (i, &attr) in right_attrs.iter().enumerate() {
                        tuple.push((attr.0, rrow[i]));
                    }
                    tuple.sort_by_key(|&(a, _)| a);
                    expected.insert(tuple.into_iter().map(|(_, v)| v).collect());
                }
            }
        }
        prop_assert_eq!(materialize(&joined).expect("enumerate").tuple_set(), expected);
    }
}
