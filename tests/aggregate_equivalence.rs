//! Aggregate equivalence: the aggregate fold, through both of its entry
//! points —
//!
//! 1. `fdb::frep::aggregate::evaluate_ctx`, the fold over an arena as it is,
//! 2. `ops::execute_fused_aggregate_ctx`, the fold over the fused overlay of
//!    a program, without emitting the final arena —
//!
//! and a **flat oracle** (materialise the tuples with the enumeration cursor
//! and aggregate with plain iterators) must agree **bit for bit** for every
//! aggregate kind, grouped and ungrouped, on randomized databases and on the
//! edge cases: empty results, singleton representations, all-equal-value
//! databases, and plans that empty the representation mid-segment.  The
//! equivalence table crosses every kind with leaf and inner filters, the
//! empty, a selection and a swap program, and scalar and grouped heads.
//! Structural plan steps preserve the represented relation, so the overlay
//! pass must also be invariant under random restructuring.  The numeric
//! edge cases (`SUM`/`COUNT` beyond `u64`, 128-bit wrapping, `AVG` of an
//! empty group, `MIN`/`MAX` of a one-entry union) pin down the semantics
//! documented on `fdb::frep::aggregate`.

mod common;

use fdb::common::{AggregateFunc, AggregateHead, AttrId, ComparisonOp, ExecCtx, RelId, Value};
use fdb::datagen::{
    populate, random_followup_equalities, random_query, random_schema, ValueDistribution,
};
use fdb::engine::{FactorisedQuery, FdbEngine};
use fdb::frep::aggregate::{self, AggregateKind, AggregateResult, AggregateValue, AvgValue};
use fdb::frep::ops::{self, FPlanOp};
use fdb::frep::{Entry, FRep, Union};
use fdb::ftree::{DepEdge, FTree, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

// ---------------------------------------------------------------------
// The flat oracle: enumerate tuples, aggregate with plain iterators
// ---------------------------------------------------------------------

/// The flat oracle: `aggregate::by_enumeration` materialises the tuples
/// with the constant-delay cursor and folds plain iterators — independent of
/// the one-pass arena/overlay evaluators under test.
fn flat_oracle(rep: &FRep, kind: AggregateKind, group_by: &[AttrId]) -> AggregateResult {
    aggregate::by_enumeration(rep, kind, group_by).expect("flat oracle evaluates")
}

/// The ungrouped aggregate over the arena.
fn scalar(rep: &FRep, kind: AggregateKind) -> fdb::Result<AggregateValue> {
    match aggregate::evaluate_ctx(rep, kind, &[], &ExecCtx::unlimited())? {
        AggregateResult::Scalar(value) => Ok(value),
        AggregateResult::Groups(_) => unreachable!("ungrouped evaluation returns a scalar"),
    }
}

/// Every aggregate kind applicable to the representation, plus every legal
/// (root-attribute) grouping including "ungrouped".
fn kinds_and_groups(rep: &FRep) -> (Vec<AggregateKind>, Vec<Vec<AttrId>>) {
    let mut kinds = vec![AggregateKind::Count];
    for attr in rep.visible_attrs() {
        kinds.extend([
            AggregateKind::Sum(attr),
            AggregateKind::Min(attr),
            AggregateKind::Max(attr),
            AggregateKind::Avg(attr),
        ]);
    }
    let groups: Vec<Vec<AttrId>> = std::iter::once(Vec::new())
        .chain(
            rep.tree()
                .roots()
                .iter()
                .flat_map(|&r| rep.tree().visible_attrs(r).into_iter().map(|a| vec![a])),
        )
        .collect();
    (kinds, groups)
}

/// Asserts both entry points of the fold (`evaluate_ctx` and the overlay
/// entry point on the empty program) and the flat oracle agree on `rep` for
/// every kind and grouping.
fn check_all_paths(rep: &FRep, context: &str) {
    let (kinds, groups) = kinds_and_groups(rep);
    for &kind in &kinds {
        for group in &groups {
            let arena = aggregate::evaluate_ctx(rep, kind, group, &ExecCtx::unlimited())
                .unwrap_or_else(|e| panic!("{context}: {kind}: evaluate_ctx failed: {e:?}"));
            let overlay =
                ops::execute_fused_aggregate_ctx(rep, &[], kind, group, &ExecCtx::unlimited())
                    .unwrap_or_else(|e| panic!("{context}: {kind}: overlay pass failed: {e:?}"));
            let oracle = flat_oracle(rep, kind, group);
            assert_eq!(
                arena, oracle,
                "{context}: {kind} group_by {group:?}: evaluate_ctx vs flat oracle"
            );
            assert_eq!(
                overlay, oracle,
                "{context}: {kind} group_by {group:?}: overlay pass vs flat oracle"
            );
        }
    }
}

/// A random run of fusable steps valid on the representation's tree,
/// generated by simulation (the same approach as `arena_equivalence.rs`).
/// With `selections`, constant selections are mixed in — they change no
/// tree shape (only constant markers), so simulation stays exact.
fn random_fusable_steps(
    rng: &mut StdRng,
    tree: &FTree,
    steps: usize,
    selections: bool,
) -> Vec<FPlanOp> {
    let mut cur = tree.clone();
    let mut ops_out: Vec<FPlanOp> = Vec::new();
    for _ in 0..steps {
        let nodes: Vec<NodeId> = cur.node_ids();
        let mut candidates: Vec<FPlanOp> = vec![FPlanOp::Normalise];
        for &n in &nodes {
            if cur.parent(n).is_some() {
                candidates.push(FPlanOp::Swap(n));
            }
            if cur.can_push_up(n) {
                candidates.push(FPlanOp::PushUp(n));
            }
        }
        for &x in &nodes {
            for &y in &nodes {
                if x != y && cur.are_siblings(x, y) {
                    candidates.push(FPlanOp::Merge(x, y));
                }
                if cur.is_ancestor(x, y) {
                    candidates.push(FPlanOp::Absorb(x, y));
                }
            }
        }
        if selections {
            let attrs: Vec<AttrId> = cur.all_attrs().into_iter().collect();
            if !attrs.is_empty() {
                // Over-weight selections so trailing-selection folds occur.
                for _ in 0..2 {
                    let attr = attrs[rng.gen_range(0..attrs.len())];
                    let op = [ComparisonOp::Ge, ComparisonOp::Ne, ComparisonOp::Le]
                        [rng.gen_range(0..3usize)];
                    candidates.push(FPlanOp::SelectConst {
                        attr,
                        op,
                        value: Value::new(rng.gen_range(0..8u64)),
                    });
                }
            }
        }
        let op = candidates[rng.gen_range(0..candidates.len())].clone();
        let applies = match &op {
            FPlanOp::PushUp(n) => cur.push_up(*n).is_ok(),
            FPlanOp::Normalise => {
                cur.normalise();
                true
            }
            FPlanOp::Swap(n) => cur.swap_with_parent(*n).is_ok(),
            FPlanOp::Merge(a, b) => cur.merge_siblings(*a, *b).is_ok(),
            FPlanOp::Absorb(a, b) => {
                let ok = cur.absorb_into_ancestor(*a, *b).is_ok();
                if ok {
                    cur.normalise();
                }
                ok
            }
            FPlanOp::SelectConst { attr, op, value } => match cur.node_of_attr(*attr) {
                Some(node) => {
                    if *op == ComparisonOp::Eq {
                        cur.bind_constant(node, *value).expect("node exists");
                    }
                    true
                }
                None => false,
            },
            FPlanOp::Project(_) => unreachable!("the generator emits no projections"),
        };
        if applies {
            ops_out.push(op);
        }
    }
    ops_out
}

/// Asserts that the overlay pass **after** a structural plan still matches
/// the oracle evaluated on the plan's emitted result — restructuring changes
/// the representation (merges/absorbs apply equality selections) but both
/// consumers must see the same relation.
fn check_overlay_after_plan(rep: &FRep, steps: &[FPlanOp], context: &str) {
    let mut emitted = rep.clone();
    ops::execute_fused_ctx(&mut emitted, steps, &ExecCtx::unlimited())
        .unwrap_or_else(|e| panic!("{context}: fused execution failed: {e:?}"));
    let (kinds, groups) = kinds_and_groups(&emitted);
    for &kind in &kinds {
        for group in &groups {
            let overlay =
                ops::execute_fused_aggregate_ctx(rep, steps, kind, group, &ExecCtx::unlimited())
                    .unwrap_or_else(|e| panic!("{context}: {kind}: overlay pass failed: {e:?}"));
            let oracle = flat_oracle(&emitted, kind, group);
            assert_eq!(
                overlay, oracle,
                "{context}: {kind} group_by {group:?}: overlay-after-plan vs oracle"
            );
        }
    }
}

// ---------------------------------------------------------------------
// Randomized suites
// ---------------------------------------------------------------------

#[test]
fn randomized_aggregates_agree_across_all_three_paths() {
    for seed in 0..24u64 {
        let mut rng = StdRng::seed_from_u64(0x00A4_4E90 ^ seed);
        let relations = 1 + (seed as usize % 3);
        let attributes = relations + 2 + (seed as usize % 3);
        let catalog = random_schema(&mut rng, relations, attributes);
        let rels: Vec<RelId> = catalog.rels().collect();
        let distribution = if seed % 2 == 0 {
            ValueDistribution::Uniform
        } else {
            ValueDistribution::Zipf(1.0)
        };
        let db = populate(&mut rng, &catalog, 25, 6, distribution);
        let k = (seed as usize) % attributes.min(3);
        let query = random_query(&mut rng, &catalog, &rels, k);
        let rep = FdbEngine::new()
            .evaluate_flat(&db, &query)
            .expect("FDB evaluates")
            .result;
        check_all_paths(&rep, &format!("seed {seed}"));

        // Overlay pass after random restructuring.
        let steps = random_fusable_steps(&mut rng, rep.tree(), 3, false);
        check_overlay_after_plan(&rep, &steps, &format!("seed {seed}, after plan"));
    }
}

#[test]
fn selection_folded_aggregates_match_the_flat_oracle() {
    // Programs mixing structural steps with constant selections: the sink
    // applies leading selections as overlay passes and folds the trailing
    // ones into the accumulation — both must agree with the flat-iterator
    // oracle over the program's emitted result, for every kind and
    // grouping.
    for seed in 0..16u64 {
        let mut rng = StdRng::seed_from_u64(0x00A5_5E90 ^ seed);
        let relations = 1 + (seed as usize % 3);
        let attributes = relations + 2 + (seed as usize % 3);
        let catalog = random_schema(&mut rng, relations, attributes);
        let rels: Vec<RelId> = catalog.rels().collect();
        let db = populate(&mut rng, &catalog, 25, 6, ValueDistribution::Uniform);
        let query = random_query(
            &mut rng,
            &catalog,
            &rels,
            (seed as usize) % attributes.min(3),
        );
        let rep = FdbEngine::new()
            .evaluate_flat(&db, &query)
            .expect("FDB evaluates")
            .result;

        // Mixed program with selections anywhere.
        let steps = random_fusable_steps(&mut rng, rep.tree(), 4, true);
        check_overlay_after_plan(&rep, &steps, &format!("seed {seed}, mixed selections"));

        // Force a trailing-selection suffix so the filter fold always runs.
        let mut with_suffix = steps.clone();
        let attrs: Vec<AttrId> = rep.visible_attrs();
        if let Some(&attr) = attrs.first() {
            with_suffix.push(FPlanOp::SelectConst {
                attr,
                op: ComparisonOp::Ge,
                value: Value::new(rng.gen_range(0..6u64)),
            });
            with_suffix.push(FPlanOp::SelectConst {
                attr: attrs[attrs.len() - 1],
                op: ComparisonOp::Ne,
                value: Value::new(rng.gen_range(0..6u64)),
            });
            // Only valid if the attributes survived the structural steps.
            let mut probe = rep.clone();
            if ops::execute_fused_ctx(&mut probe, &with_suffix, &ExecCtx::unlimited()).is_ok() {
                check_overlay_after_plan(
                    &rep,
                    &with_suffix,
                    &format!("seed {seed}, trailing selections"),
                );
            }
        }

        // An unsatisfiable trailing selection: the filtered fold must see
        // the empty relation.
        if let Some(&attr) = attrs.first() {
            let emptying = vec![FPlanOp::SelectConst {
                attr,
                op: ComparisonOp::Gt,
                value: Value::new(u64::MAX / 2),
            }];
            check_overlay_after_plan(&rep, &emptying, &format!("seed {seed}, emptied"));
        }
    }
}

#[test]
fn randomized_engine_aggregates_match_the_materialised_result() {
    // End to end: an aggregate head through `FdbEngine::run` (overlay sink) against the
    // flat oracle over the full `evaluate_factorised` result.
    let engine = FdbEngine::new();
    for seed in 0..12u64 {
        let mut rng = StdRng::seed_from_u64(0x00A4_4E91 ^ seed);
        let relations = 1 + (seed as usize % 3);
        let attributes = relations + 2 + (seed as usize % 3);
        let catalog = random_schema(&mut rng, relations, attributes);
        let rels: Vec<RelId> = catalog.rels().collect();
        let db = populate(&mut rng, &catalog, 25, 6, ValueDistribution::Uniform);
        let query = random_query(&mut rng, &catalog, &rels, (seed as usize) % 2);
        let Ok(base) = engine.evaluate_flat(&db, &query) else {
            continue;
        };
        let follow = random_followup_equalities(&mut rng, &catalog, &query, 1);
        if follow.is_empty() {
            continue;
        }
        let fq = FactorisedQuery::equalities(follow);
        let Ok(full) = engine.evaluate_factorised(&base.result, &fq) else {
            continue;
        };
        for attr in full.result.visible_attrs() {
            for func in [
                AggregateFunc::Count,
                AggregateFunc::Sum,
                AggregateFunc::Min,
                AggregateFunc::Max,
                AggregateFunc::Avg,
            ] {
                let head = AggregateHead::over(func, attr);
                let kind = match func {
                    AggregateFunc::Count => AggregateKind::Count,
                    AggregateFunc::Sum => AggregateKind::Sum(attr),
                    AggregateFunc::Min => AggregateKind::Min(attr),
                    AggregateFunc::Max => AggregateKind::Max(attr),
                    AggregateFunc::Avg => AggregateKind::Avg(attr),
                };
                let out = common::aggregate_serial(&engine, &base.result, &fq, &head)
                    .expect("aggregate evaluation succeeds");
                assert_eq!(
                    out.result,
                    flat_oracle(&full.result, kind, &[]),
                    "seed {seed}: {kind} via the engine vs oracle"
                );
            }
        }
        let count = common::aggregate_serial(&engine, &base.result, &fq, &AggregateHead::count())
            .expect("count evaluates");
        assert_eq!(
            count.result,
            AggregateResult::Scalar(AggregateValue::Count(full.stats.result_tuples)),
            "seed {seed}: COUNT via the engine"
        );
    }
}

// ---------------------------------------------------------------------
// Edge-case representations
// ---------------------------------------------------------------------

fn attr_set(ids: &[u32]) -> BTreeSet<AttrId> {
    ids.iter().map(|&i| AttrId(i)).collect()
}

/// A{0} → B{1} → C{2} chain with exactly one entry per union.
fn singleton_chain() -> FRep {
    let edges = vec![
        DepEdge::new("RAB", attr_set(&[0, 1]), 1),
        DepEdge::new("RBC", attr_set(&[1, 2]), 1),
    ];
    let mut tree = FTree::new(edges);
    let a = tree.add_node(attr_set(&[0]), None).unwrap();
    let b = tree.add_node(attr_set(&[1]), Some(a)).unwrap();
    let c = tree.add_node(attr_set(&[2]), Some(b)).unwrap();
    FRep::from_parts(
        tree,
        vec![Union::new(
            a,
            vec![Entry {
                value: Value::new(7),
                children: vec![Union::new(
                    b,
                    vec![Entry {
                        value: Value::new(8),
                        children: vec![Union::new(c, vec![Entry::leaf(Value::new(9))])],
                    }],
                )],
            }],
        )],
    )
    .unwrap()
}

#[test]
fn edge_case_representations_agree_across_all_three_paths() {
    let mut rng = StdRng::seed_from_u64(0x00A4_4E92);

    // Singleton: MIN and MAX over one-entry unions both return the value.
    let singleton = singleton_chain();
    check_all_paths(&singleton, "singleton chain");
    assert_eq!(
        scalar(&singleton, AggregateKind::Min(AttrId(1))).unwrap(),
        AggregateValue::Min(Some(Value::new(8)))
    );
    assert_eq!(
        scalar(&singleton, AggregateKind::Max(AttrId(1))).unwrap(),
        AggregateValue::Max(Some(Value::new(8)))
    );

    // Empty result: COUNT/SUM are 0, MIN/MAX/AVG are None on all paths.
    let mut empty = singleton.clone();
    ops::select_const(&mut empty, AttrId(0), ComparisonOp::Eq, Value::new(99)).unwrap();
    assert!(empty.represents_empty());
    check_all_paths(&empty, "empty representation");
    assert_eq!(
        scalar(&empty, AggregateKind::Avg(AttrId(0))).unwrap(),
        AggregateValue::Avg(None),
        "AVG of an empty group is None"
    );

    // All-equal values: every column of every tuple holds the same value.
    let catalog = random_schema(&mut rng, 2, 4);
    let rels: Vec<RelId> = catalog.rels().collect();
    let db = populate(&mut rng, &catalog, 20, 1, ValueDistribution::Uniform);
    let query = random_query(&mut rng, &catalog, &rels, 1);
    let rep = FdbEngine::new()
        .evaluate_flat(&db, &query)
        .expect("FDB evaluates")
        .result;
    check_all_paths(&rep, "all-equal-values database");

    // Mid-plan emptying: a merge over disjoint value sets empties the
    // representation inside the overlay segment.
    let side = |root_attr: u32, child_attr: u32, name: &str, v: u64| {
        let edges = vec![DepEdge::new(name, attr_set(&[root_attr, child_attr]), 1)];
        let mut tree = FTree::new(edges);
        let root = tree.add_node(attr_set(&[root_attr]), None).unwrap();
        let child = tree.add_node(attr_set(&[child_attr]), Some(root)).unwrap();
        FRep::from_parts(
            tree,
            vec![Union::new(
                root,
                vec![Entry {
                    value: Value::new(v),
                    children: vec![Union::new(child, vec![Entry::leaf(Value::new(v * 10))])],
                }],
            )],
        )
        .unwrap()
    };
    let product = ops::product(side(0, 1, "R", 1), side(2, 3, "S", 2)).unwrap();
    let a = product.tree().node_of_attr(AttrId(0)).unwrap();
    let b = product.tree().node_of_attr(AttrId(2)).unwrap();
    check_overlay_after_plan(&product, &[FPlanOp::Merge(a, b)], "merge to empty mid-plan");
}

// ---------------------------------------------------------------------
// Numeric semantics: widening beyond u64 and 128-bit wrapping
// ---------------------------------------------------------------------

#[test]
fn sum_and_count_widen_past_u64_and_wrap_mod_2_pow_128() {
    // 5 independent roots of 2^16 entries: 2^80 tuples — far beyond u64 —
    // yet the aggregate pass touches 5·2^16 entries.
    const WIDTH: u64 = 1 << 16;
    let edges: Vec<DepEdge> = (0..5)
        .map(|i| DepEdge::new(format!("U{i}"), attr_set(&[i]), WIDTH))
        .collect();
    let mut tree = FTree::new(edges);
    let mut roots = Vec::new();
    for i in 0..5 {
        let node = tree.add_node(attr_set(&[i]), None).unwrap();
        roots.push(Union::new(
            node,
            (0..WIDTH).map(|v| Entry::leaf(Value::new(v))).collect(),
        ));
    }
    let rep = FRep::from_parts(tree, roots).unwrap();

    let count = 1u128 << 80;
    assert_eq!(rep.tuple_count(), count);
    assert_eq!(
        scalar(&rep, AggregateKind::Count).unwrap(),
        AggregateValue::Count(count),
        "COUNT is exact past u64 (the fold computes in u128)"
    );
    // Each value of root 0 occurs (2^16)^4 = 2^64 times:
    // SUM = (2^16·(2^16−1)/2) · 2^64 — exact in u128.
    let per_root_sum = (WIDTH as u128) * (WIDTH as u128 - 1) / 2;
    let expected = per_root_sum * (1u128 << 64);
    assert_eq!(
        scalar(&rep, AggregateKind::Sum(AttrId(0))).unwrap(),
        AggregateValue::Sum(expected),
        "SUM widens into u128 while the multiplicity exceeds u64"
    );
    // AVG carries the exact pair.
    assert_eq!(
        scalar(&rep, AggregateKind::Avg(AttrId(0))).unwrap(),
        AggregateValue::Avg(Some(AvgValue {
            sum: expected,
            count,
        }))
    );

    // Add a sixth root holding one near-maximal value: its SUM contribution
    // is (2^64−1)·2^80, which exceeds u128 and must wrap modulo 2^128 —
    // deterministically, matching a tuple-at-a-time wrapping_add oracle.
    let edges: Vec<DepEdge> = (0..5)
        .map(|i| DepEdge::new(format!("U{i}"), attr_set(&[i]), WIDTH))
        .chain(std::iter::once(DepEdge::new("X", attr_set(&[9]), 1)))
        .collect();
    let mut tree = FTree::new(edges);
    let mut roots = Vec::new();
    for i in 0..5 {
        let node = tree.add_node(attr_set(&[i]), None).unwrap();
        roots.push(Union::new(
            node,
            (0..WIDTH).map(|v| Entry::leaf(Value::new(v))).collect(),
        ));
    }
    let x = tree.add_node(attr_set(&[9]), None).unwrap();
    roots.push(Union::new(x, vec![Entry::leaf(Value::new(u64::MAX))]));
    let rep = FRep::from_parts(tree, roots).unwrap();
    let expected = (u64::MAX as u128).wrapping_mul(1u128 << 80);
    assert_eq!(
        scalar(&rep, AggregateKind::Sum(AttrId(9))).unwrap(),
        AggregateValue::Sum(expected),
        "SUM wraps modulo 2^128 exactly as documented"
    );
    // MIN/MAX stay exact regardless of the wrapping count.
    assert_eq!(
        scalar(&rep, AggregateKind::Max(AttrId(9))).unwrap(),
        AggregateValue::Max(Some(Value::new(u64::MAX)))
    );
    // The overlay path wraps identically.
    assert_eq!(
        ops::execute_fused_aggregate_ctx(
            &rep,
            &[],
            AggregateKind::Sum(AttrId(9)),
            &[],
            &ExecCtx::unlimited()
        )
        .unwrap(),
        AggregateResult::Scalar(AggregateValue::Sum(expected))
    );
}

// ---------------------------------------------------------------------
// The equivalence table: every kind × filter × program × head
// ---------------------------------------------------------------------

/// `A{0} → (B{1} → (C{2}, D{3}), E{4})`, with `C` and `D` functions of `B`
/// and `E` of `A`, so swapping `B` over `A` is exact and shares every `E`
/// leaf between the regrouped entries.  Every `D` leaf holds `u64::MAX`.
/// `extra` independent two-entry roots multiply every multiplicity by
/// `2^extra`.
fn table_shape(extra: u32) -> FRep {
    let mut edges = vec![
        DepEdge::new("RAB", attr_set(&[0, 1]), 18),
        DepEdge::new("RBC", attr_set(&[1, 2]), 8),
        DepEdge::new("RBD", attr_set(&[1, 3]), 24),
        DepEdge::new("RAE", attr_set(&[0, 4]), 12),
    ];
    edges.extend((0..extra).map(|i| DepEdge::new(format!("X{i}"), attr_set(&[10 + i]), 2)));
    let mut tree = FTree::new(edges);
    let a = tree.add_node(attr_set(&[0]), None).unwrap();
    let b = tree.add_node(attr_set(&[1]), Some(a)).unwrap();
    let c = tree.add_node(attr_set(&[2]), Some(b)).unwrap();
    let d = tree.add_node(attr_set(&[3]), Some(b)).unwrap();
    let e = tree.add_node(attr_set(&[4]), Some(a)).unwrap();
    let leaf = |node, values: &[u64]| {
        Union::new(
            node,
            values.iter().map(|&v| Entry::leaf(Value::new(v))).collect(),
        )
    };
    let b_entry = |bv: u64| Entry {
        value: Value::new(bv),
        children: vec![
            leaf(c, &[bv % 2]),
            leaf(d, &[bv % 5, u64::MAX - 1 - bv % 2, u64::MAX]),
        ],
    };
    let a_entry = |av: u64| Entry {
        value: Value::new(av),
        children: vec![
            Union::new(b, (av..av + 3).map(b_entry).collect()),
            leaf(e, &[av % 3, 7]),
        ],
    };
    let mut roots = vec![Union::new(a, (0..6).map(a_entry).collect())];
    for i in 0..extra {
        let x = tree.add_node(attr_set(&[10 + i]), None).unwrap();
        roots.push(leaf(x, &[1, 2]));
    }
    FRep::from_parts(tree, roots).unwrap()
}

/// The aggregate of a program's result, through the entry point the engine
/// uses for it: the arena fold for the empty program, the overlay fold
/// otherwise.
fn fold(
    rep: &FRep,
    program: &[FPlanOp],
    kind: AggregateKind,
    group_by: &[AttrId],
) -> fdb::Result<AggregateResult> {
    let ctx = ExecCtx::unlimited();
    match program {
        [] => aggregate::evaluate_ctx(rep, kind, group_by, &ctx),
        _ => ops::execute_fused_aggregate_ctx(rep, program, kind, group_by, &ctx),
    }
}

/// The aggregate over `2^64` copies of every tuple: `COUNT` and `SUM`
/// multiplied modulo `2^128`, `None` where `AVG` must report the wrap;
/// `MIN`, `MAX` and the `DISTINCT` kinds see the same values.
fn times_2_pow_64(result: AggregateResult, kind: AggregateKind) -> Option<AggregateResult> {
    let scale = |value| match value {
        _ if kind.is_distinct() => Some(value),
        AggregateValue::Count(n) => Some(AggregateValue::Count(n << 64)),
        AggregateValue::Sum(s) => Some(AggregateValue::Sum(s << 64)),
        AggregateValue::Avg(Some(AvgValue { sum, count })) => (sum >> 64 == 0 && count >> 64 == 0)
            .then_some(AggregateValue::Avg(Some(AvgValue {
                sum: sum << 64,
                count: count << 64,
            }))),
        _ => Some(value),
    };
    match result {
        AggregateResult::Scalar(value) => scale(value).map(AggregateResult::Scalar),
        AggregateResult::Groups(rows) => rows
            .into_iter()
            .map(|(key, value)| Some((key, scale(value)?)))
            .collect::<Option<_>>()
            .map(AggregateResult::Groups),
    }
}

#[test]
fn every_kind_agrees_with_enumeration_across_filters_programs_and_heads() {
    let sel = |attr, op, value| FPlanOp::SelectConst {
        attr: AttrId(attr),
        op,
        value: Value::new(value),
    };
    let leaf_filter = sel(3, ComparisonOp::Ne, u64::MAX - 1);
    let inner_filter = sel(1, ComparisonOp::Ge, 3);
    let filters = [
        ("no filter", vec![]),
        ("leaf filter", vec![leaf_filter.clone()]),
        ("inner filter", vec![inner_filter.clone()]),
        ("both filters", vec![inner_filter, leaf_filter]),
    ];
    let programs = [
        ("empty program", vec![], [AttrId(0), AttrId(1)]),
        (
            "selection program",
            vec![sel(0, ComparisonOp::Le, 4)],
            [AttrId(0), AttrId(1)],
        ),
        (
            "swap program",
            vec![FPlanOp::Swap(NodeId(1))],
            [AttrId(1), AttrId(0)],
        ),
    ];
    let mut kinds = vec![AggregateKind::Count];
    for attr in [AttrId(1), AttrId(3)] {
        kinds.extend([
            AggregateKind::Sum(attr),
            AggregateKind::Min(attr),
            AggregateKind::Max(attr),
            AggregateKind::Avg(attr),
            AggregateKind::CountDistinct(attr),
            AggregateKind::SumDistinct(attr),
            AggregateKind::AvgDistinct(attr),
        ]);
    }
    let (small, wide) = (table_shape(0), table_shape(64));
    let mut overflows = 0;
    for (filter_name, filter) in &filters {
        for (program_name, program, chain) in &programs {
            // The filter is the program's trailing selections.
            let program = [program.as_slice(), filter].concat();
            let mut emitted = small.clone();
            ops::execute_fused_ctx(&mut emitted, &program, &ExecCtx::unlimited()).unwrap();
            for group_by in [&[][..], &chain[..]] {
                for &kind in &kinds {
                    let context = format!("{kind} by {group_by:?}, {program_name}, {filter_name}");
                    let expected = flat_oracle(&emitted, kind, group_by);
                    assert_eq!(
                        fold(&small, &program, kind, group_by),
                        Ok(expected.clone()),
                        "{context}"
                    );
                    let wide_result = fold(&wide, &program, kind, group_by);
                    match times_2_pow_64(expected, kind) {
                        Some(scaled) => assert_eq!(wide_result, Ok(scaled), "{context}, ×2^64"),
                        None => {
                            overflows += 1;
                            assert!(
                                matches!(wide_result, Err(fdb::FdbError::AggregateOverflow { .. })),
                                "{context}, ×2^64: {wide_result:?}"
                            );
                        }
                    }
                }
            }
        }
    }
    assert!(overflows > 0, "some AVG over the u64::MAX leaf wraps");
}
