//! End-to-end reproduction of the paper's running example (Examples 1–10 use
//! the grocery retailer database of Figure 1).

use fdb::common::{ExecCtx, Value};
use fdb::datagen::grocery_database;
use fdb::engine::{FactorisedQuery, FdbEngine};
use fdb::frep::materialize;
use fdb::frep::ops::{self, FPlanOp};
use fdb::ftree::s_cost;
use fdb::plan::optimal_ftree;
use fdb::relation::RdbEngine;

/// Example 1: the factorised result of Q1 has the 18 tuples listed in the
/// paper and a much smaller factorised encoding.
#[test]
fn example1_q1_factorises() {
    let g = grocery_database();
    let engine = FdbEngine::new();
    let out = engine.evaluate_flat(&g.db, &g.q1()).unwrap();
    out.result.validate().unwrap();

    let flat = RdbEngine::new().evaluate(&g.db, &g.q1()).unwrap();
    assert_eq!(out.stats.result_tuples, flat.len() as u128);
    // The factorisation needs fewer singletons than the flat representation
    // has data elements.
    assert!(out.stats.result_size < flat.data_element_count());
    // Example 5: no f-tree of Q1 beats cost 2.
    assert!((out.stats.plan_cost - 2.0).abs() < 1e-6);
}

/// Example 1 / Example 4: Q2 groups by supplier with cost 1, and its
/// factorisation has exactly the shape of T3 (supplier on top, item and
/// location below).
#[test]
fn example1_q2_has_cost_one_tree() {
    let g = grocery_database();
    let out = FdbEngine::new().evaluate_flat(&g.db, &g.q2()).unwrap();
    assert!((out.stats.plan_cost - 1.0).abs() < 1e-6);
    let tree = out.result.tree();
    let supplier = tree.node_of_attr(g.attr("Produce.supplier")).unwrap();
    assert!(tree.parent(supplier).is_none());
    assert_eq!(tree.children(supplier).len(), 2);
    // Q2 has 6 result tuples (Guney×2, Dikici×3, Byzantium×1).
    assert_eq!(out.stats.result_tuples, 6);
    // The factorisation of Example 1 over T3 reads
    //   ⟨Guney⟩×(⟨Milk⟩∪⟨Cheese⟩)×⟨Antalya⟩ ∪ ⟨Dikici⟩×⟨Milk⟩×(⟨Ist⟩∪⟨Izm⟩∪⟨Ant⟩)
    //   ∪ ⟨Byzantium⟩×⟨Melon⟩×⟨Istanbul⟩
    // i.e. 12 singletons in the paper's compact notation where the supplier
    // class is written once.  Definition 2 spells the class out as
    // ⟨Produce.supplier:s⟩×⟨Serve.supplier:s⟩, adding one singleton per
    // supplier value, hence 15 here.
    assert_eq!(out.stats.result_size, 15);
}

/// Example 8: swapping item and location regroups the Q1 factorisation from
/// T1 to T2 without changing the represented relation.
#[test]
fn example8_swap_regroups_by_location() {
    let g = grocery_database();
    let out = FdbEngine::new().evaluate_flat(&g.db, &g.q1()).unwrap();
    let mut rep = out.result;
    let before = materialize(&rep).unwrap().tuple_set();
    let location = rep.tree().node_of_attr(g.attr("Store.location")).unwrap();
    // Swap location upwards until it becomes the root (the optimiser is free
    // to return any minimum-cost tree, so location may start several levels
    // down); every intermediate representation must stay equivalent.
    let mut guard = 0;
    while rep.tree().parent(location).is_some() {
        rep = ops::emit_fused_ctx(&rep, &[FPlanOp::Swap(location)], &ExecCtx::unlimited()).unwrap();
        rep.validate().unwrap();
        assert_eq!(materialize(&rep).unwrap().tuple_set(), before);
        guard += 1;
        assert!(guard <= 10, "swapping to the root must terminate");
    }
    // The location class is now a root, i.e. the factorisation is grouped by
    // location first, as in the T2 factorisation of Example 1.
    assert!(rep.tree().parent(location).is_none());
}

/// Example 2 / Example 9: joining the factorised results of Q1 and Q2 on
/// item and location gives the same relation as the flat five-way join, and
/// the chosen f-plan restructures rather than unfolds.
#[test]
fn example2_join_of_factorised_results() {
    let g = grocery_database();
    let engine = FdbEngine::new();
    let r1 = engine.evaluate_flat(&g.db, &g.q1()).unwrap();
    let r2 = engine.evaluate_flat(&g.db, &g.q2()).unwrap();
    let product = ops::product(r1.result, r2.result).unwrap();
    let fq = FactorisedQuery::equalities(vec![
        (g.attr("Orders.item"), g.attr("Produce.item")),
        (g.attr("Store.location"), g.attr("Serve.location")),
    ]);
    let joined = engine.evaluate_factorised(&product, &fq).unwrap();
    joined.result.validate().unwrap();

    let full = g
        .q1()
        .with_equality(g.attr("Produce.supplier"), g.attr("Serve.supplier"))
        .with_equality(g.attr("Orders.item"), g.attr("Produce.item"))
        .with_equality(g.attr("Store.location"), g.attr("Serve.location"));
    let mut full = full;
    full.relations.push(g.produce);
    full.relations.push(g.serve);
    let flat = RdbEngine::new().evaluate(&g.db, &full).unwrap();
    let mut attrs = flat.attrs().to_vec();
    attrs.sort_unstable();
    assert_eq!(
        materialize(&joined.result).unwrap().tuple_set(),
        flat.reorder_columns(&attrs).unwrap().tuple_set()
    );
    // The result's f-tree satisfies the path constraint and is reasonably
    // factorised (cost ≤ 2, as for T6 in the paper).
    assert!(s_cost(joined.result.tree()).unwrap() <= 2.0 + 1e-6);
}

/// A selection with a constant on the factorised Q1 result: items other than
/// Cheese disappear and the item node becomes constant-bound (it no longer
/// contributes to the cost).
#[test]
fn constant_selection_on_factorised_q1() {
    let g = grocery_database();
    let engine = FdbEngine::new();
    let base = engine.evaluate_flat(&g.db, &g.q1()).unwrap();
    let cheese = FPlanOp::SelectConst {
        attr: g.attr("Orders.item"),
        op: fdb::common::ComparisonOp::Eq,
        value: Value::new(2), // Cheese
    };
    let rep = ops::emit_fused_ctx(&base.result, &[cheese], &ExecCtx::unlimited()).unwrap();
    rep.validate().unwrap();
    let flat = materialize(&rep).unwrap();
    let col = flat.col_index(g.attr("Orders.item")).unwrap();
    assert!(flat.rows().all(|r| r[col] == Value::new(2)));
    assert!(s_cost(rep.tree()).unwrap() <= 2.0 + 1e-6);
}

/// The optimal f-tree search reports the costs of Example 5 directly from
/// the query structure (no data needed).
#[test]
fn example5_costs_from_the_optimiser() {
    let g = grocery_database();
    let q1 = optimal_ftree(g.catalog(), &g.q1(), |_| 1).unwrap();
    let q2 = optimal_ftree(g.catalog(), &g.q2(), |_| 1).unwrap();
    assert!((q1.cost - 2.0).abs() < 1e-6);
    assert!((q2.cost - 1.0).abs() < 1e-6);
}
