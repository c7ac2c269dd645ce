//! The paper's running example (Examples 1 and 2): the grocery retailer.
//!
//! Builds the factorised results of Q1 and Q2 of the paper, restructures the
//! Q1 factorisation from the f-tree T1 to T2 with a swap, and evaluates the
//! follow-up join Q1 ⋈_{item, location} Q2 directly on the factorised
//! results — the sequence of steps walked through in Section 1.
//!
//! ```bash
//! cargo run --release --example grocery_retailer
//! ```

use fdb::common::ExecCtx;
use fdb::datagen::grocery::{grocery_database, DISPATCHERS, ITEMS, LOCATIONS, SUPPLIERS};
use fdb::engine::{FactorisedQuery, FdbEngine};
use fdb::frep::materialize;
use fdb::frep::ops::{self, FPlanOp};
use fdb::ftree::s_cost;

fn main() {
    let grocery = grocery_database();
    let cat = grocery.catalog().clone();
    let engine = FdbEngine::new();

    // Pretty-printing helpers that translate encoded integers back to names.
    let attr_name = |a| cat.qualified_attr_name(a);

    println!("=== Q1: Orders ⋈ item Store ⋈ location Disp ===");
    let q1 = engine
        .evaluate_flat(&grocery.db, &grocery.q1())
        .expect("Q1 evaluates");
    println!("optimal f-tree (cost s = {:.0}):", q1.stats.plan_cost);
    print!("{}", q1.result.tree().render(attr_name));
    println!(
        "factorised size: {} singletons for {} tuples (flat size {} data elements)",
        q1.stats.result_size,
        q1.stats.result_tuples,
        q1.stats.result_tuples * 4
    );
    println!();
    println!("factorisation over T1 (values decoded):");
    print!("{}", q1.result.render(attr_name));

    // Restructure: group by location first (T1 → T2 via a swap), as in
    // Example 1's second factorisation.
    println!();
    println!("=== Restructuring Q1 from T1 to T2 (swap item ↔ location) ===");
    let location_node = q1
        .result
        .tree()
        .node_of_attr(grocery.attr("Store.location"))
        .expect("location labels a node");
    let swap = [FPlanOp::Swap(location_node)];
    let regrouped =
        ops::emit_fused_ctx(&q1.result, &swap, &ExecCtx::unlimited()).expect("swap is valid");
    print!("{}", regrouped.tree().render(attr_name));
    println!("size after regrouping: {} singletons", regrouped.size());

    println!();
    println!("=== Q2: Produce ⋈ supplier Serve ===");
    let q2 = engine
        .evaluate_flat(&grocery.db, &grocery.q2())
        .expect("Q2 evaluates");
    println!("optimal f-tree (cost s = {:.0}):", q2.stats.plan_cost);
    print!("{}", q2.result.tree().render(attr_name));
    println!("factorisation over T3:");
    print!("{}", q2.result.render(attr_name));

    // Example 2: join the two factorised results on item and location.
    println!();
    println!("=== Q1 ⋈ item,location Q2 on factorised inputs (Example 2) ===");
    let product =
        ops::product(q1.result.clone(), q2.result.clone()).expect("attribute sets are disjoint");
    let follow_up = FactorisedQuery::equalities(vec![
        (grocery.attr("Orders.item"), grocery.attr("Produce.item")),
        (
            grocery.attr("Store.location"),
            grocery.attr("Serve.location"),
        ),
    ]);
    let joined = engine
        .evaluate_factorised(&product, &follow_up)
        .expect("join evaluates");
    println!("chosen f-plan: {}", joined.stats.plan);
    println!(
        "plan cost s(f) = {:.0}, result f-tree cost = {:.0}",
        joined.stats.plan_cost,
        s_cost(joined.result.tree()).expect("the result's f-tree is costed")
    );
    println!("result f-tree (T6 of Figure 2):");
    print!("{}", joined.result.tree().render(attr_name));
    println!(
        "result: {} singletons representing {} tuples",
        joined.stats.result_size, joined.stats.result_tuples
    );

    // Decode and print a handful of result tuples.
    let flat = materialize(&joined.result).expect("enumeration succeeds");
    let attrs = joined.result.visible_attrs();
    println!();
    println!("first result tuples (decoded):");
    for row in flat.rows().take(5) {
        let rendered: Vec<String> = attrs
            .iter()
            .zip(row)
            .map(|(&a, v)| {
                let name = cat.attr_name(a);
                let idx = (v.raw() as usize).saturating_sub(1);
                let decoded = match name {
                    "item" => ITEMS.get(idx).copied().unwrap_or("?"),
                    "location" => LOCATIONS.get(idx).copied().unwrap_or("?"),
                    "dispatcher" => DISPATCHERS.get(idx).copied().unwrap_or("?"),
                    "supplier" => SUPPLIERS.get(idx).copied().unwrap_or("?"),
                    _ => return format!("{}={}", cat.qualified_attr_name(a), v),
                };
                format!("{}={}", cat.qualified_attr_name(a), decoded)
            })
            .collect();
        println!("  ({})", rendered.join(", "));
    }
}
