//! A pipeline of queries evaluated directly on factorised data.
//!
//! The paper's Experiments 2 and 4 show that factorised processing is
//! *sustainable*: results of queries are again factorised representations,
//! so follow-up queries run on the compact form without ever unfolding it.
//! This example builds the combinatorial dataset of Experiment 3, factorises
//! a first join, and then keeps applying follow-up equality selections on the
//! factorised result, reporting the chosen f-plan, its cost, and the result
//! size after every step — comparing the engine's exhaustive optimiser with
//! the greedy heuristic, whose plan the example runs by hand.
//!
//! ```bash
//! cargo run --release --example factorised_pipeline
//! ```

use fdb::common::{ExecCtx, RelId};
use fdb::datagen::{
    combinatorial_database, random_followup_equalities, random_query, ValueDistribution,
};
use fdb::engine::{FactorisedQuery, FdbEngine};
use fdb::frep::FRep;
use fdb::ftree::s_cost;
use fdb::plan::{FPlan, GreedyOptimizer};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

/// Prints one optimiser's line of a pipeline step.
fn report(name: &str, plan: &FPlan, plan_cost: f64, result: &FRep, times: [Duration; 2]) {
    let [optimise, execute] = times;
    println!(
        "  {name:>10}: plan {plan} | s(f) = {plan_cost:.1}, result cost = {:.1}, {} singletons, {} tuples, optimise {optimise:?}, execute {execute:?}",
        s_cost(result.tree()).expect("the result's f-tree is costed"),
        result.size(),
        result.tuple_count(),
    );
}

fn main() {
    let mut rng = StdRng::seed_from_u64(7);
    let db = combinatorial_database(&mut rng, ValueDistribution::Uniform);
    let catalog = db.catalog().clone();
    let relations: Vec<RelId> = catalog.rels().collect();

    // Step 0: factorise a first query with two equality conditions.
    let base_query = random_query(&mut rng, &catalog, &relations, 2);
    let engine = FdbEngine::new();
    let base = engine
        .evaluate_flat(&db, &base_query)
        .expect("base query evaluates");
    println!(
        "base query: K = {} equalities over {} relations",
        base_query.equalities.len(),
        relations.len()
    );
    println!(
        "  factorised result: {} singletons, {} tuples, f-tree cost {:.1}",
        base.stats.result_size,
        base.stats.result_tuples,
        s_cost(base.result.tree()).expect("the result's f-tree is costed")
    );

    // Steps 1..: follow-up equality selections, evaluated on the factorised
    // result of the previous step.
    let mut current = base.result;
    let mut accumulated_query = base_query;
    for step in 1..=3 {
        let follow = random_followup_equalities(&mut rng, &catalog, &accumulated_query, 1);
        let Some(&(a, b)) = follow.first() else {
            println!("no further non-redundant equalities exist — stopping");
            break;
        };
        for (x, y) in &follow {
            accumulated_query = accumulated_query.with_equality(*x, *y);
        }
        println!();
        println!(
            "step {step}: enforce {} = {} on the factorised input ({} singletons)",
            catalog.qualified_attr_name(a),
            catalog.qualified_attr_name(b),
            current.size()
        );

        let query = FactorisedQuery::equalities(vec![(a, b)]);
        let out = engine
            .evaluate_factorised(&current, &query)
            .expect("follow-up query evaluates");
        let times = [out.stats.optimisation_time, out.stats.execution_time];
        report(
            "exhaustive",
            &out.stats.plan,
            out.stats.plan_cost,
            &out.result,
            times,
        );

        // The greedy heuristic on the same input, planned and run by hand.
        let start = Instant::now();
        let greedy = GreedyOptimizer::new()
            .optimize(current.tree(), &query.equalities)
            .expect("follow-up query plans");
        let optimise = start.elapsed();
        let start = Instant::now();
        let result = greedy
            .plan
            .simplified(current.tree())
            .emit_presimplified_ctx(&current, &ExecCtx::unlimited())
            .expect("greedy plan executes");
        let times = [optimise, start.elapsed()];
        report(
            "greedy",
            &greedy.plan,
            greedy.cost.max_intermediate,
            &result,
            times,
        );

        // The exhaustive optimiser's result is the next input.
        current = out.result;
        if current.represents_empty() {
            println!("the result became empty — stopping the pipeline");
            break;
        }
    }

    println!();
    println!(
        "The factorisation quality does not decay along the pipeline: every intermediate\n\
         result stays compact and every follow-up query is answered on the factorised form."
    );
}
