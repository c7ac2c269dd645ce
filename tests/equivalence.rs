//! Cross-engine equivalence: the factorised engine (FDB) and the flat
//! relational baseline (RDB) must represent exactly the same query results,
//! on randomly generated databases and queries.

use fdb::common::{ExecCtx, Query, RelId, Value};
use fdb::datagen::{populate, random_query, random_schema, ValueDistribution};
use fdb::engine::FdbEngine;
use fdb::frep::materialize;
use fdb::plan::GreedyOptimizer;
use fdb::relation::{Database, RdbEngine};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeSet;

/// Canonical (attribute-sorted) set of result tuples from the RDB engine.
fn rdb_tuples(db: &Database, query: &Query) -> BTreeSet<Vec<Value>> {
    let result = RdbEngine::new().evaluate(db, query).expect("RDB evaluates");
    let mut attrs = result.attrs().to_vec();
    attrs.sort_unstable();
    result
        .reorder_columns(&attrs)
        .expect("same attributes")
        .tuple_set()
}

/// Generates a random database and query from a seed, small enough for the
/// flat baseline to enumerate comfortably.
fn scenario(
    seed: u64,
    relations: usize,
    attributes: usize,
    tuples: usize,
    domain: u64,
    k: usize,
) -> (Database, Query) {
    let mut rng = StdRng::seed_from_u64(seed);
    let catalog = random_schema(&mut rng, relations, attributes);
    let rels: Vec<RelId> = catalog.rels().collect();
    let distribution = if seed.is_multiple_of(2) {
        ValueDistribution::Uniform
    } else {
        ValueDistribution::Zipf(1.0)
    };
    let db = populate(&mut rng, &catalog, tuples, domain, distribution);
    let query = random_query(&mut rng, &catalog, &rels, k);
    (db, query)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, .. ProptestConfig::default() })]

    /// The factorised result enumerates exactly the tuples of the flat join.
    #[test]
    fn fdb_flat_evaluation_matches_rdb(
        seed in 0u64..10_000,
        relations in 1usize..4,
        extra_attrs in 0usize..5,
        tuples in 1usize..60,
        domain in 2u64..12,
        k in 0usize..4,
    ) {
        let attributes = relations + extra_attrs;
        let k = k.min(attributes.saturating_sub(1));
        let (db, query) = scenario(seed, relations, attributes, tuples, domain, k);
        let out = FdbEngine::new().evaluate_flat(&db, &query).expect("FDB evaluates");
        out.result.validate().expect("valid representation");
        let fdb_tuples = materialize(&out.result).expect("enumeration works").tuple_set();
        prop_assert_eq!(fdb_tuples, rdb_tuples(&db, &query));
        // The declared tuple count matches the enumeration.
        prop_assert_eq!(out.stats.result_tuples as usize, out.result.tuple_count() as usize);
    }

    /// The operator-only evaluation pipeline (load relations as trivially
    /// factorised inputs, run an f-plan) agrees with the direct construction.
    #[test]
    fn operator_pipeline_matches_direct_construction(
        seed in 0u64..10_000,
        relations in 1usize..3,
        extra_attrs in 0usize..3,
        tuples in 1usize..25,
        domain in 2u64..8,
        k in 0usize..3,
    ) {
        let attributes = relations + extra_attrs;
        let k = k.min(attributes.saturating_sub(1));
        let (db, query) = scenario(seed, relations, attributes, tuples, domain, k);
        let direct = FdbEngine::new().evaluate_flat(&db, &query).expect("direct evaluation");
        let via_ops = FdbEngine::new()
            .evaluate_flat_via_operators(&db, &query)
            .expect("operator evaluation");
        via_ops.result.validate().expect("valid representation");
        prop_assert_eq!(
            materialize(&direct.result).expect("enumerate").tuple_set(),
            materialize(&via_ops.result).expect("enumerate").tuple_set()
        );
    }

    /// Greedy and exhaustive optimisers always produce the same relation for
    /// follow-up queries on factorised results.
    #[test]
    fn greedy_and_exhaustive_agree_on_factorised_queries(
        seed in 0u64..10_000,
        tuples in 1usize..40,
        domain in 2u64..10,
        k in 1usize..3,
        l in 1usize..3,
    ) {
        let (db, base_query) = scenario(seed, 3, 6, tuples, domain, k);
        let base = FdbEngine::new().evaluate_flat(&db, &base_query).expect("base evaluates");
        let mut rng = StdRng::seed_from_u64(seed ^ 0xABCD);
        let follow = fdb::datagen::random_followup_equalities(&mut rng, db.catalog(), &base_query, l);
        prop_assume!(!follow.is_empty());
        let greedy = GreedyOptimizer::new().optimize(base.result.tree(), &follow).expect("greedy");
        let fq = fdb::engine::FactorisedQuery::equalities(follow);
        let exhaustive = FdbEngine::new().evaluate_factorised(&base.result, &fq).expect("exhaustive");
        let greedy_result = greedy
            .plan
            .simplified(base.result.tree())
            .emit_presimplified_ctx(&base.result, &ExecCtx::unlimited())
            .expect("greedy plan executes");
        prop_assert_eq!(
            materialize(&exhaustive.result).expect("enumerate").tuple_set(),
            materialize(&greedy_result).expect("enumerate").tuple_set()
        );
        // Greedy never beats the exhaustive optimum.
        prop_assert!(greedy.cost.max_intermediate + 1e-6 >= exhaustive.stats.plan_cost);
    }
}

#[test]
fn factorised_size_never_exceeds_flat_size() {
    // Deterministic sweep: the number of singletons of the factorised result
    // is bounded by the number of data elements of the flat result.
    for seed in 0..20u64 {
        let (db, query) = scenario(seed, 3, 7, 40, 8, 2);
        let out = FdbEngine::new()
            .evaluate_flat(&db, &query)
            .expect("FDB evaluates");
        let flat = RdbEngine::new()
            .evaluate(&db, &query)
            .expect("RDB evaluates");
        assert!(
            out.stats.result_size <= flat.data_element_count().max(1),
            "seed {seed}: {} singletons > {} data elements",
            out.stats.result_size,
            flat.data_element_count()
        );
    }
}
