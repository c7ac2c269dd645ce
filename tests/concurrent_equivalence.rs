//! Concurrent-serving equivalence: a batch of queries served on a
//! work-stealing pool (2, 4 and 8 workers) must be observationally identical
//! to the same batch evaluated sequentially — store-identical result
//! representations, value-equal aggregates, and identical error outcomes —
//! because execution is a pure function of the `Arc`-shared frozen input and
//! the query.

mod common;

use fdb::common::{AggregateHead, ComparisonOp, ConstSelection, RelId};
use fdb::datagen::{populate, random_query, random_schema, ValueDistribution};
use fdb::engine::{
    FactorisedQuery, FdbEngine, FdbServer, ServeOutcome, ServeRequest, SharedDatabase,
};
use fdb::frep::FRep;
use fdb::{AttrId, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// A random factorised result to serve queries against.
fn random_rep(rng: &mut StdRng, seed: u64) -> FRep {
    let relations = 1 + (seed as usize % 3);
    let attributes = relations + 2 + (seed as usize % 3);
    let catalog = random_schema(rng, relations, attributes);
    let rels: Vec<RelId> = catalog.rels().collect();
    let distribution = if seed.is_multiple_of(2) {
        ValueDistribution::Uniform
    } else {
        ValueDistribution::Zipf(1.0)
    };
    let db = populate(rng, &catalog, 25, 6, distribution);
    let k = (seed as usize) % attributes.min(3);
    let query = random_query(rng, &catalog, &rels, k);
    FdbEngine::new()
        .evaluate_flat(&db, &query)
        .expect("FDB evaluates")
        .result
}

/// A random query over the representation's visible attributes: constant
/// selections (occasionally unsatisfiable, so some requests empty their
/// result mid-plan), sometimes an equality, sometimes a projection or an
/// aggregate head.
fn random_request(rng: &mut StdRng, rep_id: fdb::engine::RepId, rep: &FRep) -> ServeRequest {
    let attrs = rep.visible_attrs();
    let mut query = FactorisedQuery::default();
    let pick = |rng: &mut StdRng, attrs: &[AttrId]| attrs[rng.gen_range(0..attrs.len())];
    if !attrs.is_empty() {
        for _ in 0..rng.gen_range(0..3usize) {
            let op = [
                ComparisonOp::Eq,
                ComparisonOp::Ge,
                ComparisonOp::Le,
                ComparisonOp::Ne,
            ][rng.gen_range(0..4usize)];
            // Domain values live in 1..=6; 99 selects nothing.
            let value = if rng.gen_bool(0.15) {
                99
            } else {
                rng.gen_range(1..=6u64)
            };
            query = query.with_const_selection(ConstSelection {
                attr: pick(rng, &attrs),
                op,
                value: Value::new(value),
            });
        }
        if attrs.len() >= 2 && rng.gen_bool(0.3) {
            let a = pick(rng, &attrs);
            let b = pick(rng, &attrs);
            if a != b {
                query.equalities.push((a, b));
            }
        }
        if rng.gen_bool(0.3) {
            let keep: Vec<AttrId> = attrs
                .iter()
                .copied()
                .filter(|_| rng.gen_bool(0.7))
                .collect();
            query = query.with_projection(keep);
        }
    }
    let aggregate = if query.projection.is_none() && rng.gen_bool(0.25) {
        Some(AggregateHead::count())
    } else {
        None
    };
    ServeRequest::new(rep_id, query, aggregate)
}

/// Serves the batch at several worker counts and asserts every outcome —
/// including errors for invalid queries — matches the sequential engine.
fn check_served_batch_matches_serial(
    engine: &FdbEngine,
    db: &Arc<SharedDatabase>,
    requests: &[ServeRequest],
    context: &str,
) {
    for workers in [2usize, 4, 8] {
        let server = FdbServer::new(*engine, Arc::clone(db), workers);
        let outcomes = server.serve_batch(requests.to_vec());
        assert_eq!(outcomes.len(), requests.len(), "{context}: batch length");
        for (i, (request, outcome)) in requests.iter().zip(&outcomes).enumerate() {
            let rep = db.get(request.rep).expect("registered representation");
            match &request.aggregate {
                Some(head) => {
                    let serial = common::aggregate_serial(engine, &rep, &request.query, head);
                    match (outcome, serial) {
                        (Ok(ServeOutcome::Aggregate(got)), Ok(want)) => assert_eq!(
                            got.result, want.result,
                            "{context}: request {i} aggregate at {workers} workers"
                        ),
                        (Err(_), Err(_)) => {}
                        (got, want) => panic!(
                            "{context}: request {i} outcome kind diverged at {workers} \
                             workers ({got:?} vs {want:?})"
                        ),
                    }
                }
                None => {
                    let serial = engine.evaluate_factorised(&rep, &request.query);
                    match (outcome, serial) {
                        (Ok(ServeOutcome::Rep(got)), Ok(want)) => {
                            got.result
                                .validate()
                                .unwrap_or_else(|e| panic!("{context}: request {i}: {e:?}"));
                            assert!(
                                got.result.store_identical(&want.result),
                                "{context}: request {i} store diverged at {workers} workers"
                            );
                        }
                        (Err(_), Err(_)) => {}
                        (got, want) => panic!(
                            "{context}: request {i} outcome kind diverged at {workers} \
                             workers ({got:?} vs {want:?})"
                        ),
                    }
                }
            }
        }
        assert_eq!(
            server.queries_served(),
            requests.len() as u64,
            "{context}: served counter at {workers} workers"
        );
    }
}

#[test]
fn randomized_concurrent_batches_are_store_identical_to_sequential() {
    for seed in 0..10u64 {
        let mut rng = StdRng::seed_from_u64(0x00A6_6E90 ^ seed);
        let engine = FdbEngine::new();
        let mut shared = SharedDatabase::new();
        let mut reps = Vec::new();
        for r in 0..2u64 {
            let rep = random_rep(&mut rng, seed * 2 + r);
            let id = shared
                .insert(format!("rep{r}"), rep.clone())
                .expect("unique name");
            reps.push((id, rep));
        }
        let db = Arc::new(shared);
        let requests: Vec<ServeRequest> = (0..16)
            .map(|_| {
                let (id, rep) = &reps[rng.gen_range(0..reps.len())];
                random_request(&mut rng, *id, rep)
            })
            .collect();
        check_served_batch_matches_serial(&engine, &db, &requests, &format!("seed {seed}"));
    }
}

#[test]
fn unsatisfiable_selections_empty_identically_under_concurrency() {
    // Every request empties its representation mid-plan; the emptied arenas
    // must still be store-identical to the sequential path.
    let mut rng = StdRng::seed_from_u64(0x00A6_6E91);
    let engine = FdbEngine::new();
    let rep = random_rep(&mut rng, 1);
    let attrs = rep.visible_attrs();
    let mut shared = SharedDatabase::new();
    let id = shared.insert("base", rep).expect("unique name");
    let db = Arc::new(shared);
    let requests: Vec<ServeRequest> = attrs
        .iter()
        .map(|&attr| {
            ServeRequest::new(
                id,
                FactorisedQuery::default().with_const_selection(ConstSelection {
                    attr,
                    op: ComparisonOp::Gt,
                    value: Value::new(1_000_000),
                }),
                None,
            )
        })
        .chain(attrs.iter().map(|&attr| {
            ServeRequest::new(
                id,
                FactorisedQuery::default().with_const_selection(ConstSelection {
                    attr,
                    op: ComparisonOp::Gt,
                    value: Value::new(1_000_000),
                }),
                Some(AggregateHead::count()),
            )
        }))
        .collect();
    check_served_batch_matches_serial(&engine, &db, &requests, "unsatisfiable");
    let server = FdbServer::new(engine, Arc::clone(&db), 4);
    for outcome in server.serve_batch(requests) {
        match outcome.expect("unsatisfiable selections still evaluate") {
            ServeOutcome::Rep(out) => assert!(out.result.represents_empty()),
            ServeOutcome::Aggregate(_) | ServeOutcome::Ordered(_) => {}
        }
    }
}

#[test]
fn fdb_threads_environment_variable_sizes_the_default_pool() {
    // `default_threads` honours FDB_THREADS; the serving layer re-exports it
    // so operators can pin the pool without code changes.
    std::env::set_var("FDB_THREADS", "3");
    assert_eq!(fdb::engine::default_threads(), 3);
    let engine = FdbEngine::new();
    let mut shared = SharedDatabase::new();
    let mut rng = StdRng::seed_from_u64(0x00A6_6E92);
    shared
        .insert("base", random_rep(&mut rng, 2))
        .expect("unique name");
    let server = FdbServer::with_default_threads(engine, Arc::new(shared));
    assert_eq!(server.threads(), 3);
    std::env::remove_var("FDB_THREADS");
    assert!(fdb::engine::default_threads() >= 1);
}
