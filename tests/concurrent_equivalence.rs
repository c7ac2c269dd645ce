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
use fdb::frep::{Entry, FRep, Union};
use fdb::ftree::{DepEdge, FTree};
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

/// Two chains `A{0} → B{1}` and `C{2} → D{3}`, multiplied: a freeze-layout
/// input whose inner unions a selection on the other chain block-copies.
/// `shift` moves every value, so two inputs of one shape differ in data.
fn two_chains(outer: u64, inner: u64, shift: u64) -> FRep {
    let chain = |top: u32| {
        let attrs = |ids: &[u32]| ids.iter().map(|&i| AttrId(i)).collect();
        let mut tree = FTree::new(vec![DepEdge::new(
            format!("R{top}"),
            attrs(&[top, top + 1]),
            outer * inner,
        )]);
        let root = tree.add_node(attrs(&[top]), None).unwrap();
        let child = tree.add_node(attrs(&[top + 1]), Some(root)).unwrap();
        let entries = (shift..shift + outer)
            .map(|v| Entry {
                value: Value::new(v),
                children: vec![Union::new(
                    child,
                    (v..v + inner + v % 3)
                        .map(|w| Entry::leaf(Value::new(w)))
                        .collect(),
                )],
            })
            .collect();
        FRep::from_parts(tree, vec![Union::new(root, entries)]).unwrap()
    };
    fdb::frep::ops::product(chain(0), chain(2)).unwrap()
}

/// Selections on either chain (each block-copies the other one), one
/// without any data effect, and a COUNT head.
fn chain_requests(id: fdb::engine::RepId) -> Vec<ServeRequest> {
    let select = |attr: u32, op: ComparisonOp, value: u64| {
        FactorisedQuery::default().with_const_selection(ConstSelection {
            attr: AttrId(attr),
            op,
            value: Value::new(value),
        })
    };
    let mut requests: Vec<ServeRequest> = (0..12u64)
        .map(|c| {
            let (attr, op) = [(0, ComparisonOp::Ge), (3, ComparisonOp::Le)][c as usize % 2];
            ServeRequest::new(id, select(attr, op, 2 * c + 3), None)
        })
        .collect();
    requests.push(ServeRequest::new(id, select(1, ComparisonOp::Ge, 0), None));
    requests.push(ServeRequest::new(
        id,
        select(2, ComparisonOp::Ge, 5),
        Some(AggregateHead::count()),
    ));
    requests
}

/// `(result_size, result_tuples)` of every outcome, each checked against the
/// walks of its result.
fn recorded_stats(outcomes: Vec<fdb::Result<ServeOutcome>>) -> Vec<(usize, u128)> {
    (outcomes.into_iter())
        .map(|outcome| {
            let outcome = outcome.expect("every request evaluates");
            let stats = outcome.stats();
            if let ServeOutcome::Rep(out) = &outcome {
                let walked = (out.result.size(), out.result.tuple_count());
                assert_eq!((stats.result_size, stats.result_tuples), walked);
            }
            (stats.result_size, stats.result_tuples)
        })
        .collect()
}

#[test]
fn recorded_counts_survive_racing_first_requests_and_a_replace() {
    // A freshly inserted input has not filled its per-union count table:
    // the first requests of a 4-worker batch race to fill it.
    let serve_fresh = |workers: usize, shift: u64| {
        let mut shared = SharedDatabase::new();
        let id = shared.insert("chains", two_chains(40, 6, shift)).unwrap();
        let server = FdbServer::new(FdbEngine::new(), Arc::new(shared), workers);
        recorded_stats(server.serve_batch(chain_requests(id)))
    };
    let serial = serve_fresh(1, 0);
    for round in 0..4 {
        assert_eq!(serve_fresh(4, 0), serial, "round {round}");
    }

    // A replaced input brings its own table: the served counts after the
    // swap are the new data's, never the memo of the old representation.
    let mut shared = SharedDatabase::new();
    let id = shared.insert("chains", two_chains(40, 6, 0)).unwrap();
    let server = FdbServer::new(FdbEngine::new(), Arc::new(shared), 4);
    assert_eq!(
        recorded_stats(server.serve_batch(chain_requests(id))),
        serial
    );
    server.replace(id, two_chains(40, 6, 7)).unwrap();
    let replaced = recorded_stats(server.serve_batch(chain_requests(id)));
    assert_ne!(replaced, serial, "the new data counts differently");
    assert_eq!(replaced, serve_fresh(1, 7));
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
