//! Chaos suite: deterministic fault injection against the serving stack.
//!
//! Every test runs the server at 1, 2, 4 and 8 workers and injects faults
//! through [`FaultPlan`]s that travel *inside* individual requests, so the
//! injection is deterministic per request no matter how the pool schedules
//! the batch.  The invariants pinned here are the robustness contract:
//!
//! * a faulted request reports the matching structured error (`WorkerPanicked`,
//!   `DeadlineExceeded`, `BudgetExceeded`) in its own result slot — faults
//!   never smear onto neighbouring requests;
//! * surviving requests are store-identical (bit-for-bit arena layout) to
//!   sequential evaluation, in request order;
//! * the server keeps serving after every fault class — workers survive
//!   panics, the plan cache is never poisoned, counters stay consistent;
//! * admission control sheds with `Overloaded` while draining.
//!
//! Compiled only with `--features fault-injection` (the failpoint sites
//! vanish from production builds).
#![cfg(feature = "fault-injection")]

mod common;

use fdb::common::{
    AggregateHead, ComparisonOp, ConstSelection, FaultAction, FaultPlan, FdbError, QueryLimits,
    RelId,
};
use fdb::datagen::{populate, random_query, random_schema, ValueDistribution};
use fdb::engine::{
    FactorisedQuery, FdbEngine, FdbServer, ServeOutcome, ServeRequest, SharedDatabase,
};
use fdb::frep::FRep;
use fdb::Value;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Worker counts every chaos test sweeps over.
const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// A small deterministic factorised result to serve queries against.
fn seeded_rep(seed: u64) -> FRep {
    let mut rng = StdRng::seed_from_u64(0x00FA_017E ^ seed);
    let relations = 2;
    let attributes = 5;
    let catalog = random_schema(&mut rng, relations, attributes);
    let rels: Vec<RelId> = catalog.rels().collect();
    let db = populate(&mut rng, &catalog, 25, 6, ValueDistribution::Uniform);
    let query = random_query(&mut rng, &catalog, &rels, 1);
    FdbEngine::new()
        .evaluate_flat(&db, &query)
        .expect("FDB evaluates the base query")
        .result
}

/// A server over one seeded representation, plus the request template the
/// tests perturb: two constant selections on one attribute.  Every non-empty
/// plan runs below the executor's `fuse.execute` failpoint.
fn setup(threads: usize) -> (FdbServer, fdb::engine::RepId, FactorisedQuery) {
    let rep = seeded_rep(7);
    let attr = rep.visible_attrs()[0];
    let mut shared = SharedDatabase::new();
    let id = shared.insert("base", rep).expect("unique name");
    let server = FdbServer::new(FdbEngine::new(), Arc::new(shared), threads);
    let query = FactorisedQuery::default()
        .with_const_selection(ConstSelection {
            attr,
            op: ComparisonOp::Ge,
            value: Value::new(2),
        })
        .with_const_selection(ConstSelection {
            attr,
            op: ComparisonOp::Le,
            value: Value::new(5),
        });
    (server, id, query)
}

/// A selection-free request over the served representation whose whole plan
/// is one operator: the equality of two sibling nodes, i.e. a lone merge.
fn one_operator_query(server: &FdbServer, id: fdb::engine::RepId) -> FactorisedQuery {
    let rep = server.db().get(id).expect("registered representation");
    let tree = rep.tree();
    let first_attr = |n| *tree.class(n).iter().next().expect("non-empty class");
    let nodes = tree.node_ids();
    let (a, b) = nodes
        .iter()
        .flat_map(|&a| nodes.iter().map(move |&b| (a, b)))
        .find(|&(a, b)| a < b && tree.are_siblings(a, b))
        .expect("the seeded tree has a sibling pair");
    let query = FactorisedQuery {
        equalities: vec![(first_attr(a), first_attr(b))],
        ..FactorisedQuery::default()
    };
    let plan = FdbEngine::new()
        .evaluate_factorised(&rep, &query)
        .expect("the equality evaluates")
        .stats
        .plan;
    assert_eq!(plan.len(), 1, "one operator, no selection: {plan}");
    query
}

/// Asserts a non-faulted outcome slot is store-identical to evaluating the
/// same request sequentially on a fresh engine.
fn assert_slot_matches_serial(
    server: &FdbServer,
    request: &ServeRequest,
    outcome: &Result<ServeOutcome, FdbError>,
    context: &str,
) {
    let rep = server
        .db()
        .get(request.rep)
        .expect("registered representation");
    match &request.aggregate {
        Some(head) => {
            let want = common::aggregate_serial(&FdbEngine::new(), &rep, &request.query, head)
                .expect("serial aggregate");
            match outcome {
                Ok(ServeOutcome::Aggregate(got)) => {
                    assert_eq!(got.result, want.result, "{context}: aggregate diverged");
                }
                other => panic!("{context}: expected aggregate, got {other:?}"),
            }
        }
        None => {
            let want = FdbEngine::new()
                .evaluate_factorised(&rep, &request.query)
                .expect("serial evaluation");
            match outcome {
                Ok(ServeOutcome::Rep(got)) => {
                    assert!(
                        got.result.store_identical(&want.result),
                        "{context}: store diverged from sequential evaluation"
                    );
                }
                other => panic!("{context}: expected representation, got {other:?}"),
            }
        }
    }
}

#[test]
fn injected_panics_are_attributed_per_request_and_workers_survive() {
    for threads in THREAD_COUNTS {
        let (server, id, query) = setup(threads);
        let requests: Vec<ServeRequest> = (0..12)
            .map(|i| {
                let request = ServeRequest::new(id, query.clone(), None);
                if i % 3 == 0 {
                    request.with_limits(
                        QueryLimits::unlimited().with_faults(
                            FaultPlan::new()
                                .on("serve.request", FaultAction::Panic(format!("chaos #{i}"))),
                        ),
                    )
                } else {
                    request
                }
            })
            .collect();
        let outcomes = server.serve_batch(requests.clone());
        assert_eq!(outcomes.len(), requests.len(), "{threads} workers: order");
        for (i, (request, outcome)) in requests.iter().zip(&outcomes).enumerate() {
            if i % 3 == 0 {
                match outcome {
                    Err(FdbError::WorkerPanicked { detail }) => assert!(
                        detail.contains(&format!("chaos #{i}")),
                        "{threads} workers: request {i} panic detail {detail:?}"
                    ),
                    other => panic!("{threads} workers: request {i} expected panic, got {other:?}"),
                }
            } else {
                assert_slot_matches_serial(
                    &server,
                    request,
                    outcome,
                    &format!("{threads} workers, request {i}"),
                );
            }
        }
        let stats = server.stats();
        assert_eq!(stats.worker_panics, 4, "{threads} workers: panic counter");
        assert_eq!(stats.queries_served, 12, "{threads} workers: served");
        // The panic was contained at the request boundary, not the pool's.
        assert_eq!(server.pool().panicked_tasks(), 0, "{threads} workers");
        // The plan cache was never poisoned: it still answers and the
        // server still serves.
        assert!(!server.cache().is_empty(), "{threads} workers: cache alive");
        let follow_up = server
            .serve_one(&ServeRequest::new(id, query.clone(), None))
            .expect("server keeps serving after panics");
        assert_slot_matches_serial(
            &server,
            &ServeRequest::new(id, query.clone(), None),
            &Ok(follow_up),
            &format!("{threads} workers, follow-up"),
        );
    }
}

#[test]
fn injected_delays_trip_deadlines_only_on_the_faulted_requests() {
    for threads in THREAD_COUNTS {
        let (server, id, query) = setup(threads);
        let requests: Vec<ServeRequest> = (0..8)
            .map(|i| {
                let request = ServeRequest::new(id, query.clone(), None);
                if i % 2 == 0 {
                    request.with_limits(
                        QueryLimits::unlimited()
                            .with_deadline(Duration::from_millis(5))
                            .with_faults(FaultPlan::new().on(
                                "fuse.execute",
                                FaultAction::Delay(Duration::from_millis(50)),
                            )),
                    )
                } else {
                    request
                }
            })
            .collect();
        let outcomes = server.serve_batch(requests.clone());
        for (i, (request, outcome)) in requests.iter().zip(&outcomes).enumerate() {
            if i % 2 == 0 {
                assert_eq!(
                    outcome.as_ref().err(),
                    Some(&FdbError::DeadlineExceeded { limit_ms: 5 }),
                    "{threads} workers: request {i}"
                );
            } else {
                assert_slot_matches_serial(
                    &server,
                    request,
                    outcome,
                    &format!("{threads} workers, request {i}"),
                );
            }
        }
        assert_eq!(server.stats().worker_panics, 0, "{threads} workers");
    }
}

#[test]
fn budget_pressure_trips_budgets_without_smearing_onto_neighbours() {
    for threads in THREAD_COUNTS {
        let (server, id, query) = setup(threads);
        let requests: Vec<ServeRequest> = (0..8)
            .map(|i| {
                let request = ServeRequest::new(id, query.clone(), None);
                if i % 2 == 1 {
                    request.with_limits(QueryLimits::unlimited().with_budget(500).with_faults(
                        FaultPlan::new().on("fuse.execute", FaultAction::BudgetPressure(1_000_000)),
                    ))
                } else {
                    // A generous budget that the tiny store never exhausts:
                    // governance armed, but the request must complete.
                    request.with_limits(QueryLimits::unlimited().with_budget(1_000_000_000))
                }
            })
            .collect();
        let outcomes = server.serve_batch(requests.clone());
        for (i, (request, outcome)) in requests.iter().zip(&outcomes).enumerate() {
            if i % 2 == 1 {
                assert_eq!(
                    outcome.as_ref().err(),
                    Some(&FdbError::BudgetExceeded { limit: 500 }),
                    "{threads} workers: request {i}"
                );
            } else {
                assert_slot_matches_serial(
                    &server,
                    request,
                    outcome,
                    &format!("{threads} workers, request {i}"),
                );
            }
        }
    }
}

#[test]
fn the_enumerate_cursor_failpoint_fires_in_plain_and_ordered_materialisation() {
    use fdb::common::ExecCtx;
    use fdb::frep::{materialize_ctx, materialize_ordered_ctx};

    let rep = seeded_rep(7);
    let order_by = [rep.visible_attrs()[0]];
    let tuples = u64::try_from(rep.tuple_count()).expect("a small result");
    let pressured = QueryLimits::unlimited()
        .with_budget(tuples)
        .with_faults(FaultPlan::new().on("enumerate.cursor", FaultAction::BudgetPressure(1)));
    // The budget covers the scan exactly, so only the armed site can trip it.
    let healthy = QueryLimits::unlimited().with_budget(tuples);
    assert!(materialize_ctx(&rep, &ExecCtx::new(&healthy)).is_ok());
    assert!(materialize_ordered_ctx(&rep, &order_by, &ExecCtx::new(&healthy)).is_ok());
    assert_eq!(
        materialize_ctx(&rep, &ExecCtx::new(&pressured)).unwrap_err(),
        FdbError::BudgetExceeded { limit: tuples }
    );
    assert_eq!(
        materialize_ordered_ctx(&rep, &order_by, &ExecCtx::new(&pressured)).unwrap_err(),
        FdbError::BudgetExceeded { limit: tuples }
    );

    // And through the server: an ordered request panicking at the site is
    // attributed to itself, and the worker serves the next one.
    for threads in THREAD_COUNTS {
        let (server, id, query) = setup(threads);
        let ordered = ServeRequest::new(id, query, None).with_order_by(order_by.to_vec());
        let faulted = ordered
            .clone()
            .with_limits(QueryLimits::unlimited().with_faults(
                FaultPlan::new().on("enumerate.cursor", FaultAction::Panic("chaos".into())),
            ));
        assert!(
            matches!(
                server.serve_one(&faulted),
                Err(FdbError::WorkerPanicked { .. })
            ),
            "{threads} workers: the armed site must fire"
        );
        assert!(
            matches!(server.serve_one(&ordered), Ok(ServeOutcome::Ordered(_))),
            "{threads} workers: the server keeps serving"
        );
    }
}

#[test]
fn the_build_failpoint_aborts_a_flat_evaluation_and_leaves_the_database_untouched() {
    use fdb::common::ExecCtx;
    use fdb::frep::build_frep_ctx;

    let g = fdb::datagen::grocery_database();
    let query = g.q1();
    let tree = fdb::plan::optimal_ftree(g.db.catalog(), &query, |r| g.db.rel_len(r) as u64)
        .expect("an f-tree exists")
        .tree;
    let before: Vec<_> = g.db.catalog().rels().map(|r| g.db.relation(r)).collect();
    let healthy = build_frep_ctx(&g.db, &query, &tree, &ExecCtx::unlimited()).expect("builds");

    // The site sits between prepare and the semi-join: pressure of one unit
    // on a budget that covers exactly the input rows trips there, before any
    // candidate is decided.
    let rows = g.db.total_tuples() as u64;
    let pressured = QueryLimits::unlimited()
        .with_budget(rows)
        .with_faults(FaultPlan::new().on("build.semi_join", FaultAction::BudgetPressure(1)));
    assert_eq!(
        build_frep_ctx(&g.db, &query, &tree, &ExecCtx::new(&pressured)).unwrap_err(),
        FdbError::BudgetExceeded { limit: rows }
    );
    let panicking = QueryLimits::unlimited()
        .with_faults(FaultPlan::new().on("build.semi_join", FaultAction::Panic("chaos".into())));
    let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        build_frep_ctx(&g.db, &query, &tree, &ExecCtx::new(&panicking))
    }));
    assert!(unwound.is_err(), "the armed site must fire");

    // The build only ever borrowed the relations: same rows, same result.
    let after: Vec<_> = g.db.catalog().rels().map(|r| g.db.relation(r)).collect();
    assert_eq!(before, after);
    let again = build_frep_ctx(&g.db, &query, &tree, &ExecCtx::unlimited()).expect("builds");
    assert!(again.store_identical(&healthy));
}

#[test]
fn a_pre_set_cancellation_flag_aborts_cooperatively() {
    for threads in THREAD_COUNTS {
        let (server, id, query) = setup(threads);
        let cancel = Arc::new(AtomicBool::new(false));
        cancel.store(true, Ordering::SeqCst);
        let cancelled = ServeRequest::new(id, query.clone(), None)
            .with_limits(QueryLimits::unlimited().with_cancel(Arc::clone(&cancel)));
        let healthy = ServeRequest::new(id, query.clone(), None);
        let outcomes = server.serve_batch(vec![cancelled, healthy.clone()]);
        // Cancellation reports through the deadline variant with a zero
        // allowance (documented sentinel for "flagged off").
        assert_eq!(
            outcomes[0].as_ref().err(),
            Some(&FdbError::DeadlineExceeded { limit_ms: 0 }),
            "{threads} workers"
        );
        assert_slot_matches_serial(
            &server,
            &healthy,
            &outcomes[1],
            &format!("{threads} workers"),
        );
    }
}

#[test]
fn panics_at_deep_sites_leave_the_plan_cache_usable() {
    for threads in THREAD_COUNTS {
        let (server, id, query) = setup(threads);
        // Aggregate over the unfiltered representation folds through the
        // arena fold, whose `aggregate.fold` failpoint panics mid-request.
        let deep_faults = vec![
            (ServeRequest::new(id, query.clone(), None), "fuse.execute"),
            // A one-operator plan reaches the same site.
            (
                ServeRequest::new(id, one_operator_query(&server, id), None),
                "fuse.execute",
            ),
            (
                ServeRequest::new(id, FactorisedQuery::default(), Some(AggregateHead::count())),
                "aggregate.fold",
            ),
        ];
        for (request, site) in deep_faults {
            let faulted = request.clone().with_limits(
                QueryLimits::unlimited()
                    .with_faults(FaultPlan::new().on(site, FaultAction::Panic("deep".into()))),
            );
            match server.serve_one(&faulted) {
                Err(FdbError::WorkerPanicked { detail }) => assert!(
                    detail.contains("deep"),
                    "{threads} workers, site {site}: {detail:?}"
                ),
                other => panic!("{threads} workers, site {site}: got {other:?}"),
            }
            // The cache mutex is not poisoned and the same query still
            // evaluates — now served from cache where applicable.
            let _ = server.cache().len();
            let outcome = server
                .serve_one(&request)
                .expect("server serves the same shape after a deep panic");
            assert_slot_matches_serial(
                &server,
                &request,
                &Ok(outcome),
                &format!("{threads} workers, site {site}"),
            );
        }
    }
}

#[test]
fn a_mixed_fault_storm_preserves_order_and_healthy_results() {
    for threads in THREAD_COUNTS {
        let (server, id, query) = setup(threads);
        let fault_for = |i: usize| -> Option<QueryLimits> {
            match i % 4 {
                0 => Some(QueryLimits::unlimited().with_faults(
                    FaultPlan::new().on("serve.request", FaultAction::Panic(format!("storm {i}"))),
                )),
                1 => Some(
                    QueryLimits::unlimited()
                        .with_deadline(Duration::from_millis(3))
                        .with_faults(FaultPlan::new().on(
                            "fuse.execute",
                            FaultAction::Delay(Duration::from_millis(40)),
                        )),
                ),
                2 => Some(QueryLimits::unlimited().with_budget(100).with_faults(
                    FaultPlan::new().on("fuse.execute", FaultAction::BudgetPressure(10_000)),
                )),
                _ => None,
            }
        };
        let requests: Vec<ServeRequest> = (0..16)
            .map(|i| {
                let request = ServeRequest::new(id, query.clone(), None);
                match fault_for(i) {
                    Some(limits) => request.with_limits(limits),
                    None => request,
                }
            })
            .collect();
        let outcomes = server.serve_batch(requests.clone());
        assert_eq!(outcomes.len(), 16, "{threads} workers: order");
        for (i, (request, outcome)) in requests.iter().zip(&outcomes).enumerate() {
            match i % 4 {
                0 => assert!(
                    matches!(outcome, Err(FdbError::WorkerPanicked { .. })),
                    "{threads} workers: request {i} got {outcome:?}"
                ),
                1 => assert_eq!(
                    outcome.as_ref().err(),
                    Some(&FdbError::DeadlineExceeded { limit_ms: 3 }),
                    "{threads} workers: request {i}"
                ),
                2 => assert_eq!(
                    outcome.as_ref().err(),
                    Some(&FdbError::BudgetExceeded { limit: 100 }),
                    "{threads} workers: request {i}"
                ),
                _ => assert_slot_matches_serial(
                    &server,
                    request,
                    outcome,
                    &format!("{threads} workers, request {i}"),
                ),
            }
        }
        let stats = server.stats();
        assert_eq!(stats.worker_panics, 4, "{threads} workers");
        assert_eq!(stats.queries_served, 16, "{threads} workers");
        // After the storm the server still serves a clean batch, fully
        // matching sequential evaluation.
        let clean: Vec<ServeRequest> = (0..4)
            .map(|_| ServeRequest::new(id, query.clone(), None))
            .collect();
        for (i, outcome) in server.serve_batch(clean.clone()).iter().enumerate() {
            assert_slot_matches_serial(
                &server,
                &clean[i],
                outcome,
                &format!("{threads} workers, post-storm {i}"),
            );
        }
    }
}

#[test]
fn a_draining_server_sheds_new_requests_as_overloaded() {
    for threads in THREAD_COUNTS {
        let (server, id, query) = setup(threads);
        let request = ServeRequest::new(id, query.clone(), None);
        server.serve_one(&request).expect("serves before the drain");
        server.shutdown();
        assert!(server.is_draining());
        match server.serve_one(&request) {
            Err(FdbError::Overloaded { capacity, .. }) => {
                assert!(capacity >= 1, "{threads} workers")
            }
            other => panic!("{threads} workers: expected Overloaded, got {other:?}"),
        }
        let outcomes = server.serve_batch(vec![request.clone(), request.clone()]);
        assert!(
            outcomes
                .iter()
                .all(|o| matches!(o, Err(FdbError::Overloaded { .. }))),
            "{threads} workers: batch shed while draining"
        );
        assert_eq!(server.stats().requests_shed, 3, "{threads} workers");
        assert_eq!(server.in_flight(), 0, "{threads} workers: drained");
    }
}
