//! Chaos suite: durable snapshots and hot swap under fault injection.
//!
//! The durability contract pinned here:
//!
//! * a snapshot that was bit-flipped **in any section** or truncated at any
//!   framing boundary is rejected on load with a structured error
//!   (`SnapshotCorrupt` / `SnapshotVersionMismatch`) — never a panic, never
//!   a partially-loaded representation — and a good file next to the torn
//!   one keeps loading (torn-write recovery);
//! * the `snapshot.write` / `snapshot.read` failpoints drive write- and
//!   read-side faults deterministically: a faulted save leaves no file (and
//!   no `.tmp` litter) behind, a faulted load leaves the caller's state
//!   untouched;
//! * hot swap ([`FdbServer::replace`]) under concurrent serving at 1–8
//!   workers is **epoch-correct**: every in-flight request's result is
//!   store-identical to sequential evaluation on either the old or the new
//!   representation (never a blend), every post-swap request evaluates on
//!   the new one (zero stale plans), and a panic injected mid-swap through
//!   the `db.swap` failpoint leaves the server serving the old epoch.
//!
//! Compiled only with `--features fault-injection`.
#![cfg(feature = "fault-injection")]

mod common;

use fdb::common::{
    AggregateHead, ComparisonOp, ConstSelection, ExecCtx, FaultAction, FaultPlan, FdbError,
    QueryLimits, RelId,
};
use fdb::datagen::{populate, random_query, random_schema, ValueDistribution};
use fdb::engine::snapshot::{load_rep, load_rep_ctx, save_rep_ctx};
use fdb::engine::{
    FactorisedQuery, FdbEngine, FdbServer, RepId, ServeOutcome, ServeRequest, SharedDatabase,
};
use fdb::frep::snapshot::{read_sections, KIND_FREP};
use fdb::frep::FRep;
use fdb::Value;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fs;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Worker counts every chaos test sweeps over.
const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// A small deterministic factorised result to snapshot and serve.
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

/// A unique scratch directory per call, removed by the test on success.
fn scratch_dir(label: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let unique = NEXT.fetch_add(1, Ordering::SeqCst);
    let dir = std::env::temp_dir().join(format!(
        "fdb-recovery-{}-{label}-{unique}",
        std::process::id()
    ));
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// Asserts that loading `bytes` (written to a scratch file) reports a
/// structured snapshot error — corruption or version skew, never a panic
/// and never a successfully "loaded" representation.
fn assert_load_rejects(path: &std::path::Path, bytes: &[u8], context: &str) {
    fs::write(path, bytes).unwrap();
    let outcome = catch_unwind(AssertUnwindSafe(|| load_rep(path)));
    match outcome {
        Ok(Err(FdbError::SnapshotCorrupt { .. } | FdbError::SnapshotVersionMismatch { .. })) => {}
        Ok(other) => panic!("{context}: expected a structured rejection, got {other:?}"),
        Err(_) => panic!("{context}: loading corrupt bytes panicked"),
    }
}

#[test]
fn every_section_survives_neither_flips_nor_boundary_truncation() {
    let dir = scratch_dir("sweep");
    let good_path = dir.join("good.fdbs");
    let torn_path = dir.join("torn.fdbs");
    let rep = seeded_rep(3);
    save_rep_ctx(&rep, &good_path, &ExecCtx::unlimited()).unwrap();
    let bytes = fs::read(&good_path).unwrap();

    // One flipped byte anywhere — swept exhaustively through the *file*
    // path, so the per-section checksums and the structural validator are
    // exercised exactly as a production load would hit them.
    for at in 0..bytes.len() {
        let mut bad = bytes.clone();
        bad[at] ^= 0x40;
        assert_load_rejects(&torn_path, &bad, &format!("flip at byte {at}"));
    }

    // Torn writes: truncation at every framing boundary (header end and
    // each section end), one byte before it, and one byte after it.
    // The boundaries come from the checked reader: behind the 16-byte
    // header every section is a 16-byte frame, its payload padded to a
    // multiple of 8, and an 8-byte checksum.
    let mut boundaries = vec![16];
    for (_, payload) in read_sections(&bytes, KIND_FREP).unwrap() {
        let section = 16 + payload.len().next_multiple_of(8) + 8;
        boundaries.push(boundaries.last().unwrap() + section);
    }
    assert_eq!(boundaries.len(), 8, "header + 7 sections");
    assert_eq!(
        *boundaries.last().unwrap(),
        bytes.len(),
        "the last boundary closes the file"
    );
    for &boundary in &boundaries {
        for cut in [boundary.saturating_sub(1), boundary, boundary + 1] {
            if cut >= bytes.len() {
                continue;
            }
            assert_load_rejects(&torn_path, &bytes[..cut], &format!("truncate at {cut}"));
        }
    }

    // Recovery: the good file next to the torn one is untouched and loads.
    let recovered = load_rep(&good_path).unwrap();
    assert!(
        recovered.store_identical(&rep),
        "the good snapshot survives"
    );
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn snapshot_write_faults_leave_no_file_and_read_faults_leave_state_untouched() {
    let dir = scratch_dir("failpoints");
    let path = dir.join("rep.fdbs");
    let rep = seeded_rep(5);

    // A panic at the write failpoint: nothing reaches the filesystem, not
    // even a temporary.
    let panicking = ExecCtx::new(&QueryLimits::unlimited().with_faults(
        FaultPlan::new().on("snapshot.write", FaultAction::Panic("torn save".into())),
    ));
    let outcome = catch_unwind(AssertUnwindSafe(|| save_rep_ctx(&rep, &path, &panicking)));
    assert!(outcome.is_err(), "the injected write panic propagates");
    assert!(
        fs::read_dir(&dir).unwrap().next().is_none(),
        "a faulted save leaves no file and no .tmp litter"
    );

    // Budget pressure at the write failpoint: a structured error, still no
    // file.
    let pressured =
        ExecCtx::new(&QueryLimits::unlimited().with_budget(100).with_faults(
            FaultPlan::new().on("snapshot.write", FaultAction::BudgetPressure(10_000)),
        ));
    assert_eq!(
        save_rep_ctx(&rep, &path, &pressured),
        Err(FdbError::BudgetExceeded { limit: 100 }),
        "write-side budget faults report through the error channel"
    );
    assert!(!path.exists(), "no partial snapshot after a budget fault");

    // A clean save, then a faulted load: the error is structured and the
    // file is untouched for the retry.
    save_rep_ctx(&rep, &path, &ExecCtx::unlimited()).unwrap();
    let read_faulted =
        ExecCtx::new(&QueryLimits::unlimited().with_budget(50).with_faults(
            FaultPlan::new().on("snapshot.read", FaultAction::BudgetPressure(10_000)),
        ));
    assert_eq!(
        load_rep_ctx(&path, &read_faulted).err(),
        Some(FdbError::BudgetExceeded { limit: 50 }),
        "read-side faults report through the error channel"
    );
    let retried = load_rep(&path).unwrap();
    assert!(
        retried.store_identical(&rep),
        "the retry loads the snapshot"
    );
    fs::remove_dir_all(&dir).unwrap();
}

/// The serving fixture for the hot-swap tests: a server over one slot whose
/// old representation has tuples and whose replacement is the emptied
/// result of an unsatisfiable selection — so old- and new-epoch results are
/// unmistakably different, while both representations carry the query's
/// attributes.
struct SwapFixture {
    server: FdbServer,
    id: RepId,
    old: FRep,
    new: FRep,
    rep_query: FactorisedQuery,
    count_query: ServeRequest,
}

fn swap_fixture(threads: usize) -> SwapFixture {
    let old = seeded_rep(7);
    let attr = old.visible_attrs()[0];
    let engine = FdbEngine::new();
    let new = engine
        .evaluate_factorised(
            &old,
            &FactorisedQuery::default().with_const_selection(ConstSelection {
                attr,
                op: ComparisonOp::Gt,
                value: Value::new(1_000_000),
            }),
        )
        .expect("the emptying selection evaluates")
        .result;
    assert!(new.represents_empty(), "the replacement represents ∅");
    assert!(
        old.tuple_count() > 0,
        "precondition: the old epoch has tuples to tell the epochs apart"
    );

    let mut shared = SharedDatabase::new();
    let id = shared.insert("base", old.clone()).expect("unique name");
    let server = FdbServer::new(engine, Arc::new(shared), threads);
    let rep_query = FactorisedQuery::default().with_const_selection(ConstSelection {
        attr,
        op: ComparisonOp::Ge,
        value: Value::new(0),
    });
    let count_query =
        ServeRequest::new(id, FactorisedQuery::default(), Some(AggregateHead::count()));
    SwapFixture {
        server,
        id,
        old,
        new,
        rep_query,
        count_query,
    }
}

/// Which epoch an outcome evaluated on: store-identical to sequential
/// evaluation on the old representation, on the new one, or (fatally)
/// neither — a blend would mean the swap was observed mid-request.
fn epoch_of(
    outcome: &Result<ServeOutcome, FdbError>,
    request: &ServeRequest,
    fixture: &SwapFixture,
    context: &str,
) -> &'static str {
    let engine = FdbEngine::new();
    match (outcome, &request.aggregate) {
        (Ok(ServeOutcome::Rep(got)), None) => {
            let want_old = engine
                .evaluate_factorised(&fixture.old, &request.query)
                .unwrap();
            let want_new = engine
                .evaluate_factorised(&fixture.new, &request.query)
                .unwrap();
            if got.result.store_identical(&want_old.result) {
                "old"
            } else if got.result.store_identical(&want_new.result) {
                "new"
            } else {
                panic!("{context}: result matches neither epoch's sequential evaluation")
            }
        }
        (Ok(ServeOutcome::Aggregate(got)), Some(head)) => {
            let want_old =
                common::aggregate_serial(&engine, &fixture.old, &request.query, head).unwrap();
            let want_new =
                common::aggregate_serial(&engine, &fixture.new, &request.query, head).unwrap();
            assert_ne!(
                want_old.result, want_new.result,
                "{context}: the fixture must tell the epochs apart"
            );
            if got.result == want_old.result {
                "old"
            } else if got.result == want_new.result {
                "new"
            } else {
                panic!("{context}: aggregate matches neither epoch")
            }
        }
        (outcome, _) => panic!("{context}: unexpected outcome {outcome:?}"),
    }
}

#[test]
fn hot_swap_under_concurrent_serving_is_epoch_correct_with_zero_stale_plans() {
    for threads in THREAD_COUNTS {
        let fixture = swap_fixture(threads);
        let server = &fixture.server;

        // Warm the cache on the old epoch so the swap has plans to drop.
        let warm = ServeRequest::new(fixture.id, fixture.rep_query.clone(), None);
        assert_eq!(
            epoch_of(&server.serve_one(&warm), &warm, &fixture, "warm-up"),
            "old"
        );
        let cached_before = server.cache().len();
        assert!(cached_before >= 1, "{threads} workers: the warm-up cached");

        // A mixed batch races the swap.
        let requests: Vec<ServeRequest> = (0..24)
            .map(|i| {
                if i % 3 == 0 {
                    fixture.count_query.clone()
                } else {
                    ServeRequest::new(fixture.id, fixture.rep_query.clone(), None)
                }
            })
            .collect();
        let outcomes = std::thread::scope(|scope| {
            let batch = requests.clone();
            let serving = scope.spawn(move || server.serve_batch(batch));
            std::thread::sleep(Duration::from_millis(1));
            server
                .replace(fixture.id, fixture.new.clone())
                .expect("the swap publishes");
            serving
                .join()
                .expect("the serving thread survives the swap")
        });

        // Every in-flight result is exactly one epoch's result — the swap
        // is atomic from the requests' point of view.
        for (i, (request, outcome)) in requests.iter().zip(&outcomes).enumerate() {
            epoch_of(
                outcome,
                request,
                &fixture,
                &format!("{threads} workers, in-flight request {i}"),
            );
        }

        // The old tree's plans were dropped and counted.
        let stats = server.stats();
        assert!(
            stats.plan_cache_invalidations >= 1,
            "{threads} workers: the warm-up plan was invalidated"
        );
        assert!(
            stats.counters_table().contains("invalidations"),
            "{threads} workers: invalidations surface in the counters table"
        );
        assert_eq!(server.db().epoch(fixture.id), Some(1), "{threads} workers");

        // Zero stale plans: every post-swap request — including the exact
        // shape that was cached on the old epoch — evaluates on the new
        // representation.
        let post: Vec<ServeRequest> = (0..8)
            .map(|i| {
                if i % 2 == 0 {
                    ServeRequest::new(fixture.id, fixture.rep_query.clone(), None)
                } else {
                    fixture.count_query.clone()
                }
            })
            .collect();
        for (i, (request, outcome)) in post
            .iter()
            .zip(&server.serve_batch(post.clone()))
            .enumerate()
        {
            assert_eq!(
                epoch_of(
                    outcome,
                    request,
                    &fixture,
                    &format!("{threads} workers, post-swap request {i}")
                ),
                "new",
                "{threads} workers: post-swap request {i} must see the new epoch"
            );
        }
    }
}

#[test]
fn a_panic_injected_mid_swap_leaves_the_server_on_the_old_epoch() {
    for threads in THREAD_COUNTS {
        let fixture = swap_fixture(threads);
        let server = &fixture.server;
        let warm = ServeRequest::new(fixture.id, fixture.rep_query.clone(), None);
        server.serve_one(&warm).expect("serves before the swap");
        let cached_before = server.cache().len();

        let ctx = ExecCtx::new(
            &QueryLimits::unlimited()
                .with_faults(FaultPlan::new().on("db.swap", FaultAction::Panic("mid-swap".into()))),
        );
        let attempt = catch_unwind(AssertUnwindSafe(|| {
            server.replace_ctx(fixture.id, fixture.new.clone(), &ctx)
        }));
        assert!(attempt.is_err(), "{threads} workers: the swap panic fires");

        // Nothing was published: same epoch, same content, same plans.
        assert_eq!(server.db().epoch(fixture.id), Some(0), "{threads} workers");
        assert_eq!(
            server.cache().len(),
            cached_before,
            "{threads} workers: no plan was invalidated by the failed swap"
        );
        assert_eq!(
            server.stats().plan_cache_invalidations,
            0,
            "{threads} workers"
        );
        assert_eq!(
            epoch_of(
                &server.serve_one(&warm),
                &warm,
                &fixture,
                &format!("{threads} workers, post-panic serve")
            ),
            "old",
            "{threads} workers: the server keeps serving the old epoch"
        );

        // A governed-but-clean retry succeeds.
        let clean = ExecCtx::new(&QueryLimits::unlimited());
        server
            .replace_ctx(fixture.id, fixture.new.clone(), &clean)
            .expect("the retry publishes");
        assert_eq!(server.db().epoch(fixture.id), Some(1), "{threads} workers");
        assert_eq!(
            epoch_of(
                &server.serve_one(&warm),
                &warm,
                &fixture,
                &format!("{threads} workers, post-retry serve")
            ),
            "new"
        );
    }
}

#[test]
fn a_snapshot_round_trip_survives_a_hot_swap_cycle() {
    // Durability and hot swap composed: save the old epoch, swap the live
    // slot, then restore the snapshot into the slot — the server is back to
    // serving the original content, on a new epoch, with no stale plans.
    for threads in [1usize, 4] {
        let dir = scratch_dir("cycle");
        let path = dir.join("old.fdbs");
        let fixture = swap_fixture(threads);
        let server = &fixture.server;
        save_rep_ctx(&fixture.old, &path, &ExecCtx::unlimited()).unwrap();

        server
            .replace(fixture.id, fixture.new.clone())
            .expect("swap to the empty representation");
        let restored = load_rep(&path).unwrap();
        assert!(restored.store_identical(&fixture.old));
        server
            .replace(fixture.id, restored)
            .expect("swap back to the restored snapshot");
        assert_eq!(server.db().epoch(fixture.id), Some(2), "{threads} workers");

        let warm = ServeRequest::new(fixture.id, fixture.rep_query.clone(), None);
        assert_eq!(
            epoch_of(
                &server.serve_one(&warm),
                &warm,
                &fixture,
                &format!("{threads} workers, restored serve")
            ),
            "old",
            "{threads} workers: the restored snapshot serves the original content"
        );
        fs::remove_dir_all(&dir).unwrap();
    }
}
