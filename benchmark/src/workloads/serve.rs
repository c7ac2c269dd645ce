//! What the four serving workloads share: observing a [`ServeOutcome`],
//! checking it against the flat oracle, replaying a request through the
//! public layer functions in the engine's order, and one throughput pass
//! through `FdbServer::serve_batch`.

use crate::harness::{CacheCounters, Observed, Pass, Tally, Workload};
use crate::oracle::{canonical, sort_canonical, FlatProduct, FLATTEN_LIMIT};
use crate::trace::Recorder;
use fdb_common::{AggregateFunc, AggregateHead, ExecCtx, FdbError};
use fdb_core::{
    FactorisedQuery, FdbEngine, FdbServer, RepId, ServeOutcome, ServeRequest, ServerStats,
    SharedDatabase,
};
use fdb_frep::{materialize, materialize_ordered_ctx, AggregateKind, FRep, OrderStrategy};
use fdb_ftree::s_cost;
use fdb_plan::{
    plan_chain_restructure, ChainStrategy, ExhaustiveOptimizer, FPlan, FPlanOp, GreedyOptimizer,
    OptimizedPlan,
};
use fdb_relation::Relation;
use std::collections::hash_map::{Entry, HashMap};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// `serve_batch` calls carry at most this many requests: the default
/// admission bound is `128 × threads`, and a batch beyond it is shed with
/// `Overloaded`.  Small batches also bound how many results are alive at
/// once, which is what `peak_rss_mb` sees.  (60 divides `serve_cold`'s 240
/// ops, whose seeds rotate the list by whole batches.)
pub const BATCH: usize = 60;

/// Reduces a served outcome to what timed ops are compared on.
pub fn observe(outcome: &ServeOutcome) -> Observed {
    match outcome {
        ServeOutcome::Rep(out) => Observed::Rep {
            size: out.stats.result_size,
            tuples: out.stats.result_tuples,
        },
        ServeOutcome::Aggregate(out) => Observed::Aggregate(out.result.clone()),
        ServeOutcome::Ordered(out) => Observed::Rows {
            rows: out.rows.len(),
            size: out.stats.result_size,
            tuples: out.stats.result_tuples,
        },
    }
}

/// The server's plan-cache counters.
pub fn cache_counters(stats: &ServerStats) -> CacheCounters {
    CacheCounters {
        hits: stats.plan_cache_hits,
        misses: stats.plan_cache_misses,
        evictions: stats.plan_cache_evictions,
        invalidations: stats.plan_cache_invalidations,
    }
}

/// Checks that a result representation is well-formed, that its reported
/// counts are its real ones, and that it holds exactly the tuples of the
/// oracle's `expected` relation.  A product too large to expand is compared
/// by tuple count and then factor by factor: the result projected onto each
/// oracle part (of at most [`FLATTEN_LIMIT`] rows) must be that part.
pub fn check_rep(
    result: &FRep,
    reported: (usize, u128),
    expected: &FlatProduct,
) -> Result<(), String> {
    result
        .validate()
        .map_err(|e| format!("invalid result representation: {e}"))?;
    if reported != (result.size(), result.tuple_count()) {
        return Err(format!(
            "stats report {reported:?} but the result holds ({}, {})",
            result.size(),
            result.tuple_count()
        ));
    }
    if result.tuple_count() != expected.tuple_count() {
        return Err(format!(
            "{} result tuples, the flat oracle has {}",
            result.tuple_count(),
            expected.tuple_count()
        ));
    }
    if result.visible_attrs() != expected.attrs() {
        return Err(format!(
            "result attributes {:?}, the flat oracle has {:?}",
            result.visible_attrs(),
            expected.attrs()
        ));
    }
    if let Some(flat) = expected.flatten() {
        let got = materialize(result).map_err(|e| e.to_string())?;
        if canonical(&got) != flat {
            return Err("result tuple set differs from the flat oracle's".into());
        }
    } else if !expected.is_empty() {
        for part in expected.parts() {
            if part.len() as u128 > FLATTEN_LIMIT {
                continue;
            }
            let projected = FdbEngine::new()
                .evaluate_factorised(
                    result,
                    &FactorisedQuery::default().with_projection(part.attrs().to_vec()),
                )
                .and_then(|out| materialize(&out.result))
                .map_err(|e| e.to_string())?;
            if canonical(&projected) != canonical(part) {
                return Err(format!(
                    "result projected onto {:?} differs from the flat oracle's factor",
                    part.attrs()
                ));
            }
        }
    }
    Ok(())
}

/// Checks one served outcome against the flat oracle form of its input.
pub fn check_request(
    input: &FlatProduct,
    request: &ServeRequest,
    outcome: &ServeOutcome,
) -> Result<(), String> {
    let mut expected = input.clone();
    for sel in &request.query.const_selections {
        expected.select_const(sel)?;
    }
    for &(a, b) in &request.query.equalities {
        expected.select_eq(a, b)?;
    }
    if let Some(keep) = &request.query.projection {
        expected.project(keep)?;
    }
    match outcome {
        ServeOutcome::Rep(out) => check_rep(
            &out.result,
            (out.stats.result_size, out.stats.result_tuples),
            &expected,
        ),
        ServeOutcome::Aggregate(out) => {
            let head = request
                .aggregate
                .as_ref()
                .ok_or("aggregate outcome without a head")?;
            let want = expected.aggregate(head)?;
            if out.result == want {
                Ok(())
            } else {
                Err(format!(
                    "aggregate {:?}, the flat oracle has {want:?}",
                    out.result
                ))
            }
        }
        ServeOutcome::Ordered(out) => {
            let flat = expected
                .flatten()
                .ok_or("ordered result too large for the flat oracle")?;
            let want = sort_canonical(&flat, &request.order_by)?;
            if out.rows == want {
                Ok(())
            } else {
                Err(format!(
                    "ordered rows differ from the flat sort ({} vs {} rows)",
                    out.rows.len(),
                    want.len()
                ))
            }
        }
    }
}

/// Translates a query-level aggregate head into the evaluator's kind (the
/// engine's own translation is private; the heads the workloads pose are
/// always well-formed).
fn aggregate_kind(head: &AggregateHead) -> Result<AggregateKind, String> {
    let attr = || {
        head.attr
            .ok_or_else(|| format!("{:?} needs an attribute", head.func))
    };
    Ok(match (head.func, head.distinct) {
        (AggregateFunc::Count, false) => AggregateKind::Count,
        (AggregateFunc::Count, true) => AggregateKind::CountDistinct(attr()?),
        (AggregateFunc::Sum, false) => AggregateKind::Sum(attr()?),
        (AggregateFunc::Sum, true) => AggregateKind::SumDistinct(attr()?),
        (AggregateFunc::Avg, false) => AggregateKind::Avg(attr()?),
        (AggregateFunc::Avg, true) => AggregateKind::AvgDistinct(attr()?),
        (AggregateFunc::Min, false) => AggregateKind::Min(attr()?),
        (AggregateFunc::Max, false) => AggregateKind::Max(attr()?),
        (func, true) => return Err(format!("{func:?}(DISTINCT) is not a valid head")),
    })
}

/// The benchmark's own memo of optimised plans per request shape, standing
/// in for the server's `PlanCache` during replay: the replay runs the
/// optimiser exactly when the entry point reported a cache miss, and
/// otherwise reuses the plan it optimised the last time the shape missed.
#[derive(Default)]
pub struct PlanMemo {
    plans: Mutex<HashMap<String, Arc<OptimizedPlan>>>,
}

impl PlanMemo {
    /// The request's shape: everything but its selection constants — what
    /// the server's plan cache keys on, minus the tree fingerprint.
    pub fn shape(request: &ServeRequest) -> String {
        let skeleton: Vec<_> = request
            .query
            .const_selections
            .iter()
            .map(|s| (s.attr, s.op))
            .collect();
        format!(
            "{:?}|{:?}|{:?}|{:?}|{:?}|{:?}",
            request.rep,
            request.query.equalities,
            skeleton,
            request.query.projection,
            request.aggregate,
            request.order_by
        )
    }
}

/// Replays one factorised request through the public layer functions the
/// engine calls, in the engine's order — optimise (when the entry point
/// missed the plan cache) → assemble / `final_tree` /
/// `plan_chain_restructure` / `simplified` → `clone` →
/// `execute_presimplified_ctx` or `execute_aggregate_presimplified_ctx` →
/// `materialize_ordered_ctx` → `s_cost` → `size` / `tuple_count` — each
/// under its own span, and compares the result with the entry point's.
pub fn replay_request(
    db: &SharedDatabase,
    request: &ServeRequest,
    outcome: ServeOutcome,
    memo: &PlanMemo,
    rec: &mut Recorder,
    tally: &mut Tally,
) -> Result<(), String> {
    let err = |e: FdbError| e.to_string();
    let stats = outcome.stats();
    tally.opt_ns += stats.optimisation_time.as_nanos() as u64;
    tally.exec_ns += stats.execution_time.as_nanos() as u64;
    tally.chain_heads += stats.chain_heads;
    tally.flat_fallbacks += stats.flat_head_fallbacks;
    let missed = stats.plan_cache_misses > 0;
    let reported = (stats.result_size, stats.result_tuples);
    // Keep only what the comparison needs and free the rest before the
    // replay allocates: ordered rows run to megabytes, and a replay that
    // found them still allocated would run in a warmer heap than the entry
    // point did.
    let entry = match outcome {
        ServeOutcome::Rep(out) => Want::Rep(out.result),
        ServeOutcome::Aggregate(out) => Want::Aggregate(out.result),
        ServeOutcome::Ordered(out) => Want::Rows(RowsDigest::of(&out.rows, out.strategy)),
    };

    let ctx = ExecCtx::new(&request.limits);
    let input = db
        .get(request.rep)
        .ok_or("request names an unknown representation")?;
    let query = &request.query;

    // Optimise exactly when the entry point did (it reported a cache miss);
    // otherwise reuse the plan of this shape's last miss.
    let shape = PlanMemo::shape(request);
    let remembered = memo
        .plans
        .lock()
        .expect("plan memo lock")
        .get(&shape)
        .cloned();
    let optimise = || ExhaustiveOptimizer::new().optimize(input.tree(), &query.equalities);
    let optimised = if missed {
        let plan = rec.span("plan.exhaustive", optimise).map_err(err)?;
        tally.exhaustive_states += plan.explored_states as u64;
        tally.exhaustive_cost += plan.cost.max_intermediate;
        // Calibration beside the request path: the greedy optimiser on the
        // same shape (the engine default is exhaustive, so this span is
        // never a child of the request).
        let greedy = rec
            .detached("plan.greedy", || {
                GreedyOptimizer::new().optimize(input.tree(), &query.equalities)
            })
            .map_err(err)?;
        tally.greedy_cost += greedy.cost.max_intermediate;
        let plan = Arc::new(plan);
        memo.plans
            .lock()
            .expect("plan memo lock")
            .insert(shape, Arc::clone(&plan));
        plan
    } else if let Some(plan) = remembered {
        plan
    } else {
        // A hit on a shape cached during set-up or the check phase, before
        // the replay saw it miss: optimise outside every span.
        let plan = Arc::new(optimise().map_err(err)?);
        memo.plans
            .lock()
            .expect("plan memo lock")
            .insert(shape, Arc::clone(&plan));
        plan
    };

    // Assemble the full plan the way the engine does.
    let head_attrs: &[_] = match &request.aggregate {
        Some(head) => &head.group_by,
        None => &request.order_by,
    };
    let assemble = rec.open("plan.simplify");
    let mut plan = FPlan::empty();
    for sel in &query.const_selections {
        plan.push(FPlanOp::SelectConst {
            attr: sel.attr,
            op: sel.op,
            value: sel.value,
        });
    }
    plan.extend(optimised.plan.clone());
    if let Some(keep) = &query.projection {
        plan.push(FPlanOp::Project(keep.iter().copied().collect()));
    }
    let has_head = request.aggregate.is_some() || !request.order_by.is_empty();
    let pre_head_tree = if has_head {
        Some(plan.final_tree(input.tree()).map_err(err)?)
    } else {
        None
    };
    rec.close(assemble);
    let mut on_chain = true;
    if let (Some(tree), false) = (&pre_head_tree, head_attrs.is_empty()) {
        let decision = rec
            .span("plan.chain", || plan_chain_restructure(tree, head_attrs))
            .map_err(err)?;
        on_chain = decision.strategy != ChainStrategy::FlatSort;
        if decision.strategy == ChainStrategy::Restructure {
            plan.extend(decision.plan);
        }
    }
    let simplified = rec.span("plan.simplify", || plan.simplified(input.tree()));

    match (entry, &request.aggregate) {
        (Want::Aggregate(want), Some(head)) => {
            let kind = aggregate_kind(head)?;
            let result = if on_chain {
                rec.span("frep.aggregate", || {
                    simplified.execute_aggregate_presimplified_ctx(
                        &input,
                        kind,
                        &head.group_by,
                        &ctx,
                    )
                })
                .map_err(err)?
                .0
            } else {
                let mut grouped = rec.span("frep.clone", || FRep::clone(&input));
                rec.span("frep.fuse", || {
                    simplified.execute_presimplified_ctx(&mut grouped, &ctx)
                })
                .map_err(err)?;
                tally.fuse_singletons += (input.size() + grouped.size()) as u64;
                rec.span("frep.aggregate", || {
                    fdb_frep::aggregate::by_enumeration(&grouped, kind, &head.group_by)
                })
                .map_err(err)?
            };
            let tree = pre_head_tree.as_ref().expect("aggregates have a head");
            rec.span("ftree.s_cost", || s_cost(tree)).map_err(err)?;
            if result != want {
                return Err("replayed aggregate differs".into());
            }
        }
        (entry @ (Want::Rep(_) | Want::Rows(_)), None) => {
            let mut result = rec.span("frep.clone", || FRep::clone(&input));
            rec.span("frep.fuse", || {
                simplified.execute_presimplified_ctx(&mut result, &ctx)
            })
            .map_err(err)?;
            let rows = match entry {
                Want::Rows(_) => Some(
                    rec.span("frep.enumerate", || {
                        materialize_ordered_ctx(&result, &request.order_by, &ctx)
                    })
                    .map_err(err)?,
                ),
                _ => None,
            };
            rec.span("ftree.s_cost", || s_cost(result.tree()))
                .map_err(err)?;
            let counts = rec.span("frep.stats", || (result.size(), result.tuple_count()));
            tally.fuse_singletons += (input.size() + counts.0) as u64;
            match (entry, rows) {
                (Want::Rep(want), None) => {
                    if !result.store_identical(&want) {
                        return Err("replayed representation is not store-identical".into());
                    }
                }
                (Want::Rows(want), Some((rows, strategy))) => {
                    tally.enumerated_tuples += rows.len() as u64;
                    if RowsDigest::of(&rows, strategy) != want {
                        return Err("replayed ordered rows differ".into());
                    }
                }
                _ => unreachable!("rows are enumerated exactly for ordered outcomes"),
            }
            if counts != reported {
                return Err("replayed result counts differ".into());
            }
        }
        _ => return Err("outcome kind does not match the request's head".into()),
    }
    Ok(())
}

/// What the replay compares its result with.
enum Want {
    Rep(FRep),
    Aggregate(fdb_frep::AggregateResult),
    Rows(RowsDigest),
}

/// Ordered rows reduced to their count, the strategy that produced them and
/// an order-sensitive FNV-1a hash of every value.
#[derive(PartialEq)]
struct RowsDigest {
    rows: usize,
    strategy: OrderStrategy,
    hash: u64,
}

impl RowsDigest {
    fn of(rows: &Relation, strategy: OrderStrategy) -> Self {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for row in rows.rows() {
            for value in row {
                hash = (hash ^ value.raw()).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        RowsDigest {
            rows: rows.len(),
            strategy,
            hash,
        }
    }
}

/// One throughput pass: the request list through `FdbServer::serve_batch`
/// in batches of [`BATCH`].  The clock runs only inside `serve_batch`;
/// cloning the requests and comparing the outcomes happen between batches.
pub fn serve_pass(server: &FdbServer, requests: &[ServeRequest], expected: &[Observed]) -> Pass {
    let mut busy = Duration::ZERO;
    let mut failed = 0u64;
    for (chunk, expect) in requests.chunks(BATCH).zip(expected.chunks(BATCH)) {
        let batch = chunk.to_vec();
        let t = Instant::now();
        let outcomes = std::hint::black_box(server.serve_batch(batch));
        busy += t.elapsed();
        for (outcome, expect) in outcomes.iter().zip(expect) {
            let ok = outcome.as_ref().is_ok_and(|out| observe(out) == *expect);
            failed += u64::from(!ok);
        }
    }
    Pass {
        busy,
        ops: requests.len() as u64,
        failed,
    }
}

/// Builds the oracle's flat forms; runs once, in the check phase.
type OracleBuilder = Box<dyn FnOnce() -> Vec<(RepId, FlatProduct)> + Send>;

/// Registered representations with the oracle's flat form of each, built
/// on first use — by the check phase, so oracle work never counts as
/// set-up, and the builder's captures are freed once it has run.
pub struct OracleInputs {
    build: Mutex<Option<OracleBuilder>>,
    built: OnceLock<Vec<(RepId, FlatProduct)>>,
}

impl OracleInputs {
    /// Wraps the closure that builds the flat forms.
    pub fn new(build: impl FnOnce() -> Vec<(RepId, FlatProduct)> + Send + 'static) -> Self {
        OracleInputs {
            build: Mutex::new(Some(Box::new(build))),
            built: OnceLock::new(),
        }
    }

    /// The flat form of a registered representation.
    pub fn of(&self, id: RepId) -> Result<&FlatProduct, String> {
        self.built
            .get_or_init(|| {
                let build = self.build.lock().expect("oracle builder lock").take();
                build.expect("the builder runs once")()
            })
            .iter()
            .find(|(rep, _)| *rep == id)
            .map(|(_, flat)| flat)
            .ok_or_else(|| format!("no oracle input for {id:?}"))
    }
}

/// Oracle verdicts per distinct request.  The oracle checks each distinct
/// request once; a repeat is compared with the verified first occurrence
/// (the engine is deterministic, and the timed phases compare every op
/// with its recorded expectation anyway).
#[derive(Default)]
pub struct Verified {
    /// What each request already checked returned, by its `Debug` form.
    seen: Mutex<HashMap<String, Observed>>,
}

impl Verified {
    /// Checks a request: through the oracle if it is the first of its kind,
    /// else against that first occurrence.
    pub fn check(
        &self,
        input: &FlatProduct,
        request: &ServeRequest,
        outcome: &ServeOutcome,
    ) -> Result<(), String> {
        let mut seen = self.seen.lock().expect("verdict lock");
        match seen.entry(format!("{request:?}")) {
            Entry::Occupied(first) if *first.get() == observe(outcome) => Ok(()),
            Entry::Occupied(_) => Err("differs from an identical request checked earlier".into()),
            Entry::Vacant(slot) => {
                check_request(input, request, outcome)?;
                slot.insert(observe(outcome));
                Ok(())
            }
        }
    }
}

/// Serves the first request of every distinct shape, filling the server's
/// plan cache.
pub fn warm_up(server: &FdbServer, requests: &[ServeRequest]) {
    let mut seen = std::collections::HashSet::new();
    for request in requests {
        if seen.insert(PlanMemo::shape(request)) {
            let _ = server.serve_one(request);
        }
    }
}

/// A request list served by one `FdbServer` — the shape of `serve_hot`,
/// `serve_cold` and `analytics_heads`, which differ in what they register
/// and request, and in whether the plan cache survives a round.
pub struct ServeWorkload {
    engine: FdbEngine,
    db: Arc<SharedDatabase>,
    server: FdbServer,
    threads: usize,
    requests: Vec<ServeRequest>,
    oracle: OracleInputs,
    verified: Verified,
    memo: PlanMemo,
    /// Build a fresh server (fresh `PlanCache`) before every round and
    /// pass, so every request misses.
    cold: bool,
    /// Counters of the servers already replaced.
    retired: CacheCounters,
}

impl ServeWorkload {
    /// Builds the server over `db` with the benchmark's thread count.
    pub fn new(
        db: SharedDatabase,
        requests: Vec<ServeRequest>,
        oracle: OracleInputs,
        cold: bool,
    ) -> Self {
        let engine = FdbEngine::new();
        let db = Arc::new(db);
        let threads = crate::host::bench_threads();
        ServeWorkload {
            engine,
            server: FdbServer::new(engine, Arc::clone(&db), threads),
            db,
            threads,
            verified: Verified::default(),
            requests,
            oracle,
            memo: PlanMemo::default(),
            cold,
            retired: CacheCounters::default(),
        }
    }

    /// Serves one request of every shape so the plan cache is warm.
    pub fn warm_up(&self) {
        warm_up(&self.server, &self.requests);
    }
}

impl Workload for ServeWorkload {
    type Outcome = ServeOutcome;

    fn op_count(&self) -> usize {
        self.requests.len()
    }

    fn begin_round(&mut self) {
        if self.cold {
            self.retired = self.retired + cache_counters(&self.server.stats());
            self.server = FdbServer::new(self.engine, Arc::clone(&self.db), self.threads);
        }
    }

    fn run_op(&self, op: usize) -> Result<ServeOutcome, FdbError> {
        self.server.serve_one(&self.requests[op])
    }

    fn observe(&self, outcome: &ServeOutcome) -> Observed {
        observe(outcome)
    }

    fn check_op(&self, op: usize, outcome: &ServeOutcome) -> Result<(), String> {
        let request = &self.requests[op];
        self.verified
            .check(self.oracle.of(request.rep)?, request, outcome)
    }

    fn run_pass(&self, _threads: usize, expected: &[Observed]) -> Pass {
        serve_pass(&self.server, &self.requests, expected)
    }

    fn replay_op(
        &self,
        op: usize,
        outcome: ServeOutcome,
        rec: &mut Recorder,
        tally: &mut Tally,
    ) -> Result<(), String> {
        replay_request(
            &self.db,
            &self.requests[op],
            outcome,
            &self.memo,
            rec,
            tally,
        )
    }

    fn cache_counters(&self) -> CacheCounters {
        self.retired + cache_counters(&self.server.stats())
    }
}
