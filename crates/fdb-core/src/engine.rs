//! The FDB engine: one evaluation pipeline, on flat or factorised input.
//!
//! The paper's engine is a single pipeline — optimise an f-plan, run it
//! (constant selections first, restructuring and equality selections next,
//! projection last; Section 4), read the result — and the follow-up paper's
//! heads are a different consumer at the end of the *same* plan, after
//! extra restructuring for an ordering head.  [`FdbEngine::run`] is
//! that pipeline, and the only way a query executes.  Its five stages each
//! exist once:
//!
//! 1. **Source** — the only stage that differs by input ([`Source`]).  Flat
//!    input: find an f-tree of minimum `s(T)` (`fdb_plan::optimal_ftree`) and
//!    build the factorised result directly over it; the body plan is the
//!    projection.  Factorised input: obtain the optimised plan for the
//!    equality conditions — through the [`PlanCache`] when one is supplied —
//!    and wrap it as constant selections + optimised plan + projection.
//! 2. **Head planning** — an `ORDER BY` head ([`Head`]) wants its
//!    attributes on a root path of the body plan's final f-tree; the costed
//!    chain planner (`fdb_plan::plan_chain_restructure`) either appends the
//!    lifting swaps to the plan or refuses, and the rows are sorted flat.
//!    An aggregate head, grouped or not, needs no planning.
//! 3. **Simplify** — one peephole pass ([`FPlan::simplified`]).
//! 4. **Sink** — emit one arena (the whole plan runs as one overlay
//!    program), fold an aggregate on the overlay without emitting anything
//!    (a grouped one as a keyed fold, wherever its attributes sit), or
//!    enumerate the emitted result in the canonical order.
//! 5. **Stats** — one [`EvalStats`] record for every kind of outcome.
//!
//! Every stage runs under the caller's [`ExecCtx`], so deadlines, budgets and
//! cancellation bound flat and factorised requests alike.
//! [`FdbEngine::evaluate_flat`], [`FdbEngine::evaluate_factorised`] and
//! [`FdbEngine::evaluate_flat_via_operators`] are thin typed wrappers for
//! headless, ungoverned requests.

use crate::serving::PlanCache;
use fdb_common::{
    AggregateFunc, AggregateHead, AttrId, ConstSelection, ExecCtx, FdbError, Query, Result,
};
use fdb_frep::{build_frep_ctx, ops, AggregateKind, AggregateResult, FRep, OrderStrategy};
use fdb_ftree::s_cost;
use fdb_plan::{
    plan_chain_restructure, ExhaustiveOptimizer, FPlan, FPlanOp, GreedyOptimizer, OptimizedPlan,
};
use fdb_relation::{Database, Relation};
use std::borrow::Cow;
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Which f-plan optimiser the engine uses for queries over factorised input.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum OptimizerKind {
    /// Exhaustive Dijkstra search over reachable f-trees (Section 4.2).
    #[default]
    Exhaustive,
    /// Greedy heuristic (Section 4.3).
    Greedy,
}

/// A query over a factorised input: a conjunction of equality conditions
/// between attributes of the representation, optional selections with
/// constants, and an optional projection.
#[derive(Clone, Debug, Default)]
pub struct FactorisedQuery {
    /// Equality conditions `A = B`.
    pub equalities: Vec<(AttrId, AttrId)>,
    /// Selections with constants `A θ c`.
    pub const_selections: Vec<ConstSelection>,
    /// Projection list (`None` keeps every attribute).
    pub projection: Option<Vec<AttrId>>,
}

impl FactorisedQuery {
    /// A query with only equality conditions.
    pub fn equalities(equalities: Vec<(AttrId, AttrId)>) -> Self {
        FactorisedQuery {
            equalities,
            ..Default::default()
        }
    }

    /// Adds a selection with a constant.
    pub fn with_const_selection(mut self, sel: ConstSelection) -> Self {
        self.const_selections.push(sel);
        self
    }

    /// Sets the projection list.
    pub fn with_projection(mut self, attrs: Vec<AttrId>) -> Self {
        self.projection = Some(attrs);
        self
    }
}

/// Statistics of one evaluation.
#[derive(Clone, Debug, Default)]
pub struct EvalStats {
    /// Time spent in query optimisation (f-tree search or f-plan search).
    pub optimisation_time: Duration,
    /// Time spent building or transforming the factorised representation.
    pub execution_time: Duration,
    /// The cost `s(T)` of the result's f-tree.  An aggregate builds no
    /// result; it reports the tree its body plan ends on.
    pub result_tree_cost: f64,
    /// The f-plan cost `s(f)` (maximum intermediate cost); equals the result
    /// tree cost for evaluation on flat input.
    pub plan_cost: f64,
    /// Number of singletons in the result representation.
    pub result_size: usize,
    /// Number of tuples in the represented result, modulo 2¹²⁸ — the value
    /// `COUNT(*)` returns ([`FRep::tuple_count`]); sums of it wrap the same.
    pub result_tuples: u128,
    /// The executed f-plan (empty for direct construction on flat input).
    pub plan: FPlan,
    /// Number of optimiser states explored (for the exhaustive search, the
    /// states settled before its answer was proven).
    pub explored_states: usize,
    /// Queries this statistics record covers: 1 for a single evaluation;
    /// serving-layer reports that aggregate a batch sum the records and
    /// report the total here.
    pub queries_served: u64,
    /// Plan-cache hits (the optimiser was skipped; see
    /// `serving::PlanCache`).  0 for uncached evaluation paths.
    pub plan_cache_hits: u64,
    /// Plan-cache misses (the optimiser ran and its plan was published).
    /// 0 for uncached evaluation paths.
    pub plan_cache_misses: u64,
    /// Plan-cache entries evicted to make room for this evaluation's
    /// published plan (the cache is bounded; see `serving::PlanCache`).
    /// 0 for uncached evaluation paths and for hits.
    pub plan_cache_evictions: u64,
    /// `ORDER BY` heads satisfied on a root path of the f-tree — either
    /// already there or brought there by a costed swap chain
    /// (`fdb_plan::plan_chain_restructure`).  0 for every other request: an
    /// aggregate, grouped or not, is one fold wherever its attributes sit.
    pub chain_heads: u64,
    /// `ORDER BY` heads that fell back to a flat sort because no root-path
    /// restructuring exists at acceptable cost.
    pub flat_head_fallbacks: u64,
}

impl EvalStats {
    /// The execution counters as aligned `name value` rows.  Reports that
    /// show per-evaluation statistics print this instead of improvising
    /// their own lines.
    pub fn counters_table(&self) -> String {
        let rows: [(&str, String); 8] = [
            ("optimisation time", format!("{:?}", self.optimisation_time)),
            ("execution time", format!("{:?}", self.execution_time)),
            ("plan cost s(f)", format!("{:.2}", self.plan_cost)),
            ("result singletons", self.result_size.to_string()),
            ("result tuples", self.result_tuples.to_string()),
            ("explored states", self.explored_states.to_string()),
            (
                "queries served / cache hits / misses / evictions",
                format!(
                    "{} / {} / {} / {}",
                    self.queries_served,
                    self.plan_cache_hits,
                    self.plan_cache_misses,
                    self.plan_cache_evictions
                ),
            ),
            (
                "chain heads / flat fallbacks",
                format!("{} / {}", self.chain_heads, self.flat_head_fallbacks),
            ),
        ];
        let width = rows.iter().map(|(n, _)| n.len()).max().unwrap_or(0);
        let mut out = String::new();
        for (name, value) in rows {
            out.push_str(&format!("{name:<width$}  {value}\n"));
        }
        out
    }
}

impl fmt::Display for EvalStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.counters_table())
    }
}

/// The result of an aggregate evaluation: the aggregate value(s) plus
/// statistics.  No result representation is materialised — that is the
/// point of the aggregate path — so `stats.result_size`/`result_tuples`
/// are 0.
#[derive(Clone, Debug)]
pub struct AggregateOutput {
    /// The aggregate result (a scalar or one row per group).
    pub result: AggregateResult,
    /// Evaluation statistics.
    pub stats: EvalStats,
}

/// The result of an ordered evaluation (`ORDER BY`): the flat result rows
/// in the canonical order — sorted by the ordering attributes in request
/// order, ties broken by the remaining output columns in ascending
/// attribute-id order — plus which strategy produced them and statistics.
/// Both strategies return bit-for-bit identical rows
/// ([`fdb_frep::OrderStrategy`] is observability, not semantics); the
/// strategy is also mirrored in [`EvalStats::chain_heads`] /
/// [`EvalStats::flat_head_fallbacks`].
#[derive(Clone, Debug)]
pub struct OrderedOutput {
    /// The result rows, in the canonical total order (columns in ascending
    /// attribute-id order, like every materialised relation).
    pub rows: Relation,
    /// Whether the rows came off the priority cursor of a root-path chain
    /// or from a full flat sort.
    pub strategy: OrderStrategy,
    /// Evaluation statistics.
    pub stats: EvalStats,
}

/// The result of an evaluation: the factorised representation plus
/// statistics.
#[derive(Clone, Debug)]
pub struct EvalOutput {
    /// The factorised query result.
    pub result: FRep,
    /// Evaluation statistics.
    pub stats: EvalStats,
}

impl EvalOutput {
    /// Streams the result tuples with the constant-delay arena cursor
    /// (columns in ascending attribute-id order) without materialising the
    /// flat relation.
    pub fn tuples(&self) -> fdb_frep::TupleCursor<'_> {
        fdb_frep::TupleCursor::new(&self.result)
    }
}

/// What one request evaluated to — the kind follows the request's [`Head`].
#[derive(Clone, Debug)]
pub enum ServeOutcome {
    /// A factorised result representation (no head).
    Rep(EvalOutput),
    /// An aggregate value (aggregate head).
    Aggregate(AggregateOutput),
    /// Flat rows in the canonical order (`ORDER BY` head).
    Ordered(OrderedOutput),
}

impl ServeOutcome {
    /// The evaluation statistics of any outcome kind.
    pub fn stats(&self) -> &EvalStats {
        match self {
            ServeOutcome::Rep(out) => &out.stats,
            ServeOutcome::Aggregate(out) => &out.stats,
            ServeOutcome::Ordered(out) => &out.stats,
        }
    }
}

/// Where a request's input comes from — stage 1 of [`FdbEngine::run`], the
/// only stage that differs between the two.
#[derive(Clone, Copy, Debug)]
pub enum Source<'a> {
    /// A select-project-join query over a flat relational database: the
    /// optimiser finds an f-tree of the query with minimum `s(T)` and the
    /// factorised result is built directly over it, without ever
    /// materialising the flat result.  The head is [`FdbEngine::run`]'s
    /// `head` argument; the query's own `aggregate`/`order_by` fields are
    /// not consulted.
    Flat {
        /// The database to read.
        db: &'a Database,
        /// The query (relations, equalities, constant selections,
        /// projection).
        query: &'a Query,
    },
    /// A query over a factorised input (typically the result of a previous
    /// query): the optimiser — exhaustive or greedy, per
    /// [`FdbEngine::optimizer`] — produces the restructuring plan for the
    /// equality conditions.
    Factorised {
        /// The frozen input representation; never mutated.
        input: &'a FRep,
        /// The query.
        query: &'a FactorisedQuery,
        /// When supplied, the optimised plan is looked up by query shape
        /// (f-tree + operator skeleton + head, constants abstracted) and the
        /// optimiser is skipped on a hit; a miss publishes the fresh plan.
        /// An optimisation the context interrupts publishes nothing.
        cache: Option<&'a PlanCache>,
    },
}

/// The head of a request: nothing (return the representation), an aggregate
/// (return a value or one row per group), or an `ORDER BY` list (return the
/// flat rows in the canonical order).  The fields mirror
/// [`crate::ServeRequest`] and [`Query`]; setting both is rejected by
/// [`FdbEngine::run`].
#[derive(Clone, Copy, Debug, Default)]
pub struct Head<'a> {
    /// Evaluate as an aggregate instead of returning a representation.
    pub aggregate: Option<&'a AggregateHead>,
    /// Return the result rows ordered by these attributes; empty means
    /// unordered.
    pub order_by: &'a [AttrId],
}

/// Translates a query-level aggregate head into the evaluator's kind.
fn aggregate_kind(head: &AggregateHead) -> Result<AggregateKind> {
    if head.distinct {
        let Some(a) = head.attr else {
            return Err(FdbError::InvalidInput {
                detail: "DISTINCT aggregate requires an attribute".into(),
            });
        };
        return match head.func {
            AggregateFunc::Count => Ok(AggregateKind::CountDistinct(a)),
            AggregateFunc::Sum => Ok(AggregateKind::SumDistinct(a)),
            AggregateFunc::Avg => Ok(AggregateKind::AvgDistinct(a)),
            AggregateFunc::Min | AggregateFunc::Max => Err(FdbError::InvalidInput {
                detail: format!(
                    "{:?}(DISTINCT) is meaningless: MIN/MAX are insensitive to multiplicity",
                    head.func
                ),
            }),
        };
    }
    match (head.func, head.attr) {
        (AggregateFunc::Count, _) => Ok(AggregateKind::Count),
        (AggregateFunc::Sum, Some(a)) => Ok(AggregateKind::Sum(a)),
        (AggregateFunc::Min, Some(a)) => Ok(AggregateKind::Min(a)),
        (AggregateFunc::Max, Some(a)) => Ok(AggregateKind::Max(a)),
        (AggregateFunc::Avg, Some(a)) => Ok(AggregateKind::Avg(a)),
        (func, None) => Err(FdbError::InvalidInput {
            detail: format!("aggregate {func:?} requires an attribute"),
        }),
    }
}

/// The body plan of a request: constant selections first (they are cheap
/// and only shrink the representation), then the restructuring and equality
/// selections, and the projection last — the operator ordering FDB uses
/// (Section 4).
fn body_plan(
    const_selections: &[ConstSelection],
    structural: FPlan,
    projection: Option<&[AttrId]>,
) -> FPlan {
    let mut plan = FPlan::empty();
    for sel in const_selections {
        plan.push(FPlanOp::SelectConst {
            attr: sel.attr,
            op: sel.op,
            value: sel.value,
        });
    }
    plan.extend(structural);
    if let Some(projection) = projection {
        plan.push(FPlanOp::Project(projection.iter().copied().collect()));
    }
    plan
}

/// What stage 1 hands the rest of the pipeline.
struct Sourced<'a> {
    /// The representation the plan runs on: built and owned (flat input) or
    /// borrowed from the caller (factorised input; every sink reads it in
    /// place, and only an empty plan's result is a copy of it).
    rep: Cow<'a, FRep>,
    /// The body plan (see [`body_plan`]).
    plan: FPlan,
    /// F-tree search (flat) or f-plan search / cache lookup (factorised).
    optimisation_time: Duration,
    /// Building the representation from flat input; zero otherwise.
    build_time: Duration,
    /// `s(T)` of the chosen f-tree (flat) or `s(f)` of the optimised plan.
    plan_cost: f64,
    explored_states: usize,
    cache: CacheCounters,
}

/// Which way a plan-cache lookup went, for the stats; all zero without a
/// cache.
#[derive(Clone, Copy, Default)]
struct CacheCounters {
    hits: u64,
    misses: u64,
    evictions: u64,
}

/// What stage 4 produced, before the stats are attached.
enum Sunk {
    Rep(FRep),
    Aggregate(AggregateResult),
    Ordered {
        rows: Relation,
        strategy: OrderStrategy,
        result: FRep,
    },
}

/// The FDB query engine.
#[derive(Clone, Copy, Debug, Default)]
pub struct FdbEngine {
    /// Which optimiser to use for queries over factorised input.
    pub optimizer: OptimizerKind,
}

impl FdbEngine {
    /// Creates an engine with the exhaustive optimiser.
    pub fn new() -> Self {
        FdbEngine::default()
    }

    /// Creates an engine using the greedy optimiser.
    pub fn greedy() -> Self {
        FdbEngine {
            optimizer: OptimizerKind::Greedy,
        }
    }

    /// Runs the configured optimiser on the equality conditions.  The
    /// exhaustive search honours the context's deadline and cancellation
    /// flag; the greedy heuristic is polynomial and runs to completion.
    fn optimise_equalities(
        &self,
        tree: &fdb_ftree::FTree,
        equalities: &[(AttrId, AttrId)],
        ctx: &ExecCtx,
    ) -> Result<OptimizedPlan> {
        match self.optimizer {
            OptimizerKind::Exhaustive => {
                ExhaustiveOptimizer::new().optimize_ctx(tree, equalities, ctx)
            }
            OptimizerKind::Greedy => GreedyOptimizer::new().optimize(tree, equalities),
        }
    }

    /// Obtains the optimised plan for a factorised query, through the plan
    /// cache when one is supplied.  On a hit the optimiser is skipped
    /// entirely; on a miss the freshly optimised plan is published under
    /// the query-shape key (constants abstracted — see
    /// [`crate::serving::PlanCache`]).  The key covers the request's head,
    /// so requests with the same structural body but different heads never
    /// share an entry.  An optimisation the context interrupts publishes
    /// nothing.
    fn resolve_factorised_plan(
        &self,
        input: &FRep,
        query: &FactorisedQuery,
        cache: Option<&PlanCache>,
        head: Head<'_>,
        ctx: &ExecCtx,
    ) -> Result<(Arc<OptimizedPlan>, CacheCounters)> {
        let optimise = || {
            self.optimise_equalities(input.tree(), &query.equalities, ctx)
                .map(Arc::new)
        };
        let Some(cache) = cache else {
            return Ok((optimise()?, CacheCounters::default()));
        };
        let key = crate::serving::plan_key(self, input.tree(), query, head);
        if let Some(plan) = cache.lookup(&key) {
            let hit = CacheCounters {
                hits: 1,
                ..Default::default()
            };
            return Ok((plan, hit));
        }
        let plan = optimise()?;
        let miss = CacheCounters {
            misses: 1,
            evictions: cache.insert(key, Arc::clone(&plan)),
            ..Default::default()
        };
        Ok((plan, miss))
    }

    /// Stage 1 of [`FdbEngine::run`]: the representation to run on and the
    /// body plan for it.
    fn resolve_source<'a>(
        &self,
        source: Source<'a>,
        head: Head<'_>,
        ctx: &ExecCtx,
    ) -> Result<Sourced<'a>> {
        let opt_start = Instant::now();
        match source {
            Source::Flat { db, query } => {
                let search =
                    fdb_plan::optimal_ftree(db.catalog(), query, |r| db.rel_len(r) as u64)?;
                let optimisation_time = opt_start.elapsed();
                let build_start = Instant::now();
                let rep = build_frep_ctx(db, query, &search.tree, ctx)?;
                Ok(Sourced {
                    rep: Cow::Owned(rep),
                    plan: body_plan(&[], FPlan::empty(), query.projection.as_deref()),
                    optimisation_time,
                    build_time: build_start.elapsed(),
                    plan_cost: search.cost,
                    explored_states: search.explored_states,
                    cache: CacheCounters::default(),
                })
            }
            Source::Factorised {
                input,
                query,
                cache,
            } => {
                let (optimised, cache) =
                    self.resolve_factorised_plan(input, query, cache, head, ctx)?;
                Ok(Sourced {
                    rep: Cow::Borrowed(input),
                    plan: body_plan(
                        &query.const_selections,
                        optimised.plan.clone(),
                        query.projection.as_deref(),
                    ),
                    optimisation_time: opt_start.elapsed(),
                    build_time: Duration::ZERO,
                    plan_cost: optimised.cost.max_intermediate,
                    explored_states: optimised.explored_states,
                    cache,
                })
            }
        }
    }

    /// Evaluates one request: the single pipeline every query takes (see
    /// the module docs for the five stages).
    ///
    /// Whatever the source and head, the plan — body, then any chain swaps
    /// an `ORDER BY` head needs — is simplified once and executes as **one**
    /// overlay program (`fdb_frep::ops::fuse`): a k-operator plan, selections
    /// and projections included, pays one arena emission instead of k, and
    /// an aggregate head pays none: grouped or not, it folds over the
    /// overlay, with the plan's trailing selections folded into the
    /// accumulation as entry filters.
    /// Either way a factorised input is read in place, never cloned: the
    /// overlay references it and the emission writes a fresh arena.
    /// [`EvalStats`] reports what happened: the executed `plan`, and
    /// `chain_heads` / `flat_head_fallbacks` for an `ORDER BY` head's
    /// strategy.
    ///
    /// Every data-dependent loop charges `ctx` — the flat build, the overlay
    /// sweeps and emission, the aggregate fold, the ordered enumeration and
    /// sort — so a deadline, budget or cancellation flag aborts the
    /// evaluation with a structured error and the input untouched.
    pub fn run(&self, source: Source<'_>, head: Head<'_>, ctx: &ExecCtx) -> Result<ServeOutcome> {
        let kind = match head.aggregate {
            Some(aggregate) if !head.order_by.is_empty() => {
                return Err(FdbError::InvalidInput {
                    detail: format!(
                        "a request cannot carry both an aggregate head ({aggregate:?}) and ORDER BY"
                    ),
                });
            }
            Some(aggregate) => Some((aggregate_kind(aggregate)?, &aggregate.group_by[..])),
            None => None,
        };

        // (1) Source.
        let Sourced {
            rep,
            mut plan,
            optimisation_time,
            build_time,
            plan_cost,
            explored_states,
            cache,
        } = self.resolve_source(source, head, ctx)?;

        // (2) Head planning.  The head's result tree is known from
        // simulation — and for ORDER BY it tells us which swaps bring the
        // ordering attributes onto a root path, or that no acceptable swap
        // chain exists and the rows are sorted flat.
        let body_tree = (kind.is_some() || !head.order_by.is_empty())
            .then(|| plan.final_tree(rep.tree()))
            .transpose()?;
        if let Some(tree) = body_tree.as_ref().filter(|_| !head.order_by.is_empty()) {
            plan.extend(plan_chain_restructure(tree, head.order_by)?.plan);
        }

        // (3) Simplify once.
        let simplified = plan.simplified(rep.tree());

        // (4) Sink.
        let exec_start = Instant::now();
        let mut head_on_chain = None;
        let sunk = match kind {
            Some((kind, group_by)) => {
                let (result, _) =
                    simplified.execute_aggregate_presimplified_ctx(&rep, kind, group_by, ctx)?;
                Sunk::Aggregate(result)
            }
            _ => {
                // A built representation with nothing to run is the result;
                // anything else reads its input in place.
                let result = if simplified.is_empty() {
                    rep.into_owned()
                } else {
                    simplified.emit_presimplified_ctx(&rep, ctx)?
                };
                if head.order_by.is_empty() {
                    Sunk::Rep(result)
                } else {
                    // Off the priority cursor when the attributes sit on a
                    // root path of the emitted tree, a flat sort otherwise;
                    // the cursor's verdict is the one the stats report.
                    let (rows, strategy) =
                        fdb_frep::materialize_ordered_ctx(&result, head.order_by, ctx)?;
                    head_on_chain = Some(strategy == OrderStrategy::Chain);
                    Sunk::Ordered {
                        rows,
                        strategy,
                        result,
                    }
                }
            }
        };
        let execution_time = build_time + exec_start.elapsed();

        // (5) Stats.
        let emitted = match &sunk {
            Sunk::Rep(result) | Sunk::Ordered { result, .. } => Some(result),
            Sunk::Aggregate(_) => None,
        };
        let result_tree = emitted
            .map(FRep::tree)
            .or(body_tree.as_ref())
            .expect("an aggregate head simulates its body plan's tree");
        let stats = EvalStats {
            optimisation_time,
            execution_time,
            result_tree_cost: s_cost(result_tree)?,
            plan_cost,
            result_size: emitted.map_or(0, FRep::size),
            result_tuples: emitted.map_or(0, FRep::tuple_count),
            plan,
            explored_states,
            queries_served: 1,
            plan_cache_hits: cache.hits,
            plan_cache_misses: cache.misses,
            plan_cache_evictions: cache.evictions,
            chain_heads: u64::from(head_on_chain == Some(true)),
            flat_head_fallbacks: u64::from(head_on_chain == Some(false)),
        };
        Ok(match sunk {
            Sunk::Rep(result) => ServeOutcome::Rep(EvalOutput { result, stats }),
            Sunk::Aggregate(result) => ServeOutcome::Aggregate(AggregateOutput { result, stats }),
            Sunk::Ordered { rows, strategy, .. } => ServeOutcome::Ordered(OrderedOutput {
                rows,
                strategy,
                stats,
            }),
        })
    }

    /// [`FdbEngine::run`] without a head or limits, unwrapped to the
    /// representation outcome it is then certain to produce.
    fn run_headless(&self, source: Source<'_>) -> Result<EvalOutput> {
        match self.run(source, Head::default(), &ExecCtx::unlimited())? {
            ServeOutcome::Rep(out) => Ok(out),
            other => unreachable!("a headless request emits a representation, got {other:?}"),
        }
    }

    /// Evaluates a select-project-join query on a flat relational database
    /// ([`Source::Flat`], no head, no limits).
    pub fn evaluate_flat(&self, db: &Database, query: &Query) -> Result<EvalOutput> {
        self.run_headless(Source::Flat { db, query })
    }

    /// Evaluates a query over a factorised input ([`Source::Factorised`]
    /// without a plan cache, no head, no limits).
    pub fn evaluate_factorised(&self, input: &FRep, query: &FactorisedQuery) -> Result<EvalOutput> {
        self.run_headless(Source::Factorised {
            input,
            query,
            cache: None,
        })
    }

    /// Evaluates a query on flat input purely with f-plan operators: every
    /// relation is loaded as a trivially factorised representation (a chain
    /// of its attributes), the representations are multiplied together, and
    /// the query runs as a factorised request on the product.
    ///
    /// This is slower than [`FdbEngine::evaluate_flat`] (the intermediate
    /// product is large) but exercises the operator pipeline end to end; the
    /// integration tests use it to cross-check the direct construction.
    pub fn evaluate_flat_via_operators(&self, db: &Database, query: &Query) -> Result<EvalOutput> {
        query.validate(db.catalog())?;
        let mut product: Option<FRep> = None;
        for &rel in &query.relations {
            let tree =
                fdb_ftree::flat_database_ftree(db.catalog(), &[rel], |r| db.rel_len(r) as u64)?;
            // This entry point takes no context, so none governs the loads.
            let rep = build_frep_ctx(db, &Query::product(vec![rel]), &tree, &ExecCtx::unlimited())?;
            product = Some(match product {
                None => rep,
                Some(acc) => ops::product(acc, rep)?,
            });
        }
        let Some(product) = product else {
            return Err(FdbError::InvalidInput {
                detail: "query has no relations".into(),
            });
        };
        let body = FactorisedQuery {
            equalities: query
                .equalities
                .iter()
                .map(|eq| (eq.left, eq.right))
                .collect(),
            const_selections: query.const_selections.clone(),
            projection: query.projection.clone(),
        };
        self.run_headless(Source::Factorised {
            input: &product,
            query: &body,
            cache: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdb_common::{Catalog, ComparisonOp, QueryLimits, RelId, Value};
    use fdb_frep::materialize;
    use fdb_relation::RdbEngine;
    use std::sync::atomic::AtomicBool;

    /// The grocery database of Figure 1 (values encoded as small integers).
    fn grocery() -> (Database, Vec<RelId>) {
        let mut catalog = Catalog::new();
        let (orders, _) = catalog.add_relation("Orders", &["oid", "item"]);
        let (store, _) = catalog.add_relation("Store", &["location", "item"]);
        let (disp, _) = catalog.add_relation("Disp", &["dispatcher", "location"]);
        let (produce, _) = catalog.add_relation("Produce", &["supplier", "item"]);
        let (serve, _) = catalog.add_relation("Serve", &["supplier", "location"]);
        let mut db = Database::new(catalog);
        db.insert_raw_rows(
            orders,
            &[vec![1, 1], vec![1, 2], vec![2, 3], vec![3, 2], vec![3, 3]],
        )
        .unwrap();
        db.insert_raw_rows(
            store,
            &[
                vec![1, 1],
                vec![1, 2],
                vec![1, 3],
                vec![2, 1],
                vec![3, 1],
                vec![3, 2],
            ],
        )
        .unwrap();
        db.insert_raw_rows(disp, &[vec![1, 1], vec![1, 2], vec![2, 1], vec![3, 3]])
            .unwrap();
        db.insert_raw_rows(produce, &[vec![1, 1], vec![1, 2], vec![2, 1], vec![3, 3]])
            .unwrap();
        db.insert_raw_rows(
            serve,
            &[vec![1, 3], vec![2, 1], vec![2, 2], vec![2, 3], vec![3, 1]],
        )
        .unwrap();
        (db, vec![orders, store, disp, produce, serve])
    }

    fn q1(db: &Database, rels: &[RelId]) -> Query {
        let cat = db.catalog();
        Query::product(vec![rels[0], rels[1], rels[2]])
            .with_equality(
                cat.find_attr("Orders.item").unwrap(),
                cat.find_attr("Store.item").unwrap(),
            )
            .with_equality(
                cat.find_attr("Store.location").unwrap(),
                cat.find_attr("Disp.location").unwrap(),
            )
    }

    fn rdb_canonical(db: &Database, query: &Query) -> std::collections::BTreeSet<Vec<Value>> {
        let result = RdbEngine::new().evaluate(db, query).unwrap();
        let mut sorted = result.attrs().to_vec();
        sorted.sort_unstable();
        result.reorder_columns(&sorted).unwrap().tuple_set()
    }

    /// An ungoverned, uncached aggregate request.
    fn run_aggregate(source: Source<'_>, head: &AggregateHead) -> Result<AggregateOutput> {
        let head = Head {
            aggregate: Some(head),
            ..Head::default()
        };
        match FdbEngine::new().run(source, head, &ExecCtx::unlimited())? {
            ServeOutcome::Aggregate(out) => Ok(out),
            other => panic!("an aggregate head yields an aggregate outcome, got {other:?}"),
        }
    }

    fn factorised<'a>(input: &'a FRep, query: &'a FactorisedQuery) -> Source<'a> {
        Source::Factorised {
            input,
            query,
            cache: None,
        }
    }

    #[test]
    fn flat_evaluation_matches_rdb_on_q1() {
        let (db, rels) = grocery();
        let query = q1(&db, &rels);
        let out = FdbEngine::new().evaluate_flat(&db, &query).unwrap();
        out.result.validate().unwrap();
        assert_eq!(
            materialize(&out.result).unwrap().tuple_set(),
            rdb_canonical(&db, &query)
        );
        // Q1 admits no f-tree better than s = 2 (Example 5).
        assert!((out.stats.plan_cost - 2.0).abs() < 1e-6);
        assert_eq!(out.stats.result_tuples, out.result.tuple_count());
        // The streaming cursor sees exactly as many tuples as the count.
        let mut cursor = out.tuples();
        let mut streamed = 0u128;
        while cursor.advance() {
            streamed += 1;
        }
        assert_eq!(streamed, out.stats.result_tuples);
    }

    #[test]
    fn both_flat_pipelines_agree() {
        let (db, rels) = grocery();
        let query = q1(&db, &rels);
        let direct = FdbEngine::new().evaluate_flat(&db, &query).unwrap();
        let via_ops = FdbEngine::new()
            .evaluate_flat_via_operators(&db, &query)
            .unwrap();
        via_ops.result.validate().unwrap();
        assert_eq!(
            materialize(&direct.result).unwrap().tuple_set(),
            materialize(&via_ops.result).unwrap().tuple_set()
        );
    }

    #[test]
    fn projection_and_constant_selection_are_applied() {
        let (db, rels) = grocery();
        let cat = db.catalog();
        let oid = cat.find_attr("Orders.oid").unwrap();
        let dispatcher = cat.find_attr("Disp.dispatcher").unwrap();
        let query = q1(&db, &rels)
            .with_const_selection(oid, ComparisonOp::Eq, Value::new(1))
            .with_projection(vec![oid, dispatcher]);
        let out = FdbEngine::new().evaluate_flat(&db, &query).unwrap();
        out.result.validate().unwrap();
        assert_eq!(out.result.visible_attrs(), vec![oid, dispatcher]);
        assert_eq!(
            materialize(&out.result).unwrap().tuple_set(),
            rdb_canonical(&db, &query)
        );
    }

    #[test]
    fn factorised_evaluation_joins_two_previous_results() {
        // Example 2 of the paper: Q1 ⋈_{item, location} Q2, evaluated on the
        // factorised results of Q1 and Q2.
        let (db, rels) = grocery();
        let cat = db.catalog();
        let query1 = q1(&db, &rels);
        let q2 = Query::product(vec![rels[3], rels[4]]).with_equality(
            cat.find_attr("Produce.supplier").unwrap(),
            cat.find_attr("Serve.supplier").unwrap(),
        );
        let engine = FdbEngine::new();
        let r1 = engine.evaluate_flat(&db, &query1).unwrap();
        let r2 = engine.evaluate_flat(&db, &q2).unwrap();
        // Product of the two factorised results, then equality selections on
        // item and location.
        let product = ops::product(r1.result.clone(), r2.result.clone()).unwrap();
        let fq = FactorisedQuery::equalities(vec![
            (
                cat.find_attr("Orders.item").unwrap(),
                cat.find_attr("Produce.item").unwrap(),
            ),
            (
                cat.find_attr("Store.location").unwrap(),
                cat.find_attr("Serve.location").unwrap(),
            ),
        ]);
        let joined = engine.evaluate_factorised(&product, &fq).unwrap();
        joined.result.validate().unwrap();

        // Reference: the flat join of all five relations.
        let full_query = Query::product(rels.clone())
            .with_equality(
                cat.find_attr("Orders.item").unwrap(),
                cat.find_attr("Store.item").unwrap(),
            )
            .with_equality(
                cat.find_attr("Store.location").unwrap(),
                cat.find_attr("Disp.location").unwrap(),
            )
            .with_equality(
                cat.find_attr("Produce.supplier").unwrap(),
                cat.find_attr("Serve.supplier").unwrap(),
            )
            .with_equality(
                cat.find_attr("Orders.item").unwrap(),
                cat.find_attr("Produce.item").unwrap(),
            )
            .with_equality(
                cat.find_attr("Store.location").unwrap(),
                cat.find_attr("Serve.location").unwrap(),
            );
        assert_eq!(
            materialize(&joined.result).unwrap().tuple_set(),
            rdb_canonical(&db, &full_query)
        );
        assert!(!joined.stats.plan.is_empty());
    }

    #[test]
    fn greedy_and_exhaustive_engines_agree_on_the_result() {
        let (db, rels) = grocery();
        let cat = db.catalog();
        let query1 = q1(&db, &rels);
        let base = FdbEngine::new().evaluate_flat(&db, &query1).unwrap();
        let fq = FactorisedQuery::equalities(vec![(
            cat.find_attr("Orders.oid").unwrap(),
            cat.find_attr("Disp.dispatcher").unwrap(),
        )]);
        let a = FdbEngine::new()
            .evaluate_factorised(&base.result, &fq)
            .unwrap();
        let b = FdbEngine::greedy()
            .evaluate_factorised(&base.result, &fq)
            .unwrap();
        assert_eq!(
            materialize(&a.result).unwrap().tuple_set(),
            materialize(&b.result).unwrap().tuple_set()
        );
        assert!(b.stats.plan_cost + 1e-6 >= a.stats.plan_cost);
    }

    #[test]
    fn flat_aggregate_matches_enumeration() {
        use fdb_frep::AggregateValue;
        let (db, rels) = grocery();
        let cat = db.catalog();
        let oid = cat.find_attr("Orders.oid").unwrap();
        let base = FdbEngine::new()
            .evaluate_flat(&db, &q1(&db, &rels))
            .unwrap();
        let flat = materialize(&base.result).unwrap();
        let col = flat.attrs().iter().position(|&a| a == oid).unwrap();

        let query = q1(&db, &rels);
        let source = Source::Flat {
            db: &db,
            query: &query,
        };
        let out = run_aggregate(source, &AggregateHead::count()).unwrap();
        assert_eq!(
            out.result,
            fdb_frep::AggregateResult::Scalar(AggregateValue::Count(flat.len() as u128))
        );

        let expected: u128 = flat.rows().map(|r| r[col].raw() as u128).sum();
        let out = run_aggregate(source, &AggregateHead::over(AggregateFunc::Sum, oid)).unwrap();
        assert_eq!(
            out.result,
            fdb_frep::AggregateResult::Scalar(AggregateValue::Sum(expected))
        );
    }

    #[test]
    fn flat_grouped_aggregate_works_for_any_group_attribute() {
        // Grouping must not depend on where the cost-driven f-tree search
        // happens to put the group attribute: the keyed fold groups in
        // place.  Check every attribute of the query against the
        // enumeration oracle.
        let (db, rels) = grocery();
        let base = FdbEngine::new()
            .evaluate_flat(&db, &q1(&db, &rels))
            .unwrap();
        let query = q1(&db, &rels);
        for group in base.result.visible_attrs() {
            let source = Source::Flat {
                db: &db,
                query: &query,
            };
            let out = run_aggregate(source, &AggregateHead::count().grouped_by(group))
                .unwrap_or_else(|e| panic!("group by {group} failed: {e:?}"));
            let expected = fdb_frep::aggregate::by_enumeration(
                &base.result,
                fdb_frep::AggregateKind::Count,
                &[group],
            )
            .unwrap();
            assert_eq!(out.result, expected, "group by {group}");
        }
    }

    #[test]
    fn factorised_aggregate_runs_on_the_overlay_and_matches_the_result() {
        let (db, rels) = grocery();
        let cat = db.catalog();
        let base = FdbEngine::new()
            .evaluate_flat(&db, &q1(&db, &rels))
            .unwrap();
        let fq = FactorisedQuery::equalities(vec![(
            cat.find_attr("Orders.oid").unwrap(),
            cat.find_attr("Disp.dispatcher").unwrap(),
        )]);
        let engine = FdbEngine::new();
        let full = engine.evaluate_factorised(&base.result, &fq).unwrap();
        let agg = run_aggregate(factorised(&base.result, &fq), &AggregateHead::count()).unwrap();
        assert_eq!(
            agg.result,
            fdb_frep::AggregateResult::Scalar(fdb_frep::AggregateValue::Count(
                full.stats.result_tuples
            ))
        );
        // A non-empty plan and no flat fallback: the aggregate folded over
        // the overlay and no arena was emitted.
        assert!(!agg.stats.plan.is_empty());
        assert_eq!(agg.stats.flat_head_fallbacks, 0);
        assert_eq!((agg.stats.result_size, agg.stats.result_tuples), (0, 0));
        assert!((agg.stats.result_tree_cost - full.stats.result_tree_cost).abs() < 1e-9);
    }

    #[test]
    fn selection_then_aggregate_folds_the_filter_and_skips_every_arena() {
        // The 2013 aggregation paper's central shape: σ then AGG, no
        // equality conditions.  The selection must fold into the aggregate
        // accumulation — no clone, no selection arena, no final arena.
        let (db, rels) = grocery();
        let cat = db.catalog();
        let item = cat.find_attr("Orders.item").unwrap();
        let base = FdbEngine::new()
            .evaluate_flat(&db, &q1(&db, &rels))
            .unwrap();
        let fq = FactorisedQuery::default().with_const_selection(ConstSelection {
            attr: item,
            op: ComparisonOp::Ge,
            value: Value::new(2),
        });
        let agg = run_aggregate(factorised(&base.result, &fq), &AggregateHead::count()).unwrap();
        // Reference: execute the selection, then count.
        let full = FdbEngine::new()
            .evaluate_factorised(&base.result, &fq)
            .unwrap();
        assert_eq!(
            agg.result,
            fdb_frep::AggregateResult::Scalar(fdb_frep::AggregateValue::Count(
                full.stats.result_tuples
            ))
        );
        // The plan is the selection alone, and it ran in the fold: no flat
        // fallback, no result arena.
        assert!(matches!(
            agg.stats.plan.ops[..],
            [FPlanOp::SelectConst { .. }]
        ));
        assert_eq!(agg.stats.flat_head_fallbacks, 0);
        assert_eq!((agg.stats.result_size, agg.stats.result_tuples), (0, 0));
    }

    #[test]
    fn factorised_query_with_barriers_fuses_the_whole_plan() {
        let (db, rels) = grocery();
        let cat = db.catalog();
        let base = FdbEngine::new()
            .evaluate_flat(&db, &q1(&db, &rels))
            .unwrap();
        let item = cat.find_attr("Orders.item").unwrap();
        let oid = cat.find_attr("Orders.oid").unwrap();
        let dispatcher = cat.find_attr("Disp.dispatcher").unwrap();
        let fq = FactorisedQuery::equalities(vec![(oid, dispatcher)])
            .with_const_selection(ConstSelection {
                attr: item,
                op: ComparisonOp::Ge,
                value: Value::new(1),
            })
            .with_projection(vec![oid, item]);
        let out = FdbEngine::new()
            .evaluate_factorised(&base.result, &fq)
            .unwrap();
        out.result.validate().unwrap();
        // The selection and the projection are steps of the one program the
        // plan executed as, around the optimiser's restructuring.
        let ops = &out.stats.plan.ops;
        assert!(matches!(ops.first(), Some(FPlanOp::SelectConst { .. })));
        assert!(matches!(ops.last(), Some(FPlanOp::Project(_))));
        assert!(ops.len() > 2, "{}", out.stats.plan);
    }

    #[test]
    fn counters_table_pins_the_row_set() {
        let stats = EvalStats {
            queries_served: 7,
            plan_cache_hits: 5,
            plan_cache_misses: 6,
            plan_cache_evictions: 8,
            chain_heads: 9,
            flat_head_fallbacks: 10,
            ..Default::default()
        };
        let table = stats.counters_table();
        let rows: Vec<&str> = table.lines().collect();
        assert_eq!(rows.len(), 8, "one row per pinned counter:\n{table}");
        for (row, needle) in rows.iter().zip([
            "optimisation time",
            "execution time",
            "plan cost s(f)",
            "result singletons",
            "result tuples",
            "explored states",
            "queries served / cache hits / misses / evictions",
            "chain heads / flat fallbacks",
        ]) {
            assert!(row.starts_with(needle), "row {row:?} vs {needle:?}");
        }
        assert!(table.contains("7 / 5 / 6 / 8"), "serving values:\n{table}");
        assert!(table.contains("9 / 10"), "head strategy values:\n{table}");
        // Display renders the same table.
        assert_eq!(format!("{stats}"), table);
    }

    #[test]
    fn factorised_query_with_selection_and_projection() {
        let (db, rels) = grocery();
        let cat = db.catalog();
        let base = FdbEngine::new()
            .evaluate_flat(&db, &q1(&db, &rels))
            .unwrap();
        let item = cat.find_attr("Orders.item").unwrap();
        let dispatcher = cat.find_attr("Disp.dispatcher").unwrap();
        let fq = FactorisedQuery::default()
            .with_const_selection(ConstSelection {
                attr: item,
                op: ComparisonOp::Eq,
                value: Value::new(2),
            })
            .with_projection(vec![dispatcher]);
        let out = FdbEngine::new()
            .evaluate_factorised(&base.result, &fq)
            .unwrap();
        out.result.validate().unwrap();
        assert_eq!(out.result.visible_attrs(), vec![dispatcher]);
        // Reference through the flat engine.
        let reference = q1(&db, &rels)
            .with_const_selection(item, ComparisonOp::Eq, Value::new(2))
            .with_projection(vec![dispatcher]);
        assert_eq!(
            materialize(&out.result).unwrap().tuple_set(),
            rdb_canonical(&db, &reference)
        );
    }

    /// `R(a, b, c) ⋈ S(a2, b2, e)` on `a = a2, b = b2` — a fork at depth two,
    /// f-tree `{a,a2} → {b,b2} → (c, e)` with `s(T) = 1`: lifting `b` over
    /// `a` keeps every root path inside one relation (the chain planner
    /// accepts), lifting `e` would put `c` and `e` — both relations — on one
    /// path (it refuses).  `outer` values of `a`, each with 4 of `b`, each
    /// with 6 of `c` and 8 of `e`.
    struct Fork {
        db: Database,
        /// The join, nothing else.
        join: Query,
        /// [a, b, c, e]
        attrs: [AttrId; 4],
    }

    fn fork(outer: u64) -> Fork {
        let mut catalog = Catalog::new();
        let (r, _) = catalog.add_relation("R", &["a", "b", "c"]);
        let (s, _) = catalog.add_relation("S", &["a2", "b2", "e"]);
        let mut db = Database::new(catalog);
        let (mut r_rows, mut s_rows) = (Vec::new(), Vec::new());
        for a in 0..outer {
            for j in 0..4u64 {
                // `b` values repeat across `a` parents, so grouping by `b`
                // regroups for real.
                let b = (a + j) % 5;
                r_rows.extend((0..6).map(|c| vec![a, b, c]));
                s_rows.extend((0..8).map(|k| vec![a, b, k * outer + a]));
            }
        }
        db.insert_raw_rows(r, &r_rows).unwrap();
        db.insert_raw_rows(s, &s_rows).unwrap();
        let attr = |name: &str| db.catalog().find_attr(name).unwrap();
        let attrs = [attr("R.a"), attr("R.b"), attr("R.c"), attr("S.e")];
        let join = Query::product(vec![r, s])
            .with_equality(attrs[0], attr("S.a2"))
            .with_equality(attrs[1], attr("S.b2"));
        Fork { db, join, attrs }
    }

    /// The `EvalStats` head counters one table cell pins: `chain_heads`,
    /// `flat_head_fallbacks`.
    fn head_counters(stats: &EvalStats) -> [u64; 2] {
        [stats.chain_heads, stats.flat_head_fallbacks]
    }

    /// The flat-sort reference of ordered output: the materialised rows
    /// sorted by the ordering columns, then by the full row.
    fn materialize_then_sort(rep: &FRep, order_by: &[AttrId]) -> Relation {
        let mut rows = materialize(rep).unwrap();
        let mut cols: Vec<usize> = order_by
            .iter()
            .map(|&a| rows.col_index(a).unwrap())
            .collect();
        cols.extend(0..rows.arity());
        rows.sort_by_cols(&cols);
        rows
    }

    /// Every head on every source through [`FdbEngine::run`]: 6 heads × {flat
    /// source; factorised source without a cache, on a cache miss, on a cache
    /// hit}.  Each cell must equal its flat oracle, the three factorised
    /// columns must be identical, and the counters are pinned exactly (the
    /// expectations were recorded from the per-method evaluators this
    /// pipeline replaced).
    #[test]
    fn every_head_on_every_source_runs_the_one_pipeline() {
        let Fork {
            db,
            join,
            attrs: [a, b, c, e],
        } = fork(6);
        let engine = FdbEngine::new();
        let ctx = ExecCtx::unlimited();

        // The same logical request on both kinds of source:
        // π_{a,b,c,e} σ_{c ≥ 1} of the join.
        let keep = vec![a, b, c, e];
        let flat_query = join
            .clone()
            .with_const_selection(c, ComparisonOp::Ge, Value::new(1))
            .with_projection(keep.clone());
        let input = engine.evaluate_flat(&db, &join).unwrap().result;
        let body = FactorisedQuery::default()
            .with_const_selection(ConstSelection {
                attr: c,
                op: ComparisonOp::Ge,
                value: Value::new(1),
            })
            .with_projection(keep);
        // Another shape, to fill each capacity-1 cache so every miss evicts.
        let filler = FactorisedQuery::default().with_projection(vec![a]);

        // The oracles: the flat engine for the tuples; enumeration and a flat
        // sort over the (verified) headless result for the heads.
        let reference = engine.evaluate_flat(&db, &flat_query).unwrap().result;
        let tuples = rdb_canonical(&db, &flat_query);
        assert_eq!(materialize(&reference).unwrap().tuple_set(), tuples);

        let sum_c = AggregateHead::over(AggregateFunc::Sum, c);
        let count_by_b = AggregateHead::count().grouped_by(b);
        let count_by_e = AggregateHead::count().grouped_by(e);
        let aggregate = |head| Head {
            aggregate: Some(head),
            ..Head::default()
        };
        let (by_b, by_e) = ([b], [e]);
        let ordered = |order_by| Head {
            order_by,
            ..Head::default()
        };
        // (head, head counters — the same on either kind of source).  Only
        // ORDER BY plans a chain; every GROUP BY is one keyed fold.
        let heads: [(&str, Head<'_>, [u64; 2]); 6] = [
            ("no head", Head::default(), [0, 0]),
            ("scalar aggregate", aggregate(&sum_c), [0, 0]),
            ("mid GROUP BY", aggregate(&count_by_b), [0, 0]),
            ("far-branch GROUP BY", aggregate(&count_by_e), [0, 0]),
            ("chain ORDER BY", ordered(&by_b), [1, 0]),
            ("flat-sort ORDER BY", ordered(&by_e), [0, 1]),
        ];

        // `result_tree_cost` of the headless cell, per source kind: what an
        // aggregate over the same body reports (it builds no result of its
        // own).
        let mut body_tree_cost = [f64::NAN; 2];
        for (label, head, counters) in heads {
            let cache = PlanCache::with_capacity(1);
            let cached = |query| Source::Factorised {
                input: &input,
                query,
                cache: Some(&cache),
            };
            engine.run(cached(&filler), Head::default(), &ctx).unwrap();
            let flat = Source::Flat {
                db: &db,
                query: &flat_query,
            };
            // (column, source, cache hits / misses / evictions)
            let columns = [
                ("flat", flat, [0, 0, 0]),
                ("factorised", factorised(&input, &body), [0, 0, 0]),
                ("cache miss", cached(&body), [0, 1, 1]),
                ("cache hit", cached(&body), [1, 0, 0]),
            ];
            let mut first_factorised: Option<ServeOutcome> = None;
            for (column, source, cache_counters) in columns {
                let cell = format!("{label} × {column}");
                let is_flat = matches!(source, Source::Flat { .. });
                let outcome = engine
                    .run(source, head, &ctx)
                    .unwrap_or_else(|e| panic!("{cell}: {e:?}"));
                let stats = outcome.stats();
                assert_eq!(head_counters(stats), counters, "{cell}: head counters");
                assert_eq!(
                    [
                        stats.plan_cache_hits,
                        stats.plan_cache_misses,
                        stats.plan_cache_evictions
                    ],
                    cache_counters,
                    "{cell}: cache counters"
                );
                assert_eq!(stats.queries_served, 1, "{cell}");

                match &outcome {
                    ServeOutcome::Rep(out) => {
                        out.result.validate().unwrap();
                        assert_eq!(
                            materialize(&out.result).unwrap().tuple_set(),
                            tuples,
                            "{cell}"
                        );
                        assert_eq!(stats.result_size, out.result.size(), "{cell}");
                        assert_eq!(stats.result_tuples, out.result.tuple_count(), "{cell}");
                        body_tree_cost[usize::from(is_flat)] = stats.result_tree_cost;
                    }
                    ServeOutcome::Aggregate(out) => {
                        let head = head.aggregate.expect("aggregate cell");
                        let kind = aggregate_kind(head).unwrap();
                        let oracle =
                            fdb_frep::aggregate::by_enumeration(&reference, kind, &head.group_by);
                        assert_eq!(out.result, oracle.unwrap(), "{cell}");
                        assert_eq!((stats.result_size, stats.result_tuples), (0, 0), "{cell}");
                        assert_eq!(
                            stats.result_tree_cost,
                            body_tree_cost[usize::from(is_flat)],
                            "{cell}: an aggregate reports its body plan's tree"
                        );
                    }
                    ServeOutcome::Ordered(out) => {
                        let oracle = materialize_then_sort(&reference, head.order_by);
                        assert_eq!(out.rows, oracle, "{cell}");
                        assert_eq!(
                            out.strategy == OrderStrategy::Chain,
                            stats.chain_heads == 1,
                            "{cell}"
                        );
                        assert_eq!(stats.result_tuples, oracle.len() as u128, "{cell}");
                    }
                }

                // The three factorised columns are the same evaluation.
                if is_flat {
                    continue;
                }
                let Some(first) = &first_factorised else {
                    first_factorised = Some(outcome);
                    continue;
                };
                assert_eq!(stats.plan, first.stats().plan, "{cell}");
                assert_eq!(stats.plan_cost, first.stats().plan_cost, "{cell}");
                assert_eq!(
                    stats.result_tree_cost,
                    first.stats().result_tree_cost,
                    "{cell}"
                );
                assert_eq!(stats.result_size, first.stats().result_size, "{cell}");
                match (&outcome, first) {
                    (ServeOutcome::Rep(out), ServeOutcome::Rep(first)) => {
                        assert!(out.result.store_identical(&first.result), "{cell}")
                    }
                    (ServeOutcome::Aggregate(out), ServeOutcome::Aggregate(first)) => {
                        assert_eq!(out.result, first.result, "{cell}")
                    }
                    (ServeOutcome::Ordered(out), ServeOutcome::Ordered(first)) => {
                        assert_eq!((&out.rows, out.strategy), (&first.rows, first.strategy))
                    }
                    (outcome, first) => panic!("{cell}: {outcome:?} vs {first:?}"),
                }
            }
        }
    }

    /// The far-branch groupings of the governance pins, as indices into
    /// [`Fork::attrs`]: `e` alone, and `(c, e)` — two branches, whose rows
    /// are a cross product of 6 × 8 per `(a, b)` entry, 3 840 rows built for
    /// 960 groups.
    const FAR_GROUPINGS: [&[usize]; 2] = [&[3], &[2, 3]];

    /// `COUNT(*) GROUP BY grouping` over the unfiltered fork of 20 `a`
    /// values under `limits`: the structural plan is empty and a warm plan
    /// cache skips the optimiser (which checks the context on entry), so
    /// nothing but the keyed fold charges the context.  Returns the outcome
    /// and the units charged against the budget.
    fn far_group_by_under(grouping: &[usize], limits: QueryLimits) -> (Result<ServeOutcome>, u64) {
        let Fork { db, join, attrs } = fork(20);
        let engine = FdbEngine::new();
        let input = engine.evaluate_flat(&db, &join).unwrap().result;
        let head = grouping
            .iter()
            .fold(AggregateHead::count(), |head, &i| head.grouped_by(attrs[i]));
        let head = Head {
            aggregate: Some(&head),
            ..Head::default()
        };
        let body = FactorisedQuery::default();
        let cache = PlanCache::new();
        let source = Source::Factorised {
            input: &input,
            query: &body,
            cache: Some(&cache),
        };
        engine.run(source, head, &ExecCtx::unlimited()).unwrap();
        let ctx = ExecCtx::new(&limits);
        let outcome = engine.run(source, head, &ctx);
        let charged = limits.budget.map_or(0, |b| b - ctx.budget_remaining());
        (outcome, charged)
    }

    #[test]
    fn the_keyed_group_by_charges_exactly_its_units() {
        for grouping in FAR_GROUPINGS {
            let budget = |units| QueryLimits::unlimited().with_budget(units);
            let (_, units) = far_group_by_under(grouping, budget(u64::MAX));
            assert!(
                units >= fdb_common::limits::CHECK_INTERVAL,
                "{grouping:?}: the fold must reach a flag check: {units} units"
            );
            if grouping.len() == 2 {
                // Every row the crosses build is charged, not only the
                // 1 401 units of the unions folded.
                assert!(units >= 3840, "{grouping:?}: {units} units");
            }
            let (exact, charged) = far_group_by_under(grouping, budget(units));
            let exact = exact.expect("a budget of the fold's units suffices");
            assert_eq!(charged, units, "{grouping:?}");
            assert_eq!(
                head_counters(exact.stats()),
                [0, 0],
                "{grouping:?}: no chain, no fallback"
            );
            assert_eq!(
                exact.stats().plan_cache_hits,
                1,
                "{grouping:?}: the optimiser was skipped"
            );
            assert!(
                exact.stats().plan.is_empty(),
                "{grouping:?}: no operator ran"
            );
            let (short, _) = far_group_by_under(grouping, budget(units - 1));
            assert_eq!(
                short.unwrap_err(),
                FdbError::BudgetExceeded { limit: units - 1 },
                "{grouping:?}"
            );
        }
    }

    #[test]
    fn the_keyed_group_by_notices_a_raised_cancel_flag() {
        for grouping in FAR_GROUPINGS {
            let raised = Arc::new(AtomicBool::new(true));
            let limits = QueryLimits::unlimited().with_cancel(raised);
            let (outcome, _) = far_group_by_under(grouping, limits);
            assert_eq!(
                outcome.unwrap_err(),
                FdbError::DeadlineExceeded { limit_ms: 0 },
                "{grouping:?}"
            );
        }
    }

    /// A GROUP BY on an attribute the result does not show — projected away
    /// while its node stays (`S.a2` shares `a`'s node), or unknown — is the
    /// same structured error the chain planner used to raise.
    #[test]
    fn grouping_by_a_projected_away_or_unknown_attribute_is_not_in_query() {
        let Fork {
            db,
            join,
            attrs: [a, b, c, e],
        } = fork(6);
        let input = FdbEngine::new().evaluate_flat(&db, &join).unwrap().result;
        let a2 = db.catalog().find_attr("S.a2").unwrap();
        let body = FactorisedQuery::default().with_projection(vec![a, b, c, e]);
        for group in [a2, AttrId(99)] {
            let head = AggregateHead::count().grouped_by(group);
            let err = run_aggregate(factorised(&input, &body), &head).unwrap_err();
            assert!(
                matches!(err, FdbError::AttributeNotInQuery { .. }),
                "group by {group}: {err:?}"
            );
        }
    }
}
