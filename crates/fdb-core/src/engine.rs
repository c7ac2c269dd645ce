//! The FDB engine: optimisation plus evaluation, on flat or factorised input.

use crate::serving::PlanCache;
use fdb_common::{
    AggregateFunc, AggregateHead, AttrId, ConstSelection, ExecCtx, FdbError, Query, Result,
};
use fdb_frep::{build_frep, ops, AggregateKind, AggregateResult, FRep, OrderStrategy};
use fdb_ftree::s_cost;
use fdb_plan::{
    plan_chain_restructure, ChainStrategy, ExhaustiveOptimizer, FPlan, FPlanOp, GreedyOptimizer,
};
use fdb_relation::{Database, Relation};
use std::collections::BTreeSet;
use std::fmt;
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
    /// The cost `s(T)` of the result's f-tree.
    pub result_tree_cost: f64,
    /// The f-plan cost `s(f)` (maximum intermediate cost); equals the result
    /// tree cost for evaluation on flat input.
    pub plan_cost: f64,
    /// Number of singletons in the result representation.
    pub result_size: usize,
    /// Number of tuples in the represented result.
    pub result_tuples: u128,
    /// The executed f-plan (empty for direct construction on flat input).
    pub plan: FPlan,
    /// Number of optimiser states explored.
    pub explored_states: usize,
    /// Number of fused overlay programs the plan executed as (0 or 1 since
    /// whole-plan fusion — the entire plan compiles into one program when it
    /// would pay more than one arena pass step-wise; see
    /// `fdb_frep::ops::fuse`).
    pub fused_segments: usize,
    /// Number of aggregate evaluations folded directly over the fused
    /// overlay (no arena emission at all); 0 for non-aggregate queries and
    /// for empty-plan aggregates, which run as plain arena passes.
    pub aggregates_on_overlay: usize,
    /// Former fusion barriers (constant selections, projections) executed
    /// *inside* a fused overlay program instead of as standalone arena
    /// passes — the PR 5 whole-plan fusion win.
    pub barriers_fused: usize,
    /// Intermediate arenas fused execution skipped relative to the
    /// step-wise path (a lower bound: one per plan operator beyond the
    /// single emission; for aggregate sinks every operator's arena,
    /// including the final one, is skipped).
    pub arenas_skipped: usize,
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
    /// Ordering/grouping heads satisfied on a root path of the f-tree —
    /// either already there or brought there by a costed swap chain
    /// (`fdb_plan::plan_chain_restructure`).  0 for queries without such a
    /// head.
    pub chain_heads: u64,
    /// Ordering/grouping heads that fell back to flat sorting (ordering) or
    /// hash grouping over enumerated tuples (grouping) because no root-path
    /// restructuring exists at acceptable cost.
    pub flat_head_fallbacks: u64,
}

impl EvalStats {
    /// The execution counters as aligned `name value` rows, with the
    /// fused-segment/overlay-aggregate and barrier/arena counters on shared
    /// rows.  Reports that show per-evaluation statistics (e.g. the
    /// `bench-pr4` table) print this instead of improvising their own lines.
    pub fn counters_table(&self) -> String {
        let rows: [(&str, String); 10] = [
            ("optimisation time", format!("{:?}", self.optimisation_time)),
            ("execution time", format!("{:?}", self.execution_time)),
            ("plan cost s(f)", format!("{:.2}", self.plan_cost)),
            ("result singletons", self.result_size.to_string()),
            ("result tuples", self.result_tuples.to_string()),
            ("explored states", self.explored_states.to_string()),
            (
                "fused segments / overlay aggregates",
                format!("{} / {}", self.fused_segments, self.aggregates_on_overlay),
            ),
            (
                "barriers fused / arenas skipped",
                format!("{} / {}", self.barriers_fused, self.arenas_skipped),
            ),
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

    /// Accumulates another record into this one: times and counters add
    /// (including `queries_served` and the cache counters), so a serving
    /// report can total a whole batch.  The per-result fields (`plan`,
    /// costs) keep this record's values — a batch has no single plan.
    pub fn accumulate(&mut self, other: &EvalStats) {
        self.optimisation_time += other.optimisation_time;
        self.execution_time += other.execution_time;
        self.result_size += other.result_size;
        self.result_tuples += other.result_tuples;
        self.explored_states += other.explored_states;
        self.fused_segments += other.fused_segments;
        self.aggregates_on_overlay += other.aggregates_on_overlay;
        self.barriers_fused += other.barriers_fused;
        self.arenas_skipped += other.arenas_skipped;
        self.queries_served += other.queries_served;
        self.plan_cache_hits += other.plan_cache_hits;
        self.plan_cache_misses += other.plan_cache_misses;
        self.plan_cache_evictions += other.plan_cache_evictions;
        self.chain_heads += other.chain_heads;
        self.flat_head_fallbacks += other.flat_head_fallbacks;
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
/// are 0 and `stats.aggregates_on_overlay` records whether the final
/// structural segment was consumed on the fused overlay without emitting an
/// arena.
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

/// How an ordering or grouping head will be satisfied: the (possibly empty)
/// swap chain to append to the plan, and whether the head runs on a root
/// path or falls back to the flat strategy (sort / hash-group).
struct HeadDecision {
    /// Swaps bringing the head attributes onto a root path; empty when they
    /// are already there — or when the head falls back to flat.
    plan: FPlan,
    /// The head's attributes form a root path after `plan` runs.
    on_chain: bool,
}

/// Plans a root path for a grouping or ordering head via
/// [`plan_chain_restructure`]: path grouping and ordered enumeration both
/// need the head attributes on a root-to-node chain, the restructuring is
/// the same costed swap lifting for both, and both fall back to a flat
/// strategy when no chain exists at acceptable cost (`s(f) ≤ s(T_in)`).
fn plan_head_chain(tree: &fdb_ftree::FTree, attrs: &[AttrId]) -> Result<HeadDecision> {
    let decision = plan_chain_restructure(tree, attrs)?;
    Ok(match decision.strategy {
        ChainStrategy::AlreadyChain => HeadDecision {
            plan: FPlan::empty(),
            on_chain: true,
        },
        ChainStrategy::Restructure => HeadDecision {
            plan: decision.plan,
            on_chain: true,
        },
        ChainStrategy::FlatSort => HeadDecision {
            plan: FPlan::empty(),
            on_chain: false,
        },
    })
}

/// Fusion counters `(fused_segments, barriers_fused, arenas_skipped)` of a
/// simplified plan about to execute through `FPlan::execute_presimplified`:
/// when the plan fuses, the whole op list runs as one overlay program, its
/// barriers included, and every intermediate arena but the single emission
/// is skipped.
fn fusion_counters(plan: &FPlan) -> (usize, usize, usize) {
    let fused = plan.fuses();
    (
        usize::from(fused),
        if fused { plan.barrier_count() } else { 0 },
        plan.arenas_skipped(),
    )
}

/// Fusion counters of a simplified plan consumed by the aggregate sink.
/// When the sink ran on the overlay (`on_overlay`), the whole plan —
/// however short — executed as one fused overlay program and **every**
/// operator's output arena was skipped: the sink folds the aggregate over
/// the overlay and never emits, so even a single-operator plan counts one
/// fused program and one skipped arena.
fn aggregate_fusion_counters(plan: &FPlan, on_overlay: bool) -> (usize, usize, usize) {
    if !on_overlay {
        return (0, 0, 0);
    }
    (1, plan.barrier_count(), plan.len())
}

/// `(chain_heads, flat_head_fallbacks)` counter values for a grouped
/// aggregate evaluation: a grouped head counts under exactly one of the
/// two, a scalar head under neither.
fn head_strategy_counters(head: &AggregateHead, on_chain: bool) -> (u64, u64) {
    if head.group_by.is_empty() {
        (0, 0)
    } else if on_chain {
        (1, 0)
    } else {
        (0, 1)
    }
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

/// The FDB query engine.
#[derive(Clone, Copy, Debug, Default)]
pub struct FdbEngine {
    /// Which optimiser to use for queries over factorised input.
    pub optimizer: OptimizerKind,
}

/// How a factorised evaluation obtained its plan: either fresh from the
/// optimiser, or through a [`PlanCache`] (with the hit/miss recorded for
/// the stats).
struct ResolvedPlan {
    plan: std::sync::Arc<fdb_plan::OptimizedPlan>,
    optimisation_time: Duration,
    cache_hits: u64,
    cache_misses: u64,
    cache_evictions: u64,
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
    ) -> Result<fdb_plan::OptimizedPlan> {
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
    /// [`crate::serving::PlanCache`]).  The key covers the request's head —
    /// `aggregate` and `order_by` — so requests with the same structural
    /// body but different heads never share an entry.  An optimisation the
    /// context interrupts publishes nothing.
    fn resolve_factorised_plan(
        &self,
        input: &FRep,
        query: &FactorisedQuery,
        cache: Option<&PlanCache>,
        aggregate: Option<&AggregateHead>,
        order_by: &[AttrId],
        ctx: &ExecCtx,
    ) -> Result<ResolvedPlan> {
        use std::sync::Arc;
        let opt_start = Instant::now();
        let (plan, cache_hits, cache_misses, cache_evictions) = match cache {
            None => (
                Arc::new(self.optimise_equalities(input.tree(), &query.equalities, ctx)?),
                0,
                0,
                0,
            ),
            Some(cache) => {
                let key = crate::serving::plan_key(self, input.tree(), query, aggregate, order_by);
                match cache.lookup(&key) {
                    Some(plan) => (plan, 1, 0, 0),
                    None => {
                        let plan = Arc::new(self.optimise_equalities(
                            input.tree(),
                            &query.equalities,
                            ctx,
                        )?);
                        let evicted = cache.insert(key, Arc::clone(&plan));
                        (plan, 0, 1, evicted)
                    }
                }
            }
        };
        Ok(ResolvedPlan {
            plan,
            optimisation_time: opt_start.elapsed(),
            cache_hits,
            cache_misses,
            cache_evictions,
        })
    }

    /// Evaluates a select-project-join query on a flat relational database.
    ///
    /// The optimiser finds an f-tree of the query with minimum `s(T)`; the
    /// factorised result is built directly over that tree and the projection
    /// (if any) is applied at the end with the projection operator.
    pub fn evaluate_flat(&self, db: &Database, query: &Query) -> Result<EvalOutput> {
        let opt_start = Instant::now();
        let search = fdb_plan::optimal_ftree(db.catalog(), query, |r| db.rel_len(r) as u64)?;
        let optimisation_time = opt_start.elapsed();

        let exec_start = Instant::now();
        let mut result = build_frep(db, query, &search.tree)?;
        let mut plan = FPlan::empty();
        if let Some(proj) = &query.projection {
            let keep: BTreeSet<AttrId> = proj.iter().copied().collect();
            plan.push(FPlanOp::Project(keep));
        }
        // The flat path's plan holds at most the final projection — which,
        // being internally multi-pass (leaf removals, swap-downs), still
        // compiles into one overlay program.
        let simplified = plan.simplified(result.tree());
        let (fused_segments, barriers_fused, arenas_skipped) = fusion_counters(&simplified);
        simplified.execute_presimplified(&mut result)?;
        let execution_time = exec_start.elapsed();

        let result_tree_cost = s_cost(result.tree())?;
        Ok(EvalOutput {
            stats: EvalStats {
                optimisation_time,
                execution_time,
                result_tree_cost,
                plan_cost: search.cost,
                result_size: result.size(),
                result_tuples: result.tuple_count(),
                plan,
                explored_states: search.explored_states,
                fused_segments,
                aggregates_on_overlay: 0,
                barriers_fused,
                arenas_skipped,
                queries_served: 1,
                plan_cache_hits: 0,
                plan_cache_misses: 0,
                plan_cache_evictions: 0,
                chain_heads: 0,
                flat_head_fallbacks: 0,
            },
            result,
        })
    }

    /// Evaluates a query over a factorised input.
    ///
    /// Selections with constants are applied first (they are cheap and only
    /// shrink the representation), then the optimised restructuring/selection
    /// plan for the equality conditions, and the projection last — the
    /// operator ordering FDB uses (Section 4).  The plan does not execute
    /// operator by operator, and since PR 5 it is not segmented at
    /// selections or projections either: after peephole simplification the
    /// **whole plan** compiles into one overlay program
    /// (`fdb_frep::ops::fuse`) that emits a single arena, so a k-operator
    /// plan — barriers included — pays one arena copy instead of k.
    /// [`EvalStats::barriers_fused`] and [`EvalStats::arenas_skipped`]
    /// report the win.
    pub fn evaluate_factorised(&self, input: &FRep, query: &FactorisedQuery) -> Result<EvalOutput> {
        self.evaluate_factorised_inner(input, query, None, &ExecCtx::unlimited())
    }

    /// [`FdbEngine::evaluate_factorised`] through a [`PlanCache`]: when the
    /// query shape (f-tree + operator skeleton, constants abstracted) has
    /// been optimised before, the cached plan is reused and the optimiser
    /// is skipped — the serving layer's fast path for repeated traffic.
    /// [`EvalStats::plan_cache_hits`]/[`EvalStats::plan_cache_misses`]
    /// record which way this evaluation went.
    pub fn evaluate_factorised_cached(
        &self,
        input: &FRep,
        query: &FactorisedQuery,
        cache: &PlanCache,
    ) -> Result<EvalOutput> {
        self.evaluate_factorised_inner(input, query, Some(cache), &ExecCtx::unlimited())
    }

    /// [`FdbEngine::evaluate_factorised`] under a governance context (an
    /// optional [`PlanCache`] rides along): the plan's overlay sweeps,
    /// emission and selection rebuilds charge the context per record, so a
    /// deadline, budget or cancellation flag aborts the evaluation with a
    /// structured error and the input representation untouched.
    pub fn evaluate_factorised_ctx(
        &self,
        input: &FRep,
        query: &FactorisedQuery,
        cache: Option<&PlanCache>,
        ctx: &ExecCtx,
    ) -> Result<EvalOutput> {
        self.evaluate_factorised_inner(input, query, cache, ctx)
    }

    fn evaluate_factorised_inner(
        &self,
        input: &FRep,
        query: &FactorisedQuery,
        cache: Option<&PlanCache>,
        ctx: &ExecCtx,
    ) -> Result<EvalOutput> {
        // Optimise the equality conditions on the input f-tree (or reuse a
        // cached plan for the same query shape).
        let resolved = self.resolve_factorised_plan(input, query, cache, None, &[], ctx)?;
        let optimisation_time = resolved.optimisation_time;
        let optimised = &resolved.plan;

        // Assemble the full plan: constant selections, restructuring and
        // equality selections, projection.
        let mut plan = FPlan::empty();
        for sel in &query.const_selections {
            plan.push(FPlanOp::SelectConst {
                attr: sel.attr,
                op: sel.op,
                value: sel.value,
            });
        }
        plan.extend(optimised.plan.clone());
        if let Some(proj) = &query.projection {
            plan.push(FPlanOp::Project(proj.iter().copied().collect()));
        }

        // Simplify once: the fusion counters are read off the same op list
        // that actually executes, so the stats match what really fused.
        let simplified = plan.simplified(input.tree());
        let (fused_segments, barriers_fused, arenas_skipped) = fusion_counters(&simplified);
        let exec_start = Instant::now();
        let mut result = input.clone();
        simplified.execute_presimplified_ctx(&mut result, ctx)?;
        let execution_time = exec_start.elapsed();

        let result_tree_cost = s_cost(result.tree())?;
        Ok(EvalOutput {
            stats: EvalStats {
                optimisation_time,
                execution_time,
                result_tree_cost,
                plan_cost: optimised.cost.max_intermediate,
                result_size: result.size(),
                result_tuples: result.tuple_count(),
                plan,
                explored_states: optimised.explored_states,
                fused_segments,
                aggregates_on_overlay: 0,
                barriers_fused,
                arenas_skipped,
                queries_served: 1,
                plan_cache_hits: resolved.cache_hits,
                plan_cache_misses: resolved.cache_misses,
                plan_cache_evictions: resolved.cache_evictions,
                chain_heads: 0,
                flat_head_fallbacks: 0,
            },
            result,
        })
    }

    /// Evaluates a query on flat input purely with f-plan operators: every
    /// relation is loaded as a trivially factorised representation (a chain
    /// of its attributes), the representations are multiplied together, and
    /// the query's conditions are evaluated as an f-plan on the product.
    ///
    /// This is slower than [`FdbEngine::evaluate_flat`] (the intermediate
    /// product is large) but exercises the operator pipeline end to end; the
    /// integration tests use it to cross-check the direct construction.
    pub fn evaluate_flat_via_operators(&self, db: &Database, query: &Query) -> Result<EvalOutput> {
        query.validate(db.catalog())?;
        if query.relations.is_empty() {
            return Err(FdbError::InvalidInput {
                detail: "query has no relations".into(),
            });
        }
        let exec_start = Instant::now();
        // Load each relation as a factorised representation over its own
        // chain f-tree and multiply them together.
        let mut combined: Option<FRep> = None;
        for &rel in &query.relations {
            let single = Query::product(vec![rel]);
            let tree =
                fdb_ftree::flat_database_ftree(db.catalog(), &[rel], |r| db.rel_len(r) as u64)?;
            let rep = build_frep(db, &single, &tree)?;
            combined = Some(match combined {
                None => rep,
                Some(acc) => ops::product(acc, rep)?,
            });
        }
        let mut rep = combined.expect("at least one relation");

        // Constant selections first.
        let mut plan = FPlan::empty();
        for sel in &query.const_selections {
            plan.push(FPlanOp::SelectConst {
                attr: sel.attr,
                op: sel.op,
                value: sel.value,
            });
        }

        // Optimise and append the equality conditions.
        let opt_start = Instant::now();
        let equalities: Vec<(AttrId, AttrId)> = query
            .equalities
            .iter()
            .map(|eq| (eq.left, eq.right))
            .collect();
        let optimised = match self.optimizer {
            OptimizerKind::Exhaustive => {
                ExhaustiveOptimizer::new().optimize(rep.tree(), &equalities)?
            }
            OptimizerKind::Greedy => GreedyOptimizer::new().optimize(rep.tree(), &equalities)?,
        };
        let optimisation_time = opt_start.elapsed();
        plan.extend(optimised.plan.clone());
        if let Some(proj) = &query.projection {
            plan.push(FPlanOp::Project(proj.iter().copied().collect()));
        }

        let simplified = plan.simplified(rep.tree());
        let (fused_segments, barriers_fused, arenas_skipped) = fusion_counters(&simplified);
        simplified.execute_presimplified(&mut rep)?;
        let execution_time = exec_start.elapsed();

        let result_tree_cost = s_cost(rep.tree())?;
        Ok(EvalOutput {
            stats: EvalStats {
                optimisation_time,
                execution_time,
                result_tree_cost,
                plan_cost: optimised.cost.max_intermediate,
                result_size: rep.size(),
                result_tuples: rep.tuple_count(),
                plan,
                explored_states: optimised.explored_states,
                fused_segments,
                aggregates_on_overlay: 0,
                barriers_fused,
                arenas_skipped,
                queries_served: 1,
                plan_cache_hits: 0,
                plan_cache_misses: 0,
                plan_cache_evictions: 0,
                chain_heads: 0,
                flat_head_fallbacks: 0,
            },
            result: rep,
        })
    }

    /// Evaluates an aggregate query on a flat relational database: the
    /// factorised result is built over the optimal f-tree exactly like
    /// [`FdbEngine::evaluate_flat`], then the aggregate head is folded over
    /// the representation — the flat result is never enumerated.  The query
    /// must carry an [`AggregateHead`].
    ///
    /// Root-attribute grouping is an evaluator precondition, not a caller
    /// one: the f-tree search is cost-driven and may put the group attribute
    /// anywhere, so the engine appends the swaps that lift its node to a
    /// root ([`plan_chain_restructure`]) — a structural tail the aggregate sink
    /// consumes on the fused overlay without emitting an arena.
    pub fn evaluate_flat_aggregate(&self, db: &Database, query: &Query) -> Result<AggregateOutput> {
        let Some(head) = &query.aggregate else {
            return Err(FdbError::InvalidInput {
                detail: "evaluate_flat_aggregate: query has no aggregate head".into(),
            });
        };
        let kind = aggregate_kind(head)?;
        let opt_start = Instant::now();
        let search = fdb_plan::optimal_ftree(db.catalog(), query, |r| db.rel_len(r) as u64)?;
        let optimisation_time = opt_start.elapsed();

        let exec_start = Instant::now();
        let rep = build_frep(db, query, &search.tree)?;
        let mut plan = FPlan::empty();
        if let Some(proj) = &query.projection {
            plan.push(FPlanOp::Project(proj.iter().copied().collect()));
        }
        let pre_lift_tree = plan.final_tree(rep.tree())?;
        let head_decision = if head.group_by.is_empty() {
            None
        } else {
            Some(plan_head_chain(&pre_lift_tree, &head.group_by)?)
        };
        let on_chain = head_decision.as_ref().is_none_or(|d| d.on_chain);
        if let Some(d) = head_decision {
            plan.extend(d.plan);
        }
        let simplified = plan.simplified(rep.tree());
        let (result, on_overlay) = if on_chain {
            simplified.execute_aggregate_presimplified(&rep, kind, &head.group_by)?
        } else {
            // No root path for the grouping head at acceptable cost: run the
            // structural plan and hash-group over the enumerated tuples.
            let mut grouped = rep.clone();
            simplified.execute_presimplified(&mut grouped)?;
            (
                fdb_frep::aggregate::by_enumeration(&grouped, kind, &head.group_by)?,
                false,
            )
        };
        let execution_time = exec_start.elapsed();
        let (fused_segments, barriers_fused, arenas_skipped) =
            aggregate_fusion_counters(&simplified, on_overlay);
        let (chain_heads, flat_head_fallbacks) = head_strategy_counters(head, on_chain);

        Ok(AggregateOutput {
            result,
            stats: EvalStats {
                optimisation_time,
                execution_time,
                result_tree_cost: s_cost(&pre_lift_tree)?,
                plan_cost: search.cost,
                result_size: 0,
                result_tuples: 0,
                plan,
                explored_states: search.explored_states,
                fused_segments,
                aggregates_on_overlay: usize::from(on_overlay),
                barriers_fused,
                arenas_skipped,
                queries_served: 1,
                plan_cache_hits: 0,
                plan_cache_misses: 0,
                plan_cache_evictions: 0,
                chain_heads,
                flat_head_fallbacks,
            },
        })
    }

    /// Evaluates an aggregate query over a factorised input.
    ///
    /// The restructuring plan for the equality conditions is assembled
    /// exactly like [`FdbEngine::evaluate_factorised`], but it executes into
    /// an **aggregate sink** ([`FPlan::execute_aggregate`]): the whole plan
    /// — selections and projections included — is applied only to the fused
    /// overlay and the aggregate folds over the overlay itself, with the
    /// plan's trailing selections folded into the accumulation as entry
    /// filters.  **No arena is emitted or cloned at any point**; a
    /// selection-then-aggregate query reads the input arena in place.
    /// [`EvalStats::aggregates_on_overlay`] reports whether that fast path
    /// was taken (only the empty plan falls back to a plain arena pass) and
    /// [`EvalStats::arenas_skipped`] counts the passes avoided.  When the
    /// head groups by an attribute that the plan's final tree does not put
    /// at a root, the engine appends the lifting swaps
    /// ([`plan_chain_restructure`]) so root-attribute grouping works on any
    /// input shape.
    pub fn evaluate_factorised_aggregate(
        &self,
        input: &FRep,
        query: &FactorisedQuery,
        head: &AggregateHead,
    ) -> Result<AggregateOutput> {
        self.evaluate_factorised_aggregate_inner(input, query, head, None, &ExecCtx::unlimited())
    }

    /// [`FdbEngine::evaluate_factorised_aggregate`] through a [`PlanCache`]
    /// (see [`FdbEngine::evaluate_factorised_cached`]).  The cache key
    /// includes the full aggregate head (function, attribute, `DISTINCT`,
    /// grouping attributes): the head steers the chain-restructuring swaps
    /// appended after the cached body plan, so same-body requests with
    /// different heads get distinct entries.
    pub fn evaluate_factorised_aggregate_cached(
        &self,
        input: &FRep,
        query: &FactorisedQuery,
        head: &AggregateHead,
        cache: &PlanCache,
    ) -> Result<AggregateOutput> {
        self.evaluate_factorised_aggregate_inner(
            input,
            query,
            head,
            Some(cache),
            &ExecCtx::unlimited(),
        )
    }

    /// [`FdbEngine::evaluate_factorised_aggregate`] under a governance
    /// context (see [`FdbEngine::evaluate_factorised_ctx`]); the overlay
    /// fold charges per record and the input is never mutated.
    pub fn evaluate_factorised_aggregate_ctx(
        &self,
        input: &FRep,
        query: &FactorisedQuery,
        head: &AggregateHead,
        cache: Option<&PlanCache>,
        ctx: &ExecCtx,
    ) -> Result<AggregateOutput> {
        self.evaluate_factorised_aggregate_inner(input, query, head, cache, ctx)
    }

    fn evaluate_factorised_aggregate_inner(
        &self,
        input: &FRep,
        query: &FactorisedQuery,
        head: &AggregateHead,
        cache: Option<&PlanCache>,
        ctx: &ExecCtx,
    ) -> Result<AggregateOutput> {
        let kind = aggregate_kind(head)?;
        let resolved = self.resolve_factorised_plan(input, query, cache, Some(head), &[], ctx)?;
        let optimisation_time = resolved.optimisation_time;
        let optimised = &resolved.plan;

        let mut plan = FPlan::empty();
        for sel in &query.const_selections {
            plan.push(FPlanOp::SelectConst {
                attr: sel.attr,
                op: sel.op,
                value: sel.value,
            });
        }
        plan.extend(optimised.plan.clone());
        if let Some(proj) = &query.projection {
            plan.push(FPlanOp::Project(proj.iter().copied().collect()));
        }
        // The aggregate sink never builds the result representation, but its
        // tree is known from simulation — and it tells us which swaps bring
        // the grouping attributes onto a root path (or that no acceptable
        // swap chain exists and the head must hash-group flat).
        let pre_lift_tree = plan.final_tree(input.tree())?;
        let head_decision = if head.group_by.is_empty() {
            None
        } else {
            Some(plan_head_chain(&pre_lift_tree, &head.group_by)?)
        };
        let on_chain = head_decision.as_ref().is_none_or(|d| d.on_chain);
        if let Some(d) = head_decision {
            plan.extend(d.plan);
        }

        let simplified = plan.simplified(input.tree());
        let exec_start = Instant::now();
        let (result, on_overlay) = if on_chain {
            simplified.execute_aggregate_presimplified_ctx(input, kind, &head.group_by, ctx)?
        } else {
            // No root path for the grouping head at acceptable cost: run the
            // structural plan (fused, governed) and hash-group over the
            // enumerated tuples instead.
            let mut grouped = input.clone();
            simplified.execute_presimplified_ctx(&mut grouped, ctx)?;
            (
                fdb_frep::aggregate::by_enumeration(&grouped, kind, &head.group_by)?,
                false,
            )
        };
        let execution_time = exec_start.elapsed();
        let (fused_segments, barriers_fused, arenas_skipped) =
            aggregate_fusion_counters(&simplified, on_overlay);
        let (chain_heads, flat_head_fallbacks) = head_strategy_counters(head, on_chain);

        let result_tree_cost = s_cost(&pre_lift_tree)?;
        Ok(AggregateOutput {
            result,
            stats: EvalStats {
                optimisation_time,
                execution_time,
                result_tree_cost,
                plan_cost: optimised.cost.max_intermediate,
                result_size: 0,
                result_tuples: 0,
                plan,
                explored_states: optimised.explored_states,
                fused_segments,
                aggregates_on_overlay: usize::from(on_overlay),
                barriers_fused,
                arenas_skipped,
                queries_served: 1,
                plan_cache_hits: resolved.cache_hits,
                plan_cache_misses: resolved.cache_misses,
                plan_cache_evictions: resolved.cache_evictions,
                chain_heads,
                flat_head_fallbacks,
            },
        })
    }

    /// Evaluates an `ORDER BY` query on a flat relational database: the
    /// factorised result is built over the optimal f-tree exactly like
    /// [`FdbEngine::evaluate_flat`], then enumerated in the canonical order
    /// (see [`OrderedOutput`]).  When the ordering attributes sit on — or
    /// can be swapped onto, at no asymptotic cost — a root path of the
    /// result's f-tree, the ordered rows come straight off the priority
    /// cursor (already in their final order whenever its slot layout is
    /// canonical, see `fdb_frep::enumerate`); otherwise the result is
    /// enumerated and sorted flat.  The query must carry a non-empty
    /// `order_by` and no aggregate head ([`Query::validate`] rejects the
    /// combination).
    pub fn evaluate_flat_ordered(&self, db: &Database, query: &Query) -> Result<OrderedOutput> {
        if query.order_by.is_empty() {
            return Err(FdbError::InvalidInput {
                detail: "evaluate_flat_ordered: query has no ORDER BY head".into(),
            });
        }
        let opt_start = Instant::now();
        let search = fdb_plan::optimal_ftree(db.catalog(), query, |r| db.rel_len(r) as u64)?;
        let optimisation_time = opt_start.elapsed();

        let exec_start = Instant::now();
        let mut result = build_frep(db, query, &search.tree)?;
        let mut plan = FPlan::empty();
        if let Some(proj) = &query.projection {
            let keep: BTreeSet<AttrId> = proj.iter().copied().collect();
            plan.push(FPlanOp::Project(keep));
        }
        let pre_order_tree = plan.final_tree(result.tree())?;
        let decision = plan_head_chain(&pre_order_tree, &query.order_by)?;
        plan.extend(decision.plan);
        let simplified = plan.simplified(result.tree());
        let (fused_segments, barriers_fused, arenas_skipped) = fusion_counters(&simplified);
        simplified.execute_presimplified(&mut result)?;
        let (rows, strategy) = fdb_frep::materialize_ordered(&result, &query.order_by)?;
        let execution_time = exec_start.elapsed();

        Ok(OrderedOutput {
            stats: EvalStats {
                optimisation_time,
                execution_time,
                result_tree_cost: s_cost(result.tree())?,
                plan_cost: search.cost,
                result_size: result.size(),
                result_tuples: result.tuple_count(),
                plan,
                explored_states: search.explored_states,
                fused_segments,
                aggregates_on_overlay: 0,
                barriers_fused,
                arenas_skipped,
                queries_served: 1,
                plan_cache_hits: 0,
                plan_cache_misses: 0,
                plan_cache_evictions: 0,
                chain_heads: u64::from(strategy == OrderStrategy::Chain),
                flat_head_fallbacks: u64::from(strategy == OrderStrategy::FlatSort),
            },
            rows,
            strategy,
        })
    }

    /// Evaluates a query over a factorised input and returns the result
    /// rows in the canonical `ORDER BY` order (see [`OrderedOutput`]).  The
    /// restructuring plan for the equality conditions is assembled exactly
    /// like [`FdbEngine::evaluate_factorised`]; the ordering chain swaps
    /// (when the costed planner chooses them) are appended to the same plan
    /// and execute inside the same fused overlay program, so bringing the
    /// ordering attributes to the root path costs no extra arena pass.
    pub fn evaluate_factorised_ordered(
        &self,
        input: &FRep,
        query: &FactorisedQuery,
        order_by: &[AttrId],
    ) -> Result<OrderedOutput> {
        self.evaluate_factorised_ordered_inner(input, query, order_by, None, &ExecCtx::unlimited())
    }

    /// [`FdbEngine::evaluate_factorised_ordered`] through a [`PlanCache`]
    /// (see [`FdbEngine::evaluate_factorised_cached`]).  The cache key
    /// includes the ordering head: the same structural query ordered
    /// differently needs different chain swaps, so the shapes must not
    /// share an entry.
    pub fn evaluate_factorised_ordered_cached(
        &self,
        input: &FRep,
        query: &FactorisedQuery,
        order_by: &[AttrId],
        cache: &PlanCache,
    ) -> Result<OrderedOutput> {
        self.evaluate_factorised_ordered_inner(
            input,
            query,
            order_by,
            Some(cache),
            &ExecCtx::unlimited(),
        )
    }

    /// [`FdbEngine::evaluate_factorised_ordered`] under a governance
    /// context (see [`FdbEngine::evaluate_factorised_ctx`]): the plan
    /// execution, the ordered enumeration and the sort all charge the
    /// context per record.
    pub fn evaluate_factorised_ordered_ctx(
        &self,
        input: &FRep,
        query: &FactorisedQuery,
        order_by: &[AttrId],
        cache: Option<&PlanCache>,
        ctx: &ExecCtx,
    ) -> Result<OrderedOutput> {
        self.evaluate_factorised_ordered_inner(input, query, order_by, cache, ctx)
    }

    fn evaluate_factorised_ordered_inner(
        &self,
        input: &FRep,
        query: &FactorisedQuery,
        order_by: &[AttrId],
        cache: Option<&PlanCache>,
        ctx: &ExecCtx,
    ) -> Result<OrderedOutput> {
        if order_by.is_empty() {
            return Err(FdbError::InvalidInput {
                detail: "evaluate_factorised_ordered: empty ORDER BY head".into(),
            });
        }
        let resolved = self.resolve_factorised_plan(input, query, cache, None, order_by, ctx)?;
        let optimisation_time = resolved.optimisation_time;
        let optimised = &resolved.plan;

        let mut plan = FPlan::empty();
        for sel in &query.const_selections {
            plan.push(FPlanOp::SelectConst {
                attr: sel.attr,
                op: sel.op,
                value: sel.value,
            });
        }
        plan.extend(optimised.plan.clone());
        if let Some(proj) = &query.projection {
            plan.push(FPlanOp::Project(proj.iter().copied().collect()));
        }
        let pre_order_tree = plan.final_tree(input.tree())?;
        let decision = plan_head_chain(&pre_order_tree, order_by)?;
        plan.extend(decision.plan);

        let simplified = plan.simplified(input.tree());
        let (fused_segments, barriers_fused, arenas_skipped) = fusion_counters(&simplified);
        let exec_start = Instant::now();
        let mut result = input.clone();
        simplified.execute_presimplified_ctx(&mut result, ctx)?;
        let (rows, strategy) = fdb_frep::materialize_ordered_ctx(&result, order_by, ctx)?;
        let execution_time = exec_start.elapsed();

        Ok(OrderedOutput {
            stats: EvalStats {
                optimisation_time,
                execution_time,
                result_tree_cost: s_cost(result.tree())?,
                plan_cost: optimised.cost.max_intermediate,
                result_size: result.size(),
                result_tuples: result.tuple_count(),
                plan,
                explored_states: optimised.explored_states,
                fused_segments,
                aggregates_on_overlay: 0,
                barriers_fused,
                arenas_skipped,
                queries_served: 1,
                plan_cache_hits: resolved.cache_hits,
                plan_cache_misses: resolved.cache_misses,
                plan_cache_evictions: resolved.cache_evictions,
                chain_heads: u64::from(strategy == OrderStrategy::Chain),
                flat_head_fallbacks: u64::from(strategy == OrderStrategy::FlatSort),
            },
            rows,
            strategy,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdb_common::{Catalog, ComparisonOp, RelId, Value};
    use fdb_frep::materialize;
    use fdb_relation::RdbEngine;

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

        let query = q1(&db, &rels).with_aggregate(fdb_common::AggregateHead::count());
        let out = FdbEngine::new()
            .evaluate_flat_aggregate(&db, &query)
            .unwrap();
        assert_eq!(
            out.result,
            fdb_frep::AggregateResult::Scalar(AggregateValue::Count(flat.len() as u128))
        );
        assert_eq!(out.stats.aggregates_on_overlay, 0);

        let query = q1(&db, &rels).with_aggregate(fdb_common::AggregateHead::over(
            fdb_common::AggregateFunc::Sum,
            oid,
        ));
        let expected: u128 = flat.rows().map(|r| r[col].raw() as u128).sum();
        let out = FdbEngine::new()
            .evaluate_flat_aggregate(&db, &query)
            .unwrap();
        assert_eq!(
            out.result,
            fdb_frep::AggregateResult::Scalar(AggregateValue::Sum(expected))
        );

        // A query without an aggregate head is rejected.
        assert!(FdbEngine::new()
            .evaluate_flat_aggregate(&db, &q1(&db, &rels))
            .is_err());
    }

    #[test]
    fn flat_grouped_aggregate_works_for_any_group_attribute() {
        // Root-attribute grouping must not depend on where the cost-driven
        // f-tree search happens to put the group attribute: the engine lifts
        // it to a root with swaps.  Check every attribute of the query
        // against the enumeration oracle (which groups on anything).
        let (db, rels) = grocery();
        let base = FdbEngine::new()
            .evaluate_flat(&db, &q1(&db, &rels))
            .unwrap();
        for group in base.result.visible_attrs() {
            let query =
                q1(&db, &rels).with_aggregate(fdb_common::AggregateHead::count().grouped_by(group));
            let out = FdbEngine::new()
                .evaluate_flat_aggregate(&db, &query)
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
        let head = fdb_common::AggregateHead::count();
        let agg = engine
            .evaluate_factorised_aggregate(&base.result, &fq, &head)
            .unwrap();
        assert_eq!(
            agg.result,
            fdb_frep::AggregateResult::Scalar(fdb_frep::AggregateValue::Count(
                full.stats.result_tuples
            ))
        );
        assert_eq!(
            agg.stats.aggregates_on_overlay, 1,
            "equality-only plans end structurally: the aggregate folds over the overlay"
        );
        assert!((agg.stats.result_tree_cost - full.stats.result_tree_cost).abs() < 1e-9);

        // The counters table formats both counters on one consistent row.
        let table = agg.stats.counters_table();
        assert!(table.contains("fused segments / overlay aggregates"));
        assert!(table.contains(&format!(
            "{} / {}",
            agg.stats.fused_segments, agg.stats.aggregates_on_overlay
        )));
        // The whole plan ran on the overlay: every operator's arena was
        // skipped, none was emitted.
        assert!(
            agg.stats.arenas_skipped > 0,
            "aggregate sink skips every arena pass"
        );
        assert_eq!(agg.stats.arenas_skipped, agg.stats.plan.len());
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
        let head = fdb_common::AggregateHead::count();
        let agg = FdbEngine::new()
            .evaluate_factorised_aggregate(&base.result, &fq, &head)
            .unwrap();
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
        assert_eq!(agg.stats.aggregates_on_overlay, 1);
        assert_eq!(
            agg.stats.fused_segments, 1,
            "a single-selection aggregate plan still runs as one overlay program"
        );
        assert_eq!(agg.stats.barriers_fused, 1, "the selection folded in");
        assert!(
            agg.stats.arenas_skipped > 0,
            "zero intermediate arenas were emitted"
        );
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
        assert_eq!(out.stats.fused_segments, 1, "one whole-plan program");
        assert!(
            out.stats.barriers_fused >= 2,
            "the selection and the projection executed inside the program"
        );
        assert!(out.stats.arenas_skipped >= out.stats.plan.len().saturating_sub(2));
    }

    #[test]
    fn counters_table_pins_the_row_set() {
        let stats = EvalStats {
            fused_segments: 2,
            aggregates_on_overlay: 1,
            barriers_fused: 3,
            arenas_skipped: 4,
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
        assert_eq!(rows.len(), 10, "one row per pinned counter:\n{table}");
        for (row, needle) in rows.iter().zip([
            "optimisation time",
            "execution time",
            "plan cost s(f)",
            "result singletons",
            "result tuples",
            "explored states",
            "fused segments / overlay aggregates",
            "barriers fused / arenas skipped",
            "queries served / cache hits / misses / evictions",
            "chain heads / flat fallbacks",
        ]) {
            assert!(row.starts_with(needle), "row {row:?} vs {needle:?}");
        }
        assert!(table.contains("2 / 1"), "fused/overlay values:\n{table}");
        assert!(table.contains("3 / 4"), "barrier/arena values:\n{table}");
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
}
