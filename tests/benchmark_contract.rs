//! The standing benchmark's contract, pinned where tier-1 sees it.
//!
//! `benchmark/` is a workspace of its own, so `cargo test` at the root never
//! builds it, and an engine change may not edit it.  This file names every
//! path of `benchmark/README.md` § "Engine functions the benchmark calls"
//! with its arity — functions as function pointers, struct fields and enum
//! variants by pattern — so removing or re-typing one fails `cargo test` at
//! compile time instead of in the CI smoke step.  Nothing here runs engine
//! code beyond a three-line snapshot save that pins the file naming.

#![allow(clippy::type_complexity)]

use fdb::common::{
    AggregateFunc, AggregateHead, ConstSelection, ExecCtx, QueryLimits, Result as FdbResult,
};
use fdb::datagen::{
    combinatorial_database, populate, random_followup_equalities, random_query, ValueDistribution,
};
use fdb::engine::{
    load_rep, save_database, AggregateOutput, EvalOutput, EvalStats, FactorisedQuery, FdbEngine,
    FdbServer, OrderedOutput, RepId, ServeOutcome, ServeRequest, ServerStats, SharedDatabase,
};
use fdb::frep::{
    aggregate, decode_frep_ctx, encode_frep_ctx, materialize, materialize_ordered_ctx, ops,
    AggregateKind, AggregateResult, AggregateValue, AvgValue, Entry, FRep, OrderStrategy, Union,
};
use fdb::ftree::{s_cost, DepEdge, FTree, NodeId};
use fdb::plan::{
    optimal_ftree, plan_chain_restructure, ChainDecision, ChainStrategy, ExhaustiveOptimizer,
    FPlan, FPlanOp, FTreeSearchResult, GreedyOptimizer, OptimizedPlan,
};
use fdb::relation::{Database, EvalLimits, RdbEngine, Relation};
use fdb::{AttrId, Catalog, ComparisonOp, Query, RelId, Value};
use rand::rngs::StdRng;
use std::collections::BTreeSet;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

/// The timed entry points and the records they return.
fn entry_points() {
    let _: fn() -> FdbEngine = FdbEngine::new;
    let _: fn(&FdbEngine, &Database, &Query) -> FdbResult<EvalOutput> = FdbEngine::evaluate_flat;
    let _: fn(FdbEngine, Arc<SharedDatabase>, usize) -> FdbServer = FdbServer::new;
    let _: fn(&FdbServer, &ServeRequest) -> FdbResult<ServeOutcome> = FdbServer::serve_one;
    let _: fn(&FdbServer, Vec<ServeRequest>) -> Vec<FdbResult<ServeOutcome>> =
        FdbServer::serve_batch;
    let _: fn(&FdbServer, RepId, FRep) -> FdbResult<Arc<FRep>> = FdbServer::replace;
    let _: fn(&FdbServer) -> ServerStats = FdbServer::stats;

    let _: fn(RepId, FactorisedQuery, Option<AggregateHead>) -> ServeRequest = ServeRequest::new;
    let _: fn(ServeRequest, Vec<AttrId>) -> ServeRequest = ServeRequest::with_order_by;
    let _ = |request: ServeRequest| {
        let ServeRequest {
            rep,
            query,
            aggregate,
            order_by,
            limits,
        } = request;
        let _: (
            RepId,
            FactorisedQuery,
            Option<AggregateHead>,
            Vec<AttrId>,
            QueryLimits,
        ) = (rep, query, aggregate, order_by, limits);
    };

    let _: fn(&ServeOutcome) -> &EvalStats = ServeOutcome::stats;
    let _ = |outcome: ServeOutcome| match outcome {
        ServeOutcome::Rep(EvalOutput { result, stats }) => {
            let _: (FRep, EvalStats) = (result, stats);
        }
        ServeOutcome::Aggregate(AggregateOutput { result, stats }) => {
            let _: (AggregateResult, EvalStats) = (result, stats);
        }
        ServeOutcome::Ordered(OrderedOutput {
            rows,
            strategy,
            stats,
        }) => {
            let _: (Relation, OrderStrategy, EvalStats) = (rows, strategy, stats);
        }
    };
    let _ = |stats: EvalStats| {
        let EvalStats {
            optimisation_time,
            execution_time,
            result_size,
            result_tuples,
            explored_states,
            plan_cache_misses,
            chain_heads,
            flat_head_fallbacks,
            ..
        } = stats;
        let _: (Duration, Duration, usize, u128, usize, u64, u64, u64) = (
            optimisation_time,
            execution_time,
            result_size,
            result_tuples,
            explored_states,
            plan_cache_misses,
            chain_heads,
            flat_head_fallbacks,
        );
    };
    let _ = |stats: ServerStats| {
        let ServerStats {
            plan_cache_hits,
            plan_cache_misses,
            plan_cache_evictions,
            plan_cache_invalidations,
            ..
        } = stats;
        let _: [u64; 4] = [
            plan_cache_hits,
            plan_cache_misses,
            plan_cache_evictions,
            plan_cache_invalidations,
        ];
    };

    let _: fn() -> SharedDatabase = SharedDatabase::new;
    let _: fn(&mut SharedDatabase, &'static str, FRep) -> FdbResult<RepId> = SharedDatabase::insert;
    let _: fn(&SharedDatabase, RepId) -> Option<Arc<FRep>> = SharedDatabase::get;

    let _: fn() -> FactorisedQuery = FactorisedQuery::default;
    let _: fn(Vec<(AttrId, AttrId)>) -> FactorisedQuery = FactorisedQuery::equalities;
    let _: fn(FactorisedQuery, ConstSelection) -> FactorisedQuery =
        FactorisedQuery::with_const_selection;
    let _: fn(FactorisedQuery, Vec<AttrId>) -> FactorisedQuery = FactorisedQuery::with_projection;
    let _ = |query: FactorisedQuery| {
        let FactorisedQuery {
            equalities,
            const_selections,
            projection,
        } = query;
        let _: (
            Vec<(AttrId, AttrId)>,
            Vec<ConstSelection>,
            Option<Vec<AttrId>>,
        ) = (equalities, const_selections, projection);
    };

    let _: fn(&SharedDatabase, &Path) -> FdbResult<()> = save_database;
    let _: fn(&Path) -> FdbResult<FRep> = load_rep;
}

/// The layer functions the traced phase replays a request through.
fn replay_layers() {
    let _: fn(&Catalog, &Query, fn(RelId) -> u64) -> FdbResult<FTreeSearchResult> = optimal_ftree;
    let _ = |found: FTreeSearchResult| {
        let FTreeSearchResult {
            tree,
            explored_states,
            ..
        } = found;
        let _: (FTree, usize) = (tree, explored_states);
    };
    let _: fn(&Database, &Query, &FTree, &ExecCtx) -> FdbResult<FRep> = fdb::frep::build_frep_ctx;

    let _: fn() -> ExhaustiveOptimizer = ExhaustiveOptimizer::new;
    let _: fn(&ExhaustiveOptimizer, &FTree, &[(AttrId, AttrId)]) -> FdbResult<OptimizedPlan> =
        ExhaustiveOptimizer::optimize;
    let _: fn() -> GreedyOptimizer = GreedyOptimizer::new;
    let _: fn(&GreedyOptimizer, &FTree, &[(AttrId, AttrId)]) -> FdbResult<OptimizedPlan> =
        GreedyOptimizer::optimize;
    let _ = |optimised: OptimizedPlan| {
        let OptimizedPlan {
            plan,
            cost,
            explored_states,
        } = optimised;
        let _: (FPlan, f64, usize) = (plan, cost.max_intermediate, explored_states);
    };

    let _: fn() -> FPlan = FPlan::empty;
    let _: fn(&mut FPlan, FPlanOp) = FPlan::push;
    let _: fn(&mut FPlan, FPlan) = FPlan::extend;
    let _: fn(&FPlan, &FTree) -> FdbResult<FTree> = FPlan::final_tree;
    let _: fn(&FPlan, &FTree) -> FPlan = FPlan::simplified;
    let _: fn(&FPlan, &mut FRep, &ExecCtx) -> FdbResult<()> = FPlan::execute_presimplified_ctx;
    let _: fn(
        &FPlan,
        &FRep,
        AggregateKind,
        &[AttrId],
        &ExecCtx,
    ) -> FdbResult<(AggregateResult, bool)> = FPlan::execute_aggregate_presimplified_ctx;
    let _ = |attr: AttrId, op: ComparisonOp, value: Value, keep: BTreeSet<AttrId>| {
        [
            FPlanOp::SelectConst { attr, op, value },
            FPlanOp::Project(keep),
        ]
    };

    let _: fn(&FTree, &[AttrId]) -> FdbResult<ChainDecision> = plan_chain_restructure;
    let _ = |decision: ChainDecision| {
        let ChainDecision { strategy, plan, .. } = decision;
        let _: (ChainStrategy, FPlan) = (strategy, plan);
    };
    let _: fn(&FTree) -> FdbResult<f64> = s_cost;

    let _: fn(&FRep) -> FRep = FRep::clone;
    let _: fn(&FRep) -> usize = FRep::size;
    let _: fn(&FRep) -> u128 = FRep::tuple_count;
    let _: fn(&FRep) -> FdbResult<()> = FRep::validate;
    let _: fn(&FRep, &FRep) -> bool = FRep::store_identical;
    let _: fn(&FRep) -> &FTree = FRep::tree;
    let _: fn(&FRep) -> Vec<AttrId> = FRep::visible_attrs;

    let _: fn(&FRep, &[AttrId], &ExecCtx) -> FdbResult<(Relation, OrderStrategy)> =
        materialize_ordered_ctx;
    let _: fn(&[u8], &ExecCtx) -> FdbResult<FRep> = decode_frep_ctx;
    let _: fn(&FRep, &ExecCtx) -> FdbResult<Vec<u8>> = encode_frep_ctx;
    let _: fn(&FRep, AggregateKind, &[AttrId]) -> FdbResult<AggregateResult> =
        aggregate::by_enumeration;
    let _: fn(&QueryLimits) -> ExecCtx = ExecCtx::new;
    let _: fn() -> ExecCtx = ExecCtx::unlimited;
}

/// What the harness builds its inputs and its flat oracle from.
fn inputs_and_oracle() {
    let _: fn(&mut StdRng, &Catalog, usize, u64, ValueDistribution) -> Database = populate;
    let _: fn(&mut StdRng, ValueDistribution) -> Database = combinatorial_database;
    let _: fn(&mut StdRng, &Catalog, &[RelId], usize) -> Query = random_query;
    let _: fn(&mut StdRng, &Catalog, &Query, usize) -> Vec<(AttrId, AttrId)> =
        random_followup_equalities;
    let _ = [ValueDistribution::Uniform, ValueDistribution::Zipf(1.0)];

    let _: fn() -> Catalog = Catalog::new;
    let _: fn(&mut Catalog, &str, &[&'static str]) -> (RelId, Vec<AttrId>) = Catalog::add_relation;
    let _ = |catalog: &Catalog| {
        let _: Vec<RelId> = catalog.rels().collect();
    };
    let _: fn(&Catalog, RelId) -> &[AttrId] = Catalog::rel_attrs;
    let _: fn(&Catalog, AttrId) -> RelId = Catalog::attr_relation;
    let _: fn(&Catalog, &str) -> Option<AttrId> = Catalog::find_attr;

    let _: fn(Vec<RelId>) -> Query = Query::product;
    let _: fn(Query, AttrId, AttrId) -> Query = Query::with_equality;
    let _: fn(&Query, &Catalog) -> Vec<AttrId> = Query::all_attrs;
    let _ = |query: Query| {
        let Query {
            relations,
            equalities,
            const_selections,
            projection,
            aggregate,
            order_by,
        } = query;
        let _: (Vec<RelId>, Vec<ConstSelection>, Option<Vec<AttrId>>) =
            (relations, const_selections, projection);
        let _: (Option<AggregateHead>, Vec<AttrId>) = (aggregate, order_by);
        drop(equalities);
    };
    let _: fn() -> AggregateHead = AggregateHead::count;
    let _: fn(AggregateFunc, AttrId) -> AggregateHead = AggregateHead::over;
    let _: fn(AggregateHead, AttrId) -> AggregateHead = AggregateHead::grouped_by;
    let _: fn(AggregateHead) -> AggregateHead = AggregateHead::with_distinct;
    let _: fn(ComparisonOp, Value, Value) -> bool = ComparisonOp::eval;
    let _ = |attr: AttrId, op: ComparisonOp, value: Value| ConstSelection { attr, op, value };
    let _: fn(u64) -> Value = Value::new;
    let _: fn(Value) -> u64 = Value::raw;

    let _: fn(Catalog) -> Database = Database::new;
    let _: fn(&mut Database, RelId, &[Vec<u64>]) -> FdbResult<()> = Database::insert_raw_rows;
    let _: fn(&Database, RelId) -> Relation = Database::relation;
    let _: fn(&Database, RelId) -> usize = Database::rel_len;
    let _: fn(&Database) -> &Catalog = Database::catalog;

    let _: fn(Vec<AttrId>) -> Relation = Relation::new;
    let _: fn(Vec<AttrId>, Vec<Vec<Value>>) -> FdbResult<Relation> = Relation::from_rows;
    let _: fn(Vec<AttrId>, &[Vec<u64>]) -> FdbResult<Relation> = Relation::from_raw_rows;
    let _: fn(&Relation) -> &[AttrId] = Relation::attrs;
    let _: fn(&Relation) -> usize = Relation::arity;
    let _: fn(&Relation) -> usize = Relation::len;
    let _: fn(&Relation) -> bool = Relation::is_empty;
    let _ = |relation: &Relation| {
        let _: Vec<&[Value]> = relation.rows().collect();
    };
    let _: fn(&Relation, usize) -> &[Value] = Relation::row;
    let _: fn(&mut Relation, &[Value]) -> FdbResult<()> = Relation::push_row;
    let _: fn(&Relation, AttrId) -> Option<usize> = Relation::col_index;
    let _: fn(&Relation, AttrId) -> bool = Relation::has_attr;
    let _: fn(&Relation, fn(&[Value]) -> bool) -> Relation = Relation::filter;
    let _: fn(&Relation, &[AttrId]) -> FdbResult<Relation> = Relation::project_distinct;
    let _: fn(&Relation, &[AttrId]) -> FdbResult<Relation> = Relation::reorder_columns;
    let _: fn(&mut Relation, &[usize]) = Relation::sort_by_cols;
    let _: fn(&mut Relation) = Relation::sort_and_dedup;

    let _: fn() -> RdbEngine = RdbEngine::new;
    let _: fn(RdbEngine, EvalLimits) -> RdbEngine = RdbEngine::with_limits;
    let _: fn(&RdbEngine, &Database, &Query) -> FdbResult<Relation> = RdbEngine::evaluate;
    let _ = |limits: EvalLimits| {
        let EvalLimits {
            max_tuples,
            timeout,
        } = limits;
        let _: (Option<usize>, Option<Duration>) = (max_tuples, timeout);
    };

    let _: fn(Vec<DepEdge>) -> FTree = FTree::new;
    let _: fn(&mut FTree, BTreeSet<AttrId>, Option<NodeId>) -> FdbResult<NodeId> = FTree::add_node;
    let _: fn(&'static str, BTreeSet<AttrId>, u64) -> DepEdge = DepEdge::new;

    let _ = |value: Value, children: Vec<Union>| Entry { value, children };
    let _: fn(NodeId, Vec<Entry>) -> Union = Union::new;
    let _: fn(FTree, Vec<Union>) -> FdbResult<FRep> = FRep::from_parts;
    let _: fn(FRep, FRep) -> FdbResult<FRep> = ops::product;
    let _: fn(&FRep) -> FdbResult<Relation> = materialize;
    let _ = |result: AggregateResult| match result {
        AggregateResult::Scalar(value) => vec![value],
        AggregateResult::Groups(groups) => groups.into_iter().map(|(_, value)| value).collect(),
    };
    let _ = |value: AggregateValue| match value {
        AggregateValue::Count(n) | AggregateValue::Sum(n) => n.to_string(),
        AggregateValue::Min(v) | AggregateValue::Max(v) => format!("{v:?}"),
        AggregateValue::Avg(avg) => {
            let _: fn(&AvgValue) -> f64 = AvgValue::as_f64;
            format!("{avg:?}")
        }
    };

    let _: fn(&FdbEngine, &FRep, &FactorisedQuery) -> FdbResult<EvalOutput> =
        FdbEngine::evaluate_factorised;
    let _: fn(&FdbEngine, &Database, &Query) -> FdbResult<EvalOutput> =
        FdbEngine::evaluate_flat_via_operators;
}

#[test]
fn every_pinned_engine_path_keeps_its_name_and_arity() {
    entry_points();
    replay_layers();
    inputs_and_oracle();

    // `save_database` names its files `rep-<index>.fdbs`; the harness reads
    // them back one by one with `load_rep`.
    let mut tree = FTree::new(vec![DepEdge::new("R", BTreeSet::from([AttrId(0)]), 1)]);
    let node = tree.add_node(BTreeSet::from([AttrId(0)]), None).unwrap();
    let leaf = Union::new(node, vec![Entry::leaf(Value::new(7))]);
    let rep = FRep::from_parts(tree, vec![leaf]).unwrap();
    let mut db = SharedDatabase::new();
    db.insert("only", rep.clone()).unwrap();
    let dir = std::env::temp_dir().join(format!("fdb-contract-{}", std::process::id()));
    save_database(&db, &dir).unwrap();
    let loaded = load_rep(&dir.join("rep-0.fdbs")).unwrap();
    assert!(loaded.store_identical(&rep));
    std::fs::remove_dir_all(&dir).unwrap();
}
