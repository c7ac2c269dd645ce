//! `flat_join` — the paper's Experiment 3: equi-joins evaluated on flat
//! input with `FdbEngine::evaluate_flat`.
//!
//! *Why it exists:* it is the only workload where `fdb-plan`'s f-tree
//! search and `fdb-frep`'s build do all the work, and the plan cache, the
//! overlay executor and the serving layer do none — a build or f-tree
//! search change shows here, and a serving change must not.
//!
//! Three ternary relations of `N ∈ {1k, 3k, 10k}` tuples over a domain of
//! 100 values, uniform and Zipf(1.0), joined by `K ∈ {2, 3, 4}` equalities;
//! plus the combinatorial dataset (two binary 64-tuple and two ternary
//! 512-tuple relations over 20 values) with `K ∈ 1..6`; 8 queries per cell,
//! 240 ops.  The query catalogue is fixed (drawn from [`CATALOGUE_SEED`]);
//! `--seed` draws the data the queries run on.

use crate::harness::{client_pass, Observed, Pass, Tally, Workload};
use crate::oracle::FlatProduct;
use crate::trace::Recorder;
use crate::workloads::serve::check_rep;
use fdb_common::{Catalog, ExecCtx, FdbError, Query, RelId};
use fdb_core::{EvalOutput, FdbEngine};
use fdb_datagen::{combinatorial_database, populate, random_query, ValueDistribution};
use fdb_frep::build_frep_ctx;
use fdb_ftree::s_cost;
use fdb_plan::{optimal_ftree, FPlan, FPlanOp};
use fdb_relation::{Database, EvalLimits, RdbEngine};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

/// Seed of the fixed query catalogue.  Random *queries* per seed would
/// change which joins are posed — and so every latency — from seed to seed;
/// the catalogue is part of the workload's definition, the seed varies the
/// data under it.
const CATALOGUE_SEED: u64 = 0xFDB3;

/// Largest flat join result (per connected component of the query) the
/// oracle materialises; beyond it the op is cross-checked against the
/// engine's second pipeline instead.
const ORACLE_MAX_TUPLES: usize = 150_000;

/// Workload size knobs.
struct Dims {
    relation_sizes: &'static [usize],
    equalities: &'static [usize],
    combinatorial_equalities: std::ops::RangeInclusive<usize>,
    queries_per_cell: usize,
}

const FULL: Dims = Dims {
    relation_sizes: &[300, 1_000, 3_000],
    equalities: &[2, 3, 4],
    combinatorial_equalities: 1..=6,
    queries_per_cell: 8,
};

const SMOKE: Dims = Dims {
    relation_sizes: &[100, 200],
    equalities: &[2, 3],
    combinatorial_equalities: 1..=3,
    queries_per_cell: 2,
};

/// The workload: databases and the op list over them.
pub struct FlatJoin {
    engine: FdbEngine,
    databases: Vec<Database>,
    /// `(database index, query)` per op.
    ops: Vec<(usize, Query)>,
}

fn ternary_catalog() -> Catalog {
    let mut catalog = Catalog::new();
    catalog.add_relation("R0", &["a0", "a1", "a2"]);
    catalog.add_relation("R1", &["a3", "a4", "a5"]);
    catalog.add_relation("R2", &["a6", "a7", "a8"]);
    catalog
}

impl FlatJoin {
    /// Generates the data from `seed` and the op list from the catalogue.
    pub fn build(seed: u64, smoke: bool) -> FlatJoin {
        let dims = if smoke { SMOKE } else { FULL };
        let mut data_rng = StdRng::seed_from_u64(seed);
        let mut catalogue_rng = StdRng::seed_from_u64(CATALOGUE_SEED);
        let mut databases = Vec::new();
        let mut ops = Vec::new();
        let catalog = ternary_catalog();
        let rels: Vec<RelId> = catalog.rels().collect();
        for distribution in [ValueDistribution::Uniform, ValueDistribution::Zipf(1.0)] {
            for &n in dims.relation_sizes {
                databases.push(populate(&mut data_rng, &catalog, n, 100, distribution));
                for &k in dims.equalities {
                    for _ in 0..dims.queries_per_cell {
                        let query = random_query(&mut catalogue_rng, &catalog, &rels, k);
                        ops.push((databases.len() - 1, query));
                    }
                }
            }
        }
        for distribution in [ValueDistribution::Uniform, ValueDistribution::Zipf(1.0)] {
            let db = combinatorial_database(&mut data_rng, distribution);
            let catalog = db.catalog().clone();
            let rels: Vec<RelId> = catalog.rels().collect();
            databases.push(db);
            for k in dims.combinatorial_equalities.clone() {
                for _ in 0..dims.queries_per_cell {
                    let query = random_query(&mut catalogue_rng, &catalog, &rels, k);
                    ops.push((databases.len() - 1, query));
                }
            }
        }
        FlatJoin {
            engine: FdbEngine::new(),
            databases,
            ops,
        }
    }

    fn op(&self, op: usize) -> (&Database, &Query) {
        let (db, query) = &self.ops[op];
        (&self.databases[*db], query)
    }
}

/// Evaluates the query with the flat relational engine, one connected
/// component of its join graph at a time (a flat engine would not expand a
/// cross product either).  `None` when a component exceeds the oracle's
/// tuple budget.
pub fn flat_oracle(db: &Database, query: &Query) -> Option<FlatProduct> {
    let catalog = db.catalog();
    // Every equality links the relations of its two attributes; a component
    // is named by its smallest member.
    let mut component_of: Vec<RelId> = query.relations.clone();
    let index = |rel: RelId| query.relations.iter().position(|&r| r == rel);
    for eq in &query.equalities {
        let (Some(l), Some(r)) = (
            index(catalog.attr_relation(eq.left)),
            index(catalog.attr_relation(eq.right)),
        ) else {
            return None;
        };
        let (keep, drop) = (
            component_of[l].min(component_of[r]),
            component_of[l].max(component_of[r]),
        );
        for c in &mut component_of {
            if *c == drop {
                *c = keep;
            }
        }
    }
    let mut names = component_of.clone();
    names.sort_unstable();
    names.dedup();
    let components = names.iter().map(|&name| -> Vec<RelId> {
        query
            .relations
            .iter()
            .zip(&component_of)
            .filter(|&(_, &c)| c == name)
            .map(|(&rel, _)| rel)
            .collect()
    });
    let rdb = RdbEngine::new().with_limits(
        EvalLimits::unlimited()
            .with_timeout(Duration::from_secs(2))
            .with_max_tuples(ORACLE_MAX_TUPLES),
    );
    let mut parts = Vec::new();
    for component in components {
        let mut sub = Query::product(component.clone());
        for eq in &query.equalities {
            if component.contains(&catalog.attr_relation(eq.left)) {
                sub = sub.with_equality(eq.left, eq.right);
            }
        }
        parts.push(rdb.evaluate(db, &sub).ok()?);
    }
    Some(FlatProduct::new(parts))
}

impl Workload for FlatJoin {
    type Outcome = EvalOutput;

    fn op_count(&self) -> usize {
        self.ops.len()
    }

    fn run_op(&self, op: usize) -> Result<EvalOutput, FdbError> {
        let (db, query) = self.op(op);
        self.engine.evaluate_flat(db, query)
    }

    fn observe(&self, outcome: &EvalOutput) -> Observed {
        Observed::Rep {
            size: outcome.stats.result_size,
            tuples: outcome.stats.result_tuples,
        }
    }

    fn check_op(&self, op: usize, outcome: &EvalOutput) -> Result<(), String> {
        let (db, query) = self.op(op);
        let reported = (outcome.stats.result_size, outcome.stats.result_tuples);
        if let Some(expected) = flat_oracle(db, query) {
            return check_rep(&outcome.result, reported, &expected);
        }
        // Too large for any flat engine (the paper reports these points as
        // time-outs for RDB): validate the result and cross-check its tuple
        // count against the engine's other pipeline, which loads every
        // relation as a trivial factorisation and runs an f-plan over their
        // product instead of building over an f-tree.
        outcome.result.validate().map_err(|e| e.to_string())?;
        if reported != (outcome.result.size(), outcome.result.tuple_count()) {
            return Err("stats disagree with the result's own counts".into());
        }
        let other = self
            .engine
            .evaluate_flat_via_operators(db, query)
            .map_err(|e| e.to_string())?;
        if other.stats.result_tuples != reported.1 {
            return Err(format!(
                "{} tuples, the operator pipeline has {}",
                reported.1, other.stats.result_tuples
            ));
        }
        Ok(())
    }

    /// `threads` scoped client threads over the shared `&Database`s.
    fn run_pass(&self, threads: usize, expected: &[Observed]) -> Pass {
        client_pass(self, threads, expected)
    }

    /// `optimal_ftree` → `build_frep_ctx` → projection plan → `s_cost` →
    /// `size`/`tuple_count`, as `evaluate_flat` does.
    fn replay_op(
        &self,
        op: usize,
        outcome: EvalOutput,
        rec: &mut Recorder,
        tally: &mut Tally,
    ) -> Result<(), String> {
        let err = |e: FdbError| e.to_string();
        let (db, query) = self.op(op);
        let ctx = ExecCtx::unlimited();
        tally.opt_ns += outcome.stats.optimisation_time.as_nanos() as u64;
        tally.exec_ns += outcome.stats.execution_time.as_nanos() as u64;

        let search = rec
            .span("plan.ftree_search", || {
                optimal_ftree(db.catalog(), query, |r| db.rel_len(r) as u64)
            })
            .map_err(err)?;
        tally.ftree_states += search.explored_states as u64;
        let mut result = rec
            .span("frep.build", || {
                build_frep_ctx(db, query, &search.tree, &ctx)
            })
            .map_err(err)?;
        let simplified = rec.span("plan.simplify", || {
            let mut plan = FPlan::empty();
            if let Some(keep) = &query.projection {
                plan.push(FPlanOp::Project(keep.iter().copied().collect()));
            }
            plan.simplified(result.tree())
        });
        rec.span("frep.fuse", || {
            simplified.execute_presimplified_ctx(&mut result, &ctx)
        })
        .map_err(err)?;
        rec.span("ftree.s_cost", || s_cost(result.tree()))
            .map_err(err)?;
        let (size, _) = rec.span("frep.stats", || (result.size(), result.tuple_count()));
        tally.built_singletons += size as u64;
        if result.store_identical(&outcome.result) {
            Ok(())
        } else {
            Err("replayed build is not store-identical to evaluate_flat's result".into())
        }
    }
}
