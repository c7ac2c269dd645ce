//! `serve_cold` — the paper's Experiments 2 and 4 as serving traffic:
//! follow-up equality conditions posed on factorised query results, with a
//! **fresh `FdbServer` (fresh `PlanCache`) built outside the timed region
//! for every round and pass**, so every request misses the cache.
//!
//! *Why it exists:* it drives the plan-cache / optimiser layer the opposite
//! way to `serve_hot`.  `ExhaustiveOptimizer::optimize` is nearly all of a
//! request here, so an optimiser change shows here and must not show on
//! `serve_hot`; a cache change the reverse.
//!
//! Inputs are the `evaluate_flat` results of `K ∈ 2..6` equalities on the
//! combinatorial dataset (4 base queries per `K`, 20 inputs); requests are
//! `L ∈ 1..3` follow-up equalities (4 per input and `L`, 240 ops).  (`K = 1`
//! inputs cost the exhaustive search up to 120 ms a request and half of
//! every round; with them five rounds do not fit the time a run has.)  Base
//! and follow-up queries are a fixed catalogue ([`CATALOGUE_SEED`]), and so
//! is the data under them ([`DATA_SEED`]): the optimiser's cost depends on
//! the shape alone, shapes redrawn per seed would move every latency, and
//! data redrawn per seed moves only the result sizes (by ±10 %, more than
//! the bound on `result_singletons`).  `--seed` picks which batch of the
//! (fixed, shuffled) op list a round starts with.

use crate::workloads::flat_join::flat_oracle;
use crate::workloads::serve::{OracleInputs, ServeWorkload, BATCH};
use fdb_common::{Query, RelId};
use fdb_core::{FactorisedQuery, FdbEngine, ServeRequest, SharedDatabase};
use fdb_datagen::{
    combinatorial_database, random_followup_equalities, random_query, ValueDistribution,
};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Seed of the fixed catalogue of base and follow-up queries.
const CATALOGUE_SEED: u64 = 0xFDB4;
/// Seed of the fixed data under them.
const DATA_SEED: u64 = 1;

/// Builds the workload: inputs, the request list rotated by `seed`, cold
/// server.
pub fn build(seed: u64, smoke: bool) -> ServeWorkload {
    let (ks, per_k, max_l, per_l) = if smoke {
        (2..=3, 2, 2, 2)
    } else {
        (2..=6, 4, 3, 4)
    };
    let mut catalogue_rng = StdRng::seed_from_u64(CATALOGUE_SEED);
    let flat_db = combinatorial_database(
        &mut StdRng::seed_from_u64(DATA_SEED),
        ValueDistribution::Uniform,
    );
    let catalog = flat_db.catalog().clone();
    let rels: Vec<RelId> = catalog.rels().collect();
    let engine = FdbEngine::new();

    let mut db = SharedDatabase::new();
    let mut requests = Vec::new();
    let mut bases: Vec<(fdb_core::RepId, Query)> = Vec::new();
    for k in ks {
        for _ in 0..per_k {
            let base = random_query(&mut catalogue_rng, &catalog, &rels, k);
            let input = engine
                .evaluate_flat(&flat_db, &base)
                .expect("base query evaluates")
                .result;
            let id = db
                .insert(format!("input-{}", bases.len()), input)
                .expect("unique input names");
            for l in 1..=max_l {
                for _ in 0..per_l {
                    let follow = random_followup_equalities(&mut catalogue_rng, &catalog, &base, l);
                    requests.push(ServeRequest::new(
                        id,
                        FactorisedQuery::equalities(follow),
                        None,
                    ));
                }
            }
            bases.push((id, base));
        }
    }

    // A fixed shuffle spreads the expensive inputs over the list (and so
    // over the throughput pass's batches); the seed picks which batch the
    // list starts with, so the batches themselves are the same for every
    // seed.
    requests.shuffle(&mut catalogue_rng);
    let batches = requests.len().div_ceil(BATCH);
    let start = seed as usize % batches * BATCH % requests.len();
    requests.rotate_left(start);

    // The oracle's form of an input: the base query through the flat
    // relational engine, one join component at a time.
    let oracle = OracleInputs::new(move || {
        bases
            .into_iter()
            .map(|(id, base)| {
                let flat = flat_oracle(&flat_db, &base)
                    .expect("combinatorial join components fit the oracle's budget");
                (id, flat)
            })
            .collect()
    });
    ServeWorkload::new(db, requests, oracle, true)
}
