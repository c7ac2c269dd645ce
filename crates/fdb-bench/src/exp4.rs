//! Experiment 4 (Figure 8): query evaluation on factorised data.
//!
//! Inputs are the results of Experiment-3-style queries with `K` equality
//! selections over the combinatorial dataset (`R = 4`, `A = 10`): FDB keeps
//! them factorised, RDB keeps them as flat relations.  The new queries are
//! conjunctions of `L` further equality conditions on the attribute classes
//! of the input.  RDB evaluates them with a single scan over the flat
//! relation; FDB runs the f-plan chosen by the full-search optimiser, which
//! may need to restructure the factorisation first.  The paper reports up to
//! four orders of magnitude advantage for FDB in both result size and
//! evaluation time, closing only when the inputs shrink to about a thousand
//! tuples.

use crate::exp3::{check_cells, Measurement};
use crate::Scale;
use fdb_common::{AttrId, Query, RelId};
use fdb_core::{FactorisedQuery, FdbEngine};
use fdb_datagen::{
    combinatorial_database, random_followup_equalities, random_query, ValueDistribution,
};
use fdb_relation::{EvalLimits, LimitChecker, RdbEngine, Relation};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

/// One measurement point of Experiment 4.
#[derive(Clone, Debug)]
pub struct Exp4Row {
    /// Number of equalities `K` in the query that produced the input.
    pub input_equalities: usize,
    /// Number of equalities `L` in the follow-up query.
    pub query_equalities: usize,
    /// Size of the factorised input (singletons).
    pub input_singletons: u64,
    /// Size of the flat input (data elements).
    pub input_data_elements: u64,
    /// FDB measurement (size = singletons of the result).
    pub fdb: Measurement,
    /// RDB measurement (size = data elements of the result).
    pub rdb: Measurement,
}

/// Configuration of the Experiment 4 sweep.
#[derive(Clone, Debug)]
pub struct Exp4Config {
    /// Values of `K` (input query equalities) to sweep.
    pub input_equalities: Vec<usize>,
    /// Values of `L` (follow-up query equalities) to sweep.
    pub query_equalities: Vec<usize>,
    /// Timeout and tuple budget for producing the flat input with RDB.
    pub timeout: Duration,
    /// Tuple budget for the flat input.
    pub max_flat_tuples: usize,
}

impl Exp4Config {
    /// Configuration appropriate for the given scale.
    pub fn for_scale(scale: Scale) -> Self {
        match scale {
            Scale::Quick => Exp4Config {
                input_equalities: (2..=6).collect(),
                query_equalities: (1..=3).collect(),
                timeout: Duration::from_secs(10),
                max_flat_tuples: 20_000_000,
            },
            Scale::Full => Exp4Config {
                input_equalities: (1..=8).collect(),
                query_equalities: (1..=5).collect(),
                timeout: Duration::from_secs(60),
                max_flat_tuples: 50_000_000,
            },
        }
    }
}

/// Evaluates a conjunction of equality selections on a flat relation with a
/// single scan (what RDB does for queries on materialised previous results).
fn rdb_select_scan(
    input: &Relation,
    conditions: &[(AttrId, AttrId)],
    limits: &EvalLimits,
) -> fdb_common::Result<Relation> {
    let checker = LimitChecker::new(limits);
    let cols: Vec<(usize, usize)> = conditions
        .iter()
        .filter_map(|(a, b)| Some((input.col_index(*a)?, input.col_index(*b)?)))
        .collect();
    let mut produced = 0usize;
    let mut out = Relation::new(input.attrs().to_vec());
    for row in input.rows() {
        if cols.iter().all(|&(ca, cb)| row[ca] == row[cb]) {
            out.push_row(row)?;
            produced += 1;
            if produced.is_multiple_of(4096) {
                checker.check(produced)?;
            }
        }
    }
    checker.check(produced)?;
    Ok(out)
}

/// Runs the Experiment 4 sweep.
pub fn run(scale: Scale) -> Vec<Exp4Row> {
    let config = Exp4Config::for_scale(scale);
    run_with_config(&config)
}

/// Runs the Experiment 4 sweep with an explicit configuration.
pub fn run_with_config(config: &Exp4Config) -> Vec<Exp4Row> {
    let mut rng = StdRng::seed_from_u64(0xFDB4);
    let db = combinatorial_database(&mut rng, ValueDistribution::Uniform);
    let catalog = db.catalog().clone();
    let rels: Vec<RelId> = catalog.rels().collect();
    let engine = FdbEngine::new();
    let mut rows = Vec::new();

    for &k in &config.input_equalities {
        let base_query: Query = random_query(&mut rng, &catalog, &rels, k);
        if base_query.equalities.len() < k {
            continue;
        }
        // The factorised input (FDB) and the flat input (RDB).
        let base_fdb = engine.evaluate_flat(&db, &base_query);
        let rdb_engine = RdbEngine::new().with_limits(
            EvalLimits::unlimited()
                .with_timeout(config.timeout)
                .with_max_tuples(config.max_flat_tuples),
        );
        let flat_input = rdb_engine.evaluate(&db, &base_query);

        for &l in &config.query_equalities {
            let follow = random_followup_equalities(&mut rng, &catalog, &base_query, l);
            if follow.len() < l {
                continue;
            }

            // FDB: optimise and run the f-plan on the factorised input.
            let fdb = match &base_fdb {
                Ok(base) => {
                    let start = Instant::now();
                    let query = FactorisedQuery::equalities(follow.clone());
                    let outcome = engine.evaluate_factorised(&base.result, &query);
                    Measurement::of(outcome, start.elapsed(), |out| {
                        (out.stats.result_size as u64, out.stats.result_tuples)
                    })
                }
                Err(error) => Measurement::Failed(format!("the factorised input: {error}")),
            };

            // RDB: a single selection scan over the flat input.
            let rdb = match &flat_input {
                Ok(input) => {
                    let limits = EvalLimits::unlimited()
                        .with_timeout(config.timeout)
                        .with_max_tuples(config.max_flat_tuples);
                    let start = Instant::now();
                    let outcome = rdb_select_scan(input, &follow, &limits);
                    Measurement::of(outcome, start.elapsed(), |result| {
                        (result.data_element_count() as u64, result.len() as u128)
                    })
                }
                // The flat input itself hit a limit or failed.
                Err(error) => Measurement::of_error(error),
            };

            rows.push(Exp4Row {
                input_equalities: k,
                query_equalities: l,
                input_singletons: (base_fdb.as_ref()).map_or(0, |b| b.stats.result_size as u64),
                input_data_elements: flat_input
                    .as_ref()
                    .map(|r| r.data_element_count() as u64)
                    .unwrap_or(0),
                fdb,
                rdb,
            });
        }
    }
    rows
}

/// Checks the paper's size claims of Figure 8 cell by cell, as
/// [`crate::exp3::check`] does for Figure 7: FDB finished, with 0 singletons
/// where it has 0 tuples, and wherever RDB finished, with RDB's number of
/// tuples and at most RDB's number of data elements as singletons.
/// Returns the report lines and the broken claims; the times are reported,
/// not checked.
pub fn check(rows: &[Exp4Row]) -> (Vec<String>, Vec<String>) {
    let cells = rows.iter().map(|row| {
        let cell = format!("K = {}, L = {}", row.input_equalities, row.query_equalities);
        (cell, &row.fdb, &row.rdb)
    });
    let time_claim = "FDB wins until the inputs shrink to about a thousand tuples";
    check_cells("exp4", time_claim, cells)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fdb_and_rdb_agree_on_result_tuples() {
        let config = Exp4Config {
            input_equalities: vec![4, 5],
            query_equalities: vec![1, 2],
            timeout: Duration::from_secs(30),
            max_flat_tuples: 10_000_000,
        };
        let rows = run_with_config(&config);
        assert!(!rows.is_empty());
        for row in &rows {
            if let (
                Measurement::Finished {
                    tuples: ft,
                    size: fsize,
                    ..
                },
                Measurement::Finished {
                    tuples: rt,
                    size: rsize,
                    ..
                },
            ) = (&row.fdb, &row.rdb)
            {
                assert_eq!(
                    ft, rt,
                    "K={} L={}",
                    row.input_equalities, row.query_equalities
                );
                assert!(
                    fsize <= rsize,
                    "factorised result must not exceed the flat one"
                );
            }
        }
    }

    #[test]
    fn the_emptied_cell_holds_no_singletons() {
        // The quick sweep up to K = 4.  At K = 4, L = 2 the plan empties the
        // first of the input's two roots; the result used to keep the
        // second root's 164 singletons for 0 tuples.  A small tuple budget
        // keeps RDB's large inputs (K = 2, 3) short: they time out.
        let config = Exp4Config {
            input_equalities: vec![2, 3, 4],
            query_equalities: vec![1, 2, 3],
            timeout: Duration::from_secs(30),
            max_flat_tuples: 100_000,
        };
        let rows = run_with_config(&config);
        let cell = (rows.iter())
            .find(|row| (row.input_equalities, row.query_equalities) == (4, 2))
            .expect("the cell is swept");
        assert!(matches!(cell.rdb, Measurement::Finished { tuples: 0, .. }));
        assert!(
            matches!(
                cell.fdb,
                Measurement::Finished {
                    size: 0,
                    tuples: 0,
                    ..
                }
            ),
            "{:?}",
            cell.fdb
        );
        assert_eq!(check(&rows).1, Vec::<String>::new());
    }
}
