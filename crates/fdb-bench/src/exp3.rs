//! Experiment 3 (Figure 7): query evaluation on flat data.
//!
//! Two workloads are swept, exactly as in the paper:
//!
//! * **Scaling workload** (left and middle columns of Figure 7): three
//!   ternary relations of `N` tuples each, values drawn from `[1, 100]`
//!   uniformly or Zipf-distributed, queries with `K ∈ {2, 3, 4}` equality
//!   selections.  Reported: result sizes (number of data elements for the
//!   flat engines, number of singletons for FDB) and evaluation times.
//! * **Combinatorial workload** (right column): `R = 4` relations over
//!   `A = 10` attributes — two binary relations of 8² tuples and two ternary
//!   relations of 8³ tuples, values from `[1, 20]` — with `K = 1..8`
//!   equality selections.  FDB factorises the up-to-hundreds-of-millions of
//!   data values into a few thousand singletons.
//!
//! The flat baseline is the RDB engine; runs that exceed the timeout are
//! reported as such (the paper uses a 100-second timeout and omits those
//! points from its plots).

use crate::Scale;
use fdb_common::{Catalog, FdbError, Query, RelId, Result};
use fdb_core::FdbEngine;
use fdb_datagen::{combinatorial_database, populate, random_query, ValueDistribution};
use fdb_relation::{Database, EvalLimits, RdbEngine};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

/// Outcome of one engine run: a measurement, a timeout or a failure.
#[derive(Clone, Debug)]
pub enum Measurement {
    /// The run finished within the limits.
    Finished {
        /// Evaluation wall-clock time.
        time: Duration,
        /// Result size — data elements for flat engines, singletons for FDB.
        size: u64,
        /// Number of result tuples.
        tuples: u128,
    },
    /// The run exceeded the timeout or tuple budget.
    TimedOut,
    /// The run failed for another reason: the error's text.
    Failed(String),
}

impl Measurement {
    /// The measurement of a run that took `time`: `counts` gives the size
    /// and tuples of its result, and an error is
    /// [`Measurement::of_error`].
    pub fn of<T>(
        outcome: Result<T>,
        time: Duration,
        counts: impl FnOnce(T) -> (u64, u128),
    ) -> Measurement {
        match outcome {
            Ok(result) => {
                let (size, tuples) = counts(result);
                Measurement::Finished { time, size, tuples }
            }
            Err(error) => Measurement::of_error(&error),
        }
    }

    /// The measurement of a failed run: a limit error (RDB's tuple or time
    /// limit, FDB's deadline or budget) is a timeout, any other error a
    /// failure.
    pub fn of_error(error: &FdbError) -> Measurement {
        match error {
            FdbError::LimitExceeded { .. }
            | FdbError::DeadlineExceeded { .. }
            | FdbError::BudgetExceeded { .. } => Measurement::TimedOut,
            other => Measurement::Failed(other.to_string()),
        }
    }

    /// The measured time, if the run finished.
    pub fn time(&self) -> Option<Duration> {
        match self {
            Measurement::Finished { time, .. } => Some(*time),
            _ => None,
        }
    }

    /// The measured size, if the run finished.
    pub fn size(&self) -> Option<u64> {
        match self {
            Measurement::Finished { size, .. } => Some(*size),
            _ => None,
        }
    }
}

/// One measurement point of Experiment 3.
#[derive(Clone, Debug)]
pub struct Exp3Row {
    /// Which workload the row belongs to (`"uniform"`, `"zipf"`,
    /// `"combinatorial-u"`, `"combinatorial-z"`).
    pub workload: String,
    /// Tuples per relation `N` (for the scaling workload) or total input
    /// tuples (combinatorial workload).
    pub n: usize,
    /// Number of equality selections `K`.
    pub equalities: usize,
    /// FDB measurement (size = singletons).
    pub fdb: Measurement,
    /// RDB measurement (size = data elements).
    pub rdb: Measurement,
}

/// Configuration of the Experiment 3 sweep.
#[derive(Clone, Debug)]
pub struct Exp3Config {
    /// Relation sizes `N` swept for the scaling workload.
    pub relation_sizes: Vec<usize>,
    /// Equality counts swept for the scaling workload.
    pub equalities: Vec<usize>,
    /// Equality counts swept for the combinatorial workload.
    pub combinatorial_equalities: Vec<usize>,
    /// Timeout applied to the flat baseline (and to FDB, defensively).
    pub timeout: Duration,
    /// Tuple budget applied to the flat baseline so sweeps cannot exhaust
    /// memory (the paper's testbed had 32 GB; this container does not).
    pub max_flat_tuples: usize,
}

impl Exp3Config {
    /// Configuration appropriate for the given scale.
    pub fn for_scale(scale: Scale) -> Self {
        match scale {
            Scale::Quick => Exp3Config {
                relation_sizes: vec![1_000, 3_000, 10_000],
                equalities: vec![2, 3, 4],
                combinatorial_equalities: (1..=6).collect(),
                timeout: Duration::from_secs(10),
                max_flat_tuples: 20_000_000,
            },
            Scale::Full => Exp3Config {
                relation_sizes: vec![1_000, 3_000, 10_000, 30_000, 100_000],
                equalities: vec![2, 3, 4],
                combinatorial_equalities: (1..=8).collect(),
                timeout: Duration::from_secs(60),
                max_flat_tuples: 50_000_000,
            },
        }
    }
}

fn measure_fdb(db: &Database, query: &Query) -> Measurement {
    let start = Instant::now();
    let outcome = FdbEngine::new().evaluate_flat(db, query);
    Measurement::of(outcome, start.elapsed(), |out| {
        (out.stats.result_size as u64, out.stats.result_tuples)
    })
}

fn measure_rdb(db: &Database, query: &Query, config: &Exp3Config) -> Measurement {
    let engine = RdbEngine::new().with_limits(
        EvalLimits::unlimited()
            .with_timeout(config.timeout)
            .with_max_tuples(config.max_flat_tuples),
    );
    let start = Instant::now();
    let outcome = engine.evaluate(db, query);
    Measurement::of(outcome, start.elapsed(), |rel| {
        (rel.data_element_count() as u64, rel.len() as u128)
    })
}

/// The scaling workload's catalogue: three ternary relations over nine
/// attributes, as in the paper's Figure 7.
fn ternary_catalog() -> Catalog {
    let mut catalog = Catalog::new();
    catalog.add_relation("R0", &["a0", "a1", "a2"]);
    catalog.add_relation("R1", &["a3", "a4", "a5"]);
    catalog.add_relation("R2", &["a6", "a7", "a8"]);
    catalog
}

/// Runs the scaling workload (left/middle columns of Figure 7).
pub fn run_scaling(config: &Exp3Config) -> Vec<Exp3Row> {
    let mut rng = StdRng::seed_from_u64(0xFDB3);
    let mut rows = Vec::new();
    for distribution in [ValueDistribution::Uniform, ValueDistribution::Zipf(1.0)] {
        let workload = match distribution {
            ValueDistribution::Uniform => "uniform",
            ValueDistribution::Zipf(_) => "zipf",
        };
        let catalog = ternary_catalog();
        let rels: Vec<RelId> = catalog.rels().collect();
        for &n in &config.relation_sizes {
            let db = populate(&mut rng, &catalog, n, 100, distribution);
            for &k in &config.equalities {
                let query = random_query(&mut rng, &catalog, &rels, k);
                rows.push(Exp3Row {
                    workload: workload.to_string(),
                    n,
                    equalities: k,
                    fdb: measure_fdb(&db, &query),
                    rdb: measure_rdb(&db, &query, config),
                });
            }
        }
    }
    rows
}

/// Runs the combinatorial workload (right column of Figure 7).
pub fn run_combinatorial(config: &Exp3Config) -> Vec<Exp3Row> {
    let mut rng = StdRng::seed_from_u64(0xFDB3C);
    let mut rows = Vec::new();
    for distribution in [ValueDistribution::Uniform, ValueDistribution::Zipf(1.0)] {
        let workload = match distribution {
            ValueDistribution::Uniform => "combinatorial-u",
            ValueDistribution::Zipf(_) => "combinatorial-z",
        };
        let db = combinatorial_database(&mut rng, distribution);
        let catalog = db.catalog().clone();
        let rels: Vec<RelId> = catalog.rels().collect();
        let n = db.total_tuples();
        for &k in &config.combinatorial_equalities {
            let query = random_query(&mut rng, &catalog, &rels, k);
            rows.push(Exp3Row {
                workload: workload.to_string(),
                n,
                equalities: k,
                fdb: measure_fdb(&db, &query),
                rdb: measure_rdb(&db, &query, config),
            });
        }
    }
    rows
}

/// Runs both workloads.
pub fn run(scale: Scale) -> Vec<Exp3Row> {
    let config = Exp3Config::for_scale(scale);
    let mut rows = run_scaling(&config);
    rows.extend(run_combinatorial(&config));
    rows
}

/// Checks the paper's size claims of Figure 7 in every cell where RDB
/// finished: FDB finished too, with RDB's number of tuples and at most
/// RDB's number of data elements as singletons; and wherever FDB finished,
/// 0 tuples are 0 singletons.  Returns the report lines and the broken
/// claims; the times are reported, not checked.
pub fn check(rows: &[Exp3Row]) -> (Vec<String>, Vec<String>) {
    let cells = rows.iter().map(|row| {
        let cell = format!("{} N = {}, K = {}", row.workload, row.n, row.equalities);
        (cell, &row.fdb, &row.rdb)
    });
    check_cells("exp3", "FDB wins wherever the flat result is large", cells)
}

/// The size claims of Experiments 3 and 4 over the cells `(name, FDB, RDB)`
/// of experiment `exp`: FDB finished, with 0 singletons where it has 0
/// tuples; and wherever RDB finished, FDB has RDB's number of tuples and at
/// most RDB's number of data elements as singletons.  Returns the report
/// lines, which also count the cells FDB was faster in against the paper's
/// `time_claim`, and the broken claims.
pub(crate) fn check_cells<'a>(
    exp: &str,
    time_claim: &str,
    cells: impl IntoIterator<Item = (String, &'a Measurement, &'a Measurement)>,
) -> (Vec<String>, Vec<String>) {
    let mut broken = Vec::new();
    let (mut cells_seen, mut finished, mut faster) = (0, 0, 0);
    for (cell, fdb, rdb) in cells {
        cells_seen += 1;
        faster += usize::from(match (fdb.time(), rdb.time()) {
            (Some(fdb), Some(rdb)) => fdb < rdb,
            (Some(_), None) => true,
            _ => false,
        });
        let (singletons, fdb_tuples) = match fdb {
            Measurement::Finished { size, tuples, .. } => (*size, *tuples),
            Measurement::TimedOut => {
                broken.push(format!("{exp}: FDB did not finish at {cell}"));
                continue;
            }
            Measurement::Failed(error) => {
                broken.push(format!("{exp}: FDB failed at {cell}: {error}"));
                continue;
            }
        };
        if fdb_tuples == 0 && singletons != 0 {
            broken.push(format!(
                "{exp}: 0 tuples but {singletons} singletons at {cell}"
            ));
        }
        let (size, tuples) = match rdb {
            Measurement::Finished { size, tuples, .. } => (*size, *tuples),
            Measurement::TimedOut => continue,
            Measurement::Failed(error) => {
                broken.push(format!("{exp}: RDB failed at {cell}: {error}"));
                continue;
            }
        };
        finished += 1;
        if fdb_tuples != tuples {
            broken.push(format!(
                "{exp}: FDB has {fdb_tuples} tuples, RDB {tuples} at {cell}"
            ));
        }
        if singletons > size {
            broken.push(format!(
                "{exp}: {singletons} singletons > {size} data elements at {cell}"
            ));
        }
    }
    let report = vec![
        format!(
            "{exp}: RDB finished {finished} of {cells_seen} cells; in each, FDB's tuples must \
             equal RDB's and its singletons be at most RDB's data elements, and 0 tuples be 0 \
             singletons (checked)"
        ),
        format!(
            "{exp}: FDB faster than RDB in {faster} of {cells_seen} cells (reported, not \
             checked; the paper: {time_claim})"
        ),
    ];
    (report, broken)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn limit_errors_are_timeouts_and_other_errors_failures() {
        let limit = FdbError::BudgetExceeded { limit: 10 };
        assert!(matches!(
            Measurement::of_error(&limit),
            Measurement::TimedOut
        ));
        let other = FdbError::InfeasibleProgram;
        let Measurement::Failed(text) = Measurement::of_error(&other) else {
            panic!("an infeasible program is not a timeout");
        };
        assert_eq!(text, other.to_string());
    }

    #[test]
    fn the_scaling_workload_sweeps_three_ternary_relations() {
        let catalog = ternary_catalog();
        let arities: Vec<usize> = catalog.rels().map(|r| catalog.rel_arity(r)).collect();
        assert_eq!(arities, [3, 3, 3]);
    }

    #[test]
    fn factorised_results_are_never_larger_than_flat_ones() {
        let config = Exp3Config {
            relation_sizes: vec![300],
            equalities: vec![2],
            combinatorial_equalities: vec![2],
            timeout: Duration::from_secs(30),
            max_flat_tuples: 5_000_000,
        };
        let rows = run_scaling(&config);
        assert_eq!(rows.len(), 2); // uniform + zipf
        for row in &rows {
            let (Some(fdb_size), Some(rdb_size)) = (row.fdb.size(), row.rdb.size()) else {
                panic!("tiny configurations must not time out");
            };
            assert!(
                fdb_size <= rdb_size,
                "factorised size {fdb_size} exceeded flat size {rdb_size}"
            );
            // Both engines agree on the number of result tuples.
            if let (
                Measurement::Finished { tuples: ft, .. },
                Measurement::Finished { tuples: rt, .. },
            ) = (&row.fdb, &row.rdb)
            {
                assert_eq!(ft, rt, "tuple counts diverge on {}", row.workload);
            }
        }
    }

    #[test]
    fn the_check_flags_each_broken_size_claim() {
        let finished = |size, tuples| Measurement::Finished {
            time: Duration::from_millis(1),
            size,
            tuples,
        };
        let row = |fdb, rdb| Exp3Row {
            workload: "uniform".into(),
            n: 1000,
            equalities: 2,
            fdb,
            rdb,
        };
        let rows = vec![
            row(finished(10, 4), finished(24, 4)),
            row(finished(10, 4), Measurement::TimedOut),
            row(finished(0, 0), finished(0, 0)),
        ];
        assert!(check(&rows).1.is_empty());
        for bad in [
            row(Measurement::TimedOut, finished(24, 4)),
            row(finished(10, 5), finished(24, 4)),
            row(finished(30, 4), finished(24, 4)),
            row(finished(3, 0), Measurement::TimedOut),
        ] {
            assert_eq!(check(&[bad]).1.len(), 1);
        }
        // A failed run is reported with its error, on either side.
        let failed = || Measurement::Failed("no plan found".into());
        for bad in [
            row(failed(), finished(24, 4)),
            row(finished(10, 4), failed()),
        ] {
            let broken = check(&[bad]).1;
            assert!(broken.len() == 1 && broken[0].ends_with("no plan found"));
        }
    }

    #[test]
    fn combinatorial_workload_factorises_dramatically() {
        let config = Exp3Config {
            relation_sizes: vec![],
            equalities: vec![],
            combinatorial_equalities: vec![1, 2],
            timeout: Duration::from_secs(30),
            max_flat_tuples: 20_000_000,
        };
        let rows = run_combinatorial(&config);
        for row in rows.iter().filter(|r| r.workload == "combinatorial-u") {
            let fdb_size = row.fdb.size().expect("FDB never times out here");
            // FDB factorises the combinatorial result into a few thousand
            // singletons (the paper reports < 4k for all K).
            assert!(
                fdb_size < 10_000,
                "K={} produced {} singletons",
                row.equalities,
                fdb_size
            );
            if let Some(rdb_size) = row.rdb.size() {
                assert!(
                    rdb_size > fdb_size,
                    "flat result must dwarf the factorised one"
                );
            }
        }
    }
}
