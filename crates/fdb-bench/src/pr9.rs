//! PR 9 benchmark: ordered enumeration and grouped aggregation heads.
//!
//! PR 9 finishes the 2013 follow-up paper's analytics surface: `ORDER BY`
//! via costed restructure-to-root, multi-attribute / non-root `GROUP BY`,
//! and `DISTINCT` aggregates.  This benchmark prices the two head
//! strategies against their materialising baselines:
//!
//! * **ordered enumeration** — `evaluate_factorised_ordered` (chain swaps
//!   fused into the main plan, priority cursor emitting in final order)
//!   versus evaluate-then-`materialize_then_sort` (full flat sort of the
//!   output).  The workload set includes a shape where lifting the
//!   ordering attribute would blow up the f-tree's cost, so the planner
//!   honestly refuses and both sides pay the flat sort — that row's
//!   speedup is expected to hover around 1.0 and is committed as-is;
//! * **grouped aggregation** — the factorised grouped fold (on a lifted
//!   chain where the planner accepts, the hash-group fallback where it
//!   refuses) versus plain-iterator grouping over the enumerated tuples.
//!
//! The `experiments bench-pr9` subcommand prints the table and serialises
//! the rows; `--scale smoke` shrinks the inputs so CI can run it as a
//! canary.

use crate::report::BenchJson;
use fdb_common::{AggregateHead, AttrId, Catalog, Query};
use fdb_core::{FactorisedQuery, FdbEngine};
use fdb_frep::aggregate::{self, AggregateKind};
use fdb_frep::{materialize_then_sort, FRep, OrderStrategy};
use fdb_relation::Database;
use std::fmt::Write as _;
use std::time::Instant;

/// One ordered-enumeration measurement.
#[derive(Clone, Debug)]
pub struct OrderedRow {
    /// Workload name (stable across refactors).
    pub name: String,
    /// Tuples in the ordered output.
    pub tuples: u64,
    /// The strategy the costed planner chose (`chain` or `flat_sort`).
    pub strategy: String,
    /// Best wall time of one ordered evaluation through the engine.
    pub ordered_seconds: f64,
    /// Best wall time of evaluate + materialise + full sort.
    pub sort_seconds: f64,
    /// `sort_seconds / ordered_seconds` (below 1.0 means the flat sort
    /// won — committed honestly for the refused-restructure workload).
    pub speedup: f64,
}

/// One grouped-aggregation measurement.
#[derive(Clone, Debug)]
pub struct GroupRow {
    /// Workload name.
    pub name: String,
    /// Number of groups in the result.
    pub groups: u64,
    /// `chain` (grouping ran on a root chain) or `fallback` (hash
    /// grouping over the enumeration).
    pub strategy: String,
    /// Best wall time of one grouped evaluation through the engine.
    pub grouped_seconds: f64,
    /// Best wall time of plain-iterator grouping over the enumerated
    /// tuples.
    pub hash_seconds: f64,
    /// `hash_seconds / grouped_seconds`.
    pub speedup: f64,
}

/// The full PR 9 benchmark result.
#[derive(Clone, Debug)]
pub struct Pr9Report {
    /// Ordered-enumeration rows.
    pub ordered: Vec<OrderedRow>,
    /// Grouped-aggregation rows.
    pub grouped: Vec<GroupRow>,
}

/// Benchmark scale: `smoke` keeps CI runs to a couple of seconds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Pr9Scale {
    /// Tiny inputs, few repetitions — a bit-rot canary, not a measurement.
    Smoke,
    /// The committed `BENCH_PR9.json` numbers.
    Full,
}

/// Workload size knobs.
#[derive(Clone, Copy)]
struct Dims {
    /// Root values of the hierarchical workloads.
    outer: usize,
    /// Children per root value.
    mid: usize,
    /// Grandchildren per child value.
    inner: usize,
    /// Values per independent product branch of the nested workload.
    branch: usize,
    /// Timed measurements (best one reported).
    measurements: usize,
    /// Executions per measurement.
    reps: u32,
}

impl Pr9Scale {
    fn dims(self) -> Dims {
        match self {
            Pr9Scale::Smoke => Dims {
                outer: 4,
                mid: 3,
                inner: 2,
                branch: 3,
                measurements: 3,
                reps: 2,
            },
            Pr9Scale::Full => Dims {
                outer: 32,
                mid: 12,
                inner: 4,
                branch: 8,
                measurements: 7,
                reps: 8,
            },
        }
    }
}

/// Best-of-N wall time of one execution of `work`.
fn best_seconds(d: Dims, mut work: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..d.measurements {
        let start = Instant::now();
        for _ in 0..d.reps {
            work();
        }
        best = best.min(start.elapsed().as_secs_f64() / f64::from(d.reps));
    }
    best
}

/// A hierarchical single-relation representation whose f-tree is a path
/// `a → b → c` (every `b` has one parent `a`, every `c` one parent `b`).
/// Lifting any of its attributes to the root stays within one relation, so
/// the chain planner accepts the restructure for free.
fn path_rep(d: Dims) -> (FRep, AttrId, AttrId, AttrId) {
    let mut catalog = Catalog::new();
    let (r, _) = catalog.add_relation("R", &["a", "b", "c"]);
    let mut db = Database::new(catalog);
    let mut rows = Vec::new();
    for i in 0..d.outer as u64 {
        for j in 0..d.mid as u64 {
            let b = i * d.mid as u64 + j;
            for k in 0..d.inner as u64 {
                rows.push(vec![i, b, b * d.inner as u64 + k]);
            }
        }
    }
    db.insert_raw_rows(r, &rows).expect("pr9 path rows");
    let cat = db.catalog();
    let (a, b, c) = (
        cat.find_attr("R.a").unwrap(),
        cat.find_attr("R.b").unwrap(),
        cat.find_attr("R.c").unwrap(),
    );
    let rep = FdbEngine::new()
        .evaluate_flat(&db, &Query::product(vec![r]))
        .expect("pr9 path workload")
        .result;
    (rep, a, b, c)
}

/// The nested workload: the same hierarchical path `a → b → c` crossed
/// with two independent single-attribute relations (no join conditions),
/// so the f-tree is a forest and the enumerated output is `branch²` times
/// larger than the arena.  The flat-sort baseline pays `N log N` over the
/// *output*; the chain path restructures the (small) arena and sorts only
/// runs of equal prefix.
fn nested_rep(d: Dims) -> (FRep, AttrId, AttrId) {
    let mut catalog = Catalog::new();
    let (r, _) = catalog.add_relation("R", &["a", "b", "c"]);
    let (t1, _) = catalog.add_relation("T1", &["d1"]);
    let (t2, _) = catalog.add_relation("T2", &["e1"]);
    let mut db = Database::new(catalog);
    let mut rows = Vec::new();
    for i in 0..d.outer as u64 {
        for j in 0..d.mid as u64 {
            let b = i * d.mid as u64 + j;
            for k in 0..d.inner as u64 {
                rows.push(vec![i, b, b * d.inner as u64 + k]);
            }
        }
    }
    db.insert_raw_rows(r, &rows).expect("pr9 nested R rows");
    let branch: Vec<Vec<u64>> = (0..d.branch as u64).map(|v| vec![v]).collect();
    db.insert_raw_rows(t1, &branch).expect("pr9 nested T1 rows");
    db.insert_raw_rows(t2, &branch).expect("pr9 nested T2 rows");
    let cat = db.catalog();
    let (a, b) = (cat.find_attr("R.a").unwrap(), cat.find_attr("R.b").unwrap());
    let rep = FdbEngine::new()
        .evaluate_flat(&db, &Query::product(vec![r, t1, t2]))
        .expect("pr9 nested workload")
        .result;
    (rep, a, b)
}

/// The paper's Example-11 shape: a hierarchy `a → b → c` from one relation
/// joined with a second relation `S(a2, e)` on `a = a2`, so the f-tree is
/// `{a,a2} → (b → c, e)`.  Lifting `e` to the root would put both
/// relations on one path and double the tree's cost, so the chain planner
/// refuses and `ORDER BY e` honestly falls back to the flat sort.
fn forked_rep(d: Dims) -> (FRep, AttrId) {
    let mut catalog = Catalog::new();
    let (r, _) = catalog.add_relation("R", &["a", "b", "c"]);
    let (s, _) = catalog.add_relation("S", &["a2", "e"]);
    let mut db = Database::new(catalog);
    let mut r_rows = Vec::new();
    let mut s_rows = Vec::new();
    for i in 0..d.outer as u64 {
        for j in 0..d.mid as u64 {
            let b = i * d.mid as u64 + j;
            for k in 0..d.inner as u64 {
                r_rows.push(vec![i, b, b * d.inner as u64 + k]);
            }
        }
        for k in 0..4u64 {
            // `e` values deliberately interleave across `a` parents so an
            // ordered-by-`e` output cannot come off any one branch.
            s_rows.push(vec![i, k * d.outer as u64 + i]);
        }
    }
    db.insert_raw_rows(r, &r_rows).expect("pr9 fork R rows");
    db.insert_raw_rows(s, &s_rows).expect("pr9 fork S rows");
    let cat = db.catalog();
    let a = cat.find_attr("R.a").unwrap();
    let a2 = cat.find_attr("S.a2").unwrap();
    let e = cat.find_attr("S.e").unwrap();
    let rep = FdbEngine::new()
        .evaluate_flat(&db, &Query::product(vec![r, s]).with_equality(a, a2))
        .expect("pr9 fork workload")
        .result;
    (rep, e)
}

/// Measures one ordered workload: the engine's ordered path (chain swaps
/// fused into the plan where accepted) against evaluate + flat sort.
fn measure_ordered(
    name: &str,
    rep: &FRep,
    order_by: &[AttrId],
    expect: OrderStrategy,
    d: Dims,
) -> OrderedRow {
    let engine = FdbEngine::new();
    let body = FactorisedQuery::default();

    // Correctness and strategy pin before any timing.
    let ordered = engine
        .evaluate_factorised_ordered(rep, &body, order_by)
        .expect("ordered evaluation");
    assert_eq!(
        ordered.strategy, expect,
        "{name}: the costed planner changed its decision"
    );
    let baseline = {
        let out = engine.evaluate_factorised(rep, &body).expect("baseline");
        materialize_then_sort(&out.result, order_by).expect("baseline sort")
    };
    assert_eq!(ordered.rows, baseline, "{name}: ordered output diverged");

    let ordered_seconds = best_seconds(d, || {
        std::hint::black_box(
            engine
                .evaluate_factorised_ordered(rep, &body, order_by)
                .expect("ordered evaluation"),
        );
    });
    let sort_seconds = best_seconds(d, || {
        let out = engine.evaluate_factorised(rep, &body).expect("baseline");
        std::hint::black_box(materialize_then_sort(&out.result, order_by).expect("baseline sort"));
    });
    OrderedRow {
        name: name.to_string(),
        tuples: ordered.rows.len() as u64,
        strategy: match ordered.strategy {
            OrderStrategy::Chain => "chain".into(),
            OrderStrategy::FlatSort => "flat_sort".into(),
        },
        ordered_seconds,
        sort_seconds,
        speedup: sort_seconds / ordered_seconds.max(1e-12),
    }
}

/// Measures one grouped workload: the engine's grouped head against
/// plain-iterator grouping over the enumerated tuples.
fn measure_grouped(name: &str, rep: &FRep, group_by: &[AttrId], d: Dims) -> GroupRow {
    let engine = FdbEngine::new();
    let body = FactorisedQuery::default();
    let mut head = AggregateHead::count();
    for &g in group_by {
        head = head.grouped_by(g);
    }

    let out = engine
        .evaluate_factorised_aggregate(rep, &body, &head)
        .expect("grouped evaluation");
    let oracle =
        aggregate::by_enumeration(rep, AggregateKind::Count, group_by).expect("hash-group oracle");
    assert_eq!(out.result, oracle, "{name}: grouped output diverged");
    let groups = match &out.result {
        fdb_frep::aggregate::AggregateResult::Groups(rows) => rows.len() as u64,
        fdb_frep::aggregate::AggregateResult::Scalar(_) => 0,
    };
    let strategy = if out.stats.chain_heads > 0 {
        "chain"
    } else {
        "fallback"
    };

    let grouped_seconds = best_seconds(d, || {
        std::hint::black_box(
            engine
                .evaluate_factorised_aggregate(rep, &body, &head)
                .expect("grouped evaluation"),
        );
    });
    let hash_seconds = best_seconds(d, || {
        std::hint::black_box(
            aggregate::by_enumeration(rep, AggregateKind::Count, group_by)
                .expect("hash-group oracle"),
        );
    });
    GroupRow {
        name: name.to_string(),
        groups,
        strategy: strategy.into(),
        grouped_seconds,
        hash_seconds,
        speedup: hash_seconds / grouped_seconds.max(1e-12),
    }
}

/// Runs the full PR 9 benchmark at the given scale.
pub fn run(scale: Pr9Scale) -> Pr9Report {
    let d = scale.dims();
    let (path, _a, b, c) = path_rep(d);
    let (nested, _na, nb) = nested_rep(d);
    let (fork, e) = forked_rep(d);

    let ordered = vec![
        // The headline row: the ordering attribute sits mid-path in a rep
        // whose output is `branch²` times larger than its arena.  The
        // planner lifts `b` with swaps (free within one relation) and the
        // priority cursor emits the rows in their final order — while the
        // baseline pays one global sort over the whole enumerated output.
        measure_ordered(
            "nested_order_by_mid",
            &nested,
            &[nb],
            OrderStrategy::Chain,
            d,
        ),
        // Honest row: on a single flat relation the output is exactly as
        // large as the arena, so the restructure pass costs about as much
        // as the sort it saves — expect speedup ≈ 1.0.
        measure_ordered("path_order_by_mid", &path, &[b], OrderStrategy::Chain, d),
        // Honest row: lifting `e` across the join would double the tree's
        // cost, the planner refuses, and both sides pay a full sort —
        // expect speedup ≈ 1.0.
        measure_ordered(
            "fork_order_by_far_branch",
            &fork,
            &[e],
            OrderStrategy::FlatSort,
            d,
        ),
    ];

    let grouped = vec![
        // Grouping the nested shape: the fold runs over the (small) arena
        // while the hash baseline enumerates the full `branch²`-times
        // larger output.
        measure_grouped("nested_group_by_mid", &nested, &[nb], d),
        // Non-root grouping satisfied by lifting the attribute's node.
        measure_grouped("path_group_by_mid", &path, &[b], d),
        // A two-attribute path group: both nodes end up a root chain, but
        // every group is a single tuple, so the fold's per-group overhead
        // loses to the hash — committed honestly.
        measure_grouped("path_group_by_pair", &path, &[b, c], d),
        // Grouping on the far branch: the lift is refused, the head runs
        // on the hash-group fallback.
        measure_grouped("fork_group_by_far_branch", &fork, &[e], d),
    ];

    Pr9Report { ordered, grouped }
}

/// Serialises the report as JSON (line-oriented, like `BENCH_PR8.json`).
pub fn render_json(report: &Pr9Report) -> String {
    BenchJson::new("pr9-analytics-heads")
        .array("ordered", &report.ordered, |row| {
            format!(
                "{{\"name\": \"{}\", \"tuples\": {}, \"strategy\": \"{}\", \
                 \"ordered_seconds\": {:.6}, \"sort_seconds\": {:.6}, \
                 \"speedup\": {:.3}}}",
                row.name,
                row.tuples,
                row.strategy,
                row.ordered_seconds,
                row.sort_seconds,
                row.speedup,
            )
        })
        .array("grouped", &report.grouped, |row| {
            format!(
                "{{\"name\": \"{}\", \"groups\": {}, \"strategy\": \"{}\", \
                 \"grouped_seconds\": {:.6}, \"hash_seconds\": {:.6}, \
                 \"speedup\": {:.3}}}",
                row.name,
                row.groups,
                row.strategy,
                row.grouped_seconds,
                row.hash_seconds,
                row.speedup,
            )
        })
        .finish()
}

/// Renders the human-readable table printed by the `experiments` binary.
pub fn render_table(report: &Pr9Report) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "{:<26} {:>10} {:>10} {:>12} {:>12} {:>8}",
        "ORDER BY", "tuples", "strategy", "ordered (s)", "sort (s)", "speedup"
    )
    .expect("string write");
    for row in &report.ordered {
        writeln!(
            out,
            "{:<26} {:>10} {:>10} {:>12.6} {:>12.6} {:>7.2}x",
            row.name, row.tuples, row.strategy, row.ordered_seconds, row.sort_seconds, row.speedup
        )
        .expect("string write");
    }
    writeln!(
        out,
        "\n{:<26} {:>10} {:>10} {:>12} {:>12} {:>8}",
        "GROUP BY", "groups", "strategy", "grouped (s)", "hash (s)", "speedup"
    )
    .expect("string write");
    for row in &report.grouped {
        writeln!(
            out,
            "{:<26} {:>10} {:>10} {:>12.6} {:>12.6} {:>7.2}x",
            row.name, row.groups, row.strategy, row.grouped_seconds, row.hash_seconds, row.speedup
        )
        .expect("string write");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_scale_runs_and_pins_the_strategy_split() {
        let report = run(Pr9Scale::Smoke);
        assert_eq!(report.ordered.len(), 3);
        assert_eq!(report.grouped.len(), 4);
        let strategies: Vec<&str> = report.ordered.iter().map(|r| r.strategy.as_str()).collect();
        assert!(strategies.contains(&"chain") && strategies.contains(&"flat_sort"));
        let strategies: Vec<&str> = report.grouped.iter().map(|r| r.strategy.as_str()).collect();
        assert!(strategies.contains(&"chain") && strategies.contains(&"fallback"));
        let json = render_json(&report);
        assert!(json.contains("\"ordered\"") && json.contains("\"grouped\""));
        assert!(!render_table(&report).is_empty());
    }
}
