//! Plain-text table rendering of experiment results.
//!
//! The `experiments` binary prints these tables; `EXPERIMENTS.md` embeds
//! them next to the corresponding figures of the paper.

use crate::exp1::Exp1Row;
use crate::exp2::Exp2Row;
use crate::exp3::{Exp3Row, Measurement};
use crate::exp4::Exp4Row;
use std::fmt::Write as _;
use std::time::Duration;

fn fmt_duration(d: Duration) -> String {
    if d.as_secs_f64() >= 1.0 {
        format!("{:.2} s", d.as_secs_f64())
    } else if d.as_secs_f64() >= 1e-3 {
        format!("{:.2} ms", d.as_secs_f64() * 1e3)
    } else {
        format!("{:.1} µs", d.as_secs_f64() * 1e6)
    }
}

fn fmt_measurement(m: &Measurement) -> (String, String) {
    match m {
        Measurement::Finished { time, size, .. } => (size.to_string(), fmt_duration(*time)),
        Measurement::TimedOut => ("—".into(), "timeout".into()),
        Measurement::Failed(_) => ("—".into(), "error".into()),
    }
}

/// Renders the Experiment 1 table (Figure 5).
pub fn render_exp1(rows: &[Exp1Row]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Experiment 1 — query optimisation on flat data (Figure 5)"
    );
    let _ = writeln!(
        out,
        "{:>3} {:>3} {:>14} {:>10}",
        "R", "K", "opt time", "s(T)"
    );
    for row in rows {
        let _ = writeln!(
            out,
            "{:>3} {:>3} {:>14} {:>10.2}",
            row.relations,
            row.equalities,
            fmt_duration(row.optimisation_time),
            row.cost
        );
    }
    out
}

/// Renders the Experiment 2 tables (Figures 6 and 9).
pub fn render_exp2(rows: &[Exp2Row]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Experiment 2 — query optimisation on factorised data (Figures 6 and 9)"
    );
    let _ = writeln!(
        out,
        "{:>3} {:>3} {:>10} {:>10} {:>12} {:>12} {:>12} {:>12}",
        "K",
        "L",
        "full s(f)",
        "full s(T)",
        "greedy s(f)",
        "greedy s(T)",
        "full time",
        "greedy time"
    );
    for row in rows {
        let _ = writeln!(
            out,
            "{:>3} {:>3} {:>10.2} {:>10.2} {:>12.2} {:>12.2} {:>12} {:>12}",
            row.input_equalities,
            row.query_equalities,
            row.full_plan_cost,
            row.full_result_cost,
            row.greedy_plan_cost,
            row.greedy_result_cost,
            fmt_duration(row.full_time),
            fmt_duration(row.greedy_time),
        );
    }
    out
}

/// Renders the Experiment 3 table (Figure 7).
///
/// RDB is the only flat engine measured; the paper's SQLite and PostgreSQL
/// are cited in the table's note, not derived from it.
pub fn render_exp3(rows: &[Exp3Row]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Experiment 3 — query evaluation on flat data (Figure 7)"
    );
    let _ = writeln!(
        out,
        "{:>16} {:>7} {:>3} {:>14} {:>16} {:>12} {:>12}",
        "workload", "N", "K", "FDB singles", "RDB elements", "FDB time", "RDB time"
    );
    for row in rows {
        let (fdb_size, fdb_time) = fmt_measurement(&row.fdb);
        let (rdb_size, rdb_time) = fmt_measurement(&row.rdb);
        let _ = writeln!(
            out,
            "{:>16} {:>7} {:>3} {:>14} {:>16} {:>12} {:>12}",
            row.workload, row.n, row.equalities, fdb_size, rdb_size, fdb_time, rdb_time,
        );
    }
    let _ = writeln!(
        out,
        "(The paper also runs SQLite and PostgreSQL, both slower than RDB; \
         they are not reproduced here.)"
    );
    out
}

/// Renders the Experiment 4 table (Figure 8).
pub fn render_exp4(rows: &[Exp4Row]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Experiment 4 — query evaluation on factorised data (Figure 8)"
    );
    let _ = writeln!(
        out,
        "{:>3} {:>3} {:>14} {:>16} {:>14} {:>16} {:>12} {:>12}",
        "K",
        "L",
        "input singles",
        "input elements",
        "FDB singles",
        "RDB elements",
        "FDB time",
        "RDB time"
    );
    for row in rows {
        let (fdb_size, fdb_time) = fmt_measurement(&row.fdb);
        let (rdb_size, rdb_time) = fmt_measurement(&row.rdb);
        let _ = writeln!(
            out,
            "{:>3} {:>3} {:>14} {:>16} {:>14} {:>16} {:>12} {:>12}",
            row.input_equalities,
            row.query_equalities,
            row.input_singletons,
            if row.input_data_elements == 0 {
                "—".into()
            } else {
                row.input_data_elements.to_string()
            },
            fdb_size,
            rdb_size,
            fdb_time,
            rdb_time,
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_formatting_picks_sensible_units() {
        assert_eq!(fmt_duration(Duration::from_secs(2)), "2.00 s");
        assert_eq!(fmt_duration(Duration::from_millis(5)), "5.00 ms");
        assert_eq!(fmt_duration(Duration::from_micros(7)), "7.0 µs");
    }

    #[test]
    fn tables_contain_headers_and_rows() {
        let rows = vec![Exp1Row {
            relations: 3,
            equalities: 2,
            optimisation_time: Duration::from_millis(1),
            cost: 1.5,
            repetitions: 5,
        }];
        let table = render_exp1(&rows);
        assert!(table.contains("s(T)"));
        assert!(table.contains("1.50"));
    }

    #[test]
    fn timeouts_are_rendered_as_dashes() {
        let rows = vec![Exp3Row {
            workload: "uniform".into(),
            n: 1000,
            equalities: 2,
            fdb: Measurement::Finished {
                time: Duration::from_millis(3),
                size: 42,
                tuples: 10,
            },
            rdb: Measurement::TimedOut,
        }];
        let table = render_exp3(&rows);
        assert!(table.contains("timeout"));
        assert!(table.contains("42"));
    }
}
