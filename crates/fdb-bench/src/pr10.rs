//! PR 10 benchmark: the SoA entry layout and the vectorised scan kernels.
//!
//! PR 10 split the arena's interleaved entry records (`value` + `kids_start`,
//! 16 bytes with padding) into parallel value / kid-offset arrays and moved
//! the hot scans onto dispatched kernels (`fdb_frep::kernel`).  This
//! benchmark prices the three layers against each other on the scan shapes
//! the engine actually runs:
//!
//! * **aos** — the PR 9 baseline, reproduced honestly: the interleaved
//!   record layout is emulated inline (same 16-byte records, same scalar
//!   loops the old `store.rs` ran) so the baseline survives the refactor
//!   that deleted it;
//! * **soa** — the same scalar loops over the split value array
//!   (`kernel::*_scalar`): the pure layout effect, half the scanned bytes;
//! * **simd** — the runtime-dispatched kernels.  In a default build these
//!   *are* the scalar kernels; build `experiments` with `--features simd`
//!   (and an AVX2 machine) to price the vectorised paths.  The committed
//!   `BENCH_PR10.json` is generated from a `--features simd` build.
//!
//! Rows are categorised `scan` / `filter` / `probe` / `aggregate`; the
//! headline number is the geometric-mean speedup of `simd` over `aos`
//! across the scan and filter rows.  Sub-1.0 simd-vs-soa ratios are
//! committed as-is: the `tiny_union_keep_masks` row sweeps three-entry
//! blocks that fall below the kernels' dispatch thresholds (the win there
//! is the layout, not the lanes), and the `find_value_probes` row prices
//! the vectorised probe the engine measured and rejected.
//!
//! The `experiments bench-pr10` subcommand prints the table and serialises
//! the rows; `--scale smoke` shrinks the inputs so CI can run it as a
//! canary in both feature configurations.

use crate::report::BenchJson;
use fdb_common::{ComparisonOp, Value};
use fdb_frep::kernel;
use std::fmt::Write as _;
use std::time::Instant;

/// The emulated PR 9 entry record: `Value` plus kid-run offset, interleaved.
/// Alignment pads it to 16 bytes — exactly the old `EntryRec` footprint.
#[derive(Clone, Copy)]
struct AosEntry {
    value: Value,
    #[allow(dead_code)] // scanned over, never read — that's the point
    kids_start: u32,
}

/// One kernel workload measurement.
#[derive(Clone, Debug)]
pub struct Pr10Row {
    /// Workload name (stable across refactors).
    pub name: String,
    /// Row category: `scan`, `filter`, `probe` or `aggregate`.
    pub category: String,
    /// Values scanned (or probes issued) per timed repetition.
    pub elems: u64,
    /// Best wall time of the interleaved-record baseline.
    pub aos_seconds: f64,
    /// Best wall time of the scalar kernel over the split value array.
    pub soa_seconds: f64,
    /// Best wall time of the dispatched kernel (scalar in default builds).
    pub simd_seconds: f64,
    /// `aos_seconds / soa_seconds` — the pure layout effect.
    pub soa_speedup: f64,
    /// `soa_seconds / simd_seconds` — the vectorisation effect (may fall
    /// below 1.0 on dispatch-dominated shapes; committed honestly).
    pub simd_speedup: f64,
    /// `aos_seconds / simd_seconds` — the combined effect.
    pub total_speedup: f64,
}

/// The full PR 10 benchmark result.
#[derive(Clone, Debug)]
pub struct Pr10Report {
    /// Per-workload rows.
    pub rows: Vec<Pr10Row>,
    /// Geometric mean of `total_speedup` over the scan and filter rows —
    /// the acceptance headline.
    pub scan_filter_geomean: f64,
    /// Whether the dispatched kernels actually took the AVX2 paths.
    pub simd_active: bool,
}

/// Benchmark scale: `smoke` keeps CI runs to a couple of seconds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Pr10Scale {
    /// Tiny inputs, few repetitions — a bit-rot canary, not a measurement.
    Smoke,
    /// The committed `BENCH_PR10.json` numbers.
    Full,
}

/// Workload size knobs.
#[derive(Clone, Copy)]
struct Dims {
    /// Values in the large contiguous blocks (scan / aggregate shapes).
    block: usize,
    /// Number of mid-size blocks in the filter sweep.
    filter_blocks: usize,
    /// Values per mid-size filter block.
    filter_len: usize,
    /// Number of three-entry blocks in the tiny-union sweep.
    tiny_blocks: usize,
    /// Probes per timed repetition.
    probes: usize,
    /// Timed measurements (best one reported).
    measurements: usize,
    /// Executions per measurement.
    reps: u32,
}

impl Pr10Scale {
    fn dims(self) -> Dims {
        match self {
            Pr10Scale::Smoke => Dims {
                block: 1 << 12,
                filter_blocks: 16,
                filter_len: 256,
                tiny_blocks: 1 << 10,
                probes: 1 << 10,
                measurements: 2,
                reps: 2,
            },
            Pr10Scale::Full => Dims {
                block: 1 << 20,
                filter_blocks: 256,
                filter_len: 4096,
                tiny_blocks: 1 << 16,
                probes: 1 << 15,
                measurements: 5,
                reps: 10,
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

/// A strictly increasing value array (gap 3, deterministic) and its
/// interleaved-record twin.
fn sorted_block(len: usize) -> (Vec<Value>, Vec<AosEntry>) {
    let values: Vec<Value> = (0..len as u64).map(|i| Value::new(i * 3 + 1)).collect();
    let aos = values
        .iter()
        .map(|&value| AosEntry {
            value,
            kids_start: 0,
        })
        .collect();
    (values, aos)
}

fn row(
    name: &str,
    category: &str,
    elems: u64,
    aos_seconds: f64,
    soa_seconds: f64,
    simd_seconds: f64,
) -> Pr10Row {
    Pr10Row {
        name: name.into(),
        category: category.into(),
        elems,
        aos_seconds,
        soa_seconds,
        simd_seconds,
        soa_speedup: aos_seconds / soa_seconds.max(1e-12),
        simd_speedup: soa_seconds / simd_seconds.max(1e-12),
        total_speedup: aos_seconds / simd_seconds.max(1e-12),
    }
}

/// `validate`'s sortedness check over one large entry block.
fn bench_scan_sorted(d: Dims) -> Pr10Row {
    let (values, aos) = sorted_block(d.block);
    // Correctness pin before any timing.
    assert_eq!(kernel::first_unsorted(&values), None);
    let aos_s = best_seconds(d, || {
        std::hint::black_box(aos.windows(2).position(|w| w[1].value <= w[0].value));
    });
    let soa_s = best_seconds(d, || {
        std::hint::black_box(kernel::first_unsorted_scalar(&values));
    });
    let simd_s = best_seconds(d, || {
        std::hint::black_box(kernel::first_unsorted(&values));
    });
    row(
        "validate_sortedness",
        "scan",
        d.block as u64,
        aos_s,
        soa_s,
        simd_s,
    )
}

/// The overlay's entry filter / `retain_and_prune` keep masks over
/// mid-size union blocks, all six comparison operators in rotation.
fn bench_filter_masks(d: Dims) -> Pr10Row {
    let blocks: Vec<(Vec<Value>, Vec<AosEntry>)> = (0..d.filter_blocks)
        .map(|_| sorted_block(d.filter_len))
        .collect();
    let rhs = Value::new((d.filter_len as u64 * 3) / 2);
    let ops = [
        ComparisonOp::Le,
        ComparisonOp::Gt,
        ComparisonOp::Eq,
        ComparisonOp::Ne,
        ComparisonOp::Lt,
        ComparisonOp::Ge,
    ];
    let mut mask = vec![false; d.filter_len];
    // Correctness pin: dispatched mask equals the per-record predicate.
    kernel::fill_keep_mask(&blocks[0].0, ComparisonOp::Le, rhs, &mut mask);
    for (i, &v) in blocks[0].0.iter().enumerate() {
        assert_eq!(mask[i], v <= rhs);
    }
    let elems = (d.filter_blocks * d.filter_len) as u64;
    let aos_s = best_seconds(d, || {
        for (i, (_, aos)) in blocks.iter().enumerate() {
            let op = ops[i % ops.len()];
            for (o, rec) in mask.iter_mut().zip(aos) {
                *o = op.eval(rec.value, rhs);
            }
            std::hint::black_box(&mask);
        }
    });
    let soa_s = best_seconds(d, || {
        for (i, (values, _)) in blocks.iter().enumerate() {
            kernel::fill_keep_mask_scalar(values, ops[i % ops.len()], rhs, &mut mask);
            std::hint::black_box(&mask);
        }
    });
    let simd_s = best_seconds(d, || {
        for (i, (values, _)) in blocks.iter().enumerate() {
            kernel::fill_keep_mask(values, ops[i % ops.len()], rhs, &mut mask);
            std::hint::black_box(&mask);
        }
    });
    row(
        "selection_keep_masks",
        "filter",
        elems,
        aos_s,
        soa_s,
        simd_s,
    )
}

/// The same keep masks over three-entry blocks: per-block dispatch overhead
/// dominates, so the simd-vs-soa ratio honestly dips to (or below) 1.0.
fn bench_tiny_filter(d: Dims) -> Pr10Row {
    let (values, aos) = sorted_block(d.tiny_blocks * 3);
    let rhs = Value::new(d.tiny_blocks as u64 * 3 / 2);
    let mut mask = [false; 3];
    let elems = (d.tiny_blocks * 3) as u64;
    let aos_s = best_seconds(d, || {
        for block in aos.chunks_exact(3) {
            for (o, rec) in mask.iter_mut().zip(block) {
                *o = rec.value <= rhs;
            }
            std::hint::black_box(&mask);
        }
    });
    let soa_s = best_seconds(d, || {
        for block in values.chunks_exact(3) {
            kernel::fill_keep_mask_scalar(block, ComparisonOp::Le, rhs, &mut mask);
            std::hint::black_box(&mask);
        }
    });
    let simd_s = best_seconds(d, || {
        for block in values.chunks_exact(3) {
            kernel::fill_keep_mask(block, ComparisonOp::Le, rhs, &mut mask);
            std::hint::black_box(&mask);
        }
    });
    row(
        "tiny_union_keep_masks",
        "filter",
        elems,
        aos_s,
        soa_s,
        simd_s,
    )
}

/// `find_value` probes (absorb's semi-join, the overlay's point lookups).
///
/// The simd column prices [`kernel::find_value_vector`], the *rejected*
/// vectorised probe: it loses to the scalar binary search at every slice
/// length, which is exactly why the engine's dispatched `find_value` stays
/// scalar (see the kernel docs).  The row is kept so the negative result
/// stays published and re-measured.
fn bench_probes(d: Dims) -> Pr10Row {
    let (values, aos) = sorted_block(d.block.min(1 << 16));
    let targets: Vec<Value> = (0..d.probes as u64)
        // Half hits (multiples of 3 plus 1), half misses, spread across the
        // whole block.
        .map(|i| Value::new((i * 7919) % (values.len() as u64 * 3)))
        .collect();
    for &t in targets.iter().take(64) {
        assert_eq!(
            kernel::find_value(&values, t),
            values.binary_search(&t).ok()
        );
        assert_eq!(
            kernel::find_value_vector(&values, t),
            values.binary_search(&t).ok()
        );
    }
    let aos_s = best_seconds(d, || {
        for &t in &targets {
            std::hint::black_box(aos.binary_search_by(|rec| rec.value.cmp(&t)).ok());
        }
    });
    let soa_s = best_seconds(d, || {
        for &t in &targets {
            std::hint::black_box(kernel::find_value_scalar(&values, t));
        }
    });
    let simd_s = best_seconds(d, || {
        for &t in &targets {
            std::hint::black_box(kernel::find_value_vector(&values, t));
        }
    });
    row(
        "find_value_probes",
        "probe",
        d.probes as u64,
        aos_s,
        soa_s,
        simd_s,
    )
}

/// The aggregate fold's value read: a sum over one entry block.  No
/// dedicated kernel — the row prices the pure layout effect (the compiler
/// autovectorises both dense loops), so simd-vs-soa sits at ~1.0.
fn bench_aggregate_fold(d: Dims) -> Pr10Row {
    let (values, aos) = sorted_block(d.block);
    let aos_s = best_seconds(d, || {
        let mut sum = 0u64;
        for rec in &aos {
            sum = sum.wrapping_add(rec.value.raw());
        }
        std::hint::black_box(sum);
    });
    let dense = || {
        let mut sum = 0u64;
        for &v in &values {
            sum = sum.wrapping_add(v.raw());
        }
        std::hint::black_box(sum);
    };
    let soa_s = best_seconds(d, dense);
    let simd_s = best_seconds(d, dense);
    row(
        "aggregate_sum_fold",
        "aggregate",
        d.block as u64,
        aos_s,
        soa_s,
        simd_s,
    )
}

/// Runs the full PR 10 benchmark at the given scale.
pub fn run(scale: Pr10Scale) -> Pr10Report {
    let d = scale.dims();
    let rows = vec![
        bench_scan_sorted(d),
        bench_filter_masks(d),
        bench_tiny_filter(d),
        bench_probes(d),
        bench_aggregate_fold(d),
    ];
    let scan_filter: Vec<&Pr10Row> = rows
        .iter()
        .filter(|r| r.category == "scan" || r.category == "filter")
        .collect();
    let scan_filter_geomean = (scan_filter
        .iter()
        .map(|r| r.total_speedup.ln())
        .sum::<f64>()
        / scan_filter.len() as f64)
        .exp();
    Pr10Report {
        rows,
        scan_filter_geomean,
        simd_active: kernel::simd_active(),
    }
}

/// Serialises the report as JSON (line-oriented, like `BENCH_PR9.json`).
pub fn render_json(report: &Pr10Report) -> String {
    BenchJson::new("pr10-soa-simd-kernels")
        .array("rows", &report.rows, |r| {
            format!(
                "{{\"name\": \"{}\", \"category\": \"{}\", \"elems\": {}, \
                 \"aos_seconds\": {:.6}, \"soa_seconds\": {:.6}, \
                 \"simd_seconds\": {:.6}, \"soa_speedup\": {:.3}, \
                 \"simd_speedup\": {:.3}, \"total_speedup\": {:.3}}}",
                r.name,
                r.category,
                r.elems,
                r.aos_seconds,
                r.soa_seconds,
                r.simd_seconds,
                r.soa_speedup,
                r.simd_speedup,
                r.total_speedup,
            )
        })
        .field(
            "scan_filter_geomean",
            format!("{:.3}", report.scan_filter_geomean),
        )
        .field("simd_active", report.simd_active)
        .finish()
}

/// Renders the human-readable table printed by the `experiments` binary.
pub fn render_table(report: &Pr10Report) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "{:<24} {:>9} {:>9} {:>11} {:>11} {:>11} {:>8} {:>8} {:>8}",
        "workload", "category", "elems", "aos (s)", "soa (s)", "simd (s)", "soa", "simd", "total"
    )
    .expect("string write");
    for r in &report.rows {
        writeln!(
            out,
            "{:<24} {:>9} {:>9} {:>11.6} {:>11.6} {:>11.6} {:>7.2}x {:>7.2}x {:>7.2}x",
            r.name,
            r.category,
            r.elems,
            r.aos_seconds,
            r.soa_seconds,
            r.simd_seconds,
            r.soa_speedup,
            r.simd_speedup,
            r.total_speedup,
        )
        .expect("string write");
    }
    writeln!(
        out,
        "\nscan/filter geomean (simd over aos): {:.2}x   simd paths active: {}",
        report.scan_filter_geomean, report.simd_active
    )
    .expect("string write");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_scale_runs_and_serialises() {
        let report = run(Pr10Scale::Smoke);
        assert_eq!(report.rows.len(), 5);
        let categories: Vec<&str> = report.rows.iter().map(|r| r.category.as_str()).collect();
        for want in ["scan", "filter", "probe", "aggregate"] {
            assert!(categories.contains(&want), "missing category {want}");
        }
        assert!(report.scan_filter_geomean.is_finite() && report.scan_filter_geomean > 0.0);
        // Without the feature the dispatched kernels are the scalar ones.
        if !cfg!(feature = "simd") {
            assert!(!report.simd_active);
        }
        let json = render_json(&report);
        assert!(json.contains("\"rows\""));
        assert!(json.contains("\"scan_filter_geomean\""));
        assert!(json.contains("\"simd_active\""));
        assert!(json.contains("\"host\""));
        assert!(!render_table(&report).is_empty());
    }

    #[test]
    fn aos_entry_reproduces_the_old_record_footprint() {
        assert_eq!(std::mem::size_of::<AosEntry>(), 16);
    }
}
