//! Scalar-vs-SIMD kernel equivalence: every runtime-dispatched scan kernel
//! in `fdb::frep::kernel` must be **bit-for-bit** identical to its portable
//! scalar oracle on every input — unaligned lengths, empty and singleton
//! slices, all-equal blocks, and values at the unsigned extremes (where the
//! AVX2 sign-bit bias trick would first go wrong).
//!
//! The suite is built and run twice by CI: once in the default configuration
//! (the dispatched entry points *are* the scalar kernels — the sweep then
//! pins the oracles against independent std reimplementations) and once with
//! `--features simd`, where on an AVX2 machine the same sweep pins the
//! vectorised paths against the scalar oracles.

use fdb::common::{ComparisonOp, Value};
use fdb::frep::kernel;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const OPS: [ComparisonOp; 6] = [
    ComparisonOp::Eq,
    ComparisonOp::Ne,
    ComparisonOp::Lt,
    ComparisonOp::Le,
    ComparisonOp::Gt,
    ComparisonOp::Ge,
];

/// Strictly increasing values of the given length with random gaps,
/// optionally shifted to the top of the u64 range to cross the sign bit.
fn sorted_values(rng: &mut StdRng, len: usize, high: bool) -> Vec<Value> {
    let mut next: u64 = if high {
        u64::MAX - 4 * len as u64 - 7
    } else {
        0
    };
    (0..len)
        .map(|_| {
            next += rng.gen_range(1..4u64);
            Value::new(next)
        })
        .collect()
}

/// Probe targets that hit every interesting position of a sorted slice:
/// every element, every gap neighbour, both ends, and the extremes.
fn probe_targets(rng: &mut StdRng, values: &[Value]) -> Vec<Value> {
    let mut targets = vec![Value::MIN, Value::MAX];
    for &v in values {
        targets.push(v);
        targets.push(Value::new(v.raw().wrapping_sub(1)));
        targets.push(Value::new(v.raw().wrapping_add(1)));
    }
    for _ in 0..16 {
        targets.push(Value::new(rng.gen_range(0..u64::MAX)));
    }
    targets
}

/// Sweeps every length 0..=N so each kernel sees every tail shape around
/// the 4-lane width, both sides of the dispatch thresholds (keep-mask at
/// 16, the run window at 32, via 15..17 and 31..33 neighbours), and the
/// 16-wide lower-bound window edge.
fn sweep_lengths() -> impl Iterator<Item = usize> {
    (0..=9).chain([15, 16, 17, 31, 32, 33, 63, 64, 65, 127, 200])
}

#[test]
fn lower_bound_and_find_value_match_scalar() {
    let mut rng = StdRng::seed_from_u64(0xF1);
    for len in sweep_lengths() {
        for high in [false, true] {
            let values = sorted_values(&mut rng, len, high);
            for target in probe_targets(&mut rng, &values) {
                // The probes are scalar under either feature set (see the
                // kernel docs); pinned against independent std oracles.
                assert_eq!(
                    kernel::lower_bound(&values, target),
                    values.partition_point(|&v| v < target),
                    "lower_bound len {len} high {high} target {target}"
                );
                assert_eq!(
                    kernel::find_value(&values, target),
                    values.binary_search(&target).ok(),
                    "find_value len {len} high {high} target {target}"
                );
            }
        }
    }
}

#[test]
fn keep_masks_match_scalar_for_every_comparison() {
    let mut rng = StdRng::seed_from_u64(0xF2);
    for len in sweep_lengths() {
        for high in [false, true] {
            let values = sorted_values(&mut rng, len, high);
            for &rhs in probe_targets(&mut rng, &values).iter().take(40) {
                for op in OPS {
                    let mut got = vec![false; len];
                    let mut want = vec![true; len];
                    kernel::fill_keep_mask(&values, op, rhs, &mut got);
                    kernel::fill_keep_mask_scalar(&values, op, rhs, &mut want);
                    assert_eq!(got, want, "op {op:?} rhs {rhs} len {len} high {high}");
                    // Independent oracle: the per-entry predicate.
                    for (i, &v) in values.iter().enumerate() {
                        assert_eq!(got[i], op.eval(v, rhs));
                    }
                }
            }
        }
    }
}

#[test]
fn first_unsorted_matches_scalar_with_planted_violations() {
    let mut rng = StdRng::seed_from_u64(0xF3);
    for len in sweep_lengths() {
        for high in [false, true] {
            // Sorted input: no violation anywhere.
            let mut values = sorted_values(&mut rng, len, high);
            assert_eq!(
                kernel::first_unsorted(&values),
                kernel::first_unsorted_scalar(&values)
            );
            assert_eq!(kernel::first_unsorted(&values), None);
            if len < 2 {
                continue;
            }
            // Plant a duplicate, then an inversion, at a random position.
            let at = rng.gen_range(0..len - 1);
            let orig = values[at + 1];
            values[at + 1] = values[at];
            assert_eq!(kernel::first_unsorted(&values), Some(at));
            assert_eq!(kernel::first_unsorted_scalar(&values), Some(at));
            values[at + 1] = Value::new(values[at].raw().wrapping_sub(1));
            assert_eq!(kernel::first_unsorted(&values), Some(at));
            assert_eq!(kernel::first_unsorted_scalar(&values), Some(at));
            values[at + 1] = orig;
        }
    }
    // All-equal: the violation is at index 0.
    let flat = vec![Value::new(7); 100];
    assert_eq!(kernel::first_unsorted(&flat), Some(0));
    assert_eq!(kernel::first_unsorted_scalar(&flat), Some(0));
}

#[test]
fn dispatch_reports_the_compiled_configuration() {
    // Without the feature the dispatched paths must be scalar; with it,
    // activation depends on the CPU, so only the implication is pinned.
    if !cfg!(feature = "simd") {
        assert!(!kernel::simd_active());
    }
}
