//! Flat scan kernels over value arrays — the inner loops of the SoA arena
//! layout.
//!
//! The [`crate::store`] arenas keep entry values in a dense `&[Value]` array
//! per union (see the store docs for the SoA layout contract), so the hot
//! scans of the engine — predicate evaluation in the overlay's entry
//! filters, `find_value` probes, and the sortedness check in `validate` —
//! all reduce to a handful of kernels over a flat slice of 8-byte values.
//! This module is the **single home** for those kernels and for the
//! binary-search probe contract ([`find_by_key`]) that the builder-form
//! [`crate::node::Union`] shares with the arena probes.
//!
//! # One implementation per kernel
//!
//! Every kernel is a portable, branch-free loop over a dense slice that the
//! compiler vectorises on its own; the workspace lint table forbids
//! `unsafe_code`, so there are no intrinsics.  Hand-written AVX2 forms of
//! [`fill_keep_mask`] and [`first_unsorted`] moved no end-to-end metric of
//! the two workloads that reach them (ROADMAP has the ten-pair tables): the
//! engine's unions are a few entries wide, and a non-inlinable
//! `#[target_feature]` call costs more than such a loop.  Point probes
//! ([`lower_bound`], [`find_value`]) are scalar for a reason of their own: a
//! probe is a dependent-load chain that a branchless binary search already
//! walks optimally (a vectorised hybrid measured 0.2–0.6× at every slice
//! length, `BENCH_PR10.json`).  A new kernel arrives with its own ten pairs.

use fdb_common::{ComparisonOp, Value};

// ---------------------------------------------------------------------
// The probe contract (shared binary search)
// ---------------------------------------------------------------------

/// Binary-searches a slice sorted strictly increasing by `key` for the item
/// whose key equals `target` — the **single probe contract** behind every
/// `find_value` in the crate: the builder-form [`crate::node::Union`], the
/// arena [`crate::UnionRef`], the fused overlay and the absorb operator all
/// delegate here (directly, or via [`find_value`] for flat value slices).
#[inline]
pub(crate) fn find_by_key<T>(
    items: &[T],
    mut key: impl FnMut(&T) -> Value,
    target: Value,
) -> Option<usize> {
    items.binary_search_by(|item| key(item).cmp(&target)).ok()
}

/// First index whose value is `>= target` in a strictly increasing slice
/// (`values.len()` when every value is smaller): a plain binary search
/// (`partition_point`; see the module docs for why probes have no vector
/// form).
#[inline]
pub(crate) fn lower_bound(values: &[Value], target: Value) -> usize {
    values.partition_point(|&v| v < target)
}

/// Index of `target` in a strictly increasing value slice, if present —
/// the flat-slice form of the probe contract.
#[inline]
pub(crate) fn find_value(values: &[Value], target: Value) -> Option<usize> {
    let i = lower_bound(values, target);
    (i < values.len() && values[i] == target).then_some(i)
}

// ---------------------------------------------------------------------
// Batched predicate evaluation (keep masks)
// ---------------------------------------------------------------------

/// Evaluates `value θ rhs` for every value of a block, writing one `bool`
/// per value — the batched form of the per-entry predicate in the overlay's
/// entry filters: one branch-free comparison per value.  `out.len()` must
/// equal `values.len()`.
#[inline]
pub(crate) fn fill_keep_mask(values: &[Value], op: ComparisonOp, rhs: Value, out: &mut [bool]) {
    assert_eq!(values.len(), out.len(), "mask length mismatch");
    for (o, &v) in out.iter_mut().zip(values) {
        *o = op.eval(v, rhs);
    }
}

// ---------------------------------------------------------------------
// Sortedness (validate)
// ---------------------------------------------------------------------

/// First index `i` with `values[i + 1] <= values[i]` — the strict-increase
/// violation [`crate::store`]'s validator reports — or `None` when the
/// slice is strictly increasing: a windowed pairwise scan.
#[inline]
pub(crate) fn first_unsorted(values: &[Value]) -> Option<usize> {
    values.windows(2).position(|w| w[1] <= w[0])
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn vals(raw: &[u64]) -> Vec<Value> {
        raw.iter().copied().map(Value::new).collect()
    }

    const ALL_OPS: [ComparisonOp; 6] = [
        ComparisonOp::Eq,
        ComparisonOp::Ne,
        ComparisonOp::Lt,
        ComparisonOp::Le,
        ComparisonOp::Gt,
        ComparisonOp::Ge,
    ];

    /// A strictly increasing slice of random length (possibly empty), with
    /// values clustered so probe targets hit and miss.
    fn random_sorted(rng: &mut StdRng) -> Vec<Value> {
        let len = rng.gen_range(0..200usize);
        let mut raw: Vec<u64> = (0..len).map(|_| rng.gen_range(0..500u64) * 3).collect();
        raw.sort_unstable();
        raw.dedup();
        vals(&raw)
    }

    /// Every length 0..=9 and the neighbours of 16, 32, 64 and 128, so each
    /// kernel sees every tail shape around the widths a compiler vectorises
    /// by.
    fn sweep_lengths() -> impl Iterator<Item = usize> {
        (0..=9).chain([15, 16, 17, 31, 32, 33, 63, 64, 65, 127, 200])
    }

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
    /// both extremes, every element, every gap neighbour, and random values.
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

    /// Calls `case` with every swept slice and its probe targets.
    fn sweep(seed: u64, mut case: impl FnMut(&[Value], &[Value])) {
        let mut rng = StdRng::seed_from_u64(seed);
        for len in sweep_lengths() {
            for high in [false, true] {
                let values = sorted_values(&mut rng, len, high);
                let targets = probe_targets(&mut rng, &values);
                case(&values, &targets);
            }
        }
    }

    #[test]
    fn lower_bound_matches_partition_point_on_random_slices() {
        let mut rng = StdRng::seed_from_u64(0x10_01);
        for _ in 0..500 {
            let values = random_sorted(&mut rng);
            for _ in 0..8 {
                let t = Value::new(rng.gen_range(0..1600u64));
                let expect = values.partition_point(|&v| v < t);
                assert_eq!(lower_bound(&values, t), expect);
            }
        }
        sweep(0xF1, |values, targets| {
            for &t in targets {
                let expect = values.partition_point(|&v| v < t);
                assert_eq!(lower_bound(values, t), expect, "target {t} in {values:?}");
            }
        });
    }

    #[test]
    fn find_value_agrees_with_the_shared_probe_contract() {
        let mut rng = StdRng::seed_from_u64(0x10_02);
        for _ in 0..500 {
            let values = random_sorted(&mut rng);
            for _ in 0..8 {
                let t = Value::new(rng.gen_range(0..1600u64));
                let expect = values.binary_search(&t).ok();
                assert_eq!(find_by_key(&values, |&v| v, t), expect);
                assert_eq!(find_value(&values, t), expect);
            }
        }
        sweep(0xF1, |values, targets| {
            for &t in targets {
                let expect = values.binary_search(&t).ok();
                assert_eq!(find_value(values, t), expect, "target {t} in {values:?}");
            }
        });
    }

    #[test]
    fn keep_masks_match_the_scalar_predicate() {
        let mut rng = StdRng::seed_from_u64(0x10_03);
        for _ in 0..300 {
            let len = rng.gen_range(0..100usize);
            let values: Vec<Value> = (0..len)
                .map(|_| Value::new(rng.gen_range(0..50u64)))
                .collect();
            let rhs = Value::new(rng.gen_range(0..50u64));
            for op in ALL_OPS {
                let expect: Vec<bool> = values.iter().map(|&v| op.eval(v, rhs)).collect();
                let mut mask = vec![false; values.len()];
                fill_keep_mask(&values, op, rhs, &mut mask);
                assert_eq!(mask, expect);
            }
        }
        sweep(0xF2, |values, targets| {
            for &rhs in targets.iter().take(40) {
                for op in ALL_OPS {
                    let expect: Vec<bool> = values.iter().map(|&v| op.eval(v, rhs)).collect();
                    // Start from the opposite of the truth: every byte must
                    // be written.
                    let mut mask: Vec<bool> = expect.iter().map(|&keep| !keep).collect();
                    fill_keep_mask(values, op, rhs, &mut mask);
                    assert_eq!(mask, expect, "op {op:?} rhs {rhs} in {values:?}");
                }
            }
        });
    }

    #[test]
    fn keep_masks_handle_the_unsigned_extremes() {
        let values = vals(&[0, 1, u64::MAX / 2, u64::MAX - 1, u64::MAX]);
        for rhs in [Value::MIN, Value::new(u64::MAX / 2), Value::MAX] {
            for op in ALL_OPS {
                let expect: Vec<bool> = values.iter().map(|&v| op.eval(v, rhs)).collect();
                let mut out = vec![false; values.len()];
                fill_keep_mask(&values, op, rhs, &mut out);
                assert_eq!(out, expect, "op {op:?} rhs {rhs}");
            }
        }
    }

    #[test]
    fn first_unsorted_finds_the_first_violation() {
        let mut rng = StdRng::seed_from_u64(0x10_04);
        for _ in 0..500 {
            let mut values = random_sorted(&mut rng);
            // Half the time, plant a violation at a random position.
            if !values.is_empty() && rng.gen_bool(0.5) {
                let at = rng.gen_range(0..values.len());
                values.insert(at, Value::new(0));
            }
            let expect = values.windows(2).position(|w| w[1] <= w[0]);
            assert_eq!(first_unsorted(&values), expect);
        }
        // A sorted slice has none; a duplicate, then an inversion, planted
        // at every position is found exactly there.
        sweep(0xF3, |values, _| {
            assert_eq!(first_unsorted(values), None, "{values:?}");
            let mut values = values.to_vec();
            for at in 0..values.len().saturating_sub(1) {
                let orig = values[at + 1];
                values[at + 1] = values[at];
                assert_eq!(first_unsorted(&values), Some(at), "duplicate in {values:?}");
                values[at + 1] = Value::new(values[at].raw().wrapping_sub(1));
                assert_eq!(first_unsorted(&values), Some(at), "inversion in {values:?}");
                values[at + 1] = orig;
            }
        });
        // All-equal: the violation is at index 0.
        assert_eq!(first_unsorted(&vec![Value::new(7); 100]), Some(0));
    }

    #[test]
    fn empty_and_singleton_slices_are_handled() {
        let empty: Vec<Value> = Vec::new();
        assert_eq!(lower_bound(&empty, Value::new(5)), 0);
        assert_eq!(find_value(&empty, Value::new(5)), None);
        assert_eq!(first_unsorted(&empty), None);
        let one = vals(&[7]);
        assert_eq!(lower_bound(&one, Value::new(7)), 0);
        assert_eq!(lower_bound(&one, Value::new(8)), 1);
        assert_eq!(find_value(&one, Value::new(7)), Some(0));
        assert_eq!(first_unsorted(&one), None);
    }
}
