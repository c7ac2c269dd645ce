//! Flat scan kernels over value arrays — the vectorised inner loops of the
//! SoA arena layout.
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
//! # Dispatch
//!
//! Every dispatched kernel has a portable scalar implementation
//! (`*_scalar`), compiled and tested unconditionally.  With the `simd` cargo
//! feature on x86-64 the un-suffixed entry points dispatch at runtime to
//! AVX2 implementations
//! (4 × u64 lanes, `std::arch` intrinsics behind
//! `is_x86_feature_detected!`); anywhere else they fall through to the
//! scalar code.  The paper's issue sketch names `std::simd`, but portable
//! SIMD is nightly-only; the stable-toolchain equivalent is explicit
//! intrinsics with runtime detection, which is what ships here.  The SIMD
//! and scalar paths are pinned bit-for-bit against each other by
//! `tests/simd_equivalence.rs` (run with the feature both on and off) and
//! the property tests in this module.
//!
//! Unsigned 64-bit comparisons have no direct AVX2 instruction; the ordered
//! kernels flip the sign bit of both operands (`x ^ 1 << 63`) and use the
//! signed `_mm256_cmpgt_epi64`, the standard bias trick.
//!
//! Dispatch is also gated on input *size*: `#[target_feature]` functions
//! cannot be inlined into their callers, so every AVX2 call pays a real
//! function-call (and dispatch-check) overhead.  On the tiny blocks the
//! engine sees constantly — three-entry unions — that overhead exceeds the
//! whole scalar loop, so the dispatched entry points fall through to scalar
//! below a per-kernel length threshold (`SIMD_MASK_MIN_LEN`) chosen from the
//! crossover measurements recorded in `BENCH_PR10.json`.  Point probes
//! ([`lower_bound`], [`find_value`]) have no vector form at all: a
//! vectorised hybrid measured slower at every slice length
//! (`BENCH_PR10.json`, 0.2–0.6×) and was deleted, so they are plain scalar
//! binary searches under one name each.

use fdb_common::{ComparisonOp, Value};

/// Smallest block for which [`fill_keep_mask`] dispatches to AVX2.  Below
/// this the non-inlinable `#[target_feature]` call costs more than the
/// whole scalar loop (the engine's unions are often only a few entries
/// wide); measured crossover on the `BENCH_PR10.json` filter shapes.
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
const SIMD_MASK_MIN_LEN: usize = 16;

/// Reinterprets a value slice as its raw `u64` backing.  Sound because
/// [`Value`] is `repr(transparent)` over `u64`.
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
#[inline]
fn raw(values: &[Value]) -> &[u64] {
    // SAFETY: Value is repr(transparent) over u64, so the layouts match.
    unsafe { std::slice::from_raw_parts(values.as_ptr() as *const u64, values.len()) }
}

/// Returns `true` when the AVX2 fast paths are compiled in and the CPU
/// supports them.  `false` on every configuration without the `simd`
/// feature, so the scalar kernels are the only code path CI's default build
/// can take.
#[inline]
pub fn simd_active() -> bool {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
    {
        false
    }
}

// ---------------------------------------------------------------------
// The probe contract (shared binary search)
// ---------------------------------------------------------------------

/// Binary-searches a slice sorted strictly increasing by `key` for the item
/// whose key equals `target` — the **single probe contract** behind every
/// `find_value` in the crate: the builder-form [`crate::node::Union`], the
/// arena [`crate::UnionRef`], the fused overlay and the absorb operator all
/// delegate here (directly, or via [`find_value`] for flat value slices).
#[inline]
pub fn find_by_key<T>(
    items: &[T],
    mut key: impl FnMut(&T) -> Value,
    target: Value,
) -> Option<usize> {
    items.binary_search_by(|item| key(item).cmp(&target)).ok()
}

/// First index whose value is `>= target` in a strictly increasing slice
/// (`values.len()` when every value is smaller): a plain binary search
/// (`partition_point`).
///
/// Scalar only: a point probe is a dependent-load chain that branchless
/// binary search already walks optimally, and a non-inlinable AVX2 call only
/// adds overhead (the vectorised hybrid measured 0.2–0.6× on the
/// `BENCH_PR10.json` probe shapes).
#[inline]
pub fn lower_bound(values: &[Value], target: Value) -> usize {
    values.partition_point(|&v| v < target)
}

/// Index of `target` in a strictly increasing value slice, if present —
/// the flat-slice form of the probe contract.  Scalar by design; see
/// [`lower_bound`].
#[inline]
pub fn find_value(values: &[Value], target: Value) -> Option<usize> {
    let i = lower_bound(values, target);
    (i < values.len() && values[i] == target).then_some(i)
}

// ---------------------------------------------------------------------
// Batched predicate evaluation (keep masks)
// ---------------------------------------------------------------------

/// Evaluates `value θ rhs` for every value of a block, writing one `bool`
/// per value — the batched form of the per-entry predicate in the overlay's
/// entry filters.  `out.len()` must equal `values.len()`.
/// Runtime-dispatched.
#[inline]
pub fn fill_keep_mask(values: &[Value], op: ComparisonOp, rhs: Value, out: &mut [bool]) {
    assert_eq!(values.len(), out.len(), "mask length mismatch");
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if values.len() >= SIMD_MASK_MIN_LEN && simd_active() {
        // SAFETY: AVX2 support was just detected.
        unsafe { avx2::fill_keep_mask(raw(values), op, rhs.raw(), out) };
        return;
    }
    fill_keep_mask_scalar(values, op, rhs, out);
}

/// Scalar [`fill_keep_mask`]: one branch-free comparison per value.
#[inline]
pub fn fill_keep_mask_scalar(values: &[Value], op: ComparisonOp, rhs: Value, out: &mut [bool]) {
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
/// slice is strictly increasing.  Runtime-dispatched.
#[inline]
pub fn first_unsorted(values: &[Value]) -> Option<usize> {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if simd_active() {
        // SAFETY: AVX2 support was just detected.
        return unsafe { avx2::first_unsorted(raw(values)) };
    }
    first_unsorted_scalar(values)
}

/// Scalar [`first_unsorted`]: a windowed pairwise scan.
#[inline]
pub fn first_unsorted_scalar(values: &[Value]) -> Option<usize> {
    values.windows(2).position(|w| w[1] <= w[0])
}

// ---------------------------------------------------------------------
// AVX2 implementations (the `simd` feature's fast paths)
// ---------------------------------------------------------------------

#[cfg(all(feature = "simd", target_arch = "x86_64"))]
mod avx2 {
    use fdb_common::ComparisonOp;
    use std::arch::x86_64::*;

    /// Sign-bit bias turning unsigned 64-bit order into the signed order
    /// `_mm256_cmpgt_epi64` implements.
    const BIAS: u64 = 1 << 63;

    /// Loads four values and applies the sign-bit bias.
    ///
    /// # Safety
    /// `ptr` must be valid for reading 32 bytes; AVX2 must be available.
    #[inline]
    unsafe fn load_biased(ptr: *const u64) -> __m256i {
        let lanes = _mm256_loadu_si256(ptr as *const __m256i);
        _mm256_xor_si256(lanes, _mm256_set1_epi64x(BIAS as i64))
    }

    /// One bit per 64-bit lane of a comparison result.
    #[inline]
    unsafe fn lane_mask(cmp: __m256i) -> u32 {
        _mm256_movemask_pd(_mm256_castsi256_pd(cmp)) as u32 & 0xF
    }

    /// Expands a 4-bit lane mask into four `bool` bytes (lane 0 in the
    /// lowest byte), so [`fill_keep_mask`] emits one 32-bit store per block
    /// instead of four byte stores.
    const MASK_LUT: [u32; 16] = {
        let mut lut = [0u32; 16];
        let mut m = 0usize;
        while m < 16 {
            let b = m as u32;
            lut[m] = (b & 1) | ((b >> 1) & 1) << 8 | ((b >> 2) & 1) << 16 | ((b >> 3) & 1) << 24;
            m += 1;
        }
        lut
    };

    /// AVX2 [`super::fill_keep_mask`].
    ///
    /// # Safety
    /// Requires AVX2; `values.len() == out.len()` is asserted by the caller.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn fill_keep_mask(
        values: &[u64],
        op: ComparisonOp,
        rhs: u64,
        out: &mut [bool],
    ) {
        let n = values.len();
        let rhs_biased = _mm256_set1_epi64x((rhs ^ BIAS) as i64);
        let rhs_raw = _mm256_set1_epi64x(rhs as i64);
        let mut i = 0usize;
        while i + 4 <= n {
            let mask = match op {
                ComparisonOp::Eq | ComparisonOp::Ne => {
                    let lanes = _mm256_loadu_si256(values.as_ptr().add(i) as *const __m256i);
                    let eq = lane_mask(_mm256_cmpeq_epi64(lanes, rhs_raw));
                    if op == ComparisonOp::Eq {
                        eq
                    } else {
                        !eq & 0xF
                    }
                }
                ComparisonOp::Lt | ComparisonOp::Ge => {
                    let x = load_biased(values.as_ptr().add(i));
                    let lt = lane_mask(_mm256_cmpgt_epi64(rhs_biased, x));
                    if op == ComparisonOp::Lt {
                        lt
                    } else {
                        !lt & 0xF
                    }
                }
                ComparisonOp::Gt | ComparisonOp::Le => {
                    let x = load_biased(values.as_ptr().add(i));
                    let gt = lane_mask(_mm256_cmpgt_epi64(x, rhs_biased));
                    if op == ComparisonOp::Gt {
                        gt
                    } else {
                        !gt & 0xF
                    }
                }
            };
            // One 32-bit store of four valid `bool` bytes (each 0 or 1).
            (out.as_mut_ptr().add(i) as *mut u32).write_unaligned(MASK_LUT[mask as usize]);
            i += 4;
        }
        while i < n {
            *out.get_unchecked_mut(i) = op.eval(
                fdb_common::Value::new(*values.get_unchecked(i)),
                fdb_common::Value::new(rhs),
            );
            i += 1;
        }
    }

    /// AVX2 [`super::first_unsorted`]: compares each four-lane block against
    /// the block one position over.
    ///
    /// # Safety
    /// Requires AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn first_unsorted(values: &[u64]) -> Option<usize> {
        let n = values.len();
        let mut i = 0usize;
        while i + 5 <= n {
            let a = load_biased(values.as_ptr().add(i));
            let b = load_biased(values.as_ptr().add(i + 1));
            let increasing = lane_mask(_mm256_cmpgt_epi64(b, a));
            if increasing != 0xF {
                return Some(i + (!increasing & 0xF).trailing_zeros() as usize);
            }
            i += 4;
        }
        while i + 1 < n {
            if values.get_unchecked(i + 1) <= values.get_unchecked(i) {
                return Some(i);
            }
            i += 1;
        }
        None
    }
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
                let mut scalar = vec![false; values.len()];
                fill_keep_mask_scalar(&values, op, rhs, &mut scalar);
                assert_eq!(scalar, expect);
                let mut dispatched = vec![false; values.len()];
                fill_keep_mask(&values, op, rhs, &mut dispatched);
                assert_eq!(dispatched, expect);
            }
        }
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
            assert_eq!(first_unsorted_scalar(&values), expect);
            assert_eq!(first_unsorted(&values), expect);
        }
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
