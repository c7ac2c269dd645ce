//! Low-discrepancy request mixes.
//!
//! A mix is *what share of the ops each template gets* and *which constants
//! they carry*.  Drawing both independently per op would make the mix itself
//! vary from seed to seed by a few percent — more than the regression
//! bounds — so the shares are apportioned exactly and the constants are
//! spread on an evenly spaced grid; the seed decides the grid's offset, where
//! each template starts in its cycle of constants, and each template's phase
//! in the list.  Two seeds give different request lists with the same
//! composition.

use rand::rngs::StdRng;
use rand::Rng;

/// Splits `ops` over `weights.len()` templates in proportion to `weights`,
/// by largest remainder, so the counts add up to `ops` exactly.
pub fn apportion(ops: usize, weights: &[f64]) -> Vec<usize> {
    let total: f64 = weights.iter().sum();
    let exact: Vec<f64> = weights.iter().map(|w| w / total * ops as f64).collect();
    let mut counts: Vec<usize> = exact.iter().map(|e| e.floor() as usize).collect();
    let mut by_remainder: Vec<usize> = (0..weights.len()).collect();
    by_remainder.sort_by(|&a, &b| {
        (exact[b] - exact[b].floor())
            .total_cmp(&(exact[a] - exact[a].floor()))
            .then(a.cmp(&b))
    });
    let missing = ops - counts.iter().sum::<usize>();
    for &template in by_remainder.iter().take(missing) {
        counts[template] += 1;
    }
    counts
}

/// The Zipf(`templates`, `exponent`) weights: rank `k` (1-based) weighs
/// `k^-exponent`.
pub fn zipf_weights(templates: usize, exponent: f64) -> Vec<f64> {
    (1..=templates)
        .map(|k| (k as f64).powf(-exponent))
        .collect()
}

/// Most distinct constants one template carries.  Every distinct request is
/// checked against the flat oracle on every run, so a template's ops cycle
/// through this many constants instead of each drawing its own.
pub const MAX_DISTINCT: usize = 40;

/// `count` constants spread evenly over `0..range`: the range is cut into
/// `min(count, MAX_DISTINCT)` strata, each contributes one constant (all at
/// the same seeded offset within their stratum), and the ops cycle through
/// the strata in bit-reversed (van der Corput) order from a seeded start, so
/// any few consecutive ops of a template already span the whole range.
pub fn spread_constants(rng: &mut StdRng, count: usize, range: u64) -> Vec<u64> {
    let offset = rng.gen_range(0..1_000_000u64) as f64 / 1e6;
    let strata = count.min(MAX_DISTINCT);
    let mut order: Vec<usize> = (0..strata).collect();
    order.sort_by_key(|&i| (i as u32).reverse_bits());
    let start = rng.gen_range(0..strata);
    (0..count)
        .map(|i| {
            let stratum = order[(start + i) % strata] as f64;
            (((stratum + offset) * range as f64 / strata as f64) as u64).min(range - 1)
        })
        .collect()
}

/// A seeded mix: `counts[t]` ops of template `t`, each with a constant from
/// [`spread_constants`], the templates **evenly interleaved**: template `t`'s `k`-th op sits at
/// position `(k + u_t) / counts[t]` of the list, `u_t` a seeded phase.  Any
/// stretch of the list — a `serve_batch` batch, say — therefore holds every
/// template in its share, so neither a batch's duration nor the memory its
/// results hold depends on the luck of a shuffle.
pub fn mixed_ops(rng: &mut StdRng, counts: &[usize], range: u64) -> Vec<(usize, u64)> {
    let mut keyed: Vec<(f64, usize, u64)> = Vec::with_capacity(counts.iter().sum());
    for (template, &count) in counts.iter().enumerate() {
        if count == 0 {
            continue;
        }
        let constants = spread_constants(rng, count, range);
        let phase = rng.gen_range(0..1_000_000u64) as f64 / 1e6;
        for (k, c) in constants.into_iter().enumerate() {
            keyed.push(((k as f64 + phase) / count as f64, template, c));
        }
    }
    keyed.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    keyed
        .into_iter()
        .map(|(_, template, c)| (template, c))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn apportioned_counts_add_up_and_follow_the_weights() {
        let counts = apportion(2000, &zipf_weights(10, 1.1));
        assert_eq!(counts.iter().sum::<usize>(), 2000);
        assert!(counts.windows(2).all(|w| w[0] >= w[1]), "{counts:?}");
        assert!(counts[0] > 700 && counts[9] > 40, "{counts:?}");
        assert_eq!(apportion(10, &[1.0, 1.0, 1.0]), vec![4, 3, 3]);
    }

    #[test]
    fn two_seeds_give_the_same_composition_in_a_different_order() {
        let counts = apportion(400, &[1.0; 10]);
        let a = mixed_ops(&mut StdRng::seed_from_u64(1), &counts, 32);
        let b = mixed_ops(&mut StdRng::seed_from_u64(2), &counts, 32);
        assert_eq!(a, mixed_ops(&mut StdRng::seed_from_u64(1), &counts, 32));
        assert_ne!(a, b);
        for template in 0..10 {
            let of = |ops: &[(usize, u64)]| ops.iter().filter(|o| o.0 == template).count();
            assert_eq!(of(&a), 40);
            assert_eq!(of(&b), 40);
        }
        assert!(a.iter().all(|&(_, c)| c < 32));
        // Evenly interleaved: every stretch of 20 ops holds each of the ten
        // equally weighted templates once to three times.
        for stretch in a.chunks(20) {
            for template in 0..10 {
                let held = stretch.iter().filter(|o| o.0 == template).count();
                assert!((1..=3).contains(&held), "{stretch:?}");
            }
        }
    }
}
