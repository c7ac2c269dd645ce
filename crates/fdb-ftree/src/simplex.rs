//! An exact simplex for the packing LP dual to a path's fractional edge
//! cover.
//!
//! A path's cover LP — minimise `Σ x_e` over its edges subject to
//! `Σ_{e ∋ v} x_e ≥ 1` for every vertex `v` and `x ≥ 0` — has the packing LP
//! as its dual: maximise `Σ y_v` subject to `Σ_{v ∈ e} y_v ≤ 1` for every
//! edge and `y ≥ 0`, with the same optimum.  The origin is a feasible
//! packing, so the simplex runs one phase with no artificial variable, and
//! in integers: every tableau entry is kept times the determinant of the
//! current basis, so the optimum comes out as an exact fraction.

use fdb_common::{FdbError, Result};

/// The final simplex tableau of the packing LP of a path given as the
/// incidence sets of its vertices.  One row per edge, in edge order, then
/// the objective row; one column per vertex, one slack per edge, then the
/// right-hand side.  Every entry is its rational value times `den`, the
/// determinant of the current basis.
pub(crate) struct Packing {
    cols: usize,
    rows: Vec<i128>,
    /// The column basic in each edge row.
    basis: Vec<usize>,
    den: i128,
}

impl Packing {
    fn rhs(&self) -> usize {
        self.cols - 1
    }

    fn row(&self, i: usize) -> &[i128] {
        &self.rows[i * self.cols..][..self.cols]
    }

    fn objective(&self) -> &[i128] {
        self.row(self.basis.len())
    }

    /// The optimum as `(num, den)`, not reduced, `den > 0`.
    pub(crate) fn optimum(&self) -> (i128, i128) {
        (self.objective()[self.rhs()], self.den)
    }
}

/// Solves the packing LP of a path exactly.  The path is its vertices'
/// incidence sets, `width` bitmap words a set; the edges are the bits set in
/// any of them.  Pivots are fraction-free (Bareiss: each entry
/// `(a·p − b·c) / den`, an exact division) and chosen by Bland's rule, which
/// terminates.  A vertex no edge covers makes the packing unbounded and the
/// cover infeasible.  Entries are minors of a 0/1 matrix and checked: a path
/// whose minors outgrow `i128` is refused, never answered wrong.
pub(crate) fn packing(path: &[u64], width: usize) -> Result<Packing> {
    let n = path.len() / width;
    let vertices = |slot: usize| path.iter().skip(slot).step_by(width);
    let edges: Vec<(usize, u32)> = (0..width)
        .flat_map(|slot| {
            let on_path = vertices(slot).fold(0, |all, w| all | w);
            (0..64)
                .filter(move |bit| on_path >> bit & 1 != 0)
                .map(move |bit| (slot, bit))
        })
        .collect();
    let (m, cols) = (edges.len(), n + edges.len() + 1);
    let mut t = Packing {
        cols,
        rows: Vec::with_capacity((m + 1) * cols),
        basis: (n..n + m).collect(),
        den: 1,
    };
    for (e, &(slot, bit)) in edges.iter().enumerate() {
        t.rows
            .extend(vertices(slot).map(|w| i128::from(w >> bit & 1)));
        t.rows.extend((0..m).map(|s| i128::from(s == e)));
        t.rows.push(1);
    }
    t.rows.extend((0..cols).map(|j| -i128::from(j < n)));
    let overflow = || FdbError::LimitExceeded {
        detail: "a path cover outgrows exact 128-bit arithmetic".into(),
    };
    let mul = |a: i128, b: i128| a.checked_mul(b).ok_or_else(overflow);
    let rhs = t.rhs();
    while let Some(col) = t.objective()[..rhs].iter().position(|&c| c < 0) {
        // The least ratio `rhs / entry` over the rows with a positive
        // entry, ties to the lowest basic column.
        let mut leave: Option<usize> = None;
        for i in (0..m).filter(|&i| t.row(i)[col] > 0) {
            let Some(l) = leave else {
                leave = Some(i);
                continue;
            };
            let (ratio, least) = (
                mul(t.row(i)[rhs], t.row(l)[col])?,
                mul(t.row(l)[rhs], t.row(i)[col])?,
            );
            if ratio < least || ratio == least && t.basis[i] < t.basis[l] {
                leave = Some(i);
            }
        }
        let row = leave.ok_or(FdbError::InfeasibleProgram)?;
        let pivot = t.row(row).to_vec();
        let (p, den) = (pivot[col], t.den);
        for i in (0..=m).filter(|&i| i != row) {
            let c = t.row(i)[col];
            for (a, &b) in t.rows[i * cols..][..cols].iter_mut().zip(&pivot) {
                let minor = mul(*a, p)?.checked_sub(mul(c, b)?);
                *a = minor.ok_or_else(overflow)?;
                // The first pivot divides by 1: skip it, as 128-bit
                // division is most of a solve's time.
                if den != 1 {
                    *a /= den;
                }
            }
        }
        (t.basis[row], t.den) = (col, p);
    }
    Ok(t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cover::path_cover;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};

    /// The path of the covering program with one vertex per 0/1 row, `1` in
    /// column `e` when edge `e` covers the vertex.
    fn program(rows: &[&[u8]]) -> Vec<u64> {
        let set = |row: &[u8]| (0..row.len()).fold(0, |w, e| w | u64::from(row[e]) << e);
        rows.iter().map(|row| set(row)).collect()
    }

    /// Solves `path`'s packing LP and checks that the final tableau
    /// certifies its optimum exactly: the packing `y` (the basic vertex
    /// columns) and the cover `x` (the slack columns' reduced costs) are
    /// non-negative and feasible, `Aᵀy ≤ 1` and `Ax ≥ 1`, with equal sums.
    /// Every entry is scaled by the tableau's denominator.  Returns the
    /// tableau and the cover `x` of the edges in row order.
    fn certified(path: &[u64], width: usize) -> Result<(Packing, Vec<i128>)> {
        let t = packing(path, width)?;
        let n = path.len() / width;
        let m = t.basis.len();
        let mut y = vec![0; n];
        for (i, &b) in t.basis.iter().enumerate().filter(|&(_, &b)| b < n) {
            y[b] = t.row(i)[t.rhs()];
        }
        let x = t.objective()[n..n + m].to_vec();
        assert!(t.den > 0 && y.iter().chain(&x).all(|&v| v >= 0));
        // The edges in tableau row order: set bits, slot by slot.
        let mut edges = Vec::new();
        for slot in 0..width {
            for bit in 0..64 {
                let covered: Vec<usize> = (0..n)
                    .filter(|&v| path[v * width + slot] >> bit & 1 != 0)
                    .collect();
                if !covered.is_empty() {
                    edges.push(covered);
                }
            }
        }
        assert_eq!(edges.len(), m);
        for edge in &edges {
            assert!(edge.iter().map(|&v| y[v]).sum::<i128>() <= t.den);
        }
        for v in 0..n {
            let weight: i128 = (0..m)
                .filter(|&e| edges[e].contains(&v))
                .map(|e| x[e])
                .sum();
            assert!(weight >= t.den, "vertex {v} uncovered");
        }
        let (sum, _) = t.optimum();
        assert_eq!((y.iter().sum::<i128>(), x.iter().sum::<i128>()), (sum, sum));
        Ok((t, x))
    }

    #[test]
    fn simple_cover_lp() {
        // min x0 + x1 s.t. x0 + x1 >= 1, x0 >= 0, x1 >= 0: optimum 1.
        let (t, _) = certified(&program(&[&[1, 1]]), 1).unwrap();
        let (num, den) = t.optimum();
        assert_eq!(num, den);
    }

    #[test]
    fn triangle_fractional_cover_is_three_halves() {
        // The triangle query R(A,B), S(B,C), T(A,C): covering all three
        // attributes needs total weight 3/2 fractionally (1/2 each).
        let path = program(&[&[1, 0, 1], &[1, 1, 0], &[0, 1, 1]]);
        let (t, x) = certified(&path, 1).unwrap();
        let (num, den) = t.optimum();
        assert_eq!(2 * num, 3 * den);
        assert!(x.iter().all(|&v| 2 * v == den), "{x:?} / {den}");
    }

    #[test]
    fn infeasible_program_is_reported() {
        // A row no variable appears in: a vertex no edge covers.
        let found = packing(&program(&[&[1, 0], &[0, 0]]), 1);
        assert_eq!(found.err(), Some(FdbError::InfeasibleProgram));
    }

    #[test]
    fn no_constraints_minimum_is_zero() {
        let (t, x) = certified(&[], 1).unwrap();
        assert_eq!((t.optimum(), x), ((0, 1), vec![]));
    }

    #[test]
    fn degenerate_program_terminates() {
        // The Fano plane: seven points, seven lines of three, every point on
        // three lines.  Every basis of this program is degenerate (ratio
        // ties everywhere); Bland's rule must avoid cycling and reach the
        // fractional optimum 7/3 (1/3 on every line).
        let lines: [[usize; 3]; 7] = [
            [0, 1, 2],
            [0, 3, 4],
            [0, 5, 6],
            [1, 3, 5],
            [1, 4, 6],
            [2, 3, 6],
            [2, 4, 5],
        ];
        let rows: Vec<Vec<u8>> = (0..7)
            .map(|point| lines.iter().map(|l| u8::from(l.contains(&point))).collect())
            .collect();
        let rows: Vec<&[u8]> = rows.iter().map(Vec::as_slice).collect();
        let (t, _) = certified(&program(&rows), 1).unwrap();
        let (num, den) = t.optimum();
        assert_eq!(3 * num, 7 * den);
    }

    #[test]
    fn redundant_rows_are_handled() {
        // Repeated rows (vertices with the same edges) leave rows no pivot
        // can use.
        let path = program(&[&[1, 1], &[1, 1], &[1, 1]]);
        let (t, x) = certified(&path, 1).unwrap();
        let (num, den) = t.optimum();
        assert_eq!((num, x[0] + x[1]), (den, den));
    }

    #[test]
    fn random_covers_are_certified_and_one_bit_pattern_in_any_order() {
        let mut rng = StdRng::seed_from_u64(0xB1A4D);
        for case in 0..2000 {
            let (n, m) = (rng.gen_range(1..=10usize), rng.gen_range(1..=8u32));
            let path: Vec<u64> = (0..n).map(|_| rng.gen_range(0..1u64 << m)).collect();
            if certified(&path, 1).is_err() {
                assert!(path.contains(&0), "case {case}: {path:?}");
                continue;
            }
            let cover = path_cover(&path, 1).unwrap();
            // The same hypergraph with its vertices shuffled and its edges
            // moved to random bits of two words.
            let mut bits: Vec<u32> = (0..128).collect();
            bits.shuffle(&mut rng);
            let mut moved: Vec<u64> = path
                .iter()
                .flat_map(|&set| {
                    let mut words = [0u64; 2];
                    for e in (0..m).filter(|e| set >> e & 1 != 0) {
                        let bit = bits[e as usize];
                        words[bit as usize / 64] |= 1 << (bit % 64);
                    }
                    words
                })
                .collect();
            let mut chunks: Vec<&[u64]> = moved.chunks(2).collect();
            chunks.shuffle(&mut rng);
            moved = chunks.concat();
            certified(&moved, 2).unwrap();
            let again = path_cover(&moved, 2).unwrap();
            assert_eq!(again.to_bits(), cover.to_bits(), "case {case}: {path:?}");
        }
    }

    #[test]
    fn a_cover_whose_minors_outgrow_128_bits_is_refused() {
        // 80 vertices on 80 edges, each incidence drawn with probability ½:
        // the tableau's minors pass 2^127 before the optimum is reached.
        let mut rng = StdRng::seed_from_u64(0x0F10);
        let mut path = vec![0u64; 160];
        for v in 0..80 {
            for e in (0..80).filter(|_| rng.gen_bool(0.5)) {
                path[v * 2 + e / 64] |= 1 << (e % 64);
            }
        }
        assert!(matches!(
            packing(&path, 2),
            Err(FdbError::LimitExceeded { .. })
        ));
    }
}
