//! Dense two-phase primal simplex for covering programs.
//!
//! The only linear program FDB poses is the covering LP of a fractional edge
//! cover (fractional edge covers over root-to-leaf paths of an f-tree):
//! minimise `Σ x` subject to `A x ≥ 1` and `x ≥ 0`.  The programs are tiny,
//! so the solver favours clarity over sparse-matrix sophistication: the
//! constraint system is kept as a dense tableau, pivots use Bland's rule to
//! guarantee termination, and all arithmetic is `f64` with a small absolute
//! tolerance.
//!
//! The entry point is [`LinearProgram::minimize`].

use fdb_common::{FdbError, Result};

/// Numerical tolerance used for pivoting and feasibility decisions.
const EPS: f64 = 1e-9;

/// A covering program over non-negative variables: minimise their sum
/// subject to constraints `aᵀx ≥ 1`.
///
/// ```
/// use fdb_lp::LinearProgram;
///
/// // minimise x0 + x1  subject to  x0 + x1 >= 1, x0 >= 1
/// let mut lp = LinearProgram::new(2);
/// lp.add_constraint(vec![1.0, 1.0]);
/// lp.add_constraint(vec![1.0, 0.0]);
/// let sol = lp.minimize().unwrap();
/// assert_eq!((sol.objective, sol.values), (1.0, vec![1.0, 0.0]));
/// ```
#[derive(Clone, Debug)]
pub struct LinearProgram {
    num_vars: usize,
    constraints: Vec<Vec<f64>>,
}

/// An optimal solution to a [`LinearProgram`].
#[derive(Clone, Debug)]
pub struct Solution {
    /// Optimal (minimal) objective value.
    pub objective: f64,
    /// Optimal assignment of the variables.
    pub values: Vec<f64>,
}

impl LinearProgram {
    /// Creates a program over `num_vars` non-negative variables with no
    /// constraints.
    pub fn new(num_vars: usize) -> Self {
        LinearProgram {
            num_vars,
            constraints: Vec::new(),
        }
    }

    /// Adds the constraint `coeffs · x ≥ 1` (missing coefficients are zero,
    /// extras are ignored).
    pub fn add_constraint(&mut self, mut coeffs: Vec<f64>) {
        coeffs.resize(self.num_vars, 0.0);
        self.constraints.push(coeffs);
    }

    /// Minimises the sum of the variables.  Returns an error if some
    /// constraint cannot be met.
    pub fn minimize(&self) -> Result<Solution> {
        // Standard form: minimise 1ᵀx subject to Ax - s = 1, x, s ≥ 0, with
        // one surplus and one artificial variable per row.
        let (n, m) = (self.num_vars, self.constraints.len());
        let total_cols = n + m + m; // decision + surplus + artificial
        let art_start = n + m;

        // Build tableau rows: [A | -I | I][x s a]ᵀ = 1.  Every row starts
        // with its artificial variable basic; phase one drives them out.
        let mut rows: Vec<Vec<f64>> = Vec::with_capacity(m);
        for (i, coeffs) in self.constraints.iter().enumerate() {
            let mut row = vec![0.0; total_cols];
            row[..n].copy_from_slice(coeffs);
            (row[n + i], row[art_start + i]) = (-1.0, 1.0);
            rows.push(row);
        }
        let mut rhs: Vec<f64> = vec![1.0; m];
        let mut basis: Vec<usize> = (art_start..total_cols).collect();

        // Phase one: minimise the sum of artificial variables, which is
        // bounded below by 0.
        let mut phase1_cost = vec![0.0; total_cols];
        phase1_cost[art_start..].fill(1.0);
        let optimal = run_simplex(&mut rows, &mut rhs, &mut basis, &phase1_cost, total_cols);
        debug_assert!(optimal, "phase one is bounded below by 0");
        let phase1_obj: f64 = basis
            .iter()
            .enumerate()
            .map(|(i, &b)| if b >= art_start { rhs[i] } else { 0.0 })
            .sum();
        if phase1_obj > 1e-7 {
            return Err(FdbError::InfeasibleProgram);
        }

        // Drive any artificial variables still in the basis (at value zero)
        // out of it, or drop their rows if they are redundant.
        for i in 0..m {
            if basis[i] >= art_start {
                if let Some(j) = (0..art_start).find(|&j| rows[i][j].abs() > EPS) {
                    pivot(&mut rows, &mut rhs, &mut basis, i, j);
                }
                // If no pivot column exists the row is all-zero (redundant);
                // leaving the artificial basic at value 0 is harmless because
                // its column is excluded from entering decisions below.
            }
        }

        // Phase two: the sum of the variables, artificial columns forbidden;
        // bounded below by 0, since every variable is non-negative.
        let mut cost = vec![0.0; total_cols];
        cost[..n].fill(1.0);
        let optimal = run_simplex(&mut rows, &mut rhs, &mut basis, &cost, art_start);
        debug_assert!(optimal, "a covering program is bounded below by 0");

        let mut values = vec![0.0; n];
        for (&b, &x) in basis.iter().zip(&rhs).filter(|&(&b, _)| b < n) {
            values[b] = x;
        }
        let objective: f64 = values.iter().sum();
        Ok(Solution { objective, values })
    }
}

/// Runs the primal simplex on the tableau until optimality, considering only
/// columns `< allowed_cols` as candidates for entering the basis; `false`
/// if the program is unbounded.
fn run_simplex(
    rows: &mut [Vec<f64>],
    rhs: &mut [f64],
    basis: &mut [usize],
    cost: &[f64],
    allowed_cols: usize,
) -> bool {
    let m = rows.len();
    loop {
        // Reduced costs: c_j - c_Bᵀ B⁻¹ A_j.  The tableau is kept in the
        // basis-reduced form, so the reduced cost is computed row-wise.
        let mut entering = None;
        for j in 0..allowed_cols {
            if basis.contains(&j) {
                continue;
            }
            let mut reduced = cost[j];
            for i in 0..m {
                reduced -= cost[basis[i]] * rows[i][j];
            }
            if reduced < -EPS {
                // Bland's rule: first improving column by index.
                entering = Some(j);
                break;
            }
        }
        let Some(entering) = entering else {
            return true;
        };

        // Ratio test, Bland's rule on ties (smallest basis index).
        let mut leaving: Option<usize> = None;
        let mut best_ratio = f64::INFINITY;
        for i in 0..m {
            let a = rows[i][entering];
            if a > EPS {
                let ratio = rhs[i] / a;
                let better = ratio < best_ratio - EPS
                    || (ratio < best_ratio + EPS && leaving.is_none_or(|l| basis[i] < basis[l]));
                if better {
                    best_ratio = ratio;
                    leaving = Some(i);
                }
            }
        }
        let Some(leaving) = leaving else {
            return false;
        };
        pivot(rows, rhs, basis, leaving, entering);
    }
}

/// Pivots the tableau so that column `col` becomes basic in row `row`.
fn pivot(rows: &mut [Vec<f64>], rhs: &mut [f64], basis: &mut [usize], row: usize, col: usize) {
    let m = rows.len();
    let pivot_val = rows[row][col];
    debug_assert!(pivot_val.abs() > EPS, "pivot on a (near) zero element");
    let inv = 1.0 / pivot_val;
    for v in rows[row].iter_mut() {
        *v *= inv;
    }
    rhs[row] *= inv;
    let pivot_row = rows[row].clone();
    for i in 0..m {
        if i == row {
            continue;
        }
        let factor = rows[i][col];
        if factor.abs() <= EPS {
            continue;
        }
        for (v, p) in rows[i].iter_mut().zip(pivot_row.iter()) {
            *v -= factor * p;
        }
        rhs[i] -= factor * rhs[row];
    }
    basis[row] = col;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-6, "{a} != {b}");
    }

    /// The covering program with one constraint per row of 0/1 `rows`.
    fn program(num_vars: usize, rows: &[&[usize]]) -> LinearProgram {
        let mut lp = LinearProgram::new(num_vars);
        for row in rows {
            lp.add_constraint(row.iter().map(|&a| a as f64).collect());
        }
        lp
    }

    #[test]
    fn simple_cover_lp() {
        // min x0 + x1 s.t. x0 + x1 >= 1, x0 >= 0, x1 >= 0: optimum 1.
        let sol = program(2, &[&[1, 1]]).minimize().unwrap();
        assert_close(sol.objective, 1.0);
    }

    #[test]
    fn triangle_fractional_cover_is_three_halves() {
        // The triangle query R(A,B), S(B,C), T(A,C): covering all three
        // attributes needs total weight 3/2 fractionally (1/2 each).
        let sol = program(3, &[&[1, 0, 1], &[1, 1, 0], &[0, 1, 1]])
            .minimize()
            .unwrap();
        assert_close(sol.objective, 1.5);
        for v in &sol.values {
            assert_close(*v, 0.5);
        }
    }

    #[test]
    fn infeasible_program_is_reported() {
        // A row no variable appears in: a vertex no edge covers.
        let lp = program(2, &[&[1, 0], &[0, 0]]);
        assert_eq!(lp.minimize().unwrap_err(), FdbError::InfeasibleProgram);
    }

    #[test]
    fn no_constraints_minimum_is_zero() {
        let sol = LinearProgram::new(3).minimize().unwrap();
        assert_close(sol.objective, 0.0);
        assert_eq!(sol.values, [0.0; 3]);
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
        let rows: Vec<Vec<usize>> = (0..7)
            .map(|point| lines.iter().map(|l| l.contains(&point) as usize).collect())
            .collect();
        let rows: Vec<&[usize]> = rows.iter().map(Vec::as_slice).collect();
        let sol = program(7, &rows).minimize().unwrap();
        assert_close(sol.objective, 7.0 / 3.0);
    }

    #[test]
    fn redundant_rows_are_handled() {
        // Repeated rows (vertices with the same edges) leave a zero row
        // after phase one.
        let sol = program(2, &[&[1, 1], &[1, 1], &[1, 1]]).minimize().unwrap();
        assert_close(sol.objective, 1.0);
        assert_close(sol.values[0] + sol.values[1], 1.0);
    }
}
