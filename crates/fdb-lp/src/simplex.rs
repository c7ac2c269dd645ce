//! Dense two-phase primal simplex.
//!
//! The solver targets the tiny linear programs produced by FDB's cost model
//! (fractional edge covers over root-to-leaf paths of an f-tree), so it
//! favours clarity over sparse-matrix sophistication: the constraint system
//! is kept as a dense tableau, pivots use Bland's rule to guarantee
//! termination, and all arithmetic is `f64` with a small absolute tolerance.
//!
//! The entry point is [`LinearProgram::minimize`].

use fdb_common::{FdbError, Result};

/// Numerical tolerance used for pivoting and feasibility decisions.
const EPS: f64 = 1e-9;

/// The sense of a linear constraint `aᵀx {≥, ≤, =} b`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ConstraintSense {
    /// `aᵀx ≥ b`
    GreaterEq,
    /// `aᵀx ≤ b`
    LessEq,
    /// `aᵀx = b`
    Equal,
}

#[derive(Clone, Debug)]
struct Constraint {
    coeffs: Vec<f64>,
    sense: ConstraintSense,
    rhs: f64,
}

/// A linear program over non-negative variables.
///
/// ```
/// use fdb_lp::{LinearProgram, ConstraintSense};
///
/// // minimise x0 + x1  subject to  x0 + x1 >= 1, x0 >= 0.25
/// let mut lp = LinearProgram::new(2);
/// lp.set_objective(vec![1.0, 1.0]);
/// lp.add_constraint(vec![1.0, 1.0], ConstraintSense::GreaterEq, 1.0);
/// lp.add_constraint(vec![1.0, 0.0], ConstraintSense::GreaterEq, 0.25);
/// let sol = lp.minimize().unwrap();
/// assert!((sol.objective - 1.0).abs() < 1e-9);
/// ```
#[derive(Clone, Debug)]
pub struct LinearProgram {
    num_vars: usize,
    objective: Vec<f64>,
    constraints: Vec<Constraint>,
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
    /// Creates a program over `num_vars` non-negative variables with a zero
    /// objective and no constraints.
    pub fn new(num_vars: usize) -> Self {
        LinearProgram {
            num_vars,
            objective: vec![0.0; num_vars],
            constraints: Vec::new(),
        }
    }

    /// Sets the objective coefficient vector (length must equal the number of
    /// variables; missing entries are treated as zero, extras are ignored).
    pub fn set_objective(&mut self, coeffs: Vec<f64>) {
        let mut c = coeffs;
        c.resize(self.num_vars, 0.0);
        self.objective = c;
    }

    /// Adds the constraint `coeffs · x  sense  rhs`.
    pub fn add_constraint(&mut self, coeffs: Vec<f64>, sense: ConstraintSense, rhs: f64) {
        let mut c = coeffs;
        c.resize(self.num_vars, 0.0);
        self.constraints.push(Constraint {
            coeffs: c,
            sense,
            rhs,
        });
    }

    /// Minimises the objective.  Returns an error if the program is
    /// infeasible or unbounded.
    pub fn minimize(&self) -> Result<Solution> {
        // Standard form: minimise cᵀx subject to Ax = b, x ≥ 0, b ≥ 0,
        // obtained by adding one slack/surplus variable per inequality and
        // one artificial variable per row that lacks an obvious basic column.
        let n = self.num_vars;
        let m = self.constraints.len();

        if m == 0 {
            // With no constraints and non-negative variables the optimum of a
            // minimisation is attained at x = 0 unless some objective
            // coefficient is negative (then the LP is unbounded below).
            if self.objective.iter().any(|&ci| ci < -EPS) {
                return Err(FdbError::UnboundedProgram);
            }
            return Ok(Solution {
                objective: 0.0,
                values: vec![0.0; n],
            });
        }

        // Count slack columns.
        let num_slacks = self
            .constraints
            .iter()
            .filter(|c| c.sense != ConstraintSense::Equal)
            .count();
        let total_cols = n + num_slacks + m; // decision + slack + artificial
        let art_start = n + num_slacks;

        // Build tableau rows: [A | S | I][x s a]ᵀ = b with b ≥ 0.
        let mut rows: Vec<Vec<f64>> = Vec::with_capacity(m);
        let mut rhs: Vec<f64> = Vec::with_capacity(m);
        let mut basis: Vec<usize> = vec![0; m];
        let mut slack_idx = 0usize;

        for (i, con) in self.constraints.iter().enumerate() {
            let mut row = vec![0.0; total_cols];
            let mut b = con.rhs;
            let mut coeffs = con.coeffs.clone();
            let mut sense = con.sense;
            if b < 0.0 {
                // Normalise to non-negative right-hand side.
                b = -b;
                for c in coeffs.iter_mut() {
                    *c = -*c;
                }
                sense = match sense {
                    ConstraintSense::GreaterEq => ConstraintSense::LessEq,
                    ConstraintSense::LessEq => ConstraintSense::GreaterEq,
                    ConstraintSense::Equal => ConstraintSense::Equal,
                };
            }
            row[..n].copy_from_slice(&coeffs[..n]);
            match sense {
                ConstraintSense::LessEq => {
                    row[n + slack_idx] = 1.0;
                    slack_idx += 1;
                }
                ConstraintSense::GreaterEq => {
                    row[n + slack_idx] = -1.0;
                    slack_idx += 1;
                }
                ConstraintSense::Equal => {}
            }
            // Every row gets an artificial variable; phase one drives them
            // out.  (Rows with a positive slack could reuse the slack as the
            // initial basis, but always adding artificials keeps the code
            // uniform and the programs here are tiny.)
            row[art_start + i] = 1.0;
            basis[i] = art_start + i;
            rows.push(row);
            rhs.push(b);
        }

        // Phase one: minimise the sum of artificial variables.
        let mut phase1_cost = vec![0.0; total_cols];
        for artificial_cost in phase1_cost.iter_mut().skip(art_start) {
            *artificial_cost = 1.0;
        }
        let status = run_simplex(&mut rows, &mut rhs, &mut basis, &phase1_cost, total_cols);
        if status == SimplexStatus::Unbounded {
            // Phase one is never unbounded (objective bounded below by 0);
            // treat defensively as infeasible.
            return Err(FdbError::InfeasibleProgram);
        }
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

        // Phase two: original objective, artificial columns forbidden.
        let mut cost = vec![0.0; total_cols];
        cost[..n].copy_from_slice(&self.objective);
        let status = run_simplex(&mut rows, &mut rhs, &mut basis, &cost, art_start);
        if status == SimplexStatus::Unbounded {
            return Err(FdbError::UnboundedProgram);
        }

        let mut values = vec![0.0; n];
        for (i, &b) in basis.iter().enumerate() {
            if b < n {
                values[b] = rhs[i];
            }
        }
        let objective: f64 = values
            .iter()
            .zip(&self.objective)
            .map(|(&x, &c)| x * c)
            .sum();
        Ok(Solution { objective, values })
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum SimplexStatus {
    Optimal,
    Unbounded,
}

/// Runs the primal simplex on the tableau until optimality, considering only
/// columns `< allowed_cols` as candidates for entering the basis.
fn run_simplex(
    rows: &mut [Vec<f64>],
    rhs: &mut [f64],
    basis: &mut [usize],
    cost: &[f64],
    allowed_cols: usize,
) -> SimplexStatus {
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
            return SimplexStatus::Optimal;
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
            return SimplexStatus::Unbounded;
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
    for i in 0..m {
        if i == row {
            continue;
        }
        let factor = rows[i][col];
        if factor.abs() <= EPS {
            continue;
        }
        let pivot_row = rows[row].clone();
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

    #[test]
    fn simple_cover_lp() {
        // min x0 + x1 s.t. x0 + x1 >= 1, x0 >= 0, x1 >= 0: optimum 1.
        let mut lp = LinearProgram::new(2);
        lp.set_objective(vec![1.0, 1.0]);
        lp.add_constraint(vec![1.0, 1.0], ConstraintSense::GreaterEq, 1.0);
        let sol = lp.minimize().unwrap();
        assert_close(sol.objective, 1.0);
    }

    #[test]
    fn triangle_fractional_cover_is_three_halves() {
        // The triangle query R(A,B), S(B,C), T(A,C): covering all three
        // attributes needs total weight 3/2 fractionally (1/2 each).
        let mut lp = LinearProgram::new(3);
        lp.set_objective(vec![1.0, 1.0, 1.0]);
        lp.add_constraint(vec![1.0, 0.0, 1.0], ConstraintSense::GreaterEq, 1.0); // A
        lp.add_constraint(vec![1.0, 1.0, 0.0], ConstraintSense::GreaterEq, 1.0); // B
        lp.add_constraint(vec![0.0, 1.0, 1.0], ConstraintSense::GreaterEq, 1.0); // C
        let sol = lp.minimize().unwrap();
        assert_close(sol.objective, 1.5);
        for v in &sol.values {
            assert_close(*v, 0.5);
        }
    }

    #[test]
    fn equality_constraints_are_respected() {
        // min x + y s.t. x + y = 3, x - y = 1 → x = 2, y = 1.
        let mut lp = LinearProgram::new(2);
        lp.set_objective(vec![1.0, 1.0]);
        lp.add_constraint(vec![1.0, 1.0], ConstraintSense::Equal, 3.0);
        lp.add_constraint(vec![1.0, -1.0], ConstraintSense::Equal, 1.0);
        let sol = lp.minimize().unwrap();
        assert_close(sol.objective, 3.0);
        assert_close(sol.values[0], 2.0);
        assert_close(sol.values[1], 1.0);
    }

    #[test]
    fn infeasible_program_is_reported() {
        // x <= 1 and x >= 2 cannot both hold.
        let mut lp = LinearProgram::new(1);
        lp.set_objective(vec![1.0]);
        lp.add_constraint(vec![1.0], ConstraintSense::LessEq, 1.0);
        lp.add_constraint(vec![1.0], ConstraintSense::GreaterEq, 2.0);
        assert_eq!(lp.minimize().unwrap_err(), FdbError::InfeasibleProgram);
    }

    #[test]
    fn unbounded_program_is_reported() {
        // min -x with only x >= 1: unbounded below.
        let mut lp = LinearProgram::new(1);
        lp.set_objective(vec![-1.0]);
        lp.add_constraint(vec![1.0], ConstraintSense::GreaterEq, 1.0);
        assert_eq!(lp.minimize().unwrap_err(), FdbError::UnboundedProgram);
    }

    #[test]
    fn no_constraints_minimum_is_zero() {
        let mut lp = LinearProgram::new(3);
        lp.set_objective(vec![1.0, 2.0, 3.0]);
        let sol = lp.minimize().unwrap();
        assert_close(sol.objective, 0.0);
        // And an unbounded no-constraint program is detected.
        let mut lp = LinearProgram::new(1);
        lp.set_objective(vec![-1.0]);
        assert_eq!(lp.minimize().unwrap_err(), FdbError::UnboundedProgram);
    }

    #[test]
    fn negative_rhs_is_normalised() {
        // min x s.t. -x <= -2  (i.e. x >= 2).
        let mut lp = LinearProgram::new(1);
        lp.set_objective(vec![1.0]);
        lp.add_constraint(vec![-1.0], ConstraintSense::LessEq, -2.0);
        let sol = lp.minimize().unwrap();
        assert_close(sol.objective, 2.0);
    }

    #[test]
    fn degenerate_program_terminates() {
        // A classic degenerate instance; Bland's rule must avoid cycling.
        let mut lp = LinearProgram::new(4);
        lp.set_objective(vec![-0.75, 150.0, -0.02, 6.0]);
        lp.add_constraint(vec![0.25, -60.0, -0.04, 9.0], ConstraintSense::LessEq, 0.0);
        lp.add_constraint(vec![0.5, -90.0, -0.02, 3.0], ConstraintSense::LessEq, 0.0);
        lp.add_constraint(vec![0.0, 0.0, 1.0, 0.0], ConstraintSense::LessEq, 1.0);
        let sol = lp.minimize().unwrap();
        assert_close(sol.objective, -0.05);
    }

    #[test]
    fn redundant_equality_rows_are_handled() {
        // Duplicate equality rows leave a zero row after phase one.
        let mut lp = LinearProgram::new(2);
        lp.set_objective(vec![1.0, 2.0]);
        lp.add_constraint(vec![1.0, 1.0], ConstraintSense::Equal, 2.0);
        lp.add_constraint(vec![2.0, 2.0], ConstraintSense::Equal, 4.0);
        let sol = lp.minimize().unwrap();
        assert_close(sol.objective, 2.0);
        assert_close(sol.values[0], 2.0);
    }
}
