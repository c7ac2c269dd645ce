//! Fractional edge cover numbers of paths, exact.
//!
//! A path is the incidence sets of its vertices (the attribute classes on
//! it), `width` bitmap words a set; the edges are the relations set in any
//! of them.  Its cover number is the optimum of the packing LP solved by
//! [`packing`], reduced to lowest terms and rounded once to `f64`.

use crate::simplex::packing;
use fdb_common::Result;

/// The fractional edge cover number of a path given as the incidence sets of
/// its vertices, `width` words a set, in any order: `num / den` in lowest
/// terms, so one optimum is one `f64` whatever the order of vertices, edges
/// and pivots that reached it.  A vertex no edge covers is
/// `FdbError::InfeasibleProgram`.
pub(crate) fn path_cover(path: &[u64], width: usize) -> Result<f64> {
    let (num, den) = packing(path, width)?.optimum();
    let (mut a, mut b) = (num, den);
    while b != 0 {
        (a, b) = (b, a % b);
    }
    Ok((num / a) as f64 / (den / a) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdb_common::FdbError;

    /// The cover of `num_vertices` vertices by `edges`, each listing the
    /// vertices it covers.
    fn cover(num_vertices: usize, edges: &[&[usize]]) -> Result<f64> {
        let path: Vec<u64> = (0..num_vertices)
            .map(|v| {
                let covering = (0..edges.len()).filter(|&e| edges[e].contains(&v));
                covering.fold(0, |w, e| w | 1 << e)
            })
            .collect();
        path_cover(&path, 1)
    }

    #[test]
    fn empty_instance_has_zero_cover() {
        assert_eq!(cover(0, &[]), Ok(0.0));
    }

    #[test]
    fn single_edge_covers_everything() {
        assert_eq!(cover(3, &[&[0, 1, 2]]), Ok(1.0));
    }

    #[test]
    fn chain_of_two_relations() {
        // Path A - B - C with R(A,B), S(B,C): A is only in R and C only in
        // S, so both need weight 1, fractionally as integrally.
        assert_eq!(cover(3, &[&[0, 1], &[1, 2]]), Ok(2.0));
    }

    #[test]
    fn triangle_shows_fractional_gap() {
        // Triangle hypergraph: fractional 1.5, integral 2.
        assert_eq!(cover(3, &[&[0, 1], &[1, 2], &[0, 2]]), Ok(1.5));
    }

    #[test]
    fn uncoverable_vertex_is_an_error() {
        let instances: [(usize, &[&[usize]]); 2] = [(2, &[&[0]]), (3, &[&[1], &[1, 2]])];
        for (n, edges) in instances {
            assert_eq!(cover(n, edges), Err(FdbError::InfeasibleProgram));
        }
    }

    #[test]
    fn fractional_never_exceeds_integral() {
        // Each instance has integral cover number 2, and so has its
        // fractional cover: it never exceeds the integral one.
        let instances: [(usize, &[&[usize]]); 2] = [
            (4, &[&[0, 1], &[1, 2], &[2, 3], &[3, 0]]),
            (5, &[&[0, 1, 2], &[2, 3], &[3, 4], &[4, 0]]),
        ];
        for (n, edges) in instances {
            let frac = cover(n, edges).unwrap();
            assert!(frac <= 2.0, "fractional {frac} > integral 2");
            assert_eq!(frac, 2.0);
        }
    }

    #[test]
    fn duplicated_edges_do_not_change_the_cover() {
        assert_eq!(cover(2, &[&[0, 1], &[0, 1], &[0, 1]]), Ok(1.0));
    }
}
