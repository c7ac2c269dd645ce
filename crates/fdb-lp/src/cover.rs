//! Edge cover numbers of hypergraphs.
//!
//! For a root-to-leaf path `p` of an f-tree, the paper forms the hypergraph
//! whose vertices are the attribute classes on `p` and whose edges are the
//! relations containing attributes of those classes, and computes the
//! *fractional edge cover number*: the optimal value of
//!
//! ```text
//! minimise   Σ_i x_i
//! subject to Σ_{i : edge i covers vertex v} x_i ≥ 1   for every vertex v
//!            x_i ≥ 0
//! ```
//!
//! The maximum of this number over all root-to-leaf paths is `s(T)`, the
//! exponent of the tight size bound `O(|D|^{s(T)})` on f-representations
//! over `T`.

use crate::simplex::LinearProgram;
use fdb_common::Result;

/// A hypergraph edge-cover instance: `num_vertices` vertices and a list of
/// edges, each edge being the set of vertex indices it covers.
#[derive(Clone, Debug, Default)]
pub struct CoverInstance {
    /// Number of vertices that must be covered (indices `0..num_vertices`).
    pub num_vertices: usize,
    /// Edges; each edge lists the vertices it covers.
    pub edges: Vec<Vec<usize>>,
}

impl CoverInstance {
    /// Creates an instance with the given number of vertices and no edges.
    pub fn new(num_vertices: usize) -> Self {
        CoverInstance {
            num_vertices,
            edges: Vec::new(),
        }
    }

    /// Adds an edge covering the given vertices and returns its index.
    pub fn add_edge(&mut self, vertices: Vec<usize>) -> usize {
        self.edges.push(vertices);
        self.edges.len() - 1
    }
}

/// Computes the fractional edge cover number of the instance by solving the
/// covering LP with the simplex solver.
///
/// Returns an error if some vertex cannot be covered by any edge (the LP
/// would be infeasible).  An instance with zero vertices has cover number 0.
pub fn fractional_edge_cover(instance: &CoverInstance) -> Result<f64> {
    if instance.num_vertices == 0 {
        return Ok(0.0);
    }
    let mut lp = LinearProgram::new(instance.edges.len());
    for v in 0..instance.num_vertices {
        // Coefficient 1 for each edge that covers `v`, 0 for the others.
        let covers = instance.edges.iter().map(|edge| edge.contains(&v));
        lp.add_constraint(covers.map(|c| f64::from(u8::from(c))).collect());
    }
    Ok(lp.minimize()?.objective)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-6
    }

    #[test]
    fn empty_instance_has_zero_cover() {
        let inst = CoverInstance::new(0);
        assert!(close(fractional_edge_cover(&inst).unwrap(), 0.0));
    }

    #[test]
    fn single_edge_covers_everything() {
        let mut inst = CoverInstance::new(3);
        inst.add_edge(vec![0, 1, 2]);
        assert!(close(fractional_edge_cover(&inst).unwrap(), 1.0));
    }

    #[test]
    fn chain_of_two_relations() {
        // Path A - B - C with R(A,B), S(B,C): both needed integrally and
        // fractionally (cover number 2... fractional optimum is also 2
        // because A is only in R and C only in S? no: A only in R forces
        // x_R >= 1, C only in S forces x_S >= 1, so fractional = 2).
        let mut inst = CoverInstance::new(3);
        inst.add_edge(vec![0, 1]);
        inst.add_edge(vec![1, 2]);
        assert!(close(fractional_edge_cover(&inst).unwrap(), 2.0));
    }

    #[test]
    fn triangle_shows_fractional_gap() {
        // Triangle hypergraph: fractional 1.5, integral 2.
        let mut inst = CoverInstance::new(3);
        inst.add_edge(vec![0, 1]);
        inst.add_edge(vec![1, 2]);
        inst.add_edge(vec![0, 2]);
        assert!(close(fractional_edge_cover(&inst).unwrap(), 1.5));
    }

    #[test]
    fn uncoverable_vertex_is_an_error() {
        let mut inst = CoverInstance::new(2);
        inst.add_edge(vec![0]);
        assert!(fractional_edge_cover(&inst).is_err());
    }

    #[test]
    fn fractional_never_exceeds_integral() {
        // A few ad-hoc instances, each with integral cover number 2.
        let instances = vec![
            {
                let mut i = CoverInstance::new(4);
                i.add_edge(vec![0, 1]);
                i.add_edge(vec![1, 2]);
                i.add_edge(vec![2, 3]);
                i.add_edge(vec![3, 0]);
                i
            },
            {
                let mut i = CoverInstance::new(5);
                i.add_edge(vec![0, 1, 2]);
                i.add_edge(vec![2, 3]);
                i.add_edge(vec![3, 4]);
                i.add_edge(vec![4, 0]);
                i
            },
        ];
        for inst in instances {
            let frac = fractional_edge_cover(&inst).unwrap();
            assert!(frac <= 2.0 + 1e-6, "fractional {frac} > integral 2");
        }
    }

    #[test]
    fn duplicated_edges_do_not_change_the_cover() {
        let mut inst = CoverInstance::new(2);
        inst.add_edge(vec![0, 1]);
        inst.add_edge(vec![0, 1]);
        inst.add_edge(vec![0, 1]);
        assert!(close(fractional_edge_cover(&inst).unwrap(), 1.0));
    }
}
