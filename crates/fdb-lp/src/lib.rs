//! A small, dependency-free linear-programming solver.
//!
//! The FDB paper computes the parameter `s(T)` of an f-tree as the maximum
//! *fractional edge cover number* over its root-to-leaf paths, and solves the
//! corresponding covering linear programs with GLPK.  GLPK is not available
//! here, so this crate provides the substrate from scratch: a dense,
//! two-phase primal simplex solver that is more than sufficient for the tiny
//! programs FDB generates (a handful of variables — one per relation on the
//! path — and a handful of constraints — one per attribute class on the
//! path).
//!
//! The crate exposes two layers:
//!
//! * [`LinearProgram`] / [`Solution`]: the covering program `min Σx s.t.
//!   Ax ≥ 1, x ≥ 0`, solved by the two-phase primal simplex in [`simplex`].
//! * [`cover::fractional_edge_cover`]: the hypergraph edge-cover number
//!   used for `s(T)`.

#![warn(missing_docs)]

pub mod cover;
pub mod simplex;

pub use cover::{fractional_edge_cover, CoverInstance};
pub use simplex::{LinearProgram, Solution};
