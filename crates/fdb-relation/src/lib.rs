//! Flat relational substrate and the RDB baseline engine.
//!
//! The FDB paper compares its factorised engine against a "homebred
//! in-memory" relational engine (RDB) that evaluates select-project-join
//! queries on ordinary, flat relations with hand-crafted multi-way
//! sort-merge join plans.  This crate provides that entire substrate from
//! scratch:
//!
//! * [`Relation`]: an in-memory relation with row-major storage, sorting,
//!   selection and projection primitives;
//! * [`Database`]: a catalog plus one [`Relation`] per catalog entry, each
//!   sorted once per column order on demand and shared across threads;
//! * [`engine`]: the RDB query engine — join planning (greedy, smallest
//!   intermediate first), the sort-merge join,
//!   constant selections pushed below joins, projections, and resource
//!   limits so that experiment sweeps can report timeouts the way the paper
//!   does.

#![warn(missing_docs)]

pub mod database;
pub mod engine;
pub mod relation;

pub use database::Database;
pub use engine::{EvalLimits, LimitChecker, RdbEngine};
pub use relation::{Relation, Tuple};
