//! Umbrella crate re-exporting the public API of the FDB workspace.
//!
//! Downstream users depend on this single `fdb` crate and get the factorised
//! query engine ([`engine`]), the flat relational baseline ([`relation`]),
//! the data structures (f-trees, f-representations), the optimisers, and the
//! workload generators used by the paper's experiments.

#![warn(missing_docs)]

pub use fdb_common as common;
pub use fdb_core as engine;
pub use fdb_datagen as datagen;
pub use fdb_frep as frep;
pub use fdb_ftree as ftree;
pub use fdb_plan as plan;
pub use fdb_relation as relation;

pub use fdb_common::{AttrId, Catalog, ComparisonOp, FdbError, Query, RelId, Result, Value};
