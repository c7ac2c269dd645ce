//! The FDB query engine: select-project-join evaluation on factorised
//! relational databases.
//!
//! This crate ties the substrates together into the engine the paper
//! describes:
//!
//! * [`FdbEngine::run`] is the one evaluation pipeline (see [`engine`]):
//!   a [`Source`] — a query over a flat relational database, where the
//!   optimiser picks an f-tree of minimal cost `s(T)` and the factorised
//!   result is built directly over it (Experiments 1 and 3), or a query
//!   over a factorised input, where the exhaustive Dijkstra search
//!   produces an f-plan of restructuring and selection operators
//!   (Experiments 2 and 4) — an optional aggregate or `ORDER BY`
//!   [`Head`], and the request's limits;
//! * [`FdbEngine::evaluate_flat`] and [`FdbEngine::evaluate_factorised`]
//!   are its headless, ungoverned forms, and
//!   [`FdbEngine::evaluate_flat_via_operators`] treats each flat relation as
//!   a trivially factorised input and runs the query over their product —
//!   useful for cross-checking the two sources against each other;
//! * the serving layer ([`serving`]): an `Arc`-shared [`SharedDatabase`] of
//!   frozen representations — with versioned slots that support atomic hot
//!   swap ([`FdbServer::replace`]) — the multi-threaded [`FdbServer`]
//!   executing request batches on a work-stealing pool, and the shape-keyed
//!   [`PlanCache`] that lets repeated traffic skip optimisation and drops
//!   exactly the swapped tree's plans on replacement;
//! * durability ([`snapshot`]): self-verifying snapshots of single
//!   representations and whole databases — atomic writes, checksummed
//!   sections, and mandatory structural re-validation on load.

#![warn(missing_docs)]

pub mod engine;
pub mod serving;
pub mod snapshot;

pub use engine::{
    AggregateOutput, EvalOutput, EvalStats, FactorisedQuery, FdbEngine, Head, OrderedOutput,
    ServeOutcome, Source,
};
pub use serving::{
    default_threads, FdbServer, PlanCache, RepId, ServeRequest, ServerStats, SharedDatabase,
    ThreadPool,
};
pub use snapshot::{load_rep, save_database};
