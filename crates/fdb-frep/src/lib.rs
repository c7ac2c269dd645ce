//! Factorised representations (f-representations) and the f-plan operators.
//!
//! An f-representation is a relational algebra expression built from
//! singletons `⟨A:a⟩`, unions and products, whose nesting structure follows
//! an f-tree (Definitions 1 and 2 of the paper).  This crate implements:
//!
//! * the [`FRep`] data structure ([`frep`]), stored in the flat arenas of
//!   [`store`]: contiguous union headers, entry records and a child-slot
//!   table in fixed f-tree child order, with size accounting (number of
//!   singletons), structural validation and tuple counting as flat loops;
//! * the owned [`Union`]/[`Entry`] *builder* form ([`node`]) used to
//!   hand-construct representations (and backing the thaw-path test oracle
//!   in [`ops::oracle`]);
//! * construction of the factorised result of a select-project-join query
//!   over a given f-tree directly from a flat database ([`build`]): every
//!   relation is read sorted along its root-to-leaf path from
//!   [`fdb_relation::Database::sorted_columns`], which sorts it once per
//!   database and path order rather than once per request, then a top-down
//!   semi-join narrows one row range per relation and path level, finds
//!   each union's values by a leapfrog intersection of those ranges, and
//!   emits arena records as it recurses, retracting dead candidates by
//!   watermark rollback — without materialising the flat result or an
//!   intermediate builder forest, and without sorting or allocating per
//!   union;
//! * enumeration of the represented relation ([`enumerate`]): an iterative,
//!   allocation-free constant-delay cursor ([`TupleCursor`]) and
//!   materialisation into a flat [`fdb_relation::Relation`];
//! * the data-level f-plan operators ([`ops`]): Cartesian product, push-up
//!   and normalisation, swap, merge, absorb, selection with a constant, and
//!   projection — each defined once, as a pass over the overlay of
//!   [`ops::fuse`], and a whole plan as one program with one arena emission
//!   and no pointer-tree round trip.  Each operator transforms both
//!   the representation and its f-tree, keeping the two consistent, and
//!   runs in (quasi)linear time in the sizes of its input and output;
//! * one-pass aggregation ([`aggregate`]): `COUNT`/`SUM`/`MIN`/`MAX`/`AVG`
//!   and their `DISTINCT` forms (optionally grouped by any visible
//!   attributes) over the factorised data, without enumerating a single
//!   tuple.
//!
//! # The arena layout contract
//!
//! Every consumer in the crate reads the same flat layout, so it is worth
//! stating once (see [`store`] for the full details): a representation is
//! five arrays in **structure-of-arrays** form — union headers, entry
//! *values* (contiguous per union, strictly increasing), entry *kid-run
//! offsets* (parallel to the values, one per entry), kid slots (one
//! contiguous run per entry, in the f-tree's child order) and a root list.
//! Values and kid offsets are split into parallel arrays rather than
//! interleaved records so that the value-only scans — predicate masks,
//! probes, sortedness checks — read a dense `&[Value]`
//! slice the scan kernels in [`kernel`] stream through (the MonetDB/X100
//! argument: the hot loops touch half the bytes and auto-vectorise).  The
//! two entry arrays are sealed behind [`store`]'s accessor layer; nothing
//! outside that module can push to one without the other.
//! Union indices are **topological** (every kid index exceeds its parent
//! union's index), which is what turns whole-representation statistics into
//! flat loops: [`FRep::tuple_count`] is a single *reverse* loop over the
//! union array (children are finished before their parents are visited),
//! and enumeration/emission are forward walks.  Operators never mutate an
//! arena in place; they emit a fresh one in the exact freeze layout (the
//! layout [`FRep::from_parts`] produces), which keeps every rewrite
//! bit-for-bit comparable with the thaw-path oracle.
//!
//! # The single-pass execution contract
//!
//! The plan executor ([`ops::fuse`]) runs an entire f-plan — a slice of
//! [`ops::FPlanOp`], the one operator type of the workspace: push-ups,
//! normalisations, swaps, merges, absorbs, **and** constant selections and
//! projections; one operator or twenty — as one overlay program over the
//! input arena, emitting exactly one output arena in freeze layout,
//! bit-for-bit identical to running the operators one at a time.  No
//! operator forces an intermediate arena: a selection is one walk down the
//! selected node's path (an ancestor drops the entries whose path kid
//! emptied), and a projection replays its leaf
//! removals and data-dependent swap-downs on the overlay.
//! [`ops::emit_fused_ctx`] runs every program that way, a lone swap
//! included; `fdb-plan` hands it every non-empty plan's operator list as it
//! is.
//!
//! # The sharing contract
//!
//! A frozen representation is **immutable**: once [`FRep::from_parts`] (or
//! an operator emission) has produced the arena, nothing in this crate — or
//! anywhere else in the workspace — mutates it.  Operators take their input
//! by shared reference and emit a *fresh* arena; enumeration, aggregation
//! and statistics are read-only walks.  The arenas are plain owned arrays
//! (`Vec`s of `Copy` records, no interior mutability, no `Rc`), so the
//! arena `Store` and [`FRep`] are `Send + Sync` **by construction**, and
//! this crate pins
//! that with compile-time assertions: a future `Rc`/`Cell` regression fails
//! the build, not an integration test.
//!
//! What that licenses: a frozen `FRep` behind an `Arc` may be read by any
//! number of threads concurrently with **no locking whatsoever** — shared
//! scans and concurrent queries over one database (`fdb-core`'s serving
//! layer, which parallelises across requests) all read the same arena in
//! place.
//! Mutation never happens in place, so there is nothing to synchronise;
//! "updating" a shared database means publishing a new `Arc`.
//!
//! # Where aggregation hooks in
//!
//! There is one aggregate fold, over the overlay of [`ops::fuse`].
//! [`ops::execute_fused_aggregate_ctx`] applies the whole plan to the
//! overlay and folds the aggregate over the overlay itself, with the plan's
//! trailing selections folded into the accumulation as entry filters — **no
//! arena is emitted at any point**, so a (selection-then-)aggregate query
//! pays zero materialisation.  [`aggregate::evaluate_ctx`] is the same fold
//! over the untouched overlay of the empty program.  The fold costs what the
//! answer needs: a leaf union is folded in closed form from its value slice
//! (its length for `COUNT`, one slice sum for `SUM`/`AVG`, its ends for
//! `MIN`/`MAX`, the slice itself for `DISTINCT`), over the narrowest
//! accumulator the aggregate kind needs, and only an inner union visited
//! twice is memoised.  `fdb-plan` routes the empty aggregate plan to
//! [`aggregate::evaluate_ctx`] and every other one to the overlay entry
//! point.
//!
//! # The cancellation and budget contract
//!
//! Every data-dependent loop in this crate takes an
//! [`fdb_common::ExecCtx`] ([`build_frep_ctx`], [`ops::emit_fused_ctx`],
//! [`aggregate::evaluate_ctx`], [`enumerate::materialize_ctx`], …): the loop
//! **charges** the context roughly one unit per arena record it processes
//! or emits, and the context turns those charges into deadline, budget and
//! cancellation checks (budget exactly per charge, clock and flag once per
//! `fdb_common::limits::CHECK_INTERVAL` units).  Two guarantees follow:
//!
//! * **No partial state.** An interrupting `Err` propagates without
//!   installing anything: the semi-join builder retracts to its
//!   watermark, the plan executor builds a *fresh* arena that is only
//!   swapped in on success, and aggregation/enumeration
//!   never mutate their input.  A representation that was readable before
//!   an aborted operation is bit-for-bit unchanged after it.
//! * **Cheap when armed, free when not.** A caller with nothing to limit
//!   passes [`fdb_common::ExecCtx::unlimited`], a single-branch
//!   short-circuit; armed-but-never-tripping limits cost a few percent at
//!   worst (`BENCH_PR7.json` records a 0.98 geometric mean against a ≤ 1.03
//!   bound).
//!
//! **One calling convention.**  The context-taking form is the only form of
//! an operation; tests and examples pass `&ExecCtx::unlimited()`, and run a
//! single operator `op` as the one-operator program
//! `ops::emit_fused_ctx(&rep, &[op], &ExecCtx::unlimited())`.  The exceptions are the five operations
//! whose short name the standing benchmark calls (`benchmark/README.md`,
//! pinned by `tests/benchmark_contract.rs`) while the engine needs the
//! governed form; each short name is the governed one under
//! `ExecCtx::unlimited()` and nothing else:
//!
//! | pinned short name | governed form the engine calls |
//! |---|---|
//! | [`materialize`] | [`materialize_ctx`] |
//! | `fdb_core::save_database` | `fdb_core::snapshot::save_database_ctx` |
//! | `fdb_core::load_rep` | `fdb_core::snapshot::load_rep_ctx` |
//! | `fdb_core::FdbServer::replace` | `fdb_core::FdbServer::replace_ctx` |
//! | `fdb_plan::ExhaustiveOptimizer::optimize` | `fdb_plan::ExhaustiveOptimizer::optimize_ctx` |
//!
//! Checks are **cooperative**: a loop that never charges cannot be
//! interrupted, so any new loop whose trip count depends on data size
//! must charge at least once per record batch.  With the
//! `fault-injection` cargo feature the same contexts also drive the
//! deterministic `failpoint!` sites (`build.semi_join`, `fuse.execute`,
//! `aggregate.fold`, `enumerate.cursor`, `snapshot.write`, `snapshot.read`)
//! used by the chaos suite in the workspace root.
//!
//! # Durability
//!
//! The [`snapshot`] module serialises a frozen representation — its f-tree
//! and the five arena arrays, each written as it lies in memory — into
//! framed sections padded to 8 bytes and sealed by a word-wise 64-bit
//! checksum (format version 2), and loading re-verifies everything:
//! checksums and exact lengths first, then the full structural validator as
//! a mandatory release-mode check.  Corrupt or version-skewed input yields
//! structured errors, never a panic and never a silently-wrong arena.

#![warn(missing_docs)]

pub mod aggregate;
pub mod build;
pub mod enumerate;
pub mod frep;
pub mod kernel;
pub mod node;
pub mod ops;
pub mod snapshot;
pub mod store;

pub use aggregate::{AggregateKind, AggregateResult, AggregateValue, AvgValue};
pub use build::build_frep_ctx;
pub use enumerate::{
    materialize, materialize_ctx, materialize_ordered_ctx, order_chain, CursorConfig,
    OrderStrategy, TupleCursor,
};
pub use frep::FRep;
pub use node::{Entry, Union};
pub use snapshot::{decode_frep_ctx, encode_frep_ctx, SNAPSHOT_VERSION};
pub use store::{EntryRef, UnionRef};

/// Compile-time pin of the sharing contract (see the crate docs): the
/// frozen representation types must stay `Send + Sync` so arenas can be
/// `Arc`-shared across serving threads.  Adding an `Rc`, `Cell` or raw
/// pointer to any of them turns this into a build error.
#[allow(dead_code)]
fn _assert_send_sync<T: Send + Sync>() {}
const _: () = {
    #[allow(dead_code)]
    fn frozen_types_are_shareable() {
        _assert_send_sync::<store::Store>();
        _assert_send_sync::<FRep>();
        _assert_send_sync::<CursorConfig>();
        _assert_send_sync::<TupleCursor<'static>>();
        _assert_send_sync::<AggregateResult>();
    }
};
