//! Factorisation trees (f-trees).
//!
//! An f-tree over a set of attributes is an unordered rooted forest whose
//! nodes are labelled by disjoint, non-empty attribute classes covering the
//! whole set (Definition 2 of the paper).  An f-tree describes the nesting
//! structure of a factorised representation: tuples are grouped by the values
//! of the root class, the common values are factored out, and each child
//! subtree factorises one independent part of the remainder.
//!
//! This crate implements:
//!
//! * the [`FTree`] data structure ([`ftree`]) with its *dependency edges*
//!   (which relation constrains which attributes), the *path constraint*
//!   (all attributes of a relation lie on one root-to-leaf path), and
//!   queries such as ancestorship and node dependency;
//! * the schema-level effect of every f-plan operator ([`transform`]):
//!   push-up, normalisation, swap, merge, absorb, constant-selection
//!   marking and projection, the composite ones as a sequence of primitive
//!   edits ([`TreeEdit`]) that data-level execution mirrors one by one;
//! * the link frame ([`LinkFrame`]) through which the plan search keys and
//!   costs the swap neighbours of a tree without copying it;
//! * the size-bound cost `s(T)` ([`cost`]): the maximum fractional edge
//!   cover number over root-to-leaf paths, in closed form for three path
//!   shapes and otherwise solved exactly (an integer simplex, the optimum
//!   in lowest terms, so equal costs are equal `f64` bits), and the search
//!   for an f-tree of a query that minimises it ([`optimal_ftree`]);
//! * constructors of valid f-trees for a query ([`builder`]): its dependency
//!   edges, the single-path fallback and the forest a flat database already
//!   is.
//!
//! # Incidence sets
//!
//! Node dependency, the path constraint and `s(T)` all ask the same
//! question — *which dependency edges have an attribute in this node's
//! class?* — so every node carries the answer as a small bitset of edge
//! indices (one inline word; edge lists beyond 64 spill to a boxed slice,
//! there is no cap).  The contract:
//!
//! * **Definition.**  Edge `i` is in node `n`'s set iff
//!   `edges()[i].attrs` intersects `class(n)`.
//!   [`FTree::check_structure`] verifies exactly that by scanning.
//! * **Who maintains it.**  The `FTree` methods that change a class or the
//!   edge list, and nobody else: `add_node` and the class replacement behind
//!   merge/absorb compute the new node's set; `add_edge` (and so
//!   `import_forest`) adds the new index to the nodes it touches; the edge
//!   merge behind `remove_projected_leaf`, which renumbers edges, and
//!   `from_snapshot` rebuild every set.  Swap, push-up and normalisation
//!   move nodes and change no class, so they leave the sets alone.  Direct
//!   mutable access to the edge list is crate-private for this reason.
//! * **Who reads it.**  `depends_on_subtree`,
//!   [`s_cost_details`], [`SCostMemo`], whose memo key is
//!   a path's sorted, de-duplicated list of sets, and the f-tree search
//!   behind [`optimal_ftree`] and [`SCostMemo::min_s_cost`], which treats
//!   classes with equal sets as interchangeable, reads which classes share
//!   a relation off the sets, and takes every path cover from the memo.
//! * **Derived state.**  The sets are a function of classes and edges: they
//!   are not part of [`FTree::snapshot_nodes`] (a decoded tree recomputes
//!   them), not part of [`FTree::canonical_key`], and `FTree` has no
//!   `PartialEq` for them to leak into.
//!
//! The edge list sits behind an `Arc` and is copied only by the two edits
//! above, and class labels are shared the same way, so cloning a tree — what
//! the plan search does for every state it pops — copies the parent/child
//! links and little else.  A swap neighbour the search only probes costs no
//! copy at all: a [`LinkFrame`], read once from the tree it expands, keys
//! every swap off a patched parent array, with the one key writer behind
//! [`FTree::canonical_key`], and costs it through the one path walk behind
//! [`SCostMemo::s_cost`].  A merge or absorb neighbour is built and keyed
//! from its tree; the fused node's incidence set is the union of the two,
//! which the definition above makes exact.

#![warn(missing_docs)]

pub mod builder;
pub mod cost;
mod cover;
mod edgeset;
mod frame;
pub mod ftree;
#[cfg(test)]
mod invariant_tests;
mod simplex;
pub mod transform;

pub use builder::{dep_edges_for_query, flat_database_ftree, ftree_from_query_classes};
pub use cost::{
    optimal_ftree, optimal_ftree_memo, s_cost, s_cost_details, FTreeSearchResult, PathCost,
    SCostMemo, WordHasher,
};
pub use frame::LinkFrame;
#[doc(hidden)]
pub use ftree::NodeSnapshot;
pub use ftree::{DepEdge, FTree, NodeId};
pub use transform::{SwapOutcome, TreeEdit};
