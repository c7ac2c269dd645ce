//! Data-level f-plan operators.
//!
//! Each operator of the paper's Section 3 transforms an f-representation
//! *and* its f-tree, keeping the two consistent:
//!
//! | operator | entry point | defined by | f-tree effect |
//! |---|---|---|---|
//! | Cartesian product `×` | [`product()`] | [`mod@product`] | forests are concatenated |
//! | push-up `ψ_B`, normalisation `η` | [`push_up`], [`normalise`] | `push_up_step`; `FTree::normalise` + `edit_step` | a subtree moves one level up |
//! | swap `χ_{A,B}` | [`swap()`] | `swap_step` | a child exchanges places with its parent |
//! | merge `µ_{A,B}` | [`merge()`] | `merge_step` | two sibling nodes fuse |
//! | absorb `α_{A,B}` | [`absorb()`] | `absorb_step` | a node fuses into an ancestor |
//! | selection with constant `σ_{AθC}` | [`select_const`] | `Fusion::filter` | the node may become constant-bound |
//! | projection `π_Ā` | [`project()`] | `FTree::project` + `edit_step` (`remove_leaf_step`, `swap_step`) | projected nodes swap down to leaves and disappear |
//!
//! # One implementation per operator
//!
//! The Cartesian product runs directly on the flat arenas (an index-offset
//! concatenation).  Every other operator is defined **once**, as a step of
//! [`fuse`] over an overlay of references into the input arena — the formula
//! and cost bound of each are on its step there; the restructuring ones are
//! edits of one root-to-parent rewrite — and a *whole f-plan*,
//! structural operators, constant selections and projections alike, is one
//! program: each step advances the f-tree through the operator's one tree
//! definition in `fdb_ftree` and rewrites the overlay to match (a selection
//! is the liveness sweep with its comparison folded in, normalisation and
//! projection run the push-ups, swap-downs and leaf removals their tree
//! definition decides), and one final emission through a
//! [`crate::store::Rewriter`] produces the freeze-layout output — union
//! headers in depth-first preorder, unchanged subtrees copied whole (as
//! relocated blocks when the input is in the freeze layout), the regrouped
//! region assembled directly in the *new* tree's child order.  A
//! k-step plan pays one full copy instead of k, and a single operator pays
//! for what it touches plus a block copy of what it does not.
//!
//! The operator vocabulary is one type, [`FPlanOp`], defined in [`fuse`]
//! next to the steps that execute it (and re-exported by `fdb-plan`, whose
//! `FPlan` is a `Vec` of them): a program is a `&[FPlanOp]`.  `fdb-plan`
//! hands every non-empty plan's operator list to [`emit_fused_ctx`] as it
//! is; the public single-operator functions of this module are one-operator
//! programs run under `ExecCtx::unlimited()`.  [`emit_fused_ctx`] runs
//! every program the same way, on the overlay: a lone swap (an ORDER BY
//! chain swap) as much as a twenty-step plan.
//!
//! The builder-form implementations the engine started from (thaw the arena
//! into the owned [`crate::node`] form, splice pointers, freeze back)
//! survive in [`oracle`] as the independent test reference for all seven
//! overlay operators: every path above reproduces the freeze layout exactly,
//! so the equivalence tests compare stores bit for bit.
//!
//! All operators preserve the invariants of [`crate::FRep`]: values inside
//! every union stay sorted and distinct, every entry carries one child union
//! per f-tree child, the path constraint holds, and (where the paper
//! promises it) normalisation is preserved.  Under `debug_assertions` every
//! emitted result re-validates the full arena ([`crate::FRep::validate`])
//! before it is installed.

pub mod absorb;
pub mod fuse;
pub mod merge;
#[doc(hidden)]
pub mod oracle;
pub mod product;
pub mod project;
pub mod restructure;
pub mod select;
pub mod swap;

pub use absorb::absorb;
pub use fuse::{emit_fused_ctx, execute_fused_aggregate_ctx, execute_fused_ctx, FPlanOp};
pub use merge::merge;
pub use product::product;
pub use project::project;
pub use restructure::{normalise, push_up};
pub use select::select_const;
pub use swap::swap;

use crate::frep::FRep;
use fdb_ftree::NodeId;

/// Position of `node` in an f-tree child list.  The passes use this to
/// translate between the kid-slot orders of the input and output trees; a
/// miss means the representation disagrees with its tree, which validation
/// would have rejected.
pub(crate) fn child_pos(children: &[NodeId], node: NodeId) -> u32 {
    children
        .iter()
        .position(|&c| c == node)
        .expect("validated representation: node present in the child list") as u32
}

/// Debug-only full-arena invariant check, run on every written result: the
/// arena is valid and the statistics its writer recorded equal the walks.
/// Release builds skip it: the writers maintain both by construction.
#[inline]
pub(crate) fn debug_validate(rep: &FRep, op: &str) {
    if cfg!(debug_assertions) {
        if let Err(e) = rep.validate() {
            panic!("{op}: the emitted arena breaks an invariant: {e:?}");
        }
        if let Some(recorded) = rep.recorded_counts() {
            let walked = (rep.size(), rep.tuple_count());
            assert_eq!(
                recorded, walked,
                "{op}: recorded counts differ from the walks"
            );
        }
    }
}
