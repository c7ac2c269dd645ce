//! Data-level f-plan operators.
//!
//! Each operator of the paper's Section 3 transforms an f-representation
//! *and* its f-tree, keeping the two consistent:
//!
//! | operator | module | f-tree effect |
//! |---|---|---|
//! | Cartesian product `×` | [`mod@product`] | forests are concatenated |
//! | push-up `ψ_B`, normalisation `η` | [`restructure`] | a subtree moves one level up |
//! | swap `χ_{A,B}` | [`mod@swap`] | a child exchanges places with its parent |
//! | merge `µ_{A,B}` | [`mod@merge`] | two sibling nodes fuse |
//! | absorb `α_{A,B}` | [`mod@absorb`] | a node fuses into an ancestor |
//! | selection with constant `σ_{AθC}` | [`select`] | the node may become constant-bound |
//! | projection `π_Ā` | [`mod@project`] | projected leaves disappear |
//!
//! # Every operator is arena-native
//!
//! Since the arena refactor ([`crate::store`]) the value-level operators —
//! Cartesian product and pruning — run directly on the flat arenas (an
//! index-offset concatenation, respectively a filtered rebuild); selection
//! with a constant is the one-operator [`fuse`] program.  As of PR 2 the
//! *structural* operators (swap, merge, absorb, push-up, projection) are
//! arena-native too: each one clones the f-tree, applies the schema-level
//! transformation to the clone, and then emits the output arena in a single
//! pass through a [`crate::store::Rewriter`] — union headers in depth-first
//! preorder, unchanged subtrees copied whole (as relocated blocks when the
//! input is in the freeze layout), and the regrouped region assembled
//! directly in the *new* tree's child order.  The old
//! thaw-once/freeze-once design (thaw the arena into the owned
//! [`crate::node`] builder form, splice pointers, freeze back) paid two full
//! linear copies plus a heap allocation per union and entry around every
//! rewrite; the arena-native operators pay one flat copy and no per-node
//! allocation while keeping the same (quasi)linear operator cost bounds as
//! the paper.  The builder-form implementations survive verbatim in
//! [`oracle`] as the test and benchmark oracle — the rewriters reproduce the
//! freeze layout exactly, so equivalence tests compare stores bit for bit.
//!
//! On top of the per-operator passes, [`fuse`] compiles a *whole f-plan* —
//! structural operators, constant selections and projections alike — into a
//! single arena pass: the f-tree transforms are simulated up front, each
//! step rewrites a lightweight overlay of references into the input arena
//! (a selection is the liveness sweep with its comparison folded in, a
//! projection replays leaf removals and swap-downs), and one final emission
//! produces the freeze-layout output — a k-step plan pays one full copy
//! instead of k.  `fdb-plan` routes every multi-step plan through it, with
//! no segmentation barriers left.
//!
//! All operators preserve the invariants of [`crate::FRep`]: values inside
//! every union stay sorted and distinct, every entry carries one child union
//! per f-tree child, the path constraint holds, and (where the paper
//! promises it) normalisation is preserved.  Under `debug_assertions` every
//! structural rewrite re-validates the full arena ([`crate::FRep::validate`])
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
pub use fuse::{
    emit_fused_ctx, execute_fused, execute_fused_aggregate, execute_fused_aggregate_ctx,
    execute_fused_ctx, FusedOp,
};
pub use merge::merge;
pub use product::product;
pub use project::project;
pub use restructure::{normalise, push_up};
pub use select::select_const;
pub use swap::swap;

use crate::frep::FRep;
use fdb_ftree::NodeId;

/// Position of `node` in an f-tree child list.  The structural operators use
/// this to translate between the kid-slot orders of the input and output
/// trees; a miss means the representation disagrees with its tree, which
/// validation would have rejected.
pub(crate) fn child_pos(children: &[NodeId], node: NodeId) -> u32 {
    children
        .iter()
        .position(|&c| c == node)
        .expect("validated representation: node present in the child list") as u32
}

/// Debug-only full-arena invariant check, run after every arena-native
/// structural rewrite.  Release builds skip it: the rewriters maintain the
/// invariants by construction.
#[inline]
pub(crate) fn debug_validate(rep: &FRep, op: &str) {
    if cfg!(debug_assertions) {
        if let Err(e) = rep.validate() {
            panic!("{op}: arena-native rewrite broke an invariant: {e:?}");
        }
    }
}
