//! F-plan execution: every operator of the paper's Section 3 as a pass over
//! one overlay, and a whole plan as one arena emission.
//!
//! This module **is** the definition of the structural operators.  Each one
//! exists once, as an overlay pass — [`PushUpPass`] (push-up `ψ`, and
//! normalisation `η` as a replayed sequence of them), [`SwapPass`] (`χ`),
//! [`MergePass`] (`µ`), [`AbsorbPass`] (`α`), [`RemoveLeafPass`] (the leaf
//! removals of projection `π`), and [`Fusion::filter`] (selection with a
//! constant `σ`); the paper formula and the cost bound of each operator are
//! on its pass.  The public single-operator functions of [`crate::ops`] are
//! one-operator programs, and the thaw-path [`crate::ops::oracle`] is the
//! independent reference every pass is pinned against bit for bit.
//!
//! # Why an overlay
//!
//! A k-step f-plan executed operator at a time materialises k−1 intermediate
//! arenas that exist only to be consumed by the next step.  On
//! optimiser-produced plans — which routinely chain swap → merge → normalise
//! — most of the wall-clock would go into copying untouched regions of the
//! arena over and over, not into the rewrites themselves.  And a single
//! operator gains too: what it does not touch is never walked, only
//! referenced and block-copied at the end.
//!
//! # The whole-plan model
//!
//! Every operator is an overlay transform, the value-dependent ones
//! included:
//!
//! * a **constant selection** is a per-union entry filter composed with the
//!   cached liveness machinery ([`Fusion::filter`]): one fresh bottom-up
//!   sweep with the comparison folded into the per-entry predicate decides
//!   liveness, emptied subtrees retract exactly as the merge/absorb prune
//!   retracts them, and untouched (clean) subtrees stay `Src` references;
//! * a **projection** replays the projection operator's loop on the overlay
//!   ([`project_steps`]): fully-projected leaves drop via [`RemoveLeafPass`]
//!   (the parent unions lose one kid slot — pure header remaps), and
//!   fully-projected inner nodes swap downwards through the same
//!   [`SwapPass`] that serves explicit swap steps, until they become
//!   removable leaves.
//!
//! An entire f-plan — one operator or twenty — therefore compiles into
//! **one** [`FPlanOp`] program and executes as one pass:
//!
//! 1. The f-tree transforms are simulated up front, step by step, on clones
//!    of the tree.  This also performs all operator validation before any
//!    data is touched, so a failing program leaves its input unmodified.
//! 2. Each step is applied to an **overlay**: a forest of virtual unions
//!    where a [`VId`] either points at an untouched union of the *input*
//!    arena (a `Src` reference — O(1) to create, nothing is copied) or at a
//!    [`Mix`] node materialising just the regrouped/spliced/merged region.
//! 3. The merge/absorb prune is a *liveness sweep over the overlay*
//!    ([`Fusion::prune`]): one flat bottom-up pass over the input arena
//!    (computed once per program, cached) decides per-entry liveness of
//!    untouched regions, and a cheap walk over the Mix nodes propagates
//!    emptiness — no intermediate re-emission.  A selection runs the same
//!    sweep ([`Fusion::compute_liveness`], the only one) with its comparison
//!    evaluated per union block on the selected node.  A leaf union has no
//!    kid to fold, so the sweep never loops over its entries: it is clean
//!    and as empty as it was, or — on the selected node — its keep mask
//!    alone decides.
//! 4. Normalisation (and absorb's trailing normalisation) is replayed as
//!    overlay push-ups: the push-up sequence is computable from the tree
//!    alone, so the whole sequence collapses into pure header remaps on the
//!    overlay — one emission applies all of them at once.
//! 5. A single final [`Rewriter`] emission walks the overlay: `Mix` nodes
//!    emit their own records, `Src` references emit through
//!    [`Rewriter::copy_union`] — for an input in the freeze layout (every
//!    operator result and loaded snapshot; see [`crate::store`]) a relocating
//!    block copy of the whole subtree, not a walk over its records, so
//!    emission costs what the program changed plus a `memcpy` of what it did
//!    not.  The output is the exact [`crate::store::Store::freeze`] layout,
//!    so a program is **bit-for-bit identical** to applying the oracle
//!    operator by operator — the randomized equivalence suite asserts store
//!    identity.
//!
//! Total data movement for a k-step program: the touched regions plus
//! **one** full copy, instead of k.  Aggregate consumers skip even that one
//! copy: [`execute_fused_aggregate_ctx`] folds the aggregate (and the program's
//! trailing selections, as entry filters) directly over the overlay.
//!
//! # The one selection
//!
//! [`emit_fused_ctx`] is the only place that decides *how* a program runs,
//! and it decides from the program alone: `[FPlanOp::Swap(b)]` — one swap
//! and nothing else — goes to the direct rewriter of [`mod@crate::ops::swap`]
//! (whose module docs hold the measurement behind it), everything else, and
//! every aggregate sink, runs the overlay.  Both arms read the borrowed
//! input in place, sit below the `fuse.execute` failpoint, charge the
//! context, and emit the same bits.

use crate::aggregate::{
    Acc, Accumulator, AggFilter, AggTarget, AggregateKind, AggregateResult, CountAcc, DistinctAcc,
    GroupKey, SumAcc,
};
use crate::frep::FRep;
use crate::kernel;
use crate::ops::{child_pos, debug_validate, swap};
use crate::store::{kid_count_table, Rewriter, Store};
use fdb_common::limits::CHECK_INTERVAL;
use fdb_common::{failpoint, AttrId, ComparisonOp, ExecCtx, FdbError, Result, Value};
use fdb_ftree::{FTree, NodeId, SwapOutcome};
use std::collections::{BTreeSet, HashMap};
use std::fmt;

/// One f-plan operator — the paper's vocabulary (Section 3), defined once.
/// A plan is a sequence of these (`fdb_plan::FPlan`); the same value is
/// *simulated* on an f-tree alone ([`FPlanOp::apply_to_tree`], how the
/// optimisers cost a plan without touching data) and *executed* as a step of
/// an overlay program: constant selections become per-union entry filters
/// composed with the liveness sweep, and projections replay as leaf removals
/// plus the data-dependent swap-downs (see the module docs).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FPlanOp {
    /// Push-up `ψ_B`: lift `node` above its parent.
    PushUp(NodeId),
    /// Normalisation `η`: push up nodes until the tree is normalised.
    Normalise,
    /// Swap `χ`: exchange `node` with its parent.
    Swap(NodeId),
    /// Merge `µ`: fuse the two sibling nodes (enforces equality of their
    /// classes); the first node survives.
    Merge(NodeId, NodeId),
    /// Absorb `α`: fuse the descendant (second) node into the ancestor
    /// (first) node, then normalise.
    Absorb(NodeId, NodeId),
    /// Selection with a constant `σ_{A θ c}`: keeps the entries of the
    /// attribute's unions whose value satisfies the comparison, pruning
    /// entries whose product became empty — on the overlay, a per-union
    /// entry filter folded into the liveness sweep.
    SelectConst {
        /// Attribute compared against the constant.
        attr: AttrId,
        /// Comparison operator.
        op: ComparisonOp,
        /// The constant.
        value: Value,
    },
    /// Projection `π` onto the given attributes: overlay leaf removals plus
    /// swap-downs of fully-projected inner nodes through [`SwapPass`].
    Project(BTreeSet<AttrId>),
}

impl fmt::Display for FPlanOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FPlanOp::PushUp(n) => write!(f, "ψ({n})"),
            FPlanOp::Normalise => write!(f, "η"),
            FPlanOp::Swap(n) => write!(f, "χ({n})"),
            FPlanOp::Merge(a, b) => write!(f, "µ({a},{b})"),
            FPlanOp::Absorb(a, b) => write!(f, "α({a},{b})"),
            FPlanOp::SelectConst { attr, op, value } => write!(f, "σ({attr} {op:?} {value})"),
            FPlanOp::Project(attrs) => write!(f, "π({} attrs)", attrs.len()),
        }
    }
}

impl FPlanOp {
    /// Applies the operator to an f-tree only (schema-level simulation).
    pub fn apply_to_tree(&self, tree: &mut FTree) -> Result<()> {
        match self {
            FPlanOp::PushUp(n) => tree.push_up(*n),
            FPlanOp::Normalise => {
                tree.normalise();
                Ok(())
            }
            FPlanOp::Swap(n) => tree.swap_with_parent(*n).map(|_| ()),
            FPlanOp::Merge(a, b) => tree.merge_siblings(*a, *b).map(|_| ()),
            FPlanOp::Absorb(a, b) => {
                tree.absorb_into_ancestor(*a, *b)?;
                tree.normalise();
                Ok(())
            }
            FPlanOp::SelectConst { attr, op, value } => {
                let node = select_node(tree, *attr)?;
                if *op == ComparisonOp::Eq {
                    tree.bind_constant(node, *value)?;
                }
                Ok(())
            }
            FPlanOp::Project(keep) => {
                let all = tree.all_attrs();
                let marked: BTreeSet<AttrId> = all.difference(keep).copied().collect();
                tree.mark_attrs_projected(&marked);
                // Schema-level projection: repeatedly drop exhausted leaves;
                // fully-projected inner nodes are kept (they would be swapped
                // to leaves during execution, which does not change s(T) for
                // the worse).
                loop {
                    let removable = tree.removable_projected_leaves();
                    if removable.is_empty() {
                        break;
                    }
                    for leaf in removable {
                        tree.remove_projected_leaf(leaf)?;
                    }
                }
                Ok(())
            }
        }
    }
}

/// Executes a program of f-plan operators — structural operators, constant
/// selections and projections alike — as one arena pass, in place: the
/// `&mut` form of [`emit_fused_ctx`].  Bit-for-bit on the output arena what
/// applying the thaw-path [`crate::ops::oracle`] operator by operator
/// produces; the output replaces `rep` only after the whole emission
/// succeeded, and the empty program leaves it as it is.
pub fn execute_fused_ctx(rep: &mut FRep, ops: &[FPlanOp], ctx: &ExecCtx) -> Result<()> {
    if !ops.is_empty() {
        *rep = emit_fused_ctx(rep, ops, ctx)?;
    }
    Ok(())
}

/// The plan executor proper, and the one place that selects how a program
/// runs: over the **borrowed** input, returning the emitted result.  Nothing
/// is cloned and an abort leaves nothing behind; every program charges the
/// context for the records it reads and writes, so a deadline, budget or
/// cancellation aborts it cooperatively.
pub fn emit_fused_ctx(rep: &FRep, ops: &[FPlanOp], ctx: &ExecCtx) -> Result<FRep> {
    failpoint!(ctx, "fuse.execute");
    match ops {
        // A lone swap deep in a tree is the one program the overlay writes
        // twice (into `Mix` nodes, then into the arena); the direct rewriter
        // writes it once — see `ops/swap.rs` for the numbers.
        [FPlanOp::Swap(b)] => Ok(swap::emit_swap(rep, *b, ctx)?.0),
        _ => emit_overlay(rep, ops, ctx),
    }
}

/// Runs the program on the overlay and emits the result (the body of
/// [`emit_fused_ctx`] for everything but a lone swap): the liveness sweeps,
/// the overlay prunes and the final emission all charge per record.
fn emit_overlay(rep: &FRep, ops: &[FPlanOp], ctx: &ExecCtx) -> Result<FRep> {
    let mut fusion = Fusion::new(rep.store(), rep.tree(), ctx);
    let mut cur = rep.tree().clone();
    for op in ops {
        ctx.check_now()?;
        apply_op(&mut fusion, &mut cur, op)?;
    }
    let out = FRep::from_store(cur, fusion.into_store(rep.tree())?);
    debug_validate(&out, "overlay program");
    Ok(out)
}

/// Executes a program on the overlay and evaluates an aggregate directly
/// over the overlay — **no arena is ever emitted**, neither an intermediate
/// one nor the final one.  The input is borrowed and never modified (an
/// aggregate consumer has no use for the transformed arena), so an aggregate
/// query pays zero materialisation and an abort leaves nothing to clean up;
/// the overlay transforms and the fold charge the context per record.
///
/// The *trailing* selections of the program — the maximal suffix of
/// [`FPlanOp::SelectConst`] steps — are not applied as overlay passes at
/// all: their predicates fold into the accumulation as a per-node entry
/// filter ([`AggFilter`]), so a selection-then-aggregate plan is one
/// filtered fold over the (possibly untouched) overlay.  Filtering instead
/// of pruning is exact: an entry that fails its predicate, like an entry
/// whose product is empty, contributes the additive identity to its union's
/// accumulator.
///
/// Returns exactly what [`crate::aggregate::evaluate_ctx`] would return on
/// the arena [`emit_fused_ctx`] would have produced: the aggregate is
/// resolved against the *final* simulated f-tree, every overlay union
/// reachable at the end matches that tree's node set and child order (the
/// passes rebuild every region whose shape changes), and `COUNT`/`SUM` use
/// the same wrapping 128-bit arithmetic — so the two paths agree bit for bit.
pub fn execute_fused_aggregate_ctx(
    rep: &FRep,
    ops: &[FPlanOp],
    kind: AggregateKind,
    group_by: &[AttrId],
    ctx: &ExecCtx,
) -> Result<AggregateResult> {
    failpoint!(ctx, "fuse.execute");
    fold_aggregate(rep, ops, kind, group_by, ctx)
}

/// [`execute_fused_aggregate_ctx`] without its failpoint: the one aggregate
/// fold, which [`crate::aggregate::evaluate_ctx`] runs on the empty program.
pub(crate) fn fold_aggregate(
    rep: &FRep,
    ops: &[FPlanOp],
    kind: AggregateKind,
    group_by: &[AttrId],
    ctx: &ExecCtx,
) -> Result<AggregateResult> {
    let mut fusion = Fusion::new(rep.store(), rep.tree(), ctx);
    let mut cur = rep.tree().clone();
    // Split off the maximal suffix of constant selections: everything before
    // it transforms the overlay, the suffix becomes the fold's filter.
    let split = ops
        .iter()
        .rposition(|op| !matches!(op, FPlanOp::SelectConst { .. }))
        .map_or(0, |i| i + 1);
    for op in &ops[..split] {
        apply_op(&mut fusion, &mut cur, op)?;
    }
    let mut filter = AggFilter::default();
    for op in &ops[split..] {
        let FPlanOp::SelectConst {
            attr,
            op: cmp,
            value,
        } = op
        else {
            unreachable!("the suffix holds only constant selections");
        };
        let node = select_node(&cur, *attr)?;
        filter.push(node, *cmp, *value);
        if *cmp == ComparisonOp::Eq {
            cur.bind_constant(node, *value)?;
        }
    }
    fusion.aggregate(&cur, kind, group_by, &filter)
}

/// Resolves a selection attribute against the current simulated tree.
fn select_node(cur: &FTree, attr: AttrId) -> Result<NodeId> {
    cur.node_of_attr(attr)
        .ok_or_else(|| FdbError::AttributeNotInQuery {
            attr: format!("{attr}"),
        })
}

/// Applies one fused step: advances the simulated tree and transforms the
/// overlay accordingly.
fn apply_op(fusion: &mut Fusion<'_>, cur: &mut FTree, op: &FPlanOp) -> Result<()> {
    match op {
        FPlanOp::PushUp(b) => push_up_step(fusion, cur, *b),
        FPlanOp::Normalise => normalise_steps(fusion, cur),
        FPlanOp::Swap(b) => swap_step(fusion, cur, *b),
        FPlanOp::Merge(a, b) => {
            let (a, b) = (*a, *b);
            let parent = cur.parent(a);
            let mut next = cur.clone();
            next.merge_siblings(a, b)?;
            MergePass::new(fusion, cur, &next, a, b, parent).apply(b);
            fusion.prune()?;
            *cur = next;
            Ok(())
        }
        FPlanOp::Absorb(a, b) => {
            let (a, b) = (*a, *b);
            cur.check_node(a)?;
            cur.check_node(b)?;
            let mut next = cur.clone();
            next.absorb_into_ancestor(a, b)?;
            let b_parent = cur.parent(b).expect("b has an ancestor, so a parent");
            AbsorbPass::new(fusion, cur, &next, a, b, b_parent).apply();
            fusion.prune()?;
            *cur = next;
            // The paper's absorb finishes with a normalisation step.
            normalise_steps(fusion, cur)
        }
        FPlanOp::SelectConst { attr, op, value } => {
            let node = select_node(cur, *attr)?;
            fusion.filter(node, *op, *value)?;
            if *op == ComparisonOp::Eq {
                cur.bind_constant(node, *value)?;
            }
            Ok(())
        }
        FPlanOp::Project(keep) => project_steps(fusion, cur, keep),
    }
}

/// One swap, tree and overlay together.
fn swap_step(fusion: &mut Fusion<'_>, cur: &mut FTree, b: NodeId) -> Result<()> {
    let mut next = cur.clone();
    let outcome = next.swap_with_parent(b)?;
    SwapPass::new(fusion, cur, &next, &outcome).apply();
    *cur = next;
    Ok(())
}

/// The projection operator `π_Ā` on the overlay.
///
/// Projection replaces the singletons of every attribute outside the
/// projection list with the nullary singleton `⟨⟩`.  On the structure:
///
/// 1. the projected-away attributes are *marked* on their nodes of the
///    simulated tree (nodes are not removed immediately — an inner node whose
///    attributes are all projected away still carries the correlation between
///    its ancestors and descendants, exactly the paper's `A — B — C` example);
/// 2. leaves whose attributes are all marked are removed (their union of
///    singletons collapses to `⟨⟩`; a [`RemoveLeafPass`] per leaf — pure
///    header remaps, nothing is copied), merging the dependency edges that
///    used to meet in them so transitive dependencies survive;
/// 3. remaining marked inner nodes are swapped downwards (the data-dependent
///    swap-downs drive the same [`SwapPass`] as an explicit swap step) until
///    they become leaves, then removed as well.
///
/// The represented relation afterwards is the projection, with set
/// semantics — a factorised representation never stores duplicate tuples.
/// Attributes in `keep` that do not occur in the representation are
/// ignored.
fn project_steps(fusion: &mut Fusion<'_>, cur: &mut FTree, keep: &BTreeSet<AttrId>) -> Result<()> {
    let all = cur.all_attrs();
    let marked: BTreeSet<AttrId> = all.difference(keep).copied().collect();
    if marked.is_empty() {
        return Ok(());
    }
    cur.mark_attrs_projected(&marked);
    loop {
        let removable = cur.removable_projected_leaves();
        if !removable.is_empty() {
            for leaf in removable {
                let parent = cur.parent(leaf);
                let mut next = cur.clone();
                next.remove_projected_leaf(leaf)?;
                RemoveLeafPass::new(fusion, cur, leaf, parent).apply();
                *cur = next;
            }
            continue;
        }
        // Otherwise pick a fully-projected inner node and swap it one level
        // down (each swap strictly shrinks its subtree, so this terminates).
        let marked_inner = cur
            .node_ids()
            .into_iter()
            .find(|&n| cur.visible_attrs(n).is_empty() && !cur.is_leaf(n));
        match marked_inner {
            Some(node) => {
                let child = cur.children(node)[0];
                swap_step(fusion, cur, child)?;
            }
            None => break,
        }
    }
    Ok(())
}

/// One push-up, tree and overlay together.
fn push_up_step(fusion: &mut Fusion<'_>, cur: &mut FTree, b: NodeId) -> Result<()> {
    let mut next = cur.clone();
    next.push_up(b)?;
    let a = cur.parent(b).expect("push_up validated: b has a parent");
    PushUpPass::new(fusion, cur, &next, a, b).apply();
    *cur = next;
    Ok(())
}

/// The normalisation operator `η`: push-ups bottom-up until no node can be
/// lifted any further — the same loop, in the same order, as
/// [`FTree::normalise`], so the push-up sequence is known from the tree
/// alone.  The result is the unique normalised f-tree reachable this way,
/// and the representation only ever shrinks.
fn normalise_steps(fusion: &mut Fusion<'_>, cur: &mut FTree) -> Result<()> {
    loop {
        let mut changed = false;
        for node in cur.bottom_up() {
            while cur.can_push_up(node) {
                push_up_step(fusion, cur, node)?;
                changed = true;
            }
        }
        if !changed {
            return Ok(());
        }
    }
}

// ---------------------------------------------------------------------
// The overlay
// ---------------------------------------------------------------------

/// Tag bit marking a [`VId`] as a reference into the input arena.
const SRC_BIT: u32 = 1 << 31;

/// A virtual union: either an untouched union of the input arena (`Src`) or
/// an overlay [`Mix`] node built by one of the passes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct VId(u32);

impl VId {
    fn src(uid: u32) -> VId {
        debug_assert_eq!(uid & SRC_BIT, 0, "arena index overflows the tag bit");
        VId(uid | SRC_BIT)
    }

    fn mix(index: usize) -> VId {
        VId(index as u32)
    }

    fn as_src(self) -> Option<u32> {
        (self.0 & SRC_BIT != 0).then_some(self.0 & !SRC_BIT)
    }

    fn mix_index(self) -> usize {
        debug_assert_eq!(self.0 & SRC_BIT, 0);
        self.0 as usize
    }
}

/// An overlay union materialising a transformed region: its values in
/// increasing order and, per entry, `kid_count` child references in the
/// (then-current) f-tree child order.
struct Mix {
    node: NodeId,
    kid_count: u32,
    values: Vec<Value>,
    kids: Vec<VId>,
}

/// Liveness of the input arena under a retain-and-prune with some entry
/// predicate — which entries survive and which subtrees contain any dead
/// entry at all (so clean subtrees stay `Src` references through a prune or
/// a selection; a clean union is empty after pruning iff it was empty
/// before).  The cached instance is computed for the keep-everything
/// predicate (the merge/absorb prune); selections compute their own with
/// the comparison folded in.
struct Liveness {
    entry_alive: Vec<bool>,
    subtree_dirty: Vec<bool>,
}

/// The program's state: the immutable input arena plus the overlay
/// forest the passes transform.
struct Fusion<'a> {
    src: &'a Store,
    /// Child counts of the *input* f-tree, indexed by node index (valid for
    /// every `Src` reference: untouched regions keep their tree shape).
    src_kid_counts: Vec<u32>,
    mixes: Vec<Mix>,
    roots: Vec<VId>,
    /// Lazily computed, cached for the program (the input arena is
    /// immutable while the program runs).
    liveness: Option<Liveness>,
    /// Governance context: the sweeps, prunes and the final emission charge
    /// it per record touched.
    ctx: &'a ExecCtx,
}

impl<'a> Fusion<'a> {
    fn new(src: &'a Store, tree: &FTree, ctx: &'a ExecCtx) -> Fusion<'a> {
        Fusion {
            src,
            src_kid_counts: kid_count_table(tree),
            mixes: Vec::new(),
            roots: src.roots.iter().map(|&r| VId::src(r)).collect(),
            liveness: None,
            ctx,
        }
    }

    fn push_mix(&mut self, mix: Mix) -> VId {
        let id = VId::mix(self.mixes.len());
        self.mixes.push(mix);
        id
    }

    /// The f-tree node a virtual union ranges over.
    fn node_of(&self, v: VId) -> NodeId {
        match v.as_src() {
            Some(uid) => self.src.unions[uid as usize].node,
            None => self.mixes[v.mix_index()].node,
        }
    }

    /// Number of entries.
    fn len(&self, v: VId) -> u32 {
        self.values(v).len() as u32
    }

    /// The entry values, strictly increasing.
    fn values(&self, v: VId) -> &[Value] {
        match v.as_src() {
            Some(uid) => self.src.value_slice(uid),
            None => &self.mixes[v.mix_index()].values,
        }
    }

    /// The `i`-th value.
    fn value(&self, v: VId, i: u32) -> Value {
        self.values(v)[i as usize]
    }

    /// The child reference of entry `i` at kid position `k`.
    fn kid(&self, v: VId, i: u32, k: u32) -> VId {
        match v.as_src() {
            Some(uid) => VId::src(self.src.kid(uid, i, k)),
            None => {
                let mix = &self.mixes[v.mix_index()];
                mix.kids[(i * mix.kid_count + k) as usize]
            }
        }
    }

    /// Number of kid slots per entry.
    fn kid_count_of(&self, v: VId) -> u32 {
        match v.as_src() {
            Some(uid) => self.src_kid_counts[self.src.unions[uid as usize].node.index()],
            None => self.mixes[v.mix_index()].kid_count,
        }
    }

    /// Probes the sorted entry values for `value` — both arms go through
    /// the shared [`kernel::find_value`] probe over a dense value slice.
    fn find_value(&self, v: VId, value: Value) -> Option<u32> {
        kernel::find_value(self.values(v), value).map(|i| i as u32)
    }

    // -----------------------------------------------------------------
    // The folded prune (merge/absorb liveness sweep) and the folded
    // selection (the same sweep with the comparison as entry predicate)
    // -----------------------------------------------------------------

    /// One flat bottom-up pass over the input arena: per-entry liveness
    /// under a retain-and-prune that keeps everything (`select` = `None`,
    /// the merge/absorb prune) or keeps `value cmp constant` on one node's
    /// unions, per-union emptiness, and a per-union "subtree contains a dead
    /// entry" flag.  The comparison runs **per block** through the batched
    /// [`kernel::fill_keep_mask`] over the union's dense value slice.
    fn compute_liveness(&self, select: Option<(NodeId, ComparisonOp, Value)>) -> Result<Liveness> {
        let s = self.src;
        let mut entry_alive = vec![true; s.entry_count()];
        let mut union_empty = vec![false; s.unions.len()];
        let mut subtree_dirty = vec![false; s.unions.len()];
        for uid in (0..s.unions.len()).rev() {
            let rec = s.unions[uid];
            self.ctx.charge(1 + rec.entries_len as u64)?;
            let start = rec.entries_start as usize;
            let alive = &mut entry_alive[start..start + rec.entries_len as usize];
            let selected = select.filter(|&(node, ..)| node == rec.node);
            if let Some((_, cmp, value)) = selected {
                kernel::fill_keep_mask(s.value_slice(uid as u32), cmp, value, alive);
            }
            let kid_count = self.src_kid_counts[rec.node.index()] as usize;
            if kid_count == 0 && selected.is_none() {
                // An untouched leaf: every entry alive, nothing dirty.
                union_empty[uid] = alive.is_empty();
                continue;
            }
            let mut dirty = false;
            if kid_count > 0 {
                for (e, alive_slot) in alive.iter_mut().enumerate() {
                    let kids_start = s.kids_start_at((start + e) as u32) as usize;
                    for &kid in &s.kids[kids_start..kids_start + kid_count] {
                        *alive_slot &= !union_empty[kid as usize];
                        dirty |= subtree_dirty[kid as usize];
                    }
                }
            }
            let survivors = alive.iter().filter(|&&a| a).count();
            union_empty[uid] = survivors == 0;
            subtree_dirty[uid] = dirty || survivors < alive.len();
        }
        Ok(Liveness {
            entry_alive,
            subtree_dirty,
        })
    }

    /// Computes and caches the keep-everything liveness.  The cache stays
    /// valid for the whole program: the input arena is immutable, and every
    /// `Src` reference still reachable after a folded selection lies in a
    /// selection-clean subtree, which is keep-everything-clean a fortiori.
    fn ensure_liveness(&mut self) -> Result<()> {
        if self.liveness.is_none() {
            self.liveness = Some(self.compute_liveness(None)?);
        }
        Ok(())
    }

    /// The prune that follows a merge or an absorb: drops entries whose
    /// product became empty (some kid union without entries), propagating
    /// upwards; root unions may end up empty.  Clean `Src` subtrees pass
    /// through untouched; only Mix nodes and dirty `Src` regions are
    /// rebuilt.
    fn prune(&mut self) -> Result<()> {
        self.ensure_liveness()?;
        let live = self.liveness.take().expect("liveness just ensured");
        let result = self.apply_prune(&live, &|_, _| true);
        self.liveness = Some(live);
        result
    }

    /// The selection operator `σ_{A θ c}`: keeps the entries of `node`'s
    /// unions whose value satisfies `cmp value`, and prunes entries whose
    /// product became empty exactly as the merge/absorb prune does.  One
    /// fresh liveness sweep (the predicate changes per selection) plus a
    /// walk that rebuilds only dirty regions — subtrees the selection does
    /// not touch stay `Src` references.  Linear in the input.
    fn filter(&mut self, node: NodeId, cmp: ComparisonOp, value: Value) -> Result<()> {
        let keep = move |n: NodeId, v: Value| n != node || cmp.eval(v, value);
        let live = self.compute_liveness(Some((node, cmp, value)))?;
        self.apply_prune(&live, &keep)
    }

    /// Rewrites every root through [`Fusion::prune_union`].
    fn apply_prune<F: Fn(NodeId, Value) -> bool>(
        &mut self,
        live: &Liveness,
        keep: &F,
    ) -> Result<()> {
        let roots = self.roots.clone();
        self.roots = roots
            .into_iter()
            .map(|r| Ok(self.prune_union(r, live, keep)?.0))
            .collect::<Result<_>>()?;
        Ok(())
    }

    /// Prunes one virtual union under the given liveness/predicate; returns
    /// the pruned reference and whether it came out empty.
    fn prune_union<F: Fn(NodeId, Value) -> bool>(
        &mut self,
        v: VId,
        live: &Liveness,
        keep: &F,
    ) -> Result<(VId, bool)> {
        if let Some(uid) = v.as_src() {
            let uidx = uid as usize;
            if !live.subtree_dirty[uidx] {
                return Ok((v, self.src.union_len(uid) == 0));
            }
            let rec = self.src.unions[uidx];
            self.ctx.charge(1 + rec.entries_len as u64)?;
            let kid_count = self.src_kid_counts[rec.node.index()];
            let mut values = Vec::with_capacity(rec.entries_len as usize);
            let mut kids = Vec::with_capacity((rec.entries_len * kid_count) as usize);
            for i in 0..rec.entries_len {
                let e = (rec.entries_start + i) as usize;
                if !live.entry_alive[e] {
                    continue;
                }
                values.push(self.src.value_at(e as u32));
                let kids_start = self.src.kids_start_at(e as u32);
                for k in 0..kid_count {
                    let kid_uid = self.src.kids[(kids_start + k) as usize];
                    let (kid, _) = self.prune_union(VId::src(kid_uid), live, keep)?;
                    kids.push(kid);
                }
            }
            let empty = values.is_empty();
            let out = self.push_mix(Mix {
                node: rec.node,
                kid_count,
                values,
                kids,
            });
            Ok((out, empty))
        } else {
            let (node, kid_count, len) = {
                let mix = &self.mixes[v.mix_index()];
                (mix.node, mix.kid_count, mix.values.len() as u32)
            };
            self.ctx.charge(1 + len as u64)?;
            let kc = kid_count as usize;
            let mut values = Vec::with_capacity(len as usize);
            let mut kids = Vec::with_capacity(len as usize * kc);
            let mut pruned = Vec::with_capacity(kc);
            for i in 0..len {
                let value = self.mixes[v.mix_index()].values[i as usize];
                // An entry failing the predicate dies outright; its subtrees
                // are unreachable and need no rebuild.
                if !keep(node, value) {
                    continue;
                }
                pruned.clear();
                let mut alive = true;
                for k in 0..kid_count {
                    let kid = self.mixes[v.mix_index()].kids[(i * kid_count + k) as usize];
                    let (pk, empty) = self.prune_union(kid, live, keep)?;
                    alive &= !empty;
                    pruned.push(pk);
                }
                if alive {
                    values.push(value);
                    kids.extend_from_slice(&pruned);
                }
            }
            let empty = values.is_empty();
            let out = self.push_mix(Mix {
                node,
                kid_count,
                values,
                kids,
            });
            Ok((out, empty))
        }
    }

    // -----------------------------------------------------------------
    // Final emission
    // -----------------------------------------------------------------

    /// The single output pass: walks the overlay in root order and emits the
    /// final arena in the exact `Store::freeze` layout through a
    /// [`Rewriter`] — `Src` references become whole-subtree copies
    /// ([`Rewriter::copy_union`]), `Mix` nodes emit their own headers,
    /// value blocks and kid runs.
    fn into_store(self, src_tree: &FTree) -> Result<Store> {
        let mut rw = Rewriter::new(self.src, src_tree);
        let roots: Vec<u32> = self
            .roots
            .iter()
            .map(|&r| emit_union(&mut rw, &self.mixes, r, self.ctx))
            .collect::<Result<_>>()?;
        Ok(rw.finish(roots))
    }

    // -----------------------------------------------------------------
    // Aggregation over the overlay
    // -----------------------------------------------------------------

    /// Evaluates an aggregate over the overlay forest against the final
    /// simulated tree, instead of emitting an output arena: one recursive
    /// fold ([`OverlaySource`]) over the narrowest accumulator the kind
    /// needs, chosen here once per request.  Leaf unions fold in closed form;
    /// only an inner `Src` union visited twice is memoised.  Entries failing
    /// `filter` — the folded trailing selections — contribute nothing,
    /// exactly as if a selection pass had removed and pruned them.
    fn aggregate(
        &self,
        final_tree: &FTree,
        kind: AggregateKind,
        group_by: &[AttrId],
        filter: &AggFilter,
    ) -> Result<AggregateResult> {
        match kind {
            AggregateKind::Count => {
                self.aggregate_typed::<CountAcc>(final_tree, kind, group_by, filter)
            }
            AggregateKind::Sum(_) | AggregateKind::Avg(_) => {
                self.aggregate_typed::<SumAcc>(final_tree, kind, group_by, filter)
            }
            AggregateKind::Min(_) | AggregateKind::Max(_) => {
                self.aggregate_typed::<Acc>(final_tree, kind, group_by, filter)
            }
            _ => self.aggregate_typed::<DistinctAcc>(final_tree, kind, group_by, filter),
        }
    }

    /// [`Fusion::aggregate`] monomorphised over one accumulator algebra.
    fn aggregate_typed<A: Accumulator>(
        &self,
        final_tree: &FTree,
        kind: AggregateKind,
        group_by: &[AttrId],
        filter: &AggFilter,
    ) -> Result<AggregateResult> {
        let mut src = OverlaySource::<A> {
            fu: self,
            memo: HashMap::new(),
            keyed_memo: HashMap::new(),
            rows: Rows::default(),
            seen: if self.src.is_tree() && self.mixes.is_empty() {
                Vec::new()
            } else {
                vec![0; self.src.unions.len().div_ceil(64)]
            },
            filter,
            pending: 0,
            kept: Vec::new(),
            mask: Vec::new(),
        };
        src.evaluate(final_tree, kind, group_by)
    }
}

/// The aggregate fold over the fused overlay (see [`Fusion::aggregate`]).
/// A frozen arena is folded as the overlay of the empty program.
///
/// The fold recurses over the overlay.  A leaf union — `Src` or `Mix` — is
/// folded in closed form from its value slice ([`Accumulator::leaf`]), with
/// a filter on its node applied as a keep mask.  Each `Src` union is charged
/// `1 + len` units on its first visit only, `Mix` unions on every visit, in
/// batches of [`CHECK_INTERVAL`].  A `Src` union visited again — a swap
/// shares `Src` subtrees between regrouped entries, and a decoded snapshot
/// may share unions between entries — is refolded uncharged: a leaf in
/// closed form, an inner union once more and then memoised, which keeps the
/// fold linear in the overlay.  A union visited once is never memoised.
///
/// A grouped aggregate is the same fold over a keyed algebra.  A union whose
/// subtree holds no group node folds to its accumulator as above; one that
/// holds a group node folds to [`Rows`], one accumulator per group key of its
/// subtree (the semiring view of Kimelfeld, Martens and Niewerth): an
/// entry's value sets its node's key slot, an entry multiplies its scalar
/// kids and crosses its keyed kids, and a union adds its entries' rows by
/// key.  No union is restructured and no tuple is enumerated; every row built
/// is charged one unit.
struct OverlaySource<'f, 'a, A> {
    fu: &'f Fusion<'a>,
    /// Accumulators of the inner `Src` unions visited more than once.
    memo: HashMap<u32, A>,
    /// The keyed twin of `memo`: the rows of such unions.
    keyed_memo: HashMap<u32, (Vec<Value>, Vec<A>)>,
    /// The row stack of a grouped fold: a keyed union appends its rows.
    rows: Rows<A>,
    /// One bit per `Src` union, set once it has been charged; empty when no
    /// union can be visited twice (a tree-shaped arena and no `Mix` node).
    seen: Vec<u64>,
    /// Folded trailing selections (see [`execute_fused_aggregate_ctx`]).
    filter: &'f AggFilter,
    /// Units folded but not yet charged.
    pending: u64,
    /// Scratch for a filtered leaf: its surviving values and keep mask.
    kept: Vec<Value>,
    mask: Vec<bool>,
}

impl<A: Accumulator> OverlaySource<'_, '_, A> {
    /// The evaluation scaffold, the one place that implements the aggregate
    /// semantics on top of the accumulators:
    ///
    /// * scalar: the product of the root accumulators;
    /// * grouped: the product of the roots that hold no group node, crossed
    ///   with the rows of those that do ([`OverlaySource::fold_keyed`]); the
    ///   rows are sorted once, by key in request order, and rows whose product
    ///   is empty are dropped.
    fn evaluate(
        &mut self,
        tree: &FTree,
        kind: AggregateKind,
        group_by: &[AttrId],
    ) -> Result<AggregateResult> {
        let target = AggTarget::resolve(tree, kind)?;
        let fu = self.fu;
        if group_by.is_empty() {
            let mut total = A::one();
            for &r in &fu.roots {
                total = total.product(self.acc_of(r, target)?);
            }
            return Ok(AggregateResult::Scalar(total.finish(kind)?));
        }
        let group = GroupKey::resolve(tree, group_by)?;
        self.rows.stride = group.nodes.len();
        let mut context = A::one();
        for &r in fu.roots.iter().filter(|&&r| !group.holds(fu.node_of(r))) {
            context = context.product(self.fold_ref(r, target)?);
        }
        self.rows.push(context);
        for &r in fu.roots.iter().filter(|&&r| group.holds(fu.node_of(r))) {
            let start = self.rows.len();
            self.fold_keyed(r, target, &group)?;
            self.cross(0, start)?;
        }
        self.flush()?;
        self.rows.merge(0);
        let Rows { stride, keys, accs } = std::mem::take(&mut self.rows);
        let live = keys
            .chunks_exact(stride)
            .zip(accs)
            .filter(|(_, acc)| !acc.is_empty());
        let groups = live.map(|(key, acc)| {
            let key = group.key_slots.iter().map(|&s| key[s]).collect();
            Ok((key, acc.finish(kind)?))
        });
        Ok(AggregateResult::Groups(groups.collect::<Result<_>>()?))
    }

    /// The accumulator of a whole union, every unit it folded charged.
    fn acc_of(&mut self, v: VId, target: AggTarget) -> Result<A> {
        let acc = self.fold_ref(v, target)?;
        self.flush()?;
        Ok(acc)
    }

    /// Records `units` folded: `1 + len` for a union, one per row built.
    fn charge(&mut self, units: usize) -> Result<()> {
        self.pending += units as u64;
        if self.pending >= CHECK_INTERVAL {
            self.flush()?;
        }
        Ok(())
    }

    fn flush(&mut self) -> Result<()> {
        let units = std::mem::take(&mut self.pending);
        self.fu.ctx.charge(units)
    }

    /// Marks a `Src` union visited; whether it had been visited before.
    fn revisit(&mut self, uid: u32) -> bool {
        let (word, bit) = (uid as usize / 64, 1u64 << (uid % 64));
        self.seen.get_mut(word).is_some_and(|w| {
            let seen = *w & bit != 0;
            *w |= bit;
            seen
        })
    }

    /// Folds a union an overlay entry (or the scaffold) references.  A leaf
    /// is its value slice in closed form, filtered first when a selection
    /// names its node.  An inner union is the sum over its passing entries
    /// of the product of their kids' accumulators, times the entry's
    /// singleton when it carries the target (a non-carrying singleton is
    /// `one`).
    fn fold_ref(&mut self, v: VId, target: AggTarget) -> Result<A> {
        let fu = self.fu;
        let revisit = v.as_src().is_some_and(|uid| self.revisit(uid));
        let (node, values, kid_count) = (fu.node_of(v), fu.values(v), fu.kid_count_of(v));
        if !revisit {
            self.charge(1 + values.len())?;
        } else if let Some(acc) = v.as_src().and_then(|uid| self.memo.get(&uid)) {
            return Ok(acc.clone());
        }
        let (filtered, carries) = (self.filter.names(node), target.carried_by(node));
        if kid_count == 0 {
            if filtered {
                self.filter
                    .keep(node, values, &mut self.kept, &mut self.mask);
                return Ok(A::leaf(&self.kept, carries));
            }
            return Ok(A::leaf(values, carries));
        }
        let mut total = A::default();
        for (i, &value) in values.iter().enumerate() {
            if filtered && !self.filter.passes(node, value) {
                continue;
            }
            let mut acc = self.fold_ref(fu.kid(v, i as u32, 0), target)?;
            for k in 1..kid_count {
                acc = acc.product(self.fold_ref(fu.kid(v, i as u32, k), target)?);
            }
            if carries {
                acc = acc.product(A::singleton(value, true));
            }
            total = total.add(acc);
        }
        if let Some(uid) = v.as_src().filter(|_| revisit) {
            self.memo.insert(uid, total.clone());
        }
        Ok(total)
    }

    /// Folds a union whose subtree holds a group node onto the row stack.
    /// Each passing entry contributes the product of its singleton and its
    /// scalar kids, with its value in the node's key slot when that is a
    /// group node, crossed with the rows of each keyed kid.  Entries of a
    /// union over a group node differ in that slot; any other union merges
    /// its rows by key.  Charged, and memoised when a `Src` union is visited
    /// again, like [`OverlaySource::fold_ref`]; on top of that every row a
    /// cross builds or a memo hit copies costs one unit, so the units bound
    /// the rows even where the groups outnumber the unions.  A merge is not
    /// charged: every row it sorts was charged when it was built.
    fn fold_keyed(&mut self, v: VId, target: AggTarget, group: &GroupKey) -> Result<()> {
        let fu = self.fu;
        let revisit = v.as_src().is_some_and(|uid| self.revisit(uid));
        let (node, values, kid_count) = (fu.node_of(v), fu.values(v), fu.kid_count_of(v));
        if !revisit {
            self.charge(1 + values.len())?;
        } else if let Some((keys, accs)) = v.as_src().and_then(|uid| self.keyed_memo.get(&uid)) {
            let copied = accs.len();
            self.rows.keys.extend_from_slice(keys);
            self.rows.accs.extend_from_slice(accs);
            return self.charge(copied);
        }
        let slot = group.nodes.iter().position(|&g| g == node);
        let (filtered, carries) = (self.filter.names(node), target.carried_by(node));
        let start = self.rows.len();
        for (i, &value) in values.iter().enumerate() {
            if filtered && !self.filter.passes(node, value) {
                continue;
            }
            let kid = |k| fu.kid(v, i as u32, k);
            let keyed = |k: &u32| group.holds(fu.node_of(kid(*k)));
            let mut acc = A::singleton(value, carries);
            for k in (0..kid_count).filter(|k| !keyed(k)) {
                acc = acc.product(self.fold_ref(kid(k), target)?);
            }
            if acc.is_empty() {
                continue;
            }
            let entry = self.rows.len();
            self.rows.push(acc);
            if let Some(s) = slot {
                self.rows.keys[entry * self.rows.stride + s] = value;
            }
            for k in (0..kid_count).filter(keyed) {
                let kid_start = self.rows.len();
                self.fold_keyed(kid(k), target, group)?;
                self.cross(entry, kid_start)?;
            }
        }
        if slot.is_none() {
            self.rows.merge(start);
        }
        if let Some(uid) = v.as_src().filter(|_| revisit && kid_count > 0) {
            let rows = &self.rows;
            let tail = (
                rows.keys[start * rows.stride..].to_vec(),
                rows.accs[start..].to_vec(),
            );
            self.keyed_memo.insert(uid, tail);
        }
        Ok(())
    }

    /// Replaces the rows `left..right` and `right..` by their cross product.
    /// The two sides set disjoint key slots and leave the rest 0, so the
    /// slot-wise maximum is the combined key.  Each left row charges the rows
    /// it is about to build, so a wide cross meets the budget, deadline and
    /// cancellation checks while it grows.
    fn cross(&mut self, left: usize, right: usize) -> Result<()> {
        let (end, stride) = (self.rows.len(), self.rows.stride);
        for l in left..right {
            self.charge(end - right)?;
            let Rows { keys, accs, .. } = &mut self.rows;
            for r in right..end {
                for s in 0..stride {
                    keys.push(keys[l * stride + s].max(keys[r * stride + s]));
                }
                accs.push(accs[l].clone().product(accs[r].clone()));
            }
        }
        self.rows.keys.drain(left * stride..end * stride);
        self.rows.accs.drain(left..end);
        Ok(())
    }
}

/// The row stack of a grouped fold: one accumulator per group key, the keys
/// in one flat buffer of `stride` values a row, so no row owns an
/// allocation.  A slot whose group node lies outside the rows' subtree
/// holds 0.
#[derive(Default)]
struct Rows<A> {
    stride: usize,
    keys: Vec<Value>,
    accs: Vec<A>,
}

impl<A: Accumulator> Rows<A> {
    fn len(&self) -> usize {
        self.accs.len()
    }

    fn key(&self, i: usize) -> &[Value] {
        &self.keys[i * self.stride..(i + 1) * self.stride]
    }

    /// Pushes a row with no key slot set.
    fn push(&mut self, acc: A) {
        self.keys
            .resize(self.keys.len() + self.stride, Value::new(0));
        self.accs.push(acc);
    }

    /// Sorts the rows from `start` on by key and adds the rows of equal
    /// keys; already strictly increasing rows are left as they are.
    fn merge(&mut self, start: usize) {
        if (start + 1..self.len()).all(|i| self.key(i - 1) < self.key(i)) {
            return;
        }
        let mut order: Vec<usize> = (start..self.len()).collect();
        order.sort_unstable_by(|&i, &j| self.key(i).cmp(self.key(j)));
        let mut merged = Rows::<A> {
            stride: self.stride,
            ..Rows::default()
        };
        for i in order {
            let acc = std::mem::take(&mut self.accs[i]);
            match merged.accs.last_mut() {
                Some(last) if merged.keys[merged.keys.len() - self.stride..] == *self.key(i) => {
                    *last = std::mem::take(last).add(acc);
                }
                _ => {
                    merged.keys.extend_from_slice(self.key(i));
                    merged.accs.push(acc);
                }
            }
        }
        self.keys.truncate(start * self.stride);
        self.accs.truncate(start);
        self.keys.append(&mut merged.keys);
        self.accs.append(&mut merged.accs);
    }
}

/// Recursive emission of one virtual union (see [`Fusion::into_store`]).
/// Charges the governance context for every record written: `Mix` unions
/// charge their own header and value block, opaque `Src` subtree copies
/// charge the [`Rewriter::emitted_units`] delta they produce.
fn emit_union(rw: &mut Rewriter<'_>, mixes: &[Mix], v: VId, ctx: &ExecCtx) -> Result<u32> {
    if let Some(uid) = v.as_src() {
        let before = rw.emitted_units();
        let out = rw.copy_union(uid);
        ctx.charge(rw.emitted_units() - before)?;
        return Ok(out);
    }
    let mix = &mixes[v.mix_index()];
    ctx.charge(1 + mix.values.len() as u64)?;
    let out = rw.begin_union_raw(mix.node, mix.values.len() as u32);
    for &value in &mix.values {
        rw.push_value(value);
    }
    let kc = mix.kid_count as usize;
    for i in 0..mix.values.len() {
        let mark = rw.mark();
        for k in 0..kc {
            let kid = emit_union(rw, mixes, mix.kids[i * kc + k], ctx)?;
            rw.push_kid(kid);
        }
        rw.end_entry(out, i as u32, mark);
    }
    Ok(out)
}

/// The shared shape of the passes' entry-preserving union rebuilds: keep
/// every entry of virtual union `$v` and re-emit its `$kid_count` kid slots
/// through the `|$i, $k| -> VId` body (entry index and kid slot in scope),
/// collecting the result into a new [`Mix`] over `$node`.  A macro rather
/// than a closure-taking helper because the body must re-borrow the calling
/// pass (`self`) mutably to recurse.
macro_rules! rebuild_entries {
    ($pass:expr, $v:expr, $node:expr, $kid_count:expr, |$i:ident, $k:ident| $kid_out:expr) => {{
        let v = $v;
        let kid_count: u32 = $kid_count;
        let len = ($pass).fu.len(v);
        let mut values = Vec::with_capacity(len as usize);
        for i in 0..len {
            values.push(($pass).fu.value(v, i));
        }
        let mut kids = Vec::with_capacity((len as usize) * (kid_count as usize));
        for $i in 0..len {
            for $k in 0..kid_count {
                let kid: VId = $kid_out;
                kids.push(kid);
            }
        }
        ($pass).fu.push_mix(Mix {
            node: $node,
            kid_count,
            values,
            kids,
        })
    }};
}

// ---------------------------------------------------------------------
// Push-up (and normalisation) on the overlay
// ---------------------------------------------------------------------

/// The push-up operator `ψ_B`.
///
/// Push-up factors a common subexpression out of a union: when a node `B` is
/// a child of `A` but `A` does not depend on `B` or its descendants, every
/// copy of the `B`-union under the different `A`-values is identical, so one
/// copy can be lifted out of the `A`-union and multiplied with it
/// (Figure 3(a)):
///
/// ```text
/// ⋃_a ⟨A:a⟩ × (⋃_b ⟨B:b⟩ × F_b) × E_a   ⇒   (⋃_b ⟨B:b⟩ × F_b) × ⋃_a ⟨A:a⟩ × E_a
/// ```
///
/// On the overlay the `A`-union loses its `B` slot and each grandparent
/// entry gains the lifted `B`-union (the copy under the first `A`-entry — all
/// copies are equal by independence) as a new last kid slot: pure header
/// remaps, linear in the unions on the root-to-`A` path.
struct PushUpPass<'f, 'a> {
    fu: &'f mut Fusion<'a>,
    a: NodeId,
    b: NodeId,
    grandparent: Option<NodeId>,
    /// Ancestors of `A` in the old tree (so including the grandparent).
    on_path: BTreeSet<NodeId>,
    pos_a_in_g: Option<u32>,
    pos_b_in_a: u32,
    /// Old kid positions of `A`'s remaining children, in new child order.
    a_slots: Vec<u32>,
}

impl<'f, 'a> PushUpPass<'f, 'a> {
    fn new(
        fu: &'f mut Fusion<'a>,
        old_tree: &FTree,
        new_tree: &FTree,
        a: NodeId,
        b: NodeId,
    ) -> Self {
        let grandparent = old_tree.parent(a);
        PushUpPass {
            fu,
            a,
            b,
            grandparent,
            on_path: old_tree.ancestors(a).into_iter().collect(),
            pos_a_in_g: grandparent.map(|g| child_pos(old_tree.children(g), a)),
            pos_b_in_a: child_pos(old_tree.children(a), b),
            a_slots: new_tree
                .children(a)
                .iter()
                .map(|&c| child_pos(old_tree.children(a), c))
                .collect(),
        }
    }

    fn apply(mut self) {
        let old_roots = self.fu.roots.clone();
        let mut roots: Vec<VId> = old_roots.iter().map(|&r| self.emit(r)).collect();
        if self.grandparent.is_none() {
            // `B` became a root of the forest: lift its union out of the
            // pre-op `A`-root union, appended after the existing roots.
            let a_root = old_roots
                .iter()
                .copied()
                .find(|&r| self.fu.node_of(r) == self.a)
                .expect("validated representation: one root union per root node");
            let lifted = self.emit_lifted(a_root);
            roots.push(lifted);
        }
        self.fu.roots = roots;
    }

    fn emit(&mut self, v: VId) -> VId {
        let node = self.fu.node_of(v);
        if node == self.a {
            return self.emit_a(v);
        }
        if Some(node) == self.grandparent {
            return self.emit_grandparent(v);
        }
        if !self.on_path.contains(&node) {
            return v;
        }
        // A strict ancestor above the grandparent: child slots unchanged,
        // the transform happens below.
        let kid_count = self.fu.kid_count_of(v);
        rebuild_entries!(self, v, node, kid_count, |i, k| {
            let kid = self.fu.kid(v, i, k);
            self.emit(kid)
        })
    }

    /// The grandparent union: each entry gains the lifted `B`-union as a new
    /// last kid slot.
    fn emit_grandparent(&mut self, v: VId) -> VId {
        let node = self.fu.node_of(v);
        let old_kid_count = self.fu.kid_count_of(v);
        let pos_a = self.pos_a_in_g.expect("grandparent knows a's slot");
        rebuild_entries!(self, v, node, old_kid_count + 1, |i, k| {
            if k < old_kid_count {
                let kid = self.fu.kid(v, i, k);
                self.emit(kid)
            } else {
                let a_vid = self.fu.kid(v, i, pos_a);
                self.emit_lifted(a_vid)
            }
        })
    }

    /// The `A`-union without its `B` slot (pure references — nothing below
    /// the kept children changes).
    fn emit_a(&mut self, v: VId) -> VId {
        rebuild_entries!(self, v, self.a, self.a_slots.len() as u32, |i, k| self
            .fu
            .kid(v, i, self.a_slots[k as usize]))
    }

    /// The lifted `B`-union of one `A`-union: the copy under the first
    /// `A`-entry, or an empty `B`-union if the `A`-union has no entries.
    fn emit_lifted(&mut self, a_vid: VId) -> VId {
        if self.fu.len(a_vid) == 0 {
            return self.fu.push_mix(Mix {
                node: self.b,
                kid_count: 0,
                values: Vec::new(),
                kids: Vec::new(),
            });
        }
        self.fu.kid(a_vid, 0, self.pos_b_in_a)
    }
}

// ---------------------------------------------------------------------
// Swap on the overlay
// ---------------------------------------------------------------------

/// The swap operator `χ_{A,B}` on the overlay (the formula is on
/// [`mod@crate::ops::swap`], whose direct rewriter serves the lone swap):
/// every `A`-union is regrouped by `B`-value with one flat sort of its
/// `(b, a)` pairs — the sort-merge equivalent of the paper's Figure 4
/// priority-queue algorithm, the same `O(N log N)` bound; kept children of
/// `B` and the inner `A`-entries' subtrees become references.
struct SwapPass<'f, 'a> {
    fu: &'f mut Fusion<'a>,
    a: NodeId,
    b: NodeId,
    on_path: BTreeSet<NodeId>,
    old_a_children: Vec<NodeId>,
    a_slots: Vec<(bool, u32)>,
    b_slots: Vec<Option<u32>>,
    path_slots: Vec<(NodeId, Vec<u32>)>,
}

impl<'f, 'a> SwapPass<'f, 'a> {
    fn new(
        fu: &'f mut Fusion<'a>,
        old_tree: &FTree,
        new_tree: &FTree,
        outcome: &SwapOutcome,
    ) -> Self {
        let (a, b) = (outcome.old_parent, outcome.new_parent);
        let moved_down: BTreeSet<NodeId> = outcome.moved_down.iter().copied().collect();
        let old_a_children = old_tree.children(a).to_vec();
        let old_b_children = old_tree.children(b).to_vec();

        let a_slots = new_tree
            .children(a)
            .iter()
            .map(|&d| {
                if moved_down.contains(&d) {
                    (true, child_pos(&old_b_children, d))
                } else {
                    (false, child_pos(&old_a_children, d))
                }
            })
            .collect();
        let b_slots = new_tree
            .children(b)
            .iter()
            .map(|&c| {
                if c == a {
                    None
                } else {
                    Some(child_pos(&old_b_children, c))
                }
            })
            .collect();
        let path: Vec<NodeId> = old_tree.ancestors(a);
        let path_slots = path
            .iter()
            .map(|&n| {
                let old_children = old_tree.children(n);
                let slots = new_tree
                    .children(n)
                    .iter()
                    .map(|&c| child_pos(old_children, if c == b { a } else { c }))
                    .collect();
                (n, slots)
            })
            .collect();

        SwapPass {
            fu,
            a,
            b,
            on_path: path.into_iter().collect(),
            old_a_children,
            a_slots,
            b_slots,
            path_slots,
        }
    }

    fn apply(mut self) {
        let old_roots = self.fu.roots.clone();
        self.fu.roots = old_roots.iter().map(|&r| self.emit(r)).collect();
    }

    fn emit(&mut self, v: VId) -> VId {
        let node = self.fu.node_of(v);
        if node == self.a {
            return self.regroup(v);
        }
        if !self.on_path.contains(&node) {
            return v;
        }
        // An ancestor of `A`: same entries, kid slots re-emitted in the new
        // tree's child order.
        let pi = self
            .path_slots
            .iter()
            .position(|(n, _)| *n == node)
            .expect("path nodes are precomputed");
        let slots = self.path_slots[pi].1.clone();
        rebuild_entries!(self, v, node, slots.len() as u32, |i, k| {
            let kid = self.fu.kid(v, i, slots[k as usize]);
            self.emit(kid)
        })
    }

    /// Regroups one `A`-union into the corresponding `B`-union.
    fn regroup(&mut self, a_vid: VId) -> VId {
        let pos_b = child_pos(&self.old_a_children, self.b);
        let a_len = self.fu.len(a_vid);
        let mut pairs: Vec<(Value, u32, VId, u32)> = Vec::new();
        for i in 0..a_len {
            let b_vid = self.fu.kid(a_vid, i, pos_b);
            for j in 0..self.fu.len(b_vid) {
                pairs.push((self.fu.value(b_vid, j), i, b_vid, j));
            }
        }
        // (b value, a entry) is unique per pair: within one b value the
        // pairing a values arrive in increasing order, as the paper's
        // priority queue delivers them.
        pairs.sort_unstable_by_key(|p| (p.0, p.1));

        let mut values = Vec::new();
        let mut group_starts: Vec<u32> = Vec::new();
        for (idx, p) in pairs.iter().enumerate() {
            if idx == 0 || p.0 != pairs[idx - 1].0 {
                values.push(p.0);
                group_starts.push(idx as u32);
            }
        }
        group_starts.push(pairs.len() as u32);

        let kid_count = self.b_slots.len() as u32;
        let mut kids = Vec::with_capacity(values.len() * self.b_slots.len());
        for g in 0..values.len() {
            let (start, end) = (group_starts[g], group_starts[g + 1]);
            let (_, _a0, b_vid0, j0) = pairs[start as usize];
            for slot in 0..self.b_slots.len() {
                match self.b_slots[slot] {
                    // A kept child of `B` (F_b): all copies under the
                    // different a values are equal by independence, keep the
                    // first pair's.
                    Some(pos) => kids.push(self.fu.kid(b_vid0, j0, pos)),
                    // The inner union over `A`.
                    None => {
                        let inner = self.emit_inner_a(a_vid, &pairs, start, end);
                        kids.push(inner);
                    }
                }
            }
        }
        self.fu.push_mix(Mix {
            node: self.b,
            kid_count,
            values,
            kids,
        })
    }

    /// The inner `A`-union of one `B`-value: one entry per `(a, b)` pair,
    /// with `E_a` referenced from the old `A`-entry and `G_ab` from the
    /// pair's `B`-entry.
    fn emit_inner_a(
        &mut self,
        a_vid: VId,
        pairs: &[(Value, u32, VId, u32)],
        start: u32,
        end: u32,
    ) -> VId {
        let mut values = Vec::with_capacity((end - start) as usize);
        for p in start..end {
            values.push(self.fu.value(a_vid, pairs[p as usize].1));
        }
        let mut kids = Vec::with_capacity(values.len() * self.a_slots.len());
        for p in start..end {
            let (_, i, b_vid, j) = pairs[p as usize];
            for slot in 0..self.a_slots.len() {
                let (from_b, pos) = self.a_slots[slot];
                kids.push(if from_b {
                    self.fu.kid(b_vid, j, pos)
                } else {
                    self.fu.kid(a_vid, i, pos)
                });
            }
        }
        self.fu.push_mix(Mix {
            node: self.a,
            kid_count: self.a_slots.len() as u32,
            values,
            kids,
        })
    }
}

// ---------------------------------------------------------------------
// Merge on the overlay
// ---------------------------------------------------------------------

/// The merge selection operator `µ_{A,B}`.
///
/// Merge enforces an equality `A = B` between two *sibling* nodes of the
/// f-tree: wherever the two sibling unions occur in a product, they are
/// replaced by a single union over the merged node that keeps only the
/// values present in both, combining their children (Figure 3(c)):
///
/// ```text
/// (⋃_a ⟨A:a⟩ × E_a) × (⋃_b ⟨B:b⟩ × F_b)  ⇒  ⋃_{a=b} ⟨A:a⟩⟨B:b⟩ × E_a × F_b
/// ```
///
/// In every product context holding the two sibling unions their sorted
/// value lists are sort-merge joined (time linear in the inputs, as in the
/// paper) and the common entries reference both sides' kid subtrees; the
/// prune afterwards ([`Fusion::prune`]) removes the entries whose product
/// became empty because some merged union lost all its values.
struct MergePass<'f, 'a> {
    fu: &'f mut Fusion<'a>,
    a: NodeId,
    parent: Option<NodeId>,
    on_path: BTreeSet<NodeId>,
    pos_a_in_p: Option<u32>,
    pos_b_in_p: Option<u32>,
    parent_slots: Vec<u32>,
    merged_slots: Vec<(bool, u32)>,
}

impl<'f, 'a> MergePass<'f, 'a> {
    fn new(
        fu: &'f mut Fusion<'a>,
        old_tree: &FTree,
        new_tree: &FTree,
        a: NodeId,
        b: NodeId,
        parent: Option<NodeId>,
    ) -> Self {
        MergePass {
            fu,
            a,
            parent,
            on_path: old_tree.ancestors(a).into_iter().collect(),
            pos_a_in_p: parent.map(|p| child_pos(old_tree.children(p), a)),
            pos_b_in_p: parent.map(|p| child_pos(old_tree.children(p), b)),
            parent_slots: parent
                .map(|p| {
                    new_tree
                        .children(p)
                        .iter()
                        .map(|&c| child_pos(old_tree.children(p), c))
                        .collect()
                })
                .unwrap_or_default(),
            merged_slots: new_tree
                .children(a)
                .iter()
                .map(|&c| {
                    if old_tree.children(b).contains(&c) {
                        (true, child_pos(old_tree.children(b), c))
                    } else {
                        (false, child_pos(old_tree.children(a), c))
                    }
                })
                .collect(),
        }
    }

    fn apply(mut self, b: NodeId) {
        let old_roots = self.fu.roots.clone();
        let roots: Vec<VId> = match self.parent {
            Some(_) => old_roots.iter().map(|&r| self.emit(r)).collect(),
            None => {
                // Both unions sit in the root product: the merged union
                // replaces them at the end of the root list.
                let root_of = |fu: &Fusion<'_>, node: NodeId| {
                    old_roots
                        .iter()
                        .copied()
                        .find(|&r| fu.node_of(r) == node)
                        .expect("validated representation: one root union per root node")
                };
                let a_root = root_of(self.fu, self.a);
                let b_root = root_of(self.fu, b);
                let mut roots: Vec<VId> = old_roots
                    .iter()
                    .copied()
                    .filter(|&r| r != a_root && r != b_root)
                    .collect();
                roots.push(self.merge_unions(a_root, b_root));
                roots
            }
        };
        self.fu.roots = roots;
    }

    fn emit(&mut self, v: VId) -> VId {
        let node = self.fu.node_of(v);
        if Some(node) == self.parent {
            return self.emit_parent(v);
        }
        if !self.on_path.contains(&node) {
            return v;
        }
        // A strict ancestor above the parent.
        let kid_count = self.fu.kid_count_of(v);
        rebuild_entries!(self, v, node, kid_count, |i, k| {
            let kid = self.fu.kid(v, i, k);
            self.emit(kid)
        })
    }

    /// The parent union: each entry's `A` and `B` kid slots fuse into one.
    fn emit_parent(&mut self, v: VId) -> VId {
        let node = self.fu.node_of(v);
        let pos_a = self.pos_a_in_p.expect("parent knows a's slot");
        let pos_b = self.pos_b_in_p.expect("parent knows b's slot");
        rebuild_entries!(self, v, node, self.parent_slots.len() as u32, |i, k| {
            let pos = self.parent_slots[k as usize];
            if pos == pos_a {
                let (av, bv) = (self.fu.kid(v, i, pos_a), self.fu.kid(v, i, pos_b));
                self.merge_unions(av, bv)
            } else {
                self.fu.kid(v, i, pos)
            }
        })
    }

    /// Sort-merge join of two sibling unions into one union over `a`.
    fn merge_unions(&mut self, a_vid: VId, b_vid: VId) -> VId {
        let (a_len, b_len) = (self.fu.len(a_vid), self.fu.len(b_vid));
        let mut pairs: Vec<(u32, u32)> = Vec::new();
        let (mut i, mut j) = (0u32, 0u32);
        while i < a_len && j < b_len {
            match self.fu.value(a_vid, i).cmp(&self.fu.value(b_vid, j)) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    pairs.push((i, j));
                    i += 1;
                    j += 1;
                }
            }
        }
        let mut values = Vec::with_capacity(pairs.len());
        for &(ai, _) in &pairs {
            values.push(self.fu.value(a_vid, ai));
        }
        let mut kids = Vec::with_capacity(pairs.len() * self.merged_slots.len());
        for &(ai, bi) in &pairs {
            for s in 0..self.merged_slots.len() {
                let (from_b, pos) = self.merged_slots[s];
                kids.push(if from_b {
                    self.fu.kid(b_vid, bi, pos)
                } else {
                    self.fu.kid(a_vid, ai, pos)
                });
            }
        }
        self.fu.push_mix(Mix {
            node: self.a,
            kid_count: self.merged_slots.len() as u32,
            values,
            kids,
        })
    }
}

// ---------------------------------------------------------------------
// Absorb on the overlay
// ---------------------------------------------------------------------

/// The absorb selection operator `α_{A,B}`.
///
/// Absorb enforces an equality `A = B` when the node `B` is a *descendant*
/// of the node `A`.  Inside the subtree of every `A`-value `a`, each union
/// over `B` is restricted to the single entry with value `a` (or emptied if
/// no such entry exists), the `B` level is spliced out (its children move up
/// to `B`'s former parent), and `B`'s attributes join `A`'s class
/// (Figure 3(d)).  As in the paper, the operator finishes with a
/// normalisation step: removing `B` can make nodes below it independent of
/// the nodes in between, so they may be pushed up.
///
/// The walk carries the enclosing `A`-value, each `B`-parent union keeps
/// only the entries whose `B`-union has the context value (binary search,
/// so quasilinear overall) and splices the matched entry's kid subtrees in;
/// the prune afterwards ([`Fusion::prune`]) cascades the removals upwards.
struct AbsorbPass<'f, 'a> {
    fu: &'f mut Fusion<'a>,
    a: NodeId,
    b_parent: NodeId,
    on_path: BTreeSet<NodeId>,
    pos_b: u32,
    spliced_slots: Vec<(bool, u32)>,
}

impl<'f, 'a> AbsorbPass<'f, 'a> {
    fn new(
        fu: &'f mut Fusion<'a>,
        old_tree: &FTree,
        new_tree: &FTree,
        a: NodeId,
        b: NodeId,
        b_parent: NodeId,
    ) -> Self {
        let old_b_children = old_tree.children(b);
        AbsorbPass {
            fu,
            a,
            b_parent,
            on_path: old_tree.ancestors(b).into_iter().collect(),
            pos_b: child_pos(old_tree.children(b_parent), b),
            spliced_slots: new_tree
                .children(b_parent)
                .iter()
                .map(|&c| {
                    if old_b_children.contains(&c) {
                        (true, child_pos(old_b_children, c))
                    } else {
                        (false, child_pos(old_tree.children(b_parent), c))
                    }
                })
                .collect(),
        }
    }

    fn apply(mut self) {
        let old_roots = self.fu.roots.clone();
        self.fu.roots = old_roots.iter().map(|&r| self.emit(r, None)).collect();
    }

    fn emit(&mut self, v: VId, ctx: Option<Value>) -> VId {
        let node = self.fu.node_of(v);
        if node == self.b_parent {
            return self.emit_spliced(v, ctx);
        }
        if node != self.a && !self.on_path.contains(&node) {
            return v;
        }
        // On the root-to-B path (possibly the A-union itself, which sets the
        // context value for its subtree).
        let sets_ctx = node == self.a;
        let kid_count = self.fu.kid_count_of(v);
        rebuild_entries!(self, v, node, kid_count, |i, k| {
            let entry_ctx = if sets_ctx {
                Some(self.fu.value(v, i))
            } else {
                ctx
            };
            let kid = self.fu.kid(v, i, k);
            self.emit(kid, entry_ctx)
        })
    }

    /// The `B`-parent union: entries restricted to those whose `B`-union
    /// holds the context value, the matched entry's kid subtrees spliced in.
    fn emit_spliced(&mut self, v: VId, ctx: Option<Value>) -> VId {
        let node = self.fu.node_of(v);
        let sets_ctx = node == self.a;
        let len = self.fu.len(v);
        let mut matches: Vec<(u32, VId, u32)> = Vec::new();
        for i in 0..len {
            let value = if sets_ctx {
                self.fu.value(v, i)
            } else {
                ctx.expect("the B-parent lies inside an A-entry subtree")
            };
            let b_vid = self.fu.kid(v, i, self.pos_b);
            if let Some(j) = self.fu.find_value(b_vid, value) {
                matches.push((i, b_vid, j));
            }
        }
        let mut values = Vec::with_capacity(matches.len());
        for &(i, _, _) in &matches {
            values.push(self.fu.value(v, i));
        }
        let mut kids = Vec::with_capacity(matches.len() * self.spliced_slots.len());
        for &(i, b_vid, j) in &matches {
            for s in 0..self.spliced_slots.len() {
                let (from_b, pos) = self.spliced_slots[s];
                kids.push(if from_b {
                    self.fu.kid(b_vid, j, pos)
                } else {
                    self.fu.kid(v, i, pos)
                });
            }
        }
        self.fu.push_mix(Mix {
            node,
            kid_count: self.spliced_slots.len() as u32,
            values,
            kids,
        })
    }
}

// ---------------------------------------------------------------------
// Projection leaf removal on the overlay
// ---------------------------------------------------------------------

/// Removal of one fully-projected leaf (step 2 of [`project_steps`]): every
/// union over the removed leaf's parent loses the leaf's kid slot (the kept
/// children are pure references — nothing below them changes), the leaf's
/// unions become unreachable, and a root leaf simply drops out of the root
/// list.
struct RemoveLeafPass<'f, 'a> {
    fu: &'f mut Fusion<'a>,
    leaf: NodeId,
    parent: Option<NodeId>,
    /// Ancestors of the leaf in the old tree (so including the parent).
    on_path: BTreeSet<NodeId>,
    /// The parent's kid positions that survive (everything but the leaf's).
    kept_slots: Vec<u32>,
}

impl<'f, 'a> RemoveLeafPass<'f, 'a> {
    fn new(fu: &'f mut Fusion<'a>, old_tree: &FTree, leaf: NodeId, parent: Option<NodeId>) -> Self {
        RemoveLeafPass {
            fu,
            leaf,
            parent,
            on_path: old_tree.ancestors(leaf).into_iter().collect(),
            kept_slots: parent
                .map(|p| {
                    let pos_leaf = child_pos(old_tree.children(p), leaf);
                    (0..old_tree.children(p).len() as u32)
                        .filter(|&k| k != pos_leaf)
                        .collect()
                })
                .unwrap_or_default(),
        }
    }

    fn apply(mut self) {
        let old_roots = self.fu.roots.clone();
        self.fu.roots = match self.parent {
            Some(_) => old_roots.iter().map(|&r| self.emit(r)).collect(),
            // A root leaf: its union simply drops out of the root product.
            None => old_roots
                .iter()
                .copied()
                .filter(|&r| self.fu.node_of(r) != self.leaf)
                .collect(),
        };
    }

    fn emit(&mut self, v: VId) -> VId {
        let node = self.fu.node_of(v);
        if Some(node) == self.parent {
            // Drop the leaf's kid slot; everything below the others is
            // unchanged.
            return rebuild_entries!(self, v, node, self.kept_slots.len() as u32, |i, k| self
                .fu
                .kid(v, i, self.kept_slots[k as usize]));
        }
        if !self.on_path.contains(&node) {
            return v;
        }
        // A strict ancestor above the parent.
        let kid_count = self.fu.kid_count_of(v);
        rebuild_entries!(self, v, node, kid_count, |i, k| {
            let kid = self.fu.kid(v, i, k);
            self.emit(kid)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enumerate::materialize;
    use crate::node::{Entry, Union};
    use crate::ops::{self, oracle};
    use fdb_common::AttrId;
    use fdb_ftree::DepEdge;

    fn attrs(ids: &[u32]) -> BTreeSet<AttrId> {
        ids.iter().map(|&i| AttrId(i)).collect()
    }

    /// The reference: the thaw-path oracle, operator by operator.
    fn stepwise(rep: &mut FRep, steps: &[FPlanOp]) {
        for op in steps {
            oracle::apply(rep, op).unwrap();
        }
    }

    /// Every way of running the program — in place through the executor's
    /// selection, and on the overlay whatever the program — must agree with
    /// the oracle bit for bit on the arena.
    fn check(rep: &FRep, steps: &[FPlanOp], context: &str) {
        let mut reference = rep.clone();
        stepwise(&mut reference, steps);
        let mut routed = rep.clone();
        execute_fused_ctx(&mut routed, steps, &ExecCtx::unlimited())
            .unwrap_or_else(|e| panic!("{context}: fused: {e:?}"));
        let overlay = emit_overlay(rep, steps, &ExecCtx::unlimited())
            .unwrap_or_else(|e| panic!("{context}: overlay: {e:?}"));
        for (path, fused) in [("executor", &routed), ("overlay", &overlay)] {
            fused
                .validate()
                .unwrap_or_else(|e| panic!("{context}: {path} result invalid: {e:?}"));
            assert!(
                fused.store_identical(&reference),
                "{context}: {path} and oracle stores diverge\n{path}:\n{}\noracle:\n{}",
                fused.dump_store(),
                reference.dump_store()
            );
            assert_eq!(
                fused.tree().canonical_key(),
                reference.tree().canonical_key(),
                "{context}: {path} tree diverges"
            );
        }
    }

    /// A{0} → B{1} → (C{2}, D{3}) with C dependent on A and D independent —
    /// the general swap shape with both a `G_ab` and an `F_b` part.
    fn swap_shape() -> (FRep, NodeId, NodeId) {
        let edges = vec![
            DepEdge::new("RAB", attrs(&[0, 1]), 3),
            DepEdge::new("RAC", attrs(&[0, 2]), 3),
            DepEdge::new("RBD", attrs(&[1, 3]), 3),
        ];
        let mut tree = FTree::new(edges);
        let a = tree.add_node(attrs(&[0]), None).unwrap();
        let b = tree.add_node(attrs(&[1]), Some(a)).unwrap();
        let c = tree.add_node(attrs(&[2]), Some(b)).unwrap();
        let d = tree.add_node(attrs(&[3]), Some(b)).unwrap();
        let b_entry = |bv: u64, cv: u64, dv: u64| Entry {
            value: Value::new(bv),
            children: vec![
                Union::new(c, vec![Entry::leaf(Value::new(cv))]),
                Union::new(d, vec![Entry::leaf(Value::new(dv))]),
            ],
        };
        // C is a function of A alone (it must not vary with B, or the
        // independence premise of the swap operators would not hold).
        let a_union = Union::new(
            a,
            vec![
                Entry {
                    value: Value::new(1),
                    children: vec![Union::new(
                        b,
                        vec![b_entry(10, 100, 7), b_entry(20, 100, 8)],
                    )],
                },
                Entry {
                    value: Value::new(2),
                    children: vec![Union::new(b, vec![b_entry(10, 300, 7)])],
                },
            ],
        );
        let rep = FRep::from_parts(tree, vec![a_union]).unwrap();
        (rep, a, b)
    }

    /// Two joined chains with a merge-able pair of roots after a product.
    fn product_shape() -> (FRep, NodeId, NodeId) {
        let side = |root_attr: u32, child_attr: u32, name: &str, rows: &[(u64, &[u64])]| {
            let edges = vec![DepEdge::new(
                name,
                attrs(&[root_attr, child_attr]),
                rows.len() as u64,
            )];
            let mut tree = FTree::new(edges);
            let root = tree.add_node(attrs(&[root_attr]), None).unwrap();
            let child = tree.add_node(attrs(&[child_attr]), Some(root)).unwrap();
            let entries = rows
                .iter()
                .map(|&(v, kids)| Entry {
                    value: Value::new(v),
                    children: vec![Union::new(
                        child,
                        kids.iter().map(|&k| Entry::leaf(Value::new(k))).collect(),
                    )],
                })
                .collect();
            FRep::from_parts(tree, vec![Union::new(root, entries)]).unwrap()
        };
        let left = side(0, 1, "R", &[(1, &[10]), (2, &[20, 21]), (3, &[30])]);
        let right = side(2, 3, "S", &[(2, &[77]), (3, &[88, 99]), (4, &[11])]);
        let rep = ops::product(left, right).unwrap();
        let a = rep.tree().node_of_attr(AttrId(0)).unwrap();
        let b = rep.tree().node_of_attr(AttrId(2)).unwrap();
        (rep, a, b)
    }

    #[test]
    fn fused_single_swap_matches_stepwise() {
        let (rep, _, b) = swap_shape();
        check(&rep, &[FPlanOp::Swap(b)], "single swap");
    }

    #[test]
    fn fused_swap_cycle_matches_stepwise() {
        let (rep, a, b) = swap_shape();
        // Swap B above A, then A back above B, then B up again: three full
        // regroupings whose intermediates the fusion never materialises.
        check(
            &rep,
            &[FPlanOp::Swap(b), FPlanOp::Swap(a), FPlanOp::Swap(b)],
            "swap cycle",
        );
        // The relation is preserved.
        let mut fused = rep.clone();
        let before = materialize(&rep).unwrap().tuple_set();
        execute_fused_ctx(
            &mut fused,
            &[FPlanOp::Swap(b), FPlanOp::Swap(a)],
            &ExecCtx::unlimited(),
        )
        .unwrap();
        assert_eq!(materialize(&fused).unwrap().tuple_set(), before);
    }

    #[test]
    fn fused_merge_then_swap_matches_stepwise() {
        let (rep, a, b) = product_shape();
        let child = rep.tree().node_of_attr(AttrId(1)).unwrap();
        check(
            &rep,
            &[
                FPlanOp::Merge(a, b),
                FPlanOp::Swap(child),
                FPlanOp::Normalise,
            ],
            "merge, swap, normalise",
        );
    }

    #[test]
    fn fused_absorb_with_trailing_normalise_matches_stepwise() {
        // Chain A{0} → B{1} → C{2}; absorbing C into A triggers the folded
        // prune and the replayed normalisation.
        let edges = vec![
            DepEdge::new("RAB", attrs(&[0, 1]), 4),
            DepEdge::new("RBC", attrs(&[1, 2]), 4),
        ];
        let mut tree = FTree::new(edges);
        let a = tree.add_node(attrs(&[0]), None).unwrap();
        let b = tree.add_node(attrs(&[1]), Some(a)).unwrap();
        let c = tree.add_node(attrs(&[2]), Some(b)).unwrap();
        let b_entry = |bv: u64, cs: &[u64]| Entry {
            value: Value::new(bv),
            children: vec![Union::new(
                c,
                cs.iter().map(|&v| Entry::leaf(Value::new(v))).collect(),
            )],
        };
        let a_union = Union::new(
            a,
            vec![
                Entry {
                    value: Value::new(1),
                    children: vec![Union::new(b, vec![b_entry(10, &[1, 3]), b_entry(11, &[2])])],
                },
                Entry {
                    value: Value::new(2),
                    children: vec![Union::new(b, vec![b_entry(10, &[1, 3])])],
                },
            ],
        );
        let rep = FRep::from_parts(tree, vec![a_union]).unwrap();
        check(&rep, &[FPlanOp::Absorb(a, c)], "absorb");
        check(
            &rep,
            &[FPlanOp::Absorb(a, c), FPlanOp::Normalise],
            "absorb then redundant normalise",
        );
    }

    #[test]
    fn fused_push_up_run_matches_stepwise() {
        // C{2} → A{0} → B{1} with B independent of both: normalisation lifts
        // B twice (to C, then out of C), all folded into one emission.
        let edges = vec![
            DepEdge::new("RCA", attrs(&[2, 0]), 2),
            DepEdge::new("SB", attrs(&[1]), 1),
        ];
        let mut tree = FTree::new(edges);
        let c = tree.add_node(attrs(&[2]), None).unwrap();
        let a = tree.add_node(attrs(&[0]), Some(c)).unwrap();
        let b = tree.add_node(attrs(&[1]), Some(a)).unwrap();
        let make_b = || Union::new(b, vec![Entry::leaf(Value::new(9))]);
        let make_a = |vals: &[u64]| {
            Union::new(
                a,
                vals.iter()
                    .map(|&v| Entry {
                        value: Value::new(v),
                        children: vec![make_b()],
                    })
                    .collect(),
            )
        };
        let c_union = Union::new(
            c,
            vec![
                Entry {
                    value: Value::new(1),
                    children: vec![make_a(&[10, 11])],
                },
                Entry {
                    value: Value::new(2),
                    children: vec![make_a(&[12])],
                },
            ],
        );
        let rep = FRep::from_parts(tree, vec![c_union]).unwrap();
        check(&rep, &[FPlanOp::PushUp(b)], "one push-up");
        check(&rep, &[FPlanOp::Normalise], "normalisation run");
    }

    #[test]
    fn fused_merge_with_empty_result_matches_stepwise() {
        let side = |root_attr: u32, child_attr: u32, name: &str, v: u64| {
            let edges = vec![DepEdge::new(name, attrs(&[root_attr, child_attr]), 1)];
            let mut tree = FTree::new(edges);
            let root = tree.add_node(attrs(&[root_attr]), None).unwrap();
            let child = tree.add_node(attrs(&[child_attr]), Some(root)).unwrap();
            FRep::from_parts(
                tree,
                vec![Union::new(
                    root,
                    vec![Entry {
                        value: Value::new(v),
                        children: vec![Union::new(child, vec![Entry::leaf(Value::new(v * 10))])],
                    }],
                )],
            )
            .unwrap()
        };
        let rep = ops::product(side(0, 1, "R", 1), side(2, 3, "S", 2)).unwrap();
        let a = rep.tree().node_of_attr(AttrId(0)).unwrap();
        let b = rep.tree().node_of_attr(AttrId(2)).unwrap();
        // Disjoint value sets: the merged union is empty, everything prunes.
        check(&rep, &[FPlanOp::Merge(a, b)], "merge to empty");
        let mut fused = rep.clone();
        execute_fused_ctx(&mut fused, &[FPlanOp::Merge(a, b)], &ExecCtx::unlimited()).unwrap();
        assert!(fused.represents_empty());
    }

    #[test]
    fn failing_segment_leaves_the_representation_untouched() {
        let (rep, a, _) = swap_shape();
        let mut fused = rep.clone();
        // Swapping a root is invalid; the error must surface before any data
        // is modified.
        assert!(execute_fused_ctx(&mut fused, &[FPlanOp::Swap(a)], &ExecCtx::unlimited()).is_err());
        assert!(fused.store_identical(&rep));
    }

    #[test]
    fn empty_segment_is_identity() {
        let (rep, _, _) = swap_shape();
        let mut fused = rep.clone();
        execute_fused_ctx(&mut fused, &[], &ExecCtx::unlimited()).unwrap();
        assert!(fused.store_identical(&rep));
    }

    /// Overlay aggregation must equal emitting the arena and aggregating it,
    /// for every kind and both grouped and ungrouped — on the plan's result.
    fn check_aggregates(rep: &FRep, steps: &[FPlanOp], context: &str) {
        use crate::aggregate::{evaluate_ctx, AggregateKind};
        let mut emitted = rep.clone();
        execute_fused_ctx(&mut emitted, steps, &ExecCtx::unlimited()).unwrap();
        let mut kinds = vec![AggregateKind::Count];
        for attr in emitted.visible_attrs() {
            kinds.extend([
                AggregateKind::Sum(attr),
                AggregateKind::Min(attr),
                AggregateKind::Max(attr),
                AggregateKind::Avg(attr),
                AggregateKind::CountDistinct(attr),
                AggregateKind::SumDistinct(attr),
                AggregateKind::AvgDistinct(attr),
            ]);
        }
        let group_sets: Vec<Vec<AttrId>> =
            std::iter::once(Vec::new())
                .chain(
                    emitted.tree().roots().iter().flat_map(|&r| {
                        emitted.tree().visible_attrs(r).into_iter().map(|a| vec![a])
                    }),
                )
                .collect();
        for &kind in &kinds {
            for group in &group_sets {
                let on_arena = evaluate_ctx(&emitted, kind, group, &ExecCtx::unlimited()).unwrap();
                let on_overlay =
                    execute_fused_aggregate_ctx(rep, steps, kind, group, &ExecCtx::unlimited())
                        .unwrap();
                assert_eq!(
                    on_overlay, on_arena,
                    "{context}: {kind} group_by {group:?} diverges between overlay and arena"
                );
            }
        }
    }

    #[test]
    fn overlay_aggregates_match_the_emitted_arena() {
        let (rep, a, b) = swap_shape();
        check_aggregates(&rep, &[], "no steps");
        check_aggregates(&rep, &[FPlanOp::Swap(b)], "single swap");
        check_aggregates(
            &rep,
            &[FPlanOp::Swap(b), FPlanOp::Swap(a), FPlanOp::Swap(b)],
            "swap cycle",
        );
        let (rep, a, b) = product_shape();
        let child = rep.tree().node_of_attr(AttrId(1)).unwrap();
        check_aggregates(
            &rep,
            &[
                FPlanOp::Merge(a, b),
                FPlanOp::Swap(child),
                FPlanOp::Normalise,
            ],
            "merge, swap, normalise",
        );
    }

    #[test]
    fn overlay_aggregates_handle_mid_segment_emptying() {
        // Merge over disjoint value sets empties the representation inside
        // the program; the aggregate must see the empty result.
        use crate::aggregate::AggregateValue;
        let side = |root_attr: u32, child_attr: u32, name: &str, v: u64| {
            let edges = vec![DepEdge::new(name, attrs(&[root_attr, child_attr]), 1)];
            let mut tree = FTree::new(edges);
            let root = tree.add_node(attrs(&[root_attr]), None).unwrap();
            let child = tree.add_node(attrs(&[child_attr]), Some(root)).unwrap();
            FRep::from_parts(
                tree,
                vec![Union::new(
                    root,
                    vec![Entry {
                        value: Value::new(v),
                        children: vec![Union::new(child, vec![Entry::leaf(Value::new(v * 10))])],
                    }],
                )],
            )
            .unwrap()
        };
        let rep = ops::product(side(0, 1, "R", 1), side(2, 3, "S", 2)).unwrap();
        let a = rep.tree().node_of_attr(AttrId(0)).unwrap();
        let b = rep.tree().node_of_attr(AttrId(2)).unwrap();
        let steps = [FPlanOp::Merge(a, b)];
        check_aggregates(&rep, &steps, "merge to empty");
        let count = execute_fused_aggregate_ctx(
            &rep,
            &steps,
            crate::aggregate::AggregateKind::Count,
            &[],
            &ExecCtx::unlimited(),
        )
        .unwrap();
        assert_eq!(
            count,
            AggregateResult::Scalar(AggregateValue::Count(0)),
            "an emptied overlay counts zero tuples"
        );
    }

    fn select(attr: u32, op: ComparisonOp, value: u64) -> FPlanOp {
        FPlanOp::SelectConst {
            attr: AttrId(attr),
            op,
            value: Value::new(value),
        }
    }

    #[test]
    fn fused_selection_matches_stepwise() {
        let (rep, _, b) = swap_shape();
        // Root selection, inner selection, one that empties a mid-tree union
        // (D keeps nothing, pruning cascades to the root), one binding a
        // constant, and selections composed with structural steps.
        for steps in [
            vec![select(0, ComparisonOp::Ge, 2)],
            vec![select(3, ComparisonOp::Le, 7)],
            vec![select(3, ComparisonOp::Gt, 99)],
            vec![select(0, ComparisonOp::Eq, 1)],
            vec![FPlanOp::Swap(b), select(1, ComparisonOp::Ne, 10)],
            vec![
                select(2, ComparisonOp::Ge, 100),
                FPlanOp::Swap(b),
                select(0, ComparisonOp::Le, 1),
                FPlanOp::Normalise,
            ],
        ] {
            check(&rep, &steps, &format!("selection program {steps:?}"));
        }
    }

    /// A lone selection is governed end to end: its exact unit total
    /// succeeds with nothing to spare, one unit less is a budget error, a
    /// raised cancellation flag a deadline error — and whatever happens, the
    /// borrowed input stays as it was.
    #[test]
    fn lone_selection_is_governed_and_leaves_the_input_untouched() {
        use fdb_common::QueryLimits;
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;
        let (rep, _, _) = swap_shape();
        let input = rep.clone();
        let program = [select(3, ComparisonOp::Le, 7)];
        let run = |limits: &QueryLimits| {
            let ctx = ExecCtx::new(limits);
            let result = emit_fused_ctx(&rep, &program, &ctx);
            assert!(rep.store_identical(&input));
            (result, ctx.budget_remaining())
        };
        let ample = 1 << 20;
        let (ungoverned, left) = run(&QueryLimits::unlimited().with_budget(ample));
        let expected = ungoverned.unwrap();
        let units = ample - left;
        // The sweep reads every input record, the emission writes every
        // output record, and in between the dirty-region walk rebuilds the
        // two unions above the one dead entry: the root (1 + 2 entries) and
        // the B-union under A=1 (1 + 2).
        let records = |r: &FRep| (r.store().unions.len() + r.store().entry_count()) as u64;
        assert_eq!((records(&rep), records(&expected)), (20, 15));
        assert_eq!(units, 20 + 6 + 15);

        let (exact, left) = run(&QueryLimits::unlimited().with_budget(units));
        assert!(exact.unwrap().store_identical(&expected));
        assert_eq!(left, 0);
        let (short, _) = run(&QueryLimits::unlimited().with_budget(units - 1));
        assert!(matches!(short, Err(FdbError::BudgetExceeded { .. })));
        let cancel = Arc::new(AtomicBool::new(true));
        let (cancelled, _) = run(&QueryLimits::unlimited().with_cancel(cancel));
        assert!(matches!(cancelled, Err(FdbError::DeadlineExceeded { .. })));
    }

    #[test]
    fn fused_projection_matches_stepwise() {
        let (rep, _, b) = swap_shape();
        // Leaf projection, inner-node projection (forcing the swap-down
        // path), projection to nothing, and programs mixing projections
        // with selections and swaps.
        for steps in [
            vec![FPlanOp::Project(attrs(&[0, 1, 2]))],
            vec![FPlanOp::Project(attrs(&[0, 2, 3]))],
            vec![FPlanOp::Project(attrs(&[2]))],
            vec![FPlanOp::Project(attrs(&[]))],
            vec![
                select(3, ComparisonOp::Le, 7),
                FPlanOp::Project(attrs(&[0, 1, 3])),
            ],
            vec![
                FPlanOp::Project(attrs(&[0, 1, 3])),
                FPlanOp::Swap(b),
                FPlanOp::Normalise,
            ],
        ] {
            check(&rep, &steps, &format!("projection program {steps:?}"));
        }
    }

    #[test]
    fn fused_selection_on_missing_attribute_fails_cleanly() {
        let (rep, _, _) = swap_shape();
        let mut fused = rep.clone();
        assert!(execute_fused_ctx(
            &mut fused,
            &[select(9, ComparisonOp::Eq, 1)],
            &ExecCtx::unlimited()
        )
        .is_err());
        assert!(fused.store_identical(&rep));
    }

    #[test]
    fn trailing_selections_fold_into_the_aggregate_filter() {
        use crate::aggregate::evaluate_ctx;
        let (rep, a, b) = swap_shape();
        // Programs ending in selections: the fold must agree with emitting
        // the selected arena and aggregating it.
        let programs: Vec<Vec<FPlanOp>> = vec![
            vec![select(0, ComparisonOp::Ge, 2)],
            vec![
                select(3, ComparisonOp::Le, 7),
                select(0, ComparisonOp::Ne, 2),
            ],
            vec![select(2, ComparisonOp::Gt, 99)],
            vec![FPlanOp::Swap(b), select(1, ComparisonOp::Ne, 10)],
            vec![
                FPlanOp::Swap(b),
                FPlanOp::Swap(a),
                select(0, ComparisonOp::Eq, 1),
                select(3, ComparisonOp::Ge, 8),
            ],
        ];
        for steps in &programs {
            let mut emitted = rep.clone();
            execute_fused_ctx(&mut emitted, steps, &ExecCtx::unlimited()).unwrap();
            check_aggregates(&rep, steps, &format!("trailing selections {steps:?}"));
            // And explicitly against the emitted arena for COUNT.
            let on_arena =
                evaluate_ctx(&emitted, AggregateKind::Count, &[], &ExecCtx::unlimited()).unwrap();
            let folded = execute_fused_aggregate_ctx(
                &rep,
                steps,
                AggregateKind::Count,
                &[],
                &ExecCtx::unlimited(),
            )
            .unwrap();
            assert_eq!(folded, on_arena, "{steps:?}");
        }
    }

    #[test]
    fn projection_then_aggregate_runs_on_the_overlay() {
        let (rep, _, _) = swap_shape();
        // Projection dedups: COUNT after π must be the distinct count.
        let steps = vec![FPlanOp::Project(attrs(&[0, 3]))];
        check_aggregates(&rep, &steps, "projection then aggregate");
    }

    /// A{0} → B{1} → (C{2}, D{3}): A ∈ 0..4, B ∈ a..a+3 under A = a, one C
    /// value and two D values under each B entry.
    fn nested_shape() -> FRep {
        let edges = vec![
            DepEdge::new("RAB", attrs(&[0, 1]), 12),
            DepEdge::new("RBC", attrs(&[1, 2]), 12),
            DepEdge::new("RBD", attrs(&[1, 3]), 24),
        ];
        let mut tree = FTree::new(edges);
        let a = tree.add_node(attrs(&[0]), None).unwrap();
        let b = tree.add_node(attrs(&[1]), Some(a)).unwrap();
        let c = tree.add_node(attrs(&[2]), Some(b)).unwrap();
        let d = tree.add_node(attrs(&[3]), Some(b)).unwrap();
        let leaf = |node, values: &[u64]| {
            Union::new(
                node,
                values.iter().map(|&v| Entry::leaf(Value::new(v))).collect(),
            )
        };
        let b_entry = |bv: u64| Entry {
            value: Value::new(bv),
            children: vec![leaf(c, &[bv % 2]), leaf(d, &[bv, bv + 1])],
        };
        let a_entry = |av: u64| Entry {
            value: Value::new(av),
            children: vec![Union::new(b, (av..av + 3).map(b_entry).collect())],
        };
        FRep::from_parts(tree, vec![Union::new(a, (0..4).map(a_entry).collect())]).unwrap()
    }

    /// The filtered fold is governed to the unit, `1 + len` per union it
    /// visits: its exact total succeeds with nothing to spare, one unit less
    /// is a budget error.
    #[test]
    fn filtered_aggregates_charge_one_plus_len_per_union_visited() {
        use fdb_common::QueryLimits;
        let rep = nested_shape();
        // The root (1 + 4) and the four B-unions (4 · (1 + 3)) are visited
        // whole; the C (1 + 1) and D (1 + 2) leaves only under the 9 B
        // entries with B ≥ 2.
        let total = 5 + 4 * 4 + 9 * (2 + 3);
        let programs = [
            (vec![select(1, ComparisonOp::Ge, 2)], AggregateKind::Count),
            (
                vec![
                    select(1, ComparisonOp::Ge, 2),
                    select(3, ComparisonOp::Le, 4),
                ],
                AggregateKind::Sum(AttrId(3)),
            ),
        ];
        for (program, kind) in programs {
            let mut emitted = rep.clone();
            execute_fused_ctx(&mut emitted, &program, &ExecCtx::unlimited()).unwrap();
            let expected = crate::aggregate::by_enumeration(&emitted, kind, &[]).unwrap();
            let ctx = ExecCtx::new(&QueryLimits::unlimited().with_budget(total));
            let folded = execute_fused_aggregate_ctx(&rep, &program, kind, &[], &ctx);
            assert_eq!((folded.unwrap(), ctx.budget_remaining()), (expected, 0));
            let ctx = ExecCtx::new(&QueryLimits::unlimited().with_budget(total - 1));
            let short = execute_fused_aggregate_ctx(&rep, &program, kind, &[], &ctx);
            assert!(
                matches!(short, Err(FdbError::BudgetExceeded { .. })),
                "{kind}"
            );
        }
    }
}
