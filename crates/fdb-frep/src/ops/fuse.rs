//! F-plan execution: every operator of the paper's Section 3 as a pass over
//! one overlay, and a whole plan as one arena emission.
//!
//! This module **is** the data-level definition of the structural
//! operators.  Each one exists once, as a step over one overlay.  Push-up
//! `ψ` ([`push_up_step`]), swap `χ` ([`swap_step`]), merge `µ`
//! ([`merge_step`]), absorb `α` ([`absorb_step`]) and the leaf removals of
//! projection `π` ([`remove_leaf_step`]) change only the unions over one
//! node, so each is one *edit* of the single restructuring walk
//! [`rewrite_below`], which rebuilds the path of unions above them.
//! Normalisation `η` and projection `π` are composites: `fdb_ftree` decides
//! their sequence of push-ups, swap-downs and leaf removals on the tree
//! ([`FTree::normalise`], [`FTree::project`]) and [`edit_step`] mirrors each
//! one here, so a plan's simulated trees are exactly the trees its
//! execution yields.  Selection with a constant `σ` is [`Fusion::filter`].
//! The paper formula and the cost bound of each operator are on its step.
//! A single operator is the one-operator program, and the thaw-path
//! [`crate::ops::oracle`] is the independent reference every step is pinned
//! against bit for bit.
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
//! * a **constant selection** is one walk down the selected node's path
//!   ([`Fusion::filter`]): the selected unions keep a contiguous range of
//!   their entries, the ancestors drop the entries whose path kid emptied,
//!   and everything off the path stays a `Src` reference;
//! * a **projection** runs the edits [`FTree::project`] hands it on the
//!   overlay ([`edit_step`]): fully-projected leaves drop via
//!   [`remove_leaf_step`] (the parent unions lose one kid slot — pure header
//!   remaps), and fully-projected inner nodes swap downwards through the
//!   same [`swap_step`] that serves explicit swap steps, until they become
//!   removable leaves.
//!
//! An entire f-plan — one operator or twenty — therefore compiles into
//! **one** [`FPlanOp`] program and executes as one pass:
//!
//! 1. Each step advances a copy of the input's f-tree through the
//!    operator's tree definition, which validates the operator before its
//!    overlay edit; the input is only borrowed, so a failing program leaves
//!    it unmodified.
//! 2. Each step is applied to an **overlay**: a forest of virtual unions
//!    where a [`VId`] either points at an untouched union of the *input*
//!    arena (a `Src` reference — O(1) to create, nothing is copied) or at a
//!    [`Mix`] node materialising just the regrouped/spliced/merged region.
//! 3. No union below a root of an input is empty: every writer emits the
//!    reduced form and [`crate::store::Store::validate`] refuses any other,
//!    so an untouched region never needs pruning.  The merge/absorb prune
//!    ([`Fusion::prune`]) therefore visits the `Mix` nodes alone and
//!    propagates their emptiness upwards — no intermediate re-emission.  A
//!    selection ([`Fusion::filter`]) reads only the unions on the selected
//!    node's path.  On the selected node a `≤ < ≥ > =` comparison keeps one
//!    contiguous range of a sorted union, found by binary search: a range
//!    of an input union becomes a [`Run`], its values with no kid
//!    references (`≠` drops at most one entry and rebuilds the union).  Above it, an entry whose path
//!    kid came back empty is dropped and a union is rebuilt only if
//!    something changed, so a union emptied below a root needs no node.
//! 4. Normalisation (and absorb's trailing normalisation) runs the push-ups
//!    [`FTree::normalise`] hands it as overlay push-ups: the sequence is
//!    computable from the tree alone, so it collapses into pure header
//!    remaps on the overlay — one emission applies all of them at once.
//! 5. A single final [`Rewriter`] emission walks the overlay: `Mix` nodes
//!    emit their own records, `Src` and `Run` references emit through
//!    [`Rewriter::copy_run`] — for an input in the freeze layout (every
//!    operator result and loaded snapshot; see [`crate::store`]) one
//!    relocating block copy of the run and all the subtrees below it, not a
//!    walk over its records, so emission costs what the program changed
//!    plus a `memcpy` of what it did not.  The output is the exact
//!    [`crate::store::Store::freeze`] layout, so a program is **bit-for-bit
//!    identical** to applying the oracle operator by operator — the
//!    randomized equivalence suite asserts store identity.
//!
//! Total data movement for a k-step program: the touched regions plus
//! **one** full copy, instead of k.  Aggregate consumers skip even that one
//! copy: [`execute_fused_aggregate_ctx`] folds the aggregate (and the program's
//! trailing selections, as entry filters) directly over the overlay.

use crate::aggregate::{
    Acc, Accumulator, AggFilter, AggTarget, AggregateKind, AggregateResult, CountAcc, DistinctAcc,
    GroupKey, SumAcc,
};
use crate::frep::FRep;
use crate::kernel;
use crate::ops::{child_pos, debug_validate};
use crate::store::{kid_count_table, Rewriter, Store};
use fdb_common::limits::CHECK_INTERVAL;
use fdb_common::{failpoint, AttrId, ComparisonOp, ExecCtx, FdbError, Result, Value};
use fdb_ftree::{FTree, NodeId, TreeEdit};
use std::cmp::Ordering;
use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::ops::Range;

/// One f-plan operator — the paper's vocabulary (Section 3), defined once.
/// A plan is a sequence of these (`fdb_plan::FPlan`); the same value is
/// *simulated* on an f-tree alone ([`FPlanOp::apply_to_tree`], how the
/// optimisers cost a plan without touching data) and *executed* as a step of
/// an overlay program, both through the operator's one tree definition in
/// `fdb_ftree`: constant selections become one walk down the selected node's
/// path, and projections run their leaf removals and
/// data-dependent swap-downs on the overlay (see the module docs).
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
    /// entries whose product became empty — on the overlay, one walk down
    /// the attribute's path.
    SelectConst {
        /// Attribute compared against the constant.
        attr: AttrId,
        /// Comparison operator.
        op: ComparisonOp,
        /// The constant.
        value: Value,
    },
    /// Projection `π` onto the given attributes: the leaf removals and
    /// swap-downs of fully-projected inner nodes that [`FTree::project`]
    /// decides, both on the tree and, executed, as edits of the one
    /// restructuring walk (see the module docs).
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
    /// Applies the operator to an f-tree only (schema-level simulation):
    /// exactly the tree its execution yields, because both run the one
    /// definition of the operator's tree effect in `fdb_ftree` — the
    /// composite ones ([`FTree::normalise`], [`FTree::project`]) with each
    /// primitive edit applied by [`FTree::apply_edit`].
    pub fn apply_to_tree(&self, tree: &mut FTree) -> Result<()> {
        match self {
            FPlanOp::PushUp(n) => tree.push_up(*n),
            FPlanOp::Normalise => tree.normalise(FTree::apply_edit),
            FPlanOp::Swap(n) => tree.swap_with_parent(*n).map(drop),
            FPlanOp::Merge(a, b) => tree.merge_siblings(*a, *b).map(drop),
            FPlanOp::Absorb(a, b) => {
                tree.absorb_into_ancestor(*a, *b)?;
                tree.normalise(FTree::apply_edit)
            }
            FPlanOp::SelectConst { attr, op, value } => {
                let node = select_node(tree, *attr)?;
                if *op == ComparisonOp::Eq {
                    tree.bind_constant(node, *value)?;
                }
                Ok(())
            }
            FPlanOp::Project(keep) => tree.project(keep, FTree::apply_edit),
        }
    }
}

/// The plan executor: runs a program of f-plan operators — structural
/// operators, constant selections and projections alike — on the overlay
/// over the **borrowed** input and emits the result as one arena pass,
/// bit for bit what applying the thaw-path [`crate::ops::oracle`] operator
/// by operator produces.  Nothing is cloned and an abort leaves nothing
/// behind.  The deadline and cancellation are checked before
/// every operator; the selection walks, the overlay prunes and the final
/// emission charge the context per record they read and write.  The
/// restructuring walk ([`rewrite_below`], under swap, push-up, merge,
/// absorb and leaf removal) charges nothing itself: what it builds is
/// charged when it is emitted.
pub fn emit_fused_ctx(rep: &FRep, ops: &[FPlanOp], ctx: &ExecCtx) -> Result<FRep> {
    failpoint!(ctx, "fuse.execute");
    let mut fusion = Fusion::new(rep.store(), rep.tree(), ctx);
    let mut cur = rep.tree().clone();
    for op in ops {
        ctx.check_now()?;
        apply_op(&mut fusion, &mut cur, op)?;
    }
    let out = fusion.into_rep(rep, cur)?.canonical();
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
/// steps rebuild every region whose shape changes), and `COUNT`/`SUM` use
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
        filter.push(select_node(&cur, *attr)?, *cmp, *value);
        op.apply_to_tree(&mut cur)?;
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
/// overlay accordingly.  Normalisation and projection take their sequence of
/// primitive edits from their one tree definition in `fdb_ftree`
/// ([`FTree::normalise`], [`FTree::project`]); [`edit_step`] mirrors each
/// edit on the overlay.
fn apply_op(fusion: &mut Fusion<'_>, cur: &mut FTree, op: &FPlanOp) -> Result<()> {
    match op {
        FPlanOp::PushUp(b) => push_up_step(fusion, cur, *b),
        FPlanOp::Normalise => cur.normalise(|t, edit| edit_step(fusion, t, edit)),
        FPlanOp::Swap(b) => swap_step(fusion, cur, *b),
        FPlanOp::Merge(a, b) => merge_step(fusion, cur, *a, *b),
        FPlanOp::Absorb(a, b) => absorb_step(fusion, cur, *a, *b),
        FPlanOp::SelectConst {
            attr,
            op: cmp,
            value,
        } => {
            fusion.filter(cur, select_node(cur, *attr)?, *cmp, *value)?;
            op.apply_to_tree(cur)
        }
        FPlanOp::Project(keep) => cur.project(keep, |t, edit| edit_step(fusion, t, edit)),
    }
}

/// One primitive edit of normalisation `η` or projection `π`, tree and
/// overlay together.
///
/// Normalisation lifts with push-ups alone; the push-up sequence is known
/// from the tree, so the whole sequence collapses into header remaps on the
/// overlay.  Projection replaces the singletons of every attribute outside
/// the projection list with the nullary singleton `⟨⟩`: a fully-projected
/// leaf goes by a [`remove_leaf_step`] (pure header remaps, nothing is
/// copied), and a fully-projected inner node swaps down, by the same
/// data-dependent [`swap_step`] as an explicit swap, until it is a leaf.
/// The represented relation afterwards is the projection, with set
/// semantics — a factorised representation never stores duplicate tuples.
fn edit_step(fu: &mut Fusion<'_>, cur: &mut FTree, edit: TreeEdit) -> Result<()> {
    match edit {
        TreeEdit::PushUp(b) => push_up_step(fu, cur, b),
        TreeEdit::Swap(b) => swap_step(fu, cur, b),
        TreeEdit::RemoveLeaf(leaf) => remove_leaf_step(fu, cur, leaf),
    }
}

// ---------------------------------------------------------------------
// The overlay
// ---------------------------------------------------------------------

/// Tag bit marking a [`VId`] as a reference into the input arena.
const SRC_BIT: u32 = 1 << 31;

/// A virtual union: either an untouched union of the input arena (`Src`) or
/// an overlay [`Mix`] node built by one of the steps.
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
/// (then-current) f-tree child order — or, for a [`Run`], no kids: they are
/// the input entries'.
struct Mix {
    node: NodeId,
    kid_count: u32,
    values: Vec<Value>,
    kids: Vec<VId>,
    run: Option<Run>,
}

/// The entries `start..end` of input union `uid`, their kids untouched:
/// what a selection keeps of a union.  A `Src` reference is the run of all
/// its entries.
#[derive(Clone, Copy)]
struct Run {
    uid: u32,
    start: u32,
    end: u32,
}

/// The program's state: the immutable input arena plus the overlay
/// forest the steps transform.
struct Fusion<'a> {
    src: &'a Store,
    /// Child counts of the *input* f-tree, indexed by node index (valid for
    /// every `Src` reference: untouched regions keep their tree shape).
    src_kid_counts: Vec<u32>,
    mixes: Vec<Mix>,
    roots: Vec<VId>,
    /// Governance context: the selection walks, prunes and the final
    /// emission charge it per record touched.
    ctx: &'a ExecCtx,
}

impl<'a> Fusion<'a> {
    fn new(src: &'a Store, tree: &FTree, ctx: &'a ExecCtx) -> Fusion<'a> {
        Fusion {
            src,
            src_kid_counts: kid_count_table(tree),
            mixes: Vec::new(),
            roots: src.roots.iter().map(|&r| VId::src(r)).collect(),
            ctx,
        }
    }

    /// Pushes a `Mix` node over `node` with `kid_count` kid slots an entry.
    fn push_mix(
        &mut self,
        node: NodeId,
        kid_count: u32,
        values: Vec<Value>,
        kids: Vec<VId>,
    ) -> VId {
        let id = VId::mix(self.mixes.len());
        self.mixes.push(Mix {
            node,
            kid_count,
            values,
            kids,
            run: None,
        });
        id
    }

    /// The input union and entry range behind a `Src` reference or a run.
    fn run_of(&self, v: VId) -> Option<Run> {
        let Some(uid) = v.as_src() else {
            return self.mixes[v.mix_index()].run;
        };
        let end = self.src.union_len(uid);
        Some(Run { uid, start: 0, end })
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
            None => match &self.mixes[v.mix_index()] {
                Mix { run: Some(run), .. } => VId::src(self.src.kid(run.uid, run.start + i, k)),
                mix => mix.kids[(i * mix.kid_count + k) as usize],
            },
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

    /// The position in the root list of the root union over `node`.
    fn root_over(&self, node: NodeId) -> usize {
        (self.roots.iter())
            .position(|&r| self.node_of(r) == node)
            .expect("validated representation: one root union per root node")
    }

    // -----------------------------------------------------------------
    // The selection walk and the merge/absorb prune
    // -----------------------------------------------------------------

    /// The selection operator `σ_{A θ c}` on `node` of the current tree:
    /// one walk from the root down `node`'s path, charging `1 + len` per
    /// union it reads.  A union off the path stays its reference.  On
    /// `node` the kept entries are one contiguous range (for `≠`, all but at
    /// most one): a union keeping everything stays its reference, a range of
    /// an input union becomes a [`Run`], anything else is rebuilt.  Above
    /// it, a union drops the entries whose path kid came back empty and is
    /// rebuilt only if something changed.  An emptied union needs no node,
    /// its parent just drops the entry; only an emptied root becomes an
    /// empty union.
    fn filter(&mut self, cur: &FTree, node: NodeId, cmp: ComparisonOp, value: Value) -> Result<()> {
        let (path, slots) = path_to(cur, node);
        let r = self.root_over(path[0]);
        let kept = self.select_below(self.roots[r], &slots, cmp, value)?;
        self.roots[r] = kept.unwrap_or_else(|| self.empty_like(self.roots[r]));
        Ok(())
    }

    /// [`Fusion::filter`] at union `v`, `slots` the rest of the path: what
    /// the union keeps, `None` if nothing.
    fn select_below(
        &mut self,
        v: VId,
        slots: &[u32],
        cmp: ComparisonOp,
        value: Value,
    ) -> Result<Option<VId>> {
        let (len, kid_count) = (self.len(v), self.kid_count_of(v));
        self.ctx.charge(1 + len as u64)?;
        let Some((&slot, rest)) = slots.split_first() else {
            return Ok(self.select_entries(v, cmp, value));
        };
        // The rebuilt union's values and kids, from the first change on.
        let mut rebuilt: Option<(Vec<Value>, Vec<VId>)> = None;
        for i in 0..len {
            let kid = self.kid(v, i, slot);
            let selected = self.select_below(kid, rest, cmp, value)?;
            if rebuilt.is_none() && selected == Some(kid) {
                continue;
            }
            let (values, kids) = rebuilt.get_or_insert_with(|| self.entries(v, 0..i as usize));
            if let Some(selected) = selected {
                values.push(self.value(v, i));
                kids.extend((0..kid_count).map(|k| self.kid(v, i, k)));
                kids[(values.len() - 1) * kid_count as usize + slot as usize] = selected;
            }
        }
        Ok(match rebuilt {
            None => Some(v),
            Some((values, kids)) => self.rebuilt(v, values, kids),
        })
    }

    /// The selection on one union over the selected node.
    fn select_entries(&mut self, v: VId, cmp: ComparisonOp, value: Value) -> Option<VId> {
        let (range, hole) = selected_entries(self.values(v), cmp, value);
        let kept = range.len() - usize::from(hole.is_some());
        if kept == self.len(v) as usize {
            return Some(v);
        }
        if kept == 0 {
            return None;
        }
        match (self.run_of(v), hole) {
            (Some(run), None) => {
                let (start, end) = (run.start + range.start as u32, run.start + range.end as u32);
                let (node, kid_count) = (self.node_of(v), self.kid_count_of(v));
                let values = self.values(v)[range].to_vec();
                let kept = self.push_mix(node, kid_count, values, Vec::new());
                self.mixes[kept.mix_index()].run = Some(Run { start, end, ..run });
                Some(kept)
            }
            _ => {
                let (mut values, mut kids) = self.entries(v, range);
                if let Some(hole) = hole {
                    let kid_count = self.kid_count_of(v) as usize;
                    values.remove(hole);
                    kids.drain(hole * kid_count..(hole + 1) * kid_count);
                }
                self.rebuilt(v, values, kids)
            }
        }
    }

    /// The values and kids of entries `range` of union `v`, with room for
    /// all of its entries.
    fn entries(&self, v: VId, range: Range<usize>) -> (Vec<Value>, Vec<VId>) {
        let (len, kid_count) = (self.len(v) as usize, self.kid_count_of(v));
        let mut values = Vec::with_capacity(len);
        let mut kids = Vec::with_capacity(len * kid_count as usize);
        values.extend_from_slice(&self.values(v)[range.clone()]);
        for i in range {
            kids.extend((0..kid_count).map(|k| self.kid(v, i as u32, k)));
        }
        (values, kids)
    }

    /// A `Mix` node over `v`'s node holding `values` and `kids`, `None` when
    /// it would hold no entry.
    fn rebuilt(&mut self, v: VId, values: Vec<Value>, kids: Vec<VId>) -> Option<VId> {
        let (node, kid_count) = (self.node_of(v), self.kid_count_of(v));
        (!values.is_empty()).then(|| self.push_mix(node, kid_count, values, kids))
    }

    /// An empty `Mix` over `v`'s node, with its kid slots: what is left of
    /// an emptied root.
    fn empty_like(&mut self, v: VId) -> VId {
        let (node, kid_count) = (self.node_of(v), self.kid_count_of(v));
        self.push_mix(node, kid_count, Vec::new(), Vec::new())
    }

    /// The prune that follows a merge or an absorb: drops entries whose
    /// product became empty (some kid union without entries), propagating
    /// upwards; root unions may end up empty.  No input union below a root
    /// is empty (see [`crate::store`]), so only `Mix` nodes are visited and
    /// rebuilt: `Src` and `Run` references pass through.
    fn prune(&mut self) -> Result<()> {
        for r in 0..self.roots.len() {
            let kept = self.prune_union(self.roots[r])?;
            self.roots[r] = kept.unwrap_or_else(|| self.empty_like(self.roots[r]));
        }
        Ok(())
    }

    /// Prunes one virtual union: what it keeps, `None` if nothing.  An entry
    /// is dropped at its first empty kid, so the kids after it are not
    /// visited.
    fn prune_union(&mut self, v: VId) -> Result<Option<VId>> {
        let (len, kid_count) = (self.len(v), self.kid_count_of(v));
        if self.run_of(v).is_some() {
            return Ok((len > 0).then_some(v));
        }
        self.ctx.charge(1 + len as u64)?;
        let (mut values, mut kids) = (Vec::new(), Vec::new());
        'entries: for i in 0..len {
            let mark = kids.len();
            for k in 0..kid_count {
                let Some(kid) = self.prune_union(self.kid(v, i, k))? else {
                    kids.truncate(mark);
                    continue 'entries;
                };
                kids.push(kid);
            }
            values.push(self.value(v, i));
        }
        Ok(self.rebuilt(v, values, kids))
    }

    // -----------------------------------------------------------------
    // Final emission
    // -----------------------------------------------------------------

    /// The single output pass: walks the overlay in root order and emits the
    /// final arena over `tree` in the exact `Store::freeze` layout through a
    /// [`Rewriter`] — `Src` and `Run` references become block copies
    /// ([`Rewriter::copy_run`]), `Mix` nodes emit their own headers,
    /// value blocks and kid runs — and records the result's size and tuple
    /// count as it goes.
    fn into_rep(self, input: &FRep, tree: FTree) -> Result<FRep> {
        let mut rw = Rewriter::new(input, &tree);
        let mut tuples = 1u128;
        let roots: Vec<u32> = (self.roots.iter())
            .map(|&r| {
                let (out, count) = emit_union(&mut rw, &self, r)?;
                tuples = tuples.wrapping_mul(count);
                Ok(out)
            })
            .collect::<Result<_>>()?;
        let size = rw.emitted_size();
        let store = rw.finish(roots);
        Ok(FRep::from_store(tree, store, Some((size, tuples))))
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

/// Recursive emission of one virtual union (see [`Fusion::into_rep`]);
/// returns its output index and tuple count.  Charges the governance
/// context for every record written: `Mix` unions charge their own header
/// and value block, `Src` and `Run` copies ([`Rewriter::copy_run`]) the
/// [`Rewriter::emitted_units`] delta they produce.
fn emit_union(rw: &mut Rewriter<'_>, fu: &Fusion<'_>, v: VId) -> Result<(u32, u128)> {
    if let Some(run) = fu.run_of(v) {
        let before = rw.emitted_units();
        let copied = rw.copy_run(run.uid, run.start..run.end);
        fu.ctx.charge(rw.emitted_units() - before)?;
        return Ok(copied);
    }
    let mix = &fu.mixes[v.mix_index()];
    fu.ctx.charge(1 + mix.values.len() as u64)?;
    let out = rw.begin_union_raw(mix.node, mix.values.len() as u32);
    for &value in &mix.values {
        rw.push_value(value);
    }
    let kc = mix.kid_count as usize;
    let mut tuples = 0u128;
    for i in 0..mix.values.len() {
        let mark = rw.mark();
        let mut product = 1u128;
        for k in 0..kc {
            let (kid, count) = emit_union(rw, fu, mix.kids[i * kc + k])?;
            rw.push_kid(kid);
            product = product.wrapping_mul(count);
        }
        tuples = tuples.wrapping_add(product);
        rw.end_entry(out, i as u32, mark);
    }
    Ok((out, tuples))
}

/// The entries of a strictly increasing value slice whose value `v`
/// satisfies `v θ c`: one contiguous range, and for `≠` the whole slice
/// with a hole at `c`'s entry, if it has one.
fn selected_entries(
    values: &[Value],
    cmp: ComparisonOp,
    c: Value,
) -> (Range<usize>, Option<usize>) {
    let below = kernel::lower_bound(values, c);
    let through = below + usize::from(values.get(below) == Some(&c));
    match cmp {
        ComparisonOp::Lt => (0..below, None),
        ComparisonOp::Le => (0..through, None),
        ComparisonOp::Gt => (through..values.len(), None),
        ComparisonOp::Ge => (below..values.len(), None),
        ComparisonOp::Eq => (below..through, None),
        ComparisonOp::Ne => (0..values.len(), (through > below).then_some(below)),
    }
}

/// The path from a root of `tree` down to `node`, and the kid slot of each
/// path node towards the next.
fn path_to(tree: &FTree, node: NodeId) -> (Vec<NodeId>, Vec<u32>) {
    let mut path = tree.ancestors(node);
    path.reverse();
    path.push(node);
    let slots = (path.windows(2))
        .map(|w| child_pos(tree.children(w[0]), w[1]))
        .collect();
    (path, slots)
}

// ---------------------------------------------------------------------
// The restructuring walk and its edits
// ---------------------------------------------------------------------

/// The old kid slots an edit reads: those of entry `i` of union `v`, or the
/// root list.
#[derive(Clone, Copy)]
enum Old<'r> {
    Entry(VId, u32),
    Roots(&'r [VId]),
}

impl Old<'_> {
    fn kid(self, fu: &Fusion<'_>, k: u32) -> VId {
        match self {
            Old::Entry(v, i) => fu.kid(v, i, k),
            Old::Roots(roots) => roots[k as usize],
        }
    }
}

/// The one walk every restructuring operator runs.  It rebuilds each union
/// on the old tree's path from the roots down to `parent`: a union keeps its
/// entries, its kid on the path is rebuilt, and everything off the path stays
/// a reference.  For each entry of each union over `parent` — or once, for
/// the root list, when `parent` is `None` — `edit` pushes the entry's new kid
/// slots, or returns `false` to drop the entry.  The edit also receives the
/// value of the enclosing entry over `ctx_node` (the entry's own value when
/// `ctx_node` is `parent`).
fn rewrite_below<'a, F>(
    fu: &mut Fusion<'a>,
    old_tree: &FTree,
    new_tree: &FTree,
    parent: Option<NodeId>,
    ctx_node: Option<NodeId>,
    mut edit: F,
) where
    F: FnMut(&mut Fusion<'a>, Old<'_>, Option<Value>, &mut Vec<VId>) -> bool,
{
    let Some(parent) = parent else {
        let roots = std::mem::take(&mut fu.roots);
        let mut out = Vec::with_capacity(roots.len() + 1);
        edit(fu, Old::Roots(&roots), None, &mut out);
        fu.roots = out;
        return;
    };
    let (path, slots) = path_to(old_tree, parent);
    let r = fu.root_over(path[0]);
    let mut walk = Walk {
        path,
        slots,
        ctx_node,
        kid_count: new_tree.children(parent).len() as u32,
        edit,
    };
    let root = fu.roots[r];
    fu.roots[r] = walk.rebuild(fu, root, 0, None);
}

/// The state of one [`rewrite_below`].
struct Walk<F> {
    /// The old tree's path from a root down to the edited node, and the kid
    /// slot of each path node towards the next.
    path: Vec<NodeId>,
    slots: Vec<u32>,
    ctx_node: Option<NodeId>,
    /// Kid slots per entry of a rebuilt union over the edited node.
    kid_count: u32,
    edit: F,
}

impl<'a, F> Walk<F>
where
    F: FnMut(&mut Fusion<'a>, Old<'_>, Option<Value>, &mut Vec<VId>) -> bool,
{
    /// Rebuilds union `v` over `path[depth]`, `ctx` the enclosing context.
    fn rebuild(&mut self, fu: &mut Fusion<'a>, v: VId, depth: usize, ctx: Option<Value>) -> VId {
        let node = self.path[depth];
        let edited = depth + 1 == self.path.len();
        let kid_count = if edited {
            self.kid_count
        } else {
            fu.kid_count_of(v)
        };
        let mut values = fu.values(v).to_vec();
        let mut kids = Vec::with_capacity(values.len() * kid_count as usize);
        let mut kept = 0;
        for i in 0..values.len() {
            let ctx = if Some(node) == self.ctx_node {
                Some(values[i])
            } else {
                ctx
            };
            if edited {
                let mark = kids.len();
                if !(self.edit)(fu, Old::Entry(v, i as u32), ctx, &mut kids) {
                    kids.truncate(mark);
                    continue;
                }
            } else {
                for k in 0..kid_count {
                    let kid = fu.kid(v, i as u32, k);
                    kids.push(if k == self.slots[depth] {
                        self.rebuild(fu, kid, depth + 1, ctx)
                    } else {
                        kid
                    });
                }
            }
            values[kept] = values[i];
            kept += 1;
        }
        values.truncate(kept);
        fu.push_mix(node, kid_count, values, kids)
    }
}

/// The nodes of the kid slots an edit reads: `parent`'s children in the old
/// tree, or the nodes of the root unions in root-list order.
fn slot_nodes(fu: &Fusion<'_>, old_tree: &FTree, parent: Option<NodeId>) -> Vec<NodeId> {
    match parent {
        Some(p) => old_tree.children(p).to_vec(),
        None => fu.roots.iter().map(|&r| fu.node_of(r)).collect(),
    }
}

/// The kid slots of a union whose node takes children from two old nodes:
/// `(true, pos)` for the child at `pos` of `from`, `(false, pos)` for the
/// child at `pos` of `own`.
fn spliced_slots(new_children: &[NodeId], from: &[NodeId], own: &[NodeId]) -> Vec<(bool, u32)> {
    let slot = |c| match from.iter().position(|&f| f == c) {
        Some(pos) => (true, pos as u32),
        None => (false, child_pos(own, c)),
    };
    new_children.iter().map(|&c| slot(c)).collect()
}

/// Pushes one entry's kids through `slots` (see [`spliced_slots`]): a
/// `true` slot reads entry `j` of union `from`, a `false` slot reads `own`.
fn splice(
    fu: &Fusion<'_>,
    slots: &[(bool, u32)],
    own: Old<'_>,
    from: VId,
    j: u32,
    out: &mut Vec<VId>,
) {
    for &(from_b, pos) in slots {
        out.push(if from_b {
            fu.kid(from, j, pos)
        } else {
            own.kid(fu, pos)
        });
    }
}

/// The push-up operator `ψ_B`, tree and overlay together.
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
/// entry (or the root list) gains the lifted `B`-union — the copy under the
/// first `A`-entry, all copies being equal by independence — as a new last
/// slot: pure header remaps, linear in the unions on the root-to-`A` path.
fn push_up_step(fu: &mut Fusion<'_>, cur: &mut FTree, b: NodeId) -> Result<()> {
    let mut next = cur.clone();
    next.push_up(b)?;
    let a = cur.parent(b).expect("push_up validated: b has a parent");
    let g = cur.parent(a);
    let slots = slot_nodes(fu, cur, g);
    let (pos_a, pos_b) = (child_pos(&slots, a), child_pos(cur.children(a), b));
    let a_slots: Vec<u32> = next
        .children(a)
        .iter()
        .map(|&c| child_pos(cur.children(a), c))
        .collect();
    rewrite_below(fu, cur, &next, g, None, |fu, old, _, out| {
        for k in 0..slots.len() as u32 {
            let kid = old.kid(fu, k);
            out.push(if k == pos_a {
                // The A-union without its B slot.
                let len = fu.len(kid);
                let mut kids = Vec::with_capacity(len as usize * a_slots.len());
                for i in 0..len {
                    kids.extend(a_slots.iter().map(|&s| fu.kid(kid, i, s)));
                }
                let values = fu.values(kid).to_vec();
                fu.push_mix(a, a_slots.len() as u32, values, kids)
            } else {
                kid
            });
        }
        let a_vid = old.kid(fu, pos_a);
        out.push(if fu.len(a_vid) == 0 {
            fu.push_mix(b, 0, Vec::new(), Vec::new())
        } else {
            fu.kid(a_vid, 0, pos_b)
        });
        true
    });
    *cur = next;
    Ok(())
}

/// The swap operator `χ_{A,B}`, tree and overlay together.
///
/// Swap exchanges a node `B` with its parent `A`: the representation grouped
/// first by `A` then `B` is regrouped first by `B` then `A` (Figure 3(b)):
///
/// ```text
/// ⋃_a ⟨A:a⟩ × E_a × ⋃_b (⟨B:b⟩ × F_b × G_ab)
///     ⇒  ⋃_b ⟨B:b⟩ × F_b × ⋃_a (⟨A:a⟩ × E_a × G_ab)
/// ```
///
/// where `E_a` are the subtrees under `A`, `F_b` the children of `B` that do
/// not depend on `A` (they stay with `B`), and `G_ab` the children of `B`
/// that do depend on `A` (they follow `A` down).
///
/// Every `A`-union is regrouped by `B`-value with one flat sort of its
/// `(b, a)` pairs ([`Regroup`]) — the sort-merge equivalent of the paper's
/// Figure 4 priority-queue algorithm, the same `O(N log N)` bound.  The
/// regrouped union takes `A`'s slot among the roots and moves to the end of
/// the parent's child order otherwise; `E_a`, `F_b` and `G_ab` become
/// references.  The regroup charges nothing: the deadline is checked before
/// the step starts, and the unions it builds are charged when they are
/// emitted.
fn swap_step(fu: &mut Fusion<'_>, cur: &mut FTree, b: NodeId) -> Result<()> {
    let mut next = cur.clone();
    let outcome = next.swap_with_parent(b)?;
    let a = outcome.old_parent;
    let p = cur.parent(a);
    let slots = slot_nodes(fu, cur, p);
    let pos_a = child_pos(&slots, a);
    let order: Vec<u32> = match p {
        Some(p) => next
            .children(p)
            .iter()
            .map(|&c| child_pos(&slots, if c == b { a } else { c }))
            .collect(),
        None => (0..slots.len() as u32).collect(),
    };
    let regroup = Regroup {
        a,
        b,
        pos_b: child_pos(cur.children(a), b),
        a_slots: spliced_slots(next.children(a), cur.children(b), cur.children(a)),
        b_slots: next
            .children(b)
            .iter()
            .map(|&c| (c != a).then(|| child_pos(cur.children(b), c)))
            .collect(),
    };
    rewrite_below(fu, cur, &next, p, None, |fu, old, _, out| {
        for &k in &order {
            let kid = old.kid(fu, k);
            out.push(if k == pos_a {
                regroup.apply(fu, kid)
            } else {
                kid
            });
        }
        true
    });
    *cur = next;
    Ok(())
}

/// The slot tables of one swap (see [`swap_step`]).
struct Regroup {
    a: NodeId,
    b: NodeId,
    /// `B`'s slot in an old `A`-entry.
    pos_b: u32,
    /// The new `A`-children: `G_ab` from the pair's `B`-entry, `E_a` from
    /// its `A`-entry.
    a_slots: Vec<(bool, u32)>,
    /// The new `B`-children: `F_b` from an old `B` slot, `None` for the
    /// inner `A`-union.
    b_slots: Vec<Option<u32>>,
}

impl Regroup {
    /// Regroups one `A`-union into the corresponding `B`-union.
    fn apply(&self, fu: &mut Fusion<'_>, a_vid: VId) -> VId {
        let a_len = fu.len(a_vid);
        let mut pairs: Vec<(Value, u32, VId, u32)> = Vec::new();
        for i in 0..a_len {
            let b_vid = fu.kid(a_vid, i, self.pos_b);
            for j in 0..fu.len(b_vid) {
                pairs.push((fu.value(b_vid, j), i, b_vid, j));
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

        let mut kids = Vec::with_capacity(values.len() * self.b_slots.len());
        for g in 0..values.len() {
            let group = &pairs[group_starts[g] as usize..group_starts[g + 1] as usize];
            let (_, _, b_vid0, j0) = group[0];
            for slot in &self.b_slots {
                kids.push(match *slot {
                    // A kept child of `B` (F_b): all copies under the
                    // different a values are equal by independence, keep the
                    // first pair's.
                    Some(pos) => fu.kid(b_vid0, j0, pos),
                    None => self.inner_a(fu, a_vid, group),
                });
            }
        }
        fu.push_mix(self.b, self.b_slots.len() as u32, values, kids)
    }

    /// The inner `A`-union of one `B`-value: one entry per `(a, b)` pair,
    /// with `E_a` referenced from the old `A`-entry and `G_ab` from the
    /// pair's `B`-entry.
    fn inner_a(&self, fu: &mut Fusion<'_>, a_vid: VId, group: &[(Value, u32, VId, u32)]) -> VId {
        let values = group.iter().map(|p| fu.value(a_vid, p.1)).collect();
        let mut kids = Vec::with_capacity(group.len() * self.a_slots.len());
        for &(_, i, b_vid, j) in group {
            splice(fu, &self.a_slots, Old::Entry(a_vid, i), b_vid, j, &mut kids);
        }
        fu.push_mix(self.a, self.a_slots.len() as u32, values, kids)
    }
}

/// The merge selection operator `µ_{A,B}`, tree and overlay together.
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
/// paper) and the common entries reference both sides' kid subtrees.  The
/// merged union takes `A`'s slot in a parent entry and goes to the end of
/// the root list.  The prune afterwards ([`Fusion::prune`]) removes the
/// entries whose product became empty because some merged union lost all
/// its values.
fn merge_step(fu: &mut Fusion<'_>, cur: &mut FTree, a: NodeId, b: NodeId) -> Result<()> {
    let mut next = cur.clone();
    next.merge_siblings(a, b)?;
    let p = cur.parent(a);
    let slots = slot_nodes(fu, cur, p);
    let (pos_a, pos_b) = (child_pos(&slots, a), child_pos(&slots, b));
    let order: Vec<u32> = match p {
        Some(p) => next
            .children(p)
            .iter()
            .map(|&c| child_pos(&slots, c))
            .collect(),
        None => (0..slots.len() as u32)
            .filter(|&k| k != pos_a && k != pos_b)
            .chain([pos_a])
            .collect(),
    };
    let merged = spliced_slots(next.children(a), cur.children(b), cur.children(a));
    rewrite_below(fu, cur, &next, p, None, |fu, old, _, out| {
        for &k in &order {
            let kid = old.kid(fu, k);
            out.push(if k == pos_a {
                merge_unions(fu, a, &merged, kid, old.kid(fu, pos_b))
            } else {
                kid
            });
        }
        true
    });
    fu.prune()?;
    *cur = next;
    Ok(())
}

/// Sort-merge join of two sibling unions into one union over `a`.
fn merge_unions(
    fu: &mut Fusion<'_>,
    a: NodeId,
    slots: &[(bool, u32)],
    a_vid: VId,
    b_vid: VId,
) -> VId {
    let (av, bv) = (fu.values(a_vid), fu.values(b_vid));
    let mut pairs: Vec<(u32, u32)> = Vec::new();
    let (mut i, mut j) = (0, 0);
    while i < av.len() && j < bv.len() {
        match av[i].cmp(&bv[j]) {
            Ordering::Less => i += 1,
            Ordering::Greater => j += 1,
            Ordering::Equal => {
                pairs.push((i as u32, j as u32));
                i += 1;
                j += 1;
            }
        }
    }
    let values = pairs.iter().map(|&(i, _)| av[i as usize]).collect();
    let mut kids = Vec::with_capacity(pairs.len() * slots.len());
    for &(i, j) in &pairs {
        splice(fu, slots, Old::Entry(a_vid, i), b_vid, j, &mut kids);
    }
    fu.push_mix(a, slots.len() as u32, values, kids)
}

/// The absorb selection operator `α_{A,B}`, tree and overlay together.
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
/// The walk hands down the enclosing `A`-value; a `B`-parent entry is kept
/// only when its `B`-union has that value (binary search, so quasilinear
/// overall), with the matched entry's kid subtrees spliced in.  The prune
/// afterwards ([`Fusion::prune`]) cascades the removals upwards.
fn absorb_step(fu: &mut Fusion<'_>, cur: &mut FTree, a: NodeId, b: NodeId) -> Result<()> {
    let mut next = cur.clone();
    next.absorb_into_ancestor(a, b)?;
    let p = cur.parent(b);
    let b_parent = p.expect("b has an ancestor, so a parent");
    let pos_b = child_pos(cur.children(b_parent), b);
    let spliced = spliced_slots(
        next.children(b_parent),
        cur.children(b),
        cur.children(b_parent),
    );
    rewrite_below(fu, cur, &next, p, Some(a), |fu, old, ctx, out| {
        let b_vid = old.kid(fu, pos_b);
        let a_value = ctx.expect("the B-parent lies inside an A-entry subtree");
        let found = fu.find_value(b_vid, a_value);
        if let Some(j) = found {
            splice(fu, &spliced, old, b_vid, j, out);
        }
        found.is_some()
    });
    fu.prune()?;
    *cur = next;
    // The paper's absorb finishes with a normalisation step.
    cur.normalise(|t, edit| edit_step(fu, t, edit))
}

/// Removal of one fully-projected leaf, an edit of projection `π` (see
/// [`edit_step`] and [`FTree::project`]): every union over the removed
/// leaf's parent loses the leaf's kid slot (the kept children are pure
/// references — nothing below them changes), the leaf's unions become
/// unreachable, and a root leaf simply drops out of the root list.
fn remove_leaf_step(fu: &mut Fusion<'_>, cur: &mut FTree, leaf: NodeId) -> Result<()> {
    let mut next = cur.clone();
    next.remove_projected_leaf(leaf)?;
    let p = cur.parent(leaf);
    let slots = slot_nodes(fu, cur, p);
    let pos_leaf = child_pos(&slots, leaf);
    rewrite_below(fu, cur, &next, p, None, |fu, old, _, out| {
        let kept = (0..slots.len() as u32).filter(|&k| k != pos_leaf);
        out.extend(kept.map(|k| old.kid(fu, k)));
        true
    });
    *cur = next;
    Ok(())
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

    /// Runs the program ungoverned.
    fn emit(rep: &FRep, steps: &[FPlanOp]) -> Result<FRep> {
        emit_fused_ctx(rep, steps, &ExecCtx::unlimited())
    }

    /// The program must agree with the oracle bit for bit on the arena,
    /// over the tree its simulation yields.
    fn check(rep: &FRep, steps: &[FPlanOp], context: &str) {
        let mut reference = rep.clone();
        stepwise(&mut reference, steps);
        let mut simulated = rep.tree().clone();
        for op in steps {
            op.apply_to_tree(&mut simulated)
                .unwrap_or_else(|e| panic!("{context}: simulation: {e:?}"));
        }
        let fused = emit(rep, steps).unwrap_or_else(|e| panic!("{context}: {e:?}"));
        fused
            .validate()
            .unwrap_or_else(|e| panic!("{context}: result invalid: {e:?}"));
        assert!(
            fused.store_identical(&reference),
            "{context}: program and oracle stores diverge\nprogram:\n{}\noracle:\n{}",
            fused.dump_store(),
            reference.dump_store()
        );
        assert_eq!(
            fused.tree().canonical_key(),
            reference.tree().canonical_key(),
            "{context}: tree diverges"
        );
        let tree = fused.tree();
        assert_eq!(
            tree.snapshot_nodes(),
            simulated.snapshot_nodes(),
            "{context}: nodes diverge from the simulation"
        );
        assert_eq!(tree.roots(), simulated.roots(), "{context}: roots");
        assert_eq!(tree.edges(), simulated.edges(), "{context}: edges");
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
        let before = materialize(&rep).unwrap().tuple_set();
        let fused = emit(&rep, &[FPlanOp::Swap(b), FPlanOp::Swap(a)]).unwrap();
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
        assert!(emit(&rep, &[FPlanOp::Merge(a, b)])
            .unwrap()
            .represents_empty());
    }

    #[test]
    fn failing_segment_leaves_the_representation_untouched() {
        use fdb_common::QueryLimits;
        let (rep, a, _) = swap_shape();
        let input = rep.clone();
        // Swapping a root is invalid; the error must surface before the
        // program reads a record (not one unit is charged), and the
        // borrowed input stays as it was.
        let ample = 1 << 20;
        let ctx = ExecCtx::new(&QueryLimits::unlimited().with_budget(ample));
        assert!(emit_fused_ctx(&rep, &[FPlanOp::Swap(a)], &ctx).is_err());
        assert_eq!(ctx.budget_remaining(), ample);
        assert!(rep.store_identical(&input));
    }

    #[test]
    fn empty_segment_is_identity() {
        let (rep, _, _) = swap_shape();
        assert!(emit(&rep, &[]).unwrap().store_identical(&rep));
    }

    /// Overlay aggregation must equal emitting the arena and aggregating it,
    /// for every kind and both grouped and ungrouped — on the plan's result.
    fn check_aggregates(rep: &FRep, steps: &[FPlanOp], context: &str) {
        use crate::aggregate::{evaluate_ctx, AggregateKind};
        let emitted = emit(rep, steps).unwrap();
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
        // The walk reads the unions on D's path — the root (1 + 2 entries),
        // the two B-unions (1 + 2 and 1 + 1) and the three D-leaves under
        // them (1 + 1 each) — and the emission writes every output record.
        let records = |r: &FRep| (r.store().unions.len() + r.store().entry_count()) as u64;
        assert_eq!((records(&rep), records(&expected)), (20, 15));
        assert_eq!(units, (3 + 3 + 2 + 3 * 2) + 15);

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
    fn a_block_copy_counts_the_singletons_its_output_tree_shows() {
        // A{0} → B{1, 2} → C{3}.  Projecting 2 away hides one attribute of
        // B's two-attribute class and removes no node; the selection on A
        // rebuilds the root, so every B-subtree is block-copied, and its
        // B-entries must count one singleton each, not the input's two.
        let edges = vec![
            DepEdge::new("R", attrs(&[0, 1, 2]), 4),
            DepEdge::new("S", attrs(&[1, 2, 3]), 8),
        ];
        let mut tree = FTree::new(edges);
        let a = tree.add_node(attrs(&[0]), None).unwrap();
        let b = tree.add_node(attrs(&[1, 2]), Some(a)).unwrap();
        let c = tree.add_node(attrs(&[3]), Some(b)).unwrap();
        let b_union = |values: &[u64]| {
            let entry = |v: u64| Entry {
                value: Value::new(v),
                children: vec![Union::new(c, vec![Entry::leaf(Value::new(v * 10))])],
            };
            Union::new(b, values.iter().map(|&v| entry(v)).collect())
        };
        let a_entry = |v: u64, bs: &[u64]| Entry {
            value: Value::new(v),
            children: vec![b_union(bs)],
        };
        let rep = FRep::from_parts(
            tree,
            vec![Union::new(
                a,
                vec![
                    a_entry(1, &[1, 2]),
                    a_entry(2, &[3]),
                    a_entry(3, &[4, 5, 6]),
                ],
            )],
        )
        .unwrap();
        assert_eq!(rep.counts(), (3 + 2 * 6 + 6, 6));
        let ops = [
            select(0, ComparisonOp::Ge, 2),
            FPlanOp::Project(attrs(&[0, 1, 3])),
        ];
        let out = emit_fused_ctx(&rep, &ops, &ExecCtx::unlimited()).unwrap();
        assert_eq!(out.tree().visible_attrs(b), attrs(&[1]));
        assert_eq!(out.recorded_counts(), Some((2 + 4 + 4, 4)));
        assert_eq!((out.size(), out.tuple_count()), (10, 4));
        check(&rep, &ops, "projection inside block-copied subtrees");
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
        assert!(emit(&rep, &[select(9, ComparisonOp::Eq, 1)]).is_err());
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
            let emitted = emit(&rep, steps).unwrap();
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
            let emitted = emit(&rep, &program).unwrap();
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
