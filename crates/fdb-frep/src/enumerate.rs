//! Enumeration of the relation represented by an f-representation.
//!
//! F-representations allow constant-delay enumeration of their tuples: after
//! `O(|E|)` preparation, successive tuples are produced with `O(|S|)` work
//! each (`S` the schema).  [`TupleCursor`] implements that enumeration as an
//! **iterative odometer** over the arena store — no recursion, no per-entry
//! allocation, no map lookups in the hot loop:
//!
//! * setup computes one *slot* per f-tree node (parents before descendants),
//!   each knowing its parent slot, its position in the parent's fixed child
//!   order, and the positions in the output buffer its value feeds;
//! * every slot holds a current union (an arena index) and a current entry;
//!   advancing to the next tuple bumps the deepest slot with another entry
//!   and refills the slots after it — the classic odometer, with child
//!   unions fetched by O(1) index thanks to the arena's fixed child order.
//!
//! Both materialisers ([`materialize_ctx`], [`materialize_ordered_ctx`]) go
//! through one emission routine that writes rows
//! straight into the row-major `Vec<Value>` that becomes the [`Relation`]:
//! the buffer is sized once from [`FRep::tuple_count`], and the innermost
//! wheel — a leaf union — is drained in a tight loop, one governance charge
//! per union instead of one per row (the units charged stay one per tuple).
//!
//! # Emission order and ORDER BY
//!
//! Three facts decide how ordered output is produced:
//!
//! 1. **Emission order is lexicographic in slot order.**  Every union is
//!    value-sorted with distinct values and slot order is the odometer's
//!    significance order, so tuples come out sorted by slot 0's value, then
//!    slot 1's, and so on.
//! 2. **The canonical ordered-output order is lexicographic in the ORDER BY
//!    columns, then in the full row by ascending attribute id.**  A class
//!    writes one value to all of its columns, so among the columns of one
//!    slot only the smallest attribute ever decides: the canonical order is
//!    "ORDER BY slots first, then the remaining slots by smallest visible
//!    attribute".  [`CursorConfig::with_priority`] lays the slots out in
//!    exactly that sequence whenever the f-tree allows it, and then fact 1
//!    makes the emitted rows the final answer — no sort of any kind runs.
//! 3. **The fallback fires when the tree forbids that sequence**: a
//!    non-chain node whose smallest visible attribute is below its parent's
//!    (parents must precede children), a node with no visible attribute (its
//!    wheel turns without showing in the row), or no root-path chain at all
//!    ([`OrderStrategy::FlatSort`]).  The one fallback is an
//!    index-permutation sort over the same flat buffer — per run of equal
//!    ORDER BY values after a chain emission, over the whole buffer
//!    otherwise — and produces bit-identical rows.

use crate::frep::FRep;
use fdb_common::{failpoint, AttrId, ExecCtx, FdbError, Result, Value};
use fdb_ftree::{FTree, NodeId};
use fdb_relation::Relation;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Parent marker for slots whose union is a root union.
const NO_PARENT: u32 = u32::MAX;

/// One f-tree node's position in the enumeration order.
#[derive(Clone, Copy, Debug)]
struct Slot {
    /// Index of the parent slot (`NO_PARENT` for roots).
    parent: u32,
    /// For roots: index into the store's root list.  For inner slots: the
    /// node's position in the parent node's f-tree child order (the kid
    /// index inside the arena's child-slot table).
    kid_index: u32,
    /// Start of this node's buffer positions in `val_positions`.
    vals_start: u32,
    /// Number of buffer positions (visible attributes of the node's class).
    vals_len: u32,
}

/// The frozen per-representation enumeration layout: one [`Slot`] per
/// f-tree node (parents before descendants) plus the buffer positions each
/// slot's value feeds.  Computing it is the only part of cursor setup that
/// walks the f-tree; the tables are plain `Copy` data, so the cursor's copy
/// is a memcpy and the hot loop stays indirection-free.
#[derive(Clone, Debug)]
pub struct CursorConfig {
    slots: Vec<Slot>,
    /// Flattened buffer positions; slot `s` writes its entry value to
    /// `buffer[val_positions[p]]` for `p` in `vals_start..vals_start+vals_len`.
    val_positions: Vec<u32>,
    /// Width of the tuple buffer (number of visible attributes).
    width: usize,
    /// Whether this layout's emission order is the canonical ordered-output
    /// order for the chain it was built around (module docs, fact 2); only
    /// [`CursorConfig::with_priority`] can establish it.
    canonical: bool,
}

/// A heap entry of [`CursorConfig::with_priority`]: a node whose parent has
/// a slot (with that slot and the node's kid index), keyed by its smallest
/// visible attribute — `None`, an invisible class, sorts before every
/// attribute; the node id only separates two invisible classes.
fn ready_node(
    tree: &FTree,
    node: NodeId,
    parent: u32,
    kid_index: u32,
) -> Reverse<(Option<AttrId>, NodeId, u32, u32)> {
    let key = tree.visible_attrs(node).first().copied();
    Reverse((key, node, parent, kid_index))
}

impl CursorConfig {
    /// A layout with no slots yet, for `width` visible attributes.
    fn empty(width: usize) -> Self {
        CursorConfig {
            slots: Vec::new(),
            val_positions: Vec::new(),
            width,
            canonical: false,
        }
    }

    /// Appends `node`'s slot and returns its index.  `attrs` are the
    /// representation's visible attributes (the ascending buffer layout).
    fn push_slot(
        &mut self,
        tree: &FTree,
        attrs: &[AttrId],
        node: NodeId,
        parent: u32,
        kid_index: u32,
    ) -> u32 {
        let slot_index = self.slots.len() as u32;
        let vals_start = self.val_positions.len() as u32;
        for attr in tree.visible_attrs(node) {
            let position = attrs.binary_search(&attr).expect("visible attribute");
            self.val_positions.push(position as u32);
        }
        self.slots.push(Slot {
            parent,
            kid_index,
            vals_start,
            vals_len: self.val_positions.len() as u32 - vals_start,
        });
        slot_index
    }

    /// Computes the slot layout of `rep` (the `O(nodes + |S|)` setup): the
    /// roots in store order, each subtree depth-first in f-tree child order.
    pub fn new(rep: &FRep) -> Self {
        let attrs = rep.visible_attrs();
        let tree = rep.tree();
        let mut config = CursorConfig::empty(attrs.len());
        // Parents are pushed before children so refilling a suffix of slots
        // always finds the parent's current entry already set.
        for (root_index, root) in rep.roots().enumerate() {
            let mut stack = vec![(root.node(), NO_PARENT, root_index as u32)];
            while let Some((node, parent, kid_index)) = stack.pop() {
                let slot_index = config.push_slot(tree, &attrs, node, parent, kid_index);
                // Push children in reverse so they pop in child order.
                for (k, &child) in tree.children(node).iter().enumerate().rev() {
                    stack.push((child, slot_index, k as u32));
                }
            }
        }
        config
    }

    /// Computes the slot layout for ordered enumeration along a root-path
    /// chain: `chain[0]` (which must label a root) becomes slot 0, `chain[1]`
    /// (a child of `chain[0]`) slot 1, and so on, so a cursor over this
    /// layout emits tuples sorted by the chain nodes' values first — ordered
    /// enumeration is free once the ordering attributes sit on the root path
    /// (the 2013 follow-up paper's observation).
    ///
    /// The remaining nodes follow **smallest visible attribute first among
    /// the nodes whose parent already has a slot**.  Emission order is
    /// lexicographic in slot order, and a class writes one value to all its
    /// columns, so when that sequence comes out ascending — no node sits
    /// below a parent with a larger smallest attribute — and every node has
    /// a visible attribute, rows with equal chain values are emitted in
    /// ascending full-row order: the cursor's output *is* the canonical
    /// ordered output and the ordered materialisers skip their sort.
    /// Otherwise the layout is still a valid odometer (any
    /// parents-before-children order is) and the materialisers sort each
    /// run of equal chain values.
    ///
    /// An empty chain degenerates to [`CursorConfig::new`].
    pub fn with_priority(rep: &FRep, chain: &[NodeId]) -> Result<CursorConfig> {
        let Some(&chain_root) = chain.first() else {
            return Ok(CursorConfig::new(rep));
        };
        let attrs = rep.visible_attrs();
        let tree = rep.tree();
        let Some(root_pos) = rep.roots().position(|r| r.node() == chain_root) else {
            return Err(FdbError::InvalidOperator {
                detail: format!("ordering chain starts at non-root node {chain_root}"),
            });
        };
        let mut config = CursorConfig::empty(attrs.len());

        // Nodes whose parent has a slot, smallest visible attribute first.
        let mut ready = BinaryHeap::new();

        // 1. The chain itself: slots 0..chain.len(), outermost first; every
        //    child hanging off it becomes ready.
        for (i, &node) in chain.iter().enumerate() {
            let (parent, kid_index) = if i == 0 {
                (NO_PARENT, root_pos as u32)
            } else {
                let prev = chain[i - 1];
                let Some(k) = tree.children(prev).iter().position(|&c| c == node) else {
                    return Err(FdbError::InvalidOperator {
                        detail: format!(
                            "ordering chain is not a root path: node {node} is not a child \
                             of node {prev}"
                        ),
                    });
                };
                ((i - 1) as u32, k as u32)
            };
            let slot_index = config.push_slot(tree, &attrs, node, parent, kid_index);
            for (k, &child) in tree.children(node).iter().enumerate() {
                if chain.get(i + 1) != Some(&child) {
                    ready.push(ready_node(tree, child, slot_index, k as u32));
                }
            }
        }
        for (root_index, root) in rep.roots().enumerate() {
            if root_index != root_pos {
                ready.push(ready_node(tree, root.node(), NO_PARENT, root_index as u32));
            }
        }

        // 2. The remainder, always taking the ready node with the smallest
        //    visible attribute.  `key > last` fails both for a descending
        //    step and for an invisible class (`None` exceeds nothing).
        let mut ascending = true;
        let mut last = None;
        while let Some(Reverse((key, node, parent, kid_index))) = ready.pop() {
            ascending &= key > last;
            last = key;
            let slot_index = config.push_slot(tree, &attrs, node, parent, kid_index);
            for (k, &child) in tree.children(node).iter().enumerate() {
                ready.push(ready_node(tree, child, slot_index, k as u32));
            }
        }
        config.canonical = ascending;
        Ok(config)
    }
}

/// An iterative, allocation-free (after setup) cursor over the tuples of an
/// f-representation.  Tuples are produced in the lexicographic order induced
/// by the slot layout (each union is value-sorted); the buffer lists the
/// values of the representation's *visible* attributes in ascending
/// attribute-id order.
pub struct TupleCursor<'a> {
    rep: &'a FRep,
    slots: Vec<Slot>,
    /// See [`CursorConfig::val_positions`].
    val_positions: Vec<u32>,
    /// Current union (arena index) per slot.
    cur_union: Vec<u32>,
    /// Current entry index per slot.
    cur_entry: Vec<u32>,
    buffer: Vec<Value>,
    state: CursorState,
}

/// One step of the odometer loop (see [`TupleCursor::bump_and_fill`]).
#[derive(Clone, Copy, Debug)]
enum Step {
    /// Bump the deepest slot strictly below the given end position.
    Bump(usize),
    /// Fill slots from the given position onwards with first entries.
    Fill(usize),
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum CursorState {
    /// `advance` has not been called yet.
    Fresh,
    /// The slot arrays hold a complete configuration (= one tuple).
    AtTuple,
    /// All tuples have been produced.
    Exhausted,
}

impl<'a> TupleCursor<'a> {
    /// Prepares a cursor (the `O(|E|)`-free, `O(nodes + |S|)` setup).
    pub fn new(rep: &'a FRep) -> Self {
        TupleCursor::with_config(rep, &CursorConfig::new(rep))
    }

    /// Prepares a cursor from a slot layout computed for `rep`.
    fn with_config(rep: &'a FRep, config: &CursorConfig) -> Self {
        let slot_count = config.slots.len();
        TupleCursor {
            rep,
            slots: config.slots.clone(),
            val_positions: config.val_positions.clone(),
            cur_union: vec![0; slot_count],
            cur_entry: vec![0; slot_count],
            buffer: vec![Value::default(); config.width],
            state: CursorState::Fresh,
        }
    }

    /// The union (arena index) slot `s` currently ranges over.
    #[inline]
    fn union_of_slot(&self, s: usize) -> u32 {
        let slot = self.slots[s];
        let store = self.rep.store();
        if slot.parent == NO_PARENT {
            store.roots[slot.kid_index as usize]
        } else {
            let p = slot.parent as usize;
            store.kid(self.cur_union[p], self.cur_entry[p], slot.kid_index)
        }
    }

    /// Writes slot `s`'s current entry value into the buffer positions of
    /// its node's visible attributes.
    #[inline]
    fn write_values(&mut self, s: usize) {
        let slot = self.slots[s];
        let value = self.rep.store().value_slice(self.cur_union[s])[self.cur_entry[s] as usize];
        for p in slot.vals_start..slot.vals_start + slot.vals_len {
            self.buffer[self.val_positions[p as usize] as usize] = value;
        }
    }

    /// Advances to the next tuple; returns `false` when exhausted.
    pub fn advance(&mut self) -> bool {
        match self.state {
            CursorState::Exhausted => false,
            CursorState::Fresh => {
                self.state = CursorState::AtTuple;
                if self.rep.represents_empty() {
                    self.state = CursorState::Exhausted;
                    return false;
                }
                if self.slots.is_empty() {
                    // Nullary representation: exactly one empty tuple.
                    return true;
                }
                self.bump_and_fill(Step::Fill(0))
            }
            CursorState::AtTuple => {
                if self.slots.is_empty() {
                    self.state = CursorState::Exhausted;
                    return false;
                }
                self.bump_and_fill(Step::Bump(self.slots.len()))
            }
        }
    }

    /// The odometer: `Bump(end)` finds the deepest slot below `end` with
    /// another entry (slots below `end` are always validly configured);
    /// `Fill(s)` (re)initialises slots `s..` with their first entries,
    /// falling back to a bump when it meets an empty union.
    fn bump_and_fill(&mut self, start: Step) -> bool {
        let slot_count = self.slots.len();
        let mut step = start;
        loop {
            match step {
                Step::Bump(end) => {
                    let mut s = end;
                    loop {
                        if s == 0 {
                            self.state = CursorState::Exhausted;
                            return false;
                        }
                        s -= 1;
                        let entry_end = self.rep.store().union_len(self.cur_union[s]);
                        if self.cur_entry[s] + 1 < entry_end {
                            self.cur_entry[s] += 1;
                            self.write_values(s);
                            step = Step::Fill(s + 1);
                            break;
                        }
                    }
                }
                Step::Fill(mut fill) => {
                    while fill < slot_count {
                        let union = self.union_of_slot(fill);
                        if self.rep.store().union_len(union) == 0 {
                            // Nothing to choose here: only changing an
                            // earlier slot can help.
                            break;
                        }
                        self.cur_union[fill] = union;
                        self.cur_entry[fill] = 0;
                        self.write_values(fill);
                        fill += 1;
                    }
                    if fill == slot_count {
                        return true;
                    }
                    step = Step::Bump(fill);
                }
            }
        }
    }

    /// The current tuple (valid after `advance` returned `true`).
    pub fn tuple(&self) -> &[Value] {
        &self.buffer
    }

    /// Appends every remaining tuple to `out` (row-major), charging `ctx`
    /// one unit per tuple — the emission routine behind every materialiser.
    ///
    /// The last slot is a leaf of the f-tree and the odometer's innermost
    /// wheel: whenever [`TupleCursor::advance`] lands on a tuple, the rest
    /// of that leaf union is drained right here — one charge and one
    /// reservation for the whole union, then one row write per entry —
    /// and the wheel is parked on its last entry so the next `advance`
    /// carries into the slot above.  A tripped deadline or cancellation is
    /// therefore noticed within [`fdb_common::limits::CHECK_INTERVAL`]
    /// tuples plus one leaf union.
    fn emit_into(&mut self, out: &mut Vec<Value>, ctx: &ExecCtx) -> Result<()> {
        let Some(last) = self.slots.len().checked_sub(1) else {
            // Nullary: at most one tuple, and it has no columns to write.
            while self.advance() {
                ctx.charge(1)?;
            }
            return Ok(());
        };
        let width = self.buffer.len();
        let slot = self.slots[last];
        // Copied out (a handful of indices) because `advance` borrows `self`.
        let positions: Vec<u32> = self.val_positions
            [slot.vals_start as usize..(slot.vals_start + slot.vals_len) as usize]
            .to_vec();
        while self.advance() {
            let values = self.rep.store().value_slice(self.cur_union[last]);
            let end = values.len();
            let values = &values[self.cur_entry[last] as usize..];
            ctx.charge(values.len() as u64)?;
            out.try_reserve(values.len().saturating_mul(width))
                .map_err(|e| output_too_large(&e))?;
            for &value in values {
                for &p in &positions {
                    self.buffer[p as usize] = value;
                }
                out.extend_from_slice(&self.buffer);
            }
            self.cur_entry[last] = end as u32 - 1;
        }
        Ok(())
    }
}

/// The structured error for an output that cannot be held in memory.
fn output_too_large(why: &dyn std::fmt::Display) -> FdbError {
    FdbError::LimitExceeded {
        detail: format!("materialised output too large: {why}"),
    }
}

/// Emits every tuple of `rep` in `config`'s slot order into one row-major
/// buffer, under `ctx`.  The tuple count is known without enumerating
/// ([`FRep::tuple_count`]), so an output the budget cannot cover is refused
/// before anything is allocated, and the buffer is sized exactly once.
fn emit_all(rep: &FRep, config: &CursorConfig, ctx: &ExecCtx) -> Result<Vec<Value>> {
    let tuples = rep.tuple_count();
    let tuples =
        u64::try_from(tuples).map_err(|_| output_too_large(&format_args!("{tuples} tuples")))?;
    if tuples > ctx.budget_remaining() {
        // Fails with the structured `BudgetExceeded`, consuming nothing.
        ctx.charge(tuples)?;
    }
    let cells = usize::try_from(tuples)
        .ok()
        .and_then(|t| t.checked_mul(config.width))
        .ok_or_else(|| {
            output_too_large(&format_args!("{tuples} tuples of {} values", config.width))
        })?;
    let mut out = Vec::new();
    out.try_reserve_exact(cells)
        .map_err(|e| output_too_large(&e))?;
    TupleCursor::with_config(rep, config).emit_into(&mut out, ctx)?;
    Ok(out)
}

/// Materialises the represented relation as a flat [`Relation`] over the
/// visible attributes (ascending id order).
pub fn materialize(rep: &FRep) -> Result<Relation> {
    materialize_ctx(rep, &ExecCtx::unlimited())
}

/// [`materialize`] under a governance context: charges one unit per
/// enumerated tuple, so a deadline, budget or cancellation flag interrupts
/// the constant-delay scan.  Enumeration never mutates the representation,
/// so an abort just drops the partially built output.
pub fn materialize_ctx(rep: &FRep, ctx: &ExecCtx) -> Result<Relation> {
    failpoint!(ctx, "enumerate.cursor");
    let data = emit_all(rep, &CursorConfig::new(rep), ctx)?;
    Relation::from_flat(rep.visible_attrs(), data)
}

// ---------------------------------------------------------------------
// Ordered enumeration (ORDER BY)
// ---------------------------------------------------------------------
//
// The ordered-output contract, shared by every path below and by the
// engine's oracles: rows sorted ascending by the ordering attributes in
// request order, ties broken by the full row (all visible attributes in
// ascending id order).  The tie-break makes the order total, so ordered
// results are bit-for-bit deterministic regardless of which strategy
// produced them.

/// How an ordered materialisation obtained its order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OrderStrategy {
    /// The ordering attributes' nodes form a root-path chain of the f-tree:
    /// a [`CursorConfig::with_priority`] cursor emitted the rows already
    /// sorted by the ordering prefix — and, on a canonical layout, already
    /// in their final order.
    Chain,
    /// No chain: enumerate in plain f-tree order, then sort the flat
    /// output.
    FlatSort,
}

/// Resolves an `ORDER BY` attribute list against the f-tree: returns the
/// ordering nodes as a root-path chain (outermost first, class attributes
/// deduplicated) when the attributes' nodes form one — the precondition of
/// free ordered enumeration — and `None` otherwise (unknown or invisible
/// attribute, chain not starting at a root, or a gap in the path).  The
/// caller decides whether to restructure the tree or fall back to a flat
/// sort.
pub fn order_chain(tree: &FTree, order_by: &[AttrId]) -> Option<Vec<NodeId>> {
    if order_by.is_empty() {
        return None;
    }
    let mut chain: Vec<NodeId> = Vec::new();
    for &attr in order_by {
        let node = tree.node_of_attr(attr)?;
        if !tree.visible_attrs(node).contains(&attr) {
            return None;
        }
        match chain.last() {
            None => {
                if tree.parent(node).is_some() {
                    return None;
                }
                chain.push(node);
            }
            Some(&prev) if prev == node => {}
            Some(&prev) => {
                if tree.parent(node) != Some(prev) {
                    return None;
                }
                chain.push(node);
            }
        }
    }
    Some(chain)
}

/// Buffer column of every ordering attribute (ascending-id buffer layout).
fn order_cols(attrs: &[AttrId], order_by: &[AttrId]) -> Result<Vec<usize>> {
    order_by
        .iter()
        .map(|&a| {
            attrs
                .binary_search(&a)
                .map_err(|_| FdbError::AttributeNotInQuery {
                    attr: format!("{a}"),
                })
        })
        .collect()
}

#[cfg(test)]
thread_local! {
    /// Row comparisons made by this thread's ordered materialisations.
    static COMPARISONS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// The canonical ordered-output comparator (see the section comment).
fn canonical_cmp(a: &[Value], b: &[Value], order_cols: &[usize]) -> std::cmp::Ordering {
    #[cfg(test)]
    COMPARISONS.with(|c| c.set(c.get() + 1));
    for &c in order_cols {
        match a[c].cmp(&b[c]) {
            std::cmp::Ordering::Equal => {}
            other => return other,
        }
    }
    a.cmp(b)
}

/// The one fallback behind every non-canonical emission: sorts the rows of
/// a row-major buffer into the canonical order by sorting row *indices* and
/// gathering once.  With `prefix_sorted` (a chain emission) the rows arrive
/// sorted on the ordering columns, so only each maximal run of equal
/// ordering values is sorted, by the full row; otherwise the whole buffer
/// is one run under the full comparator.
fn sort_rows(data: &mut [Value], width: usize, order_cols: &[usize], prefix_sorted: bool) {
    if width == 0 {
        return;
    }
    let rows = data.len() / width;
    let tie_cols = if prefix_sorted { &[] } else { order_cols };
    let mut order: Vec<usize> = Vec::new();
    let mut sorted: Vec<Value> = Vec::new();
    let mut start = 0;
    while start < rows {
        let row = |i: usize| &data[i * width..(i + 1) * width];
        let end = if prefix_sorted {
            (start + 1..rows)
                .find(|&i| order_cols.iter().any(|&c| row(i)[c] != row(start)[c]))
                .unwrap_or(rows)
        } else {
            rows
        };
        if end - start > 1 {
            order.clear();
            order.extend(start..end);
            order.sort_unstable_by(|&i, &j| canonical_cmp(row(i), row(j), tie_cols));
            sorted.clear();
            for &i in &order {
                sorted.extend_from_slice(row(i));
            }
            data[start * width..end * width].copy_from_slice(&sorted);
        }
        start = end;
    }
}

/// Materialises the represented relation **in the canonical ordered-output
/// order** for the given `ORDER BY` attributes.  Picks the chain strategy
/// (ordered enumeration via [`CursorConfig::with_priority`]) when
/// [`order_chain`] finds a root-path chain and the enumerate-then-sort
/// fallback otherwise — the flat buffer is filled in the chosen layout's
/// order and the fallback sort runs only when that layout is not canonical;
/// both produce bit-for-bit identical rows, so the returned
/// [`OrderStrategy`] is observability, not semantics.  Charges one unit per
/// enumerated tuple, like [`materialize_ctx`].
pub fn materialize_ordered_ctx(
    rep: &FRep,
    order_by: &[AttrId],
    ctx: &ExecCtx,
) -> Result<(Relation, OrderStrategy)> {
    failpoint!(ctx, "enumerate.cursor");
    let attrs = rep.visible_attrs();
    let cols = order_cols(&attrs, order_by)?;
    let (config, strategy) = match order_chain(rep.tree(), order_by) {
        Some(chain) => (
            CursorConfig::with_priority(rep, &chain)?,
            OrderStrategy::Chain,
        ),
        None => (CursorConfig::new(rep), OrderStrategy::FlatSort),
    };
    let mut data = emit_all(rep, &config, ctx)?;
    if !config.canonical {
        let prefix_sorted = strategy == OrderStrategy::Chain;
        sort_rows(&mut data, attrs.len(), &cols, prefix_sorted);
    }
    Ok((Relation::from_flat(attrs, data)?, strategy))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frep::FRep;
    use crate::node::{Entry, Union};
    use fdb_common::AttrId;
    use fdb_ftree::{DepEdge, FTree};
    use std::collections::BTreeSet;

    fn attrs(ids: &[u32]) -> BTreeSet<AttrId> {
        ids.iter().map(|&i| AttrId(i)).collect()
    }

    fn for_each_tuple<F: FnMut(&[Value])>(rep: &FRep, mut f: F) {
        let mut cursor = TupleCursor::new(rep);
        while cursor.advance() {
            f(cursor.tuple());
        }
    }

    fn count_by_enumeration(rep: &FRep) -> u128 {
        let mut n: u128 = 0;
        for_each_tuple(rep, |_| n += 1);
        n
    }

    /// The materialise-then-sort reference: enumerates tuple by tuple in
    /// plain f-tree order and sorts owned rows with the canonical
    /// comparator — on purpose none of the block emission, priority layout
    /// or flat buffer the ordered paths are pinned against it for.
    fn materialize_then_sort(rep: &FRep, order_by: &[AttrId]) -> Result<Relation> {
        let attrs = rep.visible_attrs();
        let cols = order_cols(&attrs, order_by)?;
        let mut rows: Vec<Vec<Value>> = Vec::new();
        for_each_tuple(rep, |tuple| rows.push(tuple.to_vec()));
        rows.sort_unstable_by(|a, b| canonical_cmp(a, b, &cols));
        Relation::from_rows(attrs, rows)
    }

    /// ⟨A:1⟩×(⟨B:1⟩ ∪ ⟨B:2⟩) ∪ ⟨A:2⟩×⟨B:2⟩ over the f-tree A → B.
    fn example3() -> FRep {
        let edges = vec![DepEdge::new("R", attrs(&[0, 1]), 3)];
        let mut tree = FTree::new(edges);
        let a = tree.add_node(attrs(&[0]), None).unwrap();
        let b = tree.add_node(attrs(&[1]), Some(a)).unwrap();
        let union = Union::new(
            a,
            vec![
                Entry {
                    value: Value::new(1),
                    children: vec![Union::new(
                        b,
                        vec![Entry::leaf(Value::new(1)), Entry::leaf(Value::new(2))],
                    )],
                },
                Entry {
                    value: Value::new(2),
                    children: vec![Union::new(b, vec![Entry::leaf(Value::new(2))])],
                },
            ],
        );
        FRep::from_parts(tree, vec![union]).unwrap()
    }

    /// A two-root forest: (⟨A:1⟩ ∪ ⟨A:2⟩) × (⟨B:5⟩ ∪ ⟨B:6⟩ ∪ ⟨B:7⟩).
    fn product_forest() -> FRep {
        let edges = vec![
            DepEdge::new("R", attrs(&[0]), 2),
            DepEdge::new("S", attrs(&[1]), 3),
        ];
        let mut tree = FTree::new(edges);
        let a = tree.add_node(attrs(&[0]), None).unwrap();
        let b = tree.add_node(attrs(&[1]), None).unwrap();
        let ua = Union::new(
            a,
            vec![Entry::leaf(Value::new(1)), Entry::leaf(Value::new(2))],
        );
        let ub = Union::new(
            b,
            vec![
                Entry::leaf(Value::new(5)),
                Entry::leaf(Value::new(6)),
                Entry::leaf(Value::new(7)),
            ],
        );
        FRep::from_parts(tree, vec![ua, ub]).unwrap()
    }

    #[test]
    fn example3_enumerates_its_three_tuples() {
        let rep = example3();
        let rel = materialize(&rep).unwrap();
        let expected: BTreeSet<Vec<Value>> = [
            vec![Value::new(1), Value::new(1)],
            vec![Value::new(1), Value::new(2)],
            vec![Value::new(2), Value::new(2)],
        ]
        .into_iter()
        .collect();
        assert_eq!(rel.tuple_set(), expected);
        assert_eq!(count_by_enumeration(&rep), rep.tuple_count());
    }

    #[test]
    fn tuples_come_out_in_lexicographic_order() {
        let rep = example3();
        let mut rows: Vec<Vec<Value>> = Vec::new();
        for_each_tuple(&rep, |t| rows.push(t.to_vec()));
        let mut sorted = rows.clone();
        sorted.sort();
        assert_eq!(rows, sorted);
    }

    #[test]
    fn product_of_roots_enumerates_the_cross_product() {
        let rep = product_forest();
        let rel = materialize(&rep).unwrap();
        assert_eq!(rel.len(), 6);
        assert_eq!(rel.arity(), 2);
        assert_eq!(count_by_enumeration(&rep), 6);
    }

    #[test]
    fn empty_representation_enumerates_nothing() {
        let edges = vec![DepEdge::new("R", attrs(&[0]), 0)];
        let mut tree = FTree::new(edges);
        tree.add_node(attrs(&[0]), None).unwrap();
        let rep = FRep::empty(tree);
        assert_eq!(count_by_enumeration(&rep), 0);
        assert!(materialize(&rep).unwrap().is_empty());
    }

    #[test]
    fn nullary_representation_enumerates_one_empty_tuple() {
        let rep = FRep::empty(FTree::new(vec![]));
        let mut tuples = 0;
        for_each_tuple(&rep, |t| {
            assert!(t.is_empty());
            tuples += 1;
        });
        assert_eq!(tuples, 1);
    }

    #[test]
    fn class_attributes_share_the_entry_value() {
        // A node labelled by two attributes emits the same value for both.
        let edges = vec![DepEdge::new("R", attrs(&[0, 1]), 1)];
        let mut tree = FTree::new(edges);
        let ab = tree.add_node(attrs(&[0, 1]), None).unwrap();
        let u = Union::new(ab, vec![Entry::leaf(Value::new(9))]);
        let rep = FRep::from_parts(tree, vec![u]).unwrap();
        let rel = materialize(&rep).unwrap();
        assert_eq!(rel.len(), 1);
        assert_eq!(rel.row(0), &[Value::new(9), Value::new(9)]);
    }

    #[test]
    fn empty_inner_union_skips_only_its_branch() {
        // A{0} → B{1}; A=1 has an empty B-union (unpruned), A=2 has B{7}.
        // Only A=2's tuple must be produced.
        let edges = vec![DepEdge::new("R", attrs(&[0, 1]), 2)];
        let mut tree = FTree::new(edges);
        let a = tree.add_node(attrs(&[0]), None).unwrap();
        let b = tree.add_node(attrs(&[1]), Some(a)).unwrap();
        let union = Union::new(
            a,
            vec![
                Entry {
                    value: Value::new(1),
                    children: vec![Union::empty(b)],
                },
                Entry {
                    value: Value::new(2),
                    children: vec![Union::new(b, vec![Entry::leaf(Value::new(7))])],
                },
            ],
        );
        let rep = FRep::from_parts(tree, vec![union]).unwrap();
        let rel = materialize(&rep).unwrap();
        assert_eq!(rel.len(), 1);
        assert_eq!(rel.row(0), &[Value::new(2), Value::new(7)]);
    }

    /// A → B tree with a *repeating* child value so ordering by B has
    /// multi-tuple runs: tuples {(1,4), (1,9), (2,4), (3,4), (3,9)}.
    fn runs_shape() -> FRep {
        let edges = vec![DepEdge::new("R", attrs(&[0, 1]), 5)];
        let mut tree = FTree::new(edges);
        let a = tree.add_node(attrs(&[0]), None).unwrap();
        let b = tree.add_node(attrs(&[1]), Some(a)).unwrap();
        let kid = |vals: &[u64]| {
            Union::new(
                b,
                vals.iter().map(|&v| Entry::leaf(Value::new(v))).collect(),
            )
        };
        let union = Union::new(
            a,
            vec![
                Entry {
                    value: Value::new(1),
                    children: vec![kid(&[4, 9])],
                },
                Entry {
                    value: Value::new(2),
                    children: vec![kid(&[4])],
                },
                Entry {
                    value: Value::new(3),
                    children: vec![kid(&[4, 9])],
                },
            ],
        );
        FRep::from_parts(tree, vec![union]).unwrap()
    }

    #[test]
    fn order_chain_accepts_root_paths_only() {
        let rep = runs_shape();
        let tree = rep.tree();
        let a = tree.node_of_attr(AttrId(0)).unwrap();
        let b = tree.node_of_attr(AttrId(1)).unwrap();
        assert_eq!(order_chain(tree, &[AttrId(0)]), Some(vec![a]));
        assert_eq!(order_chain(tree, &[AttrId(0), AttrId(1)]), Some(vec![a, b]));
        // Not starting at the root, gaps, unknown attributes: no chain.
        assert_eq!(order_chain(tree, &[AttrId(1)]), None);
        assert_eq!(order_chain(tree, &[AttrId(1), AttrId(0)]), None);
        assert_eq!(order_chain(tree, &[AttrId(9)]), None);
        assert_eq!(order_chain(tree, &[]), None);
    }

    #[test]
    fn ordered_materialize_matches_the_sort_oracle_on_both_strategies() {
        for rep in [example3(), product_forest(), runs_shape()] {
            let attrs = rep.visible_attrs();
            // Every single- and two-attribute ordering, chain or not.
            let mut orders: Vec<Vec<AttrId>> = attrs.iter().map(|&a| vec![a]).collect();
            for &a in &attrs {
                for &b in &attrs {
                    if a != b {
                        orders.push(vec![a, b]);
                    }
                }
            }
            for order in &orders {
                let oracle = materialize_then_sort(&rep, order).unwrap();
                let (got, strategy) =
                    materialize_ordered_ctx(&rep, order, &ExecCtx::unlimited()).unwrap();
                let oracle_rows: Vec<_> = oracle.rows().collect();
                let got_rows: Vec<_> = got.rows().collect();
                assert_eq!(
                    got_rows, oracle_rows,
                    "order {order:?} via {strategy:?} diverges from the sort oracle"
                );
            }
        }
    }

    #[test]
    fn chain_strategy_is_used_when_the_chain_exists() {
        let rep = runs_shape();
        let (_, s) = materialize_ordered_ctx(&rep, &[AttrId(0)], &ExecCtx::unlimited()).unwrap();
        assert_eq!(s, OrderStrategy::Chain);
        let (_, s) =
            materialize_ordered_ctx(&rep, &[AttrId(0), AttrId(1)], &ExecCtx::unlimited()).unwrap();
        assert_eq!(s, OrderStrategy::Chain);
        // B alone is not a root path: flat sort.
        let (_, s) = materialize_ordered_ctx(&rep, &[AttrId(1)], &ExecCtx::unlimited()).unwrap();
        assert_eq!(s, OrderStrategy::FlatSort);
    }

    #[test]
    fn priority_cursor_orders_by_a_non_first_root() {
        // Ordering by the *second* root's attribute: slot 0 must become
        // that root (root_entries and the odometer follow kid_index).
        let rep = product_forest();
        let (rel, s) = materialize_ordered_ctx(&rep, &[AttrId(1)], &ExecCtx::unlimited()).unwrap();
        assert_eq!(s, OrderStrategy::Chain);
        let oracle = materialize_then_sort(&rep, &[AttrId(1)]).unwrap();
        let got: Vec<_> = rel.rows().collect();
        let want: Vec<_> = oracle.rows().collect();
        assert_eq!(got, want);
    }

    /// A forest from `(class, parent index)` specs (parents first) with
    /// uniform data: every union over node `i` holds `vals[i]`, whatever its
    /// ancestors' entries.  One dependency edge per root-to-leaf path;
    /// `invisible` attributes are marked projected away.
    fn uniform_rep(specs: &[(&[u32], Option<usize>)], vals: &[&[u64]], invisible: &[u32]) -> FRep {
        fn union_of(tree: &FTree, ids: &[NodeId], vals: &[&[u64]], i: usize) -> Union {
            let entries = vals[i].iter().map(|&v| Entry {
                value: Value::new(v),
                children: tree
                    .children(ids[i])
                    .iter()
                    .map(|c| union_of(tree, ids, vals, ids.iter().position(|n| n == c).unwrap()))
                    .collect(),
            });
            Union::new(ids[i], entries.collect())
        }
        let path_attrs = |mut i: usize| {
            let mut on_path = attrs(specs[i].0);
            while let Some(p) = specs[i].1 {
                on_path.extend(attrs(specs[p].0));
                i = p;
            }
            on_path
        };
        let leaves = (0..specs.len()).filter(|&i| specs.iter().all(|s| s.1 != Some(i)));
        let edges = leaves
            .map(|i| DepEdge::new(format!("R{i}"), path_attrs(i), 1))
            .collect();
        let mut tree = FTree::new(edges);
        let mut ids: Vec<NodeId> = Vec::new();
        for &(class, parent) in specs {
            let id = tree.add_node(attrs(class), parent.map(|p| ids[p])).unwrap();
            ids.push(id);
        }
        tree.mark_attrs_projected(&attrs(invisible));
        let roots = (0..specs.len())
            .filter(|&i| specs[i].1.is_none())
            .map(|i| union_of(&tree, &ids, vals, i))
            .collect();
        FRep::from_parts(tree, roots).unwrap()
    }

    /// Runs the ordered materialiser and reports how many row comparisons
    /// it made, after checking the rows against the sort oracle.
    fn ordered_comparisons(rep: &FRep, order: &[u32]) -> (OrderStrategy, u64) {
        let order: Vec<AttrId> = order.iter().map(|&a| AttrId(a)).collect();
        COMPARISONS.with(|c| c.set(0));
        let (got, strategy) = materialize_ordered_ctx(rep, &order, &ExecCtx::unlimited()).unwrap();
        let comparisons = COMPARISONS.with(|c| c.get());
        assert_eq!(got, materialize_then_sort(rep, &order).unwrap());
        (strategy, comparisons)
    }

    #[test]
    fn canonical_layouts_never_compare_and_every_other_tree_falls_back() {
        use OrderStrategy::{Chain, FlatSort};
        const V: &[u64] = &[1, 2, 3];
        // (what, forest, invisible attributes, ORDER BY, strategy, sort-free)
        type Case<'a> = (
            &'a str,
            &'a [(&'a [u32], Option<usize>)],
            &'a [u32],
            &'a [u32],
            OrderStrategy,
            bool,
        );
        let cases: &[Case] = &[
            // The standing benchmark's shapes as the planner's swap leaves
            // them: b → a → c, the same beside two unary roots, and the
            // fork {a, a2} → (e, b → c) ordered by its far branch.
            (
                "path",
                &[(&[1], None), (&[0], Some(0)), (&[2], Some(1))],
                &[],
                &[1],
                Chain,
                true,
            ),
            (
                "nested",
                &[
                    (&[4], None),
                    (&[3], None),
                    (&[1], None),
                    (&[0], Some(2)),
                    (&[2], Some(3)),
                ],
                &[],
                &[1],
                Chain,
                true,
            ),
            (
                "fork",
                &[
                    (&[0, 3], None),
                    (&[4], Some(0)),
                    (&[1], Some(0)),
                    (&[2], Some(2)),
                ],
                &[],
                &[4],
                FlatSort,
                false,
            ),
            // A chain node's children may sit below it: equal chain values
            // make the chain's own columns irrelevant to the tie-break.
            (
                "two-level chain",
                &[
                    (&[3], None),
                    (&[2], Some(0)),
                    (&[0], Some(1)),
                    (&[1], Some(1)),
                ],
                &[],
                &[3, 2],
                Chain,
                true,
            ),
            // Interleaved classes: {1,5} above {3} is decided by 1 < 3.
            (
                "interleaved",
                &[(&[4], None), (&[1, 5], None), (&[3], Some(1))],
                &[],
                &[4],
                Chain,
                true,
            ),
            // Other roots on both sides of the chain's ids.
            (
                "roots around",
                &[(&[2], None), (&[0], None), (&[5], None)],
                &[],
                &[2],
                Chain,
                true,
            ),
            // A non-chain child below its parent must wait for it.
            (
                "child below parent",
                &[(&[2], None), (&[3], None), (&[0], Some(1))],
                &[],
                &[2],
                Chain,
                false,
            ),
            // With 1 projected away {1,5} is decided by 5 > 3.
            (
                "partly invisible",
                &[(&[4], None), (&[1, 5], None), (&[3], Some(1))],
                &[1],
                &[4],
                Chain,
                false,
            ),
            // A class with nothing visible turns its wheel unseen.
            (
                "invisible class",
                &[(&[2], None), (&[3], None), (&[4], Some(1))],
                &[3],
                &[2],
                Chain,
                false,
            ),
        ];
        for &(what, specs, invisible, order, strategy, sort_free) in cases {
            let vals = vec![V; specs.len()];
            let rep = uniform_rep(specs, &vals, invisible);
            let (got, comparisons) = ordered_comparisons(&rep, order);
            assert_eq!(got, strategy, "{what}: strategy");
            assert_eq!(
                comparisons == 0,
                sort_free,
                "{what}: {comparisons} comparisons"
            );
            let order: Vec<AttrId> = order.iter().map(|&a| AttrId(a)).collect();
            if let Some(chain) = order_chain(rep.tree(), &order) {
                let config = CursorConfig::with_priority(&rep, &chain).unwrap();
                assert_eq!(config.canonical, sort_free, "{what}: layout flag");
            }
        }
    }

    /// 12 × 12 × 12 = 1728 tuples — more than one `CHECK_INTERVAL` — over
    /// x{2}, p{3} → q{0} and a lone root r{5}, leaf unions of 12.
    fn governed_rep() -> FRep {
        const V: &[u64] = &[1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12];
        uniform_rep(
            &[(&[2], None), (&[3], None), (&[0], Some(1)), (&[5], None)],
            &[V, &[7], V, V],
            &[],
        )
    }

    type Governed = Box<dyn Fn(&FRep, &ExecCtx) -> Result<Relation>>;

    /// Every governed materialiser: plain, canonical chain (ORDER BY q's
    /// parent), chain with the run-sort fallback (ORDER BY x: q sits below
    /// p), and the flat sort (ORDER BY the non-root q).
    fn governed_paths() -> Vec<(&'static str, Governed)> {
        fn ordered(order: u32, want: OrderStrategy) -> Governed {
            Box::new(move |rep, ctx| {
                let (rows, strategy) = materialize_ordered_ctx(rep, &[AttrId(order)], ctx)?;
                assert_eq!(strategy, want);
                Ok(rows)
            })
        }
        vec![
            ("plain", Box::new(materialize_ctx)),
            ("canonical chain", ordered(3, OrderStrategy::Chain)),
            ("chain fallback", ordered(2, OrderStrategy::Chain)),
            ("flat sort", ordered(0, OrderStrategy::FlatSort)),
        ]
    }

    #[test]
    fn budgets_are_charged_one_unit_per_tuple_and_refused_up_front() {
        use fdb_common::QueryLimits;
        let rep = governed_rep();
        let tuples = u64::try_from(rep.tuple_count()).unwrap();
        assert_eq!(tuples, 1728);
        for (what, run) in governed_paths() {
            // Exactly enough: every unit is spent, none more.
            let ctx = ExecCtx::new(&QueryLimits::unlimited().with_budget(tuples));
            assert_eq!(run(&rep, &ctx).unwrap().len() as u64, tuples, "{what}");
            assert_eq!(ctx.budget_remaining(), 0, "{what}: units charged");
            // One short: refused before a single unit is charged.
            let ctx = ExecCtx::new(&QueryLimits::unlimited().with_budget(tuples - 1));
            assert_eq!(
                run(&rep, &ctx).unwrap_err(),
                FdbError::BudgetExceeded { limit: tuples - 1 },
                "{what}"
            );
            assert_eq!(
                ctx.budget_remaining(),
                tuples - 1,
                "{what}: nothing consumed"
            );
        }
    }

    #[test]
    fn a_raised_cancel_flag_stops_the_scan_within_one_interval_and_one_leaf_union() {
        use fdb_common::{limits::CHECK_INTERVAL, QueryLimits};
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;
        let rep = governed_rep();
        for (what, run) in governed_paths() {
            let budget = 1 << 20;
            let limits = QueryLimits::unlimited()
                .with_budget(budget)
                .with_cancel(Arc::new(AtomicBool::new(true)));
            let ctx = ExecCtx::new(&limits);
            assert_eq!(
                run(&rep, &ctx).unwrap_err(),
                FdbError::DeadlineExceeded { limit_ms: 0 },
                "{what}"
            );
            let charged = budget - ctx.budget_remaining();
            assert!(
                (1..=CHECK_INTERVAL + 12).contains(&charged),
                "{what}: {charged} units charged before the flag was honoured"
            );
        }
    }

    #[test]
    fn an_output_too_large_to_address_is_a_structured_error() {
        // Roots of 4 values each: 4^40 tuples do not fit the tuple counter's
        // u64, and 4^31 tuples of 31 values overflow the cell count.
        for roots in [40u32, 31] {
            let classes: Vec<[u32; 1]> = (0..roots).map(|i| [i]).collect();
            let specs: Vec<(&[u32], Option<usize>)> =
                classes.iter().map(|c| (c.as_slice(), None)).collect();
            let vals: Vec<&[u64]> = vec![&[1, 2, 3, 4]; specs.len()];
            let rep = uniform_rep(&specs, &vals, &[]);
            assert!(matches!(
                materialize(&rep),
                Err(FdbError::LimitExceeded { .. })
            ));
            assert!(matches!(
                materialize_ordered_ctx(&rep, &[AttrId(0)], &ExecCtx::unlimited()),
                Err(FdbError::LimitExceeded { .. })
            ));
        }
    }

    #[test]
    fn cursor_can_be_driven_manually() {
        let rep = product_forest();
        let mut cursor = TupleCursor::new(&rep);
        let mut count = 0;
        while cursor.advance() {
            assert_eq!(cursor.tuple().len(), 2);
            count += 1;
        }
        assert_eq!(count, 6);
        // Once exhausted, the cursor stays exhausted.
        assert!(!cursor.advance());
    }
}
