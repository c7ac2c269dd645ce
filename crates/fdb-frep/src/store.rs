//! The arena store backing [`crate::FRep`].
//!
//! # Layout (structure of arrays)
//!
//! Instead of a pointer tree of heap-allocated `Vec`s, a representation is
//! flattened into contiguous arenas plus a root list.  Entry records are
//! stored in **SoA form** — the values and the kid-run offsets live in two
//! parallel arrays instead of one array of interleaved records:
//!
//! ```text
//! unions:      [ UnionRec { node, entries_start, entries_len } … ]
//! values:      [ Value … ]        (entry i's value)
//! kids_starts: [ u32 … ]          (entry i's kid-run offset into `kids`)
//! kids:        [ union index … ]
//! roots:       [ union index … ]  (one per f-tree root)
//! ```
//!
//! * The entries of one union are **contiguous** (`entries_start ..
//!   entries_start + entries_len` indexes both entry arrays) and sorted
//!   strictly increasing by value, so [`Store::value_slice`] hands any
//!   consumer a dense `&[Value]` and `find_value` is a cache-friendly
//!   search over it.
//! * Splitting values from kid offsets is what feeds the vectorised scan
//!   kernels ([`crate::kernel`]): predicate masks, probes and sortedness
//!   checks stream over the value array alone — half
//!   the bytes of the old interleaved `(value, kids_start)` records, in
//!   SIMD-lane-ready form.  The two arrays always have the same length;
//!   they are **sealed** (private to this module) and mutated only through
//!   paired operations ([`Store::push_entry`], [`Store::truncate_entries`],
//!   the [`Rewriter`]), so they cannot drift apart.
//! * The child unions of one entry occupy a contiguous run of `kids` whose
//!   length is `tree.children(node).len()` and whose order is **exactly the
//!   f-tree's child order**, so looking up "the child union over node `N`"
//!   is an O(1) index instead of the old linear scan over a `Vec<Union>`.
//! * Union indices are **topological**: every kid index is strictly greater
//!   than the index of the union containing it.  Bottom-up passes (tuple
//!   counting, pruning) are therefore flat reverse loops over `unions`, and
//!   top-down passes are flat forward loops — no recursion, no hashing.
//!
//! The store is immutable in place; every operator rebuilds it with a flat
//! arena-to-arena pass.  The Cartesian product uses
//! [`Store::append_remapped`]; the plan executor ([`crate::ops::fuse`])
//! emits a fresh arena through a [`Rewriter`], which reproduces the exact
//! layout [`Store::freeze`] would produce for the rewritten representation
//! — so its results are bit-for-bit interchangeable with the
//! thaw/rewrite/freeze oracle in [`crate::ops::oracle`] while skipping both
//! linear copies and every per-node allocation.
//!
//! # The freeze layout, and what it buys
//!
//! [`Store::freeze`] (and every [`Rewriter`]) writes the arenas depth first,
//! which fixes three properties beyond the invariants above:
//!
//! 1. **Headers in depth-first preorder.**  A union's header is pushed at
//!    its visit, before any union below it, so the subtree of union `u` is
//!    the contiguous index range `[u, last]`.
//! 2. **Entry blocks in union order without gaps.**  A union's whole entry
//!    block is pushed with its header: `entries_start(u + 1) =
//!    entries_start(u) + entries_len(u)`, starting at 0.
//! 3. **Kid runs in entry post-order without gaps.**  An entry's kid run is
//!    pushed after the kid subtrees it points to; an entry of a leaf union
//!    pushes nothing and carries the kid arena's length at that moment (the
//!    *kid watermark*) as its offset.
//!
//! *Subtree extent.*  Under these properties the subtree of `u` is three
//! contiguous ranges, found in O(depth): `last` by following last entry /
//! last kid from `u` until a union without entries or kids; the entries
//! `[entries_start(u), entries_start(last) + entries_len(last))`; and — one
//! kid slot per union below `u`, all pushed during `u`'s visit — exactly
//! `last − u` kid slots ending where the kid run of `u`'s last entry ends.
//!
//! *Run copies.*  The same holds for a contiguous run `i..j` of `u`'s
//! entries: the kid subtrees of its entries are the union range from the
//! first kid of entry `i` to the last union below entry `j − 1`, their
//! entries one range, and their kid slots — one per union, the runs of
//! `u`'s entries `i..j` among them — one range ending where entry `j − 1`'s
//! kid run ends.  [`Rewriter::copy_run`] therefore copies a run as a new
//! union — its header, the run's values and kid offsets — followed by the
//! subtrees below it as **relocated blocks**: each array extended once, a
//! constant delta added to every `entries_start`, `kids_start` and kid
//! index.  A leaf run is a header, its values and one constant kid offset
//! (the watermark), and an untouched subtree is the run of all of `u`'s
//! entries.  That is bit for bit what the record-by-record recursion
//! writes, and the recursion remains the path for arenas not in this
//! layout.  A selection keeps one such run of each selected union (see
//! [`crate::ops::fuse`]), so its result costs what it keeps.
//!
//! *Reduced.*  No union below a root is empty: an entry with an empty kid
//! union represents nothing, and every writer drops it (the build never
//! emits one, a selection and the merge/absorb prune drop it).
//! [`Store::validate`] refuses such an entry, so a loaded snapshot and a
//! hand-built forest keep the invariant too; a root union may be empty.
//!
//! *Who says so.*  A store carries the private fact `freeze_layout`.  It is
//! set by construction by [`Store::freeze`], by [`Rewriter::finish`] (the
//! rewriter emits in freeze order whatever the layout of its input), and by
//! [`Store::append_remapped`] of two such stores (concatenating two freeze
//! forests is the freeze of the joint forest).  [`crate::build`] emits
//! headers first but entry blocks in post-order, so its results never carry
//! it.  A decoded snapshot never *reads* it: the bytes are outside input,
//! and a wrong claim would turn the block copy into a silently wrong result
//! rather than an error — so [`Store::verify_layout`] re-derives it with one
//! linear walk of the arena after [`Store::validate`] accepted it.  The fact
//! is not part of a store's identity (`==` compares the five arrays), and in
//! debug builds every [`Rewriter::new`] re-checks a set flag.

use crate::frep::{visible_table, FRep};
use crate::kernel;
use crate::node::{Entry, Union};
use fdb_common::{FdbError, Result, Value};
use fdb_ftree::{FTree, NodeId};
use std::collections::BTreeMap;
use std::ops::Range;

/// Sentinel kid index for a child union missing from a malformed builder
/// forest; [`Store::validate`] reports it, nothing else may encounter it.
const MISSING_KID: u32 = u32::MAX;

/// Header of one union: which node it ranges over and where its entries
/// live in the entry arrays.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct UnionRec {
    pub(crate) node: NodeId,
    pub(crate) entries_start: u32,
    pub(crate) entries_len: u32,
}

/// The flattened representation data (see the module docs for the layout).
///
/// The two entry arrays (`values`, `kids_starts`) are private — the sealed
/// accessor layer below is the only way in or out, which guarantees they
/// stay parallel.
#[derive(Clone, Debug, Default)]
pub(crate) struct Store {
    pub(crate) unions: Vec<UnionRec>,
    /// Entry values, contiguous per union, strictly increasing within one.
    values: Vec<Value>,
    /// Entry kid-run offsets into `kids`, parallel to `values`.
    kids_starts: Vec<u32>,
    pub(crate) kids: Vec<u32>,
    pub(crate) roots: Vec<u32>,
    /// The arenas are in the exact [`Store::freeze`] layout (see the module
    /// docs): what lets [`Rewriter::copy_run`] copy subtrees as blocks.
    freeze_layout: bool,
}

/// The next free index of each arena while [`Store::is_freeze_layout`]
/// replays the order [`Store::freeze`] writes in.
#[derive(Default)]
struct LayoutCursor {
    unions: u32,
    entries: u32,
    kids: u32,
}

/// Store identity is the five arrays; how a store came to be (and so
/// whether its layout is known) is not part of it.
impl PartialEq for Store {
    fn eq(&self, other: &Store) -> bool {
        self.unions == other.unions
            && self.values == other.values
            && self.kids_starts == other.kids_starts
            && self.kids == other.kids
            && self.roots == other.roots
    }
}

impl Store {
    /// An empty store with room for `unions` headers, `entries` entry
    /// records and `kids` kid slots.
    pub(crate) fn with_capacity(unions: usize, entries: usize, kids: usize) -> Store {
        Store {
            unions: Vec::with_capacity(unions),
            values: Vec::with_capacity(entries),
            kids_starts: Vec::with_capacity(entries),
            kids: Vec::with_capacity(kids),
            ..Store::default()
        }
    }

    // -----------------------------------------------------------------
    // The sealed entry accessors
    // -----------------------------------------------------------------

    /// Total number of entry records in the arena.
    #[inline]
    pub(crate) fn entry_count(&self) -> usize {
        self.values.len()
    }

    /// The values of the given union, as a dense contiguous slice — the
    /// input shape of every [`crate::kernel`] scan.
    #[inline]
    pub(crate) fn value_slice(&self, uid: u32) -> &[Value] {
        let rec = self.unions[uid as usize];
        &self.values[rec.entries_start as usize..(rec.entries_start + rec.entries_len) as usize]
    }

    /// Appends one entry record (both arrays in lockstep).
    #[inline]
    pub(crate) fn push_entry(&mut self, value: Value, kids_start: u32) {
        self.values.push(value);
        self.kids_starts.push(kids_start);
    }

    /// Truncates both entry arrays to `len` records — the watermark
    /// rollback primitive of [`crate::build`].
    #[inline]
    pub(crate) fn truncate_entries(&mut self, len: usize) {
        self.values.truncate(len);
        self.kids_starts.truncate(len);
    }

    /// The two parallel entry arrays, `(values, kids_starts)`, read-only —
    /// the snapshot codec writes each out as it is.
    pub(crate) fn entry_arrays(&self) -> (&[Value], &[u32]) {
        (&self.values, &self.kids_starts)
    }

    /// Reassembles a store from decoded arenas (the snapshot codec's
    /// constructor).  `values` and `kids_starts` must be the same length;
    /// the caller is expected to follow with [`Store::validate`] and then
    /// [`Store::verify_layout`].
    pub(crate) fn from_arena_parts(
        unions: Vec<UnionRec>,
        values: Vec<Value>,
        kids_starts: Vec<u32>,
        kids: Vec<u32>,
        roots: Vec<u32>,
    ) -> Store {
        debug_assert_eq!(values.len(), kids_starts.len());
        Store {
            unions,
            values,
            kids_starts,
            kids,
            roots,
            freeze_layout: false,
        }
    }

    // -----------------------------------------------------------------
    // Freeze / thaw
    // -----------------------------------------------------------------

    /// Freezes a builder forest into a fresh arena.  Tolerates malformed
    /// forests (missing child unions become [`MISSING_KID`], surplus child
    /// unions are dropped) — [`Store::validate`] or
    /// [`crate::node::validate_forest`] is responsible for rejecting them.
    pub(crate) fn freeze(tree: &FTree, roots: &[Union]) -> Store {
        let mut store = Store::default();
        let root_ids: Vec<u32> = roots.iter().map(|u| store.freeze_union(tree, u)).collect();
        store.roots = root_ids;
        // A malformed forest's missing kids break the subtree arithmetic.
        store.freeze_layout = !store.kids.contains(&MISSING_KID);
        store
    }

    fn freeze_union(&mut self, tree: &FTree, union: &Union) -> u32 {
        let uid = self.unions.len() as u32;
        let entries_start = self.values.len() as u32;
        self.unions.push(UnionRec {
            node: union.node,
            entries_start,
            entries_len: union.entries.len() as u32,
        });
        for entry in &union.entries {
            self.push_entry(entry.value, MISSING_KID);
        }
        let child_order: Vec<NodeId> = tree.children(union.node).to_vec();
        let mut kid_ids: Vec<u32> = Vec::with_capacity(child_order.len());
        for (i, entry) in union.entries.iter().enumerate() {
            kid_ids.clear();
            for &child_node in &child_order {
                kid_ids.push(match entry.child(child_node) {
                    Some(child_union) => self.freeze_union(tree, child_union),
                    None => MISSING_KID,
                });
            }
            let kids_start = self.kids.len() as u32;
            self.kids.extend_from_slice(&kid_ids);
            self.kids_starts[(entries_start + i as u32) as usize] = kids_start;
        }
        uid
    }

    /// Thaws the arena back into the builder form.
    pub(crate) fn thaw(&self, tree: &FTree) -> Vec<Union> {
        self.roots
            .iter()
            .map(|&uid| self.thaw_union(tree, uid))
            .collect()
    }

    fn thaw_union(&self, tree: &FTree, uid: u32) -> Union {
        let rec = self.unions[uid as usize];
        let kid_count = tree.children(rec.node).len();
        let entries = (rec.entries_start..rec.entries_start + rec.entries_len)
            .map(|e| {
                let kids_start = self.kids_starts[e as usize] as usize;
                let children = (0..kid_count)
                    .map(|k| self.thaw_union(tree, self.kids[kids_start + k]))
                    .collect();
                Entry {
                    value: self.values[e as usize],
                    children,
                }
            })
            .collect();
        Union {
            node: rec.node,
            entries,
        }
    }

    /// Number of entries of the given union.
    #[inline]
    pub(crate) fn union_len(&self, uid: u32) -> u32 {
        self.unions[uid as usize].entries_len
    }

    /// The kid union index of entry `entry_index` of union `uid` at kid
    /// position `kid_index` (the f-tree child order position).
    #[inline]
    pub(crate) fn kid(&self, uid: u32, entry_index: u32, kid_index: u32) -> u32 {
        let rec = self.unions[uid as usize];
        let kids_start = self.kids_starts[(rec.entries_start + entry_index) as usize];
        self.kids[(kids_start + kid_index) as usize]
    }

    /// Checks every arena invariant against the tree, no empty union below
    /// a root among them; used by [`crate::FRep::validate`].  The per-union sortedness check runs
    /// through the vectorised [`kernel::first_unsorted`] scan.
    pub(crate) fn validate(&self, tree: &FTree) -> Result<()> {
        use std::collections::BTreeSet;
        let malformed = |detail: String| FdbError::MalformedRepresentation { detail };

        if self.values.len() != self.kids_starts.len() {
            return Err(malformed(format!(
                "entry arrays out of lockstep: {} values vs {} kid offsets",
                self.values.len(),
                self.kids_starts.len()
            )));
        }
        let tree_roots: BTreeSet<NodeId> = tree.roots().iter().copied().collect();
        let rep_roots: BTreeSet<NodeId> = self
            .roots
            .iter()
            .map(|&r| {
                self.unions
                    .get(r as usize)
                    .map(|rec| rec.node)
                    .ok_or_else(|| malformed(format!("root union index {r} out of bounds")))
            })
            .collect::<Result<_>>()?;
        if tree_roots != rep_roots || self.roots.len() != tree.roots().len() {
            return Err(malformed(format!(
                "root unions {rep_roots:?} do not match f-tree roots {tree_roots:?}"
            )));
        }

        let mut reachable = vec![false; self.unions.len()];
        for &r in &self.roots {
            reachable[r as usize] = true;
        }
        for uid in 0..self.unions.len() {
            let rec = self.unions[uid];
            tree.check_node(rec.node)?;
            let child_order = tree.children(rec.node);
            let start = rec.entries_start as usize;
            let end = start + rec.entries_len as usize;
            if end > self.values.len() {
                return Err(malformed(format!("union {uid} entry range out of bounds")));
            }
            let values = &self.values[start..end];
            // Sortedness first, as one dense vectorised scan: leaf unions
            // hold the bulk of the arena and need nothing else checked.
            if let Some(i) = kernel::first_unsorted(values) {
                return Err(malformed(format!(
                    "union over {} has out-of-order or duplicate value {}",
                    rec.node,
                    values[i + 1]
                )));
            }
            if child_order.is_empty() {
                continue;
            }
            // Topological index order means every parent of `uid` has
            // already been processed, so its reachability is final here.
            let uid_reachable = reachable[uid];
            for e in start..end {
                let value = self.values[e];
                let kids_start = self.kids_starts[e];
                let kids_end = kids_start as usize + child_order.len();
                if kids_start == MISSING_KID || kids_end > self.kids.len() {
                    return Err(malformed(format!(
                        "entry {} of union over {} is missing child unions",
                        value, rec.node
                    )));
                }
                let kids = &self.kids[kids_start as usize..kids_end];
                for (&kid, &child_node) in kids.iter().zip(child_order) {
                    if kid == MISSING_KID {
                        return Err(malformed(format!(
                            "entry {} of union over {} is missing the child union over {child_node}",
                            value, rec.node
                        )));
                    }
                    let kid_rec = self
                        .unions
                        .get(kid as usize)
                        .ok_or_else(|| malformed(format!("kid index {kid} out of bounds")))?;
                    if kid_rec.node != child_node {
                        return Err(malformed(format!(
                            "entry {} of union over {} has a child over {} where {child_node} was expected",
                            value, rec.node, kid_rec.node
                        )));
                    }
                    if kid_rec.entries_len == 0 {
                        return Err(malformed(format!(
                            "entry {} of union over {} has an empty child union over {child_node}",
                            value, rec.node
                        )));
                    }
                    if kid as usize <= uid {
                        return Err(malformed(format!(
                            "kid {kid} of union {uid} violates the topological order"
                        )));
                    }
                    if uid_reachable {
                        reachable[kid as usize] = true;
                    }
                }
            }
        }
        if let Some(unreachable) = reachable.iter().position(|&r| !r) {
            return Err(malformed(format!(
                "union {unreachable} is not reachable from any root"
            )));
        }
        Ok(())
    }

    /// Establishes the freeze-layout fact of a decoded arena by checking it
    /// (see the module docs); call only after [`Store::validate`] accepted
    /// the store, which is what keeps the walk in bounds.
    pub(crate) fn verify_layout(&mut self, tree: &FTree) {
        self.freeze_layout = self.is_freeze_layout(&kid_count_table(tree));
    }

    /// Whether the arena is known to be a tree, every union but a root the
    /// kid of exactly one entry: the freeze layout implies it.
    pub(crate) fn is_tree(&self) -> bool {
        self.freeze_layout
    }

    /// Re-walks a valid arena depth first, the way [`Store::freeze`] emits,
    /// and compares every header index, entry-block offset and kid-run
    /// offset with the position freeze would have written it at.  Linear: a
    /// union reached a second time, or out of turn, fails on the spot.
    fn is_freeze_layout(&self, kid_counts: &[u32]) -> bool {
        let mut next = LayoutCursor::default();
        self.roots
            .iter()
            .all(|&r| self.walk_layout(kid_counts, r, &mut next))
            && next.unions as usize == self.unions.len()
            && next.entries as usize == self.values.len()
            && next.kids as usize == self.kids.len()
    }

    fn walk_layout(&self, kid_counts: &[u32], uid: u32, next: &mut LayoutCursor) -> bool {
        let rec = self.unions[uid as usize];
        if uid != next.unions || rec.entries_start != next.entries {
            return false;
        }
        next.unions += 1;
        next.entries += rec.entries_len;
        let kid_count = kid_counts[rec.node.index()];
        (rec.entries_start..rec.entries_start + rec.entries_len).all(|e| {
            let kids_start = self.kids_starts[e as usize];
            let below = (kids_start..kids_start + kid_count)
                .all(|k| self.walk_layout(kid_counts, self.kids[k as usize], next));
            let in_turn = below && kids_start == next.kids;
            next.kids += kid_count;
            in_turn
        })
    }

    /// Appends another store (over disjoint f-tree nodes) to this one,
    /// remapping its node identifiers through `node_map` — the data half of
    /// the Cartesian product operator.  Runs in time linear in `other`.
    /// Two freeze-layout stores concatenate into the freeze of both forests.
    pub(crate) fn append_remapped(&mut self, other: &Store, node_map: &BTreeMap<NodeId, NodeId>) {
        self.freeze_layout &= other.freeze_layout;
        let union_offset = self.unions.len() as u32;
        let entry_offset = self.values.len() as u32;
        let kid_offset = self.kids.len() as u32;
        self.unions.extend(other.unions.iter().map(|rec| UnionRec {
            node: node_map[&rec.node],
            entries_start: rec.entries_start + entry_offset,
            entries_len: rec.entries_len,
        }));
        self.values.extend_from_slice(&other.values);
        self.kids_starts
            .extend(other.kids_starts.iter().map(|&ks| ks + kid_offset));
        self.kids
            .extend(other.kids.iter().map(|&kid| kid + union_offset));
        self.roots
            .extend(other.roots.iter().map(|&r| r + union_offset));
    }

    /// The tuple count of every union, by union index: a leaf union's
    /// length, an inner union's sum over its entries of the product of their
    /// kid counts, wrapping mod 2¹²⁸ — one flat bottom-up loop, thanks to the
    /// topological index order.
    pub(crate) fn union_count_table(&self, tree: &FTree) -> Vec<u128> {
        let kid_counts = kid_count_table(tree);
        let mut counts = vec![0u128; self.unions.len()];
        for uid in (0..self.unions.len()).rev() {
            let rec = self.unions[uid];
            let kid_count = kid_counts[rec.node.index()] as usize;
            counts[uid] = if kid_count == 0 {
                rec.entries_len as u128
            } else {
                (rec.entries_start..rec.entries_start + rec.entries_len).fold(0, |total, e| {
                    let kids_start = self.kids_starts[e as usize] as usize;
                    let product = self.kids[kids_start..kids_start + kid_count]
                        .iter()
                        .fold(1u128, |p, &kid| p.wrapping_mul(counts[kid as usize]));
                    total.wrapping_add(product)
                })
            };
        }
        counts
    }
}

/// One value per node of `tree`, indexed by node index — the flat lookup
/// tables the per-union loops read instead of querying the tree.
pub(crate) fn node_table<T: Clone + Default>(tree: &FTree, of: impl Fn(NodeId) -> T) -> Vec<T> {
    let mut table = Vec::new();
    for node in tree.node_ids() {
        let idx = node.index();
        if idx >= table.len() {
            table.resize(idx + 1, T::default());
        }
        table[idx] = of(node);
    }
    table
}

/// Child counts of every node of `tree` — what both the [`Rewriter`] and the
/// fused-execution overlay ([`crate::ops::fuse`]) walk.
pub(crate) fn kid_count_table(tree: &FTree) -> Vec<u32> {
    node_table(tree, |node| tree.children(node).len() as u32)
}

/// Emits a new arena from an existing one in the exact layout
/// [`Store::freeze`] produces: union headers in depth-first preorder, the
/// entry records of one union pushed contiguously at the union's visit, and
/// every entry's kid run pushed *after* the kid subtrees it points to.
/// Reproducing the freeze layout makes every emitted result bit-for-bit
/// identical to its thaw/rewrite/freeze oracle, which the randomized
/// equivalence tests exploit.
///
/// The per-entry kid lists are collected in a single scratch vector shared
/// across recursion levels (each entry works in its own watermarked tail
/// region), so a steady-state rewrite performs no allocation beyond the
/// output arenas themselves.
///
/// The rewriter sums the output's size as it writes each header, and a
/// copy returns the tuple count of what it copied, so the caller records
/// both without walking the result (see [`crate::frep`]).
pub(crate) struct Rewriter<'a> {
    input: &'a FRep,
    out: Store,
    /// Kid-id scratch shared across recursion levels (see the type docs).
    scratch: Vec<u32>,
    /// Child counts of the *input* f-tree, indexed by node index.
    kid_counts: Vec<u32>,
    /// Visible attribute counts of the *output* f-tree, by node index.
    visible: Vec<usize>,
    /// Singletons written so far.
    size: usize,
}

impl<'a> Rewriter<'a> {
    /// Creates a rewriter reading from `input` and writing a representation
    /// over `out_tree`.
    ///
    /// The output arenas are pre-reserved from the input arena's sizes: most
    /// rewrites shrink the representation or keep it the same size, so the
    /// input lengths are a good capacity hint (not a hard bound — a swap can
    /// grow the arena) and steady-state emission performs no re-allocation.
    pub(crate) fn new(input: &'a FRep, out_tree: &FTree) -> Rewriter<'a> {
        let src = input.store();
        let kid_counts = kid_count_table(input.tree());
        debug_assert!(
            !src.freeze_layout || src.is_freeze_layout(&kid_counts),
            "a store claims the freeze layout without being in it"
        );
        Rewriter {
            input,
            out: Store::with_capacity(src.unions.len(), src.values.len(), src.kids.len()),
            scratch: Vec::new(),
            kid_counts,
            visible: visible_table(out_tree),
            size: 0,
        }
    }

    /// Child count of `node` in the input f-tree.
    pub(crate) fn src_kid_count(&self, node: NodeId) -> u32 {
        self.kid_counts[node.index()]
    }

    /// Units of output emitted so far (union headers plus entry records) —
    /// governed emission loops charge their [`ExecCtx`] with the delta
    /// across each opaque emission call (e.g. a whole
    /// [`Rewriter::copy_run`] block copy).
    pub(crate) fn emitted_units(&self) -> u64 {
        self.out.unions.len() as u64 + self.out.values.len() as u64
    }

    /// Singletons emitted so far: every header written counts the visible
    /// attributes of its node once per entry.
    pub(crate) fn emitted_size(&self) -> usize {
        self.size
    }

    /// Starts a new output union: pushes its header, announcing
    /// `entries_len` entries whose value records follow via
    /// [`Rewriter::push_value`] (kid runs are attached with
    /// [`Rewriter::end_entry`]).  Returns the new union's index.
    pub(crate) fn begin_union_raw(&mut self, node: NodeId, entries_len: u32) -> u32 {
        self.size += self.visible[node.index()] * entries_len as usize;
        let uid = self.out.unions.len() as u32;
        self.out.unions.push(UnionRec {
            node,
            entries_start: self.out.values.len() as u32,
            entries_len,
        });
        uid
    }

    /// Pushes one value record of the union opened by
    /// [`Rewriter::begin_union_raw`]; must be called before any kid subtree
    /// of the union is emitted, so the records stay contiguous.
    pub(crate) fn push_value(&mut self, value: Value) {
        self.out.push_entry(value, MISSING_KID);
    }

    /// Marks the start of one entry's kid collection; pass the mark to
    /// [`Rewriter::end_entry`].
    pub(crate) fn mark(&self) -> usize {
        self.scratch.len()
    }

    /// Records one emitted kid union for the entry currently being
    /// assembled.
    pub(crate) fn push_kid(&mut self, kid: u32) {
        self.scratch.push(kid);
    }

    /// Finalises entry `index` of output union `uid`: its kid run is
    /// everything pushed since `mark`, appended to the kid arena now (after
    /// the kid subtrees, exactly like [`Store::freeze`]).
    pub(crate) fn end_entry(&mut self, uid: u32, index: u32, mark: usize) {
        let kids_start = self.out.kids.len() as u32;
        self.out.kids.extend_from_slice(&self.scratch[mark..]);
        self.scratch.truncate(mark);
        let entries_start = self.out.unions[uid as usize].entries_start;
        self.out.kids_starts[(entries_start + index) as usize] = kids_start;
    }

    /// Copies the entries `run` of input union `uid`, and the subtrees below
    /// them, as one new union (nothing below them is affected by the rewrite
    /// in progress): as relocated blocks when the input is in the freeze
    /// layout, record by record otherwise — the same output either way (see
    /// the module docs).  Returns the copy's index and tuple count.
    pub(crate) fn copy_run(&mut self, uid: u32, run: Range<u32>) -> (u32, u128) {
        let tuples = self.run_tuples(uid, run.clone());
        let out = if self.input.store().freeze_layout {
            self.copy_run_blocks(uid, run)
        } else {
            self.copy_run_recursive(uid, run)
        };
        (out, tuples)
    }

    /// The tuple count of entries `run` of input union `uid`: the count of
    /// the whole union — a leaf's length or the input's memoised count
    /// ([`FRep::union_counts`]) — or the sum over the run of its entries' kid
    /// products, each kid counted so.
    fn run_tuples(&self, uid: u32, run: Range<u32>) -> u128 {
        let src = self.input.store();
        let count = |uid: u32| match self.src_kid_count(src.unions[uid as usize].node) {
            0 => src.union_len(uid) as u128,
            _ => self.input.union_counts()[uid as usize],
        };
        if run.len() == src.union_len(uid) as usize {
            return count(uid);
        }
        let kid_count = self.src_kid_count(src.unions[uid as usize].node);
        run.fold(0u128, |total, i| {
            let kids = (0..kid_count).map(|k| count(src.kid(uid, i, k)));
            total.wrapping_add(kids.fold(1u128, u128::wrapping_mul))
        })
    }

    /// [`Rewriter::copy_run`] as relocated blocks, for a freeze-layout input:
    /// the header, the run's values and kid offsets, and then the kid
    /// subtrees of its entries, which the layout keeps contiguous.
    fn copy_run_blocks(&mut self, uid: u32, run: Range<u32>) -> u32 {
        let src = self.input.store();
        let rec = src.unions[uid as usize];
        let out_uid = self.begin_union_raw(rec.node, run.len() as u32);
        let (out, kid_counts) = (&mut self.out, &self.kid_counts);
        let kid_count = |uid: u32| kid_counts[src.unions[uid as usize].node.index()];
        let entries =
            (rec.entries_start + run.start) as usize..(rec.entries_start + run.end) as usize;
        out.values.extend_from_slice(&src.values[entries.clone()]);
        if kid_count(uid) == 0 || run.is_empty() {
            // Entries without kids carry the kid watermark.
            out.kids_starts
                .resize(out.values.len(), out.kids.len() as u32);
            return out_uid;
        }
        // The unions below the run: from the first kid of its first entry
        // down to the last union below its last entry, found by following
        // last entry / last kid.
        let first = src.kid(uid, run.start, 0);
        let mut last = src.kid(uid, run.end - 1, kid_count(uid) - 1);
        while src.union_len(last) > 0 && kid_count(last) > 0 {
            last = src.kid(last, src.union_len(last) - 1, kid_count(last) - 1);
        }
        let (unions, last_rec) = (
            &src.unions[first as usize..=last as usize],
            src.unions[last as usize],
        );
        let below = unions[0].entries_start as usize
            ..(last_rec.entries_start + last_rec.entries_len) as usize;
        // One kid slot per union below the run, ending with the kid run of
        // its last entry.
        let kids_end = src.kids_starts[entries.end - 1] + kid_count(uid);
        let kids = (kids_end - unions.len() as u32) as usize..kids_end as usize;

        let union_delta = (out.unions.len() as u32).wrapping_sub(first);
        let entry_delta = (out.values.len() as u32).wrapping_sub(below.start as u32);
        let kid_delta = (out.kids.len() as u32).wrapping_sub(kids.start as u32);
        out.unions.extend(unions.iter().map(|rec| UnionRec {
            entries_start: rec.entries_start.wrapping_add(entry_delta),
            ..*rec
        }));
        out.values.extend_from_slice(&src.values[below.clone()]);
        // The run's own kid offsets, then those below it: one relocation.
        out.kids_starts.extend(
            (src.kids_starts[entries].iter())
                .chain(&src.kids_starts[below])
                .map(|ks| ks.wrapping_add(kid_delta)),
        );
        out.kids.extend(
            src.kids[kids]
                .iter()
                .map(|kid| kid.wrapping_add(union_delta)),
        );
        // Summed apart from the relocation, which then stays a plain copy.
        let visible = &self.visible;
        self.size += (unions.iter())
            .map(|rec| visible[rec.node.index()] * rec.entries_len as usize)
            .sum::<usize>();
        out_uid
    }

    /// [`Rewriter::copy_run`] record by record, for any input layout.
    fn copy_run_recursive(&mut self, uid: u32, run: Range<u32>) -> u32 {
        let src = self.input.store();
        let rec = src.unions[uid as usize];
        let out_uid = self.begin_union_raw(rec.node, run.len() as u32);
        for &value in &src.value_slice(uid)[run.start as usize..run.end as usize] {
            self.push_value(value);
        }
        let kid_count = self.src_kid_count(rec.node);
        for (index, i) in run.enumerate() {
            let mark = self.mark();
            for k in 0..kid_count {
                let kid = src.kid(uid, i, k);
                let copied = self.copy_run_recursive(kid, 0..src.union_len(kid));
                self.push_kid(copied);
            }
            self.end_entry(out_uid, index as u32, mark);
        }
        out_uid
    }

    /// Consumes the rewriter, attaching the given root list.  Every emission
    /// path above writes in freeze order, so the output carries the fact.
    pub(crate) fn finish(self, roots: Vec<u32>) -> Store {
        debug_assert!(self.scratch.is_empty(), "unfinished entry kid runs");
        let mut out = self.out;
        out.roots = roots;
        out.freeze_layout = true;
        out
    }
}

/// A read-only view of one union in the arena.
#[derive(Clone, Copy)]
pub struct UnionRef<'a> {
    pub(crate) tree: &'a FTree,
    pub(crate) store: &'a Store,
    pub(crate) id: u32,
}

impl<'a> UnionRef<'a> {
    /// The f-tree node this union ranges over.
    pub fn node(&self) -> NodeId {
        self.store.unions[self.id as usize].node
    }

    /// Number of entries (distinct values).
    pub fn len(&self) -> usize {
        self.store.union_len(self.id) as usize
    }

    /// Returns `true` if the union has no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `i`-th entry (entries are sorted increasing by value).
    pub fn entry(&self, i: usize) -> EntryRef<'a> {
        assert!(i < self.len(), "entry index {i} out of bounds");
        EntryRef {
            tree: self.tree,
            store: self.store,
            union: self.id,
            index: i as u32,
        }
    }

    /// Iterates over the entries in increasing value order.
    pub fn entries(&self) -> impl ExactSizeIterator<Item = EntryRef<'a>> + '_ {
        let (tree, store, union) = (self.tree, self.store, self.id);
        (0..self.store.union_len(self.id)).map(move |index| EntryRef {
            tree,
            store,
            union,
            index,
        })
    }

    /// Probes the sorted value slice for the given value (through the
    /// shared [`kernel::find_value`] probe).
    pub fn find_value(&self, value: Value) -> Option<EntryRef<'a>> {
        kernel::find_value(self.store.value_slice(self.id), value).map(|i| EntryRef {
            tree: self.tree,
            store: self.store,
            union: self.id,
            index: i as u32,
        })
    }

    /// The values of this union, in increasing order.
    pub fn values(&self) -> impl ExactSizeIterator<Item = Value> + 'a {
        self.store.value_slice(self.id).iter().copied()
    }
}

/// A read-only view of one entry in the arena.
#[derive(Clone, Copy)]
pub struct EntryRef<'a> {
    pub(crate) tree: &'a FTree,
    pub(crate) store: &'a Store,
    pub(crate) union: u32,
    pub(crate) index: u32,
}

impl<'a> EntryRef<'a> {
    /// The entry's value.
    pub fn value(&self) -> Value {
        self.store.value_slice(self.union)[self.index as usize]
    }

    /// The node of the union this entry belongs to.
    pub fn node(&self) -> NodeId {
        self.store.unions[self.union as usize].node
    }

    /// Number of child unions (the f-tree child count of the node).
    pub fn child_count(&self) -> usize {
        self.tree.children(self.node()).len()
    }

    /// The child union at kid position `k` (the f-tree child order) — an
    /// O(1) index into the kid arena.
    pub fn child_at(&self, k: usize) -> UnionRef<'a> {
        assert!(k < self.child_count(), "kid index {k} out of bounds");
        let kid = self.store.kid(self.union, self.index, k as u32);
        UnionRef {
            tree: self.tree,
            store: self.store,
            id: kid,
        }
    }

    /// The child union over the given node, if `node` is a child of this
    /// entry's node in the f-tree.
    pub fn child(&self, node: NodeId) -> Option<UnionRef<'a>> {
        let k = self
            .tree
            .children(self.node())
            .iter()
            .position(|&c| c == node)?;
        Some(self.child_at(k))
    }

    /// Iterates over the child unions in f-tree child order.
    pub fn children(&self) -> impl ExactSizeIterator<Item = UnionRef<'a>> + '_ {
        (0..self.child_count()).map(move |k| self.child_at(k))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{self, emit_fused_ctx, FPlanOp};
    use crate::snapshot::{decode_frep_ctx, encode_frep_ctx};
    use crate::FRep;
    use fdb_common::{AttrId, Catalog, ComparisonOp, ExecCtx, Query};
    use fdb_ftree::DepEdge;
    use fdb_relation::Database;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeSet;

    fn attrs(ids: &[u32]) -> BTreeSet<AttrId> {
        ids.iter().map(|&i| AttrId(i)).collect()
    }

    /// A{0} → B{1}: A=1 → B{10,20}, A=2 → B{20}.
    fn sample() -> (FTree, Vec<Union>) {
        let edges = vec![DepEdge::new("R", attrs(&[0, 1]), 3)];
        let mut tree = FTree::new(edges);
        let a = tree.add_node(attrs(&[0]), None).unwrap();
        let b = tree.add_node(attrs(&[1]), Some(a)).unwrap();
        let entry = |v: u64, bs: &[u64]| Entry {
            value: Value::new(v),
            children: vec![Union::new(
                b,
                bs.iter().map(|&x| Entry::leaf(Value::new(x))).collect(),
            )],
        };
        let roots = vec![Union::new(a, vec![entry(1, &[10, 20]), entry(2, &[20])])];
        (tree, roots)
    }

    #[test]
    fn freeze_thaw_round_trips() {
        let (tree, roots) = sample();
        let store = Store::freeze(&tree, &roots);
        store.validate(&tree).unwrap();
        assert_eq!(store.thaw(&tree), roots);
        // One union per node instance: the A union and one B union per entry.
        assert_eq!(store.unions.len(), 3);
        assert_eq!(store.entry_count(), 5);
        assert_eq!(store.kids.len(), 2);
        // The sealed entry arrays stay parallel.
        assert_eq!(store.values.len(), store.kids_starts.len());
    }

    #[test]
    fn kid_indices_are_topological() {
        let (tree, roots) = sample();
        let store = Store::freeze(&tree, &roots);
        for (uid, rec) in store.unions.iter().enumerate() {
            for e in rec.entries_start..rec.entries_start + rec.entries_len {
                let kids_start = store.kids_starts[e as usize];
                for k in 0..tree.children(rec.node).len() {
                    assert!(store.kids[kids_start as usize + k] > uid as u32);
                }
            }
        }
    }

    #[test]
    fn validate_rejects_missing_kids() {
        let (tree, mut roots) = sample();
        roots[0].entries[0].children.clear();
        let store = Store::freeze(&tree, &roots);
        assert!(store.validate(&tree).is_err());
    }

    #[test]
    fn validate_rejects_an_empty_union_below_a_root() {
        let (tree, mut roots) = sample();
        // An empty root union is valid: the empty relation.
        let a = roots[0].node;
        Store::freeze(&tree, &[Union::empty(a)])
            .validate(&tree)
            .unwrap();
        roots[0].entries[1].children[0].entries.clear();
        let store = Store::freeze(&tree, &roots);
        assert!(matches!(
            store.validate(&tree),
            Err(FdbError::MalformedRepresentation { detail }) if detail.contains("empty child union")
        ));
    }

    const COMPARISONS: [ComparisonOp; 6] = [
        ComparisonOp::Eq,
        ComparisonOp::Ne,
        ComparisonOp::Lt,
        ComparisonOp::Le,
        ComparisonOp::Gt,
        ComparisonOp::Ge,
    ];

    /// The selection path — the one-operator overlay program
    /// `[FPlanOp::SelectConst]` — against the thaw-path oracle's filter,
    /// prune and re-freeze: not merely equivalent, the exact same arena
    /// records.
    fn assert_selection_matches_the_oracle(
        tree: &FTree,
        store: &Store,
        attr: u32,
        op: ComparisonOp,
        c: Value,
        context: &str,
    ) {
        let rep = FRep::from_store(tree.clone(), store.clone(), None);
        let program = [FPlanOp::SelectConst {
            attr: AttrId(attr),
            op,
            value: c,
        }];
        let mut reference = rep.clone();
        ops::oracle::apply(&mut reference, &program[0]).unwrap();
        let selected = emit_fused_ctx(&rep, &program, &ExecCtx::unlimited()).unwrap();
        assert_eq!(selected.store(), reference.store(), "{context}");
        selected.store().validate(selected.tree()).unwrap();
    }

    #[test]
    fn cmp_prune_is_bit_identical_to_the_generic_closure_path() {
        let (tree, roots) = sample();
        let store = Store::freeze(&tree, &roots);
        for attr in [0, 1] {
            for op in COMPARISONS {
                for c in [0u64, 1, 2, 10, 15, 20, 25, 99] {
                    assert_selection_matches_the_oracle(
                        &tree,
                        &store,
                        attr,
                        op,
                        Value::new(c),
                        &format!("attr {attr} op {op:?} c {c}"),
                    );
                }
            }
        }
    }

    /// Randomized store-identity sweep of the selection path: random
    /// forests ([`random_forest`]) must select bit-for-bit like the oracle —
    /// every node, all six comparisons, cuts below, between, on and above
    /// the values.
    #[test]
    fn cmp_prune_matches_on_random_forests() {
        let mut rng = StdRng::seed_from_u64(0x50A);
        for round in 0..40 {
            let (tree, roots) = random_forest(&mut rng);
            let store = Store::freeze(&tree, &roots);
            store.validate(&tree).unwrap();
            for _ in 0..3 {
                let cut = Value::new(rng.gen_range(0..13));
                for attr in 0..tree.node_ids().len() as u32 {
                    for op in COMPARISONS {
                        assert_selection_matches_the_oracle(
                            &tree,
                            &store,
                            attr,
                            op,
                            cut,
                            &format!("round {round} attr {attr} op {op:?} cut {cut}"),
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn append_remapped_concatenates_disjoint_stores() {
        let (tree_a, roots_a) = sample();
        let mut store = Store::freeze(&tree_a, &roots_a);
        let edges = vec![DepEdge::new("S", attrs(&[2]), 1)];
        let mut tree_b = FTree::new(edges);
        let c = tree_b.add_node(attrs(&[2]), None).unwrap();
        let other = Store::freeze(&tree_b, &[Union::new(c, vec![Entry::leaf(Value::new(9))])]);

        let mut combined_tree = tree_a.clone();
        let map = combined_tree.import_forest(&tree_b).unwrap();
        store.append_remapped(&other, &map);
        store.validate(&combined_tree).unwrap();
        assert_eq!(store.roots.len(), 2);
        let thawed = store.thaw(&combined_tree);
        assert_eq!(thawed[1].node, map[&c]);
        assert_eq!(thawed[1].entries[0].value, Value::new(9));
    }

    #[test]
    fn rewriter_copy_reproduces_the_freeze_layout() {
        let (tree, roots) = sample();
        let store = Store::freeze(&tree, &roots);
        let input = FRep::from_store(tree.clone(), store.clone(), None);
        let mut rw = Rewriter::new(&input, &tree);
        let new_roots: Vec<u32> = (store.roots.iter())
            .map(|&r| rw.copy_run(r, 0..store.union_len(r)).0)
            .collect();
        let copy = rw.finish(new_roots);
        // Not merely equivalent: the exact same arena records.
        assert_eq!(copy, store);
    }

    /// A random forest over a random f-tree: up to three roots of depth 1–4,
    /// fan-out 0–2 per node, 0–5 entries per root union and 1–5 per union
    /// below a root (which may not be empty, see [`Store::validate`]) — so
    /// empty roots, single-entry unions, leaf-only roots and odd lengths all
    /// occur.  Node `n` is labelled by attribute `n`.
    fn random_forest(rng: &mut StdRng) -> (FTree, Vec<Union>) {
        fn grow(tree: &mut FTree, rng: &mut StdRng, parent: Option<NodeId>, depth: u32) {
            let attr = tree.node_ids().len() as u32;
            let node = tree.add_node(attrs(&[attr]), parent).unwrap();
            if depth > 1 {
                for _ in 0..rng.gen_range(0..3u32) {
                    grow(tree, rng, Some(node), depth - 1);
                }
            }
        }
        fn fill(tree: &FTree, rng: &mut StdRng, node: NodeId, min_len: u64) -> Union {
            let entries = (0..rng.gen_range(min_len..6))
                .map(|i| Entry {
                    value: Value::new(2 * i + rng.gen_range(0..2u64)),
                    children: tree
                        .children(node)
                        .iter()
                        .map(|&child| fill(tree, rng, child, 1))
                        .collect(),
                })
                .collect();
            Union::new(node, entries)
        }
        let mut tree = FTree::new(Vec::new());
        for _ in 0..rng.gen_range(1..4u32) {
            let depth = rng.gen_range(1..5u32);
            grow(&mut tree, rng, None, depth);
        }
        let roots = tree
            .roots()
            .iter()
            .map(|&r| fill(&tree, rng, r, 0))
            .collect();
        (tree, roots)
    }

    /// The arena of a forest with its unions in breadth-first order, each
    /// union's entries and kid runs written at its visit: valid, and outside
    /// the freeze layout once some entry has two kid unions.
    fn breadth_first(tree: &FTree, roots: &[Union]) -> Store {
        let mut queue: std::collections::VecDeque<&Union> = roots.iter().collect();
        let (mut unions, mut values, mut kids_starts, mut kids) = (vec![], vec![], vec![], vec![]);
        let mut next = roots.len() as u32;
        while let Some(union) = queue.pop_front() {
            unions.push(UnionRec {
                node: union.node,
                entries_start: values.len() as u32,
                entries_len: union.len() as u32,
            });
            for entry in &union.entries {
                values.push(entry.value);
                kids_starts.push(kids.len() as u32);
                for &child in tree.children(union.node) {
                    kids.push(next);
                    next += 1;
                    queue.push_back(entry.child(child).unwrap());
                }
            }
        }
        let root_ids = (0..roots.len() as u32).collect();
        let mut store = Store::from_arena_parts(unions, values, kids_starts, kids, root_ids);
        store.validate(tree).unwrap();
        store.verify_layout(tree);
        store
    }

    /// Copies every root of `store` through a [`Rewriter`].
    fn copy_all(store: &Store, tree: &FTree) -> Store {
        let input = FRep::from_store(tree.clone(), store.clone(), None);
        let mut rw = Rewriter::new(&input, tree);
        let roots = (store.roots.iter())
            .map(|&r| rw.copy_run(r, 0..store.union_len(r)).0)
            .collect();
        rw.finish(roots)
    }

    #[test]
    fn block_copy_equals_the_recursive_copy_on_random_freeze_forests() {
        let mut rng = StdRng::seed_from_u64(0xB10C);
        let mut deepest = 0;
        for round in 0..80 {
            let (tree, roots) = random_forest(&mut rng);
            deepest = deepest.max(
                tree.node_ids()
                    .iter()
                    .map(|&n| tree.depth(n))
                    .max()
                    .unwrap(),
            );
            let store = Store::freeze(&tree, &roots);
            store.validate(&tree).unwrap();
            assert!(store.freeze_layout && store.is_freeze_layout(&kid_count_table(&tree)));
            let input = FRep::from_store(tree.clone(), store.clone(), None);
            let (kid_counts, union_counts) =
                (kid_count_table(&tree), store.union_count_table(&tree));
            for uid in 0..store.unions.len() as u32 {
                let (len, kid_count) = (
                    store.union_len(uid),
                    kid_counts[store.unions[uid as usize].node.index()],
                );
                // Every non-empty run, and the whole union however long.
                let runs = (0..len).flat_map(|lo| (lo + 1..=len).map(move |hi| lo..hi));
                for run in runs.chain(std::iter::once(0..len)) {
                    let tuples = match kid_count {
                        0 => run.len() as u128,
                        _ => run
                            .clone()
                            .map(|i| {
                                (0..kid_count)
                                    .map(|k| union_counts[store.kid(uid, i, k) as usize])
                                    .product::<u128>()
                            })
                            .sum(),
                    };
                    // Every other run is copied behind a first root copy, so
                    // the relocation deltas come out positive as well as
                    // negative.
                    let copy = |block: bool| {
                        let mut rw = Rewriter::new(&input, &tree);
                        let root = store.roots[0];
                        let pad = ((uid + run.start) % 2 == 1)
                            .then(|| rw.copy_run_recursive(root, 0..store.union_len(root)));
                        let out = if block {
                            let (out, copied) = rw.copy_run(uid, run.clone());
                            assert_eq!(copied, tuples, "round {round}, union {uid}, run {run:?}");
                            out
                        } else {
                            rw.copy_run_recursive(uid, run.clone())
                        };
                        let size = rw.emitted_size();
                        (rw.finish(pad.into_iter().chain([out]).collect()), size)
                    };
                    let (block, size) = copy(true);
                    assert_eq!(
                        (block, size),
                        copy(false),
                        "round {round}, union {uid}, run {run:?}"
                    );
                    // The size summed over the copied headers is the copy's size.
                    let copied = FRep::from_store(tree.clone(), copy(false).0, None);
                    assert_eq!(
                        size,
                        copied.size(),
                        "round {round}, union {uid}, run {run:?}"
                    );
                }
            }
            assert_eq!(copy_all(&store, &tree), store, "round {round}");
        }
        assert!(deepest >= 3, "the sweep reaches four-level trees");
    }

    /// `build_frep_ctx` of `R(names…) = rows` over the path f-tree of its columns.
    fn flat_built(names: &[&str], rows: &[Vec<u64>]) -> FRep {
        let mut catalog = Catalog::new();
        let (r, columns) = catalog.add_relation("R", names);
        let mut db = Database::new(catalog);
        db.insert_raw_rows(r, rows).unwrap();
        let query = Query::product(vec![r]);
        let edges = fdb_ftree::dep_edges_for_query(db.catalog(), &query, |r| db.rel_len(r) as u64);
        let mut tree = FTree::new(edges);
        let mut parent = None;
        for attr in columns {
            parent = Some(tree.add_node([attr].into_iter().collect(), parent).unwrap());
        }
        crate::build_frep_ctx(&db, &query, &tree, &ExecCtx::unlimited()).unwrap()
    }

    #[test]
    fn arenas_outside_the_freeze_layout_are_not_flagged_and_copy_by_recursion() {
        // A depth-2 build result: entry blocks land after their descendants'.
        let built = flat_built(&["a", "b"], &[vec![1, 10], vec![1, 20], vec![2, 20]]);
        let (tree, store) = (built.tree(), built.store());
        assert!(!store.freeze_layout && !store.is_freeze_layout(&kid_count_table(tree)));
        assert_eq!(
            copy_all(store, tree),
            Store::freeze(tree, &store.thaw(tree))
        );

        // Three valid arenas, each breaking one property of the layout: two
        // sibling B-unions in exchanged header order (their entry blocks
        // where freeze puts them), their entry blocks in exchanged order,
        // and a leaf entry not carrying the kid watermark.
        let (tree, roots) = sample();
        let frozen = Store::freeze(&tree, &roots);
        let mut headers = frozen.clone();
        headers.unions.swap(1, 2);
        headers.kids.swap(0, 1);
        let mut blocks = frozen.clone();
        (
            blocks.unions[1].entries_start,
            blocks.unions[2].entries_start,
        ) = (3, 2);
        blocks.values = [1, 2, 20, 10, 20].map(Value::new).to_vec();
        blocks.kids_starts = vec![0, 1, 1, 0, 0];
        let mut watermark = frozen.clone();
        assert_eq!(watermark.kids_starts[2..], [0, 0, 1]);
        watermark.kids_starts[3] = 1;
        for (what, store, same_forest) in [
            ("headers", headers, &frozen),
            ("blocks", blocks, &frozen),
            ("watermark", watermark, &frozen),
        ] {
            let mut store = Store::from_arena_parts(
                store.unions,
                store.values,
                store.kids_starts,
                store.kids,
                store.roots,
            );
            store.validate(&tree).unwrap();
            store.verify_layout(&tree);
            assert!(!store.freeze_layout, "{what}");
            assert_ne!(&store, same_forest, "{what}");
            assert_eq!(&copy_all(&store, &tree), same_forest, "{what}");
        }

        // Random forests written breadth first: copies and selections take
        // the record-by-record path and still write the freeze layout.
        let mut rng = StdRng::seed_from_u64(0xBF5);
        let mut outside = 0;
        for round in 0..40 {
            let (tree, roots) = random_forest(&mut rng);
            let store = breadth_first(&tree, &roots);
            outside += usize::from(!store.freeze_layout);
            assert_eq!(copy_all(&store, &tree), Store::freeze(&tree, &roots));
            let cut = Value::new(rng.gen_range(0..13));
            for attr in 0..tree.node_ids().len() as u32 {
                for op in COMPARISONS {
                    let context = format!("round {round} attr {attr} op {op:?} cut {cut}");
                    assert_selection_matches_the_oracle(&tree, &store, attr, op, cut, &context);
                }
            }
        }
        assert!(
            outside >= 20,
            "{outside} of 40 arenas outside the freeze layout"
        );
    }

    #[test]
    fn layout_check_accepts_every_flagging_constructor_and_its_decoded_snapshot() {
        let (tree, roots) = sample();
        let frozen = FRep::from_parts(tree, roots).unwrap();
        let gt_15 = FPlanOp::SelectConst {
            attr: AttrId(1),
            op: ComparisonOp::Gt,
            value: Value::new(15),
        };
        let rewritten = emit_fused_ctx(&frozen, &[gt_15], &ExecCtx::unlimited()).unwrap();
        let mut other_tree = FTree::new(vec![DepEdge::new("S", attrs(&[2]), 1)]);
        let c = other_tree.add_node(attrs(&[2]), None).unwrap();
        let other = Union::new(c, vec![Entry::leaf(Value::new(9))]);
        let other = FRep::from_parts(other_tree, vec![other]).unwrap();
        let product = ops::product(frozen.clone(), other).unwrap();
        for rep in [&frozen, &rewritten, &product] {
            let store = rep.store();
            assert!(store.freeze_layout && store.is_freeze_layout(&kid_count_table(rep.tree())));
            let decoded = decode_frep_ctx(
                &encode_frep_ctx(rep, &ExecCtx::unlimited()).unwrap(),
                &ExecCtx::unlimited(),
            )
            .unwrap();
            assert!(decoded.store().freeze_layout);
            assert_eq!(decoded.store(), store);
        }
    }

    #[test]
    fn store_identity_is_the_five_arrays_not_the_layout_fact() {
        // A one-union build result is trivially in the freeze layout: its
        // decoded copy finds that out, the original never claimed it.
        let built = flat_built(&["a"], &[vec![3], vec![1], vec![2]]);
        let decoded = decode_frep_ctx(
            &encode_frep_ctx(&built, &ExecCtx::unlimited()).unwrap(),
            &ExecCtx::unlimited(),
        )
        .unwrap();
        assert!(!built.store().freeze_layout && decoded.store().freeze_layout);
        assert!(decoded.store_identical(&built));
    }

    #[test]
    fn validate_rejects_out_of_order_arena_values() {
        let (tree, roots) = sample();
        let mut store = Store::freeze(&tree, &roots);
        // Entries 2 and 3 are the first B-union's block {10, 20} (the A
        // block occupies entries 0 and 1): swap them to get 20 before 10.
        assert_eq!(store.values[2], Value::new(10));
        assert_eq!(store.values[3], Value::new(20));
        store.values.swap(2, 3);
        store.kids_starts.swap(2, 3);
        assert!(store.validate(&tree).is_err());
        // A duplicated value is rejected too.
        let (_, roots) = sample();
        let mut store = Store::freeze(&tree, &roots);
        store.values[3] = store.values[2];
        assert!(store.validate(&tree).is_err());
    }

    #[test]
    fn validate_rejects_topological_order_violations() {
        let (tree, roots) = sample();
        let mut store = Store::freeze(&tree, &roots);
        // Point the A=1 entry's kid slot back at the A-union itself.
        let a_uid = store.roots[0];
        let kids_start =
            store.kids_starts[store.unions[a_uid as usize].entries_start as usize] as usize;
        store.kids[kids_start] = a_uid;
        assert!(store.validate(&tree).is_err());
    }

    #[test]
    fn validate_rejects_unreachable_unions() {
        let (tree, roots) = sample();
        let mut store = Store::freeze(&tree, &roots);
        // Redirect the A=2 entry's kid slot at the A=1 entry's B-union: the
        // B-union of A=2 becomes unreachable.
        let a_rec = store.unions[store.roots[0] as usize];
        let ks1 = store.kids_starts[a_rec.entries_start as usize];
        let ks2 = store.kids_starts[a_rec.entries_start as usize + 1];
        let shared = store.kids[ks1 as usize];
        store.kids[ks2 as usize] = shared;
        assert!(store.validate(&tree).is_err());
    }

    #[test]
    fn validate_rejects_wrong_child_node() {
        let (tree, roots) = sample();
        let mut store = Store::freeze(&tree, &roots);
        // Retarget a B-union header at the A node: the kid slot now points at
        // a union over the wrong node.
        let a_uid = store.roots[0] as usize;
        let b_uid = {
            let ks = store.kids_starts[store.unions[a_uid].entries_start as usize];
            store.kids[ks as usize] as usize
        };
        store.unions[b_uid].node = store.unions[a_uid].node;
        assert!(store.validate(&tree).is_err());
    }

    #[test]
    fn validate_rejects_entry_arrays_out_of_lockstep() {
        let (tree, roots) = sample();
        let mut store = Store::freeze(&tree, &roots);
        store.kids_starts.pop();
        assert!(store.validate(&tree).is_err());
    }

    #[test]
    fn refs_expose_o1_child_lookup_and_binary_search() {
        let (tree, roots) = sample();
        let store = Store::freeze(&tree, &roots);
        let a_union = UnionRef {
            tree: &tree,
            store: &store,
            id: store.roots[0],
        };
        assert_eq!(a_union.len(), 2);
        let b = tree.node_of_attr(AttrId(1)).unwrap();
        let a1 = a_union.find_value(Value::new(1)).unwrap();
        assert_eq!(a1.value(), Value::new(1));
        let b_union = a1.child(b).unwrap();
        assert_eq!(
            b_union.values().collect::<Vec<_>>(),
            vec![Value::new(10), Value::new(20)]
        );
        assert!(a_union.find_value(Value::new(3)).is_none());
        assert!(a1.child(a_union.node()).is_none());
    }
}
