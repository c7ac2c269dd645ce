//! The thaw-path **oracle** implementations of the f-plan operators.
//!
//! Until PR 2 these builder-form rewrites *were* the structural operators:
//! each one thaws the arena into the owned [`crate::node`] form, restructures
//! the pointer tree, and freezes the result back.  Production executes every
//! operator as an overlay pass of [`crate::ops::fuse`] and never thaws;
//! this module keeps the original implementations — all seven operators,
//! independent of the executor under test, no code shared with it — so the
//! equivalence suites can assert bit-for-bit identical stores, one operator
//! at a time or a whole plan applied step by step.  [`apply`] is the one
//! entry: it takes an [`FPlanOp`], the same value the executor runs.
//!
//! Nothing here is API; the module is `#[doc(hidden)]` and must not be called
//! from production paths.

use crate::frep::FRep;
use crate::node::{self, Entry, Union};
use crate::ops::FPlanOp;
use fdb_common::{AttrId, ComparisonOp, FdbError, Result, Value};
use fdb_ftree::{FTree, NodeId};
use std::collections::{BTreeMap, BTreeSet};

/// A representation thawed into the owned builder form, as the oracle
/// operators rewrite it.  Constructed from an [`FRep`] with [`MutRep::thaw`]
/// and turned back with [`MutRep::freeze`]; the intermediate states may
/// violate the arena invariants (that is the point), the final freeze
/// re-establishes them.
pub(crate) struct MutRep {
    pub(crate) tree: FTree,
    pub(crate) roots: Vec<Union>,
}

impl MutRep {
    /// Thaws a representation (one linear pass over the arena).
    pub(crate) fn thaw(rep: &FRep) -> MutRep {
        MutRep {
            tree: rep.tree().clone(),
            roots: rep.to_forest(),
        }
    }

    /// Freezes the rewritten forest back into an arena-backed [`FRep`].
    pub(crate) fn freeze(self) -> FRep {
        FRep::from_parts_unchecked(self.tree, self.roots)
    }

    /// Removes entries whose product became empty, propagating upwards.
    pub(crate) fn prune_empty(&mut self) {
        node::prune_forest(&mut self.roots);
    }
}

/// Applies `f` to every union over `target` in the given builder forest.
/// Unions of a node are never nested inside one another, so recursion stops
/// once the target is found.
fn visit_unions_of_node_mut<F: FnMut(&mut Union)>(unions: &mut [Union], target: NodeId, f: &mut F) {
    for u in unions.iter_mut() {
        if u.node == target {
            f(u);
        } else {
            for entry in u.entries.iter_mut() {
                visit_unions_of_node_mut(&mut entry.children, target, f);
            }
        }
    }
}

/// Applies `f` to every *product context* (a mutable list of sibling unions)
/// that directly contains a union over a child of `parent`: the top-level
/// root list when `parent` is `None`, otherwise the children list of every
/// entry of every union over `parent`.
fn visit_contexts_of_node_mut<F: FnMut(&mut Vec<Union>)>(
    rep: &mut MutRep,
    parent: Option<NodeId>,
    f: &mut F,
) {
    match parent {
        None => f(&mut rep.roots),
        Some(p) => {
            visit_unions_of_node_mut(&mut rep.roots, p, &mut |parent_union: &mut Union| {
                for entry in parent_union.entries.iter_mut() {
                    f(&mut entry.children);
                }
            });
        }
    }
}

/// Applies one f-plan operator through its thaw-path implementation — the
/// step of the "oracle applied operator by operator" reference: thaw,
/// rewrite the builder form, freeze.  On error `rep` is left as it was.
pub fn apply(rep: &mut FRep, op: &FPlanOp) -> Result<()> {
    let mut m = MutRep::thaw(rep);
    match op {
        FPlanOp::PushUp(b) => push_up(&mut m, *b)?,
        FPlanOp::Normalise => normalise(&mut m)?,
        FPlanOp::Swap(b) => swap(&mut m, *b)?,
        FPlanOp::Merge(a, b) => merge(&mut m, *a, *b)?,
        FPlanOp::Absorb(a, b) => absorb(&mut m, *a, *b)?,
        FPlanOp::SelectConst { attr, op, value } => select_const(&mut m, *attr, *op, *value)?,
        FPlanOp::Project(keep) => project(&mut m, keep)?,
    }
    *rep = m.freeze().canonical();
    Ok(())
}

// ----------------------------------------------------------------------
// Selection with a constant
// ----------------------------------------------------------------------

/// Thaw-path selection `σ_{attr θ value}`: filters the node's unions, prunes
/// what became empty, and binds the node to the constant on equality.
fn select_const(m: &mut MutRep, attr: AttrId, op: ComparisonOp, value: Value) -> Result<()> {
    let Some(node) = m.tree.node_of_attr(attr) else {
        return Err(FdbError::AttributeNotInQuery {
            attr: format!("{attr}"),
        });
    };
    visit_unions_of_node_mut(&mut m.roots, node, &mut |union: &mut Union| {
        union.entries.retain(|entry| op.eval(entry.value, value));
    });
    m.prune_empty();
    if op == ComparisonOp::Eq {
        m.tree.bind_constant(node, value)?;
    }
    Ok(())
}

// ----------------------------------------------------------------------
// Swap
// ----------------------------------------------------------------------

/// Thaw-path swap operator `χ_{A,B}`, also the swap-down of the oracle
/// projection.
fn swap(rep: &mut MutRep, b: NodeId) -> Result<()> {
    rep.tree.check_node(b)?;
    let Some(a) = rep.tree.parent(b) else {
        return Err(FdbError::InvalidOperator {
            detail: format!("swap: {b} is a root"),
        });
    };
    let grandparent = rep.tree.parent(a);
    // Which children of B depend on A (G_ab, they follow A down) and which do
    // not (F_b, they stay with B) — must match what the tree-level swap does.
    let moved_down: BTreeSet<NodeId> = rep
        .tree
        .children(b)
        .iter()
        .copied()
        .filter(|&c| rep.tree.depends_on_subtree(a, c))
        .collect();

    visit_contexts_of_node_mut(rep, grandparent, &mut |context: &mut Vec<Union>| {
        for union in context.iter_mut() {
            if union.node == a {
                let old = std::mem::replace(union, Union::empty(a));
                *union = regroup(old, a, b, &moved_down);
            }
        }
    });

    let outcome = rep.tree.swap_with_parent(b)?;
    debug_assert_eq!(
        outcome.moved_down.iter().copied().collect::<BTreeSet<_>>(),
        moved_down,
        "tree-level and data-level dependency splits must agree"
    );
    Ok(())
}

/// Regroups one `A`-union into the corresponding `B`-union.
fn regroup(a_union: Union, a: NodeId, b: NodeId, moved_down: &BTreeSet<NodeId>) -> Union {
    struct PerB {
        /// The F_b factors (children of B independent of A), captured from
        /// the first (a, b) pair — all copies are equal by independence.
        f_b: Option<Vec<Union>>,
        /// The inner union over A being assembled for this B value.
        a_entries: Vec<Entry>,
    }
    let mut by_b: BTreeMap<Value, PerB> = BTreeMap::new();

    for a_entry in a_union.entries {
        let a_value = a_entry.value;
        let mut children = a_entry.children;
        let b_pos = children
            .iter()
            .position(|u| u.node == b)
            .expect("validated representation: every A-entry has a B child union");
        let b_union = children.remove(b_pos);
        let e_a = children; // the T_A subtrees

        for b_entry in b_union.entries {
            let (g_ab, f_b): (Vec<Union>, Vec<Union>) = b_entry
                .children
                .into_iter()
                .partition(|u| moved_down.contains(&u.node));
            let slot = by_b.entry(b_entry.value).or_insert(PerB {
                f_b: None,
                a_entries: Vec::new(),
            });
            if slot.f_b.is_none() {
                slot.f_b = Some(f_b);
            }
            let mut new_children = e_a.clone();
            new_children.extend(g_ab);
            slot.a_entries.push(Entry {
                value: a_value,
                children: new_children,
            });
        }
    }

    let entries: Vec<Entry> = by_b
        .into_iter()
        .map(|(b_value, slot)| {
            let mut children = slot.f_b.unwrap_or_default();
            children.push(Union::new(a, slot.a_entries));
            Entry {
                value: b_value,
                children,
            }
        })
        .collect();
    Union::new(b, entries)
}

// ----------------------------------------------------------------------
// Merge
// ----------------------------------------------------------------------

/// Thaw-path merge operator `µ_{A,B}` on sibling nodes.
fn merge(m: &mut MutRep, a: NodeId, b: NodeId) -> Result<()> {
    m.tree.check_node(a)?;
    m.tree.check_node(b)?;
    if !m.tree.are_siblings(a, b) {
        return Err(FdbError::InvalidOperator {
            detail: format!("merge: {a} and {b} are not siblings"),
        });
    }
    let parent = m.tree.parent(a);

    visit_contexts_of_node_mut(m, parent, &mut |context: &mut Vec<Union>| {
        let Some(pos_a) = context.iter().position(|u| u.node == a) else {
            return;
        };
        let Some(pos_b) = context.iter().position(|u| u.node == b) else {
            return;
        };
        // Remove the higher index first so the lower one stays valid.
        let (first, second) = if pos_a > pos_b {
            (pos_a, pos_b)
        } else {
            (pos_b, pos_a)
        };
        let u1 = context.remove(first);
        let u2 = context.remove(second);
        let (a_union, b_union) = if u1.node == a { (u1, u2) } else { (u2, u1) };
        context.push(merge_unions(a, a_union, b_union));
    });

    m.tree.merge_siblings(a, b)?;
    // Values present on one side only have disappeared; entries whose product
    // became empty elsewhere must be pruned away.
    m.prune_empty();
    Ok(())
}

/// Sort-merge join of two sibling unions into one union over `node`.
fn merge_unions(node: NodeId, a_union: Union, b_union: Union) -> Union {
    let mut entries = Vec::with_capacity(a_union.entries.len().min(b_union.entries.len()));
    let mut b_iter = b_union.entries.into_iter().peekable();
    for a_entry in a_union.entries {
        // Advance the B side to the first value ≥ the A value.
        while b_iter.peek().is_some_and(|be| be.value < a_entry.value) {
            b_iter.next();
        }
        if b_iter.peek().is_some_and(|be| be.value == a_entry.value) {
            let b_entry = b_iter.next().expect("peeked");
            let mut children = a_entry.children;
            children.extend(b_entry.children);
            entries.push(Entry {
                value: a_entry.value,
                children,
            });
        }
    }
    Union::new(node, entries)
}

// ----------------------------------------------------------------------
// Absorb
// ----------------------------------------------------------------------

/// Thaw-path absorb operator `α_{A,B}`.
fn absorb(m: &mut MutRep, a: NodeId, b: NodeId) -> Result<()> {
    m.tree.check_node(a)?;
    m.tree.check_node(b)?;
    if !m.tree.is_ancestor(a, b) {
        return Err(FdbError::InvalidOperator {
            detail: format!("absorb: {a} is not an ancestor of {b}"),
        });
    }

    visit_unions_of_node_mut(&mut m.roots, a, &mut |a_union: &mut Union| {
        a_union
            .entries
            .retain_mut(|entry| restrict_children(&mut entry.children, b, entry.value));
    });

    m.tree.absorb_into_ancestor(a, b)?;
    m.prune_empty();
    normalise(m)
}

/// Restricts every union over `b` among `children` (recursively) to the
/// single entry with the given value and splices the `b` level out.  Returns
/// `false` if the product represented by `children` became empty.
fn restrict_children(children: &mut Vec<Union>, b: NodeId, value: Value) -> bool {
    let mut spliced: Vec<Union> = Vec::new();
    let mut idx = 0;
    while idx < children.len() {
        if children[idx].node == b {
            let mut b_union = children.remove(idx);
            // Binary search on the sorted entries (unions keep their values
            // strictly increasing), not a linear scan.
            match b_union.take_value(value) {
                Some(matched) => spliced.extend(matched.children),
                None => return false,
            }
        } else {
            let union = &mut children[idx];
            union
                .entries
                .retain_mut(|entry| restrict_children(&mut entry.children, b, value));
            if union.is_empty() {
                // Every value of this union became inconsistent with `A = B`:
                // the enclosing product is empty.
                return false;
            }
            idx += 1;
        }
    }
    children.extend(spliced);
    true
}

// ----------------------------------------------------------------------
// Push-up and normalisation
// ----------------------------------------------------------------------

/// Thaw-path push-up operator `ψ_B`, also each step of the oracle
/// normalisation.
fn push_up(rep: &mut MutRep, b: NodeId) -> Result<()> {
    rep.tree.check_node(b)?;
    let Some(a) = rep.tree.parent(b) else {
        return Err(FdbError::InvalidOperator {
            detail: format!("push-up: {b} is a root"),
        });
    };
    if rep.tree.depends_on_subtree(a, b) {
        return Err(FdbError::InvalidOperator {
            detail: format!("push-up: parent {a} depends on the subtree of {b}"),
        });
    }
    let grandparent = rep.tree.parent(a);

    // In every product context that holds the A-union, extract the (shared)
    // B-union from its entries and add it to the context as a new factor.
    visit_contexts_of_node_mut(rep, grandparent, &mut |context: &mut Vec<Union>| {
        let mut lifted: Vec<Union> = Vec::new();
        for union in context.iter_mut() {
            if union.node != a {
                continue;
            }
            let mut extracted: Option<Union> = None;
            for entry in union.entries.iter_mut() {
                let b_union = entry
                    .take_child(b)
                    .expect("validated representation: every A-entry has a B child union");
                // All copies are equal because neither B nor its descendants
                // depend on A; keep the first, drop the rest.
                if extracted.is_none() {
                    extracted = Some(b_union);
                }
            }
            lifted.push(extracted.unwrap_or_else(|| Union::empty(b)));
        }
        context.extend(lifted);
    });

    rep.tree.push_up(b)?;
    Ok(())
}

/// Thaw-path normalisation operator `η`: push-ups until none applies.
fn normalise(rep: &mut MutRep) -> Result<()> {
    loop {
        let mut changed = false;
        for node in rep.tree.bottom_up() {
            while rep.tree.can_push_up(node) {
                push_up(rep, node)?;
                changed = true;
            }
        }
        if !changed {
            return Ok(());
        }
    }
}

// ----------------------------------------------------------------------
// Projection
// ----------------------------------------------------------------------

/// Thaw-path projection operator `π_keep`.
fn project(m: &mut MutRep, keep: &BTreeSet<AttrId>) -> Result<()> {
    let marked: BTreeSet<AttrId> = m.tree.all_attrs().difference(keep).copied().collect();
    m.tree.mark_attrs_projected(&marked);
    loop {
        // Remove every leaf whose attributes have all been projected away.
        let removable = m.tree.removable_projected_leaves();
        if !removable.is_empty() {
            for leaf in removable {
                let parent = m.tree.parent(leaf);
                visit_contexts_of_node_mut(m, parent, &mut |context| {
                    context.retain(|u| u.node != leaf);
                });
                m.tree.remove_projected_leaf(leaf)?;
            }
            continue;
        }
        // Otherwise pick a fully-projected inner node and swap it one level
        // down (each swap strictly shrinks its subtree, so this terminates).
        let marked_inner = m
            .tree
            .node_ids()
            .into_iter()
            .find(|&n| m.tree.visible_attrs(n).is_empty() && !m.tree.is_leaf(n));
        match marked_inner {
            Some(node) => {
                let child = m.tree.children(node)[0];
                swap(m, child)?;
            }
            None => return Ok(()),
        }
    }
}
