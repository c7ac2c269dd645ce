//! The f-representation data structure, arena-backed.
//!
//! An [`FRep`] owns an [`FTree`] and, for every root of the forest, one
//! union.  A union over an f-tree node `N` labelled by class `{A₁,…,A_k}` is
//!
//! ```text
//!   ⋃_a ⟨A₁:a⟩ × … × ⟨A_k:a⟩ × E_a^{child₁} × … × E_a^{child_m}
//! ```
//!
//! i.e. a list of entries, one per distinct value `a` (kept in increasing
//! order, as all operators require), each carrying one child union per child
//! of `N` in the f-tree.  A forest is a product of its root unions.
//!
//! # Storage
//!
//! The unions are **not** stored as a pointer tree: they live in the
//! contiguous arenas of [`crate::store`] (union headers, entry records and a
//! child-slot table in fixed f-tree child order), which makes enumeration an
//! allocation-free walk over flat arrays and turns the whole-representation
//! statistics ([`FRep::size`], [`FRep::tuple_count`]) into flat loops.  Data
//! is read through [`UnionRef`]/[`EntryRef`] views; every operator —
//! including the structural ones — rewrites arena-to-arena ([`crate::ops`]),
//! and [`crate::build`] emits arena records directly.  The owned
//! [`Union`]/[`Entry`] builder form of [`crate::node`] remains the
//! hand-construction interface ([`FRep::from_parts`] / [`FRep::to_forest`])
//! and the substrate of the test oracle.
//!
//! The size of an f-representation is its number of singletons: every entry
//! of a union over `N` contributes one singleton per *visible* (not
//! projected-away) attribute of `N`'s class.
//!
//! # Recorded statistics
//!
//! Every writer visits each union it writes, so it records the result's
//! size and tuple count as it goes ([`FRep::counts`]): the flat build
//! returns each union's count with its index, the overlay emission counts
//! what it assembles and reads a block-copied subtree's count from the
//! input's per-union count table (filled once per input, shared by every
//! request and thread on it), and the product adds sizes and multiplies
//! counts.  Every other constructor ([`FRep::from_parts`], [`FRep::empty`],
//! a decoded snapshot) fills the pair on its first read with the two
//! walks.  Those walks, [`FRep::size`] and [`FRep::tuple_count`], recompute
//! the numbers from the arena every time: they are the oracles that the
//! recorded pair is tested against, and the request path never calls them.

use crate::node;
use crate::store::{node_table, Store};

// Convenience re-exports: the builder types and arena views travel with the
// representation they construct and read.
pub use crate::node::{Entry, Union};
pub use crate::store::{EntryRef, UnionRef};
use fdb_common::{AttrId, Result};
use fdb_ftree::FTree;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// A factorised representation over an f-tree.
#[derive(Clone, Debug)]
pub struct FRep {
    tree: FTree,
    store: Store,
    /// What is known about the arena beyond its records, shared by every
    /// clone: no clone can change the arena it describes.
    memo: Arc<Memo>,
}

/// Statistics of one arena, each set at most once.
#[derive(Debug, Default)]
struct Memo {
    /// `(size, tuple_count)`, recorded by the writer or walked on first read.
    counts: OnceLock<(usize, u128)>,
    /// The tuple count of every union, by union index: filled on the first
    /// block copy of an inner union out of this representation.
    union_counts: OnceLock<Vec<u128>>,
}

impl FRep {
    /// Creates an f-representation from its parts.  `roots` must contain one
    /// union per root of `tree`, in any order.
    pub fn from_parts(tree: FTree, roots: Vec<Union>) -> Result<Self> {
        tree.check_structure()?;
        tree.check_path_constraint()?;
        node::validate_forest(&tree, &roots)?;
        Ok(FRep::from_parts_unchecked(tree, roots))
    }

    /// Creates an f-representation from its parts without validating.  Used
    /// internally by operators that maintain the invariants themselves; tests
    /// call [`FRep::validate`] afterwards.
    pub(crate) fn from_parts_unchecked(tree: FTree, roots: Vec<Union>) -> Self {
        let store = Store::freeze(&tree, &roots);
        FRep::from_store(tree, store, None)
    }

    /// Creates an f-representation directly from an arena store, with the
    /// `(size, tuple_count)` its writer recorded, if any.  Used by the
    /// writers, which maintain the invariants themselves.
    pub(crate) fn from_store(tree: FTree, store: Store, counts: Option<(usize, u128)>) -> Self {
        let counts = counts.map_or_else(OnceLock::new, OnceLock::from);
        let memo = Arc::new(Memo {
            counts,
            union_counts: OnceLock::new(),
        });
        FRep { tree, store, memo }
    }

    /// Takes the representation apart for an in-place rewrite of its arena
    /// (the product); whatever it recorded about the old arena goes with it.
    pub(crate) fn into_parts(self) -> (FTree, Store) {
        (self.tree, self.store)
    }

    /// Returns `true` if the two representations have bit-for-bit identical
    /// arenas (not merely the same represented relation).  Exposed for the
    /// oracle-equivalence tests; hidden because arena layout is not API.
    #[doc(hidden)]
    pub fn store_identical(&self, other: &FRep) -> bool {
        self.store == other.store
    }

    /// Debug rendering of the raw arena records, for oracle-equivalence test
    /// failure messages.
    #[doc(hidden)]
    pub fn dump_store(&self) -> String {
        format!("{:#?}", self.store)
    }

    /// The representation of the empty relation over the given f-tree: every
    /// root union empty, no singletons and no tuples (a forest with no roots
    /// holds the nullary tuple).
    pub fn empty(tree: FTree) -> Self {
        let roots: Vec<Union> = tree.roots().iter().map(|&r| Union::empty(r)).collect();
        let store = Store::freeze(&tree, &roots);
        let tuples = u128::from(roots.is_empty());
        FRep::from_store(tree, store, Some((0, tuples)))
    }

    /// The same relation, the empty one as [`FRep::empty`]: an emptied root
    /// union empties the product, so the other roots' entries are dropped.
    /// Every writer ends here, so the empty relation holds no singletons.
    pub(crate) fn canonical(self) -> FRep {
        if self.represents_empty() {
            FRep::empty(self.tree)
        } else {
            self
        }
    }

    /// The f-tree describing this representation's nesting structure.
    pub fn tree(&self) -> &FTree {
        &self.tree
    }

    /// The arena store (crate-internal; operators rebuild it).
    pub(crate) fn store(&self) -> &Store {
        &self.store
    }

    /// Establishes the arena's layout fact after a snapshot load; call only
    /// once [`FRep::validate`] passed (see [`Store::verify_layout`]).
    pub(crate) fn verify_layout(&mut self) {
        self.store.verify_layout(&self.tree);
    }

    /// The `i`-th root union.
    pub fn root(&self, i: usize) -> UnionRef<'_> {
        UnionRef {
            tree: &self.tree,
            store: &self.store,
            id: self.store.roots[i],
        }
    }

    /// Iterates over the root unions.
    pub fn roots(&self) -> impl ExactSizeIterator<Item = UnionRef<'_>> {
        self.store.roots.iter().map(|&id| UnionRef {
            tree: &self.tree,
            store: &self.store,
            id,
        })
    }

    /// Thaws the representation's data into the owned builder forest.
    pub fn to_forest(&self) -> Vec<Union> {
        self.store.thaw(&self.tree)
    }

    /// The visible (non-projected) attributes of the representation, sorted.
    pub fn visible_attrs(&self) -> Vec<AttrId> {
        let mut attrs: Vec<AttrId> = self
            .tree
            .node_ids()
            .into_iter()
            .flat_map(|n| self.tree.visible_attrs(n))
            .collect();
        attrs.sort_unstable();
        attrs
    }

    /// Returns `true` if the represented relation is empty: some root union
    /// is empty (a product with the empty relation is empty).  A forest with
    /// no nodes represents the relation containing the nullary tuple and is
    /// *not* empty.
    pub fn represents_empty(&self) -> bool {
        self.store
            .roots
            .iter()
            .any(|&r| self.store.union_len(r) == 0)
    }

    /// `(size, tuple_count)`: the size in singletons and the number of
    /// tuples modulo 2¹²⁸, as the writer of the arena recorded them (see the
    /// module docs).  A representation no writer counted walks itself once,
    /// on the first call.
    pub fn counts(&self) -> (usize, u128) {
        *self
            .memo
            .counts
            .get_or_init(|| (self.size(), self.tuple_count()))
    }

    /// The recorded pair, if a writer recorded it or it has been read.
    pub(crate) fn recorded_counts(&self) -> Option<(usize, u128)> {
        self.memo.counts.get().copied()
    }

    /// The tuple count of every union, by union index — filled once, on
    /// the first call, and shared by every request on this representation.
    pub(crate) fn union_counts(&self) -> &[u128] {
        let table = || self.store.union_count_table(&self.tree);
        self.memo.union_counts.get_or_init(table)
    }

    /// The size of the representation: its number of singletons.  Every
    /// entry of a union over node `N` contributes one singleton per visible
    /// attribute of `N`.  A flat loop over the union arena (every stored
    /// union is reachable), recomputed on every call: the oracle for
    /// [`FRep::counts`], which the request path reads instead.
    pub fn size(&self) -> usize {
        let visible = visible_table(&self.tree);
        self.store
            .unions
            .iter()
            .map(|rec| visible[rec.node.index()] * rec.entries_len as usize)
            .sum()
    }

    /// Number of tuples in the represented relation (without enumerating
    /// them): products multiply, unions add — **modulo 2¹²⁸**, the wrapping
    /// ring [`crate::aggregate`] documents for `COUNT`, so this always
    /// equals `COUNT(*)` and never panics on an astronomically large
    /// product.  A flat bottom-up loop thanks to the arena's topological
    /// index order, recomputed on every call: the oracle for
    /// [`FRep::counts`], which the request path reads instead.
    pub fn tuple_count(&self) -> u128 {
        let counts = self.store.union_count_table(&self.tree);
        self.store
            .roots
            .iter()
            .fold(1, |p, &r| p.wrapping_mul(counts[r as usize]))
    }

    /// Checks all structural invariants:
    ///
    /// * the tree itself is well-formed and satisfies the path constraint;
    /// * there is exactly one root union per f-tree root;
    /// * every union's entries are sorted strictly increasing by value;
    /// * every entry has exactly one child union per f-tree child of its
    ///   node, laid out in f-tree child order, and none of them is empty
    ///   (only a root union may be);
    /// * the arena's index order is topological and every union reachable.
    pub fn validate(&self) -> Result<()> {
        self.tree.check_structure()?;
        self.tree.check_path_constraint()?;
        self.store.validate(&self.tree)
    }

    /// Renders the representation as nested text (values only), useful in
    /// examples and debugging.  Attribute names are resolved by `name`.
    pub fn render<F>(&self, mut name: F) -> String
    where
        F: FnMut(AttrId) -> String,
    {
        let mut out = String::new();
        for root in self.roots() {
            self.render_union(root, 0, &mut name, &mut out);
        }
        out
    }

    fn render_union<F>(&self, union: UnionRef<'_>, depth: usize, name: &mut F, out: &mut String)
    where
        F: FnMut(AttrId) -> String,
    {
        let label: Vec<String> = self
            .tree
            .class(union.node())
            .iter()
            .map(|&a| name(a))
            .collect();
        out.push_str(&format!("{}∪ {}:\n", "  ".repeat(depth), label.join(",")));
        for entry in union.entries() {
            out.push_str(&format!("{}⟨{}⟩\n", "  ".repeat(depth + 1), entry.value()));
            for child in entry.children() {
                self.render_union(child, depth + 2, name, out);
            }
        }
    }
}

/// Number of visible attributes of every node of `tree`, by node index —
/// the singletons one entry of a union over the node contributes.
pub(crate) fn visible_table(tree: &FTree) -> Vec<usize> {
    node_table(tree, |n| tree.visible_attrs(n).len())
}

impl fmt::Display for FRep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.render(|a| format!("{a}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::Entry;
    use fdb_common::{ComparisonOp, ExecCtx, FdbError, Value};
    use fdb_ftree::DepEdge;
    use std::collections::BTreeSet;

    fn attrs(ids: &[u32]) -> BTreeSet<AttrId> {
        ids.iter().map(|&i| AttrId(i)).collect()
    }

    /// Example 3 of the paper: R = {(1,1), (1,2), (2,2)} over {A, B} with the
    /// f-tree A → B.  Its unique f-representation is
    /// ⟨A:1⟩×(⟨B:1⟩ ∪ ⟨B:2⟩) ∪ ⟨A:2⟩×⟨B:2⟩.
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

    #[test]
    fn example3_size_and_count() {
        let rep = example3();
        // Singletons: ⟨A:1⟩, ⟨B:1⟩, ⟨B:2⟩, ⟨A:2⟩, ⟨B:2⟩ = 5.
        assert_eq!(rep.size(), 5);
        assert_eq!(rep.tuple_count(), 3);
        assert!(!rep.represents_empty());
        assert_eq!(rep.visible_attrs(), vec![AttrId(0), AttrId(1)]);
    }

    /// 33²⁶ > 2¹²⁸: the count of a product of 26 one-attribute unions of 33
    /// values wraps — it must neither panic (debug profile) nor disagree
    /// with `COUNT(*)` (either profile).
    #[test]
    fn tuple_count_wraps_like_count_star() {
        use crate::aggregate::{evaluate_ctx, AggregateKind, AggregateResult, AggregateValue};
        let factor = |attr: u32| {
            let mut tree = FTree::new(vec![DepEdge::new(format!("R{attr}"), attrs(&[attr]), 33)]);
            let node = tree.add_node(attrs(&[attr]), None).unwrap();
            let entries = (0..33).map(|v| Entry::leaf(Value::new(v))).collect();
            FRep::from_parts(tree, vec![Union::new(node, entries)]).unwrap()
        };
        let rep = (1..26).fold(factor(0), |acc, attr| {
            crate::ops::product(acc, factor(attr)).unwrap()
        });
        assert_eq!(rep.size(), 26 * 33);
        let wrapped = 307181632356614942603594048144429094721u128;
        assert_eq!(rep.tuple_count(), wrapped);
        let count = evaluate_ctx(&rep, AggregateKind::Count, &[], &ExecCtx::unlimited()).unwrap();
        assert_eq!(
            count,
            AggregateResult::Scalar(AggregateValue::Count(wrapped))
        );

        // An emitted result records the same wrapped count: the selection
        // rebuilds the first factor and block-copies the other 25.
        let ops = [crate::ops::FPlanOp::SelectConst {
            attr: AttrId(0),
            op: ComparisonOp::Ge,
            value: Value::new(0),
        }];
        let emitted = crate::ops::emit_fused_ctx(&rep, &ops, &ExecCtx::unlimited()).unwrap();
        assert!(emitted.store_identical(&rep));
        assert_eq!(emitted.recorded_counts(), Some((26 * 33, wrapped)));

        // So does a flat build of the same product: 26 unary relations of
        // 33 rows each, one root per relation.
        let mut catalog = fdb_common::Catalog::new();
        let names: Vec<String> = (0..26).map(|r| format!("R{r}")).collect();
        let rels: Vec<_> = (names.iter())
            .map(|name| catalog.add_relation(name, &["A"]).0)
            .collect();
        let mut db = fdb_relation::Database::new(catalog);
        for &rel in &rels {
            let rows: Vec<Vec<u64>> = (0..33).map(|v| vec![v]).collect();
            db.insert_raw_rows(rel, &rows).unwrap();
        }
        let tree = fdb_ftree::flat_database_ftree(db.catalog(), &rels, |_| 33).unwrap();
        let query = fdb_common::Query::product(rels);
        let built = crate::build_frep_ctx(&db, &query, &tree, &ExecCtx::unlimited()).unwrap();
        assert_eq!(built.recorded_counts(), Some((26 * 33, wrapped)));
        assert_eq!((built.size(), built.tuple_count()), (26 * 33, wrapped));
    }

    #[test]
    fn empty_representation() {
        let edges = vec![DepEdge::new("R", attrs(&[0]), 0)];
        let mut tree = FTree::new(edges);
        tree.add_node(attrs(&[0]), None).unwrap();
        let rep = FRep::empty(tree);
        rep.validate().unwrap();
        assert!(rep.represents_empty());
        assert_eq!(rep.size(), 0);
        assert_eq!(rep.tuple_count(), 0);
    }

    #[test]
    fn nullary_representation_has_one_tuple() {
        // An empty forest represents ⟨⟩, the relation with the nullary tuple.
        let rep = FRep::empty(FTree::new(vec![]));
        rep.validate().unwrap();
        assert!(!rep.represents_empty());
        assert_eq!(rep.tuple_count(), 1);
        assert_eq!(rep.size(), 0);
    }

    #[test]
    fn validation_rejects_out_of_order_values() {
        let rep = example3();
        let (tree, mut roots) = (rep.tree().clone(), rep.to_forest());
        roots[0].entries.swap(0, 1);
        assert!(matches!(
            FRep::from_parts(tree, roots),
            Err(FdbError::MalformedRepresentation { .. })
        ));
    }

    #[test]
    fn validation_rejects_missing_children() {
        let rep = example3();
        let (tree, mut roots) = (rep.tree().clone(), rep.to_forest());
        roots[0].entries[0].children.clear();
        assert!(matches!(
            FRep::from_parts(tree, roots),
            Err(FdbError::MalformedRepresentation { .. })
        ));
    }

    #[test]
    fn validation_rejects_wrong_root_set() {
        let rep = example3();
        let (tree, roots) = (rep.tree().clone(), rep.to_forest());
        let b = tree.node_of_attr(AttrId(1)).unwrap();
        let bogus = vec![Union::empty(b), roots.into_iter().next().unwrap()];
        assert!(FRep::from_parts(tree, bogus).is_err());
    }

    #[test]
    fn arena_validation_catches_malformed_frozen_data() {
        // from_parts_unchecked freezes without checking; validate() must
        // still reject the malformation at the arena level.
        let rep = example3();
        let (tree, mut roots) = (rep.tree().clone(), rep.to_forest());
        roots[0].entries[0].children.clear();
        let rep = FRep::from_parts_unchecked(tree, roots);
        assert!(matches!(
            rep.validate(),
            Err(FdbError::MalformedRepresentation { .. })
        ));
    }

    #[test]
    fn from_parts_refuses_an_empty_union_below_a_root() {
        let rep = example3();
        let (tree, mut roots) = (rep.tree().clone(), rep.to_forest());
        // An empty root union is the empty relation.
        let a = roots[0].node;
        assert!(FRep::from_parts(tree.clone(), vec![Union::empty(a)])
            .unwrap()
            .represents_empty());
        // The B-union under A=1 emptied: neither the forest nor its arena is
        // a representation (the reduced form every writer emits).
        roots[0].entries[0].children[0].entries.clear();
        assert!(matches!(
            FRep::from_parts(tree.clone(), roots.clone()),
            Err(FdbError::MalformedRepresentation { .. })
        ));
        assert!(matches!(
            FRep::from_parts_unchecked(tree, roots).validate(),
            Err(FdbError::MalformedRepresentation { .. })
        ));
    }

    #[test]
    fn union_lookup_helpers() {
        let rep = example3();
        let root = rep.root(0);
        assert_eq!(root.len(), 2);
        assert!(root.find_value(Value::new(2)).is_some());
        assert!(root.find_value(Value::new(3)).is_none());
        let b = rep.tree().node_of_attr(AttrId(1)).unwrap();
        let entry = root.find_value(Value::new(1)).unwrap();
        assert_eq!(entry.child(b).unwrap().len(), 2);
    }

    #[test]
    fn forest_round_trip_preserves_everything() {
        let rep = example3();
        let rebuilt = FRep::from_parts(rep.tree().clone(), rep.to_forest()).unwrap();
        assert_eq!(rebuilt.size(), rep.size());
        assert_eq!(rebuilt.tuple_count(), rep.tuple_count());
        assert_eq!(rebuilt.store(), rep.store());
    }

    #[test]
    fn render_contains_values() {
        let rep = example3();
        let text = rep.render(|a| {
            if a == AttrId(0) {
                "A".into()
            } else {
                "B".into()
            }
        });
        assert!(text.contains("∪ A:"));
        assert!(text.contains("⟨1⟩"));
        assert!(text.contains("∪ B:"));
    }
}
