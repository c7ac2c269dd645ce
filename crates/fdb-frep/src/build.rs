//! Construction of factorised query results directly from flat databases.
//!
//! Given a select-project-join query `Q`, an input database `D` and an
//! f-tree `T` of `Q`, [`build_frep_ctx`] computes the f-representation of the
//! (unprojected) query result over `T` without ever materialising the flat
//! result — the algorithm of the paper's prior work that FDB uses to answer
//! queries on relational input.
//!
//! The construction is a top-down semi-join: at a node labelled by class `C`,
//! the candidate values are the intersection of the `C`-values found in every
//! relation that has an attribute in `C` (restricted to the rows compatible
//! with the values chosen at the ancestors); for every candidate value the
//! children subtrees are built recursively, and the value is kept only if
//! none of its child unions is empty (an empty child would make the product
//! empty).  Because the path constraint puts all attributes of a relation on
//! one root-to-leaf path, sibling subtrees never share a relation, so this
//! local pruning yields exactly the join result.
//!
//! # Prepare: sort once per database
//!
//! The algorithm presupposes relations sorted along their root-to-leaf
//! path.  The f-tree nodes holding one of a query relation's attributes,
//! top-down, are its **levels**.  A row disagreeing on two columns of one
//! level's class can never reach the result, and the survivors of that test,
//! as one key column per level sorted lexicographically, top level first,
//! are [`Database::sorted_columns`]: the database sorts each relation once
//! per level order and shares the result across requests and threads.
//! Rows failing a constant selection are dropped per request; the context
//! is charged one unit per surviving row before they are copied.  A
//! relation that loses no row to a selection borrows the shared columns as
//! they are, with no copy; otherwise one pass copies the survivors, which
//! filtering leaves in sorted order.  The build reads nothing but the key
//! columns, where rows with equal keys are indistinguishable, so the arena
//! does not depend on how the sort breaks ties.
//!
//! # Ranges and leapfrog
//!
//! Every level carries one row range: the rows agreeing with the values
//! chosen at the relation's levels above, inside which the level's key
//! column is sorted.  A relation's top level ranges over all its rows; a
//! deeper level's range is written by the candidate of the level above,
//! which is always an ancestor on the recursion stack — so a relation that
//! has no attribute at some node in between is simply not touched there,
//! and nothing has to be restored on the way out.  The candidates of a node
//! are found by a leapfrog intersection of its levels' ranges: each cursor
//! gallops (exponential, then binary search) to the largest value seen
//! until all agree, the agreeing run of each level becomes the range of the
//! level below it, and the cursors move past the run.  A node over one
//! level needs no intersection: its candidates are the runs of its range,
//! each taken as the key at its cursor.  Candidates come out ascending and
//! the context is charged one unit for each; the recursion allocates
//! nothing beyond the growth of the arena, reserved up front at twice the
//! longest key column, and of two watermarked scratch vectors.
//!
//! # Direct arena emission and rollback
//!
//! The semi-join emits [`crate::store`] arena records directly as it
//! recurses — there is no intermediate builder forest and no final freeze
//! pass.  Each union's header is pushed before its subtrees (so union
//! indices stay topological), the kid unions of every candidate value are
//! built straight into the arena, and if one of them comes up empty the
//! candidate is retracted by **watermark rollback**: the three arena vectors
//! are truncated back to their lengths from before the candidate, which
//! removes every record its half-built subtrees emitted.  Surviving
//! candidates park their value and kid indices in the scratch vectors; once
//! all candidates of a union are decided, its entry block and kid runs are
//! appended contiguously.  (Entry blocks therefore land *after* the blocks
//! of their descendants — a valid layout the arena views never distinguish,
//! just not the one [`crate::store::Store::freeze`] picks.)
//!
//! A leaf over one level has no candidate to retract: every distinct key of
//! its range survives.  Its entries are written straight into the arena
//! behind its header, with no watermark and no trip through the scratch
//! vectors, and the context is charged their number at once — the units,
//! records and indices of the general loop, in one pass over the range.
//!
//! The build records the result's statistics ([`FRep::counts`]) as it
//! writes: each union is returned with its tuple count (the sum over its
//! surviving candidates of the product of their kid counts, wrapping), and
//! the size — one singleton per visible attribute of a union's node per
//! entry — is summed per union and rolled back with the arena, so a
//! retracted candidate contributes nothing.
//!
//! The running time is `O(|Q| · |D|^{s(T̂)})` up to logarithmic factors — the
//! tight bound of the paper — because the work done per node is proportional
//! to the number of value combinations of its ancestors (and those are
//! bounded by the path cover).

use crate::frep::{visible_table, FRep};
use crate::ops::debug_validate;
use crate::store::{Store, UnionRec};
use fdb_common::{failpoint, AttrId, ExecCtx, FdbError, Query, Result, Value};
use fdb_ftree::{FTree, NodeId};
use fdb_relation::Database;
use std::collections::BTreeSet;
use std::sync::Arc;

/// One level of a query relation: an f-tree node holding some of its
/// attributes.  The levels of a relation are consecutive, top-down.
struct Level {
    /// The relation (its index in `Prepared::columns`) and the level's depth
    /// in it, which indexes its sorted key column.
    rel: usize,
    depth: usize,
    /// Whether the next level belongs to the same relation.
    continues: bool,
}

/// The sorted input of the semi-join.
struct Prepared {
    /// Per query relation, one key column per level over its surviving
    /// rows: the database's shared columns, or a filtered copy of them.
    columns: Vec<Arc<[Vec<Value>]>>,
    levels: Vec<Level>,
    /// The levels at each f-tree node, indexed by `NodeId::index`.
    node_levels: Vec<Vec<usize>>,
}

/// Validates the query against the tree and fetches every query relation
/// sorted along its path, dropping the rows a constant selection fails (see
/// the module docs) and charging `ctx` one unit per surviving row before
/// copying them.
fn prepare(db: &Database, query: &Query, tree: &FTree, ctx: &ExecCtx) -> Result<Prepared> {
    let catalog = db.catalog();
    query.validate(catalog)?;
    tree.check_path_constraint()?;

    let query_attrs: BTreeSet<AttrId> = query.all_attrs(catalog).into_iter().collect();
    let tree_attrs = tree.all_attrs();
    if query_attrs != tree_attrs {
        return Err(FdbError::InvalidInput {
            detail: format!(
                "f-tree attributes {tree_attrs:?} do not match the query attributes {query_attrs:?}"
            ),
        });
    }

    // Every node after its ancestors.
    let top_down: Vec<NodeId> = tree.bottom_up().into_iter().rev().collect();
    let node_slots = top_down.iter().map(|n| n.index() + 1).max().unwrap_or(0);
    let mut prepared = Prepared {
        columns: Vec::new(),
        levels: Vec::new(),
        node_levels: vec![Vec::new(); node_slots],
    };

    for &rel_id in &query.relations {
        // Stored instances have exactly the catalog's columns, in order.
        let attrs = catalog.rel_attrs(rel_id);
        let col_of = |attr: AttrId| attrs.iter().position(|&a| a == attr);
        let (nodes, groups): (Vec<NodeId>, Vec<Vec<usize>>) = top_down
            .iter()
            .filter_map(|&node| {
                let cols: Vec<usize> = tree.class(node).iter().filter_map(|&a| col_of(a)).collect();
                (!cols.is_empty()).then_some((node, cols))
            })
            .unzip();
        let mut columns = db.sorted_columns(rel_id, &groups);
        // A selection reads the key column of the level holding its
        // attribute.
        let selections: Vec<_> = query
            .const_selections
            .iter()
            .filter_map(|sel| {
                let col = col_of(sel.attr)?;
                Some((groups.iter().position(|cols| cols.contains(&col))?, *sel))
            })
            .collect();
        let survives = |row: usize| {
            (selections.iter()).all(|(level, sel)| sel.op.eval(columns[*level][row], sel.value))
        };
        // A relation without levels keeps every stored row.
        let rows = columns.first().map_or(db.rel_len(rel_id), Vec::len);
        let survivors = if selections.is_empty() {
            rows
        } else {
            (0..rows).filter(|&row| survives(row)).count()
        };
        ctx.charge(survivors as u64)?;
        if survivors < rows {
            let kept: Vec<usize> = (0..rows).filter(|&row| survives(row)).collect();
            columns = (columns.iter())
                .map(|column| kept.iter().map(|&row| column[row]).collect())
                .collect();
        }
        for (depth, node) in nodes.iter().enumerate() {
            prepared.node_levels[node.index()].push(prepared.levels.len());
            prepared.levels.push(Level {
                rel: prepared.columns.len(),
                depth,
                continues: depth + 1 < nodes.len(),
            });
        }
        prepared.columns.push(columns);
    }

    if let Some(node) = top_down
        .iter()
        .find(|n| prepared.node_levels[n.index()].is_empty())
    {
        return Err(FdbError::InvalidInput {
            detail: format!("f-tree node {node} has no attribute of any query relation"),
        });
    }
    Ok(prepared)
}

/// First index at or after `from` whose key is not `below` the sought bound
/// (`keys.len()` if there is none), for a `below` that holds on a prefix of
/// `keys[from..]`: probes at doubling distances, then binary-searches the
/// last gap — `O(log distance)`, so short runs cost a comparison or two.
#[inline]
fn gallop(keys: &[Value], from: usize, below: impl Fn(Value) -> bool) -> usize {
    let mut lo = from;
    let mut step = 1;
    while lo + step <= keys.len() && below(keys[lo + step - 1]) {
        lo += step;
        step *= 2;
    }
    let hi = keys.len().min(lo + step - 1);
    lo + keys[lo..hi].partition_point(|&key| below(key))
}

/// Builds the f-representation of `query`'s result over `tree` from the flat
/// database `db`.
///
/// The f-tree must label exactly the query's attributes (projections are
/// applied afterwards with the projection operator, as FDB defers them to
/// the end of the f-plan).  Constant selections of the query are pushed onto
/// the base relations before the factorisation is built.
///
/// The context is charged one unit per input row that passes the query's
/// selections (before the survivors are copied) and one per candidate value
/// the semi-join decides, so a deadline, budget or cancellation aborts the
/// construction cooperatively.  The first build over a relation in a given
/// level order also sorts it, once per database
/// ([`Database::sorted_columns`]), and that sort is not charged: it is the
/// database's work, shared by every later request.  On abort the half-built
/// arena is simply dropped — the watermark rollback already guarantees no
/// candidate is ever half-recorded.
pub fn build_frep_ctx(db: &Database, query: &Query, tree: &FTree, ctx: &ExecCtx) -> Result<FRep> {
    let prepared = prepare(db, query, tree, ctx)?;
    failpoint!(ctx, "build.semi_join");
    let keys: Vec<&[Value]> = prepared
        .levels
        .iter()
        .map(|level| &prepared.columns[level.rel][level.depth][..])
        .collect();
    let longest = keys.iter().map(|keys| keys.len()).max().unwrap_or(0);
    let mut builder = Builder {
        tree,
        levels: &prepared.levels,
        keys: &keys,
        node_levels: &prepared.node_levels,
        ctx,
        ranges: keys.iter().map(|keys| 0..keys.len()).collect(),
        cursors: vec![0; prepared.levels.len()],
        store: Store::with_capacity(2 * longest, 2 * longest, 2 * longest),
        scratch_values: Vec::new(),
        scratch_kids: Vec::new(),
        visible: visible_table(tree),
        size: 0,
    };
    let mut tuples = 1u128;
    let roots: Vec<u32> = (tree.roots().iter())
        .map(|&root| {
            let (uid, count) = builder.build_union(root)?;
            tuples = tuples.wrapping_mul(count);
            Ok(uid)
        })
        .collect::<Result<_>>()?;
    let mut store = builder.store;
    store.roots = roots;
    let rep = FRep::from_store(tree.clone(), store, Some((builder.size, tuples))).canonical();
    rep.validate()?;
    debug_validate(&rep, "flat build");
    Ok(rep)
}

struct Builder<'a> {
    tree: &'a FTree,
    levels: &'a [Level],
    /// Per level, its sorted key column.
    keys: &'a [&'a [Value]],
    node_levels: &'a [Vec<usize>],
    /// Governance context: charged once per candidate value decided.
    ctx: &'a ExecCtx,
    /// Per level, the rows agreeing with the values chosen at the relation's
    /// levels above: all rows for a relation's top level, otherwise written
    /// by the current candidate of the level above.
    ranges: Vec<std::ops::Range<usize>>,
    /// Per level, how far into its range its node has enumerated.
    cursors: Vec<usize>,
    /// The output arena, appended to during the top-down semi-join and
    /// truncated back to the per-candidate watermarks on retraction.
    store: Store,
    /// Scratch: surviving candidate values of every union on the recursion
    /// stack (each level works in its own watermarked tail region).
    scratch_values: Vec<Value>,
    /// Scratch: kid union indices of the surviving candidates, `children`
    /// per value.
    scratch_kids: Vec<u32>,
    /// Visible attribute counts of the f-tree, by node index.
    visible: Vec<usize>,
    /// Singletons in the arena, rolled back with it.
    size: usize,
}

impl Builder<'_> {
    /// Leapfrog step: moves the cursors of the levels at one node forward to
    /// the smallest value all of them hold, `None` once one range runs out.
    fn next_candidate(&mut self, here: &[usize]) -> Option<Value> {
        if let [level] = *here {
            // One level: the next run is the next candidate.
            let keys = &self.keys[level][..self.ranges[level].end];
            return keys.get(self.cursors[level]).copied();
        }
        let mut target = Value::MIN;
        let mut agreeing = 0;
        for &level in here.iter().cycle() {
            let keys = &self.keys[level][..self.ranges[level].end];
            let cursor = gallop(keys, self.cursors[level], |key| key < target);
            self.cursors[level] = cursor;
            let &found = keys.get(cursor)?;
            if found > target {
                target = found;
                agreeing = 0;
            }
            agreeing += 1;
            if agreeing == here.len() {
                return Some(target);
            }
        }
        None
    }

    /// Builds the union over `node` inside the current ranges of its levels,
    /// emitting its records into the arena, and returns its union index and
    /// tuple count.
    fn build_union(&mut self, node: NodeId) -> Result<(u32, u128)> {
        // Header first: the union's index must precede its subtrees'.
        let uid = self.store.unions.len() as u32;
        self.store.unions.push(UnionRec {
            node,
            entries_start: 0,
            entries_len: 0,
        });
        let (node_levels, tree) = (self.node_levels, self.tree);
        let (entries_start, tuples) = match (&node_levels[node.index()][..], tree.children(node)) {
            (&[level], []) => self.write_leaf(level)?,
            (here, children) => self.decide_candidates(here, children)?,
        };
        let survivors = self.store.entry_count() as u32 - entries_start;
        let rec = &mut self.store.unions[uid as usize];
        rec.entries_start = entries_start;
        rec.entries_len = survivors;
        self.size += self.visible[node.index()] * survivors as usize;
        Ok((uid, tuples))
    }

    /// Writes a leaf over one level: its entries are the distinct keys of
    /// the level's range, appended straight to the arena and charged at
    /// once, with no candidate to retract.  Returns where they start and
    /// their number, the leaf's tuple count.
    fn write_leaf(&mut self, level: usize) -> Result<(u32, u128)> {
        let entries_start = self.store.entry_count() as u32;
        let kids_start = self.store.kids.len() as u32;
        for run in self.keys[level][self.ranges[level].clone()].chunk_by(|a, b| a == b) {
            self.store.push_entry(run[0], kids_start);
        }
        let survivors = self.store.entry_count() as u32 - entries_start;
        self.ctx.charge(u64::from(survivors))?;
        Ok((entries_start, u128::from(survivors)))
    }

    /// Decides the candidates at the levels `here` one by one, building the
    /// kid unions of each and retracting it if one comes up empty, then
    /// appends the survivors' entry block and kid runs.  Returns where the
    /// block starts and the union's tuple count.
    fn decide_candidates(&mut self, here: &[usize], children: &[NodeId]) -> Result<(u32, u128)> {
        for &level in here {
            self.cursors[level] = self.ranges[level].start;
        }
        let values_mark = self.scratch_values.len();
        let kids_mark = self.scratch_kids.len();
        let mut tuples = 0u128;
        while let Some(value) = self.next_candidate(here) {
            // One candidate = one unit of semi-join work; an abort here
            // leaves only whole, reachable candidates in the arena (the
            // rollback below retracts partial ones), and the caller drops
            // the arena anyway.
            self.ctx.charge(1)?;
            // Hand the candidate's run of every level to the level below it
            // and step over it.
            for &level in here {
                let keys = &self.keys[level][..self.ranges[level].end];
                let start = self.cursors[level];
                let end = gallop(keys, start, |key| key <= value);
                if self.levels[level].continues {
                    self.ranges[level + 1] = start..end;
                }
                self.cursors[level] = end;
            }

            // Watermarks for the rollback: everything the candidate's
            // subtrees emit sits past these lengths.
            let unions_mark = self.store.unions.len();
            let entries_mark = self.store.entry_count();
            let arena_kids_mark = self.store.kids.len();
            let entry_kids_mark = self.scratch_kids.len();
            let size_mark = self.size;
            let mut product = Some(1u128);
            for &child in children {
                let (kid, count) = self.build_union(child)?;
                if self.store.unions[kid as usize].entries_len == 0 {
                    product = None;
                    break;
                }
                self.scratch_kids.push(kid);
                product = product.map(|p| p.wrapping_mul(count));
            }
            if let Some(product) = product {
                self.scratch_values.push(value);
                tuples = tuples.wrapping_add(product);
            } else {
                // Retract the candidate: truncate the arena back to the
                // watermarks, deleting the half-built subtrees.
                self.store.unions.truncate(unions_mark);
                self.store.truncate_entries(entries_mark);
                self.store.kids.truncate(arena_kids_mark);
                self.scratch_kids.truncate(entry_kids_mark);
                self.size = size_mark;
            }
        }

        // All candidates decided: append the entry block and kid runs
        // contiguously.
        let entries_start = self.store.entry_count() as u32;
        for i in 0..self.scratch_values.len() - values_mark {
            let kids_start = self.store.kids.len() as u32;
            let run_start = kids_mark + i * children.len();
            self.store
                .kids
                .extend_from_slice(&self.scratch_kids[run_start..run_start + children.len()]);
            self.store
                .push_entry(self.scratch_values[values_mark + i], kids_start);
        }
        self.scratch_values.truncate(values_mark);
        self.scratch_kids.truncate(kids_mark);
        Ok((entries_start, tuples))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enumerate::materialize;
    use fdb_common::{Catalog, ComparisonOp, QueryLimits, RelId};
    use fdb_ftree::{ftree_from_query_classes, DepEdge};

    /// The grocery database of Figure 1, with string values mapped to small
    /// integers:
    /// items: Milk=1, Cheese=2, Melon=3; locations: Istanbul=1, Izmir=2,
    /// Antalya=3; dispatchers: Adnan=1, Yasemin=2, Volkan=3; oids as given.
    fn grocery() -> (Database, Vec<RelId>) {
        let mut catalog = Catalog::new();
        let (orders, _) = catalog.add_relation("Orders", &["oid", "item"]);
        let (store, _) = catalog.add_relation("Store", &["location", "item"]);
        let (disp, _) = catalog.add_relation("Disp", &["dispatcher", "location"]);
        let mut db = Database::new(catalog);
        db.insert_raw_rows(
            orders,
            &[vec![1, 1], vec![1, 2], vec![2, 3], vec![3, 2], vec![3, 3]],
        )
        .unwrap();
        db.insert_raw_rows(
            store,
            &[
                vec![1, 1],
                vec![1, 2],
                vec![1, 3],
                vec![2, 1],
                vec![3, 1],
                vec![3, 2],
            ],
        )
        .unwrap();
        db.insert_raw_rows(disp, &[vec![1, 1], vec![1, 2], vec![2, 1], vec![3, 3]])
            .unwrap();
        (db, vec![orders, store, disp])
    }

    /// Q1 = Orders ⋈_item Store ⋈_location Disp.
    fn q1(db: &Database, rels: &[RelId]) -> Query {
        let cat = db.catalog();
        Query::product(rels.to_vec())
            .with_equality(
                cat.find_attr("Orders.item").unwrap(),
                cat.find_attr("Store.item").unwrap(),
            )
            .with_equality(
                cat.find_attr("Store.location").unwrap(),
                cat.find_attr("Disp.location").unwrap(),
            )
    }

    /// The T1 f-tree of Figure 2 for Q1:
    /// item → (oid, location → dispatcher).
    fn t1(db: &Database, query: &Query) -> FTree {
        let cat = db.catalog();
        let edges = fdb_ftree::dep_edges_for_query(cat, query, |r| db.rel_len(r) as u64);
        let mut t = FTree::new(edges);
        let item_class: BTreeSet<AttrId> = [
            cat.find_attr("Orders.item").unwrap(),
            cat.find_attr("Store.item").unwrap(),
        ]
        .into_iter()
        .collect();
        let loc_class: BTreeSet<AttrId> = [
            cat.find_attr("Store.location").unwrap(),
            cat.find_attr("Disp.location").unwrap(),
        ]
        .into_iter()
        .collect();
        let item = t.add_node(item_class, None).unwrap();
        t.add_node(
            [cat.find_attr("Orders.oid").unwrap()].into_iter().collect(),
            Some(item),
        )
        .unwrap();
        let location = t.add_node(loc_class, Some(item)).unwrap();
        t.add_node(
            [cat.find_attr("Disp.dispatcher").unwrap()]
                .into_iter()
                .collect(),
            Some(location),
        )
        .unwrap();
        t
    }

    fn rdb_result(db: &Database, query: &Query) -> std::collections::BTreeSet<Vec<Value>> {
        let result = fdb_relation::RdbEngine::new().evaluate(db, query).unwrap();
        let mut sorted_attrs = result.attrs().to_vec();
        sorted_attrs.sort_unstable();
        result.reorder_columns(&sorted_attrs).unwrap().tuple_set()
    }

    #[test]
    fn grocery_q1_over_t1_matches_rdb() {
        let (db, rels) = grocery();
        let query = q1(&db, &rels);
        let tree = t1(&db, &query);
        let rep = build_frep_ctx(&db, &query, &tree, &ExecCtx::unlimited()).unwrap();
        rep.validate().unwrap();
        let flat = materialize(&rep).unwrap();
        assert_eq!(flat.tuple_set(), rdb_result(&db, &query));
        // The factorised result of Example 1 has far fewer singletons than
        // the flat result has data elements.
        assert!(rep.size() < flat.data_element_count());
    }

    #[test]
    fn fallback_ftree_gives_the_same_relation() {
        let (db, rels) = grocery();
        let query = q1(&db, &rels);
        let tree =
            ftree_from_query_classes(db.catalog(), &query, |r| db.rel_len(r) as u64).unwrap();
        let rep = build_frep_ctx(&db, &query, &tree, &ExecCtx::unlimited()).unwrap();
        let flat = materialize(&rep).unwrap();
        assert_eq!(flat.tuple_set(), rdb_result(&db, &query));
    }

    #[test]
    fn constant_selection_restricts_the_factorisation() {
        let (db, rels) = grocery();
        let cat = db.catalog();
        let oid = cat.find_attr("Orders.oid").unwrap();
        let query = q1(&db, &rels).with_const_selection(oid, ComparisonOp::Eq, Value::new(1));
        let tree = t1(&db, &query);
        let rep = build_frep_ctx(&db, &query, &tree, &ExecCtx::unlimited()).unwrap();
        let flat = materialize(&rep).unwrap();
        assert_eq!(flat.tuple_set(), rdb_result(&db, &query));
        let oid_col = flat.col_index(oid).unwrap();
        assert!(flat.rows().all(|row| row[oid_col] == Value::new(1)));
    }

    #[test]
    fn a_replaced_relation_is_sorted_afresh() {
        // The first build leaves every relation sorted in the database;
        // replacing one must drop that, or the next build would join the
        // old rows.
        let (mut db, rels) = grocery();
        let query = q1(&db, &rels);
        let tree = t1(&db, &query);
        let before = build_frep_ctx(&db, &query, &tree, &ExecCtx::unlimited()).unwrap();
        db.insert_raw_rows(rels[1], &[vec![3, 1], vec![3, 3]])
            .unwrap();
        let after = build_frep_ctx(&db, &query, &tree, &ExecCtx::unlimited()).unwrap();
        assert_eq!(
            materialize(&after).unwrap().tuple_set(),
            rdb_result(&db, &query)
        );
        assert!(after.tuple_count() < before.tuple_count());
    }

    #[test]
    fn empty_join_yields_the_empty_representation() {
        let (mut db, rels) = grocery();
        // Empty the Store relation: the join is empty.
        db.insert_raw_rows(rels[1], &[]).unwrap();
        let query = q1(&db, &rels);
        let tree = t1(&db, &query);
        let rep = build_frep_ctx(&db, &query, &tree, &ExecCtx::unlimited()).unwrap();
        assert!(rep.represents_empty());
        assert_eq!(rep.tuple_count(), 0);
        assert_eq!(materialize(&rep).unwrap().len(), 0);
    }

    #[test]
    fn dangling_values_are_pruned() {
        // R(A,B), S(B,C): a B-value present in R but not S must not appear.
        let mut catalog = Catalog::new();
        let (r, _) = catalog.add_relation("R", &["A", "B"]);
        let (s, _) = catalog.add_relation("S", &["B", "C"]);
        let mut db = Database::new(catalog);
        db.insert_raw_rows(r, &[vec![1, 10], vec![2, 20]]).unwrap();
        db.insert_raw_rows(s, &[vec![10, 100]]).unwrap();
        let cat = db.catalog();
        let query = Query::product(vec![r, s])
            .with_equality(cat.find_attr("R.B").unwrap(), cat.find_attr("S.B").unwrap());
        // F-tree: A → B → C would hide the pruning; use B → (A, C) instead so
        // the dangling A=2 row is only discovered via the child intersection.
        let edges = fdb_ftree::dep_edges_for_query(cat, &query, |_| 2);
        let mut tree = FTree::new(edges);
        let b_class: BTreeSet<AttrId> =
            [cat.find_attr("R.B").unwrap(), cat.find_attr("S.B").unwrap()]
                .into_iter()
                .collect();
        let b = tree.add_node(b_class, None).unwrap();
        tree.add_node(
            [cat.find_attr("R.A").unwrap()].into_iter().collect(),
            Some(b),
        )
        .unwrap();
        tree.add_node(
            [cat.find_attr("S.C").unwrap()].into_iter().collect(),
            Some(b),
        )
        .unwrap();
        let rep = build_frep_ctx(&db, &query, &tree, &ExecCtx::unlimited()).unwrap();
        assert_eq!(rep.tuple_count(), 1);
        assert_eq!(
            materialize(&rep).unwrap().tuple_set(),
            rdb_result(&db, &query)
        );
    }

    /// R(A, C), S(A, B), T(B, C) joined in a triangle over the path
    /// A → B → C: R has levels at A and C but none at B.
    fn triangle() -> (Database, Query, FTree) {
        let mut catalog = Catalog::new();
        let (r, _) = catalog.add_relation("R", &["A", "C"]);
        let (s, _) = catalog.add_relation("S", &["A", "B"]);
        let (t, _) = catalog.add_relation("T", &["B", "C"]);
        let mut db = Database::new(catalog);
        db.insert_raw_rows(r, &[vec![1, 10], vec![1, 20], vec![2, 10]])
            .unwrap();
        db.insert_raw_rows(s, &[vec![1, 5], vec![1, 6], vec![2, 5]])
            .unwrap();
        db.insert_raw_rows(t, &[vec![5, 10], vec![5, 20], vec![6, 10], vec![6, 20]])
            .unwrap();
        let cat = db.catalog();
        let attr = |name: &str| cat.find_attr(name).unwrap();
        let query = Query::product(vec![r, s, t])
            .with_equality(attr("R.A"), attr("S.A"))
            .with_equality(attr("S.B"), attr("T.B"))
            .with_equality(attr("T.C"), attr("R.C"));
        let edges = fdb_ftree::dep_edges_for_query(cat, &query, |rel| db.rel_len(rel) as u64);
        let mut tree = FTree::new(edges);
        let a = tree
            .add_node([attr("R.A"), attr("S.A")].into_iter().collect(), None)
            .unwrap();
        let b = tree
            .add_node([attr("S.B"), attr("T.B")].into_iter().collect(), Some(a))
            .unwrap();
        tree.add_node([attr("T.C"), attr("R.C")].into_iter().collect(), Some(b))
            .unwrap();
        (db, query, tree)
    }

    #[test]
    fn a_relation_skipping_a_level_sees_its_range_at_every_visit() {
        // Under A = 1 the C node is entered once per B-candidate (5 and 6)
        // and must find R's rows for A = 1 both times: a build that let the
        // first visit consume or narrow R's range for good would lose the
        // B = 6 branch.
        let (db, query, tree) = triangle();
        let rep = build_frep_ctx(&db, &query, &tree, &ExecCtx::unlimited()).unwrap();
        assert_eq!(rep.tuple_count(), 5);
        assert_eq!(
            materialize(&rep).unwrap().tuple_set(),
            rdb_result(&db, &query)
        );
    }

    #[test]
    fn the_budget_covers_surviving_rows_plus_candidates_exactly() {
        // Grocery Q1 over T1: 5 + 6 + 4 input rows, and 3 item, 5 oid,
        // 6 location and 9 dispatcher candidates, none retracted.
        let (db, rels) = grocery();
        let query = q1(&db, &rels);
        let tree = t1(&db, &query);
        let governed = |budget| {
            let ctx = ExecCtx::new(&QueryLimits::unlimited().with_budget(budget));
            build_frep_ctx(&db, &query, &tree, &ctx).map(|rep| (rep, ctx.budget_remaining()))
        };
        let (rep, left) = governed(15 + 23).unwrap();
        assert_eq!(left, 0);
        assert!(rep
            .store_identical(&build_frep_ctx(&db, &query, &tree, &ExecCtx::unlimited()).unwrap()));
        assert_eq!(
            governed(15 + 23 - 1).unwrap_err(),
            FdbError::BudgetExceeded { limit: 37 }
        );
        // Rows a constant selection drops are not charged: oid = 1 keeps two
        // of the five orders, and the budget of the input rows alone is
        // refused before any candidate is decided.
        let oid = db.catalog().find_attr("Orders.oid").unwrap();
        let selective = query.with_const_selection(oid, ComparisonOp::Eq, Value::new(1));
        let ctx = ExecCtx::new(&QueryLimits::unlimited().with_budget(2 + 6 + 4));
        assert_eq!(
            build_frep_ctx(&db, &selective, &tree, &ctx).unwrap_err(),
            FdbError::BudgetExceeded { limit: 12 }
        );
        assert_eq!(ctx.budget_remaining(), 0);
    }

    #[test]
    fn a_raised_cancel_flag_aborts_before_the_survivors_are_copied() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;
        // A selection drops one row of R, so its survivors are copied out
        // of the shared sorted columns; their charge crosses the check
        // interval, so the flag is seen before the copy.
        let mut catalog = Catalog::new();
        let (r, _) = catalog.add_relation("R", &["A"]);
        let mut db = Database::new(catalog);
        let rows = fdb_common::limits::CHECK_INTERVAL;
        db.insert_raw_rows(r, &(0..=rows).map(|i| vec![i]).collect::<Vec<_>>())
            .unwrap();
        let a = db.catalog().find_attr("R.A").unwrap();
        let query =
            Query::product(vec![r]).with_const_selection(a, ComparisonOp::Ge, Value::new(1));
        let tree = fdb_ftree::flat_database_ftree(db.catalog(), &[r], |rel| db.rel_len(rel) as u64)
            .unwrap();
        let limits = QueryLimits::unlimited().with_cancel(Arc::new(AtomicBool::new(true)));
        let ctx = ExecCtx::new(&limits.with_budget(rows));
        assert_eq!(
            build_frep_ctx(&db, &query, &tree, &ctx).unwrap_err(),
            FdbError::DeadlineExceeded { limit_ms: 0 }
        );
        assert_eq!(ctx.budget_remaining(), 0, "only the survivors were charged");
    }

    #[test]
    fn sort_rows_is_lexicographic_on_every_byte() {
        // The build's sorted input: keys differing in low, high and several
        // bytes at once, duplicate keys, a key all rows agree on, and the
        // row number as the last key.
        let pick = |i: u64, salt: u64| {
            let x = (i * 0x9E37_79B9 + salt) % 7;
            [0, 1, 255, 256, 1 << 32, (1 << 40) + 3, u64::MAX][x as usize]
        };
        let mut catalog = Catalog::new();
        let (r, _) = catalog.add_relation("R", &["A", "N", "B", "C"]);
        let mut db = Database::new(catalog);
        let rows: Vec<Vec<u64>> = (0..200)
            .map(|i| vec![pick(i, 1), i, 9, pick(i / 2, 5)])
            .collect();
        db.insert_raw_rows(r, &rows).unwrap();
        let columns = db.sorted_columns(r, &[vec![3], vec![2], vec![0], vec![1]]);
        let sorted: Vec<[u64; 4]> = (0..200)
            .map(|row| [0, 1, 2, 3].map(|level| columns[level][row].raw()))
            .collect();
        let mut expected: Vec<[u64; 4]> = rows
            .iter()
            .map(|row| [row[3], row[2], row[0], row[1]])
            .collect();
        expected.sort_unstable();
        assert_eq!(sorted, expected);
    }

    #[test]
    fn gallop_finds_the_partition_point_from_any_start() {
        let keys: Vec<Value> = [1, 1, 2, 4, 4, 4, 4, 7, 9, 9, 9, 9, 9, 9, 9, 12]
            .map(Value::new)
            .to_vec();
        for bound in 0..14 {
            let bound = Value::new(bound);
            let lower = keys.partition_point(|&k| k < bound);
            let upper = keys.partition_point(|&k| k <= bound);
            for from in 0..=lower {
                assert_eq!(gallop(&keys, from, |k| k < bound), lower);
                assert_eq!(gallop(&keys, from, |k| k <= bound), upper);
            }
        }
        assert_eq!(gallop(&[], 0, |_| true), 0);
    }

    #[test]
    fn tree_attribute_mismatch_is_rejected() {
        let (db, rels) = grocery();
        let query = q1(&db, &rels);
        // A tree missing the dispatcher attribute is rejected.
        let mut tree = FTree::new(vec![DepEdge::new(
            "Orders",
            [AttrId(0), AttrId(1)].into_iter().collect(),
            5,
        )]);
        tree.add_node([AttrId(0)].into_iter().collect(), None)
            .unwrap();
        assert!(build_frep_ctx(&db, &query, &tree, &ExecCtx::unlimited()).is_err());
    }

    #[test]
    fn recorded_counts_equal_the_walks_on_every_build_shape() {
        let built = |db: &Database, query: &Query, tree: &FTree| {
            build_frep_ctx(db, query, tree, &ExecCtx::unlimited()).unwrap()
        };
        let walked = |rep: &FRep| (rep.size(), rep.tuple_count());

        // A constant selection that drops rows: recorded as written.
        let (db, rels) = grocery();
        let oid = db.catalog().find_attr("Orders.oid").unwrap();
        let query = q1(&db, &rels).with_const_selection(oid, ComparisonOp::Eq, Value::new(1));
        let rep = built(&db, &query, &t1(&db, &query));
        assert_eq!(rep.recorded_counts(), Some(walked(&rep)));

        // A retracted candidate: over A → B → (D, C), B = 5 builds its
        // D-union before its C-union comes up empty, so the rollback must
        // take D's singletons back out of the size.
        let mut catalog = Catalog::new();
        let (r, _) = catalog.add_relation("R", &["A", "B"]);
        let (s, _) = catalog.add_relation("S", &["B", "C"]);
        let (t, _) = catalog.add_relation("T", &["A", "C"]);
        let (u, _) = catalog.add_relation("U", &["B", "D"]);
        let mut db = Database::new(catalog);
        db.insert_raw_rows(r, &[vec![1, 5], vec![1, 6]]).unwrap();
        db.insert_raw_rows(s, &[vec![5, 200], vec![6, 100]])
            .unwrap();
        db.insert_raw_rows(t, &[vec![1, 100]]).unwrap();
        db.insert_raw_rows(u, &[vec![5, 7], vec![6, 8]]).unwrap();
        let cat = db.catalog();
        let attr = |name: &str| cat.find_attr(name).unwrap();
        let class = |names: &[&str]| names.iter().map(|&n| attr(n)).collect::<BTreeSet<_>>();
        let query = Query::product(vec![r, s, t, u])
            .with_equality(attr("R.A"), attr("T.A"))
            .with_equality(attr("R.B"), attr("S.B"))
            .with_equality(attr("R.B"), attr("U.B"))
            .with_equality(attr("S.C"), attr("T.C"));
        let mut tree = FTree::new(fdb_ftree::dep_edges_for_query(cat, &query, |_| 2));
        let a = tree.add_node(class(&["R.A", "T.A"]), None).unwrap();
        let b = tree
            .add_node(class(&["R.B", "S.B", "U.B"]), Some(a))
            .unwrap();
        tree.add_node(class(&["U.D"]), Some(b)).unwrap();
        tree.add_node(class(&["S.C", "T.C"]), Some(b)).unwrap();
        let rep = built(&db, &query, &tree);
        // One tuple, A = 1, B = 6, D = 8, C = 100: 2 + 3 + 1 + 2 singletons.
        assert_eq!(rep.recorded_counts(), Some((8, 1)));
        assert_eq!(walked(&rep), (8, 1));

        // An empty relation and an empty join both come back as the
        // canonical empty representation, which walks on its first read.
        let mut catalog = Catalog::new();
        let (r, _) = catalog.add_relation("R", &["A"]);
        let db = Database::new(catalog);
        let tree = fdb_ftree::flat_database_ftree(db.catalog(), &[r], |_| 0).unwrap();
        let rep = built(&db, &Query::product(vec![r]), &tree);
        assert!(rep.represents_empty());
        assert_eq!(rep.counts(), (0, 0));
        let (mut db, rels) = grocery();
        db.insert_raw_rows(rels[1], &[]).unwrap();
        let query = q1(&db, &rels);
        let rep = built(&db, &query, &t1(&db, &query));
        assert!(rep.represents_empty());
        assert_eq!(rep.counts(), walked(&rep));
        assert_eq!(rep.counts(), (0, 0));
    }

    #[test]
    fn product_query_multiplies_sizes() {
        // Two independent relations, no join: the factorised size is the sum
        // of the input sizes while the flat result is their product.
        let mut catalog = Catalog::new();
        let (r, _) = catalog.add_relation("R", &["A"]);
        let (s, _) = catalog.add_relation("S", &["B"]);
        let mut db = Database::new(catalog);
        db.insert_raw_rows(r, &(0..20).map(|i| vec![i]).collect::<Vec<_>>())
            .unwrap();
        db.insert_raw_rows(s, &(0..30).map(|i| vec![i]).collect::<Vec<_>>())
            .unwrap();
        let query = Query::product(vec![r, s]);
        let tree =
            fdb_ftree::flat_database_ftree(db.catalog(), &[r, s], |rel| db.rel_len(rel) as u64)
                .unwrap();
        let rep = build_frep_ctx(&db, &query, &tree, &ExecCtx::unlimited()).unwrap();
        assert_eq!(rep.size(), 50);
        assert_eq!(rep.tuple_count(), 600);
    }

    /// FNV-1a-64 of a byte string: a compact pin of an arena's records.
    fn fnv(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
    }

    /// A catalogue shaped like the standing benchmark's `flat_join`: three
    /// ternary relations of uniform and Zipf data joined by `K ∈ {2, 3, 4}`
    /// equalities, and the combinatorial dataset with `K ∈ 1..6`, one query
    /// per cell, each over its optimal and its fallback f-tree.
    fn flat_join_catalogue() -> Vec<(Database, Query, FTree)> {
        use fdb_datagen::{combinatorial_database, populate, random_query, ValueDistribution};
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut data = StdRng::seed_from_u64(44);
        let mut queries = StdRng::seed_from_u64(0xFDB3);
        let mut catalog = Catalog::new();
        for (name, attrs) in [
            ("R0", ["a0", "a1", "a2"]),
            ("R1", ["a3", "a4", "a5"]),
            ("R2", ["a6", "a7", "a8"]),
        ] {
            catalog.add_relation(name, &attrs);
        }
        let mut cells = Vec::new();
        for distribution in [ValueDistribution::Uniform, ValueDistribution::Zipf(1.0)] {
            let db = populate(&mut data, &catalog, 120, 30, distribution);
            for k in 2..=4 {
                cells.push((db.clone(), k));
            }
            let db = combinatorial_database(&mut data, distribution);
            for k in 1..=6 {
                cells.push((db.clone(), k));
            }
        }
        let mut builds = Vec::new();
        for (db, k) in cells {
            let rels: Vec<RelId> = db.catalog().rels().collect();
            let query = random_query(&mut queries, db.catalog(), &rels, k);
            let card = |r: RelId| db.rel_len(r) as u64;
            let optimal = fdb_ftree::optimal_ftree(db.catalog(), &query, card)
                .unwrap()
                .tree;
            let fallback = ftree_from_query_classes(db.catalog(), &query, card).unwrap();
            builds.push((db.clone(), query.clone(), optimal));
            builds.push((db, query, fallback));
        }
        builds
    }

    #[test]
    fn flat_builds_keep_their_arenas_and_units() {
        let builds = flat_join_catalogue();
        // Every node shape the build distinguishes occurs: leaves and inner
        // nodes, each over one level and over several.
        let mut shapes = BTreeSet::new();
        for (db, query, tree) in &builds {
            let prepared = prepare(db, query, tree, &ExecCtx::unlimited()).unwrap();
            for node in tree.node_ids() {
                let levels = prepared.node_levels[node.index()].len();
                shapes.insert((tree.children(node).is_empty(), levels > 1));
            }
        }
        assert_eq!(shapes.len(), 4, "{shapes:?}");
        let mut pins = Vec::new();
        for (db, query, tree) in &builds {
            let ctx = ExecCtx::new(&QueryLimits::unlimited().with_budget(u64::MAX / 2));
            let rep = build_frep_ctx(db, query, tree, &ctx).unwrap();
            let units = u64::MAX / 2 - ctx.budget_remaining();
            let governed = |budget| {
                build_frep_ctx(
                    db,
                    query,
                    tree,
                    &ExecCtx::new(&QueryLimits::unlimited().with_budget(budget)),
                )
            };
            assert!(governed(units).unwrap().store_identical(&rep));
            assert!(matches!(
                governed(units - 1),
                Err(FdbError::BudgetExceeded { .. })
            ));
            pins.push((fnv(rep.dump_store().as_bytes()), units));
        }
        // Measured on the build before one-level nodes had their own paths.
        let expected: Vec<(u64, u64)> = vec![
            (0x4065d664f5370630, 555),
            (0xa582500bc9011223, 555),
            (0xdf0a03fdc1da0539, 309),
            (0x6493418f6a390899, 508),
            (0xc06ce98e0ebbbd36, 256),
            (0x5419e5e0f3f194eb, 256),
            (0xf791510840f9d601, 2827),
            (0xdbcd54d5cdcb1563, 2827),
            (0xe7d8d5d6e367bc35, 4687),
            (0xffed450a8dd31f2f, 4687),
            (0x348b50458d911ba5, 1975),
            (0x025a872ffce4be52, 2447),
            (0x1d026865c496ba29, 914),
            (0x3a388a1a12b8ef16, 914),
            (0xb8a5bd2d7b9acdc4, 1380),
            (0xe79c2f231e284418, 966),
            (0xcd9ecfe0be8187b1, 206),
            (0xa7e4d53a5863c8e5, 225),
            (0xa9cdb34226481519, 661),
            (0xdbd0bbe816205015, 2700),
            (0xd5052a57574d6a01, 546),
            (0xfc069ec3b121c72e, 1705),
            (0xdd1a575df40bbebd, 256),
            (0x5dccb93f7ba220e3, 551),
            (0x59036ba1e9d5a556, 2731),
            (0xd2e9ff7b90ebafa4, 6017),
            (0x1ed48346801451aa, 1552),
            (0xf68ddd4e91db0489, 4838),
            (0x10f6f82c6190150b, 2260),
            (0x00b6858c07c786ca, 22284),
            (0xbe280809db1d7c4c, 2867),
            (0xfbde985acdd6a058, 3514),
            (0xb420b1db39ede60a, 888),
            (0x4a84e51b73df6bef, 888),
            (0x430bbc182dbe6506, 987),
            (0x14b7a5c8a9b33dc5, 2439),
        ];
        assert_eq!(pins, expected);
    }
}
