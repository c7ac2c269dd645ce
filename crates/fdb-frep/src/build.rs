//! Construction of factorised query results directly from flat databases.
//!
//! Given a select-project-join query `Q`, an input database `D` and an
//! f-tree `T` of `Q`, [`build_frep`] computes the f-representation of the
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
//! # Direct arena emission
//!
//! The semi-join emits [`crate::store`] arena records directly as it
//! recurses — there is no intermediate builder forest and no final freeze
//! pass.  Each union's header is pushed before its subtrees (so union
//! indices stay topological), the kid unions of every candidate value are
//! built straight into the arena, and if one of them comes up empty the
//! candidate is retracted by **watermark rollback**: the three arena vectors
//! are truncated back to their lengths from before the candidate, which
//! removes every record its half-built subtrees emitted.  Surviving
//! candidates park their value and kid indices in two watermarked scratch
//! vectors; once all candidates of a union are decided, its entry block and
//! kid runs are appended contiguously.  (Entry blocks therefore land
//! *after* the blocks of their descendants — a valid layout the arena views
//! never distinguish, just not the one [`crate::store::Store::freeze`]
//! picks.)  Per-node grouping of the candidate rows is **sort-based**: one
//! flat `(value, row)` sort per relevant relation, after which every value's
//! rows form a contiguous span — replacing the former per-node `BTreeMap`
//! grouping, which dominated construction time with node allocations and
//! pointer-chasing.  The old forest-building path survives as
//! [`build_frep_via_forest`] for the equivalence tests (it keeps the
//! `BTreeMap` grouping, so the build rows of `BENCH_PR2.json` measured
//! exactly this change plus direct emission).
//!
//! The running time is `O(|Q| · |D|^{s(T̂)})` up to logarithmic factors — the
//! tight bound of the paper — because the work done per node is proportional
//! to the number of value combinations of its ancestors (and those are
//! bounded by the path cover).

use crate::frep::{Entry, FRep, Union};
use crate::store::{Store, UnionRec};
use fdb_common::{failpoint, AttrId, ExecCtx, FdbError, Query, Result, Value};
use fdb_ftree::{FTree, NodeId};
use fdb_relation::{Database, Relation};
use std::collections::{BTreeMap, BTreeSet};

/// Which relations have which columns in each f-tree node's class.
type NodeCols = BTreeMap<NodeId, Vec<(usize, Vec<usize>)>>;

/// Validates the query against the tree and prepares the base relations
/// (constant selections applied) plus the per-node column map — shared
/// between the arena path and the forest oracle.
fn prepare(db: &Database, query: &Query, tree: &FTree) -> Result<(Vec<Relation>, NodeCols)> {
    query.validate(db.catalog())?;
    tree.check_path_constraint()?;

    let query_attrs: BTreeSet<AttrId> = query.all_attrs(db.catalog()).into_iter().collect();
    let tree_attrs = tree.all_attrs();
    if query_attrs != tree_attrs {
        return Err(FdbError::InvalidInput {
            detail: format!(
                "f-tree attributes {tree_attrs:?} do not match the query attributes {query_attrs:?}"
            ),
        });
    }

    // Base relations with constant selections applied.
    let mut relations: Vec<Relation> = Vec::with_capacity(query.relations.len());
    for &rel_id in &query.relations {
        let rel = db.relation(rel_id);
        let applicable: Vec<_> = query
            .const_selections
            .iter()
            .filter(|sel| rel.has_attr(sel.attr))
            .copied()
            .collect();
        let rel = if applicable.is_empty() {
            rel
        } else {
            let cols: Vec<(usize, _)> = applicable
                .iter()
                .map(|sel| (rel.col_index(sel.attr).expect("attr present"), *sel))
                .collect();
            rel.filter(|row| cols.iter().all(|(c, sel)| sel.op.eval(row[*c], sel.value)))
        };
        relations.push(rel);
    }

    // For every f-tree node, which relations have which columns in its class.
    let mut node_cols: NodeCols = BTreeMap::new();
    for node in tree.node_ids() {
        let class = tree.class(node);
        let mut per_rel: Vec<(usize, Vec<usize>)> = Vec::new();
        for (idx, rel) in relations.iter().enumerate() {
            let cols: Vec<usize> = class.iter().filter_map(|&a| rel.col_index(a)).collect();
            if !cols.is_empty() {
                per_rel.push((idx, cols));
            }
        }
        if per_rel.is_empty() {
            return Err(FdbError::InvalidInput {
                detail: format!("f-tree node {node} has no attribute of any query relation"),
            });
        }
        node_cols.insert(node, per_rel);
    }
    Ok((relations, node_cols))
}

/// The identity row restriction: every row of every relation.
fn full_restriction(relations: &[Relation]) -> Vec<Vec<u32>> {
    relations
        .iter()
        .map(|r| (0..r.len() as u32).collect())
        .collect()
}

/// Builds the f-representation of `query`'s result over `tree` from the flat
/// database `db`.
///
/// The f-tree must label exactly the query's attributes (projections are
/// applied afterwards with the projection operator, as FDB defers them to
/// the end of the f-plan).  Constant selections of the query are pushed onto
/// the base relations before the factorisation is built.
pub fn build_frep(db: &Database, query: &Query, tree: &FTree) -> Result<FRep> {
    build_frep_ctx(db, query, tree, &ExecCtx::unlimited())
}

/// [`build_frep`] under a governance context: the semi-join charges the
/// context per candidate value it decides, so a deadline, budget or
/// cancellation aborts the construction cooperatively.  On abort the
/// half-built arena is simply dropped — the watermark rollback already
/// guarantees no candidate is ever half-recorded.
pub fn build_frep_ctx(db: &Database, query: &Query, tree: &FTree, ctx: &ExecCtx) -> Result<FRep> {
    let (relations, node_cols) = prepare(db, query, tree)?;
    failpoint!(ctx, "build.semi_join");
    let mut builder = Builder {
        tree,
        relations: &relations,
        node_cols: &node_cols,
        ctx,
        store: Store::default(),
        scratch_values: Vec::new(),
        scratch_kids: Vec::new(),
    };
    let mut restriction = full_restriction(&relations);
    let roots: Vec<u32> = tree
        .roots()
        .iter()
        .map(|&root| builder.build_union(root, &mut restriction))
        .collect::<Result<_>>()?;
    let mut store = builder.store;
    store.roots = roots;
    let mut rep = FRep::from_store(tree.clone(), store);
    // A root union that came out empty empties the whole product; prune for
    // a canonical empty representation.
    if rep.represents_empty() {
        rep = FRep::empty(tree.clone());
    }
    rep.validate()?;
    Ok(rep)
}

/// Sort-based grouping of one relation's surviving rows by class value: the
/// `(value, row)` pairs sorted once, the distinct values, and the start
/// offset of each value's contiguous row span.
struct ValueGroups {
    rel_idx: usize,
    pairs: Vec<(Value, u32)>,
    values: Vec<Value>,
    starts: Vec<u32>,
}

impl ValueGroups {
    /// The row ids grouped under `value` (ascending), empty if absent.
    fn rows_of(&self, value: Value) -> Vec<u32> {
        match crate::kernel::find_value(&self.values, value) {
            Some(i) => {
                let (start, end) = (self.starts[i] as usize, self.starts[i + 1] as usize);
                self.pairs[start..end].iter().map(|&(_, row)| row).collect()
            }
            None => Vec::new(),
        }
    }
}

struct Builder<'a> {
    tree: &'a FTree,
    relations: &'a [Relation],
    node_cols: &'a NodeCols,
    /// Governance context: charged once per candidate value decided.
    ctx: &'a ExecCtx,
    /// The output arena, appended to during the top-down semi-join and
    /// truncated back to the per-candidate watermarks on retraction.
    store: Store,
    /// Scratch: surviving candidate values of every union on the recursion
    /// stack (each level works in its own watermarked tail region).
    scratch_values: Vec<Value>,
    /// Scratch: kid union indices of the surviving candidates, `children`
    /// per value.
    scratch_kids: Vec<u32>,
}

impl Builder<'_> {
    /// Builds the union over `node` under the current per-relation row
    /// restriction, emitting its records into the arena, and returns its
    /// union index.  The restriction is temporarily narrowed for the
    /// relations relevant to this node while recursing and restored before
    /// returning.
    fn build_union(&mut self, node: NodeId, restriction: &mut Vec<Vec<u32>>) -> Result<u32> {
        let relevant = &self.node_cols[&node];

        // Group the surviving rows of every relevant relation by their value
        // of this node's class (rows whose class columns disagree are
        // inconsistent with the intra-class equality and are dropped).
        // Sort-based grouping: one flat `(value, row)` sort per relation,
        // after which each value's rows are a contiguous span — no
        // `BTreeMap`, no per-group allocation during grouping.  Restriction
        // vectors are ascending (spans of ascending pairs), so the row order
        // inside every span matches the old insertion-order grouping.
        let mut groups: Vec<ValueGroups> = Vec::with_capacity(relevant.len());
        for (rel_idx, cols) in relevant {
            let rel = &self.relations[*rel_idx];
            let mut pairs: Vec<(Value, u32)> = Vec::with_capacity(restriction[*rel_idx].len());
            for &row_idx in &restriction[*rel_idx] {
                let row = rel.row(row_idx as usize);
                let v = row[cols[0]];
                if cols.iter().all(|&c| row[c] == v) {
                    pairs.push((v, row_idx));
                }
            }
            pairs.sort_unstable();
            let mut values: Vec<Value> = Vec::new();
            let mut starts: Vec<u32> = Vec::new();
            for (idx, p) in pairs.iter().enumerate() {
                if idx == 0 || p.0 != pairs[idx - 1].0 {
                    values.push(p.0);
                    starts.push(idx as u32);
                }
            }
            starts.push(pairs.len() as u32);
            groups.push(ValueGroups {
                rel_idx: *rel_idx,
                pairs,
                values,
                starts,
            });
        }

        // Candidate values: the intersection of the (sorted) value sets,
        // driven by the smallest one.
        let smallest_pos = groups
            .iter()
            .enumerate()
            .min_by_key(|(_, g)| g.values.len())
            .map(|(i, _)| i)
            .expect("node has at least one relevant relation");
        let candidates: Vec<Value> = groups[smallest_pos]
            .values
            .iter()
            .copied()
            .filter(|&v| {
                groups
                    .iter()
                    .all(|g| crate::kernel::find_value(&g.values, v).is_some())
            })
            .collect();

        // Header first: the union's index must precede its subtrees'.
        let uid = self.store.unions.len() as u32;
        self.store.unions.push(UnionRec {
            node,
            entries_start: 0,
            entries_len: 0,
        });

        let tree = self.tree;
        let children: &[NodeId] = tree.children(node);
        let values_mark = self.scratch_values.len();
        let kids_mark = self.scratch_kids.len();
        for value in candidates {
            // One candidate = one unit of semi-join work; an abort here
            // leaves only whole, reachable candidates in the arena (the
            // rollback below retracts partial ones), and the caller drops
            // the arena anyway.
            self.ctx.charge(1)?;
            // Narrow the restriction of the relevant relations to the rows
            // matching `value` (a contiguous span of the sorted pairs),
            // remembering what to restore.
            let mut saved: Vec<(usize, Vec<u32>)> = Vec::with_capacity(groups.len());
            for g in &groups {
                let rows = g.rows_of(value);
                saved.push((
                    g.rel_idx,
                    std::mem::replace(&mut restriction[g.rel_idx], rows),
                ));
            }

            // Watermarks for the rollback: everything the candidate's
            // subtrees emit sits past these lengths.
            let unions_mark = self.store.unions.len();
            let entries_mark = self.store.entry_count();
            let arena_kids_mark = self.store.kids.len();
            let entry_kids_mark = self.scratch_kids.len();
            let mut alive = true;
            for &child in children {
                let kid = self.build_union(child, restriction)?;
                if self.store.unions[kid as usize].entries_len == 0 {
                    alive = false;
                    break;
                }
                self.scratch_kids.push(kid);
            }
            if alive {
                self.scratch_values.push(value);
            } else {
                // Retract the candidate: truncate the arena back to the
                // watermarks, deleting the half-built subtrees.
                self.store.unions.truncate(unions_mark);
                self.store.truncate_entries(entries_mark);
                self.store.kids.truncate(arena_kids_mark);
                self.scratch_kids.truncate(entry_kids_mark);
            }

            for (rel_idx, rows) in saved {
                restriction[rel_idx] = rows;
            }
        }

        // All candidates decided: append the entry block and kid runs
        // contiguously and finish the header.
        let entries_start = self.store.entry_count() as u32;
        let survivors = (self.scratch_values.len() - values_mark) as u32;
        for i in 0..survivors as usize {
            let kids_start = self.store.kids.len() as u32;
            let run_start = kids_mark + i * children.len();
            self.store
                .kids
                .extend_from_slice(&self.scratch_kids[run_start..run_start + children.len()]);
            self.store
                .push_entry(self.scratch_values[values_mark + i], kids_start);
        }
        let rec = &mut self.store.unions[uid as usize];
        rec.entries_start = entries_start;
        rec.entries_len = survivors;
        self.scratch_values.truncate(values_mark);
        self.scratch_kids.truncate(kids_mark);
        Ok(uid)
    }
}

/// The pre-PR-2 construction path: assemble an owned builder forest during
/// the semi-join and freeze it into an arena once at the end.  Kept as the
/// oracle for the equivalence tests; [`build_frep`] emits arena records
/// directly instead (2.0× on the `BENCH_PR2.json` build rows).
#[doc(hidden)]
pub fn build_frep_via_forest(db: &Database, query: &Query, tree: &FTree) -> Result<FRep> {
    let (relations, node_cols) = prepare(db, query, tree)?;
    let builder = ForestBuilder {
        tree,
        relations: &relations,
        node_cols: &node_cols,
    };
    let mut restriction = full_restriction(&relations);
    let roots: Vec<Union> = tree
        .roots()
        .iter()
        .map(|&root| builder.build_union(root, &mut restriction))
        .collect();
    let mut rep = FRep::from_parts_unchecked(tree.clone(), roots);
    if rep.represents_empty() {
        rep = FRep::empty(tree.clone());
    }
    rep.validate()?;
    Ok(rep)
}

struct ForestBuilder<'a> {
    tree: &'a FTree,
    relations: &'a [Relation],
    node_cols: &'a NodeCols,
}

impl ForestBuilder<'_> {
    fn build_union(&self, node: NodeId, restriction: &mut Vec<Vec<u32>>) -> Union {
        let relevant = &self.node_cols[&node];
        let mut groups: Vec<(usize, BTreeMap<Value, Vec<u32>>)> =
            Vec::with_capacity(relevant.len());
        for (rel_idx, cols) in relevant {
            let rel = &self.relations[*rel_idx];
            let mut map: BTreeMap<Value, Vec<u32>> = BTreeMap::new();
            for &row_idx in &restriction[*rel_idx] {
                let row = rel.row(row_idx as usize);
                let v = row[cols[0]];
                if cols.iter().all(|&c| row[c] == v) {
                    map.entry(v).or_default().push(row_idx);
                }
            }
            groups.push((*rel_idx, map));
        }

        let (smallest_pos, _) = groups
            .iter()
            .enumerate()
            .min_by_key(|(_, (_, m))| m.len())
            .expect("node has at least one relevant relation");
        let candidates: Vec<Value> = groups[smallest_pos]
            .1
            .keys()
            .copied()
            .filter(|v| groups.iter().all(|(_, m)| m.contains_key(v)))
            .collect();

        let children: Vec<NodeId> = self.tree.children(node).to_vec();
        let mut entries: Vec<Entry> = Vec::with_capacity(candidates.len());
        for value in candidates {
            let mut saved: Vec<(usize, Vec<u32>)> = Vec::with_capacity(groups.len());
            for (rel_idx, map) in &groups {
                let rows = map.get(&value).cloned().unwrap_or_default();
                saved.push((
                    *rel_idx,
                    std::mem::replace(&mut restriction[*rel_idx], rows),
                ));
            }

            let mut child_unions: Vec<Union> = Vec::with_capacity(children.len());
            let mut alive = true;
            for &child in &children {
                let u = self.build_union(child, restriction);
                if u.is_empty() {
                    alive = false;
                    break;
                }
                child_unions.push(u);
            }
            if alive {
                entries.push(Entry {
                    value,
                    children: child_unions,
                });
            }

            for (rel_idx, rows) in saved {
                restriction[rel_idx] = rows;
            }
        }
        Union::new(node, entries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enumerate::materialize;
    use fdb_common::{Catalog, ComparisonOp, RelId};
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
        let rep = build_frep(&db, &query, &tree).unwrap();
        rep.validate().unwrap();
        let flat = materialize(&rep).unwrap();
        assert_eq!(flat.tuple_set(), rdb_result(&db, &query));
        // The factorised result of Example 1 has far fewer singletons than
        // the flat result has data elements.
        assert!(rep.size() < flat.data_element_count());
    }

    #[test]
    fn direct_build_agrees_with_the_forest_oracle() {
        let (db, rels) = grocery();
        let query = q1(&db, &rels);
        let tree = t1(&db, &query);
        let direct = build_frep(&db, &query, &tree).unwrap();
        let forest = build_frep_via_forest(&db, &query, &tree).unwrap();
        // Same logical representation (the arena layouts differ: the direct
        // build places entry blocks after the child subtrees).
        assert_eq!(direct.to_forest(), forest.to_forest());
        assert_eq!(direct.size(), forest.size());
        assert_eq!(direct.tuple_count(), forest.tuple_count());
    }

    #[test]
    fn fallback_ftree_gives_the_same_relation() {
        let (db, rels) = grocery();
        let query = q1(&db, &rels);
        let tree =
            ftree_from_query_classes(db.catalog(), &query, |r| db.rel_len(r) as u64).unwrap();
        let rep = build_frep(&db, &query, &tree).unwrap();
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
        let rep = build_frep(&db, &query, &tree).unwrap();
        let flat = materialize(&rep).unwrap();
        assert_eq!(flat.tuple_set(), rdb_result(&db, &query));
        let oid_col = flat.col_index(oid).unwrap();
        assert!(flat.rows().all(|row| row[oid_col] == Value::new(1)));
    }

    #[test]
    fn empty_join_yields_the_empty_representation() {
        let (mut db, rels) = grocery();
        // Empty the Store relation: the join is empty.
        db.insert_raw_rows(rels[1], &[]).unwrap();
        let query = q1(&db, &rels);
        let tree = t1(&db, &query);
        let rep = build_frep(&db, &query, &tree).unwrap();
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
        let rep = build_frep(&db, &query, &tree).unwrap();
        assert_eq!(rep.tuple_count(), 1);
        assert_eq!(
            materialize(&rep).unwrap().tuple_set(),
            rdb_result(&db, &query)
        );
        // The watermark rollback retracted the dangling candidates: what
        // remains is what the forest path builds.
        let forest = build_frep_via_forest(&db, &query, &tree).unwrap();
        assert_eq!(rep.to_forest(), forest.to_forest());
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
        assert!(build_frep(&db, &query, &tree).is_err());
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
        let rep = build_frep(&db, &query, &tree).unwrap();
        assert_eq!(rep.size(), 50);
        assert_eq!(rep.tuple_count(), 600);
    }
}
