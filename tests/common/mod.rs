//! Reference implementations shared by the integration suites: serial
//! evaluation (one `FdbEngine::run` call with no server, no plan cache and
//! no limits, typed by the head it was given), the tuple-by-tuple
//! enumeration references, and the forest oracle of the flat-input build.
#![allow(dead_code)]

use fdb::common::AggregateHead;
use fdb::engine::{
    AggregateOutput, FactorisedQuery, FdbEngine, Head, OrderedOutput, ServeOutcome, Source,
};
use fdb::frep::{Entry, FRep, TupleCursor, Union};
use fdb::ftree::{FTree, NodeId};
use fdb::relation::{Database, Relation};
use fdb::{AttrId, FdbError, Query, Result, Value};
use std::collections::{BTreeMap, BTreeSet};

fn run_serial(
    engine: &FdbEngine,
    input: &FRep,
    query: &FactorisedQuery,
    head: Head<'_>,
) -> Result<ServeOutcome> {
    let source = Source::Factorised {
        input,
        query,
        cache: None,
    };
    engine.run(source, head, &fdb::common::ExecCtx::unlimited())
}

/// The aggregate `head` of `query` over `input`.
pub fn aggregate_serial(
    engine: &FdbEngine,
    input: &FRep,
    query: &FactorisedQuery,
    head: &AggregateHead,
) -> Result<AggregateOutput> {
    let head = Head {
        aggregate: Some(head),
        ..Head::default()
    };
    match run_serial(engine, input, query, head)? {
        ServeOutcome::Aggregate(out) => Ok(out),
        other => panic!("an aggregate head yields an aggregate outcome, got {other:?}"),
    }
}

/// The rows of `query` over `input` in the canonical `ORDER BY` order.
pub fn ordered_serial(
    engine: &FdbEngine,
    input: &FRep,
    query: &FactorisedQuery,
    order_by: &[AttrId],
) -> Result<OrderedOutput> {
    let head = Head {
        order_by,
        ..Head::default()
    };
    match run_serial(engine, input, query, head)? {
        ServeOutcome::Ordered(out) => Ok(out),
        other => panic!("an ORDER BY head yields an ordered outcome, got {other:?}"),
    }
}

/// Calls `f` once per tuple of the represented relation, in plain f-tree
/// order; the buffer lists the visible attributes in ascending id order.
pub fn for_each_tuple(rep: &FRep, mut f: impl FnMut(&[Value])) {
    let mut cursor = TupleCursor::new(rep);
    while cursor.advance() {
        f(cursor.tuple());
    }
}

/// The materialise-then-sort reference of ordered output: enumerates tuple
/// by tuple and sorts owned rows by the ordering columns, then the full row
/// — none of the block emission, priority layout or flat buffer of the
/// ordered paths it is compared with.
pub fn materialize_then_sort(rep: &FRep, order_by: &[AttrId]) -> Result<Relation> {
    let attrs = rep.visible_attrs();
    let cols = order_by
        .iter()
        .map(|a| {
            attrs
                .binary_search(a)
                .map_err(|_| FdbError::AttributeNotInQuery {
                    attr: format!("{a}"),
                })
        })
        .collect::<Result<Vec<usize>>>()?;
    let mut rows: Vec<Vec<Value>> = Vec::new();
    for_each_tuple(rep, |tuple| rows.push(tuple.to_vec()));
    let key = |row: &[Value]| cols.iter().map(|&c| row[c]).collect::<Vec<_>>();
    rows.sort_unstable_by(|a, b| key(a).cmp(&key(b)).then_with(|| a.cmp(b)));
    Relation::from_rows(attrs, rows)
}

/// Which relations have which columns in each f-tree node's class.
type NodeCols = BTreeMap<NodeId, Vec<(usize, Vec<usize>)>>;

/// The oracle of `fdb::frep::build_frep_ctx`: the same top-down semi-join
/// written the slow, obvious way — cloned relations, a `BTreeMap` grouping
/// of the surviving rows at every union, an owned builder forest frozen once
/// at the end.  It shares no code with the sorted-range build it checks.
pub fn build_frep_via_forest(db: &Database, query: &Query, tree: &FTree) -> Result<FRep> {
    query.validate(db.catalog())?;
    let query_attrs: BTreeSet<AttrId> = query.all_attrs(db.catalog()).into_iter().collect();
    if query_attrs != tree.all_attrs() {
        return Err(FdbError::InvalidInput {
            detail: "f-tree attributes do not match the query attributes".into(),
        });
    }

    // Base relations with constant selections applied.
    let relations: Vec<Relation> = query
        .relations
        .iter()
        .map(|&rel_id| {
            let rel = db.relation(rel_id);
            let cols: Vec<_> = query
                .const_selections
                .iter()
                .filter_map(|sel| rel.col_index(sel.attr).map(|c| (c, *sel)))
                .collect();
            rel.filter(|row| cols.iter().all(|(c, sel)| sel.op.eval(row[*c], sel.value)))
        })
        .collect();

    let mut node_cols: NodeCols = BTreeMap::new();
    for node in tree.node_ids() {
        let class = tree.class(node);
        let per_rel = relations
            .iter()
            .enumerate()
            .filter_map(|(idx, rel)| {
                let cols: Vec<usize> = class.iter().filter_map(|&a| rel.col_index(a)).collect();
                (!cols.is_empty()).then_some((idx, cols))
            })
            .collect();
        node_cols.insert(node, per_rel);
    }

    let builder = ForestBuilder {
        tree,
        relations: &relations,
        node_cols: &node_cols,
    };
    let mut restriction: Vec<Vec<usize>> =
        relations.iter().map(|r| (0..r.len()).collect()).collect();
    let roots: Vec<Union> = tree
        .roots()
        .iter()
        .map(|&root| builder.build_union(root, &mut restriction))
        .collect();
    let rep = FRep::from_parts(tree.clone(), roots)?;
    // A root union that came out empty empties the whole product.
    Ok(if rep.represents_empty() {
        FRep::empty(tree.clone())
    } else {
        rep
    })
}

struct ForestBuilder<'a> {
    tree: &'a FTree,
    relations: &'a [Relation],
    node_cols: &'a NodeCols,
}

impl ForestBuilder<'_> {
    fn build_union(&self, node: NodeId, restriction: &mut Vec<Vec<usize>>) -> Union {
        // Group the surviving rows of every relevant relation by their value
        // of this node's class; rows whose class columns disagree drop out.
        let groups: Vec<(usize, BTreeMap<Value, Vec<usize>>)> = self.node_cols[&node]
            .iter()
            .map(|(rel_idx, cols)| {
                let rel = &self.relations[*rel_idx];
                let mut map: BTreeMap<Value, Vec<usize>> = BTreeMap::new();
                for &row_idx in &restriction[*rel_idx] {
                    let row = rel.row(row_idx);
                    if cols.iter().all(|&c| row[c] == row[cols[0]]) {
                        map.entry(row[cols[0]]).or_default().push(row_idx);
                    }
                }
                (*rel_idx, map)
            })
            .collect();

        let candidates: Vec<Value> = groups[0]
            .1
            .keys()
            .copied()
            .filter(|v| groups.iter().all(|(_, m)| m.contains_key(v)))
            .collect();

        let mut entries: Vec<Entry> = Vec::new();
        for value in candidates {
            let saved: Vec<(usize, Vec<usize>)> = groups
                .iter()
                .map(|(rel_idx, map)| {
                    let rows = map[&value].clone();
                    (
                        *rel_idx,
                        std::mem::replace(&mut restriction[*rel_idx], rows),
                    )
                })
                .collect();

            let children: Vec<Union> = self
                .tree
                .children(node)
                .iter()
                .map(|&child| self.build_union(child, restriction))
                .collect();
            if children.iter().all(|u| !u.is_empty()) {
                entries.push(Entry { value, children });
            }

            for (rel_idx, rows) in saved {
                restriction[rel_idx] = rows;
            }
        }
        Union::new(node, entries)
    }
}
