//! The hand-built representations the serving workloads query, each with
//! the flat relations the oracle evaluates instead.  The shapes are PR 6's
//! serving pair (a product of chains, a nested regrouping shape) and PR 9's
//! analytics trio (path, nested, fork); building them here, from their
//! defining formulas, keeps the benchmark independent of `crates/fdb-bench`.

use fdb_common::{AttrId, Catalog, Query, Value};
use fdb_core::FdbEngine;
use fdb_frep::{Entry, FRep, Union};
use fdb_ftree::{DepEdge, FTree, NodeId};
use fdb_relation::{Database, Relation};
use std::collections::BTreeSet;

fn attrs(ids: &[u32]) -> BTreeSet<AttrId> {
    ids.iter().map(|&i| AttrId(i)).collect()
}

fn leaf_union(node: NodeId, values: impl Iterator<Item = u64>) -> Union {
    Union::new(node, values.map(|v| Entry::leaf(Value::new(v))).collect())
}

fn relation(ids: &[u32], rows: &[Vec<u64>]) -> Relation {
    Relation::from_raw_rows(ids.iter().map(|&i| AttrId(i)).collect(), rows)
        .expect("rows match the attribute list by construction")
}

/// The product of `chains` independent two-level chains: chain `i` has root
/// attribute `2i` with values `0..outer`, each with child attribute `2i+1`
/// values `v..v+inner`.  Returns the representation and one flat relation
/// per chain (their product is the represented relation).
pub fn wide_forest(chains: u32, outer: u64, inner: u64) -> (FRep, Vec<Relation>) {
    let mut rep: Option<FRep> = None;
    let mut flat = Vec::new();
    for chain in 0..chains {
        let (ra, rb) = (chain * 2, chain * 2 + 1);
        let edges = vec![DepEdge::new(format!("R{chain}"), attrs(&[ra, rb]), outer)];
        let mut tree = FTree::new(edges);
        let root = tree.add_node(attrs(&[ra]), None).expect("fresh tree");
        let child = tree.add_node(attrs(&[rb]), Some(root)).expect("fresh tree");
        let entries = (0..outer)
            .map(|v| Entry {
                value: Value::new(v),
                children: vec![leaf_union(child, v..v + inner)],
            })
            .collect();
        let side = FRep::from_parts(tree, vec![Union::new(root, entries)]).expect("valid chain");
        rep = Some(match rep {
            None => side,
            Some(acc) => fdb_frep::ops::product(acc, side).expect("disjoint chains"),
        });
        let rows: Vec<Vec<u64>> = (0..outer)
            .flat_map(|v| (v..v + inner).map(move |w| vec![v, w]))
            .collect();
        flat.push(relation(&[ra, rb], &rows));
    }
    (rep.expect("at least one chain"), flat)
}

/// `A{0} → B{1} → (C{2}, D{3})`: `outer` values of `A`, each with `inner`
/// values of `B`, each with one `C` (`a mod 7`) and one `D` (`b mod 11`).
pub fn nested_shape(outer: u64, inner: u64) -> (FRep, Vec<Relation>) {
    let edges = vec![
        DepEdge::new("RAB", attrs(&[0, 1]), outer),
        DepEdge::new("RAC", attrs(&[0, 2]), outer),
        DepEdge::new("RBD", attrs(&[1, 3]), inner),
    ];
    let mut tree = FTree::new(edges);
    let a = tree.add_node(attrs(&[0]), None).expect("fresh tree");
    let b = tree.add_node(attrs(&[1]), Some(a)).expect("fresh tree");
    let c = tree.add_node(attrs(&[2]), Some(b)).expect("fresh tree");
    let d = tree.add_node(attrs(&[3]), Some(b)).expect("fresh tree");
    let a_entries = (0..outer)
        .map(|av| Entry {
            value: Value::new(av),
            children: vec![Union::new(
                b,
                (av..av + inner)
                    .map(|bv| Entry {
                        value: Value::new(bv),
                        children: vec![
                            leaf_union(c, std::iter::once(av % 7)),
                            leaf_union(d, std::iter::once(bv % 11)),
                        ],
                    })
                    .collect(),
            )],
        })
        .collect();
    let rep = FRep::from_parts(tree, vec![Union::new(a, a_entries)]).expect("valid nesting");
    let rows: Vec<Vec<u64>> = (0..outer)
        .flat_map(|av| (av..av + inner).map(move |bv| vec![av, bv, av % 7, bv % 11]))
        .collect();
    (rep, vec![relation(&[0, 1, 2, 3], &rows)])
}

/// Size knobs of the analytics shapes (PR 9's).
#[derive(Clone, Copy)]
pub struct HeadDims {
    /// Root values.
    pub outer: u64,
    /// Children per root value.
    pub mid: u64,
    /// Grandchildren per child value.
    pub inner: u64,
    /// Values per independent product branch of the nested shape.
    pub branch: u64,
}

/// One analytics shape: its representation, the flat relations whose
/// product (after `join`) it represents, and its attributes by role.
pub struct HeadShape {
    /// The factorised representation (built by `evaluate_flat`).
    pub rep: FRep,
    /// The flat parts for the oracle.
    pub flat: Vec<Relation>,
    /// An equality the oracle must apply across the parts (the fork's join).
    pub join: Option<(AttrId, AttrId)>,
    /// Root attribute of the hierarchy.
    pub a: AttrId,
    /// Mid attribute.
    pub b: AttrId,
    /// Leaf attribute.
    pub c: AttrId,
    /// The fork's far-branch attribute (`None` on the other shapes).
    pub e: Option<AttrId>,
}

fn hierarchy_rows(d: HeadDims) -> Vec<Vec<u64>> {
    let mut rows = Vec::new();
    for i in 0..d.outer {
        for j in 0..d.mid {
            let b = i * d.mid + j;
            for k in 0..d.inner {
                rows.push(vec![i, b, b * d.inner + k]);
            }
        }
    }
    rows
}

fn evaluate(db: &Database, query: &Query) -> FRep {
    FdbEngine::new()
        .evaluate_flat(db, query)
        .expect("analytics shape builds")
        .result
}

fn flat_of(db: &Database) -> Vec<Relation> {
    db.catalog().rels().map(|r| db.relation(r)).collect()
}

/// A single hierarchical relation whose f-tree is the path `a → b → c`.
pub fn path_shape(d: HeadDims) -> HeadShape {
    let mut catalog = Catalog::new();
    let (r, _) = catalog.add_relation("R", &["a", "b", "c"]);
    let mut db = Database::new(catalog);
    db.insert_raw_rows(r, &hierarchy_rows(d))
        .expect("path rows");
    let attr = |name: &str| db.catalog().find_attr(name).expect("known attribute");
    HeadShape {
        rep: evaluate(&db, &Query::product(vec![r])),
        flat: flat_of(&db),
        join: None,
        a: attr("R.a"),
        b: attr("R.b"),
        c: attr("R.c"),
        e: None,
    }
}

/// The path crossed with two independent unary relations of `branch`
/// values each: the enumerated output is `branch²` times the arena.
pub fn nested_heads_shape(d: HeadDims) -> HeadShape {
    let mut catalog = Catalog::new();
    let (r, _) = catalog.add_relation("R", &["a", "b", "c"]);
    let (t1, _) = catalog.add_relation("T1", &["d1"]);
    let (t2, _) = catalog.add_relation("T2", &["e1"]);
    let mut db = Database::new(catalog);
    db.insert_raw_rows(r, &hierarchy_rows(d))
        .expect("nested R rows");
    let branch: Vec<Vec<u64>> = (0..d.branch).map(|v| vec![v]).collect();
    db.insert_raw_rows(t1, &branch).expect("nested T1 rows");
    db.insert_raw_rows(t2, &branch).expect("nested T2 rows");
    let attr = |name: &str| db.catalog().find_attr(name).expect("known attribute");
    HeadShape {
        rep: evaluate(&db, &Query::product(vec![r, t1, t2])),
        flat: flat_of(&db),
        join: None,
        a: attr("R.a"),
        b: attr("R.b"),
        c: attr("R.c"),
        e: None,
    }
}

/// The hierarchy joined with `S(a2, e)` on `a = a2`: the f-tree forks into
/// `b → c` and `e` under `{a, a2}`, and lifting `e` to the root would double
/// the tree's cost, so heads on `e` fall back to the flat strategy.
pub fn fork_shape(d: HeadDims) -> HeadShape {
    let mut catalog = Catalog::new();
    let (r, _) = catalog.add_relation("R", &["a", "b", "c"]);
    let (s, _) = catalog.add_relation("S", &["a2", "e"]);
    let mut db = Database::new(catalog);
    db.insert_raw_rows(r, &hierarchy_rows(d))
        .expect("fork R rows");
    // `e` values interleave across `a` parents so an ordered-by-`e` output
    // cannot come off any one branch.
    let s_rows: Vec<Vec<u64>> = (0..d.outer)
        .flat_map(|i| (0..4).map(move |k| vec![i, k * d.outer + i]))
        .collect();
    db.insert_raw_rows(s, &s_rows).expect("fork S rows");
    let attr = |name: &str| db.catalog().find_attr(name).expect("known attribute");
    let (a, a2) = (attr("R.a"), attr("S.a2"));
    HeadShape {
        rep: evaluate(&db, &Query::product(vec![r, s]).with_equality(a, a2)),
        flat: flat_of(&db),
        join: Some((a, a2)),
        a,
        b: attr("R.b"),
        c: attr("R.c"),
        e: Some(attr("S.e")),
    }
}
