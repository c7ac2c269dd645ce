//! Arena-migration equivalence: the arena-backed representation and its
//! iterative cursor must be observationally identical to the flat relational
//! path — same tuple multiset, same ascending-attribute column order — and
//! the representation statistics must be invariant under the builder-form
//! round trip (`to_forest` / `from_parts`).
//!
//! The randomized property tests in the second half of this file assert that
//! on generated f-representations every operator — all seven, each a
//! one-operator program of the plan executor — and every multi-operator plan
//! produce a store **bit-for-bit identical** (`FRep::store_identical`,
//! checked after `validate()`) to the thaw-path oracle
//! (`fdb::frep::ops::oracle::apply`), applied operator by operator,
//! including empty-union and single-entry edge cases.

mod common;

use fdb::common::{AttrId, ComparisonOp, ExecCtx, Query, RelId, Value};
use fdb::datagen::{grocery_database, populate, random_query, random_schema, ValueDistribution};
use fdb::engine::FdbEngine;
use fdb::frep::ops::{self, oracle};
use fdb::frep::{materialize, Entry, FRep, Union};
use fdb::ftree::{DepEdge, FTree, NodeId};
use fdb::relation::{Database, RdbEngine};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};

/// Canonical (attribute-sorted) tuple multiset of the flat RDB result.  Flat
/// join results are sets, so a `BTreeMap` to counts doubles as a multiset
/// check against the enumeration (which must not produce duplicates).
fn rdb_tuple_counts(db: &Database, query: &Query) -> BTreeMap<Vec<Value>, usize> {
    let result = RdbEngine::new().evaluate(db, query).expect("RDB evaluates");
    let mut attrs = result.attrs().to_vec();
    attrs.sort_unstable();
    let reordered = result.reorder_columns(&attrs).expect("same attributes");
    let mut counts = BTreeMap::new();
    for row in reordered.rows() {
        *counts.entry(row.to_vec()).or_insert(0usize) += 1;
    }
    counts
}

/// The tuple multiset the cursor enumerates.
fn enumerated_tuple_counts(rep: &FRep) -> BTreeMap<Vec<Value>, usize> {
    let mut counts = BTreeMap::new();
    common::for_each_tuple(rep, |t| {
        *counts.entry(t.to_vec()).or_insert(0usize) += 1;
    });
    counts
}

/// Reference singleton count computed on the thawed builder forest — an
/// implementation of `FRep::size` that never touches the arena.
fn reference_size(rep: &FRep) -> usize {
    fn count(rep: &FRep, union: &Union) -> usize {
        let own = rep.tree().visible_attrs(union.node).len() * union.entries.len();
        own + union
            .entries
            .iter()
            .flat_map(|e| e.children.iter())
            .map(|child| count(rep, child))
            .sum::<usize>()
    }
    rep.to_forest().iter().map(|u| count(rep, u)).sum()
}

/// The size and tuple count the writer of `rep` recorded (`FRep::counts`)
/// equal the two oracle walks, `FRep::size` and `FRep::tuple_count`, and
/// the empty relation holds no singletons.
fn assert_recorded_counts(rep: &FRep, context: &str) {
    assert_eq!(
        rep.counts(),
        (rep.size(), rep.tuple_count()),
        "{context}: recorded counts vs the walks"
    );
    let (size, tuples) = rep.counts();
    assert!(
        tuples != 0 || size == 0,
        "{context}: {size} singletons, 0 tuples"
    );
}

/// Every check bundled: multiset equality against RDB, ascending-attribute
/// buffer order, tuple-count consistency, and size invariance under the
/// builder round trip.
fn check_rep(db: &Database, query: &Query, rep: &FRep, context: &str) {
    rep.validate()
        .unwrap_or_else(|e| panic!("{context}: invalid representation: {e:?}"));
    assert_recorded_counts(rep, context);

    // Ascending-attribute order: the buffer columns are the visible
    // attributes sorted by id.
    let attrs = rep.visible_attrs();
    let mut sorted = attrs.clone();
    sorted.sort_unstable();
    assert_eq!(
        attrs, sorted,
        "{context}: visible attributes must come out ascending"
    );

    // Same tuple multiset as the flat relational path.
    let expected = rdb_tuple_counts(db, query);
    let actual = enumerated_tuple_counts(rep);
    assert_eq!(
        actual, expected,
        "{context}: enumeration disagrees with the RDB result"
    );

    // materialize is the cursor's tuples collected: same cardinality, same set.
    let flat = materialize(rep).expect("materialisation succeeds");
    assert_eq!(
        flat.len() as u128,
        rep.tuple_count(),
        "{context}: tuple_count"
    );
    assert_eq!(
        flat.attrs(),
        &attrs[..],
        "{context}: materialised column order"
    );

    // Size invariance: the arena's flat-loop size equals the builder-form
    // reference count, and survives a thaw/freeze round trip.
    let size = rep.size();
    assert_eq!(
        size,
        reference_size(rep),
        "{context}: arena size vs builder reference"
    );
    let round_tripped = FRep::from_parts(rep.tree().clone(), rep.to_forest())
        .unwrap_or_else(|e| panic!("{context}: round trip rejected: {e:?}"));
    assert_eq!(
        round_tripped.size(),
        size,
        "{context}: size after round trip"
    );
    assert_eq!(
        round_tripped.tuple_count(),
        rep.tuple_count(),
        "{context}: count after round trip"
    );
}

#[test]
fn grocery_queries_agree_with_the_flat_path() {
    let g = grocery_database();
    for (name, query) in [("q1", g.q1()), ("q2", g.q2())] {
        let out = FdbEngine::new()
            .evaluate_flat(&g.db, &query)
            .expect("FDB evaluates");
        check_rep(&g.db, &query, &out.result, name);
        assert!(
            out.result.size() > 0,
            "{name}: grocery results are non-empty"
        );
    }
}

#[test]
fn randomized_grocery_scale_workloads_agree_with_the_flat_path() {
    // Grocery-scale sweeps: a handful of small relations, value domains
    // narrow enough that joins actually match, both value distributions.
    for seed in 0..40u64 {
        let mut rng = StdRng::seed_from_u64(0x00A1_1E90 ^ seed);
        let relations = 1 + (seed as usize % 3);
        let attributes = relations + 1 + (seed as usize % 4);
        let catalog = random_schema(&mut rng, relations, attributes);
        let rels: Vec<RelId> = catalog.rels().collect();
        let distribution = if seed % 2 == 0 {
            ValueDistribution::Uniform
        } else {
            ValueDistribution::Zipf(1.0)
        };
        let db = populate(&mut rng, &catalog, 30, 8, distribution);
        let k = (seed as usize) % attributes.min(3);
        let query = random_query(&mut rng, &catalog, &rels, k);

        let out = FdbEngine::new()
            .evaluate_flat(&db, &query)
            .expect("FDB evaluates");
        check_rep(&db, &query, &out.result, &format!("seed {seed}"));
    }
}

// ---------------------------------------------------------------------
// One-operator programs vs the thaw-path oracle
// ---------------------------------------------------------------------

fn assert_identical(arena: &FRep, reference: &FRep, context: &str) {
    arena
        .validate()
        .unwrap_or_else(|e| panic!("{context}: arena-native result invalid: {e:?}"));
    reference
        .validate()
        .unwrap_or_else(|e| panic!("{context}: oracle result invalid: {e:?}"));
    assert!(
        arena.store_identical(reference),
        "{context}: stores diverge\narena:\n{}\noracle:\n{}",
        arena.dump_store(),
        reference.dump_store()
    );
    assert_recorded_counts(arena, context);
    assert_eq!(
        arena.tree().canonical_key(),
        reference.tree().canonical_key(),
        "{context}: trees diverge"
    );
}

/// Asserts that simulating `ops` on `input`'s tree alone yields exactly the
/// tree their execution emitted: the same nodes, roots and dependency edges.
fn assert_simulated_tree(input: &FRep, ops: &[FPlanOp], emitted: &FRep, context: &str) {
    let simulated = FPlan::new(ops.to_vec())
        .final_tree(input.tree())
        .unwrap_or_else(|e| panic!("{context}: simulation fails: {e:?}"));
    let tree = emitted.tree();
    assert_eq!(
        simulated.snapshot_nodes(),
        tree.snapshot_nodes(),
        "{context}: simulated and emitted nodes diverge"
    );
    assert_eq!(simulated.roots(), tree.roots(), "{context}: roots diverge");
    assert_eq!(simulated.edges(), tree.edges(), "{context}: edges diverge");
}

/// Runs every applicable operator on `rep` as a one-operator program and
/// through the thaw-path oracle, and asserts the stores come out
/// bit-for-bit identical, over the tree the operator's simulation yields.
fn check_structural_ops_against_oracle(rep: &FRep, rng: &mut StdRng, context: &str) {
    // Canonicalise the input to the freeze layout first: the oracle always
    // re-freezes, so an operator that turns out to be a no-op (e.g.
    // normalise on an already-normalised tree) can only be bit-identical
    // to it if the input already is in that layout.
    let rep = &FRep::from_parts(rep.tree().clone(), rep.to_forest())
        .unwrap_or_else(|e| panic!("{context}: canonicalisation rejected: {e:?}"));
    let tree = rep.tree();
    let nodes: Vec<NodeId> = tree.node_ids();
    let mut candidates: Vec<FPlanOp> = Vec::new();
    // Swap χ: every non-root node.
    candidates.extend(
        nodes
            .iter()
            .filter(|&&n| tree.parent(n).is_some())
            .map(|&n| FPlanOp::Swap(n)),
    );
    // Push-up ψ wherever the tree allows it, and normalisation η.
    candidates.extend(
        nodes
            .iter()
            .filter(|&&n| tree.can_push_up(n))
            .map(|&n| FPlanOp::PushUp(n)),
    );
    candidates.push(FPlanOp::Normalise);
    for &a in &nodes {
        for &b in &nodes {
            // Merge µ: every ordered sibling pair.
            if a != b && tree.are_siblings(a, b) {
                candidates.push(FPlanOp::Merge(a, b));
            }
        }
    }
    for &a in &nodes {
        for &b in &nodes {
            // Absorb α: every ancestor/descendant pair.
            if tree.is_ancestor(a, b) {
                candidates.push(FPlanOp::Absorb(a, b));
            }
        }
    }
    // Selection σ with a constant: every attribute, a random comparison
    // (equality binds the node) against a value from the data's range.
    let all: Vec<AttrId> = rep.visible_attrs();
    for &attr in &all {
        let op = [
            ComparisonOp::Eq,
            ComparisonOp::Ne,
            ComparisonOp::Lt,
            ComparisonOp::Ge,
        ][rng.gen_range(0..4usize)];
        let value = Value::new(rng.gen_range(0..8u64));
        candidates.push(FPlanOp::SelectConst { attr, op, value });
    }
    // Projection π onto the empty attribute set and a random subset.
    let random_keep: BTreeSet<AttrId> = all.iter().copied().filter(|_| rng.gen_bool(0.5)).collect();
    candidates.push(FPlanOp::Project(BTreeSet::new()));
    candidates.push(FPlanOp::Project(random_keep));

    for op in candidates {
        let context = format!("{context}: {op}");
        let arena = ops::emit_fused_ctx(rep, std::slice::from_ref(&op), &ExecCtx::unlimited())
            .unwrap_or_else(|e| panic!("{context}: the program fails: {e:?}"));
        let mut reference = rep.clone();
        oracle::apply(&mut reference, &op)
            .unwrap_or_else(|e| panic!("{context}: the oracle fails: {e:?}"));
        assert_identical(&arena, &reference, &context);
        assert_simulated_tree(rep, &[op], &arena, &context);
    }
}

#[test]
fn randomized_structural_ops_match_the_thaw_path_oracle() {
    for seed in 0..12u64 {
        let mut rng = StdRng::seed_from_u64(0x00A2_2E90 ^ seed);
        let relations = 1 + (seed as usize % 3);
        let attributes = relations + 2 + (seed as usize % 3);
        let catalog = random_schema(&mut rng, relations, attributes);
        let rels: Vec<RelId> = catalog.rels().collect();
        let distribution = if seed % 2 == 0 {
            ValueDistribution::Uniform
        } else {
            ValueDistribution::Zipf(1.0)
        };
        let db = populate(&mut rng, &catalog, 25, 6, distribution);
        let k = (seed as usize) % attributes.min(3);
        let query = random_query(&mut rng, &catalog, &rels, k);
        let rep = FdbEngine::new()
            .evaluate_flat(&db, &query)
            .expect("FDB evaluates")
            .result;
        check_structural_ops_against_oracle(&rep, &mut rng, &format!("seed {seed}"));
    }
}

/// `rep` under the selection `σ_{A0 = 99}`, which no value satisfies: the
/// canonical empty representation over `rep`'s tree.
fn unsatisfiable_selection(rep: &FRep) -> FRep {
    let select = FPlanOp::SelectConst {
        attr: AttrId(0),
        op: ComparisonOp::Eq,
        value: Value::new(99),
    };
    ops::emit_fused_ctx(rep, &[select], &ExecCtx::unlimited()).unwrap()
}

#[test]
fn structural_ops_match_the_oracle_on_empty_and_singleton_representations() {
    // A{0} → B{1} → C{2} chain with exactly one entry per union: the
    // single-entry edge case for every operator.
    let attrs = |ids: &[u32]| -> BTreeSet<AttrId> { ids.iter().map(|&i| AttrId(i)).collect() };
    let edges = vec![
        DepEdge::new("RAB", attrs(&[0, 1]), 1),
        DepEdge::new("RBC", attrs(&[1, 2]), 1),
    ];
    let mut tree = FTree::new(edges);
    let a = tree.add_node(attrs(&[0]), None).unwrap();
    let b = tree.add_node(attrs(&[1]), Some(a)).unwrap();
    let c = tree.add_node(attrs(&[2]), Some(b)).unwrap();
    let singleton = FRep::from_parts(
        tree.clone(),
        vec![Union::new(
            a,
            vec![Entry {
                value: Value::new(7),
                children: vec![Union::new(
                    b,
                    vec![Entry {
                        value: Value::new(7),
                        children: vec![Union::new(c, vec![Entry::leaf(Value::new(7))])],
                    }],
                )],
            }],
        )],
    )
    .unwrap();
    let mut rng = StdRng::seed_from_u64(0x00A2_2E91);
    check_structural_ops_against_oracle(&singleton, &mut rng, "singleton chain");

    // The same tree with empty root unions: the empty-union edge case.  An
    // unsatisfiable selection produces the canonical empty representation.
    let empty = unsatisfiable_selection(&singleton);
    assert!(empty.represents_empty());
    check_structural_ops_against_oracle(&empty, &mut rng, "empty representation");

    // A forest with two roots (one empty), exercising the root-context
    // branches of merge, push-up and projection.
    let edges = vec![
        DepEdge::new("R", attrs(&[0]), 1),
        DepEdge::new("S", attrs(&[1]), 0),
    ];
    let mut forest_tree = FTree::new(edges);
    let r = forest_tree.add_node(attrs(&[0]), None).unwrap();
    let s = forest_tree.add_node(attrs(&[1]), None).unwrap();
    let forest = FRep::from_parts(
        forest_tree,
        vec![
            Union::new(r, vec![Entry::leaf(Value::new(1))]),
            Union::new(s, vec![]),
        ],
    )
    .unwrap();
    check_structural_ops_against_oracle(&forest, &mut rng, "forest with an empty root");

    // Three leaf roots: a root merge leaves a third root behind, so the
    // merged union's place in the root list is pinned.
    let edges = vec![
        DepEdge::new("R", attrs(&[0]), 2),
        DepEdge::new("S", attrs(&[1]), 2),
        DepEdge::new("T", attrs(&[2]), 1),
    ];
    let mut three_tree = FTree::new(edges);
    let roots: Vec<NodeId> = (0..3)
        .map(|i| three_tree.add_node(attrs(&[i]), None).unwrap())
        .collect();
    let leaves = |node, vals: &[u64]| {
        Union::new(
            node,
            vals.iter().map(|&v| Entry::leaf(Value::new(v))).collect(),
        )
    };
    let three_roots = FRep::from_parts(
        three_tree,
        vec![
            leaves(roots[0], &[1, 2]),
            leaves(roots[1], &[2, 3]),
            leaves(roots[2], &[5]),
        ],
    )
    .unwrap();
    check_structural_ops_against_oracle(&three_roots, &mut rng, "three leaf roots");

    // Query results arrive normalised, so nothing above offers a push-up:
    // C{2} → A{0} → B{1} with B in a relation of its own lifts B twice.
    let edges = vec![
        DepEdge::new("RCA", attrs(&[2, 0]), 3),
        DepEdge::new("SB", attrs(&[1]), 2),
    ];
    let mut nested = FTree::new(edges);
    let c = nested.add_node(attrs(&[2]), None).unwrap();
    let a = nested.add_node(attrs(&[0]), Some(c)).unwrap();
    let b = nested.add_node(attrs(&[1]), Some(a)).unwrap();
    let b_union = || Union::new(b, [8, 9].map(|v| Entry::leaf(Value::new(v))).to_vec());
    let a_union = |vals: &[u64]| {
        let entry = |&v: &u64| Entry {
            value: Value::new(v),
            children: vec![b_union()],
        };
        Union::new(a, vals.iter().map(entry).collect())
    };
    let c_entry = |v: u64, a_vals: &[u64]| Entry {
        value: Value::new(v),
        children: vec![a_union(a_vals)],
    };
    let unnormalised = FRep::from_parts(
        nested,
        vec![Union::new(
            c,
            vec![c_entry(1, &[10, 11]), c_entry(2, &[12])],
        )],
    )
    .unwrap();
    check_structural_ops_against_oracle(&unnormalised, &mut rng, "independent leaf to push up");
}

/// Builds `query` over `tree` with the sorted-range build and checks it
/// against the forest oracle (same logical representation — the layouts
/// differ, direct emission places entry blocks post-order — same size and
/// count) and against the flat engine (same tuple set).
fn check_build_over(db: &Database, query: &Query, tree: &FTree, context: &str) {
    let direct = fdb::frep::build_frep_ctx(db, query, tree, &ExecCtx::unlimited())
        .unwrap_or_else(|e| panic!("{context}: direct build: {e:?}"));
    let forest = common::build_frep_via_forest(db, query, tree)
        .unwrap_or_else(|e| panic!("{context}: forest oracle: {e:?}"));
    direct
        .validate()
        .unwrap_or_else(|e| panic!("{context}: invalid build: {e:?}"));
    assert_recorded_counts(&direct, context);
    assert_eq!(
        direct.to_forest(),
        forest.to_forest(),
        "{context}: construction paths diverge"
    );
    assert_eq!(direct.size(), forest.size(), "{context}: size");
    assert_eq!(
        direct.tuple_count(),
        forest.tuple_count(),
        "{context}: tuple count"
    );
    let tuples: BTreeSet<Vec<Value>> = rdb_tuple_counts(db, query).into_keys().collect();
    assert_eq!(
        materialize(&direct).expect("enumerates").tuple_set(),
        tuples,
        "{context}: tuple set"
    );
    // The build reads the database's shared sorted columns: a second build
    // borrows them as they are, and a copy holding every relation's rows in
    // reverse sorts afresh.  Both arenas must equal the first record for
    // record, so rows with equal keys carry no row identity into the arena.
    let reversed = rewrite_rows(db, |_, rows| rows.into_iter().rev().collect());
    for (again, how) in [(db, "a second build"), (&reversed, "reversed rows")] {
        let rebuilt = fdb::frep::build_frep_ctx(again, query, tree, &ExecCtx::unlimited())
            .unwrap_or_else(|e| panic!("{context}: {how}: {e:?}"));
        assert!(
            direct.store_identical(&rebuilt),
            "{context}: {how} change the arena"
        );
    }
}

/// [`check_build_over`] on both f-trees the engine can hand the build: the
/// optimiser's and the single-path fallback's.
fn check_build(db: &Database, query: &Query, context: &str) {
    let cardinality = |r| db.rel_len(r) as u64;
    let optimal = fdb::plan::optimal_ftree(db.catalog(), query, cardinality)
        .expect("an f-tree exists")
        .tree;
    check_build_over(db, query, &optimal, &format!("{context}, optimal f-tree"));
    let fallback = fdb::ftree::ftree_from_query_classes(db.catalog(), query, cardinality)
        .expect("the fallback f-tree exists");
    check_build_over(db, query, &fallback, &format!("{context}, fallback f-tree"));
}

/// A copy of `db` with the rows of every relation rewritten by `rewrite`.
fn rewrite_rows(
    db: &Database,
    rewrite: impl Fn(RelId, Vec<Vec<u64>>) -> Vec<Vec<u64>>,
) -> Database {
    let mut out = Database::new(db.catalog().clone());
    for rel in db.catalog().rels() {
        let rows = db
            .relation(rel)
            .rows()
            .map(|row| row.iter().map(|v| v.raw()).collect())
            .collect();
        out.insert_raw_rows(rel, &rewrite(rel, rows))
            .expect("same arity");
    }
    out
}

#[test]
fn direct_arena_construction_agrees_with_the_forest_oracle() {
    // A differential sweep of the flat-input build.  `k = 0` queries give
    // multi-root forests; `random_query` equates two columns of one relation
    // now and then, and the second variant below forces it.
    for seed in 0..24u64 {
        let mut rng = StdRng::seed_from_u64(0x00A2_2E92 ^ seed);
        let relations = 1 + (seed as usize % 3);
        let attributes = relations + 1 + (seed as usize % 4);
        let catalog = random_schema(&mut rng, relations, attributes);
        let rels: Vec<RelId> = catalog.rels().collect();
        let db = populate(&mut rng, &catalog, 24, 6, ValueDistribution::Uniform);
        let k = (seed as usize) % attributes.min(3);
        let query = random_query(&mut rng, &catalog, &rels, k);
        check_build(&db, &query, &format!("seed {seed}"));

        if let Some(attrs) = rels
            .iter()
            .map(|&r| catalog.rel_attrs(r))
            .find(|attrs| attrs.len() >= 2)
        {
            let intra = query.clone().with_equality(attrs[0], attrs[1]);
            check_build(
                &db,
                &intra,
                &format!("seed {seed}, two columns in one class"),
            );
        }

        let attrs = query.all_attrs(&catalog);
        let attr = attrs[rng.gen_range(0..attrs.len())];
        for (op, value) in [
            (ComparisonOp::Ge, 3),
            (ComparisonOp::Ne, 2),
            (ComparisonOp::Eq, 4),
            (ComparisonOp::Eq, 99), // selects nothing
        ] {
            let selected = query
                .clone()
                .with_const_selection(attr, op, Value::new(value));
            check_build(
                &db,
                &selected,
                &format!("seed {seed}, σ({attr:?} {op:?} {value})"),
            );
        }

        let first = rels[0];
        let doubled = rewrite_rows(&db, |rel, rows| match rel == first {
            true => [rows.clone(), rows].concat(),
            false => rows,
        });
        check_build(&doubled, &query, &format!("seed {seed}, duplicate rows"));
        let emptied = rewrite_rows(&db, |rel, rows| match rel == first {
            true => Vec::new(),
            false => rows,
        });
        check_build(&emptied, &query, &format!("seed {seed}, empty relation"));
        let mut unpopulated = Database::new(catalog.clone());
        for &rel in &rels[1..] {
            unpopulated
                .insert_relation(rel, db.relation(rel))
                .expect("same schema");
        }
        check_build(
            &unpopulated,
            &query,
            &format!("seed {seed}, unpopulated relation"),
        );
        // Values on both sides of 2³², so the sort sees high and low bytes.
        let wide = rewrite_rows(&db, |_, rows| {
            let widen = |v: u64| if v & 1 == 0 { v << 33 | 7 } else { v };
            rows.iter()
                .map(|row| row.iter().map(|&v| widen(v)).collect())
                .collect()
        });
        check_build(&wide, &query, &format!("seed {seed}, values ≥ 2³²"));
    }
}

#[test]
fn hand_built_joins_agree_with_the_forest_oracle() {
    // Grocery Q1 over the T1 f-tree of Figure 2 (item → (oid, location →
    // dispatcher)), built by hand so the tree is pinned.
    let g = grocery_database();
    let query = g.q1();
    let class = |names: &[&str]| {
        names
            .iter()
            .map(|n| g.attr(n))
            .collect::<BTreeSet<AttrId>>()
    };
    let edges = fdb::ftree::dep_edges_for_query(g.db.catalog(), &query, |r| g.db.rel_len(r) as u64);
    let mut t1 = FTree::new(edges);
    let item = t1
        .add_node(class(&["Orders.item", "Store.item"]), None)
        .unwrap();
    t1.add_node(class(&["Orders.oid"]), Some(item)).unwrap();
    let location = t1
        .add_node(class(&["Store.location", "Disp.location"]), Some(item))
        .unwrap();
    t1.add_node(class(&["Disp.dispatcher"]), Some(location))
        .unwrap();
    check_build_over(&g.db, &query, &t1, "grocery Q1 over T1");

    // R(A,B), S(B,C) over B → (A, C): the B-value only R holds must not
    // appear.
    let mut catalog = fdb::Catalog::new();
    let (r, _) = catalog.add_relation("R", &["A", "B"]);
    let (s, _) = catalog.add_relation("S", &["B", "C"]);
    let mut db = Database::new(catalog);
    db.insert_raw_rows(r, &[vec![1, 10], vec![2, 20]]).unwrap();
    db.insert_raw_rows(s, &[vec![10, 100]]).unwrap();
    let attr = |name: &str| db.catalog().find_attr(name).unwrap();
    let query = Query::product(vec![r, s]).with_equality(attr("R.B"), attr("S.B"));
    let edges = fdb::ftree::dep_edges_for_query(db.catalog(), &query, |_| 2);
    let mut tree = FTree::new(edges);
    let b = tree
        .add_node([attr("R.B"), attr("S.B")].into_iter().collect(), None)
        .unwrap();
    tree.add_node([attr("R.A")].into_iter().collect(), Some(b))
        .unwrap();
    tree.add_node([attr("S.C")].into_iter().collect(), Some(b))
        .unwrap();
    check_build_over(&db, &query, &tree, "dangling B-value");
}

#[test]
fn selections_preserve_the_equivalence() {
    // Constant selections exercise the arena-native filtered rebuild.
    let g = grocery_database();
    let item = g.attr("Orders.item");
    for (op, value) in [
        (fdb::ComparisonOp::Eq, 2),
        (fdb::ComparisonOp::Ge, 2),
        (fdb::ComparisonOp::Ne, 1),
        (fdb::ComparisonOp::Eq, 99), // selects nothing
    ] {
        let query = g.q1().with_const_selection(item, op, Value::new(value));
        let out = FdbEngine::new()
            .evaluate_flat(&g.db, &query)
            .expect("FDB evaluates");
        check_rep(
            &g.db,
            &query,
            &out.result,
            &format!("σ(item {op:?} {value})"),
        );
    }
}

// ---------------------------------------------------------------------
// Plan execution vs the oracle applied step by step: the whole plan
// (selections and projections included) runs as one program, so every
// randomized plan below exercises it against the operator-at-a-time
// thaw-path reference.
// ---------------------------------------------------------------------

use fdb::plan::{FPlan, FPlanOp};

/// Generates a random valid multi-op plan by simulating candidate operators
/// on the f-tree: structural steps (swap, push-up, merge, absorb, normalise)
/// plus occasional barriers (selections with constants, projections), so the
/// plan exercises both fused segments and segment boundaries.
fn random_plan(rng: &mut StdRng, tree: &fdb::ftree::FTree, steps: usize, barriers: bool) -> FPlan {
    let mut cur = tree.clone();
    let mut ops: Vec<FPlanOp> = Vec::new();
    for _ in 0..steps {
        let nodes: Vec<NodeId> = cur.node_ids();
        let mut candidates: Vec<FPlanOp> = Vec::new();
        for &n in &nodes {
            if cur.parent(n).is_some() {
                candidates.push(FPlanOp::Swap(n));
            }
            if cur.can_push_up(n) {
                candidates.push(FPlanOp::PushUp(n));
            }
        }
        for &x in &nodes {
            for &y in &nodes {
                if x != y && cur.are_siblings(x, y) {
                    candidates.push(FPlanOp::Merge(x, y));
                }
                if cur.is_ancestor(x, y) {
                    candidates.push(FPlanOp::Absorb(x, y));
                }
            }
        }
        candidates.push(FPlanOp::Normalise);
        if barriers {
            let attrs: Vec<AttrId> = cur.all_attrs().into_iter().collect();
            if !attrs.is_empty() {
                let attr = attrs[rng.gen_range(0..attrs.len())];
                let op = [ComparisonOp::Ge, ComparisonOp::Ne, ComparisonOp::Le]
                    [rng.gen_range(0..3usize)];
                candidates.push(FPlanOp::SelectConst {
                    attr,
                    op,
                    value: Value::new(rng.gen_range(0..8u64)),
                });
            }
            let keep: BTreeSet<AttrId> = cur
                .all_attrs()
                .into_iter()
                .filter(|_| rng.gen_bool(0.8))
                .collect();
            candidates.push(FPlanOp::Project(keep));
        }
        if candidates.is_empty() {
            break;
        }
        let op = candidates[rng.gen_range(0..candidates.len())].clone();
        if op.apply_to_tree(&mut cur).is_err() {
            continue;
        }
        ops.push(op);
    }
    FPlan::new(ops)
}

/// Simplify, then the emitting sink, in place and ungoverned.
fn execute(plan: &FPlan, rep: &mut FRep) -> fdb::Result<()> {
    plan.simplified(rep.tree())
        .execute_presimplified_ctx(rep, &ExecCtx::unlimited())
}

/// Executes the plan both ways — simplified and as the one program the
/// emitting sink makes of it, and through the thaw-path oracle operator by operator (independent
/// code: no executor runs on the reference side) — and asserts the arenas
/// are bit-for-bit identical (store identity), the fused result validates
/// over the tree the plan's simulation yields, and the represented relations
/// agree.
fn check_fused_against_stepwise(rep: &FRep, plan: &FPlan, context: &str) {
    let mut fused = rep.clone();
    let mut stepwise = rep.clone();
    let fused_result = execute(plan, &mut fused);
    let stepwise_result = plan
        .ops
        .iter()
        .try_for_each(|op| oracle::apply(&mut stepwise, op));
    assert_eq!(
        fused_result.is_ok(),
        stepwise_result.is_ok(),
        "{context}: paths disagree on plan validity ({fused_result:?} vs {stepwise_result:?})"
    );
    if fused_result.is_err() {
        return;
    }
    fused
        .validate()
        .unwrap_or_else(|e| panic!("{context}: fused result invalid: {e:?}"));
    assert_recorded_counts(&fused, context);
    assert_simulated_tree(rep, &plan.ops, &fused, &format!("{context}: plan {plan}"));
    if plan.simplified(rep.tree()).is_empty() {
        // Nothing executes: the input comes back as it is, whatever its
        // layout, while the oracle re-froze it at every data no-op — the
        // same forest, not necessarily the same arena.
        assert!(fused.store_identical(rep), "{context}: plan {plan} moved");
        assert_eq!(
            fused.to_forest(),
            stepwise.to_forest(),
            "{context}: plan {plan} — forests diverge"
        );
    } else {
        assert!(
            fused.store_identical(&stepwise),
            "{context}: plan {plan} — fused and step-wise stores diverge\nfused:\n{}\nstep-wise:\n{}",
            fused.dump_store(),
            stepwise.dump_store()
        );
    }
    assert_eq!(
        fused.tree().canonical_key(),
        stepwise.tree().canonical_key(),
        "{context}: trees diverge"
    );
    assert_eq!(
        enumerated_tuple_counts(&fused),
        enumerated_tuple_counts(&stepwise),
        "{context}: represented relations diverge"
    );
}

#[test]
fn randomized_fused_plans_match_the_stepwise_path() {
    for seed in 0..24u64 {
        let mut rng = StdRng::seed_from_u64(0x00A3_3E90 ^ seed);
        let relations = 1 + (seed as usize % 3);
        let attributes = relations + 2 + (seed as usize % 3);
        let catalog = random_schema(&mut rng, relations, attributes);
        let rels: Vec<RelId> = catalog.rels().collect();
        let distribution = if seed % 2 == 0 {
            ValueDistribution::Uniform
        } else {
            ValueDistribution::Zipf(1.0)
        };
        let db = populate(&mut rng, &catalog, 25, 6, distribution);
        let k = (seed as usize) % attributes.min(3);
        let query = random_query(&mut rng, &catalog, &rels, k);
        let rep = FdbEngine::new()
            .evaluate_flat(&db, &query)
            .expect("FDB evaluates")
            .result;

        // Pure structural plans (one fused segment) of increasing length.
        for steps in [3usize, 5] {
            let plan = random_plan(&mut rng, rep.tree(), steps, false);
            check_fused_against_stepwise(&rep, &plan, &format!("seed {seed}, k={steps}"));
        }
        // Mixed plans with barriers (multiple segments).
        let plan = random_plan(&mut rng, rep.tree(), 6, true);
        check_fused_against_stepwise(&rep, &plan, &format!("seed {seed}, mixed"));
    }
}

#[test]
fn fused_plans_match_the_stepwise_path_on_edge_case_representations() {
    let mut rng = StdRng::seed_from_u64(0x00A3_3E91);
    let attrs = |ids: &[u32]| -> BTreeSet<AttrId> { ids.iter().map(|&i| AttrId(i)).collect() };

    // Single-entry chain: every operator's single-entry edge case.
    let edges = vec![
        DepEdge::new("RAB", attrs(&[0, 1]), 1),
        DepEdge::new("RBC", attrs(&[1, 2]), 1),
    ];
    let mut tree = FTree::new(edges);
    let a = tree.add_node(attrs(&[0]), None).unwrap();
    let b = tree.add_node(attrs(&[1]), Some(a)).unwrap();
    let c = tree.add_node(attrs(&[2]), Some(b)).unwrap();
    let singleton = FRep::from_parts(
        tree.clone(),
        vec![Union::new(
            a,
            vec![Entry {
                value: Value::new(7),
                children: vec![Union::new(
                    b,
                    vec![Entry {
                        value: Value::new(7),
                        children: vec![Union::new(c, vec![Entry::leaf(Value::new(7))])],
                    }],
                )],
            }],
        )],
    )
    .unwrap();
    for trial in 0..8 {
        let plan = random_plan(&mut rng, singleton.tree(), 4, trial % 2 == 1);
        check_fused_against_stepwise(&singleton, &plan, &format!("singleton trial {trial}"));
    }
    // Explicit single-segment plans on the chain.
    check_fused_against_stepwise(
        &singleton,
        &FPlan::new(vec![FPlanOp::Swap(b), FPlanOp::Swap(c)]),
        "singleton single segment",
    );
    check_fused_against_stepwise(
        &singleton,
        &FPlan::new(vec![FPlanOp::Absorb(a, c), FPlanOp::Normalise]),
        "singleton absorb segment",
    );

    // Empty-result representation: an unsatisfiable selection first, then
    // structural plans over the empty arena.
    let empty = unsatisfiable_selection(&singleton);
    assert!(empty.represents_empty());
    for trial in 0..8 {
        let plan = random_plan(&mut rng, empty.tree(), 4, trial % 2 == 1);
        check_fused_against_stepwise(&empty, &plan, &format!("empty trial {trial}"));
    }

    // A plan that empties the result mid-segment: merge over disjoint value
    // sets, then further restructuring of the emptied representation.
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
    let product = fdb::frep::ops::product(side(0, 1, "R", 1), side(2, 3, "S", 2)).unwrap();
    let ra = product.tree().node_of_attr(AttrId(0)).unwrap();
    let sa = product.tree().node_of_attr(AttrId(2)).unwrap();
    let rb = product.tree().node_of_attr(AttrId(1)).unwrap();
    check_fused_against_stepwise(
        &product,
        &FPlan::new(vec![
            FPlanOp::Merge(ra, sa),
            FPlanOp::Swap(rb),
            FPlanOp::Normalise,
        ]),
        "merge to empty then restructure",
    );
}

#[test]
fn barrier_only_plans_fuse_into_one_program() {
    // Plans made exclusively of former fusion barriers (selections and
    // projections, zero structural steps between them) now compile into a
    // single overlay program like any other plan — including back-to-back
    // barriers — and still match the step-wise path bit for bit.
    let g = grocery_database();
    let rep = FdbEngine::new()
        .evaluate_flat(&g.db, &g.q1())
        .expect("FDB evaluates")
        .result;
    let item = g.attr("Orders.item");
    let location = g.attr("Store.location");
    let keep: BTreeSet<AttrId> = rep
        .visible_attrs()
        .into_iter()
        .filter(|&a| a != location)
        .collect();
    let plan = FPlan::new(vec![
        FPlanOp::SelectConst {
            attr: item,
            op: ComparisonOp::Ge,
            value: Value::new(1),
        },
        FPlanOp::SelectConst {
            attr: item,
            op: ComparisonOp::Ne,
            value: Value::new(3),
        },
        FPlanOp::Project(keep),
        FPlanOp::SelectConst {
            attr: item,
            op: ComparisonOp::Le,
            value: Value::new(2),
        },
    ]);
    let simplified = plan.simplified(rep.tree());
    assert_eq!(
        simplified.len(),
        plan.len(),
        "no operator of this plan simplifies away: all four reach the executor"
    );
    check_fused_against_stepwise(&rep, &plan, "barrier-only plan");

    // The same plan consumed by the aggregate sink runs entirely on the
    // overlay: passes for the leading barriers, a folded filter for the
    // trailing selection, and no arena anywhere.
    let mut executed = rep.clone();
    execute(&plan, &mut executed).unwrap();
    let (got, on_overlay) = simplified
        .execute_aggregate_presimplified_ctx(
            &rep,
            fdb::frep::AggregateKind::Count,
            &[],
            &ExecCtx::unlimited(),
        )
        .expect("aggregate sink runs");
    assert!(on_overlay, "barrier-only plans aggregate on the overlay");
    assert_eq!(
        got,
        fdb::frep::AggregateResult::Scalar(fdb::frep::AggregateValue::Count(
            executed.tuple_count()
        ))
    );
}

#[test]
fn selection_emptying_a_mid_tree_union_matches_the_stepwise_path() {
    // A selection on an inner attribute that nothing satisfies: the emptied
    // unions must cascade through the folded liveness sweep exactly like
    // the step-wise retain-and-prune, both alone and mid-program.
    let g = grocery_database();
    let rep = FdbEngine::new()
        .evaluate_flat(&g.db, &g.q1())
        .expect("FDB evaluates")
        .result;
    let location = g.attr("Store.location");
    let oid = g.attr("Orders.oid");
    let oid_node = rep.tree().node_of_attr(oid).expect("oid labels a node");
    let unsatisfiable = FPlanOp::SelectConst {
        attr: location,
        op: ComparisonOp::Gt,
        value: Value::new(1_000_000),
    };
    check_fused_against_stepwise(
        &rep,
        &FPlan::new(vec![unsatisfiable.clone()]),
        "unsatisfiable selection alone",
    );
    check_fused_against_stepwise(
        &rep,
        &FPlan::new(vec![
            FPlanOp::Swap(oid_node),
            unsatisfiable.clone(),
            FPlanOp::Normalise,
        ]),
        "unsatisfiable selection mid-program",
    );
    let mut emptied = rep.clone();
    execute(&FPlan::new(vec![unsatisfiable]), &mut emptied).unwrap();
    assert!(emptied.represents_empty());
}

#[test]
fn selection_then_projection_and_projection_then_structural_match() {
    let g = grocery_database();
    let rep = FdbEngine::new()
        .evaluate_flat(&g.db, &g.q1())
        .expect("FDB evaluates")
        .result;
    let item = g.attr("Orders.item");
    let oid = g.attr("Orders.oid");
    let dispatcher = g.attr("Disp.dispatcher");
    let keep: BTreeSet<AttrId> = [oid, dispatcher].into_iter().collect();

    // Selection then projection, fused into one program.
    check_fused_against_stepwise(
        &rep,
        &FPlan::new(vec![
            FPlanOp::SelectConst {
                attr: item,
                op: ComparisonOp::Ge,
                value: Value::new(2),
            },
            FPlanOp::Project(keep.clone()),
        ]),
        "selection then projection",
    );

    // Projection then a structural run: the projected tree's shape feeds
    // the subsequent swaps inside the same program.
    let keep_most: BTreeSet<AttrId> = rep
        .visible_attrs()
        .into_iter()
        .filter(|&a| a != dispatcher)
        .collect();
    let project = [FPlanOp::Project(keep_most.clone())];
    let projected = ops::emit_fused_ctx(&rep, &project, &ExecCtx::unlimited()).unwrap();
    let swap_node = projected
        .tree()
        .node_ids()
        .into_iter()
        .find(|&n| projected.tree().parent(n).is_some())
        .expect("a non-root node survives the projection");
    check_fused_against_stepwise(
        &rep,
        &FPlan::new(vec![
            FPlanOp::Project(keep_most),
            FPlanOp::Swap(swap_node),
            FPlanOp::Normalise,
        ]),
        "projection then structural run",
    );
}

// ---------------------------------------------------------------------
// Snapshot-path corruption: the release-mode validator on load
// ---------------------------------------------------------------------

/// Re-frames a snapshot byte stream with one section's payload transformed,
/// recomputing the section checksum — so the corruption reaches the
/// **structural validator** on load instead of being caught by the checksum
/// layer.
fn reframe_section(bytes: &[u8], target: u32, mutate: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    use fdb::frep::snapshot::{read_sections, write_header, write_section, KIND_FREP};
    let sections = read_sections(bytes, KIND_FREP).expect("valid snapshot re-frames");
    let mut out = Vec::new();
    write_header(&mut out, KIND_FREP, sections.len() as u32);
    let mut mutate = Some(mutate);
    for (tag, payload) in sections {
        let mut payload = payload.to_vec();
        if tag == target {
            (mutate.take().expect("one section per tag"))(&mut payload);
        }
        write_section(&mut out, tag, &payload);
    }
    assert!(mutate.is_none(), "target section {target:#010x} exists");
    out
}

fn le_u32(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap())
}

fn le_u64(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap())
}

#[test]
fn corrupt_arenas_cannot_enter_through_the_snapshot_path() {
    use fdb::common::FdbError;
    use fdb::frep::{decode_frep_ctx, encode_frep_ctx};

    const TAG_UNIO: u32 = u32::from_le_bytes(*b"UNIO");
    const TAG_ENTR: u32 = u32::from_le_bytes(*b"ENTR");
    const TAG_KIDS: u32 = u32::from_le_bytes(*b"KIDS");
    const TAG_SRTS: u32 = u32::from_le_bytes(*b"SRTS");
    const MISSING_KID: u32 = u32::MAX;

    let g = grocery_database();
    let rep = FdbEngine::new()
        .evaluate_flat(&g.db, &g.q1())
        .expect("FDB evaluates")
        .result;
    let bytes = encode_frep_ctx(&rep, &ExecCtx::unlimited()).unwrap();

    // Identity re-framing is the control: the helper itself preserves the
    // format bit-for-bit, so every rejection below is the mutation's doing.
    let reframed = reframe_section(&bytes, TAG_ENTR, |_| {});
    assert_eq!(reframed, bytes, "identity re-framing is byte-identical");
    assert!(decode_frep_ctx(&reframed, &ExecCtx::unlimited())
        .unwrap()
        .store_identical(&rep));

    // The version 2 arena payloads are a u64 count and then whole arrays:
    //   UNIO  count | (node, entries_start, entries_len) u32×3 per union
    //   ENTR  count | values u64[count] | kids_starts u32[count]
    //   KIDS  count | u32[count]          SRTS  count | u32[count]
    // Every case asserts that its mutation changed the field it names, so a
    // layout change cannot turn a case into a silent no-op.
    let unio_payload = {
        use fdb::frep::snapshot::{read_sections, KIND_FREP};
        let sections = read_sections(&bytes, KIND_FREP).unwrap();
        sections
            .iter()
            .find(|(tag, _)| *tag == TAG_UNIO)
            .map(|(_, p)| p.to_vec())
            .expect("UNIO section present")
    };
    let union_count = le_u64(&unio_payload, 0) as usize;
    assert_eq!(unio_payload.len(), 8 + union_count * 12);
    // The first entry of a union with at least two entries.
    let wide = (0..union_count)
        .map(|i| 8 + i * 12)
        .find(|&base| le_u32(&unio_payload, base + 8) >= 2)
        .map(|base| le_u32(&unio_payload, base + 4) as usize)
        .expect("some union has two entries");

    let cases: Vec<(&str, Vec<u8>)> = vec![
        (
            "out-of-order entry values",
            // Exchange the values of two adjacent entries of one union:
            // strictly-increasing order is violated with checksums intact.
            reframe_section(&bytes, TAG_ENTR, |payload| {
                let entry_count = le_u64(payload, 0) as usize;
                assert_eq!(payload.len(), 8 + entry_count * 12);
                let (a, b) = (8 + wide * 8, 8 + (wide + 1) * 8);
                let (first, second) = (le_u64(payload, a), le_u64(payload, b));
                assert!(first < second, "a valid union's values increase");
                for i in 0..8 {
                    payload.swap(a + i, b + i);
                }
                assert_eq!((le_u64(payload, a), le_u64(payload, b)), (second, first));
            }),
        ),
        (
            "topological order violation in a kid run",
            // Point a kid slot at union 0: a kid's union index must exceed
            // its parent's, so index 0 can never be a valid kid.
            reframe_section(&bytes, TAG_KIDS, |payload| {
                assert_eq!(payload.len(), 8 + le_u64(payload, 0) as usize * 4);
                let pos = (8..payload.len())
                    .step_by(4)
                    .find(|&p| le_u32(payload, p) != MISSING_KID)
                    .expect("a present kid slot exists");
                assert_ne!(le_u32(payload, pos), 0, "no valid kid is union 0");
                payload[pos..pos + 4].copy_from_slice(&0u32.to_le_bytes());
            }),
        ),
        (
            "unreachable unions after dropping a root",
            reframe_section(&bytes, TAG_SRTS, |payload| {
                let count = le_u64(payload, 0);
                assert!(count >= 1, "the representation has a root");
                assert_eq!(payload.len() as u64, 8 + count * 4);
                payload[0..8].copy_from_slice(&(count - 1).to_le_bytes());
                payload.truncate(payload.len() - 4);
                // Still exactly `8 + count × 4`: the validator, not the
                // length check, has to refuse it.
                assert_eq!(payload.len() as u64, 8 + le_u64(payload, 0) * 4);
            }),
        ),
        (
            "union labelled by a node the tree does not have",
            reframe_section(&bytes, TAG_UNIO, |payload| {
                assert!(le_u32(payload, 8) < 9_999, "union 0's node is a real one");
                payload[8..12].copy_from_slice(&9_999u32.to_le_bytes());
            }),
        ),
    ];

    for (context, corrupted) in cases {
        match decode_frep_ctx(&corrupted, &ExecCtx::unlimited()) {
            Err(FdbError::SnapshotCorrupt { detail }) => assert!(
                detail.contains("structural validation failed"),
                "{context}: refused before the validator: {detail}"
            ),
            other => {
                panic!("{context}: the snapshot validator must reject the arena, got {other:?}")
            }
        }
    }
}

/// The snapshot differential: `decode(encode(rep))` is store-identical,
/// carries the layout fact the arena has, re-encodes byte-identically, and
/// every array in the file starts at an offset divisible by 8.
fn check_snapshot_round_trip(rep: &FRep, context: &str) {
    use fdb::frep::snapshot::{read_sections, KIND_FREP};
    use fdb::frep::{decode_frep_ctx, encode_frep_ctx};

    let bytes = encode_frep_ctx(rep, &ExecCtx::unlimited()).unwrap();
    let loaded =
        decode_frep_ctx(&bytes, &ExecCtx::unlimited()).unwrap_or_else(|e| panic!("{context}: {e}"));
    loaded
        .validate()
        .unwrap_or_else(|e| panic!("{context}: loaded rep invalid: {e:?}"));
    assert!(
        loaded.store_identical(rep),
        "{context}: snapshot round trip must be store-identical"
    );
    assert_recorded_counts(&loaded, context);
    assert_eq!(loaded.counts(), rep.counts(), "{context}: counts survive");
    assert_eq!(
        encode_frep_ctx(&loaded, &ExecCtx::unlimited()).unwrap(),
        bytes,
        "{context}: re-encoding is byte-identical"
    );

    // The layout fact is not in the file: the decoder re-derives it.  Its
    // definition is the oracle — the arena is the freeze of its own forest.
    let refrozen = FRep::from_parts(rep.tree().clone(), rep.to_forest()).expect("a valid forest");
    assert_eq!(
        loaded.dump_store().contains("freeze_layout: true"),
        refrozen.store_identical(rep),
        "{context}: the decoded layout fact"
    );

    let sections = read_sections(&bytes, KIND_FREP).unwrap();
    assert_eq!(sections.len(), 7, "{context}");
    for (tag, payload) in sections {
        let offset = payload.as_ptr() as usize - bytes.as_ptr() as usize;
        assert_eq!(offset % 8, 0, "{context}: payload of {tag:#010x}");
        if tag == u32::from_le_bytes(*b"ENTR") {
            // count | values | kids_starts: the second array's offset.
            let count = le_u64(payload, 0) as usize;
            assert_eq!(payload.len(), 8 + 8 * count + 4 * count, "{context}");
            assert_eq!((offset + 8 + 8 * count) % 8, 0, "{context}: kids_starts");
        }
    }
}

#[test]
fn randomized_representations_round_trip_through_snapshots() {
    for seed in 0..12u64 {
        let mut rng = StdRng::seed_from_u64(0x005A_AB5E ^ seed);
        let relations = 1 + (seed as usize % 3);
        let attributes = relations + 2 + (seed as usize % 3);
        let catalog = random_schema(&mut rng, relations, attributes);
        let rels: Vec<RelId> = catalog.rels().collect();
        let db = populate(&mut rng, &catalog, 25, 6, ValueDistribution::Uniform);
        let query = random_query(&mut rng, &catalog, &rels, (seed as usize) % 3);
        let rep = FdbEngine::new()
            .evaluate_flat(&db, &query)
            .expect("FDB evaluates")
            .result;
        check_snapshot_round_trip(&rep, &format!("seed {seed}"));
    }

    // A `build_frep` result outside the freeze layout (entry blocks land
    // after their descendants'), its freeze, a multi-root forest, and ∅.
    let g = grocery_database();
    let built = FdbEngine::new()
        .evaluate_flat(&g.db, &g.q1())
        .expect("FDB evaluates")
        .result;
    let frozen = FRep::from_parts(built.tree().clone(), built.to_forest()).unwrap();
    assert!(
        !frozen.store_identical(&built),
        "the build result is not in the freeze layout"
    );
    check_snapshot_round_trip(&built, "build_frep result");
    check_snapshot_round_trip(&frozen, "frozen build result");

    let mut other_tree = FTree::new(vec![DepEdge::new("Z", [AttrId(900)].into(), 2)]);
    let z = other_tree.add_node([AttrId(900)].into(), None).unwrap();
    let leaves = vec![Entry::leaf(Value::new(4)), Entry::leaf(Value::new(7))];
    let other = FRep::from_parts(other_tree, vec![Union::new(z, leaves)]).unwrap();
    let forest = ops::product(frozen.clone(), other).expect("disjoint attributes");
    assert!(forest.roots().len() >= 2, "a multi-root forest");
    check_snapshot_round_trip(&forest, "multi-root forest");

    let empty = FRep::empty(built.tree().clone());
    assert!(empty.represents_empty());
    check_snapshot_round_trip(&empty, "empty representation");
}
