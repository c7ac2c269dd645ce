//! Size-bound tests: factorised representations respect the `O(|D|^{s(T)})`
//! bound of the paper, and factorisation beats flat representation by the
//! expected margins on the paper's characteristic workloads.

use fdb::common::{AttrId, Query, RelId};
use fdb::datagen::{populate, random_schema, ValueDistribution};
use fdb::engine::FdbEngine;
use fdb::ftree::{s_cost, DepEdge, FTree};
use fdb::plan::optimal_ftree;
use fdb::relation::RdbEngine;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A product of independent relations factorises to the *sum* of the input
/// sizes while its flat representation is their product (the introduction's
/// motivating example: exponential gap in the number of relations).
#[test]
fn product_queries_factorise_to_linear_size() {
    let mut rng = StdRng::seed_from_u64(99);
    for relations in 2..=4usize {
        let catalog = random_schema(&mut rng, relations, relations);
        let rels: Vec<RelId> = catalog.rels().collect();
        let db = populate(&mut rng, &catalog, 20, 1_000, ValueDistribution::Uniform);
        let query = Query::product(rels);
        let out = FdbEngine::new().evaluate_flat(&db, &query).unwrap();
        // Factorised: Σ |R_i| singletons.  Flat: Π |R_i| tuples × arity.
        assert_eq!(out.stats.result_size, 20 * relations);
        assert_eq!(out.stats.result_tuples, 20u128.pow(relations as u32));
        assert!((out.stats.plan_cost - 1.0).abs() < 1e-6);
    }
}

/// The size of the factorised result is bounded by `|D|^{s(T)}` (up to the
/// number of attributes as a constant factor), and `s(T)` computed for the
/// chosen tree matches the optimiser's reported cost.
#[test]
fn factorised_sizes_respect_the_s_bound() {
    let mut rng = StdRng::seed_from_u64(123);
    for seed in 0..8u64 {
        let catalog = random_schema(&mut rng, 3, 6 + (seed as usize % 3));
        let rels: Vec<RelId> = catalog.rels().collect();
        let db = populate(&mut rng, &catalog, 60, 10, ValueDistribution::Uniform);
        let query = fdb::datagen::random_query(&mut rng, &catalog, &rels, 2);
        let search = optimal_ftree(&catalog, &query, |r| db.rel_len(r) as u64).unwrap();
        let out = FdbEngine::new().evaluate_flat(&db, &query).unwrap();
        assert!((s_cost(out.result.tree()).unwrap() - search.cost).abs() < 1e-6);
        assert!((search.cost - out.stats.plan_cost).abs() < 1e-6);

        let d = db.total_data_elements() as f64;
        let attrs = catalog.attrs().count() as f64;
        let bound = attrs * d.powf(search.cost);
        assert!(
            (out.stats.result_size as f64) <= bound + 1e-6,
            "seed {seed}: size {} exceeds A·|D|^s = {bound}",
            out.stats.result_size
        );
    }
}

/// The chain-join family of Example 6: a chain of n relations factorises in
/// polynomial size although the flat result grows much faster; the optimal
/// cost for a 4-chain is 2 while the flat result already needs 4 columns ×
/// up to |R|² tuples.
#[test]
fn chain_joins_show_the_exponential_gap() {
    let mut catalog = fdb::common::Catalog::new();
    let mut rels = Vec::new();
    for i in 0..4 {
        let (r, _) = catalog.add_relation(&format!("R{i}"), &["A", "B"]);
        rels.push(r);
    }
    // Bipartite-clique data: every relation pairs all of 1..=m with 1..=m,
    // the worst case for flat joins and the best case for factorisation.
    let m = 12u64;
    let mut db = fdb::relation::Database::new(catalog.clone());
    for &r in &rels {
        let rows: Vec<Vec<u64>> = (1..=m)
            .flat_map(|a| (1..=m).map(move |b| vec![a, b]))
            .collect();
        db.insert_raw_rows(r, &rows).unwrap();
    }
    let attr = |i: usize, name: &str| catalog.find_attr(&format!("R{i}.{name}")).unwrap();
    let query = Query::product(rels)
        .with_equality(attr(0, "B"), attr(1, "A"))
        .with_equality(attr(1, "B"), attr(2, "A"))
        .with_equality(attr(2, "B"), attr(3, "A"));

    let out = FdbEngine::new().evaluate_flat(&db, &query).unwrap();
    let flat = RdbEngine::new().evaluate(&db, &query).unwrap();
    // Flat: m^5 tuples of 8 attributes.  Factorised: the optimiser guarantees
    // a cost-2 f-tree, i.e. O(|R|²) = O(m⁴) singletons — in practice far
    // fewer — while the flat representation needs 8·m⁵ data elements.
    assert_eq!(flat.len() as u128, (m as u128).pow(5));
    assert!((out.stats.plan_cost - 2.0).abs() < 1e-6);
    assert!(out.stats.result_size < 2 * (m as usize).pow(4));
    assert!(
        (flat.data_element_count() as f64) / (out.stats.result_size as f64) > 50.0,
        "factorisation must win by well over an order of magnitude on chain joins"
    );
}

/// A query of 68 classes, the triangle's past the 64 a word of classes
/// holds: 67 unary relations `U0..U66` with `U0 = U1` and `U2 = U3` joined,
/// beside the triangle `R(A,B)`, `S(B,C)`, `T(C,A)`.  The search must find
/// the triangle's `s(T)` of 1.5, and the flat evaluation must return the
/// product of the triangle's result with a two-value root per unary class.
#[test]
fn queries_with_more_than_64_classes_are_searched_and_evaluated() {
    let mut catalog = fdb::common::Catalog::new();
    let unary: Vec<RelId> = (0..67)
        .map(|i| catalog.add_relation(&format!("U{i}"), &["A"]).0)
        .collect();
    let triangle: Vec<RelId> = [("R", ["A", "B"]), ("S", ["B", "C"]), ("T", ["C", "A"])]
        .iter()
        .map(|(name, attrs)| catalog.add_relation(name, attrs).0)
        .collect();
    let join = |query: Query, joins: &[(&str, &str)]| {
        joins.iter().fold(query, |q, (a, b)| {
            q.with_equality(catalog.find_attr(a).unwrap(), catalog.find_attr(b).unwrap())
        })
    };
    let triangle_joins = [("R.A", "T.A"), ("R.B", "S.B"), ("S.C", "T.C")];
    let triangle_query = join(Query::product(triangle.clone()), &triangle_joins);
    let all = Query::product(unary.iter().chain(&triangle).copied().collect());
    let query = join(
        join(all, &triangle_joins),
        &[("U0.A", "U1.A"), ("U2.A", "U3.A")],
    );

    let search = optimal_ftree(&catalog, &query, |_| 1).unwrap();
    assert_eq!(search.tree.node_count(), 68);
    search.tree.check_path_constraint().unwrap();
    assert_eq!(search.cost, 1.5);
    assert_eq!(s_cost(&search.tree).unwrap(), 1.5);

    let mut db = fdb::relation::Database::new(catalog.clone());
    for &u in &unary {
        db.insert_raw_rows(u, &[vec![1], vec![2]]).unwrap();
    }
    for &r in &triangle {
        db.insert_raw_rows(r, &[vec![1, 1], vec![1, 2], vec![2, 1], vec![2, 2]])
            .unwrap();
    }
    let engine = FdbEngine::new();
    let out = engine.evaluate_flat(&db, &query).unwrap();
    let alone = engine.evaluate_flat(&db, &triangle_query).unwrap();
    out.result.tree().check_path_constraint().unwrap();
    assert_eq!(out.stats.plan_cost, 1.5);
    // A singleton per attribute and value: two for each unary attribute.
    assert_eq!(out.stats.result_size, alone.stats.result_size + 67 * 2);
    assert_eq!(out.stats.result_tuples, alone.stats.result_tuples << 65);
    assert_eq!(alone.stats.result_tuples, 8);
}

/// The fractional edge cover number — `s(T)` of a one-path f-tree whose
/// nodes are the instance's vertices and whose relations are its edges —
/// never exceeds the integral one on small instances, and an instance with a
/// vertex no edge covers has neither: the foundation the cost model rests on.
#[test]
fn fractional_cover_is_consistent_with_integral_cover() {
    let mut rng = StdRng::seed_from_u64(7);
    for _ in 0..50 {
        use rand::Rng;
        let vertices = rng.gen_range(1..7usize);
        let edges = rng.gen_range(1..6usize);
        // Each edge as the bitmask of the vertices it covers.
        let mut masks = Vec::new();
        for _ in 0..edges {
            let size = rng.gen_range(1..=vertices);
            let mut members: Vec<usize> = (0..vertices).collect();
            use rand::seq::SliceRandom;
            members.shuffle(&mut rng);
            masks.push(members.into_iter().take(size).fold(0u64, |m, v| m | 1 << v));
        }
        let fractional = s_cost(&one_path(vertices, &masks));
        let Some(int) = integral_edge_cover(&masks, (1 << vertices) - 1) else {
            assert_eq!(fractional.unwrap_err(), fdb::FdbError::InfeasibleProgram);
            continue;
        };
        let frac = fractional.unwrap();
        assert!(
            frac <= int as f64,
            "fractional {frac} must not exceed integral {int}"
        );
        assert!(frac >= 1.0, "non-empty instances need at least weight 1");
    }
}

/// A chain of one single-attribute node per vertex (attribute `v` for
/// vertex `v`), over one relation per edge mask.
fn one_path(vertices: usize, masks: &[u64]) -> FTree {
    let edges = masks.iter().enumerate().map(|(i, &mask)| {
        let attrs = (0..vertices as u32).filter(|&v| mask >> v & 1 != 0);
        DepEdge::new(format!("E{i}"), attrs.map(AttrId).collect(), 1)
    });
    let mut tree = FTree::new(edges.collect());
    let mut parent = None;
    for v in 0..vertices as u32 {
        parent = Some(tree.add_node([AttrId(v)].into(), parent).unwrap());
    }
    tree
}

/// The (integral) edge cover number of the vertices `full` by the edge
/// `masks`, by exhaustive search over edge subsets, smallest subsets first;
/// `None` if no cover exists.  Exponential in the number of edges: the
/// cross-check of the LP on tiny instances.
fn integral_edge_cover(masks: &[u64], full: u64) -> Option<usize> {
    (0..=masks.len()).find(|&size| search_cover(masks, full, 0, size, 0))
}

fn search_cover(masks: &[u64], full: u64, covered: u64, remaining: usize, start: usize) -> bool {
    if covered == full {
        return true;
    }
    if remaining == 0 || start >= masks.len() {
        return false;
    }
    for i in start..masks.len() {
        if search_cover(masks, full, covered | masks[i], remaining - 1, i + 1) {
            return true;
        }
    }
    false
}
