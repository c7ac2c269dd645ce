//! Ordered-evaluation and analytics-head equivalence.
//!
//! The 2013 follow-up paper's heads must be **bit-for-bit** equal to flat
//! oracles that share nothing with the factorised evaluators:
//!
//! 1. `ORDER BY` — an ordering head through `FdbEngine::run` (restructure-to-root when
//!    the costed planner accepts it, flat sort otherwise) against
//!    materialise-then-sort over the engine's own unordered result, on
//!    randomized databases and queries, and served through `FdbServer`
//!    pools of 1/2/4/8 workers;
//! 2. `DISTINCT` aggregates — the factorised value-set fold against a
//!    hash-set built from the enumerated tuples;
//! 3. multi-attribute `GROUP BY` — the keyed factorised fold, on attributes
//!    wherever the optimiser's tree puts them, against plain-iterator
//!    grouping over the enumerated tuples.
//!
//! Both ordering strategies produce the same canonical total order, so the
//! suite also asserts the *strategy split is real*: across the random sweep
//! both `Chain` and `FlatSort` decisions must occur.
//!
//! 4. The ordered cursor's **layout rule** — sort-free emission when the
//!    slots can follow ascending smallest-visible-attribute order, a run
//!    sort otherwise — on hand-rolled forests whose attribute ids are
//!    unrelated to tree position.

mod common;

use fdb::common::{AggregateFunc, AggregateHead, ComparisonOp, ConstSelection, ExecCtx, RelId};
use fdb::datagen::{populate, random_query, random_schema, ValueDistribution};
use fdb::engine::{
    FactorisedQuery, FdbEngine, FdbServer, ServeOutcome, ServeRequest, SharedDatabase,
};
use fdb::frep::aggregate::{self, AggregateKind, AggregateResult, AggregateValue, AvgValue};
use fdb::frep::{materialize, materialize_ordered_ctx, Entry, FRep, OrderStrategy, Union};
use fdb::ftree::{DepEdge, FTree, NodeId};
use fdb::{AttrId, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// A random factorised result to evaluate heads against (same construction
/// as `concurrent_equivalence.rs`).
fn random_rep(rng: &mut StdRng, seed: u64) -> FRep {
    let relations = 1 + (seed as usize % 3);
    let attributes = relations + 2 + (seed as usize % 3);
    let catalog = random_schema(rng, relations, attributes);
    let rels: Vec<RelId> = catalog.rels().collect();
    let distribution = if seed.is_multiple_of(2) {
        ValueDistribution::Uniform
    } else {
        ValueDistribution::Zipf(1.0)
    };
    let db = populate(rng, &catalog, 25, 6, distribution);
    let k = (seed as usize) % attributes.min(3);
    let query = random_query(rng, &catalog, &rels, k);
    FdbEngine::new()
        .evaluate_flat(&db, &query)
        .expect("FDB evaluates")
        .result
}

/// A random query body over the representation's visible attributes:
/// selections (occasionally unsatisfiable) and sometimes an equality.  No
/// projection — the heads under test pick their own attributes.
fn random_body(rng: &mut StdRng, rep: &FRep) -> FactorisedQuery {
    let attrs = rep.visible_attrs();
    let mut query = FactorisedQuery::default();
    if attrs.is_empty() {
        return query;
    }
    let pick = |rng: &mut StdRng| attrs[rng.gen_range(0..attrs.len())];
    for _ in 0..rng.gen_range(0..2usize) {
        let op = [ComparisonOp::Ge, ComparisonOp::Le, ComparisonOp::Ne][rng.gen_range(0..3usize)];
        let value = if rng.gen_bool(0.1) {
            99
        } else {
            rng.gen_range(1..=6u64)
        };
        query = query.with_const_selection(ConstSelection {
            attr: pick(rng),
            op,
            value: Value::new(value),
        });
    }
    if attrs.len() >= 2 && rng.gen_bool(0.3) {
        let (a, b) = (pick(rng), pick(rng));
        if a != b {
            query.equalities.push((a, b));
        }
    }
    query
}

/// A random non-empty ordering head: a permuted prefix of the visible
/// attributes.
fn random_order_by(rng: &mut StdRng, rep: &FRep) -> Vec<AttrId> {
    let mut attrs = rep.visible_attrs();
    for i in (1..attrs.len()).rev() {
        attrs.swap(i, rng.gen_range(0..=i));
    }
    let len = rng.gen_range(1..=attrs.len().min(3));
    attrs.truncate(len);
    attrs
}

// ---------------------------------------------------------------------
// 1. ORDER BY vs materialise-then-sort, serial and served
// ---------------------------------------------------------------------

#[test]
fn randomized_ordered_evaluation_matches_the_sort_oracle() {
    let mut strategies = BTreeSet::new();
    for seed in 0..24u64 {
        let mut rng = StdRng::seed_from_u64(0x0DE2_2013 ^ seed);
        let rep = random_rep(&mut rng, seed);
        if rep.visible_attrs().is_empty() {
            continue;
        }
        let engine = FdbEngine::new();
        let body = random_body(&mut rng, &rep);
        let order_by = random_order_by(&mut rng, &rep);

        let ordered = common::ordered_serial(&engine, &rep, &body, &order_by)
            .unwrap_or_else(|e| panic!("seed {seed}: ordered evaluation failed: {e:?}"));
        strategies.insert(format!("{:?}", ordered.strategy));

        // The oracle sorts the *unordered* engine result, so it exercises
        // none of the chain planner, the swaps or the priority cursor.
        let unordered = engine.evaluate_factorised(&rep, &body).unwrap();
        let oracle = common::materialize_then_sort(&unordered.result, &order_by).unwrap();
        assert_eq!(
            ordered.rows, oracle,
            "seed {seed}: ORDER BY {order_by:?} diverged ({:?})",
            ordered.strategy
        );

        // Exactly one strategy counter fired, matching the decision.
        let (chain, flat) = (ordered.stats.chain_heads, ordered.stats.flat_head_fallbacks);
        match ordered.strategy {
            OrderStrategy::Chain => assert_eq!((chain, flat), (1, 0)),
            OrderStrategy::FlatSort => assert_eq!((chain, flat), (0, 1)),
        }
    }
    assert!(
        strategies.len() == 2,
        "the sweep must exercise both Chain and FlatSort, saw {strategies:?}"
    );
}

#[test]
fn ordered_serving_is_identical_across_pool_sizes() {
    let mut rng = StdRng::seed_from_u64(0x0DE2_2014);
    let engine = FdbEngine::new();
    let mut shared = SharedDatabase::new();
    let mut reps = Vec::new();
    for r in 0..3u64 {
        let rep = random_rep(&mut rng, 7 + r);
        let id = shared
            .insert(format!("rep{r}"), rep.clone())
            .expect("unique name");
        reps.push((id, rep));
    }
    let db = Arc::new(shared);

    let requests: Vec<ServeRequest> = (0..24)
        .map(|i| {
            let (id, rep) = &reps[i % reps.len()];
            let body = random_body(&mut rng, rep);
            let order_by = random_order_by(&mut rng, rep);
            ServeRequest::new(*id, body, None).with_order_by(order_by)
        })
        .collect();

    for workers in [1usize, 2, 4, 8] {
        let server = FdbServer::new(engine, Arc::clone(&db), workers);
        let outcomes = server.serve_batch(requests.clone());
        assert_eq!(outcomes.len(), requests.len());
        for (i, (request, outcome)) in requests.iter().zip(&outcomes).enumerate() {
            let rep = db.get(request.rep).expect("registered representation");
            let serial =
                common::ordered_serial(&engine, &rep, &request.query, &request.order_by).unwrap();
            match outcome.as_ref().unwrap() {
                ServeOutcome::Ordered(got) => {
                    assert_eq!(
                        got.rows, serial.rows,
                        "request {i} rows diverged at {workers} workers"
                    );
                    assert_eq!(
                        got.strategy, serial.strategy,
                        "request {i} strategy diverged at {workers} workers"
                    );
                }
                other => panic!("request {i}: expected Ordered, got {other:?}"),
            }
        }
        assert_eq!(server.queries_served(), requests.len() as u64);
    }
}

#[test]
fn a_request_cannot_order_an_aggregate() {
    let mut rng = StdRng::seed_from_u64(0x0DE2_2015);
    let rep = random_rep(&mut rng, 2);
    let attr = rep.visible_attrs()[0];
    let mut shared = SharedDatabase::new();
    let id = shared.insert("base", rep).expect("unique name");
    let server = FdbServer::new(FdbEngine::new(), Arc::new(shared), 2);
    let request = ServeRequest::new(id, FactorisedQuery::default(), Some(AggregateHead::count()))
        .with_order_by(vec![attr]);
    assert!(
        server.serve_one(&request).is_err(),
        "aggregate + ORDER BY must be a structured error"
    );
}

// ---------------------------------------------------------------------
// 4. The layout rule, on forests built to land on both of its sides
// ---------------------------------------------------------------------

/// A random forest of 2–6 nodes whose classes draw one or two ids from a
/// shuffled pool — so children land below and above their parents, classes
/// interleave, and roots sit on both sides of any chain — with random
/// attributes projected away (sometimes a whole class) and random data
/// under every entry.  Values come from `1..=4`, so ties are everywhere.
fn random_layout_rep(rng: &mut StdRng) -> FRep {
    let nodes = rng.gen_range(2..=6usize);
    let mut pool: Vec<u32> = (0..2 * nodes as u32).collect();
    for i in (1..pool.len()).rev() {
        pool.swap(i, rng.gen_range(0..=i));
    }
    let classes: Vec<BTreeSet<AttrId>> = (0..nodes)
        .map(|_| {
            let size = if rng.gen_bool(0.3) { 2 } else { 1 };
            (0..size).filter_map(|_| pool.pop()).map(AttrId).collect()
        })
        .collect();
    let parents: Vec<Option<usize>> = (0..nodes)
        .map(|i| (i > 0 && rng.gen_bool(0.7)).then(|| rng.gen_range(0..i)))
        .collect();

    // One dependency edge per root-to-leaf path keeps the path constraint.
    let edges = (0..nodes)
        .filter(|&i| !parents.contains(&Some(i)))
        .map(|leaf| {
            let mut on_path = classes[leaf].clone();
            let mut at = leaf;
            while let Some(p) = parents[at] {
                on_path.extend(&classes[p]);
                at = p;
            }
            DepEdge::new(format!("R{leaf}"), on_path, 1)
        })
        .collect();
    let mut tree = FTree::new(edges);
    let mut ids: Vec<NodeId> = Vec::new();
    for (class, parent) in classes.iter().zip(&parents) {
        let id = tree
            .add_node(class.clone(), parent.map(|p| ids[p]))
            .expect("fresh class");
        ids.push(id);
    }
    let hidden: BTreeSet<AttrId> = classes
        .iter()
        .flatten()
        .copied()
        .filter(|_| rng.gen_bool(0.15))
        .collect();
    tree.mark_attrs_projected(&hidden);

    fn random_union(rng: &mut StdRng, tree: &FTree, node: NodeId) -> Union {
        let values: BTreeSet<u64> = (0..rng.gen_range(1..=3usize))
            .map(|_| rng.gen_range(1..=4u64))
            .collect();
        let entries = values
            .into_iter()
            .map(|v| Entry {
                value: Value::new(v),
                children: tree
                    .children(node)
                    .iter()
                    .map(|&c| random_union(rng, tree, c))
                    .collect(),
            })
            .collect();
        Union::new(node, entries)
    }
    let roots: Vec<NodeId> = tree.roots().to_vec();
    let unions = roots
        .into_iter()
        .map(|root| random_union(rng, &tree, root))
        .collect();
    FRep::from_parts(tree, unions).expect("a valid forest")
}

/// ORDER BY lists for `rep`: every root path taken one visible attribute
/// per node (multi-attribute chains), the same with a class's second
/// attribute or a repeated attribute spliced in, and a shuffled prefix of
/// the visible attributes (mostly no chain at all).
fn layout_order_bys(rng: &mut StdRng, rep: &FRep) -> Vec<Vec<AttrId>> {
    let tree = rep.tree();
    let mut orders = vec![random_order_by(rng, rep)];
    for &root in tree.roots() {
        let mut order: Vec<AttrId> = Vec::new();
        let mut node = Some(root);
        while let Some(n) = node {
            let visible: Vec<AttrId> = tree.visible_attrs(n).into_iter().collect();
            if visible.is_empty() {
                break;
            }
            order.push(visible[rng.gen_range(0..visible.len())]);
            if rng.gen_bool(0.3) {
                // The class's other attribute, or the same one again.
                order.push(visible[rng.gen_range(0..visible.len())]);
            }
            orders.push(order.clone());
            let children = tree.children(n);
            node = (!children.is_empty()).then(|| children[rng.gen_range(0..children.len())]);
        }
    }
    orders
}

#[test]
fn randomized_layouts_match_the_sort_oracle_sequentially() {
    let mut strategies = BTreeSet::new();
    for seed in 24..224u64 {
        let mut rng = StdRng::seed_from_u64(0x1A_7007 ^ seed);
        let rep = random_layout_rep(&mut rng);
        if rep.visible_attrs().is_empty() {
            continue;
        }
        for order_by in layout_order_bys(&mut rng, &rep) {
            let oracle = common::materialize_then_sort(&rep, &order_by).unwrap();
            let (rows, strategy) =
                materialize_ordered_ctx(&rep, &order_by, &ExecCtx::unlimited()).unwrap();
            assert_eq!(
                rows, oracle,
                "seed {seed}: ORDER BY {order_by:?} diverged ({strategy:?})"
            );
            strategies.insert(format!("{strategy:?}"));
        }
    }
    assert!(
        strategies.len() == 2,
        "the sweep must exercise both Chain and FlatSort, saw {strategies:?}"
    );
}

// ---------------------------------------------------------------------
// 2. DISTINCT aggregates vs a hash-set oracle
// ---------------------------------------------------------------------

/// Builds the set of distinct values of `attr` in the enumerated tuples —
/// plain iterators and a set, nothing factorised.
fn distinct_values(rep: &FRep, attr: AttrId) -> BTreeSet<u64> {
    let rel = materialize(rep).expect("oracle enumerates");
    let col = rel
        .attrs()
        .iter()
        .position(|&a| a == attr)
        .expect("attribute is visible");
    rel.rows().map(|row| row[col].raw()).collect()
}

#[test]
fn distinct_aggregates_match_the_hash_set_oracle() {
    for seed in 0..12u64 {
        let mut rng = StdRng::seed_from_u64(0x0D15_71C7 ^ seed);
        let rep = random_rep(&mut rng, seed);
        for attr in rep.visible_attrs() {
            let values = distinct_values(&rep, attr);
            let count = values.len() as u128;
            let sum: u128 = values.iter().map(|&v| u128::from(v)).sum();

            let got = aggregate::evaluate_ctx(
                &rep,
                AggregateKind::CountDistinct(attr),
                &[],
                &ExecCtx::unlimited(),
            )
            .unwrap();
            assert_eq!(
                got,
                AggregateResult::Scalar(AggregateValue::Count(count)),
                "seed {seed}: COUNT(DISTINCT {attr})"
            );
            let got = aggregate::evaluate_ctx(
                &rep,
                AggregateKind::SumDistinct(attr),
                &[],
                &ExecCtx::unlimited(),
            )
            .unwrap();
            assert_eq!(
                got,
                AggregateResult::Scalar(AggregateValue::Sum(sum)),
                "seed {seed}: SUM(DISTINCT {attr})"
            );
            let got = aggregate::evaluate_ctx(
                &rep,
                AggregateKind::AvgDistinct(attr),
                &[],
                &ExecCtx::unlimited(),
            )
            .unwrap();
            let want = (count > 0).then_some(AvgValue { sum, count });
            assert_eq!(
                got,
                AggregateResult::Scalar(AggregateValue::Avg(want)),
                "seed {seed}: AVG(DISTINCT {attr})"
            );
        }
    }
}

#[test]
fn distinct_heads_run_end_to_end_through_the_engine() {
    let mut rng = StdRng::seed_from_u64(0x0D15_71C8);
    let engine = FdbEngine::new();
    for seed in 0..6u64 {
        let rep = random_rep(&mut rng, seed);
        if rep.visible_attrs().is_empty() {
            continue;
        }
        let attr = rep.visible_attrs()[0];
        let body = FactorisedQuery::default();
        let head = AggregateHead::over(AggregateFunc::Count, attr).with_distinct();
        let out = common::aggregate_serial(&engine, &rep, &body, &head).unwrap();
        let values = distinct_values(&rep, attr);
        assert_eq!(
            out.result,
            AggregateResult::Scalar(AggregateValue::Count(values.len() as u128)),
            "seed {seed}: engine COUNT(DISTINCT) head"
        );
    }
    // DISTINCT MIN/MAX is rejected (multiplicity-insensitive), as is
    // DISTINCT without an attribute.
    let rep = random_rep(&mut rng, 2);
    let attr = rep.visible_attrs()[0];
    for func in [AggregateFunc::Min, AggregateFunc::Max] {
        let head = AggregateHead::over(func, attr).with_distinct();
        assert!(
            common::aggregate_serial(&engine, &rep, &FactorisedQuery::default(), &head).is_err(),
            "{func:?} DISTINCT must be rejected"
        );
    }
    assert!(common::aggregate_serial(
        &engine,
        &rep,
        &FactorisedQuery::default(),
        &AggregateHead::count().with_distinct(),
    )
    .is_err());
}

// ---------------------------------------------------------------------
// 3. Path / non-root GROUP BY vs plain-iterator grouping
// ---------------------------------------------------------------------

/// Plain-iterator `GROUP BY ... COUNT(*)` over the enumerated tuples.
fn hash_group_count(rep: &FRep, group_by: &[AttrId]) -> Vec<(Vec<Value>, AggregateValue)> {
    let rel = materialize(rep).expect("oracle enumerates");
    let cols: Vec<usize> = group_by
        .iter()
        .map(|g| rel.attrs().iter().position(|a| a == g).expect("visible"))
        .collect();
    let mut groups: BTreeMap<Vec<Value>, u128> = BTreeMap::new();
    for row in rel.rows() {
        let key: Vec<Value> = cols.iter().map(|&c| row[c]).collect();
        *groups.entry(key).or_insert(0) += 1;
    }
    groups
        .into_iter()
        .map(|(k, n)| (k, AggregateValue::Count(n)))
        .collect()
}

#[test]
fn multi_attribute_group_by_matches_plain_iterator_grouping() {
    for seed in 0..16u64 {
        let mut rng = StdRng::seed_from_u64(0x62B7_2013 ^ seed);
        let rep = random_rep(&mut rng, seed);
        let attrs = rep.visible_attrs();
        if attrs.len() < 2 {
            continue;
        }
        let engine = FdbEngine::new();
        // Group on a random pair — wherever the optimiser's tree puts those
        // nodes, the keyed fold must match the oracle.
        let g1 = attrs[rng.gen_range(0..attrs.len())];
        let g2 = attrs[rng.gen_range(0..attrs.len())];
        let group_by: Vec<AttrId> = if g1 == g2 { vec![g1] } else { vec![g1, g2] };

        let mut head = AggregateHead::count();
        for &g in &group_by {
            head = head.grouped_by(g);
        }
        let body = random_body(&mut rng, &rep);
        let out = common::aggregate_serial(&engine, &rep, &body, &head)
            .unwrap_or_else(|e| panic!("seed {seed}: grouped head failed: {e:?}"));

        let evaluated = engine.evaluate_factorised(&rep, &body).unwrap();
        let oracle = hash_group_count(&evaluated.result, &group_by);
        assert_eq!(
            out.result,
            AggregateResult::Groups(oracle),
            "seed {seed}: GROUP BY {group_by:?}"
        );
    }
}

#[test]
fn grouping_anywhere_matches_the_oracle_without_chain_or_fallback() {
    // Grouped heads on any attribute run as one keyed fold: neither head
    // counter fires, and every result equals the enumeration oracle.
    for seed in 0..20u64 {
        let mut rng = StdRng::seed_from_u64(0x62B7_2014 ^ seed);
        let rep = random_rep(&mut rng, seed);
        let attrs = rep.visible_attrs();
        if attrs.is_empty() {
            continue;
        }
        let g = attrs[rng.gen_range(0..attrs.len())];
        let out = common::aggregate_serial(
            &FdbEngine::new(),
            &rep,
            &FactorisedQuery::default(),
            &AggregateHead::count().grouped_by(g),
        )
        .unwrap();
        assert_eq!(
            out.result,
            AggregateResult::Groups(hash_group_count(&rep, &[g])),
            "seed {seed}: GROUP BY {g}"
        );
        assert_eq!(
            (out.stats.chain_heads, out.stats.flat_head_fallbacks),
            (0, 0),
            "seed {seed}: GROUP BY {g}"
        );
    }
}
