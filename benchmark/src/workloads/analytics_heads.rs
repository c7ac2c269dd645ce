//! `analytics_heads` — ORDER BY, GROUP BY and DISTINCT heads on PR 9's
//! `path`, `nested` and `fork` representations behind one server.
//!
//! *Why it exists:* it is output-bound — one `nested` ORDER BY emits 98 304
//! rows from a 1 500-tuple arena — so `fdb-frep`'s enumeration and
//! aggregation and `fdb-plan`'s chain planner carry the request, and
//! overlay emission is small.  It keeps the two losing rows of
//! `BENCH_PR9.json` (`path_group_by_pair` 0.345×, `path_order_by_mid`
//! 0.751×) under a standing watch.
//!
//! 400 ops, 40 of each of ten templates: ORDER BY on each shape (chain,
//! chain, refused-lift flat sort), GROUP BY mid / mid / pair / far branch,
//! and selection + SUM, selection + COUNT(DISTINCT), selection + AVG …
//! GROUP BY.  The shapes are fixed; `--seed` draws the selection constants
//! and the op order.

use crate::oracle::FlatProduct;
use crate::workloads::mix::{apportion, mixed_ops};
use crate::workloads::serve::{OracleInputs, ServeWorkload};
use crate::workloads::shapes::{fork_shape, nested_heads_shape, path_shape, HeadDims, HeadShape};
use fdb_common::{AggregateFunc, AggregateHead, ComparisonOp, ConstSelection, Value};
use fdb_core::{FactorisedQuery, ServeRequest, SharedDatabase};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Number of request templates.
const TEMPLATES: usize = 10;

/// PR 9's full dimensions.
const FULL: HeadDims = HeadDims {
    outer: 32,
    mid: 12,
    inner: 4,
    branch: 8,
};

/// `--smoke` dimensions.
const SMOKE: HeadDims = HeadDims {
    outer: 4,
    mid: 3,
    inner: 2,
    branch: 3,
};

/// Builds the workload: three shapes behind one server, warm cache.
pub fn build(seed: u64, smoke: bool) -> ServeWorkload {
    let (d, ops) = if smoke { (SMOKE, 20) } else { (FULL, 400) };
    let shapes = [path_shape(d), nested_heads_shape(d), fork_shape(d)];
    let mut db = SharedDatabase::new();
    let ids: Vec<_> = ["path", "nested", "fork"]
        .into_iter()
        .zip(&shapes)
        .map(|(name, shape)| db.insert(name, shape.rep.clone()).expect("fresh database"))
        .collect();
    let (path, nested, fork) = (ids[0], ids[1], ids[2]);
    let [p, n, f] = &shapes;
    let far = f.e.expect("the fork has a far branch");

    let body = FactorisedQuery::default;
    let from = |shape: &HeadShape, c: u64| {
        body().with_const_selection(ConstSelection {
            attr: shape.a,
            op: ComparisonOp::Ge,
            value: Value::new(c),
        })
    };
    let count_by = |attrs: &[fdb_common::AttrId]| {
        attrs
            .iter()
            .fold(AggregateHead::count(), |head, &g| head.grouped_by(g))
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let requests: Vec<ServeRequest> =
        mixed_ops(&mut rng, &apportion(ops, &[1.0; TEMPLATES]), d.outer)
            .into_iter()
            .map(|(template, c)| match template {
                // ORDER BY: a chain lift on a large output, a chain lift on an
                // output no larger than its arena, and a refused lift.
                0 => ServeRequest::new(nested, body(), None).with_order_by(vec![n.b]),
                1 => ServeRequest::new(path, body(), None).with_order_by(vec![p.b]),
                2 => ServeRequest::new(fork, body(), None).with_order_by(vec![far]),
                // GROUP BY: mid attribute (two shapes), a two-attribute path
                // group, and the far branch (hash-group fallback).
                3 => ServeRequest::new(nested, body(), Some(count_by(&[n.b]))),
                4 => ServeRequest::new(path, body(), Some(count_by(&[p.b]))),
                5 => ServeRequest::new(path, body(), Some(count_by(&[p.b, p.c]))),
                6 => ServeRequest::new(fork, body(), Some(count_by(&[far]))),
                // Selection, then a scalar, DISTINCT and grouped head.
                7 => ServeRequest::new(
                    path,
                    from(p, c),
                    Some(AggregateHead::over(AggregateFunc::Sum, p.c)),
                ),
                8 => ServeRequest::new(
                    nested,
                    from(n, c),
                    Some(AggregateHead::over(AggregateFunc::Count, n.b).with_distinct()),
                ),
                9 => ServeRequest::new(
                    fork,
                    from(f, c),
                    Some(AggregateHead::over(AggregateFunc::Avg, f.c).grouped_by(f.a)),
                ),
                _ => unreachable!("template index out of range"),
            })
            .collect();

    // The oracle needs the flat parts only, not the representations.
    let parts: Vec<_> = ids
        .into_iter()
        .zip(shapes)
        .map(|(id, shape)| (id, shape.flat, shape.join))
        .collect();
    let oracle = OracleInputs::new(move || {
        parts
            .into_iter()
            .map(|(id, flat, join)| {
                let mut flat = FlatProduct::new(flat);
                if let Some((a, b)) = join {
                    flat.select_eq(a, b).expect("join attributes exist");
                }
                (id, flat)
            })
            .collect()
    });
    let workload = ServeWorkload::new(db, requests, oracle, false);
    workload.warm_up();
    workload
}
