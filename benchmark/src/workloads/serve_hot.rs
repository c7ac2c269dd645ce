//! `serve_hot` — the steady-state serving path: `FdbServer::serve_one` /
//! `serve_batch` over a Zipf mix of ten request shapes with the plan cache
//! warm (hit ratio ≈ 1).
//!
//! *Why it exists:* fused overlay execution, the aggregate sink, the result
//! statistics and the input clone carry the request here, and the optimiser
//! carries nothing — a cache or executor change shows here, and an
//! optimiser change must not (its mirror image is `serve_cold`).
//!
//! PR 6's ten templates (constant selections, projection, one equality,
//! COUNT / SUM) over `wide_forest(3, outer = 1000, inner = 12)` (39 000
//! singletons) and `nested_shape(outer = 1000, inner = 12)` (37 000).  At
//! PR 6's own `outer = 120` a request takes ~55 µs and its latency moved by
//! a third from run to run; at this size it takes ~0.4 ms and repeats.

use crate::oracle::FlatProduct;
use crate::workloads::mix::{apportion, mixed_ops, zipf_weights};
use crate::workloads::serve::{OracleInputs, ServeWorkload};
use crate::workloads::shapes::{nested_shape, wide_forest};
use fdb_common::{AggregateFunc, AggregateHead, AttrId, ComparisonOp, ConstSelection, Value};
use fdb_core::{FactorisedQuery, RepId, ServeRequest, SharedDatabase};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Number of request templates in the mix.
pub const TEMPLATES: usize = 10;
/// Zipf exponent of the template mix (template 0 is the hottest shape).
const ZIPF_EXPONENT: f64 = 1.1;

/// Workload size knobs.
#[derive(Clone, Copy)]
pub struct Dims {
    /// Entries of the outermost union of every chain.
    pub outer: u64,
    /// Entries per nested union.
    pub inner: u64,
    /// Requests in the op list.
    pub requests: usize,
}

/// The recorded baseline's dimensions.
pub const FULL: Dims = Dims {
    outer: 1000,
    inner: 12,
    requests: 2000,
};

/// `--smoke` dimensions.
pub const SMOKE: Dims = Dims {
    outer: 30,
    inner: 6,
    requests: 40,
};

fn select(attr: u32, op: ComparisonOp, value: u64) -> ConstSelection {
    ConstSelection {
        attr: AttrId(attr),
        op,
        value: Value::new(value),
    }
}

/// Instantiates template `template` with constant `c`.  Templates 0–5 query
/// the forest, 6–9 the nested shape; the constant varies per request while
/// the shape — and so the plan-cache key — is fixed per template.
pub fn template_request(template: usize, c: u64, forest: RepId, nested: RepId) -> ServeRequest {
    let q = FactorisedQuery::default;
    let (rep, query, aggregate) = match template {
        0 => (
            forest,
            q().with_const_selection(select(0, ComparisonOp::Ge, c)),
            None,
        ),
        1 => (
            forest,
            q().with_const_selection(select(1, ComparisonOp::Eq, c)),
            None,
        ),
        2 => (
            forest,
            q().with_const_selection(select(0, ComparisonOp::Ge, c))
                .with_projection(vec![AttrId(0), AttrId(1), AttrId(2), AttrId(3)]),
            None,
        ),
        3 => (
            forest,
            q().with_const_selection(select(4, ComparisonOp::Ne, c)),
            Some(AggregateHead::count()),
        ),
        4 => (
            forest,
            FactorisedQuery::equalities(vec![(AttrId(0), AttrId(2))]),
            None,
        ),
        5 => (
            forest,
            q().with_const_selection(select(2, ComparisonOp::Ge, c))
                .with_const_selection(select(0, ComparisonOp::Le, c)),
            None,
        ),
        6 => (
            nested,
            q().with_const_selection(select(1, ComparisonOp::Ge, c)),
            None,
        ),
        7 => (
            nested,
            q().with_const_selection(select(3, ComparisonOp::Le, c % 11))
                .with_projection(vec![AttrId(0), AttrId(1), AttrId(3)]),
            None,
        ),
        8 => (
            nested,
            q().with_const_selection(select(1, ComparisonOp::Ge, c)),
            Some(AggregateHead::count()),
        ),
        9 => (
            nested,
            q().with_const_selection(select(0, ComparisonOp::Ge, c)),
            Some(AggregateHead::over(AggregateFunc::Sum, AttrId(3))),
        ),
        _ => unreachable!("template index out of range"),
    };
    ServeRequest::new(rep, query, aggregate)
}

/// The two serving representations registered in a fresh database, plus
/// the oracle's flat form of each.
pub fn serving_database(d: Dims) -> (SharedDatabase, RepId, RepId, OracleInputs) {
    let (forest_rep, forest_flat) = wide_forest(3, d.outer, d.inner);
    let (nested_rep, nested_flat) = nested_shape(d.outer, d.inner);
    let mut db = SharedDatabase::new();
    let forest = db.insert("forest", forest_rep).expect("fresh database");
    let nested = db.insert("nested", nested_rep).expect("fresh database");
    let oracle = OracleInputs::new(move || {
        vec![
            (forest, FlatProduct::new(forest_flat)),
            (nested, FlatProduct::new(nested_flat)),
        ]
    });
    (db, forest, nested, oracle)
}

/// The Zipf(10, 1.1) request mix with constants over `0..outer`.
pub fn zipf_requests(
    rng: &mut StdRng,
    d: Dims,
    count: usize,
    forest: RepId,
    nested: RepId,
) -> Vec<ServeRequest> {
    let counts = apportion(count, &zipf_weights(TEMPLATES, ZIPF_EXPONENT));
    mixed_ops(rng, &counts, d.outer)
        .into_iter()
        .map(|(template, c)| template_request(template, c, forest, nested))
        .collect()
}

/// Builds the workload: representations, server, request mix, warm cache.
pub fn build(seed: u64, smoke: bool) -> ServeWorkload {
    let d = if smoke { SMOKE } else { FULL };
    let (db, forest, nested, oracle) = serving_database(d);
    let mut rng = StdRng::seed_from_u64(seed);
    let requests = zipf_requests(&mut rng, d, d.requests, forest, nested);
    let workload = ServeWorkload::new(db, requests, oracle, false);
    workload.warm_up();
    workload
}
