//! Serial reference evaluation shared by the integration suites: one
//! `FdbEngine::run` call with no server, no plan cache and no limits, typed
//! by the head it was given.
#![allow(dead_code)]

use fdb::common::AggregateHead;
use fdb::engine::{
    AggregateOutput, FactorisedQuery, FdbEngine, Head, OrderedOutput, ServeOutcome, Source,
};
use fdb::frep::FRep;
use fdb::{AttrId, Result};

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
