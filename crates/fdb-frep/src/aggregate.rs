//! One-pass aggregation over factorised representations.
//!
//! Aggregates over a factorised representation cost one bottom-up pass over
//! the f-rep instead of a pass over the (possibly exponentially larger) flat
//! relation: `COUNT`, `SUM`, `MIN` and `MAX` compose along union and product
//! nodes (Bakibayev, Kočiský, Olteanu & Závodný, *Aggregation and Ordering
//! in Factorised Databases*, 2013).  This module evaluates
//!
//! * [`AggregateKind::Count`] — number of tuples of the represented relation,
//! * [`AggregateKind::Sum`]`(A)` — sum of attribute `A` over all tuples,
//! * [`AggregateKind::Min`]`(A)` / [`AggregateKind::Max`]`(A)`,
//! * [`AggregateKind::Avg`]`(A)` — exact `(sum, count)` pair,
//! * [`AggregateKind::CountDistinct`]`(A)` / [`AggregateKind::SumDistinct`]`(A)`
//!   / [`AggregateKind::AvgDistinct`]`(A)` — over the *set* of `A` values,
//!
//! each as a **single bottom-up pass** in which every subtree is replaced by
//! its partial aggregate.  The pass costs what the answer needs:
//!
//! * **Leaf unions fold in closed form** ([`Accumulator::leaf`]): a union
//!   whose node has no children is its value slice, so `COUNT` is its
//!   length, `SUM`/`AVG` one slice sum, `MIN`/`MAX` its first and last
//!   value and `DISTINCT` the (already strictly increasing) slice itself.
//!   No entry loop runs and nothing is memoised for a leaf.
//! * **The accumulator is as narrow as the kind**, chosen once per request:
//!   [`CountAcc`] (a wrapping `u128` and an exact liveness bit) for `COUNT`,
//!   [`SumAcc`] (count, sum, liveness, overflow) for `SUM`/`AVG`, [`Acc`]
//!   (a `SumAcc` plus `MIN`/`MAX`) for `MIN`/`MAX`, [`DistinctAcc`] for the
//!   `DISTINCT` kinds.
//! * **There is one fold.**  A frozen arena is aggregated as the untouched
//!   overlay of the empty program (see below), so [`evaluate_ctx`] and the
//!   plan executor's aggregate sink run the same code.
//!
//! **Group-by** ([`evaluate_ctx`]) accepts any visible attributes, wherever
//! their nodes sit in the f-tree, and restructures nothing: the same pass
//! runs in a keyed form of the semiring.  A union whose subtree holds no
//! group node folds to its accumulator as above; one that holds a group node
//! folds to a table of accumulators, one per group key: an entry's value
//! sets its node's key slot, the keyed factors of a product combine by cross
//! product (their key slots are disjoint) and a union adds its entries'
//! tables by key.  Groups come out sorted ascending by key in request
//! order, groups without tuples omitted — the answer a flat `GROUP BY`
//! gives, at the cost of the groups rather than the tuples.
//!
//! The composition rules are those of a commutative semiring product:
//! a union adds its entries' accumulators (the entries represent disjoint
//! sub-relations) and an entry multiplies its value's contribution with its
//! child unions' accumulators (the children represent independent factors).
//! For independent factors `X × Y`:
//!
//! ```text
//! count(X × Y) = count(X) · count(Y)
//! sum_A(X × Y)  = sum_A(X) · count(Y) + sum_A(Y) · count(X)
//! min_A(X × Y)  = min_A(X) ∪ min_A(Y)      (A labels exactly one factor)
//! dist_A(X × Y) = dist_A(X) ∪ dist_A(Y)    (ditto; ∅ if either side is empty)
//! ```
//!
//! Every algebra folds grouped as well: a keyed table holds one accumulator
//! of the kind per key, so `DISTINCT` groups take no second path.
//!
//! `DISTINCT` aggregates replace the count-weighted semiring with a sorted
//! value-set accumulator ([`DistinctAcc`]): unions take the sorted-merge
//! union of their entries' sets, products take the union of their factors'
//! sets (the target attribute labels exactly one factor) with empty-factor
//! annihilation.  Multiplicities never enter, so no wrapping arithmetic is
//! involved and `SUM(DISTINCT A)` is exact: at most `2^64` distinct 64-bit
//! values sum to less than `2^128`.
//!
//! # Numeric semantics
//!
//! The chosen semantics, relied upon by the oracle-backed equivalence suite:
//!
//! * **`COUNT` and `SUM` are computed in 128-bit wrapping (modular)
//!   arithmetic.**  A factorised representation can describe far more tuples
//!   than any machine integer holds (a product of `k` unions of `n` entries
//!   has `n^k` tuples), so both are defined modulo `2^128`: exact whenever
//!   the true value fits in a `u128` — in particular for every `tuple_count`
//!   that merely exceeds `u64` — and wrapping deterministically beyond.
//!   Because addition and multiplication modulo `2^128` form a commutative
//!   ring, the factorised evaluation, the overlay evaluation and a flat
//!   oracle that sums tuple-by-tuple with `wrapping_add` agree **bit for
//!   bit** even when they associate the operations differently.
//! * **`AVG` refuses to divide wrapped operands.**  A sticky overflow bit
//!   rides along the accumulator; `COUNT`/`SUM` keep their documented
//!   mod-`2^128` results, but an `AVG` whose sum or count wrapped would be
//!   silently wrong, so [`SumAcc`]'s `finish` reports
//!   [`FdbError::AggregateOverflow`] instead of a plausible-looking mean.
//!   Dead branches (empty products) contribute zero and never taint the
//!   flag.
//! * **`AVG` of an empty group is `None`** ([`AggregateValue::Avg`] holds
//!   `Option<AvgValue>`); a non-empty group carries the exact wrapping
//!   `(sum, count)` pair so callers choose their own division
//!   ([`AvgValue::as_f64`] is the convenience form).
//! * **`MIN`/`MAX` of the empty relation are `None`**; over a union with a
//!   single entry both equal that entry's value.  Entries whose product is
//!   empty (some child union with no entries) contribute no tuples and are
//!   skipped, exactly as enumeration skips them.
//! * A liveness bit is tracked separately from the wrapping count, so
//!   `MIN`/`MAX`/`AVG`-emptiness stay exact even if a (pathological) true
//!   count is divisible by `2^128`.
//!
//! # Where this hooks into execution
//!
//! The fold lives in [`crate::ops::fuse`]: an aggregate is one more consumer
//! of the overlay that never needs the final arena, so
//! [`crate::ops::execute_fused_aggregate_ctx`] runs a plan on the overlay
//! and folds it there, with zero arena emission.  [`evaluate_ctx`] is the
//! same fold over the overlay of the empty program, whose unions are all
//! untouched references into the input arena.  `fdb-plan` routes the empty
//! aggregate plan to [`evaluate_ctx`] and every other one to the overlay
//! entry point.

use crate::enumerate::TupleCursor;
use crate::frep::FRep;
use crate::kernel;
use crate::store::node_table;
use fdb_common::{failpoint, AttrId, ComparisonOp, ExecCtx, FdbError, Result, Value};
use fdb_ftree::{FTree, NodeId};
use std::collections::{BTreeMap, BTreeSet};

/// Which aggregate to evaluate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AggregateKind {
    /// `COUNT(*)`: number of tuples (modulo `2^128`, see the module docs).
    Count,
    /// `SUM(A)`: sum of the attribute over all tuples (modulo `2^128`).
    Sum(AttrId),
    /// `MIN(A)`: smallest value of the attribute, `None` on empty input.
    Min(AttrId),
    /// `MAX(A)`: largest value of the attribute, `None` on empty input.
    Max(AttrId),
    /// `AVG(A)`: exact `(sum, count)` pair, `None` on empty input.
    Avg(AttrId),
    /// `COUNT(DISTINCT A)`: number of distinct values of the attribute.
    CountDistinct(AttrId),
    /// `SUM(DISTINCT A)`: exact sum of the distinct values of the attribute.
    SumDistinct(AttrId),
    /// `AVG(DISTINCT A)`: exact `(sum, count)` over the distinct values,
    /// `None` on empty input.
    AvgDistinct(AttrId),
}

impl AggregateKind {
    /// The attribute the aggregate ranges over (`None` for `COUNT`).
    pub fn attr(self) -> Option<AttrId> {
        match self {
            AggregateKind::Count => None,
            AggregateKind::Sum(a)
            | AggregateKind::Min(a)
            | AggregateKind::Max(a)
            | AggregateKind::Avg(a)
            | AggregateKind::CountDistinct(a)
            | AggregateKind::SumDistinct(a)
            | AggregateKind::AvgDistinct(a) => Some(a),
        }
    }

    /// Whether this aggregate ranges over the distinct value *set* (and is
    /// therefore evaluated with [`DistinctAcc`]).
    pub fn is_distinct(self) -> bool {
        matches!(
            self,
            AggregateKind::CountDistinct(_)
                | AggregateKind::SumDistinct(_)
                | AggregateKind::AvgDistinct(_)
        )
    }
}

impl std::fmt::Display for AggregateKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AggregateKind::Count => write!(f, "COUNT(*)"),
            AggregateKind::Sum(a) => write!(f, "SUM({a})"),
            AggregateKind::Min(a) => write!(f, "MIN({a})"),
            AggregateKind::Max(a) => write!(f, "MAX({a})"),
            AggregateKind::Avg(a) => write!(f, "AVG({a})"),
            AggregateKind::CountDistinct(a) => write!(f, "COUNT(DISTINCT {a})"),
            AggregateKind::SumDistinct(a) => write!(f, "SUM(DISTINCT {a})"),
            AggregateKind::AvgDistinct(a) => write!(f, "AVG(DISTINCT {a})"),
        }
    }
}

/// The exact average: wrapping sum and count of a non-empty group.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AvgValue {
    /// Sum of the attribute (modulo `2^128`).
    pub sum: u128,
    /// Number of tuples (modulo `2^128`).
    pub count: u128,
}

impl AvgValue {
    /// The average as a floating-point number (lossy for huge sums).
    pub fn as_f64(&self) -> f64 {
        self.sum as f64 / self.count as f64
    }
}

/// The value of one evaluated aggregate (see the module docs for the
/// numeric semantics).  `DISTINCT` kinds reuse the plain variants:
/// `COUNT(DISTINCT A)` reports [`AggregateValue::Count`], and so on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AggregateValue {
    /// Number of tuples, modulo `2^128`.
    Count(u128),
    /// Sum of the attribute, modulo `2^128` (0 on empty input).
    Sum(u128),
    /// Smallest attribute value, `None` on empty input.
    Min(Option<Value>),
    /// Largest attribute value, `None` on empty input.
    Max(Option<Value>),
    /// Exact `(sum, count)`, `None` on empty input.
    Avg(Option<AvgValue>),
}

/// An aggregate evaluation result: a scalar, or one row per group.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AggregateResult {
    /// Ungrouped aggregate.
    Scalar(AggregateValue),
    /// Grouped aggregate: `(group key, aggregate)` rows, one key value per
    /// group-by attribute in the requested attribute order, sorted
    /// lexicographically ascending by key; groups without tuples are
    /// omitted (as a flat `GROUP BY` over the enumerated tuples would omit
    /// them).
    Groups(Vec<(Vec<Value>, AggregateValue)>),
}

/// The algebra an aggregation pass folds with.  Four implementations, one
/// per kind family (the module docs list them).  The one fold, in the fused
/// overlay, is generic over this trait, so the algebras cannot drift
/// structurally.  `Default` is the accumulator of a union with no entries,
/// the identity of `add`.
pub(crate) trait Accumulator: Clone + Default {
    /// The accumulator of a single singleton `⟨A:v⟩`; `carries_attr` says
    /// whether the singleton's node carries the target attribute.  A
    /// singleton that does not carry it counts one tuple and nothing else.
    fn singleton(value: Value, carries_attr: bool) -> Self;
    /// The accumulator of the nullary relation `{⟨⟩}`, the identity of
    /// `product`: a singleton that carries nothing.
    fn one() -> Self {
        Self::singleton(Value::new(0), false)
    }
    /// The accumulator of a leaf union: the sum of the singletons of its
    /// strictly increasing `values`.  The default folds them one by one; an
    /// algebra overrides it with its closed form.
    fn leaf(values: &[Value], carries_attr: bool) -> Self {
        values.iter().fold(Self::default(), |total, &v| {
            total.add(Self::singleton(v, carries_attr))
        })
    }
    /// Combines the accumulators of two *independent* factors (a product).
    fn product(self, other: Self) -> Self;
    /// Combines the accumulators of two *disjoint* sub-relations (entries
    /// of one union).
    fn add(self, other: Self) -> Self;
    /// Whether the accumulated sub-relation has no tuples (exact, not the
    /// wrapping count).
    fn is_empty(&self) -> bool;
    /// Projects the requested aggregate out of the accumulator.  Fallible:
    /// the `AVG` path refuses wrapped operands (see the module docs).
    fn finish(self, kind: AggregateKind) -> Result<AggregateValue>;
}

/// The `COUNT` algebra: the number of tuples modulo `2^128` and an exact
/// liveness bit.  A dead accumulator always has count 0: every dead branch
/// is a product with a factor of count 0, or a sum of dead branches.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct CountAcc {
    count: u128,
    live: bool,
}

impl Accumulator for CountAcc {
    fn singleton(_: Value, _: bool) -> CountAcc {
        CountAcc::leaf(&[Value::new(0)], false)
    }

    fn leaf(values: &[Value], _: bool) -> CountAcc {
        CountAcc {
            count: values.len() as u128,
            live: !values.is_empty(),
        }
    }

    fn product(self, other: CountAcc) -> CountAcc {
        CountAcc {
            count: self.count.wrapping_mul(other.count),
            live: self.live && other.live,
        }
    }

    fn add(self, other: CountAcc) -> CountAcc {
        CountAcc {
            count: self.count.wrapping_add(other.count),
            live: self.live || other.live,
        }
    }

    fn is_empty(&self) -> bool {
        !self.live
    }

    fn finish(self, kind: AggregateKind) -> Result<AggregateValue> {
        debug_assert_eq!(kind, AggregateKind::Count);
        Ok(AggregateValue::Count(self.count))
    }
}

/// The `SUM`/`AVG` algebra: count and sum of the target attribute, both
/// modulo `2^128`, an exact liveness bit and a sticky overflow bit.  A dead
/// accumulator has count and sum 0, like [`CountAcc`].
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct SumAcc {
    count: u128,
    sum: u128,
    live: bool,
    /// Sticky wrap indicator: some `count`/`sum` operation on a *live*
    /// branch overflowed 128 bits.  Invariant: `!live ⟹ !overflow` (a dead
    /// branch contributes exact zeros, so its history is irrelevant).
    overflow: bool,
}

impl Accumulator for SumAcc {
    fn singleton(value: Value, carries_attr: bool) -> SumAcc {
        SumAcc::leaf(&[value], carries_attr)
    }

    /// Fewer than `2^64` values below `2^64` each: the slice sum cannot wrap
    /// 128 bits, so the overflow bit stays clear.
    fn leaf(values: &[Value], carries_attr: bool) -> SumAcc {
        SumAcc {
            count: values.len() as u128,
            sum: if carries_attr {
                values.iter().map(|v| v.raw() as u128).sum()
            } else {
                0
            },
            live: !values.is_empty(),
            overflow: false,
        }
    }

    fn product(self, other: SumAcc) -> SumAcc {
        let live = self.live && other.live;
        let (count, oc) = self.count.overflowing_mul(other.count);
        let (lhs, ol) = self.sum.overflowing_mul(other.count);
        let (rhs, or_) = other.sum.overflowing_mul(self.count);
        let (sum, os) = lhs.overflowing_add(rhs);
        SumAcc {
            count,
            sum,
            live,
            // An empty factor has count = sum = 0, so none of the four
            // operations above can wrap on a dead product: clearing the
            // flag keeps the invariant without losing a live wrap.
            overflow: live && (self.overflow || other.overflow || oc || ol || or_ || os),
        }
    }

    fn add(self, other: SumAcc) -> SumAcc {
        let (count, oc) = self.count.overflowing_add(other.count);
        let (sum, os) = self.sum.overflowing_add(other.sum);
        SumAcc {
            count,
            sum,
            live: self.live || other.live,
            overflow: self.overflow || other.overflow || oc || os,
        }
    }

    fn is_empty(&self) -> bool {
        !self.live
    }

    fn finish(self, kind: AggregateKind) -> Result<AggregateValue> {
        match kind {
            AggregateKind::Count => Ok(AggregateValue::Count(self.count)),
            AggregateKind::Sum(_) => Ok(AggregateValue::Sum(self.sum)),
            AggregateKind::Avg(_) if self.overflow => Err(FdbError::AggregateOverflow {
                detail: format!("{kind}: 128-bit sum or count wrapped"),
            }),
            AggregateKind::Avg(_) => Ok(AggregateValue::Avg(self.live.then_some(AvgValue {
                sum: self.sum,
                count: self.count,
            }))),
            _ => unreachable!("{kind} is not folded by SumAcc"),
        }
    }
}

/// The `MIN`/`MAX` algebra (and the flat oracle's, for every non-`DISTINCT`
/// kind): a [`SumAcc`] plus the smallest and largest target value.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Acc {
    base: SumAcc,
    min: Option<Value>,
    max: Option<Value>,
}

impl Accumulator for Acc {
    fn singleton(value: Value, carries_attr: bool) -> Acc {
        Acc::leaf(&[value], carries_attr)
    }

    /// The values increase strictly: the first is the minimum, the last the
    /// maximum.
    fn leaf(values: &[Value], carries_attr: bool) -> Acc {
        Acc {
            base: SumAcc::leaf(values, carries_attr),
            min: values.first().copied().filter(|_| carries_attr),
            max: values.last().copied().filter(|_| carries_attr),
        }
    }

    /// The target attribute labels at most one of the two factors, so at
    /// most one `min`/`max` side is `Some`; an empty factor annihilates the
    /// whole product.
    fn product(self, other: Acc) -> Acc {
        let base = self.base.product(other.base);
        Acc {
            base,
            min: self.min.or(other.min).filter(|_| base.live),
            max: self.max.or(other.max).filter(|_| base.live),
        }
    }

    fn add(self, other: Acc) -> Acc {
        let pick = |a: Option<Value>, b: Option<Value>, f: fn(Value, Value) -> Value| {
            a.zip(b).map(|(x, y)| f(x, y)).or(a).or(b)
        };
        Acc {
            base: self.base.add(other.base),
            min: pick(self.min, other.min, Value::min),
            max: pick(self.max, other.max, Value::max),
        }
    }

    fn is_empty(&self) -> bool {
        self.base.is_empty()
    }

    fn finish(self, kind: AggregateKind) -> Result<AggregateValue> {
        match kind {
            AggregateKind::Min(_) => Ok(AggregateValue::Min(self.min)),
            AggregateKind::Max(_) => Ok(AggregateValue::Max(self.max)),
            _ => self.base.finish(kind),
        }
    }
}

/// The sorted value-set accumulator behind the `DISTINCT` aggregate kinds:
/// tracks the set of target-attribute values among the represented tuples
/// (and the exact liveness of the sub-relation), ignoring multiplicities
/// entirely.  Unions and products both merge the sorted sets; an empty
/// factor annihilates a product's set exactly as it zeroes a count.
#[derive(Clone, Debug, Default)]
pub(crate) struct DistinctAcc {
    /// Distinct target-attribute values, sorted ascending, no duplicates.
    /// Invariant: `!live ⟹ values.is_empty()`.
    values: Vec<Value>,
    live: bool,
}

/// Sorted-merge union of two sorted deduplicated value runs.  Runs that do
/// not interleave — the shape of a union's own strictly increasing entries —
/// are concatenated in place, so folding a union over the target node costs
/// its length, not its length squared.
fn merge_distinct(mut a: Vec<Value>, mut b: Vec<Value>) -> Vec<Value> {
    if b.last() < a.first() {
        std::mem::swap(&mut a, &mut b);
    }
    if b.is_empty() || a.last() < b.first() {
        a.extend_from_slice(&b);
        return a;
    }
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        let (x, y) = (a[i], b[j]);
        out.push(x.min(y));
        i += usize::from(x <= y);
        j += usize::from(y <= x);
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

impl Accumulator for DistinctAcc {
    fn singleton(value: Value, carries_attr: bool) -> DistinctAcc {
        DistinctAcc::leaf(&[value], carries_attr)
    }

    /// The values increase strictly, so they already are the set.
    fn leaf(values: &[Value], carries_attr: bool) -> DistinctAcc {
        DistinctAcc {
            values: if carries_attr {
                values.to_vec()
            } else {
                Vec::new()
            },
            live: !values.is_empty(),
        }
    }

    fn product(self, other: DistinctAcc) -> DistinctAcc {
        let live = self.live && other.live;
        // The target attribute labels exactly one factor, but the general
        // sorted merge is correct (and cheap) either way; an empty factor
        // annihilates: no tuples, hence no values.
        DistinctAcc {
            values: if live {
                merge_distinct(self.values, other.values)
            } else {
                Vec::new()
            },
            live,
        }
    }

    fn add(self, other: DistinctAcc) -> DistinctAcc {
        DistinctAcc {
            values: merge_distinct(self.values, other.values),
            live: self.live || other.live,
        }
    }

    fn is_empty(&self) -> bool {
        !self.live
    }

    fn finish(self, kind: AggregateKind) -> Result<AggregateValue> {
        // At most 2^64 distinct 64-bit values, each below 2^64: the exact
        // sum stays below 2^128, so no wrapping is possible here.
        let sum = self.values.iter().map(|v| v.raw() as u128).sum();
        let count = self.values.len() as u128;
        match kind {
            AggregateKind::CountDistinct(_) => Ok(AggregateValue::Count(count)),
            AggregateKind::SumDistinct(_) => Ok(AggregateValue::Sum(sum)),
            AggregateKind::AvgDistinct(_) => Ok(AggregateValue::Avg(
                (count > 0).then_some(AvgValue { sum, count }),
            )),
            _ => unreachable!("non-DISTINCT kinds are dispatched to Acc"),
        }
    }
}

/// Resolved target of an aggregate on a concrete f-tree: the node whose
/// entry values feed the aggregate (`None` for `COUNT`).
#[derive(Clone, Copy, Debug)]
pub(crate) struct AggTarget {
    pub(crate) node: Option<NodeId>,
}

impl AggTarget {
    /// Resolves and validates the aggregate's attribute against the tree:
    /// the attribute must exist in the tree and be visible (not projected
    /// away).
    pub(crate) fn resolve(tree: &FTree, kind: AggregateKind) -> Result<AggTarget> {
        let Some(attr) = kind.attr() else {
            return Ok(AggTarget { node: None });
        };
        let Some(node) = tree.node_of_attr(attr) else {
            return Err(FdbError::AttributeNotInQuery {
                attr: format!("{attr}"),
            });
        };
        if !tree.visible_attrs(node).contains(&attr) {
            return Err(FdbError::InvalidOperator {
                detail: format!("aggregate over projected-away attribute {attr}"),
            });
        }
        Ok(AggTarget { node: Some(node) })
    }

    /// Whether entry values of a union over `node` feed the aggregate.
    #[inline]
    pub(crate) fn carried_by(self, node: NodeId) -> bool {
        self.node == Some(node)
    }
}

/// A group-by list resolved against a concrete f-tree: one key slot per
/// distinct group node, numbered in request order, so comparing slot keys
/// compares the requested keys.  Any visible attributes group, wherever
/// their nodes sit.
#[derive(Clone, Debug)]
pub(crate) struct GroupKey {
    /// The distinct group nodes, in request order: a node's position is its
    /// key slot, their number the slots per key.
    pub(crate) nodes: Vec<NodeId>,
    /// For each requested attribute, the slot of its node (attributes of
    /// one class share a slot).
    pub(crate) key_slots: Vec<usize>,
    /// Whether a node's subtree holds a group node, indexed by node index.
    holds: Vec<bool>,
}

impl GroupKey {
    /// Resolves the group-by attributes: each must be a visible attribute
    /// of the tree, else [`FdbError::AttributeNotInQuery`].
    pub(crate) fn resolve(tree: &FTree, group_by: &[AttrId]) -> Result<GroupKey> {
        let mut nodes: Vec<NodeId> = Vec::new();
        let mut key_slots = Vec::with_capacity(group_by.len());
        for &attr in group_by {
            let node = tree
                .node_of_attr(attr)
                .filter(|&n| tree.visible_attrs(n).contains(&attr))
                .ok_or_else(|| FdbError::AttributeNotInQuery {
                    attr: format!("{attr}"),
                })?;
            let slot = nodes.iter().position(|&n| n == node).unwrap_or_else(|| {
                nodes.push(node);
                nodes.len() - 1
            });
            key_slots.push(slot);
        }
        let holds = node_table(tree, |n| {
            nodes.iter().any(|&g| g == n || tree.is_ancestor(n, g))
        });
        Ok(GroupKey {
            nodes,
            key_slots,
            holds,
        })
    }

    /// Whether the subtree under `node` holds a group node (its unions fold
    /// to keyed rows, every other union to one accumulator).
    #[inline]
    pub(crate) fn holds(&self, node: NodeId) -> bool {
        self.holds[node.index()]
    }
}

/// A conjunction of constant-selection predicates folded into an aggregate
/// fold instead of executed as selection passes: an entry of a union over
/// `node` participates iff every predicate on `node` accepts its value.
/// Filtering is exact with respect to select-then-prune semantics — a
/// filtered-out entry, like an entry whose product is empty, contributes
/// the additive identity to its union's accumulator, so `COUNT`/`SUM` skip
/// it and `MIN`/`MAX`/`AVG` emptiness stays exact.
#[derive(Clone, Debug, Default)]
pub(crate) struct AggFilter {
    preds: Vec<(NodeId, ComparisonOp, Value)>,
}

impl AggFilter {
    /// Adds the predicate `node θ value`.
    pub(crate) fn push(&mut self, node: NodeId, op: ComparisonOp, value: Value) {
        self.preds.push((node, op, value));
    }

    /// Whether some predicate names `node` (otherwise every entry of its
    /// unions passes).
    #[inline]
    pub(crate) fn names(&self, node: NodeId) -> bool {
        self.preds.iter().any(|&(n, ..)| n == node)
    }

    /// Whether an entry with the given value of a union over `node` passes
    /// every predicate.
    #[inline]
    pub(crate) fn passes(&self, node: NodeId, value: Value) -> bool {
        self.preds
            .iter()
            .all(|&(n, op, c)| n != node || op.eval(value, c))
    }

    /// Writes the values of a block over `node` that pass every predicate
    /// into `kept`: one [`kernel::fill_keep_mask`] over the block per
    /// predicate naming `node`, instead of a per-entry [`AggFilter::passes`].
    pub(crate) fn keep(
        &self,
        node: NodeId,
        values: &[Value],
        kept: &mut Vec<Value>,
        mask: &mut Vec<bool>,
    ) {
        kept.clear();
        kept.extend_from_slice(values);
        for &(_, op, c) in self.preds.iter().filter(|&&(n, ..)| n == node) {
            mask.resize(kept.len(), false);
            kernel::fill_keep_mask(kept, op, c, mask);
            let mut keep = mask.iter();
            kept.retain(|_| *keep.next().expect("one mask slot per value"));
        }
    }
}

/// Evaluates an aggregate over the representation in one bottom-up fold
/// (see the module docs for the numeric semantics): the overlay fold of
/// [`crate::ops::execute_fused_aggregate_ctx`] over the empty program.
/// With an empty `group_by` the result is a scalar; otherwise the result
/// has one row per live combination of the group attributes' values — any
/// visible attributes, in any order — sorted ascending by key in request
/// order, each aggregated over the matching tuples, groups without tuples
/// omitted.
///
/// The fold charges `1 + len` units per union it visits, and a grouped fold
/// one more per row it builds, so a deadline, budget or cancellation flag
/// interrupts it with no partial state (the aggregate never mutates the
/// representation).
pub fn evaluate_ctx(
    rep: &FRep,
    kind: AggregateKind,
    group_by: &[AttrId],
    ctx: &ExecCtx,
) -> Result<AggregateResult> {
    failpoint!(ctx, "aggregate.fold");
    crate::ops::fuse::fold_aggregate(rep, &[], kind, group_by, ctx)
}

/// The materialise-then-aggregate reference evaluator: enumerates the
/// represented relation tuple by tuple with the constant-delay cursor and
/// folds the aggregate with plain collections — the plan a flat engine
/// would run.  Same wrapping 128-bit arithmetic as the one-pass fold (and a
/// `BTreeSet` per group for the `DISTINCT` kinds), so the results agree bit
/// for bit; the equivalence tests use it as the flat oracle and the
/// benchmarks as the timed baseline.  Groups come out sorted ascending by
/// key vector with empty groups absent, exactly as [`evaluate_ctx`] returns
/// them.  Ungoverned: no request path runs it.
pub fn by_enumeration(
    rep: &FRep,
    kind: AggregateKind,
    group_by: &[AttrId],
) -> Result<AggregateResult> {
    let visible = rep.visible_attrs();
    let col_of = |attr: AttrId| {
        visible
            .binary_search(&attr)
            .map_err(|_| FdbError::AttributeNotInQuery {
                attr: format!("{attr}"),
            })
    };
    let col = kind.attr().map(col_of).transpose()?;
    let gcols = group_by
        .iter()
        .map(|&g| col_of(g))
        .collect::<Result<Vec<_>>>()?;
    if kind.is_distinct() {
        // The hash-set oracle: one value set per group, multiplicities
        // ignored.
        let dcol = col.expect("DISTINCT kinds always carry an attribute");
        return hash_group(
            rep,
            &gcols,
            |set: &mut BTreeSet<Value>, t| {
                set.insert(t[dcol]);
            },
            |set| {
                let values = set.into_iter().collect();
                DistinctAcc { values, live: true }.finish(kind)
            },
        );
    }
    hash_group(
        rep,
        &gcols,
        |acc: &mut Acc, t| {
            let tuple = col.map_or_else(Acc::one, |c| Acc::singleton(t[c], true));
            *acc = acc.add(tuple);
        },
        |acc| acc.finish(kind),
    )
}

/// The tuple-at-a-time group fold of [`by_enumeration`]: one state per
/// group key (the `gcols` columns of a tuple), groups sorted by key, and a
/// scalar — the one key-less group, present even without tuples — when
/// `gcols` is empty.
fn hash_group<S: Default>(
    rep: &FRep,
    gcols: &[usize],
    mut fold: impl FnMut(&mut S, &[Value]),
    finish: impl Fn(S) -> Result<AggregateValue>,
) -> Result<AggregateResult> {
    let mut groups: BTreeMap<Vec<Value>, S> = BTreeMap::new();
    let mut cursor = TupleCursor::new(rep);
    while cursor.advance() {
        let t = cursor.tuple();
        fold(
            groups
                .entry(gcols.iter().map(|&c| t[c]).collect())
                .or_default(),
            t,
        );
    }
    if gcols.is_empty() {
        let scalar = groups.into_values().next().unwrap_or_default();
        return Ok(AggregateResult::Scalar(finish(scalar)?));
    }
    let rows = groups
        .into_iter()
        .map(|(key, state)| Ok((key, finish(state)?)));
    Ok(AggregateResult::Groups(rows.collect::<Result<_>>()?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::{Entry, Union};
    use fdb_ftree::DepEdge;
    use std::collections::BTreeSet;

    fn attrs(ids: &[u32]) -> BTreeSet<AttrId> {
        ids.iter().map(|&i| AttrId(i)).collect()
    }

    fn key(vs: &[u64]) -> Vec<Value> {
        vs.iter().map(|&v| Value::new(v)).collect()
    }

    /// The ungrouped aggregate's value.
    fn scalar(rep: &FRep, kind: AggregateKind) -> Result<AggregateValue> {
        match evaluate_ctx(rep, kind, &[], &ExecCtx::unlimited())? {
            AggregateResult::Scalar(v) => Ok(v),
            AggregateResult::Groups(_) => unreachable!("ungrouped evaluation returns a scalar"),
        }
    }

    /// The grouped aggregate's rows.
    fn grouped(
        rep: &FRep,
        kind: AggregateKind,
        group_by: &[AttrId],
    ) -> Result<Vec<(Vec<Value>, AggregateValue)>> {
        match evaluate_ctx(rep, kind, group_by, &ExecCtx::unlimited())? {
            AggregateResult::Groups(rows) => Ok(rows),
            AggregateResult::Scalar(_) => unreachable!("grouped evaluation returns rows"),
        }
    }

    /// Example 3 of the paper: ⟨A:1⟩×(⟨B:1⟩ ∪ ⟨B:2⟩) ∪ ⟨A:2⟩×⟨B:2⟩,
    /// tuples {(1,1), (1,2), (2,2)}.
    fn example3() -> FRep {
        let edges = vec![DepEdge::new("R", attrs(&[0, 1]), 3)];
        let mut tree = FTree::new(edges);
        let a = tree.add_node(attrs(&[0]), None).unwrap();
        let b = tree.add_node(attrs(&[1]), Some(a)).unwrap();
        let union = Union::new(
            a,
            vec![
                Entry {
                    value: Value::new(1),
                    children: vec![Union::new(
                        b,
                        vec![Entry::leaf(Value::new(1)), Entry::leaf(Value::new(2))],
                    )],
                },
                Entry {
                    value: Value::new(2),
                    children: vec![Union::new(b, vec![Entry::leaf(Value::new(2))])],
                },
            ],
        );
        FRep::from_parts(tree, vec![union]).unwrap()
    }

    #[test]
    fn example3_aggregates() {
        let rep = example3();
        assert_eq!(
            scalar(&rep, AggregateKind::Count).unwrap(),
            AggregateValue::Count(3)
        );
        // A over {1, 1, 2}; B over {1, 2, 2}.
        assert_eq!(
            scalar(&rep, AggregateKind::Sum(AttrId(0))).unwrap(),
            AggregateValue::Sum(4)
        );
        assert_eq!(
            scalar(&rep, AggregateKind::Sum(AttrId(1))).unwrap(),
            AggregateValue::Sum(5)
        );
        assert_eq!(
            scalar(&rep, AggregateKind::Min(AttrId(1))).unwrap(),
            AggregateValue::Min(Some(Value::new(1)))
        );
        assert_eq!(
            scalar(&rep, AggregateKind::Max(AttrId(0))).unwrap(),
            AggregateValue::Max(Some(Value::new(2)))
        );
        assert_eq!(
            scalar(&rep, AggregateKind::Avg(AttrId(1))).unwrap(),
            AggregateValue::Avg(Some(AvgValue { sum: 5, count: 3 }))
        );
    }

    #[test]
    fn example3_distinct_aggregates() {
        let rep = example3();
        // Distinct A values {1, 2}; distinct B values {1, 2}.
        assert_eq!(
            scalar(&rep, AggregateKind::CountDistinct(AttrId(1))).unwrap(),
            AggregateValue::Count(2)
        );
        assert_eq!(
            scalar(&rep, AggregateKind::SumDistinct(AttrId(1))).unwrap(),
            AggregateValue::Sum(3)
        );
        assert_eq!(
            scalar(&rep, AggregateKind::AvgDistinct(AttrId(0))).unwrap(),
            AggregateValue::Avg(Some(AvgValue { sum: 3, count: 2 }))
        );
        // The flat hash-set oracle agrees bit for bit.
        for kind in [
            AggregateKind::CountDistinct(AttrId(0)),
            AggregateKind::SumDistinct(AttrId(1)),
            AggregateKind::AvgDistinct(AttrId(1)),
        ] {
            assert_eq!(
                evaluate_ctx(&rep, kind, &[], &ExecCtx::unlimited()).unwrap(),
                by_enumeration(&rep, kind, &[]).unwrap()
            );
        }
    }

    #[test]
    fn example3_grouped_by_root() {
        let rep = example3();
        let rows = grouped(&rep, AggregateKind::Count, &[AttrId(0)]).unwrap();
        assert_eq!(
            rows,
            vec![
                (key(&[1]), AggregateValue::Count(2)),
                (key(&[2]), AggregateValue::Count(1)),
            ]
        );
        let rows = grouped(&rep, AggregateKind::Sum(AttrId(1)), &[AttrId(0)]).unwrap();
        assert_eq!(
            rows,
            vec![
                (key(&[1]), AggregateValue::Sum(3)),
                (key(&[2]), AggregateValue::Sum(2)),
            ]
        );
        // A non-root attribute alone, and a child-before-parent pair, group
        // in place: B=1 has one tuple, B=2 two.
        let rows = grouped(&rep, AggregateKind::Count, &[AttrId(1)]).unwrap();
        assert_eq!(
            rows,
            vec![
                (key(&[1]), AggregateValue::Count(1)),
                (key(&[2]), AggregateValue::Count(2)),
            ]
        );
        for group in [&[AttrId(1)][..], &[AttrId(1), AttrId(0)]] {
            for kind in [
                AggregateKind::Sum(AttrId(0)),
                AggregateKind::CountDistinct(AttrId(0)),
            ] {
                assert_eq!(
                    evaluate_ctx(&rep, kind, group, &ExecCtx::unlimited()).unwrap(),
                    by_enumeration(&rep, kind, group).unwrap(),
                    "{kind} by {group:?}"
                );
            }
        }
    }

    #[test]
    fn example3_grouped_by_path() {
        let rep = example3();
        // Grouping by the full root-to-leaf path enumerates the tuples.
        let rows = grouped(&rep, AggregateKind::Count, &[AttrId(0), AttrId(1)]).unwrap();
        assert_eq!(
            rows,
            vec![
                (key(&[1, 1]), AggregateValue::Count(1)),
                (key(&[1, 2]), AggregateValue::Count(1)),
                (key(&[2, 2]), AggregateValue::Count(1)),
            ]
        );
        // Distinct grouped by the root: A=1 sees B∈{1,2}, A=2 sees {2}.
        let rows = grouped(&rep, AggregateKind::CountDistinct(AttrId(1)), &[AttrId(0)]).unwrap();
        assert_eq!(
            rows,
            vec![
                (key(&[1]), AggregateValue::Count(2)),
                (key(&[2]), AggregateValue::Count(1)),
            ]
        );
        // Path grouping agrees with the flat oracle for every kind.
        for kind in [
            AggregateKind::Count,
            AggregateKind::Sum(AttrId(1)),
            AggregateKind::Avg(AttrId(0)),
            AggregateKind::CountDistinct(AttrId(1)),
            AggregateKind::SumDistinct(AttrId(0)),
        ] {
            assert_eq!(
                evaluate_ctx(&rep, kind, &[AttrId(0), AttrId(1)], &ExecCtx::unlimited()).unwrap(),
                by_enumeration(&rep, kind, &[AttrId(0), AttrId(1)]).unwrap(),
                "kind {kind}"
            );
        }
    }

    #[test]
    fn empty_representation_aggregates() {
        let edges = vec![DepEdge::new("R", attrs(&[0]), 0)];
        let mut tree = FTree::new(edges);
        tree.add_node(attrs(&[0]), None).unwrap();
        let rep = FRep::empty(tree);
        assert_eq!(
            scalar(&rep, AggregateKind::Count).unwrap(),
            AggregateValue::Count(0)
        );
        assert_eq!(
            scalar(&rep, AggregateKind::Sum(AttrId(0))).unwrap(),
            AggregateValue::Sum(0)
        );
        assert_eq!(
            scalar(&rep, AggregateKind::Min(AttrId(0))).unwrap(),
            AggregateValue::Min(None)
        );
        assert_eq!(
            scalar(&rep, AggregateKind::Avg(AttrId(0))).unwrap(),
            AggregateValue::Avg(None)
        );
        assert_eq!(
            scalar(&rep, AggregateKind::CountDistinct(AttrId(0))).unwrap(),
            AggregateValue::Count(0)
        );
        assert_eq!(
            scalar(&rep, AggregateKind::AvgDistinct(AttrId(0))).unwrap(),
            AggregateValue::Avg(None)
        );
        assert!(grouped(&rep, AggregateKind::Count, &[AttrId(0)])
            .unwrap()
            .is_empty());
    }

    #[test]
    fn nullary_forest_counts_one_tuple() {
        let rep = FRep::empty(FTree::new(vec![]));
        assert_eq!(
            scalar(&rep, AggregateKind::Count).unwrap(),
            AggregateValue::Count(1)
        );
        // No attribute exists to aggregate over.
        assert!(scalar(&rep, AggregateKind::Sum(AttrId(0))).is_err());
    }

    #[test]
    fn unknown_and_projected_attributes_are_rejected() {
        let rep = example3();
        assert!(matches!(
            scalar(&rep, AggregateKind::Sum(AttrId(9))),
            Err(FdbError::AttributeNotInQuery { .. })
        ));
        assert!(matches!(
            scalar(&rep, AggregateKind::CountDistinct(AttrId(9))),
            Err(FdbError::AttributeNotInQuery { .. })
        ));
        // Projecting B away removes its exhausted leaf from the tree: the
        // attribute no longer occurs at all.
        let mut projected = rep.clone();
        crate::ops::project(&mut projected, &attrs(&[0])).unwrap();
        assert!(matches!(
            scalar(&projected, AggregateKind::Min(AttrId(1))),
            Err(FdbError::AttributeNotInQuery { .. })
        ));
    }

    #[test]
    fn entries_with_empty_children_contribute_nothing() {
        // A=1 has an empty B-union (unpruned): only A=2's tuple counts.
        let edges = vec![DepEdge::new("R", attrs(&[0, 1]), 2)];
        let mut tree = FTree::new(edges);
        let a = tree.add_node(attrs(&[0]), None).unwrap();
        let b = tree.add_node(attrs(&[1]), Some(a)).unwrap();
        let union = Union::new(
            a,
            vec![
                Entry {
                    value: Value::new(1),
                    children: vec![Union::empty(b)],
                },
                Entry {
                    value: Value::new(2),
                    children: vec![Union::new(b, vec![Entry::leaf(Value::new(7))])],
                },
            ],
        );
        let rep = FRep::from_parts(tree, vec![union]).unwrap();
        assert_eq!(
            scalar(&rep, AggregateKind::Count).unwrap(),
            AggregateValue::Count(1)
        );
        assert_eq!(
            scalar(&rep, AggregateKind::Min(AttrId(0))).unwrap(),
            AggregateValue::Min(Some(Value::new(2)))
        );
        assert_eq!(
            scalar(&rep, AggregateKind::Max(AttrId(1))).unwrap(),
            AggregateValue::Max(Some(Value::new(7)))
        );
        // The dead branch contributes no distinct values either.
        assert_eq!(
            scalar(&rep, AggregateKind::CountDistinct(AttrId(0))).unwrap(),
            AggregateValue::Count(1)
        );
        // The dead group is omitted entirely — from both group shapes.
        let rows = grouped(&rep, AggregateKind::Count, &[AttrId(0)]).unwrap();
        assert_eq!(rows, vec![(key(&[2]), AggregateValue::Count(1))]);
        let rows = grouped(&rep, AggregateKind::Count, &[AttrId(0), AttrId(1)]).unwrap();
        assert_eq!(rows, vec![(key(&[2, 7]), AggregateValue::Count(1))]);
    }

    #[test]
    fn class_attribute_feeds_from_its_node_values() {
        // A node labelled {A, B}: both attributes aggregate over the same
        // entry values.
        let edges = vec![DepEdge::new("R", attrs(&[0, 1]), 2)];
        let mut tree = FTree::new(edges);
        let ab = tree.add_node(attrs(&[0, 1]), None).unwrap();
        let u = Union::new(
            ab,
            vec![Entry::leaf(Value::new(3)), Entry::leaf(Value::new(9))],
        );
        let rep = FRep::from_parts(tree, vec![u]).unwrap();
        for attr in [AttrId(0), AttrId(1)] {
            assert_eq!(
                scalar(&rep, AggregateKind::Sum(attr)).unwrap(),
                AggregateValue::Sum(12)
            );
        }
        // Both class attributes share one key slot: the key repeats the
        // node value, once per requested attribute.
        let rows = grouped(&rep, AggregateKind::Count, &[AttrId(0), AttrId(1)]).unwrap();
        assert_eq!(
            rows,
            vec![
                (key(&[3, 3]), AggregateValue::Count(1)),
                (key(&[9, 9]), AggregateValue::Count(1)),
            ]
        );
    }

    #[test]
    fn product_of_roots_multiplies_counts_and_scales_sums() {
        // (⟨A:1⟩ ∪ ⟨A:2⟩) × (⟨B:5⟩ ∪ ⟨B:6⟩ ∪ ⟨B:7⟩): 6 tuples.
        let edges = vec![
            DepEdge::new("R", attrs(&[0]), 2),
            DepEdge::new("S", attrs(&[1]), 3),
        ];
        let mut tree = FTree::new(edges);
        let a = tree.add_node(attrs(&[0]), None).unwrap();
        let b = tree.add_node(attrs(&[1]), None).unwrap();
        let ua = Union::new(
            a,
            vec![Entry::leaf(Value::new(1)), Entry::leaf(Value::new(2))],
        );
        let ub = Union::new(
            b,
            vec![
                Entry::leaf(Value::new(5)),
                Entry::leaf(Value::new(6)),
                Entry::leaf(Value::new(7)),
            ],
        );
        let rep = FRep::from_parts(tree, vec![ua, ub]).unwrap();
        assert_eq!(
            scalar(&rep, AggregateKind::Count).unwrap(),
            AggregateValue::Count(6)
        );
        // Each A value occurs 3 times: sum_A = (1+2)·3 = 9.
        assert_eq!(
            scalar(&rep, AggregateKind::Sum(AttrId(0))).unwrap(),
            AggregateValue::Sum(9)
        );
        // Each B value occurs twice: sum_B = (5+6+7)·2 = 36.
        assert_eq!(
            scalar(&rep, AggregateKind::Sum(AttrId(1))).unwrap(),
            AggregateValue::Sum(36)
        );
        // Multiplicities never enter the DISTINCT kinds: B∈{5,6,7} even
        // though every value occurs twice.
        assert_eq!(
            scalar(&rep, AggregateKind::CountDistinct(AttrId(1))).unwrap(),
            AggregateValue::Count(3)
        );
        assert_eq!(
            scalar(&rep, AggregateKind::SumDistinct(AttrId(1))).unwrap(),
            AggregateValue::Sum(18)
        );
        // Group by B (a root attribute): every group has 2 tuples.
        let rows = grouped(&rep, AggregateKind::Avg(AttrId(0)), &[AttrId(1)]).unwrap();
        assert_eq!(rows.len(), 3);
        for (_, v) in rows {
            assert_eq!(v, AggregateValue::Avg(Some(AvgValue { sum: 3, count: 2 })));
        }
    }

    #[test]
    fn avg_overflow_is_reported_count_keeps_wrapping() {
        // 128 independent roots of 2 entries each: the true count is
        // 2^128, which wraps to exactly 0.  COUNT keeps its documented
        // modular result; AVG refuses to divide wrapped operands.
        let mut edges = Vec::new();
        for i in 0..128u32 {
            edges.push(DepEdge::new(format!("R{i}"), attrs(&[i]), 2));
        }
        let mut tree = FTree::new(edges);
        let mut unions = Vec::new();
        for i in 0..128u32 {
            let n = tree.add_node(attrs(&[i]), None).unwrap();
            unions.push(Union::new(
                n,
                vec![Entry::leaf(Value::new(1)), Entry::leaf(Value::new(2))],
            ));
        }
        let rep = FRep::from_parts(tree, unions).unwrap();
        assert_eq!(
            scalar(&rep, AggregateKind::Count).unwrap(),
            AggregateValue::Count(0)
        );
        assert!(matches!(
            scalar(&rep, AggregateKind::Avg(AttrId(0))),
            Err(FdbError::AggregateOverflow { .. })
        ));
        // The DISTINCT average never multiplies counts: still exact.
        assert_eq!(
            scalar(&rep, AggregateKind::AvgDistinct(AttrId(0))).unwrap(),
            AggregateValue::Avg(Some(AvgValue { sum: 3, count: 2 }))
        );
    }

    #[test]
    fn dead_branch_overflow_never_taints_avg() {
        // Root A with two entries and 129 child nodes.  Under A=1 the first
        // 128 children have two entries each — their product counts 2^128
        // tuples, which wraps the 128-bit count to 0 with the overflow bit
        // set — and the 129th child is an empty union that annihilates the
        // whole branch.  Under A=2 every child is a single entry: one live
        // tuple.  AVG must succeed even though the dead branch wrapped its
        // count before being annihilated.
        let mut edges = vec![DepEdge::new("R", attrs(&[0]), 2)];
        for i in 1..=129u32 {
            edges.push(DepEdge::new(format!("S{i}"), attrs(&[0, i]), 2));
        }
        let mut tree = FTree::new(edges);
        let a = tree.add_node(attrs(&[0]), None).unwrap();
        let mut kids = Vec::new();
        for i in 1..=129u32 {
            kids.push(tree.add_node(attrs(&[i]), Some(a)).unwrap());
        }
        let dead_children: Vec<Union> = kids
            .iter()
            .enumerate()
            .map(|(i, &k)| {
                if i + 1 == kids.len() {
                    Union::empty(k)
                } else {
                    Union::new(
                        k,
                        vec![
                            Entry {
                                value: Value::new(1),
                                children: vec![],
                            },
                            Entry {
                                value: Value::new(2),
                                children: vec![],
                            },
                        ],
                    )
                }
            })
            .collect();
        let live_children: Vec<Union> = kids
            .iter()
            .map(|&k| {
                Union::new(
                    k,
                    vec![Entry {
                        value: Value::new(5),
                        children: vec![],
                    }],
                )
            })
            .collect();
        let union = Union::new(
            a,
            vec![
                Entry {
                    value: Value::new(1),
                    children: dead_children,
                },
                Entry {
                    value: Value::new(2),
                    children: live_children,
                },
            ],
        );
        let rep = FRep::from_parts(tree, vec![union]).unwrap();
        assert_eq!(
            scalar(&rep, AggregateKind::Count).unwrap(),
            AggregateValue::Count(1)
        );
        assert_eq!(
            scalar(&rep, AggregateKind::Avg(AttrId(0))).unwrap(),
            AggregateValue::Avg(Some(AvgValue { sum: 2, count: 1 }))
        );
    }

    /// A 10 000-value leaf: the `DISTINCT` kinds take its value slice as the
    /// set, and a union of as many entries over an inner node merges its
    /// singletons by concatenation — both linear, both exact.
    #[test]
    fn distinct_over_a_wide_union_agrees_with_enumeration() {
        const N: u64 = 10_000;
        let edges = vec![DepEdge::new("R", attrs(&[0, 1]), N)];
        let mut tree = FTree::new(edges);
        let a = tree.add_node(attrs(&[0]), None).unwrap();
        let b = tree.add_node(attrs(&[1]), Some(a)).unwrap();
        let leaf = |node, values: std::ops::Range<u64>| {
            Union::new(
                node,
                values.map(|v| Entry::leaf(Value::new(v * 3))).collect(),
            )
        };
        let wide_leaf = Union::new(
            a,
            vec![Entry {
                value: Value::new(1),
                children: vec![leaf(b, 0..N)],
            }],
        );
        let wide_inner = Union::new(
            a,
            (0..N)
                .map(|v| Entry {
                    value: Value::new(v),
                    children: vec![leaf(b, v % 7..v % 7 + 1)],
                })
                .collect(),
        );
        for root in [wide_leaf, wide_inner] {
            let rep = FRep::from_parts(tree.clone(), vec![root]).unwrap();
            for attr in [AttrId(0), AttrId(1)] {
                for kind in [
                    AggregateKind::CountDistinct(attr),
                    AggregateKind::SumDistinct(attr),
                    AggregateKind::AvgDistinct(attr),
                ] {
                    assert_eq!(
                        evaluate_ctx(&rep, kind, &[], &ExecCtx::unlimited()).unwrap(),
                        by_enumeration(&rep, kind, &[]).unwrap(),
                        "{kind}"
                    );
                }
            }
        }
    }

    /// A chain A0 → … → A(depth−1) whose every union has the entries 1 and 2,
    /// both pointing at the one union below: a valid arena (every union
    /// reachable, indices topological) that shares unions, as a decoded
    /// snapshot may.  It represents `2^depth` tuples.
    fn shared_chain(depth: u32) -> FRep {
        use crate::store::{Store, UnionRec};
        let edges = (0..depth)
            .map(|i| DepEdge::new(format!("R{i}"), attrs(&[i]), 2))
            .collect();
        let mut tree = FTree::new(edges);
        let mut unions = Vec::new();
        let mut parent = None;
        for i in 0..depth {
            let node = tree.add_node(attrs(&[i]), parent).unwrap();
            parent = Some(node);
            unions.push(UnionRec {
                node,
                entries_start: 2 * i,
                entries_len: 2,
            });
        }
        // Both entries of union i share kid slot i, which holds union i + 1;
        // the leaf's entries carry the kid watermark, depth − 1.
        let values = (0..depth).flat_map(|_| [Value::new(1), Value::new(2)]);
        let kids_starts = (0..depth).flat_map(|i| [i, i]).collect();
        let store = Store::from_arena_parts(
            unions,
            values.collect(),
            kids_starts,
            (1..depth).collect(),
            vec![0],
        );
        store.validate(&tree).unwrap();
        FRep::from_store(tree, store)
    }

    /// A union shared between entries is folded and charged once: the fold
    /// stays linear in the arena, not in the tuples.
    #[test]
    fn an_arena_that_shares_unions_is_folded_once_per_union() {
        let rep = shared_chain(4);
        for kind in [
            AggregateKind::Count,
            AggregateKind::Sum(AttrId(3)),
            AggregateKind::Min(AttrId(1)),
            AggregateKind::CountDistinct(AttrId(2)),
        ] {
            for group in [&[][..], &[AttrId(0)], &[AttrId(0), AttrId(1)]] {
                assert_eq!(
                    evaluate_ctx(&rep, kind, group, &ExecCtx::unlimited()).unwrap(),
                    by_enumeration(&rep, kind, group).unwrap(),
                    "{kind} by {group:?}"
                );
            }
        }
        // 2^64 tuples; every union charged 1 + 2 units exactly once.
        let rep = shared_chain(64);
        let ctx = ExecCtx::new(&fdb_common::QueryLimits::unlimited().with_budget(64 * 3));
        assert_eq!(
            evaluate_ctx(&rep, AggregateKind::Sum(AttrId(63)), &[], &ctx).unwrap(),
            AggregateResult::Scalar(AggregateValue::Sum(3 << 63))
        );
        assert_eq!(ctx.budget_remaining(), 0);
        assert_eq!(
            scalar(&rep, AggregateKind::Count).unwrap(),
            AggregateValue::Count(1 << 64)
        );
        // Grouped by the leaf, and by the root and the leaf, the keyed fold
        // memoises a revisited union's rows: a union above the leaf is
        // folded at most twice and then replayed.  On top of the 64 × 3
        // units of the unions, union 0 builds 4 rows, unions 1 to 61 build
        // 4 rows on each of their two folds and the second replays the union
        // below twice (2 rows each), union 62 builds 4 + 4 rows, and the
        // scaffold crosses the root's rows.  Refolding every revisit instead
        // builds 2^64 rows.
        let key = |values: &[u64]| values.iter().map(|&v| Value::new(v)).collect::<Vec<_>>();
        for (group, groups, units) in [
            (
                vec![AttrId(63)],
                vec![(key(&[1]), 1 << 63), (key(&[2]), 1 << 63)],
                64 * 3 + 4 + 61 * 12 + 8 + 2,
            ),
            (
                vec![AttrId(0), AttrId(63)],
                [[1, 1], [1, 2], [2, 1], [2, 2]]
                    .map(|k| (key(&k), 1 << 62))
                    .to_vec(),
                64 * 3 + 4 + 61 * 12 + 8 + 4,
            ),
        ] {
            let ctx = ExecCtx::new(&fdb_common::QueryLimits::unlimited().with_budget(units));
            let rows = groups
                .into_iter()
                .map(|(k, n)| (k, AggregateValue::Count(n)))
                .collect();
            assert_eq!(
                evaluate_ctx(&rep, AggregateKind::Count, &group, &ctx).unwrap(),
                AggregateResult::Groups(rows),
                "by {group:?}"
            );
            assert_eq!(ctx.budget_remaining(), 0, "by {group:?}");
        }
    }
}
