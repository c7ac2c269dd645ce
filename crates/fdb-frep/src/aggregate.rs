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
//! each as a **single bottom-up pass** over the arena's topological index
//! order — the same shape as [`FRep::tuple_count`], with no recursion and no
//! per-node allocation beyond one accumulator per union.  Group-by
//! ([`evaluate_ctx`]) accepts any chain of attributes whose nodes form
//! a prefix of a root-to-leaf path of the f-tree: the pass descends the
//! chain, so groups are the value combinations along the path, emitted in
//! lexicographic (nested ascending) key order.  Grouping on attributes that
//! do *not* form such a chain is rejected here; the engine restructures the
//! tree first (or falls back to the flat oracle) — see `fdb-core`.
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
//!   silently wrong, so [`Acc::finish`] reports
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
//! [`evaluate_ctx`] reads a frozen arena.  The plan executor offers a second
//! entry point, [`crate::ops::execute_fused_aggregate_ctx`], that evaluates
//! the same aggregates directly on the overlay — an aggregate is one more
//! consumer of the overlay that never needs the final arena at all, so an
//! aggregate query pays zero final-arena emission.  `fdb-plan` routes every
//! non-empty aggregate plan through that entry point.

use crate::frep::FRep;
use crate::store::Store;
use fdb_common::limits::CHECK_INTERVAL;
use fdb_common::{failpoint, AttrId, ComparisonOp, ExecCtx, FdbError, Result, Value};
use fdb_ftree::{FTree, NodeId};

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
    /// therefore evaluated with [`DistinctAcc`] instead of [`Acc`]).
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

/// The algebra an aggregation pass folds with.  Two implementations: the
/// count-weighted semiring [`Acc`] (COUNT/SUM/MIN/MAX/AVG) and the sorted
/// value-set algebra [`DistinctAcc`] (the `DISTINCT` kinds).  Every walk in
/// this module and in the fused overlay is generic over this trait, so the
/// two algebras cannot drift structurally.
pub(crate) trait Accumulator: Clone {
    /// The accumulator of a union with no entries (identity of `add`).
    fn none() -> Self;
    /// The accumulator of the nullary relation `{⟨⟩}` (identity of
    /// `product`).
    fn one() -> Self;
    /// The accumulator of a single singleton `⟨A:v⟩`; `carries_attr` says
    /// whether the singleton's node carries the target attribute.
    fn singleton(value: Value, carries_attr: bool) -> Self;
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

/// The per-union accumulator of the count-weighted semiring: every
/// non-`DISTINCT` aggregate kind is computed from the same components, so
/// one pass serves them all (and the overlay walk in `ops::fuse` reuses it
/// unchanged).
#[derive(Clone, Copy, Debug)]
pub(crate) struct Acc {
    /// Number of tuples, modulo `2^128`.
    pub(crate) count: u128,
    /// Sum of the target attribute over the tuples, modulo `2^128`.
    pub(crate) sum: u128,
    /// Smallest target-attribute value among the tuples.
    pub(crate) min: Option<Value>,
    /// Largest target-attribute value among the tuples.
    pub(crate) max: Option<Value>,
    /// Exact emptiness, independent of the wrapping count.
    pub(crate) empty: bool,
    /// Sticky wrap indicator: some `count`/`sum` operation on a *live*
    /// branch overflowed 128 bits.  Invariant: `empty ⟹ !overflow` (a dead
    /// branch contributes exact zeros, so its history is irrelevant).
    pub(crate) overflow: bool,
}

impl Accumulator for Acc {
    fn none() -> Acc {
        Acc {
            count: 0,
            sum: 0,
            min: None,
            max: None,
            empty: true,
            overflow: false,
        }
    }

    fn one() -> Acc {
        Acc {
            count: 1,
            sum: 0,
            min: None,
            max: None,
            empty: false,
            overflow: false,
        }
    }

    fn singleton(value: Value, carries_attr: bool) -> Acc {
        Acc {
            count: 1,
            sum: if carries_attr { value.raw() as u128 } else { 0 },
            min: carries_attr.then_some(value),
            max: carries_attr.then_some(value),
            empty: false,
            overflow: false,
        }
    }

    /// The target attribute labels at most one of the two factors, so at
    /// most one `min`/`max` side is `Some`.
    fn product(self, other: Acc) -> Acc {
        let empty = self.empty || other.empty;
        let (count, oc) = self.count.overflowing_mul(other.count);
        let (lhs, ol) = self.sum.overflowing_mul(other.count);
        let (rhs, or_) = other.sum.overflowing_mul(self.count);
        let (sum, os) = lhs.overflowing_add(rhs);
        Acc {
            count,
            sum,
            // At most one side ranges over the target attribute; an empty
            // factor annihilates the whole product.
            min: if empty { None } else { self.min.or(other.min) },
            max: if empty { None } else { self.max.or(other.max) },
            empty,
            // An empty factor has count = sum = 0, so none of the four
            // operations above can wrap on a dead product: clearing the
            // flag keeps the `empty ⟹ !overflow` invariant without losing
            // a live wrap.
            overflow: !empty && (self.overflow || other.overflow || oc || ol || or_ || os),
        }
    }

    fn add(self, other: Acc) -> Acc {
        fn fold(a: Option<Value>, b: Option<Value>, min: bool) -> Option<Value> {
            match (a, b) {
                (Some(x), Some(y)) => Some(if min { x.min(y) } else { x.max(y) }),
                (x, y) => x.or(y),
            }
        }
        let (count, oc) = self.count.overflowing_add(other.count);
        let (sum, os) = self.sum.overflowing_add(other.sum);
        Acc {
            count,
            sum,
            min: fold(self.min, other.min, true),
            max: fold(self.max, other.max, false),
            empty: self.empty && other.empty,
            overflow: self.overflow || other.overflow || oc || os,
        }
    }

    fn is_empty(&self) -> bool {
        self.empty
    }

    fn finish(self, kind: AggregateKind) -> Result<AggregateValue> {
        match kind {
            AggregateKind::Count => Ok(AggregateValue::Count(if self.empty {
                0
            } else {
                self.count
            })),
            AggregateKind::Sum(_) => Ok(AggregateValue::Sum(if self.empty { 0 } else { self.sum })),
            AggregateKind::Min(_) => Ok(AggregateValue::Min(self.min)),
            AggregateKind::Max(_) => Ok(AggregateValue::Max(self.max)),
            AggregateKind::Avg(_) => {
                if self.overflow && !self.empty {
                    return Err(FdbError::AggregateOverflow {
                        detail: format!("{kind}: 128-bit sum or count wrapped"),
                    });
                }
                Ok(AggregateValue::Avg((!self.empty).then_some(AvgValue {
                    sum: self.sum,
                    count: self.count,
                })))
            }
            AggregateKind::CountDistinct(_)
            | AggregateKind::SumDistinct(_)
            | AggregateKind::AvgDistinct(_) => {
                unreachable!("DISTINCT kinds are dispatched to DistinctAcc")
            }
        }
    }
}

/// The sorted value-set accumulator behind the `DISTINCT` aggregate kinds:
/// tracks the set of target-attribute values among the represented tuples
/// (and the exact emptiness of the sub-relation), ignoring multiplicities
/// entirely.  Unions and products both merge the sorted sets; an empty
/// factor annihilates a product's set exactly as it zeroes a count.
#[derive(Clone, Debug)]
pub(crate) struct DistinctAcc {
    /// Distinct target-attribute values, sorted ascending, no duplicates.
    /// Invariant: `empty ⟹ values.is_empty()`.
    values: Vec<Value>,
    /// Exact emptiness of the accumulated sub-relation.
    empty: bool,
}

/// Sorted-merge union of two sorted deduplicated value runs.
fn merge_distinct(a: &[Value], b: &[Value]) -> Vec<Value> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

impl Accumulator for DistinctAcc {
    fn none() -> DistinctAcc {
        DistinctAcc {
            values: Vec::new(),
            empty: true,
        }
    }

    fn one() -> DistinctAcc {
        DistinctAcc {
            values: Vec::new(),
            empty: false,
        }
    }

    fn singleton(value: Value, carries_attr: bool) -> DistinctAcc {
        DistinctAcc {
            values: if carries_attr {
                vec![value]
            } else {
                Vec::new()
            },
            empty: false,
        }
    }

    fn product(self, other: DistinctAcc) -> DistinctAcc {
        let empty = self.empty || other.empty;
        DistinctAcc {
            // The target attribute labels exactly one factor, but the
            // general sorted merge is correct (and cheap) either way; an
            // empty factor annihilates: no tuples, hence no values.
            values: if empty {
                Vec::new()
            } else {
                merge_distinct(&self.values, &other.values)
            },
            empty,
        }
    }

    fn add(self, other: DistinctAcc) -> DistinctAcc {
        DistinctAcc {
            values: merge_distinct(&self.values, &other.values),
            empty: self.empty && other.empty,
        }
    }

    fn is_empty(&self) -> bool {
        self.empty
    }

    fn finish(self, kind: AggregateKind) -> Result<AggregateValue> {
        // At most 2^64 distinct 64-bit values, each below 2^64: the exact
        // sum stays below 2^128, so no wrapping is possible here.
        let sum = || self.values.iter().fold(0u128, |s, v| s + v.raw() as u128);
        match kind {
            AggregateKind::CountDistinct(_) => Ok(AggregateValue::Count(self.values.len() as u128)),
            AggregateKind::SumDistinct(_) => Ok(AggregateValue::Sum(sum())),
            AggregateKind::AvgDistinct(_) => {
                Ok(AggregateValue::Avg((!self.values.is_empty()).then(|| {
                    AvgValue {
                        sum: sum(),
                        count: self.values.len() as u128,
                    }
                })))
            }
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

/// A group-by attribute chain resolved against a concrete f-tree: the nodes
/// of the attributes form a prefix of a root-to-leaf path.
#[derive(Clone, Debug)]
pub(crate) struct GroupPath {
    /// The distinct nodes along the chain, outermost (a root) first; each
    /// subsequent node is a child of its predecessor.
    pub(crate) path: Vec<NodeId>,
    /// For each requested group-by attribute (in request order), the index
    /// into `path` of the node that carries it — attributes of one class
    /// share a slot.
    pub(crate) key_slots: Vec<usize>,
}

/// Resolves a group-by attribute chain: every attribute must be visible,
/// the first attribute's node must be a **root** of the f-tree, and each
/// subsequent attribute's node must be the same node as (class sibling) or
/// a child of the previous one.  Chains that do not satisfy this are
/// rejected with [`FdbError::InvalidOperator`]; the engine reacts by
/// restructuring the f-tree so they do (or falling back to enumeration).
pub(crate) fn resolve_group_path(tree: &FTree, group_by: &[AttrId]) -> Result<GroupPath> {
    let mut path: Vec<NodeId> = Vec::new();
    let mut key_slots = Vec::with_capacity(group_by.len());
    for &attr in group_by {
        let Some(node) = tree.node_of_attr(attr) else {
            return Err(FdbError::AttributeNotInQuery {
                attr: format!("{attr}"),
            });
        };
        if !tree.visible_attrs(node).contains(&attr) {
            return Err(FdbError::InvalidOperator {
                detail: format!("group-by over projected-away attribute {attr}"),
            });
        }
        match path.last() {
            None => {
                if tree.parent(node).is_some() {
                    return Err(FdbError::InvalidOperator {
                        detail: format!(
                            "group-by attribute {attr} labels non-root node {node}; \
                             the group-by chain must start at a root"
                        ),
                    });
                }
                path.push(node);
            }
            Some(&prev) if prev == node => {}
            Some(&prev) => {
                if tree.parent(node) != Some(prev) {
                    return Err(FdbError::InvalidOperator {
                        detail: format!(
                            "group-by attribute {attr} (node {node}) does not extend the \
                             root path chain ending at node {prev}"
                        ),
                    });
                }
                path.push(node);
            }
        }
        key_slots.push(path.len() - 1);
    }
    Ok(GroupPath { path, key_slots })
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

    /// Whether an entry with the given value of a union over `node` passes
    /// every predicate.
    #[inline]
    pub(crate) fn passes(&self, node: NodeId, value: Value) -> bool {
        self.preds
            .iter()
            .all(|&(n, op, c)| n != node || op.eval(value, c))
    }
}

/// Accessor surface the shared aggregation scaffold walks — implemented by
/// the frozen arena ([`ArenaSource`]) and by the fused overlay (in
/// [`crate::ops::fuse`]).  `acc_of` yields the accumulator of a whole
/// (virtual) union; how it is produced — a precomputed flat pass or a
/// memoized recursive walk — is the implementor's business.  A source with
/// a non-trivial [`AggFilter`] must skip filtered-out entries in `acc_of`
/// itself; the scaffold applies the filter only to the group-path unions,
/// whose entries it folds directly.
pub(crate) trait AggSource<A: Accumulator> {
    /// A (virtual) union reference.
    type Id: Copy + PartialEq;
    /// The root unions, in root-list order.
    fn roots(&self) -> Vec<Self::Id>;
    /// The f-tree node a union ranges over.
    fn node_of(&self, v: Self::Id) -> NodeId;
    /// Number of entries.
    fn len(&self, v: Self::Id) -> u32;
    /// The `i`-th value (entries are sorted increasing).
    fn value(&self, v: Self::Id, i: u32) -> Value;
    /// Number of kid slots per entry.
    fn kid_count(&self, v: Self::Id) -> u32;
    /// The child reference of entry `i` at kid position `k`.
    fn kid(&self, v: Self::Id, i: u32, k: u32) -> Self::Id;
    /// The accumulator of the whole union.  Fallible so a source that folds
    /// lazily (the overlay walk) can observe the governance context and
    /// abort mid-fold; the precomputed arena source never errs.
    fn acc_of(&mut self, v: Self::Id, target: AggTarget) -> Result<A>;
}

/// The recursive group-path descent behind grouped evaluation: walks the
/// union over `path[depth]`, extending the group key with each live entry's
/// value.  `prefix` carries the product of everything independent of the
/// remaining path suffix: the ancestor singletons, their off-path children,
/// and the other root unions.  Because each union's entries are sorted
/// ascending and the recursion nests in path order, rows come out in
/// lexicographic ascending key order — the same order a `BTreeMap` keyed by
/// the key vector produces.
#[allow(clippy::too_many_arguments)]
fn grouped_descend<A: Accumulator, S: AggSource<A>>(
    src: &mut S,
    gp: &GroupPath,
    depth: usize,
    u: S::Id,
    prefix: &A,
    target: AggTarget,
    kind: AggregateKind,
    filter: &AggFilter,
    key: &mut Vec<Value>,
    rows: &mut Vec<(Vec<Value>, AggregateValue)>,
    ctx: &ExecCtx,
) -> Result<()> {
    let node = gp.path[depth];
    let len = src.len(u);
    ctx.charge(1 + len as u64)?;
    if len == 0 {
        return Ok(());
    }
    let kid_count = src.kid_count(u);
    // Which kid slot continues the chain (fixed per union: every entry's
    // kid at a slot ranges over the same child node).
    let next_slot = if depth + 1 < gp.path.len() {
        let want = gp.path[depth + 1];
        let slot = (0..kid_count).find(|&k| src.node_of(src.kid(u, 0, k)) == want);
        match slot {
            Some(k) => Some(k),
            None => {
                return Err(FdbError::MalformedRepresentation {
                    detail: format!("no child union over node {want} under node {node}"),
                })
            }
        }
    } else {
        None
    };
    for i in 0..len {
        let value = src.value(u, i);
        // The scaffold folds the group-path entries itself, so the folded
        // trailing selections apply here too: a filtered-out group is
        // omitted exactly like a group whose product is empty.
        if !filter.passes(node, value) {
            continue;
        }
        let mut acc = prefix
            .clone()
            .product(A::singleton(value, target.carried_by(node)));
        for k in 0..kid_count {
            if Some(k) == next_slot {
                continue;
            }
            acc = acc.product(src.acc_of(src.kid(u, i, k), target)?);
        }
        if acc.is_empty() {
            // A dead off-path factor annihilates every tuple below this
            // entry: no group under it can surface.
            continue;
        }
        key[depth] = value;
        match next_slot {
            None => rows.push((
                gp.key_slots.iter().map(|&s| key[s]).collect(),
                acc.finish(kind)?,
            )),
            Some(k) => grouped_descend(
                src,
                gp,
                depth + 1,
                src.kid(u, i, k),
                &acc,
                target,
                kind,
                filter,
                key,
                rows,
                ctx,
            )?,
        }
    }
    Ok(())
}

/// The shared evaluation scaffold over any [`AggSource`] — the one place
/// that implements the aggregate semantics on top of the accumulators, so
/// the arena pass and the overlay pass cannot drift apart:
///
/// * scalar: the product of the root accumulators;
/// * grouped: one row per live combination of group-path values (see
///   [`grouped_descend`]), each multiplied with the product of the *other*
///   roots and the off-path factors, rows whose product is empty omitted.
pub(crate) fn evaluate_source<A: Accumulator, S: AggSource<A>>(
    src: &mut S,
    tree: &FTree,
    kind: AggregateKind,
    group_by: &[AttrId],
    filter: &AggFilter,
    ctx: &ExecCtx,
) -> Result<AggregateResult> {
    let target = AggTarget::resolve(tree, kind)?;
    let roots = src.roots();
    if group_by.is_empty() {
        let mut total = A::one();
        for &r in &roots {
            total = total.product(src.acc_of(r, target)?);
        }
        return Ok(AggregateResult::Scalar(total.finish(kind)?));
    }
    let gp = resolve_group_path(tree, group_by)?;
    let group_root = roots
        .iter()
        .copied()
        .find(|&r| src.node_of(r) == gp.path[0])
        .expect("validated representation: one root union per root node");
    // The independent context: the product of every other root union.
    let mut context = A::one();
    for &r in &roots {
        if r != group_root {
            context = context.product(src.acc_of(r, target)?);
        }
    }
    let mut key = vec![Value::new(0); gp.path.len()];
    let mut rows = Vec::new();
    grouped_descend(
        src, &gp, 0, group_root, &context, target, kind, filter, &mut key, &mut rows, ctx,
    )?;
    Ok(AggregateResult::Groups(rows))
}

/// The frozen arena as an aggregation source: accumulators come from one
/// flat reverse loop over the union arena ([`union_accs`]), everything else
/// is a plain arena read.
struct ArenaSource<'a, A> {
    store: &'a Store,
    kid_counts: Vec<u32>,
    accs: Vec<A>,
}

impl<A: Accumulator> AggSource<A> for ArenaSource<'_, A> {
    type Id = u32;

    fn roots(&self) -> Vec<u32> {
        self.store.roots.clone()
    }

    fn node_of(&self, v: u32) -> NodeId {
        self.store.unions[v as usize].node
    }

    fn len(&self, v: u32) -> u32 {
        self.store.union_len(v)
    }

    fn value(&self, v: u32, i: u32) -> Value {
        self.store.value_slice(v)[i as usize]
    }

    fn kid_count(&self, v: u32) -> u32 {
        self.kid_counts[self.store.unions[v as usize].node.index()]
    }

    fn kid(&self, v: u32, i: u32, k: u32) -> u32 {
        self.store.kid(v, i, k)
    }

    fn acc_of(&mut self, v: u32, _target: AggTarget) -> Result<A> {
        Ok(self.accs[v as usize].clone())
    }
}

/// The single flat reverse loop: one accumulator per union, children before
/// parents thanks to the arena's topological index order — the exact shape
/// of [`FRep::tuple_count`].
fn union_accs<A: Accumulator>(
    store: &Store,
    kid_counts: &[u32],
    target: AggTarget,
    ctx: &ExecCtx,
) -> Result<Vec<A>> {
    let mut accs = vec![A::none(); store.unions.len()];
    // Batch the per-union charges up to the context's own check interval:
    // the fold body is a handful of adds per record, so charging record by
    // record would dominate it, while one flush per interval keeps the
    // same cooperative granularity at negligible cost.
    let mut pending = 0u64;
    for uid in (0..store.unions.len()).rev() {
        let rec = store.unions[uid];
        pending += 1 + rec.entries_len as u64;
        if pending >= CHECK_INTERVAL {
            ctx.charge(pending)?;
            pending = 0;
        }
        let carries = target.carried_by(rec.node);
        let kid_count = kid_counts[rec.node.index()] as usize;
        let mut total = A::none();
        for e in rec.entries_start..rec.entries_start + rec.entries_len {
            let mut acc = A::singleton(store.value_at(e), carries);
            let kids_start = store.kids_start_at(e) as usize;
            for k in 0..kid_count {
                acc = acc.product(accs[store.kids[kids_start + k] as usize].clone());
            }
            total = total.add(acc);
        }
        accs[uid] = total;
    }
    ctx.charge(pending)?;
    Ok(accs)
}

/// [`evaluate_ctx`] monomorphised over one accumulator algebra.
fn evaluate_typed<A: Accumulator>(
    rep: &FRep,
    kind: AggregateKind,
    group_by: &[AttrId],
    ctx: &ExecCtx,
) -> Result<AggregateResult> {
    let target = AggTarget::resolve(rep.tree(), kind)?;
    let kid_counts = crate::store::kid_count_table(rep.tree());
    let accs = union_accs::<A>(rep.store(), &kid_counts, target, ctx)?;
    let mut src = ArenaSource {
        store: rep.store(),
        kid_counts,
        accs,
    };
    evaluate_source(
        &mut src,
        rep.tree(),
        kind,
        group_by,
        &AggFilter::default(),
        ctx,
    )
}

/// Evaluates an aggregate over the representation in one flat bottom-up
/// pass over the arena (see the module docs for the numeric semantics).
/// With an empty `group_by` the result is a scalar; otherwise `group_by` is
/// a root-path attribute chain and the result has one row per live
/// combination of the chain's values (lexicographic ascending key order),
/// each aggregated over the matching tuples, groups without tuples omitted.
///
/// The pass charges one unit per union record, so a deadline, budget or
/// cancellation flag interrupts the fold between unions with no partial
/// state (the aggregate never mutates the representation).
pub fn evaluate_ctx(
    rep: &FRep,
    kind: AggregateKind,
    group_by: &[AttrId],
    ctx: &ExecCtx,
) -> Result<AggregateResult> {
    failpoint!(ctx, "aggregate.fold");
    if kind.is_distinct() {
        evaluate_typed::<DistinctAcc>(rep, kind, group_by, ctx)
    } else {
        evaluate_typed::<Acc>(rep, kind, group_by, ctx)
    }
}

/// The materialise-then-aggregate reference evaluator: enumerates the
/// represented relation tuple by tuple with the constant-delay cursor and
/// folds the aggregate with plain collections — the plan a flat engine
/// would run.  Same wrapping 128-bit arithmetic as the one-pass evaluators
/// (and a `BTreeSet` per group for the `DISTINCT` kinds), so the results
/// agree bit for bit; the equivalence tests use it as the flat oracle and
/// the benchmarks as the timed baseline.  Unlike [`evaluate_ctx`], grouping
/// works on *any* visible attribute set in any order (the oracle pays the
/// flat enumeration anyway), and groups come out sorted ascending by key
/// vector with empty groups absent, matching [`evaluate_ctx`] whenever
/// the requested chain is evaluable there.
pub fn by_enumeration(
    rep: &FRep,
    kind: AggregateKind,
    group_by: &[AttrId],
) -> Result<AggregateResult> {
    by_enumeration_ctx(rep, kind, group_by, &ExecCtx::unlimited())
}

/// [`by_enumeration`] under a governance context — the engine's hash-group
/// fallback for grouping heads the chain planner refuses.  The tuple walk
/// charges one unit per enumerated tuple (like
/// [`crate::enumerate::materialize_ctx`]), so a request's deadline, budget
/// or cancellation flag bounds the enumerate-and-hash phase too.
pub fn by_enumeration_ctx(
    rep: &FRep,
    kind: AggregateKind,
    group_by: &[AttrId],
    ctx: &ExecCtx,
) -> Result<AggregateResult> {
    use crate::enumerate::for_each_tuple_ctx;
    use std::collections::{BTreeMap, BTreeSet};
    let visible = rep.visible_attrs();
    let col_of = |attr: AttrId| {
        visible
            .binary_search(&attr)
            .map_err(|_| FdbError::AttributeNotInQuery {
                attr: format!("{attr}"),
            })
    };
    let col = match kind.attr() {
        Some(attr) => Some(col_of(attr)?),
        None => None,
    };
    let gcols = group_by
        .iter()
        .map(|&g| col_of(g))
        .collect::<Result<Vec<_>>>()?;
    if kind.is_distinct() {
        // The hash-set oracle: one value set per group plus an exact
        // liveness bit (an empty relation has no groups anyway, but the
        // scalar case needs to distinguish "no tuples" for AVG).
        let dcol = col.expect("DISTINCT kinds always carry an attribute");
        let mut groups: BTreeMap<Vec<Value>, BTreeSet<Value>> = BTreeMap::new();
        for_each_tuple_ctx(rep, ctx, |t| {
            groups
                .entry(gcols.iter().map(|&c| t[c]).collect())
                .or_default()
                .insert(t[dcol]);
        })?;
        let finish = |set: BTreeSet<Value>| {
            DistinctAcc {
                values: set.into_iter().collect(),
                empty: false,
            }
            .finish(kind)
        };
        if group_by.is_empty() {
            let set = groups.into_values().next().unwrap_or_default();
            return Ok(AggregateResult::Scalar(finish(set)?));
        }
        return Ok(AggregateResult::Groups(
            groups
                .into_iter()
                .map(|(k, set)| Ok((k, finish(set)?)))
                .collect::<Result<Vec<_>>>()?,
        ));
    }
    let fold = |acc: &mut Acc, t: &[Value]| {
        let singleton = match col {
            Some(c) => Acc::singleton(t[c], true),
            None => Acc::one(),
        };
        *acc = acc.add(singleton);
    };
    if group_by.is_empty() {
        let mut acc = Acc::none();
        for_each_tuple_ctx(rep, ctx, |t| fold(&mut acc, t))?;
        return Ok(AggregateResult::Scalar(acc.finish(kind)?));
    }
    let mut groups: BTreeMap<Vec<Value>, Acc> = BTreeMap::new();
    for_each_tuple_ctx(rep, ctx, |t| {
        fold(
            groups
                .entry(gcols.iter().map(|&c| t[c]).collect())
                .or_insert_with(Acc::none),
            t,
        );
    })?;
    Ok(AggregateResult::Groups(
        groups
            .into_iter()
            .map(|(g, acc)| Ok((g, acc.finish(kind)?)))
            .collect::<Result<Vec<_>>>()?,
    ))
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
        // Grouping by a non-root attribute alone is rejected: the chain
        // must start at a root (the engine restructures first).
        assert!(grouped(&rep, AggregateKind::Count, &[AttrId(1)]).is_err());
        // So is a chain in child-before-parent order.
        assert!(grouped(&rep, AggregateKind::Count, &[AttrId(1), AttrId(0)]).is_err());
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
}
