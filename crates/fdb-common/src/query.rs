//! Select-project-join query descriptions.
//!
//! A query in the paper's formalism is `Q = π_P σ_φ (R_1 × … × R_n)` where
//! `φ` is a conjunction of equality conditions `A = B` between attributes and
//! comparisons `A θ c` between an attribute and a constant.  Equi-joins are
//! equality selections over a product, so a single [`Query`] value captures
//! joins, selections and projections uniformly.
//!
//! The module also provides the *attribute equivalence classes* induced by
//! the equality conditions (the transitive closure of `A = B` pairs), because
//! the nodes of every f-tree of the query are labelled by exactly those
//! classes.

use crate::catalog::{AttrId, Catalog, RelId};
use crate::error::{FdbError, Result};
use crate::value::Value;
use std::collections::{BTreeMap, BTreeSet};

/// Comparison operator for selections with a constant (`A θ c`).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ComparisonOp {
    /// `A = c`
    Eq,
    /// `A ≠ c`
    Ne,
    /// `A < c`
    Lt,
    /// `A ≤ c`
    Le,
    /// `A > c`
    Gt,
    /// `A ≥ c`
    Ge,
}

impl ComparisonOp {
    /// Evaluates the comparison for a concrete value.
    #[inline]
    pub fn eval(self, lhs: Value, rhs: Value) -> bool {
        match self {
            ComparisonOp::Eq => lhs == rhs,
            ComparisonOp::Ne => lhs != rhs,
            ComparisonOp::Lt => lhs < rhs,
            ComparisonOp::Le => lhs <= rhs,
            ComparisonOp::Gt => lhs > rhs,
            ComparisonOp::Ge => lhs >= rhs,
        }
    }
}

/// An equality condition `A = B` between two attributes (possibly of the same
/// relation, possibly of different relations — the latter is an equi-join).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct EqualityCondition {
    /// Left attribute.
    pub left: AttrId,
    /// Right attribute.
    pub right: AttrId,
}

impl EqualityCondition {
    /// Creates a new equality condition, normalising the operand order.
    pub fn new(a: AttrId, b: AttrId) -> Self {
        if a <= b {
            EqualityCondition { left: a, right: b }
        } else {
            EqualityCondition { left: b, right: a }
        }
    }
}

/// A selection with a constant, `A θ c`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ConstSelection {
    /// Attribute being compared.
    pub attr: AttrId,
    /// Comparison operator.
    pub op: ComparisonOp,
    /// Constant to compare against.
    pub value: Value,
}

/// An aggregate function of a query head.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AggregateFunc {
    /// `COUNT(*)` — number of result tuples.
    Count,
    /// `SUM(A)`.
    Sum,
    /// `MIN(A)`.
    Min,
    /// `MAX(A)`.
    Max,
    /// `AVG(A)`.
    Avg,
}

/// An aggregate query head: instead of returning the (factorised) result
/// relation, the query returns one aggregate value — or one per group when
/// `group_by` is non-empty.  The evaluation-level semantics (128-bit
/// wrapping `COUNT`/`SUM`, `None` for empty `MIN`/`MAX`/`AVG` groups,
/// value-set `DISTINCT` aggregates) live with the evaluator in `fdb-frep`'s
/// `aggregate` module.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct AggregateHead {
    /// The aggregate function.
    pub func: AggregateFunc,
    /// The aggregated attribute; `None` only for `COUNT`.
    pub attr: Option<AttrId>,
    /// `COUNT(DISTINCT A)` / `SUM(DISTINCT A)` / `AVG(DISTINCT A)`: the
    /// aggregate ranges over the *distinct* values of `attr` in the result
    /// instead of one contribution per tuple.  Requires `attr`; meaningless
    /// (and rejected) for `MIN`/`MAX`, which are insensitive to multiplicity.
    pub distinct: bool,
    /// Grouping attributes, in key order.  Empty means a scalar aggregate.
    /// Any visible attributes of the result group, wherever their nodes sit
    /// in its f-tree: the engine folds the groups bottom-up without
    /// restructuring the tree.
    pub group_by: Vec<AttrId>,
}

impl AggregateHead {
    /// `COUNT(*)`, optionally grouped.
    pub fn count() -> Self {
        AggregateHead {
            func: AggregateFunc::Count,
            attr: None,
            distinct: false,
            group_by: Vec::new(),
        }
    }

    /// An aggregate over an attribute.
    pub fn over(func: AggregateFunc, attr: AttrId) -> Self {
        AggregateHead {
            func,
            attr: Some(attr),
            distinct: false,
            group_by: Vec::new(),
        }
    }

    /// Appends a grouping attribute and returns the head for chaining; call
    /// repeatedly (outermost group first) for multi-attribute grouping.
    pub fn grouped_by(mut self, attr: AttrId) -> Self {
        self.group_by.push(attr);
        self
    }

    /// Marks the head as a `DISTINCT` aggregate and returns it for chaining.
    pub fn with_distinct(mut self) -> Self {
        self.distinct = true;
        self
    }
}

/// A select-project-join query `π_P σ_φ (R_1 × … × R_n)`.
#[derive(Clone, Debug)]
pub struct Query {
    /// Relations appearing in the product, in declaration order.
    pub relations: Vec<RelId>,
    /// Equality conditions between attributes (joins and self-selections).
    pub equalities: Vec<EqualityCondition>,
    /// Selections with constants.
    pub const_selections: Vec<ConstSelection>,
    /// Projection list.  `None` means "project onto all attributes".
    pub projection: Option<Vec<AttrId>>,
    /// Optional aggregate head: the aggregate asked for instead of the
    /// result relation.  Only [`Query::validate`] reads it, to check it
    /// against the catalogue: the engine takes a request's head from its
    /// own `Head` argument, and a flat source does not consult this field.
    pub aggregate: Option<AggregateHead>,
    /// `ORDER BY` attributes, outermost sort key first; empty means
    /// unordered.  Only [`Query::validate`] reads them, to check them
    /// against the catalogue: the engine takes a request's ordering from
    /// its own `Head` argument, and a flat source does not consult this
    /// field.
    pub order_by: Vec<AttrId>,
}

impl Query {
    /// Creates a query over the given relations with no conditions and the
    /// identity projection.
    pub fn product(relations: Vec<RelId>) -> Self {
        Query {
            relations,
            equalities: Vec::new(),
            const_selections: Vec::new(),
            projection: None,
            aggregate: None,
            order_by: Vec::new(),
        }
    }

    /// Adds an equality condition and returns the query for chaining.
    pub fn with_equality(mut self, a: AttrId, b: AttrId) -> Self {
        self.equalities.push(EqualityCondition::new(a, b));
        self
    }

    /// Adds a selection with a constant and returns the query for chaining.
    pub fn with_const_selection(mut self, attr: AttrId, op: ComparisonOp, value: Value) -> Self {
        self.const_selections
            .push(ConstSelection { attr, op, value });
        self
    }

    /// Sets the projection list and returns the query for chaining.
    pub fn with_projection(mut self, attrs: Vec<AttrId>) -> Self {
        self.projection = Some(attrs);
        self
    }

    /// Sets the aggregate head and returns the query for chaining.
    pub fn with_aggregate(mut self, head: AggregateHead) -> Self {
        self.aggregate = Some(head);
        self
    }

    /// Sets the `ORDER BY` attributes (outermost sort key first) and returns
    /// the query for chaining.
    pub fn with_order_by(mut self, attrs: Vec<AttrId>) -> Self {
        self.order_by = attrs;
        self
    }

    /// All attributes ranged over by the query (the attributes of all its
    /// relations), in ascending id order.
    pub fn all_attrs(&self, catalog: &Catalog) -> Vec<AttrId> {
        let mut attrs: Vec<AttrId> = self
            .relations
            .iter()
            .flat_map(|&r| catalog.rel_attrs(r).iter().copied())
            .collect();
        attrs.sort_unstable();
        attrs.dedup();
        attrs
    }

    /// The attributes the query projects onto (all attributes if the
    /// projection list is `None`), in ascending id order.
    pub fn output_attrs(&self, catalog: &Catalog) -> Vec<AttrId> {
        match &self.projection {
            Some(p) => {
                let mut attrs = p.clone();
                attrs.sort_unstable();
                attrs.dedup();
                attrs
            }
            None => self.all_attrs(catalog),
        }
    }

    /// Validates that the query is well-formed with respect to `catalog`:
    /// every referenced relation/attribute exists and every attribute used in
    /// a condition or projection belongs to one of the query's relations.
    pub fn validate(&self, catalog: &Catalog) -> Result<()> {
        for &rel in &self.relations {
            catalog.check_rel(rel)?;
        }
        let in_query: BTreeSet<AttrId> = self.all_attrs(catalog).into_iter().collect();
        let check = |attr: AttrId| -> Result<()> {
            catalog.check_attr(attr)?;
            if in_query.contains(&attr) {
                Ok(())
            } else {
                Err(FdbError::AttributeNotInQuery {
                    attr: catalog.qualified_attr_name(attr),
                })
            }
        };
        for eq in &self.equalities {
            check(eq.left)?;
            check(eq.right)?;
        }
        for sel in &self.const_selections {
            check(sel.attr)?;
        }
        if let Some(proj) = &self.projection {
            for &attr in proj {
                check(attr)?;
            }
        }
        if let Some(head) = &self.aggregate {
            match (head.func, head.attr) {
                // COUNT(*) needs no attribute, but one given must still
                // belong to the query.
                (AggregateFunc::Count, None) => {}
                (_, Some(attr)) => check(attr)?,
                (func, None) => {
                    return Err(FdbError::InvalidInput {
                        detail: format!("aggregate {func:?} requires an attribute"),
                    })
                }
            }
            if head.distinct {
                if head.attr.is_none() {
                    return Err(FdbError::InvalidInput {
                        detail: "DISTINCT aggregate requires an attribute".to_string(),
                    });
                }
                if matches!(head.func, AggregateFunc::Min | AggregateFunc::Max) {
                    return Err(FdbError::InvalidInput {
                        detail: format!(
                            "DISTINCT is meaningless for {:?}: the result is \
                             insensitive to multiplicity",
                            head.func
                        ),
                    });
                }
            }
            let mut seen_groups = BTreeSet::new();
            for &group in &head.group_by {
                check(group)?;
                if !seen_groups.insert(group) {
                    return Err(FdbError::InvalidInput {
                        detail: format!("duplicate group-by attribute {group}"),
                    });
                }
            }
        }
        let mut seen_order = BTreeSet::new();
        for &attr in &self.order_by {
            check(attr)?;
            if !seen_order.insert(attr) {
                return Err(FdbError::InvalidInput {
                    detail: format!("duplicate ORDER BY attribute {attr}"),
                });
            }
        }
        if !self.order_by.is_empty() && self.aggregate.is_some() {
            return Err(FdbError::InvalidInput {
                detail: "ORDER BY on an aggregate head is not supported \
                         (grouped results come out in group-key order already)"
                    .to_string(),
            });
        }
        Ok(())
    }

    /// Computes the attribute equivalence classes induced by the equality
    /// conditions: the finest partition of the query's attributes in which
    /// attributes related (transitively) by `A = B` conditions share a class.
    ///
    /// Classes are returned in ascending order of their smallest member, each
    /// class sorted ascending; this canonical order is relied upon by the
    /// f-tree construction.
    pub fn equivalence_classes(&self, catalog: &Catalog) -> Vec<BTreeSet<AttrId>> {
        let attrs = self.all_attrs(catalog);
        let mut uf = UnionFind::new(&attrs);
        for eq in &self.equalities {
            uf.union(eq.left, eq.right);
        }
        uf.classes()
    }
}

/// A small union-find over attribute ids, used to compute equivalence
/// classes of attributes under equality conditions.
#[derive(Clone, Debug)]
pub struct UnionFind {
    parent: BTreeMap<AttrId, AttrId>,
}

impl UnionFind {
    /// Creates a union-find where every listed attribute is its own class.
    pub fn new(attrs: &[AttrId]) -> Self {
        UnionFind {
            parent: attrs.iter().map(|&a| (a, a)).collect(),
        }
    }

    /// Finds the representative of an attribute's class (with path
    /// compression).
    pub fn find(&mut self, attr: AttrId) -> AttrId {
        let p = *self.parent.get(&attr).unwrap_or(&attr);
        if p == attr {
            return attr;
        }
        let root = self.find(p);
        self.parent.insert(attr, root);
        root
    }

    /// Unions the classes of two attributes.  Returns `true` if the two were
    /// previously in different classes.
    pub fn union(&mut self, a: AttrId, b: AttrId) -> bool {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra == rb {
            return false;
        }
        let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
        self.parent.insert(hi, lo);
        true
    }

    /// Returns the equivalence classes, canonically ordered.
    pub fn classes(&mut self) -> Vec<BTreeSet<AttrId>> {
        let keys: Vec<AttrId> = self.parent.keys().copied().collect();
        let mut by_root: BTreeMap<AttrId, BTreeSet<AttrId>> = BTreeMap::new();
        for attr in keys {
            let root = self.find(attr);
            by_root.entry(root).or_default().insert(attr);
        }
        by_root.into_values().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn catalog() -> Catalog {
        let mut cat = Catalog::new();
        cat.add_relation("R", &["A", "B"]);
        cat.add_relation("S", &["B", "C"]);
        cat.add_relation("T", &["C", "D"]);
        cat
    }

    #[test]
    fn all_and_output_attrs() {
        let cat = catalog();
        let q = Query::product(vec![RelId(0), RelId(1)]);
        assert_eq!(
            q.all_attrs(&cat),
            vec![AttrId(0), AttrId(1), AttrId(2), AttrId(3)]
        );
        let q = q.with_projection(vec![AttrId(3), AttrId(0), AttrId(3)]);
        assert_eq!(q.output_attrs(&cat), vec![AttrId(0), AttrId(3)]);
    }

    #[test]
    fn equivalence_classes_are_transitive() {
        let cat = catalog();
        // Chain join: R.B = S.B, S.C = T.C.
        let q = Query::product(vec![RelId(0), RelId(1), RelId(2)])
            .with_equality(AttrId(1), AttrId(2))
            .with_equality(AttrId(3), AttrId(4));
        let classes = q.equivalence_classes(&cat);
        assert_eq!(classes.len(), 4);
        assert!(classes.contains(&[AttrId(1), AttrId(2)].into_iter().collect()));
        assert!(classes.contains(&[AttrId(3), AttrId(4)].into_iter().collect()));
        assert!(classes.contains(&[AttrId(0)].into_iter().collect()));
        assert!(classes.contains(&[AttrId(5)].into_iter().collect()));
    }

    #[test]
    fn transitive_chain_collapses_to_one_class() {
        let cat = catalog();
        let q = Query::product(vec![RelId(0), RelId(1), RelId(2)])
            .with_equality(AttrId(1), AttrId(2))
            .with_equality(AttrId(2), AttrId(0))
            .with_equality(AttrId(0), AttrId(5));
        let classes = q.equivalence_classes(&cat);
        let big: BTreeSet<AttrId> = [AttrId(0), AttrId(1), AttrId(2), AttrId(5)]
            .into_iter()
            .collect();
        assert!(classes.contains(&big));
    }

    #[test]
    fn non_redundant_count_ignores_implied_equalities() {
        let cat = catalog();
        let q = Query::product(vec![RelId(0), RelId(1)])
            .with_equality(AttrId(1), AttrId(2))
            .with_equality(AttrId(2), AttrId(1)) // duplicate
            .with_equality(AttrId(1), AttrId(2)); // duplicate
                                                  // Each non-redundant equality merges two classes.
        let merged = q.all_attrs(&cat).len() - q.equivalence_classes(&cat).len();
        assert_eq!(merged, 1);
    }

    #[test]
    fn validate_rejects_foreign_attributes() {
        let cat = catalog();
        // T.D referenced but T not part of the query.
        let q = Query::product(vec![RelId(0), RelId(1)]).with_equality(AttrId(0), AttrId(5));
        assert!(matches!(
            q.validate(&cat),
            Err(FdbError::AttributeNotInQuery { .. })
        ));
        let ok = Query::product(vec![RelId(0), RelId(1)]).with_equality(AttrId(1), AttrId(2));
        assert!(ok.validate(&cat).is_ok());
    }

    #[test]
    fn aggregate_heads_validate() {
        let cat = catalog();
        let base = Query::product(vec![RelId(0), RelId(1)]);
        // COUNT needs no attribute.
        assert!(base
            .clone()
            .with_aggregate(AggregateHead::count())
            .validate(&cat)
            .is_ok());
        // SUM over an attribute of the query, grouped by another.
        let head = AggregateHead::over(AggregateFunc::Sum, AttrId(3)).grouped_by(AttrId(0));
        assert!(base.clone().with_aggregate(head).validate(&cat).is_ok());
        // SUM without an attribute is malformed.
        let head = AggregateHead {
            func: AggregateFunc::Sum,
            attr: None,
            distinct: false,
            group_by: Vec::new(),
        };
        assert!(matches!(
            base.clone().with_aggregate(head).validate(&cat),
            Err(FdbError::InvalidInput { .. })
        ));
        // Aggregating or grouping over a foreign attribute is rejected —
        // including a (superfluous) attribute on a COUNT head.
        let head = AggregateHead::over(AggregateFunc::Min, AttrId(5));
        assert!(base.clone().with_aggregate(head).validate(&cat).is_err());
        let head = AggregateHead::over(AggregateFunc::Count, AttrId(5));
        assert!(base.clone().with_aggregate(head).validate(&cat).is_err());
        let head = AggregateHead::count().grouped_by(AttrId(5));
        assert!(base.with_aggregate(head).validate(&cat).is_err());
    }

    #[test]
    fn distinct_and_multi_group_heads_validate() {
        let cat = catalog();
        let base = Query::product(vec![RelId(0), RelId(1)]);
        // COUNT(DISTINCT B), grouped by (A, C) — outermost group first.
        let head = AggregateHead::over(AggregateFunc::Count, AttrId(1))
            .with_distinct()
            .grouped_by(AttrId(0))
            .grouped_by(AttrId(3));
        assert!(base.clone().with_aggregate(head).validate(&cat).is_ok());
        // DISTINCT without an attribute is malformed.
        let head = AggregateHead::count().with_distinct();
        assert!(base.clone().with_aggregate(head).validate(&cat).is_err());
        // DISTINCT MIN/MAX are rejected (multiplicity-insensitive).
        let head = AggregateHead::over(AggregateFunc::Min, AttrId(0)).with_distinct();
        assert!(base.clone().with_aggregate(head).validate(&cat).is_err());
        // Duplicate group attributes are rejected.
        let head = AggregateHead::count()
            .grouped_by(AttrId(0))
            .grouped_by(AttrId(0));
        assert!(base.with_aggregate(head).validate(&cat).is_err());
    }

    #[test]
    fn order_by_heads_validate() {
        let cat = catalog();
        let base = Query::product(vec![RelId(0), RelId(1)]);
        assert!(base
            .clone()
            .with_order_by(vec![AttrId(3), AttrId(0)])
            .validate(&cat)
            .is_ok());
        // Foreign attribute.
        assert!(base
            .clone()
            .with_order_by(vec![AttrId(5)])
            .validate(&cat)
            .is_err());
        // Duplicate ordering attribute.
        assert!(base
            .clone()
            .with_order_by(vec![AttrId(0), AttrId(0)])
            .validate(&cat)
            .is_err());
        // ORDER BY composed with an aggregate head is rejected.
        assert!(base
            .with_aggregate(AggregateHead::count())
            .with_order_by(vec![AttrId(0)])
            .validate(&cat)
            .is_err());
    }

    #[test]
    fn comparison_ops_evaluate() {
        use ComparisonOp::*;
        let five = Value::new(5);
        let six = Value::new(6);
        assert!(Eq.eval(five, five));
        assert!(!Eq.eval(five, six));
        assert!(Ne.eval(five, six));
        assert!(Lt.eval(five, six));
        assert!(Le.eval(five, five));
        assert!(Gt.eval(six, five));
        assert!(Ge.eval(six, six));
    }

    #[test]
    fn equality_condition_normalises_order() {
        assert_eq!(
            EqualityCondition::new(AttrId(5), AttrId(2)),
            EqualityCondition::new(AttrId(2), AttrId(5))
        );
    }
}
