//! F-plans: sequences of f-plan operators.
//!
//! Operators are described at the schema level (node identifiers of the
//! input f-tree, attribute identifiers for selections and projections).  The
//! operator type itself, [`FPlanOp`], is defined in `fdb_frep::ops` next to
//! the passes that execute it and re-exported here; an [`FPlan`] is a list
//! of them.  The same plan can be *simulated* on an f-tree alone (used by
//! the optimisers to cost candidate plans without touching data) or
//! *executed* on an f-representation (which transforms both the data and
//! its tree).  Both take each operator's tree effect from its one
//! definition in `fdb_ftree`, so the simulated trees are the trees
//! execution yields.
//!
//! # Execution: simplify once, then one of two sinks
//!
//! A plan reaches data in two steps, which is also how the engine's request
//! pipeline (`fdb_core::FdbEngine::run`, stages 3 and 4) uses it:
//!
//! 1. [`FPlan::simplified`] peephole-simplifies the op list against a
//!    simulated f-tree: identity projections and selections made trivially
//!    total by an earlier equality selection are data no-ops and are
//!    dropped.
//! 2. The simplified list is handed, whole and as it is (`&plan.ops`), to
//!    `fdb_frep`: this crate decides nothing about how operators run.  The
//!    **emitting** sink ([`FPlan::execute_presimplified_ctx`],
//!    [`FPlan::emit_presimplified_ctx`]) is `fdb_frep::ops::emit_fused_ctx`:
//!    one program — one operator or twenty, selections with constants and
//!    projections included — pays a single arena emission under the
//!    caller's governance context.  The **aggregate** sink
//!    ([`FPlan::execute_aggregate_presimplified_ctx`]) folds the aggregate —
//!    and the plan's trailing selections — directly over the overlay and
//!    emits **no arena at all**.
//!
//! The reference the equivalence suites compare both sinks against lives
//! outside this crate's API: the thaw-path oracle of `fdb_frep::ops::oracle`,
//! applied operator by operator.

use fdb_common::{AttrId, ExecCtx, Result};
pub use fdb_frep::ops::FPlanOp;
use fdb_frep::{aggregate, ops, AggregateKind, AggregateResult, FRep};
use fdb_ftree::FTree;
use std::fmt;

/// A sequence of f-plan operators.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FPlan {
    /// The operators, in execution order.
    pub ops: Vec<FPlanOp>,
}

impl FPlan {
    /// The empty plan (the identity transformation).
    pub fn empty() -> Self {
        FPlan { ops: Vec::new() }
    }

    /// Creates a plan from a list of operators.
    pub fn new(ops: Vec<FPlanOp>) -> Self {
        FPlan { ops }
    }

    /// Number of operators in the plan.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Returns `true` if the plan has no operators.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Appends an operator.
    pub fn push(&mut self, op: FPlanOp) {
        self.ops.push(op);
    }

    /// Appends all operators of another plan.
    pub fn extend(&mut self, other: FPlan) {
        self.ops.extend(other.ops);
    }

    /// Simulates the plan on a copy of the given f-tree, returning every
    /// intermediate tree (including the input as the first element and the
    /// final tree as the last).
    pub fn simulate(&self, tree: &FTree) -> Result<Vec<FTree>> {
        let mut trees = Vec::with_capacity(self.ops.len() + 1);
        let mut current = tree.clone();
        trees.push(current.clone());
        for op in &self.ops {
            op.apply_to_tree(&mut current)?;
            trees.push(current.clone());
        }
        Ok(trees)
    }

    /// Returns the final f-tree after simulating the plan.
    pub fn final_tree(&self, tree: &FTree) -> Result<FTree> {
        let mut current = tree.clone();
        for op in &self.ops {
            op.apply_to_tree(&mut current)?;
        }
        Ok(current)
    }

    /// Executes an already simplified plan in place, under a governance
    /// context: the one in-place form of a program, which runs
    /// [`FPlan::emit_presimplified_ctx`] on `rep` and installs the output
    /// over it only on success.  An aborted or failing plan leaves the
    /// representation exactly as it was, and the empty plan does not touch
    /// it.
    pub fn execute_presimplified_ctx(&self, rep: &mut FRep, ctx: &ExecCtx) -> Result<()> {
        if !self.ops.is_empty() {
            *rep = ops::emit_fused_ctx(rep, &self.ops, ctx)?;
        }
        Ok(())
    }

    /// Executes an already simplified plan on a **borrowed** input and
    /// returns the result (the engine simplifies once, then executes through
    /// this).  Every plan, of any length, is one program of
    /// `fdb_frep::ops::emit_fused_ctx` — selections and projections
    /// included, exactly one arena emitted, bit-for-bit what the thaw-path
    /// oracle produces operator by operator: the input is read in place and
    /// never cloned, every record read or written is charged to the context,
    /// and an abort leaves nothing behind.  (The empty program emits its
    /// input unchanged, in the freeze layout.)
    pub fn emit_presimplified_ctx(&self, rep: &FRep, ctx: &ExecCtx) -> Result<FRep> {
        ops::emit_fused_ctx(rep, &self.ops, ctx)
    }

    /// Executes an already simplified plan into an **aggregate sink**: the
    /// whole plan is applied only to the overlay and the aggregate is folded
    /// over the overlay itself (`fdb_frep::ops::execute_fused_aggregate_ctx`),
    /// with the plan's trailing selections folded into the accumulation as
    /// entry filters.  **No arena is emitted at any point**: the input is
    /// borrowed, never cloned and never modified (an aggregate consumer has
    /// no use for the transformed arena), so an abort has no partial state
    /// to clean up.  The empty plan goes to `fdb_frep::aggregate::evaluate_ctx`,
    /// the same fold over the untouched overlay; either way the fold charges
    /// the context `1 + len` units per union it visits, and a grouped fold
    /// one more per row it builds.
    ///
    /// Returns the aggregate result and whether a non-empty program ran on
    /// the overlay before the fold (`false` only for the empty plan).
    pub fn execute_aggregate_presimplified_ctx(
        &self,
        rep: &FRep,
        kind: AggregateKind,
        group_by: &[AttrId],
        ctx: &ExecCtx,
    ) -> Result<(AggregateResult, bool)> {
        if self.ops.is_empty() {
            return Ok((aggregate::evaluate_ctx(rep, kind, group_by, ctx)?, false));
        }
        let result = ops::execute_fused_aggregate_ctx(rep, &self.ops, kind, group_by, ctx)?;
        Ok((result, true))
    }

    /// Peephole simplification against a simulated f-tree: drops the
    /// operators whose data-level effect is the identity —
    ///
    /// * projections that keep every attribute;
    /// * selections made trivially *total* by an earlier equality selection
    ///   (the node is bound to a constant the predicate accepts, so every
    ///   remaining entry passes); a selection an earlier binding makes
    ///   trivially *empty* is kept — emptying the representation is a data
    ///   effect.
    ///
    /// If simulation fails at some operator, that operator and everything
    /// after it are kept verbatim so execution reports the error faithfully.
    pub fn simplified(&self, tree: &FTree) -> FPlan {
        let mut cur = tree.clone();
        let mut out: Vec<FPlanOp> = Vec::with_capacity(self.ops.len());
        for (i, op) in self.ops.iter().enumerate() {
            let identity = match op {
                FPlanOp::Project(keep) => cur.all_attrs().is_subset(keep),
                FPlanOp::SelectConst {
                    attr,
                    op: cmp,
                    value,
                } => cur
                    .node_of_attr(*attr)
                    .and_then(|node| cur.constant(node))
                    .is_some_and(|bound| cmp.eval(bound, *value)),
                _ => false,
            };
            if identity {
                continue;
            }
            if op.apply_to_tree(&mut cur).is_err() {
                // Simulation failed: stop simplifying here so execution
                // surfaces the same error at the same operator.
                out.extend(self.ops[i..].iter().cloned());
                break;
            }
            out.push(op.clone());
        }
        FPlan { ops: out }
    }
}

impl fmt::Display for FPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let parts: Vec<String> = self.ops.iter().map(|op| op.to_string()).collect();
        write!(f, "[{}]", parts.join(" ; "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdb_common::{ComparisonOp, FdbError, Value};
    use fdb_frep::ops::oracle;
    use fdb_frep::{Entry, Union};
    use fdb_ftree::{DepEdge, NodeId};
    use std::collections::BTreeSet;

    fn attrs(ids: &[u32]) -> BTreeSet<AttrId> {
        ids.iter().map(|&i| AttrId(i)).collect()
    }

    /// item{0,2} → (oid{1}, supplier{3}) over Orders{1,0} and Produce{3,2},
    /// already merged on item — a mini version of the paper's T5.
    fn sample_rep() -> FRep {
        let edges = vec![
            DepEdge::new("Orders", attrs(&[0, 1]), 3),
            DepEdge::new("Produce", attrs(&[2, 3]), 3),
        ];
        let mut tree = FTree::new(edges);
        let item = tree.add_node(attrs(&[0, 2]), None).unwrap();
        let oid = tree.add_node(attrs(&[1]), Some(item)).unwrap();
        let supplier = tree.add_node(attrs(&[3]), Some(item)).unwrap();
        let entry = |v: u64, oids: &[u64], sups: &[u64]| Entry {
            value: Value::new(v),
            children: vec![
                Union::new(
                    oid,
                    oids.iter().map(|&x| Entry::leaf(Value::new(x))).collect(),
                ),
                Union::new(
                    supplier,
                    sups.iter().map(|&x| Entry::leaf(Value::new(x))).collect(),
                ),
            ],
        };
        let u = Union::new(
            item,
            vec![entry(1, &[10, 11], &[7]), entry(2, &[12], &[7, 8])],
        );
        FRep::from_parts(tree, vec![u]).unwrap()
    }

    /// The reference execution: the thaw-path oracle, operator by operator.
    fn apply_oracle(plan: &FPlan, rep: &mut FRep) {
        for op in &plan.ops {
            oracle::apply(rep, op).unwrap();
        }
    }

    /// Simplify, then the emitting sink, in place and ungoverned.
    fn run(plan: &FPlan, rep: &mut FRep) -> Result<()> {
        plan.simplified(rep.tree())
            .execute_presimplified_ctx(rep, &ExecCtx::unlimited())
    }

    /// Simplify, then the aggregate sink, ungoverned.
    fn run_aggregate(
        plan: &FPlan,
        rep: &FRep,
        kind: AggregateKind,
        group_by: &[AttrId],
    ) -> Result<(AggregateResult, bool)> {
        plan.simplified(rep.tree())
            .execute_aggregate_presimplified_ctx(rep, kind, group_by, &ExecCtx::unlimited())
    }

    fn arena_aggregate(rep: &FRep, kind: AggregateKind, group_by: &[AttrId]) -> AggregateResult {
        aggregate::evaluate_ctx(rep, kind, group_by, &ExecCtx::unlimited()).unwrap()
    }

    #[test]
    fn simulate_and_execute_stay_consistent() {
        let rep = sample_rep();
        let oid = rep.tree().node_of_attr(AttrId(1)).unwrap();
        let plan = FPlan::new(vec![
            FPlanOp::Swap(oid),
            FPlanOp::SelectConst {
                attr: AttrId(3),
                op: ComparisonOp::Eq,
                value: Value::new(7),
            },
            FPlanOp::Project(attrs(&[1, 3])),
        ]);
        // Schema-level simulation.
        let trees = plan.simulate(rep.tree()).unwrap();
        assert_eq!(trees.len(), 4);
        let final_tree = plan.final_tree(rep.tree()).unwrap();
        assert_eq!(
            trees.last().unwrap().canonical_key(),
            final_tree.canonical_key()
        );
        // Data-level execution ends up over the simulated tree.
        let mut executed = rep.clone();
        run(&plan, &mut executed).unwrap();
        executed.validate().unwrap();
        assert_eq!(
            executed.tree().snapshot_nodes(),
            final_tree.snapshot_nodes()
        );
        assert_eq!(executed.tree().roots(), final_tree.roots());
        assert_eq!(executed.tree().edges(), final_tree.edges());
        assert_eq!(
            executed.visible_attrs(),
            vec![AttrId(1), AttrId(3)],
            "projection kept only oid and supplier"
        );
    }

    #[test]
    fn plan_display_is_readable() {
        let plan = FPlan::new(vec![FPlanOp::Normalise, FPlanOp::Swap(NodeId(1))]);
        let text = plan.to_string();
        assert!(text.contains("η"));
        assert!(text.contains("χ(n1)"));
    }

    #[test]
    fn invalid_operator_is_reported() {
        let rep = sample_rep();
        let item = rep.tree().node_of_attr(AttrId(0)).unwrap();
        // Swapping a root is invalid both in simulation and execution.
        let plan = FPlan::new(vec![FPlanOp::Swap(item)]);
        assert!(plan.simulate(rep.tree()).is_err());
        let mut rep = rep;
        assert!(run(&plan, &mut rep).is_err());
    }

    #[test]
    fn failing_segment_leaves_the_representation_untouched() {
        // A plan whose first step runs and whose second fails — on the
        // tree (swapping what the first swap made a root) or under
        // governance (a budget of one unit) — installs nothing: the
        // representation keeps its arena.
        let rep = sample_rep();
        let oid = rep.tree().node_of_attr(AttrId(1)).unwrap();
        let ungoverned = ExecCtx::unlimited();
        let limits = fdb_common::QueryLimits::unlimited().with_budget(1);
        let starved = ExecCtx::new(&limits);
        for (ops, ctx) in [
            (vec![FPlanOp::Swap(oid), FPlanOp::Swap(oid)], &ungoverned),
            (vec![FPlanOp::Swap(oid), FPlanOp::Normalise], &starved),
        ] {
            let mut fused = rep.clone();
            assert!(FPlan::new(ops)
                .execute_presimplified_ctx(&mut fused, ctx)
                .is_err());
            assert!(fused.store_identical(&rep));
        }
        // The empty plan leaves it as it is, too.
        let mut fused = rep.clone();
        FPlan::empty()
            .execute_presimplified_ctx(&mut fused, &ungoverned)
            .unwrap();
        assert!(fused.store_identical(&rep));
    }

    #[test]
    fn empty_plan_is_identity() {
        let rep = sample_rep();
        let plan = FPlan::empty();
        assert!(plan.is_empty());
        let final_tree = plan.final_tree(rep.tree()).unwrap();
        assert_eq!(final_tree.canonical_key(), rep.tree().canonical_key());
    }

    #[test]
    fn fused_execution_matches_the_stepwise_oracle() {
        let rep = sample_rep();
        let oid = rep.tree().node_of_attr(AttrId(1)).unwrap();
        let supplier = rep.tree().node_of_attr(AttrId(3)).unwrap();
        // A multi-step structural run followed by a selection and another
        // structural step.
        let plan = FPlan::new(vec![
            FPlanOp::Swap(oid),
            FPlanOp::Normalise,
            FPlanOp::SelectConst {
                attr: AttrId(3),
                op: ComparisonOp::Ge,
                value: Value::new(7),
            },
            FPlanOp::Swap(supplier),
        ]);
        let mut fused = rep.clone();
        let mut stepwise = rep;
        run(&plan, &mut fused).unwrap();
        apply_oracle(&plan, &mut stepwise);
        fused.validate().unwrap();
        assert!(
            fused.store_identical(&stepwise),
            "fused:\n{}\nstepwise:\n{}",
            fused.dump_store(),
            stepwise.dump_store()
        );
    }

    #[test]
    fn peephole_drops_identity_projections() {
        let rep = sample_rep();
        let oid = rep.tree().node_of_attr(AttrId(1)).unwrap();
        let item = rep.tree().node_of_attr(AttrId(0)).unwrap();
        let plan = FPlan::new(vec![
            FPlanOp::Normalise,
            FPlanOp::Swap(oid),
            FPlanOp::Absorb(oid, item),
            FPlanOp::Normalise,
            // Identity projection keeps every attribute.
            FPlanOp::Project(attrs(&[0, 1, 2, 3])),
            FPlanOp::Project(attrs(&[1, 3])),
        ]);
        let simplified = plan.simplified(rep.tree());
        let mut expected = plan.ops.clone();
        expected.remove(4);
        assert_eq!(simplified.ops, expected);
        // Same result either way, bit for bit.
        let mut fused = rep.clone();
        let mut stepwise = rep;
        run(&plan, &mut fused).unwrap();
        apply_oracle(&plan, &mut stepwise);
        assert!(fused.store_identical(&stepwise));
    }

    #[test]
    fn peephole_keeps_failing_suffixes_verbatim() {
        let rep = sample_rep();
        let item = rep.tree().node_of_attr(AttrId(0)).unwrap();
        // Swapping the root fails; the invalid op and its suffix survive
        // simplification so execution reports the error.
        let plan = FPlan::new(vec![FPlanOp::Swap(item), FPlanOp::Normalise]);
        let simplified = plan.simplified(rep.tree());
        assert_eq!(simplified.ops, plan.ops);
        let mut rep = rep;
        assert!(run(&plan, &mut rep).is_err());
    }

    #[test]
    fn aggregate_sink_matches_execute_then_aggregate() {
        let rep = sample_rep();
        let oid = rep.tree().node_of_attr(AttrId(1)).unwrap();
        // Selection first, structural operators at the end: the sink
        // must run the tail on the overlay.
        let plan = FPlan::new(vec![
            FPlanOp::SelectConst {
                attr: AttrId(3),
                op: ComparisonOp::Ge,
                value: Value::new(7),
            },
            FPlanOp::Swap(oid),
            FPlanOp::Normalise,
        ]);
        let mut executed = rep.clone();
        run(&plan, &mut executed).unwrap();
        for kind in [
            AggregateKind::Count,
            AggregateKind::Sum(AttrId(1)),
            AggregateKind::Min(AttrId(3)),
            AggregateKind::Avg(AttrId(0)),
        ] {
            let expected = arena_aggregate(&executed, kind, &[]);
            let (got, on_overlay) = run_aggregate(&plan, &rep, kind, &[]).unwrap();
            assert!(
                on_overlay,
                "trailing structural operators run on the overlay"
            );
            assert_eq!(got, expected, "{kind}");
        }
        // Grouping by the executed tree's root attribute.
        let root = executed.tree().roots()[0];
        let group = *executed
            .tree()
            .visible_attrs(root)
            .iter()
            .next()
            .expect("root has a visible attribute");
        let expected = arena_aggregate(&executed, AggregateKind::Count, &[group]);
        let (got, _) = run_aggregate(&plan, &rep, AggregateKind::Count, &[group]).unwrap();
        assert_eq!(got, expected);
        // The borrowed input is untouched by the sink.
        assert!(rep.store_identical(&sample_rep()));
    }

    #[test]
    fn aggregate_sink_consumes_trailing_barriers_on_the_overlay() {
        // A selection-then-aggregate plan: the selection folds into the
        // aggregate accumulation as an entry filter — no arena, no clone.
        let rep = sample_rep();
        let plan = FPlan::new(vec![FPlanOp::SelectConst {
            attr: AttrId(0),
            op: ComparisonOp::Eq,
            value: Value::new(1),
        }]);
        let mut executed = rep.clone();
        run(&plan, &mut executed).unwrap();
        for kind in [
            AggregateKind::Count,
            AggregateKind::Sum(AttrId(1)),
            AggregateKind::Min(AttrId(3)),
        ] {
            let expected = arena_aggregate(&executed, kind, &[]);
            let (got, on_overlay) = run_aggregate(&plan, &rep, kind, &[]).unwrap();
            assert!(on_overlay, "trailing selections fold into the sink");
            assert_eq!(got, expected, "{kind}");
        }
        // Only the empty plan runs no program before the fold.
        let (_, on_overlay) =
            run_aggregate(&FPlan::empty(), &rep, AggregateKind::Count, &[]).unwrap();
        assert!(!on_overlay, "the empty plan runs no program");
        // The borrowed input is untouched.
        assert!(rep.store_identical(&sample_rep()));
    }

    /// Example 3 of the paper over attributes `a → b`:
    /// ⟨a:1⟩×(⟨b:1⟩ ∪ ⟨b:2⟩) ∪ ⟨a:2⟩×⟨b:2⟩ — 3 unions, 5 entries.  With
    /// `independent`, every `a`-entry also carries the union ⟨c:9⟩ of a
    /// relation that shares no attribute with the first.
    fn example3(a: u32, b: u32, independent: Option<u32>) -> FRep {
        let mut edges = vec![DepEdge::new("R", attrs(&[a, b]), 3)];
        edges.extend(independent.map(|c| DepEdge::new("S", attrs(&[c]), 1)));
        let mut tree = FTree::new(edges);
        let na = tree.add_node(attrs(&[a]), None).unwrap();
        let nb = tree.add_node(attrs(&[b]), Some(na)).unwrap();
        let nc = independent.map(|c| tree.add_node(attrs(&[c]), Some(na)).unwrap());
        let entry = |v: u64, bs: &[u64]| {
            let mut children = vec![Union::new(
                nb,
                bs.iter().map(|&x| Entry::leaf(Value::new(x))).collect(),
            )];
            children.extend(nc.map(|nc| Union::new(nc, vec![Entry::leaf(Value::new(9))])));
            Entry {
                value: Value::new(v),
                children,
            }
        };
        let root = Union::new(na, vec![entry(1, &[1, 2]), entry(2, &[2])]);
        FRep::from_parts(tree, vec![root]).unwrap()
    }

    /// A one-operator plan is governed like any other: its exact unit total
    /// succeeds with nothing to spare, one unit less is a budget error, a
    /// raised cancellation flag a deadline error — and whatever happens, the
    /// borrowed input stays bit for bit as it was.
    #[test]
    fn one_operator_plans_are_governed_and_leave_the_input_untouched() {
        use fdb_common::QueryLimits;
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;
        let node = |rep: &FRep, attr: u32| rep.tree().node_of_attr(AttrId(attr)).unwrap();
        let chain = example3(0, 1, None);
        let forest = ops::product(example3(0, 1, None), example3(2, 3, None)).unwrap();
        let lifted = example3(0, 1, Some(2));
        let cases = [
            // No prune: only the emission — the B-union (1 + 2)
            // and its two inner A-unions (1 + 1 and 1 + 2).
            (&chain, FPlanOp::Swap(node(&chain, 1)), 8),
            // The emission again, now of more records than the input's 12:
            // the B-union (1 + 2), its inner A-unions (1 + 1 and 1 + 2) and
            // a copied C-union (1 + 1) under each of the three A-entries.
            (&lifted, FPlanOp::Swap(node(&lifted, 1)), 14),
            // The overlay prunes the merged root (1 + 2), the one union the
            // merge built, and writes the result: 1 + 2 entries, each with
            // its two leaf unions — 2 × (1 + 2) and 2 × (1 + 1).
            (
                &forest,
                FPlanOp::Merge(node(&forest, 0), node(&forest, 2)),
                3 + 13,
            ),
            // No prune: only the emission of the 4 unions and 6
            // entries the push-up leaves.
            (&lifted, FPlanOp::PushUp(node(&lifted, 2)), 10),
        ];
        for (rep, op, units) in cases {
            let input = rep.clone();
            let plan = FPlan::new(vec![op]);
            let run = |limits: &QueryLimits| {
                let ctx = ExecCtx::new(limits);
                let result = plan.emit_presimplified_ctx(rep, &ctx);
                assert!(rep.store_identical(&input), "{plan}: the input moved");
                (result, ctx.budget_remaining())
            };
            let ample = 1 << 20;
            let (ungoverned, left) = run(&QueryLimits::unlimited().with_budget(ample));
            let expected = ungoverned.unwrap();
            assert_eq!(ample - left, units, "{plan}: units charged");
            let mut reference = input.clone();
            oracle::apply(&mut reference, &plan.ops[0]).unwrap();
            assert!(expected.store_identical(&reference), "{plan}");

            let (exact, left) = run(&QueryLimits::unlimited().with_budget(units));
            assert!(exact.unwrap().store_identical(&expected), "{plan}");
            assert_eq!(left, 0, "{plan}");
            let (short, _) = run(&QueryLimits::unlimited().with_budget(units - 1));
            assert!(
                matches!(short, Err(FdbError::BudgetExceeded { .. })),
                "{plan}: {short:?}"
            );
            let cancel = Arc::new(AtomicBool::new(true));
            let (cancelled, _) = run(&QueryLimits::unlimited().with_cancel(cancel));
            assert_eq!(
                cancelled.err(),
                Some(FdbError::DeadlineExceeded { limit_ms: 0 }),
                "{plan}"
            );
        }
    }

    #[test]
    fn peephole_keeps_mark_only_projection_chains() {
        // sample_rep: item{0,2} → (oid{1}, supplier{3}); keeping {0,1,3}
        // drops only item's 2 — every node keeps a visible attribute, so
        // the first projection only marks, and both stay.
        let rep = sample_rep();
        let plan = FPlan::new(vec![
            FPlanOp::Project(attrs(&[0, 1, 3])),
            FPlanOp::Project(attrs(&[0, 1])),
        ]);
        assert_eq!(plan.simplified(rep.tree()).ops, plan.ops);
        // Bit-for-bit: execution equals the sequential step-wise run.
        let mut fused = rep.clone();
        let mut stepwise = rep;
        run(&plan, &mut fused).unwrap();
        apply_oracle(&plan, &mut stepwise);
        assert!(fused.store_identical(&stepwise));
    }

    #[test]
    fn peephole_keeps_node_removing_projection_chains() {
        // Keeping {1,3} removes the item node's attributes entirely on both
        // nodes?  item{0,2} loses everything → the first projection removes
        // nodes, so the pair must NOT merge.
        let rep = sample_rep();
        let plan = FPlan::new(vec![
            FPlanOp::Project(attrs(&[1, 3])),
            FPlanOp::Project(attrs(&[1])),
        ]);
        let simplified = plan.simplified(rep.tree());
        assert_eq!(simplified.ops.len(), 2, "node-removing projections stay");
        let mut fused = rep.clone();
        let mut stepwise = rep;
        run(&plan, &mut fused).unwrap();
        apply_oracle(&plan, &mut stepwise);
        assert!(fused.store_identical(&stepwise));
    }

    #[test]
    fn peephole_drops_selections_made_total_by_an_earlier_binding() {
        let rep = sample_rep();
        let select = |op: ComparisonOp, value: u64| FPlanOp::SelectConst {
            attr: AttrId(0),
            op,
            value: Value::new(value),
        };
        let plan = FPlan::new(vec![
            select(ComparisonOp::Eq, 1),
            // The node is now bound to 1: repeats and implied ranges are
            // total and drop…
            select(ComparisonOp::Eq, 1),
            select(ComparisonOp::Ge, 1),
            select(ComparisonOp::Ne, 5),
            // …but a contradicted predicate empties the data and stays.
            select(ComparisonOp::Eq, 2),
        ]);
        let simplified = plan.simplified(rep.tree());
        assert_eq!(
            simplified.ops,
            vec![select(ComparisonOp::Eq, 1), select(ComparisonOp::Eq, 2)]
        );
        let mut fused = rep.clone();
        let mut stepwise = rep;
        run(&plan, &mut fused).unwrap();
        apply_oracle(&plan, &mut stepwise);
        assert!(fused.store_identical(&stepwise));
        assert!(fused.represents_empty());
    }
}
