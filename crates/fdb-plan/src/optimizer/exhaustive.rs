//! Exhaustive f-plan search (Section 4.2 of the paper).
//!
//! The search space is a directed graph whose nodes are the normalised
//! f-trees reachable from the input f-tree and whose edges are the f-plan
//! operators: any swap, and — for the equality conditions of the query —
//! merges of sibling nodes and absorbs of descendant nodes.  The cost of a
//! path is the largest `s(T)` of any tree on it (a bottleneck metric), so
//! Dijkstra's algorithm applies directly.  Among the final f-trees that
//! satisfy all equalities and are reachable at the minimum bottleneck cost,
//! the one with the smallest own cost `s(T_final)` (then the shortest plan)
//! is chosen — the lexicographic order `<_max × <_{s(T)}` of the paper.
//!
//! A cache-missing request spends nearly all of its time here.  On
//! `serve_cold`'s catalogue a pass over its 240 searches probes about 28.9k
//! neighbours, 15.8k of them (55 %) trees the search has already seen, and
//! of the 13.0k new ones only 5.4k are ever popped.  So the loop expands
//! each popped tree through one [`LinkFrame`], read once: every swap
//! neighbour is keyed off the frame's patched parent array, with no tree
//! copied, and looked up; a tree seen before brings its `s(T)` with it, and
//! a new one is costed off the frame too.  Its state holds only its
//! predecessor and the swap that reaches it until it is popped, and its
//! tree is built then, from the predecessor's tree (settled, so built).  The
//! merge or absorb each unmet equality offers is built, keyed from its tree
//! and, if new, costed on it, and keeps that tree.  A tree is costed
//! through the [`SCostMemo`] the caller lends the search, which solves one
//! LP per distinct *set* of nodes on a path; a memo kept across searches (a
//! plan cache keeps a pool of them) hands a request the covers its
//! predecessors solved.  Debug builds check every tree built at pop
//! against the key and the cost bits it was probed with.
//! States live in an arena and point at their predecessor, so plan and cost
//! are read off the chosen goal's chain once, at the end.  Which states are
//! pushed, popped and replaced, and in what order, is exactly what the
//! textbook loop does (`exhaustive_reference.rs`, the test oracle) up to the
//! stop below — the heap is not stable, so the plan returned depends on that
//! sequence.
//!
//! # The stop
//!
//! The textbook loop settles the whole bottleneck plateau of its first goal,
//! in case a goal of smaller `s(T_final)` lies on it; this one stops as soon
//! as a goal is proven to be the answer.  Merges and absorbs fuse only the
//! classes an equality names and carry constants across, so every goal has
//! the same classes, bound to constants alike (debug builds check it).  A
//! goal without its constant nodes keeps its path covers and the path
//! constraint, so its `s(T)` is at least the least `s(T)` of any f-tree of
//! the non-constant classes on the same edges.  That number is bounded from
//! below by a free *floor* (1 if some class is not constant, else 0) and
//! computed exactly by the f-tree search, which takes its path covers from
//! the same memo ([`SCostMemo::min_s_cost`], the *tight* bound).
//! The loop breaks at a goal whose `s(T)` meets the bound.  It computes the
//! tight bound at most once, and only for a goal that misses the floor while
//! the heap's top still lies on the goal's plateau; otherwise the next pop
//! ends the loop anyway.
//!
//! Why the truncated sweep returns what the full one would.  Every cost is
//! exact, a cover in lowest terms rounded once to `f64`, so equal costs are
//! equal bits and every comparison here is exact.  A goal `g` that meets the
//! bound has the least `s(T)` any goal can have.  The heap pops the least
//! `(bottleneck, plan_len)`, and a push never has a smaller bottleneck than
//! the state expanded, so every goal settled after `g` has a larger
//! bottleneck or a plan at least as long as `g`'s.  The selection below
//! (smaller `s(T)`, then a strictly shorter plan) therefore ends on the goal
//! the full sweep ends on.  A settled state's plan never changes, so plan and
//! `FPlanCost` bits are the full sweep's; only `explored_states` falls.

use crate::cost::FPlanCost;
use crate::fplan::{FPlan, FPlanOp};
use crate::optimizer::OptimizedPlan;
use fdb_common::{AttrId, ExecCtx, FdbError, Result};
use fdb_ftree::{FTree, LinkFrame, SCostMemo, WordHasher};
use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::{BTreeSet, BinaryHeap, HashMap};
use std::hash::BuildHasherDefault;

/// The exhaustive (Dijkstra) f-plan optimiser.
#[derive(Clone, Copy, Debug, Default)]
pub struct ExhaustiveOptimizer;

/// Upper bound on the number of states the search may settle before giving
/// up (protects against pathological inputs).
pub(crate) const MAX_STATES: usize = 500_000;

/// How many states the search settles between two looks at the deadline and
/// the cancellation flag.
const CHECK_EVERY: usize = 64;

/// The best known way to reach one f-tree (up to child order).  States live
/// in an arena and name their predecessor by index, so the plan of a state
/// is the chain of `via` operators back to the input tree.
struct State {
    /// Built when the state is first popped, from its predecessor's tree; a
    /// merge or absorb neighbour keeps the tree it was keyed from.
    tree: Option<FTree>,
    /// The state this one was reached from and the operator that did it
    /// (`None` for the input tree).
    via: Option<(usize, FPlanOp)>,
    plan_len: usize,
    /// `s(T)` of this tree.
    own_cost: f64,
    /// The largest `s(T)` along the plan, this tree included.
    bottleneck: f64,
}

/// A queue entry, ordered so that the smallest bottleneck (in `f64`'s total
/// order; no NaN is ever produced), then the shortest plan, pops first.
struct QueueItem {
    bottleneck: f64,
    plan_len: usize,
    state: usize,
}

impl PartialEq for QueueItem {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}
impl Eq for QueueItem {}
impl PartialOrd for QueueItem {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for QueueItem {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; reverse so the smallest cost pops first.
        (other.bottleneck.total_cmp(&self.bottleneck)).then(other.plan_len.cmp(&self.plan_len))
    }
}

impl ExhaustiveOptimizer {
    /// Creates an optimiser.
    pub fn new() -> Self {
        ExhaustiveOptimizer
    }

    /// Finds an optimal f-plan enforcing the given equality conditions on an
    /// input over `input_tree`.
    ///
    /// Constant selections and projections are deliberately not part of the
    /// search: FDB applies constant selections first (they are cheap and
    /// only shrink the data) and defers projections to the end of the plan.
    pub fn optimize(
        &self,
        input_tree: &FTree,
        equalities: &[(AttrId, AttrId)],
    ) -> Result<OptimizedPlan> {
        let mut memo = SCostMemo::new();
        self.optimize_ctx(input_tree, equalities, &ExecCtx::unlimited(), &mut memo)
    }

    /// [`ExhaustiveOptimizer::optimize`] under a governance context, with
    /// every path cover taken from `memo` (any memo: a cover is the same
    /// `f64` whoever solved it, so plan and cost do not depend on what the
    /// memo already holds).  The search looks at the deadline and the
    /// cancellation flag before its first state and after every 64 it
    /// settles.  It charges no work budget — the budget counts arena
    /// records, and the search touches none.
    pub fn optimize_ctx(
        &self,
        input_tree: &FTree,
        equalities: &[(AttrId, AttrId)],
        ctx: &ExecCtx,
        memo: &mut SCostMemo,
    ) -> Result<OptimizedPlan> {
        let (plan, _) = self.search(input_tree, equalities, ctx, memo, MAX_STATES)?;
        Ok(plan)
    }

    /// The search behind [`ExhaustiveOptimizer::optimize_ctx`], settling at
    /// most `max_states` states, which also returns the tight bound if it
    /// computed one.
    pub(super) fn search(
        &self,
        input_tree: &FTree,
        equalities: &[(AttrId, AttrId)],
        ctx: &ExecCtx,
        memo: &mut SCostMemo,
        max_states: usize,
    ) -> Result<(OptimizedPlan, Option<f64>)> {
        super::check_equalities(input_tree, equalities)?;

        let initial_cost = memo.s_cost(input_tree)?;
        let mut states = vec![State {
            tree: Some(input_tree.clone()),
            via: None,
            plan_len: 0,
            own_cost: initial_cost,
            bottleneck: initial_cost,
        }];
        // Every tree seen so far (by canonical key) and its state.
        let mut best: HashMap<Vec<u8>, usize, BuildHasherDefault<WordHasher>> = HashMap::default();
        best.insert(input_tree.canonical_key(), 0);
        let mut heap: BinaryHeap<QueueItem> = BinaryHeap::new();
        heap.push(QueueItem {
            bottleneck: initial_cost,
            plan_len: 0,
            state: 0,
        });

        let mut explored = 0usize;
        let mut goals: Vec<usize> = Vec::new();
        let mut goal_bottleneck: Option<f64> = None;
        let mut tight: Option<f64> = None;

        while let Some(item) = heap.pop() {
            let current = item.state;
            let bottleneck = states[current].bottleneck;
            // Skip stale queue entries.
            if item.bottleneck > bottleneck {
                continue;
            }
            // Once a goal has been found, only states with the same bottleneck
            // can still yield a better (lexicographically smaller) goal.
            if let Some(gb) = goal_bottleneck {
                if bottleneck > gb {
                    break;
                }
            }
            if explored.is_multiple_of(CHECK_EVERY) {
                ctx.check_now()?;
            }
            explored += 1;
            if explored > max_states {
                return Err(FdbError::NoPlanFound {
                    detail: format!("exhaustive search exceeded its {max_states}-state budget"),
                });
            }
            // Lent to the expansion, which pushes states, and handed back
            // after it: a stale queue entry of equal bottleneck pops (and
            // expands) a state a second time, as in the textbook loop.
            let from = match states[current].tree.take() {
                Some(tree) => tree,
                // First popped: built from its predecessor's tree (settled,
                // so built), with the key and cost bits it was probed with.
                None => {
                    let (previous, op) = states[current].via.clone().expect("the input is built");
                    let mut tree = states[previous].tree.clone().expect("settled, so built");
                    op.apply_to_tree(&mut tree)?;
                    debug_assert_eq!(best.get(&tree.canonical_key()), Some(&current), "{op}");
                    let own_cost = states[current].own_cost.to_bits();
                    debug_assert_eq!(memo.s_cost(&tree)?.to_bits(), own_cost, "{op}");
                    tree
                }
            };
            if super::is_goal(&from, equalities) {
                states[current].tree = Some(from);
                let plateau = *goal_bottleneck.get_or_insert(bottleneck);
                goals.push(current);
                debug_assert_eq!(
                    Self::classes(&states[current]),
                    Self::classes(&states[goals[0]])
                );
                if Self::proven(&states[current], plateau, &heap, &mut tight, memo)? {
                    break;
                }
                continue;
            }

            let plan_len = states[current].plan_len + 1;
            let mut frame = LinkFrame::new(&from);
            let swaps = (from.node_ids().into_iter())
                .filter(|&b| from.parent(b).is_some())
                .map(FPlanOp::Swap);
            for op in swaps.chain(Self::fusions(&from, equalities)) {
                // A swap is keyed and costed off the frame, and its tree
                // built only if it is ever popped; a merge or absorb is
                // built, keyed and, if new, costed on its tree.
                let mut tree = None;
                let key = match op {
                    FPlanOp::Swap(b) => Cow::Borrowed(frame.swap(b)?),
                    FPlanOp::Merge(..) | FPlanOp::Absorb(..) => {
                        let built = tree.insert(from.clone());
                        op.apply_to_tree(built)?;
                        Cow::Owned(built.canonical_key())
                    }
                    _ => unreachable!("the search applies swaps, merges and absorbs"),
                };
                let seen = best.get(&key[..]).copied();
                let key = seen.is_none().then(|| key.into_owned());
                let (state, own_cost) = match (seen, &tree) {
                    // Equal keys mean equal paths, hence equal `s(T)`.
                    (Some(seen), _) => (seen, states[seen].own_cost),
                    (None, None) => (states.len(), frame.s_cost(memo)?),
                    (None, Some(built)) => (states.len(), memo.s_cost(built)?),
                };
                let bottleneck = bottleneck.max(own_cost);
                // The queue order rules out a better way to a state already
                // popped, whose index its neighbours hold: every later
                // candidate has at least its bottleneck, and a longer plan
                // when equal.
                if let Some(existing) = states.get(state) {
                    if (bottleneck, plan_len) >= (existing.bottleneck, existing.plan_len) {
                        continue;
                    }
                }
                heap.push(QueueItem {
                    bottleneck,
                    plan_len,
                    state,
                });
                // Equal keys do not mean equal node ids: the tree goes with
                // the operators that reach it.
                let reached = State {
                    tree,
                    via: Some((current, op)),
                    plan_len,
                    own_cost,
                    bottleneck,
                };
                match key {
                    None => states[state] = reached,
                    Some(key) => {
                        best.insert(key, state);
                        states.push(reached);
                    }
                }
            }
            states[current].tree = Some(from);
        }

        // Among the minimum-bottleneck goals pick the one with the smallest
        // final cost, then the shortest plan.
        let mut chosen: Option<usize> = None;
        for goal in goals {
            let better = match chosen {
                None => true,
                Some(existing) => {
                    let (goal, existing) = (&states[goal], &states[existing]);
                    (goal.own_cost, goal.plan_len) < (existing.own_cost, existing.plan_len)
                }
            };
            if better {
                chosen = Some(goal);
            }
        }
        let Some(goal) = chosen else {
            return Err(FdbError::NoPlanFound {
                detail: "no sequence of operators satisfies all equality conditions".into(),
            });
        };

        // Walk the links back to the input: operators and per-tree costs.
        let mut ops = Vec::with_capacity(states[goal].plan_len);
        let mut steps = Vec::with_capacity(states[goal].plan_len + 1);
        let mut cursor = goal;
        loop {
            steps.push(states[cursor].own_cost);
            match states[cursor].via.take() {
                Some((previous, op)) => {
                    ops.push(op);
                    cursor = previous;
                }
                None => break,
            }
        }
        ops.reverse();
        steps.reverse();
        let plan = OptimizedPlan {
            plan: FPlan::new(ops),
            cost: FPlanCost::from_steps(steps),
            explored_states: explored,
        };
        Ok((plan, tight))
    }

    /// Whether `goal`, just settled, is the goal the full sweep would choose
    /// (the module docs give the argument).  `tight` keeps the tight bound
    /// once computed through `memo`.
    fn proven(
        goal: &State,
        plateau: f64,
        heap: &BinaryHeap<QueueItem>,
        tight: &mut Option<f64>,
        memo: &mut SCostMemo,
    ) -> Result<bool> {
        let tree = goal.tree.as_ref().expect("a settled state is built");
        let free = tree
            .node_ids()
            .into_iter()
            .any(|n| tree.constant(n).is_none());
        let mut bound = tight.unwrap_or(if free { 1.0 } else { 0.0 });
        if goal.own_cost > bound
            && tight.is_none()
            && heap.peek().is_some_and(|item| item.bottleneck <= plateau)
        {
            bound = *tight.insert(memo.min_s_cost(tree)?);
        }
        Ok(goal.own_cost <= bound)
    }

    /// A goal's classes, each with whether it is bound to a constant, sorted.
    fn classes(goal: &State) -> Vec<(&BTreeSet<AttrId>, bool)> {
        let tree = goal.tree.as_ref().expect("a settled state is built");
        let mut classes: Vec<_> = tree
            .node_ids()
            .into_iter()
            .map(|n| (tree.class(n), tree.constant(n).is_some()))
            .collect();
        classes.sort_unstable();
        classes
    }

    /// The merge or absorb each unmet equality asks for.
    fn fusions<'a>(
        tree: &'a FTree,
        equalities: &'a [(AttrId, AttrId)],
    ) -> impl Iterator<Item = FPlanOp> + 'a {
        equalities.iter().filter_map(|(a, b)| {
            let (a, b) = (tree.node_of_attr(*a)?, tree.node_of_attr(*b)?);
            if tree.are_siblings(a, b) {
                Some(FPlanOp::Merge(a, b))
            } else if tree.is_ancestor(a, b) {
                Some(FPlanOp::Absorb(a, b))
            } else {
                tree.is_ancestor(b, a).then_some(FPlanOp::Absorb(b, a))
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdb_ftree::DepEdge;
    use std::collections::BTreeSet;

    fn attrs(ids: &[u32]) -> BTreeSet<AttrId> {
        ids.iter().map(|&i| AttrId(i)).collect()
    }

    /// Example 11: {A,D} → (B → C, E → F) with relations {A,B,C}, {D,E,F}.
    fn example11_tree() -> FTree {
        let edges = vec![
            DepEdge::new("R1", attrs(&[0, 1, 2]), 10),
            DepEdge::new("R2", attrs(&[3, 4, 5]), 10),
        ];
        let mut t = FTree::new(edges);
        let ad = t.add_node(attrs(&[0, 3]), None).unwrap();
        let b = t.add_node(attrs(&[1]), Some(ad)).unwrap();
        t.add_node(attrs(&[2]), Some(b)).unwrap();
        let e = t.add_node(attrs(&[4]), Some(ad)).unwrap();
        t.add_node(attrs(&[5]), Some(e)).unwrap();
        t
    }

    #[test]
    fn example11_finds_the_cost_one_plan() {
        // The selection B = F admits a plan of cost 1 (swap F up, then merge
        // with B); the naive plan through absorb costs 2.  The exhaustive
        // optimiser must find cost 1.
        let tree = example11_tree();
        let result = ExhaustiveOptimizer::new()
            .optimize(&tree, &[(AttrId(1), AttrId(5))])
            .unwrap();
        assert!(
            (result.cost.max_intermediate - 1.0).abs() < 1e-6,
            "{:?}",
            result.cost
        );
        assert!((result.cost.final_cost - 1.0).abs() < 1e-6);
        // The plan transforms the tree into one where B and F share a node.
        let final_tree = result.plan.final_tree(&tree).unwrap();
        assert_eq!(
            final_tree.node_of_attr(AttrId(1)),
            final_tree.node_of_attr(AttrId(5))
        );
        final_tree.check_path_constraint().unwrap();
    }

    #[test]
    fn already_satisfied_conditions_need_no_operators() {
        let tree = example11_tree();
        // A and D label the same node already.
        let result = ExhaustiveOptimizer::new()
            .optimize(&tree, &[(AttrId(0), AttrId(3))])
            .unwrap();
        assert!(result.plan.is_empty());
        assert!((result.cost.max_intermediate - 1.0).abs() < 1e-6);
    }

    #[test]
    fn sibling_conditions_use_a_single_merge() {
        // Two independent unary relations as two roots; equating their
        // attributes is a single merge of sibling roots.
        let edges = vec![
            DepEdge::new("R", attrs(&[0]), 5),
            DepEdge::new("S", attrs(&[1]), 5),
        ];
        let mut tree = FTree::new(edges);
        tree.add_node(attrs(&[0]), None).unwrap();
        tree.add_node(attrs(&[1]), None).unwrap();
        let result = ExhaustiveOptimizer::new()
            .optimize(&tree, &[(AttrId(0), AttrId(1))])
            .unwrap();
        assert_eq!(result.plan.len(), 1);
        assert!(matches!(result.plan.ops[0], FPlanOp::Merge(_, _)));
    }

    #[test]
    fn multiple_conditions_are_all_enforced() {
        let tree = example11_tree();
        // B = F and C = E.
        let result = ExhaustiveOptimizer::new()
            .optimize(&tree, &[(AttrId(1), AttrId(5)), (AttrId(2), AttrId(4))])
            .unwrap();
        let final_tree = result.plan.final_tree(&tree).unwrap();
        assert_eq!(
            final_tree.node_of_attr(AttrId(1)),
            final_tree.node_of_attr(AttrId(5))
        );
        assert_eq!(
            final_tree.node_of_attr(AttrId(2)),
            final_tree.node_of_attr(AttrId(4))
        );
        final_tree.check_path_constraint().unwrap();
        assert!(result.cost.max_intermediate <= 2.0 + 1e-6);
    }

    #[test]
    fn unknown_attributes_are_rejected() {
        let tree = example11_tree();
        assert!(ExhaustiveOptimizer::new()
            .optimize(&tree, &[(AttrId(1), AttrId(77))])
            .is_err());
    }

    #[test]
    fn cancellation_stops_the_search_and_budgets_do_not() {
        use fdb_common::QueryLimits;
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;
        let tree = example11_tree();
        let conditions = [(AttrId(1), AttrId(5))];
        let cancelled = QueryLimits::unlimited().with_cancel(Arc::new(AtomicBool::new(true)));
        assert_eq!(
            ExhaustiveOptimizer::new()
                .optimize_ctx(
                    &tree,
                    &conditions,
                    &ExecCtx::new(&cancelled),
                    &mut SCostMemo::new()
                )
                .unwrap_err(),
            FdbError::DeadlineExceeded { limit_ms: 0 }
        );
        // A budget is not the search's to spend: an exhausted one changes
        // nothing here.
        let broke = ExecCtx::new(&QueryLimits::unlimited().with_budget(0));
        let governed = ExhaustiveOptimizer::new()
            .optimize_ctx(&tree, &conditions, &broke, &mut SCostMemo::new())
            .unwrap();
        let free = ExhaustiveOptimizer::new()
            .optimize(&tree, &conditions)
            .unwrap();
        assert_eq!(governed.plan, free.plan);
        assert_eq!(broke.budget_remaining(), 0);
    }

    /// A request: `(K, L, input tree, equalities)`.
    type Request = (usize, usize, FTree, Vec<(AttrId, AttrId)>);

    /// The `serve_cold` benchmark's 240 requests (the catalogue the reference
    /// suite draws, from `K = 2`): five `K`s of four base queries of twelve
    /// follow-ups each.
    fn serve_cold_requests() -> Vec<Request> {
        use crate::optimal_ftree;
        use fdb_common::RelId;
        use fdb_datagen::{
            combinatorial_database, random_followup_equalities, random_query, ValueDistribution,
        };
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(0xFDB4);
        let db = combinatorial_database(&mut StdRng::seed_from_u64(1), ValueDistribution::Uniform);
        let catalog = db.catalog().clone();
        let rels: Vec<RelId> = catalog.rels().collect();
        let mut requests = Vec::new();
        for k in 2..=6 {
            for _ in 0..4 {
                let base = random_query(&mut rng, &catalog, &rels, k);
                let tree = optimal_ftree(&catalog, &base, |r| db.rel_len(r) as u64)
                    .unwrap()
                    .tree;
                for l in 1..=3 {
                    for _ in 0..4 {
                        let follow = random_followup_equalities(&mut rng, &catalog, &base, l);
                        requests.push((k, l, tree.clone(), follow));
                    }
                }
            }
        }
        requests
    }

    fn bits(cost: &FPlanCost) -> Vec<u64> {
        cost.steps.iter().map(|s| s.to_bits()).collect()
    }

    /// Greedy is a heuristic, not an equal.  The benchmark's
    /// `plan.greedy_cost_ratio` of 1.000 compares `max_intermediate` alone;
    /// the final trees differ.
    #[test]
    fn the_exhaustive_plan_is_never_worse_than_greedy_and_sometimes_better() {
        use crate::optimizer::greedy::GreedyOptimizer;
        let (mut cases, mut better) = (0, 0);
        // Every request also runs through one memo kept across all 240, as a
        // plan cache's pooled memo is: a warm memo changes nothing.
        let mut warm = SCostMemo::new();
        for (k, l, tree, follow) in serve_cold_requests() {
            let best = ExhaustiveOptimizer::new().optimize(&tree, &follow).unwrap();
            let pooled = ExhaustiveOptimizer::new()
                .optimize_ctx(&tree, &follow, &ExecCtx::unlimited(), &mut warm)
                .unwrap();
            assert_eq!(pooled.plan, best.plan, "{follow:?}");
            assert_eq!(bits(&pooled.cost), bits(&best.cost), "{follow:?}");
            assert_eq!(pooled.explored_states, best.explored_states);
            let reached = best.plan.final_tree(&tree).unwrap();
            assert!(crate::optimizer::is_goal(&reached, &follow), "{follow:?}");
            // The stop's bound is tight on every request.
            let bound = SCostMemo::new().min_s_cost(&reached).unwrap();
            assert_eq!(bound.to_bits(), best.cost.final_cost.to_bits());
            let greedy = GreedyOptimizer::new().optimize(&tree, &follow).unwrap();
            let order = |c: &FPlanCost, d: &FPlanCost| {
                let key = |c: &FPlanCost| [c.max_intermediate, c.final_cost];
                key(c).partial_cmp(&key(d)).unwrap()
            };
            assert!(
                order(&best.cost, &greedy.cost).is_le(),
                "K={k} L={l} {follow:?}: {:?} vs greedy {:?}",
                best.cost,
                greedy.cost
            );
            better += usize::from(order(&best.cost, &greedy.cost).is_lt());
            cases += 1;
        }
        assert_eq!(cases, 240);
        // Today: 4 of the 240, each a final tree of cost 1 against greedy's 2.
        assert!(better > 0, "greedy matched the optimum on all {cases}");
    }

    #[test]
    fn serve_cold_requests_keep_their_plans_costs_and_states() {
        // FNV-1a over each base query's twelve requests: the plan's
        // operators, its cost-step bits and the states it settled.  Which
        // of several equally good plans the search returns depends on the
        // order it pushes and pops states in, so an expansion that probes,
        // builds or numbers states in another order changes a digest here.
        // One digest per base query, K = 2, 2, 2, 2, 3, …, 6.
        let pins: [u64; 20] = [
            0x7771_7ea1_64b7_f5a8,
            0x4318_9846_f44b_eec7,
            0x5028_a8f3_fc0d_3cf3,
            0x46d4_4a74_9ee9_4f96,
            0x1543_7a29_0ea4_b6fe,
            0x3139_5bed_0cee_7826,
            0x1bd8_d97a_a054_ba3d,
            0xbeb2_3d72_4296_8dd8,
            0xfc65_af6b_1772_56ba,
            0x1351_456a_c660_9974,
            0x724e_b34f_c6db_200d,
            0x6600_50e7_901d_5d55,
            0x78a1_d0fb_b1ec_13ad,
            0xaf46_7228_0eca_0824,
            0x446d_6bc0_b43f_33da,
            0x41b4_1be2_fc2f_dc3d,
            0x7eb9_0186_078c_5a09,
            0x6e98_8845_50d8_254c,
            0xd8f6_38a2_4e8c_42f4,
            0x92c0_f3ac_8c93_cef4,
        ];
        let mut digests = [0xcbf2_9ce4_8422_2325_u64; 20];
        let mut states = 0;
        for (i, (_, _, tree, follow)) in serve_cold_requests().into_iter().enumerate() {
            let best = ExhaustiveOptimizer::new().optimize(&tree, &follow).unwrap();
            let mut bytes = format!("{:?}", best.plan.ops).into_bytes();
            for word in bits(&best.cost)
                .into_iter()
                .chain([best.explored_states as u64])
            {
                bytes.extend(word.to_le_bytes());
            }
            let digest = &mut digests[i / 12];
            for b in bytes {
                *digest = (*digest ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
            }
            states += best.explored_states;
        }
        assert_eq!(digests, pins);
        assert_eq!(states, 5431);
    }

    /// The search, the full sweep's plan and the bound of the chosen goal.
    fn search_and_sweep(tree: &FTree, conditions: &[(AttrId, AttrId)]) -> (OptimizedPlan, f64) {
        use crate::optimizer::exhaustive_reference::ReferenceOptimizer;
        let unlimited = ExecCtx::unlimited();
        let (best, tight) = ExhaustiveOptimizer::new()
            .search(
                tree,
                conditions,
                &unlimited,
                &mut SCostMemo::new(),
                MAX_STATES,
            )
            .unwrap();
        let full = ReferenceOptimizer {
            max_states: MAX_STATES,
        }
        .optimize(tree, conditions)
        .unwrap();
        assert_eq!(best.plan, full.plan);
        assert_eq!(best.cost.steps, full.cost.steps);
        assert!(best.explored_states < full.explored_states);
        assert_eq!(tight, None, "the floor decides");
        let reached = best.plan.final_tree(tree).unwrap();
        let bound = SCostMemo::new().min_s_cost(&reached).unwrap();
        (best, bound)
    }

    #[test]
    fn an_all_constant_goal_has_bound_zero_and_stops_the_search() {
        use fdb_common::Value;
        let mut tree = example11_tree();
        for node in tree.node_ids() {
            tree.bind_constant(node, Value::new(u64::from(node.0)))
                .unwrap();
        }
        // Every tree costs 0, so the full sweep settles every reachable one.
        // The search pops in plan-length order — the input, its four swaps,
        // then trees two operators away — and stops at the first goal, a
        // swap of F under A,D followed by the merge of B and F.
        let (best, bound) = search_and_sweep(&tree, &[(AttrId(1), AttrId(5))]);
        assert_eq!((bound, best.cost.max_intermediate), (0.0, 0.0));
        assert_eq!((best.plan.len(), best.explored_states), (2, 8));
    }

    #[test]
    fn a_constant_merged_with_a_free_node_stays_out_of_the_bound() {
        use fdb_common::Value;
        // A → B → C → D with R{A,B}, S{B,C,D}, T{A,C}: the path A, B, C is
        // the triangle (1.5).  D is bound to a constant; absorbing it into C
        // binds C, and the goal A → B → {C,D} costs 1 (R covers A and B).
        // Counting {C,D} as free would bound it by the triangle's 1.5.
        let edges = vec![
            DepEdge::new("R", attrs(&[0, 1]), 10),
            DepEdge::new("S", attrs(&[1, 2, 3]), 10),
            DepEdge::new("T", attrs(&[0, 2]), 10),
        ];
        let mut tree = FTree::new(edges);
        let mut parent = None;
        for attr in 0..4 {
            parent = Some(tree.add_node(attrs(&[attr]), parent).unwrap());
        }
        tree.bind_constant(parent.unwrap(), Value::new(7)).unwrap();
        let (best, bound) = search_and_sweep(&tree, &[(AttrId(2), AttrId(3))]);
        let reached = best.plan.final_tree(&tree).unwrap();
        assert!(reached
            .constant(reached.node_of_attr(AttrId(2)).unwrap())
            .is_some());
        assert_eq!((bound, best.cost.final_cost), (1.0, 1.0));
    }

    #[test]
    fn a_floor_miss_off_the_plateau_computes_no_bound() {
        // X with children P and Q, three independent unary relations: every
        // path costs 2.  Merging P and Q reaches a goal of cost 2, which
        // misses the floor; each swap puts three nodes on a path (cost 3), so
        // the heap has left the goal's plateau and the tight bound (1: two
        // independent roots) would be wasted work.
        let edges = vec![
            DepEdge::new("R", attrs(&[0]), 5),
            DepEdge::new("S", attrs(&[1]), 5),
            DepEdge::new("T", attrs(&[2]), 5),
        ];
        let mut tree = FTree::new(edges);
        let x = tree.add_node(attrs(&[0]), None).unwrap();
        let p = tree.add_node(attrs(&[1]), Some(x)).unwrap();
        let q = tree.add_node(attrs(&[2]), Some(x)).unwrap();
        let (best, tight) = ExhaustiveOptimizer::new()
            .search(
                &tree,
                &[(AttrId(1), AttrId(2))],
                &ExecCtx::unlimited(),
                &mut SCostMemo::new(),
                MAX_STATES,
            )
            .unwrap();
        assert_eq!(tight, None);
        assert_eq!(best.plan.ops, vec![FPlanOp::Merge(p, q)]);
        assert_eq!((best.cost.final_cost, best.explored_states), (2.0, 2));
        let reached = best.plan.final_tree(&tree).unwrap();
        assert_eq!(SCostMemo::new().min_s_cost(&reached).unwrap(), 1.0);
    }

    #[test]
    fn state_budget_is_respected() {
        let tree = example11_tree();
        // With a one-state budget the search cannot finish unless the goal is
        // immediate; B = F is not, so it must fail gracefully.
        let tiny = ExhaustiveOptimizer::new().search(
            &tree,
            &[(AttrId(1), AttrId(5))],
            &ExecCtx::unlimited(),
            &mut SCostMemo::new(),
            1,
        );
        assert!(matches!(tiny, Err(FdbError::NoPlanFound { .. })));
    }
}
