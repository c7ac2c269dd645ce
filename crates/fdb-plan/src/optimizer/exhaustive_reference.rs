//! The exhaustive search as it stood before the arena/memo rewrite, kept as
//! the differential oracle of [`super::exhaustive`]: the loop below is the
//! old one verbatim — a deep copy of tree and plan per popped state and per
//! neighbour, one `s(T)` per generated neighbour, goals and the chosen plan
//! re-costed at the end.  Only what it stands on has been pinned down: keys
//! are the byte keys (the old string keys induce the same equivalence, see
//! the key test in `fdb-ftree`), and `s(T)` is the unmemoised
//! `max(s_cost_details)` — one LP per path, every time.

use crate::cost::FPlanCost;
use crate::fplan::{FPlan, FPlanOp};
use crate::optimizer::OptimizedPlan;
use fdb_common::{AttrId, FdbError, Result};
use fdb_ftree::{s_cost_details, FTree};
use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap};

/// `s(T)` without a memo.
pub(crate) fn s_cost(tree: &FTree) -> Result<f64> {
    let details = s_cost_details(tree)?;
    Ok(details.into_iter().map(|p| p.cost).fold(0.0, f64::max))
}

/// `plan_cost` as it was: simulate, then cost every tree from scratch.
pub(crate) fn plan_cost(plan: &FPlan, input: &FTree) -> Result<FPlanCost> {
    let trees = plan.simulate(input)?;
    let mut steps = Vec::with_capacity(trees.len());
    for t in &trees {
        steps.push(s_cost(t)?);
    }
    let max_intermediate = steps.iter().copied().fold(0.0, f64::max);
    let final_cost = *steps.last().expect("at least the input tree");
    Ok(FPlanCost {
        max_intermediate,
        final_cost,
        steps,
    })
}

/// The reference optimiser, settling at most `max_states` states.
#[derive(Clone, Copy, Debug)]
pub(crate) struct ReferenceOptimizer {
    pub(crate) max_states: usize,
}

#[derive(Clone)]
struct State {
    tree: FTree,
    plan: Vec<FPlanOp>,
    bottleneck: f64,
}

struct QueueItem {
    bottleneck: f64,
    plan_len: usize,
    key: Vec<u8>,
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
        // BinaryHeap is a max-heap; reverse so the smallest cost pops first
        // (in `f64`'s total order; no NaN is ever produced).
        (other.bottleneck.total_cmp(&self.bottleneck)).then(other.plan_len.cmp(&self.plan_len))
    }
}

impl ReferenceOptimizer {
    /// Finds an optimal f-plan enforcing the given equality conditions on an
    /// input over `input_tree`.
    ///
    /// Constant selections and projections are deliberately not part of the
    /// search: FDB applies constant selections first (they are cheap and
    /// only shrink the data) and defers projections to the end of the plan.
    pub(crate) fn optimize(
        &self,
        input_tree: &FTree,
        equalities: &[(AttrId, AttrId)],
    ) -> Result<OptimizedPlan> {
        for (a, b) in equalities {
            if input_tree.node_of_attr(*a).is_none() || input_tree.node_of_attr(*b).is_none() {
                return Err(FdbError::AttributeNotInQuery {
                    attr: format!("{a} = {b}"),
                });
            }
        }

        let initial_cost = s_cost(input_tree)?;
        let initial = State {
            tree: input_tree.clone(),
            plan: Vec::new(),
            bottleneck: initial_cost,
        };
        let initial_key = input_tree.canonical_key();

        let mut best: HashMap<Vec<u8>, State> = HashMap::new();
        let mut heap: BinaryHeap<QueueItem> = BinaryHeap::new();
        heap.push(QueueItem {
            bottleneck: initial.bottleneck,
            plan_len: 0,
            key: initial_key.clone(),
        });
        best.insert(initial_key, initial);

        let mut explored = 0usize;
        let mut goals: Vec<State> = Vec::new();
        let mut goal_bottleneck: Option<f64> = None;

        while let Some(item) = heap.pop() {
            let Some(state) = best.get(&item.key).cloned() else {
                continue;
            };
            // Skip stale queue entries.
            if item.bottleneck > state.bottleneck + 1e-9 {
                continue;
            }
            // Once a goal has been found, only states with the same bottleneck
            // can still yield a better (lexicographically smaller) goal.
            if let Some(gb) = goal_bottleneck {
                if state.bottleneck > gb + 1e-9 {
                    break;
                }
            }
            explored += 1;
            if explored > self.max_states {
                return Err(FdbError::NoPlanFound {
                    detail: format!(
                        "exhaustive search exceeded its {}-state budget",
                        self.max_states
                    ),
                });
            }

            if Self::is_goal(&state.tree, equalities) {
                goal_bottleneck.get_or_insert(state.bottleneck);
                goals.push(state);
                continue;
            }

            for (op, next_tree) in Self::neighbours(&state.tree, equalities)? {
                let next_cost = s_cost(&next_tree)?;
                let bottleneck = state.bottleneck.max(next_cost);
                let key = next_tree.canonical_key();
                let mut plan = state.plan.clone();
                plan.push(op);
                let candidate = State {
                    tree: next_tree,
                    plan,
                    bottleneck,
                };
                let replace = match best.get(&key) {
                    None => true,
                    Some(existing) => {
                        bottleneck + 1e-9 < existing.bottleneck
                            || (bottleneck < existing.bottleneck + 1e-9
                                && candidate.plan.len() < existing.plan.len())
                    }
                };
                if replace {
                    heap.push(QueueItem {
                        bottleneck: candidate.bottleneck,
                        plan_len: candidate.plan.len(),
                        key: key.clone(),
                    });
                    best.insert(key, candidate);
                }
            }
        }

        let Some(_) = goal_bottleneck else {
            return Err(FdbError::NoPlanFound {
                detail: "no sequence of operators satisfies all equality conditions".into(),
            });
        };
        // Among the minimum-bottleneck goals pick the one with the smallest
        // final cost, then the shortest plan.
        let mut chosen: Option<(State, f64)> = None;
        for goal in goals {
            let final_cost = s_cost(&goal.tree)?;
            let better = match &chosen {
                None => true,
                Some((existing, existing_final)) => {
                    final_cost + 1e-9 < *existing_final
                        || (final_cost < existing_final + 1e-9
                            && goal.plan.len() < existing.plan.len())
                }
            };
            if better {
                chosen = Some((goal, final_cost));
            }
        }
        let (goal, _) = chosen.expect("at least one goal collected");
        let plan = FPlan::new(goal.plan);
        let cost = plan_cost(&plan, input_tree)?;
        Ok(OptimizedPlan {
            plan,
            cost,
            explored_states: explored,
        })
    }

    fn is_goal(tree: &FTree, equalities: &[(AttrId, AttrId)]) -> bool {
        equalities
            .iter()
            .all(|(a, b)| tree.node_of_attr(*a) == tree.node_of_attr(*b))
    }

    /// Enumerates the operator applications available from a state.
    fn neighbours(tree: &FTree, equalities: &[(AttrId, AttrId)]) -> Result<Vec<(FPlanOp, FTree)>> {
        let mut out = Vec::new();
        // All swaps.
        for node in tree.node_ids() {
            if tree.parent(node).is_some() {
                let mut next = tree.clone();
                next.swap_with_parent(node)?;
                out.push((FPlanOp::Swap(node), next));
            }
        }
        // Merges and absorbs demanded by the remaining equalities.
        for (a_attr, b_attr) in equalities {
            let (Some(na), Some(nb)) = (tree.node_of_attr(*a_attr), tree.node_of_attr(*b_attr))
            else {
                continue;
            };
            if na == nb {
                continue;
            }
            if tree.are_siblings(na, nb) {
                let mut next = tree.clone();
                next.merge_siblings(na, nb)?;
                out.push((FPlanOp::Merge(na, nb), next));
            } else if tree.is_ancestor(na, nb) {
                let mut next = tree.clone();
                next.absorb_into_ancestor(na, nb)?;
                next.normalise(FTree::apply_edit)?;
                out.push((FPlanOp::Absorb(na, nb), next));
            } else if tree.is_ancestor(nb, na) {
                let mut next = tree.clone();
                next.absorb_into_ancestor(nb, na)?;
                next.normalise(FTree::apply_edit)?;
                out.push((FPlanOp::Absorb(nb, na), next));
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::plan_cost_memo;
    use crate::optimal_ftree;
    use crate::optimizer::exhaustive::{ExhaustiveOptimizer, MAX_STATES};
    use fdb_common::{ExecCtx, RelId, Value};
    use fdb_datagen::{
        combinatorial_database, random_followup_equalities, random_query, random_schema,
        ValueDistribution,
    };
    use fdb_ftree::SCostMemo;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Runs both searches on one case and demands the same outcome: the same
    /// operators and bit-equal costs from no more settled states, or the
    /// same error.  Where the reference's full sweep runs out of the budget
    /// and the new search stops inside it, the new plan must be the
    /// reference's unbudgeted one.  Also pins that the cost the search
    /// assembles from its states is what `plan_cost_memo` computes for the
    /// plan, and that the stop's bound never exceeds the chosen goal's
    /// `s(T)`.
    /// Returns the settled-state counts of both (0 for an error).
    fn assert_same(
        tree: &FTree,
        equalities: &[(AttrId, AttrId)],
        max_states: usize,
        case: &str,
    ) -> (usize, usize) {
        let ctx = ExecCtx::unlimited();
        let new = ExhaustiveOptimizer::new()
            .search(tree, equalities, &ctx, &mut SCostMemo::new(), max_states)
            .map(|(plan, _)| plan);
        let old = ReferenceOptimizer { max_states }.optimize(tree, equalities);
        let (new, old) = match (new, old) {
            (Ok(new), Ok(old)) => (new, old),
            (Ok(new), Err(FdbError::NoPlanFound { .. })) => {
                let full = ReferenceOptimizer {
                    max_states: MAX_STATES,
                }
                .optimize(tree, equalities);
                (new, full.unwrap())
            }
            (Err(new), Err(old)) => {
                assert_eq!(new, old, "{case}");
                return (0, 0);
            }
            (new, old) => panic!("{case}: new {new:?} vs reference {old:?}"),
        };
        assert_eq!(new.plan.ops, old.plan.ops, "{case}: plans differ");
        assert!(new.explored_states <= old.explored_states, "{case}");
        assert_cost_bits(&new.cost, &old.cost, case);
        let mut memo = SCostMemo::new();
        let recomputed = plan_cost_memo(&new.plan, tree, &mut memo).unwrap();
        assert_cost_bits(&new.cost, &recomputed, case);
        let bound = memo
            .min_s_cost(&new.plan.final_tree(tree).unwrap())
            .unwrap();
        assert!(bound <= new.cost.final_cost, "{case}: bound {bound}");
        (new.explored_states, old.explored_states)
    }

    fn assert_cost_bits(a: &FPlanCost, b: &FPlanCost, case: &str) {
        let bits = |c: &FPlanCost| {
            let steps: Vec<u64> = c.steps.iter().map(|s| s.to_bits()).collect();
            (c.max_intermediate.to_bits(), c.final_cost.to_bits(), steps)
        };
        assert_eq!(bits(a), bits(b), "{case}: {a:?} vs {b:?}");
    }

    /// The `serve_cold` benchmark's catalogue, extended to `K = 1`: base
    /// queries of `K` equalities on the combinatorial dataset, their optimal
    /// f-trees as inputs, `L` follow-up equalities as requests.
    #[test]
    fn new_search_matches_the_reference_on_the_serve_cold_catalogue() {
        let mut rng = StdRng::seed_from_u64(0xFDB4);
        let db = combinatorial_database(&mut StdRng::seed_from_u64(1), ValueDistribution::Uniform);
        let catalog = db.catalog().clone();
        let rels: Vec<RelId> = catalog.rels().collect();
        let (mut cases, mut settled, mut reference) = (0, 0, 0);
        for k in 1..=6 {
            for _ in 0..4 {
                let base = random_query(&mut rng, &catalog, &rels, k);
                let tree = optimal_ftree(&catalog, &base, |r| db.rel_len(r) as u64)
                    .unwrap()
                    .tree;
                for l in 1..=3 {
                    for _ in 0..4 {
                        let follow = random_followup_equalities(&mut rng, &catalog, &base, l);
                        let case = format!("K={k} L={l} {follow:?}");
                        let (new, old) = assert_same(&tree, &follow, 500_000, &case);
                        (settled, reference) = (settled + new, reference + old);
                        cases += 1;
                    }
                }
            }
        }
        assert_eq!(cases, 288);
        // The full sweep settles 32 867 states; the stop leaves 9 001.
        assert_eq!(settled, 9_001);
        assert!(settled < reference, "{settled} vs {reference}");
    }

    /// Random schemas, queries and follow-ups; a third of the inputs carry a
    /// constant-bound node, and every case runs once to completion and once
    /// into a state budget it cannot meet.
    #[test]
    fn new_search_matches_the_reference_on_random_trees() {
        let mut cases = 0;
        for seed in 0..70u64 {
            let mut rng = StdRng::seed_from_u64(0x5EED ^ seed);
            let relations = rng.gen_range(2..=4);
            let attributes = rng.gen_range(relations + 2..=relations + 5);
            let catalog = random_schema(&mut rng, relations, attributes);
            let rels: Vec<RelId> = catalog.rels().collect();
            let k = rng.gen_range(1..=3);
            let base = random_query(&mut rng, &catalog, &rels, k);
            let mut tree = optimal_ftree(&catalog, &base, |r| 10 + r.0 as u64)
                .unwrap()
                .tree;
            if seed % 3 == 0 {
                let nodes = tree.node_ids();
                let bound = nodes[rng.gen_range(0..nodes.len())];
                tree.bind_constant(bound, Value::new(seed)).unwrap();
            }
            for l in 1..=3 {
                let follow = random_followup_equalities(&mut rng, &catalog, &base, l);
                let case = format!("seed={seed} L={l} {follow:?}");
                assert_same(&tree, &follow, 500_000, &case);
                assert_same(&tree, &follow, 1 + seed as usize % 7, &case);
                cases += 2;
            }
        }
        assert!(cases >= 200);
    }
}
