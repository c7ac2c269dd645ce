//! Randomized checks of the derived state this crate maintains: incidence
//! sets against their set-scan definition, the byte key against the string
//! key it replaced, and the memoised, order-free `s(T)` against the per-path
//! LPs.

use crate::cost::{s_cost_details, SCostMemo};
use crate::edgeset::IndexSet;
use crate::ftree::{DepEdge, FTree, NodeId};
use fdb_common::{AttrId, Value};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

/// A forest with one chain per relation, one singleton class per attribute
/// (the shape of a flat database), attribute ids counted up from
/// `first_attr`.
pub(crate) fn relation_chains(rng: &mut StdRng, relations: usize, first_attr: u32) -> FTree {
    let mut next = first_attr;
    let schemas: Vec<Vec<AttrId>> = (0..relations)
        .map(|_| {
            (0..rng.gen_range(1..=3u32))
                .map(|_| {
                    next += 1;
                    AttrId(next - 1)
                })
                .collect()
        })
        .collect();
    let edges = schemas
        .iter()
        .enumerate()
        .map(|(i, attrs)| DepEdge::new(format!("R{i}"), attrs.iter().copied().collect(), 10))
        .collect();
    let mut tree = FTree::new(edges);
    for attrs in &schemas {
        let mut parent = None;
        for &attr in attrs {
            parent = Some(tree.add_node([attr].into_iter().collect(), parent).unwrap());
        }
    }
    tree
}

/// The definition the bitsets stand for: the edges with an attribute in the
/// node's class, found by scanning.
fn scanned_edges(tree: &FTree, node: NodeId) -> Vec<usize> {
    let class = tree.class(node);
    (0..tree.edges().len())
        .filter(|&i| tree.edges()[i].attrs.iter().any(|a| class.contains(a)))
        .collect()
}

fn assert_incidence_matches_scan(tree: &FTree, after: &str) {
    tree.check_structure()
        .unwrap_or_else(|e| panic!("after {after}: {e}"));
    let nodes = tree.node_ids();
    let scanned: Vec<Vec<usize>> = nodes.iter().map(|&n| scanned_edges(tree, n)).collect();
    for (i, &n) in nodes.iter().enumerate() {
        assert_eq!(
            tree.incidence(n).iter().collect::<Vec<_>>(),
            scanned[i],
            "after {after}: {n}"
        );
        // The dependency queries read the same sets.
        if let Some(&next) = nodes.get(i + 1) {
            let shared = scanned[i].iter().any(|e| scanned[i + 1].contains(e));
            assert_eq!(
                tree.incidence(n).intersects(tree.incidence(next)),
                shared,
                "after {after}"
            );
        }
    }
}

/// Applies one random edit; returns its name, or `None` when the drawn edit
/// had no legal target in this tree.
pub(crate) fn random_edit(
    tree: &mut FTree,
    rng: &mut StdRng,
    next_attr: &mut u32,
) -> Option<&'static str> {
    let nodes = tree.node_ids();
    let pick = |rng: &mut StdRng, from: &[NodeId]| from.choose(rng).copied();
    match rng.gen_range(0..9u32) {
        0 | 1 => {
            let inner: Vec<NodeId> = nodes
                .iter()
                .copied()
                .filter(|&n| tree.parent(n).is_some())
                .collect();
            tree.swap_with_parent(pick(rng, &inner)?).unwrap();
            Some("swap")
        }
        2 => {
            let a = pick(rng, &nodes)?;
            let siblings: Vec<NodeId> = nodes
                .iter()
                .copied()
                .filter(|&b| tree.are_siblings(a, b))
                .collect();
            tree.merge_siblings(a, pick(rng, &siblings)?).unwrap();
            Some("merge")
        }
        3 => {
            let b = pick(rng, &nodes)?;
            let a = pick(rng, &tree.ancestors(b))?;
            tree.absorb_into_ancestor(a, b).unwrap();
            tree.normalise(FTree::apply_edit).unwrap();
            Some("absorb")
        }
        4 => {
            tree.normalise(FTree::apply_edit).unwrap();
            Some("normalise")
        }
        5 => {
            let liftable: Vec<NodeId> = nodes
                .iter()
                .copied()
                .filter(|&n| tree.can_push_up(n))
                .collect();
            tree.push_up(pick(rng, &liftable)?).unwrap();
            Some("push-up")
        }
        6 => {
            // Prefer a leaf several edges meet in, so the removal merges them.
            let leaves: Vec<NodeId> = tree.leaf_ids().collect();
            let shared: Vec<NodeId> = leaves
                .iter()
                .copied()
                .filter(|&l| tree.incidence(l).iter().count() > 1)
                .collect();
            let leaf = pick(rng, if shared.is_empty() { &leaves } else { &shared })?;
            let class = tree.class(leaf).clone();
            tree.mark_attrs_projected(&class);
            tree.remove_projected_leaf(leaf).unwrap();
            Some("remove_projected_leaf")
        }
        7 => {
            let other = relation_chains(rng, 2, *next_attr);
            *next_attr += 6;
            tree.import_forest(&other).unwrap();
            Some("import_forest")
        }
        _ => {
            *tree = FTree::from_snapshot(
                tree.edges().to_vec(),
                tree.snapshot_nodes(),
                tree.roots().to_vec(),
            )
            .unwrap();
            Some("snapshot round trip")
        }
    }
}

#[test]
fn incidence_sets_equal_the_set_scan_after_random_edits() {
    for (relations, steps) in [(3, 60), (65, 60), (128, 40), (200, 30)] {
        let mut merged_edges = false;
        for seed in 0..2 {
            let mut rng = StdRng::seed_from_u64(0x1C1D ^ (relations as u64) << 8 ^ seed);
            let mut tree = relation_chains(&mut rng, relations, 0);
            let mut next_attr = 3 * relations as u32;
            assert_incidence_matches_scan(&tree, "construction");
            // Join relations up first, so classes span edges before the
            // mixed edits start: single-attribute relations pairwise (leaves
            // two edges meet in), then some of the chains.
            let single: Vec<NodeId> = tree
                .roots()
                .iter()
                .copied()
                .filter(|&r| tree.is_leaf(r))
                .collect();
            for pair in single.chunks_exact(2) {
                tree.merge_siblings(pair[0], pair[1]).unwrap();
            }
            for _ in 0..relations / 4 {
                let roots = tree.roots().to_vec();
                if let [a, .., b] = roots[..] {
                    tree.merge_siblings(a, b).unwrap();
                }
            }
            assert_incidence_matches_scan(&tree, "root merges");
            for _ in 0..steps {
                let edges_before = tree.edges().len();
                if let Some(edit) = random_edit(&mut tree, &mut rng, &mut next_attr) {
                    assert_incidence_matches_scan(&tree, edit);
                    merged_edges |=
                        edit == "remove_projected_leaf" && tree.edges().len() < edges_before;
                }
            }
        }
        assert!(
            merged_edges,
            "{relations} relations: no edge merge was exercised"
        );
    }
}

// ----------------------------------------------------------------------
// Keys
// ----------------------------------------------------------------------

/// The string key `canonical_key` produced before it became a byte key.
fn string_key(tree: &FTree) -> String {
    fn subtree(tree: &FTree, id: NodeId) -> String {
        let attrs: Vec<String> = tree.class(id).iter().map(|a| a.0.to_string()).collect();
        let mut child_keys: Vec<String> = tree
            .children(id)
            .iter()
            .map(|&c| subtree(tree, c))
            .collect();
        child_keys.sort();
        let constant = match tree.constant(id) {
            Some(v) => format!("={v}"),
            None => String::new(),
        };
        format!(
            "({}{}[{}])",
            attrs.join(","),
            constant,
            child_keys.join(",")
        )
    }
    let mut root_keys: Vec<String> = tree.roots().iter().map(|&r| subtree(tree, r)).collect();
    root_keys.sort();
    root_keys.join("+")
}

/// A forest as a list of `(class, parent position, constant)`, parents
/// before children.
type Spec = Vec<(BTreeSet<AttrId>, Option<usize>, Option<Value>)>;

fn random_spec(rng: &mut StdRng) -> Spec {
    let nodes = rng.gen_range(1..=7);
    let mut next = 0;
    (0..nodes)
        .map(|i| {
            let class = (0..rng.gen_range(1..=2u32))
                .map(|_| {
                    next += 1;
                    AttrId(next - 1)
                })
                .collect();
            let parent = (i > 0 && rng.gen_bool(0.8)).then(|| rng.gen_range(0..i));
            let constant = rng
                .gen_bool(0.2)
                .then(|| Value::new(rng.gen_range(0..3u64)));
            (class, parent, constant)
        })
        .collect()
}

/// Builds the forest, inserting nodes in a random parents-first order — so
/// sibling and root order differ from call to call, and node ids with them.
fn build_shuffled(spec: &Spec, rng: &mut StdRng) -> FTree {
    let mut tree = FTree::new(Vec::new());
    let mut placed: Vec<Option<NodeId>> = vec![None; spec.len()];
    let mut pending: Vec<usize> = (0..spec.len()).collect();
    while !pending.is_empty() {
        pending.shuffle(rng);
        let at = pending
            .iter()
            .position(|&i| spec[i].1.is_none_or(|p| placed[p].is_some()))
            .unwrap();
        let i = pending.swap_remove(at);
        let (class, parent, constant) = &spec[i];
        let id = tree
            .add_node(class.clone(), parent.map(|p| placed[p].unwrap()))
            .unwrap();
        if let Some(v) = constant {
            tree.bind_constant(id, *v).unwrap();
        }
        placed[i] = Some(id);
    }
    tree
}

/// A near copy of the spec: one node re-parented, one constant changed, or
/// one attribute moved to another class — most of the forest (and of both
/// keys) stays shared.
fn perturbed(spec: &Spec, rng: &mut StdRng) -> Spec {
    let mut out = spec.clone();
    let i = rng.gen_range(0..out.len());
    match rng.gen_range(0..3u32) {
        0 if i > 0 => out[i].1 = rng.gen_bool(0.7).then(|| rng.gen_range(0..i)),
        1 => {
            out[i].2 = rng
                .gen_bool(0.5)
                .then(|| Value::new(rng.gen_range(0..3u64)))
        }
        _ => {
            let j = rng.gen_range(0..out.len());
            if i != j && out[i].0.len() > 1 {
                let moved = *out[i].0.iter().next_back().unwrap();
                out[i].0.remove(&moved);
                out[j].0.insert(moved);
            }
        }
    }
    out
}

#[test]
fn byte_keys_agree_with_the_string_keys_they_replaced() {
    let (mut equal, mut different) = (0, 0);
    for seed in 0..400 {
        let mut rng = StdRng::seed_from_u64(0xCE7 ^ seed);
        let spec = random_spec(&mut rng);
        let other = if seed % 4 == 0 {
            spec.clone()
        } else {
            perturbed(&spec, &mut rng)
        };
        let a = build_shuffled(&spec, &mut rng);
        let b = build_shuffled(&other, &mut rng);
        let strings_equal = string_key(&a) == string_key(&b);
        assert_eq!(
            a.canonical_key() == b.canonical_key(),
            strings_equal,
            "seed {seed}: {} vs {}",
            string_key(&a),
            string_key(&b)
        );
        if strings_equal {
            equal += 1;
        } else {
            different += 1;
        }
    }
    assert!(
        equal >= 80 && different >= 80,
        "{equal} equal, {different} different"
    );
}

// ----------------------------------------------------------------------
// Memoised s(T)
// ----------------------------------------------------------------------

#[test]
fn memoised_s_cost_is_bit_equal_to_the_per_path_maximum() {
    // One memo across every tree: a path cover remembered from one tree
    // must be the right answer in all the others.
    let mut memo = SCostMemo::new();
    let mut paths = 0;
    for seed in 0..60 {
        let mut rng = StdRng::seed_from_u64(0x5C057 ^ seed);
        let relations = rng.gen_range(2..=5usize);
        let mut tree = relation_chains(&mut rng, relations, 0);
        let mut next_attr = 15;
        for step in 0..12 {
            if random_edit(&mut tree, &mut rng, &mut next_attr).is_none() {
                continue;
            }
            let nodes = tree.node_ids();
            if step % 4 == 3 && !nodes.is_empty() {
                tree.bind_constant(nodes[rng.gen_range(0..nodes.len())], Value::new(1))
                    .unwrap();
            }
            let per_path = s_cost_details(&tree).unwrap();
            let expected = per_path.iter().map(|p| p.cost).fold(0.0, f64::max);
            paths += per_path.len();
            let memoised = memo.s_cost(&tree).unwrap();
            assert_eq!(
                memoised.to_bits(),
                expected.to_bits(),
                "seed {seed} step {step}"
            );
            assert_eq!(
                crate::cost::s_cost(&tree).unwrap().to_bits(),
                expected.to_bits()
            );
        }
    }
    // Most of those paths were answered from one seen before, in this order
    // of nodes or another.
    let solved = memo.covers.len();
    assert!(solved * 4 < paths, "{solved} LPs, {paths} paths");
}
