//! Tests of the optimal f-tree search over flat input (Experiment 1 of the
//! paper).  The search lives beside `s(T)` in `fdb_ftree::cost`, where it
//! takes every path cover from an `SCostMemo`; this crate re-exports it as
//! [`crate::optimal_ftree`], and these tests pin its answers on the paper's
//! examples.

#[cfg(test)]
mod tests {
    use crate::optimal_ftree;
    use fdb_common::{Catalog, Query, RelId};
    use fdb_ftree::s_cost;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-6
    }

    /// The grocery catalog with the five relations of Figure 1.
    fn grocery() -> (Catalog, Vec<RelId>) {
        let mut catalog = Catalog::new();
        let (o, _) = catalog.add_relation("Orders", &["oid", "item"]);
        let (s, _) = catalog.add_relation("Store", &["location", "item"]);
        let (d, _) = catalog.add_relation("Disp", &["dispatcher", "location"]);
        let (p, _) = catalog.add_relation("Produce", &["supplier", "item"]);
        let (sv, _) = catalog.add_relation("Serve", &["supplier", "location"]);
        (catalog, vec![o, s, d, p, sv])
    }

    #[test]
    fn q1_has_optimal_cost_two() {
        // Example 5: s(Q1) = 2 for Orders ⋈ Store ⋈ Disp.
        let (catalog, rels) = grocery();
        let q1 = Query::product(vec![rels[0], rels[1], rels[2]])
            .with_equality(
                catalog.find_attr("Orders.item").unwrap(),
                catalog.find_attr("Store.item").unwrap(),
            )
            .with_equality(
                catalog.find_attr("Store.location").unwrap(),
                catalog.find_attr("Disp.location").unwrap(),
            );
        let result = optimal_ftree(&catalog, &q1, |_| 1).unwrap();
        assert!(close(result.cost, 2.0), "cost = {}", result.cost);
        assert!(close(s_cost(&result.tree).unwrap(), result.cost));
        result.tree.check_path_constraint().unwrap();
        assert_eq!(result.tree.all_attrs().len(), 6);
    }

    #[test]
    fn q2_has_optimal_cost_one() {
        // Example 5: s(Q2) = 1 for Produce ⋈_supplier Serve (f-tree T3).
        let (catalog, rels) = grocery();
        let q2 = Query::product(vec![rels[3], rels[4]]).with_equality(
            catalog.find_attr("Produce.supplier").unwrap(),
            catalog.find_attr("Serve.supplier").unwrap(),
        );
        let result = optimal_ftree(&catalog, &q2, |_| 1).unwrap();
        assert!(close(result.cost, 1.0), "cost = {}", result.cost);
        // The optimal tree groups by supplier first: the supplier class is
        // the root and item/location hang below it.
        let supplier_class_node = result
            .tree
            .node_of_attr(catalog.find_attr("Produce.supplier").unwrap())
            .unwrap();
        assert!(result.tree.parent(supplier_class_node).is_none());
        assert_eq!(result.tree.children(supplier_class_node).len(), 2);
    }

    #[test]
    fn single_relation_queries_cost_one() {
        let (catalog, rels) = grocery();
        let q = Query::product(vec![rels[0]]);
        let result = optimal_ftree(&catalog, &q, |_| 1).unwrap();
        assert!(close(result.cost, 1.0));
        assert_eq!(result.tree.node_count(), 2);
    }

    #[test]
    fn chain_queries_grow_logarithmically() {
        // Example 6: a chain of equality joins R1(A1,B1) ⋈ … has
        // s(Q_n) = Θ(log n); for n = 2 the cost is 1, for n = 4 it is 2.
        let mut catalog = Catalog::new();
        let mut rels = Vec::new();
        for i in 0..4 {
            let (r, _) = catalog.add_relation(&format!("R{i}"), &["A", "B"]);
            rels.push(r);
        }
        let attr = |i: usize, name: &str| catalog.find_attr(&format!("R{i}.{name}")).unwrap();
        // 2-chain: R0.B = R1.A.
        let q2 = Query::product(vec![rels[0], rels[1]]).with_equality(attr(0, "B"), attr(1, "A"));
        let r2 = optimal_ftree(&catalog, &q2, |_| 1).unwrap();
        assert!(close(r2.cost, 1.0), "2-chain cost = {}", r2.cost);
        // 4-chain: R0.B=R1.A, R1.B=R2.A, R2.B=R3.A.
        let q4 = Query::product(rels.clone())
            .with_equality(attr(0, "B"), attr(1, "A"))
            .with_equality(attr(1, "B"), attr(2, "A"))
            .with_equality(attr(2, "B"), attr(3, "A"));
        let r4 = optimal_ftree(&catalog, &q4, |_| 1).unwrap();
        assert!(close(r4.cost, 2.0), "4-chain cost = {}", r4.cost);
        r4.tree.check_path_constraint().unwrap();
    }

    #[test]
    fn product_of_disjoint_relations_costs_one() {
        let (catalog, rels) = grocery();
        let q = Query::product(vec![rels[0], rels[2]]);
        let result = optimal_ftree(&catalog, &q, |_| 1).unwrap();
        assert!(close(result.cost, 1.0));
        // Two independent relations give two root subtrees.
        assert_eq!(result.tree.roots().len(), 2);
    }

    #[test]
    fn triangle_query_costs_three_halves() {
        // R(A,B), S(B,C), T(C,A) joined pairwise: the fractional edge cover
        // of any root-to-leaf order of the three classes is 1.5.
        let mut catalog = Catalog::new();
        let (r, _) = catalog.add_relation("R", &["A", "B"]);
        let (s, _) = catalog.add_relation("S", &["B", "C"]);
        let (t, _) = catalog.add_relation("T", &["C", "A"]);
        let q = Query::product(vec![r, s, t])
            .with_equality(
                catalog.find_attr("R.A").unwrap(),
                catalog.find_attr("T.A").unwrap(),
            )
            .with_equality(
                catalog.find_attr("R.B").unwrap(),
                catalog.find_attr("S.B").unwrap(),
            )
            .with_equality(
                catalog.find_attr("S.C").unwrap(),
                catalog.find_attr("T.C").unwrap(),
            );
        let result = optimal_ftree(&catalog, &q, |_| 1).unwrap();
        assert!(close(result.cost, 1.5), "triangle cost = {}", result.cost);
    }

    #[test]
    fn larger_random_style_query_terminates_quickly() {
        // 6 relations of 5 attributes each (30 attributes), 5 equalities —
        // the scale of Experiment 1's mid-range settings.
        let mut catalog = Catalog::new();
        let mut rels = Vec::new();
        for i in 0..6 {
            let names: Vec<String> = (0..5).map(|j| format!("a{j}")).collect();
            let (r, _) = catalog.add_relation(&format!("R{i}"), &names);
            rels.push(r);
        }
        let attr = |i: usize, j: usize| catalog.find_attr(&format!("R{i}.a{j}")).unwrap();
        let q = Query::product(rels)
            .with_equality(attr(0, 0), attr(1, 0))
            .with_equality(attr(1, 1), attr(2, 0))
            .with_equality(attr(2, 1), attr(3, 0))
            .with_equality(attr(0, 1), attr(4, 0))
            .with_equality(attr(4, 1), attr(5, 0));
        let result = optimal_ftree(&catalog, &q, |_| 1).unwrap();
        assert!(result.cost >= 1.0 && result.cost <= 3.0);
        assert_eq!(result.tree.all_attrs().len(), 30);
        result.tree.check_path_constraint().unwrap();
    }
}
