//! Tests of the optimal f-tree search over flat input (Experiment 1 of the
//! paper).  The search lives beside `s(T)` in `fdb_ftree::cost`, where it
//! takes every path cover from an `SCostMemo`; this crate re-exports it as
//! [`crate::optimal_ftree`], and these tests pin its answers on the paper's
//! examples and on Experiment 1's random queries.

#[cfg(test)]
mod tests {
    use crate::optimal_ftree;
    use fdb_common::{Catalog, Query, RelId};
    use fdb_datagen::{random_query, random_schema};
    use fdb_ftree::s_cost;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

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

    /// FNV-1a of a tree's canonical key.
    fn key_digest(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
            (hash ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
        })
    }

    #[test]
    fn experiment1_queries_keep_their_trees_costs_and_states() {
        // One query per (R, K) cell of Experiment 1 (40 attributes), drawn
        // in sweep order from its seed: (R, K, s(T), digest of the chosen
        // tree's canonical key).  Most cells have several optimal trees, so
        // a search that branches, breaks ties or sums its tie-breaker in
        // another order returns another one here.
        let pins: [(usize, usize, f64, u64); 36] = [
            (1, 1, 1.0, 0xa558_4d86_cfd9_afa3),
            (1, 2, 1.0, 0x058d_9ef5_bf02_92e2),
            (1, 3, 1.0, 0xd40f_6c10_0106_525b),
            (1, 4, 1.0, 0x7c44_997d_9d58_3d27),
            (1, 5, 1.0, 0x25d0_a0a9_bf90_d2ca),
            (1, 6, 1.0, 0x3148_44bd_38d5_425d),
            (2, 1, 1.0, 0xcb8c_ae5e_a66f_924a),
            (2, 2, 1.0, 0xd5ca_ff9b_cdf7_dc23),
            (2, 3, 1.0, 0xb1f6_aeed_91eb_2bf6),
            (2, 4, 1.0, 0x43f8_854f_ac6c_3264),
            (2, 5, 1.0, 0x29e1_f852_591e_becd),
            (2, 6, 1.0, 0x9d5f_7ea7_7c52_d314),
            (3, 1, 1.0, 0x3b2e_e38d_e5df_0faf),
            (3, 2, 1.0, 0x9a5c_d239_9b99_2c23),
            (3, 3, 2.0, 0xc20b_c057_50ab_79fa),
            (3, 4, 1.0, 0xf304_978d_15cd_ebcd),
            (3, 5, 2.0, 0x939d_4025_c810_24b9),
            (3, 6, 2.0, 0x97c9_b6e3_85ba_3fa0),
            (4, 1, 1.0, 0x386d_bac0_3544_75b4),
            (4, 2, 1.0, 0x57e6_4c59_12af_8a7a),
            (4, 3, 2.0, 0xa8f0_0570_8047_5804),
            (4, 4, 2.0, 0x1686_42a2_eff7_c83e),
            (4, 5, 2.0, 0x0abe_430a_420f_3e58),
            (4, 6, 2.0, 0xbef1_59fc_8973_072c),
            (5, 1, 1.0, 0xe9cf_bf1f_b3ba_b740),
            (5, 2, 1.0, 0x7da1_af47_72ba_fe71),
            (5, 3, 2.0, 0x5e8e_b396_37f4_4a77),
            (5, 4, 2.0, 0x0e73_e9d9_c190_1a30),
            (5, 5, 2.0, 0xc68d_4056_6114_111d),
            (5, 6, 1.0, 0xb0e3_2ae7_6687_886e),
            (6, 1, 1.0, 0x073d_8555_0c35_0acc),
            (6, 2, 1.0, 0xe088_b4b2_2376_a2da),
            (6, 3, 2.0, 0x3aa6_f1ba_e887_18b4),
            (6, 4, 2.0, 0x4583_8850_394f_5923),
            (6, 5, 2.0, 0x14c6_d985_c874_55ae),
            (6, 6, 2.0, 0x0ba1_7f9c_c069_fb5f),
        ];
        let mut rng = StdRng::seed_from_u64(0xFDB1);
        let mut states = 0;
        for (relations, equalities, cost, digest) in pins {
            let catalog = random_schema(&mut rng, relations, 40);
            let rels: Vec<RelId> = catalog.rels().collect();
            let query = random_query(&mut rng, &catalog, &rels, equalities);
            let found = optimal_ftree(&catalog, &query, |_| 1).unwrap();
            let cell = (relations, equalities);
            assert_eq!(found.cost.to_bits(), cost.to_bits(), "{cell:?}");
            assert_eq!(key_digest(&found.tree.canonical_key()), digest, "{cell:?}");
            states += found.explored_states;
        }
        assert_eq!(states, 88_138);
    }
}
