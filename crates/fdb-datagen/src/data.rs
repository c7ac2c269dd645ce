//! Random data generation: uniform and Zipf-distributed relation instances.

use fdb_common::{Catalog, RelId};
use fdb_relation::{Database, Relation};
use rand::Rng;
use rand_distr::{Distribution, Zipf};

/// The value distributions used in the paper's experiments.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ValueDistribution {
    /// Values drawn uniformly from `[1, domain]`.
    Uniform,
    /// Values drawn from `[1, domain]` under a Zipf distribution with the
    /// given exponent (the paper does not state the exponent; 1.0 is the
    /// classic choice and is what the harness uses).
    Zipf(f64),
}

impl ValueDistribution {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R, domain: u64) -> u64 {
        match self {
            ValueDistribution::Uniform => rng.gen_range(1..=domain),
            ValueDistribution::Zipf(exponent) => {
                let dist = Zipf::new(domain, *exponent).expect("valid Zipf parameters");
                dist.sample(rng) as u64
            }
        }
    }
}

/// Populates every relation of the catalog with `tuples_per_relation` random
/// tuples whose values are drawn from `[1, domain]` under the given
/// distribution.
pub fn populate<R: Rng + ?Sized>(
    rng: &mut R,
    catalog: &Catalog,
    tuples_per_relation: usize,
    domain: u64,
    distribution: ValueDistribution,
) -> Database {
    let mut db = Database::new(catalog.clone());
    for rel in catalog.rels() {
        let instance =
            random_relation(rng, catalog, rel, tuples_per_relation, domain, distribution);
        db.insert_relation(rel, instance)
            .expect("schema matches by construction");
    }
    db
}

/// Generates one random relation instance.
///
/// Relations are *sets* of tuples (as in the paper's relational algebra), so
/// duplicate draws are rejected and re-sampled; if the domain is too small to
/// provide the requested number of distinct tuples the relation saturates at
/// the largest size reachable within a bounded number of attempts.
pub fn random_relation<R: Rng + ?Sized>(
    rng: &mut R,
    catalog: &Catalog,
    rel: RelId,
    tuples: usize,
    domain: u64,
    distribution: ValueDistribution,
) -> Relation {
    let attrs = catalog.rel_attrs(rel).to_vec();
    let arity = attrs.len();
    let mut seen: std::collections::BTreeSet<Vec<u64>> = std::collections::BTreeSet::new();
    let mut rows: Vec<Vec<u64>> = Vec::with_capacity(tuples);
    let max_attempts = tuples.saturating_mul(50).max(1000);
    let mut attempts = 0;
    while rows.len() < tuples && attempts < max_attempts {
        attempts += 1;
        let row: Vec<u64> = (0..arity)
            .map(|_| distribution.sample(rng, domain))
            .collect();
        if seen.insert(row.clone()) {
            rows.push(row);
        }
    }
    Relation::from_raw_rows(attrs, &rows).expect("arity is consistent by construction")
}

/// The "combinatorial" dataset of Experiment 3 (right column of Figure 7):
/// four relations over ten attributes — two binary relations with `8² = 64`
/// tuples and two ternary relations with `8³ = 512` tuples — with values
/// drawn from `[1, 20]` under the given distribution.
///
/// Returns the catalog (named `R0 … R3` with attributes `a0 … a9`) already
/// populated.
pub fn combinatorial_database<R: Rng + ?Sized>(
    rng: &mut R,
    distribution: ValueDistribution,
) -> Database {
    let mut catalog = Catalog::new();
    catalog.add_relation("R0", &["a0", "a1"]);
    catalog.add_relation("R1", &["a2", "a3"]);
    catalog.add_relation("R2", &["a4", "a5", "a6"]);
    catalog.add_relation("R3", &["a7", "a8", "a9"]);
    let mut db = Database::new(catalog.clone());
    for rel in catalog.rels() {
        let tuples = if catalog.rel_arity(rel) == 2 { 64 } else { 512 };
        let instance = random_relation(rng, &catalog, rel, tuples, 20, distribution);
        db.insert_relation(rel, instance).expect("schema matches");
    }
    db
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::random_schema;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn populate_fills_every_relation() {
        let mut rng = StdRng::seed_from_u64(3);
        let catalog = random_schema(&mut rng, 3, 9);
        let db = populate(&mut rng, &catalog, 100, 1_000, ValueDistribution::Uniform);
        for rel in catalog.rels() {
            assert_eq!(db.rel_len(rel), 100);
        }
        assert_eq!(db.total_data_elements(), 9 * 100);
    }

    #[test]
    fn relations_are_sets_even_when_the_domain_is_tiny() {
        let mut rng = StdRng::seed_from_u64(30);
        let catalog = random_schema(&mut rng, 1, 1);
        // Only 5 distinct unary tuples exist; asking for 100 saturates at 5.
        let db = populate(&mut rng, &catalog, 100, 5, ValueDistribution::Uniform);
        let rel = catalog.rels().next().unwrap();
        assert_eq!(db.rel_len(rel), 5);
        let mut instance = db.relation(rel);
        let before = instance.len();
        instance.sort_and_dedup();
        assert_eq!(instance.len(), before, "no duplicate tuples are generated");
    }

    #[test]
    fn uniform_values_stay_in_the_domain() {
        let mut rng = StdRng::seed_from_u64(4);
        let catalog = random_schema(&mut rng, 2, 4);
        let db = populate(&mut rng, &catalog, 500, 10, ValueDistribution::Uniform);
        for rel in catalog.rels() {
            for row in db.relation(rel).rows() {
                for v in row {
                    assert!((1..=10).contains(&v.raw()));
                }
            }
        }
    }

    #[test]
    fn zipf_skews_towards_small_values() {
        let mut rng = StdRng::seed_from_u64(5);
        let catalog = random_schema(&mut rng, 1, 3);
        let db = populate(&mut rng, &catalog, 5_000, 100, ValueDistribution::Zipf(1.0));
        let rel = catalog.rels().next().unwrap();
        let relation = db.relation(rel);
        let ones = relation.rows().filter(|r| r[0].raw() == 1).count();
        let hundreds = relation.rows().filter(|r| r[0].raw() == 100).count();
        assert!(
            ones > hundreds * 5,
            "Zipf must heavily favour the smallest value"
        );
        for row in relation.rows() {
            assert!((1..=100).contains(&row[0].raw()));
        }
    }

    #[test]
    fn combinatorial_database_matches_the_paper_sizes() {
        let mut rng = StdRng::seed_from_u64(6);
        let db = combinatorial_database(&mut rng, ValueDistribution::Uniform);
        let catalog = db.catalog().clone();
        assert_eq!(catalog.rels().count(), 4);
        assert_eq!(catalog.attrs().count(), 10);
        let sizes: Vec<usize> = catalog.rels().map(|r| db.rel_len(r)).collect();
        assert_eq!(sizes, vec![64, 64, 512, 512]);
        for rel in catalog.rels() {
            for row in db.relation(rel).rows() {
                for v in row {
                    assert!((1..=20).contains(&v.raw()));
                }
            }
        }
    }
}
