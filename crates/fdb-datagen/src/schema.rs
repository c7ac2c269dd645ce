//! Random schema generation: `A` attributes distributed uniformly over `R`
//! relations.

use fdb_common::Catalog;
use rand::seq::SliceRandom;
use rand::Rng;

/// Generates a catalog of `relations` relations sharing `attributes`
/// attributes distributed uniformly at random, with every relation getting
/// at least one attribute (as in the paper's experimental design).
///
/// Relations are named `R0, R1, …` and attributes `a0, a1, …` (globally
/// numbered, so `Ri.aj` names are unique).
pub fn random_schema<R: Rng + ?Sized>(rng: &mut R, relations: usize, attributes: usize) -> Catalog {
    assert!(relations >= 1, "need at least one relation");
    assert!(
        attributes >= relations,
        "need at least one attribute per relation"
    );

    // Assign each attribute to a relation: first give every relation one
    // attribute, then spread the rest uniformly.
    let mut owner: Vec<usize> = Vec::with_capacity(attributes);
    for rel in 0..relations {
        owner.push(rel);
    }
    for _ in relations..attributes {
        owner.push(rng.gen_range(0..relations));
    }
    owner.shuffle(rng);

    let mut catalog = Catalog::new();
    let mut next_attr = 0usize;
    for rel in 0..relations {
        let names: Vec<String> = owner
            .iter()
            .filter(|&&o| o == rel)
            .map(|_| {
                let name = format!("a{next_attr}");
                next_attr += 1;
                name
            })
            .collect();
        catalog.add_relation(&format!("R{rel}"), &names);
    }
    catalog
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn every_relation_gets_at_least_one_attribute() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..50 {
            let relations = rng.gen_range(1..=8);
            let attributes = rng.gen_range(relations..=40);
            let catalog = random_schema(&mut rng, relations, attributes);
            assert_eq!(catalog.rels().count(), relations);
            assert_eq!(catalog.attrs().count(), attributes);
            for rel in catalog.rels() {
                assert!(catalog.rel_arity(rel) >= 1);
            }
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = random_schema(&mut StdRng::seed_from_u64(7), 4, 10);
        let b = random_schema(&mut StdRng::seed_from_u64(7), 4, 10);
        for rel in a.rels() {
            assert_eq!(a.rel_attrs(rel), b.rel_attrs(rel));
        }
    }

    #[test]
    #[should_panic(expected = "at least one attribute per relation")]
    fn too_few_attributes_panics() {
        let mut rng = StdRng::seed_from_u64(1);
        random_schema(&mut rng, 5, 3);
    }
}
