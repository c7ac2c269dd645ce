//! The query catalog: relations, attributes, and which attribute belongs to
//! which relation.
//!
//! A select-project-join query `π_P σ_φ (R_1 × … × R_n)` ranges over the
//! attributes of all its relations.  The paper treats attributes of distinct
//! relations as distinct even when they share a name (equality conditions in
//! `φ` are what ties them together), so the catalog assigns every attribute
//! occurrence a globally unique [`AttrId`] and records its owning relation.
//!
//! The catalog also stores human-readable names, which keeps error messages
//! and debugging output (e.g. rendering an f-tree) pleasant.

use crate::error::{FdbError, Result};
use std::fmt;

/// Identifier of an attribute occurrence within a [`Catalog`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct AttrId(pub u32);

impl AttrId {
    /// Returns the attribute id as a usable index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for AttrId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "a{}", self.0)
    }
}

/// Identifier of a relation within a [`Catalog`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct RelId(pub u32);

impl RelId {
    /// Returns the relation id as a usable index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for RelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "R{}", self.0)
    }
}

#[derive(Clone, Debug)]
struct AttrMeta {
    name: String,
    rel: RelId,
}

#[derive(Clone, Debug)]
struct RelMeta {
    name: String,
    attrs: Vec<AttrId>,
}

/// Schema-level description of a database or query: which relations exist and
/// which attributes each of them has.
///
/// A catalog is built by [`Catalog::new`] and [`Catalog::add_relation`];
/// every other crate refers to attributes and relations exclusively through
/// [`AttrId`] / [`RelId`] handles issued by it.
#[derive(Clone, Debug, Default)]
pub struct Catalog {
    attrs: Vec<AttrMeta>,
    rels: Vec<RelMeta>,
}

impl Catalog {
    /// Creates an empty catalog.
    pub fn new() -> Self {
        Catalog::default()
    }

    /// Adds a relation with the given attribute names, returning the new
    /// relation id and the ids of its attributes (in declaration order).
    pub fn add_relation<S: AsRef<str>>(
        &mut self,
        name: &str,
        attr_names: &[S],
    ) -> (RelId, Vec<AttrId>) {
        let rel = RelId(self.rels.len() as u32);
        let mut attrs = Vec::with_capacity(attr_names.len());
        for attr_name in attr_names {
            let attr = AttrId(self.attrs.len() as u32);
            self.attrs.push(AttrMeta {
                name: attr_name.as_ref().to_owned(),
                rel,
            });
            attrs.push(attr);
        }
        self.rels.push(RelMeta {
            name: name.to_owned(),
            attrs: attrs.clone(),
        });
        (rel, attrs)
    }

    /// Iterates over all attribute ids.
    pub fn attrs(&self) -> impl Iterator<Item = AttrId> + '_ {
        (0..self.attrs.len() as u32).map(AttrId)
    }

    /// Iterates over all relation ids.
    pub fn rels(&self) -> impl Iterator<Item = RelId> + '_ {
        (0..self.rels.len() as u32).map(RelId)
    }

    /// Returns the name of an attribute.
    pub fn attr_name(&self, attr: AttrId) -> &str {
        &self.attrs[attr.index()].name
    }

    /// Returns the relation owning an attribute.
    pub fn attr_relation(&self, attr: AttrId) -> RelId {
        self.attrs[attr.index()].rel
    }

    /// Returns the name of a relation.
    pub fn rel_name(&self, rel: RelId) -> &str {
        &self.rels[rel.index()].name
    }

    /// Returns the attributes of a relation, in declaration order.
    pub fn rel_attrs(&self, rel: RelId) -> &[AttrId] {
        &self.rels[rel.index()].attrs
    }

    /// Arity (number of attributes) of a relation.
    pub fn rel_arity(&self, rel: RelId) -> usize {
        self.rels[rel.index()].attrs.len()
    }

    /// Validates that an attribute id belongs to this catalog.
    pub(crate) fn check_attr(&self, attr: AttrId) -> Result<()> {
        if attr.index() < self.attrs.len() {
            Ok(())
        } else {
            Err(FdbError::UnknownAttribute { attr: attr.0 })
        }
    }

    /// Validates that a relation id belongs to this catalog.
    pub fn check_rel(&self, rel: RelId) -> Result<()> {
        if rel.index() < self.rels.len() {
            Ok(())
        } else {
            Err(FdbError::UnknownRelation { rel: rel.0 })
        }
    }

    /// Looks up an attribute by `"relation.attribute"` qualified name, or by
    /// bare attribute name if it is unambiguous.
    pub fn find_attr(&self, name: &str) -> Option<AttrId> {
        if let Some((rel_name, attr_name)) = name.split_once('.') {
            let rel = self.rels.iter().position(|r| r.name == rel_name)?;
            return self.rels[rel]
                .attrs
                .iter()
                .copied()
                .find(|&a| self.attr_name(a) == attr_name);
        }
        let mut found = None;
        for attr in self.attrs() {
            if self.attr_name(attr) == name {
                if found.is_some() {
                    return None; // ambiguous
                }
                found = Some(attr);
            }
        }
        found
    }

    /// Returns a fully qualified, human readable name for an attribute.
    pub fn qualified_attr_name(&self, attr: AttrId) -> String {
        let rel = self.attr_relation(attr);
        format!("{}.{}", self.rel_name(rel), self.attr_name(attr))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grocery_catalog() -> Catalog {
        let mut cat = Catalog::new();
        cat.add_relation("Orders", &["oid", "item"]);
        cat.add_relation("Store", &["location", "item"]);
        cat.add_relation("Disp", &["dispatcher", "location"]);
        cat
    }

    #[test]
    fn ids_are_dense_and_ordered() {
        let cat = grocery_catalog();
        assert_eq!(cat.rels().count(), 3);
        assert_eq!(cat.attrs().count(), 6);
        assert_eq!(cat.rel_attrs(RelId(0)), &[AttrId(0), AttrId(1)]);
        assert_eq!(cat.rel_attrs(RelId(2)), &[AttrId(4), AttrId(5)]);
    }

    #[test]
    fn attribute_metadata_is_consistent() {
        let cat = grocery_catalog();
        assert_eq!(cat.attr_name(AttrId(1)), "item");
        assert_eq!(cat.attr_relation(AttrId(1)), RelId(0));
        assert_eq!(cat.qualified_attr_name(AttrId(3)), "Store.item");
        assert_eq!(cat.rel_arity(RelId(1)), 2);
    }

    #[test]
    fn lookup_by_name_handles_qualification_and_ambiguity() {
        let cat = grocery_catalog();
        // "item" occurs in two relations: unqualified lookup is ambiguous.
        assert_eq!(cat.find_attr("item"), None);
        assert_eq!(cat.find_attr("Orders.item"), Some(AttrId(1)));
        assert_eq!(cat.find_attr("Store.item"), Some(AttrId(3)));
        assert_eq!(cat.find_attr("oid"), Some(AttrId(0)));
    }

    #[test]
    fn validation_reports_unknown_ids() {
        let cat = grocery_catalog();
        assert!(cat.check_attr(AttrId(5)).is_ok());
        assert_eq!(
            cat.check_attr(AttrId(6)),
            Err(FdbError::UnknownAttribute { attr: 6 })
        );
        assert_eq!(
            cat.check_rel(RelId(9)),
            Err(FdbError::UnknownRelation { rel: 9 })
        );
    }
}
