//! A small bitset of dependency-edge indices.
//!
//! Every f-tree node carries the set of dependency edges that have an
//! attribute in its class (its *incidence set*).  Queries carry a handful of
//! relations, so the set is one inline word; hand-built forests in the test
//! suites carry hundreds of edges, so the same type spills the indices from
//! 64 upwards into a boxed slice instead of capping the edge count.

/// A set of dependency-edge indices: one inline word for edges `0..64`, a
/// boxed slice for the rest.
///
/// Bits are only ever added, and the spill never keeps a trailing zero word,
/// so the derived `Eq`/`Hash` compare sets, not layouts.
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash)]
pub(crate) struct EdgeSet {
    word: u64,
    spill: Box<[u64]>,
}

impl EdgeSet {
    /// Adds edge `index` to the set.
    pub(crate) fn insert(&mut self, index: usize) {
        if index < 64 {
            self.word |= 1 << index;
            return;
        }
        let slot = index / 64 - 1;
        if self.spill.len() <= slot {
            let mut words = std::mem::take(&mut self.spill).into_vec();
            words.resize(slot + 1, 0);
            self.spill = words.into_boxed_slice();
        }
        self.spill[slot] |= 1 << (index % 64);
    }

    /// Adds every edge of `other` to the set.
    pub(crate) fn union_with(&mut self, other: &EdgeSet) {
        self.word |= other.word;
        if self.spill.len() < other.spill.len() {
            let mut words = std::mem::take(&mut self.spill).into_vec();
            words.resize(other.spill.len(), 0);
            self.spill = words.into_boxed_slice();
        }
        for (mine, theirs) in self.spill.iter_mut().zip(other.spill.iter()) {
            *mine |= theirs;
        }
    }

    /// Returns `true` if edge `index` is in the set.
    pub(crate) fn contains(&self, index: usize) -> bool {
        if index < 64 {
            return self.word & (1 << index) != 0;
        }
        self.spill
            .get(index / 64 - 1)
            .is_some_and(|w| w & (1 << (index % 64)) != 0)
    }

    /// Returns `true` if the two sets share an edge.
    pub(crate) fn intersects(&self, other: &EdgeSet) -> bool {
        self.word & other.word != 0
            || self
                .spill
                .iter()
                .zip(other.spill.iter())
                .any(|(a, b)| a & b != 0)
    }

    /// The edges of the set, ascending.
    pub(crate) fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        std::iter::once(self.word)
            .chain(self.spill.iter().copied())
            .enumerate()
            .flat_map(|(slot, word)| {
                let mut rest = word;
                std::iter::from_fn(move || {
                    if rest == 0 {
                        return None;
                    }
                    let bit = rest.trailing_zeros() as usize;
                    rest &= rest - 1;
                    Some(slot * 64 + bit)
                })
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_and_spilled_indices_round_trip() {
        let mut set = EdgeSet::default();
        let indices = [0, 3, 63, 64, 65, 127, 128, 199];
        for &i in &indices {
            assert!(!set.contains(i));
            set.insert(i);
            assert!(set.contains(i));
        }
        assert_eq!(set.iter().collect::<Vec<_>>(), indices);
        assert!(!set.contains(1) && !set.contains(200) && !set.contains(1000));
    }

    #[test]
    fn equality_ignores_insertion_order_and_layout() {
        let mut a = EdgeSet::default();
        let mut b = EdgeSet::default();
        for i in [2, 70, 130] {
            a.insert(i);
        }
        for i in [130, 2, 70] {
            b.insert(i);
        }
        assert_eq!(a, b);
        let mut small = EdgeSet::default();
        small.insert(2);
        assert_ne!(a, small);
        // A union with a smaller set must not leave a longer spill behind.
        let mut c = small.clone();
        c.union_with(&EdgeSet::default());
        assert_eq!(c, small);
    }

    #[test]
    fn intersection_and_union_cross_the_word_boundary() {
        let mut low = EdgeSet::default();
        low.insert(5);
        let mut high = EdgeSet::default();
        high.insert(150);
        assert!(!low.intersects(&high));
        let mut both = low.clone();
        both.union_with(&high);
        assert!(both.intersects(&low) && both.intersects(&high));
        assert_eq!(both.iter().collect::<Vec<_>>(), vec![5, 150]);
        // Growing the shorter side keeps the longer side's bits.
        let mut grown = high.clone();
        grown.union_with(&low);
        assert_eq!(grown, both);
    }
}
