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

    /// Word `slot` of the set's bitmap (edges `64·slot .. 64·slot + 64`);
    /// zero past the last edge.
    pub(crate) fn word(&self, slot: usize) -> u64 {
        match slot {
            0 => self.word,
            _ => self.spill.get(slot - 1).copied().unwrap_or(0),
        }
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

    fn set(indices: &[usize]) -> EdgeSet {
        let mut set = EdgeSet::default();
        for &i in indices {
            set.insert(i);
        }
        set
    }

    #[test]
    fn small_and_spilled_indices_round_trip() {
        let mut set = EdgeSet::default();
        let indices = [0, 3, 63, 64, 65, 127, 128, 199];
        for &i in &indices {
            assert!(!set.iter().any(|e| e == i));
            set.insert(i);
            assert!(set.iter().any(|e| e == i));
        }
        assert_eq!(set.iter().collect::<Vec<_>>(), indices);
        // The bitmap words are the same set, and zero past the last edge.
        let words: Vec<u64> = (0..5).map(|slot| set.word(slot)).collect();
        assert_eq!(
            words,
            [1 | 1 << 3 | 1 << 63, 1 | 1 << 1 | 1 << 63, 1, 1 << 7, 0]
        );
    }

    #[test]
    fn equality_ignores_insertion_order_and_layout() {
        let a = set(&[2, 70, 130]);
        assert_eq!(a, set(&[130, 2, 70]));
        assert_ne!(a, set(&[2]));
        assert_ne!(a, set(&[2, 70]));
    }

    #[test]
    fn intersection_and_union_cross_the_word_boundary() {
        let low = set(&[5]);
        let high = set(&[150]);
        assert!(!low.intersects(&high));
        let both = set(&[150, 5]);
        assert!(both.intersects(&low) && both.intersects(&high));
        assert_eq!(both.iter().collect::<Vec<_>>(), vec![5, 150]);
        assert!(!set(&[64]).intersects(&set(&[0, 128])));
    }
}
