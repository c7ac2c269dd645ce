//! Small bitsets of indices.
//!
//! Every f-tree node carries the set of dependency edges that have an
//! attribute in its class (its *incidence set*).  Queries carry a handful of
//! relations, so the set is one inline word; hand-built forests in the test
//! suites carry hundreds of edges, so the same type spills the indices from
//! 64 upwards into a boxed slice instead of capping the edge count.  The
//! f-tree search keeps its sets of classes in a bare word while the tree has
//! at most 64 nodes, and in the same spilling form beyond.

use std::hash::Hash;

/// A set of small indices, as bitmap words: word `slot` holds indices
/// `64·slot .. 64·slot + 64`.
pub(crate) trait IndexSet: Clone + Default + Eq + Hash {
    /// The number of words the set spans.
    fn words(&self) -> usize;

    /// Word `slot` of the bitmap; zero past the last index.
    fn word(&self, slot: usize) -> u64;

    /// Replaces word `slot` of the bitmap.
    fn set_word(&mut self, slot: usize, word: u64);

    /// Adds `index` to the set.
    fn insert(&mut self, index: usize) {
        self.set_word(index / 64, self.word(index / 64) | 1 << (index % 64));
    }

    /// Removes `index` from the set.
    fn remove(&mut self, index: usize) {
        self.set_word(index / 64, self.word(index / 64) & !(1 << (index % 64)));
    }

    /// Returns `true` if `index` is in the set.
    fn contains(&self, index: usize) -> bool {
        self.word(index / 64) >> (index % 64) & 1 != 0
    }

    /// Returns `true` if the two sets share an index.
    fn intersects(&self, other: &Self) -> bool {
        (0..self.words()).any(|slot| self.word(slot) & other.word(slot) != 0)
    }

    /// Adds the indices of `other`.
    fn insert_all(&mut self, other: &Self) {
        for slot in 0..other.words() {
            self.set_word(slot, self.word(slot) | other.word(slot));
        }
    }

    /// Adds the indices that `a` and `b` share.
    fn insert_shared(&mut self, a: &Self, b: &Self) {
        for slot in 0..a.words().min(b.words()) {
            self.set_word(slot, self.word(slot) | a.word(slot) & b.word(slot));
        }
    }

    /// The highest index of the set.
    fn last(&self) -> Option<usize> {
        let slot = (0..self.words()).rev().find(|&slot| self.word(slot) != 0)?;
        Some(64 * slot + self.word(slot).ilog2() as usize)
    }

    /// The indices of the set, ascending.
    fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.words()).flat_map(|slot| {
            let mut rest = self.word(slot);
            std::iter::from_fn(move || {
                let bit = (rest != 0).then(|| rest.trailing_zeros() as usize)?;
                rest &= rest - 1;
                Some(64 * slot + bit)
            })
        })
    }
}

/// Indices `0..64` in one word.
impl IndexSet for u64 {
    fn words(&self) -> usize {
        1
    }

    fn word(&self, slot: usize) -> u64 {
        if slot == 0 {
            *self
        } else {
            0
        }
    }

    fn set_word(&mut self, slot: usize, word: u64) {
        debug_assert!(slot == 0 || word == 0, "index past 64 in a one-word set");
        if slot == 0 {
            *self = word;
        }
    }
}

/// A set of dependency-edge indices: one inline word for edges `0..64`, a
/// boxed slice for the rest.
///
/// The spill never keeps a trailing zero word, so the derived `Eq`/`Hash`
/// compare sets, not layouts.
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash)]
pub(crate) struct EdgeSet {
    word: u64,
    spill: Box<[u64]>,
}

impl IndexSet for EdgeSet {
    fn words(&self) -> usize {
        1 + self.spill.len()
    }

    fn word(&self, slot: usize) -> u64 {
        match slot {
            0 => self.word,
            _ => self.spill.get(slot - 1).copied().unwrap_or(0),
        }
    }

    fn set_word(&mut self, slot: usize, word: u64) {
        if slot == 0 {
            self.word = word;
            return;
        }
        let mut words = std::mem::take(&mut self.spill).into_vec();
        words.resize(words.len().max(slot), 0);
        words[slot - 1] = word;
        while words.last() == Some(&0) {
            words.pop();
        }
        self.spill = words.into_boxed_slice();
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
        // Removing the highest edges drops the spill words they leave empty.
        let mut b = a.clone();
        b.remove(130);
        assert_eq!(b, set(&[2, 70]));
        assert_eq!(
            (b.last(), b.contains(70), b.contains(130)),
            (Some(70), true, false)
        );
        b.remove(70);
        b.remove(2);
        assert_eq!((b.clone(), b.last()), (EdgeSet::default(), None));
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
