//! Dense node sets: one bit per global node ID.
//!
//! Match-Reorder (paper §4.1) is node-set algebra. Reorder needs
//! `|V_i ∩ V_j|` for every pair in a window, Match needs
//! `incoming \ resident`, the cache needs membership, and Match and the
//! IO phase want the set in ascending order. A [`NodeSet`] answers all of
//! them from one bitset over `0..=max`, built in any input order: an
//! intersection is a popcount of `a & b`, membership is one bit test,
//! and the ascending order is a scan of the words.
//!
//! The bitset costs `(max + 1) / 8` bytes whatever the set holds. That is
//! smaller than the set's sorted list (8 bytes per ID) whenever the set
//! holds more than one ID per 64 nodes of its range, which every sampled
//! subgraph and cache this workspace builds does, so there is no sparse
//! form.

use fastgl_graph::NodeId;

/// A set of global node IDs, stored as a bitset over `0..=max`.
///
/// Two sets with the same members have the same words, so `==` is set
/// equality.
///
/// # Example
///
/// ```
/// use fastgl_graph::NodeId;
/// use fastgl_sample::NodeSet;
///
/// let a = NodeSet::from_ids(&[4, 1, 3, 2].map(NodeId));
/// let b = NodeSet::from_ids(&[5, 3, 4].map(NodeId));
/// assert_eq!(a.len(), 4);
/// assert!(a.contains(NodeId(3)) && !a.contains(NodeId(5)));
/// assert_eq!(a.intersection_len(&b), 2);
/// assert_eq!(a.iter().collect::<Vec<_>>(), [1, 2, 3, 4].map(NodeId));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NodeSet {
    /// Bit `id % 64` of word `id / 64` is set for each member; the last
    /// word holds the largest member.
    words: Vec<u64>,
    len: usize,
}

impl NodeSet {
    /// The set of `ids`, given in any order; duplicates collapse.
    pub fn from_ids(ids: &[NodeId]) -> Self {
        let Some(max) = ids.iter().map(|n| n.0).max() else {
            return Self::default();
        };
        // Every ID is at most `max`, so the cast below cannot truncate.
        let last = usize::try_from(max / 64).expect("the bitset fits the address space");
        let mut words = vec![0u64; last + 1];
        for n in ids {
            words[(n.0 / 64) as usize] |= bit(n.0);
        }
        let len = words.iter().map(|w| w.count_ones() as usize).sum();
        Self { words, len }
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the set has no members.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether `node` is a member.
    pub fn contains(&self, node: NodeId) -> bool {
        usize::try_from(node.0 / 64)
            .ok()
            .and_then(|w| self.words.get(w))
            .is_some_and(|w| w & bit(node.0) != 0)
    }

    /// `|self ∩ other|`: a popcount of the two sets' common words.
    pub fn intersection_len(&self, other: &Self) -> usize {
        self.words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| (a & b).count_ones() as usize)
            .sum()
    }

    /// The members in ascending order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            words: &self.words,
            next_word: 0,
            base: 0,
            current: 0,
            remaining: self.len,
        }
    }
}

/// Ascending iterator over a [`NodeSet`]'s members.
#[derive(Debug, Clone)]
pub struct Iter<'a> {
    words: &'a [u64],
    /// Index of the next word to load into `current`.
    next_word: usize,
    /// The node ID of bit 0 of `current`.
    base: u64,
    /// Members of the current word not yet returned.
    current: u64,
    remaining: usize,
}

impl Iterator for Iter<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        while self.current == 0 {
            self.current = *self.words.get(self.next_word)?;
            self.base = self.next_word as u64 * 64;
            self.next_word += 1;
        }
        let low = self.current.trailing_zeros();
        self.current &= self.current - 1;
        self.remaining -= 1;
        Some(NodeId(self.base + u64::from(low)))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for Iter<'_> {}

/// `id`'s bit within its word.
fn bit(id: u64) -> u64 {
    1 << (id % 64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle;

    #[test]
    fn every_query_matches_the_sort_and_merge_oracle() {
        let cases = oracle::cases();
        let sets: Vec<NodeSet> = cases.iter().map(|c| NodeSet::from_ids(c)).collect();
        for (ids, set) in cases.iter().zip(&sets) {
            let sorted = oracle::sorted(ids);
            assert_eq!(set.len(), ids.len());
            assert_eq!(set.is_empty(), ids.is_empty());
            assert_eq!(set.iter().len(), ids.len());
            assert_eq!(set.iter().collect::<Vec<_>>(), sorted);
            for probe in [0, 1, 63, 64, 65, 127, 128, 10_000_000, u64::MAX].map(NodeId) {
                assert_eq!(set.contains(probe), sorted.binary_search(&probe).is_ok());
            }
            assert!(ids.iter().all(|&n| set.contains(n)));
            for (other_ids, other) in cases.iter().zip(&sets) {
                let expected = oracle::intersection_size(&sorted, &oracle::sorted(other_ids));
                assert_eq!(set.intersection_len(other), expected);
                assert_eq!(other.intersection_len(set), expected);
            }
        }
    }

    #[test]
    fn duplicates_collapse_and_equality_is_set_equality() {
        let a = NodeSet::from_ids(&[65, 3, 65, 3, 0].map(NodeId));
        let b = NodeSet::from_ids(&[0, 3, 65].map(NodeId));
        assert_eq!(a.len(), 3);
        assert_eq!(a, b);
        assert_ne!(a, NodeSet::from_ids(&[0, 3].map(NodeId)));
        assert_eq!(NodeSet::from_ids(&[]), NodeSet::default());
    }
}
