//! Fixed-width bitsets for receptive-field coverage tracking.
//!
//! The greedy max-coverage selection of Algorithm 1 repeatedly asks "how many
//! elements of this node's receptive field are not covered yet?". A packed
//! `u64` bitset answers that with one popcount per word.

/// A fixed-capacity set of `usize` indices packed into `u64` words.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Bitset {
    words: Box<[u64]>,
    len: usize,
}

impl Bitset {
    /// Creates an empty bitset able to hold indices `0..len`.
    pub fn new(len: usize) -> Self {
        Self {
            words: vec![0u64; len.div_ceil(64)].into_boxed_slice(),
            len,
        }
    }

    /// Capacity in indices (not in set bits).
    #[inline]
    pub fn capacity(&self) -> usize {
        self.len
    }

    /// Inserts `idx`, returning `true` if it was not present before.
    #[inline]
    pub fn insert(&mut self, idx: usize) -> bool {
        debug_assert!(idx < self.len, "bit index {idx} out of range {}", self.len);
        let (w, b) = (idx / 64, idx % 64);
        let mask = 1u64 << b;
        let was = self.words[w] & mask;
        self.words[w] |= mask;
        was == 0
    }

    /// Removes `idx`, returning `true` if it was present.
    #[inline]
    pub fn remove(&mut self, idx: usize) -> bool {
        let (w, b) = (idx / 64, idx % 64);
        let mask = 1u64 << b;
        let was = self.words[w] & mask;
        self.words[w] &= !mask;
        was != 0
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, idx: usize) -> bool {
        let (w, b) = (idx / 64, idx % 64);
        (self.words[w] >> b) & 1 == 1
    }

    /// Number of set bits.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Clears all bits, keeping capacity.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Counts how many of `items` are *not* in the set — the marginal
    /// coverage gain of adding a node whose receptive field is `items`.
    pub fn count_missing(&self, items: &[u32]) -> usize {
        items
            .iter()
            .filter(|&&i| !self.contains(i as usize))
            .count()
    }

    /// Inserts every element of `items`; returns how many were new.
    pub fn insert_all(&mut self, items: &[u32]) -> usize {
        let mut new = 0;
        for &i in items {
            if self.insert(i as usize) {
                new += 1;
            }
        }
        new
    }

    /// Iterates over set indices in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut bits = w;
            std::iter::from_fn(move || {
                if bits == 0 {
                    None
                } else {
                    let b = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    Some(wi * 64 + b)
                }
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove() {
        let mut b = Bitset::new(130);
        assert!(b.insert(0));
        assert!(b.insert(64));
        assert!(b.insert(129));
        assert!(!b.insert(64));
        assert!(b.contains(129));
        assert!(!b.contains(1));
        assert_eq!(b.count(), 3);
        assert!(b.remove(64));
        assert!(!b.remove(64));
        assert_eq!(b.count(), 2);
    }

    #[test]
    fn count_missing_and_insert_all() {
        let mut b = Bitset::new(100);
        b.insert(5);
        b.insert(7);
        let items = [5u32, 6, 7, 8];
        assert_eq!(b.count_missing(&items), 2);
        assert_eq!(b.insert_all(&items), 2);
        assert_eq!(b.count(), 4);
        assert_eq!(b.count_missing(&items), 0);
    }

    #[test]
    fn iter_yields_sorted_indices() {
        let mut b = Bitset::new(300);
        for i in [299usize, 0, 65, 127, 128] {
            b.insert(i);
        }
        let got: Vec<usize> = b.iter().collect();
        assert_eq!(got, vec![0, 65, 127, 128, 299]);
    }

    #[test]
    fn clear_resets() {
        let mut b = Bitset::new(70);
        b.insert(69);
        b.clear();
        assert_eq!(b.count(), 0);
        assert!(!b.contains(69));
    }
}
