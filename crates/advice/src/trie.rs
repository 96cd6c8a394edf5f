//! Discrimination tries (item `A1` of the advice).
//!
//! A trie here is a rooted binary tree whose internal nodes carry *queries*
//! `(a, b)` about an object (in the paper: about the augmented truncated view
//! of the node reading the advice) and whose leaves correspond to the objects
//! being discriminated. The left child corresponds to the answer "no" (port
//! 0) and the right child to "yes" (port 1). A trie with `k` leaves has
//! exactly `2k - 1` nodes. Every internal node caches its leaf count, so
//! [`Trie::num_leaves`] is O(1): `LocalLabel` adds the left leaf count on
//! every right turn, and `RetrieveLabel` sums leaf counts over whole lists.

use crate::bitstring::BitString;
use crate::codec::{concat, decode, DecodeError};

/// A query at an internal trie node, encoded as the pair of integers the
/// paper uses (e.g. `(0, t)` = "is the binary representation shorter than
/// `t`?", `(1, j)` = "is the `j`-th bit 1?", `(i, label)` = "is the label of
/// your `i`-th neighbor different from `label`?").
pub type Query = (u64, u64);

/// A discrimination trie.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Trie {
    /// A leaf, labeled `(0)` in the paper.
    Leaf,
    /// An internal node with its query and two subtries.
    Internal {
        /// The discrimination query.
        query: Query,
        /// Subtrie for the answer "no".
        left: Box<Trie>,
        /// Subtrie for the answer "yes".
        right: Box<Trie>,
        /// Number of leaves of this subtrie, set by [`Trie::internal`].
        leaves: usize,
    },
}

impl Trie {
    /// Creates a leaf.
    pub fn leaf() -> Self {
        Trie::Leaf
    }

    /// Creates an internal node, caching its leaf count.
    pub fn internal(query: Query, left: Trie, right: Trie) -> Self {
        Trie::Internal {
            query,
            leaves: left.num_leaves() + right.num_leaves(),
            left: Box::new(left),
            right: Box::new(right),
        }
    }

    /// Whether this trie is a single leaf.
    pub fn is_leaf(&self) -> bool {
        matches!(self, Trie::Leaf)
    }

    /// The query at the root, if the root is internal.
    pub fn query(&self) -> Option<Query> {
        match self {
            Trie::Leaf => None,
            Trie::Internal { query, .. } => Some(*query),
        }
    }

    /// The left ("no") subtrie, if the root is internal.
    pub fn left(&self) -> Option<&Trie> {
        match self {
            Trie::Leaf => None,
            Trie::Internal { left, .. } => Some(left),
        }
    }

    /// The right ("yes") subtrie, if the root is internal.
    pub fn right(&self) -> Option<&Trie> {
        match self {
            Trie::Leaf => None,
            Trie::Internal { right, .. } => Some(right),
        }
    }

    /// Number of leaves, in O(1): internal nodes cache it.
    pub fn num_leaves(&self) -> usize {
        match self {
            Trie::Leaf => 1,
            Trie::Internal { leaves, .. } => *leaves,
        }
    }

    /// Total number of nodes (internal + leaves).
    pub fn size(&self) -> usize {
        match self {
            Trie::Leaf => 1,
            Trie::Internal { left, right, .. } => 1 + left.size() + right.size(),
        }
    }

    /// Height of the trie (a single leaf has height 0).
    pub fn height(&self) -> usize {
        match self {
            Trie::Leaf => 0,
            Trie::Internal { left, right, .. } => 1 + left.height().max(right.height()),
        }
    }

    /// Encodes the trie as a uniquely decodable bit string.
    ///
    /// The encoding is a preorder traversal: a leaf is the substring `0`, an
    /// internal node is the substring `1` followed by the two query integers
    /// and then the two subtries; the whole sequence is packed with the
    /// doubling [`concat()`] code. For a trie with `O(n)` nodes whose query
    /// integers are `O(n log n)`, the length is `O(n log n)` bits
    /// (Proposition 3.2).
    pub fn encode(&self) -> BitString {
        let mut parts = Vec::new();
        self.encode_into(&mut parts);
        concat(&parts)
    }

    fn encode_into(&self, parts: &mut Vec<BitString>) {
        match self {
            Trie::Leaf => parts.push(BitString::from_uint(0)),
            Trie::Internal {
                query, left, right, ..
            } => {
                parts.push(BitString::from_uint(1));
                parts.push(BitString::from_uint(query.0));
                parts.push(BitString::from_uint(query.1));
                left.encode_into(parts);
                right.encode_into(parts);
            }
        }
    }

    /// Decodes a trie produced by [`encode`](Trie::encode).
    pub fn decode_bits(encoded: &BitString) -> Result<Trie, DecodeError> {
        let parts = decode(encoded)?;
        let mut pos = 0usize;
        let trie = Self::decode_parts(&parts, &mut pos)?;
        if pos != parts.len() {
            return Err(DecodeError::Truncated);
        }
        Ok(trie)
    }

    fn decode_parts(parts: &[BitString], pos: &mut usize) -> Result<Trie, DecodeError> {
        let tag = parts
            .get(*pos)
            .and_then(BitString::to_uint)
            .ok_or(DecodeError::Truncated)?;
        *pos += 1;
        match tag {
            0 => Ok(Trie::Leaf),
            1 => {
                let a = parts
                    .get(*pos)
                    .and_then(BitString::to_uint)
                    .ok_or(DecodeError::Truncated)?;
                let b = parts
                    .get(*pos + 1)
                    .and_then(BitString::to_uint)
                    .ok_or(DecodeError::Truncated)?;
                *pos += 2;
                let left = Self::decode_parts(parts, pos)?;
                let right = Self::decode_parts(parts, pos)?;
                Ok(Trie::internal((a, b), left, right))
            }
            _ => Err(DecodeError::InvalidPair { offset: *pos }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trie() -> Trie {
        Trie::internal(
            (0, 5),
            Trie::internal((1, 2), Trie::leaf(), Trie::leaf()),
            Trie::leaf(),
        )
    }

    #[test]
    fn leaf_counts_and_size() {
        let t = sample_trie();
        assert_eq!(t.num_leaves(), 3);
        assert_eq!(t.size(), 5);
        assert_eq!(t.height(), 2);
        assert_eq!(Trie::leaf().num_leaves(), 1);
        assert_eq!(Trie::leaf().size(), 1);
        assert_eq!(Trie::leaf().height(), 0);
    }

    #[test]
    fn size_is_twice_leaves_minus_one() {
        // Claim 3.1: a trie discriminating |S| objects has 2|S| - 1 nodes.
        let t = sample_trie();
        assert_eq!(t.size(), 2 * t.num_leaves() - 1);
    }

    #[test]
    fn navigation_accessors() {
        let t = sample_trie();
        assert_eq!(t.query(), Some((0, 5)));
        assert!(t.right().unwrap().is_leaf());
        assert_eq!(t.left().unwrap().query(), Some((1, 2)));
        assert!(Trie::leaf().query().is_none());
        assert!(Trie::leaf().left().is_none());
        assert!(Trie::leaf().right().is_none());
    }

    #[test]
    fn encode_decode_roundtrip() {
        let t = sample_trie();
        let enc = t.encode();
        assert_eq!(Trie::decode_bits(&enc).unwrap(), t);
        let leaf = Trie::leaf();
        assert_eq!(Trie::decode_bits(&leaf.encode()).unwrap(), leaf);
    }

    #[test]
    fn encode_decode_large_skewed_trie() {
        // A left-skewed trie with 100 leaves.
        let mut t = Trie::leaf();
        for i in 0..99u64 {
            t = Trie::internal((1, i), t, Trie::leaf());
        }
        assert_eq!(t.num_leaves(), 100);
        let enc = t.encode();
        assert_eq!(Trie::decode_bits(&enc).unwrap(), t);
        // O(n log n) sanity: 100 leaves with small queries fits well under
        // 100 * 64 bits.
        assert!(enc.len() < 6400);
    }

    /// Leaf count by full recursion, ignoring the cached counts.
    fn recount(t: &Trie) -> usize {
        match t {
            Trie::Leaf => 1,
            Trie::Internal { left, right, .. } => recount(left) + recount(right),
        }
    }

    /// Asserts the cached count equals the recursive one at every node.
    fn assert_cached_counts(t: &Trie) {
        assert_eq!(t.num_leaves(), recount(t));
        if let (Some(l), Some(r)) = (t.left(), t.right()) {
            assert_cached_counts(l);
            assert_cached_counts(r);
        }
    }

    /// A pseudo-random trie with `leaves` leaves, split points drawn from a
    /// SplitMix64 stream.
    fn random_trie(leaves: usize, state: &mut u64) -> Trie {
        if leaves == 1 {
            return Trie::leaf();
        }
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        let left = 1 + (z % (leaves as u64 - 1)) as usize;
        let query = (z % 7, z % 1000);
        Trie::internal(
            query,
            random_trie(left, state),
            random_trie(leaves - left, state),
        )
    }

    #[test]
    fn cached_leaf_counts_survive_decoding() {
        let mut skewed = Trie::leaf();
        for i in 0..99u64 {
            skewed = Trie::internal((1, i), skewed, Trie::leaf());
        }
        let mut state = 7u64;
        let random = random_trie(257, &mut state);
        for t in [skewed, random] {
            let decoded = Trie::decode_bits(&t.encode()).unwrap();
            assert_cached_counts(&decoded);
            assert_eq!(decoded.size(), 2 * decoded.num_leaves() - 1);
            assert_eq!(decoded, t);
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        let garbage = BitString::from_str01("10").unwrap();
        assert!(Trie::decode_bits(&garbage).is_err());
        // A valid concat of a single integer 2 (not a valid tag).
        let bad_tag = crate::codec::concat_uints(&[2]);
        assert!(Trie::decode_bits(&bad_tag).is_err());
    }
}
