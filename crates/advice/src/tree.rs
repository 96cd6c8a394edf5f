//! Rooted labeled trees with port numbers (item `A2` of the advice).
//!
//! The advice of the minimum-time election algorithm ships the canonical BFS
//! tree of the graph, with every node labeled by the integer label it will
//! compute from item `A1`, and with the graph's port numbers on both
//! endpoints of every tree edge. Nodes decode this tree, find themselves by
//! label, and output the port sequence of the tree path to the root.
//!
//! The codec here is a preorder recursive encoding packed with the doubling
//! [`crate::codec::concat`] code; for an `n`-node tree with labels in
//! `O(n)` its length is `O(n log n)` bits (Proposition 3.1).

use crate::bitstring::BitString;
use crate::codec::{concat, decode, DecodeError};

/// A rooted tree whose nodes carry integer labels and whose edges carry the
/// port numbers of the underlying graph at both endpoints.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LabeledTree {
    /// Label of this node (in the election advice: the unique integer label
    /// in `{1, ..., n}` computed by `RetrieveLabel`).
    pub label: u64,
    /// Children, each as `(port_at_this_node, port_at_child, subtree)`.
    pub children: Vec<(u64, u64, LabeledTree)>,
}

impl LabeledTree {
    /// Creates a leaf with the given label.
    pub fn leaf(label: u64) -> Self {
        LabeledTree {
            label,
            children: Vec::new(),
        }
    }

    /// Number of nodes in the tree.
    pub fn size(&self) -> usize {
        1 + self
            .children
            .iter()
            .map(|(_, _, c)| c.size())
            .sum::<usize>()
    }

    /// Depth of the tree (a single node has depth 0).
    pub fn depth(&self) -> usize {
        self.children
            .iter()
            .map(|(_, _, c)| 1 + c.depth())
            .max()
            .unwrap_or(0)
    }

    /// All labels in the tree, in preorder.
    pub fn labels(&self) -> Vec<u64> {
        let mut out = Vec::with_capacity(self.size());
        self.collect_labels(&mut out);
        out
    }

    fn collect_labels(&self, out: &mut Vec<u64>) {
        out.push(self.label);
        for (_, _, c) in &self.children {
            c.collect_labels(out);
        }
    }

    /// Finds the path from the node labeled `label` up to the root, as the
    /// flat port sequence `(p1, q1, ..., pk, qk)` (outgoing port first, then
    /// the port at the next node), or `None` if the label is absent.
    ///
    /// This is exactly what Algorithm `Elect` outputs: the port numbers of
    /// the unique simple tree path from the node to the root.
    pub fn path_to_root(&self, label: u64) -> Option<Vec<u64>> {
        if self.label == label {
            return Some(Vec::new());
        }
        for (port_here, port_child, child) in &self.children {
            if let Some(mut path) = child.path_to_root(label) {
                // The child's path goes from the target up to `child`; append
                // the hop from `child` to this node.
                path.push(*port_child);
                path.push(*port_here);
                return Some(path);
            }
        }
        None
    }

    /// The parent relation of the tree on dense indices (a
    /// [`ParentIndex`]): every node in DFS preorder with its parent's
    /// index, the ports at both ends of its parent edge and its depth, plus
    /// one sorted label → node entry per node.
    ///
    /// Built in one `O(n log n)` pass, this turns [`path_to_root`] — an
    /// `O(n)` tree search per query — into one label lookup and an
    /// `O(path length)` walk of array indices per node, which is what lets
    /// a 10k-node election assemble all of its outputs in
    /// `O(n log n + Σ path lengths)` total:
    ///
    /// ```
    /// use anet_advice::LabeledTree;
    ///
    /// let tree = LabeledTree {
    ///     label: 1,
    ///     children: vec![(0, 1, LabeledTree::leaf(2))],
    /// };
    /// let parents = tree.parent_map();
    /// let node = parents.node_of(2).unwrap();
    /// assert_eq!(parents.depth(node), 1);
    /// assert_eq!(parents.hops(node).collect::<Vec<_>>(), vec![(1, 0)]);
    /// // Walking the index reproduces path_to_root exactly.
    /// assert_eq!(tree.path_to_root_via(&parents, 2), tree.path_to_root(2));
    /// ```
    ///
    /// [`path_to_root`]: LabeledTree::path_to_root
    pub fn parent_map(&self) -> ParentIndex {
        ParentIndex::of(self)
    }

    /// Walks a [`ParentIndex`] of this tree (from [`parent_map`]) from the
    /// node labeled `label` up to the root: the `O(path length)` equivalent
    /// of [`path_to_root`], with identical output, allocated at its exact
    /// length. Returns `None` if the label is absent or the index has a
    /// [repeated label](ParentIndex::repeated_label) (a tree no valid
    /// advice contains).
    ///
    /// [`parent_map`]: LabeledTree::parent_map
    /// [`path_to_root`]: LabeledTree::path_to_root
    pub fn path_to_root_via(&self, parents: &ParentIndex, label: u64) -> Option<Vec<u64>> {
        let node = parents.node_of(label)?;
        let mut flat = Vec::with_capacity(2 * parents.depth(node));
        for (port_at_node, port_at_parent) in parents.hops(node) {
            flat.push(port_at_node);
            flat.push(port_at_parent);
        }
        Some(flat)
    }

    /// Encodes the tree as a uniquely decodable bit string of length
    /// `O(n log n)` for labels in `O(n)`.
    pub fn encode(&self) -> BitString {
        let mut parts = Vec::new();
        self.encode_into(&mut parts);
        concat(&parts)
    }

    fn encode_into(&self, parts: &mut Vec<BitString>) {
        parts.push(BitString::from_uint(self.label));
        parts.push(BitString::from_uint(self.children.len() as u64));
        for (p, q, child) in &self.children {
            parts.push(BitString::from_uint(*p));
            parts.push(BitString::from_uint(*q));
            child.encode_into(parts);
        }
    }

    /// Decodes a tree produced by [`encode`](LabeledTree::encode).
    pub fn decode_bits(encoded: &BitString) -> Result<LabeledTree, DecodeError> {
        let parts = decode(encoded)?;
        let mut pos = 0usize;
        let tree = Self::decode_parts(&parts, &mut pos)?;
        if pos != parts.len() {
            return Err(DecodeError::Truncated);
        }
        Ok(tree)
    }

    fn decode_parts(parts: &[BitString], pos: &mut usize) -> Result<LabeledTree, DecodeError> {
        let label = parts
            .get(*pos)
            .and_then(BitString::to_uint)
            .ok_or(DecodeError::Truncated)?;
        let num_children = parts
            .get(*pos + 1)
            .and_then(BitString::to_uint)
            .ok_or(DecodeError::Truncated)? as usize;
        *pos += 2;
        let mut children = Vec::with_capacity(num_children);
        for _ in 0..num_children {
            let p = parts
                .get(*pos)
                .and_then(BitString::to_uint)
                .ok_or(DecodeError::Truncated)?;
            let q = parts
                .get(*pos + 1)
                .and_then(BitString::to_uint)
                .ok_or(DecodeError::Truncated)?;
            *pos += 2;
            let child = Self::decode_parts(parts, pos)?;
            children.push((p, q, child));
        }
        Ok(LabeledTree { label, children })
    }
}

/// One node of a [`ParentIndex`]: the edge to its parent and its depth.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct IndexedNode {
    /// Index of the parent (the root points at itself).
    parent: usize,
    /// Port of the parent edge at this node.
    port_at_node: u64,
    /// Port of the parent edge at the parent.
    port_at_parent: u64,
    /// Number of edges from this node up to the root.
    depth: usize,
}

/// The parent relation of a [`LabeledTree`] on dense indices, built by
/// [`LabeledTree::parent_map`].
///
/// Nodes are numbered in DFS preorder, so the root is node 0 and every
/// parent index is smaller than its child's: walks up the tree always end at
/// the root, whatever labels the tree carries. Labels are found by binary
/// search in one sorted `(label, node)` entry per node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParentIndex {
    /// Every node, in DFS preorder.
    nodes: Vec<IndexedNode>,
    /// `(label, node)` for every node, sorted.
    by_label: Vec<(u64, usize)>,
    /// The smallest label carried by more than one node, if any.
    repeated: Option<u64>,
}

impl ParentIndex {
    fn of(tree: &LabeledTree) -> Self {
        let root = IndexedNode {
            parent: 0,
            port_at_node: 0,
            port_at_parent: 0,
            depth: 0,
        };
        let mut nodes = Vec::new();
        let mut by_label = Vec::new();
        // Children are pushed in reverse so they pop in order: preorder.
        let mut stack = vec![(tree, root)];
        while let Some((t, entry)) = stack.pop() {
            let index = nodes.len();
            nodes.push(entry);
            by_label.push((t.label, index));
            for (port_here, port_child, child) in t.children.iter().rev() {
                let child_entry = IndexedNode {
                    parent: index,
                    port_at_node: *port_child,
                    port_at_parent: *port_here,
                    depth: entry.depth + 1,
                };
                stack.push((child, child_entry));
            }
        }
        by_label.sort_unstable();
        let repeated = by_label
            .windows(2)
            .find(|w| w[0].0 == w[1].0)
            .map(|w| w[0].0);
        ParentIndex {
            nodes,
            by_label,
            repeated,
        }
    }

    /// The smallest label carried by more than one node, if any. Valid
    /// advice labels its tree with a permutation, so a repeated label marks
    /// a malformed tree.
    pub fn repeated_label(&self) -> Option<u64> {
        self.repeated
    }

    /// The node labeled `label`, or `None` if no node, or more than one
    /// node, carries it (see [`repeated_label`](ParentIndex::repeated_label)).
    pub fn node_of(&self, label: u64) -> Option<usize> {
        if self.repeated.is_some() {
            return None;
        }
        self.by_label
            .binary_search_by_key(&label, |&(l, _)| l)
            .ok()
            .map(|i| self.by_label[i].1)
    }

    /// Number of edges from `node` up to the root.
    ///
    /// # Panics
    /// Panics if `node` is not a node of the tree (every value
    /// [`node_of`](ParentIndex::node_of) returns is).
    pub fn depth(&self, node: usize) -> usize {
        self.nodes[node].depth
    }

    /// The edges from `node` up to the root, each as `(port at the lower
    /// node, port at the upper node)`; exactly [`depth`](ParentIndex::depth)
    /// items.
    pub fn hops(&self, node: usize) -> Hops<'_> {
        Hops { index: self, node }
    }
}

/// The iterator of [`ParentIndex::hops`].
#[derive(Debug, Clone)]
pub struct Hops<'a> {
    index: &'a ParentIndex,
    node: usize,
}

impl Iterator for Hops<'_> {
    type Item = (u64, u64);

    fn next(&mut self) -> Option<(u64, u64)> {
        let entry = self.index.nodes.get(self.node)?;
        if entry.depth == 0 {
            return None;
        }
        self.node = entry.parent;
        Some((entry.port_at_node, entry.port_at_parent))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_tree() -> LabeledTree {
        // Root labeled 1 with two children (labels 2, 3); 3 has a child 4.
        LabeledTree {
            label: 1,
            children: vec![
                (0, 1, LabeledTree::leaf(2)),
                (
                    1,
                    0,
                    LabeledTree {
                        label: 3,
                        children: vec![(2, 0, LabeledTree::leaf(4))],
                    },
                ),
            ],
        }
    }

    #[test]
    fn size_depth_labels() {
        let t = sample_tree();
        assert_eq!(t.size(), 4);
        assert_eq!(t.depth(), 2);
        assert_eq!(t.labels(), vec![1, 2, 3, 4]);
        assert_eq!(LabeledTree::leaf(9).depth(), 0);
    }

    #[test]
    fn path_to_root_produces_port_pairs_bottom_up() {
        let t = sample_tree();
        // Node 4: hop to 3 uses (0 at 4 side? ...) the stored pair is
        // (port_at_parent=2, port_at_child=0); going up we output the child's
        // port first.
        assert_eq!(t.path_to_root(4), Some(vec![0, 2, 0, 1]));
        assert_eq!(t.path_to_root(2), Some(vec![1, 0]));
        assert_eq!(t.path_to_root(1), Some(vec![]));
        assert_eq!(t.path_to_root(7), None);
    }

    #[test]
    fn parent_map_walk_reproduces_path_to_root() {
        let t = sample_tree();
        let parents = t.parent_map();
        for label in t.labels() {
            assert_eq!(
                t.path_to_root_via(&parents, label),
                t.path_to_root(label),
                "label {label}"
            );
            let node = parents.node_of(label).unwrap();
            assert_eq!(parents.hops(node).count(), parents.depth(node));
        }
        // The root is node 0 of the preorder, at depth 0.
        assert_eq!(parents.node_of(t.label), Some(0));
        assert_eq!(parents.repeated_label(), None);
        // Absent labels are rejected.
        assert_eq!(t.path_to_root_via(&parents, 99), None);
        // A repeated label makes every lookup fail, not pick one copy.
        let mut dup = sample_tree();
        dup.children[0].2.label = 4;
        let dup_parents = dup.parent_map();
        assert_eq!(dup_parents.repeated_label(), Some(4));
        assert_eq!(dup.path_to_root_via(&dup_parents, 4), None);
        assert_eq!(dup.path_to_root_via(&dup_parents, 1), None);
    }

    #[test]
    fn encode_decode_roundtrip() {
        let t = sample_tree();
        let enc = t.encode();
        assert_eq!(LabeledTree::decode_bits(&enc).unwrap(), t);
    }

    #[test]
    fn encode_decode_wide_tree() {
        let children = (0..50u64)
            .map(|i| (i, 0, LabeledTree::leaf(i + 2)))
            .collect();
        let t = LabeledTree { label: 1, children };
        let enc = t.encode();
        assert_eq!(LabeledTree::decode_bits(&enc).unwrap(), t);
        // 51 nodes, labels < 64: comfortably O(n log n).
        assert!(enc.len() < 51 * 64);
    }

    #[test]
    fn decode_rejects_truncated_input() {
        let t = sample_tree();
        let enc = t.encode();
        let truncated: BitString = enc.bits()[..enc.len() - 8].iter().copied().collect();
        assert!(LabeledTree::decode_bits(&truncated).is_err());
    }

    #[test]
    fn length_scales_n_log_n() {
        // Empirical Proposition 3.1: a path-shaped tree with n nodes and
        // labels 1..=n encodes into O(n log n) bits.
        for n in [10u64, 100, 500] {
            let mut t = LabeledTree::leaf(n);
            for label in (1..n).rev() {
                t = LabeledTree {
                    label,
                    children: vec![(0, 1, t)],
                };
            }
            let bits = t.encode().len() as f64;
            let bound = 12.0 * (n as f64) * ((n as f64).log2() + 1.0);
            assert!(bits < bound, "n = {n}: {bits} >= {bound}");
        }
    }
}
