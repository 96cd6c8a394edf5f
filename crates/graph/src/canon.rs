//! Canonical stable-partition form and a quotient-insensitive graph hash.
//!
//! Port-respecting colour refinement (the port-labeled analogue of 1-WL,
//! run by the [`crate::refine`] kernel) computes, for every node, the class
//! of its *view* truncated at the stable depth: two nodes end in the same
//! class iff their infinite views are equal (Yamashita–Kameda; Norris).
//! Because the refinement only ever looks at colours and port numbers —
//! never at node identifiers — the resulting partition, the per-class
//! quotient rows and everything derived from them are invariant under
//! renumbering of the nodes.
//!
//! [`CanonicalForm`] packages the stable partition in a canonical order (by
//! final colour), and [`Graph::canonical_hash`] folds the canonical encoding
//! into a single `u64`. Renumbered twins therefore hash identically, which is
//! what makes the hash usable as a session/cache key (`anet-service`) and as
//! a dedupe key for corpus growth.
//!
//! On *feasible* graphs (all views distinct, i.e. every class a singleton)
//! the final colours are a bijection `V -> 0..n`, so relabeling by them with
//! [`crate::relabel::permute_nodes`] yields **the** canonical representative
//! of the isomorphism class: any two port-preserving isomorphic feasible
//! graphs relabel to byte-identical adjacency structures.

use crate::graph::{Graph, NodeId};
use crate::refine::{self, RefineOptions};

/// The stable partition of a graph under port-respecting colour refinement,
/// in canonical (renumbering-invariant) order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CanonicalForm {
    colors: Vec<usize>,
    num_classes: usize,
    encoding: Vec<u64>,
}

impl CanonicalForm {
    /// The final colour (canonical class index) of every node, in the
    /// *input* numbering. Colours are dense in `0..num_classes()`.
    pub fn colors(&self) -> &[usize] {
        &self.colors
    }

    /// Number of distinct classes — equivalently, the number of distinct
    /// infinite views of the graph.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Number of nodes of the underlying graph.
    pub fn num_nodes(&self) -> usize {
        self.colors.len()
    }

    /// Whether leader election is feasible on the graph: every node has a
    /// distinct view, i.e. every refinement class is a singleton. On the
    /// empty graph this is vacuously `true` (`0 == 0`) — there is no node
    /// whose view collides with another's.
    pub fn is_feasible(&self) -> bool {
        self.num_classes == self.colors.len()
    }

    /// The canonical flat encoding: `[n, m, C]` followed, for each class in
    /// colour order, by `[size, degree, (target colour, reverse port)*]`.
    /// Two graphs have equal encodings iff their stable quotients (with
    /// class sizes) coincide; renumbered twins always do.
    pub fn encoding(&self) -> &[u64] {
        &self.encoding
    }

    /// Fold the canonical encoding into a single 64-bit hash.
    pub fn hash(&self) -> u64 {
        let mut h: u64 = 0x9E37_79B9_7F4A_7C15;
        for &word in &self.encoding {
            h = mix64(h.rotate_left(5) ^ word);
        }
        h
    }

    /// On a feasible graph, the final colours form a bijection and can be
    /// used directly as a node permutation (`v -> colors[v]`) mapping the
    /// graph onto its canonical representative. Returns `None` when the
    /// graph is infeasible (some class has two or more nodes); on the empty
    /// graph it returns `Some(&[])` (the empty permutation), consistent
    /// with [`is_feasible`](CanonicalForm::is_feasible).
    pub fn canonical_permutation(&self) -> Option<&[NodeId]> {
        if self.is_feasible() {
            Some(&self.colors)
        } else {
            None
        }
    }
}

/// SplitMix64 finalizer (same constants as the corpus/fault mixers).
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Graph {
    /// Compute the [`CanonicalForm`]: the stable row of the refinement
    /// kernel ([`refine::until_stable`]), whose dense ranks follow the
    /// kernel's key order and so are canonically ordered, plus the flat
    /// quotient encoding. `O(rounds * m)` time with the kernel's
    /// counting/radix sorts, where `rounds <= n` is the stabilization depth.
    pub fn canonical_form(&self) -> CanonicalForm {
        let n = self.num_nodes();
        let (mut colors, mut num_classes) = (Vec::new(), 0);
        refine::until_stable(self, n, &RefineOptions::default(), |row, k| {
            (colors, num_classes) = (row, k);
        });
        // One representative per class: rows of same-class nodes are
        // identical at stability (the partition no longer splits), so any
        // representative yields the same encoding.
        let mut rep: Vec<usize> = vec![usize::MAX; num_classes];
        let mut sizes: Vec<u64> = vec![0; num_classes];
        for (v, &c) in colors.iter().enumerate() {
            sizes[c] += 1;
            if rep[c] == usize::MAX {
                rep[c] = v;
            }
        }
        let mut encoding: Vec<u64> = Vec::with_capacity(3 + num_classes * 2 + 4 * self.num_edges());
        encoding.push(n as u64);
        encoding.push(self.num_edges() as u64);
        encoding.push(num_classes as u64);
        for c in 0..num_classes {
            let v = rep[c];
            encoding.push(sizes[c]);
            encoding.push(self.degree(v) as u64);
            for &(u, q) in self.neighbor_slice(v) {
                encoding.push(colors[u] as u64);
                encoding.push(q as u64);
            }
        }
        CanonicalForm {
            colors,
            num_classes,
            encoding,
        }
    }

    /// The quotient-insensitive canonical hash: equal for graphs whose
    /// stable view quotients (with multiplicities) coincide — in particular
    /// for every renumbering of the same graph. This is the `anet-service`
    /// session-cache key.
    pub fn canonical_hash(&self) -> u64 {
        self.canonical_form().hash()
    }
}

#[cfg(test)]
mod tests {
    use crate::generators;
    use crate::relabel::{permute_nodes, random_node_permutation};

    #[test]
    fn ring_collapses_to_one_class() {
        let g = generators::ring(8);
        let form = g.canonical_form();
        assert_eq!(form.num_classes(), 1);
        assert!(!form.is_feasible());
        assert!(form.canonical_permutation().is_none());
        // [n, m, C, size, degree, (color, rport), (color, rport)]
        assert_eq!(form.encoding().len(), 3 + 2 + 4);
    }

    #[test]
    fn lollipop_is_feasible_with_identity_classes() {
        let g = generators::lollipop(5, 3);
        let form = g.canonical_form();
        assert_eq!(form.num_classes(), g.num_nodes());
        assert!(form.is_feasible());
        let perm = form.canonical_permutation().expect("feasible");
        let mut seen = vec![false; g.num_nodes()];
        for &c in perm {
            assert!(!seen[c]);
            seen[c] = true;
        }
    }

    #[test]
    fn empty_graph_form_is_typed_not_panicking() {
        let g = crate::Graph::from_adjacency(vec![]).unwrap();
        let form = g.canonical_form();
        assert_eq!(form.num_nodes(), 0);
        assert_eq!(form.num_classes(), 0, "zero classes, not one");
        assert!(form.is_feasible(), "vacuously feasible");
        assert_eq!(form.canonical_permutation(), Some(&[][..]));
        assert_eq!(form.encoding(), &[0, 0, 0], "[n, m, C] header only");
        // The hash is still defined (and distinct from a single node's).
        let one = crate::Graph::from_adjacency(vec![vec![]]).unwrap();
        assert_ne!(form.hash(), one.canonical_form().hash());
    }

    #[test]
    fn single_node_form_is_the_trivial_bijection() {
        let g = crate::Graph::from_adjacency(vec![vec![]]).unwrap();
        let form = g.canonical_form();
        assert_eq!(form.num_classes(), 1);
        assert!(form.is_feasible());
        assert_eq!(form.canonical_permutation(), Some(&[0][..]));
        assert_eq!(form.encoding(), &[1, 0, 1, 1, 0]);
    }

    #[test]
    fn disconnected_lifts_reach_canon_only_through_lift_components() {
        // A voltage assignment whose holonomy is a proper subgroup: the
        // 2-fold lift of a 2-ring... use identity voltages on a tree base so
        // the lift splits into `fold` disjoint copies. `lift()` refuses it
        // (Disconnected); `lift_components` yields connected pieces, each of
        // which canonical_form handles without panicking.
        use crate::lift::{identity_voltage, VoltageEdge, VoltageGraph};
        let vg = VoltageGraph {
            base_nodes: 3,
            fold: 2,
            edges: vec![
                VoltageEdge {
                    u: 0,
                    v: 1,
                    sigma: identity_voltage(2),
                },
                VoltageEdge {
                    u: 1,
                    v: 2,
                    sigma: identity_voltage(2),
                },
            ],
        };
        assert!(vg.lift().is_err(), "disconnected lift must be refused");
        let comps = vg.lift_components().unwrap();
        assert_eq!(comps.len(), 2);
        for comp in &comps {
            let form = comp.canonical_form();
            assert_eq!(form.num_nodes(), 3);
            assert!(form.is_feasible(), "path(3) is feasible");
            assert!(form.canonical_permutation().is_some());
        }
        assert_eq!(
            comps[0].canonical_form().encoding(),
            comps[1].canonical_form().encoding(),
            "identical components share the canonical encoding"
        );
    }

    #[test]
    fn hash_is_equivariant_under_renumbering() {
        let graphs = [
            generators::lollipop(5, 4),
            generators::caterpillar(6),
            generators::binary_tree(4),
            generators::random_connected(24, 0.25, 11),
            generators::ring(9),
            generators::complete_bipartite(3, 4),
        ];
        for (i, g) in graphs.iter().enumerate() {
            let form = g.canonical_form();
            for round in 0..4u64 {
                let (twin, _) = random_node_permutation(g, 1000 * (i as u64) + round);
                let twin_form = twin.canonical_form();
                assert_eq!(form.encoding(), twin_form.encoding());
                assert_eq!(g.canonical_hash(), twin.canonical_hash());
                assert_eq!(form.num_classes(), twin_form.num_classes());
            }
        }
    }

    #[test]
    fn distinct_graphs_hash_distinct() {
        // Not guaranteed in general (it is a hash), but these must differ.
        let ring8 = generators::ring(8).canonical_hash();
        let ring9 = generators::ring(9).canonical_hash();
        let path8 = generators::path(8).canonical_hash();
        let lolly = generators::lollipop(5, 3).canonical_hash();
        let all = [ring8, ring9, path8, lolly];
        for i in 0..all.len() {
            for j in i + 1..all.len() {
                assert_ne!(all[i], all[j], "hash collision between {i} and {j}");
            }
        }
    }

    #[test]
    fn feasible_twins_share_the_canonical_representative() {
        let g = generators::random_connected(18, 0.3, 5);
        let form = g.canonical_form();
        let canon = permute_nodes(&g, form.canonical_permutation().expect("feasible"));
        for seed in 0..4u64 {
            let (twin, _) = random_node_permutation(&g, 77 + seed);
            let twin_form = twin.canonical_form();
            let twin_canon =
                permute_nodes(&twin, twin_form.canonical_permutation().expect("feasible"));
            assert_eq!(canon.adjacency(), twin_canon.adjacency());
        }
        // The canonical representative relabels to itself.
        let again = canon.canonical_form();
        let ident: Vec<usize> = (0..canon.num_nodes()).collect();
        assert_eq!(again.canonical_permutation(), Some(ident.as_slice()));
    }

    #[test]
    fn infeasible_twins_share_encoding() {
        // A necklace-like symmetric graph: complete bipartite K_{3,3}.
        let g = generators::complete_bipartite(3, 3);
        let form = g.canonical_form();
        assert!(!form.is_feasible());
        let (twin, _) = random_node_permutation(&g, 42);
        assert_eq!(form.encoding(), twin.canonical_form().encoding());
    }
}
