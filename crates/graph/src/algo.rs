//! Centralized graph algorithms used by the oracle and the test harness.
//!
//! These are *not* part of the distributed model — they are the tools the
//! advice-constructing oracle (which knows the whole graph) and the experiment
//! harness use: BFS, distances, diameter, shortest paths, and the canonical
//! BFS tree of Section 3 of the paper.
//!
//! All-node eccentricities (and with them `diameter` and `radius`) come from
//! one bit-parallel multi-source BFS, [`eccentricities`], which runs 256
//! sources per pass over a shared frontier. [`eccentricity`] runs one BFS
//! from one node and is the kernel's test oracle.

use std::collections::VecDeque;

use crate::graph::{Graph, NodeId, Port};
use crate::path::{port_path_of_node_sequence, PortPath};

/// BFS distances from `source` to every node. `usize::MAX` never appears since
/// graphs are connected by construction.
pub fn bfs_distances(g: &Graph, source: NodeId) -> Vec<usize> {
    let n = g.num_nodes();
    let mut dist = vec![usize::MAX; n];
    let mut queue = VecDeque::new();
    dist[source] = 0;
    queue.push_back(source);
    while let Some(v) = queue.pop_front() {
        for u in g.neighbors(v) {
            if dist[u] == usize::MAX {
                dist[u] = dist[v] + 1;
                queue.push_back(u);
            }
        }
    }
    dist
}

/// BFS parents from `source`: `parent[source] == source`, and for every other
/// node the parent is the neighbor through which BFS first reached it, where
/// ties are broken by *smallest port number at the child* (the canonical BFS
/// tree of the paper: "the parent of each node u at level i+1 is the node at
/// level i corresponding to the smallest port number at u").
pub fn canonical_bfs_parents(g: &Graph, source: NodeId) -> Vec<NodeId> {
    let dist = bfs_distances(g, source);
    let n = g.num_nodes();
    let mut parent = vec![usize::MAX; n];
    parent[source] = source;
    for v in 0..n {
        if v == source {
            continue;
        }
        // Smallest port at v leading to a node at distance dist[v] - 1.
        for (_, u, _) in g.ports(v) {
            if dist[u] + 1 == dist[v] {
                parent[v] = u;
                break;
            }
        }
        debug_assert_ne!(parent[v], usize::MAX);
    }
    parent
}

/// The canonical BFS tree rooted at `root`, as a list of tree edges
/// `(child, port_at_child, parent, port_at_parent)`.
pub fn canonical_bfs_tree_edges(g: &Graph, root: NodeId) -> Vec<(NodeId, Port, NodeId, Port)> {
    let parent = canonical_bfs_parents(g, root);
    let mut edges = Vec::with_capacity(g.num_nodes().saturating_sub(1));
    for v in g.nodes() {
        if v == root {
            continue;
        }
        let u = parent[v];
        let pv = g.port_to(v, u).expect("parent is a neighbor");
        let pu = g.port_to(u, v).expect("child is a neighbor");
        edges.push((v, pv, u, pu));
    }
    edges
}

/// Eccentricity of `v`: the maximum BFS distance from `v`.
pub fn eccentricity(g: &Graph, v: NodeId) -> usize {
    bfs_distances(g, v).into_iter().max().unwrap_or(0)
}

/// Sources per multi-source BFS batch: one bit per source in a [`Lanes`] word.
const LANES: usize = 256;

/// One node's lane word in a batch: bit `i` stands for the batch's `i`-th
/// source.
type Lanes = [u64; LANES / 64];

/// The all-zero lane word.
const NO_LANES: Lanes = [0; LANES / 64];

/// Whether any lane of `a` is set (branch-free over the words).
fn any_lane(a: &Lanes) -> bool {
    a.iter().fold(0, |acc, &w| acc | w) != 0
}

/// The eccentricity of every node: `ecc[v]` equals [`eccentricity`]`(g, v)`.
///
/// A bit-parallel multi-source BFS (Then et al., "The More the Merrier:
/// Efficient Multi-Source Graph Traversal", VLDB 2014). Each node holds a
/// 256-bit lane word, one bit per source of the current batch, so one pass
/// over the shared frontier advances 256 BFS at once. Sources are taken in
/// order of distance from node 0: the sources of a batch lie close together,
/// their frontiers overlap, and a node is expanded once per level for the
/// whole batch. Only nodes with a non-zero frontier word are expanded.
///
/// Pure rings are the measured loss against one BFS per node: their
/// frontiers never overlap, so the lane words buy nothing (`ring(996)` runs
/// about 2.5× slower). A ring of cliques of the same size still gains
/// (`ring_of_cliques(166, 5)` about 1.9× faster).
pub fn eccentricities(g: &Graph) -> Vec<usize> {
    eccentricities_counted(g).0
}

/// [`eccentricities`] plus the number of frontier darts it scanned, the
/// kernel's deterministic work count (one BFS per node scans `n · 2m`).
fn eccentricities_counted(g: &Graph) -> (Vec<usize>, usize) {
    let n = g.num_nodes();
    let mut ecc = vec![0; n];
    if n == 0 {
        return (ecc, 0);
    }
    let dist = bfs_distances(g, 0);
    let mut sources: Vec<NodeId> = g.nodes().collect();
    sources.sort_by_key(|&v| dist[v]);

    let mut seen = vec![NO_LANES; n];
    // `frontier[v]` is only read while `v` is active; `next[u]` is all-zero
    // outside a level.
    let mut frontier = vec![NO_LANES; n];
    let mut next = vec![NO_LANES; n];
    let mut active: Vec<NodeId> = Vec::new();
    let mut queued: Vec<NodeId> = Vec::new();
    let mut visits = 0;
    for batch in sources.chunks(LANES) {
        seen.fill(NO_LANES);
        active.clear();
        for (lane, &s) in batch.iter().enumerate() {
            seen[s][lane / 64] |= 1 << (lane % 64);
            frontier[s] = seen[s];
            active.push(s);
        }
        let mut level = 0;
        while !active.is_empty() {
            level += 1;
            for &v in &active {
                let f = frontier[v];
                let darts = g.neighbor_slice(v);
                visits += darts.len();
                for &(u, _) in darts {
                    let seen_u = &mut seen[u];
                    let gained: Lanes = std::array::from_fn(|w| f[w] & !seen_u[w]);
                    if any_lane(&gained) {
                        let next_u = &mut next[u];
                        if !any_lane(next_u) {
                            queued.push(u);
                        }
                        for w in 0..LANES / 64 {
                            next_u[w] |= gained[w];
                            seen_u[w] |= gained[w];
                        }
                    }
                }
            }
            // Every lane that reached a node at this level has eccentricity
            // at least `level`; the last such level is its eccentricity.
            let mut reached = NO_LANES;
            for &u in &queued {
                let gained = std::mem::replace(&mut next[u], NO_LANES);
                frontier[u] = gained;
                for w in 0..LANES / 64 {
                    reached[w] |= gained[w];
                }
            }
            for (w, &word) in reached.iter().enumerate() {
                let mut bits = word;
                while bits != 0 {
                    ecc[batch[w * 64 + bits.trailing_zeros() as usize]] = level;
                    bits &= bits - 1;
                }
            }
            std::mem::swap(&mut active, &mut queued);
            queued.clear();
        }
    }
    (ecc, visits)
}

/// Diameter of the graph: maximum eccentricity over all nodes.
pub fn diameter(g: &Graph) -> usize {
    eccentricities(g).into_iter().max().unwrap_or(0)
}

/// Radius of the graph: minimum eccentricity.
pub fn radius(g: &Graph) -> usize {
    eccentricities(g).into_iter().min().unwrap_or(0)
}

/// Distance between two nodes.
pub fn distance(g: &Graph, u: NodeId, v: NodeId) -> usize {
    bfs_distances(g, u)[v]
}

/// One shortest path from `from` to `to` as a node sequence (BFS, ties broken
/// by smallest port at the current node when walking back from `to`).
pub fn shortest_path_nodes(g: &Graph, from: NodeId, to: NodeId) -> Vec<NodeId> {
    let dist = bfs_distances(g, from);
    let mut path = vec![to];
    let mut cur = to;
    while cur != from {
        // Predecessor with dist one less, smallest port at cur.
        let mut next = usize::MAX;
        for (_, u, _) in g.ports(cur) {
            if dist[u] + 1 == dist[cur] {
                next = u;
                break;
            }
        }
        debug_assert_ne!(next, usize::MAX);
        cur = next;
        path.push(cur);
    }
    path.reverse();
    path
}

/// One shortest path from `from` to `to` as a [`PortPath`].
pub fn shortest_path_ports(g: &Graph, from: NodeId, to: NodeId) -> PortPath {
    let nodes = shortest_path_nodes(g, from, to);
    port_path_of_node_sequence(g, &nodes).expect("consecutive BFS nodes are adjacent")
}

/// The path from `v` to the root of the canonical BFS tree rooted at `root`,
/// as a [`PortPath`]. Tree paths are simple by construction.
pub fn bfs_tree_path_to_root(g: &Graph, root: NodeId, v: NodeId) -> PortPath {
    let parent = canonical_bfs_parents(g, root);
    let mut nodes = vec![v];
    let mut cur = v;
    while cur != root {
        cur = parent[cur];
        nodes.push(cur);
    }
    port_path_of_node_sequence(g, &nodes).expect("tree edges are graph edges")
}

/// Checks whether `path`, followed from every one of the `starts`, is a simple
/// path ending at a common node; returns that node if so.
pub fn common_endpoint(g: &Graph, outputs: &[(NodeId, PortPath)]) -> Option<NodeId> {
    let mut leader: Option<NodeId> = None;
    for (start, path) in outputs {
        if !path.is_simple(g, *start) {
            return None;
        }
        let end = path.endpoint(g, *start)?;
        match leader {
            None => leader = Some(end),
            Some(l) if l == end => {}
            Some(_) => return None,
        }
    }
    leader
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn ring_distances_and_diameter() {
        let g = generators::ring(8);
        let d = bfs_distances(&g, 0);
        assert_eq!(d[4], 4);
        assert_eq!(d[1], 1);
        assert_eq!(d[7], 1);
        assert_eq!(diameter(&g), 4);
        assert_eq!(radius(&g), 4);
        assert_eq!(eccentricity(&g, 3), 4);
    }

    #[test]
    fn clique_diameter_is_one() {
        let g = generators::clique(5);
        assert_eq!(diameter(&g), 1);
        assert_eq!(radius(&g), 1);
    }

    #[test]
    fn path_graph_diameter_and_radius() {
        let g = generators::path(7);
        assert_eq!(diameter(&g), 6);
        assert_eq!(radius(&g), 3);
    }

    /// Asserts the multi-source kernel against one BFS per node.
    fn assert_matches_oracle(g: &Graph) {
        let ecc = eccentricities(g);
        assert_eq!(ecc.len(), g.num_nodes());
        for v in g.nodes() {
            assert_eq!(ecc[v], eccentricity(g, v), "node {v}");
        }
    }

    #[test]
    fn eccentricities_match_the_bfs_oracle_on_small_graphs() {
        let single = Graph::from_adjacency(vec![vec![]]).unwrap();
        assert_eq!(eccentricities(&single), [0]);
        assert_eq!(eccentricities(&generators::path(2)), [1, 1]);
        assert_eq!(eccentricities(&generators::path(3)), [2, 1, 2]);
        assert_eq!(eccentricities(&generators::star(5)), [1, 2, 2, 2, 2, 2]);
        for g in [
            generators::path(2),
            generators::path(3),
            generators::star(5),
            generators::caterpillar(6),
        ] {
            assert_matches_oracle(&g);
        }
    }

    #[test]
    fn eccentricities_match_the_bfs_oracle_across_batches() {
        // 600 sources: two full batches and a partial third.
        assert_matches_oracle(&generators::ring(600));
        assert_matches_oracle(&generators::path(600));
        // Exactly one full batch of sources, then one more.
        assert_matches_oracle(&generators::lollipop(3, 253));
        assert_matches_oracle(&generators::lollipop(3, 254));
        assert_matches_oracle(&generators::path(256));
        assert_matches_oracle(&generators::path(257));
    }

    #[test]
    fn eccentricities_scan_a_tenth_of_the_per_node_bfs_darts() {
        // One BFS per node scans n · 2m darts; the shared frontiers must cut
        // that at least tenfold on the sparse random family.
        for seed in [1, 2, 3] {
            let g = generators::random_connected_sparse(5000, 5000, seed);
            let (ecc, visits) = eccentricities_counted(&g);
            assert_eq!(ecc.len(), 5000);
            let per_node = g.num_nodes() * 2 * g.num_edges();
            assert!(
                visits <= per_node / 10,
                "seed {seed}: {visits} dart visits, per-node BFS {per_node}"
            );
        }
    }

    #[test]
    fn shortest_path_is_shortest_and_simple() {
        let g = generators::ring(10);
        let p = shortest_path_ports(&g, 0, 5);
        assert_eq!(p.len(), 5);
        assert!(p.is_simple(&g, 0));
        assert_eq!(p.endpoint(&g, 0), Some(5));
    }

    #[test]
    fn canonical_bfs_parents_cover_all_nodes() {
        let g = generators::hypercube(3);
        let parent = canonical_bfs_parents(&g, 0);
        assert_eq!(parent[0], 0);
        for (v, &pv) in parent.iter().enumerate().skip(1) {
            assert_ne!(pv, usize::MAX);
            // Parent is strictly closer to the root.
            assert_eq!(distance(&g, 0, pv) + 1, distance(&g, 0, v));
        }
    }

    #[test]
    fn canonical_bfs_tree_has_n_minus_one_edges() {
        let g = generators::torus(3, 4);
        let edges = canonical_bfs_tree_edges(&g, 2);
        assert_eq!(edges.len(), g.num_nodes() - 1);
        for (v, pv, u, pu) in edges {
            assert_eq!(g.neighbor(v, pv), (u, pu));
        }
    }

    #[test]
    fn bfs_tree_path_reaches_root() {
        let g = generators::torus(4, 4);
        for v in g.nodes() {
            let p = bfs_tree_path_to_root(&g, 5, v);
            assert!(p.is_simple(&g, v));
            assert_eq!(p.endpoint(&g, v), Some(5));
        }
    }

    #[test]
    fn common_endpoint_detects_agreement_and_disagreement() {
        let g = generators::path(5);
        let agree: Vec<_> = g
            .nodes()
            .map(|v| (v, shortest_path_ports(&g, v, 2)))
            .collect();
        assert_eq!(common_endpoint(&g, &agree), Some(2));

        let mut disagree = agree.clone();
        disagree[0] = (0, shortest_path_ports(&g, 0, 3));
        assert_eq!(common_endpoint(&g, &disagree), None);
    }

    #[test]
    fn common_endpoint_rejects_non_simple_paths() {
        let g = generators::ring(6);
        // A path that goes all the way around the ring repeats the start node.
        let nodes: Vec<NodeId> = (0..=6).map(|i| i % 6).collect();
        let p = port_path_of_node_sequence(&g, &nodes).unwrap();
        assert_eq!(common_endpoint(&g, &[(0, p)]), None);
    }
}
