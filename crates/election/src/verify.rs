//! Election-outcome verification.
//!
//! The task specification of the paper: every node outputs a sequence of port
//! numbers whose corresponding path, followed from that node, must be a
//! *simple* path in the graph, and all these paths must end at a common node
//! (the leader). This module checks that contract and reports the first
//! violated condition.
//!
//! [`PortPath::is_simple`] and [`PortPath::endpoint`] are the definition of
//! a valid output. [`verify_election`] checks the same contract in one pass
//! per path: it resolves each hop once and detects a revisited node with a
//! per-node visit stamp that is reused across all paths, so a whole outcome
//! costs `O(n + Σ path lengths)` with a single allocation. Property tests
//! pin its verdict (leader, or error variant and node) to the definition on
//! valid and perturbed outputs.

use anet_graph::{Graph, NodeId, PortPath};

use crate::error::ElectionError;

/// Verifies that `outputs[v]` is a valid election output for every node `v`
/// and that all outputs elect the same leader; returns the leader.
///
/// A path is valid when it resolves in `g` from `v` (every port exists and
/// every incoming port is the edge's actual reverse port) and visits no node
/// twice — exactly `path.is_simple(g, v)`, whose endpoint is
/// `path.endpoint(g, v)`. The first invalid path yields
/// [`ElectionError::OutputNotSimplePath`]; the first endpoint that differs
/// from node 0's yields [`ElectionError::LeadersDisagree`].
pub fn verify_election(g: &Graph, outputs: &[PortPath]) -> Result<NodeId, ElectionError> {
    assert_eq!(
        outputs.len(),
        g.num_nodes(),
        "one output per node is required"
    );
    let mut visited = vec![0u32; g.num_nodes()];
    let mut stamp = 0u32;
    let mut leader: Option<(NodeId, NodeId)> = None; // (electing node, leader)
    for (v, path) in outputs.iter().enumerate() {
        stamp = match stamp.checked_add(1) {
            Some(next) => next,
            None => {
                visited.fill(0);
                1
            }
        };
        let end = simple_endpoint(g, path, v, &mut visited, stamp)
            .ok_or(ElectionError::OutputNotSimplePath { node: v })?;
        match leader {
            None => leader = Some((v, end)),
            Some((_, first_leader)) if first_leader == end => {}
            Some((first_node, first_leader)) => {
                return Err(ElectionError::LeadersDisagree {
                    node_a: first_node,
                    leader_a: first_leader,
                    node_b: v,
                    leader_b: end,
                })
            }
        }
    }
    Ok(leader.expect("graphs have at least one node").1)
}

/// The endpoint of `path` followed from `start` if it is a simple path of
/// `g`, else `None`. Marks every visited node with `stamp` in `visited`; the
/// caller picks a stamp no earlier path used.
fn simple_endpoint(
    g: &Graph,
    path: &PortPath,
    start: NodeId,
    visited: &mut [u32],
    stamp: u32,
) -> Option<NodeId> {
    let mut cur = start;
    visited[cur] = stamp;
    for &(p, q) in path.pairs() {
        let (next, rev) = g.try_neighbor(cur, p)?;
        if rev != q || visited[next] == stamp {
            return None;
        }
        visited[next] = stamp;
        cur = next;
    }
    Some(cur)
}

#[cfg(test)]
mod tests {
    use super::*;
    use anet_graph::{algo, generators};

    #[test]
    fn accepts_agreeing_shortest_paths() {
        let g = generators::lollipop(4, 3);
        let outputs: Vec<PortPath> = g
            .nodes()
            .map(|v| algo::shortest_path_ports(&g, v, 2))
            .collect();
        assert_eq!(verify_election(&g, &outputs).unwrap(), 2);
    }

    #[test]
    fn rejects_disagreeing_leaders() {
        let g = generators::path(4);
        let mut outputs: Vec<PortPath> = g
            .nodes()
            .map(|v| algo::shortest_path_ports(&g, v, 1))
            .collect();
        outputs[3] = algo::shortest_path_ports(&g, 3, 2);
        let err = verify_election(&g, &outputs).unwrap_err();
        assert!(matches!(err, ElectionError::LeadersDisagree { .. }));
    }

    #[test]
    fn rejects_invalid_port_sequences() {
        let g = generators::path(3);
        let mut outputs: Vec<PortPath> = g
            .nodes()
            .map(|v| algo::shortest_path_ports(&g, v, 0))
            .collect();
        outputs[2] = PortPath::from_flat(&[9, 9]).unwrap();
        let err = verify_election(&g, &outputs).unwrap_err();
        assert_eq!(err, ElectionError::OutputNotSimplePath { node: 2 });
    }

    #[test]
    fn accepts_single_node_graph_electing_itself() {
        let g = Graph::from_adjacency(vec![vec![]]).unwrap();
        assert_eq!(verify_election(&g, &[PortPath::empty()]).unwrap(), 0);
    }

    #[test]
    fn rejects_all_empty_outputs_as_disagreeing_self_elections() {
        // Every node electing itself via the empty path is the degenerate
        // cheat the simple-path contract must reject on n >= 2.
        let g = generators::path(3);
        let outputs = vec![PortPath::empty(); 3];
        let err = verify_election(&g, &outputs).unwrap_err();
        assert_eq!(
            err,
            ElectionError::LeadersDisagree {
                node_a: 0,
                leader_a: 0,
                node_b: 1,
                leader_b: 1,
            }
        );
    }

    #[test]
    fn leaders_disagree_reports_the_first_conflicting_pair() {
        // Nodes 0..2 elect node 0; node 3 elects itself via a valid edge
        // walk. The error must name the first electing node and the first
        // dissenter with both leaders.
        let g = generators::path(5);
        let mut outputs: Vec<PortPath> = g
            .nodes()
            .map(|v| algo::shortest_path_ports(&g, v, 0))
            .collect();
        outputs[3] = algo::shortest_path_ports(&g, 3, 4);
        let err = verify_election(&g, &outputs).unwrap_err();
        assert_eq!(
            err,
            ElectionError::LeadersDisagree {
                node_a: 0,
                leader_a: 0,
                node_b: 3,
                leader_b: 4,
            }
        );
    }

    #[test]
    fn rejects_dangling_endpoint_mid_path() {
        // A path whose first hop is valid but whose second leaves through a
        // port the intermediate node does not have: resolution dangles, so
        // the endpoint is undefined and the output is not a simple path.
        let g = generators::path(3);
        let mut outputs: Vec<PortPath> = g
            .nodes()
            .map(|v| algo::shortest_path_ports(&g, v, 0))
            .collect();
        let mut dangling = algo::shortest_path_ports(&g, 2, 1);
        dangling.push(9, 9);
        assert_eq!(dangling.endpoint(&g, 2), None);
        outputs[2] = dangling;
        let err = verify_election(&g, &outputs).unwrap_err();
        assert_eq!(err, ElectionError::OutputNotSimplePath { node: 2 });
    }

    #[test]
    fn rejects_wrong_incoming_port() {
        // The outgoing port exists but the claimed arrival port is not the
        // actual reverse port of the edge: the path does not resolve.
        let g = generators::path(3);
        let mut outputs: Vec<PortPath> = g
            .nodes()
            .map(|v| algo::shortest_path_ports(&g, v, 0))
            .collect();
        let (out, inc) = outputs[2].pairs()[0];
        outputs[2] = PortPath::from_pairs(vec![(out, inc + 1)]);
        let err = verify_election(&g, &outputs).unwrap_err();
        assert_eq!(err, ElectionError::OutputNotSimplePath { node: 2 });
    }

    #[test]
    #[should_panic(expected = "one output per node")]
    fn panics_on_wrong_output_count() {
        let g = generators::path(3);
        let _ = verify_election(&g, &[PortPath::empty()]);
    }

    #[test]
    fn rejects_non_simple_paths() {
        let g = generators::ring(4);
        // Everyone elects node 0 via a shortest path, except node 2 which
        // walks all the way around (repeating itself).
        let mut outputs: Vec<PortPath> = g
            .nodes()
            .map(|v| algo::shortest_path_ports(&g, v, 0))
            .collect();
        let walk: Vec<usize> = vec![2, 3, 0, 1, 2];
        outputs[2] = anet_graph::path::port_path_of_node_sequence(&g, &walk).unwrap();
        let err = verify_election(&g, &outputs).unwrap_err();
        assert_eq!(err, ElectionError::OutputNotSimplePath { node: 2 });
    }
}
