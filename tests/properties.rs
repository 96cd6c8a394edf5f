//! Property-based tests (proptest) on the core invariants of the
//! reproduction: encodings round-trip, election is correct and time-optimal
//! on arbitrary feasible graphs, the refinement engine agrees with the
//! definitional view comparison, and outcomes are invariant under simulator
//! node relabeling.

use proptest::prelude::*;

use anonymous_election::advice::{codec, BitString, Trie};
use anonymous_election::election::advice_build::compute_advice_reference;
use anonymous_election::election::labels::{
    discriminatory_index_and_subview_arena, retrieve_label, retrieve_label_arena, LabelMemo,
    NestedList, ViewRanks,
};
use anonymous_election::election::{
    compute_advice, elect_all, election_milestone, generic_elect_all, remark_elect_all,
    scheme_suite, verify_election, AdviceScheme, ElectionError, ExecutionModel, Generic, Instance,
    Milestone, MilestoneScheme, MinTime, Remark,
};
use anonymous_election::families::necklace::{necklace, necklace_base, NecklaceParams};
use anonymous_election::graph::lift::{identity_voltage, VoltageGraph};
use anonymous_election::graph::{algo, generators, lift, relabel, Graph, NodeId, PortPath};
use anonymous_election::sim::com::exchange_views_tree;
use anonymous_election::sim::{exchange_views, CrashEvent, CrashSemantics, FaultPlan};
use anonymous_election::views::{
    election_index, election_index_naive, AugmentedView, ClassId, RefineOptions, ShardedViewArena,
    ViewArena, ViewClasses, ViewId,
};

/// Strategy: a connected random graph described by (size, edge probability,
/// seed).
fn graph_params() -> impl Strategy<Value = (usize, f64, u64)> {
    (4usize..24, 0.05f64..0.5, any::<u64>())
}

/// One SplitMix64 step: advances `state` and returns the next output.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A uniform position in `0..=len`, for seeded shuffles and insertions.
fn below(state: &mut u64, len: usize) -> usize {
    (splitmix(state) % (len as u64 + 1)) as usize
}

/// Malformed copies of a decoded `E2` that `decode_e2` would accept: each
/// `L(i)` shuffled; entries duplicated under a different trie; labels 0 and
/// above `n` inserted (creating the entry for depths `2..=max_depth` when
/// absent); one depth dropped.
fn malformed_e2_variants(
    e2: &NestedList,
    n: usize,
    max_depth: usize,
    seed: u64,
) -> Vec<NestedList> {
    let mut state = seed;
    let mut shuffled = e2.clone();
    for (_, list) in &mut shuffled {
        for i in (1..list.len()).rev() {
            list.swap(i, below(&mut state, i));
        }
    }
    let mut duplicated = e2.clone();
    for (_, list) in &mut duplicated {
        for (j, t) in list.clone() {
            let other = Trie::internal((0, j), t, Trie::leaf());
            let at = below(&mut state, list.len());
            list.insert(at, (j, other));
        }
    }
    let mut out_of_range = e2.clone();
    for d in 2..=max_depth as u64 {
        if !out_of_range.iter().any(|(depth, _)| *depth == d) {
            out_of_range.push((d, Vec::new()));
        }
    }
    for (_, list) in &mut out_of_range {
        let t = Trie::internal((0, 1), Trie::leaf(), Trie::leaf());
        let at = below(&mut state, list.len());
        list.insert(at, (0, t.clone()));
        let at = below(&mut state, list.len());
        list.insert(at, (n as u64 + 1 + splitmix(&mut state) % 4, t));
    }
    let mut dropped = e2.clone();
    if !dropped.is_empty() {
        let at = below(&mut state, dropped.len() - 1);
        dropped.remove(at);
    }
    vec![shuffled, duplicated, out_of_range, dropped]
}

/// The election verdict by definition: each output must satisfy
/// `PortPath::is_simple`, and its `PortPath::endpoint` must match the first
/// node's — the contract `verify_election` checks in one pass.
fn verify_by_definition(g: &Graph, outputs: &[PortPath]) -> Result<NodeId, ElectionError> {
    let mut leader: Option<(NodeId, NodeId)> = None;
    for (v, path) in outputs.iter().enumerate() {
        if !path.is_simple(g, v) {
            return Err(ElectionError::OutputNotSimplePath { node: v });
        }
        let end = path
            .endpoint(g, v)
            .ok_or(ElectionError::OutputNotSimplePath { node: v })?;
        match leader {
            None => leader = Some((v, end)),
            Some((_, first)) if first == end => {}
            Some((node_a, leader_a)) => {
                return Err(ElectionError::LeadersDisagree {
                    node_a,
                    leader_a,
                    node_b: v,
                    leader_b: end,
                })
            }
        }
    }
    Ok(leader.expect("graphs have at least one node").1)
}

/// Perturbed copies of a set of valid outputs, each changing the output of
/// seeded nodes: two paths swapped, a path truncated, a wrong incoming port,
/// an out-of-range port, and back-and-forth detours that revisit a node on
/// the path or the start.
fn perturbed_outputs(g: &Graph, outputs: &[PortPath], seed: u64) -> Vec<Vec<PortPath>> {
    let n = g.num_nodes();
    let mut state = seed;
    let mut variants = Vec::new();
    let node = |state: &mut u64| below(state, n - 1);

    let (a, b) = (node(&mut state), node(&mut state));
    let mut swapped = outputs.to_vec();
    swapped.swap(a, b);
    variants.push(swapped);

    // The longest output, so edits inside a path have room.
    let v = (0..n).max_by_key(|&v| (outputs[v].len(), v)).unwrap_or(0);
    let pairs = outputs[v].pairs().to_vec();
    let k = below(&mut state, pairs.len().saturating_sub(1));
    if !pairs.is_empty() {
        let mut truncated = outputs.to_vec();
        truncated[v] = PortPath::from_pairs(pairs[..k].to_vec());
        variants.push(truncated);

        let mut wrong_in = outputs.to_vec();
        let mut bad = pairs.clone();
        bad[k].1 += 1;
        wrong_in[v] = PortPath::from_pairs(bad);
        variants.push(wrong_in);

        let mut out_of_range = outputs.to_vec();
        let mut bad = pairs.clone();
        bad[k].0 = n + 5;
        out_of_range[v] = PortPath::from_pairs(bad);
        variants.push(out_of_range);
    }
    // Detours at the start (revisiting the start) and mid-path.
    let nodes = outputs[v].resolve(g, v).unwrap_or_else(|| vec![v]);
    for at in [0, k.min(nodes.len() - 1)] {
        let here = nodes[at];
        let p = below(&mut state, g.degree(here) - 1);
        let (_, q) = g.neighbor(here, p);
        let mut detour = pairs.clone();
        detour.splice(at..at, [(p, q), (q, p)]);
        let mut with_detour = outputs.to_vec();
        with_detour[v] = PortPath::from_pairs(detour);
        variants.push(with_detour);
    }
    variants
}

/// The class rows `0..=phi` of `g`.
fn rows_to(g: &Graph, phi: usize) -> Vec<Vec<ClassId>> {
    let table = ViewClasses::compute(g, phi);
    (0..=phi).map(|d| table.row_at(d).to_vec()).collect()
}

/// The `E2` sets of `ComputeAdvice` at depth `d`: for every depth-`(d-1)`
/// view with more than one depth-`d` extension, the smallest node of each
/// extension's class, in class order.
fn e2_groups(rows: &[Vec<ClassId>], d: usize) -> Vec<Vec<NodeId>> {
    let mut groups: std::collections::BTreeMap<ClassId, Vec<(ClassId, NodeId)>> =
        std::collections::BTreeMap::new();
    for (v, &c) in rows[d].iter().enumerate() {
        let group = groups.entry(rows[d - 1][v]).or_default();
        if !group.iter().any(|&(seen, _)| seen == c) {
            group.push((c, v));
        }
    }
    groups
        .into_values()
        .filter(|g| g.len() > 1)
        .map(|mut g| {
            g.sort_unstable();
            g.into_iter().map(|(_, v)| v).collect()
        })
        .collect()
}

/// The discriminatory index and subview as chosen before class ranks: sort
/// all of `S` by `cmp_views`, then compare the first differing children of
/// the two smallest with `cmp_views`.
fn sort_based_discriminatory_index(arena: &ShardedViewArena, s: &[ViewId]) -> (usize, ViewId) {
    let mut sorted = s.to_vec();
    sorted.sort_by(|&a, &b| arena.cmp_views(a, b));
    let (ca, cb) = (arena.children(sorted[0]), arena.children(sorted[1]));
    let i = (0..ca.len())
        .find(|&i| ca[i].1 != cb[i].1)
        .expect("distinct views of one parent differ in some child");
    let smaller = if arena.cmp_views(ca[i].1, cb[i].1).is_lt() {
        ca[i].1
    } else {
        cb[i].1
    };
    (i, smaller)
}

/// Feasible small graphs whose advice has deep and large `E2` groups: coded
/// and base necklaces (φ = 3) and near-cover lifts (φ from 3 to 6), each
/// small enough for the materialized-tree reference.
fn deep_e2_graphs() -> Vec<(String, Graph)> {
    let mut out = Vec::new();
    for (k, x, code) in [
        (4, 3, vec![0, 0, 0, 0]),
        (6, 3, vec![0, 1, 2, 1, 0, 0]),
        (6, 3, vec![0, 2, 0, 1, 2, 0]),
    ] {
        let params = NecklaceParams { k, x, phi: 3 };
        let g = if code.iter().all(|&c| c == 0) {
            necklace_base(params)
        } else {
            necklace(params, &code)
        };
        out.push((format!("necklace(k={k},x={x},{code:?})"), g));
    }
    // Near-covers of fold 7–8 split a fiber into up to 7 views at once.
    for (base_n, p, fold, seed) in [
        (5, 0.5, 4, 9u64),
        (6, 0.5, 3, 13),
        (6, 0.6, 8, 0),
        (7, 0.3, 8, 10),
        (8, 0.6, 7, 11),
    ] {
        let base = generators::random_connected(base_n, p, seed);
        if let Some(g) = lift::near_cover(&base, fold, seed) {
            out.push((format!("near_cover({base_n},{p},k={fold},s={seed})"), g));
        }
    }
    out.into_iter()
        .filter(|(_, g)| matches!(election_index(g), Some(phi) if phi >= 3))
        .collect()
}

#[test]
fn rank_discriminatory_index_matches_the_sort_based_choice() {
    let mut sets = 0usize;
    for (name, g) in deep_e2_graphs() {
        let phi = election_index(&g).unwrap();
        let arena = ShardedViewArena::new();
        let levels = arena.compute_levels(&g, phi);
        let rows = rows_to(&g, phi);
        let row_refs: Vec<&[ClassId]> = rows.iter().map(Vec::as_slice).collect();
        let ranks = ViewRanks {
            graph: &g,
            levels: &levels,
            rows: &row_refs,
        };
        for d in 2..=phi {
            for group in e2_groups(&rows, d) {
                // The group and every suffix left after dropping its
                // smallest views, each in ascending order, descending order
                // and with its second smallest view moved last: the scan
                // must not rely on the order it is given.
                for start in 0..group.len() - 1 {
                    let ascending = group[start..].to_vec();
                    let descending: Vec<NodeId> = ascending.iter().rev().copied().collect();
                    let mut second_last = ascending.clone();
                    let second = second_last.remove(1);
                    second_last.push(second);
                    for s in [ascending, descending, second_last] {
                        let ids: Vec<ViewId> = s.iter().map(|&v| levels[d][v]).collect();
                        let (i, disc) = discriminatory_index_and_subview_arena(&ranks, d, &s);
                        let expected = sort_based_discriminatory_index(&arena, &ids);
                        assert_eq!((i, levels[d - 1][disc]), expected, "{name} depth {d}");
                        sets += 1;
                    }
                }
            }
        }
    }
    assert!(sets > 100, "only {sets} sets compared");
}

#[test]
fn advice_with_large_e2_groups_matches_the_reference() {
    // E2 groups of more than two views make BuildTrie pick the two smallest
    // of a larger set and recurse on uneven splits; random small graphs
    // rarely have them.
    let mut largest = 0usize;
    for (name, g) in deep_e2_graphs() {
        let arena = compute_advice(&g).unwrap();
        let reference = compute_advice_reference(&g).unwrap();
        assert_eq!(arena.bits, reference.bits, "{name}");
        assert_eq!(arena.labels, reference.labels, "{name}");
        let group_max = arena
            .e2
            .iter()
            .flat_map(|(_, list)| list.iter().map(|(_, t)| t.num_leaves()))
            .max()
            .unwrap_or(0);
        largest = largest.max(group_max);
    }
    assert!(largest >= 6, "largest E2 group has only {largest} views");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn concat_decode_roundtrip(parts in proptest::collection::vec(proptest::collection::vec(any::<bool>(), 0..24), 0..12)) {
        let parts: Vec<BitString> = parts.iter().map(|p| BitString::from_bits(p)).collect();
        let enc = codec::concat(&parts);
        let dec = codec::decode(&enc).unwrap();
        if parts.is_empty() {
            prop_assert!(dec.is_empty());
        } else {
            prop_assert_eq!(dec, parts);
        }
    }

    #[test]
    fn uint_bitstring_roundtrip(x in any::<u64>()) {
        prop_assert_eq!(BitString::from_uint(x).to_uint(), Some(x));
    }

    #[test]
    fn refinement_classes_agree_with_explicit_views((n, p, seed) in graph_params()) {
        let g = generators::random_connected(n, p, seed);
        let depth = 3usize;
        let table = ViewClasses::compute(&g, depth);
        let views = AugmentedView::compute_all(&g, depth);
        for u in g.nodes() {
            for v in g.nodes() {
                prop_assert_eq!(
                    table.class_of(depth, u) == table.class_of(depth, v),
                    views[u] == views[v]
                );
            }
        }
    }

    #[test]
    fn refine_engine_matches_btreemap_oracle((n, p, seed) in graph_params()) {
        // The flat-buffer sort-based engine must reproduce the seed BTreeMap
        // ranking exactly: same class rows (hence same canonical order) and
        // same class counts at every depth.
        let g = generators::random_connected(n, p, seed);
        let depth = 4usize;
        let table = ViewClasses::compute(&g, depth);
        let oracle = ViewClasses::compute_legacy(&g, depth);
        for d in 0..=depth {
            prop_assert_eq!(table.classes_at(d), oracle.classes_at(d));
            prop_assert_eq!(table.num_classes(d), oracle.num_classes(d));
        }
    }

    #[test]
    fn refinement_class_order_matches_canonical_view_order((n, p, seed) in graph_params()) {
        let g = generators::random_connected(n, p, seed);
        let depth = 3usize;
        let table = ViewClasses::compute(&g, depth);
        let views = AugmentedView::compute_all(&g, depth);
        for u in g.nodes() {
            for v in g.nodes() {
                prop_assert_eq!(
                    table.class_of(depth, u).cmp(&table.class_of(depth, v)),
                    views[u].cmp(&views[v])
                );
            }
        }
    }

    #[test]
    fn election_index_engines_agree((n, p, seed) in graph_params()) {
        let g = generators::random_connected(n, p, seed);
        let fast = election_index(&g);
        let naive = election_index_naive(&g, 6);
        match (fast, naive) {
            (Some(f), Some(nv)) => prop_assert_eq!(f, nv),
            (Some(f), None) => prop_assert!(f > 6),
            (None, Some(_)) => prop_assert!(false, "naive found an index on an infeasible graph"),
            (None, None) => {}
        }
    }

    #[test]
    fn minimum_time_election_is_correct_and_time_optimal((n, p, seed) in graph_params()) {
        let g = generators::random_connected(n, p, seed);
        if let Some(phi) = election_index(&g) {
            // Keep the run tractable: deep views on dense graphs explode.
            prop_assume!(phi <= 4);
            let outcome = elect_all(&g).unwrap();
            prop_assert_eq!(outcome.time, phi);
            for (v, path) in outcome.outputs.iter().enumerate() {
                prop_assert!(path.is_simple(&g, v));
                prop_assert_eq!(path.endpoint(&g, v), Some(outcome.leader));
            }
        }
    }

    #[test]
    fn generic_election_obeys_lemma_4_1((n, p, seed) in graph_params()) {
        let g = generators::random_connected(n, p, seed);
        if let Some(phi) = election_index(&g) {
            let d = algo::diameter(&g);
            let outcome = generic_elect_all(&g, phi + 1).unwrap();
            prop_assert!(outcome.time <= d + phi + 2);
            for (v, path) in outcome.outputs.iter().enumerate() {
                prop_assert!(path.is_simple(&g, v));
            }
        }
    }

    #[test]
    fn election_outcome_is_invariant_under_node_relabeling((n, p, seed) in graph_params()) {
        let g = generators::random_connected(n, p, seed);
        if let Some(phi) = election_index(&g) {
            prop_assume!(phi <= 3);
            let (h, perm) = relabel::random_node_permutation(&g, seed ^ 0xabcd);
            let og = elect_all(&g).unwrap();
            let oh = elect_all(&h).unwrap();
            prop_assert_eq!(perm[og.leader], oh.leader);
            prop_assert_eq!(og.time, oh.time);
            prop_assert_eq!(og.advice_bits, oh.advice_bits);
        }
    }

    #[test]
    fn feasibility_is_invariant_under_port_preserving_isomorphism((n, p, seed) in graph_params()) {
        let g = generators::random_connected(n, p, seed);
        let (h, _) = relabel::random_node_permutation(&g, seed.wrapping_add(7));
        prop_assert_eq!(election_index(&g), election_index(&h));
    }

    #[test]
    fn arena_com_exchange_matches_materialized_tree_oracle((n, p, seed) in graph_params()) {
        // The hash-consed COM exchange must acquire views structurally equal
        // to those of the literal tree-shipping reading of Algorithm 1.
        let g = generators::random_connected(n, p, seed);
        for depth in 0..3usize {
            let arena_views = exchange_views(&g, depth).unwrap();
            let oracle_views = exchange_views_tree(&g, depth).unwrap();
            prop_assert_eq!(&arena_views, &oracle_views);
            // Both equal the centrally computed views.
            prop_assert_eq!(&arena_views, &AugmentedView::compute_all(&g, depth));
        }
    }

    #[test]
    fn arena_advice_matches_materialized_tree_reference((n, p, seed) in graph_params()) {
        // ComputeAdvice over the arena must emit bit-identical advice to the
        // original materialized-tree construction.
        let g = generators::random_connected(n, p, seed);
        if let Some(phi) = election_index(&g) {
            prop_assume!(phi <= 4);
            let arena = compute_advice(&g).unwrap();
            let reference = compute_advice_reference(&g).unwrap();
            prop_assert_eq!(&arena.bits, &reference.bits);
            prop_assert_eq!(&arena.labels, &reference.labels);
            prop_assert_eq!(arena.root, reference.root);
        }
    }

    #[test]
    fn session_schemes_pin_to_legacy_free_functions((n, p, seed) in graph_params()) {
        // A single warm Instance running every AdviceScheme must produce
        // bit-identical advice and identical (leader, time) to the
        // corresponding legacy free function (which builds a fresh one-shot
        // session per call): cache reuse may never change a result.
        let g = generators::random_connected(n, p, seed);
        if let Some(phi) = election_index(&g) {
            prop_assume!(phi <= 4);
            let inst = Instance::new(&g);

            let mt = MinTime.elect(&inst).unwrap();
            let legacy = elect_all(&g).unwrap();
            prop_assert_eq!(&mt.advice, &compute_advice(&g).unwrap().bits);
            prop_assert_eq!(mt.leader, legacy.leader);
            prop_assert_eq!(mt.time, legacy.time);
            prop_assert_eq!(mt.advice_bits(), legacy.advice_bits);

            let gn = Generic { x: phi + 1 }.elect(&inst).unwrap();
            let legacy = generic_elect_all(&g, phi + 1).unwrap();
            prop_assert_eq!(gn.leader, legacy.leader);
            prop_assert_eq!(gn.time, legacy.time);
            prop_assert_eq!(&gn.halt_rounds, &legacy.halt_rounds);
            prop_assert_eq!(&gn.outputs, &legacy.outputs);

            for m in Milestone::ALL {
                let ms = MilestoneScheme(m).elect(&inst).unwrap();
                let legacy = election_milestone(&g, m, 2).unwrap();
                prop_assert_eq!(&ms.advice, &legacy.advice);
                prop_assert_eq!(ms.parameter.unwrap(), legacy.parameter);
                prop_assert_eq!(ms.leader, legacy.generic.leader);
                prop_assert_eq!(ms.time, legacy.generic.time);
            }

            let rm = Remark.elect(&inst).unwrap();
            let legacy = remark_elect_all(&g).unwrap();
            prop_assert_eq!(&rm.advice, &legacy.advice);
            prop_assert_eq!(rm.leader, legacy.leader);
            prop_assert_eq!(rm.time, legacy.time);
        }
    }

    #[test]
    fn scheme_outcomes_are_equivariant_under_renumbering((n, p, seed) in graph_params()) {
        // The conformance contract for MinTime and Generic(x): a
        // node-renumbered isomorphic copy must elect the corresponding
        // leader with identical time and advice bits (node ids are harness
        // bookkeeping the algorithms never see).
        let g = generators::random_connected(n, p, seed);
        if let Some(phi) = election_index(&g) {
            prop_assume!(phi <= 4);
            let (h, perm) = relabel::random_node_permutation(&g, seed ^ 0x5ca1ab1e);
            let inst_g = Instance::new(&g);
            let inst_h = Instance::new(&h);
            let schemes: Vec<Box<dyn AdviceScheme>> =
                vec![Box::new(MinTime), Box::new(Generic { x: phi }), Box::new(Generic { x: phi + 3 })];
            for scheme in schemes {
                let og = scheme.elect(&inst_g).unwrap();
                let oh = scheme.elect(&inst_h).unwrap();
                prop_assert!(
                    oh.leader == perm[og.leader]
                        && oh.time == og.time
                        && oh.advice_bits() == og.advice_bits(),
                    "{} not equivariant: leader {} vs {}, time {} vs {}, bits {} vs {}",
                    scheme.name(),
                    oh.leader,
                    perm[og.leader],
                    oh.time,
                    og.time,
                    oh.advice_bits(),
                    og.advice_bits()
                );
                // Outputs correspond node by node through the permutation.
                for v in g.nodes() {
                    prop_assert_eq!(
                        oh.outputs[perm[v]].endpoint(&h, perm[v]),
                        og.outputs[v].endpoint(&g, v).map(|l| perm[l])
                    );
                }
            }
        }
    }

    #[test]
    fn phi_targeted_hits_its_target((t, s) in (1usize..22, any::<u64>())) {
        // The generator's contract: the election index equals the target
        // exactly, for every seed (the seed only varies the pendant chain).
        let g = generators::phi_targeted(t, s);
        prop_assert_eq!(election_index(&g), Some(t));
    }

    #[test]
    fn trivial_voltage_lifts_are_disjoint_covers((n, p, seed) in graph_params()) {
        // Identity voltages lift a connected base to k disjoint copies: the
        // connected lift does not exist, and every component replicates the
        // base exactly (same analysis, node for node up to renumbering).
        let g = generators::random_connected(n, p, seed);
        let k = 2 + (seed % 3) as usize;
        let vg = VoltageGraph::from_graph(&g, k, &identity_voltage(k));
        prop_assert!(vg.lift().is_err(), "identity lift must be disconnected");
        let comps = vg.lift_components().unwrap();
        prop_assert_eq!(comps.len(), k);
        let base_report = anonymous_election::views::election_index::analyze(&g);
        for c in &comps {
            prop_assert_eq!(c.num_nodes(), g.num_nodes());
            prop_assert_eq!(c.num_edges(), g.num_edges());
            prop_assert_eq!(
                &anonymous_election::views::election_index::analyze(c),
                &base_report
            );
        }
    }

    #[test]
    fn multi_source_eccentricities_match_per_node_bfs(
        ((n, p, seed), scale) in (graph_params(), 1usize..30)
    ) {
        // The 256-lane kernel against one BFS per node, on graphs of up to
        // 667 nodes (three source batches): dense and sparse random graphs,
        // trees (many leaves) and voltage lifts (no leaves, equal views).
        let base = generators::random_connected(n, p, seed);
        let mut graphs = vec![
            generators::random_connected_sparse(n * scale, n * scale / 2, seed),
            generators::random_tree(n * scale, seed),
        ];
        graphs.extend(lift::random_lift(&base, scale.max(2), seed));
        graphs.push(base);
        for g in &graphs {
            let ecc = algo::eccentricities(g);
            prop_assert_eq!(ecc.len(), g.num_nodes());
            for v in g.nodes() {
                let oracle = algo::eccentricity(g, v);
                prop_assert!(ecc[v] == oracle, "node {}: {} != {}", v, ecc[v], oracle);
            }
        }
    }

    #[test]
    fn connected_lifts_are_infeasible_covers((n, p, seed) in (4usize..10, 0.3f64..0.7, any::<u64>())) {
        // A connected k-fold lift (k >= 2) is a fibration: all k nodes of a
        // fiber share every view, so the lift has no unique view
        // (infeasible) and its view quotient embeds in the base. The cached
        // Instance analysis must agree with the free view-class analysis on
        // every generated lift.
        let g = generators::random_connected(n, p, seed);
        let k = 2 + (seed % 2) as usize;
        prop_assume!(lift::random_lift(&g, k, seed).is_some());
        let lifted = lift::random_lift(&g, k, seed).unwrap();
        prop_assert_eq!(lifted.num_nodes(), k * g.num_nodes());
        let free = anonymous_election::views::election_index::analyze(&lifted);
        let inst = Instance::new(&lifted);
        prop_assert_eq!(inst.is_feasible(), free.feasible);
        prop_assert_eq!(&inst.feasibility(), &free);
        prop_assert!(!free.feasible, "a connected {k}-fold cover has no unique view");
        prop_assert!(
            free.distinct_views <= g.num_nodes(),
            "view quotient larger than the base: {} > {}",
            free.distinct_views,
            g.num_nodes()
        );
    }

    #[test]
    fn instance_queries_are_idempotent_and_computed_once((n, p, seed) in graph_params()) {
        // φ, diameter and class rows must be stable under repetition, and
        // the expensive analyses must run at most once per instance however
        // often they are queried.
        let g = generators::random_connected(n, p, seed);
        let inst = Instance::new(&g);
        let phi = inst.phi();
        prop_assert_eq!(phi.clone().ok(), election_index(&g));
        for _ in 0..3 {
            prop_assert_eq!(inst.phi(), phi.clone());
            // One BFS per node, independent of the multi-source kernel.
            let oracle = g.nodes().map(|v| algo::eccentricity(&g, v)).max();
            prop_assert_eq!(Some(inst.diameter()), oracle);
            prop_assert_eq!(inst.feasibility(), inst.feasibility());
        }
        let depth = phi.unwrap_or(2).min(4);
        let row = inst.class_row(depth);
        prop_assert_eq!(&row, &inst.class_row(depth));
        prop_assert_eq!(&row, &ViewClasses::compute(&g, depth).classes_at(depth).to_vec());
        let counts = inst.compute_counts();
        prop_assert_eq!(counts.analysis, 1);
        prop_assert!(counts.eccentricities <= 1);
        prop_assert!(counts.class_deepenings <= 1);
    }

    #[test]
    fn sharded_arena_pins_to_sequential_oracle_across_thread_counts((n, p, seed) in graph_params()) {
        // The striped million-node arena must be observationally identical
        // to the sequential seed arena: its numeric ids are
        // schedule-dependent, but under the canonical id correspondence
        // (levels[d][v] ↔ levels[d][v]) the class partitions, the canonical
        // total order and the interned-subtree count must all match, at
        // every worker count.
        let g = generators::random_connected(n, p, seed);
        let depth = 3usize;
        let mut seq = ViewArena::new();
        let seq_levels = seq.compute_levels(&g, depth);
        for threads in [1usize, 2, 8] {
            let sh = ShardedViewArena::new();
            let sh_levels = sh.compute_levels_with(&g, depth, threads);
            prop_assert_eq!(sh.len(), seq.len());
            prop_assert_eq!(sh_levels.len(), seq_levels.len());
            for d in 0..=depth {
                for u in g.nodes() {
                    // Structural identity under the canonical remap.
                    prop_assert_eq!(
                        sh.materialize(sh_levels[d][u]),
                        seq.materialize(seq_levels[d][u])
                    );
                    for v in g.nodes() {
                        // Identical partition and identical total order.
                        prop_assert_eq!(
                            sh.cmp_views(sh_levels[d][u], sh_levels[d][v]),
                            seq.cmp_views(seq_levels[d][u], seq_levels[d][v])
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn sharded_truncation_agrees_with_the_level_structure((n, p, seed) in graph_params()) {
        // truncate_one(B^d(v)) = B^{d-1}(v) on both arenas, id for id — the
        // memoized sharded truncation may never drift from the recursive
        // definition the sequential arena implements.
        let g = generators::random_connected(n, p, seed);
        let depth = 3usize;
        let mut seq = ViewArena::new();
        let seq_levels = seq.compute_levels(&g, depth);
        let sh = ShardedViewArena::new();
        let sh_levels = sh.compute_levels_with(&g, depth, 2);
        for d in 1..=depth {
            for v in g.nodes() {
                prop_assert_eq!(sh.truncate_one(sh_levels[d][v]), sh_levels[d - 1][v]);
                prop_assert_eq!(seq.truncate_one(seq_levels[d][v]), seq_levels[d - 1][v]);
            }
        }
    }

    #[test]
    fn parallel_refinement_is_bit_identical_across_thread_counts((n, p, seed) in graph_params()) {
        // The parallel rank passes must produce the *same numeric class
        // rows* as the sequential engine at every thread count — ranks are
        // canonical positions, not schedule artifacts.
        let g = generators::random_connected(n, p, seed);
        let depth = 4usize;
        let base = ViewClasses::compute_with(&g, depth, &RefineOptions { threads: 1 });
        for threads in [2usize, 3, 8] {
            let par = ViewClasses::compute_with(&g, depth, &RefineOptions { threads });
            for d in 0..=depth {
                prop_assert_eq!(par.classes_at(d), base.classes_at(d));
                prop_assert_eq!(par.num_classes(d), base.num_classes(d));
            }
        }
    }

    #[test]
    fn fault_free_adversarial_engine_is_bit_identical_to_the_clean_one((n, p, seed) in graph_params()) {
        // Under the empty fault plan the adversarial engine (AdvRunner via
        // elect_under) must reproduce the clean SyncRunner transcript exactly:
        // same outputs, same halt round, same message statistics.
        let g = generators::random_connected(n, p, seed);
        if let Some(phi) = election_index(&g) {
            prop_assume!(phi <= 4);
            let clean = elect_all(&g).unwrap();
            let inst = Instance::new(&g);
            for model in [ExecutionModel::Raw, ExecutionModel::ReliableLinks, ExecutionModel::Restartable] {
                let adv = inst.elect_under(&FaultPlan::none(), model, 1).unwrap();
                prop_assert_eq!(adv.leader, clean.leader);
                prop_assert_eq!(&adv.outputs, &clean.outputs);
                if model == ExecutionModel::Raw {
                    // The bare exchange is the very same transcript; the
                    // wrappers add protocol rounds/messages but must still
                    // elect identically (checked above).
                    prop_assert_eq!(adv.time, clean.time);
                    prop_assert_eq!(&adv.stats, &clean.stats);
                }
            }
        }
    }

    #[test]
    fn adversarial_runs_are_byte_identical_across_thread_counts((n, p, seed) in graph_params()) {
        // A fixed (seed, FaultPlan) pair must produce the same outcome on
        // every engine parallelism — the adversary is part of the input, not
        // of the schedule.
        let g = generators::random_connected(n, p, seed);
        if let Some(phi) = election_index(&g) {
            prop_assume!(phi <= 4);
            let inst = Instance::new(&g);
            let crash_node = (seed % n as u64) as usize;
            let plans = [
                (FaultPlan::phase_skew(seed), ExecutionModel::Raw),
                (FaultPlan::message_drops(seed, 110, 4), ExecutionModel::ReliableLinks),
                (
                    FaultPlan::crashing(
                        seed,
                        CrashSemantics::RestartFromInit,
                        vec![CrashEvent { node: crash_node, at: 1, recover_at: Some(3) }],
                    ),
                    ExecutionModel::Restartable,
                ),
            ];
            for (plan, model) in &plans {
                let base = inst.elect_under(plan, *model, 1).unwrap();
                for threads in [2usize, 3] {
                    let other = inst.elect_under(plan, *model, threads).unwrap();
                    prop_assert_eq!(other.leader, base.leader);
                    prop_assert_eq!(&other.outputs, &base.outputs);
                    prop_assert_eq!(other.time, base.time);
                    prop_assert_eq!(&other.stats, &base.stats);
                }
            }
        }
    }

    #[test]
    fn canon_refinement_agrees_with_the_views_engine((n, p, seed) in graph_params()) {
        // The service cache key (canonical form) and the quotient engine
        // both take their colours from the refinement kernel's stable row:
        // the class count must equal the distinct-view count and the colours
        // must be exactly the stable row of the views table, on random
        // graphs, renumbered twins, and voltage lifts alike.
        let g = generators::random_connected(n, p, seed);
        let (twin, _) = relabel::random_node_permutation(&g, seed ^ 0xABCD);
        let mut graphs = vec![g.clone(), twin];
        if let Some(lifted) = lift::random_lift(&g, 2, seed) {
            graphs.push(lifted);
        }
        for g in &graphs {
            let form = g.canonical_form();
            let report = anonymous_election::views::election_index::analyze(g);
            prop_assert_eq!(form.num_classes(), report.distinct_views);
            prop_assert_eq!(form.is_feasible(), report.feasible);
            let (table, stable) = ViewClasses::compute_until_stable(g);
            prop_assert_eq!(form.colors(), table.row_at(stable));
            prop_assert_eq!(form.num_classes(), table.num_classes(stable));
        }
    }

    #[test]
    fn quotient_transfer_is_bit_identical_across_the_scheme_suite((n, p, seed) in (4usize..12, 0.3f64..0.6, any::<u64>())) {
        // The umbrella transfer property: everything the quotient fast path
        // hands back — feasibility, φ, class rows, and (through the
        // certified base.lift() witness) every scheme's advice bits, time
        // and elected leader — is bit-identical to the direct computation,
        // including the infeasible-refusal path, on a random base, its
        // voltage lift, and a symmetric family member.
        let base = generators::random_connected(n, p, seed);
        let mut workloads = vec![base.clone()];
        if let Some(lifted) = lift::random_lift(&base, 2, seed) {
            workloads.push(lifted);
        }
        workloads.push(generators::ring(n.max(5)));
        for g in &workloads {
            let inst = Instance::new(g);
            inst.certify_quotient().unwrap();
            prop_assert_eq!(inst.quotient_feasibility().unwrap(), inst.feasibility());
            prop_assert_eq!(inst.quotient_size().unwrap(), inst.distinct_views());
            prop_assert_eq!(
                inst.quotient_size().unwrap() * inst.quotient_fold().unwrap(),
                g.num_nodes()
            );
            for depth in [0, inst.stable_depth(), inst.stable_depth() + 2] {
                prop_assert_eq!(inst.quotient_class_row(depth).unwrap(), inst.class_row(depth));
            }
            match inst.phi() {
                Err(_) => {
                    // Infeasible refusal transfers: the base-time report
                    // refuses, and every scheme of the suite refuses on the
                    // instance itself.
                    prop_assert!(!inst.quotient_feasibility().unwrap().feasible);
                    for scheme in scheme_suite(1) {
                        prop_assert!(scheme.elect(&inst).is_err(),
                            "{} must refuse an infeasible instance", scheme.name());
                    }
                }
                Ok(phi) => {
                    prop_assert_eq!(
                        inst.quotient_feasibility().unwrap().election_index,
                        Some(phi)
                    );
                    // Feasible ⇒ the base is the graph itself (fold 1); its
                    // lift is the certified witness — a relabeling of g —
                    // and every scheme's outcome transfers through the
                    // fiber permutation with identical time and advice.
                    let mbase = inst.minimum_base().unwrap();
                    prop_assert!(mbase.is_trivial(), "feasible => fold 1");
                    let witness = mbase.lift().unwrap();
                    let perm = mbase.node_permutation();
                    let inst_w = Instance::new(&witness);
                    for scheme in scheme_suite(phi) {
                        let a = scheme.elect(&inst).unwrap();
                        let b = scheme.elect(&inst_w).unwrap();
                        prop_assert_eq!(b.leader, perm[a.leader]);
                        prop_assert_eq!(b.time, a.time);
                        prop_assert_eq!(b.advice_bits(), a.advice_bits());
                        prop_assert_eq!(b.phi, a.phi);
                    }
                }
            }
        }
    }

    #[test]
    fn arena_labels_match_tree_oracle_on_malformed_e2((n, p, seed) in graph_params()) {
        // Decoded advice is not validated beyond its shape, so both label
        // engines must agree on any E2 a bit string can decode to — at
        // every depth up to φ + 1, where the perturbed lists are consulted.
        let g = generators::random_connected(n, p, seed);
        if let Some(phi) = election_index(&g) {
            prop_assume!(phi <= 4);
            let advice = compute_advice(&g).unwrap();
            let depth = phi + 1;
            let arena = ShardedViewArena::new();
            let levels = arena.compute_levels(&g, depth);
            let views: Vec<Vec<AugmentedView>> =
                (0..=depth).map(|d| AugmentedView::compute_all(&g, d)).collect();
            for e2 in malformed_e2_variants(&advice.e2, n, depth, seed) {
                let mut memo = LabelMemo::new();
                for d in 1..=depth {
                    for v in g.nodes() {
                        let arena_label =
                            retrieve_label_arena(&arena, levels[d][v], &advice.e1, &e2, &mut memo);
                        let oracle_label = retrieve_label(&views[d][v], &advice.e1, &e2);
                        prop_assert!(
                            arena_label == oracle_label,
                            "depth {} node {}: arena {} != oracle {}",
                            d, v, arena_label, oracle_label
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn one_pass_verification_agrees_with_the_definition((n, p, seed) in graph_params()) {
        // verify_election must return the leader, or the error variant and
        // node, that is_simple + endpoint give, on valid outputs and on
        // every perturbation of them.
        let g = generators::random_connected(n, p, seed);
        let leader = (seed % n as u64) as usize;
        let mut valid: Vec<PortPath> =
            g.nodes().map(|v| algo::shortest_path_ports(&g, v, leader)).collect();
        if let Some(phi) = election_index(&g) {
            if phi <= 3 {
                valid = elect_all(&g).unwrap().outputs;
            }
        }
        prop_assert_eq!(verify_election(&g, &valid), verify_by_definition(&g, &valid));
        for outputs in perturbed_outputs(&g, &valid, seed) {
            prop_assert_eq!(verify_election(&g, &outputs), verify_by_definition(&g, &outputs));
        }
    }
}
