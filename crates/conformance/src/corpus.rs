//! The seed-reproducible adversarial corpus.
//!
//! [`build_corpus`] enumerates several hundred named instances mixing every
//! generator class the workspace has, then filters by the size cap. All
//! pseudo-randomness is derived from [`CorpusSpec::seed`] through a
//! deterministic mixer, so a `(seed, max_n)` pair identifies the corpus
//! exactly — across runs, machines and thread counts.

use anet_families::{necklace, ring_of_cliques};
use anet_graph::lift::{self, VoltageEdge, VoltageGraph};
use anet_graph::{generators, Graph};

/// What to generate: the seed every pseudo-random choice derives from and
/// the node-count cap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CorpusSpec {
    /// Master seed; every instance's randomness is a pure function of it.
    pub seed: u64,
    /// Instances with more than `max_n` nodes are skipped.
    pub max_n: usize,
}

impl Default for CorpusSpec {
    /// The committed-artifact configuration (`BENCH_corpus.json` and the CI
    /// smoke job): seed 7, instances up to 600 nodes.
    fn default() -> Self {
        CorpusSpec {
            seed: 7,
            max_n: 600,
        }
    }
}

/// One named corpus instance.
pub struct CorpusInstance {
    /// Reproducible name encoding the generator and its parameters.
    pub name: String,
    /// Generator class: `lift`, `near_cover`, `phi_targeted`, `family`,
    /// `random` or `symmetric`.
    pub kind: &'static str,
    /// The graph.
    pub graph: Graph,
}

/// SplitMix64-style seed derivation: sub-generator `salt` of `seed`.
pub(crate) fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_mul(salt | 1)
        .wrapping_add(salt);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The simple base graphs the lift generators cover (trees are pointless
/// bases: a lift of an acyclic base is never connected).
fn lift_bases() -> Vec<(&'static str, Graph)> {
    vec![
        ("clique3", generators::clique(3)),
        ("clique4", generators::clique(4)),
        ("lollipop(4,2)", generators::lollipop(4, 2)),
        ("bipartite(2,3)", generators::complete_bipartite(2, 3)),
        ("ring5", generators::ring(5)),
    ]
}

/// A connected random lift of a *multigraph* base given by raw endpoint
/// pairs (self-loops and parallel edges allowed), retrying a few voltage
/// draws like [`lift::random_lift`] does for simple bases.
fn random_multigraph_lift(
    base_nodes: usize,
    endpoints: &[(usize, usize)],
    fold: usize,
    seed: u64,
) -> Option<Graph> {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    for attempt in 0..8u64 {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(attempt));
        let vg = VoltageGraph {
            base_nodes,
            fold,
            edges: endpoints
                .iter()
                .map(|&(u, v)| VoltageEdge {
                    u,
                    v,
                    sigma: lift::random_voltage(fold, &mut rng),
                })
                .collect(),
        };
        if let Ok(g) = vg.lift() {
            return Some(g);
        }
    }
    None
}

/// Builds the full corpus for `spec`: every instance whose node count is at
/// most `spec.max_n`, in a fixed deterministic order.
pub fn build_corpus(spec: &CorpusSpec) -> Vec<CorpusInstance> {
    let mut out: Vec<CorpusInstance> = Vec::new();
    let mut push = |name: String, kind: &'static str, graph: Graph| {
        if graph.num_nodes() <= spec.max_n {
            out.push(CorpusInstance { name, kind, graph });
        }
    };

    // 1. Permutation-voltage lifts of simple bases: connected k-fold covers,
    //    infeasible by construction (every fiber is a view class).
    for (bi, (bname, base)) in lift_bases().iter().enumerate() {
        for k in [2usize, 3, 4] {
            for s in 0..3u64 {
                let seed = mix(spec.seed, 0x1000 + (bi as u64) * 64 + (k as u64) * 8 + s);
                if let Some(g) = lift::random_lift(base, k, seed) {
                    push(format!("lift({bname},k={k},s={s})"), "lift", g);
                }
            }
        }
    }

    // 2. Lifts of multigraph bases: a bouquet of two self-loops (4-regular
    //    circulant-like covers) and a theta graph of three parallel edges
    //    (cubic bipartite-like covers).
    let bouquet = [(0usize, 0usize), (0, 0)];
    for k in [3usize, 4, 5] {
        for s in 0..3u64 {
            let seed = mix(spec.seed, 0x2000 + (k as u64) * 8 + s);
            if let Some(g) = random_multigraph_lift(1, &bouquet, k, seed) {
                push(format!("lift(bouquet2,k={k},s={s})"), "lift", g);
            }
        }
    }
    let theta = [(0usize, 1usize), (0, 1), (0, 1)];
    for k in [2usize, 3, 4] {
        for s in 0..3u64 {
            let seed = mix(spec.seed, 0x3000 + (k as u64) * 8 + s);
            if let Some(g) = random_multigraph_lift(2, &theta, k, seed) {
                push(format!("lift(theta3,k={k},s={s})"), "lift", g);
            }
        }
    }

    // 3. Near-covers: the same lifts with one symmetry-breaking pendant
    //    defect — usually feasible, with φ growing with the distance to the
    //    defect.
    for (bi, (bname, base)) in lift_bases().iter().enumerate() {
        for k in [2usize, 3, 4] {
            for s in 0..3u64 {
                let seed = mix(spec.seed, 0x4000 + (bi as u64) * 64 + (k as u64) * 8 + s);
                if let Some(g) = lift::near_cover(base, k, seed) {
                    push(format!("near_cover({bname},k={k},s={s})"), "near_cover", g);
                }
            }
        }
    }

    // 4. φ-targeted ring gadgets: feasible instances spread across the φ
    //    axis (φ equals the target exactly; see the generator docs).
    for target in [1usize, 2, 3, 4, 5, 6, 8, 10, 12, 14, 16, 20, 24, 28] {
        for s in 0..4u64 {
            let seed = mix(spec.seed, 0x5000 + (target as u64) * 8 + s);
            push(
                format!("phi_targeted({target},s={s})"),
                "phi_targeted",
                generators::phi_targeted(target, seed),
            );
        }
    }

    // 5. The paper's lower-bound families at small parameters.
    for (k, x) in [(3usize, 3usize), (4, 3), (5, 4), (8, 5), (12, 5)] {
        push(
            format!("ring_of_cliques(k={k},x={x})"),
            "family",
            ring_of_cliques::ring_of_cliques_base(k, x),
        );
    }
    for (k, x, phi) in [(2usize, 3usize, 2usize), (4, 3, 2), (4, 5, 3), (6, 4, 2)] {
        let params = necklace::NecklaceParams { k, x, phi };
        push(
            format!("necklace(k={k},x={x},phi={phi})"),
            "family",
            necklace::necklace_base(params),
        );
    }
    for (label, sizes) in [
        ("hairy_ring(1,2,3)", vec![1usize, 2, 3]),
        ("hairy_ring(0,1,0,2)", vec![0, 1, 0, 2]),
        ("hairy_ring(2,3,4,5,1)", vec![2, 3, 4, 5, 1]),
    ] {
        push(
            label.to_string(),
            "family",
            anet_families::hairy_ring(&sizes),
        );
    }
    for (x, t) in [(3usize, 0u64), (3, 1), (3, 2), (4, 0), (4, 5)] {
        push(
            format!("clique_f(x={x},t={t})"),
            "family",
            anet_families::clique_f(x, t),
        );
    }

    // 6. Random graphs: Erdős–Rényi-style, trees, and large sparse
    //    instances, all reseeded from the master seed.
    for n in [8usize, 12, 16, 24, 32, 48, 64] {
        for s in 0..8u64 {
            let seed = mix(spec.seed, 0x6000 + (n as u64) * 16 + s);
            push(
                format!("gnp(n={n},s={s})"),
                "random",
                generators::random_connected(n, 3.0 / n as f64, seed),
            );
        }
    }
    for n in [10usize, 20, 40, 60] {
        for s in 0..4u64 {
            let seed = mix(spec.seed, 0x7000 + (n as u64) * 16 + s);
            push(
                format!("tree(n={n},s={s})"),
                "random",
                generators::random_tree(n, seed),
            );
        }
    }
    for n in [100usize, 200, 400, 600] {
        for s in 0..3u64 {
            let seed = mix(spec.seed, 0x8000 + (n as u64) * 16 + s);
            if n <= spec.max_n {
                push(
                    format!("sparse(n={n},s={s})"),
                    "random",
                    generators::random_connected_sparse(n, n, seed),
                );
            }
        }
    }

    // 7. Symmetric topologies: adversarially infeasible inputs every scheme
    //    must refuse (plus the odd feasible path).
    for n in 4usize..=10 {
        push(format!("ring({n})"), "symmetric", generators::ring(n));
    }
    push("path(2)".into(), "symmetric", generators::path(2));
    push("hypercube(2)".into(), "symmetric", generators::hypercube(2));
    push("hypercube(3)".into(), "symmetric", generators::hypercube(3));
    push("torus(3,3)".into(), "symmetric", generators::torus(3, 3));
    push("torus(3,4)".into(), "symmetric", generators::torus(3, 4));
    push("clique(4)".into(), "symmetric", generators::clique(4));
    push("clique(6)".into(), "symmetric", generators::clique(6));
    push(
        "bipartite(2,2)".into(),
        "symmetric",
        generators::complete_bipartite(2, 2),
    );
    push(
        "bipartite(3,3)".into(),
        "symmetric",
        generators::complete_bipartite(3, 3),
    );
    push(
        "binary_tree(3)".into(),
        "symmetric",
        generators::binary_tree(3),
    );

    // 8. Structured feasible staples.
    for spine in 3usize..=8 {
        push(
            format!("caterpillar({spine})"),
            "random",
            generators::caterpillar(spine),
        );
    }
    for (c, t) in [(3usize, 1usize), (4, 3), (5, 5), (6, 8), (8, 4)] {
        push(
            format!("lollipop({c},{t})"),
            "random",
            generators::lollipop(c, t),
        );
    }
    for k in 2usize..=6 {
        push(format!("star({k})"), "random", generators::star(k));
    }
    for n in 3usize..=9 {
        push(format!("path({n})"), "random", generators::path(n));
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_is_deterministic_per_spec() {
        let spec = CorpusSpec { seed: 3, max_n: 40 };
        let a = build_corpus(&spec);
        let b = build_corpus(&spec);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.kind, y.kind);
            assert_eq!(x.graph, y.graph);
        }
        // A different seed changes at least the random instances.
        let c = build_corpus(&CorpusSpec { seed: 4, max_n: 40 });
        assert!(a
            .iter()
            .zip(&c)
            .any(|(x, y)| x.name != y.name || x.graph != y.graph));
    }

    #[test]
    fn corpus_respects_the_size_cap_and_names_are_unique() {
        let spec = CorpusSpec { seed: 7, max_n: 64 };
        let corpus = build_corpus(&spec);
        assert!(corpus.len() >= 150, "got {}", corpus.len());
        let mut names: Vec<&str> = corpus.iter().map(|i| i.name.as_str()).collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "corpus names must be unique");
        for inst in &corpus {
            assert!(inst.graph.num_nodes() <= 64, "{}", inst.name);
        }
    }

    #[test]
    fn corpus_eccentricities_match_the_per_node_bfs_oracle() {
        // Every eccentricity the schemes read comes from the multi-source
        // kernel; one BFS per node is its oracle on the whole default corpus.
        let corpus = build_corpus(&CorpusSpec::default());
        for inst in &corpus {
            let g = &inst.graph;
            let ecc = anet_graph::algo::eccentricities(g);
            for v in g.nodes() {
                assert_eq!(
                    ecc[v],
                    anet_graph::algo::eccentricity(g, v),
                    "{}: node {v}",
                    inst.name
                );
            }
        }
    }

    #[test]
    fn default_spec_covers_every_generator_class() {
        let corpus = build_corpus(&CorpusSpec::default());
        assert!(corpus.len() >= 250, "got {}", corpus.len());
        for kind in [
            "lift",
            "near_cover",
            "phi_targeted",
            "family",
            "random",
            "symmetric",
        ] {
            assert!(
                corpus.iter().filter(|i| i.kind == kind).count() >= 5,
                "kind {kind} is underrepresented"
            );
        }
    }
}
