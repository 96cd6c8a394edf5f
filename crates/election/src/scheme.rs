//! The [`AdviceScheme`] trait: every election-with-advice algorithm of the
//! paper as a pluggable scheme over a shared [`Instance`].
//!
//! The paper's whole story is one tradeoff curve — advice size against
//! election time — realized by four algorithm families. This module gives
//! them a single shape: a scheme produces the oracle-side advice for an
//! instance ([`AdviceScheme::advice`]), runs the node side against that
//! advice ([`AdviceScheme::run`]) and reports its theorem bounds
//! ([`AdviceScheme::time_bound`], [`AdviceScheme::advice_bound`]); every
//! run returns the same unified [`Outcome`]. All expensive graph analysis
//! flows through the instance's caches, so running the full suite of
//! schemes on one graph pays for the refinement/φ analysis, the eccentricities,
//! the view arena and the `ComputeAdvice` construction exactly once.
//!
//! | scheme                    | advice size          | time              |
//! |---------------------------|----------------------|-------------------|
//! | [`MinTime`]               | `O(n log n)`         | `φ` (minimum)     |
//! | [`Generic { x }`]         | `O(log x)`           | `<= D + x + 1`    |
//! | [`MilestoneScheme`] (1–4) | `O(log φ)` … `O(log log* φ)` | `D+φ+c` … `D+c^φ` |
//! | [`Remark`]                | `O(log D + log φ)`   | `D + φ`           |
//!
//! ```
//! use anet_election::{scheme_suite, AdviceScheme, Instance};
//! use anet_graph::generators;
//!
//! let g = generators::lollipop(5, 4);
//! let inst = Instance::new(&g);
//! let phi = inst.phi().unwrap();
//! for scheme in scheme_suite(phi) {
//!     let outcome = scheme.elect(&inst).unwrap();
//!     assert!(outcome.advice_bits() <= scheme.advice_bound(&inst).unwrap());
//!     // Milestone bounds are asymptotic; at tiny φ the generic guarantee
//!     // D + P + 1 is the binding one.
//!     let p = outcome.parameter.unwrap_or(phi as u64) as usize;
//!     let cap = outcome.time_bound.max(inst.diameter() + p + 1);
//!     assert!(outcome.time <= cap, "{}", outcome.scheme);
//! }
//! // One graph analysis served all seven runs.
//! assert_eq!(inst.compute_counts().analysis, 1);
//! ```
//!
//! [`Generic { x }`]: Generic

use anet_advice::BitString;
use anet_graph::NodeId;
use anet_graph::PortPath;
use anet_sim::RunStats;

use crate::elect::simulate_election_in;
use crate::error::ElectionError;
use crate::generic;
use crate::instance::Instance;
use crate::milestones::{milestone_advice, milestone_parameter, milestone_time_bound, Milestone};
use crate::remark::{decode_remark_advice, remark_advice_on};
use crate::verify::verify_election;

/// The unified result of running any [`AdviceScheme`] on an [`Instance`] —
/// the common denominator of the former per-algorithm outcome structs
/// (`ElectionOutcome`, `GenericOutcome`, `MilestoneOutcome`,
/// `RemarkOutcome`, all of which convert from it).
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Name of the scheme that produced this outcome.
    pub scheme: String,
    /// The elected leader (simulator-level id, recovered by verification).
    pub leader: NodeId,
    /// The election time in rounds (the round after which the last node
    /// halted).
    pub time: usize,
    /// The election index `φ(G)` of the instance.
    pub phi: usize,
    /// The advice string the nodes were given.
    pub advice: BitString,
    /// The scheme parameter actually used, when the scheme has one
    /// (`x` for [`Generic`], the reconstructed `P_i` for
    /// [`MilestoneScheme`]).
    pub parameter: Option<u64>,
    /// Per-node outputs (indexed by simulator node id).
    pub outputs: Vec<PortPath>,
    /// Per-node halting rounds (all equal to `time` for the schemes whose
    /// nodes halt simultaneously).
    pub halt_rounds: Vec<usize>,
    /// Message statistics of the simulated exchange, for schemes that run
    /// through the LOCAL simulator ([`MinTime`]).
    pub stats: Option<RunStats>,
    /// Distinct view subtrees interned by the run, for schemes that touch
    /// the view arena ([`MinTime`]).
    pub distinct_views: Option<usize>,
    /// The scheme's theorem time bound instantiated on this graph
    /// (see [`AdviceScheme::time_bound`]).
    pub time_bound: usize,
}

impl Outcome {
    /// Size of the advice in bits.
    pub fn advice_bits(&self) -> usize {
        self.advice.len()
    }

    /// Whether the measured election time respects the scheme's bound.
    pub fn within_bound(&self) -> bool {
        self.time <= self.time_bound
    }
}

/// One election-with-advice algorithm, runnable against any [`Instance`].
///
/// The oracle side ([`advice`](AdviceScheme::advice)) and the node side
/// ([`run`](AdviceScheme::run)) are split exactly as in the paper's model:
/// the oracle sees the graph (through the instance), the nodes see only the
/// advice bit string (plus whatever they learn by communicating — which
/// `run` emulates). [`elect`](AdviceScheme::elect) chains the two.
pub trait AdviceScheme {
    /// Human-readable scheme name (used by outcome records and reports).
    fn name(&self) -> String;

    /// The oracle side: the advice string for this instance. Errors on
    /// infeasible graphs (no advice can enable election there).
    fn advice(&self, inst: &Instance) -> Result<BitString, ElectionError>;

    /// The node side: runs the algorithm on every node given the common
    /// advice string, verifies the outcome, and reports it.
    fn run(&self, inst: &Instance, advice: &BitString) -> Result<Outcome, ElectionError>;

    /// The scheme's theorem time bound instantiated on this instance (e.g.
    /// `D + x + 1` for [`Generic`]); the measured `time` of a successful
    /// run never exceeds it.
    fn time_bound(&self, inst: &Instance) -> Result<usize, ElectionError>;

    /// An upper bound on the advice size in bits for this instance: the
    /// exact length for the integer-advice schemes, the Theorem 3.1
    /// `O(n log n)` envelope (with the generous concrete constant the test
    /// suite uses) for [`MinTime`].
    fn advice_bound(&self, inst: &Instance) -> Result<usize, ElectionError>;

    /// Oracle + nodes: computes the advice and runs the scheme with it.
    fn elect(&self, inst: &Instance) -> Result<Outcome, ElectionError> {
        let advice = self.advice(inst)?;
        self.run(inst, &advice)
    }
}

/// Section 3: minimum-time election (`ComputeAdvice` + `Elect`,
/// Theorem 3.1) — time exactly `φ`, advice `O(n log n)` bits.
#[derive(Debug, Clone, Copy, Default)]
pub struct MinTime;

impl AdviceScheme for MinTime {
    fn name(&self) -> String {
        "min_time".into()
    }

    fn advice(&self, inst: &Instance) -> Result<BitString, ElectionError> {
        Ok(inst.advice()?.bits.clone())
    }

    fn run(&self, inst: &Instance, advice: &BitString) -> Result<Outcome, ElectionError> {
        let g = inst.graph();
        let sim = simulate_election_in(g, advice, &inst.arena())?;
        let leader = verify_election(g, &sim.outputs)?;
        let phi = inst.phi()?;
        Ok(Outcome {
            scheme: self.name(),
            leader,
            time: sim.time,
            phi,
            advice: advice.clone(),
            parameter: None,
            halt_rounds: vec![sim.time; g.num_nodes()],
            outputs: sim.outputs,
            stats: Some(sim.stats),
            distinct_views: Some(sim.distinct_views),
            time_bound: phi,
        })
    }

    fn time_bound(&self, inst: &Instance) -> Result<usize, ElectionError> {
        inst.phi()
    }

    fn advice_bound(&self, inst: &Instance) -> Result<usize, ElectionError> {
        inst.phi()?;
        let n = inst.graph().num_nodes() as f64;
        Ok((220.0 * n * (n.log2() + 1.0)).ceil() as usize)
    }
}

/// Section 4: `Generic(x)` (Algorithm 7, Lemma 4.1) — for any `x >= φ`,
/// election in time at most `D + x + 1` knowing only `x`.
#[derive(Debug, Clone, Copy)]
pub struct Generic {
    /// The depth parameter; the advice is `bin(x)`.
    pub x: usize,
}

impl AdviceScheme for Generic {
    fn name(&self) -> String {
        format!("generic(x={})", self.x)
    }

    fn advice(&self, _inst: &Instance) -> Result<BitString, ElectionError> {
        Ok(BitString::from_uint(self.x as u64))
    }

    fn run(&self, inst: &Instance, advice: &BitString) -> Result<Outcome, ElectionError> {
        let x = advice.to_uint().ok_or_else(|| {
            ElectionError::MalformedAdvice("generic advice is not an integer".into())
        })? as usize;
        let g = inst.graph();
        let (halt_rounds, outputs) = generic::run_on_instance(inst, x);
        let leader = verify_election(g, &outputs)?;
        let time = halt_rounds.iter().copied().max().unwrap_or(0);
        Ok(Outcome {
            scheme: self.name(),
            leader,
            time,
            phi: inst.phi()?,
            advice: advice.clone(),
            parameter: Some(x as u64),
            outputs,
            halt_rounds,
            stats: None,
            distinct_views: None,
            time_bound: inst.diameter() + x + 1,
        })
    }

    fn time_bound(&self, inst: &Instance) -> Result<usize, ElectionError> {
        Ok(inst.diameter() + self.x + 1)
    }

    fn advice_bound(&self, _inst: &Instance) -> Result<usize, ElectionError> {
        Ok(BitString::from_uint(self.x as u64).len())
    }
}

/// Section 4: `Election1..4` (Algorithm 8, Theorem 4.1) — a
/// [`Milestone`]'s advice (from `bin(φ)` down to `bin(log* φ)`) is decoded
/// into a parameter `P_i >= φ` and handed to `Generic(P_i)`. The theorem
/// constant is fixed at [`MilestoneScheme::C`]` = 2`, the smallest value it
/// admits (the legacy `election_milestone` entry point restates the bound
/// for other constants).
#[derive(Debug, Clone, Copy)]
pub struct MilestoneScheme(pub Milestone);

impl MilestoneScheme {
    /// The theorem constant `c > 1` used for the reported time bound.
    pub const C: usize = 2;
}

impl AdviceScheme for MilestoneScheme {
    fn name(&self) -> String {
        format!("milestone{}", self.0.index())
    }

    fn advice(&self, inst: &Instance) -> Result<BitString, ElectionError> {
        Ok(milestone_advice(self.0, inst.phi()? as u64))
    }

    fn run(&self, inst: &Instance, advice: &BitString) -> Result<Outcome, ElectionError> {
        let parameter = milestone_parameter(self.0, advice)?;
        let phi = inst.phi()?;
        // The advice is untrusted input: a parameter below φ means the bit
        // string was not produced by `milestone_advice` for this graph.
        if parameter < phi as u64 {
            return Err(ElectionError::MalformedAdvice(format!(
                "milestone parameter {parameter} does not dominate φ = {phi}"
            )));
        }
        let g = inst.graph();
        let x = parameter as usize;
        let (halt_rounds, outputs) = generic::run_on_instance(inst, x);
        let leader = verify_election(g, &outputs)?;
        let time = halt_rounds.iter().copied().max().unwrap_or(0);
        Ok(Outcome {
            scheme: self.name(),
            leader,
            time,
            phi,
            advice: advice.clone(),
            parameter: Some(parameter),
            outputs,
            halt_rounds,
            stats: None,
            distinct_views: None,
            time_bound: self.time_bound(inst)?,
        })
    }

    fn time_bound(&self, inst: &Instance) -> Result<usize, ElectionError> {
        Ok(milestone_time_bound(
            self.0,
            inst.diameter(),
            inst.phi()?,
            Self::C,
        ))
    }

    fn advice_bound(&self, inst: &Instance) -> Result<usize, ElectionError> {
        Ok(milestone_advice(self.0, inst.phi()? as u64).len())
    }
}

/// The remark after Theorem 4.1 — advice `Concat(bin(D), bin(φ))`
/// (`O(log D + log φ)` bits), election in time exactly `D + φ`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Remark;

impl AdviceScheme for Remark {
    fn name(&self) -> String {
        "remark".into()
    }

    fn advice(&self, inst: &Instance) -> Result<BitString, ElectionError> {
        remark_advice_on(inst)
    }

    fn run(&self, inst: &Instance, advice: &BitString) -> Result<Outcome, ElectionError> {
        let (d, phi) = decode_remark_advice(advice)?;
        let g = inst.graph();
        // After D + φ rounds each node knows B^{D+φ}(u); the nodes at
        // distance <= D in it are the whole graph (the decoded D dominates
        // every eccentricity), and their depth-φ views are visible, so
        // every node routes to the unique globally-smallest depth-φ view.
        debug_assert!(inst.eccentricities().iter().all(|&e| e <= d));
        let row = inst.class_row(phi);
        let w = row
            .iter()
            .enumerate()
            .min_by_key(|&(_, &c)| c)
            .map(|(v, _)| v)
            .ok_or(ElectionError::Infeasible)?;
        let dist_to_w = anet_graph::algo::bfs_distances(g, w);
        let outputs: Vec<PortPath> = g
            .nodes()
            .map(|u| generic::lex_smallest_shortest_path_via(g, &dist_to_w, u))
            .collect();
        let leader = verify_election(g, &outputs)?;
        let time = d + phi;
        Ok(Outcome {
            scheme: self.name(),
            leader,
            time,
            phi: inst.phi()?,
            advice: advice.clone(),
            parameter: None,
            halt_rounds: vec![time; g.num_nodes()],
            outputs,
            stats: None,
            distinct_views: None,
            time_bound: inst.diameter() + inst.phi()?,
        })
    }

    fn time_bound(&self, inst: &Instance) -> Result<usize, ElectionError> {
        Ok(inst.diameter() + inst.phi()?)
    }

    fn advice_bound(&self, inst: &Instance) -> Result<usize, ElectionError> {
        remark_advice_on(inst).map(|bits| bits.len())
    }
}

/// The full scheme suite for a graph of election index `phi`: [`MinTime`],
/// [`Generic`]` { x: phi }`, the four [`MilestoneScheme`]s and [`Remark`] —
/// the seven points of the paper's advice-vs-time tradeoff curve, ready to
/// run against one shared [`Instance`].
pub fn scheme_suite(phi: usize) -> Vec<Box<dyn AdviceScheme>> {
    let mut suite: Vec<Box<dyn AdviceScheme>> =
        vec![Box::new(MinTime), Box::new(Generic { x: phi })];
    for m in Milestone::ALL {
        suite.push(Box::new(MilestoneScheme(m)));
    }
    suite.push(Box::new(Remark));
    suite
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{elect_all, election_milestone, generic_elect_all, remark_elect_all};
    use anet_graph::generators;
    use anet_graph::Graph;
    use anet_views::election_index;

    fn feasible_samples() -> Vec<Graph> {
        vec![
            generators::star(5),
            generators::caterpillar(5),
            generators::lollipop(4, 4),
            generators::lollipop(6, 8),
            generators::random_connected(20, 0.12, 4),
            generators::random_tree(18, 6),
        ]
        .into_iter()
        .filter(|g| election_index(g).is_some())
        .collect()
    }

    #[test]
    fn suite_on_a_shared_instance_computes_each_analysis_once() {
        for g in feasible_samples() {
            let inst = Instance::new(&g);
            let phi = inst.phi().unwrap();
            for scheme in scheme_suite(phi) {
                let outcome = scheme.elect(&inst).expect("feasible instance");
                // Milestone bounds are asymptotic: for tiny φ the
                // reconstructed parameter can exceed f_i(φ), in which case
                // the generic guarantee D + P + 1 is the binding one (same
                // caveat as the legacy milestone tests).
                let generic_ok = outcome
                    .parameter
                    .is_some_and(|p| outcome.time <= inst.diameter() + p as usize + 1);
                assert!(
                    outcome.within_bound() || generic_ok,
                    "{}: time {} bound {}",
                    scheme.name(),
                    outcome.time,
                    outcome.time_bound
                );
                assert!(
                    outcome.advice_bits() <= scheme.advice_bound(&inst).unwrap(),
                    "{}",
                    scheme.name()
                );
                assert_eq!(outcome.time_bound, scheme.time_bound(&inst).unwrap());
                assert_eq!(outcome.phi, phi);
                assert_eq!(outcome.outputs.len(), g.num_nodes());
            }
            let counts = inst.compute_counts();
            assert_eq!(counts.analysis, 1, "one refinement/φ analysis");
            assert_eq!(counts.eccentricities, 1, "one eccentricity pass");
            assert_eq!(counts.levels, 1, "one arena level computation");
            assert_eq!(counts.advice, 1, "one ComputeAdvice run");
            assert!(
                counts.class_deepenings <= 1,
                "at most one extension of the cached class table, got {}",
                counts.class_deepenings
            );
        }
    }

    #[test]
    fn schemes_match_their_legacy_free_functions() {
        // The compatibility wrappers are thin, but a *shared warm* instance
        // must behave identically to the fresh per-call instances the
        // wrappers build: cache reuse may never change a result.
        for g in feasible_samples() {
            let inst = Instance::new(&g);
            let phi = inst.phi().unwrap();

            let mt = MinTime.elect(&inst).unwrap();
            let legacy = elect_all(&g).unwrap();
            assert_eq!(mt.leader, legacy.leader);
            assert_eq!(mt.time, legacy.time);
            assert_eq!(mt.advice_bits(), legacy.advice_bits);

            for x in [phi, phi + 2] {
                let gn = Generic { x }.elect(&inst).unwrap();
                let legacy = generic_elect_all(&g, x).unwrap();
                assert_eq!(gn.leader, legacy.leader);
                assert_eq!(gn.time, legacy.time);
                assert_eq!(gn.halt_rounds, legacy.halt_rounds);
                assert_eq!(gn.outputs, legacy.outputs);
            }

            for m in Milestone::ALL {
                let ms = MilestoneScheme(m).elect(&inst).unwrap();
                let legacy = election_milestone(&g, m, MilestoneScheme::C).unwrap();
                assert_eq!(ms.advice, legacy.advice);
                assert_eq!(ms.parameter.unwrap(), legacy.parameter);
                assert_eq!(ms.leader, legacy.generic.leader);
                assert_eq!(ms.time, legacy.generic.time);
                assert_eq!(ms.time_bound, legacy.time_bound);
            }

            let rm = Remark.elect(&inst).unwrap();
            let legacy = remark_elect_all(&g).unwrap();
            assert_eq!(rm.advice, legacy.advice);
            assert_eq!(rm.leader, legacy.leader);
            assert_eq!(rm.time, legacy.time);
            assert_eq!(rm.outputs, legacy.outputs);
        }
    }

    #[test]
    fn advice_and_run_split_roundtrips() {
        // run() consumes only the bit string — handing it the advice built
        // by a different instance of the same graph must work and agree.
        let g = generators::lollipop(5, 4);
        let inst_a = Instance::new(&g);
        let inst_b = Instance::new(&g);
        let phi = inst_a.phi().unwrap();
        for scheme in scheme_suite(phi) {
            let advice = scheme.advice(&inst_a).unwrap();
            let oa = scheme.run(&inst_a, &advice).unwrap();
            let ob = scheme.run(&inst_b, &advice).unwrap();
            assert_eq!(oa.leader, ob.leader, "{}", scheme.name());
            assert_eq!(oa.time, ob.time, "{}", scheme.name());
            assert_eq!(oa.outputs, ob.outputs, "{}", scheme.name());
        }
    }

    #[test]
    fn infeasible_instances_fail_every_scheme() {
        let g = generators::ring(6);
        let inst = Instance::new(&g);
        for scheme in scheme_suite(1) {
            assert!(
                matches!(scheme.advice(&inst), Err(ElectionError::Infeasible))
                    || scheme.elect(&inst).is_err(),
                "{}",
                scheme.name()
            );
        }
    }

    #[test]
    fn scheme_names_are_distinct_and_stable() {
        let names: Vec<String> = scheme_suite(3).iter().map(|s| s.name()).collect();
        assert_eq!(
            names,
            [
                "min_time",
                "generic(x=3)",
                "milestone1",
                "milestone2",
                "milestone3",
                "milestone4",
                "remark"
            ]
        );
    }
}
