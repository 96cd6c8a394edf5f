//! `analysis_large`: the refinement layers at 10^5 nodes.
//!
//! Each job is one graph on a cold `Instance`: `feasibility` (views
//! refine), `canonical_form` of the graph and of a seeded renumbered twin,
//! then the minimum base and the refinement on it. The inputs are a
//! feasible seeded `random_sparse` graph (fold 1) and an infeasible seeded
//! `connected_cyclic_lift` of `ring_of_cliques_base(10, 4)` (fold > 1).
//! Refinement is almost all of the wall.

use anet_election::Instance;
use anet_families::ring_of_cliques::ring_of_cliques_base;
use anet_graph::quotient::{connected_cyclic_lift, MinimumBase};
use anet_graph::relabel::random_node_permutation;
use anet_graph::Graph;
use anet_views::quotient::analyze_base;
use anet_views::FeasibilityReport;

use crate::batch::{self, PassOut};
use crate::elect::{phi_draw, sparse};
use crate::stats::{mix, Digest};
use crate::trace::Recorder;
use crate::{Ctx, Report};

/// Nodes of each input graph.
const N: usize = 100_000;
/// Election index of the `random_sparse` input (the more common φ at this
/// size).
const PHI: usize = 3;

/// One job's input: a graph and a renumbered twin of it.
struct Input {
    graph: Graph,
    twin: Graph,
    /// The fold the construction guarantees.
    fold: usize,
}

/// `draw` is the accepted draw of the `random_sparse` input.
fn inputs(draw: u64, seed: u64) -> Result<Vec<Input>, String> {
    let sparse = sparse(N, draw);
    let base = ring_of_cliques_base(10, 4);
    let fold = N / base.num_nodes();
    let lift = connected_cyclic_lift(&base, fold, mix(seed, 0x301))
        .lift()
        .map_err(|e| format!("lift: {e}"))?;
    Ok([(sparse, 1), (lift, fold)]
        .into_iter()
        .enumerate()
        .map(|(i, (graph, fold))| {
            let (twin, _) = random_node_permutation(&graph, mix(seed, 0x310 + i as u64));
            Input { graph, twin, fold }
        })
        .collect())
}

/// What one job computed, for the checks.
struct Analysis {
    direct: FeasibilityReport,
    quotient: Result<FeasibilityReport, String>,
    fold: Result<usize, String>,
    same_form: bool,
}

/// The job's calls, each in its span. With tracing off the spans only run
/// their closures, so both runs make the same calls. `MinimumBase::of` then
/// `analyze_base` is what `Instance::minimum_base` and
/// `quotient_feasibility` run on first use; calling them directly splits
/// the two layers.
fn analyse(input: &Input, rec: &mut Recorder, job: u64) -> Analysis {
    let inst = Instance::new(&input.graph);
    let direct = rec.span("views.refine", job, |_| inst.feasibility());
    rec.count("views.refine.depths", direct.stable_depth as f64);
    let form = rec.span("graph.canon", job, |_| input.graph.canonical_form());
    let twin = rec.span("graph.canon", job, |_| input.twin.canonical_form());
    let base = rec.span("graph.min_base", job, |_| MinimumBase::of(&input.graph));
    let (quotient, fold) = match base {
        Ok(base) => {
            let report = rec.span("views.quotient", job, |_| analyze_base(&base).report());
            (Ok(report), Ok(base.fold()))
        }
        Err(e) => (Err(e.to_string()), Err(e.to_string())),
    };
    Analysis {
        direct,
        quotient,
        fold,
        same_form: form.encoding() == twin.encoding(),
    }
}

fn check(out: &mut PassOut, input: &Input, a: &Analysis, job: u64) {
    out.check(job, a.quotient.as_ref() == Ok(&a.direct), || {
        format!(
            "job {job}: quotient report {:?} != direct {:?}",
            a.quotient, a.direct
        )
    });
    out.check(job, a.fold.as_ref() == Ok(&input.fold), || {
        format!("job {job}: fold {:?} != {}", a.fold, input.fold)
    });
    out.check(job, input.fold == 1 || !a.direct.feasible, || {
        format!("job {job}: fold {} but feasible", input.fold)
    });
    out.check(job, input.fold > 1 || a.direct.feasible, || {
        format!("job {job}: fold 1 but infeasible")
    });
    out.check(job, a.same_form, || {
        format!("job {job}: the twin's canonical form differs")
    });
    if let Some(phi) = a.direct.election_index {
        out.rounds += phi as f64;
    }
}

fn pass(inputs: &[Input], job_base: u64, rec: &mut Recorder) -> PassOut {
    let mut out = PassOut::default();
    for (i, input) in inputs.iter().enumerate() {
        let job = job_base + i as u64;
        let a = out.timed(rec, job, |rec| analyse(input, rec, job));
        check(&mut out, input, &a, job);
    }
    out
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let draw = phi_draw(N, PHI, ctx.seed, 0x300);
    let (inputs, setup_s) = batch::repeated_setup(|| inputs(draw, ctx.seed))?;
    let mut digest = Digest::new();
    for input in &inputs {
        digest.graph(&input.graph);
        digest.graph(&input.twin);
    }
    let dominant = [
        "views.refine.ms",
        "graph.canon.ms",
        "graph.min_base.ms",
        "views.quotient.ms",
    ];
    batch::measure(ctx, setup_s, &digest.hex(), &dominant, |base, rec| {
        pass(&inputs, base, rec)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elect::sparse_with_phi;

    #[test]
    fn a_swapped_twin_fails_the_check() {
        let base = ring_of_cliques_base(10, 4);
        let lift = connected_cyclic_lift(&base, 3, 1).lift().unwrap();
        let graph = sparse_with_phi(150, 2, 2, 0x300);
        let good = Input {
            twin: random_node_permutation(&graph, 5).0,
            graph: graph.clone(),
            fold: 1,
        };
        let bad = Input {
            twin: lift.clone(),
            graph,
            fold: 1,
        };
        let lifted = Input {
            twin: random_node_permutation(&lift, 6).0,
            graph: lift,
            fold: 3,
        };
        for traced in [false, true] {
            let mut rec = Recorder::new(traced);
            let out = pass(&[good.clone_input(), lifted.clone_input()], 0, &mut rec);
            assert!(out.failures.is_empty(), "{:?}", out.failures);
            let out = pass(std::slice::from_ref(&bad), 0, &mut rec);
            assert_eq!(out.failures.len(), 1, "{:?}", out.failures);
        }
    }

    impl Input {
        fn clone_input(&self) -> Input {
            Input {
                graph: self.graph.clone(),
                twin: self.twin.clone(),
                fold: self.fold,
            }
        }
    }
}
