//! `tradeoff_sweep`: the six Section-4 points of `scheme_suite(φ)` on cold
//! instances.
//!
//! Each job is one seeded `random_sparse` graph (2k–5k nodes) on a cold
//! `Instance`, elected by `Generic { x: φ }`, the four milestones and
//! `Remark` (`MinTime` excluded). All-pairs eccentricities dominate; no
//! advice tries are built and no labels are retrieved, so this workload
//! inverts the predictions of `elect_min_time`.

use anet_election::{scheme_suite, verify_election, AdviceScheme, Instance, Outcome};
use anet_graph::Graph;

use crate::batch::{self, PassOut};
use crate::elect::{phi_draw, sparse};
use crate::stats::Digest;
use crate::trace::Recorder;
use crate::{Ctx, Report};

/// Node counts and election indices of the seeded `random_sparse` graphs.
const SPARSE: [(usize, usize); 3] = [(2_000, 2), (3_500, 3), (5_000, 3)];

/// The accepted draws of the [`SPARSE`] graphs.
fn draws(seed: u64) -> Vec<u64> {
    SPARSE
        .iter()
        .enumerate()
        .map(|(i, &(n, phi))| phi_draw(n, phi, seed, 0x200 * (i as u64 + 1)))
        .collect()
}

fn inputs(draws: &[u64]) -> Result<Vec<Graph>, String> {
    Ok(SPARSE
        .iter()
        .zip(draws)
        .map(|(&(n, _), &draw)| sparse(n, draw))
        .collect())
}

/// The Section-4 schemes of the suite.
fn section4(phi: usize) -> Vec<Box<dyn AdviceScheme>> {
    scheme_suite(phi)
        .into_iter()
        .filter(|s| s.name() != "min_time")
        .collect()
}

/// Checks one outcome: a fresh verification elects its leader, the time
/// meets the scheme's theorem bound and the advice its size bound.
fn check_outcome(
    out: &mut PassOut,
    g: &Graph,
    inst: &Instance,
    scheme: &dyn AdviceScheme,
    o: &Outcome,
    job: u64,
) {
    let verified = verify_election(g, &o.outputs).ok();
    out.check(job, verified == Some(o.leader), || {
        format!(
            "job {job} {}: verified leader {verified:?} != {}",
            o.scheme, o.leader
        )
    });
    out.check(job, o.within_bound(), || {
        format!(
            "job {job} {}: time {} > bound {}",
            o.scheme, o.time, o.time_bound
        )
    });
    let bound = scheme.advice_bound(inst).unwrap_or(0);
    out.check(job, o.advice_bits() <= bound, || {
        format!(
            "job {job} {}: advice {} > bound {bound}",
            o.scheme,
            o.advice_bits()
        )
    });
    out.advice_bits += o.advice_bits() as f64;
    out.rounds += o.time as f64;
}

fn pass(graphs: &[Graph], job_base: u64, rec: &mut Recorder) -> PassOut {
    let mut out = PassOut::default();
    for (i, g) in graphs.iter().enumerate() {
        let job = job_base + i as u64;
        let (inst, results) = out.timed(rec, job, |rec| {
            let inst = Instance::new(g);
            let phi = match rec.span("views.refine", job, |_| inst.phi()) {
                Ok(phi) => phi,
                Err(e) => return (inst, Err(e.to_string())),
            };
            rec.count("views.refine.depths", inst.stable_depth() as f64);
            rec.span("graph.ecc", job, |_| inst.eccentricities().len());
            // Computed, not counted: one BFS per node, each scanning 2m darts.
            rec.count(
                "graph.ecc.bfs_edges",
                (g.num_nodes() * 2 * g.num_edges()) as f64,
            );
            let results: Vec<_> = section4(phi)
                .into_iter()
                .map(|s| {
                    let o = rec.span("election.scheme", job, |_| s.elect(&inst));
                    (s, o)
                })
                .collect();
            (inst, Ok(results))
        });
        match results {
            Ok(results) => {
                out.check(job, results.len() == 6, || {
                    format!("job {job}: {} Section-4 schemes, not 6", results.len())
                });
                for (s, o) in results {
                    match o {
                        Ok(o) => check_outcome(&mut out, g, &inst, s.as_ref(), &o, job),
                        Err(e) => out.check(job, false, || format!("job {job} {}: {e}", s.name())),
                    }
                }
            }
            Err(e) => out.check(job, false, || format!("job {job}: {e}")),
        }
    }
    out
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let draws = draws(ctx.seed);
    let (graphs, setup_s) = batch::repeated_setup(|| inputs(&draws))?;
    let mut digest = Digest::new();
    for g in &graphs {
        digest.graph(g);
    }
    batch::measure(
        ctx,
        setup_s,
        &digest.hex(),
        &["graph.ecc.ms"],
        |base, rec| pass(&graphs, base, rec),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elect::sparse_with_phi;

    #[test]
    fn small_sweep_passes_its_checks() {
        let g = sparse_with_phi(120, 2, 9, 0x200);
        let mut rec = Recorder::new(true);
        let out = pass(std::slice::from_ref(&g), 0, &mut rec);
        assert!(out.failures.is_empty(), "{:?}", out.failures);
        assert_eq!(
            rec.spans()
                .iter()
                .filter(|s| s.name == "election.scheme")
                .count(),
            6
        );
    }
}
