//! `elect_min_time`: Theorem 3.1 end to end on cold instances.
//!
//! Each job is what an `elect_all` caller pays: a cold `Instance` and the
//! `MinTime` scheme (`Instance::levels` → `advice` → `decode_advice` →
//! `COM` → labels → outputs → `verify_election`). The job set is two seeded
//! `random_sparse` graphs and two seeded-code necklaces of 2k–5k nodes.
//! Eccentricities never run here.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use anet_election::advice_build::decode_advice;
use anet_election::elect::simulate_election_in;
use anet_election::labels::{retrieve_label_arena, LabelMemo};
use anet_election::{verify_election, AdviceScheme, Instance, MinTime};
use anet_families::necklace::{necklace, NecklaceParams};
use anet_graph::{generators, Graph, PortPath};
use anet_sim::{ComNode, SyncRunner};
use anet_views::{election_index, ShardedViewArena, ViewId};

use crate::batch::{self, PassOut};
use crate::stats::{mix, Digest};
use crate::trace::Recorder;
use crate::{Ctx, Report};

/// Node counts and election indices of the seeded `random_sparse` graphs
/// (the more common φ at each size).
const SPARSE: [(usize, usize); 2] = [(2_000, 2), (5_000, 3)];
/// Necklace `k` values (`x = 5`, `φ = 3`): 2023 and 4509 nodes.
const NECKLACE_KS: [usize; 2] = [184, 410];

/// The seed of the first `random_sparse` draw on `n` nodes, from `seed`,
/// whose election index is `phi`. Draws with another φ are skipped
/// deterministically, so that every seed measures the same depth of view
/// exchange and refinement. How many are skipped depends on the seed, so
/// runs search once, before set-up is timed, and time only [`sparse`].
pub fn phi_draw(n: usize, phi: usize, seed: u64, salt: u64) -> u64 {
    (0..)
        .map(|attempt| mix(seed, salt + attempt))
        .find(|&draw| election_index(&sparse(n, draw)) == Some(phi))
        .expect("some draw has the requested election index")
}

/// The `random_sparse` graph of `draw`: `n` nodes, average degree 4.
pub fn sparse(n: usize, draw: u64) -> Graph {
    generators::random_connected_sparse(n, n, draw)
}

/// The seeded `random_sparse` graph on `n` nodes with election index `phi`.
#[cfg(test)]
pub fn sparse_with_phi(n: usize, phi: usize, seed: u64, salt: u64) -> Graph {
    sparse(n, phi_draw(n, phi, seed, salt))
}

/// The necklace `M_k` (`x = 5`, `φ = 3`) with a seeded code.
fn seeded_necklace(k: usize, seed: u64, salt: u64) -> Graph {
    let params = NecklaceParams { k, x: 5, phi: 3 };
    let mut code = vec![0; k];
    for (i, c) in code.iter_mut().enumerate().take(k - 1).skip(1) {
        *c = (mix(seed, salt + i as u64) % (params.x as u64 + 1)) as usize;
    }
    necklace(params, &code)
}

/// The accepted draws of the [`SPARSE`] graphs.
fn draws(seed: u64) -> Vec<u64> {
    SPARSE
        .iter()
        .enumerate()
        .map(|(i, &(n, phi))| phi_draw(n, phi, seed, 0x100 * (i as u64 + 1)))
        .collect()
}

fn inputs(draws: &[u64], seed: u64) -> Result<Vec<Graph>, String> {
    let mut graphs = Vec::new();
    for (i, ((&(n, _), &k), &draw)) in SPARSE.iter().zip(&NECKLACE_KS).zip(draws).enumerate() {
        graphs.push(sparse(n, draw));
        let g = seeded_necklace(k, seed, 0x10_000 * (i as u64 + 1));
        if election_index(&g).is_none() {
            return Err(format!("necklace k={k} is infeasible for seed {seed}"));
        }
        graphs.push(g);
    }
    Ok(graphs)
}

/// What a traced job hands to the checks.
struct Traced {
    leader: usize,
    time: usize,
    outputs: Vec<PortPath>,
}

/// The `MinTime` pipeline decomposed into its layers, one span each, by
/// calling the same public functions `MinTime::elect` calls.
fn traced_elect(
    g: &Graph,
    inst: &Instance,
    rec: &mut Recorder,
    job: u64,
) -> Result<Traced, String> {
    let phi = rec
        .span("views.refine", job, |_| inst.phi())
        .map_err(|e| e.to_string())?;
    rec.count("views.refine.depths", inst.stable_depth() as f64);
    rec.span("views.levels", job, |_| inst.levels().map(|_| ()))
        .map_err(|e| e.to_string())?;
    let advice = rec
        .span("election.advice", job, |_| inst.advice())
        .map_err(|e| e.to_string())?;
    let decoded = rec
        .span("election.decode", job, |_| decode_advice(&advice.bits))
        .map_err(|e| e.to_string())?;
    let arena = inst.arena();
    let (ids, time) = rec.span("sim.com", job, |rec| -> Result<_, String> {
        let acquired: Rc<RefCell<Vec<Option<ViewId>>>> =
            Rc::new(RefCell::new(vec![None; g.num_nodes()]));
        let outcome = SyncRunner::new(g, phi + 1)
            .run_indexed(|slot, _degree| {
                let acquired = Rc::clone(&acquired);
                ComNode::new(Arc::clone(&arena), phi, move |_arena, view| {
                    acquired.borrow_mut()[slot] = Some(view);
                    PortPath::empty()
                })
            })
            .map_err(|e| e.to_string())?;
        rec.count("sim.com.messages", outcome.stats.messages as f64);
        rec.count("sim.com.message_words", outcome.stats.message_words as f64);
        let time = outcome.election_time().ok_or("a node did not halt")?;
        let ids: Option<Vec<ViewId>> = acquired.borrow().iter().copied().collect();
        Ok((ids.ok_or("a node deposited no view")?, time))
    })?;
    rec.count("views.arena.views", arena.len() as f64);
    let labels: Vec<u64> = rec.span("election.labels", job, |_| {
        let mut memo = LabelMemo::new();
        ids.iter()
            .map(|&id| retrieve_label_arena(&arena, id, &decoded.e1, &decoded.e2, &mut memo))
            .collect()
    });
    rec.count("election.labels.calls", labels.len() as f64);
    let outputs = rec.span(
        "election.outputs",
        job,
        |rec| -> Result<Vec<PortPath>, String> {
            let parents = decoded.tree.parent_map();
            let mut words = 0usize;
            let mut outputs = Vec::with_capacity(labels.len());
            for &x in &labels {
                let flat = decoded
                    .tree
                    .path_to_root_via(&parents, x)
                    .ok_or_else(|| format!("label {x} has no tree path"))?;
                words += flat.len();
                let flat: Vec<usize> = flat.iter().map(|&p| p as usize).collect();
                outputs.push(PortPath::from_flat(&flat).ok_or("odd-length tree path")?);
            }
            rec.count("election.outputs.path_words", words as f64);
            Ok(outputs)
        },
    )?;
    let leader = rec
        .span("election.verify", job, |_| verify_election(g, &outputs))
        .map_err(|e| e.to_string())?;
    Ok(Traced {
        leader,
        time,
        outputs,
    })
}

/// Checks one election's outputs: a fresh verification elects `leader`,
/// which is the advice's root, in exactly φ rounds, with advice within the
/// Theorem 3.1 bound.
fn check_election(
    out: &mut PassOut,
    g: &Graph,
    inst: &Instance,
    leader: usize,
    time: usize,
    outputs: &[PortPath],
    job: u64,
) {
    let verified = verify_election(g, outputs).ok();
    out.check(job, verified == Some(leader), || {
        format!("job {job}: verified leader {verified:?} != {leader}")
    });
    match (inst.advice(), inst.phi(), MinTime.advice_bound(inst)) {
        (Ok(advice), Ok(phi), Ok(bound)) => {
            out.check(job, advice.root == leader, || {
                format!("job {job}: leader {leader} != advice root {}", advice.root)
            });
            out.check(job, time == phi, || {
                format!("job {job}: time {time} != phi {phi}")
            });
            out.check(job, advice.bits.len() <= bound, || {
                format!("job {job}: advice {} > bound {bound}", advice.bits.len())
            });
            out.advice_bits += advice.bits.len() as f64;
            out.rounds += time as f64;
        }
        _ => out.check(job, false, || {
            format!("job {job}: instance analysis failed")
        }),
    }
}

/// One pass over the job set.
fn pass(graphs: &[Graph], job_base: u64, rec: &mut Recorder) -> PassOut {
    let mut out = PassOut::default();
    for (i, g) in graphs.iter().enumerate() {
        let job = job_base + i as u64;
        if rec.enabled() {
            let result = out.timed(rec, job, |rec| {
                let inst = Instance::new(g);
                let traced = traced_elect(g, &inst, rec, job);
                (inst, traced)
            });
            match result {
                (inst, Ok(t)) => {
                    check_election(&mut out, g, &inst, t.leader, t.time, &t.outputs, job);
                    // The decomposed pipeline must reproduce the library's
                    // own node-side run byte for byte.
                    let advice = inst.advice().map(|a| a.bits.clone());
                    let reference = advice.map_err(|e| e.to_string()).and_then(|bits| {
                        simulate_election_in(g, &bits, &Arc::new(ShardedViewArena::new()))
                            .map_err(|e| e.to_string())
                    });
                    let same = reference.map(|r| r.outputs == t.outputs).unwrap_or(false);
                    out.check(job, same, || {
                        format!("job {job}: traced outputs differ from simulate_election_in")
                    });
                }
                (_, Err(e)) => out.check(job, false, || format!("job {job}: {e}")),
            }
        } else {
            let (inst, outcome) = out.timed(rec, job, |_| {
                let inst = Instance::new(g);
                let outcome = MinTime.elect(&inst);
                (inst, outcome)
            });
            match outcome {
                Ok(o) => check_election(&mut out, g, &inst, o.leader, o.time, &o.outputs, job),
                Err(e) => out.check(job, false, || format!("job {job}: {e}")),
            }
        }
    }
    out
}

/// The checker must count a swapped output path as a failure; every run
/// checks this on a small graph before measuring.
pub fn self_test(g: &Graph) -> Result<(), String> {
    let inst = Instance::new(g);
    let o = MinTime.elect(&inst).map_err(|e| e.to_string())?;
    let (a, b) = (0..g.num_nodes())
        .flat_map(|a| (a + 1..g.num_nodes()).map(move |b| (a, b)))
        .find(|&(a, b)| o.outputs[a] != o.outputs[b])
        .ok_or("no two distinct outputs to swap")?;
    let mut swapped = o.outputs.clone();
    swapped.swap(a, b);
    let mut out = PassOut::default();
    check_election(&mut out, g, &inst, o.leader, o.time, &swapped, 0);
    if out.failures.is_empty() {
        return Err("self-test: a swapped output path was not counted as failed".into());
    }
    let mut clean = PassOut::default();
    check_election(&mut clean, g, &inst, o.leader, o.time, &o.outputs, 0);
    if !clean.failures.is_empty() {
        return Err(format!(
            "self-test: clean outputs failed: {:?}",
            clean.failures
        ));
    }
    Ok(())
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let draws = draws(ctx.seed);
    let (graphs, setup_s) = batch::repeated_setup(|| inputs(&draws, ctx.seed))?;
    let mut digest = Digest::new();
    for g in &graphs {
        digest.graph(g);
    }
    self_test(&generators::lollipop(5, 4))?;
    let dominant = [
        "election.advice.ms",
        "election.labels.ms",
        "election.outputs.ms",
    ];
    batch::measure(ctx, setup_s, &digest.hex(), &dominant, |base, rec| {
        pass(&graphs, base, rec)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn swapped_output_paths_are_counted_as_failed() {
        self_test(&generators::lollipop(5, 4)).unwrap();
        self_test(&sparse_with_phi(60, 2, 3, 0x100)).unwrap();
    }

    #[test]
    fn traced_pipeline_matches_the_scheme() {
        let g = sparse_with_phi(80, 2, 5, 0x100);
        let mut rec = Recorder::new(true);
        let out = pass(std::slice::from_ref(&g), 0, &mut rec);
        assert!(out.failures.is_empty(), "{:?}", out.failures);
        assert!(rec.self_ms().contains_key("election.advice"));
    }
}
