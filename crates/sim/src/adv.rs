//! The round engine, the only loop that runs the synchronous LOCAL model.
//!
//! Each round [`AdvRunner`] consults a [`FaultPlan`] for crash/recover
//! events, per-port message drops, edge churn (through a [`DynamicGraph`]
//! view) and phase skew, and otherwise executes the three synchronous
//! phases: send, route, receive. Only the send and receive passes differ
//! between a sequential run and a threaded one, and only the threaded pass
//! needs the node algorithm to be `Send`. The clean model is this engine
//! under [`FaultPlan::none`] ([`SyncRunner`](crate::SyncRunner)); tests pin
//! its transcript to a test-only copy of the original sequential loop.
//!
//! Fault semantics:
//!
//! * A node crashed at the start of a round neither sends nor receives;
//!   messages addressed to it are lost (and not counted in the stats). A
//!   crash targeting an already-halted node is ignored — its output is
//!   already irrevocable in the LOCAL model.
//! * Under [`CrashSemantics::RestartFromInit`], a recovering node is
//!   re-created by the run's factory and `init` is re-run: volatile state
//!   is lost, while whatever the factory closes over (the advice — stable
//!   storage) is replayed. Under [`CrashSemantics::Stop`] recoveries are
//!   ignored.
//! * Dropped or churned-away messages are silently lost; the engine makes
//!   no attempt at retransmission. Reliability is layered *above* the
//!   engine by wrapping node algorithms ([`ReliableLink`],
//!   [`Restartable`]) — exactly as in real networks.
//! * Phase skew permutes the order the sequential engine processes nodes
//!   within each phase. Phases are independent per node, so this must be
//!   observationally invisible; with worker threads the chunked natural
//!   order is used (the transcript is identical either way, which the
//!   conformance harness asserts).
//!
//! [`CrashSemantics::RestartFromInit`]: crate::fault::CrashSemantics::RestartFromInit
//! [`CrashSemantics::Stop`]: crate::fault::CrashSemantics::Stop
//! [`ReliableLink`]: crate::link::ReliableLink
//! [`Restartable`]: crate::restart::Restartable

use anet_graph::{Graph, PortPath};

use crate::dynamic::DynamicGraph;
use crate::error::SimError;
use crate::fault::{CrashSemantics, FaultPlan};
use crate::runner::{NodeAlgorithm, RunOutcome, RunStats};

/// The executor of the synchronous LOCAL model, under an adversary.
pub struct AdvRunner<'g> {
    graph: &'g Graph,
    max_rounds: usize,
    num_threads: usize,
}

/// One node's state inside the engine.
struct Slot<A: NodeAlgorithm> {
    /// The node's algorithm instance; `None` while the node is crashed.
    node: Option<A>,
    /// The round in which the node halted, and its output.
    halted: Option<(usize, PortPath)>,
    /// The messages the node sent this round, until routing takes them.
    outbox: Option<Vec<Option<A::Message>>>,
    /// The messages routed to the node this round, one entry per port,
    /// until it receives them.
    inbox: Vec<Option<A::Message>>,
}

/// How phases 1 (send) and 3 (receive) visit the nodes: the one part of a
/// round that differs between the sequential and the threaded engine.
trait Pass<T> {
    /// Runs `step` once on every node's slot.
    fn each(&self, round: usize, slots: &mut [T], step: impl Fn(&mut T) + Sync);
}

/// The sequential pass, in the plan's (possibly skewed) phase order.
struct InPhaseOrder<'p>(&'p FaultPlan);

impl<T> Pass<T> for InPhaseOrder<'_> {
    fn each(&self, round: usize, slots: &mut [T], step: impl Fn(&mut T) + Sync) {
        for v in self.0.phase_order(round, slots.len()) {
            step(&mut slots[v]);
        }
    }
}

/// The threaded pass: contiguous chunks of nodes on scoped worker threads.
struct Chunked(usize);

impl<T: Send> Pass<T> for Chunked {
    fn each(&self, _round: usize, slots: &mut [T], step: impl Fn(&mut T) + Sync) {
        let chunk = slots.len().div_ceil(self.0).max(1);
        let step = &step;
        std::thread::scope(|scope| {
            for part in slots.chunks_mut(chunk) {
                scope.spawn(move || part.iter_mut().for_each(step));
            }
        });
    }
}

impl<'g> AdvRunner<'g> {
    /// Creates a sequential adversarial runner over `graph`, aborting after
    /// `max_rounds` rounds.
    pub fn new(graph: &'g Graph, max_rounds: usize) -> Self {
        AdvRunner {
            graph,
            max_rounds,
            num_threads: 1,
        }
    }

    /// As [`new`](Self::new), with the send/receive phases chunked over
    /// `num_threads` scoped worker threads (clamped to at least 1).
    pub fn with_threads(graph: &'g Graph, max_rounds: usize, num_threads: usize) -> Self {
        AdvRunner {
            graph,
            max_rounds,
            num_threads: num_threads.max(1),
        }
    }

    /// The graph being simulated.
    pub fn graph(&self) -> &Graph {
        self.graph
    }

    /// Runs one node algorithm instance per node under the adversary
    /// `plan`. The factory receives a dense slot index (the node id, which
    /// is harness bookkeeping — not information leaked to the algorithm)
    /// and the node's degree; it is re-invoked when a crashed node recovers
    /// under restart semantics.
    ///
    /// Errors with [`SimError::BadSendArity`] if a node's `send` violates
    /// the one-entry-per-port contract (the lowest such node id); reaching
    /// `max_rounds` with unhalted nodes is *not* an error (the returned
    /// outcome reports it via [`RunOutcome::all_halted`]).
    pub fn run<A, F>(&self, plan: &FaultPlan, factory: F) -> Result<RunOutcome, SimError>
    where
        A: NodeAlgorithm + Send,
        A::Message: Send,
        F: FnMut(usize, usize) -> A,
    {
        if self.num_threads == 1 {
            self.run_sequential(plan, factory)
        } else {
            self.run_with(plan, &Chunked(self.num_threads), factory)
        }
    }

    /// [`run`](Self::run) on the sequential engine, which needs no `Send`.
    pub(crate) fn run_sequential<A, F>(
        &self,
        plan: &FaultPlan,
        factory: F,
    ) -> Result<RunOutcome, SimError>
    where
        A: NodeAlgorithm,
        F: FnMut(usize, usize) -> A,
    {
        self.run_with(plan, &InPhaseOrder(plan), factory)
    }

    fn run_with<A, F, P>(
        &self,
        plan: &FaultPlan,
        pass: &P,
        mut factory: F,
    ) -> Result<RunOutcome, SimError>
    where
        A: NodeAlgorithm,
        F: FnMut(usize, usize) -> A,
        P: Pass<Slot<A>>,
    {
        let g = self.graph;
        let n = g.num_nodes();
        let dynamic = DynamicGraph::new(g, plan);
        let mut spawn = |v: usize| {
            let mut a = factory(v, g.degree(v));
            a.init(g.degree(v));
            a
        };
        let mut slots: Vec<Slot<A>> = (0..n)
            .map(|v| Slot {
                node: Some(spawn(v)),
                halted: None,
                outbox: None,
                inbox: Vec::new(),
            })
            .collect();
        let mut stats = RunStats::default();

        for round in 0..self.max_rounds {
            // Adversary events take effect at the round boundary.
            for v in plan.crashes_at(round) {
                if let Some(s) = slots.get_mut(v).filter(|s| s.halted.is_none()) {
                    s.node = None;
                }
            }
            if plan.semantics == CrashSemantics::RestartFromInit {
                for v in plan.recoveries_at(round) {
                    if let Some(s) = slots.get_mut(v) {
                        if s.halted.is_none() && s.node.is_none() {
                            s.node = Some(spawn(v));
                        }
                    }
                }
            }
            if slots.iter().all(|s| s.halted.is_some()) {
                break;
            }
            stats.rounds += 1;

            // Phase 1: active, live nodes produce their outgoing messages.
            pass.each(round, &mut slots, |s| {
                if s.halted.is_some() {
                    return;
                }
                if let Some(node) = s.node.as_mut() {
                    s.outbox = Some(node.send(round));
                }
            });

            // Phase 2: routing, filtered by the adversary (sequential, in
            // node order, so stats and first-offender errors are
            // deterministic regardless of skew and thread count).
            for (v, s) in slots.iter_mut().enumerate() {
                s.inbox = vec![None; g.degree(v)];
            }
            for v in 0..n {
                let Some(msgs) = slots[v].outbox.take() else {
                    continue;
                };
                if msgs.len() != g.degree(v) {
                    return Err(SimError::BadSendArity {
                        node: v,
                        got: msgs.len(),
                        want: g.degree(v),
                    });
                }
                for (p, msg) in msgs.into_iter().enumerate() {
                    let Some(msg) = msg else { continue };
                    let (u, q) = g.neighbor(v, p);
                    if slots[u].node.is_none() {
                        continue; // receiver crashed: message lost
                    }
                    if !dynamic.edge_up(round, v, p) {
                        continue; // edge churned away for this round
                    }
                    if plan.drops_message(round, v, p) {
                        continue; // adversarial drop
                    }
                    stats.messages += 1;
                    stats.message_words += A::message_size_words(&msg);
                    slots[u].inbox[q] = Some(msg);
                }
            }

            // Phase 3: active, live nodes receive and may halt.
            pass.each(round, &mut slots, |s| {
                if s.halted.is_some() {
                    return;
                }
                if let Some(node) = s.node.as_mut() {
                    if let Some(path) = node.receive(round, std::mem::take(&mut s.inbox)) {
                        s.halted = Some((round, path));
                    }
                }
            });
        }

        let (halt_round, outputs) = slots
            .into_iter()
            .map(|s| s.halted.map_or((None, None), |(r, p)| (Some(r), Some(p))))
            .unzip();
        Ok(RunOutcome {
            outputs,
            halt_round,
            stats,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::com::{ComNode, SharedViewArena};
    use crate::fault::CrashEvent;
    use crate::runner::{reference_run, SyncRunner};
    use anet_graph::generators;
    use anet_views::ShardedViewArena;
    use parking_lot::Mutex;
    use std::sync::Arc;

    /// `COM(depth)` on the test-only reference loop of the clean model.
    fn com_outcome_reference(g: &anet_graph::Graph, depth: usize) -> RunOutcome {
        let arena: SharedViewArena = Arc::new(ShardedViewArena::new());
        reference_run(g, depth + 1, |_| {
            ComNode::new(Arc::clone(&arena), depth, |_a, _v| PortPath::empty())
        })
        .unwrap()
    }

    fn com_outcome_adv(
        g: &anet_graph::Graph,
        depth: usize,
        max_rounds: usize,
        plan: &FaultPlan,
        threads: usize,
    ) -> RunOutcome {
        let arena: SharedViewArena = Arc::new(ShardedViewArena::new());
        AdvRunner::with_threads(g, max_rounds, threads)
            .run(plan, |_slot, _deg| {
                ComNode::new(Arc::clone(&arena), depth, |_a, _v| PortPath::empty())
            })
            .unwrap()
    }

    #[test]
    fn fault_free_transcript_matches_sync_runner() {
        let graphs = [
            generators::lollipop(5, 4),
            generators::torus(3, 4),
            generators::caterpillar(5),
        ];
        for g in &graphs {
            let depth = 3;
            let sync = com_outcome_reference(g, depth);
            let arena: SharedViewArena = Arc::new(ShardedViewArena::new());
            let clean = SyncRunner::new(g, depth + 1)
                .run(|_| ComNode::new(Arc::clone(&arena), depth, |_a, _v| PortPath::empty()))
                .unwrap();
            assert_eq!(sync.outputs, clean.outputs);
            assert_eq!(sync.halt_round, clean.halt_round);
            assert_eq!(sync.stats, clean.stats);
            for threads in [1, 2, 4] {
                let adv = com_outcome_adv(g, depth, depth + 1, &FaultPlan::none(), threads);
                assert_eq!(sync.outputs, adv.outputs);
                assert_eq!(sync.halt_round, adv.halt_round);
                assert_eq!(sync.stats, adv.stats);
            }
        }
    }

    #[test]
    fn phase_skew_is_observationally_invisible() {
        let g = generators::torus(3, 4);
        let depth = 3;
        let sync = com_outcome_reference(&g, depth);
        for seed in [1u64, 99, 4242] {
            let skew = com_outcome_adv(&g, depth, depth + 1, &FaultPlan::phase_skew(seed), 1);
            assert_eq!(sync.outputs, skew.outputs);
            assert_eq!(sync.halt_round, skew.halt_round);
            assert_eq!(sync.stats, skew.stats);
        }
    }

    #[test]
    fn crash_stop_starves_neighbors_without_panicking() {
        let g = generators::ring(6);
        let plan = FaultPlan::crashing(
            0,
            CrashSemantics::Stop,
            vec![CrashEvent {
                node: 2,
                at: 1,
                recover_at: Some(2), // ignored under Stop semantics
            }],
        );
        let out = com_outcome_adv(&g, 3, 10, &plan, 1);
        assert!(!out.all_halted(), "a silenced ring cannot finish COM(3)");
        assert!(out.outputs[2].is_none());
    }

    #[test]
    fn restart_recreates_the_instance_from_the_factory() {
        let g = generators::ring(4);
        let plan = FaultPlan::crashing(
            0,
            CrashSemantics::RestartFromInit,
            vec![CrashEvent {
                node: 1,
                at: 1,
                recover_at: Some(3),
            }],
        );
        let built = Arc::new(Mutex::new(vec![0usize; g.num_nodes()]));
        struct Idle {
            degree: usize,
        }
        impl NodeAlgorithm for Idle {
            type Message = ();
            fn init(&mut self, d: usize) {
                self.degree = d;
            }
            fn send(&mut self, _r: usize) -> Vec<Option<()>> {
                vec![None; self.degree]
            }
            fn receive(&mut self, _r: usize, _m: Vec<Option<()>>) -> Option<PortPath> {
                None
            }
        }
        let out = AdvRunner::new(&g, 6)
            .run(&plan, |slot, _deg| {
                built.lock()[slot] += 1;
                Idle { degree: 0 }
            })
            .unwrap();
        assert!(!out.all_halted());
        assert_eq!(built.lock()[1], 2, "node 1 rebuilt once on recovery");
        assert_eq!(built.lock()[0], 1);
    }

    #[test]
    fn drops_reduce_delivered_message_counts() {
        let g = generators::clique(6);
        let depth = 3;
        let clean = com_outcome_adv(&g, depth, depth + 1, &FaultPlan::none(), 1);
        // High drop rate, window longer than the run: most deliveries lost.
        let lossy = com_outcome_adv(
            &g,
            depth,
            depth + 1,
            &FaultPlan::message_drops(5, 200, 64),
            1,
        );
        assert!(lossy.stats.messages < clean.stats.messages);
        assert!(!lossy.all_halted(), "raw COM stalls under loss");
    }
}
