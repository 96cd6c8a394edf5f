//! The node-algorithm contract, run outcomes, and the clean-model runner.

use anet_graph::{Graph, NodeId, PortPath};

use crate::adv::AdvRunner;
use crate::error::SimError;
use crate::fault::FaultPlan;

/// A node-local deterministic algorithm executed by the simulator.
///
/// One instance of the implementing type is created per node (by the factory
/// passed to the runner). The instance never learns the simulator-level node
/// identifier: it only sees its own degree, the common advice it was
/// initialized with, and the messages arriving on its ports — exactly the
/// information available in the anonymous LOCAL model.
pub trait NodeAlgorithm {
    /// The message type exchanged with neighbors.
    type Message: Clone + Send;

    /// Called once before round 0 with the degree of the node.
    fn init(&mut self, degree: usize);

    /// Produces the messages to send in the given round, one entry per port
    /// (index = port number). A `None` entry means no message on that port.
    /// The returned vector must have exactly `degree` entries.
    fn send(&mut self, round: usize) -> Vec<Option<Self::Message>>;

    /// Delivers the messages received in the given round, one entry per port
    /// (index = port number; `None` if the neighbor sent nothing on the
    /// connecting edge). Returning `Some(path)` halts the node with that
    /// election output; after halting the node is no longer scheduled.
    fn receive(&mut self, round: usize, incoming: Vec<Option<Self::Message>>) -> Option<PortPath>;

    /// The size of a message in machine words, accumulated into
    /// [`RunStats::message_words`] for every delivered message. The default
    /// of 1 suits plain scalar messages; algorithms exchanging structured
    /// payloads override it so runs report their true communication volume
    /// (e.g. the tree-based `COM` oracle reports the full view-tree size,
    /// the arena-based `COM` a constant 2).
    fn message_size_words(_msg: &Self::Message) -> usize {
        1
    }
}

/// Aggregate statistics of a run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Number of rounds executed (a round counts if at least one node was
    /// still active at its start).
    pub rounds: usize,
    /// Total number of messages delivered over all rounds.
    pub messages: usize,
    /// Total payload volume of delivered messages, in machine words, as
    /// reported by [`NodeAlgorithm::message_size_words`].
    pub message_words: usize,
}

/// The outcome of a run: per-node outputs, halting rounds, and statistics.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// `outputs[v]` is the election output of node `v`, if it halted.
    pub outputs: Vec<Option<PortPath>>,
    /// `halt_round[v]` is the round (0-based; a node halting in round `r`
    /// has used `r + 1` rounds of communication) in which node `v` halted.
    pub halt_round: Vec<Option<usize>>,
    /// Run statistics.
    pub stats: RunStats,
}

impl RunOutcome {
    /// Whether every node produced an output.
    pub fn all_halted(&self) -> bool {
        self.outputs.iter().all(Option::is_some)
    }

    /// The largest halting round among nodes that halted, interpreted as the
    /// *time* of the election in the paper's sense (number of rounds used).
    pub fn election_time(&self) -> Option<usize> {
        if !self.all_halted() {
            return None;
        }
        self.halt_round
            .iter()
            .map(|r| r.map(|r| r + 1).unwrap_or(0))
            .max()
    }

    /// The per-node `(start, path)` pairs for outcome verification.
    pub fn outputs_with_starts(&self) -> Vec<(NodeId, PortPath)> {
        self.outputs
            .iter()
            .enumerate()
            .filter_map(|(v, o)| o.clone().map(|p| (v, p)))
            .collect()
    }
}

/// The clean synchronous LOCAL model: the round engine of
/// [`AdvRunner`] under [`FaultPlan::none`], sequential, in node order.
pub struct SyncRunner<'g>(AdvRunner<'g>);

impl<'g> SyncRunner<'g> {
    /// Creates a runner over `graph` that aborts after `max_rounds` rounds
    /// (a safety net against non-terminating node algorithms).
    pub fn new(graph: &'g Graph, max_rounds: usize) -> Self {
        SyncRunner(AdvRunner::new(graph, max_rounds))
    }

    /// The graph being simulated.
    pub fn graph(&self) -> &Graph {
        self.0.graph()
    }

    /// Like [`run`](Self::run), but additionally hands the factory a dense
    /// slot index (instances are created in node-id order), so callers that
    /// collect per-node results into a shared vector do not each need an
    /// external counter. The slot index is harness bookkeeping for
    /// depositing outputs — it is *not* information available to the node
    /// algorithm, which still only sees its degree.
    pub fn run_indexed<A, F>(&self, factory: F) -> Result<RunOutcome, SimError>
    where
        A: NodeAlgorithm,
        F: FnMut(usize, usize) -> A,
    {
        self.0.run_sequential(&FaultPlan::none(), factory)
    }

    /// Runs one node algorithm instance per node, created by `factory`
    /// (which receives the node's degree, *not* its identity), until every
    /// node halts or `max_rounds` is reached.
    ///
    /// Errors with [`SimError::BadSendArity`] if a node's `send` violates
    /// the one-entry-per-port contract; reaching `max_rounds` with unhalted
    /// nodes is *not* an error (the returned outcome reports it via
    /// [`RunOutcome::all_halted`]).
    pub fn run<A, F>(&self, mut factory: F) -> Result<RunOutcome, SimError>
    where
        A: NodeAlgorithm,
        F: FnMut(usize) -> A,
    {
        self.run_indexed(|_slot, degree| factory(degree))
    }
}

/// The original sequential round loop of the clean model, kept as the
/// reference the engine's fault-free transcript is compared against.
#[cfg(test)]
pub(crate) fn reference_run<A, F>(
    g: &Graph,
    max_rounds: usize,
    mut factory: F,
) -> Result<RunOutcome, SimError>
where
    A: NodeAlgorithm,
    F: FnMut(usize) -> A,
{
    let n = g.num_nodes();
    let mut nodes: Vec<A> = (0..n)
        .map(|v| {
            let mut a = factory(g.degree(v));
            a.init(g.degree(v));
            a
        })
        .collect();
    let mut outputs: Vec<Option<PortPath>> = vec![None; n];
    let mut halt_round: Vec<Option<usize>> = vec![None; n];
    let mut stats = RunStats::default();

    for round in 0..max_rounds {
        if outputs.iter().all(Option::is_some) {
            break;
        }
        stats.rounds += 1;
        // Phase 1: all active nodes produce their outgoing messages.
        let mut outgoing: Vec<Vec<Option<A::Message>>> = Vec::with_capacity(n);
        for (v, node) in nodes.iter_mut().enumerate() {
            if outputs[v].is_some() {
                outgoing.push(vec![None; g.degree(v)]);
                continue;
            }
            let msgs = node.send(round);
            if msgs.len() != g.degree(v) {
                return Err(SimError::BadSendArity {
                    node: v,
                    got: msgs.len(),
                    want: g.degree(v),
                });
            }
            outgoing.push(msgs);
        }
        // Phase 2: route messages along edges.
        let mut incoming: Vec<Vec<Option<A::Message>>> =
            (0..n).map(|v| vec![None; g.degree(v)]).collect();
        for (v, out) in outgoing.iter_mut().enumerate() {
            for (p, u, q) in g.ports(v) {
                if let Some(msg) = out[p].take() {
                    stats.messages += 1;
                    stats.message_words += A::message_size_words(&msg);
                    incoming[u][q] = Some(msg);
                }
            }
        }
        // Phase 3: all active nodes receive and may halt.
        for (v, node) in nodes.iter_mut().enumerate() {
            if outputs[v].is_some() {
                continue;
            }
            let inbox = std::mem::take(&mut incoming[v]);
            if let Some(path) = node.receive(round, inbox) {
                outputs[v] = Some(path);
                halt_round[v] = Some(round);
            }
        }
    }

    Ok(RunOutcome {
        outputs,
        halt_round,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use anet_graph::generators;
    use std::cell::RefCell;
    use std::rc::Rc;

    /// A toy algorithm: flood a counter for `target` rounds, then output the
    /// empty path (electing oneself) — used to exercise the engine mechanics.
    struct CountDown {
        target: usize,
        degree: usize,
        seen: usize,
    }

    impl NodeAlgorithm for CountDown {
        type Message = usize;

        fn init(&mut self, degree: usize) {
            self.degree = degree;
        }

        fn send(&mut self, round: usize) -> Vec<Option<usize>> {
            vec![Some(round); self.degree]
        }

        fn receive(&mut self, _round: usize, incoming: Vec<Option<usize>>) -> Option<PortPath> {
            self.seen += incoming.iter().flatten().count();
            if self.seen >= self.target * self.degree {
                Some(PortPath::empty())
            } else {
                None
            }
        }
    }

    /// The engine and the reference loop agree on outputs, halting rounds
    /// and message statistics.
    fn assert_same_transcript(engine: &RunOutcome, reference: &RunOutcome) {
        assert_eq!(engine.outputs, reference.outputs);
        assert_eq!(engine.halt_round, reference.halt_round);
        assert_eq!(engine.stats, reference.stats);
    }

    #[test]
    fn all_nodes_halt_after_target_rounds() {
        let g = generators::ring(6);
        let runner = SyncRunner::new(&g, 100);
        let outcome = runner
            .run(|_deg| CountDown {
                target: 3,
                degree: 0,
                seen: 0,
            })
            .unwrap();
        assert!(outcome.all_halted());
        assert_eq!(outcome.election_time(), Some(3));
        for r in &outcome.halt_round {
            assert_eq!(*r, Some(2));
        }
    }

    #[test]
    fn message_count_matches_rounds_times_edges() {
        let g = generators::clique(5);
        let runner = SyncRunner::new(&g, 100);
        let outcome = runner
            .run(|_deg| CountDown {
                target: 2,
                degree: 0,
                seen: 0,
            })
            .unwrap();
        // Every round sends 2 messages per edge; all nodes halt after 2 rounds.
        assert_eq!(outcome.stats.rounds, 2);
        assert_eq!(outcome.stats.messages, 2 * 2 * g.num_edges());
    }

    #[test]
    fn max_rounds_caps_non_terminating_algorithms() {
        struct Never2 {
            degree: usize,
        }
        impl NodeAlgorithm for Never2 {
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
        let g = generators::path(2);
        let runner = SyncRunner::new(&g, 7);
        let outcome = runner.run(|_| Never2 { degree: 0 }).unwrap();
        assert!(!outcome.all_halted());
        assert_eq!(outcome.stats.rounds, 7);
        assert_eq!(outcome.election_time(), None);
        let reference = reference_run(&g, 7, |_| Never2 { degree: 0 }).unwrap();
        assert_same_transcript(&outcome, &reference);
    }

    #[test]
    fn bad_send_arity_is_a_typed_error_not_a_panic() {
        struct Short;
        impl NodeAlgorithm for Short {
            type Message = ();
            fn init(&mut self, _d: usize) {}
            fn send(&mut self, _r: usize) -> Vec<Option<()>> {
                Vec::new() // always wrong on a graph with edges
            }
            fn receive(&mut self, _r: usize, _m: Vec<Option<()>>) -> Option<PortPath> {
                None
            }
        }
        let g = generators::ring(4);
        let want = crate::SimError::BadSendArity {
            node: 0,
            got: 0,
            want: 2,
        };
        assert_eq!(SyncRunner::new(&g, 5).run(|_| Short).unwrap_err(), want);
        for threads in [1, 2, 4] {
            let err = AdvRunner::with_threads(&g, 5, threads)
                .run(&FaultPlan::none(), |_, _| Short)
                .unwrap_err();
            assert_eq!(err, want, "{threads} threads");
        }
    }

    #[test]
    fn node_algorithms_need_not_be_send() {
        // A node holding an `Rc` (here: the deposit vector its output goes
        // to) runs on the clean model, which never moves nodes across
        // threads.
        struct Deposit {
            degree: usize,
            slot: usize,
            out: Rc<RefCell<Vec<usize>>>,
        }
        impl NodeAlgorithm for Deposit {
            type Message = ();
            fn init(&mut self, d: usize) {
                self.degree = d;
            }
            fn send(&mut self, _r: usize) -> Vec<Option<()>> {
                vec![Some(()); self.degree]
            }
            fn receive(&mut self, round: usize, _m: Vec<Option<()>>) -> Option<PortPath> {
                self.out.borrow_mut()[self.slot] = round;
                Some(PortPath::empty())
            }
        }
        let g = generators::lollipop(4, 3);
        let out = Rc::new(RefCell::new(vec![usize::MAX; g.num_nodes()]));
        let outcome = SyncRunner::new(&g, 3)
            .run_indexed(|slot, _deg| Deposit {
                degree: 0,
                slot,
                out: Rc::clone(&out),
            })
            .unwrap();
        assert_eq!(outcome.election_time(), Some(1));
        assert_eq!(*out.borrow(), vec![0; g.num_nodes()]);
    }

    #[test]
    fn halted_nodes_stop_sending() {
        // Node with degree 1 halts immediately (target 0); its neighbor with
        // larger target keeps waiting but receives nothing more, so the run
        // hits the cap — verifying that halted nodes are descheduled.
        struct HaltIfLeaf {
            degree: usize,
        }
        impl NodeAlgorithm for HaltIfLeaf {
            type Message = u8;
            fn init(&mut self, d: usize) {
                self.degree = d;
            }
            fn send(&mut self, _r: usize) -> Vec<Option<u8>> {
                vec![Some(1); self.degree]
            }
            fn receive(&mut self, round: usize, incoming: Vec<Option<u8>>) -> Option<PortPath> {
                if self.degree == 1 {
                    Some(PortPath::empty())
                } else if round >= 3 && incoming.iter().all(Option::is_none) {
                    // Center halts only once leaves have gone silent.
                    Some(PortPath::empty())
                } else {
                    None
                }
            }
        }
        let g = generators::star(3);
        let runner = SyncRunner::new(&g, 50);
        let outcome = runner.run(|_| HaltIfLeaf { degree: 0 }).unwrap();
        assert!(outcome.all_halted());
        // Leaves halt in round 0, the center later.
        assert_eq!(outcome.halt_round[1], Some(0));
        assert!(outcome.halt_round[0].unwrap() > 0);
        let reference = reference_run(&g, 50, |_| HaltIfLeaf { degree: 0 }).unwrap();
        assert_same_transcript(&outcome, &reference);
    }
}
