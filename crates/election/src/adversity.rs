//! Election under adversity: replaying cached advice through the
//! fault-injecting engine.
//!
//! The paper's model is synchronous and fault-free; this module asks what
//! survives when it is not. [`Instance::elect_under`] re-runs the
//! minimum-time `Elect` algorithm (same graph, same cached advice — the
//! advice is stable storage, replayed by the node factory on every crash
//! recovery) through the round engine ([`anet_sim::AdvRunner`]) under a
//! [`FaultPlan`], with the `COM` exchange carried by a chosen
//! [`ExecutionModel`]:
//!
//! * [`ExecutionModel::Raw`] — the bare exchange. Correct only under
//!   observationally invisible adversaries (phase skew); anything lossy
//!   starves it and the run refuses with
//!   [`ElectionError::NodeDidNotHalt`].
//! * [`ExecutionModel::ReliableLinks`] — every node wrapped in a
//!   [`ReliableLink`] retransmit/ack adapter, restoring the synchronous
//!   abstraction over bounded message drops and edge churn at the price of
//!   extra rounds and messages.
//! * [`ExecutionModel::Restartable`] — every node wrapped in a
//!   [`Restartable`] generation-reset adapter, surviving crash/restart
//!   nodes by deterministically restarting the computation. Crash-stop
//!   (a node that never returns) can never complete, and the run refuses.
//!
//! A successful adversarial run is verified exactly like a clean one
//! ([`crate::verify_election`]); the outputs and the elected leader are
//! functions of the acquired views, so whenever a run completes at all it
//! elects the *same* leader the clean pipeline does. The conformance
//! harness certifies each `(scheme × fault model)` pair as
//! outcome-identical, degraded-but-correct, or correctly-refused on this
//! basis.

use anet_graph::{NodeId, PortPath};
use anet_sim::{FaultPlan, ReliableLink, Restartable, RunStats};

use crate::advice_build::decode_advice;
use crate::elect::drive_com;
use crate::error::ElectionError;
use crate::instance::Instance;
use crate::verify::verify_election;

/// Which reliability layer carries the `COM` exchange under faults.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecutionModel {
    /// The bare exchange, exactly as in the fault-free pipeline.
    Raw,
    /// A [`ReliableLink`] retransmit/ack adapter per node (tolerates
    /// bounded message drops and edge churn).
    ReliableLinks,
    /// A [`Restartable`] generation-reset adapter per node (tolerates
    /// crash/restart; refuses under crash-stop).
    Restartable,
}

/// The verified result of an adversarial election run.
#[derive(Debug, Clone)]
pub struct AdversityOutcome {
    /// The elected leader — always the clean pipeline's leader.
    pub leader: NodeId,
    /// Per-node outputs (paths to the leader), indexed by node id.
    pub outputs: Vec<PortPath>,
    /// Physical rounds until every node halted (≥ the clean `φ`).
    pub time: usize,
    /// Message statistics of the adversarial run (wrapper overhead
    /// included).
    pub stats: RunStats,
}

impl Instance {
    /// Runs the minimum-time election under the adversary `plan` with the
    /// `COM` exchange carried by `model`, on `threads` worker threads
    /// (1 = the sequential engine with phase-skew support). The cached
    /// advice is computed once on the clean path and replayed through the
    /// node factory on every crash recovery — the paper's stable-storage
    /// reading.
    ///
    /// Completing at all implies electing the clean leader (the outcome is
    /// verified); an adversary the model cannot absorb surfaces as
    /// [`ElectionError::NodeDidNotHalt`] — a refusal, never a wrong
    /// answer.
    pub fn elect_under(
        &self,
        plan: &FaultPlan,
        model: ExecutionModel,
        threads: usize,
    ) -> Result<AdversityOutcome, ElectionError> {
        let decoded = decode_advice(&self.advice()?.bits)?;
        let phi = decoded.phi;
        let g = self.graph();
        let diameter = self.diameter();
        let arena = self.arena();

        // Wrapper budgets, derived from the graph: the stall threshold must
        // exceed the diameter (a travelling reset wave is not a wedge) and
        // the linger must outlast a stall detection plus a wave crossing;
        // the link linger must cover a full forced-delivery window in each
        // direction. The round cap is generous enough for a crash, a full
        // reset wave and the re-run — and small enough that refusal on an
        // unabsorbable adversary stays cheap.
        let stall = diameter + 2;
        let restart_linger = stall + diameter + 2;
        let window = plan
            .drops
            .map(|d| d.window)
            .or(plan.churn.map(|c| c.window))
            .unwrap_or(1);
        let link_linger = 2 * window + 2;
        let max_rounds = 64 + 8 * (phi + diameter + stall + restart_linger + window);

        let sim = match model {
            ExecutionModel::Raw => {
                drive_com(g, &decoded, &arena, plan, threads, max_rounds, |com| {
                    com.node()
                })
            }
            ExecutionModel::ReliableLinks => {
                drive_com(g, &decoded, &arena, plan, threads, max_rounds, |com| {
                    ReliableLink::new(com.node(), link_linger)
                })
            }
            ExecutionModel::Restartable => {
                drive_com(g, &decoded, &arena, plan, threads, max_rounds, |com| {
                    Restartable::new(move || com.node(), stall, restart_linger)
                })
            }
        }?;
        let leader = verify_election(g, &sim.outputs)?;
        Ok(AdversityOutcome {
            leader,
            outputs: sim.outputs,
            time: sim.time,
            stats: sim.stats,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anet_graph::generators;
    use anet_sim::{CrashEvent, CrashSemantics};

    #[test]
    fn fault_free_models_all_elect_the_clean_leader_in_phi_rounds() {
        let g = generators::lollipop(5, 4);
        let inst = Instance::new(&g);
        let clean = crate::elect_all(&g).unwrap();
        let raw = inst
            .elect_under(&FaultPlan::none(), ExecutionModel::Raw, 1)
            .unwrap();
        assert_eq!(raw.leader, clean.leader);
        assert_eq!(raw.outputs, clean.outputs);
        assert_eq!(raw.time, clean.time);
        assert_eq!(raw.stats, clean.stats);
        for model in [ExecutionModel::ReliableLinks, ExecutionModel::Restartable] {
            let out = inst.elect_under(&FaultPlan::none(), model, 1).unwrap();
            assert_eq!(out.leader, clean.leader, "{model:?}");
            assert_eq!(out.outputs, clean.outputs, "{model:?}");
        }
    }

    #[test]
    fn phase_skew_is_invisible_to_the_raw_model() {
        let g = generators::caterpillar(5);
        let inst = Instance::new(&g);
        let clean = inst
            .elect_under(&FaultPlan::none(), ExecutionModel::Raw, 1)
            .unwrap();
        let skew = inst
            .elect_under(&FaultPlan::phase_skew(11), ExecutionModel::Raw, 1)
            .unwrap();
        assert_eq!(clean.outputs, skew.outputs);
        assert_eq!(clean.time, skew.time);
        assert_eq!(clean.stats, skew.stats);
    }

    #[test]
    fn reliable_links_absorb_drops_the_raw_model_refuses() {
        let g = generators::lollipop(4, 3);
        let inst = Instance::new(&g);
        let plan = FaultPlan::message_drops(3, 140, 4);
        let raw = inst.elect_under(&plan, ExecutionModel::Raw, 1);
        assert!(matches!(raw, Err(ElectionError::NodeDidNotHalt { .. })));
        let clean = inst
            .elect_under(&FaultPlan::none(), ExecutionModel::Raw, 1)
            .unwrap();
        let linked = inst
            .elect_under(&plan, ExecutionModel::ReliableLinks, 1)
            .unwrap();
        assert_eq!(linked.leader, clean.leader);
        assert_eq!(linked.outputs, clean.outputs);
        assert!(linked.time >= clean.time);
    }

    #[test]
    fn restartable_survives_a_crash_and_refuses_crash_stop() {
        let g = generators::lollipop(4, 3);
        let inst = Instance::new(&g);
        let clean = inst
            .elect_under(&FaultPlan::none(), ExecutionModel::Raw, 1)
            .unwrap();
        let recover = FaultPlan::crashing(
            0,
            CrashSemantics::RestartFromInit,
            vec![CrashEvent {
                node: 1,
                at: 1,
                recover_at: Some(3),
            }],
        );
        let out = inst
            .elect_under(&recover, ExecutionModel::Restartable, 1)
            .unwrap();
        assert_eq!(out.leader, clean.leader);
        assert_eq!(out.outputs, clean.outputs);
        let stop = FaultPlan::crashing(
            0,
            CrashSemantics::Stop,
            vec![CrashEvent {
                node: 1,
                at: 1,
                recover_at: None,
            }],
        );
        let refused = inst.elect_under(&stop, ExecutionModel::Restartable, 1);
        assert!(matches!(refused, Err(ElectionError::NodeDidNotHalt { .. })));
    }

    #[test]
    fn adversarial_outcomes_are_identical_across_thread_counts() {
        let g = generators::random_connected(18, 0.15, 1);
        let inst = Instance::new(&g);
        let plan = FaultPlan::edge_churn(5, 120, 4);
        let a = inst
            .elect_under(&plan, ExecutionModel::ReliableLinks, 1)
            .unwrap();
        for threads in [2, 4] {
            let b = inst
                .elect_under(&plan, ExecutionModel::ReliableLinks, threads)
                .unwrap();
            assert_eq!(a.leader, b.leader);
            assert_eq!(a.outputs, b.outputs);
            assert_eq!(a.time, b.time);
            assert_eq!(a.stats, b.stats);
        }
    }
}
