//! # patrol-core
//!
//! The paper's contribution: target-patrolling planners for wireless mobile
//! data-mule networks, plus the baselines they are evaluated against.
//!
//! | Planner | Paper section | Idea |
//! |---------|---------------|------|
//! | [`BTctp`] | §II  | One shared Hamiltonian circuit (CHB), mules spread to equal-arc start points, then patrol in lock-step. |
//! | [`WTctp`] | §III | Weighted Patrolling Path: VIP targets get extra cycles via break-edge insertion (Shortest-Length or Balancing-Length policy); traversal order fixed by the counter-clockwise patrolling rule. |
//! | [`RwTctp`] | §IV | W-TCTP plus a Weighted Recharge Path spliced through the recharge station; mules take the recharge path every `r`-th round (Eq. 4). |
//! | [`baselines::RandomPlanner`] | §V | Each mule repeatedly visits a random permutation of the targets. |
//! | [`baselines::SweepPlanner`] | §V / ref \[4\] | Targets split into per-mule groups; each mule sweeps its own group. |
//! | [`baselines::ChbPlanner`] | §V / ref \[5\] | All mules follow the shared Hamiltonian circuit with no start-point spreading. |
//!
//! All planners implement the [`Planner`] trait: they consume a
//! [`mule_workload::Scenario`] and produce a [`PatrolPlan`] — one
//! [`MuleItinerary`] per mule — which the `mule-sim` crate then executes.
//!
//! ## Disruptions and online replanning
//!
//! Static plans assume the world the planner saw never changes. Dynamic
//! scenarios (see `mule_workload::disruption`) violate that mid-run:
//! targets fail, recover or arrive late, and mules break down. The
//! [`replan`] module closes the loop: the simulator hands a [`Replanner`] a
//! [`ReplanContext`] — the surviving targets, the surviving mules and their
//! current positions — and executes the fresh [`PatrolPlan`] it returns.
//! [`ReplanWithPlanner`] is the default strategy: re-run the original
//! planner on the restricted scenario, which mirrors the paper's
//! distributed-consistency argument (every mule derives the same new path
//! from the same shared knowledge). Custom [`Replanner`] implementations
//! can splice routes locally instead of replanning globally.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod baselines;
pub mod btctp;
pub mod deployment;
pub mod hamiltonian;
pub mod plan;
pub mod planner;
pub mod replan;
pub mod rwtctp;
pub mod wtctp;

pub use btctp::BTctp;
pub use plan::{MuleItinerary, PatrolPlan, PlanError, Waypoint};
pub use planner::{Planner, PlannerKind};
pub use replan::{ReplanContext, ReplanWithPlanner, Replanner};
pub use rwtctp::RwTctp;
pub use wtctp::{BreakEdgePolicy, WTctp};
