//! The [`Planner`] trait every patrolling algorithm implements.

use crate::baselines::{ChbPlanner, RandomPlanner, SweepPlanner};
use crate::plan::{PatrolPlan, PlanError};
use crate::{BTctp, BreakEdgePolicy, RwTctp, WTctp};
use mule_graph::ChbConfig;
use mule_workload::Scenario;

/// A patrolling planner: consumes a scenario, produces a plan.
///
/// Planners are deterministic functions of the scenario (including its
/// seed); running the same planner twice on the same scenario yields the
/// same plan. This mirrors the paper's distributed setting where every mule
/// runs the same construction rules on the same shared knowledge and must
/// arrive at the same path.
pub trait Planner {
    /// Short human-readable name used in reports ("B-TCTP", "CHB", …).
    fn name(&self) -> &'static str;

    /// Produces the patrol plan for `scenario`.
    fn plan(&self, scenario: &Scenario) -> Result<PatrolPlan, PlanError>;
}

impl<P: Planner + ?Sized> Planner for Box<P> {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn plan(&self, scenario: &Scenario) -> Result<PatrolPlan, PlanError> {
        (**self).plan(scenario)
    }
}

impl<P: Planner + ?Sized> Planner for &P {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn plan(&self, scenario: &Scenario) -> Result<PatrolPlan, PlanError> {
        (**self).plan(scenario)
    }
}

/// The planners a command line or a request can name: the one registry of
/// planner names, aliases and display labels, shared by `patrolctl` and the
/// `mule-serve` API.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlannerKind {
    /// B-TCTP.
    BTctp,
    /// W-TCTP with the Shortest-Length break-edge policy.
    WTctpShortest,
    /// W-TCTP with the Balancing-Length break-edge policy.
    WTctpBalancing,
    /// RW-TCTP (needs a recharge station).
    RwTctp,
    /// The CHB baseline.
    Chb,
    /// The Sweep baseline.
    Sweep,
    /// The Random baseline.
    Random,
}

impl PlannerKind {
    /// Every planner: the baselines first, then the paper's planners (the
    /// row order of `patrolctl compare`).
    pub const ALL: [PlannerKind; 7] = [
        PlannerKind::Random,
        PlannerKind::Sweep,
        PlannerKind::Chb,
        PlannerKind::BTctp,
        PlannerKind::WTctpShortest,
        PlannerKind::WTctpBalancing,
        PlannerKind::RwTctp,
    ];

    /// Parses a canonical name or one of its aliases (case-insensitive).
    pub fn parse(name: &str) -> Option<Self> {
        Some(match name.to_ascii_lowercase().as_str() {
            "b-tctp" | "btctp" | "tctp" => PlannerKind::BTctp,
            "w-tctp" | "wtctp" | "w-tctp-shortest" | "shortest" => PlannerKind::WTctpShortest,
            "w-tctp-balancing" | "balancing" => PlannerKind::WTctpBalancing,
            "rw-tctp" | "rwtctp" => PlannerKind::RwTctp,
            "chb" => PlannerKind::Chb,
            "sweep" => PlannerKind::Sweep,
            "random" => PlannerKind::Random,
            _ => return None,
        })
    }

    /// The canonical wire name a `ScenarioSpec` carries.
    pub fn canonical_name(self) -> &'static str {
        match self {
            PlannerKind::BTctp => "b-tctp",
            PlannerKind::WTctpShortest => "w-tctp-shortest",
            PlannerKind::WTctpBalancing => "w-tctp-balancing",
            PlannerKind::RwTctp => "rw-tctp",
            PlannerKind::Chb => "chb",
            PlannerKind::Sweep => "sweep",
            PlannerKind::Random => "random",
        }
    }

    /// Display name used in report tables (tells the two W-TCTP policies
    /// apart, unlike [`Planner::name`]).
    pub fn label(self) -> &'static str {
        match self {
            PlannerKind::BTctp => "B-TCTP",
            PlannerKind::WTctpShortest => "W-TCTP (shortest)",
            PlannerKind::WTctpBalancing => "W-TCTP (balancing)",
            PlannerKind::RwTctp => "RW-TCTP",
            PlannerKind::Chb => "CHB",
            PlannerKind::Sweep => "Sweep",
            PlannerKind::Random => "Random",
        }
    }

    /// Instantiates the planner with the given circuit construction (pass
    /// budgets and search mode). The Random baseline builds no circuit and
    /// ignores it.
    pub fn build(self, chb: ChbConfig) -> Box<dyn Planner> {
        match self {
            PlannerKind::BTctp => Box::new(BTctp::new().with_chb(chb)),
            PlannerKind::WTctpShortest => {
                Box::new(WTctp::new(BreakEdgePolicy::ShortestLength).with_chb(chb))
            }
            PlannerKind::WTctpBalancing => {
                Box::new(WTctp::new(BreakEdgePolicy::BalancingLength).with_chb(chb))
            }
            PlannerKind::RwTctp => Box::new(RwTctp::default().with_chb(chb)),
            PlannerKind::Chb => Box::new(ChbPlanner::new().with_chb(chb)),
            PlannerKind::Sweep => Box::new(SweepPlanner::new().with_chb(chb)),
            PlannerKind::Random => Box::new(RandomPlanner::new()),
        }
    }
}

/// Blanket helper: validates the common preconditions shared by every
/// planner (at least one patrolled node, at least one mule).
pub(crate) fn validate_common(scenario: &Scenario) -> Result<(), PlanError> {
    if scenario.patrolled_positions().is_empty() {
        return Err(PlanError::NoTargets);
    }
    if scenario.mule_count() == 0 {
        return Err(PlanError::NoMules);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mule_workload::ScenarioConfig;

    #[test]
    fn validate_common_rejects_empty_fleets() {
        let no_mules = ScenarioConfig::paper_default().with_mules(0).generate();
        assert_eq!(validate_common(&no_mules), Err(PlanError::NoMules));
        let ok = ScenarioConfig::paper_default().generate();
        assert_eq!(validate_common(&ok), Ok(()));
    }

    #[test]
    fn planner_names_round_trip_and_aliases_resolve() {
        for kind in PlannerKind::ALL {
            assert_eq!(PlannerKind::parse(kind.canonical_name()), Some(kind));
            assert_eq!(
                kind.build(ChbConfig::default()).name(),
                kind.label().split(' ').next().unwrap()
            );
        }
        assert_eq!(PlannerKind::parse("B-TCTP"), Some(PlannerKind::BTctp));
        assert_eq!(
            PlannerKind::parse("shortest"),
            Some(PlannerKind::WTctpShortest)
        );
        assert_eq!(PlannerKind::parse("nonsense"), None);
    }
}
