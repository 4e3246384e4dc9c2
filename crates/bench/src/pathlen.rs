//! Path-length comparison (the §V text claim that the proposed algorithms
//! also win on "length of patrolling path").
//!
//! Three tables in one:
//!
//! 1. Hamiltonian-circuit length per construction heuristic, over a sweep of
//!    target counts.
//! 2. WPP length overhead of each break-edge policy relative to the base
//!    circuit.
//! 3. WRP splice overhead (the extra distance of detouring through the
//!    recharge station).

use mule_geom::Polyline;
use mule_graph::TourConstruction;
use mule_metrics::TextTable;
use mule_workload::{ReplicationPlan, ScenarioConfig, WeightSpec};
use patrol_core::{BreakEdgePolicy, RwTctp, WTctp};

/// Parameters of the path-length sweep.
#[derive(Debug, Clone)]
pub struct PathLenParams {
    /// Target counts to sweep.
    pub target_counts: Vec<usize>,
    /// Replicas per point.
    pub replicas: usize,
    /// VIP configuration used for the WPP/WRP overhead tables.
    pub vips: usize,
    /// VIP weight used for the WPP/WRP overhead tables.
    pub vip_weight: u32,
    /// Base seed.
    pub seed: u64,
}

impl Default for PathLenParams {
    fn default() -> Self {
        PathLenParams {
            target_counts: vec![10, 20, 30, 40, 50],
            replicas: crate::PAPER_REPLICAS,
            vips: 3,
            vip_weight: 3,
            seed: 11,
        }
    }
}

/// Average Hamiltonian-circuit length per construction heuristic.
pub fn tour_length_table(params: &PathLenParams) -> TextTable {
    let mut header = vec!["targets".to_string()];
    header.extend(TourConstruction::ALL.iter().map(|c| c.label().to_string()));
    let mut table = TextTable::new(header);

    let rows = crate::par_grid(&params.target_counts, |&targets| {
        let plan = ReplicationPlan {
            base: ScenarioConfig::paper_default()
                .with_targets(targets)
                .with_seed(params.seed),
            replicas: params.replicas,
        };
        let mut row = vec![targets.to_string()];
        for construction in TourConstruction::ALL {
            let avg = plan
                .average(|scenario| {
                    let pts = scenario.patrolled_positions();
                    construction.build(&pts).length(&pts)
                })
                .unwrap_or(0.0);
            row.push(format!("{avg:.0}"));
        }
        row
    });
    for row in rows {
        table.add_row(row);
    }
    table
}

/// Average WPP length per break-edge policy (and the base circuit) for a
/// weighted scenario.
pub fn wpp_overhead_table(params: &PathLenParams) -> TextTable {
    let mut table = TextTable::new(vec![
        "targets",
        "base circuit (m)",
        "WPP shortest (m)",
        "WPP balancing (m)",
    ]);
    let rows = crate::par_grid(&params.target_counts, |&targets| {
        let plan = ReplicationPlan {
            base: ScenarioConfig::paper_default()
                .with_targets(targets)
                .with_weights(WeightSpec::UniformVips {
                    count: params.vips,
                    weight: params.vip_weight,
                })
                .with_seed(params.seed),
            replicas: params.replicas,
        };
        let base_len = plan
            .average(|s| {
                let pts = s.patrolled_positions();
                mule_graph::construct_circuit(
                    &pts,
                    &mule_road::TravelMetric::Euclidean,
                    &mule_graph::ChbConfig::default(),
                )
                .length(&pts)
            })
            .unwrap_or(0.0);
        let wpp_len = |policy: BreakEdgePolicy| {
            plan.average(|s| {
                let wpp = WTctp::new(policy)
                    .build_wpp_waypoints(s)
                    .expect("plannable scenario");
                Polyline::closed(wpp.iter().map(|w| w.position).collect()).length()
            })
            .unwrap_or(0.0)
        };
        vec![
            targets.to_string(),
            format!("{base_len:.0}"),
            format!("{:.0}", wpp_len(BreakEdgePolicy::ShortestLength)),
            format!("{:.0}", wpp_len(BreakEdgePolicy::BalancingLength)),
        ]
    });
    for row in rows {
        table.add_row(row);
    }
    table
}

/// Average WRP splice overhead (extra metres of the recharge detour).
pub fn wrp_overhead_table(params: &PathLenParams) -> TextTable {
    let mut table = TextTable::new(vec!["targets", "WPP (m)", "WRP (m)", "detour (m)"]);
    let rows = crate::par_grid(&params.target_counts, |&targets| {
        let plan = ReplicationPlan {
            base: ScenarioConfig::paper_default()
                .with_targets(targets)
                .with_weights(WeightSpec::UniformVips {
                    count: params.vips,
                    weight: params.vip_weight,
                })
                .with_recharge_station(true)
                .with_seed(params.seed),
            replicas: params.replicas,
        };
        let mut wpp_total = 0.0;
        let mut wrp_total = 0.0;
        let mut count = 0usize;
        for cfg in plan.configurations() {
            let scenario = cfg.generate();
            if let Ok(schedule) = RwTctp::default().build_schedule(&scenario) {
                wpp_total += schedule.wpp_length();
                wrp_total += schedule.wrp_length();
                count += 1;
            }
        }
        if count == 0 {
            return None;
        }
        let wpp = wpp_total / count as f64;
        let wrp = wrp_total / count as f64;
        Some(vec![
            targets.to_string(),
            format!("{wpp:.0}"),
            format!("{wrp:.0}"),
            format!("{:.0}", wrp - wpp),
        ])
    });
    for row in rows.into_iter().flatten() {
        table.add_row(row);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_params() -> PathLenParams {
        PathLenParams {
            target_counts: vec![8, 16],
            replicas: 3,
            vips: 2,
            vip_weight: 3,
            seed: 4,
        }
    }

    #[test]
    fn tour_length_table_has_one_row_per_target_count() {
        let t = tour_length_table(&small_params());
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn wpp_overhead_is_nonnegative_and_shortest_is_tightest() {
        let p = small_params();
        let t = wpp_overhead_table(&p);
        let csv = t.to_csv();
        for line in csv.lines().skip(1) {
            let cells: Vec<f64> = line
                .split(',')
                .skip(1)
                .map(|c| c.parse::<f64>().unwrap())
                .collect();
            let (base, shortest, balancing) = (cells[0], cells[1], cells[2]);
            assert!(
                shortest >= base - 1.0,
                "WPP at least as long as the circuit"
            );
            assert!(shortest <= balancing + 1.0, "shortest policy is tightest");
        }
    }

    #[test]
    fn wrp_detour_is_nonnegative() {
        let t = wrp_overhead_table(&small_params());
        assert_eq!(t.len(), 2);
        for line in t.to_csv().lines().skip(1) {
            let detour: f64 = line.split(',').nth(3).unwrap().parse().unwrap();
            assert!(detour >= -1.0);
        }
    }
}
