//! # mule-graph
//!
//! Euclidean tours over target sets: the Hamiltonian-circuit substrate that
//! every TCTP planner (and the CHB baseline of reference \[5\]) starts from.
//!
//! The crate is organised as construction → improvement → inspection:
//!
//! * [`DistanceMatrix`] — dense pairwise Euclidean distances, computed once
//!   per scenario and shared by all heuristics.
//! * [`Tour`] — an ordered Hamiltonian cycle over point indices with length,
//!   validity, rotation and edge bookkeeping.
//! * Construction heuristics: [`nearest_neighbor()`], [`cheapest_insertion`],
//!   [`convex_hull_insertion`] (the "CHB" construction), [`mst`] (Prim) with
//!   a pre-order-walk tour for a 2-approximation cross-check.
//! * Improvement: [`two_opt()`] and [`or_opt()`] local search (exact,
//!   all-pairs), plus their scalable candidate-list twins in
//!   [`candidates`] — k-nearest-neighbour lists with don't-look bits.
//! * [`partition`] — angular and k-means target grouping (used by the Sweep
//!   baseline and the grouping ablation).
//! * [`chb`] — the packaged pipeline (convex-hull insertion + 2-opt + Or-opt)
//!   used by the planners: [`construct_circuit`]`(points, metric, config)`.
//!   Its [`SearchMode`] knob picks exact vs. candidate-list search; the
//!   default `Auto` keeps paper-size instances byte-identical and switches
//!   to candidate lists above [`chb::AUTO_EXACT_THRESHOLD`] points.
//!   Euclidean candidate search stays matrix-free; everything else runs
//!   over a [`DistanceMatrix`] through [`construct_circuit_on`], which road
//!   plans also call directly with precomputed shortest-path distances.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod candidates;
pub mod chb;
pub mod distance_matrix;
pub mod insertion;
pub mod mst;
pub mod nearest_neighbor;
pub mod or_opt;
pub mod partition;
pub mod tour;
pub mod two_opt;

pub use candidates::{or_opt_candidates, two_opt_candidates, CandidateLists};
pub use chb::{construct_circuit, construct_circuit_on, ChbConfig, SearchMode};
pub use distance_matrix::DistanceMatrix;
pub use insertion::{cheapest_insertion, convex_hull_insertion, convex_hull_insertion_incremental};
pub use mst::{minimum_spanning_tree, mst_preorder_tour};
pub use nearest_neighbor::nearest_neighbor;
pub use or_opt::or_opt;
pub use partition::{angular_partition, kmeans_partition};
pub use tour::Tour;
pub use two_opt::two_opt;

use mule_geom::Point;

#[cfg(test)]
pub(crate) mod test_support {
    use mule_geom::Point;

    /// Deterministic pseudo-random point sets shared by the unit tests of
    /// the construction and search modules (one LCG hash, one 800 m field,
    /// one copy — keep fixtures from silently diverging).
    pub(crate) fn pseudo_random_points(n: usize, salt: u64) -> Vec<Point> {
        (0..n as u64)
            .map(|i| {
                let h = i.wrapping_mul(6364136223846793005).wrapping_add(salt);
                Point::new((h % 800) as f64, ((h >> 17) % 800) as f64)
            })
            .collect()
    }
}

/// Which construction heuristic to use for the initial Hamiltonian circuit.
///
/// The paper's planners all use the convex-hull-based construction of
/// reference \[5\]; the other options exist for the `tours` ablation bench and
/// as sanity cross-checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TourConstruction {
    /// Convex-hull insertion (CHB) — the paper's choice.
    #[default]
    ConvexHullInsertion,
    /// Greedy nearest-neighbour chain.
    NearestNeighbor,
    /// Cheapest-insertion starting from the two farthest-apart points.
    CheapestInsertion,
    /// Pre-order walk of a minimum spanning tree (2-approximation).
    MstPreorder,
}

impl TourConstruction {
    /// Builds a tour over `points` with this heuristic. Returns a trivial
    /// tour for fewer than two points.
    pub fn build(&self, points: &[Point]) -> Tour {
        let dm = DistanceMatrix::from_points(points);
        self.build_with_matrix(points, &dm)
    }

    /// Like [`TourConstruction::build`] but reuses a precomputed distance
    /// matrix.
    pub fn build_with_matrix(&self, points: &[Point], dm: &DistanceMatrix) -> Tour {
        match self {
            TourConstruction::ConvexHullInsertion => convex_hull_insertion(points, dm),
            TourConstruction::NearestNeighbor => nearest_neighbor(points, dm, 0),
            TourConstruction::CheapestInsertion => cheapest_insertion(points, dm),
            TourConstruction::MstPreorder => mst_preorder_tour(points, dm),
        }
    }

    /// All variants, for sweeps in the ablation benches.
    pub const ALL: [TourConstruction; 4] = [
        TourConstruction::ConvexHullInsertion,
        TourConstruction::NearestNeighbor,
        TourConstruction::CheapestInsertion,
        TourConstruction::MstPreorder,
    ];

    /// Short human-readable label used in bench output tables.
    pub fn label(&self) -> &'static str {
        match self {
            TourConstruction::ConvexHullInsertion => "convex-hull",
            TourConstruction::NearestNeighbor => "nearest-neighbor",
            TourConstruction::CheapestInsertion => "cheapest-insertion",
            TourConstruction::MstPreorder => "mst-preorder",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring(n: usize, radius: f64) -> Vec<Point> {
        (0..n)
            .map(|i| {
                let t = std::f64::consts::TAU * i as f64 / n as f64;
                Point::new(400.0 + radius * t.cos(), 400.0 + radius * t.sin())
            })
            .collect()
    }

    #[test]
    fn every_construction_yields_a_valid_tour() {
        let pts = ring(12, 300.0);
        for c in TourConstruction::ALL {
            let tour = c.build(&pts);
            assert!(tour.is_valid(), "{} produced an invalid tour", c.label());
            assert_eq!(tour.len(), pts.len());
            assert!(tour.length(&pts) > 0.0);
        }
    }

    #[test]
    fn constructions_on_a_ring_are_near_optimal() {
        // On a circle the optimal tour is the ring itself; good heuristics
        // should be within a small factor.
        let pts = ring(16, 250.0);
        let optimal = mule_geom::Polyline::closed(pts.clone()).length();
        for c in TourConstruction::ALL {
            let len = c.build(&pts).length(&pts);
            assert!(
                len <= optimal * 2.0 + 1e-6,
                "{} gave {len}, optimal {optimal}",
                c.label()
            );
        }
        // The hull-based construction is exactly optimal on a convex ring.
        let chb = TourConstruction::ConvexHullInsertion
            .build(&pts)
            .length(&pts);
        assert!((chb - optimal).abs() < 1e-6);
    }

    #[test]
    fn default_construction_is_convex_hull_insertion() {
        assert_eq!(
            TourConstruction::default(),
            TourConstruction::ConvexHullInsertion
        );
    }

    #[test]
    fn labels_are_distinct() {
        let labels: std::collections::HashSet<&str> =
            TourConstruction::ALL.iter().map(|c| c.label()).collect();
        assert_eq!(labels.len(), TourConstruction::ALL.len());
    }
}
