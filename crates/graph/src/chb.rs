//! The packaged CHB Hamiltonian-circuit pipeline.
//!
//! Every TCTP planner (and the CHB baseline itself) needs "an efficient
//! Hamiltonian Circuit constructed from the convex hull" (paper §2.2,
//! reference \[5\]). This module packages the full pipeline the rest of the
//! workspace calls:
//!
//! 1. convex-hull insertion construction,
//! 2. 2-opt polishing,
//! 3. Or-opt polishing,
//!
//! with a small config to disable the polishing passes for ablation.
//! Because all data mules run the same deterministic code on the same
//! target list, they all obtain *the same* circuit — the distributed-
//! agreement property the paper relies on.

use crate::candidates::{or_opt_candidates_by, two_opt_candidates_by, CandidateLists, SearchDist};
use crate::distance_matrix::DistanceMatrix;
use crate::insertion::{convex_hull_insertion, convex_hull_insertion_incremental};
use crate::nearest_neighbor::nearest_neighbor;
use crate::or_opt::or_opt;
use crate::tour::Tour;
use crate::two_opt::two_opt;
use mule_geom::Point;
use mule_road::TravelMetric;
use serde::{Deserialize, Serialize};

/// Instance size up to which [`SearchMode::Auto`] uses the exact pipeline.
///
/// This is the determinism contract documented in `docs/DETERMINISM.md`:
/// every instance with at most this many points goes through the exact
/// all-pairs path and is **byte-identical** to historical tours; larger
/// instances switch to candidate-list search. The paper's evaluation tops
/// out at ~50 targets, so all golden scenarios sit comfortably below.
pub const AUTO_EXACT_THRESHOLD: usize = 128;

/// Default candidate-list width (`k` nearest neighbours per point) used by
/// [`SearchMode::Auto`] and anywhere a `k` is not given explicitly.
pub const DEFAULT_CANDIDATES_K: usize = 10;

/// Which neighbourhood the construction pipeline searches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum SearchMode {
    /// Exact all-pairs construction and local search (`O(n³)` worst-case
    /// construction, `O(n²)` per polish pass). Byte-stable; the only mode
    /// that existed before candidate lists.
    Exact,
    /// Candidate-list search with the given `k` (nearest neighbours per
    /// point): incremental convex-hull insertion plus neighbour-list
    /// 2-opt / Or-opt with don't-look bits. Near `O(n log n)` in practice.
    Candidates(usize),
    /// Exact at or below [`AUTO_EXACT_THRESHOLD`] points (keeping small
    /// instances byte-identical), candidate lists with
    /// [`DEFAULT_CANDIDATES_K`] above it. The default.
    #[default]
    Auto,
}

impl SearchMode {
    /// Resolves `Auto` for an instance of `n` points; the result is always
    /// `Exact` or `Candidates(k)`.
    pub fn resolve(self, n: usize) -> SearchMode {
        match self {
            SearchMode::Auto => {
                if n <= AUTO_EXACT_THRESHOLD {
                    SearchMode::Exact
                } else {
                    SearchMode::Candidates(DEFAULT_CANDIDATES_K)
                }
            }
            other => other,
        }
    }
}

/// Configuration of the CHB circuit-construction pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChbConfig {
    /// Maximum number of full 2-opt sweeps (0 disables 2-opt).
    pub two_opt_passes: usize,
    /// Maximum number of full Or-opt sweeps (0 disables Or-opt).
    pub or_opt_passes: usize,
    /// Which neighbourhood the construction and polish passes search.
    pub search: SearchMode,
}

impl Default for ChbConfig {
    fn default() -> Self {
        // Enough passes to converge at the paper's instance sizes (≤ 50
        // targets) while keeping construction instantaneous. `Auto` search
        // keeps those sizes on the exact (byte-stable) path and switches to
        // candidate lists only above `AUTO_EXACT_THRESHOLD`.
        ChbConfig {
            two_opt_passes: 30,
            or_opt_passes: 30,
            search: SearchMode::Auto,
        }
    }
}

impl ChbConfig {
    /// Builder-style override of the search mode.
    pub fn with_search(mut self, search: SearchMode) -> Self {
        self.search = search;
        self
    }
}

/// Builds the CHB Hamiltonian circuit over `points` under `metric` — the
/// one call planners, the CLI, benches and tests use.
///
/// * Euclidean input whose search resolves to candidate lists stays
///   **matrix-free**: incremental convex-hull insertion, kd-tree candidate
///   lists, and distances recomputed from the coordinates (root span
///   `chb.candidates`). The `O(n²)` matrix is the first thing that stops
///   fitting at thousands of targets.
/// * Everything else materialises [`DistanceMatrix::from_metric`] and
///   delegates to [`construct_circuit_on`]. Euclidean exact search is the
///   historical code path, byte-identical tours included; road metrics
///   cost one Dijkstra per distinct snapped road node.
pub fn construct_circuit(points: &[Point], metric: &TravelMetric, config: &ChbConfig) -> Tour {
    match config.search.resolve(points.len()) {
        SearchMode::Candidates(k) if metric.is_euclidean() => pipeline(
            points,
            "chb.candidates",
            Some(k),
            Seed::HullIncremental,
            || CandidateSearch::new(points, k),
            config,
        ),
        _ => construct_circuit_on(points, &DistanceMatrix::from_metric(points, metric), config),
    }
}

/// Builds the CHB Hamiltonian circuit over a precomputed distance matrix of
/// `points` (road plans, and the dense flavour of `patrolctl bench-scale`).
///
/// * Exact search (root span `chb.exact`): convex-hull insertion, then
///   all-pairs 2-opt / Or-opt. The hull itself comes from the point
///   geometry (hulls are geometric objects), but every cost the insertion
///   compares is read from `dm`.
/// * Candidate search (root span `chb.matrix_candidates`): a
///   nearest-neighbour seed, then candidate lists ranked by `dm`, so
///   "nearest" means nearest by travel distance.
pub fn construct_circuit_on(points: &[Point], dm: &DistanceMatrix, config: &ChbConfig) -> Tour {
    match config.search.resolve(points.len()) {
        SearchMode::Candidates(k) => pipeline(
            points,
            "chb.matrix_candidates",
            Some(k),
            Seed::NearestNeighbor(dm),
            || CandidateSearch::new(dm, k),
            config,
        ),
        _ => pipeline(
            points,
            "chb.exact",
            None,
            Seed::HullInsertion(dm),
            || dm,
            config,
        ),
    }
}

/// The one construction pipeline over `points`. The caller picks the branch
/// once, through the two variation points: the `seed` tour and the
/// `neighbourhood` the polish passes search (built only when some pass is
/// enabled). Every branch then runs the same 2-opt → Or-opt → 2-opt
/// sequence under the same phase spans, inside the root span `root`
/// carrying the counters `n` and, for candidate search, `k`.
fn pipeline<N: Neighbourhood>(
    points: &[Point],
    root: &'static str,
    k: Option<usize>,
    seed: Seed<'_>,
    neighbourhood: impl FnOnce() -> N,
    config: &ChbConfig,
) -> Tour {
    let _pipeline = mule_obs::span(root);
    mule_obs::add("n", points.len() as u64);
    if let Some(k) = k {
        mule_obs::add("k", k as u64);
    }
    let mut tour = seed.build(points);
    if config.two_opt_passes == 0 && config.or_opt_passes == 0 {
        return tour;
    }
    let search = neighbourhood();
    let two_opt = |tour: &mut Tour| {
        if config.two_opt_passes > 0 {
            polish_pass("chb.two_opt", || {
                search.two_opt(tour, config.two_opt_passes)
            });
        }
    };
    two_opt(&mut tour);
    if config.or_opt_passes > 0 {
        polish_pass("chb.or_opt", || {
            search.or_opt(&mut tour, config.or_opt_passes)
        });
        // A final 2-opt pass cleans up crossings introduced by relocations.
        two_opt(&mut tour);
    }
    tour
}

/// Runs one polish pass under its phase span and records its `moves`.
fn polish_pass(span: &'static str, pass: impl FnOnce() -> usize) {
    let _s = mule_obs::span(span);
    mule_obs::add("moves", pass() as u64);
}

/// The tour a construction starts from.
enum Seed<'a> {
    /// Convex-hull insertion comparing costs read from a matrix.
    HullInsertion(&'a DistanceMatrix),
    /// Convex-hull insertion computing Euclidean costs from the coordinates.
    HullIncremental,
    /// Nearest-neighbour chain from point 0 over a matrix.
    NearestNeighbor(&'a DistanceMatrix),
}

impl Seed<'_> {
    /// Builds the seed tour over `points` under its phase span. Both hull
    /// variants time the whole insertion, so they share one phase name.
    fn build(self, points: &[Point]) -> Tour {
        match self {
            Seed::HullInsertion(dm) => {
                let _s = mule_obs::span("chb.hull_insertion");
                convex_hull_insertion(points, dm)
            }
            Seed::HullIncremental => {
                let _s = mule_obs::span("chb.hull_insertion");
                convex_hull_insertion_incremental(points)
            }
            Seed::NearestNeighbor(dm) => {
                let _s = mule_obs::span("chb.nn_seed");
                nearest_neighbor(points, dm, 0)
            }
        }
    }
}

/// The moves the polish passes search. Implemented for all pairs over a
/// matrix and for candidate lists over any [`SearchDist`] source; the
/// pipeline is generic over it, so distance lookups stay monomorphised.
trait Neighbourhood {
    /// Up to `passes` rounds of 2-opt; returns the moves applied.
    fn two_opt(&self, tour: &mut Tour, passes: usize) -> usize;
    /// Up to `passes` rounds of Or-opt; returns the moves applied.
    fn or_opt(&self, tour: &mut Tour, passes: usize) -> usize;
}

/// All-pairs search over a matrix: the exact, byte-stable neighbourhood.
impl Neighbourhood for &DistanceMatrix {
    fn two_opt(&self, tour: &mut Tour, passes: usize) -> usize {
        two_opt(tour, self, passes)
    }

    fn or_opt(&self, tour: &mut Tour, passes: usize) -> usize {
        or_opt(tour, self, passes)
    }
}

/// Candidate-list search with don't-look bits over distance source `D`.
struct CandidateSearch<D> {
    dist: D,
    lists: CandidateLists,
}

impl<D: SearchDist> CandidateSearch<D> {
    /// Builds `k`-nearest lists ranked by `dist` itself.
    fn new(dist: D, k: usize) -> Self {
        let _s = mule_obs::span("chb.candidate_lists");
        let lists = dist.candidate_lists(k.max(1));
        CandidateSearch { dist, lists }
    }
}

impl<D: SearchDist> Neighbourhood for CandidateSearch<D> {
    fn two_opt(&self, tour: &mut Tour, passes: usize) -> usize {
        two_opt_candidates_by(tour, &self.dist, &self.lists, passes)
    }

    fn or_opt(&self, tour: &mut Tour, passes: usize) -> usize {
        or_opt_candidates_by(tour, &self.dist, &self.lists, passes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::pseudo_random_points;

    /// Euclidean construction, the planners' default.
    fn euclidean(points: &[Point], config: &ChbConfig) -> Tour {
        construct_circuit(points, &TravelMetric::Euclidean, config)
    }

    fn with_search(search: SearchMode) -> ChbConfig {
        ChbConfig::default().with_search(search)
    }

    /// Raw construction, no polishing.
    const CONSTRUCTION_ONLY: ChbConfig = ChbConfig {
        two_opt_passes: 0,
        or_opt_passes: 0,
        search: SearchMode::Auto,
    };

    #[test]
    fn circuit_is_a_valid_hamiltonian_cycle() {
        let pts = pseudo_random_points(30, 12345);
        let tour = euclidean(&pts, &ChbConfig::default());
        assert!(tour.is_valid());
        assert_eq!(tour.len(), pts.len());
    }

    #[test]
    fn polishing_never_hurts() {
        let pts = pseudo_random_points(40, 777);
        let raw = euclidean(&pts, &CONSTRUCTION_ONLY);
        let polished = euclidean(&pts, &ChbConfig::default());
        assert!(polished.length(&pts) <= raw.length(&pts) + 1e-9);
    }

    #[test]
    fn construction_is_deterministic_across_calls() {
        // The distributed-agreement property: every mule computes the same
        // circuit from the same target list.
        let pts = pseudo_random_points(25, 42);
        let a = euclidean(&pts, &ChbConfig::default());
        let b = euclidean(&pts, &ChbConfig::default());
        assert_eq!(a.order(), b.order());
    }

    #[test]
    fn circuit_length_is_within_twice_the_mst_bound() {
        let pts = pseudo_random_points(35, 9001);
        let dm = DistanceMatrix::from_points(&pts);
        let mst = crate::minimum_spanning_tree(&pts, &dm);
        let tour = euclidean(&pts, &ChbConfig::default());
        assert!(tour.length(&pts) <= 2.0 * mst.weight + 1e-9);
    }

    #[test]
    fn degenerate_target_counts_are_handled() {
        for n in 0..4 {
            let pts = pseudo_random_points(n, 5);
            let tour = euclidean(&pts, &ChbConfig::default());
            assert_eq!(tour.len(), n);
            assert!(tour.is_valid());
        }
    }

    #[test]
    fn default_config_enables_both_polishers() {
        let c = ChbConfig::default();
        assert!(c.two_opt_passes > 0 && c.or_opt_passes > 0);
        assert_eq!(c.search, SearchMode::Auto);
    }

    #[test]
    fn auto_mode_resolves_around_the_threshold() {
        assert_eq!(
            SearchMode::Auto.resolve(AUTO_EXACT_THRESHOLD),
            SearchMode::Exact
        );
        assert_eq!(
            SearchMode::Auto.resolve(AUTO_EXACT_THRESHOLD + 1),
            SearchMode::Candidates(DEFAULT_CANDIDATES_K)
        );
        assert_eq!(SearchMode::Exact.resolve(10_000), SearchMode::Exact);
        assert_eq!(
            SearchMode::Candidates(7).resolve(5),
            SearchMode::Candidates(7)
        );
    }

    #[test]
    fn auto_is_byte_identical_to_exact_below_the_threshold() {
        for n in [5usize, 25, 50, AUTO_EXACT_THRESHOLD] {
            let pts = pseudo_random_points(n, 64);
            let auto = euclidean(&pts, &ChbConfig::default());
            let exact = euclidean(&pts, &with_search(SearchMode::Exact));
            assert_eq!(auto.order(), exact.order(), "n = {n}");
        }
    }

    #[test]
    fn candidate_mode_yields_valid_near_exact_tours() {
        let pts = pseudo_random_points(150, 2024);
        let exact = euclidean(&pts, &with_search(SearchMode::Exact));
        let fast = euclidean(&pts, &with_search(SearchMode::Candidates(10)));
        assert!(fast.is_valid());
        assert_eq!(fast.len(), pts.len());
        let ratio = fast.length(&pts) / exact.length(&pts);
        assert!(ratio <= 1.02, "candidate pipeline ratio {ratio:.4}");
    }

    #[test]
    fn candidate_mode_construction_only_skips_candidate_build() {
        let pts = pseudo_random_points(40, 7);
        let tour = euclidean(
            &pts,
            &CONSTRUCTION_ONLY.with_search(SearchMode::Candidates(8)),
        );
        assert!(tour.is_valid());
        assert_eq!(tour.len(), pts.len());
    }

    #[test]
    fn metric_circuit_euclidean_is_byte_identical() {
        // Euclidean exact search through the metric entry point is the
        // matrix entry point over `from_points`, at every size.
        for n in [10usize, 60, AUTO_EXACT_THRESHOLD + 20] {
            let pts = pseudo_random_points(n, 31);
            let config = with_search(SearchMode::Exact);
            let a = euclidean(&pts, &config);
            let b = construct_circuit_on(&pts, &DistanceMatrix::from_points(&pts), &config);
            assert_eq!(a.order(), b.order(), "n = {n}");
        }
    }

    #[test]
    fn metric_circuit_road_is_valid_and_deterministic() {
        let idx = mule_road::RoadIndex::for_field(
            mule_road::RoadNetKind::Grid,
            &mule_geom::BoundingBox::square(800.0),
            9,
        );
        let metric = TravelMetric::road(idx);
        // Snap the points onto the network like road scenarios do.
        let pts: Vec<Point> = pseudo_random_points(40, 12)
            .iter()
            .map(|p| metric.road_index().unwrap().snap_position(p))
            .collect();
        let a = construct_circuit(&pts, &metric, &ChbConfig::default());
        let b = construct_circuit(&pts, &metric, &ChbConfig::default());
        assert_eq!(a.order(), b.order());
        assert!(a.is_valid());
        assert_eq!(a.len(), pts.len());
        // The road tour should beat naive identity order by road length.
        let dm = DistanceMatrix::from_metric(&pts, &metric);
        let naive: Vec<usize> = (0..pts.len()).collect();
        assert!(dm.cycle_length(a.order()) <= dm.cycle_length(&naive));
        // The candidate path also produces a valid tour on road costs.
        let large = construct_circuit(&pts, &metric, &with_search(SearchMode::Candidates(8)));
        assert!(large.is_valid());
    }

    #[test]
    fn matrix_backed_pipeline_matches_quality_at_both_regimes() {
        let matrix_backed = |pts: &[Point], config: &ChbConfig| {
            construct_circuit_on(pts, &DistanceMatrix::from_points(pts), config)
        };
        // Below the threshold the matrix entry point is the exact
        // pipeline — byte-identical to the default path.
        let small = pseudo_random_points(40, 99);
        let a = matrix_backed(&small, &ChbConfig::default());
        let b = euclidean(&small, &ChbConfig::default());
        assert_eq!(a.order(), b.order());
        // Above it, the matrix candidate pipeline must stay near the
        // matrix-free candidate pipeline in quality.
        let large = pseudo_random_points(200, 99);
        let config = with_search(SearchMode::Candidates(10));
        let matrix = matrix_backed(&large, &config);
        let free = euclidean(&large, &config);
        assert!(matrix.is_valid());
        assert_eq!(matrix.len(), large.len());
        let ratio = matrix.length(&large) / free.length(&large);
        assert!((0.9..=1.1).contains(&ratio), "quality ratio {ratio:.4}");
    }

    #[test]
    fn auto_switches_to_candidates_above_the_threshold() {
        // Above the threshold the default config must still produce a valid
        // circuit (via the candidate path — this is what planners hit on
        // large scenarios).
        let pts = pseudo_random_points(AUTO_EXACT_THRESHOLD + 50, 5);
        let tour = euclidean(&pts, &ChbConfig::default());
        assert!(tour.is_valid());
        assert_eq!(tour.len(), pts.len());
    }
}
