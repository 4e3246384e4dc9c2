//! Candidate-list local search (k-nearest-neighbour 2-opt / Or-opt).
//!
//! The exact [`two_opt`](crate::two_opt()) / [`or_opt`](crate::or_opt())
//! sweeps examine all `O(n²)` point pairs per pass, which is fine at the
//! paper's ≤ 50 targets but hopeless at thousands. This module implements
//! the classic scaling remedy (Bentley's TSP engineering): almost every
//! improving move replaces a tour edge with an edge to one of a point's few
//! geometrically nearest neighbours, so it suffices to examine **candidate
//! edges** only:
//!
//! * [`CandidateLists`] — per-point k-nearest-neighbour lists built from the
//!   [`mule_geom::KdTree`] in `O(n·k·log n)`, sorted by distance;
//! * [`two_opt_candidates`] — 2-opt restricted to candidate edges, with
//!   *don't-look bits* (a point whose neighbourhood yields no improving move
//!   is skipped until one of its tour edges changes) and shorter-arc
//!   reversals via [`Tour::reverse_arc`];
//! * [`or_opt_candidates`] — chain relocation (lengths 1–3) whose
//!   reinsertion edges come from the chain endpoints' candidate lists.
//!
//! Both searches work directly off the point coordinates (distances are
//! recomputed on demand), so no `O(n²)` [`DistanceMatrix`] allocation is
//! needed — at n = 5000 the dense matrix alone would cost 200 MB.
//!
//! Like their exact counterparts, both searches only ever *shorten* the
//! tour (acceptance threshold `1e-10`) and terminate when no candidate move
//! improves or the round budget is exhausted. They are deterministic: points
//! are scanned in index order and moves applied eagerly.
//!
//! [`DistanceMatrix`]: crate::DistanceMatrix

use crate::distance_matrix::DistanceMatrix;
use crate::tour::Tour;
use mule_geom::{KdTree, KnnHeap, Point};

/// Acceptance threshold shared with the exact local searches: a move must
/// shorten the tour by more than this to be applied, which guards against
/// floating-point churn on already-optimal tours.
const GAIN_EPS: f64 = 1e-10;

/// Where the candidate searches read pairwise distances from.
///
/// The classic path recomputes Euclidean distances from the coordinates on
/// demand (no `O(n²)` state); the matrix path serves non-Euclidean metrics
/// (road networks) whose distances were precomputed once. Both searches are
/// generic over this trait and monomorphise, so the historical
/// point-backed code path compiles to exactly the same inner loop as
/// before.
pub(crate) trait SearchDist {
    /// Distance between points `i` and `j`.
    fn d(&self, i: usize, j: usize) -> f64;

    /// `k`-nearest candidate lists ranked by this source's own distances.
    fn candidate_lists(&self, k: usize) -> CandidateLists;
}

impl SearchDist for &[Point] {
    #[inline]
    fn d(&self, i: usize, j: usize) -> f64 {
        dist(self, i, j)
    }

    fn candidate_lists(&self, k: usize) -> CandidateLists {
        CandidateLists::build(self, k)
    }
}

impl SearchDist for &DistanceMatrix {
    #[inline]
    fn d(&self, i: usize, j: usize) -> f64 {
        self.get(i, j)
    }

    fn candidate_lists(&self, k: usize) -> CandidateLists {
        CandidateLists::from_matrix(self, k)
    }
}

/// Per-point k-nearest-neighbour candidate lists, sorted by distance.
#[derive(Debug, Clone)]
pub struct CandidateLists {
    /// The `n` lists back to back, `k` entries each: point `i`'s k nearest
    /// neighbours (excluding `i` itself), nearest first, at
    /// `flat[i * k..(i + 1) * k]`.
    flat: Vec<u32>,
    k: usize,
    n: usize,
}

impl CandidateLists {
    /// Builds k-nearest-neighbour lists over `points` using a kd-tree.
    /// `k` is clamped to `points.len() - 1`.
    pub fn build(points: &[Point], k: usize) -> Self {
        let n = points.len();
        let k = k.min(n.saturating_sub(1));
        let mut flat = Vec::with_capacity(n * k);
        if k > 0 {
            let tree = KdTree::build(points);
            let mut heap = KnnHeap::default();
            let mut hits = Vec::with_capacity(k + 1);
            for (i, p) in points.iter().enumerate() {
                // Query k+1 and drop the point itself (duplicates of `p` at
                // other indices are legitimate candidates).
                tree.k_nearest_into(p, k + 1, &mut heap, &mut hits);
                flat.extend(
                    hits.iter()
                        .filter(|&&(j, _)| j != i)
                        .take(k)
                        .map(|&(j, _)| j as u32),
                );
            }
        }
        CandidateLists { flat, k, n }
    }

    /// Builds k-nearest-neighbour lists from a precomputed distance
    /// matrix — the entry point for non-Euclidean metrics, where "nearest"
    /// must mean nearest *by travel distance* (a road detour can make a
    /// geometric neighbour a poor reconnection candidate). Ties break by
    /// index so the lists are deterministic. `k` is clamped to
    /// `matrix.len() - 1`.
    pub fn from_matrix(matrix: &DistanceMatrix, k: usize) -> Self {
        let n = matrix.len();
        let k = k.min(n.saturating_sub(1));
        let mut flat = Vec::with_capacity(n * k);
        if k > 0 {
            let mut order: Vec<u32> = Vec::with_capacity(n);
            for i in 0..n {
                let by_distance = |&a: &u32, &b: &u32| {
                    matrix
                        .get(i, a as usize)
                        .total_cmp(&matrix.get(i, b as usize))
                        .then(a.cmp(&b))
                };
                order.clear();
                order.extend((0..n as u32).filter(|&j| j as usize != i));
                // Top-k selection, then sort only the survivors: O(n + k
                // log k) per point instead of a full O(n log n) sort. The
                // (distance, index) comparator is a total order, so the
                // selected set — and its sorted order — is exactly what
                // the full sort would produce.
                if k < order.len() {
                    order.select_nth_unstable_by(k - 1, by_distance);
                    order.truncate(k);
                }
                order.sort_by(by_distance);
                flat.extend_from_slice(&order);
            }
        }
        CandidateLists { flat, k, n }
    }

    /// The neighbour list of point `i`, nearest first.
    #[inline]
    pub fn neighbors(&self, i: usize) -> &[u32] {
        &self.flat[i * self.k..(i + 1) * self.k]
    }

    /// The `k` the lists were built with (after clamping).
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of points the lists cover.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// Returns `true` when built over an empty point set.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }
}

#[inline]
fn dist(points: &[Point], i: usize, j: usize) -> f64 {
    points[i].distance(&points[j])
}

/// 2-opt restricted to candidate edges, with don't-look bits.
///
/// For each "active" point `t1` and each of its two tour edges `(t1, t2)`,
/// only reconnections `(t1, t3)` with `t3` in `t1`'s candidate list are
/// examined; since the list is sorted, the scan stops as soon as
/// `d(t1, t3) ≥ d(t1, t2)` (no such move can improve — the symmetric case
/// is found from `t3`'s own scan). A point with no improving move goes to
/// sleep until a move changes one of its edges.
///
/// `max_rounds` bounds the number of full passes over all points (mirroring
/// the exact `two_opt`'s `max_passes`). Returns the number of improving
/// moves applied; the tour is never lengthened.
pub fn two_opt_candidates(
    tour: &mut Tour,
    points: &[Point],
    candidates: &CandidateLists,
    max_rounds: usize,
) -> usize {
    two_opt_candidates_by(tour, &points, candidates, max_rounds)
}

/// [`two_opt_candidates`] over any distance source; the matrix-backed
/// pipeline pairs it with [`CandidateLists::from_matrix`] so "nearest"
/// matches the metric.
pub(crate) fn two_opt_candidates_by<D: SearchDist>(
    tour: &mut Tour,
    points: &D,
    candidates: &CandidateLists,
    max_rounds: usize,
) -> usize {
    let n = tour.len();
    if n < 4 {
        return 0;
    }
    debug_assert_eq!(candidates.len(), n, "candidate lists cover the tour");
    let mut pos = tour.position_index();
    let mut dont_look = vec![false; n];
    let mut moves = 0usize;

    for _ in 0..max_rounds {
        let mut improved_any = false;
        for t1 in 0..n {
            if dont_look[t1] {
                continue;
            }
            let mut improved_here = false;
            // `succ = true` examines edge (t1, succ(t1)); `succ = false`
            // examines edge (pred(t1), t1) from t1's side.
            for succ in [true, false] {
                loop {
                    let p1 = pos[t1];
                    let t2 = if succ {
                        tour.order()[(p1 + 1) % n]
                    } else {
                        tour.order()[(p1 + n - 1) % n]
                    };
                    let d_t1_t2 = points.d(t1, t2);
                    let mut applied = false;
                    for &c in candidates.neighbors(t1) {
                        let t3 = c as usize;
                        let d_t1_t3 = points.d(t1, t3);
                        if d_t1_t3 >= d_t1_t2 {
                            break; // sorted list: no shorter new edge left
                        }
                        let p3 = pos[t3];
                        let t4 = if succ {
                            tour.order()[(p3 + 1) % n]
                        } else {
                            tour.order()[(p3 + n - 1) % n]
                        };
                        if t3 == t2 || t4 == t1 {
                            continue; // adjacent edges — reversal is a no-op
                        }
                        let gain = d_t1_t2 + points.d(t3, t4) - d_t1_t3 - points.d(t2, t4);
                        if gain > GAIN_EPS {
                            // Removing (t1,t2) and (t3,t4), adding (t1,t3)
                            // and (t2,t4): reverse the run between the two
                            // removed edges.
                            if succ {
                                tour.reverse_arc(pos[t2], pos[t3], &mut pos);
                            } else {
                                tour.reverse_arc(pos[t1], pos[t4], &mut pos);
                            }
                            moves += 1;
                            applied = true;
                            improved_here = true;
                            improved_any = true;
                            for t in [t1, t2, t3, t4] {
                                dont_look[t] = false;
                            }
                            break;
                        }
                    }
                    if !applied {
                        break; // this edge of t1 is locally optimal
                    }
                }
            }
            if !improved_here {
                dont_look[t1] = true;
            }
        }
        if !improved_any {
            break;
        }
    }
    moves
}

/// Or-opt (chain relocation, lengths 1–3) restricted to candidate edges.
///
/// For each active point `a`, the chains starting at `a` are tried against
/// reinsertion edges adjacent to the candidates of the chain's endpoints.
/// The chain may be inserted forward or reversed, whichever is cheaper, and
/// the best improving candidate position is taken. Don't-look bits skip
/// points whose neighbourhood yielded no improving relocation.
///
/// Returns the number of improving relocations applied; the tour is never
/// lengthened.
pub fn or_opt_candidates(
    tour: &mut Tour,
    points: &[Point],
    candidates: &CandidateLists,
    max_rounds: usize,
) -> usize {
    or_opt_candidates_by(tour, &points, candidates, max_rounds)
}

/// [`or_opt_candidates`] over any distance source (see
/// [`two_opt_candidates_by`]).
pub(crate) fn or_opt_candidates_by<D: SearchDist>(
    tour: &mut Tour,
    points: &D,
    candidates: &CandidateLists,
    max_rounds: usize,
) -> usize {
    let n = tour.len();
    if n < 5 {
        return 0;
    }
    debug_assert_eq!(candidates.len(), n, "candidate lists cover the tour");
    let mut pos = tour.position_index();
    let mut dont_look = vec![false; n];
    let mut moves = 0usize;

    for _ in 0..max_rounds {
        let mut improved_any = false;
        for a in 0..n {
            if dont_look[a] {
                continue;
            }
            if let Some(touched) = try_relocate_candidates(tour, points, candidates, a, &mut pos) {
                moves += 1;
                improved_any = true;
                for t in touched {
                    dont_look[t] = false;
                }
            } else {
                dont_look[a] = true;
            }
        }
        if !improved_any {
            break;
        }
    }
    moves
}

/// Tries the best candidate relocation of the chains of length 1–3 starting
/// at point `a`. On success applies the move, refreshes `pos`, and returns
/// the points whose tour edges changed.
fn try_relocate_candidates<D: SearchDist>(
    tour: &mut Tour,
    points: &D,
    candidates: &CandidateLists,
    a: usize,
    pos: &mut [usize],
) -> Option<[usize; 6]> {
    let n = tour.len();
    let mut best: Option<(f64, [usize; 3], usize, usize, bool)> = None; // (gain, chain, chain_len, edge_start, reversed)

    for chain_len in 1..=3usize {
        if chain_len >= n - 2 {
            break;
        }
        let start = pos[a];
        let mut chain = [0usize; 3];
        for (s, slot) in chain.iter_mut().enumerate().take(chain_len) {
            *slot = tour.order()[(start + s) % n];
        }
        let chain_first = chain[0];
        let chain_last = chain[chain_len - 1];
        let before = tour.order()[(start + n - 1) % n];
        let after = tour.order()[(start + chain_len) % n];
        if chain[..chain_len].contains(&before) || chain[..chain_len].contains(&after) {
            continue; // chain wraps the whole tour
        }
        let removed =
            points.d(before, chain_first) + points.d(chain_last, after) - points.d(before, after);
        if removed <= GAIN_EPS {
            continue; // excision itself saves nothing; no reinsertion can win
        }

        // Candidate reinsertion edges: (c, succ(c)) for c near either chain
        // endpoint. Scanning both endpoints' lists covers forward and
        // reversed insertions.
        for list in [
            candidates.neighbors(chain_first),
            candidates.neighbors(chain_last),
        ] {
            for &c in list {
                let i = c as usize;
                if chain[..chain_len].contains(&i) || i == before {
                    continue; // edge inside the chain or the excised edge
                }
                let j = tour.order()[(pos[i] + 1) % n];
                if chain[..chain_len].contains(&j) {
                    continue;
                }
                let d_i_j = points.d(i, j);
                let fwd = points.d(i, chain_first) + points.d(chain_last, j) - d_i_j;
                let rev = points.d(i, chain_last) + points.d(chain_first, j) - d_i_j;
                let (added, reversed) = if rev < fwd { (rev, true) } else { (fwd, false) };
                let gain = removed - added;
                if gain > GAIN_EPS && best.map(|(g, ..)| gain > g).unwrap_or(true) {
                    best = Some((gain, chain, chain_len, i, reversed));
                }
            }
        }
    }

    let (_, chain, chain_len, edge_start, reversed) = best?;
    let chain_first = chain[0];
    let chain_last = chain[chain_len - 1];
    let start = pos[chain_first];
    let before = tour.order()[(start + n - 1) % n];
    let after = tour.order()[(start + chain_len) % n];
    let edge_end = tour.order()[(pos[edge_start] + 1) % n];

    // Splice in place: rotate the chain past the points between it and
    // `edge_start`; only applied (improving) moves pay for it.
    tour.relocate_chain(start, chain_len, pos[edge_start], reversed, pos);
    Some([before, after, chain_first, chain_last, edge_start, edge_end])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance_matrix::DistanceMatrix;
    use crate::insertion::convex_hull_insertion;
    use crate::test_support::pseudo_random_points;

    #[test]
    fn candidate_lists_are_sorted_and_exclude_self() {
        let pts = pseudo_random_points(40, 3);
        let cand = CandidateLists::build(&pts, 8);
        assert_eq!(cand.len(), 40);
        assert_eq!(cand.k(), 8);
        for i in 0..pts.len() {
            let list = cand.neighbors(i);
            assert_eq!(list.len(), 8);
            assert!(list.iter().all(|&j| j as usize != i));
            for w in list.windows(2) {
                assert!(
                    dist(&pts, i, w[0] as usize) <= dist(&pts, i, w[1] as usize) + 1e-12,
                    "list of {i} is sorted by distance"
                );
            }
        }
    }

    #[test]
    fn candidate_lists_match_brute_force_nearest() {
        let pts = pseudo_random_points(60, 9);
        let cand = CandidateLists::build(&pts, 5);
        for i in 0..pts.len() {
            let mut brute: Vec<usize> = (0..pts.len()).filter(|&j| j != i).collect();
            brute.sort_by(|&a, &b| dist(&pts, i, a).total_cmp(&dist(&pts, i, b)));
            let brute_d: Vec<f64> = brute[..5].iter().map(|&j| dist(&pts, i, j)).collect();
            let got_d: Vec<f64> = cand
                .neighbors(i)
                .iter()
                .map(|&j| dist(&pts, i, j as usize))
                .collect();
            for (g, b) in got_d.iter().zip(&brute_d) {
                assert!((g - b).abs() < 1e-9, "point {i}: {got_d:?} vs {brute_d:?}");
            }
        }
    }

    #[test]
    fn candidate_lists_clamp_k_and_handle_tiny_sets() {
        let pts = pseudo_random_points(3, 1);
        let cand = CandidateLists::build(&pts, 10);
        assert_eq!(cand.k(), 2);
        assert!(!cand.is_empty());
        let empty = CandidateLists::build(&[], 4);
        assert!(empty.is_empty());
        assert_eq!(empty.k(), 0);
        let single = CandidateLists::build(&[Point::ORIGIN], 4);
        assert_eq!(single.k(), 0);
        assert!(single.neighbors(0).is_empty());
    }

    #[test]
    fn candidate_two_opt_uncrosses_and_never_lengthens() {
        for salt in [7u64, 21, 90] {
            let pts = pseudo_random_points(60, salt);
            let cand = CandidateLists::build(&pts, 10);
            let mut tour = Tour::identity(pts.len());
            let before = tour.length(&pts);
            let moves = two_opt_candidates(&mut tour, &pts, &cand, 100);
            assert!(moves > 0, "salt {salt}: the identity tour is improvable");
            assert!(tour.is_valid());
            assert!(tour.length(&pts) < before);
        }
    }

    #[test]
    fn candidate_or_opt_relocates_and_never_lengthens() {
        for salt in [5u64, 33] {
            let pts = pseudo_random_points(50, salt);
            let cand = CandidateLists::build(&pts, 10);
            let dm = DistanceMatrix::from_points(&pts);
            let mut tour = convex_hull_insertion(&pts, &dm);
            let before = tour.length(&pts);
            or_opt_candidates(&mut tour, &pts, &cand, 100);
            assert!(tour.is_valid());
            assert!(tour.length(&pts) <= before + 1e-9);
        }
    }

    #[test]
    fn candidate_search_matches_exact_quality_closely() {
        // On mid-size instances, candidate-list polishing lands within a
        // couple of percent of the exact all-pairs polishing.
        for salt in [11u64, 47, 101] {
            let pts = pseudo_random_points(120, salt);
            let dm = DistanceMatrix::from_points(&pts);

            let mut exact = convex_hull_insertion(&pts, &dm);
            crate::two_opt(&mut exact, &dm, 30);
            crate::or_opt(&mut exact, &dm, 30);
            crate::two_opt(&mut exact, &dm, 30);

            let cand = CandidateLists::build(&pts, 10);
            let mut fast = convex_hull_insertion(&pts, &dm);
            two_opt_candidates(&mut fast, &pts, &cand, 100);
            or_opt_candidates(&mut fast, &pts, &cand, 100);
            two_opt_candidates(&mut fast, &pts, &cand, 100);

            let ratio = fast.length(&pts) / exact.length(&pts);
            assert!(
                ratio <= 1.02,
                "salt {salt}: candidate search ratio {ratio:.4}"
            );
            assert!(fast.is_valid());
        }
    }

    #[test]
    fn matrix_backed_search_is_byte_identical_to_point_backed() {
        // With a Euclidean matrix, the matrix code path must apply exactly
        // the same moves in the same order as the coordinate code path —
        // the generic core monomorphises over the distance source only.
        for salt in [3u64, 19, 77] {
            let pts = pseudo_random_points(80, salt);
            let dm = DistanceMatrix::from_points(&pts);
            let cand = CandidateLists::build(&pts, 8);

            let mut by_points = Tour::identity(pts.len());
            let mut by_matrix = Tour::identity(pts.len());
            let a = two_opt_candidates(&mut by_points, &pts, &cand, 50);
            let b = two_opt_candidates_by(&mut by_matrix, &&dm, &cand, 50);
            assert_eq!(a, b);
            assert_eq!(by_points.order(), by_matrix.order());

            let c = or_opt_candidates(&mut by_points, &pts, &cand, 50);
            let d = or_opt_candidates_by(&mut by_matrix, &&dm, &cand, 50);
            assert_eq!(c, d);
            assert_eq!(by_points.order(), by_matrix.order());
        }
    }

    #[test]
    fn from_matrix_lists_are_sorted_by_matrix_distance() {
        let pts = pseudo_random_points(30, 6);
        let dm = DistanceMatrix::from_points(&pts);
        let cand = CandidateLists::from_matrix(&dm, 6);
        assert_eq!(cand.k(), 6);
        for i in 0..pts.len() {
            let list = cand.neighbors(i);
            assert_eq!(list.len(), 6);
            assert!(list.iter().all(|&j| j as usize != i));
            for w in list.windows(2) {
                assert!(dm.get(i, w[0] as usize) <= dm.get(i, w[1] as usize) + 1e-12);
            }
            // Same neighbour *distances* as the kd-tree build (tie order
            // may differ between the two constructions).
            let tree_list = CandidateLists::build(&pts, 6);
            let a: Vec<f64> = list.iter().map(|&j| dm.get(i, j as usize)).collect();
            let b: Vec<f64> = tree_list
                .neighbors(i)
                .iter()
                .map(|&j| dm.get(i, j as usize))
                .collect();
            for (x, y) in a.iter().zip(&b) {
                assert!((x - y).abs() < 1e-9);
            }
        }
        let empty = CandidateLists::from_matrix(&DistanceMatrix::from_points(&[]), 4);
        assert!(empty.is_empty());
    }

    #[test]
    fn tiny_tours_are_untouched() {
        let pts = pseudo_random_points(3, 2);
        let cand = CandidateLists::build(&pts, 2);
        let mut tour = Tour::identity(3);
        assert_eq!(two_opt_candidates(&mut tour, &pts, &cand, 10), 0);
        assert_eq!(or_opt_candidates(&mut tour, &pts, &cand, 10), 0);
        assert_eq!(tour.order(), &[0, 1, 2]);
    }

    #[test]
    fn zero_round_budget_is_a_no_op() {
        let pts = pseudo_random_points(30, 8);
        let cand = CandidateLists::build(&pts, 8);
        let mut tour = Tour::identity(pts.len());
        assert_eq!(two_opt_candidates(&mut tour, &pts, &cand, 0), 0);
        assert_eq!(or_opt_candidates(&mut tour, &pts, &cand, 0), 0);
        assert_eq!(tour.order(), Tour::identity(pts.len()).order());
    }

    #[test]
    fn duplicate_points_are_handled() {
        let mut pts = pseudo_random_points(20, 4);
        pts.push(pts[0]);
        pts.push(pts[5]);
        let cand = CandidateLists::build(&pts, 6);
        let mut tour = Tour::identity(pts.len());
        let before = tour.length(&pts);
        two_opt_candidates(&mut tour, &pts, &cand, 50);
        or_opt_candidates(&mut tour, &pts, &cand, 50);
        assert!(tour.is_valid());
        assert!(tour.length(&pts) <= before + 1e-9);
    }
}
