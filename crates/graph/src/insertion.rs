//! Insertion-based tour construction.
//!
//! Three variants:
//!
//! * [`convex_hull_insertion`] — the "CHB" construction of reference \[5\]
//!   that every TCTP planner starts from: begin with the convex hull of the
//!   targets (already a tour of the boundary points) and repeatedly insert
//!   the interior point whose cheapest insertion position is cheapest. This
//!   is the **exact** all-pairs formulation (`O(n³)` worst case), kept
//!   byte-for-byte stable because golden tests pin its tours.
//! * [`convex_hull_insertion_incremental`] — the same greedy rule made
//!   scalable: each interior point caches its best `(edge, cost)` in a
//!   lazy-invalidation min-heap, so an insertion only re-scores points whose
//!   cached edge was split (plus an `O(remaining)` check of the two new
//!   edges). `O(n² log n)` worst case, near `O(n log n)` in practice, and no
//!   dense distance matrix. Tie-breaking differs from the exact variant
//!   (heap order vs. scan order), so tours can differ *by bytes* on exact
//!   cost ties while the greedy rule — and hence quality — is identical.
//! * [`cheapest_insertion`] — classic cheapest insertion seeded with the
//!   farthest-apart pair (found via convex-hull rotating calipers, with the
//!   `O(n²)` matrix scan as the degenerate-hull fallback); used for
//!   cross-checking and the ablation bench.

use crate::distance_matrix::DistanceMatrix;
use crate::tour::Tour;
use mule_geom::{convex_hull, hull_diameter, Point};
use std::collections::BinaryHeap;

/// Cost of inserting point `k` between consecutive tour points `i` and `j`:
/// `d(i,k) + d(k,j) − d(i,j)`.
#[inline]
fn insertion_cost(dm: &DistanceMatrix, i: usize, j: usize, k: usize) -> f64 {
    dm.get(i, k) + dm.get(k, j) - dm.get(i, j)
}

/// Finds the cheapest position (edge index in the current order) at which to
/// insert `k`, returning `(position, cost)`.
fn cheapest_position(dm: &DistanceMatrix, order: &[usize], k: usize) -> (usize, f64) {
    let n = order.len();
    debug_assert!(n >= 1);
    if n == 1 {
        return (0, 2.0 * dm.get(order[0], k));
    }
    let mut best_pos = 0;
    let mut best_cost = f64::INFINITY;
    for pos in 0..n {
        let i = order[pos];
        let j = order[(pos + 1) % n];
        let c = insertion_cost(dm, i, j, k);
        if c < best_cost {
            best_cost = c;
            best_pos = pos;
        }
    }
    (best_pos, best_cost)
}

/// Convex-hull insertion ("CHB" construction).
///
/// 1. The convex hull of the points forms the initial sub-tour.
/// 2. While interior points remain, pick the (point, edge) pair with the
///    globally cheapest insertion cost and splice the point into that edge.
///
/// Returns a trivial tour for fewer than two points.
pub fn convex_hull_insertion(points: &[Point], dm: &DistanceMatrix) -> Tour {
    let n = points.len();
    if n <= 2 {
        return Tour::identity(n);
    }

    let (mut order, in_tour) = hull_seed(points);

    // Repeatedly insert the remaining point with the cheapest insertion.
    let mut remaining: Vec<usize> = (0..n).filter(|&i| !in_tour[i]).collect();
    while !remaining.is_empty() {
        let mut best: Option<(usize, usize, f64)> = None; // (remaining slot, pos, cost)
        for (slot, &k) in remaining.iter().enumerate() {
            let (pos, cost) = cheapest_position(dm, &order, k);
            if best.map(|(_, _, b)| cost < b).unwrap_or(true) {
                best = Some((slot, pos, cost));
            }
        }
        let (slot, pos, _) = best.expect("remaining is non-empty");
        let k = remaining.swap_remove(slot);
        order.insert((pos + 1).min(order.len()), k);
    }

    Tour::new(order)
}

/// Seeds the insertion order with the convex-hull vertices mapped back to
/// their indices in `points`. The hull returns coordinates, so match by
/// proximity (points are deduplicated by the hull, so ties pick the first
/// matching index deterministically). Degenerate hulls (all points
/// collinear) may cover < 3 points; an empty mapping falls back to point 0.
fn hull_seed(points: &[Point]) -> (Vec<usize>, Vec<bool>) {
    let n = points.len();
    let hull = convex_hull(points);
    let mut in_tour = vec![false; n];
    let mut order: Vec<usize> = Vec::with_capacity(n);
    for hp in &hull {
        if let Some(idx) = points
            .iter()
            .enumerate()
            .filter(|(i, p)| !in_tour[*i] && p.distance_squared(hp) <= 1e-18)
            .map(|(i, _)| i)
            .next()
        {
            in_tour[idx] = true;
            order.push(idx);
        }
    }
    if order.is_empty() {
        order.push(0);
        in_tour[0] = true;
    }
    (order, in_tour)
}

/// A pending `(cost, point, edge)` candidate in the incremental insertion's
/// lazy-invalidation heap. Ordered so the *smallest* cost pops first from
/// the `BinaryHeap` (which is a max-heap), with `(point, edge)` as the
/// deterministic tie-break.
#[derive(Debug, Clone, Copy, PartialEq)]
struct PendingInsertion {
    cost: f64,
    point: usize,
    /// The edge `(from, to)` the cost was computed for; stale once the tour
    /// no longer contains it.
    from: usize,
    to: usize,
}

impl Eq for PendingInsertion {}

impl Ord for PendingInsertion {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed so the cheapest insertion is the heap maximum.
        other
            .cost
            .total_cmp(&self.cost)
            .then_with(|| other.point.cmp(&self.point))
            .then_with(|| other.from.cmp(&self.from))
            .then_with(|| other.to.cmp(&self.to))
    }
}

impl PartialOrd for PendingInsertion {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Convex-hull insertion with incremental re-scoring — the scalable twin of
/// [`convex_hull_insertion`].
///
/// The tour lives in a successor-linked list (`next[i]` = the point visited
/// after `i`), so splicing is `O(1)`. Every remaining interior point caches
/// its cheapest `(edge, cost)`; candidates sit in a min-heap and are
/// validated lazily on pop:
///
/// * if the cached edge was split by an earlier insertion, the point is
///   re-scored over the current cycle and re-queued;
/// * if the entry is superseded (a cheaper cost was recorded later), it is
///   discarded.
///
/// After each insertion splits edge `(e, f)` into `(e, k)`/`(k, f)`, the two
/// *new* edges are offered to every remaining point (`O(remaining)`), which
/// keeps every cached cost equal to the true minimum over the current
/// edges — so the greedy selection rule is exactly that of the all-pairs
/// variant, up to tie order.
///
/// Works straight off the point coordinates; no distance matrix needed.
pub fn convex_hull_insertion_incremental(points: &[Point]) -> Tour {
    let n = points.len();
    if n <= 2 {
        return Tour::identity(n);
    }

    let (order, in_tour) = hull_seed(points);
    let anchor = order[0];

    // Successor links of the current (partial) cycle. A single seeded point
    // forms the self-loop (a, a), whose generic insertion cost
    // `d(a,k) + d(k,a) − d(a,a)` is exactly the 2·d(a,k) the exact variant
    // special-cases.
    let mut next = vec![usize::MAX; n];
    for (s, &i) in order.iter().enumerate() {
        next[i] = order[(s + 1) % order.len()];
    }

    let d = |i: usize, j: usize| points[i].distance(&points[j]);
    let edge_cost = |i: usize, j: usize, k: usize| d(i, k) + d(k, j) - d(i, j);

    // Best-known insertion per remaining point, mirrored in the heap.
    let mut best_cost = vec![f64::INFINITY; n];
    let mut heap: BinaryHeap<PendingInsertion> = BinaryHeap::with_capacity(n);
    let mut remaining: Vec<usize> = (0..n).filter(|&i| !in_tour[i]).collect();
    // `slot[k]` is k's index in `remaining`, or `usize::MAX` once k is in
    // the tour, so a splice removes k in O(1).
    let mut slot = vec![usize::MAX; n];
    for (s, &k) in remaining.iter().enumerate() {
        slot[k] = s;
    }

    // Scores `k` against every edge of the current cycle (the recompute
    // path for stale caches) and queues the result.
    let rescore = |k: usize,
                   next: &[usize],
                   best_cost: &mut [f64],
                   heap: &mut BinaryHeap<PendingInsertion>| {
        let mut best = PendingInsertion {
            cost: f64::INFINITY,
            point: k,
            from: anchor,
            to: next[anchor],
        };
        let mut i = anchor;
        loop {
            let j = next[i];
            let c = edge_cost(i, j, k);
            if c < best.cost {
                best = PendingInsertion {
                    cost: c,
                    point: k,
                    from: i,
                    to: j,
                };
            }
            i = j;
            if i == anchor {
                break;
            }
        }
        best_cost[k] = best.cost;
        heap.push(best);
    };

    for &k in &remaining {
        rescore(k, &next, &mut best_cost, &mut heap);
    }

    while !remaining.is_empty() {
        let entry = heap.pop().expect("heap mirrors remaining points");
        let k = entry.point;
        if slot[k] == usize::MAX {
            continue; // already inserted
        }
        if entry.cost.to_bits() != best_cost[k].to_bits() {
            continue; // superseded by a cheaper offer
        }
        if next[entry.from] != entry.to {
            // Cached edge was split since this entry was queued: re-score
            // over the current cycle (the only non-O(1) validation path).
            rescore(k, &next, &mut best_cost, &mut heap);
            continue;
        }

        // Splice k into (from, to).
        let (e, f) = (entry.from, entry.to);
        next[e] = k;
        next[k] = f;
        let s = std::mem::replace(&mut slot[k], usize::MAX);
        remaining.swap_remove(s);
        if let Some(&moved) = remaining.get(s) {
            slot[moved] = s;
        }

        // Offer the two new edges (e, k) and (k, f) to every remaining
        // point; a cheaper offer supersedes the cache.
        for &q in &remaining {
            let via_e = edge_cost(e, k, q);
            let via_f = edge_cost(k, f, q);
            let (cost, from, to) = if via_e <= via_f {
                (via_e, e, k)
            } else {
                (via_f, k, f)
            };
            if cost < best_cost[q] {
                best_cost[q] = cost;
                heap.push(PendingInsertion {
                    cost,
                    point: q,
                    from,
                    to,
                });
            }
        }
    }

    // Unlink the cycle back into an order vector, starting at the hull
    // anchor for determinism.
    let mut final_order = Vec::with_capacity(n);
    let mut i = anchor;
    loop {
        final_order.push(i);
        i = next[i];
        if i == anchor {
            break;
        }
    }
    debug_assert_eq!(final_order.len(), n);
    Tour::new(final_order)
}

/// Maps one hull vertex back to its index in `points` (first match wins,
/// like the hull seeding).
fn hull_point_index(points: &[Point], hp: &Point) -> Option<usize> {
    points
        .iter()
        .enumerate()
        .find(|(_, p)| p.distance_squared(hp) <= 1e-18)
        .map(|(i, _)| i)
}

/// The farthest-apart pair of `points`, found in `O(n log n)` via the
/// convex hull's rotating-calipers diameter; falls back to the `O(n²)`
/// matrix scan when the hull is degenerate (< 2 usable vertices).
fn farthest_pair_via_hull(points: &[Point], dm: &DistanceMatrix) -> Option<(usize, usize)> {
    let hull = convex_hull(points);
    if let Some((ha, hb)) = hull_diameter(&hull) {
        if let (Some(a), Some(b)) = (
            hull_point_index(points, &hull[ha]),
            hull_point_index(points, &hull[hb]),
        ) {
            if a != b {
                return Some((a.min(b), a.max(b)));
            }
        }
    }
    dm.farthest_pair().map(|(a, b, _)| (a, b))
}

/// Cheapest insertion seeded with the farthest-apart pair of points.
pub fn cheapest_insertion(points: &[Point], dm: &DistanceMatrix) -> Tour {
    let n = points.len();
    if n <= 2 {
        return Tour::identity(n);
    }
    let (a, b) = farthest_pair_via_hull(points, dm).expect("n >= 2");
    let mut order = vec![a, b];
    let mut in_tour = vec![false; n];
    in_tour[a] = true;
    in_tour[b] = true;

    let mut remaining: Vec<usize> = (0..n).filter(|&i| !in_tour[i]).collect();
    while !remaining.is_empty() {
        let mut best: Option<(usize, usize, f64)> = None;
        for (slot, &k) in remaining.iter().enumerate() {
            let (pos, cost) = cheapest_position(dm, &order, k);
            if best.map(|(_, _, b)| cost < b).unwrap_or(true) {
                best = Some((slot, pos, cost));
            }
        }
        let (slot, pos, _) = best.expect("remaining is non-empty");
        let k = remaining.swap_remove(slot);
        order.insert((pos + 1).min(order.len()), k);
    }
    Tour::new(order)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn square_with_center() -> Vec<Point> {
        vec![
            Point::new(0.0, 0.0),
            Point::new(100.0, 0.0),
            Point::new(100.0, 100.0),
            Point::new(0.0, 100.0),
            Point::new(50.0, 50.0),
        ]
    }

    #[test]
    fn hull_insertion_yields_valid_tour_covering_all_points() {
        let pts = square_with_center();
        let dm = DistanceMatrix::from_points(&pts);
        let tour = convex_hull_insertion(&pts, &dm);
        assert!(tour.is_valid());
        assert_eq!(tour.len(), 5);
    }

    #[test]
    fn hull_insertion_on_pure_hull_matches_hull_perimeter() {
        let pts = vec![
            Point::new(0.0, 0.0),
            Point::new(100.0, 0.0),
            Point::new(100.0, 100.0),
            Point::new(0.0, 100.0),
        ];
        let dm = DistanceMatrix::from_points(&pts);
        let tour = convex_hull_insertion(&pts, &dm);
        assert!((tour.length(&pts) - 400.0).abs() < 1e-9);
    }

    #[test]
    fn cheapest_insertion_yields_valid_tour() {
        let pts = square_with_center();
        let dm = DistanceMatrix::from_points(&pts);
        let tour = cheapest_insertion(&pts, &dm);
        assert!(tour.is_valid());
        assert_eq!(tour.len(), 5);
        // Both heuristics should be close on this tiny instance.
        let chb = convex_hull_insertion(&pts, &dm).length(&pts);
        assert!(tour.length(&pts) <= chb * 1.5);
    }

    #[test]
    fn degenerate_inputs_give_trivial_tours() {
        for pts in [
            vec![],
            vec![Point::ORIGIN],
            vec![Point::ORIGIN, Point::new(1.0, 0.0)],
        ] {
            let dm = DistanceMatrix::from_points(&pts);
            let a = convex_hull_insertion(&pts, &dm);
            let b = cheapest_insertion(&pts, &dm);
            assert_eq!(a.len(), pts.len());
            assert_eq!(b.len(), pts.len());
            assert!(a.is_valid() && b.is_valid());
        }
    }

    #[test]
    fn collinear_points_are_still_all_visited() {
        let pts: Vec<Point> = (0..6).map(|i| Point::new(10.0 * i as f64, 5.0)).collect();
        let dm = DistanceMatrix::from_points(&pts);
        let tour = convex_hull_insertion(&pts, &dm);
        assert!(tour.is_valid());
        assert_eq!(tour.len(), 6);
        // Optimal "tour" over a line is out-and-back: 2 × 50 m.
        assert!((tour.length(&pts) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn duplicate_points_are_all_visited() {
        let pts = vec![
            Point::new(0.0, 0.0),
            Point::new(10.0, 0.0),
            Point::new(10.0, 0.0),
            Point::new(5.0, 8.0),
        ];
        let dm = DistanceMatrix::from_points(&pts);
        let tour = convex_hull_insertion(&pts, &dm);
        assert!(tour.is_valid());
        assert_eq!(tour.len(), 4);
    }

    use crate::test_support::pseudo_random_points;

    #[test]
    fn incremental_insertion_yields_valid_tours() {
        for n in [0usize, 1, 2, 3, 5, 12, 40, 90] {
            let pts = pseudo_random_points(n, 77);
            let tour = convex_hull_insertion_incremental(&pts);
            assert!(tour.is_valid(), "n = {n}");
            assert_eq!(tour.len(), n);
        }
    }

    #[test]
    fn incremental_insertion_matches_exact_greedy_length() {
        // Same greedy rule ⇒ same tour length whenever insertion costs have
        // no exact ties (generic random instances). Compare lengths rather
        // than orders: tie-breaking and cycle representation may differ.
        for salt in [3u64, 19, 55, 140] {
            let pts = pseudo_random_points(60, salt);
            let dm = DistanceMatrix::from_points(&pts);
            let exact = convex_hull_insertion(&pts, &dm).length(&pts);
            let incremental = convex_hull_insertion_incremental(&pts).length(&pts);
            assert!(
                (exact - incremental).abs() <= 1e-6 * exact.max(1.0),
                "salt {salt}: exact {exact} vs incremental {incremental}"
            );
        }
    }

    #[test]
    fn incremental_insertion_handles_collinear_and_duplicate_points() {
        let line: Vec<Point> = (0..7).map(|i| Point::new(5.0 * i as f64, 1.0)).collect();
        let tour = convex_hull_insertion_incremental(&line);
        assert!(tour.is_valid());
        assert!((tour.length(&line) - 60.0).abs() < 1e-9);

        let mut dupes = square_with_center();
        dupes.push(dupes[1]);
        let tour = convex_hull_insertion_incremental(&dupes);
        assert!(tour.is_valid());
        assert_eq!(tour.len(), dupes.len());
    }

    #[test]
    fn calipers_seed_matches_matrix_farthest_pair() {
        for salt in [2u64, 31, 77] {
            let pts = pseudo_random_points(50, salt);
            let dm = DistanceMatrix::from_points(&pts);
            let (a, b) = super::farthest_pair_via_hull(&pts, &dm).unwrap();
            let (ma, mb, md) = dm.farthest_pair().unwrap();
            assert!(
                (pts[a].distance(&pts[b]) - md).abs() < 1e-9,
                "salt {salt}: calipers pair ({a},{b}) vs matrix ({ma},{mb})"
            );
        }
    }

    #[test]
    fn calipers_seed_falls_back_on_degenerate_hulls() {
        // Two distinct points plus a duplicate: the hull is a segment.
        let pts = vec![
            Point::new(0.0, 0.0),
            Point::new(10.0, 0.0),
            Point::new(10.0, 0.0),
        ];
        let dm = DistanceMatrix::from_points(&pts);
        let (a, b) = super::farthest_pair_via_hull(&pts, &dm).unwrap();
        assert!((pts[a].distance(&pts[b]) - 10.0).abs() < 1e-12);
        let tour = cheapest_insertion(&pts, &dm);
        assert!(tour.is_valid());
    }

    #[test]
    fn insertion_cost_is_the_detour_cost() {
        let pts = square_with_center();
        let dm = DistanceMatrix::from_points(&pts);
        // Inserting the centre (index 4) between corners 0 and 1.
        let cost = super::insertion_cost(&dm, 0, 1, 4);
        let expected =
            pts[0].distance(&pts[4]) + pts[4].distance(&pts[1]) - pts[0].distance(&pts[1]);
        assert!((cost - expected).abs() < 1e-12);
        assert!(cost > 0.0);
    }
}
