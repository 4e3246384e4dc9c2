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
//!   lazy-invalidation min-heap, so an insertion re-scores (over the whole
//!   cycle) only points whose cached edge was split, and offers the two new
//!   edges only to points in grid cells where they can beat a cached cost.
//!   `O(n² log n)` worst case and no dense distance matrix; on uniform
//!   fields the offers grow about as `n^1.5` (45 k points evaluated at
//!   n = 2 000, 1.25 M at 20 000). Tie-breaking differs from the exact variant
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
///   re-scored over the current cycle (`O(cycle)`) and re-queued;
/// * if the entry is superseded (a cheaper cost was recorded later), it is
///   discarded.
///
/// After each insertion splits edge `(e, f)` into `(e, k)`/`(k, f)`, the two
/// *new* edges are offered to the remaining points through a max-bounded
/// grid (`OfferGrid`): only points in cells whose box could hold a cheaper
/// insertion than the cell's cached maximum are evaluated, and a skipped
/// point is one the offer provably could not improve. Every cached cost
/// therefore stays equal to the true minimum over the current edges, so
/// the greedy selection rule is exactly that of the all-pairs variant, up
/// to tie order — and the heap sees the same pushes as an offer to every
/// remaining point would make.
///
/// Works straight off the point coordinates; no distance matrix needed.
/// Records `offers` (points evaluated by the offers) and `rescores`
/// (stale-edge re-scorings) on the innermost open span.
pub fn convex_hull_insertion_incremental(points: &[Point]) -> Tour {
    let n = points.len();
    if n <= 2 {
        return Tour::identity(n);
    }

    let (order, mut in_tour) = hull_seed(points);
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
    let interior: Vec<usize> = (0..n).filter(|&i| !in_tour[i]).collect();
    let mut left = interior.len();

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

    for &k in &interior {
        rescore(k, &next, &mut best_cost, &mut heap);
    }
    let mut grid = OfferGrid::build(points, &interior, &best_cost);
    let (mut offers, mut rescores) = (0u64, 0u64);

    while left > 0 {
        let entry = heap.pop().expect("heap mirrors remaining points");
        let k = entry.point;
        if in_tour[k] {
            continue; // already inserted
        }
        if entry.cost.to_bits() != best_cost[k].to_bits() {
            continue; // superseded by a cheaper offer
        }
        if next[entry.from] != entry.to {
            // Cached edge was split since this entry was queued: re-score
            // over the current cycle (the only non-O(1) validation path).
            // The new cost may exceed the old one, so lift k's cell bounds.
            rescore(k, &next, &mut best_cost, &mut heap);
            grid.raise(k, best_cost[k]);
            rescores += 1;
            continue;
        }

        // Splice k into (from, to).
        let (e, f) = (entry.from, entry.to);
        next[e] = k;
        next[k] = f;
        in_tour[k] = true;
        left -= 1;

        // Offer the two new edges (e, k) and (k, f) to every remaining
        // point that could take one of them more cheaply than its cache;
        // a cheaper offer supersedes the cache.
        //
        // A cell's bound is the offer's cost with each distance to q
        // replaced by the distance to q's cell box, summed in the same
        // order. Box coordinates are coordinates of filed points and IEEE
        // rounding is monotone, so every rounded step of the bound is at
        // most the matching step of the cost: the bound never exceeds the
        // cost computed for any point in the box, and needs no margin.
        let (pe, pk, pf) = (points[e], points[k], points[f]);
        let (ek, kf) = (d(e, k), d(k, f));
        let bound = |b: &CellBox| {
            let to_k = b.distance(&pk);
            (b.distance(&pe) + to_k - ek).min(to_k + b.distance(&pf) - kf)
        };
        grid.offer(&bound, &mut |q| {
            if in_tour[q] {
                return f64::NEG_INFINITY; // gone from the cell's bound
            }
            offers += 1;
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
            best_cost[q]
        });
    }
    mule_obs::add("offers", offers);
    mule_obs::add("rescores", rescores);

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

/// An axis-aligned box `[min_x, max_x] × [min_y, max_y]`; empty when
/// inverted.
#[derive(Debug, Clone, Copy)]
struct CellBox {
    min_x: f64,
    min_y: f64,
    max_x: f64,
    max_y: f64,
}

impl CellBox {
    const EMPTY: CellBox = CellBox {
        min_x: f64::INFINITY,
        min_y: f64::INFINITY,
        max_x: f64::NEG_INFINITY,
        max_y: f64::NEG_INFINITY,
    };

    fn include(&mut self, p: &Point) {
        self.min_x = self.min_x.min(p.x);
        self.min_y = self.min_y.min(p.y);
        self.max_x = self.max_x.max(p.x);
        self.max_y = self.max_y.max(p.y);
    }

    fn union(&mut self, other: &CellBox) {
        self.min_x = self.min_x.min(other.min_x);
        self.min_y = self.min_y.min(other.min_y);
        self.max_x = self.max_x.max(other.max_x);
        self.max_y = self.max_y.max(other.max_y);
    }

    /// Distance from `p` to the nearest point of the box (0 inside).
    #[inline]
    fn distance(&self, p: &Point) -> f64 {
        let dx = (self.min_x - p.x).max(p.x - self.max_x).max(0.0);
        let dy = (self.min_y - p.y).max(p.y - self.max_y).max(0.0);
        (dx * dx + dy * dy).sqrt()
    }
}

/// Finest grid level: at most `4^MAX_DEPTH` leaf cells.
const MAX_DEPTH: u32 = 12;

/// A quadtree of uniform power-of-two grids over the interior points of a
/// hull insertion, each cell holding an upper bound of the cached
/// insertion costs under it.
///
/// Level `l` has `2^l × 2^l` cells in Z (Morton) order, so cell `z`'s
/// children are `4z..4z + 4` on level `l + 1`; the finest level holds
/// about two points per cell. Each cell keeps the tight bounding box of
/// the points filed under it. Its `max` is at least the `best_cost` of
/// every remaining point under it: a scan refreshes it exactly, a
/// re-score that raises a cost raises it, and a removal may leave it too
/// high, which is still a valid bound.
struct OfferGrid {
    /// Finest level.
    depth: u32,
    /// Per-cell bounding boxes, levels back to back from the root.
    boxes: Vec<CellBox>,
    /// Per-cell upper bound of `best_cost`; `-∞` once a cell is empty.
    max: Vec<f64>,
    /// Leaf `z`'s points are `items[start[z]..start[z + 1]]`.
    start: Vec<u32>,
    items: Vec<u32>,
    /// The leaf (Morton index on the finest level) each point is filed in.
    leaf: Vec<u32>,
}

impl OfferGrid {
    /// Files `interior` into the grid with their current `best_cost`.
    fn build(points: &[Point], interior: &[usize], best_cost: &[f64]) -> Self {
        let mut depth = 0;
        while depth < MAX_DEPTH && 2 << (2 * depth) < interior.len() {
            depth += 1;
        }
        let side = 1usize << depth;
        let mut extent = CellBox::EMPTY;
        for &i in interior {
            extent.include(&points[i]);
        }
        // Cells per metre on each axis; 0 on a degenerate (flat) axis.
        let per_m = |lo: f64, hi: f64| {
            if hi > lo {
                side as f64 / (hi - lo)
            } else {
                0.0
            }
        };
        let (sx, sy) = (
            per_m(extent.min_x, extent.max_x),
            per_m(extent.min_y, extent.max_y),
        );
        let cell = |v: f64, lo: f64, scale: f64| (((v - lo) * scale) as usize).min(side - 1);

        let leaves = side * side;
        let mut leaf = vec![u32::MAX; points.len()];
        let mut start = vec![0u32; leaves + 1];
        for &i in interior {
            let p = &points[i];
            let z = morton(cell(p.x, extent.min_x, sx), cell(p.y, extent.min_y, sy));
            leaf[i] = z as u32;
            start[z + 1] += 1;
        }
        for z in 0..leaves {
            start[z + 1] += start[z];
        }
        let mut fill: Vec<u32> = start[..leaves].to_vec();
        let mut items = vec![0u32; interior.len()];
        for &i in interior {
            let z = leaf[i] as usize;
            items[fill[z] as usize] = i as u32;
            fill[z] += 1;
        }

        let cells = level_offset(depth + 1);
        let mut boxes = vec![CellBox::EMPTY; cells];
        let mut max = vec![f64::NEG_INFINITY; cells];
        let base = level_offset(depth);
        for z in 0..leaves {
            for &i in &items[start[z] as usize..start[z + 1] as usize] {
                boxes[base + z].include(&points[i as usize]);
                max[base + z] = max[base + z].max(best_cost[i as usize]);
            }
        }
        for level in (0..depth).rev() {
            let (parent, child) = (level_offset(level), level_offset(level + 1));
            for z in 0..1usize << (2 * level) {
                for c in 4 * z..4 * z + 4 {
                    let child_box = boxes[child + c];
                    boxes[parent + z].union(&child_box);
                    max[parent + z] = max[parent + z].max(max[child + c]);
                }
            }
        }
        OfferGrid {
            depth,
            boxes,
            max,
            start,
            items,
            leaf,
        }
    }

    /// Raises the bounds of `q`'s cell and its ancestors to `cost`.
    fn raise(&mut self, q: usize, cost: f64) {
        let mut z = self.leaf[q] as usize;
        for level in (0..=self.depth).rev() {
            let cell = &mut self.max[level_offset(level) + z];
            if *cell >= cost {
                break; // ancestors bound their children, so they hold too
            }
            *cell = cost;
            z >>= 2;
        }
    }

    /// Calls `scan` on every filed point of every cell whose lower bound
    /// `bound(box)` on the offered cost is below the cell's max, and
    /// refreshes the visited cells' maxima from what `scan` returns (the
    /// point's cached cost, or `-∞` once it left the remaining set).
    fn offer(&mut self, bound: &impl Fn(&CellBox) -> f64, scan: &mut impl FnMut(usize) -> f64) {
        self.visit(0, 0, bound, scan);
    }

    fn visit(
        &mut self,
        level: u32,
        z: usize,
        bound: &impl Fn(&CellBox) -> f64,
        scan: &mut impl FnMut(usize) -> f64,
    ) -> f64 {
        let cell = level_offset(level) + z;
        let max = self.max[cell];
        if max == f64::NEG_INFINITY || bound(&self.boxes[cell]) >= max {
            return max; // no point under this cell can take the offer
        }
        let mut refreshed = f64::NEG_INFINITY;
        if level == self.depth {
            for &q in &self.items[self.start[z] as usize..self.start[z + 1] as usize] {
                refreshed = refreshed.max(scan(q as usize));
            }
        } else {
            for c in 4 * z..4 * z + 4 {
                refreshed = refreshed.max(self.visit(level + 1, c, bound, scan));
            }
        }
        self.max[cell] = refreshed;
        refreshed
    }
}

/// Index of level `level`'s first cell: `(4^level − 1) / 3` cells precede it.
fn level_offset(level: u32) -> usize {
    ((1usize << (2 * level)) - 1) / 3
}

/// Interleaves the bits of `x` (even positions) and `y` (odd positions).
fn morton(x: usize, y: usize) -> usize {
    let mut z = 0;
    for bit in 0..MAX_DEPTH {
        z |= ((x >> bit) & 1) << (2 * bit) | ((y >> bit) & 1) << (2 * bit + 1);
    }
    z
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
