//! Property-based tests for the candidate-list search pipeline: permutation
//! validity, monotone improvement, quality vs. the exact pipeline, and the
//! `Auto` byte-identity contract below the threshold. Two oracles pin the
//! scalable primitives to the straightforward code they replaced: the
//! grid-pruned hull insertion against a full scan of every remaining point
//! per splice, and the in-place Or-opt splice against an array rebuild.

use mule_geom::{convex_hull, BoundingBox, Point};
use mule_graph::chb::AUTO_EXACT_THRESHOLD;
use mule_graph::{
    construct_circuit, convex_hull_insertion_incremental, or_opt_candidates, two_opt_candidates,
    CandidateLists, ChbConfig, SearchMode, Tour,
};
use mule_road::TravelMetric;
use proptest::prelude::*;
use rand::SeedableRng;
use std::collections::BinaryHeap;

fn field_points(min: usize, max: usize) -> impl Strategy<Value = Vec<Point>> {
    prop::collection::vec(
        (0.0..2000.0f64, 0.0..2000.0f64).prop_map(|(x, y)| Point::new(x, y)),
        min..=max,
    )
}

fn euclidean(points: &[Point], config: &ChbConfig) -> Tour {
    construct_circuit(points, &TravelMetric::Euclidean, config)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn candidate_pipeline_is_a_valid_permutation(points in field_points(0, 300)) {
        let config = ChbConfig::default().with_search(SearchMode::Candidates(10));
        let tour = euclidean(&points, &config);
        prop_assert!(tour.is_valid());
        prop_assert_eq!(tour.len(), points.len());
    }

    #[test]
    fn candidate_local_search_never_lengthens(points in field_points(4, 300)) {
        let candidates = CandidateLists::build(&points, 10);
        let mut tour = convex_hull_insertion_incremental(&points);
        let mut length = tour.length(&points);

        two_opt_candidates(&mut tour, &points, &candidates, 50);
        prop_assert!(tour.is_valid());
        prop_assert!(tour.length(&points) <= length + 1e-6);
        length = tour.length(&points);

        or_opt_candidates(&mut tour, &points, &candidates, 50);
        prop_assert!(tour.is_valid());
        prop_assert!(tour.length(&points) <= length + 1e-6);
    }

    #[test]
    fn candidate_pipeline_tracks_exact_quality(points in field_points(6, 300)) {
        let exact = euclidean(
            &points,
            &ChbConfig::default().with_search(SearchMode::Exact),
        );
        let fast = euclidean(
            &points,
            &ChbConfig::default().with_search(SearchMode::Candidates(10)),
        );
        prop_assert!(fast.is_valid());
        let exact_len = exact.length(&points);
        let fast_len = fast.length(&points);
        prop_assume!(exact_len > 1e-9); // all-coincident points: both zero
        prop_assert!(
            fast_len <= exact_len * 1.02,
            "candidate pipeline {:.1} vs exact {:.1} (ratio {:.4}) on n = {}",
            fast_len, exact_len, fast_len / exact_len, points.len()
        );
    }

    #[test]
    fn auto_is_byte_identical_to_exact_below_the_threshold(
        points in field_points(0, AUTO_EXACT_THRESHOLD)
    ) {
        let auto = euclidean(&points, &ChbConfig::default());
        let exact = euclidean(
            &points,
            &ChbConfig::default().with_search(SearchMode::Exact),
        );
        prop_assert_eq!(auto.order(), exact.order());
    }
}

/// A queued `(cost, point, edge)` of the oracle insertion; the cheapest pops
/// first, ties broken by `(point, from, to)`.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Pending {
    cost: f64,
    point: usize,
    from: usize,
    to: usize,
}

impl Eq for Pending {}

impl Ord for Pending {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other
            .cost
            .total_cmp(&self.cost)
            .then_with(|| other.point.cmp(&self.point))
            .then_with(|| other.from.cmp(&self.from))
            .then_with(|| other.to.cmp(&self.to))
    }
}

impl PartialOrd for Pending {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// The incremental hull insertion as it was before its offers were pruned:
/// each splice offers its two new edges to every remaining point.
fn full_scan_insertion(points: &[Point]) -> Vec<usize> {
    let n = points.len();
    if n <= 2 {
        return (0..n).collect();
    }
    let mut in_tour = vec![false; n];
    let mut order: Vec<usize> = Vec::new();
    for hp in &convex_hull(points) {
        if let Some(idx) = (0..n).find(|&i| !in_tour[i] && points[i].distance_squared(hp) <= 1e-18)
        {
            in_tour[idx] = true;
            order.push(idx);
        }
    }
    if order.is_empty() {
        order.push(0);
        in_tour[0] = true;
    }
    let anchor = order[0];
    let mut next = vec![usize::MAX; n];
    for (s, &i) in order.iter().enumerate() {
        next[i] = order[(s + 1) % order.len()];
    }
    let d = |i: usize, j: usize| points[i].distance(&points[j]);
    let edge_cost = |i: usize, j: usize, k: usize| d(i, k) + d(k, j) - d(i, j);
    let mut best_cost = vec![f64::INFINITY; n];
    let mut heap = BinaryHeap::new();
    let mut remaining: Vec<usize> = (0..n).filter(|&i| !in_tour[i]).collect();
    let mut slot = vec![usize::MAX; n];
    for (s, &k) in remaining.iter().enumerate() {
        slot[k] = s;
    }
    let rescore =
        |k: usize, next: &[usize], best_cost: &mut [f64], heap: &mut BinaryHeap<Pending>| {
            let mut best = Pending {
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
                    best = Pending {
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
        if slot[k] == usize::MAX || entry.cost.to_bits() != best_cost[k].to_bits() {
            continue;
        }
        if next[entry.from] != entry.to {
            rescore(k, &next, &mut best_cost, &mut heap);
            continue;
        }
        let (e, f) = (entry.from, entry.to);
        next[e] = k;
        next[k] = f;
        let s = std::mem::replace(&mut slot[k], usize::MAX);
        remaining.swap_remove(s);
        if let Some(&moved) = remaining.get(s) {
            slot[moved] = s;
        }
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
                heap.push(Pending {
                    cost,
                    point: q,
                    from,
                    to,
                });
            }
        }
    }
    let mut out = vec![anchor];
    let mut i = next[anchor];
    while i != anchor {
        out.push(i);
        i = next[i];
    }
    out
}

/// The Or-opt splice as it was before it moved in place: rebuild the order
/// without the chain, then insert the chain after `order[after]`.
fn rebuilt_relocation(
    order: &[usize],
    start: usize,
    len: usize,
    after: usize,
    reversed: bool,
) -> Vec<usize> {
    let n = order.len();
    let mut chain: Vec<usize> = (0..len).map(|s| order[(start + s) % n]).collect();
    if reversed {
        chain.reverse();
    }
    let mut out = Vec::with_capacity(n);
    for &idx in order {
        if chain.contains(&idx) {
            continue;
        }
        out.push(idx);
        if idx == order[after] {
            out.extend_from_slice(&chain);
        }
    }
    out
}

fn assert_same_insertion(points: &[Point]) -> Result<(), TestCaseError> {
    let pruned = convex_hull_insertion_incremental(points);
    let full_scan = full_scan_insertion(points);
    prop_assert_eq!(pruned.order(), full_scan.as_slice());
    Ok(())
}

/// The paper's disconnected-clusters layout over a 1 km field.
fn cluster_points(seed: u64, count: usize, clusters: usize, radius: f64) -> Vec<Point> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    mule_workload::layout::clustered_layout(
        &mut rng,
        &BoundingBox::square(1000.0),
        count,
        clusters,
        radius,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn pruned_insertion_matches_full_scan_on_uniform_fields(points in field_points(0, 400)) {
        assert_same_insertion(&points)?;
    }

    #[test]
    fn pruned_insertion_matches_full_scan_on_clusters(
        seed in 0..u64::MAX,
        count in 20usize..500,
        clusters in 1usize..9,
        radius in 5.0..150.0f64,
    ) {
        assert_same_insertion(&cluster_points(seed, count, clusters, radius))?;
    }

    #[test]
    fn pruned_insertion_matches_full_scan_on_integer_grids_with_ties(
        cells in prop::collection::vec((0u8..9, 0u8..9), 0..250)
    ) {
        // A 9×9 lattice: duplicate points and exactly tied costs abound.
        let points: Vec<Point> =
            cells.iter().map(|&(x, y)| Point::new(f64::from(x), f64::from(y))).collect();
        assert_same_insertion(&points)?;
    }

    #[test]
    fn pruned_insertion_matches_full_scan_on_collinear_points(
        ts in prop::collection::vec(0u8..60, 0..120),
        slope in 0u8..7,
    ) {
        // Integer slopes −3..=3, the horizontal line included.
        let slope = f64::from(slope) - 3.0;
        let points: Vec<Point> = ts
            .iter()
            .map(|&t| Point::new(f64::from(t) * 2.5, 7.0 + slope * f64::from(t)))
            .collect();
        assert_same_insertion(&points)?;
    }

    #[test]
    fn pruned_insertion_matches_full_scan_on_a_circle(n in 3usize..300, radius in 1.0..5000.0f64) {
        // Every point on the hull (up to rounding, which may leave a few
        // inside).
        let points: Vec<Point> = (0..n)
            .map(|i| {
                let a = std::f64::consts::TAU * i as f64 / n as f64;
                Point::new(radius * a.cos(), radius * a.sin())
            })
            .collect();
        assert_same_insertion(&points)?;
    }

    #[test]
    fn pruned_insertion_matches_full_scan_far_from_the_origin(points in field_points(0, 300)) {
        let shifted: Vec<Point> =
            points.iter().map(|p| Point::new(p.x + 1e6, p.y - 1e6)).collect();
        assert_same_insertion(&shifted)?;
    }

    #[test]
    fn pruned_insertion_matches_full_scan_on_tiny_sets(
        cells in prop::collection::vec((0u8..4, 0u8..4), 0..=8)
    ) {
        let points: Vec<Point> =
            cells.iter().map(|&(x, y)| Point::new(f64::from(x) * 10.0, f64::from(y) * 10.0)).collect();
        assert_same_insertion(&points)?;
    }

    #[test]
    fn in_place_relocation_matches_the_rebuild(n in 4usize..40, shuffle in 0..u64::MAX) {
        // Every chain start (wrapping ones included), length, reinsertion
        // point outside the chain and orientation.
        let mut order: Vec<usize> = (0..n).collect();
        let mut h = shuffle;
        for i in (1..n).rev() {
            h = h.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            order.swap(i, (h >> 33) as usize % (i + 1));
        }
        for len in 1..=3usize.min(n - 2) {
            for start in 0..n {
                for after in (0..n).filter(|&p| (p + n - start) % n >= len) {
                    for reversed in [false, true] {
                        let mut tour = Tour::new(order.clone());
                        let mut pos = tour.position_index();
                        tour.relocate_chain(start, len, after, reversed, &mut pos);
                        let expected = rebuilt_relocation(&order, start, len, after, reversed);
                        prop_assert_eq!(tour.order(), expected.as_slice());
                        prop_assert_eq!(&pos, &tour.position_index());
                    }
                }
            }
        }
    }
}

#[test]
fn pruned_insertion_matches_full_scan_on_every_small_count() {
    for n in 0..=8usize {
        for salt in 0..20u64 {
            let points: Vec<Point> = (0..n as u64)
                .map(|i| {
                    let h = (i + 1).wrapping_mul(6364136223846793005).wrapping_add(salt);
                    Point::new((h % 5) as f64, ((h >> 20) % 5) as f64)
                })
                .collect();
            assert_eq!(
                convex_hull_insertion_incremental(&points).order(),
                full_scan_insertion(&points).as_slice(),
                "n = {n}, salt {salt}"
            );
        }
    }
}
