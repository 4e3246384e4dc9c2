//! Property-based tests for the geometry substrate.
//!
//! These check the invariants the planners rely on, over randomly generated
//! point sets in the paper's 800 m × 800 m field.

use mule_geom::{
    ccw_included_angle, convex_hull, hull, is_convex_polygon, normalize_angle,
    point_in_convex_polygon, polyline::northmost_index, KdTree, KnnHeap, Point, Polyline, Segment,
    UniformGrid,
};
use proptest::prelude::*;

fn field_point() -> impl Strategy<Value = Point> {
    (0.0..800.0f64, 0.0..800.0f64).prop_map(|(x, y)| Point::new(x, y))
}

fn field_points(min: usize, max: usize) -> impl Strategy<Value = Vec<Point>> {
    prop::collection::vec(field_point(), min..=max)
}

/// Points on a 6 × 6 integer grid: with up to 40 of them, exact distance
/// ties and duplicate points are the norm, not the exception.
fn grid_points(min: usize, max: usize) -> impl Strategy<Value = Vec<Point>> {
    prop::collection::vec(
        (0u8..6, 0u8..6).prop_map(|(x, y)| Point::new(f64::from(x), f64::from(y))),
        min..=max,
    )
}

/// The k-nearest query as it was before the single-descent heap: `k`
/// successive `nearest_filtered` calls, each excluding the hits before it.
/// Kept as the oracle the one-descent version must match exactly.
fn k_nearest_by_repeated_descents(tree: &KdTree, query: &Point, k: usize) -> Vec<(usize, f64)> {
    let mut found: Vec<(usize, f64)> = Vec::with_capacity(k);
    while found.len() < k {
        let taken: Vec<usize> = found.iter().map(|(i, _)| *i).collect();
        match tree.nearest_filtered(query, |i| !taken.contains(&i)) {
            Some(hit) => found.push(hit),
            None => break,
        }
    }
    found
}

proptest! {
    #[test]
    fn distance_satisfies_triangle_inequality(a in field_point(), b in field_point(), c in field_point()) {
        let direct = a.distance(&c);
        let via_b = a.distance(&b) + b.distance(&c);
        prop_assert!(direct <= via_b + 1e-9);
    }

    #[test]
    fn distance_is_symmetric(a in field_point(), b in field_point()) {
        prop_assert!((a.distance(&b) - b.distance(&a)).abs() <= 1e-12);
    }

    #[test]
    fn advance_towards_never_overshoots_and_shrinks_distance(
        a in field_point(), b in field_point(), d in 0.0..2000.0f64
    ) {
        let c = a.advance_towards(&b, d);
        prop_assert!(c.distance(&b) <= a.distance(&b) + 1e-9);
        // The moved distance never exceeds the request.
        prop_assert!(a.distance(&c) <= d + 1e-9);
    }

    #[test]
    fn normalized_angles_land_in_range(theta in -100.0..100.0f64) {
        let t = normalize_angle(theta);
        prop_assert!((0.0..std::f64::consts::TAU).contains(&t));
    }

    #[test]
    fn ccw_included_angle_is_in_range(a in field_point(), b in field_point(), c in field_point()) {
        if let Some(angle) = ccw_included_angle(&a, &b, &c) {
            prop_assert!((0.0..std::f64::consts::TAU).contains(&angle));
        }
    }

    #[test]
    fn hull_contains_all_points_and_is_convex(points in field_points(1, 60)) {
        let hull_pts = convex_hull(&points);
        prop_assert!(!hull_pts.is_empty());
        prop_assert!(is_convex_polygon(&hull_pts));
        for p in &points {
            prop_assert!(
                point_in_convex_polygon(p, &hull_pts),
                "point {p} escaped its own hull"
            );
        }
        // Hull vertices are a subset of the input.
        for h in &hull_pts {
            prop_assert!(points.iter().any(|p| p.distance(h) <= 1e-9));
        }
    }

    #[test]
    fn hull_perimeter_never_exceeds_any_enclosing_tour(points in field_points(3, 40)) {
        // The convex hull is the shortest closed curve enclosing the points,
        // so it can never be longer than the closed polyline through all
        // points in input order.
        let hull_pts = convex_hull(&points);
        if hull_pts.len() >= 3 {
            let tour_len = Polyline::closed(points.clone()).length();
            prop_assert!(hull::perimeter(&hull_pts) <= tour_len + 1e-6);
        }
    }

    #[test]
    fn detour_cost_is_nonnegative(a in field_point(), b in field_point(), via in field_point()) {
        let seg = Segment::new(a, b);
        prop_assert!(seg.detour_cost(&via) >= -1e-9);
    }

    #[test]
    fn closed_polyline_point_at_wraps_consistently(points in field_points(2, 30), d in 0.0..10_000.0f64) {
        let p = Polyline::closed(points);
        let total = p.length();
        prop_assume!(total > 1e-6);
        let a = p.point_at(d).unwrap();
        let b = p.point_at(d + total).unwrap();
        prop_assert!(a.distance(&b) <= 1e-6, "wrap mismatch: {a} vs {b}");
    }

    #[test]
    fn equal_split_points_lie_on_the_path(points in field_points(2, 25), n in 1usize..12) {
        let p = Polyline::closed(points);
        let total = p.length();
        prop_assume!(total > 1e-6);
        let splits = p.equal_split_points(n);
        prop_assert_eq!(splits.len(), n);
        // Each split point is reachable at its nominal arc length.
        for (i, s) in splits.iter().enumerate() {
            let expected = p.point_at(total * i as f64 / n as f64).unwrap();
            prop_assert!(s.distance(&expected) <= 1e-9);
        }
    }

    #[test]
    fn kdtree_nearest_agrees_with_brute_force(points in field_points(1, 80), q in field_point()) {
        let tree = KdTree::build(&points);
        let (idx, d) = tree.nearest(&q).unwrap();
        let brute = points
            .iter()
            .map(|p| p.distance(&q))
            .fold(f64::INFINITY, f64::min);
        prop_assert!((d - brute).abs() <= 1e-9);
        prop_assert!((points[idx].distance(&q) - brute).abs() <= 1e-9);
    }

    #[test]
    fn kdtree_range_agrees_with_brute_force(points in field_points(0, 60), q in field_point(), r in 0.0..500.0f64) {
        let tree = KdTree::build(&points);
        let got = tree.within_radius(&q, r);
        let want: Vec<usize> = points
            .iter()
            .enumerate()
            .filter(|(_, p)| p.distance(&q) <= r)
            .map(|(i, _)| i)
            .collect();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn grid_range_agrees_with_brute_force(points in field_points(0, 60), q in field_point(), r in 0.0..300.0f64) {
        let grid = UniformGrid::build(&points, 20.0);
        let got = grid.within_radius(&q, r);
        let want: Vec<usize> = points
            .iter()
            .enumerate()
            .filter(|(_, p)| p.distance(&q) <= r)
            .map(|(i, _)| i)
            .collect();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn grid_nearest_agrees_with_brute_force(points in field_points(1, 60), q in field_point()) {
        let grid = UniformGrid::build(&points, 35.0);
        let (_, d) = grid.nearest(&q).unwrap();
        let brute = points
            .iter()
            .map(|p| p.distance(&q))
            .fold(f64::INFINITY, f64::min);
        prop_assert!((d - brute).abs() <= 1e-9);
    }

    #[test]
    fn northmost_point_is_at_least_as_north_as_all_others(points in field_points(1, 50)) {
        let idx = northmost_index(&points).unwrap();
        for p in &points {
            prop_assert!(points[idx].y >= p.y);
        }
    }

    #[test]
    fn rotation_preserves_cycle_length(points in field_points(1, 30), start in 0usize..30) {
        let p = Polyline::closed(points.clone());
        let start = start % points.len().max(1);
        let r = p.rotated_to_start(start);
        prop_assert!((p.length() - r.length()).abs() <= 1e-6);
        prop_assert_eq!(p.len(), r.len());
    }

    #[test]
    fn k_nearest_matches_repeated_descents_on_tied_grids(
        points in grid_points(1, 40),
        qx in 0u8..11,
        qy in 0u8..11,
    ) {
        // Half-grid queries put some queries on points, others between them.
        let q = Point::new(f64::from(qx) / 2.0, f64::from(qy) / 2.0);
        let tree = KdTree::build(&points);
        let mut heap = KnnHeap::default();
        let mut reused = Vec::new();
        for k in 1..=points.len() + 1 {
            let want = k_nearest_by_repeated_descents(&tree, &q, k);
            prop_assert_eq!(tree.k_nearest(&q, k), want.clone());
            tree.k_nearest_into(&q, k, &mut heap, &mut reused);
            prop_assert_eq!(&reused, &want);

            let mut brute: Vec<f64> = points.iter().map(|p| p.distance(&q)).collect();
            brute.sort_by(f64::total_cmp);
            brute.truncate(k);
            let got: Vec<f64> = want.iter().map(|&(_, d)| d).collect();
            prop_assert_eq!(got, brute);
        }
    }

    #[test]
    fn k_nearest_matches_repeated_descents_in_the_field(
        points in field_points(1, 60),
        q in field_point(),
        k in 1usize..12,
    ) {
        let tree = KdTree::build(&points);
        prop_assert_eq!(tree.k_nearest(&q, k), k_nearest_by_repeated_descents(&tree, &q, k));
    }
}
