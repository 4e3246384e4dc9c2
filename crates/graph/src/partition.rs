//! Spatial partitioning of target sets.
//!
//! The Sweep baseline (paper reference \[4\]) "divides the DMs into several
//! groups and then each DM individually patrols the targets of one group".
//! This module provides the grouping primitives:
//!
//! * [`angular_partition`] — contiguous angular sectors around a pivot
//!   (balanced by count), the default Sweep grouping;
//! * [`kmeans_partition`] — Lloyd's k-means over target positions with
//!   deterministic farthest-point seeding, an alternative grouping that
//!   produces spatially compact groups for disconnected-cluster fields.
//!
//! Both return one vector of indices (into the input slice) per group; every
//! input index appears in exactly one group and empty groups are allowed
//! only when there are fewer points than groups.

use mule_geom::Point;

/// Groups `points` into `groups` contiguous angular sectors around `pivot`,
/// balanced by count. Returns `groups` vectors of indices (some possibly
/// empty when there are fewer points than groups).
pub fn angular_partition(points: &[Point], pivot: &Point, groups: usize) -> Vec<Vec<usize>> {
    let groups = groups.max(1);
    let mut indexed: Vec<(usize, f64)> = points
        .iter()
        .enumerate()
        .map(|(i, p)| (i, (*p - *pivot).angle()))
        .collect();
    indexed.sort_by(|a, b| a.1.total_cmp(&b.1));

    let mut out = vec![Vec::new(); groups];
    if indexed.is_empty() {
        return out;
    }
    let per_group = indexed.len().div_ceil(groups);
    for (rank, (idx, _)) in indexed.into_iter().enumerate() {
        out[(rank / per_group).min(groups - 1)].push(idx);
    }
    out
}

/// Groups `points` into `groups` clusters with Lloyd's k-means.
///
/// Seeding is deterministic farthest-point traversal (the first centre is
/// the point closest to the centroid, each further centre the point farthest
/// from all chosen centres), so the partition is reproducible without an
/// RNG. Runs at most `max_iters` Lloyd iterations (or until assignments
/// stop changing). Empty clusters are repaired by stealing the point
/// farthest from its centre in the largest cluster.
pub fn kmeans_partition(points: &[Point], groups: usize, max_iters: usize) -> Vec<Vec<usize>> {
    let groups = groups.max(1);
    let n = points.len();
    if n == 0 {
        return vec![Vec::new(); groups];
    }
    if groups >= n {
        let mut out = vec![Vec::new(); groups];
        for (i, slot) in out.iter_mut().enumerate().take(n) {
            slot.push(i);
        }
        return out;
    }

    // Farthest-point seeding.
    let centroid = Point::centroid(points).expect("non-empty");
    let first = (0..n)
        .min_by(|&a, &b| {
            points[a]
                .distance_squared(&centroid)
                .total_cmp(&points[b].distance_squared(&centroid))
        })
        .expect("non-empty");
    let mut centers: Vec<Point> = vec![points[first]];
    while centers.len() < groups {
        let next = (0..n)
            .max_by(|&a, &b| {
                let da = centers
                    .iter()
                    .map(|c| points[a].distance_squared(c))
                    .fold(f64::INFINITY, f64::min);
                let db = centers
                    .iter()
                    .map(|c| points[b].distance_squared(c))
                    .fold(f64::INFINITY, f64::min);
                da.total_cmp(&db)
            })
            .expect("non-empty");
        centers.push(points[next]);
    }

    let mut assignment = vec![0usize; n];
    for _ in 0..max_iters.max(1) {
        // Assign.
        let mut changed = false;
        for (i, p) in points.iter().enumerate() {
            let best = centers
                .iter()
                .enumerate()
                .min_by(|(_, a), (_, b)| p.distance_squared(a).total_cmp(&p.distance_squared(b)))
                .map(|(k, _)| k)
                .unwrap_or(0);
            if assignment[i] != best {
                assignment[i] = best;
                changed = true;
            }
        }
        // Update.
        for (k, center) in centers.iter_mut().enumerate() {
            let members: Vec<Point> = (0..n)
                .filter(|&i| assignment[i] == k)
                .map(|i| points[i])
                .collect();
            if let Some(c) = Point::centroid(&members) {
                *center = c;
            }
        }
        if !changed {
            break;
        }
    }

    let mut out = vec![Vec::new(); groups];
    for (i, &k) in assignment.iter().enumerate() {
        out[k].push(i);
    }

    // Repair empty clusters so every mule gets work when n >= groups.
    while let Some(empty) = out.iter().position(Vec::is_empty) {
        let Some(donor) = (0..groups)
            .filter(|&k| out[k].len() > 1)
            .max_by_key(|&k| out[k].len())
        else {
            break;
        };
        // Move the donor's point farthest from the donor centre.
        let donor_center =
            Point::centroid(&out[donor].iter().map(|&i| points[i]).collect::<Vec<_>>())
                .expect("donor non-empty");
        let (slot, _) = out[donor]
            .iter()
            .enumerate()
            .max_by(|(_, &a), (_, &b)| {
                points[a]
                    .distance_squared(&donor_center)
                    .total_cmp(&points[b].distance_squared(&donor_center))
            })
            .expect("donor non-empty");
        let moved = out[donor].remove(slot);
        out[empty].push(moved);
    }
    out
}

/// Sum over groups of the total pairwise within-group distance — a compactness
/// score for comparing partitions (smaller is more compact).
#[cfg(test)]
fn within_group_spread(points: &[Point], groups: &[Vec<usize>]) -> f64 {
    let mut total = 0.0;
    for group in groups {
        for (a_pos, &a) in group.iter().enumerate() {
            for &b in &group[a_pos + 1..] {
                total += points[a].distance(&points[b]);
            }
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn is_partition(n: usize, groups: &[Vec<usize>]) -> bool {
        let mut all: Vec<usize> = groups.iter().flatten().copied().collect();
        all.sort_unstable();
        all == (0..n).collect::<Vec<_>>()
    }

    fn three_clusters() -> Vec<Point> {
        let mut pts = Vec::new();
        for (cx, cy) in [(100.0, 100.0), (700.0, 120.0), (400.0, 700.0)] {
            for k in 0..6 {
                pts.push(Point::new(
                    cx + (k % 3) as f64 * 8.0,
                    cy + (k / 3) as f64 * 8.0,
                ));
            }
        }
        pts
    }

    #[test]
    fn angular_partition_is_a_balanced_partition() {
        let pts = three_clusters();
        let groups = angular_partition(&pts, &Point::new(400.0, 300.0), 3);
        assert_eq!(groups.len(), 3);
        assert!(is_partition(pts.len(), &groups));
        assert!(groups.iter().all(|g| g.len() == 6));
    }

    #[test]
    fn angular_partition_handles_degenerate_inputs() {
        assert_eq!(angular_partition(&[], &Point::ORIGIN, 3).len(), 3);
        let single = angular_partition(&[Point::new(1.0, 1.0)], &Point::ORIGIN, 4);
        assert_eq!(single.iter().map(Vec::len).sum::<usize>(), 1);
        // Zero groups clamps to one.
        let one = angular_partition(&three_clusters(), &Point::ORIGIN, 0);
        assert_eq!(one.len(), 1);
        assert_eq!(one[0].len(), 18);
    }

    #[test]
    fn kmeans_recovers_well_separated_clusters() {
        let pts = three_clusters();
        let groups = kmeans_partition(&pts, 3, 50);
        assert!(is_partition(pts.len(), &groups));
        // Each recovered group must be one of the ground-truth blocks of six
        // consecutive indices.
        for g in &groups {
            assert_eq!(g.len(), 6);
            let base = g[0] / 6;
            assert!(g.iter().all(|&i| i / 6 == base), "mixed cluster: {g:?}");
        }
    }

    #[test]
    fn kmeans_handles_fewer_points_than_groups() {
        let pts = vec![Point::new(0.0, 0.0), Point::new(10.0, 0.0)];
        let groups = kmeans_partition(&pts, 5, 10);
        assert_eq!(groups.len(), 5);
        assert!(is_partition(2, &groups));
        assert!(kmeans_partition(&[], 3, 10).iter().all(Vec::is_empty));
    }

    #[test]
    fn kmeans_never_leaves_a_group_empty_when_enough_points_exist() {
        // Points arranged so naive seeding could starve a cluster.
        let pts: Vec<Point> = (0..12).map(|i| Point::new(i as f64, 0.0)).collect();
        let groups = kmeans_partition(&pts, 4, 30);
        assert!(is_partition(12, &groups));
        assert!(groups.iter().all(|g| !g.is_empty()));
    }

    #[test]
    fn kmeans_is_deterministic() {
        let pts = three_clusters();
        assert_eq!(kmeans_partition(&pts, 3, 50), kmeans_partition(&pts, 3, 50));
    }

    #[test]
    fn kmeans_is_at_least_as_compact_as_angular_on_clustered_data() {
        let pts = three_clusters();
        let pivot = Point::centroid(&pts).unwrap();
        let angular = angular_partition(&pts, &pivot, 3);
        let kmeans = kmeans_partition(&pts, 3, 50);
        assert!(within_group_spread(&pts, &kmeans) <= within_group_spread(&pts, &angular) + 1e-9);
    }

    #[test]
    fn within_group_spread_of_singletons_is_zero() {
        let pts = three_clusters();
        let singletons: Vec<Vec<usize>> = (0..pts.len()).map(|i| vec![i]).collect();
        assert_eq!(within_group_spread(&pts, &singletons), 0.0);
    }
}
