//! A 2-D kd-tree for nearest-neighbour and range queries.
//!
//! Used by the B-TCTP location-initialisation step (each mule moves to the
//! *closest* start point), by the Random baseline (closest unvisited
//! target), and by the radio substrate (which targets are within
//! communication range of a mule). The tree stores indices into the
//! caller's point slice so callers can map hits back to their own entities.

use crate::bbox::BoundingBox;
use crate::point::Point;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A static (build-once) kd-tree over a set of points.
#[derive(Debug, Clone)]
pub struct KdTree {
    nodes: Vec<Node>,
    root: Option<usize>,
    size: usize,
}

#[derive(Debug, Clone)]
struct Node {
    point: Point,
    /// Index of this point in the slice the tree was built from.
    index: usize,
    left: Option<usize>,
    right: Option<usize>,
    /// Bounding box of the subtree rooted here, used for pruning.
    bbox: BoundingBox,
}

impl KdTree {
    /// Builds a kd-tree over `points`. Duplicates are allowed; each input
    /// index appears exactly once in query results.
    pub fn build(points: &[Point]) -> Self {
        let mut indexed: Vec<(usize, Point)> = points.iter().copied().enumerate().collect();
        let mut nodes = Vec::with_capacity(points.len());
        let root = Self::build_recursive(&mut indexed[..], 0, &mut nodes);
        KdTree {
            nodes,
            root,
            size: points.len(),
        }
    }

    /// Number of points stored in the tree.
    #[inline]
    pub fn len(&self) -> usize {
        self.size
    }

    /// Returns `true` when the tree holds no points.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.size == 0
    }

    fn build_recursive(
        items: &mut [(usize, Point)],
        depth: usize,
        nodes: &mut Vec<Node>,
    ) -> Option<usize> {
        if items.is_empty() {
            return None;
        }
        let axis = depth % 2;
        items.sort_by(|a, b| {
            let (ka, kb) = if axis == 0 {
                (a.1.x, b.1.x)
            } else {
                (a.1.y, b.1.y)
            };
            ka.total_cmp(&kb)
        });
        let mid = items.len() / 2;
        let (orig_index, point) = items[mid];

        let node_slot = nodes.len();
        nodes.push(Node {
            point,
            index: orig_index,
            left: None,
            right: None,
            bbox: BoundingBox::from_corners(point, point),
        });

        // Split the slice around the median without re-borrowing `items`.
        let (left_slice, rest) = items.split_at_mut(mid);
        let right_slice = &mut rest[1..];
        let left = Self::build_recursive(left_slice, depth + 1, nodes);
        let right = Self::build_recursive(right_slice, depth + 1, nodes);

        let mut bbox = BoundingBox::from_corners(point, point);
        if let Some(l) = left {
            let b = nodes[l].bbox;
            bbox.expand_to(&Point::new(b.min_x, b.min_y));
            bbox.expand_to(&Point::new(b.max_x, b.max_y));
        }
        if let Some(r) = right {
            let b = nodes[r].bbox;
            bbox.expand_to(&Point::new(b.min_x, b.min_y));
            bbox.expand_to(&Point::new(b.max_x, b.max_y));
        }
        nodes[node_slot].left = left;
        nodes[node_slot].right = right;
        nodes[node_slot].bbox = bbox;
        Some(node_slot)
    }

    /// Index (into the original slice) and distance of the point nearest to
    /// `query`, or `None` when the tree is empty.
    pub fn nearest(&self, query: &Point) -> Option<(usize, f64)> {
        self.nearest_filtered(query, |_| true)
    }

    /// Nearest point whose original index satisfies `accept`. Lets callers
    /// exclude already-visited targets or the querying mule itself.
    pub fn nearest_filtered<F: Fn(usize) -> bool>(
        &self,
        query: &Point,
        accept: F,
    ) -> Option<(usize, f64)> {
        let root = self.root?;
        let mut best: Option<(usize, f64)> = None;
        self.nearest_recursive(root, query, &accept, &mut best);
        best.map(|(i, d2)| (i, d2.sqrt()))
    }

    fn nearest_recursive<F: Fn(usize) -> bool>(
        &self,
        node_idx: usize,
        query: &Point,
        accept: &F,
        best: &mut Option<(usize, f64)>,
    ) {
        let node = &self.nodes[node_idx];
        // Prune whole subtrees that cannot contain a closer accepted point.
        if let Some((_, best_d2)) = best {
            if node.bbox.distance_squared_to(query) > *best_d2 {
                return;
            }
        }
        let d2 = node.point.distance_squared(query);
        if accept(node.index) && best.map(|(_, b)| d2 < b).unwrap_or(true) {
            *best = Some((node.index, d2));
        }
        // Visit the child on the query's side first for better pruning.
        let children = [node.left, node.right];
        let mut order = [0usize, 1usize];
        if let (Some(l), Some(r)) = (node.left, node.right) {
            let dl = self.nodes[l].bbox.distance_squared_to(query);
            let dr = self.nodes[r].bbox.distance_squared_to(query);
            if dr < dl {
                order = [1, 0];
            }
        }
        for &side in &order {
            if let Some(child) = children[side] {
                self.nearest_recursive(child, query, accept, best);
            }
        }
    }

    /// Indices of all points within `radius` metres of `query` (inclusive),
    /// in ascending index order.
    pub fn within_radius(&self, query: &Point, radius: f64) -> Vec<usize> {
        let mut out = Vec::new();
        if let Some(root) = self.root {
            let r2 = radius * radius;
            self.range_recursive(root, query, r2, &mut out);
        }
        out.sort_unstable();
        out
    }

    fn range_recursive(&self, node_idx: usize, query: &Point, r2: f64, out: &mut Vec<usize>) {
        let node = &self.nodes[node_idx];
        if node.bbox.distance_squared_to(query) > r2 {
            return;
        }
        if node.point.distance_squared(query) <= r2 {
            out.push(node.index);
        }
        if let Some(l) = node.left {
            self.range_recursive(l, query, r2, out);
        }
        if let Some(r) = node.right {
            self.range_recursive(r, query, r2, out);
        }
    }

    /// `k` nearest neighbours of `query` (fewer when the tree is smaller),
    /// sorted by increasing distance. Ties break by the order in which the
    /// descent visits the points, so the list is exactly what `k` successive
    /// [`nearest_filtered`](Self::nearest_filtered) calls, each excluding
    /// the hits before it, would return — duplicates included.
    pub fn k_nearest(&self, query: &Point, k: usize) -> Vec<(usize, f64)> {
        let mut out = Vec::with_capacity(k.min(self.size));
        self.k_nearest_into(query, k, &mut KnnHeap::default(), &mut out);
        out
    }

    /// [`k_nearest`](Self::k_nearest) into a caller-owned buffer: `out` is
    /// cleared and refilled, and `heap` is scratch space. A caller querying
    /// many points reuses both, so a query allocates nothing once they have
    /// grown to `k`.
    ///
    /// One descent in the same child order as
    /// [`nearest_filtered`](Self::nearest_filtered) keeps the best `k`
    /// points seen in a bounded max-heap keyed by (squared distance, visit
    /// order), pruning subtrees strictly farther than the heap's worst.
    pub fn k_nearest_into(
        &self,
        query: &Point,
        k: usize,
        heap: &mut KnnHeap,
        out: &mut Vec<(usize, f64)>,
    ) {
        out.clear();
        heap.entries.clear();
        heap.visited = 0;
        if k == 0 {
            return;
        }
        if let Some(root) = self.root {
            let root_d2 = self.nodes[root].bbox.distance_squared_to(query);
            self.k_nearest_recursive(root, root_d2, query, k, heap);
        }
        // Sort in place and hand the buffer back, keeping its capacity.
        let mut sorted = std::mem::take(&mut heap.entries).into_sorted_vec();
        out.extend(sorted.iter().map(|e| (e.index, e.d2.sqrt())));
        sorted.clear();
        heap.entries = BinaryHeap::from(sorted);
    }

    /// `node_d2` is the squared distance from `query` to the node's
    /// bounding box, computed once by the caller.
    fn k_nearest_recursive(
        &self,
        node_idx: usize,
        node_d2: f64,
        query: &Point,
        k: usize,
        heap: &mut KnnHeap,
    ) {
        // Every point of the true k nearest lies no farther than the heap's
        // worst, so its subtree is never pruned (ties are not pruned).
        if heap.entries.len() == k && heap.entries.peek().is_some_and(|w| node_d2 > w.d2) {
            return;
        }
        let node = &self.nodes[node_idx];
        heap.offer(node.point.distance_squared(query), node.index, k);
        let child_d2 =
            |c: Option<usize>| c.map(|c| (c, self.nodes[c].bbox.distance_squared_to(query)));
        let (mut first, mut second) = (child_d2(node.left), child_d2(node.right));
        // The child order of `nearest_recursive`: the right child first
        // only when both exist and it is strictly closer.
        if let (Some((_, dl)), Some((_, dr))) = (first, second) {
            if dr < dl {
                std::mem::swap(&mut first, &mut second);
            }
        }
        for (child, d2) in [first, second].into_iter().flatten() {
            self.k_nearest_recursive(child, d2, query, k, heap);
        }
    }
}

/// Scratch space for [`KdTree::k_nearest_into`]: the bounded max-heap of
/// the best points seen so far, reusable across queries.
#[derive(Debug, Clone, Default)]
pub struct KnnHeap {
    entries: BinaryHeap<KnnEntry>,
    /// Points offered in the current descent, the tie-break key.
    visited: usize,
}

impl KnnHeap {
    /// Offers the next visited point; keeps it if it is among the best `k`.
    /// A later visit never beats an equal distance, so a full heap takes
    /// only strictly closer points.
    fn offer(&mut self, d2: f64, index: usize, k: usize) {
        let entry = KnnEntry {
            d2,
            visit: self.visited,
            index,
        };
        self.visited += 1;
        if self.entries.len() < k {
            self.entries.push(entry);
        } else if let Some(mut worst) = self.entries.peek_mut() {
            if d2 < worst.d2 {
                *worst = entry;
            }
        }
    }
}

/// A heap entry, ordered by (squared distance, visit order).
#[derive(Debug, Clone, Copy)]
struct KnnEntry {
    d2: f64,
    visit: usize,
    index: usize,
}

impl Ord for KnnEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        self.d2
            .total_cmp(&other.d2)
            .then(self.visit.cmp(&other.visit))
    }
}

impl PartialOrd for KnnEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for KnnEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for KnnEntry {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    fn sample_points() -> Vec<Point> {
        vec![
            Point::new(0.0, 0.0),
            Point::new(10.0, 0.0),
            Point::new(10.0, 10.0),
            Point::new(0.0, 10.0),
            Point::new(5.0, 5.0),
            Point::new(100.0, 100.0),
        ]
    }

    #[test]
    fn nearest_finds_the_geometrically_closest_point() {
        let pts = sample_points();
        let tree = KdTree::build(&pts);
        let (idx, d) = tree.nearest(&Point::new(6.0, 6.0)).unwrap();
        assert_eq!(idx, 4);
        assert!(approx_eq(d, 2.0_f64.sqrt()));
    }

    #[test]
    fn nearest_of_empty_tree_is_none() {
        let tree = KdTree::build(&[]);
        assert!(tree.is_empty());
        assert_eq!(tree.len(), 0);
        assert!(tree.nearest(&Point::ORIGIN).is_none());
    }

    #[test]
    fn nearest_filtered_skips_rejected_indices() {
        let pts = sample_points();
        let tree = KdTree::build(&pts);
        let (idx, _) = tree
            .nearest_filtered(&Point::new(6.0, 6.0), |i| i != 4)
            .unwrap();
        assert_eq!(idx, 2, "with (5,5) excluded, (10,10) is next closest");
        assert!(tree.nearest_filtered(&Point::ORIGIN, |_| false).is_none());
    }

    #[test]
    fn within_radius_returns_exactly_the_in_range_points() {
        let pts = sample_points();
        let tree = KdTree::build(&pts);
        let hits = tree.within_radius(&Point::new(0.0, 0.0), 12.0);
        assert_eq!(hits, vec![0, 1, 3, 4]);
        let none = tree.within_radius(&Point::new(-100.0, -100.0), 5.0);
        assert!(none.is_empty());
        // Radius is inclusive.
        let edge = tree.within_radius(&Point::new(0.0, 0.0), 10.0);
        assert!(edge.contains(&1) && edge.contains(&3));
    }

    #[test]
    fn k_nearest_is_sorted_by_distance_and_bounded_by_tree_size() {
        let pts = sample_points();
        let tree = KdTree::build(&pts);
        let knn = tree.k_nearest(&Point::new(0.0, 0.0), 3);
        assert_eq!(knn.len(), 3);
        assert_eq!(knn[0].0, 0);
        for w in knn.windows(2) {
            assert!(w[0].1 <= w[1].1);
        }
        let all = tree.k_nearest(&Point::new(0.0, 0.0), 99);
        assert_eq!(all.len(), pts.len());
    }

    #[test]
    fn brute_force_agreement_on_a_fixed_grid() {
        // Exhaustive cross-check of nearest() against brute force over a
        // deterministic grid of query points.
        let pts: Vec<Point> = (0..50)
            .map(|i| Point::new((i * 37 % 100) as f64, (i * 59 % 100) as f64))
            .collect();
        let tree = KdTree::build(&pts);
        for qi in 0..25 {
            let q = Point::new((qi * 13 % 100) as f64 + 0.5, (qi * 7 % 100) as f64 + 0.25);
            let (tree_idx, tree_d) = tree.nearest(&q).unwrap();
            let brute = pts
                .iter()
                .enumerate()
                .min_by(|a, b| {
                    a.1.distance_squared(&q)
                        .total_cmp(&b.1.distance_squared(&q))
                })
                .unwrap();
            assert!(approx_eq(tree_d, brute.1.distance(&q)));
            assert!(approx_eq(pts[tree_idx].distance(&q), brute.1.distance(&q)));
        }
    }

    #[test]
    fn duplicate_points_are_all_retrievable() {
        let pts = vec![Point::new(1.0, 1.0); 4];
        let tree = KdTree::build(&pts);
        let knn = tree.k_nearest(&Point::new(1.0, 1.0), 4);
        let mut indices: Vec<usize> = knn.iter().map(|(i, _)| *i).collect();
        indices.sort_unstable();
        assert_eq!(indices, vec![0, 1, 2, 3]);
    }
}
