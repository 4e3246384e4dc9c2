//! Hamiltonian cycles over point indices.
//!
//! A [`Tour`] is an ordering of the indices `0..n` interpreted as a closed
//! cycle: the mule visits `order[0], order[1], …, order[n-1]` and then
//! returns to `order[0]`. Planners manipulate tours by index so that target
//! metadata (weights, identities) stays attached to its original slot.

use crate::distance_matrix::DistanceMatrix;
use mule_geom::Point;
use serde::{Deserialize, Serialize};

/// An ordered Hamiltonian cycle over the point indices `0..n`.
///
/// The `Default` tour is empty (no points), which lets callers
/// `std::mem::take` a tour to work on its order without cloning.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Tour {
    order: Vec<usize>,
}

impl Tour {
    /// Creates a tour from an explicit visiting order.
    pub fn new(order: Vec<usize>) -> Self {
        Tour { order }
    }

    /// The identity tour `0, 1, …, n-1`.
    pub fn identity(n: usize) -> Self {
        Tour {
            order: (0..n).collect(),
        }
    }

    /// The visiting order (without the implicit closing edge).
    #[inline]
    pub fn order(&self) -> &[usize] {
        &self.order
    }

    /// Number of visited points.
    #[inline]
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Returns `true` for an empty tour.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Returns `true` when the tour is a permutation of `0..n` — every index
    /// appears exactly once.
    pub fn is_valid(&self) -> bool {
        let n = self.order.len();
        let mut seen = vec![false; n];
        for &i in &self.order {
            if i >= n || seen[i] {
                return false;
            }
            seen[i] = true;
        }
        true
    }

    /// Total length of the closed tour over `points`.
    pub fn length(&self, points: &[Point]) -> f64 {
        if self.order.len() < 2 {
            return 0.0;
        }
        let mut total = 0.0;
        for w in self.order.windows(2) {
            total += points[w[0]].distance(&points[w[1]]);
        }
        total + points[*self.order.last().unwrap()].distance(&points[self.order[0]])
    }

    /// Total length using a precomputed distance matrix.
    pub fn length_with_matrix(&self, dm: &DistanceMatrix) -> f64 {
        dm.cycle_length(&self.order)
    }

    /// Position of point index `target` within the tour, if present.
    pub fn position_of(&self, target: usize) -> Option<usize> {
        self.order.iter().position(|&i| i == target)
    }

    /// The directed edges of the tour as `(from_index, to_index)` pairs,
    /// including the closing edge.
    pub fn edges(&self) -> Vec<(usize, usize)> {
        let n = self.order.len();
        if n < 2 {
            return Vec::new();
        }
        (0..n)
            .map(|i| (self.order[i], self.order[(i + 1) % n]))
            .collect()
    }

    /// Rotates the tour (in place) so that traversal starts at the point
    /// index `start`. No-op when `start` is not in the tour.
    pub fn rotate_to_start(&mut self, start: usize) {
        if let Some(pos) = self.position_of(start) {
            self.order.rotate_left(pos);
        }
    }

    /// Reverses the sub-sequence of positions `[i, j]` (inclusive), the
    /// 2-opt move primitive. Indices are positions in the tour, not point
    /// indices; `i <= j` is required.
    ///
    /// This is the *literal* (array-level) reversal used by the exact
    /// pipeline, kept byte-for-byte stable so golden tours never change.
    /// The candidate-list local search uses [`Tour::reverse_arc`] instead,
    /// which reverses whichever cyclic arc is shorter.
    pub fn reverse_segment(&mut self, i: usize, j: usize) {
        if i < j && j < self.order.len() {
            self.order[i..=j].reverse();
        }
    }

    /// Builds the inverse mapping `pos[point] = position` of the current
    /// order, i.e. `pos[self.order()[p]] == p` for every position `p`.
    /// The candidate-list local search keeps this index up to date across
    /// [`Tour::reverse_arc`] calls to answer successor/predecessor queries
    /// in `O(1)`.
    pub fn position_index(&self) -> Vec<usize> {
        let mut pos = vec![0usize; self.order.len()];
        for (p, &i) in self.order.iter().enumerate() {
            pos[i] = p;
        }
        pos
    }

    /// Reverses the cyclic run of positions from `from` to `to` (inclusive,
    /// walking forward and wrapping past the end), updating the caller's
    /// position index in place.
    ///
    /// Unlike [`Tour::reverse_segment`] this is orientation-agnostic: when
    /// the complementary arc is shorter, *that* arc is physically reversed
    /// instead — an equivalent cycle under symmetric distances — so a 2-opt
    /// move always costs `O(min(arc, n − arc))` element swaps instead of a
    /// full-arc `O(n)` reverse. Length bookkeeping stays exact because the
    /// removed and added edges are identical either way.
    ///
    /// # Panics
    /// Panics (in debug builds) when `pos` is not the position index of the
    /// current order.
    pub fn reverse_arc(&mut self, from: usize, to: usize, pos: &mut [usize]) {
        let n = self.order.len();
        if n < 2 {
            return;
        }
        debug_assert_eq!(pos.len(), n, "position index length mismatch");
        let inner = (to + n - from) % n + 1;
        // Reverse whichever arc is shorter; reversing the complement
        // `[to+1, from-1]` produces the same cycle.
        let (mut a, mut b, len) = if inner <= n - inner {
            (from, to, inner)
        } else {
            ((to + 1) % n, (from + n - 1) % n, n - inner)
        };
        for _ in 0..len / 2 {
            self.order.swap(a, b);
            pos[self.order[a]] = a;
            pos[self.order[b]] = b;
            a = (a + 1) % n;
            b = (b + n - 1) % n;
        }
    }

    /// Moves the chain of `len` points at positions `start, start + 1, …`
    /// (wrapping past the end) to just after the point at position `after`,
    /// reversed if `reversed`, updating the caller's position index — the
    /// Or-opt move primitive.
    ///
    /// The result is the array a rebuild would produce: the other points
    /// in array order, starting from the first position at or after 0
    /// that is not in the chain, with the chain spliced in after them. It is
    /// built in place: a chain that does not wrap costs one rotation of the
    /// positions between it and `after`, and only those positions are
    /// re-indexed; a wrapping chain first rotates the whole array so the
    /// chain ends it.
    ///
    /// # Panics
    /// Panics when `after` lies inside the chain or `len` is not below the
    /// tour length.
    pub fn relocate_chain(
        &mut self,
        start: usize,
        len: usize,
        after: usize,
        reversed: bool,
        pos: &mut [usize],
    ) {
        let n = self.order.len();
        assert!(len < n, "chain of {len} in a tour of {n}");
        debug_assert_eq!(pos.len(), n, "position index length mismatch");
        let wrap = (start + len).saturating_sub(n);
        let (start, after) = if wrap > 0 {
            self.order.rotate_left(wrap);
            (start - wrap, after - wrap)
        } else {
            (start, after)
        };
        let (moved, chain) = if after > start {
            assert!(after >= start + len, "reinsertion point inside the chain");
            self.order[start..=after].rotate_left(len);
            (start..after + 1, after + 1 - len..after + 1)
        } else {
            self.order[after + 1..start + len].rotate_right(len);
            (after + 1..start + len, after + 1..after + 1 + len)
        };
        if reversed {
            self.order[chain].reverse();
        }
        let moved = if wrap > 0 { 0..n } else { moved };
        for p in moved {
            pos[self.order[p]] = p;
        }
    }

    /// Consumes the tour and returns the underlying order.
    pub fn into_order(self) -> Vec<usize> {
        self.order
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn square_points() -> Vec<Point> {
        vec![
            Point::new(0.0, 0.0),
            Point::new(10.0, 0.0),
            Point::new(10.0, 10.0),
            Point::new(0.0, 10.0),
        ]
    }

    #[test]
    fn identity_tour_is_valid_and_has_square_perimeter() {
        let pts = square_points();
        let tour = Tour::identity(4);
        assert!(tour.is_valid());
        assert_eq!(tour.len(), 4);
        assert!((tour.length(&pts) - 40.0).abs() < 1e-12);
        let dm = DistanceMatrix::from_points(&pts);
        assert!((tour.length_with_matrix(&dm) - 40.0).abs() < 1e-12);
    }

    #[test]
    fn validity_rejects_duplicates_and_out_of_range() {
        assert!(!Tour::new(vec![0, 1, 1, 3]).is_valid());
        assert!(!Tour::new(vec![0, 1, 2, 4]).is_valid());
        assert!(Tour::new(vec![]).is_valid());
        assert!(Tour::new(vec![2, 0, 1]).is_valid());
    }

    #[test]
    fn edges_wrap_around() {
        let tour = Tour::new(vec![2, 0, 3, 1]);
        assert_eq!(tour.edges(), vec![(2, 0), (0, 3), (3, 1), (1, 2)]);
        assert!(Tour::new(vec![7]).edges().is_empty());
    }

    #[test]
    fn cyclic_navigation_helpers() {
        let tour = Tour::identity(4);
        assert_eq!(tour.position_of(2), Some(2));
        assert_eq!(tour.position_of(9), None);
    }

    #[test]
    fn rotation_preserves_validity_and_length() {
        let pts = square_points();
        let mut tour = Tour::identity(4);
        tour.rotate_to_start(2);
        assert_eq!(tour.order()[0], 2);
        assert!(tour.is_valid());
        assert!((tour.length(&pts) - 40.0).abs() < 1e-12);
        // Rotating to an unknown index leaves the tour unchanged.
        let before = tour.clone();
        tour.rotate_to_start(99);
        assert_eq!(tour, before);
    }

    #[test]
    fn reverse_segment_performs_a_two_opt_move() {
        // A crossed square: 0-2-1-3 has crossing diagonals; reversing
        // positions 1..=2 uncrosses it.
        let pts = square_points();
        let mut tour = Tour::new(vec![0, 2, 1, 3]);
        let before = tour.length(&pts);
        tour.reverse_segment(1, 2);
        assert_eq!(tour.order(), &[0, 1, 2, 3]);
        assert!(tour.length(&pts) < before);
        assert!(tour.is_valid());
    }

    #[test]
    fn position_index_inverts_the_order() {
        let tour = Tour::new(vec![3, 1, 0, 2]);
        let pos = tour.position_index();
        for (p, &i) in tour.order().iter().enumerate() {
            assert_eq!(pos[i], p);
        }
    }

    #[test]
    fn reverse_arc_matches_reverse_segment_on_inner_arcs() {
        let mut a = Tour::new(vec![0, 1, 2, 3, 4, 5]);
        let mut b = a.clone();
        let mut pos = b.position_index();
        a.reverse_segment(1, 2);
        b.reverse_arc(1, 2, &mut pos);
        assert_eq!(a.order(), b.order());
        assert_eq!(pos, b.position_index());
    }

    #[test]
    fn reverse_arc_of_the_long_way_reverses_the_complement() {
        // Reversing positions 4..=1 (wrapping) touches {4, 5, 0, 1}; the
        // complement {2, 3} is shorter, so that is what physically moves.
        let pts = square_points();
        let mut tour = Tour::new(vec![0, 2, 1, 3]);
        let before = tour.length(&pts);
        let mut pos = tour.position_index();
        // Same 2-opt move as reverse_segment(1, 2) expressed as the
        // complementary wrapped arc 3..=0.
        tour.reverse_arc(3, 0, &mut pos);
        assert!(tour.is_valid());
        assert!(tour.length(&pts) < before, "the square is uncrossed");
        assert_eq!(pos, tour.position_index());
        // The cycle is 0-1-2-3 up to rotation/direction: every edge has
        // length 10.
        let dm = DistanceMatrix::from_points(&pts);
        assert!((tour.length_with_matrix(&dm) - 40.0).abs() < 1e-12);
    }

    #[test]
    fn reverse_arc_keeps_cycles_equivalent_on_random_moves() {
        // Cross-check: reverse_arc(from, to) and an order rebuilt by hand
        // give identical cyclic lengths for every (from, to) pair.
        let pts: Vec<Point> = (0..9u64)
            .map(|i| {
                Point::new(
                    (i.wrapping_mul(131) % 300) as f64,
                    (i.wrapping_mul(57) % 300) as f64,
                )
            })
            .collect();
        let n = pts.len();
        for from in 0..n {
            for to in 0..n {
                let mut tour = Tour::identity(n);
                let mut pos = tour.position_index();
                tour.reverse_arc(from, to, &mut pos);
                assert!(tour.is_valid(), "from={from} to={to}");
                assert_eq!(pos, tour.position_index(), "from={from} to={to}");

                // Reference: reverse the cyclic run [from, to] explicitly.
                let mut reference: Vec<usize> = (0..n).collect();
                let len = (to + n - from) % n + 1;
                let run: Vec<usize> = (0..len).map(|s| reference[(from + s) % n]).collect();
                for (s, &v) in run.iter().rev().enumerate() {
                    reference[(from + s) % n] = v;
                }
                let expected = Tour::new(reference).length(&pts);
                assert!(
                    (tour.length(&pts) - expected).abs() < 1e-9,
                    "from={from} to={to}: {} vs {expected}",
                    tour.length(&pts)
                );
            }
        }
    }

    #[test]
    fn into_order_returns_the_backing_vector() {
        let tour = Tour::new(vec![3, 1, 0, 2]);
        assert_eq!(tour.into_order(), vec![3, 1, 0, 2]);
    }
}
