//! # mule-geom
//!
//! Planar geometry substrate for the wireless mobile data-mule patrolling
//! system. Everything the planners and the simulator need to reason about
//! the monitoring field lives here:
//!
//! * [`Point`] — a 2-D location in metres, with distance / bearing helpers.
//! * [`angle`] — counter-clockwise included angles used by the W-TCTP
//!   patrolling rule ("pick the outgoing edge with the minimal CCW angle").
//! * [`Segment`] — directed edges of a patrolling path, with length,
//!   interpolation and point-projection.
//! * [`hull`] — convex-hull construction (Andrew monotone chain) that seeds
//!   the CHB Hamiltonian-circuit heuristic of reference \[5\].
//! * [`BoundingBox`] — axis-aligned extents of a field or target cluster.
//! * [`Polyline`] — open/closed chains of points with arc-length queries,
//!   used to walk a mule a given distance along a patrolling route.
//! * [`KdTree`] — nearest-neighbour queries (closest start point, closest
//!   target) in `O(log n)` expected time.
//! * [`UniformGrid`] — bucketed spatial index for range queries
//!   (which targets are within communication range of a mule).
//!
//! The crate is dependency-light (only `serde` for persisting scenarios) and
//! panic-free on degenerate input wherever a sensible total behaviour
//! exists; degenerate cases that have no sensible answer return `Option`.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod angle;
pub mod bbox;
pub mod grid;
pub mod hull;
pub mod kdtree;
pub mod point;
pub mod polyline;
pub mod segment;

pub use angle::{ccw_included_angle, normalize_angle, Bearing};
pub use bbox::BoundingBox;
pub use grid::UniformGrid;
pub use hull::{convex_hull, hull_diameter, is_convex_polygon, point_in_convex_polygon};
pub use kdtree::{KdTree, KnnHeap};
pub use point::Point;
pub use polyline::Polyline;
pub use segment::Segment;

/// Numerical tolerance used by geometric predicates throughout the crate.
///
/// Distances are metres; the paper's field is 800 m × 800 m, so a nanometre
/// tolerance is far below any physically meaningful difference while being
/// far above `f64` rounding error for coordinates of this magnitude.
pub const EPSILON: f64 = 1e-9;

/// Returns `true` when two floating-point lengths are equal within
/// [`EPSILON`] (absolute) or a relative tolerance of `1e-12`.
#[inline]
pub fn approx_eq(a: f64, b: f64) -> bool {
    let diff = (a - b).abs();
    diff <= EPSILON || diff <= f64::max(a.abs(), b.abs()) * 1e-12
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn approx_eq_accepts_identical_values() {
        assert!(approx_eq(1.0, 1.0));
        assert!(approx_eq(0.0, 0.0));
    }

    #[test]
    fn approx_eq_accepts_tiny_absolute_differences() {
        assert!(approx_eq(1.0, 1.0 + 1e-10));
        assert!(approx_eq(-3.5, -3.5 - 1e-10));
    }

    #[test]
    fn approx_eq_accepts_relative_differences_on_large_values() {
        let a = 1.0e12;
        assert!(approx_eq(a, a + 0.5e-1 * 1e-12 * a));
    }

    #[test]
    fn approx_eq_rejects_clear_differences() {
        assert!(!approx_eq(1.0, 1.1));
        assert!(!approx_eq(0.0, 1e-3));
    }
}
