//! Pixel-grid geometry substrate for the CFAOPC workspace.
//!
//! Masks, aerial images and gradients all live on a dense pixel grid; this
//! crate provides the shared machinery:
//!
//! * [`Grid2D`] / [`BitGrid`] — dense real-valued and binary canvases,
//! * [`Rect`], [`fill_rect`], [`fill_circle`], [`fill_rectilinear_polygon`]
//!   — rasterization of targets and circular shots,
//! * [`connected_components`] — Algorithm 1's `findConnectedRegions`,
//! * [`skeletonize`] — Algorithm 1's `findSkeleton` (Zhang–Suen thinning),
//! * [`dilate`]/[`erode`]/[`open`]/[`close`] — binary morphology,
//! * [`distance_to`]/[`interior_distance`] — exact Euclidean distance
//!   transforms for EPE and coverage completion,
//! * [`boundary_pixels`] — printed-contour extraction.
//!
//! # Examples
//!
//! Fracture-style bookkeeping — rasterize a circle and measure how much of
//! it lands inside a mask region (the Algorithm 1 cover rate):
//!
//! ```
//! use cfaopc_grid::{disk_area, disk_points, fill_rect, BitGrid, Point, Rect};
//!
//! let mut mask = BitGrid::new(64, 64);
//! fill_rect(&mut mask, Rect::new(8, 8, 56, 40));
//! let center = Point::new(30, 24);
//! let r = 10;
//! let inside = disk_points(center, r, 64, 64)
//!     .into_iter()
//!     .filter(|&p| mask.at(p))
//!     .count();
//! let cover_rate = inside as f64 / disk_area(r) as f64;
//! assert!(cover_rate > 0.99);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod boundary;
mod components;
mod distance;
mod grid;
mod morph;
mod raster;
mod skeleton;

pub use boundary::{boundary_pixels, perimeter};
pub use components::{connected_components, remove_small_regions, Connectivity, Labeling, Region};
pub use distance::{distance_to, interior_distance, squared_distance_to};
pub use grid::{BitGrid, Grid2D, Point};
pub use morph::{close, dilate, erode, open, Structuring};
pub use raster::{
    disk_area, disk_points, fill_circle, fill_rect, fill_rectilinear_polygon, upsample_bilinear,
    Rect,
};
pub use skeleton::{endpoints, skeletonize};
