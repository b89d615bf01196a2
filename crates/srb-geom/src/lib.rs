//! # srb-geom
//!
//! Geometry primitives and inscribed-rectangle (*Ir-lp*) computations for the
//! safe-region-based monitoring framework of Hu, Xu & Lee (SIGMOD 2005),
//! *A Generic Framework for Monitoring Continuous Spatial Queries over
//! Moving Objects*.
//!
//! The crate provides:
//!
//! - [`Point`], [`Rect`], [`Circle`], [`Ring`] with the paper's `δ`/`Δ`
//!   (minimum / maximum) distance functions;
//! - the four *Ir-lp* constructions of §5 ([`irlp_circle`],
//!   [`irlp_circle_complement`], [`irlp_ring`],
//!   [`irlp_rect_complement_batch`]) that turn quarantine constraints into
//!   maximal-perimeter safe-region rectangles;
//! - perimeter objectives ([`OrdinaryPerimeter`] for Theorem 5.1,
//!   [`WeightedPerimeter`] for the §6.2 steady-movement enhancement).
//!
//! Everything is deterministic, allocation-light, and independent of the
//! rest of the framework; higher layers (`srb-index`, `srb-core`) build on
//! these primitives.

#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![deny(unsafe_code)]

mod circle;
mod irlp;
mod objective;
mod point;
mod rect;

pub use circle::{Circle, Ring};
pub use irlp::{
    irlp_circle, irlp_circle_complement, irlp_rect_complement_batch,
    irlp_rect_complement_batch_with, irlp_ring, StaircaseScratch,
};
pub use objective::{ClearanceObjective, OrdinaryPerimeter, PerimeterObjective, WeightedPerimeter};
pub use point::Point;
pub use rect::Rect;
