//! # dct-layout
//!
//! The data-transformation framework (Section 4 of the paper): strip-mining
//! and permutation primitives, composed layouts with exact address maps,
//! the per-distributed-dimension synthesis algorithm that makes each
//! processor's data contiguous, and the Figure 2/3 diagram generators.

#![allow(clippy::needless_range_loop, clippy::manual_memcpy)]

pub mod diagonal;
pub mod diagram;
pub mod layout;
pub mod synthesize;

pub use diagonal::{diagonal_embedded, PackedDiagonals};
pub use layout::{AffineProbe, DataLayout, DataTransform};
pub use synthesize::{synthesize_array_layout, synthesize_layouts, ArrayLayout, DistInfo};
