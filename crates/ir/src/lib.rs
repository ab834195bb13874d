//! # dct-ir
//!
//! The affine program representation consumed by every compiler phase:
//! affine forms ([`Aff`]), access functions ([`AffineAccess`]), statements,
//! perfectly nested affine loop nests, and whole programs with a builder
//! DSL. This plays the role of SUIF's restricted affine IR in the paper.

#![allow(clippy::needless_range_loop, clippy::manual_memcpy)]

pub mod access;
pub mod cancel;
pub mod checksum;
pub mod error;
pub mod expr;
pub mod fingerprint;
pub mod mem;
pub mod pretty;
pub mod program;
pub mod race;

pub use access::{AffineAccess, ArrayId, ArrayRef};
pub use cancel::CancelToken;
pub use checksum::{checksum_arenas, ChecksumAcc};
pub use error::{panic_message, DctError, DctResult, ErrorKind, Phase};
pub use fingerprint::{program_fingerprint, FpHasher, FP_SCHEMA};
pub use mem::{esc, MemProfile, MemRow};
pub use race::{Race, RaceAccess, RaceKind, RaceReport};
pub use expr::{Aff, BinOp, Expr};
pub use pretty::render_program;
pub use program::{ArrayDecl, BoundForm, LoopBounds, LoopNest, NestBuilder, NestId, Param, Program, ProgramBuilder, Stmt, TimeLoop};
