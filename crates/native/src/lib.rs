//! # dct-native
//!
//! Real multithreaded execution of compiled SPMD programs: the third leg
//! of the differential oracle. The simulator (`dct-spmd`) executes the
//! certified schedule one processor at a time against a machine model;
//! `emit_c` renders the same schedule as C source; this crate *runs* it —
//! one OS thread per simulated processor over shared `f64` arenas, with
//! real barriers and channel handoffs realizing each `SyncKind` edge.
//!
//! The contract, pinned by the differential and stress test suites: for
//! any compiled configuration, the native run's final arenas — and hence
//! its checksum in the repository's checksum-bits format — are
//! bit-identical to the simulator's, at every processor count, strategy,
//! folding, and thread interleaving. See `run.rs` for the bit-identity
//! argument and DESIGN.md §13 for the full design.
//!
//! The crate carries a zero-panic gate (`tests/panic_ratchet.rs`): worker
//! failure, peer death, and cancellation all surface as structured
//! [`dct_ir::DctError`]s, never as a panic or a deadlock.

pub mod barrier;
pub mod run;

pub use barrier::AbortableBarrier;
pub use run::{
    arena_padding, execute, execute_with_values, run_native, run_native_with_values, ArenaPad,
    NativeOptions, NativeRun,
};
