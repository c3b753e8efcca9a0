//! `plinda::check` — the protocol analysis layer.
//!
//! The dissertation's central correctness claim (§7.1.2) is that a PLinda
//! computation, with or without failures, reaches the same final state as
//! a failure-free execution of the underlying Linda program. This module
//! turns that claim into something mechanically checkable:
//!
//! * [`trace`] — structured per-run traces of every Linda operation,
//!   transaction event, block/wake transition, and kill, collected by a
//!   [`Recorder`] installed on the space (no-op when absent).
//! * [`checkers`] — offline analyses over a completed [`Trace`]:
//!   transaction atomicity ([`check_atomicity`]), tuple leaks at
//!   quiescence ([`check_leaks`]), and wait-for-graph deadlock /
//!   lost-wakeup detection ([`check_deadlock`]).
//! * [`explore()`] — a deterministic interleaving explorer (a loom-style
//!   mini model checker sized to the farm protocols) that replays small
//!   programs under seeded schedules, with kill placement at every commit
//!   boundary, asserting the checkers plus sequential equivalence on each.
//!
//! The static counterpart — cross-checking every `Template` signature
//! matched against every signature produced across the workspace, plus
//! transaction discipline and protocol-duality passes — lives in the
//! `fpdm-analyze` crate (`cargo run -p xtask -- analyze`).

pub mod checkers;
pub mod explore;
pub mod trace;

pub use checkers::{
    check_atomicity, check_deadlock, check_leaks, check_trace, leftover_by_signature,
    AtomicityViolation, CheckReport, DeadlockReport, Leak,
};
pub use explore::{
    explore, Action, ExploreConfig, ExploreReport, KillPoint, Reply, RunFailure, VirtualProgram,
};
pub use trace::{OpKind, Recorder, Trace, TraceEvent};
