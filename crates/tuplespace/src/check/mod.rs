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
//! * [`explore()`] — a deterministic interleaving explorer (loom's idea
//!   sized to the Linda op). It runs your real program over a scheduled
//!   space, where every space operation waits for a baton the scheduler
//!   hands to one runnable thread per step, under seeded schedules and a
//!   kill at every commit boundary through the runtime's own kill path,
//!   and asserts the checkers plus sequential equivalence on each run.
//!   To verify a program, write it as `|space| -> R` over the space it is
//!   given, e.g. `ParallelConfig::with_space` or [`crate::Runtime::with_space`].
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
pub use explore::{explore, ExploreConfig, ExploreReport, KillPoint, RunFailure};
pub use trace::{OpKind, Recorder, Trace, TraceEvent};
