//! # `fpdm-core` — the Exploration-Dag (E-dag) framework
//!
//! The primary contribution of *Free Parallel Data Mining* (Bin Li, NYU,
//! 1998): a single computation model for the **pattern-lattice** class of
//! data mining applications — classification rule mining, association rule
//! mining, and combinatorial pattern discovery — together with provably
//! equivalent sequential and parallel ways to run it.
//!
//! A mining application is specified by four elements ([`MiningProblem`]):
//! a database, patterns with a length function, a `goodness` measure, and
//! a `good` predicate with the anti-monotone property (a superpattern of a
//! bad pattern is bad). Its **E-dag** has one vertex per pattern and an
//! edge from each immediate subpattern; the **E-tree** keeps only the
//! unique-parent edges.
//!
//! | Traversal | Module / function | Pruning | Coordination | Task |
//! |---|---|---|---|---|
//! | EDT    | [`edag::sequential_edt`]      | full (all subpatterns) | — | — |
//! | ETT    | [`etree::sequential_ett`]     | parent only            | — | — |
//! | PLED   | [`parallel::parallel_edt`]    | full                   | level barrier on PLinda | a chunk of one level |
//! | wave   | [`parallel::parallel_wave`]   | parent only            | level barrier on PLinda | a chunk of one level |
//! | PLET   | [`parallel::parallel_ett`]    | parent only            | none (counting termination, or optimistic subtrees) | one pattern (LB) or one subtree (optimistic) |
//! | hybrid | [`parallel::parallel_hybrid`] | full, then parent only | level barrier, then counting termination | a chunk, then one pattern |
//!
//! A level barrier cuts each level into at most
//! [`parallel::CHUNKS_PER_WORKER`] contiguous chunks per worker
//! ([`parallel::wave_chunks`]), so a level costs the master a few tasks
//! per worker however many candidates it holds.
//!
//! The parallel drivers share three master loops — a level-synchronous
//! loop with a pruning rule and an optional level cap, a
//! counter-terminated load-balanced tail, and the optimistic subtree
//! loop — and each takes its run parameters (workers, kill schedule,
//! metrics, backend space, job tag) as one [`ParallelConfig`].
//!
//! Theorems 1–4 of the dissertation state that all of these produce the
//! same good patterns, with the EDT forms testing the minimal pattern set;
//! the unit, integration, and property tests of this workspace check those
//! statements mechanically. `tests/explore_drivers.rs` also runs every
//! parallel driver — the real code, on a scheduled space handed in through
//! [`ParallelConfig::with_space`] — under `plinda::check::explore`, with a
//! worker killed at every commit boundary, and requires the sequential
//! outcome from every schedule.
//!
//! [`strategy`] replays recorded traversals ([`strategy::CostTree`])
//! through the [`nowsim`] discrete-event simulator to study the
//! optimistic / load-balanced / adaptive-master trade-offs of Chapter 4 at
//! machine counts beyond the host.
//!
//! ## Quick start
//!
//! ```
//! use fpdm_core::prelude::*;
//! use std::sync::Arc;
//!
//! // Frequent substrings of length ≥ 1 occurring in ≥ 2 sequences.
//! let problem = ToySeq::new(vec!["FFRR", "MRRM", "MTRM"], 2, usize::MAX);
//!
//! let sequential = sequential_edt(&problem);
//! let parallel = parallel_ett(
//!     Arc::new(problem),
//!     &ParallelConfig::load_balanced(3),
//! );
//! assert_eq!(sequential.good, parallel.good); // Theorems 1–3
//! ```

#![warn(missing_docs)]

pub mod edag;
pub mod etree;
pub mod parallel;
pub mod problem;
pub mod render;
pub mod strategy;
pub mod toy;

pub use edag::{sequential_edt, sequential_edt_traced, EdtTrace};
pub use etree::{sequential_ett, sequential_ett_recorded, ENode, ETree};
pub use parallel::{
    parallel_edt, parallel_ett, parallel_hybrid, parallel_wave, wave_chunks, ParallelConfig,
    WorkerStrategy,
};
pub use problem::{MiningOutcome, MiningProblem, PatternCodec};
pub use render::{edag_dot, etree_dot};
pub use strategy::{
    simulate_load_balanced, simulate_optimistic, CostNode, CostTree, StrategyReport,
};

/// Convenient glob-import surface.
pub mod prelude {
    pub use crate::edag::{sequential_edt, sequential_edt_traced};
    pub use crate::etree::{sequential_ett, sequential_ett_recorded};
    pub use crate::parallel::{
        parallel_edt, parallel_ett, parallel_hybrid, parallel_wave, ParallelConfig, WorkerStrategy,
    };
    pub use crate::problem::{MiningOutcome, MiningProblem, PatternCodec};
    pub use crate::strategy::{simulate_load_balanced, simulate_optimistic, CostTree};
    pub use crate::toy::{ToyItemsets, ToyRules, ToySeq};
}
