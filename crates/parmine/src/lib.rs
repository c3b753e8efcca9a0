//! # `parmine` — data-parallel classification-tree mining (Chapter 6)
//!
//! The second parallelism framework of *Free Parallel Data Mining*:
//! **data partitioning**, where every task runs the same tree-growing
//! program on a different slice or sample of the data and the results are
//! combined. Classification-tree algorithms take to it naturally:
//!
//! * [`pcv::parallel_nyuminer_cv`] — the `V` auxiliary trees of a V-fold
//!   cross-validated NyuMiner run grow on PLinda workers while the master
//!   grows the main tree (§6.1, Figs. 6.1/6.2);
//! * [`pc45::parallel_c45_trials`] — C4.5's windowing trials as parallel
//!   tasks (§6.2.1);
//! * [`pc45::parallel_nyuminer_rs`] — NyuMiner-RS's multiple incremental
//!   sampling trials as parallel tasks, rules pooled at the master
//!   (§6.2.2);
//! * [`sim`] — NOW-simulator replays of measured task costs for the
//!   running-time/speedup figures (Figs. 6.3–6.8).
//!
//! Like every parallel driver in the workspace, each routine takes its
//! run parameters — workers, kill schedule, metrics registry, tuple
//! space, job tag — as one [`fpdm_core::ParallelConfig`], and is
//! seed-for-seed equivalent to its sequential counterpart in `classify`
//! (checked by tests, including under worker kills). The pattern-lattice
//! miners are farmed by their own crates: `seqmine::discover_farm`,
//! `treemine::discover_tree_motifs_farm` and
//! `episodes::discover_episodes_farm`.

#![warn(missing_docs)]

pub mod pc45;
pub mod pcv;
pub mod sim;

pub use pc45::{parallel_c45_trials, parallel_nyuminer_rs};
pub use pcv::{parallel_nyuminer_cv, ParallelCv};
pub use sim::{simulate_parallel_cv, simulate_parallel_trials, speedup};
