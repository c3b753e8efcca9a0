//! # `fpdm-bench` — experiment harness and the tree-induction benchmark
//!
//! The `experiments` binary regenerates every table and figure of the
//! dissertation's evaluation (see DESIGN.md's per-experiment index);
//! `bench_classify` writes the committed `BENCH_classify.json` baseline
//! that CI gates with `cargo run -p xtask -- bench-gate`.

/// Shared helpers for the experiment binary.
pub mod tables;
