//! Deterministic load generation for the mining service.
//!
//! Three layers, each a pure function of its inputs:
//!
//! * [`trace`] — owner-activity arrival traces: tenants issue requests
//!   inside `nowsim`-style owner-active bursts, exactly `n` arrivals,
//!   fully seeded.
//! * [`sim`] — a virtual-time discrete-event replay that drives the *real*
//!   [`fpdm_service::Admission`] controller (same type, same code as the
//!   live service) and records exact per-request latencies into the
//!   `fpdm.metrics.v1` ledger. A million requests replay in seconds with
//!   no wall-clock reads, so every number is reproducible bit-for-bit.
//! * [`mod@bench`] — the `fpdm.bench.v1` format every committed
//!   `BENCH_*.json` baseline is written in, and the one regression gate
//!   over it (`cargo run -p xtask -- bench-gate`).
//!
//! The `loadgen` binary ties them together:
//!
//! ```text
//! loadgen --profile full --seed 1          # replay 1M requests
//! loadgen --out BENCH_service.json         # regenerate the baseline
//! loadgen --profile smoke --out target/bench/service.json   # CI: then bench-gate
//! ```

pub mod bench;
pub mod sim;
pub mod trace;

pub use sim::{run, LoadReport, SimConfig};
pub use trace::{owner_activity_trace, Arrival, TraceConfig, KINDS, KIND_LABELS};
