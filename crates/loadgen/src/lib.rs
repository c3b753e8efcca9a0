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
//! * [`mod@bench`] — the committed `BENCH_service.json` artefact and its CI
//!   regression gate (p50/p99, throughput, shed rate).
//!
//! The `loadgen` binary ties them together:
//!
//! ```text
//! loadgen --profile full --seed 1          # replay 1M requests
//! loadgen --out BENCH_service.json         # regenerate the baseline
//! loadgen --profile smoke --check BENCH_service.json   # CI gate
//! ```

pub mod bench;
pub mod sim;
pub mod trace;

pub use bench::TOLERANCE_PCT;
pub use sim::{run, LoadReport, SimConfig};
pub use trace::{owner_activity_trace, Arrival, TraceConfig, KINDS, KIND_LABELS};
